"""Budget-constrained overlay route planning for bulk cloud data transfers.

Plans a minimum-latency path through a graph of cloud edge routers whose
total egress cost stays within a user budget, picks a billing method and
egress bandwidth for every node on the path, and renders the path as a
chain of WireGuard tunnel configurations.

Importing the package loads none of its modules. Each public name and each
submodule is imported on first access (PEP 562) and then cached in the
package namespace, so a command loads only the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "billing": (
        "BillingMethod",
        "NodeBillingConfig",
        "TransferRequest",
        "data_threshold",
        "edge_latency",
        "payg_cost",
        "pfdt_cost",
        "select_billing",
    ),
    "planner": ("Plan", "build_weights", "plan_transfer"),
    "probe": ("probe_rtts",),
    "search": ("EdgeWeights", "PathResult", "enumerate_best_path", "search_min_latency"),
    "simulate": ("SimulationReport", "compare", "naive_baseline", "simulate_transfer"),
    "topology": (
        "EdgeList",
        "LinkSpec",
        "NoPathError",
        "NodeSpec",
        "Topology",
        "TopologyError",
        "load_topology",
    ),
    "tunnels": (
        "KeyPair",
        "PeerEntry",
        "TunnelSpec",
        "build_tunnels",
        "generate_keypair",
        "render_conf",
    ),
}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
