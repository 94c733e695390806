"""Transfer planning: billing-aware weight construction plus the bandwidth
binary search that shrinks PAYG rates until a budget-feasible path exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, truediv
from typing import Optional

from budgetpath.billing import (
    BillingMethod,
    NodeBillingConfig,
    TransferRequest,
    edge_latency,
    node_cost,
    select_billing,
    transfer_seconds,
)
from budgetpath.search import EdgeWeights, PathResult, SearchError, search_min_latency
from budgetpath.topology import Topology


@dataclass(frozen=True)
class Plan:
    """A chosen path with per-node billing and its predicted cost/latency.

    `configs` holds exactly the billed senders, `path[:-1]`: the final hop
    has no billed egress, so the destination and off-path nodes have no
    entry.
    """

    path: tuple[int, ...]
    configs: dict[int, NodeBillingConfig]
    predicted_cost_usd: float
    predicted_latency_s: float
    fraction_k: float
    iterations_used: int


@dataclass
class BinarySearchState:
    """Bracketed fraction search over a uniform bandwidth scale factor."""

    k: float = 0.5
    k_lower: float = 0.0
    k_upper: float = 1.0
    iteration: int = 0
    best_plan: Optional[Plan] = field(default=None)


def build_weights(
    topology: Topology,
    request: TransferRequest,
    fraction_k: float,
    rule: str = "threshold",
) -> tuple[EdgeWeights, dict[int, NodeBillingConfig]]:
    """Weights for one candidate configuration at bandwidth fraction `fraction_k`.

    Every node's PAYG candidate bandwidth is fraction_k times its cap; the
    billing rule then picks the method (PFDT restores the full rate). The
    egress cost of node i is attached to all of its outgoing edges; edge
    latency uses the sending node's configured bandwidth. Billing is per
    sending node, so cost and transmission time are computed once per node
    and gathered onto the topology's edge list.
    """
    if not 0 < fraction_k <= 1:
        raise ValueError(f"fraction_k must be in (0, 1], got {fraction_k}")
    data_size_gb = request.data_size_gb
    configs: dict[int, NodeBillingConfig] = {}
    cost = []
    seconds = []
    for node in topology.nodes:
        config = select_billing(node, fraction_k * node.max_egress_mbps, data_size_gb, rule)
        configs[node.id] = config
        cost.append(node_cost(node, config, data_size_gb))
        seconds.append(transfer_seconds(data_size_gb, config.bandwidth_mbps))

    edges = topology.edges
    a = tuple(map(cost.__getitem__, edges.src))
    # rtt / 2.0 + transfer_seconds, in that order, is edge_latency's arithmetic exactly
    half_rtt = map(truediv, topology.edge_rtt, repeat(2.0))
    b = tuple(map(add, half_rtt, map(seconds.__getitem__, edges.src)))
    return EdgeWeights(edges, a, b), configs


def _finalize(
    topology: Topology,
    request: TransferRequest,
    result: PathResult,
    configs: dict[int, NodeBillingConfig],
    fraction_k: float,
    iterations_used: int,
) -> Plan:
    """Keep the senders' configs and recompute cost/latency from first principles."""
    senders = {i: configs[i] for i in result.path[:-1]}
    cost = sum(
        node_cost(topology.node(i), config, request.data_size_gb)
        for i, config in senders.items()
    )
    latency = sum(
        edge_latency(topology.rtt(u, v), request.data_size_gb, senders[u].bandwidth_mbps)
        for u, v in zip(result.path, result.path[1:])
    )
    return Plan(result.path, senders, cost, latency, fraction_k, iterations_used)


def plan_transfer_with_state(
    topology: Topology,
    request: TransferRequest,
    rule: str = "threshold",
) -> tuple[Optional[Plan], BinarySearchState]:
    """Plan a transfer, returning the final bracket state alongside the plan.

    Step 1 tries full bandwidth; on success the plan is returned with zero
    binary iterations. Otherwise a uniform bandwidth fraction is binary
    searched for exactly `max_iterations` rounds, keeping the most recent
    feasible plan. None means no round ever produced a feasible path: the
    budget is insufficient.
    """
    if not 0 <= request.source < len(topology):
        raise SearchError(f"source {request.source} is not a valid node id")
    if not 0 <= request.destination < len(topology):
        raise SearchError(f"destination {request.destination} is not a valid node id")

    source, destination, budget = request.source, request.destination, request.budget_usd
    state = BinarySearchState()
    weights, configs = build_weights(topology, request, 1.0, rule)
    result = search_min_latency(weights, source, destination, budget)
    if result is not None:
        state.best_plan = _finalize(topology, request, result, configs, 1.0, 0)
        return state.best_plan, state

    while state.iteration < request.max_iterations:
        weights, configs = build_weights(topology, request, state.k, rule)
        result = search_min_latency(weights, source, destination, budget)
        if result is not None:
            state.best_plan = _finalize(
                topology, request, result, configs, state.k, request.max_iterations
            )
            state.k_lower = state.k
            state.k = (state.k + state.k_upper) / 2.0
        else:
            state.k_upper = state.k
            state.k = (state.k + state.k_lower) / 2.0
        state.iteration += 1
    return state.best_plan, state


def plan_transfer(
    topology: Topology,
    request: TransferRequest,
    rule: str = "threshold",
) -> Optional[Plan]:
    plan, _ = plan_transfer_with_state(topology, request, rule)
    return plan


_METHOD_NAMES = {BillingMethod.PAYG: "payg", BillingMethod.PFDT: "pfdt"}
_METHOD_VALUES = {"payg": BillingMethod.PAYG, "pfdt": BillingMethod.PFDT}
_PLAN_KEYS = (
    "path", "per_node", "predicted_cost_usd", "predicted_latency_s", "fraction_k", "iterations_used"
)


def plan_to_dict(plan: Plan) -> dict:
    """JSON-ready form; `per_node` lists the billed senders."""
    return {
        "path": list(plan.path),
        "per_node": {
            str(node_id): {
                "method": _METHOD_NAMES[config.method],
                "bandwidth_mbps": config.bandwidth_mbps,
            }
            for node_id, config in sorted(plan.configs.items())
        },
        "predicted_cost_usd": plan.predicted_cost_usd,
        "predicted_latency_s": plan.predicted_latency_s,
        "fraction_k": plan.fraction_k,
        "iterations_used": plan.iterations_used,
    }


def plan_from_dict(doc: dict, n_nodes: int) -> Plan:
    """Plan from its JSON form, checked against a topology of `n_nodes` nodes.

    ValueError unless every key is present, the path names only nodes of the
    topology, and `per_node` lists exactly the path's senders, each with a
    known method and a bandwidth.
    """
    missing = [key for key in _PLAN_KEYS if key not in doc]
    if missing:
        raise ValueError(f"plan has no {', '.join(missing)}")
    path = tuple(doc["path"])
    for node_id in path:
        if node_id not in range(n_nodes):
            raise ValueError(
                f"plan path names node {node_id!r}, but the topology has {n_nodes} nodes"
            )
    per_node = {int(node_id): entry for node_id, entry in doc["per_node"].items()}
    senders = path[:-1]
    if sorted(per_node) != sorted(senders):
        raise ValueError(
            f"plan per_node lists nodes {sorted(per_node)}, "
            f"but the path's senders are {sorted(senders)}"
        )
    configs = {}
    for node_id in senders:
        entry = per_node[node_id]
        if entry.get("method") not in _METHOD_VALUES or "bandwidth_mbps" not in entry:
            raise ValueError(
                f"plan per_node entry {node_id} needs a method (payg or pfdt) and a bandwidth_mbps"
            )
        configs[node_id] = NodeBillingConfig(
            _METHOD_VALUES[entry["method"]], float(entry["bandwidth_mbps"])
        )
    return Plan(
        path=path,
        configs=configs,
        predicted_cost_usd=float(doc["predicted_cost_usd"]),
        predicted_latency_s=float(doc["predicted_latency_s"]),
        fraction_k=float(doc["fraction_k"]),
        iterations_used=int(doc["iterations_used"]),
    )


def save_plan(plan: Plan, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_plan(path, n_nodes: int) -> Plan:
    with open(path) as fh:
        return plan_from_dict(json.load(fh), n_nodes)
