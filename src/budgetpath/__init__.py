"""Budget-constrained overlay route planning for bulk cloud data transfers.

Plans a minimum-latency path through a graph of cloud edge routers whose
total egress cost stays within a user budget, picks a billing method and
egress bandwidth for every node on the path, and renders the path as a
chain of WireGuard tunnel configurations.
"""

from budgetpath.billing import (
    BillingMethod,
    NodeBillingConfig,
    TransferRequest,
    data_threshold,
    edge_latency,
    payg_cost,
    pfdt_cost,
    select_billing,
)
from budgetpath.planner import Plan, build_weights, plan_transfer, plan_transfer_with_state
from budgetpath.search import EdgeList, EdgeWeights, PathResult, enumerate_best_path, search_min_latency
from budgetpath.simulate import SimulationReport, compare, naive_baseline, simulate_transfer
from budgetpath.topology import LinkSpec, NodeSpec, Topology, TopologyError, load_topology, probe_rtts
from budgetpath.tunnels import KeyPair, PeerEntry, TunnelSpec, build_tunnels, generate_keypair, parse_conf, render_conf

__all__ = [
    "BillingMethod",
    "EdgeList",
    "EdgeWeights",
    "KeyPair",
    "LinkSpec",
    "NodeBillingConfig",
    "NodeSpec",
    "PathResult",
    "PeerEntry",
    "Plan",
    "SimulationReport",
    "Topology",
    "TopologyError",
    "TransferRequest",
    "TunnelSpec",
    "build_tunnels",
    "build_weights",
    "compare",
    "data_threshold",
    "edge_latency",
    "enumerate_best_path",
    "generate_keypair",
    "load_topology",
    "naive_baseline",
    "parse_conf",
    "payg_cost",
    "pfdt_cost",
    "plan_transfer",
    "plan_transfer_with_state",
    "probe_rtts",
    "render_conf",
    "search_min_latency",
    "select_billing",
    "simulate_transfer",
]
