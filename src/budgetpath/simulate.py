"""Store-and-forward transfer prediction and planner-vs-baseline comparison.

Latency is additive per hop: every relay retransmits the full payload, so
each edge contributes its own propagation plus transmission time. The
naive baseline is a minimum-hop path with every node at full bandwidth on
per-volume billing, budget ignored.
"""

from __future__ import annotations

from collections.abc import Sequence

from budgetpath.billing import (
    BillingMethod,
    NodeBillingConfig,
    TransferRequest,
    edge_latency,
    node_cost,
)
from budgetpath.planner import build_weights, plan_outcome
from budgetpath.records import Record
from budgetpath.search import ORACLE_MAX_NODES, enumerate_best_path
from budgetpath.topology import NoPathError, Topology, check_node_ids, json_text, number_text

NAIVE_DEFINITION = (
    "naive baseline: minimum-hop path (ties by summed rtt, then lexicographic), "
    "all nodes at full bandwidth, per-volume billing, budget ignored"
)


class SimulationError(ValueError):
    pass


def simulate_transfer(
    topology: Topology,
    path: Sequence[int],
    configs: dict[int, NodeBillingConfig],
    data_size_gb: float,
) -> tuple[float, float]:
    """Predicted (latency_s, cost_usd) of sending the payload along `path`."""
    path = tuple(path)
    for node_id in path[:-1]:
        if node_id not in configs:
            raise SimulationError(f"path node {node_id} has no billing config")
    latency = sum(
        (
            edge_latency(topology.rtt(u, v), data_size_gb, configs[u].bandwidth_mbps)
            for u, v in zip(path, path[1:])
        ),
        0.0,
    )
    cost = sum((node_cost(topology.node(i), configs[i], data_size_gb) for i in path[:-1]), 0.0)
    return latency, cost


def naive_baseline(
    topology: Topology, request: TransferRequest
) -> tuple[tuple[int, ...], dict[int, NodeBillingConfig]]:
    """Minimum-hop path at full bandwidth with per-volume (PFDT) billing.

    Hop-count ties are broken by summed rtt, then lexicographic path.
    Nodes without a per-volume rate fall back to PAYG at full bandwidth.
    TopologyError if an endpoint is not a node id, NoPathError if no path
    joins them.
    """
    src, dst = request.source, request.destination
    check_node_ids(len(topology), source=src, destination=dst)

    # BFS hop counts; `dist` fills in level order.
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt_frontier = []
        for u in frontier:
            for v in topology.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt_frontier.append(v)
        frontier = nxt_frontier
    if dst not in dist:
        raise NoPathError(src, dst)
    hops = dist[dst]
    # The minimum-hop level DAG, with each edge's rtt read once.
    dag = {
        u: [(v, topology.rtt(u, v)) for v in topology.neighbors(u) if dist[v] == d + 1]
        for u, d in dist.items()
        if d < hops
    }

    def least(u: int, rtt_sum: float) -> float | None:
        """Least rtt sum at `dst`, added left to right from `rtt_sum` at `u`.

        None if no DAG path leads from `u` to `dst`. Keeping one least sum
        per node is exact because float `+` is monotone.
        """
        sums = {u: rtt_sum}
        for _ in range(dist[u], hops):
            reached: dict[int, float] = {}
            for w, s in sums.items():
                for v, rtt in dag[w]:
                    t = s + rtt
                    if v not in reached or t < reached[v]:
                        reached[v] = t
            sums = reached
        return sums.get(dst)

    # Walk to the smallest-id successor from which `best` is still reached.
    # All paths have `hops` edges, so this is the lexicographically smallest
    # fastest path, even where a slower prefix rounds to the same sum. At
    # most hops x out-degree x DAG edges additions.
    best = least(src, 0.0)
    path, rtt_sum = (src,), 0.0
    while path[-1] != dst:
        v, rtt = min((v, rtt) for v, rtt in dag[path[-1]] if least(v, rtt_sum + rtt) == best)
        path, rtt_sum = path + (v,), rtt_sum + rtt

    configs = {}
    for node_id in path[:-1]:
        node = topology.node(node_id)
        method = BillingMethod.PFDT if node.pfdt_rate is not None else BillingMethod.PAYG
        configs[node_id] = NodeBillingConfig(method, node.max_egress_mbps)
    return path, configs


class ReportRow(Record):
    """One compared route; path, latency and cost are None when the method found none."""

    __slots__ = _fields = ("label", "path", "latency_s", "cost_usd", "feasible")


class SimulationReport(Record):
    """The compared routes; `improvement` is (naive - planner) latency, relative to naive."""

    __slots__ = _fields = ("rows", "improvement")

    def to_dict(self) -> dict:
        return {
            "definition": NAIVE_DEFINITION,
            "rows": [
                {
                    "label": r.label,
                    "path": list(r.path) if r.path is not None else None,
                    "latency_s": r.latency_s,
                    "cost_usd": r.cost_usd,
                    "feasible": r.feasible,
                }
                for r in self.rows
            ],
            "improvement": self.improvement,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())

    def to_table(self) -> str:
        header = ["label", "path", "latency_s", "cost_usd", "feasible"]
        cells = [header]
        for r in self.rows:
            cells.append(
                [
                    r.label,
                    "->".join(map(str, r.path)) if r.path is not None else "-",
                    number_text(r.latency_s, 3) if r.latency_s is not None else "-",
                    number_text(r.cost_usd, 4) if r.cost_usd is not None else "-",
                    "yes" if r.feasible else "no",
                ]
            )
        widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
        lines = [f"# {NAIVE_DEFINITION}"]
        for row in cells:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if self.improvement is not None:
            lines.append(f"latency improvement over naive: {self.improvement:.1%}")
        return "\n".join(lines) + "\n"


def compare(
    topology: Topology,
    request: TransferRequest,
    rule: str = "threshold",
) -> SimulationReport:
    """Planner vs. naive baseline vs. the exact oracle (on at most `ORACLE_MAX_NODES` nodes)."""
    # the planner's and the oracle's totals are their searches' own, and both
    # searches prune every label over the budget, so their rows are feasible
    rows = []
    outcome = plan_outcome(topology, request, rule)
    plan = outcome.plan
    if plan is not None:
        rows.append(
            ReportRow("planner", plan.path, plan.predicted_latency_s, plan.predicted_cost_usd, True)
        )
    else:
        # proved by the cost floors, or met by no round of the heuristic search
        why = "insufficient budget" if outcome.proved else "no round met the budget"
        rows.append(ReportRow(f"planner ({why})", None, None, None, False))

    naive_path, naive_configs = naive_baseline(topology, request)
    naive_latency, naive_cost = simulate_transfer(
        topology, naive_path, naive_configs, request.data_size_gb
    )
    rows.append(
        ReportRow("naive", naive_path, naive_latency, naive_cost, naive_cost <= request.budget_usd)
    )

    if plan is not None and len(topology) <= ORACLE_MAX_NODES:
        weights = build_weights(topology, request, plan.fraction_k, rule)
        best = enumerate_best_path(weights, request.source, request.destination, request.budget_usd)
        if best is not None:
            rows.append(ReportRow("oracle", best.path, best.total_b, best.total_a, True))

    improvement = None
    if plan is not None and naive_latency > 0:
        improvement = (naive_latency - plan.predicted_latency_s) / naive_latency
    return SimulationReport(tuple(rows), improvement)
