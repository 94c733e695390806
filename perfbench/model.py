"""The benchmark's own model of topologies, egress billing and answer checks.

Nothing here imports budgetpath: inputs are chosen and outputs are checked
with arithmetic written from the billing rules in the project README (PAYG
per Mbps-hour with hours rounded up and a one-hour minimum, PFDT per GB at
the node's full rate, the strict `D < payg*bw/pfdt` threshold rule, edge
latency `rtt/2 + D/bw`, cost billed to the sending node).
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BITS_PER_GB = 8e9
BITS_PER_MBPS = 1e6
SECONDS_PER_HOUR = 3600.0
REL_TOL = 1e-9


@dataclass(frozen=True)
class Node:
    id: int
    name: str
    bw: float  # max egress, Mbps
    payg: Optional[float]  # USD per Mbps per hour
    pfdt: Optional[float]  # USD per GB


class Graph:
    """An undirected topology document as plain adjacency maps (rtt in seconds)."""

    def __init__(self, doc: dict):
        self.nodes = [
            Node(
                int(e["id"]),
                str(e["name"]),
                float(e["max_egress_mbps"]),
                e.get("payg_usd_per_mbps_hour"),
                e.get("pfdt_usd_per_gb"),
            )
            for e in doc["nodes"]
        ]
        self.adj: list[dict[int, float]] = [{} for _ in self.nodes]
        for link in doc["links"]:
            rtt_s = float(link["rtt_ms"]) / 1000.0
            self.adj[link["src"]][link["dst"]] = rtt_s
            self.adj[link["dst"]][link["src"]] = rtt_s

    @classmethod
    def from_file(cls, path) -> "Graph":
        return cls(json.loads(Path(path).read_text()))

    def __len__(self) -> int:
        return len(self.nodes)


# --- billing arithmetic -------------------------------------------------


def transfer_s(data_gb: float, bw: float) -> float:
    return data_gb * BITS_PER_GB / (bw * BITS_PER_MBPS)


def node_config(node: Node, k: float, data_gb: float) -> tuple[str, float]:
    """(method, bandwidth) the threshold rule picks at bandwidth fraction k."""
    candidate = k * node.bw
    if node.pfdt is None:
        return "payg", candidate
    if node.payg is None:
        return "pfdt", node.bw
    threshold = math.inf if node.pfdt == 0 else node.payg * candidate / node.pfdt
    return ("pfdt", node.bw) if data_gb < threshold else ("payg", candidate)


def config_cost(node: Node, method: str, bw: float, data_gb: float) -> float:
    if method == "pfdt":
        return node.pfdt * data_gb
    hours = max(1, math.ceil(transfer_s(data_gb, bw) / SECONDS_PER_HOUR))
    return node.payg * bw * hours


def node_cost_at(node: Node, k: float, data_gb: float) -> float:
    return config_cost(node, *node_config(node, k, data_gb), data_gb)


def node_cost_floor(node: Node, data_gb: float) -> float:
    """A lower bound on the node's cost over every k in (0, 1].

    PAYG never costs less than the bandwidth-hours the payload needs,
    `payg * D * 8000 / 3600`; PFDT is only reachable when some k <= 1
    puts D under the threshold.
    """
    options = []
    if node.payg is not None:
        options.append(node.payg * data_gb * BITS_PER_GB / BITS_PER_MBPS / SECONDS_PER_HOUR)
    if node.pfdt is not None and (node.payg is None or data_gb < node.payg * node.bw / node.pfdt):
        options.append(node.pfdt * data_gb)
    return min(options)


def min_sender_cost(graph: Graph, source: int, cost: list[float]) -> list[float]:
    """Cheapest cost from `source` to every node when each sender pays `cost[sender]`."""
    dist = [math.inf] * len(graph)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        nd = d + cost[u]
        for v in graph.adj[u]:
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def hop_counts(graph: Graph, source: int) -> list[Optional[int]]:
    hops: list[Optional[int]] = [None] * len(graph)
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.adj[u]:
            if hops[v] is None:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


# --- answer checks --------------------------------------------------------
# Each check returns a list of problems; an empty list means the answer holds.


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_path(graph: Graph, path, src: int, dst: int) -> list[str]:
    if not path:
        return ["empty path"]
    if path[0] != src or path[-1] != dst:
        return [f"path {path} does not run {src}->{dst}"]
    if len(set(path)) != len(path):
        return [f"path {path} repeats a node"]
    missing = [(u, v) for u, v in zip(path, path[1:]) if v not in graph.adj[u]]
    return [f"path uses absent links {missing}"] if missing else []


def path_totals(graph: Graph, path, configs: dict[int, tuple[str, float]], data_gb: float):
    latency = sum(
        graph.adj[u][v] / 2.0 + transfer_s(data_gb, configs[u][1]) for u, v in zip(path, path[1:])
    )
    cost = sum(config_cost(graph.nodes[i], *configs[i], data_gb) for i in path[:-1])
    return latency, cost


def check_plan(graph: Graph, req: dict, plan: dict) -> list[str]:
    """A plan in the documented JSON form against the benchmark's own arithmetic."""
    path = plan["path"]
    problems = check_path(graph, path, req["src"], req["dst"])
    if problems:
        return problems
    k = plan["fraction_k"]
    if not 0 < k <= 1:
        return [f"fraction_k {k} outside (0, 1]"]
    expected = {i: node_config(graph.nodes[i], k, req["data_gb"]) for i in path[:-1]}
    got = {int(i): (c["method"], c["bandwidth_mbps"]) for i, c in plan["per_node"].items()}
    if set(got) != set(expected) or any(
        got[i][0] != m or not close(got[i][1], bw) for i, (m, bw) in expected.items()
    ):
        problems.append(f"per_node {got} differs from the threshold rule at k={k}: {expected}")
    latency, cost = path_totals(graph, path, expected, req["data_gb"])
    if cost > req["budget"] * (1 + REL_TOL):
        problems.append(f"cost {cost} exceeds budget {req['budget']}")
    if not close(cost, plan["predicted_cost_usd"]):
        problems.append(f"predicted cost {plan['predicted_cost_usd']} != recomputed {cost}")
    if not close(latency, plan["predicted_latency_s"]):
        problems.append(f"predicted latency {plan['predicted_latency_s']} != recomputed {latency}")
    return problems


def naive_configs(graph: Graph, path) -> dict[int, tuple[str, float]]:
    return {
        i: ("pfdt" if graph.nodes[i].pfdt is not None else "payg", graph.nodes[i].bw)
        for i in path[:-1]
    }


def check_report(graph: Graph, req: dict, report: dict, expect_oracle: bool) -> list[str]:
    """A `compare` report whose budget never binds, so the planner stays at k=1."""
    rows = {row["label"]: row for row in report["rows"]}
    src, dst, data_gb = req["src"], req["dst"], req["data_gb"]
    problems = []
    planner = rows.get("planner")
    if planner is None:
        return [f"no feasible planner row in {sorted(rows)}"]
    problems += check_path(graph, planner["path"], src, dst)
    if not problems:
        configs = {i: node_config(graph.nodes[i], 1.0, data_gb) for i in planner["path"][:-1]}
        latency, cost = path_totals(graph, planner["path"], configs, data_gb)
        if not (close(latency, planner["latency_s"]) and close(cost, planner["cost_usd"])):
            problems.append(f"planner row {planner} != recomputed ({latency}, {cost}) at k=1")
        if cost > req["budget"]:
            problems.append(f"planner cost {cost} exceeds budget {req['budget']}")

    naive = rows.get("naive")
    if naive is None:
        return problems + ["no naive row"]
    naive_problems = check_path(graph, naive["path"], src, dst)
    if not naive_problems:
        if len(naive["path"]) - 1 != hop_counts(graph, src)[dst]:
            naive_problems.append(f"naive path {naive['path']} is not minimum-hop")
        latency, cost = path_totals(graph, naive["path"], naive_configs(graph, naive["path"]), data_gb)
        if not (close(latency, naive["latency_s"]) and close(cost, naive["cost_usd"])):
            naive_problems.append(f"naive row {naive} != recomputed ({latency}, {cost})")
    problems += naive_problems

    oracle = rows.get("oracle")
    if expect_oracle and oracle is None:
        problems.append("no oracle row on a small graph")
    if oracle is not None:
        problems += check_path(graph, oracle["path"], src, dst)
        if oracle["cost_usd"] > req["budget"]:
            problems.append(f"oracle cost {oracle['cost_usd']} exceeds budget")
        if oracle["latency_s"] > planner["latency_s"] * (1 + REL_TOL):
            problems.append(f"oracle latency {oracle['latency_s']} > planner {planner['latency_s']}")
    return problems


def check_tunnel_dir(graph: Graph, path, out_dir) -> list[str]:
    """`render-wg` wrote one conf per path node plus manifest.json, and nothing else."""
    expected = {f"{graph.nodes[i].name}.conf" for i in path} | {"manifest.json"}
    got = {p.name for p in Path(out_dir).iterdir()}
    if got != expected:
        return [f"render-wg wrote {sorted(got)}, expected {sorted(expected)}"]
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    if set(manifest) != {graph.nodes[i].name for i in path}:
        return [f"manifest names {sorted(manifest)} differ from the path"]
    return []
