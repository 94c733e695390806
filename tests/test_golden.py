"""Golden answers: seeded instances whose exact outputs are pinned in a file.

The planner is a heuristic, so a change that alters its arithmetic or its
tie-breaking changes answers without breaking any invariant the other
tests check. This test compares plans, comparison reports and oracle
results with the recorded ones exactly, as JSON text, so a number that
changes type (0 for 0.0) fails it too; floats round-trip through JSON.
A request that `TransferRequest` refuses is recorded as "ValueError:
<message>", as a comparison between endpoints that no path joins would be
recorded as "NoPathError: <message>"; the instances' graphs are strongly
connected, so none is.
The `searches` answers were recorded with a per-edge search run on each
node-billed instance's per-edge expansion, a[e] = a[src[e]] and
b[e] = delay[e] + b[src[e]], so they also pin that the node-billed search
adds the same floats in the same order.

Regenerate only for a change meant to alter answers:

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""

from __future__ import annotations

import heapq
import json
import math
import random
import sys
from pathlib import Path

from budgetpath.billing import TransferRequest, node_cost, select_billing
from budgetpath.planner import build_weights, plan_to_dict, plan_transfer
from budgetpath.search import enumerate_best_path, search_min_latency
from budgetpath.simulate import compare
from budgetpath.topology import LinkSpec, NodeSpec, NoPathError, Topology
from helpers import random_topology, random_weights

GOLDEN = Path(__file__).resolve().parent / "golden_answers.json"
SPARSE_SEED = 20261017
SPARSE_GRAPHS = 3
SPARSE_REQUESTS = 6


def sparse_topology(rng: random.Random, n: int, mean_degree: int = 8) -> Topology:
    """Connected random graph with about n * mean_degree directed links."""
    nodes = []
    for i in range(n):
        roll = rng.random()
        nodes.append(
            NodeSpec(
                id=i,
                name=f"n{i}",
                public_address=f"198.51.100.{i % 250 + 1}",
                max_egress_mbps=rng.choice([50.0, 100.0, 200.0, 500.0, 1000.0]),
                payg_rate=round(rng.uniform(0.005, 0.05), 4) if roll < 0.9 else None,
                pfdt_rate=round(rng.uniform(0.01, 0.2), 4) if roll > 0.1 else None,
            )
        )
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    while len(pairs) < n * mean_degree // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (v, u) not in pairs:
            pairs.add((u, v))
    links = []
    for u, v in sorted(pairs):
        rtt = rng.uniform(0.002, 0.25)
        links += [LinkSpec(u, v, rtt), LinkSpec(v, u, rtt)]
    return Topology(tuple(nodes), tuple(links))


def _request(doc: dict) -> TransferRequest:
    return TransferRequest(doc["src"], doc["dst"], doc["data_gb"], doc["budget"], doc["iterations"])


def _plan(topology: Topology, request: TransferRequest, rule: str = "threshold"):
    plan = plan_transfer(topology, request, rule)
    return None if plan is None else plan_to_dict(plan)


def _path_result(result) -> dict | None:
    if result is None:
        return None
    return {"path": list(result.path), "total_a": result.total_a, "total_b": result.total_b}


def cheapest_full_bandwidth_cost(topology: Topology, src: int, dst: int, data_gb: float) -> float:
    """Least summed egress cost from src to dst with every node at full bandwidth."""
    cost = [node_cost(node, select_billing(node, node.max_egress_mbps, data_gb), data_gb)
            for node in topology.nodes]
    best = {src: 0.0}
    frontier = [(0.0, src)]
    while frontier:
        spent, u = heapq.heappop(frontier)
        if u == dst:
            return spent
        if spent > best[u]:
            continue
        for v in topology.neighbors(u):
            if spent + cost[u] < best.get(v, math.inf):
                best[v] = spent + cost[u]
                heapq.heappush(frontier, (best[v], v))
    return math.inf


def sparse_requests() -> list[dict]:
    """Budgets around the cheapest full-bandwidth path cost, so most requests shrink `k`."""
    rng = random.Random(SPARSE_SEED)
    requests = []
    for graph in range(SPARSE_GRAPHS):
        topology = sparse_topology(random.Random(SPARSE_SEED + graph), 200)
        for _ in range(SPARSE_REQUESTS):
            src, dst = rng.sample(range(200), 2)
            data_gb = round(rng.uniform(20.0, 300.0), 3)
            floor = cheapest_full_bandwidth_cost(topology, src, dst, data_gb)
            budget = floor * rng.choice([0.7, 0.85, 0.9, 0.95, 0.98, 1.1])
            requests.append({"graph": graph, "src": src, "dst": dst, "data_gb": data_gb,
                             "budget": budget, "iterations": 30})
    return requests


def answers(sparse: list[dict]) -> dict:
    rng = random.Random(424242)
    plans = []
    for i in range(120):
        topology = random_topology(rng)
        n = len(topology)
        try:
            # every field is drawn before a refusal, so the later instances stay the same
            request = TransferRequest(rng.randrange(n), rng.randrange(n), rng.uniform(0.1, 40.0),
                                      rng.uniform(0.0, 3.0), rng.randint(1, 10))
        except ValueError as exc:
            plans.append(f"ValueError: {exc}")
            continue
        plans.append(_plan(topology, request, "exact-cost" if i % 4 == 3 else "threshold"))

    reports = []
    for _ in range(40):
        topology = random_topology(rng, 2, 9)
        n = len(topology)
        request = TransferRequest(0, n - 1, rng.uniform(0.1, 40.0), rng.uniform(0.0, 3.0), 8)
        try:
            reports.append(compare(topology, request).to_dict())
        except NoPathError as exc:
            reports.append(f"NoPathError: {exc}")

    searches = []
    for _ in range(200):
        n = rng.randint(2, 8)
        weights = random_weights(rng, n)
        cap = rng.uniform(0.0, 2.5)
        searches.append({
            "search": _path_result(search_min_latency(weights, 0, n - 1, cap)),
            "oracle": _path_result(enumerate_best_path(weights, 0, n - 1, cap)),
        })
    for _ in range(30):
        topology = random_topology(rng, 3, 8)
        n = len(topology)
        request = TransferRequest(0, n - 1, rng.uniform(0.1, 40.0), rng.uniform(0.0, 3.0), 1)
        weights = build_weights(topology, request, rng.choice([1.0, 0.5, 0.3]))
        searches.append({
            "search": _path_result(search_min_latency(weights, 0, n - 1, request.budget_usd)),
            "oracle": _path_result(enumerate_best_path(weights, 0, n - 1, request.budget_usd)),
        })

    topologies = {}
    sparse_plans = []
    for doc in sparse:
        if doc["graph"] not in topologies:
            topologies[doc["graph"]] = sparse_topology(random.Random(SPARSE_SEED + doc["graph"]), 200)
        sparse_plans.append(_plan(topologies[doc["graph"]], _request(doc)))

    return {"plans": plans, "reports": reports, "searches": searches, "sparse_plans": sparse_plans}


def test_answers_match_golden():
    golden = json.loads(GOLDEN.read_text())
    computed = answers(golden["sparse_requests"])
    for key in ("plans", "reports", "searches", "sparse_plans"):
        assert len(computed[key]) == len(golden[key]), key
        for i, (mine, pinned) in enumerate(zip(computed[key], golden[key])):
            # as JSON text, which tells 0 from 0.0 where == on numbers would not
            assert json.dumps(mine) == json.dumps(pinned), f"{key}[{i}]"


def test_golden_covers_every_planner_outcome():
    golden = json.loads(GOLDEN.read_text())
    outcomes = {"k1": 0, "shrunk": 0, "insufficient": 0, "refused": 0}
    for plan in golden["sparse_plans"] + golden["plans"]:
        if plan is None:
            outcomes["insufficient"] += 1
        elif isinstance(plan, str):
            outcomes["refused"] += 1
        else:
            outcomes["k1" if plan["fraction_k"] == 1.0 else "shrunk"] += 1
    assert all(count >= 2 for count in outcomes.values()), outcomes


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    sparse = sparse_requests()
    GOLDEN.write_text(json.dumps({"sparse_requests": sparse, **answers(sparse)}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
