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

`outcome_digests` hashes whole `PlanOutcome`s, every round's k, path and
totals included, of the benchmark's plan-bsearch requests, so a change that
alters how the planner gets to an answer shows even where the answer stays.
`work_counts` pins exact counts of the work done for the same requests, and
`naive_baseline`'s topology reads for simulate-compare's, so a change that
alters the work shows as a diff of this file.

Regenerate only for a change meant to alter answers or work:

    PYTHONPATH=src:tests python tests/test_golden.py --write
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import importlib
import json
import math
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

from budgetpath import planner, search
from budgetpath.billing import RULES, TransferRequest, node_cost, select_billing
from budgetpath.planner import build_weights, plan_outcome, plan_to_dict, plan_transfer
from budgetpath.search import enumerate_best_path, search_min_latency
from budgetpath.simulate import compare, naive_baseline
from budgetpath.topology import LinkSpec, NodeSpec, NoPathError, Topology, load_topology
from helpers import random_topology, random_weights

GOLDEN = Path(__file__).resolve().parent / "golden_answers.json"
PERFBENCH = GOLDEN.parent.parent / "perfbench"
OUTCOME_SEEDS = (7, 8, 9)
OUTCOME_BLOCKS = 3
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


def _benchmark_blocks(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """The topologies and the first `OUTCOME_BLOCKS` request blocks of the
    benchmark's `workload` at `seed`.

    `perfbench/gen.py` never calls budgetpath, so the requests stay the same
    when the program changes. It is imported without writing bytecode under
    `perfbench/`, and its topology files go to a temporary directory.
    """
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        gen = importlib.import_module("gen")
        with tempfile.TemporaryDirectory() as work_dir:
            inputs = gen.Inputs(workload, seed, Path(work_dir), False, PERFBENCH.parent)
            topologies = {path: load_topology(path) for path in inputs.files}
            blocks = [request for _ in range(OUTCOME_BLOCKS) for request in inputs.block()]
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
    return topologies, blocks


def _outcome_text(outcome) -> str:
    """A whole `PlanOutcome` as exact text: floats as hex, each round's k, path and totals."""
    rounds = [
        [k.hex(), None if result is None
         else [list(result.path), result.total_a.hex(), result.total_b.hex()]]
        for k, result in outcome.rounds
    ]
    plan = None if outcome.plan is None else plan_to_dict(outcome.plan)
    floor = None if outcome.floor is None else outcome.floor.hex()
    return json.dumps([plan, floor, outcome.proved, rounds], sort_keys=True)


def _benchmark_request(doc: dict) -> TransferRequest:
    return TransferRequest(doc["src"], doc["dst"], doc["data_gb"], doc["budget"], 30)


@functools.cache
def plan_bsearch_runs() -> tuple[dict[str, str], dict[str, dict[str, int]]]:
    """Per seed and rule, a hash of the whole outcome of every plan-bsearch
    request, and exact counts of the work that planning them took.

    The counts are taken from outside the program: the search's `heapq`, the
    planner's `search_core` and its `cost_floor` are wrapped while the
    requests run, so the program runs its own code and pays nothing. Heap
    pushes and pops are `search_core`'s. A bisection round's priced node
    entries are the entries of `a` it left filled, the source's included.
    """
    digests, counts, work = {}, {}, Counter()
    search_core, cost_floor = planner.search_core, planner.cost_floor

    def heappush(heap, item):
        work["heap pushes"] += 1
        heapq.heappush(heap, item)

    def heappop(heap):
        work["heap pops"] += 1
        return heapq.heappop(heap)

    def counting_search(edges, a, b, source, destination, cost_cap, pricing=None):
        if pricing is None:
            return search_core(edges, a, b, source, destination, cost_cap)
        result = search_core(edges, a, b, source, destination, cost_cap, pricing)
        work["node entries priced"] += sum(value is not None for value in a)
        return result

    def counting_cost_floor(*args):
        work["floors"] += 1
        return cost_floor(*args)

    heap = SimpleNamespace(heappush=heappush, heappop=heappop)
    with patch.object(search, "heapq", heap), \
            patch.object(planner, "search_core", counting_search), \
            patch.object(planner, "cost_floor", counting_cost_floor):
        for seed in OUTCOME_SEEDS:
            topologies, requests = _benchmark_blocks("plan-bsearch", seed)
            for rule in RULES:
                work.clear()
                outcomes = [
                    plan_outcome(topologies[doc["topology"]], _benchmark_request(doc), rule)
                    for doc in requests
                ]
                work["rounds"] = sum(len(outcome.rounds) for outcome in outcomes)
                text = "\n".join(map(_outcome_text, outcomes))
                digests[f"{seed} {rule}"] = hashlib.sha256(text.encode()).hexdigest()[:16]
                counts[f"{seed} {rule}"] = dict(sorted(work.items()))
    return digests, counts


def naive_baseline_reads() -> dict[str, int]:
    """`Topology.neighbors` and `Topology.rtt` calls that `naive_baseline` makes
    over simulate-compare's first `OUTCOME_BLOCKS` blocks at seed 7, counted
    by wrapping the two methods."""
    reads = Counter()

    def counted(name):
        method = getattr(Topology, name)

        def counting(*args):
            reads[name] += 1
            return method(*args)

        return patch.object(Topology, name, counting)

    topologies, requests = _benchmark_blocks("simulate-compare", 7)
    with counted("neighbors"), counted("rtt"):
        for doc in requests:
            naive_baseline(topologies[doc["topology"]], _benchmark_request(doc))
    return dict(sorted(reads.items()))


def work_counts() -> dict[str, dict[str, int]]:
    """`plan_bsearch_runs`' counts, and `naive_baseline_reads` under "7 naive_baseline"."""
    return {**plan_bsearch_runs()[1], "7 naive_baseline": naive_baseline_reads()}


def test_answers_match_golden():
    golden = json.loads(GOLDEN.read_text())
    computed = answers(golden["sparse_requests"])
    for key in ("plans", "reports", "searches", "sparse_plans"):
        assert len(computed[key]) == len(golden[key]), key
        for i, (mine, pinned) in enumerate(zip(computed[key], golden[key])):
            # as JSON text, which tells 0 from 0.0 where == on numbers would not
            assert json.dumps(mine) == json.dumps(pinned), f"{key}[{i}]"


def test_outcomes_match_golden_digests():
    assert plan_bsearch_runs()[0] == json.loads(GOLDEN.read_text())["outcome_digests"]


def test_work_counts_match_golden():
    assert work_counts() == json.loads(GOLDEN.read_text())["work_counts"]


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
    golden = {"sparse_requests": sparse, **answers(sparse),
              "outcome_digests": plan_bsearch_runs()[0], "work_counts": work_counts()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
