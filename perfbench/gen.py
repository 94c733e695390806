"""Seeded inputs for the three workloads.

Topologies are written as JSON documents that the program reads through
`load_topology`; requests are plain dicts. Nothing here calls budgetpath:
budgets come from the benchmark's own billing arithmetic in `model`, so the
inputs stay the same when the program changes.

Requests come in blocks. Every block holds the same number of requests of
each size class and kind in a seeded order, so a run that stops at a block
boundary has the same mix whatever its length, and the percentiles fall at
fixed places in that mix.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from model import Graph, min_sender_cost, node_cost_at, node_cost_floor

DATA_GB = (3.0, 6.0, 10.0)
SOURCES_PER_GRAPH = 8

# plan-bsearch: (nodes, graphs, request kinds per block) per size class.
# Kinds: "k1" has a budget above the k=1 cost; "insufficient" is below the
# cost floor over every k; "shrink" lies between the floor and the k=1 cost,
# so it fails at k=1 and usually turns feasible as k shrinks; "first-hop" is
# below the source's own cost floor, so every round stops at the first hop
# and the request is 31 weight builds and little else. p50 falls inside the
# 200-node class and p90 inside the 400-node class. The 1600-node class is a
# small share whose dense n x n rounds show in peak RSS.
PLAN_CLASSES = [
    (200, 6, {"k1": 1, "insufficient": 2, "shrink": 11}),
    (400, 4, {"insufficient": 1, "shrink": 4}),
    (1600, 2, {"first-hop": 1}),
]
PLAN_SMOKE_CLASSES = [(30, 1, {"k1": 1, "insufficient": 1}), (40, 1, {"shrink": 1, "first-hop": 1})]

# simulate-compare: (shape, size, graphs, requests per block). Grids are
# k x k with corner-to-corner requests; "small" graphs have n <= 12 so the
# oracle row runs.
COMPARE_CLASSES = [("small", 12, 4, 2), ("grid", 7, 2, 2), ("grid", 8, 2, 4), ("random", 400, 2, 2)]
COMPARE_SMOKE_CLASSES = [("small", 8, 1, 1), ("grid", 3, 1, 1), ("random", 30, 1, 1)]

CLI_TRIPLES_PER_BLOCK = 8


def _node(rng: random.Random, i: int) -> dict:
    return {
        "id": i,
        "name": f"r{i}",
        "public_address": f"10.{i // 65536}.{i // 256 % 256}.{i % 256}",
        "max_egress_mbps": rng.choice([50, 100, 200, 500]),
        "payg_usd_per_mbps_hour": round(rng.uniform(0.015, 0.03), 4),
        "pfdt_usd_per_gb": round(rng.uniform(0.06, 0.12), 4),
    }


def _link(rng: random.Random, u: int, v: int) -> dict:
    return {"src": u, "dst": v, "rtt_ms": round(rng.uniform(5.0, 200.0), 1)}


def random_graph(rng: random.Random, n: int, mean_degree: float) -> dict:
    """Connected sparse graph: a random spanning tree plus random extra links."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    target = min(int(n * mean_degree / 2), n * (n - 1) // 2)
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return {
        "nodes": [_node(rng, i) for i in range(n)],
        "links": [_link(rng, u, v) for u, v in sorted(edges)],
    }


def grid_graph(rng: random.Random, k: int) -> dict:
    links = []
    for r in range(k):
        for c in range(k):
            i = r * k + c
            if c + 1 < k:
                links.append(_link(rng, i, i + 1))
            if r + 1 < k:
                links.append(_link(rng, i, i + k))
    return {"nodes": [_node(rng, i) for i in range(k * k)], "links": links}


def _write(doc: dict, path: Path) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class Inputs:
    """Topology files on disk plus a seeded, unbounded stream of request blocks."""

    def __init__(self, workload: str, seed: int, work_dir: Path, smoke: bool, root: Path):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.work_dir = Path(work_dir)
        self.smoke = smoke
        self.files: list[str] = []  # topology files the in-process setup loads
        self.graphs: dict[str, Graph] = {}
        self.classes: list[tuple[list[str], list]] = []  # (files, one kind per request in a block)
        self.sources: dict[str, list[int]] = {}
        self._cost_cache: dict[tuple, list[float]] = {}
        getattr(self, "_make_" + workload.replace("-", "_"))(root)

    # -- topology generation --

    def _add_class(self, docs: list[dict], kinds: list, stem: str) -> None:
        files = []
        for j, doc in enumerate(docs):
            path = _write(doc, self.work_dir / f"{stem}-{j}.json")
            graph = Graph(doc)
            self.graphs[path] = graph
            self.sources[path] = self.rng.sample(range(len(graph)), min(SOURCES_PER_GRAPH, len(graph)))
            files.append(path)
        self.files += files
        self.classes.append((files, kinds))

    def _make_plan_bsearch(self, root: Path) -> None:
        for n, count, kinds in PLAN_SMOKE_CLASSES if self.smoke else PLAN_CLASSES:
            docs = [random_graph(self.rng, n, 8.0) for _ in range(count)]
            self._add_class(docs, [kind for kind, k in kinds.items() for _ in range(k)], f"random{n}")

    def _make_simulate_compare(self, root: Path) -> None:
        for shape, size, count, per_block in COMPARE_SMOKE_CLASSES if self.smoke else COMPARE_CLASSES:
            if shape == "grid":
                docs = [grid_graph(self.rng, size) for _ in range(count)]
            elif shape == "small":
                docs = [random_graph(self.rng, size - j % 3, 4.0) for j in range(count)]
            else:
                docs = [random_graph(self.rng, size, 8.0) for _ in range(count)]
            self._add_class(docs, [None] * per_block, f"{shape}{size}")

    def _make_cli_pipeline(self, root: Path) -> None:
        self.topology = "fixtures/testbed6.json"
        self.graph = Graph.from_file(root / self.topology)
        self.triples = 1 if self.smoke else CLI_TRIPLES_PER_BLOCK

    # -- budgets from the benchmark's own arithmetic --

    def _cheapest(self, path: str, src: int, data_gb: float, mode: str) -> list[float]:
        key = (path, src, data_gb, mode)
        if key not in self._cost_cache:
            graph = self.graphs[path]
            if mode == "k1":
                cost = [node_cost_at(node, 1.0, data_gb) for node in graph.nodes]
            else:
                cost = [node_cost_floor(node, data_gb) for node in graph.nodes]
            self._cost_cache[key] = min_sender_cost(graph, src, cost)
        return self._cost_cache[key]

    @staticmethod
    def generous_budget(graph: Graph, data_gb: float, rng: random.Random) -> float:
        """More than every node's k=1 cost together, so the cost cap never binds."""
        total = sum(node_cost_at(node, 1.0, data_gb) for node in graph.nodes)
        return round(total * rng.uniform(1.1, 2.0), 4)

    def _endpoints(self, path: str) -> tuple[int, int]:
        src = self.rng.choice(self.sources[path])
        dst = self.rng.choice([v for v in range(len(self.graphs[path])) if v != src])
        return src, dst

    # -- request blocks --

    @property
    def block_size(self) -> int:
        if self.workload == "cli-pipeline":
            return 3 * self.triples + 1
        return sum(len(kinds) for _, kinds in self.classes)

    def block(self) -> list[dict]:
        return getattr(self, "_block_" + self.workload.replace("-", "_"))()

    def _class_slots(self) -> list[tuple[list[str], str]]:
        """(topology files, request kind) for every request of a block, in seeded order."""
        slots = [(files, kind) for files, kinds in self.classes for kind in kinds]
        self.rng.shuffle(slots)
        return slots

    def _block_plan_bsearch(self) -> list[dict]:
        block = []
        for files, kind in self._class_slots():
            path = self.rng.choice(files)
            src, dst = self._endpoints(path)
            data_gb = self.rng.choice(DATA_GB)
            at_k1 = self._cheapest(path, src, data_gb, "k1")[dst]
            floor = self._cheapest(path, src, data_gb, "floor")[dst]
            if kind == "k1":
                budget = at_k1 * self.rng.uniform(1.2, 1.5)
            elif kind == "insufficient":
                budget = floor * self.rng.uniform(0.5, 0.9)
            elif kind == "first-hop":
                budget = node_cost_floor(self.graphs[path].nodes[src], data_gb) * self.rng.uniform(0.5, 0.9)
            else:
                budget = floor + (at_k1 - floor) * self.rng.uniform(0.4, 0.8)
            block.append(
                {"topology": path, "src": src, "dst": dst, "data_gb": data_gb,
                 "budget": budget, "kind": kind}
            )
        return block

    def _block_simulate_compare(self) -> list[dict]:
        block = []
        for files, _ in self._class_slots():
            path = self.rng.choice(files)
            graph = self.graphs[path]
            if "grid" in Path(path).name:
                side = int(len(graph) ** 0.5)
                corners = [(0, side * side - 1), (side - 1, side * (side - 1))]
                src, dst = self.rng.choice(corners)
                if self.rng.random() < 0.5:
                    src, dst = dst, src
            else:
                src, dst = self._endpoints(path)
            data_gb = self.rng.choice(DATA_GB)
            block.append(
                {"topology": path, "src": src, "dst": dst, "data_gb": data_gb,
                 "budget": self.generous_budget(graph, data_gb, self.rng),
                 "oracle": len(graph) <= 12}
            )
        return block

    def _block_cli_pipeline(self) -> list[dict]:
        """Triples plan -> render-wg -> simulate, plus one zero-budget plan that must exit 2."""
        n = len(self.graph)
        zero_at = self.rng.randrange(self.triples)
        block = []
        for t in range(self.triples):
            src, dst = self.rng.sample(range(n), 2)
            data_gb = self.rng.choice(DATA_GB)
            req = {"src": src, "dst": dst, "data_gb": data_gb,
                   "budget": self.generous_budget(self.graph, data_gb, self.rng)}
            block.append({"cmd": "plan", **req, "exit": 0})
            block.append({"cmd": "render-wg", "seed": self.rng.randrange(1 << 30), "exit": 0})
            block.append({"cmd": "simulate", **req, "exit": 0})
            if t == zero_at:
                src, dst = self.rng.sample(range(n), 2)
                block.append({"cmd": "plan", "src": src, "dst": dst,
                              "data_gb": self.rng.choice(DATA_GB), "budget": 0.0, "exit": 2})
        return block
