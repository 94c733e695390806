"""Two-weight path search: minimize summed latency under a summed-cost cap.

`search_min_latency` is a Dijkstra variant keeping a single best-latency
label per node while discarding labels whose accumulated cost exceeds the
cap. Every label records its node and its parent label, so the path
returned is the chain of the destination label itself: simple and
within the cap by construction. The single-label pruning is a heuristic:
it can discard a feasible label whose higher latency would have been the
only way to stay under the cap further on. `enumerate_best_path` is the
exact (exponential) reference used to quantify that gap on small graphs.

Both walk an `EdgeList` in compressed sparse row form, which carries each
edge's propagation delay and is checked once when it is built. Cost is
billed per sending node, so a set of weights adds only one cost and one
transmission time per node: leaving node u by edge e costs a[u] and takes
delay[e] + b[u].
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence

from budgetpath.records import Record, set_field


# the most nodes `enumerate_best_path` enumerates by default: its time is exponential
ORACLE_MAX_NODES = 12


class SearchError(ValueError):
    """Invalid search inputs."""


class EdgeList(Record):
    """Directed edges in compressed sparse row form, sorted by (src, dst).

    The edges leaving node u are offsets[u] <= e < offsets[u + 1], in
    increasing dst order, so there are no duplicate edges; edge e runs to
    dst[e] and delays the data by delay[e] seconds of propagation.
    Self-loops, endpoints outside the node range and delays that are
    negative or not finite are rejected as well.
    """

    __slots__ = _fields = ("offsets", "dst", "delay")

    def __init__(
        self, offsets: tuple[int, ...], dst: tuple[int, ...], delay: tuple[float, ...]
    ) -> None:
        n = len(offsets) - 1
        m = len(dst)
        if n < 0 or offsets[0] != 0 or offsets[-1] != m or len(delay) != m:
            raise SearchError("edge list offsets do not match its edges")
        for u in range(n):
            if offsets[u + 1] < offsets[u]:
                raise SearchError(f"edge list offsets decrease at node {u}")
            previous = -1
            for e in range(offsets[u], offsets[u + 1]):
                v = dst[e]
                if v == u:
                    raise SearchError(f"edge ({u}, {v}): self-loops are not allowed")
                if not 0 <= v < n:
                    raise SearchError(f"edge ({u}, {v}): endpoint {v} is not a node id")
                if v <= previous:
                    raise SearchError(f"edges of node {u} are duplicated or not sorted at ({u}, {v})")
                if not 0.0 <= delay[e] < math.inf:
                    raise SearchError(f"edge ({u}, {v}): delay {delay[e]} is not finite and >= 0")
                previous = v
        set_field(self, "offsets", offsets)
        set_field(self, "dst", dst)
        set_field(self, "delay", delay)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]]) -> EdgeList:
        """Edge list over nodes 0..n-1 from (src, dst, delay) triples in any order."""
        ordered = sorted(edges)
        offsets = [0] * (n + 1)
        for u, _, _ in ordered:
            if not 0 <= u < n:
                raise SearchError(f"edge source {u} is not a node id")
            offsets[u + 1] += 1
        for u in range(n):
            offsets[u + 1] += offsets[u]
        return cls(
            tuple(offsets),
            tuple(v for _, v, _ in ordered),
            tuple(delay for _, _, delay in ordered),
        )

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    def successors(self, node: int) -> tuple[int, ...]:
        return self.dst[self.offsets[node] : self.offsets[node + 1]]

    def index(self, src: int, dst: int) -> int:
        """Index of edge (src, dst); KeyError if the graph has no such edge."""
        lo, hi = self.offsets[src], self.offsets[src + 1]
        e = bisect_left(self.dst, dst, lo, hi)
        if e == hi or self.dst[e] != dst:
            raise KeyError(f"no edge ({src}, {dst})")
        return e

    def has_path(self, source: int, destination: int) -> bool:
        """Whether any directed path leads from source to destination."""
        _check_node(self.n, source, "source")
        _check_node(self.n, destination, "destination")
        seen = [False] * self.n
        seen[source] = True
        stack = [source]
        while stack:
            u = stack.pop()
            for v in self.successors(u):
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return seen[destination]


class EdgeWeights(Record):
    """Per-node cost (a, USD) and transmission time (b, seconds) over an edge list.

    Node u pays a[u] to send the data once and spends b[u] seconds sending
    it, whichever of its edges it takes; edge e adds its own delay[e].
    """

    __slots__ = _fields = ("edges", "a", "b")

    def __init__(self, edges: EdgeList, a: Sequence[float], b: Sequence[float]) -> None:
        if len(a) != edges.n or len(b) != edges.n:
            raise SearchError(f"need exactly one a and one b value per node, for {edges.n} nodes")
        for name, values in (("a", a), ("b", b)):
            # each value on its own: a sum of large finite values can overflow
            if not all(map(math.isfinite, values)) or (values and min(values) < 0.0):
                raise SearchError(f"{name} values of the nodes must be finite and >= 0")
        set_field(self, "edges", edges)
        set_field(self, "a", a)
        set_field(self, "b", b)

    @property
    def n(self) -> int:
        return self.edges.n


class PathResult(Record):
    """A concrete path with its cost and latency totals, summed along the path."""

    __slots__ = _fields = ("path", "total_a", "total_b")

    def __init__(self, path: tuple[int, ...], total_a: float, total_b: float) -> None:
        set_field(self, "path", path)
        set_field(self, "total_a", total_a)
        set_field(self, "total_b", total_b)


def _check_node(n: int, node: int, label: str) -> None:
    if not 0 <= node < n:
        raise SearchError(f"{label} {node} is not a valid node id")


def search_min_latency(
    weights: EdgeWeights,
    source: int,
    destination: int,
    cost_cap: float,
) -> PathResult | None:
    """Least-latency path whose summed cost stays within `cost_cap`.

    Pops the frontier label with minimum accumulated latency (ties broken
    by accumulated cost, then node id, then push order) and returns on the
    first destination pop, with that label's own chain and sums. A label is
    only pushed when its cost respects the cap and its latency strictly
    improves the node's best, so its chain never revisits a node. None
    means no label ever reached the destination, i.e. the configuration is
    too expensive.
    """
    n = weights.n
    _check_node(n, source, "source")
    _check_node(n, destination, "destination")
    if not cost_cap >= 0:  # also rejects NaN
        raise SearchError(f"cost_cap must be >= 0, got {cost_cap}")

    edges = weights.edges
    offsets, dst, delay = edges.offsets, edges.dst, edges.delay
    a, b = weights.a, weights.b
    min_b = [math.inf] * n
    min_b[source] = 0.0
    labels = [(source, -1)]  # (node, parent label) of every pushed label; 0 is the source
    frontier: list[tuple[float, float, int, int]] = [(0.0, 0.0, source, 0)]
    heappop, heappush = heapq.heappop, heapq.heappush

    while frontier:
        curr_b, curr_a, node, label = heappop(frontier)
        if node == destination:
            path = []
            while label >= 0:
                node, label = labels[label]
                path.append(node)
            path.reverse()
            return PathResult(tuple(path), curr_a, curr_b)
        # every edge out of the node costs the same, so one test prunes them all
        new_a = curr_a + a[node]
        if new_a > cost_cap:
            continue
        b_node = b[node]
        for e in range(offsets[node], offsets[node + 1]):
            nxt = dst[e]
            new_b = curr_b + (delay[e] + b_node)
            if new_b < min_b[nxt]:
                min_b[nxt] = new_b
                heappush(frontier, (new_b, new_a, nxt, len(labels)))
                labels.append((nxt, label))
    return None


def enumerate_best_path(
    weights: EdgeWeights,
    source: int,
    destination: int,
    cost_cap: float,
    max_nodes: int = ORACLE_MAX_NODES,
) -> PathResult | None:
    """Exact reference: enumerate every simple path and keep the best.

    Minimizes total latency among cap-feasible paths; ties broken by lower
    cost, then lexicographic path. Exponential, so refused on graphs of
    more than `max_nodes` nodes.
    """
    _check_node(weights.n, source, "source")
    _check_node(weights.n, destination, "destination")
    if weights.n > max_nodes:
        raise SearchError(f"oracle enumeration refused for n={weights.n} > {max_nodes}")

    edges = weights.edges
    offsets, dst, delay = edges.offsets, edges.dst, edges.delay
    a, b = weights.a, weights.b
    if 0.0 > cost_cap:
        return None
    best: tuple[float, float, tuple[int, ...]] | None = None
    stack = [(source, 0.0, 0.0, (source,))]
    while stack:
        node, total_a, total_b, path = stack.pop()
        if node == destination:
            if best is None or (total_b, total_a, path) < best:
                best = (total_b, total_a, path)
            continue
        next_a = total_a + a[node]
        if next_a > cost_cap:
            continue
        b_node = b[node]
        for e in range(offsets[node], offsets[node + 1]):
            nxt = dst[e]
            if nxt not in path:
                stack.append((nxt, next_a, total_b + (delay[e] + b_node), path + (nxt,)))
    if best is None:
        return None
    total_b, total_a, path = best
    return PathResult(path, total_a, total_b)
