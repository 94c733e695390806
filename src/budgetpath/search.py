"""Two-weight path search: minimize summed latency under a summed-cost cap.

`search_min_latency` is a Dijkstra variant keeping a single best-latency
label per node while discarding labels whose accumulated cost exceeds the
cap. Every label records the edge it arrived by and its parent label, so
the path returned is the chain of the destination label itself: simple and
within the cap by construction. The single-label pruning is a heuristic:
it can discard a feasible label whose higher latency would have been the
only way to stay under the cap further on. `enumerate_best_path` is the
exact (exponential) reference used to quantify that gap on small graphs.

Both walk an `EdgeList` in compressed sparse row form: the graph structure
is checked once when the edge list is built, and each set of weights only
adds one cost and one latency per edge.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence

from budgetpath.records import Record, set_field


class SearchError(ValueError):
    """Invalid search inputs."""


class EdgeList(Record):
    """Directed edges in compressed sparse row form, sorted by (src, dst).

    Edge e runs from src[e] to dst[e]. The edges leaving node u are
    offsets[u] <= e < offsets[u + 1], in increasing dst order, so there are
    no duplicate edges; self-loops and endpoints outside the node range are
    rejected as well.
    """

    __slots__ = _fields = ("offsets", "src", "dst")

    def __init__(self, offsets: tuple[int, ...], src: tuple[int, ...], dst: tuple[int, ...]) -> None:
        n = len(offsets) - 1
        m = len(dst)
        if n < 0 or offsets[0] != 0 or offsets[-1] != m or len(src) != m:
            raise SearchError("edge list offsets do not match its edges")
        for u in range(n):
            if offsets[u + 1] < offsets[u]:
                raise SearchError(f"edge list offsets decrease at node {u}")
            previous = -1
            for e in range(offsets[u], offsets[u + 1]):
                v = dst[e]
                if src[e] != u:
                    raise SearchError(f"edge {e} is filed under node {u} but leaves {src[e]}")
                if v == u:
                    raise SearchError(f"edge ({u}, {v}): self-loops are not allowed")
                if not 0 <= v < n:
                    raise SearchError(f"edge ({u}, {v}): endpoint {v} is not a node id")
                if v <= previous:
                    raise SearchError(f"edges of node {u} are duplicated or not sorted at ({u}, {v})")
                previous = v
        set_field(self, "offsets", offsets)
        set_field(self, "src", src)
        set_field(self, "dst", dst)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> EdgeList:
        """Edge list over nodes 0..n-1 from (src, dst) pairs in any order."""
        ordered = sorted(pairs)
        offsets = [0] * (n + 1)
        for u, _ in ordered:
            if not 0 <= u < n:
                raise SearchError(f"edge source {u} is not a node id")
            offsets[u + 1] += 1
        for u in range(n):
            offsets[u + 1] += offsets[u]
        return cls(tuple(offsets), tuple(u for u, _ in ordered), tuple(v for _, v in ordered))

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
    """Per-edge cost (a, USD) and latency (b, seconds) over an edge list."""

    __slots__ = _fields = ("edges", "a", "b")

    def __init__(self, edges: EdgeList, a: Sequence[float], b: Sequence[float]) -> None:
        if len(a) != len(edges.dst) or len(b) != len(edges.dst):
            raise SearchError("need exactly one a and one b weight per edge")
        for name, vals in (("a", a), ("b", b)):
            # min() rejects negatives; any NaN or infinity makes the sum non-finite
            if vals and not (min(vals) >= 0.0 and math.isfinite(sum(vals))):
                raise SearchError(f"{name} weights on present edges must be finite and >= 0")
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
    if cost_cap < 0:
        raise SearchError(f"cost_cap must be >= 0, got {cost_cap}")

    offsets, src, dst = weights.edges.offsets, weights.edges.src, weights.edges.dst
    a, b = weights.a, weights.b
    min_b = [math.inf] * n
    min_b[source] = 0.0
    labels = [(-1, 0)]  # (edge in, parent label) of every pushed label; 0 is the source
    frontier: list[tuple[float, float, int, int]] = [(0.0, 0.0, source, 0)]
    heappop, heappush = heapq.heappop, heapq.heappush

    while frontier:
        curr_b, curr_a, node, label = heappop(frontier)
        if node == destination:
            path = [node]
            while label:
                e, label = labels[label]
                path.append(src[e])
            path.reverse()
            return PathResult(tuple(path), curr_a, curr_b)
        for e in range(offsets[node], offsets[node + 1]):
            nxt = dst[e]
            new_a = curr_a + a[e]
            new_b = curr_b + b[e]
            if new_a <= cost_cap and new_b < min_b[nxt]:
                min_b[nxt] = new_b
                heappush(frontier, (new_b, new_a, nxt, len(labels)))
                labels.append((e, label))
    return None


def enumerate_best_path(
    weights: EdgeWeights,
    source: int,
    destination: int,
    cost_cap: float,
    max_nodes: int = 12,
    force: bool = False,
) -> PathResult | None:
    """Exact reference: enumerate every simple path and keep the best.

    Minimizes total latency among cap-feasible paths; ties broken by lower
    cost, then lexicographic path. Exponential, so guarded to small graphs
    unless `force` is set.
    """
    _check_node(weights.n, source, "source")
    _check_node(weights.n, destination, "destination")
    if weights.n > max_nodes and not force:
        raise SearchError(f"oracle enumeration refused for n={weights.n} > {max_nodes}")

    offsets, dst = weights.edges.offsets, weights.edges.dst
    a, b = weights.a, weights.b
    best: PathResult | None = None

    def visit(node: int, total_a: float, total_b: float, path: list[int], on_path: set[int]) -> None:
        nonlocal best
        if total_a > cost_cap:
            return
        if node == destination:
            candidate = PathResult(tuple(path), total_a, total_b)
            if best is None or (candidate.total_b, candidate.total_a, candidate.path) < (
                best.total_b,
                best.total_a,
                best.path,
            ):
                best = candidate
            return
        for e in range(offsets[node], offsets[node + 1]):
            nxt = dst[e]
            if nxt in on_path:
                continue
            path.append(nxt)
            on_path.add(nxt)
            visit(nxt, total_a + a[e], total_b + b[e], path, on_path)
            on_path.remove(nxt)
            path.pop()

    visit(source, 0.0, 0.0, [source], {source})
    return best
