"""Two-weight path search: minimize summed latency under a summed-cost cap.

`search_min_latency` is a Dijkstra variant keeping a single best-latency
label per node while discarding labels whose accumulated cost exceeds the
cap. A label is pushed only if it can pay its own node's cost within the
cap, or if it reaches the destination, so no label but the source's is
popped only to be dropped. Every label records its node and its parent
label, so the path returned is the chain of the destination label itself:
simple and within the cap by construction. The single-label pruning is a
heuristic: it can discard a feasible label whose higher latency would have
been the only way to stay under the cap further on. `enumerate_best_path`
is the exact (exponential) reference used to quantify that gap on small
graphs.

Both walk a topology's `EdgeList`, its links in compressed sparse row form
with each edge's propagation delay. The edge list is built once per
topology from links that `Topology` has checked, and is not checked again.
Cost is billed per sending node, so a set of weights adds only one cost and
one transmission time per node: leaving node u by edge e costs a[u] and
takes delay[e] + b[u].

`search_min_latency` is its argument check plus `search_core`, which takes
the edge list and the two per-node lists as they are. `EdgeWeights` checks
weights that a caller builds; the planner's rounds build none and pass
`billing.price_round`'s lists, finite and >= 0 where they are made, straight
to the core.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

from budgetpath.records import Record
from budgetpath.topology import EdgeList, check_node_ids


# the most nodes `enumerate_best_path` enumerates by default: its time is exponential
ORACLE_MAX_NODES = 12


class SearchError(ValueError):
    """Invalid search inputs."""


class EdgeWeights(Record):
    """Per-node cost (a, USD) and transmission time (b, seconds) over an edge list.

    `edges` is a topology's `EdgeList`. Node u pays a[u] to send the data
    once and spends b[u] seconds sending it, whichever of its edges it
    takes; edge e adds its own delay[e].
    """

    __slots__ = _fields = ("edges", "a", "b")

    def __init__(self, edges, a: Sequence[float], b: Sequence[float]) -> None:
        if len(a) != edges.n or len(b) != edges.n:
            raise SearchError(f"need exactly one a and one b value per node, for {edges.n} nodes")
        for name, values in (("a", a), ("b", b)):
            # each value on its own: a sum of large finite values can overflow
            if not all(map(math.isfinite, values)) or (values and min(values) < 0.0):
                raise SearchError(f"{name} values of the nodes must be finite and >= 0")
        super().__init__(edges, a, b)

    @property
    def n(self) -> int:
        return self.edges.n


class PathResult(Record):
    """A concrete path with its cost and latency totals, summed along the path."""

    __slots__ = _fields = ("path", "total_a", "total_b")


def _check_query(n: int, source: int, destination: int, cost_cap: float) -> None:
    """TopologyError for an end that is not a node id, SearchError for a cap that is not >= 0."""
    check_node_ids(n, source=source, destination=destination)
    if not cost_cap >= 0:  # also rejects NaN
        raise SearchError(f"cost_cap must be >= 0, got {cost_cap}")


def search_min_latency(
    weights: EdgeWeights,
    source: int,
    destination: int,
    cost_cap: float,
) -> PathResult | None:
    """Least-latency path whose summed cost stays within `cost_cap`.

    `search_core` over the weights, after checking the endpoints and the
    cap: TopologyError for an end that is not a node id, SearchError for a
    cap that is not >= 0.
    """
    _check_query(weights.n, source, destination, cost_cap)
    return search_core(weights.edges, weights.a, weights.b, source, destination, cost_cap)


def search_core(
    edges: EdgeList,
    a: Sequence[float],
    b: Sequence[float],
    source: int,
    destination: int,
    cost_cap: float,
) -> PathResult | None:
    """`search_min_latency` without its checks, over a cost and a time per node of `edges`.

    The caller vouches for what `EdgeWeights` and `_check_query` would
    check: one a and one b per node, each finite and >= 0, node ids for the
    endpoints and a cap >= 0. The planner's rounds pass `billing.price_round`'s
    lists, which hold such values by construction.

    Pops the frontier label with minimum accumulated latency (ties broken
    by accumulated cost, then node id) and returns on the first destination
    pop, with that label's own chain and sums. A label's latency must
    strictly improve its node's best, which it then becomes, so its chain
    never revisits a node and two labels at one node never tie. It is pushed
    only if it can pay its own node's cost within the cap, or if its node
    is the destination: any other label would be popped only to be dropped.
    None means no label reached the destination within the cap: the
    weights are too expensive, or no edge path leads there. The planner
    tells the two apart after its k=1 round with
    `planner.cost_floor_distance`, before any binary-search round.
    """
    offsets, dst, delay = edges.offsets, edges.dst, edges.delay
    min_b = [math.inf] * edges.n
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
                # the pop's own test, a step early: a label that cannot pay its
                # node's cost would be popped only to be dropped
                if nxt == destination or new_a + a[nxt] <= cost_cap:
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
    _check_query(weights.n, source, destination, cost_cap)
    if weights.n > max_nodes:
        raise SearchError(f"oracle enumeration refused for n={weights.n} > {max_nodes}")

    edges = weights.edges
    offsets, dst, delay = edges.offsets, edges.dst, edges.delay
    a, b = weights.a, weights.b
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
