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
weights that a caller builds; the planner's rounds build none. Its k = 1
round passes `billing.price_round`'s lists, finite and >= 0 where they are
made, straight to the core. Its bisection rounds pass lists that hold None
for every node but the source, and the round's pricing with a lower bound
on each node's cost: at the push test that first reads a node's cost, the
core drops the label if its cost plus that bound is over the cap, as the
exact test would, and otherwise prices the node, with `price_round`'s float
operations written out in its loop, and ends the round with None at a node
that cannot be priced. Full lists never enter that fill, so one loop serves
both. The bisection rounds of one request also share a list of each
expanded node's out-edges as (successor, delay) pairs, listed by the first
round that expands the node; a search that runs once walks the CSR row.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence

from budgetpath.billing import BITS_PER_GB, BITS_PER_MBPS, SECONDS_PER_HOUR
from budgetpath.records import Record, set_field
from budgetpath.topology import EdgeList, NodeSpec, check_node_ids


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

    def __init__(self, path: tuple[int, ...], total_a: float, total_b: float) -> None:
        set_field(self, "path", path)
        set_field(self, "total_a", total_a)
        set_field(self, "total_b", total_b)


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
    pricing: tuple[Sequence[NodeSpec], float, float, str, Sequence[float], list] | None = None,
) -> PathResult | None:
    """`search_min_latency` without its checks, over a cost and a time per node of `edges`.

    The caller vouches for what `EdgeWeights` and `_check_query` would
    check: one a and one b per node, each finite and >= 0, node ids for the
    endpoints and a cap >= 0. The planner's k = 1 round passes
    `billing.price_round`'s lists, which hold such values by construction.

    With `pricing`, (nodes, fraction_k, data_size_gb, rule, floors,
    out_edges), an entry may instead be None, both a[v] and b[v], save the
    source's. A push test that reads a[v] as None first drops the label,
    leaving v unpriced, if its cost plus floors[v] is over the cap; the
    caller vouches that no cost of v is below floors[v], so the exact test
    would drop it too, and floors of 0 drop nothing. Otherwise it fills both
    entries in place with `price_round([nodes[v]], fraction_k,
    data_size_gb, rule)`'s values, and a node that `price_round` would
    refuse ends the search with None, as if no path were found, not with an
    exception. Nodes the search never prices stay None, so None does not
    say that every node could be priced. `out_edges` holds one entry per
    node: None, or the list `list(zip(dst[lo:hi], delay[lo:hi]))` of the
    node's CSR row, which the search writes there when it first expands the
    node and walks in place of the row from then on, in this call and in
    every later one given the same `out_edges`.

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
    out_edges = None
    if pricing is not None:
        nodes, fraction_k, data_size_gb, rule, floors, out_edges = pricing
        bits, threshold = data_size_gb * BITS_PER_GB, rule == "threshold"
    inf, ceil = math.inf, math.ceil
    min_b = [inf] * edges.n
    min_b[source] = 0.0
    labels = [(source, -1)]  # (node, parent label) of every pushed label; 0 is the source
    pushed = 0  # the index in `labels` of the last pushed label
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
        pairs = None if out_edges is None else out_edges[node]
        if pairs is None:
            lo, hi = offsets[node], offsets[node + 1]
            pairs = zip(dst[lo:hi], delay[lo:hi])
            if out_edges is not None:
                # a list, not a tuple: CPython keeps up to 2000 freed tuples of
                # each size below 20 for reuse, so tuples would stay allocated
                # after the request, while a freed list gives its items back
                pairs = out_edges[node] = list(pairs)
        for nxt, d in pairs:
            new_b = curr_b + (d + b_node)
            if new_b < min_b[nxt]:
                min_b[nxt] = new_b
                # the pop's own test, a step early: a label that cannot pay its
                # node's cost would be popped only to be dropped
                if nxt != destination:
                    a_nxt = a[nxt]
                    if a_nxt is None:
                        # no cost of the node is below its floor, so the test below
                        # would drop the label too: drop it before pricing the node
                        if new_a + floors[nxt] > cost_cap:
                            continue
                        # `billing.price_round` for one node, its float operations
                        # in the same order; a refusal ends the round. Written out
                        # here, not called, because a call per node costs more than
                        # the pricing it saves
                        spec = nodes[nxt]
                        payg, pfdt, cap = spec.payg_rate, spec.pfdt_rate, spec.max_egress_mbps
                        bandwidth = fraction_k * cap
                        if pfdt is None:
                            pick_pfdt = False
                        elif payg is None:
                            pick_pfdt = True
                        elif threshold:
                            pick_pfdt = pfdt == 0 or data_size_gb < payg * bandwidth / pfdt
                        else:
                            pick_pfdt = None  # `exact-cost`: decided by the two bills below
                        if not pick_pfdt:
                            if not bandwidth > 0:
                                return None
                            b_nxt = bits / (bandwidth * BITS_PER_MBPS)
                            if not b_nxt < inf:
                                return None
                            a_nxt = payg * bandwidth * (ceil(b_nxt / SECONDS_PER_HOUR) or 1)
                            # an `exact-cost` tie goes to PFDT, as in `price`
                            if pick_pfdt is None and not a_nxt < pfdt * data_size_gb:
                                pick_pfdt = True
                        if pick_pfdt:
                            b_nxt = bits / (cap * BITS_PER_MBPS)
                            a_nxt = pfdt * data_size_gb
                        if not (a_nxt < inf and b_nxt < inf):
                            return None
                        a[nxt], b[nxt] = a_nxt, b_nxt
                    if new_a + a_nxt > cost_cap:
                        continue
                pushed += 1
                heappush(frontier, (new_b, new_a, nxt, pushed))
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
