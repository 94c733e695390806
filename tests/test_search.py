import heapq
import math
import random
from types import SimpleNamespace

import pytest

from budgetpath import search
from budgetpath.search import (
    ORACLE_MAX_NODES,
    EdgeWeights,
    PathResult,
    SearchError,
    enumerate_best_path,
    search_min_latency,
)
from budgetpath.topology import EdgeList, TopologyError
import helpers
from helpers import (
    cyclic_garbage, edge_list, edge_triples, is_connected, path_sums, random_weights,
    search_pruned_at_pop,
)


def node_billed(n, delays, a, b):
    """delays: {(u, v): seconds}; a and b: one cost and one transmission time per node."""
    return EdgeWeights(edge_list(n, ((u, v, d) for (u, v), d in delays.items())), a, b)


# s -> x -> d is fast but x is expensive; s -> y -> d is slow but y is cheap
DIAMOND = node_billed(
    4,
    {(0, 1): 10.0, (1, 3): 0.0, (0, 2): 50.0, (2, 3): 0.0},
    a=(0.05, 0.3, 0.05, 0.0),
    b=(0.0, 10.0, 50.0, 0.0),
)


class TestSearch:
    def test_source_equals_destination(self):
        result = search_min_latency(DIAMOND, 0, 0, 0.0)
        assert result.path == (0,)
        assert result.total_a == 0.0
        assert result.total_b == 0.0

    def test_cap_below_first_edge(self):
        line = node_billed(3, {(0, 1): 0.5, (1, 2): 0.5}, a=(0.1, 0.1, 0.0), b=(0.5, 0.5, 0.0))
        assert search_min_latency(line, 0, 2, 0.05) is None

    def test_diamond_tight_cap_takes_cheap_slow_path(self):
        result = search_min_latency(DIAMOND, 0, 3, 0.2)
        assert result.path == (0, 2, 3)
        assert result.total_a == pytest.approx(0.1)
        assert result.total_b == pytest.approx(100.0)

    def test_diamond_loose_cap_takes_fast_path(self):
        result = search_min_latency(DIAMOND, 0, 3, 1.0)
        assert result.path == (0, 1, 3)
        assert result.total_b == pytest.approx(20.0)

    def test_invalid_node_ids(self):
        with pytest.raises(TopologyError, match="^destination 9 is not a valid node id$"):
            search_min_latency(DIAMOND, 0, 9, 1.0)
        with pytest.raises(TopologyError, match="^source -1 is not a valid node id$"):
            search_min_latency(DIAMOND, -1, 3, 1.0)

    def test_later_label_does_not_reroute_earlier_one(self):
        # node 1 is reached cheaply by 0->1, then faster by 0->2->1, whose
        # cost leaves no room for 1->3 under the cap; the destination label
        # must keep the cheap chain it was built on
        w = node_billed(
            4,
            {(0, 1): 1.0, (0, 2): 0.1, (2, 1): 0.1, (1, 3): 1.0},
            a=(1.0, 2.0, 9.0, 0.0),
            b=(0.0, 0.0, 0.0, 0.0),
        )
        result = search_min_latency(w, 0, 3, 11.0)
        assert result == PathResult((0, 1, 3), 3.0, 2.0)
        assert result == enumerate_best_path(w, 0, 3, 11.0)

    def test_determinism(self):
        rng = random.Random(3)
        for _ in range(20):
            w = random_weights(rng, 6)
            r1 = search_min_latency(w, 0, 5, 1.5)
            r2 = search_min_latency(w, 0, 5, 1.5)
            assert r1 == r2


@pytest.mark.parametrize("cap", [math.nan, -1.0, -math.inf])
@pytest.mark.parametrize("search", [search_min_latency, enumerate_best_path])
def test_both_searches_reject_a_negative_or_nan_cap(search, cap):
    with pytest.raises(SearchError, match=f"^cost_cap must be >= 0, got {cap}$"):
        search(DIAMOND, 0, 3, cap)


class TestOracle:
    def test_matches_search_on_diamond(self):
        assert enumerate_best_path(DIAMOND, 0, 3, 0.2) == search_min_latency(DIAMOND, 0, 3, 0.2)

    def test_disconnected(self):
        w = node_billed(3, {(0, 1): 0.5}, a=(0.1, 0.0, 0.0), b=(0.5, 0.0, 0.0))
        assert enumerate_best_path(w, 0, 2, 10.0) is None

    def test_node_guard(self):
        assert ORACLE_MAX_NODES == 12
        enumerate_best_path(random_weights(random.Random(0), ORACLE_MAX_NODES), 0, 1, 1.0)
        w = random_weights(random.Random(0), ORACLE_MAX_NODES + 1)
        with pytest.raises(SearchError, match="refused"):
            enumerate_best_path(w, 0, 1, 1.0)
        enumerate_best_path(w, 0, 1, 1.0, max_nodes=w.n)  # a larger bound allowed

    def test_leaves_no_cyclic_garbage(self):
        w = random_weights(random.Random(8), 8)
        assert cyclic_garbage(lambda: enumerate_best_path(w, 0, 7, math.inf)) == 0

    def test_monotone_in_cap(self):
        rng = random.Random(11)
        for _ in range(30):
            w = random_weights(rng, 6)
            caps = sorted(rng.uniform(0, 3) for _ in range(3))
            results = [enumerate_best_path(w, 0, 5, c) for c in caps]
            bs = [r.total_b for r in results if r is not None]
            assert bs == sorted(bs, reverse=True)


class TestRandomInstances:
    def test_feasibility_and_consistency(self):
        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(2, 8)
            w = random_weights(rng, n)
            cap = rng.uniform(0, 2)
            result = search_min_latency(w, 0, n - 1, cap)
            if result is None:
                continue
            assert result.total_a <= cap + 1e-12
            assert (result.total_a, result.total_b) == path_sums(w, result.path)

    def test_uncapped_equals_plain_dijkstra(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(2, 8)
            w = random_weights(rng, n)
            mine = search_min_latency(w, 0, n - 1, math.inf)
            exact = enumerate_best_path(w, 0, n - 1, math.inf)
            if exact is None:
                assert mine is None
                assert not is_connected(w.edges, 0, n - 1)
            else:
                assert mine is not None
                assert math.isclose(mine.total_b, exact.total_b, rel_tol=1e-9, abs_tol=1e-12)

    def test_oracle_dominates_with_finite_cap(self):
        rng = random.Random(99)
        equal = total = 0
        for _ in range(150):
            n = rng.randint(2, 8)
            w = random_weights(rng, n)
            cap = rng.uniform(0.2, 2)
            mine = search_min_latency(w, 0, n - 1, cap)
            exact = enumerate_best_path(w, 0, n - 1, cap)
            if mine is None:
                continue
            assert exact is not None  # a feasible path exists, the oracle must find one
            assert exact.total_b <= mine.total_b + 1e-12
            total += 1
            if math.isclose(exact.total_b, mine.total_b, rel_tol=1e-9):
                equal += 1
        assert total > 50
        # single-label pruning is heuristic: equality is measured, not asserted
        print(f"\noracle/search equality rate: {equal}/{total} = {equal / total:.1%}")


class TestEdgeWeights:
    # an edge list is built only from a topology's links, so these rules are
    # `Topology`'s: edges that break them never reach the search
    def test_rejects_self_loops(self):
        with pytest.raises(TopologyError, match="self-loop"):
            node_billed(2, {(0, 0): 0.0}, a=(0.0, 0.0), b=(0.0, 0.0))

    @pytest.mark.parametrize("pairs", [[(0, 2)], [(2, 0)], [(0, -1)], [(0, 1), (0, 1)]])
    def test_rejects_absent_nodes_and_duplicates(self, pairs):
        with pytest.raises(TopologyError, match=r"not a node id|duplicate"):
            edge_list(2, [(u, v, 0.0) for u, v in pairs])

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, -math.inf])
    def test_rejects_invalid_delays(self, bad):
        with pytest.raises(TopologyError, match=r"link \(1, 0\): invalid rtt"):
            edge_list(2, [(0, 1, 0.5), (1, 0, bad)])

    def test_rows_carry_their_delays_in_successor_order(self):
        edges = edge_list(3, [(2, 0, 0.3), (0, 2, 0.1), (0, 1, 0.2)])
        assert edges == EdgeList((((1, 0.2), (2, 0.1)), (), ((0, 0.3),)))
        assert edge_triples(edges) == [(0, 1, 0.2), (0, 2, 0.1), (2, 0, 0.3)]
        assert edge_list(2, []) == EdgeList(((), ()))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["a", "b"])
    @pytest.mark.parametrize("node", [0, 1])
    def test_rejects_invalid_values_on_either_side(self, bad, which, node):
        values = [0.5, 0.5]
        values[node] = bad
        a, b = (values, (0.5, 0.5)) if which == "a" else ((0.5, 0.5), values)
        with pytest.raises(SearchError, match=f"{which} values .* finite"):
            node_billed(2, {(0, 1): 0.5, (1, 0): 0.5}, a=tuple(a), b=tuple(b))

    def test_accepts_large_values_whose_sum_overflows(self):
        w = node_billed(2, {(0, 1): 0.5}, a=(1e308, 1e308), b=(1e308, 1e308))
        assert w.a == (1e308, 1e308)

    # one edge over two nodes: (0.0,) is one value per edge, not per node
    @pytest.mark.parametrize("a, b", [((0.0,), (0.0,)), ((0.0,), (0.0, 0.0)),
                                      ((0.0, 0.0), (0.0, 0.0, 0.0)), ((), ())])
    def test_rejects_vectors_of_the_wrong_length(self, a, b):
        graph = edge_list(2, [(0, 1, 0.0)])
        with pytest.raises(SearchError, match="per node"):
            EdgeWeights(graph, a, b)
        assert EdgeWeights(graph, (0.0, 0.0), (0.0, 0.0)).n == 2

    def test_absent_edges_are_never_read(self):
        w = node_billed(2, {(0, 1): 0.0}, a=(0.0, 0.0), b=(0.0, 0.0))
        assert w.edges.rows == (((1, 0.0),), ())  # no edge (1, 0) to read
        assert search_min_latency(w, 0, 1, 1.0).path == (0, 1)


class TestNodeBilling:
    def test_diamond_sums_node_costs_and_edge_delays(self):
        assert path_sums(DIAMOND, (0, 1, 3)) == (0.35, 20.0)
        assert path_sums(DIAMOND, (0, 2, 3)) == (0.1, 100.0)

    def test_node_over_cap_prunes_all_its_edges(self):
        # node 1 alone costs more than the cap, so no path through it is kept
        w = node_billed(
            4,
            {(0, 1): 0.0, (0, 2): 5.0, (1, 3): 0.0, (2, 3): 0.0},
            a=(0.0, 2.0, 0.5, 0.0),
            b=(0.0, 0.0, 0.0, 0.0),
        )
        assert search_min_latency(w, 0, 3, 1.0) == PathResult((0, 2, 3), 0.5, 5.0)
        assert search_min_latency(w, 0, 3, 2.0) == PathResult((0, 1, 3), 2.0, 0.0)
        assert search_min_latency(w, 0, 1, 0.0) == PathResult((0, 1), 0.0, 0.0)

    def test_matches_per_edge_search_on_expanded_weights(self):
        # the same floats, added in the same order, as a search over per-edge
        # weights a[e] = a[src[e]] and b[e] = delay[e] + b[src[e]]
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 8)
            w = random_weights(rng, n)
            cap = rng.uniform(0.0, 2.5)
            assert search_min_latency(w, 0, n - 1, cap) == per_edge_search(w, 0, n - 1, cap)


class TestPushTimeCapTest:
    """A label is pushed only if it can pay its own node's cost, or reaches the destination."""

    def test_same_results_as_pruning_at_pop(self):
        rng = random.Random(11)
        for i in range(20_000):
            n = rng.randint(2, 12)
            w = random_weights(rng, n)
            cap = (0.0, math.inf, rng.uniform(0.0, 1.0), rng.uniform(1.0, 4.0))[i % 4]
            source, destination = rng.randrange(n), rng.randrange(n)
            expected = search_pruned_at_pop(w.edges, w.a, w.b, source, destination, cap)
            assert search_min_latency(w, source, destination, cap) == expected, i

    def test_every_pushed_label_can_pay_its_node(self, monkeypatch):
        # pushes go through a stand-in heapq, in the search and in the loop
        # that prunes at pop only, which pushes every label that improves its node
        pushed = []

        def recording_heappush(heap, entry):
            pushed.append(entry)
            heapq.heappush(heap, entry)

        stand_in = SimpleNamespace(heappop=heapq.heappop, heappush=recording_heappush)
        monkeypatch.setattr(search, "heapq", stand_in)
        monkeypatch.setattr(helpers, "heapq", stand_in)
        rng = random.Random(12)
        skipped = over_cap_at_destination = 0
        for _ in range(500):
            n = rng.randint(2, 10)
            w = random_weights(rng, n)
            cap = rng.uniform(0.0, 2.0)
            pushed.clear()
            result = search_min_latency(w, 0, n - 1, cap)
            for _, new_a, node, _ in pushed:
                assert node == n - 1 or new_a + w.a[node] <= cap
                over_cap_at_destination += new_a + w.a[node] > cap
            ours = len(pushed)
            pushed.clear()
            assert result == search_pruned_at_pop(w.edges, w.a, w.b, 0, n - 1, cap)
            assert len(pushed) >= ours
            skipped += len(pushed) - ours
        assert skipped > 200 and over_cap_at_destination > 50

    def test_a_label_that_pays_exactly_the_cap_is_pushed(self):
        line = node_billed(3, {(0, 1): 1.0, (1, 2): 1.0}, a=(0.0, 0.5, 0.0), b=(0.0, 0.0, 0.0))
        assert search_min_latency(line, 0, 2, 0.5) == PathResult((0, 1, 2), 0.5, 2.0)
        assert search_min_latency(line, 0, 2, math.nextafter(0.5, 0.0)) is None

    def test_a_destination_label_is_pushed_whatever_its_own_cost(self):
        w = node_billed(2, {(0, 1): 1.0}, a=(0.5, 9.0), b=(0.0, 0.0))
        assert search_min_latency(w, 0, 1, 0.5) == PathResult((0, 1), 0.5, 1.0)

    def test_a_label_that_is_not_pushed_still_claims_its_node(self):
        # 0 -> 1 -> 3 reaches node 3 first and faster, but cannot pay node 3's
        # cost; it still claims node 3, so the slower, cheaper 0 -> 2 -> 3 is
        # refused there, and the search finds no path where the oracle does
        w = node_billed(
            5,
            {(0, 1): 1.0, (0, 2): 1.0, (1, 3): 0.0, (2, 3): 5.0, (3, 4): 0.0},
            a=(0.0, 0.8, 0.0, 0.5, 0.0),
            b=(0.0, 0.0, 0.0, 0.0, 0.0),
        )
        assert search_min_latency(w, 0, 4, 1.0) is None
        assert search_pruned_at_pop(w.edges, w.a, w.b, 0, 4, 1.0) is None
        assert enumerate_best_path(w, 0, 4, 1.0) == PathResult((0, 2, 3, 4), 0.5, 6.0)


def per_edge_search(w, source, destination, cap):
    """Single-label search over per-edge weights, with no per-node shortcut."""
    # each row as (successor, cost, latency) triples, one per edge
    rows = [[(v, w.a[u], d + w.b[u]) for v, d in row] for u, row in enumerate(w.edges.rows)]
    min_b = [math.inf] * w.n
    min_b[source] = 0.0
    frontier = [(0.0, 0.0, source, 0, (source,))]
    pushed = 0
    while frontier:
        curr_b, curr_a, node, _, path = heapq.heappop(frontier)
        if node == destination:
            return PathResult(path, curr_a, curr_b)
        for nxt, a, b in rows[node]:
            new_a, new_b = curr_a + a, curr_b + b
            if new_a <= cap and new_b < min_b[nxt]:
                min_b[nxt] = new_b
                pushed += 1
                heapq.heappush(frontier, (new_b, new_a, nxt, pushed, path + (nxt,)))
    return None
