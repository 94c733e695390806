import math
import random

import pytest

from budgetpath.search import (
    EdgeList,
    EdgeWeights,
    PathResult,
    SearchError,
    enumerate_best_path,
    search_min_latency,
)
from helpers import is_connected, random_weights


def weights_from_edges(n, edges):
    """edges: {(u, v): (a, b)}"""
    graph = EdgeList.from_pairs(n, edges)
    pairs = list(zip(graph.src, graph.dst))
    return EdgeWeights(graph, tuple(edges[p][0] for p in pairs), tuple(edges[p][1] for p in pairs))


DIAMOND = weights_from_edges(4, {
    (0, 1): (0.3, 10.0),   # s -> x
    (1, 3): (0.3, 10.0),   # x -> d
    (0, 2): (0.05, 50.0),  # s -> y
    (2, 3): (0.05, 50.0),  # y -> d
})


class TestSearch:
    def test_source_equals_destination(self):
        result = search_min_latency(DIAMOND, 0, 0, 0.0)
        assert result.path == (0,)
        assert result.total_a == 0.0
        assert result.total_b == 0.0

    def test_cap_below_first_edge(self):
        line = weights_from_edges(3, {(0, 1): (0.1, 1.0), (1, 2): (0.1, 1.0)})
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
        with pytest.raises(SearchError):
            search_min_latency(DIAMOND, 0, 9, 1.0)
        with pytest.raises(SearchError):
            search_min_latency(DIAMOND, -1, 3, 1.0)

    def test_later_label_does_not_reroute_earlier_one(self):
        # node 1 is reached cheaply by 0->1, then faster by 0->2->1, whose
        # cost leaves no room for 1->3 under the cap; the destination label
        # must keep the cheap chain it was built on
        w = weights_from_edges(4, {
            (0, 1): (1.0, 1.0),
            (0, 2): (5.0, 0.1),
            (2, 1): (5.0, 0.1),
            (1, 3): (2.0, 1.0),
        })
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


class TestOracle:
    def test_matches_search_on_diamond(self):
        assert enumerate_best_path(DIAMOND, 0, 3, 0.2) == search_min_latency(DIAMOND, 0, 3, 0.2)

    def test_disconnected(self):
        w = weights_from_edges(3, {(0, 1): (0.1, 1.0)})
        assert enumerate_best_path(w, 0, 2, 10.0) is None

    def test_node_guard(self):
        w = random_weights(random.Random(0), 13)
        with pytest.raises(SearchError, match="refused"):
            enumerate_best_path(w, 0, 1, 1.0)
        enumerate_best_path(w, 0, 1, 1.0, force=True)  # override allowed

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
            edge_path = [w.edges.index(u, v) for u, v in zip(result.path, result.path[1:])]
            recomputed_a = sum(w.a[e] for e in edge_path)
            recomputed_b = sum(w.b[e] for e in edge_path)
            assert result.total_a == pytest.approx(recomputed_a, abs=0)
            assert result.total_b == pytest.approx(recomputed_b, abs=0)

    def test_uncapped_equals_plain_dijkstra(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(2, 8)
            w = random_weights(rng, n)
            mine = search_min_latency(w, 0, n - 1, math.inf)
            exact = enumerate_best_path(w, 0, n - 1, math.inf)
            if exact is None:
                assert mine is None
                assert not is_connected(w, 0, n - 1)
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
    def test_rejects_self_loops(self):
        with pytest.raises(SearchError, match="self-loop"):
            weights_from_edges(2, {(0, 0): (0.0, 0.0)})
        with pytest.raises(SearchError, match="self-loop"):
            EdgeWeights(EdgeList((0, 1, 1), (0,), (0,)), (0.0,), (0.0,))

    @pytest.mark.parametrize("pairs", [[(0, 2)], [(2, 0)], [(0, -1)], [(0, 1), (0, 1)]])
    def test_rejects_absent_nodes_and_duplicates(self, pairs):
        with pytest.raises(SearchError):
            EdgeList.from_pairs(2, pairs)

    @pytest.mark.parametrize(
        "edge_list",
        [((0, 1), (0,), (1,)), ((0, 1, 1), (1,), (0,)), ((0, 2, 2), (0, 0), (1, 1)),
         ((0, 2, 1, 2), (0, 0), (1, 2))],
    )
    def test_rejects_inconsistent_rows(self, edge_list):
        with pytest.raises(SearchError):
            EdgeList(*edge_list)

    def test_rejects_negative_present_weights(self):
        with pytest.raises(SearchError, match="finite"):
            weights_from_edges(2, {(0, 1): (-1.0, 0.0)})

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["a", "b"])
    def test_rejects_invalid_weights_on_either_side(self, bad, which):
        weights = {(0, 1): (0.5, 0.5), (1, 0): (0.5, 0.5)}
        weights[1, 0] = (bad, 0.5) if which == "a" else (0.5, bad)
        with pytest.raises(SearchError, match="finite"):
            weights_from_edges(2, weights)

    def test_rejects_weight_count_mismatch(self):
        graph = EdgeList.from_pairs(2, [(0, 1)])
        with pytest.raises(SearchError):
            EdgeWeights(graph, (0.0, 0.0), (0.0,))

    def test_absent_edge_entries_ignored(self):
        w = weights_from_edges(2, {(0, 1): (0.0, 0.0)})
        assert w.edges.index(0, 1) == 0
        with pytest.raises(KeyError):
            w.edges.index(1, 0)  # absent edge, never read
        assert search_min_latency(w, 0, 1, 1.0).path == (0, 1)
