import math
import random
from pathlib import Path

import pytest

from budgetpath.billing import RULES, BillingMethod, NodeBillingConfig, TransferRequest
from budgetpath.planner import plan_outcome, plan_transfer
from budgetpath.simulate import (
    ReportRow,
    SimulationError,
    compare,
    naive_baseline,
    simulate_transfer,
)
from budgetpath.topology import (
    LinkSpec, NodeSpec, NoPathError, Topology, TopologyError, load_topology,
)
from helpers import (
    cut_off_one_node, cyclic_garbage, grid_topology, is_connected, naive_path_by_enumeration,
    random_topology, reprice, request_or_refusal, sender_configs_at,
)

TESTBED = Path(__file__).resolve().parent.parent / "fixtures" / "testbed6.json"


def line_topology(n, cap=100.0, rtt=0.0):
    nodes = tuple(NodeSpec(i, f"n{i}", f"198.51.100.{i+1}", cap, 0.021, 0.081) for i in range(n))
    links = []
    for i in range(n - 1):
        links += [LinkSpec(i, i + 1, rtt), LinkSpec(i + 1, i, rtt)]
    return Topology(nodes, tuple(links))


def full_pfdt_configs(topo, path):
    return {i: NodeBillingConfig(BillingMethod.PFDT, topo.node(i).max_egress_mbps) for i in path[:-1]}


class TestSimulateTransfer:
    def test_single_edge(self):
        topo = line_topology(2)
        latency, cost = simulate_transfer(topo, (0, 1), full_pfdt_configs(topo, (0, 1)), 1.0)
        assert latency == 80.0
        assert cost == pytest.approx(0.081)

    def test_store_and_forward_triples_three_hops(self):
        topo = line_topology(4)
        latency, _ = simulate_transfer(topo, (0, 1, 2, 3), full_pfdt_configs(topo, (0, 1, 2, 3)), 1.0)
        assert latency == 240.0

    def test_empty_path(self):
        topo = line_topology(2)
        assert simulate_transfer(topo, (0,), {}, 1.0) == (0.0, 0.0)

    def test_one_node_path_totals_are_floats(self):
        topo = line_topology(2)
        for total in simulate_transfer(topo, (0,), {}, 1.0):
            assert type(total) is float
        # no comparison has a one-node path to report: its request is refused
        with pytest.raises(ValueError, match=r"^source and destination are the same node \(1\)$"):
            compare(topo, TransferRequest(1, 1, 1.0, 5.0, 5))

    def test_missing_config_rejected(self):
        topo = line_topology(3)
        configs = full_pfdt_configs(topo, (0, 1, 2))
        del configs[1]
        with pytest.raises(SimulationError, match="node 1"):
            simulate_transfer(topo, (0, 1, 2), configs, 1.0)


class TestNaiveBaseline:
    @pytest.mark.parametrize("src, dst, message", [
        (99, 98, "source 99 is not a valid node id"),
        (-1, 3, "source -1 is not a valid node id"),
        (0, 6, "destination 6 is not a valid node id"),
    ])
    def test_rejects_endpoints_that_are_not_node_ids(self, src, dst, message):
        topo = load_topology(TESTBED)
        assert len(topo) == 6
        with pytest.raises(TopologyError, match=f"^{message}$"):
            naive_baseline(topo, TransferRequest(src, dst, 1.0, 0.5, 5))

    def test_direct_edge_wins(self):
        topo = line_topology(3)
        extra = Topology(topo.nodes, topo.links + (LinkSpec(0, 2, 0.5), LinkSpec(2, 0, 0.5)))
        path, configs = naive_baseline(extra, TransferRequest(0, 2, 1.0, 0.0, 1))
        assert path == (0, 2)
        assert configs[0].method is BillingMethod.PFDT

    def test_hop_tie_broken_by_rtt(self):
        nodes = tuple(NodeSpec(i, f"n{i}", f"198.51.100.{i+1}", 100.0, 0.021, 0.081)
                      for i in range(4))
        links = (LinkSpec(0, 1, 0.010), LinkSpec(1, 3, 0.020),   # sum 30 ms
                 LinkSpec(0, 2, 0.020), LinkSpec(2, 3, 0.030))   # sum 50 ms
        topo = Topology(nodes, links)
        path, _ = naive_baseline(topo, TransferRequest(0, 3, 1.0, 0.0, 1))
        assert path == (0, 1, 3)

    def test_disconnected(self):
        nodes = tuple(NodeSpec(i, f"n{i}", "x", 100.0, 0.021, 0.081) for i in range(2))
        topo = Topology(nodes, ())
        with pytest.raises(NoPathError, match=r"^no path from 0 to 1$"):
            naive_baseline(topo, TransferRequest(0, 1, 1.0, 0.0, 1))

    def test_minimum_hop_property(self):
        rng = random.Random(17)
        for _ in range(40):
            topo = random_topology(rng)
            n = len(topo)
            src, dst = 0, n - 1
            try:
                path, _ = naive_baseline(topo, TransferRequest(src, dst, 1.0, 0.0, 1))
            except NoPathError:
                continue
            hops = len(path) - 1
            # no simple path may beat the baseline's hop count
            for other in _all_simple_paths(topo, src, dst):
                assert len(other) - 1 >= hops

    def test_matches_enumeration(self):
        # grids and three rtt values give many equal and nearly equal sums:
        # 0.1 + 0.2 != 0.3 in floats, and sums round differently by order
        rng = random.Random(2026)
        checked = 0
        for i in range(1300):
            kind = i % 4
            if kind == 0:
                topo = random_topology(rng, 2, 9)
            elif kind == 1:
                topo = random_topology(rng, 2, 9)
                topo = Topology(topo.nodes, tuple(
                    LinkSpec(l.src, l.dst, [0.1, 0.2, 0.3][(l.src + l.dst) % 3]) for l in topo.links
                ))
            elif kind == 2:
                topo = grid_topology(rng, rng.randint(1, 6), rng.randint(1, 5), [0.1, 0.2, 0.3])
            else:
                rtts = [rng.uniform(0.001, 0.3) for _ in range(rng.randint(1, 4))]
                topo = grid_topology(rng, rng.randint(1, 6), rng.randint(1, 5), rtts)
            src, dst = rng.randrange(len(topo)), rng.randrange(len(topo))
            request = request_or_refusal(src, dst, 1.0, 0.0, 1)
            if request is None:
                continue
            expected = naive_path_by_enumeration(topo, src, dst)
            if expected is None:
                with pytest.raises(NoPathError, match=rf"^no path from {src} to {dst}$"):
                    naive_baseline(topo, request)
                continue
            path, _ = naive_baseline(topo, request)
            assert path == expected, (i, src, dst)
            checked += 1
        assert checked >= 1000

    def test_rounding_tie_keeps_slower_lexicographically_smaller_prefix(self):
        # at node 3, (0, 1, 3) is one ulp slower than (0, 2, 3); adding 1.0
        # rounds both sums to the same float, so the lexicographic rule picks
        # the slower prefix, which a per-node minimum rtt would have dropped
        slow = math.nextafter(0.1, 1.0)
        assert slow + 1.0 == 0.1 + 1.0
        nodes = tuple(NodeSpec(i, f"n{i}", f"198.51.100.{i+1}", 100.0, 0.021, 0.081)
                      for i in range(5))
        links = (LinkSpec(0, 1, slow), LinkSpec(0, 2, 0.1), LinkSpec(1, 3, 0.0),
                 LinkSpec(2, 3, 0.0), LinkSpec(3, 4, 1.0))
        topo = Topology(nodes, links)
        path, _ = naive_baseline(topo, TransferRequest(0, 4, 1.0, 0.0, 1))
        assert path == (0, 1, 3, 4) == naive_path_by_enumeration(topo, 0, 4)

    def test_diamond_chain_returns_fast_relays(self):
        # hub 3i links to relays 3i+1 and 3i+2, both link on to hub 3i+3; the
        # lower-id relay is slower by 2**-(i+1), more than all later diamonds
        # together, so every lexicographically smaller path is slower and no
        # two of the 2**k paths beat one another on both rtt sum and order
        k = 40
        nodes = tuple(NodeSpec(i, f"n{i}", "x", 100.0, 0.021, 0.081) for i in range(3 * k + 1))
        links = []
        for i in range(k):
            hub = 3 * i
            for u, v, rtt in ((hub, hub + 1, 1.0 + 2.0 ** -(i + 1)), (hub, hub + 2, 1.0),
                              (hub + 1, hub + 3, 1.0), (hub + 2, hub + 3, 1.0)):
                links += [LinkSpec(u, v, rtt), LinkSpec(v, u, rtt)]
        topo = Topology(nodes, tuple(links))
        path, _ = naive_baseline(topo, TransferRequest(0, 3 * k, 1.0, 0.0, 1))
        assert path == tuple(node for i in range(k) for node in (3 * i, 3 * i + 2)) + (3 * k,)

    def test_grid_15x15_makes_polynomially_many_calls(self, monkeypatch):
        # corner to corner there are C(28, 14) = 40116600 minimum-hop paths
        width = 15
        topo = grid_topology(random.Random(15), width, width, [0.01, 0.02, 0.03, 0.05])
        rtt_of = {(l.src, l.dst): l.rtt_s for l in topo.links}
        calls = {"neighbors": 0, "rtt": 0}
        neighbors, rtt = Topology.neighbors, Topology.rtt

        def counting_neighbors(self, node_id):
            calls["neighbors"] += 1
            return neighbors(self, node_id)

        def counting_rtt(self, src, dst):
            calls["rtt"] += 1
            return rtt(self, src, dst)

        monkeypatch.setattr(Topology, "neighbors", counting_neighbors)
        monkeypatch.setattr(Topology, "rtt", counting_rtt)
        path, _ = naive_baseline(topo, TransferRequest(0, width * width - 1, 1.0, 0.0, 1))
        # the BFS lists each node's neighbours once, the pass once more for
        # each node before the destination's level; one rtt per DAG edge
        assert calls["neighbors"] <= 2 * len(topo)
        assert calls["rtt"] <= len(topo.links)

        assert len(path) == 2 * width - 1
        # least left-to-right rtt sum, row by row over the right/down DAG
        least = {0: 0.0}
        for i in range(1, width * width):
            r, c = divmod(i, width)
            least[i] = min(
                least[j] + rtt_of[(j, i)]
                for j in ([i - width] if r else []) + ([i - 1] if c else [])
            )
        rtt_sum = 0.0
        for u, v in zip(path, path[1:]):
            rtt_sum += rtt_of[(u, v)]
        assert rtt_sum == least[width * width - 1]


def _all_simple_paths(topo, src, dst):
    paths = []

    def visit(node, path):
        if node == dst:
            paths.append(tuple(path))
            return
        for v in topo.neighbors(node):
            if v not in path:
                path.append(v)
                visit(v, path)
                path.pop()

    visit(src, [src])
    return paths


class TestCompare:
    def test_identical_paths_zero_improvement(self):
        topo = line_topology(2)
        report = compare(topo, TransferRequest(0, 1, 1.0, 5.0, 5))
        assert report.improvement == 0.0
        labels = [r.label for r in report.rows]
        assert labels == ["planner", "naive", "oracle"]

    def test_planner_beats_rtt_greedy_naive(self):
        # two 2-hop routes: naive tie-breaks to the low-rtt relay, which has
        # a tenth of the bandwidth; the planner takes the fast relay
        nodes = (
            NodeSpec(0, "s", "198.51.100.1", 100.0, 0.021, 0.081),
            NodeSpec(1, "slow", "198.51.100.2", 10.0, 0.021, 0.081),
            NodeSpec(2, "fast", "198.51.100.3", 100.0, 0.021, 0.081),
            NodeSpec(3, "d", "198.51.100.4", 100.0, 0.021, 0.081),
        )
        links = (LinkSpec(0, 1, 0.010), LinkSpec(1, 3, 0.010),
                 LinkSpec(0, 2, 0.050), LinkSpec(2, 3, 0.050))
        topo = Topology(nodes, links)
        report = compare(topo, TransferRequest(0, 3, 1.0, 5.0, 5))
        planner = report.rows[0]
        naive = report.rows[1]
        assert naive.path == (0, 1, 3)
        assert planner.path == (0, 2, 3)
        assert planner.latency_s < naive.latency_s
        assert report.improvement > 0.3
        oracle = report.rows[2]
        assert oracle.latency_s <= planner.latency_s

    def test_zero_budget_report(self):
        topo = line_topology(2)
        report = compare(topo, TransferRequest(0, 1, 1.0, 0.0, 5))
        assert report.rows[0].label == "planner (insufficient budget)"
        assert report.rows[0].latency_s is None
        assert report.rows[1].label == "naive"
        assert report.rows[1].latency_s == 80.0
        assert report.improvement is None

    def test_a_none_that_no_floor_proves_has_its_own_row(self):
        # a hair under the cheapest path's floor, inside the floors' margin:
        # no round meets the budget, but the floors do not prove it too small
        request = TransferRequest(0, 5, 10.0, 0.9333333333324001, 30)
        report = compare(load_topology(TESTBED), request)
        assert report.rows[0] == ReportRow(
            "planner (no round met the budget)", None, None, None, False)
        assert [row.label for row in report.rows[1:]] == ["naive"]
        assert report.improvement is None

    def test_planner_row_matches_plan_prediction(self):
        topo = line_topology(3)
        request = TransferRequest(0, 2, 1.0, 5.0, 5)
        plan = plan_transfer(topo, request)
        report = compare(topo, request)
        assert report.rows[0].latency_s == plan.predicted_latency_s
        assert report.rows[0].cost_usd == plan.predicted_cost_usd

    def test_report_determinism(self):
        topo = line_topology(3)
        request = TransferRequest(0, 2, 1.0, 5.0, 5)
        r1 = compare(topo, request)
        r2 = compare(topo, request)
        assert r1.to_json() == r2.to_json()
        assert r1.to_table() == r2.to_table()


@pytest.mark.parametrize("rule", RULES)
def test_every_report_row_equals_an_independent_repricing(rule):
    rng, cut_rng = random.Random(13), random.Random(14)
    rows = {"planner": 0, "naive": 0, "oracle": 0}
    no_path = 0
    for i in range(180):
        if i % 3:
            topo = random_topology(rng, 2, 9)
        else:
            topo = grid_topology(rng, rng.randint(2, 3), rng.randint(2, 4), [0.01, 0.02, 0.05])
        topo = cut_off_one_node(topo, cut_rng)
        n = len(topo)
        request = request_or_refusal(rng.randrange(n), rng.randrange(n), rng.uniform(0.1, 40.0),
                                     rng.uniform(0.0, 3.0), rng.randint(1, 8))
        if request is None:
            continue
        if not is_connected(topo.edges, request.source, request.destination):
            # no row to reprice: each of the three refuses the request alike
            message = rf"^no path from {request.source} to {request.destination}$"
            for call in (compare, plan_transfer, naive_baseline):
                with pytest.raises(NoPathError, match=message):
                    call(topo, request)
            no_path += 1
            continue
        report = compare(topo, request, rule)
        plan = plan_transfer(topo, request, rule)
        configs = {"naive": naive_baseline(topo, request)[1]}
        if plan is not None:
            configs["planner"] = plan.configs
        for row in report.rows:
            if row.path is None:
                continue
            if row.label == "oracle":
                # the oracle searches the weights at the plan's k
                configs["oracle"] = sender_configs_at(
                    topo, row.path, plan.fraction_k, request.data_size_gb, rule)
            latency, cost = reprice(topo, row.path, configs[row.label], request.data_size_gb)
            assert (row.latency_s, row.cost_usd) == (latency, cost), (i, row)
            rows[row.label] += 1
    assert min(rows.values()) > 40 and no_path >= 10, (rows, no_path)


@pytest.mark.parametrize("call", [naive_baseline, compare, plan_outcome],
                         ids=["naive_baseline", "compare", "plan_outcome"])
def test_leaves_no_cyclic_garbage(call):
    rng = random.Random(9)
    for _ in range(20):
        topo = random_topology(rng, 5, 9)
        request = TransferRequest(0, len(topo) - 1, rng.uniform(0.1, 40.0), rng.uniform(0.0, 3.0), 8)
        try:
            garbage = cyclic_garbage(lambda: call(topo, request))
        except NoPathError:  # the destination is unreachable
            continue
        assert garbage == 0
