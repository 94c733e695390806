import random

import pytest

from budgetpath.billing import BillingMethod, NodeBillingConfig, TransferRequest
from budgetpath.planner import plan_transfer
from budgetpath.simulate import (
    SimulationError,
    compare,
    naive_baseline,
    simulate_transfer,
)
from budgetpath.topology import LinkSpec, NodeSpec, Topology
from helpers import random_topology


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

    def test_missing_config_rejected(self):
        topo = line_topology(3)
        configs = full_pfdt_configs(topo, (0, 1, 2))
        del configs[1]
        with pytest.raises(SimulationError, match="node 1"):
            simulate_transfer(topo, (0, 1, 2), configs, 1.0)


class TestNaiveBaseline:
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
        with pytest.raises(SimulationError, match="no path"):
            naive_baseline(topo, TransferRequest(0, 1, 1.0, 0.0, 1))

    def test_minimum_hop_property(self):
        rng = random.Random(17)
        for _ in range(40):
            topo = random_topology(rng)
            n = len(topo)
            src, dst = 0, n - 1
            try:
                path, _ = naive_baseline(topo, TransferRequest(src, dst, 1.0, 0.0, 1))
            except SimulationError:
                continue
            hops = len(path) - 1
            # no simple path may beat the baseline's hop count
            for other in _all_simple_paths(topo, src, dst):
                assert len(other) - 1 >= hops


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
