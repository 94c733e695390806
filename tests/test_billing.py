import math
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from budgetpath.billing import (
    BITS_PER_GB,
    BITS_PER_MBPS,
    FLOOR_SHARE,
    LEAST_K,
    MAX_DATA_GB,
    MIN_DATA_GB,
    RULES,
    SECONDS_PER_HOUR,
    BillingMethod,
    TransferRequest,
    billed_hours,
    cost_floor,
    data_threshold,
    edge_latency,
    payg_cost,
    pfdt_cost,
    price,
    price_round,
    select_billing,
)
from budgetpath.search import search_core
from budgetpath.topology import MAX_EGRESS_MBPS, MAX_RATE, MIN_EGRESS_MBPS, MIN_RATE, NodeSpec
from helpers import (
    cost_floor_by_rule, domain_payload, domain_value, edge_list, full_rate_floor,
    hour_aligned_fractions,
)

# Alibaba Singapore rates: PAYG $0.021/Mbps/h, PFDT $0.081/GB
K1 = 0.021
K2 = 0.081


# the edges 0 -> 1 -> 2, on which a search reaches node 1 and reads its cost once
CHAIN = edge_list(3, [(0, 1, 0.0), (1, 2, 0.0)])


def make_node(payg=K1, pfdt=K2, cap=100.0):
    return NodeSpec(0, "n0", "203.0.113.1", cap, payg, pfdt)


class TestEdgeLatency:
    def test_pure_transmission(self):
        assert edge_latency(0.0, 1.0, 100.0) == 80.0

    def test_with_propagation(self):
        assert edge_latency(0.040, 1.0, 100.0) == pytest.approx(80.02)

    def test_vanishing_data_approaches_half_rtt(self):
        assert edge_latency(0.040, 1e-12, 100.0) == pytest.approx(0.020, abs=1e-9)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            edge_latency(0.0, 1.0, 0.0)

    @given(
        rtt=st.floats(0, 10),
        data=st.floats(0.001, 100),
        b1=st.floats(1, 500),
        b2=st.floats(1, 500),
    )
    def test_strictly_decreasing_in_bandwidth(self, rtt, data, b1, b2):
        if b1 == b2:
            return
        lo, hi = sorted([b1, b2])
        assert edge_latency(rtt, data, hi) < edge_latency(rtt, data, lo)


class TestPfdtCost:
    def test_table_rate_one_gb(self):
        assert pfdt_cost(K2, 1.0) == 0.081

    def test_zero_data(self):
        assert pfdt_cost(K2, 0.0) == 0.0

    def test_threshold_cross_check(self):
        assert pfdt_cost(K2, 25.926) == pytest.approx(2.100, abs=1e-3)


class TestPaygCost:
    def test_one_hour_minimum_fast_transfer(self):
        # 1 GB at 100 Mbps takes 80 s, billed as a full hour
        assert billed_hours(1.0, 100.0) == 1
        assert payg_cost(K1, 100.0, 1.0) == pytest.approx(2.10)

    def test_multi_hour_rounding(self):
        # 5 GB at 10 Mbps takes 4000 s -> 2 billed hours
        assert billed_hours(5.0, 10.0) == 2
        assert payg_cost(K1, 10.0, 5.0) == pytest.approx(0.42)

    def test_minimum_hour_for_tiny_transfer(self):
        assert payg_cost(0.0296, 5.0, 1e-9) == pytest.approx(0.148)

    @given(rate=st.floats(0, 1), bw=st.floats(1, 500), data=st.floats(0.001, 50))
    def test_at_least_one_hour_charged(self, rate, bw, data):
        assert payg_cost(rate, bw, data) >= rate * bw - 1e-12

    @given(bw=st.floats(1, 500), d1=st.floats(0.001, 50), d2=st.floats(0.001, 50))
    def test_nondecreasing_in_data_size(self, bw, d1, d2):
        lo, hi = sorted([d1, d2])
        assert payg_cost(K1, bw, lo) <= payg_cost(K1, bw, hi) + 1e-12


class TestDataThreshold:
    def test_table_rates(self):
        assert data_threshold(K1, K2, 100.0) == pytest.approx(25.925925925925927)

    def test_zero_payg_rate(self):
        assert data_threshold(0.0, K2, 100.0) == 0.0

    def test_linear_in_bandwidth(self):
        assert data_threshold(K1, K2, 50.0) == pytest.approx(12.962962962962964)

    def test_free_pfdt_is_infinite(self):
        assert data_threshold(K1, 0.0, 100.0) == math.inf

    @given(
        k1=st.floats(0.001, 1),
        k2=st.floats(0.001, 1),
        bw=st.floats(1, 200),
        data=st.floats(0.001, 50),
    )
    def test_consistency_with_one_hour_costs(self, k1, k2, bw, data):
        # within a single billed hour, the threshold is exactly the
        # break-even point of the two cost formulas
        if billed_hours(data, bw) != 1:
            return
        cheaper_pfdt = pfdt_cost(k2, data) < payg_cost(k1, bw, data)
        below = data < data_threshold(k1, k2, bw)
        if not math.isclose(data * k2, k1 * bw):  # skip knife-edge float ties
            assert cheaper_pfdt == below


class TestSelectBilling:
    def test_small_transfer_prefers_pfdt(self):
        config = select_billing(make_node(), 100.0, 1.0)
        assert config.method is BillingMethod.PFDT
        assert config.bandwidth_mbps == 100.0

    def test_large_transfer_prefers_payg(self):
        config = select_billing(make_node(), 100.0, 30.0)
        assert config.method is BillingMethod.PAYG
        assert config.bandwidth_mbps == 100.0

    def test_boundary_semantics(self):
        d_star = data_threshold(K1, K2, 100.0)
        assert select_billing(make_node(), 100.0, d_star, "threshold").method is BillingMethod.PAYG
        assert select_billing(make_node(), 100.0, d_star, "exact-cost").method is BillingMethod.PFDT

    def test_pfdt_restores_full_bandwidth(self):
        config = select_billing(make_node(cap=200.0), 50.0, 1.0)
        assert config.method is BillingMethod.PFDT
        assert config.bandwidth_mbps == 200.0

    def test_single_method_nodes(self):
        assert select_billing(make_node(payg=None), 100.0, 1e6).method is BillingMethod.PFDT
        assert select_billing(make_node(pfdt=None), 100.0, 0.001).method is BillingMethod.PAYG

    def test_pfdt_latency_dominance(self):
        # PFDT runs at full rate, so its edge latency never exceeds PAYG's
        node = make_node()
        for candidate in (10.0, 50.0, 100.0):
            pfdt_latency = edge_latency(0.02, 5.0, node.max_egress_mbps)
            payg_latency = edge_latency(0.02, 5.0, candidate)
            assert pfdt_latency <= payg_latency

    def test_rejects_out_of_range_candidate(self):
        with pytest.raises(ValueError):
            select_billing(make_node(), 150.0, 1.0)
        with pytest.raises(ValueError):
            select_billing(make_node(), 0.0, 1.0)

    @pytest.mark.parametrize("cap", [MIN_EGRESS_MBPS, 100.0, MAX_EGRESS_MBPS])
    def test_the_candidate_is_bounded_by_the_least_k_and_the_cap(self, cap):
        node, least = make_node(cap=cap), LEAST_K * cap
        for candidate in (least, cap):
            assert select_billing(node, candidate, 1.0).bandwidth_mbps in (candidate, cap)
        for candidate in (math.nextafter(least, 0.0), math.nextafter(cap, math.inf),
                          math.nan, math.inf, -math.inf):
            refusal = re.escape(f"candidate bandwidth {candidate} outside [{least}, {cap}]")
            with pytest.raises(ValueError, match=f"^{refusal}$"):
                select_billing(node, candidate, 1.0)


class TestCostFloor:
    # nodes of each kind: both methods, PAYG only, PFDT only, free PFDT
    KINDS = ("both", "payg-only", "pfdt-only", "free-pfdt")

    @staticmethod
    def random_node(rng, kind):
        payg = {"pfdt-only": None, "free-payg": 0.0}.get(kind, round(rng.uniform(0.001, 0.1), 4))
        pfdt = {"payg-only": None, "free-pfdt": 0.0}.get(kind, round(rng.uniform(0.005, 0.3), 4))
        return make_node(payg, pfdt, rng.choice([1.0, 10.0, 50.0, 100.0, 200.0, 1000.0]))

    @pytest.mark.parametrize("rule", RULES)
    def test_matches_the_per_rule_floor(self, rule):
        # `cost_floor` takes the method from the k = 1 round's cost, `price`'s at full rate; the
        # reference decides it per rule. They are equal at the threshold itself and over
        # sizes from 1e-12 to 1e8 GB. A payload of whole hours at full rate can
        # have its PAYG bill round below the bandwidth-hours: there the floor is
        # that bill, which k = 1 really charges.
        rng = random.Random(47)
        drawn, rounded = Counter(), 0
        for _ in range(4000):
            node = self.random_node(rng, rng.choice(self.KINDS + ("free-payg",)))
            payg, pfdt, cap = node.payg_rate, node.pfdt_rate, node.max_egress_mbps
            draw = rng.random()
            if draw < 0.3 and payg and pfdt:
                kind, data_gb = "threshold", payg * cap / pfdt
            elif draw < 0.6:
                seconds = rng.randint(1, 10_000) * SECONDS_PER_HOUR
                kind, data_gb = "hours", seconds * cap * BITS_PER_MBPS / BITS_PER_GB
            else:
                kind, data_gb = "sizes", 10.0 ** rng.uniform(-12.0, 8.0)
            drawn[kind] += 1
            floor = full_rate_floor(node, data_gb, rule)
            reference = cost_floor_by_rule(node, data_gb, rule)
            if kind != "hours":
                assert floor == reference, (node, data_gb)
                continue
            assert floor == min(reference, price(node, cap, data_gb, rule)[2]), (node, data_gb)
            assert reference - floor <= 1e-15 * reference, (node, data_gb)
            rounded += floor != reference
        assert min(drawn.values()) > 200 and rounded > 50, (drawn, rounded)

    @pytest.mark.parametrize("rule", RULES)
    def test_no_fraction_bills_below_the_floor(self, rule):
        rng = random.Random(41)
        checked = tiny = 0
        for _ in range(400):
            node = self.random_node(rng, rng.choice(self.KINDS))
            data_gb = rng.choice([rng.uniform(0.001, 1.0), rng.uniform(1.0, 100.0), 1e4])
            floor = full_rate_floor(node, data_gb, rule)
            fractions = (
                [1.0, 0.5, 2.0 ** -7, 2.0 ** -30]
                + [rng.uniform(0.0, 1.0) or 1.0 for _ in range(30)]
                + hour_aligned_fractions(node, data_gb)
                # at and near the least k
                + [2.0 ** -50, 2.0 ** -60, 2.0 ** -63, LEAST_K]
            )
            for k in fractions:
                cost = price(node, k * node.max_egress_mbps, data_gb, rule)[2]
                assert floor <= cost * (1 + 1e-12), (node, data_gb, k)
                checked += 1
                tiny += k <= 2.0 ** -50
        assert checked > 10_000 and tiny > 1000

    @pytest.mark.parametrize("rule", RULES)
    def test_the_floor_is_billed_at_an_hour_aligned_fraction(self, rule):
        # the bound is tight: k = 1 or a k at which PAYG fills whole hours bills
        # the floor itself, up to rounding. Under `threshold` a node with both
        # methods can be kept off its PAYG floor by the rule picking a dearer
        # PFDT, so only `exact-cost` draws those.
        kinds = self.KINDS if rule == "exact-cost" else self.KINDS[1:]
        rng = random.Random(43)
        on_payg = 0
        for _ in range(300):
            node = self.random_node(rng, rng.choice(kinds))
            data_gb = rng.choice([rng.uniform(0.001, 1.0), rng.uniform(1.0, 100.0)])
            floor = full_rate_floor(node, data_gb, rule)
            aligned = hour_aligned_fractions(node, data_gb)
            costs = [
                price(node, k * node.max_egress_mbps, data_gb, rule)[2] for k in [1.0] + aligned
            ]
            assert min(costs) == pytest.approx(floor, rel=1e-12, abs=0.0), (node, data_gb)
            on_payg += min(costs[1:], default=math.inf) < costs[0]
        assert on_payg > 50

    def test_single_method_and_free_nodes(self):
        for rule in RULES:
            assert full_rate_floor(make_node(pfdt=None), 36.0, rule) == pytest.approx(K1 * 80.0)
            assert full_rate_floor(make_node(payg=None), 36.0, rule) == K2 * 36.0
            assert full_rate_floor(make_node(pfdt=0.0), 36.0, rule) == 0.0
            assert full_rate_floor(make_node(payg=0.0), 36.0, rule) == 0.0

    def test_threshold_counts_pfdt_only_below_the_full_rate_threshold(self):
        # 1 GB: PFDT ($0.081) is picked at k = 1 and undercuts nothing, the PAYG
        # floor 0.021 * 1 * 8000 / 3600 = $0.0467 is lower under both rules
        assert full_rate_floor(make_node(), 1.0, "threshold") == pytest.approx(0.021 * 8000 / 3600)
        # a PFDT rate of 0.001 makes it the cheaper option, but at 30 GB the
        # threshold 0.021 * 100 / 0.001 = 2100 GB is not passed, so threshold counts it too
        node = make_node(pfdt=0.001)
        assert full_rate_floor(node, 30.0, "threshold") == 0.03
        assert full_rate_floor(node, 30.0, "exact-cost") == 0.03
        # above the full-rate threshold no k picks PFDT under `threshold`
        node = make_node(pfdt=0.001, cap=1.0)  # threshold 21 GB
        assert full_rate_floor(node, 30.0, "exact-cost") == 0.03
        assert full_rate_floor(node, 30.0, "threshold") == pytest.approx(0.021 * 30 * 8000 / 3600)


def domain_node(rng, i=0):
    """A node whose cap and rates are drawn across the operating domain, by `domain_value`."""
    kind = rng.choice(TestCostFloor.KINDS)
    payg = {"pfdt-only": None}.get(kind, domain_value(rng, MIN_RATE, MAX_RATE))
    pfdt = {"payg-only": None, "free-pfdt": 0.0}.get(kind, domain_value(rng, MIN_RATE, MAX_RATE))
    cap = domain_value(rng, MIN_EGRESS_MBPS, MAX_EGRESS_MBPS)
    return NodeSpec(i, f"n{i}", "203.0.113.1", cap, payg, pfdt)


def is_normal_or_zero(value: float) -> bool:
    return value == 0.0 or sys.float_info.min <= value <= sys.float_info.max


class TestPriceRound:
    @staticmethod
    def lazily_priced(node, k, data_gb, rule):
        """What a bisection round's lazy fill in `search_core` writes for `node`,
        met as the middle of the chain 0 -> 1 -> 2. Floors of 0 drop no label."""
        a, b = [0.0, None, None], [0.0, None, None]
        pricing = ((None, node, None), k, data_gb, rule, (0.0, 0.0, 0.0))
        result = search_core(CHAIN, a, b, 0, 2, math.inf, pricing)
        assert result.path == (0, 1, 2) and (result.total_a, result.total_b) == (a[1], b[1])
        return a[1], b[1]

    def assert_priced_alike(self, node, k, data_gb, rule):
        """`price`, the one-node round and the lazy fill give the same cost and time."""
        expected = price(node, k * node.max_egress_mbps, data_gb, rule)[2:]
        assert self.lazily_priced(node, k, data_gb, rule) == expected, (node, data_gb, k)
        assert price_round((node,), k, data_gb, rule) == ([expected[0]], [expected[1]]), (
            node, data_gb, k)
        return expected

    @pytest.mark.parametrize("rule", RULES)
    def test_equals_price_node_by_node(self, rule):
        # the planner's one-pass round pricer is a transcription of `price`, and
        # must stay equal to it bit for bit, as must the search's lazy fill: at
        # every halving of k down to the least k, hour-aligned k, threshold ties,
        # exact-cost ties and sizes from 1e-9 to 1e8 GB, for nodes of every kind
        rng = random.Random(53)
        priced = 0
        round_nodes = []
        for i in range(1101):
            node = TestCostFloor.random_node(rng, rng.choice(TestCostFloor.KINDS))
            payg, pfdt, cap = node.payg_rate, node.pfdt_rate, node.max_egress_mbps
            if i % 3 == 0 and payg and pfdt:
                data_gb = payg * cap / pfdt
            else:
                data_gb = 10.0 ** rng.uniform(-9.0, 8.0)
            round_nodes.append(node)
            fractions = [1.0, 2.0 ** -(i % 65), rng.random() or 1.0, LEAST_K]
            fractions += hour_aligned_fractions(node, data_gb, 3)
            for k in fractions:
                self.assert_priced_alike(node, k, data_gb, rule)
                priced += 1
        # a tie at k = 0.5: 2 GB at 100 of 200 Mbps bills one hour, and
        # 0.01 * 100 * 1 == 0.5 * 2.0. `exact-cost` gives it to PFDT, at the
        # full 200 Mbps; `threshold`'s strict D < D* keeps PAYG at 100 Mbps
        tie = make_node(0.01, 0.5, 200.0)
        seconds = 80.0 if rule == "exact-cost" else 160.0
        assert price_round((tie,), 0.5, 2.0, rule) == ([1.0], [seconds])
        assert price(tie, 100.0, 2.0, rule)[2:] == (1.0, seconds)
        assert self.lazily_priced(tie, 0.5, 2.0, rule) == (1.0, seconds)
        # a whole round: the nodes in order
        for k in (1.0, 0.5, 2.0 ** -40, LEAST_K):
            for data_gb in (1e-6, 1.0, 1e4):
                expected = [
                    price(node, k * node.max_egress_mbps, data_gb, rule)[2:] for node in round_nodes
                ]
                assert price_round(round_nodes, k, data_gb, rule) == tuple(
                    map(list, zip(*expected))), (k, data_gb)
        assert priced > 5000, priced

    @pytest.mark.parametrize("rule", RULES)
    def test_equals_price_at_the_domain_edges(self, rule):
        # caps, rates and payloads drawn log-uniformly across the whole operating
        # domain, a fifth of them at one of its ends, and k down to the least k:
        # `price`, the round and the search's lazy fill price each node alike,
        # and every cost and time is a finite normal float or 0
        rng = random.Random(59)
        priced = 0
        round_nodes = []
        for i in range(1500):
            node = domain_node(rng, i)
            round_nodes.append(node)
            data_gb = domain_payload(rng)
            for k in (1.0, 0.5, rng.random() or 1.0, 2.0 ** -rng.randrange(65), LEAST_K):
                expected = self.assert_priced_alike(node, k, data_gb, rule)
                assert all(map(is_normal_or_zero, expected)), (node, data_gb, k)
                priced += 1
        # whole rounds at the domain's corners
        for k in (1.0, 0.5, LEAST_K):
            for data_gb in (MIN_DATA_GB, 1.0, MAX_DATA_GB):
                expected = [
                    price(node, k * node.max_egress_mbps, data_gb, rule)[2:] for node in round_nodes
                ]
                assert price_round(round_nodes, k, data_gb, rule) == tuple(
                    map(list, zip(*expected))), (k, data_gb)
        assert priced == 7500

    @pytest.mark.parametrize("rule", RULES)
    def test_a_round_is_finite_and_non_negative(self, rule):
        # what lets the planner pass a round's lists to the search unchecked: at
        # caps, rates and payloads across the operating domain and k down to the
        # least k, a round prices every node finite and >= 0
        rng = random.Random(61)
        seen = Counter()
        for _ in range(4000):
            nodes = []
            for j in range(rng.randint(1, 3)):
                nodes.append(domain_node(rng, j))
                nodes[-1].validate()
            data_gb = domain_payload(rng)
            TransferRequest(0, 1, data_gb, 1.0, 1)  # a payload that a request takes
            k = rng.choice([1.0, 0.5, rng.random() or 1.0, 2.0 ** -rng.randrange(65), LEAST_K])
            costs, seconds = price_round(nodes, k, data_gb, rule)
            assert len(costs) == len(seconds) == len(nodes), (nodes, data_gb, k)
            assert all(0.0 <= value < math.inf for value in costs + seconds), (nodes, data_gb, k)
            seen["at the least k" if k == LEAST_K else "priced"] += 1
        assert len(seen) == 2 and min(seen.values()) > 20, seen

    @pytest.mark.parametrize("rule", RULES)
    def test_no_cost_is_below_its_share_of_the_floor(self, rule):
        # what lets a bisection round drop a label by its node's floor unpriced,
        # and the floors prove a budget too small: across the operating domain,
        # at whole hours, where bills round low, and at k down to the least k, a
        # round bills each node at least FLOOR_SHARE of its `cost_floor`
        rng = random.Random(83)
        seen = Counter()
        for _ in range(6000):
            nodes = [domain_node(rng, j) for j in range(rng.randint(1, 3))]
            k = rng.choice([2.0 ** -rng.randrange(65), LEAST_K, rng.random() or 1.0])
            data_gb = domain_payload(rng)
            if rng.random() < 0.3:  # whole hours at node 0's bandwidth, where bills round low
                hours = rng.randint(1, 10_000) * SECONDS_PER_HOUR
                data_gb = hours * k * nodes[0].max_egress_mbps * BITS_PER_MBPS / BITS_PER_GB
                if not MIN_DATA_GB <= data_gb <= MAX_DATA_GB:
                    continue
                seen["whole hours"] += 1
            full_rate_costs, _ = price_round(nodes, 1.0, data_gb, rule)
            costs, _ = price_round(nodes, k, data_gb, rule)
            floors = [cost_floor(node, cost, data_gb)
                      for node, cost in zip(nodes, full_rate_costs)]
            assert all(map(is_normal_or_zero, floors)), (nodes, data_gb)
            assert not any(cost < floor * FLOOR_SHARE for cost, floor in zip(costs, floors)), (
                nodes, data_gb, k)
            seen["below the floor by rounding"] += any(map(float.__lt__, costs, floors))
        assert min(seen["whole hours"], seen["below the floor by rounding"]) >= 50, seen


class TestOperatingDomain:
    """Caps, rates, payloads and k bounded where they are made, and what that buys."""

    # the domain's corners: each cap, each rate (None for a method the node does
    # not offer), each payload and k at its least, at 2**-30 (where 30 rounds
    # stop), at one half and at 1
    CAPS = (MIN_EGRESS_MBPS, 1.0, MAX_EGRESS_MBPS)
    RATES = (None, 0.0, MIN_RATE, 1.0, MAX_RATE)
    PAYLOADS = (MIN_DATA_GB, 1.0, MAX_DATA_GB)
    FRACTIONS = (LEAST_K, 2.0 ** -30, 0.5, 1.0)

    @pytest.mark.parametrize("rule", RULES)
    def test_every_corner_prices_finite_normal_values_above_the_floors(self, rule):
        # the proof that the pricers need no refusal and the floors no guard: at
        # every corner, every cost and time is 0 or a normal float, a PAYG rate
        # times its least bandwidth is far above 2**-1030, where a subnormal
        # product could lose more than FLOOR_SHARE allows, every bill is at least
        # FLOOR_SHARE of its floor, and a path of 2**40 nodes at the largest cost
        # and time sums to a finite number
        corners = 0
        largest_cost = largest_seconds = 0.0
        for cap in self.CAPS:
            for payg in self.RATES:
                for pfdt in self.RATES:
                    if payg is None and pfdt is None:
                        continue
                    node = NodeSpec(0, "n0", "203.0.113.1", cap, payg, pfdt)
                    node.validate()
                    if payg:
                        assert payg * LEAST_K * cap >= 2.0 ** -1000
                    for data_gb in self.PAYLOADS:
                        TransferRequest(0, 1, data_gb, 1.0, 1)
                        (full_rate_cost,), _ = price_round((node,), 1.0, data_gb, rule)
                        floor = cost_floor(node, full_rate_cost, data_gb)
                        assert is_normal_or_zero(floor), (node, data_gb)
                        for k in self.FRACTIONS:
                            (cost,), (seconds,) = price_round((node,), k, data_gb, rule)
                            assert is_normal_or_zero(cost) and is_normal_or_zero(seconds), (
                                node, data_gb, k)
                            assert cost >= floor * FLOOR_SHARE, (node, data_gb, k)
                            largest_cost = max(largest_cost, cost)
                            largest_seconds = max(largest_seconds, seconds)
                            corners += 1
        assert corners == 3 * 24 * 3 * 4
        assert largest_cost * 2.0 ** 40 < math.inf and largest_seconds * 2.0 ** 40 < math.inf
        assert largest_cost < 2.3e18 and largest_seconds < 1.5e38, (largest_cost, largest_seconds)

    def test_the_data_size_is_bounded_at_both_ends(self):
        for data_gb in (MIN_DATA_GB, MAX_DATA_GB):
            assert TransferRequest(0, 1, data_gb, 1.0, 5).data_size_gb == data_gb
        for data_gb in (math.nextafter(MIN_DATA_GB, 0.0), math.nextafter(MAX_DATA_GB, math.inf),
                        0.0, -1.0, math.nan, math.inf, -math.inf):
            refusal = re.escape(f"data_size_gb must be in [1e-09, 1e+12], got {data_gb}")
            with pytest.raises(ValueError, match=f"^{refusal}$"):
                TransferRequest(0, 1, data_gb, 1.0, 5)

    def test_the_least_k_is_two_to_the_minus_64(self):
        assert LEAST_K == 2.0 ** -64 == 5.421010862427522e-20


class TestTransferRequest:
    OUTSIDE = "data_size_gb must be in [1e-09, 1e+12], got "

    @pytest.mark.parametrize("data_gb, budget, message", [
        (math.nan, 1.0, f"^{re.escape(OUTSIDE)}nan$"),
        (math.inf, 1.0, f"^{re.escape(OUTSIDE)}inf$"),
        (1e300, 1.0, f"^{re.escape(OUTSIDE)}1e\\+300$"),
        (0.0, 1.0, f"^{re.escape(OUTSIDE)}0.0$"),
        (1.0, math.nan, "budget_usd must be >= 0"),
        (1.0, -1.0, "budget_usd must be >= 0"),
    ])
    def test_rejects_sizes_and_budgets_that_are_not_numbers_in_range(self, data_gb, budget, message):
        with pytest.raises(ValueError, match=message):
            TransferRequest(0, 1, data_gb, budget, 5)

    @pytest.mark.parametrize("fields, message", [
        ((0, 5, 10.0, 1.5, 2.5), "max_iterations must be an integer, got 2.5"),
        ((0, 5, 10.0, 1.5, 10.0), "max_iterations must be an integer, got 10.0"),
        ((0, 5, 10.0, 1.5, True), "max_iterations must be an integer, got True"),
        ((True, 5, 10.0, 1.5, 10), "source must be an integer, got True"),
        ((0.0, 5, 10.0, 1.5, 10), "source must be an integer, got 0.0"),
        ((0, False, 10.0, 1.5, 10), "destination must be an integer, got False"),
        ((0, "5", 10.0, 1.5, 10), "destination must be an integer, got '5'"),
        ((0, 5, 10.0, 1.5, 0), "max_iterations must be >= 1, got 0"),
        ((2, 2, 10.0, 1.5, 10), r"^source and destination are the same node \(2\)$"),
    ])
    def test_rejects_endpoints_and_iteration_caps_that_are_not_integers(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TransferRequest(*fields)

    def test_infinite_budget_is_valid(self):
        assert TransferRequest(0, 1, 1.0, math.inf, 5).budget_usd == math.inf


@pytest.mark.parametrize("function, args, message", [
    (pfdt_cost, (-K2, 1.0), "pfdt_cost inputs must be non-negative"),
    (pfdt_cost, (K2, -1.0), "pfdt_cost inputs must be non-negative"),
    (payg_cost, (-K1, 100.0, 1.0), "payg_rate must be >= 0, got -0.021"),
    (edge_latency, (-0.01, 1.0, 100.0), "rtt must be >= 0, got -0.01"),
], ids=["pfdt-rate", "pfdt-data", "payg-rate", "rtt"])
def test_rejects_negative_inputs(function, args, message):
    with pytest.raises(ValueError, match=message):
        function(*args)


def test_billed_hours_rejects_a_transfer_too_long_to_count():
    # 1e300 GB at 1 Mbps takes longer than the largest float of seconds
    with pytest.raises(ValueError, match="too long to bill"):
        billed_hours(1e300, 1.0)
    with pytest.raises(ValueError, match="too long to bill"):
        payg_cost(K1, 1.0, 1e300)
