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
    RULES,
    SECONDS_PER_HOUR,
    BillingMethod,
    TransferRequest,
    billed_hours,
    data_threshold,
    edge_latency,
    payg_cost,
    pfdt_cost,
    price,
    price_round,
    select_billing,
)
from budgetpath.topology import NodeSpec
from helpers import cost_floor_by_rule, full_rate_floor, hour_aligned_fractions

# Alibaba Singapore rates: PAYG $0.021/Mbps/h, PFDT $0.081/GB
K1 = 0.021
K2 = 0.081


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
                # near the edge where the transfer takes too long to bill
                + [2.0 ** -900, 1e-300, 1e-305, 5e-324]
            )
            for k in fractions:
                try:
                    cost = price(node, k * node.max_egress_mbps, data_gb, rule)[2]
                except ValueError:
                    continue  # no bandwidth too small to bill has a cost
                assert floor <= cost * (1 + 1e-12), (node, data_gb, k)
                checked += 1
                tiny += k < 1e-250
        assert checked > 10_000 and tiny > 100

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


class TestPriceRound:
    @staticmethod
    def priced(call):
        """The call's result, or the message of the ValueError it raised."""
        try:
            return call()
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("rule", RULES)
    def test_equals_price_node_by_node(self, rule):
        # the planner's one-pass round pricer is a transcription of `price`, and
        # must stay equal to it bit for bit, a ValueError's message included: at every
        # halving of k down to 0, hour-aligned k, threshold ties, exact-cost
        # ties and sizes from 1e-12 to 1e8 GB, for nodes of every kind
        rng = random.Random(53)
        seen = Counter()
        round_nodes = []
        for i in range(1101):
            node = TestCostFloor.random_node(rng, rng.choice(TestCostFloor.KINDS))
            payg, pfdt, cap = node.payg_rate, node.pfdt_rate, node.max_egress_mbps
            if i % 3 == 0 and payg and pfdt:
                data_gb = payg * cap / pfdt
            else:
                data_gb = 10.0 ** rng.uniform(-12.0, 8.0)
            round_nodes.append(node)
            fractions = [1.0, 2.0 ** -i, rng.random() or 1.0, 5e-324]
            fractions += hour_aligned_fractions(node, data_gb, 3)
            for k in fractions:
                expected = self.priced(lambda: price(node, k * cap, data_gb, rule)[2:])
                got = self.priced(lambda: price_round((node,), k, data_gb, rule))
                if not isinstance(expected, str):
                    expected = ([expected[0]], [expected[1]])
                assert got == expected, (node, data_gb, k)
                seen["raised" if isinstance(expected, str) else "priced"] += 1
        # a tie at k = 0.5: 2 GB at 100 of 200 Mbps bills one hour, and
        # 0.01 * 100 * 1 == 0.5 * 2.0. `exact-cost` gives it to PFDT, at the
        # full 200 Mbps; `threshold`'s strict D < D* keeps PAYG at 100 Mbps
        tie = make_node(0.01, 0.5, 200.0)
        seconds = 80.0 if rule == "exact-cost" else 160.0
        assert price_round((tie,), 0.5, 2.0, rule) == ([1.0], [seconds])
        assert price(tie, 100.0, 2.0, rule)[2:] == (1.0, seconds)
        # a whole round: the nodes in order, and a ValueError if any one raises
        for k in (1.0, 0.5, 2.0 ** -40, 2.0 ** -1000):
            for data_gb in (1e-6, 1.0, 1e4):
                expected = self.priced(lambda: [
                    price(node, k * node.max_egress_mbps, data_gb, rule)[2:] for node in round_nodes
                ])
                got = self.priced(lambda: price_round(round_nodes, k, data_gb, rule))
                if not isinstance(expected, str):
                    expected = tuple(map(list, zip(*expected)))
                assert got == expected, (k, data_gb)
        assert seen["raised"] > 500 and seen["priced"] > 5000, seen

    @pytest.mark.parametrize("rule", RULES)
    def test_equals_price_where_values_overflow(self, rule):
        # rates up to 1e308, caps near 1e-300 or near 1e303 and payloads up to the
        # largest a request takes: both refuse the same node with the same message,
        # its time if that is not finite, else its cost, and price nothing but
        # finite numbers
        rng = random.Random(59)
        largest = sys.float_info.max / BITS_PER_GB
        seen = Counter()
        round_nodes = []
        for i in range(1500):
            kind = rng.choice(TestCostFloor.KINDS)
            payg = {"pfdt-only": None}.get(kind, 10.0 ** rng.uniform(-3.0, 308.0))
            pfdt = {"payg-only": None, "free-pfdt": 0.0}.get(kind, 10.0 ** rng.uniform(-3.0, 308.0))
            cap = 10.0 ** rng.choice(
                [rng.uniform(-310.0, -290.0), rng.uniform(-3.0, 4.0), rng.uniform(295.0, 308.0)]
            )
            node = NodeSpec(i, f"n{i}", "203.0.113.1", cap, payg, pfdt)
            round_nodes.append(node)
            data_gb = rng.choice([largest, largest * rng.random(), 10.0 ** rng.uniform(-12.0, 298.0)])
            for k in (1.0, 0.5, rng.random() or 1.0, 2.0 ** -rng.randrange(1100), 5e-324):
                expected = self.priced(lambda: price(node, k * cap, data_gb, rule)[2:])
                got = self.priced(lambda: price_round((node,), k, data_gb, rule))
                if isinstance(expected, str):
                    seen[next(w for w in ("time", "cost", "bandwidth") if w in expected)] += 1
                else:
                    assert all(map(math.isfinite, expected)), (node, data_gb, k)
                    expected = ([expected[0]], [expected[1]])
                    seen["priced"] += 1
                assert got == expected, (node, data_gb, k)
        # whole rounds: the first node that `price` refuses is the one named
        for k in (1.0, 0.5, 2.0 ** -40):
            for data_gb in (1.0, 1e200, largest):
                expected = self.priced(lambda: [
                    price(node, k * node.max_egress_mbps, data_gb, rule)[2:] for node in round_nodes
                ])
                assert isinstance(expected, str)
                assert self.priced(lambda: price_round(round_nodes, k, data_gb, rule)) == expected
        assert min(seen[kind] for kind in ("time", "cost", "bandwidth")) > 100, seen
        assert seen["priced"] > 1000, seen

    @pytest.mark.parametrize("rule", RULES)
    def test_a_round_is_refused_or_finite_and_non_negative(self, rule):
        # what lets the planner pass a round's lists to the search unchecked: at
        # rates from 0 to 1e300, caps from 1e-300 to 1e300, payloads up to the
        # largest a request takes and k down to the smallest float, a round either
        # raises its ValueError or prices every node finite and >= 0
        rng = random.Random(61)
        largest = sys.float_info.max / BITS_PER_GB

        def rate():
            return rng.choice([None, 0.0, 10.0 ** rng.uniform(-300.0, 300.0)])

        seen = Counter()
        for _ in range(4000):
            nodes = []
            for j in range(rng.randint(1, 3)):
                payg, pfdt = rate(), rate()
                if payg is None and pfdt is None:
                    payg = 0.0
                cap = 10.0 ** rng.uniform(-300.0, 300.0)
                nodes.append(NodeSpec(j, f"n{j}", "203.0.113.1", cap, payg, pfdt))
                nodes[-1].validate()
            data_gb = rng.choice(
                [largest, largest * rng.random() or largest, 10.0 ** rng.uniform(-12.0, 298.0)])
            TransferRequest(0, 1, data_gb, 1.0, 1)  # a payload that a request takes
            k = rng.choice([1.0, 0.5, rng.random() or 1.0, 2.0 ** -rng.randrange(1075),
                            2.0 ** -rng.randrange(1000, 1075)])
            tiny = " at k < 2**-1000" if k < 2.0 ** -1000 else ""
            try:
                costs, seconds = price_round(nodes, k, data_gb, rule)
            except ValueError:
                seen["refused" + tiny] += 1
                continue
            assert len(costs) == len(seconds) == len(nodes), (nodes, data_gb, k)
            assert all(0.0 <= value < math.inf for value in costs + seconds), (nodes, data_gb, k)
            seen["priced" + tiny] += 1
        assert len(seen) == 4 and min(seen.values()) > 20, seen

    def test_a_value_that_is_not_finite_names_the_node(self):
        # the one line for a time or cost that overflows, from `price` and the round;
        # a PAYG time that overflows is refused before it is billed in hours
        largest = sys.float_info.max / BITS_PER_GB
        for node, data_gb, what in (
            (make_node(pfdt=None, cap=1e-300), 1e9, "time"),  # PAYG at 1e-300 Mbps
            (make_node(payg=None, cap=1e-300), 1e9, "time"),  # PFDT at 1e-300 Mbps
            (make_node(payg=None, pfdt=1e300), 1e9, "cost"),  # $1e300/GB for 1e9 GB
            (make_node(payg=1e300, pfdt=None), 1e9, "cost"),  # $1e300/Mbps/h at 100 Mbps
            # at 1e303 Mbps the time is 0.0 s, but one hour at $1e6/Mbps/h is 1e309
            (make_node(payg=1e6, pfdt=None, cap=1e303), largest, "cost"),
        ):
            message = f"node 0 (n0): its {what} to send {data_gb!r} GB is not a finite number"
            for rule in RULES:
                for call in (lambda: price(node, node.max_egress_mbps, data_gb, rule),
                             lambda: price_round([node], 1.0, data_gb, rule)):
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                        call()


class TestTransferRequest:
    TOO_LARGE = (
        "data_size_gb must be at most 2.2471164185778946e+298, so that its size in bits is a "
        "finite number, got "
    )

    @pytest.mark.parametrize("data_gb, budget, message", [
        (math.nan, 1.0, "data_size_gb must be > 0"),
        (math.inf, 1.0, f"^{re.escape(TOO_LARGE)}inf$"),
        (1e300, 1.0, f"^{re.escape(TOO_LARGE)}1e\\+300$"),
        (0.0, 1.0, "data_size_gb must be > 0"),
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

    def test_the_largest_data_size_is_the_largest_whose_bits_are_a_float(self):
        largest = sys.float_info.max / BITS_PER_GB
        assert repr(largest) == "2.2471164185778946e+298"
        assert TransferRequest(0, 1, largest, 1.0, 5).data_size_gb * BITS_PER_GB < math.inf
        above = math.nextafter(largest, math.inf)
        refusal = f"^{re.escape(self.TOO_LARGE)}{re.escape(repr(above))}$"
        with pytest.raises(ValueError, match=refusal):
            TransferRequest(0, 1, above, 1.0, 5)

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
