import gc
import math
import random
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from budgetpath.billing import (
    RULES,
    BillingMethod,
    NodeBillingConfig,
    TransferRequest,
    edge_latency,
    node_cost,
    payg_cost,
    price,
    price_round,
    select_billing,
    transfer_seconds,
)
from budgetpath import planner, simulate
from budgetpath.planner import (
    Plan,
    build_weights,
    cost_floor_distance,
    load_plan,
    plan_from_dict,
    plan_outcome,
    plan_to_dict,
    plan_transfer,
)
from budgetpath.search import (
    EdgeWeights, PathResult, enumerate_best_path, search_core, search_min_latency,
)
from budgetpath.simulate import compare, simulate_transfer
from budgetpath.topology import (
    LinkSpec, NodeSpec, NoPathError, Topology, TopologyError, json_text, load_topology,
)
from helpers import (
    bisection_bracket, cut_off_one_node, extreme_topology, floor_distance, full_rate_floor,
    grid_topology, hour_aligned_fractions, is_connected, plan_outcome_eager, random_topology,
    request_or_refusal, search_pruned_at_pop, sender_configs_at, sparse_topology,
)

TESTBED = Path(__file__).resolve().parent.parent / "fixtures" / "testbed6.json"

K1, K2 = 0.021, 0.081
# the least any k bills node 0 of `make_topology` for 30 GB: PAYG needs
# 0.021 * 30 * 8000 / 3600 bandwidth-hours, and PFDT is above its threshold
FLOOR_30GB = 1.40


def make_topology(n=2, cap=100.0, payg=K1, pfdt=K2, rtt=0.0):
    nodes = tuple(NodeSpec(i, f"n{i}", f"203.0.113.{i+1}", cap, payg, pfdt) for i in range(n))
    links = []
    for i in range(n - 1):
        links += [LinkSpec(i, i + 1, rtt), LinkSpec(i + 1, i, rtt)]
    return Topology(nodes, tuple(links))


# nodes whose pricing takes the less common branches: free PFDT (threshold
# +inf), a single billing method, and an exact-cost tie at k = 1 (2 GB at
# 100 Mbps is one billed hour: PAYG 0.01 * 100 * 1 == PFDT 0.5 * 2.0 == 1.0)
TIE_DATA_GB = 2.0
EDGE_CASE_NODES = (
    NodeSpec(0, "free-pfdt", "203.0.113.1", 100.0, K1, 0.0),
    NodeSpec(1, "payg-only", "203.0.113.2", 50.0, K1, None),
    NodeSpec(2, "pfdt-only", "203.0.113.3", 200.0, None, K2),
    NodeSpec(3, "tie", "203.0.113.4", 100.0, 0.01, 0.5),
)


def edge_case_topology():
    n = len(EDGE_CASE_NODES)
    links = tuple(LinkSpec(u, v, 0.001 * (u + 2 * v + 1)) for u in range(n) for v in range(n) if u != v)
    return Topology(EDGE_CASE_NODES, links)


def planned_instances(rng, rule):
    """(topology, request, plan) of the random instances, n <= 7, that the planner solves."""
    for _ in range(100):
        topo = random_topology(rng)
        n = len(topo)
        request = request_or_refusal(
            rng.randrange(n), rng.randrange(n),
            rng.uniform(0.1, 40.0), rng.uniform(0.0, 3.0), rng.randint(1, 8))
        if request is None:
            continue
        plan = plan_transfer(topo, request, rule)
        if plan is not None:
            yield topo, request, plan


def drawn_requests(rng, rule, count):
    """(topology, request) of `count` seeded draws, budgets from under the floor to inf.

    Two in three topologies are `random_topology` ones of 2 to 9 nodes, the
    others grids; every request runs at most 30 rounds.
    """
    for i in range(count):
        if i % 3:
            topo = random_topology(rng, 2, 9)
        else:
            width, height = rng.choice([(2, 3), (3, 3), (4, 4)])
            topo = grid_topology(rng, width, height, [0.01, 0.02, 0.05])
        source, destination = rng.sample(range(len(topo)), 2)
        data_gb = rng.choice([rng.uniform(0.01, 1.0), rng.uniform(1.0, 60.0)])
        floor = floor_distance(topo, source, destination, data_gb, rule)
        scale = rng.choice(
            [0.5, 1 - 1e-12, 1.0, rng.uniform(1.0, 1.2), rng.uniform(1.2, 2.0), rng.uniform(2.0, 4.0),
             None])
        budget = math.inf if scale is None else floor * scale
        yield topo, TransferRequest(source, destination, data_gb, budget, 30)


class TestBuildWeights:
    def test_small_data_all_pfdt(self):
        topo = make_topology(3, rtt=0.040)
        request = TransferRequest(0, 2, 1.0, 10.0, 5)
        weights = build_weights(topo, request, 1.0)
        for node in topo.nodes:
            assert select_billing(node, 100.0, 1.0).method is BillingMethod.PFDT
        e = weights.edges.index(0, 1)
        assert weights.a[0] == pytest.approx(0.081)
        assert weights.edges.delay[e] + weights.b[0] == pytest.approx(0.020 + 80.0)

    def test_large_data_all_payg(self):
        topo = make_topology(2)
        request = TransferRequest(0, 1, 30.0, 10.0, 5)
        weights = build_weights(topo, request, 1.0)
        assert select_billing(topo.node(0), 100.0, 30.0).method is BillingMethod.PAYG
        # 30 GB at 100 Mbps = 2400 s -> 1 billed hour
        assert weights.a[0] == pytest.approx(0.021 * 100 * 1)

    def test_half_fraction_hour_ceiling_interaction(self):
        topo = make_topology(2)
        request = TransferRequest(0, 1, 30.0, 10.0, 5)
        weights = build_weights(topo, request, 0.5)
        assert price(topo.node(0), 50.0, 30.0, "threshold")[:2] == (BillingMethod.PAYG, 50.0)
        # 30 GB at 50 Mbps = 4800 s -> 2 billed hours, cost back to 2.10
        assert weights.a[0] == pytest.approx(0.021 * 50 * 2)

    @pytest.mark.parametrize("rule", ["threshold", "exact-cost"])
    def test_every_edge_equals_per_link_billing(self, rule):
        # a node's cost, and its time plus an edge's delay, must be bit-identical
        # to pricing each link on its own
        rng = random.Random(23)
        cases = [
            (random_topology(rng), rng.uniform(0.1, 40.0)) for _ in range(40)
        ] + [(edge_case_topology(), data_gb) for data_gb in (0.001, TIE_DATA_GB, 30.0)]
        for topo, data_gb in cases:
            request = TransferRequest(0, len(topo) - 1, data_gb, 1.0, 5)
            for k in (1.0, 0.5, 0.3, 2.0 ** -7, 2.0 ** -30):
                weights = build_weights(topo, request, k, rule)
                assert len(weights.a) == len(weights.b) == len(topo)
                configs = [
                    select_billing(node, k * node.max_egress_mbps, data_gb, rule)
                    for node in topo.nodes
                ]
                for node, config in zip(topo.nodes, configs, strict=True):
                    assert (weights.a[node.id], weights.b[node.id]) == (
                        node_cost(node, config, data_gb),
                        transfer_seconds(data_gb, config.bandwidth_mbps),
                    )
                for link in topo.links:
                    e = weights.edges.index(link.src, link.dst)
                    config = configs[link.src]
                    assert weights.a[link.src] == node_cost(topo.node(link.src), config, data_gb)
                    assert weights.edges.delay[e] + weights.b[link.src] == edge_latency(
                        link.rtt_s, data_gb, config.bandwidth_mbps
                    )

    @pytest.mark.parametrize("rule", ["threshold", "exact-cost"])
    def test_edge_case_nodes_pick_the_expected_method(self, rule):
        topo = edge_case_topology()
        for data_gb in (0.001, TIE_DATA_GB, 30.0):
            request = TransferRequest(0, 1, data_gb, 1.0, 5)
            for k in (1.0, 2.0 ** -30):
                weights = build_weights(topo, request, k, rule)
                prices = [
                    price(node, k * node.max_egress_mbps, data_gb, rule) for node in topo.nodes
                ]
                assert [p[2:] for p in prices] == list(zip(weights.a, weights.b))
                free_pfdt, payg_only, pfdt_only, _ = prices
                assert free_pfdt[:3] == (BillingMethod.PFDT, 100.0, 0.0)
                assert payg_only[:2] == (BillingMethod.PAYG, k * 50.0)
                assert pfdt_only[:2] == (BillingMethod.PFDT, 200.0)
        # at the tie exact-cost picks PFDT; the threshold rule's strict D < D* picks PAYG
        weights = build_weights(topo, TransferRequest(0, 1, TIE_DATA_GB, 1.0, 5), 1.0, rule)
        method, bandwidth, cost, _ = price(topo.node(3), 100.0, TIE_DATA_GB, rule)
        assert cost == weights.a[3] == 1.0 and bandwidth == 100.0
        expected = BillingMethod.PFDT if rule == "exact-cost" else BillingMethod.PAYG
        assert method is expected

    def test_one_round_is_one_pass_without_price(self, monkeypatch):
        # `build_weights` prices a round with `billing.price_round` in one pass
        # over the nodes, without `price`
        def no_price(*args):
            raise AssertionError("a round called price")

        monkeypatch.setattr(planner, "price", no_price)
        topo = random_topology(random.Random(31), 5, 7)
        weights = build_weights(topo, TransferRequest(0, 1, 30.0, 1.0, 5), 0.5)
        assert len(weights.a) == len(weights.b) == len(topo) < len(topo.links)
        assert weights.edges is topo.edges

    def test_rejects_unknown_rule(self):
        topo = make_topology(2)
        request = TransferRequest(0, 1, 1.0, 1.0, 5)
        with pytest.raises(ValueError, match="unknown billing rule"):
            build_weights(topo, request, 1.0, "cheapest")

    def test_rejects_bad_fraction(self):
        topo = make_topology(2)
        request = TransferRequest(0, 1, 1.0, 1.0, 5)
        for k in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                build_weights(topo, request, k)

    # PFDT at $1e300/GB and PAYG at $1e300/Mbps/h bill 1e9 GB above the largest
    # float, and at 1e-300 Mbps, PFDT or PAYG, 1e9 GB takes more seconds than a
    # float holds
    @pytest.mark.parametrize("rates, cap, message", [
        ((None, 1e300), 100.0, "node 1 (dear): its cost to send 1000000000.0 GB"),
        ((1e300, None), 100.0, "node 1 (dear): its cost to send 1000000000.0 GB"),
        ((None, 0.0), 1e-300, "node 1 (dear): its time to send 1000000000.0 GB"),
        ((K1, None), 1e-300, "node 1 (dear): its time to send 1000000000.0 GB"),
    ])
    def test_a_value_that_is_not_finite_names_the_first_such_node(self, rates, cap, message):
        nodes = (NodeSpec(0, "first", "203.0.113.1", 100.0, None, K2),
                 *(NodeSpec(i, "dear", f"203.0.113.{i + 1}", cap, *rates) for i in (1, 2)))
        topo = Topology(nodes, (LinkSpec(0, 1, 0.01), LinkSpec(1, 2, 0.01)))
        request = TransferRequest(0, 2, 1e9, math.inf, 5)
        refusal = f"^{re.escape(message)} is not a finite number$"
        for k in (1.0, 0.5):
            with pytest.raises(ValueError, match=refusal):
                build_weights(topo, request, k)
        with pytest.raises(ValueError, match=refusal):
            plan_transfer(topo, request)


class TestPlanTransfer:
    def test_fast_path_at_full_bandwidth(self):
        topo = make_topology(2)
        plan = plan_transfer(topo, TransferRequest(0, 1, 1.0, 1.0, 10))
        assert plan.path == (0, 1)
        assert plan.fraction_k == 1.0
        assert plan.iterations_used == 0
        assert plan.predicted_cost_usd == pytest.approx(0.081)

    def test_zero_budget_is_proved_insufficient_after_one_round(self):
        topo = make_topology(2)
        outcome = plan_outcome(topo, TransferRequest(0, 1, 1.0, 0.0, 10))
        floor = full_rate_floor(topo.node(0), 1.0, "threshold")
        assert outcome == planner.PlanOutcome(None, floor, True, ((1.0, None),))

    def test_budget_at_the_floor_exhausts_iterations(self):
        # the floor is only billed at a k that fills whole hours, 1 / (45 h) here,
        # and no binary-search k is one: every round runs and none is feasible
        topo = make_topology(2)
        floor = full_rate_floor(topo.node(0), 1.0, "threshold")
        outcome = plan_outcome(topo, TransferRequest(0, 1, 1.0, floor, 10))
        rounds = outcome.rounds
        assert (outcome.plan, outcome.floor, outcome.proved) == (None, floor, False)
        assert rounds[0] == (1.0, None)
        assert len(rounds[1:]) == 10
        assert not any(isinstance(outcome, PathResult) for _, outcome in rounds)
        bisection_bracket(rounds[1:])

    def test_source_equals_destination_is_refused(self):
        # no path joins a node to itself, so no such request reaches the planner
        with pytest.raises(ValueError, match=r"^source and destination are the same node \(0\)$"):
            plan_transfer(make_topology(2), TransferRequest(0, 0, 1.0, 0.0, 5))

    def test_destination_and_off_path_unbilled(self):
        topo = make_topology(4)
        plan = plan_transfer(topo, TransferRequest(0, 2, 1.0, 5.0, 5))
        assert plan.path == (0, 1, 2)
        assert set(plan.configs) == set(plan.path[:-1])

    @pytest.mark.parametrize("budget", [1.20, FLOOR_30GB, 1.50, 1.60, 1.90, 2.05])
    def test_binary_search_replay(self, budget):
        # 2-node link, 30 GB, budget below the full-bandwidth PAYG cost of
        # $2.10: replay the bracket loop against the cost formula directly.
        # PAYG cost here never drops under the $1.40 floor, so a budget below
        # it is proved insufficient after k = 1, and a budget at it runs every
        # iteration without a feasible one (the floor needs k = 2 / (3 h)).
        topo = make_topology(2)
        request = TransferRequest(0, 1, 30.0, budget, 12)
        outcome = plan_outcome(topo, request)
        plan, rounds = outcome.plan, outcome.rounds
        assert outcome.proved == (budget < FLOOR_30GB)
        if budget < FLOOR_30GB:
            assert rounds == ((1.0, None),) and plan is None
            return

        def cost_at(k):
            bw = k * 100.0
            thresh = K1 * bw / K2
            if 30.0 < thresh:
                return K2 * 30.0
            return payg_cost(K1, bw, 30.0)

        assert cost_at(1.0) == pytest.approx(2.10)  # step 1 must fail
        k, lo, hi = 0.5, 0.0, 1.0
        expected_k = None
        expected_rounds = []
        for _ in range(12):
            expected_rounds.append((k, cost_at(k) <= budget))
            if cost_at(k) <= budget:
                expected_k = k
                lo = k
                k = (k + hi) / 2
            else:
                hi = k
                k = (k + lo) / 2
        assert rounds[0] == (1.0, None)
        assert [(k, isinstance(outcome, PathResult)) for k, outcome in rounds[1:]] == expected_rounds
        if expected_k is None:
            assert plan is None
        else:
            assert plan is not None
            assert plan.fraction_k == expected_k
            assert plan.predicted_cost_usd == pytest.approx(cost_at(expected_k))
            assert plan.predicted_cost_usd <= budget
            assert plan.iterations_used == 12
        assert bisection_bracket(rounds[1:]) == (lo, hi)

    def test_bracket_contraction(self):
        topo = make_topology(2)
        rounds = plan_outcome(topo, TransferRequest(0, 1, 30.0, FLOOR_30GB, 12)).rounds
        assert len(rounds[1:]) == 12
        k_lower, k_upper = bisection_bracket(rounds[1:])
        assert k_upper - k_lower <= 2.0 ** -12 + 1e-15

    @pytest.mark.parametrize("budget", ["under-floor", "floor", 1.0, 1.5])
    def test_search_stops_once_k_is_unchanged(self, budget):
        # a round that leaves k unchanged would be repeated by every later
        # one, so an iteration cap of 10**7 costs no more rounds than the
        # bisection takes to reach that point. A budget a hair under the
        # cheapest path's floor, inside the certificate's margin, is not
        # proved insufficient and meets no round's cost, so the bisection
        # runs all the way down to the smallest k. At the floor itself a k
        # near 1e-16 bills whole hours to within rounding and is feasible.
        topo = load_topology(TESTBED)
        under_floor = budget == "under-floor"
        if budget in ("under-floor", "floor"):
            budget = floor_distance(topo, 0, 5, 10.0, "threshold") * (1 - 1e-12 * under_floor)
        outcome = plan_outcome(topo, TransferRequest(0, 5, 10.0, budget, 10**7))
        plan, rounds = outcome.plan, outcome.rounds
        assert not outcome.proved
        assert rounds[0][0] == 1.0 and not isinstance(rounds[0][1], PathResult)
        assert len(rounds) <= 1100
        assert len(rounds) > 1000 or not under_floor
        bisection_bracket(rounds[1:])
        reference = plan_transfer(topo, TransferRequest(0, 5, 10.0, budget, 1100))
        assert (reference is None) == under_floor
        if reference is None:
            assert plan is None
        else:
            assert plan.iterations_used == 10**7
            assert reference.iterations_used == 1100
            for field in Plan._fields:
                if field != "iterations_used":
                    assert getattr(plan, field) == getattr(reference, field), field

    @pytest.mark.parametrize("budget", [0.0, 0.04, 100.0, math.inf])
    def test_unreachable_destination_stops_after_one_round(self, monkeypatch, budget):
        # node 2 has no link: no budget reaches it, so no binary search starts.
        # Budgets 0 and 0.04 are below the $0.0467 floor, but no path at all is
        # the answer that holds at any budget. The one floor-distance search
        # that finds it works out the floor of each node the source reaches,
        # once, and of no other node. That search follows only a k = 1 round
        # that missed the budget, and its NoPathError ends the request, so the
        # floors it worked out show that the k = 1 round was the only one.
        floors = []
        cost_floor = planner.cost_floor

        def counting_cost_floor(node, *args):
            floors.append(node.id)
            return cost_floor(node, *args)

        monkeypatch.setattr(planner, "cost_floor", counting_cost_floor)
        topo = Topology(make_topology(3).nodes, make_topology(2).links)
        request = TransferRequest(0, 2, 1.0, budget, 30)
        with pytest.raises(NoPathError, match=r"^no path from 0 to 2$"):
            plan_outcome(topo, request)
        assert floors == [0, 1]
        floors.clear()

        def no_baseline(*args):
            raise AssertionError("compare ran the naive baseline")

        # compare stops at the planner's first round, before the naive baseline
        monkeypatch.setattr(simulate, "naive_baseline", no_baseline)
        with pytest.raises(NoPathError, match=r"^no path from 0 to 2$"):
            compare(topo, request)
        assert floors == [0, 1]

    # brackets as the planner found them before it told an unreachable
    # destination from an insufficient budget; a budget at the floor keeps
    # every round, where one below it is proved insufficient after k = 1
    @pytest.mark.parametrize("budget, bracket", [
        (FLOOR_30GB, (0.0, 0.000244140625)),
        (1.50, (0.089111328125, 0.08935546875)),
        (1.90, (0.4521484375, 0.452392578125)),
    ])
    def test_over_budget_reachable_request_keeps_its_rounds(self, budget, bracket):
        # k = 1 is over budget, so 12 binary-search rounds follow it, the same
        # whether or not the graph also has a node that nothing reaches (node 2)
        plans = []
        for topo in (make_topology(2), Topology(make_topology(3).nodes, make_topology(2).links)):
            outcome = plan_outcome(topo, TransferRequest(0, 1, 30.0, budget, 12))
            plans.append(outcome.plan)
            rounds = outcome.rounds
            assert rounds[0] == (1.0, None) and len(rounds) == 13
            assert bisection_bracket(rounds[1:]) == bracket
        assert plans[0] == plans[1] and (plans[0] is None) == (budget == FLOOR_30GB)

    @pytest.mark.parametrize("rule", RULES)
    def test_a_plan_is_finalized_once_at_the_last_feasible_round(self, monkeypatch, rule):
        # one `_finalize` per returned plan and none for None, at the k and with
        # the path of the last feasible round; the plan is the one its k builds
        finalized = []
        finalize = planner._finalize

        def counting_finalize(*args):
            finalized.append(args)
            return finalize(*args)

        monkeypatch.setattr(planner, "_finalize", counting_finalize)
        rng = random.Random(17)
        testbed = load_topology(TESTBED)
        cases = [(testbed, TransferRequest(0, 5, 10.0, floor_distance(
            testbed, 0, 5, 10.0, rule), 10**7))]
        cases += [
            (topo, TransferRequest(0, 1, 30.0, budget, 12))
            for topo in (make_topology(2), Topology(make_topology(3).nodes, make_topology(2).links))
            for budget in (FLOOR_30GB, 1.50, 1.90)
        ]
        for _ in range(300):
            topo = random_topology(rng)
            n = len(topo)
            request = request_or_refusal(rng.randrange(n), rng.randrange(n),
                                         rng.uniform(0.1, 40.0), rng.uniform(0.0, 3.0),
                                         rng.randint(1, 8))
            if request is not None and is_connected(
                    topo.edges, request.source, request.destination):
                cases.append((topo, request))
        outcomes = Counter()
        for topo, request in cases:
            finalized.clear()
            outcome = plan_outcome(topo, request, rule)
            plan, rounds = outcome.plan, outcome.rounds
            if plan is None:
                assert finalized == []
                outcomes["none"] += 1
                continue
            assert len(finalized) == 1
            k, result = [(k, r) for k, r in rounds if isinstance(r, PathResult)][-1]
            assert (plan.fraction_k, plan.path) == (k, result.path)
            weights = build_weights(topo, request, k, rule)
            at_k = search_min_latency(weights, request.source, request.destination,
                                      request.budget_usd)
            configs = sender_configs_at(topo, at_k.path, k, request.data_size_gb, rule)
            iterations = 0 if k == 1.0 else request.max_iterations
            assert plan == Plan(at_k.path, configs, at_k.total_a, at_k.total_b, k, iterations)
            outcomes["k1" if k == 1.0 else "shrunk"] += 1
        assert min(outcomes.values()) > 5, outcomes

    @pytest.mark.parametrize("rule", RULES)
    def test_the_outcome_says_why_a_request_ended(self, rule):
        # the floor is worked out only after a k = 1 round that missed, and it
        # proves a None only when no round follows it; the plan is
        # `plan_transfer`'s and the path of the last feasible round
        outcomes = Counter()
        for topo, request in drawn_requests(random.Random(47), rule, 300):
            outcome = plan_outcome(topo, request, rule)
            plan, rounds = outcome.plan, outcome.rounds
            assert plan_transfer(topo, request, rule) == plan
            assert rounds[0][0] == 1.0 and (outcome.floor is None) == (rounds[0][1] is not None)
            if outcome.floor is not None:
                expected = floor_distance(topo, request.source, request.destination,
                                          request.data_size_gb, rule)
                assert outcome.floor == expected
                assert outcome.proved == (expected > request.budget_usd * (1 + 1e-9))
            if outcome.proved:
                assert plan is None and len(rounds) == 1
                outcomes["proved"] += 1
                continue
            bisection_bracket(rounds[1:])
            feasible = [(k, r.path) for k, r in rounds if r is not None]
            if plan is None:
                assert feasible == []
                outcomes["unproved"] += 1
            else:
                assert (plan.fraction_k, plan.path) == feasible[-1]
                outcomes["k1" if len(rounds) == 1 else "bsearch"] += 1
        assert min(outcomes[name] for name in ("proved", "unproved", "k1", "bsearch")) >= 20, (
            outcomes)

    @pytest.mark.parametrize("rule", RULES)
    def test_same_plans_as_a_search_that_prunes_at_pop(self, monkeypatch, rule):
        cases = list(drawn_requests(random.Random(41), rule, 300))
        plans = [plan_transfer(topo, request, rule) for topo, request in cases]
        searches = []

        def counting_search(*args):
            searches.append(args)
            return search_pruned_at_pop(*args)

        monkeypatch.setattr(planner, "search_core", counting_search)
        for (topo, request), plan in zip(cases, plans, strict=True):
            searches.clear()
            assert plan_transfer(topo, request, rule) == plan
            # the stand-in ran in every request, for its k = 1 round at least
            assert searches, (topo, request)
        outcomes = Counter(
            "none" if plan is None else "k1" if plan.iterations_used == 0 else "bsearch"
            for plan in plans
        )
        assert min(outcomes["none"], outcomes["k1"], outcomes["bsearch"]) >= 30, outcomes

    @pytest.mark.parametrize("rule", RULES)
    def test_a_request_builds_no_edge_weights(self, monkeypatch, rule):
        # a round passes its two lists straight to the search core:
        # only weights that a caller builds go through `EdgeWeights`' check
        def no_weights(*args):
            raise AssertionError("plan_transfer built an EdgeWeights")

        monkeypatch.setattr(EdgeWeights, "__init__", no_weights)
        outcomes = Counter()
        for topo, request in drawn_requests(random.Random(67), rule, 200):
            plan = plan_transfer(topo, request, rule)
            outcome = "none" if plan is None else "k1" if plan.iterations_used == 0 else "bsearch"
            outcomes[outcome] += 1
        assert min(outcomes["none"], outcomes["k1"], outcomes["bsearch"]) >= 20, outcomes

    def test_a_request_is_checked_once_in_order(self, monkeypatch):
        # an unknown rule first, then a node that cannot be priced at k = 1, then
        # an endpoint that is not a node id, as `build_weights` and
        # `search_min_latency` would refuse them; and once per request, not per round
        nodes = (make_topology(2).nodes[0], NodeSpec(1, "dear", "203.0.113.2", 100.0, None, 1e300))
        dear = Topology(nodes, make_topology(2).links)
        request = TransferRequest(0, 9, 1e9, 1.0, 5)
        with pytest.raises(ValueError, match="^unknown billing rule 'cheapest'$"):
            plan_transfer(dear, request, "cheapest")
        with pytest.raises(ValueError, match=r"^node 1 \(dear\): its cost to send 1000000000.0 GB"):
            plan_transfer(dear, request)
        with pytest.raises(TopologyError, match="^destination 9 is not a valid node id$"):
            plan_transfer(make_topology(2), request)

        checks = Counter()
        for name in ("check_rule", "check_node_ids"):
            def counting(*args, name=name, check=getattr(planner, name), **kwargs):
                checks[name] += 1
                return check(*args, **kwargs)

            monkeypatch.setattr(planner, name, counting)
        # 13 rounds; then one proved insufficient by the floors after its k = 1 round
        for budget, count in ((1.50, 13), (1.0, 1)):
            checks.clear()
            outcome = plan_outcome(make_topology(2), TransferRequest(0, 1, 30.0, budget, 12))
            assert len(outcome.rounds) == count
            assert checks == {"check_rule": 1, "check_node_ids": 1}

    def test_invalid_endpoints(self):
        topo = make_topology(2)
        with pytest.raises(TopologyError, match="^destination 9 is not a valid node id$"):
            plan_transfer(topo, TransferRequest(0, 9, 1.0, 1.0, 5))
        with pytest.raises(TopologyError, match="^source -1 is not a valid node id$"):
            plan_transfer(topo, TransferRequest(-1, 1, 1.0, 1.0, 5))

    @pytest.mark.parametrize("rule", RULES)
    def test_budget_safety_random_instances(self, rule):
        planned = 0
        for topo, request, plan in planned_instances(random.Random(5), rule):
            planned += 1
            latency, cost = simulate_transfer(topo, plan.path, plan.configs, request.data_size_gb)
            assert cost <= request.budget_usd
            assert cost == plan.predicted_cost_usd
            assert latency == plan.predicted_latency_s
        assert planned > 20

    @pytest.mark.parametrize("rule", RULES)
    def test_configs_are_the_senders_priced_at_the_plans_k(self, rule):
        # a plan's configs are `price`'s method and bandwidth at the plan's own
        # k for exactly its senders, in path order: no destination, no off-path node
        rng = random.Random(13)
        at_full_rate = shrunk = 0
        for i in range(400):
            if i % 3:
                topo = random_topology(rng, 2, 9)
            else:
                topo = grid_topology(rng, rng.randint(2, 4), rng.randint(2, 4), [0.01, 0.02, 0.05])
            n = len(topo)
            request = request_or_refusal(rng.randrange(n), rng.randrange(n), rng.uniform(0.1, 40.0),
                                         rng.uniform(0.0, 3.0), rng.randint(1, 8))
            if request is None or not is_connected(topo.edges, request.source, request.destination):
                continue
            plan = plan_transfer(topo, request, rule)
            if plan is None:
                continue
            k, data_gb = plan.fraction_k, request.data_size_gb
            expected = {
                u: NodeBillingConfig(
                    *price(topo.node(u), k * topo.node(u).max_egress_mbps, data_gb, rule)[:2]
                )
                for u in plan.path[:-1]
            }
            assert list(plan.configs.items()) == list(expected.items()), (i, plan)
            at_full_rate += k == 1.0
            shrunk += k < 1.0
        assert at_full_rate > 90 and shrunk > 30, (at_full_rate, shrunk)

    @pytest.mark.parametrize("rule", RULES)
    def test_oracle_totals_match_an_independent_repricing(self, rule):
        # the oracle's own sums, which `simulate.compare` reports, against
        # `simulate_transfer`'s pricing of the same path at the plan's k
        checked = 0
        for topo, request, plan in planned_instances(random.Random(11), rule):
            weights = build_weights(topo, request, plan.fraction_k, rule)
            best = enumerate_best_path(
                weights, request.source, request.destination, request.budget_usd)
            assert best is not None  # the plan's own path is within the budget
            checked += 1
            configs = sender_configs_at(
                topo, best.path, plan.fraction_k, request.data_size_gb, rule)
            assert simulate_transfer(topo, best.path, configs, request.data_size_gb) == (
                best.total_b, best.total_a)
        assert checked > 20

    def test_latency_increases_with_data_on_pfdt_only_path(self):
        topo = make_topology(3, payg=None)
        latencies = []
        for d in (1.0, 2.0, 4.0):
            plan = plan_transfer(topo, TransferRequest(0, 2, d, 100.0, 5))
            assert plan.path == (0, 1, 2)
            latencies.append(plan.predicted_latency_s)
        assert latencies == sorted(latencies)
        assert latencies[0] < latencies[1] < latencies[2]


class ReadCounter:
    """A sequence that counts how often it is indexed."""

    def __init__(self, values):
        self.values, self.reads = values, 0

    def __getitem__(self, i):
        self.reads += 1
        return self.values[i]


def sparse_bisection_requests(rng, graphs=3, per_graph=8):
    """(topology, request) pairs on degree-8 graphs of 200 nodes, with budgets
    between the floor distance and twice it, so most requests bisect."""
    for _ in range(graphs):
        topo = sparse_topology(rng, 200, 8.0)
        full_rate_costs = {
            data_gb: price_round(topo.nodes, 1.0, data_gb, "threshold")[0]
            for data_gb in (3.0, 6.0, 10.0)
        }
        for _ in range(per_graph):
            source, destination = rng.sample(range(200), 2)
            data_gb = rng.choice([3.0, 6.0, 10.0])
            floor = cost_floor_distance(
                topo, TransferRequest(source, destination, data_gb, 0.0, 30),
                full_rate_costs[data_gb])
            yield topo, TransferRequest(
                source, destination, data_gb, floor * rng.uniform(1.0, 2.0), 30)


class TestLazyRounds:
    """A bisection round prices a node when its search first reads the node's
    cost, and answers as if it had priced every node first."""

    @pytest.mark.parametrize("rule", RULES)
    def test_same_outcomes_as_rounds_priced_in_full(self, monkeypatch, rule):
        # caps from 1e-300 to 1e300, rates up to 1e300, payloads up to the largest
        # a request takes and up to 1100 rounds: the whole outcome, each round's
        # k and result included, or the refusal's message, is the eager planner's.
        # Some payloads are what a node with no link can send in 1 to 256 times
        # the longest time a float holds, so rounds that find a path refuse it
        seen, confirms_refused = Counter(), Counter()
        refuses_no_node, price_round = planner.refuses_no_node, planner.price_round

        def counting_guard(*args):
            proved = refuses_no_node(*args)
            seen[f"guard {proved}"] += 1
            return proved

        def counting_confirm(nodes, k, data_gb, rule):
            # the k = 1 round and each bisection round's source are priced too
            if k == 1.0 or nodes is not topo.nodes:
                return price_round(nodes, k, data_gb, rule)
            try:
                priced = price_round(nodes, k, data_gb, rule)
            except ValueError:
                seen["confirm refused"] += 1
                confirms_refused[request] += 1
                raise
            seen["confirm priced"] += 1
            return priced

        monkeypatch.setattr(planner, "refuses_no_node", counting_guard)
        monkeypatch.setattr(planner, "price_round", counting_confirm)
        rng = random.Random(71)
        largest = sys.float_info.max / 8e9
        for _ in range(400):
            topo = extreme_topology(rng)
            linked = len(topo) - (topo.nodes[-1].name == "island")
            source, destination = rng.sample(range(linked), 2)
            unlinked = sys.float_info.max / 8e9 * topo.nodes[-1].max_egress_mbps * 1e6
            data_gb = rng.choice([10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0),
                                  10.0 ** rng.uniform(-12.0, 298.0), largest,
                                  min(largest, unlinked * 2.0 ** -rng.uniform(0.0, 8.0))])
            try:
                floor = floor_distance(topo, source, destination, data_gb, rule)
            except ValueError:  # a node that k = 1 cannot price: the planner refuses it too
                floor = rng.uniform(0.0, 10.0)
            budget = rng.choice([floor * rng.uniform(1.0, 1.5), floor, floor * (1 + 1e-12),
                                 rng.uniform(0.0, 100.0)])
            request = TransferRequest(source, destination, data_gb, min(budget, 1e300),
                                      rng.choice([rng.randint(1, 60), rng.randint(1, 1100), 1100]))

            def outcome(plan):
                try:
                    return plan(topo, request, rule)
                except ValueError as exc:
                    return type(exc), str(exc)

            lazy = outcome(plan_outcome)
            assert lazy == outcome(plan_outcome_eager), (topo, request)
            seen["refused" if isinstance(lazy, tuple) else f"{len(lazy.rounds) > 1} bisection"] += 1
        assert len(seen) == 7 and min(seen.values()) >= 20, seen
        assert len(confirms_refused) >= 3, confirms_refused

    @pytest.mark.parametrize("rule", RULES)
    def test_same_outcomes_where_bills_underflow(self, monkeypatch, rule):
        # payloads of 1e-30 to 1e-6 GB, budgets just above the floor and 1100
        # rounds: k falls to where k * cap is subnormal and a node can bill PAYG
        # far below its floor, so `floors_hold` turns the floor test off there.
        # The whole outcome is the eager planner's, whose rounds read no floor
        seen = Counter()
        floors_hold = planner.floors_hold

        def counting_guard(*args):
            held = floors_hold(*args)
            seen[f"guard {held}"] += 1
            return held

        def counting_search(edges, a, b, source, destination, cost_cap, pricing=None):
            if pricing is None:
                return search_core(edges, a, b, source, destination, cost_cap)
            floors = ReadCounter(pricing[4])
            result = search_core(
                edges, a, b, source, destination, cost_cap, (*pricing[:4], floors, pricing[5]))
            # a floor read drops the label or prices the node, which may refuse
            # and end the search once: what no entry was priced for was dropped
            priced = sum(value is not None for value in a) - 1  # the source's came first
            seen["floor drops"] += max(0, floors.reads - priced - (result is None))
            return result

        monkeypatch.setattr(planner, "floors_hold", counting_guard)
        monkeypatch.setattr(planner, "search_core", counting_search)
        rng = random.Random(79)
        for _ in range(500):
            topo = extreme_topology(rng)
            linked = len(topo) - (topo.nodes[-1].name == "island")
            source, destination = rng.sample(range(linked), 2)
            data_gb = 10.0 ** rng.uniform(-30.0, -6.0)
            try:
                floor = floor_distance(topo, source, destination, data_gb, rule)
            except ValueError:  # a node that k = 1 cannot price: the planner refuses it too
                floor = rng.uniform(0.0, 10.0)
            request = TransferRequest(source, destination, data_gb, floor * (1 + 1e-12), 1100)

            def outcome(plan):
                try:
                    return plan(topo, request, rule)
                except ValueError as exc:
                    return type(exc), str(exc)

            lazy = outcome(plan_outcome)
            assert lazy == outcome(plan_outcome_eager), (topo, request)
            seen["refused" if isinstance(lazy, tuple) else f"{lazy.plan is not None} plan"] += 1
        assert min(seen["guard True"], seen["guard False"]) >= 1000, seen
        assert seen["floor drops"] >= 1000, seen
        assert min(seen["True plan"], seen["False plan"]) >= 50, seen

    def test_bisection_rounds_price_under_0_25_of_node_rounds(self, monkeypatch):
        # the work a lazy round saves, counted, not timed: over degree-8 graphs
        # of 200 nodes and budgets between the floor and twice it, the bisection
        # rounds price under 0.25 of their node-rounds, since a label whose cost
        # plus its node's floor is over the cap is dropped before the node is
        # priced (0.43 when every reached node was priced)
        priced = node_rounds = 0

        def counting_search(edges, a, b, source, destination, cost_cap, pricing=None):
            nonlocal priced, node_rounds
            result = search_core(edges, a, b, source, destination, cost_cap, pricing)
            if pricing is not None:
                priced += sum(value is not None for value in a)
                node_rounds += len(a)
            return result

        monkeypatch.setattr(planner, "search_core", counting_search)
        for topo, request in sparse_bisection_requests(random.Random(73)):
            plan_outcome(topo, request)
        assert node_rounds >= 200 * 30 * 12, node_rounds
        assert priced < 0.25 * node_rounds, priced / node_rounds

    def test_a_round_swallows_only_pricing_refusals(self, monkeypatch):
        # the core refuses a node by returning None and raises nothing, so an
        # error inside a bisection round's search is not read as a round that
        # found no path: it ends the request
        def failing_search(edges, a, b, source, destination, cost_cap, pricing=None):
            if pricing is not None:
                raise ValueError("not a pricing refusal")
            return search_core(edges, a, b, source, destination, cost_cap)

        monkeypatch.setattr(planner, "search_core", failing_search)
        request = TransferRequest(0, 5, 10.0, 1.2, 30)  # a $1.2 budget bisects on testbed6
        with pytest.raises(ValueError, match="^not a pricing refusal$"):
            plan_outcome(load_topology(TESTBED), request)

    def test_a_request_works_each_cost_floor_out_once(self, monkeypatch):
        # the floor search works out the floor of each node it pops, and the
        # bisection's floor list reuses those and works out only the others:
        # one `cost_floor` call per node and request at most (two for each
        # node the floor search popped, when the list worked out every floor)
        calls = Counter()
        cost_floor = planner.cost_floor

        def counting_cost_floor(node, *args):
            calls[node.id] += 1
            return cost_floor(node, *args)

        monkeypatch.setattr(planner, "cost_floor", counting_cost_floor)
        bisections = 0
        for topo, request in sparse_bisection_requests(random.Random(89)):
            calls.clear()
            outcome = plan_outcome(topo, request)
            assert max(calls.values(), default=0) <= 1, (request, calls.most_common(3))
            if len(outcome.rounds) > 1:
                # the bisection read a floor for every node
                assert len(calls) == len(topo), request
                bisections += 1
        assert bisections >= 20, bisections

    def test_a_request_lists_each_nodes_out_edges_once(self, monkeypatch):
        # every bisection round of a request gets the same per-request list; a
        # node's entry is its CSR row as (successor, delay) pairs, listed by the
        # first round that expands the node and walked, not listed again, by
        # every later round. A search that runs once gets no list
        rounds = []

        def recording_search(edges, a, b, source, destination, cost_cap, pricing=None):
            result = search_core(edges, a, b, source, destination, cost_cap, pricing)
            rounds.append(None if pricing is None else (pricing[5], list(pricing[5])))
            return result

        monkeypatch.setattr(planner, "search_core", recording_search)
        reused = listed = 0
        for topo, request in sparse_bisection_requests(random.Random(97)):
            rounds.clear()
            plan_outcome(topo, request)
            assert rounds[0] is None  # the k = 1 round
            if len(rounds) == 1:
                continue
            offsets, dst, delay = topo.edges.offsets, topo.edges.dst, topo.edges.delay
            out_edges = rounds[1][0]
            assert len(out_edges) == len(topo)
            before = [None] * len(topo)
            for shared, entries in rounds[1:]:
                assert shared is out_edges
                for node, (old, new) in enumerate(zip(before, entries)):
                    if old is not None:
                        assert new is old, (request, node)  # not listed again
                        reused += 1
                    elif new is not None:
                        lo, hi = offsets[node], offsets[node + 1]
                        assert type(new) is list, type(new)
                        assert new == list(zip(dst[lo:hi], delay[lo:hi])), (request, node)
                        listed += 1
                before = entries
        assert listed >= 500 and reused >= 10 * listed, (listed, reused)

    def test_requests_leave_no_memory_behind(self):
        # the out-edge lists live only as long as their request. A full
        # collection empties CPython's free lists, which keep up to 2000 freed
        # tuples of each size below 20 for reuse, so one runs first and the
        # automatic collector stays off while the traced requests run: what
        # stays traced after them is what they left on those free lists, since
        # their results hold no reference cycles and dropping them frees them.
        # 90 requests leave about 190 KB, as a planner without the lists does;
        # lists stored as tuples left about 400 KB
        cases = list(sparse_bisection_requests(random.Random(101), per_graph=30))
        for topo, request in cases[::30]:  # fill the topologies' caches
            plan_outcome(topo, request)
        tracing, enabled = tracemalloc.is_tracing(), gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            if not tracing:
                tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            outcomes = [plan_outcome(topo, request) for topo, request in cases]
            bisections = sum(len(outcome.rounds) > 1 for outcome in outcomes)
            del outcomes
            gc.collect(1)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
            if enabled:
                gc.enable()
        assert bisections >= 60, bisections
        assert left < 280_000, left


class TestFloorCertificate:
    # the k the binary search visits when every round is infeasible
    BISECTION_KS = [2.0 ** -i for i in range(1, 31)]

    @staticmethod
    def instances(rng, rule):
        """(topology, request, floor distance) of seeded instances, budgets around the floor."""
        for i in range(150):
            if i % 3:
                topo = random_topology(rng, 2, 9)
            else:
                width, height = rng.choice([(2, 3), (3, 3), (4, 4)])
                topo = grid_topology(rng, width, height, [0.01, 0.02, 0.05])
            source, destination = rng.sample(range(len(topo)), 2)
            data_gb = rng.choice([rng.uniform(0.01, 1.0), rng.uniform(1.0, 60.0)])
            floor = floor_distance(topo, source, destination, data_gb, rule)
            # either side of the certificate's 1e-9 margin, at the floor and above it
            budget = floor * rng.choice(
                [0.0, rng.uniform(0.3, 1.0), 1 - 1e-6, 1 - 1e-12, 1.0, rng.uniform(1.0, 1.5)])
            yield topo, TransferRequest(source, destination, data_gb, budget, 30), floor

    @pytest.mark.parametrize("rule", RULES)
    def test_a_certified_request_has_no_path_at_any_k(self, rule):
        certified = at_floor = 0
        for topo, request, floor in self.instances(random.Random(29), rule):
            source, destination, budget = request.source, request.destination, request.budget_usd
            outcome = plan_outcome(topo, request, rule)
            proved = outcome.proved
            assert proved == (outcome.plan is None and outcome.rounds == ((1.0, None),))
            assert proved == (floor > budget * (1 + 1e-9))
            if budget == floor:
                at_floor += 1
                assert not proved
            if not proved:
                continue
            certified += 1
            aligned = [
                k for node in topo.nodes
                for k in hour_aligned_fractions(node, request.data_size_gb, 3)
            ]
            for k in self.BISECTION_KS + aligned:
                try:
                    weights = build_weights(topo, request, k, rule)
                except ValueError:
                    continue  # a node's bandwidth is too small to bill: no round at this k
                assert search_min_latency(weights, source, destination, budget) is None, k
                if len(topo) <= 9:
                    assert enumerate_best_path(weights, source, destination, budget) is None, k
        assert certified > 60 and at_floor > 15

    @pytest.mark.parametrize("rule", RULES)
    def test_floor_distance_equals_bellman_ford(self, rule):
        # the planner's Dijkstra against the helpers' Bellman-Ford, with some
        # graphs cut so that some destinations are out of reach
        rng, cut_rng = random.Random(31), random.Random(32)
        reached = unreachable = 0
        for i in range(300):
            if i % 3:
                topo = random_topology(rng, 2, 9)
            else:
                topo = grid_topology(rng, rng.randint(1, 4), rng.randint(2, 4), [0.01, 0.02, 0.05])
            topo = cut_off_one_node(topo, cut_rng)
            source, destination = rng.sample(range(len(topo)), 2)
            data_gb = rng.choice([rng.uniform(0.01, 1.0), rng.uniform(1.0, 60.0)])
            request = TransferRequest(source, destination, data_gb, 1.0, 30)
            expected = floor_distance(topo, source, destination, data_gb, rule)
            full_rate_costs, _ = price_round(topo.nodes, 1.0, data_gb, rule)
            assert cost_floor_distance(topo, request, full_rate_costs) == expected, i
            assert (expected < math.inf) == is_connected(topo.edges, source, destination), i
            reached += expected < math.inf
            unreachable += expected == math.inf
        assert reached > 150 and unreachable > 20, (reached, unreachable)

    def test_floor_distance_reachability_and_node_ids(self):
        # one directed link, 0 -> 1: the floor of node 0 one way, no path the other
        topo = Topology(make_topology(2).nodes, (LinkSpec(0, 1, 0.01),))

        full_rate_costs, _ = price_round(topo.nodes, 1.0, 1.0, "threshold")

        def distance(source, destination):
            return cost_floor_distance(
                topo, TransferRequest(source, destination, 1.0, 1.0, 5), full_rate_costs)

        assert distance(0, 1) == full_rate_floor(topo.nodes[0], 1.0, "threshold")
        assert distance(1, 0) == math.inf
        for source, destination, label in ((9, 0, "source 9"), (0, -1, "destination -1")):
            with pytest.raises(TopologyError, match=f"^{label} is not a valid node id$"):
                distance(source, destination)

    def test_floors_that_overflow_read_as_an_insufficient_budget(self):
        # each sender's floor is 1e300 * 1e8 = $1e308, and two of them sum past
        # the largest float: the destination is reached, so the answer is an
        # insufficient budget after the k=1 round, not "no path"
        nodes = tuple(NodeSpec(i, f"n{i}", f"203.0.113.{i+1}", 100.0, None, 1e300)
                      for i in range(3))
        topo = Topology(nodes, (LinkSpec(0, 1, 0.01), LinkSpec(1, 2, 0.01)))
        request = TransferRequest(0, 2, 1e8, 1.0, 30)
        outcome = plan_outcome(topo, request)
        assert outcome == planner.PlanOutcome(None, sys.float_info.max, True, ((1.0, None),))
        full_rate_costs, _ = price_round(topo.nodes, 1.0, request.data_size_gb, "threshold")
        assert cost_floor_distance(topo, request, full_rate_costs) == sys.float_info.max

    def test_floors_prove_nothing_where_a_reachable_k_bills_below_them(self):
        # node 0 sends 8.2e-18 GB: at k = 2.6e-26 its 3.1e-295 Mbps cap gives a
        # subnormal bandwidth, 8.08e-321 Mbps, whose bill is 1.1% below its floor.
        # 1100 rounds reach that k, so the floors prove nothing there and the
        # rounds find the plan the eager planner finds; 30 rounds stop at 2**-30,
        # where every bill is within FLOOR_SHARE of its floor, and the proof holds
        nodes = (NodeSpec(0, "slow", "192.0.2.1", 3.1247809044431514e-295,
                          0.027215698143579353, None),
                 NodeSpec(1, "n1", "192.0.2.2", 50.0, 0.02, 0.09))
        topo = Topology(nodes, (LinkSpec(0, 1, 0.01), LinkSpec(1, 0, 0.01)))
        data_gb, budget = 8.1969894384214e-18, 4.925839070237565e-19
        floor = 4.957484227604108e-19
        outcome = plan_outcome(topo, TransferRequest(0, 1, data_gb, budget, 30))
        assert outcome == planner.PlanOutcome(None, floor, True, ((1.0, None),))
        request = TransferRequest(0, 1, data_gb, budget, 1100)
        outcome = plan_outcome(topo, request)
        assert outcome.floor == floor > budget * (1 + 1e-9) and not outcome.proved
        plan = outcome.plan
        assert (plan.path, plan.fraction_k) == ((0, 1), 2.585923264649991e-26)
        assert plan.predicted_cost_usd < floor * (1 - 1e-2)
        assert outcome == plan_outcome_eager(topo, request, "threshold")

    def test_floors_whose_bandwidth_hours_overflow_prove_nothing(self):
        # node 0 bills PAYG at $1e300 per Mbps-hour: 1 GB's bandwidth-hours
        # overflow in `cost_floor`, so its floor is its full-rate bill, an hour
        # at 1e8 Mbps, $1e308. A smaller k bills an hour at less bandwidth, so
        # the floors do not prove a $1e305 budget too small, at 30 rounds too
        nodes = (NodeSpec(0, "dear", "192.0.2.1", 1e8, 1e300, None),
                 NodeSpec(1, "n1", "192.0.2.2", 1e8, 0.02, None))
        topo = Topology(nodes, (LinkSpec(0, 1, 0.01), LinkSpec(1, 0, 0.01)))
        request = TransferRequest(0, 1, 1.0, 1e305, 30)
        outcome = plan_outcome(topo, request)
        assert outcome.floor == 1e308 and not outcome.proved
        assert outcome.plan.predicted_cost_usd <= 1e305
        assert outcome == plan_outcome_eager(topo, request, "threshold")

    @pytest.mark.parametrize("rule", RULES)
    def test_no_proof_at_1100_rounds_that_the_rounds_would_refute(self, monkeypatch, rule):
        # payloads of 1e-20 to 1e3 GB and budgets of 0.9 to 1 times the floor: no
        # proved outcome has a plan once the proof is turned off, and some
        # outcomes that the floors alone would prove find one in their rounds
        rng = random.Random(89)
        seen = Counter()
        for _ in range(300):
            topo = extreme_topology(rng)
            linked = len(topo) - (topo.nodes[-1].name == "island")
            source, destination = rng.sample(range(linked), 2)
            data_gb = 10.0 ** rng.uniform(-20.0, 3.0)
            try:
                floor = floor_distance(topo, source, destination, data_gb, rule)
                request = TransferRequest(source, destination, data_gb,
                                          floor * rng.uniform(0.9, 1.0), 1100)
                outcome = plan_outcome(topo, request, rule)
            except ValueError:  # a node that k = 1 cannot price
                continue
            floors_prove = (outcome.floor is not None
                            and outcome.floor > request.budget_usd * (1 + 1e-9))
            if outcome.proved:
                with monkeypatch.context() as patch:
                    patch.setattr(planner, "_FLOOR_MARGIN", math.inf)
                    unproved = plan_outcome(topo, request, rule)
                assert unproved.plan is None, (topo, request)
            seen[f"proved {outcome.proved}, floors prove {floors_prove}, "
                 f"plan {outcome.plan is not None}"] += 1
        assert seen["proved True, floors prove True, plan False"] >= 10, seen
        assert seen["proved False, floors prove True, plan True"] >= 3, seen


class TestPlanSerialization:
    def test_round_trip(self, tmp_path):
        topo = make_topology(3)
        plan = plan_transfer(topo, TransferRequest(0, 2, 1.0, 5.0, 5))
        path = tmp_path / "plan.json"
        path.write_text(json_text(plan_to_dict(plan)))  # as `plan --out` writes it
        assert load_plan(path, len(topo)) == plan

    def test_dict_round_trip(self):
        topo = make_topology(4)
        plan = plan_transfer(topo, TransferRequest(0, 3, 30.0, 10.0, 6))
        assert plan_from_dict(plan_to_dict(plan), len(topo)) == plan

    @pytest.mark.parametrize("rule", RULES)
    def test_every_plan_round_trips(self, rule):
        planned = 0
        for topo, request in drawn_requests(random.Random(43), rule, 150):
            plan = plan_transfer(topo, request, rule)
            if plan is not None:
                planned += 1
                assert plan_from_dict(plan_to_dict(plan), len(topo)) == plan
        assert planned >= 50

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, True, "1.0"])
    @pytest.mark.parametrize("key", ["predicted_cost_usd", "predicted_latency_s"])
    def test_a_plan_refuses_totals_that_its_file_refuses(self, key, value):
        fields = {"path": (0, 1), "configs": {0: NodeBillingConfig(BillingMethod.PFDT, 100.0)},
                  "predicted_cost_usd": 0.081, "predicted_latency_s": 80.0, "fraction_k": 1.0,
                  "iterations_used": 0}
        doc = plan_to_dict(Plan(**fields))
        fields[key] = doc[key] = value
        refusal = f"^{re.escape(f'plan {key} must be a finite number >= 0, got {value!r}')}$"
        with pytest.raises(ValueError, match=refusal):
            Plan(**fields)
        with pytest.raises(ValueError, match=refusal):
            plan_from_dict(doc, 2)

    def test_a_plan_whose_cost_overflows_is_refused(self):
        # each sender bills 1e308; two of them sum to inf, which no budget refuses
        topo = load_topology(TESTBED.parent / "pfdt_overflow.json")
        with pytest.raises(ValueError, match="^plan predicted_cost_usd must be a finite number "
                                             ">= 0, got inf$"):
            plan_transfer(topo, TransferRequest(0, 2, 1e8, math.inf, 30))

    @pytest.mark.parametrize("doc", [[], "plan", None])
    def test_rejects_a_document_that_is_not_an_object(self, doc):
        with pytest.raises(ValueError, match="^plan must be an object, got "):
            plan_from_dict(doc, 4)


# records kept per node, per link and per plan carry no per-instance __dict__
@pytest.mark.parametrize("record", [
    LinkSpec(0, 1, 0.01),
    NodeSpec(0, "n0", "203.0.113.1", 100.0, K1, K2),
    NodeBillingConfig(BillingMethod.PFDT, 100.0),
    Plan((0, 1), {0: NodeBillingConfig(BillingMethod.PFDT, 100.0)}, 0.081, 80.0, 1.0, 0),
    PathResult((0, 1), 0.081, 80.0),
], ids=lambda record: type(record).__name__)
def test_records_are_slotted(record):
    assert not hasattr(record, "__dict__")
