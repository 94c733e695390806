import gc
import math
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from budgetpath.billing import (
    LEAST_K,
    MAX_DATA_GB,
    RULES,
    BillingMethod,
    NodeBillingConfig,
    TransferRequest,
    edge_latency,
    node_cost,
    payg_cost,
    price,
    select_billing,
    transfer_seconds,
)
from budgetpath import planner, simulate
from budgetpath.planner import (
    Plan,
    build_weights,
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
    MAX_EGRESS_MBPS, MIN_EGRESS_MBPS, LinkSpec, NodeSpec, NoPathError, Topology, TopologyError,
    json_text, load_topology,
)
from helpers import (
    bisection_bracket, cost_floors, cut_off_one_node, domain_payload, domain_topology,
    floor_distance, full_rate_floor, grid_topology, hour_aligned_fractions, is_connected,
    plan_outcome_eager, random_topology, request_or_refusal, search_pruned_at_pop,
    sender_configs_at, sparse_topology,
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
        delay = dict(weights.edges.rows[0])[1]
        assert weights.a[0] == pytest.approx(0.081)
        assert delay + weights.b[0] == pytest.approx(0.020 + 80.0)

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
                    delay = dict(weights.edges.rows[link.src])[link.dst]
                    config = configs[link.src]
                    assert weights.a[link.src] == node_cost(topo.node(link.src), config, data_gb)
                    assert delay + weights.b[link.src] == edge_latency(
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

    def test_the_fraction_is_bounded_by_the_least_k(self):
        topo = make_topology(2)
        request = TransferRequest(0, 1, 1.0, 1.0, 5)
        for k in (LEAST_K, 1.0):
            assert len(build_weights(topo, request, k).a) == 2
        for k in (math.nextafter(LEAST_K, 0.0), math.nextafter(1.0, 2.0),
                  math.nan, math.inf, -math.inf):
            refusal = re.escape(f"fraction_k must be in [2**-64, 1], got {k}")
            with pytest.raises(ValueError, match=f"^{refusal}$"):
                build_weights(topo, request, k)


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
        # runs all the way down to the least k: k = 1 and 64 halvings. At the
        # floor itself a k near 1e-16 bills whole hours to within rounding
        # and is feasible.
        topo = load_topology(TESTBED)
        under_floor = budget == "under-floor"
        if budget in ("under-floor", "floor"):
            budget = floor_distance(topo, 0, 5, 10.0, "threshold") * (1 - 1e-12 * under_floor)
        outcome = plan_outcome(topo, TransferRequest(0, 5, 10.0, budget, 10**7))
        plan, rounds = outcome.plan, outcome.rounds
        assert not outcome.proved
        assert rounds[0][0] == 1.0 and not isinstance(rounds[0][1], PathResult)
        assert len(rounds) <= 1100
        assert len(rounds) == 65 or not under_floor
        assert min(k for k, _ in rounds) >= LEAST_K
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
        # that finds it follows only a k = 1 round that missed the budget, with
        # every node's floor worked out once, and its NoPathError ends the
        # request, so the search core ran once: the k = 1 round was the only one
        floors, searches = [], []
        cost_floor = planner.cost_floor

        def counting_cost_floor(node, *args):
            floors.append(node.id)
            return cost_floor(node, *args)

        def counting_search(*args):
            searches.append(args[-1])
            return search_core(*args)

        monkeypatch.setattr(planner, "cost_floor", counting_cost_floor)
        monkeypatch.setattr(planner, "search_core", counting_search)
        topo = Topology(make_topology(3).nodes, make_topology(2).links)
        request = TransferRequest(0, 2, 1.0, budget, 30)
        with pytest.raises(NoPathError, match=r"^no path from 0 to 2$"):
            plan_outcome(topo, request)
        assert (floors, searches) == ([0, 1, 2], [budget])
        floors.clear()
        searches.clear()

        def no_baseline(*args):
            raise AssertionError("compare ran the naive baseline")

        # compare stops at the planner's first round, before the naive baseline
        monkeypatch.setattr(simulate, "naive_baseline", no_baseline)
        with pytest.raises(NoPathError, match=r"^no path from 0 to 2$"):
            compare(topo, request)
        assert (floors, searches) == ([0, 1, 2], [budget])

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
        # an unknown rule first, then an endpoint that is not a node id, as
        # `build_weights` and `search_min_latency` would refuse them; and once
        # per request, not per round
        request = TransferRequest(0, 9, 1e9, 1.0, 5)
        with pytest.raises(ValueError, match="^unknown billing rule 'cheapest'$"):
            plan_transfer(make_topology(2), request, "cheapest")
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
        floors = {data_gb: cost_floors(topo, data_gb, "threshold") for data_gb in (3.0, 6.0, 10.0)}
        for _ in range(per_graph):
            source, destination = rng.sample(range(200), 2)
            data_gb = rng.choice([3.0, 6.0, 10.0])
            floor = planner.floor_distance(topo.edges, source, destination, floors[data_gb])
            yield topo, TransferRequest(
                source, destination, data_gb, floor * rng.uniform(1.0, 2.0), 30)


class TestLazyRounds:
    """A bisection round prices a node when its search first reads the node's
    cost, and answers as if it had priced every node first."""

    @pytest.mark.parametrize("rule", RULES)
    def test_same_outcomes_as_rounds_priced_in_full(self, rule):
        # caps, rates and payloads across the operating domain, its ends included,
        # and up to 1100 rounds: the whole outcome, each round's k and result
        # included, is the eager planner's
        seen = Counter()
        rng = random.Random(71)
        for _ in range(400):
            topo = domain_topology(rng)
            source, destination = rng.sample(range(len(topo)), 2)
            data_gb = rng.choice([10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0),
                                  domain_payload(rng), domain_payload(rng), MAX_DATA_GB])
            floor = floor_distance(topo, source, destination, data_gb, rule)
            budget = rng.choice([floor * rng.uniform(1.0, 1.5), floor, floor * (1 + 1e-12),
                                 rng.uniform(0.0, 100.0)])
            request = TransferRequest(source, destination, data_gb, budget,
                                      rng.choice([rng.randint(1, 60), rng.randint(1, 1100), 1100]))
            lazy = plan_outcome(topo, request, rule)
            assert lazy == plan_outcome_eager(topo, request, rule), (topo, request)
            seen[f"{len(lazy.rounds) > 1} bisection"] += 1
            seen[f"{lazy.plan is not None} plan"] += 1
            seen["proved"] += lazy.proved
            seen["at the least k"] += lazy.rounds[-1][0] == LEAST_K
        assert len(seen) == 6 and min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("rule", RULES)
    def test_same_outcomes_down_to_the_least_k(self, monkeypatch, rule):
        # payloads at the small end of the domain, 1e-9 to 1e-6 GB, budgets just
        # above the floor and 1100 rounds: k falls to the least k, where a node's
        # bandwidth is 12 orders of magnitude below the least cap, and the floor
        # test drops labels all the way. The whole outcome is the eager
        # planner's, whose rounds read no floor
        seen = Counter()

        def counting_search(edges, a, b, source, destination, cost_cap, pricing=None):
            if pricing is None:
                return search_core(edges, a, b, source, destination, cost_cap)
            floors = ReadCounter(pricing[4])
            result = search_core(
                edges, a, b, source, destination, cost_cap, (*pricing[:4], floors))
            # a floor read drops the label or prices the node: what no entry was
            # priced for was dropped
            priced = sum(value is not None for value in a) - 1  # the source's came first
            seen["floor drops"] += floors.reads - priced
            seen["rounds at the least k"] += pricing[1] == LEAST_K
            return result

        monkeypatch.setattr(planner, "search_core", counting_search)
        rng = random.Random(79)
        for _ in range(500):
            topo = domain_topology(rng)
            source, destination = rng.sample(range(len(topo)), 2)
            data_gb = 10.0 ** rng.uniform(-9.0, -6.0)
            floor = floor_distance(topo, source, destination, data_gb, rule)
            request = TransferRequest(source, destination, data_gb, floor * (1 + 1e-12), 1100)
            lazy = plan_outcome(topo, request, rule)
            assert lazy == plan_outcome_eager(topo, request, rule), (topo, request)
            seen[f"{lazy.plan is not None} plan"] += 1
        assert seen["floor drops"] >= 1000, seen
        assert seen["rounds at the least k"] >= 50, seen
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

    def test_a_round_swallows_no_error(self, monkeypatch):
        # every round prices inside the operating domain and catches nothing, so
        # an error inside a bisection round's search is not read as a round that
        # found no path: it ends the request
        def failing_search(edges, a, b, source, destination, cost_cap, pricing=None):
            if pricing is not None:
                raise ValueError("an error in a round")
            return search_core(edges, a, b, source, destination, cost_cap)

        monkeypatch.setattr(planner, "search_core", failing_search)
        request = TransferRequest(0, 5, 10.0, 1.2, 30)  # a $1.2 budget bisects on testbed6
        with pytest.raises(ValueError, match="^an error in a round$"):
            plan_outcome(load_topology(TESTBED), request)

    def test_a_request_works_each_cost_floor_out_once(self, monkeypatch):
        # a request whose k = 1 round misses the budget works out every node's
        # floor once, in one list that the floor search and the bisection both
        # read; one whose k = 1 round meets it works out none
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
            worked_out = Counter() if outcome.floor is None else Counter(range(len(topo)))
            assert calls == worked_out, (request, calls.most_common(3))
            bisections += len(outcome.rounds) > 1
        assert bisections >= 20, bisections

    def test_requests_leave_no_memory_behind(self):
        # a request keeps no state once its outcome is dropped: every round
        # walks the topology's edge rows, built before the traced requests
        # run. A full collection empties CPython's free lists, which keep up to
        # 2000 freed tuples of each size below 20 for reuse, so one runs first
        # and the automatic collector stays off while the traced requests run:
        # what stays traced after them is what they left on those free lists,
        # since their results hold no reference cycles and dropping them frees
        # them. 90 requests leave about 190 KB
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
                weights = build_weights(topo, request, k, rule)
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
            expected = floor_distance(topo, source, destination, data_gb, rule)
            floors = cost_floors(topo, data_gb, rule)
            assert planner.floor_distance(topo.edges, source, destination, floors) == expected, i
            assert (expected < math.inf) == is_connected(topo.edges, source, destination), i
            reached += expected < math.inf
            unreachable += expected == math.inf
        assert reached > 150 and unreachable > 20, (reached, unreachable)

    def test_floor_distance_reachability(self):
        # one directed link, 0 -> 1: the floor of node 0 one way, no path the other
        topo = Topology(make_topology(2).nodes, (LinkSpec(0, 1, 0.01),))
        floors = cost_floors(topo, 1.0, "threshold")
        assert floors[0] == full_rate_floor(topo.nodes[0], 1.0, "threshold")
        assert planner.floor_distance(topo.edges, 0, 1, floors) == floors[0]
        assert planner.floor_distance(topo.edges, 1, 0, floors) == math.inf

    def test_floors_at_the_dearest_corner_prove_an_insufficient_budget(self):
        # each sender bills the domain's largest PFDT rate for its largest payload,
        # $1e6 * 1e12 GB = $1e18, and two of them sum to a finite $2e18: the
        # destination is reached, so the answer is an insufficient budget after
        # the k = 1 round, not "no path"
        nodes = tuple(NodeSpec(i, f"n{i}", f"203.0.113.{i+1}", 100.0, None, 1e6)
                      for i in range(3))
        topo = Topology(nodes, (LinkSpec(0, 1, 0.01), LinkSpec(1, 2, 0.01)))
        request = TransferRequest(0, 2, 1e12, 1.0, 30)
        outcome = plan_outcome(topo, request)
        assert outcome == planner.PlanOutcome(None, 2e18, True, ((1.0, None),))
        floors = cost_floors(topo, request.data_size_gb, "threshold")
        assert planner.floor_distance(topo.edges, 0, 2, floors) == 2e18

    @pytest.mark.parametrize("iterations", [30, 1100])
    def test_floors_prove_a_budget_too_small_down_to_the_least_k(self, iterations):
        # node 0 has the domain's least cap and PAYG rate and sends its least
        # payload: at the least k its bandwidth is 5.4e-23 Mbps and its bill
        # 5.4e-32 * 4.1e10 hours, still a normal float within rounding of its
        # floor. So the floors prove a budget just under them too small at 30
        # rounds and at 1100 alike, and the rounds, which reach the least k at
        # 1100, meet no such budget
        nodes = (NodeSpec(0, "slow", "192.0.2.1", 1e-3, 1e-9, None),
                 NodeSpec(1, "n1", "192.0.2.2", 50.0, 0.02, 0.09))
        topo = Topology(nodes, (LinkSpec(0, 1, 0.01), LinkSpec(1, 0, 0.01)))
        data_gb = 1e-9
        floor = full_rate_floor(nodes[0], data_gb, "threshold")
        assert floor == 1e-9 * 1e-9 * 8e9 / 1e6 / 3600
        request = TransferRequest(0, 1, data_gb, floor * (1 - 1e-6), iterations)
        assert plan_outcome(topo, request) == planner.PlanOutcome(None, floor, True, ((1.0, None),))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(planner, "_FLOOR_MARGIN", math.inf)
            unproved = plan_outcome(topo, request)
            assert unproved == plan_outcome_eager(topo, request, "threshold")
        assert unproved.plan is None and not unproved.proved
        assert unproved.rounds[-1][0] == (LEAST_K if iterations == 1100 else 2.0 ** -30)

    def test_the_dearest_payg_floor_is_its_bandwidth_hours(self):
        # node 0 bills PAYG at the domain's largest rate, $1e6 per Mbps-hour: the
        # bandwidth-hours of its largest payload, 1e12 GB, are a finite $2.2e21,
        # which is its floor and is billed within rounding at an hour-aligned k
        nodes = (NodeSpec(0, "dear", "192.0.2.1", 1e9, 1e6, None),
                 NodeSpec(1, "n1", "192.0.2.2", 1e9, 0.02, None))
        topo = Topology(nodes, (LinkSpec(0, 1, 0.01), LinkSpec(1, 0, 0.01)))
        floor = full_rate_floor(nodes[0], 1e12, "threshold")
        assert floor == 1e6 * 1e12 * 8e9 / 1e6 / 3600 < math.inf
        request = TransferRequest(0, 1, 1e12, floor * (1 + 1e-6), 30)
        outcome = plan_outcome(topo, request)
        assert outcome.floor == floor and not outcome.proved
        assert floor <= outcome.plan.predicted_cost_usd <= request.budget_usd
        assert outcome == plan_outcome_eager(topo, request, "threshold")

    @pytest.mark.parametrize("rule", RULES)
    def test_no_proof_at_1100_rounds_that_the_rounds_would_refute(self, monkeypatch, rule):
        # caps, rates and payloads across the operating domain and budgets of 0.9
        # to 1 times the floor: an outcome is proved exactly where the floors are
        # above the budget by the margin, and no proved outcome has a plan once
        # the proof is turned off
        rng = random.Random(89)
        seen = Counter()
        for _ in range(300):
            topo = domain_topology(rng)
            source, destination = rng.sample(range(len(topo)), 2)
            data_gb = domain_payload(rng)
            floor = floor_distance(topo, source, destination, data_gb, rule)
            request = TransferRequest(source, destination, data_gb,
                                      floor * rng.uniform(0.9, 1.0), 1100)
            outcome = plan_outcome(topo, request, rule)
            floors_prove = (outcome.floor is not None
                            and outcome.floor > request.budget_usd * (1 + 1e-9))
            assert outcome.proved == floors_prove, (topo, request)
            if outcome.proved:
                with monkeypatch.context() as patch:
                    patch.setattr(planner, "_FLOOR_MARGIN", math.inf)
                    unproved = plan_outcome(topo, request, rule)
                assert unproved.plan is None, (topo, request)
            seen[f"proved {outcome.proved}, plan {outcome.plan is not None}"] += 1
        assert seen["proved True, plan False"] >= 10, seen
        assert seen["proved False, plan True"] + seen["proved False, plan False"] >= 10, seen


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

    @pytest.mark.parametrize("key, least, most, expected", [
        ("fraction_k", LEAST_K, 1.0, "plan fraction_k must be a number in [2**-64, 1]"),
        ("bandwidth_mbps", LEAST_K * MIN_EGRESS_MBPS, MAX_EGRESS_MBPS,
         "plan per_node entry 0 bandwidth_mbps must be a number in "
         "[5.421010862427522e-23, 1e+09]"),
    ])
    def test_a_plan_file_holds_only_numbers_of_the_operating_domain(
        self, key, least, most, expected
    ):
        # every plan the planner makes has k in [2**-64, 1] and bills bandwidths
        # from the least k times the least cap up to the largest cap: each bound
        # is accepted, and the float just outside it is refused with the field's name
        config = NodeBillingConfig(BillingMethod.PAYG, 50.0)
        doc = plan_to_dict(Plan((0, 1), {0: config}, 0.081, 80.0, 0.5, 30))
        entry = doc["per_node"]["0"] if key == "bandwidth_mbps" else doc
        for value in (least, most):
            entry[key] = value
            assert plan_to_dict(plan_from_dict(doc, 2)) == doc
        for value in (math.nextafter(least, 0.0), math.nextafter(most, math.inf)):
            entry[key] = value
            with pytest.raises(ValueError, match=f"^{re.escape(f'{expected}, got {value!r}')}$"):
                plan_from_dict(doc, 2)

    def test_a_topology_whose_plan_cost_would_overflow_is_refused(self):
        # each sender would bill $1e300/GB * 1e8 GB, and two of them would sum to
        # inf: the rate is outside the operating domain, so loading refuses it
        refusal = r"^node 0 \(alpha\): pfdt rate must be 0 or in \[1e-09, 1e\+06\], got 1e\+300$"
        with pytest.raises(TopologyError, match=refusal):
            load_topology(TESTBED.parent / "pfdt_overflow.json")

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
