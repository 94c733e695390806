"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion summary.
"""

import json
import math
import random

import pytest

from budgetpath.billing import TransferRequest, data_threshold, payg_cost, pfdt_cost
from budgetpath.cli import run
from budgetpath.planner import plan_outcome
from budgetpath.search import PathResult
from budgetpath.search import enumerate_best_path, search_min_latency
from budgetpath.simulate import compare, naive_baseline, simulate_transfer
from budgetpath.topology import LinkSpec, NodeSpec, Topology
from budgetpath.tunnels import build_tunnels, generate_keypair, render_conf
from helpers import (
    bisection_bracket, parse_conf, path_sums, random_topology, random_weights,
    request_or_refusal, route_packet, x25519_reference,
)
from test_cli import TESTBED, run_pipeline
from test_simulate import full_pfdt_configs, line_topology
from test_tunnels import RFC7748_PUBLIC, RFC7748_SCALAR, make_plan, make_topology, seeded_entropy


def report(criterion, detail=""):
    print(f"\nPASS criterion {criterion}: {detail}")


def test_criterion_1_billing_formulas_match_published_rates():
    k1, k2, bw = 0.021, 0.081, 100.0
    # independent oracle: bisect the break-even data size where the
    # per-volume cost equals the one-hour per-bandwidth cost
    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = (lo + hi) / 2
        if pfdt_cost(k2, mid) < k1 * bw:
            lo = mid
        else:
            hi = mid
    d_star = (lo + hi) / 2
    thresh = data_threshold(k1, k2, bw)
    assert math.isclose(thresh, d_star, rel_tol=1e-9)
    assert math.isclose(thresh, 25.925925925925927, rel_tol=1e-9)
    assert pfdt_cost(0.081, 1.0) == 0.081
    report(1, f"threshold {thresh:.9f} GB matches cost-equality bisection; 1 GB PFDT = $0.081")


def test_criterion_2_search_soundness_suite():
    rng = random.Random(20260826)
    instances = feasible = equal = both = false_infeasible = 0
    while instances < 1000:
        instances += 1
        n = rng.randint(2, 8)
        w = random_weights(rng, n)
        src, dst = 0, n - 1
        cap = rng.uniform(0.0, 2.5)

        # uncapped: must equal the exact oracle on every instance
        mine_inf = search_min_latency(w, src, dst, math.inf)
        exact_inf = enumerate_best_path(w, src, dst, math.inf)
        if exact_inf is None:
            assert mine_inf is None
        else:
            assert mine_inf is not None
            assert math.isclose(mine_inf.total_b, exact_inf.total_b, rel_tol=1e-9, abs_tol=1e-12)

        # capped: feasibility, hop-sum consistency, oracle dominance
        mine = search_min_latency(w, src, dst, cap)
        exact = enumerate_best_path(w, src, dst, cap)
        if mine is None:
            if exact is not None:
                false_infeasible += 1  # single-label pruning missed a cap-feasible path
            continue
        feasible += 1
        assert mine.total_a <= cap + 1e-12
        assert (mine.total_a, mine.total_b) == path_sums(w, mine.path)
        assert exact is not None
        assert exact.total_b <= mine.total_b + 1e-12
        both += 1
        if math.isclose(exact.total_b, mine.total_b, rel_tol=1e-9):
            equal += 1
    report(
        2,
        f"{instances} instances, {feasible} feasible results all sound; "
        f"equality rate vs oracle {equal}/{both} = {equal / both:.1%} (measured, not asserted); "
        f"false-infeasible {false_infeasible}/{instances} (search None, oracle finds a path; "
        f"measured, not asserted)",
    )


def test_criterion_3_planner_budget_safety_and_bracket_contraction():
    rng = random.Random(7261)
    instances = planned = brackets = 0
    while instances < 500:
        instances += 1
        topo = random_topology(rng)
        n = len(topo)
        request = request_or_refusal(
            rng.randrange(n), rng.randrange(n),
            rng.uniform(0.1, 40.0), rng.uniform(0.0, 2.5), rng.randint(1, 10))
        if request is None:
            continue
        outcome = plan_outcome(topo, request)
        plan, rounds = outcome.plan, outcome.rounds
        assert rounds[0][0] == 1.0
        bisection = rounds[1:]
        if bisection:
            brackets += 1
            assert not isinstance(rounds[0][1], PathResult)
            k_lower, k_upper = bisection_bracket(bisection)
            assert k_upper - k_lower <= 2.0 ** -len(bisection) + 1e-15
            assert len(bisection) == request.max_iterations
        if plan is None:
            continue
        planned += 1
        _, cost = simulate_transfer(topo, plan.path, plan.configs, request.data_size_gb)
        assert cost <= request.budget_usd
    assert planned > 50 and brackets > 50
    report(3, f"{instances} instances: {planned} plans all within budget, "
              f"{brackets} binary-search brackets all contracted to <= 2^-I")


def test_criterion_4_store_and_forward_quantities():
    one_hop = line_topology(2)
    latency_1, _ = simulate_transfer(one_hop, (0, 1), full_pfdt_configs(one_hop, (0, 1)), 1.0)
    assert latency_1 == 80.0

    three_hop = line_topology(4)
    path = (0, 1, 2, 3)
    latency_3, _ = simulate_transfer(three_hop, path, full_pfdt_configs(three_hop, path), 1.0)
    assert latency_3 == 240.0

    # constructed fixture: naive tie-breaks onto a slow relay, planner wins
    nodes = (
        NodeSpec(0, "s", "198.51.100.1", 100.0, 0.021, 0.081),
        NodeSpec(1, "slow", "198.51.100.2", 10.0, 0.021, 0.081),
        NodeSpec(2, "fast", "198.51.100.3", 100.0, 0.021, 0.081),
        NodeSpec(3, "d", "198.51.100.4", 100.0, 0.021, 0.081),
    )
    links = (LinkSpec(0, 1, 0.010), LinkSpec(1, 3, 0.010),
             LinkSpec(0, 2, 0.050), LinkSpec(2, 3, 0.050))
    topo = Topology(nodes, links)
    rep = compare(topo, TransferRequest(0, 3, 1.0, 5.0, 5))
    planner_row, naive_row = rep.rows[0], rep.rows[1]
    assert planner_row.latency_s < naive_row.latency_s
    report(4, f"1-hop 80 s, 3-hop 240 s exact; planner {planner_row.latency_s:.2f} s vs "
              f"naive {naive_row.latency_s:.2f} s (improvement {rep.improvement:.1%})")


def test_criterion_5_wireguard_chain_correctness():
    pair = generate_keypair(RFC7748_SCALAR)
    assert pair.public == RFC7748_PUBLIC == x25519_reference(RFC7748_SCALAR)
    assert pair.private[0] & 0x07 == 0
    assert pair.private[31] & 0xC0 == 0x40

    rng = random.Random(5)
    for length in range(2, 7):
        topo = make_topology(length)
        path = list(range(length))
        specs = build_tunnels(make_plan(path), topo,
                              entropy_source=lambda: rng.randbytes(32))
        assert route_packet(specs, specs[0], f"10.44.0.{length}") == path
        assert route_packet(specs, specs[-1], "10.44.0.1") == list(reversed(path))
        for spec in specs:
            assert parse_conf(render_conf(spec)) == spec
    report(5, "RFC 7748 vector, clamp bits, chain routing both ways for lengths 2..6, "
              "render/parse round-trip")


def test_criterion_6_cli_pipeline_determinism(tmp_path, capsys):
    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    assert first == second
    code = run(["plan", "--topology", TESTBED, "--src", "0", "--dst", "5",
                "--data-gb", "1", "--budget-usd", "0", "--iterations", "5"])
    assert code == 2
    capsys.readouterr()
    report(6, f"{len(first)} pipeline artifacts byte-identical across runs; budget-0 exits 2")
