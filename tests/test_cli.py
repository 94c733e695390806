import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from budgetpath import planner
from budgetpath.billing import RULES
from budgetpath.cli import run
from budgetpath.planner import load_plan
from budgetpath.topology import load_topology, save_topology
from budgetpath.tunnels import build_tunnels
from helpers import (
    cut_off_one_node, floor_distance, grid_topology, is_connected, random_topology, route_packet,
)
from test_tunnels import seeded_entropy

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TESTBED = str(FIXTURES / "testbed6.json")


def isolated_testbed(tmp_path) -> str:
    """testbed6 plus a node 6 with no links, written to a file in `tmp_path`."""
    doc = json.loads(Path(TESTBED).read_text())
    doc["nodes"].append({**doc["nodes"][0], "id": 6, "name": "isolated"})
    topology = tmp_path / "isolated.json"
    topology.write_text(json.dumps(doc))
    return str(topology)


def run_pipeline(workdir) -> dict[str, bytes]:
    """plan -> render-wg -> simulate, returning every produced byte stream."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan_file = workdir / "plan.json"
    out_dir = workdir / "wg"
    report_file = workdir / "report.json"
    base = ["--topology", TESTBED, "--src", "0", "--dst", "5",
            "--data-gb", "1", "--budget-usd", "0.5", "--iterations", "10"]
    assert run(["plan", *base, "--out", str(plan_file)]) == 0
    assert run(["render-wg", "--topology", TESTBED, "--plan", str(plan_file),
                "--subnet", "10.44.0.0/24", "--seed", "7", "--out-dir", str(out_dir)]) == 0
    assert run(["simulate", *base, "--format", "structured", "--out", str(report_file)]) == 0
    outputs = {"plan.json": plan_file.read_bytes(), "report.json": report_file.read_bytes()}
    for conf in sorted(out_dir.iterdir()):
        outputs[conf.name] = conf.read_bytes()
    return outputs


class TestExitCodes:
    def test_plan_success(self, tmp_path, capsys):
        code = run(["plan", "--topology", TESTBED, "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "0.5", "--iterations", "10"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["path"][0] == 0 and doc["path"][-1] == 5
        assert doc["predicted_cost_usd"] <= 0.5

    # past about a thousand halvings a PAYG bandwidth is too small to bill,
    # and past about 1075 halving k again would reach 0.0
    @pytest.mark.parametrize("iterations", ["5", "1100", "1200"])
    def test_zero_budget_is_infeasible(self, capsys, iterations):
        code = run(["plan", "--topology", TESTBED, "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "0", "--iterations", iterations])
        assert code == 2
        assert capsys.readouterr().err == "insufficient budget: no feasible path found\n"

    def test_usage_error(self, capsys):
        assert run(["plan", "--bogus"]) == 1

    def test_missing_topology_file(self, capsys):
        code = run(["plan", "--topology", "no-such-file.json", "--src", "0", "--dst", "1",
                    "--data-gb", "1", "--budget-usd", "1"])
        assert code == 1

    def test_relative_topology_path_is_read_from_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        # no environment variable turns a path that names no file into another file
        monkeypatch.setenv("BUDGETPATH_FIXTURE_DIR", str(FIXTURES))
        monkeypatch.chdir(tmp_path)
        code = run(["plan", "--topology", "testbed6.json", "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "0.5"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: testbed6.json: ")

    def test_oracle_subcommand(self, capsys):
        code = run(["oracle", "--topology", TESTBED, "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_cost_usd"] <= 0.5

    @pytest.mark.parametrize("budget", ["0", "100"])
    def test_unreachable_destination_is_no_path(self, tmp_path, capsys, budget):
        # whatever the budget, and ahead of the oracle's refusal of a 7-node graph
        base = ["--topology", isolated_testbed(tmp_path), "--src", "0", "--dst", "6",
                "--data-gb", "1", "--budget-usd", budget]
        for command in (["plan"], ["simulate"], ["oracle"], ["oracle", "--max-nodes", "5"]):
            assert run([*command, *base]) == 2, command
            assert capsys.readouterr().err == "no path from 0 to 6\n", command

    def test_oracle_infeasible(self, capsys):
        code = run(["oracle", "--topology", TESTBED, "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "0"])
        assert code == 2
        # the line `plan` prints for a budget too small
        assert capsys.readouterr().err == "insufficient budget: no feasible path found\n"


class TestOutcomesThatNeedTheirOwnLine:
    OVERFLOW = str(FIXTURES / "pfdt_overflow.json")

    def overflow_variant(self, tmp_path, name, **rates) -> str:
        """`OVERFLOW` with every node's cap and rates replaced, written to `tmp_path`."""
        doc = json.loads(Path(self.OVERFLOW).read_text())
        for node in doc["nodes"]:
            node.update(rates)
        topology = tmp_path / f"{name}.json"
        topology.write_text(json.dumps(doc))
        return str(topology)

    @pytest.mark.parametrize("command", ["plan", "simulate", "oracle"])
    def test_a_node_cost_that_is_not_finite_names_the_node(self, tmp_path, capsys, command):
        # node 0 bills $1e300/GB for 1e9 GB, which is above the largest float; at
        # 1e-300 Mbps, PFDT or PAYG, 1e9 GB takes more seconds than a float holds
        tiny_cap = {"max_egress_mbps": 1e-300}
        for topology, what in (
            (self.OVERFLOW, "cost"),
            (self.overflow_variant(tmp_path, "free-pfdt", **tiny_cap, pfdt_usd_per_gb=0.0), "time"),
            (self.overflow_variant(tmp_path, "payg", **tiny_cap, pfdt_usd_per_gb=None,
                                   payg_usd_per_mbps_hour=0.021), "time"),
        ):
            code = run([command, "--topology", topology, "--src", "0", "--dst", "2",
                        "--data-gb", "1e9", "--budget-usd", "5"])
            assert (code, capsys.readouterr()) == (1, ("", (
                f"error: node 0 (alpha): its {what} to send 1000000000.0 GB is not a finite "
                "number\n"))), topology

    @pytest.mark.parametrize("options", [[], ["--fraction", "0.5"], ["--max-nodes", "2"]],
                             ids=["default", "fraction", "max-nodes"])
    def test_oracle_prices_before_it_looks_for_a_path(self, tmp_path, capsys, options):
        # 2 -> 0 has no directed path, and every node's cost overflows: `oracle`
        # prices first, as `plan` and `simulate` do, so it names node 0 as they do,
        # ahead of the missing path and of a --max-nodes refusal
        def assert_each_command_names_node_0(topology, data_gb):
            base = ["--topology", topology, "--mode", "directed", "--src", "2", "--dst", "0",
                    "--data-gb", data_gb, "--budget-usd", "5"]
            line = (f"error: node 0 (alpha): its cost to send {float(data_gb)!r} GB "
                    "is not a finite number\n")
            for command in (["plan"], ["simulate"], ["oracle", *options]):
                assert (run([*command, *base]), capsys.readouterr()) == (1, ("", line)), command

        assert_each_command_names_node_0(self.OVERFLOW, "1e9")
        # at $1e306/Mbps/h, one hour at 250 Mbps overflows but at 125 Mbps does not: the
        # floor distance, which prices at k = 1 in its own order, would name node 2
        assert_each_command_names_node_0(self.overflow_variant(
            tmp_path, "payg", max_egress_mbps=250.0, payg_usd_per_mbps_hour=1e306,
            pfdt_usd_per_gb=None), "1")

    def test_a_plan_whose_cost_overflows_is_refused(self, tmp_path, capsys):
        # each sender bills 1e308, and no budget refuses the sum, inf; a plan
        # file would hold `Infinity`, which is not JSON and which render-wg refuses
        plan_file = tmp_path / "plan.json"
        args = ["--topology", self.OVERFLOW, "--src", "0", "--dst", "2",
                "--data-gb", "1e8", "--budget-usd", "inf"]
        refusal = "error: plan predicted_cost_usd must be a finite number >= 0, got inf\n"
        assert run(["plan", *args, "--out", str(plan_file)]) == 1
        assert capsys.readouterr().err == refusal
        assert not plan_file.exists()
        assert run(["simulate", *args]) == 1
        assert capsys.readouterr() == ("", refusal)

    @pytest.mark.parametrize("cap, dst, cost_text, cost", [
        # three PAYG nodes at 1e303 Mbps: each sender bills 0.021 * 1e303 for one hour
        (1e303, "2", "4.2000e+301", 0.021 * 1e303 + 0.021 * 1e303),
        # one sender at $1/Mbps/h: just under $1e9 in fixed point, at $1e9 in exponent form
        (999999999.0, "1", "999999999.0000", 999999999.0),
        (1e9, "1", "1.0000e+09", 1e9),
    ])
    def test_a_large_cost_is_summed_up_in_exponent_form(
        self, tmp_path, capsys, cap, dst, cost_text, cost
    ):
        # the summary line gives a cost of $1e9 or more in exponent form, not
        # with its 300 digits; the plan file keeps the exact float
        rate = 0.021 if cap == 1e303 else 1.0
        topology = self.overflow_variant(tmp_path, "payg", max_egress_mbps=cap,
                                         payg_usd_per_mbps_hour=rate, pfdt_usd_per_gb=None)
        plan_file = tmp_path / "plan.json"
        assert run(["plan", "--topology", topology, "--src", "0", "--dst", dst, "--data-gb",
                    "2e298" if cap == 1e303 else "1", "--budget-usd", "inf",
                    "--out", str(plan_file)]) == 0
        err = capsys.readouterr().err
        assert f"  cost ${cost_text}  latency " in err, err
        assert json.loads(plan_file.read_text())["predicted_cost_usd"] == cost

    def test_a_huge_latency_is_summed_up_in_exponent_form(self, tmp_path, capsys):
        # two PFDT senders at 1e-290 Mbps take 1.6e294 s for 1 GB: `plan`'s summary
        # line and `simulate`'s table give it in exponent form, not with its 295
        # digits, and the plan file and the structured report keep the exact float
        topology = self.overflow_variant(tmp_path, "slow", max_egress_mbps=1e-290,
                                         pfdt_usd_per_gb=0.081)
        plan_file = tmp_path / "plan.json"
        args = ["--topology", topology, "--src", "0", "--dst", "2", "--data-gb", "1",
                "--budget-usd", "inf"]
        assert run(["plan", *args, "--out", str(plan_file)]) == 0
        assert capsys.readouterr().err == (
            "path 0->1->2  cost $0.1620  latency 1.6000e+294s  k=1.0\n")
        assert json.loads(plan_file.read_text())["predicted_latency_s"] == 1.6e294
        assert run(["simulate", *args]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[1:5] == [
            "label    path     latency_s    cost_usd  feasible",
            "planner  0->1->2  1.6000e+294  0.1620    yes",
            "naive    0->1->2  1.6000e+294  0.1620    yes",
            "oracle   0->1->2  1.6000e+294  0.1620    yes",
        ]
        assert run(["simulate", *args, "--format", "structured"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["latency_s"] for row in rows] == [1.6e294] * 3

    def test_a_no_plan_that_the_floors_did_not_prove_says_so(self, capsys):
        # a hair under the cheapest path's floor, inside the certificate's
        # margin: not proved insufficient, and met by no round
        floor = floor_distance(load_topology(TESTBED), 0, 5, 10.0, "threshold")
        budget = floor * (1 - 1e-12)
        assert (repr(budget), repr(floor)) == ("0.9333333333324001", "0.9333333333333335")
        base = ["plan", "--topology", TESTBED, "--src", "0", "--dst", "5", "--data-gb", "10"]
        assert run([*base, "--budget-usd", repr(budget)]) == 2
        assert capsys.readouterr() == ("", (
            "no plan found: no round of the heuristic search met the budget $0.9333333333324001, "
            "but the cost floor $0.9333333333333335 does not prove it too small\n"))
        # under the margin the floor proves it, and the line says so
        assert run([*base, "--budget-usd", repr(floor * (1 - 1e-6))]) == 2
        assert capsys.readouterr() == ("", "insufficient budget: no feasible path found\n")

    @pytest.mark.parametrize("budget", ["0", "0.9333333333324001"], ids=["proved", "unproved"])
    def test_a_no_plan_works_the_floor_distance_out_once(self, monkeypatch, capsys, budget):
        # the line that `plan` prints reads the planner's own floor, with no second search
        calls = []
        floor_distance = planner._floor_distance

        def counting_floor_distance(*args):
            calls.append(args)
            return floor_distance(*args)

        monkeypatch.setattr(planner, "_floor_distance", counting_floor_distance)
        assert run(["plan", "--topology", TESTBED, "--src", "0", "--dst", "5", "--data-gb", "10",
                    "--budget-usd", budget]) == 2
        assert capsys.readouterr().err.startswith(("insufficient budget", "no plan found"))
        assert len(calls) == 1


def _drop_per_node(doc):
    del doc["per_node"]


def _bill_off_path_node(doc):
    doc["per_node"]["42"] = doc["per_node"]["0"]


def _name_absent_node(doc):
    doc["path"][-1] = 9


def _per_node_entry_is_string(doc):
    doc["per_node"]["0"] = "pfdt"


def _per_node_is_list(doc):
    doc["per_node"] = list(doc["per_node"].values())


def _path_is_number(doc):
    doc["path"] = 5


def _null_cost(doc):
    doc["predicted_cost_usd"] = None


def _null_bandwidth(doc):
    doc["per_node"]["0"]["bandwidth_mbps"] = None


def _per_node_key_is_padded(doc):
    doc["per_node"][" 0"] = doc["per_node"].pop("0")


def _bandwidth_is_bool(doc):
    doc["per_node"]["0"]["bandwidth_mbps"] = True


def _iterations_are_fractional(doc):
    doc["iterations_used"] = 2.7


def _iterations_are_negative(doc):
    doc["iterations_used"] = -1


def _bandwidth_is_negative(doc):
    doc["per_node"]["0"]["bandwidth_mbps"] = -5


def _bandwidth_is_zero(doc):
    doc["per_node"]["0"]["bandwidth_mbps"] = 0


def _bandwidth_is_infinite(doc):
    doc["per_node"]["0"]["bandwidth_mbps"] = math.inf


def _cost_is_nan(doc):
    doc["predicted_cost_usd"] = math.nan


def _cost_is_negative(doc):
    doc["predicted_cost_usd"] = -0.5


def _latency_is_infinite(doc):
    doc["predicted_latency_s"] = math.inf


def _latency_is_nan(doc):
    doc["predicted_latency_s"] = math.nan


def _fraction_is_above_one(doc):
    doc["fraction_k"] = 7.0


def _fraction_is_zero(doc):
    doc["fraction_k"] = 0.0


def _path_is_one_node(doc):
    doc["path"] = [5]
    doc["per_node"] = {}


def _path_revisits_a_node(doc):
    doc["path"] = [0, 2, 0]  # per_node still bills exactly the senders, 0 and 2


def _hop_is_not_a_link(doc):
    doc["path"] = [0, 5]  # testbed6 has no 0-5 link
    doc["per_node"] = {"0": doc["per_node"]["0"]}


class TestPlanFileValidation:
    @pytest.mark.parametrize("corrupt", [
        _name_absent_node, _drop_per_node, _bill_off_path_node, _per_node_entry_is_string,
        _per_node_is_list, _path_is_number, _null_cost, _null_bandwidth,
        _per_node_key_is_padded, _bandwidth_is_bool, _iterations_are_fractional,
        _iterations_are_negative, _bandwidth_is_negative, _bandwidth_is_zero,
        _bandwidth_is_infinite, _cost_is_nan, _cost_is_negative, _latency_is_infinite,
        _latency_is_nan, _fraction_is_above_one, _fraction_is_zero, _hop_is_not_a_link,
        _path_is_one_node, _path_revisits_a_node,
    ])
    def test_render_wg_rejects_plan_that_does_not_fit_topology(self, tmp_path, capsys, corrupt):
        plan_file = tmp_path / "plan.json"
        assert run(["plan", "--topology", TESTBED, "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "0.5", "--out", str(plan_file)]) == 0
        doc = json.loads(plan_file.read_text())
        corrupt(doc)
        plan_file.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["render-wg", "--topology", TESTBED, "--plan", str(plan_file),
                    "--seed", "1", "--out-dir", str(tmp_path / "wg")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: plan ")
        assert not (tmp_path / "wg").exists()


class TestDeterminism:
    def test_seeded_pipeline_is_byte_identical(self, tmp_path):
        first = run_pipeline(tmp_path / "a")
        second = run_pipeline(tmp_path / "b")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name
        assert "manifest.json" in first

    def test_different_seeds_differ(self, tmp_path):
        (tmp_path / "a").mkdir()
        plan_file = tmp_path / "plan.json"
        assert run(["plan", "--topology", TESTBED, "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "0.5", "--out", str(plan_file)]) == 0
        confs = []
        for seed in ("1", "2"):
            out_dir = tmp_path / f"wg{seed}"
            assert run(["render-wg", "--topology", TESTBED, "--plan", str(plan_file),
                        "--seed", seed, "--out-dir", str(out_dir)]) == 0
            confs.append((out_dir / "beijing.conf").read_bytes())
        assert confs[0] != confs[1]


@pytest.mark.parametrize("rule", RULES)
def test_pipeline_renders_every_plan_and_refuses_alike(tmp_path, capsys, rule):
    # endpoints come from range(n + 1), so equal ids and ids outside the graph occur,
    # and some graphs have a node cut off, so some destinations are unreachable
    rng, cut_rng = random.Random(2021), random.Random(2022)
    topology_file, plan_file = tmp_path / "topology.json", tmp_path / "plan.json"
    outcomes = {"planned": 0, "insufficient": 0, "unproved": 0, "no_path": 0, "refused": 0}
    for i in range(120):
        if i % 3:
            generated = random_topology(rng)
        else:
            generated = grid_topology(rng, rng.randint(1, 3), rng.randint(1, 4), [0.01, 0.02, 0.05])
        save_topology(cut_off_one_node(generated, cut_rng), topology_file)
        topology = load_topology(topology_file, "directed")
        n = len(topology)
        src, dst = rng.randrange(n + 1), rng.randrange(n + 1)
        args = ["--topology", str(topology_file), "--mode", "directed",
                "--src", str(src), "--dst", str(dst),
                "--data-gb", repr(rng.uniform(0.1, 40.0)),
                "--budget-usd", repr(rng.uniform(0.0, 3.0)),
                "--iterations", str(rng.randint(1, 8)), "--rule", rule]
        code = run(["plan", *args, "--out", str(plan_file)])
        err = capsys.readouterr().err
        if code == 0:
            plan = load_plan(plan_file, n)
            specs = build_tunnels(plan, topology, entropy_source=seeded_entropy(i))
            first, last = (spec.overlay_address.split("/")[0] for spec in (specs[0], specs[-1]))
            assert route_packet(specs, specs[0], last) == list(plan.path)
            assert route_packet(specs, specs[-1], first) == list(reversed(plan.path))
            expected_row = {"label": "planner", "path": list(plan.path), "feasible": True,
                            "latency_s": plan.predicted_latency_s,
                            "cost_usd": plan.predicted_cost_usd}
            outcomes["planned"] += 1
        elif err == "insufficient budget: no feasible path found\n" or err.startswith(
                "no plan found: no round of the heuristic search met the budget $"):
            # proved by the floors, or met by no round: the budget alone is short,
            # and `simulate`'s planner row names which of the two
            assert code == 2 and is_connected(topology.edges, src, dst)
            proved = err.startswith("insufficient")
            label = "insufficient budget" if proved else "no round met the budget"
            expected_row = {"label": f"planner ({label})", "path": None,
                            "feasible": False, "latency_s": None, "cost_usd": None}
            outcomes["insufficient" if proved else "unproved"] += 1
        else:
            # exit 2 for an unreachable destination, exit 1 for a request that is not one
            if err == f"no path from {src} to {dst}\n":
                assert code == 2 and not is_connected(topology.edges, src, dst)
                outcomes["no_path"] += 1
            else:
                assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
                outcomes["refused"] += 1
            for command in ("simulate", "oracle"):
                assert run([command, *args]) == code, command
                assert capsys.readouterr().err == err, command
            continue
        assert run(["simulate", *args, "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0] == expected_row
    floors = {"planned": 15, "insufficient": 15, "unproved": 1, "no_path": 10, "refused": 15}
    assert all(outcomes[name] >= floor for name, floor in floors.items()), outcomes


class TestIdentityKeys:
    def test_keys_file_pins_node_identity(self, tmp_path):
        from budgetpath.tunnels import generate_keypair

        plan_file = tmp_path / "plan.json"
        assert run(["plan", "--topology", TESTBED, "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "0.5", "--out", str(plan_file)]) == 0
        stable = generate_keypair(bytes([3] * 32))
        keys_file = tmp_path / "keys.json"
        keys_file.write_text(json.dumps({"0": stable.private_b64}))
        out_dir = tmp_path / "wg"
        assert run(["render-wg", "--topology", TESTBED, "--plan", str(plan_file),
                    "--seed", "1", "--keys", str(keys_file), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["beijing"]["public_key"] == stable.public_b64


def _plan_file(tmp_path) -> Path:
    plan_file = tmp_path / "plan.json"
    assert run(["plan", "--topology", TESTBED, "--src", "0", "--dst", "5",
                "--data-gb", "1", "--budget-usd", "0.5", "--out", str(plan_file)]) == 0
    return plan_file


def assert_one_error_line(capsys, code: int) -> str:
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


# ids that int() reads but that name no node of testbed6 as str(i) does
NOT_NODE_IDS = ["99", "6", "-1", "05", " 5", "+5", "0_5"]


class TestKeysFileValidation:
    @pytest.mark.parametrize("keys", [["AAAA"], {"0": 5}])
    def test_render_wg_rejects_keys_file_of_wrong_shape(self, tmp_path, capsys, keys):
        plan_file = _plan_file(tmp_path)
        keys_file = tmp_path / "keys.json"
        keys_file.write_text(json.dumps(keys))
        capsys.readouterr()
        code = run(["render-wg", "--topology", TESTBED, "--plan", str(plan_file),
                    "--seed", "1", "--keys", str(keys_file), "--out-dir", str(tmp_path / "wg")])
        assert "keys file" in assert_one_error_line(capsys, code)
        assert not (tmp_path / "wg").exists()

    @pytest.mark.parametrize("content, reason", [
        (b"", "malformed JSON: Expecting value: line 1 column 1 (char 0)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
        (b'{"x": "AAMDAwMDAwMDAwMDAwMDAwMDAwMDAwMDAwMDAwMDA0M="}',
         "entry 'x': invalid literal for int() with base 10: 'x'"),
        (b'{"0": "abc"}', "entry '0': Incorrect padding"),
        (b'{"0": "AAMD!!AwMDAwMDAwMDAwMDAwMDAwMDAwMDAwMDAwMDA0M="}',
         "entry '0': Only base64 data is allowed"),
        *[(json.dumps({node_id: "AAMDAwMDAwMDAwMDAwMDAwMDAwMDAwMDAwMDAwMDA0M="}).encode(),
           f"entry {node_id!r}: not a node id of the topology, which has 6 nodes")
          for node_id in NOT_NODE_IDS],
    ], ids=["empty", "not-utf-8", "bad-node-id", "bad-key", "key-outside-alphabet",
            *(f"node-id-{node_id!r}" for node_id in NOT_NODE_IDS)])
    def test_render_wg_keys_error_names_the_file(self, tmp_path, capsys, content, reason):
        plan_file = _plan_file(tmp_path)
        keys_file = tmp_path / "keys.json"
        keys_file.write_bytes(content)
        capsys.readouterr()
        code = run(["render-wg", "--topology", TESTBED, "--plan", str(plan_file),
                    "--seed", "1", "--keys", str(keys_file), "--out-dir", str(tmp_path / "wg")])
        assert assert_one_error_line(capsys, code).startswith(f"error: {keys_file}: {reason}")
        assert not (tmp_path / "wg").exists()

    def test_render_wg_accepts_keys_for_nodes_off_the_path(self, tmp_path, capsys):
        from budgetpath.tunnels import generate_keypair

        plan_file = _plan_file(tmp_path)
        fleet = {str(i): generate_keypair(bytes([i + 1] * 32)) for i in range(6)}
        keys_file = tmp_path / "keys.json"
        keys_file.write_text(json.dumps({i: pair.private_b64 for i, pair in fleet.items()}))
        out_dir = tmp_path / "wg"
        assert run(["render-wg", "--topology", TESTBED, "--plan", str(plan_file),
                    "--seed", "1", "--keys", str(keys_file), "--out-dir", str(out_dir)]) == 0
        path = json.loads(plan_file.read_text())["path"]
        assert len(path) < len(fleet)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert {entry["public_key"] for entry in manifest.values()} == {
            fleet[str(i)].public_b64 for i in path
        }


class TestErrorsEndInOneLine:
    """Each module's ValueError subclass reaches `run` and ends as exit 1 with one `error:` line."""

    def test_topology_error(self, tmp_path, capsys):
        doc = json.loads(Path(TESTBED).read_text())
        del doc["nodes"][2]["name"]
        topology = tmp_path / "no-name.json"
        topology.write_text(json.dumps(doc))
        for command in (["plan", "--src", "0", "--dst", "5", "--data-gb", "1", "--budget-usd", "1"],
                        ["render-wg", "--plan", str(tmp_path / "plan.json")]):
            code = run([command[0], "--topology", str(topology), *command[1:]])
            assert "node entry 2: missing key 'name'" in assert_one_error_line(capsys, code)

    @pytest.mark.parametrize("egress", ["Infinity", "1e400", "NaN"])
    def test_egress_must_be_finite(self, tmp_path, capsys, egress):
        doc = json.loads(Path(TESTBED).read_text())
        doc["nodes"][2]["max_egress_mbps"] = 12345.5
        topology = tmp_path / "unbounded.json"
        topology.write_text(json.dumps(doc).replace("12345.5", egress))
        code = run(["plan", "--topology", str(topology), "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "1"])
        message = "node 2 (shenzhen): max_egress_mbps must be finite and > 0"
        assert message in assert_one_error_line(capsys, code)

    @pytest.mark.parametrize("content, reason", [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
        (b'{"nodes": [', "malformed JSON: Expecting value"),
    ], ids=["not-utf-8", "truncated"])
    def test_topology_read_error_names_the_file(self, tmp_path, capsys, content, reason):
        topology = tmp_path / "topology.json"
        topology.write_bytes(content)
        code = run(["plan", "--topology", str(topology), "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "1"])
        assert assert_one_error_line(capsys, code).startswith(f"error: {topology}: {reason}")

    @pytest.mark.parametrize("content, reason", [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
        (b"", "malformed JSON: Expecting value: line 1 column 1 (char 0)"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["not-utf-8", "empty", "nested-too-deeply"])
    def test_plan_read_error_names_the_file(self, tmp_path, capsys, content, reason):
        plan_file = tmp_path / "plan.json"
        plan_file.write_bytes(content)
        code = run(["render-wg", "--topology", TESTBED, "--plan", str(plan_file),
                    "--seed", "1", "--out-dir", str(tmp_path / "wg")])
        assert assert_one_error_line(capsys, code).startswith(f"error: {plan_file}: {reason}")
        assert not (tmp_path / "wg").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("option", ["--topology", "--plan", "--keys"])
    def test_render_wg_unreadable_input_names_the_file(self, tmp_path, capsys, option, kind):
        inputs = {"--topology": TESTBED, "--plan": str(_plan_file(tmp_path))}
        unreadable = tmp_path / "unreadable.json"
        if kind == "directory":
            unreadable.mkdir()
        inputs[option] = str(unreadable)
        capsys.readouterr()
        code = run(["render-wg", *(item for pair in inputs.items() for item in pair),
                    "--seed", "1", "--out-dir", str(tmp_path / "wg")])
        assert assert_one_error_line(capsys, code).startswith(f"error: {unreadable}: ")
        assert not (tmp_path / "wg").exists()

    @pytest.mark.parametrize("command", ["plan", "simulate", "oracle"])
    @pytest.mark.parametrize("src, dst, message", [
        ("9", "5", "source 9 is not a valid node id"),
        ("0", "-1", "destination -1 is not a valid node id"),
        ("2", "2", "source and destination are the same node (2)"),
    ])
    def test_request_error(self, capsys, command, src, dst, message):
        # every command that takes a request refuses it with the same line
        code = run([command, "--topology", TESTBED, "--src", src, "--dst", dst,
                    "--data-gb", "1", "--budget-usd", "1"])
        assert assert_one_error_line(capsys, code) == f"error: {message}"

    def test_search_error(self, capsys):
        code = run(["oracle", "--topology", TESTBED, "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "1", "--max-nodes", "5"])
        assert "oracle enumeration refused for n=6 > 5" in assert_one_error_line(capsys, code)

    def test_simulation_error(self, tmp_path, monkeypatch, capsys):
        import budgetpath.simulate

        # an unreachable pair reaches the library, which raises NoPathError: exit 2
        code = run(["simulate", "--topology", isolated_testbed(tmp_path), "--src", "0",
                    "--dst", "6", "--data-gb", "1", "--budget-usd", "1"])
        assert (code, capsys.readouterr().err) == (2, "no path from 0 to 6\n")

        # any other SimulationError is an input error: a baseline that bills no sender
        # makes `simulate_transfer` refuse its path
        naive_baseline = budgetpath.simulate.naive_baseline
        monkeypatch.setattr(budgetpath.simulate, "naive_baseline",
                            lambda topology, request: (naive_baseline(topology, request)[0], {}))
        code = run(["simulate", "--topology", TESTBED, "--src", "0", "--dst", "5",
                    "--data-gb", "1", "--budget-usd", "1"])
        assert assert_one_error_line(capsys, code) == "error: path node 0 has no billing config"

    TOO_LARGE = (
        "error: data_size_gb must be at most 2.2471164185778946e+298, so that its size in bits "
        "is a finite number, got "
    )

    @pytest.mark.parametrize("option, value, message", [
        ("--budget-usd", "nan", "error: budget_usd must be >= 0, got nan"),
        ("--data-gb", "nan", "error: data_size_gb must be > 0, got nan"),
        ("--data-gb", "inf", TOO_LARGE + "inf"),
        ("--data-gb", "1e300", TOO_LARGE + "1e+300"),
    ])
    def test_request_number_out_of_range(self, capsys, option, value, message):
        numbers = {"--data-gb": "1", "--budget-usd": "1", option: value}
        for command in ("plan", "simulate", "oracle"):
            code = run([command, "--topology", TESTBED, "--src", "0", "--dst", "5",
                        *(word for pair in numbers.items() for word in pair)])
            assert assert_one_error_line(capsys, code) == message, command

    @pytest.mark.parametrize("port, shared, message", [
        ("0", False, "listen port 0 is outside 1..65535"),
        ("-5", False, "listen port -5 is outside 1..65535"),
        ("70000", False, "listen port 70000 is outside 1..65535"),
        ("65535", True, "listen port 65536 is outside 1..65535"),
    ])
    def test_port_out_of_range(self, tmp_path, capsys, port, shared, message):
        plan_file = _plan_file(tmp_path)
        assert len(json.loads(plan_file.read_text())["path"]) == 3
        topology = TESTBED
        if shared:  # path nodes on one address listen on port + path index
            doc = json.loads(Path(TESTBED).read_text())
            for node in doc["nodes"]:
                node["public_address"] = "127.0.0.1"
            topology = tmp_path / "shared.json"
            topology.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["render-wg", "--topology", str(topology), "--plan", str(plan_file),
                    "--port", port, "--seed", "1", "--out-dir", str(tmp_path / "wg")])
        assert message in assert_one_error_line(capsys, code)
        assert not (tmp_path / "wg").exists()

    def test_tunnel_error(self, tmp_path, capsys):
        plan_file = _plan_file(tmp_path)
        capsys.readouterr()
        code = run(["render-wg", "--topology", TESTBED, "--plan", str(plan_file),
                    "--subnet", "10.0.0.0/31", "--seed", "1", "--out-dir", str(tmp_path / "wg")])
        assert "fewer than 3 usable hosts" in assert_one_error_line(capsys, code)

    @pytest.mark.parametrize("names, message", [
        ({2: "../escaped"}, "node 2 ('../escaped'): name is not a plain file name"),
        ({0: "virginia"}, "nodes 0 and 5 are both named 'virginia'"),
    ], ids=["escapes-out-dir", "shared-name"])
    def test_tunnel_file_names(self, tmp_path, capsys, names, message):
        plan_file = _plan_file(tmp_path)
        assert json.loads(plan_file.read_text())["path"] == [0, 2, 5]
        doc = json.loads(Path(TESTBED).read_text())
        for node_id, name in names.items():
            doc["nodes"][node_id]["name"] = name
        topology = tmp_path / "renamed.json"
        topology.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["render-wg", "--topology", str(topology), "--plan", str(plan_file),
                    "--seed", "1", "--out-dir", str(tmp_path / "out" / "x")])
        assert message in assert_one_error_line(capsys, code)
        assert not (tmp_path / "out").exists()


def test_each_command_reads_its_topology_once(tmp_path, monkeypatch, capsys):
    import budgetpath.cli
    import budgetpath.probe

    plan_file = _plan_file(tmp_path)
    loads = []
    load = budgetpath.cli.load_topology
    monkeypatch.setattr(budgetpath.cli, "load_topology",
                        lambda path, mode: loads.append((path, mode)) or load(path, mode))
    monkeypatch.setattr(budgetpath.probe, "probe_rtts", lambda topology, attempts: topology)
    request = ["--src", "0", "--dst", "5", "--data-gb", "1", "--budget-usd", "0.5"]
    for argv in (
        ["plan", *request],
        ["render-wg", "--plan", str(plan_file), "--seed", "1", "--out-dir", str(tmp_path / "wg")],
        ["simulate", *request],
        ["oracle", *request],
        ["probe", "--out", str(tmp_path / "probed.json")],
    ):
        loads.clear()
        assert run([*argv, "--topology", TESTBED, "--mode", "directed"]) == 0, argv
        assert loads == [(TESTBED, "directed")], argv


SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "budgetpath.cli", "plan", "--topology", TESTBED,
         "--src", "0", "--dst", "5", "--data-gb", "1", "--budget-usd", "0.5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["path"]


def _child_modules(code: str) -> set[str]:
    """The names in sys.modules once a child interpreter has run `code`."""
    proc = subprocess.run([sys.executable, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _package(names: set[str], package: str) -> set[str]:
    return {name for name in names if name == package or name.startswith(package + ".")}


def test_cli_import_skips_numpy_and_cryptography():
    loaded = _child_modules("import budgetpath.cli")
    added = loaded - _child_modules("pass")
    assert _package(loaded, "budgetpath") == {
        "budgetpath", "budgetpath.billing", "budgetpath.cli", "budgetpath.planner",
        "budgetpath.records", "budgetpath.search", "budgetpath.topology"}
    for package in ("numpy", "cryptography", "subprocess", "statistics", "logging",
                    "secrets", "hmac", "hashlib"):
        assert not _package(added, package), package


def test_render_wg_skips_key_serialization_module(tmp_path):
    code = f"""
from budgetpath.cli import run
assert run(["plan", "--topology", {TESTBED!r}, "--src", "0", "--dst", "5", "--data-gb", "1",
            "--budget-usd", "0.5", "--out", {str(tmp_path / "plan.json")!r}]) == 0
assert run(["render-wg", "--topology", {TESTBED!r}, "--plan", {str(tmp_path / "plan.json")!r},
            "--seed", "7", "--out-dir", {str(tmp_path / "wg")!r}]) == 0
"""
    loaded = _child_modules(code)
    assert "budgetpath.tunnels" in loaded and _package(loaded, "cryptography")
    assert "cryptography.hazmat.primitives.serialization" not in loaded
