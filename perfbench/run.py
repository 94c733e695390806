"""budgetpath benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload plan-bsearch --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it benchmarks that checkout's `src/`.
One client sends requests in a closed loop, each after the previous one
completed, in whole seeded blocks until `--seconds` have passed and at least
100 requests ran. Every answer is checked afterwards with the benchmark's
own arithmetic.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
makes a separate traced run for the per-layer metrics: half the time
untraced, then the same requests again with wrappers from `spans.py`
installed, so the tracing overhead is the ratio of the two.

A report for people comes first on stdout; the last line is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. Without a
loadable `src/budgetpath` in the checkout it exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import model
from gen import Inputs
from spans import TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT_S = 60

WORKLOADS = ("plan-bsearch", "simulate-compare", "cli-pipeline")
MAX_ITERATIONS = 30  # the CLI default
MIN_REQUESTS = 100  # so that at least 10 samples lie beyond p90
SETUP_REPEATS = 5
CLI_WARMUP_PASSES = 3
CPUS = sorted(os.sched_getaffinity(0))
PROBE_LOOPS = 10_000

GUARD_CODE = """
import json
import budgetpath, budgetpath.cli, cryptography, numpy
print(json.dumps({"budgetpath": budgetpath.__file__, "cli": budgetpath.cli.__file__,
                  "numpy": numpy.__version__, "cryptography": cryptography.__version__}))
"""

SETUP_CODE = """
import sys, time
start = time.perf_counter()
import budgetpath
for path in sys.argv[1:]:
    budgetpath.load_topology(path)
print(time.perf_counter() - start)
"""


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC / "budgetpath")


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def guard() -> dict:
    """Check that child processes load budgetpath from this checkout's src/."""
    proc = _child([sys.executable, "-c", GUARD_CODE])
    if proc.returncode != 0:
        raise SystemExit(f"cannot import budgetpath from {SRC}:\n{proc.stderr[-2000:]}")
    info = json.loads(proc.stdout)
    for key in ("budgetpath", "cli"):
        if not _inside_src(info[key]):
            raise SystemExit(f"child process loaded {info[key]}, not the checkout's {SRC}")
    return info


def import_program():
    """Import budgetpath in this process from the checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import budgetpath
    import budgetpath.cli

    for module in (budgetpath, budgetpath.cli):
        if not _inside_src(module.__file__):
            raise SystemExit(f"imported {module.__file__}, not the checkout's {SRC}")
    return budgetpath


# --- the closed loop ---------------------------------------------------------


def pin_quietest_cpu() -> None:
    """Pin this process, and the children it starts next, to the CPU where a short probe runs fastest.

    On shared hosts a CPU can run markedly slower for seconds at a time,
    independently of the other CPUs. Starting every request on the quieter
    CPU keeps most of that out of the figures; the program is single-threaded,
    so pinning does not change its work.
    """
    if len(CPUS) < 2:
        return
    fastest = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        elapsed = perf_counter() - start
        if fastest is None or elapsed < fastest[0]:
            fastest = (elapsed, cpu)
    os.sched_setaffinity(0, {fastest[1]})


def required_requests(args) -> int:
    return 0 if args.smoke else MIN_REQUESTS


def timed_blocks(inputs: Inputs, seconds: float, call, min_requests: int = 0) -> tuple[list, list, list]:
    """Whole request blocks until `seconds` have passed and `min_requests` ran.

    Returns the requests, their results and their wall times.
    """
    requests, results, times = [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(requests) < min_requests:
        for req in inputs.block():
            pin_quietest_cpu()
            t = perf_counter()
            try:
                result = call(req)
            except Exception as exc:  # a raising request is a failed request
                result = exc
            times.append(perf_counter() - t)
            requests.append(req)
            results.append(result)
    return requests, results, times


def traced_replay(tracer: Tracer, requests: list, call) -> tuple[list, list]:
    """The same requests again, each as a root span of the tracer."""
    results, times = [], []
    for i, req in enumerate(requests):
        pin_quietest_cpu()
        t = perf_counter()
        try:
            result = tracer.request(i, call, req)
        except Exception as exc:
            result = exc
        times.append(perf_counter() - t)
        results.append(result)
    return results, times


# --- in-process workloads ------------------------------------------------------


def inprocess_call(workload: str, bp, topologies: dict):
    def call(req):
        request = bp.TransferRequest(req["src"], req["dst"], req["data_gb"], req["budget"], MAX_ITERATIONS)
        topology = topologies[req["topology"]]
        if workload == "plan-bsearch":
            return bp.planner.plan_transfer(topology, request)
        return bp.simulate.compare(topology, request)

    return call


def inprocess_answer(workload: str, bp, result):
    """The program's answer in its documented JSON form."""
    if workload == "plan-bsearch":
        return None if result is None else bp.planner.plan_to_dict(result)
    return result.to_dict()


def inprocess_check(inputs: Inputs, req: dict, answer) -> list[str]:
    graph = inputs.graphs[req["topology"]]
    if inputs.workload == "plan-bsearch":
        return [] if answer is None else model.check_plan(graph, req, answer)
    return model.check_report(graph, req, answer, req["oracle"])


def digest_item(workload: str, answer):
    if answer is None:
        return None
    if workload == "plan-bsearch":
        return [answer["path"], answer["fraction_k"]]
    return [[row["label"], row["path"]] for row in answer["rows"]]


def setup_seconds(files: list[str]) -> list[float]:
    """Import plus load_topology of every input file, each time in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        pin_quietest_cpu()
        proc = _child([sys.executable, "-c", SETUP_CODE, *files])
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_inprocess(args, inputs: Inputs, report: "Report") -> None:
    setup = None if args.trace else setup_seconds(inputs.files)
    bp = import_program()
    topologies = {path: bp.load_topology(path) for path in inputs.files}
    call = inprocess_call(args.workload, bp, topologies)

    def check(requests: list, results: list) -> list:
        answers = report.check(
            requests,
            results,
            lambda req, result: inprocess_answer(args.workload, bp, result),
            lambda req, result, answer: inprocess_check(inputs, req, answer),
        )
        report.digest(inputs.block_size, [digest_item(args.workload, a) for a in answers])
        return answers

    if not args.trace:
        requests, results, times = timed_blocks(inputs, args.seconds, call, required_requests(args))
        check(requests, results)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report.end_to_end(times, setup, peak_kb / 1024.0)
        return

    requests, results, times = timed_blocks(inputs, args.seconds / 2, call)
    tracer = Tracer()
    tracer.install()
    for path in inputs.files:
        bp.topology.load_topology(path)
    traced_results, traced_times = traced_replay(tracer, requests, call)
    answers = check(requests + requests, results + traced_results)
    metrics = layer_metrics(tracer, traced_times, times)
    if args.workload == "plan-bsearch":
        outcomes = Counter(
            "insufficient" if a is None else "k1" if a["iterations_used"] == 0 else "bsearch_feasible"
            for a in answers[len(requests):]
        )
        for outcome in ("k1", "bsearch_feasible", "insufficient"):
            metrics[f"planner.outcome.{outcome}"] = outcomes[outcome] / len(requests)
    report.per_layer(metrics, tracer)


# --- cli-pipeline ---------------------------------------------------------------


class CliSession:
    """Turns cli-pipeline requests into argv lists with per-invocation output paths."""

    def __init__(self, inputs: Inputs, work_dir: Path):
        self.topology = str(ROOT / inputs.topology)
        self.work_dir = work_dir
        self.count = 0
        self.last_plan = None

    def argv(self, req: dict) -> tuple[list[str], dict]:
        self.count += 1
        out = self.work_dir / f"{req['cmd']}-{self.count}"
        record = {"out": str(out)}
        argv = [req["cmd"], "--topology", self.topology]
        if req["cmd"] == "render-wg":
            record["plan"] = self.last_plan
            argv += ["--plan", self.last_plan, "--seed", str(req["seed"]), "--out-dir", str(out)]
            return argv, record
        argv += ["--src", str(req["src"]), "--dst", str(req["dst"]),
                 "--data-gb", repr(req["data_gb"]), "--budget-usd", repr(req["budget"]),
                 "--iterations", str(MAX_ITERATIONS), "--out", str(out)]
        if req["cmd"] == "simulate":
            argv += ["--format", "structured"]
        elif req["exit"] == 0:
            self.last_plan = str(out)
        return argv, record

    def subprocess_call(self, req: dict) -> dict:
        argv, record = self.argv(req)
        proc = _child([sys.executable, "-m", "budgetpath.cli", *argv])
        return {**record, "exit": proc.returncode, "stderr": proc.stderr}

    def inprocess_call(self, bp):
        def call(req: dict) -> dict:
            argv, record = self.argv(req)
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = bp.cli.run(argv)
            return {**record, "exit": code, "stderr": stderr.getvalue()}

        return call


def cli_answer(req: dict, record: dict):
    if record["exit"] != 0:
        return None
    out = Path(record["out"])
    if req["cmd"] == "render-wg":
        return sorted(p.name for p in out.iterdir())
    return json.loads(out.read_text())


def cli_check(graph: model.Graph, req: dict, record: dict, answer) -> list[str]:
    if record["exit"] != req["exit"]:
        return [f"{req['cmd']} exited {record['exit']}, expected {req['exit']}: {record['stderr'][-300:]}"]
    if answer is None:
        return []
    if req["cmd"] == "plan":
        return model.check_plan(graph, req, answer)
    if req["cmd"] == "simulate":
        return model.check_report(graph, req, answer, expect_oracle=True)
    path = json.loads(Path(record["plan"]).read_text())["path"]
    return model.check_tunnel_dir(graph, path, record["out"])


def cli_digest_item(req: dict, answer):
    if answer is None or req["cmd"] == "render-wg":
        return answer
    if req["cmd"] == "plan":
        return [answer["path"], answer["fraction_k"]]
    return [[row["label"], row["path"]] for row in answer["rows"]]


def import_ms() -> dict:
    """Import times of `import budgetpath.cli`, from `python -X importtime`."""
    proc = _child([sys.executable, "-X", "importtime", "-c", "import budgetpath.cli"])
    rows = []  # (depth, cumulative us, module), children before their parent
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "[us]" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            rows.append(((len(name) - len(name.lstrip()) - 1) // 2, int(cumulative), name.strip()))

    def outermost(prefix: str) -> float:
        def matches(name):
            return name == prefix or name.startswith(prefix + ".")

        total = 0
        for i, (depth, cumulative, name) in enumerate(rows):
            parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
            if matches(name) and (parent is None or not matches(parent[2])):
                total += cumulative
        return total / 1000.0

    return {"cli.import_ms": outermost("budgetpath"), "cli.import.numpy_ms": outermost("numpy"),
            "cli.import.cryptography_ms": outermost("cryptography")}


def run_cli(args, inputs: Inputs, report: "Report", work_dir: Path) -> None:
    session = CliSession(inputs, work_dir)
    # Warm-up passes run one triple drawn apart from the request stream.
    warmup = Inputs("cli-pipeline", -args.seed, work_dir, True, ROOT).block()[:3]
    passes, invocations, imports = [], [], []
    for _ in range(CLI_WARMUP_PASSES):
        if args.trace:  # next to the invocations it is compared with
            pin_quietest_cpu()
            imports.append(import_ms())
        start = perf_counter()
        for req in warmup:
            pin_quietest_cpu()
            t = perf_counter()
            record = session.subprocess_call(req)
            invocations.append(perf_counter() - t)
            if record["exit"] != req["exit"]:
                raise SystemExit(f"warm-up {req['cmd']} exited {record['exit']}:\n{record['stderr'][-2000:]}")
        passes.append(perf_counter() - start)

    def check(requests: list, results: list) -> None:
        answers = report.check(
            requests,
            results,
            cli_answer,
            lambda req, record, answer: cli_check(inputs.graph, req, record, answer),
        )
        report.digest(inputs.block_size, [cli_digest_item(r, a) for r, a in zip(requests, answers)])

    if not args.trace:
        requests, results, times = timed_blocks(inputs, args.seconds, session.subprocess_call, required_requests(args))
        check(requests, results)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        report.end_to_end(times, passes, peak_kb / 1024.0)
        return

    bp = import_program()
    call = session.inprocess_call(bp)
    requests, results, times = timed_blocks(inputs, args.seconds / 2, call)
    tracer = Tracer()
    tracer.install()
    traced_results, traced_times = traced_replay(tracer, requests, call)
    check(requests + requests, results + traced_results)
    metrics = layer_metrics(tracer, traced_times, times)
    for key in imports[0]:
        metrics[key] = statistics.median(sample[key] for sample in imports)
    by_cmd = defaultdict(list)
    for req, seconds in zip(requests, times):
        by_cmd[req["cmd"]].append(seconds * 1000.0)
    for cmd in ("plan", "render-wg", "simulate"):
        metrics[f"cli.{cmd.replace('-', '_')}.ms"] = statistics.median(by_cmd[cmd])
    metrics["cli.import_share"] = metrics["cli.import_ms"] / (statistics.median(invocations) * 1000.0)
    report.per_layer(metrics, tracer)


# --- metrics and the report -------------------------------------------------------


def layer_metrics(tracer: Tracer, traced_times: list, untraced_times: list) -> dict:
    """Per-request means of calls and self time, plus ratios measured where the work happens."""
    n = len(traced_times)
    metrics = {}
    for name, _ in TARGETS:
        metrics[f"{name}.calls"] = tracer.calls[name] / n
        metrics[f"{name}.self_ms"] = tracer.self_s[name] * 1000.0 / n
    # loads happen once per file during set-up, so this one is a per-call mean
    loads = tracer.calls["topology.load_topology"]
    metrics["topology.load_topology.self_ms"] = (
        tracer.self_s["topology.load_topology"] * 1000.0 / loads if loads else 0.0
    )
    searches = tracer.calls["search.search_min_latency"]
    metrics["planner.rounds_feasible_share"] = (
        tracer.found["search.search_min_latency"] / searches if searches else 0.0
    )
    metrics["planner.weights_mb"] = tracer.weights_bytes / 2**20
    metrics["search.search_min_latency.aborts"] = (
        tracer.errors["search.search_min_latency", "ReconstructionError"] / n
    )
    metrics["simulate.naive_baseline.share"] = tracer.total_s["simulate.naive_baseline"] / sum(traced_times)
    metrics["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(untraced_times)
    metrics["trace.absent_layers"] = len(tracer.absent)
    for name in ("planner.outcome.k1", "planner.outcome.bsearch_feasible", "planner.outcome.insufficient",
                 "cli.import_ms", "cli.import.numpy_ms", "cli.import.cryptography_ms",
                 "cli.plan.ms", "cli.render_wg.ms", "cli.simulate.ms", "cli.import_share"):
        metrics[name] = 0.0  # set by the workload that exercises it
    return metrics


class Report:
    """Collects the checked answers and metrics, and prints them."""

    def __init__(self, args, spec: dict):
        self.args = args
        self.spec = spec
        self.attempted = 0
        self.failures: list = []  # (request index, request, problems)
        self.metrics: dict = {}
        self.lines: list[str] = []

    def check(self, requests: list, results: list, answer_of, check) -> list:
        """Check every result; returns the answers in their documented JSON form."""
        answers = []
        for i, (req, result) in enumerate(zip(requests, results)):
            answer = None
            if isinstance(result, Exception):
                problems = [f"raised {result!r}"]
            else:
                try:
                    answer = answer_of(req, result)
                    problems = check(req, result, answer)
                except Exception as exc:  # an unreadable answer is a failed request
                    problems = [f"unreadable answer: {exc!r}"]
            if problems:
                self.failures.append((i, req, problems))
            answers.append(answer)
        self.attempted += len(requests)
        return answers

    def digest(self, count: int, items: list) -> None:
        """Hash of the answers to the first block: a changed answer shows as a changed digest."""
        text = json.dumps(items[:count], sort_keys=True)
        self.lines.append(f"answers_digest      {hashlib.sha256(text.encode()).hexdigest()[:16]}"
                          f"  (first {min(count, len(items))} requests)")

    def end_to_end(self, times: list, setup: list, peak_mb: float) -> None:
        ms = [t * 1000.0 for t in times]
        p90 = statistics.quantiles(ms, n=10)[-1]
        self.metrics = {
            "request_ms_p50": statistics.median(ms),
            "request_ms_p90": p90,
            "requests_per_s": len(times) / sum(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb,
        }
        failed = len(self.failures)
        self.lines += [
            f"request_ms_p50      {self.metrics['request_ms_p50']:10.3f} ms   n={len(ms)}",
            f"request_ms_p90      {p90:10.3f} ms   n={len(ms)}, {sum(x > p90 for x in ms)} beyond",
            f"requests_per_s      {self.metrics['requests_per_s']:10.3f} 1/s  {len(ms)} requests"
            f" in {sum(times):.2f} s of requests",
            f"setup_s             {self.metrics['setup_s']:10.4f} s    median of {len(setup)}"
            f" ({', '.join(f'{s:.4f}' for s in setup)})",
            f"peak_rss_mb         {peak_mb:10.1f} MB",
            f"failed_share        {failed / self.attempted:10.4f}      {failed} of {self.attempted}",
        ]

    def per_layer(self, metrics: dict, tracer: Tracer) -> None:
        self.metrics = metrics
        trace_file = WORK / f"trace-{self.args.workload}-seed{self.args.seed}.jsonl"
        tracer.write(trace_file)
        self.lines += [f"{m['name']:<40} {metrics[m['name']]:12.4f} {m['unit']}" for m in self.spec["per_layer"]]
        self.lines.append(f"tracing overhead: traced request_ms_p50 / untraced = "
                          f"{metrics['trace.overhead_ratio']:.3f}")
        self.lines.append(f"absent layers: {', '.join(tracer.absent) or 'none'}")
        self.lines.append(f"{len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")

    def emit(self) -> None:
        for i, req, problems in self.failures:
            print(f"FAILED request {i} {json.dumps(req)}: {'; '.join(problems)}")
        for line in self.lines:
            print(line)
        kind = "per_layer" if self.args.trace else "end_to_end"
        metrics = {m["name"]: {"value": self.metrics[m["name"]], "unit": m["unit"]} for m in self.spec[kind]}
        print(json.dumps({"correct": not self.failures, "attempted": self.attempted,
                          "failed": len(self.failures), "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = guard()
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = Inputs(args.workload, args.seed, work_dir, args.smoke, ROOT)
        report = Report(args, spec)
        print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
              f"{' smoke' if args.smoke else ''}  python {platform.python_version()}"
              f" numpy {info['numpy']} cryptography {info['cryptography']}"
              f" {platform.machine()} cpus={os.cpu_count()}")
        if args.workload == "cli-pipeline":
            run_cli(args, inputs, report, work_dir)
        else:
            run_inprocess(args, inputs, report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
