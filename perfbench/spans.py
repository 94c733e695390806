"""Span tracing installed around budgetpath's functions from outside the program.

`install` replaces each target function at every name the program calls it
by: module globals that hold the same function object (for instance
`budgetpath.planner.build_weights` and `budgetpath.simulate.build_weights`)
and class attributes for methods (`Topology.rtt`). A target that a later
refactor removed is reported as absent instead of failing the run.

Three kinds of wrapper keep the trace bounded:

* "span": timed, and a span record (name, start, end, parent, request) is
  kept in memory for the trace file;
* "hot": timed for self time, but no span record, because it is called tens
  of thousands of times per request (`Topology.rtt`, `Topology.neighbors`);
* "count": call counter only (the billing functions).

Self time is a span's duration minus the time covered by its timed children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

TARGETS = [
    ("topology.load_topology", "span"),
    ("topology.Topology.rtt", "hot"),
    ("topology.Topology.neighbors", "hot"),
    ("billing.select_billing", "count"),
    ("billing.node_cost", "count"),
    ("billing.edge_latency", "count"),
    ("planner.build_weights", "span"),
    ("planner._finalize", "span"),
    ("search.search_min_latency", "span"),
    ("search.enumerate_best_path", "span"),
    ("simulate.naive_baseline", "span"),
    ("simulate.simulate_transfer", "span"),
    ("tunnels.build_tunnels", "span"),
    ("tunnels.generate_keypair", "span"),
    ("tunnels.render_conf", "span"),
    ("tunnels.write_tunnel_files", "span"),
    ("cli.run", "span"),
]


def _array_bytes(result) -> int:
    """Summed nbytes of the arrays held by the weights object `build_weights` returned."""
    weights = result[0] if isinstance(result, tuple) else result
    return sum(getattr(v, "nbytes", 0) for v in getattr(weights, "__dict__", {}).values())


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self.found: Counter = Counter()  # calls that returned something other than None
        self.weights_bytes = 0
        self.spans: list = []  # (name, start, end, parent span index, request id)
        self.absent: list[str] = []
        self._stack: list = []  # open frames: [child seconds, span index]
        self._request = None

    # -- wrappers --

    def _timed(self, name: str, fn, keep_span: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][1] if stack else None
            index = parent
            if keep_span:
                index = len(self.spans)
                self.spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    self.spans[index] = (name, start, end, parent, self._request)
            if result is not None:
                self.found[name] += 1
            if name == "planner.build_weights":
                self.weights_bytes = max(self.weights_bytes, _array_bytes(result))
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "budgetpath"]
        for name, kind in TARGETS:
            module, *owners, attr = name.split(".")
            owner = sys.modules.get(f"budgetpath.{module}")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            if kind == "count":
                wrapper = self._counted(name, fn)
            else:
                wrapper = self._timed(name, fn, keep_span=kind == "span")
            if owners:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    # -- requests --

    def request(self, request_id, fn, *args):
        """Run one request as a root span."""
        self._request = request_id
        return self._timed("request", fn, keep_span=True)(*args)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
