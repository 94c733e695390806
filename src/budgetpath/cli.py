"""Command line front end.

Exit codes: 0 success, 2 infeasible (an insufficient budget, a budget that
no round of the heuristic search met, or NoPathError for an unreachable
destination), 1 usage or input error. `plan` tells the first two apart by
the planner's own `PlanOutcome`, with no second search. Only `probe` touches
the network; `--seed` makes key generation byte-reproducible.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

# Only what `plan` needs is imported here; the other subcommands import
# their modules themselves, so no invocation pays for code it never runs.
from budgetpath.billing import RULES, TransferRequest
from budgetpath.planner import (
    build_weights, cost_floor_distance, load_plan, plan_outcome, plan_to_dict,
)
from budgetpath.search import ORACLE_MAX_NODES, enumerate_best_path
from budgetpath.topology import NoPathError, json_text, load_topology, number_text, read_json

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
INSUFFICIENT_BUDGET = "insufficient budget: no feasible path found"
# a `None` from the binary search at a budget that the cost floors do not refuse
NO_ROUND_MET = (
    "no plan found: no round of the heuristic search met the budget ${budget!r}, "
    "but the cost floor ${floor!r} does not prove it too small"
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; our contract reserves 2
    # for infeasibility, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _add_topology_args(parser) -> None:
    parser.add_argument("--topology", required=True, help="topology JSON file")
    parser.add_argument("--mode", choices=["directed", "undirected"], default="undirected")


def _add_request_args(parser) -> None:
    parser.add_argument("--src", type=int, required=True)
    parser.add_argument("--dst", type=int, required=True)
    parser.add_argument("--data-gb", type=float, required=True)
    parser.add_argument("--budget-usd", type=float, required=True)
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument("--rule", choices=RULES, default="threshold")


def _request(args) -> TransferRequest:
    return TransferRequest(args.src, args.dst, args.data_gb, args.budget_usd, args.iterations)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_plan(args, topology) -> int:
    request = _request(args)
    outcome = plan_outcome(topology, request, args.rule)
    plan = outcome.plan
    if plan is None:
        if outcome.proved:
            print(INSUFFICIENT_BUDGET, file=sys.stderr)
        else:
            print(NO_ROUND_MET.format(budget=request.budget_usd, floor=outcome.floor),
                  file=sys.stderr)
        return EXIT_INFEASIBLE
    _emit(json_text(plan_to_dict(plan)), args.out)
    print(
        f"path {'->'.join(map(str, plan.path))}  "
        f"cost ${number_text(plan.predicted_cost_usd, 4)}  "
        f"latency {number_text(plan.predicted_latency_s, 2)}s  k={plan.fraction_k}",
        file=sys.stderr,
    )
    return EXIT_OK


def _load_keys(path: str, n_nodes: int) -> dict:
    """The node id -> key pair map of a `--keys` file for a topology of `n_nodes` nodes.

    A file that is not UTF-8 JSON, or an entry that is not a node id and a
    base64 private key, is reported with the file's path. A node id is
    written as plan `per_node` keys are, `str(i)` for a node i of the
    topology; entries for nodes off the path are allowed.
    """
    from budgetpath.tunnels import keypair_from_private_b64

    doc = read_json(path)
    if not isinstance(doc, dict) or not all(isinstance(private, str) for private in doc.values()):
        raise ValueError(f"keys file {path}: expected an object of node id -> base64 private key")
    keys = {}
    for node_id, private in doc.items():
        try:
            node = int(node_id)
            if node_id != str(node) or node not in range(n_nodes):
                raise ValueError(f"not a node id of the topology, which has {n_nodes} nodes")
            keys[node] = keypair_from_private_b64(private)
        except ValueError as exc:
            raise ValueError(f"{path}: entry {node_id!r}: {exc}") from exc
    return keys


def _cmd_render_wg(args, topology) -> int:
    import random

    from budgetpath.tunnels import build_tunnels, write_tunnel_files

    plan = load_plan(args.plan, len(topology))
    entropy_source = None
    if args.seed is not None:
        rng = random.Random(args.seed)
        entropy_source = lambda: rng.randbytes(32)
    identity_keys = _load_keys(args.keys, len(topology)) if args.keys else None
    specs = build_tunnels(plan, topology, args.subnet, args.port, entropy_source, identity_keys)
    manifest = write_tunnel_files(specs, topology, args.out_dir)
    print(
        f"wrote {len(specs)} tunnel configs to {args.out_dir} "
        "(apply with wg-quick up <file> on each host)",
        file=sys.stderr,
    )
    for name in sorted(manifest):
        print(f"  {name}: {manifest[name]['public_key']}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args, topology) -> int:
    from budgetpath.simulate import compare

    report = compare(topology, _request(args), args.rule)
    _emit(report.to_table() if args.format == "table" else report.to_json(), args.out)
    print("simulation complete", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args, topology) -> int:
    request = _request(args)
    # priced first at k = 1, as `plan` prices, so a node that cannot be priced is
    # the one `plan` names; the floor distance reads the k = 1 costs
    weights = build_weights(topology, request, 1.0, args.rule)
    full_rate_costs = weights.a
    if args.fraction != 1.0:
        weights = build_weights(topology, request, args.fraction, args.rule)
    # checked before enumerating, so it comes ahead of a --max-nodes refusal
    if cost_floor_distance(topology, request, full_rate_costs) == math.inf:
        raise NoPathError(request.source, request.destination)
    result = enumerate_best_path(
        weights, request.source, request.destination, request.budget_usd,
        max_nodes=args.max_nodes,
    )
    if result is None:
        print(INSUFFICIENT_BUDGET, file=sys.stderr)
        return EXIT_INFEASIBLE
    doc = {
        "path": list(result.path),
        "total_cost_usd": result.total_a,
        "total_latency_s": result.total_b,
    }
    _emit(json_text(doc), args.out)
    return EXIT_OK


def _cmd_probe(args, topology) -> int:
    from budgetpath.probe import probe_rtts
    from budgetpath.topology import save_topology

    probed = probe_rtts(topology, args.attempts)
    save_topology(probed, args.out)
    print(f"probed {len(probed.links)} links, wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="budgetpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[], help="find a budget-feasible minimum-latency path")
    _add_topology_args(p)
    _add_request_args(p)
    p.add_argument("--out", help="write plan JSON here (default stdout)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("render-wg", help="render a plan as chained WireGuard configs")
    _add_topology_args(p)
    p.add_argument("--plan", required=True, help="plan JSON from the plan subcommand")
    p.add_argument("--subnet", default="10.44.0.0/24")
    p.add_argument("--port", type=int, default=51820)
    p.add_argument("--seed", type=int, help="deterministic key entropy (tests only)")
    p.add_argument("--keys", help="JSON file of node id -> base64 private key for stable identities")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=_cmd_render_wg)

    p = sub.add_parser("simulate", help="compare planner, naive baseline and oracle")
    _add_topology_args(p)
    _add_request_args(p)
    p.add_argument("--format", choices=["table", "structured"], default="table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("oracle", help="exact exhaustive search (small graphs)")
    _add_topology_args(p)
    _add_request_args(p)
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--max-nodes", type=int, default=ORACLE_MAX_NODES)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("probe", help="measure link RTTs with ping")
    _add_topology_args(p)
    p.add_argument("--attempts", type=int, default=3)
    p.add_argument("--out", required=True, help="write probed topology here")
    p.set_defaults(func=_cmd_probe)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, load_topology(args.topology, args.mode))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    except NoPathError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    # TopologyError, SearchError, SimulationError and TunnelError are all
    # ValueErrors; naming them here would import their modules.
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
