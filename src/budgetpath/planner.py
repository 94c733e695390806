"""Transfer planning: billing-aware weight construction plus the bandwidth
binary search that shrinks PAYG rates until a budget-feasible path exists.

`plan_outcome` is the planner and says why a request ended; `plan_transfer`
returns only its plan.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from heapq import heappop, heappush

from budgetpath.billing import (
    BillingMethod,
    NodeBillingConfig,
    TransferRequest,
    check_rule,
    cost_floor,
    price,
    price_round,
)
from budgetpath.records import Record
from budgetpath.search import EdgeWeights, PathResult, search_core
from budgetpath.topology import NoPathError, Topology, check_node_ids, read_json


# (test, what it asks for) of each kind of number a plan holds
_POSITIVE = (lambda value: 0 < value < math.inf, "a finite number > 0")
_NON_NEGATIVE = (lambda value: 0 <= value < math.inf, "a finite number >= 0")
_FRACTION = (lambda value: 0 < value <= 1, "a number in (0, 1]")


def _plan_number(key: str, value, kind: tuple, where: str = "plan") -> float:
    """`value` as a float; ValueError unless it is a number (not a bool) of the given kind."""
    valid, expected = kind
    if type(value) not in (int, float) or not valid(value):
        raise ValueError(f"{where} {key} must be {expected}, got {value!r}")
    return float(value)


class Plan(Record):
    """A chosen path with per-node billing and its predicted cost/latency.

    The path is one the pipeline can render as a tunnel chain: at least two
    nodes, none visited twice. The predicted totals must be numbers, finite
    and >= 0, and are kept as floats, so no plan is made that its own file
    would refuse. ValueError otherwise, with the message a plan file gets.
    `configs` holds exactly the billed senders, `path[:-1]`: the final hop
    has no billed egress, so the destination and off-path nodes have no
    entry. The dict makes a plan unhashable.
    """

    __slots__ = _fields = (
        "path", "configs", "predicted_cost_usd", "predicted_latency_s", "fraction_k",
        "iterations_used",
    )

    def __init__(
        self,
        path: tuple[int, ...],
        configs: dict[int, NodeBillingConfig],
        predicted_cost_usd: float,
        predicted_latency_s: float,
        fraction_k: float,
        iterations_used: int,
    ) -> None:
        if len(path) < 2:
            raise ValueError(f"plan path must have at least 2 nodes, got {len(path)}")
        if len(set(path)) < len(path):
            node = next(node for i, node in enumerate(path) if node in path[:i])
            raise ValueError(f"plan path visits node {node} twice")
        predicted_cost_usd = _plan_number("predicted_cost_usd", predicted_cost_usd, _NON_NEGATIVE)
        predicted_latency_s = _plan_number(
            "predicted_latency_s", predicted_latency_s, _NON_NEGATIVE
        )
        super().__init__(
            path, configs, predicted_cost_usd, predicted_latency_s, fraction_k, iterations_used
        )


def build_weights(
    topology: Topology,
    request: TransferRequest,
    fraction_k: float,
    rule: str = "threshold",
) -> EdgeWeights:
    """Weights for one candidate configuration at bandwidth fraction `fraction_k`.

    The weights of one of `plan_transfer`'s rounds, for callers outside it:
    the oracle and `simulate.compare`'s oracle row, the `oracle` command and
    the tests. The planner itself passes `price_round`'s lists straight to
    `search.search_core` and builds no `EdgeWeights`. Every node's PAYG
    candidate bandwidth is fraction_k times its cap; the billing rule then
    picks the method (PFDT restores the full rate). Billing is per sending
    node, so one pass over the nodes (`billing.price_round`, which must stay
    equal to `billing.price` node by node) prices the round: a node's egress
    cost is its `a` and its transmission time at the configured bandwidth
    its `b`, whichever edge it sends on. ValueError for a fraction outside
    (0, 1] or an unknown rule, then for a bandwidth of 0, and one that names
    the first node whose time or cost is not a finite number, both from
    `price_round`.
    """
    if not 0 < fraction_k <= 1:
        raise ValueError(f"fraction_k must be in (0, 1], got {fraction_k}")
    check_rule(rule)
    a, b = price_round(topology.nodes, fraction_k, request.data_size_gb, rule)
    return EdgeWeights(topology.edges, tuple(a), tuple(b))


def _finalize(
    topology: Topology, request: TransferRequest, rule: str, result: PathResult,
    fraction_k: float, iterations_used: int,
) -> Plan:
    """The plan of one round's path: its senders priced as `price_round` priced
    them at `fraction_k`, and the search's own totals."""
    nodes, data_size_gb = topology.nodes, request.data_size_gb
    configs = {
        i: NodeBillingConfig(
            *price(nodes[i], fraction_k * nodes[i].max_egress_mbps, data_size_gb, rule)[:2]
        )
        for i in result.path[:-1]
    }
    return Plan(
        result.path, configs, result.total_a, result.total_b, fraction_k, iterations_used
    )


# relative slack on the budget, far above the float rounding in a path's summed floors
# or summed costs, so a budget some round could meet is never refused by the floors
_FLOOR_MARGIN = 1e-9


def cost_floor_distance(
    topology: Topology, request: TransferRequest, full_rate_costs: Sequence[float]
) -> float:
    """The least sum of `billing.cost_floor` over the senders of any path to the destination.

    `full_rate_costs` holds each node's cost at k = 1, the costs of
    `price_round(topology.nodes, 1.0, request.data_size_gb, rule)`. No round
    at any k bills a path below this sum, save for a PAYG cost that
    underflows at a bandwidth near the smallest float, which only a payload
    under about 1e-10 GB reaches; inf means that no path leads from the
    source to the destination. TopologyError for an endpoint that is not a
    node id.
    """
    check_node_ids(topology.edges.n, source=request.source, destination=request.destination)
    return _floor_distance(topology, request, full_rate_costs)


def _floor_distance(
    topology: Topology, request: TransferRequest, full_rate_costs: Sequence[float]
) -> float:
    """`cost_floor_distance` for endpoints that are node ids.

    A Dijkstra from the source, each sender adding its floor, worked out
    only when the node is popped; it returns when the destination is popped.
    A sum that overflows reads as the largest float, so a reached
    destination never reads as an unreachable one.
    """
    source, destination, data_size_gb = request.source, request.destination, request.data_size_gb
    nodes, edges = topology.nodes, topology.edges
    offsets, dst = edges.offsets, edges.dst
    dist = [math.inf] * edges.n
    dist[source] = 0.0
    frontier = [(0.0, source)]
    while frontier:
        d, u = heappop(frontier)
        if u == destination:
            return d
        if d > dist[u]:
            continue
        new_d = min(d + cost_floor(nodes[u], full_rate_costs[u], data_size_gb), sys.float_info.max)
        for v in dst[offsets[u] : offsets[u + 1]]:
            if new_d < dist[v]:
                dist[v] = new_d
                heappush(frontier, (new_d, v))
    return math.inf


class PlanOutcome(Record):
    """What planning one request found, and why it ended where it did.

    `plan` is the `Plan`, or None. `floor` is the request's
    `cost_floor_distance`, worked out only once the k = 1 round missed the
    budget, and None when that round met it. `proved` is whether the floor
    is above the budget by more than the margin, so that no k can meet it:
    a None plan that is not proved is one that no round of the heuristic
    search met. `rounds` holds one (k, result) pair per round, step 1 first
    at k = 1.0, where `result` is the round's `PathResult`, or None for a
    round that found no path within the budget or could not price a node.
    """

    __slots__ = _fields = ("plan", "floor", "proved", "rounds")


def plan_outcome(
    topology: Topology,
    request: TransferRequest,
    rule: str = "threshold",
) -> PlanOutcome:
    """Plan a transfer: full bandwidth first, then a binary search over one fraction k.

    Step 1 tries every node at full bandwidth (k = 1) and returns the plan
    with zero binary iterations if it fits the budget. Otherwise one
    `cost_floor_distance` search follows: NoPathError if no path reaches the
    destination, and a proved None without a further round if the least
    summed cost floor is above the budget, which no k can meet. Then a
    uniform bandwidth fraction k is binary searched in the bracket
    [k_lower, k_upper] for at most `max_iterations` rounds, keeping the most
    recent feasible round; its plan is built once, after the search, and
    reports `max_iterations` as its iterations. A round that leaves k
    unchanged ends the search: every later round would repeat its k, its
    bracket and its plan. A None plan after the search is not proved: no
    round was feasible, though the floors do not rule every k out.

    A round is `billing.price_round` plus `search.search_core` on its two
    lists. The request is checked once, in the order that `build_weights`
    and `search_min_latency` would check it: ValueError for an unknown rule,
    then `price_round`'s for a node it refuses at k = 1, then TopologyError
    for an endpoint that is not a node id. The budget is >= 0, as every
    `TransferRequest` holds, and the lists are finite and >= 0 where
    `price_round` makes them, so no round checks them again.
    """
    source, destination, budget = request.source, request.destination, request.budget_usd
    nodes, edges, data_size_gb = topology.nodes, topology.edges, request.data_size_gb
    check_rule(rule)
    full_rate_costs, b = price_round(nodes, 1.0, data_size_gb, rule)
    check_node_ids(edges.n, source=source, destination=destination)
    result = search_core(edges, full_rate_costs, b, source, destination, budget)
    rounds = [(1.0, result)]
    if result is not None:
        plan = _finalize(topology, request, rule, result, 1.0, 0)
        return PlanOutcome(plan, None, False, tuple(rounds))
    floor = _floor_distance(topology, request, full_rate_costs)
    if floor == math.inf:
        raise NoPathError(source, destination)
    if floor > budget * (1.0 + _FLOOR_MARGIN):
        return PlanOutcome(None, floor, True, tuple(rounds))

    feasible = None  # the last feasible round's (result, k)
    k, k_lower, k_upper = 0.5, 0.0, 1.0
    for _ in range(request.max_iterations):
        try:
            a, b = price_round(nodes, k, data_size_gb, rule)
        except ValueError:
            # k is in (0, 1] and the rule passed at k = 1, so a node cannot be
            # priced at this k: its bandwidth is 0, or its time or cost is not
            # a finite number. No path is affordable at this k
            result = None
        else:
            result = search_core(edges, a, b, source, destination, budget)
        rounds.append((k, result))
        if result is not None:
            feasible = result, k
            k_lower = k
        else:
            k_upper = k
        next_k = (k_lower + k_upper) / 2.0
        # the midpoint rounds to k once the bracket is as narrow as floats allow,
        # and halving the smallest positive float gives 0.0, which is no
        # bandwidth: either way every later round would repeat this one
        if next_k == k or next_k == 0.0:
            break
        k = next_k
    plan = None
    if feasible is not None:
        plan = _finalize(topology, request, rule, *feasible, request.max_iterations)
    return PlanOutcome(plan, floor, False, tuple(rounds))


def plan_transfer(
    topology: Topology,
    request: TransferRequest,
    rule: str = "threshold",
) -> Plan | None:
    """`plan_outcome`'s plan: None for a budget that the floors proved too
    small or that no round met, which the outcome tells apart."""
    return plan_outcome(topology, request, rule).plan


_METHOD_NAMES = {BillingMethod.PAYG: "payg", BillingMethod.PFDT: "pfdt"}
_METHOD_VALUES = {"payg": BillingMethod.PAYG, "pfdt": BillingMethod.PFDT}
_PLAN_KEYS = (
    "path", "per_node", "predicted_cost_usd", "predicted_latency_s", "fraction_k", "iterations_used"
)


def plan_to_dict(plan: Plan) -> dict:
    """JSON-ready form; `per_node` lists the billed senders."""
    return {
        "path": list(plan.path),
        "per_node": {
            str(node_id): {
                "method": _METHOD_NAMES[config.method],
                "bandwidth_mbps": config.bandwidth_mbps,
            }
            for node_id, config in sorted(plan.configs.items())
        },
        "predicted_cost_usd": plan.predicted_cost_usd,
        "predicted_latency_s": plan.predicted_latency_s,
        "fraction_k": plan.fraction_k,
        "iterations_used": plan.iterations_used,
    }


def plan_from_dict(doc: dict, n_nodes: int) -> Plan:
    """Plan from its JSON form, checked against a topology of `n_nodes` nodes.

    ValueError unless the document is an object with every key present, the
    path is a list naming only nodes of the topology and one `Plan` accepts
    (at least two nodes, none twice), `per_node` is an object keyed by
    exactly the path's senders as decimal strings, each an object with a
    known method and a finite bandwidth > 0, the predicted totals are ones
    `Plan` accepts (finite and >= 0), `fraction_k` is in (0, 1] and
    `iterations_used` is an integer >= 0. Booleans are not numbers, and no
    value is converted from another type.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"plan must be an object, got {type(doc).__name__}")
    missing = [key for key in _PLAN_KEYS if key not in doc]
    if missing:
        raise ValueError(f"plan has no {', '.join(missing)}")
    if not isinstance(doc["path"], list):
        raise ValueError(f"plan path must be a list of node ids, got {doc['path']!r}")
    path = tuple(doc["path"])
    for node_id in path:
        if type(node_id) is not int or node_id not in range(n_nodes):
            raise ValueError(
                f"plan path names node {node_id!r}, but the topology has {n_nodes} nodes"
            )
    if not isinstance(doc["per_node"], dict):
        raise ValueError(f"plan per_node must be an object, got {doc['per_node']!r}")
    per_node = doc["per_node"]
    senders = path[:-1]
    keys = [str(node_id) for node_id in senders]
    if len(per_node) != len(keys) or set(per_node) != set(keys):
        raise ValueError(
            f"plan per_node lists nodes {list(per_node)}, but the path's senders are {keys}"
        )
    configs = {}
    for node_id, key in zip(senders, keys):
        entry = per_node[key]
        if not (
            isinstance(entry, dict)
            and entry.get("method") in _METHOD_VALUES
            and "bandwidth_mbps" in entry
        ):
            raise ValueError(
                f"plan per_node entry {node_id} needs a method (payg or pfdt) and a bandwidth_mbps"
            )
        where = f"plan per_node entry {node_id}"
        bandwidth = _plan_number("bandwidth_mbps", entry["bandwidth_mbps"], _POSITIVE, where)
        configs[node_id] = NodeBillingConfig(_METHOD_VALUES[entry["method"]], bandwidth)
    iterations_used = doc["iterations_used"]
    if type(iterations_used) is not int or iterations_used < 0:
        raise ValueError(f"plan iterations_used must be an integer >= 0, got {iterations_used!r}")
    return Plan(
        path=path,
        configs=configs,
        predicted_cost_usd=doc["predicted_cost_usd"],
        predicted_latency_s=doc["predicted_latency_s"],
        fraction_k=_plan_number("fraction_k", doc["fraction_k"], _FRACTION),
        iterations_used=iterations_used,
    )


def load_plan(path, n_nodes: int) -> Plan:
    """Read a plan file and check it against a topology of `n_nodes` nodes.

    An error in reading the file names it.
    """
    return plan_from_dict(read_json(path), n_nodes)
