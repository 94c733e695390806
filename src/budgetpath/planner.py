"""Transfer planning: billing-aware weight construction plus the bandwidth
binary search that shrinks PAYG rates until a budget-feasible path exists.

`plan_outcome` is the planner and says why a request ended; `plan_transfer`
returns only its plan. Its k = 1 round prices every node, and the cost
floors, one list per request, read those costs; each bisection round
prices a node only when its search first reads the node's cost and the
node's floor does not already put the label over the budget. The
bisection runs no round below `LEAST_K`, so every round prices inside the
operating domain (see `billing`): a round is None only where no path is
within the budget at its k, and a floor above the budget proves that no
round can meet it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from heapq import heappop, heappush

from budgetpath.billing import (
    FLOOR_SHARE,
    LEAST_K,
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
from budgetpath.topology import (
    MAX_EGRESS_MBPS, MIN_EGRESS_MBPS, EdgeList, NoPathError, Topology, check_node_ids, read_json,
)


# the least bandwidth any plan bills: the least k times the least cap
LEAST_BANDWIDTH_MBPS = LEAST_K * MIN_EGRESS_MBPS

# (test, what it asks for) of each kind of number a plan holds
_NON_NEGATIVE = (lambda value: 0 <= value < math.inf, "a finite number >= 0")
_BANDWIDTH = (
    lambda value: LEAST_BANDWIDTH_MBPS <= value <= MAX_EGRESS_MBPS,
    f"a number in [{LEAST_BANDWIDTH_MBPS!r}, {MAX_EGRESS_MBPS:g}]",
)
_FRACTION = (lambda value: LEAST_K <= value <= 1, "a number in [2**-64, 1]")


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
    the tests. The planner itself passes each round's two lists straight to
    `search.search_core` and builds no `EdgeWeights`. Every node's PAYG
    candidate bandwidth is fraction_k times its cap; the billing rule then
    picks the method (PFDT restores the full rate). Billing is per sending
    node, so one pass over the nodes (`billing.price_round`, which must stay
    equal to `billing.price` node by node) prices the round: a node's egress
    cost is its `a` and its transmission time at the configured bandwidth
    its `b`, whichever edge it sends on. ValueError for a fraction outside
    [`LEAST_K`, 1], then for an unknown rule.
    """
    if not LEAST_K <= fraction_k <= 1:
        raise ValueError(f"fraction_k must be in [2**-64, 1], got {fraction_k}")
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


def floor_distance(
    edges: EdgeList, source: int, destination: int, floors: Sequence[float]
) -> float:
    """The least sum of `floors` over the senders of any path from `source` to `destination`.

    A Dijkstra over the edge list's rows, each sender adding its own entry
    of `floors`, one per node; inf means that no path leads there. Like
    `search.search_core` it checks nothing: the caller vouches for node ids
    as endpoints and one finite floor >= 0 per node.
    """
    rows = edges.rows
    dist = [math.inf] * edges.n
    dist[source] = 0.0
    frontier = [(0.0, source)]
    while frontier:
        d, u = heappop(frontier)
        if u == destination:
            return d
        if d > dist[u]:
            continue
        new_d = d + floors[u]
        for v, _ in rows[u]:
            if new_d < dist[v]:
                dist[v] = new_d
                heappush(frontier, (new_d, v))
    return math.inf


class PlanOutcome(Record):
    """What planning one request found, and why it ended where it did.

    `plan` is the `Plan`, or None. `floor` is the request's
    `floor_distance`, worked out only once the k = 1 round missed the
    budget, and None when that round met it. `proved` is whether the floor
    is above the budget by more than the margin, so that no round can meet
    it: a None plan that is not proved is one that no round of the heuristic
    search met, though the floor may be above the budget. `rounds` holds one
    (k, result) pair per round, step 1 first at k = 1.0, where `result` is
    the round's `PathResult`, or None for a round that found no path within
    the budget.
    """

    __slots__ = _fields = ("plan", "floor", "proved", "rounds")


def plan_outcome(
    topology: Topology,
    request: TransferRequest,
    rule: str = "threshold",
) -> PlanOutcome:
    """Plan a transfer: full bandwidth first, then a binary search over one fraction k.

    Step 1 tries every node at full bandwidth (k = 1) and returns the plan
    with zero binary iterations if it fits the budget. Otherwise every
    node's `billing.cost_floor` is worked out once, from its k = 1 cost, and
    one `floor_distance` over that list follows: NoPathError if no path
    reaches the destination, and a proved None without a further round if
    the least summed floor is above the budget, so that no round can meet it.
    Then a uniform bandwidth fraction k is binary searched in the bracket
    [k_lower, k_upper] for at most `max_iterations` rounds, keeping the most
    recent feasible round; its plan is built once, after the search, and
    reports `max_iterations` as its iterations. A round that leaves k
    unchanged ends the search: every later round would repeat its k, its
    bracket and its plan. So does a next k below `LEAST_K`, which only a
    search whose every round was None reaches. A None plan after the search
    is not proved: no round was feasible, though the floors do not rule
    every k out.

    The k = 1 round is `billing.price_round` plus `search.search_core` on
    its two lists. A bisection round prices the source with `price_round`
    over the source alone and leaves every other node to the search, which
    prices a node the first time it reads its cost. Before it prices a node,
    it drops a label whose cost plus the node's `billing.cost_floor`, times
    `billing.FLOOR_SHARE`, is over the budget: no cost the node has at any
    k is below that, so the exact test would drop the label too. The rounds
    read the list that the floor search summed, so each floor is worked out
    once per request. Every round walks the topology's edge list as it is,
    so a request builds no edge state of its own.

    The request is checked once, in the order that `build_weights` and
    `search_min_latency` would check it: ValueError for an unknown rule,
    then TopologyError for an endpoint that is not a node id. The budget is
    >= 0, as every `TransferRequest` holds, and the lists are finite and
    >= 0 where `price_round` makes them, so no round checks them again.
    """
    source, destination, budget = request.source, request.destination, request.budget_usd
    nodes, edges, data_size_gb = topology.nodes, topology.edges, request.data_size_gb
    n = edges.n
    check_rule(rule)
    full_rate_costs, b = price_round(nodes, 1.0, data_size_gb, rule)
    check_node_ids(n, source=source, destination=destination)
    result = search_core(edges, full_rate_costs, b, source, destination, budget)
    rounds = [(1.0, result)]
    if result is not None:
        plan = _finalize(topology, request, rule, result, 1.0, 0)
        return PlanOutcome(plan, None, False, tuple(rounds))
    floors = [cost_floor(node, cost, data_size_gb) for node, cost in zip(nodes, full_rate_costs)]
    floor = floor_distance(edges, source, destination, floors)
    if floor == math.inf:
        raise NoPathError(source, destination)
    if floor > budget * (1.0 + _FLOOR_MARGIN):
        return PlanOutcome(None, floor, True, tuple(rounds))

    # no cost of a node falls below this share of its floor
    drop_floors = [f * FLOOR_SHARE for f in floors]
    feasible = None  # the last feasible round's (result, k)
    source_nodes = (nodes[source],)
    k, k_lower, k_upper = 0.5, 0.0, 1.0
    for _ in range(request.max_iterations):
        # every node but the source is priced when the search first reads its cost,
        # unless its floor drops the label first
        a, b = [None] * n, [None] * n
        # the source's cost and time at k, as `price` bills them, in one call
        (a[source],), (b[source],) = price_round(source_nodes, k, data_size_gb, rule)
        pricing = (nodes, k, data_size_gb, rule, drop_floors)
        result = search_core(edges, a, b, source, destination, budget, pricing)
        rounds.append((k, result))
        if result is not None:
            feasible = result, k
            k_lower = k
        else:
            k_upper = k
        next_k = (k_lower + k_upper) / 2.0
        # the midpoint rounds to k once the bracket is as narrow as floats allow,
        # where every later round would repeat this one, and no round runs below
        # the least k
        if next_k == k or next_k < LEAST_K:
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
    known method and a bandwidth in [`LEAST_BANDWIDTH_MBPS`, 1e9], the
    predicted totals are ones `Plan` accepts (finite and >= 0), `fraction_k`
    is in [`LEAST_K`, 1], as in every plan the planner makes, and
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
        bandwidth = _plan_number("bandwidth_mbps", entry["bandwidth_mbps"], _BANDWIDTH, where)
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
