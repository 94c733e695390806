"""Edge cost and latency models for cloud egress billing.

Two billing methods are modeled:

* PAYG (pay-as-you-go): billed per purchased Mbps per hour, hours rounded
  up, independent of utilization.
* PFDT (pay-for-data-transfer): billed per GB sent, independent of
  bandwidth; the node transmits at its full egress rate.

`price` is the one definition of how a node's method is chosen: it returns
the method, bandwidth, cost and transmission time as plain values.
`price_round` prices every node of a planner round in one pass, with
`price`'s float operations written out in the same order; it must stay
equal to `price` node by node, a refusal's message included, which a
seeded test checks bit for bit. `search.search_core` writes the same
operations out once more, to price one node of a bisection round when its
search first reads it; the same test checks that copy, and
`refuses_no_node` bounds, in O(1), whether any node it did not read would
be refused.
`select_billing` wraps `price` for callers that want a `NodeBillingConfig`,
and `cost_floor` bounds it from below over every bandwidth fraction from the
node's cost at full rate, as the k = 1 round priced it. `floors_hold`
bounds, in O(1), the fractions at which that holds in floats, up to
`FLOOR_SHARE`: there the planner proves a budget insufficient without a
further round, and a bisection round drops a label by its node's floor
before it prices the node.

Units are fixed package-wide: bandwidth in Mbps (10^6 bit/s), data size in
GB (10^9 bytes), latency in seconds, money in USD.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from enum import IntEnum

from budgetpath.records import Record
from budgetpath.topology import NodeSpec

BITS_PER_GB = 8e9
BITS_PER_MBPS = 1e6
SECONDS_PER_HOUR = 3600.0
RULES = ("threshold", "exact-cost")


class BillingMethod(IntEnum):
    PAYG = 1
    PFDT = 2


class NodeBillingConfig(Record):
    """Billing method and configured egress bandwidth for one node.

    PFDT always runs at the node's full egress rate; PAYG runs at whatever
    bandwidth was purchased.
    """

    __slots__ = _fields = ("method", "bandwidth_mbps")


class TransferRequest(Record):
    """One bulk transfer to plan: endpoints, size, budget, iteration cap.

    The endpoints and the iteration cap must be integers (a bool is not one),
    the endpoints two different nodes, the data size > 0 and small enough
    (at most about 2.247e298 GB) that its size in bits is a finite number,
    so no pricing makes a NaN, and the budget a number; an infinite budget
    is valid and never binds. Whether the endpoints are node ids depends on
    the topology, which the planner checks.
    """

    __slots__ = _fields = ("source", "destination", "data_size_gb", "budget_usd", "max_iterations")

    def __init__(
        self,
        source: int,
        destination: int,
        data_size_gb: float,
        budget_usd: float,
        max_iterations: int,
    ) -> None:
        for name, value in (
            ("source", source), ("destination", destination), ("max_iterations", max_iterations)
        ):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if source == destination:
            raise ValueError(f"source and destination are the same node ({source})")
        if not data_size_gb > 0:
            raise ValueError(f"data_size_gb must be > 0, got {data_size_gb}")
        if not data_size_gb * BITS_PER_GB < math.inf:
            raise ValueError(
                f"data_size_gb must be at most {sys.float_info.max / BITS_PER_GB!r}, so that "
                f"its size in bits is a finite number, got {data_size_gb}"
            )
        if not budget_usd >= 0:
            raise ValueError(f"budget_usd must be >= 0, got {budget_usd}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        super().__init__(source, destination, data_size_gb, budget_usd, max_iterations)


def transfer_seconds(data_size_gb: float, bandwidth_mbps: float) -> float:
    """Time to push `data_size_gb` through an egress link at `bandwidth_mbps`."""
    if bandwidth_mbps <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth_mbps}")
    return data_size_gb * BITS_PER_GB / (bandwidth_mbps * BITS_PER_MBPS)


def edge_latency(rtt_s: float, data_size_gb: float, bandwidth_mbps: float) -> float:
    """Total edge latency: one-way propagation (RTT/2) plus transmission time."""
    if rtt_s < 0:
        raise ValueError(f"rtt must be >= 0, got {rtt_s}")
    return rtt_s / 2.0 + transfer_seconds(data_size_gb, bandwidth_mbps)


def pfdt_cost(pfdt_rate: float, data_size_gb: float) -> float:
    """Per-volume cost: rate (USD/GB) times data size, bandwidth-independent."""
    if pfdt_rate < 0 or data_size_gb < 0:
        raise ValueError("pfdt_cost inputs must be non-negative")
    return pfdt_rate * data_size_gb


def billed_hours(data_size_gb: float, bandwidth_mbps: float) -> int:
    """PAYG billable duration: transfer time rounded up to hours, minimum 1.

    ValueError when the transfer time is too large to be a float.
    """
    hours = transfer_seconds(data_size_gb, bandwidth_mbps) / SECONDS_PER_HOUR
    try:
        return max(1, math.ceil(hours))
    except OverflowError:
        raise ValueError(
            f"sending {data_size_gb} GB at {bandwidth_mbps} Mbps takes too long to bill"
        ) from None


def payg_cost(payg_rate: float, bandwidth_mbps: float, data_size_gb: float) -> float:
    """Per-bandwidth cost: rate (USD/Mbps/h) times bandwidth times billed hours."""
    if payg_rate < 0:
        raise ValueError(f"payg_rate must be >= 0, got {payg_rate}")
    return payg_rate * bandwidth_mbps * billed_hours(data_size_gb, bandwidth_mbps)


def data_threshold(payg_rate: float, pfdt_rate: float, bandwidth_mbps: float) -> float:
    """Data size (GB) at which one-hour PAYG cost equals PFDT cost.

    Below the threshold PFDT is the cheaper method. A zero PFDT rate makes
    PFDT free, so the threshold is +inf (PFDT always wins).
    """
    if pfdt_rate == 0:
        return math.inf
    return payg_rate * bandwidth_mbps / pfdt_rate


def node_cost(node: NodeSpec, config: NodeBillingConfig, data_size_gb: float) -> float:
    """Egress cost this node incurs for sending the payload once."""
    if config.method is BillingMethod.PFDT:
        assert node.pfdt_rate is not None
        return pfdt_cost(node.pfdt_rate, data_size_gb)
    assert node.payg_rate is not None
    return payg_cost(node.payg_rate, config.bandwidth_mbps, data_size_gb)


def _not_finite(node: NodeSpec, what: str, data_size_gb: float) -> ValueError:
    """The refusal of a node whose `what`, "time" or "cost", is not a finite number."""
    return ValueError(
        f"node {node.id} ({node.name}): its {what} to send {data_size_gb!r} GB "
        "is not a finite number"
    )


def check_rule(rule: str) -> None:
    """ValueError unless `rule` is one of `RULES`."""
    if rule not in RULES:
        raise ValueError(f"unknown billing rule {rule!r}")


def price(
    node: NodeSpec,
    bandwidth_candidate_mbps: float,
    data_size_gb: float,
    rule: str,
) -> tuple[BillingMethod, float, float, float]:
    """(method, bandwidth_mbps, cost_usd, seconds) of one node at a candidate PAYG bandwidth.

    `threshold` rule: strict D < D_thresh selects PFDT (at the node's full
    rate), otherwise PAYG at the candidate bandwidth. `exact-cost` rule:
    whichever method is strictly cheaper, ties going to PFDT since it is
    never slower. Nodes offering only one method always use it. Neither the
    rule nor the candidate's range is checked here; `check_rule` and
    `select_billing` do that. ValueError for a bandwidth that is not > 0,
    and one naming the node for a time, else a cost, that is not a finite
    number; a PAYG time is refused before it is billed, even where
    `exact-cost` would pick PFDT.
    """
    payg_rate, pfdt_rate = node.payg_rate, node.pfdt_rate
    if pfdt_rate is None:
        pfdt = False
    elif payg_rate is None:
        pfdt = True
    elif rule == "threshold":
        pfdt = data_size_gb < data_threshold(payg_rate, pfdt_rate, bandwidth_candidate_mbps)
    else:
        pfdt = None  # `exact-cost`: decided by the two bills below
    if not pfdt:
        method, bandwidth = BillingMethod.PAYG, bandwidth_candidate_mbps
        seconds = transfer_seconds(data_size_gb, bandwidth)
        if not math.isfinite(seconds):
            raise _not_finite(node, "time", data_size_gb)
        cost = payg_cost(payg_rate, bandwidth, data_size_gb)
        if pfdt is None and pfdt_cost(pfdt_rate, data_size_gb) <= cost:
            pfdt = True
    if pfdt:
        method, bandwidth = BillingMethod.PFDT, node.max_egress_mbps
        seconds = transfer_seconds(data_size_gb, bandwidth)
        cost = pfdt_cost(pfdt_rate, data_size_gb)
    for what, value in (("time", seconds), ("cost", cost)):
        if not math.isfinite(value):
            raise _not_finite(node, what, data_size_gb)
    return method, bandwidth, cost, seconds


def price_round(
    nodes: Iterable[NodeSpec], fraction_k: float, data_size_gb: float, rule: str
) -> tuple[list[float], list[float]]:
    """(costs, seconds) of every node at PAYG candidate `fraction_k * max_egress_mbps`.

    The planner's per-round pricing: node i's entries are exactly
    `price(node, fraction_k * node.max_egress_mbps, data_size_gb, rule)[2:]`,
    with `price`'s float operations written out in the same order, so the
    method choice still has one definition. It raises what `price` raises
    for the first node that `price` refuses, testing each time and cost with
    one comparison where it is made. The nodes are a topology's checked
    nodes; the rule is not checked here.
    """
    bits = data_size_gb * BITS_PER_GB
    threshold = rule == "threshold"
    inf, ceil = math.inf, math.ceil
    costs, seconds = [], []
    for node in nodes:
        payg, pfdt, cap = node.payg_rate, node.pfdt_rate, node.max_egress_mbps
        bandwidth = fraction_k * cap
        if pfdt is None:
            pick_pfdt = False
        elif payg is None:
            pick_pfdt = True
        elif threshold:
            pick_pfdt = pfdt == 0 or data_size_gb < payg * bandwidth / pfdt
        else:
            pick_pfdt = None  # `exact-cost`: decided by the two bills below
        if not pick_pfdt:
            if bandwidth <= 0:
                raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
            payg_seconds = bits / (bandwidth * BITS_PER_MBPS)
            if not payg_seconds < inf:
                raise _not_finite(node, "time", data_size_gb)
            # `or 1` is `billed_hours`' one-hour minimum, max(1, ...), without a call
            payg_bill = payg * bandwidth * (ceil(payg_seconds / SECONDS_PER_HOUR) or 1)
            # an `exact-cost` tie goes to PFDT, as in `price`
            if pick_pfdt is False or payg_bill < pfdt * data_size_gb:
                if not payg_bill < inf:
                    raise _not_finite(node, "cost", data_size_gb)
                costs.append(payg_bill)
                seconds.append(payg_seconds)
                continue
        pfdt_seconds = bits / (cap * BITS_PER_MBPS)
        if not pfdt_seconds < inf:
            raise _not_finite(node, "time", data_size_gb)
        pfdt_bill = pfdt * data_size_gb
        if not pfdt_bill < inf:
            raise _not_finite(node, "cost", data_size_gb)
        costs.append(pfdt_bill)
        seconds.append(pfdt_seconds)
    return costs, seconds


def refuses_no_node(
    extremes: tuple[float, ...], fraction_k: float, data_size_gb: float
) -> bool:
    """Whether a bound proves that `price_round` at `fraction_k` refuses no node.

    `extremes` are the nodes' `Topology.rate_extremes`. Each float operation
    of `price_round` is monotone in a node's cap and rates, so under either
    rule the least PAYG bandwidth bounds every PAYG time from above, that
    time's billed hours and the largest PAYG rate and bandwidth bound every
    PAYG bill, and the least PFDT cap and largest PFDT rate bound every PFDT
    time and bill. True if all of those are finite and the least bandwidth is
    above 0. False only says the bound cannot tell, as near k = 2**-1000 or
    for caps and rates many orders of magnitude apart.
    """
    payg_cap_lo, payg_cap_hi, _, payg_rate_hi, pfdt_cap_lo, pfdt_rate_hi = extremes
    bits = data_size_gb * BITS_PER_GB
    bandwidth_lo = fraction_k * payg_cap_lo
    if not bandwidth_lo > 0:
        return False
    seconds_hi = bits / (bandwidth_lo * BITS_PER_MBPS)
    if not seconds_hi < math.inf:
        return False
    hours_hi = math.ceil(seconds_hi / SECONDS_PER_HOUR) or 1
    return (
        payg_rate_hi * (fraction_k * payg_cap_hi) * hours_hi < math.inf
        and bits / (pfdt_cap_lo * BITS_PER_MBPS) < math.inf
        and pfdt_rate_hi * data_size_gb < math.inf
    )


def cost_floor(node: NodeSpec, full_rate_cost: float, data_size_gb: float) -> float:
    """The least cost `price` can bill the node at any bandwidth fraction k in (0, 1].

    `full_rate_cost` is the node's cost at k = 1 under the rule in force,
    its entry in `price_round(nodes, 1.0, data_size_gb, rule)[0]`, which
    equals `price` node by node. The floor is the lesser of that cost and,
    if the node offers PAYG, the bandwidth-hours the payload needs. Every k
    bills PAYG at least those, since bw * ceil(T / bw) >= T, or PFDT, whose
    cost is the same at every k and never below the full-rate cost where
    some k picks it: under `threshold` the cutoff `payg * k * bw / pfdt`
    only falls as k shrinks, so k = 1 picks PFDT too, and under
    `exact-cost` k = 1 bills the cheaper method.

    That holds for exact numbers. In floats a PAYG bill can fall below the
    bandwidth-hours by a few roundings, and by far more where a value in
    it leaves the normal floats: at rates of 0.001 to 0.1 USD per
    Mbps-hour, single nodes bill more than 1e-9 of their floor below it at
    payloads up to 1e-8 GB, at subnormal bandwidths, and at a rate near
    1e-300 at any payload. Where the bandwidth-hours overflow, the floor is
    the full-rate cost, which a smaller k can bill below. `floors_hold`
    bounds where none of this happens.
    """
    if node.payg_rate is None:
        return full_rate_cost
    bandwidth_hours = node.payg_rate * data_size_gb * BITS_PER_GB / BITS_PER_MBPS / SECONDS_PER_HOUR
    # min(full_rate_cost, bandwidth_hours), without a call
    return bandwidth_hours if bandwidth_hours < full_rate_cost else full_rate_cost


# The share of its `cost_floor` that a node's cost reaches at least, where
# `floors_hold`: there a PAYG bill is at most about 2.5e-13 below its floor.
# A rounding moves a normal value by at most 2**-53 of itself: six lower the
# bill (bits, bits per second, time, hours, rate times bandwidth, times hours)
# and four raise the floor, 1.1e-15 in all. A subnormal value moves by at most
# 2**-1075: at a rate times bandwidth of 2**-1030 or more, that product and the
# bill lose at most 2**-45 of the bill each, and the floor's products gain at
# most 3.3 * 2**-1075, 1.9e-13 of a floor near the bill. A subnormal time or
# hours mean less than an hour, billed as one hour, as unrounded. 1e-12 leaves
# four times that, and is far below the planner's 1e-9 margin on the budget.
FLOOR_SHARE = 1.0 - 1e-12


def floors_hold(extremes: tuple[float, ...], fraction_k: float, data_size_gb: float) -> bool:
    """Whether a bound proves that `price_round` at `fraction_k` bills each node at least
    `FLOOR_SHARE` of its `cost_floor`, or refuses some node.

    `extremes` are the nodes' `Topology.rate_extremes`. A PFDT cost is at
    least its floor exactly (see `cost_floor`), and so is a PAYG bill at a
    rate of 0. A PAYG bill at a rate above 0 is within `FLOOR_SHARE` of its
    floor where its rate times its bandwidth is at least 2**-1030 and the
    floor's bandwidth-hours do not overflow (a subnormal payload in bits or
    bandwidth in bits per second is exact: a subnormal times a whole number
    is). True if the least positive rate times the least bandwidth a billed
    node can have is at least that, and the largest rate's bandwidth-hours
    are finite. Only a node whose time, bits / (bandwidth * 1e6), is finite
    is billed, so a node whose time overflows counts as refused, and a
    billed bandwidth is above bits / 2**1024 / 1e6: at 10 GB and cloud-like
    rates that bound alone holds at any k, down to 2**-1074. The bound grows
    with k, so what holds at a k holds at every larger one. False only says
    the bound cannot tell.
    """
    payg_cap_lo, _, payg_rate_lo, payg_rate_hi, _, _ = extremes
    bandwidth_lo = fraction_k * payg_cap_lo
    # half the least bandwidth whose time is finite, where that is a normal float
    finite_time_lo = data_size_gb * BITS_PER_GB / sys.float_info.max / (2.0 * BITS_PER_MBPS)
    if finite_time_lo >= sys.float_info.min:
        bandwidth_lo = max(bandwidth_lo, finite_time_lo)
    return (
        payg_rate_lo * bandwidth_lo >= 2.0**-1030
        # the bandwidth-hours' first two products, as `cost_floor` multiplies them
        and payg_rate_hi * data_size_gb * BITS_PER_GB < math.inf
    )


def select_billing(
    node: NodeSpec,
    bandwidth_candidate_mbps: float,
    data_size_gb: float,
    rule: str = "threshold",
) -> NodeBillingConfig:
    """Pick PAYG vs. PFDT for one node at a candidate PAYG bandwidth, as `price` does."""
    if not 0 < bandwidth_candidate_mbps <= node.max_egress_mbps:
        raise ValueError(
            f"candidate bandwidth {bandwidth_candidate_mbps} outside (0, {node.max_egress_mbps}]"
        )
    check_rule(rule)
    method, bandwidth, _, _ = price(node, bandwidth_candidate_mbps, data_size_gb, rule)
    return NodeBillingConfig(method, bandwidth)
