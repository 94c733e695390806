"""Shared test machinery: random instance generators, a reference topology
loader, the planner with every round priced in full, the bracket that the
planner's rounds imply, reference cost floors and sender configs, the naive
baseline's path by enumeration, the label search as it pruned before its
push-time test, an independent X25519 reference implementation, a
cryptokey-routing walker, and the parser that reads a rendered tunnel conf
back.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
from collections.abc import Callable, Sequence

import pytest

from budgetpath.billing import (
    BITS_PER_GB,
    BITS_PER_MBPS,
    MAX_DATA_GB,
    MIN_DATA_GB,
    SECONDS_PER_HOUR,
    BillingMethod,
    NodeBillingConfig,
    TransferRequest,
    billed_hours,
    check_rule,
    cost_floor,
    data_threshold,
    pfdt_cost,
    price_round,
    select_billing,
)
from budgetpath import planner
from budgetpath.planner import PlanOutcome
from budgetpath.search import EdgeWeights, PathResult, search_core
from budgetpath.topology import (
    MAX_EGRESS_MBPS, MAX_RATE, MIN_EGRESS_MBPS, MIN_RATE, EdgeList, LinkSpec, NodeSpec,
    NoPathError, Topology, TopologyError, check_node_ids,
)
from budgetpath.tunnels import (
    PeerEntry, TunnelError, TunnelSpec, clamp_scalar, keypair_from_private_b64,
)

# --- random instances -------------------------------------------------

def edge_list(n: int, triples) -> EdgeList:
    """The edge list of a topology of n placeholder nodes with (src, dst, delay) links.

    Each link's rtt is 2 * delay, so each edge's delay is the one given,
    and the links pass `Topology`'s checks like those of any other graph.
    """
    nodes = tuple(NodeSpec(i, f"n{i}", "192.0.2.1", 1.0, 0.0, None) for i in range(n))
    return Topology(nodes, tuple(LinkSpec(u, v, 2.0 * delay) for u, v, delay in triples)).edges


def random_weights(rng: random.Random, n: int, edge_prob: float = 0.45) -> EdgeWeights:
    """Node-billed weights: a cost and a transmission time per node, a delay per edge."""
    edges = [
        (i, j, rng.uniform(0.0, 0.5))
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < edge_prob
    ]
    a = tuple(rng.uniform(0.0, 1.0) for _ in range(n))
    b = tuple(rng.uniform(0.01, 0.5) for _ in range(n))
    return EdgeWeights(edge_list(n, edges), a, b)


def edge_triples(edges: EdgeList) -> list[tuple[int, int, float]]:
    """(src, dst, delay) of every edge, row by row in successor order."""
    return [(u, v, delay) for u, row in enumerate(edges.rows) for v, delay in row]


def path_sums(weights: EdgeWeights, path: tuple[int, ...]) -> tuple[float, float]:
    """Cost and latency of `path`, added hop by hop in path order as the search adds them."""
    total_a = total_b = 0.0
    for u, v in zip(path, path[1:]):
        total_a += weights.a[u]
        total_b += dict(weights.edges.rows[u])[v] + weights.b[u]
    return total_a, total_b


def reprice(topology: Topology, path, configs: dict, data_gb: float) -> tuple[float, float]:
    """(latency_s, cost_usd) of sending `data_gb` GB along `path` under `configs`.

    The billing arithmetic is written out here, in `simulate_transfer`'s
    float order: per-hop latencies, then per-sender costs, each added left to
    right from 0.0. A hop's latency is half its rtt plus the time the data
    takes at its sender's bandwidth; a PFDT sender pays its rate per GB, a
    PAYG sender its rate per Mbps per started hour, at least one hour.
    """
    rtts = {(link.src, link.dst): link.rtt_s for link in topology.links}
    latency = cost = 0.0
    for u, v in zip(path, path[1:]):
        latency += rtts[u, v] / 2.0 + data_gb * 8e9 / (configs[u].bandwidth_mbps * 1e6)
    for u in path[:-1]:
        node, config = topology.nodes[u], configs[u]
        if config.method is BillingMethod.PFDT:
            cost += node.pfdt_rate * data_gb
        else:
            seconds = data_gb * 8e9 / (config.bandwidth_mbps * 1e6)
            cost += node.payg_rate * config.bandwidth_mbps * max(1, math.ceil(seconds / 3600.0))
    return latency, cost


def request_or_refusal(*fields) -> TransferRequest | None:
    """`TransferRequest(*fields)`, or None once it has refused the fields' equal endpoints.

    A seeded test draws every field before this call, so an instance whose
    endpoints are equal leaves every later draw, and so every other
    instance, as it was.
    """
    source, destination = fields[:2]
    if source != destination:
        return TransferRequest(*fields)
    refusal = rf"^source and destination are the same node \({source}\)$"
    with pytest.raises(ValueError, match=refusal):
        TransferRequest(*fields)
    return None


def random_topology(rng: random.Random, n_min: int = 2, n_max: int = 7) -> Topology:
    n = rng.randint(n_min, n_max)
    nodes = []
    for i in range(n):
        roll = rng.random()
        payg = round(rng.uniform(0.005, 0.05), 4) if roll < 0.85 else None
        pfdt = round(rng.uniform(0.01, 0.2), 4) if (roll > 0.15 or payg is None) else None
        nodes.append(
            NodeSpec(
                id=i,
                name=f"n{i}",
                public_address=f"203.0.113.{100 + i}",
                max_egress_mbps=rng.choice([10.0, 50.0, 100.0, 200.0]),
                payg_rate=payg,
                pfdt_rate=pfdt,
            )
        )
    links = []
    seen = set()
    # spanning chain keeps most instances connected, then random extras
    order = list(range(n))
    rng.shuffle(order)
    for u, v in zip(order, order[1:]):
        links.append((u, v))
        seen.update([(u, v)])
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            links.append((u, v))
    link_specs = []
    for u, v in links:
        rtt = rng.uniform(0.001, 0.3)
        link_specs.append(LinkSpec(u, v, rtt))
        if (v, u) not in seen:
            seen.add((v, u))
            link_specs.append(LinkSpec(v, u, rtt))
    return Topology(tuple(nodes), tuple(link_specs))


def sparse_topology(rng: random.Random, n: int, mean_degree: float) -> Topology:
    """A connected undirected graph of n nodes that offer both methods at
    cloud-like rates: a random spanning tree plus random links up to the degree."""
    nodes = tuple(
        NodeSpec(i, f"r{i}", "192.0.2.1", rng.choice([50.0, 100.0, 200.0, 500.0]),
                 rng.uniform(0.015, 0.03), rng.uniform(0.06, 0.12))
        for i in range(n)
    )
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    while len(pairs) < n * mean_degree / 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    links = []
    for u, v in sorted(pairs):
        rtt = rng.uniform(0.005, 0.2)
        links += [LinkSpec(u, v, rtt), LinkSpec(v, u, rtt)]
    return Topology(nodes, tuple(links))


def domain_value(rng: random.Random, lo: float, hi: float) -> float:
    """A value of [lo, hi] drawn log-uniformly, or one of its two ends, each in one draw of ten."""
    roll = rng.random()
    if roll < 0.1:
        return lo
    if roll < 0.2:
        return hi
    return min(max(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)), lo), hi)


def domain_payload(rng: random.Random) -> float:
    """A payload drawn across the whole operating domain, by `domain_value`."""
    return domain_value(rng, MIN_DATA_GB, MAX_DATA_GB)


def domain_topology(rng: random.Random) -> Topology:
    """A connected graph of 3 to 9 nodes whose caps and rates span the operating domain.

    Each cap and each rate above 0 is drawn by `domain_value`, so a tenth of
    them sit at each end of the domain; one rate in five is None and one in
    twenty is 0.0. Rounds price nodes apart by up to 12 orders of magnitude
    in cap and 15 in rate, so many are too slow or too dear only at a small k.
    """
    n = rng.randint(3, 9)

    def rate():
        roll = rng.random()
        if roll < 0.2:
            return None
        return 0.0 if roll < 0.25 else domain_value(rng, MIN_RATE, MAX_RATE)

    nodes = []
    for i in range(n):
        cap = domain_value(rng, MIN_EGRESS_MBPS, MAX_EGRESS_MBPS)
        payg, pfdt = rate(), rate()
        nodes.append(NodeSpec(i, f"n{i}", "192.0.2.1", cap,
                              0.02 if payg is None and pfdt is None else payg, pfdt))
    order = list(range(n))
    rng.shuffle(order)
    pairs = set(zip(order, order[1:]))
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((u, v))
    links = {}
    for u, v in sorted(pairs):
        links[u, v] = links[v, u] = rng.uniform(0.001, 0.3)
    return Topology(tuple(nodes), tuple(LinkSpec(u, v, rtt) for (u, v), rtt in links.items()))


def cut_off_one_node(topology: Topology, rng: random.Random, share: float = 0.3) -> Topology:
    """`topology`, or in about `share` of the calls a copy with one node cut off.

    `random_topology` and `grid_topology` always return strongly connected
    graphs; this one makes some pairs unreachable. The cut node loses every
    link into it and out of it, so pairs that only met through it are cut
    apart too. Give it a `random.Random` of its own, so the stream that
    draws the topologies and the requests, and so every other instance,
    stays as it was.
    """
    if rng.random() >= share:
        return topology
    cut = rng.randrange(len(topology))
    links = tuple(link for link in topology.links if cut not in (link.src, link.dst))
    return Topology(topology.nodes, links)


def grid_topology(rng: random.Random, width: int, height: int, rtts: list[float]) -> Topology:
    """A width x height grid, node r * width + c at row r and column c.

    Each undirected link draws its rtt from `rtts`; a short list gives many
    ties between paths.
    """
    nodes = tuple(
        NodeSpec(i, f"n{i}", f"198.51.100.{i % 250 + 1}", 100.0, 0.021, 0.081)
        for i in range(width * height)
    )
    links = []
    for r in range(height):
        for c in range(width):
            i = r * width + c
            for j in ([i + 1] if c + 1 < width else []) + ([i + width] if r + 1 < height else []):
                rtt = rng.choice(rtts)
                links += [LinkSpec(i, j, rtt), LinkSpec(j, i, rtt)]
    return Topology(nodes, tuple(links))


# --- the topology loader, checked twice -----------------------------------

def reference_topology_from_dict(doc: dict, mode: str = "undirected") -> Topology:
    """The loader as it was before it checked a topology in one pass.

    It builds a set of each entry's keys, converts and checks every entry
    with its own statements, checks the file's links, then adds the reverse
    links and checks the whole list again. The error messages are that
    loader's: a non-contiguous id lists every id. Caps and rates are bounded
    to the operating domain, as `NodeSpec.validate` bounds them.
    """
    if mode not in ("directed", "undirected"):
        raise TopologyError(f"unknown mode {mode!r}")
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be an object")
    unknown = set(doc) - {"nodes", "links"}
    if unknown:
        raise TopologyError(f"unknown top-level keys: {sorted(unknown)}")

    def array(key: str) -> list:
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            raise TopologyError(f"{key} must be an array, got {type(entries).__name__}")
        return entries

    def entry_error(where: str, entry, reason: str) -> TopologyError:
        if not isinstance(entry, dict):
            reason = f"expected an object, got {type(entry).__name__}"
        return TopologyError(f"{where}: {reason}")

    def wrong_type(where: str, key: str, value, expected: str) -> TopologyError:
        return TopologyError(f"{where}: invalid value: {key} must be {expected}, got {value!r}")

    def rate(entry: dict, key: str, where: str) -> float | None:
        value = entry.get(key)
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TopologyError(f"{where}: {key} must be a number or null")
        return float(value)

    node_keys = {"id", "name", "public_address", "max_egress_mbps", "payg_usd_per_mbps_hour",
                 "pfdt_usd_per_gb"}
    nodes = []
    for index, entry in enumerate(array("nodes")):
        where = f"node entry {index}"
        try:
            extra = set(entry) - node_keys
            if extra:
                raise entry_error(where, entry, f"unknown keys {sorted(extra)}")
            node_id, name, address = entry["id"], entry["name"], entry["public_address"]
            egress = entry["max_egress_mbps"]
            if type(node_id) is not int:
                raise wrong_type(where, "id", node_id, "an integer")
            if type(name) is not str:
                raise wrong_type(where, "name", name, "a string")
            if type(address) is not str:
                raise wrong_type(where, "public_address", address, "a string")
            if type(egress) not in (int, float):
                raise wrong_type(where, "max_egress_mbps", egress, "a number")
            nodes.append(NodeSpec(node_id, name, address, float(egress),
                                  rate(entry, "payg_usd_per_mbps_hour", where),
                                  rate(entry, "pfdt_usd_per_gb", where)))
        except TopologyError:
            raise
        except KeyError as exc:
            raise entry_error(where, entry, f"missing key {exc.args[0]!r}") from exc
        except (TypeError, OverflowError) as exc:
            raise entry_error(where, entry, f"invalid value: {exc}") from exc

    links = []
    for index, entry in enumerate(array("links")):
        where = f"link entry {index}"
        try:
            extra = set(entry) - {"src", "dst", "rtt_ms"}
            if extra:
                raise entry_error(where, entry, f"unknown keys {sorted(extra)}")
            src, dst, rtt_ms = entry["src"], entry["dst"], entry["rtt_ms"]
            if type(src) is not int:
                raise wrong_type(where, "src", src, "an integer")
            if type(dst) is not int:
                raise wrong_type(where, "dst", dst, "an integer")
            if type(rtt_ms) not in (int, float):
                raise wrong_type(where, "rtt_ms", rtt_ms, "a number")
            links.append(LinkSpec(src, dst, rtt_ms / 1000.0))
        except TopologyError:
            raise
        except KeyError as exc:
            raise entry_error(where, entry, f"missing key {exc.args[0]!r}") from exc
        except (TypeError, OverflowError) as exc:
            raise entry_error(where, entry, f"invalid value: {exc}") from exc

    reference_check(nodes, links)
    if mode == "undirected":
        by_pair = {(l.src, l.dst): l for l in links}
        for link in list(links):
            reverse = by_pair.get((link.dst, link.src))
            if reverse is None:
                links.append(LinkSpec(link.dst, link.src, link.rtt_s))
            elif reverse.rtt_s != link.rtt_s:
                raise TopologyError(
                    f"links ({link.src}, {link.dst}) and ({link.dst}, {link.src}) disagree on rtt "
                    "in undirected mode"
                )
        reference_check(nodes, links)
    return Topology(tuple(nodes), tuple(links))


def reference_check(nodes: list[NodeSpec], links: list[LinkSpec]) -> None:
    """The checks `Topology` made before it made them in one pass, in the same order."""
    ids = [n.id for n in nodes]
    if ids != list(range(len(nodes))):
        raise TopologyError(f"node ids must be unique and contiguous from 0, got {ids}")
    for node in nodes:
        where = f"node {node.id} ({node.name})"
        cap = node.max_egress_mbps
        if math.isnan(cap) or cap < 1e-3 or cap > 1e9:
            raise TopologyError(f"{where}: max_egress_mbps must be in [0.001, 1e+09], got {cap}")
        if node.payg_rate is None and node.pfdt_rate is None:
            raise TopologyError(f"{where}: no billing rate given")
        for label, rate in (("payg", node.payg_rate), ("pfdt", node.pfdt_rate)):
            if rate is not None and rate != 0 and (math.isnan(rate) or rate < 1e-9 or rate > 1e6):
                raise TopologyError(
                    f"{where}: {label} rate must be 0 or in [1e-09, 1e+06], got {rate}"
                )
    seen = set()
    for link in links:
        if link.src == link.dst:
            raise TopologyError(f"link ({link.src}, {link.dst}): self-loop")
        for end in (link.src, link.dst):
            if not 0 <= end < len(nodes):
                raise TopologyError(
                    f"link ({link.src}, {link.dst}): endpoint {end} is not a node id"
                )
        if link.rtt_s < 0 or not math.isfinite(link.rtt_s):
            raise TopologyError(f"link ({link.src}, {link.dst}): invalid rtt {link.rtt_s}")
        if (link.src, link.dst) in seen:
            raise TopologyError(f"duplicate directed link ({link.src}, {link.dst})")
        seen.add((link.src, link.dst))


# --- the naive baseline by enumeration ----------------------------------

def naive_path_by_enumeration(topology: Topology, src: int, dst: int) -> tuple[int, ...] | None:
    """The naive baseline's path, from every minimum-hop path (exponential).

    Enumerates every path over the BFS level DAG and keeps the least
    (rtt_sum, path), with rtt_sum added left to right along the path.
    None when dst is unreachable.
    """
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt_frontier = []
        for u in frontier:
            for v in topology.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt_frontier.append(v)
        frontier = nxt_frontier
    if dst not in dist:
        return None

    candidates = []

    def collect(node: int, path: list[int], rtt_sum: float) -> None:
        if node == dst:
            candidates.append((rtt_sum, tuple(path)))
            return
        for v in topology.neighbors(node):
            if dist.get(v) == dist[node] + 1:
                path.append(v)
                collect(v, path, rtt_sum + topology.rtt(node, v))
                path.pop()

    collect(src, [src], 0.0)
    return min(candidates)[1]


# --- the label search, pruning at pop only ----------------------------

def search_pruned_at_pop(
    edges: EdgeList, a, b, source: int, destination: int, cost_cap: float, pricing=None
) -> PathResult | None:
    """`search.search_core` as it was before it tested labels at push and
    priced nodes when it first read them.

    It pushes every label that improves its node's latency and drops a
    label over the cap only when it pops it. `search_core` must give `==`
    results: the labels it does not push are the ones this loop drops.
    Given `pricing`, (nodes, k, data size, rule, floors), it prices every
    node first with `price_round`; it reads no floor.
    """
    if pricing is not None:
        a, b = price_round(*pricing[:4])
    min_b = [math.inf] * edges.n
    min_b[source] = 0.0
    labels = [(source, -1)]
    frontier = [(0.0, 0.0, source, 0)]
    while frontier:
        curr_b, curr_a, node, label = heapq.heappop(frontier)
        if node == destination:
            path = []
            while label >= 0:
                node, label = labels[label]
                path.append(node)
            path.reverse()
            return PathResult(tuple(path), curr_a, curr_b)
        new_a = curr_a + a[node]
        if new_a > cost_cap:
            continue
        b_node = b[node]
        for nxt, d in edges.rows[node]:
            new_b = curr_b + (d + b_node)
            if new_b < min_b[nxt]:
                min_b[nxt] = new_b
                heapq.heappush(frontier, (new_b, new_a, nxt, len(labels)))
                labels.append((nxt, label))
    return None


def cyclic_garbage(call: Callable[[], object]) -> int:
    """Objects that one `call()` leaves behind in reference cycles.

    Runs `call` once to fill caches, such as a topology's edge list, then
    again with the collector off, and counts what a full collection frees.
    """
    call()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
    finally:
        if enabled:
            gc.enable()
    return gc.collect()


# --- the planner's rounds --------------------------------------------

def hour_aligned_fractions(node, data_gb, count=60):
    """The k at which the node's PAYG transfer takes exactly h hours, for `count` h from k <= 1.

    Each k is the least float whose bandwidth `k * max_egress_mbps` bills h
    hours, not h + 1 from rounding up a time a few ulps above h hours.
    """
    fractions = []
    first = billed_hours(data_gb, node.max_egress_mbps)
    for h in range(first, first + count):
        k = data_gb * 8000.0 / (h * 3600.0) / node.max_egress_mbps
        while 0 < k <= 1 and billed_hours(data_gb, k * node.max_egress_mbps) > h:
            k = math.nextafter(k, math.inf)
        if 0 < k <= 1:
            fractions.append(k)
    return fractions


def cost_floor_by_rule(node: NodeSpec, data_gb: float, rule: str) -> float:
    """The per-rule floor that `billing.cost_floor` is checked against.

    PAYG never costs less than the bandwidth-hours the payload needs. PFDT
    counts only where some k picks it: for a node without PAYG and under
    `exact-cost` always, under `threshold` only below the threshold at full
    rate, which is the highest threshold any k gives.
    """
    payg_rate, pfdt_rate = node.payg_rate, node.pfdt_rate
    options = []
    if payg_rate is not None:
        options.append(payg_rate * data_gb * BITS_PER_GB / BITS_PER_MBPS / SECONDS_PER_HOUR)
    if pfdt_rate is not None and (
        payg_rate is None
        or rule == "exact-cost"
        or data_gb < data_threshold(payg_rate, pfdt_rate, node.max_egress_mbps)
    ):
        options.append(pfdt_cost(pfdt_rate, data_gb))
    return min(options)


def full_rate_floor(node: NodeSpec, data_gb: float, rule: str) -> float:
    """`billing.cost_floor` of one node, from its k = 1 cost as `price_round` bills it."""
    (full_rate_cost,), _ = price_round((node,), 1.0, data_gb, rule)
    return cost_floor(node, full_rate_cost, data_gb)


def sender_configs_at(
    topology: Topology, path, fraction_k: float, data_gb: float, rule: str
) -> dict[int, NodeBillingConfig]:
    """`select_billing`'s config for each sender of `path` at bandwidth fraction `fraction_k`."""
    return {
        u: select_billing(
            topology.node(u), fraction_k * topology.node(u).max_egress_mbps, data_gb, rule
        )
        for u in path[:-1]
    }


def cost_floors(topology: Topology, data_gb: float, rule: str) -> list[float]:
    """Every node's `billing.cost_floor`, from its k = 1 cost as `price_round` bills it."""
    full_rate_costs, _ = price_round(topology.nodes, 1.0, data_gb, rule)
    return [cost_floor(node, cost, data_gb) for node, cost in zip(topology.nodes, full_rate_costs)]


def floor_distance(
    topology: Topology, source: int, destination: int, data_gb: float, rule: str
) -> float:
    """The least sum of `cost_floor` over the senders of any path, or inf if none leads there.

    Bellman-Ford over the topology's links, apart from the planner's own search.
    """
    floors = cost_floors(topology, data_gb, rule)
    dist = [math.inf] * len(topology)
    dist[source] = 0.0
    for _ in range(len(topology)):
        for link in topology.links:
            if dist[link.src] + floors[link.src] < dist[link.dst]:
                dist[link.dst] = dist[link.src] + floors[link.src]
    return dist[destination]


def plan_outcome_eager(topology: Topology, request: TransferRequest, rule: str) -> PlanOutcome:
    """`planner.plan_outcome` as it was before its bisection rounds priced lazily.

    Every round, k = 1 and the bisection's alike, is `price_round` over all
    nodes and then `search_core` on its two lists, with no floor test. The
    k = 1 plan, the floor distance, the margin by which the floors prove a
    budget too small, the least k and the plan's configs come from the
    planner.
    """
    source, destination, budget = request.source, request.destination, request.budget_usd
    nodes, edges, data_gb = topology.nodes, topology.edges, request.data_size_gb
    check_rule(rule)
    full_rate_costs, b = price_round(nodes, 1.0, data_gb, rule)
    check_node_ids(edges.n, source=source, destination=destination)
    result = search_core(edges, full_rate_costs, b, source, destination, budget)
    rounds = [(1.0, result)]
    if result is not None:
        plan = planner._finalize(topology, request, rule, result, 1.0, 0)
        return PlanOutcome(plan, None, False, tuple(rounds))
    floor = planner.floor_distance(edges, source, destination, cost_floors(topology, data_gb, rule))
    if floor == math.inf:
        raise NoPathError(source, destination)
    if floor > budget * (1.0 + planner._FLOOR_MARGIN):
        return PlanOutcome(None, floor, True, tuple(rounds))
    feasible = None
    k, k_lower, k_upper = 0.5, 0.0, 1.0
    for _ in range(request.max_iterations):
        a, b = price_round(nodes, k, data_gb, rule)
        result = search_core(edges, a, b, source, destination, budget)
        rounds.append((k, result))
        if result is not None:
            feasible, k_lower = (result, k), k
        else:
            k_upper = k
        next_k = (k_lower + k_upper) / 2.0
        if next_k == k or next_k < planner.LEAST_K:
            break
        k = next_k
    plan = None
    if feasible is not None:
        plan = planner._finalize(topology, request, rule, *feasible, request.max_iterations)
    return PlanOutcome(plan, floor, False, tuple(rounds))


def bisection_bracket(rounds: Sequence[tuple[float, object]]) -> tuple[float, float]:
    """The final bracket (k_lower, k_upper) that the binary-search rounds imply.

    `rounds` are the rounds after step 1, as `planner.plan_outcome` records
    them: (k, the round's PathResult, or None). Each round's k must be the
    midpoint of the bracket that the earlier outcomes left: a feasible
    round raises k_lower to its k, any other lowers k_upper to it.
    """
    k, lower, upper = 0.5, 0.0, 1.0
    for i, (round_k, outcome) in enumerate(rounds):
        assert round_k == k, f"round {i} ran at k={round_k!r}, the bracket's midpoint is {k!r}"
        if isinstance(outcome, PathResult):
            lower = k
            k = (k + upper) / 2.0
        else:
            upper = k
            k = (k + lower) / 2.0
    return lower, upper


# --- independent X25519 reference (Montgomery ladder) ------------------

_P = 2**255 - 19
_A24 = 121665
BASE_POINT = (9).to_bytes(32, "little")


def x25519_reference(scalar: bytes, point: bytes = BASE_POINT) -> bytes:
    k = int.from_bytes(clamp_scalar(scalar), "little")
    x1 = int.from_bytes(point, "little") & ((1 << 255) - 1)
    x2, z2, x3, z3 = 1, 0, x1, 1
    swap = 0
    for t in reversed(range(255)):
        k_t = (k >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3, z2, z3 = x3, x2, z3, z2
        swap = k_t
        a = (x2 + z2) % _P
        aa = a * a % _P
        b = (x2 - z2) % _P
        bb = b * b % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = d * a % _P
        cb = c * b % _P
        x3 = (da + cb) % _P
        x3 = x3 * x3 % _P
        z3 = (da - cb) % _P
        z3 = z3 * z3 % _P
        z3 = z3 * x1 % _P
        x2 = aa * bb % _P
        z2 = e * (aa + _A24 * e) % _P
    if swap:
        x2, z2 = x3, z3
    return (x2 * pow(z2, _P - 2, _P) % _P).to_bytes(32, "little")


# --- cryptokey routing simulation --------------------------------------

def route_packet(specs: list[TunnelSpec], start: TunnelSpec, dst_ip: str) -> list[int]:
    """Walk a packet through the overlay by longest-prefix AllowedIPs match.

    Returns the node ids visited, destination included. Raises if no peer
    routes the address or a forwarding loop forms.
    """
    import ipaddress

    by_pubkey = {s.keypair.public_b64: s for s in specs}
    dst = ipaddress.ip_address(dst_ip)
    current = start
    visited = [current.node_id]
    for _ in range(len(specs) + 1):
        own = ipaddress.ip_interface(current.overlay_address).ip
        if own == dst:
            return visited
        matches = []
        for peer in current.peers:
            for prefix in peer.allowed_ips:
                net = ipaddress.ip_network(prefix)
                if dst in net:
                    matches.append((net.prefixlen, peer))
        if not matches:
            raise AssertionError(f"node {current.node_id}: no route to {dst}")
        _, peer = max(matches, key=lambda m: m[0])
        current = by_pubkey[peer.public_key_b64]
        visited.append(current.node_id)
    raise AssertionError(f"forwarding loop: {visited}")


# --- wg-quick text back to a spec ---------------------------------------

def parse_conf(text: str) -> TunnelSpec:
    """Inverse of `tunnels.render_conf`: the round-trip reference for every spec it emits.

    TunnelError for a line that is not a section, comment or key = value,
    and for a missing node comment, section or key line.
    """
    node_id: int | None = None
    interface: dict[str, str] = {}
    peers: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# Node:"):
                node_id = int(line.split(":", 1)[1])
            continue
        if line == "[Interface]":
            current = interface
        elif line == "[Peer]":
            current = {}
            peers.append(current)
        else:
            if current is None or "=" not in line:
                raise TunnelError(f"unparseable line: {line!r}")
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    if node_id is None or "PrivateKey" not in interface:
        raise TunnelError("missing node comment or [Interface] section")
    peer_keys = ("PublicKey", "Endpoint", "AllowedIPs")
    sections = [("[Interface]", interface, ("Address", "ListenPort"))]
    sections += [(f"[Peer] {i}", peer, peer_keys) for i, peer in enumerate(peers, 1)]
    for name, section, keys in sections:
        for key in keys:
            if key not in section:
                raise TunnelError(f"{name} has no {key} line")
    return TunnelSpec(
        node_id=node_id,
        overlay_address=interface["Address"],
        listen_port=int(interface["ListenPort"]),
        keypair=keypair_from_private_b64(interface["PrivateKey"]),
        peers=tuple(
            PeerEntry(
                public_key_b64=p["PublicKey"],
                endpoint=p["Endpoint"],
                allowed_ips=tuple(s.strip() for s in p["AllowedIPs"].split(",")),
                keepalive_s=int(p["PersistentKeepalive"]) if "PersistentKeepalive" in p else None,
            )
            for p in peers
        ),
    )


def is_connected(edges: EdgeList, source: int, destination: int) -> bool:
    """Whether any directed path of `edges` leads from source to destination."""
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v in edges.successors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return destination in seen
