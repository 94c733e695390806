"""Shared test machinery: random instance generators, a recorder of the
planner's rounds, the naive baseline's path by enumeration, an independent
X25519 reference implementation, and a cryptokey-routing walker.
"""

from __future__ import annotations

import gc
import math
import random
from collections.abc import Callable

from budgetpath import planner
from budgetpath.search import EdgeList, EdgeWeights, PathResult
from budgetpath.topology import LinkSpec, NodeSpec, Topology
from budgetpath.tunnels import TunnelSpec, clamp_scalar

# --- random instances -------------------------------------------------

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
    return EdgeWeights(EdgeList.from_edges(n, edges), a, b)


def edge_triples(edges: EdgeList) -> list[tuple[int, int, float]]:
    """(src, dst, delay) of every edge, in edge order."""
    return [
        (u, edges.dst[e], edges.delay[e])
        for u in range(edges.n)
        for e in range(edges.offsets[u], edges.offsets[u + 1])
    ]


def path_sums(weights: EdgeWeights, path: tuple[int, ...]) -> tuple[float, float]:
    """Cost and latency of `path`, added hop by hop in path order as the search adds them."""
    total_a = total_b = 0.0
    for u, v in zip(path, path[1:]):
        total_a += weights.a[u]
        total_b += weights.edges.delay[weights.edges.index(u, v)] + weights.b[u]
    return total_a, total_b


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

def record_rounds(monkeypatch) -> list[tuple[float, object]]:
    """A list that `plan_transfer` appends each of its rounds to, as (k, outcome).

    The outcome is the search's PathResult when the round was feasible,
    None when the search found no path within the budget, and ValueError
    when `build_weights` could not price a node at k. Step 1 is the first
    round, at k = 1.0.
    """
    rounds = []
    build_weights, search_min_latency = planner.build_weights, planner.search_min_latency

    def recording_build_weights(topology, request, fraction_k, rule="threshold"):
        rounds.append((fraction_k, ValueError))
        return build_weights(topology, request, fraction_k, rule)

    def recording_search(weights, source, destination, cost_cap):
        result = search_min_latency(weights, source, destination, cost_cap)
        rounds[-1] = (rounds[-1][0], result)
        return result

    monkeypatch.setattr(planner, "build_weights", recording_build_weights)
    monkeypatch.setattr(planner, "search_min_latency", recording_search)
    return rounds


def bisection_bracket(rounds: list[tuple[float, object]]) -> tuple[float, float]:
    """The final bracket (k_lower, k_upper) that the binary-search rounds imply.

    `rounds` are the rounds after step 1. Each round's k must be the
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


def is_connected(weights: EdgeWeights, source: int, destination: int) -> bool:
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for v in weights.edges.successors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return destination in seen
