"""Re-measure a topology's link rtts with ICMP echo probes.

Only the `probe` subcommand uses this module, so loading or planning on a
topology neither compiles it nor imports the modules it needs.
"""

from __future__ import annotations

import logging
import math
import shutil
import statistics
import subprocess
from collections.abc import Callable

from budgetpath.topology import LinkSpec, Topology


def _ping_once(address: str, timeout_s: float = 2.0) -> float | None:
    """Single ICMP echo via the system ping; returns RTT in seconds or None."""
    cmd = ["ping", "-c", "1", "-W", str(int(math.ceil(timeout_s))), address]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout_s + 2)
    except subprocess.TimeoutExpired:
        return None
    if out.returncode != 0:
        return None
    for token in out.stdout.split():
        if token.startswith("time="):
            try:
                return float(token[len("time=") :]) / 1000.0
            except ValueError:
                return None
    return None


def probe_rtts(
    topology: Topology,
    attempts: int,
    prober: Callable[[str], float | None] | None = None,
) -> Topology:
    """Re-measure every link's rtt from `attempts` probes of each endpoint address.

    Each distinct address of a link endpoint is probed `attempts` times, in
    the order the links first name it. A link's rtt is the larger of its two
    endpoints' median probe times, so both directions of a pair get one rtt
    and a probed undirected topology loads again in undirected mode; an
    endpoint none of whose probes succeeded is left out. A link with no
    such endpoint keeps its rtt and is logged as a warning. Only the
    availability of a probing mechanism is fatal.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if prober is None:
        if shutil.which("ping") is None:
            raise RuntimeError("no ping executable available for probing")
        prober = _ping_once

    medians: dict[str, float | None] = {}
    links = []
    for link in topology.links:
        ends = [topology.node(node_id).public_address for node_id in (link.src, link.dst)]
        for address in ends:
            if address not in medians:
                samples = [s for s in (prober(address) for _ in range(attempts)) if s is not None]
                medians[address] = statistics.median(samples) if samples else None
        measured = [medians[address] for address in ends if medians[address] is not None]
        if measured:
            links.append(LinkSpec(link.src, link.dst, max(measured)))
        else:
            logging.getLogger(__name__).warning(
                "link (%d, %d): no probe succeeded for %s or %s; keeping rtt %.3f ms",
                link.src,
                link.dst,
                *ends,
                link.rtt_s * 1000.0,
            )
            links.append(link)
    return Topology(topology.nodes, tuple(links))
