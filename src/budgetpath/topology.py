"""Data-plane graph model: cloud instances, links, and RTT probing.

Topology files are JSON documents with top-level `nodes` and `links`
arrays. RTTs are milliseconds at the file boundary and seconds internally.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable

from budgetpath.records import Record, set_field
from budgetpath.search import EdgeList

_NODE_KEYS = {
    "id",
    "name",
    "public_address",
    "max_egress_mbps",
    "payg_usd_per_mbps_hour",
    "pfdt_usd_per_gb",
}
_LINK_KEYS = {"src", "dst", "rtt_ms"}


class TopologyError(ValueError):
    """Raised for malformed or invalid topology documents."""


class NodeSpec(Record):
    """One cloud instance / edge router.

    Rates may be absent (None) individually, but not both: a node must
    offer at least one billing method. `payg_rate` is in USD per Mbps per
    hour, `pfdt_rate` in USD per GB.
    """

    __slots__ = _fields = (
        "id", "name", "public_address", "max_egress_mbps", "payg_rate", "pfdt_rate"
    )

    def __init__(
        self,
        id: int,
        name: str,
        public_address: str,
        max_egress_mbps: float,
        payg_rate: float | None,
        pfdt_rate: float | None,
    ) -> None:
        set_field(self, "id", id)
        set_field(self, "name", name)
        set_field(self, "public_address", public_address)
        set_field(self, "max_egress_mbps", max_egress_mbps)
        set_field(self, "payg_rate", payg_rate)
        set_field(self, "pfdt_rate", pfdt_rate)

    def validate(self) -> None:
        if self.max_egress_mbps <= 0:
            raise TopologyError(f"node {self.id} ({self.name}): max_egress_mbps must be > 0")
        if self.payg_rate is None and self.pfdt_rate is None:
            raise TopologyError(f"node {self.id} ({self.name}): no billing rate given")
        for label, rate in (("payg", self.payg_rate), ("pfdt", self.pfdt_rate)):
            if rate is not None and (rate < 0 or not math.isfinite(rate)):
                raise TopologyError(f"node {self.id} ({self.name}): invalid {label} rate {rate}")


class LinkSpec(Record):
    """A directed physical connection; rtt_s is the measured round trip in seconds."""

    __slots__ = _fields = ("src", "dst", "rtt_s")

    def __init__(self, src: int, dst: int, rtt_s: float) -> None:
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "rtt_s", rtt_s)


class Topology(Record):
    """Validated nodes and directed links; the edge list is built on first use."""

    _fields = ("nodes", "links")
    __slots__ = (*_fields, "_edges")

    def __init__(self, nodes: tuple[NodeSpec, ...], links: tuple[LinkSpec, ...]) -> None:
        ids = [n.id for n in nodes]
        if ids != list(range(len(nodes))):
            raise TopologyError(f"node ids must be unique and contiguous from 0, got {ids}")
        for node in nodes:
            node.validate()
        seen: set[tuple[int, int]] = set()
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
        set_field(self, "nodes", nodes)
        set_field(self, "links", links)
        set_field(self, "_edges", None)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> NodeSpec:
        return self.nodes[node_id]

    def rtt(self, src: int, dst: int) -> float:
        for link in self.links:
            if link.src == src and link.dst == dst:
                return link.rtt_s
        raise KeyError(f"no link ({src}, {dst})")

    def neighbors(self, node_id: int) -> list[int]:
        return sorted(link.dst for link in self.links if link.src == node_id)

    @property
    def edges(self) -> EdgeList:
        """The links as a compressed sparse row edge list, built once per topology.

        Each edge's delay is its link's one-way propagation delay, rtt_s / 2.0;
        links with equal rtts, such as the two directions of an undirected
        link, share one delay float.
        """
        if self._edges is None:
            halves: dict[float, float] = {}
            edges = (
                (link.src, link.dst, halves.setdefault(link.rtt_s, link.rtt_s / 2.0))
                for link in self.links
            )
            set_field(self, "_edges", EdgeList.from_edges(len(self.nodes), edges))
        return self._edges


def expand_undirected(topology: Topology) -> Topology:
    """Add the reverse of every link with the same rtt. Idempotent.

    A pre-existing reverse link with a different rtt is a conflict, not a
    silent overwrite.
    """
    by_pair = {(l.src, l.dst): l for l in topology.links}
    links = list(topology.links)
    for link in topology.links:
        reverse = by_pair.get((link.dst, link.src))
        if reverse is None:
            links.append(LinkSpec(link.dst, link.src, link.rtt_s))
        elif reverse.rtt_s != link.rtt_s:
            raise TopologyError(
                f"links ({link.src}, {link.dst}) and ({link.dst}, {link.src}) disagree on rtt "
                "in undirected mode"
            )
    return Topology(topology.nodes, tuple(links))


def _parse_rate(entry: dict, key: str, where: str) -> float | None:
    value = entry.get(key)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TopologyError(f"{where}: {key} must be a number or null")
    return float(value)


def _array(doc: dict, key: str) -> list:
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise TopologyError(f"{key} must be an array, got {type(entries).__name__}")
    return entries


def _entry_error(where: str, entry, reason: str) -> TopologyError:
    """Name the entry a node or link could not be read from, and why."""
    if not isinstance(entry, dict):
        reason = f"expected an object, got {type(entry).__name__}"
    return TopologyError(f"{where}: {reason}")


def _wrong_type(where: str, key: str, value, expected: str) -> TopologyError:
    return TopologyError(f"{where}: invalid value: {key} must be {expected}, got {value!r}")


# Entry values are type-checked, never converted: `type(value) is int` and
# `type(value) in _NUMBER` both reject bool, a subclass of int.
_NUMBER = (int, float)

# An entry that is not an object, or a number too large for a float, raises one
# of these while its record is built. They are caught around each entry, so a
# valid document pays for no extra checks.
_ENTRY_ERRORS = (TypeError, OverflowError)


def topology_from_dict(doc: dict, mode: str = "undirected") -> Topology:
    if mode not in ("directed", "undirected"):
        raise TopologyError(f"unknown mode {mode!r}")
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be an object")
    unknown = set(doc) - {"nodes", "links"}
    if unknown:
        raise TopologyError(f"unknown top-level keys: {sorted(unknown)}")

    nodes = []
    for index, entry in enumerate(_array(doc, "nodes")):
        where = f"node entry {index}"
        try:
            extra = set(entry) - _NODE_KEYS
            if extra:
                raise _entry_error(where, entry, f"unknown keys {sorted(extra)}")
            node_id, name, address = entry["id"], entry["name"], entry["public_address"]
            egress = entry["max_egress_mbps"]
            if type(node_id) is not int:
                raise _wrong_type(where, "id", node_id, "an integer")
            if type(name) is not str:
                raise _wrong_type(where, "name", name, "a string")
            if type(address) is not str:
                raise _wrong_type(where, "public_address", address, "a string")
            if type(egress) not in _NUMBER:
                raise _wrong_type(where, "max_egress_mbps", egress, "a number")
            nodes.append(
                NodeSpec(
                    id=node_id,
                    name=name,
                    public_address=address,
                    max_egress_mbps=float(egress),
                    payg_rate=_parse_rate(entry, "payg_usd_per_mbps_hour", where),
                    pfdt_rate=_parse_rate(entry, "pfdt_usd_per_gb", where),
                )
            )
        except TopologyError:
            raise
        except KeyError as exc:
            raise _entry_error(where, entry, f"missing key {exc.args[0]!r}") from exc
        except _ENTRY_ERRORS as exc:
            raise _entry_error(where, entry, f"invalid value: {exc}") from exc

    links = []
    for index, entry in enumerate(_array(doc, "links")):
        try:
            extra = set(entry) - _LINK_KEYS
            if extra:
                raise _entry_error(f"link entry {index}", entry, f"unknown keys {sorted(extra)}")
            src, dst, rtt_ms = entry["src"], entry["dst"], entry["rtt_ms"]
            if type(src) is not int:
                raise _wrong_type(f"link entry {index}", "src", src, "an integer")
            if type(dst) is not int:
                raise _wrong_type(f"link entry {index}", "dst", dst, "an integer")
            if type(rtt_ms) not in _NUMBER:
                raise _wrong_type(f"link entry {index}", "rtt_ms", rtt_ms, "a number")
            links.append(LinkSpec(src, dst, rtt_ms / 1000.0))
        except TopologyError:
            raise
        except KeyError as exc:
            raise _entry_error(f"link entry {index}", entry, f"missing key {exc.args[0]!r}") from exc
        except _ENTRY_ERRORS as exc:
            raise _entry_error(f"link entry {index}", entry, f"invalid value: {exc}") from exc

    topology = Topology(tuple(nodes), tuple(links))
    if mode == "undirected":
        topology = expand_undirected(topology)
    return topology


def topology_to_dict(topology: Topology) -> dict:
    """Serialize as a fully directed document; re-loading in directed mode round-trips."""
    return {
        "nodes": [
            {
                "id": n.id,
                "name": n.name,
                "public_address": n.public_address,
                "max_egress_mbps": n.max_egress_mbps,
                "payg_usd_per_mbps_hour": n.payg_rate,
                "pfdt_usd_per_gb": n.pfdt_rate,
            }
            for n in topology.nodes
        ],
        "links": [{"src": l.src, "dst": l.dst, "rtt_ms": l.rtt_s * 1000.0} for l in topology.links],
    }


def load_topology(path, mode: str = "undirected") -> Topology:
    """Load and validate a topology file; undirected mode symmetrizes the link set."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TopologyError(f"{path}: malformed JSON: {exc}") from exc
    except OSError as exc:
        raise TopologyError(f"{path}: {exc}") from exc
    return topology_from_dict(doc, mode=mode)


def save_topology(topology: Topology, path) -> None:
    with open(path, "w") as fh:
        json.dump(topology_to_dict(topology), fh, indent=2)
        fh.write("\n")


def _ping_once(address: str, timeout_s: float = 2.0) -> float | None:
    """Single ICMP echo via the system ping; returns RTT in seconds or None."""
    import subprocess

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
    """Re-measure every link's rtt as the median of `attempts` probes.

    Links whose probes all fail keep their original rtt and are logged as
    warnings. Only the availability of a probing mechanism is fatal.
    """
    # probing is the only user of these modules, so loading a topology skips them
    import logging
    import shutil
    import statistics

    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if prober is None:
        if shutil.which("ping") is None:
            raise RuntimeError("no ping executable available for probing")
        prober = _ping_once

    links = []
    for link in topology.links:
        address = topology.node(link.dst).public_address
        samples = [s for s in (prober(address) for _ in range(attempts)) if s is not None]
        if samples:
            links.append(LinkSpec(link.src, link.dst, statistics.median(samples)))
        else:
            logging.getLogger(__name__).warning(
                "link (%d, %d): no probe succeeded for %s; keeping rtt %.3f ms",
                link.src,
                link.dst,
                address,
                link.rtt_s * 1000.0,
            )
            links.append(link)
    return Topology(topology.nodes, tuple(links))

