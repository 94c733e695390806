"""Data-plane graph model: cloud instances and links.

Topology files are JSON documents with top-level `nodes` and `links`
arrays. RTTs are milliseconds at the file boundary and seconds internally.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

from budgetpath.records import Record, set_field

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


def check_node_ids(n: int, **nodes: int) -> None:
    """TopologyError unless every value given is a node id of an n-node graph.

    Each keyword names its node in the error, e.g. `source=9` gives
    "source 9 is not a valid node id". A negative id is refused too: as an
    index it would read another node's entry.
    """
    for label, node in nodes.items():
        if not 0 <= node < n:
            raise TopologyError(f"{label} {node} is not a valid node id")


class NoPathError(ValueError):
    """Raised when the source cannot reach the destination, which no budget can fix."""

    def __init__(self, source: int, destination: int) -> None:
        super().__init__(f"no path from {source} to {destination}")


class NodeSpec(Record):
    """One cloud instance / edge router.

    Rates may be absent (None) individually, but not both: a node must
    offer at least one billing method. `payg_rate` is in USD per Mbps per
    hour, `pfdt_rate` in USD per GB.
    """

    __slots__ = _fields = (
        "id", "name", "public_address", "max_egress_mbps", "payg_rate", "pfdt_rate"
    )

    # written out, not Record's: the loader builds one per node entry, and this is faster
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
        if not 0 < self.max_egress_mbps < math.inf:
            raise TopologyError(
                f"node {self.id} ({self.name}): max_egress_mbps must be finite and > 0, "
                f"got {self.max_egress_mbps}"
            )
        if self.payg_rate is None and self.pfdt_rate is None:
            raise TopologyError(f"node {self.id} ({self.name}): no billing rate given")
        for label, rate in (("payg", self.payg_rate), ("pfdt", self.pfdt_rate)):
            if rate is not None and (rate < 0 or not math.isfinite(rate)):
                raise TopologyError(f"node {self.id} ({self.name}): invalid {label} rate {rate}")


class LinkSpec(Record):
    """A directed physical connection; rtt_s is the measured round trip in seconds."""

    __slots__ = _fields = ("src", "dst", "rtt_s")


class EdgeList(Record):
    """A topology's links as directed edges in compressed sparse row form.

    The edges leaving node u are offsets[u] <= e < offsets[u + 1], in
    increasing dst order; edge e runs to dst[e] and delays the data by
    delay[e] seconds of propagation. Only `Topology.edges` builds one, from
    links that `Topology` has checked, so no edge is a self-loop or a
    duplicate, every dst is a node id and every delay is finite and >= 0.
    """

    __slots__ = _fields = ("offsets", "dst", "delay")

    @property
    def n(self) -> int:
        return len(self.offsets) - 1

    def successors(self, node: int) -> tuple[int, ...]:
        check_node_ids(self.n, node=node)
        return self.dst[self.offsets[node] : self.offsets[node + 1]]

    def index(self, src: int, dst: int) -> int:
        """Index of edge (src, dst); KeyError if the graph has no such edge."""
        check_node_ids(self.n, source=src, destination=dst)
        lo, hi = self.offsets[src], self.offsets[src + 1]
        e = bisect_left(self.dst, dst, lo, hi)
        if e == hi or self.dst[e] != dst:
            raise KeyError(f"no edge ({src}, {dst})")
        return e


class Topology(Record):
    """Validated nodes and directed links, kept as three checked columns in link order.

    A topology keeps a tuple of the nodes and copies of the link fields it was
    given, never the caller's lists; `links`, the same links as `LinkSpec`
    records, and `edges` are built from the checked columns on first use, as
    are the nodes' `rate_extremes`.
    """

    _fields = ("nodes", "links")
    __slots__ = ("nodes", "_src", "_dst", "_rtt", "_links", "_edges", "_extremes")
    # `__new__` builds a topology; Record's constructor would try to assign `links`
    __init__ = object.__init__

    def __new__(cls, nodes: tuple[NodeSpec, ...], links: tuple[LinkSpec, ...]) -> Topology:
        links = tuple(links)  # read three times below, so an iterator is read once first
        src, dst, rtt = ([getattr(link, name) for link in links] for name in LinkSpec._fields)
        return cls._from_columns(nodes, src, dst, rtt)

    @classmethod
    def _from_columns(cls, nodes, src, dst, rtt) -> Topology:
        """Check the nodes and the links given as columns, and keep tuples of them."""
        nodes = tuple(nodes)
        n = len(nodes)
        ids = [node.id for node in nodes]
        if ids != list(range(n)):
            index = next(i for i, node_id in enumerate(ids) if node_id != i)
            raise TopologyError(
                "node ids must be unique and contiguous from 0, "
                f"but node entry {index} has id {ids[index]!r}"
            )
        for node in nodes:
            node.validate()
        # the one loop over every link: the checks share one condition, and _link_error
        # works out which one failed; u * n + v names a pair once both ends are in range
        pairs: set[int] = set()
        add_pair = pairs.add
        inf = math.inf
        for u, v, rtt_s in zip(src, dst, rtt):
            if u != v and 0 <= u < n and 0 <= v < n and 0 <= rtt_s < inf and (
                (pair := u * n + v) not in pairs
            ):
                add_pair(pair)
            else:
                raise _link_error(u, v, rtt_s, n)
        topology = object.__new__(cls)
        values = (nodes, tuple(src), tuple(dst), tuple(rtt), None, None, None)
        for name, value in zip(cls.__slots__, values):
            set_field(topology, name, value)
        return topology

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> NodeSpec:
        return self.nodes[node_id]

    @property
    def links(self) -> tuple[LinkSpec, ...]:
        """The links as `LinkSpec` records in link order, built once per topology."""
        if self._links is None:
            set_field(self, "_links", tuple(map(LinkSpec, self._src, self._dst, self._rtt)))
        return self._links

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
            ordered = sorted(
                (u, v, halves.setdefault(rtt_s, rtt_s / 2.0))
                for u, v, rtt_s in zip(self._src, self._dst, self._rtt)
            )
            n = len(self.nodes)
            offsets = [0] * (n + 1)
            for u, _, _ in ordered:
                offsets[u + 1] += 1
            for u in range(n):
                offsets[u + 1] += offsets[u]
            edges = EdgeList(
                tuple(offsets),
                tuple(v for _, v, _ in ordered),
                tuple(delay for _, _, delay in ordered),
            )
            set_field(self, "_edges", edges)
        return self._edges

    @property
    def rate_extremes(self) -> tuple[float, float, float, float, float]:
        """The nodes' extreme caps and rates, worked out once per topology.

        (least cap, largest cap, largest rate) over the nodes that offer
        PAYG, then (least cap, largest rate) over those that offer PFDT. A
        least cap over no node is inf and a largest value 0.0, so that
        `billing.refuses_no_node` needs no case for a method no node offers.
        """
        if self._extremes is None:
            payg = [node for node in self.nodes if node.payg_rate is not None]
            pfdt = [node for node in self.nodes if node.pfdt_rate is not None]
            extremes = (
                min((node.max_egress_mbps for node in payg), default=math.inf),
                max((node.max_egress_mbps for node in payg), default=0.0),
                max((node.payg_rate for node in payg), default=0.0),
                min((node.max_egress_mbps for node in pfdt), default=math.inf),
                max((node.pfdt_rate for node in pfdt), default=0.0),
            )
            set_field(self, "_extremes", extremes)
        return self._extremes


def _link_error(src, dst, rtt_s, n_nodes: int) -> TopologyError:
    """Why `Topology` rejects the link (src, dst, rtt_s): the first of its checks it fails."""
    if src == dst:
        return TopologyError(f"link ({src}, {dst}): self-loop")
    for end in (src, dst):
        if not 0 <= end < n_nodes:
            return TopologyError(f"link ({src}, {dst}): endpoint {end} is not a node id")
    if not 0 <= rtt_s < math.inf:
        return TopologyError(f"link ({src}, {dst}): invalid rtt {rtt_s}")
    return TopologyError(f"duplicate directed link ({src}, {dst})")


def _array(doc: dict, key: str) -> list:
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise TopologyError(f"{key} must be an array, got {type(entries).__name__}")
    return entries


# Entry values are type-checked, never converted: `type(value) is int` and
# `type(value) in _NUMBER` both reject bool, a subclass of int.
_NUMBER = (int, float)

# The required keys of an entry, in the order they are checked, each with
# the types it accepts and what an error says it must be.
_NODE_FIELDS = (
    ("id", (int,), "an integer"),
    ("name", (str,), "a string"),
    ("public_address", (str,), "a string"),
    ("max_egress_mbps", _NUMBER, "a number"),
)
_LINK_FIELDS = (
    ("src", (int,), "an integer"),
    ("dst", (int,), "an integer"),
    ("rtt_ms", _NUMBER, "a number"),
)
# The keys whose values are converted to float, in the order they are
# converted; only the rates may be null.
_NODE_FLOATS = ("max_egress_mbps", "payg_usd_per_mbps_hour", "pfdt_usd_per_gb")
_LINK_FLOATS = ("rtt_ms",)

# Reading an entry that is not an object or lacks a key raises one of these,
# and so does converting a number too large for a float. The parse loops
# catch them around each entry, so a valid document pays for no extra checks.
_ENTRY_ERRORS = (AttributeError, KeyError, TypeError, OverflowError)


def _entry_error(where: str, entry, keys: set[str], fields: tuple, floats: tuple) -> TopologyError:
    """Why a node or link entry could not be read: the first check it fails.

    Only an entry that the loader's parse loop rejects comes here.
    """
    if not isinstance(entry, dict):
        return TopologyError(f"{where}: expected an object, got {type(entry).__name__}")
    extra = entry.keys() - keys
    if extra:
        return TopologyError(f"{where}: unknown keys {sorted(extra)}")
    for key, _, _ in fields:
        if key not in entry:
            return TopologyError(f"{where}: missing key {key!r}")
    for key, types, expected in fields:
        if type(entry[key]) not in types:
            return TopologyError(
                f"{where}: invalid value: {key} must be {expected}, got {entry[key]!r}"
            )
    for key in floats:
        value = entry.get(key)
        if value is None:
            continue
        if type(value) not in _NUMBER:
            return TopologyError(f"{where}: {key} must be a number or null")
        try:
            float(value)
        except OverflowError as exc:
            return TopologyError(f"{where}: invalid value: {exc}")
    raise AssertionError(f"{where} passes every check")


def topology_from_dict(doc: dict, mode: str = "undirected") -> Topology:
    """Check and build a topology; undirected mode adds each link's reverse first.

    A reverse has its original's rtt and follows the document's links in the order
    of the originals; the list is checked once, then two rtts for a pair are an error.
    """
    if mode not in ("directed", "undirected"):
        raise TopologyError(f"unknown mode {mode!r}")
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be an object")
    unknown = set(doc) - {"nodes", "links"}
    if unknown:
        raise TopologyError(f"unknown top-level keys: {sorted(unknown)}")

    nodes = []
    for index, entry in enumerate(_array(doc, "nodes")):
        try:
            if entry.keys() <= _NODE_KEYS:
                node_id, name, address = entry["id"], entry["name"], entry["public_address"]
                egress = entry["max_egress_mbps"]
                payg = entry.get("payg_usd_per_mbps_hour")
                pfdt = entry.get("pfdt_usd_per_gb")
                if (
                    type(node_id) is int
                    and type(name) is str
                    and type(address) is str
                    and type(egress) in _NUMBER
                    and (payg is None or type(payg) in _NUMBER)
                    and (pfdt is None or type(pfdt) in _NUMBER)
                ):
                    payg = None if payg is None else float(payg)
                    pfdt = None if pfdt is None else float(pfdt)
                    nodes.append(NodeSpec(node_id, name, address, float(egress), payg, pfdt))
                    continue
        except _ENTRY_ERRORS:
            pass
        raise _entry_error(f"node entry {index}", entry, _NODE_KEYS, _NODE_FIELDS, _NODE_FLOATS)

    src, dst, rtt = [], [], []
    add_src, add_dst, add_rtt = src.append, dst.append, rtt.append
    for index, entry in enumerate(_array(doc, "links")):
        try:
            # three items that include the three keys are exactly those keys
            if len(entry) == 3:
                u, v, rtt_ms = entry["src"], entry["dst"], entry["rtt_ms"]
                if type(u) is int and type(v) is int and type(rtt_ms) in _NUMBER:
                    add_src(u)
                    add_dst(v)
                    add_rtt(rtt_ms / 1000.0)
                    continue
        except _ENTRY_ERRORS:
            pass
        raise _entry_error(f"link entry {index}", entry, _LINK_KEYS, _LINK_FIELDS, _LINK_FLOATS)

    conflict = None
    if mode == "undirected":
        rtts = dict(zip(zip(src, dst), rtt))
        for (u, v), rtt_s in rtts.items():
            reverse = rtts.get((v, u))
            if reverse is None:
                add_src(v)
                add_dst(u)
                add_rtt(rtt_s)
            elif reverse != rtt_s and conflict is None:
                conflict = TopologyError(
                    f"links ({u}, {v}) and ({v}, {u}) disagree on rtt in undirected mode"
                )
    topology = Topology._from_columns(tuple(nodes), src, dst, rtt)
    if conflict is not None:
        raise conflict
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


def read_json(path, error: type[ValueError] = ValueError):
    """The document in a UTF-8 JSON file; `error`, naming the file, if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: malformed JSON: {exc}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not UTF-8, nested too deeply, or holding a number too long to read
        raise error(f"{path}: {exc}") from exc


def json_text(doc) -> str:
    """A document as the package writes plans, reports and manifests: indented, keys sorted."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def number_text(value: float, places: int) -> str:
    """A number as the package's summary lines and tables print it.

    Fixed point with `places` decimals below 1e9, exponent form (`.4e`) from
    1e9 up, so that a huge number is not written out with all of its digits.
    """
    return f"{value:.{places}f}" if value < 1e9 else f"{value:.4e}"


def load_topology(path, mode: str = "undirected") -> Topology:
    """Load and validate a topology file; undirected mode symmetrizes the link set.

    Errors in reading the file name it.
    """
    return topology_from_dict(read_json(path, TopologyError), mode=mode)


def save_topology(topology: Topology, path) -> None:
    # keys unsorted, unlike json_text, so a probed topology keeps its file's layout
    with open(path, "w") as fh:
        json.dump(topology_to_dict(topology), fh, indent=2)
        fh.write("\n")

