"""Render a planned path as chained WireGuard tunnels.

Each path node gets an overlay address, a fresh Curve25519 keypair and
peer entries for its path-adjacent nodes. AllowedIPs are set so cryptokey
routing forwards a packet addressed to the destination overlay address
hop by hop along the planned order (and symmetrically in reverse).
Interior hops terminate one tunnel and re-encrypt into the next.
"""

from __future__ import annotations

import base64
import ipaddress
import itertools
import os
from collections.abc import Callable
from pathlib import Path

from budgetpath.planner import Plan
from budgetpath.records import Record
from budgetpath.topology import Topology, json_text

DEFAULT_KEEPALIVE_S = 25
DEFAULT_LISTEN_PORT = 51820


class TunnelError(ValueError):
    """Invalid tunnel build inputs."""


def clamp_scalar(raw: bytes) -> bytes:
    """Clamp 32 entropy bytes into a valid Curve25519 scalar."""
    if len(raw) != 32:
        raise TunnelError(f"scalar must be 32 bytes, got {len(raw)}")
    scalar = bytearray(raw)
    scalar[0] &= 248
    scalar[31] &= 127
    scalar[31] |= 64
    return bytes(scalar)


class KeyPair(Record):
    """A clamped 32-byte Curve25519 private scalar and its public point."""

    __slots__ = _fields = ("private", "public")

    @property
    def private_b64(self) -> str:
        return base64.b64encode(self.private).decode()

    @property
    def public_b64(self) -> str:
        return base64.b64encode(self.public).decode()


def generate_keypair(entropy: bytes) -> KeyPair:
    """Deterministically derive a clamped keypair from 32 entropy bytes."""
    # imported here so that planning, which never needs keys, skips its import cost
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

    private = clamp_scalar(entropy)
    public = X25519PrivateKey.from_private_bytes(private).public_key().public_bytes_raw()
    return KeyPair(private, public)


def keypair_from_private_b64(text: str) -> KeyPair:
    """The key pair of a base64 private key; any character outside the alphabet is an error."""
    raw = base64.b64decode(text, validate=True)
    if raw != clamp_scalar(raw):
        raise TunnelError("private key is not clamped")
    return generate_keypair(raw)


class PeerEntry(Record):
    """One `[Peer]` section; a `keepalive_s` of None omits PersistentKeepalive."""

    __slots__ = _fields = ("public_key_b64", "endpoint", "allowed_ips", "keepalive_s")

    def __init__(
        self,
        public_key_b64: str,
        endpoint: str,
        allowed_ips: tuple[str, ...],
        keepalive_s: int | None = DEFAULT_KEEPALIVE_S,
    ) -> None:
        super().__init__(public_key_b64, endpoint, allowed_ips, keepalive_s)


class TunnelSpec(Record):
    """One node's tunnel; `overlay_address` carries its prefix length, e.g. 10.44.0.1/24."""

    __slots__ = _fields = ("node_id", "overlay_address", "listen_port", "keypair", "peers")

    @property
    def is_relay(self) -> bool:
        return len(self.peers) == 2


def build_tunnels(
    plan: Plan,
    topology: Topology,
    overlay_subnet: str = "10.44.0.0/24",
    base_port: int = DEFAULT_LISTEN_PORT,
    entropy_source: Callable[[], bytes] | None = None,
    identity_keys: dict[int, KeyPair] | None = None,
) -> list[TunnelSpec]:
    """One TunnelSpec per path node, chained along the planned hop order.

    Keys are fresh per build by default; `identity_keys` (node id -> pair)
    supplies stable identities for the nodes it covers.

    The i-th path node gets the i-th usable host address of the overlay
    subnet. The toward-destination peer carries the /32 (or /128) overlay
    addresses of every downstream node, the toward-source peer every
    upstream one, so transit traffic is routed onward at each relay.
    Distinct hosts share `base_port`; when two path nodes share a public
    address (loopback test setups) each node gets base_port + path index.
    Every node's port must be in 1..65535, and every hop a link of the
    topology.
    """
    path = plan.path
    edges = topology.edges
    for u, v in zip(path, path[1:]):
        # u is range-checked first: a negative id would read another node's row
        if not 0 <= u < edges.n or v not in edges.successors(u):
            raise TunnelError(f"plan hop ({u}, {v}) is not a link of the topology")
    if entropy_source is None:
        entropy_source = lambda: os.urandom(32)

    network = ipaddress.ip_network(overlay_subnet, strict=True)
    hosts = list(itertools.islice(network.hosts(), len(path)))
    if len(hosts) < len(path):
        raise TunnelError(
            f"overlay subnet {overlay_subnet} has fewer than {len(path)} usable hosts"
        )

    public_addresses = [topology.node(i).public_address for i in path]
    shared_host = len(set(public_addresses)) < len(public_addresses)
    ports = [base_port + i if shared_host else base_port for i in range(len(path))]
    for port in ports:
        if not 1 <= port <= 65535:
            raise TunnelError(f"listen port {port} is outside 1..65535")
    identity_keys = identity_keys or {}
    keypairs = [
        identity_keys[node_id] if node_id in identity_keys else generate_keypair(entropy_source())
        for node_id in path
    ]

    def peer(j: int, hosts_behind: range) -> PeerEntry:
        """Path node j as a peer that routes the overlay addresses of the path indices given."""
        return PeerEntry(
            public_key_b64=keypairs[j].public_b64,
            endpoint=f"{public_addresses[j]}:{ports[j]}",
            allowed_ips=tuple(f"{hosts[h]}/{network.max_prefixlen}" for h in hosts_behind),
        )

    specs = []
    for i, node_id in enumerate(path):
        peers = []
        if i > 0:
            peers.append(peer(i - 1, range(i)))
        if i < len(path) - 1:
            peers.append(peer(i + 1, range(i + 1, len(path))))
        specs.append(
            TunnelSpec(
                node_id=node_id,
                overlay_address=f"{hosts[i]}/{network.prefixlen}",
                listen_port=ports[i],
                keypair=keypairs[i],
                peers=tuple(peers),
            )
        )
    return specs


def render_conf(spec: TunnelSpec) -> str:
    """wg-quick compatible INI text; field order is part of the contract."""
    lines = [f"# Node: {spec.node_id}"]
    if spec.is_relay:
        lines.append("# Relay node: enable IP forwarding (e.g. net.ipv4.ip_forward=1) so transit traffic is passed on.")
    lines += [
        "[Interface]",
        f"PrivateKey = {spec.keypair.private_b64}",
        f"Address = {spec.overlay_address}",
        f"ListenPort = {spec.listen_port}",
    ]
    for peer in spec.peers:
        lines += [
            "",
            "[Peer]",
            f"PublicKey = {peer.public_key_b64}",
            f"Endpoint = {peer.endpoint}",
            f"AllowedIPs = {', '.join(peer.allowed_ips)}",
        ]
        if peer.keepalive_s is not None:
            lines.append(f"PersistentKeepalive = {peer.keepalive_s}")
    return "\n".join(lines) + "\n"


def write_tunnel_files(specs: list[TunnelSpec], topology: Topology, out_dir) -> dict:
    """Write one conf per node plus a manifest mapping names to keys/files.

    Each node's name must be a distinct plain file name, checked before
    anything is written, so no conf lands outside `out_dir` or replaces
    another's. A conf holds its node's private key, so it is written
    owner-only (0600), also over an existing file; the manifest holds
    only public keys.
    """
    seen: dict[str, int] = {}
    for spec in specs:
        node = topology.node(spec.node_id)
        if node.name in ("", ".", "..") or any(c in node.name for c in "/\\\0"):
            raise TunnelError(f"node {node.id} ({node.name!r}): name is not a plain file name")
        if node.name in seen:
            raise TunnelError(
                f"nodes {seen[node.name]} and {node.id} are both named {node.name!r}; "
                "each path node needs its own conf file"
            )
        seen[node.name] = node.id
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for spec in specs:
        node = topology.node(spec.node_id)
        conf_name = f"{node.name}.conf"
        fd = os.open(out / conf_name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        with open(fd, "w") as fh:
            # O_CREAT applies the mode only to a new file
            os.fchmod(fd, 0o600)
            fh.write(render_conf(spec))
        manifest[node.name] = {
            "public_address": node.public_address,
            "conf_file": conf_name,
            "public_key": spec.keypair.public_b64,
        }
    (out / "manifest.json").write_text(json_text(manifest))
    return manifest
