import os
import random
import re
import stat

import pytest

from budgetpath.billing import BillingMethod, NodeBillingConfig
from budgetpath.planner import Plan
from budgetpath.topology import LinkSpec, NodeSpec, Topology
from budgetpath.tunnels import (
    TunnelError,
    build_tunnels,
    clamp_scalar,
    generate_keypair,
    render_conf,
    write_tunnel_files,
)
from helpers import parse_conf, route_packet, x25519_reference

# RFC 7748 section 6.1 Diffie-Hellman vector (Alice's key pair)
RFC7748_SCALAR = bytes.fromhex(
    "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
RFC7748_PUBLIC = bytes.fromhex(
    "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")


# 32 bytes of 0xff, which clamping would change
UNCLAMPED_B64 = "/" * 43 + "="


def make_topology(n, shared_address=False):
    nodes = tuple(
        NodeSpec(i, f"node{i}", "127.0.0.1" if shared_address else f"198.51.100.{i+1}",
                 100.0, 0.021, 0.081)
        for i in range(n))
    links = []
    for i in range(n - 1):
        links += [LinkSpec(i, i + 1, 0.01), LinkSpec(i + 1, i, 0.01)]
    return Topology(nodes, tuple(links))


def make_plan(path):
    configs = {i: NodeBillingConfig(BillingMethod.PFDT, 100.0) for i in path[:-1]}
    return Plan(tuple(path), configs, 0.081 * (len(path) - 1), 80.0 * (len(path) - 1), 1.0, 0)


def seeded_entropy(seed):
    rng = random.Random(seed)
    return lambda: rng.randbytes(32)


class TestKeys:
    def test_clamp_bits(self):
        pair = generate_keypair(bytes([0x42] * 32))
        assert pair.private[0] & 0x07 == 0
        assert pair.private[31] & 0x80 == 0
        assert pair.private[31] & 0x40 == 0x40

    def test_distinct_entropy_distinct_keys(self):
        k1 = generate_keypair(bytes([1] * 32))
        k2 = generate_keypair(bytes([2] * 32))
        assert k1.public != k2.public

    def test_rfc7748_vector(self):
        pair = generate_keypair(RFC7748_SCALAR)
        assert pair.public == RFC7748_PUBLIC
        assert x25519_reference(RFC7748_SCALAR) == RFC7748_PUBLIC

    def test_reference_agrees_on_random_scalars(self):
        rng = random.Random(8)
        for _ in range(10):
            entropy = rng.randbytes(32)
            assert generate_keypair(entropy).public == x25519_reference(entropy)

    def test_base64_form(self):
        pair = generate_keypair(bytes([7] * 32))
        assert len(pair.public_b64) == 44
        assert pair.public_b64.endswith("=")

    def test_rejects_short_entropy(self):
        with pytest.raises(TunnelError):
            generate_keypair(b"short")


class TestBuildTunnels:
    def test_two_node_chain(self):
        topo = make_topology(2)
        specs = build_tunnels(make_plan([0, 1]), topo, entropy_source=seeded_entropy(1))
        assert len(specs) == 2
        assert all(len(s.peers) == 1 for s in specs)
        assert specs[0].peers[0].allowed_ips == ("10.44.0.2/32",)
        assert specs[1].peers[0].allowed_ips == ("10.44.0.1/32",)

    def test_four_node_allowed_ips_closure(self):
        topo = make_topology(4)
        specs = build_tunnels(make_plan([0, 1, 2, 3]), topo, entropy_source=seeded_entropy(2))
        a = specs[1]  # second hop
        assert len(a.peers) == 2
        toward_source, toward_dest = a.peers
        assert toward_source.allowed_ips == ("10.44.0.1/32",)
        assert toward_dest.allowed_ips == ("10.44.0.3/32", "10.44.0.4/32")
        assert specs[0].overlay_address == "10.44.0.1/24"
        assert [len(s.peers) for s in specs] == [1, 2, 2, 1]

    def test_subnet_exhaustion(self):
        topo = make_topology(4)
        with pytest.raises(TunnelError, match="usable hosts"):
            build_tunnels(make_plan([0, 1, 2, 3]), topo, overlay_subnet="10.44.0.0/30",
                          entropy_source=seeded_entropy(3))

    @pytest.mark.parametrize("path, message", [
        ([0], "plan path must have at least 2 nodes, got 1"),
        ([0, 1, 1], "plan path visits node 1 twice"),
        ([0, 1, 0], "plan path visits node 0 twice"),
    ])
    def test_plan_refuses_a_path_no_tunnel_chain_can_follow(self, path, message):
        # such a plan never reaches build_tunnels: no Plan holds its path
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_plan(path)

    def test_shared_address_gets_distinct_ports(self):
        topo = make_topology(3, shared_address=True)
        specs = build_tunnels(make_plan([0, 1, 2]), topo, entropy_source=seeded_entropy(4))
        assert [s.listen_port for s in specs] == [51820, 51821, 51822]

    @pytest.mark.parametrize("shared, base_port, ok", [
        (False, 1, True), (False, 65535, True), (True, 65533, True),
        (False, 0, False), (False, -5, False), (False, 65536, False), (True, 65534, False),
    ])
    def test_every_port_is_in_range(self, shared, base_port, ok):
        topo = make_topology(3, shared_address=shared)
        build = lambda: build_tunnels(make_plan([0, 1, 2]), topo, base_port=base_port,
                                      entropy_source=seeded_entropy(4))
        if ok:
            assert build()[-1].listen_port == base_port + 2 * shared
        else:
            with pytest.raises(TunnelError, match="outside 1..65535"):
                build()

    def test_distinct_hosts_share_port(self):
        topo = make_topology(3)
        specs = build_tunnels(make_plan([0, 1, 2]), topo, entropy_source=seeded_entropy(4))
        assert {s.listen_port for s in specs} == {51820}

    def test_identity_keys_override_fresh_ones(self):
        topo = make_topology(3)
        stable = generate_keypair(bytes([9] * 32))
        specs = build_tunnels(make_plan([0, 1, 2]), topo,
                              entropy_source=seeded_entropy(12),
                              identity_keys={1: stable})
        assert specs[1].keypair == stable
        assert specs[0].keypair != stable
        # peers of the stable node reference its supplied public key
        assert specs[0].peers[0].public_key_b64 == stable.public_b64
        assert specs[2].peers[0].public_key_b64 == stable.public_b64

    @pytest.mark.parametrize("path, hop", [
        ([0, 2], (0, 2)), ([0, 1, 3], (1, 3)), ([-2, 1], (-2, 1)),
    ])
    def test_every_hop_must_be_a_link(self, path, hop):
        # (-2, 1): offsets[-2] starts node 2's row, and node 2 links to 1
        topo = make_topology(3)
        drawn = []
        with pytest.raises(TunnelError, match=rf"plan hop \({hop[0]}, {hop[1]}\) is not a link"):
            build_tunnels(make_plan(path), topo, entropy_source=lambda: drawn.append(1))
        assert drawn == []  # rejected before any key is generated

    def test_key_uniqueness(self):
        topo = make_topology(6)
        specs = build_tunnels(make_plan(list(range(6))), topo,
                              entropy_source=seeded_entropy(5))
        publics = [s.keypair.public_b64 for s in specs]
        assert len(set(publics)) == len(publics)


class TestOverlayRouting:
    @pytest.mark.parametrize("length", [2, 3, 4, 5, 6])
    def test_packets_traverse_planned_order_both_ways(self, length):
        topo = make_topology(length)
        path = list(range(length))
        specs = build_tunnels(make_plan(path), topo, entropy_source=seeded_entropy(length))
        forward = route_packet(specs, specs[0], f"10.44.0.{length}")
        assert forward == path
        backward = route_packet(specs, specs[-1], "10.44.0.1")
        assert backward == list(reversed(path))


class TestRenderParse:
    def test_endpoint_has_one_peer_section(self):
        topo = make_topology(3)
        specs = build_tunnels(make_plan([0, 1, 2]), topo, entropy_source=seeded_entropy(6))
        assert render_conf(specs[0]).count("[Peer]") == 1
        assert render_conf(specs[1]).count("[Peer]") == 2

    def test_field_order(self):
        topo = make_topology(2)
        spec = build_tunnels(make_plan([0, 1]), topo, entropy_source=seeded_entropy(7))[0]
        text = render_conf(spec)
        assert text.index("PrivateKey") < text.index("Address") < text.index("ListenPort")
        peer = text[text.index("[Peer]"):]
        assert peer.index("PublicKey") < peer.index("Endpoint") < peer.index("AllowedIPs")

    def test_round_trip(self):
        topo = make_topology(4)
        for spec in build_tunnels(make_plan([0, 1, 2, 3]), topo,
                                  entropy_source=seeded_entropy(8)):
            assert parse_conf(render_conf(spec)) == spec

    def test_relay_forwarding_note(self):
        topo = make_topology(3)
        specs = build_tunnels(make_plan([0, 1, 2]), topo, entropy_source=seeded_entropy(9))
        assert "ip_forward" in render_conf(specs[1])
        assert "ip_forward" not in render_conf(specs[0])

    def test_parse_rejects_private_key_outside_the_alphabet(self):
        spec = build_tunnels(make_plan([0, 1]), make_topology(2),
                             entropy_source=seeded_entropy(11))[0]
        private = spec.keypair.private_b64
        text = render_conf(spec).replace(private, private[:10] + "*" + private[10:])
        with pytest.raises(ValueError, match="Only base64 data is allowed"):
            parse_conf(text)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda text: text.replace("ListenPort = ", "ListenPort "),
         r"^unparseable line: 'ListenPort 51820'$"),
        (lambda text: text.replace("# Node: 0\n", ""),
         r"^missing node comment or \[Interface\] section$"),
        (lambda text: re.sub("PrivateKey = .*", f"PrivateKey = {UNCLAMPED_B64}", text),
         r"^private key is not clamped$"),
    ], ids=["unparseable-line", "no-node-comment", "unclamped-key"])
    def test_parse_rejects_malformed_text(self, corrupt, message):
        spec = build_tunnels(make_plan([0, 1]), make_topology(2),
                             entropy_source=seeded_entropy(11))[0]
        with pytest.raises(TunnelError, match=message):
            parse_conf(corrupt(render_conf(spec)))

    @pytest.mark.parametrize("key, section", [
        ("Address", "[Interface]"), ("ListenPort", "[Interface]"), ("PublicKey", "[Peer] 2"),
        ("Endpoint", "[Peer] 2"), ("AllowedIPs", "[Peer] 2"),
    ])
    def test_parse_names_a_missing_line(self, key, section):
        spec = build_tunnels(make_plan([0, 1, 2]), make_topology(3),
                             entropy_source=seeded_entropy(12))[1]
        text = render_conf(spec)
        # drop the key's last line, which is in the relay's second peer for a peer key
        start = text.rindex(f"{key} = ")
        text = text[:start] + text[text.index("\n", start) + 1:]
        with pytest.raises(TunnelError, match=f"^{re.escape(section)} has no {key} line$"):
            parse_conf(text)

    def test_private_key_never_in_peer_sections(self):
        topo = make_topology(4)
        specs = build_tunnels(make_plan([0, 1, 2, 3]), topo, entropy_source=seeded_entropy(10))
        privates = {s.keypair.private_b64 for s in specs}
        for spec in specs:
            text = render_conf(spec)
            peer_text = text[text.index("[Peer]"):]
            assert not any(p in peer_text for p in privates)


class TestManifest:
    def test_files_and_manifest(self, tmp_path):
        topo = make_topology(3)
        specs = build_tunnels(make_plan([0, 1, 2]), topo, entropy_source=seeded_entropy(11))
        manifest = write_tunnel_files(specs, topo, tmp_path)
        for i in range(3):
            assert (tmp_path / f"node{i}.conf").exists()
            assert manifest[f"node{i}"]["conf_file"] == f"node{i}.conf"
        assert (tmp_path / "manifest.json").exists()

    def test_confs_are_owner_only_and_the_manifest_is_not(self, tmp_path):
        topo = make_topology(3)
        specs = build_tunnels(make_plan([0, 1, 2]), topo, entropy_source=seeded_entropy(11))
        # a conf left by an earlier run keeps its mode under O_CREAT alone
        stale = tmp_path / "node1.conf"
        stale.write_text("stale\n")
        stale.chmod(0o644)
        umask = os.umask(0o022)
        try:
            write_tunnel_files(specs, topo, tmp_path)
        finally:
            os.umask(umask)
        for i in range(3):
            assert stat.S_IMODE((tmp_path / f"node{i}.conf").stat().st_mode) == 0o600
        assert stale.read_text() == render_conf(specs[1])
        assert stat.S_IMODE((tmp_path / "manifest.json").stat().st_mode) == 0o644

    @pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_name_must_be_a_plain_file_name(self, tmp_path, name):
        topo = make_topology(3)
        nodes = list(topo.nodes)
        nodes[1] = NodeSpec(1, name, "198.51.100.2", 100.0, 0.021, 0.081)
        topo = Topology(tuple(nodes), topo.links)
        specs = build_tunnels(make_plan([0, 1, 2]), topo, entropy_source=seeded_entropy(11))
        with pytest.raises(TunnelError, match=r"node 1 \(.*\): name is not a plain file name"):
            write_tunnel_files(specs, topo, tmp_path / "wg")
        assert list(tmp_path.iterdir()) == []

    def test_path_nodes_need_distinct_names(self, tmp_path):
        topo = make_topology(3)
        nodes = list(topo.nodes)
        nodes[2] = NodeSpec(2, "node0", "198.51.100.3", 100.0, 0.021, 0.081)
        topo = Topology(tuple(nodes), topo.links)
        specs = build_tunnels(make_plan([0, 1, 2]), topo, entropy_source=seeded_entropy(11))
        with pytest.raises(TunnelError, match="nodes 0 and 2 are both named 'node0'"):
            write_tunnel_files(specs, topo, tmp_path / "wg")
        assert list(tmp_path.iterdir()) == []
