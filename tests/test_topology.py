import json
import logging
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from budgetpath.topology import (
    LinkSpec,
    NodeSpec,
    Topology,
    TopologyError,
    expand_undirected,
    load_topology,
    probe_rtts,
    save_topology,
    topology_from_dict,
)
from helpers import edge_triples, random_topology

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_doc(tmp_path, doc):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(doc))
    return path


def two_node_doc():
    return {
        "nodes": [
            {"id": 0, "name": "a", "public_address": "127.0.0.1", "max_egress_mbps": 100,
             "payg_usd_per_mbps_hour": 0.021, "pfdt_usd_per_gb": 0.081},
            {"id": 1, "name": "b", "public_address": "127.0.0.2", "max_egress_mbps": 100,
             "payg_usd_per_mbps_hour": 0.021, "pfdt_usd_per_gb": 0.081},
        ],
        "links": [{"src": 0, "dst": 1, "rtt_ms": 10.0}],
    }


class TestLoad:
    def test_undirected_expansion(self, tmp_path):
        topo = load_topology(write_doc(tmp_path, two_node_doc()), "undirected")
        assert len(topo.nodes) == 2
        assert {(l.src, l.dst) for l in topo.links} == {(0, 1), (1, 0)}
        assert all(l.rtt_s == 0.010 for l in topo.links)

    def test_directed_mode_keeps_single_edge(self, tmp_path):
        topo = load_topology(write_doc(tmp_path, two_node_doc()), "directed")
        assert [(l.src, l.dst) for l in topo.links] == [(0, 1)]

    def test_dangling_link_named_in_error(self, tmp_path):
        doc = two_node_doc()
        doc["nodes"].append(
            {"id": 2, "name": "c", "public_address": "127.0.0.3", "max_egress_mbps": 100,
             "payg_usd_per_mbps_hour": 0.021, "pfdt_usd_per_gb": 0.081})
        doc["links"].append({"src": 1, "dst": 7, "rtt_ms": 5.0})
        with pytest.raises(TopologyError, match=r"\(1, 7\).*7"):
            load_topology(write_doc(tmp_path, doc))

    def test_testbed6_fixture(self):
        topo = load_topology(FIXTURES / "testbed6.json")
        assert len(topo.nodes) == 6
        assert {n.name for n in topo.nodes} == {
            "beijing", "shanghai", "shenzhen", "chengdu", "london", "virginia"}

    def test_rates_fixture(self):
        topo = load_topology(FIXTURES / "alibaba_singapore_rates.json")
        assert topo.node(0).payg_rate == 0.021
        assert topo.node(0).pfdt_rate == 0.081

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nodes:")
        with pytest.raises(TopologyError, match="malformed"):
            load_topology(path)

    def test_unknown_keys_rejected(self, tmp_path):
        doc = two_node_doc()
        doc["nodes"][0]["color"] = "red"
        with pytest.raises(TopologyError, match="color"):
            load_topology(write_doc(tmp_path, doc))
        doc = two_node_doc()
        doc["extra"] = 1
        with pytest.raises(TopologyError, match="extra"):
            load_topology(write_doc(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TopologyError):
            load_topology(tmp_path / "nope.json")


def _drop_node_name(doc):
    del doc["nodes"][1]["name"]


def _node_is_string(doc):
    doc["nodes"][1] = "b"


def _drop_link_rtt(doc):
    del doc["links"][0]["rtt_ms"]


def _null_link_rtt(doc):
    doc["links"][0]["rtt_ms"] = None


def _null_node_id(doc):
    doc["nodes"][1]["id"] = None


def _nodes_is_object(doc):
    doc["nodes"] = {}


def _links_is_string(doc):
    doc["links"] = "0-1"


def _set_value(kind, index, key, value):
    def corrupt(doc):
        doc[kind][index][key] = value

    corrupt.__name__ = f"_{key}_is_{json.dumps(value)}"
    return corrupt


class TestMalformedEntries:
    @pytest.mark.parametrize("corrupt, message", [
        (_drop_node_name, r"node entry 1: missing key 'name'"),
        (_node_is_string, r"node entry 1: expected an object, got str"),
        (_drop_link_rtt, r"link entry 0: missing key 'rtt_ms'"),
        (_null_link_rtt, r"link entry 0: invalid value"),
        (_null_node_id, r"node entry 1: invalid value"),
        (_nodes_is_object, r"nodes must be an array, got dict"),
        (_links_is_string, r"links must be an array, got str"),
        (_set_value("nodes", 1, "id", True), r"node entry 1: .*id must be an integer, got True"),
        (_set_value("nodes", 1, "id", 1.0), r"node entry 1: .*id must be an integer, got 1.0"),
        (_set_value("links", 0, "src", False), r"link entry 0: .*src must be an integer, got False"),
        (_set_value("links", 0, "dst", 1.7), r"link entry 0: .*dst must be an integer, got 1.7"),
        (_set_value("nodes", 1, "name", None), r"node entry 1: .*name must be a string, got None"),
        (_set_value("nodes", 0, "public_address", None),
         r"node entry 0: .*public_address must be a string, got None"),
        (_set_value("nodes", 1, "max_egress_mbps", True),
         r"node entry 1: .*max_egress_mbps must be a number, got True"),
        (_set_value("nodes", 1, "max_egress_mbps", "100"),
         r"node entry 1: .*max_egress_mbps must be a number, got '100'"),
        (_set_value("links", 0, "rtt_ms", True), r"link entry 0: .*rtt_ms must be a number, got True"),
    ])
    def test_raises_topology_error_naming_the_entry(self, corrupt, message):
        doc = two_node_doc()
        corrupt(doc)
        with pytest.raises(TopologyError, match=message):
            topology_from_dict(doc)


class TestValidation:
    def test_nonpositive_bandwidth(self):
        with pytest.raises(TopologyError, match="node 0"):
            Topology((NodeSpec(0, "a", "x", 0.0, 0.01, 0.01),), ())

    def test_both_rates_absent(self):
        with pytest.raises(TopologyError, match="billing rate"):
            Topology((NodeSpec(0, "a", "x", 100.0, None, None),), ())

    def test_noncontiguous_ids(self):
        nodes = (NodeSpec(0, "a", "x", 100.0, 0.01, 0.01),
                 NodeSpec(2, "b", "y", 100.0, 0.01, 0.01))
        with pytest.raises(TopologyError, match="contiguous"):
            Topology(nodes, ())

    def test_duplicate_edge(self):
        nodes = (NodeSpec(0, "a", "x", 100.0, 0.01, 0.01),
                 NodeSpec(1, "b", "y", 100.0, 0.01, 0.01))
        links = (LinkSpec(0, 1, 0.01), LinkSpec(0, 1, 0.02))
        with pytest.raises(TopologyError, match="duplicate"):
            Topology(nodes, links)

    def test_self_loop(self):
        nodes = (NodeSpec(0, "a", "x", 100.0, 0.01, 0.01),)
        with pytest.raises(TopologyError, match="self-loop"):
            Topology(nodes, (LinkSpec(0, 0, 0.01),))

    def test_negative_rtt(self):
        nodes = (NodeSpec(0, "a", "x", 100.0, 0.01, 0.01),
                 NodeSpec(1, "b", "y", 100.0, 0.01, 0.01))
        with pytest.raises(TopologyError, match="rtt"):
            Topology(nodes, (LinkSpec(0, 1, -1.0),))

    @given(seed=st.integers(0, 10_000))
    def test_random_valid_topologies_accepted(self, seed):
        # the generator only emits invariant-satisfying instances; the
        # constructor must accept all of them
        topo = random_topology(random.Random(seed))
        assert len(topo.nodes) >= 2


class TestEdgeList:
    @pytest.mark.parametrize("seed", range(20))
    def test_edges_match_links(self, seed):
        topo = random_topology(random.Random(seed))
        edges = topo.edges
        assert topo.edges is edges  # built once per topology
        triples = edge_triples(edges)
        assert [(u, v) for u, v, _ in triples] == sorted((l.src, l.dst) for l in topo.links)
        for u in range(len(topo)):
            assert list(edges.successors(u)) == topo.neighbors(u)
        for u, v, delay in triples:
            assert delay == topo.rtt(u, v) / 2.0

    def test_directions_of_a_link_share_one_delay(self):
        edges = load_topology(FIXTURES / "testbed6.json").edges
        delays = {(u, v): delay for u, v, delay in edge_triples(edges)}
        assert len(delays) > 2
        assert all(delay is delays[v, u] for (u, v), delay in delays.items())

    def test_has_path(self):
        topo = Topology(topology_from_dict(two_node_doc(), mode="directed").nodes,
                        (LinkSpec(0, 1, 0.01),))
        assert topo.edges.has_path(0, 1)
        assert not topo.edges.has_path(1, 0)
        assert topo.edges.has_path(1, 1)


class TestRoundTripAndExpansion:
    def test_serialize_round_trip(self, tmp_path):
        topo = random_topology(random.Random(7))
        path = tmp_path / "rt.json"
        save_topology(topo, path)
        assert load_topology(path, "directed") == topo

    def test_expansion_idempotent(self, tmp_path):
        topo = load_topology(write_doc(tmp_path, two_node_doc()), "undirected")
        assert expand_undirected(topo) == topo

    def test_asymmetric_rtt_conflict(self):
        nodes = (NodeSpec(0, "a", "x", 100.0, 0.01, 0.01),
                 NodeSpec(1, "b", "y", 100.0, 0.01, 0.01))
        topo = Topology(nodes, (LinkSpec(0, 1, 0.01), LinkSpec(1, 0, 0.05)))
        with pytest.raises(TopologyError, match="disagree"):
            expand_undirected(topo)


class TestProbe:
    def test_median_of_attempts(self, tmp_path):
        topo = load_topology(write_doc(tmp_path, two_node_doc()), "directed")
        samples = iter([0.010, 0.012, 0.040])
        probed = probe_rtts(topo, 3, prober=lambda addr: next(samples))
        assert probed.links[0].rtt_s == pytest.approx(0.012)

    def test_unreachable_keeps_original(self, tmp_path, caplog):
        topo = load_topology(write_doc(tmp_path, two_node_doc()), "directed")
        with caplog.at_level(logging.WARNING):
            probed = probe_rtts(topo, 2, prober=lambda addr: None)
        assert probed.links[0].rtt_s == topo.links[0].rtt_s
        assert any("no probe succeeded" in r.message for r in caplog.records)

    def test_rejects_zero_attempts(self, tmp_path):
        topo = load_topology(write_doc(tmp_path, two_node_doc()), "directed")
        with pytest.raises(ValueError):
            probe_rtts(topo, 0, prober=lambda addr: 0.01)

    def test_loopback_probe(self, tmp_path):
        import shutil
        if shutil.which("ping") is None:
            pytest.skip("no ping executable")
        from budgetpath.topology import _ping_once
        rtt = _ping_once("127.0.0.1")
        if rtt is None:
            pytest.skip("ICMP not permitted in this environment")
        assert 0 <= rtt < 0.005
