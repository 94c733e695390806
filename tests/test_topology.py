import ast
import gc
import json
import logging
import math
import pickle
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from budgetpath.billing import TransferRequest
from budgetpath.planner import plan_transfer
from budgetpath.probe import probe_rtts
from budgetpath.topology import (
    MAX_EGRESS_MBPS,
    MAX_RATE,
    MIN_EGRESS_MBPS,
    MIN_RATE,
    LinkSpec,
    NodeSpec,
    Topology,
    TopologyError,
    load_topology,
    save_topology,
    topology_from_dict,
)
from helpers import edge_triples, random_topology, reference_topology_from_dict, sparse_topology

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

    @pytest.mark.parametrize("doc, mode, message", [
        ([], "undirected", "^topology document must be an object$"),
        (two_node_doc(), "both", "^unknown mode 'both'$"),
    ], ids=["not-an-object", "unknown-mode"])
    def test_rejects_a_non_object_document_or_an_unknown_mode(self, doc, mode, message):
        with pytest.raises(TopologyError, match=message):
            topology_from_dict(doc, mode)


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


def _huge_egress_and_text_rate(doc):
    doc["nodes"][1]["max_egress_mbps"] = 10**400
    doc["nodes"][1]["payg_usd_per_mbps_hour"] = "0.02"


def _huge_rtt(doc):
    doc["links"][0]["rtt_ms"] = -(10**400)


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
        (_huge_egress_and_text_rate, r"node entry 1: invalid value: int too large to convert to float"),
        (_huge_rtt, r"link entry 0: invalid value: int too large to convert to float"),
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
        with pytest.raises(TopologyError, match="contiguous.* node entry 1 has id 2$"):
            Topology(nodes, ())
        # one wrong id among many names that entry, not every id
        nodes = [NodeSpec(i, f"n{i}", "x", 100.0, 0.01, 0.01) for i in range(1600)]
        nodes[1234] = NodeSpec(1235, "n1235", "x", 100.0, 0.01, 0.01)
        with pytest.raises(TopologyError, match="contiguous.* node entry 1234 has id 1235$") as info:
            Topology(tuple(nodes), ())
        assert len(str(info.value)) < 100

    @pytest.mark.parametrize("text", ["Infinity", "1e400", "NaN", "-Infinity", "0", "-5"])
    def test_egress_must_be_finite_and_positive(self, text):
        doc = two_node_doc()
        document = json.dumps(doc).replace('"max_egress_mbps": 100', f'"max_egress_mbps": {text}', 1)
        with pytest.raises(TopologyError) as info:
            topology_from_dict(json.loads(document))
        egress = float(json.loads(text))
        assert str(info.value) == f"node 0 (a): max_egress_mbps must be in [0.001, 1e+09], got {egress}"

    @pytest.mark.parametrize("field, lo, hi", [
        ("max_egress_mbps", MIN_EGRESS_MBPS, MAX_EGRESS_MBPS),
        ("payg_rate", MIN_RATE, MAX_RATE),
        ("pfdt_rate", MIN_RATE, MAX_RATE),
    ])
    def test_caps_and_rates_are_bounded_at_both_ends(self, field, lo, hi):
        # the bounds are accepted, as is a rate of 0; the next float outside
        # either bound, NaN and the infinities are refused by both loaders
        fields = {"max_egress_mbps": 100.0, "payg_rate": 0.021, "pfdt_rate": 0.081}

        def check(value):
            node = NodeSpec(0, "a", "127.0.0.1", **{**fields, field: value})
            doc = two_node_doc()
            key = {"payg_rate": "payg_usd_per_mbps_hour", "pfdt_rate": "pfdt_usd_per_gb"}
            doc["nodes"][0][key.get(field, field)] = value
            results = []
            for load in (topology_from_dict, reference_topology_from_dict):
                try:
                    results.append(load(doc))
                except TopologyError as exc:
                    results.append(str(exc))
            try:
                node.validate()
            except TopologyError as exc:
                assert results == [str(exc)] * 2, (field, value)
                return str(exc)
            assert results[0] == results[1] and results[0].nodes[0] == node, (field, value)
            return None

        accepted = [lo, hi] + ([0.0] if field != "max_egress_mbps" else [])
        for value in accepted:
            assert check(value) is None, value
        refused = [math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), math.nan, math.inf,
                   -math.inf, -lo]
        if field != "max_egress_mbps":
            refused.append(math.nextafter(0.0, 1.0))
        for value in refused:
            expected = (f"node 0 (a): max_egress_mbps must be in [0.001, 1e+09], got {value}"
                        if field == "max_egress_mbps" else
                        f"node 0 (a): {field[:4]} rate must be 0 or in [1e-09, 1e+06], got {value}")
            assert check(value) == expected

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

    def test_owns_what_it_was_given(self):
        nodes = tuple(NodeSpec(i, f"n{i}", "192.0.2.1", 100.0, 0.021, 0.081) for i in range(3))
        links = (LinkSpec(0, 1, 0.010), LinkSpec(1, 2, 0.020), LinkSpec(2, 0, 0.030))
        node_list, link_list = list(nodes), list(links)
        topology = Topology(node_list, link_list)
        link_list[0] = LinkSpec(0, 0, -5.0)
        node_list.append(NodeSpec(3, "n3", "192.0.2.1", 100.0, 0.021, 0.081))
        assert topology.links == links and topology.nodes == nodes
        assert topology.rtt(0, 1) == 0.010
        with pytest.raises(KeyError):
            topology.rtt(0, 0)
        assert len(topology) == topology.edges.n == 3
        expected = Topology(nodes, links)
        assert topology == expected and hash(topology) == hash(expected)
        assert Topology(iter(nodes), iter(links)) == expected


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
        with pytest.raises(KeyError, match=r"no link \(0, 0\)"):
            topo.rtt(0, 0)

    def test_directions_of_a_link_share_one_delay(self):
        edges = load_topology(FIXTURES / "testbed6.json").edges
        delays = {(u, v): delay for u, v, delay in edge_triples(edges)}
        assert len(delays) > 2
        assert all(delay is delays[v, u] for (u, v), delay in delays.items())

    @pytest.mark.parametrize("node", [-1, 2])
    def test_node_ids_outside_the_graph_are_rejected(self, node):
        edges = topology_from_dict(two_node_doc()).edges
        with pytest.raises(TopologyError, match=f"^node {node} is not a valid node id$"):
            edges.successors(node)

    def test_rows_hold_under_96_bytes_per_directed_edge(self):
        # the rows live as long as their topology: a (successor, delay) pair per
        # edge, its place in its row, one delay float per distinct rtt and one
        # tuple per node. On a degree-8 graph of 1600 nodes, whose 6400 links
        # each have their own rtt, tracemalloc traces about 82 bytes per edge
        # (Python 3.10 to 3.12). Full collections around the build empty
        # CPython's free lists, so what stays traced is what the rows hold
        topo = sparse_topology(random.Random(7), 1600, 8.0)
        tracing = tracemalloc.is_tracing()
        gc.collect()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            edges = topo.edges
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(edge_triples(edges)) == len(topo.links) == 12_800
        assert held < 96 * 12_800, held / 12_800


class TestRoundTripAndExpansion:
    def test_serialize_round_trip(self, tmp_path):
        topo = random_topology(random.Random(7))
        path = tmp_path / "rt.json"
        save_topology(topo, path)
        assert load_topology(path, "directed") == topo

    def test_expansion_idempotent(self):
        both = two_node_doc()
        both["links"].append({"src": 1, "dst": 0, "rtt_ms": 10.0})
        assert topology_from_dict(both) == topology_from_dict(two_node_doc())

    def test_asymmetric_rtt_conflict(self):
        doc = two_node_doc()
        doc["links"].append({"src": 1, "dst": 0, "rtt_ms": 50.0})
        with pytest.raises(TopologyError, match="disagree on rtt"):
            topology_from_dict(doc)


class TestProbe:
    def test_median_of_attempts(self, tmp_path):
        # the larger of the two endpoints' medians: 0.002 s and 0.012 s
        topo = load_topology(write_doc(tmp_path, two_node_doc()), "directed")
        samples = {"127.0.0.1": iter([0.030, 0.001, 0.002]),
                   "127.0.0.2": iter([0.010, 0.012, 0.040])}
        probed = probe_rtts(topo, 3, prober=lambda addr: next(samples[addr]))
        assert probed.links[0].rtt_s == 0.012

    @pytest.mark.parametrize("mode", ["undirected", "directed"])
    def test_each_address_is_probed_attempts_times_and_the_file_reloads(self, tmp_path, mode):
        # testbed6 with nodes 4 and 5 on one address: 5 addresses, so 15 probes at
        # 3 attempts, not 3 per link; both directions of a pair get one rtt, and
        # the written file loads in the mode the topology was probed in
        doc = json.loads((FIXTURES / "testbed6.json").read_text())
        doc["nodes"][5]["public_address"] = doc["nodes"][4]["public_address"]
        topo = load_topology(write_doc(tmp_path, doc), mode)
        rng = random.Random(61)
        calls = []

        def prober(address):
            calls.append(address)
            return rng.choice([None, rng.uniform(0.001, 0.2)])

        probed = probe_rtts(topo, 3, prober=prober)
        addresses = {node.public_address for node in topo.nodes}
        assert len(addresses) == 5 and sorted(calls) == sorted([*addresses] * 3)
        rtt = {(link.src, link.dst): link.rtt_s for link in probed.links}
        assert [(u, v) for u, v in rtt] == [(l.src, l.dst) for l in topo.links]
        assert all(rtt[u, v] == rtt[v, u] for u, v in rtt if (v, u) in rtt)
        if mode == "undirected":
            assert len(rtt) == 2 * len(doc["links"])
        save_topology(probed, tmp_path / "probed.json")
        reloaded = load_topology(tmp_path / "probed.json", mode)
        assert [(l.src, l.dst) for l in reloaded.links] == list(rtt)
        assert [l.rtt_s for l in reloaded.links] == pytest.approx(list(rtt.values()), rel=1e-12)

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
        from budgetpath.probe import _ping_once
        rtt = _ping_once("127.0.0.1")
        if rtt is None:
            pytest.skip("ICMP not permitted in this environment")
        assert 0 <= rtt < 0.005


# --- the one-pass loader against the reference loader ---------------------

def _node_entry(rng: random.Random, i: int) -> dict:
    rates = [round(rng.uniform(0.005, 0.05), 4), rng.choice([0, 1, round(rng.uniform(0.01, 0.2), 4)])]
    if rng.random() < 0.2:
        rates[rng.randrange(2)] = None
    entry = {"id": i, "name": f"r{i}", "public_address": f"10.0.{i // 256}.{i % 256}",
             "max_egress_mbps": rng.choice([50, 100, 0.5, 250.0])}
    for key, rate in zip(("payg_usd_per_mbps_hour", "pfdt_usd_per_gb"), rates):
        if rate is not None or rng.random() < 0.5:  # a rate not offered is null or absent
            entry[key] = rate
    return entry


def _random_pairs(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """A random spanning tree plus random extra links, as the benchmark generates them."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    for _ in range(rng.randrange(2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return pairs


def _grid_pairs(k: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(k * k) for j in (i + 1, i + k)
            if j < k * k and (j == i + k or j % k)}


def random_document(rng: random.Random) -> dict:
    """A valid topology document: a random graph or a grid, some listing both directions."""
    shape = rng.choice(["random", "grid", "both directions"])
    if shape == "grid":
        k = rng.randint(1, 6)
        n, pairs = k * k, _grid_pairs(k)
    else:
        n = rng.randint(1, 30)
        pairs = _random_pairs(rng, n)
    links = []
    for u, v in sorted(pairs):
        rtt = rng.choice([round(rng.uniform(5.0, 200.0), 1), rng.randint(0, 300), 0.0])
        links.append({"src": u, "dst": v, "rtt_ms": rtt})
        if shape == "both directions" and rng.random() < 0.7:
            links.append({"src": v, "dst": u, "rtt_ms": rtt})
    if rng.random() < 0.5:
        rng.shuffle(links)
    return {"nodes": [_node_entry(rng, i) for i in range(n)], "links": links}


def _pick(rng: random.Random, doc: dict, kind: str):
    """The index of an entry to corrupt; half of them are entry 0 or 1, so that
    faults often meet in one entry."""
    entries = doc[kind]
    if not entries:
        entries.append(_node_entry(rng, len(doc["nodes"])) if kind == "nodes"
                       else {"src": 0, "dst": 1, "rtt_ms": 1.0})
    return rng.randrange(min(len(entries), 2) if rng.random() < 0.5 else len(entries))


def _set(rng, doc, kind, key, value):
    index = _pick(rng, doc, kind)
    if isinstance(doc[kind][index], dict):
        doc[kind][index][key] = value


def _self_loop(rng, doc):
    index = _pick(rng, doc, "links")
    if isinstance(doc["links"][index], dict):
        doc["links"][index]["dst"] = doc["links"][index].get("src", 0)


def _endpoint_out_of_range(rng, doc):
    _set(rng, doc, "links", rng.choice(["src", "dst"]), rng.choice([-1, len(doc["nodes"]), 10**6]))


def _bad_rtt(rng, doc):
    _set(rng, doc, "links", "rtt_ms", rng.choice([-1.5, -3, math.nan, math.inf, -math.inf]))


def _duplicate_link(rng, doc):
    entry = doc["links"][_pick(rng, doc, "links")]
    if isinstance(entry, dict):
        copy = {**entry, "rtt_ms": rng.choice([entry.get("rtt_ms"), 7.5])}
        doc["links"].insert(rng.randint(0, len(doc["links"])), copy)


def _conflicting_reverse(rng, doc):
    entry = doc["links"][_pick(rng, doc, "links")]
    if isinstance(entry, dict) and "src" in entry and "dst" in entry:
        reverse = {"src": entry["dst"], "dst": entry["src"], "rtt_ms": rng.uniform(201.0, 300.0)}
        doc["links"].insert(rng.randint(0, len(doc["links"])), reverse)


def _wrong_type(rng, doc):
    kind = rng.choice(["nodes", "links"])
    keys = (["id", "name", "public_address", "max_egress_mbps", "payg_usd_per_mbps_hour",
             "pfdt_usd_per_gb"] if kind == "nodes" else ["src", "dst", "rtt_ms"])
    _set(rng, doc, kind, rng.choice(keys), rng.choice(["7", None, 1.5, [], {}]))


def _too_large_for_a_float(rng, doc):
    kind = rng.choice(["nodes", "links"])
    keys = (["max_egress_mbps", "payg_usd_per_mbps_hour", "pfdt_usd_per_gb"] if kind == "nodes"
            else ["rtt_ms"])
    _set(rng, doc, kind, rng.choice(keys), 10**400)


def _two_bad_values(rng, doc):
    """Two faulty values in one entry: the loader reports the one it checks first."""
    kind = rng.choice(["nodes", "links"])
    entry = doc[kind][_pick(rng, doc, kind)]
    if isinstance(entry, dict):
        for key in rng.sample(sorted(entry), min(len(entry), 2)):
            entry[key] = rng.choice(["7", None, True, 10**400, []])


def _bool(rng, doc):
    kind = rng.choice(["nodes", "links"])
    keys = (["id", "max_egress_mbps", "payg_usd_per_mbps_hour"] if kind == "nodes"
            else ["src", "rtt_ms"])
    _set(rng, doc, kind, rng.choice(keys), rng.choice([True, False]))


def _unknown_key(rng, doc):
    _set(rng, doc, rng.choice(["nodes", "links"]), rng.choice(["color", "zone"]), 1)


def _missing_key(rng, doc):
    kind = rng.choice(["nodes", "links"])
    entry = doc[kind][_pick(rng, doc, kind)]
    if isinstance(entry, dict):
        for key in rng.sample(sorted(entry), min(len(entry), rng.randint(1, 2))):
            del entry[key]


def _not_an_object(rng, doc):
    kind = rng.choice(["nodes", "links"])
    doc[kind][_pick(rng, doc, kind)] = rng.choice(["r0", ["src", "dst", "rtt_ms"], [], 3, None])


def _bad_rate(rng, doc):
    index = _pick(rng, doc, "nodes")
    node = doc["nodes"][index]
    if not isinstance(node, dict):
        return
    change = rng.choice(["negative", "nan", "inf", "tiny", "huge", "no rate", "zero egress",
                         "negative egress", "tiny egress", "huge egress"])
    if change == "no rate":
        node["payg_usd_per_mbps_hour"] = node["pfdt_usd_per_gb"] = None
    elif change.endswith("egress"):
        node["max_egress_mbps"] = {
            "zero egress": 0, "negative egress": -rng.uniform(1.0, 9.0),
            "tiny egress": math.nextafter(1e-3, 0.0), "huge egress": math.nextafter(1e9, math.inf),
        }[change]
    else:
        key = rng.choice(["payg_usd_per_mbps_hour", "pfdt_usd_per_gb"])
        node[key] = {"negative": -0.01, "nan": math.nan, "inf": math.inf,
                     "tiny": math.nextafter(1e-9, 0.0), "huge": math.nextafter(1e6, math.inf)}[change]


def _noncontiguous_id(rng, doc):
    n = len(doc["nodes"])
    _set(rng, doc, "nodes", "id", rng.choice([n, n + 5, -1, rng.randrange(max(n, 1))]))


FAULTS = [_self_loop, _endpoint_out_of_range, _bad_rtt, _duplicate_link, _conflicting_reverse,
          _wrong_type, _too_large_for_a_float, _two_bad_values, _bool, _unknown_key, _missing_key,
          _not_an_object, _bad_rate, _noncontiguous_id]

# a part of each error message the loader can raise for an entry or a link
ERRORS = ["expected an object", "unknown keys", "missing key", "must be an integer",
          "must be a string", "must be a number, got", "must be a number or null",
          "too large to convert", "contiguous", "max_egress_mbps must be in",
          "no billing rate", "payg rate must be 0 or in", "pfdt rate must be 0 or in", "self-loop",
          "is not a node id", "invalid rtt", "duplicate directed link", "disagree on rtt"]


def _load(load, doc, mode):
    """The loaded topology, or the type and message of the error raised instead."""
    try:
        return load(doc, mode)
    except Exception as exc:
        return type(exc), str(exc)


def _reference_result(doc, mode):
    """The reference loader's result, with the message this loader words differently."""
    result = _load(reference_topology_from_dict, doc, mode)
    if not isinstance(result, tuple):
        return result
    error, message = result
    ids = re.fullmatch(r"node ids must be unique and contiguous from 0, got (.*)", message)
    if ids:
        ids = ast.literal_eval(ids.group(1))
        index = next(i for i, node_id in enumerate(ids) if node_id != i)
        message = ("node ids must be unique and contiguous from 0, "
                   f"but node entry {index} has id {ids[index]!r}")
    return error, message


class TestMatchesReferenceLoader:
    def test_valid_and_faulty_documents(self):
        rng = random.Random(2026)
        valid = 0
        reached = {error: 0 for error in ERRORS}
        for _ in range(1200):
            doc = random_document(rng)
            if rng.random() < 0.7:
                for fault in rng.sample(FAULTS, rng.randint(1, 3)):
                    fault(rng, doc)
            mode = rng.choice(["directed", "undirected"])
            expected = _reference_result(doc, mode)
            assert _load(topology_from_dict, doc, mode) == expected, (doc, mode)
            if isinstance(expected, Topology):
                valid += 1
            for error in ERRORS:
                reached[error] += isinstance(expected, tuple) and error in expected[1]
        assert valid >= 300
        assert all(reached.values()), reached

    @pytest.mark.parametrize("mode", ["directed", "undirected"])
    @pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda path: path.name)
    def test_fixtures(self, fixture, mode):
        # pfdt_overflow.json bills $1e300/GB, outside the operating domain: both refuse it
        doc = json.loads(fixture.read_text())
        expected = _reference_result(doc, mode)
        assert _load(topology_from_dict, doc, mode) == expected
        assert isinstance(expected, Topology) == (fixture.name != "pfdt_overflow.json")

    def test_reverse_links_follow_their_originals(self):
        doc = two_node_doc()
        doc["nodes"].append({**doc["nodes"][0], "id": 2})
        doc["links"] = [{"src": 2, "dst": 0, "rtt_ms": 3.0}, {"src": 0, "dst": 1, "rtt_ms": 10.0},
                        {"src": 1, "dst": 0, "rtt_ms": 10.0}, {"src": 1, "dst": 2, "rtt_ms": 4.0}]
        links = topology_from_dict(doc).links
        assert [(l.src, l.dst, l.rtt_s * 1000.0) for l in links] == [
            (2, 0, 3.0), (0, 1, 10.0), (1, 0, 10.0), (1, 2, 4.0), (0, 2, 3.0), (2, 1, 4.0)]

    def test_undirected_load_builds_one_topology(self, monkeypatch):
        # every Topology, loaded or constructed, is checked and built by _from_columns
        built = []
        from_columns = Topology._from_columns.__func__

        def counting_from_columns(cls, nodes, src, dst, rtt):
            built.append(len(src))
            return from_columns(cls, nodes, src, dst, rtt)

        monkeypatch.setattr(Topology, "_from_columns", classmethod(counting_from_columns))
        topology = load_topology(FIXTURES / "testbed6.json")
        assert built == [len(topology.links)] == [18]

    def test_links_are_built_on_first_use(self, monkeypatch):
        built = []
        init = LinkSpec.__init__

        def counting_init(self, src, dst, rtt_s):
            built.append((src, dst, rtt_s))
            init(self, src, dst, rtt_s)

        monkeypatch.setattr(LinkSpec, "__init__", counting_init)
        topology = load_topology(FIXTURES / "testbed6.json")
        assert topology.edges.n == 6
        assert plan_transfer(topology, TransferRequest(0, 5, 1.0, 10.0, 5)) is not None
        assert built == []
        links = topology.links
        assert len(built) == 18
        assert topology.links is links and len(built) == 18
        doc = json.loads((FIXTURES / "testbed6.json").read_text())
        assert links == reference_topology_from_dict(doc).links
        monkeypatch.undo()

        for other in (Topology(topology.nodes, links), pickle.loads(pickle.dumps(topology))):
            assert other == topology and other.links == links
            assert hash(other) == hash(topology)
            assert repr(other) == repr(topology)
