"""The records' observable contract, and the import cost they no longer carry."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from budgetpath.billing import BillingMethod, NodeBillingConfig, TransferRequest
from budgetpath.planner import Plan
from budgetpath.search import EdgeWeights, PathResult
from budgetpath.simulate import ReportRow, SimulationReport
from budgetpath.topology import EdgeList, LinkSpec, NodeSpec, Topology
from budgetpath.tunnels import KeyPair, PeerEntry, TunnelSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")

# What each CLI subcommand imports before it runs.
COMMAND_IMPORTS = {
    "plan": "budgetpath.cli",
    "oracle": "budgetpath.cli",
    "simulate": "budgetpath.cli, budgetpath.simulate",
    "render-wg": "budgetpath.cli, budgetpath.tunnels, random",
}
# Modules that generating record methods at import would pull in.
CODE_GENERATION_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


@pytest.mark.parametrize("command", COMMAND_IMPORTS)
def test_command_imports_load_no_code_generation_modules(command):
    # compared with the modules loaded before, since the interpreter's start-up may load typing
    code = (f"import sys\nbefore = set(sys.modules)\nimport {COMMAND_IMPORTS[command]}\n"
            "print(' '.join(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "budgetpath.cli" in added
    assert not added & CODE_GENERATION_MODULES


def _node(i):
    return NodeSpec(id=i, name=f"n{i}", public_address=f"203.0.113.{i + 1}",
                    max_egress_mbps=100.0, payg_rate=0.021, pfdt_rate=None)


def _edges():
    return EdgeList(offsets=(0, 1, 2), dst=(1, 0), delay=(0.005, 0.005))


def _config():
    return NodeBillingConfig(method=BillingMethod.PFDT, bandwidth_mbps=100.0)


def _row():
    return ReportRow(label="planner", path=(0, 1), latency_s=80.0, cost_usd=0.081, feasible=True)


def _keypair():
    return KeyPair(private=bytes(32), public=bytes(range(32)))


def _peer():
    return PeerEntry(public_key_b64="AAAA", endpoint="203.0.113.2:51820",
                     allowed_ips=("10.44.0.2/32",), keepalive_s=None)


# Each builds the fields of one record afresh, in constructor order.
FIELDS = {
    NodeBillingConfig: lambda: {"method": BillingMethod.PAYG, "bandwidth_mbps": 50.0},
    TransferRequest: lambda: {"source": 0, "destination": 1, "data_size_gb": 1.0,
                              "budget_usd": 2.0, "max_iterations": 5},
    EdgeList: lambda: {"offsets": (0, 1, 2), "dst": (1, 0), "delay": (0.005, 0.02)},
    EdgeWeights: lambda: {"edges": _edges(), "a": (0.1, 0.2), "b": (1.0, 2.0)},
    PathResult: lambda: {"path": (0, 1), "total_a": 0.081, "total_b": 80.0},
    NodeSpec: lambda: {"id": 0, "name": "n0", "public_address": "203.0.113.1",
                       "max_egress_mbps": 100.0, "payg_rate": None, "pfdt_rate": 0.081},
    LinkSpec: lambda: {"src": 0, "dst": 1, "rtt_s": 0.01},
    Topology: lambda: {"nodes": (_node(0), _node(1)),
                       "links": (LinkSpec(0, 1, 0.01), LinkSpec(1, 0, 0.01))},
    Plan: lambda: {"path": (0, 1), "configs": {0: _config()}, "predicted_cost_usd": 0.081,
                   "predicted_latency_s": 80.0, "fraction_k": 1.0, "iterations_used": 0},
    ReportRow: lambda: {"label": "naive", "path": None, "latency_s": None, "cost_usd": None,
                        "feasible": False},
    SimulationReport: lambda: {"rows": (_row(),), "improvement": 0.5},
    KeyPair: lambda: {"private": bytes(32), "public": bytes(range(32))},
    PeerEntry: lambda: {"public_key_b64": "AAAA", "endpoint": "203.0.113.2:51820",
                        "allowed_ips": ("10.44.0.2/32",), "keepalive_s": 25},
    TunnelSpec: lambda: {"node_id": 0, "overlay_address": "10.44.0.1/24", "listen_port": 51820,
                         "keypair": _keypair(), "peers": (_peer(),)},
}
UNHASHABLE = {Plan}  # a dict field
by_name = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


@by_name
def test_equal_by_fields_and_never_to_a_tuple(cls):
    fields = FIELDS[cls]()
    record = cls(**fields)
    assert record == cls(*FIELDS[cls]().values())
    assert not record != cls(**FIELDS[cls]())
    assert record != tuple(fields.values())
    assert tuple(fields.values()) != record
    assert [getattr(record, name) for name in fields] == list(fields.values())


@by_name
def test_repr_names_every_field(cls):
    fields = FIELDS[cls]()
    expected = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({expected})"


@by_name
def test_hash_follows_equality(cls):
    record = cls(**FIELDS[cls]())
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**FIELDS[cls]()))


@by_name
def test_fields_cannot_be_assigned(cls):
    fields = FIELDS[cls]()
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
    assert record == cls(**FIELDS[cls]())


@by_name
def test_pickle_round_trip(cls):
    record = cls(**FIELDS[cls]())
    assert pickle.loads(pickle.dumps(record)) == record


@by_name
def test_constructor_rejects_what_a_signature_would(cls):
    fields = FIELDS[cls]()
    values = list(fields.values())
    after_first = dict(list(fields.items())[1:])
    assert cls(values[0], **after_first) == cls(**fields)
    with pytest.raises(TypeError):
        cls(**after_first)  # missing the first field, which no record defaults
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)
    with pytest.raises(TypeError):
        cls(values[0], **fields)  # the first field both by position and by keyword
    with pytest.raises(TypeError):
        cls(*values, None)


def test_defaults():
    assert PeerEntry("AAAA", "203.0.113.2:51820", ("10.44.0.2/32",)).keepalive_s == 25


def test_topology_builds_its_edge_list_once():
    topology = Topology(**FIELDS[Topology]())
    assert topology.edges is topology.edges
    assert topology.edges == _edges()  # each edge's delay is its link's rtt_s / 2.0
