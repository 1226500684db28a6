"""The record types' contracts: read-only fields, value equality and hash,
construction by position or keyword, reprs and coercion."""

import numpy as np
import pytest

from quper.circuits import Circuit, Gate
from quper.gf2 import AffineMap, Gf2Matrix, Permutation, Transvection
from quper.optimizer import AdamState, QuperConfig
from quper.problems import GipInstance, QapInstance


# Each record type: a function building one instance afresh, and one of
# its field names.
RECORDS = {
    "Gate": (lambda: Gate("RX", (0,), 0), "kind"),
    "Circuit": (lambda: Circuit(1, (Gate("RX", (0,), 0),), 1), "gates"),
    "Permutation": (lambda: Permutation((1, 0, 2)), "map"),
    "Gf2Matrix": (lambda: Gf2Matrix.identity(2), "rows"),
    "Transvection": (lambda: Transvection(0, 1), "j"),
    "AffineMap": (lambda: AffineMap(Gf2Matrix.identity(2), 1), "b"),
    "QuperConfig": (lambda: QuperConfig(), "m_max"),
    "AdamState": (lambda: AdamState.fresh(np.zeros(2)), "k"),
    "QapInstance": (lambda: QapInstance(np.eye(2), np.eye(2)), "name"),
    "GipInstance": (lambda: GipInstance(np.zeros((2, 2)), np.zeros((2, 2))), "a"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_assigning_a_field_raises(name):
    make, field = RECORDS[name]
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize(
    "name", ["Gate", "Circuit", "Permutation", "Gf2Matrix", "Transvection"]
)
def test_equal_fields_give_equal_objects_and_hashes(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)


def test_keyword_and_positional_construction_agree():
    gate = Gate(kind="PCX", qubits=(0, 1), slot=0)
    assert gate == Gate("PCX", (0, 1), 0)
    assert Circuit(q=2, gates=(gate,), param_count=1) == Circuit(2, (gate,), 1, "Custom")
    assert Gf2Matrix(q=1, rows=(1,)) == Gf2Matrix.identity(1)
    assert QuperConfig("sel", 1) == QuperConfig(ansatz="sel", m_max=1)


def test_keyword_construction_runs_the_checks():
    with pytest.raises(ValueError, match="unknown gate kind 'XX'"):
        Gate(kind="XX", qubits=(0,), slot=0)
    with pytest.raises(ValueError, match="qubit index out of range"):
        Circuit(q=1, gates=(Gate("RX", (1,), 0),), param_count=1)
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation(map=(0, 0))
    with pytest.raises(ValueError, match="row count must equal q"):
        Gf2Matrix(q=2, rows=(1,))
    with pytest.raises(ValueError, match="transvection requires j != k"):
        Transvection(j=1, k=1)


def test_defaults():
    assert Circuit(1, (), 0).kind == "Custom"
    assert QuperConfig() == QuperConfig("bruhat", 0, 1000, 0, None)
    s = AdamState(np.zeros(1), np.zeros(1), np.zeros(1))
    assert (s.k, s.eta) == (1, 0.005)
    inst = QapInstance(np.eye(2), np.eye(2))
    assert (inst.name, inst.known_optimum) == ("", None)
    inst = GipInstance(np.zeros((2, 2)), np.zeros((2, 2)))
    assert (inst.planted, inst.name) == (None, "")


def test_config_counts_become_ints():
    cfg = QuperConfig(m_max=np.int64(1))
    assert type(cfg.m_max) is int and cfg.m_max == 1


def test_gate_repr():
    assert repr(Gate("RX", (0,), 0)) == "Gate(kind='RX', qubits=(0,), slot=0)"
