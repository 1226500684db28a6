"""The benchmark's own tests: span accounting and the output checks.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import itertools
import sys
import types

import pytest

from checks import (
    CENSUS_HEADER,
    CheckError,
    check_baseline,
    check_census,
    check_solve,
    parse_census,
)
from quper.gf2 import Permutation
from quper.problems import gip_cost, random_gip
from run import layer_metrics
from tracing import Tracer


def ticking_tracer() -> Tracer:
    """Each clock reading is one second after the previous one."""
    ticks = itertools.count()
    return Tracer(clock=lambda: float(next(ticks)))


def test_self_time_is_duration_minus_child_coverage():
    tr = ticking_tracer()
    leaf = tr.wrap("leaf", lambda: None)

    def body():
        leaf()
        leaf()

    tr.wrap("outer", body)()  # outer 0..5, leaves 1..2 and 3..4
    s = tr.summary()
    assert s["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert s["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_summary_filters_by_outermost_span_and_sums_notes():
    tr = ticking_tracer()
    leaf = tr.wrap("leaf", lambda x: x, note=lambda a, k, r: {"items": r})
    with tr.span("solve"):
        leaf(2)
        with tr.span("inner"):
            leaf(3)
    with tr.span("baseline"):
        leaf(7)
    assert tr.summary({"solve"})["leaf"]["items"] == 5
    assert tr.summary({"baseline"})["leaf"]["items"] == 7
    assert tr.summary({"solve"})["solve"]["self_s"] == 7.0 - 4.0


def test_patched_restores_and_lists_vanished_targets(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.work = lambda: 1
    original = mod.work
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tr = Tracer()
    targets = [("fake_layer", "work", "layer.work"), ("fake_layer", "gone", "layer.gone")]
    with tr.patched(targets):
        assert mod.work() == 1
    assert mod.work is original
    assert tr.unpatched == ["fake_layer.gone"]
    assert tr.summary()["layer.work"]["calls"] == 1


def test_expected_span_that_never_fires_reads_missing_not_zero():
    tr = ticking_tracer()
    with tr.span("optimizer.quper_solve"):
        pass
    expected = {"optimizer.quper_solve", "circuits.eval_unitary"}
    metrics, missing = layer_metrics(tr, expected, iters=1)
    assert missing == ["circuits.eval_unitary"]
    assert metrics["circuits.eval_unitary.calls"] == -1.0
    assert metrics["circuits.ns_per_amp"] == -1.0
    assert metrics["circuits.eval_permutation.calls"] == 0.0  # off this path
    assert metrics["optimizer.driver_self_s"] == 1.0


@pytest.fixture
def gip():
    inst = random_gip(4, 3)
    return inst, (lambda p: gip_cost(inst, p))


def records(*bests):
    return [{"best": b} for b in bests]


def test_check_solve_accepts_a_consistent_answer(gip):
    inst, cost = gip
    check_solve(cost, 4, inst.planted, 0.0, records(4.0, 2.0, 0.0), 3, 0.0)


def test_check_solve_rejects_a_wrong_value(gip):
    inst, cost = gip
    with pytest.raises(CheckError, match="costs"):
        check_solve(cost, 4, inst.planted, 2.0, records(4.0, 2.0), 2, 0.0)


def test_check_solve_rejects_a_wrong_permutation(gip):
    inst, cost = gip
    wrong = next(
        p for p in map(Permutation, itertools.permutations(range(4)))
        if cost(p) > 0
    )
    with pytest.raises(CheckError, match="costs"):
        check_solve(cost, 4, wrong, 0.0, records(0.0), 1, 0.0)
    with pytest.raises(CheckError, match="costs"):
        check_baseline(cost, 4, wrong, 0.0)


def test_check_solve_rejects_a_non_permutation_and_a_rising_trace(gip):
    inst, cost = gip
    with pytest.raises(CheckError, match="not a permutation"):
        check_solve(cost, 4, types.SimpleNamespace(map=(0, 0, 1, 2)), 0.0,
                    records(0.0), 1, 0.0)
    with pytest.raises(CheckError, match="rose"):
        check_solve(cost, 4, inst.planted, 0.0, records(2.0, 4.0, 0.0), 3, 0.0)
    with pytest.raises(CheckError, match="trace records"):
        check_solve(cost, 4, inst.planted, 0.0, records(0.0), 2, 0.0)
    with pytest.raises(CheckError, match="below the known optimum"):
        check_solve(cost, 4, inst.planted, 0.0, records(0.0), 1, 5.0)


def test_census_parse_and_checks():
    row = parse_census(f"{CENSUS_HEADER}\n22,1953,1953,322560\n")
    assert row == (22, 1953, 1953, 322560)
    check_census(row, 2000, expected=1953)
    with pytest.raises(CheckError, match="recorded"):
        check_census(row, 2000, expected=1954)
    with pytest.raises(CheckError, match="differ"):
        check_census((22, 1953, 1952, 322560), 2000, expected=1953)
    with pytest.raises(CheckError, match="outside"):
        check_census((22, 30, 30, 24), 2000)
    with pytest.raises(CheckError, match="header"):
        parse_census("22,1953,1953,322560\n")
