"""Self-check suites: gate identities, group theorems, simulator agreement,
gradient agreement.

Each suite returns (name, passed, detail); detail carries a counterexample
description on failure.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    build_ansatz,
    eval_unitary,
    forward,
    reverse_sweep,
    tape_gradient,
)
from .dsm import binary_dsms, extract_dsm, statevector_oracle
from .gf2 import (
    Gf2Matrix,
    borel_subword,
    bruhat_decompose,
    random_invertible,
    word_to_matrix,
)
from .optimizer import fd_gradient

ATOL = 1e-12

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_CX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
)  # control = qubit 0 (MSB), target = qubit 1


def suite_x_cx_relations():
    """The kernel's CX, eval_unitary of one CX gate, against the constant X."""
    x, i2 = _X, np.eye(2)
    cx = eval_unitary(Circuit(2, (Gate("CX", (0, 1), None),), 0), [])
    relations = [
        ("cx.(x@x) = (x@I).cx", cx @ np.kron(x, x), np.kron(x, i2) @ cx),
        ("cx.(I@x) = (I@x).cx", cx @ np.kron(i2, x), np.kron(i2, x) @ cx),
        ("(x@x).cx = cx.(x@I)", np.kron(x, x) @ cx, cx @ np.kron(x, i2)),
    ]
    for name, lhs, rhs in relations:
        err = float(np.max(np.abs(lhs - rhs)))
        if err > ATOL:
            return "x_cx_relations", False, f"{name} violated, max err {err:.3e}"
    return "x_cx_relations", True, "3 relations hold"


def suite_noncommutation():
    # (cx_kl cx_lm)^2 = cx_km as operators: rightmost factor applied first.
    k, l, m = 0, 1, 2
    seq = Circuit(
        3,
        (
            Gate("CX", (l, m), None),
            Gate("CX", (k, l), None),
            Gate("CX", (l, m), None),
            Gate("CX", (k, l), None),
        ),
        0,
    )
    target = Circuit(3, (Gate("CX", (k, m), None),), 0)
    err = float(np.max(np.abs(eval_unitary(seq, []) - eval_unitary(target, []))))
    ok = err <= ATOL
    return "noncommutation", ok, f"max err {err:.3e}"


def suite_gate_constructions():
    pcx = Circuit(2, (Gate("PCX", (0, 1), 0),), 1)
    psw = Circuit(2, (Gate("PSWAP", (0, 1), 0),), 1)
    cx10 = Gate("CX", (1, 0), None)
    psw3 = Circuit(2, (cx10, Gate("PCX", (0, 1), 0), cx10), 1)
    swap = np.eye(4)[[0, 2, 1, 3]]
    checks = [
        ("PCX(pi) = CX", eval_unitary(pcx, [math.pi]), _CX),
        ("PSWAP(pi) = SWAP", eval_unitary(psw, [math.pi]), swap),
        ("PSWAP(0) = I", eval_unitary(psw, [0.0]), np.eye(4)),
        ("PSWAP(1.1) = CX.PCX.CX", eval_unitary(psw, [1.1]), eval_unitary(psw3, [1.1])),
    ]
    for name, lhs, rhs in checks:
        err = float(np.max(np.abs(lhs - rhs)))
        if err > ATOL:
            return "gate_constructions", False, f"{name} violated ({err:.3e})"
    return "gate_constructions", True, "4 identities hold"


def _all_borel(q: int):
    pairs = [(j, k) for j in range(q) for k in range(j + 1, q)]
    ident = Gf2Matrix.identity(q)
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rows = list(ident.rows)
        for on, (j, k) in zip(bits, pairs):
            if on:
                rows[j] |= 1 << k
        yield Gf2Matrix(q, tuple(rows))


def suite_borel_enumeration(q: int):
    count = 0
    for a in _all_borel(q):
        word = borel_subword(a)
        if word_to_matrix(word, q) != a:
            return (
                "borel_enumeration",
                False,
                f"round-trip failed for\n{a.to_text()}",
            )
        count += 1
    expect = 1 << (q * (q - 1) // 2)
    ok = count == expect
    return "borel_enumeration", ok, f"q={q}: {count} matrices (expected {expect})"


def _all_gl(q: int):
    for bits in range(1 << (q * q)):
        rows = tuple((bits >> (q * j)) & ((1 << q) - 1) for j in range(q))
        m = Gf2Matrix(q, rows)
        if m.is_invertible():
            yield m


def suite_bruhat_reassembly(q: int):
    count = 0
    if q <= 3:
        mats = _all_gl(q)
    else:
        rng = np.random.default_rng(0)
        mats = (random_invertible(q, rng) for _ in range(500))
    for m in mats:
        f = bruhat_decompose(m)
        ok = (
            f.u1.is_upper_unitriangular()
            and f.u2.is_upper_unitriangular()
            and f.u1 @ f.w.gf2_matrix() @ f.u2 == m
        )
        if not ok:
            return "bruhat_reassembly", False, f"failed for\n{m.to_text()}"
        count += 1
    return "bruhat_reassembly", True, f"q={q}: {count} matrices reassembled"


def suite_dsm_agreement():
    rng, jobs = np.random.default_rng(0), 20
    worst = 0.0
    for _ in range(jobs):
        m = int(rng.integers(0, 2))
        c = build_ansatz("Bruhat", 2 + m)
        theta = rng.uniform(0, 2 * math.pi, c.param_count)
        err = float(
            np.max(np.abs(extract_dsm(c, m, theta) - statevector_oracle(c, m, theta)))
        )
        worst = max(worst, err)
        if err > 1e-10:
            return "dsm_agreement", False, f"deviation {err:.3e} at m={m}"
    return "dsm_agreement", True, f"max deviation {worst:.3e} over {jobs} jobs"


def suite_binary_agreement():
    """binary_dsms (the span census's path) against extract_dsm, exactly."""
    rng, jobs = np.random.default_rng(0), 20
    for q, m in ((2, 0), (2, 1), (3, 1)):
        c = build_ansatz("LX", q + m)
        on = rng.integers(0, 2, (jobs, c.param_count)).astype(bool)
        for bits, d in zip(on, binary_dsms(c, m, on)):
            if not np.array_equal(d, extract_dsm(c, m, math.pi * bits)):
                at = f"q={q}, m={m}, bits {bits.astype(int).tolist()}"
                return "binary_agreement", False, f"DSMs differ at {at}"
    return "binary_agreement", True, f"{3 * jobs} settings agree exactly"


def suite_gradient_agreement():
    """The solver's tape gradient against reverse_sweep (to 1e-13) and
    central differences (to 1e-6), relative to the largest entry of dloss/dd,
    for the linear loss sum(g * d) of LX's DSM at seeded theta, q + m = 3..6."""
    rng, jobs = np.random.default_rng(0), 2
    worst = np.zeros(2)  # from the sweep, from the differences
    cases = ((3, 0), (3, 1), (4, 1), (5, 0), (5, 1), (6, 1))
    for w, m in cases:
        c, k = build_ansatz("LX", w), 1 << m
        for _ in range(jobs):
            theta = rng.uniform(0, 2 * math.pi, c.param_count)
            g = rng.normal(size=(1 << (w - m),) * 2)
            lam = np.tile(g / k, (k, k))
            u, tape = forward(c, theta)
            got = tape_gradient(c, u, lam, tape)
            wants = (reverse_sweep(c, theta, u, lam)[0],
                     fd_gradient(lambda t: np.sum(g * extract_dsm(c, m, t)), theta))
            dev = np.array([np.abs(got - want).max() for want in wants])
            dev /= np.abs(g).max()
            worst = np.maximum(worst, dev)
            if dev[0] > 1e-13 or dev[1] > 1e-6:
                at = f"q+m={w}, m={m}: {dev[0]:.3e} from the sweep, {dev[1]:.3e}"
                detail = f"gradients differ at {at} from differences"
                return "gradient_agreement", False, detail
    detail = (f"max deviation {worst[0]:.3e} from the sweep, {worst[1]:.3e} "
              f"from differences over {len(cases) * jobs} jobs")
    return "gradient_agreement", True, detail


def run_suites(q: int = 3):
    """Every suite.  Borel enumeration runs at min(q, 4), 2^(q(q-1)/2) round
    trips, and Bruhat reassembly at q: every invertible matrix up to q = 3,
    else seeded samples; the other suites take no q."""
    results = [
        suite_x_cx_relations(),
        suite_noncommutation(),
        suite_gate_constructions(),
        suite_borel_enumeration(min(q, 4)),
        suite_bruhat_reassembly(q),
        suite_dsm_agreement(),
        suite_binary_agreement(),
        suite_gradient_agreement(),
    ]
    return results
