"""Acceptance suite: one test per criterion, one pass/fail line each."""

import itertools
import math
from pathlib import Path

import numpy as np

from quper.circuits import (
    ANSATZ_KINDS,
    Circuit,
    Gate,
    build_ansatz,
    circuit_stats,
    eval_permutation,
    eval_unitary,
    lower_to_linear_topology,
    synthesize_params,
)
from quper.dsm import birkhoff_decompose, extract_dsm, statevector_oracle
from quper.gf2 import (
    AffineMap,
    Gf2Matrix,
    Permutation,
    Transvection,
    borel_subword,
    bruhat_decompose,
    bruhat_span_size,
    recognize_affine,
    word_to_matrix,
)
from quper.optimizer import (
    AdamState,
    QuperConfig,
    adam_nesterov_step,
    fd_gradient,
    loss_pass,
    quper_solve,
    random_baseline,
)
from quper.problems import (
    gip_cost,
    gip_to_qap,
    load_qaplib,
    qap_cost,
    qap_cost_and_grad,
    random_gip,
    random_qap,
)
from quper.projection import project_hungarian, project_random_order

DATA = Path(__file__).parent / "data"
PI = math.pi


def report(num: int, desc: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def perm_column_matrix(p):
    m = np.zeros((p.n, p.n))
    for j in range(p.n):
        m[p(j), j] = 1.0
    return m


def random_invertible(q, rng):
    while True:
        m = Gf2Matrix(q, tuple(int(v) for v in rng.integers(0, 1 << q, q)))
        if m.is_invertible():
            return m


def census(q):
    c = build_ansatz("LX", q)
    return len(
        {
            eval_permutation(c, np.array(bits)).map
            for bits in itertools.product((0.0, PI), repeat=c.param_count)
        }
    )


def test_criterion_01_span_formula_and_census():
    ok = [bruhat_span_size(q) for q in (2, 3, 4, 5)] == [
        24,
        1344,
        322560,
        319979520,
    ]
    ok = ok and census(2) == 24 and census(3) == 1344
    report(1, "span formula q=2..5 and exhaustive census 24 / 1344", ok)


def test_criterion_02_circuit_statistics():
    ok = True
    for q in range(2, 8):
        st = circuit_stats(build_ansatz("LX", q))
        ok &= st.param_count == q + 3 * (q * (q - 1) // 2)
        # At q = 2 every gate after the RX layer acts on both qubits, so the
        # schedule is serial: RX + PCX + PSWAP (3) + PCX.
        ok &= st.depth == (9 * q - 11 if q >= 3 else 1 + 1 + 3 + 1)
    report(
        2,
        "params l = q + 3 C(q,2) for q = 2..7; depth d = 9q - 11 for q = 3..7"
        " and d = 1 + 1 + 3 + 1 = 6 (serial) at q = 2",
        ok,
    )


def test_criterion_03_gate_identities():
    pcx = Circuit(2, (Gate("PCX", (0, 1), 0),), 1)
    cx = Circuit(2, (Gate("CX", (0, 1), None),), 0)
    psw = Circuit(2, (Gate("PSWAP", (0, 1), 0),), 1)
    errs = [
        np.max(np.abs(eval_unitary(pcx, [PI]) - eval_unitary(cx, []))),
        np.max(np.abs(eval_unitary(psw, [PI]) - np.eye(4)[[0, 2, 1, 3]])),
        np.max(np.abs(eval_unitary(psw, [0.0]) - np.eye(4))),
    ]
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    i2 = np.eye(2)
    cxm = eval_unitary(cx, []).real
    errs += [
        np.max(np.abs(cxm @ np.kron(x, x) - np.kron(x, i2) @ cxm)),
        np.max(np.abs(cxm @ np.kron(i2, x) - np.kron(i2, x) @ cxm)),
        np.max(np.abs(np.kron(x, x) @ cxm - cxm @ np.kron(x, i2))),
    ]
    seq = Circuit(
        3,
        (
            Gate("CX", (1, 2), None),
            Gate("CX", (0, 1), None),
            Gate("CX", (1, 2), None),
            Gate("CX", (0, 1), None),
        ),
        0,
    )
    tgt = Circuit(3, (Gate("CX", (0, 2), None),), 0)
    errs.append(np.max(np.abs(eval_unitary(seq, []) - eval_unitary(tgt, []))))
    ok = max(errs) <= 1e-12
    report(3, "PCX/PSWAP constructions and cx relation identities <= 1e-12", ok)


def test_criterion_04_group_theorems():
    ok = True
    count = 0
    for bits in range(512):
        rows = tuple((bits >> (3 * j)) & 7 for j in range(3))
        m = Gf2Matrix(3, rows)
        if not m.is_invertible():
            continue
        count += 1
        f = bruhat_decompose(m)
        ok &= f.u1 @ f.w.gf2_matrix() @ f.u2 == m
    ok &= count == 168
    for q in (3, 4):
        pairs = [(j, k) for j in range(q) for k in range(j + 1, q)]
        n_borel = 0
        for sel in itertools.product((0, 1), repeat=len(pairs)):
            rows = list(Gf2Matrix.identity(q).rows)
            for on, (j, k) in zip(sel, pairs):
                if on:
                    rows[j] |= 1 << k
            a = Gf2Matrix(q, tuple(rows))
            ok &= word_to_matrix(borel_subword(a), q) == a
            n_borel += 1
        ok &= n_borel == 1 << (q * (q - 1) // 2)
    word = [Transvection(1, 3), Transvection(1, 2), Transvection(0, 2)]
    ok &= word_to_matrix(word, 4).to_text() == "1010\n0111\n0010\n0001"
    report(4, "GL_3 reassembly, Borel round-trips q=3/4, worked example", ok)


def test_criterion_05_dsm_properties():
    rng = np.random.default_rng(55)
    ok = True
    for kind in ANSATZ_KINDS:
        for q in (2, 3):
            for m in (0, 1, 2):
                c = build_ansatz(kind, q + m)
                for _ in range(100):
                    theta = rng.uniform(0, 2 * PI, c.param_count)
                    d = extract_dsm(c, m, theta)
                    sums = np.concatenate([d.sum(axis=0) - 1, d.sum(axis=1) - 1])
                    ok &= np.max(np.abs(sums)) <= 1e-9
                    o = statevector_oracle(c, m, theta)
                    ok &= np.max(np.abs(d - o)) <= 1e-10
        c = build_ansatz(kind, 3)
        for _ in range(20):
            theta = rng.choice([0.0, PI], c.param_count)
            d = extract_dsm(c, 0, theta)
            p = eval_permutation(c, theta)
            ok &= np.array_equal(d, perm_column_matrix(p))
    report(5, "DSM sums, oracle agreement, exact binary m=0 matrices", ok)


def test_criterion_06_birkhoff_membership():
    rng = np.random.default_rng(66)
    c = build_ansatz("Bruhat", 4)  # q=3 plus one ancilla
    ok = True
    for _ in range(500):
        theta = rng.choice([0.0, PI], c.param_count)
        d = extract_dsm(c, 1, theta)
        bd = birkhoff_decompose(d)
        ok &= len(bd.terms) <= 2 ** (3 * 1 * 3)
        for _, p in bd.terms:
            ok &= recognize_affine(p) is not None
    report(6, "Birkhoff terms of Bruhat(q=3, m=1) all affine, count bound", ok)


def test_criterion_07_affine_synthesis_roundtrip():
    ok = True
    rng = np.random.default_rng(77)
    for q in (2, 3, 4):
        for _ in range(500):
            amap = AffineMap(
                random_invertible(q, rng), int(rng.integers(0, 1 << q))
            )
            circ, theta = synthesize_params(amap)
            ok &= recognize_affine(eval_permutation(circ, theta)) == amap
    report(7, "500 affine synthesis round-trips at q = 2, 3, 4", ok)


def test_criterion_08_topology_lowering():
    rng = np.random.default_rng(88)
    c = build_ansatz("Borel", 4)
    low = lower_to_linear_topology(c)
    ok = True
    for _ in range(50):
        theta = rng.choice([0.0, PI], c.param_count)
        ok &= eval_permutation(c, theta) == eval_permutation(low, theta)
    for p in (2, 3):
        single = Circuit(p + 1, (Gate("PCX", (p, 0), 0),), 1)
        ok &= len(lower_to_linear_topology(single).gates) == 4 * (p - 1)
    single = Circuit(2, (Gate("PCX", (1, 0), 0),), 1)
    ok &= len(lower_to_linear_topology(single).gates) == 1
    report(8, "lowered Borel(q=4) permutations identical; 4(p-1) counts", ok)


def test_criterion_09_projections():
    rng = np.random.default_rng(99)
    all_p8 = np.array(list(itertools.permutations(range(8))))
    ok = True
    for _ in range(50):
        e = np.zeros((8, 8))
        for lam in rng.dirichlet(np.ones(6)):
            e[np.arange(8), rng.permutation(8)] += lam
        p = project_hungarian(e)
        got = e[np.arange(8), p].sum()
        best = e[np.arange(8)[None, :], all_p8].sum(axis=1).max()
        ok &= got == best
    p = Permutation((3, 0, 2, 1))
    out = project_random_order(np.eye(4)[list(p.map)], seed=9, trials=50)
    ok &= out.tolist() == [list(p.map)]
    report(9, "Hungarian matches exhaustive optimum; random-order fixed point", ok)


def test_criterion_10a_n4_qap_optima():
    wins = 0
    for s in range(10):
        inst = random_qap(4, s)
        opt = min(
            qap_cost(inst, Permutation(p))
            for p in itertools.permutations(range(4))
        )
        _, v, _ = quper_solve(inst, QuperConfig("bruhat", 1, 200, seed=s))
        wins += math.isclose(v, opt, rel_tol=1e-9)
    report(10, f"(a) brute-force optimum reached in {wins}/10 runs", wins >= 8)


def test_criterion_10b_esc16f_zero():
    inst = load_qaplib(
        (DATA / "esc16f.dat").read_text(),
        (DATA / "esc16f.sln").read_text(),
        name="esc16f",
    )
    _, v, _ = quper_solve(inst, QuperConfig("bruhat", 0, 5, seed=0))
    report(10, "(b) esc16f solved to exactly 0", v == 0.0)


def test_criterion_10c_monotone_and_beats_baseline():
    wins = 0
    monotone = True
    for n, m in ((4, 1), (8, 0)):
        for s in range(5):
            inst = random_qap(n, s)
            _, v, trace = quper_solve(inst, QuperConfig("bruhat", m, 200, seed=s))
            bests = [r["best"] for r in trace.records]
            monotone &= all(b <= a for a, b in zip(bests, bests[1:]))
            _, bv = random_baseline(inst, 200, seed=s)
            wins += v <= bv
    report(
        10,
        f"(c) traces monotone; beat baseline in {wins}/10 pairs",
        monotone and wins >= 8,
    )


def test_criterion_10d_gip_span_restricted():
    zeros = 0
    for s in range(10):
        inst = random_gip(8, s, span_restricted=True)
        _, v, _ = quper_solve(inst, QuperConfig("bruhat", 0, 1000, seed=s))
        zeros += v == 0.0
    report(10, f"(d) isomorphism found in {zeros}/10 GIP runs", zeros >= 7)


def test_criterion_11_gip_qap_identity():
    rng = np.random.default_rng(111)
    ok = True
    for _ in range(100):
        inst = random_gip(8, int(rng.integers(0, 1 << 30)))
        qap = gip_to_qap(inst)
        p = Permutation(tuple(int(v) for v in rng.permutation(8)))
        lhs = (
            gip_cost(inst, p)
            - np.trace(inst.a.T @ inst.a)
            - np.trace(inst.b.T @ inst.b)
        )
        ok &= abs(lhs - 2 * qap_cost(qap, p)) <= 1e-9
    report(11, "GIP-QAP cost identity on 100 random triples", ok)


def test_criterion_12_optimizer_numerics():
    from quper.circuits import solver_ansatz

    inst = random_qap(4, 121)
    cost_and_grad = lambda d: qap_cost_and_grad(inst, d)
    c = solver_ansatz("bruhat", 3)
    rng = np.random.default_rng(122)
    ok = True
    for _ in range(20):
        theta = rng.uniform(0, 2 * PI, c.param_count)
        f = lambda t: loss_pass(extract_dsm(c, 1, t), cost_and_grad)[0]
        g1 = fd_gradient(f, theta, 1e-5)
        g2 = fd_gradient(f, theta, 0.5e-5)
        rel = np.max(np.abs(g1 - g2)) / max(1e-9, np.max(np.abs(g2)))
        ok &= rel <= 1e-4
    s = adam_nesterov_step(AdamState.fresh(np.array([0.0])), np.array([1.0]))
    mu_hat = 0.9 / (1 - 0.81) * 0.1 + 1.0
    golden = -0.005 * mu_hat / (1.0 + 1e-8)
    ok &= abs(s.theta[0] - golden) <= 1e-15
    report(12, "FD step-halving consistency and golden Adam step", ok)
