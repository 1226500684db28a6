"""Ansatz construction, evaluation, synthesis, topology lowering."""

import copy
import hashlib
import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quper import circuits, optimizer
from quper.circuits import (
    ANSATZ_KINDS,
    SOLVER_ANSATZE,
    Circuit,
    Gate,
    QubitBudgetError,
    affine_images,
    build_ansatz,
    circuit_from_text,
    circuit_stats,
    circuit_to_text,
    eval_permutation,
    eval_permutations,
    eval_unitary,
    forward,
    lower_to_linear_topology,
    max_dense_qubits,
    reverse_sweep,
    solver_ansatz,
    synthesize_params,
    tape_gradient,
)
from quper.dsm import _apply_gate, adjoint_gradient, extract_dsm, statevector_oracle
from quper.optimizer import QuperConfig, fd_gradient, quper_solve
from quper.problems import random_qap
from quper.projection import project_hungarian
from quper.gf2 import (
    AffineMap,
    Gf2Matrix,
    Permutation,
    recognize_affine,
    reverse_bits,
)

PI = math.pi

# sha256 of every ansatz kind, solver ansatz and synthesized parameter
# vector: see TestBuildAnsatz.test_construction_is_pinned.
CONSTRUCTION_DIGEST = "5b3b71b034466d71c4e4c094c997d7d530cf9a3a64bb3da0e45dd405857b94c5"


def random_invertible(q, rng):
    while True:
        m = Gf2Matrix(q, tuple(int(v) for v in rng.integers(0, 1 << q, q)))
        if m.is_invertible():
            return m


def perm_column_matrix(p: Permutation) -> np.ndarray:
    m = np.zeros((p.n, p.n))
    for j in range(p.n):
        m[p(j), j] = 1.0
    return m


class TestBuildAnsatz:
    def test_lx_q3_param_count(self):
        assert build_ansatz("LX", 3).param_count == 12

    def test_borel_q6_gate_count(self):
        c = build_ansatz("Borel", 6)
        assert len(c.gates) == 15
        assert all(g.kind == "PCX" for g in c.gates)

    def test_bruhat_q4_block_structure(self):
        c = build_ansatz("Bruhat", 4)
        kinds = [g.kind for g in c.gates]
        assert kinds == ["PCX"] * 6 + ["PSWAP"] * 6 + ["PCX"] * 6
        assert c.param_count == 18

    def test_weyl_gate_order_q3(self):
        # Longest word sigma1 sigma2 sigma1 read right-to-left.
        c = build_ansatz("Weyl", 3)
        assert [g.qubits for g in c.gates] == [(0, 1), (1, 2), (0, 1)]

    def test_borel_transvection_orientation(self):
        # T_(jk) is the cx controlled by qubit k acting on qubit j; gates in
        # ascending lexicographic (j, k).
        c = build_ansatz("Borel", 3)
        assert [g.qubits for g in c.gates] == [(1, 0), (2, 0), (2, 1)]

    def test_sel_default_layer_count_q3(self):
        c = build_ansatz("SEL", 3)
        assert c.param_count == 12  # two layers of 2q slots match LX

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            build_ansatz("Magic", 3)

    def test_q_too_small(self):
        with pytest.raises(ValueError):
            build_ansatz("Bruhat", 1)

    def test_construction_is_pinned(self):
        # Every ansatz kind at q = 0..8 (the error text where it has none),
        # every solver ansatz at q = 1..8 (SEL from 2) and the parameters
        # synthesize_params gives for 300 seeded affine maps.  The digest
        # was recorded before the kinds were rewritten as block chains, and
        # re-pinned when the text gained its QUBITS line (the gate lines
        # alone still hash to f84e3435...); a change to it changes the
        # circuits.
        h = hashlib.sha256()

        def add(c):
            h.update(f"{circuit_to_text(c)}|{c.param_count}|{c.kind}|".encode())

        for kind, q in itertools.product(ANSATZ_KINDS, range(9)):
            try:
                add(build_ansatz(kind, q))
            except ValueError as e:
                h.update(f"{kind} {q}: {e}|".encode())
        for name, q in itertools.product(SOLVER_ANSATZE, range(1, 9)):
            if name != "sel" or q >= 2:
                add(solver_ansatz(name, q))
        rng = np.random.default_rng(29)
        for q in range(1, 7):
            for _ in range(50):
                amap = AffineMap(random_invertible(q, rng), int(rng.integers(0, 1 << q)))
                c, theta = synthesize_params(amap)
                add(c)
                h.update(theta.tobytes())
        assert h.hexdigest() == CONSTRUCTION_DIGEST


class TestCircuitStats:
    def test_xlayer_q5(self):
        st = circuit_stats(build_ansatz("XLayer", 5))
        assert (st.param_count, st.depth) == (5, 1)

    @pytest.mark.parametrize("q", [3, 4, 5, 6, 7])
    def test_lx_closed_forms(self, q):
        st = circuit_stats(build_ansatz("LX", q))
        assert st.param_count == q + 3 * q * (q - 1) // 2
        assert st.depth == 9 * q - 11

    def test_lx_q2_asap_depth(self):
        # Every gate of the q=2 circuit acts on both qubits except the RX
        # layer, so ASAP packs it into 1 + 1 + 3 + 1 = 6 layers. The closed
        # form 9q - 11 holds only from q = 3; acceptance criterion 2 checks
        # this serial value at q = 2.
        assert circuit_stats(build_ansatz("LX", 2)).depth == 6

    def test_two_qubit_count_bruhat(self):
        # PSWAP expands into three two-qubit gates: 5 C(q,2) in total.
        st = circuit_stats(build_ansatz("Bruhat", 4))
        assert st.two_qubit_gate_count == 5 * 6

    def test_hand_scheduled_chain(self):
        c = Circuit(
            3,
            (
                Gate("PCX", (0, 1), 0),
                Gate("PCX", (1, 2), 1),
                Gate("PCX", (0, 1), 2),
            ),
            3,
        )
        assert circuit_stats(c).depth == 3


class TestEvalUnitary:
    @pytest.mark.parametrize("kind", ANSATZ_KINDS)
    def test_unitarity(self, kind):
        rng = np.random.default_rng(7)
        for q in (2, 3, 4):
            c = build_ansatz(kind, q)
            for _ in range(25):
                u = eval_unitary(c, rng.uniform(0, 2 * PI, c.param_count))
                err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
                assert err <= 1e-12

    def test_pcx_pi_is_cx_exactly(self):
        pcx = Circuit(2, (Gate("PCX", (0, 1), 0),), 1)
        cx = Circuit(2, (Gate("CX", (0, 1), None),), 0)
        assert np.array_equal(eval_unitary(pcx, [PI]), eval_unitary(cx, []))

    def test_zero_theta_is_identity(self):
        c = build_ansatz("LX", 3)
        u = eval_unitary(c, np.zeros(c.param_count))
        assert np.array_equal(u, np.eye(8))

    def test_pswap_pi_is_swap(self):
        c = Circuit(2, (Gate("PSWAP", (0, 1), 0),), 1)
        assert np.array_equal(eval_unitary(c, [PI]), np.eye(4)[[0, 2, 1, 3]])

    @pytest.mark.parametrize("a, b", list(itertools.permutations(range(3), 2)))
    def test_binary_two_qubit_gates_on_every_pair(self, a, b):
        # Adjacent, reversed and long-range pairs on q = 3; qubit 0 is the
        # most-significant bit.
        ma, mb = 1 << (2 - a), 1 << (2 - b)

        def basis_map(f):
            return perm_column_matrix(Permutation(tuple(f(x) for x in range(8))))

        def swap_bits(x):
            return x ^ (ma | mb) if bool(x & ma) != bool(x & mb) else x

        def flip_b_if_a(x):
            return x ^ mb if x & ma else x

        swap, cx = basis_map(swap_bits), basis_map(flip_b_if_a)
        pswap = Circuit(3, (Gate("PSWAP", (a, b), 0),), 1)
        pcx = Circuit(3, (Gate("PCX", (a, b), 0),), 1)
        assert np.array_equal(eval_unitary(pswap, [PI]), swap)
        assert np.array_equal(eval_unitary(pswap, [0.0]), np.eye(8))
        assert np.array_equal(eval_unitary(pcx, [PI]), cx)
        # CX is the step at its X block, exact as a flip would be.
        cx_only = Circuit(3, (Gate("CX", (a, b), None),), 0)
        assert np.array_equal(eval_unitary(cx_only, []), cx)

    def test_binary_theta_gives_signless_permutation(self):
        rng = np.random.default_rng(3)
        c = build_ansatz("LX", 3)
        for _ in range(20):
            theta = rng.choice([0.0, PI], c.param_count)
            mags = np.abs(eval_unitary(c, theta))
            assert np.all((mags < 1e-12) | (np.abs(mags - 1) < 1e-12))

    def test_guard(self, monkeypatch):
        c = build_ansatz("XLayer", 15)
        with pytest.raises(QubitBudgetError):
            eval_unitary(c, np.zeros(15))
        small = build_ansatz("XLayer", 4)
        monkeypatch.setenv("QUPER_MAX_QUBITS", "3")
        with pytest.raises(QubitBudgetError):
            eval_unitary(small, np.zeros(4))
        monkeypatch.setenv("QUPER_MAX_QUBITS", "4")
        assert eval_unitary(small, np.zeros(4)).shape == (16, 16)
        # The solver (q + m_max qubits) and the oracle (two registers) raise
        # the one guard's error before they build anything.
        over = r"dense evaluation of {} qubits exceeds the guard \(4\)"
        with pytest.raises(QubitBudgetError, match=over.format(5)):
            quper_solve(random_qap(8, 0), QuperConfig("bruhat", m_max=2, iterations=1))
        with pytest.raises(QubitBudgetError, match=over.format(6)):
            statevector_oracle(build_ansatz("XLayer", 3), 0, np.zeros(3))

    def test_param_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_unitary(build_ansatz("LX", 2), [0.0])


def serial_unitary(c, theta):
    """Reference for the kernel: the serial gate walk."""
    dim = 1 << c.q
    psi = np.eye(dim, dtype=complex).reshape((2,) * c.q + (dim,))
    for g in c.gates:
        psi = _apply_gate(psi, g, None if g.slot is None else theta[g.slot])
    return psi.reshape(dim, dim)


def random_thetas(c, rng, count):
    """(count, L) angles in [-2 pi, 2 pi], about 30% of them exactly 0 or pi."""
    thetas = rng.uniform(-2 * PI, 2 * PI, (count, c.param_count))
    binary = rng.random(thetas.shape) < 0.3
    thetas[binary] = rng.choice([0.0, PI], np.count_nonzero(binary))
    return thetas


def any_circuit(name, q):
    """A named ansatz on q qubits; "linear" is LX lowered to linear topology."""
    if name == "linear":
        return lower_to_linear_topology(build_ansatz("LX", q))
    if name in SOLVER_ANSATZE:
        return solver_ansatz(name, q)
    return build_ansatz(name, q)


class TestKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(ANSATZ_KINDS + SOLVER_ANSATZE),
        q=st.integers(2, 6),
        count=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_serial_walk(self, name, q, count, seed):
        c = any_circuit(name, q)
        for theta in random_thetas(c, np.random.default_rng(seed), count):
            u = eval_unitary(c, theta)
            assert u.shape == (1 << q, 1 << q)
            assert np.max(np.abs(u - serial_unitary(c, theta))) <= 1e-12

    @pytest.mark.parametrize("angle", [0.0, PI, 2 * PI])
    def test_serial_walk_and_oracle_at_exact_angles(self, angle):
        # The serial gate matrices take cos and sin at every angle, with no
        # exact case at 0, pi or 2 pi; rounding stays inside both bounds.
        for name in ANSATZ_KINDS:
            c = build_ansatz(name, 3)
            theta = np.full(c.param_count, angle)
            u = eval_unitary(c, theta)
            assert np.max(np.abs(u - serial_unitary(c, theta))) <= 1e-12
            for m in (0, 1):
                d = extract_dsm(c, m, theta)
                assert np.max(np.abs(d - statevector_oracle(c, m, theta))) <= 1e-10

    def test_long_range_and_reversed_gates(self):
        c = Circuit(
            4,
            (
                Gate("PCX", (3, 0), 0),
                Gate("PSWAP", (2, 0), 1),
                Gate("CX", (1, 3), None),
                Gate("CX", (3, 1), None),
                Gate("PSWAP", (1, 3), 2),
                Gate("PCX", (0, 2), 1),
            ),
            3,
        )
        rng = np.random.default_rng(12)
        for theta in rng.uniform(0, 2 * PI, (5, 3)):
            u = eval_unitary(c, theta)
            assert np.max(np.abs(u - serial_unitary(c, theta))) <= 1e-12

    @pytest.mark.parametrize(
        "q, a, b",
        [(q, a, b) for q in (3, 4) for a, b in itertools.permutations(range(q), 2)],
    )
    def test_pswap_step_is_its_three_gate_definition(self, q, a, b):
        # PSWAP(a, b) is one step on the rows where (a, b) is (1, 0) and
        # (0, 1); its definition is CX(b -> a), PCX(a -> b), CX(b -> a).  An
        # RX layer on slots 1..q makes the state the pair step reads generic.
        layer = tuple(Gate("RX", (t,), 1 + t) for t in range(q))
        cx = Gate("CX", (b, a), None)
        one = Circuit(q, layer + (Gate("PSWAP", (a, b), 0),), q + 1)
        three = Circuit(q, layer + (cx, Gate("PCX", (a, b), 0), cx), q + 1)
        rng = np.random.default_rng([q, a, b])
        g = rng.normal(size=(1 << q, 1 << q))
        for phi in (rng.uniform(0, 2 * PI), 0.0, PI):
            theta = np.concatenate(([phi], rng.uniform(0, 2 * PI, q)))
            u, tape = forward(one, theta)
            u3, tape3 = forward(three, theta)
            assert np.array_equal(u, u3)
            got = adjoint_gradient(one, 0, theta, u, tape, g)
            want = adjoint_gradient(three, 0, theta, u3, tape3, g)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_rejects_bad_theta_shape(self):
        c = build_ansatz("LX", 2)
        with pytest.raises(ValueError):
            eval_unitary(c, np.zeros((3, c.param_count)))
        with pytest.raises(ValueError):
            eval_unitary(c, np.zeros(c.param_count + 1))


MIXED_CIRCUIT = Circuit(
    4,
    (
        Gate("RX", (2,), 3),
        Gate("PCX", (3, 0), 0),
        Gate("PSWAP", (2, 0), 1),
        Gate("CX", (1, 3), None),
        Gate("CX", (3, 1), None),
        Gate("PSWAP", (1, 3), 2),
        Gate("PCX", (0, 2), 1),
        Gate("RX", (0,), 3),
    ),
    4,
)


def linear_loss(c, lam):
    """sum(lam |U|^2) at one parameter vector."""
    return lambda t: np.sum(lam * np.abs(eval_unitary(c, t)) ** 2)


class TestReverseSweep:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(ANSATZ_KINDS + SOLVER_ANSATZE),
        q=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_u_row_ends_at_identity(self, name, q, seed):
        c = any_circuit(name, q)
        rng = np.random.default_rng(seed)
        (theta,) = random_thetas(c, rng, 1)
        lam = rng.normal(size=(1 << q, 1 << q))
        _, swept = reverse_sweep(c, theta, eval_unitary(c, theta), lam)
        assert np.max(np.abs(swept - np.eye(1 << q))) <= 1e-12

    @pytest.mark.parametrize("lowered", [False, True])
    def test_matches_fd_on_long_range_reversed_and_shared_slots(self, lowered):
        # Slots 1 and 3 drive two gates each; lowering adds CX ladders and
        # gives the lowered PCX's slot to two gates.
        c = MIXED_CIRCUIT
        if lowered:
            c = lower_to_linear_topology(
                Circuit(4, tuple(g for g in c.gates if g.kind != "PSWAP"), 4)
            )
        rng = np.random.default_rng(21)
        lam = rng.normal(size=(16, 16))
        for theta in random_thetas(c, rng, 5):
            grad, _ = reverse_sweep(c, theta, eval_unitary(c, theta), lam)
            want = fd_gradient(linear_loss(c, lam), theta)
            assert np.max(np.abs(grad - want)) <= 1e-8 * np.max(np.abs(want))

    def test_leaves_its_inputs_unchanged(self):
        # The solver carries U and its tape across iterations; neither
        # gradient path may write into U, the tape, lam or g.
        rng = np.random.default_rng(5)
        for m, c in ((0, MIXED_CIRCUIT), (1, solver_ansatz("bruhat", 4))):
            (theta,) = random_thetas(c, rng, 1)
            u, tape = forward(c, theta)
            lam = rng.normal(size=u.shape)
            g = rng.normal(size=(len(u) >> m, len(u) >> m))
            kept = u.copy(), tape.copy(), lam.copy(), g.copy()
            reverse_sweep(c, theta, u, lam)
            adjoint_gradient(c, m, theta, u, tape, g)
            for arg, copy in zip((u, tape, lam, g), kept):
                assert np.array_equal(arg, copy)

    def test_rejects_bad_shapes(self):
        c = build_ansatz("LX", 2)
        u = eval_unitary(c, np.zeros(c.param_count))
        with pytest.raises(ValueError):
            reverse_sweep(c, np.zeros(c.param_count), u, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            reverse_sweep(c, np.zeros(c.param_count + 1), u, np.zeros((4, 4)))


def tape_case(name, q):
    """One of TestTapeGradient's circuits on q qubits: a named ansatz,
    "linear" (LX lowered), or at q = 4 MIXED_CIRCUIT and its PSWAP-free part
    lowered to CX ladders."""
    if name == "mixed":
        return MIXED_CIRCUIT
    if name == "mixed_lowered":
        return lower_to_linear_topology(
            Circuit(4, tuple(g for g in MIXED_CIRCUIT.gates if g.kind != "PSWAP"), 4)
        )
    return any_circuit(name, q)


def sweep_gradient(c, m, theta, u, g):
    """adjoint_gradient's value by reverse_sweep alone."""
    k = 1 << m
    return reverse_sweep(c, theta, u, np.tile(g / k, (k, k)))[0]


class TestTapeGradient:
    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(
            ANSATZ_KINDS + SOLVER_ANSATZE + ("linear", "mixed", "mixed_lowered")
        ),
        q=st.integers(2, circuits.TAPE_MAX_QUBITS),
        m=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_the_sweep(self, name, q, m, seed):
        c = tape_case(name, q)
        m = min(m, c.q - 1)
        rng = np.random.default_rng(seed)
        (theta,) = random_thetas(c, rng, 1)
        g = rng.normal(size=(1 << (c.q - m),) * 2)
        u, tape = forward(c, theta)
        got = adjoint_gradient(c, m, theta, u, tape, g)
        want = sweep_gradient(c, m, theta, u, g)
        # Relative to the gradient's scale, max |g| bounding each row term:
        # at binary theta the gradient itself can vanish to rounding.
        scale = max(np.abs(want).max(initial=0.0), np.abs(g).max())
        assert got.shape == want.shape == (c.param_count,)
        assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("q", range(2, circuits.TAPE_MAX_QUBITS + 2))
    def test_forward_records_a_tape_up_to_the_crossover(self, q):
        # The tape is None exactly above TAPE_MAX_QUBITS and (R, 2^q) below;
        # handed None, adjoint_gradient takes the sweep at any size.
        c = build_ansatz("LX", q)
        rng = np.random.default_rng(q)
        (theta,) = random_thetas(c, rng, 1)
        g = rng.normal(size=(1 << (q - 1),) * 2)
        u, tape = forward(c, theta)
        assert np.array_equal(u, eval_unitary(c, theta))
        assert (tape is None) == (q > circuits.TAPE_MAX_QUBITS)
        if tape is not None:
            # Each RX mixes 2^(q-1) row pairs, each PCX and PSWAP 2^(q-2).
            rows = (2 * q + 3 * q * (q - 1) // 2) << (q - 2)
            assert tape.shape == (rows, 1 << q)
        assert np.array_equal(
            adjoint_gradient(c, 1, theta, u, None, g), sweep_gradient(c, 1, theta, u, g)
        )

    @pytest.mark.parametrize(
        "name, q",
        [(name, q) for name in ("LX", "linear") for q in range(2, 6)]
        + [("mixed", 4), ("mixed_lowered", 4)],
    )
    def test_tape_rows_are_each_steps_row_differences(self, name, q):
        # Each parametrized step's rows, from the serial walk of the gates up
        # to it: P[r0] - P[r1] over the rows r0 it mixes in increasing order
        # (target 0; control 1; for PSWAP(a, b), a 1 and b 0) and their
        # partners r1 (target 1; for PSWAP, a 0 and b 1).
        c = tape_case(name, q)
        rng = np.random.default_rng([q, len(name)])
        (theta,) = random_thetas(c, rng, 1)
        bit = [1 << (c.q - 1 - i) for i in range(c.q)]
        x = np.arange(1 << c.q)
        want = []
        for k, g in enumerate(c.gates):
            if g.slot is None:
                continue
            *ctrl, t = g.qubits
            r0 = x[(x & bit[t] == 0) & np.all([x & bit[i] != 0 for i in ctrl], axis=0)]
            r1 = r0 ^ bit[t] ^ (bit[ctrl[0]] if g.kind == "PSWAP" else 0)
            p = serial_unitary(Circuit(c.q, c.gates[: k + 1], c.param_count), theta)
            want.append(p[r0] - p[r1])
        _, tape = forward(c, theta)
        assert tape.shape == (sum(map(len, want)), 1 << c.q)
        assert np.max(np.abs(tape - np.concatenate(want))) <= 1e-12

    def test_rejects_another_circuits_tape(self):
        lx, borel = build_ansatz("LX", 3), solver_ansatz("borel", 3)
        u, tape = forward(lx, np.zeros(lx.param_count))
        lam = np.ones(u.shape)
        assert tape_gradient(lx, u, lam, tape).shape == (lx.param_count,)
        with pytest.raises(ValueError, match="tape is 18 x 8, got \\(30, 8\\)"):
            tape_gradient(borel, u, lam, tape)

    def test_rejects_a_u_or_lam_of_another_size(self):
        c = build_ansatz("LX", 3)
        u, tape = forward(c, np.zeros(c.param_count))
        lam = np.ones(u.shape)
        for args in ((u[:4, :4], lam), (u, lam[:, :4])):
            with pytest.raises(ValueError, match="U and lam must be 8 x 8"):
                tape_gradient(c, *args, tape)

    @pytest.mark.parametrize("m", [0, 1])
    def test_sweep_alone_above_the_crossover(self, m):
        # At q + m = TAPE_MAX_QUBITS + 1 no tape is recorded and the gradient
        # is reverse_sweep's, bit for bit.
        c = solver_ansatz("bruhat", circuits.TAPE_MAX_QUBITS + 1)
        rng = np.random.default_rng(33)
        (theta,) = random_thetas(c, rng, 1)
        g = rng.normal(size=(1 << (c.q - m),) * 2)
        u, tape = forward(c, theta)
        assert tape is None
        assert np.array_equal(
            adjoint_gradient(c, m, theta, u, tape, g),
            sweep_gradient(c, m, theta, u, g),
        )
        with pytest.raises(ValueError, match="got \\(\\)"):
            tape_gradient(c, u, np.ones(u.shape), tape)

    @pytest.mark.parametrize("ell", [0, 2])
    def test_no_parametrized_gate_gives_an_empty_gradient(self, ell):
        cx = Gate("CX", (0, 2), None), Gate("CX", (2, 1), None)
        c = Circuit(3, cx, ell)
        theta = np.zeros(ell)
        u, tape = forward(c, theta)
        assert tape.shape == (0, 8)
        got = adjoint_gradient(c, 0, theta, u, tape, np.ones((8, 8)))
        assert got.dtype == float and np.array_equal(got, np.zeros(ell))


class TestStepCache:
    def test_keyed_on_circuit_and_theta_values(self):
        # Same parameter count and theta on two circuits, and a theta array
        # changed in place between calls: each call sees its own steps.
        lx = build_ansatz("LX", 3)
        rev = Circuit(3, tuple(reversed(lx.gates)), lx.param_count)
        theta = np.random.default_rng(4).uniform(0, 2 * PI, lx.param_count)
        err = lambda c: np.max(np.abs(eval_unitary(c, theta) - serial_unitary(c, theta)))
        assert max(err(lx), err(rev), err(lx)) <= 1e-12
        u = eval_unitary(lx, theta)
        theta[3] += 0.5
        assert err(lx) <= 1e-12
        assert not np.allclose(eval_unitary(lx, theta), u)

    def test_cached_arrays_refuse_writes(self):
        # Each cache hands the same array to every caller, so a write
        # through one would reach them all.
        c = solver_ansatz("bruhat", 3)
        assert solver_ansatz("bruhat", 3) is c
        assert c._workspace is c._workspace
        new_slots, old_slots = optimizer._slot_map(solver_ansatz("bruhat", 2), c)
        for a in (c._workspace[3], c._workspace[4], new_slots, old_slots):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]


def fresh_forward(c, theta):
    """forward on a newly built copy of c, whose workspace is new."""
    return forward(Circuit(c.q, c.gates, c.param_count, c.kind), theta)


def assert_forward_equal(got, want):
    (u, tape), (u_want, tape_want) = got, want
    assert np.array_equal(u, u_want)
    assert (tape is None) == (tape_want is None)
    assert tape is None or np.array_equal(tape, tape_want)


workspace_circuits = st.sampled_from(
    ANSATZ_KINDS + SOLVER_ANSATZE + ("linear", "mixed")
)


class TestWorkspace:
    """forward builds U and the tape in buffers kept on the circuit; every
    call must give what a newly built circuit gives, and what it returns
    must not change under later calls."""

    @settings(max_examples=40, deadline=None)
    @given(name=workspace_circuits, q=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_calls_at_two_thetas_and_back(self, name, q, seed):
        c = tape_case(name, q)
        theta1, theta2 = random_thetas(c, np.random.default_rng(seed), 2)
        first = forward(c, theta1)
        kept = tuple(None if a is None else a.copy() for a in first)
        assert_forward_equal(forward(c, theta2), fresh_forward(c, theta2))
        again = forward(c, theta1)
        assert_forward_equal(again, fresh_forward(c, theta1))
        assert_forward_equal(first, kept)
        assert again[0] is not first[0]

    @settings(max_examples=30, deadline=None)
    @given(
        names=st.tuples(workspace_circuits, workspace_circuits),
        q=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_calls_interleaved_across_two_circuits(self, names, q, seed):
        a, b = (tape_case(name, q) for name in names)
        rng = np.random.default_rng(seed)
        ta, tb = random_thetas(a, rng, 2), random_thetas(b, rng, 2)
        got = [forward(a, ta[0]), forward(b, tb[0]), forward(a, ta[1]), forward(b, tb[1])]
        want = [fresh_forward(a, ta[0]), fresh_forward(b, tb[0]),
                fresh_forward(a, ta[1]), fresh_forward(b, tb[1])]
        for g, w in zip(got, want):
            assert_forward_equal(g, w)

    @pytest.mark.parametrize("q", [3, circuits.TAPE_MAX_QUBITS + 1])
    def test_writes_to_returned_arrays_do_not_reach_it(self, q):
        c = build_ansatz("LX", q)
        theta1, theta2 = random_thetas(c, np.random.default_rng(q), 2)
        u, tape = forward(c, theta1)
        u[...] = np.nan
        if tape is not None:
            tape[...] = np.nan
        assert_forward_equal(forward(c, theta2), fresh_forward(c, theta2))
        assert_forward_equal(forward(c, theta1), fresh_forward(c, theta1))

    @pytest.mark.parametrize("clone", [
        lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy,
    ])
    def test_copies_after_a_forward_build_their_own(self, clone):
        # A copy carries the fields only: a copied workspace's views would
        # no longer alias its psi, and forward would return the identity.
        c = Circuit(4, MIXED_CIRCUIT.gates, MIXED_CIRCUIT.param_count)
        theta1, theta2 = random_thetas(c, np.random.default_rng(8), 2)
        forward(c, theta1)
        c2 = clone(c)
        assert "_workspace" not in vars(c2)
        assert c2 == c and hash(c2) == hash(c) and c2 is not c
        assert_forward_equal(forward(c2, theta2), fresh_forward(c, theta2))
        assert_forward_equal(forward(c, theta2), fresh_forward(c, theta2))

    @pytest.mark.parametrize("name", ["bruhat", "linear", "mixed"])
    @pytest.mark.parametrize("q", [3, circuits.TAPE_MAX_QUBITS + 1])
    def test_a_sweep_between_two_forwards_leaves_them_equal(self, name, q):
        # The sweep walks the planes forward builds U in.
        c = tape_case(name, q)
        rng = np.random.default_rng([q, len(name)])
        (theta,) = random_thetas(c, rng, 1)
        first = forward(c, theta)
        reverse_sweep(c, theta, first[0], rng.normal(size=first[0].shape))
        as_bytes = lambda arrays: [None if a is None else a.tobytes() for a in arrays]
        assert as_bytes(forward(c, theta)) == as_bytes(first)

    @pytest.mark.parametrize("q", [3, circuits.TAPE_MAX_QUBITS + 1])
    def test_writes_to_a_sweeps_arrays_do_not_reach_the_next(self, q):
        c = build_ansatz("LX", q)
        rng = np.random.default_rng(q)
        (theta,) = random_thetas(c, rng, 1)
        u = eval_unitary(c, theta)
        lam = rng.normal(size=u.shape)
        want = tuple(a.copy() for a in reverse_sweep(c, theta, u, lam))
        for written in range(3):  # u, lam, then the swept U returned
            arrays = [u.copy(), lam.copy()]
            arrays.append(reverse_sweep(c, theta, *arrays)[1])
            arrays[written][...] = np.nan
            got = reverse_sweep(c, theta, u, lam)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert not np.shares_memory(arrays[2], got[1])

    @pytest.mark.parametrize("q", [3, circuits.TAPE_MAX_QUBITS + 1])
    def test_a_sweep_on_one_circuit_between_forwards_on_another(self, q):
        a, b = build_ansatz("LX", q), solver_ansatz("borel", q)
        rng = np.random.default_rng(q)
        (ta,), (tb,) = random_thetas(a, rng, 1), random_thetas(b, rng, 1)
        first = forward(a, ta)
        ub = eval_unitary(b, tb)
        reverse_sweep(b, tb, ub, rng.normal(size=ub.shape))
        assert_forward_equal(first, fresh_forward(a, ta))
        assert_forward_equal(forward(a, ta), fresh_forward(a, ta))


class TestMaxQubitsEnv:
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5"])
    def test_rejects_non_positive_or_non_integer(self, value, monkeypatch):
        monkeypatch.setenv("QUPER_MAX_QUBITS", value)
        want = f"QUPER_MAX_QUBITS must be a positive integer, got '{value}'"
        with pytest.raises(ValueError, match=want):
            max_dense_qubits()

    def test_unset_or_empty_is_default(self, monkeypatch):
        monkeypatch.delenv("QUPER_MAX_QUBITS", raising=False)
        assert max_dense_qubits() == circuits.DEFAULT_MAX_QUBITS
        monkeypatch.setenv("QUPER_MAX_QUBITS", "")
        assert max_dense_qubits() == circuits.DEFAULT_MAX_QUBITS
        monkeypatch.setenv("QUPER_MAX_QUBITS", "7")
        assert max_dense_qubits() == 7


class TestEvalPermutation:
    def test_all_zero_theta(self):
        c = build_ansatz("LX", 3)
        assert eval_permutation(c, np.zeros(12)) == Permutation.identity(8)

    def test_matches_unitary_magnitudes(self):
        rng = np.random.default_rng(11)
        for kind in ("LX", "SEL", "Weyl"):
            c = build_ansatz(kind, 3)
            for _ in range(15):
                theta = rng.choice([0.0, PI], c.param_count)
                p = eval_permutation(c, theta)
                mags = np.round(np.abs(eval_unitary(c, theta)))
                assert np.array_equal(mags, perm_column_matrix(p))

    @settings(max_examples=16, deadline=None)
    @given(bits=st.lists(st.booleans(), min_size=4, max_size=4))
    def test_mixed_circuit_matches_unitary(self, bits):
        theta = PI * np.array(bits, dtype=float)
        mags = np.abs(eval_unitary(MIXED_CIRCUIT, theta))
        read = Permutation(tuple(int(r) for r in np.argmax(mags, axis=0)))
        assert np.max(np.abs(mags - perm_column_matrix(read))) <= 1e-12
        assert eval_permutation(MIXED_CIRCUIT, theta) == read

    def test_census_q2(self):
        c = build_ansatz("LX", 2)
        perms = {
            eval_permutation(c, np.array(bits)).map
            for bits in itertools.product((0.0, PI), repeat=5)
        }
        assert len(perms) == 24

    def test_non_binary_rejected(self):
        # eval_permutation is where angles become bits; the stacked
        # evaluations take bits only.
        message = re.escape("requires every parameter in {0, pi}")
        for q, fill in [(2, 0.5), (2, np.nan), (3, 0.5)]:
            c = build_ansatz("LX", q)
            with pytest.raises(ValueError, match=message):
                eval_permutation(c, np.full(c.param_count, fill))

    def test_snaps_within_tolerance(self):
        c = build_ansatz("LX", 2)
        theta = np.array([PI + 1e-13, -1e-13, 0.0, PI - 1e-13, 1e-13])
        exact = np.array([PI, 0.0, 0.0, PI, 0.0])
        assert eval_permutation(c, theta) == eval_permutation(c, exact)


def units(q):
    """Index 0, then the unit indices 2^(q-1-t) for t = 0..q-1."""
    return [0] + [1 << (q - 1 - t) for t in range(q)]


def serial_permutation(c, theta):
    """Reference for eval_permutations: one setting, gates that are off
    skipped, one XOR per gate that is on."""
    q = c.q
    x = np.arange(1 << q, dtype=np.int64)
    for g in c.gates:
        if g.slot is not None and theta[g.slot] != PI:
            continue
        s = [q - 1 - t for t in g.qubits]
        if g.kind == "RX":
            x = x ^ (1 << s[0])
        elif g.kind == "PSWAP":
            d = ((x >> s[0]) & 1) ^ ((x >> s[1]) & 1)
            x = x ^ ((d << s[0]) | (d << s[1]))
        else:
            x = x ^ (((x >> s[0]) & 1) << s[1])
    return x


class TestEvalPermutations:
    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(ANSATZ_KINDS + SOLVER_ANSATZE + ("linear",)),
        q=st.integers(2, 5),
        rows=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_one_setting_at_a_time(self, name, q, rows, seed):
        c = any_circuit(name, q)
        thetas = np.random.default_rng(seed).choice([0.0, PI], (rows, c.param_count))
        maps = eval_permutations(c, thetas == PI)
        images = affine_images(c, thetas == PI)
        assert maps.shape == (rows, 1 << q)
        assert images.shape == (rows, q + 1)
        for theta, row, image in zip(thetas, maps, images):
            assert np.array_equal(row, serial_permutation(c, theta))
            assert np.array_equal(image, serial_permutation(c, theta)[units(q)])
            assert tuple(row.tolist()) == eval_permutation(c, theta).map

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(ANSATZ_KINDS + SOLVER_ANSATZE + ("linear",)),
        q=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_images_give_the_recognized_affine_map(self, name, q, seed):
        c = any_circuit(name, q)
        theta = np.random.default_rng(seed).choice([0.0, PI], c.param_count)
        image = affine_images(c, theta[None] == PI)[0].tolist()
        # e_t is index 2^(q-1-t): b is the image of 0, column t that of e_t.
        b = reverse_bits(image[0], q)
        cols = [reverse_bits(v, q) ^ b for v in image[1:]]
        rows = [sum(((cols[t] >> j) & 1) << t for t in range(q)) for j in range(q)]
        amap = AffineMap(Gf2Matrix(q, tuple(rows)), b)
        assert amap == recognize_affine(eval_permutation(c, theta))

    @pytest.mark.parametrize("q, dtype", [(8, np.uint8), (9, np.uint16)])
    def test_narrowest_dtype_at_its_boundary(self, q, dtype):
        c = build_ansatz("LX", q)
        thetas = np.random.default_rng(q).choice([0.0, PI], (4, c.param_count))
        on = thetas == PI
        maps, images = eval_permutations(c, on), affine_images(c, on)
        assert maps.dtype == images.dtype == dtype
        for theta, row, image in zip(thetas, maps, images):
            assert np.array_equal(row, serial_permutation(c, theta))
            assert np.array_equal(image, row[units(q)])

    def test_uint32_maps_are_permutations(self):
        c = build_ansatz("LX", 17)
        theta = np.random.default_rng(17).choice([0.0, PI], (1, c.param_count))
        (row,) = eval_permutations(c, theta == PI)
        assert row.dtype == np.uint32
        assert np.array_equal(np.sort(row), np.arange(1 << 17))

    @pytest.mark.parametrize(
        "shape, fill, message",
        [
            ((3, 5), 0.5, "requires every parameter in {0, pi}"),
            ((3, 5), np.nan, "requires every parameter in {0, pi}"),
            ((5,), 0.0, "expected"),
            ((3, 6), 0.0, "expected"),
            ((2, 3, 5), 0.0, "expected"),
            # Angles are not bits, even binary ones; nor are ints.
            ((3, 5), PI, "bool bits, got float64 (3, 5)"),
            ((3, 5), 1, "bool bits, got int64 (3, 5)"),
        ],
    )
    def test_rejects_non_binary_or_bad_shape(self, shape, fill, message):
        for evaluate in (eval_permutations, affine_images):
            with pytest.raises(ValueError, match=re.escape(message)):
                evaluate(build_ansatz("LX", 2), np.full(shape, fill))


class TestSynthesizeParams:
    def test_identity_map(self):
        c, theta = synthesize_params(AffineMap(Gf2Matrix.identity(3), 0))
        assert np.all(theta == 0.0)
        assert c.kind == "LX"

    def test_pure_offset_e0(self):
        c, theta = synthesize_params(AffineMap(Gf2Matrix.identity(3), 1))
        assert theta[0] == PI
        assert np.all(theta[1:] == 0.0)

    @settings(deadline=None)
    @given(
        q=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 5),
    )
    @example(q=3, seed=13, count=200)
    def test_roundtrip_random_affine(self, q, seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            amap = AffineMap(
                random_invertible(q, rng), int(rng.integers(0, 1 << q))
            )
            c, theta = synthesize_params(amap)
            assert recognize_affine(eval_permutation(c, theta)) == amap

    def test_hungarian_answer_is_the_inverse_basis_map(self):
        # eval_permutation gives a's basis map p, and the DSM has
        # d[p[j], j] = 1; project_hungarian reads d by rows, d[i, p[i]], so
        # the solver's answer at a binary theta is p's inverse.
        rng = np.random.default_rng(26)
        involutions = 0
        for q in (2, 3, 4):
            for _ in range(20):
                amap = AffineMap(random_invertible(q, rng), int(rng.integers(0, 1 << q)))
                c, theta = synthesize_params(amap)
                p = np.array(amap.basis_map())
                assert eval_permutation(c, theta).map == amap.basis_map()
                answer = project_hungarian(extract_dsm(c, 0, theta))
                assert np.array_equal(answer[p], np.arange(1 << q))
                involutions += np.array_equal(p[p], np.arange(1 << q))
        assert involutions < 60  # else p and its inverse are not told apart

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            synthesize_params(AffineMap(Gf2Matrix.from_entries([[1, 1], [1, 1]]), 0))


class TestLowering:
    def test_adjacent_unchanged(self):
        c = Circuit(3, (Gate("PCX", (1, 0), 0),), 1)
        assert lower_to_linear_topology(c).gates == c.gates

    def test_p3_gives_8_gates(self):
        c = Circuit(4, (Gate("PCX", (3, 0), 0),), 1)
        low = lower_to_linear_topology(c)
        assert len(low.gates) == 8
        assert all(abs(g.qubits[0] - g.qubits[1]) == 1 for g in low.gates)

    def test_parameter_on_two_target_gates(self):
        c = Circuit(4, (Gate("PCX", (3, 0), 0),), 1)
        low = lower_to_linear_topology(c)
        slotted = [g for g in low.gates if g.slot is not None]
        assert len(slotted) == 2
        assert all(g.qubits == (1, 0) for g in slotted)

    def test_zero_theta_ladder_cancels(self):
        c = Circuit(4, (Gate("PCX", (3, 0), 0),), 1)
        low = lower_to_linear_topology(c)
        assert np.array_equal(eval_unitary(low, [0.0]), np.eye(16))

    def test_borel_q4_permutations_identical(self):
        rng = np.random.default_rng(17)
        c = build_ansatz("Borel", 4)
        low = lower_to_linear_topology(c)
        for _ in range(50):
            theta = rng.choice([0.0, PI], c.param_count)
            assert eval_permutation(c, theta) == eval_permutation(low, theta)

    def test_long_pswap_rejected(self):
        c = Circuit(3, (Gate("PSWAP", (0, 2), 0),), 1)
        with pytest.raises(ValueError):
            lower_to_linear_topology(c)


class TestSerialization:
    def test_roundtrip(self):
        c = build_ansatz("LX", 3)
        back = circuit_from_text(circuit_to_text(c))
        assert back.q == c.q
        assert back.gates == c.gates
        assert back.param_count == c.param_count

    @pytest.mark.parametrize("gates", [(), (Gate("CX", (0, 1), None),)])
    def test_roundtrip_keeps_the_width(self, gates):
        # Qubits that no gate touches, or no gates at all: q from QUBITS.
        c = Circuit(3, gates, 0)
        text = circuit_to_text(c)
        assert text.splitlines()[0] == "QUBITS 3"
        assert circuit_from_text(text) == c

    @pytest.mark.parametrize("text", ["QUBITS 2\nCX 0 2", "QUBITS 0", "QUBITS two",
                                      "CX 0 1\nQUBITS 2", "QUBITS 2\nQUBITS 2"])
    def test_rejects_a_gate_past_the_width_and_a_bad_qubits_line(self, text):
        with pytest.raises(ValueError):
            circuit_from_text(text)

    def test_fixed_cx_line(self):
        c = circuit_from_text("CX 0 1\nRX 1 0")
        assert c.gates[0] == Gate("CX", (0, 1), None)
        assert c.param_count == 1

    def test_bad_line(self):
        with pytest.raises(ValueError):
            circuit_from_text("HADAMARD 0")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("RX a 0", "bad gate line: 'RX a 0'"),
            ("QUBITS 2\nPCX 0 1 x", "bad gate line: 'PCX 0 1 x'"),
            ("CX 0 1 2", "bad gate line: 'CX 0 1 2'"),
            ("QUBITS x", "bad qubit count: 'QUBITS x'"),
            ("QUBITS 0", "bad qubit count: 'QUBITS 0'"),
        ],
    )
    def test_a_malformed_line_is_named(self, text, message):
        with pytest.raises(ValueError) as exc:
            circuit_from_text(text)
        assert str(exc.value) == message


class TestGateAndCircuitChecks:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Gate("H", (0,), 0), "unknown gate kind 'H'"),
            (lambda: Gate("RX", (0, 1), 0), "RX takes 1 qubit(s)"),
            (lambda: Gate("PCX", (0,), 0), "PCX takes 2 qubit(s)"),
            (lambda: Gate("PSWAP", (1, 1), 0), "two-qubit gate needs distinct qubits"),
            (lambda: Gate("CX", (0, 1), 0), "CX is fixed; other kinds need a slot"),
            (lambda: Gate("RX", (0,), None), "CX is fixed; other kinds need a slot"),
            (lambda: Circuit(2, (Gate("RX", (2,), 0),), 1), "qubit index out of range"),
            (
                lambda: Circuit(2, (Gate("RX", (0,), 1),), 1),
                "parameter slot out of range",
            ),
        ],
        ids=[
            "kind", "rx_arity", "pcx_arity", "same_qubits", "cx_slot", "rx_no_slot",
            "qubit_range", "slot_range",
        ],
    )
    def test_message(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


class TestSolverAnsatz:
    def test_bruhat_is_lx(self):
        assert solver_ansatz("bruhat", 3).gates == build_ansatz("LX", 3).gates

    def test_borel_has_x_layer(self):
        c = solver_ansatz("borel", 3)
        assert [g.kind for g in c.gates] == ["RX"] * 3 + ["PCX"] * 3
        assert c.param_count == 6

    def test_unknown(self):
        with pytest.raises(ValueError):
            solver_ansatz("magic", 3)
