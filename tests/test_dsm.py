"""DSM extraction, the doubled-register oracle, Birkhoff peeling."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quper.circuits import (
    ANSATZ_KINDS,
    SOLVER_ANSATZE,
    QubitBudgetError,
    build_ansatz,
    eval_permutations,
    lower_to_linear_topology,
    reverse_sweep,
    solver_ansatz,
    tape_gradient,
)
from quper.dsm import (
    NotDoublyStochasticError,
    adjoint_gradient,
    binary_dsms,
    birkhoff_decompose,
    extract_dsm,
    statevector_oracle,
    unitary_and_dsm,
)
from quper.gf2 import Permutation, recognize_affine
from quper.circuits import eval_permutation

PI = math.pi


def perm_column_matrix(p):
    m = np.zeros((p.n, p.n))
    for j in range(p.n):
        m[p(j), j] = 1.0
    return m


def random_dsm(n, rng, terms=6):
    e = np.zeros((n, n))
    lams = rng.dirichlet(np.ones(terms))
    for lam in lams:
        e[np.arange(n), rng.permutation(n)] += lam
    return e


class TestExtractDsm:
    def test_identity_circuit(self):
        c = build_ansatz("XLayer", 2)
        d = extract_dsm(c, 0, np.zeros(2))
        assert np.array_equal(d, np.eye(4))

    def test_m0_binary_matches_eval_permutation(self):
        rng = np.random.default_rng(0)
        c = build_ansatz("LX", 3)
        for _ in range(20):
            theta = rng.choice([0.0, PI], c.param_count)
            d = extract_dsm(c, 0, theta)
            p = eval_permutation(c, theta)
            assert np.array_equal(d, perm_column_matrix(p))

    def test_m0_any_theta_is_mod_squared_unitary(self):
        from quper.circuits import eval_unitary

        rng = np.random.default_rng(1)
        c = build_ansatz("LX", 2)
        theta = rng.uniform(0, 2 * PI, c.param_count)
        d = extract_dsm(c, 0, theta)
        assert np.allclose(
            d, np.abs(eval_unitary(c, theta)) ** 2, atol=1e-15
        )

    def test_double_stochasticity_m1(self):
        rng = np.random.default_rng(2)
        c = build_ansatz("Bruhat", 3)
        for _ in range(100):
            d = extract_dsm(c, 1, rng.uniform(0, 2 * PI, c.param_count))
            sums = np.concatenate([d.sum(axis=0) - 1, d.sum(axis=1) - 1])
            assert np.max(np.abs(sums)) <= 1e-10

    def test_oracle_agreement_50_jobs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(0, 2))
            c = build_ansatz("Bruhat", 2 + m)
            theta = rng.uniform(0, 2 * PI, c.param_count)
            delta = np.abs(
                extract_dsm(c, m, theta) - statevector_oracle(c, m, theta)
            )
            assert np.max(delta) <= 1e-10

    def test_oracle_reads_theta_as_the_kernel_does(self):
        # A scalar and an (L, 1) theta are each the kernel's ValueError.
        c = build_ansatz("XLayer", 2)
        for theta, shape in ((0.5, "()"), (np.zeros((2, 1)), "(2, 1)")):
            want = f"expected 2 parameters, got shape {shape}"
            for run in (extract_dsm, statevector_oracle):
                with pytest.raises(ValueError, match=re.escape(want)):
                    run(c, 0, theta)

    def test_bad_ancilla_count(self):
        with pytest.raises(ValueError):
            extract_dsm(build_ansatz("LX", 2), 2, np.zeros(5))
        with pytest.raises(ValueError):
            statevector_oracle(build_ansatz("LX", 2), 2, np.zeros(5))
        with pytest.raises(ValueError):
            adjoint_gradient(
                build_ansatz("LX", 2), 2, np.zeros(5), np.eye(4), None, np.zeros((1, 1))
            )

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(SOLVER_ANSATZE),
        q=st.integers(1, 3),
        m=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unit_sums_solver_ansatze(self, name, q, m, seed):
        c = solver_ansatz(name, max(2, q + m))
        m = min(m, c.q - 1)
        theta = np.random.default_rng(seed).uniform(0, 2 * PI, c.param_count)
        d = extract_dsm(c, m, theta)
        assert d.shape == (1 << (c.q - m),) * 2
        assert np.max(np.abs(d.sum(axis=0) - 1)) <= 1e-12
        assert np.max(np.abs(d.sum(axis=1) - 1)) <= 1e-12


class TestNoAncillas:
    """At m = 0 the block sum and the division by 2^m are identities, and
    the DSM and dloss/d|U|^2 are taken without them, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(ANSATZ_KINDS + SOLVER_ANSATZE),
        q=st.integers(2, 4),
        binary=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dsm_and_gradient_equal_the_block_formulas(self, name, q, binary, seed):
        c = solver_ansatz(name, q) if name in SOLVER_ANSATZE else build_ansatz(name, q)
        rng = np.random.default_rng(seed)
        if binary:
            theta = rng.choice([0.0, PI], c.param_count)
        else:
            theta = rng.uniform(-2 * PI, 2 * PI, c.param_count)
        u, d, tape = unitary_and_dsm(c, 0, theta)
        n = 1 << q
        assert np.array_equal(d, np.abs(u) ** 2)
        assert np.array_equal(d, (np.abs(u.reshape(1, n, 1, n)) ** 2).sum(axis=(0, 2)) / 1)
        g = rng.normal(size=(n, n))
        lam = np.tile(g / 1, (1, 1))
        got = adjoint_gradient(c, 0, theta, u, tape, g)
        assert np.array_equal(got, tape_gradient(c, u, lam, tape))
        assert np.array_equal(
            adjoint_gradient(c, 0, theta, u, None, g), reverse_sweep(c, theta, u, lam)[0]
        )


class TestBinaryDsms:
    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(ANSATZ_KINDS + SOLVER_ANSATZE + ("linear",)),
        width=st.integers(2, 5),
        m=st.integers(0, 2),
        rows=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_extract_dsm(self, name, width, m, rows, seed):
        if name == "linear":
            c = lower_to_linear_topology(build_ansatz("LX", width))
        elif name in SOLVER_ANSATZE:
            c = solver_ansatz(name, width)
        else:
            c = build_ansatz(name, width)
        m = min(m, width - 1)
        thetas = np.random.default_rng(seed).choice([0.0, PI], (rows, c.param_count))
        stack = binary_dsms(c, m, thetas == PI)
        n = 1 << (width - m)
        assert stack.shape == (rows, n, n)
        for theta, d in zip(thetas, stack):
            assert np.array_equal(d, extract_dsm(c, m, theta))

    @pytest.mark.parametrize("width, m", [(8, 0), (9, 1)])
    def test_equals_extract_dsm_at_the_dtype_boundary(self, width, m):
        # n = 256 system states: the uint8 maps of q = 8 and the uint16 of 9.
        c = build_ansatz("LX", width)
        thetas = np.random.default_rng(width).choice([0.0, PI], (2, c.param_count))
        for theta, d in zip(thetas, binary_dsms(c, m, thetas == PI)):
            assert np.array_equal(d, extract_dsm(c, m, theta))

    def test_rejects_non_binary_bad_shape_or_ancillas(self):
        c = build_ansatz("LX", 3)
        # Bits only: angles, even binary ones, and ints are rejected.
        for fill in (0.5, PI, 1):
            with pytest.raises(ValueError, match="bool bits, got"):
                binary_dsms(c, 1, np.full((2, 12), fill))
        with pytest.raises(ValueError, match="expected"):
            binary_dsms(c, 1, np.zeros(12, bool))
        with pytest.raises(ValueError, match="expected"):
            binary_dsms(c, 1, np.zeros((2, 11), bool))
        with pytest.raises(ValueError):
            binary_dsms(c, 3, np.zeros((2, 12), bool))

    def test_qubit_guard(self, monkeypatch):
        # The DSM path keeps eval_unitary's guard; the basis maps have none.
        c = build_ansatz("LX", 4)
        on = np.zeros((2, c.param_count), bool)
        monkeypatch.setenv("QUPER_MAX_QUBITS", "3")
        with pytest.raises(QubitBudgetError):
            binary_dsms(c, 1, on)
        assert eval_permutations(c, on).shape == (2, 16)
        monkeypatch.setenv("QUPER_MAX_QUBITS", "4")
        assert binary_dsms(c, 1, on).shape == (2, 8, 8)


class TestBirkhoff:
    def test_permutation_matrix_single_term(self):
        p = Permutation((2, 0, 1, 3))
        bd = birkhoff_decompose(np.eye(4)[list(p.map)])
        assert len(bd.terms) == 1
        lam, term = bd.terms[0]
        assert lam == pytest.approx(1.0)
        assert term == p
        assert bd.residual <= 1e-12

    def test_half_half(self):
        d = np.array([[0.5, 0.5], [0.5, 0.5]])
        bd = birkhoff_decompose(d)
        assert sorted(lam for lam, _ in bd.terms) == [
            pytest.approx(0.5),
            pytest.approx(0.5),
        ]
        assert {t.map for _, t in bd.terms} == {(0, 1), (1, 0)}

    def test_random_dsm_reconstructs(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = random_dsm(6, rng)
            bd = birkhoff_decompose(d)
            assert bd.residual <= 1e-8
            assert sum(lam for lam, _ in bd.terms) <= 1 + 1e-9
            maps = [t.map for _, t in bd.terms]
            assert len(maps) == len(set(maps))

    def test_non_dsm_rejected(self):
        with pytest.raises(NotDoublyStochasticError):
            birkhoff_decompose(np.full((3, 3), 0.5))

    def test_extracted_terms_are_affine(self):
        rng = np.random.default_rng(5)
        c = build_ansatz("Bruhat", 4)
        for _ in range(30):
            theta = rng.choice([0.0, PI], c.param_count)
            d = extract_dsm(c, 1, theta)
            bd = birkhoff_decompose(d)
            for _, p in bd.terms:
                assert recognize_affine(p) is not None


class TestDsmType:
    """A DSM is a square float array with entries in [0, 1] and unit row and
    column sums; birkhoff_decompose checks all three."""

    def test_validate_rejects_negative(self):
        # Unit row and column sums: only the entry range is wrong.
        with pytest.raises(NotDoublyStochasticError, match=r"\[0, 1\]"):
            birkhoff_decompose(np.array([[1.5, -0.5], [-0.5, 1.5]]))

    def test_non_square_rejected(self):
        with pytest.raises(NotDoublyStochasticError, match="square"):
            birkhoff_decompose(np.zeros((2, 3)))

    def test_bad_sums_rejected(self):
        # Entries in [0, 1], but the first row sums to 1 - 1e-6.
        d = np.eye(3)
        d[0, 0] -= 1e-6
        with pytest.raises(NotDoublyStochasticError, match="sums"):
            birkhoff_decompose(d)

    def test_sums_within_tolerance_accepted(self):
        d = np.eye(3)
        d[0, 0] -= 1e-10
        assert birkhoff_decompose(d).terms[0][1] == Permutation.identity(3)
