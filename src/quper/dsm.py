"""Doubly-stochastic matrices from ancilla-assisted circuit simulation.

A circuit on m + q qubits (ancillas = the m most-significant qubits) induces
the doubly-stochastic matrix

    p_ij = 2^(-m) sum_{a,b} |U[(b,i),(a,j)]|^2,

the exact outcome distribution of feeding the circuit half of 2^(m+q)
maximally entangled pairs and measuring the 2q non-ancilla qubits.  Both the
closed-form block sum and a literal doubled-register statevector oracle are
provided; they must agree to 1e-10.  The oracle walks the gates with its own
serial gate helpers, independent of the kernel in quper.circuits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    _check_theta,
    check_qubit_guard,
    eval_permutations,
    forward,
    reverse_sweep,
    tape_gradient,
)
from .gf2 import Permutation

ROW_SUM_TOL = 1e-9
ENTRY_TOL = 1e-12
BIRKHOFF_TOL = 1e-8


class NotDoublyStochasticError(ValueError):
    pass


class BirkhoffDecomposition(NamedTuple):
    terms: tuple[tuple[float, Permutation], ...]
    residual: float


def _check_ancillas(circuit: Circuit, m: int) -> None:
    if not 0 <= m < circuit.q:
        raise ValueError("need 0 <= m < circuit.q")


def unitary_and_dsm(
    circuit: Circuit, m: int, theta
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(U, tape) = circuits.forward(circuit, theta) on m + q qubits, the m
    ancillas being the most-significant ones, and U's (n, n) DSM, the
    closed-form block sum over the ancilla indices of |U|^2: (U, DSM, tape).
    At m = 0 the DSM is |U|^2 itself."""
    _check_ancillas(circuit, m)
    u, tape = forward(circuit, theta)
    if m == 0:
        return u, np.abs(u) ** 2, tape
    k = 1 << m
    n = u.shape[-1] >> m
    return u, (np.abs(u.reshape(k, n, k, n)) ** 2).sum(axis=(0, 2)) / k, tape


def extract_dsm(circuit: Circuit, m: int, theta) -> np.ndarray:
    """The DSM of unitary_and_dsm(circuit, m, theta)."""
    return unitary_and_dsm(circuit, m, theta)[1]


def binary_dsms(circuit: Circuit, m: int, on) -> np.ndarray:
    """extract_dsm at each binary setting of on (S, L), bool and True where
    a slot is at pi, as an (S, n, n) stack, from the basis maps p of
    eval_permutations: U is then a permutation matrix up to phases, so
    d_ij = 2^(-m) #{a : the system part of p((a, j)) is i}, exactly, counted
    by one bincount over (setting, i, j).  Guarded as forward is."""
    _check_ancillas(circuit, m)
    check_qubit_guard(circuit.q)
    n, k = 1 << (circuit.q - m), 1 << m
    system = (eval_permutations(circuit, on) & (n - 1)).astype(np.intp)
    s = len(system)
    cell = (np.arange(s)[:, None] * n + system) * n + np.tile(np.arange(n), k)
    return np.bincount(cell.ravel(), minlength=s * n * n).reshape(s, n, n) / k


def adjoint_gradient(
    circuit: Circuit,
    m: int,
    theta,
    u: np.ndarray,
    tape: np.ndarray | None,
    g: np.ndarray,
) -> np.ndarray:
    """Exact gradient over theta of a loss of the DSM d of the circuit at
    theta, given its unitary u and tape (as unitary_and_dsm returns them)
    and g = dloss/dd (n, n).

    d_ij sums |U_rc|^2 / 2^m over the rows r and columns c whose system part
    is (i, j), so dloss/d|U|^2 is g tiled 2^m x 2^m and divided by 2^m: g
    itself at m = 0.
    circuits.tape_gradient contracts it with the tape; where forward
    recorded none (above circuits.TAPE_MAX_QUBITS qubits), the tape is None
    and circuits.reverse_sweep walks the gates back.
    """
    _check_ancillas(circuit, m)
    k = 1 << m
    lam = g if m == 0 else np.tile(g / k, (k, k))
    if tape is None:
        return reverse_sweep(circuit, theta, u, lam)[0]
    return tape_gradient(circuit, u, lam, tape)


def _rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1.0j * s], [-1.0j * s, c]])


def _phase_matrix(theta: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, complex(math.cos(theta), math.sin(theta))]])


def _apply_1q(psi: np.ndarray, m: np.ndarray, t: int) -> np.ndarray:
    psi = np.tensordot(m, psi, axes=([1], [t]))
    return np.moveaxis(psi, 0, t)


def _apply_controlled_1q(
    psi: np.ndarray, m: np.ndarray, c: int, t: int
) -> np.ndarray:
    idx = [slice(None)] * psi.ndim
    idx[c] = 1
    sub = psi[tuple(idx)]
    t_sub = t if t < c else t - 1
    sub = np.moveaxis(np.tensordot(m, sub, axes=([1], [t_sub])), 0, t_sub)
    psi = psi.copy()
    psi[tuple(idx)] = sub
    return psi


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _apply_gate(psi: np.ndarray, g: Gate, theta: float | None) -> np.ndarray:
    """One gate on the tensor psi, one qubit per axis: the serial reference."""
    if g.kind == "RX":
        return _apply_1q(psi, _rx_matrix(theta), g.qubits[0])
    if g.kind == "CX":
        c, t = g.qubits
        return _apply_controlled_1q(psi, _X, c, t)
    if g.kind == "PCX":
        c, t = g.qubits
        psi = _apply_1q(psi, _phase_matrix(theta / 2), c)
        return _apply_controlled_1q(psi, _rx_matrix(theta), c, t)
    # PSWAP(a, b; phi) = CX(b -> a), PCX(a -> b; phi), CX(b -> a)
    a, b = g.qubits
    psi = _apply_controlled_1q(psi, _X, b, a)
    psi = _apply_1q(psi, _phase_matrix(theta / 2), a)
    psi = _apply_controlled_1q(psi, _rx_matrix(theta), a, b)
    return _apply_controlled_1q(psi, _X, b, a)


def statevector_oracle(circuit: Circuit, m: int, theta) -> np.ndarray:
    """Literal doubled-register simulation; the ground truth for extract_dsm.

    Register 1 (qubits 0..m+q-1) and register 2 (qubits m+q..2(m+q)-1) are
    prepared in maximally entangled pairs (qubit t with qubit m+q+t), the
    circuit acts on register 1, and the exact joint distribution of the 2q
    non-ancilla qubits is scaled by n.
    """
    _check_ancillas(circuit, m)
    w = circuit.q
    check_qubit_guard(2 * w)
    theta = _check_theta(circuit, theta)
    n = 1 << (w - m)
    psi = np.zeros((2,) * (2 * w), dtype=complex)
    psi[(0,) * (2 * w)] = 1.0
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for t in range(w):
        psi = _apply_1q(psi, h, t)
        psi = _apply_controlled_1q(psi, _X, t, w + t)
    for g in circuit.gates:
        psi = _apply_gate(psi, g, None if g.slot is None else theta[g.slot])
    probs = np.abs(psi) ** 2
    # Axes: [reg1 ancillas (m), reg1 system (q), reg2 ancillas (m), reg2
    # system (q)]; measure the 2q system qubits, marginalizing the rest.
    k = 1 << m
    probs = probs.reshape(k, n, k, n).sum(axis=(0, 2))
    return probs * n


def _check_doubly_stochastic(d) -> np.ndarray:
    """d as a float array, if it is square with entries in [0, 1] and unit
    row and column sums (within ENTRY_TOL and ROW_SUM_TOL)."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise NotDoublyStochasticError("DSM must be square")
    if np.min(d) < -ENTRY_TOL or np.max(d) > 1 + ENTRY_TOL:
        raise NotDoublyStochasticError("entries outside [0, 1]")
    sums = np.concatenate([d.sum(axis=0) - 1, d.sum(axis=1) - 1])
    if np.max(np.abs(sums)) > ROW_SUM_TOL:
        raise NotDoublyStochasticError("row/column sums deviate from 1")
    return d


def birkhoff_decompose(d: np.ndarray) -> BirkhoffDecomposition:
    """Greedy Birkhoff-von-Neumann peeling via maximum-weight assignment.

    Each step subtracts lambda = min entry of the heaviest permutation
    support; choosing the assignment maximizing the total weight is the
    deterministic tie-break.
    """
    from scipy.optimize import linear_sum_assignment  # slow to import
    d = _check_doubly_stochastic(d)
    n = len(d)
    rem = d.clip(min=0.0)
    terms: dict[tuple[int, ...], float] = {}
    while rem.sum() > BIRKHOFF_TOL * n:
        rows, cols = linear_sum_assignment(rem, maximize=True)
        support = rem[rows, cols]
        lam = float(support.min())
        if lam <= BIRKHOFF_TOL:
            raise NotDoublyStochasticError(
                "no permutation support above BIRKHOFF_TOL; input is not "
                "doubly stochastic within tolerance"
            )
        pmap = tuple(int(c) for c in cols[np.argsort(rows)])
        terms[pmap] = terms.get(pmap, 0.0) + lam
        rem[rows, cols] -= lam
    recon = np.zeros_like(d)
    out = []
    for pmap, lam in terms.items():
        p = Permutation(pmap)
        out.append((lam, p))
        recon[np.arange(n), pmap] += lam
    residual = float(np.max(np.abs(d - recon)))
    return BirkhoffDecomposition(tuple(out), residual)
