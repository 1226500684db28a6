"""Parametrized permutation ansatze: construction, evaluation, synthesis.

Gate set: RX(theta) = exp(-i theta X / 2); PHASE(theta) = diag(1, e^{i theta})
(internal to PCX); CX; PCX(c -> t; theta) = [PHASE(theta/2) on c] then
[controlled-RX(theta) from c to t], which equals CX exactly at theta = pi
and the identity at theta = 0; PSWAP(a, b; phi) = CX(b -> a), PCX(a -> b; phi),
CX(b -> a).

The circuit unitary is the product of gate matrices applied in list order
(first gate acts first on the state).  Basis index convention: qubit 0 is the
most-significant bit of the computational-basis index.

RX(pi) = -iX up to the PCX phase correction; the global phase never reaches
permutations or DSMs.  The RX layer of the LX ansatz is placed first in gate
order; since the X-gate subgroup is normal in the affine group, the spanned
permutation set is the same as with the layer last.

Each step is a 2x2 block, CX's being X, on one strided view; both walks
over the gates read the views of one step table that each circuit keeps
(Circuit._workspace).  The gradient of a loss of |U|^2 has two paths on the
same steps.  Up to TAPE_MAX_QUBITS qubits each parametrized step's product
lands in a tape pair, the two row sets it has just mixed, and forward
returns U with the tape, their difference; tape_gradient contracts the
tape it is handed with one product.  Above, the tape is None and
reverse_sweep walks the gates back.  The sweep is also the tape's reference.
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .gf2 import (
    AffineMap,
    Permutation,
    basis_maps,
    borel_word,
    bruhat_decompose,
    longest_element_word,
    weyl_subword_mask,
)

DEFAULT_MAX_QUBITS = 14
MAX_QUBITS_ENV = "QUPER_MAX_QUBITS"

ANSATZ_KINDS = ("XLayer", "Borel", "Weyl", "Bruhat", "LX", "SEL")


class QubitBudgetError(RuntimeError):
    """Dense evaluation would exceed the configured qubit guard."""


def max_dense_qubits() -> int:
    """The qubit guard: QUPER_MAX_QUBITS if set, else DEFAULT_MAX_QUBITS."""
    env = os.environ.get(MAX_QUBITS_ENV)
    if not env:
        return DEFAULT_MAX_QUBITS
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{MAX_QUBITS_ENV} must be a positive integer, got {env!r}")
    return limit


class Gate(namedtuple("Gate", "kind qubits slot")):
    """One gate; qubits = (target,) or (control, target); slot None = fixed."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.kind not in ("RX", "PCX", "PSWAP", "CX"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 1 if self.kind == "RX" else 2
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s)")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError("two-qubit gate needs distinct qubits")
        if (self.slot is None) != (self.kind == "CX"):
            raise ValueError("CX is fixed; other kinds need a slot")


class Circuit(namedtuple("Circuit", "q gates param_count kind", defaults=("Custom",))):
    """q qubits, the gates in order, the slot count and the ansatz kind.  No
    __slots__: the instance dict holds the cached _workspace."""

    def __init__(self, *args, **kwargs):
        for g in self.gates:
            if any(t < 0 or t >= self.q for t in g.qubits):
                raise ValueError("qubit index out of range")
            if g.slot is not None and not 0 <= g.slot < self.param_count:
                raise ValueError("parameter slot out of range")

    def __reduce__(self):
        """Pickle and copy the fields only: a workspace's views would come
        back as arrays apart from its planes, which forward would then leave
        at the identity."""
        return type(self), (self.q, self.gates, self.param_count, self.kind)

    @functools.cached_property
    def _workspace(self) -> tuple:
        """The circuit's one step table, walked forward by forward and back
        by reverse_sweep: two (2^q, 2^q) planes; the (2, R, 2^q) tape pair,
        None above TAPE_MAX_QUBITS; per gate (its slot, its step view over
        both planes, that view's first plane, the two-plane view's halves on
        the target axis, and its record or None: a view shaped as the first
        plane's, whose target axis at 0 and at 1 is the step's block of rows
        in the first and in the second tape of the pair); then each gate's
        row in _blocks's [RX blocks; PCX blocks; X] and the slot of each tape
        row, both read-only.  Built on first use and kept with the circuit,
        which is immutable: each walk writes every entry before reading it
        and returns new arrays."""
        ell, q, dim = self.param_count, self.q, 1 << self.q
        # Each RX mixes 2^(q-1) row pairs, each PCX and PSWAP 2^(q-2).
        counts = [0 if g.slot is None else dim >> len(g.qubits) for g in self.gates]
        row_slots = [g.slot for g, n in zip(self.gates, counts) for _ in range(n)]
        planes = np.empty((2, dim, dim), dtype=complex)
        tape = None
        if q <= TAPE_MAX_QUBITS:
            tape = np.empty((2, len(row_slots), dim), dtype=complex)
        steps, at = [], 0
        for g, count in zip(self.gates, counts):
            shape, offset, strides = _geometry(q, g.qubits, g.kind == "PSWAP")
            both = np.ndarray(shape, complex, planes, offset, strides)
            one = both[:1]
            record = None
            if count and tape is not None:
                rows = tape[:, at : at + count].reshape((2,) + one[..., 0, :].shape)
                record = np.moveaxis(rows, 0, -2)
            at += count
            steps.append((g.slot, both, one,
                          (both[..., 0, :], both[..., 1, :]), record))
        gather = [g.slot + ell * (g.kind != "RX") if g.slot is not None else 2 * ell
                  for g in self.gates]
        return (planes, tape, steps, _read_only(gather, np.intp),
                _read_only(row_slots, np.intp))


class CircuitStats(NamedTuple):
    param_count: int
    depth: int
    two_qubit_gate_count: int


# Each ansatz as its chain of blocks in gate order (_chain): x the RX
# layer, b the Borel block, w the Weyl block.  The solver's "borel" is the
# chain "xb"; SEL, whose layer count depends on q, is "xr" repeated
# (build_ansatz).
_CHAINS = {"XLayer": "x", "Borel": "b", "Weyl": "w", "Bruhat": "bwb", "LX": "xbwb"}


def _chain(blocks: str, q: int) -> tuple[Gate, ...]:
    """The gates of blocks, each taking the next slot.  x is an RX on each
    qubit; b is gf2.borel_word read right to left, T_(jk) being the PCX
    controlled by qubit k acting on qubit j; w is the longest-element word
    read right to left, sigma_i being the PSWAP on qubits (i-1, i); r is the
    ring of PCX(t -> t+1 mod q) for t = 0..q-1."""
    words = {
        "x": [("RX", (t,)) for t in range(q)],
        "b": [("PCX", (t.k, t.j)) for t in borel_word(q)[::-1]],
        "w": [("PSWAP", (i - 1, i)) for i in longest_element_word(q)[::-1]],
        "r": [("PCX", (t, (t + 1) % q)) for t in range(q)],
    }
    ops = [op for block in blocks for op in words[block]]
    return tuple(Gate(kind, qubits, slot) for slot, (kind, qubits) in enumerate(ops))


def build_ansatz(kind: str, q: int) -> Circuit:
    if kind not in ANSATZ_KINDS:
        raise ValueError(f"unknown ansatz kind {kind!r}")
    if q < 1 or (kind in ("Borel", "Weyl", "Bruhat") and q < 2):
        raise ValueError(f"q={q} too small for {kind}")
    if kind != "SEL":
        blocks = _CHAINS[kind]
    elif q < 2:
        raise ValueError("SEL needs q >= 2")
    else:
        # Match the LX parameter count as closely as a whole number of "xr"
        # layers (2q slots each) allows.
        blocks = "xr" * max(1, round(len(_chain(_CHAINS["LX"], q)) / (2 * q)))
    gates = _chain(blocks, q)
    return Circuit(q, gates, len(gates), kind)


SOLVER_ANSATZE = ("bruhat", "borel", "sel")


@functools.cache
def solver_ansatz(name: str, q: int) -> Circuit:
    """Ansatz used by the solver: an upstream RX layer plus the named block.

    "bruhat" is the full LX circuit; "borel" is the RX layer followed by the
    Borel block only; "sel" is the hardware-style layered baseline.  Built
    once per (name, q) and process: every caller gets the same Circuit, and
    with it the circuit's workspace (Circuit._workspace).
    """
    if name == "bruhat":
        return build_ansatz("LX", q)
    if name == "borel":
        gates = _chain("xb", q)
        return Circuit(q, gates, len(gates), "Custom")
    if name == "sel":
        return build_ansatz("SEL", q)
    raise ValueError(f"unknown solver ansatz {name!r}")


def circuit_stats(c: Circuit) -> CircuitStats:
    """Greedy ASAP depth on qubit availability; PSWAP counts 3, others 1."""
    avail = [0] * c.q
    two_q = 0
    for g in c.gates:
        dur = 3 if g.kind == "PSWAP" else 1
        if len(g.qubits) == 2:
            two_q += dur  # PSWAP expands to three two-qubit gates
        start = max(avail[t] for t in g.qubits)
        for t in g.qubits:
            avail[t] = start + dur
    return CircuitStats(c.param_count, max(avail, default=0), two_q)


def _check_theta(c: Circuit, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (c.param_count,):
        raise ValueError(
            f"expected {c.param_count} parameters, got shape {theta.shape}"
        )
    return theta


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# Up to this many qubits forward records a tape and the gradient is
# contracted from it (tape_gradient); above, reverse_sweep walks the gates
# back.  Set from the per-size timing table in README.md: forward pass plus
# gradient take 0.43-0.47 of the sweep path's time at q = 3..5 and 0.75 at
# q = 6, and lose from q = 7 on, where the product costs O(R 4^q) and the
# tape pair holds 2 R 2^q complex numbers; from q = 7 on the sweep's bits
# are kept.
# A circuit's workspace reads it when it is built.
TAPE_MAX_QUBITS = 6


def _read_only(values, dtype) -> np.ndarray:
    """values as a new array that refuses writes: a cached array is handed
    to every caller."""
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def _blocks(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The rows of [RX blocks; PCX blocks; X] at theta, as a (len(rows), 2, 2)
    stack.

    Each step is a 2x2 block on the target axis of its _geometry view.  RX
    is its block RX(theta) on the target; PCX is PHASE(theta/2) . RX(theta)
    on the target inside the control-1 slice, and CX, of slot None, is PCX
    at block X, whose product moves each value exactly.  PSWAP(a, b) =
    CX(b -> a) . PCX(a -> b) . CX(b -> a) is PCX's block on the pair of rows
    where (a, b) is (1, 0) and (0, 1).
    cos and sin of theta/2 are exact at theta in {0, pi}, so PCX(pi) is CX
    and PSWAP(pi) is SWAP exactly.
    """
    ell, half = len(theta), theta / 2
    cos, sin = np.cos(half), np.sin(half)
    zero, pi = theta == 0.0, theta == math.pi
    cos[zero], sin[zero] = 1.0, 0.0
    cos[pi], sin[pi] = 0.0, 1.0
    stack = np.empty((2 * ell + 1, 2, 2), dtype=complex)
    rx = stack[:ell]
    rx[..., 0, 0] = rx[..., 1, 1] = cos
    rx[..., 0, 1] = rx[..., 1, 0] = -1.0j * sin
    np.multiply((cos + 1.0j * sin)[..., None, None], rx, out=stack[ell:-1])
    stack[-1] = _X
    return stack[rows]


def _geometry(q: int, qubits: tuple[int, ...], pair: bool) -> tuple:
    """(shape, byte offset, byte strides) of the rows a step on qubits acts
    on, in two stacked C-contiguous complex 2^q x 2^q planes, with the target
    axis second to last: all rows for one qubit (t,), the control-1 slice of
    c for (c, t), and for pair the rows where (c, t) is (1, 0), then those
    where it is (0, 1)."""
    row = 16 << q
    bit = [row << (q - 1 - i) for i in range(q)]  # byte stride of qubit i
    *c, t = qubits
    lo, hi = min(qubits), max(qubits)
    offset = bit[c[0]] if c else 0
    step = bit[t] - offset if pair else bit[t]
    # Axes: plane, qubits above lo, qubits between lo and hi, target, rest.
    shape = (2, 1 << lo, 1 << max(hi - lo - 1, 0), 2, bit[hi] // 16)
    return shape, offset, (row << q, 2 * bit[lo], 2 * bit[hi], step, 16)


def check_qubit_guard(q: int) -> None:
    """Raise QubitBudgetError if q qubits exceed max_dense_qubits()."""
    limit = max_dense_qubits()
    if q > limit:
        raise QubitBudgetError(
            f"dense evaluation of {q} qubits exceeds the guard ({limit})"
        )


def forward(c: Circuit, theta) -> tuple[np.ndarray, np.ndarray | None]:
    """The dense 2^q x 2^q unitary U of the circuit at parameters theta (L,),
    applied step by step to the identity in place, and its tape: at q <=
    TAPE_MAX_QUBITS, after each parametrized step, the difference of the two
    row sets it has just mixed, sub[..., 0, :] - sub[..., 1, :], as that
    step's block of rows of one (R, 2^q) array (R = 30, 104 and 320 for LX
    at q = 3, 4 and 5); above, None.  tape_gradient contracts it.

    Both are built in the circuit's workspace (Circuit._workspace), U in its
    first plane.  A parametrized step at q <= TAPE_MAX_QUBITS writes its
    product into its record, the step's rows of the tape pair, and copies
    that into the plane; the tape is the pair's difference, one subtraction
    after the walk.  U is returned as a copy and the tape is a new array,
    so no caller holds an alias of the workspace; two calls of forward or
    reverse_sweep on one circuit must not run at once.
    """
    check_qubit_guard(c.q)
    theta = _check_theta(c, theta)
    planes, tape, steps, rows, _ = c._workspace
    psi = planes[0]
    psi[...] = 0
    psi.ravel()[:: len(psi) + 1] = 1
    for (_, _, sub, _, record), block in zip(steps, _blocks(rows, theta)):
        if record is None:
            sub[...] = block @ sub
        else:
            np.matmul(block, sub, out=record)
            sub[...] = record
    return psi.copy(), None if tape is None else np.subtract(*tape)


def eval_unitary(c: Circuit, theta) -> np.ndarray:
    """Dense 2^q x 2^q unitary of the circuit at the given parameters."""
    return forward(c, theta)[0]


def tape_gradient(
    c: Circuit, u: np.ndarray, lam: np.ndarray, tape: np.ndarray
) -> np.ndarray:
    """reverse_sweep's gradient, contracted from the tape that forward
    returned with u (q <= TAPE_MAX_QUBITS), with no second walk over the
    gates.

    The sweep's B_s is P_s B0, with P_s the unitary after step s and B0 =
    U^H (lam * U), and step s's tape rows are T_s = P_s[r0] - P_s[r1], so
    the slot's -Im<B_r0 - B_r1, U_r0 - U_r1> is -Im<T_s B0, T_s>.  Four
    pieces give every slot: the product B0, the product E = tape B0, the
    row reduction -Im sum(conj(E) * tape) and a sum of each slot's rows.
    """
    dim, row_slots = 1 << c.q, c._workspace[4]
    if u.shape != (dim, dim) or lam.shape != (dim, dim):
        raise ValueError(f"U and lam must be {dim} x {dim}")
    if np.shape(tape) != (len(row_slots), dim):
        raise ValueError(
            f"the circuit's tape is {len(row_slots)} x {dim}, got {np.shape(tape)}"
        )
    e = tape @ (u.conj().T @ (lam * u))
    # Im(E conj(T)) row by row, from real views: no complex temporary.
    rows = np.einsum("ij,ij->i", e.imag, tape.real)
    rows -= np.einsum("ij,ij->i", e.real, tape.imag)
    return np.bincount(row_slots, rows, c.param_count).astype(float, copy=False)


def reverse_sweep(
    c: Circuit, theta, u: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient over c's slots of a real loss of U = eval_unitary(c,
    theta) whose derivative in |U_rc|^2 is the real lam_rc (the adjoint
    method, Jones & Gacon, arXiv:2009.02823), by a second walk over the
    gates: the gradient's only path above TAPE_MAX_QUBITS qubits, and the
    reference tape_gradient is checked against.

    Walks [U, lam * U] in the workspace's two planes back through the
    gates' steps (_blocks).  Before undoing a step they hold [U_s, B_s]: U_s
    is the unitary after that step and B_s the later steps' inverse applied
    to lam * U, so the loss moves by 2 Re<B_s, H_s U_s> per unit of the
    angle, H_s being the step's generator on the target axis of its view:
    -(i/2) X for RX, (i/2)(I - X) for PCX and PSWAP.  With F the step at
    block X, H_s U_s is -(i/2) F U_s or (i/2)(U_s - F U_s), and <B_s, U_s> =
    sum(lam |U|^2) is real, so both give Im<B_s, F U_s> = Im<B_s, (F - I) U_s>.
    (F - I) U_s is non-zero only on the rows r0 and r1 that the block mixes
    (the target axis at 0 and at 1), where it is +-(U_r1 - U_r0), so the slot
    gets -Im<B_r0 - B_r1, U_r0 - U_r1>: one subtraction on the view the step
    is about to update, whose U and B halves are contiguous.  The inverse of
    each block is its conjugate transpose, exact at theta in {0, pi}; CX's
    block X is its own.

    Returns the gradient and a copy of the swept U, the identity up to
    rounding.
    """
    theta = _check_theta(c, theta)
    dim = 1 << c.q
    if u.shape != (dim, dim) or lam.shape != (dim, dim):
        raise ValueError(f"U and lam must be {dim} x {dim}")
    planes, _, steps, rows, _ = c._workspace
    planes[0] = u
    np.multiply(lam, u, out=planes[1])
    grad = np.zeros(c.param_count)
    inverses = _blocks(rows, theta).conj().swapaxes(-1, -2)
    for (slot, sub, _, halves, _), block in zip(steps[::-1], inverses[::-1]):
        if slot is not None:
            diff = np.subtract(*halves)
            grad[slot] -= np.vdot(diff[1], diff[0]).imag
        sub[...] = block @ sub
    return grad, planes[0].copy()


def affine_images(c: Circuit, on) -> np.ndarray:
    """The images that fix each binary setting's basis map.

    on is (S, L) bool, True where a slot is at pi, else at 0.  There every
    gate is affine over GF(2), so the circuit maps x to A x XOR b, and row s
    of the (S, q + 1) result fixes that map at on[s]: the image of 0, then of
    2^(q-1-t) for t = 0..q-1 (gf2.recognize_affine's e_t), in the narrowest
    unsigned dtype that holds 2^q - 1 (uint8 up to q = 8, uint64 at most:
    above q = 64 there is none, and a ValueError is raised).  They are walked
    as (q, q + 1, S) bool planes, plane k holding qubit k's bit, each gate
    masked by its slot's row: RX flips its plane, CX and PCX XOR the
    control's plane into the target's, PSWAP swaps two; then packed.
    """
    on = np.asarray(on)
    if on.dtype != bool or on.ndim != 2 or on.shape[1] != c.param_count:
        raise ValueError(
            f"expected (S, {c.param_count}) bool bits, got {on.dtype} {on.shape}:"
            " the stacked evaluation requires every parameter in {0, pi},"
            " given as a bit that is True at pi")
    if c.q > 64:
        raise ValueError(f"affine images take at most 64 bits, got q = {c.q}")
    on, q = np.ascontiguousarray(on.T), c.q  # (L, S)
    planes = np.repeat(np.eye(q, q + 1, 1, bool)[..., None], on.shape[1], 2)  # 0, e_t
    for g in c.gates:
        mask = True if g.slot is None else on[g.slot]
        if g.kind == "RX":
            planes[g.qubits[0]] ^= mask
        elif g.kind == "PSWAP":
            a, b = (planes[t] for t in g.qubits)
            d = (a ^ b) & mask
            a ^= d
            b ^= d
        else:  # CX, PCX
            planes[g.qubits[1]] ^= planes[g.qubits[0]] & mask
    x = np.zeros(planes.shape[1:], np.min_scalar_type((1 << q) - 1))
    for plane in planes:  # qubit 0 is the most significant bit
        x = (x << 1) | plane
    return x.T


def eval_permutations(c: Circuit, on) -> np.ndarray:
    """Basis maps at binary settings, without a dense unitary: row s of the
    (S, 2^q) result is gf2.basis_maps of row s of affine_images (same input,
    checks and dtype), the image of every basis index under the circuit at
    on[s]."""
    return basis_maps(affine_images(c, on))


def eval_permutation(c: Circuit, theta) -> Permutation:
    """The one-row case of eval_permutations at parameters theta (L,) in {0, pi}."""
    theta = _check_theta(c, theta)
    on = np.abs(theta - math.pi) < 1e-12
    if not np.all(on | (np.abs(theta) < 1e-12)):
        raise ValueError("eval_permutation requires every parameter in {0, pi}")
    return Permutation(tuple(eval_permutations(c, on[None])[0].tolist()))


def synthesize_params(m: AffineMap) -> tuple[Circuit, np.ndarray]:
    """LX ansatz and binary parameters realizing x -> a.x XOR b.

    The circuit applies the RX layer first, so its X offset c must satisfy
    a.(x XOR c) = a.x XOR b, i.e. c = a^(-1).b.  Operator order is Borel2 .
    Weyl . Borel1 . X, so the first Borel block realizes u2 and the second
    u1.  Each block's gates read its gf2 word right to left, so each
    subword mask is reversed.
    """
    q = m.q
    offset = m.a.inverse().matvec(m.b)
    factors = bruhat_decompose(m.a)
    word = borel_word(q)[::-1]
    bits = (
        [(offset >> t) & 1 for t in range(q)]
        + [factors.u2.entry(t.j, t.k) for t in word]
        + weyl_subword_mask(factors.w)[::-1]
        + [factors.u1.entry(t.j, t.k) for t in word]
    )
    return build_ansatz("LX", q), math.pi * np.array(bits, dtype=float)


def lower_to_linear_topology(c: Circuit) -> Circuit:
    """Rewrite long-range PCX/CX into nearest-neighbour ladders.

    A gate spanning distance p > 1 becomes 4(p-1) neighbouring gates; the
    parameter is carried by the two gates nearest the target, whose removal
    makes the remainder cancel.
    """
    out: list[Gate] = []
    for g in c.gates:
        if g.kind == "RX":
            out.append(g)
            continue
        a, b = g.qubits
        if abs(a - b) == 1:
            out.append(g)
            continue
        if g.kind == "PSWAP":
            raise ValueError("long-range PSWAP lowering is not supported")
        ctrl, tgt = g.qubits
        p = abs(ctrl - tgt)
        step = 1 if ctrl > tgt else -1
        chain = [tgt + i * step for i in range(p + 1)]

        def rung(i: int) -> Gate:
            if i == 0:
                return Gate(g.kind, (chain[1], chain[0]), g.slot)
            return Gate("CX", (chain[i + 1], chain[i]), None)

        block1 = [rung(i) for i in range(p)] + [
            rung(i) for i in range(p - 2, -1, -1)
        ]
        block2 = [rung(i) for i in range(1, p)] + [
            rung(i) for i in range(p - 2, 0, -1)
        ]
        out.extend(block1 + block2)
    return Circuit(c.q, tuple(out), c.param_count, "Custom")


def circuit_to_text(c: Circuit) -> str:
    """The line QUBITS q, then one line per gate: RX t slot, CX c t, or
    PCX/PSWAP a b slot."""
    lines = [f"QUBITS {c.q}"]
    for g in c.gates:
        if g.kind == "RX":
            lines.append(f"RX {g.qubits[0]} {g.slot}")
        elif g.kind == "CX":
            lines.append(f"CX {g.qubits[0]} {g.qubits[1]}")
        else:
            lines.append(f"{g.kind} {g.qubits[0]} {g.qubits[1]} {g.slot}")
    return "\n".join(lines)


def circuit_from_text(text: str) -> Circuit:
    """The circuit of circuit_to_text's lines.  q is read from a first line
    QUBITS q, and a gate on a qubit >= q is a ValueError; a text without
    that line has q one more than the highest qubit a gate uses."""
    gates: list[Gate] = []
    q = None
    for ln in text.strip().splitlines():
        toks = ln.split()
        if not toks:
            continue
        kind = toks[0]
        try:
            nums = [int(t) for t in toks[1:]]
        except ValueError:
            nums = []  # a field that is not an integer fits no line
        if kind == "QUBITS" and len(toks) == 2 and q is None and not gates:
            if not nums or nums[0] < 1:
                raise ValueError(f"bad qubit count: {ln!r}")
            q = nums[0]
        elif kind == "RX" and len(nums) == 2:
            gates.append(Gate("RX", (nums[0],), nums[1]))
        elif kind == "CX" and len(nums) == 2:
            gates.append(Gate("CX", tuple(nums), None))
        elif kind in ("PCX", "PSWAP") and len(nums) == 3:
            gates.append(Gate(kind, tuple(nums[:2]), nums[2]))
        else:
            raise ValueError(f"bad gate line: {ln!r}")
    if q is None:
        q = 1 + max((t for g in gates for t in g.qubits), default=0)
    ell = 1 + max((g.slot for g in gates if g.slot is not None), default=-1)
    return Circuit(q, tuple(gates), ell, "Custom")
