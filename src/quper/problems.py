"""Problem definitions: quadratic assignment (QAP), graph isomorphism (GIP).

qap_cost and gip_cost take a Permutation (row convention: matrix has a 1 at
(i, p(i))).  *_map_costs cost a (K, n) array of int maps (p[i] is the image
of i) by gathers of at most GATHER_BLOCK_ENTRIES entries, with no
permutation matrix; a Permutation is costed through them.  *_cost_and_grad
give the cost of a relaxed doubly-stochastic (n, n) matrix and its
closed-form gradient in the matrix entries from one shared product.

QAP: minimize f(P) = tr(W P D^T P^T).
GIP: minimize f(P) = ||A - P B P^T||_F^2, zero iff P is an isomorphism,
i.e. A[i][j] = B[p(i)][p(j)] for all i, j.
"""

from __future__ import annotations

import math

import numpy as np

from .gf2 import AffineMap, Permutation, random_invertible


class _ReadOnly:
    """Attributes set once, by __init__ through the instance dict; == and
    hash by identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class QapInstance(_ReadOnly):
    """Flow W and distance D as checked float arrays, a name and, where
    known, the optimum."""

    def __init__(self, w: np.ndarray, d: np.ndarray, name: str = "",
                 known_optimum: float | None = None):
        w = np.asarray(w, dtype=float)
        d = np.asarray(d, dtype=float)
        if w.shape != d.shape or w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("W and D must be square matrices of equal size")
        if not (np.isfinite(w).all() and np.isfinite(d).all()):
            raise ValueError("matrices must be finite")
        vars(self).update(w=w, d=d, name=name, known_optimum=known_optimum)

    @property
    def n(self) -> int:
        return self.w.shape[0]


class GipInstance(_ReadOnly):
    """Adjacency matrices A and B as checked float arrays, the planted
    isomorphism if any, and a name."""

    def __init__(self, a: np.ndarray, b: np.ndarray,
                 planted: Permutation | None = None, name: str = ""):
        a, b = np.asarray(a), np.asarray(b)
        for label, m in (("A", a), ("B", b)):
            if (
                m.ndim != 2
                or m.shape[0] != m.shape[1]
                or (m != m.T).any()
                or not ((m == 0) | (m == 1)).all()
                or m.diagonal().any()
            ):
                raise ValueError(
                    f"{label} must be a binary symmetric zero-diagonal matrix"
                )
        if a.shape != b.shape:
            raise ValueError(
                f"A and B must have the same number of vertices, got "
                f"{a.shape[0]} and {b.shape[0]}"
            )
        i, j = np.nonzero(a)
        upper = i < j
        i, j = i[upper], j[upper]
        i.flags.writeable = j.flags.writeable = False
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        # Set from a and b once they are checked: A's edges i < j as two
        # read-only int arrays (i, j), and sum(A) + sum(B); gip_map_costs
        # reads them.
        vars(self).update(a=a, b=b, planted=planted, name=name, edges=(i, j),
                          weight=a.sum() + b.sum())

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _as_matrix(p, shape: tuple[int, int]) -> np.ndarray:
    """The relaxed matrix p as an (n, n) float array."""
    pm = np.asarray(p, dtype=float)
    if pm.shape != shape:
        raise ValueError("dimension mismatch")
    return pm


# Bound on the entries one block of a map-cost gather reads: at 2^13 float64
# (64 KiB) every temporary stays under glibc's 128 KiB mmap threshold, above
# which a larger gather costs up to twice as much per entry.
GATHER_BLOCK_ENTRIES = 1 << 13


def _blocked(cost_block, maps, n: int, entries: int) -> np.ndarray:
    """cost_block of each block of rows of the (K, n) int maps, in row
    order, for a cost that reads `entries` entries per map: as many maps per
    block as GATHER_BLOCK_ENTRIES allows, and at least one."""
    maps = np.asarray(maps)
    if maps.ndim != 2 or maps.shape[1] != n:
        raise ValueError("dimension mismatch")
    rows = max(1, GATHER_BLOCK_ENTRIES // max(1, entries))
    if len(maps) <= rows:
        return cost_block(maps)
    return np.concatenate(
        [cost_block(maps[at : at + rows]) for at in range(0, len(maps), rows)]
    )


def qap_map_costs(inst: QapInstance, maps) -> np.ndarray:
    """sum_ij W_ij D[p_i, p_j] for each row p of the (K, n) int maps: every
    product of the n * n, summed along the row, so a map's bits do not
    depend on K or on the block it is gathered in."""
    n = inst.n
    w = inst.w.ravel()

    def cost_block(block):
        gathered = inst.d.take(block[:, :, None] * n + block[:, None, :])
        return (w * gathered.reshape(len(block), n * n)).sum(axis=1)

    return _blocked(cost_block, maps, n, n * n)


def gip_map_costs(inst: GipInstance, maps) -> np.ndarray:
    """sum_ij (A_ij - B[p_i, p_j])^2 for each row p of the (K, n) int maps,
    each a permutation: sum(A) + sum(B) - 4 sum B[p_i, p_j] over A's edges
    i < j, since A and B are 0/1, symmetric and zero on the diagonal.  B is
    gathered at A's edges only; every term is an integer, so every value is
    exact, whatever order the sums run in (a product sums several times
    faster than sum(axis=1) along rows this short)."""
    n, (i, j) = inst.n, inst.edges
    b, ones = inst.b.ravel(), np.ones(len(i))

    def overlap(block):
        return b.take(block[:, i] * n + block[:, j]) @ ones

    return inst.weight - 4.0 * _blocked(overlap, maps, n, len(i))


def qap_cost(inst: QapInstance, p: Permutation) -> float:
    return float(qap_map_costs(inst, [p.map])[0])


def gip_cost(inst: GipInstance, p: Permutation) -> float:
    return float(gip_map_costs(inst, [p.map])[0])


def qap_cost_and_grad(inst: QapInstance, d) -> tuple[float, np.ndarray]:
    """The cost tr(W d D^T d^T) at the relaxed matrix d and its gradient
    W^T d D + W d D^T, sharing the product W d D^T."""
    pm = _as_matrix(d, inst.w.shape)
    wdd = inst.w @ pm @ inst.d.T
    return float(np.trace(wdd @ pm.T)), inst.w.T @ pm @ inst.d + wdd


def gip_cost_and_grad(inst: GipInstance, d) -> tuple[float, np.ndarray]:
    """The cost sum(R^2) at the relaxed matrix d and its gradient
    -2 (R d B^T + R^T d B), sharing the residual R = A - d B d^T."""
    pm = _as_matrix(d, inst.a.shape)
    r = inst.a - pm @ inst.b @ pm.T
    grad = -2.0 * (r @ pm @ inst.b.T + r.T @ pm @ inst.b)
    return float(np.sum(r**2)), grad


def gip_to_qap(inst: GipInstance) -> QapInstance:
    """W = A, D = -B; then gip = tr(A^T A) + tr(B^T B) + 2 qap for every P."""
    return QapInstance(inst.a, -inst.b, name=inst.name or "gip")


def _ints(text: str, what: str) -> list[int]:
    """The whitespace-separated integers of text; what names the text in
    the error a non-integer token raises."""
    try:
        return [int(t) for t in text.split()]
    except ValueError as exc:
        raise ValueError(f"non-integer token in {what}: {exc}") from exc


def parse_qaplib(text: str, name: str = "") -> QapInstance:
    vals = _ints(text, "QAPLIB data")
    if not vals:
        raise ValueError("empty QAPLIB data")
    n = vals[0]
    if n <= 0:
        raise ValueError("n must be positive")
    if len(vals) != 1 + 2 * n * n:
        raise ValueError(
            f"expected {1 + 2 * n * n} integers for n={n}, got {len(vals)}"
        )
    w = np.array(vals[1 : 1 + n * n], dtype=float).reshape(n, n)
    d = np.array(vals[1 + n * n :], dtype=float).reshape(n, n)
    return QapInstance(w, d, name=name)


def parse_sln(text: str) -> tuple[int, float, Permutation]:
    vals = _ints(text, ".sln data")
    if len(vals) < 2:
        raise ValueError("solution file needs n and a value")
    n, value = vals[0], vals[1]
    perm_vals = vals[2:]
    if len(perm_vals) != n:
        raise ValueError(f"expected a permutation of length {n}")
    # QAPLIB permutations are 1-based.
    if sorted(perm_vals) == list(range(1, n + 1)):
        perm_vals = [v - 1 for v in perm_vals]
    return n, float(value), Permutation(tuple(perm_vals))


def load_qaplib(dat_text: str, sln_text: str | None, name: str = "") -> QapInstance:
    """Parse a .dat and, given one, attach the .sln optimum (attach_solution)."""
    inst = parse_qaplib(dat_text, name)
    return inst if sln_text is None else attach_solution(inst, sln_text)


def attach_solution(inst: QapInstance, sln_text: str) -> QapInstance:
    """inst with the .sln optimum attached and the W/D roles pinned.

    The stored permutation must reproduce the stored value under
    f(P) = tr(W P D^T P^T): with the roles as given, else with W and D
    swapped.  A value that neither role reproduces is a ValueError naming
    the value and both costs.
    """
    n, value, perm = parse_sln(sln_text)
    if n != inst.n:
        raise ValueError(".sln size does not match instance")
    swapped = QapInstance(inst.d, inst.w, name=inst.name)
    costs = [qap_cost(inst, perm), qap_cost(swapped, perm)]
    for roles, cost in zip((inst, swapped), costs):
        if math.isclose(cost, value, abs_tol=1e-6):
            return QapInstance(roles.w, roles.d, name=inst.name, known_optimum=value)
    raise ValueError(
        f".sln value {value:g} matches neither role: its permutation costs "
        f"{costs[0]:g} as given and {costs[1]:g} with W and D swapped"
    )


def random_qap(n: int, seed: int) -> QapInstance:
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 10.0, (n, n))
    d = rng.uniform(0.0, 10.0, (n, n))
    return QapInstance(w, d, name=f"random_qap_{n}_{seed}")


def _affine_permutation(q: int, rng: np.random.Generator) -> Permutation:
    a = random_invertible(q, rng)
    return Permutation(AffineMap(a, int(rng.integers(0, 1 << q))).basis_map())


def random_gip(
    n: int,
    seed: int,
    span_restricted: bool = False,
) -> GipInstance:
    """Random graph pair with a planted isomorphism (gip_cost = 0).

    With span_restricted, the planted permutation is a uniform affine map
    (random invertible matrix plus random offset), so it lies in the span of
    the full-ansatz circuit without ancillas.  A has edge {i, j}, i < j,
    where entry (i, j) of one n x n uniform draw is below 0.5, and B is one
    gather of A through the planted map's inverse, so an instance costs
    little more than its draws and GipInstance's checks.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    if span_restricted:
        q = n.bit_length() - 1
        if 1 << q != n:
            raise ValueError("span-restricted instances need n a power of two")
        planted = _affine_permutation(q, rng)
    else:
        planted = Permutation(tuple(int(v) for v in rng.permutation(n)))
    i = np.arange(n)
    a = (rng.random((n, n)) < 0.5) & (i[:, None] < i)
    a = a | a.T
    # B[p(i)][p(j)] = A[i][j] makes gip_cost(planted) = 0.
    inv = np.argsort(planted.map)
    b = a[inv[:, None], inv]
    return GipInstance(a, b, planted=planted, name=f"random_gip_{n}_{seed}")


def parse_edge_list(text: str) -> np.ndarray:
    """Graph as 'n' then one 'u v' pair per edge; returns the adjacency matrix."""
    vals = _ints(text, "edge list")
    if not vals:
        raise ValueError("empty edge list")
    n, rest = vals[0], vals[1:]
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if len(rest) % 2:
        raise ValueError("edge list must contain pairs")
    adj = np.zeros((n, n), dtype=int)
    for u, v in zip(rest[::2], rest[1::2]):
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        adj[u][v] = adj[v][u] = 1
    return adj


def parse_adjacency_csv(text: str) -> np.ndarray:
    """Graph as one comma-separated row of integers per vertex."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    rows = []
    for i, ln in lines:
        try:
            rows.append([int(t) for t in ln.split(",")])
        except ValueError as exc:
            raise ValueError(f"line {i}: non-integer entry: {exc}") from exc
        if len(rows[-1]) != len(lines):
            raise ValueError(
                f"line {i} has {len(rows[-1])} entries, expected {len(lines)} "
                "(one per row)"
            )
    return np.array(rows, dtype=int)


def relative_optimality_gap(value: float, optimum: float) -> float | None:
    if optimum == 0:
        return None
    return (value - optimum) / optimum


def normalized_heuristic_gap(quantum: float, heuristic: float, n: int) -> float:
    return (quantum - heuristic) / (n * n / 2)
