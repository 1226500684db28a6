"""Exact linear algebra over GF(2): matrices, transvections, Bruhat factors.

Matrices are stored as tuples of row bitsets (bit k of row j = entry [j][k]),
so row operations are single XORs.  All indices are 0-based; dimensions up to
64 are supported, which covers every experiment.

Basis convention: a bit-vector x over GF(2)^q is an int whose bit i is
coordinate i (coordinate i = qubit i).  Computational-basis index
n = sum_i x_i 2^(q-1-i), i.e. the most-significant bit of the index is
qubit 0.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, NamedTuple, Sequence

import numpy as np


# A checked record is a subclass of a namedtuple: the tuple is built by the
# time __init__ runs, which only checks its fields.
class Transvection(namedtuple("Transvection", "j k")):
    """T_(jk) = I + E_(jk) over GF(2); its own inverse."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if self.j == self.k:
            raise ValueError("transvection requires j != k")
        if self.j < 0 or self.k < 0:
            raise ValueError("indices must be nonnegative")


class Gf2Matrix(namedtuple("Gf2Matrix", "q rows")):
    """Square matrix over GF(2), rows stored as int bitsets."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if len(self.rows) != self.q:
            raise ValueError("row count must equal q")
        mask = (1 << self.q) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row has bits outside dimension")

    @staticmethod
    def identity(q: int) -> Gf2Matrix:
        return Gf2Matrix(q, tuple(1 << j for j in range(q)))

    @staticmethod
    def from_entries(entries: Sequence[Sequence[int]]) -> Gf2Matrix:
        q = len(entries)
        rows = []
        for row in entries:
            if len(row) != q:
                raise ValueError("matrix must be square")
            rows.append(sum((int(v) & 1) << k for k, v in enumerate(row)))
        return Gf2Matrix(q, tuple(rows))

    def entry(self, j: int, k: int) -> int:
        return (self.rows[j] >> k) & 1

    def __matmul__(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.q != other.q:
            raise ValueError("dimension mismatch")
        rows = []
        for r in self.rows:
            acc = 0
            k = 0
            while r:
                if r & 1:
                    acc ^= other.rows[k]
                r >>= 1
                k += 1
            rows.append(acc)
        return Gf2Matrix(self.q, tuple(rows))

    def matvec(self, x: int) -> int:
        """y with y_j = parity(row_j & x)."""
        y = 0
        for j, r in enumerate(self.rows):
            y |= ((r & x).bit_count() & 1) << j
        return y

    def inverse(self) -> Gf2Matrix:
        """Inverse by Gauss-Jordan elimination; raises on singular input."""
        q = self.q
        aug = [self.rows[j] | (1 << (q + j)) for j in range(q)]
        for col in range(q):
            piv = next(
                (r for r in range(col, q) if (aug[r] >> col) & 1), None
            )
            if piv is None:
                raise ValueError("matrix is singular over GF(2)")
            aug[col], aug[piv] = aug[piv], aug[col]
            for r in range(q):
                if r != col and (aug[r] >> col) & 1:
                    aug[r] ^= aug[col]
        return Gf2Matrix(q, tuple(row >> q for row in aug))

    def is_invertible(self) -> bool:
        """Full rank, by forward elimination on the row bitsets: False at
        the first column with no pivot, without building the inverse."""
        rows = list(self.rows)
        for col in range(self.q):
            bit = 1 << col
            for k, r in enumerate(rows):
                if r & bit:
                    break
            else:
                return False
            pivot = rows.pop(k)
            rows = [r ^ pivot if r & bit else r for r in rows]
        return True

    def is_upper_unitriangular(self) -> bool:
        for j in range(self.q):
            low_mask = (1 << (j + 1)) - 1
            if self.rows[j] & low_mask != 1 << j:
                return False
        return True

    def to_text(self) -> str:
        return "\n".join(
            "".join(str(self.entry(j, k)) for k in range(self.q))
            for j in range(self.q)
        )


class Permutation(namedtuple("Permutation", "map")):
    """Bijection on {0..n-1} in one-line notation: map[i] = image of i."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if sorted(self.map) != list(range(len(self.map))):
            raise ValueError("not a bijection on {0..n-1}")

    @property
    def n(self) -> int:
        return len(self.map)

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(n)))

    @staticmethod
    def transposition(n: int, a: int, b: int) -> Permutation:
        m = list(range(n))
        m[a], m[b] = m[b], m[a]
        return Permutation(tuple(m))

    def __call__(self, i: int) -> int:
        return self.map[i]

    def compose(self, other: Permutation) -> Permutation:
        """(self . other)(i) = self(other(i)); matrix product order."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.map[other.map[i]] for i in range(self.n)))

    def inversions(self) -> int:
        return sum(
            1
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.map[i] > self.map[j]
        )

    def gf2_matrix(self) -> Gf2Matrix:
        """Column-convention permutation matrix: M e_j = e_{map[j]}."""
        rows = [0] * self.n
        for j, i in enumerate(self.map):
            rows[i] |= 1 << j
        return Gf2Matrix(self.n, tuple(rows))


class BruhatFactors(NamedTuple):
    """m = u1 . matrix(w) . u2 with u1, u2 in the Borel subgroup."""

    u1: Gf2Matrix
    w: Permutation
    u2: Gf2Matrix


class AffineMap(NamedTuple):
    """x -> a.x XOR b on GF(2)^q, with a invertible."""

    a: Gf2Matrix
    b: int

    @property
    def q(self) -> int:
        return self.a.q

    def apply(self, x: int) -> int:
        return self.a.matvec(x) ^ self.b

    def basis_map(self) -> tuple[int, ...]:
        """Entry i: the index of the image of the bit-vector of index i, by
        basis_maps from the images of 0 and of each e_t."""
        q = self.q
        row = [reverse_bits(self.apply(x), q) for x in [0, *(1 << t for t in range(q))]]
        return tuple(basis_maps(np.array([row], np.uint64))[0].tolist())


def basis_maps(images: np.ndarray) -> np.ndarray:
    """Basis maps of affine maps: row s of images (S, q + 1), unsigned, holds
    the index of the image of 0, then of 2^(q-1-t) (e_t) for t = 0..q-1.
    Row s of the (S, 2^q) result, in that dtype, maps index x to the image
    of 0 XOR, for each bit 2^k of x, the image of 2^k XOR the image of 0:
    the map is affine on indices too, so q doublings build it."""
    q = images.shape[1] - 1
    cols = images[:, :0:-1] ^ images[:, :1]  # column k: the image of 2^k, less b
    maps = np.empty((len(images), 1 << q), images.dtype)
    maps[:, :1] = images[:, :1]
    for k in range(q):
        w = 1 << k
        np.bitwise_xor(maps[:, :w], cols[:, k, None], out=maps[:, w : 2 * w])
    return maps


def random_invertible(q: int, rng) -> Gf2Matrix:
    """A uniform invertible q x q matrix: rng draws q rows until they are."""
    while True:
        a = Gf2Matrix(q, tuple(rng.integers(0, 1 << q, q).tolist()))
        if a.is_invertible():
            return a


def word_to_matrix(word: Iterable[Transvection], q: int) -> Gf2Matrix:
    """Left-to-right product of transvection matrices (leftmost applied last):
    T_(jk) times a matrix adds its row k to its row j, so the letters act on
    the identity's rows from the right end of the word."""
    rows = list(Gf2Matrix.identity(q).rows)
    for t in reversed(list(word)):
        if t.j >= q or t.k >= q:
            raise ValueError("transvection index out of range")
        rows[t.j] ^= rows[t.k]
    return Gf2Matrix(q, tuple(rows))


def borel_word(q: int) -> list[Transvection]:
    """The universal Borel word: all T_(jk), j < k, descending lex (j,k)."""
    return [
        Transvection(j, k)
        for j in range(q - 2, -1, -1)
        for k in range(q - 1, j, -1)
    ]


def borel_subword(a: Gf2Matrix) -> list[Transvection]:
    """Subword of the universal word whose product is the Borel element a."""
    if not a.is_upper_unitriangular():
        raise ValueError("input must be upper triangular with unit diagonal")
    return [t for t in borel_word(a.q) if a.entry(t.j, t.k)]


def bruhat_decompose(m: Gf2Matrix) -> BruhatFactors:
    """Factor an invertible matrix as u1 . matrix(w) . u2 over GF(2).

    Gaussian elimination with upward row additions (absorbed into u1) and
    rightward column additions (absorbed into u2) until only a permutation
    matrix remains.  Pivots are chosen bottom-most per column, left to right.
    """
    q = m.q
    rows = list(m.rows)
    u1 = list(Gf2Matrix.identity(q).rows)
    u2 = list(Gf2Matrix.identity(q).rows)
    wmap = [0] * q
    pivot_rows: set[int] = set()
    for j in range(q):
        piv = max(
            (i for i in range(q) if i not in pivot_rows and (rows[i] >> j) & 1),
            default=None,
        )
        if piv is None:
            raise ValueError("matrix is singular over GF(2)")
        pivot_rows.add(piv)
        wmap[j] = piv
        # Clear the pivot row to the right: column op M <- M.T_(j,k),
        # so u2 <- T_(j,k).u2 keeps m = u1_acc.M.u2 invariant.
        for k in range(j + 1, q):
            if (rows[piv] >> k) & 1:
                for i in range(q):
                    if (rows[i] >> j) & 1:
                        rows[i] ^= 1 << k
                u2[j] ^= u2[k]
        # Clear the pivot column upward: row op M <- T_(i,piv).M,
        # so u1 <- u1.T_(i,piv).
        for i in range(piv - 1, -1, -1):
            if (rows[i] >> j) & 1:
                rows[i] ^= rows[piv]
                for r in range(q):
                    if (u1[r] >> i) & 1:
                        u1[r] ^= 1 << piv
    w = Permutation(tuple(wmap))
    factors = BruhatFactors(Gf2Matrix(q, tuple(u1)), w, Gf2Matrix(q, tuple(u2)))
    assert factors.u1 @ w.gf2_matrix() @ factors.u2 == m
    return factors


def reverse_bits(x: int, q: int) -> int:
    """The q low bits of x in reverse order.

    Index i encodes the bit-vector with coordinate t = bit (q-1-t) of i, so
    this one map takes an index to its bit-vector and a bit-vector back to
    its index.
    """
    out = 0
    for t in range(q):
        out |= ((x >> t) & 1) << (q - 1 - t)
    return out


def recognize_affine(p: Permutation) -> AffineMap | None:
    """Recover (a, b) with p(x) = a.x XOR b on basis indices, or None.

    Indices and bit-vectors correspond by reverse_bits, so the unit vector
    e_t corresponds to index 2^(q-1-t).
    """
    n = p.n
    q = n.bit_length() - 1
    if n != 1 << q or n < 1:
        raise ValueError("permutation size must be a power of two")

    b = reverse_bits(p(0), q)
    cols = [reverse_bits(p(1 << (q - 1 - t)), q) ^ b for t in range(q)]
    a = Gf2Matrix.from_entries([[(c >> j) & 1 for c in cols] for j in range(q)])
    if not a.is_invertible():
        return None
    amap = AffineMap(a, b)
    return amap if amap.basis_map() == p.map else None


def bruhat_span_size(q: int) -> int:
    """2^(q(q+1)/2) . prod_{k=1..q} (2^k - 1), exact."""
    if q < 1:
        raise ValueError("q must be >= 1")
    out = 1 << (q * (q + 1) // 2)
    for k in range(1, q + 1):
        out *= (1 << k) - 1
    return out


def longest_element_word(q: int) -> list[int]:
    """Reduced word for the order-reversing permutation of S_q.

    Letters are 1-based simple-reflection indices (sigma_i swaps i-1 and i),
    in the order sigma_1, sigma_2 sigma_1, ..., sigma_{q-1} ... sigma_1.
    """
    word: list[int] = []
    for b in range(1, q):
        word.extend(range(b, 0, -1))
    return word


def weyl_subword_mask(w: Permutation) -> list[bool]:
    """Greedy subword of the longest-element word multiplying to w.

    Scans the word left to right; a letter sigma_i is taken iff it shortens
    the remaining factor, so the taken letters in word order form a reduced
    word for w.
    """
    q = w.n
    word = longest_element_word(q)
    mask: list[bool] = []
    rest = w
    for i in word:
        s = Permutation.transposition(q, i - 1, i)
        cand = s.compose(rest)
        if cand.inversions() < rest.inversions():
            mask.append(True)
            rest = cand
        else:
            mask.append(False)
    assert rest == Permutation.identity(q)
    return mask
