"""GF(2) machinery: words, Bruhat decomposition, affine recognition."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quper.circuits import eval_permutations, synthesize_params
from quper.gf2 import (
    AffineMap,
    Gf2Matrix,
    Permutation,
    Transvection,
    basis_maps,
    borel_subword,
    bruhat_decompose,
    bruhat_span_size,
    longest_element_word,
    random_invertible,
    recognize_affine,
    reverse_bits,
    weyl_subword_mask,
    word_to_matrix,
)


def all_gl(q):
    for bits in range(1 << (q * q)):
        rows = tuple((bits >> (q * j)) & ((1 << q) - 1) for j in range(q))
        m = Gf2Matrix(q, rows)
        if m.is_invertible():
            yield m


def all_borel(q):
    pairs = [(j, k) for j in range(q) for k in range(j + 1, q)]
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        rows = list(Gf2Matrix.identity(q).rows)
        for on, (j, k) in zip(bits, pairs):
            if on:
                rows[j] |= 1 << k
        yield Gf2Matrix(q, tuple(rows))


class TestWordToMatrix:
    def test_worked_example(self):
        # T24 T23 T13 in 1-based indices.
        word = [Transvection(1, 3), Transvection(1, 2), Transvection(0, 2)]
        a = word_to_matrix(word, 4)
        assert a.to_text() == "1010\n0111\n0010\n0001"

    def test_empty_word_is_identity(self):
        assert word_to_matrix([], 3) == Gf2Matrix.identity(3)

    def test_transvection_involution(self):
        word = [Transvection(0, 1), Transvection(0, 1)]
        assert word_to_matrix(word, 2) == Gf2Matrix.identity(2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            word_to_matrix([Transvection(0, 3)], 3)


class TestBorelSubword:
    def test_worked_example_roundtrip(self):
        word = [Transvection(1, 3), Transvection(1, 2), Transvection(0, 2)]
        a = word_to_matrix(word, 4)
        assert borel_subword(a) == word

    def test_identity_gives_empty_word(self):
        assert borel_subword(Gf2Matrix.identity(4)) == []

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_exhaustive_roundtrip(self, q):
        count = 0
        for a in all_borel(q):
            word = borel_subword(a)
            assert word_to_matrix(word, q) == a
            count += 1
        assert count == 1 << (q * (q - 1) // 2)

    def test_rejects_non_borel(self):
        with pytest.raises(ValueError):
            borel_subword(Gf2Matrix.from_entries([[0, 1], [1, 0]]))


class TestBruhatDecompose:
    def test_identity(self):
        f = bruhat_decompose(Gf2Matrix.identity(3))
        assert f.u1 == Gf2Matrix.identity(3)
        assert f.u2 == Gf2Matrix.identity(3)
        assert f.w == Permutation.identity(3)

    def test_pure_permutation_matrix(self):
        f = bruhat_decompose(Gf2Matrix.from_entries([[0, 1], [1, 0]]))
        assert f.u1 == Gf2Matrix.identity(2)
        assert f.u2 == Gf2Matrix.identity(2)
        assert f.w == Permutation((1, 0))

    def test_all_gl3_reassemble(self):
        count = 0
        for m in all_gl(3):
            f = bruhat_decompose(m)
            assert f.u1.is_upper_unitriangular()
            assert f.u2.is_upper_unitriangular()
            assert f.u1 @ f.w.gf2_matrix() @ f.u2 == m
            count += 1
        assert count == 168

    @settings(deadline=None)
    @given(
        q=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 5),
    )
    @example(q=4, seed=0, count=300)
    def test_random_reassemble(self, q, seed, count):
        rng = np.random.default_rng(seed)
        done = 0
        while done < count:
            m = Gf2Matrix(q, tuple(int(v) for v in rng.integers(0, 1 << q, q)))
            if not m.is_invertible():
                continue
            f = bruhat_decompose(m)
            assert f.u1.is_upper_unitriangular()
            assert f.u2.is_upper_unitriangular()
            assert f.u1 @ f.w.gf2_matrix() @ f.u2 == m
            done += 1

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            bruhat_decompose(Gf2Matrix.from_entries([[1, 1], [1, 1]]))


def inverse_exists(m):
    """Whether Gauss-Jordan elimination finds m's inverse: the definition
    is_invertible answers."""
    try:
        m.inverse()
    except ValueError:
        return False
    return True


class TestIsInvertible:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_exhaustive(self, q):
        for bits in range(1 << (q * q)):
            rows = tuple((bits >> (q * j)) & ((1 << q) - 1) for j in range(q))
            m = Gf2Matrix(q, rows)
            assert m.is_invertible() == inverse_exists(m), m

    @pytest.mark.parametrize("q", [4, 5, 6, 7, 8])
    def test_random(self, q):
        rng = np.random.default_rng(q)
        seen = set()
        for _ in range(2000):
            m = Gf2Matrix(q, tuple(int(v) for v in rng.integers(0, 1 << q, q)))
            assert m.is_invertible() == inverse_exists(m), m
            seen.add(m.is_invertible())
        assert seen == {True, False}


class TestBasisMap:
    @pytest.mark.parametrize("q", range(1, 8))
    def test_is_the_per_index_map(self, q):
        rng = np.random.default_rng(q)
        for _ in range(20):
            amap = AffineMap(random_invertible(q, rng), int(rng.integers(0, 1 << q)))
            per_index = tuple(
                reverse_bits(amap.apply(reverse_bits(i, q)), q)
                for i in range(1 << q)
            )
            assert amap.basis_map() == per_index

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(1, 8), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_basis_maps_is_the_doubling_loop_and_the_circuit(self, q, k, seed):
        """basis_maps on a stack of k maps' images, row by row: the doubling
        loop on Python ints that basis_map ran, and the eval_permutations
        row of the LX setting that synthesizes each map."""
        rng = np.random.default_rng(seed)
        maps = [AffineMap(random_invertible(q, rng), int(rng.integers(0, 1 << q)))
                for _ in range(k)]
        units = [0, *(1 << t for t in range(q))]
        images = np.array([[reverse_bits(f.apply(x), q) for x in units] for f in maps],
                          np.min_scalar_type((1 << q) - 1))
        got = basis_maps(images)
        assert got.dtype == images.dtype and got.shape == (k, 1 << q)
        for row, f in zip(got, maps):
            want = [reverse_bits(f.b, q)]
            for t in range(q - 1, -1, -1):
                col = 0
                for j, r in enumerate(f.a.rows):
                    col |= ((r >> t) & 1) << (q - 1 - j)
                want += [x ^ col for x in want]
            assert row.tolist() == want and f.basis_map() == tuple(want)
            c, theta = synthesize_params(f)
            assert eval_permutations(c, theta[None] == np.pi)[0].tolist() == want


class TestRandomInvertible:
    @settings(max_examples=40, deadline=None)
    @given(q=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_is_the_redraw_loop(self, q, seed):
        # The same draws as drawing q rows until they are invertible, and
        # the generator left in the same state.
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [random_invertible(q, rng) for _ in range(3)]
        want = []
        while len(want) < 3:
            m = Gf2Matrix(q, tuple(int(v) for v in ref.integers(0, 1 << q, q)))
            if m.is_invertible():
                want.append(m)
        assert got == want
        assert rng.integers(1 << 30) == ref.integers(1 << 30)


class TestSpanSize:
    def test_table_values(self):
        assert [bruhat_span_size(q) for q in range(1, 6)] == [
            2,
            24,
            1344,
            322560,
            319979520,
        ]

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_equals_2q_times_gl_count(self, q):
        assert bruhat_span_size(q) == (1 << q) * sum(1 for _ in all_gl(q))


class TestRecognizeAffine:
    def test_identity(self):
        amap = recognize_affine(Permutation.identity(4))
        assert amap == AffineMap(Gf2Matrix.identity(2), 0)

    def test_bit_flip(self):
        # i -> i XOR 1 flips the least-significant index bit = last qubit.
        p = Permutation((1, 0, 3, 2))
        amap = recognize_affine(p)
        assert amap is not None
        assert amap.a == Gf2Matrix.identity(2)
        # qubit 1 corresponds to coordinate 1 of the bit-vector
        assert amap.b == 0b10

    def test_counts_n4(self):
        count = sum(
            recognize_affine(Permutation(p)) is not None
            for p in itertools.permutations(range(4))
        )
        assert count == 24

    def test_counts_n8(self):
        count = sum(
            recognize_affine(Permutation(p)) is not None
            for p in itertools.permutations(range(8))
        )
        assert count == 1344

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            recognize_affine(Permutation((1, 2, 0)))


class TestReverseBits:
    def test_examples(self):
        assert reverse_bits(0b001, 3) == 0b100
        assert reverse_bits(0b110, 3) == 0b011
        assert reverse_bits(0b1, 1) == 0b1

    @given(st.data())
    def test_involution(self, data):
        q = data.draw(st.integers(1, 12))
        x = data.draw(st.integers(0, (1 << q) - 1))
        assert 0 <= reverse_bits(x, q) < 1 << q
        assert reverse_bits(reverse_bits(x, q), q) == x


class TestWeylWords:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_longest_word_is_reduced_for_reversal(self, q):
        word = longest_element_word(q)
        prod = Permutation.identity(q)
        for i in word:
            prod = prod.compose(Permutation.transposition(q, i - 1, i))
        assert prod == Permutation(tuple(reversed(range(q))))
        assert len(word) == prod.inversions()

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_greedy_subword_reaches_every_element(self, q):
        word = longest_element_word(q)
        for p in itertools.permutations(range(q)):
            target = Permutation(p)
            mask = weyl_subword_mask(target)
            prod = Permutation.identity(q)
            for on, i in zip(mask, word):
                if on:
                    prod = prod.compose(Permutation.transposition(q, i - 1, i))
            assert prod == target
            assert sum(mask) == target.inversions()


class TestPermutationBasics:
    def test_column_matrix_convention(self):
        p = Permutation((1, 2, 0))
        m = p.gf2_matrix()
        for j in range(3):
            assert m.matvec(1 << j) == 1 << p(j)


class TestInputChecks:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Transvection(1, 1), "transvection requires j != k"),
            (lambda: Transvection(-1, 0), "indices must be nonnegative"),
            (lambda: Gf2Matrix(2, (1,)), "row count must equal q"),
            (lambda: Gf2Matrix(1, (2,)), "row has bits outside dimension"),
            (lambda: Gf2Matrix.from_entries([[1, 0]]), "matrix must be square"),
            (
                lambda: Gf2Matrix.identity(2) @ Gf2Matrix.identity(3),
                "dimension mismatch",
            ),
            (lambda: Permutation((0, 0)), "not a bijection on {0..n-1}"),
            (lambda: Permutation((0, 2)), "not a bijection on {0..n-1}"),
            (
                lambda: Permutation.identity(2).compose(Permutation.identity(3)),
                "size mismatch",
            ),
            (lambda: bruhat_span_size(0), "q must be >= 1"),
        ],
        ids=[
            "transvection_j_is_k", "transvection_negative", "matrix_row_count",
            "matrix_row_bits", "matrix_not_square", "matmul_sizes",
            "permutation_repeat", "permutation_gap", "compose_sizes", "span_size_q0",
        ],
    )
    def test_message(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message
