"""Hungarian and random-order projections onto permutations, as int maps."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quper.circuits import solver_ansatz
from quper.dsm import binary_dsms, extract_dsm
from quper.gf2 import Permutation
from quper.projection import (
    order_maps,
    project_hungarian,
    project_random_order,
    random_orders,
)

PI = np.pi


def perm_row_matrix(p):
    return np.eye(p.n)[list(p.map)]


def random_dsm(n, rng, terms=6):
    e = np.zeros((n, n))
    for lam in rng.dirichlet(np.ones(terms)):
        e[np.arange(n), rng.permutation(n)] += lam
    return e


ALL_P8 = np.array(list(itertools.permutations(range(8))))


class TestHungarian:
    def test_identity(self):
        want = list(Permutation.identity(4).map)
        assert project_hungarian(np.eye(4)).tolist() == want

    def test_permutation_matrix_fixed_point(self):
        p = Permutation((3, 1, 0, 2))
        assert project_hungarian(perm_row_matrix(p)).tolist() == list(p.map)

    def test_matches_exhaustive_optimum_8x8(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = random_dsm(8, rng)
            p = project_hungarian(d)
            got = d[np.arange(8), p].sum()
            best = d[np.arange(8)[None, :], ALL_P8].sum(axis=1).max()
            assert got == best


class TestRandomOrder:
    def test_permutation_matrix_every_trial(self):
        p = Permutation((2, 0, 3, 1))
        out = project_random_order(perm_row_matrix(p), seed=1, trials=50)
        assert out.tolist() == [list(p.map)]

    def test_identity(self):
        out = project_random_order(np.eye(4), seed=2, trials=10)
        assert out.tolist() == [list(Permutation.identity(4).map)]

    def test_uniform_matrix_yields_valid_candidates(self):
        d = np.full((4, 4), 0.25)
        out = project_random_order(d, seed=3, trials=50)
        assert out.ndim == 2 and out.shape[1] == 4
        assert all(sorted(row) == [0, 1, 2, 3] for row in out.tolist())

    def test_random_dsm_valid_and_deterministic(self):
        rng = np.random.default_rng(4)
        d = random_dsm(6, rng)
        a = project_random_order(d, seed=5, trials=20)
        b = project_random_order(d, seed=5, trials=20)
        assert np.array_equal(a, b)

    def test_base_vector_separation(self):
        # With v_i = 2^i, a permutation matrix can never produce ties in d.v.
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = Permutation(tuple(int(v) for v in rng.permutation(8)))
            v = np.ldexp(1.0, np.arange(8))
            u = perm_row_matrix(p) @ v
            assert len(set(u.tolist())) == 8


def random_order_loop(d, seed, trials=50):
    """Reference for project_random_order: the same draw of all orders from
    one generator, then one trial at a time."""
    n = len(d)
    base = np.ldexp(1.0, np.arange(n))
    prefix = list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]
    orders = np.random.default_rng(prefix).permuted(
        np.tile(np.arange(n), (trials, 1)), axis=1
    )
    out = set()
    for t in range(trials):
        v = base[orders[t]]
        u = d @ v
        ov = np.argsort(v, kind="stable")
        ou = np.argsort(u, kind="stable")
        pmap = [0] * n
        for k in range(n):
            pmap[int(ou[k])] = int(ov[k])
        out.add(Permutation(tuple(pmap)))
    return out


@st.composite
def dsms(draw):
    """Birkhoff mixtures with few terms, permutation and uniform matrices
    (exact ties in d.v), and circuit DSMs as the solver sees them.  Decimal
    mixture weights and circuit angles on a pi/4 grid give rows whose d.v
    differ in the last bit only, so summation order decides their order."""
    kind = draw(st.sampled_from(["mixture", "permutation", "uniform", "circuit"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "circuit":
        q, m = draw(st.sampled_from([(2, 0), (3, 0), (2, 1), (3, 1)]))
        c = solver_ansatz("bruhat", q + m)
        if draw(st.booleans()):
            theta = rng.choice([0.0, PI / 4, PI / 2, PI], c.param_count)
        else:
            theta = rng.uniform(PI / 2 - 0.05, PI / 2 + 0.05, c.param_count)
        return extract_dsm(c, m, theta)
    n = draw(st.sampled_from([2, 4, 8, 16]))
    if kind == "mixture":
        if draw(st.booleans()):
            e = np.zeros((n, n))
            for lam in (0.1, 0.3, 0.6):
                e[np.arange(n), rng.permutation(n)] += lam
            return e
        return random_dsm(n, rng, terms=draw(st.integers(1, 4)))
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)]
    return np.full((n, n), 1.0 / n)


class TestRandomOrderMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        d=dsms(),
        seed=st.one_of(
            st.integers(0, 2**32 - 1),
            st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        ),
        trials=st.integers(1, 60),
    )
    def test_same_candidate_set(self, d, seed, trials):
        # The same candidates, each once, as int maps in lexicographic order.
        want = random_order_loop(d, seed, trials)
        got = project_random_order(d, seed, trials)
        assert got.dtype.kind == "i"
        assert got.tolist() == sorted(list(p.map) for p in want)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(
            st.integers(0, 2**64),
            st.integers(0, 2**63 - 1).map(np.int64),
            st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
            st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3).map(tuple),
        ),
        n=st.integers(1, 20),
        trials=st.integers(0, 60),
    )
    def test_orders_are_one_permuted_tiled_draw(self, seed, n, trials):
        # A scalar seed s draws the stream of the one-element list [s].
        entropy = list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]
        base = np.tile(np.arange(n), (trials, 1))
        want = np.random.default_rng(entropy).permuted(base, axis=1)
        assert np.array_equal(random_orders(seed, n, trials), want)
        rng = np.random.default_rng(seed)
        assert np.array_equal(random_orders(rng, n, trials), want)

    @settings(max_examples=100, deadline=None)
    @given(
        d=dsms(),
        seed=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        k=st.integers(1, 50),
    )
    def test_draw_is_prefix_stable(self, d, seed, k):
        # Trial t's order is row t of one draw, whatever the trial count, so
        # fewer trials give a subset of the candidates; each is a permutation
        # and equal seeds give equal output.
        full = project_random_order(d, seed, 50)
        few = project_random_order(d, seed, k)
        assert set(map(tuple, few.tolist())) <= set(map(tuple, full.tolist()))
        assert (np.sort(full, axis=1) == np.arange(len(d))).all()
        assert np.array_equal(project_random_order(d, list(seed), 50), full)


def two_argsort_maps(d, orders):
    """Reference for order_maps: both stable orders sorted out, v's and
    d.v's, and each candidate read off where they meet."""
    v = np.ldexp(1.0, np.arange(orders.shape[1]))[orders]
    u = (d @ v[:, :, None])[:, :, 0]
    ov = np.argsort(v, axis=1, kind="stable")
    ou = np.argsort(u, axis=1, kind="stable")
    pmaps = np.empty_like(ov)
    pmaps[np.arange(len(ov))[:, None], ou] = ov
    return pmaps


class TestOrderMapsBitForBit:
    @settings(max_examples=150, deadline=None)
    @given(d=dsms(), seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 60),
           stacked=st.booleans())
    def test_equals_the_two_argsort_formula(self, d, seed, trials, stacked):
        """One DSM at T orders, or a stack of it at one order each, tied
        d.v included (permutation and uniform matrices): the same maps and
        dtype."""
        orders = random_orders(seed, len(d), trials)
        if stacked:
            d = np.broadcast_to(d, (trials, *d.shape))
            got = order_maps(d, orders[:, None])[:, 0]
        else:
            got = order_maps(d[None], orders[None])[0]
        want = two_argsort_maps(d, orders)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestOrderMapsOnAStack:
    @settings(max_examples=80, deadline=None)
    @given(
        width=st.integers(2, 5),
        m=st.integers(0, 2),
        rows=st.integers(1, 6),
        binary=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_i_is_the_one_trial_projection_of_dsm_i(
        self, width, m, rows, binary, seed
    ):
        """One order per DSM, each from its own generator [seed, i], on
        binary DSMs and on relaxed ones whose d.v can differ in the last bit
        only."""
        m = min(m, width - 1)
        c = solver_ansatz("bruhat", width)
        rng = np.random.default_rng(seed)
        if binary:
            ds = binary_dsms(c, m, rng.integers(0, 2, (rows, c.param_count)) == 1)
        else:
            grid = rng.choice([0.0, PI / 4, PI / 2, PI], (rows, c.param_count))
            ds = np.stack([extract_dsm(c, m, theta) for theta in grid])
        n = ds.shape[1]
        orders = np.concatenate([random_orders([seed, i], n, 1) for i in range(rows)])
        got = order_maps(ds, orders[:, None])[:, 0]
        assert got.shape == (rows, n)
        for i, d in enumerate(ds):
            assert got[i].tolist() == project_random_order(d, [seed, i], 1)[0].tolist()


class TestOrderMapsOneShape:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([4, 8, 16]), m=st.integers(0, 2), k=st.integers(1, 4),
           trials=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_equals_a_loop_of_matrix_vector_products(self, n, m, k, trials, seed):
        """(k, n, n) binary DSMs, whose d.v tie at m > 0, at (k, T, n)
        orders: block i's row t maps the stable order of ds[i] @ v onto
        v's, v = 2^orders[i, t], one matrix and one order at a time."""
        c = solver_ansatz("bruhat", n.bit_length() - 1 + m)
        rng = np.random.default_rng(seed)
        ds = binary_dsms(c, m, rng.integers(0, 2, (k, c.param_count)) == 1)
        orders = random_orders(rng, n, k * trials).reshape(k, trials, n)
        want = np.empty_like(orders)
        for i, d in enumerate(ds):
            for t, order in enumerate(orders[i]):
                v = np.ldexp(1.0, order)
                ov = np.argsort(v, kind="stable")
                want[i, t, np.argsort(d @ v, kind="stable")] = ov
        assert np.array_equal(order_maps(ds, orders), want)


class TestOrderMapsOnAChunk:
    @settings(max_examples=80, deadline=None)
    @given(d=dsms(), k=st.integers(1, 5), trials=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    def test_each_matrix_at_its_own_orders(self, d, k, trials, seed):
        """(k, T, n) orders on a (k, n, n) stack, here d and k - 1 row
        permutations of it (tied and near-tied d.v included): block i is
        order_maps of matrix i at its T orders, bit for bit."""
        n = len(d)
        rng = np.random.default_rng(seed)
        ds = np.stack([d] + [d[rng.permutation(n)] for _ in range(k - 1)])
        orders = random_orders(rng, n, k * trials).reshape(k, trials, n)
        got = order_maps(ds, orders)
        assert got.shape == (k, trials, n)
        for i in range(k):
            one = order_maps(ds[i : i + 1], orders[i : i + 1])[0]
            assert np.array_equal(got[i], one)
            assert np.array_equal(got[i], two_argsort_maps(ds[i], orders[i]))
