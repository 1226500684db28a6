"""Hungarian and random-order projections onto permutations."""

import itertools

import numpy as np

from quper.dsm import Dsm
from quper.gf2 import Permutation
from quper.projection import project_hungarian, project_random_order


def perm_row_matrix(p):
    return np.eye(p.n)[list(p.map)]


def random_dsm(n, rng, terms=6):
    e = np.zeros((n, n))
    for lam in rng.dirichlet(np.ones(terms)):
        e[np.arange(n), rng.permutation(n)] += lam
    return Dsm(e)


ALL_P8 = np.array(list(itertools.permutations(range(8))))


class TestHungarian:
    def test_identity(self):
        assert project_hungarian(Dsm(np.eye(4))) == Permutation.identity(4)

    def test_permutation_matrix_fixed_point(self):
        p = Permutation((3, 1, 0, 2))
        assert project_hungarian(Dsm(perm_row_matrix(p))) == p

    def test_matches_exhaustive_optimum_8x8(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = random_dsm(8, rng)
            p = project_hungarian(d)
            got = d.entries[np.arange(8), list(p.map)].sum()
            best = d.entries[np.arange(8)[None, :], ALL_P8].sum(axis=1).max()
            assert got == best


class TestRandomOrder:
    def test_permutation_matrix_every_trial(self):
        p = Permutation((2, 0, 3, 1))
        out = project_random_order(Dsm(perm_row_matrix(p)), seed=1, trials=50)
        assert out == {p}

    def test_identity(self):
        out = project_random_order(Dsm(np.eye(4)), seed=2, trials=10)
        assert out == {Permutation.identity(4)}

    def test_uniform_matrix_yields_valid_candidates(self):
        d = Dsm(np.full((4, 4), 0.25))
        out = project_random_order(d, seed=3, trials=50)
        assert all(isinstance(p, Permutation) and p.n == 4 for p in out)

    def test_random_dsm_valid_and_deterministic(self):
        rng = np.random.default_rng(4)
        d = random_dsm(6, rng)
        a = project_random_order(d, seed=5, trials=20)
        b = project_random_order(d, seed=5, trials=20)
        assert a == b

    def test_base_vector_separation(self):
        # With v_i = 2^i, a permutation matrix can never produce ties in d.v.
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = Permutation(tuple(int(v) for v in rng.permutation(8)))
            v = np.ldexp(1.0, np.arange(8))
            u = perm_row_matrix(p) @ v
            assert len(set(u.tolist())) == 8

