"""Projections from doubly-stochastic matrices onto permutations.

Permutations act in row convention here: the matrix of p has a 1 at
(i, p(i)), so projecting d means maximizing sum_i d[i, p(i)].
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .gf2 import Permutation

RANDOM_ORDER_TRIALS = 50


def project_hungarian(d: np.ndarray) -> Permutation:
    """Exact maximizer of sum_i d[i, p(i)], i.e. the closest permutation."""
    rows, cols = linear_sum_assignment(d, maximize=True)
    return Permutation(tuple(int(c) for c in cols[np.argsort(rows)]))


def _base_vector(n: int) -> np.ndarray:
    # Powers of two keep every coefficient at least twice any smaller one;
    # representable in double precision up to n = 1024.
    if n <= 1024:
        return np.ldexp(1.0, np.arange(n))
    return np.arange(n, dtype=float)


def project_random_order(
    d: np.ndarray, seed, trials: int = RANDOM_ORDER_TRIALS
) -> set[Permutation]:
    """Order-tracking projection: permute v, read how d.v reorders it.

    The returned p satisfies: the k-th smallest component of d.v sits at the
    row mapped to the position of the k-th smallest component of v.  Trial t
    draws v from its own stream (seed, t); all trials share one product.
    """
    n = len(d)
    base = _base_vector(n)
    v = np.stack(
        [base[np.random.default_rng(_substream(seed, t)).permutation(n)]
         for t in range(trials)]
    )
    # One matrix-vector product per trial, as d @ v would compute it: a
    # matrix-matrix product sums in another order and can break near-ties in
    # d.v the other way.
    u = (d @ v[:, :, None])[:, :, 0]
    # Stable order by (value, index): deterministic under ties.
    ov = np.argsort(v, axis=1, kind="stable")
    ou = np.argsort(u, axis=1, kind="stable")
    pmaps = np.empty_like(ov)
    np.put_along_axis(pmaps, ou, ov, axis=1)
    return {Permutation(tuple(row)) for row in pmaps.tolist()}


def _substream(seed, t: int) -> list[int]:
    if isinstance(seed, (list, tuple)):
        return [*seed, t]
    return [int(seed), t]

