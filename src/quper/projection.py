"""Projections from doubly-stochastic matrices onto permutations.

Permutations are int maps (p[i] is the image of i) in row convention: the
matrix of p has a 1 at (i, p[i]), so projecting d means maximizing
sum_i d[i, p[i]].
"""

from __future__ import annotations

import functools

import numpy as np

RANDOM_ORDER_TRIALS = 50


@functools.cache
def _linear_sum_assignment():
    from scipy.optimize import linear_sum_assignment  # slow to import
    return linear_sum_assignment


def project_hungarian(d: np.ndarray) -> np.ndarray:
    """The map p maximizing sum_i d[i, p[i]], i.e. the closest permutation."""
    return _linear_sum_assignment()(d, maximize=True)[1]  # rows come back sorted


def random_orders(seed, n: int, trials: int) -> np.ndarray:
    """The (trials, n) orders of project_random_order: default_rng(seed)
    draws them all, row t for trial t, so the first k rows do not depend on
    trials.  seed may be a Generator, which the draw advances: two draws of
    k and l rows give the rows of one draw of k + l."""
    orders = np.empty((trials, n), dtype=int)
    orders[:] = np.arange(n)
    return np.random.default_rng(seed).permuted(orders, axis=1, out=orders)


def order_maps(ds: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Order-tracking projection: permute v, read how d.v reorders it.

    ds is a (k, n, n) stack of matrices and orders a (k, T, n) stack, T
    orders per matrix, each row a permutation of range(n).  Entry [i, t] of
    the (k, T, n) result is the candidate p of ds[i] at orders[i, t]: the
    j-th smallest component of ds[i].v sits at the row mapped to the
    position of the j-th smallest component of v = base[orders[i, t]].
    """
    n = orders.shape[-1]
    # Powers of two keep every coefficient at least twice any smaller one;
    # representable in double precision up to n = 1024.
    base = np.ldexp(1.0, np.arange(n)) if n <= 1024 else np.arange(n, dtype=float)
    v = base[orders]
    # One matrix-vector product per row, as d @ v would compute it: a
    # matrix-matrix product sums in another order and can break near-ties in
    # d.v the other way.
    u = (ds[:, None] @ v[..., None]).reshape(-1, n)
    flat = orders.reshape(-1, n)
    # Stable order by (value, index): deterministic under ties.
    ou = np.argsort(u, axis=1, kind="stable")
    # base is strictly increasing, so v's stable order is each order's
    # inverse: the j-th smallest of v sits at position k where orders[k] = j,
    # and the candidate maps ou[orders[k]] to k.
    rows = np.arange(len(flat))[:, None]
    pmaps = np.empty_like(ou)
    pmaps[rows, ou[rows, flat]] = np.arange(n)
    return pmaps.reshape(orders.shape)


def project_random_order(
    d: np.ndarray, seed, trials: int = RANDOM_ORDER_TRIALS
) -> np.ndarray:
    """order_maps of d at the random_orders of seed, deduplicated: the
    distinct candidates as a (k, n) array of maps in lexicographic order,
    k <= trials."""
    pmaps = order_maps(d[None], random_orders(seed, len(d), trials)[None])[0]
    # A set of row tuples: np.unique(axis=0) costs several times more.
    return np.array(sorted(set(map(tuple, pmaps.tolist()))))
