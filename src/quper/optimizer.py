"""Regularized loss, Adam with Nesterov momentum, and the QuPer driver.

The driver optimizes the relaxed cost of the circuit's doubly-stochastic
matrix plus three regularizers pushing it toward a permutation, projecting
onto permutations at every iteration and escalating the ancilla count with
parameter re-embedding.  Its gradient is exact: the closed-form derivative of
the loss in the DSM, carried back through the circuit by dsm.adjoint_gradient:
from the tape that the iterate's forward pass returned beside U, or by the
reverse sweep where that tape is None (above circuits.TAPE_MAX_QUBITS
qubits).  fd_gradient (central differences) is kept as the reference the
tests check it against.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from functools import partial
from typing import NamedTuple

import numpy as np

from .circuits import SOLVER_ANSATZE, Circuit, check_qubit_guard, solver_ansatz
from .dsm import adjoint_gradient, unitary_and_dsm
from .gf2 import Permutation
from .problems import (
    GipInstance,
    QapInstance,
    gip_cost_and_grad,
    gip_map_costs,
    qap_cost_and_grad,
    qap_map_costs,
)
from .projection import (
    RANDOM_ORDER_TRIALS,
    order_maps,
    project_hungarian,
    random_orders,
)

DEFAULT_LR = 0.005
GIP_LR = 0.4
PAD_ANGLE = math.pi / 8

# Weights of the regularizers in the loss, and the entropy's log offset.
W_ST = 1 / 10
W_ENTROPY = 15 / 100
W_ORT = 1 / 100
ENTROPY_EPS = 1e-8

# Adam's moment decay rates and the offset of its step's denominator.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

# Bound on the entries of one draw of a level's random orders: quper_solve
# draws the orders of as many iterates at once as fit, and at least one's,
# and takes one incumbent step per draw.
ORDER_DRAW_ENTRIES = 1 << 16


class AdamState(NamedTuple):
    theta: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    k: int = 1
    eta: float = DEFAULT_LR

    @staticmethod
    def fresh(theta: np.ndarray, eta: float = DEFAULT_LR) -> AdamState:
        theta = np.asarray(theta, dtype=float)
        return AdamState(theta, np.zeros_like(theta), np.zeros_like(theta), 1, eta)


def _check_seed(seed) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


class QuperConfig(namedtuple(
    "QuperConfig", "ansatz m_max iterations seed lr", defaults=("bruhat", 0, 1000, 0, None)
)):
    """A solve's settings; lr None: 0.005 for QAP, 0.4 for GIP.  m_max,
    iterations and seed are held as ints (operator.index)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        counts = {}
        for name in ("m_max", "iterations", "seed"):
            value = getattr(self, name)
            try:
                counts[name] = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        self = self._replace(**counts)
        if self.m_max < 0 or self.iterations < 1:
            raise ValueError("need m_max >= 0 and iterations >= 1")
        _check_seed(self.seed)
        if self.ansatz not in SOLVER_ANSATZE:
            raise ValueError(
                f"ansatz must be one of {', '.join(SOLVER_ANSATZE)}, got {self.ansatz!r}"
            )
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be None or finite and > 0, got {self.lr!r}")
        return self


class QuperTrace(NamedTuple):
    """A solve's records, one per iterate, and levels, one per ancilla count."""

    records: list[dict]
    levels: list[dict]


def regularizers(d: np.ndarray) -> tuple:
    """((st, S_eps, ort), d/dd of their weighted sum) of the DSM d, sharing
    d.sum(0) - 1, log(d + ENTROPY_EPS) and d^T d - I.  The constants are
    folded: (2 W_ST) dev for W_ST (2 dev), - W_ENTROPY s for + W_ENTROPY (-s)
    and (4 W_ORT) (d gram) for W_ORT ((4 d) gram); a power of two and a sign
    commute with rounding, so the bits are the same unless a product
    underflows."""
    dev = d.sum(axis=0) - 1.0  # d st/dd is 2 dev down each column
    shifted = d + ENTROPY_EPS
    log = np.log(shifted)
    gram = d.T @ d
    gram.ravel()[:: len(d) + 1] -= 1.0
    terms = float((dev**2).sum()), float(-(d * log).sum()), float((gram**2).sum())
    grad = (2.0 * W_ST) * dev - W_ENTROPY * (log + d / shifted)
    return terms, grad + (4.0 * W_ORT) * (d @ gram)


def loss_pass(d: np.ndarray, cost_and_grad) -> tuple:
    """One pass over the DSM d: the loss (cost plus the weighted
    regularizers), the cost, the regularizers (st, S_eps, ort) and dloss/dd;
    cost_and_grad(d) gives the cost and its gradient."""
    (st, s_eps, ort), reg_grad = regularizers(d)
    raw_cost, cost_grad = cost_and_grad(d)
    loss = float(raw_cost) + W_ST * st + W_ENTROPY * s_eps + W_ORT * ort
    return loss, raw_cost, (st, s_eps, ort), cost_grad + reg_grad


def fd_gradient(f, theta, h: float = 1e-5) -> np.ndarray:
    """Central differences in every coordinate of the one-point loss f,
    called at theta + h e_i for every i, then at theta - h e_i."""
    if h <= 0:
        raise ValueError("h must be positive")
    theta = np.asarray(theta, dtype=float)
    steps = h * np.eye(theta.size)
    points = np.concatenate([theta + steps, theta - steps])
    values = np.array([f(t) for t in points], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite loss value in gradient")
    hi, lo = values[: theta.size], values[theta.size :]
    return (hi - lo) / (2 * h)


def adam_nesterov_step(s: AdamState, g) -> AdamState:
    g = np.asarray(g, dtype=float)
    if g.shape != s.theta.shape:
        raise ValueError("gradient length mismatch")
    mu = BETA1 * s.mu + (1 - BETA1) * g
    nu = BETA2 * s.nu + (1 - BETA2) * g**2
    mu_hat = BETA1 / (1 - BETA1 ** (s.k + 1)) * mu + (1 - BETA1) / (
        1 - BETA1**s.k
    ) * g
    nu_hat = nu / (1 - BETA2**s.k)
    theta = s.theta - s.eta * mu_hat / (np.sqrt(nu_hat) + ADAM_EPS)
    return AdamState(theta, mu, nu, s.k + 1, s.eta)


def _slot_keys(c: Circuit) -> dict[tuple, int]:
    """Structural identity of each slot: gate kind, bottom-anchored qubit
    coordinates, and occurrence index.  Stable under adding a qubit on top."""
    keys: dict[tuple, int] = {}
    seen: dict[tuple, int] = {}
    for g in c.gates:
        if g.slot is None:
            continue
        coords = tuple(c.q - 1 - t for t in g.qubits)
        base = (g.kind, coords)
        occ = seen.get(base, 0)
        seen[base] = occ + 1
        keys.setdefault((g.kind, coords, occ), g.slot)
    return keys


@functools.lru_cache(maxsize=64)
def _slot_map(old: Circuit, new: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """The slots of new with a counterpart in old, and those counterparts,
    as two read-only int arrays: kept for the 64 pairs of circuits used
    last, so a solve's levels find theirs once per process."""
    old_keys = _slot_keys(old)
    pairs = [(slot, old_keys[key]) for key, slot in _slot_keys(new).items()
             if key in old_keys]
    slots = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    slots.flags.writeable = False
    return slots[0], slots[1]


def embed_theta(old: Circuit, new: Circuit, old_theta) -> np.ndarray:
    """Carry parameters to a larger ansatz by structural slot identity;
    every slot with no counterpart gets PAD_ANGLE."""
    old_theta = np.asarray(old_theta, dtype=float)
    if old_theta.shape != (old.param_count,):
        raise ValueError(
            f"old_theta must have {old.param_count} parameters, got shape "
            f"{old_theta.shape}"
        )
    new_slots, old_slots = _slot_map(old, new)
    theta = np.full(new.param_count, PAD_ANGLE)
    theta[new_slots] = old_theta[old_slots]
    return theta


def _problem_costs(problem):
    """The problem's costs of a (K, n) array of maps, and its cost and
    gradient at a relaxed matrix."""
    if isinstance(problem, QapInstance):
        return partial(qap_map_costs, problem), partial(qap_cost_and_grad, problem)
    if isinstance(problem, GipInstance):
        return partial(gip_map_costs, problem), partial(gip_cost_and_grad, problem)
    raise TypeError("problem must be a QapInstance or GipInstance")


def best_projection(ds: np.ndarray, map_costs, orders: np.ndarray,
                    best_p: np.ndarray | None = None, best_v: float = math.inf):
    """The incumbent step of k iterates: project each DSM of the (k, n, n)
    stack ds onto permutations, cost all candidates in one call, and carry
    the incumbent (best_p, best_v) through the iterates in order.

    Iterate i's candidates, the Hungarian map of ds[i] then its order_maps
    at the (T, n) random orders orders[i] in trial order, duplicates kept,
    are costed iterate by iterate as one (k (T + 1), n) int array of maps by
    map_costs.  quper_solve passes one draw's iterates, each with its
    RANDOM_ORDER_TRIALS rows of one stream of random_orders per solve.  An
    iterate whose least value is below the incumbent's replaces it with the
    first candidate in map order at that value, project_random_order's
    deduplicated pick.  Only the last such iterate's map is picked, by one
    lexsort of its tied maps when more than one ties (which keeps the
    earliest of equal maps), so no tie is broken unless the incumbent is
    beaten.  Returns the incumbent after the last iterate (best_p and best_v
    as they came in if none beat it), then, as lists of one float per
    iterate, the Hungarian cost, the best random-order cost and the
    incumbent's value after the iterate.
    """
    k, trials, n = orders.shape
    hungarian = np.stack([project_hungarian(d) for d in ds])
    maps = np.concatenate((hungarian[:, None], order_maps(ds, orders)), axis=1)
    values = map_costs(maps.reshape(-1, n)).reshape(k, trials + 1)
    lows = values.min(axis=1)
    bests = np.minimum.accumulate(np.concatenate(([best_v], lows)))
    beaten = np.flatnonzero(lows < bests[:-1])
    if len(beaten):
        i = beaten[-1]
        tied = np.flatnonzero(values[i] == lows[i])
        best = tied[0] if len(tied) == 1 else tied[np.lexsort(maps[i, tied].T[::-1])[0]]
        best_p, best_v = maps[i, best], float(lows[i])
    return (best_p, best_v, values[:, 0].tolist(),
            values[:, 1:].min(axis=1).tolist(), bests[1:].tolist())


def quper_solve(problem, cfg: QuperConfig):
    """Run the full heuristic; returns (best permutation, value, trace)."""
    map_costs, cost_and_grad = _problem_costs(problem)  # its TypeError first
    n = problem.n
    q = n.bit_length() - 1
    if n < 2 or 1 << q != n:
        raise ValueError(f"problem size must be a power of two >= 2, got n={n}")
    check_qubit_guard(q + cfg.m_max)
    per_draw = max(1, ORDER_DRAW_ENTRIES // (RANDOM_ORDER_TRIALS * n))
    lr = cfg.lr or (GIP_LR if isinstance(problem, GipInstance) else DEFAULT_LR)
    rng = np.random.default_rng([cfg.seed])
    order_rng = np.random.default_rng([cfg.seed, 1])  # apart from the θ stream
    trace = QuperTrace([], [])
    best_p: np.ndarray | None = None
    best_v = math.inf
    prev_circuit: Circuit | None = None
    theta: np.ndarray | None = None
    it_global = 0

    for m in range(cfg.m_max + 1):
        circuit = solver_ansatz(cfg.ansatz, q + m)
        if prev_circuit is None:
            theta = rng.uniform(
                math.pi / 2 - 0.05, math.pi / 2 + 0.05, circuit.param_count
            )
        else:
            theta = embed_theta(prev_circuit, circuit, theta)
        state = AdamState.fresh(theta, eta=lr)
        # One forward pass and one loss pass per iterate: U, its tape and
        # dloss/dd feed the next gradient, d the projection and the trace.
        u, d, tape = unitary_and_dsm(circuit, m, state.theta)
        g = loss_pass(d, cost_and_grad)[-1]
        # The incumbent never feeds back into θ, so each draw's k iterates
        # keep their DSMs in one stack and take one incumbent step.
        for start in range(0, cfg.iterations, per_draw):
            k = min(per_draw, cfg.iterations - start)
            orders = random_orders(order_rng, n, k * RANDOM_ORDER_TRIALS)
            orders = orders.reshape(k, RANDOM_ORDER_TRIALS, n)
            ds, passes = np.empty((k, n, n)), []
            for i in range(k):
                state = adam_nesterov_step(
                    state, adjoint_gradient(circuit, m, state.theta, u, tape, g)
                )
                u, ds[i], tape = unitary_and_dsm(circuit, m, state.theta)
                loss, raw_cost, _, g = loss_pass(ds[i], cost_and_grad)
                passes.append((loss, raw_cost))
            best_p, best_v, *costs = best_projection(
                ds, map_costs, orders, best_p, best_v
            )
            for (loss, raw_cost), ph_cost, pr_cost, best in zip(passes, *costs):
                trace.records.append(
                    {
                        "iter": it_global,
                        "m": m,
                        "loss": loss,
                        "raw_cost": raw_cost,
                        "proj_hungarian_cost": ph_cost,
                        "proj_random_cost": pr_cost,
                        "best": best,
                    }
                )
                it_global += 1
        trace.levels.append({"m": m, "value": best_v, "permutation": best_p.tolist()})
        prev_circuit, theta = circuit, state.theta
    return Permutation(tuple(best_p.tolist())), best_v, trace


def random_baseline(problem, iterations: int, seed: int):
    """Best of 50 * ceil(I/10) uniformly random permutations, costed 50 at a
    time; ties go to the first drawn.  They come from a stream of their own,
    default_rng([seed, 2]): default_rng([seed]) is random_gip(n, seed)'s,
    whose first draw is the planted map."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    _check_seed(seed)
    map_costs, _ = _problem_costs(problem)
    rng = np.random.default_rng([seed, 2])
    best_p, best_v = None, math.inf
    for _ in range(math.ceil(iterations / 10)):
        maps = random_orders(rng, problem.n, 50)
        values = map_costs(maps)
        k = int(np.argmin(values))
        if values[k] < best_v:
            best_p, best_v = maps[k], float(values[k])
    return Permutation(tuple(best_p.tolist())), best_v
