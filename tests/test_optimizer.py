"""Loss, gradient, Adam-Nesterov update, driver behavior."""

import itertools
import math
import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quper.circuits import solver_ansatz
from quper import circuits, optimizer
from quper import dsm
from quper.dsm import adjoint_gradient, extract_dsm, unitary_and_dsm
from quper.gf2 import Permutation
from quper.optimizer import (
    AdamState,
    QuperConfig,
    adam_nesterov_step,
    best_projection,
    embed_theta,
    fd_gradient,
    loss_pass,
    quper_solve,
    random_baseline,
    regularizers,
)
from quper.problems import (
    QapInstance,
    gip_cost,
    gip_cost_and_grad,
    qap_cost,
    qap_cost_and_grad,
    qap_map_costs,
    random_gip,
    random_qap,
)
from quper.projection import (
    RANDOM_ORDER_TRIALS,
    order_maps,
    project_hungarian,
    project_random_order,
    random_orders,
)

PI = math.pi


def perm_row_matrix(p):
    return np.eye(p.n)[list(p.map)]


def random_dsm(n, rng, terms=6):
    e = np.zeros((n, n))
    for lam in rng.dirichlet(np.ones(terms)):
        e[np.arange(n), rng.permutation(n)] += lam
    return e


class TestRegularizers:
    def test_permutation_matrix(self, monkeypatch):
        monkeypatch.setattr(optimizer, "ENTROPY_EPS", 1e-300)
        d = np.eye(4)[[1, 0, 3, 2]]
        (st, s_eps, ort), _ = regularizers(d)
        assert st == 0.0
        assert abs(s_eps) <= 1e-12
        assert ort == 0.0

    def test_uniform_2x2(self, monkeypatch):
        monkeypatch.setattr(optimizer, "ENTROPY_EPS", 0.0)
        d = np.full((2, 2), 0.5)
        (st, s_eps, ort), _ = regularizers(d)
        assert st == pytest.approx(0.0)
        assert s_eps == pytest.approx(2 * math.log(2))
        # d^T d = [[.5,.5],[.5,.5]]; (d^T d - I) has entries +-0.5.
        assert ort == pytest.approx(1.0)

    def test_column_sum_deviation(self):
        e = np.eye(3).astype(float)
        e[0, 0] = 1.1
        (st, _, _), _ = regularizers(e)
        assert st == pytest.approx(0.01)


def central_differences(f, x, h):
    """df/dx of a scalar function of the matrix x, entry by entry."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        g[idx] = (f(x + step) - f(x - step)) / (2 * h)
    return g


class TestRegularizerGrad:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1))
    def test_matches_central_differences(self, n, seed):
        # Entries at least 0.01, so the entropy's log is smooth over the step.
        rng = np.random.default_rng(seed)
        d = 0.9 * random_dsm(n, rng) + 0.1 / n + rng.uniform(-0.01, 0.01, (n, n))

        def weighted(x):
            (st_, s_eps, ort), _ = regularizers(x)
            return (
                optimizer.W_ST * st_
                + optimizer.W_ENTROPY * s_eps
                + optimizer.W_ORT * ort
            )

        want = central_differences(weighted, d, 1e-6)
        got = regularizers(d)[1]
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    def test_only_entropy_at_a_permutation(self):
        # st and ort are minimal at a permutation matrix: their gradients vanish.
        d = np.eye(4)[[2, 0, 3, 1]]
        eps = optimizer.ENTROPY_EPS
        ent = -(np.log(d + eps) + d / (d + eps))
        assert np.allclose(regularizers(d)[1], optimizer.W_ENTROPY * ent, atol=1e-15)


def reference_regularizers(d, eps):
    """(st, S_eps, ort) and their weighted gradient, each computed on its own
    as the loss defines them."""
    st_ = float(np.sum((d.sum(axis=0) - 1.0) ** 2))
    s_eps = float(-np.sum(d * np.log(d + eps)))
    ort = float(np.sum((d.T @ d - np.eye(len(d))) ** 2))
    grad = (
        optimizer.W_ST * (2.0 * (d.sum(axis=0) - 1.0))
        + optimizer.W_ENTROPY * -(np.log(d + eps) + d / (d + eps))
        + optimizer.W_ORT * (4.0 * d @ (d.T @ d - np.eye(len(d))))
    )
    return (st_, s_eps, ort), grad


class TestRegularizersFolded:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 8, 16]),
        entries=st.data(),
        eps=st.sampled_from([optimizer.ENTROPY_EPS, 1e-3]),
    )
    def test_equals_the_unfolded_formula(self, n, entries, eps):
        """regularizers folds its constants (2 W_ST, -W_ENTROPY, 4 W_ORT);
        on any matrix in [0, 1] the gradient is the unfolded one bit for
        bit.  Entries are 0 or at least 2^-200, so that no product reaches
        the subnormals, where scaling by a power of two is not exact."""
        value = st.one_of(st.just(0.0), st.floats(2.0**-200, 1.0))
        d = np.array(entries.draw(st.lists(value, min_size=n * n, max_size=n * n)))
        d = d.reshape(n, n)
        with mock.patch.object(optimizer, "ENTROPY_EPS", eps):
            terms, grad = regularizers(d)
        want_terms, want_grad = reference_regularizers(d, eps)
        assert terms == want_terms and np.array_equal(grad, want_grad)


class TestLossPass:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["qap", "gip"]),
        n=st.sampled_from([2, 4, 8]),
        source=st.sampled_from(["mixture", "circuit", "permutation"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_separate_terms(self, kind, n, source, seed):
        # One pass gives bit for bit what the separate calls and formulas
        # give, so the solver's trajectory does not move.
        rng = np.random.default_rng(seed)
        problem = (random_qap if kind == "qap" else random_gip)(n, seed % 1000)
        _, cost_and_grad = optimizer._problem_costs(problem)
        if source == "mixture":
            d = random_dsm(n, rng)
        elif source == "circuit":
            c = solver_ansatz("bruhat", n.bit_length() - 1)
            d = extract_dsm(c, 0, rng.uniform(0, 2 * PI, c.param_count))
        else:
            d = np.eye(n)[rng.permutation(n)]
        loss, raw_cost, terms, grad = loss_pass(d, cost_and_grad)
        assert raw_cost == cost_and_grad(d)[0]
        reg_terms, reg_grad = regularizers(d)
        stoch, s_eps, ort = reg_terms
        assert loss == (raw_cost + optimizer.W_ST * stoch
                        + optimizer.W_ENTROPY * s_eps + optimizer.W_ORT * ort)
        assert terms == reg_terms
        assert np.array_equal(grad, cost_and_grad(d)[1] + reg_grad)
        want_terms, want_reg_grad = reference_regularizers(d, optimizer.ENTROPY_EPS)
        assert terms == want_terms
        assert np.array_equal(reg_grad, want_reg_grad)

    def test_solver_costs_each_iterate_once(self, monkeypatch):
        # levels x (I + 1) iterates: one relaxed cost-and-gradient call and
        # one block build each; the gradient reuses the forward pass's tape.
        relaxed, blocks = [], []
        real_cost, real_blocks = optimizer.qap_cost_and_grad, circuits._blocks
        monkeypatch.setattr(
            optimizer,
            "qap_cost_and_grad",
            lambda *args: relaxed.append(1) or real_cost(*args),
        )
        monkeypatch.setattr(
            circuits, "_blocks", lambda *args: blocks.append(1) or real_blocks(*args)
        )
        quper_solve(random_qap(4, 2), QuperConfig("bruhat", 1, iterations=3))
        assert len(relaxed) == len(blocks) == 2 * (3 + 1)


def solver_loss_grads(problem):
    """The solver's loss and its gradient in the DSM, for a QAP or GIP."""
    if isinstance(problem, QapInstance):
        cost_and_grad = partial(qap_cost_and_grad, problem)
    else:
        cost_and_grad = partial(gip_cost_and_grad, problem)
    return (
        lambda d: loss_pass(d, cost_and_grad)[0],
        lambda d: cost_and_grad(d)[1] + regularizers(d)[1],
    )


class TestAdjointGradient:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["bruhat", "borel", "sel"]),
        q=st.integers(1, 3),
        m=st.integers(0, 2),
        kind=st.sampled_from(["qap", "gip"]),
        binary_frac=st.sampled_from([0.0, 0.3, 0.6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_fd_gradient(self, name, q, m, kind, binary_frac, seed):
        # binary_frac of the slots sit exactly at 0 or pi.
        assume(2 <= q + m <= 4)
        rng = np.random.default_rng(seed)
        if kind == "qap":
            problem = random_qap(1 << q, seed % 1000)
        else:
            problem = random_gip(1 << q, seed % 1000)
        loss, loss_grad = solver_loss_grads(problem)
        c = solver_ansatz(name, q + m)
        theta = rng.uniform(0, 2 * PI, c.param_count)
        binary = rng.random(c.param_count) < binary_frac
        theta[binary] = rng.choice([0.0, PI], np.count_nonzero(binary))
        u, d, tape = unitary_and_dsm(c, m, theta)
        got = adjoint_gradient(c, m, theta, u, tape, loss_grad(d))
        # fd_gradient at h and h/2, extrapolated (Richardson) to cancel the
        # h^2 term: where DSM entries sit at 0 the entropy term curves so
        # sharply that this term alone reaches 1e-5 relative at h = 1e-5.
        f = lambda t: loss(extract_dsm(c, m, t))
        want = (4 * fd_gradient(f, theta, 0.5e-5) - fd_gradient(f, theta, 1e-5)) / 3
        # The differences' rounding noise, about 1e-16 / h = 1e-11 times the
        # loss's scale, is the floor where the gradient itself vanishes (n = 2
        # at 0 or pi, or a GIP solved exactly).
        noise = 1e-9 * max(1.0, abs(loss(extract_dsm(c, m, theta))))
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want)) + noise

    def test_solver_does_not_call_fd_gradient(self, monkeypatch):
        def no_fd(*args, **kwargs):
            pytest.fail("quper_solve called fd_gradient")

        monkeypatch.setattr(optimizer, "fd_gradient", no_fd)
        quper_solve(random_qap(4, 2), QuperConfig("bruhat", 1, iterations=2))

    def test_solver_builds_one_unitary_per_iterate(self, monkeypatch):
        # Each level builds U at its starting theta, then one per Adam step;
        # the gradient reuses the U and tape of the iterate it starts from.
        built = []
        forward = dsm.forward
        monkeypatch.setattr(
            dsm, "forward", lambda *args: built.append(1) or forward(*args)
        )
        quper_solve(random_qap(4, 2), QuperConfig("bruhat", 1, iterations=3))
        assert len(built) == 2 * (3 + 1)


class TestLoss:
    def test_zero_weights_is_raw_cost(self, monkeypatch):
        for name in ("W_ST", "W_ENTROPY", "W_ORT"):
            monkeypatch.setattr(optimizer, name, 0.0)
        inst = random_qap(4, 0)
        c = solver_ansatz("bruhat", 2)
        theta = np.random.default_rng(0).uniform(0, 2 * PI, c.param_count)
        d = extract_dsm(c, 0, theta)
        cost_and_grad = partial(qap_cost_and_grad, inst)
        assert loss_pass(d, cost_and_grad)[0] == pytest.approx(cost_and_grad(d)[0])


class TestFdGradient:
    def test_sin_sum(self):
        g = fd_gradient(lambda t: np.sum(np.sin(t)), np.zeros(4), 1e-5)
        assert np.max(np.abs(g - 1.0)) <= 1e-8

    def test_constant(self):
        g = fd_gradient(lambda t: 3.0, np.ones(3), 1e-5)
        assert np.array_equal(g, np.zeros(3))

    def test_step_halving_on_loss(self):
        cost_and_grad = partial(qap_cost_and_grad, random_qap(4, 1))
        c = solver_ansatz("bruhat", 3)
        rng = np.random.default_rng(2)

        def f(theta):
            return loss_pass(extract_dsm(c, 1, theta), cost_and_grad)[0]

        for _ in range(5):
            theta = rng.uniform(0, 2 * PI, c.param_count)
            g1 = fd_gradient(f, theta, 1e-5)
            g2 = fd_gradient(f, theta, 0.5e-5)
            rel = np.max(np.abs(g1 - g2)) / max(1e-9, np.max(np.abs(g2)))
            assert rel <= 1e-4

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda t: 0.0, np.zeros(2), 0.0)


def fd_gradient_loop(f, theta, h=1e-5):
    """Reference for fd_gradient: one coordinate, two calls of f at a time."""
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        hi, lo = f(theta + step), f(theta - step)
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError("non-finite loss value in gradient")
        g[i] = (hi - lo) / (2 * h)
    return g


class TestStackedFdGradient:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(["bruhat", "borel", "sel"]),
        q=st.sampled_from([2, 3]),
        m=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_coordinate_loop(self, name, q, m, seed):
        cost_and_grad = partial(qap_cost_and_grad, random_qap(1 << q, seed % 1000))
        c = solver_ansatz(name, q + m)
        theta = np.random.default_rng(seed).uniform(0, 2 * PI, c.param_count)

        def f(t):
            return loss_pass(extract_dsm(c, m, t), cost_and_grad)[0]

        got = fd_gradient(f, theta)
        want = fd_gradient_loop(f, theta)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_evaluation_points(self):
        theta = np.array([0.5, -1.25, 3.0])
        seen = []
        fd_gradient(lambda t: seen.append(t.copy()) or 0.0, theta, 0.1)
        ts = np.array(seen)
        assert ts.shape == (6, 3)
        assert np.array_equal(ts[:3], theta + 0.1 * np.eye(3))
        assert np.array_equal(ts[3:], theta - 0.1 * np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_loss(self, bad):
        # Only the last point, theta - h e_2, has a negative last coordinate.
        def f(t):
            return bad if t[-1] < 0 else 0.0

        with pytest.raises(ValueError, match="non-finite"):
            fd_gradient(f, np.zeros(3))


class TestAdamNesterov:
    def test_zero_gradient_noop(self):
        s = AdamState.fresh(np.array([1.0, -2.0]))
        s2 = adam_nesterov_step(s, np.zeros(2))
        assert np.array_equal(s2.theta, s.theta)
        assert s2.k == 2

    def test_golden_first_step(self):
        s = AdamState.fresh(np.array([0.0]))
        s2 = adam_nesterov_step(s, np.array([1.0]))
        mu_hat = 0.9 / (1 - 0.9**2) * 0.1 + (1 - 0.9) / (1 - 0.9) * 1.0
        nu_hat = 0.001 / (1 - 0.999)
        expected = -0.005 * mu_hat / (math.sqrt(nu_hat) + 1e-8)
        assert s2.theta[0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(-0.007368421, abs=1e-9)

    def test_degenerate_betas_sign_scaled_descent(self, monkeypatch):
        monkeypatch.setattr(optimizer, "BETA1", 0.0)
        monkeypatch.setattr(optimizer, "BETA2", 0.0)
        s = AdamState(np.array([1.0, -1.0]), np.zeros(2), np.zeros(2), k=1, eta=0.1)
        g = np.array([2.0, -3.0])
        s2 = adam_nesterov_step(s, g)
        expected = s.theta - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(s2.theta, expected, atol=1e-12)

    def test_momentum_decay(self):
        s = AdamState.fresh(np.array([0.0]))
        s = adam_nesterov_step(s, np.array([1.0]))
        deltas = []
        for _ in range(2):
            prev = s.theta.copy()
            s = adam_nesterov_step(s, np.zeros(1))
            deltas.append(abs((s.theta - prev).item()))
        assert deltas[1] < deltas[0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adam_nesterov_step(AdamState.fresh(np.zeros(2)), np.zeros(3))


class TestEmbedTheta:
    def test_nesting_reproduces_dsm_exactly(self, monkeypatch):
        monkeypatch.setattr(optimizer, "PAD_ANGLE", 0.0)
        rng = np.random.default_rng(3)
        for name in ("bruhat", "borel"):
            small = solver_ansatz(name, 3)
            big = solver_ansatz(name, 4)
            theta0 = rng.uniform(0, 2 * PI, small.param_count)
            theta1 = embed_theta(small, big, theta0)
            d0 = extract_dsm(small, 0, theta0)
            d1 = extract_dsm(big, 1, theta1)
            assert np.array_equal(d0, d1)

    def test_fill_value(self):
        small = solver_ansatz("bruhat", 2)
        big = solver_ansatz("bruhat", 3)
        theta = embed_theta(small, big, np.zeros(small.param_count))
        new_slots = big.param_count - small.param_count
        assert np.sum(theta == PI / 8) == new_slots

    def test_rejects_old_theta_of_another_shape(self):
        small, big = solver_ansatz("bruhat", 2), solver_ansatz("bruhat", 3)
        ell = small.param_count
        for shape in [(ell - 1,), (ell + 1,), (1, ell), ()]:
            want = f"old_theta must have {ell} parameters, got shape {shape}"
            with pytest.raises(ValueError, match=re.escape(want)):
                embed_theta(small, big, np.zeros(shape))


def per_map(cost):
    """Map costs from a per-permutation cost: one value per row of the
    (K, n) int maps, in row order."""
    return lambda maps: np.array([cost(Permutation(tuple(m))) for m in maps.tolist()])


def inline_incumbent_step(d, cost, seed, best_p, best_v):
    """Reference for best_projection: the incumbent step as quper_solve once
    inlined it, costing every candidate twice, one Permutation at a time."""
    ph = Permutation(tuple(project_hungarian(d).tolist()))
    ph_cost = float(cost(ph))
    rand = {Permutation(tuple(r)) for r in project_random_order(d, seed).tolist()}
    pr_cost = min(float(cost(p)) for p in rand)
    for p in sorted(rand | {ph}, key=lambda p: p.map):
        v = float(cost(p))
        if v < best_v:
            best_p, best_v = p, v
    return best_p, best_v, ph_cost, pr_cost


def incumbent_steps(ds, cost, seeds, best_p, best_v):
    """Reference for best_projection on a chunk: inline_incumbent_step
    applied iterate by iterate, each at its own seed, with the incumbent
    carried through; the per-iterate costs and incumbent values as lists."""
    ph_costs, pr_costs, bests = [], [], []
    for d, seed in zip(ds, seeds):
        best_p, best_v, ph_cost, pr_cost = inline_incumbent_step(
            d, cost, seed, best_p, best_v
        )
        ph_costs.append(ph_cost)
        pr_costs.append(pr_cost)
        bests.append(best_v)
    return best_p, best_v, ph_costs, pr_costs, bests


class TestBestProjection:
    def test_optimal_permutation_dsm(self):
        # Cost is minimized by the permutation the DSM already encodes.
        p = Permutation((1, 2, 3, 0))
        d = perm_row_matrix(p)
        cost = lambda x: 0.0 if x == p else 1.0
        orders = random_orders(7, 4, RANDOM_ORDER_TRIALS)
        best_p, best_v, ph_costs, pr_costs, bests = best_projection(
            d[None], per_map(cost), orders[None]
        )
        assert best_p.tolist() == list(p.map) and best_v == 0.0
        assert ph_costs == pr_costs == bests == [0.0]

    def test_never_worse_than_hungarian(self):
        rng = np.random.default_rng(8)
        w = rng.uniform(0, 10, (6, 6))

        def cost(p):
            return float(w[np.arange(6), list(p.map)].sum())

        ds = np.stack([random_dsm(6, rng) for _ in range(10)])
        orders = random_orders(9, 6, 10 * RANDOM_ORDER_TRIALS).reshape(10, -1, 6)
        _, v, ph_costs, pr_costs, bests = best_projection(ds, per_map(cost), orders)
        for d, ph_cost, pr_cost, best in zip(ds, ph_costs, pr_costs, bests):
            ph = Permutation(tuple(project_hungarian(d).tolist()))
            assert best <= cost(ph) + 1e-12
            assert ph_cost == cost(ph)
        lows = np.minimum(ph_costs, pr_costs)
        assert bests == np.minimum.accumulate(lows).tolist() and v == bests[-1]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 8]),
        k=st.integers(1, 4),
        dsm_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=8, k=1, dsm_seed=10, seed=11)
    def test_one_cost_call_covers_every_candidate(self, n, k, dsm_seed, seed):
        # One call on a (k (T + 1), n) int array of maps: per iterate, the
        # Hungarian map, then the map of each of its 50 random-order trials,
        # in trial order, duplicates kept.
        rng = np.random.default_rng(dsm_seed)
        ds = np.stack([random_dsm(n, rng) for _ in range(k)])
        calls = []
        orders = random_orders(seed, n, k * RANDOM_ORDER_TRIALS).reshape(k, -1, n)
        best_projection(ds, lambda x: calls.append(x) or np.zeros(len(x)), orders)
        assert len(calls) == 1
        maps = calls[0]
        assert maps.shape == (k * 51, n) and maps.dtype.kind == "i"
        for i, d in enumerate(ds):
            rand = order_maps(d[None], orders[i][None])[0].tolist()
            assert maps[51 * i : 51 * i + 51].tolist() == [
                project_hungarian(d).tolist(), *rand
            ]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([4, 8]),
        k=st.integers(1, 5),
        dsm_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        incumbent=st.sampled_from([math.inf, 0.0, 3.0, 6.0]),
    )
    # The Hungarian map ties with a random-order map that comes first in map
    # order, which must win.
    @example(n=4, k=1, dsm_seed=9, seed=9, incumbent=math.inf)
    def test_matches_inline_incumbent_step(self, n, k, dsm_seed, seed, incumbent):
        # A chunk of k iterates, each with its own orders, against the step
        # applied iterate by iterate.  Costs in 0..2 per row make ties
        # between candidates, and between iterates, common.
        rng = np.random.default_rng(dsm_seed)
        w = rng.integers(0, 3, (n, n))
        ds = np.stack([random_dsm(n, rng) for _ in range(k)])

        def cost(p):
            return float(w[np.arange(n), list(p.map)].sum())

        seeds = [seed + i for i in range(k)]
        start = Permutation.identity(n)
        want = incumbent_steps(ds, cost, seeds, start, incumbent)
        orders = np.stack([random_orders(s, n, RANDOM_ORDER_TRIALS) for s in seeds])
        best_p, *got = best_projection(
            ds, per_map(cost), orders, np.arange(n), incumbent
        )
        assert (Permutation(tuple(best_p.tolist())), *got) == want

    def test_all_tied_picks_the_smallest_map(self):
        # W = 0 at n = 16, as in esc16f: every candidate costs 0, and the
        # pick is the lexicographically smallest map of the first iterate,
        # the first of equals; the second iterate does not beat it.
        rng = np.random.default_rng(16)
        inst = QapInstance(np.zeros((16, 16)), rng.uniform(0, 10, (16, 16)))
        ds = np.stack([random_dsm(16, rng) for _ in range(2)])
        orders = random_orders(3, 16, 2 * RANDOM_ORDER_TRIALS).reshape(2, -1, 16)
        calls = []
        p, v, *costs = best_projection(
            ds, lambda maps: calls.append(maps) or qap_map_costs(inst, maps), orders
        )
        (maps,) = calls
        first = maps[:51].tolist()
        assert len({tuple(m) for m in first}) > 1
        assert p.tolist() == min(first) and v == 0.0
        assert costs == [[0.0, 0.0]] * 3
        # An incumbent at 0.0 is not beaten: it comes back as it went in.
        incumbent = np.arange(16)
        kept = best_projection(ds, partial(qap_map_costs, inst), orders, incumbent, 0.0)
        assert kept[0] is incumbent and kept[1:] == (0.0, *costs)

    def test_no_tie_break_unless_the_incumbent_is_beaten(self, monkeypatch):
        # Every candidate of every iterate ties; lexsort runs only when
        # their value is below the incumbent's.
        inst = QapInstance(np.zeros((8, 8)), np.ones((8, 8)))
        rng = np.random.default_rng(8)
        ds = np.stack([random_dsm(8, rng) for _ in range(3)])
        orders = random_orders(8, 8, 3 * RANDOM_ORDER_TRIALS).reshape(3, -1, 8)
        costs = partial(qap_map_costs, inst)

        def lexsort(*args):
            raise AssertionError("tie-break ran")

        monkeypatch.setattr(np, "lexsort", lexsort)
        incumbent = np.arange(8)
        for best_v in (0.0, -1.0):
            got = best_projection(ds, costs, orders, incumbent, best_v)
            assert got[0] is incumbent and got[1] == best_v
            assert got[-1] == [best_v] * 3
        with pytest.raises(AssertionError, match="tie-break ran"):
            best_projection(ds, costs, orders, incumbent, 1.0)


class TestQuperConfig:
    @pytest.mark.parametrize("field", ["m_max", "iterations", "seed"])
    @pytest.mark.parametrize("value", [2.5, 1.0, "1", None, np.float64(3.0)])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            QuperConfig(**{field: value})

    def test_accepts_numpy_integers_as_ints(self):
        cfg = QuperConfig(m_max=np.int64(1), iterations=np.int32(3), seed=np.uint8(7))
        assert (cfg.m_max, cfg.iterations, cfg.seed) == (1, 3, 7)
        assert all(type(v) is int for v in (cfg.m_max, cfg.iterations, cfg.seed))

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_rejects_bad_lr(self, lr):
        with pytest.raises(ValueError, match="lr"):
            QuperConfig(lr=lr)

    @pytest.mark.parametrize("lr", [None, 0.4, 1e-6])
    def test_accepts_good_lr(self, lr):
        assert QuperConfig(lr=lr).lr == lr

    @pytest.mark.parametrize("seed", [-1, np.int64(-3)])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            QuperConfig(seed=seed)

    @pytest.mark.parametrize("ansatz", ["nope", "LX", "Bruhat", ""])
    def test_rejects_unknown_ansatz(self, ansatz):
        want = f"ansatz must be one of bruhat, borel, sel, got {ansatz!r}"
        with pytest.raises(ValueError, match=want):
            QuperConfig(ansatz=ansatz)

    @pytest.mark.parametrize("ansatz", circuits.SOLVER_ANSATZE)
    def test_accepts_each_solver_ansatz(self, ansatz):
        assert QuperConfig(ansatz=ansatz).ansatz == ansatz


class TestQuperSolve:
    def test_trivial_zero_qap(self):
        inst = QapInstance(np.zeros((4, 4)), np.zeros((4, 4)))
        p, v, trace = quper_solve(
            inst, QuperConfig("bruhat", 0, iterations=2, seed=0)
        )
        assert v == 0.0

    def test_monotone_best_and_determinism(self):
        # A multi-level solve of another size and ansatz between two runs
        # shares the per-process circuits, layouts and slot maps: each
        # solve's result and trace stay those of it run alone.
        inst = random_qap(4, 4)
        cfg = QuperConfig("bruhat", 1, iterations=20, seed=5)
        other = random_gip(8, 2), QuperConfig("sel", 1, iterations=3, seed=1)
        o1 = quper_solve(*other)
        p1, v1, t1 = quper_solve(inst, cfg)
        bests = [r["best"] for r in t1.records]
        assert all(b <= a for a, b in zip(bests, bests[1:]))
        o2 = quper_solve(*other)
        p2, v2, t2 = quper_solve(inst, cfg)
        assert (p1, v1) == (p2, v2)
        assert t1.records == t2.records and t1.levels == t2.levels
        assert o1[:2] == o2[:2] and o1[2].records == o2[2].records

    def test_incumbent_at_least_optimum(self):
        inst = random_qap(4, 6)
        opt = min(
            qap_cost(inst, Permutation(p))
            for p in itertools.permutations(range(4))
        )
        _, v, _ = quper_solve(inst, QuperConfig("bruhat", 0, 20, seed=1))
        assert v >= opt - 1e-9

    def test_non_power_of_two_rejected(self):
        inst = QapInstance(np.zeros((6, 6)), np.zeros((6, 6)))
        with pytest.raises(ValueError):
            quper_solve(inst, QuperConfig("bruhat", 0, 1, seed=0))

    @pytest.mark.parametrize("n", [0, 1])
    def test_size_below_two_rejected(self, n):
        inst = QapInstance(np.zeros((n, n)), np.zeros((n, n)))
        with pytest.raises(ValueError, match=f"power of two >= 2, got n={n}"):
            quper_solve(inst, QuperConfig("bruhat", 0, 1, seed=0))

    def test_no_permutation_object_inside_the_loop(self, monkeypatch):
        # The incumbent is an int map; one Permutation is built, on return.
        built = []
        real = optimizer.Permutation
        monkeypatch.setattr(
            optimizer, "Permutation", lambda m: built.append(m) or real(m)
        )
        cfg = QuperConfig("bruhat", 1, 5, seed=3)
        p, v, trace = quper_solve(random_qap(4, 3), cfg)
        assert built == [p.map]
        assert trace.levels[-1]["permutation"] == list(p.map)
        assert all(type(i) is int for i in trace.levels[-1]["permutation"])

    @pytest.mark.parametrize("kind", ["qap", "gip"])
    def test_one_order_stream_per_solve(self, kind, monkeypatch):
        # Iterate t's candidates, over both levels: the Hungarian map of its
        # DSM d_t, then the order_maps of d_t at rows 50t..50t+49 of one
        # random_orders draw from default_rng([seed, 1]).  The same with
        # draws of 3 iterates' orders and of 1 (the bound below one
        # iterate's 200 entries), which iterates and levels cross: one
        # incumbent step and one cost call per draw.
        real = optimizer.best_projection
        problem = random_qap(4, 5) if kind == "qap" else random_gip(4, 5)
        seed, iters = 6, 4
        stream = random_orders(np.random.default_rng([seed, 1]), 4, 50 * 2 * iters)
        runs = []
        chunks = {optimizer.ORDER_DRAW_ENTRIES: [4, 4], 3 * 50 * 4: [3, 1, 3, 1],
                  1: [1] * 8}
        for entries, sizes in chunks.items():
            seen = []

            def recorded(ds, map_costs, orders, best_p, best_v):
                calls = []
                out = real(
                    ds, lambda maps: calls.append(maps) or map_costs(maps), orders,
                    best_p, best_v,
                )
                seen.append((ds, *calls))
                return out

            monkeypatch.setattr(optimizer, "best_projection", recorded)
            monkeypatch.setattr(optimizer, "ORDER_DRAW_ENTRIES", entries)
            runs.append(quper_solve(problem, QuperConfig("bruhat", 1, iters, seed=seed)))
            assert [len(ds) for ds, _ in seen] == sizes
            iterates = [(d, maps[51 * i : 51 * i + 51])
                        for ds, maps in seen for i, d in enumerate(ds)]
            assert len(iterates) == 2 * iters
            for t, (d, maps) in enumerate(iterates):
                rand = order_maps(d[None], stream[None, 50 * t : 50 * t + 50])[0]
                want = np.concatenate((project_hungarian(d)[None], rand))
                assert np.array_equal(maps, want)
        assert all(run[2].records == runs[0][2].records for run in runs)

    def test_trace_schema(self):
        inst = random_qap(4, 7)
        _, _, trace = quper_solve(inst, QuperConfig("bruhat", 0, 3, seed=2))
        keys = {
            "iter",
            "m",
            "loss",
            "raw_cost",
            "proj_hungarian_cost",
            "proj_random_cost",
            "best",
        }
        assert all(set(r) == keys for r in trace.records)
        assert len(trace.levels) == 1


@pytest.mark.parametrize("call", [
    lambda problem: quper_solve(problem, QuperConfig(iterations=1)),
    lambda problem: random_baseline(problem, 1, 0),
], ids=["quper_solve", "random_baseline"])
def test_a_non_instance_is_a_type_error(call):
    with pytest.raises(TypeError, match="^problem must be a QapInstance or GipInstance$"):
        call("x")


class TestRandomBaseline:
    def test_trial_count_formula(self):
        # 50 * ceil(I / 10): I = 1000 means 5000 trials.
        assert 50 * math.ceil(1000 / 10) == 5000

    def test_finds_n4_optimum(self):
        inst = random_qap(4, 8)
        opt = min(
            qap_cost(inst, Permutation(p))
            for p in itertools.permutations(range(4))
        )
        _, v = random_baseline(inst, 1000, seed=3)
        assert v == pytest.approx(opt)

    def test_never_below_optimum(self):
        inst = random_qap(4, 9)
        opt = min(
            qap_cost(inst, Permutation(p))
            for p in itertools.permutations(range(4))
        )
        _, v = random_baseline(inst, 10, seed=4)
        assert v >= opt - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["qap", "qap_ties", "gip"]),
        n=st.sampled_from([4, 8]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**31 - 1),
        iterations=st.sampled_from([1, 10, 95]),
    )
    def test_matches_per_trial_loop(self, kind, n, data_seed, seed, iterations):
        # Small integer costs (qap_ties, gip) make ties between trials common,
        # so the first minimum must win as in the loop.
        if kind == "qap":
            problem = random_qap(n, data_seed)
        elif kind == "qap_ties":
            rng = np.random.default_rng(data_seed)
            w, d = rng.integers(0, 2, (2, n, n))
            problem = QapInstance(w, d)
        else:
            problem = random_gip(n, data_seed)
        want = random_baseline_loop(problem, iterations, seed)
        assert random_baseline(problem, iterations, seed) == want

    def test_one_cost_call_per_block_of_50(self, monkeypatch):
        calls = []
        real = optimizer.qap_map_costs

        def counted(inst, maps):
            calls.append(maps.shape)
            return real(inst, maps)

        monkeypatch.setattr(optimizer, "qap_map_costs", counted)
        random_baseline(random_qap(4, 1), 95, seed=2)
        assert calls == [(50, 4)] * 10

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            random_baseline(random_qap(4, 1), 10, seed=-1)

    @pytest.mark.parametrize("n", [8, 16])
    def test_first_draw_is_not_the_planted_map(self, n, monkeypatch):
        # random_gip(n, s) draws its planted map first from default_rng(s),
        # the stream default_rng([s]) too: a baseline run at the instance's
        # seed must not start from it.
        drawn = []
        real = optimizer.gip_map_costs
        monkeypatch.setattr(
            optimizer,
            "gip_map_costs",
            lambda inst, maps: drawn.append(maps) or real(inst, maps),
        )
        for s in range(20):
            inst = random_gip(n, s)
            drawn.clear()
            random_baseline(inst, 10, seed=s)
            assert len(drawn) == 1 and drawn[0].shape == (50, n)
            assert not (drawn[0] == inst.planted.map).all(axis=1).any()


def random_baseline_loop(problem, iterations, seed):
    """Reference for random_baseline: one trial and one Permutation cost call
    at a time, keeping the first strict minimum."""
    if isinstance(problem, QapInstance):
        cost = lambda p: qap_cost(problem, p)
    else:
        cost = lambda p: gip_cost(problem, p)
    trials = 50 * math.ceil(iterations / 10)
    rng = np.random.default_rng([seed, 2])
    best_p, best_v = None, math.inf
    for _ in range(trials):
        p = Permutation(tuple(int(v) for v in rng.permutation(problem.n)))
        v = float(cost(p))
        if v < best_v:
            best_p, best_v = p, v
    return best_p, best_v
