"""QAP/GIP costs, the GIP-to-QAP reduction, generators, QAPLIB parsing."""

import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quper import problems
from quper.gf2 import Permutation, recognize_affine, reverse_bits
from quper.problems import (
    GipInstance,
    _affine_permutation,
    QapInstance,
    gip_cost,
    gip_cost_and_grad,
    gip_map_costs,
    gip_to_qap,
    load_qaplib,
    normalized_heuristic_gap,
    parse_adjacency_csv,
    parse_edge_list,
    parse_qaplib,
    parse_sln,
    qap_cost,
    qap_cost_and_grad,
    qap_map_costs,
    random_gip,
    random_qap,
    relative_optimality_gap,
)

DATA = Path(__file__).parent / "data"

# sha256 of random_qap and random_gip (both modes) at n = 2, 4, 8, 16 and
# seeds 0..99: see TestGenerators.test_instances_are_pinned.
INSTANCE_DIGEST = "6cca6a6be39ed6efb036e5582ccbc264f01913a93fbfc311e964451b039342c0"


def adjacency(n, edges):
    a = np.zeros((n, n), dtype=int)
    for u, v in edges:
        a[u][v] = a[v][u] = 1
    return a


# A known isomorphic pair on 8 vertices with isomorphism (4 6 7 0 1 3 5 2).
A_EDGES = [
    (0, 4), (0, 5), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
    (1, 7), (2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 5), (4, 6), (5, 6),
]
B_EDGES = [
    (0, 2), (0, 5), (0, 6), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4),
    (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (5, 6), (5, 7), (6, 7),
]
ISO = Permutation((4, 6, 7, 0, 1, 3, 5, 2))


class TestQapCost:
    def test_identity_permutation(self):
        inst = random_qap(5, 0)
        assert qap_cost(inst, Permutation.identity(5)) == pytest.approx(
            float(np.trace(inst.w @ inst.d.T))
        )

    def test_zero_matrices(self):
        inst = QapInstance(np.zeros((4, 4)), np.zeros((4, 4)))
        for p in itertools.permutations(range(4)):
            assert qap_cost(inst, Permutation(p)) == 0.0

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(1)
        inst = random_qap(5, 2)
        for _ in range(10):
            qp = Permutation(tuple(int(v) for v in rng.permutation(5)))
            qm = np.eye(5)[list(qp.map)]
            conj = QapInstance(qm @ inst.w @ qm.T, qm @ inst.d @ qm.T)
            p = Permutation(tuple(int(v) for v in rng.permutation(5)))
            pm = np.eye(5)[list(p.map)]
            assert qap_cost_and_grad(conj, qm @ pm @ qm.T)[0] == pytest.approx(
                qap_cost(inst, p)
            )

    def test_dimension_mismatch(self):
        inst = random_qap(4, 0)
        with pytest.raises(ValueError):
            qap_cost(inst, Permutation.identity(5))


class TestGipCost:
    def test_equal_graphs_identity(self):
        a = adjacency(8, A_EDGES)
        inst = GipInstance(a, a)
        assert gip_cost(inst, Permutation.identity(8)) == 0.0

    def test_known_isomorphic_pair(self):
        inst = GipInstance(adjacency(8, A_EDGES), adjacency(8, B_EDGES))
        assert gip_cost(inst, ISO) == 0.0

    def test_planted_instance(self):
        inst = random_gip(8, 3)
        assert gip_cost(inst, inst.planted) == 0.0


def central_differences(f, x, h=1e-6):
    """df/dx of a scalar function of the matrix x, entry by entry."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        g[idx] = (f(x + step) - f(x - step)) / (2 * h)
    return g


def grad_tolerance(want, value):
    """rel 1e-6, with a floor for the central differences' rounding noise
    (about 1e-16 / h = 1e-10 times the cost's scale), which is all there is
    where the gradient vanishes (a GIP on two empty graphs)."""
    return 1e-6 * np.max(np.abs(want)) + 1e-9 * max(1.0, abs(value))


def random_dsm(n, rng, terms=6):
    d = np.zeros((n, n))
    for lam in rng.dirichlet(np.ones(terms)):
        d[np.arange(n), rng.permutation(n)] += lam
    return d


class TestCostGradients:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1))
    def test_qap_matches_central_differences(self, n, seed):
        inst = random_qap(n, seed % 1000)
        d = random_dsm(n, np.random.default_rng(seed))
        want = central_differences(lambda x: qap_cost_and_grad(inst, x)[0], d)
        cost, got = qap_cost_and_grad(inst, d)
        assert np.max(np.abs(got - want)) <= grad_tolerance(want, cost)
        # One shared product gives bit for bit the cost and the closed form.
        assert cost == float(np.trace(inst.w @ d @ inst.d.T @ d.T))
        assert np.array_equal(got, inst.w.T @ d @ inst.d + inst.w @ d @ inst.d.T)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1))
    def test_gip_matches_central_differences(self, n, seed):
        inst = random_gip(n, seed % 1000)
        d = random_dsm(n, np.random.default_rng(seed))
        want = central_differences(lambda x: gip_cost_and_grad(inst, x)[0], d)
        cost, got = gip_cost_and_grad(inst, d)
        assert np.max(np.abs(got - want)) <= grad_tolerance(want, cost)
        assert cost == float(np.sum((inst.a - d @ inst.b @ d.T) ** 2))
        r = inst.a - d @ inst.b @ d.T
        assert np.array_equal(got, -2.0 * (r @ d @ inst.b.T + r.T @ d @ inst.b))

    def test_gip_grad_vanishes_at_the_planted_isomorphism(self):
        inst = random_gip(8, 5)
        pm = np.eye(8)[list(inst.planted.map)]
        assert gip_cost_and_grad(inst, pm)[0] == 0.0
        assert np.array_equal(gip_cost_and_grad(inst, pm)[1], np.zeros((8, 8)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qap_cost_and_grad(random_qap(4, 0), np.eye(5))
        with pytest.raises(ValueError):
            gip_cost_and_grad(random_gip(4, 0), np.eye(5))


class TestStackedCost:
    def test_stack_dimension_mismatch(self):
        # The relaxed costs take one (n, n) matrix: a (K, n, n) stack is
        # rejected, even one of the instance's n.
        for inst, cost in (
            (random_qap(4, 0), qap_cost_and_grad),
            (random_gip(4, 0), gip_cost_and_grad),
        ):
            for bad in (
                np.zeros((2, 4, 4)),
                np.zeros((2, 5, 5)),
                np.zeros((2, 4, 5)),
                np.zeros((1, 2, 4, 4)),
            ):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    cost(inst, bad)


def map_cost_problem(kind, n, seed):
    """A QAP with float data, a QAP with 0/1 data (qap_ties: many equal
    costs), or a GIP, with its map costs and per-Permutation cost."""
    if kind == "qap":
        return random_qap(n, seed), qap_map_costs, qap_cost
    if kind == "qap_ties":
        w, d = np.random.default_rng(seed).integers(0, 2, (2, n, n))
        return QapInstance(w, d), qap_map_costs, qap_cost
    return random_gip(n, seed), gip_map_costs, gip_cost


class TestMapCosts:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["qap", "qap_ties", "gip"]),
        n=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 60),
    )
    def test_equal_permutation_costs_and_the_one_hot_stack(self, kind, n, seed, k):
        inst, map_costs, cost = map_cost_problem(kind, n, seed)
        rng = np.random.default_rng(seed)
        maps = np.array([rng.permutation(n) for _ in range(k)])
        got = map_costs(inst, maps)
        assert got.shape == (k,)
        # Exactly: a Permutation is costed through the same gather.
        assert got.tolist() == [cost(inst, Permutation(tuple(m))) for m in maps.tolist()]
        if kind == "gip":
            # The GIP's sum over A's edges, bit for bit the written-out
            # residual sum.
            assert got.tolist() == residual_sums(inst, maps)
        # The one-hot matrices sum in another order: exact on the GIP's 0/1
        # entries, to rounding on float data.
        relaxed = gip_cost_and_grad if kind == "gip" else qap_cost_and_grad
        one_hot = [relaxed(inst, m)[0] for m in np.eye(n)[maps]]
        if kind == "gip":
            assert got.tolist() == one_hot
        else:
            assert np.allclose(got, one_hot, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["qap", "gip"])
    def test_wrong_size_raises_value_error(self, kind):
        inst, map_costs, cost = map_cost_problem(kind, 4, 0)
        for bad in (
            np.zeros((2, 5), int),
            np.zeros((2, 3), int),
            np.zeros(4, int),
            np.zeros((1, 2, 4), int),
        ):
            with pytest.raises(ValueError, match="dimension mismatch"):
                map_costs(inst, bad)
        for n in (3, 5):
            with pytest.raises(ValueError, match="dimension mismatch"):
                cost(inst, Permutation.identity(n))

    @pytest.mark.parametrize("kind", ["qap", "gip"])
    def test_no_maps_no_costs(self, kind):
        inst, map_costs, _ = map_cost_problem(kind, 4, 0)
        assert map_costs(inst, np.zeros((0, 4), int)).shape == (0,)


def residual_sums(inst, maps):
    """sum_ij (A_ij - B[p_i, p_j])^2 written out, one map at a time."""
    a, b = inst.a, inst.b
    return [float(((a - b[m][:, m]) ** 2).sum()) for m in maps]


def dense_qap_costs(inst, maps):
    """The QAP map costs in one gather of every map, with no blocks."""
    n = inst.n
    gathered = inst.d[maps[:, :, None], maps[:, None, :]].reshape(len(maps), n * n)
    return (inst.w.ravel() * gathered).sum(axis=1)


class TestBlockedGather:
    @pytest.mark.parametrize("kind", ["qap", "gip"])
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_block_edges_cost_what_one_gather_does(self, kind, n):
        # B maps fill one block; K = 1, B, B + 1 and 3B + 5 cross none, one
        # and three block edges.
        inst, map_costs, _ = map_cost_problem(kind, n, n)
        edges = int(np.triu(inst.a).sum()) if kind == "gip" else n * n
        block = problems.GATHER_BLOCK_ENTRIES // max(1, edges)
        rng = np.random.default_rng(n)
        for k in (1, block, block + 1, 3 * block + 5):
            maps = np.array([rng.permutation(n) for _ in range(k)])
            got = map_costs(inst, maps)
            if kind == "gip":
                assert got.tolist() == residual_sums(inst, maps)
            else:
                assert got.tobytes() == dense_qap_costs(inst, maps).tobytes()

    def test_blocks_hold_at_most_the_bound(self):
        sizes = []
        maps = np.zeros((3 * 32 + 5, 16), int)
        problems._blocked(lambda b: sizes.append(len(b)) or np.zeros(len(b)), maps,
                          16, 16 * 16)
        assert problems.GATHER_BLOCK_ENTRIES == 32 * 16 * 16
        assert sizes == [32, 32, 32, 5]

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros((8, 8), int),  # edgeless: no entry of B is gathered
            1 - np.eye(8, dtype=int),  # complete
            np.array([[0, 1], [1, 0]]),  # n = 2
            np.zeros((2, 2), int),
        ],
        ids=["edgeless", "complete", "n2_edge", "n2_edgeless"],
    )
    def test_gip_on_edges_equals_the_residual_sum(self, a):
        n = len(a)
        rng = np.random.default_rng(n)
        upper = np.triu(rng.integers(0, 2, (n, n)), 1)
        for b in (upper + upper.T, a, 1 - np.eye(n, dtype=int)):
            inst = GipInstance(a, b)
            maps = np.array(list(itertools.permutations(range(n)))[:200])
            got = gip_map_costs(inst, maps)
            assert got.tolist() == residual_sums(inst, maps)


class TestGipToQap:
    def test_identity_holds_100_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            inst = random_gip(6, int(rng.integers(0, 1 << 30)))
            qap = gip_to_qap(inst)
            p = Permutation(tuple(int(v) for v in rng.permutation(6)))
            lhs = gip_cost(inst, p)
            rhs = (
                np.trace(inst.a.T @ inst.a)
                + np.trace(inst.b.T @ inst.b)
                + 2 * qap_cost(qap, p)
            )
            assert abs(lhs - rhs) <= 1e-9

    def test_zero_graphs(self):
        z = np.zeros((4, 4), dtype=int)
        qap = gip_to_qap(GipInstance(z, z))
        assert np.array_equal(qap.w, z) and np.array_equal(qap.d, z)


class TestParsing:
    def test_toy_file(self):
        inst = parse_qaplib((DATA / "toy2.dat").read_text())
        assert inst.n == 2
        assert np.array_equal(inst.w, [[0, 1], [1, 0]])
        assert np.array_equal(inst.d, [[0, 2], [2, 0]])

    def test_token_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_qaplib("2 0 1 1 0 0 2")

    def test_non_integer_token(self):
        with pytest.raises(ValueError):
            parse_qaplib("2 0 1 1 0 0 2 x 0")

    def test_bad_n(self):
        with pytest.raises(ValueError):
            parse_qaplib("0")

    def test_sln(self):
        n, value, perm = parse_sln("4 10\n2 1 4 3")
        assert (n, value) == (4, 10.0)
        assert perm == Permutation((1, 0, 3, 2))

    def test_load_with_sln_attaches_optimum(self):
        inst = load_qaplib(
            (DATA / "esc16f.dat").read_text(),
            (DATA / "esc16f.sln").read_text(),
            name="esc16f",
        )
        assert inst.n == 16
        assert inst.known_optimum == 0.0

    def test_role_swap_pinned_by_sln(self):
        # Value stored for P = identity under swapped roles forces the swap.
        w = np.array([[0, 5], [1, 0]])
        d = np.array([[0, 2], [3, 0]])
        dat = "2  0 5 1 0  0 2 3 0"
        swapped_value = float(np.trace(d @ w.T))
        sln = f"2 {int(swapped_value)}\n1 2"
        inst = load_qaplib(dat, sln)
        assert qap_cost(inst, Permutation((0, 1))) == pytest.approx(
            swapped_value
        )

    def test_sln_matching_neither_role_raises(self):
        dat = (DATA / "esc16f.dat").read_text()
        sln = "16 5\n" + " ".join(str(i) for i in range(1, 17))
        message = (
            r"\.sln value 5 matches neither role: its permutation costs 0 as "
            r"given and 0 with W and D swapped"
        )
        with pytest.raises(ValueError, match=message):
            load_qaplib(dat, sln)

    def test_edge_list(self):
        adj = parse_edge_list("3 0 1 1 2")
        assert np.array_equal(adj, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_edge_list_rejects_self_loop(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 1 1")

    @pytest.mark.parametrize("text", ["0", "-3 0 1"])
    def test_edge_list_rejects_vertex_count_below_one(self, text):
        with pytest.raises(ValueError, match="vertex count must be >= 1, got"):
            parse_edge_list(text)

    def test_edge_list_non_integer_token(self):
        with pytest.raises(ValueError, match="non-integer token in edge list"):
            parse_edge_list("3 0 1 1 x")

    def test_adjacency_csv(self):
        adj = parse_adjacency_csv("0,1\n1,0")
        assert np.array_equal(adj, [[0, 1], [1, 0]])

    def test_adjacency_csv_ragged_row_named(self):
        # Blank lines are skipped but still counted in the line numbers.
        with pytest.raises(ValueError, match="line 4 has 2 entries, expected 3"):
            parse_adjacency_csv("0,1,0\n1,0,1\n\n0,1\n")


class TestGenerators:
    def test_random_qap_deterministic(self):
        a, b = random_qap(5, 11), random_qap(5, 11)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.d, b.d)

    def test_random_qap_range(self):
        inst = random_qap(8, 12)
        assert inst.w.min() >= 0 and inst.w.max() <= 10
        assert inst.d.min() >= 0 and inst.d.max() <= 10

    def test_random_gip_planted_zero(self):
        for seed in range(5):
            inst = random_gip(8, seed)
            assert gip_cost(inst, inst.planted) == 0.0

    def test_span_restricted_planted_is_affine(self):
        for seed in range(5):
            inst = random_gip(8, seed, span_restricted=True)
            assert gip_cost(inst, inst.planted) == 0.0
            assert recognize_affine(inst.planted) is not None

    def test_instances_compare_by_identity(self):
        # Equal draws are distinct instances: == never compares arrays.
        for make in (random_qap, random_gip):
            inst = make(4, 0)
            assert inst == inst
            assert (inst == make(4, 0)) is False
            assert hash(inst) == hash(inst)

    def test_span_restricted_needs_power_of_two(self):
        with pytest.raises(ValueError):
            random_gip(6, 0, span_restricted=True)

    def test_instances_are_pinned(self):
        # Every generated instance, byte for byte: the acceptance criteria's
        # and the benchmark's data.  The digest was recorded before the
        # generators were last rewritten; a change to it changes the data.
        h = hashlib.sha256()
        for n, seed in itertools.product((2, 4, 8, 16), range(100)):
            qap = random_qap(n, seed)
            mats = [qap.w, qap.d]
            maps = []
            for span in (False, True):
                gip = random_gip(n, seed, span_restricted=span)
                mats += [gip.a, gip.b]
                maps.append(gip.planted.map)
            for m in mats:
                h.update(f"{m.dtype.str}{m.shape}".encode())
                h.update(m.tobytes())
            h.update(repr(maps).encode())
        assert h.hexdigest() == INSTANCE_DIGEST

    def test_gip_validation(self):
        with pytest.raises(ValueError):
            GipInstance(np.eye(4, dtype=int), np.zeros((4, 4), dtype=int))

    @pytest.mark.parametrize("label", ["A", "B"])
    @pytest.mark.parametrize(
        "cells, value",
        [
            pytest.param([(0, 1), (1, 0)], 2, id="entry-2"),
            pytest.param([(0, 1), (1, 0)], -1, id="entry-minus-1"),
            pytest.param([(0, 1), (1, 0)], 0.5, id="entry-half"),
            pytest.param([(0, 1), (1, 0)], np.nan, id="entry-nan"),
            pytest.param([(0, 1), (1, 0)], np.inf, id="entry-inf"),
            pytest.param([(0, 2)], 1, id="asymmetric"),
            pytest.param([(2, 2)], 1, id="diagonal"),
        ],
    )
    def test_gip_rejects_a_bad_entry(self, cells, value, label):
        good = adjacency(4, [(0, 3), (1, 2)]).astype(float)
        m = good.copy()
        for cell in cells:
            m[cell] = value
        pair = (m, good) if label == "A" else (good, m)
        message = f"{label} must be a binary symmetric zero-diagonal matrix"
        with pytest.raises(ValueError, match=message):
            GipInstance(*pair)

    @pytest.mark.parametrize("label", ["A", "B"])
    @pytest.mark.parametrize("shape", [(3, 4), (2, 2, 2), (4,)])
    def test_gip_rejects_a_non_square_matrix(self, shape, label):
        good = np.zeros(shape[:1] * 2)
        pair = (np.zeros(shape), good) if label == "A" else (good, np.zeros(shape))
        message = f"{label} must be a binary symmetric zero-diagonal matrix"
        with pytest.raises(ValueError, match=message):
            GipInstance(*pair)

    def test_gip_size_mismatch(self):
        with pytest.raises(
            ValueError,
            match=r"A and B must have the same number of vertices, got 4 and 5",
        ):
            GipInstance(np.zeros((4, 4), dtype=int), np.zeros((5, 5), dtype=int))

    @pytest.mark.parametrize("dtype", [bool, int, float])
    def test_gip_accepts_binary_matrices_of_any_dtype(self, dtype):
        a = adjacency(4, [(0, 3), (1, 2)])
        b = adjacency(4, [(0, 1), (2, 3)])
        inst = GipInstance(a.astype(dtype), b.astype(dtype))
        assert inst.a.dtype == inst.b.dtype == float
        assert np.array_equal(inst.a, a) and np.array_equal(inst.b, b)

    @pytest.mark.parametrize("n, seed", [(2, 0), (8, 1), (16, 2)])
    def test_gip_stores_the_upper_edges_read_only(self, n, seed):
        inst = random_gip(n, seed)
        i, j = inst.edges
        want = np.nonzero(np.triu(inst.a, 1))
        assert np.array_equal(i, want[0]) and np.array_equal(j, want[1])
        assert inst.weight == inst.a.sum() + inst.b.sum()
        for edge in inst.edges:
            with pytest.raises(ValueError, match="read-only"):
                edge[:1] = 0

    @given(q=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_recognize_affine_inverts_affine_permutation(self, q, seed):
        p = _affine_permutation(q, np.random.default_rng(seed))
        amap = recognize_affine(p)
        assert amap is not None and amap.q == q
        # Distinct affine maps give distinct permutations, so this pins amap.
        rebuilt = tuple(
            reverse_bits(amap.apply(reverse_bits(i, q)), q) for i in range(1 << q)
        )
        assert rebuilt == p.map


class TestGapMetrics:
    def test_relative_optimality_gap(self):
        assert relative_optimality_gap(110.0, 100.0) == pytest.approx(0.1)
        assert relative_optimality_gap(5.0, 0.0) is None

    def test_normalized_heuristic_gap(self):
        assert normalized_heuristic_gap(10.0, 4.0, 4) == pytest.approx(
            6.0 / 8.0
        )
