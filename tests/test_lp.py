import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from scenopt import lp
from scenopt.lp import solve_lp, solve_lp_lexicographic


def random_bounded_lp(rng, d, m):
    """Random rows with a strictly feasible origin, plus box rows."""
    a = rng.standard_normal((m, d))
    b = rng.uniform(0.2, 1.5, size=m)
    eye = np.eye(d)
    rows_a = np.vstack([a, eye, -eye])
    rows_b = np.concatenate([b, np.full(2 * d, 5.0)])
    cost = rng.standard_normal(d)
    return cost, rows_a, rows_b


def scipy_solve(cost, rows_a, rows_b):
    return linprog(cost, A_ub=rows_a, b_ub=rows_b, bounds=(None, None), method="highs")


class TestSolveLp:
    def test_box_vertex(self):
        a = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
        b = np.ones(4)
        res = solve_lp_lexicographic(np.array([1.0, 0.0]), a, b)
        assert res.status == "optimal"
        assert res.x == pytest.approx([-1.0, -1.0], abs=1e-9)
        assert res.objective == pytest.approx(-1.0, abs=1e-9)

    def test_one_dimensional_max_of_bounds(self):
        a = np.array([[1.0], [-1.0], [-1.0], [-1.0], [-1.0]])
        b = np.array([10.0, 10.0, -0.3, -0.7, -0.5])
        res = solve_lp_lexicographic(np.array([1.0]), a, b)
        assert res.x[0] == pytest.approx(0.7, abs=1e-12)
        # the binding lower bound carries the only multiplier
        assert res.duals[3] == pytest.approx(1.0, abs=1e-9)
        assert np.all(res.duals >= 0)

    def test_infeasible(self):
        a = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        b = np.array([10.0, 10.0, -2.0, 0.0])  # x <= -2 and x >= 0
        res = solve_lp(np.array([1.0]), a, b)
        assert res.status == "infeasible"

    def test_unbounded_guard_without_box(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([1.0])
        res = solve_lp(np.array([0.0, 1.0]), a, b)
        assert res.status == "unbounded-guard"

    def test_kkt_certificates(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 14))
            cost, rows_a, rows_b = random_bounded_lp(rng, d, m)
            res = solve_lp(cost, rows_a, rows_b)
            assert res.status == "optimal"
            slack = rows_b - rows_a @ res.x
            assert slack.min() >= -1e-8
            assert res.duals.min() >= -1e-12
            # stationarity and strong duality
            assert np.abs(rows_a.T @ res.duals + cost).max() < 1e-7
            assert abs(cost @ res.x + rows_b @ res.duals) < 1e-7
            # complementary slackness
            assert np.abs(res.duals * slack).max() < 1e-8

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_objective_matches_external_solver(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 12))
        cost, rows_a, rows_b = random_bounded_lp(rng, d, m)
        res = solve_lp(cost, rows_a, rows_b)
        ref = scipy_solve(cost, rows_a, rows_b)
        assert res.status == "optimal" and ref.status == 0
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)

    def test_infeasibility_agreement(self, rng):
        hits = 0
        for _ in range(300):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(2, 10))
            a = rng.standard_normal((m, d))
            b = rng.uniform(-0.8, 0.8, size=m)
            eye = np.eye(d)
            rows_a = np.vstack([a, eye, -eye])
            rows_b = np.concatenate([b, np.full(2 * d, 3.0)])
            cost = rng.standard_normal(d)
            res = solve_lp(cost, rows_a, rows_b)
            ref = scipy_solve(cost, rows_a, rows_b)
            if ref.status == 2:
                hits += 1
                assert res.status == "infeasible"
            elif ref.status == 0:
                assert res.status == "optimal"
                assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        assert hits > 10  # the family does generate infeasible instances


def realistic_lp(family, d, m, seed):
    """Dense random LP with a strictly feasible origin, in one of five shapes."""
    rng = np.random.default_rng([seed, d, m])
    a = rng.standard_normal((m, d))
    b = rng.uniform(0.2, 1.5, size=m)
    cost = rng.standard_normal(d)
    box = 5.0
    if family == "duplicated":
        copies = rng.integers(0, m - m // 4, size=m // 4)
        a[m - m // 4 :] = a[copies]
        b[m - m // 4 :] = b[copies]
    elif family == "scaled":
        scale = 10.0 ** rng.uniform(-4.0, 4.0, size=m)
        a *= scale[:, None]
        b *= scale
    elif family == "facet-cost":
        cost = -a[rng.integers(0, m)]
    elif family == "wide-box":
        box = 1e6
    eye = np.eye(d)
    rows_a = np.vstack([a, eye, -eye])
    rows_b = np.concatenate([b, np.full(2 * d, box)])
    return cost, rows_a, rows_b


def kkt_residuals(cost, rows_a, rows_b, x, duals):
    """Primal slack, dual sign, stationarity and complementarity, each scaled
    by the magnitude of the terms it compares."""
    row_size = np.abs(rows_a).max(axis=1)
    x_size = 1.0 + np.abs(x).max()
    slack = rows_b - rows_a @ x
    term_size = row_size * x_size + np.abs(rows_b)
    cost_size = 1.0 + np.abs(cost).max()
    return {
        "primal": float(np.max(-slack / term_size, initial=0.0)),
        "dual_sign": float(np.max(-duals * row_size, initial=0.0) / cost_size),
        "stationarity": float(np.abs(rows_a.T @ duals + cost).max() / cost_size),
        "complementarity": float(np.abs(duals * slack).max() / (cost_size * x_size)),
    }


@pytest.mark.parametrize("family", ["plain", "duplicated", "scaled", "facet-cost", "wide-box"])
@pytest.mark.parametrize("d,m", [(10, 500), (10, 2000), (20, 500), (20, 2000), (40, 500), (40, 2000)])
def test_matches_highs_at_realistic_sizes(family, d, m):
    cost, rows_a, rows_b = realistic_lp(family, d, m, seed=20)
    res = solve_lp(cost, rows_a, rows_b)
    ref = scipy_solve(cost, rows_a, rows_b)
    assert res.status == "optimal" and ref.status == 0
    assert abs(res.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
    for name, value in kkt_residuals(cost, rows_a, rows_b, res.x, res.duals).items():
        assert value <= 1e-9, (name, value)


@pytest.fixture
def solve_lp_calls(monkeypatch):
    """Counts the ``solve_lp`` calls that ``solve_lp_lexicographic`` makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(lp, "solve_lp", counting)
    return calls


class TestLexicographic:
    def test_unique_point_on_degenerate_face(self, solve_lp_calls):
        # cost parallel to a facet: the whole segment x1 + x2 = 1 is optimal,
        # and the tie-break must pick its lexicographically minimal vertex
        a = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1], [-1.0, -1.0]])
        b = np.array([2.0, 2.0, 2.0, 2.0, -1.0])
        res = solve_lp_lexicographic(np.array([1.0, 1.0]), a, b)
        assert len(solve_lp_calls) == 2  # one positive dual of two: x_1 pass
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert res.x[0] == pytest.approx(-1.0, abs=1e-9)
        assert res.x[1] == pytest.approx(2.0, abs=1e-9)

    def test_bitwise_repeatability(self, rng):
        for _ in range(25):
            cost, rows_a, rows_b = random_bounded_lp(rng, 3, 8)
            r1 = solve_lp_lexicographic(cost, rows_a, rows_b)
            r2 = solve_lp_lexicographic(cost, rows_a, rows_b)
            assert np.array_equal(r1.x, r2.x)

    def test_bitwise_permutation_invariance(self, rng):
        for _ in range(25):
            cost, rows_a, rows_b = random_bounded_lp(rng, 3, 8)
            r1 = solve_lp_lexicographic(cost, rows_a, rows_b)
            perm = rng.permutation(rows_b.shape[0])
            r2 = solve_lp_lexicographic(cost, rows_a[perm], rows_b[perm])
            assert np.array_equal(r1.x, r2.x)
            # r2's j-th dual belongs to original row perm[j]
            assert np.array_equal(r1.duals[perm], r2.duals)

    def test_lexicographic_beats_plain_on_ties(self, solve_lp_calls):
        # plain solve may return any optimal vertex; lexicographic pins it
        a = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
        b = np.ones(4)
        res = solve_lp_lexicographic(np.array([0.0, 0.0]), a, b)
        assert len(solve_lp_calls) == 3  # zero cost: x_1 and x_2 passes
        assert res.x == pytest.approx([-1.0, -1.0], abs=1e-9)

    def test_matches_vertex_enumeration(self, rng):
        from itertools import combinations

        for _ in range(120):
            d = 2
            m = int(rng.integers(2, 7))
            a = np.vstack([rng.standard_normal((m, d)), np.eye(d), -np.eye(d)])
            b = np.concatenate([rng.uniform(0.2, 1.5, m), np.full(2 * d, 3.0)])
            c = rng.standard_normal(d)
            res = solve_lp_lexicographic(c, a, b)
            best = None
            for i, j in combinations(range(a.shape[0]), 2):
                pair = a[[i, j]]
                if abs(np.linalg.det(pair)) < 1e-7:
                    continue
                v = np.linalg.solve(pair, b[[i, j]])
                if np.all(a @ v <= b + 1e-9):
                    key = (round(float(c @ v), 8), round(float(v[0]), 8), round(float(v[1]), 8))
                    if best is None or key < best[0]:
                        best = (key, v)
            assert best is not None
            assert np.max(np.abs(best[1] - res.x)) < 5e-7


class TestCertifiedVertex:
    def test_unique_vertex_takes_one_solve(self, rng, solve_lp_calls):
        for d in range(1, 7):
            cost, rows_a, rows_b = random_bounded_lp(rng, d, 4 * d)
            solve_lp_calls.clear()
            res = solve_lp_lexicographic(cost, rows_a, rows_b)
            ref = scipy_solve(cost, rows_a, rows_b)
            assert len(solve_lp_calls) == 1
            assert np.count_nonzero(res.duals > 0.0) == d
            assert np.abs(res.x - ref.x).max() <= 1e-9

    def test_zero_basic_dual_does_not_certify(self, solve_lp_calls):
        # cost parallel to the row x1 + x2 + x3 <= 1: that row carries the
        # only positive dual, the other two basic duals are zero, and the
        # first solve stops at (1, 1, -1) on the optimal triangle
        a = np.vstack([np.ones(3), np.eye(3), -np.eye(3)])
        b = np.ones(7)
        first = solve_lp(-np.ones(3), a, b)
        assert np.count_nonzero(first.duals > 0.0) == 1
        res = solve_lp_lexicographic(-np.ones(3), a, b)
        assert len(solve_lp_calls) == 3  # cost solve, then x_1 and x_2; x_3 is pinned
        assert res.x == pytest.approx([-1.0, 1.0, 1.0], abs=1e-9)
        assert np.array_equal(res.duals, first.duals)
