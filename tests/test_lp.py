import os
import pathlib
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from scenopt import lp
from scenopt.lp import solve_lp

from lp_certificate import lex_certificate


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
        res = solve_lp(np.array([1.0, 0.0]), a, b)
        assert res.status == "optimal"
        assert res.x == pytest.approx([-1.0, -1.0], abs=1e-9)
        assert res.objective == pytest.approx(-1.0, abs=1e-9)

    def test_one_dimensional_max_of_bounds(self):
        a = np.array([[1.0], [-1.0], [-1.0], [-1.0], [-1.0]])
        b = np.array([10.0, 10.0, -0.3, -0.7, -0.5])
        res = solve_lp(np.array([1.0]), a, b)
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
@pytest.mark.parametrize(
    "d,m", [(10, 500), (10, 2000), (20, 500), (20, 2000), (40, 500), (40, 2000), (50, 5000)]
)
def test_matches_highs_at_realistic_sizes(family, d, m):
    cost, rows_a, rows_b = realistic_lp(family, d, m, seed=20)
    res = solve_lp(cost, rows_a, rows_b)
    ref = scipy_solve(cost, rows_a, rows_b)
    assert res.status == "optimal" and ref.status == 0
    assert abs(res.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
    for name, value in kkt_residuals(cost, rows_a, rows_b, res.x, res.duals).items():
        assert value <= 1e-9, (name, value)


@pytest.mark.parametrize("family", ["plain", "facet-cost", "scaled"])
@pytest.mark.parametrize("d,m", [(10, 2000), (20, 2000)])
def test_final_basis_is_the_exact_lexicographic_minimizer(family, d, m):
    # the final basis, solved in rationals, certifies its vertex as the
    # exact lexicographic minimizer of the float data, and x rounds it
    cost, rows_a, rows_b = realistic_lp(family, d, m, seed=20)
    rows = lp.SortedRows(rows_a, rows_b)
    res = solve_lp(cost, rows)
    assert res.status == "optimal"
    basic = rows.order[res.basis[0]]
    error = lex_certificate(cost, rows_a, rows_b, basic, res.x)
    assert error <= 1e-13 * (1.0 + np.abs(res.x).max())


def test_sweep_structure_does_not_depend_on_the_blas_kernel():
    # support and essential sets compare points only at tolerances, so
    # another OpenBLAS kernel, whose round-off differs, must reproduce them
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    def structure(**kernel):
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "library_sweep.py"), "--programs", "60"],
            env={**env, **kernel}, capture_output=True, text=True, check=True, timeout=600,
        )
        lines = [line.split() for line in proc.stdout.splitlines()]
        return [line for line in lines if line[0] in ("support_set", "essential")]

    default = structure()
    assert [line[0] for line in default] == ["support_set", "essential"]
    assert structure(OPENBLAS_CORETYPE="Prescott") == default


def random_planar_lp(rng):
    m = int(rng.integers(2, 7))
    a = np.vstack([rng.standard_normal((m, 2)), np.eye(2), -np.eye(2)])
    b = np.concatenate([rng.uniform(0.2, 1.5, m), np.full(4, 3.0)])
    return rng.standard_normal(2), a, b


def lexicographic_vertex(c, a, b):
    """Minimizer of (c'x, x_1, x_2) by enumerating the vertices of a x <= b,
    with values within 1e-9 counted as ties."""
    vertices = []
    for i, j in combinations(range(a.shape[0]), 2):
        pair = a[[i, j]]
        if abs(np.linalg.det(pair)) < 1e-7:
            continue
        v = np.linalg.solve(pair, b[[i, j]])
        if np.all(a @ v <= b + 1e-9):
            vertices.append(v)
    assert vertices
    for key in (lambda v: c @ v, lambda v: v[0], lambda v: v[1]):
        low = min(key(v) for v in vertices)
        vertices = [v for v in vertices if key(v) <= low + 1e-9]
    return vertices[0]


class TestLexicographic:
    def test_unique_point_on_degenerate_face(self):
        # cost parallel to a facet: the whole segment x1 + x2 = 1 is optimal,
        # and the tie-break must pick its lexicographically minimal vertex
        a = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1], [-1.0, -1.0]])
        b = np.array([2.0, 2.0, 2.0, 2.0, -1.0])
        res = solve_lp(np.array([1.0, 1.0]), a, b)
        assert np.count_nonzero(res.duals > 0.0) == 1  # the duals leave the face flat
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert res.x[0] == pytest.approx(-1.0, abs=1e-9)
        assert res.x[1] == pytest.approx(2.0, abs=1e-9)

    def test_bitwise_repeatability(self, rng):
        for _ in range(25):
            cost, rows_a, rows_b = random_bounded_lp(rng, 3, 8)
            r1 = solve_lp(cost, rows_a, rows_b)
            r2 = solve_lp(cost, rows_a, rows_b)
            assert np.array_equal(r1.x, r2.x)

    def test_bitwise_permutation_invariance(self, rng):
        for _ in range(25):
            cost, rows_a, rows_b = random_bounded_lp(rng, 3, 8)
            r1 = solve_lp(cost, rows_a, rows_b)
            perm = rng.permutation(rows_b.shape[0])
            r2 = solve_lp(cost, rows_a[perm], rows_b[perm])
            assert np.array_equal(r1.x, r2.x)
            # r2's j-th dual belongs to original row perm[j]
            assert np.array_equal(r1.duals[perm], r2.duals)

    def test_lexicographic_beats_plain_on_ties(self):
        # a zero cost makes every point optimal; the tie-break pins the
        # lower-bound vertex, which is the start basis of the run
        a = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
        b = np.ones(4)
        res = solve_lp(np.array([0.0, 0.0]), a, b)
        assert res.pivots == 0
        assert res.x == pytest.approx([-1.0, -1.0], abs=1e-9)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(120):
            c, a, b = random_planar_lp(rng)
            res = solve_lp(c, a, b)
            assert np.max(np.abs(lexicographic_vertex(c, a, b) - res.x)) < 5e-7

    @pytest.mark.parametrize("cost", ["zero", "facet"])
    def test_matches_vertex_enumeration_on_flat_faces(self, rng, cost):
        # a zero cost, or a cost parallel to a row, leaves a whole edge or
        # the whole polygon optimal, so only the tie-break picks the vertex
        for _ in range(200):
            c, a, b = random_planar_lp(rng)
            c = np.zeros(2) if cost == "zero" else -a[rng.integers(0, a.shape[0] - 4)]
            res = solve_lp(c, a, b)
            assert res.status == "optimal"
            assert np.max(np.abs(lexicographic_vertex(c, a, b) - res.x)) < 1e-12


class TestCertifiedVertex:
    def test_unique_vertex_takes_one_solve(self, rng, simplex_runs):
        for d in range(1, 7):
            cost, rows_a, rows_b = random_bounded_lp(rng, d, 4 * d)
            simplex_runs.clear()
            res = solve_lp(cost, rows_a, rows_b)
            ref = scipy_solve(cost, rows_a, rows_b)
            assert len(simplex_runs) == 1
            assert np.count_nonzero(res.duals > 0.0) == d
            assert np.abs(res.x - ref.x).max() <= 1e-9

    def test_zero_basic_dual_does_not_certify(self, simplex_runs):
        # cost parallel to the row x1 + x2 + x3 <= 1: that row carries the
        # only positive dual and the other two basic duals are zero, so the
        # duals leave the optimal triangle flat and one run must still end
        # at its lexicographically minimal vertex
        a = np.vstack([np.ones(3), np.eye(3), -np.eye(3)])
        b = np.ones(7)
        res = solve_lp(-np.ones(3), a, b)
        assert len(simplex_runs) == 1
        assert np.count_nonzero(res.duals > 0.0) == 1
        assert res.x == pytest.approx([-1.0, 1.0, 1.0], abs=1e-9)
        assert res.objective == pytest.approx(-1.0, abs=1e-12)


def _scatter(duals, mask):
    full = np.zeros(mask.shape[0])
    full[mask] = duals
    return full


class TestSortedRows:
    def test_view_matches_masked_arrays(self, rng):
        # a keep mask on the once-sorted rows gives the bits of sorting the
        # masked rows afresh, whatever order the rows were given in
        for trial in range(40):
            d = int(rng.integers(1, 6))
            cost, rows_a, rows_b = random_bounded_lp(rng, d, int(rng.integers(3, 30)))
            if trial % 4 == 0:
                cost = np.zeros(d)  # flat face: the lexicographic ratio test decides
            rows_a[1] = rows_a[0]  # a duplicated row
            rows_b[1] = rows_b[0]
            perm = rng.permutation(rows_b.shape[0])
            rows_a, rows_b = rows_a[perm], rows_b[perm]
            mask = rng.uniform(size=rows_b.shape[0]) < 0.7
            mask[np.abs(rows_a).sum(axis=1) == np.abs(rows_a).max(axis=1)] = True  # box rows
            rows = lp.SortedRows(rows_a, rows_b)
            view = rows.select(mask[rows.order])
            ref = solve_lp(cost, rows_a[mask], rows_b[mask])
            res = solve_lp(cost, view)
            assert res.status == ref.status == "optimal"
            assert np.array_equal(res.x, ref.x)
            assert res.objective == ref.objective
            assert np.array_equal(res.duals, _scatter(ref.duals, mask))
            assert res.pivots == ref.pivots and not res.warm

    @pytest.mark.parametrize("d,m", [(20, 2_000), (10, 7_500)])
    def test_view_matches_masked_arrays_at_scale(self, rng, d, m):
        # the same bits at the sizes of a planned program, with about 10 % of
        # the sampled rows dropped, a basic row of the full optimum among them
        for _ in range(2):
            cost, rows_a, rows_b = random_bounded_lp(rng, d, m)
            full = solve_lp(cost, rows_a, rows_b)
            mask = rng.uniform(size=rows_b.shape[0]) < 0.9
            mask[m:] = True  # box rows
            mask[np.flatnonzero(full.duals[:m] > 0.0)[0]] = False
            perm = rng.permutation(rows_b.shape[0])
            rows_a, rows_b, mask = rows_a[perm], rows_b[perm], mask[perm]
            rows = lp.SortedRows(rows_a, rows_b)
            view = rows.select(mask[rows.order])
            ref = solve_lp(cost, rows_a[mask], rows_b[mask])
            res = solve_lp(cost, view)
            assert res.status == ref.status == "optimal"
            assert np.array_equal(res.x, ref.x)
            assert res.objective == ref.objective
            assert np.array_equal(res.duals, _scatter(ref.duals, mask))
            assert res.pivots == ref.pivots and not res.warm

    def test_dropping_a_nonbasic_active_row_takes_no_pivot(self):
        # x >= 0 in the box [-1, 1]^2 and x1 + x2 >= 0: the last row is tight
        # at the optimum 0 but not basic, so dropping it keeps the basis
        rows_a = np.vstack([np.eye(2), -np.eye(2), [[-1.0, -1.0]]])
        rows_b = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        rows = lp.SortedRows(rows_a, rows_b)
        base = solve_lp(np.ones(2), rows)
        assert base.duals[4] == 0.0 and rows_a[4] @ base.x == rows_b[4]
        keep = rows.order != 4
        res = solve_lp(np.ones(2), rows.select(keep, base))
        assert res.warm and res.pivots == 0
        assert np.array_equal(res.x, base.x)

    def test_warm_start_drives_a_basic_row_out(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            cost, rows_a, rows_b = random_bounded_lp(rng, d, 6 * d)
            rows = lp.SortedRows(rows_a, rows_b)
            base = solve_lp(cost, rows)
            for row in np.flatnonzero(base.duals > 0.0):
                if row >= rows_b.shape[0] - 2 * d:
                    continue  # box rows stay
                mask = np.arange(rows_b.shape[0]) != row
                res = solve_lp(cost, rows.select(mask[rows.order], base))
                ref = solve_lp(cost, rows_a[mask], rows_b[mask])
                assert res.status == "optimal"
                assert np.abs(res.x - ref.x).max() <= 1e-9
                assert res.duals[row] == 0.0

    def test_zero_cost_warm_result_matches_cold(self, simplex_runs):
        # zero cost: every dual is zero, so only the lexicographic ratio test
        # decides which row leaves; the warm run drives the dropped row out
        # and ends at the cold run's vertex
        rows_a = np.vstack([np.eye(3), -np.eye(3), [[-1.0, -1.0, 0.0]]])
        rows_b = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5])
        rows = lp.SortedRows(rows_a, rows_b)
        base = solve_lp(np.zeros(3), rows)
        assert base.x == pytest.approx([-1.0, 0.5, -1.0], abs=1e-12)
        mask = np.arange(7) != 6
        simplex_runs.clear()
        res = solve_lp(np.zeros(3), rows.select(mask[rows.order], base))
        assert len(simplex_runs) == 1 and res.warm
        ref = solve_lp(np.zeros(3), rows_a[mask], rows_b[mask])
        assert np.array_equal(res.x, ref.x)
        assert res.x == pytest.approx([-1.0, -1.0, -1.0], abs=1e-9)
