"""Solver tests, cross-checked against scipy.optimize.linprog where available
and, pivot by pivot, against a scalar reference implementation."""

import numpy as np
import pytest

import mss.magic
import mss.simplex
from mss.simplex import DEFAULT_MAX_ITER, DEFAULT_TOL, LPSolution, SimplexError, solve_lp

from conftest import random_density, random_pure_state


def reference_solve_lp(c, A, b, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Slow oracle for :func:`solve_lp`: the same two-phase Bland simplex with
    a scalar pivot loop (column scan for the entering index, row-by-row
    elimination).  Returns the solution and the final basis."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = A.shape
    flip = np.where(b < 0, -1.0, 1.0)
    work = np.empty((m, n + m + 1))
    work[:, :n] = A * flip[:, None]
    work[:, n:n + m] = np.eye(m)
    work[:, -1] = b * flip
    basis = list(range(n, n + m))

    def reduce_cost_row(cost):
        for row, col in enumerate(basis):
            if cost[col] != 0.0:
                cost -= cost[col] * work[row]

    def pivot_loop(cost, allowed, start):
        iterations = start
        while True:
            entering = -1
            for j in range(allowed):
                if j not in basis and cost[j] < -tol:
                    entering = j
                    break
            if entering < 0:
                return iterations
            leaving_row, best_ratio = -1, np.inf
            for i in range(m):
                coef = work[i, entering]
                if coef > tol:
                    ratio = work[i, -1] / coef
                    if ratio < best_ratio - tol or (
                            abs(ratio - best_ratio) <= tol
                            and (leaving_row < 0 or basis[i] < basis[leaving_row])):
                        leaving_row, best_ratio = i, ratio
            if leaving_row < 0:
                raise SimplexError("unbounded: no leaving variable")
            work[leaving_row] /= work[leaving_row, entering]
            for i in range(m):
                if i != leaving_row and work[i, entering] != 0.0:
                    work[i] -= work[i, entering] * work[leaving_row]
            cost -= cost[entering] * work[leaving_row]
            basis[leaving_row] = entering
            iterations += 1
            if iterations - start > max_iter:
                raise SimplexError(f"iteration cap {max_iter} exceeded")

    cost1 = np.zeros(n + m + 1)
    cost1[n:n + m] = 1.0
    reduce_cost_row(cost1)
    iterations = pivot_loop(cost1, n + m, 0)
    if -cost1[-1] > np.sqrt(tol) * max(1.0, np.abs(b).max()):
        raise SimplexError(f"infeasible: phase-1 objective {-cost1[-1]:.3e}")
    cost2 = np.zeros(n + m + 1)
    cost2[:n] = c
    reduce_cost_row(cost2)
    iterations = pivot_loop(cost2, n, iterations)

    x = np.zeros(n)
    for row, col in enumerate(basis):
        if col < n:
            x[col] = work[row, -1]
    full = np.hstack([A * flip[:, None], np.eye(m)])
    y = np.linalg.solve(full[:, basis].T, np.concatenate([c, np.zeros(m)])[basis])
    return LPSolution(x=x, fun=float(c @ x), duals=y * flip, iterations=iterations), basis


def solve_with_basis(c, A, b):
    """solve_lp plus the final basis, read off the pivot loop's basis list."""
    seen = []
    pivot_loop = mss.simplex._pivot_loop

    def spy(work, cost, basis, **kwargs):
        seen.append(basis)
        return pivot_loop(work, cost, basis, **kwargs)

    mss.simplex._pivot_loop = spy
    try:
        sol = solve_lp(c, A, b)
    finally:
        mss.simplex._pivot_loop = pivot_loop
    return sol, list(seen[-1])


def assert_same_pivot_path(c, A, b):
    """Same outcome as the reference: the same error, or the same pivot
    count, final basis and byte-identical x, duals and objective."""
    try:
        want, want_basis = reference_solve_lp(c, A, b)
    except SimplexError as exc:
        with pytest.raises(SimplexError, match=str(exc).split(":")[0]):
            solve_lp(c, A, b)
        return
    got, got_basis = solve_with_basis(c, A, b)
    assert got.iterations == want.iterations
    assert got_basis == want_basis
    assert got.x.tobytes() == want.x.tobytes()
    assert got.duals.tobytes() == want.duals.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()


def test_textbook_problem():
    # min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (slack form)
    A = np.array([
        [1.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 1.0, 0.0],
        [3.0, 2.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([4.0, 12.0, 18.0])
    c = np.array([-3.0, -5.0, 0.0, 0.0, 0.0])
    sol = solve_lp(c, A, b)
    assert sol.fun == pytest.approx(-36.0, abs=1e-9)
    np.testing.assert_allclose(sol.x[:2], [2.0, 6.0], atol=1e-9)


def test_equality_with_negative_rhs():
    # x - y = -1, x + y = 3 with x, y >= 0 -> x=1, y=2; min x + 2y = 5.
    A = np.array([[1.0, -1.0], [1.0, 1.0]])
    b = np.array([-1.0, 3.0])
    c = np.array([1.0, 2.0])
    sol = solve_lp(c, A, b)
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)
    assert sol.fun == pytest.approx(5.0, abs=1e-9)


def test_dual_satisfies_strong_duality():
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-2.0, -3.0, 0.0, 0.0])
    sol = solve_lp(c, A, b)
    assert sol.duals @ b == pytest.approx(sol.fun, abs=1e-9)
    # dual feasibility: A^T y <= c
    assert np.all(A.T @ sol.duals <= c + 1e-9)


def test_infeasible_detected():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(SimplexError, match="infeasible"):
        solve_lp(np.zeros(2), A, b)


def test_degenerate_problem_terminates():
    # Redundant constraints force degenerate pivots; Bland must terminate.
    A = np.array([
        [1.0, 1.0, 1.0, 0.0],
        [2.0, 2.0, 2.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([2.0, 4.0, 1.0])
    c = np.array([-1.0, -1.0, 0.0, 0.0])
    sol = solve_lp(c, A, b)
    assert sol.fun == pytest.approx(-2.0, abs=1e-9)


def test_random_problems_against_scipy(rng):
    linprog = pytest.importorskip("scipy.optimize").linprog
    for trial in range(60):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m, m + 8))
        A = rng.normal(size=(m, n))
        x_feas = rng.random(n)  # guarantees feasibility
        b = A @ x_feas
        c = rng.normal(size=n)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
        if not ref.success:  # scipy deems unbounded
            with pytest.raises(SimplexError):
                solve_lp(c, A, b, max_iter=2000)
            continue
        sol = solve_lp(c, A, b)
        assert sol.fun == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
        np.testing.assert_allclose(A @ sol.x, b, atol=1e-8)
        assert np.min(sol.x) > -1e-9
        # duals: strong duality and feasibility
        assert sol.duals @ b == pytest.approx(sol.fun, abs=1e-7)
        assert np.all(A.T @ sol.duals <= c + 1e-7)


def test_solution_is_dataclass():
    sol = solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([2.0]))
    assert isinstance(sol, LPSolution)
    assert sol.x[0] == pytest.approx(2.0)


class TestSamePivotPathAsReference:
    """The vectorised pivot loop against the scalar reference, byte for byte."""

    def test_random_lps(self, rng):
        for trial in range(400):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(m, m + 10))
            kind = trial % 4
            # Small integer entries make ratio ties and degenerate vertices.
            A = rng.normal(size=(m, n)) if kind == 0 else rng.integers(-2, 3, (m, n)).astype(float)
            if kind == 2:
                A[-1] = 2.0 * A[0]  # redundant row
            x_feas = rng.random(n)
            if kind != 0:
                x_feas[rng.random(n) < 0.5] = 0.0  # degenerate vertex
            b = A @ x_feas  # mixed-sign right-hand sides
            c = rng.normal(size=n) if kind != 3 else rng.integers(-2, 3, n).astype(float)
            assert_same_pivot_path(c, A, b)

    def test_infeasible_and_unbounded(self):
        assert_same_pivot_path(np.zeros(2), np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0]))
        assert_same_pivot_path(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_wigner_distance_lps(self, n, rng, monkeypatch):
        lps = []

        def record(c, A, b, *args, **kwargs):
            lps.append((c, A, b))
            return solve_lp(c, A, b, *args, **kwargs)

        monkeypatch.setattr(mss.magic, "solve_lp", record)
        for i in range(30):
            rho = random_density(n, rng) if i % 2 else random_pure_state(n, rng).density()
            mss.magic.wigner_distance(rho)
        monkeypatch.undo()
        assert len(lps) == 30 and len(lps[0][1]) == 2 * 4 ** n + 1  # 9 or 33 rows
        for c, A, b in lps:
            assert_same_pivot_path(c, A, b)
