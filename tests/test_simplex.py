"""Solver tests, cross-checked against scipy.optimize.linprog where available
and, pivot by pivot, against a scalar reference implementation."""

import sys
from pathlib import Path

import numpy as np
import pytest

import mss.magic
import mss.simplex
from mss.simplex import TOL, ZERO_OBJECTIVE, LPSolution, SimplexError, _columns, solve_lp

from conftest import nearest_vertex_basis, oracle_states, wigner_lp


def reference_solve_lp(c, A, b, basis=None, *, bland=False):
    """Slow oracle for :func:`solve_lp`: the same pivot rule with scalar loops.

    A column scan prices Dantzig's rule in two stages: over the nonbasic
    columns without a mirror (each column's first exact negation, found by
    comparing entries), then, if none has a reduced cost below -TOL, over
    every nonbasic column.  A sorted list of breakpoints drives the long step
    across mirror columns, and flips and elimination go row by row;
    after a degenerate step the next pivot follows Bland's rule, and with
    nonnegative costs the loop stops at an objective of at most
    ``ZERO_OBJECTIVE``.  The tableau carries an identity block that becomes
    B^-1, and the duals are read off the cost row.  With ``bland=True``
    every pivot follows Bland's rule, with no flips and no early stop: the
    textbook simplex that ``solve_lp`` ran before the long step.  From a
    given basis it reports every zero of x and of the duals as +0.0, as
    :func:`solve_lp` does.

    Started from ``basis`` it runs the one phase :func:`solve_lp` runs.
    Without one it is the textbook two-phase method, always with Bland's
    rule: artificial columns on sign-flipped rows, phase 1 minimising their
    sum, then phase 2.  Like :func:`solve_lp` it reads the solver's TOL and
    MAX_ITER when called.  Returns the solution and the final basis."""
    tol, max_iter = mss.simplex.TOL, mss.simplex.MAX_ITER
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = A.shape
    two_phase = basis is None
    if two_phase:
        bland = True
        flip = np.where(b < 0, -1.0, 1.0)
        full = np.hstack([A * flip[:, None], np.eye(m)])
        work = np.hstack([full, np.eye(m), (b * flip)[:, None]])
        basis = list(range(n, n + m))
    else:
        flip = np.ones(m)
        full = A
        basis = list(basis)
        try:
            binv = np.linalg.inv(A[:, basis])
            work = np.hstack([binv @ A, binv, (binv @ b)[:, None]])
        except np.linalg.LinAlgError:
            raise SimplexError("infeasible starting basis: singular basis matrix") from None
        if work[:, -1].min() < -tol:
            raise SimplexError(
                f"infeasible starting basis: basic value {work[:, -1].min():.3e}")
    ncols = full.shape[1]
    mirror = [next((jj for jj in range(ncols)
                    if all(full[i, jj] == -full[i, j] for i in range(m))), -1)
              for j in range(ncols)]
    structural = [j for j in range(ncols) if mirror[j] < 0]
    flips = 0

    def reduce_cost_row(cost):
        cost -= cost[basis] @ work

    def pivot_loop(cost, costs, allowed, start):
        """Pivot to optimality; ``costs`` are the phase's column costs."""
        nonlocal flips
        stop_at_zero = not bland and min(costs) >= 0.0
        iterations, degenerate = start, bland
        while True:
            if stop_at_zero and -cost[-1] <= ZERO_OBJECTIVE:
                return iterations, True
            entering = -1
            stages = [range(allowed)] if degenerate else [
                [j for j in structural if j < allowed], range(allowed)]
            for stage in stages:
                best = -tol
                for j in stage:
                    if j not in basis and cost[j] < best:
                        entering = j
                        if degenerate:
                            break
                        best = cost[j]
                if entering >= 0:
                    break
            if entering < 0:
                return iterations, False
            leaving_row, step = -1, np.inf
            if degenerate:
                for i in range(m):
                    coef = work[i, entering]
                    if coef > tol:
                        ratio = work[i, -1] / coef
                        if ratio < step - tol or (
                                abs(ratio - step) <= tol
                                and (leaving_row < 0 or basis[i] < basis[leaving_row])):
                            leaving_row, step = i, ratio
            else:
                breakpoints = sorted((work[i, -1] / work[i, entering], i)
                                     for i in range(m) if work[i, entering] > tol)
                for ratio, i in breakpoints:
                    j = basis[i]
                    partner = mirror[j]
                    if partner >= 0:
                        pair = costs[j] + costs[partner]
                        if cost[entering] + pair * work[i, entering] < -tol:
                            for col in range(work.shape[1]):
                                cost[col] += pair * work[i, col]
                                work[i, col] = -work[i, col]
                            basis[i] = partner
                            flips += 1
                            continue
                    leaving_row, step = i, ratio
                    break
            if leaving_row < 0:
                raise SimplexError("unbounded: no leaving variable")
            pivot = work[leaving_row] / work[leaving_row, entering]
            for i in range(m):
                if i != leaving_row:
                    work[i] -= work[i, entering] * pivot
            cost -= cost[entering] * pivot
            work[leaving_row] = pivot
            basis[leaving_row] = entering
            degenerate = bland or step <= tol
            iterations += 1
            if iterations - start > max_iter:
                raise SimplexError(f"iteration cap {max_iter} exceeded")

    iterations = 0
    if two_phase:
        costs1 = np.concatenate([np.zeros(n), np.ones(m)])
        cost1 = np.concatenate([costs1, np.zeros(m + 1)])
        reduce_cost_row(cost1)
        iterations, _ = pivot_loop(cost1, costs1, n + m, 0)
        if -cost1[-1] > np.sqrt(tol) * max(1.0, np.abs(b).max()):
            raise SimplexError(f"infeasible: phase-1 objective {-cost1[-1]:.3e}")
    c_full = np.concatenate([c, np.zeros(ncols - n)])
    cost2 = np.concatenate([c_full, np.zeros(m + 1)])
    reduce_cost_row(cost2)
    iterations, at_zero = pivot_loop(cost2, c_full, n, iterations)
    # Phase 1 can leave artificial columns basic at zero, and phase 2 pivots
    # may lift them; the point is then infeasible for the original rows.
    lifted = max((work[row, -1] for row, col in enumerate(basis) if col >= n), default=0.0)
    if lifted > tol:
        raise SimplexError(f"artificial column basic at {lifted:.3e} after phase 2")

    x = np.zeros(n)
    for row, col in enumerate(basis):
        if col < n:
            x[col] = work[row, -1] + 0.0
    y = np.zeros(m) if at_zero else 0.0 - cost2[ncols:ncols + m]
    return LPSolution(x=x, fun=float(c @ x), duals=y * flip, iterations=iterations,
                      flips=flips), basis


def slack_form(A, b, c):
    """min c.x, A x <= b, x >= 0 with b >= 0 as (c, [A | I], b) and the
    slack basis, which is feasible there."""
    m, n = A.shape
    return np.concatenate([c, np.zeros(m)]), np.hstack([A, np.eye(m)]), b, list(range(n, n + m))


def mirrored_form(A, b, c, c_slack, c_surplus):
    """A x + s - t = b, x, s, t >= 0 with b >= 0: the slack form plus a
    mirror column -e_i for each slack.  Returns (c, A, b, basis) with the
    slack basis."""
    m, n = A.shape
    return (np.concatenate([c, c_slack, c_surplus]), np.hstack([A, np.eye(m), -np.eye(m)]),
            b, list(range(n, n + m)))


def l1_fit_form(F, w):
    """min ||w - F lam||_1 over the simplex in the LP form of mss.magic,
    started, as there, at the column nearest to w in L1.  Returns
    (c, A, b, basis)."""
    k, nv = F.shape
    A = np.block([[F, np.eye(k), -np.eye(k)], [np.ones((1, nv)), np.zeros((1, 2 * k))]])
    c = np.concatenate([np.zeros(nv), np.ones(2 * k)])
    return c, A, np.append(w, 1.0), nearest_vertex_basis(F, w)


def solve_with_final_basis(c, A, b, basis):
    """solve_lp plus the final basis, read off the pivot loop's basis list.
    Also checks that the final basic columns' reduced costs are within 1e-12
    of 0, which lets the loop price without a nonbasic mask."""
    seen = []
    pivot_loop = mss.simplex._pivot_loop

    def spy(tab, basis, *args, **kwargs):
        seen.append(basis)
        out = pivot_loop(tab, basis, *args, **kwargs)
        assert np.abs(tab[-1, basis]).max() <= 1e-12
        return out

    mss.simplex._pivot_loop = spy
    try:
        sol = solve_lp(c, A, b, basis)
    finally:
        mss.simplex._pivot_loop = pivot_loop
    return sol, list(seen[-1])


def assert_same_pivot_path(c, A, b, basis):
    """Same outcome as the reference from the same basis: the same error, or
    the same pivot and flip counts, final basis and byte-identical x, duals
    and objective."""
    try:
        want, want_basis = reference_solve_lp(c, A, b, basis)
    except SimplexError as exc:
        with pytest.raises(SimplexError, match=str(exc).split(":")[0]):
            solve_lp(c, A, b, basis)
        return
    got, got_basis = solve_with_final_basis(c, A, b, basis)
    assert (got.iterations, got.flips) == (want.iterations, want.flips)
    assert got_basis == want_basis
    assert got.x.tobytes() == want.x.tobytes()
    assert got.duals.tobytes() == want.duals.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()


def test_textbook_problem():
    # min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
    A = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
    sol = solve_lp(*slack_form(A, np.array([4.0, 12.0, 18.0]), np.array([-3.0, -5.0])))
    assert sol.fun == pytest.approx(-36.0, abs=1e-9)
    np.testing.assert_allclose(sol.x[:2], [2.0, 6.0], atol=1e-9)


def test_equality_with_negative_rhs():
    # x - y = -1, x + y = 3 with x, y >= 0 -> x=1, y=2; min x + 2y = 5.
    A = np.array([[1.0, -1.0], [1.0, 1.0]])
    b = np.array([-1.0, 3.0])
    c = np.array([1.0, 2.0])
    sol = solve_lp(c, A, b, [0, 1])
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)
    assert sol.fun == pytest.approx(5.0, abs=1e-9)


def test_dual_satisfies_strong_duality():
    c, A, b, basis = slack_form(np.array([[1.0, 1.0], [1.0, 3.0]]), np.array([4.0, 6.0]),
                                np.array([-2.0, -3.0]))
    sol = solve_lp(c, A, b, basis)
    assert sol.duals @ b == pytest.approx(sol.fun, abs=1e-9)
    # dual feasibility: A^T y <= c
    assert np.all(A.T @ sol.duals <= c + 1e-9)


def test_infeasible_detected():
    # x0 + x1 - x2 = 1, x1 + x3 = 1: the basis {x2, x3} gives x2 = -1, and a
    # repeated column gives a singular basis matrix.
    A = np.array([[1.0, 1.0, -1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0])
    with pytest.raises(SimplexError, match="infeasible starting basis: basic value -1"):
        solve_lp(np.zeros(4), A, b, [2, 3])
    with pytest.raises(SimplexError, match="infeasible starting basis: singular basis matrix"):
        solve_lp(np.zeros(4), A, b, [0, 0])


def assert_same_optimum(c, A, b, basis):
    """Same outcome as the reference, which inverts the basis matrix: the
    same error, or the same optimum and duals within 1e-9."""
    try:
        want, _ = reference_solve_lp(c, A, b, basis)
    except SimplexError as exc:
        with pytest.raises(SimplexError, match=f"^{exc}$"):
            solve_lp(c, A, b, basis)
        return
    got = solve_lp(c, A, b, basis)
    assert got.fun == pytest.approx(want.fun, abs=1e-9)
    np.testing.assert_allclose(got.x, want.x, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got.duals, want.duals, rtol=0, atol=1e-9)


class TestStartBasis:
    """The start tableau, built without an inverse, against the reference."""

    def test_permuted_slack_basis(self):
        # Slack 3 is e_1 at position 0 and slack 2 is e_0 at position 1.
        A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        lp = np.array([-1.0, -1.0, 0.0, 0.0]), A, np.array([1.0, 2.0]), [3, 2]
        assert solve_lp(*lp).fun == -3.0
        assert_same_optimum(*lp)

    def test_dense_columns_that_exchange_rows(self, monkeypatch):
        # Column 0's largest entry is in row 1, so its pivot takes row 1 and
        # column 1 takes row 0; the rows are then swapped into basis order.
        A = np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 4.0, 0.0, 1.0]])
        lp = np.array([1.0, 1.0, -1.0, -1.0]), A, A[:, :2] @ [1.0, 1.0], [0, 1]
        starts = []
        pivot_loop = mss.simplex._pivot_loop

        def spy(tab, *args, **kwargs):
            starts.append(tab.copy())
            return pivot_loop(tab, *args, **kwargs)

        monkeypatch.setattr(mss.simplex, "_pivot_loop", spy)
        assert solve_lp(*lp).fun == pytest.approx(-10.0, abs=1e-12)
        binv = np.linalg.inv(A[:, :2])
        np.testing.assert_allclose(starts[0][:2], np.hstack([binv @ A, binv, binv @ lp[2][:, None]]),
                                   rtol=0, atol=1e-12)
        assert_same_optimum(*lp)

    def test_singular_basis(self):
        A = np.array([[1.0, 2.0, 1.0, 0.0], [2.0, 4.0, 0.0, 1.0]])
        for basis in ([0, 1], [2, 2], [3, 3]):
            assert_same_optimum(np.zeros(4), A, np.array([1.0, 2.0]), basis)
        with pytest.raises(SimplexError, match="^infeasible starting basis: singular basis matrix$"):
            solve_lp(np.zeros(4), A, np.array([1.0, 2.0]), [0, 1])

    def test_random_bases(self, rng):
        # Dense, unit and signed unit columns in random positions, from a
        # point that makes the basis feasible, and bases with repeats.
        singular = 0
        for trial in range(300):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, m + 6))
            A = rng.integers(-2, 3, (m, n)).astype(float) if trial % 2 else rng.normal(size=(m, n))
            A = np.hstack([A, np.eye(m), -np.eye(m)])
            basis = rng.choice(A.shape[1], size=m, replace=trial % 5 == 0).tolist()
            b = A[:, basis] @ rng.random(m)
            c = rng.normal(size=A.shape[1])
            if np.linalg.matrix_rank(A[:, basis]) < m:
                # Refused.  The reference is no oracle here: where round-off
                # leaves its LU a nonzero pivot, it starts from a garbage
                # inverse.
                singular += 1
                with pytest.raises(SimplexError, match="infeasible starting basis"):
                    solve_lp(c, A, b, basis)
            else:
                assert_same_optimum(c, A, b, basis)
        assert singular > 0


def test_degenerate_problem_terminates():
    # A redundant constraint makes the optimal vertex degenerate; the solver
    # must terminate.
    A = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
    sol = solve_lp(*slack_form(A, np.array([2.0, 4.0, 1.0]), np.array([-1.0, -1.0])))
    assert sol.fun == pytest.approx(-2.0, abs=1e-9)


def test_random_problems_against_scipy(rng, monkeypatch):
    linprog = pytest.importorskip("scipy.optimize").linprog
    for trial in range(60):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m, m + 8))
        A_ub = rng.normal(size=(m, n))
        if trial % 4:
            A_ub[0] = np.abs(A_ub[0]) + 0.5  # bounded; the rest may be unbounded
        b = rng.random(m)  # the slack basis is feasible
        c_x = rng.normal(size=n)
        c, A, b, basis = slack_form(A_ub, b, c_x)
        ref = linprog(c_x, A_ub=A_ub, b_ub=b, bounds=[(0, None)] * n, method="highs")
        if not ref.success:  # scipy deems unbounded
            with monkeypatch.context() as patch, pytest.raises(SimplexError):
                patch.setattr(mss.simplex, "MAX_ITER", 2000)
                solve_lp(c, A, b, basis)
            continue
        sol = solve_lp(c, A, b, basis)
        assert sol.fun == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
        np.testing.assert_allclose(A @ sol.x, b, atol=1e-8)
        assert np.min(sol.x) > -1e-9
        # duals: strong duality and feasibility
        assert sol.duals @ b == pytest.approx(sol.fun, abs=1e-7)
        assert np.all(A.T @ sol.duals <= c + 1e-7)


def test_reference_two_phase_raises_on_a_lifted_artificial():
    # x0 + x1 + x2 = 1 and x0 + x1 = 1 force x2 = 0.  Phase 1 ends with x0
    # basic and the second row's artificial basic at zero, its x2 entry -1;
    # minimising -x2 then enters x2 and lifts that artificial to 1, which
    # without the check would report the infeasible x = (0, 0, 1), C = -1.
    A = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(SimplexError, match="artificial column basic at 1"):
        reference_solve_lp(np.array([0.0, 0.0, -1.0]), A, np.array([1.0, 1.0]))
    sol, _ = reference_solve_lp(np.array([0.0, 0.0, 1.0]), A, np.array([1.0, 1.0]))
    assert sol.fun == 0.0


def test_solution_is_dataclass():
    sol = solve_lp(np.array([1.0]), np.array([[1.0]]), np.array([2.0]), [0])
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
            if trial % 8:
                A[0] = np.abs(A[0]) + 1.0  # bounded; the rest may be unbounded
            b = rng.random(m)
            if kind != 0:
                b[rng.random(m) < 0.5] = 0.0  # degenerate starting vertex
            if kind == 2:
                A[-1], b[-1] = 2.0 * A[0], 2.0 * b[0]  # redundant row
            c = rng.normal(size=n) if kind != 3 else rng.integers(-2, 3, n).astype(float)
            assert_same_pivot_path(*slack_form(A, b, c))

    def test_random_lps_with_mirror_pairs(self, rng):
        flips = 0
        for trial in range(400):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, m + 6))
            kind = trial % 4
            A = rng.normal(size=(m, n)) if kind == 0 else rng.integers(-2, 3, (m, n)).astype(float)
            b = rng.random(m)
            if kind != 0:
                b[rng.random(m) < 0.5] = 0.0
            if kind == 2:
                A[-1], b[-1] = 2.0 * A[0], 2.0 * b[0]
            c = rng.normal(size=n) if kind != 3 else rng.integers(-2, 3, n).astype(float)
            # Pair costs mostly positive (a bounded L1 term), sometimes zero
            # or negative (unbounded unless another row stops the step).
            c_slack = rng.integers(0, 3, m).astype(float) if kind != 1 else rng.normal(size=m)
            c_surplus = rng.integers(0, 3, m).astype(float)
            lp = mirrored_form(A, b, c, c_slack, c_surplus)
            assert_same_pivot_path(*lp)
            try:
                flips += solve_lp(*lp).flips
            except SimplexError:
                pass
        assert flips > 0

    def test_coarse_tol_on_a_half_integer_grid(self, rng, monkeypatch):
        # With TOL = 0.5 and every entry on a half-integer grid, coefficients
        # and slopes land exactly on -TOL or TOL, most steps are degenerate,
        # and chains of ratios within TOL of each other decide Bland's
        # leaving row.
        monkeypatch.setattr(mss.simplex, "TOL", 0.5)
        for trial in range(300):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, m + 5))
            A = rng.integers(-4, 5, (m, n)) / 2.0
            c_slack, c_surplus = rng.integers(0, 4, (2, m)) / 2.0
            lp = mirrored_form(A, rng.integers(0, 9, m) / 2.0, rng.integers(-4, 5, n) / 2.0,
                               c_slack, c_surplus)
            assert_same_pivot_path(*lp)

    def test_bland_ratio_test_reads_rows_in_order(self, monkeypatch):
        # x0 enters first at a zero ratio, so x1 enters by Bland's rule.  Its
        # ratios, 0.8, 0.4 and 0.0 in row order, chain within TOL = 0.5: read
        # in row order the test ends at the smallest, read in ratio order it
        # would end at 0.8, where two slacks are negative.
        monkeypatch.setattr(mss.simplex, "TOL", 0.5)
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        lp = slack_form(A, np.array([0.0, 0.8, 0.4, 0.0]), np.array([-2.0, -1.0]))
        sol = solve_lp(*lp)
        assert (sol.iterations, sol.fun) == (2, 0.0) and sol.x.min() == 0.0
        assert_same_pivot_path(*lp)

    def test_random_l1_fits(self, rng):
        flips = 0
        for trial in range(200):
            k = int(rng.integers(2, 9))
            nv = int(rng.integers(2, 3 * k))
            # Integer vertices and a grid target make ties and degeneracy.
            F = rng.integers(-2, 3, (k, nv)).astype(float)
            w = rng.integers(-4, 5, k) / 2.0 if trial % 2 else rng.normal(size=k)
            lp = l1_fit_form(F, w)
            assert_same_pivot_path(*lp)
            flips += solve_lp(*lp).flips
        assert flips > 0

    def test_infeasible_and_unbounded(self):
        A, b = np.array([[1.0, -1.0]]), np.array([1.0])
        assert_same_pivot_path(np.zeros(2), A, b, [1])
        assert_same_pivot_path(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]),
                               np.array([1.0, 1.0]), [0, 1])
        assert_same_pivot_path(np.array([-1.0, 0.0]), A, b, [0])
        # Every breakpoint flips: the pair cost never lifts the slope to 0.
        assert_same_pivot_path(*mirrored_form(np.array([[1.0]]), np.array([1.0]),
                                              np.array([-2.0]), np.array([0.5]),
                                              np.array([0.5])))

    @pytest.mark.parametrize("n", [1, 2])
    def test_wigner_distance_lps(self, n, rng):
        # Haar and Ginibre states, and the degenerate classes where flips and
        # Bland pivots occur: phase products (T or T x T first) and
        # stabilizer mixtures.
        lps = [wigner_lp(rho) for rho in oracle_states(n, rng, 10)]
        assert len(lps) == 40 and len(lps[0][1]) == 4 ** n + 1  # 5 or 17 rows
        for lp in lps:
            assert_same_pivot_path(*lp)
        assert sum(solve_lp(*lp).flips for lp in lps[3::4]) > 0

    def test_zeros_are_reported_as_positive(self, rng):
        # The BLAS rank-1 update drops the sign of a zero product, so a zero
        # of x or of the duals could carry either sign; both are +0.0.  Six
        # of these 40 LPs reported a -0.0 dual before.
        sols = [solve_lp(*wigner_lp(rho)) for rho in oracle_states(2, rng, 10)]
        for sol in sols:
            assert not np.signbit(sol.x[sol.x == 0.0]).any()
            assert not np.signbit(sol.duals[sol.duals == 0.0]).any()


class TestTermination:
    def test_beale_cycling_example(self):
        # Beale (1955): from the slack basis, Dantzig's rule with the lowest
        # index breaking ties cycles through six degenerate bases.  The
        # Bland fallback after a degenerate step breaks the cycle.
        A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
        lp = slack_form(A, np.array([0.0, 0.0, 1.0]), np.array([-0.75, 20.0, -0.5, 6.0]))
        sol = solve_lp(*lp)
        assert sol.fun == pytest.approx(-1.25, abs=1e-12)
        np.testing.assert_allclose(sol.x[:4], [1.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert (sol.iterations, sol.flips) == (6, 0)
        assert_same_pivot_path(*lp)

    def test_iteration_cap(self, monkeypatch):
        c, A, b, basis = slack_form(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]),
                                    np.array([4.0, 12.0, 18.0]), np.array([-3.0, -5.0]))
        assert solve_lp(c, A, b, basis).iterations == 2
        monkeypatch.setattr(mss.simplex, "MAX_ITER", 1)
        with pytest.raises(SimplexError, match="iteration cap 1 exceeded"):
            solve_lp(c, A, b, basis)
        monkeypatch.setattr(mss.simplex, "MAX_ITER", 2)
        assert solve_lp(c, A, b, basis).fun == pytest.approx(-36.0, abs=1e-9)

    def test_zero_objective_stop_reports_the_zero_dual(self):
        # min x1 + x2, x0 + x1 - x2 = 0 from the basis {x1}: the objective is
        # already 0 and x0 has reduced cost -1.  Bland pivots x0 in, for
        # nothing; the stop ends the solve first, with y = 0.
        lp = np.array([0.0, 1.0, 1.0]), np.array([[1.0, 1.0, -1.0]]), np.array([0.0]), [1]
        sol = solve_lp(*lp)
        assert (sol.iterations, sol.fun) == (0, 0.0) and not sol.duals.any()
        bland, _ = reference_solve_lp(*lp, bland=True)
        assert (bland.iterations, bland.fun) == (1, 0.0)

    def test_small_nonzero_objective_is_solved_out(self):
        # The same LP with b = 5e-10, under TOL but over ZERO_OBJECTIVE: the
        # start x1 = 5e-10 is not optimal, and x0 must still pivot in.
        lp = np.array([0.0, 1.0, 1.0]), np.array([[1.0, 1.0, -1.0]]), np.array([5e-10]), [1]
        assert ZERO_OBJECTIVE < 5e-10 < TOL
        sol = solve_lp(*lp)
        assert (sol.iterations, sol.fun) == (1, 0.0) and not sol.duals.any()
        np.testing.assert_array_equal(sol.x, [5e-10, 0.0, 0.0])
        assert_same_pivot_path(*lp)


class TestMirror:
    def test_mirror_columns_are_found_in_A(self):
        # Columns 1 and 4 negate column 0 (4 by a signed zero), column 2 has
        # no negation, and the zero column 3 is its own.  Columns 0, 1 and 4
        # are +-e_0.
        A = np.array([[1.0, -1.0, 2.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0, -0.0]])
        mirror, structural, priced, unit_row, unit_sign, template = _columns(A.tobytes(), 2, 5)
        assert mirror == (1, 0, -1, 3, 0)
        # Column 2 alone has no mirror; it does not lead, so an index array
        # reads its reduced cost.
        assert structural == (2,) and priced.tolist() == [2]
        assert unit_row == [0, 0, -1, -1, 0]
        assert [unit_sign[j] for j in (0, 1, 4)] == [1.0, -1.0, -1.0]
        assert template.tobytes() == np.hstack([A, np.eye(2), np.zeros((2, 1))]).tobytes()
        assert not template.flags.writeable
        A, n = mss.magic._lp_constants(2)[1], 60
        mirror, structural, priced = _columns(A.tobytes(), *A.shape)[:3]
        assert mirror == (*[-1] * n, *range(n + 16, n + 32), *range(n, n + 16))
        assert structural == tuple(range(n)) and priced == slice(0, n)

    def test_flip_walks_past_a_residual_sign_change(self):
        # min |2 - x| + |3 - x| + |4 - x|  as  x + s_i - t_i = b_i from x = 0.
        # The slope starts at -3 and each residual's zero raises it by 2: one
        # long step flips s_1 for t_1 and stops at the median, x = 3.
        c, A, b, basis = mirrored_form(np.ones((3, 1)), np.array([2.0, 3.0, 4.0]),
                                       np.zeros(1), np.ones(3), np.ones(3))
        sol = solve_lp(c, A, b, basis)
        assert (sol.iterations, sol.flips) == (1, 1)
        assert sol.fun == pytest.approx(2.0, abs=1e-12)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
        bland, _ = reference_solve_lp(c, A, b, basis, bland=True)
        assert bland.fun == pytest.approx(2.0, abs=1e-12) and bland.iterations > 1


class TestTwoStagePricing:
    def test_structural_column_enters_before_a_residual(self):
        # An L1 fit over 3 vertices and 3 residual rows (lambda in columns
        # 0-2, u in 3-5, v in 6-8), started from lambda_0, lambda_1, u_2 and
        # v_1.  There u_0 has reduced cost -3 and lambda_2 -1: Dantzig's rule
        # would enter u_0, stage one enters lambda_2, and one degenerate
        # pivot ends the solve.
        F = np.array([[-1.0, 0.0, 0.0], [1.0, 2.0, 2.0], [1.0, -2.0, -1.0]])
        c, A, _, _ = l1_fit_form(F, np.array([0.0, -3.0, -2.0]))
        b, basis = np.array([0.0, -3.0, -2.0, 1.0]), [0, 1, 5, 7]
        y = np.linalg.solve(A[:, basis].T, c[basis])
        reduced = c - y @ A
        assert reduced.argmin() == 3 and reduced[2] == pytest.approx(-1.0, abs=1e-12)
        sol, final_basis = solve_with_final_basis(c, A, b, basis)
        assert (sol.iterations, sol.flips, sol.fun) == (1, 0, 5.0)
        assert final_basis == [0, 1, 2, 7]
        assert reference_solve_lp(c, A, b, basis)[1] == final_basis

    def test_magic2q_pivots_per_solve(self, monkeypatch):
        # The benchmark's 2-qubit states of seeds 1-5 (1000 solves).  Pricing
        # every column each time takes 12.15 pivots per solve here.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        from bench.workloads import build_items

        pivots = [solve_lp(*wigner_lp(item.rho)).iterations
                  for seed in range(1, 6) for item in build_items("magic2q", seed)]
        assert len(pivots) == 1000 and np.mean(pivots) <= 10.5


class TestBadInput:
    """Refused with a ValueError naming the argument, before any arithmetic,
    or with a SimplexError once the start tableau or a pivot overflows; never
    with a numpy warning, which the suite turns into an error."""

    @staticmethod
    def lp():
        return slack_form(np.array([[1.0, 1.0]]), np.array([4.0]), np.array([-1.0, -2.0]))

    @pytest.mark.parametrize("name, index, value", [
        ("b", 0, np.nan), ("c", 1, np.nan), ("A", (0, 0), np.nan), ("b", 0, np.inf)])
    def test_non_finite_entry(self, name, index, value):
        c, A, b, basis = self.lp()
        {"c": c, "A": A, "b": b}[name][index] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            solve_lp(c, A, b, basis)

    def test_fractional_basis_entry(self):
        c, A, b, _ = self.lp()
        with pytest.raises(ValueError, match="^basis entries must be integers$"):
            solve_lp(c, A, b, [2.7])

    @pytest.mark.parametrize("name", ["A", "b", "c"])
    def test_complex_entry(self, name):
        c, A, b, basis = self.lp()
        args = {"c": c, "A": A, "b": b}
        args[name] = args[name] + 0j
        with pytest.raises(ValueError, match=f"^{name} must be real$"):
            solve_lp(args["c"], args["A"], args["b"], basis)

    @pytest.mark.parametrize("A", [[1.0, 1.0], [[[1.0, 1.0]]]], ids=["1-D", "3-D"])
    def test_a_that_is_not_a_matrix(self, A):
        with pytest.raises(ValueError, match=f"^A must be 2-D, got {np.ndim(A)} dimensions$"):
            solve_lp([1.0, 1.0], A, [1.0], [0])

    def test_start_tableau_overflow(self):
        # Finite input whose start pivot divides 1e300 by 1e-300.
        with pytest.raises(SimplexError, match="^start tableau overflows"):
            solve_lp([1.0, 1.0], [[1e-300, 1e300]], [1.0], [0])

    def test_pivot_overflow(self):
        # A finite unit start whose first pivot divides 1e302 by 1e-8.
        with pytest.raises(SimplexError, match="^tableau overflows in a pivot"):
            solve_lp([-1.0, 0.0], [[1e-8, 1.0]], [1e302], [1])
