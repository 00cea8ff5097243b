"""Solver tests on the one LP it solves, the L1 fit of a Wigner vector over
the stabilizer polytope, cross-checked against scipy.optimize.linprog where
available and, pivot by pivot, against a scalar reference implementation."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

import mss.simplex
from mss.magic import _lp_constants, wigner_distance
from mss.simplex import TOL, ZERO_OBJECTIVE, LPSolution, SimplexError, _layout, solve_lp
from mss.qcore import phase_plus
from mss.wigner import wigner_of

from conftest import nearest_vertex, oracle_states, wigner_lp


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


def l1_matrix(F):
    """The read-only A = [F | I | -I ; 1...1 | 0 | 0] of the L1 fit over F's columns."""
    k, nv = F.shape
    A = np.block([[F, np.eye(k), -np.eye(k)], [np.ones((1, nv)), np.zeros((1, 2 * k))]])
    A.setflags(write=False)
    return A


def l1_fit(F, w):
    """(A, w, vertex): min ||w - F lam||_1 over the simplex, started, as in
    mss.magic, at the column nearest to w in L1."""
    F, w = np.asarray(F, dtype=float), np.asarray(w, dtype=float)
    return l1_matrix(F), w, nearest_vertex(F, w)


def general_form(A, w, vertex):
    """The reference's (c, A, b, basis) for solve_lp(A, w, vertex): costs 0
    on lambda and 1 on u and v, b = (w, 1), and the start basis, u_i where
    w_i >= F_i,vertex and v_i elsewhere, then lambda_vertex."""
    k = len(w)
    nv = A.shape[1] - 2 * k
    basis = [nv + i + k * bool(w[i] < A[i, vertex]) for i in range(k)]
    return np.repeat([0.0, 1.0], [nv, 2 * k]), A, np.append(w, 1.0), [*basis, vertex]


def highs_l1_fit(F, w):
    """min ||w - F lam||_1 over the simplex, from scipy's HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    k, nv = F.shape
    eye = np.eye(k)
    res = linprog(np.concatenate([np.zeros(nv), np.ones(k)]),
                  A_ub=np.block([[F, -eye], [-F, -eye]]), b_ub=np.concatenate([w, -w]),
                  A_eq=np.concatenate([np.ones(nv), np.zeros(k)])[None], b_eq=[1.0],
                  bounds=[(0, None)] * (nv + k), method="highs")
    assert res.success
    return res.fun


def solve_with_final_basis(A, w, vertex):
    """solve_lp plus the final basis, read off the pivot loop's basis list.
    Also checks that the final basic columns' reduced costs are within 1e-12
    of 0, which lets the loop price without a nonbasic mask."""
    seen = []
    pivot_loop = mss.simplex._pivot_loop

    def spy(tab, basis, *args):
        seen.append(basis)
        out = pivot_loop(tab, basis, *args)
        assert np.abs(tab[-1, basis]).max() <= 1e-12
        return out

    mss.simplex._pivot_loop = spy
    try:
        sol = solve_lp(A, w, vertex)
    finally:
        mss.simplex._pivot_loop = pivot_loop
    return sol, list(seen[-1])


def assert_same_pivot_path(A, w, vertex):
    """Same outcome as the reference from the same start: the same error, or
    the same pivot and flip counts, final basis and byte-identical x, duals
    and objective."""
    try:
        want, want_basis = reference_solve_lp(*general_form(A, w, vertex))
    except SimplexError as exc:
        with pytest.raises(SimplexError, match=str(exc).split(":")[0]):
            solve_lp(A, w, vertex)
        return
    got, got_basis = solve_with_final_basis(A, w, vertex)
    assert (got.iterations, got.flips) == (want.iterations, want.flips)
    assert got_basis == want_basis
    assert got.x.tobytes() == want.x.tobytes()
    assert got.duals.tobytes() == want.duals.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()


def face_points(n, rng, per_class):
    """Wigner vectors on faces of the n-qubit stabilizer polytope, where the
    L1 fit is degenerate: for each oracle state with C > 0, its nearest
    point f*, and a random mixture of the vertices on the face that its dual
    witness exposes (those where y . F_j is largest)."""
    F = _lp_constants(n)[0]
    for rho in oracle_states(n, rng, per_class):
        if wigner_distance(rho).c_value == 0.0:
            continue
        yield wigner_distance(rho).f_star
        scores = solve_lp(*wigner_lp(rho)).duals[:-1] @ F
        face = np.flatnonzero(scores >= scores.max() - 1e-12)
        yield F[:, face] @ rng.dirichlet(np.ones(len(face)))


def grid_points(n, rng, count):
    """Vectors on the 1/8 grid that sum to 1: a vertex of the n-qubit
    polytope with one to four transfers of 1/8 between random entries,
    where ratios and reduced costs tie."""
    F = _lp_constants(n)[0]
    for _ in range(count):
        w = F[:, rng.integers(F.shape[1])].copy()
        for _ in range(rng.integers(1, 5)):
            a, b = rng.choice(len(w), size=2, replace=False)
            w[a] += 0.125
            w[b] -= 0.125
        yield w


def wigner_family(n, rng):
    """(A, w, vertex) of the n-qubit L1 fit at the four magic2q classes
    (Haar, Ginibre, phase products with T or T x T first, stabilizer
    mixtures), at points on the polytope's faces and at w on the 1/8 grid."""
    F, A = _lp_constants(n)
    ws = [wigner_of(rho) for rho in oracle_states(n, rng, 5)]
    ws += [*face_points(n, rng, 3), *grid_points(n, rng, 12)]
    return [(A, w, nearest_vertex(F, w)) for w in ws]


def test_textbook_problem():
    # The T state's fit: C = (sqrt(2) - 1)/2, the closed form's value.
    sol = solve_lp(*wigner_lp(phase_plus(np.pi / 4).density()))
    assert sol.fun == pytest.approx((np.sqrt(2.0) - 1.0) / 2.0, abs=1e-12)
    assert sol.x[:6].sum() == pytest.approx(1.0, abs=1e-12)


def test_equality_with_negative_rhs():
    # w below every vertex in both rows: the start holds v_0 and v_1, with
    # values F_0 - w, and the fit ends at the vertex (1, 2), 1 + 1.5 away.
    lp = l1_fit([[1.0, 3.0], [2.0, 4.0]], [0.0, 0.5])
    assert lp[2] == 0 and general_form(*lp)[3] == [4, 5, 0]
    sol = solve_lp(*lp)
    assert sol.fun == 2.5 and sol.iterations == 0
    np.testing.assert_array_equal(sol.x, [1.0, 0.0, 0.0, 0.0, 1.0, 1.5])


def test_dual_satisfies_strong_duality(rng):
    # y . b = c . x, and dual feasibility A^T y <= c, on the Wigner LPs.
    for n in (1, 2):
        for A, w, vertex in wigner_family(n, rng):
            c, _, b, _ = general_form(A, w, vertex)
            sol = solve_lp(A, w, vertex)
            assert sol.duals @ b == pytest.approx(sol.fun, abs=1e-9)
            assert np.all(A.T @ sol.duals <= c + 1e-9)


class TestStartBasis:
    """The closed-form start against the basis inverse."""

    def test_random_bases(self, rng, monkeypatch):
        # The tableau the pivot loop starts from is B^-1 [A | I | b] over
        # the cost row [c | 0 | 0] - c_B B^-1 [A | I | b], within 1e-12.
        starts = []
        pivot_loop = mss.simplex._pivot_loop

        def spy(tab, *args):
            starts.append(tab.copy())
            return pivot_loop(tab, *args)

        monkeypatch.setattr(mss.simplex, "_pivot_loop", spy)
        lps = [*wigner_family(2, rng)[::4], *(l1_fit(rng.integers(-2, 3, (k, 2 * k)) / 2.0,
                                                     rng.normal(size=k)) for k in range(1, 9))]
        for A, w, vertex in lps:
            c, _, b, basis = general_form(A, w, vertex)
            solve_lp(A, w, vertex)
            binv = np.linalg.inv(A[:, basis])
            want = np.hstack([binv @ A, binv, binv @ b[:, None]])
            want = np.vstack([want, np.concatenate([c, np.zeros(len(b) + 1)]) - c[basis] @ want])
            np.testing.assert_allclose(starts.pop(), want, rtol=0, atol=1e-12)


def test_degenerate_problem_terminates():
    # A degenerate step here hands the next pivot to Bland's rule, on the
    # reference's path: four pivots, where Dantzig's rule throughout takes
    # three to the same optimum.  A search of 600,000 random L1 fits on
    # small grids found none that cycles under Dantzig's rule alone; the
    # fallback is what proves that none can.
    lp = l1_fit([[-2.0, 0.0, 2.0, -1.0], [0.0, -2.0, -2.0, -2.0]], [-2.0, -1.5])
    sol = solve_lp(*lp)
    assert (sol.iterations, sol.flips, sol.fun) == (4, 0, 0.75)
    assert_same_pivot_path(*lp)


def test_random_problems_against_scipy(rng):
    for trial in range(60):
        k = int(rng.integers(1, 9))
        F = rng.normal(size=(k, int(rng.integers(2, 3 * k + 2))))
        if trial % 2:
            F = np.round(F * 2) / 2  # ties on a grid
        A, w, vertex = l1_fit(F, rng.normal(size=k) * 2)
        sol = solve_lp(A, w, vertex)
        assert sol.fun == pytest.approx(highs_l1_fit(F, w), abs=1e-8), f"trial {trial}"
        np.testing.assert_allclose(A @ sol.x, np.append(w, 1.0), rtol=0, atol=1e-9)
        assert sol.x.min() >= 0.0


def test_solution_is_dataclass():
    sol = solve_lp(*l1_fit([[1.0, 2.0]], [1.5]))
    assert isinstance(sol, LPSolution)
    assert sol.fun == 0.0 and sol.x[:2].tolist() == [0.5, 0.5]
    assert not sol.x.flags.writeable and not sol.duals.flags.writeable


class TestSamePivotPathAsReference:
    """The vectorised pivot loop against the scalar reference, byte for byte."""

    def test_random_lps_with_mirror_pairs(self, rng):
        # Generic L1 fits: Gaussian vertices and targets, no ties.
        flips = 0
        for trial in range(200):
            k = int(rng.integers(1, 9))
            lp = l1_fit(rng.normal(size=(k, int(rng.integers(2, 3 * k + 2)))),
                        rng.normal(size=k))
            assert_same_pivot_path(*lp)
            flips += solve_lp(*lp).flips
        assert flips > 0

    def test_coarse_tol_on_a_half_integer_grid(self, rng, monkeypatch):
        # With TOL = 0.5 and every entry on a half-integer grid, coefficients
        # and slopes land exactly on -TOL or TOL, most steps are degenerate,
        # and chains of ratios within TOL of each other decide Bland's
        # leaving row.
        monkeypatch.setattr(mss.simplex, "TOL", 0.5)
        for trial in range(300):
            k = int(rng.integers(1, 6))
            F = rng.integers(-4, 5, (k, int(rng.integers(2, k + 5)))) / 2.0
            assert_same_pivot_path(*l1_fit(F, rng.integers(-8, 9, k) / 4.0))

    def test_bland_ratio_test_reads_rows_in_order(self, monkeypatch):
        # At TOL = 0.5 a degenerate step hands the second pivot to Bland's
        # rule, whose ratios chain within TOL.  Read in row order the test
        # ends at a feasible basis; read in ratio order it would end at one
        # with basic values down to -0.83 and report C = 0.75.
        monkeypatch.setattr(mss.simplex, "TOL", 0.5)
        lp = l1_fit([[1.5, 2.0, 1.0, -2.0, -1.5], [-2.0, -2.0, -1.5, 1.5, -2.0],
                     [1.0, -1.5, -2.0, 2.0, 1.0], [1.0, 0.0, -2.0, -1.5, 0.5]],
                    [0.0, 1.5, -0.25, -1.0])
        sol = solve_lp(*lp)
        assert (sol.iterations, sol.flips) == (2, 1) and sol.x.min() == 0.0
        assert sol.fun == pytest.approx(2.0961538461538463, abs=1e-15)
        assert_same_pivot_path(*lp)

    def test_random_l1_fits(self, rng):
        flips = 0
        for trial in range(200):
            k = int(rng.integers(2, 9))
            nv = int(rng.integers(2, 3 * k))
            # Integer vertices and a grid target make ties and degeneracy.
            F = rng.integers(-2, 3, (k, nv)).astype(float)
            w = rng.integers(-4, 5, k) / 2.0 if trial % 2 else rng.normal(size=k)
            lp = l1_fit(F, w)
            assert_same_pivot_path(*lp)
            flips += solve_lp(*lp).flips
        assert flips > 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_wigner_distance_lps(self, n, rng):
        # The four magic2q classes, points on the polytope's faces and w on
        # the 1/8 grid; flips occur, and Bland pivots among the degenerate
        # ones.  HiGHS agrees on the objective.
        lps = wigner_family(n, rng)
        assert len(lps) >= 40 and len(lps[0][1]) == 4 ** n
        F = _lp_constants(n)[0]
        for lp in lps:
            assert_same_pivot_path(*lp)
            assert solve_lp(*lp).fun == pytest.approx(highs_l1_fit(F, lp[1]), abs=1e-8)
        assert sum(solve_lp(*lp).flips for lp in lps) > 0

    def test_zeros_are_reported_as_positive(self, rng):
        # The BLAS rank-1 update drops the sign of a zero product, so a zero
        # of x or of the duals could carry either sign; both are +0.0.
        for A, w, vertex in wigner_family(2, rng):
            sol = solve_lp(A, w, vertex)
            assert not np.signbit(sol.x[sol.x == 0.0]).any()
            assert not np.signbit(sol.duals[sol.duals == 0.0]).any()


class TestTermination:
    def test_beale_cycling_example(self):
        # Beale (1955): from the slack basis, Dantzig's rule with the lowest
        # index breaking ties cycles through six degenerate bases.  The
        # Bland fallback after a degenerate step breaks the cycle.  This LP
        # is no L1 fit, so the rule runs here through the scalar reference,
        # the path solve_lp must follow.
        A = np.array([[0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
                      [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
        c = np.array([-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0])
        sol, _ = reference_solve_lp(c, A, np.array([0.0, 0.0, 1.0]), [4, 5, 6])
        assert sol.fun == pytest.approx(-1.25, abs=1e-12)
        np.testing.assert_allclose(sol.x[:4], [1.0, 0.0, 1.0, 0.0], atol=1e-12)
        assert (sol.iterations, sol.flips) == (6, 0)

    def test_iteration_cap(self, monkeypatch):
        lp = l1_fit([[-2.0, 0.0, 2.0, -1.0], [0.0, -2.0, -2.0, -2.0]], [-2.0, -1.5])
        monkeypatch.setattr(mss.simplex, "MAX_ITER", 3)
        with pytest.raises(SimplexError, match="^iteration cap 3 exceeded$"):
            solve_lp(*lp)
        monkeypatch.setattr(mss.simplex, "MAX_ITER", 4)
        assert solve_lp(*lp).fun == 0.75

    def test_zero_objective_stop_reports_the_zero_dual(self):
        # w = F_0, so the start's objective is already 0, and lambda_1 has
        # reduced cost -1.  Bland pivots lambda_1 in, for nothing; the stop
        # ends the solve first, with y = 0.
        lp = l1_fit([[1.0, 2.0]], [1.0])
        sol = solve_lp(*lp)
        assert (sol.iterations, sol.fun) == (0, 0.0) and not sol.duals.any()
        bland, _ = reference_solve_lp(*general_form(*lp), bland=True)
        assert (bland.iterations, bland.fun) == (1, 0.0)

    def test_small_nonzero_objective_is_solved_out(self):
        # The same fit with w = 1 + 5e-10, whose start objective lies under
        # TOL but over ZERO_OBJECTIVE: it is not optimal, and lambda_1 must
        # still pivot in.
        lp = l1_fit([[1.0, 2.0]], [1.0 + 5e-10])
        assert ZERO_OBJECTIVE < lp[1][0] - 1.0 < TOL
        sol = solve_lp(*lp)
        assert (sol.iterations, sol.fun) == (1, 0.0) and not sol.duals.any()
        assert sol.x[:2] @ [1.0, 2.0] == lp[1][0]
        assert_same_pivot_path(*lp)


class TestMirror:
    def test_mirror_columns_are_found_in_A(self):
        # u_i and v_i mirror each other and lambda has none, by A's checked
        # form.  The layout is built once per A object and holds A; an equal
        # matrix is another object with its own entry, since nothing hashes
        # A's contents.
        A = _lp_constants(2)[1]
        template, mirror, costs, cost_list, c_B = layout = _layout(A)
        assert _layout(A) is layout and mss.simplex._LAYOUTS[id(A)][0] is A
        n = 60
        assert mirror == (*[-1] * n, *range(n + 16, n + 32), *range(n, n + 16))
        assert template.tobytes() == np.hstack([A, np.eye(17), np.eye(17)[:, -1:]]).tobytes()
        assert cost_list == costs.tolist() == [0.0] * n + [1.0] * 32
        assert c_B.tolist() == [1.0] * 16 + [0.0]
        assert not any(a.flags.writeable for a in (template, costs, c_B))
        copy = A.copy()
        copy.setflags(write=False)
        assert _layout(copy) is not layout
        assert _layout(copy)[0].tobytes() == template.tobytes()

    def test_flip_walks_past_a_residual_sign_change(self):
        # min |2 - 6t| + |3 - 6t| + |4 - 6t| over lambda = (1 - t, t): from
        # the vertex 0 the slope starts at -18 and each residual's zero raises
        # it by 12, so one long step flips u_0 for v_0 and stops at the
        # median 6t = 3.
        lp = l1_fit([[0.0, 6.0], [0.0, 6.0], [0.0, 6.0]], [2.0, 3.0, 4.0])
        assert lp[2] == 0
        sol = solve_lp(*lp)
        assert (sol.iterations, sol.flips) == (1, 1)
        assert sol.fun == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(sol.x[:2], [0.5, 0.5], rtol=0, atol=1e-12)
        bland, _ = reference_solve_lp(*general_form(*lp), bland=True)
        assert bland.fun == pytest.approx(2.0, abs=1e-12) and bland.iterations > 1
        assert_same_pivot_path(*lp)


class TestTwoStagePricing:
    def test_structural_column_enters_before_a_residual(self):
        # Pricing every column takes three pivots here; pricing the lambda
        # columns first takes four, on the reference's path.
        lp = l1_fit([[-0.5, 1.5, 2.0, 1.5], [0.5, -2.0, 1.5, 2.0], [0.0, 0.0, -0.5, -1.5]],
                    [1.0, 1.25, 2.0])
        sol = solve_lp(*lp)
        assert (sol.iterations, sol.flips) == (4, 0)
        assert sol.fun == pytest.approx(2.45, abs=1e-12)
        assert_same_pivot_path(*lp)

    def test_magic2q_pivots_per_solve(self, monkeypatch):
        # The benchmark's 2-qubit states of seeds 1-5 (1000 solves).  Pricing
        # every column each time takes 12.15 pivots per solve here.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        from bench.workloads import build_items

        pivots = [solve_lp(*wigner_lp(item.rho)).iterations
                  for seed in range(1, 6) for item in build_items("magic2q", seed)]
        assert len(pivots) == 1000 and np.mean(pivots) <= 10.5


def _read_only(array, view=False):
    """A read-only copy of ``array``; with ``view``, a read-only view of a
    writable copy."""
    array = np.array(array)
    if view:
        array = array[:, :]
    array.setflags(write=False)
    return array


def _edited(index, value):
    """The 2-qubit A, read-only, with one entry set."""
    A = _lp_constants(2)[1].copy()
    A[index] = value
    return _read_only(A)


class TestBadInput:
    """Refused with a ValueError naming the argument, before any arithmetic,
    or with a SimplexError once the tableau overflows; never with a numpy
    warning, which the suite turns into an error."""

    A = _lp_constants(2)[1]
    W = np.full(16, 1 / 16)
    FORM = "A must be [F | I | -I ; 1...1 | 0 | 0] with F finite"

    @pytest.mark.parametrize("name, index, value", [
        ("b", 0, np.nan), ("A", (3, 5), np.inf), ("A", (0, 0), np.nan), ("b", 0, np.inf)])
    def test_non_finite_entry(self, name, index, value):
        # b = (w, 1) is the LP's right-hand side.
        A, b = self.A.copy(), np.append(self.W, 1.0)
        {"A": A, "b": b}[name][index] = value
        message = self.FORM if name == "A" else "w must be a finite float64 vector of length 16"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_lp(_read_only(A), b[:-1], 0)

    def test_fractional_basis_entry(self):
        for vertex in (2.7, 3.0, "3", None):
            with pytest.raises(ValueError, match=r"^vertex must be an integer in \[0, 60\)$"):
                solve_lp(self.A, self.W, vertex)
        assert solve_lp(self.A, self.W, np.int64(3)).fun == solve_lp(self.A, self.W, 3).fun

    @pytest.mark.parametrize("name", ["A", "b"])
    def test_complex_entry(self, name):
        args = {"A": self.A, "b": self.W}
        args[name] = _read_only(args[name] + 0j)
        message = "A must be a 2-D float64 array" if name == "A" else "w must be a finite float64"
        with pytest.raises(ValueError, match=f"^{message}"):
            solve_lp(args["A"], args["b"], 0)

    @pytest.mark.parametrize("A", [[1.0, 1.0], [[[1.0, 1.0]]]], ids=["1-D", "3-D"])
    def test_a_that_is_not_a_matrix(self, A):
        with pytest.raises(ValueError, match="^A must be a 2-D float64 array$"):
            solve_lp(_read_only(A), [1.0], 0)

    @pytest.mark.parametrize("A, message", [
        (A.copy(), "A must be read-only"),
        (_read_only(A, view=True), "A must be read-only"),
        (A.tolist(), "A must be a 2-D float64 array"),
        (_read_only(A.astype(np.float32)), "A must be a 2-D float64 array"),
        # A general LP can no longer be posed: this one was once reported
        # unbounded, by a ratio test that skipped entries under TOL.
        (_read_only([[1e-10, 1.0]]), FORM),
        (_read_only(A[:, :-1]), FORM),
        (_read_only(A[1:]), FORM),
        (_edited((0, -16), 0.0), FORM),
        (_edited((16, 0), 0.5), FORM),
        (_edited((16, -1), 1.0), FORM),
    ], ids=["writable", "view of writable", "list", "float32", "general LP",
            "column missing", "row missing", "-I entry", "convexity entry",
            "residual in the convexity row"])
    def test_malformed_A(self, A, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            solve_lp(A, self.W, 0)

    @pytest.mark.parametrize("w", [np.full(15, 1 / 15), np.full(17, 1 / 17), [[0.0] * 16],
                                   [0] * 16, [-np.inf] + [0.0] * 15])
    def test_malformed_w(self, w):
        with pytest.raises(ValueError, match="^w must be a finite float64 vector of length 16$"):
            solve_lp(self.A, w, 0)

    @pytest.mark.parametrize("vertex", [-1, 60, 10 ** 20])
    def test_vertex_out_of_range(self, vertex):
        with pytest.raises(ValueError, match=r"^vertex must be an integer in \[0, 60\)$"):
            solve_lp(self.A, self.W, vertex)

    def test_start_tableau_overflow(self):
        # Finite, but the cost row sums sixteen residuals of about 1e308.
        # The overflow is caught once, after the pivot loop.
        with pytest.raises(SimplexError, match="^tableau overflows: w is badly scaled$"):
            solve_lp(self.A, np.full(16, 1e308), 0)


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


