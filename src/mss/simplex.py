"""Dense two-phase simplex for small equality-form linear programs.

Solves  min c.x  subject to  A x = b,  x >= 0,  and returns both the primal
optimum and the dual vector for the equality constraints.  Bland's rule
(smallest eligible index enters, ties in the ratio test broken by smallest
basic variable) prevents cycling on the degenerate bases that show up when
several polytope vertices are equidistant from the target.

Built for problems with tens of rows and at most a few hundred columns;
everything is dense numpy and a fresh tableau is allocated per call, so
concurrent solves are independent.  Each pivot picks the entering column
from a boolean mask of the non-basic columns, runs the tie-breaking ratio
test in Python over the rows with a positive coefficient only, and
eliminates with one rank-1 update of the rows whose factor is nonzero.  The
arithmetic per element is that of a row-by-row loop, so pivots, basis and
results match it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10_000


class SimplexError(RuntimeError):
    """Infeasible input or iteration cap exceeded."""


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray          # primal optimum, length n
    fun: float             # optimal objective value
    duals: np.ndarray      # dual vector y for the equality rows, length m
    iterations: int


def solve_lp(c, A, b, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> LPSolution:
    """Two-phase simplex on min c.x, A x = b, x >= 0.

    Raises SimplexError if the constraints are infeasible or the pivot
    count exceeds ``max_iter``.  Unboundedness cannot occur for feasible
    bounded formulations like the L1-distance program but is detected and
    reported as a SimplexError too.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = A.shape
    if b.size != m or c.size != n:
        raise ValueError("inconsistent LP dimensions")

    # Flip rows so the right-hand side is nonnegative; remember the signs so
    # dual values can be reported in the caller's row convention.
    flip = np.where(b < 0, -1.0, 1.0)
    work = np.empty((m, n + m + 1))
    work[:, :n] = A * flip[:, None]
    work[:, n:n + m] = np.eye(m)
    work[:, -1] = b * flip

    basis = list(range(n, n + m))
    iterations = 0

    # Phase 1: minimise the sum of artificials.
    cost1 = np.zeros(n + m + 1)
    cost1[n:n + m] = 1.0
    _reduce_cost_row(cost1, work, basis)
    iterations = _pivot_loop(work, cost1, basis, allowed=n + m, tol=tol,
                             max_iter=max_iter, start=iterations)
    if -cost1[-1] > np.sqrt(tol) * max(1.0, np.abs(b).max()):
        raise SimplexError(f"infeasible: phase-1 objective {-cost1[-1]:.3e}")

    # Phase 2: original objective; artificial columns may stay basic at
    # zero on redundant rows but are never allowed to enter.
    cost2 = np.zeros(n + m + 1)
    cost2[:n] = c
    _reduce_cost_row(cost2, work, basis)
    iterations = _pivot_loop(work, cost2, basis, allowed=n, tol=tol,
                             max_iter=max_iter, start=iterations)

    x = np.zeros(n)
    for row, col in enumerate(basis):
        if col < n:
            x[col] = work[row, -1]

    # Duals from the optimal basis: solve B^T y = c_B against the working
    # (sign-flipped) matrix, then restore the caller's row signs.
    c_ext = np.concatenate([c, np.zeros(m)])
    basis_cols = np.column_stack(
        [_work_col(A, flip, j, n, m) for j in basis])
    y = np.linalg.solve(basis_cols.T, c_ext[list(basis)])
    return LPSolution(x=x, fun=float(c @ x), duals=y * flip, iterations=iterations)


def _work_col(A: np.ndarray, flip: np.ndarray, j: int, n: int, m: int) -> np.ndarray:
    """Column j of the sign-flipped [A | I] matrix, rebuilt from the input."""
    if j < n:
        return A[:, j] * flip
    e = np.zeros(m)
    e[j - n] = 1.0
    return e


def _reduce_cost_row(cost: np.ndarray, work: np.ndarray, basis: list[int]) -> None:
    for row, col in enumerate(basis):
        if cost[col] != 0.0:
            cost -= cost[col] * work[row]


def _pivot_loop(work, cost, basis, allowed: int, tol: float, max_iter: int, start: int) -> int:
    iterations = start
    rhs = work[:, -1]
    nonbasic = np.ones(allowed, dtype=bool)
    for col in basis:
        if col < allowed:
            nonbasic[col] = False
    while True:
        # Bland: the smallest non-basic index with negative reduced cost enters.
        eligible = nonbasic & (cost[:allowed] < -tol)
        entering = int(eligible.argmax())
        if not eligible[entering]:
            return iterations

        # Sequential ratio test over the rows with a positive coefficient.
        # Not an argmin: ratios within tol of the running best tie, and a
        # chain of ties can drift further than tol from the minimum.
        column = work[:, entering]
        rows = (column > tol).nonzero()[0]
        leaving_row, best_ratio = -1, np.inf
        for i, coef, value in zip(rows.tolist(), column[rows].tolist(), rhs[rows].tolist()):
            ratio = value / coef
            if ratio < best_ratio - tol or (
                    abs(ratio - best_ratio) <= tol
                    and (leaving_row < 0 or basis[i] < basis[leaving_row])):
                leaving_row, best_ratio = i, ratio
        if leaving_row < 0:
            raise SimplexError("unbounded: no leaving variable")

        # Rank-1 elimination: each updated row gets the same multiply and
        # subtract as a row-by-row loop would give it.  Rows with a zero
        # factor are left alone so that signed zeros in them survive.
        work[leaving_row] /= work[leaving_row, entering]
        factors = column.copy()
        factors[leaving_row] = 0.0
        touched = factors.nonzero()[0]
        work[touched] -= factors[touched, None] * work[leaving_row]
        cost -= cost[entering] * work[leaving_row]

        leaving = basis[leaving_row]
        basis[leaving_row] = entering
        nonbasic[entering] = False
        if leaving < allowed:
            nonbasic[leaving] = True

        iterations += 1
        if iterations - start > max_iter:
            raise SimplexError(f"iteration cap {max_iter} exceeded")
