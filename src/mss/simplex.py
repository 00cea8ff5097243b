"""Dense simplex for small equality-form linear programs, started from a
feasible basis the caller supplies.

Solves  min c.x  subject to  A x = b,  x >= 0,  and returns both the primal
optimum and the dual vector for the equality constraints.  There is no
phase 1: the caller names m columns whose basic solution B^-1 b is
nonnegative, as the L1-fitting LP of :mod:`mss.magic` can write one down
directly.  Bland's rule (smallest eligible index enters, ties in the ratio
test broken by smallest basic variable) prevents cycling on the degenerate
bases that show up when several polytope vertices are equidistant from the
target.

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
    """Infeasible starting basis, unbounded objective or iteration cap exceeded."""


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray          # primal optimum, length n
    fun: float             # optimal objective value
    duals: np.ndarray      # dual vector y for the equality rows, length m
    iterations: int


def solve_lp(c, A, b, basis, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER) -> LPSolution:
    """Simplex on min c.x, A x = b, x >= 0 from the starting ``basis``.

    ``basis`` lists one column index per row.  Raises SimplexError if those
    columns are singular or their basic solution has an entry below
    ``-tol``, if the objective is unbounded, or if the pivot count exceeds
    ``max_iter``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = A.shape
    basis = [int(j) for j in basis]
    if b.size != m or c.size != n or len(basis) != m:
        raise ValueError("inconsistent LP dimensions")

    # The tableau B^-1 [A | b]: row i holds basic variable basis[i].
    try:
        work = np.linalg.solve(A[:, basis], np.column_stack([A, b]))
    except np.linalg.LinAlgError:
        raise SimplexError("infeasible starting basis: singular basis matrix") from None
    if work[:, -1].min() < -tol:
        raise SimplexError(
            f"infeasible starting basis: basic value {work[:, -1].min():.3e}")

    cost = np.zeros(n + 1)
    cost[:n] = c
    _reduce_cost_row(cost, work, basis)
    iterations = _pivot_loop(work, cost, basis, tol=tol, max_iter=max_iter)

    x = np.zeros(n)
    x[basis] = work[:, -1]
    # Duals from the optimal basis: B^T y = c_B.
    y = np.linalg.solve(A[:, basis].T, c[basis])
    return LPSolution(x=x, fun=float(c @ x), duals=y, iterations=iterations)


def _reduce_cost_row(cost: np.ndarray, work: np.ndarray, basis: list[int]) -> None:
    for row, col in enumerate(basis):
        if cost[col] != 0.0:
            cost -= cost[col] * work[row]


def _pivot_loop(work, cost, basis, tol: float, max_iter: int) -> int:
    iterations = 0
    rhs = work[:, -1]
    nonbasic = np.ones(work.shape[1] - 1, dtype=bool)
    nonbasic[basis] = False
    while True:
        # Bland: the smallest non-basic index with negative reduced cost enters.
        eligible = nonbasic & (cost[:-1] < -tol)
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

        nonbasic[basis[leaving_row]] = True
        basis[leaving_row] = entering
        nonbasic[entering] = False

        iterations += 1
        if iterations > max_iter:
            raise SimplexError(f"iteration cap {max_iter} exceeded")
