"""Dense simplex for small equality-form linear programs, started from a
feasible basis the caller supplies.

Solves  min c.x  subject to  A x = b,  x >= 0,  and returns both the primal
optimum and the dual vector for the equality constraints.  There is no
phase 1: the caller names m columns whose basic solution B^-1 b is
nonnegative, as the L1-fitting LP of :mod:`mss.magic` can write one down
directly.

Each pivot follows Barrodale and Roberts (SIAM J. Numer. Anal. 10, 839,
1973) in its pricing and its long step.  Columns j, j' with a_j' = -a_j are
mirrors, such as the u_i and v_i halves of a residual; the solver finds them
in A itself, and a column without one is structural, such as the lambda
columns of the L1 fit.  Pricing is Dantzig's rule (the most negative reduced
cost enters) in two stages: first over the structural columns alone, and
only if none of them has a reduced cost below -TOL over every column.  A
residual column thus enters only when no structural column can, and every
pivot starts at stage one again.  An LP without mirrors prices every column
in stage one, so its pivot path is plain Dantzig's.  The ratio test walks
the breakpoints in ratio order.  At a breakpoint whose basic variable
has a mirror, the variable can cross zero and live on as its mirror instead
of leaving: the slope of the objective rises by (c_j + c_j') alpha_r, and
while it is still below -TOL the row flips (it is negated, the cost row
gains (c_j + c_j') times it, and the mirror takes the basis entry) and the
step goes on.  The first breakpoint without a mirror, or the one where the
slope would turn non-negative, leaves by the usual rank-1 pivot.

Termination: either stage enters a column whose reduced cost, the slope at
the start of the step, is below -TOL.  A step of length t > TOL therefore
lowers the objective by more than TOL * t, since the slope stays below -TOL
all along it, so a basis can recur only across degenerate steps (t <= TOL).
After a degenerate step the next pivot follows Bland's rule (smallest
eligible index enters, the first breakpoint leaves with ties broken by
smallest basic variable, no flips).
A cycle would consist of degenerate steps alone, hence of Bland pivots alone,
and Bland's rule does not cycle.  MAX_ITER pivots guard against round-off.

When every cost is nonnegative, a basis whose objective is at most
ZERO_OBJECTIVE is optimal to within that, and y = 0 is a dual for it: the
loop stops there without the degenerate pivots that would otherwise prove
it.  ZERO_OBJECTIVE sits far below TOL, so a solve that stops there reports
an objective no caller reads as nonzero (:mod:`mss.magic` reports C = 0
below 1e-10).

Built for tens of rows and a few hundred columns.  Each call builds a fresh
dense tableau, so concurrent solves are independent; it carries B^-1 as an
extra block, so the duals are read off the cost row.  The start is
Gauss-Jordan on a cached [A | I | b], with no inverse: a basis column that
is +-e_i at its own position i costs row i's sign, any other one a rank-1
pivot (one for the L1 fit's start).  A pivot prices in numpy, with no mask
for the basic ones: stage one reads the structural columns' reduced costs
through a slice where they lead the columns, as in every LP this package
builds, and through an index array elsewhere.  It then reads the entering
column and the right-hand side once as Python floats for the ratio test and
the long step's slope.  A flip is two row operations, the negation in place;
one rank-1 update of the tableau, written into a buffer allocated once per
solve, ends the pivot.  The update's outer product is np.dot of the column
as an (m+1) x 1 matrix and the pivot row as a 1 x (n+m+1) one: one BLAS
call, cheaper at these sizes than np.multiply.outer's broadcast.  Each
entry is one product, so the two agree to the bit except that BLAS drops
the sign of a zero product; the sign of a zero means nothing here, and x
and y report every zero as +0.0.
TOL and MAX_ITER are module constants, read once per solve; no caller
passes a tolerance or a cap.  ``tests/test_simplex.py`` keeps a scalar
version of this rule, which must follow the same pivot path byte for byte.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .qcore import Record

TOL = 1e-9
MAX_ITER = 10_000
ZERO_OBJECTIVE = 1e-12  # with c >= 0, an objective this small ends the solve


class SimplexError(RuntimeError):
    """Infeasible start, overflowing tableau, unbounded objective or iteration cap exceeded."""


class LPSolution(Record):
    """Optimum of one :func:`solve_lp` call, with its duals and pivot counts."""

    x: np.ndarray          # primal optimum, length n, read-only
    fun: float             # optimal objective value
    duals: np.ndarray      # dual vector y for the equality rows, length m, read-only
    iterations: int        # entering pivots
    flips: int             # rows that swapped a variable for its mirror mid-step

    def __init__(self, x, fun, duals, iterations, flips) -> None:
        self.__dict__.update(x=x, fun=fun, duals=duals, iterations=iterations, flips=flips)


def solve_lp(c, A, b, basis) -> LPSolution:
    """Simplex on min c.x, A x = b, x >= 0 from the starting ``basis``.

    ``basis`` lists one column index in [0, n) per row.  Raises ValueError,
    before any arithmetic, for an ``A`` that is not 2-D, inconsistent
    dimensions, a basis entry that is no integer or lies outside that range,
    or a complex, NaN or infinite entry in ``A``, ``b`` or ``c``.
    Raises SimplexError if those columns are singular, if the tableau
    overflows, if the start's basic solution has an entry below ``-TOL``, if
    the objective is unbounded, or if the pivot count exceeds ``MAX_ITER``.
    """
    A, b, c = np.asarray(A), np.asarray(b), np.asarray(c)
    for name, v in zip("Abc", (A, b, c)):
        if v.dtype.kind == "c":
            raise ValueError(f"{name} must be real")
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got {A.ndim} dimensions")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = A.shape
    try:
        basis = [operator.index(j) for j in basis]
    except TypeError:
        raise ValueError("basis entries must be integers") from None
    if b.size != m or c.size != n or len(basis) != m:
        raise ValueError("inconsistent LP dimensions")
    if not all(0 <= j < n for j in basis):
        raise ValueError(f"basis column indices must lie in [0, {n})")
    mirror, structural, priced, unit_row, unit_sign, template = _columns(A.tobytes(), m, n)
    for name, vector in (("b", b), ("c", c)):
        if not np.isfinite(vector).all():
            raise ValueError(f"{name} must be finite")

    # The tableau: rows B^-1 [A | I | b], row i holding basic variable
    # basis[i], over the cost row [c | 0 | 0] - c_B B^-1 [A | I | b], which
    # carries the reduced costs, -y and -c.x.  A column pivots on the unused
    # row with its largest entry; the rows are then put in basis order.
    sign = np.array([unit_sign[j] if unit_row[j] == i else 1.0 for i, j in enumerate(basis)])
    unused = [i for i, j in enumerate(basis) if unit_row[j] != i]
    tab = np.zeros((m + 1, n + m + 1))
    work = tab[:m]
    np.multiply(template, sign[:, None], out=work)
    work[:, -1] = b * sign
    rows = list(range(m))
    # Badly scaled input can overflow; checked after the start and the pivots.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in unused[:]:
            column = work[:, basis[i]]
            p = max(unused, key=lambda r: abs(column[r]))
            if column[p] == 0.0:
                raise SimplexError("infeasible starting basis: singular basis matrix")
            pivot = work[p] / column[p]
            work -= np.dot(column[:, None], pivot[None, :])
            work[p] = pivot
            rows[i] = p
            unused.remove(p)
        if rows != sorted(rows):
            work[:] = work[rows]
        tab[m, :n] = c
        tab[m] -= c[basis] @ work
        if not np.isfinite(tab).all():
            raise SimplexError("start tableau overflows: A, b or c is badly scaled")
        if tab[:m, -1].min() < -TOL:
            raise SimplexError(
                f"infeasible starting basis: basic value {tab[:m, -1].min():.3e}")

        iterations, flips, at_zero = _pivot_loop(
            tab, basis, mirror, structural, priced, c.tolist(), stop_at_zero=bool(c.min() >= 0.0))
    if not np.isfinite(tab).all():
        raise SimplexError("tableau overflows in a pivot: A, b or c is badly scaled")

    # The sign of a zero depends on the BLAS update, so every zero is
    # reported as +0.0: + 0.0 and 0.0 - map -0.0 to +0.0.
    x = np.zeros(n)
    x[basis] = tab[:m, -1] + 0.0
    # At an objective of at most ZERO_OBJECTIVE with c >= 0, y = 0 is dual
    # optimal to within that.
    y = np.zeros(m) if at_zero else 0.0 - tab[m, n:n + m]
    x.setflags(write=False)
    y.setflags(write=False)
    return LPSolution(x=x, fun=float(c @ x), duals=y, iterations=iterations, flips=flips)


@lru_cache(maxsize=16)
def _columns(matrix: bytes, m: int, n: int):
    """(mirror, structural, priced, unit_row, unit_sign, template) of the
    m x n matrix A, given as its bytes: for each column j the first column j'
    with A[:, j'] == -A[:, j] or -1; the columns without a mirror, as a tuple
    and as the index that reads their reduced costs (a slice when they lead,
    as in every LP this package builds, else an index array); the i with
    A[:, j] == +-e_i or -1, and A[i, j]; and the read-only [A | I | 0].
    Raises ValueError if A holds a NaN or an infinity.  Cached by content: a
    caller solves many LPs over one A."""
    A = np.frombuffer(matrix).reshape(m, n)
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    # -0.0 + 0.0 is 0.0, so signed zeros compare equal as bytes.
    cols = A.T + 0.0
    first: dict[bytes, int] = {}
    for j, col in enumerate(cols):
        first.setdefault(col.tobytes(), j)
    mirror = tuple(first.get((0.0 - col).tobytes(), -1) for col in cols)
    structural = tuple(j for j in range(n) if mirror[j] < 0)
    leading = structural == tuple(range(len(structural)))
    priced = slice(0, len(structural)) if leading else np.array(structural)
    row = np.abs(A).argmax(axis=0)
    sign = A[row, np.arange(n)]
    unit = (np.count_nonzero(A, axis=0) == 1) & (np.abs(sign) == 1.0)
    template = np.hstack([A, np.eye(m), np.zeros((m, 1))])
    template.setflags(write=False)
    return mirror, structural, priced, np.where(unit, row, -1).tolist(), sign.tolist(), template


def _pivot_loop(tab, basis, mirror, structural, priced, costs,
                stop_at_zero: bool) -> tuple[int, int, bool]:
    """Pivot ``tab`` and ``basis`` to optimality in place; returns (pivots,
    flips, whether it stopped at an objective of at most ZERO_OBJECTIVE)."""
    tol, max_iter = TOL, MAX_ITER
    iterations = flips = 0
    m, n = len(basis), len(mirror)
    work, cost = tab[:m], tab[m]
    rhs, reduced = work[:, -1], cost[:n]
    update = np.empty_like(tab)  # each pivot's rank-1 update, reused
    # Pricing needs no mask for the basic columns: they stay unit columns,
    # so their reduced costs stay within round-off of 0 (the tests hold them
    # to 1e-12), far above -tol, and neither rule can pick one.
    bland = False
    while True:
        if stop_at_zero and -cost[-1] <= ZERO_OBJECTIVE:
            return iterations, flips, True
        if bland:
            eligible = reduced < -tol
            entering = int(eligible.argmax())
            if not eligible[entering]:
                return iterations, flips, False
        else:
            # Stage one prices the structural columns, stage two every column.
            entering = structural[int(reduced[priced].argmin())] if structural else -1
            if entering < 0 or not reduced[entering] < -tol:
                entering = int(reduced.argmin())
                if not reduced[entering] < -tol:
                    return iterations, flips, False

        column = tab[:, entering]
        col, values = column.tolist(), rhs.tolist()
        breakpoints = [(values[i] / col[i], i) for i in range(m) if col[i] > tol]
        leaving_row = -1
        if bland:
            # Sequential ratio test.  Not an argmin: ratios within tol of the
            # running best tie, and a chain of ties can drift further than
            # tol from the minimum.
            step = np.inf
            for ratio, i in breakpoints:
                if ratio < step - tol or (
                        abs(ratio - step) <= tol
                        and (leaving_row < 0 or basis[i] < basis[leaving_row])):
                    leaving_row, step = i, ratio
        else:
            # Long step: breakpoints in ratio order, ties in row order.  The
            # slope is cost[entering].
            slope = col[m]
            for ratio, i in sorted(breakpoints):
                j = basis[i]
                partner = mirror[j]
                if partner >= 0:
                    pair_cost = costs[j] + costs[partner]
                    if slope + pair_cost * col[i] < -tol:
                        slope += pair_cost * col[i]
                        row = work[i]
                        cost += pair_cost * row
                        np.negative(row, out=row)
                        basis[i] = partner
                        flips += 1
                        continue
                leaving_row, step = i, ratio
                break
        if leaving_row < 0:
            raise SimplexError("unbounded: no leaving variable")

        # One rank-1 update of every row, the cost row included.
        pivot = work[leaving_row] / col[leaving_row]
        tab -= np.dot(column[:, None], pivot[None, :], out=update)
        tab[leaving_row] = pivot

        basis[leaving_row] = entering
        bland = step <= tol

        iterations += 1
        if iterations > max_iter:
            raise SimplexError(f"iteration cap {max_iter} exceeded")
