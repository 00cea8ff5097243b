"""Dense simplex for the one linear program this package solves: the L1 fit
of a Wigner vector w by a point of the stabilizer polytope conv(F).

    min  sum u + sum v   over  lambda (nv), u (k), v (k) >= 0
    s.t. F lambda + u - v = w     (u - v is the residual w - F lambda)
         sum lambda       = 1

The constraint matrix is A = [F | I | -I ; 1...1 | 0 | 0], with k + 1 rows
and nv + 2k columns; the costs are 0 on lambda and 1 on u and v.
:func:`solve_lp` returns the primal optimum and the dual vector for the
k + 1 equality rows, started at a vertex F_j that the caller names.

Once per matrix.  The first call with an A object checks that it is a
read-only float array of that form with finite entries, and builds from it
the read-only [A | I | e_k] template, the u/v mirror map, the costs and the
start basis's costs c_B = (1, ..., 1, 0).  A memo keyed on the object, which
holds a reference to it, serves every later call; no call reads A's bytes.
Read-only is what makes the memo sound: A cannot change after its check.

Per call.  w must be a finite float64 vector of length k and the vertex
an integer in [0, nv).  The start basis holds u_i where w_i >= F_ij and v_i where
w_i < F_ij, and lambda_j in the convexity row, so every basic value is
|w_i - F_ij| or 1 (a check that none is below -TOL stays as a guard).
Its tableau B^-1 [A | I | b] is written in closed form: the template with
row i < k signed by that choice, then one rank-1 pivot on the convexity
row, whose lambda_j entry is 1.  The cost row is [c | 0 | 0] - c_B times
it, and carries the reduced costs, -y and -c.x.

Each pivot follows Barrodale and Roberts (SIAM J. Numer. Anal. 10, 839,
1973) in its pricing and its long step.  u_i and v_i are mirrors (their
columns negate each other); the lambda columns have none.  Pricing is
Dantzig's rule (the most negative reduced cost enters) in two stages:
first over the lambda columns alone, and only if none of them has a reduced
cost below -TOL over every column.  A residual column thus enters only when
no lambda column can, and every pivot starts at stage one again.  The ratio
test walks the breakpoints in ratio order.  At a breakpoint whose basic
variable is a residual, the variable can cross zero and live on as its
mirror instead of leaving: the slope of the objective rises by 2 alpha_r,
and while it is still below -TOL the row flips (it is negated, the cost row
gains 2 times it, and the mirror takes the basis entry) and the step goes
on.  The first lambda breakpoint, or the one where the slope would turn
non-negative, leaves by the usual rank-1 pivot.

Termination: either stage enters a column whose reduced cost, the slope at
the start of the step, is below -TOL.  A step of length t > TOL therefore
lowers the objective by more than TOL * t, since the slope stays below -TOL
all along it, so a basis can recur only across degenerate steps (t <= TOL).
After a degenerate step the next pivot follows Bland's rule (smallest
eligible index enters, the first breakpoint leaves with ties broken by
smallest basic variable, no flips).
A cycle would consist of degenerate steps alone, hence of Bland pivots alone,
and Bland's rule does not cycle.  MAX_ITER pivots guard against round-off.

Every cost is nonnegative, so a basis whose objective is at most
ZERO_OBJECTIVE is optimal to within that, and y = 0 is a dual for it: the
loop stops there without the degenerate pivots that would otherwise prove
it.  ZERO_OBJECTIVE sits far below TOL, so a solve that stops there reports
an objective no caller reads as nonzero (:mod:`mss.magic` reports C = 0
below 1e-10).

Each call builds a fresh dense tableau, so concurrent solves are
independent; it carries B^-1 as an extra block, so the duals are read off
the cost row.  A pivot prices in numpy, with no mask for the basic columns,
reading the lambda columns' reduced costs through a slice.  It then reads
the entering column and the right-hand side once as Python floats for the
ratio test and the long step's slope.  A flip is two row operations, the
negation in place; one rank-1 update of the tableau, written into a buffer
allocated once per solve, ends the pivot.  The update's outer product is
np.dot of the column as an (m+1) x 1 matrix and the pivot row as a
1 x (n+m+1) one: one BLAS call, cheaper at these sizes than
np.multiply.outer's broadcast.  Each entry is one product, so the two agree
to the bit except that BLAS drops the sign of a zero product; the sign of a
zero means nothing here, and x and y report every zero as +0.0.  A w large
enough to overflow the tableau is caught once, after the loop.
TOL and MAX_ITER are module constants, read once per solve; no caller
passes a tolerance or a cap.  ``tests/test_simplex.py`` keeps a scalar
version of this rule, which must follow the same pivot path byte for byte.
"""

from __future__ import annotations

import numpy as np

from .qcore import Record

TOL = 1e-9
MAX_ITER = 10_000
ZERO_OBJECTIVE = 1e-12  # an objective this small ends the solve

# id(A) -> (A, its layout).  Holding A keeps its id from being reused.  A
# caller keeps one A per problem size, so the memo stays small; it is
# emptied when full.
_LAYOUTS: dict[int, tuple] = {}


class SimplexError(RuntimeError):
    """Infeasible start, overflowing tableau, unbounded step or iteration cap exceeded."""


class LPSolution(Record):
    """Optimum of one :func:`solve_lp` call, with its duals and pivot counts."""

    x: np.ndarray          # primal optimum [lambda, u, v], read-only
    fun: float             # optimal objective value
    duals: np.ndarray      # dual vector y for the k + 1 equality rows, read-only
    iterations: int        # entering pivots
    flips: int             # rows that swapped a variable for its mirror mid-step

    def __init__(self, x, fun, duals, iterations, flips) -> None:
        self.__dict__.update(x=x, fun=fun, duals=duals, iterations=iterations, flips=flips)


def solve_lp(A, w, vertex) -> LPSolution:
    """The L1 fit min ||w - F lambda||_1 over the simplex, from the vertex F_vertex.

    ``A`` is the read-only [F | I | -I ; 1...1 | 0 | 0] of the module
    docstring, ``w`` has one entry per row of F and ``vertex`` indexes a
    column of F.  Raises ValueError, before any arithmetic, for an ``A`` not
    of that form, writable or not finite (checked once per object), for a
    ``w`` that is not a float64 vector of length k or holds a NaN or an
    infinity, or for a ``vertex`` that is no integer in [0, nv).  Raises
    SimplexError if the start's basic solution has an entry below ``-TOL``,
    if the tableau overflows, if a step is unbounded, or if the pivot count
    exceeds ``MAX_ITER``.
    """
    template, mirror, costs, cost_list, c_B = _layout(A)
    m, n = len(c_B), len(costs)
    k, nv = m - 1, n - 2 * (m - 1)
    w = np.asarray(w)
    if w.dtype != float or w.shape != (k,) or not np.isfinite(w).all():
        raise ValueError(f"w must be a finite float64 vector of length {k}")
    if not (isinstance(vertex, (int, np.integer)) and 0 <= vertex < nv):
        raise ValueError(f"vertex must be an integer in [0, {nv})")

    negative = w < template[:k, vertex]
    basis = [*(np.arange(nv, nv + k) + k * negative).tolist(), vertex]
    sign = np.where(negative, -1.0, 1.0)
    tab = np.empty((m + 1, n + m + 1))
    work = tab[:m]
    # Badly scaled input can overflow; checked once, after the pivots.  The
    # start is B^-1 [A | I | b]: the rows i < k signed by the u/v choice, then
    # one rank-1 pivot on the convexity row, whose lambda_vertex entry is 1.
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(template[:k], sign[:, None], out=work[:k])
        np.multiply(w, sign, out=work[:k, -1])
        work[k] = template[k]
        work[:k] -= np.dot(work[:k, vertex, None], template[k, None])
        tab[m, :n] = costs
        tab[m, n:] = 0.0
        tab[m] -= c_B @ work
        if tab[:m, -1].min() < -TOL:
            raise SimplexError(
                f"infeasible starting basis: basic value {tab[:m, -1].min():.3e}")
        iterations, flips, at_zero = _pivot_loop(tab, basis, mirror, nv, cost_list)
    if not np.isfinite(tab).all():
        raise SimplexError("tableau overflows: w is badly scaled")

    # The sign of a zero depends on the BLAS update, so every zero is
    # reported as +0.0: + 0.0 and 0.0 - map -0.0 to +0.0.
    x = np.zeros(n)
    x[basis] = tab[:m, -1] + 0.0
    # At an objective of at most ZERO_OBJECTIVE, y = 0 is dual optimal to
    # within that.
    y = np.zeros(m) if at_zero else 0.0 - tab[m, n:n + m]
    x.setflags(write=False)
    y.setflags(write=False)
    return LPSolution(x=x, fun=float(costs @ x), duals=y, iterations=iterations, flips=flips)


def _layout(A) -> tuple:
    """(template, mirror, costs, cost_list, c_B) of the L1 fit's matrix
    ``A``, checked and built on the first call with that object: the
    read-only [A | I | e_k], each column's mirror (u_i and v_i; -1 for
    lambda), the costs as an array and as floats, and the start basis's
    costs.  Raises ValueError for an ``A`` that is not a read-only float64
    [F | I | -I ; 1...1 | 0 | 0] with F finite, or that views a writable
    array."""
    entry = _LAYOUTS.get(id(A))
    if entry is not None:
        return entry[1]
    if not isinstance(A, np.ndarray) or A.dtype != float or A.ndim != 2:
        raise ValueError("A must be a 2-D float64 array")
    base = A
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            raise ValueError("A must be read-only, and so must every array it views")
        base = base.base
    m, n = A.shape
    k, nv = m - 1, n - 2 * (m - 1)
    eye = np.eye(k)
    if not (k > 0 and nv > 0 and np.isfinite(A).all() and (A[:k, nv:nv + k] == eye).all()
            and (A[:k, nv + k:] == -eye).all() and (A[k, :nv] == 1.0).all()
            and not A[k, nv:].any()):
        raise ValueError("A must be [F | I | -I ; 1...1 | 0 | 0] with F finite")
    template = np.hstack([A, np.eye(m), np.eye(m)[:, -1:]])
    costs = np.repeat([0.0, 1.0], [nv, 2 * k])
    c_B = np.repeat([1.0, 0.0], [k, 1])
    for array in (template, costs, c_B):
        array.setflags(write=False)
    mirror = (*[-1] * nv, *range(nv + k, n), *range(nv, nv + k))
    if len(_LAYOUTS) >= 16:
        _LAYOUTS.clear()
    _LAYOUTS[id(A)] = A, (template, mirror, costs, costs.tolist(), c_B)
    return _LAYOUTS[id(A)][1]


def _pivot_loop(tab, basis, mirror, nv, costs) -> tuple[int, int, bool]:
    """Pivot ``tab`` and ``basis`` to optimality in place; returns (pivots,
    flips, whether it stopped at an objective of at most ZERO_OBJECTIVE).
    The first ``nv`` columns are the lambda columns."""
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
        if -cost[-1] <= ZERO_OBJECTIVE:
            return iterations, flips, True
        if bland:
            eligible = reduced < -tol
            entering = int(eligible.argmax())
            if not eligible[entering]:
                return iterations, flips, False
        else:
            # Stage one prices the lambda columns, stage two every column.
            entering = int(reduced[:nv].argmin())
            if not reduced[entering] < -tol:
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
