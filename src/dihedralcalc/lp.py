"""Exact linear programming over an ordered field.

A small two-phase tableau simplex used by the cone audits.  Values live in
the field of the ``zero`` the caller passes, whose arithmetic coerces int
and Fraction entries.  Bland's rule picks both the entering and the
leaving variable, so the exact iteration cannot cycle.

Solves  max c.x  subject to  A x <= b, x >= 0  and reports one of
"optimal" (with a vertex witness and row multipliers), "unbounded", or
"infeasible".

The simplex first runs on Python floats, with the same rule and values
within ``TOL`` of each other taken as ties.  Its matrix is the float image
of A: ``float_image`` gives each entry's float and a proven bound on its
error (``field.approx``).  A caller that solves many LPs over one matrix
builds the image once and passes it as ``approx``.  When the float pass
stops without an optimal basis or its basis fails a check, the exact
tableau solves from a cold start.  Either way the answer comes from one
place: ``_certify`` solves the final basis system once in the field and
checks that the basic solution is primal feasible (x_B >= 0) and dual
feasible (y >= 0, y.A >= c).  Both tableaus keep b as the last column of
each row, and a pivot is the elimination step, ``_eliminate``, that the
certificate runs on its basis block; the certificate's x, slack residuals
and y are ``field.dot`` products.  Each column of y.A >= c is signed by
``field.dot_sign``: in floats where the image's error bounds prove the
sign, else by one exact ``field.dot``.  A certified basis is
optimal by LP duality, so a wrong float answer costs time and never
changes a result, and an exact basis that fails the check raises
VerificationError (Applegate, Cook, Dash & Espinoza, "Exact solutions to
linear programming problems", Oper. Res. Lett. 2007; McConnell et al.,
"Certifying algorithms", Comput. Sci. Rev. 2011).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidParameterError, VerificationError
from .field import approx as approx_value, approx_vector, dot, dot_sign


@dataclass
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    optimum: object | None = None
    witness: list | None = None  # x values, one per structural variable
    dual: list | None = None  # row multipliers for the maximization form
    iterations: int = 0


def _eliminate(rows: list, i: int, j: int, one) -> None:
    """One Gauss-Jordan step: scale rows[i] to a unit pivot in column j and
    clear column j from every other row.  Zero entries are skipped, and a
    row shorter than rows[i] is updated over its own length."""
    row = rows[i]
    inv = one / row[j]
    if inv != one:
        row[:] = [v * inv if v else v for v in row]
    for k, rk in enumerate(rows):
        f = rk[j]
        if f and k != i:
            rk[:] = [a - f * c if c else a for a, c in zip(rk, row)]


class _Tableau:
    """Dense simplex tableau; columns = structural + slack (+ artificial),
    then b as the last column of each row.  A pivot is one ``_eliminate``
    step, the one ``_certify`` runs on its basis block, over the rows and
    the reduced costs, which have no entry for b."""

    def __init__(self, rows, rhs, d, zero, one):
        self.zero = zero
        self.one = one
        self.tol = zero  # values closer than tol are equal
        self.m = len(rows)
        self.iterations = 0
        self.rows: list[list] = []
        self.basis: list[int] = []
        self.artificial_start = d + self.m
        artificials = []  # rows with a negative rhs, negated to b >= 0
        for i in range(self.m):
            body = [v + zero for v in rows[i]]
            slack = [zero] * self.m
            bi = rhs[i] + zero
            if bi < zero:
                body = [-v for v in body]
                bi = -bi
                slack[i] = -one
                self.basis.append(self.artificial_start + len(artificials))
                artificials.append(i)
            else:
                slack[i] = one
                self.basis.append(d + i)
            self.rows.append(body + slack + [bi])
        for i, row in enumerate(self.rows):  # artificials go before b
            row[-1:-1] = [one if a == i else zero for a in artificials]
        self.n_cols = self.artificial_start + len(artificials)

    # -- pivoting ------------------------------------------------------------

    def _pivot(self, i: int, j: int, cbar: list) -> None:
        self.iterations += 1
        _eliminate(self.rows + [cbar], i, j, self.one)
        self.basis[i] = j

    def _run(self, cbar: list) -> str:
        """Bland loop: entering = lowest positive reduced cost among the
        structural and slack columns (artificials never re-enter)."""
        tol, ntol = self.tol, -self.tol
        while True:
            enter = -1
            for j in range(self.artificial_start):
                if cbar[j] > tol:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > tol:
                    ratio = row[-1] / a
                    if best is None:
                        best, leave = ratio, i
                        continue
                    gap = ratio - best
                    if gap < ntol or (
                            gap <= tol and self.basis[i] < self.basis[leave]):
                        best, leave = ratio, i
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter, cbar)

    def _reduced_costs(self, cost: list) -> list:
        cbar = list(cost) + [self.zero] * (self.n_cols - len(cost))
        for j, row in zip(self.basis, self.rows):
            f = cbar[j]
            if f:
                cbar[:] = [a - f * c for a, c in zip(cbar, row)]
        return cbar

    def solve(self, cost: list) -> str:
        """Two-phase simplex for  max cost.x ; the final basis stays in
        ``basis``.  Returns "optimal", "unbounded" or "infeasible"."""
        start = self.artificial_start
        if self.n_cols > start:
            # phase one: maximize minus the sum of the artificials
            phase_one = [self.zero] * start + \
                [-self.one] * (self.n_cols - start)
            self._run(self._reduced_costs(phase_one))
            total = self.zero  # not sum(): from 3.12 it compensates floats
            for j, row in zip(self.basis, self.rows):
                if j >= start:
                    total = total + row[-1]
            if total > self.tol:
                return "infeasible"
            # drive leftover zero-valued artificials out of the basis; every
            # row of B^-1 [A | +-I] is nonzero because [A | +-I] has rank m,
            # so only float rounding can leave a row without a pivot
            for i in range(self.m):
                if self.basis[i] < start:
                    continue
                row = self.rows[i]
                piv = next((j for j in range(start)
                            if row[j] > self.tol or row[j] < -self.tol), -1)
                if piv < 0:
                    raise ArithmeticError("artificial row left without pivot")
                self._pivot(i, piv, [self.zero] * self.n_cols)
        return self._run(self._reduced_costs(cost))


TOL = 1e-9  # absolute: float values closer than this tie


class _FloatTableau(_Tableau):
    """The same tableau over Python floats, with TOL-wide ties.

    Bland's rule need not terminate under rounding, so the pass gives up
    with ArithmeticError after a pivot budget far above what the exact
    iteration takes on these tableaus.
    """

    def __init__(self, rows, rhs, d):
        # rows are floats already (the image values); the copy is _Tableau's
        super().__init__(rows, [float(v) for v in rhs], d, 0.0, 1.0)
        self.tol = TOL
        self.budget = 50 * (self.m + self.n_cols)

    def _pivot(self, i: int, j: int, cbar: list) -> None:
        if self.iterations >= self.budget:
            raise ArithmeticError("float simplex exceeded its pivot budget")
        super()._pivot(i, j, cbar)


def _float_basis(rows, rhs, objective) -> tuple[list[int], int] | None:
    """The final basis and pivot count of the float simplex over the float
    rows, if optimal.

    A basis column j < len(objective) is structural, j - len(objective) a
    slack.  None when the pass is infeasible or unbounded, cannot convert
    an input, runs out of pivots or cannot drive an artificial out.
    """
    try:
        t = _FloatTableau(rows, rhs, len(objective))
        status = t.solve([float(c) if c else 0.0 for c in objective])
    except (ArithmeticError, TypeError):
        return None
    if status != "optimal":
        return None
    return t.basis, t.iterations


def _certify(rows, rhs, cvec, basis, zero, one,
             image) -> tuple[list, list] | None:
    """(x, y) of the basis over [A | I] if it is exactly optimal, else None.

    Every optimal LPResult is built from this output, for float and exact
    bases alike.  x is the basic solution on the structural columns and
    y = c_B B^-1 the row multipliers.  The checks are that B is nonsingular,
    x_B >= 0, y >= 0 (slack reduced costs) and y.A >= c (structural reduced
    costs), each column of the last as the sign of (y, -1).(A_j, c_j) over
    ``image``, the float image of the rows.  A basic slack is a unit column
    of B, so only the square block K of the basic structural columns J on
    the rows R whose slack is nonbasic needs solving: K x_J = b_R and
    y_R K = c_J, with y = 0 off R.
    """
    m, d = len(rows), len(cvec)
    cols = [j for j in basis if j < d]
    slack_rows = {j - d for j in basis if j >= d}
    tight = [i for i in range(m) if i not in slack_rows]
    if len(tight) != len(cols):
        return None  # a repeated or non-slack column: B is singular
    k = len(cols)
    # Gauss-Jordan on [K | I] leaves [I | K^-1]
    mat = [[rows[i][j] + zero for j in cols]
           + [one if q == p else zero for q in range(k)]
           for p, i in enumerate(tight)]
    for c in range(k):
        p = next((i for i in range(c, k) if mat[i][c]), -1)
        if p < 0:
            return None
        mat[c], mat[p] = mat[p], mat[c]
        _eliminate(mat, c, c, one)
    kinv = [r[k:] for r in mat]

    b_tight = [rhs[i] for i in tight]
    x_cols = [dot(inv_row, b_tight, zero) for inv_row in kinv]
    if any(v < zero for v in x_cols):
        return None
    for i in slack_rows:  # the residual b_i - A_{i,J}.x_J of a basic slack
        if rhs[i] - dot([rows[i][j] for j in cols], x_cols, zero) < zero:
            return None
    x = [zero] * d
    for j, v in zip(cols, x_cols):
        x[j] = v

    c_cols = [cvec[j] for j in cols]
    y = [zero] * m
    for i, inv_col in zip(tight, zip(*kinv)):
        y[i] = dot(c_cols, inv_col, zero)
    if any(v < zero for v in y):
        return None
    basic = set(cols)
    support = [i for i in range(m) if y[i]]
    ys = [y[i] for i in support] + [-one]
    y_image = approx_vector(ys)
    vals, errs = image
    for j in range(d):
        if j in basic:
            continue
        c = cvec[j]
        cf, ce = approx_value(c) if c else (0.0, 0.0)
        col = [rows[i][j] for i in support] + [c]
        col_image = ([vals[i][j] for i in support] + [cf],
                     [errs[i][j] for i in support] + [ce])
        if dot_sign(ys, col, zero, y_image, col_image) < 0:
            return None
    return x, y


def float_image(rows: Sequence[Sequence]) -> tuple[list, list]:
    """(values, errors): ``field.approx`` of every entry of a matrix, as
    two matrices of its shape; the ``approx`` argument of ``lp_solve``."""
    images = [approx_vector(row) for row in rows]
    return [v for v, _ in images], [e for _, e in images]


def lp_solve(rows: Sequence[Sequence], rhs: Sequence, objective: Sequence,
             *, zero, approx: tuple | None = None) -> LPResult:
    """Exact simplex for  max c.x  s.t.  rows[i].x <= rhs[i], x >= 0.

    The dual list contains one multiplier per constraint row, normalized for
    the maximization form: y >= 0, y.A >= c componentwise, and y.b equals
    the optimum.  Every optimum is certified exactly, whether its basis
    came from the float pass or the exact cold start, and ``iterations``
    counts the pivots of the pass whose basis is returned.  Raises
    VerificationError if an exact optimal basis fails its certificate.

    ``approx`` is ``float_image(rows)``, which is computed when it is not
    given; a caller that solves over one matrix many times passes it.
    """
    m = len(rows)
    if len(rhs) != m:
        raise InvalidParameterError("rhs length must match row count")
    d = len(objective)
    for row in rows:
        if len(row) != d:
            raise InvalidParameterError("row width must match objective")
    one = zero.descr.one

    if approx is None:
        approx = float_image(rows)
    found = _float_basis(approx[0], rhs, objective)
    certified = None
    if found is not None:
        basis, pivots = found
        certified = _certify(rows, rhs, objective, basis, zero, one, approx)
    if certified is None:
        t = _Tableau(rows, rhs, d, zero, one)
        status = t.solve(objective)
        if status != "optimal":
            return LPResult(status, iterations=t.iterations)
        pivots = t.iterations
        certified = _certify(rows, rhs, objective, t.basis, zero, one, approx)
        if certified is None:
            raise VerificationError(
                "exact simplex basis failed its optimality check")
    x, dual = certified
    return LPResult("optimal", dot(objective, x, zero), x, dual, pivots)
