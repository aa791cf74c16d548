"""Exact linear programming over an ordered field.

A small two-phase tableau simplex used by the cone audits.  The value type
is that of the ``zero`` the caller passes, such as Fraction(0) or a field's
zero (anything with field operators and exact comparisons).  Bland's rule
picks both the entering and the leaving variable, so the exact iteration
cannot cycle.

Solves  max c.x  subject to  A x <= b, x >= 0  and reports one of
"optimal" (with a vertex witness and row multipliers), "unbounded", or
"infeasible".

The simplex first runs on Python floats, with the same rule and values
within ``TOL`` of each other taken as ties.  Its final basis is then
certified exactly: its basis system is solved once in the field, and the
basic solution must be primal feasible (x_B >= 0) and dual feasible
(y >= 0, y.A >= c).  A certified basis is optimal by LP duality, so a
wrong float answer costs time and never changes a result.  When the float
pass stops without an optimal basis, cannot convert an input to float, or
its basis fails a check, the exact tableau solves from a cold start
(Applegate, Cook, Dash & Espinoza, "Exact solutions to linear programming
problems", Oper. Res. Lett. 2007).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidParameterError


@dataclass
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    optimum: object | None = None
    witness: list | None = None  # x values, one per structural variable
    dual: list | None = None  # row multipliers for the maximization form
    iterations: int = 0


class _Tableau:
    """Dense simplex tableau; columns = structural + slack (+ artificial)."""

    def __init__(self, rows, rhs, zero, one):
        self.zero = zero
        self.one = one
        self.tol = zero  # values closer than tol are equal
        self.m = len(rows)
        self.d = len(rows[0]) if rows else 0
        self.iterations = 0
        self.rows: list[list] = []
        self.b: list = []
        self.basis: list[int] = []
        self.active: list[bool] = [True] * self.m
        n_cols = self.d + self.m
        self.artificial_start = n_cols
        artificials = []
        for i in range(self.m):
            body = [v + zero for v in rows[i]]
            slack = [zero] * self.m
            bi = rhs[i] + zero
            sign = 1
            if bi < zero:
                sign = -1
                body = [-v for v in body]
                bi = -bi
                slack[i] = -one
            else:
                slack[i] = one
            self.rows.append(body + slack)
            self.b.append(bi)
            if sign < 0:
                artificials.append(i)
                self.basis.append(-1)  # patched below
            else:
                self.basis.append(self.d + i)
        for j, i in enumerate(artificials):
            col = self.artificial_start + j
            self.basis[i] = col
        self.n_cols = n_cols + len(artificials)
        if artificials:
            for i in range(self.m):
                ext = [self.zero] * len(artificials)
                self.rows[i].extend(ext)
            for j, i in enumerate(artificials):
                self.rows[i][self.artificial_start + j] = one
        self.has_artificials = bool(artificials)

    # -- pivoting ------------------------------------------------------------

    def _pivot(self, i: int, j: int, cbar: list) -> None:
        self.iterations += 1
        row = self.rows[i]
        inv = self.one / row[j]
        if inv != self.one:
            row[:] = [v * inv if v else v for v in row]
            self.b[i] = self.b[i] * inv
        bi = self.b[i]
        for k in range(self.m):
            if k == i or not self.active[k]:
                continue
            f = self.rows[k][j]
            if f:
                rk = self.rows[k]
                rk[:] = [a - f * c if c else a for a, c in zip(rk, row)]
                self.b[k] = self.b[k] - f * bi
        f = cbar[j]
        if f:
            cbar[:] = [a - f * c if c else a for a, c in zip(cbar, row)]
        self.basis[i] = j

    def _run(self, cbar: list, allowed: int) -> str:
        """Bland loop: entering = lowest positive reduced cost < allowed."""
        tol, ntol = self.tol, -self.tol
        while True:
            enter = -1
            for j in range(allowed):
                if cbar[j] > tol:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i in range(self.m):
                if not self.active[i]:
                    continue
                a = self.rows[i][enter]
                if a > tol:
                    ratio = self.b[i] / a
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
        for i in range(self.m):
            if not self.active[i]:
                continue
            f = cbar[self.basis[i]]
            if f:
                row = self.rows[i]
                cbar[:] = [a - f * c for a, c in zip(cbar, row)]
        return cbar

    # -- phases ----------------------------------------------------------------

    def phase_one(self) -> bool:
        cost = [self.zero] * self.artificial_start + \
            [-self.one] * (self.n_cols - self.artificial_start)
        cbar = self._reduced_costs(cost)
        self._run(cbar, self.artificial_start)  # artificials may not re-enter
        total = self.zero
        for i in range(self.m):
            if self.active[i] and self.basis[i] >= self.artificial_start:
                total = total + self.b[i]
        if total > self.tol:
            return False
        # drive leftover zero-valued artificials out of the basis
        for i in range(self.m):
            if not self.active[i] or self.basis[i] < self.artificial_start:
                continue
            row = self.rows[i]
            piv = -1
            for j in range(self.artificial_start):
                if row[j] > self.tol or row[j] < -self.tol:
                    piv = j
                    break
            if piv < 0:
                self.active[i] = False  # redundant original row
            else:
                dummy = [self.zero] * self.n_cols
                self._pivot(i, piv, dummy)
        return True

    def phase_two(self, cost: list) -> tuple[str, list]:
        cbar = self._reduced_costs(cost)
        status = self._run(cbar, self.artificial_start)
        return status, cbar


TOL = 1e-9  # absolute: float values closer than this tie


class _FloatTableau(_Tableau):
    """The same tableau over Python floats, with TOL-wide ties.

    Bland's rule need not terminate under rounding, so the pass gives up
    with ArithmeticError after a pivot budget far above what the exact
    iteration takes on these tableaus.
    """

    def __init__(self, rows, rhs):
        super().__init__([[float(v) for v in row] for row in rows],
                         [float(v) for v in rhs], 0.0, 1.0)
        self.tol = TOL
        self.budget = 50 * (self.m + self.n_cols)

    def _pivot(self, i: int, j: int, cbar: list) -> None:
        if self.iterations >= self.budget:
            raise ArithmeticError("float simplex exceeded its pivot budget")
        super()._pivot(i, j, cbar)


def _float_basis(rows, rhs, objective) -> tuple[list[int], int] | None:
    """The final basis and pivot count of the float simplex, if optimal.

    A basis column j < len(objective) is structural, j - len(objective) a
    slack.  None when the pass is infeasible, unbounded, cannot convert an
    input, or leaves a redundant row (with an artificial in its basis).
    """
    try:
        t = _FloatTableau(rows, rhs)
        if t.has_artificials and not t.phase_one():
            return None
        cost = [float(c) for c in objective]
        status, _ = t.phase_two(cost + [0.0] * (t.n_cols - len(cost)))
    except (ArithmeticError, TypeError):
        return None
    if status != "optimal" or not all(t.active):
        return None
    return t.basis, t.iterations


def _certify(rows, rhs, cvec, basis, zero, one) -> tuple[list, list] | None:
    """(x, y) of the basis over [A | I] if it is exactly optimal, else None.

    x is the basic solution on the structural columns and y = c_B B^-1 the
    row multipliers.  The checks are that B is nonsingular, x_B >= 0,
    y >= 0 (slack reduced costs) and y.A >= c (structural reduced costs).
    A basic slack is a unit column of B, so only the square block K of the
    basic structural columns J on the rows R whose slack is nonbasic needs
    solving: K x_J = b_R and y_R K = c_J, with y = 0 off R.
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
        rc = mat[c]
        inv = one / rc[c]
        rc[:] = [v * inv if v else v for v in rc]
        for i in range(k):
            f = mat[i][c]
            if i != c and f:
                mat[i] = [a - f * v if v else a for a, v in zip(mat[i], rc)]
    kinv = [r[k:] for r in mat]

    b = [v + zero for v in rhs]
    x = [zero] * d
    for j, inv_row in zip(cols, kinv):
        v = zero
        for a, i in zip(inv_row, tight):
            if a and b[i]:
                v = v + a * b[i]
        if v < zero:
            return None
        x[j] = v
    for i in slack_rows:
        v = b[i]
        for j in cols:
            if x[j] and rows[i][j]:
                v = v - rows[i][j] * x[j]
        if v < zero:
            return None

    y = [zero] * m
    for j, inv_row in zip(cols, kinv):
        c = cvec[j]
        if c:
            for a, i in zip(inv_row, tight):
                if a:
                    y[i] = y[i] + c * a
    if any(v < zero for v in y):
        return None
    basic = set(cols)
    for j in range(d):
        if j in basic:
            continue
        v = zero
        for yi, row in zip(y, rows):
            if yi and row[j]:
                v = v + yi * row[j]
        if v < cvec[j]:
            return None
    return x, y


def lp_solve(rows: Sequence[Sequence], rhs: Sequence, objective: Sequence,
             *, zero) -> LPResult:
    """Exact simplex for  max c.x  s.t.  rows[i].x <= rhs[i], x >= 0.

    The dual list contains one multiplier per constraint row, normalized for
    the maximization form: y >= 0, y.A >= c componentwise on the support of
    x, and y.b equals the optimum.  Every result is exact: a float-pass
    basis is used only once certified, and ``iterations`` counts the pivots
    of the pass whose basis is returned.
    """
    m = len(rows)
    if len(rhs) != m:
        raise InvalidParameterError("rhs length must match row count")
    d = len(objective)
    for row in rows:
        if len(row) != d:
            raise InvalidParameterError("row width must match objective")
    one = zero + 1
    cvec = [c + zero for c in objective]

    if m == 0:
        # only x >= 0: optimum at 0 unless some cost coefficient is positive
        if any(c > zero for c in cvec):
            return LPResult("unbounded")
        return LPResult("optimal", zero, [zero] * d, [], 0)

    found = _float_basis(rows, rhs, cvec)
    if found is not None:
        basis, pivots = found
        certified = _certify(rows, rhs, cvec, basis, zero, one)
        if certified is not None:
            x, dual = certified
            return LPResult("optimal", _value(cvec, x, zero), x, dual, pivots)

    t = _Tableau(rows, rhs, zero, one)
    if t.has_artificials and not t.phase_one():
        return LPResult("infeasible", iterations=t.iterations)
    cost = cvec + [zero] * (t.n_cols - d)
    status, cbar = t.phase_two(cost)
    if status == "unbounded":
        return LPResult("unbounded", iterations=t.iterations)

    x = [zero] * d
    for i in range(t.m):
        if t.active[i] and t.basis[i] < d:
            x[t.basis[i]] = t.b[i]
    # reduced cost of slack i is -y_i in both orientations: flipping a row
    # negates the slack column and the stored rhs together
    dual = []
    for i in range(t.m):
        dual.append(zero if not t.active[i] else -cbar[d + i])
    return LPResult("optimal", _value(cvec, x, zero), x, dual, t.iterations)


def _value(cvec, x, zero):
    value = zero
    for c, xi in zip(cvec, x):
        if xi:
            value = value + c * xi
    return value
