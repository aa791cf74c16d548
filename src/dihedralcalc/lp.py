"""Exact linear programming over an ordered field.

A small two-phase tableau simplex used by the cone audits.  All pivoting
decisions are exact: the value type is that of the ``zero`` the caller
passes, such as Fraction(0) or a field's zero (anything with field operators
and exact comparisons).  Bland's rule picks both the entering and the
leaving variable, so the iteration cannot cycle.

Solves  max c.x  subject to  A x <= b, x >= 0  and reports one of
"optimal" (with a vertex witness and row multipliers), "unbounded", or
"infeasible".
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
        zero = self.zero
        while True:
            enter = -1
            for j in range(allowed):
                if cbar[j] > zero:
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
                if a > zero:
                    ratio = self.b[i] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
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
        if total > self.zero:
            return False
        # drive leftover zero-valued artificials out of the basis
        for i in range(self.m):
            if not self.active[i] or self.basis[i] < self.artificial_start:
                continue
            row = self.rows[i]
            piv = -1
            for j in range(self.artificial_start):
                if row[j]:
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


def lp_solve(rows: Sequence[Sequence], rhs: Sequence, objective: Sequence,
             *, zero) -> LPResult:
    """Exact simplex for  max c.x  s.t.  rows[i].x <= rhs[i], x >= 0.

    The dual list contains one multiplier per constraint row, normalized for
    the maximization form: y >= 0, y.A >= c componentwise on the support of
    x, and y.b equals the optimum.
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

    t = _Tableau(rows, rhs, zero, one)
    if t.has_artificials and not t.phase_one():
        return LPResult("infeasible", iterations=t.iterations)
    cost = cvec + [zero] * (t.n_cols - d)
    status, cbar = t.phase_two(cost)
    if status == "unbounded":
        return LPResult("unbounded", iterations=t.iterations)

    x = [zero] * d
    value = zero
    for i in range(t.m):
        if t.active[i] and t.basis[i] < d:
            x[t.basis[i]] = t.b[i]
    for c, xi in zip(cvec, x):
        if xi:
            value = value + c * xi
    # reduced cost of slack i is -y_i in both orientations: flipping a row
    # negates the slack column and the stored rhs together
    dual = []
    for i in range(t.m):
        dual.append(zero if not t.active[i] else -cbar[d + i])
    return LPResult("optimal", value, x, dual, t.iterations)
