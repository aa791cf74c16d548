"""Chevalley-formula cohomology for rank-2 Kac-Moody flag varieties.

A Cartan pair (a12, a21) of positive integers fixes t through
t + 1/t = sqrt(a12*a21): products A = a12*a21 of 1, 2, 3 give the finite
Weyl groups I2(3), I2(4), I2(6) over the matching cyclotomic field, A = 4
gives t = 1 (infinite dihedral, rational arithmetic), and A >= 5 would need
an irrational t and is rejected.

Products are generated by the two one-step rules for multiplication by a
degree-one class [X_{s_i}] (same-side and opposite-side), with the ratio
factor sqrt(a_ij/a_ji) = a_ij / sqrt(A) kept exact in the field.  General
products expand the second factor as a scaled power of a generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .algebra import AlgebraContext, Element, accumulate
from .errors import (
    CapExceededError,
    InvalidParameterError,
    UnsupportedCartanError,
)
from .field import FieldElement, field_init, t_factorial, t_number
from .weyl import WeylElement

_FINITE_N = {1: 3, 2: 4, 3: 6}


@dataclass
class IsoReport:
    ok: bool
    pairs_checked: int
    counterexample: tuple | None = None


class KacMoodyContext:
    def __init__(self, a12: int, a21: int, cap: int = 16):
        if not (isinstance(a12, int) and isinstance(a21, int)) \
                or a12 < 1 or a21 < 1:
            raise InvalidParameterError("Cartan entries must be positive integers")
        self.a12, self.a21 = a12, a21
        A = a12 * a21
        if A in _FINITE_N:
            self.descr = field_init(_FINITE_N[A])
            # theta^2 - 2 = 2cos(pi/n) = sqrt(A) for n = 3, 4, 6
            self.sqrt_A = self.descr.theta * self.descr.theta - 2
        elif A == 4:
            self.descr = field_init(t=1)
            self.sqrt_A = self.descr.from_rational(2)
        else:
            raise UnsupportedCartanError(
                f"a12*a21 = {A} needs an irrational t outside the field")
        assert self.sqrt_A * self.sqrt_A == A
        self.algebra = AlgebraContext(self.descr, cap=cap)
        self.group = self.algebra.group
        self.cap = cap
        # ratio_i = sqrt(a_{i,3-i} / a_{3-i,i}) = a_{i,3-i} / sqrt(A)
        inv = self.sqrt_A.inverse()
        self.ratio = {1: inv * a12, 2: inv * a21}
        # v -> 1 / generator_power_scale(v), filled by mul_basis
        self._inv_scales: dict[WeylElement, FieldElement] = {}

    # -- products ---------------------------------------------------------------

    def mul_by_generator(self, x: Element, i: int) -> Element:
        """Multiply by [X_{s_i}] one basis class at a time."""
        if i not in (1, 2):
            raise InvalidParameterError("generator index must be 1 or 2")
        n = self.group.n
        out: Element = {}
        for w, coeff in x.items():
            k = w.length
            if n is not None and k == n:
                continue  # the top class has no covers
            if n is None and k + 1 > self.cap:
                raise CapExceededError(
                    f"degree {k + 1} exceeds cap {self.cap}")
            if k == 0:
                accumulate(out, WeylElement(1, i), coeff)
                continue
            up = self.group.element(k + 1, None if n == k + 1 else i)
            if w.side == i:
                # same side: ratio^(k mod 2) [k+1] on the extended class;
                # [n] = 0 makes the top step vanish automatically
                factor = self.ratio[i] ** (k % 2) * t_number(self.descr, k + 1)
                accumulate(out, up, factor * coeff)
            elif n is not None and k + 1 == n:
                # both extensions name the same reflection: count it once
                accumulate(out, up, coeff)
            else:
                accumulate(out, up, coeff)
                factor = self.ratio[i] ** (1 - k % 2) * t_number(self.descr, k)
                accumulate(out, self.group.element(k + 1, w.side),
                           factor * coeff)
        return out

    def generator_power_scale(self, w: WeylElement) -> FieldElement:
        """[X_{s_i}]^k = scale * [X_w] for w of length k ending in s_i."""
        k, i = w.length, w.side
        if i is None:
            raise InvalidParameterError("needs a one-sided class")
        return self.ratio[i] ** (k // 2) * t_factorial(self.descr, k)

    def mul_basis(self, u: WeylElement, v: WeylElement) -> Element:
        if v.length == 0:
            return self.algebra.sigma(u)
        if u.length == 0:
            return self.algebra.sigma(v)
        n = self.group.n
        if n is not None and v.length == n:
            return {}  # u is not the unit here, so the degree overflows
        if v.side is None:
            raise InvalidParameterError(f"non-canonical element {v}")
        acc = self.algebra.sigma(u)
        for _ in range(v.length):
            acc = self.mul_by_generator(acc, v.side)
        inv = self._inv_scales.get(v)
        if inv is None:
            inv = self._inv_scales[v] = \
                self.generator_power_scale(v).inverse()
        return {w: c * inv for w, c in acc.items()}

    # -- W-action on the degree-one span ------------------------------------------

    def weyl_action_gen_degree_one(self, i: int, x: Element) -> Element:
        """s_i on span([X_{s_1}], [X_{s_2}]):
        s_i fixes [X_{s_j}] (j != i) and sends [X_{s_i}] to
        -[X_{s_i}] + a_{i,3-i} [X_{s_{3-i}}]."""
        out: Element = {}
        a_off = {1: self.a12, 2: self.a21}
        for w, c in x.items():
            if w.length != 1:
                raise InvalidParameterError("degree-one span only")
            if w.side != i:
                accumulate(out, w, c)
            else:
                accumulate(out, w, -c)
                accumulate(out, WeylElement(1, 3 - i), c * a_off[i])
        return out

    # -- isomorphism with A_t ----------------------------------------------------

    def default_scaling(self) -> tuple[FieldElement, FieldElement]:
        """c_i = sqrt(a_{i,3-i}/gcd): integral or a known quadratic surd."""
        g = gcd(self.a12, self.a21)
        return (self._sqrt_small(self.a12 // g), self._sqrt_small(self.a21 // g))

    def _sqrt_small(self, m: int) -> FieldElement:
        if m == 1:
            return self.descr.one
        if m == 4:
            return self.descr.from_rational(2)
        if m in (2, 3):
            root = self.descr.theta * self.descr.theta - 2
            if root * root == m:
                return root
        raise UnsupportedCartanError(f"sqrt({m}) not representable here")

    def iso_scale(self, w: WeylElement, c1: FieldElement,
                  c2: FieldElement) -> FieldElement:
        k = w.length
        if k == 0:
            return self.descr.one
        i = w.side if w.side is not None else 1
        ci = c1 if i == 1 else c2
        cj = c2 if i == 1 else c1
        return ci ** ((k + 1) // 2) * cj ** (k // 2)

    def iso_check(self, c1: FieldElement | int,
                  c2: FieldElement | int) -> IsoReport:
        """Verify that [X_w] -> scale(w) sigma_w is multiplicative and
        W-equivariant on generators.  Each basis element's scale is
        computed once per call and read for every term of every pair."""
        if isinstance(c1, int):
            c1 = self.descr.from_rational(c1)
        if isinstance(c2, int):
            c2 = self.descr.from_rational(c2)
        if c1.is_zero() or c2.is_zero():
            raise UnsupportedCartanError("scalings must be nonzero")
        if not (c1 / c2) == self.ratio[1]:
            raise UnsupportedCartanError(
                "c1/c2 must equal sqrt(a12/a21) exactly")
        alg = self.algebra
        basis = alg.basis()
        scales = {w: self.iso_scale(w, c1, c2) for w in basis}

        def iso_map(x: Element) -> Element:
            return {w: c * scales[w] for w, c in x.items()}

        checked = 0
        for u in basis:
            for v in basis:
                if self.group.n is None and u.length + v.length > self.cap:
                    continue
                lhs = iso_map(self.mul_basis(u, v))
                rhs = alg.mul({u: scales[u]}, {v: scales[v]})
                checked += 1
                if not alg.equal(lhs, rhs):
                    return IsoReport(False, checked, (u, v, lhs, rhs))
        for i in (1, 2):
            for j in (1, 2):
                x = self.algebra.sigma(WeylElement(1, j))
                lhs = iso_map(self.weyl_action_gen_degree_one(i, x))
                rhs = alg.weyl_action_gen(i, iso_map(x))
                checked += 1
                if not alg.equal(lhs, rhs):
                    return IsoReport(False, checked, ((i, j), lhs, rhs))
        return IsoReport(True, checked)
