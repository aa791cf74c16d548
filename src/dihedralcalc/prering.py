"""Homology pre-rings of rank-2 buildings with 0/1/infinity coefficients.

Coefficients live in the three-element system {0, 1, inf} over Z/2:
inf + inf is undefined and raises, 0 * inf = 0.  Two graded pre-rings are
built on top:

- the Grassmannian one, basis C_0 .. C_{n-1}, unit C_{n-1};
- the flag one, basis C_w indexed by Weyl elements with dim C_w = len(w),
  the point class C_1 at the identity and the unit at the longest element.

Products follow ball-intersection cardinalities: complementary classes of
opposite types meet in a point (coefficient 1), oversized intersections in
a thick building are infinite, undersized ones empty.  ``mul`` is the
package's shared ``algebra.bilinear`` over these coefficients, whose ``+``
and ``*`` are those of Z2.

enumerate_sigma lists the m-tuples whose flag product is a nonzero
multiple of the point class, testing each multiset of factors once.
Products are evaluated with same-type chains first and one mixed step at
the end; this never hits inf + inf, mirroring the fact that a nonzero
product splits through the two vertex types.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .algebra import bilinear
from .errors import (
    DomainError,
    InvalidParameterError,
    UndefinedSumError,
)
from .weyl import IDENTITY, DihedralGroup, WeylElement


@dataclass(frozen=True)
class PreRingCoeff:
    finite: bool
    residue: int = 0

    def is_zero(self) -> bool:
        return self.finite and self.residue == 0

    def __repr__(self) -> str:
        return str(self.residue) if self.finite else "inf"

    def to_json(self) -> str:
        return repr(self)

    def __add__(self, other: "PreRingCoeff") -> "PreRingCoeff":
        return Z2.add(self, other)

    def __mul__(self, other: "PreRingCoeff") -> "PreRingCoeff":
        return Z2.mul(self, other)


class HatArithmetic:
    """Coefficient pre-ring Z/2 + {inf}."""

    def __init__(self):
        self.zero = PreRingCoeff(True, 0)
        self.one = PreRingCoeff(True, 1)
        self.inf = PreRingCoeff(False)

    def coeff(self, value) -> PreRingCoeff:
        if value is None:
            return self.inf
        return PreRingCoeff(True, value % 2)

    def add(self, a: PreRingCoeff, b: PreRingCoeff) -> PreRingCoeff:
        if a.finite and b.finite:
            return self.coeff(a.residue + b.residue)
        if a.finite or b.finite:
            return self.inf
        raise UndefinedSumError("inf + inf has no value")

    def mul(self, a: PreRingCoeff, b: PreRingCoeff) -> PreRingCoeff:
        if a.is_zero() or b.is_zero():
            return self.zero
        if not (a.finite and b.finite):
            return self.inf
        return self.coeff(a.residue * b.residue)


Z2 = HatArithmetic()


class GrassPreRing:
    """Classes C_0 .. C_{n-1} of one vertex type; the unit is C_{n-1}."""

    def __init__(self, n: int):
        if n < 2:
            raise InvalidParameterError("n must be at least 2")
        self.n = n
        self.dim = n - 1

    def _check(self, r: int) -> None:
        if not 0 <= r <= self.dim:
            raise DomainError(f"degree {r} outside 0..{self.dim}")

    def unit(self) -> dict:
        return {self.dim: Z2.one}

    def mul_basis(self, r1: int, r2: int) -> dict:
        self._check(r1)
        self._check(r2)
        if r1 == self.dim:
            return {r2: Z2.one}
        if r2 == self.dim:
            return {r1: Z2.one}
        r3 = r1 + r2 - self.dim
        if r3 < 0:
            return {}
        if r3 == 0:
            return {0: Z2.one}
        return {r3: Z2.inf}

    def mul(self, x: dict, y: dict) -> dict:
        return bilinear(self.mul_basis, x, y)

    def product_chain(self, degrees: list[int]) -> dict:
        acc = self.unit()
        for r in degrees:
            acc = self.mul(acc, {r: Z2.one})
            if not acc:
                return {}
        return acc


class FlagPreRing:
    """Classes C_w, dim C_w = len(w); the unit sits at the longest element."""

    def __init__(self, n: int):
        if n < 2:
            raise InvalidParameterError("n must be at least 2")
        self.n = n
        self.group = DihedralGroup(n)

    def basis(self) -> list[WeylElement]:
        return list(self.group.elements())

    def mul_basis(self, u: WeylElement, v: WeylElement) -> dict:
        n = self.n
        if u.length == n:
            return {v: Z2.one}
        if v.length == n:
            return {u: Z2.one}
        if u.length == 0 or v.length == 0:
            return {}  # the point class kills every non-unit
        r3 = u.length + v.length - n
        if u.side == v.side:
            if r3 <= 0:
                return {}
            return {self.group.element(r3, u.side): Z2.inf}
        if r3 < 0:
            return {}
        if r3 == 0:
            return {IDENTITY: Z2.one}
        return {self.group.element(r3, 1): Z2.inf,
                self.group.element(r3, 2): Z2.inf}

    def mul(self, x: dict, y: dict) -> dict:
        return bilinear(self.mul_basis, x, y)

    def point_multiple(self, factors: tuple[WeylElement, ...]) -> PreRingCoeff:
        """Coefficient a with prod C_{u_i} = a * C_1, or zero if the product
        is not a multiple of the point class.

        Same-type chains are multiplied first, then the two chains meet in
        one mixed step; a nonzero product always factors this way.
        """
        n = self.n
        if sum(n - u.length for u in factors) != n:
            return Z2.zero
        sides = {1: [], 2: []}
        points = 0
        for u in factors:
            if u.length == n:
                continue
            if u.length == 0:
                points += 1
            else:
                sides[u.side].append(u.length)
        if points:
            # codegrees force everything else to be the unit
            if points == 1 and not sides[1] and not sides[2]:
                return Z2.one
            return Z2.zero
        if not sides[1] or not sides[2]:
            return Z2.zero  # one-type chains never reach the point
        value = Z2.one
        dims = {}
        for l in (1, 2):
            acc = sides[l][0]
            for r in sides[l][1:]:
                if acc + r <= n:
                    return Z2.zero
                acc = acc + r - n
                value = Z2.inf
            dims[l] = acc
        if dims[1] + dims[2] != n:
            return Z2.zero
        return value


def distinct_orderings(multiset: Iterable[int]) -> list[tuple[int, ...]]:
    """The distinct orderings of a multiset, in no particular order: the
    copies of each value, most frequent first, go to every set of positions
    among the orderings of the values placed before them.  The cost is in
    proportion to the output, however many copies repeat."""
    out: list[tuple[int, ...]] = [()]
    for value, count in Counter(multiset).most_common():
        grown = []
        for shorter in out:
            for spots in itertools.combinations(range(len(shorter) + count),
                                                count):
                longer = list(shorter)
                for spot in spots:
                    longer.insert(spot, value)
                grown.append(tuple(longer))
        out = grown
    return out


def enumerate_sigma(n: int, m: int) -> list[tuple]:
    """All m-tuples of Weyl elements whose flag product is a nonzero
    multiple of the point class, in lexicographic label order.

    The flag product is commutative and ``point_multiple`` depends only on
    the multiset of factors, so each multiset whose codegrees sum to n is
    tested once and, if its product is nonzero, contributes every distinct
    ordering of itself.  ``test_point_multiple_is_symmetric`` checks that
    invariance, and ``test_sigma_matches_tuple_oracle`` compares the list,
    order included, with a test of every tuple.
    """
    if m < 2:
        raise InvalidParameterError("m must be at least 2")
    if n is None:
        raise InvalidParameterError("finite groups only")
    ring = FlagPreRing(n)
    # label order: codegrees n - length never increase along it
    elems = sorted(ring.basis(), key=lambda w: (w.length, w.side or 0))
    codegrees = [n - u.length for u in elems]
    picked: list[int] = []
    out: list[tuple[int, ...]] = []

    def rec(start: int, codegree_left: int, slots_left: int):
        if slots_left == 0:
            if codegree_left == 0 and not ring.point_multiple(
                    tuple(elems[i] for i in picked)).is_zero():
                out.extend(distinct_orderings(picked))
            return
        for i in range(start, len(elems)):
            cd = codegrees[i]
            if cd > codegree_left:
                continue
            if cd * slots_left < codegree_left:
                break  # later factors have smaller codegrees still
            picked.append(i)
            rec(i, codegree_left - cd, slots_left - 1)
            picked.pop()

    rec(0, n, m)
    out.sort()
    get = elems.__getitem__
    return [tuple(map(get, p)) for p in out]
