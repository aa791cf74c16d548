"""The universal dihedral cohomology algebra A_t with its Schubert basis.

Elements are finite maps WeylElement -> FieldElement.  Multiplication of two
basis classes follows the closed four-case rule (unit absorption; vanishing
past the top degree; same-side products carrying a single t-binomial;
opposite-side products carrying two), so no division ever happens and the
root-of-unity degenerations stay exact.  In hyperbolic mode the group is
infinite and products are only defined up to a configurable degree cap.

Every sparse product in the package is ``bilinear(mul_basis, a, b)``, the
bilinear extension of a product on basis labels: A_t here, its associated
graded and tau -> infinity limit (filtration), the Kac-Moody Chevalley
product (chevalley) and the homology pre-rings over Z/2 + {inf} (prering).
They differ only in the structure constants and the coefficient system.
``mul_table_json`` exports any of them basis by basis, encoding each
distinct coefficient once.
"""

from __future__ import annotations

from typing import Callable

from .errors import CapExceededError, InvalidParameterError, UnsupportedModeError
from .field import (
    FieldDescriptor,
    FieldElement,
    t_binomial,
    t_power_sum,
)
from .weyl import DihedralGroup, WeylElement

Element = dict[WeylElement, FieldElement]


class AlgebraContext:
    """A_t over the field of a descriptor, with the W_t module structure."""

    def __init__(self, descr: FieldDescriptor, cap: int = 16):
        if descr.mode == "cyclotomic" and descr.n is None:
            raise UnsupportedModeError("descriptor carries no t-structure")
        self.descr = descr
        # n_t: order of t**2 in C^*; None encodes infinity
        self.n_t = descr.n
        self.cap = cap
        self.group = DihedralGroup(descr.n if descr.mode == "cyclotomic" else None)

    # -- element helpers ------------------------------------------------------

    def sigma(self, w: WeylElement) -> Element:
        return {w: self.descr.one}

    def unit(self) -> Element:
        return {self.group.identity: self.descr.one}

    def basis(self) -> list[WeylElement]:
        # the infinite group has no top degree: stop at the cap
        top = self.cap if self.n_t is None else None
        return list(self.group.elements(top))

    def grassmannian_basis(self, i: int) -> list[WeylElement]:
        """Labels of the subalgebra generated by one-sided classes: the unit
        together with every side-i class (one label per degree 0..n-1)."""
        if i not in (1, 2):
            raise InvalidParameterError("side must be 1 or 2")
        top = self.n_t if self.n_t is not None else self.cap + 1
        out = [self.group.identity]
        out.extend(WeylElement(k, i) for k in range(1, top))
        return out

    def add(self, a: Element, b: Element) -> Element:
        out = dict(a)
        for w, c in b.items():
            accumulate(out, w, c)
        return out

    def scale(self, c, a: Element) -> Element:
        if isinstance(c, (int,)) and c == 0:
            return {}
        out = {}
        for w, cw in a.items():
            v = cw * c
            if not v.is_zero():
                out[w] = v
        return out

    def equal(self, a: Element, b: Element) -> bool:
        return self.add(a, self.scale(-1, b)) == {}

    # -- multiplication ---------------------------------------------------------

    def mul_basis(self, u: WeylElement, v: WeylElement) -> Element:
        if u.length == 0:
            return self.sigma(v)
        if v.length == 0:
            return self.sigma(u)
        total = u.length + v.length
        if self.n_t is not None:
            if total > self.n_t:
                return {}
        elif total > self.cap:
            raise CapExceededError(
                f"product degree {total} exceeds cap {self.cap}")
        k, l = u.length, v.length
        descr = self.descr
        if u.side == v.side:
            coeff = t_binomial(descr, total, k)
            if coeff.is_zero():
                return {}
            return {WeylElement(total, u.side): coeff}
        if self.n_t is not None and total == self.n_t:
            coeff = t_binomial(descr, self.n_t - 1, min(k, l) - 1)
            return {self.group.longest: coeff}
        out: Element = {}
        c1 = t_binomial(descr, total - 1, k - 1)
        if not c1.is_zero():
            out[WeylElement(total, u.side)] = c1
        c2 = t_binomial(descr, total - 1, l - 1)
        if not c2.is_zero():
            prev = out.get(WeylElement(total, v.side))
            out[WeylElement(total, v.side)] = c2 if prev is None else prev + c2
        return out

    def mul(self, a: Element, b: Element) -> Element:
        return bilinear(self.mul_basis, a, b)

    def power(self, a: Element, k: int) -> Element:
        out = self.unit()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    # -- W_t action ------------------------------------------------------------

    def weyl_action_gen(self, i: int, a: Element) -> Element:
        """s_i action: fixes the unit and all classes of the opposite side;
        s_i(sigma_{(k,i)}) = -sigma_{(k,i)} + (t^k + t^-k) sigma_{(k,3-i)};
        the top class (finite case) changes sign."""
        if i not in (1, 2):
            raise InvalidParameterError("generator index must be 1 or 2")
        out: Element = {}
        for w, c in a.items():
            if w.length == 0:
                accumulate(out, w, c)
            elif w.side is None:
                accumulate(out, w, -c)
            elif w.side != i:
                accumulate(out, w, c)
            else:
                accumulate(out, w, -c)
                accumulate(out, WeylElement(w.length, 3 - i),
                           t_power_sum(self.descr, w.length) * c)
        return out

    # -- export -------------------------------------------------------------------

    def table_json(self) -> dict:
        """Full basis-by-basis multiplication table (finite case)."""
        return mul_table_json(self, self.basis(), self.mul_basis)


def accumulate(out: dict, w, c) -> None:
    """Add c at w in place; a term that cancels leaves the element."""
    acc = out.get(w)
    new = c if acc is None else acc + c
    if new.is_zero():
        out.pop(w, None)
    else:
        out[w] = new


def bilinear(mul_basis: Callable, a: dict, b: dict) -> dict:
    """Bilinear extension of a product on basis labels to sparse elements.

    Coefficients need only ``+``, ``*`` and ``is_zero``.  Terms enter the
    result in the order the factors and each basis product list them, and a
    term that cancels leaves it (re-entering at the end if it reappears).
    """
    out: dict = {}
    for u, ca in a.items():
        for v, cb in b.items():
            scale = ca * cb
            if scale.is_zero():
                continue
            for w, c in mul_basis(u, v).items():
                # accumulate() inlined: this is the hottest loop of the package
                acc = out.get(w)
                new = c * scale if acc is None else acc + c * scale
                if new.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = new
    return out


def mul_table_json(alg: AlgebraContext, basis: list[WeylElement],
                   mul_basis: Callable) -> dict:
    """Basis-by-basis table of a product on the labels of ``basis``.

    Products share coefficient objects (t_binomial caches them), so each
    distinct object's JSON is written once per call, keyed by id with the
    object held so that its id stays unique; every entry gets its own copy.
    """
    if alg.n_t is None:
        raise UnsupportedModeError("full table requires the finite case")
    names = {w: _label(w) for w in basis}
    encoded: dict[int, tuple] = {}  # id(c) -> (c, c.to_json())
    table = {}
    for u in basis:
        for v in basis:
            entries = []
            for w, c in sorted(mul_basis(u, v).items()):
                got = encoded.get(id(c))
                if got is None:
                    got = encoded[id(c)] = (c, c.to_json())
                # [:] copies a list and keeps a (pre-ring) str as it is
                entries.append({"w": names[w], "coeff": got[1][:]})
            table[f"{names[u]}*{names[v]}"] = entries
    return {"n": alg.group.n, "basis": [names[w] for w in basis],
            "field": alg.descr.to_json(), "table": table}


def _label(w: WeylElement) -> str:
    if w.length == 0:
        return "e"
    if w.side is None:
        return "w0"
    return f"{w.length}.{w.side}"
