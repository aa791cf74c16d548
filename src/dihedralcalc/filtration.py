"""Concave length weightings on the Schubert basis and the products they
induce: the associated graded algebra and the coefficient-collapsing limit
that lands in the homology pre-rings.

The weighting assigns phi(w) = -G(len(w)) on the full basis, where
G(x) = ([x]_q)^2, or phi_i(w) = -F(len(w)) on a one-sided subalgebra,
where F(x) is the sum of the first x quantum integers.  Both are concave
against the structure constants: phi(u) + phi(v) >= phi(w) whenever
sigma_w appears in sigma_u sigma_v, with equality exactly for unit factors
or complementary top-degree pairs.

Both products are degenerations of the family that scales each term
sigma_w of sigma_u sigma_v by tau^(phi(u) + phi(v) - phi(w)):

- gr_mul keeps the equality-level terms only (the tau -> 0 degeneration);
- limit_table sends tau -> infinity, collapsing coefficients to
  {0, 1, inf}; the result matches the flag pre-ring under w -> pd(w) and,
  on a one-sided subalgebra, the one-type pre-ring under
  w -> n - 1 - ell_side(w, other side).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from .algebra import AlgebraContext, Element, bilinear, mul_table_json
from .errors import (
    InvalidParameterError,
    UnsupportedModeError,
    VerificationError,
)
from .field import (
    FieldDescriptor,
    FieldElement,
    approx,
    float_dot,
    q_number_squared,
    sign_of,
    t_number,
)
from .prering import FlagPreRing, GrassPreRing, Z2
from .weyl import WeylElement


def side_weight(descr: FieldDescriptor, x: int) -> FieldElement:
    """F(x): sum of the first x quantum integers, the one-sided weight."""
    if x < 0:
        raise InvalidParameterError("weight argument must be nonnegative")
    acc = descr.from_rational(0)
    for k in range(1, x + 1):
        acc = acc + t_number(descr, k)
    return acc


def full_weight(descr: FieldDescriptor, x: int) -> FieldElement:
    """G(x) = ([x]_q)^2, the two-sided weight."""
    if x < 0:
        raise InvalidParameterError("weight argument must be nonnegative")
    return q_number_squared(descr, x)


# the exact weights of phi(u) + phi(v) - phi(w), as float images for float_dot
_PLUS_PLUS_MINUS = (1.0, 1.0, -1.0)
_EXACT = (0.0, 0.0, 0.0)


@dataclass
class ConcaveWeighting:
    alg: AlgebraContext
    target: str  # "full" or "side"
    side: int | None
    values: dict  # length -> FieldElement, the (negated) weight
    # (u.length, v.length, w.length) -> sign of the deformation exponent
    _signs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    # length -> (f, r): values[length]'s float and error bound under approx
    _images: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._images = {k: approx(value) for k, value in self.values.items()}

    @classmethod
    def full(cls, alg: AlgebraContext) -> "ConcaveWeighting":
        vals = {k: -full_weight(alg.descr, k)
                for k in {w.length for w in alg.basis()}}
        return cls(alg, "full", None, vals)

    @classmethod
    def one_sided(cls, alg: AlgebraContext, i: int) -> "ConcaveWeighting":
        vals = {w.length: -side_weight(alg.descr, w.length)
                for w in alg.grassmannian_basis(i)}
        return cls(alg, "side", i, vals)

    def phi(self, w: WeylElement) -> FieldElement:
        return self.values[w.length]

    def exponent_sign(self, u: WeylElement, v: WeylElement,
                      w: WeylElement) -> int:
        """Sign of phi(u) + phi(v) - phi(w).  The weights depend on length
        alone, so the sign is decided once per length triple: by
        ``float_dot`` of the three weights' float images against
        (1, 1, -1) wherever its proven bound r gives r < |s| < inf, and
        exactly otherwise (in practice only where the sign is 0)."""
        key = (u.length, v.length, w.length)
        s = self._signs.get(key)
        if s is None:
            (fu, ru), (fv, rv), (fw, rw) = map(self._images.__getitem__, key)
            s, r = float_dot((fu, fv, fw), (ru, rv, rw), _PLUS_PLUS_MINUS,
                             _EXACT)
            if r < abs(s) < inf:
                s = 1 if s > 0 else -1
            else:
                s = sign_of(_deformation_exponent(self, u, v, w))
            self._signs[key] = s
        return s

    def basis(self) -> list[WeylElement]:
        if self.target == "side":
            return self.alg.grassmannian_basis(self.side)
        return self.alg.basis()

    def top_length(self) -> int | None:
        n = self.alg.n_t
        if n is None:
            return None
        return n if self.target == "full" else n - 1

    def expected_equality(self, u: WeylElement, v: WeylElement,
                          w: WeylElement) -> bool:
        if u.length == 0 or v.length == 0:
            return True
        top = self.top_length()
        return top is not None and \
            u.length + v.length == w.length == top


@dataclass
class ConcavityReport:
    ok: bool
    pairs_checked: int
    equalities: list
    violations: list = field(default_factory=list)
    misclassified: list = field(default_factory=list)


def _deformation_exponent(weighting: ConcaveWeighting, u, v, w) -> FieldElement:
    return weighting.phi(u) + weighting.phi(v) - weighting.phi(w)


def concavity_audit(weighting: ConcaveWeighting) -> ConcavityReport:
    """Checks phi(u) + phi(v) >= phi(w) over every structure constant and
    that equality happens exactly for unit factors or full top degree."""
    alg = weighting.alg
    basis = weighting.basis()
    cap = None if alg.n_t is not None else alg.cap
    equalities = []
    violations = []
    misclassified = []
    pairs = 0
    for u in basis:
        for v in basis:
            if cap is not None and u.length + v.length > cap:
                continue
            pairs += 1
            for w, c in alg.mul_basis(u, v).items():
                s = weighting.exponent_sign(u, v, w)
                if s < 0:
                    violations.append((u, v, w))
                    continue
                if s == 0:
                    equalities.append((u, v, w))
                if (s == 0) != weighting.expected_equality(u, v, w):
                    misclassified.append((u, v, w))
    ok = not violations and not misclassified
    return ConcavityReport(ok, pairs, equalities, violations, misclassified)


def gr_mul(weighting: ConcaveWeighting, u: WeylElement,
           v: WeylElement) -> Element:
    """Associated graded product: equality-level terms survive unchanged."""
    out = {}
    for w, c in weighting.alg.mul_basis(u, v).items():
        if weighting.exponent_sign(u, v, w) == 0:
            out[w] = c
    return out


def gr_product(weighting: ConcaveWeighting, a: Element, b: Element) -> Element:
    return bilinear(lambda u, v: gr_mul(weighting, u, v), a, b)


@dataclass
class LimitReport:
    ok: bool
    pairs_checked: int
    mismatch: tuple | None = None


def limit_mul(weighting: ConcaveWeighting, u: WeylElement,
              v: WeylElement) -> dict:
    """tau -> infinity collapse of the deformed product: terms with a
    strictly positive exponent blow up to inf, equality-level terms keep
    their (unit) coefficient."""
    out = {}
    for w, c in weighting.alg.mul_basis(u, v).items():
        if weighting.exponent_sign(u, v, w) == 0:
            if c != weighting.alg.descr.one:
                raise VerificationError(
                    "equality-level structure constant is not 1")
            out[w] = Z2.one
        else:
            out[w] = Z2.inf
    return out


def grass_degree(alg: AlgebraContext, side: int, w: WeylElement) -> int:
    """Degree of the one-type class matching sigma_w on the side subalgebra:
    n - 1 - (coset length of w relative to the other type)."""
    return alg.n_t - 1 - alg.group.ell_side(w, 3 - side)


def limit_table(weighting: ConcaveWeighting) -> LimitReport:
    """Builds the full tau -> infinity table and checks it is carried onto
    the matching pre-ring table by the degree-preserving relabeling
    (w -> pd(w), or w -> grass_degree on a one-sided weighting), which is
    tabulated once over the full basis per call and read per pair."""
    alg = weighting.alg
    if alg.n_t is None:
        raise UnsupportedModeError("limit tables require the finite case")
    n = alg.n_t
    basis = weighting.basis()
    if weighting.target == "full":
        ring = FlagPreRing(n)
        relabel = {w: alg.group.pd(w) for w in alg.basis()}
    else:
        ring = GrassPreRing(n)
        relabel = {w: grass_degree(alg, weighting.side, w)
                   for w in alg.basis()}

    pairs = 0
    for u in basis:
        for v in basis:
            pairs += 1
            got = {relabel[w]: c for w, c in limit_mul(weighting, u, v).items()}
            want = ring.mul_basis(relabel[u], relabel[v])
            if got != want:
                return LimitReport(False, pairs, (u, v, got, want))
    return LimitReport(True, pairs)


def gr_table_json(weighting: ConcaveWeighting) -> dict:
    return mul_table_json(weighting.alg, weighting.basis(),
                          lambda u, v: gr_mul(weighting, u, v))


def limit_table_json(weighting: ConcaveWeighting) -> dict:
    return mul_table_json(weighting.alg, weighting.basis(),
                          lambda u, v: limit_mul(weighting, u, v))


def subalgebra_table_json(alg: AlgebraContext, side: int) -> dict:
    """Plain product table restricted to a one-sided subalgebra basis."""
    return mul_table_json(alg, alg.grassmannian_basis(side), alg.mul_basis)
