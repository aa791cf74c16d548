"""Exact scalar arithmetic for rank-2 Schubert and stability computations.

Two ground fields are supported.

* Cyclotomic mode: Q(theta) with theta = 2*cos(2*pi/N).  For the dihedral
  group I2(n) the working field uses N = 4n, i.e. theta = 2*cos(pi/(2*n)).
  That one field houses t + 1/t = 2*cos(pi/n) = theta**2 - 2 (with
  t = exp(i*pi/n)), q + 1/q = theta (with q = t**(1/2)), and the cosine of
  every integer multiple of pi/(2*n).
* Hyperbolic mode: t is a positive rational, every scalar is rational, and
  theta denotes t + 1/t.

Elements are coefficient vectors over the power basis 1, theta, ...,
theta**(degree-1), reduced modulo the minimal polynomial of theta and
stored as integer numerators over one common positive denominator.  Signs
are decided exactly: zero by coefficient comparison, nonzero by a float
estimate whose proven rounding bound it clears, or else through interval
arithmetic at increasing precision.  ``approx`` gives an element's float
with that bound, and ``dot_sign`` signs a dot product in floats wherever
the bound of ``float_dot`` proves the sign, and exactly everywhere else
(a floating-point filter, as in Bronnimann, Burnikel & Pion,
"Interval arithmetic yields efficient dynamic filters for computational
geometry", Discrete Appl. Math. 2001).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm, ldexp, nan
from typing import Iterable, Sequence, Union

import mpmath

from .errors import InvalidParameterError, UnsupportedModeError, VerificationError

Rational = Union[int, Fraction]

_U = 2.0 ** -53  # unit roundoff of IEEE double precision


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_div_exact_int(num: Sequence[int], den: Sequence[int]) -> list[int]:
    # den must be monic and divide num exactly
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise ValueError("division not exact")
    return quot


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {1: (-1, 1)}


def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Integer coefficients of the N-th cyclotomic polynomial, low degree first."""
    if N < 1:
        raise InvalidParameterError("N must be positive")
    cached = _CYCLO_CACHE.get(N)
    if cached is not None:
        return cached
    # x^N - 1 divided by the product of Phi_d over proper divisors d of N
    num = [0] * (N + 1)
    num[0], num[N] = -1, 1
    for d in range(1, N):
        if N % d == 0:
            num = _poly_div_exact_int(num, cyclotomic_polynomial(d))
    result = tuple(num)
    _CYCLO_CACHE[N] = result
    return result


def _dickson(k: int) -> list[int]:
    # D_k with D_k(x + 1/x) = x^k + x^(-k): D_0 = 2, D_1 = y, D_{k+1} = y*D_k - D_{k-1}
    prev, cur = [2], [0, 1]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0] + cur
        for i, p in enumerate(prev):
            nxt[i] -= p
        prev, cur = cur, nxt
    return cur


def real_subfield_min_poly(N: int) -> tuple[int, ...]:
    """Minimal polynomial of 2*cos(2*pi/N) over Q, monic, low degree first.

    Obtained from the N-th cyclotomic polynomial Phi_N, which is palindromic
    of even degree 2d for N >= 3, by substituting x^k + x^(-k) = D_k(y).
    """
    if N < 3:
        raise InvalidParameterError("need N >= 3")
    phi = cyclotomic_polynomial(N)
    deg = len(phi) - 1
    if deg % 2 != 0:
        raise InvalidParameterError("cyclotomic degree not even")
    d = deg // 2
    out = [0] * (d + 1)
    out[0] = phi[d]
    for k in range(1, d + 1):
        if phi[d + k] != phi[d - k]:
            raise ValueError("cyclotomic polynomial not palindromic")
        for i, c in enumerate(_dickson(k)):
            out[i] += phi[d + k] * c
    if out[-1] != 1:
        raise ValueError("expected monic result")
    return tuple(out)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

class FieldDescriptor:
    """Immutable description of the ground field plus derived caches.

    Create through field_init (dihedral working field) or real_cyclotomic
    (plain real cyclotomic field, used for low-degree angle computations).
    """

    def __init__(self, mode: str, *, n: int | None = None, N: int | None = None,
                 t: Fraction | None = None, _token: object = None):
        if _token is not _DESCR_TOKEN:
            raise InvalidParameterError(
                "use field_init or real_cyclotomic to build descriptors")
        self.mode = mode
        self.n = n
        self.N = N
        self.t = t
        if mode == "cyclotomic":
            assert N is not None and N >= 3
            self.min_poly: tuple[Fraction, ...] = tuple(
                Fraction(c) for c in real_subfield_min_poly(N))
            self.degree = len(self.min_poly) - 1
            self._verify_root_interval()
        elif mode == "hyperbolic":
            assert t is not None and t > 0
            theta = t + 1 / t
            self.min_poly = (-theta, Fraction(1))
            self.degree = 1
        else:
            raise InvalidParameterError(f"unknown mode {mode!r}")
        self._pow_rows = self._reduction_rows()
        self.zero = self.from_rational(0)
        self.one = self.from_rational(1)
        if self.degree > 1:
            self.theta = _element(self, (0, 1) + (0,) * (self.degree - 2), 1)
        else:
            self.theta = FieldElement(self, (-self.min_poly[0],))
        self._theta_float = self._compute_theta_float()
        # a float evaluation of a degree-d polynomial at theta is off by at
        # most _float_rel * (its sum of absolute terms) + _float_eta, the
        # latter for underflow; see approx
        self._float_rel = 4 * (self.degree + 2) * _U
        self._float_eta = ldexp(1.0, self.degree - 1070)
        # _recurrence seeds of 2*cos(2*pi*k/N), [k]_t and [k]_q
        self._two_cos = [self.from_rational(2), self.theta]
        self._t_numbers = [self.zero, self.one]
        self._q_numbers = [self.zero, self.one]
        self._binom_cache: dict[tuple[int, int], FieldElement] = {}

    # -- construction checks ------------------------------------------------

    def _verify_root_interval(self) -> None:
        # the intended root 2*cos(2*pi/N) must lie in a 1e-9 window; Horner's
        # rule there cancels terms that grow exponentially with the degree,
        # so the working precision grows with the degree too
        with mpmath.workdps(40 + self.degree):
            target = 2 * mpmath.cos(2 * mpmath.pi / self.N)
            lo = self._eval_min_poly(target - mpmath.mpf("1e-9"))
            hi = self._eval_min_poly(target + mpmath.mpf("1e-9"))
        if not (lo * hi < 0):
            raise VerificationError(
                f"minimal polynomial has no sign change around 2cos(2pi/{self.N})")

    def _eval_min_poly(self, x):
        acc = 0
        for c in reversed(self.min_poly):
            acc = acc * x + mpmath.mpf(c.numerator) / c.denominator
        return acc

    def _reduction_rows(self) -> list[tuple[int, ...]]:
        # rows[e - degree] = coefficients of theta**e reduced, for e in
        # [degree, 2*degree-2]; only cyclotomic fields have degree > 1, and
        # their minimal polynomial is monic with integer coefficients
        d = self.degree
        rows: list[tuple[int, ...]] = []
        if d == 1:
            return rows
        low = [int(c) for c in self.min_poly[:d]]
        cur = [-c for c in low]
        rows.append(tuple(cur))
        for _ in range(d - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(d):
                    cur[i] -= top * low[i]
            rows.append(tuple(cur))
        return rows

    def _compute_theta_float(self) -> float:
        if self.mode == "hyperbolic":
            return float(self.t + 1 / self.t)
        with mpmath.workdps(30):
            return float(2 * mpmath.cos(2 * mpmath.pi / self.N))

    # -- element constructors -------------------------------------------------

    def element(self, coeffs: Iterable[Rational]) -> FieldElement:
        """The element with these coefficients (ints or Fractions)."""
        vec = tuple(coeffs)
        if len(vec) != self.degree:
            raise InvalidParameterError(
                f"expected {self.degree} coefficients, got {len(vec)}")
        return FieldElement(self, vec)

    def from_rational(self, value: Rational) -> FieldElement:
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _element(self, (value.numerator,) + (0,) * (self.degree - 1),
                        value.denominator)

    def two_cos(self, k: int) -> FieldElement:
        """The element 2*cos(2*pi*k/N) (cyclotomic mode only)."""
        if self.mode != "cyclotomic":
            raise UnsupportedModeError("angles exist only in cyclotomic mode")
        k = k % self.N
        # D_k(theta) with D defined by D_k(x + 1/x) = x^k + x^(-k)
        return _recurrence(self._two_cos, self.theta, min(k, self.N - k))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        if self.mode == "hyperbolic":
            return {"mode": "hyperbolic", "t": str(self.t)}
        doc = {"mode": "cyclotomic",
               "min_poly": [int(c) for c in self.min_poly]}
        if self.n is not None:
            doc["n"] = self.n
        else:
            doc["N"] = self.N
        return doc

    def __repr__(self) -> str:
        if self.mode == "hyperbolic":
            return f"FieldDescriptor(hyperbolic, t={self.t})"
        if self.n is not None:
            return f"FieldDescriptor(cyclotomic, n={self.n})"
        return f"FieldDescriptor(cyclotomic, N={self.N})"


_DESCR_TOKEN = object()
_DESCRIPTORS: dict[tuple, FieldDescriptor] = {}


def field_init(n: int | None = None, *, t: Rational | str | None = None) -> FieldDescriptor:
    """Build the working field for I2(n) (cyclotomic) or for rational t > 0.

    Exactly one of n and t must be given.  Cyclotomic mode requires n >= 2
    and uses theta = 2*cos(pi/(2*n)) of degree phi(4n)/2 over Q.  Hyperbolic
    mode accepts any positive rational t (t = 1 included; the group is then
    infinite dihedral), given as an int, a Fraction or a decimal string
    such as "0.1", and works with plain rationals.  A float or bool t
    raises InvalidParameterError.
    """
    if (n is None) == (t is None):
        raise InvalidParameterError("give exactly one of n, t")
    if n is not None:
        if not isinstance(n, int) or n < 2:
            raise InvalidParameterError("n must be an integer >= 2")
        key = ("dihedral", n)
        if key not in _DESCRIPTORS:
            _DESCRIPTORS[key] = FieldDescriptor(
                "cyclotomic", n=n, N=4 * n, _token=_DESCR_TOKEN)
        return _DESCRIPTORS[key]
    if isinstance(t, (float, bool)):
        # a float holds a binary value, not the rational that was meant
        raise InvalidParameterError(f"t must be an int, Fraction or decimal string, got {t!r}")
    try:
        tq = Fraction(t)
    except (TypeError, ValueError, OverflowError):  # 'abc', [1], Decimal('inf')
        tq = None
    if tq is None or tq <= 0:
        raise InvalidParameterError("t must be a positive rational")
    key = ("hyperbolic", tq)
    if key not in _DESCRIPTORS:
        _DESCRIPTORS[key] = FieldDescriptor(
            "hyperbolic", t=tq, _token=_DESCR_TOKEN)
    return _DESCRIPTORS[key]


def real_cyclotomic(N: int) -> FieldDescriptor:
    """The field Q(2*cos(2*pi/N)), N >= 3.  Carries angles but no t-structure."""
    if not isinstance(N, int) or N < 3:
        raise InvalidParameterError("N must be an integer >= 3")
    key = ("real", N)
    if key not in _DESCRIPTORS:
        _DESCRIPTORS[key] = FieldDescriptor(
            "cyclotomic", N=N, _token=_DESCR_TOKEN)
    return _DESCRIPTORS[key]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

_new = object.__new__


def _element(descr: FieldDescriptor, num: tuple[int, ...],
             den: int) -> FieldElement:
    # the element num/den for den > 0, with the common factor divided out
    g = gcd(den, *num)
    if g != 1:
        num = tuple([c // g for c in num])
        den //= g
    e = _new(FieldElement)
    e.descr = descr
    e.num = num
    e.den = den
    return e


class FieldElement:
    """The element sum(num[i] * theta**i) / den of descr's field.

    num holds degree integers and den is a positive integer with
    gcd(den, *num) == 1, so each element has exactly one representation
    and == and hash compare the stored integers.  The constructor takes
    rational coefficients (ints or Fractions); .coeffs returns them as
    Fractions.
    """

    __slots__ = ("descr", "num", "den")

    def __init__(self, descr: FieldDescriptor, coeffs: Sequence[Rational]):
        # over the lcm of lowest-terms denominators the numerators are
        # already coprime to it
        coeffs = tuple(coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        self.descr = descr
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.descr is not self.descr:
                raise InvalidParameterError("mixed field descriptors")
            return other
        if isinstance(other, (int, Fraction)):
            return self.descr.from_rational(other)
        return None

    def _plus(self, o: "FieldElement", s: int) -> "FieldElement":
        # self + s*o for s in (1, -1), over the lcm of the denominators
        da, db = self.den, o.den
        g = gcd(da, db)
        sa, sb = db // g, da // g * s
        return _element(self.descr, tuple(
            [a * sa + b * sb for a, b in zip(self.num, o.num)]), da * sa)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def __neg__(self):
        return _element(self.descr, tuple([-a for a in self.num]), self.den)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self.descr.zero
            p = other.numerator
            return _element(self.descr, tuple([a * p for a in self.num]),
                            self.den * other.denominator)
        o = self._coerce(other)
        descr = self.descr
        d = descr.degree
        if d == 1:
            return _element(descr, (self.num[0] * o.num[0],),
                            self.den * o.den)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(self.num):
            if ai:
                for j, bj in enumerate(o.num):
                    prod[i + j] += ai * bj
        return _element(descr, _reduced(descr, prod), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero")
            p, q = other.denominator, other.numerator
            if q < 0:
                p, q = -p, -q
            return _element(self.descr, tuple([a * p for a in self.num]),
                            self.den * q)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = self.descr.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        descr = self.descr
        d = descr.degree
        if d == 1:
            a = self.num[0]
            return _element(descr, (self.den if a > 0 else -self.den,), abs(a))
        # (num/den)**-1 = den * x, where column j of the integer matrix M is
        # num * theta**j and M x = e_0.  Fraction-free Gauss-Jordan (Bareiss)
        # divides exactly by the previous pivot and leaves M = piv * I with
        # the right-hand side piv * x.
        theta_d = descr._pow_rows[0]  # theta**degree, reduced
        cols = []
        v = list(self.num)
        for _ in range(d):
            cols.append(v)
            top = v[-1]
            v = [0] + v[:-1]
            if top:
                for i, r in enumerate(theta_d):
                    v[i] += top * r
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for k in range(d):
            if not rows[k][k]:
                p = next(i for i in range(k + 1, d) if rows[i][k])
                rows[k], rows[p] = rows[p], rows[k]
            rk = rows[k]
            pk = rk[k]
            for i, ri in enumerate(rows):
                if i != k:
                    f = ri[k]
                    rows[i] = [(pk * x - f * y) // prev for x, y in zip(ri, rk)]
            prev = pk
        den = self.den if prev > 0 else -self.den
        return _element(descr, tuple([den * r[d] for r in rows]), abs(prev))

    # -- predicates and conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise UnsupportedModeError("element is irrational")
        return Fraction(self.num[0], self.den)

    def sign(self) -> int:
        if self.is_zero():
            return 0
        # den > 0, so the sign is that of the numerator polynomial at theta
        num = self.num
        if self.descr.degree == 1:
            return 1 if num[0] > 0 else -1
        # float filter: approx's float f is within its proven bound r of
        # the element, so r < |f| < inf decides the sign (an element beyond
        # the float range gives (nan, inf) and falls through)
        f, r = approx(self)
        if r < abs(f) < inf:
            return 1 if f > 0 else -1
        prec = 64
        while prec <= 4096:
            iv = mpmath.iv
            old = iv.prec
            try:
                iv.prec = prec
                theta = 2 * iv.cos(2 * iv.pi / self.descr.N)
                acc = iv.mpf(0)
                for c in reversed(num):
                    acc = acc * theta + iv.mpf(c)
                if acc > 0:
                    return 1
                if acc < 0:
                    return -1
            finally:
                iv.prec = old
            prec *= 2
        raise ArithmeticError("sign undecided at maximum precision")

    def __bool__(self) -> bool:
        return any(self.num)

    def __float__(self) -> float:
        return approx(self)[0]

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.descr.from_rational(other)
        return (self.descr is other.descr and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        # rational elements compare equal to int and Fraction, so hash alike
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((id(self.descr), self.num, self.den))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot compare")
        if not any(o.num):
            return self.sign()
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __repr__(self) -> str:
        if self.is_rational():
            return f"FieldElement({self.as_fraction()})"
        return f"FieldElement{self.coeffs}"

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> list[str]:
        """Each coefficient num[i]/den in lowest terms, as "p" or "p/q"."""
        den = self.den
        out = []
        for c in self.num:
            g = gcd(c, den)
            out.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return out


def element_from_json(descr: FieldDescriptor, doc: Sequence[str]) -> FieldElement:
    """The element whose coefficients are the "p" or "p/q" strings of doc
    (p, q read with int, q > 0); anything else is InvalidParameterError."""
    if not isinstance(doc, (list, tuple)):
        raise InvalidParameterError("coefficients must be a list of strings")
    if len(doc) != descr.degree:
        raise InvalidParameterError(
            f"expected {descr.degree} coefficients, got {len(doc)}")
    nums, dens = [], []
    for s in doc:
        try:
            p, slash, q = s.partition("/")
            num, den = int(p), int(q) if slash else 1
        except (AttributeError, TypeError, ValueError):
            raise InvalidParameterError(
                f"coefficient {s!r} is not an integer p or p/q") from None
        if den <= 0:
            raise InvalidParameterError(
                f"coefficient {s!r} needs a positive denominator")
        nums.append(num)
        dens.append(den)
    den = lcm(*dens)
    return _element(descr, tuple([c * (den // q) for c, q in zip(nums, dens)]),
                    den)


def sign_of(e: FieldElement) -> int:
    """Exact sign (-1, 0, +1) of a field element under its real embedding."""
    return e.sign()


def approx(value) -> tuple[float, float]:
    """(f, r): a float f of a FieldElement, int or Fraction, and a bound
    r >= |f - value|.

    f sums c_i/den * theta~**i for i < d, the degree: each quotient c_i/den
    is rounded once (Python rounds an int quotient correctly, as
    float(Fraction) does), theta~ is theta rounded to a float from 30
    mpmath digits, and its powers come by repeated multiplication.  A term
    thus carries at most 3d - 2 roundings, so with u = 2**-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1)

        |f - value| <= gamma_{3d-2} * sum_i |c_i/den| * |theta|**i,
        gamma_k = k u / (1 - k u),

    and r = 4 (d + 2) u * mag, with mag the computed sum of the
    |c_i/den * theta~**i|, covers it with room for the rounding of mag, of r
    and of theta~ itself.  A quotient that underflows loses at most
    2**-1075, times |theta|**i < 2**i, which r's 2**(d - 1070) covers.  An
    int or Fraction is read as degree 1.  A value beyond the float range
    gives (nan, inf), which no filter trusts.
    """
    try:
        if value.__class__ is not FieldElement:
            f = float(value)  # TypeError for a type without a float
            return f, 12 * _U * abs(f) + ldexp(1.0, -1069)  # d = 1
        descr = value.descr
        th = descr._theta_float
        den = value.den
        val, mag, p = 0.0, 0.0, 1.0
        for c in value.num:
            t = c / den * p
            val += t
            mag += abs(t)
            p *= th
    except OverflowError:
        return nan, inf
    return val, descr._float_rel * mag + descr._float_eta


def approx_vector(values: Iterable) -> tuple[list[float], list[float]]:
    """(values, errors) of ``approx`` over a sequence: its float image."""
    pairs = [approx(v) for v in values]
    return [f for f, _ in pairs], [r for _, r in pairs]


def float_dot(xv: Sequence[float], xe: Sequence[float],
              yv: Sequence[float], ye: Sequence[float]) -> tuple[float, float]:
    """(s, r): s the float sum of xv[i] * yv[i], and a bound r >= |s - S|
    for S = sum X_i * Y_i over any X_i, Y_i with |X_i - xv[i]| <= xe[i]
    and |Y_i - yv[i]| <= ye[i].

    With k terms, u = 2**-53, x = xv, y = yv, dx = xe and dy = ye,

        |s - S| <= gamma_k * sum |x_i y_i|                 (summation)
                 + sum (|x_i| dy_i + dx_i |y_i| + dx_i dy_i)  (conversion)
                 + k * 2**-1075                           (underflow)

    by Higham section 3.1 for the float sum and, for the conversion,
    X Y - x y = x (Y - y) + (X - x) y + (X - x)(Y - y), whose last term is
    the cross term.  r is g * mag + (1 + g) * cross + (k + 1) * 2**-1070
    with g = 2 (k + 4) u, where mag and cross are the computed sums of
    nonnegative terms; the doubled g covers their rounding and r's own.  A
    non-finite input gives a non-finite s or r.
    """
    s = mag = cross = 0.0
    for x, dx, y, dy in zip(xv, xe, yv, ye):
        s += x * y
        x, y = abs(x), abs(y)
        mag += x * y
        cross += x * dy + dx * (y + dy)
    k = len(xv)
    g = 2 * (k + 4) * _U
    return s, g * mag + (1.0 + g) * cross + ldexp(k + 1, -1070)


def dot_sign(xs: Sequence, ys: Sequence, zero: FieldElement,
             x_image: tuple, y_image: tuple) -> int:
    """The sign of dot(xs, ys, zero), given the images (values, errors) of
    xs and ys under ``approx``.

    The sign is read off the float sum s of ``float_dot`` only where its
    bound r proves it, that is r < |s| < inf; otherwise, non-finite values
    included, the exact dot decides.
    """
    s, r = float_dot(*x_image, *y_image)
    if r < abs(s) < inf:
        return 1 if s > 0 else -1
    return dot(xs, ys, zero).sign()


def dot(xs: Iterable, ys: Iterable, zero: FieldElement) -> FieldElement:
    """sum(x * y for x, y in zip(xs, ys)) in zero's field, reduced once.

    Terms with a zero factor are skipped; int and Fraction factors are
    coerced.  Each product's integer convolution is scaled to one common
    denominator and summed unreduced, and only the sum is reduced modulo
    the minimal polynomial and normalized, where the object path does both
    for every product and every partial sum (lazy reduction, as in Aranha,
    Karabina, Longa, Gebotys & Lopez, "Faster explicit formulas for
    computing pairings over ordinary curves", EUROCRYPT 2011).  Elements
    have one representation, so the result equals the object path's.
    """
    descr = zero.descr
    nums, dens = [], []
    for x, y in zip(xs, ys):
        if x.__class__ is not FieldElement:
            x = _coerced(zero, x)
        if y.__class__ is not FieldElement:
            y = _coerced(zero, y)
        if x.descr is not descr or y.descr is not descr:
            raise InvalidParameterError("mixed field descriptors")
        a, b = x.num, y.num
        if any(a) and any(b):
            nums.append((a, b))
            dens.append(x.den * y.den)
    if not dens:
        return zero
    den = lcm(*dens)
    acc = [0] * (2 * descr.degree - 1)
    for (a, b), q in zip(nums, dens):
        s = den // q
        for i, ai in enumerate(a):
            if ai:
                ai *= s
                for j, bj in enumerate(b, i):
                    acc[j] += ai * bj
    return _element(descr, _reduced(descr, acc), den)


def _reduced(descr: FieldDescriptor, prod: list[int]) -> tuple[int, ...]:
    """A product's 2d-1 convolution coefficients reduced modulo the minimal
    polynomial to d coefficients in the power basis."""
    d = descr.degree
    out = prod[:d]
    for ce, row in zip(prod[d:], descr._pow_rows):
        if ce:
            for i, ri in enumerate(row):
                out[i] += ce * ri
    return tuple(out)


def _coerced(zero: FieldElement, value) -> FieldElement:
    out = zero._coerce(value)
    if out is None:
        raise TypeError(f"cannot multiply a field element by {value!r}")
    return out


# ---------------------------------------------------------------------------
# t-numbers, q-numbers, binomials
# ---------------------------------------------------------------------------

def _recurrence(seq: list, step: FieldElement, k: int) -> FieldElement:
    """seq[k], extending seq by x_{j+1} = step * x_j - x_{j-1} first: the
    Chebyshev-type recurrence behind two_cos, t_number and q_number."""
    while k >= len(seq):
        seq.append(step * seq[-1] - seq[-2])
    return seq[k]


def t_plus_t_inv(descr: FieldDescriptor) -> FieldElement:
    """t + 1/t: equals theta**2 - 2 in cyclotomic mode, theta in hyperbolic."""
    if descr.mode == "hyperbolic":
        return descr.theta
    if descr.n is None:
        raise UnsupportedModeError("descriptor has no t-structure")
    return descr.theta * descr.theta - 2


def t_power_sum(descr: FieldDescriptor, j: int) -> FieldElement:
    # t**j + t**(-j)
    if j == 0:
        return descr.from_rational(2)
    if descr.mode == "hyperbolic":
        tj = descr.t ** j
        return descr.from_rational(tj + 1 / tj)
    if descr.n is None:
        raise UnsupportedModeError("descriptor has no t-structure")
    # t = exp(i*pi/n), so t**j + t**(-j) = 2*cos(j*pi/n) = 2*cos(2*pi*(2j)/(4n))
    return descr.two_cos(2 * j)


def t_number(descr: FieldDescriptor, k: int) -> FieldElement:
    """The t-integer [k]_t = (t^k - t^-k)/(t - 1/t)."""
    if k < 0:
        raise InvalidParameterError("k must be nonnegative")
    if k < len(descr._t_numbers):  # a descriptor without t answers 0 and 1
        return descr._t_numbers[k]
    return _recurrence(descr._t_numbers, t_plus_t_inv(descr), k)


def t_factorial(descr: FieldDescriptor, k: int) -> FieldElement:
    if k < 0:
        raise InvalidParameterError("k must be nonnegative")
    out = descr.one
    for j in range(1, k + 1):
        out = out * t_number(descr, j)
    return out


_LAURENT_BINOM: dict[tuple[int, int], dict[int, int]] = {}


def _laurent_binomial(m: int, k: int) -> dict[int, int]:
    # Pascal recursion carried out in Z[t, 1/t]; exponent -> coefficient
    if k < 0 or k > m:
        return {}
    if k == 0 or k == m:
        return {0: 1}
    cached = _LAURENT_BINOM.get((m, k))
    if cached is None:
        cached = {}
        for e, c in _laurent_binomial(m - 1, k).items():
            cached[e + k] = cached.get(e + k, 0) + c
        for e, c in _laurent_binomial(m - 1, k - 1).items():
            cached[e + k - m] = cached.get(e + k - m, 0) + c
        cached = {e: c for e, c in cached.items() if c}
        _LAURENT_BINOM[(m, k)] = cached
    return cached


def t_binomial(descr: FieldDescriptor, m: int, k: int) -> FieldElement:
    """The t-binomial [m choose k]_t via the Pascal recursion, never division.

    The recursion runs in Z[t, 1/t]; the result is palindromic, so it
    collapses into the field through t**j + t**(-j).  This keeps the
    root-of-unity degenerations exact, e.g. [n choose k]_t = 0 for
    0 < k < n in cyclotomic mode.
    """
    if m < 0 or k < 0:
        raise InvalidParameterError("arguments must be nonnegative")
    key = (m, k)
    cached = descr._binom_cache.get(key)
    if cached is None:
        poly = _laurent_binomial(m, k)
        acc = descr.zero
        for e, c in poly.items():
            if poly.get(-e) != c:
                raise ArithmeticError("binomial not palindromic")
            if e > 0:
                acc = acc + t_power_sum(descr, e) * c
            elif e == 0:
                acc = acc + c
        cached = acc
        descr._binom_cache[key] = cached
    return cached


def q_number(descr: FieldDescriptor, k: int) -> FieldElement:
    """The q-integer [k]_q with q = t**(1/2), in cyclotomic mode.

    q + 1/q = theta, so the usual recurrence applies.  Hyperbolic mode
    raises UnsupportedModeError: even k needs sqrt(t), and q_number_squared
    covers what the weightings need.
    """
    if k < 0:
        raise InvalidParameterError("k must be nonnegative")
    if descr.n is None:
        raise UnsupportedModeError("descriptor has no t-structure")
    return _recurrence(descr._q_numbers, descr.theta, k)


def q_number_squared(descr: FieldDescriptor, k: int) -> FieldElement:
    """([k]_q)**2, exact in both modes.

    Hyperbolic mode uses ([k]_q)^2 = (t^k - 2 + t^-k)/(t - 2 + 1/t), which is
    rational for every k even though [k]_q itself may not be.
    """
    if k < 0:
        raise InvalidParameterError("k must be nonnegative")
    if descr.mode == "hyperbolic":
        if descr.t == 1:
            return descr.from_rational(k * k)
        tk = descr.t ** k
        num = tk - 2 + 1 / tk
        den = descr.t - 2 + 1 / descr.t
        return descr.from_rational(num / den)
    q = q_number(descr, k)
    return q * q
