import cmath
import math
import random
from fractions import Fraction

import mpmath

import pytest
from hypothesis import given, settings, strategies as st

from dihedralcalc import field
from dihedralcalc.errors import InvalidParameterError, UnsupportedModeError
from dihedralcalc.field import (
    approx,
    approx_vector,
    cyclotomic_polynomial,
    dot,
    dot_sign,
    element_from_json,
    field_init,
    float_dot,
    q_number,
    q_number_squared,
    real_cyclotomic,
    real_subfield_min_poly,
    sign_of,
    t_binomial,
    t_factorial,
    t_number,
    t_plus_t_inv,
)

# degree of Q(2cos(pi/2n)) over Q, i.e. phi(4n)/2
EXPECTED_DEGREE = {2: 2, 3: 2, 4: 4, 5: 4, 6: 4, 7: 6, 8: 8, 9: 6, 10: 8, 11: 10, 12: 8}


def poly_eval(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


# ---------------------------------------------------------------------------
# minimal polynomials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N,expected", [
    (1, (-1, 1)),
    (2, (1, 1)),
    (4, (1, 0, 1)),
    (8, (1, 0, 0, 0, 1)),
    (12, (1, 0, -1, 0, 1)),
    (9, (1, 0, 0, 1, 0, 0, 1)),
])
def test_cyclotomic_polynomial_known(N, expected):
    assert cyclotomic_polynomial(N) == expected


@pytest.mark.parametrize("n,expected", [
    (2, (-2, 0, 1)),
    (3, (-3, 0, 1)),
    (4, (2, 0, -4, 0, 1)),
    (5, (5, 0, -5, 0, 1)),
    (6, (1, 0, -4, 0, 1)),
])
def test_min_poly_frozen(n, expected):
    descr = field_init(n)
    assert tuple(int(c) for c in descr.min_poly) == expected


@pytest.mark.parametrize("n", range(2, 13))
def test_min_poly_root_and_degree(n):
    descr = field_init(n)
    assert descr.degree == EXPECTED_DEGREE[n]
    theta_hat = 2 * math.cos(math.pi / (2 * n))
    assert abs(poly_eval(descr.min_poly, theta_hat)) < 1e-9
    # theta itself evaluates to the intended root
    assert float(descr.theta) == pytest.approx(theta_hat, abs=1e-12)


@pytest.mark.parametrize("N", range(3, 30))
def test_real_cyclotomic_root(N):
    descr = real_cyclotomic(N)
    target = 2 * math.cos(2 * math.pi / N)
    assert abs(poly_eval(descr.min_poly, target)) < 1e-9
    assert tuple(int(c) for c in descr.min_poly) == real_subfield_min_poly(N)


@pytest.mark.parametrize("make,degree", [
    (lambda: field_init(101), 100),
    (lambda: real_cyclotomic(199), 99),
], ids=["field_init-101", "real_cyclotomic-199"])
def test_root_check_at_high_degree(make, degree):
    # near the root Horner's rule cancels terms that grow with the degree;
    # a fixed working precision lost the sign change at degree about 100
    descr = make()
    assert descr.degree == degree
    target = 2 * math.cos(2 * math.pi / descr.N)
    assert float(descr.theta) == pytest.approx(target, abs=1e-12)


def test_hyperbolic_descriptor():
    descr = field_init(t=2)
    assert descr.degree == 1
    assert descr.theta.as_fraction() == Fraction(5, 2)
    assert descr.n is None
    one = field_init(t=1)
    assert one.n is None
    assert one.theta.as_fraction() == 2


def test_field_init_validation():
    with pytest.raises(InvalidParameterError):
        field_init()
    with pytest.raises(InvalidParameterError):
        field_init(1)
    with pytest.raises(InvalidParameterError):
        field_init(3, t=2)
    with pytest.raises(InvalidParameterError):
        field_init(t=-1)
    with pytest.raises(InvalidParameterError):
        field_init(t=0)


@pytest.mark.parametrize("t", ["abc", math.nan, math.inf, [1]],
                         ids=["str", "nan", "inf", "list"])
def test_field_init_rejects_unreadable_t(t):
    # nan and inf are floats; Fraction raises ValueError or TypeError for the rest
    with pytest.raises(InvalidParameterError):
        field_init(t=t)


@pytest.mark.parametrize("t", [0.1, 2.0, True], ids=["0.1", "2.0", "bool"])
def test_field_init_rejects_float_and_bool_t(t):
    # field_init(t=0.1) would otherwise build the field at the float's
    # binary value, 3602879701896397/36028797018963968
    with pytest.raises(InvalidParameterError, match="t must be"):
        field_init(t=t)


@pytest.mark.parametrize("t,want", [(2, Fraction(2)), (Fraction(3, 2), Fraction(3, 2)),
                                    ("0.1", Fraction(1, 10)), ("5/2", Fraction(5, 2))])
def test_field_init_reads_exact_t(t, want):
    assert field_init(t=t).t == want


def test_descriptors_are_interned():
    assert field_init(3) is field_init(3)
    assert field_init(t=Fraction(1, 2)) is field_init(t=Fraction(1, 2))
    assert real_cyclotomic(8) is real_cyclotomic(8)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def small_fraction():
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


def elements_of(descr):
    return st.builds(
        descr.element,
        st.lists(small_fraction(), min_size=descr.degree, max_size=descr.degree))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([2, 3, 4, 5, 6]))
def test_ring_axioms(data, n):
    descr = field_init(n)
    a = data.draw(elements_of(descr))
    b = data.draw(elements_of(descr))
    c = data.draw(elements_of(descr))
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a - a == descr.zero
    assert a + descr.zero == a
    assert a * descr.one == a


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([2, 3, 4, 5]))
def test_division(data, n):
    descr = field_init(n)
    a = data.draw(elements_of(descr))
    b = data.draw(elements_of(descr))
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a
        assert b * b.inverse() == descr.one


# fields of degree 1, 2, 8 and 16 (field_init(n) has degree n for n = 2, 8,
# 16) and a hyperbolic field with rational theta
REFERENCE_FIELDS = {
    "N6": lambda: real_cyclotomic(6),
    "n2": lambda: field_init(2),
    "n8": lambda: field_init(8),
    "n16": lambda: field_init(16),
    "t3/2": lambda: field_init(t=Fraction(3, 2)),
}


def reference_mul(descr, a, b):
    # schoolbook product of Fraction vectors, reduced modulo the monic min_poly
    d = descr.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for e in range(2 * d - 2, d - 1, -1):
        c = prod[e]
        for i, m in enumerate(descr.min_poly):
            prod[e - d + i] -= c * m
    return tuple(prod[:d])


def assert_canonical(descr, e):
    assert len(e.num) == descr.degree
    assert all(isinstance(c, int) for c in e.num)
    assert isinstance(e.den, int) and e.den > 0
    assert math.gcd(e.den, *e.num) == 1


def wide_fraction():
    return st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                        max_denominator=10 ** 4)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", list(REFERENCE_FIELDS))
def test_integer_form_matches_fraction_reference(name, data):
    descr = REFERENCE_FIELDS[name]()
    d = descr.degree
    vec = st.lists(st.one_of(st.just(Fraction(0)), wide_fraction()),
                   min_size=d, max_size=d)
    ca, cb = data.draw(vec), data.draw(vec)
    a, b = descr.element(ca), descr.element(cb)
    assert a.coeffs == tuple(ca) and b.coeffs == tuple(cb)
    results = {
        "+": (a + b, tuple(x + y for x, y in zip(ca, cb))),
        "-": (a - b, tuple(x - y for x, y in zip(ca, cb))),
        "*": (a * b, reference_mul(descr, ca, cb)),
    }
    for op, (got, want) in results.items():
        assert_canonical(descr, got)
        assert got.coeffs == want, op
        if got.is_rational():
            assert hash(got) == hash(got.as_fraction()), op
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    else:
        inv, quot = b.inverse(), a / b
        assert_canonical(descr, inv)
        assert_canonical(descr, quot)
        one = (Fraction(1),) + (Fraction(0),) * (d - 1)
        assert reference_mul(descr, cb, inv.coeffs) == one
        assert reference_mul(descr, cb, quot.coeffs) == tuple(ca)
    # the same value reached along another route is stored identically
    k = data.draw(st.integers(min_value=2, max_value=10 ** 6))
    scaled = descr.element([c * k for c in ca]) / k
    assert_canonical(descr, scaled)
    assert scaled == a and hash(scaled) == hash(a)
    assert (a == b) == (tuple(ca) == tuple(cb))
    for e in (a, a * b):
        assert e.to_json() == [str(c) for c in e.coeffs]
        back = element_from_json(descr, e.to_json())
        assert back == e and back.to_json() == e.to_json()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", list(REFERENCE_FIELDS))
def test_json_matches_fraction_reference(name, data):
    # to_json writes str(Fraction) of each coefficient from the integer form,
    # and element_from_json reads zero, negative and non-reduced p/q back
    descr = REFERENCE_FIELDS[name]()
    d = descr.degree
    nums = data.draw(st.lists(
        st.one_of(st.just(0), st.integers(-10 ** 30, 10 ** 30)),
        min_size=d, max_size=d))
    den = data.draw(st.integers(min_value=1, max_value=10 ** 12))
    ref = [Fraction(c, den) for c in nums]
    e = descr.element(ref)
    assert e.to_json() == [str(c) for c in ref]
    assert element_from_json(descr, e.to_json()) == e
    k = data.draw(st.integers(min_value=1, max_value=10 ** 6))
    scaled = [f"{c * k}/{den * k}" for c in nums]
    back = element_from_json(descr, scaled)
    assert_canonical(descr, back)
    assert back == e and back.to_json() == e.to_json()


# degree 1, 2, 4, 8 and 16
DOT_FIELDS = [real_cyclotomic(6), field_init(2), field_init(4), field_init(8),
              field_init(16)]


def sparse_elements(descr):
    """Elements with zero coefficients and mixed denominators, zero included."""
    vec = st.lists(st.one_of(st.just(Fraction(0)), wide_fraction()),
                   min_size=descr.degree, max_size=descr.degree)
    return st.one_of(st.just(descr.zero), st.builds(descr.element, vec))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("descr", DOT_FIELDS, ids=lambda d: f"deg{d.degree}")
def test_dot_matches_object_path(descr, data):
    k = data.draw(st.integers(0, 6))
    pairs = st.tuples(sparse_elements(descr), sparse_elements(descr))
    terms = data.draw(st.lists(pairs, min_size=k, max_size=k))
    want = descr.zero
    for x, y in terms:
        want = want + x * y
    got = dot([x for x, _ in terms], (y for _, y in terms), descr.zero)
    assert got == want
    assert_canonical(descr, got)
    # int and Fraction factors are coerced like the object path coerces them
    scalars = [Fraction(i + 1, 3) for i in range(k)]
    mixed = want
    for c, (_, y) in zip(scalars, terms):
        mixed = mixed + y * c
    assert dot([x for x, _ in terms] + scalars, [y for _, y in terms] * 2,
               descr.zero) == mixed


def test_dot_edge_cases():
    descr = field_init(3)
    assert dot([], [], descr.zero) is descr.zero
    assert dot([descr.theta, 0], [descr.zero, descr.theta], descr.zero) \
        == descr.zero
    assert dot([descr.theta], [2], descr.zero) == descr.theta * 2
    with pytest.raises(InvalidParameterError):
        dot([field_init(5).theta], [descr.one], descr.zero)
    with pytest.raises(TypeError):
        dot([descr.one], ["x"], descr.zero)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("descr", DOT_FIELDS[:2] + DOT_FIELDS[3:4],
                         ids=lambda d: f"deg{d.degree}")
def test_comparisons_agree_with_sign_of_difference(descr, data):
    a = data.draw(sparse_elements(descr))
    b = data.draw(sparse_elements(descr))
    zero = descr.zero
    for x, y in ((a, b), (a, zero), (zero, a), (a, 0), (0, a),
                 (a, Fraction(0)), (zero, zero)):
        s = (x - y).sign()
        assert (x < y) == (s < 0)
        assert (x > y) == (s > 0)
        assert (x <= y) == (s <= 0)
        assert (x >= y) == (s >= 0)


def test_rational_elements_hash_like_numbers():
    descr = field_init(3)
    assert len({descr.one, 1}) == 1
    assert {1: "x"}.get(descr.one) == "x"
    assert {Fraction(1, 2): "h"}.get(descr.from_rational(Fraction(1, 2))) == "h"


def test_sign_beyond_float_range():
    # coefficients near 10**400 overflow float(); the interval path decides
    scale = 10 ** 400
    for n, square in ((2, 2), (3, 3)):  # theta = sqrt(2), sqrt(3)
        descr = field_init(n)
        low = Fraction(math.isqrt(square * scale * scale), scale)
        high = low + Fraction(1, scale)
        for e, want in ((descr.theta - low, 1), (descr.theta - high, -1),
                        (low - descr.theta, -1),
                        (descr.theta * scale - low * scale, 1),
                        (descr.theta * scale - (descr.theta * scale), 0)):
            if want:
                with pytest.raises(OverflowError):
                    float(max(e.num, key=abs))
            assert sign_of(e) == want
        assert low < descr.theta < high


def test_powers():
    descr = field_init(5)
    th = descr.theta
    assert th ** 0 == descr.one
    assert th ** 5 == th * th * th * th * th
    assert th ** -2 == (th * th).inverse()
    assert float(th ** -1) == pytest.approx(1 / float(th))


def test_float_and_numeric_agreement():
    descr = field_init(7)
    e = descr.theta ** 3 - 2 * descr.theta + Fraction(1, 3)
    th = 2 * math.cos(math.pi / 14)
    assert float(e) == pytest.approx(th ** 3 - 2 * th + 1 / 3, rel=1e-12)


# ---------------------------------------------------------------------------
# signs and comparisons
# ---------------------------------------------------------------------------

def test_sign_basic():
    descr = field_init(3)
    assert sign_of(descr.zero) == 0
    assert sign_of(descr.theta - 1) == 1      # sqrt(3) > 1
    descr5 = field_init(5)
    assert sign_of(descr5.theta ** 2 - 4) == -1


def test_sign_tight_rational_cuts():
    # sqrt(3) = 1.7320508075688772935...
    descr = field_init(3)
    below = Fraction(17320508075688772, 10 ** 16)
    above = Fraction(17320508075688773, 10 ** 16)
    assert descr.theta - below > 0
    assert descr.theta - above < 0
    assert descr.theta > below
    assert below < descr.theta < above


def test_sign_exact_zero_of_composite_expression():
    # theta**2 - 2 - 2cos(pi/n) vanishes identically
    for n in (2, 3, 4, 5, 6, 9):
        descr = field_init(n)
        lhs = descr.theta * descr.theta - 2
        assert sign_of(lhs - descr.two_cos(2)) == 0


def test_sign_matches_float_on_random_sample():
    rng = random.Random(20260815)
    descr = field_init(5)
    for _ in range(10_000):
        coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                  for _ in range(descr.degree)]
        e = descr.element(coeffs)
        f = float(e)
        if abs(f) > 1e-12:
            assert sign_of(e) == (1 if f > 0 else -1)
        else:
            assert sign_of(e) == 0 or abs(f) <= 1e-12


class _IntervalSpy:
    """Stands in for the mpmath module and counts uses of mpmath.iv."""

    def __init__(self):
        self.uses = 0

    def __getattr__(self, name):
        if name == "iv":
            self.uses += 1
        return getattr(mpmath, name)


def test_sign_margin_sends_near_ties_to_intervals(monkeypatch):
    # theta - p/q with p/q the nearest fractions to theta over q = 10**e:
    # the numerator polynomial q*theta - p lies in (-1, 1) while its terms
    # reach 2q, so the proven float margin cannot sign it and the interval
    # path must, at increasing precision
    spy = _IntervalSpy()
    monkeypatch.setattr(field, "mpmath", spy)
    for n in (2, 3, 4, 8):
        descr = field_init(n)
        with mpmath.workdps(120):
            theta = 2 * mpmath.cos(mpmath.pi / (2 * n))
            for e in (17, 30, 60, 90):
                q = 10 ** e
                p = int(mpmath.floor(theta * q))
                for num, want in ((p, 1), (p + 1, -1)):
                    tiny = descr.theta - Fraction(num, q)
                    uses = spy.uses
                    assert tiny.sign() == want
                    assert (-tiny).sign() == -want
                    assert spy.uses > uses
        # exact zeros are decided by their coefficients alone
        uses = spy.uses
        for zero in (descr.theta * descr.theta - 2 - descr.two_cos(2),
                     descr.theta * Fraction(10 ** 30, 7)
                     - descr.theta * Fraction(10 ** 30, 7)):
            assert zero.sign() == 0
        assert spy.uses == uses


def _value_at_theta(e):
    """e's value from 60 digits of theta, far inside approx's bound."""
    with mpmath.workdps(60):
        theta = 2 * mpmath.cos(2 * mpmath.pi / e.descr.N)
        return sum(mpmath.mpf(c) * theta ** i
                   for i, c in enumerate(e.num)) / e.den


# the small fields of the cone layer, 2cos(pi/n) for n = 3, 4, 5, 8
ROW_FIELDS = [real_cyclotomic(6), real_cyclotomic(8), real_cyclotomic(10),
              real_cyclotomic(16)]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("descr", ROW_FIELDS, ids=lambda d: f"N{d.N}")
def test_float_filter_signs_agree_with_exact(descr, data):
    # rows of half-cosines against vertices, with the last vertex entry moved
    # so the product is exactly delta: 0, within 2**-40..2**-60 of 0, or +-1
    k = data.draw(st.integers(1, 10))
    row = [descr.two_cos(j) * Fraction(1, 2)
           for j in data.draw(st.lists(st.integers(0, descr.N), min_size=k,
                                       max_size=k))]
    if not row[-1]:
        row[-1] = descr.one
    vertex = data.draw(st.lists(elements_of(descr), min_size=k, max_size=k))
    zero = descr.zero
    base = dot(row, vertex, zero)
    exponent = data.draw(st.integers(40, 60))
    for delta in (0, Fraction(1, 2 ** exponent), -Fraction(1, 2 ** exponent),
                  1, -1):
        moved = vertex[:-1] + [vertex[-1] + (delta - base) / row[-1]]
        exact = dot(row, moved, zero)
        assert exact == delta
        for v in row + moved:  # each image encloses the value
            f, r = approx(v)
            assert abs(mpmath.mpf(f) - _value_at_theta(v)) <= r
        row_image, moved_image = approx_vector(row), approx_vector(moved)
        s, r = float_dot(*row_image, *moved_image)
        decided = r < abs(s) < math.inf
        if decided:
            assert (1 if s > 0 else -1) == exact.sign()
        if delta == 0:
            assert not decided  # a valid bound never signs an exact zero
        elif delta in (1, -1):
            assert decided  # the float error here stays far below 1
        assert dot_sign(row, moved, zero, row_image, moved_image) \
            == exact.sign()


def test_float_filter_goes_exact_on_non_finite_values():
    descr = real_cyclotomic(8)
    huge = descr.theta * 10 ** 400
    assert approx(huge) == (approx(huge)[0], math.inf)
    assert math.isnan(approx(huge)[0])
    assert approx(Fraction(10 ** 400, 3))[1] == math.inf
    xs, ys = [huge, descr.one], [descr.one, -huge]
    assert dot_sign(xs, ys, descr.zero, approx_vector(xs),
                    approx_vector(ys)) == 0
    s, r = float_dot([1e308, 1e308], [0.0, 0.0], [10.0, 10.0], [0.0, 0.0])
    assert s == math.inf and not r < abs(s) < math.inf


def test_comparisons_order_two_cos_values():
    descr = field_init(6)
    values = [descr.two_cos(k) for k in range(0, 13)]
    for a, b in zip(values, values[1:]):
        assert a > b  # cos is strictly decreasing on [0, pi]


# ---------------------------------------------------------------------------
# two_cos
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [4, 6, 8, 10, 12, 24])
def test_two_cos_matches_cosine(N):
    descr = real_cyclotomic(N)
    for k in range(0, 2 * N + 1):
        expect = 2 * math.cos(2 * math.pi * k / N)
        assert float(descr.two_cos(k)) == pytest.approx(expect, abs=1e-12)


def test_two_cos_rejected_in_hyperbolic_mode():
    with pytest.raises(UnsupportedModeError):
        field_init(t=2).two_cos(1)


# ---------------------------------------------------------------------------
# t-numbers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_t_number_numeric_oracle(n):
    descr = field_init(n)
    s = math.sin(math.pi / n)
    for k in range(0, 2 * n + 1):
        expect = math.sin(k * math.pi / n) / s
        assert float(t_number(descr, k)) == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 13))
def test_t_number_root_of_unity_facts(n):
    descr = field_init(n)
    assert t_number(descr, 0).is_zero()
    assert t_number(descr, 1) == descr.one
    assert t_number(descr, n).is_zero()
    for k in range(1, n):
        assert sign_of(t_number(descr, k)) == 1
        # [n-k]_t = [k]_t since t^n = -1
        assert t_number(descr, n - k) == t_number(descr, k)


def test_t_number_hyperbolic():
    descr = field_init(t=2)
    # [k] = (2^k - 2^-k)/(2 - 1/2)
    for k in range(8):
        expect = (Fraction(2) ** k - Fraction(2) ** -k) / Fraction(3, 2)
        assert t_number(descr, k).as_fraction() == expect
    unit = field_init(t=1)
    for k in range(8):
        assert t_number(unit, k).as_fraction() == k


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_t_number_multiplication_rule(n):
    descr = field_init(n)
    for k in range(0, n + 1):
        for l in range(0, n + 1):
            lhs = t_number(descr, k) * t_number(descr, l)
            rhs = descr.zero
            for m in range(abs(k - l) + 1, k + l, 2):
                rhs = rhs + t_number(descr, m)
            assert lhs == rhs


def test_t_number_rejects_negative():
    with pytest.raises(InvalidParameterError):
        t_number(field_init(3), -1)


def test_t_number_without_t_structure():
    # the seeds answer k = 0 and 1; the step t + 1/t is asked for from k = 2
    k = real_cyclotomic(7)
    assert t_number(k, 0) == k.zero and t_number(k, 1) == k.one
    with pytest.raises(UnsupportedModeError):
        t_number(k, 2)


def test_angle_t_and_q_numbers_share_one_recurrence(monkeypatch):
    calls = []

    def counted(seq, step, k):
        calls.append(k)
        return recurrence(seq, step, k)

    recurrence = field._recurrence
    monkeypatch.setattr(field, "_recurrence", counted)
    descr = field_init(7)
    theta, tt = descr.theta, t_plus_t_inv(descr)
    # fresh seeds, since other tests may have extended the interned lists
    monkeypatch.setattr(descr, "_two_cos", [descr.from_rational(2), theta])
    monkeypatch.setattr(descr, "_t_numbers", [descr.zero, descr.one])
    monkeypatch.setattr(descr, "_q_numbers", [descr.zero, descr.one])
    assert descr.two_cos(3) == theta * theta * theta - 3 * theta
    assert q_number(descr, 3) == theta * theta - 1
    assert t_number(descr, 3) == tt * tt - 1
    assert calls == [3, 3, 3]
    assert len(descr._two_cos) == len(descr._t_numbers) == 4


# ---------------------------------------------------------------------------
# t-binomials
# ---------------------------------------------------------------------------

def binomial_oracle(n, m, k):
    # factorial-ratio formula at t = exp(i*pi/n); valid while m < n
    t = cmath.exp(1j * math.pi / n)

    def tnum(j):
        return (t ** j - t ** -j) / (t - 1 / t)

    def tfact(j):
        out = 1
        for i in range(1, j + 1):
            out *= tnum(i)
        return out

    return tfact(m) / (tfact(k) * tfact(m - k))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
def test_t_binomial_generic_oracle(n):
    descr = field_init(n)
    for m in range(n):
        for k in range(m + 1):
            expect = binomial_oracle(n, m, k)
            assert abs(expect.imag) < 1e-9
            assert float(t_binomial(descr, m, k)) == pytest.approx(
                expect.real, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 13))
def test_t_binomial_top_degree_vanishing(n):
    descr = field_init(n)
    for k in range(1, n):
        assert t_binomial(descr, n, k).is_zero()


@pytest.mark.parametrize("n", range(2, 13))
def test_t_binomial_row_n_minus_1_is_all_ones(n):
    descr = field_init(n)
    for k in range(0, n):
        assert t_binomial(descr, n - 1, k) == descr.one


def test_t_binomial_does_not_vanish_beyond_top_row():
    # Pascal-extended values above row n are generally nonzero
    descr = field_init(2)
    assert t_binomial(descr, 3, 1) == -1
    assert t_binomial(descr, 4, 2) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_t_binomial_symmetry_and_pascal(n):
    descr = field_init(n)
    tau = t_plus_t_inv(descr)
    for m in range(0, 2 * n + 1):
        for k in range(0, m + 1):
            assert t_binomial(descr, m, k) == t_binomial(descr, m, m - k)
    # Pascal in the [2]_t-multiplied symmetric form:
    # [2]_t * C(m-1, k)|shift identities are implicit; check the direct sum rule
    # C(m, k)*1 = t^k C(m-1,k) + t^(k-m) C(m-1,k-1) evaluated numerically
    t = cmath.exp(1j * math.pi / n)
    for m in range(1, 2 * n + 1):
        for k in range(1, m):
            lhs = float(t_binomial(descr, m, k))
            rhs = (t ** k * complex(float(t_binomial(descr, m - 1, k)))
                   + t ** (k - m) * complex(float(t_binomial(descr, m - 1, k - 1))))
            assert abs(lhs - rhs) < 1e-7


def test_t_binomial_matches_factorials_where_defined():
    descr = field_init(7)
    for m in range(7):
        for k in range(m + 1):
            lhs = t_binomial(descr, m, k) * t_factorial(descr, k) \
                * t_factorial(descr, m - k)
            assert lhs == t_factorial(descr, m)


def test_t_binomial_hyperbolic_is_classical_at_t_one():
    descr = field_init(t=1)
    assert t_binomial(descr, 6, 2).as_fraction() == 15
    assert t_binomial(descr, 5, 3).as_fraction() == 10


# ---------------------------------------------------------------------------
# q-numbers
# ---------------------------------------------------------------------------

def test_q_number_examples():
    descr = field_init(3)
    assert q_number(descr, 1) == descr.one
    assert q_number(descr, 2) == descr.theta
    assert q_number(descr, 3) == descr.theta * descr.theta - 1
    assert q_number(descr, 3) == 2  # theta^2 = 3 at n = 3


@pytest.mark.parametrize("n", range(2, 13))
def test_q_number_numeric_oracle(n):
    descr = field_init(n)
    s = math.sin(math.pi / (2 * n))
    for k in range(0, 4 * n + 1):
        expect = math.sin(k * math.pi / (2 * n)) / s
        assert float(q_number(descr, k)) == pytest.approx(expect, abs=1e-9)
    assert q_number(descr, 2 * n).is_zero()


@pytest.mark.parametrize("n", range(2, 13))
def test_q_even_equals_q2_times_t(n):
    descr = field_init(n)
    two_q = q_number(descr, 2)
    for m in range(0, n + 1):
        assert q_number(descr, 2 * m) == two_q * t_number(descr, m)


def hyperbolic_q_odd(t, k):
    # [2m+1]_q = sum of t**j for j in [-m, m]: odd q-integers lie in Q(t)
    return 1 + sum(t ** j + t ** -j for j in range(1, (k - 1) // 2 + 1))


def test_q_number_hyperbolic():
    descr = field_init(t=2)
    for k in (1, 2, 3):
        with pytest.raises(UnsupportedModeError):
            q_number(descr, k)


def test_q_number_squared():
    descr = field_init(t=2)
    assert q_number_squared(descr, 2).as_fraction() == Fraction(9, 2)
    assert hyperbolic_q_odd(Fraction(2), 5) == 1 + 2 + Fraction(1, 2) + 4 + Fraction(1, 4)
    for k in range(1, 7, 2):
        assert q_number_squared(descr, k).as_fraction() == \
            hyperbolic_q_odd(Fraction(2), k) ** 2
    unit = field_init(t=1)
    assert q_number_squared(unit, 5).as_fraction() == 25
    cyc = field_init(4)
    for k in range(9):
        assert q_number_squared(cyc, k) == q_number(cyc, k) * q_number(cyc, k)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialization_roundtrip():
    descr = field_init(5)
    e = descr.element([Fraction(1, 3), -2, 0, Fraction(7, 2)])
    doc = e.to_json()
    assert all(isinstance(s, str) for s in doc)
    assert element_from_json(descr, doc) == e


@pytest.mark.parametrize("doc", [
    ["1/0", "0"],  # zero denominator
    ["1/-2", "0"],  # negative denominator
    ["abc", "0"],  # not an integer
    ["1.5", "0"],  # decimals are not read
    ["1/", "0"],
    ["1/2/3", "0"],
    [1, "0"],  # not a string
    [None, "0"],
    ["1"],  # wrong count
    ["1", "0", "0"],
    "10",  # not a list
    None,
])
def test_element_from_json_rejects(doc):
    with pytest.raises(InvalidParameterError):
        element_from_json(field_init(2), doc)


@pytest.mark.parametrize("name", ["t3/2", "n2", "n8", "n16"])
def test_element_from_json_round_trips_integers_and_fractions(name):
    # degrees 1, 2, 8 and 16; integer documents take the direct path
    descr = REFERENCE_FIELDS[name]()
    rng = random.Random(name)
    for den in (1, 1, 6, 10 ** 20):
        nums = [rng.randint(-10 ** 24, 10 ** 24) for _ in range(descr.degree)]
        e = descr.element([Fraction(c, den) for c in nums])
        doc = e.to_json()
        back = element_from_json(descr, doc)
        assert_canonical(descr, back)
        assert back == e and back.to_json() == doc
    for e in (descr.zero, descr.one, -descr.one):
        assert element_from_json(descr, e.to_json()) == e


@pytest.mark.parametrize("doc", [
    [True, "0"],  # a bool is not a string
    ["", "0"],
    ["0x10", "0"],
    ["1e3", "0"],
])
def test_element_from_json_integer_guard_rejects_as_before(doc):
    with pytest.raises(InvalidParameterError,
                       match=r"^coefficient .* is not an integer p or p/q$"):
        element_from_json(field_init(2), doc)


def test_element_from_json_integer_strings_read_by_int():
    descr = field_init(2)
    assert element_from_json(descr, [" 7", "0"]) == 7
    assert element_from_json(descr, ["1_0", "0"]) == 10
    assert element_from_json(descr, ["-0", "+3"]) == descr.element([0, 3])
    assert element_from_json(descr, ["7", "1/2"]) == \
        descr.element([7, Fraction(1, 2)])


def test_descriptor_json():
    assert field_init(3).to_json() == {
        "mode": "cyclotomic", "n": 3, "min_poly": [-3, 0, 1]}
    assert field_init(t=2).to_json() == {"mode": "hyperbolic", "t": "2"}
    assert real_cyclotomic(8).to_json() == {
        "mode": "cyclotomic", "N": 8, "min_poly": [-2, 0, 1]}


def test_mixed_descriptor_arithmetic_rejected():
    with pytest.raises(InvalidParameterError):
        field_init(3).theta + field_init(4).theta
