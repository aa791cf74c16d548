"""Cross-checks for the rank-2 Kac-Moody cohomology tables.

The oracle is a Bernstein-Gelfand-Gelfand construction over Q: the Weyl
group acts on root coordinates by integer matrices, Schubert classes are
produced from a top-degree monomial by exact divided differences, and
structure constants are extracted by stripping products back down to
constants.  It shares no code with the implementation under test.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from dihedralcalc.algebra import bilinear
from dihedralcalc.chevalley import KacMoodyContext
from dihedralcalc.errors import (
    CapExceededError,
    InvalidParameterError,
    UnsupportedCartanError,
)
from dihedralcalc.weyl import WeylElement

FINITE_PAIRS = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3)]
ALL_PAIRS = FINITE_PAIRS + [(2, 2), (4, 1)]
ORDER_OF = {1: 3, 2: 4, 3: 6}

# ---------------------------------------------------------------------------
# polynomial oracle: dict[(e1, e2)] -> Fraction over root coordinates z1, z2

Poly = dict


def p_zero() -> Poly:
    return {}


def p_const(c) -> Poly:
    c = Fraction(c)
    return {(0, 0): c} if c else {}


def monomial(a: int, b: int) -> Poly:
    return {(a, b): Fraction(1)}


def p_add(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_scale(f: Poly, c) -> Poly:
    c = Fraction(c)
    return {m: v * c for m, v in f.items()} if c else {}


def p_sub(f: Poly, g: Poly) -> Poly:
    return p_add(f, p_scale(g, -1))


def p_mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            m = (a1 + a2, b1 + b2)
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def p_pow_linear(p: Poly, e: int) -> Poly:
    out = p_const(1)
    for _ in range(e):
        out = p_mul(out, p)
    return out


def act(f: Poly, mat) -> Poly:
    """(s.f)(z) = f(M z) for a 2x2 integer matrix M."""
    row1 = {(1, 0): Fraction(mat[0][0]), (0, 1): Fraction(mat[0][1])}
    row2 = {(1, 0): Fraction(mat[1][0]), (0, 1): Fraction(mat[1][1])}
    row1 = {m: c for m, c in row1.items() if c}
    row2 = {m: c for m, c in row2.items() if c}
    out: Poly = {}
    for (a, b), c in f.items():
        out = p_add(out, p_scale(p_mul(p_pow_linear(row1, a),
                                       p_pow_linear(row2, b)), c))
    return out


def reflection_matrix(i: int, a12: int, a21: int):
    # columns are the images of alpha_1, alpha_2
    if i == 1:
        return ((-1, a12), (0, 1))
    return ((1, 0), (a21, -1))


def linear_form(i: int, a12: int, a21: int) -> Poly:
    # vanishes on the reflection hyperplane of s_i, pairs to 2 with alpha_i
    if i == 1:
        return {(1, 0): Fraction(2), (0, 1): Fraction(-a12)}
    return {(1, 0): Fraction(-a21), (0, 1): Fraction(2)}


def divided_difference(f: Poly, i: int, a12: int, a21: int) -> Poly:
    g = p_sub(f, act(f, reflection_matrix(i, a12, a21)))
    ell = linear_form(i, a12, a21)
    lead = ell[(1, 0)]
    quotient: Poly = {}
    work = dict(g)
    while work:
        e1 = max(m[0] for m in work)
        if e1 == 0:
            assert all(c == 0 for c in work.values()), "not divisible"
            break
        for (a, b) in sorted(m for m in work if m[0] == e1):
            c = work.pop((a, b), Fraction(0))
            if not c:
                continue
            qm = (a - 1, b)
            qc = c / lead
            quotient[qm] = quotient.get(qm, Fraction(0)) + qc
            work = p_sub(work, p_scale(p_mul({qm: Fraction(1)}, ell), qc))
            work.pop((a, b), None)
    return {m: c for m, c in quotient.items() if c}


def word_for(length: int, side: int) -> list[int]:
    """Reduced word (left to right) of the element ending in s_side."""
    return [side if (length - p) % 2 == 0 else 3 - side
            for p in range(1, length + 1)]


def strip_constant(f: Poly, letters: list[int], a12: int, a21: int) -> Fraction:
    for i in reversed(letters):
        f = divided_difference(f, i, a12, a21)
    assert all(m == (0, 0) for m in f), "degree mismatch"
    return f.get((0, 0), Fraction(0))


def oracle_labels(n: int):
    labels = [(0, None)]
    for d in range(1, n):
        labels += [(d, 1), (d, 2)]
    labels.append((n, None))
    return labels


def schubert_classes(a12: int, a21: int, n: int) -> dict:
    top = None
    for a in range(n + 1):
        cand = monomial(a, n - a)
        c = strip_constant(dict(cand), word_for(n, 1), a12, a21)
        if c:
            top = p_scale(cand, Fraction(1) / c)
            break
    assert top is not None
    classes = {(n, None): top, (0, None): p_const(1)}
    for d in range(1, n):
        for side in (1, 2):
            start = side if (n - d) % 2 == 0 else 3 - side
            word = word_for(n, start)
            f = dict(top)
            for p in range(n, d, -1):
                f = divided_difference(f, word[p - 1], a12, a21)
            classes[(d, side)] = f
    return classes


def expand_in_basis(f: Poly, degree: int, n: int, a12: int, a21: int) -> dict:
    if degree > n:
        return {}
    out = {}
    sides = (None,) if degree in (0, n) else (1, 2)
    for side in sides:
        letters = word_for(degree, side if side is not None else 1)
        c = strip_constant(dict(f), letters, a12, a21)
        if c:
            out[(degree, side)] = c
    return out


# ---------------------------------------------------------------------------
# oracle self-tests


@pytest.mark.parametrize("a12,a21", FINITE_PAIRS)
def test_bgg_basis_is_biorthogonal_to_stripping(a12, a21):
    n = ORDER_OF[a12 * a21]
    classes = schubert_classes(a12, a21, n)
    for (d, side), f in classes.items():
        got = expand_in_basis(f, d, n, a12, a21)
        assert got == {(d, side): Fraction(1)}


@pytest.mark.parametrize("a12,a21", FINITE_PAIRS)
def test_bgg_degree_one_classes_are_coordinates(a12, a21):
    n = ORDER_OF[a12 * a21]
    classes = schubert_classes(a12, a21, n)
    assert classes[(1, 1)] == {(1, 0): Fraction(1)}
    assert classes[(1, 2)] == {(0, 1): Fraction(1)}


def test_divided_difference_examples():
    # d_1(z1^2) = a12 z2 picks up the off-diagonal Cartan entry
    got = divided_difference(monomial(2, 0), 1, 2, 1)
    assert got == {(0, 1): Fraction(2)}
    assert divided_difference(monomial(1, 0), 2, 2, 1) == {}


# ---------------------------------------------------------------------------
# full multiplication tables against the oracle


@pytest.mark.parametrize("a12,a21", FINITE_PAIRS)
def test_products_match_flag_variety_oracle(a12, a21):
    n = ORDER_OF[a12 * a21]
    kms = KacMoodyContext(a12, a21)
    classes = schubert_classes(a12, a21, n)
    labels = oracle_labels(n)
    for lu in labels:
        for lv in labels:
            u = kms.group.element(*lu)
            v = kms.group.element(*lv)
            got = kms.mul_basis(u, v)
            want = expand_in_basis(p_mul(classes[lu], classes[lv]),
                                   lu[0] + lv[0], n, a12, a21)
            want_elems = {kms.group.element(*lbl): c
                          for lbl, c in want.items()}
            assert set(got) == set(want_elems), (lu, lv)
            for w, c in want_elems.items():
                assert got[w] == kms.descr.from_rational(c), (lu, lv, w)


@pytest.mark.parametrize("a12,a21", ALL_PAIRS)
def test_quadratic_relation(a12, a21):
    kms = KacMoodyContext(a12, a21)
    x1 = kms.algebra.sigma(WeylElement(1, 1))
    x2 = kms.algebra.sigma(WeylElement(1, 2))
    lhs = {}
    for w, c in bilinear(kms.mul_basis, x1, x1).items():
        lhs[w] = c * a21
    for w, c in bilinear(kms.mul_basis, x2, x2).items():
        lhs[w] = lhs.get(w, kms.descr.zero) + c * a12
    rhs = {w: c * (a12 * a21)
           for w, c in bilinear(kms.mul_basis, x1, x2).items()}
    lhs = {w: c for w, c in lhs.items() if not c.is_zero()}
    assert kms.algebra.equal(lhs, rhs)


def test_degree_one_product_splits_into_both_chains():
    kms = KacMoodyContext(1, 1)
    got = bilinear(kms.mul_basis, kms.algebra.sigma(WeylElement(1, 1)),
                   kms.algebra.sigma(WeylElement(1, 2)))
    assert got == {WeylElement(2, 1): kms.descr.one,
                   WeylElement(2, 2): kms.descr.one}


@pytest.mark.parametrize("a12,a21", FINITE_PAIRS)
def test_generator_power_vanishes_at_group_order(a12, a21):
    n = ORDER_OF[a12 * a21]
    kms = KacMoodyContext(a12, a21)
    for i in (1, 2):
        acc = kms.algebra.sigma(WeylElement(0, None))
        for _ in range(n):
            acc = kms.mul_by_generator(acc, i)
        assert acc == {}


@pytest.mark.parametrize("a12,a21", FINITE_PAIRS)
def test_top_degree_pairing(a12, a21):
    n = ORDER_OF[a12 * a21]
    kms = KacMoodyContext(a12, a21)
    top = kms.group.longest
    for i in (1, 2):
        opposite = kms.group.element(n - 1, 3 - i)
        same = kms.group.element(n - 1, i)
        assert kms.mul_basis(opposite, WeylElement(1, i)) == \
            {top: kms.descr.one}
        assert kms.mul_basis(same, WeylElement(1, i)) == {}
        assert kms.mul_basis(top, WeylElement(1, i)) == {}


@pytest.mark.parametrize("a12,a21", ALL_PAIRS)
def test_generator_powers_match_declared_scale(a12, a21):
    kms = KacMoodyContext(a12, a21)
    n = kms.group.n
    top_len = n if n is not None else 6
    for i in (1, 2):
        acc = kms.algebra.sigma(WeylElement(0, None))
        for k in range(1, top_len):
            acc = kms.mul_by_generator(acc, i)
            w = WeylElement(k, i)
            scale = kms.generator_power_scale(w)
            assert acc == {w: scale}


@pytest.mark.parametrize("a12,a21", ALL_PAIRS)
def test_mul_is_commutative(a12, a21):
    kms = KacMoodyContext(a12, a21, cap=8)
    limit = kms.group.n if kms.group.n is not None else 4
    basis = list(kms.group.elements(limit))
    for u in basis:
        for v in basis:
            if kms.group.n is None and u.length + v.length > kms.cap:
                continue
            assert kms.algebra.equal(kms.mul_basis(u, v), kms.mul_basis(v, u))


@pytest.mark.parametrize("a12,a21", [(2, 1), (3, 1), (2, 2)])
def test_mul_is_associative(a12, a21):
    kms = KacMoodyContext(a12, a21, cap=9)
    limit = kms.group.n if kms.group.n is not None else 3
    basis = [kms.algebra.sigma(w) for w in kms.group.elements(limit)]
    for x in basis:
        for y in basis:
            for z in basis:
                try:
                    lhs = bilinear(kms.mul_basis,
                                   bilinear(kms.mul_basis, x, y), z)
                    rhs = bilinear(kms.mul_basis,
                                   x, bilinear(kms.mul_basis, y, z))
                except CapExceededError:
                    continue
                assert kms.algebra.equal(lhs, rhs)


# ---------------------------------------------------------------------------
# field selection, scalings, and the comparison isomorphism


def test_ratio_values_are_exact_square_roots():
    kms = KacMoodyContext(2, 1)
    assert kms.ratio[1] * kms.ratio[1] == 2
    assert kms.ratio[1] * kms.ratio[2] == 1
    kms = KacMoodyContext(3, 1)
    assert kms.ratio[1] * kms.ratio[1] == 3
    kms = KacMoodyContext(2, 2)
    assert kms.ratio[1] == 1


def test_field_selection_by_cartan_product():
    assert KacMoodyContext(1, 1).group.n == 3
    assert KacMoodyContext(2, 1).group.n == 4
    assert KacMoodyContext(1, 3).group.n == 6
    assert KacMoodyContext(2, 2).group.n is None
    assert KacMoodyContext(4, 1).group.n is None


def test_default_scaling_squares():
    c1, c2 = KacMoodyContext(2, 1).default_scaling()
    assert c1 * c1 == 2 and c2 == 1
    c1, c2 = KacMoodyContext(1, 1).default_scaling()
    assert c1 == 1 and c2 == 1
    c1, c2 = KacMoodyContext(2, 2).default_scaling()
    assert c1 == 1 and c2 == 1
    c1, c2 = KacMoodyContext(4, 1).default_scaling()
    assert c1 == 2 and c2 == 1


@pytest.mark.parametrize("a12,a21", [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3)])
def test_iso_check_accepts_default_scaling_finite(a12, a21):
    kms = KacMoodyContext(a12, a21)
    report = kms.iso_check(*kms.default_scaling())
    assert report.ok, report.counterexample
    assert report.pairs_checked >= (2 * kms.group.n) ** 2


def test_iso_check_accepts_hyperbolic_pair():
    kms = KacMoodyContext(2, 2, cap=8)
    report = kms.iso_check(1, 1)
    assert report.ok, report.counterexample


def test_iso_check_rejects_wrong_ratio():
    kms = KacMoodyContext(2, 1)
    with pytest.raises(UnsupportedCartanError):
        kms.iso_check(1, 1)
    with pytest.raises(UnsupportedCartanError):
        kms.iso_check(0, 1)


def test_unsupported_cartan_products_are_rejected():
    for a12, a21 in [(5, 1), (1, 5), (2, 3), (3, 2), (1, 6), (7, 3)]:
        with pytest.raises(UnsupportedCartanError):
            KacMoodyContext(a12, a21)


def test_invalid_cartan_entries_are_rejected():
    for a12, a21 in [(0, 1), (1, 0), (-1, 2), (1, -4)]:
        with pytest.raises(InvalidParameterError):
            KacMoodyContext(a12, a21)


def test_hyperbolic_cap_is_enforced():
    kms = KacMoodyContext(2, 2, cap=4)
    u = WeylElement(3, 1)
    v = WeylElement(2, 2)
    with pytest.raises(CapExceededError):
        kms.mul_basis(u, v)


def test_weyl_action_on_degree_one_is_an_involution():
    for a12, a21 in ALL_PAIRS:
        kms = KacMoodyContext(a12, a21)
        for i in (1, 2):
            for j in (1, 2):
                x = kms.algebra.sigma(WeylElement(1, j))
                twice = kms.weyl_action_gen_degree_one(
                    i, kms.weyl_action_gen_degree_one(i, x))
                assert kms.algebra.equal(twice, x)
