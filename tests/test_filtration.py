"""Concave weightings, graded products, the deformation exponents, and the
collapse onto the pre-ring tables."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from dihedralcalc.algebra import AlgebraContext
from dihedralcalc.errors import (
    InvalidParameterError,
    UnsupportedModeError,
)
from dihedralcalc.field import field_init, sign_of
from dihedralcalc.filtration import (
    ConcaveWeighting,
    concavity_audit,
    full_weight,
    grass_degree,
    gr_mul,
    gr_product,
    gr_table_json,
    limit_mul,
    limit_table,
    limit_table_json,
    side_weight,
    subalgebra_table_json,
    _deformation_exponent,
)
from dihedralcalc.prering import Z2
from dihedralcalc.weyl import WeylElement


def alg(n):
    return AlgebraContext(field_init(n))


def w(length, side=None):
    return WeylElement(length, side)


# -- the weights themselves ----------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_weights_match_sine_ratios(n):
    # independent numeric model: [m]_q = sin(mQ)/sin(Q) at Q = pi/(2n)
    descr = field_init(n)
    Q = math.pi / (2 * n)

    def qnum(m):
        return math.sin(m * Q) / math.sin(Q)

    for x in range(0, n + 1):
        assert float(full_weight(descr, x)) == pytest.approx(qnum(x) ** 2)
    for x in range(0, n):
        expect = qnum(x) * qnum(x + 1) / qnum(2)
        assert float(side_weight(descr, x)) == pytest.approx(expect)


@pytest.mark.parametrize("n", range(2, 13))
def test_full_weight_splits_into_side_weights(n):
    descr = field_init(n)
    for x in range(1, n + 1):
        assert full_weight(descr, x) == \
            side_weight(descr, x) + side_weight(descr, x - 1)


def test_weight_domain():
    descr = field_init(3)
    with pytest.raises(InvalidParameterError):
        full_weight(descr, -1)
    with pytest.raises(InvalidParameterError):
        side_weight(descr, -2)


@pytest.mark.parametrize("n", range(2, 13))
def test_superadditivity_full(n):
    # G(x+y) >= G(x) + G(y) on 0..n, equality iff xy(n-x-y) = 0
    descr = field_init(n)
    for x in range(n + 1):
        for y in range(n + 1 - x):
            gap = full_weight(descr, x + y) - full_weight(descr, x) \
                - full_weight(descr, y)
            s = sign_of(gap)
            assert s >= 0
            assert (s == 0) == (x * y * (n - x - y) == 0)


@pytest.mark.parametrize("n", range(2, 13))
def test_superadditivity_side(n):
    # F(x+y) >= F(x) + F(y) on 0..n-1, equality iff xy(n-1-x-y) = 0
    descr = field_init(n)
    for x in range(n):
        for y in range(n - x):
            gap = side_weight(descr, x + y) - side_weight(descr, x) \
                - side_weight(descr, y)
            s = sign_of(gap)
            assert s >= 0
            assert (s == 0) == (x * y * (n - 1 - x - y) == 0)


@pytest.mark.parametrize("t", [Fraction(2), Fraction(5, 3), Fraction(1),
                               Fraction(7, 2)])
def test_superadditivity_hyperbolic(t):
    descr = field_init(t=t)
    for weight in (full_weight, side_weight):
        for x in range(9):
            for y in range(9 - x):
                gap = weight(descr, x + y) - weight(descr, x) \
                    - weight(descr, y)
                s = sign_of(gap)
                assert s >= 0
                assert (s == 0) == (x * y == 0)


# -- concavity audit -----------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_audit_full(n):
    a = alg(n)
    report = concavity_audit(ConcaveWeighting.full(a))
    assert report.ok
    assert report.pairs_checked == (2 * n) ** 2
    assert not report.violations and not report.misclassified
    for u, v, z in report.equalities:
        assert u.length == 0 or v.length == 0 or \
            u.length + v.length == z.length == n


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("i", [1, 2])
def test_audit_side(n, i):
    a = alg(n)
    report = concavity_audit(ConcaveWeighting.one_sided(a, i))
    assert report.ok
    assert report.pairs_checked == n * n
    for u, v, z in report.equalities:
        assert u.length == 0 or v.length == 0 or \
            u.length + v.length == z.length == n - 1


def test_audit_side_equalities_count():
    # n = 5: beyond unit pairs, the equality triples are the complementary
    # splits of the top one-sided degree 4: (1,3), (2,2), (3,1)
    report = concavity_audit(ConcaveWeighting.one_sided(alg(5), 1))
    tops = [(u, v) for u, v, z in report.equalities
            if u.length and v.length]
    assert sorted((u.length, v.length) for u, v in tops) == \
        [(1, 3), (2, 2), (3, 1)]


def test_audit_hyperbolic():
    a = AlgebraContext(field_init(t=Fraction(5, 2)), cap=10)
    report = concavity_audit(ConcaveWeighting.full(a))
    assert report.ok
    for u, v, z in report.equalities:
        assert u.length == 0 or v.length == 0


# -- graded products -----------------------------------------------------------

def test_gr_unit_factor_keeps_product():
    a = alg(4)
    weighting = ConcaveWeighting.full(a)
    for v in a.basis():
        assert gr_mul(weighting, w(0), v) == a.mul_basis(w(0), v)


def test_gr_drops_strict_terms():
    weighting = ConcaveWeighting.full(alg(4))
    assert gr_mul(weighting, w(1, 1), w(1, 1)) == {}
    assert gr_mul(weighting, w(1, 1), w(1, 2)) == {}


def test_gr_top_pairs_survive():
    a = alg(5)
    weighting = ConcaveWeighting.full(a)
    for k in range(1, 5):
        for su in (1, 2):
            u, v = w(k, su), w(5 - k, 3 - su)
            assert gr_mul(weighting, u, v) == {w(5): a.descr.one}


@pytest.mark.parametrize("n", range(2, 9))
def test_gr_associative_commutative(n):
    a = alg(n)
    weighting = ConcaveWeighting.full(a)
    basis = a.basis()
    for u, v in itertools.product(basis, repeat=2):
        assert gr_mul(weighting, u, v) == gr_mul(weighting, v, u)
    for u, v, x in itertools.product(basis, repeat=3):
        left = gr_product(weighting, gr_mul(weighting, u, v), {x: a.descr.one})
        right = gr_product(weighting, {u: a.descr.one}, gr_mul(weighting, v, x))
        assert a.equal(left, right)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("i", [1, 2])
def test_gr_side_associative(n, i):
    a = alg(n)
    weighting = ConcaveWeighting.one_sided(a, i)
    basis = a.grassmannian_basis(i)
    for u, v, x in itertools.product(basis, repeat=3):
        left = gr_product(weighting, gr_mul(weighting, u, v), {x: a.descr.one})
        right = gr_product(weighting, {u: a.descr.one}, gr_mul(weighting, v, x))
        assert a.equal(left, right)


# -- deformation exponents -----------------------------------------------------

def test_deform_exponent_signs():
    a = alg(5)
    weighting = ConcaveWeighting.full(a)
    for u, v in itertools.product(a.basis(), repeat=2):
        for z, c in a.mul_basis(u, v).items():
            s = sign_of(_deformation_exponent(weighting, u, v, z))
            degenerate = u.length == 0 or v.length == 0 or z.length == 5
            assert s == (0 if degenerate else 1)
            assert not c.is_zero()


WEIGHTINGS = {
    **{f"full-{n}": lambda n=n: ConcaveWeighting.full(alg(n))
       for n in range(2, 13)},
    **{f"side{i}-{n}": lambda n=n, i=i: ConcaveWeighting.one_sided(alg(n), i)
       for n in range(2, 13) for i in (1, 2)},
    "hyperbolic": lambda: ConcaveWeighting.full(
        AlgebraContext(field_init(t=Fraction(5, 2)), cap=10)),
}


@pytest.mark.parametrize("name", list(WEIGHTINGS))
def test_exponent_sign_matches_exponent(name):
    weighting = WEIGHTINGS[name]()
    basis = weighting.basis()
    assert set(weighting.values) == {u.length for u in basis}
    weight = full_weight if weighting.target == "full" else side_weight
    assert all(weighting.phi(u) == -weight(weighting.alg.descr, u.length)
               for u in basis)
    cap = weighting.alg.cap if weighting.alg.n_t is None else None
    for u, v in itertools.product(basis, repeat=2):
        if cap is not None and u.length + v.length > cap:
            continue
        for z in weighting.alg.mul_basis(u, v):
            assert weighting.exponent_sign(u, v, z) == \
                sign_of(_deformation_exponent(weighting, u, v, z))


# -- the collapse onto pre-rings -----------------------------------------------

def test_limit_values():
    a = alg(5)
    weighting = ConcaveWeighting.full(a)
    assert limit_mul(weighting, w(1, 1), w(4, 2)) == {w(5): Z2.one}
    assert limit_mul(weighting, w(1, 1), w(2, 1)) == {w(3, 1): Z2.inf}
    assert limit_mul(weighting, w(1, 1), w(2, 2)) == \
        {w(3, 1): Z2.inf, w(3, 2): Z2.inf}
    assert limit_mul(weighting, w(0), w(2, 1)) == {w(2, 1): Z2.one}
    assert limit_mul(weighting, w(3, 1), w(3, 2)) == {}


@pytest.mark.parametrize("n", range(2, 13))
def test_limit_matches_flag_prering(n):
    report = limit_table(ConcaveWeighting.full(alg(n)))
    assert report.ok, report.mismatch
    assert report.pairs_checked == (2 * n) ** 2


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("i", [1, 2])
def test_limit_matches_grassmannian_prering(n, i):
    report = limit_table(ConcaveWeighting.one_sided(alg(n), i))
    assert report.ok, report.mismatch
    assert report.pairs_checked == n * n


def test_grass_degree_relabeling():
    a = alg(6)
    # unit to unit, top one-sided class to the point class
    assert grass_degree(a, 1, w(0)) == 5
    assert grass_degree(a, 1, w(5, 1)) == 0
    assert grass_degree(a, 1, w(1, 1)) == 4
    assert grass_degree(a, 2, w(3, 2)) == 2


FINITE_ONLY = {
    "limit_table": lambda a: limit_table(ConcaveWeighting.full(a)),
    "table_json": lambda a: a.table_json(),
    "gr_table_json": lambda a: gr_table_json(ConcaveWeighting.full(a)),
    "limit_table_json": lambda a: limit_table_json(ConcaveWeighting.full(a)),
    "subalgebra_table_json": lambda a: subalgebra_table_json(a, 1),
}


@pytest.mark.parametrize("name", sorted(FINITE_ONLY))
def test_tables_require_finite_mode(name):
    a = AlgebraContext(field_init(t=Fraction(2)), cap=6)
    with pytest.raises(UnsupportedModeError):
        FINITE_ONLY[name](a)


# -- exports --------------------------------------------------------------------

def test_table_exports_deterministic():
    weighting = ConcaveWeighting.full(alg(3))
    one = json.dumps(gr_table_json(weighting), sort_keys=True)
    two = json.dumps(gr_table_json(weighting), sort_keys=True)
    assert one == two
    lim = limit_table_json(weighting)
    assert json.dumps(lim, sort_keys=True) == \
        json.dumps(limit_table_json(weighting), sort_keys=True)
    coeffs = {entry["coeff"] for row in lim["table"].values()
              for entry in row}
    assert coeffs <= {"0", "1", "inf"}
    assert lim["basis"] == gr_table_json(weighting)["basis"]


def test_side_table_export():
    weighting = ConcaveWeighting.one_sided(alg(4), 2)
    doc = limit_table_json(weighting)
    assert len(doc["basis"]) == 4
    assert doc["n"] == 4


def test_subalgebra_table_export():
    a = alg(4)
    doc = subalgebra_table_json(a, 1)
    assert len(doc["basis"]) == 4
    assert len(doc["table"]) == 16
    assert doc["basis"] != subalgebra_table_json(a, 2)["basis"]
    json.dumps(doc, sort_keys=True)
