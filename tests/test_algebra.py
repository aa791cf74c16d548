import cmath
import json
import math
from fractions import Fraction

import pytest

from dihedralcalc.algebra import AlgebraContext
from dihedralcalc.errors import CapExceededError
from dihedralcalc.field import field_init, sign_of, t_factorial, t_number
from dihedralcalc.weyl import WeylElement


def ctx(n=None, t=None, cap=16):
    return AlgebraContext(field_init(n, t=t) if t is None else field_init(t=t),
                          cap=cap)


def product_chain(context, ws):
    """sigma(w_1) * ... * sigma(w_k), multiplied left to right."""
    acc = context.unit()
    for w in ws:
        acc = context.mul(acc, context.sigma(w))
    return acc


def nonzero_lengths(context):
    n = context.group.n
    return range(1, n) if n is not None else range(1, 6)


# ---------------------------------------------------------------------------
# pinned product rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_s1_times_s2_is_two_terms(n):
    context = ctx(n)
    prod = context.mul_basis(WeylElement(1, 1), WeylElement(1, 2))
    assert prod == {WeylElement(2, 1): context.descr.one,
                    WeylElement(2, 2): context.descr.one}


def test_s1_times_s2_at_n2_hits_top():
    context = ctx(2)
    prod = context.mul_basis(WeylElement(1, 1), WeylElement(1, 2))
    assert prod == {WeylElement(2, None): context.descr.one}


@pytest.mark.parametrize("n", range(2, 9))
def test_vanishing_past_top_degree(n):
    context = ctx(n)
    basis = context.basis()
    for u in basis:
        for v in basis:
            if u.length + v.length > n:
                assert context.mul_basis(u, v) == {}


def test_pinned_small_products():
    c3 = ctx(3)
    assert c3.mul_basis(WeylElement(1, 1), WeylElement(1, 1)) == {
        WeylElement(2, 1): c3.descr.one}  # [2]_t = 1 at n = 3
    c4 = ctx(4)
    assert c4.mul_basis(WeylElement(2, 1), WeylElement(1, 1)) == {
        WeylElement(3, 1): c4.descr.one}  # [3]_t = 1 at n = 4
    # generic same-side coefficient is the full binomial
    c5 = ctx(5)
    prod = c5.mul_basis(WeylElement(2, 2), WeylElement(1, 2))
    assert prod == {WeylElement(3, 2): t_number(c5.descr, 3)}


@pytest.mark.parametrize("n", range(2, 9))
def test_grading(n):
    context = ctx(n)
    basis = context.basis()
    for u in basis:
        for v in basis:
            for w in context.mul_basis(u, v):
                assert w.length == u.length + v.length


# ---------------------------------------------------------------------------
# ring laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_associative_commutative_exhaustive(n):
    context = ctx(n)
    basis = context.basis()
    sig = {w: context.sigma(w) for w in basis}
    for u in basis:
        for v in basis:
            assert context.mul(sig[u], sig[v]) == context.mul(sig[v], sig[u])
    for u in basis:
        for v in basis:
            uv = context.mul(sig[u], sig[v])
            for w in basis:
                vw = context.mul(sig[v], sig[w])
                assert context.mul(uv, sig[w]) == context.mul(sig[u], vw)


def test_associative_commutative_hyperbolic():
    context = ctx(t=2, cap=12)
    basis = [w for w in context.basis() if w.length <= 4]
    sig = {w: context.sigma(w) for w in basis}
    for u in basis:
        for v in basis:
            assert context.mul(sig[u], sig[v]) == context.mul(sig[v], sig[u])
            uv = context.mul(sig[u], sig[v])
            for w in basis:
                assert context.mul(uv, sig[w]) == \
                    context.mul(sig[u], context.mul(sig[v], sig[w]))


@pytest.mark.parametrize("n", range(2, 9))
def test_structure_constant_positivity(n):
    context = ctx(n)
    basis = context.basis()
    for u in basis:
        for v in basis:
            for coeff in context.mul_basis(u, v).values():
                assert sign_of(coeff) == 1


def test_structure_constant_positivity_hyperbolic():
    context = ctx(t=Fraction(3, 2), cap=10)
    basis = [w for w in context.basis() if w.length <= 5]
    for u in basis:
        for v in basis:
            for coeff in context.mul_basis(u, v).values():
                assert sign_of(coeff) == 1


# ---------------------------------------------------------------------------
# divided powers, coinvariant relations, duality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 10))
def test_divided_power_ladder(n):
    context = ctx(n)
    descr = context.descr
    for i in (1, 2):
        s = context.sigma(WeylElement(1, i))
        for k in range(1, n):
            powk = context.power(s, k)
            expect = context.scale(t_factorial(descr, k),
                                   context.sigma(WeylElement(k, i)))
            assert powk == expect
        assert context.power(s, n) == {}  # sigma_i^n = 0


@pytest.mark.parametrize("n", range(2, 10))
def test_top_degree_pairing(n):
    context = ctx(n)
    one = context.descr.one
    for k in range(1, n):
        u1, u2 = WeylElement(k, 1), WeylElement(k, 2)
        v1, v2 = WeylElement(n - k, 1), WeylElement(n - k, 2)
        assert context.mul_basis(u1, v1) == {}
        assert context.mul_basis(u2, v2) == {}
        assert context.mul_basis(u1, v2) == {context.group.longest: one}
        assert context.mul_basis(u2, v1) == {context.group.longest: one}


@pytest.mark.parametrize("n", range(2, 10))
def test_poincare_pairing_is_dual_basis(n):
    context = ctx(n)
    group = context.group
    w0 = group.longest
    for u in context.basis():
        dual = group.pd(u)
        for v in context.basis():
            if v.length != n - u.length:
                continue
            coeff = context.mul_basis(u, v).get(w0, context.descr.zero)
            assert (coeff == context.descr.one) == (v == dual)
            if v != dual:
                assert coeff.is_zero()


@pytest.mark.parametrize("kwargs", [
    {"n": 2}, {"n": 3}, {"n": 5}, {"n": 8}, {"t": 2}, {"t": Fraction(1, 3)},
])
def test_quadratic_coinvariant_relation(kwargs):
    context = ctx(**kwargs)
    s1 = context.sigma(WeylElement(1, 1))
    s2 = context.sigma(WeylElement(1, 2))
    lhs = context.scale(t_number(context.descr, 2), context.mul(s1, s2))
    rhs = context.add(context.mul(s1, s1), context.mul(s2, s2))
    assert lhs == rhs


@pytest.mark.parametrize("n", [3, 4])
def test_mixed_triples_reach_top_class(n):
    # triples of generators with total length n and both sides present
    # multiply to exactly the top class
    context = ctx(n)
    gens = [WeylElement(1, 1), WeylElement(1, 2)]
    if n == 3:
        triples = [(a, b, c) for a in gens for b in gens for c in gens
                   if {g.side for g in (a, b, c)} == {1, 2}]
    else:
        triples = []
        for a in gens:
            for b in gens:
                for c in gens:
                    for d in gens:
                        tup = (a, b, c, d)
                        if {g.side for g in tup} == {1, 2}:
                            triples.append(tup)
    for tup in triples:
        prod = product_chain(context, tup)
        top = prod.get(context.group.longest, context.descr.zero)
        assert not top.is_zero()


# ---------------------------------------------------------------------------
# evaluation-model oracle: A_t embeds in functions on the two lines x = t*y
# and x = y/t, sending sigma_{(k,1)} to (t^k, t^-k) y^k/[k]! and
# sigma_{(k,2)} to (1, 1) y^k/[k]!.  Products are componentwise there.
# ---------------------------------------------------------------------------

def crt_pair(t, w, fact):
    k = w.length
    if w.side == 1:
        return (t ** k / fact(k), t ** -k / fact(k))
    return (1 / fact(k) if k else 1, 1 / fact(k) if k else 1)


def crt_product_coeffs(t, u, v, fact):
    # expand the componentwise product back into the degree-m basis
    m = u.length + v.length
    pu, pv = crt_pair(t, u, fact), crt_pair(t, v, fact)
    prod = (pu[0] * pv[0], pu[1] * pv[1])
    b1 = (t ** m / fact(m), t ** -m / fact(m))
    b2 = (1 / fact(m), 1 / fact(m))
    det = b1[0] * b2[1] - b1[1] * b2[0]
    c1 = (prod[0] * b2[1] - prod[1] * b2[0]) / det
    c2 = (b1[0] * prod[1] - b1[1] * prod[0]) / det
    return c1, c2


def test_products_match_evaluation_oracle_hyperbolic():
    t = Fraction(2)
    context = ctx(t=t, cap=16)

    def fact(k):
        out = Fraction(1)
        for j in range(1, k + 1):
            out *= (t ** j - t ** -j) / (t - 1 / t)
        return out

    for ku in range(1, 6):
        for kv in range(1, 6):
            for su in (1, 2):
                for sv in (1, 2):
                    u, v = WeylElement(ku, su), WeylElement(kv, sv)
                    c1, c2 = crt_product_coeffs(t, u, v, fact)
                    prod = context.mul_basis(u, v)
                    m = ku + kv
                    got1 = prod.get(WeylElement(m, 1))
                    got2 = prod.get(WeylElement(m, 2))
                    assert (got1.as_fraction() if got1 else Fraction(0)) == c1
                    assert (got2.as_fraction() if got2 else Fraction(0)) == c2


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_products_match_evaluation_oracle_cyclotomic(n):
    t = cmath.exp(1j * math.pi / n)
    context = ctx(n)

    def fact(k):
        out = 1 + 0j
        for j in range(1, k + 1):
            out *= (t ** j - t ** -j) / (t - 1 / t)
        return out

    for ku in range(1, n):
        for kv in range(1, n - ku):
            for su in (1, 2):
                for sv in (1, 2):
                    u, v = WeylElement(ku, su), WeylElement(kv, sv)
                    c1, c2 = crt_product_coeffs(t, u, v, fact)
                    prod = context.mul_basis(u, v)
                    m = ku + kv
                    for got, expect in (
                            (prod.get(WeylElement(m, 1)), c1),
                            (prod.get(WeylElement(m, 2)), c2)):
                        val = float(got) if got is not None else 0.0
                        assert abs(expect.imag) < 1e-9
                        assert val == pytest.approx(expect.real, abs=1e-9)


# ---------------------------------------------------------------------------
# W_t action
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 8))
def test_weyl_action_involution_and_top_sign(n):
    context = ctx(n)
    for i in (1, 2):
        for w in context.basis():
            s = context.sigma(w)
            assert context.weyl_action_gen(i, context.weyl_action_gen(i, s)) == s
        top = context.sigma(context.group.longest)
        assert context.weyl_action_gen(i, top) == context.scale(-1, top)
        assert context.weyl_action_gen(i, context.unit()) == context.unit()


def test_weyl_action_pinned_example():
    context = ctx(3)
    s1 = context.sigma(WeylElement(1, 1))
    acted = context.weyl_action_gen(1, s1)
    assert acted == {WeylElement(1, 1): -context.descr.one,
                     WeylElement(1, 2): context.descr.one}


@pytest.mark.parametrize("n", range(2, 7))
def test_weyl_action_is_ring_automorphism(n):
    context = ctx(n)
    basis = context.basis()
    for i in (1, 2):
        for u in basis:
            for v in basis:
                lhs = context.weyl_action_gen(i, context.mul_basis(u, v))
                rhs = context.mul(
                    context.weyl_action_gen(i, context.sigma(u)),
                    context.weyl_action_gen(i, context.sigma(v)))
                assert lhs == rhs


@pytest.mark.parametrize("n", range(2, 8))
def test_weyl_action_braid_relation(n):
    context = ctx(n)
    for w in context.basis():
        a = context.sigma(w)
        left = right = a
        for step in range(n):
            left = context.weyl_action_gen(1 if step % 2 == 0 else 2, left)
            right = context.weyl_action_gen(2 if step % 2 == 0 else 1, right)
        assert left == right


def test_weyl_action_hyperbolic():
    context = ctx(t=2, cap=10)
    s = context.sigma(WeylElement(3, 1))
    acted = context.weyl_action_gen(1, s)
    tps = Fraction(8) + Fraction(1, 8)
    assert acted == {WeylElement(3, 1): -context.descr.one,
                     WeylElement(3, 2): context.descr.from_rational(tps)}
    assert context.weyl_action_gen(1, acted) == s


# ---------------------------------------------------------------------------
# caps, subalgebras, export
# ---------------------------------------------------------------------------

def test_cap_exceeded():
    context = ctx(t=2, cap=4)
    with pytest.raises(CapExceededError):
        context.mul_basis(WeylElement(3, 1), WeylElement(2, 2))
    assert context.mul_basis(WeylElement(2, 1), WeylElement(2, 2)) != {}
    assert max(w.length for w in context.basis()) == 4


@pytest.mark.parametrize("n", range(2, 9))
def test_grassmannian_subalgebra_closure(n):
    context = ctx(n)
    for i in (1, 2):
        labels = context.grassmannian_basis(i)
        assert [w.length for w in labels] == list(range(n))
        for u in labels:
            for v in labels:
                support = set(context.mul_basis(u, v))
                assert support <= set(labels)


def test_table_json_deterministic():
    doc1 = AlgebraContext(field_init(3)).table_json()
    doc2 = AlgebraContext(field_init(3)).table_json()
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    assert doc1["n"] == 3
    assert len(doc1["basis"]) == 6
    assert doc1["table"]["1.1*1.2"] == [
        {"w": "2.1", "coeff": ["1", "0"]},
        {"w": "2.2", "coeff": ["1", "0"]},
    ]


# Every sparse product in the package (A_t and its graded, limit and
# one-sided tables, the Kac-Moody side and the chain products behind gen_km)
# shares one bilinear extension; this digest pins their bytes and term order.
SPARSE_PRODUCTS_PIN = (
    "4151da86c7902f36256ad3ff058ce3a4e26e691d61fdfeb7c617c84827600fda")


def test_table_json_entries_own_their_coefficients():
    # coefficients are encoded once per distinct value, but no two entries
    # share a list, so editing one entry leaves the others alone
    doc = AlgebraContext(field_init(5)).table_json()
    coeffs = [e["coeff"] for es in doc["table"].values() for e in es]
    assert len({id(c) for c in coeffs}) == len(coeffs)
    assert len({tuple(c) for c in coeffs}) < len(coeffs)


def test_sparse_products_pinned():
    from dihedralcalc.chevalley import KacMoodyContext
    from dihedralcalc.cones import gen_km
    from dihedralcalc.filtration import (
        ConcaveWeighting,
        gr_table_json,
        limit_table_json,
        subalgebra_table_json,
    )
    from dihedralcalc.manifest import digest

    doc = {}
    for n in range(2, 9):
        alg = ctx(n)
        doc[f"at{n}"] = alg.table_json()
        doc[f"gr{n}"] = gr_table_json(ConcaveWeighting.full(alg))
        doc[f"limit{n}"] = limit_table_json(ConcaveWeighting.full(alg))
        for side in (1, 2):
            doc[f"bi{n}.{side}"] = subalgebra_table_json(alg, side)
    for n in range(2, 6):
        for kind in ("at", "gr-at", "b1", "b2", "b", "gr-b1", "gr-b2",
                     "gr-b"):
            doc[f"km{n}.{kind}"] = [
                [list(q.key), q.tag.to_json()]
                for q in gen_km(n, 2, kind).inequalities]
    for a12, a21 in ((1, 1), (2, 1), (1, 3)):
        km = KacMoodyContext(a12, a21)
        basis = list(km.group.elements())
        doc[f"cartan{a12}{a21}"] = [
            [repr(u), repr(v), [[repr(w), c.to_json()]
                                for w, c in km.mul_basis(u, v).items()]]
            for u in basis for v in basis]
    assert digest(doc) == SPARSE_PRODUCTS_PIN
