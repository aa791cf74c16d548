"""Pre-ring coefficient arithmetic, Grassmannian and flag products,
and enumeration of point-class tuples."""

import itertools

import pytest
from hypothesis import given, strategies as st

from dihedralcalc.errors import (
    DomainError,
    InvalidParameterError,
    UndefinedSumError,
)
from dihedralcalc.prering import (
    FlagPreRing,
    GrassPreRing,
    Z2,
    distinct_orderings,
    enumerate_sigma,
)
from dihedralcalc.weyl import IDENTITY, DihedralGroup, WeylElement


ZERO, ONE, INF = Z2.zero, Z2.one, Z2.inf


# -- coefficient arithmetic --------------------------------------------------

def test_addition_table():
    assert Z2.add(ZERO, ZERO) == ZERO
    assert Z2.add(ZERO, ONE) == ONE
    assert Z2.add(ONE, ONE) == ZERO  # mod 2
    assert Z2.add(ZERO, INF) == INF
    assert Z2.add(ONE, INF) == INF
    assert Z2.add(INF, ONE) == INF


def test_infinite_sum_is_undefined():
    with pytest.raises(UndefinedSumError):
        Z2.add(INF, INF)


def test_multiplication_table():
    assert Z2.mul(ZERO, INF) == ZERO
    assert Z2.mul(INF, ZERO) == ZERO
    assert Z2.mul(ONE, INF) == INF
    assert Z2.mul(INF, INF) == INF
    assert Z2.mul(ONE, ONE) == ONE
    assert Z2.mul(ZERO, ONE) == ZERO


@given(st.sampled_from([0, 1, None]), st.sampled_from([0, 1, None]),
       st.sampled_from([0, 1, None]))
def test_multiplication_associative_commutative(a, b, c):
    x, y, z = (Z2.coeff(v) for v in (a, b, c))
    assert Z2.mul(x, y) == Z2.mul(y, x)
    assert Z2.mul(Z2.mul(x, y), z) == Z2.mul(x, Z2.mul(y, z))


# -- Grassmannian products ---------------------------------------------------

def test_grass_unit():
    g = GrassPreRing(5)
    for r in range(5):
        assert g.mul_basis(4, r) == {r: ONE}
        assert g.mul_basis(r, 4) == {r: ONE}


def test_grass_examples():
    g = GrassPreRing(5)
    assert g.mul_basis(3, 3) == {2: INF}
    assert g.mul_basis(1, 3) == {0: ONE}  # complementary dimensions
    assert g.mul_basis(1, 2) == {}
    assert g.mul_basis(0, 3) == {}
    assert g.mul_basis(2, 2) == {0: ONE}


def test_grass_degree_range():
    g = GrassPreRing(4)
    with pytest.raises(DomainError):
        g.mul_basis(4, 1)
    with pytest.raises(DomainError):
        g.mul_basis(-1, 1)


def test_grass_pd():
    g = GrassPreRing(6)
    for r in range(6):
        assert g.mul_basis(r, g.dim - r)[0] == ONE


@pytest.mark.parametrize("n", range(2, 9))
def test_grass_product_associative_on_full_degree(n):
    # quadruples with r1+r2+r3+r4 = 3(n-1): every bracketing is defined
    # and lands on a multiple of the point class
    g = GrassPreRing(n)
    top = n - 1
    for rs in itertools.product(range(n), repeat=4):
        if sum(rs) != 3 * top:
            continue
        r1, r2, r3, r4 = rs
        left = g.mul(g.mul(g.mul({r1: ONE}, {r2: ONE}), {r3: ONE}), {r4: ONE})
        mid = g.mul(g.mul({r1: ONE}, g.mul({r2: ONE}, {r3: ONE})), {r4: ONE})
        right = g.mul({r1: ONE}, g.mul({r2: ONE}, g.mul({r3: ONE}, {r4: ONE})))
        assert left == mid == right
        assert set(left) <= {0}


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 3), (5, 3),
                                 (3, 4), (4, 4), (5, 4), (6, 5)])
def test_grass_m_fold_coefficient(n, m):
    # full-codegree m-fold products: coefficient 1 exactly when the degrees
    # are a rearrangement of (r, n-1-r, n-1, ..., n-1), else infinite
    g = GrassPreRing(n)
    top = n - 1
    for rs in itertools.product(range(n), repeat=m):
        if sum(rs) != top * (m - 1):
            continue
        acc = g.product_chain(list(rs))
        assert set(acc) == {0}
        ordered = sorted(rs, reverse=True)
        pointlike = ordered[:m - 2] == [top] * (m - 2) and \
            ordered[m - 2] + ordered[m - 1] == top
        assert acc[0] == (ONE if pointlike else INF)


def test_grass_chain_drops_to_zero():
    g = GrassPreRing(4)
    assert g.product_chain([1, 1]) == {}
    assert g.product_chain([1, 1, 3]) == {}


# -- flag products ------------------------------------------------------------

def w(length, side=None):
    return WeylElement(length, side)


def test_flag_unit_and_point():
    f = FlagPreRing(4)
    for u in f.basis():
        assert f.mul_basis(w(4), u) == {u: ONE}
        assert f.mul_basis(u, w(4)) == {u: ONE}
        if u.length < 4:
            # the point class only survives against the unit
            assert f.mul_basis(IDENTITY, u) == {}
    assert f.mul_basis(IDENTITY, w(4)) == {IDENTITY: ONE}


def test_flag_same_type_products():
    f = FlagPreRing(4)
    assert f.mul_basis(w(2, 1), w(2, 1)) == {}
    assert f.mul_basis(w(3, 1), w(1, 1)) == {}  # sum exactly n
    assert f.mul_basis(w(3, 1), w(2, 1)) == {w(1, 1): INF}
    assert f.mul_basis(w(3, 2), w(3, 2)) == {w(2, 2): INF}


def test_flag_mixed_type_products():
    f = FlagPreRing(4)
    assert f.mul_basis(w(1, 1), w(2, 2)) == {}
    assert f.mul_basis(w(1, 1), w(3, 2)) == {IDENTITY: ONE}
    assert f.mul_basis(w(3, 1), w(2, 2)) == {w(1, 1): INF, w(1, 2): INF}
    assert f.mul_basis(w(3, 1), w(3, 2)) == {w(2, 1): INF, w(2, 2): INF}


def test_flag_pd_pairing():
    for n in range(2, 8):
        f = FlagPreRing(n)
        for u in f.basis():
            v = f.group.pd(u)
            assert f.group.pd(v) == u
            assert u.length + v.length == n
            assert f.mul_basis(u, v) == {IDENTITY: ONE}


def test_flag_mul_bilinear_inf_clash():
    f = FlagPreRing(4)
    x = {w(3, 1): ONE, w(3, 2): ONE}
    with pytest.raises(UndefinedSumError):
        f.mul(x, x)  # two mixed products both feed inf into C_{2,*}


def test_flag_product_commutative():
    for n in (2, 3, 4, 5):
        f = FlagPreRing(n)
        for u, v in itertools.product(f.basis(), repeat=2):
            assert f.mul_basis(u, v) == f.mul_basis(v, u)


def test_flag_associative_where_defined():
    f = FlagPreRing(4)
    for u, v, x in itertools.product(f.basis(), repeat=3):
        try:
            left = f.mul(f.mul({u: ONE}, {v: ONE}), {x: ONE})
        except UndefinedSumError:
            continue
        try:
            right = f.mul({u: ONE}, f.mul({v: ONE}, {x: ONE}))
        except UndefinedSumError:
            continue
        assert left == right


# -- pull-backs ---------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("l", [1, 2])
def test_pullback_homomorphism_off_dual_pairs(n, l):
    # p_l^* turns Grassmannian products into same-type flag products; the
    # classes always agree, and the coefficients agree except on dual pairs,
    # where a one-point vertex intersection pulls back to infinitely many
    # edges through that vertex
    g = GrassPreRing(n)
    f = FlagPreRing(n)

    def pullback(x):
        # p_l^* : C_r of the type-l Grassmannian -> C_{r+1, l}
        return {f.group.element(r + 1, l if r + 1 < n else None): a
                for r, a in x.items()}

    for r1 in range(n):
        for r2 in range(n):
            lhs = pullback(g.mul_basis(r1, r2))
            u = pullback({r1: ONE})
            v = pullback({r2: ONE})
            rhs = f.mul(u, v)
            dual = r1 + r2 == n - 1 and n - 1 not in (r1, r2)
            if dual:
                assert lhs == {w(1, l): ONE}
                assert rhs == {w(1, l): INF}
            else:
                assert lhs == rhs


# -- point-class tuples -------------------------------------------------------

def brute_sigma_n2(m):
    """Independent check at n = 2: the sixteen products of the Klein
    four-group pre-ring, written out by hand."""
    table = {
        (w(2), w(2)): {w(2): ONE},
        (w(2), w(1, 1)): {w(1, 1): ONE},
        (w(2), w(1, 2)): {w(1, 2): ONE},
        (w(2), w(0)): {w(0): ONE},
        (w(1, 1), w(1, 1)): {},
        (w(1, 2), w(1, 2)): {},
        (w(1, 1), w(1, 2)): {w(0): ONE},
        (w(1, 1), w(0)): {},
        (w(1, 2), w(0)): {},
        (w(0), w(0)): {},
    }

    def mul(x, y):
        out = {}
        for u, a in x.items():
            for v, b in y.items():
                key = (u, v) if (u, v) in table else (v, u)
                for z, c in table[key].items():
                    val = Z2.mul(Z2.mul(a, b), c)
                    if z in out:
                        val = Z2.add(out[z], val)
                    if val.is_zero():
                        out.pop(z, None)
                    else:
                        out[z] = val
        return out

    group = DihedralGroup(2)
    found = []
    for tup in itertools.product(list(group.elements()), repeat=m):
        acc = {w(2): ONE}
        for u in tup:
            acc = mul(acc, {u: ONE})
        if set(acc) == {IDENTITY}:
            found.append(tup)
    return found


def test_sigma_n2_m3_matches_brute_force():
    got = enumerate_sigma(2, 3)
    assert sorted(got) == sorted(brute_sigma_n2(3))
    assert len(got) == 9


def test_sigma_n2_m2_matches_brute_force():
    assert sorted(enumerate_sigma(2, 2)) == sorted(brute_sigma_n2(2))


@pytest.mark.parametrize("n", range(2, 7))
def test_sigma_m2_is_dual_pairs(n):
    group = DihedralGroup(n)
    expected = sorted((u, group.pd(u)) for u in group.elements())
    assert sorted(enumerate_sigma(n, 2)) == expected


@pytest.mark.parametrize("n,m", [(2, 3), (2, 4), (3, 3), (3, 4),
                                 (4, 3), (4, 4), (5, 3), (6, 3)])
def test_sigma_codegrees_and_length_bound(n, m):
    group = DihedralGroup(n)
    tuples = enumerate_sigma(n, m)
    assert tuples
    seen = set()
    for tup in tuples:
        assert tup not in seen
        seen.add(tup)
        assert sum(n - u.length for u in tup) == n
        for k in (1, 2):
            total = sum(group.ell_side(u, k) for u in tup)
            assert total >= (m - 1) * (n - 1)


def test_sigma_n3_m3_contents():
    # codegree triples summing to 3 with a nonzero product: one slot per
    # unit length drop, or a dual pair padded by the unit, or the point
    # against two units
    group = DihedralGroup(3)
    tuples = enumerate_sigma(3, 3)
    for tup in tuples:
        lengths = sorted(u.length for u in tup)
        assert lengths in ([0, 3, 3], [1, 2, 3], [2, 2, 2])
    # all three slots dropping one: the three type assignments cannot agree
    for tup in tuples:
        if all(u.length == 2 for u in tup):
            assert {u.side for u in tup} == {1, 2}
    # a dual pair (2 choices) in either order (2), unit in any slot (3)
    padded = [t for t in tuples if sorted(u.length for u in t) == [1, 2, 3]]
    assert len(padded) == 2 * 2 * 3
    assert len([t for t in tuples
                if sorted(u.length for u in t) == [0, 3, 3]]) == 3
    assert len(tuples) == 12 + 6 + 3


def test_sigma_rejects_same_type_chains():
    for tup in enumerate_sigma(4, 3):
        sides = {u.side for u in tup if 0 < u.length < 4}
        if sides:
            assert sides == {1, 2}




def sigma_oracle(n, m):
    """Every m-tuple over the flag basis, in label order, whose codegrees
    sum to n and whose point multiple is nonzero: one test per tuple."""
    ring = FlagPreRing(n)
    labels = sorted(ring.basis(), key=lambda u: (u.length, u.side or 0))
    return [tup for tup in itertools.product(labels, repeat=m)
            if sum(n - u.length for u in tup) == n
            and not ring.point_multiple(tup).is_zero()]


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(2, 5))
def test_sigma_matches_tuple_oracle(n, m):
    assert enumerate_sigma(n, m) == sigma_oracle(n, m)


@pytest.mark.parametrize("n", range(2, 7))
def test_point_multiple_is_symmetric(n):
    # enumerate_sigma tests one ordering per multiset and emits the rest
    ring = FlagPreRing(n)
    for m in range(2, 5):
        for combo in itertools.combinations_with_replacement(ring.basis(), m):
            values = {ring.point_multiple(p)
                      for p in itertools.permutations(combo)}
            assert len(values) == 1, combo


@given(st.lists(st.integers(0, 3), max_size=7))
def test_distinct_orderings_match_permutations(multiset):
    got = distinct_orderings(multiset)
    assert len(got) == len(set(got))
    assert set(got) == set(itertools.permutations(multiset))


def test_sigma_many_slots_at_n2():
    # 32 slots: the point against 31 units, or s1 and s2 against 30 units;
    # a walk over all 32! orderings of one multiset would never finish
    m = 32
    group = DihedralGroup(2)
    w0, s1, s2 = group.longest, group.element(1, 1), group.element(1, 2)
    expected = []
    for i in range(m):
        tup = [w0] * m
        tup[i] = IDENTITY
        expected.append(tuple(tup))
        for j in range(m):
            if j != i:
                tup = [w0] * m
                tup[i], tup[j] = s1, s2
                expected.append(tuple(tup))
    assert enumerate_sigma(2, m) == sorted(expected)


def test_sigma_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        enumerate_sigma(3, 1)
    with pytest.raises(InvalidParameterError):
        enumerate_sigma(None, 3)


def test_sigma_deterministic_order():
    a = enumerate_sigma(4, 3)
    b = enumerate_sigma(4, 3)
    assert a == b
    assert a == sorted(a)
