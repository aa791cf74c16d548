"""Inequality system tests: pairings, generators, membership, LP certificates."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dihedralcalc import cones, lp
from dihedralcalc.cones import (
    AuditReport, DominantWeight, InequalitySystem, InequalityTag,
    LinearInequality, a1_product_system, antipode, audit_to_json, cone_equal,
    embed_small, equality_to_json, evaluate_point, gen_km,
    gen_sti, gen_wti, inequality_row, is_member, lp_optimize, pairing_columns,
    redundancy_audit, row_values, slot_classes, small_field, system_to_json,
    system_to_latex, theta_system, vertex_cartesian, vertex_chart, w0_index,
    witness_writer,
)
from dihedralcalc.errors import (DomainError, InvalidParameterError,
                                 VerificationError)
from dihedralcalc.field import field_init
from dihedralcalc.lp import lp_solve
from dihedralcalc.weyl import DihedralGroup

F = Fraction


def approx(e) -> float:
    g = 2 * math.cos(2 * math.pi / e.descr.N)
    return sum(float(c) * g ** i for i, c in enumerate(e.coeffs))


def star(w, n):
    """The contragredient weight -w0(w): the two rays swap when n is odd."""
    return w if n % 2 == 0 else DominantWeight(w.b, w.a)


@functools.lru_cache(maxsize=None)
def chebyshev_ratio(n, j):
    """sin(j*pi/n) / sin(pi/n) as an element of the small field."""
    if j < 0:
        return -chebyshev_ratio(n, -j)
    k = small_field(n)
    if j == 0:
        return k.zero
    if j == 1:
        return k.one
    theta = k.two_cos(1)
    return theta * chebyshev_ratio(n, j - 1) - chebyshev_ratio(n, j - 2)


def vertex_ray(n, k):
    """Ray coordinates of vertex k: v_k = r(1-k)*z1 + r(k)*z2."""
    k = k % (2 * n)
    return chebyshev_ratio(n, 1 - k), chebyshev_ratio(n, k)


def weight_cartesian(w, descr):
    """Ambient coordinates of a dominant weight a*z1 + b*z2."""
    n = descr.n
    half = F(1, 2)
    x = descr.from_rational(w.a) + descr.two_cos(2) * (w.b * half)
    y = descr.two_cos(n - 2) * (w.b * half)
    return x, y


# -- pairings ------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pairing_columns_match_cosines(n):
    col_a, col_b = pairing_columns(n)
    for k in range(2 * n):
        assert abs(approx(col_a[k]) - math.cos(k * math.pi / n)) < 1e-12
        assert abs(approx(col_b[k]) - math.cos((k - 1) * math.pi / n)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vertex_ray_reproduces_pairings(n):
    # vertex j written in ray coordinates must pair like a unit vector
    col_a, col_b = pairing_columns(n)
    for j in range(2 * n):
        a, b = vertex_ray(n, j)
        for k in range(2 * n):
            got = a * col_a[k] + b * col_b[k]
            want = math.cos((j - k) * math.pi / n)
            assert abs(approx(got) - want) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_vertex_cartesian_unit_vectors(n):
    descr = field_init(n)
    for k in range(2 * n):
        x, y = vertex_cartesian(descr, k)
        assert abs(approx(x) - math.cos(k * math.pi / n)) < 1e-12
        assert abs(approx(y) - math.sin(k * math.pi / n)) < 1e-12


def test_cartesian_pairing_agrees_with_ray_pairing():
    n = 5
    descr = field_init(n)
    w = DominantWeight(F(3, 2), F(2, 7))
    x, y = weight_cartesian(w, descr)
    col_a, col_b = pairing_columns(n)
    for k in range(2 * n):
        vx, vy = vertex_cartesian(descr, k)
        small = w.a * col_a[k] + w.b * col_b[k]
        assert embed_small(descr, small) == x * vx + y * vy


def test_chebyshev_ratio_values():
    n = 6
    for j in range(-5, 12):
        want = math.sin(j * math.pi / n) / math.sin(math.pi / n)
        assert abs(approx(chebyshev_ratio(n, j)) - want) < 1e-12


def test_antipode_and_w0():
    assert antipode(4, 1) == 5 and antipode(4, 7) == 3
    # n even: longest element is the rotation by pi
    assert [w0_index(4, k) for k in range(8)] == [4, 5, 6, 7, 0, 1, 2, 3]
    # n odd: a reflection; fixed vertices exist
    fixed = [k for k in range(6) if w0_index(3, k) == k]
    assert len(fixed) == 2


# -- weights -------------------------------------------------------------------

def test_weight_star():
    w = DominantWeight(2, 3)
    assert star(w, 4) == w
    assert star(w, 3) == DominantWeight(3, 2)
    assert star(star(w, 3), 3) == w
    # -w0 on weights and on vertices preserves the pairing
    for n in (2, 3, 4, 5):
        col_a, col_b = pairing_columns(n)
        s, idx = star(w, n), DihedralGroup(n).star_index
        for k in range(2 * n):
            assert s.a * col_a[idx(k)] + s.b * col_b[idx(k)] \
                == w.a * col_a[k] + w.b * col_b[k]
    assert DominantWeight(-1, 0).is_dominant() is False


# -- generators ----------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(2, 2), (2, 5), (3, 3), (4, 4), (5, 3), (6, 5)])
def test_wti_count_formula(n, m):
    sys = gen_wti(n, m)
    assert len(sys.inequalities) == 2 * (comb(m, 2) * (n - 2) + m)
    assert sys.meta["count_nominal"] == 2 * n * comb(m, 2)
    assert sys.slots == m
    assert len(sys.key_set) == len(sys.inequalities)


def test_wti_requires_two_slots():
    with pytest.raises(InvalidParameterError):
        gen_wti(3, 1)


def test_wti_tags_carry_group_data():
    sys = gen_wti(3, 3)
    for q in sys.inequalities:
        assert q.tag.system == "WTI"
        assert q.tag.l in (1, 2)
        assert len(q.tag.words) == 3
        assert q.tag.slots is not None


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 4), (5, 4)])
def test_wti_key_set_symmetric_and_star_closed(n, m):
    sys = gen_wti(n, m)
    for perm in itertools.permutations(range(m)):
        assert {tuple(key[p] for p in perm) for key in sys.key_set} == \
            sys.key_set
    star = DihedralGroup(n).star_index
    assert {tuple(star(k) for k in key) for key in sys.key_set} == sys.key_set


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (3, 4), (4, 3), (5, 4)])
def test_sti_contains_wti(n, m):
    wti, sti = gen_wti(n, m), gen_sti(n, m)
    assert wti.key_set <= sti.key_set
    assert sti.meta["sigma_count"] > 0
    assert sti.slots == m


def test_sti_includes_point_tuples():
    n, m = 3, 3
    sti = gen_sti(n, m)
    base = {1: 0, 2: 1}
    for l in (1, 2):
        k0 = base[l]
        kw = w0_index(n, k0)
        for i in range(m):
            key = [kw] * m
            key[i] = k0
            assert tuple(key) in sti.key_set


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 3), (5, 3), (3, 4)])
def test_km_theta_identities(n, m):
    wti = gen_wti(n, m + 1)
    sti = gen_sti(n, m + 1)
    assert theta_system(gen_km(n, m, "at")).key_set == sti.key_set
    assert theta_system(gen_km(n, m, "gr-at")).key_set == wti.key_set
    assert theta_system(gen_km(n, m, "gr-b")).key_set == wti.key_set
    assert theta_system(gen_km(n, m, "b")).key_set <= sti.key_set


def test_km_slots_and_tags():
    sys = gen_km(3, 2, "at")
    assert sys.slots == 3
    # the lambda slots are interchangeable; mu (slot 2) is not
    assert slot_classes(sys) == ((0, 1),)
    for q in sys.inequalities:
        assert q.tag.system == "KM"
        assert len(q.tag.words) == 3


@functools.lru_cache(maxsize=None)
def _source_keys(source, n, slots):
    if source == "WTI":
        system = gen_wti(n, slots)
    elif source == "STI":
        system = gen_sti(n, slots)
    else:
        system = theta_system(gen_km(n, slots - 1, source.split(":")[1]))
    return tuple(sorted(system.key_set))


def _keyed_system(n, slots, keys):
    tag = InequalityTag("WTI", 1, ())
    return InequalitySystem(n, slots,
                            [LinearInequality(k, tag) for k in sorted(keys)])


def _permuted(keys, perm):
    return {tuple(k[p] for p in perm) for k in keys}


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       source=st.sampled_from(["WTI", "STI", "KM:at", "KM:b"]),
       n=st.integers(2, 4), slots=st.integers(2, 5))
def test_slot_classes_sound_and_maximal(data, source, n, slots):
    keys = _source_keys(source, n, slots)
    chosen = set(data.draw(st.sets(st.sampled_from(keys), max_size=len(keys))
                           | st.just(set(keys))))
    # closing under a few swaps gives the subsets symmetry to find; the
    # swaps keep the key set of the source, so the result stays a subset
    movable = slots - 1 if source == "KM:b" else slots
    swaps = data.draw(st.lists(st.tuples(st.integers(0, movable - 1),
                                         st.integers(0, movable - 1)),
                               max_size=3))
    grown = None
    while grown != chosen:
        grown = set(chosen)
        for s, t in swaps:
            perm = list(range(slots))
            perm[s], perm[t] = t, s
            chosen |= _permuted(grown, perm)
    assert chosen <= set(keys)

    classes = slot_classes(_keyed_system(n, slots, chosen))
    members = [s for cls in classes for s in cls]
    assert len(members) == len(set(members))
    assert all(len(cls) >= 2 and list(cls) == sorted(cls) for cls in classes)
    cls_of = {s: cls for cls in classes for s in cls}
    for perm in itertools.permutations(range(slots)):
        # soundness: every permutation inside the classes keeps the key set
        if all(perm[s] in cls_of.get(s, (s,)) for s in range(slots)):
            assert _permuted(chosen, perm) == chosen, (classes, perm)
    for s, t in itertools.combinations(range(slots), 2):
        # maximality: every swap that keeps the key set stays in a class
        perm = list(range(slots))
        perm[s], perm[t] = t, s
        if _permuted(chosen, perm) == chosen:
            assert t in cls_of.get(s, ()), (classes, s, t)


@pytest.mark.parametrize("slots", range(2, 6))
def test_slot_classes_of_empty_and_single_key_sets(slots):
    assert slot_classes(_keyed_system(3, slots, [])) == (tuple(range(slots)),)
    key = (0,) + (1,) * (slots - 1)
    want = (tuple(range(1, slots)),) if slots > 2 else ()
    assert slot_classes(_keyed_system(3, slots, [key])) == want


def test_km_bk_variant_uses_grassmannian_type():
    # graded one-sided systems pair only against the opposite vertex type
    for side in (1, 2):
        sys = gen_km(4, 3, f"gr-b{side}")
        assert {q.tag.l for q in sys.inequalities} == {3 - side}
        assert all(q.tag.system == "BK" for q in sys.inequalities)
        for q in sys.inequalities:
            for w in q.tag.words:
                assert w.side in (side, None)


def test_km_union_merges_sides():
    b1 = gen_km(3, 2, "b1")
    b2 = gen_km(3, 2, "b2")
    b = gen_km(3, 2, "b")
    assert b.key_set == b1.key_set | b2.key_set


# sha256 over n 2..8 and m 2..4 of each system's (key, tag) rows and meta,
# taken before the generators read keys from vertex tables and tagged each
# key on its first occurrence only
SYSTEM_PINS = {
    "wti": "2916a6330dd7777e53026ff4ab74c8be9a61a0217840e34d0900a2645ee5e85b",
    "sti": "17464ef5244656f85e18d4b116f79a6b6213c4bb7c65021e626e2b7c10ac1600",
    "km:at": "33d9482f0a221d8a79bdcd7964799dca535f8010d4c5b422fa6c969f75c929ea",
    "theta:km:at":
        "6fe2784ca66d3d3d35765dc5f0ea16294f34d8336fca34f2c43fd3e88a26553b",
    "km:gr-at":
        "a8e4c8be560b9ec30a7c82b3509b2800aae6221f48a6e5df0696aadf358315d3",
    "theta:km:gr-at":
        "9d09c91e43524c673b2d166a4298e652956dda74274796fa71cddbdaee629b74",
    "km:b1": "f430ead8e13af88498f5687791bfd576d36259bc85c2991129da6622260fdb00",
    "theta:km:b1":
        "087b8b63d32ea850e44564aee9ed2361aa18fee37b45806d742ac41ad884fbf6",
    "km:b2": "ecddb3e33531d6f27dd64ebf60b2350924566098f2504298bf9d86dbe464dd9d",
    "theta:km:b2":
        "85f6217e3c8c3872e34bf98b320c2756e58498e0bdb3359be18c2760f2fc043c",
    "km:b": "393f20b61c422e641f0cead64f9737bae89387cc746b3fc33ffc05a5a235e6c7",
    "theta:km:b":
        "bbe667aab14c32caa2baea05080cfcf5b5dc3e1105cc4c323b6c5db89f61158a",
    "km:gr-b1":
        "dff9ca6678dd13f5baea5f845d7fd701b4f61ad169dbc21bdd4673c74d29f325",
    "theta:km:gr-b1":
        "40ece7de3e810b89ec4ad210b3a5c2a30a861f747e017ee4f2d66afc727cb2dc",
    "km:gr-b2":
        "6d8edaa829521c980aeb63f027d472dcee618bab7c60663ea3a16d84959f9e19",
    "theta:km:gr-b2":
        "2726e9669dba64806dedfd93c9fb9dc0d5db46a7d72a5be2a86fb5bd1f72bfd3",
    "km:gr-b":
        "521a42ceacea0dcb5b3c5af59de9d92c676af0ae1b51733ba591b596c53cd5d2",
    "theta:km:gr-b":
        "86743654e985808bbcd4032628fa0ce859310c43ee15397dccdaeb53007df3b9",
}


def pinned_generator(name):
    if name == "wti":
        return gen_wti
    if name == "sti":
        return gen_sti
    twist, _, kind = name.rpartition("km:")
    if twist:
        return lambda n, m: theta_system(gen_km(n, m, kind))
    return lambda n, m: gen_km(n, m, kind)


@pytest.mark.parametrize("name", SYSTEM_PINS)
def test_generated_systems_pinned(name):
    build = pinned_generator(name)
    total = hashlib.sha256()
    for n in range(2, 9):
        for m in range(2, 5):
            system = build(n, m)
            doc = {"meta": system.meta,
                   "rows": [[list(q.key), q.tag.to_json()]
                            for q in system.inequalities]}
            text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            total.update(hashlib.sha256(text.encode()).hexdigest().encode())
    assert total.hexdigest() == SYSTEM_PINS[name]


def test_km_many_factors_at_n2():
    # eleven factors: each multiset's distinct orderings only, not its 11!
    # permutations
    keys = gen_km(2, 11).key_set
    assert keys
    for i in range(10):
        assert {k[:i] + (k[i + 1], k[i]) + k[i + 2:] for k in keys} == keys


def test_km_rejects_unknown_kind():
    with pytest.raises(InvalidParameterError):
        gen_km(3, 2, "nope")


def test_theta_system_involution():
    sys = gen_km(3, 3, "gr-at")
    back = theta_system(theta_system(sys))
    assert back.key_set == sys.key_set
    assert theta_system(sys).meta["theta"] is True
    assert back.meta["theta"] is False


def test_a1_product_oracle_matches_wti():
    for m in (2, 3, 4):
        assert a1_product_system(m).key_set == gen_wti(2, m).key_set


# -- membership ----------------------------------------------------------------

def test_member_zero_pair_and_regular_points():
    sys = gen_wti(3, 3)
    zero = DominantWeight(0, 0)
    lam = DominantWeight(7, 2)
    rho = DominantWeight(1, 1)
    assert is_member(sys, [zero, zero, zero]).member
    assert is_member(sys, [lam, star(lam, 3), zero]).member
    assert is_member(sys, [rho, rho, rho]).member
    # a lone nonzero weight violates the degenerate triangle
    assert not is_member(sys, [zero, zero, lam]).member


def test_member_violation_and_tag():
    sys = gen_wti(3, 3)
    res = is_member(sys, [DominantWeight(4, 4), DominantWeight(1, 0),
                          DominantWeight(0, 1)])
    assert not res.member
    assert res.violated is not None
    assert res.value > small_field(3).zero
    assert res.violated.tag.system == "WTI"


def test_member_domain_checks():
    sys = gen_wti(3, 3)
    with pytest.raises(InvalidParameterError):
        is_member(sys, [DominantWeight(1, 1)])
    with pytest.raises(DomainError, match="slot 1"):
        is_member(sys, [DominantWeight(1, 1), DominantWeight(-1, 1),
                        DominantWeight(1, 1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=3, max_size=3))
def test_member_agrees_between_equal_cones(n, coords):
    # WTI and STI cut out the same cone, so membership must agree
    ws = [DominantWeight(a, b) for a, b in coords]
    a = is_member(gen_wti(n, 3), ws).member
    b = is_member(gen_sti(n, 3), ws).member
    assert a == b


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=3, max_size=3),
       st.permutations([0, 1, 2]))
def test_member_permutation_invariance(coords, perm):
    sys = gen_wti(3, 3)
    ws = [DominantWeight(a, b) for a, b in coords]
    assert is_member(sys, ws).member == \
        is_member(sys, [ws[p] for p in perm]).member


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=3, max_size=3))
def test_member_star_invariance(n, coords):
    sys = gen_wti(n, 3)
    ws = [DominantWeight(a, b) for a, b in coords]
    starred = [star(w, n) for w in ws]
    assert is_member(sys, ws).member == is_member(sys, starred).member


# -- LP ------------------------------------------------------------------------

def test_lp_optimize_own_row_is_zero():
    sys = gen_wti(3, 3)
    res = lp_optimize(sys, sys.row(sys.inequalities[0].key))
    assert res.status == "optimal"
    assert not res.optimum  # facet functionals peak at zero on the cone
    total = small_field(3).zero
    for a, b in res.witness:
        total = total + a + b
    assert total == small_field(3).one


def test_lp_optimize_infeasible_section():
    # a1+a2 <= 0 and its reverse pin every coordinate to zero
    keys = [(0, 0), (1, 1), (2, 2), (3, 3)]
    sys = InequalitySystem(2, 2, [
        LinearInequality(k, gen_wti(2, 2).inequalities[0].tag) for k in keys])
    res = lp_optimize(sys, sys.row((0, 0)))
    assert res.status == "infeasible"


def test_cone_lps_certify_the_float_basis(monkeypatch):
    # every LP of an audit and an equality is settled without the exact
    # tableau, which runs only when a float basis fails certification
    def cold_start(*args):
        raise AssertionError("exact cold start")
    monkeypatch.setattr(lp, "_Tableau", cold_start)
    report = redundancy_audit(gen_wti(4, 3))
    assert report.entries and report.redundant == 0
    assert cone_equal(gen_wti(5, 4), gen_sti(5, 4)).equal


def test_exact_cold_path_matches_float_guided_cone_lps(monkeypatch):
    # with no float basis every LP runs the exact tableau from a cold start,
    # and statuses, optima and witnesses stay those of the float-guided run
    def run():
        solved = []

        def recorded(*args):
            res = optimize(*args)
            solved.append(res)
            return res

        with monkeypatch.context() as patch:
            patch.setattr(cones, "lp_optimize", recorded)
            verdicts = (redundancy_audit(gen_wti(3, 3)).entries,
                        redundancy_audit(gen_wti(4, 3)).entries,
                        cone_equal(gen_wti(4, 3), gen_sti(4, 3)))
        return verdicts, solved

    optimize = cones.lp_optimize
    guided, guided_lps = run()
    tableaus = []

    def cold_start(*args):
        tableaus.append(args)
        return exact_tableau(*args)

    exact_tableau = lp._Tableau
    monkeypatch.setattr(lp, "_float_basis", lambda *args: None)
    monkeypatch.setattr(lp, "_Tableau", cold_start)
    cold, cold_lps = run()
    assert guided_lps and len(tableaus) == len(cold_lps)
    assert cold_lps == guided_lps
    assert cold == guided


@pytest.mark.parametrize("corruption,message", [
    ("negative", "negative coordinate"),
    ("normalization", "normalization"),
    ("violated", "violates a cone constraint"),
    ("optimum", "does not attain")])
def test_lp_optimize_rejects_corrupted_vertex(monkeypatch, corruption,
                                              message):
    # the vertex check in lp_optimize catches a wrong answer on its own,
    # whatever the solver's certificate said
    sys = gen_wti(3, 3)
    one, zero = small_field(3).one, small_field(3).zero

    def corrupt(*args, **kwargs):
        res = lp_solve(*args, **kwargs)
        z = list(res.dual)
        if corruption == "negative":  # mass moved, sum still 1
            z[0], z[1] = z[0] - 2, z[1] + 2
        elif corruption == "normalization":  # still in the cone
            z = [v + v for v in z]
        elif corruption == "violated":  # one nonzero weight breaks a triangle
            z = [one] + [zero] * (len(z) - 1)
        else:
            return dataclasses.replace(res, optimum=res.optimum + one)
        return dataclasses.replace(res, dual=z)

    monkeypatch.setattr(cones, "lp_solve", corrupt)
    with pytest.raises(VerificationError, match=message):
        lp_optimize(sys, sys.row(sys.inequalities[0].key))


def test_lp_optimize_rejects_bad_objective():
    sys = gen_wti(3, 3)
    with pytest.raises(InvalidParameterError):
        lp_optimize(sys, sys.row((1, 2, 3))[:4])


# -- audits and cone equality ---------------------------------------------------

@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 3), (3, 4)])
def test_wti_audit_all_facets(n, m):
    rep = redundancy_audit(gen_wti(n, m))
    assert isinstance(rep, AuditReport)
    assert rep.redundant == 0
    assert rep.facets == len(gen_wti(n, m).inequalities)


def test_sti_audit_facets_are_exactly_wti():
    n, m = 3, 3
    rep = redundancy_audit(gen_sti(n, m))
    assert rep.redundant > 0
    facet_keys = {e.inequality.key for e in rep.entries if e.status == "facet"}
    assert facet_keys == set(gen_wti(n, m).key_set)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 4), (5, 4)])
def test_cone_equal_sti_wti(n, m):
    cert = cone_equal(gen_sti(n, m), gen_wti(n, m))
    assert cert.equal
    assert cert.counterexample is None
    assert all(e.status == "implied" for e in cert.forward)
    assert all(e.status == "implied" for e in cert.backward)


def test_cone_equal_uses_shortcuts():
    cert = cone_equal(gen_sti(4, 4), gen_wti(4, 4))
    methods = {e.method for e in cert.forward}
    assert "duplicate" in methods and "orbit" in methods


@pytest.mark.parametrize("idx", range(12))
def test_cone_equal_detects_strictly_smaller_system(idx):
    # every row of WTI(3,3) is a facet, so dropping any one leaves a
    # strictly larger cone; the copied meta must not make the sub-system
    # look as symmetric as the full one
    sys = gen_wti(3, 3)
    assert len(sys.inequalities) == 12
    dropped = sys.inequalities[idx]
    sub = InequalitySystem(3, 3, sys.inequalities[:idx]
                           + sys.inequalities[idx + 1:], dict(sys.meta))
    cert = cone_equal(sys, sub)
    assert not cert.equal
    bad = cert.counterexample
    assert bad is not None and bad.inequality.key == dropped.key
    # the witness satisfies the sub-system but violates the dropped row
    assert evaluate_point(sub, bad.witness).member
    assert not evaluate_point(sys, bad.witness).member


def test_cone_equal_requires_matching_shape():
    with pytest.raises(InvalidParameterError):
        cone_equal(gen_wti(3, 3), gen_wti(3, 4))
    with pytest.raises(InvalidParameterError):
        cone_equal(gen_wti(3, 3), gen_wti(4, 3))


def test_cone_equal_a1_oracle():
    cert = cone_equal(gen_wti(2, 3), a1_product_system(3))
    assert cert.equal


def test_cone_equal_theta_correspondence():
    for n, m in ((3, 3), (4, 3)):
        wti = gen_wti(n, m + 1)
        for kind in ("at", "gr-at", "b", "gr-b"):
            cert = cone_equal(theta_system(gen_km(n, m, kind)), wti)
            assert cert.equal, (n, m, kind)


def test_km_cache_reuse_across_kinds(monkeypatch):
    solves = []

    def counted(system, row):
        solves.append(system)
        return lp_optimize(system, row)

    monkeypatch.setattr(cones, "lp_optimize", counted)
    wti = gen_wti(4, 4)
    cone_equal(gen_sti(4, 4), wti)
    lp_before = len(solves)
    cert = cone_equal(theta_system(gen_km(4, 3, "at")), wti)
    assert cert.equal
    # the theta image coincides with the stability system, and wti
    # remembers its verdicts: no new LP solves
    assert len(solves) == lp_before and lp_before > 0


def test_system_equality_ignores_memos():
    a, b = gen_wti(3, 3), gen_wti(3, 3)
    assert a == b
    a.rows()
    a.dual_matrix()
    assert a._dual is not None and b._dual is None and a == b
    cone_equal(gen_sti(3, 3), a)
    assert a._verdicts and a == b


def _rest(system, idx):
    return InequalitySystem(
        system.n, system.slots,
        system.inequalities[:idx] + system.inequalities[idx + 1:],
        dict(system.meta))


@pytest.mark.parametrize("make", [lambda: gen_wti(3, 3),
                                  lambda: gen_sti(3, 3),
                                  lambda: gen_wti(4, 4)])
def test_audit_drops_one_column_of_the_cached_matrix(monkeypatch, make):
    system = make()
    asked = []

    def recording(sub, row):
        asked.append((sub, row))
        return lp_optimize(sub, row)

    monkeypatch.setattr(cones, "lp_optimize", recording)
    redundancy_audit(system)
    keys = [q.key for q in system.inequalities]
    # one LP per orbit representative, each over the system without it
    classes = slot_classes(system)
    reps = {cones._canon_key(k, classes) for k in keys}
    assert len(asked) == len(reps) < len(keys)
    dropped = []
    for sub, row in asked:
        (key,) = set(keys) - sub.key_set
        dropped.append(key)
        assert row == system.row(key)
        fresh = _rest(system, keys.index(key))
        assert fresh._dual is None and fresh._image is None  # no inheritance
        assert sub._dual == fresh.dual_matrix()
        assert sub._image == fresh.dual_image()
    assert set(dropped) == reps
    # the audit leaves the parent's own matrix and image whole
    whole = _rest(system, len(keys))
    assert system.dual_matrix() == whole.dual_matrix()
    assert system.dual_image() == whole.dual_image()


def _oracle_verdict(target, key):
    """(status, method) that duplicate lookup and an exact-only domination
    test give, or None where the entry must go to the LP."""
    if key in target.key_set:
        return "implied", "duplicate"
    row = inequality_row(target.n, key)
    if any(all(a <= b for a, b in zip(row, target.row(q.key)))
           for q in target.inequalities):
        return "implied", "dominated"
    return None


def _check_against_oracle(entries, target, orbits):
    # with orbits, each orbit entry must carry the status that its own key
    # gets on a copy of the target that has answered nothing yet
    fresh = InequalitySystem(target.n, target.slots,
                             list(target.inequalities), dict(target.meta))
    for e in entries:
        if e.method == "orbit":
            if orbits:
                status = cones._implied_over(fresh, e.inequality.key)[0]
                assert e.status == status, e
            continue
        want = _oracle_verdict(target, e.via or e.inequality.key)
        if want is None:
            assert e.method == "lp", e
        else:
            assert (e.status, e.method) == want, e


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", (3, 4))
def test_cone_equal_methods_match_exact_domination(n, m):
    # the pairs of the cones suite: domination read off the vertex chart
    # gives each entry the (status, method) that exact row comparison gives
    pairs = [(gen_wti(n, m), gen_sti(n, m))]
    big = gen_wti(n, m + 1)
    pairs += [(theta_system(gen_km(n, m, kind)), big)
              for kind in ("at", "gr-at", "b")]
    for a, b in pairs:
        cert = cone_equal(a, b)
        assert cert.equal
        # re-deciding orbit entries on a fresh target can take an LP
        # each, so it runs for n <= 4 only
        _check_against_oracle(cert.forward, b, orbits=n <= 4)
        _check_against_oracle(cert.backward, a, orbits=n <= 4)


def test_chart_rule_matches_exact_column_comparison():
    # row(key) <= row(other) entrywise iff, slot by slot, the key's vertex is
    # at least as far as the other's from both ends: cos decreases on [0, pi]
    for n in range(2, 33):
        col_a, col_b = pairing_columns(n)
        chart = vertex_chart(n)
        for a, b in itertools.product(range(2 * n), repeat=2):
            exact = (col_a[a] <= col_a[b]) and (col_b[a] <= col_b[b])
            assert cones._dominated_by(chart, (a,), (b,)) == exact, (n, a, b)


# -- coherence sampling ----------------------------------------------------------

def _km_member(sys, weights):
    return is_member(sys, weights).member


def _split_feasible(n, k2, lam1, lam2, lam3, mu):
    """Exists nu with (lam1, lam2; nu) and (nu, lam3; mu) in the 2-fold cone?"""
    fld = small_field(n)
    zero = fld.zero
    rows, rhs = [], []
    for q in k2.inequalities:
        row = k2.row(q.key)
        const = (lam1.a * row[0] + lam1.b * row[1] +
                 lam2.a * row[2] + lam2.b * row[3])
        rows.append([row[4], row[5]])
        rhs.append(-const)
    for q in k2.inequalities:
        row = k2.row(q.key)
        const = (lam3.a * row[2] + lam3.b * row[3] +
                 mu.a * row[4] + mu.b * row[5])
        rows.append([row[0], row[1]])
        rhs.append(-const)
    res = lp_solve(rows, rhs, [zero, zero], zero=zero)
    return res.status == "optimal"


def test_coherence_by_sampling():
    n = 3
    k2 = gen_km(n, 2, "at")
    k3 = gen_km(n, 3, "at")
    rng = random.Random(8151)
    hits = 0
    for _ in range(40):
        ws = [DominantWeight(F(rng.randint(0, 8), rng.randint(1, 3)),
                             F(rng.randint(0, 8), rng.randint(1, 3)))
              for _ in range(4)]
        direct = _km_member(k3, ws)
        split = _split_feasible(n, k2, *ws)
        assert direct == split
        hits += direct
    assert 0 < hits < 40  # the sample straddles the boundary


# -- facet witnesses --------------------------------------------------------------

def _row_values(system, pairs):
    return {q.key: cones._eval_row(system.row(q.key), pairs)
            for q in system.inequalities}


def _assert_tight_exactly_once(system, entry):
    """The audit's vertex z certifies row q as a facet: q(z) > 0 and every
    other row holds at z, so on the segment from the regular point p (all
    rows strict) to z the point where q vanishes is tight on q alone."""
    zero, one = small_field(system.n).zero, small_field(system.n).one
    at_p = _row_values(system, [(one, one)] * system.slots)
    at_z = _row_values(system, entry.witness)
    key = entry.inequality.key
    qp, qz = at_p[key], at_z[key]
    assert qp < zero < qz
    for other, v in at_p.items():
        tight = v * qz - at_z[other] * qp  # (qz - qp) * row(x_q)
        if other == key:
            assert not tight
        else:
            assert tight < zero


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 3), (5, 4)])
def test_facet_witness_tight_exactly_once(n, m):
    sys = gen_wti(n, m)
    for entry in redundancy_audit(sys).entries:
        assert entry.status == "facet"
        _assert_tight_exactly_once(sys, entry)


def test_facet_witness_needs_three_slots():
    # with two slots the cone is flat (the regular point is on its boundary)
    # and no row has a point where it alone is tight: the audit finds none
    sys = gen_wti(3, 2)
    one = small_field(3).one
    assert all(e.status == "redundant" for e in redundancy_audit(sys).entries)
    assert not all(_row_values(sys, [(one, one)] * 2).values())


def _per_row_statuses(system):
    """The audit without orbits: one LP per row over the other rows."""
    zero = small_field(system.n).zero
    out = []
    for idx, q in enumerate(system.inequalities):
        res = lp_optimize(system.without(idx), system.row(q.key))
        out.append("facet" if res.status == "optimal" and res.optimum > zero
                   else "redundant")
    return out


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", (3, 4))
@pytest.mark.parametrize("make", [
    gen_wti, gen_sti, lambda n, m: gen_km(n, m, "b"),
    lambda n, m: theta_system(gen_km(n, m, "at"))],
    ids=["wti", "sti", "km-b", "theta-km-at"])
def test_orbit_audit_matches_per_row_lps(n, m, make):
    # one LP per orbit gives every row the status its own LP gives, and
    # every permuted facet vertex is a facet certificate of its row
    system = make(n, m)
    report = redundancy_audit(system)
    assert [e.status for e in report.entries] == _per_row_statuses(system)
    for entry in report.entries:
        if entry.status == "facet":
            _assert_tight_exactly_once(system, entry)


@pytest.mark.parametrize("consumer", [
    lambda system, lopsided: redundancy_audit(lopsided),
    lambda system, lopsided: cone_equal(system, lopsided)],
    ids=["audit", "cone-equal"])
def test_audit_rejects_a_wrong_slot_symmetry(monkeypatch, consumer):
    # without its key[2] == 0 rows, WTI(3,3) keeps only slots 0 and 1
    # symmetric; claiming slot 2 too must fail the closure check, not pass
    # silently with a representative's verdict (cone_equal would call the
    # two cones equal)
    system = gen_wti(3, 3)
    assert slot_classes(system) == ((0, 1, 2),)
    lopsided = InequalitySystem(3, 3, [q for q in system.inequalities
                                       if q.key[2] != 0], dict(system.meta))
    assert slot_classes(lopsided) == ((0, 1),)
    assert not cone_equal(system, lopsided).equal
    monkeypatch.setattr(cones, "slot_classes", lambda s: ((0, 1, 2),))
    with pytest.raises(VerificationError,
                       match="swapping slots 1 and 2 does not map"):
        consumer(system, lopsided)


def test_orbit_members_get_no_vertex_check(monkeypatch):
    # the closure check proves every orbit member's witness, so the audit
    # checks one vertex per LP and none per member
    calls = []

    def counting(system, pairs):
        calls.append(system)
        return evaluate_point(system, pairs)

    monkeypatch.setattr(cones, "evaluate_point", counting)
    solved = []

    def recording(sub, row):
        solved.append(row)
        return lp_optimize(sub, row)

    monkeypatch.setattr(cones, "lp_optimize", recording)
    system = gen_wti(8, 5)
    report = redundancy_audit(system)
    assert len(report.entries) == 130
    assert len(solved) == len(calls) == 8


# -- exports ----------------------------------------------------------------------

def test_embed_small_is_a_field_hom():
    n = 5
    big = field_init(n)
    k = small_field(n)
    x = k.two_cos(1) + k.from_rational(F(2, 3))
    y = k.two_cos(2) * k.from_rational(3)
    assert embed_small(big, k.two_cos(1)) == big.two_cos(2)
    assert embed_small(big, x + y) == embed_small(big, x) + embed_small(big, y)
    assert embed_small(big, x * y) == embed_small(big, x) * embed_small(big, y)
    assert embed_small(big, k.from_rational(F(7, 4))) == big.from_rational(F(7, 4))


def test_system_json_roundtrips():
    sys = gen_wti(3, 3)
    doc = system_to_json(sys)
    blob = json.dumps(doc, sort_keys=True)
    assert json.loads(blob) == doc
    assert doc["n"] == 3 and doc["m"] == 3
    assert doc["field"]["mode"] == "cyclotomic"
    assert len(doc["inequalities"]) == len(sys.inequalities)
    first = doc["inequalities"][0]
    assert set(first) == {"tag", "key", "covectors"}
    assert len(first["covectors"]) == 3


def test_audit_and_equality_json():
    sys = gen_wti(3, 3)
    rep = redundancy_audit(sys)
    doc = audit_to_json(sys, rep)
    assert doc["facets"] == len(sys.inequalities)
    assert all(e["status"] in ("facet", "redundant") for e in doc["entries"])
    json.dumps(doc)

    cert = cone_equal(gen_sti(3, 3), sys)
    doc = equality_to_json(gen_sti(3, 3), sys, cert)
    assert doc["equal"] is True
    json.dumps(doc)


def test_latex_rendering():
    tex = system_to_latex(gen_wti(2, 2))
    assert r"\le 0" in tex and r"\lambda_{1}" in tex


def test_witness_json_uses_ambient_field():
    sys = gen_wti(3, 3)
    res = lp_optimize(sys, sys.row(sys.inequalities[0].key))
    doc = witness_writer(field_init(3))(res.witness)
    assert len(doc) == 3 and all(len(pair) == 2 for pair in doc)
    json.dumps(doc)


def test_row_values_order_and_signs():
    sys = gen_wti(3, 3)
    zero = small_field(3).zero
    at_zero = row_values(sys, [DominantWeight(0, 0)] * 3)
    assert len(at_zero) == len(sys.inequalities)
    assert all(v == zero for v in at_zero)

    inside = [DominantWeight(Fraction(1), Fraction(1))] * 3
    assert all(v < zero for v in row_values(sys, inside))

    spiked = [DominantWeight(Fraction(3), Fraction(0)),
              DominantWeight(0, 0), DominantWeight(0, 0)]
    verdict = is_member(sys, spiked)
    assert not verdict.member
    values = dict(zip([q.key for q in sys.inequalities],
                      row_values(sys, spiked)))
    assert values[verdict.violated.key] == verdict.value


def test_row_values_requires_matching_slots():
    with pytest.raises(InvalidParameterError):
        row_values(gen_wti(3, 3), [DominantWeight(0, 0)] * 2)
