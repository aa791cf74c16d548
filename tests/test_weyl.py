import math
from collections import deque
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from dihedralcalc.errors import InvalidParameterError
from dihedralcalc.weyl import IDENTITY, DihedralGroup, WeylElement


def from_word(group, letters):
    """The product of the generators of a word, leftmost first."""
    return reduce(group.compose, (WeylElement(1, i) for i in letters),
                  IDENTITY)


def word(w):
    """A reduced word of w, leftmost generator first: the generators
    alternate and end in the right descent (in s1 for the longest element)."""
    out, cur = [], w.side or 1
    for _ in range(w.length):
        out.append(cur)
        cur = 3 - cur
    return out[::-1]


def inverse(group, w):
    """The product of the reversed reduced word."""
    return from_word(group, word(w)[::-1])


def star(group, w):
    """The involution w -> w0 * w * w0 (the identity for even n)."""
    w0 = group.longest
    return group.compose(group.compose(w0, w), w0)


def circular_vertex_distance(group, a, b):
    d = (a - b) % (2 * group.n)
    return min(d, 2 * group.n - d)


def gen_matrix(i, angle):
    # reflection across the x-axis (i=1) or the line at the given angle (i=2)
    if i == 1:
        return ((1.0, 0.0), (0.0, -1.0))
    c, s = math.cos(2 * angle), math.sin(2 * angle)
    return ((c, s), (s, -c))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2))


def mat_close(a, b, tol=1e-9):
    return all(abs(a[i][j] - b[i][j]) < tol for i in range(2) for j in range(2))


def to_matrix(group, w, angle):
    m = ((1.0, 0.0), (0.0, 1.0))
    for i in word(w):
        m = mat_mul(m, gen_matrix(i, angle))
    return m


def all_elements(group):
    return list(group.elements())


# ---------------------------------------------------------------------------
# group law against the reflection-matrix oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 10))
def test_compose_matches_matrix_oracle(n):
    group = DihedralGroup(n)
    angle = math.pi / n
    elems = all_elements(group)
    assert len(elems) == 2 * n
    mats = {w: to_matrix(group, w, angle) for w in elems}
    for u in elems:
        for v in elems:
            w = group.compose(u, v)
            assert mat_close(mats[w], mat_mul(mats[u], mats[v]))


@pytest.mark.parametrize("n", range(2, 10))
def test_inverse_matches_matrix_oracle(n):
    group = DihedralGroup(n)
    angle = math.pi / n
    ident = ((1.0, 0.0), (0.0, 1.0))
    for w in all_elements(group):
        winv = inverse(group, w)
        assert group.compose(w, winv) == IDENTITY
        assert mat_close(
            mat_mul(to_matrix(group, w, angle), to_matrix(group, winv, angle)),
            ident)


def test_infinite_group_matrix_oracle():
    group = DihedralGroup(None)
    angle = math.pi * math.sqrt(2) / 2  # irrational multiple: no relations
    words = [[], [1], [2], [1, 2], [2, 1], [1, 2, 1], [2, 1, 2, 1], [1, 2, 1, 2, 1]]
    elems = [from_word(group, w) for w in words]
    for u in elems:
        for v in elems:
            w = group.compose(u, v)
            assert mat_close(
                to_matrix(group, w, angle),
                mat_mul(to_matrix(group, u, angle), to_matrix(group, v, angle)))


# ---------------------------------------------------------------------------
# lengths via Cayley-graph BFS
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_length_is_cayley_distance(n):
    group = DihedralGroup(n)
    dist = {IDENTITY: 0}
    queue = deque([IDENTITY])
    while queue:
        w = queue.popleft()
        for i in (1, 2):
            nxt = group.compose(w, WeylElement(1, i))
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    assert len(dist) == 2 * n
    for w, d in dist.items():
        assert w.length == d


def test_relations():
    for n in range(2, 9):
        group = DihedralGroup(n)
        s1, s2 = WeylElement(1, 1), WeylElement(1, 2)
        assert group.compose(s1, s1) == IDENTITY
        assert group.compose(s2, s2) == IDENTITY
        rot = group.compose(s1, s2)
        cur = IDENTITY
        for k in range(1, n):
            cur = group.compose(cur, rot)
            assert cur != IDENTITY
        assert group.compose(cur, rot) == IDENTITY


@pytest.mark.parametrize("n", range(2, 13))
def test_length_subadditive(n):
    group = DihedralGroup(n)
    for u in all_elements(group):
        for v in all_elements(group):
            w = group.compose(u, v)
            assert w.length <= u.length + v.length
            assert w.length >= abs(u.length - v.length)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 12])
def test_word_roundtrip(n):
    group = DihedralGroup(n)
    for w in all_elements(group):
        letters = word(w)
        assert len(letters) == w.length
        assert all(a != b for a, b in zip(letters, letters[1:]))
        assert from_word(group, letters) == w
        if 0 < w.length < n:
            assert letters[-1] == w.side


@settings(max_examples=100, deadline=None)
@given(word1=st.lists(st.sampled_from([1, 2]), max_size=10),
       word2=st.lists(st.sampled_from([1, 2]), max_size=10),
       n=st.sampled_from([2, 3, 4, 5, 8, None]))
def test_from_word_is_homomorphism(word1, word2, n):
    group = DihedralGroup(n)
    lhs = from_word(group, list(word1) + list(word2))
    rhs = group.compose(from_word(group, word1), from_word(group, word2))
    assert lhs == rhs


def test_canonical_structure():
    group = DihedralGroup(4)
    elems = all_elements(group)
    assert elems[0] == IDENTITY
    assert elems[-1] == WeylElement(4, None)
    for ln in (1, 2, 3):
        assert [w for w in elems if w.length == ln] == [
            WeylElement(ln, 1), WeylElement(ln, 2)]
    with pytest.raises(InvalidParameterError):
        group.element(2, None)
    with pytest.raises(InvalidParameterError):
        group.element(4, 1)
    with pytest.raises(InvalidParameterError):
        group.element(5, 1)
    with pytest.raises(InvalidParameterError):
        group.element(0, 2)


# ---------------------------------------------------------------------------
# descents, one-sided lengths, vertex action
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_descent_matches_side(n):
    group = DihedralGroup(n)

    def has_descent(w, i):
        return group.compose(w, WeylElement(1, i)).length < w.length

    for w in all_elements(group):
        if w.length == 0:
            assert not has_descent(w, 1)
            assert not has_descent(w, 2)
        elif w.length == n:
            assert has_descent(w, 1)
            assert has_descent(w, 2)
        else:
            assert has_descent(w, w.side)
            assert not has_descent(w, 3 - w.side)


@pytest.mark.parametrize("n", range(2, 13))
def test_ell_side_equals_circular_distance(n):
    group = DihedralGroup(n)
    for w in all_elements(group):
        for l in (1, 2):
            idx = group.vertex_index(w, l)
            dist = min(circular_vertex_distance(group, idx, 0),
                       circular_vertex_distance(group, idx, 1))
            assert group.ell_side(w, l) == dist
            assert idx % 2 == (l - 1) % 2


@pytest.mark.parametrize("n", range(2, 13))
def test_vertex_action_basics(n):
    group = DihedralGroup(n)
    assert group.vertex_index(WeylElement(1, 1), 1) == 0
    assert group.vertex_index(WeylElement(1, 2), 2) == 1
    rot = group.compose(WeylElement(1, 2), WeylElement(1, 1))
    assert group.vertex_index(rot, 1) == 2
    assert group.vertex_index(rot, 2) == 3
    # action is a homomorphism: (uv)(zeta) = u(v as index map)
    for u in all_elements(group):
        eps_u = -1 if u.length % 2 else 1
        for v in all_elements(group):
            for l in (1, 2):
                direct = group.vertex_index(group.compose(u, v), l)
                # push v's image through u's map
                base = group.vertex_index(v, l)
                shift = group.vertex_index(u, 1)  # u(0)
                assert direct == (eps_u * base + shift) % (2 * n)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_poincare_duality_labels(n):
    group = DihedralGroup(n)
    for w in all_elements(group):
        dual = group.pd(w)
        assert dual.length == n - w.length
        assert group.pd(dual) == w
        if 0 < w.length < n and 0 < dual.length:
            assert dual.side == 3 - w.side


@pytest.mark.parametrize("n", range(2, 13))
def test_star_involution(n):
    group = DihedralGroup(n)
    for w in all_elements(group):
        sw = star(group, w)
        assert sw.length == w.length
        assert star(group, sw) == w
        if n % 2 == 0:
            assert sw == w
        elif 0 < w.length < n:
            assert sw.side == 3 - w.side


@pytest.mark.parametrize("n", range(2, 13))
def test_star_index_is_minus_w0(n):
    group = DihedralGroup(n)
    angle = math.pi / n
    w0mat = to_matrix(group, group.longest, angle)
    for k in range(2 * n):
        ray = (math.cos(k * angle), math.sin(k * angle))
        moved = (-(w0mat[0][0] * ray[0] + w0mat[0][1] * ray[1]),
                 -(w0mat[1][0] * ray[0] + w0mat[1][1] * ray[1]))
        ks = group.star_index(k)
        expect = (math.cos(ks * angle), math.sin(ks * angle))
        assert abs(moved[0] - expect[0]) < 1e-9
        assert abs(moved[1] - expect[1]) < 1e-9


# ---------------------------------------------------------------------------
# infinite group
# ---------------------------------------------------------------------------

def test_infinite_group_basics():
    group = DihedralGroup(None)
    with pytest.raises(InvalidParameterError):
        _ = group.longest
    with pytest.raises(InvalidParameterError):
        list(group.elements())
    elems = list(group.elements(max_length=3))
    assert len(elems) == 7
    for w in elems:
        assert from_word(group, word(w)) == w
    long_word = from_word(group, [1, 2] * 40)
    assert long_word == WeylElement(80, 2)
    assert group.compose(long_word, inverse(group, long_word)) == IDENTITY
