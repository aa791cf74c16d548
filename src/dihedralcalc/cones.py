"""Stability inequality systems and their cone comparisons.

Weights live in the dominant cone of the rank-2 reflection group: a weight
is a nonnegative rational pair (a, b) against the two fundamental rays.
Scalar inequalities pair tuples of weights with vertices of the 2n-gon
(vertex k sits at angle k*pi/n), so each inequality is stored as one vertex
index per slot and read as

    sum_s <lambda_s, v_{key[s]}>  <=  0.

Minus signs are absorbed by the antipode k -> k+n.  All covectors are unit
vertex vectors, so two inequalities are positive multiples of each other
exactly when their keys agree; deduplication is therefore key equality.

Pairings are evaluated in the small real cyclotomic field containing
cos(pi/n), each row at a point as one ``field.dot``; exports embed
witnesses into the ambient coefficient field.

Every LP of a system runs over the same matrix, so a system builds it once:
``dual_matrix`` caches the negated, transposed rows that ``lp_optimize``
solves over, and ``dual_image`` caches their float image, each entry with
a proven error bound (``lp.float_image``).  The facet audit drops one
column of both caches per row instead of building them for each
sub-system.  Both row checks of an LP, the solver's y.A >= c and
``evaluate_point``'s, sign each row product in floats where that image
proves the sign (``field.dot_sign``) and exactly everywhere else.

Entrywise domination needs no field arithmetic.  The entries of vertex k
are cos(d1*pi/n) and cos(d2*pi/n), where d1, d2 <= n are the distances
from k to the vertices 0 and 1 along the 2n-gon (``vertex_chart``).
Cosine decreases on [0, pi], so one row is entrywise <= another exactly
when, slot by slot, its vertex is at least as far as the other's from both
ends.

A row's verdict over a target does not change under a slot permutation
that maps the target's key set onto itself, so a cone comparison settles
each orbit with one verdict, and the facet audit solves one LP per orbit
of its own rows (Bodi, Herr & Joswig, "Algorithms for highly symmetric
linear and integer programs", Math. Program. 2013).  ``slot_classes``
reads those slots off the key set; no generator declares them, and
``proven_slot_classes`` proves them once per system.  A row is the
slot-wise concatenation of per-key columns, so a permuted LP vertex is
optimal for the permuted row with the same value: orbit members inherit
the representative's verdict and vertex with no check of their own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

from .algebra import AlgebraContext, Element, _label
from .errors import DomainError, InvalidParameterError, VerificationError
from .field import (FieldDescriptor, FieldElement, approx_vector, dot,
                    dot_sign, field_init, real_cyclotomic)
from .filtration import ConcaveWeighting, gr_product
from .lp import float_image, lp_solve
from .prering import distinct_orderings, enumerate_sigma
from .weyl import IDENTITY, DihedralGroup, WeylElement


# -- vertex bookkeeping -------------------------------------------------------

@lru_cache(maxsize=None)
def _group(n: int) -> DihedralGroup:
    return DihedralGroup(n)


def _vertex_table(n: int, l: int) -> dict[WeylElement, int]:
    """``vertex_index(u, l)`` for each of the 2n elements u; a generator
    builds it once and reads every key from it."""
    g = _group(n)
    return {u: g.vertex_index(u, l) for u in g.elements()}


def small_field(n: int) -> FieldDescriptor:
    """Field generated by 2cos(pi/n); large enough for every pairing."""
    return real_cyclotomic(2 * n)


def antipode(n: int, k: int) -> int:
    return (k + n) % (2 * n)


def w0_index(n: int, k: int) -> int:
    """Index of the longest element applied to vertex k."""
    return antipode(n, _group(n).star_index(k))


@lru_cache(maxsize=None)
def vertex_chart(n: int) -> tuple[tuple[int, int], ...]:
    """(d1, d2) per vertex k: its distances to the vertices 0 and 1 of the
    2n-gon, the chart that pairing_columns reads as cos(d*pi/n)."""
    return tuple((min(k, 2 * n - k), min(abs(k - 1), 2 * n + 1 - k))
                 for k in range(2 * n))


@lru_cache(maxsize=None)
def pairing_columns(n: int) -> tuple[tuple, tuple]:
    """(col_a, col_b): <a*z1 + b*z2, v_k> = a*col_a[k] + b*col_b[k]."""
    k = small_field(n)
    half = Fraction(1, 2)
    col_a = tuple(k.two_cos(j) * half for j in range(2 * n))
    col_b = tuple(k.two_cos(j - 1) * half for j in range(2 * n))
    return col_a, col_b


def vertex_cartesian(descr: FieldDescriptor, k: int):
    """Unit vector of vertex k in the ambient cyclotomic field."""
    n = descr.n
    half = Fraction(1, 2)
    return descr.two_cos(2 * k) * half, descr.two_cos(n - 2 * k) * half


# -- weights ------------------------------------------------------------------

@dataclass(frozen=True)
class DominantWeight:
    """Nonnegative rational coordinates against the fundamental rays."""
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def is_dominant(self) -> bool:
        return self.a >= 0 and self.b >= 0

    def to_json(self) -> list[str]:
        return [str(self.a), str(self.b)]


# -- inequalities -------------------------------------------------------------

@dataclass(frozen=True)
class InequalityTag:
    system: str  # WTI | STI | KM | BK
    l: int
    words: tuple[WeylElement, ...]
    slots: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "system": self.system,
            "l": self.l,
            "words": [_label(w) for w in self.words],
            "slots": list(self.slots) if self.slots is not None else None,
        }


@dataclass(frozen=True)
class LinearInequality:
    key: tuple[int, ...]
    tag: InequalityTag

    def covectors(self, descr: FieldDescriptor):
        return [vertex_cartesian(descr, k) for k in self.key]

    def to_json(self, descr: FieldDescriptor) -> dict:
        return {
            "tag": self.tag.to_json(),
            "key": list(self.key),
            "covectors": [[c[0].to_json(), c[1].to_json()]
                          for c in self.covectors(descr)],
        }


def inequality_row(n: int, key: tuple[int, ...]) -> tuple:
    """Flattened (a_1, b_1, ..., a_s, b_s) covector over the small field."""
    col_a, col_b = pairing_columns(n)
    row = []
    for k in key:
        row.append(col_a[k])
        row.append(col_b[k])
    return tuple(row)


@dataclass
class InequalitySystem:
    n: int
    slots: int
    inequalities: list[LinearInequality]
    meta: dict = dc_field(default_factory=dict)
    # key -> _implied_over verdict with this system as the target
    _verdicts: dict = dc_field(default_factory=dict, repr=False,
                               compare=False)
    # dual LP matrix of lp_optimize and its float image; never shared,
    # since they depend on the inequality list
    _dual: list | None = dc_field(default=None, repr=False, compare=False)
    _image: tuple | None = dc_field(default=None, repr=False, compare=False)
    _keys: frozenset | None = dc_field(default=None, repr=False,
                                       compare=False)

    @property
    def key_set(self) -> frozenset:
        if self._keys is None:
            self._keys = frozenset(q.key for q in self.inequalities)
        return self._keys

    def row(self, key: tuple[int, ...]) -> tuple:
        return inequality_row(self.n, key)

    def rows(self) -> list[tuple]:
        return [self.row(q.key) for q in self.inequalities]

    def dual_matrix(self) -> list[list]:
        """lp_optimize's constraint matrix, built once.

        Row c is minus column c of the system's rows followed by (-1, 1),
        the two columns of the free variable t = t+ - t- of the section.
        """
        if self._dual is None:
            one = small_field(self.n).one
            rows = self.rows()
            self._dual = [[-row[c] for row in rows] + [-one, one]
                          for c in range(2 * self.slots)]
        return self._dual

    def dual_image(self) -> tuple[list, list]:
        """``lp.float_image`` of the dual matrix, built on the first LP or
        membership test: (values, errors) in the matrix's shape."""
        if self._image is None:
            self._image = float_image(self.dual_matrix())
        return self._image

    def without(self, idx: int) -> InequalitySystem:
        """The system minus its idx-th inequality; its dual matrix and float
        image are this one's with column idx dropped."""
        def drop(matrix):
            return [col[:idx] + col[idx + 1:] for col in matrix]

        vals, errs = self.dual_image()
        return InequalitySystem(
            self.n, self.slots,
            self.inequalities[:idx] + self.inequalities[idx + 1:], self.meta,
            _dual=drop(self.dual_matrix()), _image=(drop(vals), drop(errs)))


def _dedup_system(n: int, slots: int, rows: Iterable[tuple[tuple, object]],
                  meta: dict, make_tag=lambda tag: tag) -> InequalitySystem:
    """The system of the distinct keys among ``rows``, (key, spec) pairs.

    A key keeps the tag of its first occurrence, ``make_tag(spec)``, which
    is built for that occurrence only; by default the spec is the tag.
    ``meta["merged"]`` counts the rows dropped as repeats.
    """
    first: dict[tuple, InequalityTag] = {}
    generated = 0
    for key, spec in rows:
        generated += 1
        if key not in first:
            first[key] = make_tag(spec)
    meta = dict(meta)
    meta["merged"] = generated - len(first)
    meta["count"] = len(first)
    ineqs = [LinearInequality(k, t) for k, t in first.items()]
    return InequalitySystem(n, slots, ineqs, meta)


# -- system generators --------------------------------------------------------

def gen_wti(n: int, m: int) -> InequalitySystem:
    """Weak triangle inequalities on m dominant weights.

    For every vertex type l, every unordered slot pair {i, j}, and every
    vertex v of type l: slot i pairs with v, slot j with w0(v), the rest
    with w0(z_l).  Generated both from group elements and from raw vertex
    indices; the two scalar sets must agree.
    """
    if m < 2:
        raise InvalidParameterError("need at least two weight slots")
    g = _group(n)
    base = {1: 0, 2: 1}

    def rows():
        for l in (1, 2):
            rest = w0_index(n, base[l])
            table = _vertex_table(n, l)
            for i, j in itertools.combinations(range(m), 2):
                for u, k in table.items():
                    key = [rest] * m
                    key[i] = k
                    key[j] = w0_index(n, k)
                    yield tuple(key), (l, i, j, u)

    def make_tag(spec):
        l, i, j, u = spec
        words = [g.longest] * m
        words[i] = u
        words[j] = g.compose(g.longest, u)
        return InequalityTag("WTI", l, tuple(words), (i, j))

    sys = _dedup_system(n, m, rows(), {
        "system": "WTI",
        "count_nominal": 2 * n * comb(m, 2),
    }, make_tag)

    # independent generation straight from vertex indices
    check = set()
    for l in (1, 2):
        rest = w0_index(n, base[l])
        for i, j in itertools.combinations(range(m), 2):
            for k in range(base[l], 2 * n, 2):
                key = [rest] * m
                key[i] = k
                key[j] = w0_index(n, k)
                check.add(tuple(key))
    if check != set(sys.key_set):
        raise VerificationError("vertex-index form disagrees with group form")
    return sys


def gen_sti(n: int, m: int) -> InequalitySystem:
    """Stability inequalities: one pair of scalars per nonzero point-multiple
    tuple of Schubert classes in the flag pre-ring."""
    tuples = enumerate_sigma(n, m)
    tables = [(l, _vertex_table(n, l).__getitem__) for l in (1, 2)]
    rows = ((tuple(map(vertex, tup)), (l, tup))
            for tup in tuples for l, vertex in tables)
    return _dedup_system(n, m, rows, {
        "system": "STI",
        "sigma_count": len(tuples),
    }, lambda spec: InequalityTag("STI", *spec))


def _chain_products(elems: list[WeylElement], mul, sigma, m: int,
                    top: int) -> dict:
    """Products of the sorted m-multisets of basis elements whose lengths
    sum to at most top, in lexicographic order, each prefix multiplied
    once.  The algebras are graded with top degree ``top``, so every other
    multiset has product zero.  Lengths must not decrease along elems."""
    out = {}

    def walk(combo: tuple[int, ...], start: int, total: int,
             element: Element) -> None:
        if len(combo) == m:
            out[combo] = element
            return
        left = m - len(combo)
        for i in range(start, len(elems)):
            length = elems[i].length
            # every later factor is at least this long
            if total + left * length > top:
                break
            walk(combo + (i,), i, total + length,
                 mul(element, sigma(i)) if combo else sigma(i))

    walk((), 0, 0, {})
    return out


_KM_KINDS = ("at", "gr-at", "b1", "b2", "b", "gr-b1", "gr-b2", "gr-b")


def gen_km(n: int, m: int, kind: str = "at") -> InequalitySystem:
    """Inequality system carried by nonzero m-fold structure constants.

    For a tuple (x_1..x_m; y) with nonzero constant, the scalar inequality
    says <mu, y(z_l)> <= sum_i <lambda_i, x_i(z_l)>; lambda slots store the
    antipodal vertex so everything reads as a <= 0 sum.  The slot layout is
    (lambda_1..lambda_m, mu), so these systems have m+1 slots.

    Kinds: the full algebra ("at"), its associated graded ("gr-at"), the
    one-sided subalgebras ("b1", "b2") and their union ("b"), and graded
    one-sided variants ("gr-b1", "gr-b2", "gr-b").  Graded one-sided systems
    pair only against the vertex type their Grassmannian carries and are
    tagged "BK"; everything else pairs against both types and is tagged
    "KM".  Dominance of each slot is an ambient assumption, not an
    inequality row.
    """
    if kind not in _KM_KINDS:
        raise InvalidParameterError(f"unknown kind {kind!r}")
    if m < 1:
        raise InvalidParameterError("need at least one factor")
    if kind == "b":
        return _merge_km(n, m, ("b1", "b2"), "KM:b")
    if kind == "gr-b":
        return _merge_km(n, m, ("gr-b1", "gr-b2"), "BK:gr-b")

    descr = field_init(n)
    ctx = AlgebraContext(descr)
    tag_system = "KM"
    if kind == "at":
        basis = ctx.basis()
        mul = ctx.mul
        targets = None
    elif kind == "gr-at":
        basis = ctx.basis()
        weighting = ConcaveWeighting.full(ctx)
        mul = lambda a, b: gr_product(weighting, a, b)
        targets = None
    else:
        side = int(kind[-1])
        basis = ctx.grassmannian_basis(side)
        targets = set(basis)
        if kind.startswith("gr-"):
            weighting = ConcaveWeighting.one_sided(ctx, side)
            mul = lambda a, b: gr_product(weighting, a, b)
            tag_system = "BK"
        else:
            mul = ctx.mul
    if tag_system == "BK":
        ls = (3 - side,)
    else:
        ls = (1, 2)

    products = _chain_products(basis, mul, lambda i: ctx.sigma(basis[i]), m,
                               ctx.n_t)
    # per l: the lambda-slot value of each basis element, and the mu-slot
    # table; every permutation's key is read off these
    tables = [(l, _vertex_table(n, l)) for l in ls]
    slot_values = [(l, [antipode(n, mu[x]) for x in basis], mu)
                   for l, mu in tables]

    def rows():
        for combo, element in products.items():
            support = [y for y, c in element.items()
                       if c and (targets is None or y in targets)]
            if not support:
                continue
            for perm in sorted(distinct_orderings(combo)):
                heads = [(l, tuple(lam[p] for p in perm), mu)
                         for l, lam, mu in slot_values]
                for y in support:
                    for l, head, mu in heads:
                        yield head + (mu[y],), (l, perm, y)

    def make_tag(spec):
        l, perm, y = spec
        return InequalityTag(tag_system, l,
                             tuple(basis[p] for p in perm) + (y,))

    return _dedup_system(n, m + 1, rows(), {
        "system": f"{tag_system}:{kind}",
        "m": m,
        "kind": kind,
        "dominance": "all slots assumed dominant; not inequality rows",
    }, make_tag)


def _merge_km(n: int, m: int, kinds: tuple[str, ...],
              label: str) -> InequalitySystem:
    parts = [gen_km(n, m, k) for k in kinds]
    tagged = []
    for part in parts:
        tagged.extend((q.key, q.tag) for q in part.inequalities)
    return _dedup_system(n, m + 1, tagged, {
        "system": label,
        "m": m,
        "kind": label.split(":")[1],
        "dominance": parts[0].meta["dominance"],
    })


def theta_system(system: InequalitySystem) -> InequalitySystem:
    """Push a (lambda_1..lambda_m, mu) system through the star of the first
    m slots; involutive on key sets."""
    g = _group(system.n)
    tagged = []
    for q in system.inequalities:
        key = tuple(g.star_index(k) for k in q.key[:-1]) + (q.key[-1],)
        tagged.append((key, q.tag))
    meta = dict(system.meta)
    meta["theta"] = not meta.get("theta", False)
    meta.pop("merged", None)
    meta.pop("count", None)
    return _dedup_system(system.n, system.slots, tagged, meta)


def a1_product_system(m: int = 3) -> InequalitySystem:
    """Direct n = 2 oracle: two independent one-variable triangle systems.

    For each slot i and each coordinate, the weight at i may not exceed the
    sum of the others: key 0/2 pattern for the first ray, 1/3 for the second.
    """
    if m < 2:
        raise InvalidParameterError("need at least two weight slots")
    tagged = []
    for i in range(m):
        for base in (0, 1):
            key = [base + 2] * m
            key[i] = base
            words = tuple(IDENTITY for _ in range(m))
            tagged.append((tuple(key), InequalityTag("WTI", base + 1, words,
                                                     (i, (i + 1) % m))))
    return _dedup_system(2, m, tagged, {"system": "A1xA1"})


# -- membership ---------------------------------------------------------------

@dataclass
class MembershipResult:
    member: bool
    violated: LinearInequality | None = None
    value: FieldElement | None = None


def weight_pairs(n: int, weights: Sequence[DominantWeight]) -> list:
    """The (a, b) coordinates of each weight in the small field."""
    k = small_field(n)
    return [(k.from_rational(w.a), k.from_rational(w.b)) for w in weights]


def _eval_row(row: tuple, pairs: list) -> FieldElement:
    """Pair a row with (a, b) coordinates; zero coordinates cost no product."""
    return dot(row, itertools.chain.from_iterable(pairs), row[0].descr.zero)


def row_value(n: int, key: tuple[int, ...], pairs: list) -> FieldElement:
    """The row of ``key`` at small-field (a, b) pairs; 0 for ()."""
    return dot(inequality_row(n, key), itertools.chain.from_iterable(pairs),
               small_field(n).zero)


def row_values(system: InequalitySystem,
               weights: Sequence[DominantWeight]) -> list[FieldElement]:
    """Evaluate every row at a weight tuple, in generation order.

    A positive value means the row is violated; all values strictly
    negative means the point lies in the cone's interior.
    """
    if len(weights) != system.slots:
        raise InvalidParameterError(
            f"expected {system.slots} weights, got {len(weights)}")
    pairs = weight_pairs(system.n, weights)
    return [_eval_row(system.row(q.key), pairs) for q in system.inequalities]


def is_member(system: InequalitySystem, weights: Sequence[DominantWeight]) -> MembershipResult:
    """First-violation membership test; weights must be dominant."""
    if len(weights) != system.slots:
        raise InvalidParameterError(
            f"expected {system.slots} weights, got {len(weights)}")
    for s, w in enumerate(weights):
        if not w.is_dominant():
            raise DomainError(f"weight at slot {s} is not dominant")
    pairs = weight_pairs(system.n, weights)
    return evaluate_point(system, pairs)


def evaluate_point(system: InequalitySystem, pairs: list) -> MembershipResult:
    """Membership for small-field coordinate pairs (internal form).

    Column q of the dual matrix is minus row q, so row q holds at the point
    z exactly when z.column >= 0.  ``dot_sign`` signs that product in
    floats where the system's float image proves the sign, else exactly;
    the first violated row is returned with its exact value.
    """
    zero = small_field(system.n).zero
    z = list(itertools.chain.from_iterable(pairs))
    z_image = approx_vector(z)
    vals, errs = system.dual_image()
    for q, col, col_vals, col_errs in zip(
            system.inequalities, zip(*system.dual_matrix()), zip(*vals),
            zip(*errs)):
        if dot_sign(col, z, zero, (col_vals, col_errs), z_image) < 0:
            return MembershipResult(False, q, _eval_row(system.row(q.key),
                                                        pairs))
    return MembershipResult(True)


# -- exact cone LP ------------------------------------------------------------

@dataclass
class ConeLPResult:
    status: str  # "optimal" | "infeasible"
    optimum: FieldElement | None = None
    witness: list | None = None  # (a, b) small-field pair per slot


def lp_optimize(system: InequalitySystem, row: Sequence) -> ConeLPResult:
    """Maximize a covector row over the solution cone of the system.

    The cone lives in dominant coordinates (all 2*slots variables >= 0) and
    the coordinate sum is pinned to 1, which bounds the cone section, so the
    answer is "optimal" or "infeasible".  Solved through the dual so the
    tableau height stays at 2*slots.  The returned vertex is re-checked
    exactly here, apart from the solver: it lies on the section, satisfies
    every row and attains the optimum.  That vertex alone certifies a facet
    in the audit and a separation in a cone comparison.
    """
    fld = small_field(system.n)
    zero, one = fld.zero, fld.one
    obj = [c + zero for c in row]
    rhs = [-c for c in obj]
    cost = [zero] * len(system.inequalities) + [-one, one]

    res = lp_solve(system.dual_matrix(), rhs, cost, zero=zero,
                   approx=system.dual_image())
    if res.status != "optimal":
        # the section is bounded, so by duality an unbounded or infeasible
        # dual means an empty section
        return ConeLPResult("infeasible")

    optimum = -res.optimum
    z = res.dual
    witness = [(z[2 * s], z[2 * s + 1]) for s in range(system.slots)]
    if any(v < zero for v in z):
        raise VerificationError("vertex has a negative coordinate")
    if sum(z, zero) != one:
        raise VerificationError("vertex normalization is off")
    if not evaluate_point(system, witness).member:
        raise VerificationError("vertex violates a cone constraint")
    if _eval_row(obj, witness) != optimum:
        raise VerificationError("vertex does not attain the LP optimum")
    return ConeLPResult("optimal", optimum, witness)


# -- redundancy audit ---------------------------------------------------------

@dataclass
class AuditEntry:
    inequality: LinearInequality
    status: str  # "facet" | "redundant"
    witness: list | None


@dataclass
class AuditReport:
    entries: list[AuditEntry]

    @property
    def facets(self) -> int:
        return sum(1 for e in self.entries if e.status == "facet")

    @property
    def redundant(self) -> int:
        return sum(1 for e in self.entries if e.status == "redundant")


def redundancy_audit(system: InequalitySystem) -> AuditReport:
    """Classify every inequality as facet-defining or implied by the rest.

    Row q is a facet when maximizing it over the other rows' cone section
    gives a positive optimum.  ``proven_slot_classes`` proves once that a
    slot permutation within its classes maps the system onto itself, so
    one LP per orbit representative (``_canon_key``) settles the whole
    orbit.  Every other member takes the representative's status, and its
    witness is the representative's vertex with each class's slots
    permuted onto the member's, unchecked: it is optimal for the member's
    row over the system without the member, with the same value.
    """
    zero = small_field(system.n).zero
    classes = proven_slot_classes(system)
    index = {q.key: idx for idx, q in enumerate(system.inequalities)}
    solved: dict[tuple, ConeLPResult] = {}
    entries = []
    for q in system.inequalities:
        rep = _canon_key(q.key, classes)
        res = solved.get(rep)
        if res is None:
            res = lp_optimize(system.without(index[rep]), system.row(rep))
            solved[rep] = res
        if res.status != "optimal":
            entries.append(AuditEntry(q, "redundant", None))
            continue
        witness = res.witness
        if rep != q.key:
            witness = _permuted(witness, q.key, classes)
        status = "facet" if res.optimum > zero else "redundant"
        entries.append(AuditEntry(q, status, witness))
    return AuditReport(entries)


# -- cone comparison ----------------------------------------------------------

@dataclass
class ImplicationEntry:
    inequality: LinearInequality
    status: str  # "implied" | "separates"
    method: str  # "duplicate" | "dominated" | "lp" | "orbit"
    witness: list | None = None
    via: tuple | None = None


@dataclass
class ConeEqualityCertificate:
    equal: bool
    forward: list[ImplicationEntry]
    backward: list[ImplicationEntry]
    counterexample: ImplicationEntry | None = None


def slot_classes(system: InequalitySystem) -> tuple[tuple[int, ...], ...]:
    """The slot classes of size >= 2 under s ~ t: swapping slots s and t
    maps the key set onto itself.  Since (i k) = (j k)(i j)(j k), ~ is an
    equivalence, so each slot is tested against each class's first slot."""
    keys = system.key_set
    classes: list[list[int]] = []
    for t in range(system.slots):
        for cls in classes:
            s = cls[0]
            if all(k[:s] + (k[t],) + k[s + 1:t] + (k[s],) + k[t + 1:] in keys
                   for k in keys):
                cls.append(t)
                break
        else:
            classes.append([t])
    return tuple(tuple(c) for c in classes if len(c) > 1)


def proven_slot_classes(system: InequalitySystem) -> tuple[tuple[int, ...], ...]:
    """``slot_classes(system)``, proven apart from the loop that found them:
    each adjacent transposition (cls[i], cls[i+1]) maps the key set onto
    itself, so every permutation within the classes, which those
    transpositions generate, does too.  Raises VerificationError naming the
    two slots of a transposition that does not."""
    classes = slot_classes(system)
    keys = system.key_set
    for cls in classes:
        for s, t in zip(cls, cls[1:]):
            for k in keys:
                swapped = list(k)
                swapped[s], swapped[t] = k[t], k[s]
                if tuple(swapped) not in keys:
                    raise VerificationError(
                        f"swapping slots {s} and {t} does not map the key "
                        f"set onto itself (key {k})")
    return classes


def _canon_key(key: tuple, classes: tuple) -> tuple:
    """The orbit representative: each class's values sorted in place."""
    out = list(key)
    for cls in classes:
        for s, v in zip(cls, sorted(key[s] for s in cls)):
            out[s] = v
    return tuple(out)


def _permuted(witness: list, key: tuple, classes: tuple) -> list:
    """The per-slot witness of _canon_key(key) moved onto key's slots:
    within a class, the slot holding the i-th smallest value of key gets
    the pair of the class's i-th slot, where the representative holds that
    value."""
    out = list(witness)
    for cls in classes:
        for s, t in zip(cls, sorted(cls, key=key.__getitem__)):
            out[t] = witness[s]
    return out


def _dominated_by(chart: tuple, key: tuple, other: tuple) -> bool:
    """Is row(key) entrywise <= row(other)?  Exactly when each slot's vertex
    is at least as far as the other's from both ends of the chart."""
    return all(chart[a][0] >= chart[b][0] and chart[a][1] >= chart[b][1]
               for a, b in zip(key, other))


def _implied_over(target: InequalitySystem,
                  key: tuple) -> tuple[str, object, object]:
    """Is  row(key) <= 0  forced by the target system on dominant points?"""
    result = target._verdicts.get(key)
    if result is not None:
        return result
    chart = vertex_chart(target.n)
    if key in target.key_set:
        result = ("implied", "duplicate", None)
    elif any(_dominated_by(chart, key, q.key) for q in target.inequalities):
        result = ("implied", "dominated", None)
    else:
        res = lp_optimize(target, target.row(key))
        if res.status == "optimal" and res.optimum > small_field(target.n).zero:
            result = ("separates", "lp", res)
        else:
            result = ("implied", "lp", res)
    target._verdicts[key] = result
    return result


def _direction(
    source: InequalitySystem, target: InequalitySystem,
) -> tuple[list[ImplicationEntry], ImplicationEntry | None]:
    classes = proven_slot_classes(target)
    reps: dict[tuple, tuple] = {}
    entries = []
    for q in source.inequalities:
        rep = _canon_key(q.key, classes)
        if rep in reps:
            entries.append(ImplicationEntry(q, reps[rep][0], "orbit",
                                            via=rep))
            continue
        status, method, res = _implied_over(target, rep)
        reps[rep] = (status, method)
        entry = ImplicationEntry(q, status, method, via=rep if rep != q.key else None)
        if res is not None:
            entry.witness = res.witness
        entries.append(entry)
        if status == "separates":
            return entries, entry
    return entries, None


def cone_equal(sys_a: InequalitySystem,
               sys_b: InequalitySystem) -> ConeEqualityCertificate:
    """Mutual implication of two systems over the dominant region.

    Each direction reduces the source rows to orbit representatives under
    the target's slot classes, read off its key set and proven once per
    direction by ``proven_slot_classes`` (a wrong class raises
    VerificationError).  Every representative is settled by duplicate
    lookup, entrywise domination, or an exact LP, and the other members of
    its orbit inherit that verdict unchecked.  A target system remembers
    the verdicts asked of it, so comparing several systems against one
    target object solves each LP once.
    """
    if sys_a.n != sys_b.n or sys_a.slots != sys_b.slots:
        raise InvalidParameterError("systems are not comparable")
    forward, bad = _direction(sys_a, sys_b)
    if bad is not None:
        return ConeEqualityCertificate(False, forward, [], bad)
    backward, bad = _direction(sys_b, sys_a)
    if bad is not None:
        return ConeEqualityCertificate(False, forward, backward, bad)
    return ConeEqualityCertificate(True, forward, backward)


# -- exports ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _image_powers(descr: FieldDescriptor, degree: int) -> tuple:
    """1, c, ..., c^(degree-1) for the ambient image c = two_cos(2) of the
    small field's generator 2cos(pi/n)."""
    image, powers = descr.two_cos(2), [descr.one]
    for _ in range(degree - 1):
        powers.append(powers[-1] * image)
    return tuple(powers)


def embed_small(descr: FieldDescriptor, value: FieldElement) -> FieldElement:
    """Evaluate a small-field element at the ambient image of its generator
    2cos(pi/n)."""
    if value.descr is descr:
        return value
    powers = _image_powers(descr, value.descr.degree)
    return dot(value.num, powers, descr.zero) / value.den


def witness_writer(descr: FieldDescriptor):
    """Witness -> JSON for one export, embedding each distinct (a, b) pair
    once (orbit members carry their representative's pairs); equal pairs
    share one JSON list."""
    done: dict[tuple, list] = {}

    def write(witness: list) -> list:
        for pair in witness:
            if pair not in done:
                done[pair] = [embed_small(descr, v).to_json() for v in pair]
        return [done[pair] for pair in witness]
    return write


def system_to_json(system: InequalitySystem) -> dict:
    descr = field_init(system.n)
    return {
        "n": system.n,
        "m": system.slots,
        "field": descr.to_json(),
        "meta": dict(system.meta),
        "inequalities": [q.to_json(descr) for q in system.inequalities],
    }


def audit_to_json(system: InequalitySystem, report: AuditReport) -> dict:
    write_witness = witness_writer(field_init(system.n))
    entries = []
    for e in report.entries:
        doc = {"inequality_tag": e.inequality.tag.to_json(),
               "key": list(e.inequality.key),
               "status": e.status}
        if e.witness is not None:
            doc["witness"] = write_witness(e.witness)
        entries.append(doc)
    return {
        "n": system.n, "m": system.slots,
        "facets": report.facets, "redundant": report.redundant,
        "entries": entries,
    }


def equality_to_json(sys_a: InequalitySystem, sys_b: InequalitySystem,
                     cert: ConeEqualityCertificate) -> dict:
    write_witness = witness_writer(field_init(sys_a.n))

    def entry_doc(e: ImplicationEntry) -> dict:
        doc = {"inequality_tag": e.inequality.tag.to_json(),
               "key": list(e.inequality.key),
               "status": e.status,
               "method": e.method}
        if e.via is not None:
            doc["via"] = list(e.via)
        if e.witness is not None:
            doc["witness"] = write_witness(e.witness)
        return doc

    doc = {
        "n": sys_a.n, "m": sys_a.slots,
        "equal": cert.equal,
        "forward": [entry_doc(e) for e in cert.forward],
        "backward": [entry_doc(e) for e in cert.backward],
    }
    if cert.counterexample is not None:
        doc["counterexample"] = entry_doc(cert.counterexample)
    return doc


def system_to_latex(system: InequalitySystem) -> str:
    """Readable rendering; the JSON export is the source of truth."""
    lines = [
        r"% inequalities read as sums of pairings with 2n-gon vertices",
        r"\begin{align*}"]
    for q in system.inequalities:
        terms = [rf"\langle \lambda_{{{s + 1}}}, v_{{{k}}} \rangle"
                 for s, k in enumerate(q.key)]
        lines.append(" + ".join(terms) + r" &\le 0 \\")
    lines.append(r"\end{align*}")
    return "\n".join(lines)
