"""Finite-stage free constructions of chamber graphs with girth >= 2n.

A rank-2 incidence geometry with dihedral symmetry of order 2n is, at the
level of its vertex-edge graph, a bipartite graph of girth at least 2n in
which any two elements lie at distance at most n.  This module grows such
graphs from a seed 2n-cycle by fresh paths, and refuses any path closing a
cycle shorter than 2n, so girth >= 2n is an invariant of growth.
``ChamberGraph.add_path`` decides a single join by one bounded BFS
(``ChamberGraph.distances``).  A batch of joins read off one distance
snapshot, a pair at distance d in {n, n+1} getting a path of length
L = 2n - d, is decided without one by ``ChamberGraph._join_snapshot``: a
new cycle through such a path is shorter than 2n exactly when an earlier
path of the batch on the same pair has L_j + L_i < 2n.  Two free
operations are built on it:

* ``bar_step`` completes distance-(n+1) and distance-n vertex pairs by
  fresh arcs, pushing the diameter toward n without ever creating a cycle
  shorter than 2n;
* ``attach_mpod`` plants a new center at prescribed distances from a tuple
  of mutually antipodal edges, which is the targeted way to make a ball
  intersection nonempty.

Antipodality, ball-intersection counts, chart keys and geodesics are all
read from tables of ``ChamberGraph.distances``, one bounded multi-source
BFS.  All-pairs questions (the diameter, the pairs ``bar_step`` joins)
are read from ``ChamberGraph.balls``, which grows every vertex's ball at
once as a bit set.  ``girth`` audits a finished graph by its own BFS from
each source over the ids >= it.  It skips a source with fewer than two
larger neighbours, since a cycle's least vertex has two larger cycle
neighbours.  It expands depth a only while 2a+2 beats the best cycle,
since in a bipartite graph an edge seen from depth a closes 2a, found one
level up, or 2a+2.

On top of the graphs it evaluates weighted-configuration slopes and
searches for minimal-slope vertices.  A slope is minus one row of the
linear inequality systems in `cones`, read at the vertex's chart key (its
2n-gon position against each chamber), so `cones.row_value` does every
pairing exactly in the small cyclotomic field.
"""

from __future__ import annotations

import bisect
import copy as _copy
import csv
import io
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations_with_replacement, compress, \
    count, islice, repeat
from operator import or_
from typing import Iterator

from .cones import (DominantWeight, gen_wti, is_member, row_value, small_field,
                    vertex_chart, weight_pairs)
from .errors import DomainError, InvalidParameterError, VerificationError
from .field import FieldElement
from .prering import GrassPreRing

Chamber = tuple[int, int]

# Sources per block of ``ChamberGraph.balls``: its balls hold at most this
# many bits each, so a ladder of V balls holds O(V * BALL_BLOCK) bits.
# Builds within the default budget fit in one block: each stage adds at
# most 64 * (2n-3) vertices, and the largest, n = 8 with 3 stages and
# m = 8, has 2,686.
BALL_BLOCK = 4096


class ChamberGraph:
    """Bipartite graph with vertex types in {1, 2} and a construction log.

    Vertices are integers 0..V-1; ``types[v]`` is the type of v and ``adj[v]``
    the sorted neighbor list.  All randomized choices go through ``self.rng`` so a
    fixed seed plus a fixed operation sequence reproduces the graph and the
    log byte for byte.
    """

    def __init__(self, n: int, seed: int = 0):
        if n < 2:
            raise InvalidParameterError("n must be at least 2")
        self.n = n
        self.seed = seed
        self.types: list[int] = []
        self.adj: list[list[int]] = []
        self.log: list[dict] = []
        self.rng = random.Random(seed)

    # -- construction primitives -------------------------------------------

    @classmethod
    def apartment(cls, n: int, seed: int = 0) -> "ChamberGraph":
        """A single 2n-cycle, vertex k of type (k mod 2) + 1."""
        g = cls(n, seed)
        for k in range(2 * n):
            g.add_vertex(1 + (k % 2))
        for k in range(2 * n):
            g.add_edge(k, (k + 1) % (2 * n))
        g.log.append({"op": "apartment", "n": n, "seed": seed})
        return g

    def copy(self) -> "ChamberGraph":
        g = ChamberGraph(self.n, self.seed)
        g.types = list(self.types)
        g.adj = [list(a) for a in self.adj]
        g.log = list(self.log)  # entries are never mutated once appended
        g.rng.setstate(self.rng.getstate())
        return g

    @property
    def num_vertices(self) -> int:
        return len(self.types)

    def add_vertex(self, vertex_type: int) -> int:
        if vertex_type not in (1, 2):
            raise InvalidParameterError("vertex type must be 1 or 2")
        self.types.append(vertex_type)
        self.adj.append([])
        return len(self.types) - 1

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise InvalidParameterError("no loops allowed")
        if self.types[u] == self.types[v]:
            raise InvalidParameterError("edge endpoints must have opposite types")
        if v in self.adj[u]:
            raise InvalidParameterError("duplicate edge")
        bisect.insort(self.adj[u], v)
        bisect.insort(self.adj[v], u)

    def add_path(self, u: int, v: int, length: int) -> list[int]:
        """Join u to v by a fresh path with ``length`` edges; returns new ids.

        Its shortest new cycle has length ``length + d(u, v)``, so the path
        is refused, before any mutation, exactly when d(u, v) <= lim with
        lim = 2n-1-length: one bounded BFS from u to depth lim decides it.
        No search runs when lim < 1, so a closed path from u back to u of
        length >= 2n is accepted.
        """
        if length < 1:
            raise InvalidParameterError("path length must be positive")
        if (self.types[u] + self.types[v] + length) % 2 != 0:
            raise InvalidParameterError("path length incompatible with endpoint types")
        lim = 2 * self.n - 1 - length
        if lim >= 1:
            d = self.distances(u, limit=lim)[v]
            if d is not None:
                raise VerificationError(f"path would close a {length + d}-cycle < {2 * self.n}")
        return self._lay_path(u, v, length)

    def _join_snapshot(self, joins: list[tuple[int, int, int]]) -> None:
        """Lay the joins read off one distance snapshot, without a search.

        Each (u, v, d) has d = d(u, v) in {n, n+1} in the graph before the
        batch (a lower bound on it also does), and gets a fresh path of
        length L = 2n - d, in order.  A shortest new cycle through a path
        P_i is P_i plus a u_i-v_i route that traverses whole earlier paths
        P_j (each L_j >= n-1) between old-graph stretches.  Through no
        earlier path the route is >= d_i; through one on another pair it is
        >= L_j + 1 >= n, so the cycle is >= 2n-1, hence >= 2n by parity;
        through two or more the cycle is >= 3n-3, which is >= 2n, or 3, hence
        4, at n = 2.  So P_i closes a cycle shorter than 2n exactly when
        d_i + L_i < 2n (never, as L_i = 2n - d_i) or an earlier P_j on the
        same pair has L_j + L_i < 2n: these are the joins ``add_path``
        refuses, refused here with its message before any path is laid.
        """
        n = self.n
        shortest: dict[tuple[int, int], int] = {}  # per pair, min(d, its paths' lengths)
        for u, v, d in joins:
            if d not in (n, n + 1):
                raise InvalidParameterError(f"join distance {d} outside {n}..{n + 1}")
            length = 2 * n - d
            if (self.types[u] + self.types[v] + length) % 2 != 0:
                raise InvalidParameterError("path length incompatible with endpoint types")
            pair = (min(u, v), max(u, v))
            prev = shortest.get(pair, d)
            if prev + length < 2 * n:
                raise VerificationError(f"path would close a {length + prev}-cycle < {2 * n}")
            shortest[pair] = min(prev, length)
        for u, v, d in joins:
            self._lay_path(u, v, 2 * n - d)

    def _lay_path(self, u: int, v: int, length: int) -> list[int]:
        """Join u to v by a fresh path with ``length`` edges; the caller has
        checked its parity and its girth bound.  A fresh vertex's neighbours
        are the ones before and after it on the path, so only u and v take
        a neighbour by insertion."""
        if length == 1:
            self.add_edge(u, v)
            return []
        new = [self.add_vertex(1 + (self.types[u] + k) % 2) for k in range(length - 1)]
        ends = [u, *new, v]
        for prev, w, nxt in zip(ends, new, ends[2:]):
            self.adj[w] = [prev, nxt] if prev < nxt else [nxt, prev]
        bisect.insort(self.adj[u], new[0])
        bisect.insort(self.adj[v], new[-1])
        return new

    def edges(self) -> list[Chamber]:
        out = []
        for u in range(self.num_vertices):
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return sorted(out)

    # -- metric queries -----------------------------------------------------

    def distances(self, *sources: int, limit: int | None = None) -> list[int | None]:
        """Distance from each vertex to its nearest source, by one BFS.

        None for a vertex farther than ``limit`` or unreachable.  Every
        single- and multi-source distance table of this module comes from
        here, the ``add_path`` guard of a single join included.  All-pairs
        questions go to ``balls``; only ``girth`` searches on its own: its
        BFS sees ids >= the source, skips a source with fewer than two
        larger neighbours (a cycle's least vertex has two), and expands
        depth a only while 2a+2 < best (by bipartiteness an edge seen from
        depth a closes 2a, found one level up, or 2a+2).  The joins that
        ``bar_step`` and ``_census_saturation`` read off one snapshot need
        no search: a path of length L = 2n - d on a pair at distance d in
        {n, n+1} closes a cycle shorter than 2n only with an earlier path
        of the batch on the same pair (``_join_snapshot``).
        """
        adj = self.adj
        dist: list[int | None] = [None] * self.num_vertices
        for s in sources:
            dist[s] = 0
        frontier = list(sources)
        depth = 0
        while frontier and (limit is None or depth < limit):
            depth += 1
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if dist[y] is None:
                        dist[y] = depth
                        nxt.append(y)
            frontier = nxt
        return dist

    def balls(self) -> Iterator[tuple[range, Iterator[list[int]]]]:
        """All-pairs distances as ball ladders, one per block of sources.

        Yields (block, ladder) for the blocks ``range(lo, lo + BALL_BLOCK)``
        of vertex ids.  At radius r = 0, 1, 2, ... (without end) the ladder
        yields a list with one int per vertex v, whose bit u - lo is set
        exactly when d(u, v) <= r for the source u in the block.  Radius
        r + 1 ORs each vertex's ball with its neighbours' balls at radius r:
        one pass over the adjacency lists, each OR word-parallel over the
        block.  Take each ladder as far as needed before the next block, so
        that a few lists of V ints of at most BALL_BLOCK bits are live.
        """
        adj = self.adj

        def ladder(block: range) -> Iterator[list[int]]:
            ball = [0] * len(adj)
            for bit, u in enumerate(block):
                ball[u] = 1 << bit
            while True:
                yield ball
                ball = [reduce(or_, map(ball.__getitem__, a), b) for a, b in zip(adj, ball)]

        for lo in range(0, len(adj), BALL_BLOCK):
            block = range(lo, min(lo + BALL_BLOCK, len(adj)))
            yield block, ladder(block)

    def shortest_path(self, u: int, v: int) -> list[int] | None:
        """A shortest u-v path, None when v is unreachable from u.

        One ``distances(v)`` table; each step goes to the smallest-id
        neighbour one closer to v.  Two distinct geodesics of length d < n
        would close a cycle of length at most 2d < 2n, so under girth >= 2n
        a path shorter than n is the only shortest one.
        """
        dist = self.distances(v)
        if dist[u] is None:
            return None
        path = [u]
        while path[-1] != v:
            x = path[-1]
            path.append(next(y for y in self.adj[x] if dist[y] == dist[x] - 1))
        return path

    def chamber_distances(self, chamber: Chamber) -> list[int | None]:
        """min(d(., u), d(., v)) for the edge (u, v)."""
        return self.distances(*chamber)

    def check_chamber(self, chamber: Chamber) -> Chamber:
        u, v = chamber
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            raise InvalidParameterError(f"chamber {chamber} has an unknown vertex")
        if v not in self.adj[u]:
            raise InvalidParameterError(f"chamber {chamber} is not an edge")
        if self.types[u] == 1:
            return (u, v)
        return (v, u)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "vertices": [{"id": v, "type": self.types[v]} for v in range(self.num_vertices)],
            "edges": [[u, v] for u, v in self.edges()],
            "log": _copy.deepcopy(self.log),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ChamberGraph":
        """Inverse of ``to_json``; a malformed document raises InvalidParameterError.

        Numbers must be JSON integers, the log a list of JSON objects, and
        the graph must have girth >= 2n, the invariant that ``add_path``
        keeps for grown graphs.
        """
        try:
            g = cls(json_int(doc["n"], "n"), json_int(doc.get("seed", 0), "seed"))
            order = sorted(doc["vertices"], key=lambda rec: json_int(rec["id"], "vertex id"))
            for expect, rec in enumerate(order):
                if rec["id"] != expect:
                    raise InvalidParameterError("vertex ids must be 0..V-1")
                g.add_vertex(json_int(rec["type"], "vertex type"))
            for u, v in doc["edges"]:
                u, v = json_int(u, "edge endpoint"), json_int(v, "edge endpoint")
                if not (0 <= u < g.num_vertices and 0 <= v < g.num_vertices):
                    raise InvalidParameterError(f"edge ({u}, {v}) has an unknown vertex")
                g.add_edge(u, v)
            log = doc.get("log", [])
            if type(log) is not list or any(type(e) is not dict for e in log):
                raise TypeError("log must be a list of JSON objects")
            g.log = _copy.deepcopy(log)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParameterError(f"malformed graph document: {exc!r}") from exc
        shortest = girth(g)
        if shortest < 2 * g.n:
            raise InvalidParameterError(f"graph has a {shortest}-cycle < {2 * g.n}")
        return g


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; TypeError for a float, bool or string."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


# -- global metrics ----------------------------------------------------------


def girth(g: ChamberGraph) -> float:
    """Length of a shortest cycle, math.inf for a forest.

    A BFS from each source ``src`` over the vertices with ids >= src only;
    a non-tree edge at depths (a, b) certifies a closed non-backtracking
    walk of length a+b+1, which contains a cycle, so no BFS reports less
    than the girth.  If s is the smallest id on a shortest cycle C, the
    BFS from s sees all of C and reports |C|: some edge of C is not a
    tree edge, and its depths sum to at most |C|-1.  Two rules cut the
    search and keep the answer:

    * a source with fewer than two neighbours of larger id is skipped,
      since the least vertex of a cycle has two cycle neighbours, both
      larger, and every cycle is found from its least vertex;
    * depth a is expanded only while 2a+2 < best.  A chamber graph is
      bipartite (``add_edge`` joins opposite types only), so an edge seen
      from depth a goes to depth a-1, closing 2a, found one level up, or
      to depth a+1, closing 2a+2.

    Growth never calls this, since ``add_path`` keeps girth >= 2n itself;
    it audits a finished graph independently.
    """
    adj = g.adj
    dist = [-1] * g.num_vertices
    parent = [-1] * g.num_vertices
    best = math.inf
    for src, a in enumerate(adj):
        if len(a) < 2 or a[-2] < src:
            continue
        dist[src] = 0
        seen = [src]
        frontier = [src]
        depth = 0
        while frontier and 2 * depth + 2 < best:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v < src:
                        continue
                    if dist[v] < 0:
                        dist[v] = depth + 1
                        parent[v] = u
                        nxt.append(v)
                    elif v != parent[u]:
                        best = min(best, depth + dist[v] + 1)
            seen += nxt
            frontier = nxt
            depth += 1
        for x in seen:
            dist[x] = parent[x] = -1
    return best


def graph_metrics(g: ChamberGraph) -> dict:
    """Girth, diameter and valence statistics; infinities when disconnected.

    The diameter comes from ``ChamberGraph.balls``: per block, the first
    radius at which every ball holds the whole block, and math.inf when a
    round adds no bit before that, since then some pair is unreachable.
    """
    if not g.num_vertices:
        raise InvalidParameterError("graph has no vertices")
    diameter = max(_fill_radius(ladder, [(1 << len(block)) - 1] * g.num_vertices)
                   for block, ladder in g.balls())
    valences = [len(a) for a in g.adj]
    return {
        "vertices": g.num_vertices,
        "edges": sum(valences) // 2,
        "girth": girth(g),
        "diameter": diameter,
        "valence_min": min(valences),
        "valence_max": max(valences),
        "valence_mean": sum(valences) / len(valences),
    }


def _fill_radius(ladder: Iterator[list[int]], full: list[int]) -> float:
    """First radius at which the ladder reaches ``full``; math.inf if it stalls first."""
    prev = None
    for radius, ball in enumerate(ladder):
        if ball == full:
            return radius
        if ball == prev:
            return math.inf
        prev = ball


# -- free growth operations --------------------------------------------------

_BIT = bytes.maketrans(b"01", b"\0\1")


def _set_bits(x: int, start: int) -> Iterator[int]:
    """start + i for each set bit i of x, ascending."""
    return compress(count(start), bin(x)[:1:-1].encode().translate(_BIT))


class _PairSequence(Sequence):
    """The pairs (u, v) with v a set bit of ``masks[u]``, in sorted order.

    Nothing is built per pair: a per-vertex prefix sum of popcounts finds
    the u of an index by bisection, and the bits of ``masks[u]`` its v.
    """

    def __init__(self, masks: list[int]):
        self.masks = masks
        self.ends = list(accumulate(mask.bit_count() for mask in masks))

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, i: int) -> Chamber:
        if not 0 <= i < len(self):
            raise IndexError("pair index out of range")
        u = bisect.bisect_right(self.ends, i)
        k = i - (self.ends[u - 1] if u else 0)
        return u, next(islice(_set_bits(self.masks[u], 0), k, None))

    def __iter__(self) -> Iterator[Chamber]:
        for u, mask in enumerate(self.masks):
            yield from zip(repeat(u), _set_bits(mask, 0))


def bar_step(g: ChamberGraph, cap: int = 64) -> ChamberGraph:
    """Complete far vertex pairs by fresh arcs; returns the grown copy.

    On a snapshot of the metric, every pair at distance n+1 is joined by a
    new path of length n-1 and every pair at distance n by a path of length
    n; both keep the graph bipartite and create only cycles of length 2n.
    At most ``cap`` pairs of each kind are processed per call (a seeded
    sample when there are more).  The "bar" log entry counts the joined
    and the skipped pairs of each kind.  Both pair lists, in (u, v) order
    with u < v, are read off the balls of radii n-1, n and n+1 of
    ``ChamberGraph.balls``: v is at distance n+1 from u when it lies in
    the ball of radius n+1 around u but not in the one of radius n.  Each
    list is a ``_PairSequence`` over one mask of such v per u, so only the
    sampled pairs are ever built.  The joins go to
    ``ChamberGraph._join_snapshot``: no two share a pair and every one has
    d + L = 2n, so its girth rule passes them without a search.
    """
    g2 = g.copy()
    n = g2.n
    far = [0] * g2.num_vertices
    near = [0] * g2.num_vertices
    for block, ladder in g2.balls():
        inner, mid, outer = islice(ladder, n - 1, n + 2)
        for u in range(block.stop - 1):
            # bits of the v in the block with v > u, placed at bit v
            skip = max(u + 1 - block.start, 0)
            far[u] |= (outer[u] & ~mid[u]) >> skip << (block.start + skip)
            near[u] |= (mid[u] & ~inner[u]) >> skip << (block.start + skip)

    def pick(pairs: _PairSequence) -> tuple[list[Chamber], int]:
        if len(pairs) <= cap:
            return list(pairs), 0
        chosen = sorted(g2.rng.sample(pairs, cap))
        return chosen, len(pairs) - cap

    far_chosen, far_skipped = pick(_PairSequence(far))
    near_chosen, near_skipped = pick(_PairSequence(near))
    g2._join_snapshot([(u, v, n + 1) for u, v in far_chosen]
                      + [(u, v, n) for u, v in near_chosen])
    g2.log.append(
        {
            "op": "bar",
            "joined_far": len(far_chosen),
            "joined_near": len(near_chosen),
            "skipped_far": far_skipped,
            "skipped_near": near_skipped,
        }
    )
    return g2


def _opposite(n: int, table: list[int | None], b: Chamber) -> bool:
    """Is the edge b antipodal to the chamber whose distance table is given?
    Edges are antipodal when their closest endpoints are exactly n-1 apart."""
    return table[b[0]] is not None and min(table[b[0]], table[b[1]]) == n - 1


@dataclass
class PodReport:
    graph: ChamberGraph
    center: int


def attach_mpod(
    g: ChamberGraph,
    chambers: list[Chamber],
    radii: list[int],
    center_type: int,
) -> PodReport:
    """Plant a fresh center at distance radii[i] from each chamber.

    Preconditions: the chambers are mutually antipodal, 0 < r_i <= n-1, and
    r_i + r_j >= n for all i != j.  Each leg ends at the chamber endpoint
    whose type matches the parity of the leg length, which is exactly what
    makes the center's nearest chamber point have the prescribed type.
    The girth bound survives because any new cycle runs through two legs
    and a path between distinct chambers, of total length at least
    r_i + r_j + (n-1) >= 2n - 1, hence (bipartite) at least 2n.
    """
    if center_type not in (1, 2):
        raise InvalidParameterError("center type must be 1 or 2")
    if len(chambers) != len(radii):
        raise InvalidParameterError("one radius per chamber required")
    chambers = [g.check_chamber(c) for c in chambers]
    n = g.n
    for i, r in enumerate(radii):
        if not (0 < r <= n - 1):
            raise InvalidParameterError(f"radius {r} at slot {i} outside 1..{n - 1}")
    for i in range(len(chambers) - 1):
        table = g.chamber_distances(chambers[i])
        for j in range(i + 1, len(chambers)):
            if radii[i] + radii[j] < n:
                raise InvalidParameterError(
                    f"radii at slots {i} and {j} sum to {radii[i] + radii[j]} < {n}"
                )
            if not _opposite(n, table, chambers[j]):
                raise InvalidParameterError(f"chambers at slots {i} and {j} are not antipodal")

    g2 = g.copy()
    center = g2.add_vertex(center_type)
    for (x1, x2), r in zip(chambers, radii):
        # endpoint of type t with t = center_type + r mod 2 keeps the path bipartite
        target = x1 if (1 + center_type + r) % 2 == 0 else x2
        g2.add_path(center, target, r)
    dist = g2.distances(center)
    for (x1, x2), r in zip(chambers, radii):
        d = min(dist[x1], dist[x2])
        if d != r:
            raise VerificationError(f"pod center landed at distance {d} != {r}")
    g2.log.append(
        {
            "op": "pod",
            "chambers": [list(c) for c in chambers],
            "radii": list(radii),
            "center_type": center_type,
            "center": center,
        }
    )
    return PodReport(g2, center)


@dataclass
class TupleReport:
    graph: ChamberGraph
    chambers: list[Chamber]


def find_antipodal_tuple(g: ChamberGraph, m: int) -> TupleReport:
    """Grow the graph until it carries m mutually antipodal chambers.

    Greedy: keep the chambers found so far, scan existing edges for one
    antipodal to all of them, and if none exists attach a pod with all
    radii n-1 on the current tuple; its fresh center edge is antipodal to
    every chamber of the tuple (the center sits at distance exactly n-1,
    its new neighbor at n), so at most m-1 pods are attached.  Each scan
    reads one distance table per chosen chamber; an edge meeting a chosen
    chamber is at distance 0 from it.
    """
    if m < 1:
        raise InvalidParameterError("m must be positive")
    g2 = g.copy()
    n = g2.n
    chosen: list[Chamber] = []
    grown = False
    while len(chosen) < m:
        tables = [g2.chamber_distances(c) for c in chosen]
        found = next((e for e in g2.edges()
                      if all(_opposite(n, t, e) for t in tables)), None)
        if found is not None:
            chosen.append(g2.check_chamber(found))
            grown = False
            continue
        if grown:
            raise VerificationError("the pod's center edge is not antipodal to the tuple")
        grown = True
        pod = attach_mpod(g2, chosen, [n - 1] * len(chosen), 1)
        g2 = pod.graph
        mate = g2.add_vertex(2)
        g2.add_edge(pod.center, mate)
        g2.log.append({"op": "tuple-edge", "edge": [pod.center, mate]})
    for i in range(m - 1):
        table = g2.chamber_distances(chosen[i])
        if not all(_opposite(n, table, c) for c in chosen[i + 1:]):
            raise VerificationError("constructed tuple failed the antipodality check")
    g2.log.append({"op": "tuple", "chambers": [list(c) for c in chosen]})
    return TupleReport(g2, chosen)


# -- ball intersection census -------------------------------------------------


def ball_intersection_census(
    g: ChamberGraph,
    chambers: list[Chamber],
    radii: list[int],
    l: int,
) -> int:
    """Number of type-l vertices within distance radii[i] of every chamber.

    Each chamber's BFS stops at its radius."""
    if l not in (1, 2):
        raise InvalidParameterError("grassmannian index must be 1 or 2")
    if len(chambers) != len(radii):
        raise InvalidParameterError("one radius per chamber required")
    if any(r < 0 for r in radii):
        raise InvalidParameterError("radii must be nonnegative")
    tables = [g.distances(*g.check_chamber(c), limit=r) for c, r in zip(chambers, radii)]
    return sum(1 for row in zip(g.types, *tables) if row[0] == l and None not in row)


@dataclass
class CensusReport:
    graph: ChamberGraph
    counts: list[int]
    outcome: str
    certificate: tuple[int, int, int] | None = None


def _census_saturation(g: ChamberGraph, chambers: list[Chamber], l: int) -> ChamberGraph:
    """One deterministic completion round focused on the chamber tuple.

    ``census_rounds`` runs it only on the non-pod runs that no deficient
    opposite pair decides, the "1" runs of the classified regimes.  It
    applies the bar joins (distance n+1 pairs get an (n-1)-path, distance n
    pairs an n-path) but only to pairs among the chamber endpoints and the
    type-l vertices that are within n+1 of every chamber: exactly the pairs
    whose completion can change the census.  No cap, no sampling, so the
    frozen census classes converge reproducibly.  Every such pair contains
    a chamber endpoint, so one BFS to depth n+1 from each endpoint reads
    all their distances, and also the pool: a vertex is within n+1 of a
    chamber when it is within n+1 of one of its endpoints.  The joins run
    in sorted pair order through ``ChamberGraph._join_snapshot``, one per
    pair, so none is refused and no search runs.
    """
    n = g.n
    endpoints = {v for c in chambers for v in c}
    near = {v: g.distances(v, limit=n + 1) for v in endpoints}
    pool = endpoints.union(
        x for x in range(g.num_vertices) if g.types[x] == l
        and all(near[u][x] is not None or near[v][x] is not None for u, v in chambers))
    pairs = set()
    for v, dist in near.items():
        for u in pool:
            if u != v and dist[u] in (n, n + 1):
                pairs.add((min(u, v), max(u, v), dist[u]))
    g2 = g.copy()
    g2._join_snapshot(sorted(pairs))
    g2.log.append({"op": "census-saturation", "joined": len(pairs)})
    return g2


def census_rounds(
    g: ChamberGraph,
    chambers: list[Chamber],
    radii: list[int],
    l: int,
) -> CensusReport:
    """Decide the census outcome by proof, or track it over three growth rounds.

    The count on g comes first.  A pair i < j of opposite chambers with
    r_i + r_j < n - 1 decides "0" without growth: their closest endpoints
    are n - 1 apart, so every vertex x has d(x, c_i) + d(x, c_j) >= n - 1
    and lies outside one of the two balls, and girth >= 2n keeps that
    distance as the graph grows, since a shorter path would close a cycle
    of length at most 2n - 2 with a geodesic of g.  Such a run returns g,
    the one count and the certificate (i, j, n - 1) that
    ``check_census_certificate`` verifies; a nonzero count on g raises
    VerificationError.  Otherwise, when every radius pair sums to at least
    n, each round attaches a pod with the given radii (adding a fresh
    intersection point); when not, no pod with these radii is admissible,
    the count has a girth-forced finite bound, and the rounds run targeted
    completion steps (``_census_saturation``) until it stabilizes.  Outcome
    "growing" means strictly increasing counts across all rounds, otherwise
    the final stable count ("0" or "1").
    """
    n = g.n
    counts = [ball_intersection_census(g, chambers, radii, l)]
    certificate = _deficient_opposite_pair(g, chambers, radii)
    if certificate is not None:
        if counts[0]:
            raise VerificationError(f"deficient opposite pair {certificate[:2]} "
                                    f"meets {counts[0]} vertices")
        return CensusReport(g, counts, "0", certificate)
    can_pod = all(
        radii[i] + radii[j] >= n for i in range(len(radii)) for j in range(i + 1, len(radii))
    )
    for _ in range(3):
        if can_pod:
            g = attach_mpod(g, chambers, radii, l).graph
        else:
            g = _census_saturation(g, chambers, l)
        counts.append(ball_intersection_census(g, chambers, radii, l))
    if all(a < b for a, b in zip(counts, counts[1:])):
        outcome = "growing"
    else:
        outcome = str(counts[-1])
    return CensusReport(g, counts, outcome)


def _deficient_opposite_pair(g: ChamberGraph, chambers: list[Chamber],
                             radii: list[int]) -> tuple[int, int, int] | None:
    """The first pair i < j with r_i + r_j < n - 1 whose chambers are
    opposite, as (i, j, n - 1); None when no deficient pair is opposite."""
    n = g.n
    for i in range(len(chambers) - 1):
        deficient = [j for j in range(i + 1, len(chambers)) if radii[i] + radii[j] < n - 1]
        if not deficient:
            continue
        table = g.chamber_distances(chambers[i])
        for j in deficient:
            if _opposite(n, table, chambers[j]):
                return i, j, n - 1
    return None


def check_census_certificate(g: ChamberGraph, chambers: list[Chamber], radii: list[int],
                             report: CensusReport) -> None:
    """Verify a "0" run's certificate (i, j, d) on g; VerificationError if it fails.

    Re-reads d, the distance of the closest endpoints of chambers i < j,
    from ``g.chamber_distances``, and requires d == n - 1 (the chambers
    are opposite), r_i + r_j < d (the balls cannot meet) and outcome "0".
    """
    i, j, d = report.certificate
    if report.outcome != "0":
        raise VerificationError(f"certified run has outcome {report.outcome!r}, not '0'")
    if not 0 <= i < j < len(chambers) == len(radii):
        raise VerificationError(f"certificate pair ({i}, {j}) is not a slot pair i < j")
    table = g.chamber_distances(g.check_chamber(chambers[i]))
    ends = [table[x] for x in g.check_chamber(chambers[j])]
    seen = None if None in ends else min(ends)
    if seen != d or d != g.n - 1:
        raise VerificationError(f"chambers {i} and {j} are {seen} apart, certificate says "
                                f"{d}, opposition needs {g.n - 1}")
    if radii[i] + radii[j] >= d:
        raise VerificationError(f"radii {radii[i]} + {radii[j]} reach the distance {d}")


def census_classified(n: int, radii) -> bool:
    """Radii in a classified regime: sum >= (n-1)(m-1), or a pair sum < n-1."""
    m = len(radii)
    pair_sums = [radii[i] + radii[j] for i in range(m) for j in range(i + 1, m)]
    return sum(radii) >= (n - 1) * (m - 1) or any(p < n - 1 for p in pair_sums)


def census_prediction(ring: GrassPreRing, radii) -> str:
    """The census outcome the pre-ring product of the radius classes predicts."""
    prod = ring.product_chain(sorted(radii))
    if not prod:
        return "0"
    ((deg, coeff),) = prod.items()
    if deg == 0 and coeff.finite:
        return str(coeff.residue)
    return "growing"


def census_sweep(n: int, m: int) -> Iterator[tuple[list[Chamber], tuple[int, ...], int, str,
                                                  CensusReport]]:
    """Every classified census run on one antipodal m-tuple of chambers.

    Builds ``find_antipodal_tuple(ChamberGraph.apartment(n), m)`` once and
    yields (chambers, radii, l, prediction, report), with the tuple's
    chambers, for each classified radius tuple of
    ``combinations_with_replacement(range(1, n), m)``, in that order, and
    each l in (1, 2).  The apartment's seed feeds only ``bar_step``'s
    sampling, which the census never calls, so no output depends on it.
    """
    ring = GrassPreRing(n)
    tup = find_antipodal_tuple(ChamberGraph.apartment(n), m)
    for radii in combinations_with_replacement(range(1, n), m):
        if not census_classified(n, radii):
            continue
        expected = census_prediction(ring, radii)
        for l in (1, 2):
            yield (tup.chambers, radii, l, expected,
                   census_rounds(tup.graph, tup.chambers, list(radii), l))


def census_to_csv(rows: list[dict]) -> str:
    """CSV with one row per (radii, grassmannian) census run."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "radii", "grassmannian", "counts", "outcome", "product_coefficient"])
    for row in rows:
        writer.writerow(
            [
                row["n"],
                " ".join(str(r) for r in row["radii"]),
                row["grassmannian"],
                " ".join(str(c) for c in row["counts"]),
                row["outcome"],
                row["product_coefficient"],
            ]
        )
    return buf.getvalue()


# -- weighted configurations and slopes ---------------------------------------


@dataclass
class WeightedConfiguration:
    """Dominant weights placed on chambers of a graph.

    The weight (a, b) on a chamber (x1, x2) is the point with barycentric
    coordinates a at the type-1 endpoint and b at the type-2 endpoint.
    """

    graph: ChamberGraph
    chambers: list[Chamber]
    weights: list[DominantWeight]

    def __post_init__(self):
        if len(self.chambers) != len(self.weights):
            raise InvalidParameterError("one weight per chamber required")
        self.chambers = [self.graph.check_chamber(c) for c in self.chambers]
        for i, w in enumerate(self.weights):
            if not w.is_dominant():
                raise DomainError(f"weight at slot {i} is not dominant")


def _chart_index(n: int, d1: int, d2: int) -> int:
    """2n-gon index of a vertex d1, d2 away from a chamber's type-1, type-2
    endpoints, in the chart where the chamber is [0, 1]; beyond distance n
    it is not injective."""
    if d1 < d2:
        return -d1 % (2 * n)
    return (1 + d2) % (2 * n)


def slope_at(config: WeightedConfiguration, eta: int) -> FieldElement:
    """Exact slope of the configuration at a vertex.

    Minus the row whose key is eta's chart index against each chamber: slot
    i contributes -<lambda_i, v> where v is the chamber vertex nearest to
    eta rotated away from the chamber by r*pi/n, r = d(eta, chamber_i).
    Unreachable chambers make the slope undefined.
    """
    g = config.graph
    if not 0 <= eta < g.num_vertices:
        raise InvalidParameterError(f"vertex {eta} outside 0..{g.num_vertices - 1}")
    dist = g.distances(eta)
    key = []
    for x1, x2 in config.chambers:
        d1, d2 = dist[x1], dist[x2]
        if d1 is None or d2 is None:
            raise DomainError(f"vertex {eta} cannot reach chamber ({x1}, {x2})")
        key.append(_chart_index(g.n, d1, d2))
    return -row_value(g.n, tuple(key), weight_pairs(g.n, config.weights))


@dataclass
class ScanResult:
    vertex: int
    value: FieldElement


def min_slope_scan(config: WeightedConfiguration, within: int) -> dict[int, ScanResult | None]:
    """Minimal slope over the vertices of each type, smallest vertex id on
    ties, from one pass: {1: type-1 minimum, 2: type-2 minimum}.

    Only vertices within distance ``within`` of every chamber are scanned:
    at a finite stage, distances beyond n are not yet the limit distances
    (the limit geometry has diameter n), so scans for semistability
    evidence restrict to the metrically converged range.
    """
    g = config.graph
    pairs = weight_pairs(g.n, config.weights)
    sides = [(g.distances(x1), g.distances(x2)) for x1, x2 in config.chambers]
    seen: set[tuple] = set()
    best: dict[int, ScanResult | None] = {1: None, 2: None}
    for v in range(g.num_vertices):
        dists = [(d1[v], d2[v]) for d1, d2 in sides]
        if any(d1 is None or min(d1, d2) > within for d1, d2 in dists):
            continue
        # equal keys give equal slopes, so a repeated key never beats best
        key = tuple(_chart_index(g.n, d1, d2) for d1, d2 in dists)
        t = g.types[v]
        if (t, key) in seen:
            continue
        seen.add((t, key))
        value = -row_value(g.n, key, pairs)
        if best[t] is None or value < best[t].value:
            best[t] = ScanResult(v, value)
    return best


# -- semistable configurations -------------------------------------------------


@dataclass
class SemistableReport:
    member: bool
    graph: ChamberGraph
    config: WeightedConfiguration
    scans: list[dict]
    witness: ScanResult | None
    violated: object = None


def _witness_geometry(n: int, key: tuple[int, ...]) -> list[tuple[int, int]]:
    """Per slot: (distance to the chamber, type of the nearest endpoint).

    ``_chart_index`` inverted on the 2n-gon: the witness vertex must see
    chamber i the way vertex key[i] sees the chamber [0, 1].
    """
    chart = vertex_chart(n)
    return [(d1, 1) if d1 < d2 else (d2, 2) for d1, d2 in (chart[k] for k in key)]


def _ensure_leg(g: ChamberGraph, eta: int, target: int, r: int) -> None:
    """Make d(eta, target) == r by a fresh path when currently larger."""
    d = g.distances(eta, limit=r)[target]
    if d == r:
        return
    if d is not None and d < r:
        raise VerificationError(f"vertex {target} already at distance {d} < {r}")
    g.add_path(eta, target, r)


def construct_semistable(
    n: int,
    weights: list[DominantWeight],
    seed: int = 0,
    rounds: int = 2,
) -> SemistableReport:
    """Decide semistability geometrically for weights on antipodal chambers.

    Member weights: place them on a freshly grown antipodal tuple and record
    the minimal slope per growth round (each round one bar step); all scans
    stay >= 0.  Non-member weights: the violated inequality dictates radii
    and parities of a witness vertex, which is built by legs and connecting
    arcs; its slope equals minus the violation exactly and is negative.
    """
    m = len(weights)
    if m < 2:
        raise InvalidParameterError("need at least two weights")
    system = gen_wti(n, m)
    verdict = is_member(system, weights)
    base = ChamberGraph.apartment(n, seed)
    grown = find_antipodal_tuple(base, m)
    g, chambers = grown.graph, grown.chambers

    if verdict.member:
        config = WeightedConfiguration(g, chambers, weights)
        scans = []
        for rnd in range(rounds + 1):
            if rnd > 0:
                g = bar_step(g)
                config = WeightedConfiguration(g, chambers, weights)
            best = min_slope_scan(config, within=n)
            scans.append({"round": rnd, "vertices": g.num_vertices,
                          "min_1": best[1], "min_2": best[2]})
        return SemistableReport(True, g, config, scans, None)

    tag = verdict.violated.tag
    geometry = _witness_geometry(n, verdict.violated.key)
    i, j = tag.slots
    ri, ti = geometry[i]
    rj, tj = geometry[j]
    if ri + rj != n - 1:
        raise VerificationError("violated inequality is not of complementary-pair shape")
    xi = chambers[i][ti - 1]
    xj = chambers[j][tj - 1]
    if ri == 0:
        eta = xi
        _ensure_leg(g, eta, xj, rj)
    elif rj == 0:
        eta = xj
        _ensure_leg(g, eta, xi, ri)
    else:
        path = g.shortest_path(xi, xj)
        if path is not None and len(path) - 1 == n - 1:
            eta = path[ri]
        else:
            eta = g.add_path(xi, xj, n - 1)[ri - 1]
    for s, (r, t) in enumerate(geometry):
        if s in (i, j):
            continue
        _ensure_leg(g, eta, chambers[s][t - 1], r)
    dist = g.distances(eta)
    for s, (r, t) in enumerate(geometry):
        ends = [dist[x] for x in chambers[s]]
        d = None if None in ends else min(ends)
        if d != r:
            raise VerificationError(f"witness sits at distance {d} != {r} from chamber {s}")
        if ends[t - 1] != r:
            raise VerificationError(f"nearest endpoint of chamber {s} has the wrong type")
    g.log.append({"op": "hn-witness", "vertex": eta, "labels": tag.to_json()})
    config = WeightedConfiguration(g, chambers, weights)
    value = slope_at(config, eta)
    if not (value == -verdict.value):
        raise VerificationError("witness slope does not match the violated inequality")
    if not (value < small_field(n).zero):
        raise VerificationError("witness slope failed to be negative")
    return SemistableReport(False, g, config, [], ScanResult(eta, value), verdict.violated)
