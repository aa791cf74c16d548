import collections
import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dihedralcalc.building import (
    ChamberGraph,
    ScanResult,
    PodReport,
    WeightedConfiguration,
    attach_mpod,
    ball_intersection_census,
    bar_step,
    census_classified,
    census_prediction,
    census_rounds,
    census_sweep,
    census_to_csv,
    construct_semistable,
    find_antipodal_tuple,
    girth,
    graph_metrics,
    min_slope_scan,
    slope_at,
)
from dihedralcalc import building
from dihedralcalc.building import _census_saturation, _chart_index, _opposite, _witness_geometry
from dihedralcalc.cones import (
    DominantWeight,
    embed_small,
    gen_wti,
    is_member,
    small_field,
    vertex_cartesian,
)
from dihedralcalc.errors import (
    DomainError,
    InvalidParameterError,
    VerificationError,
)
from dihedralcalc.field import field_init
from dihedralcalc.prering import GrassPreRing
from dihedralcalc.weyl import DihedralGroup


def W(a, b):
    return DominantWeight(Fraction(a), Fraction(b))


def star(w, n):
    """The contragredient weight -w0(w): the two rays swap when n is odd."""
    return w if n % 2 == 0 else W(w.b, w.a)


def check_n1_isometric(old, new):
    """Whether pairs at distance < n-1 in ``old`` keep their distance in ``new``.

    The stage maps of a free construction must be (n-1)-isometric: growth may
    shorten long distances but must never disturb the local structure.
    Growth keeps vertex ids, so the stage map is the identity on ids.
    """
    radius = old.n - 2
    for u in range(old.num_vertices):
        dist_old = old.distances(u, limit=radius)
        dist_new = new.distances(u, limit=radius)
        for v, d in enumerate(dist_old):
            if d is not None and 0 < d <= radius and dist_new[v] != d:
                return False
    return True


def girth_reference(g):
    """Shortest cycle by a full BFS from every vertex: the all-source oracle."""
    best = math.inf
    for src in range(g.num_vertices):
        dist = {src: 0}
        parent = {src: -1}
        queue = collections.deque([src])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] + 1 >= best:
                break
            for v in g.adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    best = min(best, dist[u] + dist[v] + 1)
    return best


@st.composite
def bipartite_graphs(draw):
    """A random bipartite graph built by ``add_edge``, with random vertex ids."""
    n = draw(st.integers(2, 6))
    types = draw(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=14))
    label = draw(st.permutations(range(len(types))))
    pairs = [(u, v) for u, v in itertools.combinations(range(len(types)), 2)
             if types[u] != types[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24)) if pairs else []
    g = ChamberGraph(n)
    for t in sorted(range(len(types)), key=lambda v: label[v]):
        g.add_vertex(types[t])
    for u, v in edges:
        g.add_edge(label[u], label[v])
    return g


# -- graph primitives ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apartment_metrics(n):
    g = ChamberGraph.apartment(n)
    m = graph_metrics(g)
    assert m["vertices"] == 2 * n
    assert m["edges"] == 2 * n
    assert m["girth"] == 2 * n
    assert m["diameter"] == n
    assert m["valence_min"] == m["valence_max"] == 2


def test_vertex_and_edge_validation():
    g = ChamberGraph(3)
    with pytest.raises(InvalidParameterError):
        g.add_vertex(0)
    u = g.add_vertex(1)
    v = g.add_vertex(2)
    w = g.add_vertex(1)
    g.add_edge(u, v)
    with pytest.raises(InvalidParameterError):
        g.add_edge(u, u)
    with pytest.raises(InvalidParameterError):
        g.add_edge(u, w)  # same type
    with pytest.raises(InvalidParameterError):
        g.add_edge(u, v)  # duplicate
    with pytest.raises(InvalidParameterError):
        ChamberGraph(1)


def test_add_path_types_and_parity():
    g = ChamberGraph(4)
    u = g.add_vertex(1)
    v = g.add_vertex(2)
    new = g.add_path(u, v, 3)
    assert len(new) == 2
    assert [g.types[x] for x in new] == [2, 1]
    assert g.distances(u)[v] == 3
    with pytest.raises(InvalidParameterError):
        g.add_path(u, v, 2)  # parity mismatch
    with pytest.raises(InvalidParameterError):
        g.add_path(u, v, 0)


def test_add_path_refuses_short_cycle():
    g = ChamberGraph.apartment(3)
    types, adj = list(g.types), [list(a) for a in g.adj]
    with pytest.raises(VerificationError):
        g.add_path(0, 2, 2)  # d(0, 2) = 2 closes a 4-cycle
    assert g.types == types
    assert g.adj == adj


@settings(max_examples=200, deadline=None)
@given(g=bipartite_graphs())
def test_girth_matches_all_source_reference(g):
    assert girth(g) == girth_reference(g)
    assert all(a == sorted(a) for a in g.adj)


@functools.cache
def grown_graphs():
    """Distinct grown graphs, each with the chambers its census counts from.

    Every census output for n 3..5, m 2..3, every radius tuple and both l
    (the census suite's tuples, apartment seed 11), ``bar_step`` stages 1
    and 2 for n 3..5 (chambers (0, 1) and (n, n+1) of the seed apartment),
    and a ``from_json`` round trip of the largest.  They reach 1857
    vertices, where the girth BFS's source skip and early stop cut work;
    the random graphs above stop at 14 vertices.
    """
    graphs = {}

    def keep(g, chambers):
        doc = json.dumps(g.to_json())
        graphs.setdefault(hashlib.sha256(doc.encode()).hexdigest(), (g, chambers))

    for n in (3, 4, 5):
        for m in (2, 3):
            tup = find_antipodal_tuple(ChamberGraph.apartment(n, seed=11), m)
            for radii in itertools.combinations_with_replacement(range(1, n), m):
                for l in (1, 2):
                    keep(census_rounds(tup.graph, tup.chambers, list(radii), l).graph,
                         tup.chambers)
        g = ChamberGraph.apartment(n, seed=3)
        for _ in range(2):
            g = bar_step(g)
            keep(g, [(0, 1), (n, n + 1)])
    g, chambers = max(graphs.values(), key=lambda rec: rec[0].num_vertices)
    keep(ChamberGraph.from_json(json.loads(json.dumps(g.to_json()))), chambers)
    return list(graphs.values())


def test_girth_matches_all_source_reference_on_grown_graphs():
    graphs = grown_graphs()
    assert max(g.num_vertices for g, _ in graphs) == 1857
    for g, _ in graphs:
        assert girth(g) == girth_reference(g) == 2 * g.n
        # a (2n-2)-cycle on the largest ids: every earlier source has set
        # best = 2n, so only the sources of this cycle may lower it, and the
        # BFS from its least vertex must still expand depth n-2
        h = g.copy()
        ring = [h.add_vertex(1 + k % 2) for k in range(2 * g.n - 2)]
        for u, v in zip(ring, ring[1:] + ring[:1]):
            h.add_edge(u, v)
        assert girth(h) == girth_reference(h) == 2 * g.n - 2


def distances_reference(g, src):
    """Single-source BFS over a deque: the reference table for ``distances``."""
    dist = [None] * g.num_vertices
    dist[src] = 0
    queue = collections.deque([src])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def shortest_path_reference(g, u, v):
    """BFS from u with parent links, scanning sorted adjacency in order."""
    parent = {u: -1}
    queue = collections.deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            path = [v]
            while parent[path[-1]] != -1:
                path.append(parent[path[-1]])
            return path[::-1]
        for y in g.adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=bipartite_graphs())
def test_distances_is_min_of_single_source_tables(data, g):
    sources = data.draw(st.lists(st.integers(0, g.num_vertices - 1), max_size=4))
    limit = data.draw(st.none() | st.integers(0, 2 * g.n + 2))
    tables = [distances_reference(g, s) for s in sources]
    columns = zip(*tables) if tables else [()] * g.num_vertices
    expect = [min((d for d in column if d is not None and (limit is None or d <= limit)),
                  default=None) for column in columns]
    assert g.distances(*sources, limit=limit) == expect
    for chamber in g.edges():
        assert g.chamber_distances(chamber) == g.distances(*chamber)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shortest_path_is_a_geodesic(n):
    g = bar_step(find_antipodal_tuple(ChamberGraph.apartment(n, seed=n), 3).graph)
    # a separate component, so that some pairs are unreachable
    a, b = g.add_vertex(1), g.add_vertex(2)
    g.add_edge(a, b)
    rng = random.Random(n)
    pairs = [(a, b), (b, a), (a, 0), (0, b)]
    pairs += [(rng.randrange(g.num_vertices), rng.randrange(g.num_vertices))
              for _ in range(300)]
    for u, v in pairs:
        d = g.distances(u)[v]
        path = g.shortest_path(u, v)
        if d is None:
            assert path is None
            continue
        assert path[0] == u and path[-1] == v and len(path) == d + 1
        assert all(y in g.adj[x] for x, y in zip(path, path[1:]))
        if d < n:
            assert path == shortest_path_reference(g, u, v)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=bipartite_graphs())
def test_add_path_refuses_exactly_short_cycles(data, g):
    u = data.draw(st.integers(0, g.num_vertices - 1))
    v = data.draw(st.integers(0, g.num_vertices - 1))
    parity = (g.types[u] + g.types[v]) % 2
    length = data.draw(st.integers(1, 2 * g.n + 1).filter(lambda k: k % 2 == parity))
    d = g.distances(u)[v]
    types, adj = list(g.types), [list(a) for a in g.adj]
    if d is not None and length + d < 2 * g.n:
        with pytest.raises(VerificationError, match=f"close a {length + d}-cycle"):
            g.add_path(u, v, length)
        assert g.types == types
        assert g.adj == adj
    else:
        assert len(g.add_path(u, v, length)) == length - 1
        assert g.distances(u)[v] == (length if d is None else min(d, length))


def test_add_path_accepts_girth_cycle():
    g = ChamberGraph.apartment(3)
    new = g.add_path(0, 3, 3)  # d(0, 3) = 3 closes exactly a 6-cycle
    assert len(new) == 2
    assert girth(g) == 6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_add_path_closed_loops(n):
    # a loop of length 2n has lim < 1 and runs no search; one of 2n - 2 has
    # lim = 1, and d(0, 0) = 0 refuses it
    g = ChamberGraph.apartment(n)
    assert len(g.add_path(0, 0, 2 * n)) == 2 * n - 1
    assert girth(g) == 2 * n
    with pytest.raises(VerificationError, match=f"close a {2 * n - 2}-cycle < {2 * n}"):
        g.add_path(0, 0, 2 * n - 2)


def _snapshot_joins(data, g):
    """Joins as read off one snapshot, in both orders: pairs at distance n
    and n+1 at their distance, unreachable pairs at the d of their parity,
    plus repeats of drawn joins."""
    n = g.n
    tables = [g.distances(u) for u in range(g.num_vertices)]
    pool = []
    for u, v in itertools.permutations(range(g.num_vertices), 2):
        d = tables[u][v]
        if d is None:
            d = n + (g.types[u] + g.types[v] - n) % 2
        if d in (n, n + 1):
            pool.append((u, v, d))
    if not pool:
        return []
    joins = data.draw(st.lists(st.sampled_from(pool), max_size=10))
    repeats = data.draw(st.lists(st.sampled_from(joins), max_size=4)) if joins else []
    return data.draw(st.permutations(joins + repeats))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), g=bipartite_graphs())
def test_snapshot_joins_match_sequential_add_path(data, g):
    joins = _snapshot_joins(data, g)
    seq = g.copy()
    refused = None
    for k, (u, v, d) in enumerate(joins):
        try:
            seq.add_path(u, v, 2 * g.n - d)
        except VerificationError as exc:
            refused = k, str(exc)
            break
    if refused is None:
        g._join_snapshot(joins)
        assert (g.types, g.adj) == (seq.types, seq.adj)
        return
    k, message = refused
    types, adj = list(g.types), [list(a) for a in g.adj]
    with pytest.raises(VerificationError) as exc:
        g._join_snapshot(joins)
    assert str(exc.value) == message
    assert (g.types, g.adj) == (types, adj)
    g._join_snapshot(joins[:k])  # the refused join is the first one refused
    assert (g.types, g.adj) == (seq.types, seq.adj)


def test_snapshot_joins_check_every_join_first():
    g = ChamberGraph.apartment(3)
    pendant = g.add_vertex(2)
    g.add_edge(0, pendant)  # d(pendant, 3) = 4 = n + 1
    before = json.dumps(g.to_json())
    bad = [
        ([(pendant, 3, 4), (3, pendant, 4)], VerificationError, "close a 4-cycle < 6"),
        ([(0, 3, 3), (0, 2, 2)], InvalidParameterError, "join distance 2 outside 3..4"),
        ([(0, 3, 3), (0, 3, 4)], InvalidParameterError, "incompatible"),
    ]
    for joins, error, message in bad:
        with pytest.raises(error, match=message):
            g._join_snapshot(joins)
        assert json.dumps(g.to_json()) == before
    g._join_snapshot([(0, 3, 3), (3, 0, 3), (pendant, 3, 4)])  # two antipodal 3-paths
    assert g.num_vertices == 7 + 2 + 2 + 1
    assert girth(g) == 6


def test_json_roundtrip_and_schema():
    g = ChamberGraph.apartment(3, seed=5)
    doc = g.to_json()
    assert set(doc) == {"n", "seed", "vertices", "edges", "log"}
    assert doc["vertices"][0] == {"id": 0, "type": 1}
    assert all(u < v for u, v in doc["edges"])
    back = ChamberGraph.from_json(json.loads(json.dumps(doc)))
    assert back.types == g.types
    assert back.edges() == g.edges()
    assert back.log == g.log
    doc["vertices"][0]["id"] = 17
    with pytest.raises(InvalidParameterError):
        ChamberGraph.from_json(doc)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("vertices"),
        lambda d: d.pop("n"),
        lambda d: d.update(vertices=5),
        lambda d: d.update(edges=[[0]]),
        lambda d: d.update(n="three"),
        lambda d: d["edges"].append([0, 99]),
        lambda d: d["edges"].append([-2, 1]),  # would alias vertex 4
        lambda d: d.update(n=3.7),
        lambda d: d.update(n="3"),
        lambda d: d.update(seed=2.5),
        lambda d: d["vertices"][0].update(type=1.5),
        lambda d: d["vertices"][0].update(type=True),
        lambda d: d["vertices"][1].update(id=1.0),
        lambda d: d["edges"].__setitem__(0, [0.9, 1.2]),
        lambda d: d["edges"].append([0, 3]),  # closes a 4-cycle at n = 3
        lambda d: d.update(log=5),
        lambda d: d.update(log={"op": "x"}),
        lambda d: d.update(log="abc"),
        lambda d: d.update(log=[5]),
    ],
    ids=["no-vertices", "no-n", "vertices-int", "short-edge", "n-str", "edge-high", "edge-neg",
         "n-float", "n-numeric-str", "seed-float", "type-float", "type-bool", "id-float",
         "edge-float", "four-cycle", "log-int", "log-object", "log-str", "log-entry-int"],
)
def test_from_json_rejects_malformed(mangle):
    doc = ChamberGraph.apartment(3).to_json()
    mangle(doc)
    with pytest.raises(InvalidParameterError):
        ChamberGraph.from_json(doc)


@pytest.mark.parametrize("grow", [
    lambda g, ch: bar_step(g, cap=3),
    lambda g, ch: attach_mpod(g, ch[:2], [2, 2], 1),
    lambda g, ch: _census_saturation(g, ch, 1),
    lambda g, ch: find_antipodal_tuple(g, 4),
], ids=["bar_step", "attach_mpod", "census_saturation", "find_antipodal_tuple"])
def test_growth_leaves_the_input_log_alone(grow):
    # copies share the log's entries, so no growth step may touch them
    tup = find_antipodal_tuple(ChamberGraph.apartment(4, seed=5), 3)
    before = json.loads(json.dumps(tup.graph.log))
    grown = grow(tup.graph, tup.chambers)
    assert tup.graph.log == before
    assert len(getattr(grown, "graph", grown).log) > len(before)


def test_copy_preserves_rng_state():
    g = ChamberGraph.apartment(4, seed=2)
    a = bar_step(g.copy(), cap=3)
    b = bar_step(g.copy(), cap=3)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_girth_tree_is_infinite():
    g = ChamberGraph(3)
    u = g.add_vertex(1)
    v = g.add_vertex(2)
    g.add_path(u, v, 5)
    assert girth(g) == math.inf


def test_graph_metrics_disconnected():
    g = ChamberGraph.apartment(3)
    g.add_vertex(1)
    assert graph_metrics(g)["diameter"] == math.inf


def test_graph_metrics_rejects_empty_graph():
    with pytest.raises(InvalidParameterError, match="graph has no vertices"):
        graph_metrics(ChamberGraph(3))


# -- all-pairs questions: the ball kernel against one BFS per vertex ------------


def diameter_reference(g):
    """Largest distance over one full BFS per vertex; math.inf when disconnected."""
    tables = [g.distances(v) for v in range(g.num_vertices)]
    if any(None in t for t in tables):
        return math.inf
    return max(max(t) for t in tables)


def bar_pairs_reference(g):
    """The (u, v) pairs with u < v at distance n+1 and n, one BFS per vertex."""
    n = g.n
    far, near = [], []
    for u in range(g.num_vertices):
        dist = g.distances(u, limit=n + 1)
        for v in range(u + 1, g.num_vertices):
            if dist[v] == n + 1:
                far.append((u, v))
            elif dist[v] == n:
                near.append((u, v))
    return far, near


def bar_pairs(g):
    """bar_step's far and near lists, as its pick hands them to rng.sample.

    At cap 0 every nonempty list is sampled and counted as skipped, so the
    sampled lists and the log's skipped counts pin both lists exactly.
    """
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(random.Random, "sample", lambda self, pairs, k: seen.append(list(pairs)) or [])
        grown = bar_step(g, cap=0)
    entry = grown.log[-1]
    lists = iter(seen)
    far = next(lists) if entry["skipped_far"] else []
    near = next(lists) if entry["skipped_near"] else []
    assert next(lists, None) is None
    assert (len(far), len(near)) == (entry["skipped_far"], entry["skipped_near"])
    return far, near


def _grown(n, m, stages):
    g = find_antipodal_tuple(ChamberGraph.apartment(n, seed=n), m).graph
    for _ in range(stages):
        g = bar_step(g)
    return g


def _with_isolated_vertex():
    g = ChamberGraph.apartment(3)
    g.add_vertex(1)
    return g


def _single_vertex():
    g = ChamberGraph(3)
    g.add_vertex(2)
    return g


def _two_apartments():
    g = ChamberGraph.apartment(4)
    for k in range(8):
        g.add_vertex(1 + (k % 2))
    for k in range(8):
        g.add_edge(8 + k, 8 + (k + 1) % 8)
    return g


ALL_PAIRS_GRAPHS = {
    **{f"apartment-{n}": (lambda n=n: ChamberGraph.apartment(n)) for n in range(2, 7)},
    **{f"tuple-{n}-{m}": (lambda n=n, m=m: _grown(n, m, 0)) for n in (3, 4) for m in (2, 3, 4)},
    **{f"bar-{n}-{k}": (lambda n=n, k=k: _grown(n, 3, k)) for n, k in
       [(2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]},
    "isolated-vertex": _with_isolated_vertex,
    "single-vertex": _single_vertex,
    "two-apartments": _two_apartments,
}


@pytest.mark.parametrize("block", [building.BALL_BLOCK, 7])
@pytest.mark.parametrize("name", sorted(ALL_PAIRS_GRAPHS))
def test_all_pairs_match_per_vertex_bfs(monkeypatch, name, block):
    g = ALL_PAIRS_GRAPHS[name]()
    monkeypatch.setattr(building, "BALL_BLOCK", block)
    assert graph_metrics(g)["diameter"] == diameter_reference(g)
    assert bar_pairs(g) == bar_pairs_reference(g)


@settings(max_examples=100, deadline=None)
@given(g=bipartite_graphs(), block=st.sampled_from([1, 3, 7, 4096]))
def test_all_pairs_match_per_vertex_bfs_on_random_graphs(g, block):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(building, "BALL_BLOCK", block)
        assert graph_metrics(g)["diameter"] == diameter_reference(g)
        assert bar_pairs(g) == bar_pairs_reference(g)


def test_balls_hold_one_block_of_bits(monkeypatch):
    g = _grown(3, 3, 1)
    monkeypatch.setattr(building, "BALL_BLOCK", 7)
    blocks = []
    for block, ladder in g.balls():
        blocks.append(block)
        for radius, ball in zip(range(2 * g.n), ladder):
            assert all(b.bit_length() <= len(block) <= 7 for b in ball)
            reference = [g.distances(u, limit=radius) for u in block]
            assert ball == [sum(1 << i for i, t in enumerate(reference) if t[v] is not None)
                            for v in range(g.num_vertices)]
    assert [v for block in blocks for v in block] == list(range(g.num_vertices))


def test_check_n1_isometric_detects_changes():
    old = ChamberGraph(4)
    a = old.add_vertex(1)
    b = old.add_vertex(2)
    old.add_path(a, b, 3)
    good = old.copy()
    good.add_vertex(2)
    assert check_n1_isometric(old, good)
    bad = ChamberGraph(4)
    bad.add_vertex(1)
    bad.add_vertex(2)
    for _ in range(2):
        bad.add_vertex(1)
        bad.add_vertex(2)
    # same vertex count, no edges: all short distances destroyed
    assert not check_n1_isometric(old, bad)


# -- bar steps -----------------------------------------------------------------


def test_bar_step_apartment():
    g = ChamberGraph.apartment(4)
    grown = bar_step(g)
    # the 8-cycle has no distance-5 pairs and four antipodal pairs
    assert grown.log[-1] == {"op": "bar", "joined_far": 0, "joined_near": 4,
                             "skipped_far": 0, "skipped_near": 0}
    assert grown.num_vertices == 8 + 4 * 3
    assert girth(grown) == 8
    assert check_n1_isometric(g, grown)


def test_bar_step_shrinks_far_pair():
    n = 3
    g = ChamberGraph.apartment(n)
    pendant = g.add_vertex(2)
    g.add_edge(0, pendant)
    assert g.distances(pendant)[3] == n + 1
    grown = bar_step(g)
    assert grown.log[-1]["joined_far"] >= 1
    assert grown.distances(pendant)[3] == n - 1
    assert girth(grown) == 2 * n


def test_bar_step_cap_reports_skipped():
    g = ChamberGraph.apartment(4, seed=9)
    grown = bar_step(g, cap=1)
    assert grown.log[-1]["joined_near"] == 1
    assert grown.log[-1]["skipped_near"] == 3
    again = bar_step(ChamberGraph.apartment(4, seed=9), cap=1)
    assert json.dumps(grown.to_json()) == json.dumps(again.to_json())


@given(masks=st.lists(st.integers(0, 2**70), max_size=8), k=st.integers(0, 300),
       seed=st.integers(0, 99))
def test_pair_sequence_is_the_sorted_pair_list(masks, k, seed):
    pairs = building._PairSequence(masks)
    listed = [(u, v) for u, mask in enumerate(masks)
              for v in range(mask.bit_length()) if mask >> v & 1]
    assert len(pairs) == len(listed)
    assert list(pairs) == listed
    assert [pairs[i] for i in range(len(pairs))] == listed
    with pytest.raises(IndexError):
        pairs[len(pairs)]
    k = min(k, len(listed))
    # sample copies a population short against k and indexes a long one
    assert random.Random(seed).sample(pairs, k) == random.Random(seed).sample(listed, k)


# -- pods ----------------------------------------------------------------------


def test_attach_mpod_distances_exact():
    g = ChamberGraph.apartment(4)
    for radii, ct in [((2, 2), 1), ((1, 3), 2), ((3, 3), 1)]:
        rep = attach_mpod(g, [(0, 1), (4, 5)], list(radii), ct)
        assert rep.graph.types[rep.center] == ct
        for ch, r in zip([(0, 1), (4, 5)], radii):
            assert rep.graph.chamber_distances(ch)[rep.center] == r
        assert girth(rep.graph) == 8


def test_attach_mpod_validation():
    g = ChamberGraph.apartment(4)
    ok = [(0, 1), (4, 5)]
    with pytest.raises(InvalidParameterError):
        attach_mpod(g, ok, [0, 3], 1)
    with pytest.raises(InvalidParameterError):
        attach_mpod(g, ok, [4, 4], 1)
    with pytest.raises(InvalidParameterError):
        attach_mpod(g, ok, [1, 2], 1)  # sums below n
    with pytest.raises(InvalidParameterError):
        attach_mpod(g, [(0, 1), (2, 3)], [2, 2], 1)  # not antipodal
    with pytest.raises(InvalidParameterError):
        attach_mpod(g, [(0, 2), (4, 5)], [2, 2], 1)  # not an edge
    with pytest.raises(InvalidParameterError):
        attach_mpod(g, ok, [2, 2], 3)
    with pytest.raises(InvalidParameterError):
        attach_mpod(g, ok, [2], 1)


def test_attach_mpod_random_girth():
    rng = random.Random(123)
    for n in (3, 4):
        grown = find_antipodal_tuple(ChamberGraph.apartment(n, seed=1), 3)
        g = grown.graph
        for _ in range(25):
            m = rng.choice((2, 3))
            chambers = grown.chambers[:m]
            while True:
                radii = [rng.randint(1, n - 1) for _ in range(m)]
                if all(
                    radii[i] + radii[j] >= n
                    for i in range(m)
                    for j in range(i + 1, m)
                ):
                    break
            g = attach_mpod(g, chambers, radii, rng.choice((1, 2))).graph
        assert girth(g) == 2 * n


# -- antipodal tuples ----------------------------------------------------------


def test_antipodal_predicate():
    g = ChamberGraph.apartment(4)
    table = g.chamber_distances((0, 1))
    assert _opposite(g.n, table, (4, 5))
    assert not _opposite(g.n, table, (3, 4))
    assert not _opposite(g.n, table, (1, 2))
    assert not _opposite(g.n, table, (2, 3))


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (3, 3), (4, 3), (4, 4), (5, 3)])
def test_find_antipodal_tuple(n, m):
    rep = find_antipodal_tuple(ChamberGraph.apartment(n, seed=7), m)
    assert len(rep.chambers) == m
    for a, b in itertools.combinations(rep.chambers, 2):
        dist = rep.graph.chamber_distances(a)
        assert min(dist[b[0]], dist[b[1]]) == n - 1
    assert girth(rep.graph) == 2 * n


def test_find_antipodal_pair_uses_existing_edges():
    g = ChamberGraph.apartment(5)
    rep = find_antipodal_tuple(g, 2)
    assert rep.graph.num_vertices == g.num_vertices


def test_find_antipodal_tuple_checks_each_pod_edge(monkeypatch):
    # a pod centered on an endpoint of the first chamber gives a new edge at
    # distance 0 from it, so the scan right after the pod finds no edge
    def misplaced(g, chambers, radii, center_type):
        return PodReport(g.copy(), chambers[0][0])

    monkeypatch.setattr(building, "attach_mpod", misplaced)
    with pytest.raises(VerificationError, match="not antipodal"):
        find_antipodal_tuple(ChamberGraph.apartment(3), 3)


def test_find_antipodal_tuple_deterministic():
    a = find_antipodal_tuple(ChamberGraph.apartment(4, seed=3), 3)
    b = find_antipodal_tuple(ChamberGraph.apartment(4, seed=3), 3)
    assert a.chambers == b.chambers
    assert json.dumps(a.graph.to_json()) == json.dumps(b.graph.to_json())


# -- census ---------------------------------------------------------------------


def test_ball_census_hand_example():
    g = ChamberGraph.apartment(4)
    chambers = [(0, 1), (4, 5)]
    assert ball_intersection_census(g, chambers, [1, 2], 1) == 1
    assert ball_intersection_census(g, chambers, [1, 2], 2) == 1
    assert ball_intersection_census(g, chambers, [1, 1], 1) == 0
    with pytest.raises(InvalidParameterError):
        ball_intersection_census(g, chambers, [1, 2], 0)


def test_ball_census_matches_per_vertex_oracle():
    # radius 0 keeps only chamber endpoints, at distance 0: a count that
    # tested truthiness instead of "is not None" would drop them
    for g, chambers in grown_graphs():
        n = g.n
        # grown graphs are connected, so no reference distance is None
        tables = [list(map(min, distances_reference(g, x1), distances_reference(g, x2)))
                  for x1, x2 in chambers]
        for radii in itertools.product(range(n + 2), repeat=len(chambers)):
            for l in (1, 2):
                want = sum(1 for v in range(g.num_vertices) if g.types[v] == l
                           and all(t[v] <= r for t, r in zip(tables, radii)))
                assert ball_intersection_census(g, chambers, list(radii), l) == want


def test_census_needs_one_radius_per_chamber():
    # zip would pair the first radii with the chambers and drop the rest
    g = ChamberGraph.apartment(4)
    chambers = [(0, 1), (4, 5)]
    with pytest.raises(InvalidParameterError, match="one radius per chamber"):
        census_rounds(g, chambers, [1, 1, 1], 1)
    with pytest.raises(InvalidParameterError, match="one radius per chamber"):
        ball_intersection_census(g, chambers, [1], 1)
    with pytest.raises(InvalidParameterError, match="nonnegative"):
        ball_intersection_census(g, chambers, [2, -1], 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_census_complementary_pair_exactly_two(n):
    # a pair with radii summing to n-1 ends at exactly one point per type
    rep = find_antipodal_tuple(ChamberGraph.apartment(n, seed=2), 2)
    for r1 in range(1, n - 1):
        radii = [r1, n - 1 - r1]
        total = 0
        for l in (1, 2):
            out = census_rounds(rep.graph, rep.chambers, radii, l)
            assert out.outcome == "1", (n, radii, l, out.counts)
            total += out.counts[-1]
        assert total == 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_census_sweep_covers_complementary_pairs(n):
    # every pair (r, n-1-r) is classified, and each lands on one point per type
    runs = {(radii, l): (expected, out.outcome)
            for radii, l, expected, out in census_sweep(n, 2)}
    for r1 in range(1, n - 1):
        radii = tuple(sorted((r1, n - 1 - r1)))
        for l in (1, 2):
            assert runs[radii, l] == ("1", "1"), (n, radii, l)


def _without_seed(doc):
    """A graph's JSON with its two seed fields, top level and apartment log, dropped."""
    log = [{k: v for k, v in entry.items() if k != "seed"} if entry["op"] == "apartment"
           else entry for entry in doc["log"]]
    return {**{k: v for k, v in doc.items() if k != "seed"}, "log": log}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_antipodal_tuple_ignores_the_seed(n):
    # tuple growth samples nothing, so the census needs no seed
    for m in (2, 3, 4):
        reps = [find_antipodal_tuple(ChamberGraph.apartment(n, seed=s), m)
                for s in (0, 2, 11)]
        docs = [json.dumps(_without_seed(r.graph.to_json())) for r in reps]
        assert all(r.chambers == reps[0].chambers for r in reps), (n, m)
        assert docs[1] == docs[0] and docs[2] == docs[0], (n, m)


def test_census_growing_strictly_increasing():
    n = 4
    rep = find_antipodal_tuple(ChamberGraph.apartment(n, seed=2), 2)
    out = census_rounds(rep.graph, rep.chambers, [n - 1, n - 1], 1)
    assert out.outcome == "growing"
    assert all(a < b for a, b in zip(out.counts, out.counts[1:]))


def test_census_deficient_pair_empty():
    n = 5
    rep = find_antipodal_tuple(ChamberGraph.apartment(n, seed=2), 3)
    out = census_rounds(rep.graph, rep.chambers, [1, 1, 4], 2)
    assert out.outcome == "0"
    assert set(out.counts) == {0}


def test_census_point_class_inflation():
    # radii (2,2,2) at n=4 reach total (n-1)(m-1) but every pair overshoots n,
    # so pods keep attaching: the class is growing, not a single point
    n = 4
    rep = find_antipodal_tuple(ChamberGraph.apartment(n, seed=6), 3)
    out = census_rounds(rep.graph, rep.chambers, [2, 2, 2], 1)
    assert out.outcome == "growing"


def _product_class(ring, radii):
    prod = ring.product_chain(sorted(radii))
    if not prod:
        return "0"
    ((deg, coeff),) = prod.items()
    if deg == 0 and coeff.finite:
        return str(coeff.residue)
    return "growing"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_census_matches_grassmannian_product(n):
    ring = GrassPreRing(n)
    for m in (2, 3):
        tup = find_antipodal_tuple(ChamberGraph.apartment(n, seed=11), m)
        for radii in itertools.combinations_with_replacement(range(1, n), m):
            pairs = [
                radii[i] + radii[j] for i in range(m) for j in range(i + 1, m)
            ]
            in_regime = sum(radii) >= (n - 1) * (m - 1)
            if not in_regime and all(p >= n - 1 for p in pairs):
                continue  # outside both classified regimes
            expected = _product_class(ring, radii)
            for l in (1, 2):
                out = census_rounds(tup.graph, tup.chambers, list(radii), l)
                assert out.outcome == expected, (n, m, radii, l, out.counts)
                assert girth(out.graph) == 2 * n


@pytest.mark.parametrize("n", [3, 4, 5])
def test_census_classification_matches_oracle(n):
    ring = GrassPreRing(n)
    for m in (2, 3):
        for radii in itertools.combinations_with_replacement(range(1, n), m):
            pairs = [radii[i] + radii[j] for i in range(m) for j in range(i + 1, m)]
            in_regime = sum(radii) >= (n - 1) * (m - 1)
            assert census_classified(n, radii) == (
                in_regime or any(p < n - 1 for p in pairs))
            assert census_prediction(ring, radii) == _product_class(ring, radii)


def _saturation_oracle(g, chambers, l):
    """The saturation round with one BFS per pool vertex, as a reference."""
    n = g.n
    endpoints = sorted({v for c in chambers for v in c})
    tables = [g.chamber_distances(c) for c in chambers]
    candidates = [
        v
        for v in range(g.num_vertices)
        if g.types[v] == l and all(t[v] is not None and t[v] <= n + 1 for t in tables)
    ]
    pool = sorted(set(endpoints) | set(candidates))
    pairs = set()
    for u in pool:
        dist = g.distances(u, limit=n + 1)
        for v in endpoints:
            if v != u and dist[v] in (n, n + 1):
                pairs.add((min(u, v), max(u, v), dist[v]))
    g2 = g.copy()
    for u, v, d in sorted(pairs):
        g2.add_path(u, v, n - 1 if d == n + 1 else n)
    g2.log.append({"op": "census-saturation", "joined": len(pairs)})
    return g2


def test_census_saturation_matches_oracle():
    # the census suite's tuples, before and after one pod round
    joined = 0
    for n in (3, 4, 5):
        sizes = ((2, 2), (11, 2), (11, 3)) + (((11, 4),) if n < 5 else ())
        for seed, m in sizes:
            tup = find_antipodal_tuple(ChamberGraph.apartment(n, seed=seed), m)
            podded = attach_mpod(tup.graph, tup.chambers, [n - 1] * m, 1).graph
            for g in (tup.graph, podded):
                for l in (1, 2):
                    want = _saturation_oracle(g, tup.chambers, l)
                    got = _census_saturation(g, tup.chambers, l)
                    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
                    joined += want.log[-1]["joined"]
    assert joined > 0


# census_rounds at n = 5, m = 4 on the census suite's tuple (apartment seed
# 11): counts, outcome and the sha256 of the final graph's JSON.  Three
# saturation cases per l share one graph, since saturation ignores the radii.
CENSUS_N5_M4_PINS = [
    ((1, 1, 1, 1), 1, [0, 0, 0, 0], "0",
     "027fedfc4d67846357a8a13b52a4aad245c2f99e4d91353cf691e4c9612643cd"),
    ((1, 1, 1, 1), 2, [0, 0, 0, 0], "0",
     "6f2599f5447b7afd476e3abda93e729829ed3b33d368d9196cdd1be27d94a1f1"),
    ((1, 3, 4, 4), 1, [0, 1, 1, 1], "1",
     "027fedfc4d67846357a8a13b52a4aad245c2f99e4d91353cf691e4c9612643cd"),
    ((1, 3, 4, 4), 2, [0, 1, 1, 1], "1",
     "6f2599f5447b7afd476e3abda93e729829ed3b33d368d9196cdd1be27d94a1f1"),
    ((2, 2, 4, 4), 1, [0, 1, 1, 1], "1",
     "027fedfc4d67846357a8a13b52a4aad245c2f99e4d91353cf691e4c9612643cd"),
    ((2, 2, 4, 4), 2, [0, 0, 1, 1], "1",
     "6f2599f5447b7afd476e3abda93e729829ed3b33d368d9196cdd1be27d94a1f1"),
    ((4, 4, 4, 4), 1, [4, 5, 6, 7], "growing",
     "fac7ccb38c175e49dbb9d8b010647fa6c9cd3dbedb41483211b8c1abb5f0614f"),
    ((4, 4, 4, 4), 2, [0, 1, 2, 3], "growing",
     "8af3502dcae108bd08290a6a37554ba54259a98f066ed3baeede801a2db34a96"),
]


@pytest.mark.parametrize("radii,l,counts,outcome,pin", CENSUS_N5_M4_PINS)
def test_census_rounds_pinned_at_n5_m4(radii, l, counts, outcome, pin):
    tup = find_antipodal_tuple(ChamberGraph.apartment(5, seed=11), 4)
    out = census_rounds(tup.graph, tup.chambers, list(radii), l)
    assert (out.counts, out.outcome) == (counts, outcome)
    assert hashlib.sha256(json.dumps(out.graph.to_json()).encode()).hexdigest() == pin


def test_census_csv_format():
    rows = [
        {
            "n": 4,
            "radii": [1, 2],
            "grassmannian": 1,
            "counts": [1, 1, 1, 1],
            "outcome": "1",
            "product_coefficient": "1",
        }
    ]
    text = census_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n,radii,grassmannian,counts,outcome,product_coefficient"
    assert lines[1] == "4,1 2,1,1 1 1 1,1,1"


# -- slopes ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slope_at_self_and_antipode(n):
    g = ChamberGraph.apartment(n)
    fld = small_field(n)
    cfg = WeightedConfiguration(g, [(0, 1)], [W(5, 0)])
    assert slope_at(cfg, 0) == fld.from_rational(-5)
    assert slope_at(cfg, n) == fld.from_rational(5)


def test_slope_interior_value():
    # n=3, weight (a,b) on chamber (0,1), evaluated at vertex 2: the nearest
    # chamber vertex is the type-2 one at distance 1, so the contribution is
    # -<(a,b), v_2> = (a - b)/2
    g = ChamberGraph.apartment(3)
    fld = small_field(3)
    cfg = WeightedConfiguration(g, [(0, 1)], [W(7, 3)])
    assert slope_at(cfg, 2) == fld.from_rational(Fraction(7 - 3, 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_slope_matches_cartesian_oracle(n):
    # on the apartment the weight point and the probe vertex have literal
    # 2n-gon coordinates; the slope must equal the cartesian dot product
    rng = random.Random(50 + n)
    big = field_init(n)
    g = ChamberGraph.apartment(n)
    carts = [vertex_cartesian(big, k) for k in range(2 * n)]
    for _ in range(10):
        m = rng.choice((1, 2, 3))
        chambers, weights, lam = [], [], []
        for _ in range(m):
            c = rng.randrange(0, 2 * n - 1, 2)
            a, b = Fraction(rng.randrange(5)), Fraction(rng.randrange(5))
            chambers.append((c, c + 1))
            weights.append(DominantWeight(a, b))
            lam.append(
                (
                    carts[c][0] * a + carts[c + 1][0] * b,
                    carts[c][1] * a + carts[c + 1][1] * b,
                )
            )
        cfg = WeightedConfiguration(g, chambers, weights)
        for eta in range(2 * n):
            want = big.zero
            for lx, ly in lam:
                want = want - (lx * carts[eta][0] + ly * carts[eta][1])
            assert embed_small(big, slope_at(cfg, eta)) == want


def test_min_slope_scan_tiebreak_and_filter():
    n = 3
    g = ChamberGraph.apartment(n)
    cfg = WeightedConfiguration(g, [(0, 1)], [W(1, 0)])
    # type-2 vertices 1 and 5 are mirror images through the weight point
    assert slope_at(cfg, 1) == slope_at(cfg, 5)
    res = min_slope_scan(cfg, within=n)[2]
    assert res.vertex == 1
    assert res.value == slope_at(cfg, 1)
    # within 0 only the chamber's own endpoints are scanned, one per type
    assert min_slope_scan(cfg, within=0) == {
        1: ScanResult(0, slope_at(cfg, 0)), 2: ScanResult(1, slope_at(cfg, 1))}
    # no chambers: the empty row, slope zero everywhere, and the empty key
    # is scanned once per type
    empty = WeightedConfiguration(g, [], [])
    assert slope_at(empty, 3) == small_field(n).zero
    zero = small_field(n).zero
    assert min_slope_scan(empty, within=0) == {
        1: ScanResult(0, zero), 2: ScanResult(1, zero)}


def test_min_slope_scan_matches_brute_force():
    # the scan is the least slope_at over the type-l vertices within reach
    # of every chamber, smallest id on ties; in these grown graphs many
    # vertices share a chart key, within distance n and beyond it
    scans = 0
    for n in (2, 3, 4, 5):
        for m in (2, 3, 4):
            rng = random.Random(100 * n + m)
            tup = find_antipodal_tuple(ChamberGraph.apartment(n, seed=n * m), m)
            g = tup.graph
            for stage in range(3):
                if stage:
                    g = bar_step(g, cap=16)
                weights = [W(rng.randrange(5), rng.randrange(5)) for _ in range(m)]
                cfg = WeightedConfiguration(g, tup.chambers, weights)
                tables = [g.chamber_distances(c) for c in cfg.chambers]
                slopes = {v: slope_at(cfg, v) for v in range(g.num_vertices)}
                for within in (n - 1, n, n + 2):
                    res = min_slope_scan(cfg, within)
                    assert set(res) == {1, 2}
                    for l in (1, 2):
                        best = None
                        for v in range(g.num_vertices):
                            if g.types[v] == l and all(t[v] <= within for t in tables) \
                                    and (best is None or slopes[v] < slopes[best]):
                                best = v
                        if best is None:
                            assert res[l] is None
                        else:
                            assert (res[l].vertex, res[l].value) == (best, slopes[best])
                            scans += 1
    assert scans > 100


@pytest.mark.parametrize("n", range(2, 9))
def test_chart_index_inverts_witness_geometry_on_the_apartment(n):
    # on the apartment, vertex k is its own chart index against the chamber
    # (0, 1), and _witness_geometry reads back its distance and nearer type
    g = ChamberGraph.apartment(n)
    from_0, from_1 = g.distances(0), g.distances(1)
    for k in range(2 * n):
        d1, d2 = from_0[k], from_1[k]
        assert _chart_index(n, d1, d2) == k
        assert _witness_geometry(n, (k,)) == [(min(d1, d2), 1 if d1 < d2 else 2)]


def test_wti_keys_are_the_vertex_indices_of_their_words():
    # _witness_geometry reads the violated row's key in place of its words
    for n in range(2, 7):
        group = DihedralGroup(n)
        for m in (2, 3, 4):
            for q in gen_wti(n, m).inequalities:
                assert q.key == tuple(group.vertex_index(w, q.tag.l) for w in q.tag.words)


def test_slope_disconnected_domain_error():
    g = ChamberGraph.apartment(3)
    lonely = g.add_vertex(1)
    cfg = WeightedConfiguration(g, [(0, 1)], [W(1, 0)])
    with pytest.raises(DomainError):
        slope_at(cfg, lonely)
    res = min_slope_scan(cfg, within=g.num_vertices)
    assert res[1].vertex != lonely


def test_weighted_configuration_validation():
    g = ChamberGraph.apartment(3)
    with pytest.raises(DomainError, match="slot 1"):
        WeightedConfiguration(g, [(0, 1), (2, 3)], [W(1, 0), W(-1, 2)])
    with pytest.raises(InvalidParameterError):
        WeightedConfiguration(g, [(0, 1)], [W(1, 0), W(1, 0)])
    with pytest.raises(InvalidParameterError):
        WeightedConfiguration(g, [(0, 2)], [W(1, 0)])


# -- semistable constructions ----------------------------------------------------


def test_construct_member_regular():
    rep = construct_semistable(3, [W(2, 1), W(2, 1), W(2, 1)], seed=4)
    assert rep.member
    fld = small_field(3)
    assert len(rep.scans) == 3
    for entry in rep.scans:
        for l in (1, 2):
            assert not (entry[f"min_{l}"].value < fld.zero)


def test_construct_member_tight_pair():
    n = 4
    lam = W(3, 1)
    rep = construct_semistable(n, [lam, star(lam, n), W(0, 0)], seed=1, rounds=1)
    assert rep.member
    fld = small_field(n)
    assert any(
        entry[f"min_{l}"].value == fld.zero
        for entry in rep.scans
        for l in (1, 2)
    )


def test_construct_nonmember_single_weight():
    n = 3
    weights = [W(2, 1), W(0, 0), W(0, 0)]
    verdict = is_member(gen_wti(n, 3), weights)
    assert not verdict.member
    rep = construct_semistable(n, weights, seed=5)
    assert not rep.member
    fld = small_field(n)
    assert rep.witness.value < fld.zero
    assert rep.witness.value == -verdict.value
    assert girth(rep.graph) == 2 * n
    assert rep.graph.types[rep.witness.vertex] == rep.violated.tag.l


def test_construct_nonmember_interior_pair():
    # first violated inequality has both pair radii positive: the witness
    # sits strictly inside a connecting geodesic
    n = 3
    weights = [W(0, 0), W(0, 2), W(1, 1)]
    verdict = is_member(gen_wti(n, 3), weights)
    geo = _witness_geometry(n, verdict.violated.key)
    i, j = verdict.violated.tag.slots
    assert geo[i][0] >= 1 and geo[j][0] >= 1
    rep = construct_semistable(n, weights, seed=3)
    assert rep.witness.value == -verdict.value
    assert rep.witness.value == small_field(n).from_rational(-1)


def test_construct_nonmember_quadratic_value():
    n = 4
    weights = [W(0, 0), W(0, 0), W(1, 1)]
    rep = construct_semistable(n, weights, seed=3)
    fld = small_field(n)
    # violation is cos(pi/4)-sized: -theta/2 in the small field
    assert rep.witness.value == fld.theta * Fraction(-1, 2)


def test_construct_agreement_with_membership():
    rng = random.Random(77)
    for n in (2, 3, 4):
        fld = small_field(n)
        for _ in range(8):
            m = rng.choice((2, 3))
            weights = [
                W(rng.randrange(4), rng.randrange(4)) for _ in range(m)
            ]
            verdict = is_member(gen_wti(n, m), weights)
            rep = construct_semistable(
                n, weights, seed=rng.randrange(1000), rounds=1
            )
            assert rep.member == verdict.member
            if rep.member:
                for entry in rep.scans:
                    for l in (1, 2):
                        assert not (entry[f"min_{l}"].value < fld.zero)
            else:
                assert rep.witness.value == -verdict.value


def test_construct_rejects_short_lists():
    with pytest.raises(InvalidParameterError):
        construct_semistable(3, [W(1, 0)])


# -- structural invariants --------------------------------------------------------


def test_girth_fuzz_random_sequences():
    # free growth never creates a cycle shorter than 2n, whatever the order
    # of operations; every op asserts this internally, re-checked here
    rng = random.Random(2024)
    for trial in range(1000):
        n = rng.choice((2, 2, 3, 3, 4, 5))
        g = ChamberGraph.apartment(n, seed=trial)
        chambers = None
        for _ in range(2):
            op = rng.choice(("bar", "tuple", "pod"))
            if op == "bar":
                g = bar_step(g, cap=4)
            elif op == "tuple":
                rep = find_antipodal_tuple(g, 2)
                g, chambers = rep.graph, rep.chambers
            elif op == "pod" and chambers is not None:
                g = attach_mpod(g, chambers, [n - 1, n - 1], rng.choice((1, 2))).graph
        assert girth(g) >= 2 * n


def test_stage_maps_are_isometric():
    for n in (3, 4):
        g = ChamberGraph.apartment(n, seed=8)
        rep = find_antipodal_tuple(g, 2)
        assert check_n1_isometric(g, rep.graph)
        g2 = rep.graph
        g3 = attach_mpod(g2, rep.chambers, [n - 1, n - 1], 1).graph
        assert check_n1_isometric(g2, g3)
        g4 = bar_step(g3, cap=16)
        assert check_n1_isometric(g3, g4)
