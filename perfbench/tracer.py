"""In-memory span tracer installed around ``dihedralcalc`` from outside.

The package imports names with ``from .x import y``, so a wrapper replaces
the name where the caller looks it up (``cones.lp_solve``, ``cli.gen_wti``,
``building.girth``) or, for methods, the class attribute.

Two kinds of wrapper:

* a *span* records name, start, end, parent span and item id, and stays in
  memory until the run writes it out;
* a *leaf* is too frequent for one span per call (``FieldElement`` ops,
  ``ChamberGraph`` BFS, ``weyl`` compose, ...); it is aggregated as a count
  plus total time under its parent span.

Both push a frame, so a layer's self time is its frames' time minus the
time of the frames they contain.  Busy time of a group or layer counts only
outermost frames, so recursion or nesting within one group is not counted
twice.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

from dihedralcalc import (algebra, building, chevalley, cli, cones, field,
                          filtration, prering, weyl)

clock = time.perf_counter


class _Frame:
    __slots__ = ("child", "span")

    def __init__(self, span):
        self.child = 0.0
        self.span = span


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item, info]
        self.leaves: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.info: dict[str, int] = defaultdict(int)
        self.item: int | None = None
        self._open: dict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = [_Frame(None)]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _call(self, fn, args, kwargs, name, group, layer, leaf, on_result):
        parent = self._stack[-1]
        if leaf:
            span = parent.span
        else:
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent.span, self.item, None])
        frame = _Frame(span)
        opened = (group, layer)
        outer = [self._open[k] == 0 for k in opened]
        for k in opened:
            self._open[k] += 1
        self._stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            for k in opened:
                self._open[k] -= 1
            dur = end - start
            parent.child += dur
            self.self_s[layer] += dur - frame.child
            for k, first in zip(opened, outer):
                if first:
                    self.busy[k] += dur
            self.calls[group] += 1
            if leaf:
                owner = "root" if span is None else self.spans[span][0]
                agg = self.leaves[owner, name]
                agg[0] += 1
                agg[1] += dur
            else:
                self.spans[span][1] = start
                self.spans[span][2] = end
        if on_result is not None:
            info = on_result(result)
            for k, v in info.items():
                self.info[k] += v
            if not leaf:
                self.spans[span][5] = info
        return result

    def item_span(self, index: int, fn, *args):
        """Run one benchmark item as a root span tagged with its index."""
        self.item = index
        try:
            return self._call(fn, args, {}, "bench.item", "bench.item",
                              "bench", False, None)
        finally:
            self.item = None

    # -- installation -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, group: str | None = None,
              *, leaf: bool = False, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``uninstall``."""
        fn = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        layer = name.split(".", 1)[0]
        group = group or name
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(fn, args, kwargs, name, group, layer, leaf, on_result)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls without timing them (for the cheapest leaves)."""
        fn = owner.__dict__[attr]
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- queries ------------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have an ``ancestor`` span above them."""
        total = 0
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p is not None:
                if self.spans[p][0] == ancestor:
                    total += 1
                    break
                p = self.spans[p][3]
        return total

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[owner, leaf, c, t]
                       for (owner, leaf), (c, t) in sorted(self.leaves.items())],
        }


def install(tracer: Tracer) -> None:
    """Wrap the public boundaries of every layer the workloads reach."""
    p = tracer.patch
    fe, graph = field.FieldElement, building.ChamberGraph

    # field: hot leaves on the element type
    for attr in ("__mul__", "__rmul__"):
        p(fe, attr, "field.mul", leaf=True)
    p(fe, "inverse", "field.inverse", leaf=True)
    p(fe, "sign", "field.sign", leaf=True)

    # lp: one span per exact solve, pivots from the result
    p(cones, "lp_solve", "lp.lp_solve",
      on_result=lambda r: {"lp.pivots": r.iterations})

    # cones: where the audit, equality and system generation live
    def entry_methods(cert):
        out = defaultdict(int)
        for e in cert.forward + cert.backward:
            out[f"cones.equal_entries.{e.method}"] += 1
        return out

    for mod in (cones, cli):
        for attr in ("gen_wti", "gen_sti", "gen_km", "theta_system",
                     "a1_product_system"):
            p(mod, attr, f"cones.{attr}", "cones.gen")
    p(cones, "lp_optimize", "cones.lp_optimize")
    p(cli, "redundancy_audit", "cones.redundancy_audit", "cones.audit",
      on_result=lambda r: {"cones.audit_rows": len(r.entries)})
    p(cli, "cone_equal", "cones.cone_equal", "cones.equal",
      on_result=entry_methods)

    # building: growth writes, BFS reads, girth audits
    for attr in ("distances", "chamber_distances", "shortest_path"):
        p(graph, attr, f"building.{attr}", "building.bfs", leaf=True)
    p(graph, "add_path", "building.add_path", leaf=True)
    tracer.count(graph, "add_vertex", "building.vertices_built")
    p(building, "girth", "building.girth")
    for mod in (building, cli):
        for attr, group in (("bar_step", "building.bar_step"),
                            ("graph_metrics", "building.metrics"),
                            ("find_antipodal_tuple", "building.tuple")):
            p(mod, attr, f"building.{attr}", group)
    for attr, group in (("census_rounds", "building.census"),
                        ("attach_mpod", "building.attach_mpod"),
                        ("_census_saturation", "building.saturation")):
        p(building, attr, f"building.{attr}", group)

    # algebra / weyl: products are leaves, the table export a span
    alg = algebra.AlgebraContext
    p(alg, "mul", "algebra.mul", "algebra.mul", leaf=True)
    p(alg, "mul_basis", "algebra.mul_basis", "algebra.mul", leaf=True)
    p(alg, "table_json", "algebra.table_json")
    p(weyl.DihedralGroup, "compose", "weyl.compose", leaf=True)

    # chevalley / filtration / prering
    p(chevalley.KacMoodyContext, "iso_check", "chevalley.iso_check")
    p(filtration, "concavity_audit", "filtration.concavity_audit",
      "filtration.concavity")
    p(filtration, "limit_table", "filtration.limit_table", "filtration.limit")
    p(cli, "limit_table_json", "filtration.limit_table_json",
      "filtration.limit")
    p(cli, "gr_table_json", "filtration.gr_table_json", "filtration.gr")
    p(cli, "subalgebra_table_json", "filtration.subalgebra_table_json",
      "filtration.subalgebra")
    for cls in (prering.GrassPreRing, prering.FlagPreRing):
        for attr in ("mul_basis", "mul"):
            p(cls, attr, f"prering.{cls.__name__}.{attr}", "prering.product",
              leaf=True)

    # manifest / cli
    p(cli, "wrap", "manifest.wrap", "manifest.envelope")
    p(cli, "canonical_bytes", "manifest.canonical_bytes", "manifest.envelope",
      on_result=lambda b: {"manifest.bytes_out": len(b)})
    p(cli, "main", "cli.main")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer numbers from one traced pass (see interactions.json)."""
    lp_ms = [d * 1e3 for d in t.durations("lp.lp_solve")]
    solves = len(lp_ms)
    return {
        "field.mul_calls": t.calls["field.mul"],
        "field.inv_calls": t.calls["field.inverse"],
        "field.sign_calls": t.calls["field.sign"],
        "field.busy_s": t.busy["field"],
        "lp.solves": solves,
        "lp.pivots": t.info["lp.pivots"],
        "lp.pivots_per_solve": _ratio(t.info["lp.pivots"], solves),
        "lp.solve_p50_ms": statistics.median(lp_ms) if lp_ms else 0.0,
        "lp.busy_s": t.busy["lp"],
        "lp.self_s": t.self_s["lp"],
        "cones.audit_busy_s": t.busy["cones.audit"],
        "cones.equal_busy_s": t.busy["cones.equal"],
        "cones.gen_busy_s": t.busy["cones.gen"],
        "cones.self_s": t.self_s["cones"],
        "cones.lp_per_audit_row": _ratio(
            t.count_under("lp.lp_solve", "cones.redundancy_audit"),
            t.info["cones.audit_rows"]),
        **{f"cones.equal_entries.{m}": t.info[f"cones.equal_entries.{m}"]
           for m in ("duplicate", "dominated", "orbit", "lp")},
        "building.girth_calls": t.calls["building.girth"],
        "building.girth_busy_s": t.busy["building.girth"],
        "building.bfs_calls": t.calls["building.bfs"],
        "building.bfs_busy_s": t.busy["building.bfs"],
        "building.add_path_calls": t.calls["building.add_path"],
        "building.bar_step_busy_s": t.busy["building.bar_step"],
        "building.census_busy_s": t.busy["building.census"],
        "building.metrics_busy_s": t.busy["building.metrics"],
        "building.vertices_built": t.calls["building.vertices_built"],
        "building.self_s": t.self_s["building"],
        "algebra.mul_calls": t.calls["algebra.mul"],
        "algebra.mul_busy_s": t.busy["algebra.mul"],
        "algebra.self_s": t.self_s["algebra"],
        "weyl.compose_calls": t.calls["weyl.compose"],
        "chevalley.iso_busy_s": t.busy["chevalley.iso_check"],
        "filtration.concavity_busy_s": t.busy["filtration.concavity"],
        "filtration.limit_busy_s": t.busy["filtration.limit"],
        "prering.product_calls": t.calls["prering.product"],
        "prering.busy_s": t.busy["prering"],
        "manifest.busy_s": t.busy["manifest"],
        "manifest.bytes_out": t.info["manifest.bytes_out"],
        "cli.requests": t.calls["cli.main"],
        "cli.self_s": t.self_s["cli"],
    }
