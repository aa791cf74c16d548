"""Seeded inputs, item execution and verdict checks for the workloads.

An item is one call into a public entry point of ``dihedralcalc`` plus a
check of its verdict against the answer the verification suites establish.
Every workload draws a fixed multiset of item kinds and sizes; the seed picks
the order, orientations, sides, samples, basis triples and growth seeds.  Per-round
cost is therefore set by the multiset and only the inputs change with the
seed, which keeps run-to-run spread down to host noise.

``run_item`` returns ``(ok, verdict)``.  ``verdict`` holds only outputs that
are uniquely determined (statuses, equality verdicts, census counts and
outcomes, table entries), never LP witnesses or pivot paths,
so a correct change to a solver keeps the ``verdict_digest``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random

from dihedralcalc import (algebra, building, chevalley, cli, field,
                          filtration, prering)

# Facet audits up to (4, 4): the (5|6, 3|4) audits take 1.5-11 s each and
# theta-KM against WTI at n = 6, m = 5 about 1 s, which would leave too few
# rounds in a run for steady medians.  The 26 items put two items of near-equal cost
# (WTI/STI and theta-KM at n = 4, m = 4) in the middle, so p50 falls among
# their latencies and does not jump when host noise swaps them.  The p90 tail
# falls among the three equalities of about 0.6 s (theta-KM against WTI at
# n = 5, m = 5 and n = 6, m = 4; WTI/STI at n = 6, m = 4), and the (4, 4)
# audit, the heaviest item at about 1.4 s, lies beyond it.
AUDITS = ((2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4))
WTI_STI = tuple((n, m) for n in range(2, 7) for m in (3, 4))
THETA_KM = tuple((n, m) for n in range(2, 6) for m in (3, 4)) + ((6, 3),)
CENSUS_SIZES = tuple((n, m) for n in (3, 4, 5) for m in (2, 3))
CENSUS_HEAVY = 2  # saturation cases drawn per l at n = 5, m = 3
TABLE_NS = tuple(range(2, 21))
LAW_TRIPLES = 4  # seeded basis triples per n
ISO_PAIRS = ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2))


def sha(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- input generation ------------------------------------------------------------


def _cone_lp(rng: random.Random) -> list[dict]:
    items = [{"kind": "audit", "n": n, "m": m, "expect": "facet"}
             for n, m in AUDITS]
    pairs = [("wti", "sti", n, m) for n, m in WTI_STI]
    pairs += [("theta:km", "wti", n, m + 1) for n, m in THETA_KM]
    pairs.append(("wti", "a1", 2, 3))
    for a, b, n, m in pairs:
        if rng.random() < 0.5:  # both directions are checked either way
            a, b = b, a
        items.append({"kind": "equal", "a": a, "b": b, "n": n, "m": m,
                      "expect": True})
    return items


def census_cases(n: int, m: int) -> list[tuple[int, ...]]:
    """Radii of the census suite's classified cases for one (n, m)."""
    out = []
    for radii in itertools.combinations_with_replacement(range(1, n), m):
        pair_sums = [a + b for a, b in itertools.combinations(radii, 2)]
        in_regime = sum(radii) >= (n - 1) * (m - 1)
        if in_regime or not all(p >= n - 1 for p in pair_sums):
            out.append(radii)
    return out


def _census_growth(rng: random.Random) -> list[dict]:
    items = []
    for n, m in CENSUS_SIZES:
        for l in (1, 2):
            light, heavy = [], []
            for radii in census_cases(n, m):
                pod = all(a + b >= n for a, b in itertools.combinations(radii, 2))
                (heavy if (n, m) == (5, 3) and not pod else light).append(radii)
            # the n=5, m=3 saturation cases cost 0.4-1.1 s each and differ by
            # under 15% within one l, so a seeded sample keeps the cost fixed
            chosen = light + rng.sample(heavy, min(len(heavy), CENSUS_HEAVY))
            items += [{"kind": "census", "n": n, "m": m, "radii": list(r),
                       "l": l} for r in chosen]
    items += [{"kind": "build", "n": n, "seed": rng.randrange(1, 10**6)}
              for n in (3, 4, 5)]
    return items


def _algebra_tables(rng: random.Random) -> list[dict]:
    items = []
    for n in TABLE_NS:
        for table in ("at", "gr", "limit"):
            items.append({"kind": "table", "n": n, "algebra": table})
        items.append({"kind": "table", "n": n, "algebra": "bi",
                      "side": rng.choice((1, 2))})
        for weighting in ("full", "side-1", "side-2"):
            items.append({"kind": "concavity", "n": n, "weighting": weighting})
            items.append({"kind": "limits", "n": n, "weighting": weighting})
        items += [{"kind": "laws", "n": n,
                   "triple": [rng.randrange(2 * n) for _ in range(3)]}
                  for _ in range(LAW_TRIPLES)]
    items += [{"kind": "iso", "cartan": list(p)} for p in ISO_PAIRS]
    return items


WORKLOADS = {
    "cone-lp": _cone_lp,
    "census-growth": _census_growth,
    "algebra-tables": _algebra_tables,
}

# One cheap item per workload, the same for every seed, run during set-up so
# that lazy imports and first-use caches are filled before timing starts.
WARMUP = {
    "cone-lp": {"kind": "audit", "n": 2, "m": 3, "expect": "facet"},
    "census-growth": {"kind": "census", "n": 3, "m": 2, "radii": [1, 2],
                      "l": 1},
    "algebra-tables": {"kind": "table", "n": 2, "algebra": "at"},
}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The items of one round, in order, drawn from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    items = WORKLOADS[workload](rng)
    rng.shuffle(items)
    return items


# -- item execution ----------------------------------------------------------------


def _payload(argv: list[str]):
    """Run one request through ``cli.main`` in-process; None unless exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return json.loads(out.getvalue())["payload"] if code == 0 else None


def _run_audit(item):
    doc = _payload(["audit", "--system", "wti", "--n", str(item["n"]),
                    "--m", str(item["m"])])
    if doc is None:
        return False, None
    statuses = [(e["key"], e["status"]) for e in doc["entries"]]
    ok = bool(statuses) and all(s == item["expect"] for _, s in statuses)
    return ok, statuses


def _run_equal(item):
    doc = _payload(["equal", "--a", item["a"], "--b", item["b"],
                    "--n", str(item["n"]), "--m", str(item["m"])])
    verdict = None if doc is None else doc["equal"]
    return verdict is not None and verdict == item["expect"], verdict


def product_class(n: int, radii) -> str:
    """Expected census outcome from the Grassmannian pre-ring product."""
    prod = prering.GrassPreRing(n).product_chain(sorted(radii))
    if not prod:
        return "0"
    ((deg, coeff),) = prod.items()
    if deg == 0 and coeff.finite:
        return str(coeff.residue)
    return "growing"


@functools.cache
def _antipodal(n: int, m: int):
    """The census suite's chamber tuple; census_rounds never mutates it."""
    return building.find_antipodal_tuple(
        building.ChamberGraph.apartment(n, seed=11), m)


def _run_census(item):
    n = item["n"]
    tup = _antipodal(n, item["m"])
    out = building.census_rounds(tup.graph, tup.chambers, list(item["radii"]),
                                 item["l"])
    ok = out.outcome == product_class(n, item["radii"]) \
        and building.girth(out.graph) >= 2 * n
    return ok, [out.counts, out.outcome]


def _run_build(item):
    n = item["n"]
    doc = _payload(["build", "--n", str(n), "--stages", "2",
                    "--seed", str(item["seed"])])
    if doc is None:
        return False, None
    girths = [s["girth"] for s in doc["metrics"]]
    ok = all(g == "inf" or g >= 2 * n for g in girths)
    return ok, [[s["vertices"] for s in doc["metrics"]], girths]


def _run_table(item):
    n, table_kind = item["n"], item["algebra"]
    argv = ["mult-table", "--n", str(n), "--algebra", table_kind]
    if table_kind == "bi":
        argv += ["--side", str(item["side"])]
    doc = _payload(argv)
    if doc is None:
        return False, None
    table, basis = doc["table"], doc["basis"]
    ok = len(table) == len(basis) ** 2 and all(
        table[f"{u}*{v}"] == table[f"{v}*{u}"] for u in basis for v in basis)
    coeffs = [e["coeff"] for es in table.values() for e in es]
    if table_kind == "limit":
        ok = ok and all(c in ("1", "inf") for c in coeffs)
    else:
        descr = field.field_init(n)
        ok = ok and all(field.sign_of(field.element_from_json(descr, c)) == 1
                        for c in coeffs)
    return ok, sha(doc)


def _weighting(n: int, name: str):
    alg = algebra.AlgebraContext(field.field_init(n))
    if name == "full":
        return filtration.ConcaveWeighting.full(alg)
    return filtration.ConcaveWeighting.one_sided(alg, int(name[-1]))


def _run_concavity(item):
    n = item["n"]
    report = filtration.concavity_audit(_weighting(n, item["weighting"]))
    top = n if item["weighting"] == "full" else n - 1
    ok = report.ok and all(
        u.length == 0 or v.length == 0 or u.length + v.length == z.length == top
        for u, v, z in report.equalities)
    return ok, [report.pairs_checked, len(report.equalities)]


def _run_limits(item):
    report = filtration.limit_table(_weighting(item["n"], item["weighting"]))
    return report.ok, report.pairs_checked


def _run_laws(item):
    ctx = algebra.AlgebraContext(field.field_init(item["n"]))
    basis = ctx.basis()
    u, v, w = (ctx.sigma(basis[i]) for i in item["triple"])
    uv = ctx.mul(u, v)
    ok = uv == ctx.mul(v, u) \
        and ctx.mul(uv, w) == ctx.mul(u, ctx.mul(v, w)) \
        and all(field.sign_of(c) == 1 for c in uv.values())
    return ok, sorted((repr(k), c.to_json()) for k, c in uv.items())


def _run_iso(item):
    a12, a21 = item["cartan"]
    if (a12, a21) == (2, 2):  # affine case: t = 1, finite degree cap
        report = chevalley.KacMoodyContext(2, 2, cap=8).iso_check(1, 1)
    else:
        kms = chevalley.KacMoodyContext(a12, a21)
        report = kms.iso_check(*kms.default_scaling())
    return report.ok, report.pairs_checked


RUNNERS = {
    "audit": _run_audit,
    "equal": _run_equal,
    "census": _run_census,
    "build": _run_build,
    "table": _run_table,
    "concavity": _run_concavity,
    "limits": _run_limits,
    "laws": _run_laws,
    "iso": _run_iso,
}


def run_item(item: dict):
    """Execute one item; an item that raises counts as a failed verdict."""
    try:
        return RUNNERS[item["kind"]](item)
    except Exception as exc:  # the run goes on and reports the failure
        return False, f"raised {type(exc).__name__}: {exc}"
