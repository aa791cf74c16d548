"""Release-gate verification suites.

Each suite re-derives one gate property end to end through public package
operations and reports pass/fail with timing, summary counts, and the
first counterexample when one exists.  Everything is deterministic: fixed
seeds, exact arithmetic, no tolerances.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .algebra import AlgebraContext
from .building import census_sweep, check_census_certificate, construct_semistable, \
    girth
from .chevalley import KacMoodyContext
from .cones import DominantWeight, a1_product_system, cone_equal, gen_km, \
    gen_sti, gen_wti, redundancy_audit, row_values, small_field, theta_system
from .errors import VerificationError
from .field import field_init, sign_of, t_factorial, t_number
from .filtration import ConcaveWeighting, concavity_audit, full_weight, \
    limit_table, side_weight
from .weyl import WeylElement


def _show(value: Any) -> Any:
    """Coerce arbitrary objects into JSON-friendly form for reports."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_show(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _show(v) for k, v in value.items()}
    return str(value)


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    seconds: float
    details: dict[str, Any] = field(default_factory=dict)
    counterexample: dict[str, Any] | None = None

    def to_json(self) -> dict[str, Any]:
        doc = {"suite": self.suite, "passed": self.passed,
               "details": _show(self.details)}
        if self.counterexample is not None:
            doc["counterexample"] = _show(self.counterexample)
        return doc

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        info = " ".join(f"{k}={v}" for k, v in self.details.items())
        text = f"{verdict} {self.suite:<12} ({self.seconds:6.2f}s) {info}"
        if self.counterexample is not None:
            text += f"\n     counterexample: {_show(self.counterexample)}"
        return text


class _Clock:
    def __init__(self, suite: str):
        self.suite = suite
        self.start = time.perf_counter()

    def done(self, details: dict, counterexample: dict | None = None) -> SuiteResult:
        return SuiteResult(self.suite, counterexample is None,
                           time.perf_counter() - self.start, details,
                           counterexample)


# -- 1: graded isomorphism onto the dihedral algebra ---------------------------

def suite_chevalley() -> SuiteResult:
    clock = _Clock("chevalley")
    pairs_checked = 0
    for a12, a21 in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3)):
        kms = KacMoodyContext(a12, a21)
        report = kms.iso_check(*kms.default_scaling())
        pairs_checked += report.pairs_checked
        if not report.ok:
            return clock.done({"cartan": (a12, a21)},
                              {"cartan": (a12, a21),
                               "pair": report.counterexample})
    kms = KacMoodyContext(2, 2, cap=8)
    report = kms.iso_check(1, 1)
    pairs_checked += report.pairs_checked
    if not report.ok:
        return clock.done({"cartan": (2, 2)},
                          {"cartan": (2, 2), "pair": report.counterexample})
    return clock.done({"cartan_pairs": 6, "pairs_checked": pairs_checked})


# -- 2: algebra laws ------------------------------------------------------------

def suite_algebra() -> SuiteResult:
    clock = _Clock("algebra")
    triples = 0
    for n in range(2, 9):
        descr = field_init(n)
        ctx = AlgebraContext(descr)
        basis = ctx.basis()
        sig = {w: ctx.sigma(w) for w in basis}
        prod: dict[tuple, dict] = {}
        for u in basis:
            for v in basis:
                p = ctx.mul(sig[u], sig[v])
                prod[u, v] = p
                if p != ctx.mul(sig[v], sig[u]):
                    return clock.done({"n": n}, {"law": "commutativity",
                                                 "n": n, "u": u, "v": v})
                for w, coeff in p.items():
                    if sign_of(coeff) != 1:
                        return clock.done({"n": n}, {
                            "law": "positivity", "n": n, "u": u, "v": v,
                            "w": w, "coefficient": coeff})
        for u in basis:
            for v in basis:
                for w in basis:
                    if ctx.mul(prod[u, v], sig[w]) != ctx.mul(sig[u], prod[v, w]):
                        return clock.done({"n": n}, {
                            "law": "associativity", "n": n, "triple": (u, v, w)})
                    triples += 1
        for i in (1, 2):
            s = sig[WeylElement(1, i)]
            for k in range(1, n):
                expect = ctx.scale(t_factorial(descr, k),
                                   sig[WeylElement(k, i)])
                if ctx.power(s, k) != expect:
                    return clock.done({"n": n}, {"law": "divided-power",
                                                 "n": n, "side": i, "k": k})
            if ctx.power(s, n) != {}:
                return clock.done({"n": n}, {"law": "divided-power-top",
                                             "n": n, "side": i})
        s1, s2 = sig[WeylElement(1, 1)], sig[WeylElement(1, 2)]
        lhs = ctx.scale(t_number(descr, 2), ctx.mul(s1, s2))
        rhs = ctx.add(ctx.mul(s1, s1), ctx.mul(s2, s2))
        if lhs != rhs:
            return clock.done({"n": n}, {"law": "quadratic-coinvariant", "n": n})
    return clock.done({"n_max": 8, "associativity_triples": triples})


# -- 3: concavity and superadditivity -------------------------------------------

def suite_concavity() -> SuiteResult:
    clock = _Clock("concavity")
    pairs = 0
    for n in range(2, 13):
        descr = field_init(n)
        ctx = AlgebraContext(descr)
        weightings = [("full", ConcaveWeighting.full(ctx)),
                      ("side-1", ConcaveWeighting.one_sided(ctx, 1)),
                      ("side-2", ConcaveWeighting.one_sided(ctx, 2))]
        for label, weighting in weightings:
            report = concavity_audit(weighting)
            pairs += report.pairs_checked
            if not report.ok:
                return clock.done({"n": n}, {
                    "check": f"concavity-{label}", "n": n,
                    "violation": report.violations[:1] or report.misclassified[:1]})
            top = n if label == "full" else n - 1
            for u, v, z in report.equalities:
                if not (u.length == 0 or v.length == 0
                        or u.length + v.length == z.length == top):
                    return clock.done({"n": n}, {
                        "check": f"equality-set-{label}", "n": n,
                        "triple": (u, v, z)})
        for label, weight, top in (("full", full_weight, n),
                                   ("side", side_weight, n - 1)):
            for x in range(top + 1):
                for y in range(top + 1 - x):
                    gap = weight(descr, x + y) - weight(descr, x) \
                        - weight(descr, y)
                    s = sign_of(gap)
                    if s < 0 or (s == 0) != (x * y * (top - x - y) == 0):
                        return clock.done({"n": n}, {
                            "check": f"superadditivity-{label}", "n": n,
                            "x": x, "y": y})
    return clock.done({"n_max": 12, "pairs_checked": pairs})


# -- 4: graded limits match the pre-rings ----------------------------------------

def suite_limits() -> SuiteResult:
    clock = _Clock("limits")
    pairs = 0
    for n in range(2, 13):
        ctx = AlgebraContext(field_init(n))
        cases = [("flag", ConcaveWeighting.full(ctx)),
                 ("grassmannian-1", ConcaveWeighting.one_sided(ctx, 1)),
                 ("grassmannian-2", ConcaveWeighting.one_sided(ctx, 2))]
        for label, weighting in cases:
            report = limit_table(weighting)
            pairs += report.pairs_checked
            if not report.ok:
                return clock.done({"n": n}, {"table": label, "n": n,
                                             "mismatch": report.mismatch})
    return clock.done({"n_max": 12, "pairs_checked": pairs})


# -- 5: cone equalities -----------------------------------------------------------

def suite_cones() -> SuiteResult:
    clock = _Clock("cones")
    certificates = 0
    for n in range(2, 7):
        for m in (3, 4):
            cert = cone_equal(gen_wti(n, m), gen_sti(n, m))
            certificates += 1
            if not cert.equal:
                return clock.done({"n": n, "m": m}, {
                    "pair": "wti/sti", "n": n, "m": m,
                    "separating_key": cert.counterexample.inequality.key})
            # one target object: its remembered verdicts serve all kinds
            big = gen_wti(n, m + 1)
            for kind in ("at", "gr-at", "b"):
                cert = cone_equal(theta_system(gen_km(n, m, kind)), big)
                certificates += 1
                if not cert.equal:
                    return clock.done({"n": n, "m": m}, {
                        "pair": f"theta-{kind}/wti", "n": n, "m": m + 1,
                        "separating_key": cert.counterexample.inequality.key})
    return clock.done({"n_range": "2..6", "m_values": (3, 4),
                       "certificates": certificates})


# -- 6: facet irredundancy ---------------------------------------------------------

def suite_facets() -> SuiteResult:
    clock = _Clock("facets")
    rows = 0
    for n in range(2, 7):
        for m in (3, 4):
            report = redundancy_audit(gen_wti(n, m))
            rows += len(report.entries)
            for entry in report.entries:
                if entry.status != "facet":
                    return clock.done({"n": n, "m": m}, {
                        "n": n, "m": m, "key": entry.inequality.key,
                        "status": entry.status})
    return clock.done({"n_range": "2..6", "m_values": (3, 4),
                       "rows_certified": rows})


# -- 7: classical reduction --------------------------------------------------------

def suite_classical() -> SuiteResult:
    clock = _Clock("classical")
    oracle = a1_product_system(3)
    wti = gen_wti(2, 3)
    if oracle.key_set != wti.key_set:
        return clock.done({}, {"check": "key-set",
                              "only_oracle": sorted(oracle.key_set - wti.key_set),
                              "only_wti": sorted(wti.key_set - oracle.key_set)})
    cert = cone_equal(wti, oracle)
    if not cert.equal:
        return clock.done({}, {"check": "cone-equal",
                              "separating_key": cert.counterexample.inequality.key})
    return clock.done({"rows": len(wti.inequalities)})


# -- 8: ball-intersection census vs pre-ring ---------------------------------------

def suite_census() -> SuiteResult:
    clock = _Clock("census")
    runs = certified = 0
    for n in (3, 4, 5):
        # the m = 2 sweep includes every complementary pair (r, n-1-r),
        # which lands on exactly one point per vertex type
        for m in (2, 3):
            for chambers, radii, l, expected, out in census_sweep(n, m):
                runs += 1
                if out.outcome != expected:
                    return clock.done({"n": n, "m": m}, {
                        "n": n, "m": m, "radii": radii, "grassmannian": l,
                        "expected": expected, "outcome": out.outcome,
                        "counts": out.counts})
                if out.certificate is not None:
                    try:
                        check_census_certificate(out.graph, chambers, list(radii), out)
                    except VerificationError as exc:
                        return clock.done({"n": n, "m": m}, {
                            "check": "certificate", "n": n, "m": m, "radii": radii,
                            "grassmannian": l, "error": str(exc)})
                    certified += 1
                if girth(out.graph) < 2 * n:
                    return clock.done({"n": n, "m": m}, {
                        "check": "girth", "n": n, "m": m, "radii": radii})
    return clock.done({"n_values": (3, 4, 5), "census_runs": runs,
                       "census_certified": certified})


# -- 9: semistability round-trip -----------------------------------------------------

def suite_semistable() -> SuiteResult:
    clock = _Clock("semistable")
    built = 0
    for n in (2, 3, 4):
        system = gen_wti(n, 3)
        zero = small_field(n).zero
        rng = random.Random(900 + n)
        members = witnesses = 0
        while members < 25 or witnesses < 25:
            weights = tuple(
                DominantWeight(Fraction(rng.randint(0, 6)),
                               Fraction(rng.randint(0, 6)))
                for _ in range(3))
            values = row_values(system, weights)
            if all(v < zero for v in values):
                if members == 25:
                    continue
                members += 1
                built += 1
                report = construct_semistable(n, weights, seed=members,
                                              rounds=2)
                if not report.member:
                    return clock.done({"n": n}, {"check": "interior-verdict",
                                                 "n": n, "weights": weights})
                for stage in report.scans:
                    for l in (1, 2):
                        scan = stage[f"min_{l}"]
                        if scan is None or scan.value < zero:
                            return clock.done({"n": n}, {
                                "check": "interior-slope", "n": n,
                                "weights": weights, "round": stage["round"],
                                "grassmannian": l,
                                "scan": scan})
            elif any(v > zero for v in values):
                if witnesses == 25:
                    continue
                witnesses += 1
                built += 1
                report = construct_semistable(n, weights, seed=witnesses,
                                              rounds=2)
                if report.member or report.witness is None:
                    return clock.done({"n": n}, {"check": "witness-verdict",
                                                 "n": n, "weights": weights})
                if not report.witness.value < zero:
                    return clock.done({"n": n}, {
                        "check": "witness-slope", "n": n, "weights": weights,
                        "slope": report.witness.value})
    return clock.done({"n_values": (2, 3, 4), "configurations": built})


# -- 10: byte-identical artifacts ------------------------------------------------------

def _battery(root) -> list[str]:
    """Run every artifact-producing command once; return written paths."""
    import contextlib
    import io
    import json
    import pathlib

    from . import cli

    root = pathlib.Path(root)
    inputs = root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    point = inputs / "point.json"
    point.write_text(json.dumps({"weights": [["0", "0"]] * 3}))
    config = inputs / "config.json"

    outputs: list[str] = []

    def run(name: str, argv: list[str]) -> str:
        dest = root / name
        quiet = io.StringIO()
        with contextlib.redirect_stdout(quiet), \
                contextlib.redirect_stderr(quiet):
            code = cli.main(argv + ["--dest", str(dest)])
        if code != 0:
            raise AssertionError(
                f"battery command {argv} exited {code}: {quiet.getvalue()}")
        outputs.append(str(dest))
        return str(dest)

    run("at4.json", ["mult-table", "--n", "4", "--algebra", "at"])
    run("gr5.json", ["mult-table", "--n", "5", "--algebra", "gr"])
    run("limit3.json", ["mult-table", "--n", "3", "--algebra", "limit"])
    run("bi4.json", ["mult-table", "--n", "4", "--algebra", "bi", "--side", "2"])
    run("wti33.json", ["cone", "--system", "wti", "--n", "3", "--m", "3",
                       "--out", "json"])
    run("sti33.json", ["cone", "--system", "sti", "--n", "3", "--m", "3",
                       "--out", "json"])
    run("km33.json", ["cone", "--system", "km", "--n", "3", "--m", "3",
                      "--out", "json"])
    run("bk43.json", ["cone", "--system", "bk", "--n", "4", "--m", "3",
                      "--out", "json"])
    run("wti43.tex", ["cone", "--system", "wti", "--n", "4", "--m", "3",
                      "--out", "latex"])
    run("audit33.json", ["audit", "--system", "wti", "--n", "3", "--m", "3"])
    run("equal33.json", ["equal", "--a", "wti", "--b", "sti",
                         "--n", "3", "--m", "3"])
    run("member.json", ["member", "--system", "wti", "--n", "3", "--m", "3",
                        "--point", str(point)])
    graph = run("build3.json", ["build", "--n", "3", "--stages", "2",
                                "--seed", "7"])
    doc = json.loads(pathlib.Path(graph).read_text())
    chambers = doc["payload"]["chambers"][:1]
    config.write_text(json.dumps(
        {"chambers": chambers, "weights": [["1", "2"]]}))
    run("slope3.json", ["slope", "--graph", str(graph),
                        "--config", str(config)])
    return outputs


def suite_determinism() -> SuiteResult:
    import pathlib
    import tempfile

    from .manifest import digest

    clock = _Clock("determinism")
    with tempfile.TemporaryDirectory() as tmp:
        first = _battery(pathlib.Path(tmp) / "run1")
        second = _battery(pathlib.Path(tmp) / "run2")
        if len(first) != len(second):
            return clock.done({}, {"check": "artifact-count",
                                   "first": len(first), "second": len(second)})
        compared = 0
        for a, b in zip(first, second):
            data_a = pathlib.Path(a).read_bytes()
            data_b = pathlib.Path(b).read_bytes()
            if data_a != data_b:
                return clock.done({}, {"check": "bytes",
                                       "artifact": pathlib.Path(a).name})
            if a.endswith(".json"):
                import json
                doc = json.loads(data_a)
                stated = doc["manifest"]["digests"]["payload"]
                if stated != digest(doc["payload"]):
                    return clock.done({}, {"check": "digest",
                                           "artifact": pathlib.Path(a).name})
            compared += 1
    return clock.done({"artifacts": compared})


SUITES: dict[str, Callable[[], SuiteResult]] = {
    "chevalley": suite_chevalley,
    "algebra": suite_algebra,
    "concavity": suite_concavity,
    "limits": suite_limits,
    "cones": suite_cones,
    "facets": suite_facets,
    "classical": suite_classical,
    "census": suite_census,
    "semistable": suite_semistable,
    "determinism": suite_determinism,
}


def run_suite(name: str) -> SuiteResult:
    if name not in SUITES:
        from .errors import InvalidParameterError
        raise InvalidParameterError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return SUITES[name]()


def run_all() -> list[SuiteResult]:
    return [fn() for fn in SUITES.values()]
