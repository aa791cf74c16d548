"""Release gate: ten verification suites, one test per criterion.

Each test prints the suite's pass/fail line and asserts both the verdict
and the suite's runtime budget.  Run with -s to see the lines.
"""

import hashlib
import json
import pathlib

from dihedralcalc.acceptance import SUITES, _battery, run_suite
from dihedralcalc.manifest import digest

_cache: dict = {}


def _run(name: str, budget_seconds: float):
    if name not in _cache:
        _cache[name] = run_suite(name)
    result = _cache[name]
    print(result.line())
    assert result.passed, result.counterexample
    assert result.seconds < budget_seconds
    return result


def test_criterion_01_chevalley_isomorphism():
    result = _run("chevalley", 5)
    assert result.details["cartan_pairs"] == 6


def test_criterion_02_algebra_laws():
    result = _run("algebra", 10)
    # exhaustive triples over every basis for n = 2..8
    assert result.details["associativity_triples"] == \
        sum((2 * n) ** 3 for n in range(2, 9))


def test_criterion_03_concavity_audit():
    _run("concavity", 5)


def test_criterion_04_limit_agreement():
    result = _run("limits", 5)
    assert result.details["pairs_checked"] == \
        sum((2 * n) ** 2 + 2 * n * n for n in range(2, 13))


def test_criterion_05_cone_equalities():
    result = _run("cones", 600)
    assert result.details["certificates"] == 40


def test_criterion_06_facet_irredundancy():
    result = _run("facets", 600)
    assert result.details["rows_certified"] > 0


def test_criterion_07_classical_reduction():
    result = _run("classical", 1)
    assert result.details["rows"] == 6


def test_criterion_08_building_census():
    result = _run("census", 300)
    assert result.details["census_runs"] > 0


def test_criterion_09_semistability_round_trip():
    result = _run("semistable", 600)
    assert result.details["configurations"] == 150


def test_criterion_10_determinism():
    result = _run("determinism", 600)
    assert result.details["artifacts"] == 14


# Payload digests of the determinism battery's JSON artifacts and the
# sha256 of the LaTeX body (the lines after its manifest comment, which
# names the Python version).  A change that alters a payload on purpose
# updates this table and says so in CHANGES.md.
BATTERY_PINS = {
    "at4.json":
        "392a1d7f8a0ef8bf1b8d3fd4b3446ed63b2fa471b49be287feb28822ce016071",
    "gr5.json":
        "31794244ef1a2b7324128ec47b92108c7a5bced0b5aeecde5b237905df1c5db7",
    "limit3.json":
        "e08edd14aa82a8ac3a44b51f4b17b0c6181dff4206bc8608e3185844398911d3",
    "bi4.json":
        "79d779a05e9a9e915cbdf74766a1ae8bd7ffbeb09b0b54ba7041583562d9d0aa",
    "wti33.json":
        "eae747a0b61f697de9b3ba0c7c493e5f8b5524403a601839892982cd9b78a26f",
    "sti33.json":
        "7ffecc337969abcd8207db869c9d3dfc6b61cce2e7f051161057a1b81e1ca19b",
    "km33.json":
        "6490045eed0603c282cb968c751da4ebbf97ea83b509e64defd32ca5edf1540f",
    "bk43.json":
        "6544eeff9412087ff75ec720e60d892d922b3e372454f6803ec32ac8b06fca9a",
    "wti43.tex":
        "79a5ec0dc8361a381188dbe85192348a39f1efa7502853d8cda3bcd72214adcc",
    "audit33.json":
        "73d27d95a1c413c45e62788c67fcb7bedd520abf5fdbffac03410501d35ab38f",
    "equal33.json":
        "6e865d8acf222c18b289094bf24ecff192a74bb5b05f458f3781d779e33109e2",
    "member.json":
        "b446d5b4871bdc8847b0fc5ac514fba90a8d299be8249b8d10c517884a0154d1",
    "build3.json":
        "99471d37c06b361237948865b2c63f646ca49ecf6f5e1333d66fdf8377b35536",
    "slope3.json":
        "2e2f05b6bc3da1bb97e769ebd6bf09d8d4382d988605c268934511baa2fbb09b",
}


def test_battery_payloads_pinned(tmp_path):
    found = {}
    for path in map(pathlib.Path, _battery(tmp_path)):
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            assert doc["manifest"]["digests"]["payload"] == \
                digest(doc["payload"])
            found[path.name] = digest(doc["payload"])
        else:
            manifest, body = data.split(b"\n", 1)
            assert manifest.startswith(b"% manifest: ")
            found[path.name] = hashlib.sha256(body).hexdigest()
    assert found == BATTERY_PINS


def test_every_suite_registered():
    assert list(SUITES) == [
        "chevalley", "algebra", "concavity", "limits", "cones", "facets",
        "classical", "census", "semistable", "determinism"]
