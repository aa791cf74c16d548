"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_digest_follows_the_seed(name):
    first = workloads.sha(workloads.make_inputs(name, 3))
    assert first == workloads.sha(workloads.make_inputs(name, 3))
    assert first != workloads.sha(workloads.make_inputs(name, 4))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_rounds_have_the_same_multiset_of_sizes_for_every_seed(name):
    def sizes(items):
        return sorted(tuple(str(i.get(k)) for k in
                            ("kind", "n", "m", "l", "algebra", "expect"))
                      for i in items)

    assert sizes(workloads.make_inputs(name, 1)) \
        == sizes(workloads.make_inputs(name, 2))


@pytest.mark.parametrize("good, wrong", [
    ({"kind": "audit", "n": 2, "m": 3, "expect": "facet"}, "redundant"),
    ({"kind": "equal", "a": "wti", "b": "a1", "n": 2, "m": 3, "expect": True},
     False),
])
def test_a_wrong_expected_verdict_fails_the_check(good, wrong):
    bad = dict(good, expect=wrong)
    ok = worker.measure([good, good], seconds=0)
    assert ok["failed"] == 0 and run.verdicts_hold(dict(ok, **_passed()))
    doc = worker.measure([good, bad], seconds=0)
    assert doc["failed"] == doc["attempted"] // 2 > 0
    assert not run.verdicts_hold(dict(doc, **_passed()))


def _passed() -> dict:
    return {"warmup_ok": True, "determinism_ok": True}


def test_traced_counts_repeat_and_cover_every_layer_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "census-growth", "--seed", "5",
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append(result["metrics"])
    assert set(runs[0]) == {m["name"] for m in declared}
    counts = [m["name"] for m in declared if m["unit"] == "count"]
    assert [runs[0][c]["value"] for c in counts] \
        == [runs[1][c]["value"] for c in counts]
    zeros = [m for row in _interactions()["layers"]
             if "census-growth" in row["predicted_zero"]["on"]
             for m in row["predicted_zero"]["metrics"]]
    assert "lp.solves" in zeros and "field.mul_calls" in zeros
    assert {m: runs[0][m]["value"] for m in zeros} == dict.fromkeys(zeros, 0)


def _interactions() -> dict:
    return json.loads((HERE / "interactions.json").read_text())


def test_every_layer_metric_belongs_to_one_row_of_the_interaction_map():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = _interactions()["layers"]
    e2e = {m["name"] for m in declared["end_to_end"]}
    for m in declared["per_layer"]:
        owners = [r for r in rows if m["name"].startswith(tuple(r["prefixes"]))]
        assert len(owners) == 1, m["name"]
    layer = {m["name"] for m in declared["per_layer"]}
    for r in rows:
        assert set(r["predicted_zero"]["metrics"]) <= layer
        assert set(r["moves"]) <= e2e
        assert set(r["on"] + r["flat_on"] + r["predicted_zero"]["on"]) \
            <= set(run.WORKLOADS)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cone-lp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
