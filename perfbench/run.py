"""Benchmark of dihedralcalc's verdict workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cone-lp --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 40

``--trace 0`` measures the end-to-end metrics with tracing off: several fresh
set-up processes for ``setup_s``, then one fresh process that runs whole
rounds of the seeded inputs for about ``--seconds`` seconds.  ``--trace 1``
runs one round untraced and the same round traced in one fresh process and
reports the per-layer metrics.  Every item's verdict is checked; so is the
``determinism`` suite, once per process that measures.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit.  A detailed record of each run (digests, environment,
tail percentile) is written under ``perfbench/out/``.  The exit code is 0
when every verdict holds, 1 when one does not, 2 when the benchmark cannot
run (for instance without the package sources next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "dihedralcalc"
OUT = HERE / "out"
WORKLOADS = ("cone-lp", "census-growth", "algebra-tables")
SETUP_PROBES = 10  # set-up-only processes; setup_s is the median with the main
DEADLINE_S = 170.0  # per workload; a single run must end within 180 s

END_TO_END = ("setup_s", "items_per_s", "latency_p50_ms", "latency_tail_ms",
              "peak_rss_mb")  # units are declared in BENCHMARK.json


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DIHEDRALCALC_BUDGET", None)  # a stray budget would change work
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT / "tmp")  # the determinism suite's temp files
    return env


def worker(args: list[str], deadline: float) -> dict:
    """Run one fresh worker process to completion and parse its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--t0", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a worker could start")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchError(f"worker {' '.join(args)} ran past the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": source.hexdigest()}


def verdicts_hold(doc: dict) -> bool:
    """Every item, the warm-up item and the determinism suite passed, and
    repeated rounds gave the same verdicts."""
    return bool(doc["failed"] == 0 and doc["warmup_ok"] and doc["determinism_ok"]
                and doc.get("verdicts_repeat", True))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "environment": environment(), "loadavg_before": os.getloadavg()}
    if trace:
        spans = OUT / f"{name}-seed{seed}.spans.json"
        doc = worker(base + ["--mode", "trace", "--spans", str(spans)],
                     deadline)
        metrics = doc.pop("layers")
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        # set-up probes on both sides of the measurement, so that a slow
        # stretch of the host does not shift all of them at once
        def probes():
            return [worker(base + ["--mode", "setup"], deadline)["setup_s"]
                    for _ in range(SETUP_PROBES // 2)]

        before = probes()
        doc = worker(base + ["--mode", "measure", "--seconds", str(seconds)],
                     deadline)
        doc["setup_probes_s"] = before + probes()
        metrics = {k: doc[k] for k in END_TO_END if k != "setup_s"}
        metrics["setup_s"] = statistics.median(
            doc["setup_probes_s"] + [doc["setup_s"]])
        doc["failed_ratio"] = doc["failed"] / doc["attempted"]
    record["loadavg_after"] = os.getloadavg()
    record.update(doc)
    record["correct"] = verdicts_hold(doc)
    record["metrics"] = metrics
    return record


def units() -> dict[str, str]:
    """Units of every metric the benchmark reports, end to end and per layer."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in declared["end_to_end"] + declared["per_layer"]}


def report(record: dict, unit: dict[str, str]) -> None:
    name = record["workload"]
    for key, value in record["metrics"].items():
        print(f"{name:16s} {key:30s} {value:14.6g} {unit[key]}")
    if not record["trace"]:
        print(f"{name:16s} {'failed_ratio':30s} {record['failed_ratio']:14.6g}"
              f" ratio ({record['failed']} of {record['attempted']})")
        print(f"{name:16s} latency_tail_ms is p{record['tail_percentile']}"
              f" of {record['latencies_measured']} latencies"
              f" ({record['items_per_round']} items x {record['rounds']}"
              f" rounds); {record['tail_items_beyond']} lie beyond it")
    print(f"{name:16s} verdict_digest {record['verdict_digest']}")
    print(f"{name:16s} inputs_digest  {record['inputs_digest']}")
    if not record["correct"]:
        print(f"{name:16s} VERDICT CHECK FAILED", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dihedralcalc benchmark")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the measured part of a run lasts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (PACKAGE / "__init__.py").is_file():
            raise BenchError(f"package sources not found under {PACKAGE}")
        unit = units()
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               time.monotonic() + DEADLINE_S)
            trace_tag = f"trace{args.trace}"
            (OUT / f"{name}-seed{args.seed}-{trace_tag}.json").write_text(
                json.dumps(rec, indent=1))
            report(rec, unit)
            records.append(rec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        metrics = {k: {"value": v, "unit": unit[k]}
                   for k, v in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": unit[k]}
                   for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
