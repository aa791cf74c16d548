"""One fresh benchmark process: set up one workload, then measure or trace it.

Started by ``run.py`` with a cleaned environment; prints one JSON document as
its last stdout line.  Modes:

* ``setup``   - imports, seeded inputs and one warm-up item (which builds the
                descriptors it uses), then report the set-up time and exit;
* ``measure`` - set up, then run whole rounds of the inputs untraced for about
                ``--seconds`` seconds, recording every latency and verdict;
* ``trace``   - set up, run a cache-filling round, one round untraced and the
                same round traced, then the field kernel pass; report per-layer
                numbers and write the spans.

Set-up time runs from ``--t0``, the parent's monotonic clock when it started
this process, so interpreter start-up is included.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import workloads  # the script's directory is first on sys.path
from dihedralcalc import acceptance, field

clock = time.perf_counter
KERNEL_REPS = 201
MIN_ROUNDS = 2  # measured rounds, after the burn-in
# latency_tail_ms is this percentile of every measured latency.  It is fixed,
# not the highest with ten latencies beyond it, because that one would rise
# with the number of rounds a run fits in.  A 40 s run has well over ten
# latencies beyond p90 on every workload (cone-lp: 26 items x 7-8 rounds).
TAIL_PERCENTILE = 90


def setup(workload: str, seed: int, t0: float):
    """Seeded inputs and one warm-up item; imports precede us.

    The warm-up item builds the descriptors it needs; those of the other
    sizes are built in the burn-in round, as the workload first uses them.
    """
    items = workloads.make_inputs(workload, seed)
    warm_ok, _ = workloads.run_item(workloads.WARMUP[workload])
    return items, warm_ok, time.monotonic() - t0


def run_round(items, tracer=None):
    """One pass over the inputs: latencies, ok flags and verdicts."""
    lat, oks, verdicts = [], [], []
    for i, item in enumerate(items):
        start = clock()
        if tracer is None:
            ok, verdict = workloads.run_item(item)
        else:
            ok, verdict = tracer.item_span(i, workloads.run_item, item)
        lat.append(clock() - start)
        oks.append(bool(ok))
        verdicts.append(verdict)
    return lat, oks, verdicts


def measure(items, seconds: float) -> dict:
    """Whole rounds for about ``seconds``, the first of them a burn-in.

    The burn-in round fills the package's lazy caches (per-field binomials,
    weightings); the metrics use every latency of the rounds after it, so
    none of them depends on how many rounds fit into the run.  items_per_s
    is the items of those rounds over their wall time; p50 and the tail are
    percentiles of all their item latencies (items x rounds).
    """
    pool = []
    timed = []
    digests = set()
    attempted = failed = 0
    start = clock()
    while True:
        r0 = clock()
        lat, oks, verdicts = run_round(items)
        r1 = clock()
        if attempted:  # not the burn-in
            timed.append(r1 - r0)
            pool += [x * 1e3 for x in lat]
        digests.add(workloads.sha(verdicts))
        attempted += len(oks)
        failed += oks.count(False)
        mean_round = (r1 - start) / (len(timed) + 1)
        if len(timed) >= MIN_ROUNDS and r1 - start >= seconds - mean_round / 2:
            break
    tail = statistics.quantiles(pool, n=100, method="inclusive")[
        TAIL_PERCENTILE - 1]
    return {
        "rounds": len(timed),
        "timed_s": clock() - start,
        "items_per_s": len(pool) / sum(timed),
        "latency_p50_ms": statistics.median(pool),
        "latency_tail_ms": tail,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_items_beyond": sum(x > tail for x in pool),
        "latencies_measured": len(pool),
        "round_rates": [len(items) / t for t in timed],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "verdicts_repeat": len(digests) == 1,
        "verdict_digest": digests.pop() if len(digests) == 1 else None,
    }


def _dense(rng, descr):
    from fractions import Fraction
    return descr.element(Fraction(rng.choice([-1, 1]) * rng.randint(1, 99),
                                  rng.randint(1, 30))
                         for _ in range(descr.degree))


def kernel_pass(seed: int) -> dict:
    """Median microseconds of field multiply, inverse and sign."""
    import random
    rng = random.Random(f"kernel:{seed}")
    out = {}

    def median_us(fn, args_list):
        times = []
        for args in args_list:
            s = clock()
            fn(*args)
            times.append(clock() - s)
        return statistics.median(times) * 1e6

    for n in (2, 8, 16):  # field_init(n) has degree n for these n
        descr = field.field_init(n)
        degree = descr.degree
        pairs = [(_dense(rng, descr), _dense(rng, descr))
                 for _ in range(KERNEL_REPS)]
        out[f"field.mul_us.deg{degree}"] = median_us(
            lambda a, b: a * b, pairs)
        if degree in (2, 8):
            out[f"field.inv_us.deg{degree}"] = median_us(
                lambda a: a.inverse(), [(a,) for a, _ in pairs])
        if degree == 8:
            fresh = [(field.FieldElement(descr, a.coeffs),) for a, _ in pairs]
            out["field.sign_us.deg8"] = median_us(lambda a: a.sign(), fresh)
    return out


def trace(items, seed: int, spans_path: str) -> dict:
    import tracer as tracing

    run_round(items)  # fill the caches the untraced and traced rounds share
    s = clock()
    _, oks_u, _ = run_round(items)
    wall_untraced = clock() - s
    t = tracing.Tracer()
    tracing.install(t)
    try:
        s = clock()
        _, oks_t, verdicts = run_round(items, t)
        wall_traced = clock() - s
    finally:
        t.uninstall()
    metrics = tracing.layer_metrics(t)
    metrics.update(kernel_pass(seed))
    metrics["trace.overhead_ratio"] = wall_traced / wall_untraced
    with open(spans_path, "w") as fh:
        json.dump(t.dump(), fh, separators=(",", ":"))
    oks = oks_u + oks_t
    return {
        "layers": metrics,
        "attempted": len(oks),
        "failed": oks.count(False),
        "wall_untraced_s": wall_untraced,
        "wall_traced_s": wall_traced,
        "verdict_digest": workloads.sha(verdicts),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="measure mode: how long to run rounds")
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="parent's time.monotonic() when it started us")
    ap.add_argument("--spans", help="trace mode: where to write the spans")
    args = ap.parse_args(argv)

    items, warm_ok, setup_s = setup(args.workload, args.seed, args.t0)
    doc = {"setup_s": setup_s, "warmup_ok": warm_ok}
    if args.mode == "measure":
        if args.seconds is None:
            ap.error("--seconds is required with --mode measure")
        doc.update(measure(items, args.seconds))
    elif args.mode == "trace":
        doc.update(trace(items, args.seed, args.spans))
    if args.mode != "setup":
        import mpmath
        doc["determinism_ok"] = acceptance.run_suite("determinism").passed
        doc["inputs_digest"] = workloads.sha(items)
        doc["items_per_round"] = len(items)
        doc["mpmath"] = mpmath.__version__
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
