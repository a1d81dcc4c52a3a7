#!/usr/bin/env python3
"""Bench regression guard: diff a fresh microbench JSON run against a
committed BENCH_*_baseline.json snapshot and fail on regressions beyond a
noise threshold.

Absolute times are machine-dependent (the baselines were recorded on the
study container, CI runs elsewhere), so the comparison is on RATIOS: each
benchmark's time is normalized by an anchor benchmark from the SAME run,
and compared against the baseline's after-times normalized the same way. A
benchmark regresses when

    (measured[b] / measured[anchor]) / (baseline[b] / baseline[anchor])
        > threshold

The default threshold is deliberately generous (CI smoke runs are
single-repetition): this catches order-of-magnitude slips — an inline cache
that stopped hitting, a fast path that fell off — not single-digit noise.

Usage:
    diff_bench.py measured.json baseline.json [--threshold 2.5]
    diff_bench.py --metrics soak_metrics.json

measured.json: google-benchmark --benchmark_format=json output.
baseline.json: this repo's snapshot format ({"benchmarks": {name:
{"after_ms"|"after_ns": ...}}}, optional "anchor": name).

--metrics mode ingests the observability snapshot the soak smoke dumps
(fuzz_driver --soak --metrics-out; {"counters": {...}, "gauges": {...},
"histograms": {...}}) and emits NON-FATAL ::notice annotations when an
engine health ratio looks off — an inline-cache hit rate below its floor,
or sessions shed by admission control during a smoke that should sail
through. These are trend flags, not gates (a loaded CI runner can shed
legitimately), so this mode always exits 0.
"""

import argparse
import json
import sys

# Health floors for --metrics mode. The IC floor is far below the steady
# observed rate (~98%) so only a real fast-path loss trips it.
IC_HIT_RATE_FLOOR = 0.90
# One counter per shed event: governor.shed reads the same governor count
# as service.shed_memory, so listing both would count each memory shed twice.
SHED_COUNTERS = (
    "service.shed_memory",
    "service.shed_queue_full",
)


def check_metrics(path):
    """Non-fatal health notices from a soak metrics snapshot. Returns 0."""
    with open(path) as f:
        snap = json.load(f)
    counters = snap.get("counters", {})

    print(f"metrics check: {path}")
    for prefix in ("read", "write"):
        hits = counters.get(f"interp.ic_{prefix}_hits", 0)
        misses = counters.get(f"interp.ic_{prefix}_misses", 0)
        total = hits + misses
        if total == 0:
            continue
        rate = hits / total
        status = "ok" if rate >= IC_HIT_RATE_FLOOR else "LOW"
        print(f"  interp.ic_{prefix} hit rate: {rate:.4f} "
              f"({hits}/{total}) {status}")
        if rate < IC_HIT_RATE_FLOOR:
            print(f"::notice title=IC {prefix} hit rate below floor::"
                  f"interp.ic_{prefix} hit rate {rate:.4f} < "
                  f"{IC_HIT_RATE_FLOOR:.2f} in {path}; the inline-cache "
                  f"fast path may have regressed (megamorphic trips: "
                  f"{counters.get('interp.ic_megamorphic_trips', 0)}, "
                  f"re-caches: {counters.get('interp.ic_recaches', 0)}).")

    shed = {name: counters.get(name, 0) for name in SHED_COUNTERS}
    total_shed = sum(shed.values())
    submitted = counters.get("service.submitted", 0)
    print(f"  sessions shed: {total_shed} of {submitted} submitted")
    if total_shed > 0:
        detail = ", ".join(f"{k}={v}" for k, v in shed.items() if v > 0)
        print(f"::notice title=soak smoke shed sessions::"
              f"{total_shed} of {submitted} sessions shed ({detail}) in "
              f"{path}; admission control fired during a smoke that should "
              f"admit everything — check memory estimates and queue bounds.")
    return 0


def baseline_time(entry):
    """Baseline after-time in ns, or None for non-time entries."""
    if "after_ns" in entry:
        return float(entry["after_ns"])
    if "after_ms" in entry:
        return float(entry["after_ms"]) * 1e6
    return None


def measured_times(doc):
    """name -> real_time in ns from a google-benchmark JSON document."""
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate" and bench.get(
                "aggregate_name") != "median":
            continue
        name = bench["name"]
        for suffix in ("_median", "_mean"):
            if name.endswith(suffix):
                name = name[: -len(suffix)]
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        times[name] = float(bench["real_time"]) * scale
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured", nargs="?")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("--threshold", type=float, default=2.5)
    parser.add_argument("--metrics", metavar="SNAP_JSON",
                        help="observability snapshot to health-check "
                             "(non-fatal notices; exits 0)")
    args = parser.parse_args()

    if args.metrics:
        return check_metrics(args.metrics)
    if not args.measured or not args.baseline:
        parser.error("measured and baseline are required without --metrics")

    with open(args.measured) as f:
        measured = measured_times(json.load(f))
    with open(args.baseline) as f:
        baseline_doc = json.load(f)

    baseline = {}
    for name, entry in baseline_doc.get("benchmarks", {}).items():
        time_ns = baseline_time(entry)
        if time_ns is not None:
            baseline[name] = time_ns

    common = [name for name in baseline if name in measured]
    if len(common) < 2:
        print(f"diff_bench: <2 common benchmarks between {args.measured} and "
              f"{args.baseline}; nothing to compare", file=sys.stderr)
        return 0

    anchor = baseline_doc.get("anchor")
    if anchor not in measured or anchor not in baseline:
        anchor = sorted(common)[0]

    failures = []
    improved = []
    print(f"bench guard: {args.baseline} (anchor {anchor}, "
          f"threshold {args.threshold:.2f}x)")
    for name in sorted(common):
        if name == anchor:
            continue
        measured_rel = measured[name] / measured[anchor]
        baseline_rel = baseline[name] / baseline[anchor]
        ratio = measured_rel / baseline_rel
        status = "ok"
        if ratio > args.threshold:
            status = "REGRESSION"
            failures.append(name)
        elif ratio < 1.0 / args.threshold:
            status = "improved (consider refreshing the baseline)"
            improved.append(name)
        print(f"  {name}: rel {measured_rel:.3f} vs baseline {baseline_rel:.3f} "
              f"-> x{ratio:.2f} {status}")

    if improved:
        # Non-fatal baseline-refresh reminder. A benchmark running far ahead
        # of its snapshot means the snapshot no longer anchors the guard: a
        # later regression back to the recorded level would pass silently.
        # The ::notice:: line renders as a GitHub Actions annotation on the
        # workflow run (and is harmless noise locally).
        names = ", ".join(improved)
        print(f"diff_bench: {len(improved)} benchmark(s) ran >= "
              f"{args.threshold:.2f}x ahead of {args.baseline}: {names}")
        print(f"::notice title=bench baseline refresh suggested::"
              f"{names} outran {args.baseline} by >= {args.threshold:.2f}x; "
              f"regenerate the snapshot (bench/run_microbench.sh) so the "
              f"regression guard re-anchors at the new level.")

    if failures:
        print(f"diff_bench: {len(failures)} regression(s) beyond "
              f"x{args.threshold:.2f}: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
