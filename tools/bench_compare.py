#!/usr/bin/env python3
"""Compare two benchmark JSON files and fail on throughput regressions.

Usage:
    bench_compare.py BASELINE.json CANDIDATE.json [--tolerance 0.10]

The CI perf gate runs this against the checked-in baseline (BENCH_*.json)
and a freshly measured candidate. Records are matched by their identity
keys (everything that is not a measurement), and each shared measure is
classified as higher-better (gflops, speedup, throughput) or lower-better
(seconds, bytes-ish time fields). A matched measure regresses when it is
worse than the baseline by more than the tolerance fraction; the script
prints every comparison and exits 1 if any regressed.

Files carrying a machine identity block (hqr-bench-kernels-v2's
"machine": {"cpu": ...}) are refused when the cpu ids differ — absolute
rates from different machines gate on hardware, not regressions. Pass
--allow-cross-host to compare anyway (e.g. CI runners vs the dedicated
box that produced the checked-in baseline, gating on ratio measures).

Supported schemas: hqr-bench-kernels-v1/v2 (results/speedups/end_to_end),
hqr-bench-dist-v1/v2, hqr-bench-runtime-v1/v2, hqr-bench-serve-v1 (latency
percentiles p50/p95/p99 gate lower-better with the same tolerance) and
hqr-bench-fault-v1 (base/fault makespans and recovery_inflation gate
lower-better; the deterministic recovery counters are provenance, not
identity, so a model change shows up as a measure diff instead of
silently unmatching the record) are handled by the same generic record
walker — any JSON whose "results" entries mix identity fields
(strings/ints) with float measures works.
"""

import argparse
import json
import sys

# Measures and their direction; anything not listed here is treated as an
# identity key when integral/string, and ignored when float but unknown.
HIGHER_BETTER = {"gflops", "speedup", "packed_gflops", "naive_gflops",
                 "tasks_per_second", "throughput_rps", "problems_per_second",
                 "fused_speedup"}
LOWER_BETTER = {"seconds", "packed_seconds", "naive_seconds",
                "makespan_seconds", "p50_ms", "p95_ms", "p99_ms",
                "base_seconds", "fault_seconds", "recovery_inflation"}
MEASURES = HIGHER_BETTER | LOWER_BETTER

# Provenance annotations, not identity: the v2 kernel bench records which
# micro-kernel produced each number. Two runs still measure the same thing
# when the dispatched kernel differs (that difference is the measurement),
# and v1 baselines lack the fields entirely.
PROVENANCE = {"isa", "shape",
              # hqr-bench-fault-v1 recovery counters: deterministic for a
              # given (plan, graph, dist), but a legitimate model change
              # must not unmatch the whole record.
              "kill_seconds", "tasks_lost", "tasks_reexecuted",
              "messages_replayed", "messages_resent", "base_messages",
              "fault_messages"}


def identity(record):
    """Hashable identity of a record: its non-measure scalar fields."""
    key = []
    for name in sorted(record):
        value = record[name]
        if name in MEASURES or name in PROVENANCE or isinstance(
                value, (list, dict)):
            continue
        key.append((name, value))
    return tuple(key)


def fmt_id(ident):
    return "/".join(f"{k}={v}" for k, v in ident) or "<root>"


def walk(doc):
    """Yield (section, record) for every measured record in a bench JSON."""
    for section in ("results", "speedups"):
        for record in doc.get(section, []):
            yield section, record
    if isinstance(doc.get("end_to_end"), dict):
        yield "end_to_end", doc["end_to_end"]


def compare(baseline, candidate, threshold, measures=MEASURES):
    """Return (comparisons, regressions) across all matched records."""
    base_index = {}
    for section, record in walk(baseline):
        base_index[(section, identity(record))] = record

    comparisons = []
    regressions = []
    for section, record in walk(candidate):
        base = base_index.get((section, identity(record)))
        if base is None:
            continue
        for measure in sorted(set(record) & set(base) & measures):
            new, old = record[measure], base[measure]
            if not isinstance(new, (int, float)) or not isinstance(
                    old, (int, float)) or old == 0:
                continue
            if measure in HIGHER_BETTER:
                regressed = new < old * (1.0 - threshold)
                change = new / old - 1.0
            else:
                regressed = new > old * (1.0 + threshold)
                change = old / new - 1.0 if new else 0.0
            row = (section, fmt_id(identity(record)), measure, old, new,
                   change, regressed)
            comparisons.append(row)
            if regressed:
                regressions.append(row)
    return comparisons, regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="allowed fractional regression (default 0.10)")
    ap.add_argument("--threshold", type=float, default=None,
                    help="deprecated alias for --tolerance")
    ap.add_argument("--allow-cross-host", action="store_true",
                    help="compare files whose machine identities differ "
                         "(absolute rates then reflect hardware, not "
                         "regressions; combine with --measures speedup)")
    ap.add_argument("--measures", default="",
                    help="comma-separated allowlist of measures to gate on "
                         "(default: all known measures). On shared/noisy "
                         "machines, gate on ratio measures like 'speedup' — "
                         "they compare two rates from the same run, so "
                         "machine load cancels out.")
    args = ap.parse_args()
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = args.threshold if args.threshold is not None else 0.10

    measures = MEASURES
    if args.measures:
        measures = set(args.measures.split(",")) & MEASURES
        if not measures:
            print(f"no known measures in --measures={args.measures} "
                  f"(known: {sorted(MEASURES)})", file=sys.stderr)
            return 2

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.candidate) as f:
        candidate = json.load(f)

    bschema = baseline.get("schema", "?")
    cschema = candidate.get("schema", "?")
    if bschema.rsplit("-", 1)[0] != cschema.rsplit("-", 1)[0]:
        print(f"schema mismatch: {bschema} vs {cschema}", file=sys.stderr)
        return 2

    bcpu = (baseline.get("machine") or {}).get("cpu")
    ccpu = (candidate.get("machine") or {}).get("cpu")
    if bcpu and ccpu and bcpu != ccpu:
        if not args.allow_cross_host:
            print(f"machine mismatch: baseline measured on '{bcpu}', "
                  f"candidate on '{ccpu}' — absolute rates are not "
                  f"comparable across hosts. Re-baseline on this machine, "
                  f"or pass --allow-cross-host (ideally with "
                  f"--measures speedup, which gates on load-insensitive "
                  f"ratios).", file=sys.stderr)
            return 2
        print(f"warning: cross-host comparison ('{bcpu}' vs '{ccpu}')",
              file=sys.stderr)

    comparisons, regressions = compare(baseline, candidate, tolerance,
                                       measures)
    if not comparisons:
        print("no comparable records found", file=sys.stderr)
        return 2

    for section, ident, measure, old, new, change, regressed in comparisons:
        marker = "REGRESSED" if regressed else "ok"
        print(f"{marker:9s} {section}: {ident} {measure} "
              f"{old:.6g} -> {new:.6g} ({change:+.1%})")

    print(f"\n{len(comparisons)} measures compared, "
          f"{len(regressions)} regressed (tolerance {tolerance:.0%})")
    if regressions:
        print("FAIL: performance regression detected", file=sys.stderr)
        return 1
    print("OK: no regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
