#!/usr/bin/env python3
"""Diff two BENCH_*.json run reports exactly, or gate one report's claims.

Diff mode (two files):

    scripts/compare_bench.py GOLDEN.json FRESH.json

The exact gate.  Rows are paired positionally (a bench emits its rows
in a fixed order) and every deterministic field — counts, work,
implication counters, sort digests, flags, names — must match exactly;
any mismatch, missing field or dropped row fails and is named.  Two
kinds of field are skipped because they legitimately change from run
to run:

  * timing fields (``*_seconds``, ``*_per_sec``, ``speedup``,
    ``throughput_ratio``).  Timing claims belong to the end-to-end
    benchmark's alternating pairs (perfbench/), not to this diff;
  * the observability blocks ``workers`` (per-worker seeds, steals and
    work depend on the schedule) and ``memo`` (subtree-replay cache
    hits depend on which worker saw a subtree first).

scripts/check_all.sh runs it on a fresh full bench_table2 report
against the committed BENCH_table2.json.

Serve mode (one file):

    scripts/compare_bench.py --serve BENCH_serve.json [--min-requests N]
                             [--min-hit-rate R]

Gates the daemon load-generator report (bench_serve): the mixed-replay
row must show at least --min-requests requests (default 2000) with
zero errors, a compiled-circuit cache hit rate of at least
--min-hit-rate (default 0.95), daemon responses bit-identical to the
one-shot session on every deterministic field, the fault-injected
probe aborted with a typed reason while the concurrent replay
completed, and positive latency/throughput numbers.

Eco mode (one file):

    scripts/compare_bench.py --eco BENCH_eco.json [--min-eco-speedup X]

Gates the edit-sequence study (bench_eco): every circuit row must show
the warm incremental flow bit-identical to cold full reclassification
(``identical``), every run completed, and strictly fewer reclassified
cones than the full flow pays (``touched_cones`` below cones x edits).
At least one row must carry a measurable wall-clock ``speedup`` of at
least --min-eco-speedup (default 1.0); rows whose runs were
sub-millisecond report ``null`` and are exempt from the timing check
but not from the structural ones.

Stdlib only; exits 0 on success, 1 on any failure, 2 on usage errors.
"""

import argparse
import json
import sys

TIMING_SUFFIXES = ("_seconds", "_per_sec")
TIMING_KEYS = {"speedup", "throughput_ratio"}
OBSERVABILITY_BLOCKS = {"workers", "memo"}


def is_timing_key(key):
    return key in TIMING_KEYS or key.endswith(TIMING_SUFFIXES)


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"compare_bench: cannot read {path}: {error}")
    if not isinstance(report, dict) or report.get("kind") != "bench":
        raise SystemExit(f"compare_bench: {path} is not a bench run report")
    if not isinstance(report.get("rows"), list):
        raise SystemExit(f"compare_bench: {path} has no rows array")
    return report


def row_label(report, index):
    row = report["rows"][index]
    name = row.get("circuit") if isinstance(row, dict) else None
    return f"row {index}" + (f" ({name})" if name else "")


def deterministic_fields(value, prefix=""):
    """Flatten a row into (dotted-key, leaf-value) pairs, leaving out the
    timing fields and the observability blocks."""
    if isinstance(value, dict):
        for key, child in sorted(value.items()):
            if key in OBSERVABILITY_BLOCKS or is_timing_key(key):
                continue
            dotted = f"{prefix}.{key}" if prefix else key
            yield from deterministic_fields(child, dotted)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from deterministic_fields(child, f"{prefix}[{i}]")
    else:
        yield prefix, value


def diff_reports(old, new):
    failures = []
    if old.get("bench") != new.get("bench"):
        failures.append(
            f"bench name differs: {old.get('bench')!r} vs {new.get('bench')!r}")
        return failures
    old_rows, new_rows = old["rows"], new["rows"]
    if len(old_rows) != len(new_rows):
        old_names = [row_label(old, i) for i in range(len(old_rows))]
        new_names = [row_label(new, i) for i in range(len(new_rows))]
        failures.append(
            f"row count differs: {len(old_rows)} vs {len(new_rows)} "
            f"({old_names} vs {new_names})")
        return failures

    for index, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
        old_flat = dict(deterministic_fields(old_row))
        new_flat = dict(deterministic_fields(new_row))
        label = row_label(old, index)
        for key in sorted(set(old_flat) | set(new_flat)):
            if key not in old_flat or key not in new_flat:
                failures.append(f"{label}: field {key} present in only one report")
            elif old_flat[key] != new_flat[key]:
                failures.append(
                    f"{label}: {key} differs: {old_flat[key]!r} vs "
                    f"{new_flat[key]!r}")
    return failures


def check_serve(report, min_requests, min_hit_rate):
    failures = []
    if report.get("bench") != "serve":
        failures.append(
            f"--serve expects a bench_serve report, got {report.get('bench')!r}")
        return failures
    mixed = None
    for row in report["rows"]:
        if isinstance(row, dict) and row.get("kind") == "mixed":
            mixed = row
    if mixed is None:
        failures.append("no mixed-replay row (bench_serve ran nothing)")
        return failures

    requests = mixed.get("requests")
    if not isinstance(requests, int) or requests < min_requests:
        failures.append(
            f"mixed: requests {requests!r} is below the {min_requests} floor")
    if mixed.get("errors") != 0:
        failures.append(f"mixed: {mixed.get('errors')!r} request error(s)")
    hit_rate = mixed.get("cache_hit_rate")
    if not isinstance(hit_rate, (int, float)) or hit_rate < min_hit_rate:
        failures.append(
            f"mixed: cache_hit_rate {hit_rate!r} is below the "
            f"{min_hit_rate:g} floor")
    if mixed.get("identical") is not True:
        failures.append(
            "mixed: daemon responses not bit-identical to the one-shot "
            "session (identical != true)")
    if mixed.get("fault_aborted") is not True:
        failures.append(
            "mixed: fault-injected probe did not abort (fault_aborted != true)")
    reason = mixed.get("fault_reason")
    if reason in (None, "", "none"):
        failures.append(f"mixed: fault abort reason {reason!r} is not typed")
    for field in ("p50_seconds", "p99_seconds", "requests_per_sec"):
        value = mixed.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            failures.append(f"mixed: {field} is not a positive number")
    return failures


def check_eco(report, min_eco_speedup):
    failures = []
    if report.get("bench") != "eco":
        failures.append(
            f"--eco expects a bench_eco report, got {report.get('bench')!r}")
        return failures
    rows = [row for row in report["rows"]
            if isinstance(row, dict) and row.get("kind") == "eco"]
    if not rows:
        failures.append("no eco rows (bench_eco ran nothing)")
        return failures

    best_speedup = None
    for index, row in enumerate(report["rows"]):
        if not (isinstance(row, dict) and row.get("kind") == "eco"):
            continue
        label = row_label(report, index)
        for field in ("cones", "edits", "touched_cones", "cached_cones",
                      "reclassified_fraction", "full_seconds", "eco_seconds"):
            if field not in row:
                failures.append(f"{label}: missing field {field}")
        if row.get("identical") is not True:
            failures.append(
                f"{label}: warm incremental not bit-identical to cold "
                "reclassification (identical != true)")
        if row.get("completed") is not True:
            failures.append(f"{label}: a run aborted (completed != true)")
        cones, edits = row.get("cones"), row.get("edits")
        touched = row.get("touched_cones")
        if all(isinstance(v, int) for v in (cones, edits, touched)):
            if touched >= cones * edits:
                failures.append(
                    f"{label}: incremental flow reclassified everything "
                    f"({touched} of {cones * edits} cone runs)")
        for field in ("full_seconds", "eco_seconds"):
            value = row.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                failures.append(f"{label}: {field} is not a positive number")
        speedup = row.get("speedup")
        if isinstance(speedup, (int, float)):
            if best_speedup is None or speedup > best_speedup:
                best_speedup = speedup
    if best_speedup is None:
        failures.append(
            "no row carries a measurable speedup (all runs sub-millisecond?)")
    elif best_speedup < min_eco_speedup:
        failures.append(
            f"best eco speedup {best_speedup:.3g} is below the "
            f"{min_eco_speedup:g}x floor")
    return failures


def main(argv):
    parser = argparse.ArgumentParser(
        prog="compare_bench.py",
        description="Diff two BENCH_*.json reports exactly, or gate a "
                    "serve/eco report.")
    parser.add_argument("files", nargs="+",
                        help="two reports (diff) or one (--serve/--eco)")
    parser.add_argument("--serve", dest="serve_check", action="store_true",
                        help="validate a single bench_serve report")
    parser.add_argument("--eco", dest="eco_check", action="store_true",
                        help="validate a single bench_eco report")
    parser.add_argument("--min-requests", type=int, default=2000,
                        help="replay size floor (serve mode)")
    parser.add_argument("--min-hit-rate", type=float, default=0.95,
                        help="cache hit rate floor (serve mode)")
    parser.add_argument("--min-eco-speedup", type=float, default=1.0,
                        help="incremental speedup floor (eco mode)")
    args = parser.parse_args(argv)

    if args.serve_check and args.eco_check:
        parser.error("--serve and --eco are mutually exclusive")
    if args.eco_check:
        if len(args.files) != 1:
            parser.error("--eco takes exactly one report")
        failures = check_eco(load_report(args.files[0]), args.min_eco_speedup)
    elif args.serve_check:
        if len(args.files) != 1:
            parser.error("--serve takes exactly one report")
        failures = check_serve(load_report(args.files[0]), args.min_requests,
                               args.min_hit_rate)
    else:
        if len(args.files) != 2:
            parser.error("diff mode takes exactly two reports")
        failures = diff_reports(load_report(args.files[0]),
                                load_report(args.files[1]))

    if failures:
        for failure in failures:
            print(f"compare_bench: {failure}", file=sys.stderr)
        print(f"compare_bench: FAILED ({len(failures)} problem(s))",
              file=sys.stderr)
        return 1
    print("compare_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
