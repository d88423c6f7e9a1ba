#!/usr/bin/env python3
"""Compare two BENCH_*.json run reports, or gate one against a speedup floor.

Diff mode (two files):

    scripts/compare_bench.py OLD.json NEW.json [--tolerance PCT] [--ignore-time]

Rows are paired positionally (a bench emits its rows in a fixed order)
and every field is compared:

  * deterministic fields (counts, flags, names — anything that is not a
    timing measurement) must match exactly; a mismatch means the two
    runs did different logical work and the comparison fails;
  * timing fields (``*_seconds``, ``*_per_sec``, ``speedup``,
    ``throughput_ratio``) are noisy by nature, so only *regressions*
    beyond --tolerance percent (default 25) fail: NEW slower, or NEW's
    throughput/speedup lower.  ``--ignore-time`` skips them entirely.
    A ``null`` timing value (sub-millisecond runs report no speedup)
    pairs only with ``null``.

Self mode (one file):

    scripts/compare_bench.py --self BENCH_micro.json [--min-speedup X]
                             [--circuit NAME] [--min-tree-speedup Y]
                             [--min-small-ratio Z]

Validates the compiled-vs-reference micro report on its own terms:
every row must carry both engines' numbers and the ``identical``
bit-identity verdict, the gated circuit's ``throughput_ratio``
(default: mcnc-like, the PR's headline number) must be at least
--min-speedup (default 2.0), and the report must contain a path-tree
row (flat per-path re-runs vs the shared-prefix-tree DFS on the deep
carry mesh) whose ratio reaches --min-tree-speedup (default 2.0).  A
missing path-tree row fails: it means bench_micro ran without that
study.  The small-circuit gate rides on the same report: the
classify-fs rows for ``example`` and ``c17`` must exist and reach
--min-small-ratio (default 1.0) — the compiled engine must not lose to
the frozen reference even when the whole run is microseconds.

Trend mode (two files):

    scripts/compare_bench.py --trend BASELINE.json FRESH.json
                             [--trend-tolerance PCT]
                             [--trend-min-props N]

Diffs a fresh run against the committed baseline report by row
*identity* — (kind, circuit, threads) — instead
of position, so reports from different code revisions still pair up.
Only machine-portable relative metrics are gated: ``throughput_ratio``
and ``speedup``, plus the serial/parallel ratio synthesized from
bench_engines rows.  Absolute wall-clock fields are skipped (the
baseline was measured on a different machine or load).  A gated metric
may not drop more than --trend-tolerance percent (default 15, env
RD_TREND_TOLERANCE via run_bench.sh).  Rows too small to time stably
are exempt: gating needs ``propagations`` >= --trend-min-props
(default 10000) or a serial run of >= 10ms; a baseline with no
gateable row at all (the quick engines report) passes with a note.
A baseline row missing from the fresh report fails — the bench
dropped a study.

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
TIMING_KEYS = {"speedup", "throughput_ratio", "wall_seconds", "busy_seconds"}


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


def flatten_entries(value, prefix=""):
    """Flatten nested row objects into (dotted-key, leaf-value) pairs."""
    if isinstance(value, dict):
        for key, child in sorted(value.items()):
            dotted = f"{prefix}.{key}" if prefix else key
            yield from flatten_entries(child, dotted)
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from flatten_entries(child, f"{prefix}[{i}]")
    else:
        yield prefix, value


def leaf_key(dotted):
    """The last path component, used for timing-key classification."""
    tail = dotted.rsplit(".", 1)[-1]
    return tail.split("[", 1)[0]


def diff_reports(old, new, tolerance, ignore_time):
    failures = []
    if old.get("bench") != new.get("bench"):
        failures.append(
            f"bench name differs: {old.get('bench')!r} vs {new.get('bench')!r}")
        return failures
    old_rows, new_rows = old["rows"], new["rows"]
    if len(old_rows) != len(new_rows):
        failures.append(f"row count differs: {len(old_rows)} vs {len(new_rows)}")
        return failures

    for index, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
        old_flat = dict(flatten_entries(old_row))
        new_flat = dict(flatten_entries(new_row))
        label = row_label(old, index)
        for key in sorted(set(old_flat) | set(new_flat)):
            if key not in old_flat or key not in new_flat:
                failures.append(f"{label}: field {key} present in only one report")
                continue
            old_value, new_value = old_flat[key], new_flat[key]
            if not is_timing_key(leaf_key(key)):
                if old_value != new_value:
                    failures.append(
                        f"{label}: {key} differs: {old_value!r} vs {new_value!r}")
                continue
            if ignore_time:
                continue
            if old_value is None or new_value is None:
                # The n/a marker for sub-millisecond timings must not
                # flip between runs of the same protocol.
                if old_value is not new_value:
                    failures.append(
                        f"{label}: {key} null-ness differs: "
                        f"{old_value!r} vs {new_value!r}")
                continue
            slack = 1.0 + tolerance / 100.0
            if key.endswith("_seconds") or leaf_key(key) in (
                    "wall_seconds", "busy_seconds"):
                if old_value > 0 and new_value > old_value * slack:
                    failures.append(
                        f"{label}: {key} regressed: {old_value:.6g}s -> "
                        f"{new_value:.6g}s (> +{tolerance:g}%)")
            else:  # rates, speedups, ratios: larger is better
                if old_value > 0 and new_value < old_value / slack:
                    failures.append(
                        f"{label}: {key} regressed: {old_value:.6g} -> "
                        f"{new_value:.6g} (> -{tolerance:g}%)")
    return failures


def check_self(report, min_speedup, circuit, min_tree_speedup,
               min_small_ratio):
    failures = []
    if report.get("bench") != "micro":
        failures.append(
            f"--self expects a bench_micro report, got {report.get('bench')!r}")
        return failures
    gated = None
    tree = None
    small = {}
    for index, row in enumerate(report["rows"]):
        label = row_label(report, index)
        for field in ("propagations", "reference_seconds", "compiled_seconds",
                      "throughput_ratio", "identical"):
            if field not in row:
                failures.append(f"{label}: missing field {field}")
        if row.get("identical") is not True:
            failures.append(f"{label}: engines disagreed (identical != true)")
        for field in ("reference_seconds", "compiled_seconds"):
            value = row.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                failures.append(f"{label}: {field} is not a positive number")
        if row.get("circuit") == circuit and row.get("kind") == "classify-fs":
            gated = row
        if row.get("kind") == "classify-fs" and row.get("circuit") in (
                "example", "c17"):
            small[row.get("circuit")] = row
        if row.get("kind") == "path-tree":
            tree = row
    if gated is None:
        failures.append(f"no classify-fs row for gated circuit {circuit!r}")
    else:
        ratio = gated.get("throughput_ratio")
        if not isinstance(ratio, (int, float)) or ratio < min_speedup:
            failures.append(
                f"{circuit}: throughput_ratio {ratio!r} is below the "
                f"{min_speedup:g}x floor")
    if tree is None:
        failures.append(
            "no path-tree row (bench_micro ran without the deep-mesh study)")
    else:
        ratio = tree.get("throughput_ratio")
        if not isinstance(ratio, (int, float)) or ratio < min_tree_speedup:
            failures.append(
                f"path-tree: throughput_ratio {ratio!r} is below the "
                f"{min_tree_speedup:g}x floor")
    for name in ("example", "c17"):
        row = small.get(name)
        if row is None:
            failures.append(
                f"no classify-fs row for small circuit {name!r} (the "
                "small-circuit overhead gate has nothing to check)")
            continue
        ratio = row.get("throughput_ratio")
        if not isinstance(ratio, (int, float)) or ratio < min_small_ratio:
            failures.append(
                f"small circuit {name}: throughput_ratio {ratio!r} is below "
                f"the {min_small_ratio:g}x floor (compiled-engine setup "
                "overhead regressed)")
    return failures


def trend_key(row):
    """Identity of a row across code revisions (not position)."""
    return (row.get("kind"), row.get("circuit"), row.get("threads"))


def trend_metrics(row):
    """Machine-portable relative metrics of one row: {name: value}.

    Absolute wall-clock numbers are deliberately excluded — the
    committed baseline was measured on a different machine or under
    different load, so only ratios of two timings taken in the same
    run carry across.  bench_engines rows have no ratio field; their
    serial/parallel ratio is synthesized here.
    """
    metrics = {}
    for name in ("throughput_ratio", "speedup"):
        value = row.get(name)
        if isinstance(value, (int, float)):
            metrics[name] = value
    serial = row.get("serial_seconds")
    parallel = row.get("parallel_seconds")
    if (isinstance(serial, (int, float)) and isinstance(parallel, (int, float))
            and parallel > 0):
        metrics["serial/parallel"] = serial / parallel
    return metrics


def trend_gated(row):
    """Whether a row is large enough to time stably across runs."""
    props = row.get("propagations")
    if isinstance(props, int) and props >= trend_gated.min_props:
        return True
    serial = row.get("serial_seconds")
    return isinstance(serial, (int, float)) and serial >= 0.01


trend_gated.min_props = 10000


def check_trend(old, new, tolerance, min_props):
    failures = []
    if old.get("bench") != new.get("bench"):
        failures.append(
            f"bench name differs: {old.get('bench')!r} vs {new.get('bench')!r}")
        return failures
    trend_gated.min_props = min_props

    def index_rows(report):
        table = {}
        for row in report["rows"]:
            if not isinstance(row, dict):
                continue
            key = trend_key(row)
            # Duplicate identities keep their per-key order so repeated
            # studies (if a bench ever emits them) still pair up.
            table.setdefault(key, []).append(row)
        return table

    old_rows, new_rows = index_rows(old), index_rows(new)
    slack = 1.0 - tolerance / 100.0
    gated_rows = 0
    for key, old_list in sorted(old_rows.items(), key=repr):
        new_list = new_rows.get(key, [])
        label = "/".join(str(part) for part in key if part is not None)
        if len(new_list) < len(old_list):
            failures.append(
                f"{label}: baseline has {len(old_list)} row(s), fresh run "
                f"has {len(new_list)} (a study was dropped)")
            continue
        for old_row, new_row in zip(old_list, new_list):
            if not trend_gated(old_row):
                continue
            gated_rows += 1
            old_metrics = trend_metrics(old_row)
            new_metrics = trend_metrics(new_row)
            for name, old_value in sorted(old_metrics.items()):
                if name not in new_metrics:
                    failures.append(
                        f"{label}: metric {name} vanished from the fresh run")
                    continue
                new_value = new_metrics[name]
                if old_value > 0 and new_value < old_value * slack:
                    failures.append(
                        f"{label}: {name} regressed {old_value:.4g} -> "
                        f"{new_value:.4g} (> -{tolerance:g}%)")
    # A baseline with no gateable row (the quick engines report is all
    # microsecond runs) legitimately has nothing to protect — the
    # dropped-study check above still ran, so pass with a note rather
    # than failing an empty comparison.
    if gated_rows == 0:
        print("compare_bench: note: no baseline row large enough to "
              f"trend-gate (all below {min_props} propagations / 10ms); "
              "only study coverage was checked")
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
        description="Diff two BENCH_*.json reports or gate a micro report.")
    parser.add_argument("files", nargs="+", help="one (--self) or two reports")
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="validate a single bench_micro report")
    parser.add_argument("--serve", dest="serve_check", action="store_true",
                        help="validate a single bench_serve report")
    parser.add_argument("--eco", dest="eco_check", action="store_true",
                        help="validate a single bench_eco report")
    parser.add_argument("--trend", dest="trend_check", action="store_true",
                        help="gate a fresh report against a committed "
                             "baseline by row identity (relative metrics "
                             "only)")
    parser.add_argument("--tolerance", type=float, default=25.0,
                        help="allowed timing regression in percent (diff mode)")
    parser.add_argument("--ignore-time", action="store_true",
                        help="compare deterministic fields only (diff mode)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="ratio floor for the gated circuit (self mode)")
    parser.add_argument("--circuit", default="mcnc-like",
                        help="circuit whose ratio is gated (self mode)")
    parser.add_argument("--min-tree-speedup", type=float, default=2.0,
                        help="ratio floor for the path-tree row (self mode)")
    parser.add_argument("--min-small-ratio", type=float, default=1.0,
                        help="ratio floor for the example/c17 rows (self)")
    parser.add_argument("--trend-tolerance", type=float, default=15.0,
                        help="allowed relative-metric drop in percent "
                             "(trend mode)")
    parser.add_argument("--trend-min-props", type=int, default=10000,
                        help="propagation floor for a row to be trend-gated")
    parser.add_argument("--min-requests", type=int, default=2000,
                        help="replay size floor (serve mode)")
    parser.add_argument("--min-hit-rate", type=float, default=0.95,
                        help="cache hit rate floor (serve mode)")
    parser.add_argument("--min-eco-speedup", type=float, default=1.0,
                        help="incremental speedup floor (eco mode)")
    args = parser.parse_args(argv)

    if sum((args.self_check, args.serve_check, args.eco_check,
            args.trend_check)) > 1:
        parser.error("--self, --serve, --eco and --trend are mutually "
                     "exclusive")
    if args.trend_check:
        if len(args.files) != 2:
            parser.error("--trend takes a baseline and a fresh report")
        failures = check_trend(load_report(args.files[0]),
                               load_report(args.files[1]),
                               args.trend_tolerance, args.trend_min_props)
    elif args.eco_check:
        if len(args.files) != 1:
            parser.error("--eco takes exactly one report")
        failures = check_eco(load_report(args.files[0]), args.min_eco_speedup)
    elif args.serve_check:
        if len(args.files) != 1:
            parser.error("--serve takes exactly one report")
        failures = check_serve(load_report(args.files[0]), args.min_requests,
                               args.min_hit_rate)
    elif args.self_check:
        if len(args.files) != 1:
            parser.error("--self takes exactly one report")
        failures = check_self(load_report(args.files[0]), args.min_speedup,
                              args.circuit, args.min_tree_speedup,
                              args.min_small_ratio)
    else:
        if len(args.files) != 2:
            parser.error("diff mode takes exactly two reports")
        failures = diff_reports(load_report(args.files[0]),
                                load_report(args.files[1]),
                                args.tolerance, args.ignore_time)

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
