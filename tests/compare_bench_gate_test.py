#!/usr/bin/env python3
"""The exact Table II gate must bite: compare_bench.py diff mode on the
committed BENCH_table2.json against mutated copies of it.

    tests/compare_bench_gate_test.py scripts/compare_bench.py BENCH_table2.json

Run-to-run noise (timing fields, the ``workers`` and ``memo`` blocks)
must pass; a changed implication counter, a changed sort digest or a
dropped row must fail, naming what changed.  Exits 0 when every case
behaves, 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def run_gate(script, golden_path, fresh, workdir):
    fresh_path = os.path.join(workdir, "fresh.json")
    with open(fresh_path, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle)
    result = subprocess.run(
        [sys.executable, script, golden_path, fresh_path],
        capture_output=True, text=True, check=False)
    return result.returncode, result.stdout + result.stderr


def classified_rows(report):
    return [row for row in report["rows"] if "heu2" in row]


def perturb_workers(report):
    for row in classified_rows(report):
        for worker in row["heu2_parallel"]["workers"]:
            worker["seeds"] += 1
            worker["steals"] += 3
            worker["work"] += 7


def perturb_memo(report):
    touched = 0
    for row in classified_rows(report):
        for run in ("heu1", "heu2", "heu2_parallel"):
            if "memo" in row[run]:
                row[run]["memo"]["hits"] += 1
                touched += 1
    assert touched, "golden file carries no memo block to perturb"


def perturb_seconds(report):
    for row in classified_rows(report):
        row["heu1_seconds"] *= 3
        row["heu2_parallel"]["wall_seconds"] += 1.0


def bump_conflicts(report):
    classified_rows(report)[-1]["heu2"]["implication"]["conflicts"] += 1


def change_digest(report):
    row = classified_rows(report)[0]
    digest = row["heu2"]["sort_digest"]
    row["heu2"]["sort_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]


def drop_row(report):
    del report["rows"][1]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    script, golden_path = argv
    with open(golden_path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    last = classified_rows(golden)[-1]["circuit"]

    # (name, mutation, expected exit code, text the output must contain)
    cases = [
        ("unchanged", None, 0, "compare_bench: OK"),
        ("workers perturbed", perturb_workers, 0, "compare_bench: OK"),
        ("memo perturbed", perturb_memo, 0, "compare_bench: OK"),
        ("seconds perturbed", perturb_seconds, 0, "compare_bench: OK"),
        ("conflicts + 1", bump_conflicts, 1,
         f"({last}): heu2.implication.conflicts differs"),
        ("sort_digest changed", change_digest, 1, "heu2.sort_digest differs"),
        ("row dropped", drop_row, 1, "row count differs"),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, mutate, want_code, want_text in cases:
            fresh = copy.deepcopy(golden)
            if mutate is not None:
                mutate(fresh)
            code, output = run_gate(script, golden_path, fresh, workdir)
            if code != want_code or want_text not in output:
                failed += 1
                print(f"FAIL {name}: exit {code} (want {want_code}), output "
                      f"lacks {want_text!r}:\n{output}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
