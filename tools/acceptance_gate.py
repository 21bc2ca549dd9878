#!/usr/bin/env python3
"""Run one acceptance gate: a CLI campaign, twice, under RSSD_SMOKE=1.

Usage:
  acceptance_gate.py --workdir DIR [--output=FLAG]... [--expect=RE]...
                     [--forbid=RE]... -- COMMAND [ARG]...

Each run gets its own directory (DIR/run1, DIR/run2). Every --output
FLAG is appended to COMMAND as `FLAG <run dir>/<file>`, with the file
name and shape check that FLAGS assigns to it. The gate passes only if

  - both runs exit 0;
  - every output file is byte-identical between the two runs (the
    determinism contract);
  - each run's stdout matches every --expect regex and no --forbid
    regex;
  - each output file has the shape its flag promises.

DIR/run1 keeps the gate's artifacts (outputs plus stdout.log). The
gates themselves are declared once, as ctest entries labelled
`acceptance`, in examples/CMakeLists.txt.
"""

import argparse
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys


def check_report(doc):
    assert isinstance(doc.get("schema"), int), "no integer schema field"


def check_trace(doc):
    events = doc["traceEvents"]
    assert len(events) > 0, "empty trace"
    phases = {e["ph"] for e in events}
    assert {"X", "i", "M"} <= phases <= {"X", "i", "M", "s", "f"}, phases
    flows_s = sum(1 for e in events if e["ph"] == "s")
    flows_f = sum(1 for e in events if e["ph"] == "f")
    assert flows_s == flows_f > 0, ("flow starts/finishes", flows_s, flows_f)


def check_metrics(doc):
    assert doc["schema"] == 1, doc["schema"]
    assert len(doc["metrics"]) > 0, "no instruments"


def check_time_series(rows):
    assert len(rows) > 0, "no rows"
    last_tick = -1
    for row in rows:
        assert row["schema"] == 1, row["schema"]
        assert row["tick"] > last_tick, ("tick not increasing", row["tick"])
        last_tick = row["tick"]
        assert len(row["metrics"]) > 0, "row without metrics"
        # Rates are derived from counters only, so every rate key is
        # also a metric key.
        assert set(row["rates"]) <= set(row["metrics"]), "rate of a non-metric"


# Output flag -> (file name, loader, shape check).
FLAGS = {
    "--json": ("report.json", json.load, check_report),
    "--trace-out": ("trace.json", json.load, check_trace),
    "--metrics-out": ("metrics.json", json.load, check_metrics),
    "--health-out": ("health.jsonl",
                     lambda f: [json.loads(line) for line in f],
                     check_time_series),
}


def run_once(run_dir, command, outputs):
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    argv = list(command)
    for flag in outputs:
        argv += [flag, os.path.join(run_dir, FLAGS[flag][0])]
    env = dict(os.environ, RSSD_SMOKE="1")
    proc = subprocess.run(argv, cwd=run_dir, env=env,
                          stdout=subprocess.PIPE, text=True)
    with open(os.path.join(run_dir, "stdout.log"), "w") as f:
        f.write(proc.stdout)
    return proc


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--output", action="append", default=[],
                        choices=sorted(FLAGS))
    parser.add_argument("--expect", action="append", default=[])
    parser.add_argument("--forbid", action="append", default=[])
    parser.add_argument("command", nargs="+")
    args = parser.parse_args()

    failures = []
    runs = [os.path.join(args.workdir, name) for name in ("run1", "run2")]
    for run_dir in runs:
        name = os.path.basename(run_dir)
        proc = run_once(run_dir, args.command, args.output)
        if run_dir == runs[0]:
            print(proc.stdout, end="")
        if proc.returncode != 0:
            failures.append(f"{name}: exit {proc.returncode}")
        for pattern in args.expect:
            if not re.search(pattern, proc.stdout):
                failures.append(f"{name}: stdout lacks /{pattern}/")
        for pattern in args.forbid:
            if re.search(pattern, proc.stdout):
                failures.append(f"{name}: stdout has forbidden /{pattern}/")

    for flag in args.output:
        file_name, load, check = FLAGS[flag]
        first, second = (os.path.join(r, file_name) for r in runs)
        if not (os.path.exists(first) and os.path.exists(second)):
            failures.append(f"{flag}: {file_name} not written")
            continue
        if not filecmp.cmp(first, second, shallow=False):
            failures.append(f"{flag}: {file_name} differs between runs")
        try:
            with open(first) as f:
                check(load(f))
        except (AssertionError, KeyError, TypeError, ValueError) as e:
            failures.append(f"{flag}: {file_name} malformed: {e!r}")

    for failure in failures:
        print(f"acceptance FAIL: {failure}")
    if failures:
        return 1
    print(f"acceptance OK: 2 runs, {len(args.output)} output file(s) "
          f"byte-identical, {len(args.expect)} expected and "
          f"{len(args.forbid)} forbidden pattern(s) checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
