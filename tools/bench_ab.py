#!/usr/bin/env python3
"""A/B-compare two revisions on one fleetbench workload.

Usage:
  tools/bench_ab.py BASE HEAD --workload W [--seed 7]

Checks BASE and HEAD out into detached git worktrees under
.bench_build/ab/ (removed again on exit), builds fleetbench in each
with one short warm-up run, then makes ten pairs of
`python3 fleetbench/run.py --workload W --seed S --seconds T` runs,
T being BENCHMARK.json's run_seconds, one in each worktree,
alternating which side goes first so slow drift of the host hits both
sides alike. The workloads are BENCHMARK.json's, and the quartiles
are fleetbench/run.py's own function.

For every end-to-end metric in BENCHMARK.json it prints each side's
median [q1, q3] over the pairs, HEAD's change in percent, and how many
pairs HEAD won in the metric's better direction (a tie counts for
neither side). A gain is clear when HEAD wins at least nine pairs in
ten and the gap between the medians exceeds BASE's interquartile
range. It ends with both sides' attempted and failed operation
counts.

BASE and HEAD are any revisions git can resolve. To measure
uncommitted work, pass the commit `git stash create` prints (stage
new files first).
"""

import argparse
import importlib.util
import json
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".bench_build" / "ab"
# The fewest pairs a claimed gain is judged on.
PAIRS = 10


def load_run_py():
    """fleetbench/run.py as a module, leaving no cache file beside it."""
    spec = importlib.util.spec_from_file_location(
        "fleetbench_run", ROOT / "fleetbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True
    spec.loader.exec_module(module)
    return module


quartiles = load_run_py().quartiles


def parse_result(stdout):
    """The result object run.py prints as its last JSON line."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise ValueError("no result line in run.py output")
    doc = json.loads(lines[-1])
    return {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {name: m["value"] for name, m in doc["metrics"].items()},
    }


def head_wins(base, head, better):
    """Pairs in which HEAD's value is strictly better than BASE's."""
    if better == "lower":
        return sum(h < b for b, h in zip(base, head))
    return sum(h > b for b, h in zip(base, head))


def summarize(metric_specs, pairs):
    """One row per end-to-end metric over [(base, head)] results."""
    rows = []
    for spec in metric_specs:
        name = spec["name"]
        base = [b["metrics"][name] for b, _ in pairs
                if name in b["metrics"]]
        head = [h["metrics"][name] for _, h in pairs
                if name in h["metrics"]]
        if len(base) != len(pairs) or len(head) != len(pairs):
            rows.append({"name": name, "missing": True})
            continue
        base_med, head_med = statistics.median(base), statistics.median(head)
        base_q1, base_q3 = quartiles(base)
        change = (head_med / base_med - 1) * 100 if base_med else 0.0
        rows.append({
            "name": name,
            "missing": False,
            "base": (base_med, base_q1, base_q3),
            "head": (head_med,) + quartiles(head),
            "change_pct": change,
            "wins": head_wins(base, head, spec["better"]),
            "pairs": len(pairs),
            "gap_exceeds_base_iqr":
                abs(head_med - base_med) > base_q3 - base_q1,
        })
    return rows


def format_report(rows, pairs):
    def spread(stats):
        med, q1, q3 = stats
        return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"

    out = [f"{'metric':<26}{'BASE median [q1, q3]':<40}"
           f"{'HEAD median [q1, q3]':<40}{'change':>9}  HEAD wins"]
    for row in rows:
        if row["missing"]:
            out.append(f"{row['name']:<26}missing from some runs")
            continue
        mark = "  gap > BASE IQR" if row["gap_exceeds_base_iqr"] else ""
        out.append(f"{row['name']:<26}{spread(row['base']):<40}"
                   f"{spread(row['head']):<40}"
                   f"{row['change_pct']:>+8.1f}%  "
                   f"{row['wins']}/{row['pairs']}{mark}")
    for side, index in (("BASE", 0), ("HEAD", 1)):
        runs = [p[index] for p in pairs]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        incorrect = sum(not r["correct"] for r in runs)
        out.append(f"{side}: {failed} of {attempted} operations failed, "
                   f"{incorrect} of {len(pairs)} runs failed their checks")
    return "\n".join(out)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args),
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def remove_worktree(path):
    """Remove path, whether a registered worktree or a leftover."""
    subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                    str(path)], capture_output=True)
    shutil.rmtree(path, ignore_errors=True)


def run_bench(worktree, workload, seed, seconds):
    """One run.py run in worktree; returns its parsed result."""
    proc = subprocess.run(
        [sys.executable, "fleetbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=worktree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {worktree} "
                           f"(exit {proc.returncode})")
    return parse_result(proc.stdout)


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    seconds = benchmark["run_seconds"]
    sides = {}
    for side, rev in (("base", args.base), ("head", args.head)):
        sides[side] = (rev, git("rev-parse", "--verify", rev + "^{commit}"))

    # A terminated run still removes its worktrees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    worktrees = {side: AB_DIR / side for side in sides}
    try:
        for side, path in worktrees.items():
            remove_worktree(path)
            git("worktree", "prune")
            git("worktree", "add", "--detach", str(path), sides[side][1])
            print(f"{side.upper()} {sides[side][0]} = {sides[side][1][:12]}: "
                  "building and warming up", flush=True)
            run_bench(path, args.workload, args.seed, 1)

        pairs = []
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            result = {}
            for side in order:
                result[side] = run_bench(worktrees[side], args.workload,
                                         args.seed, seconds)
            pairs.append((result["base"], result["head"]))
            print(f"pair {i + 1}/{PAIRS} done ({order[0].upper()} "
                  "first)", flush=True)

        print(f"\n{args.workload}, seed {args.seed}, {PAIRS} pairs of "
              f"{seconds:g} s runs: BASE {sides['base'][0]}, "
              f"HEAD {sides['head'][0]}")
        print(format_report(summarize(benchmark["end_to_end"], pairs),
                            pairs))
    finally:
        for path in worktrees.values():
            remove_worktree(path)
        git("worktree", "prune")
    return 0


if __name__ == "__main__":
    sys.exit(main())
