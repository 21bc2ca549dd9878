#!/usr/bin/env python3
"""Compare two RSSD_BENCH_JSON result files (JSON-Lines).

Each line is one bench record:

    {"bench":"offload_path",
     "meta":{"build":"Release","sha256":"sha-ni","chacha20":"avx2",
             "crc32c":"sse4.2","smoke":1},
     "config":{"link_gbps":"25","content":"typical"},
     "metrics":{"offload_MiBps":812.4,"wire_MiBps":433.1}}

Records are keyed by (bench, config); metrics are compared pairwise
between the baseline and the candidate file. The direction of
"better" is inferred from the metric name: time-like metrics
(`*_ns`, `*_us`, `*_ms`, `*_s`, `*time*`, `*latency*`) regress when
they grow, everything else (throughputs, rates, counts of useful
work) regresses when it shrinks.

Exit codes:
    0  no regression beyond --fail (or --warn-only)
    1  at least one metric regressed by more than --fail
    2  input malformed / nothing to compare

CI runs this warn-only against bench/baseline.jsonl — the numbers in
that file come from one developer machine and a shared runner is
noisy, so the comparison annotates the log rather than gating the
merge. Use --fail locally when you want a hard gate (e.g. before and
after a perf patch on the same quiet machine).

Usage:
    tools/bench_compare.py baseline.jsonl candidate.jsonl
        [--warn 0.10] [--fail 0.25] [--warn-only]
"""

import argparse
import json
import sys

TIME_LIKE = ("_ns", "_us", "_ms", "_s")


def lower_is_better(metric):
    name = metric.lower()
    if "time" in name or "latency" in name:
        return True
    return any(name.endswith(suffix) for suffix in TIME_LIKE)


def load(path):
    """-> {(bench, frozen config): {metric: value}}, meta of last row."""
    records = {}
    meta = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as e:
                    print(f"{path}:{lineno}: bad JSON: {e}",
                          file=sys.stderr)
                    sys.exit(2)
                key = (row.get("bench", "?"),
                       tuple(sorted(row.get("config", {}).items())))
                # Last write wins: a re-run bench supersedes itself.
                records[key] = {
                    k: v for k, v in row.get("metrics", {}).items()
                    if isinstance(v, (int, float))
                }
                meta = row.get("meta", {})
    except OSError as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return records, meta


def describe(key):
    bench, config = key
    if not config:
        return bench
    return bench + "[" + ",".join(f"{k}={v}" for k, v in config) + "]"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--warn", type=float, default=0.10,
                    help="relative regression to warn at "
                         "(default 0.10 = 10%%)")
    ap.add_argument("--fail", type=float, default=0.25,
                    help="relative regression to fail at "
                         "(default 0.25 = 25%%)")
    ap.add_argument("--warn-only", action="store_true",
                    help="always exit 0 (CI annotation mode)")
    args = ap.parse_args()

    base, base_meta = load(args.baseline)
    cand, cand_meta = load(args.candidate)
    if not base or not cand:
        print("nothing to compare (empty input)", file=sys.stderr)
        sys.exit(2)
    if base_meta != cand_meta:
        print(f"note: meta differs (baseline {base_meta}, "
              f"candidate {cand_meta}) — absolute numbers are not "
              f"comparable across build types/machines")

    warns = fails = improved = compared = 0
    for key in sorted(base):
        if key not in cand:
            print(f"MISSING  {describe(key)}: not in candidate")
            continue
        for metric, old in sorted(base[key].items()):
            new = cand[key].get(metric)
            if new is None:
                print(f"MISSING  {describe(key)}.{metric}")
                continue
            compared += 1
            if old == 0:
                continue  # no meaningful relative delta
            delta = (new - old) / abs(old)
            regression = delta if lower_is_better(metric) else -delta
            tag = "ok"
            if regression >= args.fail:
                tag, fails = "FAIL", fails + 1
            elif regression >= args.warn:
                tag, warns = "WARN", warns + 1
            elif regression <= -args.warn:
                tag, improved = "better", improved + 1
            if tag != "ok":
                print(f"{tag:7s}  {describe(key)}.{metric}: "
                      f"{old:g} -> {new:g} ({delta:+.1%})")

    new_keys = sorted(set(cand) - set(base))
    for key in new_keys:
        print(f"NEW      {describe(key)}: no baseline")

    print(f"compared {compared} metrics: {fails} fail, {warns} warn, "
          f"{improved} improved "
          f"(thresholds: warn {args.warn:.0%}, fail {args.fail:.0%})")
    if fails and not args.warn_only:
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
