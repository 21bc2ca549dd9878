#!/usr/bin/env python3
"""Stand-in CLI for the acceptance driver's self-tests.

Behaves like a well-formed gate command (prints --say, writes a
schema-stamped --json report, exits 0) unless a knob breaks exactly
one of the properties tools/acceptance_gate.py checks:
  --exit N      exit with status N;
  --unstable    write the report's own path into it, so the bytes
                differ between the driver's two run directories.
"""

import argparse
import json
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--say", default="stub: OK")
parser.add_argument("--exit", type=int, default=0)
parser.add_argument("--unstable", action="store_true")
parser.add_argument("--json")
args = parser.parse_args()

print(args.say)
if args.json:
    report = {"schema": 1}
    if args.unstable:
        report["path"] = args.json
    with open(args.json, "w") as f:
        json.dump(report, f)
sys.exit(args.exit)
