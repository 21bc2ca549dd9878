#!/usr/bin/env python3
"""Fixture suite for tools/rssd_lint.py, run as one ctest entry
(ToolsLint.Fixtures).

Strategy: each case builds a sandbox root (a temp dir with the
fixture copied to a path that puts it in the right rule scope, e.g.
src/log/ for the P1 hot-path rule) and runs the real linter binary
against it, asserting on exit code and findings. The D3 cases
sandbox *copies of the real fleet report TU* and mutate them, so the
suite proves the exact acceptance property: deleting a j.key() from
fleet/report.cc without bumping kFleetReportSchema fails the lint.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "rssd_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(*args, root=None):
    cmd = [sys.executable, LINT]
    if root is not None:
        cmd += ["--root", root]
    cmd += list(args)
    return subprocess.run(cmd, capture_output=True, text=True)


def sandbox_with(tmp, mapping):
    """Copy fixture/repo files into tmp at the given relative paths."""
    for src, rel in mapping.items():
        dst = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(src, dst)
    return tmp


def findings_of(proc_json_path):
    with open(proc_json_path) as f:
        return json.load(f)


class LintFixtureTest(unittest.TestCase):

    def lint_json(self, root, *args):
        with tempfile.NamedTemporaryFile(suffix=".json",
                                         delete=False) as tf:
            out = tf.name
        try:
            proc = run_lint("--json", out, "--quiet", *args,
                            root=root)
            report = findings_of(out)
        finally:
            os.unlink(out)
        return proc, report

    def assert_rule_fires(self, report, rule, min_count=1):
        hits = [f for f in report["findings"]
                if f["rule"] == rule and not f["suppressed"]]
        self.assertGreaterEqual(
            len(hits), min_count,
            f"expected >= {min_count} unsuppressed {rule} finding(s), "
            f"got: {report['findings']}")
        return hits

    # -- one sandbox per rule ------------------------------------------

    def test_d1_fires_on_nondeterminism_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, {
                os.path.join(FIXTURES, "bad_d1.cc"):
                    "src/core/bad_d1.cc"})
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 1, proc.stderr)
            hits = self.assert_rule_fires(report, "D1", 5)
            flagged = " ".join(h["message"] for h in hits)
            for src in ("system_clock", "random_device", "getenv",
                        "time", "rand"):
                self.assertIn(f"`{src}`", flagged)

    def test_d1_ignores_tests_area(self):
        # The same file under tests/ is out of D1 scope.
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, {
                os.path.join(FIXTURES, "bad_d1.cc"):
                    "tests/core/bad_d1.cc"})
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_d2_fires_on_unordered_iteration_in_emission_tu(self):
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, {
                os.path.join(FIXTURES, "bad_d2.cc"):
                    "src/fleet/bad_d2.cc"})
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 1)
            hits = self.assert_rule_fires(report, "D2", 2)
            msgs = " ".join(h["message"] for h in hits)
            self.assertIn("counts_", msgs)   # range-for
            self.assertIn("names_", msgs)    # iterator walk

    def test_d2_quiet_without_emitter(self):
        # Identical unordered iteration in a TU that never emits —
        # out of D2 scope.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "src", "core", "counting.cc")
            os.makedirs(os.path.dirname(path))
            with open(os.path.join(FIXTURES, "bad_d2.cc")) as f:
                body = f.read()
            body = body.replace('#include "sim/json.hh"\n', "")
            body = body.replace("sim::JsonWriter j(out);", "")
            with open(path, "w") as f:
                f.write(body)
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 0,
                             report["findings"])

    def test_c1_fires_outside_allowlist(self):
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, {
                os.path.join(FIXTURES, "bad_c1.cc"):
                    "src/detect/bad_c1.cc"})
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 1)
            hits = self.assert_rule_fires(report, "C1", 5)
            msgs = " ".join(h["message"] for h in hits)
            self.assertIn("resumeFrom", msgs)
            self.assertIn("verifyPrune", msgs)
            self.assertIn("openVerified", msgs)
            self.assertIn("injectBitRot", msgs)
            self.assertIn("mutableShardStore", msgs)

    def test_c1_quiet_on_allowlisted_file(self):
        # Each reference is fine from its owning layer: the verifier
        # owns the chain primitives, the fleet's fault actor reaches
        # the store through mutableShardStore and may rot it; no
        # other rule fires on either file.
        fires = {
            "src/log/chain_verify.cc": {
                "injectBitRot", "mutableShardStore"},
            "src/fleet/scheduler.cc": {
                "resumeFrom", "verifyPrune", "openVerified"},
        }
        for rel, symbols in fires.items():
            with tempfile.TemporaryDirectory() as tmp:
                sandbox_with(tmp, {
                    os.path.join(FIXTURES, "bad_c1.cc"): rel})
                proc, report = self.lint_json(tmp)
                self.assertEqual(
                    {f["rule"] for f in report["findings"]}, {"C1"},
                    report["findings"])
                self.assertEqual(
                    {f["message"].split("`")[1]
                     for f in report["findings"]},
                    symbols, (rel, report["findings"]))

    def test_p1_fires_in_hot_path(self):
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, {
                os.path.join(FIXTURES, "bad_p1.cc"):
                    "src/log/bad_p1.cc"})
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 1)
            self.assert_rule_fires(report, "P1", 2)

    def test_p1_quiet_outside_hot_path(self):
        # Cold paths may build rich messages (obs/ does, on purpose).
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, {
                os.path.join(FIXTURES, "bad_p1.cc"):
                    "src/obs/bad_p1.cc"})
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 0,
                             report["findings"])

    # -- suppression ----------------------------------------------------

    def test_allow_annotations_suppress_with_reason(self):
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, {
                os.path.join(FIXTURES, "allowed_ok.cc"):
                    "src/core/allowed_ok.cc"})
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 0, report["findings"])
            self.assertEqual(report["counts"]["suppressed"], 2)
            for f in report["findings"]:
                self.assertTrue(f["suppressed"])
                self.assertTrue(f["reason"])

    def test_allow_without_reason_is_a_finding(self):
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, {
                os.path.join(FIXTURES, "allow_missing_reason.cc"):
                    "src/core/allow_missing_reason.cc"})
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 1)
            self.assert_rule_fires(report, "LINT", 1)

    # -- D3: the schema-manifest contract -------------------------------

    D3_FILES = {
        os.path.join(REPO, "src/fleet/report.cc"):
            "src/fleet/report.cc",
        os.path.join(REPO, "src/fleet/report.hh"):
            "src/fleet/report.hh",
        os.path.join(REPO, "tools/manifests/fleet_report.keys"):
            "tools/manifests/fleet_report.keys",
    }

    def test_d3_clean_on_pinned_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, self.D3_FILES)
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 0, report["findings"])

    def d3_mutate(self, tmp, drop_key=True, bump_schema=False):
        tu = os.path.join(tmp, "src/fleet/report.cc")
        hh = os.path.join(tmp, "src/fleet/report.hh")
        if drop_key:
            with open(tu) as f:
                body = f.read()
            mutated = body.replace(
                '    j.key("makespanNs"); j.u64(makespan);\n', "")
            assert mutated != body, "mutation target vanished"
            with open(tu, "w") as f:
                f.write(mutated)
        if bump_schema:
            with open(hh) as f:
                body = f.read()
            mutated = re.sub(
                r"(kFleetReportSchema = )(\d+)",
                lambda m: m.group(1) + str(int(m.group(2)) + 1),
                body)
            assert mutated != body
            with open(hh, "w") as f:
                f.write(mutated)

    def test_d3_key_removal_without_bump_fails(self):
        # THE acceptance property of this PR.
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, self.D3_FILES)
            self.d3_mutate(tmp, drop_key=True, bump_schema=False)
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 1)
            hits = self.assert_rule_fires(report, "D3", 1)
            self.assertIn("makespanNs", hits[0]["message"])
            self.assertIn("bump", hits[0]["message"])

    def test_d3_fix_manifests_refuses_without_bump(self):
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, self.D3_FILES)
            self.d3_mutate(tmp, drop_key=True, bump_schema=False)
            proc = run_lint("--fix-manifests", root=tmp)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            self.assertIn("REFUSED", proc.stderr)

    def test_d3_bumped_schema_drifts_until_repinned(self):
        with tempfile.TemporaryDirectory() as tmp:
            sandbox_with(tmp, self.D3_FILES)
            self.d3_mutate(tmp, drop_key=True, bump_schema=True)
            # Drift still fails (the manifest is stale) ...
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 1)
            hits = self.assert_rule_fires(report, "D3", 1)
            self.assertIn("--fix-manifests", hits[0]["message"])
            # ... --fix-manifests accepts the deliberate change ...
            proc = run_lint("--fix-manifests", root=tmp)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            # ... and the round-trip is clean and idempotent.
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 0, report["findings"])
            proc = run_lint("--fix-manifests", root=tmp)
            self.assertEqual(proc.returncode, 0)
            self.assertIn("up to date", proc.stdout)

    def test_d3_missing_manifest_is_a_finding(self):
        with tempfile.TemporaryDirectory() as tmp:
            files = dict(self.D3_FILES)
            del files[os.path.join(
                REPO, "tools/manifests/fleet_report.keys")]
            sandbox_with(tmp, files)
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 1)
            hits = self.assert_rule_fires(report, "D3", 1)
            self.assertIn("no manifest", hits[0]["message"])

    def test_d3_uncovered_schema_emitter_is_a_finding(self):
        # A new src TU that emits a "schema" key must be added to the
        # spec list — the spec list cannot silently rot.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "src", "fleet", "newreport.cc")
            os.makedirs(os.path.dirname(path))
            with open(path, "w") as f:
                f.write('#include "sim/json.hh"\n'
                        "void emit(rssd::sim::JsonWriter &j) {\n"
                        '    j.key("schema"); j.u64(1);\n'
                        "}\n")
            proc, report = self.lint_json(tmp)
            self.assertEqual(proc.returncode, 1)
            hits = self.assert_rule_fires(report, "D3", 1)
            self.assertIn("no manifest spec", hits[0]["message"])

    # -- whole-tool properties ------------------------------------------

    def test_list_rules_names_all_five(self):
        proc = run_lint("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for rule in ("D1", "D2", "D3", "C1", "P1"):
            self.assertIn(rule, proc.stdout)

    def test_live_tree_is_clean(self):
        proc, report = self.lint_json(REPO)
        self.assertEqual(
            proc.returncode, 0,
            "live tree has lint findings:\n" + json.dumps(
                [f for f in report["findings"]
                 if not f["suppressed"]], indent=2))
        # Every suppression in the tree carries a reason.
        for f in report["findings"]:
            self.assertTrue(f["suppressed"] and f["reason"], f)

    def test_json_report_shape(self):
        proc, report = self.lint_json(REPO)
        self.assertEqual(report["tool"], "rssd_lint")
        self.assertGreater(report["filesScanned"], 100)
        self.assertEqual(
            {r["id"] for r in report["rules"]},
            {"D1", "D2", "D3", "C1", "P1", "LINT"})


if __name__ == "__main__":
    unittest.main(verbosity=2)
