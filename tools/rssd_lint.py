#!/usr/bin/env python3
"""rssd_lint — RSSD's project-specific determinism linter.

Every load-bearing guarantee in this repo (byte-identical reports
under golden digests, chain custody confined to one re-anchoring
primitive, schema constants bumped in lockstep with report layout)
is a *static* property of the source: you can see the violation in
the diff long before a runtime test catches it. This tool encodes
those invariants as named, suppressible rules:

  D1  no nondeterminism sources in product code (wall clocks,
      rand(), random_device, getenv) outside annotated exceptions
  D2  no iteration over std::unordered_{map,set} in a translation
      unit that emits via sim::JsonWriter, obs::TraceSink, or the
      bench JSON-Lines writer (unordered iteration order is the
      classic way to break a golden digest)
  D3  schema manifests: the set of literal j.key("...") strings per
      report TU is pinned in tools/manifests/*.keys together with
      the TU's k*Schema constant; changing the key set without
      bumping the constant fails, and any drift fails until
      --fix-manifests re-pins it
  C1  chain-custody locality: resumeFrom / sealPrune / verifyPrune /
      adoptPruneRecord (the "ONE re-anchoring primitive" rule), the
      MAC-skipping openVerified (only the codec, the verifier and
      the BackupStore reader that consults its verified-prefix
      record) and the fault-injection mutators injectBitRot /
      mutableShardStore are referenced only from allowlisted files
  P1  panicIf(cond, <string-building expression>) in hot-path files:
      the message argument is evaluated unconditionally, so a
      concatenation or std::to_string heap-allocates on every call

Suppression: append `// rssd-lint: allow(RULE) <reason>` to the
offending line, or put `// rssd-lint: allow-next-line(RULE) <reason>`
on the line above.  A reason is mandatory; an annotation without one
is itself a finding (rule LINT).

Engine: a built-in C++ tokenizer (comments, literals, identifiers,
punctuation) with no dependency beyond the Python standard library,
so every run applies the same rules.

Exit codes: 0 clean, 1 findings (or manifest drift), 2 usage/internal
error.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Configuration: the invariant catalog.
# --------------------------------------------------------------------------

# Directories scanned relative to the repo root, and the "area" label
# each file gets (rules scope themselves by area).
SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")

# Deliberately-bad linter inputs live here; never scan them as part
# of the tree (the fixture suite runs them through --root sandboxes).
EXCLUDE_PREFIXES = ("tests/tools/fixtures",)

# D1: identifiers that read ambient nondeterminism. "call-only" names
# are flagged only when used as a function call (`time(...)`) to keep
# common member/variable names quiet.
D1_BANNED_IDENTS = {
    "system_clock", "high_resolution_clock", "steady_clock",
    "random_device", "gettimeofday", "clock_gettime", "localtime",
    "gmtime", "getenv", "srand", "rand_r", "drand48",
}
D1_CALL_ONLY_IDENTS = {"time", "rand"}
# Only flagged when spelled std::clock — the sim's own clock()
# accessors (VirtualClock &clock()) are everywhere and sound.
D1_STD_QUALIFIED_ONLY = {"clock"}
# Product code plus the deterministic sim drivers; benches may keep
# wall clocks for measurement but must annotate them so every
# nondeterminism source in the tree carries a stated reason.
D1_AREAS = {"src", "examples", "bench"}

# D2: a file is an emission TU if it mentions any of these emitters.
D2_EMITTER_IDENTS = {"JsonWriter", "TraceSink", "JsonReport"}
D2_UNORDERED_TYPES = {"unordered_map", "unordered_set"}

# D3: report translation units whose literal key set + schema
# constant are pinned by a committed manifest.
D3_SPECS = (
    {
        "name": "fleet_report",
        "tu": "src/fleet/report.cc",
        "header": "src/fleet/report.hh",
        "constant": "kFleetReportSchema",
    },
    {
        "name": "forensics_report",
        "tu": "src/forensics/report.cc",
        "header": "src/forensics/report.hh",
        "constant": "kForensicsReportSchema",
    },
    {
        "name": "obs_timeseries",
        "tu": "src/obs/timeseries.cc",
        "header": "src/obs/timeseries.hh",
        "constant": "kTimeSeriesSchema",
    },
    {
        "name": "obs_metrics",
        "tu": "src/obs/metrics.cc",
        "header": "src/obs/metrics.hh",
        "constant": "kMetricsSnapshotSchema",
    },
)
MANIFEST_DIR = "tools/manifests"

# C1: custody symbols and the only files allowed to reference them.
# Scope: src/ — tests exercise the primitives directly by design.
# Skipping the MAC is legal only in the codec, the verifier right
# after its own MAC, and BackupStore, whose readStream() is the one
# reader of stored evidence and consults the verified-prefix record.
C1_CUSTODY = {
    "resumeFrom": {
        "src/log/chain_verify.hh", "src/log/chain_verify.cc",
        "src/remote/backup_store.cc",
    },
    "sealPrune": {
        "src/log/segment.hh", "src/log/segment.cc",
        "src/remote/backup_store.cc",
    },
    "verifyPrune": {
        "src/log/segment.hh", "src/log/segment.cc",
        "src/log/chain_verify.cc", "src/remote/backup_store.cc",
    },
    "adoptPruneRecord": {
        "src/remote/backup_store.hh", "src/remote/backup_store.cc",
        "src/remote/backup_cluster.cc",
    },
    "adoptPruneRecordOn": {
        "src/remote/backup_cluster.hh", "src/remote/backup_cluster.cc",
        "src/remote/repair_engine.cc",
    },
    "openVerified": {
        "src/log/segment.hh", "src/log/segment.cc",
        "src/log/chain_verify.cc", "src/remote/backup_store.cc",
    },
    # Fault injection that corrupts stored evidence: the store's own
    # mutators, reached in product code only by the fleet's
    # scripted-fault actor.
    "injectBitRot": {
        "src/remote/backup_store.hh", "src/remote/backup_store.cc",
        "src/fleet/scheduler.cc",
    },
    "mutableShardStore": {
        "src/remote/backup_cluster.hh", "src/remote/backup_cluster.cc",
        "src/fleet/scheduler.cc",
    },
}

# P1: hot-path prefixes where a panicIf message must not allocate.
P1_HOT_PREFIXES = (
    "src/compress/", "src/crypto/", "src/flash/", "src/ftl/",
    "src/log/",
)

RULES = {
    "D1": "nondeterminism source (wall clock / rand / getenv) in "
          "product code",
    "D2": "iteration over std::unordered_{map,set} in a JSON/trace "
          "emission TU",
    "D3": "report key set changed without a schema-constant bump "
          "(manifest drift)",
    "C1": "chain-custody primitive referenced outside its allowlist",
    "P1": "panicIf message builds a std::string temporary in a hot "
          "path",
    "LINT": "malformed rssd-lint annotation (unknown rule or missing "
            "reason)",
}

# --------------------------------------------------------------------------
# Tokenization. The tokenizer understands comments, string /
# char / raw-string literals, identifiers, numbers, and single-char
# punctuation — exactly enough for the rules above.
# --------------------------------------------------------------------------

ANNOT_RE = re.compile(
    r"rssd-lint:\s*allow(?P<next>-next-line)?\s*"
    r"\(\s*(?P<rules>[A-Za-z0-9_,\s]*)\)\s*(?P<reason>.*)")

IDENT_START = set("abcdefghijklmnopqrstuvwxyz"
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | set("0123456789")


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # 'ident' | 'string' | 'char' | 'num' | 'punct'
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}"


class Annotation:
    __slots__ = ("line", "rules", "reason", "raw_line")

    def __init__(self, line, rules, reason, raw_line):
        self.line = line        # line the annotation applies to
        self.rules = rules      # set of rule ids (may be empty = bad)
        self.reason = reason
        self.raw_line = raw_line  # line the comment sits on


def tokenize(text):
    """Tokenize C++ source; returns (tokens, annotations)."""
    tokens = []
    annots = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r\f\v":
            i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            comment = text[i:j]
            m = ANNOT_RE.search(comment)
            if m:
                rules = {r.strip() for r in m.group("rules").split(",")
                         if r.strip()}
                target = line + 1 if m.group("next") else line
                annots.append(Annotation(target, rules,
                                         m.group("reason").strip(), line))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                j = n
            else:
                j += 2
            line += text.count("\n", i, j)
            i = j
        elif c == "R" and text[i:i + 2] == 'R"':
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j < 0 else j + len(close)
                tokens.append(Token("string", text[i:j], line))
                line += text.count("\n", i, j)
                i = j
            else:
                tokens.append(Token("ident", _ident_at(text, i), line))
                i += len(tokens[-1].text)
        elif c == '"' or c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == c or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            kind = "string" if c == '"' else "char"
            tokens.append(Token(kind, text[i:j], line))
            i = j
        elif c in IDENT_START:
            ident = _ident_at(text, i)
            tokens.append(Token("ident", ident, line))
            i += len(ident)
        elif c.isdigit():
            j = i
            while j < n and (text[j] in IDENT_CONT or text[j] == "."
                             or (text[j] in "+-"
                                 and text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
        else:
            tokens.append(Token("punct", c, line))
            i += 1
    return tokens, annots


def _ident_at(text, i):
    j = i
    while j < len(text) and text[j] in IDENT_CONT:
        j += 1
    return text[i:j]


# --------------------------------------------------------------------------
# Findings and suppression.
# --------------------------------------------------------------------------

class Finding:
    __slots__ = ("rule", "file", "line", "message", "suppressed",
                 "reason")

    def __init__(self, rule, file, line, message):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message
        self.suppressed = False
        self.reason = None

    def as_dict(self):
        d = {"rule": self.rule, "file": self.file, "line": self.line,
             "message": self.message, "suppressed": self.suppressed}
        if self.reason:
            d["reason"] = self.reason
        return d


class FileContext:
    def __init__(self, root, relpath):
        self.relpath = relpath
        self.area = relpath.split("/", 1)[0]
        with open(os.path.join(root, relpath), "r",
                  encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.tokens, self.annotations = tokenize(self.text)
        self.allow = {}  # line -> {rule: reason}
        for a in self.annotations:
            for r in a.rules:
                self.allow.setdefault(a.line, {})[r] = a.reason


def check_annotations(ctx):
    """Rule LINT: every annotation must name known rules and carry a
    reason. Fires on the comment's own line and cannot be
    suppressed."""
    out = []
    for a in ctx.annotations:
        unknown = sorted(r for r in a.rules if r not in RULES)
        if not a.rules:
            out.append(Finding("LINT", ctx.relpath, a.raw_line,
                               "annotation names no rule"))
        if unknown:
            out.append(Finding("LINT", ctx.relpath, a.raw_line,
                               "annotation names unknown rule(s): "
                               + ", ".join(unknown)))
        if not a.reason:
            out.append(Finding("LINT", ctx.relpath, a.raw_line,
                               "annotation is missing a reason — say "
                               "why the exception is sound"))
    return out


# --------------------------------------------------------------------------
# Rule D1 — nondeterminism sources.
# --------------------------------------------------------------------------

def check_d1(ctx):
    if ctx.area not in D1_AREAS:
        return []
    out = []
    toks = ctx.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        name = t.text
        flagged = False
        if name in D1_BANNED_IDENTS:
            flagged = True
        elif name in D1_STD_QUALIFIED_ONLY:
            if i >= 3 and toks[i - 1].text == ":" \
                    and toks[i - 2].text == ":" \
                    and toks[i - 3].text == "std":
                flagged = True
        elif name in D1_CALL_ONLY_IDENTS:
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            prv = toks[i - 1] if i > 0 else None
            is_call = nxt is not None and nxt.kind == "punct" \
                and nxt.text == "("
            member = prv is not None and prv.kind == "punct" \
                and prv.text in {".", ">"}  # ".time(" / "->time("
            if is_call and not member:
                # `std::time(` is banned; `foo::time(` (a project
                # type's member) is not.
                qualifier = None
                if i >= 3 and toks[i - 1].text == ":" \
                        and toks[i - 2].text == ":":
                    qualifier = toks[i - 3].text
                if qualifier is None or qualifier == "std":
                    flagged = True
        if flagged:
            out.append(Finding(
                "D1", ctx.relpath, t.line,
                f"nondeterminism source `{name}` — sim time comes "
                "from sim::Clock, randomness from sim::Rng, config "
                "from flags; if this use is sound, annotate it"))
    return out


# --------------------------------------------------------------------------
# Rule D2 — unordered iteration in emission TUs.
# --------------------------------------------------------------------------

def _unordered_decl_names(toks):
    """Names of variables/members declared with an unordered type."""
    names = set()
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "ident" and t.text in D2_UNORDERED_TYPES:
            j = i + 1
            if j < len(toks) and toks[j].kind == "punct" \
                    and toks[j].text == "<":
                depth = 0
                while j < len(toks):
                    if toks[j].kind == "punct":
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                j += 1
                                break
                    j += 1
            if j < len(toks) and toks[j].kind == "ident":
                names.add(toks[j].text)
        i += 1
    return names


def check_d2(ctx):
    toks = ctx.tokens
    idents = {t.text for t in toks if t.kind == "ident"}
    if not (idents & D2_EMITTER_IDENTS):
        return []
    unordered = _unordered_decl_names(toks)
    if not unordered:
        return []
    out = []
    n = len(toks)
    for i, t in enumerate(toks):
        # Range-for over an unordered name:
        #   for ( <decl> : <expr-with-unordered-name> )
        if t.kind == "ident" and t.text == "for" and i + 1 < n \
                and toks[i + 1].text == "(":
            depth, j, colon = 0, i + 1, None
            while j < n:
                tj = toks[j]
                if tj.kind == "punct":
                    if tj.text == "(":
                        depth += 1
                    elif tj.text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif tj.text == ":" and depth == 1 and colon is None:
                        prev_colon = toks[j - 1].text == ":"
                        next_colon = j + 1 < n and toks[j + 1].text == ":"
                        if not prev_colon and not next_colon:
                            colon = j
                j += 1
            if colon is not None:
                ranged = {tk.text for tk in toks[colon + 1:j]
                          if tk.kind == "ident"}
                hit = sorted(ranged & unordered)
                if hit:
                    out.append(Finding(
                        "D2", ctx.relpath, t.line,
                        f"range-for over unordered container "
                        f"`{hit[0]}` in an emission TU — iteration "
                        "order is unspecified and will break golden "
                        "digests; copy into a sorted container first"))
        # Explicit iterator walks: name.begin() / name.cbegin()
        if t.kind == "ident" and t.text in unordered and i + 2 < n \
                and toks[i + 1].kind == "punct" \
                and toks[i + 1].text == "." \
                and toks[i + 2].kind == "ident" \
                and toks[i + 2].text in {"begin", "cbegin"}:
            out.append(Finding(
                "D2", ctx.relpath, t.line,
                f"iterator walk over unordered container `{t.text}` "
                "in an emission TU — iteration order is unspecified"))
    return out


# --------------------------------------------------------------------------
# Rule D3 — schema manifests.
# --------------------------------------------------------------------------

def _extract_keys(toks):
    """Literal arguments of j.key("...") calls, plus a count of
    dynamic (non-literal) key() call sites."""
    keys, dynamic = set(), 0
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind == "ident" and t.text == "key" and i >= 1 \
                and toks[i - 1].kind == "punct" \
                and toks[i - 1].text == "." \
                and i + 1 < n and toks[i + 1].text == "(":
            if i + 2 < n and toks[i + 2].kind == "string":
                keys.add(_string_value(toks[i + 2].text))
            else:
                dynamic += 1
    return keys, dynamic


def _string_value(lit):
    body = lit
    if body.startswith('"'):
        body = body[1:]
    if body.endswith('"'):
        body = body[:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _extract_constant(root, header, name):
    path = os.path.join(root, header)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    m = re.search(re.escape(name) + r"\s*=\s*(\d+)", text)
    return int(m.group(1)) if m else None


def _manifest_path(root, spec):
    return os.path.join(root, MANIFEST_DIR, spec["name"] + ".keys")


def _read_manifest(path):
    if not os.path.exists(path):
        return None
    schema, keys, dynamic = None, set(), 0
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kind, _, rest = line.partition(" ")
            if kind == "schema":
                schema = int(rest)
            elif kind == "key":
                keys.add(rest)
            elif kind == "dynamic":
                dynamic = int(rest)
    return {"schema": schema, "keys": keys, "dynamic": dynamic}


def _write_manifest(path, spec, schema, keys, dynamic):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# rssd_lint schema manifest — regenerate with\n")
        f.write("#   python3 tools/rssd_lint.py --fix-manifests\n")
        f.write(f"# source: {spec['tu']}\n")
        f.write(f"# constant: {spec['constant']} "
                f"({spec['header']})\n")
        f.write(f"schema {schema}\n")
        if dynamic:
            f.write(f"dynamic {dynamic}\n")
        for k in sorted(keys):
            f.write(f"key {k}\n")


def _d3_current(root, spec):
    tu_path = os.path.join(root, spec["tu"])
    if not os.path.exists(tu_path):
        return None
    with open(tu_path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    toks, _ = tokenize(text)
    keys, dynamic = _extract_keys(toks)
    schema = _extract_constant(root, spec["header"], spec["constant"])
    return {"schema": schema, "keys": keys, "dynamic": dynamic}


def check_d3(root):
    out = []
    spec_tus = {s["tu"] for s in D3_SPECS}
    for spec in D3_SPECS:
        cur = _d3_current(root, spec)
        if cur is None:
            continue  # TU absent under this root (fixture sandbox)
        mpath = _manifest_path(root, spec)
        man = _read_manifest(mpath)
        rel = os.path.relpath(mpath, root)
        if cur["schema"] is None:
            out.append(Finding(
                "D3", spec["header"], 1,
                f"schema constant {spec['constant']} not found — the "
                "report layout must be pinned by a named constant"))
            continue
        if man is None:
            out.append(Finding(
                "D3", spec["tu"], 1,
                f"no manifest at {rel} — run --fix-manifests and "
                "commit it"))
            continue
        keys_changed = cur["keys"] != man["keys"] \
            or cur["dynamic"] != man["dynamic"]
        schema_changed = cur["schema"] != man["schema"]
        if keys_changed and not schema_changed:
            added = sorted(cur["keys"] - man["keys"])
            removed = sorted(man["keys"] - cur["keys"])
            detail = []
            if added:
                detail.append("added " + ", ".join(added))
            if removed:
                detail.append("removed " + ", ".join(removed))
            if cur["dynamic"] != man["dynamic"]:
                detail.append(
                    f"dynamic key sites {man['dynamic']} -> "
                    f"{cur['dynamic']}")
            out.append(Finding(
                "D3", spec["tu"], 1,
                f"report key set changed ({'; '.join(detail)}) but "
                f"{spec['constant']} is still {cur['schema']} — bump "
                "the schema constant, then run --fix-manifests"))
        elif schema_changed:
            out.append(Finding(
                "D3", spec["tu"], 1,
                f"{spec['constant']} is {cur['schema']} but the "
                f"manifest pins {man['schema']} — run --fix-manifests "
                "to re-pin the layout"))
    # Keep the spec list honest: any src TU that emits a "schema" key
    # must be covered by a manifest spec.
    for relpath in iter_tree(root):
        if not relpath.startswith("src/") or relpath in spec_tus:
            continue
        with open(os.path.join(root, relpath), "r",
                  encoding="utf-8", errors="replace") as f:
            text = f.read()
        if '"schema"' not in text:
            continue
        toks, _ = tokenize(text)
        keys, _dyn = _extract_keys(toks)
        if "schema" in keys:
            out.append(Finding(
                "D3", relpath, 1,
                "TU emits a \"schema\" key but has no manifest spec — "
                "add it to D3_SPECS in tools/rssd_lint.py"))
    return out


def fix_manifests(root):
    """Regenerate manifests. Refuses to paper over a key-set change
    that is not accompanied by a schema bump."""
    wrote, errors = [], []
    for spec in D3_SPECS:
        cur = _d3_current(root, spec)
        if cur is None:
            continue
        if cur["schema"] is None:
            errors.append(f"{spec['tu']}: schema constant "
                          f"{spec['constant']} not found")
            continue
        mpath = _manifest_path(root, spec)
        man = _read_manifest(mpath)
        if man is not None:
            keys_changed = cur["keys"] != man["keys"] \
                or cur["dynamic"] != man["dynamic"]
            if keys_changed and cur["schema"] == man["schema"]:
                errors.append(
                    f"{spec['tu']}: key set changed but "
                    f"{spec['constant']} is still {cur['schema']} — "
                    "bump the constant first; --fix-manifests will "
                    "not hide a layout change")
                continue
            if not keys_changed and cur["schema"] == man["schema"]:
                continue  # up to date
        _write_manifest(mpath, spec, cur["schema"], cur["keys"],
                        cur["dynamic"])
        wrote.append(os.path.relpath(mpath, root))
    return wrote, errors


# --------------------------------------------------------------------------
# Rule C1 — chain-custody locality.
# --------------------------------------------------------------------------

def check_c1(ctx):
    if ctx.area != "src":
        return []
    out = []
    for t in ctx.tokens:
        if t.kind != "ident":
            continue
        allowed = C1_CUSTODY.get(t.text)
        if allowed is not None and ctx.relpath not in allowed:
            out.append(Finding(
                "C1", ctx.relpath, t.line,
                f"chain-custody primitive `{t.text}` referenced "
                "outside its allowlist — re-anchoring and MAC "
                "skipping live in ONE place; route through the owning "
                "layer or extend the allowlist in tools/rssd_lint.py "
                "with review"))
    return out


# --------------------------------------------------------------------------
# Rule P1 — allocating panicIf messages on hot paths.
# --------------------------------------------------------------------------

def check_p1(ctx):
    if not any(ctx.relpath.startswith(p) for p in P1_HOT_PREFIXES):
        return []
    toks = ctx.tokens
    out = []
    n = len(toks)
    for i, t in enumerate(toks):
        if not (t.kind == "ident" and t.text == "panicIf"
                and i + 1 < n and toks[i + 1].text == "("):
            continue
        # Split top-level arguments.
        depth, j = 0, i + 1
        args, cur = [], []
        while j < n:
            tj = toks[j]
            if tj.kind == "punct":
                if tj.text in "([{":
                    depth += 1
                    if depth == 1:
                        j += 1
                        continue
                elif tj.text in ")]}":
                    depth -= 1
                    if depth == 0:
                        args.append(cur)
                        break
                elif tj.text == "," and depth == 1:
                    args.append(cur)
                    cur = []
                    j += 1
                    continue
            cur.append(tj)
            j += 1
        if len(args) < 2:
            continue
        msg = args[1]
        builds = None
        for k, mt in enumerate(msg):
            if mt.kind == "punct" and mt.text == "+":
                prev = msg[k - 1] if k > 0 else None
                # unary plus / increment never appear in messages;
                # any '+' between tokens here is concatenation.
                if prev is not None and prev.kind in {"ident",
                                                      "string",
                                                      "num"}:
                    builds = "string concatenation"
                    break
            if mt.kind == "ident" and mt.text == "to_string":
                builds = "std::to_string"
                break
            if mt.kind == "ident" and mt.text == "string" \
                    and k + 1 < len(msg) \
                    and msg[k + 1].text in {"(", "{"}:
                builds = "std::string construction"
                break
        if builds:
            out.append(Finding(
                "P1", ctx.relpath, t.line,
                f"panicIf message builds a temporary "
                f"({builds}) — the argument is evaluated on every "
                "call even when the condition is false; use a "
                "literal, or guard with `if (cond) panic(...)`"))
    return out


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def iter_tree(root):
    for d in SCAN_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fn in sorted(filenames):
                if not fn.endswith(SOURCE_EXTS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fn),
                                      root).replace(os.sep, "/")
                if any(rel.startswith(p) for p in EXCLUDE_PREFIXES):
                    continue
                yield rel


FILE_CHECKS = (check_annotations, check_d1, check_d2, check_c1,
               check_p1)


def lint_file(root, relpath):
    try:
        ctx = FileContext(root, relpath)
    except OSError as e:
        f = Finding("LINT", relpath, 1, f"unreadable: {e}")
        return [f]
    findings = []
    for check in FILE_CHECKS:
        findings.extend(check(ctx))
    for f in findings:
        if f.rule == "LINT":
            continue  # annotation problems are never suppressible
        reason = ctx.allow.get(f.line, {}).get(f.rule)
        if reason is None:
            reason = ctx.allow.get(f.line, {}).get("ALL")
        if reason is not None:
            f.suppressed = True
            f.reason = reason
    return findings


def default_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(here)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="rssd_lint",
        description="RSSD determinism / chain-custody / schema "
                    "linter. See --list-rules.")
    ap.add_argument("files", nargs="*",
                    help="root-relative files to lint (default: the "
                         "whole tree under src/, tests/, bench/, "
                         "examples/)")
    ap.add_argument("--root", default=default_root(),
                    help="repository root (default: parent of this "
                         "script)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule catalog and exit")
    ap.add_argument("--fix-manifests", action="store_true",
                    help="regenerate tools/manifests/*.keys (refuses "
                         "to absorb a key change without a schema "
                         "bump)")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="also write a JSON report to PATH "
                         "('-' for stdout)")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress per-finding text output")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid, summary in RULES.items():
            print(f"{rid:5s} {summary}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"rssd_lint: no such root: {root}", file=sys.stderr)
        return 2

    if args.fix_manifests:
        wrote, errors = fix_manifests(root)
        for w in wrote:
            print(f"rssd_lint: wrote {w}")
        if not wrote and not errors:
            print("rssd_lint: manifests already up to date")
        for e in errors:
            print(f"rssd_lint: REFUSED: {e}", file=sys.stderr)
        return 1 if errors else 0

    if args.files:
        files = [f.replace(os.sep, "/") for f in args.files]
        missing = [f for f in files
                   if not os.path.exists(os.path.join(root, f))]
        if missing:
            print("rssd_lint: no such file under root: "
                  + ", ".join(missing), file=sys.stderr)
            return 2
    else:
        files = list(iter_tree(root))

    findings = []
    for rel in files:
        findings.extend(lint_file(root, rel))
    # D3 is a whole-tree property, not a per-file one; skip it when
    # linting an explicit subset (pre-commit on changed files) unless
    # a report TU or manifest is in the subset.
    run_d3 = not args.files or any(
        f.startswith(MANIFEST_DIR) or f in {s["tu"] for s in D3_SPECS}
        or f in {s["header"] for s in D3_SPECS} for f in files)
    if run_d3:
        findings.extend(check_d3(root))

    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]

    if not args.quiet:
        for f in active:
            print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
        for f in suppressed:
            print(f"{f.file}:{f.line}: [{f.rule}] suppressed "
                  f"({f.reason})")
        print(f"rssd_lint: {len(files)} files, "
              f"{len(active)} finding(s), "
              f"{len(suppressed)} suppressed")

    if args.json:
        report = {
            "tool": "rssd_lint",
            "root": root,
            "filesScanned": len(files),
            "rules": [{"id": rid, "summary": s}
                      for rid, s in RULES.items()],
            "findings": [f.as_dict() for f in findings],
            "counts": {"active": len(active),
                       "suppressed": len(suppressed)},
        }
        blob = json.dumps(report, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(blob)
        else:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(blob)

    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main())
