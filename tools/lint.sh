#!/usr/bin/env bash
# tools/lint.sh — one-command static-analysis entry point.
#
#   1. tools/rssd_lint.py   (determinism/custody/schema rules; GATES)
#   2. clang-format         (changed files only; advisory unless
#                            --strict-format; skipped when absent)
#
# Usage: tools/lint.sh [options]
#   --changed            lint only files changed vs the merge base
#   --strict-format      fail on clang-format diffs
#   --json PATH          write the rssd_lint JSON report to PATH
#
# Exit: non-zero if any gating step fails.

set -u -o pipefail

cd "$(dirname "$0")/.."

CHANGED_ONLY=0
STRICT_FORMAT=0
JSON_OUT=""

while [ $# -gt 0 ]; do
    case "$1" in
        --changed) CHANGED_ONLY=1 ;;
        --strict-format) STRICT_FORMAT=1 ;;
        --json) JSON_OUT="$2"; shift ;;
        -h|--help) sed -n '2,13p' "$0"; exit 0 ;;
        *) echo "lint.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift
done

FAIL=0

# Changed files relative to the merge base with origin/main (falls
# back to HEAD for fresh clones / detached heads), plus anything
# staged or unstaged right now.
changed_files() {
    {
        base=$(git merge-base HEAD origin/main 2>/dev/null \
               || git merge-base HEAD main 2>/dev/null \
               || echo HEAD)
        git diff --name-only --diff-filter=d "$base" 2>/dev/null
        git diff --name-only --diff-filter=d 2>/dev/null
        git diff --name-only --diff-filter=d --cached 2>/dev/null
    } | sort -u | grep -E '^(src|tests|bench|examples)/.*\.(cc|hh|cpp|hpp|h)$' \
      | grep -v '^tests/tools/fixtures/' || true
}

# ---- 1. rssd_lint (gating) ------------------------------------------------

RSSD_LINT_ARGS=()
if [ -n "$JSON_OUT" ]; then
    RSSD_LINT_ARGS+=(--json "$JSON_OUT")
fi
if [ "$CHANGED_ONLY" = 1 ]; then
    mapfile -t files < <(changed_files)
    if [ "${#files[@]}" = 0 ]; then
        echo "lint.sh: no changed source files; rssd_lint skipped"
    else
        python3 tools/rssd_lint.py "${RSSD_LINT_ARGS[@]}" "${files[@]}" \
            || FAIL=1
    fi
else
    python3 tools/rssd_lint.py "${RSSD_LINT_ARGS[@]}" || FAIL=1
fi

# ---- 2. clang-format over changed files -----------------------------------

if ! command -v clang-format >/dev/null 2>&1; then
    echo "lint.sh: clang-format not found; step skipped"
else
    mapfile -t fmt_files < <(changed_files)
    if [ "${#fmt_files[@]}" = 0 ]; then
        echo "lint.sh: no changed source files; format check skipped"
    elif ! clang-format --dry-run -Werror "${fmt_files[@]}" 2>&1; then
        if [ "$STRICT_FORMAT" = 1 ]; then
            echo "lint.sh: format check FAILED (--strict-format)"
            FAIL=1
        else
            echo "lint.sh: format diffs above are advisory" \
                 "(use --strict-format to gate)"
        fi
    else
        echo "lint.sh: format clean (${#fmt_files[@]} changed files)"
    fi
fi

if [ "$FAIL" != 0 ]; then
    echo "lint.sh: FAILED"
    exit 1
fi
echo "lint.sh: OK"
