#!/usr/bin/env bash
# List public items that nothing names: "nothing without a caller".
#
#   scripts/unused_pub.sh [--reexports]
#
# Takes every `pub fn|struct|enum|const|type|trait NAME` defined under
# crates/*/src (crates/lint aside: its fixtures are Rust source in string
# literals) and counts whole-word mentions of NAME in every .rs file under
# crates, src, examples and benchmark/src — code, comments and docs alike,
# so it under-reports rather than over-reports. It prints, as
# `file:line: NAME`, each name mentioned once: the definition and nothing
# else. With --reexports it also prints names mentioned twice, which is
# what an item that is defined, re-exported and never used looks like
# (and, too, an item with one caller: read that list, do not gate on it).
#
# A definition with `unused-pub: allow` and a reason in a comment on its
# own line or the line above is skipped.
#
# Exit status: 0 when nothing is printed, 1 otherwise, 2 on a usage error.
# Needs bash, grep, awk. Run from anywhere inside the repository.

set -euo pipefail

LIMIT=1
case "${1:-}" in
    "") ;;
    --reexports) LIMIT=2 ;;
    *)
        sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
        exit 2
        ;;
esac
[[ $# -le 1 ]] || exit 2

cd "$(dirname "$0")/.."

# Every identifier token of the searched trees, one a line, then every
# definition site; awk counts the first and filters the second.
{
    grep -rhoE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' crates src examples benchmark/src
    echo '--definitions--'
    grep -rnE --include='*.rs' -B1 \
        '^\s*pub ((const |async |unsafe )*fn|struct|enum|const|type|trait) [A-Za-z_]' \
        crates/*/src | grep -v '^crates/lint/'
} | awk -v limit="$LIMIT" '
    !definitions && $0 == "--definitions--" { definitions = 1; next }
    !definitions { mentions[$0]++; next }
    /^--$/ { above = ""; next }
    # grep -B1 marks a context line `file-N-text` and a match `file:N:text`.
    !/^[^:]*:[0-9]+:/ { above = $0; next }
    {
        allowed = (above $0) ~ /unused-pub: allow/
        above = ""
        split($0, at, ":")
        rest = $0
        sub(/^[^:]*:[0-9]+:[ \t]*pub /, "", rest)
        sub(/^((const |async |unsafe )*fn|struct|enum|const|type|trait) /, "", rest)
        match(rest, /^[A-Za-z_][A-Za-z0-9_]*/)
        name = substr(rest, 1, RLENGTH)
        if (!allowed && mentions[name] <= limit) {
            printf "%s:%s: %s\n", at[1], at[2], name
            found = 1
        }
    }
    END { exit found ? 1 : 0 }
'
