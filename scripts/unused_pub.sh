#!/usr/bin/env bash
# List public items that nothing names: "nothing without a caller".
#
#   scripts/unused_pub.sh [--reexports | --test-only]
#
# Takes every `pub fn|struct|enum|const|type|trait NAME` defined under
# crates/*/src and counts whole-word mentions of NAME in every .rs file under
# crates, src, examples and benchmark/src — code, comments and docs alike,
# so it under-reports rather than over-reports. It prints, as
# `file:line: NAME`, each name mentioned once: the definition and nothing
# else. With --reexports it also prints names mentioned twice, which is
# what an item that is defined, re-exported and never used looks like
# (and, too, an item with one caller: read that list, do not gate on it).
#
# With --test-only it prints instead each `pub fn` that is mentioned
# somewhere but, outside its definition, only in test or example code:
# crates/*/tests, examples, and the `#[cfg(test)]` module that ends a
# source file. Such a function is not dead, but nothing that ships calls
# it: the next sweep's reading list, not a gate either.
#
# A definition with `unused-pub: allow` and a reason in a comment on its
# own line or the line above is skipped.
#
# Exit status: 0 when nothing is printed, 1 otherwise, 2 on a usage error.
# Needs bash, grep, awk. Run from anywhere inside the repository.

set -euo pipefail

LIMIT=1
TEST_ONLY=0
KINDS='(const |async |unsafe )*fn|struct|enum|const|type|trait'
case "${1:-}" in
    "") ;;
    --reexports) LIMIT=2 ;;
    --test-only)
        TEST_ONLY=1
        KINDS='(const |async |unsafe )*fn'
        ;;
    *)
        sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
        exit 2
        ;;
esac
[[ $# -le 1 ]] || exit 2

cd "$(dirname "$0")/.."

# Every identifier token of the code that ships (source files up to their
# `#[cfg(test)]` module), then of all the searched trees, one a line, then
# every definition site; awk counts the first two and filters the third.
{
    find crates/*/src src benchmark/src -name '*.rs' -print0 |
        xargs -0 awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test' |
        grep -oE '[A-Za-z_][A-Za-z0-9_]*'
    echo '--everywhere--'
    grep -rhoE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' crates src examples benchmark/src
    echo '--definitions--'
    grep -rnE --include='*.rs' -B1 "^\s*pub ($KINDS) [A-Za-z_]" crates/*/src
} | awk -v limit="$LIMIT" -v test_only="$TEST_ONLY" '
    !everywhere && $0 == "--everywhere--" { everywhere = 1; next }
    !everywhere { shipped[$0]++; next }
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
        unnamed = test_only ? mentions[name] > 1 && shipped[name] <= 1 : mentions[name] <= limit
        if (!allowed && unnamed) {
            printf "%s:%s: %s\n", at[1], at[2], name
            found = 1
        }
    }
    END { exit found ? 1 : 0 }
'
