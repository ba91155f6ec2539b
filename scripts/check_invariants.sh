#!/usr/bin/env bash
# Project-invariant linter: the determinism rules generic tools can't
# check. Every headline result in this repo rests on byte-identical
# reproducibility (golden FNV stream pins, 1-vs-N-thread equality,
# resume-equals-uninterrupted), so library code must not:
#
#   [nondet]    read wall clocks or ambient entropy — rand()/srand(),
#               std::random_device, time()/gettimeofday()/
#               clock_gettime(), or std::chrono clock ::now() reads —
#               outside the allowlisted seeding/watchdog seams. All
#               randomness flows from util::Rng seeds.
#   [unordered] use std::unordered_{map,set,...} anywhere in src/:
#               hash-order iteration leaking into evictions, stats, or
#               serialized output is exactly the nondeterminism the
#               pins exist to catch. Use std::map/std::set or an
#               insertion-order vector (allowlist justified infra).
#   [stdout]    write to stdout — std::cout, printf, fprintf(stdout),
#               puts — from library code. Benches own stdout (their
#               tables are diffed byte-for-byte); library diagnostics
#               go through util::logging (stderr).
#   [sercov]    declare a result-affecting config struct (anything with
#               a hash() const) without covering it in
#               tests/test_serialize_coverage.cc, which asserts hash()
#               reacts to every result-affecting field and ignores
#               execution-only knobs.
#
# Exceptions live in scripts/invariant_allowlist.txt as
# '<rule>|<path suffix>|<line substring>' triples, one per hit.
#
#   scripts/check_invariants.sh [--root DIR]   # lint (DIR default: repo)
#   scripts/check_invariants.sh --self-test    # negative-path fixtures

set -euo pipefail

SCRIPT_DIR=$(cd "$(dirname "$0")" && pwd)
REPO_ROOT=$(dirname "$SCRIPT_DIR")
ROOT="$REPO_ROOT"
SELF_TEST=0

while [ $# -gt 0 ]; do
    case "$1" in
        --root) ROOT="$2"; shift 2 ;;
        --self-test) SELF_TEST=1; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

ALLOWLIST="$REPO_ROOT/scripts/invariant_allowlist.txt"

# A grep hit "file:line:text" survives unless an allowlist triple
# matches its rule, file (suffix match), and line text (substring).
filter_allowed() {
    rule="$1"
    while IFS= read -r hit; do
        [ -n "$hit" ] || continue
        file=${hit%%:*}
        text=${hit#*:}
        text=${text#*:}
        allowed=0
        while IFS='|' read -r arule apath atoken; do
            case "$arule" in ''|'#'*) continue ;; esac
            [ "$arule" = "$rule" ] || continue
            case "$file" in *"$apath") ;; *) continue ;; esac
            case "$text" in *"$atoken"*) allowed=1; break ;; esac
        done < "$ALLOWLIST"
        [ "$allowed" = 1 ] || printf '[%s] %s\n' "$rule" "$hit"
    done
}

lint() {
    root="$1"
    fail=0

    src_files=$(find "$root/src" -name '*.cc' -o -name '*.hh' \
                2>/dev/null | sort)
    [ -n "$src_files" ] || { echo "error: no sources under $root/src" >&2
                             return 2; }

    # --- [nondet] ambient entropy / wall-clock reads -----------------
    # shellcheck disable=SC2086
    hits=$(grep -nE \
        '(^|[^a-zA-Z_])(rand|srand|gettimeofday|clock_gettime|localtime|mktime)[[:space:]]*\(|random_device|(system_clock|steady_clock|high_resolution_clock)|[^a-zA-Z_:.]time\(' \
        $src_files /dev/null | filter_allowed nondet) || true
    if [ -n "$hits" ]; then
        printf '%s\n' "$hits"
        fail=1
    fi

    # --- [unordered] hash-ordered containers -------------------------
    # shellcheck disable=SC2086
    hits=$(grep -nE 'unordered_(map|set|multimap|multiset)' \
        $src_files /dev/null | filter_allowed unordered) || true
    if [ -n "$hits" ]; then
        printf '%s\n' "$hits"
        fail=1
    fi

    # --- [stdout] stdout writes from library code --------------------
    # shellcheck disable=SC2086
    hits=$(grep -nE \
        'std::cout|(^|[^a-zA-Z_])printf[[:space:]]*\(|fprintf[[:space:]]*\([[:space:]]*stdout|(^|[^a-zA-Z_])puts[[:space:]]*\(' \
        $src_files /dev/null | filter_allowed stdout) || true
    if [ -n "$hits" ]; then
        printf '%s\n' "$hits"
        fail=1
    fi

    # --- [sercov] serialize-coverage of hash()-bearing configs -------
    coverage="$root/tests/test_serialize_coverage.cc"
    # /dev/null keeps awk off stdin when a tree has no headers (the
    # self-test fixtures with only .cc files).
    # shellcheck disable=SC2086
    structs=$(awk '/^(struct|class) [A-Za-z_]/ { name = $2 }
                   /hash\(\) const;/ { if (name != "") print name }' \
              $(find "$root/src" -name '*.hh' | sort) /dev/null | sort -u)
    for s in $structs; do
        if [ ! -f "$coverage" ] || ! grep -q "\b$s\b" "$coverage"; then
            echo "[sercov] $s declares hash() but is not exercised" \
                 "by tests/test_serialize_coverage.cc"
            fail=1
        fi
    done

    return "$fail"
}

self_test() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    failures=0

    expect_rule() {
        label="$1" rule="$2" dir="$3"
        if out=$("$0" --root "$dir" 2>&1); then
            echo "SELF-TEST FAIL: $label passed the linter" >&2
            failures=$((failures + 1))
        # A here-string, not a pipe: under pipefail, grep -q exiting
        # on its first match can SIGPIPE the writer and fail the check.
        elif ! grep -q "\[$rule\]" <<< "$out"; then
            echo "SELF-TEST FAIL: $label did not trip [$rule]:" >&2
            printf '%s\n' "$out" >&2
            failures=$((failures + 1))
        else
            echo "self-test ok: $label trips [$rule]"
        fi
    }

    # Clean fixture (one covered config struct) must pass.
    mkdir -p "$tmp/clean/src/sim" "$tmp/clean/tests"
    cat > "$tmp/clean/src/sim/good.hh" <<'EOF'
struct GoodConfig
{
    int rows = 8;
    std::uint64_t hash() const;
};
EOF
    echo "// exercises GoodConfig" > \
        "$tmp/clean/tests/test_serialize_coverage.cc"
    if ! "$0" --root "$tmp/clean" > /dev/null 2>&1; then
        echo "SELF-TEST FAIL: clean fixture rejected" >&2
        failures=$((failures + 1))
    else
        echo "self-test ok: clean fixture passes"
    fi

    # [nondet]: a rand() on a simulation path.
    mkdir -p "$tmp/nondet/src/sim" "$tmp/nondet/tests"
    cat > "$tmp/nondet/src/sim/bad.cc" <<'EOF'
int pickVictim() { return rand() % 8; }
EOF
    expect_rule "rand() in src/sim" nondet "$tmp/nondet"

    # [nondet]: a wall-clock read.
    mkdir -p "$tmp/clock/src/core" "$tmp/clock/tests"
    cat > "$tmp/clock/src/core/bad.cc" <<'EOF'
#include <chrono>
long stamp() {
    return std::chrono::system_clock::now().time_since_epoch().count();
}
EOF
    expect_rule "system_clock in src/core" nondet "$tmp/clock"

    # [unordered]: a hash-ordered table in a mitigation.
    mkdir -p "$tmp/unord/src/mitigation" "$tmp/unord/tests"
    cat > "$tmp/unord/src/mitigation/bad.hh" <<'EOF'
#include <unordered_map>
struct T { std::unordered_map<int, int> table; };
EOF
    expect_rule "unordered_map in src/mitigation" unordered "$tmp/unord"

    # [stdout]: library code printing a table.
    mkdir -p "$tmp/stdout/src/util" "$tmp/stdout/tests"
    cat > "$tmp/stdout/src/util/bad.cc" <<'EOF'
#include <cstdio>
void dump() { printf("flips=%d\n", 3); }
EOF
    expect_rule "printf in src/util" stdout "$tmp/stdout"

    # [sercov]: a hash()-bearing config missing from the coverage test.
    mkdir -p "$tmp/sercov/src/core" "$tmp/sercov/tests"
    cat > "$tmp/sercov/src/core/bad.hh" <<'EOF'
struct OrphanConfig
{
    int knob = 1;
    std::uint64_t hash() const;
};
EOF
    : > "$tmp/sercov/tests/test_serialize_coverage.cc"
    expect_rule "uncovered hash() struct" sercov "$tmp/sercov"

    # [nodiscard] negative path: ignoring a status return must fail the
    # -Werror build the CI matrix runs. Syntax-only, so it is cheap.
    if command -v g++ > /dev/null 2>&1; then
        cat > "$tmp/discard.cc" <<'EOF'
#include "sim/controller.hh"
using namespace rowhammer;
void drop(sim::Controller &c, sim::Request r)
{
    c.enqueue(std::move(r)); // Discarded status: must not compile.
}
EOF
        if g++ -std=c++20 -fsyntax-only -Wall -Wextra -Werror \
               -I"$REPO_ROOT/src" "$tmp/discard.cc" 2> /dev/null; then
            echo "SELF-TEST FAIL: ignored enqueue() compiled under" \
                 "-Werror" >&2
            failures=$((failures + 1))
        else
            echo "self-test ok: ignored enqueue() rejected by -Werror"
        fi
    fi

    if [ "$failures" -gt 0 ]; then
        echo "self-test: $failures failure(s)" >&2
        return 1
    fi
    echo "self-test: all negative paths trip, clean fixture passes"
}

if [ "$SELF_TEST" = 1 ]; then
    self_test
else
    if lint "$ROOT"; then
        echo "check_invariants: clean"
    else
        echo "check_invariants: violations found (rules documented at" \
             "the top of scripts/check_invariants.sh; exceptions go in" \
             "scripts/invariant_allowlist.txt with a justification)" >&2
        exit 1
    fi
fi
