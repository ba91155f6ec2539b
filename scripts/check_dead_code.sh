#!/usr/bin/env bash
# Dead-code ratchet: rowhammer:: functions compiled into the library
# (librowhammer.a) that no shipped binary contains. The shipped binaries
# are the benches, the examples and the perfbench driver; tests do not
# count, so code only tests link shows up here. Every entry that stays
# is justified in scripts/dead_code_baseline.txt, grouped by reason.
#
# The build is non-LTO at -O0 with -ffunction-sections, and binaries
# link with -Wl,--gc-sections: every function sits in its own section
# and the linker discards each one no binary reaches. -O0 matters: at
# -O2 a function inlined into its only caller within one file keeps no
# out-of-line copy and would look dead. perfbench is compiled here
# against the same archive, because it alone uses some library
# functions. micro_perf is a caller too, so google-benchmark must be
# installed.
#
# Fails on any dead function missing from the baseline, and lists
# baseline entries that are no longer dead so the baseline gets
# trimmed (the same ratchet as scripts/run_clang_tidy.sh).
#
#   scripts/check_dead_code.sh    # builds into build-deadcode/

set -euo pipefail

cd "$(dirname "$0")/.."
export LC_ALL=C

BUILD_DIR=build-deadcode
BASELINE=scripts/dead_code_baseline.txt
JOBS="$(nproc 2>/dev/null || echo 4)"

mkdir -p "$BUILD_DIR"
if ! { cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
           -DCMAKE_CXX_FLAGS_DEBUG="-O0 -ffunction-sections" \
           -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
           -DROWHAMMER_NATIVE=OFF -DROWHAMMER_BUILD_TESTS=OFF &&
       cmake --build "$BUILD_DIR" -j "$JOBS"; } > "$BUILD_DIR/build.log" 2>&1
then
    cat "$BUILD_DIR/build.log" >&2
    echo "error: dead-code build failed" >&2
    exit 1
fi
if [ ! -x "$BUILD_DIR/bench/micro_perf" ]; then
    echo "error: micro_perf was not built (google-benchmark missing), so" \
         "the caller set is incomplete" >&2
    exit 1
fi

CXX=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt")
"$CXX" -std=c++20 -O0 -ffunction-sections -Isrc perfbench/src/*.cc \
    "$BUILD_DIR/librowhammer.a" -pthread -Wl,--gc-sections \
    -o "$BUILD_DIR/perfbench"

# Demangled names of the rowhammer:: functions defined in the files.
# The filter runs on mangled names: a std:: template instantiated for a
# rowhammer type (std::vector<rowhammer::...>::emplace_back) belongs to
# the standard library and differs between library versions.
functions() {
    nm --defined-only "$@" 2> /dev/null |
        sed -n 's/^[0-9a-f]* [TtWw] \(_Z*N[KVRO]*9rowhammer.*\)$/\1/p' |
        c++filt | sort -u
}

binaries=$(find "$BUILD_DIR/bench" "$BUILD_DIR/examples" -maxdepth 1 \
                -type f -perm -u+x | sort)
# shellcheck disable=SC2086
DEAD=$(comm -23 <(functions "$BUILD_DIR/librowhammer.a") \
                <(functions $binaries "$BUILD_DIR/perfbench"))
BASE=$({ grep -v -e '^#' -e '^$' "$BASELINE" || true; } | sort -u)

NEW=$(comm -23 <(printf '%s\n' "$DEAD") <(printf '%s\n' "$BASE") |
      grep -v '^$' || true)
GONE=$(comm -13 <(printf '%s\n' "$DEAD") <(printf '%s\n' "$BASE") |
       grep -v '^$' || true)

if [ -n "$GONE" ]; then
    echo "note: no longer dead; trim these from $BASELINE:"
    printf '%s\n' "$GONE" | sed 's/^/  /'
fi
if [ -n "$NEW" ]; then
    echo "error: library functions no bench, example or perfbench" \
         "binary contains (not in $BASELINE):" >&2
    printf '%s\n' "$NEW" | sed 's/^/  /' >&2
    echo "Delete them, call them from a binary, or justify them in the" \
         "baseline under the matching reason." >&2
    exit 1
fi
echo "check_dead_code: clean ($(printf '%s\n' "$DEAD" | grep -vc '^$' ||
                               true) baselined dead functions)"
