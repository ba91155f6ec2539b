#!/bin/sh
# Crash-safety end-to-end test: SIGKILL a checkpointed bench mid-run,
# rerun it against the same checkpoint directory, and assert the
# resumed table is byte-identical to an uninterrupted run. Covers every
# checkpointed driver: the Figure 10 mitigation sweep (ExperimentRunner
# shards), the Figure 8 HCfirst population run (per-chip
# PopulationRunner records), the fuzzing campaign (per-(pattern, chip)
# session records feeding an iterative search — resume replays the
# generations with memoized sessions), and the attack-pattern sweep
# (per-cell records of a mapped grid).
#
# Usage: kill_resume_test.sh <fig10_mitigations> [<fig8_hcfirst_dist>
#        [<fuzz_campaign> [<attack_sweep>]]]
set -eu

fig10="${1:?usage: kill_resume_test.sh <fig10_mitigations> [<fig8_hcfirst_dist> [<fuzz_campaign> [<attack_sweep>]]]}"
fig8="${2:-}"
fuzz="${3:-}"
sweep="${4:-}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# One SIGKILL-resume cycle: $1 = binary, $2 = case name. Expects the
# bench's scaling knobs to already be exported.
kill_resume_case() {
    bin="$1"
    name="$2"
    ckpt="$work/$name-ckpt"

    echo "== [$name] uninterrupted reference run"
    "$bin" > "$work/$name-fresh.txt" 2> "$work/$name-fresh.err"

    echo "== [$name] checkpointed run, to be killed mid-run"
    RH_CHECKPOINT="$ckpt" "$bin" \
        > "$work/$name-killed.txt" 2> "$work/$name-killed.err" &
    pid=$!

    # Wait for the first checkpoint record file, then let a few more
    # shards land before pulling the plug.
    i=0
    while ! ls "$ckpt"/*.rst > /dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 200 ]; then
            echo "FAIL: [$name] no checkpoint file within 20s" >&2
            kill -9 "$pid" 2> /dev/null || true
            exit 1
        fi
        if ! kill -0 "$pid" 2> /dev/null; then
            break # Run finished before any poll tick; fall through.
        fi
        sleep 0.1
    done
    sleep 0.3

    if kill -9 "$pid" 2> /dev/null; then
        echo "   killed pid $pid mid-run"
    else
        echo "   run finished before the kill landed (fast machine);" \
             "resume still exercises the load path"
    fi
    wait "$pid" 2> /dev/null || true

    shards="$(ls "$ckpt"/*.rst 2> /dev/null | head -1)"
    if [ -z "$shards" ]; then
        echo "FAIL: [$name] checkpoint dir has no record store" >&2
        exit 1
    fi
    echo "   checkpoint store: $(basename "$shards")" \
         "($(wc -c < "$shards") bytes)"

    echo "== [$name] resumed run against the same checkpoint"
    RH_CHECKPOINT="$ckpt" "$bin" \
        > "$work/$name-resumed.txt" 2> "$work/$name-resumed.err"

    if ! cmp -s "$work/$name-fresh.txt" "$work/$name-resumed.txt"; then
        echo "FAIL: [$name] resumed output differs from the" \
             "uninterrupted run" >&2
        diff "$work/$name-fresh.txt" "$work/$name-resumed.txt" >&2 || true
        exit 1
    fi
    echo "PASS: [$name] resumed output is byte-identical to the" \
         "uninterrupted run"
}

# Sized so the full runs take a few seconds: long enough to land a
# SIGKILL mid-batch, short enough for CI.
RH_F10_INSTR=40000
RH_F10_MIXES=1
RH_THREADS=2
export RH_F10_INSTR RH_F10_MIXES RH_THREADS

kill_resume_case "$fig10" fig10

if [ -n "$fig8" ]; then
    # Enough chips that the population run outlives the kill window on
    # a fast machine (the script degrades gracefully if it doesn't).
    RH_F8_CHIPS=300
    export RH_F8_CHIPS
    kill_resume_case "$fig8" fig8
fi

if [ -n "$fuzz" ]; then
    # Sized so the campaign spans several generations over a few
    # seconds: the SIGKILL lands mid-generation and resume has to
    # reconstruct the search from partially persisted sessions.
    RH_FZ_GENERATIONS=8
    RH_FZ_POPULATION=24
    RH_FZ_CHIPS=4
    export RH_FZ_GENERATIONS RH_FZ_POPULATION RH_FZ_CHIPS
    kill_resume_case "$fuzz" fuzz
fi

if [ -n "$sweep" ]; then
    # A bank-xor grid over 16 banks with enough fuzzed patterns that
    # the cell batch spans a few seconds: the SIGKILL lands mid-grid.
    RH_AS_BANKS=16
    RH_AS_MAPPING=bank-xor
    RH_AS_FUZZ=100
    export RH_AS_BANKS RH_AS_MAPPING RH_AS_FUZZ
    kill_resume_case "$sweep" attack_sweep
fi
