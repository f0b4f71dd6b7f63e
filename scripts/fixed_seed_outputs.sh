#!/usr/bin/env bash
# Write the fixed-seed output set that byte-identity checks compare with `diff -r`.
#
# Usage, from anywhere inside a source checkout:
#
#     scripts/fixed_seed_outputs.sh OUTDIR
#
# OUTDIR receives 25 files, all at seed 3 with one BLAS thread:
#   branin/      samsbo, safe-ucb, ucb and multi-task-ucb, 6 iterations x 2 repetitions
#   laser/       samsbo and safe-ucb, 2 iterations x 2 repetitions
#   laser10/     samsbo, 10 iterations x 1 repetition: its per-task grids grow past
#                gp.GRID_BLOCK rows, so the blocked grid product runs
#   powell/      samsbo and safe-ucb, 2 iterations x 2 repetitions
#   powell8/     the same with dimension = 8
#   branin3/     samsbo with n_tasks = 3, 3 iterations x 1 repetition
#   verify/      coverage.json of verify-bounds at its default sizes, 500 frequentist
#                and 200 Bayesian trials
# Each run directory keeps the raw and aggregate CSVs; manifest.json holds wall
# times and is left out.  Compare the outputs of two commits byte for byte with
#
#     diff -r OUTDIR_A OUTDIR_B
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
unset SAMSBO_OUT

# run NAME COMMAND KEY=VALUE...: one CLI call configured by the given keys
run() {
    local name=$1 command=$2
    shift 2
    printf '%s\n' "seed = 3" "$@" > "$work/$name.cfg"
    local status=0
    python3 -m samsbo.cli "$command" --config "$work/$name.cfg" --out "$work/$name" > /dev/null \
        || status=$?
    # verify-bounds exits 1 when a suite misses its target; its coverage.json is still the output
    case "$command:$status" in
        *:0 | verify-bounds:1) ;;
        *) echo "$0: $name ($command) exited $status" >&2; exit "$status" ;;
    esac
    mkdir -p "$out/$name"
    find "$work/$name" -maxdepth 1 -type f \( -name '*.csv' -o -name 'coverage.json' \) \
        -exec cp {} "$out/$name/" \;
}

run branin run "problem = branin" "algorithm = samsbo,safe-ucb,ucb,multi-task-ucb" \
    "iterations = 6" "repetitions = 2"
run laser run "problem = laser" "algorithm = samsbo,safe-ucb" "iterations = 2" "repetitions = 2"
run laser10 run "problem = laser" "algorithm = samsbo" "iterations = 10" "repetitions = 1"
run powell run "problem = powell" "algorithm = samsbo,safe-ucb" "iterations = 2" "repetitions = 2"
run powell8 run "problem = powell" "dimension = 8" "algorithm = samsbo,safe-ucb" "iterations = 2" \
    "repetitions = 2"
run branin3 run "problem = branin" "n_tasks = 3" "algorithm = samsbo" "iterations = 3" \
    "repetitions = 1"
run verify verify-bounds "frequentist_trials = 500" "bayesian_trials = 200"

echo "$(find "$out" -type f | wc -l) files in $out"
