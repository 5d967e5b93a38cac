#!/usr/bin/env bash
# Build the benchmark once, then run every workload untraced and traced,
# and say how the wall time compares with the cap the benchmark contract
# puts on the driver's full set of runs.
#
#   e2e/run.sh [--seed N] [--seconds N] [--repeat R] [--seed-step S] [--out DIR]
#
# Exits non-zero when any run fails its correctness gate.
set -euo pipefail
cd "$(dirname "$0")"

# The driver makes 4 + 22 x (number of workloads) runs, and all of them,
# with set-up and two builds, must end within this many seconds.
CAP_S=3420
WORKLOADS=4
DRIVER_RUNS=$((4 + 22 * WORKLOADS))

began=$(date +%s)
cargo build --release --offline
built=$(date +%s)

status=0
cargo run --release --offline --quiet -- run "$@" || status=$?
ended=$(date +%s)

runs=$((2 * WORKLOADS))
for ((i = 1; i <= $#; i++)); do
    j=$((i + 1))
    case "${!i}" in
    --repeat) runs=$((runs * ${!j})) ;;
    --trace) runs=$((runs / 2)) ;; # only one of the two modes
    esac
done
build_s=$((built - began))
run_s=$((ended - built))
per_run=$(((run_s + runs - 1) / runs))
projected=$((2 * build_s + DRIVER_RUNS * per_run))
echo "build ${build_s}s; ${runs} runs in ${run_s}s (${per_run}s each)"
echo "projected for the driver's ${DRIVER_RUNS} runs and two builds: ${projected}s of the ${CAP_S}s cap"
if ((projected > CAP_S)); then
    echo "over the cap: shorten run_seconds in BENCHMARK.json" >&2
    status=1
fi
exit "$status"
