#!/usr/bin/env bash
# The one command of the benchmark. Builds the benchmark package
# (offline, release) and runs it.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one process; the last line of output is the
#       result object (this is the form BENCHMARK.json's driver uses)
#   run.sh                all workloads, untraced: the end-to-end table
#   run.sh --trace        all workloads, traced: the per-layer ladder
#   run.sh --check-repeat the untraced set twice; fails when a metric
#                         differs by more than its bound
#   run.sh --spread       ten seeds per workload; spread of each metric
#   run.sh --smoke        every workload 0.5 s, traced and untraced
#   run.sh --selftest     the benchmark's own unit tests
#
# Suite modes accept --seed <n>, --seconds <s> and --workload <name>
# (that workload only).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# CARGO_TARGET_DIR may be relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

if [[ "${1:-}" == "--selftest" ]]; then
    exec cargo test --offline --release --manifest-path "$here/Cargo.toml"
fi

# Quiet unless the build fails; stdout stays the benchmark's.
if ! log="$(cargo build --offline --release --manifest-path "$here/Cargo.toml" 2>&1)"; then
    echo "$log" >&2
    exit 3
fi

export XDAQ_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export XDAQ_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"

bin="$target/release/xdaq-benchmark"
args=(--out "$here/out")
# The driver's form: --trace carries a value, one workload, one process.
if [[ " $* " == *" --workload "* && " $* " == *" --trace "[01]" "* ]]; then
    exec "$bin" "${args[@]}" "$@"
fi

mode=(--suite)
while (( $# )); do
    case "$1" in
        --trace) args+=(--trace 1) ;;
        --check-repeat | --spread | --smoke) mode=("$1") ;;
        --seed | --seconds | --workload) args+=("$1" "$2"); shift ;;
        *) echo "run.sh: unknown argument '$1' (see the header of this file)" >&2; exit 2 ;;
    esac
    shift
done
exec "$bin" "${mode[@]}" "${args[@]}"
