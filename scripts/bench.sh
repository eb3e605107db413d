#!/usr/bin/env bash
# Benchmark driver: rebuilds the release harnesses and regenerates the
# experiment outputs under results/. Run from the repo root.
#
#   scripts/bench.sh                # shm transport comparison only (fast)
#   scripts/bench.sh --all          # also regenerate the paper harnesses
#
# Socket-transport and end-to-end numbers come from benchmark/run.sh
# (BENCHMARK.json), not from here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release -p xdaq-bench

echo "== shm vs loopback vs tcp throughput (64 B .. 256 KiB) =="
# Asserts the PR acceptance floor internally: zero send-path copies for
# every block-sized frame and >=5x TCP-localhost throughput at 4 KiB.
cargo run -p xdaq-bench --release --bin shm_throughput -- \
    --json results/BENCH_pr3.json

echo "== event-store append/scan throughput (1 KiB .. 256 KiB) =="
# Verifies internally that every append iovec aliases its pool block
# (zero payload copies) and that the store scans back clean.
cargo run -p xdaq-bench --release --bin rec_throughput -- \
    --json results/BENCH_pr5.json

echo "== event-builder scaling (n x m executives over shm + tcp, chaos) =="
# Asserts the PR acceptance floor internally: every mesh point (up to
# 16x8 executives, tcp stragglers included) finishes with zero event
# loss while readouts drop 10% of fragments under a fixed-seed plan.
cargo run -p xdaq-bench --release --bin evb_scaling -- \
    --json results/BENCH_pr6.json

echo "== qos fairness (two tenants, one credit-metered link) =="
# Asserts the PR acceptance floor internally: with a token-bucket
# class shedding the bulk flooder at admission, the high-priority
# tenant must retain >= 90% of its solo throughput.
cargo run -p xdaq-bench --release --bin qos_fairness -- \
    --json results/BENCH_pr7.json

echo "== deterministic simulation (100-seed fault-sweep throughput) =="
# Asserts the PR acceptance floor internally: 100 seeded fault
# schedules over the simulated 5-node evb mesh in < 10 s wall, zero
# event loss on every seed, and a byte-identical golden-trace replay.
cargo run -p xdaq-bench --release --bin sim_sweeps -- \
    --json results/BENCH_pr10.json

if [[ "${1:-}" == "--all" ]]; then
    echo "== paper harnesses =="
    cargo run -p xdaq-bench --release --bin fig6
    cargo run -p xdaq-bench --release --bin ptmode
fi

echo "bench: done (see results/)"
