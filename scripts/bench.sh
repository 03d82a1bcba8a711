#!/usr/bin/env bash
# Runs the FFT, operator, and runtime benchmarks. JSON summaries land at
# the repo root, each written by its bench binary:
#   BENCH_fft.json     — FFT execution-path sweep (crates/bench/benches/fft.rs)
#   BENCH_fourstep.json— four-step vs recursive FFT decomposition: 1D
#                        axis-length crossover sweep + strategy-forced A/B
#                        on 256²/512²/64³/128³ grids with an Auto arm
#                        (crates/bench/benches/fourstep.rs)
#   BENCH_windows.json — precomputed window table vs on-the-fly Part 1
#                        (crates/bench/benches/windows.rs)
#   BENCH_service.json — multi-tenant registry/service throughput and
#                        request-latency quantiles at 1–16 tenants
#                        (crates/bench/benches/service.rs)
#   BENCH_sort.json    — plan-time bin sort vs unsorted sample layout over
#                        clustered/random/shuffled/radial trajectories
#                        (crates/bench/benches/sort.rs)
#   BENCH_type3.json   — native type-3 apply vs the composed type-2∘type-1
#                        baseline on shared fine grids (~32²/192²/64³)
#                        (crates/bench/benches/type3.rs)
#   BENCH_kernels.json — matched-accuracy ES-vs-KB kernel A/B at
#                        eps ∈ {1e-2, 1e-4, 1e-6}: per-apply medians,
#                        planned half-widths, hot-table bytes
#                        (crates/bench/benches/kernels.rs)
# The convolution bench (crates/bench/benches/convolution.rs) writes no
# summary JSON: it prints per-ISA row-kernel times and the per-sample
# 2D/3D scatter/gather time of the row path (below AVX2) and the box path
# (AVX2+FMA), and appends them to results/benchmarks.jsonl.
#
# Usage: scripts/bench.sh [--quick]
#   --quick   smoke mode (NUFFT_BENCH_FAST=1): minimal warmup and samples,
#             for CI; the numbers are not meaningful, only that every arm
#             runs and the summary is produced.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--quick" ]]; then
    export NUFFT_BENCH_FAST=1
    echo "== quick (smoke) mode: NUFFT_BENCH_FAST=1 =="
fi

echo "== bench: fft (1D lengths + strided-axis per-line vs batched sweep) =="
cargo bench --offline --bench fft

echo "== bench: fourstep (recursive→four-step crossover + forced A/B) =="
cargo bench --offline --bench fourstep

echo "== bench: operators =="
cargo bench --offline --bench operators

echo "== bench: windows (precomputed table vs on-the-fly Part 1) =="
cargo bench --offline --bench windows

echo "== bench: service (multi-tenant req/s + p50/p99 at 1-16 tenants) =="
cargo bench --offline --bench service

echo "== bench: sort (bin-sorted vs unsorted sample layout) =="
cargo bench --offline --bench sort

echo "== bench: type3 (native vs composed type-2∘type-1 baseline) =="
cargo bench --offline --bench type3

echo "== bench: kernels (matched-accuracy ES vs Kaiser-Bessel A/B) =="
cargo bench --offline --bench kernels

echo "== bench: convolution (row kernels + per-sample row vs box path, per ISA) =="
cargo bench --offline --bench convolution

echo "== BENCH_fft.json =="
cat BENCH_fft.json

echo "== BENCH_fourstep.json =="
cat BENCH_fourstep.json

echo "== BENCH_windows.json =="
cat BENCH_windows.json

echo "== BENCH_service.json =="
cat BENCH_service.json

echo "== BENCH_sort.json =="
cat BENCH_sort.json

echo "== BENCH_type3.json =="
cat BENCH_type3.json

echo "== BENCH_kernels.json =="
cat BENCH_kernels.json
