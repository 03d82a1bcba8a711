#!/usr/bin/env bash
# Tier-1 gate: hermetic build + full test suite, no network, no crates.io,
# plus formatting, lint, and a benchmark smoke run.
#
# The workspace has zero external dependencies (see crates/testkit), so
# `--offline` must always succeed from a clean checkout. Treat any attempt
# to reach a registry as a regression.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt check =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "rustfmt not installed; skipping"
fi

echo "== build (release, offline, all targets) =="
cargo build --release --offline --all-targets

echo "== test (offline) =="
cargo test -q --offline

echo "== parallel stress (oversubscribed, 16 workers) =="
# The steal_stress suite widens the schedule space with randomized per-task
# delays; 16 workers oversubscribe the runner so parking/stealing paths get
# exercised under real preemption.
NUFFT_THREADS=16 cargo test -q --offline -p nufft-parallel

echo "== multi-tenant job isolation stress (oversubscribed, 16 workers) =="
# Concurrently submitted DAG jobs (expanded task graphs among them) on one
# shared pool: exactly-once execution, no cross-job tag leakage, and
# per-job stats harvested at per-job quiescence, all under randomized
# seed-replayable delays.
NUFFT_THREADS=16 cargo test -q --offline -p nufft-parallel --test job_isolation_stress

echo "== plan registry and service =="
# One pool holds both transform kinds behind one lock: the registry's unit
# tests pin key separation, the idle cap, window-table sharing and the
# check-in on a panicking request's unwind; concurrent_submit pins
# type-1/2, spread-only and type-3 tenants bitwise to their solo runs on
# one registry. The second run oversubscribes the runner with 16 workers.
cargo test -q --offline -p nufft-core registry
cargo test -q --offline --test concurrent_submit
NUFFT_THREADS=16 cargo test -q --offline --test concurrent_submit

echo "== fused-DAG stress (oversubscribed, 16 workers) =="
# scheduler_consistency holds the executor-vs-simulator scheduling tests and
# the fused-DAG simulated-dominance check on real plans' graphs; its
# executor-side tests take their worker count from NUFFT_THREADS, so 16
# workers oversubscribe the runner and the DAG runner executes the expanded
# task graphs under real preemption.
NUFFT_THREADS=16 cargo test -q --offline --test scheduler_consistency

echo "== four-step FFT strategy stress (oversubscribed, 16 workers) =="
# fourstep_modes pins forced-four-step == recursive bitwise across ISA
# levels, thread counts and mixed-radix/Bluestein axis lengths; 16 workers
# oversubscribe the runner so the sub-FFT/transpose shard nodes of the
# fused DAG race for real.
NUFFT_THREADS=16 cargo test -q --offline --test fourstep_modes

echo "== sort-mode equality stress (oversubscribed, 16 workers) =="
# sorted-vs-unsorted bitwise equality across ISA levels, thread counts and
# all four operators; 16 workers oversubscribe the runner so the
# canonical-visit-order rule holds under real preemption.
NUFFT_THREADS=16 cargo test -q --offline -p nufft-core --test sort_modes

echo "== type-3 consistency stress (oversubscribed, 16 workers) =="
# type3_modes pins pinned-layout cross-thread determinism and repeated-run
# stability for the type-3 pipeline (outer spread -> inner type-2 ->
# postscale); 16 workers oversubscribe the runner so the outer stage
# drivers and the inner fused graphs race for real.
NUFFT_THREADS=16 cargo test -q --offline --test type3_modes

echo "== zero-aware FFT passes stress (oversubscribed, 16 workers) =="
# fft_pruning's stress test re-runs pruned fused graphs (recursive and
# four-step) with 16 workers oversubscribing the runner, so the slab ->
# later-axis edges of skipped forward tiles race for real.
NUFFT_THREADS=16 cargo test -q --offline --test fft_pruning

echo "== stage-graph composition contracts =="
# stage_ops pins that the public SpreadOp/InterpOp/FftOp/DeconvOp stages
# compose bitwise into the fused forward/adjoint operators, and that the
# standalone spread_only/interp_only entry points are those stages. The
# second run oversubscribes the runner with 16 workers in the standalone
# spread's cross-worker-count determinism check.
cargo test -q --offline --test stage_ops
NUFFT_THREADS=16 cargo test -q --offline --test stage_ops

echo "== zero-aware FFT passes =="
# fft_pruning pins forward/adjoint/forward_batch/adjoint_batch, whose FFT
# skips the tiles the embed leaves zero and the extract never reads, to the
# stage composition through a full FftOp::apply, bitwise, across D, even
# and odd extents, alpha, FFT strategy, ISA level, threads and channels; it
# also pins the exact tile counts at AVX2.
cargo test -q --offline --test fft_pruning

echo "== fused-graph wiring =="
# nufft-core's fused tests pin the run walks that wire the fused DAGs to
# the per-element reference walk they replaced (identical Dag: tags,
# weights, priorities, successor lists) across rank, extent kind, alpha,
# FFT strategy, worker count, channels, privatization and kernel width,
# and check every read against its last writer. conv_kernels' Part 1 test
# pins the LUT window rows (AVX2 gathers) bitwise to StrictScalar at tap
# counts 1..=17.
cargo test -q --offline -p nufft-core fused
cargo test -q --offline -p nufft-core --test conv_kernels part1_lut_windows

echo "== Toeplitz CG-SENSE =="
# IterativeRecon's normal operator is the multi-coil Toeplitz embedding
# (a 2N-grid FFT round trip per coil on the plan's pool): nufft-mri pins it
# against the explicit sum of S_c* A* D A S_c (2D/3D, 1 and 4 coils,
# alpha 2 and 1.25), CG on it against explicit-operator CG, and solves
# bitwise across repeats and worker counts; recon_pipeline runs phantom ->
# acquisition -> CG-SENSE end to end. The second pair oversubscribes the
# runner with 16 workers.
cargo test -q --offline -p nufft-mri
cargo test -q --offline --test recon_pipeline
NUFFT_THREADS=16 cargo test -q --offline -p nufft-mri
NUFFT_THREADS=16 cargo test -q --offline --test recon_pipeline

echo "== examples smoke (spread-only deposition pipeline) =="
# density_estimation drives spread_only/interp_only directly and asserts
# that its deposit, through a full backward FFT and the extract, equals the
# fused adjoint bitwise, plus the transpose dot-test.
cargo run --release --offline --example density_estimation >/dev/null

echo "== kernel-family determinism matrix (ES Horner vs KB LUT) =="
# kernel_families pins per-ISA bitwise equality of forward/adjoint with the
# stage composition for both families, cross-ISA bitwise identity of Part 1
# windows (the ES Horner evaluator's own contract), and the ES 3D
# cross-worker-count guarantee.
cargo test -q --offline -p nufft-core --test kernel_families

echo "== tolerance-driven planning accuracy =="
# tolerance checks eps -> (family, W, sigma) plans against the direct DTFT
# oracle at eps in {1e-2, 1e-4, 1e-6} for ES and KB in 1D/2D/3D, plus the
# type-3 tolerance entry point.
cargo test -q --offline -p nufft --test tolerance

echo "== tolerance stress (oversubscribed, 16 workers) =="
# The same accuracy sweep with 16 workers oversubscribing the runner: the
# tolerance-planned ES Horner path must hold its budgets under real
# preemption and arbitrary work interleavings.
NUFFT_THREADS=16 cargo test -q --offline -p nufft --test tolerance

echo "== convolution-engine contracts (allocation-free applies, window modes) =="
# Named runs so a regression names the broken contract, not just "a test".
# window_modes covers bitwise table-vs-fly equality across ISA levels and
# thread counts plus the oversized-W construction-time validation;
# alloc_steady_state pins the zero-allocation apply path with a counting
# global allocator.
cargo test -q --offline -p nufft-core --test window_modes
cargo test -q --offline -p nufft --test alloc_steady_state

echo "== per-sample convolution kernels =="
# conv_kernels pins the AVX2 box path (one nufft_simd::boxes call per 2D/3D
# sample) against the row path for tap counts 1..=17, global and privatized
# scatter, with signalling-NaN canaries around every box: masked tails must
# neither read nor write outside it. It also pins forward_gather2 bitwise
# to two forward_gather calls at every ISA level.
cargo test -q --offline -p nufft-core --test conv_kernels

echo "== FFT column kernels and packed contiguous axis =="
# nufft-fft pins each plain column kernel (radix 2/3/4/5, every ISA
# override, lane counts 1..=9 for vector bodies and tails) bitwise to the
# scalar combine it replaces, the batched path (packed contiguous runs,
# leftover lines, gappy tile lists, Bluestein axes) bitwise to the per-line
# path, and four-step bitwise to recursive.
cargo test -q --offline -p nufft-fft

echo "== clippy (deny warnings) =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "clippy not installed; skipping"
fi

echo "== rustdoc (deny warnings) =="
# Broken or private intra-doc links fail the build rather than rendering
# as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== bench smoke (every bench, fast mode) =="
# The smoke run's summaries go to results/; the measured BENCH_*.json files
# committed at the repo root must come out of it byte-for-byte unchanged.
before=$(cksum BENCH_*.json)
scripts/bench.sh --quick
after=$(cksum BENCH_*.json)
if [[ "$before" != "$after" ]]; then
    echo "bench smoke run modified committed BENCH_*.json files:" >&2
    diff <(echo "$before") <(echo "$after") >&2 || true
    exit 1
fi

echo "CI OK"
