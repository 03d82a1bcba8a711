//! Type-3 execution-matrix consistency: 1/2/4/16-thread runs and repeated
//! runs must all produce bitwise-identical output — the backing for the
//! `NUFFT_THREADS=16` stress step in `scripts/ci.sh`.
//!
//! Every constituent stage is individually deterministic (canonical
//! tile-major scatter ordering, pure gathers, exclusion-edge-ordered
//! fused DAGs), so their composition must be too; this pins it. The inner
//! type-2 operator is a `NufftPlan`, pinned bitwise to its stage
//! composition by `tests/fft_pruning.rs`.

use nufft::core::{NufftConfig, Type3Plan};
use nufft::math::Complex32;
use nufft::traj::generators::{cloud, clustered_cloud};
use nufft_testkit::Rng;

fn threads_env_or(default: usize) -> usize {
    std::env::var("NUFFT_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn assert_bitwise(a: &[Complex32], b: &[Complex32], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re bits differ at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im bits differ at {i}");
    }
}

#[allow(clippy::type_complexity)]
fn problem(
    num_sources: usize,
    num_targets: usize,
    seed: u64,
) -> (Vec<[f64; 2]>, Vec<[f64; 2]>, Vec<Complex32>, Vec<Complex32>) {
    let sources: Vec<[f64; 2]> = clustered_cloud(num_sources, 4, 3.5, 0.3, seed);
    let targets: Vec<[f64; 2]> = cloud(num_targets, 2.2, seed ^ 0x1234);
    let strengths = Rng::seed_from_u64(seed ^ 0xAA).gen_c32_vec(num_sources, 1.0);
    let samples = Rng::seed_from_u64(seed ^ 0xBB).gen_c32_vec(num_targets, 1.0);
    (sources, targets, strengths, samples)
}

fn run_both(
    sources: &[[f64; 2]],
    targets: &[[f64; 2]],
    strengths: &[Complex32],
    samples: &[Complex32],
    threads: usize,
    privatization: bool,
) -> (Vec<Complex32>, Vec<Complex32>) {
    // Pin the task decomposition (as `tests/determinism.rs` does) so only
    // the schedule varies with the worker count, not the partition layout.
    let cfg = NufftConfig {
        threads,
        w: 3.0,
        partitions_per_dim: Some(4),
        privatization,
        ..NufftConfig::default()
    };
    let mut plan = Type3Plan::new(sources, targets, cfg);
    let mut fwd = vec![Complex32::ZERO; targets.len()];
    let mut adj = vec![Complex32::ZERO; sources.len()];
    // Two rounds so warm-path (post-first-apply) output is covered too.
    for _ in 0..2 {
        plan.forward(strengths, &mut fwd);
        plan.adjoint(samples, &mut adj);
    }
    (fwd, adj)
}

/// Output is invariant across thread counts (1 vs 2 vs 4 vs the
/// `NUFFT_THREADS` stress count).
///
/// Like `tests/determinism.rs`, the *layout* must be pinned for bitwise
/// cross-thread identity: partitions via `partitions_per_dim`, and
/// privatization off — the selective-privatization threshold (Eq. 6,
/// `M/(P·2^{d+1})`) scales with the worker count by design, so leaving it
/// on changes which tasks pre-accumulate into private tiles and thereby
/// the rounding of per-cell segment sums. With the layout pinned, only the
/// schedule varies, and the exclusion-edge ordering makes that invisible.
#[test]
fn type3_is_deterministic_across_thread_counts() {
    let (sources, targets, strengths, samples) = problem(280, 190, 77);
    let (f1, a1) = run_both(&sources, &targets, &strengths, &samples, 1, false);
    for threads in [2usize, 4, threads_env_or(4)] {
        let (ft, at) = run_both(&sources, &targets, &strengths, &samples, threads, false);
        assert_bitwise(&f1, &ft, &format!("forward {threads} threads vs 1"));
        assert_bitwise(&a1, &at, &format!("adjoint {threads} threads vs 1"));
    }
}

/// Re-running the same multi-worker configuration (privatization on, the
/// default layout) must be stable run-to-run — schedule-independence at a
/// fixed thread count, the property the `NUFFT_THREADS=16` CI stress
/// oversubscribes.
#[test]
fn type3_is_stable_across_repeated_runs() {
    let (sources, targets, strengths, samples) = problem(260, 180, 55);
    let threads = threads_env_or(4);
    let (f0, a0) = run_both(&sources, &targets, &strengths, &samples, threads, true);
    for rep in 0..3 {
        let (f, a) = run_both(&sources, &targets, &strengths, &samples, threads, true);
        assert_bitwise(&f0, &f, &format!("forward repeat {rep}"));
        assert_bitwise(&a0, &a, &format!("adjoint repeat {rep}"));
    }
}
