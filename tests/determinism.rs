//! Scheduler-determinism: the adjoint convolution must produce the same
//! grid no matter how many workers run it or how the OS interleaves them.
//!
//! This is the paper's §III-B correctness story made testable: the
//! task-dependency graph serializes every pair of halo-sharing (adjacent)
//! tasks in a fixed order, and selective privatization defers a task's
//! shared-grid reduction behind the same edges — so floating-point sums at
//! every grid cell accumulate in a schedule-independent order. With the
//! partition layout pinned (`partitions_per_dim`), the grid must be
//! **bit-identical** across 1, 2 and 4 workers, both queue policies, and
//! privatization on/off.

use nufft::core::{NufftConfig, NufftPlan};
use nufft::math::Complex32;
use nufft::parallel::graph::QueuePolicy;
use nufft_testkit::Rng;

fn seeded_problem(count: usize, seed: u64) -> (Vec<[f64; 3]>, Vec<Complex32>) {
    let mut rng = Rng::seed_from_u64(seed);
    let traj = rng.gen_points::<3>(count, -0.5..0.4999);
    let samples = rng.gen_c32_vec(count, 1.0);
    (traj, samples)
}

fn adjoint_grid(
    traj: &[[f64; 3]],
    samples: &[Complex32],
    threads: usize,
    policy: QueuePolicy,
    privatization: bool,
) -> Vec<Complex32> {
    let n = [12usize, 12, 12];
    let cfg = NufftConfig {
        threads,
        w: 3.0,
        policy,
        privatization,
        // Pin the task decomposition so only the *schedule* varies with the
        // worker count, not the partition layout.
        partitions_per_dim: Some(4),
        ..NufftConfig::default()
    };
    let mut plan = NufftPlan::new(n, traj, cfg);
    let mut grid = vec![Complex32::ZERO; 12 * 12 * 12];
    plan.adjoint(samples, &mut grid);
    grid
}

fn assert_bit_identical(a: &[Complex32], b: &[Complex32], what: &str) {
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert!(
            p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits(),
            "{what}: grid cell {i} differs: {p:?} vs {q:?}"
        );
    }
}

#[test]
fn adjoint_grid_is_bitwise_stable_across_worker_counts() {
    let (traj, samples) = seeded_problem(900, 0xDE7E_0001);
    for policy in [QueuePolicy::Priority, QueuePolicy::Fifo] {
        for privatization in [true, false] {
            let reference = adjoint_grid(&traj, &samples, 1, policy, privatization);
            for threads in [2usize, 4] {
                let got = adjoint_grid(&traj, &samples, threads, policy, privatization);
                assert_bit_identical(
                    &reference,
                    &got,
                    &format!("{policy:?}/privatization={privatization}/threads={threads}"),
                );
            }
        }
    }
}

/// Re-running the *same* multi-worker configuration several times must also
/// be stable: this catches schedule-dependent summation that a single
/// 1-vs-N comparison could miss by luck.
#[test]
fn adjoint_grid_is_stable_across_repeated_racy_runs() {
    let (traj, samples) = seeded_problem(1200, 0xDE7E_0002);
    let reference = adjoint_grid(&traj, &samples, 4, QueuePolicy::Priority, true);
    for run in 0..4 {
        let got = adjoint_grid(&traj, &samples, 4, QueuePolicy::Priority, true);
        assert_bit_identical(&reference, &got, &format!("repeat run {run}"));
    }
}

/// Repeated applies on a *reused* plan — and hence a reused persistent
/// worker pool — must match a fresh plan bit-for-bit: the pool carries no
/// state across applies (grids are re-zeroed, private buffers refilled,
/// shards drained to empty at quiescence).
#[test]
fn repeated_applies_on_a_reused_pool_match_a_fresh_plan() {
    let (traj, samples) = seeded_problem(1000, 0xDE7E_0004);
    let n = [12usize, 12, 12];
    for threads in [1usize, 2, 4] {
        let cfg = NufftConfig {
            threads,
            w: 3.0,
            policy: QueuePolicy::Priority,
            privatization: true,
            partitions_per_dim: Some(4),
            ..NufftConfig::default()
        };
        let fresh = adjoint_grid(&traj, &samples, threads, QueuePolicy::Priority, true);
        let mut reused = NufftPlan::new(n, &traj, cfg);
        for apply in 0..3 {
            let mut grid = vec![Complex32::ZERO; 12 * 12 * 12];
            reused.adjoint(&samples, &mut grid);
            assert_bit_identical(
                &fresh,
                &grid,
                &format!("threads={threads}, reused-pool apply {apply}"),
            );
        }
    }
}

/// The privatized-convolution partial results (per-task private buffers)
/// must reduce into the same grid the non-privatized path writes — the
/// privatization protocol only changes *when* work happens, never *what*
/// is summed. f32 summation order differs between the two paths, so this
/// comparison uses a tight relative tolerance rather than bits.
#[test]
fn privatization_changes_schedule_not_result() {
    let (traj, samples) = seeded_problem(800, 0xDE7E_0003);
    let with = adjoint_grid(&traj, &samples, 4, QueuePolicy::Priority, true);
    let without = adjoint_grid(&traj, &samples, 4, QueuePolicy::Priority, false);
    let err = nufft::math::error::rel_l2_c32(&with, &without);
    assert!(err < 1e-5, "privatized vs direct adjoint diverged by {err}");
}
