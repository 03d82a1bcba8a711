//! Steady-state operator applies must perform **zero heap allocations**.
//!
//! An iterative solver applies the same forward/adjoint operators hundreds
//! of times; the plan hoists every per-apply allocation into construction
//! or first-use warmup (graph run state in the fused graphs' and the
//! spread stage's `DagScratch`, the synthesized `last_run_stats`, FFT tile
//! scratch in a `WorkerLocal` arena, pointer staging in reusable plan
//! vectors, lazily-built FFT twiddle tables). This test pins that contract
//! with a counting global allocator: after a warmup apply of each
//! operator and stage entry point, further applies must not touch the
//! allocator at all — in both window modes, with the parallel
//! persistent-pool executor running — and so must the Toeplitz normal
//! operator every CG-SENSE iteration runs.
//!
//! One test function only: the global allocator counts process-wide, so
//! concurrent tests would bleed counts into each other.

use nufft::core::{NufftConfig, NufftPlan, SortMode, WindowMode};
use nufft::fft::FftStrategy;
use nufft::math::Complex32;
use nufft_testkit::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn traj3(count: usize) -> Vec<[f64; 3]> {
    (0..count)
        .map(|i| {
            [
                ((i as f64 * 0.618) % 1.0) - 0.5,
                ((i as f64 * 0.414) % 1.0) - 0.5,
                ((i as f64 * 0.732) % 1.0) - 0.5,
            ]
        })
        .collect()
}

fn signal(n: usize, phase: f32) -> Vec<Complex32> {
    (0..n)
        .map(|i| Complex32::new((i as f32 * 0.11 + phase).sin(), (i as f32 * 0.05).cos()))
        .collect()
}

/// Applies every operator and stage entry point once, reading
/// `last_run_stats` after each scatter (the warmup fills lazily-built FFT
/// tables, grows scratch vectors to capacity, and spins up pool workers).
#[allow(clippy::too_many_arguments)]
fn apply_all(
    plan: &mut NufftPlan<3>,
    image: &[Complex32],
    samples: &[Complex32],
    images: &[Vec<Complex32>],
    datas: &[Vec<Complex32>],
    out_samples: &mut [Complex32],
    out_image: &mut [Complex32],
    bout_samples: &mut [Vec<Complex32>],
    bout_images: &mut [Vec<Complex32>],
    grid: &mut [Complex32],
) {
    plan.forward(image, out_samples);
    plan.adjoint(samples, out_image);
    std::hint::black_box(plan.last_run_stats().map(|s| s.makespan));
    plan.spread_only(samples, grid);
    std::hint::black_box(plan.last_run_stats().map(|s| s.makespan));
    plan.interp_only(grid, out_samples);
    // Stack-array channel refs: the harness itself must not allocate in
    // the measured region.
    {
        let image_refs: [&[Complex32]; 2] = [&images[0], &images[1]];
        let (s0, rest) = bout_samples.split_first_mut().unwrap();
        let mut refs: [&mut [Complex32]; 2] = [s0.as_mut_slice(), rest[0].as_mut_slice()];
        plan.forward_batch(&image_refs, &mut refs);
    }
    {
        let data_refs: [&[Complex32]; 2] = [&datas[0], &datas[1]];
        let (i0, rest) = bout_images.split_first_mut().unwrap();
        let mut refs: [&mut [Complex32]; 2] = [i0.as_mut_slice(), rest[0].as_mut_slice()];
        plan.adjoint_batch(&data_refs, &mut refs);
    }
    std::hint::black_box(plan.last_run_stats().map(|s| s.makespan));
}

#[test]
fn steady_state_applies_are_allocation_free() {
    let n = [12usize, 12, 12];
    let img_len = 12 * 12 * 12;
    let traj = traj3(600);
    let k = traj.len();
    let channels = 2usize;

    let image = signal(img_len, 0.0);
    let samples = signal(k, 1.0);
    let images: Vec<Vec<Complex32>> = (0..channels).map(|c| signal(img_len, c as f32)).collect();
    let datas: Vec<Vec<Complex32>> = (0..channels).map(|c| signal(k, 2.0 + c as f32)).collect();
    let mut out_samples = vec![Complex32::ZERO; k];
    let mut out_image = vec![Complex32::ZERO; img_len];
    let mut bout_samples = vec![vec![Complex32::ZERO; k]; channels];
    let mut bout_images = vec![vec![Complex32::ZERO; img_len]; channels];

    // The fused graphs' DAG scratch (ready-queue shards, pred counters,
    // span records) is plan-owned and sized for the worst case in
    // `prepare`, and so is the spread stage's own.
    // The sort dimension rides along: the bin-sort permutation (and the
    // unsorted mode's canonical-scan indirection) are built entirely at
    // plan time, so both layouts must be invisible to the allocator at
    // apply time.
    // The FFT-strategy dimension too: a forced-four-step plan owns its
    // transpose scratch (`fs`, one grid-sized slot per four-step axis,
    // grown once per channel count in `ensure_fused`'s warmup), so the
    // two-pass sub-FFT/combine applies must be exactly as allocation-free
    // as the recursive path.
    for mode in [WindowMode::OnTheFly, WindowMode::Precomputed] {
        for sort in [SortMode::TileMajor, SortMode::None] {
            // Strategy paired with the sort axis (not a third nested
            // loop) keeps the combination count at 4 while still
            // exercising four-step under both window modes.
            let strategy = if sort == SortMode::TileMajor {
                FftStrategy::FourStep
            } else {
                FftStrategy::Recursive
            };
            let cfg = NufftConfig {
                threads: 2,
                w: 3.0,
                partitions_per_dim: Some(4),
                window_mode: mode,
                sort,
                fft_strategy: strategy,
                ..NufftConfig::default()
            };
            let mut plan = NufftPlan::new(n, &traj, cfg);
            let mut grid = vec![Complex32::ZERO; plan.grid_len()];

            // Warmup: note-taking allocations (FFT tables via OnceLock,
            // scratch capacity growth, pool worker spawn, batch grids)
            // happen here. The batch calls run twice so every reusable
            // vector reaches its steady-state capacity before measurement.
            for _ in 0..2 {
                apply_all(
                    &mut plan,
                    &image,
                    &samples,
                    &images,
                    &datas,
                    &mut out_samples,
                    &mut out_image,
                    &mut bout_samples,
                    &mut bout_images,
                    &mut grid,
                );
            }

            let before = ALLOC.snapshot();
            for _ in 0..3 {
                apply_all(
                    &mut plan,
                    &image,
                    &samples,
                    &images,
                    &datas,
                    &mut out_samples,
                    &mut out_image,
                    &mut bout_samples,
                    &mut bout_images,
                    &mut grid,
                );
            }
            let delta = ALLOC.snapshot().since(&before);
            assert_eq!(
                delta.allocs, 0,
                "{mode:?}/{sort:?}: steady-state applies allocated {} times ({} bytes, {} frees)",
                delta.allocs, delta.bytes, delta.deallocs
            );
            assert_eq!(delta.deallocs, 0, "{mode:?}/{sort:?}: steady-state applies freed memory");
        }
    }

    // Registry cache hits must hold the same contract: a checkout that
    // reuses a pooled instance (hash the key, pop the idle vector, apply,
    // push it back on drop) may not touch the allocator either — the
    // multi-tenant service sits on this path for every warm request.
    let cfg = NufftConfig {
        threads: 2,
        w: 3.0,
        partitions_per_dim: Some(4),
        window_mode: WindowMode::Precomputed,
        ..NufftConfig::default()
    };
    let registry = nufft::core::PlanRegistry::<3>::new(cfg);
    // Warmup: the miss builds the plan, the first check-in grows the idle
    // vector and the key's map entry, and two full rounds bring every
    // plan-internal scratch vector to steady-state capacity.
    for _ in 0..2 {
        let mut lease = registry.checkout(n, &traj);
        lease.forward(&image, &mut out_samples);
        lease.adjoint(&samples, &mut out_image);
    }

    let before = ALLOC.snapshot();
    for _ in 0..3 {
        let mut lease = registry.checkout(n, &traj);
        lease.forward(&image, &mut out_samples);
        lease.adjoint(&samples, &mut out_image);
    }
    let delta = ALLOC.snapshot().since(&before);
    assert_eq!(
        delta.allocs, 0,
        "registry cache-hit applies allocated {} times ({} bytes, {} frees)",
        delta.allocs, delta.bytes, delta.deallocs
    );
    assert_eq!(delta.deallocs, 0, "registry cache-hit applies freed memory");
    let stats = registry.stats();
    assert_eq!(stats.misses, 1, "one cold build only");
    assert_eq!(stats.hits, 4, "warm checkouts all hit the cache");

    // A tolerance-built ES plan holds the same contract: the Horner
    // coefficient table and the Fourier-transform quadrature tabulation
    // are fitted once at plan-build time, so tolerance-driven applies are
    // exactly as allocation-free as explicit-parameter ones. (Plain plan,
    // not a registry checkout, so the registry stats assertions above and
    // below keep their exact miss/hit counts.)
    {
        let cfg = NufftConfig { threads: 2, partitions_per_dim: Some(4), ..NufftConfig::default() };
        let mut plan = NufftPlan::new(n, &traj, cfg.with_tolerance(1e-6));
        for _ in 0..2 {
            plan.forward(&image, &mut out_samples);
            plan.adjoint(&samples, &mut out_image);
        }
        let before = ALLOC.snapshot();
        for _ in 0..3 {
            plan.forward(&image, &mut out_samples);
            plan.adjoint(&samples, &mut out_image);
        }
        let delta = ALLOC.snapshot().since(&before);
        assert_eq!(
            delta.allocs, 0,
            "ES tolerance-plan applies allocated {} times ({} bytes)",
            delta.allocs, delta.bytes
        );
        assert_eq!(delta.deallocs, 0, "ES tolerance-plan applies freed memory");
    }

    // Type-3 applies: the fine grid, the inner type-2's buffers, the
    // adjoint staging vector and the postscale table are all plan-owned,
    // so forward and adjoint must go quiet after one warmup round — for a
    // directly-built plan and through the registry's type-3 pool alike.
    let sources: Vec<[f64; 3]> =
        traj3(200).into_iter().map(|p| [p[0] * 4.0, p[1] * 4.0, p[2] * 4.0]).collect();
    let targets: Vec<[f64; 3]> =
        traj3(150).into_iter().map(|p| [p[0] * 3.0, p[1] * 3.0, p[2] * 3.0]).collect();
    let strengths = signal(sources.len(), 4.0);
    let t3_samples = signal(targets.len(), 5.0);
    let mut t3_fwd = vec![Complex32::ZERO; targets.len()];
    let mut t3_adj = vec![Complex32::ZERO; sources.len()];

    let t3_cfg =
        NufftConfig { threads: 2, w: 3.0, partitions_per_dim: Some(4), ..NufftConfig::default() };
    let mut t3 = nufft::core::Type3Plan::new(&sources, &targets, t3_cfg);
    for _ in 0..2 {
        t3.forward(&strengths, &mut t3_fwd);
        t3.adjoint(&t3_samples, &mut t3_adj);
    }
    let before = ALLOC.snapshot();
    for _ in 0..3 {
        t3.forward(&strengths, &mut t3_fwd);
        t3.adjoint(&t3_samples, &mut t3_adj);
    }
    let delta = ALLOC.snapshot().since(&before);
    assert_eq!(
        delta.allocs, 0,
        "steady-state type-3 applies allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
    assert_eq!(delta.deallocs, 0, "steady-state type-3 applies freed memory");

    // Warm type-3 registry checkouts: hash the key (stack FNV over the
    // coordinate slices), pop the pool, apply, push back on drop.
    for _ in 0..2 {
        let mut lease = registry.checkout_type3(&sources, &targets);
        lease.forward(&strengths, &mut t3_fwd);
        lease.adjoint(&t3_samples, &mut t3_adj);
    }
    let before = ALLOC.snapshot();
    for _ in 0..3 {
        let mut lease = registry.checkout_type3(&sources, &targets);
        lease.forward(&strengths, &mut t3_fwd);
        lease.adjoint(&t3_samples, &mut t3_adj);
    }
    let delta = ALLOC.snapshot().since(&before);
    assert_eq!(
        delta.allocs, 0,
        "type-3 registry cache-hit applies allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
    assert_eq!(delta.deallocs, 0, "type-3 registry cache-hit applies freed memory");
    let stats = registry.stats();
    assert_eq!(stats.misses, 2, "one type-1/2 build plus one type-3 build");
    assert_eq!(stats.hits, 8, "all warm checkouts of both kinds hit");

    // The Toeplitz normal operator CG-SENSE runs: its pad, eigenvalues and
    // banded-FFT scratch are operator-owned and its elementwise passes run
    // on the plan's pool, so multi-coil and single-coil applies go quiet
    // after one warmup round — every CG iteration is allocation-free.
    {
        let cfg = NufftConfig {
            threads: 2,
            w: 3.0,
            partitions_per_dim: Some(4),
            ..NufftConfig::default()
        };
        let plan = NufftPlan::new(n, &traj, cfg);
        let coils: Vec<Vec<Complex32>> = (0..3).map(|c| signal(img_len, 6.0 + c as f32)).collect();
        let mut toep = nufft::mri::ToeplitzNormal::new(&plan, &vec![0.5f32; k]);
        let mut round = |out: &mut [Complex32]| {
            toep.apply(&coils, &image, out);
            toep.apply(&[], &image, out);
        };
        for _ in 0..2 {
            round(&mut out_image);
        }
        let before = ALLOC.snapshot();
        for _ in 0..3 {
            round(&mut out_image);
        }
        let delta = ALLOC.snapshot().since(&before);
        assert_eq!(
            delta.allocs, 0,
            "steady-state Toeplitz applies allocated {} times ({} bytes)",
            delta.allocs, delta.bytes
        );
        assert_eq!(delta.deallocs, 0, "steady-state Toeplitz applies freed memory");
    }
}
