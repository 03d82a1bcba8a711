//! End-to-end operator benchmarks: full forward/adjoint NUFFT on a small
//! radial problem, the preprocessing pipeline, the gridding baseline, and
//! the fused-graph builds a plan's first apply per direction and channel
//! count pays. Runs on the `nufft-testkit` harness.

use nufft_baselines::sequential::SequentialNufft;
use nufft_core::{NufftConfig, NufftPlan};
use nufft_math::Complex32;
use nufft_testkit::bench::BenchGroup;
use nufft_traj::generators::{radial, radial_2d, random};
use std::time::Duration;

fn main() {
    let n = 32usize;
    let traj = radial(64, 256, 5); // 16k samples on a 64³ grid
    let cfg = NufftConfig { threads: 1, w: 4.0, ..NufftConfig::default() };
    let mut plan = NufftPlan::new([n; 3], &traj.points, cfg);
    let image: Vec<Complex32> =
        (0..n * n * n).map(|i| Complex32::new((i % 31) as f32 * 0.1, 0.2)).collect();
    let samples: Vec<Complex32> =
        (0..traj.len()).map(|i| Complex32::new(1.0, i as f32 * 1e-4)).collect();
    let mut s_out = vec![Complex32::ZERO; traj.len()];
    let mut i_out = vec![Complex32::ZERO; n * n * n];

    let mut g = BenchGroup::new("nufft_32cubed_16k");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    g.throughput(traj.len() as u64);
    g.bench_function("forward", |b| b.iter(|| plan.forward(&image, &mut s_out)));
    g.bench_function("adjoint", |b| b.iter(|| plan.adjoint(&samples, &mut i_out)));
    g.bench_function("adjoint_conv_only", |b| b.iter(|| plan.adjoint_convolution_only(&samples)));

    let mut seq = SequentialNufft::new([n; 3], &traj.points, 2.0, 4.0);
    g.bench_function("adjoint_sequential_baseline", |b| {
        b.iter(|| seq.adjoint(&samples, &mut i_out))
    });
    g.finish();

    let mut g = BenchGroup::new("preprocessing");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    g.throughput(traj.len() as u64);
    g.bench_function("plan_build_16k_samples", |b| {
        b.iter(|| NufftPlan::new([n; 3], &traj.points, cfg))
    });
    g.finish();

    // Normal-operator application: explicit forward+adjoint pair vs the
    // Toeplitz circulant embedding (the iterative-recon fast path).
    let mut g = BenchGroup::new("normal_operator");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let weights = vec![1.0f32; traj.len()];
    let mut toep = nufft_mri::ToeplitzNormal::new(&plan, &weights);
    let mut tmp_k = vec![Complex32::ZERO; traj.len()];
    let mut out_img = vec![Complex32::ZERO; n * n * n];
    g.bench_function("explicit_fwd_adj", |b| {
        b.iter(|| {
            plan.forward(&image, &mut tmp_k);
            plan.adjoint(&tmp_k, &mut out_img);
        })
    });
    g.bench_function("toeplitz_embedded", |b| b.iter(|| toep.apply(&[], &image, &mut out_img)));
    g.finish();
    drop((plan, toep));

    fused_graph_build();
}

/// The fused DAG a plan wires on its first apply per (direction, channel
/// count), timed alone: every sample builds a fresh plan outside the timed
/// region and times `NufftPlan::fused_dag` on it, at two workers. Shapes:
/// the 96³ grid of the `apply3d_random` perfbench workload (110 592
/// variable-density samples, KB W = 4), the 512² grid of `recon2d_sense`
/// with its 8 coils as channels (256-spoke radial, ES at ε = 1e-3), and
/// the 1024² grid of that workload's Toeplitz PSF plan, whose adjoint
/// graph every solve builds.
fn fused_graph_build() {
    let mut g = BenchGroup::new("fused_graph_build");
    g.sample_size(15)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let cfg = NufftConfig { threads: 2, ..NufftConfig::default() };
    let traj = random(2304, 48, 0.125, 1).points;
    for (name, adjoint) in [("fwd_96cubed_c1", false), ("adj_96cubed_c1", true)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || NufftPlan::new([48; 3], &traj, cfg),
                |plan| plan.fused_dag(adjoint, 1).num_edges(),
            )
        });
    }
    let radial = radial_2d(512, 256, 1).points;
    let cfg = cfg.with_tolerance(1e-3);
    for (name, adjoint) in [("fwd_512sq_c8", false), ("adj_512sq_c8", true)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || NufftPlan::new([256; 2], &radial, cfg),
                |plan| plan.fused_dag(adjoint, 8).num_edges(),
            )
        });
    }
    g.bench_function("adj_1024sq_c1", |b| {
        b.iter_batched(
            || NufftPlan::new([512; 2], &radial, cfg),
            |plan| plan.fused_dag(true, 1).num_edges(),
        )
    });
    g.finish();
}
