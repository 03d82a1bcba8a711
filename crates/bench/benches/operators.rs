//! End-to-end operator benchmarks: full forward/adjoint NUFFT on a small
//! radial problem, the preprocessing pipeline, and the gridding baseline.
//! Runs on the `nufft-testkit` harness.

use nufft_baselines::sequential::SequentialNufft;
use nufft_core::{NufftConfig, NufftPlan};
use nufft_math::Complex32;
use nufft_testkit::bench::BenchGroup;
use nufft_traj::generators::radial;
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
}
