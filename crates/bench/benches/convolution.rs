//! Convolution benchmarks: SIMD row kernels per ISA level and the full
//! per-sample scatter/gather at the paper's kernel widths, per ISA level, in
//! 2D and 3D. Runs on the `nufft-testkit` harness.

use nufft_core::conv::{adjoint_scatter, forward_gather, win_refs, Window};
use nufft_core::kernel::InterpKernel;
use nufft_math::Complex32;
use nufft_simd::{detect_isa, set_isa_override, IsaLevel};
use nufft_testkit::bench::{black_box, BenchGroup};
use std::time::Duration;

fn bench_rows() {
    let detected = detect_isa();
    let mut g = BenchGroup::new("row_kernels");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    for len in [4usize, 8, 16] {
        let mut grid = vec![Complex32::new(0.1, 0.2); 4096 + len];
        let w: Vec<f32> = (0..len).map(|i| 0.01 + i as f32 * 0.01).collect();
        let val = Complex32::new(0.5, -0.25);
        for isa in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
            if isa > detected {
                continue;
            }
            set_isa_override(isa).unwrap();
            g.throughput(len as u64);
            g.bench_function(format!("scatter_len{len}_{}", isa.name()), |b| {
                let mut off = 0usize;
                b.iter(|| {
                    off = (off + 31) & 4095;
                    nufft_simd::scatter_row(&mut grid[off..off + len], &w, val);
                })
            });
            g.bench_function(format!("gather_len{len}_{}", isa.name()), |b| {
                let mut off = 0usize;
                b.iter(|| {
                    off = (off + 31) & 4095;
                    black_box(nufft_simd::gather_row(&grid[off..off + len], &w))
                })
            });
        }
        set_isa_override(detected).unwrap();
    }
    g.finish();
}

/// Per-sample convolution (Part 1 windows + Part 2) at the paper's widths,
/// per ISA level, Figure 13 style: at AVX2+FMA a 2D/3D sample whose
/// innermost row does not wrap takes one `nufft_simd::boxes` call, below it
/// one row-kernel call per grid row — so the `avx2+fma` arm against the
/// `sse` arm is the box path's per-sample gain over the row path.
fn bench_sample_conv<const D: usize>(edge: usize) {
    let detected = detect_isa();
    let m = [edge; D];
    let mf = edge as f32;
    let mut grid = vec![Complex32::new(0.1, -0.1); edge.pow(D as u32)];
    let mut g = BenchGroup::new(format!("per_sample_conv{D}d"));
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(400));
    for wrad in [2.0f64, 4.0, 8.0] {
        let kernel = InterpKernel::new(wrad, 2.0);
        for isa in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
            if isa > detected {
                continue;
            }
            set_isa_override(isa).unwrap();
            let mut u = 13.7f32;
            let mut windows = || -> [Window; D] {
                u = (u * 1.001) % (mf - 4.0) + 2.0;
                core::array::from_fn(|d| {
                    Window::compute((u + d as f32 * 7.3) % mf, wrad as f32, &kernel)
                })
            };
            g.bench_function(format!("adjoint_scatter_w{wrad}_{}", isa.name()), |b| {
                b.iter(|| {
                    let win = windows();
                    adjoint_scatter(&mut grid, &m, &win_refs(&win), Complex32::new(1.0, 0.5));
                })
            });
            g.bench_function(format!("forward_gather_w{wrad}_{}", isa.name()), |b| {
                b.iter(|| black_box(forward_gather(&grid, &m, &win_refs(&windows()))))
            });
        }
        set_isa_override(detected).unwrap();
    }
    g.finish();
}

fn main() {
    bench_rows();
    bench_sample_conv::<2>(256);
    bench_sample_conv::<3>(64);
}
