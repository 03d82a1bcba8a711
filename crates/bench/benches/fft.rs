//! FFT substrate benchmarks.
//!
//! Three families, all on the `nufft-testkit` harness:
//!
//! 1. **1D lengths the NUFFT actually uses** — power-of-two, mixed-radix
//!    and Bluestein oversampled grids.
//! 2. **Strided-axis execution paths** — the Figure-11-style grid: for each
//!    ISA level the host supports (scalar / SSE / AVX2+FMA) the per-line
//!    reference arm vs the batched tile arm (`crates/fft/src/batch.rs`) on
//!    a 2D 256² plane and a 3D 64³ volume, covering every non-contiguous
//!    axis together.
//! 3. **Per-axis paths on the workload grids** — the oversampled grids of
//!    the end-to-end workloads (96³ for `apply3d_random`, 512² for
//!    `recon2d_sense`, 96² for `service2d`), one arm per axis × ISA level ×
//!    path. On the contiguous axis the batched arm is the packed path (runs
//!    of `b` consecutive lines transposed into one interleaved tile).
//!
//! Both paths are bit-identical at a fixed level, so every comparison is
//! pure execution-strategy cost. After the sweeps the per-arm p10/p50/p90
//! are summarized into `BENCH_fft.json` at the repository root (see
//! `scripts/bench.sh`), with the headline batched-AVX2 vs per-line-scalar
//! speedups of family 2 and the per-axis batched vs per-line speedups of
//! family 3 at the detected level.

use nufft_fft::{Direction, Fft, FftNd};
use nufft_math::Complex32;
use nufft_simd::{detect_isa, set_isa_override, IsaLevel};
use nufft_testkit::bench::{BenchGroup, Stats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn signal(n: usize) -> Vec<Complex32> {
    (0..n).map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos())).collect()
}

/// Repository root: nearest ancestor holding `ROADMAP.md` (mirrors the
/// testkit's results-dir lookup), else the current directory.
fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("ROADMAP.md").exists() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn bench_1d() {
    let mut g = BenchGroup::new("fft_1d");
    g.sample_size(15)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    // 256/512: radix-4/2 paths; 300 = 2²·3·5²: mixed radix (the α=1.25
    // Table IV grid); 688 = 16·43: Bluestein (the Table V grid).
    for n in [256usize, 512, 300, 688] {
        let plan = Fft::new(n);
        let mut data = signal(n);
        let mut scratch = vec![Complex32::ZERO; plan.scratch_len()];
        g.throughput(n as u64);
        g.bench_function(format!("c2c_{n}"), |b| {
            b.iter(|| plan.process_with_scratch(&mut data, &mut scratch, Direction::Forward))
        });
    }
    g.finish();
}

/// The ISA levels the host supports, scalar first.
fn levels() -> Vec<IsaLevel> {
    let detected = detect_isa();
    [IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma]
        .into_iter()
        .filter(|&l| l <= detected)
        .collect()
}

/// Benches every {ISA level} × {per-line, batched} arm on the axis set
/// `axes` of `plan`, transformed one after another, recording each arm's
/// stats into `arms` under `"{id}/{isa}/{path}"`. `batched` names the
/// batched arm's path.
fn bench_axes(
    g: &mut BenchGroup,
    id: &str,
    plan: &FftNd,
    axes: &[usize],
    batched: &str,
    arms: &mut BTreeMap<String, Stats>,
) {
    let input = signal(plan.len());
    let mut data = input.clone();
    g.throughput((plan.len() * axes.len()) as u64);
    for level in levels() {
        set_isa_override(level).expect("detected level must be accepted");
        for path in ["per_line", batched] {
            let arm = format!("{id}/{}/{path}", level.name());
            let stats = g.bench_function(&arm, |b| {
                b.iter(|| {
                    // Fresh input every iteration: repeated in-place
                    // transforms would otherwise grow without bound.
                    data.copy_from_slice(&input);
                    for &axis in axes {
                        if path == "per_line" {
                            plan.transform_axis_per_line(&mut data, axis, Direction::Forward);
                        } else {
                            plan.transform_axis(&mut data, axis, Direction::Forward);
                        }
                    }
                })
            });
            arms.insert(arm, stats);
        }
    }
    set_isa_override(detect_isa()).expect("restoring detected level must succeed");
}

/// Family 2: every strided axis of `shape` in one arm.
fn bench_strided(id: &str, shape: &[usize], arms: &mut BTreeMap<String, Stats>) {
    let plan = FftNd::new(shape);
    let strided: Vec<usize> = (0..shape.len()).filter(|&a| plan.axis_stride(a) > 1).collect();
    let mut g = BenchGroup::new("fft_strided");
    g.sample_size(12)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    bench_axes(&mut g, id, &plan, &strided, "batched", arms);
    g.finish();
}

/// Family 3: one arm set per axis of `shape`, under `"{id}/axis{a}"`; the
/// contiguous axis's batched arm is `packed`.
fn bench_per_axis(id: &str, shape: &[usize], arms: &mut BTreeMap<String, Stats>) {
    let plan = FftNd::new(shape);
    let mut g = BenchGroup::new("fft_axis");
    g.sample_size(12)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for axis in 0..shape.len() {
        let batched = if plan.axis_stride(axis) == 1 { "packed" } else { "batched" };
        bench_axes(&mut g, &format!("{id}/axis{axis}"), &plan, &[axis], batched, arms);
    }
    g.finish();
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes one `"arm": value` JSON object body from `arms`.
fn json_map(out: &mut String, name: &str, arms: &BTreeMap<String, Stats>, f: fn(&Stats) -> f64) {
    out.push_str(&format!("  \"{name}\": {{\n"));
    let last = arms.len().saturating_sub(1);
    for (i, (arm, st)) in arms.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("    \"{}\": {:.1}{comma}\n", json_escape(arm), f(st)));
    }
    out.push_str("  },\n");
}

/// Writes a `"case": speedup` JSON object from `(case, slow arm, fast arm)`
/// triples, skipping cases with a missing arm.
fn json_speedups(
    out: &mut String,
    name: &str,
    arms: &BTreeMap<String, Stats>,
    cases: &[(String, String, String)],
    trailing_comma: bool,
) {
    out.push_str(&format!("  \"{name}\": {{\n"));
    let lines: Vec<String> = cases
        .iter()
        .filter_map(|(case, slow, fast)| {
            let (slow, fast) = (arms.get(slow)?, arms.get(fast)?);
            Some(format!("    \"{}\": {:.3}", json_escape(case), slow.median_ns / fast.median_ns))
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str(if trailing_comma { "\n  },\n" } else { "\n  }\n" });
}

/// Writes `BENCH_fft.json` at the repo root: per-arm p10/p50/p90 and
/// sample counts, the headline batched-AVX2 vs per-line-scalar speedups of
/// each strided case, and per-axis batched (packed) vs per-line speedups at
/// the detected level.
fn write_summary(arms: &BTreeMap<String, Stats>, strided: &[&str], per_axis: &[(&str, usize)]) {
    let mut out = String::from("{\n  \"bench\": \"fft_strided+fft_axis\",\n");
    out.push_str("  \"unit\": \"ns_per_iteration\",\n");
    let isa = detect_isa().name();
    out.push_str(&format!("  \"isa_detected\": \"{}\",\n", json_escape(isa)));
    json_map(&mut out, "median_ns", arms, |s| s.median_ns);
    json_map(&mut out, "p10_ns", arms, |s| s.p10_ns);
    json_map(&mut out, "p90_ns", arms, |s| s.p90_ns);
    json_map(&mut out, "samples", arms, |s| s.samples as f64);
    let avx = IsaLevel::Avx2Fma.name();
    let headline: Vec<(String, String, String)> = strided
        .iter()
        .map(|id| {
            let fast = format!("{id}/{avx}/batched");
            (id.to_string(), format!("{id}/scalar/per_line"), fast)
        })
        .collect();
    json_speedups(&mut out, "speedup_batched_avx2_vs_per_line_scalar", arms, &headline, true);
    let mut axes = Vec::new();
    for &(id, ndim) in per_axis {
        for a in 0..ndim {
            let case = format!("{id}/axis{a}");
            let path = if a + 1 == ndim { "packed" } else { "batched" };
            let slow = format!("{case}/{isa}/per_line");
            axes.push((case.clone(), slow, format!("{case}/{isa}/{path}")));
        }
    }
    json_speedups(&mut out, "speedup_batched_vs_per_line_detected_isa", arms, &axes, false);
    out.push_str("}\n");

    let path = repo_root().join("BENCH_fft.json");
    match std::fs::write(&path, &out) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn main() {
    bench_1d();

    let mut arms = BTreeMap::new();
    let strided: [(&str, &[usize]); 2] = [("2d_256", &[256, 256]), ("3d_64", &[64, 64, 64])];
    for (id, shape) in strided {
        bench_strided(id, shape, &mut arms);
    }
    // The oversampled grids of apply3d_random, recon2d_sense and service2d.
    let per_axis: [(&str, &[usize]); 3] =
        [("3d_96", &[96, 96, 96]), ("2d_512", &[512, 512]), ("2d_96", &[96, 96])];
    for (id, shape) in per_axis {
        bench_per_axis(id, shape, &mut arms);
    }
    let ids = per_axis.map(|(id, shape)| (id, shape.len()));
    write_summary(&arms, &["2d_256", "3d_64"], &ids);
}
