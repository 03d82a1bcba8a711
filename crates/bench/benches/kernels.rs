//! Kernel-layer benchmarks: micro-costs of the interpolation kernel
//! (direct Bessel vs LUT, Part 1 window computation) plus the
//! matched-accuracy ES-vs-KB A/B the tolerance-driven planner enables.
//!
//! The A/B builds both families from the *same* requested tolerance
//! (`with_tolerance_family`), so each pair is an honest trade at equal
//! accuracy: the ES kernel's fitted Horner table (≈1 KB, register-resident
//! coefficients, FMA evaluation) against the Kaiser–Bessel dense LUT
//! (density scaled with the tolerance, tens of KB at tight eps). The
//! spread-dominated configuration — small grid, many samples, on-the-fly
//! windows, one thread — maximizes Part 1's share of the apply, which is
//! exactly where the kernel evaluation strategy shows up.
//!
//! Writes `BENCH_kernels.json` at the repo root: per-apply medians,
//! effective kernel half-width, hot-table bytes, and the ES-vs-KB speedup
//! per (operator, eps).

use nufft_core::conv::Window;
use nufft_core::kernel::{beatty_beta, es_beta, InterpKernel, DEFAULT_LUT_DENSITY};
use nufft_core::{KernelChoice, NufftConfig, NufftPlan, WindowMode};
use nufft_math::bessel::bessel_i0;
use nufft_math::Complex32;
use nufft_testkit::bench::{black_box, BenchGroup};
use nufft_testkit::Rng;
use std::collections::BTreeMap;
use std::time::Duration;

const EPS_SWEEP: [f64; 3] = [1e-2, 1e-4, 1e-6];

fn family_name(family: KernelChoice) -> &'static str {
    match family {
        KernelChoice::EsKernel => "es",
        KernelChoice::KaiserBessel => "kb",
        KernelChoice::Gaussian => "gauss",
    }
}

fn eps_name(eps: f64) -> String {
    format!("1e{}", eps.log10().round() as i32)
}

/// Records `arm`'s median as the minimum of the interleaved repetitions: a
/// host-wide slowdown can skew one arm of a pair, and noise only ever adds
/// time.
fn record_min(medians: &mut BTreeMap<String, f64>, arm: String, median_ns: f64) {
    let slot = medians.entry(arm).or_insert(f64::INFINITY);
    *slot = slot.min(median_ns);
}

struct Summary {
    medians: BTreeMap<String, f64>,
    half_width: BTreeMap<String, f64>,
    eval_bytes: BTreeMap<String, usize>,
}

/// The matched-accuracy A/B: for each eps, build both families at that
/// tolerance and measure forward/adjoint applies in the spread-dominated
/// configuration.
fn bench_matched_accuracy(sum: &mut Summary) {
    let n = [32usize, 32];
    let samples = 40_000;
    let mut rng = Rng::seed_from_u64(0xE5_AB);
    let traj = rng.gen_points::<2>(samples, -0.5..0.4999);
    let data = rng.gen_c32_vec(samples, 1.0);
    let image = rng.gen_c32_vec(32 * 32, 1.0);

    let reps = if std::env::var("NUFFT_BENCH_FAST").is_ok() { 1 } else { 3 };
    let mut g = BenchGroup::new("kernel_ab");
    g.sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));

    let mut out_samples = vec![Complex32::ZERO; samples];
    let mut out_image = vec![Complex32::ZERO; 32 * 32];
    for _rep in 0..reps {
        for eps in EPS_SWEEP {
            for family in [KernelChoice::EsKernel, KernelChoice::KaiserBessel] {
                let cfg = NufftConfig {
                    threads: 1,
                    partitions_per_dim: Some(4),
                    // On-the-fly windows: every apply pays Part 1, the
                    // axis under test.
                    window_mode: WindowMode::OnTheFly,
                    ..NufftConfig::default()
                }
                .with_tolerance_family(eps, family);
                let key = format!("{}/{}", family_name(family), eps_name(eps));
                sum.half_width.insert(key.clone(), cfg.w);
                let mut plan = NufftPlan::new(n, &traj, cfg);
                sum.eval_bytes.insert(key.clone(), plan.kernel_eval_bytes());

                let arm = format!("forward/{key}");
                let stats =
                    g.bench_function(&arm, |b| b.iter(|| plan.forward(&image, &mut out_samples)));
                record_min(&mut sum.medians, arm, stats.median_ns);

                let arm = format!("adjoint/{key}");
                let stats =
                    g.bench_function(&arm, |b| b.iter(|| plan.adjoint(&data, &mut out_image)));
                record_min(&mut sum.medians, arm, stats.median_ns);
            }
        }
    }
    g.finish();
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn push_map<T: std::fmt::Display>(
    out: &mut String,
    name: &str,
    entries: &[(String, T)],
    tail: &str,
) {
    out.push_str(&format!("  \"{name}\": {{\n"));
    let last = entries.len().saturating_sub(1);
    for (i, (key, val)) in entries.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("    \"{}\": {val}{comma}\n", json_escape(key)));
    }
    out.push_str(&format!("  }}{tail}\n"));
}

/// Writes `BENCH_kernels.json`: per-apply medians for both families at
/// each matched tolerance, the half-width each family planned, the bytes
/// of the hot evaluation structure, and the ES-over-KB speedup.
fn write_summary(sum: &Summary) {
    let mut out = String::from("{\n  \"bench\": \"kernels\",\n");
    out.push_str("  \"unit\": \"median_ns_per_apply\",\n");

    let medians: Vec<(String, String)> =
        sum.medians.iter().map(|(k, v)| (k.clone(), format!("{v:.1}"))).collect();
    push_map(&mut out, "median_ns", &medians, ",");

    let widths: Vec<(String, String)> =
        sum.half_width.iter().map(|(k, v)| (k.clone(), format!("{v}"))).collect();
    push_map(&mut out, "kernel_half_width", &widths, ",");

    let bytes: Vec<(String, String)> =
        sum.eval_bytes.iter().map(|(k, v)| (k.clone(), format!("{v}"))).collect();
    push_map(&mut out, "eval_table_bytes", &bytes, ",");

    let mut speedups = Vec::new();
    for op in ["forward", "adjoint"] {
        for eps in EPS_SWEEP {
            let e = eps_name(eps);
            let es = sum.medians.get(&format!("{op}/es/{e}"));
            let kb = sum.medians.get(&format!("{op}/kb/{e}"));
            let (Some(&es), Some(&kb)) = (es, kb) else {
                continue;
            };
            speedups.push((format!("{op}/{e}"), format!("{:.3}", kb / es)));
        }
    }
    push_map(&mut out, "speedup_es_vs_kb", &speedups, "");
    out.push_str("}\n");

    nufft_testkit::bench::write_summary(
        "BENCH_kernels.json",
        nufft_simd::detect_isa().name(),
        &out,
    );
}

fn main() {
    let kernel = InterpKernel::new(4.0, 2.0);
    let xs: Vec<f32> = (0..256).map(|i| (i as f32 * 0.015) % 4.0).collect();

    let mut g = BenchGroup::new("kernel");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    g.bench_function("bessel_i0", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &x in &xs {
                acc += bessel_i0(black_box(x as f64 * 4.0));
            }
            acc
        })
    });
    g.bench_function("kb_exact_256", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &x in &xs {
                acc += kernel.eval_exact(black_box(x) as f64);
            }
            acc
        })
    });
    g.bench_function("kb_lut_256", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &x in &xs {
                acc += kernel.eval_lut(black_box(x));
            }
            acc
        })
    });
    g.bench_function("beatty_beta", |b| b.iter(|| beatty_beta(black_box(4.0), black_box(2.0))));
    g.finish();

    let mut g = BenchGroup::new("part1_window");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    for w in [2.0f64, 4.0, 8.0] {
        let k = InterpKernel::new(w, 2.0);
        g.bench_function(format!("window_w{w}"), |b| {
            let mut u = 17.3f32;
            b.iter(|| {
                u = (u * 1.000_1) % 100.0;
                black_box(Window::compute(black_box(u), w as f32, &k))
            })
        });
        // The ES Horner path at the same half-width, for a like-for-like
        // Part 1 micro-comparison with the LUT row above.
        let es = InterpKernel::es(w, es_beta(w, 2.0), DEFAULT_LUT_DENSITY);
        g.bench_function(format!("window_es_w{w}"), |b| {
            let mut u = 17.3f32;
            b.iter(|| {
                u = (u * 1.000_1) % 100.0;
                black_box(Window::compute(black_box(u), w as f32, &es))
            })
        });
    }
    g.finish();

    let mut sum = Summary {
        medians: BTreeMap::new(),
        half_width: BTreeMap::new(),
        eval_bytes: BTreeMap::new(),
    };
    bench_matched_accuracy(&mut sum);
    write_summary(&sum);
}
