//! Native type-3 apply vs the composed type-2∘type-1 pipeline a user
//! without `Type3Plan` would run.
//!
//! The composed baseline grids the sources to an intermediate image with a
//! full type-1 adjoint (spread + FFT + deconvolve) and re-evaluates it at
//! the scaled targets with a full type-2 forward (deconvolve + FFT +
//! gather) — two complete operator applies over the same fine-grid extent.
//! The native path spreads straight onto the fine grid and runs the inner
//! type-2 once, so it saves the intermediate image's FFT pair and both of
//! its deconvolve passes; the bench isolates exactly that saving (both
//! arms share one fine-grid geometry, derived from the native plan).
//!
//! Arms: {native, composed} × {fine_32², fine_192², fine_64³} ×
//! {1, 2, 4 threads}. Medians land in `BENCH_type3.json` at the repo root
//! with the headline composed/native speedup per arm (> 1 means the
//! native type-3 is faster).

use nufft_core::{NufftConfig, NufftPlan, Type3Plan};
use nufft_math::Complex32;
use nufft_testkit::bench::BenchGroup;
use nufft_testkit::Rng;
use std::collections::BTreeMap;
use std::time::Duration;

/// Records `arm`'s median as the minimum over repetitions, so host-wide
/// noise can only ever add time, never flip a comparison.
fn record_min(medians: &mut BTreeMap<String, f64>, arm: String, median_ns: f64) {
    let slot = medians.entry(arm).or_insert(f64::INFINITY);
    *slot = slot.min(median_ns);
}

/// Uniform cloud in `[-extent, extent)^D` from a named seed.
fn points<const D: usize>(count: usize, extent: f64, seed: u64) -> Vec<[f64; D]> {
    let mut rng = Rng::seed_from_u64(seed);
    rng.gen_points::<D>(count, -extent..extent)
}

fn bench_case<const D: usize>(
    id: &str,
    s_extent: f64,
    count: usize,
    medians: &mut BTreeMap<String, f64>,
) {
    // Source positions span [-3, 3); the target-frequency extent is the
    // knob that dials the fine grid to the case's nominal size.
    let sources: Vec<[f64; D]> = points(count, 3.0, 0x7E3 + count as u64);
    let targets: Vec<[f64; D]> = points(count, s_extent, 0x7E3 ^ 0x5555);
    let strengths = Rng::seed_from_u64(1).gen_c32_vec(count, 1.0);

    let reps = if std::env::var("NUFFT_BENCH_FAST").is_ok() { 1 } else { 3 };
    let mut g = BenchGroup::new(format!("type3_{id}"));
    g.sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));
    for threads in [1usize, 2, 4] {
        let cfg = NufftConfig { threads, partitions_per_dim: Some(4), ..NufftConfig::default() };
        let mut native = Type3Plan::new(&sources, &targets, cfg);
        let nf = native.fine_extents();
        let h = native.fine_spacing();

        // Composed baseline on the same fine extent: type-1 adjoint grids
        // the sources into an nf-sized image (source positions mapped into
        // the image's frequency band), then a type-2 forward re-evaluates
        // at the natively-scaled targets.
        let src_nu: Vec<[f64; D]> = sources
            .iter()
            .map(|x| core::array::from_fn(|d| (x[d] / (h[d] * nf[d] as f64)).clamp(-0.5, 0.4999)))
            .collect();
        let tgt_nu: Vec<[f64; D]> =
            targets.iter().map(|s| core::array::from_fn(|d| s[d] * h[d])).collect();
        let mut t1 = NufftPlan::new(nf, &src_nu, cfg);
        let mut t2 = NufftPlan::new(nf, &tgt_nu, cfg);

        let img_len: usize = nf.iter().product();
        let mut image = vec![Complex32::ZERO; img_len];
        let mut out = vec![Complex32::ZERO; count];

        for _rep in 0..reps {
            let arm = format!("native/{id}/t{threads}");
            let stats = g.bench_function(&arm, |b| b.iter(|| native.forward(&strengths, &mut out)));
            record_min(medians, arm, stats.median_ns);

            let arm = format!("composed/{id}/t{threads}");
            let stats = g.bench_function(&arm, |b| {
                b.iter(|| {
                    t1.adjoint(&strengths, &mut image);
                    t2.forward(&image, &mut out);
                })
            });
            record_min(medians, arm, stats.median_ns);
        }
        if threads == 1 {
            println!("{id}: fine grid {nf:?} ({count} sources/targets)");
        }
    }
    g.finish();
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

const CASE_IDS: [&str; 3] = ["fine_32", "fine_192", "fine_cube_64"];

/// Writes `BENCH_type3.json` at the repo root: per-arm medians plus the
/// composed/native speedup (> 1 means native type-3 wins).
fn write_summary(medians: &BTreeMap<String, f64>) {
    let mut out = String::from("{\n  \"bench\": \"type3\",\n");
    out.push_str("  \"unit\": \"median_ns_per_apply\",\n");
    out.push_str("  \"median_ns\": {\n");
    let last = medians.len().saturating_sub(1);
    for (i, (arm, ns)) in medians.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("    \"{}\": {ns:.1}{comma}\n", json_escape(arm)));
    }
    out.push_str("  },\n");
    out.push_str("  \"speedup_native_vs_composed\": {\n");
    let mut lines = Vec::new();
    for id in CASE_IDS {
        for threads in [1usize, 2, 4] {
            let native = medians.get(&format!("native/{id}/t{threads}"));
            let composed = medians.get(&format!("composed/{id}/t{threads}"));
            if let (Some(native), Some(composed)) = (native, composed) {
                lines.push(format!(
                    "    \"{}/t{threads}\": {:.3}",
                    json_escape(id),
                    composed / native
                ));
            }
        }
    }
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("{line}{comma}\n"));
    }
    out.push_str("  }\n}\n");

    nufft_testkit::bench::write_summary("BENCH_type3.json", nufft_simd::detect_isa().name(), &out);
}

fn main() {
    let mut medians = BTreeMap::new();
    // Nominal fine extents (exact sizes come out of `next_fast_len` over
    // the bandwidth product): ~32² — spread cost dominates, the saved FFT
    // pair is proportionally largest; ~192² — out-of-cache 2D fine grid;
    // ~64³ — 3D, where the baseline's intermediate image traffic peaks.
    bench_case::<2>("fine_32", 0.9, 4_000, &mut medians);
    bench_case::<2>("fine_192", 7.5, 60_000, &mut medians);
    bench_case::<3>("fine_cube_64", 2.2, 40_000, &mut medians);
    write_summary(&medians);
}
