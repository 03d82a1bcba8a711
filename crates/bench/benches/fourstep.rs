//! Four-step (Bailey) vs recursive FFT decomposition.
//!
//! Two families, both on the `nufft-testkit` harness:
//!
//! 1. **1D axis-length sweep** — recursive vs forced four-step on
//!    power-of-two lengths from comfortably in-LLC (32 KiB line) to far
//!    out (32 MiB line), locating the crossover the `Auto` heuristic's
//!    LLC budget is meant to straddle.
//! 2. **Strategy-forced A/B on operator grids** — 256², 512², 64³, 128³
//!    (plus the out-of-LLC 1D lengths), with an `Auto` arm at the default
//!    budget riding along: in-budget grids must show Auto ≈ recursive
//!    (the heuristic declined four-step), out-of-budget axes must show
//!    Auto tracking the four-step arm.
//!
//! Medians land in `BENCH_fourstep.json` at the repository root,
//! including the per-length speedups and the measured crossover length
//! (see `scripts/bench.sh`; EXPERIMENTS.md has the sweep recipe).

use nufft_fft::{Direction, FftNd, FftStrategy, DEFAULT_LLC_BUDGET};
use nufft_math::Complex32;
use nufft_testkit::bench::BenchGroup;
use std::collections::BTreeMap;
use std::time::Duration;

fn signal(n: usize) -> Vec<Complex32> {
    (0..n).map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos())).collect()
}

fn fast_mode() -> bool {
    std::env::var("NUFFT_BENCH_FAST").map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

const STRATEGIES: [(&str, FftStrategy); 3] = [
    ("recursive", FftStrategy::Recursive),
    ("fourstep", FftStrategy::FourStep),
    ("auto", FftStrategy::Auto),
];

/// Benches every strategy arm on `shape`, recording median ns/iteration
/// under `"{id}/{strategy}"`. Strategies that resolve to a plan with no
/// four-step axis share the recursive code path but are measured anyway —
/// the `auto == recursive` equality on in-budget grids is the
/// non-regression claim this bench exists to document.
fn bench_shape(g: &mut BenchGroup, id: &str, shape: &[usize], medians: &mut BTreeMap<String, f64>) {
    let input = signal(shape.iter().product());
    let mut data = input.clone();
    g.throughput(input.len() as u64);
    for (name, strategy) in STRATEGIES {
        let plan = FftNd::with_strategy(shape, strategy, DEFAULT_LLC_BUDGET);
        let arm = format!("{id}/{name}");
        let stats = g.bench_function(&arm, |b| {
            b.iter(|| {
                // Fresh input every iteration: repeated in-place
                // transforms would otherwise grow without bound.
                data.copy_from_slice(&input);
                plan.process(&mut data, Direction::Forward);
            })
        });
        medians.insert(arm, stats.median_ns);
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes `BENCH_fourstep.json`: per-arm medians, the per-length
/// four-step speedups of the 1D sweep with the measured crossover, and
/// the Auto-vs-recursive ratios that pin the heuristic's non-regression.
fn write_summary(medians: &BTreeMap<String, f64>, sweep: &[usize], grids: &[&str]) {
    let mut out = String::from("{\n  \"bench\": \"fourstep\",\n");
    out.push_str("  \"unit\": \"median_ns_per_iteration\",\n");
    out.push_str(&format!("  \"llc_budget_bytes\": {DEFAULT_LLC_BUDGET},\n"));
    out.push_str("  \"median_ns\": {\n");
    let last = medians.len().saturating_sub(1);
    for (i, (arm, ns)) in medians.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("    \"{}\": {ns:.1}{comma}\n", json_escape(arm)));
    }
    out.push_str("  },\n");

    // Sweep: speedup of forced four-step over recursive per axis length,
    // and the first length where it wins (the measured crossover).
    out.push_str("  \"sweep_speedup_fourstep_vs_recursive\": {\n");
    let mut crossover: Option<usize> = None;
    for (i, &n) in sweep.iter().enumerate() {
        let rec = medians[&format!("1d_{n}/recursive")];
        let four = medians[&format!("1d_{n}/fourstep")];
        let s = rec / four;
        if s > 1.0 && crossover.is_none() {
            crossover = Some(n);
        }
        let comma = if i + 1 == sweep.len() { "" } else { "," };
        out.push_str(&format!("    \"{n}\": {s:.3}{comma}\n"));
    }
    out.push_str("  },\n");
    match crossover {
        Some(n) => out.push_str(&format!("  \"crossover_len\": {n},\n")),
        None => out.push_str("  \"crossover_len\": null,\n"),
    }

    // Auto vs recursive per grid: ≈1.0 wherever the heuristic declines
    // four-step (non-regression), tracking the four-step arm where a
    // line exceeds the budget.
    out.push_str("  \"auto_vs_recursive\": {\n");
    let all: Vec<String> = sweep
        .iter()
        .map(|n| format!("1d_{n}"))
        .chain(grids.iter().map(|s| s.to_string()))
        .collect();
    for (i, id) in all.iter().enumerate() {
        let rec = medians[&format!("{id}/recursive")];
        let auto = medians[&format!("{id}/auto")];
        let comma = if i + 1 == all.len() { "" } else { "," };
        out.push_str(&format!("    \"{}\": {:.3}{comma}\n", json_escape(id), rec / auto));
    }
    out.push_str("  }\n}\n");

    nufft_testkit::bench::write_summary(
        "BENCH_fourstep.json",
        nufft_simd::detect_isa().name(),
        &out,
    );
}

fn main() {
    let mut medians = BTreeMap::new();

    // 32 KiB per line up to 32 MiB: the 2 MiB default budget sits between
    // the 262144 and 524288 entries.
    let sweep: Vec<usize> = if fast_mode() {
        vec![4096, 262144, 1 << 20]
    } else {
        vec![4096, 16384, 65536, 262144, 524288, 1 << 20, 1 << 22]
    };
    let mut g = BenchGroup::new("fourstep_1d");
    g.sample_size(12)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for &n in &sweep {
        let id = format!("1d_{n}");
        bench_shape(&mut g, &id, &[n], &mut medians);
    }
    g.finish();

    // Operator grids: all in-budget per axis (the heuristic keys on line
    // footprint, not grid footprint), so Auto must track recursive here.
    let grids: [(&str, &[usize]); 4] = [
        ("2d_256", &[256, 256]),
        ("2d_512", &[512, 512]),
        ("3d_64", &[64, 64, 64]),
        ("3d_128", &[128, 128, 128]),
    ];
    let grids: &[(&str, &[usize])] = if fast_mode() { &grids[..2] } else { &grids };
    let mut g = BenchGroup::new("fourstep_grids");
    g.sample_size(12)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut grid_ids = Vec::new();
    for (id, shape) in grids {
        bench_shape(&mut g, id, shape, &mut medians);
        grid_ids.push(*id);
    }
    g.finish();

    write_summary(&medians, &sweep, &grid_ids);
}
