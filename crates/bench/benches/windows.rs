//! Precomputed window table vs on-the-fly Part 1 — the Figure 7 trade.
//!
//! Part 1 (per-sample window/LUT computation) is recomputed on every
//! operator apply in the historical path. A plan-owned `WindowTable`
//! computes it once at build; each apply then streams packed weight rows
//! instead of evaluating the kernel LUT. Both paths produce bitwise-equal
//! output (see `crates/core/tests/window_modes.rs`), so this benchmark
//! isolates pure Part 1 cost against the table's build time and memory.
//!
//! Arms: {forward, adjoint} × {2D, 3D case} × {1, 4 threads} ×
//! {fly, table}. The summary (`BENCH_windows.json` at the repo root) also
//! reports the table build time, its size, the per-apply speedup, the
//! break-even apply count (how many applies amortize the build), and the
//! amortized per-apply cost at 1/10/100 applies — the quantity an
//! iterative solver actually pays.

use nufft_core::{NufftConfig, NufftPlan, WindowMode};
use nufft_math::Complex32;
use nufft_testkit::bench::BenchGroup;
use nufft_testkit::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const THREADS: [usize; 2] = [1, 4];
const CASE_IDS: [&str; 2] = ["d2_64", "d3_24"];
const APPLY_COUNTS: [usize; 3] = [1, 10, 100];

fn mode_name(precomputed: bool) -> &'static str {
    if precomputed {
        "table"
    } else {
        "fly"
    }
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
    build_ns: BTreeMap<String, f64>,
    table_bytes: BTreeMap<String, usize>,
}

fn bench_case<const D: usize>(id: &str, n: [usize; D], samples: usize, sum: &mut Summary) {
    let mut rng = Rng::seed_from_u64(0xB117_0000 + samples as u64);
    let traj = rng.gen_points::<D>(samples, -0.5..0.4999);
    let data = rng.gen_c32_vec(samples, 1.0);
    let image_len: usize = n.iter().product();
    let image = rng.gen_c32_vec(image_len, 1.0);

    let reps = if std::env::var("NUFFT_BENCH_FAST").is_ok() { 1 } else { 3 };
    let mut g = BenchGroup::new(format!("windows_{id}"));
    g.sample_size(10)
        .measurement_time(Duration::from_millis(700))
        .warm_up_time(Duration::from_millis(200));
    for threads in THREADS {
        let cfg = NufftConfig {
            threads,
            w: 4.0,
            // Pin the decomposition so both modes schedule the same graph.
            partitions_per_dim: Some(4),
            ..NufftConfig::default()
        };
        // Both plans start on the fly; one is switched to a table, which
        // also measures the build cost an iterative user pays once.
        let mut fly = NufftPlan::new(n, &traj, cfg);
        let mut tab = NufftPlan::new(n, &traj, cfg);
        let t0 = Instant::now();
        tab.set_window_mode(WindowMode::Precomputed);
        let build = t0.elapsed().as_secs_f64() * 1e9;
        let slot = sum.build_ns.entry(format!("{id}/t{threads}")).or_insert(f64::INFINITY);
        *slot = slot.min(build);
        sum.table_bytes.insert(id.to_string(), tab.window_table_bytes().unwrap_or(0));

        let mut out_samples = vec![Complex32::ZERO; samples];
        let mut out_image = vec![Complex32::ZERO; image_len];
        for _rep in 0..reps {
            for precomputed in [false, true] {
                let plan = if precomputed { &mut tab } else { &mut fly };
                let mode = mode_name(precomputed);
                let arm = format!("forward/{id}/t{threads}/{mode}");
                let stats =
                    g.bench_function(&arm, |b| b.iter(|| plan.forward(&image, &mut out_samples)));
                record_min(&mut sum.medians, arm, stats.median_ns);

                let arm = format!("adjoint/{id}/t{threads}/{mode}");
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

/// Writes `BENCH_windows.json`: per-arm medians, table build cost and
/// size, table-vs-fly speedup, break-even apply count, and the amortized
/// per-apply cost of the table mode over the apply-count sweep.
fn write_summary(sum: &Summary) {
    let mut out = String::from("{\n  \"bench\": \"windows\",\n");
    out.push_str("  \"unit\": \"median_ns_per_apply\",\n");

    let medians: Vec<(String, String)> =
        sum.medians.iter().map(|(k, v)| (k.clone(), format!("{v:.1}"))).collect();
    push_map(&mut out, "median_ns", &medians, ",");

    let builds: Vec<(String, String)> =
        sum.build_ns.iter().map(|(k, v)| (k.clone(), format!("{v:.1}"))).collect();
    push_map(&mut out, "table_build_ns", &builds, ",");

    let bytes: Vec<(String, String)> =
        sum.table_bytes.iter().map(|(k, v)| (k.clone(), format!("{v}"))).collect();
    push_map(&mut out, "table_bytes", &bytes, ",");

    let mut speedups = Vec::new();
    let mut breakevens = Vec::new();
    let mut amortized = Vec::new();
    for op in ["forward", "adjoint"] {
        for id in CASE_IDS {
            for threads in THREADS {
                let fly = sum.medians.get(&format!("{op}/{id}/t{threads}/fly"));
                let tab = sum.medians.get(&format!("{op}/{id}/t{threads}/table"));
                let build = sum.build_ns.get(&format!("{id}/t{threads}"));
                let (Some(&fly), Some(&tab), Some(&build)) = (fly, tab, build) else {
                    continue;
                };
                let key = format!("{op}/{id}/t{threads}");
                speedups.push((key.clone(), format!("{:.3}", fly / tab)));
                // Applies needed before table build + applies beats pure
                // on-the-fly applies; "null" when the table never wins.
                let saving = fly - tab;
                breakevens.push((
                    key.clone(),
                    if saving > 0.0 {
                        format!("{:.1}", build / saving)
                    } else {
                        "null".to_string()
                    },
                ));
                for count in APPLY_COUNTS {
                    amortized.push((
                        format!("{key}/n{count}"),
                        format!("{:.1}", (build + count as f64 * tab) / count as f64),
                    ));
                }
            }
        }
    }
    push_map(&mut out, "speedup_table_vs_fly", &speedups, ",");
    push_map(&mut out, "breakeven_applies", &breakevens, ",");
    push_map(&mut out, "amortized_ns_per_apply", &amortized, "");
    out.push_str("}\n");

    nufft_testkit::bench::write_summary(
        "BENCH_windows.json",
        nufft_simd::detect_isa().name(),
        &out,
    );
}

fn main() {
    let mut sum = Summary {
        medians: BTreeMap::new(),
        build_ns: BTreeMap::new(),
        table_bytes: BTreeMap::new(),
    };
    bench_case::<2>("d2_64", [64, 64], 20_000, &mut sum);
    bench_case::<3>("d3_24", [24, 24, 24], 20_000, &mut sum);
    write_summary(&sum);
}
