//! A `std`-only micro-benchmark harness (the workspace's Criterion
//! replacement).
//!
//! Usage mirrors the Criterion group API closely enough that the bench
//! entrypoints port mechanically:
//!
//! ```no_run
//! use nufft_testkit::bench::{black_box, BenchGroup};
//!
//! let mut g = BenchGroup::new("fft_1d");
//! g.throughput(256);
//! g.bench_function("c2c_256", |b| b.iter(|| black_box(2 + 2)));
//! g.finish();
//! ```
//!
//! Each `bench_function` warms up, auto-sizes an iteration batch so one
//! timed sample costs ≈ `measurement_time / samples`, records per-iteration
//! times for every sample, and reports **median / p10 / p90** nanoseconds.
//! Results are printed as an aligned table and appended as JSON lines to
//! `results/benchmarks.jsonl` under the repository root (override the
//! directory with `NUFFT_BENCH_OUT`; set `NUFFT_BENCH_FAST=1` for a
//! smoke-test run with minimal warmup and samples).

pub use std::hint::black_box;

use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Per-sample timing driver handed to the bench closure.
pub struct Bencher {
    warmup: Duration,
    measurement: Duration,
    samples: usize,
    /// Median / p10 / p90 per-iteration nanoseconds, filled by `iter`.
    stats: Option<Stats>,
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Stats {
    /// Median per-iteration time.
    pub median_ns: f64,
    /// 10th percentile.
    pub p10_ns: f64,
    /// 90th percentile.
    pub p90_ns: f64,
    /// Total iterations measured (excluding warmup).
    pub iters: u64,
    /// Number of timed samples.
    pub samples: usize,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

impl Bencher {
    /// Runs `routine` under the harness: warmup, batch sizing, then timed
    /// samples. Call exactly once per `bench_function` closure.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warmup: run until the warmup budget is spent, measuring the rough
        // per-iteration cost for batch sizing.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Size one sample's batch so `samples` batches fill the measurement
        // budget; at least 1 iteration per batch.
        let target_sample = self.measurement.as_secs_f64() / self.samples as f64;
        let batch = ((target_sample / per_iter.max(1e-9)) as u64).max(1);

        let mut per_iter_ns = Vec::with_capacity(self.samples);
        let mut total_iters = 0u64;
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let dt = t0.elapsed().as_nanos() as f64;
            per_iter_ns.push(dt / batch as f64);
            total_iters += batch;
        }
        self.record(per_iter_ns, total_iters);
    }

    /// Like [`Bencher::iter`] for a routine that consumes state a setup
    /// builds — a one-time cost such as a plan's lazy first-use work: each
    /// sample calls `setup` outside the timed region, then times one call
    /// of `routine` on its output (dropped untimed). Call exactly once per
    /// `bench_function` closure.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(&mut I) -> R,
    ) {
        let mut once = || {
            let mut input = setup();
            let t0 = Instant::now();
            black_box(routine(&mut input));
            let dt = t0.elapsed();
            drop(input);
            dt
        };
        let mut warm = Duration::ZERO;
        while warm < self.warmup {
            warm += once();
        }
        let per_iter_ns = (0..self.samples).map(|_| once().as_nanos() as f64).collect();
        self.record(per_iter_ns, self.samples as u64);
    }

    fn record(&mut self, mut per_iter_ns: Vec<f64>, iters: u64) {
        per_iter_ns.sort_by(f64::total_cmp);
        self.stats = Some(Stats {
            median_ns: percentile(&per_iter_ns, 0.5),
            p10_ns: percentile(&per_iter_ns, 0.1),
            p90_ns: percentile(&per_iter_ns, 0.9),
            iters,
            samples: self.samples,
        });
    }
}

/// A named group of benchmarks sharing configuration, mirroring Criterion's
/// `benchmark_group`.
pub struct BenchGroup {
    name: String,
    warmup: Duration,
    measurement: Duration,
    samples: usize,
    throughput: Option<u64>,
    sink: Option<PathBuf>,
}

fn fast_mode() -> bool {
    std::env::var("NUFFT_BENCH_FAST").map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

/// Locates the repository's `results/` directory: `NUFFT_BENCH_OUT` if set,
/// else the nearest ancestor of the current directory containing
/// `ROADMAP.md` (the repo root), else the current directory.
fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("NUFFT_BENCH_OUT") {
        return PathBuf::from(dir);
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("ROADMAP.md").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

impl BenchGroup {
    /// Creates a group with the default budget (1 s measurement, 300 ms
    /// warmup, 30 samples; minimal in `NUFFT_BENCH_FAST` mode).
    pub fn new(name: impl Into<String>) -> Self {
        let fast = fast_mode();
        BenchGroup {
            name: name.into(),
            warmup: if fast { Duration::from_millis(1) } else { Duration::from_millis(300) },
            measurement: if fast { Duration::from_millis(5) } else { Duration::from_secs(1) },
            samples: if fast { 3 } else { 30 },
            throughput: None,
            sink: Some(results_dir().join("benchmarks.jsonl")),
        }
    }

    /// Sets the number of timed samples (Criterion's `sample_size`).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if !fast_mode() {
            self.samples = n.max(2);
        }
        self
    }

    /// Sets the total measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        if !fast_mode() {
            self.measurement = d;
        }
        self
    }

    /// Sets the warmup budget per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        if !fast_mode() {
            self.warmup = d;
        }
        self
    }

    /// Declares elements processed per iteration; reported as Melem/s.
    pub fn throughput(&mut self, elements: u64) -> &mut Self {
        self.throughput = Some(elements);
        self
    }

    /// Disables the JSONL sink (used by the harness's own tests).
    pub fn without_sink(&mut self) -> &mut Self {
        self.sink = None;
        self
    }

    /// Runs one benchmark and reports its stats.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> Stats
    where
        F: FnOnce(&mut Bencher),
    {
        let mut b = Bencher {
            warmup: self.warmup,
            measurement: self.measurement,
            samples: self.samples,
            stats: None,
        };
        f(&mut b);
        let stats = b
            .stats
            .unwrap_or_else(|| panic!("bench '{}/{id}' never called Bencher::iter", self.name));
        self.report(&id.to_string(), stats);
        stats
    }

    fn report(&self, id: &str, s: Stats) {
        let label = format!("{}/{}", self.name, id);
        let thr = self
            .throughput
            .map(|e| format!("  {:>9.2} Melem/s", e as f64 / s.median_ns * 1e3))
            .unwrap_or_default();
        println!(
            "{label:<44} median {:>12}  p10 {:>12}  p90 {:>12}  n {:>3}{thr}",
            fmt_ns(s.median_ns),
            fmt_ns(s.p10_ns),
            fmt_ns(s.p90_ns),
            s.samples,
        );
        if let Some(path) = &self.sink {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let unix_s = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let line = format!(
                concat!(
                    "{{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{:.3},",
                    "\"p10_ns\":{:.3},\"p90_ns\":{:.3},\"samples\":{},\"iters\":{},",
                    "\"throughput_elems\":{},\"unix_s\":{}}}"
                ),
                escape_json(&self.name),
                escape_json(id),
                s.median_ns,
                s.p10_ns,
                s.p90_ns,
                s.samples,
                s.iters,
                self.throughput.map(|e| e.to_string()).unwrap_or_else(|| "null".into()),
                unix_s,
            );
            // Benchmarks must not fail because the results dir is read-only.
            if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
                let _ = writeln!(file, "{line}");
            }
        }
    }

    /// End-of-group marker (parity with Criterion; prints a blank line).
    pub fn finish(&mut self) {
        println!();
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_group(name: &str) -> BenchGroup {
        let mut g = BenchGroup::new(name);
        g.without_sink();
        g.warmup = Duration::from_micros(200);
        g.measurement = Duration::from_millis(2);
        g.samples = 5;
        g
    }

    #[test]
    fn stats_are_ordered_and_finite() {
        let mut g = tiny_group("selftest");
        let s = g.bench_function("spin", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..100u64 {
                    acc = acc.wrapping_add(black_box(i));
                }
                acc
            })
        });
        assert!(s.p10_ns <= s.median_ns && s.median_ns <= s.p90_ns);
        assert!(s.median_ns.is_finite() && s.median_ns > 0.0);
        assert_eq!(s.samples, 5);
        assert!(s.iters >= 5);
    }

    #[test]
    fn batched_iterations_time_the_routine_not_the_setup() {
        let mut g = tiny_group("selftest");
        let (mut setups, mut runs) = (0usize, 0usize);
        let s = g.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    std::thread::sleep(Duration::from_millis(2));
                    vec![1u64; 64]
                },
                |v| {
                    runs += 1;
                    v.iter().sum::<u64>()
                },
            )
        });
        assert_eq!(setups, runs, "one fresh input per timed call");
        assert_eq!((s.samples, s.iters), (5, 5));
        assert!(s.median_ns < 1.5e6, "setup's 2 ms sleep leaked into the timing: {s:?}");
    }

    #[test]
    #[should_panic(expected = "never called Bencher::iter")]
    fn forgetting_iter_is_an_error() {
        let mut g = tiny_group("selftest");
        g.bench_function("noop", |_b| {});
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert!((percentile(&v, 0.25) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn json_escaping_handles_quotes() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
    }
}
