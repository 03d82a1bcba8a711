//! Metric names and units, the correctness tally, and the output lines.
//!
//! Every workload emits every metric of the list its mode prints: the
//! end-to-end list without tracing, the per-layer list with it. A layer a
//! workload does not exercise reports 0 for its counts (its timed calls are
//! probed on every workload's own operator, so times are always measured).

use crate::json::{num, quote};
use std::collections::BTreeMap;
use std::fmt::Display;

/// End-to-end metrics, printed by `--trace 0`. Units match
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fwd_ms_p50", "ms"),
    ("fwd_ms_p90", "ms"),
    ("adj_ms_p50", "ms"),
    ("adj_ms_p90", "ms"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("jobs_per_s", "1/s"),
    ("rel_err", "1"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.build_s", "s"),
    ("plan.preprocess_s", "s"),
    ("plan.first_fwd_s", "s"),
    ("plan.first_adj_s", "s"),
    ("plan.window_table_bytes", "B"),
    ("plan.kernel_eval_bytes", "B"),
    ("spread.ms_p50", "ms"),
    ("spread.taps", "count"),
    ("spread.ns_per_tap", "ns"),
    ("spread.bytes", "B_computed"),
    ("spread.flop_per_byte", "flop/B_computed"),
    ("interp.ms_p50", "ms"),
    ("interp.ns_per_tap", "ns"),
    ("interp.bytes", "B_computed"),
    ("interp.flop_per_byte", "flop/B_computed"),
    ("sort.gather_revisits", "count"),
    ("sort.scatter_revisits", "count"),
    ("fft.fwd_ms_p50", "ms"),
    ("fft.bwd_ms_p50", "ms"),
    ("fft.flops", "flop"),
    ("fft.gflop_s", "Gflop/s"),
    ("fft.bytes", "B_computed"),
    ("fft.flop_per_byte", "flop/B_computed"),
    ("deconv.embed_ms_p50", "ms"),
    ("deconv.extract_ms_p50", "ms"),
    ("deconv.bytes", "B_computed"),
    ("op.fwd_ms_p50", "ms"),
    ("op.adj_ms_p50", "ms"),
    ("op.fwd_unattributed_ms", "ms"),
    ("op.adj_unattributed_ms", "ms"),
    ("runtime.adj_efficiency", "1"),
    ("runtime.adj_makespan_ms", "ms"),
    ("batch.channels", "count"),
    ("batch.fwd_ms_p50", "ms"),
    ("batch.adj_ms_p50", "ms"),
    ("batch.per_channel_ratio", "1"),
    ("recon.cg_iters", "count"),
    ("recon.nufft_calls", "count"),
    ("recon.err", "1"),
    ("registry.checkout_us_p50", "us"),
    ("registry.hits", "count"),
    ("registry.misses", "count"),
    ("service.submit_us_p50", "us"),
    ("service.wait_ms_p50", "ms"),
    ("service.ms_p99", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("job.self_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
];

/// Failure messages printed per run before the rest are only counted.
const MAX_FAILURE_LINES: usize = 20;

/// One run's metrics and correctness tally.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// The workload's headline numbers under their usual names
    /// (`recon_s`, `svc_ms_p99`, …), printed for people, not gated.
    headline: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    /// Panics on a name missing from both lists (a typo in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a headline number under its usual name.
    pub fn headline(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.headline.push((name, value, unit));
    }

    /// Counts one checked operation, and a failure if `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed as usize <= MAX_FAILURE_LINES {
                eprintln!("perfbench: check failed: {what}");
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric list a mode prints, with each value (NaN when missing).
    fn selected(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let list = if trace { PER_LAYER } else { END_TO_END };
        list.iter().map(|&(n, u)| (n, self.get(n).unwrap_or(f64::NAN), u)).collect()
    }

    /// Counts a missing or non-finite metric of the printed list as a
    /// failure; a run never reports a number it did not measure.
    pub fn check_complete(&mut self, trace: bool) {
        for (name, value, _) in self.selected(trace) {
            self.check(value.is_finite(), format_args!("metric {name} was not measured"));
        }
    }

    /// The human-readable lines: every metric with its unit, then the
    /// headline numbers and the failure share.
    pub fn human_lines(&self, workload: &str, trace: bool) -> Vec<String> {
        let mut out = Vec::new();
        for (name, value, unit) in self.selected(trace) {
            out.push(format!("{workload} {name:<26} {value:>14.6} {unit}"));
        }
        for &(name, value, unit) in &self.headline {
            out.push(format!("{workload} {name:<26} {value:>14.6} {unit}"));
        }
        out.push(format!(
            "{workload} {:<26} {:>14.6} 1 ({} of {} checks failed)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        ));
        out
    }

    /// The result object: the last line of standard output.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .selected(trace)
            .into_iter()
            .map(|(n, v, u)| {
                format!("{}: {{\"value\": {}, \"unit\": {}}}", quote(n), num(v), quote(u))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn names_are_unique_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(unit.len() <= 16);
            assert!(unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.check(true, "ok");
        r.check_complete(false);
        let doc = parse(&r.result_json(false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&crate::json::Json::Bool(true)));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));
        let m = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(m.get(name).unwrap().get("value").unwrap().as_f64(), Some(1.5));
            assert_eq!(m.get(name).unwrap().get("unit").unwrap().as_str(), Some(*unit));
        }
    }

    #[test]
    fn missing_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        r.check_complete(false);
        assert_eq!(r.failed as usize, END_TO_END.len() - 1);
        assert!(r.result_json(false).contains("\"correct\": false"));
    }
}
