//! Inputs from the seed, the correctness checks every workload shares, and
//! the closed loop that times a workload's jobs.

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use nufft::baselines::direct;
use nufft::core::{NufftConfig, NufftPlan};
use nufft::math::error::rel_l2_mixed;
use nufft::math::Complex32;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Times each workload builds its steady state; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// SplitMix64: the benchmark's seeded generator for everything it makes
/// up (images, sample values, subsets, arrival times).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// `len` complex values with parts uniform in `[-1, 1)`.
    pub fn complex_vec(&mut self, len: usize) -> Vec<Complex32> {
        (0..len)
            .map(|_| {
                Complex32::new((2.0 * self.unit() - 1.0) as f32, (2.0 * self.unit() - 1.0) as f32)
            })
            .collect()
    }

    /// `count` distinct indices below `n`, ascending.
    pub fn subset(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < count.min(n) {
            picked.insert(self.below(n));
        }
        picked.into_iter().collect()
    }
}

/// Bitwise equality of two outputs (the repeat-determinism and
/// concurrent-submit contracts are bitwise, not approximate).
pub fn same_bits(a: &[Complex32], b: &[Complex32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits())
}

/// Relative L2 error of `plan`'s forward and adjoint against the direct
/// DTFT oracle (`nufft_baselines::direct`) on a seeded subset of `points`
/// trajectory points: the forward is compared at the subset, the adjoint is
/// applied to samples that are nonzero only on it. Returns the larger error.
pub fn oracle_rel_err<const D: usize>(
    plan: &mut NufftPlan<D>,
    n: [usize; D],
    traj: &[[f64; D]],
    points: usize,
    rng: &mut Rng,
) -> f64 {
    let subset = rng.subset(traj.len(), points);
    let sub_traj: Vec<[f64; D]> = subset.iter().map(|&i| traj[i]).collect();

    let image = rng.complex_vec(plan.image_len());
    let mut out = vec![Complex32::ZERO; plan.num_samples()];
    plan.forward(&image, &mut out);
    let got: Vec<Complex32> = subset.iter().map(|&i| out[i]).collect();
    let fwd_err = rel_l2_mixed(&got, &direct::forward(&image, n, &sub_traj));

    let sub_samples = rng.complex_vec(subset.len());
    let mut samples = vec![Complex32::ZERO; plan.num_samples()];
    for (&i, &y) in subset.iter().zip(&sub_samples) {
        samples[i] = y;
    }
    let mut img = vec![Complex32::ZERO; plan.image_len()];
    plan.adjoint(&samples, &mut img);
    let adj_err = rel_l2_mixed(&img, &direct::adjoint(&sub_samples, n, &sub_traj));
    fwd_err.max(adj_err)
}

/// A plan in steady state with its first outputs, which every later apply
/// of the same input must equal bitwise.
pub struct Steady<const D: usize> {
    pub plan: NufftPlan<D>,
    pub want_fwd: Vec<Complex32>,
    pub want_adj: Vec<Complex32>,
}

/// Builds the workload's plan [`SETUP_REPS`] times, each time up to steady
/// state: `NufftPlan::new`, the first forward and adjoint (which build the
/// lazy fused graphs), then `extra` (the workload's other first applies).
/// Records `setup_s` and the `plan.*` times as medians, and checks that
/// every rebuild gives the same first outputs.
#[allow(clippy::too_many_arguments)]
pub fn setup<const D: usize>(
    n: [usize; D],
    traj: &[[f64; D]],
    cfg: NufftConfig,
    image: &[Complex32],
    samples: &[Complex32],
    report: &mut Report,
    mut extra: impl FnMut(&mut NufftPlan<D>),
) -> Steady<D> {
    let mut times: [Vec<f64>; 5] = Default::default();
    let mut last: Option<Steady<D>> = None;
    for rep in 0..SETUP_REPS {
        // Free the previous instance first so peak memory stays that of one.
        let prev = last.take().map(|s| (s.want_fwd, s.want_adj));
        let t0 = Instant::now();
        let mut plan = NufftPlan::new(n, traj, cfg);
        let build = t0.elapsed().as_secs_f64();
        let mut want_fwd = vec![Complex32::ZERO; plan.num_samples()];
        let mut want_adj = vec![Complex32::ZERO; plan.image_len()];
        let t1 = Instant::now();
        plan.forward(image, &mut want_fwd);
        let first_fwd = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        plan.adjoint(samples, &mut want_adj);
        let first_adj = t2.elapsed().as_secs_f64();
        extra(&mut plan);
        let total = t0.elapsed().as_secs_f64();
        for (v, x) in
            times.iter_mut().zip([total, build, plan.preprocess_seconds(), first_fwd, first_adj])
        {
            v.push(x);
        }
        if let Some((f, a)) = prev {
            report.check(
                same_bits(&f, &want_fwd) && same_bits(&a, &want_adj),
                format_args!("rebuild {rep} changed the first outputs"),
            );
        }
        last = Some(Steady { plan, want_fwd, want_adj });
    }
    let [total, build, pre, first_fwd, first_adj] = times.map(|v| median(&v));
    report.set("setup_s", total);
    report.set("plan.build_s", build);
    report.set("plan.preprocess_s", pre);
    report.set("plan.first_fwd_s", first_fwd);
    report.set("plan.first_adj_s", first_adj);
    last.expect("SETUP_REPS > 0")
}

/// Timings of one closed loop.
#[derive(Default)]
pub struct LoopStats {
    /// Wall time of each job, seconds.
    pub job_s: Vec<f64>,
    /// How late each job started after the previous one ended, seconds —
    /// the benchmark's own overhead between jobs.
    pub late_s: Vec<f64>,
}

/// Runs `job` back to back until `seconds` have passed (at least once).
/// Each job is a `job` span; `job` receives the span ID to parent its
/// layer calls to, and the tracer to record them with.
pub fn closed_loop(
    seconds: f64,
    tracer: &Tracer,
    mut job: impl FnMut(Option<SpanId>, &Tracer),
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut prev_end = start;
    loop {
        let id = tracer.reserve();
        let t0 = Instant::now();
        job(Some(id), tracer);
        let t1 = Instant::now();
        tracer.record(id, "job", None, 0, t0, t1);
        stats.job_s.push(t1.duration_since(t0).as_secs_f64());
        stats.late_s.push(t0.duration_since(prev_end).as_secs_f64());
        prev_end = t1;
        if t1 >= deadline {
            break;
        }
    }
    stats
}

/// The workload's job loop. Untraced, it runs for `seconds`. Traced, it
/// runs half the time without spans and half with them, and also returns
/// the tracing overhead: the traced median job time minus the untraced
/// one, in milliseconds. The returned stats are those of the last half.
pub fn job_loop(
    seconds: f64,
    tracer: &Tracer,
    mut job: impl FnMut(Option<SpanId>, &Tracer),
) -> (LoopStats, f64) {
    if !tracer.enabled() {
        return (closed_loop(seconds, tracer, job), f64::NAN);
    }
    let untraced = closed_loop(seconds / 2.0, &Tracer::new(false), &mut job);
    let traced = closed_loop(seconds / 2.0, tracer, &mut job);
    let overhead_ms = (median(&traced.job_s) - median(&untraced.job_s)) * 1e3;
    (traced, overhead_ms)
}

/// Records the traced loop's `trace.overhead_ms`, `loadgen.late_ms_p99`
/// and `job.self_ms_p50` (self time of the spans named `job_span`).
pub fn report_traced_loop(
    report: &mut Report,
    tracer: &Tracer,
    late_s: &[f64],
    overhead_ms: f64,
    job_span: &str,
) {
    report.set("trace.overhead_ms", overhead_ms);
    report.set("loadgen.late_ms_p99", percentile(late_s, 99.0) * 1e3);
    let selfs = tracer.self_times_ms();
    report.set("job.self_ms_p50", selfs.get(job_span).map_or(f64::NAN, |v| median(v)));
}

/// Groups consecutive jobs into windows of at least `window_s` seconds of
/// job time (the last window may be shorter).
pub fn windows(job_s: &[f64], window_s: f64) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let (mut start, mut acc) = (0, 0.0);
    for (i, &t) in job_s.iter().enumerate() {
        acc += t;
        if acc >= window_s {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0.0;
        }
    }
    if start < job_s.len() {
        out.push(start..job_s.len());
    }
    out
}

/// The quiet half of a run: indices (ascending) of the half of the windows
/// with the lowest `slowness`, at least one.
///
/// The host this benchmark was built on is shared: other tenants slow
/// whole stretches of a run by up to about 1.5×, for seconds at a time.
/// Metrics over every sample then mostly measure how much of a run such
/// stretches covered. The quiet half of the windows measures the program.
pub fn quiet_half(slowness: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..slowness.len()).collect();
    idx.sort_by(|&a, &b| slowness[a].total_cmp(&slowness[b]));
    idx.truncate(slowness.len().div_ceil(2));
    idx.sort_unstable();
    idx
}

/// Indices (ascending) of the jobs in the quiet half of a run cut into
/// windows of `window_s` seconds, each ranked by its median job time.
pub fn quiet_jobs(job_s: &[f64], window_s: f64) -> Vec<usize> {
    let wins = windows(job_s, window_s);
    let slowness: Vec<f64> = wins.iter().map(|w| median(&job_s[w.clone()])).collect();
    quiet_half(&slowness).into_iter().flat_map(|i| wins[i].clone()).collect()
}

/// The elements of `v` at `idx`.
pub fn pick(v: &[f64], idx: &[usize]) -> Vec<f64> {
    idx.iter().map(|&i| v[i]).collect()
}

/// Records `job_ms_p50`, `job_ms_p90` and `jobs_per_s`: job times in
/// seconds, and the time over which they completed.
pub fn report_jobs(report: &mut Report, job_s: &[f64], elapsed_s: f64) {
    let ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    report.set("job_ms_p50", median(&ms));
    report.set("job_ms_p90", percentile(&ms, 90.0));
    report.set("jobs_per_s", job_s.len() as f64 / elapsed_s);
    report.headline("jobs_counted", job_s.len() as f64, "count");
}

/// Records `<prefix>_ms_p50` and `<prefix>_ms_p90` of apply times given in
/// seconds.
pub fn report_applies(report: &mut Report, fwd_s: &[f64], adj_s: &[f64]) {
    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    report.set("fwd_ms_p50", median(&ms(fwd_s)));
    report.set("fwd_ms_p90", percentile(&ms(fwd_s), 90.0));
    report.set("adj_ms_p50", median(&ms(adj_s)));
    report.set("adj_ms_p90", percentile(&ms(adj_s), 90.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        let s = Rng::new(1).subset(100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn windows_cover_every_job_in_order() {
        let w = windows(&[0.5, 0.6, 0.2, 1.5, 0.1], 1.0);
        assert_eq!(w, vec![0..2, 2..4, 4..5]);
        assert!(windows(&[], 1.0).is_empty());
    }

    #[test]
    fn quiet_half_keeps_the_fastest_windows() {
        assert_eq!(quiet_half(&[3.0, 1.0, 2.0, 4.0]), vec![1, 2]);
        assert_eq!(quiet_half(&[3.0, 1.0, 2.0]), vec![1, 2]);
        assert_eq!(quiet_half(&[5.0]), vec![0]);
    }

    #[test]
    fn bitwise_check_sees_sign_of_zero() {
        let a = [Complex32::new(0.0, 1.0)];
        let b = [Complex32::new(-0.0, 1.0)];
        assert!(same_bits(&a, &a));
        assert!(!same_bits(&a, &b));
    }

    #[test]
    fn closed_loop_runs_until_deadline() {
        let t = Tracer::new(true);
        let mut n = 0;
        let stats = closed_loop(0.02, &t, |_, _| {
            n += 1;
            std::thread::sleep(Duration::from_millis(2));
        });
        assert_eq!(stats.job_s.len(), n);
        assert!(n >= 5);
        assert!(stats.job_s.iter().sum::<f64>() >= 0.02);
        assert_eq!(t.spans().len(), n);
    }
}
