//! `service2d`: the only workload that measures request latency.
//!
//! A `NufftService<2>` with four registry keys primed at set-up, each an
//! N = 48 image (96² fine grid, 72 KiB, in cache) with 2000 uniform
//! samples. Per-request compute is about half a millisecond, so the
//! per-submit OS thread, the registry checkout and fair-share admission are
//! a large share of each request.
//!
//! The timed load is a closed loop: one client sends alternating
//! forward/adjoint requests, each after the previous result. The traced
//! run adds an open loop: seeded Poisson arrivals at [`RATE`], one thread
//! submitting and one collecting, latency timed from each request's due
//! time. The collector takes handles in submission order, as a single
//! client would, so a response that finishes before an earlier one is timed
//! when the earlier one has been taken. An open loop's queue amplifies the
//! shared host's slow stretches several-fold, too much for the end-to-end
//! bounds, so its numbers are per-layer metrics.

use crate::common::{
    oracle_rel_err, quiet_half, report_applies, report_jobs, report_traced_loop, same_bits, Rng,
};
use crate::host::{peak_rss_mb, THREADS};
use crate::probe::{self, checkout_hits_us};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Ctx;
use nufft::core::{ApplyHandle, ApplyOp, ApplyRequest, JobPriority, NufftConfig, NufftService};
use nufft::math::Complex32;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const N: usize = 48;
const KEYS: usize = 4;
const SAMPLES: usize = 2000;
/// Distinct inputs per key and operator; requests cycle through them.
const INPUTS: usize = 4;
/// Offered load of the traced run's open loop, requests per second: about
/// half of what the service sustains on a 2-core host (see README.md).
pub const RATE: f64 = 800.0;
/// Extra service set-ups per segment (see `run`).
const SETUPS_PER_SEGMENT: usize = 2;
/// Segments per run; each starts with set-ups and a burst of solo applies.
const SEGMENTS: usize = 10;
/// Share of the run spent on solo applies (the `fwd_ms`/`adj_ms` samples).
const SOLO_SHARE: f64 = 0.2;
pub const REL_ERR_MAX: f64 = 1e-3;

/// One key's trajectory, inputs and solo reference outputs.
struct Key {
    traj: Arc<Vec<[f64; 2]>>,
    images: Vec<Vec<Complex32>>,
    samples: Vec<Vec<Complex32>>,
    want_fwd: Vec<Vec<Complex32>>,
    want_adj: Vec<Vec<Complex32>>,
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Arrival {
    due: Duration,
    key: usize,
    op: ApplyOp,
    input: usize,
}

/// A submitted request on its way from the generator to the collector.
struct InFlight {
    index: usize,
    span: usize,
    due: Instant,
    submitted: Instant,
    submit_s: f64,
    handle: ApplyHandle,
}

/// Latencies and counts of a stretch of requests.
#[derive(Default)]
struct RequestStats {
    latency_s: Vec<f64>,
    late_s: Vec<f64>,
    submit_s: Vec<f64>,
    wait_s: Vec<f64>,
    elapsed_s: f64,
}

impl RequestStats {
    fn append(&mut self, other: &RequestStats) {
        self.latency_s.extend(&other.latency_s);
        self.late_s.extend(&other.late_s);
        self.submit_s.extend(&other.submit_s);
        self.wait_s.extend(&other.wait_s);
        self.elapsed_s += other.elapsed_s;
    }
}

/// One segment of a run: a burst of solo applies, then closed-loop requests.
#[derive(Default)]
struct Segment {
    fwd_s: Vec<f64>,
    adj_s: Vec<f64>,
    requests: RequestStats,
    traced: bool,
}

pub fn run(ctx: &mut Ctx) {
    let mut rng = Rng::new(ctx.seed);
    let n = [N; 2];
    let cfg = NufftConfig { threads: THREADS, ..NufftConfig::default() };
    let mut keys: Vec<Key> = (0..KEYS)
        .map(|_| {
            let traj: Vec<[f64; 2]> =
                (0..SAMPLES).map(|_| [rng.unit() - 0.5, rng.unit() - 0.5]).collect();
            Key {
                traj: Arc::new(traj),
                images: (0..INPUTS).map(|_| rng.complex_vec(N * N)).collect(),
                samples: (0..INPUTS).map(|_| rng.complex_vec(SAMPLES)).collect(),
                want_fwd: Vec::new(),
                want_adj: Vec::new(),
            }
        })
        .collect();
    let report = &mut ctx.report;

    // Set-up takes milliseconds, so besides the service the run uses, each
    // segment below sets up (and drops) more, and `setup_s` is the median
    // of them all.
    let mut times: [Vec<f64>; 5] = Default::default();
    let svc = prime(cfg, &keys, &mut times);

    // Solo applies through the registry with nothing else in flight give
    // the references every response must equal.
    let mut err: f64 = 0.0;
    for key in keys.iter_mut() {
        let mut lease = svc.registry().checkout(n, &key.traj);
        for i in 0..INPUTS {
            let mut out = vec![Complex32::ZERO; SAMPLES];
            lease.forward(&key.images[i], &mut out);
            key.want_fwd.push(out);
            let mut img = vec![Complex32::ZERO; N * N];
            lease.adjoint(&key.samples[i], &mut img);
            key.want_adj.push(img);
        }
        err = err.max(oracle_rel_err(&mut lease, n, &key.traj, SAMPLES, &mut rng));
    }
    report.check(err < REL_ERR_MAX, format_args!("oracle error {err:e} ≥ {REL_ERR_MAX:e}"));
    report.set("rel_err", err);
    report.set("peak_rss_mb", peak_rss_mb());

    // The run is cut into segments, each a burst of solo applies and then
    // a stretch of closed-loop requests, so both are sampled across the
    // whole run. A traced run traces the second half of the segments.
    let untraced = Tracer::new(false);
    let mut segs: Vec<Segment> = Vec::new();
    let mut next_id = 1;
    for i in 0..SEGMENTS {
        let traced = ctx.tracer.enabled() && i >= SEGMENTS / 2;
        let tracer = if traced { &ctx.tracer } else { &untraced };
        for _ in 0..SETUPS_PER_SEGMENT {
            drop(prime(cfg, &keys, &mut times));
        }
        let mut seg = Segment { traced, ..Segment::default() };
        let solo_s = ctx.seconds * SOLO_SHARE / SEGMENTS as f64;
        solo_burst(&svc, &keys, solo_s, &mut seg.fwd_s, &mut seg.adj_s, report);
        let loop_s = ctx.seconds * (1.0 - SOLO_SHARE) / SEGMENTS as f64;
        seg.requests = closed_requests(&svc, &keys, loop_s, next_id, tracer, report);
        next_id += seg.requests.latency_s.len() as u64;
        segs.push(seg);
    }
    let [total, build, pre, first_fwd, first_adj] = times.map(|v| median(&v));
    report.set("setup_s", total);
    report.set("plan.build_s", build);
    report.set("plan.preprocess_s", pre);
    report.set("plan.first_fwd_s", first_fwd);
    report.set("plan.first_adj_s", first_adj);

    // End-to-end metrics over the quiet half of the segments, ranked by
    // their solo apply times (a probe of the host's speed that queueing
    // does not touch); a traced run compares its two halves.
    let slowness: Vec<f64> =
        segs.iter().map(|g| median(&[g.fwd_s.as_slice(), &g.adj_s].concat())).collect();
    let keep = quiet_half(&slowness);
    let (mut fwd_s, mut adj_s, mut quiet) = (Vec::new(), Vec::new(), RequestStats::default());
    let mut halves = [RequestStats::default(), RequestStats::default()];
    for (i, g) in segs.iter().enumerate() {
        if keep.contains(&i) {
            fwd_s.extend(&g.fwd_s);
            adj_s.extend(&g.adj_s);
            quiet.append(&g.requests);
        }
        halves[usize::from(g.traced)].append(&g.requests);
    }
    report_applies(report, &fwd_s, &adj_s);
    let [untraced, traced] = halves;
    let (stats, overhead_ms) = if ctx.tracer.enabled() {
        let overhead = (median(&traced.latency_s) - median(&untraced.latency_s)) * 1e3;
        (traced, overhead)
    } else {
        (quiet, f64::NAN)
    };
    report_jobs(report, &stats.latency_s, stats.elapsed_s);

    if ctx.tracer.enabled() {
        report_traced_loop(report, &ctx.tracer, &stats.late_s, overhead_ms, "svc.request");
        let arrivals = schedule(&mut rng, ctx.seconds / 2.0);
        let open = open_loop(&svc, &keys, &arrivals, next_id, &ctx.tracer, report);
        let ms = |v: &[f64], p: f64| percentile(v, p) * 1e3;
        report.set("loadgen.late_ms_p99", ms(&open.late_s, 99.0));
        report.set("service.submit_us_p50", median(&open.submit_s) * 1e6);
        report.set("service.wait_ms_p50", median(&open.wait_s) * 1e3);
        report.set("service.ms_p99", ms(&open.latency_s, 99.0));
        report.headline("svc_ms_p50", ms(&open.latency_s, 50.0), "ms");
        report.headline("svc_ms_p99", ms(&open.latency_s, 99.0), "ms");
        report.headline("svc_rps", open.latency_s.len() as f64 / open.elapsed_s, "1/s");
        report.headline("svc_offered_rps", RATE, "1/s");
        let checkout = checkout_hits_us(svc.registry(), n, &keys[0].traj, &ctx.tracer, 32);
        report.set("registry.checkout_us_p50", median(&checkout));
        let reg = svc.registry().stats();
        report.set("registry.hits", reg.hits as f64);
        report.set("registry.misses", reg.misses as f64);
        let mut lease = svc.registry().checkout(n, &keys[0].traj);
        probe::operator(&mut lease, &mut rng, &ctx.tracer, 40, report);
        probe::batch(&mut lease, &mut rng, &ctx.tracer, KEYS, 20, report);
        for name in ["recon.cg_iters", "recon.nufft_calls", "recon.err"] {
            report.set(name, 0.0);
        }
    }
}

/// Sets up a fresh service: every key checked out once (plan build) and
/// applied once each way (lazy fused graphs), then checked back in. Pushes
/// the total and the per-key plan times onto `times`.
fn prime(cfg: NufftConfig, keys: &[Key], times: &mut [Vec<f64>; 5]) -> NufftService<2> {
    let t0 = Instant::now();
    let service = NufftService::<2>::new(cfg);
    for key in keys {
        let t1 = Instant::now();
        let mut lease = service.registry().checkout([N; 2], &key.traj);
        let build = t1.elapsed().as_secs_f64();
        let mut out = vec![Complex32::ZERO; SAMPLES];
        let t2 = Instant::now();
        lease.forward(&key.images[0], &mut out);
        let first_fwd = t2.elapsed().as_secs_f64();
        let mut img = vec![Complex32::ZERO; N * N];
        let t3 = Instant::now();
        lease.adjoint(&key.samples[0], &mut img);
        let first_adj = t3.elapsed().as_secs_f64();
        for (v, x) in
            times[1..].iter_mut().zip([build, lease.preprocess_seconds(), first_fwd, first_adj])
        {
            v.push(x);
        }
    }
    times[0].push(t0.elapsed().as_secs_f64());
    service
}

/// Solo applies, cycling over every key and input for `seconds`, each
/// checked bitwise against the reference.
fn solo_burst(
    svc: &NufftService<2>,
    keys: &[Key],
    seconds: f64,
    fwd_s: &mut Vec<f64>,
    adj_s: &mut Vec<f64>,
    report: &mut Report,
) {
    let mut out = vec![Complex32::ZERO; SAMPLES];
    let mut img = vec![Complex32::ZERO; N * N];
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut j = 0;
    while Instant::now() < until {
        let (k, i) = (j % KEYS, (j / KEYS) % INPUTS);
        j += 1;
        let key = &keys[k];
        let mut lease = svc.registry().checkout([N; 2], &key.traj);
        let t0 = Instant::now();
        lease.forward(&key.images[i], &mut out);
        fwd_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        lease.adjoint(&key.samples[i], &mut img);
        adj_s.push(t0.elapsed().as_secs_f64());
        let same = same_bits(&out, &key.want_fwd[i]) && same_bits(&img, &key.want_adj[i]);
        report.check(same, format_args!("key {k} input {i}: solo apply differs from the first"));
    }
}

/// The `i`-th request of a run: `(key, op, input)`, alternating forward
/// and adjoint and cycling through keys and inputs.
fn request_of(i: usize) -> (usize, ApplyOp, usize) {
    let op = if i.is_multiple_of(2) { ApplyOp::Forward } else { ApplyOp::Adjoint };
    ((i / 2) % KEYS, op, (i / (2 * KEYS)) % INPUTS)
}

/// The request for `(key, op, input)`, with its expected response.
fn request(keys: &[Key], key: usize, op: ApplyOp, input: usize) -> (ApplyRequest<2>, &[Complex32]) {
    let k = &keys[key];
    let (input, want) = match op {
        ApplyOp::Forward => (k.images[input].clone(), &k.want_fwd[input]),
        ApplyOp::Adjoint => (k.samples[input].clone(), &k.want_adj[input]),
    };
    let req = ApplyRequest {
        n: [N; 2],
        traj: Arc::clone(&k.traj),
        op,
        input,
        priority: JobPriority::Normal,
    };
    (req, want)
}

/// One client sending requests back to back for `seconds`, each checked
/// bitwise against its solo apply. Request IDs start at `first_id`.
fn closed_requests(
    svc: &NufftService<2>,
    keys: &[Key],
    seconds: f64,
    first_id: u64,
    tracer: &Tracer,
    report: &mut Report,
) -> RequestStats {
    let mut stats = RequestStats::default();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut prev = start;
    let mut i = 0;
    while Instant::now() < until {
        let (key, op, input) = request_of(i);
        let (req, want) = request(keys, key, op, input);
        let span = tracer.reserve();
        let req_id = first_id + i as u64;
        let t0 = Instant::now();
        let (handle, submit_s) =
            tracer.time("service.submit", Some(span), req_id, || svc.submit(req));
        let (got, wait_s) = tracer.time("service.wait", Some(span), req_id, || {
            catch_unwind(AssertUnwindSafe(|| handle.wait()))
        });
        let done = Instant::now();
        tracer.record(span, "svc.request", None, req_id, t0, done);
        report.check(
            got.is_ok_and(|g| same_bits(&g, want)),
            format_args!("request {req_id} ({op:?}, key {key}) differs from its solo apply"),
        );
        stats.latency_s.push(done.duration_since(t0).as_secs_f64());
        stats.late_s.push(t0.duration_since(prev).as_secs_f64());
        stats.submit_s.push(submit_s);
        stats.wait_s.push(wait_s);
        prev = done;
        i += 1;
    }
    stats.elapsed_s = start.elapsed().as_secs_f64();
    stats
}

/// Seeded Poisson arrivals at [`RATE`] over `seconds`.
fn schedule(rng: &mut Rng, seconds: f64) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / RATE;
        if t >= seconds {
            return out;
        }
        let (key, op, input) = request_of(out.len());
        out.push(Arrival { due: Duration::from_secs_f64(t), key, op, input });
    }
}

/// Offers `arrivals` to `svc` from a generator thread while this thread
/// collects, checking every response bitwise against its solo apply.
/// Request IDs start at `first_id`.
fn open_loop(
    svc: &NufftService<2>,
    keys: &[Key],
    arrivals: &[Arrival],
    first_id: u64,
    tracer: &Tracer,
    report: &mut Report,
) -> RequestStats {
    let mut stats = RequestStats::default();
    let (tx, rx) = mpsc::channel::<InFlight>();
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (index, a) in arrivals.iter().enumerate() {
                let (req, _) = request(keys, a.key, a.op, a.input);
                let due = start + a.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let span = tracer.reserve();
                let submitted = Instant::now();
                let (handle, submit_s) =
                    tracer.time("service.submit", Some(span), first_id + index as u64, || {
                        svc.submit(req)
                    });
                let sent = InFlight { index, span, due, submitted, submit_s, handle };
                if tx.send(sent).is_err() {
                    return;
                }
            }
        });
        for f in rx {
            let req_id = first_id + f.index as u64;
            let t_wait = Instant::now();
            let got = catch_unwind(AssertUnwindSafe(|| f.handle.wait()));
            let done = Instant::now();
            tracer.record(tracer.reserve(), "service.wait", Some(f.span), req_id, t_wait, done);
            tracer.record(f.span, "svc.request", None, req_id, f.due, done);
            let a = &arrivals[f.index];
            let want = match a.op {
                ApplyOp::Forward => &keys[a.key].want_fwd[a.input],
                ApplyOp::Adjoint => &keys[a.key].want_adj[a.input],
            };
            report.check(
                got.is_ok_and(|g| same_bits(&g, want)),
                format_args!(
                    "request {} ({:?}, key {}) differs from its solo apply",
                    f.index, a.op, a.key
                ),
            );
            stats.latency_s.push(done.saturating_duration_since(f.due).as_secs_f64());
            stats.late_s.push(f.submitted.saturating_duration_since(f.due).as_secs_f64());
            stats.submit_s.push(f.submit_s);
            stats.wait_s.push(done.duration_since(t_wait).as_secs_f64());
            stats.elapsed_s = done.saturating_duration_since(start).as_secs_f64();
        }
    });
    stats
}
