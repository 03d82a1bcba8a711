//! Concurrent submission must not change a single bit of any result.
//!
//! The multi-tenant pool interleaves DAGs from many plans on shared
//! workers, but each plan's output is schedule-independent by construction
//! (the Gray-code exclusion edges fix every accumulation order), and
//! tenants share no mutable state (per-job pending counters, scratch and
//! output buffers). So an apply submitted concurrently with arbitrary
//! other applies — against the same registry key or a different one —
//! must be **bitwise-identical** to the same apply run alone. This file
//! pins that across the ISA × worker-count matrix.

use nufft::core::{
    ApplyOp, ApplyRequest, JobPriority, NufftConfig, NufftPlan, NufftService, PlanRegistry,
    Type3Plan, WindowMode,
};
use nufft::math::Complex32;
use nufft::simd::{detect_isa, set_isa_override, IsaLevel};
use std::sync::{Arc, Mutex};

/// The ISA override is process-global; serialize every test that compares
/// applies bitwise.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn isa_guard() -> std::sync::MutexGuard<'static, ()> {
    ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn traj2(count: usize, salt: f64) -> Vec<[f64; 2]> {
    (0..count)
        .map(|i| {
            [((i as f64 * 0.618 + salt) % 1.0) - 0.5, ((i as f64 * 0.414 + 2.0 * salt) % 1.0) - 0.5]
        })
        .collect()
}

fn signal(n: usize, phase: f32) -> Vec<Complex32> {
    (0..n)
        .map(|i| Complex32::new((i as f32 * 0.13 + phase).sin(), (i as f32 * 0.07).cos()))
        .collect()
}

fn assert_bits_eq(a: &[Complex32], b: &[Complex32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert!(
            p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits(),
            "{what}: element {i} differs: {p:?} vs {q:?}"
        );
    }
}

/// Worker count for the stress test: `NUFFT_THREADS` (CI runs 16 to
/// oversubscribe the runner), defaulting to 8.
fn stress_threads() -> usize {
    std::env::var("NUFFT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(8)
}

fn cfg(threads: usize) -> NufftConfig {
    NufftConfig {
        threads,
        w: 3.0,
        // Pin the task decomposition so only scheduling varies.
        partitions_per_dim: Some(4),
        window_mode: WindowMode::Precomputed,
        ..NufftConfig::default()
    }
}

/// One (trajectory, inputs, expected outputs) workload.
struct Workload {
    traj: Vec<[f64; 2]>,
    image: Vec<Complex32>,
    samples: Vec<Complex32>,
    want_fwd: Vec<Complex32>,
    want_adj: Vec<Complex32>,
}

const N: [usize; 2] = [16, 16];
const IMG_LEN: usize = 256;

fn workload(count: usize, salt: f64, threads: usize) -> Workload {
    let traj = traj2(count, salt);
    let image = signal(IMG_LEN, salt as f32);
    let samples = signal(count, 1.0 + salt as f32);
    // Solo references on a fresh plan: nothing else runs while these do.
    let mut plan = NufftPlan::new(N, &traj, cfg(threads));
    let mut want_fwd = vec![Complex32::ZERO; count];
    let mut want_adj = vec![Complex32::ZERO; IMG_LEN];
    plan.forward(&image, &mut want_fwd);
    plan.adjoint(&samples, &mut want_adj);
    Workload { traj, image, samples, want_fwd, want_adj }
}

/// N submitter threads fire mixed forward/adjoint applies against shared
/// and distinct registry keys; every result must equal its solo run.
fn check_concurrent_matches_solo(threads: usize, label: &str) {
    // Two distinct keys: submitters 0,2,4 share workload A's plans,
    // 1,3,5 share workload B's.
    let wl = [workload(350, 0.0, threads), workload(280, 0.137, threads)];
    let registry = PlanRegistry::<2>::new(cfg(threads));

    std::thread::scope(|scope| {
        for s in 0..6usize {
            let wl = &wl[s % 2];
            let registry = &registry;
            let label = &label;
            scope.spawn(move || {
                // Each submitter alternates operators across rounds so
                // forwards and adjoints of both keys overlap in time.
                for round in 0..3 {
                    let mut lease = registry.checkout(N, &wl.traj);
                    if (s + round) % 2 == 0 {
                        let mut out = vec![Complex32::ZERO; wl.traj.len()];
                        lease.forward(&wl.image, &mut out);
                        assert_bits_eq(
                            &out,
                            &wl.want_fwd,
                            &format!("{label}: submitter {s} round {round} forward"),
                        );
                    } else {
                        let mut out = vec![Complex32::ZERO; IMG_LEN];
                        lease.adjoint(&wl.samples, &mut out);
                        assert_bits_eq(
                            &out,
                            &wl.want_adj,
                            &format!("{label}: submitter {s} round {round} adjoint"),
                        );
                    }
                }
            });
        }
    });

    // Both keys were exercised; instances were pooled and reused.
    let stats = registry.stats();
    assert_eq!(stats.keys, 2, "{label}: expected two registry keys");
    assert!(stats.hits + stats.misses >= 18, "{label}: all checkouts counted");
}

#[test]
fn concurrent_applies_are_bitwise_identical_across_isa_and_threads() {
    let _guard = isa_guard();
    let detected = detect_isa();
    for isa in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
        if isa > detected {
            continue;
        }
        set_isa_override(isa).unwrap();
        for threads in [1usize, 2, 4] {
            check_concurrent_matches_solo(threads, &format!("isa={isa:?} threads={threads}"));
        }
    }
    set_isa_override(detected).unwrap();
}

#[test]
fn service_handles_resolve_bitwise_under_mixed_priorities() {
    let _guard = isa_guard();
    let detected = detect_isa();
    set_isa_override(detected).unwrap();

    let threads = 4usize;
    let wl = [workload(320, 0.05, threads), workload(260, 0.21, threads)];
    let trajs: Vec<Arc<Vec<[f64; 2]>>> = wl.iter().map(|w| Arc::new(w.traj.clone())).collect();
    let svc = NufftService::<2>::new(cfg(threads));

    // A Low-priority flood of adjoints plus High-priority forwards, all in
    // flight together; every handle must still resolve to the solo bits.
    let mut handles = Vec::new();
    for round in 0..4usize {
        for (k, w) in wl.iter().enumerate() {
            let (op, input, priority) = if (round + k) % 2 == 0 {
                (ApplyOp::Adjoint, w.samples.clone(), JobPriority::Low)
            } else {
                (ApplyOp::Forward, w.image.clone(), JobPriority::High)
            };
            handles.push((
                k,
                op,
                svc.submit(ApplyRequest { n: N, traj: Arc::clone(&trajs[k]), op, input, priority }),
            ));
        }
    }
    for (k, op, handle) in handles {
        let got = handle.wait();
        match op {
            ApplyOp::Forward => assert_bits_eq(&got, &wl[k].want_fwd, "service forward"),
            ApplyOp::Adjoint => assert_bits_eq(&got, &wl[k].want_adj, "service adjoint"),
        }
    }
}

/// Both transform kinds share the registry's one map and lock: type-1/2
/// tenants, deposition tenants running `spread_only` on the same key's
/// instances, and type-3 tenants all check out and check in at once, and
/// every result must equal its solo run.
#[test]
fn both_kinds_share_one_registry_concurrently() {
    let _guard = isa_guard();
    set_isa_override(detect_isa()).unwrap();

    let threads = stress_threads();
    let wl = workload(350, 0.0, threads);
    // Solo references at the same worker count, each on a fresh plan.
    let mut plan = NufftPlan::new(N, &wl.traj, cfg(threads));
    let grid_len = plan.grid_len();
    let mut want_grid = vec![Complex32::ZERO; grid_len];
    plan.spread_only(&wl.samples, &mut want_grid);
    let sources: Vec<[f64; 2]> =
        traj2(240, 0.3).into_iter().map(|[x, y]| [4.0 * x, 4.0 * y]).collect();
    let targets: Vec<[f64; 2]> =
        traj2(190, 0.7).into_iter().map(|[x, y]| [3.0 * x, 3.0 * y]).collect();
    let strengths = signal(sources.len(), 2.0);
    let t3_samples = signal(targets.len(), 3.0);
    let mut t3 = Type3Plan::new(&sources, &targets, cfg(threads));
    let mut want_t3_fwd = vec![Complex32::ZERO; targets.len()];
    let mut want_t3_adj = vec![Complex32::ZERO; sources.len()];
    t3.forward(&strengths, &mut want_t3_fwd);
    t3.adjoint(&t3_samples, &mut want_t3_adj);

    let registry = PlanRegistry::<2>::new(cfg(threads));
    std::thread::scope(|scope| {
        for s in 0..6usize {
            let registry = &registry;
            let (wl, want_grid) = (&wl, &want_grid);
            let (sources, targets, strengths, t3_samples) =
                (&sources, &targets, &strengths, &t3_samples);
            let (want_t3_fwd, want_t3_adj) = (&want_t3_fwd, &want_t3_adj);
            scope.spawn(move || {
                for round in 0..3 {
                    let what = format!("threads={threads}: submitter {s} round {round}");
                    let forward = (s + round) % 2 == 0;
                    match s % 3 {
                        0 => {
                            let mut lease = registry.checkout(N, &wl.traj);
                            if forward {
                                let mut out = vec![Complex32::ZERO; wl.traj.len()];
                                lease.forward(&wl.image, &mut out);
                                assert_bits_eq(&out, &wl.want_fwd, &format!("{what} forward"));
                            } else {
                                let mut out = vec![Complex32::ZERO; IMG_LEN];
                                lease.adjoint(&wl.samples, &mut out);
                                assert_bits_eq(&out, &wl.want_adj, &format!("{what} adjoint"));
                            }
                        }
                        1 => {
                            let mut lease = registry.checkout(N, &wl.traj);
                            let mut grid = vec![Complex32::ZERO; grid_len];
                            lease.spread_only(&wl.samples, &mut grid);
                            assert_bits_eq(&grid, want_grid, &format!("{what} spread_only"));
                        }
                        _ => {
                            let mut lease = registry.checkout_type3(sources, targets);
                            if forward {
                                let mut out = vec![Complex32::ZERO; targets.len()];
                                lease.forward(strengths, &mut out);
                                assert_bits_eq(&out, want_t3_fwd, &format!("{what} type-3 fwd"));
                            } else {
                                let mut out = vec![Complex32::ZERO; sources.len()];
                                lease.adjoint(t3_samples, &mut out);
                                assert_bits_eq(&out, want_t3_adj, &format!("{what} type-3 adj"));
                            }
                        }
                    }
                }
            });
        }
    });

    // Deposition tenants shared the type-1/2 key; type-3 has its own.
    let stats = registry.stats();
    assert_eq!(stats.keys, 2, "one type-1/2 key and one type-3 key");
    assert_eq!(stats.hits + stats.misses, 18, "all checkouts counted");
    assert_eq!(stats.cached_plans as u64, stats.misses, "every built instance checked back in");
}
