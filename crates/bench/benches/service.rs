//! Multi-tenant service throughput and request-latency quantiles.
//!
//! Models the NUFFT-as-a-service deployment: `T` tenant threads fire
//! forward/adjoint requests against a shared `PlanRegistry`, so every
//! request rides the full multi-tenant path — key fingerprint, cached-plan
//! checkout, apply on the shared persistent pool under the fair-share
//! stride scheduler, check-in on drop. Tenants alternate operators and
//! split across two registry keys, so at higher tenant counts the pool
//! interleaves many concurrent DAG jobs.
//!
//! Arms: {small 32², large 128²} × {1, 2, 4, 8, 16 tenants}, all on one
//! 4-worker executor. Reported per arm: aggregate requests/second and the
//! p50/p99 of individual request latencies. The interesting shape is how
//! p99 degrades as tenants oversubscribe the pool while req/s holds —
//! that is the fairness story (no tenant starves, everyone queues a
//! little).
//!
//! Summaries land in `BENCH_service.json` at the repository root (see
//! `scripts/bench.sh`).

use nufft_core::{NufftConfig, PlanRegistry, WindowMode};
use nufft_math::Complex32;
use nufft_testkit::Rng;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

const EXEC_THREADS: usize = 4;
const TENANT_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

struct ArmResult {
    req_per_s: f64,
    p50_ns: f64,
    p99_ns: f64,
    requests: usize,
}

fn quantile(sorted_ns: &[f64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)]
}

/// One grid case: two workloads (distinct trajectories → distinct registry
/// keys), `tenants` threads × `reqs` requests each, everything through one
/// shared registry on one shared pool.
fn bench_case<const D: usize>(
    id: &str,
    n: [usize; D],
    sample_count: usize,
    tenants: usize,
    reqs: usize,
) -> ArmResult {
    let mut rng = Rng::seed_from_u64(0x05E4_F1CE + sample_count as u64);
    let trajs: [Vec<[f64; D]>; 2] = [
        rng.gen_points::<D>(sample_count, -0.5..0.4999),
        rng.gen_points::<D>(sample_count, -0.5..0.4999),
    ];
    let image_len: usize = n.iter().product();
    let image = rng.gen_c32_vec(image_len, 1.0);
    let samples = rng.gen_c32_vec(sample_count, 1.0);

    let cfg = NufftConfig {
        threads: EXEC_THREADS,
        partitions_per_dim: Some(4),
        window_mode: WindowMode::Precomputed,
        ..NufftConfig::default()
    };
    let registry = PlanRegistry::<D>::new(cfg);
    // Prime both keys outside the measured region: plan construction and
    // window-table builds are a one-time cost the service amortizes.
    for traj in &trajs {
        let mut lease = registry.checkout(n, traj);
        let mut out = vec![Complex32::ZERO; sample_count];
        lease.forward(&image, &mut out);
    }

    let latencies = Mutex::new(Vec::<f64>::with_capacity(tenants * reqs));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for tenant in 0..tenants {
            let registry = &registry;
            let trajs = &trajs;
            let image = &image;
            let samples = &samples;
            let latencies = &latencies;
            scope.spawn(move || {
                let traj = &trajs[tenant % 2];
                let mut out_samples = vec![Complex32::ZERO; samples.len()];
                let mut out_image = vec![Complex32::ZERO; image.len()];
                let mut local = Vec::with_capacity(reqs);
                for r in 0..reqs {
                    let start = Instant::now();
                    let mut lease = registry.checkout(n, traj);
                    if (tenant + r) % 2 == 0 {
                        lease.forward(image, &mut out_samples);
                    } else {
                        lease.adjoint(samples, &mut out_image);
                    }
                    drop(lease);
                    local.push(start.elapsed().as_secs_f64() * 1e9);
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    let mut ns = latencies.into_inner().unwrap();
    ns.sort_by(f64::total_cmp);
    let requests = ns.len();
    let result = ArmResult {
        req_per_s: requests as f64 / wall,
        p50_ns: quantile(&ns, 0.50),
        p99_ns: quantile(&ns, 0.99),
        requests,
    };
    println!(
        "service/{id}/tenants_{tenants:02}: {:.1} req/s  p50 {:.0} us  p99 {:.0} us  ({requests} reqs)",
        result.req_per_s,
        result.p50_ns / 1e3,
        result.p99_ns / 1e3
    );
    result
}

fn write_summary(results: &BTreeMap<String, ArmResult>) {
    let mut out = String::from("{\n  \"bench\": \"service\",\n");
    out.push_str(&format!("  \"executor_threads\": {EXEC_THREADS},\n"));
    out.push_str("  \"cases\": {\n");
    let last = results.len().saturating_sub(1);
    for (i, (arm, r)) in results.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!(
            "    \"{arm}\": {{\"req_per_s\": {:.2}, \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"requests\": {}}}{comma}\n",
            r.req_per_s, r.p50_ns, r.p99_ns, r.requests
        ));
    }
    out.push_str("  }\n}\n");

    nufft_testkit::bench::write_summary(
        "BENCH_service.json",
        nufft_simd::detect_isa().name(),
        &out,
    );
}

fn main() {
    let fast = std::env::var("NUFFT_BENCH_FAST").is_ok();
    let reqs = if fast { 4 } else { 16 };
    let mut results = BTreeMap::new();
    for tenants in TENANT_COUNTS {
        let r = bench_case("small_32", [32usize, 32], 3_000, tenants, reqs);
        results.insert(format!("small_32/tenants_{tenants:02}"), r);
        let r = bench_case("large_128", [128usize, 128], 30_000, tenants, reqs);
        results.insert(format!("large_128/tenants_{tenants:02}"), r);
    }
    write_summary(&results);
}
