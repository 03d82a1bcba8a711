//! Bit-exact makespan pins for the simulator's scheduler models.
//!
//! Every case below replays a fixed graph under a fixed cost model and
//! compares the virtual makespan's `f64::to_bits` with a recorded value.
//! The pins cover the sharded runtime model ([`simulate`]) and the paper's
//! global queue ([`simulate_shared_queue`]) on uniform, skewed and
//! privatized partition graphs at 1, 3, 16 and 40 workers — wrapped and
//! open under `Priority`, open only under `Fifo` (on a wrapped graph the
//! FIFO order depends on the order successors are pushed in, which the
//! models take from the runtime's expanded `Dag`) — and the barrier-free and
//! join-per-phase replays ([`simulate_dag`], [`simulate_dag_phased`]) of a
//! real plan's fused graphs. A change to the event loop that moves any
//! schedule fails here with the case's name.

use nufft_core::{fused, NufftConfig, NufftPlan};
use nufft_parallel::graph::{QueuePolicy, TaskGraph};
use nufft_sim::{
    simulate, simulate_dag, simulate_dag_phased, simulate_shared_queue, DagLinearCost, LinearCost,
};
use nufft_simd::{detect_isa, set_isa_override, IsaLevel};

const DIMS: [usize; 3] = [6, 6, 4];
const WORKERS: [usize; 4] = [1, 3, 16, 40];

/// A `DIMS` partition graph. `skewed` puts the weight in the center (the
/// radial signature); `privatize` marks the heavy center region.
fn graph(skewed: bool, privatize: bool, wrap: bool) -> TaskGraph {
    let mut g = TaskGraph::new_cyclic(&DIMS, &[wrap; 3]);
    for t in 0..g.len() {
        let idx = g.unflatten(t);
        let d: usize = idx.iter().zip(&DIMS).map(|(&i, &n)| i.abs_diff(n / 2)).sum();
        g.set_weight(t, if skewed { 4000 / (d as u64 * d as u64 + 1) + 3 } else { 50 });
        g.set_privatized(t, privatize && d <= 2);
    }
    g
}

fn task_graph_cases() -> Vec<(String, u64)> {
    let model = LinearCost {
        per_task: 3e-6,
        per_sample: 2e-7,
        reduce_per_sample: 2.4e-8,
        queue_cost: 2e-6,
    };
    let graphs = [("uniform", false, false), ("skewed", true, false), ("privatized", true, true)];
    let mut out = Vec::new();
    for (policy, pname) in [(QueuePolicy::Priority, "priority"), (QueuePolicy::Fifo, "fifo")] {
        for wrap in [false, true] {
            if wrap && policy == QueuePolicy::Fifo {
                continue;
            }
            let wname = if wrap { "wrapped" } else { "open" };
            for (gname, skewed, privatize) in graphs {
                let g = graph(skewed, privatize, wrap);
                for p in WORKERS {
                    let sharded = simulate(&g, policy, p, &model).makespan;
                    let shared = simulate_shared_queue(&g, policy, p, &model).makespan;
                    out.push((format!("simulate/{pname}/{gname}/{wname}/{p}"), sharded.to_bits()));
                    out.push((format!("shared/{pname}/{gname}/{wname}/{p}"), shared.to_bits()));
                }
            }
        }
    }
    out
}

/// The trajectory of `tests/scheduler_consistency.rs`'s fused-vs-phased
/// test: most samples near the origin.
fn clustered_traj2(count: usize) -> Vec<[f64; 2]> {
    (0..count)
        .map(|i| {
            let r = 0.5 * (i as f64 / count as f64).powi(3);
            let th = i as f64 * 2.399963;
            [r * th.cos(), r * th.sin()]
        })
        .collect()
}

/// The fused graphs of that test's plan, replayed at the active ISA level
/// (its SIMD width sets the FFT tile width and so the graph).
fn fused_cases(level: &str) -> Vec<(String, u64)> {
    let traj = clustered_traj2(2000);
    let cfg =
        NufftConfig { threads: 2, w: 3.0, partitions_per_dim: Some(4), ..NufftConfig::default() };
    let mut plan = NufftPlan::new([16usize, 16], &traj, cfg);
    let model = DagLinearCost::per_unit(0.001);
    let mut out = Vec::new();
    for adjoint in [false, true] {
        let dag = plan.fused_dag(adjoint, 1);
        let phases: Vec<usize> =
            (0..dag.len()).map(|v| fused::node_phase(dag.tag(v as u32), adjoint, 2)).collect();
        let op = if adjoint { "adjoint" } else { "forward" };
        for p in [1usize, 4, 8, 16] {
            let fus = simulate_dag(dag, QueuePolicy::Priority, p, &model).makespan;
            let pha = simulate_dag_phased(dag, &phases, QueuePolicy::Priority, p, &model);
            out.push((format!("dag/{level}/{op}/{p}"), fus.to_bits()));
            out.push((format!("phased/{level}/{op}/{p}"), pha.to_bits()));
        }
    }
    out
}

fn check(cases: &[(String, u64)]) {
    let mut bad = Vec::new();
    for (name, bits) in cases {
        match PINS.iter().find(|(n, _)| n == name) {
            Some(&(_, want)) if want == *bits => {}
            Some(&(_, want)) => bad.push(format!(
                "{name}: {} (0x{bits:016x}), pinned {} (0x{want:016x})",
                f64::from_bits(*bits),
                f64::from_bits(want)
            )),
            None => bad.push(format!("{name}: no pin (0x{bits:016x})")),
        }
    }
    assert!(
        bad.is_empty(),
        "{} of {} makespans moved:\n{}",
        bad.len(),
        cases.len(),
        bad.join("\n")
    );
}

#[test]
fn task_graph_makespans_match_their_pins() {
    let cases = task_graph_cases();
    assert_eq!(cases.len(), 72);
    check(&cases);
}

#[test]
fn fused_dag_makespans_match_their_pins() {
    // The only test in this binary that touches the process-wide ISA level.
    let detected = detect_isa();
    let mut cases = Vec::new();
    for (level, name) in
        [(IsaLevel::Scalar, "scalar"), (IsaLevel::Sse2, "sse2"), (IsaLevel::Avx2Fma, "avx2")]
    {
        if set_isa_override(level).is_ok() {
            cases.extend(fused_cases(name));
        }
    }
    set_isa_override(detected).unwrap();
    check(&cases);
}

/// `f64::to_bits` of each case's makespan, recorded before the simulator's
/// event loops were merged into one.
const PINS: &[(&str, u64)] = &[
    ("dag/scalar/forward/1", 0x4051deb851eb851e),
    ("phased/scalar/forward/1", 0x4051deb851eb8522),
    ("dag/scalar/forward/4", 0x40332e147ae147ae),
    ("phased/scalar/forward/4", 0x403275c28f5c28f6),
    ("dag/scalar/forward/8", 0x402510624dd2f1aa),
    ("phased/scalar/forward/8", 0x402b353f7ced9168),
    ("dag/scalar/forward/16", 0x4022989374bc6a7f),
    ("phased/scalar/forward/16", 0x40228b4395810625),
    ("dag/scalar/adjoint/1", 0x405223e76c8b4390),
    ("phased/scalar/adjoint/1", 0x405223e76c8b439b),
    ("dag/scalar/adjoint/4", 0x40346f1a9fbe76c7),
    ("phased/scalar/adjoint/4", 0x40374f1a9fbe76c7),
    ("dag/scalar/adjoint/8", 0x403214395810624b),
    ("phased/scalar/adjoint/8", 0x40320f1a9fbe76cb),
    ("dag/scalar/adjoint/16", 0x4031fd2f1a9fbe74),
    ("phased/scalar/adjoint/16", 0x4031f78d4fdf3b66),
    ("dag/sse2/forward/1", 0x4051deb851eb851e),
    ("phased/sse2/forward/1", 0x4051deb851eb8522),
    ("dag/sse2/forward/4", 0x40332e147ae147ae),
    ("phased/sse2/forward/4", 0x403275c28f5c28f6),
    ("dag/sse2/forward/8", 0x402510624dd2f1aa),
    ("phased/sse2/forward/8", 0x402b353f7ced9168),
    ("dag/sse2/forward/16", 0x4022989374bc6a7f),
    ("phased/sse2/forward/16", 0x40228b4395810625),
    ("dag/sse2/adjoint/1", 0x405223e76c8b4390),
    ("phased/sse2/adjoint/1", 0x405223e76c8b439b),
    ("dag/sse2/adjoint/4", 0x40346f1a9fbe76c7),
    ("phased/sse2/adjoint/4", 0x40374f1a9fbe76c7),
    ("dag/sse2/adjoint/8", 0x403214395810624b),
    ("phased/sse2/adjoint/8", 0x40320f1a9fbe76cb),
    ("dag/sse2/adjoint/16", 0x4031fd2f1a9fbe74),
    ("phased/sse2/adjoint/16", 0x4031f78d4fdf3b66),
    ("dag/avx2/forward/1", 0x4051dd2f1a9fbe76),
    ("phased/avx2/forward/1", 0x4051dd2f1a9fbe7a),
    ("dag/avx2/forward/4", 0x40332c8b43958106),
    ("phased/avx2/forward/4", 0x403274395810624e),
    ("dag/avx2/forward/8", 0x40258f5c28f5c28f),
    ("phased/avx2/forward/8", 0x402bb851eb851eb8),
    ("dag/avx2/forward/16", 0x4023178d4fdf3b64),
    ("phased/avx2/forward/16", 0x40230e5604189375),
    ("dag/avx2/adjoint/1", 0x4052225e353f7ce8),
    ("phased/avx2/adjoint/1", 0x4052225e353f7cf3),
    ("dag/avx2/adjoint/4", 0x40346d916872b01e),
    ("phased/avx2/adjoint/4", 0x40374d916872b01f),
    ("dag/avx2/adjoint/8", 0x403253b645a1cabf),
    ("phased/avx2/adjoint/8", 0x403250a3d70a3d73),
    ("dag/avx2/adjoint/16", 0x40323db22d0e5601),
    ("phased/avx2/adjoint/16", 0x40323916872b020e),
    ("simulate/priority/uniform/open/1", 0x3f61b1d92b7fe08e),
    ("shared/priority/uniform/open/1", 0x3f61b1d92b7fe08e),
    ("simulate/priority/uniform/open/3", 0x3f4815a07b352a87),
    ("shared/priority/uniform/open/3", 0x3f4932d6ece13f4f),
    ("simulate/priority/uniform/open/16", 0x3f2626b2f23033a2),
    ("shared/priority/uniform/open/16", 0x3f34e7ee9142b2f8),
    ("simulate/priority/uniform/open/40", 0x3f20c6f7a0b5ed8c),
    ("shared/priority/uniform/open/40", 0x3f33b9f127f5e844),
    ("simulate/priority/skewed/open/1", 0x3f8902800d009980),
    ("shared/priority/skewed/open/1", 0x3f8902800d009980),
    ("simulate/priority/skewed/open/3", 0x3f719e2295563df6),
    ("shared/priority/skewed/open/3", 0x3f711fe2f4567e8b),
    ("simulate/priority/skewed/open/16", 0x3f65677051a1b343),
    ("shared/priority/skewed/open/16", 0x3f6595937a9ba78d),
    ("simulate/priority/skewed/open/40", 0x3f65677051a1b343),
    ("shared/priority/skewed/open/40", 0x3f6592a3dc12baea),
    ("simulate/priority/privatized/open/1", 0x3f8ab6c6615efbcd),
    ("shared/priority/privatized/open/1", 0x3f8ab6c6615efbcd),
    ("simulate/priority/privatized/open/3", 0x3f71df236f2381e9),
    ("shared/priority/privatized/open/3", 0x3f72240add64dbad),
    ("simulate/priority/privatized/open/16", 0x3f53eb807d4f1c5c),
    ("shared/priority/privatized/open/16", 0x3f5430972a313490),
    ("simulate/priority/privatized/open/40", 0x3f53eb807d4f1c5c),
    ("shared/priority/privatized/open/40", 0x3f542638e001991d),
    ("simulate/priority/uniform/wrapped/1", 0x3f61b1d92b7fe08e),
    ("shared/priority/uniform/wrapped/1", 0x3f61b1d92b7fe08e),
    ("simulate/priority/uniform/wrapped/3", 0x3f47ca2120e1f7da),
    ("shared/priority/uniform/wrapped/3", 0x3f48266772d5e075),
    ("simulate/priority/uniform/wrapped/16", 0x3f24b599aa609138),
    ("shared/priority/uniform/wrapped/16", 0x3f33b9f127f5e844),
    ("simulate/priority/uniform/wrapped/40", 0x3f21904b3c3e74af),
    ("shared/priority/uniform/wrapped/40", 0x3f33b9f127f5e844),
    ("simulate/priority/skewed/wrapped/1", 0x3f8902800d009981),
    ("shared/priority/skewed/wrapped/1", 0x3f8902800d009981),
    ("simulate/priority/skewed/wrapped/3", 0x3f70c366f27d6078),
    ("shared/priority/skewed/wrapped/3", 0x3f70b559e98061b5),
    ("simulate/priority/skewed/wrapped/16", 0x3f65677051a1b343),
    ("shared/priority/skewed/wrapped/16", 0x3f6599c53883d508),
    ("simulate/priority/skewed/wrapped/40", 0x3f65677051a1b343),
    ("shared/priority/skewed/wrapped/40", 0x3f6596d599fae865),
    ("simulate/priority/privatized/wrapped/1", 0x3f8ab6c6615efbcd),
    ("shared/priority/privatized/wrapped/1", 0x3f8ab6c6615efbcd),
    ("simulate/priority/privatized/wrapped/3", 0x3f71d50e28a6811c),
    ("shared/priority/privatized/wrapped/3", 0x3f71eb2255f3db08),
    ("simulate/priority/privatized/wrapped/16", 0x3f53eb807d4f1c5c),
    ("shared/priority/privatized/wrapped/16", 0x3f541dd564313e26),
    ("simulate/priority/privatized/wrapped/40", 0x3f53eb807d4f1c5c),
    ("shared/priority/privatized/wrapped/40", 0x3f541dd564313e26),
    ("simulate/fifo/uniform/open/1", 0x3f61b1d92b7fe08e),
    ("shared/fifo/uniform/open/1", 0x3f61b1d92b7fe08e),
    ("simulate/fifo/uniform/open/3", 0x3f47b95a294141ed),
    ("shared/fifo/uniform/open/3", 0x3f47b95a294141ed),
    ("simulate/fifo/uniform/open/16", 0x3f25e39713ad5bec),
    ("shared/fifo/uniform/open/16", 0x3f33b9f127f5e844),
    ("simulate/fifo/uniform/open/40", 0x3f20c6f7a0b5ed8c),
    ("shared/fifo/uniform/open/40", 0x3f33b9f127f5e844),
    ("simulate/fifo/skewed/open/1", 0x3f8902800d009984),
    ("shared/fifo/skewed/open/1", 0x3f8902800d009984),
    ("simulate/fifo/skewed/open/3", 0x3f70c47361f76bd9),
    ("shared/fifo/skewed/open/3", 0x3f70deaa44e2881c),
    ("simulate/fifo/skewed/open/16", 0x3f65a07b352a8436),
    ("shared/fifo/skewed/open/16", 0x3f65c3b6a3959bda),
    ("simulate/fifo/skewed/open/40", 0x3f65677051a1b343),
    ("shared/fifo/skewed/open/40", 0x3f65c3b6a3959bda),
    ("simulate/fifo/privatized/open/1", 0x3f8ab6c6615efbce),
    ("shared/fifo/privatized/open/1", 0x3f8ab6c6615efbce),
    ("simulate/fifo/privatized/open/3", 0x3f71f114e6d31979),
    ("shared/fifo/privatized/open/3", 0x3f71eb5805d9107e),
    ("simulate/fifo/privatized/open/16", 0x3f56a21422b2ee94),
    ("shared/fifo/privatized/open/16", 0x3f552cc91cfb1eaf),
    ("simulate/fifo/privatized/open/40", 0x3f53eb807d4f1c5c),
    ("shared/fifo/privatized/open/40", 0x3f54dec583e96a52),
];
