//! The executor and the discrete-event simulator must implement the same
//! scheduling semantics: same (task, phase) multiset, same dependency and
//! exclusion guarantees. This is what makes simulated core-scaling results
//! transferable statements about the real runtime.

use nufft::parallel::exec::{DagScratch, Executor, JobPriority, TaskPhase};
use nufft::parallel::graph::{DagBuilder, QueuePolicy, TaskGraph, TaskId};
use nufft::sim::{simulate, LinearCost};
use std::sync::atomic::{AtomicU32, Ordering};

/// Worker count of the executor-side tests: the `NUFFT_THREADS` override
/// (the CI stress step runs 16, oversubscribing the host), else `default`.
fn stress_threads(default: usize) -> usize {
    std::env::var("NUFFT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(default)
}

/// Runs `g` as its expansion on `threads` workers under the priority
/// policy, handing every node to `task_fn(task, phase)`.
fn run_tasks<F>(g: &TaskGraph, threads: usize, task_fn: F)
where
    F: Fn(TaskId, TaskPhase) + Sync,
{
    const PHASES: [TaskPhase; 3] =
        [TaskPhase::Normal, TaskPhase::PrivateConvolve, TaskPhase::Reduce];
    let mut b = DagBuilder::new();
    g.expand_into(&mut b, |t, phase| ((t as u64) << 2 | phase as u64, g.weight(t)));
    let mut scratch = DagScratch::new();
    let exec = Executor::new(threads);
    exec.run_dag(
        &b.build(),
        QueuePolicy::Priority,
        JobPriority::Normal,
        &mut scratch,
        |_, tag, _| task_fn((tag >> 2) as TaskId, PHASES[(tag & 3) as usize]),
    );
}

fn weighted_graph(dims: &[usize], privatize_center: bool) -> TaskGraph {
    let mut g = TaskGraph::new_cyclic(dims, &vec![true; dims.len()]);
    for t in 0..g.len() {
        let idx = g.unflatten(t);
        let d: usize = idx.iter().zip(dims).map(|(&i, &n)| i.abs_diff(n / 2)).sum();
        g.set_weight(t, 1000 / (d as u64 + 1));
        if privatize_center && d == 0 {
            g.set_privatized(t, true);
        }
    }
    g
}

#[test]
fn executor_and_simulator_run_the_same_phase_multiset() {
    for privatize in [false, true] {
        let g = weighted_graph(&[4, 4], privatize);
        let threads = stress_threads(3);
        // Count (task, phase) units executed by the real executor.
        let counts: Vec<[AtomicU32; 3]> = (0..g.len()).map(|_| Default::default()).collect();
        run_tasks(&g, threads, |t, phase| {
            counts[t][phase as usize].fetch_add(1, Ordering::SeqCst);
        });
        // Simulator timeline for the same graph.
        let sim = simulate(&g, QueuePolicy::Priority, threads, &LinearCost::per_sample(0.01));
        let mut sim_counts = vec![[0u32; 3]; g.len()];
        for r in &sim.timeline {
            sim_counts[r.task][r.phase as usize] += 1;
        }
        for t in 0..g.len() {
            let exec_c: Vec<u32> = (0..3).map(|s| counts[t][s].load(Ordering::SeqCst)).collect();
            assert_eq!(
                exec_c, sim_counts[t],
                "task {t} phase multiset differs (privatize={privatize})"
            );
            if g.privatized(t) {
                assert_eq!(exec_c, vec![0, 1, 1]);
            } else {
                assert_eq!(exec_c, vec![1, 0, 0]);
            }
        }
    }
}

#[test]
fn simulated_speedup_is_monotone_and_bounded() {
    let g = weighted_graph(&[8, 8], true);
    let model =
        LinearCost { per_task: 0.5, per_sample: 0.01, reduce_per_sample: 0.001, queue_cost: 0.02 };
    let base = simulate(&g, QueuePolicy::Priority, 1, &model).makespan;
    let mut prev = 0.0;
    for p in [1usize, 2, 4, 8, 16, 32] {
        let s = base / simulate(&g, QueuePolicy::Priority, p, &model).makespan;
        assert!(s <= p as f64 + 1e-9, "superlinear at {p}: {s}");
        assert!(s + 1e-9 >= prev, "speedup regressed at {p}: {s} < {prev}");
        prev = s;
    }
}

#[test]
fn priority_queue_never_loses_to_fifo_at_scale() {
    // On a center-heavy graph (the radial signature), PQ ≥ FIFO at high
    // worker counts — the Figure 12 B-vs-C property as a hard invariant of
    // our scheduler pair.
    let g = weighted_graph(&[10, 10], false);
    let model =
        LinearCost { per_task: 0.2, per_sample: 0.01, reduce_per_sample: 0.001, queue_cost: 0.01 };
    for p in [16usize, 32] {
        let fifo = simulate(&g, QueuePolicy::Fifo, p, &model).makespan;
        let prio = simulate(&g, QueuePolicy::Priority, p, &model).makespan;
        assert!(prio <= fifo * 1.01, "priority queue lost at {p} workers: {prio} vs {fifo}");
    }
}

#[test]
fn real_executor_respects_privatized_reduce_ordering_under_load() {
    // Stress the two-phase protocol with many privatized tasks and more
    // threads than cores.
    let mut g = TaskGraph::new_cyclic(&[6, 6], &[true, true]);
    for t in 0..g.len() {
        g.set_weight(t, (t as u64 % 7) + 1);
        g.set_privatized(t, t % 3 == 0);
    }
    let conv_done: Vec<AtomicU32> = (0..g.len()).map(|_| AtomicU32::new(0)).collect();
    run_tasks(&g, stress_threads(8), |t, phase| match phase {
        TaskPhase::PrivateConvolve => {
            conv_done[t].store(1, Ordering::SeqCst);
        }
        TaskPhase::Reduce => {
            assert_eq!(conv_done[t].load(Ordering::SeqCst), 1, "reduce before convolve");
            for p in g.preds(t) {
                // All predecessors' shared-grid work must be complete; for
                // privatized preds that means their reduce ran (flag 2).
                if g.privatized(p) {
                    assert_eq!(conv_done[p].load(Ordering::SeqCst), 2, "pred {p} not reduced");
                }
            }
            conv_done[t].store(2, Ordering::SeqCst);
        }
        TaskPhase::Normal => {
            for p in g.preds(t) {
                if g.privatized(p) {
                    assert_eq!(conv_done[p].load(Ordering::SeqCst), 2, "pred {p} not reduced");
                }
            }
        }
    });
}

// ---------------------------------------------------------------------------
// The fused whole-operator graph, replayed barrier-free and join-per-phase.
//
// Its bitwise contract (fused operators equal the stage composition at
// every ISA level, thread count and channel count) is pinned by
// `tests/fft_pruning.rs`; this section checks what fusion buys in virtual
// time on real plans' graphs.
// ---------------------------------------------------------------------------

use nufft::core::{fused, NufftConfig, NufftPlan};
use nufft::sim::{simulate_dag, simulate_dag_phased, DagLinearCost};

/// Center-heavy radial trajectory: most samples land near the origin, so
/// the central partition cells carry far more convolution work than the
/// periphery — the skewed-density regime the paper's scheduler targets.
fn clustered_traj2(count: usize) -> Vec<[f64; 2]> {
    (0..count)
        .map(|i| {
            let r = 0.5 * (i as f64 / count as f64).powi(3);
            let th = i as f64 * 2.399963;
            [r * th.cos(), r * th.sin()]
        })
        .collect()
}

#[test]
fn fused_dag_simulated_speedup_dominates_phased_on_real_plans() {
    // Replay the plan's own fused graphs through the discrete-event
    // simulator, comparing the barrier-free schedule against the same node
    // set executed as a join-per-phase pipeline (sum of per-phase
    // makespans).
    //
    // Fusion pays exactly where a phase straggles while later-phase work
    // is already runnable. The clustered trajectory skews the convolution
    // cells, so at P=4 the phased adjoint idles every worker behind the
    // heavy center cells at the conv→FFT join while the fused DAG runs FFT
    // chunks whose inputs are settled (~1.13× here); the forward's
    // quantization waste (chunks per phase not divisible by P) shows the
    // same effect at P=8 (~1.29×). At the remaining P the phases either
    // balance perfectly or both schedules sit on the same critical path —
    // there fused must simply stay within a few percent (greedy cross-
    // phase scheduling admits small ordering anomalies; the executor-side
    // guarantee of bitwise identity is pinned by `tests/fft_pruning.rs`,
    // this test is about virtual time).
    let n = [16usize, 16];
    let traj = clustered_traj2(2000);
    let cfg = NufftConfig {
        threads: 2,
        w: 3.0,
        // Pin the decomposition the thresholds below were set on.
        partitions_per_dim: Some(4),
        ..NufftConfig::default()
    };
    let mut plan = NufftPlan::new(n, &traj, cfg);
    let model = DagLinearCost::per_unit(0.001);
    for adjoint in [false, true] {
        let dag = plan.fused_dag(adjoint, 1);
        let phases: Vec<usize> =
            (0..dag.len()).map(|v| fused::node_phase(dag.tag(v as u32), adjoint, 2)).collect();
        for p in [4usize, 8, 16] {
            let fus = simulate_dag(dag, QueuePolicy::Priority, p, &model).makespan;
            let pha = simulate_dag_phased(dag, &phases, QueuePolicy::Priority, p, &model);
            assert!(
                fus <= pha * 1.05,
                "adjoint={adjoint} P={p}: fused {fus:.3} far behind phased {pha:.3}"
            );
            if (adjoint && p == 4) || (!adjoint && p == 8) {
                assert!(
                    fus * 1.05 < pha,
                    "adjoint={adjoint} P={p}: fused {fus:.3} should clearly beat phased {pha:.3}"
                );
            }
        }
    }
}
