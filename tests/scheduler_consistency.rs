//! The executor and the discrete-event simulator must implement the same
//! scheduling semantics: same (task, phase) multiset, same dependency and
//! exclusion guarantees. This is what makes simulated core-scaling results
//! transferable statements about the real runtime.

use nufft::parallel::exec::{Executor, TaskPhase};
use nufft::parallel::graph::{QueuePolicy, TaskGraph};
use nufft::sim::{simulate, LinearCost};
use std::sync::atomic::{AtomicU32, Ordering};

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
        // Count (task, phase) units executed by the real executor.
        let counts: Vec<[AtomicU32; 3]> = (0..g.len()).map(|_| Default::default()).collect();
        Executor::new(3).run_graph(&g, QueuePolicy::Priority, |t, phase, _w| {
            let slot = match phase {
                TaskPhase::Normal => 0,
                TaskPhase::PrivateConvolve => 1,
                TaskPhase::Reduce => 2,
            };
            counts[t][slot].fetch_add(1, Ordering::SeqCst);
        });
        // Simulator timeline for the same graph.
        let sim = simulate(&g, QueuePolicy::Priority, 3, &LinearCost::per_sample(0.01));
        let mut sim_counts = vec![[0u32; 3]; g.len()];
        for r in &sim.timeline {
            let slot = match r.phase {
                TaskPhase::Normal => 0,
                TaskPhase::PrivateConvolve => 1,
                TaskPhase::Reduce => 2,
            };
            sim_counts[r.task][slot] += 1;
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
    Executor::new(8).run_graph(&g, QueuePolicy::Priority, |t, phase, _w| match phase {
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
// Fused (single-DAG) vs phased (join-per-phase) execution.
//
// The fused path must be a pure *scheduling* change: every operator output
// is required to be bitwise-identical to the phased pipeline at every ISA
// level and thread count. The per-element arithmetic is
// schedule-independent by construction (the Gray-code exclusion edges fix
// the adjoint summation order, and every other node writes disjoint
// elements); these tests are the tripwire that keeps it that way.
// ---------------------------------------------------------------------------

use nufft::core::{fused, ExecMode, NufftConfig, NufftPlan};
use nufft::math::Complex32;
use nufft::sim::{simulate_dag, simulate_dag_phased, DagLinearCost};
use nufft::simd::{detect_isa, set_isa_override, IsaLevel};
use std::sync::Mutex;

/// Serializes the ISA-override tests: the override is process-global.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn traj2(count: usize) -> Vec<[f64; 2]> {
    (0..count)
        .map(|i| [((i as f64 * 0.618) % 1.0) - 0.5, ((i as f64 * 0.414) % 1.0) - 0.5])
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

fn plan_cfg(threads: usize, mode: ExecMode) -> NufftConfig {
    NufftConfig {
        threads,
        w: 3.0,
        // Pin the decomposition so only the schedule varies.
        partitions_per_dim: Some(4),
        exec_mode: mode,
        ..NufftConfig::default()
    }
}

/// Runs all four operators under both exec modes on identical inputs and
/// asserts exact bit equality of every output buffer.
fn check_fused_matches_phased(threads: usize, label: &str) {
    let n = [16usize, 16];
    let traj = traj2(350);
    let img_len = 256;
    let k = traj.len();
    let channels = 2usize;

    let mut fus = NufftPlan::new(n, &traj, plan_cfg(threads, ExecMode::Fused));
    let mut pha = NufftPlan::new(n, &traj, plan_cfg(threads, ExecMode::Phased));
    assert_eq!(fus.exec_mode(), ExecMode::Fused, "{label}");
    assert_eq!(pha.exec_mode(), ExecMode::Phased, "{label}");

    let image = signal(img_len, 0.0);
    let samples = signal(k, 1.3);

    // forward
    let mut out_f = vec![Complex32::ZERO; k];
    let mut out_p = vec![Complex32::ZERO; k];
    fus.forward(&image, &mut out_f);
    pha.forward(&image, &mut out_p);
    assert_bits_eq(&out_f, &out_p, &format!("{label}: forward"));

    // adjoint
    let mut img_f = vec![Complex32::ZERO; img_len];
    let mut img_p = vec![Complex32::ZERO; img_len];
    fus.adjoint(&samples, &mut img_f);
    pha.adjoint(&samples, &mut img_p);
    assert_bits_eq(&img_f, &img_p, &format!("{label}: adjoint"));

    // forward_batch
    let images: Vec<Vec<Complex32>> = (0..channels).map(|c| signal(img_len, c as f32)).collect();
    let image_refs: Vec<&[Complex32]> = images.iter().map(|v| v.as_slice()).collect();
    let mut bout_f = vec![vec![Complex32::ZERO; k]; channels];
    let mut bout_p = vec![vec![Complex32::ZERO; k]; channels];
    {
        let mut refs: Vec<&mut [Complex32]> = bout_f.iter_mut().map(|v| v.as_mut_slice()).collect();
        fus.forward_batch(&image_refs, &mut refs);
    }
    {
        let mut refs: Vec<&mut [Complex32]> = bout_p.iter_mut().map(|v| v.as_mut_slice()).collect();
        pha.forward_batch(&image_refs, &mut refs);
    }
    for c in 0..channels {
        assert_bits_eq(&bout_f[c], &bout_p[c], &format!("{label}: forward_batch ch{c}"));
    }

    // adjoint_batch
    let datas: Vec<Vec<Complex32>> = (0..channels).map(|c| signal(k, 2.0 + c as f32)).collect();
    let data_refs: Vec<&[Complex32]> = datas.iter().map(|v| v.as_slice()).collect();
    let mut bimg_f = vec![vec![Complex32::ZERO; img_len]; channels];
    let mut bimg_p = vec![vec![Complex32::ZERO; img_len]; channels];
    {
        let mut refs: Vec<&mut [Complex32]> = bimg_f.iter_mut().map(|v| v.as_mut_slice()).collect();
        fus.adjoint_batch(&data_refs, &mut refs);
    }
    {
        let mut refs: Vec<&mut [Complex32]> = bimg_p.iter_mut().map(|v| v.as_mut_slice()).collect();
        pha.adjoint_batch(&data_refs, &mut refs);
    }
    for c in 0..channels {
        assert_bits_eq(&bimg_f[c], &bimg_p[c], &format!("{label}: adjoint_batch ch{c}"));
    }
}

#[test]
fn fused_matches_phased_bitwise_across_isa_and_threads() {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let detected = detect_isa();
    for isa in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
        if isa > detected {
            continue;
        }
        set_isa_override(isa).unwrap();
        for threads in [1usize, 2, 4] {
            check_fused_matches_phased(threads, &format!("isa={isa:?} threads={threads}"));
        }
    }
    set_isa_override(detected).unwrap();
}

#[test]
fn exec_mode_switch_on_one_plan_stays_bitwise() {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = [16usize, 16];
    let traj = traj2(300);
    let mut plan = NufftPlan::new(n, &traj, plan_cfg(2, ExecMode::Fused));
    let samples = signal(traj.len(), 0.7);

    let mut img_fused = vec![Complex32::ZERO; 256];
    plan.adjoint(&samples, &mut img_fused);

    plan.set_exec_mode(ExecMode::Phased);
    assert_eq!(plan.exec_mode(), ExecMode::Phased);
    let mut img_phased = vec![Complex32::ZERO; 256];
    plan.adjoint(&samples, &mut img_phased);
    assert_bits_eq(&img_fused, &img_phased, "adjoint after switching to phased");

    plan.set_exec_mode(ExecMode::Fused);
    let mut img_back = vec![Complex32::ZERO; 256];
    plan.adjoint(&samples, &mut img_back);
    assert_bits_eq(&img_fused, &img_back, "adjoint after switching back to fused");
}

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
    // guarantee of bitwise identity is exercised above, this test is about
    // virtual time).
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let n = [16usize, 16];
    let traj = clustered_traj2(2000);
    let mut plan = NufftPlan::new(n, &traj, plan_cfg(2, ExecMode::Fused));
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
