//! Randomized-schedule stress tests for the persistent work-stealing
//! runtime.
//!
//! The executor's exactly-once and exclusion guarantees must hold under
//! *any* interleaving. These tests widen the schedule space two ways:
//! per-task delays drawn from `nufft-testkit`'s deterministic PRNG (so a
//! failing seed replays), and a worker count chosen to oversubscribe the
//! host — override it with `NUFFT_THREADS` (the CI stress step runs 16).

use nufft_parallel::exec::{DagScratch, Executor, JobPriority};
use nufft_parallel::graph::{DagBuilder, QueuePolicy, TaskGraph, TaskId};
use nufft_testkit::Rng;
use std::sync::atomic::{AtomicU32, Ordering};

/// Worker count for the stress runs: `NUFFT_THREADS` env override, else 8
/// (oversubscribed on small hosts on purpose — more preemption, more
/// schedules).
fn stress_threads() -> usize {
    std::env::var("NUFFT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(8)
}

/// Runs `graph` as its expansion, handing every node to `task_fn(task,
/// phase)` with the phase as its `TaskPhase` discriminant (0 = `Normal`,
/// 1 = `PrivateConvolve`, 2 = `Reduce`).
fn run_tasks<F>(exec: &Executor, graph: &TaskGraph, policy: QueuePolicy, task_fn: F)
where
    F: Fn(TaskId, usize) + Sync,
{
    let mut b = DagBuilder::new();
    graph.expand_into(&mut b, |t, phase| ((t as u64) << 2 | phase as u64, graph.weight(t)));
    let mut scratch = DagScratch::new();
    exec.run_dag(&b.build(), policy, JobPriority::Normal, &mut scratch, |_v, tag, _w| {
        task_fn((tag >> 2) as TaskId, (tag & 3) as usize)
    });
}

/// Busy-spin for roughly `iters` units; sleeps are too coarse to shake out
/// interesting interleavings and yield under-load behaves like a no-op.
fn spin(iters: u64) {
    for i in 0..iters {
        std::hint::black_box(i);
    }
}

#[test]
fn every_unit_runs_exactly_once_under_stealing_with_random_delays() {
    let threads = stress_threads();
    let exec = Executor::new(threads);
    for seed in 0..6u64 {
        let mut rng = Rng::seed_from_u64(0x57EA_1000 + seed);
        let mut graph = TaskGraph::new(&[5, 5]);
        let n = graph.len();
        for t in 0..n {
            graph.set_weight(t, rng.gen_usize(0..200) as u64);
            graph.set_privatized(t, rng.gen_usize(0..4) == 0);
        }
        // Pre-drawn per-(task, phase) delays: deterministic given the seed,
        // but they skew which worker finishes when — exactly the lever that
        // changes who steals from whom.
        let delays: Vec<[u64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_usize(0..4000) as u64,
                    rng.gen_usize(0..4000) as u64,
                    rng.gen_usize(0..1000) as u64,
                ]
            })
            .collect();
        let counts: Vec<[AtomicU32; 3]> = (0..n).map(|_| Default::default()).collect();
        for policy in [QueuePolicy::Fifo, QueuePolicy::Priority] {
            for c in &counts {
                for p in c {
                    p.store(0, Ordering::SeqCst);
                }
            }
            run_tasks(&exec, &graph, policy, |t, pi| {
                spin(delays[t][pi]);
                counts[t][pi].fetch_add(1, Ordering::SeqCst);
            });
            for (t, count) in counts.iter().enumerate() {
                let want: [u32; 3] = if graph.privatized(t) { [0, 1, 1] } else { [1, 0, 0] };
                for pi in 0..3 {
                    assert_eq!(
                        count[pi].load(Ordering::SeqCst),
                        want[pi],
                        "seed {seed} policy {policy:?}: task {t} phase {pi} ran a wrong number \
                         of times"
                    );
                }
            }
        }
    }
}

#[test]
fn adjacent_exclusion_holds_under_random_delays() {
    let threads = stress_threads();
    let exec = Executor::new(threads);
    let mut rng = Rng::seed_from_u64(0x57EA_2000);
    let graph = TaskGraph::new(&[6, 6]);
    let n = graph.len();
    let delays: Vec<u64> = (0..n).map(|_| rng.gen_usize(0..3000) as u64).collect();
    let running: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    run_tasks(&exec, &graph, QueuePolicy::Priority, |t, _phase| {
        running[t].store(1, Ordering::SeqCst);
        for (other, flag) in running.iter().enumerate() {
            if graph.adjacent(t, other) {
                assert_eq!(
                    flag.load(Ordering::SeqCst),
                    0,
                    "adjacent tasks {t} and {other} overlapped"
                );
            }
        }
        spin(delays[t]);
        for (other, flag) in running.iter().enumerate() {
            if graph.adjacent(t, other) {
                assert_eq!(flag.load(Ordering::SeqCst), 0);
            }
        }
        running[t].store(0, Ordering::SeqCst);
    });
}

#[test]
fn parallel_for_covers_exactly_once_under_stealing_with_random_delays() {
    let threads = stress_threads();
    let exec = Executor::new(threads);
    for seed in 0..4u64 {
        let mut rng = Rng::seed_from_u64(0x57EA_3000 + seed);
        let n = 10_000;
        let grain = rng.gen_usize(1..64);
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        exec.parallel_for(n, grain, |range, _w| {
            // Random per-chunk stall, reseeded from the chunk start so the
            // delay pattern is schedule-independent.
            let stall = Rng::seed_from_u64(seed ^ range.start as u64).gen_usize(0..2000);
            spin(stall as u64);
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "seed {seed}: index {i}");
        }
    }
}

/// Many short loops whose last chunks are stolen while the submitter
/// looks for work: the submitter may not finish while a thief still holds
/// loot in flight (between its victim CAS and its own-slot store), or the
/// thief strands the rest of its loot once the job is retired. Short
/// ranges and alignment 4 make whole-remainder steals common.
#[test]
fn parallel_for_aligned_does_not_strand_stolen_loot() {
    let exec = Executor::new(stress_threads().max(4));
    for rep in 0..4000 {
        for n in [15usize, 24, 30, 45] {
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            exec.parallel_for_aligned(n, 1, 4, |range, _w| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "rep {rep} n={n}: index {i}");
            }
        }
    }
}
