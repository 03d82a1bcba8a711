//! Discrete-event simulation of the task scheduler.
//!
//! The paper's scaling results (Figures 9–12, 14) are functions of the
//! *schedule*: how task sizes, the Gray-code dependency structure, queue
//! discipline and selective privatization interact with `P` workers. This
//! crate replays exactly the semantics of
//! [`nufft_parallel::Executor::run_graph`] in virtual time, so core-scaling
//! experiments can be run for 10/20/40 workers on any host — the development
//! container for this reproduction has a single core.
//!
//! Two scheduler models are provided:
//!
//! * [`simulate`] replays the **persistent sharded runtime** that
//!   [`nufft_parallel::Executor`] ships: one ready-queue shard per worker,
//!   initial seeds dealt round-robin in task order, a worker pops the
//!   policy-best entry of its *own* shard and otherwise steals the
//!   policy-best entry of the first non-empty victim scanning `(w+1) % T`
//!   upward; a completed task's newly-ready successors land on the
//!   completing worker's own shard. Each shard is its own serial resource:
//!   dequeues of the *same* shard (owner pops and steals alike) serialize on
//!   [`CostModel::queue_overhead`], dequeues of different shards proceed in
//!   parallel — exactly the contention profile of per-shard mutexes.
//! * [`simulate_shared_queue`] models the paper's global-queue scheduler
//!   (§III-B3), which the runtime no longer ships: one ready queue whose
//!   dequeues serialize on a single resource. That global contention term
//!   is what makes fixed-width partitioning (thousands of tiny tasks) stop
//!   scaling in Figure 11, and is the cost the sharded runtime removes.
//!
//! Costs are supplied per (task, phase) by a [`CostModel`]; the repro
//! harness calibrates [`LinearCost`] from real single-core measurements.

// Index-based loops below frequently address several parallel arrays
// at once; clippy's iterator suggestion would obscure that.
#![allow(clippy::needless_range_loop)]

use nufft_parallel::exec::TaskPhase;
use nufft_parallel::graph::{Dag, NodeId, QueuePolicy, TaskGraph, TaskId};
use nufft_parallel::queue::{Entry, ReadyQueue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual-time cost provider for (task, phase) units.
pub trait CostModel {
    /// Execution cost (virtual seconds) of one (task, phase) unit.
    fn cost(&self, graph: &TaskGraph, task: TaskId, phase: TaskPhase) -> f64;

    /// Serial cost of one dequeue from the shared ready queue.
    fn queue_overhead(&self) -> f64 {
        0.0
    }
}

/// Affine cost model: `per_task + per_sample · weight(task)` for convolve
/// phases and `reduce_per_sample · weight(task)` for reductions.
#[derive(Clone, Copy, Debug)]
pub struct LinearCost {
    /// Fixed overhead per task (scheduling, kernel setup).
    pub per_task: f64,
    /// Marginal cost per sample convolved.
    pub per_sample: f64,
    /// Marginal cost per sample-equivalent during a privatized reduction.
    pub reduce_per_sample: f64,
    /// Serial dequeue cost (shared-queue contention).
    pub queue_cost: f64,
}

impl LinearCost {
    /// A convenient default roughly matching one sample ≈ 1 unit of work.
    pub fn per_sample(per_sample: f64) -> Self {
        LinearCost {
            per_task: per_sample * 4.0,
            per_sample,
            reduce_per_sample: per_sample * 0.15,
            queue_cost: per_sample * 2.0,
        }
    }
}

impl CostModel for LinearCost {
    fn cost(&self, graph: &TaskGraph, task: TaskId, phase: TaskPhase) -> f64 {
        let w = graph.weight(task) as f64;
        match phase {
            TaskPhase::Normal | TaskPhase::PrivateConvolve => self.per_task + self.per_sample * w,
            TaskPhase::Reduce => self.per_task + self.reduce_per_sample * w,
        }
    }

    fn queue_overhead(&self) -> f64 {
        self.queue_cost
    }
}

/// One simulated (task, phase) execution.
#[derive(Clone, Copy, Debug)]
pub struct SimRecord {
    /// Which task ran.
    pub task: TaskId,
    /// Which phase.
    pub phase: TaskPhase,
    /// Virtual worker that ran it.
    pub worker: usize,
    /// Virtual start time.
    pub start: f64,
    /// Virtual end time.
    pub end: f64,
}

/// Result of a virtual run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Virtual makespan.
    pub makespan: f64,
    /// Per-worker busy time (task execution only, not queue waits).
    pub worker_busy: Vec<f64>,
    /// Full timeline, ordered by start time.
    pub timeline: Vec<SimRecord>,
}

impl SimResult {
    /// Busy time / (P × makespan).
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0.0 {
            return 1.0;
        }
        self.worker_busy.iter().sum::<f64>() / (self.makespan * self.worker_busy.len() as f64)
    }
}

#[derive(PartialEq)]
struct FinishEvent {
    time: f64,
    worker: usize,
    task: TaskId,
    phase: TaskPhase,
}

impl Eq for FinishEvent {}

impl Ord for FinishEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.worker.cmp(&other.worker))
            .then_with(|| self.task.cmp(&other.task))
    }
}

impl PartialOrd for FinishEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn encode(task: TaskId, phase: TaskPhase) -> u64 {
    let p = match phase {
        TaskPhase::Normal => 0,
        TaskPhase::PrivateConvolve => 1,
        TaskPhase::Reduce => 2,
    };
    (task as u64) * 4 + p
}

fn decode(payload: u64) -> (TaskId, TaskPhase) {
    let phase = match payload % 4 {
        0 => TaskPhase::Normal,
        1 => TaskPhase::PrivateConvolve,
        2 => TaskPhase::Reduce,
        _ => unreachable!(),
    };
    ((payload / 4) as TaskId, phase)
}

/// Simulates `graph` on `workers` virtual workers under `policy`, replaying
/// the **persistent sharded runtime**
/// ([`nufft_parallel::Executor::run_graph`]): per-worker ready-queue shards
/// with round-robin seeding (the k-th initially-ready unit, in task order,
/// lands on shard `k % workers`), own-shard-first popping, and steals that take
/// the policy-best entry of the first non-empty victim scanning `(w+1) % T`
/// upward — so largest-first priority is preserved *per steal victim*, not
/// globally. Newly-ready successors are pushed to the completing worker's
/// own shard. Dequeues of the same shard serialize on
/// [`CostModel::queue_overhead`] (the shard mutex); dequeues of different
/// shards run in parallel. Ties in virtual time are broken
/// deterministically, so results are reproducible.
///
/// ```
/// use nufft_parallel::graph::{QueuePolicy, TaskGraph};
/// use nufft_sim::{simulate, LinearCost};
///
/// let mut g = TaskGraph::new(&[4, 4]);
/// for t in 0..g.len() { g.set_weight(t, 100); }
/// let model = LinearCost::per_sample(1e-6);
/// let t1 = simulate(&g, QueuePolicy::Priority, 1, &model).makespan;
/// let t4 = simulate(&g, QueuePolicy::Priority, 4, &model).makespan;
/// assert!(t4 < t1); // more virtual workers, shorter virtual makespan
/// ```
pub fn simulate(
    graph: &TaskGraph,
    policy: QueuePolicy,
    workers: usize,
    model: &dyn CostModel,
) -> SimResult {
    assert!(workers > 0, "need at least one virtual worker");
    let n = graph.len();
    // Merged readiness counters, as in the real executor: predecessor edges
    // plus one extra for a privatized task's own convolve phase.
    let mut pending: Vec<u32> = Vec::with_capacity(n);
    let mut shards: Vec<ReadyQueue> = (0..workers).map(|_| ReadyQueue::new(policy)).collect();
    let mut remaining = 0usize;
    let mut seed = 0usize;
    for t in 0..n {
        let extra: u32 = if graph.privatized(t) { 1 } else { 0 };
        pending.push(graph.pred_count(t) as u32 + extra);
        remaining += 1 + extra as usize;
        if graph.privatized(t) {
            shards[seed % workers].push(Entry {
                weight: graph.weight(t),
                payload: encode(t, TaskPhase::PrivateConvolve),
            });
            seed += 1;
        } else if graph.pred_count(t) == 0 {
            shards[seed % workers]
                .push(Entry { weight: graph.weight(t), payload: encode(t, TaskPhase::Normal) });
            seed += 1;
        }
    }

    let mut events: BinaryHeap<Reverse<FinishEvent>> = BinaryHeap::new();
    let key = |t: f64| -> u64 { (t * 1e12) as u64 };
    // Idle workers, deterministic pick order (earliest-free, then index).
    let mut idle: Vec<(u64, usize)> = (0..workers).map(|w| (0u64, w)).collect();
    // Per-shard serial dequeue resource (the shard's mutex).
    let mut shard_free_at = vec![0.0f64; workers];
    let mut busy = vec![0.0f64; workers];
    let mut timeline = Vec::with_capacity(remaining);
    let mut makespan = 0.0f64;
    let mut now = 0.0f64;

    loop {
        // Assign work to idle workers: each picks its own shard first, then
        // steals scanning (w+1) % T — the executor's exact victim order.
        idle.sort_unstable();
        let mut still_idle = Vec::new();
        for &(tfree_k, w) in &idle {
            let tfree = tfree_k as f64 / 1e12;
            let victim = (0..workers).map(|d| (w + d) % workers).find(|&v| !shards[v].is_empty());
            let Some(v) = victim else {
                still_idle.push((tfree_k, w));
                continue;
            };
            let e = shards[v].pop().expect("checked non-empty");
            let (task, phase) = decode(e.payload);
            // The dequeue serializes on the victim shard's mutex; it cannot
            // begin before the work became ready (`now`).
            let pop_start = tfree.max(now).max(shard_free_at[v]);
            let start = pop_start + model.queue_overhead();
            shard_free_at[v] = start;
            let dur = model.cost(graph, task, phase);
            let end = start + dur;
            busy[w] += dur;
            timeline.push(SimRecord { task, phase, worker: w, start, end });
            events.push(Reverse(FinishEvent { time: end, worker: w, task, phase }));
        }
        idle = still_idle;

        let Some(Reverse(ev)) = events.pop() else { break };
        makespan = makespan.max(ev.time);
        now = ev.time;
        idle.push((key(ev.time), ev.worker));
        remaining -= 1;

        // Completion bookkeeping (mirrors GraphJob::complete): retire one
        // prerequisite per edge; the last retirement publishes the task to
        // the completing worker's own shard.
        let mut retire = |t: TaskId, shards: &mut Vec<ReadyQueue>| {
            pending[t] -= 1;
            if pending[t] == 0 {
                let phase = if graph.privatized(t) { TaskPhase::Reduce } else { TaskPhase::Normal };
                shards[ev.worker]
                    .push(Entry { weight: graph.weight(t), payload: encode(t, phase) });
            }
        };
        match ev.phase {
            TaskPhase::PrivateConvolve => retire(ev.task, &mut shards),
            TaskPhase::Normal | TaskPhase::Reduce => {
                for s in graph.succs(ev.task) {
                    retire(s, &mut shards);
                }
            }
        }
    }
    debug_assert_eq!(remaining, 0, "simulation finished with unscheduled work");

    timeline.sort_by(|a, b| a.start.total_cmp(&b.start));
    SimResult { makespan, worker_busy: busy, timeline }
}

/// Simulates `graph` under the paper's **global-queue** scheduler
/// (§III-B3), which the runtime no longer ships: one ready queue, every
/// dequeue serialized on a single [`CostModel::queue_overhead`] resource.
/// This is the baseline the sharded runtime of [`simulate`] is measured
/// against — its global contention term caps the scaling of
/// many-tiny-task partitionings (Figure 11).
pub fn simulate_shared_queue(
    graph: &TaskGraph,
    policy: QueuePolicy,
    workers: usize,
    model: &dyn CostModel,
) -> SimResult {
    assert!(workers > 0, "need at least one virtual worker");
    let n = graph.len();
    let mut ready = ReadyQueue::new(policy);
    let mut pending: Vec<u32> = (0..n).map(|t| graph.pred_count(t) as u32).collect();
    let mut conv_done = vec![false; n];
    let mut remaining = 0usize;
    for t in 0..n {
        if graph.privatized(t) {
            remaining += 2;
            ready.push(Entry {
                weight: graph.weight(t),
                payload: encode(t, TaskPhase::PrivateConvolve),
            });
        } else {
            remaining += 1;
            if pending[t] == 0 {
                ready
                    .push(Entry { weight: graph.weight(t), payload: encode(t, TaskPhase::Normal) });
            }
        }
    }

    let mut events: BinaryHeap<Reverse<FinishEvent>> = BinaryHeap::new();
    // Workers idle since time 0; pair (time_free, worker) kept as a min-heap
    // for deterministic assignment.
    let mut idle: BinaryHeap<Reverse<(u64, usize)>> =
        (0..workers).map(|w| Reverse((0u64, w))).collect();
    let key = |t: f64| -> u64 { (t * 1e12) as u64 };

    let mut queue_free_at = 0.0f64;
    let mut busy = vec![0.0f64; workers];
    let mut timeline = Vec::with_capacity(remaining);
    let mut makespan = 0.0f64;
    // Current simulation time: entries in `ready` became ready no later than
    // `now`, so a worker that has been idle longer still cannot start before
    // the work existed.
    let mut now = 0.0f64;

    // Main loop: assign ready work to idle workers, else advance events.
    loop {
        // Assign as many ready units as possible.
        while !ready.is_empty() {
            let Some(Reverse((tfree_k, w))) = idle.pop() else { break };
            let tfree = tfree_k as f64 / 1e12;
            let e = ready.pop().expect("checked non-empty");
            let (task, phase) = decode(e.payload);
            // Dequeue serializes on the shared queue; cannot begin before
            // the work became ready (`now`).
            let pop_start = tfree.max(now).max(queue_free_at);
            let start = pop_start + model.queue_overhead();
            queue_free_at = start;
            let dur = model.cost(graph, task, phase);
            let end = start + dur;
            busy[w] += dur;
            timeline.push(SimRecord { task, phase, worker: w, start, end });
            events.push(Reverse(FinishEvent { time: end, worker: w, task, phase }));
        }

        let Some(Reverse(ev)) = events.pop() else { break };
        makespan = makespan.max(ev.time);
        now = ev.time;
        idle.push(Reverse((key(ev.time), ev.worker)));
        remaining -= 1;

        // Completion bookkeeping (mirrors Executor::complete).
        match ev.phase {
            TaskPhase::PrivateConvolve => {
                conv_done[ev.task] = true;
                if pending[ev.task] == 0 {
                    ready.push(Entry {
                        weight: graph.weight(ev.task),
                        payload: encode(ev.task, TaskPhase::Reduce),
                    });
                }
            }
            TaskPhase::Normal | TaskPhase::Reduce => {
                for s in graph.succs(ev.task) {
                    pending[s] -= 1;
                    if pending[s] == 0 {
                        if graph.privatized(s) {
                            if conv_done[s] {
                                ready.push(Entry {
                                    weight: graph.weight(s),
                                    payload: encode(s, TaskPhase::Reduce),
                                });
                            }
                        } else {
                            ready.push(Entry {
                                weight: graph.weight(s),
                                payload: encode(s, TaskPhase::Normal),
                            });
                        }
                    }
                }
            }
        }
    }
    debug_assert_eq!(remaining, 0, "simulation finished with unscheduled work");

    timeline.sort_by(|a, b| a.start.total_cmp(&b.start));
    SimResult { makespan, worker_busy: busy, timeline }
}

/// Simulates the *barrier-colored* schedule of Zhang et al. (paper §VI):
/// tasks are grouped by turn (color); all tasks of one color run as a
/// parallel batch (largest-first onto the earliest-free worker, dequeues
/// serialized on the shared queue), and a **global barrier** separates
/// colors. No privatization, no cross-color overlap — the scheme the
/// paper's TDG improves upon.
///
/// Returns the virtual makespan. Privatization flags on the graph are
/// ignored (the colored scheme has no such mechanism).
pub fn simulate_colored(graph: &TaskGraph, workers: usize, model: &dyn CostModel) -> f64 {
    assert!(workers > 0, "need at least one virtual worker");
    let max_rank = (0..graph.len()).map(|t| graph.rank(t)).max().unwrap_or(0);
    let qc = model.queue_overhead();
    let mut t_total = 0.0f64;
    for rank in 0..=max_rank {
        let mut costs: Vec<f64> = (0..graph.len())
            .filter(|&t| graph.rank(t) == rank)
            .map(|t| model.cost(graph, t, TaskPhase::Normal))
            .collect();
        // Largest-first list scheduling with a serialized dequeue.
        costs.sort_by(|a, b| b.total_cmp(a));
        let mut worker_free = vec![0.0f64; workers];
        let mut queue_free = 0.0f64;
        let mut phase_end = 0.0f64;
        for c in costs {
            // Earliest-free worker takes the next task.
            let (wi, &wf) = worker_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("workers > 0");
            let start = wf.max(queue_free) + qc;
            queue_free = start;
            let end = start + c;
            worker_free[wi] = end;
            phase_end = phase_end.max(end);
        }
        // Global barrier: the next color starts when the slowest worker of
        // this color finishes.
        t_total += phase_end;
    }
    t_total
}

/// Sweeps worker counts and returns `(workers, speedup_vs_first)` pairs —
/// the building block of every scaling figure.
pub fn speedup_curve(
    graph: &TaskGraph,
    policy: QueuePolicy,
    worker_counts: &[usize],
    model: &dyn CostModel,
) -> Vec<(usize, f64)> {
    assert!(!worker_counts.is_empty());
    let base = simulate(graph, policy, worker_counts[0], model).makespan;
    worker_counts.iter().map(|&w| (w, base / simulate(graph, policy, w, model).makespan)).collect()
}

/// Virtual-time cost provider for heterogeneous [`Dag`] nodes (the fused
/// whole-operator graphs built by `nufft-core`).
pub trait DagCostModel {
    /// Execution cost (virtual seconds) of one node.
    fn cost(&self, dag: &Dag, node: NodeId) -> f64;

    /// Serial cost of one dequeue from a ready-queue shard.
    fn queue_overhead(&self) -> f64 {
        0.0
    }
}

/// Affine node cost: `per_node + per_unit · weight(node)`. Node weights in
/// the fused graphs are already normalized work estimates (grid elements,
/// sample-equivalents), so one linear model covers all kinds.
#[derive(Clone, Copy, Debug)]
pub struct DagLinearCost {
    /// Fixed overhead per node (scheduling, dispatch).
    pub per_node: f64,
    /// Marginal cost per weight unit.
    pub per_unit: f64,
    /// Serial dequeue cost (shard-mutex contention).
    pub queue_cost: f64,
}

impl DagLinearCost {
    /// A convenient default: one weight unit ≈ `per_unit` seconds.
    pub fn per_unit(per_unit: f64) -> Self {
        DagLinearCost { per_node: per_unit * 4.0, per_unit, queue_cost: per_unit * 2.0 }
    }
}

impl DagCostModel for DagLinearCost {
    fn cost(&self, dag: &Dag, node: NodeId) -> f64 {
        self.per_node + self.per_unit * dag.weight(node) as f64
    }

    fn queue_overhead(&self) -> f64 {
        self.queue_cost
    }
}

/// One simulated node execution.
#[derive(Clone, Copy, Debug)]
pub struct DagSimRecord {
    /// Which node ran.
    pub node: NodeId,
    /// Its opaque tag (kind/axis/channel packing is the builder's).
    pub tag: u64,
    /// Virtual worker that ran it.
    pub worker: usize,
    /// Virtual start time.
    pub start: f64,
    /// Virtual end time.
    pub end: f64,
}

/// Result of a virtual DAG run.
#[derive(Clone, Debug)]
pub struct DagSimResult {
    /// Virtual makespan.
    pub makespan: f64,
    /// Per-worker busy time (node execution only, not queue waits).
    pub worker_busy: Vec<f64>,
    /// Full timeline, ordered by start time.
    pub timeline: Vec<DagSimRecord>,
}

impl DagSimResult {
    /// Busy time / (P × makespan).
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0.0 {
            return 1.0;
        }
        self.worker_busy.iter().sum::<f64>() / (self.makespan * self.worker_busy.len() as f64)
    }
}

/// Core DAG event loop over the subset of nodes where `active` holds;
/// edges with an inactive endpoint are dropped. Mechanics mirror
/// [`simulate`] exactly (sharded queues, round-robin seeding,
/// own-shard-then-scan stealing, per-shard serialized dequeues).
fn simulate_dag_subset(
    dag: &Dag,
    policy: QueuePolicy,
    workers: usize,
    model: &dyn DagCostModel,
    active: &dyn Fn(NodeId) -> bool,
) -> DagSimResult {
    assert!(workers > 0, "need at least one virtual worker");
    let n = dag.len();
    let mut pending: Vec<u32> = vec![0; n];
    let mut remaining = 0usize;
    for u in 0..n as NodeId {
        if !active(u) {
            continue;
        }
        remaining += 1;
        for &v in dag.succs(u) {
            if active(v) {
                pending[v as usize] += 1;
            }
        }
    }
    let mut shards: Vec<ReadyQueue> = (0..workers).map(|_| ReadyQueue::new(policy)).collect();
    let mut seed = 0usize;
    for u in 0..n as NodeId {
        if active(u) && pending[u as usize] == 0 {
            shards[seed % workers].push(Entry { weight: dag.priority(u), payload: u as u64 });
            seed += 1;
        }
    }

    let mut events: BinaryHeap<Reverse<FinishEvent>> = BinaryHeap::new();
    let key = |t: f64| -> u64 { (t * 1e12) as u64 };
    let mut idle: Vec<(u64, usize)> = (0..workers).map(|w| (0u64, w)).collect();
    let mut shard_free_at = vec![0.0f64; workers];
    let mut busy = vec![0.0f64; workers];
    let mut timeline = Vec::with_capacity(remaining);
    let mut makespan = 0.0f64;
    let mut now = 0.0f64;

    loop {
        idle.sort_unstable();
        let mut still_idle = Vec::new();
        for &(tfree_k, w) in &idle {
            let tfree = tfree_k as f64 / 1e12;
            let victim = (0..workers).map(|d| (w + d) % workers).find(|&v| !shards[v].is_empty());
            let Some(v) = victim else {
                still_idle.push((tfree_k, w));
                continue;
            };
            let e = shards[v].pop().expect("checked non-empty");
            let node = e.payload as NodeId;
            let pop_start = tfree.max(now).max(shard_free_at[v]);
            let start = pop_start + model.queue_overhead();
            shard_free_at[v] = start;
            let dur = model.cost(dag, node);
            let end = start + dur;
            busy[w] += dur;
            timeline.push(DagSimRecord { node, tag: dag.tag(node), worker: w, start, end });
            events.push(Reverse(FinishEvent {
                time: end,
                worker: w,
                task: node as TaskId,
                phase: TaskPhase::Normal,
            }));
        }
        idle = still_idle;

        let Some(Reverse(ev)) = events.pop() else { break };
        makespan = makespan.max(ev.time);
        now = ev.time;
        idle.push((key(ev.time), ev.worker));
        remaining -= 1;

        for &s in dag.succs(ev.task as NodeId) {
            if !active(s) {
                continue;
            }
            pending[s as usize] -= 1;
            if pending[s as usize] == 0 {
                shards[ev.worker].push(Entry { weight: dag.priority(s), payload: s as u64 });
            }
        }
    }
    debug_assert_eq!(remaining, 0, "simulation finished with unscheduled work");

    timeline.sort_by(|a, b| a.start.total_cmp(&b.start));
    DagSimResult { makespan, worker_busy: busy, timeline }
}

/// Simulates a fused whole-operator [`Dag`] on `workers` virtual workers —
/// the **barrier-free** schedule: a worker takes any node whose
/// dependencies are retired, regardless of phase.
pub fn simulate_dag(
    dag: &Dag,
    policy: QueuePolicy,
    workers: usize,
    model: &dyn DagCostModel,
) -> DagSimResult {
    simulate_dag_subset(dag, policy, workers, model, &|_| true)
}

/// Simulates the same node set as [`simulate_dag`] but with an executor
/// join after every phase (the historical pipeline): nodes are grouped by
/// `phases[node]`, each group runs as its own sharded simulation with only
/// intra-phase edges, and the total is the **sum of group makespans** —
/// every phase waits for the previous one's slowest worker. Returns that
/// total virtual time.
///
/// `phases[v]` is the phase index of node `v` (see
/// `nufft_core::fused::node_phase`); phase ids need not be dense.
pub fn simulate_dag_phased(
    dag: &Dag,
    phases: &[usize],
    policy: QueuePolicy,
    workers: usize,
    model: &dyn DagCostModel,
) -> f64 {
    assert_eq!(phases.len(), dag.len(), "one phase id per node");
    let mut ids: Vec<usize> = phases.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.iter()
        .map(|&p| {
            simulate_dag_subset(dag, policy, workers, model, &|v| phases[v as usize] == p).makespan
        })
        .sum()
}

/// A point of the fused-vs-phased scaling comparison.
#[derive(Clone, Copy, Debug)]
pub struct DagSpeedupPoint {
    /// Virtual worker count.
    pub workers: usize,
    /// Barrier-free makespan ([`simulate_dag`]).
    pub fused: f64,
    /// Join-after-every-phase total ([`simulate_dag_phased`]).
    pub phased: f64,
}

/// Sweeps worker counts, returning fused and phased virtual times per `P`
/// — the data behind the fused-DAG speedup curves.
pub fn dag_speedup_curve(
    dag: &Dag,
    phases: &[usize],
    policy: QueuePolicy,
    worker_counts: &[usize],
    model: &dyn DagCostModel,
) -> Vec<DagSpeedupPoint> {
    worker_counts
        .iter()
        .map(|&workers| DagSpeedupPoint {
            workers,
            fused: simulate_dag(dag, policy, workers, model).makespan,
            phased: simulate_dag_phased(dag, phases, policy, workers, model),
        })
        .collect()
}

/// The fair-share stride scale of the real multi-tenant pool
/// (`nufft_parallel::exec`): a job's pass advances by `STRIDE_SCALE /
/// tickets` per unit served, and workers serve the runnable job with the
/// smallest pass.
const STRIDE_SCALE: u64 = 1 << 16;

/// Result of a concurrent multi-DAG replay.
#[derive(Clone, Debug)]
pub struct ConcurrentDagsResult {
    /// Virtual time at which the *last* job finished.
    pub makespan: f64,
    /// Per-job finish time, in submission order.
    pub finish: Vec<f64>,
    /// Per-worker busy time across all jobs.
    pub worker_busy: Vec<f64>,
}

/// Replays `dags.len()` fused DAGs submitted **concurrently** at virtual
/// time 0 onto one pool of `workers` virtual workers — the multi-tenant
/// scheduler of `nufft_parallel::exec` in virtual time. Per-job state
/// mirrors the real pool exactly: every job owns its own per-worker
/// ready-queue shards and pending counters (tenants share nothing
/// mutable); an idle worker first picks the runnable job with the minimum
/// `(pass, submission index)` — stride fair-share, where serving one unit
/// advances the job's pass by `2^16 / tickets[j]` — then pops
/// own-shard-first / steals scanning `(w+1) % T` *within that job*.
/// Dequeues serialize per (job, worker) shard.
///
/// `tickets[j]` is job `j`'s admission weight (the real pool's
/// `JobPriority::tickets`: Low = 1, Normal = 4, High = 16). Higher tickets
/// → smaller stride → more worker steps per unit of virtual time.
///
/// Serial submission of the same jobs is the sum of their solo
/// [`simulate_dag`] makespans; `tests` pin that concurrent submission
/// dominates it at P ≥ 4 whenever single jobs cannot saturate the pool —
/// the service-layer win this PR exists to demonstrate.
pub fn simulate_concurrent_dags(
    dags: &[&Dag],
    tickets: &[u64],
    policy: QueuePolicy,
    workers: usize,
    model: &dyn DagCostModel,
) -> ConcurrentDagsResult {
    assert!(workers > 0, "need at least one virtual worker");
    assert!(!dags.is_empty(), "need at least one job");
    assert_eq!(dags.len(), tickets.len(), "one ticket count per job");
    assert!(tickets.iter().all(|&t| t > 0), "tickets must be positive");
    let k = dags.len();

    // Per-job mirrored state: pending counters, shards, remaining units.
    let mut pending: Vec<Vec<u32>> = Vec::with_capacity(k);
    let mut shards: Vec<Vec<ReadyQueue>> = Vec::with_capacity(k);
    let mut remaining: Vec<usize> = Vec::with_capacity(k);
    for dag in dags {
        let n = dag.len();
        let mut pend = vec![0u32; n];
        for u in 0..n as NodeId {
            for &v in dag.succs(u) {
                pend[v as usize] += 1;
            }
        }
        let mut job_shards: Vec<ReadyQueue> =
            (0..workers).map(|_| ReadyQueue::new(policy)).collect();
        let mut seed = 0usize;
        for u in 0..n as NodeId {
            if pend[u as usize] == 0 {
                job_shards[seed % workers]
                    .push(Entry { weight: dag.priority(u), payload: u as u64 });
                seed += 1;
            }
        }
        pending.push(pend);
        shards.push(job_shards);
        remaining.push(n);
    }
    let stride: Vec<u64> = tickets.iter().map(|&t| STRIDE_SCALE / t).collect();
    let mut pass = vec![0u64; k];

    // Finish events carry the job index in `phase`-free form: reuse
    // FinishEvent with `task` = node and `worker`; job rides alongside.
    struct JobEvent {
        time: f64,
        worker: usize,
        job: usize,
        node: NodeId,
    }
    impl PartialEq for JobEvent {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl Eq for JobEvent {}
    impl Ord for JobEvent {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.time
                .total_cmp(&other.time)
                .then_with(|| self.worker.cmp(&other.worker))
                .then_with(|| self.job.cmp(&other.job))
                .then_with(|| self.node.cmp(&other.node))
        }
    }
    impl PartialOrd for JobEvent {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut events: BinaryHeap<Reverse<JobEvent>> = BinaryHeap::new();
    let key = |t: f64| -> u64 { (t * 1e12) as u64 };
    let mut idle: Vec<(u64, usize)> = (0..workers).map(|w| (0u64, w)).collect();
    let mut shard_free_at = vec![vec![0.0f64; workers]; k];
    let mut busy = vec![0.0f64; workers];
    let mut finish = vec![0.0f64; k];
    let mut makespan = 0.0f64;
    let mut now = 0.0f64;

    loop {
        idle.sort_unstable();
        let mut still_idle = Vec::new();
        for &(tfree_k, w) in &idle {
            let tfree = tfree_k as f64 / 1e12;
            // Stride pick: the runnable job with the smallest (pass, index).
            let pick = (0..k)
                .filter(|&j| shards[j].iter().any(|s| !s.is_empty()))
                .min_by_key(|&j| (pass[j], j));
            let Some(j) = pick else {
                still_idle.push((tfree_k, w));
                continue;
            };
            let v = (0..workers)
                .map(|d| (w + d) % workers)
                .find(|&v| !shards[j][v].is_empty())
                .expect("picked job has ready work");
            let e = shards[j][v].pop().expect("checked non-empty");
            let node = e.payload as NodeId;
            let pop_start = tfree.max(now).max(shard_free_at[j][v]);
            let start = pop_start + model.queue_overhead();
            shard_free_at[j][v] = start;
            let dur = model.cost(dags[j], node);
            let end = start + dur;
            busy[w] += dur;
            pass[j] = pass[j].saturating_add(stride[j]);
            events.push(Reverse(JobEvent { time: end, worker: w, job: j, node }));
        }
        idle = still_idle;

        let Some(Reverse(ev)) = events.pop() else { break };
        makespan = makespan.max(ev.time);
        now = ev.time;
        idle.push((key(ev.time), ev.worker));
        remaining[ev.job] -= 1;
        if remaining[ev.job] == 0 {
            finish[ev.job] = ev.time;
        }

        for &s in dags[ev.job].succs(ev.node) {
            pending[ev.job][s as usize] -= 1;
            if pending[ev.job][s as usize] == 0 {
                shards[ev.job][ev.worker]
                    .push(Entry { weight: dags[ev.job].priority(s), payload: s as u64 });
            }
        }
    }
    debug_assert!(remaining.iter().all(|&r| r == 0), "unscheduled work left");

    ConcurrentDagsResult { makespan, finish, worker_busy: busy }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_graph(dims: &[usize], w: u64) -> TaskGraph {
        let mut g = TaskGraph::new(dims);
        for t in 0..g.len() {
            g.set_weight(t, w);
        }
        g
    }

    /// A radial-like graph: huge weight in the center, light elsewhere.
    fn skewed_graph(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new(&[n, n]);
        let c = n / 2;
        for t in 0..g.len() {
            let idx = g.unflatten(t);
            let d = idx[0].abs_diff(c) + idx[1].abs_diff(c);
            g.set_weight(t, if d == 0 { 4000 } else { 40 / (d as u64) + 1 });
        }
        g
    }

    #[test]
    fn single_worker_time_is_total_work() {
        let g = uniform_graph(&[4, 4], 10);
        let model =
            LinearCost { per_task: 1.0, per_sample: 0.5, reduce_per_sample: 0.0, queue_cost: 0.0 };
        let r = simulate(&g, QueuePolicy::Fifo, 1, &model);
        let want = 16.0 * (1.0 + 0.5 * 10.0);
        assert!((r.makespan - want).abs() < 1e-9, "{} vs {want}", r.makespan);
        assert!((r.worker_busy[0] - want).abs() < 1e-9);
        assert!((r.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_workers_never_slower_without_queue_contention() {
        let g = uniform_graph(&[8, 8], 25);
        let model =
            LinearCost { per_task: 0.5, per_sample: 0.2, reduce_per_sample: 0.0, queue_cost: 0.0 };
        let mut prev = f64::INFINITY;
        for workers in [1, 2, 4, 8, 16] {
            let r = simulate(&g, QueuePolicy::Priority, workers, &model);
            assert!(r.makespan <= prev + 1e-9, "workers={workers}: {} > {prev}", r.makespan);
            prev = r.makespan;
        }
    }

    #[test]
    fn speedup_bounded_by_worker_count() {
        let g = uniform_graph(&[10, 10], 50);
        let model = LinearCost::per_sample(1.0);
        for workers in [2usize, 4, 8] {
            let r1 = simulate(&g, QueuePolicy::Priority, 1, &model);
            let rp = simulate(&g, QueuePolicy::Priority, workers, &model);
            let s = r1.makespan / rp.makespan;
            assert!(s <= workers as f64 + 1e-9, "superlinear speedup {s} on {workers} workers");
            assert!(s >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn dependencies_respected_in_timeline() {
        let g = uniform_graph(&[5, 5], 7);
        let model = LinearCost::per_sample(0.3);
        let r = simulate(&g, QueuePolicy::Fifo, 4, &model);
        let mut finish = vec![0.0f64; g.len()];
        for rec in &r.timeline {
            finish[rec.task] = finish[rec.task].max(rec.end);
        }
        for rec in &r.timeline {
            for p in g.preds(rec.task) {
                assert!(
                    finish[p] <= rec.start + 1e-9,
                    "task {} started before pred {} finished",
                    rec.task,
                    p
                );
            }
        }
    }

    #[test]
    fn adjacent_tasks_never_overlap_in_virtual_time() {
        let g = uniform_graph(&[6, 6], 9);
        let model = LinearCost::per_sample(0.2);
        let r = simulate(&g, QueuePolicy::Priority, 8, &model);
        for a in &r.timeline {
            for b in &r.timeline {
                if a.task != b.task && g.adjacent(a.task, b.task) {
                    let overlap = a.start.max(b.start) < a.end.min(b.end) - 1e-12;
                    assert!(!overlap, "tasks {} and {} overlap", a.task, b.task);
                }
            }
        }
    }

    #[test]
    fn priority_queue_beats_fifo_on_skewed_weights() {
        // The Figure 12 (B vs C) mechanism: with many workers, starting the
        // heavy chain early reduces makespan. Asserted on the shared-queue
        // replay, where the policy acts globally (the paper's setting); the
        // sharded runtime only preserves the policy per shard, so the
        // contrast there is weaker and schedule-dependent.
        let g = skewed_graph(9);
        let model =
            LinearCost { per_task: 2.0, per_sample: 1.0, reduce_per_sample: 0.1, queue_cost: 0.05 };
        let fifo = simulate_shared_queue(&g, QueuePolicy::Fifo, 16, &model).makespan;
        let prio = simulate_shared_queue(&g, QueuePolicy::Priority, 16, &model).makespan;
        assert!(
            prio <= fifo * 1.001,
            "priority ({prio}) should not lose to FIFO ({fifo}) on skewed weights"
        );
    }

    #[test]
    fn sharded_priority_still_prefers_heavy_tasks_locally() {
        // Largest-first survives sharding in the weaker, per-victim form:
        // under the sharded replay a skewed graph must not schedule
        // substantially worse with Priority than with Fifo.
        let g = skewed_graph(9);
        let model =
            LinearCost { per_task: 2.0, per_sample: 1.0, reduce_per_sample: 0.1, queue_cost: 0.05 };
        let fifo = simulate(&g, QueuePolicy::Fifo, 16, &model).makespan;
        let prio = simulate(&g, QueuePolicy::Priority, 16, &model).makespan;
        assert!(
            prio <= fifo * 1.10,
            "per-shard priority ({prio}) should stay within 10% of FIFO ({fifo})"
        );
    }

    #[test]
    fn privatization_helps_dense_center() {
        // The Figure 12 (A vs B) mechanism: a dense center *region* of
        // mutually adjacent heavy tasks serializes into 2^d turn waves;
        // privatizing those tasks lets their convolutions run concurrently,
        // leaving only the (much cheaper) reductions on the serial chain.
        let mut g = TaskGraph::new(&[7, 7]);
        let mut dense = Vec::new();
        for t in 0..g.len() {
            let idx = g.unflatten(t);
            let in_core = (2..=4).contains(&idx[0]) && (2..=4).contains(&idx[1]);
            g.set_weight(t, if in_core { 1000 } else { 5 });
            if in_core {
                dense.push(t);
            }
        }
        let model = LinearCost {
            per_task: 1.0,
            per_sample: 1.0,
            reduce_per_sample: 0.05,
            queue_cost: 0.01,
        };
        let before = simulate(&g, QueuePolicy::Priority, 16, &model).makespan;
        for &t in &dense {
            g.set_privatized(t, true);
        }
        let after = simulate(&g, QueuePolicy::Priority, 16, &model).makespan;
        assert!(
            after < 0.6 * before,
            "privatizing the dense region should shorten the makespan substantially \
             ({after} vs {before})"
        );
    }

    #[test]
    fn queue_contention_caps_scaling_of_tiny_tasks() {
        // The Figure 11 mechanism, on the shared-queue baseline where it
        // lives: thousands of tiny tasks serialize on the one global queue;
        // fewer, larger tasks keep scaling.
        let tiny = uniform_graph(&[20, 20], 1);
        let chunky = uniform_graph(&[4, 4], 25);
        let model =
            LinearCost { per_task: 0.1, per_sample: 1.0, reduce_per_sample: 0.0, queue_cost: 0.4 };
        let s = |g: &TaskGraph, w: usize| {
            simulate_shared_queue(g, QueuePolicy::Priority, 1, &model).makespan
                / simulate_shared_queue(g, QueuePolicy::Priority, w, &model).makespan
        };
        let tiny_speedup = s(&tiny, 16);
        let chunky_speedup = s(&chunky, 16);
        assert!(
            chunky_speedup > tiny_speedup,
            "chunky {chunky_speedup} should out-scale tiny {tiny_speedup}"
        );
    }

    #[test]
    fn sharded_queues_remove_the_global_contention_cap() {
        // The point of the persistent runtime: on the many-tiny-task graph
        // whose scaling the global queue caps, per-worker shards dequeue in
        // parallel and the makespan drops.
        let tiny = uniform_graph(&[20, 20], 1);
        let model =
            LinearCost { per_task: 0.1, per_sample: 1.0, reduce_per_sample: 0.0, queue_cost: 0.4 };
        let shared = simulate_shared_queue(&tiny, QueuePolicy::Priority, 16, &model).makespan;
        let sharded = simulate(&tiny, QueuePolicy::Priority, 16, &model).makespan;
        assert!(
            sharded < 0.75 * shared,
            "sharded dequeues ({sharded}) should beat the global queue ({shared}) well past noise"
        );
    }

    #[test]
    fn speedup_curve_is_normalized_to_first_entry() {
        let g = uniform_graph(&[8, 8], 12);
        let model = LinearCost::per_sample(0.5);
        let curve = speedup_curve(&g, QueuePolicy::Priority, &[1, 2, 4], &model);
        assert_eq!(curve.len(), 3);
        assert!((curve[0].1 - 1.0).abs() < 1e-12);
        assert!(curve[2].1 >= curve[1].1 * 0.9);
    }

    #[test]
    fn colored_barriers_lose_to_the_tdg_at_high_worker_counts() {
        // At low worker counts the colored scheme's global LPT packing can
        // win; the paper's claim is about many cores, where the barrier
        // leaves workers idle while a color's stragglers finish. Assert the
        // claim where it is made.
        for graph in [uniform_graph(&[8, 8], 20), skewed_graph(9)] {
            let model = LinearCost {
                per_task: 1.0,
                per_sample: 0.5,
                reduce_per_sample: 0.0,
                queue_cost: 0.05,
            };
            for workers in [16usize, 40] {
                let tdg = simulate(&graph, QueuePolicy::Priority, workers, &model).makespan;
                let colored = simulate_colored(&graph, workers, &model);
                assert!(
                    tdg <= colored * 1.05,
                    "TDG ({tdg}) lost to colored barriers ({colored}) at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn colored_single_worker_matches_serial_work() {
        let g = uniform_graph(&[4, 4], 10);
        let model =
            LinearCost { per_task: 1.0, per_sample: 0.5, reduce_per_sample: 0.0, queue_cost: 0.0 };
        let colored = simulate_colored(&g, 1, &model);
        let serial = 16.0 * (1.0 + 0.5 * 10.0);
        assert!((colored - serial).abs() < 1e-9, "{colored} vs {serial}");
    }

    #[test]
    fn barrier_hurts_when_colors_are_imbalanced() {
        // One heavy task per color forces every color phase to last the
        // heavy task's duration under barriers; the TDG overlaps them.
        let mut g = TaskGraph::new(&[6, 6]);
        for t in 0..g.len() {
            g.set_weight(t, if t % 9 == 0 { 500 } else { 5 });
        }
        let model =
            LinearCost { per_task: 0.5, per_sample: 1.0, reduce_per_sample: 0.0, queue_cost: 0.01 };
        let tdg = simulate(&g, QueuePolicy::Priority, 16, &model).makespan;
        let colored = simulate_colored(&g, 16, &model);
        assert!(
            colored > 1.2 * tdg,
            "barriers should cost ≥20% here: colored {colored} vs tdg {tdg}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let g = skewed_graph(8);
        let model = LinearCost::per_sample(0.7);
        let a = simulate(&g, QueuePolicy::Priority, 8, &model);
        let b = simulate(&g, QueuePolicy::Priority, 8, &model);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.timeline.len(), b.timeline.len());
    }

    use nufft_parallel::graph::DagBuilder;

    /// A synthetic fused-style pipeline: `phases` layers of `width` nodes
    /// each, node (k, i) depending on nodes (k−1, i−1..=i+1) — local edges
    /// like the tile graphs, not all-to-all. `skew` makes one lane of each
    /// layer heavy (the straggler barriers amplify), alternating between
    /// the layer's ends so the heavy nodes don't form a dependency chain.
    fn pipeline_dag(layers: usize, width: usize, skew: u64) -> (Dag, Vec<usize>) {
        let mut b = DagBuilder::new();
        let mut phases = Vec::new();
        for k in 0..layers {
            let heavy = (k % 2) * (width - 1);
            for i in 0..width {
                let w = if i == heavy { skew } else { 10 };
                b.add_node(((k * width + i) as u64) << 8, w);
                phases.push(k);
            }
        }
        for k in 1..layers {
            for i in 0..width {
                for j in i.saturating_sub(1)..(i + 2).min(width) {
                    b.add_edge(((k - 1) * width + j) as NodeId, (k * width + i) as NodeId);
                }
            }
        }
        (b.build(), phases)
    }

    #[test]
    fn dag_single_worker_time_is_total_work() {
        let (dag, _) = pipeline_dag(3, 4, 10);
        let model = DagLinearCost { per_node: 1.0, per_unit: 0.5, queue_cost: 0.0 };
        let r = simulate_dag(&dag, QueuePolicy::Fifo, 1, &model);
        let want = 12.0 * 1.0 + 0.5 * dag.total_weight() as f64;
        assert!((r.makespan - want).abs() < 1e-9, "{} vs {want}", r.makespan);
        assert!((r.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dag_dependencies_respected_in_timeline() {
        let (dag, _) = pipeline_dag(4, 6, 80);
        let model = DagLinearCost::per_unit(0.1);
        let r = simulate_dag(&dag, QueuePolicy::Priority, 4, &model);
        assert_eq!(r.timeline.len(), dag.len());
        let mut finish = vec![0.0f64; dag.len()];
        for rec in &r.timeline {
            finish[rec.node as usize] = rec.end;
        }
        for u in 0..dag.len() as NodeId {
            for &v in dag.succs(u) {
                let start = r.timeline.iter().find(|rec| rec.node == v).unwrap().start;
                assert!(
                    finish[u as usize] <= start + 1e-9,
                    "node {v} started before pred {u} finished"
                );
            }
        }
    }

    #[test]
    fn dag_phased_equals_fused_on_one_worker_without_overhead() {
        // With P = 1 and no queue cost, barriers change nothing: both
        // schedules serialize all work.
        let (dag, phases) = pipeline_dag(4, 5, 60);
        let model = DagLinearCost { per_node: 0.5, per_unit: 0.2, queue_cost: 0.0 };
        let fused = simulate_dag(&dag, QueuePolicy::Priority, 1, &model).makespan;
        let phased = simulate_dag_phased(&dag, &phases, QueuePolicy::Priority, 1, &model);
        assert!((fused - phased).abs() < 1e-9, "{fused} vs {phased}");
    }

    #[test]
    fn concurrent_submission_dominates_serial_at_scale() {
        // Satellite requirement: K narrow jobs (max parallelism ≈ 4 each)
        // submitted together must beat running them back-to-back whenever
        // the pool is wider than one job — and never lose even at P = 4,
        // where one job nearly saturates the pool but its skewed-lane
        // stragglers still leave gaps another tenant can fill.
        let jobs: Vec<(Dag, Vec<usize>)> =
            (0..4).map(|i| pipeline_dag(6, 4, 120 + 40 * i as u64)).collect();
        let dags: Vec<&Dag> = jobs.iter().map(|(d, _)| d).collect();
        let tickets = vec![4u64; dags.len()];
        let model = DagLinearCost { per_node: 0.2, per_unit: 1.0, queue_cost: 0.01 };
        for workers in [4usize, 8, 16] {
            let serial: f64 = dags
                .iter()
                .map(|d| simulate_dag(d, QueuePolicy::Priority, workers, &model).makespan)
                .sum();
            let conc =
                simulate_concurrent_dags(&dags, &tickets, QueuePolicy::Priority, workers, &model);
            assert!(
                conc.makespan < serial,
                "P={workers}: concurrent {} should dominate serial {serial}",
                conc.makespan
            );
            // Work conservation: interleaving reorders, never adds units.
            let total: f64 = conc.worker_busy.iter().sum();
            let solo: f64 = dags
                .iter()
                .map(|d| {
                    simulate_dag(d, QueuePolicy::Priority, 1, &model)
                        .worker_busy
                        .iter()
                        .sum::<f64>()
                })
                .sum();
            assert!((total - solo).abs() < 1e-6, "busy {total} vs solo work {solo}");
        }
    }

    #[test]
    fn tickets_bias_finish_order_between_identical_jobs() {
        // Two identical jobs, one High (16 tickets) one Low (1): the
        // high-ticket tenant gets ~16× the worker steps per virtual second
        // and must finish strictly first. Mirrors the real pool's
        // starvation-avoidance test.
        let (dag, _) = pipeline_dag(6, 8, 60);
        let dags = [&dag, &dag];
        let model = DagLinearCost { per_node: 0.2, per_unit: 1.0, queue_cost: 0.01 };
        let r = simulate_concurrent_dags(&dags, &[16, 1], QueuePolicy::Priority, 4, &model);
        assert!(
            r.finish[0] < r.finish[1],
            "high-ticket job ({}) should finish before low ({})",
            r.finish[0],
            r.finish[1]
        );
        // And the Low job still completes — proportional share, not
        // preemptive starvation.
        assert!(r.finish[1] <= r.makespan);
    }

    #[test]
    fn concurrent_replay_is_deterministic() {
        let (a, _) = pipeline_dag(5, 6, 90);
        let (b, _) = pipeline_dag(4, 7, 30);
        let dags = [&a, &b];
        let model = DagLinearCost::per_unit(0.3);
        let r1 = simulate_concurrent_dags(&dags, &[4, 4], QueuePolicy::Priority, 8, &model);
        let r2 = simulate_concurrent_dags(&dags, &[4, 4], QueuePolicy::Priority, 8, &model);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.finish, r2.finish);
        assert_eq!(r1.worker_busy, r2.worker_busy);
    }

    #[test]
    fn single_concurrent_job_matches_solo_simulation() {
        // K = 1 degenerates to simulate_dag (same shards, same victim
        // order, no competing pass values).
        let (dag, _) = pipeline_dag(5, 5, 70);
        let model = DagLinearCost { per_node: 0.4, per_unit: 0.7, queue_cost: 0.02 };
        for workers in [1usize, 3, 8] {
            let solo = simulate_dag(&dag, QueuePolicy::Priority, workers, &model).makespan;
            let conc =
                simulate_concurrent_dags(&[&dag], &[4], QueuePolicy::Priority, workers, &model);
            assert!(
                (conc.makespan - solo).abs() < 1e-9,
                "P={workers}: {} vs {solo}",
                conc.makespan
            );
        }
    }

    #[test]
    fn fused_dominates_phased_at_scale_on_skewed_pipelines() {
        // One heavy lane per layer: under barriers every layer lasts the
        // heavy node's duration; the fused DAG overlaps layer k's light
        // nodes with layer k−1's straggler. Satellite requirement: fused
        // simulated speedup dominates phased at P ≥ 4.
        let (dag, phases) = pipeline_dag(6, 16, 400);
        let model = DagLinearCost { per_node: 0.2, per_unit: 1.0, queue_cost: 0.01 };
        for workers in [4usize, 8, 16] {
            let curve = dag_speedup_curve(&dag, &phases, QueuePolicy::Priority, &[workers], &model);
            let p = curve[0];
            assert!(
                p.fused < p.phased,
                "P={workers}: fused {} should beat phased {}",
                p.fused,
                p.phased
            );
        }
    }
}
