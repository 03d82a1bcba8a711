//! The task executor (§III-B2–§III-B4) on a **persistent worker pool**.
//!
//! [`Executor::run_dag`] runs a [`Dag`] on `T` workers with no global
//! barrier anywhere:
//!
//! * nodes become ready the moment their predecessor edges are satisfied —
//!   tracked by per-node atomic pending counters, so no lock is taken to
//!   retire an edge;
//! * the paper's partition [`TaskGraph`] runs as its expansion
//!   ([`TaskGraph::expand_into`]): a *selectively privatized* task is a
//!   convolve node with no dependencies (it writes a private buffer) joined
//!   to a reduction node that inherits the task's Gray-code edges,
//!   decoupling expensive convolution from the critical path (§III-B4);
//! * the ready pool is **sharded per worker** with work stealing. Each
//!   shard individually honors the run's [`QueuePolicy`] (§III-B3): under
//!   [`QueuePolicy::Priority`] both the owner and a thief pop the
//!   *largest* entry of the shard they touch, so largest-first is
//!   preserved **per steal victim** (not globally — see DESIGN.md §10 for
//!   why that is the right trade and how `nufft-sim` replays it).
//!
//! [`Executor::parallel_for`] is the dynamic loop partitioner used for the
//! forward (gather) convolution and the FFT line sweeps: every worker is
//! seeded with one contiguous chunk of the index range and pops
//! `grain`-sized pieces off its front; an idle worker steals the **upper
//! half** of a victim's remaining range. The fast path is a single CAS on
//! the owner's own (cache-line-padded) range word — no locks, no shared
//! counter.
//!
//! ## Pool lifecycle and multi-tenant dispatch
//!
//! Workers are created **once** per [`Executor`] (lazily, on the first
//! dispatch that can use them) and then parked on an eventcount between
//! operator applications; an iterative solver such as
//! `nufft-mri`'s CG therefore pays thread creation once instead of on
//! every one of the ~6 parallel regions per operator apply. The
//! dispatching thread itself acts as worker 0 of its own job, so a
//! 1-thread executor never synchronizes at all.
//!
//! The pool accepts **concurrently submitted jobs**: every
//! `run_dag`/`parallel_for` call occupies one slot of a fixed
//! job table, and background workers interleave units from every active
//! job under a stride scheduler weighted by [`JobPriority`] — each job
//! holds tickets, accumulates virtual *pass* inversely proportional to
//! them as it is served, and workers always serve the active job with the
//! smallest pass. A huge Low-priority 3D adjoint therefore cannot starve
//! small High-priority 2D forwards, and no priority level is ever starved
//! outright. Two tenants' tasks never share mutable state: all per-run
//! bookkeeping (ready-queue shards, pending counters, stat slots) lives in
//! each job's caller-owned scratch, and a job's stats are harvested at
//! *per-job* quiescence (its table slot drains its worker pins before the
//! submitter returns), not at pool quiescence. Dropping the last
//! [`Executor`] clone shuts the pool down and joins its threads.
//!
//! [`TaskGraph`]: crate::graph::TaskGraph
//! [`TaskGraph::expand_into`]: crate::graph::TaskGraph::expand_into

use crate::graph::{Dag, NodeId, QueuePolicy, TaskId};
use crate::queue::{Entry, ReadyQueue};
use crate::scratch::CachePadded;
use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Locks a mutex, ignoring std's lock poisoning: the executor has its own
/// explicit poison protocol (each job's `poisoned` flag) that drains
/// workers before a task panic propagates, so a poisoned guard's data is
/// still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Which phase of a partition task a node of its expansion
/// ([`TaskGraph::expand_into`](crate::graph::TaskGraph::expand_into)) runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskPhase {
    /// The whole task, for non-privatized tasks (convolve into the shared
    /// grid under TDG exclusion).
    Normal,
    /// Convolution of a privatized task into its private buffer (no
    /// dependencies; scheduled immediately).
    PrivateConvolve,
    /// Reduction of a privatized task's buffer into the shared grid
    /// (inherits the task's TDG dependencies).
    Reduce,
}

/// One executed (task, phase) with its timing, relative to run start.
#[derive(Clone, Copy, Debug)]
pub struct TaskRecord {
    /// Which task ran.
    pub task: TaskId,
    /// Which phase of it.
    pub phase: TaskPhase,
    /// Worker index that ran it.
    pub worker: usize,
    /// Start time in seconds from run start.
    pub start: f64,
    /// End time in seconds from run start.
    pub end: f64,
}

/// Per-task timing summary of one adjoint scatter: the records of a
/// [`TaskGraph`](crate::graph::TaskGraph)'s expanded nodes, by task and
/// phase. This is the shape the NUFFT plan's `last_run_stats` reports and
/// `nufft-sim`'s calibration and the load-balance experiments read.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Wall-clock span of the records, first start to last end, in seconds.
    pub makespan: f64,
    /// Per-worker sum of task execution times in seconds.
    pub worker_busy: Vec<f64>,
    /// Every (task, phase) execution with timings, unordered.
    pub log: Vec<TaskRecord>,
    /// Grid-tile re-entries of the run's sample traversal — a memory
    /// locality observable the NUFFT plan knows at plan time. 0 means the
    /// walk streamed each tile once.
    pub tile_revisits: u64,
}

impl RunStats {
    /// Parallel efficiency: total busy time / (T × makespan).
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0.0 || self.worker_busy.is_empty() {
            return 1.0;
        }
        let busy: f64 = self.worker_busy.iter().sum();
        busy / (self.makespan * self.worker_busy.len() as f64)
    }
}

/// Admission priority of a job submitted to the persistent pool,
/// extending the per-node `DagBuilder::set_priority` channel (which orders
/// ready nodes *within* one job) to ordering *between* concurrently
/// submitted jobs. The pool runs a stride scheduler: each job holds
/// [`JobPriority::tickets`] tickets, accumulates virtual *pass* inversely
/// proportional to them as it is served, and workers always serve the
/// active job with the smallest pass. Every level therefore gets a
/// proportional share of worker steps — a High-priority 2D forward cuts
/// ahead of a huge Low-priority 3D adjoint, but can never starve it
/// outright.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum JobPriority {
    /// Background work (1 ticket).
    Low,
    /// The default (4 tickets).
    #[default]
    Normal,
    /// Latency-sensitive applies (16 tickets).
    High,
}

impl JobPriority {
    /// Stride-scheduler share weight of this level.
    pub fn tickets(self) -> u64 {
        match self {
            JobPriority::Low => 1,
            JobPriority::Normal => 4,
            JobPriority::High => 16,
        }
    }
}

// ---------------------------------------------------------------------------
// Persistent pool plumbing: a multi-job fair-share scheduler
// ---------------------------------------------------------------------------

/// Result of one [`Job::step`] call.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Ran one unit of work.
    Ran,
    /// Nothing ready right now, but the job is not over — more units
    /// unlock when in-flight ones retire their dependency edges.
    Idle,
    /// The job is over for this worker (all units retired or claimed, or
    /// the job is poisoned).
    Done,
}

/// A type-erased parallel job, executed **one unit at a time** so the pool
/// can interleave several concurrently submitted jobs on the same workers.
/// `step(w)` runs at most one unit as worker `w`. Implementations must
/// never unwind out of `step` — panics from user closures are caught,
/// stashed, and re-thrown by the submitter after the job quiesces.
trait Job: Sync {
    fn step(&self, worker: usize) -> Step;
    /// Whether a unit may be poppable right now; the pool's pre-park
    /// recheck. Must never say `false` while a pop could succeed.
    fn has_ready(&self) -> bool;
    /// Whether the job is over (all units retired, or poisoned). For
    /// [`ForJob`] this means "every index popped" — chunks still running
    /// are covered by the slot's pin drain at retirement.
    fn done(&self) -> bool;
}

/// Raw pointer to a job living on the submitter's stack. Sound because the
/// submit/retire protocol blocks the submitter until its table slot is
/// freed and every worker pin on it has drained, so the pointee strictly
/// outlives all uses (workers only dereference a `JobPtr` while holding a
/// pin, or under the table lock while the slot is occupied).
struct JobPtr(*const (dyn Job + 'static));
// SAFETY: see type docs — lifetime is enforced by the submit/retire
// protocol.
unsafe impl Send for JobPtr {}

/// Cap on concurrently resident jobs (the table slot count and the width
/// of its `occupied` bitmask). A 65th submitter blocks until a slot
/// frees. Fixed so the job table never allocates after pool construction.
const MAX_ACTIVE_JOBS: usize = 64;

/// Units a worker runs on one job before re-consulting the fair-share
/// table. Amortizes the table lock on the single-tenant fast path; any
/// submit/retire bumps the table version and ends the lease early, so a
/// new tenant is picked up after at most one unit.
const STEPS_PER_LEASE: u64 = 32;

/// Stride-scheduling scale: a job's pass advances by
/// `STRIDE_SCALE / tickets` per executed unit.
const STRIDE_SCALE: u64 = 1 << 16;

/// One active job in the pool's table.
struct JobSlot {
    job: JobPtr,
    /// Submission order — the min-pass tie-break, so equal-priority jobs
    /// round-robin by age instead of racing.
    seq: u64,
    /// Pass increment per executed unit (`STRIDE_SCALE / tickets`).
    stride: u64,
    /// Virtual service received. Workers serve the smallest pass first;
    /// only background-worker service counts (the submitting thread is its
    /// job's own private resource and steps nothing else).
    pass: u64,
    /// Workers currently inside `job.step` for this slot. The submitter
    /// frees the slot only after this drains to zero — the per-job
    /// quiescence point where harvesting stats and re-throwing panics is
    /// safe.
    pins: u32,
    /// Set at retirement: no new pins; pinned workers finish their unit.
    retiring: bool,
}

struct JobTable {
    /// Fixed-capacity slot array (`MAX_ACTIVE_JOBS` long, allocated once).
    slots: Vec<Option<JobSlot>>,
    /// Bitmask of live slots, so scans touch only active entries.
    occupied: u64,
    next_seq: u64,
    /// Set by the pool's destructor; workers exit instead of parking.
    shutdown: bool,
}

/// Pool-wide eventcount: workers and submitters park here when no active
/// job has ready work. `sleepers` gates the (cold) wake path; the
/// generation counter under `gen` closes the lost-wakeup race.
struct WakeHub {
    sleepers: AtomicUsize,
    gen: Mutex<u64>,
    cv: Condvar,
}

impl WakeHub {
    fn new() -> WakeHub {
        WakeHub { sleepers: AtomicUsize::new(0), gen: Mutex::new(0), cv: Condvar::new() }
    }

    /// Wakes parked threads; cheap no-op while everyone is busy.
    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let mut g = lock(&self.gen);
            *g += 1;
            self.cv.notify_all();
        }
    }

    /// Unconditional wake — submission, poison, shutdown.
    fn wake_all(&self) {
        let mut g = lock(&self.gen);
        *g += 1;
        self.cv.notify_all();
    }
}

struct PoolShared {
    /// The multi-job admission table.
    table: Mutex<JobTable>,
    /// Bumped on every submit/retire; workers end their current lease and
    /// re-consult the table when it changes, so new tenants are picked up
    /// after at most one in-flight unit.
    version: AtomicU64,
    /// Signals slot-pin drains (retirement) and freed slots (submitters
    /// waiting on a full table). Paired with `table`.
    table_cv: Condvar,
    /// Parking for idle workers and submitters awaiting in-flight units.
    hub: WakeHub,
}

enum Pick {
    /// A pinned job: slot index plus the raw job pointer.
    Job(usize, *const (dyn Job + 'static)),
    /// Every active job was already tried this round.
    Nothing,
    Shutdown,
}

enum Recheck {
    Shutdown,
    /// The table changed or some job has ready work — scan again.
    TryAgain,
    Park,
}

impl PoolShared {
    /// Picks the untried active job with the smallest (pass, seq) — the
    /// stride fair-share order — and pins it so its memory stays valid
    /// while the worker steps it.
    fn pick_and_pin(&self, tried: &mut u64) -> Pick {
        let mut tb = lock(&self.table);
        if tb.shutdown {
            return Pick::Shutdown;
        }
        let mut best: Option<(u64, u64, usize)> = None;
        let mut mask = tb.occupied & !*tried;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let s = tb.slots[i].as_ref().expect("occupied slot is vacant");
            if s.retiring {
                continue;
            }
            if best.is_none_or(|(p, q, _)| (s.pass, s.seq) < (p, q)) {
                best = Some((s.pass, s.seq, i));
            }
        }
        match best {
            Some((_, _, i)) => {
                *tried |= 1 << i;
                let s = tb.slots[i].as_mut().expect("occupied slot is vacant");
                s.pins += 1;
                Pick::Job(i, s.job.0)
            }
            None => Pick::Nothing,
        }
    }

    /// Drops a pin and credits `ran` executed units to the job's pass.
    fn unpin(&self, idx: usize, ran: u64) {
        let mut tb = lock(&self.table);
        let s = tb.slots[idx].as_mut().expect("unpinning a vacant slot");
        s.pins -= 1;
        s.pass = s.pass.saturating_add(s.stride.saturating_mul(ran));
        if s.pins == 0 && s.retiring {
            self.table_cv.notify_all();
        }
    }

    /// Pre-park recheck (the caller has already raised `hub.sleepers`):
    /// park only if the table is unchanged since the fruitless scan and no
    /// active job has a poppable unit.
    fn recheck(&self, ver: u64) -> Recheck {
        if self.version.load(Ordering::SeqCst) != ver {
            return Recheck::TryAgain;
        }
        let tb = lock(&self.table);
        if tb.shutdown {
            return Recheck::Shutdown;
        }
        let mut mask = tb.occupied;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let s = tb.slots[i].as_ref().expect("occupied slot is vacant");
            if s.retiring {
                continue;
            }
            // SAFETY: an occupied slot's job is alive — its submitter
            // cannot return before freeing the slot under this same lock.
            if unsafe { (*s.job.0).has_ready() } {
                return Recheck::TryAgain;
            }
        }
        Recheck::Park
    }
}

/// The resident worker pool. One per [`Executor`] lineage (clones share
/// it); background threads are spawned lazily on the first dispatch so
/// short-lived executors (e.g. `Executor::host()` probed for its thread
/// count) cost nothing.
struct Pool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    threads: usize,
    /// Serializes `parallel_for` dispatches from handles sharing this
    /// pool: the pool-owned `for_slots` deque words are a single resource.
    /// DAG jobs are *not* serialized — they interleave freely
    /// through the job table, including with the loop job itself.
    for_lock: Mutex<()>,
    /// Per-worker `parallel_for` deque words, owned by the pool so a
    /// steady-state loop dispatch allocates nothing. Seeded by
    /// [`ForJob::new`] under `for_lock`.
    for_slots: Vec<CachePadded<AtomicU64>>,
}

thread_local! {
    /// True while this thread is executing inside a pool job. A nested
    /// executor call from such a thread runs inline (serially) instead of
    /// dead-locking on the dispatch protocol.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

fn worker_main(shared: Arc<PoolShared>, worker: usize) {
    // Workers are permanently "inside the pool": a nested executor call
    // from a task body runs inline instead of re-entering the dispatch.
    IN_POOL_JOB.with(|f| f.set(true));
    loop {
        let ver = shared.version.load(Ordering::SeqCst);
        let mut progress = false;
        let mut tried: u64 = 0;
        loop {
            let (idx, job) = match shared.pick_and_pin(&mut tried) {
                Pick::Job(idx, job) => (idx, job),
                Pick::Nothing => break,
                Pick::Shutdown => return,
            };
            let mut ran = 0u64;
            // SAFETY: the pin taken by `pick_and_pin` keeps the job
            // alive — its submitter blocks in retirement until the pin
            // count drains.
            while let Step::Ran = unsafe { (*job).step(worker) } {
                ran += 1;
                if ran >= STEPS_PER_LEASE || shared.version.load(Ordering::SeqCst) != ver {
                    break;
                }
            }
            shared.unpin(idx, ran);
            if ran > 0 {
                // Progress: restart the pick from scratch so the stride
                // order — not the tried mask — decides who is served next.
                progress = true;
                tried = 0;
            }
            if shared.version.load(Ordering::SeqCst) != ver {
                // Table changed; rescan against the fresh version.
                progress = true;
                break;
            }
        }
        if progress {
            continue;
        }
        // Every active job is idle (their remaining units unlock when
        // in-flight ones complete) — park on the pool eventcount. Raise
        // `sleepers` and snapshot the generation BEFORE the recheck: any
        // publish the recheck misses must then bump the generation (it
        // sees `sleepers > 0`), so the wait cannot sleep through it.
        shared.hub.sleepers.fetch_add(1, Ordering::SeqCst);
        let seen = *lock(&shared.hub.gen);
        match shared.recheck(ver) {
            Recheck::Shutdown => {
                shared.hub.sleepers.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            Recheck::TryAgain => {}
            Recheck::Park => {
                let g = lock(&shared.hub.gen);
                if *g == seen {
                    drop(shared.hub.cv.wait(g).unwrap_or_else(|e| e.into_inner()));
                }
            }
        }
        shared.hub.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Pool {
    fn new(threads: usize) -> Pool {
        Pool {
            shared: Arc::new(PoolShared {
                table: Mutex::new(JobTable {
                    slots: (0..MAX_ACTIVE_JOBS).map(|_| None).collect(),
                    occupied: 0,
                    next_seq: 0,
                    shutdown: false,
                }),
                version: AtomicU64::new(0),
                table_cv: Condvar::new(),
                hub: WakeHub::new(),
            }),
            workers: Mutex::new(Vec::new()),
            threads,
            for_lock: Mutex::new(()),
            for_slots: (0..threads).map(|_| CachePadded(AtomicU64::new(0))).collect(),
        }
    }

    /// The pool-wide eventcount jobs publish wakeups through.
    fn hub(&self) -> &WakeHub {
        &self.shared.hub
    }

    /// Spawns the background workers if they are not yet resident.
    fn ensure_spawned(&self) {
        let mut ws = lock(&self.workers);
        if !ws.is_empty() || self.threads <= 1 {
            return;
        }
        for w in 1..self.threads {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("nufft-worker-{w}"))
                .spawn(move || worker_main(shared, w))
                .expect("failed to spawn pool worker thread");
            ws.push(handle);
        }
    }

    /// Admits `job` and steps it as worker 0 until it is over (parking
    /// while its remaining units are in flight on background workers),
    /// then retires its slot — waiting for every worker pin to drain, the
    /// per-job quiescence point after which the submitter may harvest
    /// stats and re-throw panics. Concurrent submitters interleave freely:
    /// each steps only its own job, so worker index 0 never collides.
    fn run_to_completion(&self, job: &dyn Job, priority: JobPriority) {
        // SAFETY: lifetime erasure only; `job` outlives its table slot (we
        // free the slot and drain its pins before returning).
        let ptr = JobPtr(unsafe {
            core::mem::transmute::<*const (dyn Job + '_), *const (dyn Job + 'static)>(job)
        });
        let idx = self.submit(ptr, priority);
        self.ensure_spawned();
        let was_inside = IN_POOL_JOB.with(|f| f.replace(true));
        loop {
            match job.step(0) {
                Step::Ran => continue,
                Step::Done => break,
                Step::Idle => {
                    if !park_for_job(self.hub(), job) {
                        break;
                    }
                }
            }
        }
        IN_POOL_JOB.with(|f| f.set(was_inside));
        self.retire(idx);
    }

    /// Inserts the job into the table (blocking while all
    /// `MAX_ACTIVE_JOBS` slots are taken) and wakes the workers.
    fn submit(&self, ptr: JobPtr, priority: JobPriority) -> usize {
        let shared = &self.shared;
        let mut tb = lock(&shared.table);
        while tb.occupied == u64::MAX {
            tb = shared.table_cv.wait(tb).unwrap_or_else(|e| e.into_inner());
        }
        let idx = (!tb.occupied).trailing_zeros() as usize;
        // A newcomer starts at the current minimum pass: it competes
        // fairly from now on, with no catch-up burst for service it never
        // requested and no handicap against long-resident jobs.
        let pass =
            tb.slots.iter().flatten().filter(|s| !s.retiring).map(|s| s.pass).min().unwrap_or(0);
        let seq = tb.next_seq;
        tb.next_seq += 1;
        tb.occupied |= 1 << idx;
        tb.slots[idx] = Some(JobSlot {
            job: ptr,
            seq,
            stride: STRIDE_SCALE / priority.tickets(),
            pass,
            pins: 0,
            retiring: false,
        });
        drop(tb);
        shared.version.fetch_add(1, Ordering::SeqCst);
        shared.hub.wake_all();
        idx
    }

    /// Marks the slot retiring, waits for worker pins to drain (per-job
    /// quiescence), and frees the slot.
    fn retire(&self, idx: usize) {
        let shared = &self.shared;
        let mut tb = lock(&shared.table);
        tb.slots[idx].as_mut().expect("retiring a vacant slot").retiring = true;
        shared.version.fetch_add(1, Ordering::SeqCst);
        while tb.slots[idx].as_ref().expect("retiring slot vanished").pins > 0 {
            tb = shared.table_cv.wait(tb).unwrap_or_else(|e| e.into_inner());
        }
        tb.slots[idx] = None;
        tb.occupied &= !(1 << idx);
        drop(tb);
        // A submitter may be waiting for a free slot.
        shared.table_cv.notify_all();
    }
}

/// Parks the submitting thread until its job may have ready work again.
/// Returns `false` when the job is over. Same eventcount discipline as
/// the worker park: raise `sleepers`, snapshot the generation, recheck,
/// then wait — a wake between recheck and wait is never lost.
fn park_for_job(hub: &WakeHub, job: &dyn Job) -> bool {
    hub.sleepers.fetch_add(1, Ordering::SeqCst);
    let seen = *lock(&hub.gen);
    let keep_going = if job.done() {
        false
    } else if job.has_ready() {
        true
    } else {
        let g = lock(&hub.gen);
        if *g == seen {
            drop(hub.cv.wait(g).unwrap_or_else(|e| e.into_inner()));
        }
        !job.done()
    };
    hub.sleepers.fetch_sub(1, Ordering::SeqCst);
    keep_going
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut tb = lock(&self.shared.table);
            tb.shutdown = true;
        }
        self.shared.hub.wake_all();
        let workers = self.workers.get_mut().unwrap_or_else(|e| e.into_inner());
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// run_dag on the pool: sharded ready queues + atomic dependency counters
// ---------------------------------------------------------------------------

/// One executed [`Dag`] node with its timing, relative to run start.
///
/// The node's opaque `tag` is recorded alongside so consumers (phase
/// breakdowns, the `NUFFT_TRACE` Chrome-trace dump, `nufft-sim`
/// calibration) can classify records without the originating graph.
#[derive(Clone, Copy, Debug)]
pub struct DagRecord {
    /// Which node ran.
    pub node: NodeId,
    /// The node's opaque tag (kind/axis/channel/index packing is the graph
    /// builder's business).
    pub tag: u64,
    /// Worker index that ran it.
    pub worker: usize,
    /// Start time in seconds from run start.
    pub start: f64,
    /// End time in seconds from run start.
    pub end: f64,
}

/// Timing summary of one [`Executor::run_dag`] call.
#[derive(Clone, Debug, Default)]
pub struct DagRunStats {
    /// Wall-clock duration of the whole run in seconds.
    pub makespan: f64,
    /// Per-worker sum of node execution times in seconds.
    pub worker_busy: Vec<f64>,
    /// Every node execution with timings, unordered.
    pub log: Vec<DagRecord>,
}

impl DagRunStats {
    /// Parallel efficiency: total busy time / (T × makespan).
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0.0 || self.worker_busy.is_empty() {
            return 1.0;
        }
        let busy: f64 = self.worker_busy.iter().sum();
        busy / (self.makespan * self.worker_busy.len() as f64)
    }
}

/// Mutable per-worker stats, written only by the owning worker during a
/// run and harvested after quiescence — no locks on the fast path.
struct StatSlot(UnsafeCell<WorkerStats>);
// SAFETY: slot `w` is touched only by worker `w` while the job runs, and
// only by the dispatcher after all workers have quiesced.
unsafe impl Sync for StatSlot {}

#[derive(Default)]
struct WorkerStats {
    busy: f64,
    log: Vec<DagRecord>,
}

/// Reusable arenas for [`Executor::run_dag`]: ready-queue shards,
/// dependency counters and per-worker stat slots, sized on first use and
/// recycled on every subsequent run so a steady-state dispatch performs
/// **zero heap allocations**.
///
/// One scratch belongs to one logical stream of runs (e.g. one NUFFT
/// plan's fused graphs, or its spread stage); it must not be shared by
/// concurrent dispatches. After a run, [`DagScratch::stats`] exposes the
/// harvested [`DagRunStats`] in place.
#[derive(Default)]
pub struct DagScratch {
    /// Per-worker ready-queue shards, each honoring the run's policy.
    shards: Vec<CachePadded<Mutex<ReadyQueue>>>,
    /// Unsatisfied predecessor-edge count per node. The worker whose
    /// decrement reaches zero publishes the node — no lock involved.
    pending: Vec<AtomicU32>,
    /// Per-worker stat slots, harvested into `stats` after quiescence.
    slots: Vec<CachePadded<StatSlot>>,
    stats: DagRunStats,
}

impl DagScratch {
    /// An empty scratch; arenas grow on the first run that uses it.
    pub fn new() -> Self {
        DagScratch::default()
    }

    /// The stats of the most recent completed run through this scratch.
    pub fn stats(&self) -> &DagRunStats {
        &self.stats
    }

    /// Sizes every arena for a `(dag, policy, threads)` run and resets the
    /// cursors. Allocates only on first use or growth.
    fn prepare(&mut self, dag: &Dag, policy: QueuePolicy, threads: usize) {
        let n = dag.len();
        while self.shards.len() < threads {
            self.shards.push(CachePadded(Mutex::new(ReadyQueue::new(policy))));
        }
        self.shards.truncate(threads);
        for s in &mut self.shards {
            let q = s.0.get_mut().unwrap_or_else(|e| e.into_inner());
            q.reset(policy);
            // Worker↔shard traffic varies run to run; any shard can
            // momentarily hold every ready node, so growth must never
            // happen mid-run.
            q.reserve(n);
        }
        while self.pending.len() < n {
            self.pending.push(AtomicU32::new(0));
        }
        self.pending.truncate(n);
        for v in 0..n {
            // Relaxed: the dispatch protocol's locks order this store
            // before any worker's first load.
            self.pending[v].store(dag.pred_count(v as NodeId), Ordering::Relaxed);
        }
        while self.slots.len() < threads {
            self.slots.push(CachePadded(StatSlot(UnsafeCell::new(WorkerStats::default()))));
        }
        self.slots.truncate(threads);
        for slot in &mut self.slots {
            let ws = slot.0 .0.get_mut();
            ws.busy = 0.0;
            ws.log.clear();
            // Worker↔node assignment varies run to run, so each slot must
            // be ready to hold every record; capacity sticks after run one.
            ws.log.reserve(n);
        }
        self.stats.worker_busy.reserve(threads);
        self.stats.log.reserve(n);
    }

    /// Harvests the per-worker slots into `stats` after quiescence.
    fn harvest(&mut self, makespan: f64) {
        self.stats.makespan = makespan;
        self.stats.worker_busy.clear();
        self.stats.log.clear();
        for slot in &mut self.slots {
            let ws = slot.0 .0.get_mut();
            self.stats.worker_busy.push(ws.busy);
            self.stats.log.extend_from_slice(&ws.log);
        }
    }
}

fn dag_entry(dag: &Dag, v: NodeId) -> Entry {
    Entry { weight: dag.priority(v), payload: v as u64 }
}

/// The pool job for [`Executor::run_dag`]: sharded ready queues seeded
/// round-robin in node order, lock-free atomic edge retirement publishing
/// to the completing worker's own shard, eventcount parking and
/// poison-on-panic. A privatized task of an expanded task graph needs no
/// special case: its convolve and reduce are two ordinary nodes joined by
/// an edge.
struct DagJob<'g, F> {
    dag: &'g Dag,
    node_fn: &'g F,
    threads: usize,
    shards: &'g [CachePadded<Mutex<ReadyQueue>>],
    pending: &'g [AtomicU32],
    completed: AtomicUsize,
    poisoned: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// The pool-wide eventcount this job publishes wakeups through.
    hub: &'g WakeHub,
    t0: Instant,
    slots: &'g [CachePadded<StatSlot>],
}

impl<'g, F> DagJob<'g, F>
where
    F: Fn(NodeId, u64, usize) + Sync,
{
    /// Builds the job over a scratch already sized by [`DagScratch::prepare`].
    fn new(
        dag: &'g Dag,
        threads: usize,
        node_fn: &'g F,
        scratch: &'g DagScratch,
        hub: &'g WakeHub,
    ) -> Self {
        let job = DagJob {
            dag,
            node_fn,
            threads,
            shards: &scratch.shards,
            pending: &scratch.pending,
            completed: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            hub,
            t0: Instant::now(),
            slots: &scratch.slots,
        };
        // Seed the root nodes round-robin across the shards in node order —
        // the same deterministic placement `nufft-sim` replays.
        let mut seed = 0usize;
        for v in 0..dag.len() as NodeId {
            if dag.pred_count(v) == 0 {
                lock(&job.shards[seed % threads].0).push(dag_entry(dag, v));
                seed += 1;
            }
        }
        job
    }

    fn finished(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
            || self.completed.load(Ordering::SeqCst) >= self.dag.len()
    }

    /// Pops from the worker's own shard, else steals the policy-best entry
    /// of the first non-empty victim shard, scanning `(w+1) % T` upward.
    fn find_work(&self, w: usize) -> Option<Entry> {
        if let Some(e) = lock(&self.shards[w].0).pop() {
            return Some(e);
        }
        for d in 1..self.threads {
            let v = (w + d) % self.threads;
            if let Some(e) = lock(&self.shards[v].0).pop() {
                return Some(e);
            }
        }
        None
    }

    fn any_ready(&self) -> bool {
        self.shards.iter().any(|s| !lock(&s.0).is_empty())
    }

    /// Wakes parked threads; cheap no-op while everyone is busy.
    fn wake(&self) {
        self.hub.wake();
    }

    /// Retires one predecessor edge of `v`; publishes the node to the
    /// calling worker's own shard when the last edge falls.
    fn retire_edge(&self, w: usize, v: NodeId) {
        if self.pending[v as usize].fetch_sub(1, Ordering::SeqCst) == 1 {
            lock(&self.shards[w].0).push(dag_entry(self.dag, v));
            self.wake();
        }
    }

    fn complete(&self, w: usize, v: NodeId) {
        for &s in self.dag.succs(v) {
            self.retire_edge(w, s);
        }
        if self.completed.fetch_add(1, Ordering::SeqCst) + 1 >= self.dag.len() {
            self.wake();
        }
    }

    fn poison(&self, payload: Box<dyn Any + Send + 'static>) {
        {
            let mut slot = lock(&self.panic_payload);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        self.poisoned.store(true, Ordering::SeqCst);
        self.hub.wake_all();
    }
}

impl<F> Job for DagJob<'_, F>
where
    F: Fn(NodeId, u64, usize) + Sync,
{
    fn step(&self, w: usize) -> Step {
        if self.finished() {
            return Step::Done;
        }
        let Some(e) = self.find_work(w) else {
            return if self.finished() { Step::Done } else { Step::Idle };
        };
        // SAFETY: a worker steps one job at a time, two submitters are
        // never worker 0 of the same job, and the submitter harvests only
        // after the job's pins drain — so slot `w` has a single writer.
        let slot = unsafe { &mut *self.slots[w].0 .0.get() };
        let node = e.payload as NodeId;
        let tag = self.dag.tag(node);
        let start = self.t0.elapsed().as_secs_f64();
        let result = catch_unwind(AssertUnwindSafe(|| (self.node_fn)(node, tag, w)));
        if let Err(payload) = result {
            self.poison(payload);
            return Step::Done;
        }
        let end = self.t0.elapsed().as_secs_f64();
        slot.busy += end - start;
        slot.log.push(DagRecord { node, tag, worker: w, start, end });
        self.complete(w, node);
        Step::Ran
    }

    fn has_ready(&self) -> bool {
        self.any_ready()
    }

    fn done(&self) -> bool {
        self.finished()
    }
}

/// Single-threaded [`Executor::run_dag`] with identical policy semantics;
/// used for 1-thread executors and reentrant calls from inside a pool job.
/// Allocation-free once the scratch arenas are warm.
fn run_dag_serial<F>(dag: &Dag, policy: QueuePolicy, scratch: &mut DagScratch, node_fn: &F)
where
    F: Fn(NodeId, u64, usize) + Sync,
{
    scratch.prepare(dag, policy, 1);
    let t0 = Instant::now();
    {
        let DagScratch { shards, pending, slots, .. } = scratch;
        let ready = shards[0].0.get_mut().unwrap_or_else(|e| e.into_inner());
        for v in 0..dag.len() as NodeId {
            if pending[v as usize].load(Ordering::Relaxed) == 0 {
                ready.push(dag_entry(dag, v));
            }
        }
        let ws = slots[0].0 .0.get_mut();
        while let Some(e) = ready.pop() {
            let node = e.payload as NodeId;
            let tag = dag.tag(node);
            let start = t0.elapsed().as_secs_f64();
            node_fn(node, tag, 0);
            let end = t0.elapsed().as_secs_f64();
            ws.busy += end - start;
            ws.log.push(DagRecord { node, tag, worker: 0, start, end });
            for &s in dag.succs(node) {
                if pending[s as usize].fetch_sub(1, Ordering::Relaxed) == 1 {
                    ready.push(dag_entry(dag, s));
                }
            }
        }
    }
    scratch.harvest(t0.elapsed().as_secs_f64());
}

// ---------------------------------------------------------------------------
// parallel_for on the pool: per-worker range deques with steal-half
// ---------------------------------------------------------------------------

/// Packs a half-open index range into one atomic word: `lo` in the high 32
/// bits, `hi` in the low 32. The owner advances `lo` (popping from the
/// front), thieves lower `hi` (stealing from the back); both go through a
/// full-word CAS, and since `lo` only grows and `hi` only shrinks there is
/// no ABA hazard.
fn pack(lo: usize, hi: usize) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize)
}

struct ForJob<'a, F> {
    /// Per-worker remaining range, one padded word each — pool-owned
    /// ([`Pool::for_slots`]) so a steady-state dispatch allocates nothing.
    slots: &'a [CachePadded<AtomicU64>],
    threads: usize,
    /// Owner pop size — already rounded up to the alignment.
    grain: usize,
    /// Chunk boundaries (seeds, steals, pops) are multiples of this, so
    /// two workers never split a cache line of contiguous output.
    align: usize,
    body: &'a F,
    /// Indices no worker has popped yet — in a slot or in a thief's hands
    /// between its victim CAS and the store into its own slot. The
    /// submitter's completion test: a scan that finds every slot empty
    /// can miss loot in flight, and once the submitter retires the job a
    /// thief's lease ends after one chunk, stranding the rest of its loot.
    unclaimed: AtomicUsize,
    poisoned: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl<'a, F> ForJob<'a, F>
where
    F: Fn(core::ops::Range<usize>, usize) + Sync,
{
    /// Seeds `slots` (which must be dedicated to this job until it
    /// completes — the caller holds the pool's dispatch lock) and builds
    /// the job.
    fn new(
        slots: &'a [CachePadded<AtomicU64>],
        n: usize,
        grain: usize,
        align: usize,
        threads: usize,
        body: &'a F,
    ) -> Self {
        assert!(n <= u32::MAX as usize, "parallel_for range too large for the packed deque");
        assert!(threads <= slots.len(), "fewer deque words than workers");
        // Seed every worker with one contiguous chunk; boundaries are
        // rounded up to `align` so no two seeds split an aligned block.
        let chunk = n.div_ceil(threads).next_multiple_of(align);
        for (w, slot) in slots.iter().take(threads).enumerate() {
            let lo = (w * chunk).min(n);
            let hi = ((w + 1) * chunk).min(n);
            slot.0.store(pack(lo, hi), Ordering::SeqCst);
        }
        ForJob {
            slots,
            threads,
            grain: grain.next_multiple_of(align),
            align,
            body,
            unclaimed: AtomicUsize::new(n),
            poisoned: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
        }
    }

    /// Pops a grain-sized piece off the front of the worker's own range.
    fn pop_own(&self, w: usize) -> Option<core::ops::Range<usize>> {
        let slot = &self.slots[w].0;
        let mut cur = slot.load(Ordering::SeqCst);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let end = (lo + self.grain).min(hi);
            match slot.compare_exchange_weak(cur, pack(end, hi), Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    self.unclaimed.fetch_sub(end - lo, Ordering::SeqCst);
                    return Some(lo..end);
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Steals the upper half of the first non-empty victim's range into
    /// the worker's own slot. Returns false when every slot is empty —
    /// which, while another thief holds loot in flight, does not mean
    /// every index was popped (see [`ForJob::unclaimed`]).
    fn steal_into(&self, w: usize) -> bool {
        match self.steal_loot(w) {
            Some((mid, hi)) => {
                // Our own slot is empty (we only steal then), so a plain
                // store publishes the loot; concurrent thieves CAS against
                // whatever they load.
                self.slots[w].0.store(pack(mid, hi), Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    /// Takes the upper half of the first non-empty victim's range (from
    /// worker `w`'s point of view) out of the victim's slot and returns it.
    fn steal_loot(&self, w: usize) -> Option<(usize, usize)> {
        for d in 1..self.threads {
            let v = (w + d) % self.threads;
            let slot = &self.slots[v].0;
            let mut cur = slot.load(Ordering::SeqCst);
            loop {
                let (lo, hi) = unpack(cur);
                if lo >= hi {
                    break;
                }
                // Keep the split aligned; if the remainder is too small to
                // split, take all of it.
                let len = hi - lo;
                let mut mid = lo + (len / 2) / self.align * self.align;
                if mid <= lo {
                    mid = lo;
                }
                match slot.compare_exchange_weak(
                    cur,
                    pack(lo, mid),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => return Some((mid, hi)),
                    Err(actual) => cur = actual,
                }
            }
        }
        None
    }
}

impl<F> Job for ForJob<'_, F>
where
    F: Fn(core::ops::Range<usize>, usize) + Sync,
{
    fn step(&self, w: usize) -> Step {
        if self.poisoned.load(Ordering::SeqCst) {
            return Step::Done;
        }
        // Runs exactly one chunk per step; never `Idle` — loop work only
        // shrinks, so once every slot is empty a background worker is done
        // (chunks still running elsewhere are covered by the slot's pin
        // drain). The submitter (worker 0) also waits out loot in flight:
        // it retires the job on `Done`, after which the thief would run
        // one chunk of its loot and strand the rest.
        loop {
            if let Some(range) = self.pop_own(w) {
                let result = catch_unwind(AssertUnwindSafe(|| (self.body)(range, w)));
                if let Err(payload) = result {
                    {
                        let mut slot = lock(&self.panic_payload);
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    self.poisoned.store(true, Ordering::SeqCst);
                    return Step::Done;
                }
                return Step::Ran;
            }
            if self.steal_into(w) {
                continue;
            }
            if w != 0 || self.done() {
                return Step::Done;
            }
            // A thief sits between its victim CAS and its own-slot store;
            // let it run.
            std::thread::yield_now();
        }
    }

    fn has_ready(&self) -> bool {
        self.slots.iter().take(self.threads).any(|s| {
            let (lo, hi) = unpack(s.0.load(Ordering::SeqCst));
            lo < hi
        })
    }

    fn done(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst) || self.unclaimed.load(Ordering::SeqCst) == 0
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// A fixed-width worker team backed by a persistent pool. Clones share the
/// pool; the last clone dropped joins the worker threads. Closures may
/// borrow freely from the caller's stack — the dispatching thread blocks
/// (and participates as worker 0) until the call completes.
///
/// ```
/// use nufft_parallel::exec::{DagScratch, Executor, JobPriority};
/// use nufft_parallel::graph::{DagBuilder, QueuePolicy, TaskGraph};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// // A 3×3 partition grid expanded into plain nodes, tagged by task id.
/// let graph = TaskGraph::new(&[3, 3]);
/// let mut builder = DagBuilder::new();
/// graph.expand_into(&mut builder, |task, _phase| (task as u64, graph.weight(task)));
/// let dag = builder.build();
/// let ran = AtomicUsize::new(0);
/// let mut scratch = DagScratch::new();
/// let exec = Executor::new(2);
/// exec.run_dag(&dag, QueuePolicy::Priority, JobPriority::Normal, &mut scratch, |_, _, _| {
///     ran.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(ran.load(Ordering::Relaxed), 9); // every task ran exactly once
/// assert_eq!(scratch.stats().log.len(), 9);
/// ```
#[derive(Clone)]
pub struct Executor {
    threads: usize,
    /// The worker pool; its threads are spawned lazily.
    pool: Arc<Pool>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("threads", &self.threads).finish()
    }
}

impl Executor {
    /// Creates an executor with `threads` resident workers. The workers
    /// themselves are spawned lazily on the first dispatch that can use
    /// them.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(
            threads > 0,
            "executor needs at least one worker thread (got threads = 0); \
             use Executor::host() to size from the machine"
        );
        Executor { threads, pool: Arc::new(Pool::new(threads)) }
    }

    /// An executor sized to the host's available parallelism (probed once
    /// per process and cached — see [`Executor::host_threads`]).
    pub fn host() -> Self {
        Executor::new(Self::host_threads())
    }

    /// The host's available parallelism, probed once and cached for the
    /// lifetime of the process.
    pub fn host_threads() -> usize {
        static HOST: OnceLock<usize> = OnceLock::new();
        *HOST.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every node of `dag` exactly once, respecting its dependency
    /// edges. `node_fn(node, tag, worker)` receives the node's opaque tag so
    /// one closure can dispatch on task kind. A
    /// [`TaskGraph`](crate::graph::TaskGraph) runs as its expansion
    /// ([`TaskGraph::expand_into`](crate::graph::TaskGraph::expand_into)),
    /// whose edges carry the privatization protocol: the caller guarantees
    /// that the work of adjacent tasks' shared-grid nodes stays within each
    /// task's partition halo, which the Gray-code edges then serialize.
    ///
    /// All run bookkeeping (ready-queue shards, dependency counters, stat
    /// logs) lives in `scratch` and is recycled, so repeated dispatches of
    /// same-shaped graphs allocate nothing after the first; the run's
    /// [`DagRunStats`] are left in [`DagScratch::stats`]. `priority` is the
    /// job's admission priority on the pool's fair-share scheduler: it only
    /// matters when jobs from several threads are in flight on the shared
    /// pool, and the serial fast paths ignore it.
    pub fn run_dag<F>(
        &self,
        dag: &Dag,
        policy: QueuePolicy,
        priority: JobPriority,
        scratch: &mut DagScratch,
        node_fn: F,
    ) where
        F: Fn(NodeId, u64, usize) + Sync,
    {
        if self.threads == 1 || IN_POOL_JOB.with(|f| f.get()) {
            return run_dag_serial(dag, policy, scratch, &node_fn);
        }
        scratch.prepare(dag, policy, self.threads);
        let makespan;
        let payload;
        {
            let job = DagJob::new(dag, self.threads, &node_fn, scratch, self.pool.hub());
            self.pool.run_to_completion(&job, priority);
            makespan = job.t0.elapsed().as_secs_f64();
            payload = lock(&job.panic_payload).take();
        }
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        scratch.harvest(makespan);
    }

    /// Dynamic parallel loop over `0..n`: every worker starts with one
    /// contiguous chunk and pops `grain`-sized pieces off its front; idle
    /// workers steal the upper half of a victim's remainder.
    ///
    /// # Panics
    /// Panics if `grain == 0`.
    pub fn parallel_for<F>(&self, n: usize, grain: usize, body: F)
    where
        F: Fn(core::ops::Range<usize>, usize) + Sync,
    {
        self.parallel_for_aligned(n, grain, 1, body);
    }

    /// [`Executor::parallel_for`] with every chunk boundary (seed, pop and
    /// steal split points) rounded to a multiple of `align`. Callers whose
    /// bodies write `out[range]` contiguously pass the number of elements
    /// per cache line so two workers never straddle — and hence
    /// false-share — a line at a chunk boundary.
    ///
    /// # Panics
    /// Panics if `grain == 0` or `align == 0`.
    pub fn parallel_for_aligned<F>(&self, n: usize, grain: usize, align: usize, body: F)
    where
        F: Fn(core::ops::Range<usize>, usize) + Sync,
    {
        assert!(grain > 0, "grain must be positive");
        assert!(align > 0, "align must be positive");
        if n == 0 {
            return;
        }
        if self.threads == 1 || n <= grain.max(align) || IN_POOL_JOB.with(|f| f.get()) {
            body(0..n, 0);
            return;
        }
        let pool = &*self.pool;
        // Seed the pool-owned deque words and run under a single hold of
        // the loop lock, so a concurrent `parallel_for` from another handle
        // cannot clobber the seeds. DAG jobs still interleave: only
        // loop dispatches serialize.
        let serial = lock(&pool.for_lock);
        let job = ForJob::new(&pool.for_slots, n, grain, align, self.threads, &body);
        pool.run_to_completion(&job, JobPriority::Normal);
        drop(serial);
        let payload = lock(&job.panic_payload).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// [`Executor::parallel_for_aligned`] over `data` itself: `body(lo,
    /// chunk)` receives the disjoint mutable chunk `data[lo..lo +
    /// chunk.len()]`, so elementwise passes need no unsafe code of their
    /// own. Chunk boundaries follow the loop's (multiples of `align`).
    ///
    /// # Panics
    /// Panics if `grain == 0` or `align == 0`.
    pub fn parallel_chunks_mut<T, F>(&self, data: &mut [T], grain: usize, align: usize, body: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        struct Base<T>(*mut T);
        // SAFETY: only used to rebuild the pairwise-disjoint chunks below,
        // each handed to one worker; `T: Send` lets a chunk cross threads.
        unsafe impl<T: Send> Sync for Base<T> {}
        impl<T> Base<T> {
            // A method (not field access) so the closure captures the
            // whole `Sync` wrapper.
            fn get(&self) -> *mut T {
                self.0
            }
        }
        let base = Base(data.as_mut_ptr());
        self.parallel_for_aligned(data.len(), grain, align, |range, _w| {
            // SAFETY: the loop hands out pairwise-disjoint ranges of
            // `0..data.len()`, and `data` stays exclusively borrowed until
            // it joins.
            let chunk = unsafe {
                core::slice::from_raw_parts_mut(base.get().add(range.start), range.len())
            };
            body(range.start, chunk);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DagBuilder, TaskGraph};
    use std::sync::atomic::{AtomicBool, AtomicU32};

    /// Runs `dag` on a fresh scratch at normal priority; returns its stats.
    fn run<F>(exec: &Executor, dag: &Dag, policy: QueuePolicy, node_fn: F) -> DagRunStats
    where
        F: Fn(NodeId, u64, usize) + Sync,
    {
        let mut scratch = DagScratch::new();
        exec.run_dag(dag, policy, JobPriority::Normal, &mut scratch, node_fn);
        scratch.stats
    }

    /// Runs `graph` as its expansion, tagging each node `task · 4 + phase`
    /// and prioritizing it by its task's weight, and hands every node to
    /// `task_fn(task, phase, worker)`.
    fn run_tasks<F>(
        exec: &Executor,
        graph: &TaskGraph,
        policy: QueuePolicy,
        task_fn: F,
    ) -> DagRunStats
    where
        F: Fn(TaskId, TaskPhase, usize) + Sync,
    {
        const PHASES: [TaskPhase; 3] =
            [TaskPhase::Normal, TaskPhase::PrivateConvolve, TaskPhase::Reduce];
        let mut b = DagBuilder::new();
        graph.expand_into(&mut b, |t, phase| ((t as u64) << 2 | phase as u64, graph.weight(t)));
        run(exec, &b.build(), policy, |_v, tag, w| {
            task_fn((tag >> 2) as TaskId, PHASES[(tag & 3) as usize], w)
        })
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let graph = TaskGraph::new(&[4, 5]);
        let counts: Vec<AtomicU32> = (0..graph.len()).map(|_| AtomicU32::new(0)).collect();
        let exec = Executor::new(4);
        let stats = run_tasks(&exec, &graph, QueuePolicy::Fifo, |t, phase, _w| {
            assert_eq!(phase, TaskPhase::Normal);
            counts[t].fetch_add(1, Ordering::SeqCst);
        });
        for (t, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "task {t}");
        }
        assert_eq!(stats.log.len(), graph.len());
    }

    #[test]
    fn parallel_chunks_mut_hands_out_every_element_once() {
        let exec = Executor::new(3);
        let mut data = vec![0usize; 10_007];
        exec.parallel_chunks_mut(&mut data, 64, 8, |lo, chunk| {
            assert_eq!(lo % 8, 0, "chunks start on an alignment multiple");
            for (k, v) in chunk.iter_mut().enumerate() {
                *v += lo + k + 1;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    /// A loop whose last range a thief has taken from its victim but not
    /// yet stored into its own slot is not over: every slot reads empty,
    /// yet an index is unpopped. Were the submitter to retire the job in
    /// that window, the thief would run one chunk of its loot and strand
    /// the rest.
    #[test]
    fn loop_job_is_not_done_while_loot_is_in_flight() {
        let slots: Vec<CachePadded<AtomicU64>> =
            (0..2).map(|_| CachePadded(AtomicU64::new(0))).collect();
        let body = |_: core::ops::Range<usize>, _: usize| {};
        let job = ForJob::new(&slots, 8, 1, 1, 2, &body);
        // Worker 0 drains its seed [0, 4); worker 1 pops down to [7, 8).
        while job.pop_own(0).is_some() {}
        for _ in 0..3 {
            job.pop_own(1).expect("worker 1's seed holds four indices");
        }
        // A one-index range is too small to split: the thief takes it all.
        let loot = job.steal_loot(0).expect("index 7 is left");
        assert_eq!(loot, (7, 8));
        assert!(!job.has_ready(), "every slot reads empty");
        assert!(!job.done(), "index 7 has not been popped");
        slots[0].0.store(pack(loot.0, loot.1), Ordering::SeqCst);
        assert_eq!(job.pop_own(0), Some(7..8));
        assert!(job.done());
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Several graph runs and loops on one executor must all work —
        // the workers stay resident between calls.
        let exec = Executor::new(3);
        for _ in 0..5 {
            let graph = TaskGraph::new(&[3, 3]);
            let count = AtomicU32::new(0);
            run_tasks(&exec, &graph, QueuePolicy::Priority, |_t, _p, _w| {
                count.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(count.load(Ordering::SeqCst), 9);
            let hits = AtomicU32::new(0);
            exec.parallel_for(100, 7, |r, _w| {
                hits.fetch_add(r.len() as u32, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn clones_share_one_pool() {
        let a = Executor::new(2);
        let b = a.clone();
        let graph = TaskGraph::new(&[4, 4]);
        let count = AtomicU32::new(0);
        run_tasks(&a, &graph, QueuePolicy::Fifo, |_t, _p, _w| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        run_tasks(&b, &graph, QueuePolicy::Fifo, |_t, _p, _w| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn privatized_tasks_run_two_phases_in_order() {
        let mut graph = TaskGraph::new(&[3, 3]);
        for t in 0..graph.len() {
            graph.set_privatized(t, t % 2 == 0);
        }
        let conv_seen: Vec<AtomicBool> = (0..graph.len()).map(|_| AtomicBool::new(false)).collect();
        let reduce_seen: Vec<AtomicBool> =
            (0..graph.len()).map(|_| AtomicBool::new(false)).collect();
        let exec = Executor::new(3);
        run_tasks(&exec, &graph, QueuePolicy::Priority, |t, phase, _w| match phase {
            TaskPhase::Normal => {
                assert!(!graph.privatized(t));
            }
            TaskPhase::PrivateConvolve => {
                assert!(graph.privatized(t));
                assert!(!reduce_seen[t].load(Ordering::SeqCst), "reduce before convolve");
                conv_seen[t].store(true, Ordering::SeqCst);
            }
            TaskPhase::Reduce => {
                assert!(graph.privatized(t));
                assert!(conv_seen[t].load(Ordering::SeqCst), "reduce before convolve");
                reduce_seen[t].store(true, Ordering::SeqCst);
            }
        });
        for t in 0..graph.len() {
            if graph.privatized(t) {
                assert!(conv_seen[t].load(Ordering::SeqCst));
                assert!(reduce_seen[t].load(Ordering::SeqCst));
            }
        }
    }

    #[test]
    fn dependency_order_is_respected() {
        let graph = TaskGraph::new(&[5, 4]);
        let done: Vec<AtomicBool> = (0..graph.len()).map(|_| AtomicBool::new(false)).collect();
        let exec = Executor::new(4);
        run_tasks(&exec, &graph, QueuePolicy::Fifo, |t, _phase, _w| {
            for p in graph.preds(t) {
                assert!(done[p].load(Ordering::SeqCst), "task {t} ran before pred {p}");
            }
            done[t].store(true, Ordering::SeqCst);
        });
    }

    /// The load-bearing safety property: no two adjacent tasks are ever in
    /// flight at the same time, under any interleaving the OS gives us.
    #[test]
    fn adjacent_tasks_never_run_concurrently() {
        let graph = TaskGraph::new(&[6, 6]);
        let running: Vec<AtomicBool> = (0..graph.len()).map(|_| AtomicBool::new(false)).collect();
        let exec = Executor::new(8);
        for policy in [QueuePolicy::Fifo, QueuePolicy::Priority] {
            run_tasks(&exec, &graph, policy, |t, _phase, _w| {
                running[t].store(true, Ordering::SeqCst);
                for other in 0..graph.len() {
                    if graph.adjacent(t, other) {
                        assert!(
                            !running[other].load(Ordering::SeqCst),
                            "adjacent tasks {t} and {other} concurrent"
                        );
                    }
                }
                // Dwell to widen the race window.
                std::thread::yield_now();
                for other in 0..graph.len() {
                    if graph.adjacent(t, other) {
                        assert!(!running[other].load(Ordering::SeqCst));
                    }
                }
                running[t].store(false, Ordering::SeqCst);
            });
        }
    }

    /// Privatized convolve phases may overlap with anything; reductions must
    /// still be mutually excluded from adjacent shared-grid writers.
    #[test]
    fn privatized_reductions_are_excluded_like_normal_tasks() {
        let mut graph = TaskGraph::new(&[5, 5]);
        graph.set_privatized(12, true); // center task
        let touching_grid: Vec<AtomicBool> =
            (0..graph.len()).map(|_| AtomicBool::new(false)).collect();
        let exec = Executor::new(6);
        run_tasks(&exec, &graph, QueuePolicy::Priority, |t, phase, _w| {
            if phase == TaskPhase::PrivateConvolve {
                return; // private buffer only
            }
            touching_grid[t].store(true, Ordering::SeqCst);
            for other in 0..graph.len() {
                if graph.adjacent(t, other) {
                    assert!(!touching_grid[other].load(Ordering::SeqCst));
                }
            }
            std::thread::yield_now();
            touching_grid[t].store(false, Ordering::SeqCst);
        });
    }

    #[test]
    fn single_worker_priority_order_respects_weights() {
        // With one worker and all tasks independent (1×n grid has a chain,
        // so use rank-0 tasks of a 1D row): a 1D grid alternates ranks 0/1,
        // so rank-0 tasks {0,2,4,...} are independent and should pop in
        // weight order.
        let mut graph = TaskGraph::new(&[9]);
        let weights = [50u64, 0, 10, 0, 90, 0, 20, 0, 70];
        for (t, &w) in weights.iter().enumerate() {
            graph.set_weight(t, w);
        }
        let order = Mutex::new(Vec::new());
        let exec = Executor::new(1);
        run_tasks(&exec, &graph, QueuePolicy::Priority, |t, _phase, _w| {
            lock(&order).push(t);
        });
        let order = order.into_inner().unwrap();
        // The first popped task must be the heaviest rank-0 task (4: w=90).
        assert_eq!(order[0], 4, "got order {order:?}");
        // All 9 ran.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn stats_are_populated() {
        let graph = TaskGraph::new(&[4, 4]);
        let exec = Executor::new(2);
        let stats = run_tasks(&exec, &graph, QueuePolicy::Fifo, |_t, _p, _w| {
            std::hint::black_box(0u64);
        });
        assert_eq!(stats.worker_busy.len(), 2);
        assert!(stats.makespan > 0.0);
        assert_eq!(stats.log.len(), 16);
        assert!(stats.efficiency() > 0.0 && stats.efficiency() <= 1.0 + 1e-9);
    }

    #[test]
    fn parallel_for_covers_range_exactly_once() {
        let n = 1000;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let exec = Executor::new(4);
        exec.parallel_for(n, 13, |range, _w| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn parallel_for_aligned_boundaries_are_aligned() {
        // Every range a worker receives must start on an align boundary
        // (and end on one, except the final tail).
        let n = 1037;
        let align = 8;
        let exec = Executor::new(4);
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let bad = AtomicU32::new(0);
        exec.parallel_for_aligned(n, 5, align, |range, _w| {
            if range.start % align != 0 || (range.end % align != 0 && range.end != n) {
                bad.fetch_add(1, Ordering::SeqCst);
            }
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(bad.load(Ordering::SeqCst), 0, "misaligned chunk boundary");
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        let exec = Executor::new(3);
        exec.parallel_for(0, 8, |_r, _w| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Executor::new(0);
    }

    #[test]
    fn panicking_parallel_for_propagates_and_pool_survives() {
        let exec = Executor::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.parallel_for(100, 3, |r, _w| {
                if r.contains(&50) {
                    panic!("injected loop failure");
                }
            });
        }));
        assert!(result.is_err(), "panic was swallowed");
        let hits = AtomicU32::new(0);
        exec.parallel_for(100, 3, |r, _w| {
            hits.fetch_add(r.len() as u32, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn oversubscribed_executor_still_completes() {
        // Many more workers than host cores (and than ready tasks).
        let graph = TaskGraph::new(&[2, 2]);
        let count = AtomicU32::new(0);
        run_tasks(&Executor::new(16), &graph, QueuePolicy::Priority, |_t, _p, _w| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn parallel_for_grain_larger_than_range() {
        let hits = AtomicU32::new(0);
        Executor::new(4).parallel_for(3, 100, |r, _w| {
            hits.fetch_add(r.len() as u32, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn reentrant_calls_run_inline() {
        // An executor call from inside a pool job must not deadlock; it
        // degrades to a serial inline run.
        let exec = Executor::new(2);
        let inner_hits = AtomicU32::new(0);
        exec.parallel_for(4, 1, |_r, _w| {
            exec.parallel_for(10, 3, |r, _w2| {
                inner_hits.fetch_add(r.len() as u32, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn host_threads_is_cached_and_positive() {
        let a = Executor::host_threads();
        let b = Executor::host_threads();
        assert_eq!(a, b);
        assert!(a >= 1);
        assert_eq!(Executor::host().threads(), a);
    }

    /// A small diamond-rich layered DAG for the run_dag tests: `layers`
    /// layers of `width` nodes, every node depending on all nodes of the
    /// previous layer. Tag = layer * 100 + position.
    fn layered_dag(layers: usize, width: usize) -> Dag {
        let mut b = DagBuilder::new();
        let mut prev: Vec<NodeId> = Vec::new();
        for l in 0..layers {
            let cur: Vec<NodeId> =
                (0..width).map(|p| b.add_node((l * 100 + p) as u64, (p + 1) as u64)).collect();
            for &f in &prev {
                for &t in &cur {
                    b.add_edge(f, t);
                }
            }
            prev = cur;
        }
        b.build()
    }

    #[test]
    fn dag_every_node_runs_once_respecting_edges() {
        let dag = layered_dag(4, 5);
        let done: Vec<AtomicBool> = (0..dag.len()).map(|_| AtomicBool::new(false)).collect();
        let counts: Vec<AtomicU32> = (0..dag.len()).map(|_| AtomicU32::new(0)).collect();
        let exec = Executor::new(4);
        let stats = run(&exec, &dag, QueuePolicy::Priority, |v, tag, _w| {
            assert_eq!(tag, dag.tag(v));
            let layer = tag / 100;
            if layer > 0 {
                // All previous-layer nodes must have completed.
                for o in 0..dag.len() as NodeId {
                    if dag.tag(o) / 100 == layer - 1 {
                        assert!(done[o as usize].load(Ordering::SeqCst));
                    }
                }
            }
            done[v as usize].store(true, Ordering::SeqCst);
            counts[v as usize].fetch_add(1, Ordering::SeqCst);
        });
        for (v, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "node {v}");
        }
        assert_eq!(stats.log.len(), dag.len());
        assert_eq!(stats.worker_busy.len(), 4);
    }

    #[test]
    fn dag_backends_and_thread_counts_agree() {
        let dag = layered_dag(3, 4);
        let collect = |threads| {
            let exec = Executor::new(threads);
            let log = Mutex::new(Vec::new());
            run(&exec, &dag, QueuePolicy::Fifo, |v, tag, _w| {
                lock(&log).push((v, tag));
            });
            let mut v = log.into_inner().unwrap();
            v.sort_unstable();
            v
        };
        let reference = collect(1);
        for threads in [2usize, 4] {
            assert_eq!(collect(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn dag_reuse_recycles_scratch_across_shapes() {
        let exec = Executor::new(3);
        let mut scratch = DagScratch::new();
        // A policy switch on the same scratch rebuilds its shards.
        for (layers, width, policy) in [
            (4usize, 4usize, QueuePolicy::Priority),
            (4, 4, QueuePolicy::Priority),
            (2, 7, QueuePolicy::Fifo),
            (5, 3, QueuePolicy::Priority),
        ] {
            let dag = layered_dag(layers, width);
            let count = AtomicU32::new(0);
            exec.run_dag(&dag, policy, JobPriority::Normal, &mut scratch, |_v, _tag, _w| {
                count.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(count.load(Ordering::SeqCst), dag.len() as u32);
            assert_eq!(scratch.stats().log.len(), dag.len());
            assert_eq!(scratch.stats().worker_busy.len(), 3);
        }
    }

    #[test]
    fn dag_panic_propagates_and_pool_survives() {
        let dag = layered_dag(3, 3);
        let exec = Executor::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&exec, &dag, QueuePolicy::Fifo, |v, _tag, _w| {
                if v == 4 {
                    panic!("injected dag node failure");
                }
            });
        }));
        assert!(result.is_err(), "panic was swallowed");
        let count = AtomicU32::new(0);
        run(&exec, &dag, QueuePolicy::Fifo, |_v, _tag, _w| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn dag_serial_priority_pops_heaviest_root_first() {
        // Independent roots only: with one worker the priority policy must
        // pop the heaviest first.
        let mut b = DagBuilder::new();
        for (i, w) in [10u64, 90, 20, 70].into_iter().enumerate() {
            b.add_node(i as u64, w);
        }
        let dag = b.build();
        let order = Mutex::new(Vec::new());
        run(&Executor::new(1), &dag, QueuePolicy::Priority, |v, _tag, _w| {
            lock(&order).push(v);
        });
        assert_eq!(lock(&order).clone(), vec![1, 3, 2, 0]);
    }

    /// Busy-waits (no sleep syscall) so task durations are controllable
    /// even under heavy oversubscription.
    fn spin(duration: std::time::Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < duration {
            std::hint::spin_loop();
        }
    }

    /// Two jobs submitted from two threads overlap on the shared pool:
    /// every node of each runs exactly once, and the per-job stats are
    /// disjoint — job A's scratch holds exactly A's records and job B's
    /// exactly B's (the regression for the old pool-quiescence harvest,
    /// which was only sound with one job in flight).
    #[test]
    fn overlapping_jobs_report_disjoint_stats() {
        let exec = Executor::new(4);
        let dag_a = layered_dag(6, 4);
        let dag_b = layered_dag(3, 5);
        let counts_a: Vec<AtomicU32> = (0..dag_a.len()).map(|_| AtomicU32::new(0)).collect();
        let counts_b: Vec<AtomicU32> = (0..dag_b.len()).map(|_| AtomicU32::new(0)).collect();
        let barrier = std::sync::Barrier::new(2);
        let mut scratch_a = DagScratch::new();
        let mut scratch_b = DagScratch::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                let prio = JobPriority::Normal;
                exec.run_dag(&dag_a, QueuePolicy::Priority, prio, &mut scratch_a, |v, _tag, _w| {
                    spin(std::time::Duration::from_micros(100));
                    counts_a[v as usize].fetch_add(1, Ordering::SeqCst);
                });
            });
            s.spawn(|| {
                barrier.wait();
                let prio = JobPriority::Normal;
                exec.run_dag(&dag_b, QueuePolicy::Priority, prio, &mut scratch_b, |v, _tag, _w| {
                    spin(std::time::Duration::from_micros(100));
                    counts_b[v as usize].fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        for (v, c) in counts_a.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "job A node {v}");
        }
        for (v, c) in counts_b.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "job B node {v}");
        }
        // Disjoint stats: each scratch holds its own job's record set, one
        // record per node, with the node's own tag — no leakage.
        for (name, dag, scratch) in [("A", &dag_a, &scratch_a), ("B", &dag_b, &scratch_b)] {
            let stats = scratch.stats();
            assert_eq!(stats.log.len(), dag.len(), "job {name} record count");
            let mut seen = vec![0u32; dag.len()];
            for r in &stats.log {
                assert!((r.node as usize) < dag.len(), "job {name} foreign node {}", r.node);
                assert_eq!(r.tag, dag.tag(r.node), "job {name} tag mismatch");
                assert!(r.worker < 4, "job {name} worker index out of range");
                seen[r.node as usize] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "job {name} duplicate/missing records");
            assert_eq!(stats.worker_busy.len(), 4, "job {name} worker_busy width");
        }
    }

    /// A small High-priority job submitted while a much larger
    /// Low-priority job is in flight must finish first: the stride
    /// scheduler gives it 16× the worker share, so it cannot be starved
    /// behind the flood.
    #[test]
    fn high_priority_job_overtakes_low_priority_flood() {
        let exec = Executor::new(4);
        // 800 independent nodes × 200µs ≈ 160ms of Low-priority work.
        let mut b = DagBuilder::new();
        for i in 0..800u64 {
            b.add_node(i, 1);
        }
        let big = b.build();
        let mut b = DagBuilder::new();
        for i in 0..4u64 {
            b.add_node(i, 1);
        }
        let small = b.build();
        let big_started = AtomicBool::new(false);
        let big_finished = AtomicBool::new(false);
        let small_finished_first = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut scratch = DagScratch::new();
                exec.run_dag(
                    &big,
                    QueuePolicy::Fifo,
                    JobPriority::Low,
                    &mut scratch,
                    |_v, _tag, _w| {
                        big_started.store(true, Ordering::SeqCst);
                        spin(std::time::Duration::from_micros(200));
                    },
                );
                big_finished.store(true, Ordering::SeqCst);
            });
            s.spawn(|| {
                while !big_started.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                let mut scratch = DagScratch::new();
                exec.run_dag(
                    &small,
                    QueuePolicy::Fifo,
                    JobPriority::High,
                    &mut scratch,
                    |_v, _tag, _w| spin(std::time::Duration::from_micros(50)),
                );
                small_finished_first.store(!big_finished.load(Ordering::SeqCst), Ordering::SeqCst);
            });
        });
        assert!(
            small_finished_first.load(Ordering::SeqCst),
            "High-priority job was starved behind the Low-priority flood"
        );
    }

    /// parallel_for dispatches from two threads on one shared executor:
    /// the loop lock serializes the pool-owned deque words, so both loops
    /// must cover their ranges exactly once.
    #[test]
    fn concurrent_parallel_for_calls_do_not_interfere() {
        let exec = Executor::new(4);
        let n = 2000usize;
        let hits_a: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let hits_b: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                exec.parallel_for(n, 16, |r, _w| {
                    for i in r {
                        hits_a[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
            s.spawn(|| {
                barrier.wait();
                exec.parallel_for(n, 16, |r, _w| {
                    for i in r {
                        hits_b[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
        });
        for i in 0..n {
            assert_eq!(hits_a[i].load(Ordering::Relaxed), 1, "loop A index {i}");
            assert_eq!(hits_b[i].load(Ordering::Relaxed), 1, "loop B index {i}");
        }
    }

    /// A panic in one tenant's job must not leak into a concurrently
    /// running healthy job, and the pool must survive both.
    #[test]
    fn poisoned_job_does_not_leak_into_concurrent_tenant() {
        let exec = Executor::new(4);
        let bad = layered_dag(3, 3);
        let good = layered_dag(4, 4);
        let good_count = AtomicU32::new(0);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(&exec, &bad, QueuePolicy::Fifo, |v, _tag, _w| {
                        spin(std::time::Duration::from_micros(50));
                        if v == 4 {
                            panic!("injected tenant failure");
                        }
                    });
                }));
                assert!(result.is_err(), "panic was swallowed");
            });
            s.spawn(|| {
                barrier.wait();
                run(&exec, &good, QueuePolicy::Fifo, |_v, _tag, _w| {
                    spin(std::time::Duration::from_micros(50));
                    good_count.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(good_count.load(Ordering::SeqCst), good.len() as u32);
        // The pool is still healthy for everyone.
        let after = AtomicU32::new(0);
        run(&exec, &good, QueuePolicy::Fifo, |_v, _tag, _w| {
            after.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(after.load(Ordering::SeqCst), good.len() as u32);
    }
}
