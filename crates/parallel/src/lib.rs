//! Task runtime for the NUFFT suite — the paper's §III-B machinery.
//!
//! The adjoint NUFFT convolution scatters samples onto a shared Cartesian
//! grid, so two tasks whose partitions are adjacent (their `W`-halos overlap)
//! must never run concurrently. The paper's scheme, reproduced here:
//!
//! * [`graph`] — tasks are cells of a d-dimensional partition grid; each
//!   task's *turn* is the d-bit word of its per-dimension index parities, and
//!   turns are ordered by the binary **Gray code** so that consecutive turns
//!   differ in exactly one dimension. A task depends on (at most) its two
//!   neighbors along that dimension with the previous turn — 2 forward and 2
//!   backward edges per task, no global barrier (§III-B2);
//! * [`queue`] — FIFO and priority (largest-task-first) ready queues
//!   (§III-B3);
//! * [`exec`] — a **persistent worker-pool** executor with one graph
//!   runner, [`Executor::run_dag`]: it runs a [`Dag`] on `T` resident
//!   workers with per-worker ready-queue shards and work stealing
//!   (dependency edges retire through per-node atomic counters — no global
//!   lock). A [`TaskGraph`] runs as its expansion
//!   ([`TaskGraph::expand_into`]), which carries the two-phase *selective
//!   privatization* protocol (§III-B4) as plain nodes and edges: a
//!   privatized task's convolution into a private buffer is ready at once,
//!   and its reduction inherits the TDG edges. Alongside it, a
//!   work-stealing `parallel_for` serves the forward (gather) convolution
//!   and FFT lines. This pool is the only scheduler: the paper's single
//!   global ready queue is not shipped, and `nufft-sim`'s
//!   `simulate_shared_queue` models it for Figure 11.
//!
//! Everything is instrumented: every run leaves per-worker busy times and a
//! per-node execution log in its [`DagScratch`], which the load-balance
//! experiments and the `nufft-sim` cost-model calibration consume.

// Index-based loops below frequently address several parallel arrays
// at once; clippy's iterator suggestion would obscure that.
#![allow(clippy::needless_range_loop)]

pub mod exec;
pub mod graph;
pub mod gray;
pub mod queue;
pub mod scratch;

pub use exec::{DagRecord, DagRunStats, DagScratch, Executor, JobPriority, RunStats, TaskPhase};
pub use graph::{Dag, DagBuilder, NodeId, QueuePolicy, TaskGraph, TaskId};
pub use gray::{gray_code, gray_rank};
pub use scratch::WorkerLocal;
