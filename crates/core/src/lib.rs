//! # nufft-core — the paper's contribution
//!
//! A from-scratch reproduction of *High Performance Non-uniform FFT on
//! Modern x86-based Multi-core Systems* (Kalamkar et al., IPDPS 2012): a
//! parallel, SIMD-vectorized 1D/2D/3D NUFFT whose adjoint convolution runs
//! under the paper's novel scheduler — variable-width geometric
//! partitioning, Gray-code task-dependency-graph ordering without global
//! barriers, a largest-first priority ready queue, and selective
//! privatization with decoupled reduction.
//!
//! ## Quick start
//!
//! ```
//! use nufft_core::{NufftConfig, NufftPlan};
//! use nufft_math::Complex32;
//!
//! // A 2D 32×32 image observed at 200 non-uniform spectral points.
//! let traj: Vec<[f64; 2]> = (0..200)
//!     .map(|i| {
//!         let a = (i as f64 * 0.61803) % 1.0 - 0.5;
//!         let b = (i as f64 * 0.41421) % 1.0 - 0.5;
//!         [a, b]
//!     })
//!     .collect();
//! let cfg = NufftConfig { threads: 2, w: 2.0, ..NufftConfig::default() };
//! let mut plan = NufftPlan::new([32, 32], &traj, cfg);
//!
//! let image = vec![Complex32::ONE; 32 * 32];
//! let mut samples = vec![Complex32::ZERO; 200];
//! plan.forward(&image, &mut samples);          // image -> k-space samples
//!
//! let mut back = vec![Complex32::ZERO; 32 * 32];
//! plan.adjoint(&samples, &mut back);           // exact adjoint map
//! ```
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §II-B kernel + LUT | [`kernel`] |
//! | §II-B scaling / roll-off | [`scale`] |
//! | Fig. 2 convolution | [`conv`] |
//! | §III-B1 / Fig. 5 partitioning | [`partition`] |
//! | §III-B2–4 + §III-D preprocessing | [`tasks`] |
//! | stage operators (spread/interp/FFT/deconvolve) | [`stage`] |
//! | operators + timings | [`plan`] |
//! | type-3 (nonuniform → nonuniform) | [`type3`] |

// Index-based loops below frequently address several parallel arrays
// at once; clippy's iterator suggestion would obscure that.
#![allow(clippy::needless_range_loop)]

pub mod conv;
pub mod fused;
pub mod grid;
pub mod kernel;
pub mod partition;
pub mod plan;
pub mod registry;
pub mod scale;
pub mod stage;
pub mod tasks;
pub mod type3;
pub mod windows;

pub use kernel::{InterpKernel, KernelChoice};
pub use nufft_parallel::exec::JobPriority;
pub use plan::{ExecMode, NufftConfig, NufftPlan, OpTimers};
pub use registry::{
    ApplyHandle, ApplyOp, ApplyRequest, NufftService, PlanKey, PlanLease, PlanRegistry,
    RegistryStats, TransformKind, Type3Lease,
};
pub use stage::{DeconvOp, FftOp, InterpOp, SpreadOp};
pub use tasks::SortMode;
pub use type3::Type3Plan;
pub use windows::{WindowMode, WindowTable};
