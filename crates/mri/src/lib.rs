//! Iterative non-Cartesian MRI reconstruction — the paper's motivating
//! application (§I: "iterative multichannel reconstruction of a
//! 240×240×240 image could execute in just over 3 minutes").
//!
//! Built entirely on [`nufft_core::NufftPlan`]:
//!
//! * [`phantom`] — analytic ellipsoid phantoms (Shepp–Logan-style) in 2D
//!   and 3D, the ground truth for reconstruction experiments;
//! * [`coils`] — synthetic receive-coil sensitivity maps for multichannel
//!   (SENSE-type) modeling;
//! * [`dcf`] — sample density compensation: analytic radial weights and the
//!   iterative Pipe–Menon refinement;
//! * [`cg`] — conjugate gradients on the (regularized) normal equations;
//! * [`toeplitz`] — the multi-coil normal operator as a `2N`-grid FFT
//!   convolution with the point-spread function, on the plan's pool;
//! * [`recon`] — gridding (adjoint + DCF) and iterative CG-SENSE
//!   reconstructions, single- and multi-coil.

// Index-based loops below frequently address several parallel arrays
// at once; clippy's iterator suggestion would obscure that.
#![allow(clippy::needless_range_loop)]

pub mod cg;
pub mod coils;
pub mod dcf;
pub mod phantom;
pub mod recon;
pub mod toeplitz;

pub use recon::{gridding_recon, IterativeRecon, ReconReport};
pub use toeplitz::ToeplitzNormal;
