//! SIMD substrate for the NUFFT suite.
//!
//! The paper's convolution (§III-C) is vectorized with a *hybrid* strategy:
//! interpolation-kernel coordinates (Part 1) are computed one sample per SIMD
//! lane, while the convolution itself (Part 2) vectorizes *within* a sample
//! over the contiguous innermost grid dimension. This crate supplies the
//! Part 2 primitives — complex *row* operations over interleaved
//! `(re, im)` `f32` buffers — in three implementations:
//!
//! * [`IsaLevel::Scalar`] — portable reference, always available;
//! * [`IsaLevel::Sse2`] — 128-bit, 2 complex values per vector (the paper's
//!   SSE4 configuration);
//! * [`IsaLevel::Avx2Fma`] — 256-bit + FMA, 4 complex values per vector (the
//!   paper's "expected to scale to wider SIMD" projection).
//!
//! At AVX2+FMA, [`boxes`] adds the W-specialized per-sample kernels: one
//! call covers a 2D/3D sample's whole window box instead of one row-kernel
//! call per grid row.
//!
//! Part 1 — a sample's window weights — is vectorized across the window's
//! taps rather than across samples: [`lut_row`] (table lookup, AVX2
//! gathers) and [`horner_row`] (fitted ES polynomials, AVX2 FMAs) each
//! fill one window row per call, bitwise-identically at every level.
//!
//! The active level is detected once at startup and can be overridden with
//! [`set_isa_override`] — the Figure 13 experiment uses this to measure
//! scalar-vs-SSE-vs-AVX speedups of the convolution (at AVX2+FMA, through
//! the box kernels).
//!
//! The row kernels are exact-operation-count equivalents of their scalar
//! references; the only permitted deviations are floating-point reassociation
//! and FMA contraction, bounded in the property tests. The box kernels
//! reassociate the row path's sums and are checked against it to tolerance.

pub mod boxes;
pub mod dispatch;
pub mod fft_rows;
pub mod horner;
pub mod lut;
pub mod rows;
pub mod transpose;
pub mod vecops;

mod avx;
mod scalar;
mod sse;

pub use dispatch::{active_isa, detect_isa, set_isa_override, IsaLevel};
pub use horner::horner_row;
pub use lut::lut_row;
pub use rows::{gather_row, gather_row2, scatter_row, scatter_row2};
pub use transpose::{gather_chunks, gather_chunks_cmul, scatter_chunks, transpose};
pub use vecops::{accumulate, dotc, scale_by_real, sum_norm_sqr};
