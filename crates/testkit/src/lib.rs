//! `nufft-testkit` — the workspace's hermetic test substrate.
//!
//! The tier-1 gate (`cargo build --release --offline && cargo test -q
//! --offline`) must pass with **zero external dependencies**, so the three
//! things the workspace used to pull from crates.io live here instead:
//!
//! * [`rng`] — a deterministic seedable PRNG (SplitMix64 seeding, a
//!   xoshiro256++ core) with uniform / Gaussian / complex-vector
//!   generators. Replaces `rand` for trajectory generation, dataset
//!   synthesis and test inputs; every stream is a pure function of its
//!   64-bit seed.
//! * [`prop`] — a property-testing harness ([`prop::prop_check`]) with
//!   per-case derived seeds, counterexample **seed replay** via the
//!   `NUFFT_PROP_SEED` environment variable, and greedy size shrinking.
//!   Replaces `proptest`.
//! * [`bench`](mod@bench) — a micro-benchmark harness (warmup, batch auto-sizing,
//!   median/p10/p90, JSON-lines output into `results/`). Replaces
//!   `criterion` for the `crates/bench/benches/*` entrypoints.
//!
//! Seeds are part of the experiment definition: EXPERIMENTS.md datasets
//! name the seed each trajectory was generated from, and a failing property
//! test prints the seed that reproduces it (see DESIGN.md, "Hermetic
//! testing").

pub mod alloc;
pub mod bench;
pub mod prop;
pub mod rng;

pub use prop::prop_check;
pub use rng::Rng;
