//! Differential fuzzing for the RevTerm prover stack.
//!
//! This crate closes the loop the hand-written suites cannot: it *generates*
//! integer programs with **known-by-construction termination labels**, runs
//! each through the prover under a portfolio of configurations, and
//! cross-checks every result against four independent oracles. Any
//! disagreement is minimized by a built-in shrinker into a self-describing
//! repro file that the checked-in regression corpus replays on every
//! `cargo test`.
//!
//! # The three layers
//!
//! * [`mod@generate`] — a seeded ([`SplitMix64`](revterm_solver::SplitMix64))
//!   program generator with tunable shape knobs ([`GenConfig`]: nesting
//!   depth, block width, non-determinism rate, guard degree, variable pool,
//!   constant range). Three families:
//!   * **ranked** — every loop carries a fresh counter with a syntactic
//!     ranking function, so the program is *terminating by construction*;
//!   * **pump** (monotone / equality / aperiodic) — a lasso-shaped
//!     divergence that is *non-terminating by construction*; the aperiodic
//!     shape (the paper's Fig. 3 nest) defeats periodic-lasso searches;
//!   * **free** — unconstrained syntax, label [`KnownLabel::Unknown`],
//!     pure differential fodder.
//! * [`oracle`] — the harness: one [`ProverSession`](revterm::ProverSession)
//!   per program, cross-checked against (1) the sound baseline table and the
//!   known label, (2) independent certificate validation, (3) the
//!   abstract-interpretation pre-analysis on vs. off, which must be
//!   digest-identical, and (4) a sample of the run's own multiplier LPs,
//!   re-solved by the LP engine and the dense reference, which must agree
//!   bit for bit.
//! * [`mod@shrink`] + [`repro`] — greedy structure-preserving minimization of a
//!   failing program under a caller-supplied predicate, and the `.rt` repro
//!   file format used by `tests/fuzz_regressions/`.
//!
//! Everything is deterministic from the seed: no wall-clock, no global RNG,
//! so a failure reported by CI replays bit-identically from its seed or its
//! shrunk repro file.
//!
//! The `fuzz_drive` binary in `revterm-bench` is the batch driver: it runs
//! a seeded batch through [`oracle::differential`], emits JSON stats, and
//! shrinks any failure it finds.

pub mod generate;
pub mod oracle;
pub mod repro;
pub mod shrink;

pub use generate::{generate, generate_batch, GenConfig, GeneratedProgram, KnownLabel};
pub use oracle::{
    default_portfolio, differential, lp_differential, sample_lps, DiffOptions, DiffReport,
    FailureKind, OracleFailure,
};
pub use repro::{load_dir, parse_repro, render_repro, ReproCase, ReproError, REPRO_MAGIC};
pub use shrink::{normalize, shrink};
