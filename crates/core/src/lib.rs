//! RevTerm: proving non-termination by program reversal.
//!
//! This crate implements the paper's contribution — Algorithm 1 and the
//! BI-certificate machinery of Sections 4 and 5 — on top of the substrates
//! built in the sibling crates:
//!
//! * [`revterm_lang`] — the input language,
//! * [`revterm_ts`] — transition systems, reversal, resolutions of
//!   non-determinism,
//! * [`revterm_absint`] — the interval/sign abstract-interpretation
//!   pre-analysis (sound pruning and the `revterm analyze` facts),
//! * [`revterm_invgen`] — template-based inductive invariant generation,
//! * [`revterm_solver`] — the exact Farkas/Handelman entailment oracle,
//! * [`revterm_safety`] — the bounded safety (reachability) prover.
//!
//! # Quick start: sessions
//!
//! The primary entry point is a [`ProverSession`]: it owns one transition
//! system together with memoized derived artifacts (restricted and reversed
//! systems, candidate atom pools, interpreter probe traces, entailment memo
//! tables), so running many configurations — the paper's Section 6 protocol
//! sweeps the whole check × strategy × template grid per benchmark — pays
//! for shared work once.  Configurations are assembled with
//! [`ProverConfig::builder`].
//!
//! ```
//! use revterm::{CheckKind, ProverConfig, ProverSession};
//!
//! // The paper's running example (Fig. 1).
//! let mut session = ProverSession::from_source(
//!     "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od",
//! ).unwrap();
//!
//! // A single configuration...
//! let result = session.prove(&ProverConfig::default());
//! assert!(result.is_non_terminating());
//!
//! // ...and a second one on the warm session: identical verdicts to a fresh
//! // run, but shared artifacts (probes, pools, entailment queries) are
//! // served from the session caches, as the statistics show.
//! let config = ProverConfig::builder().check(CheckKind::Check1).template(3, 1, 1).build();
//! let warm = session.prove(&config);
//! assert!(warm.is_non_terminating());
//! assert!(warm.stats.total_cache_hits() > 0);
//! ```
//!
//! [`ProofResult`] carries structured per-stage statistics ([`ProveStats`]):
//! candidates tried, synthesis and entailment calls, cache hits.
//!
//! # The three doors
//!
//! A session answers every query through one of three calls:
//!
//! * [`ProverSession::prove`] runs one configuration.  A one-shot run is
//!   `ProverSession::new(ts).prove(&config)`; a warm session returns the
//!   same verdict and certificate.
//! * [`ProverSession::sweep`] is the only loop over configurations: it runs
//!   them in order, stops after `stop_after` proofs (`0` runs them all) and
//!   clamps each configuration's budget to an optional whole-request
//!   deadline.  Its [`SweepReport`] keeps every configuration's
//!   [`ProofResult`], winning certificates included.
//! * [`ProverSession::prove_first`] is `sweep(configs, 1, None)` folded by
//!   [`SweepReport::into_result`]: the first proof wins, otherwise `Timeout`
//!   or `Unknown` (an empty slice reports [`NO_CONFIGS_LABEL`]).  The CLI and
//!   the daemon use the same fold over `sweep(configs, 1, deadline)`.
//!
//! Every `NonTerminating` verdict carries a [`NonTerminationCertificate`]
//! that has already been re-validated by an independent exact checker
//! ([`validate_certificate`]); the prover never reports non-termination on
//! the basis of an unchecked synthesis result.  Certificate validation never
//! goes through the session caches.

#![warn(missing_docs)]

pub mod api;
mod certificate;
mod check1;
mod check2;
mod config;
mod error;
mod prover;
mod session;
mod sweep;

pub use api::{analysis_report, certificate_digest, lower_source, outcome_digest, program_hash};
pub use certificate::{
    validate_certificate, CertificateError, Check1Certificate, Check2Certificate,
    NonTerminationCertificate,
};
pub use config::{Budget, CheckKind, ProverConfig, ProverConfigBuilder, Strategy};
pub use error::Error;
pub use prover::{ProofResult, Verdict};
pub use revterm_absint::{AbstractState, Diagnostics};
pub use session::{ProveStats, ProverSession, SessionStats, NO_CONFIGS_LABEL};
pub use sweep::{default_sweep, degree1_sweep, quick_sweep, ConfigOutcome, SweepReport};
