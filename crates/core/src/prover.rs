//! The top-level prover entry points.
//!
//! The free functions here ([`prove`], [`prove_with_configs`],
//! [`crate::sweep`]) are retained for compatibility as thin wrappers that
//! open a one-shot [`crate::ProverSession`]; new code should use a session
//! directly so that derived artifacts are shared across configurations.

use crate::certificate::{validate_certificate, NonTerminationCertificate};
use crate::check1::check1_cached;
use crate::check2::check2_cached;
use crate::config::{Budget, CheckKind, ProverConfig};
use crate::error::Error;
use crate::session::{Caches, ProveStats, ProverSession};
use revterm_lang::Program;
use revterm_ts::{lower, TransitionSystem};
use std::time::{Duration, Instant};

/// The verdict of a prover run.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Non-termination was proved; the (validated) certificate is attached.
    NonTerminating(Box<NonTerminationCertificate>),
    /// The prover could not prove non-termination with this configuration
    /// (the program may still be non-terminating — the algorithm is sound,
    /// not complete).
    Unknown,
    /// The configuration's cooperative [`Budget`] expired before the search
    /// finished.  Unlike [`Verdict::Unknown`] this does *not* mean the
    /// configuration was exhausted — re-running with a larger budget may
    /// still prove non-termination.  The interruption happens only at
    /// candidate boundaries, so the session that produced this verdict is
    /// never left with partially computed cache entries.
    Timeout,
}

/// Sentinel returned by the cached checks when the budget guard fires.
pub(crate) struct TimedOut;

/// An armed [`Budget`]: the wall-clock deadline (fixed when the `prove` call
/// starts) and the absolute entailment-lookup count at which to stop.
pub(crate) struct BudgetGuard {
    deadline: Option<Instant>,
    entail_stop: Option<u64>,
}

impl BudgetGuard {
    /// Arms a budget at call start.  `entail_lookups_now` is the session's
    /// current entailment-lookup counter, so the work cap counts only this
    /// call's queries.
    pub(crate) fn arm(budget: &Budget, entail_lookups_now: u64) -> BudgetGuard {
        BudgetGuard {
            deadline: budget.time_limit.map(|limit| Instant::now() + limit),
            entail_stop: budget.max_entailment_calls.map(|cap| entail_lookups_now + cap),
        }
    }

    /// The same limits as an invgen [`SynthesisBudget`], so one Houdini run
    /// can stop mid-fixpoint instead of only between candidates.  A
    /// cut-short synthesis is never memoized (the checks return `TimedOut`
    /// without caching), keeping the sessioned-equals-fresh contract.
    pub(crate) fn synthesis_budget(&self) -> revterm_invgen::SynthesisBudget {
        revterm_invgen::SynthesisBudget {
            deadline: self.deadline,
            entail_call_stop: self.entail_stop,
        }
    }

    /// Returns `true` iff a limit has expired.  Called between candidates
    /// and before synthesis; the synthesis loops themselves poll via
    /// [`BudgetGuard::synthesis_budget`].
    pub(crate) fn exhausted(&self, entail_lookups_now: u64) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        if let Some(stop) = self.entail_stop {
            if entail_lookups_now >= stop {
                return true;
            }
        }
        false
    }
}

/// The result of a prover run: the verdict plus timing and per-stage
/// statistics.
#[derive(Debug, Clone)]
pub struct ProofResult {
    /// The verdict.
    pub verdict: Verdict,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// The configuration label that produced the verdict.
    pub config_label: String,
    /// Structured per-stage statistics: candidates tried, synthesis and
    /// entailment calls, cache hits (all zero deltas on a cold one-shot run
    /// except the computation counters).
    pub stats: ProveStats,
}

impl ProofResult {
    /// Returns `true` iff non-termination was proved.
    pub fn is_non_terminating(&self) -> bool {
        matches!(self.verdict, Verdict::NonTerminating(_))
    }

    /// Returns `true` iff the run was cut short by its [`Budget`].
    pub fn timed_out(&self) -> bool {
        matches!(self.verdict, Verdict::Timeout)
    }

    /// The certificate, if non-termination was proved.
    pub fn certificate(&self) -> Option<&NonTerminationCertificate> {
        match &self.verdict {
            Verdict::NonTerminating(c) => Some(c),
            Verdict::Unknown | Verdict::Timeout => None,
        }
    }
}

/// Runs one configuration against the session caches, re-validating any
/// candidate certificate with the independent (uncached) oracle before
/// reporting non-termination.
pub(crate) fn prove_cached(
    ts: &TransitionSystem,
    config: &ProverConfig,
    caches: &mut Caches,
) -> ProofResult {
    let start = Instant::now();
    let mut stats = ProveStats::default();
    let (lookups_before, hits_before) = (caches.entail.lookups, caches.entail.hits);
    let lp_before = caches.lp;
    let guard = BudgetGuard::arm(&config.budget, lookups_before);
    let candidate = match config.check {
        CheckKind::Check1 => check1_cached(ts, config, caches, &mut stats, &guard),
        CheckKind::Check2 => check2_cached(ts, config, caches, &mut stats, &guard),
    };
    let verdict = match candidate {
        Ok(Some(cert)) => match validate_certificate(ts, &cert, &config.entailment) {
            Ok(()) => Verdict::NonTerminating(Box::new(cert)),
            Err(_) => Verdict::Unknown,
        },
        Ok(None) => Verdict::Unknown,
        Err(TimedOut) => Verdict::Timeout,
    };
    stats.entailment_calls = caches.entail.lookups - lookups_before;
    stats.entailment_cache_hits = caches.entail.hits - hits_before;
    stats.lp = caches.lp.delta_since(&lp_before);
    ProofResult { verdict, elapsed: start.elapsed(), config_label: config.label(), stats }
}

/// Proves non-termination of a transition system with a single configuration.
///
/// A `NonTerminating` verdict is only returned after the certificate produced
/// by the check has been independently re-validated; if validation fails
/// (which would indicate a bug in the synthesis heuristics) the verdict is
/// downgraded to `Unknown`.
///
/// Deprecated-style wrapper: this is exactly one cold
/// [`ProverSession::prove`] call.  Prefer opening a session when proving the
/// same system more than once.
pub fn prove(ts: &TransitionSystem, config: &ProverConfig) -> ProofResult {
    prove_cached(ts, config, &mut Caches::default())
}

/// Proves non-termination of a transition system, trying several
/// configurations in order and returning the first success (or `Unknown`
/// with the cumulative time).
///
/// Deprecated-style wrapper over [`ProverSession::prove_first`] on a
/// one-shot session; prefer the session API.  On an empty `configs` slice
/// the result is `Unknown` with the documented
/// [`crate::NO_CONFIGS_LABEL`] label.
pub fn prove_with_configs(ts: &TransitionSystem, configs: &[ProverConfig]) -> ProofResult {
    ProverSession::new(ts.clone()).prove_first(configs)
}

/// Convenience entry point: lowers a program and proves it with the default
/// Check 1 / Check 2 pair of configurations.
///
/// # Errors
///
/// Returns [`Error::Analysis`] if the program cannot be translated.
pub fn prove_program(program: &Program, config: &ProverConfig) -> Result<ProofResult, Error> {
    let ts = lower(program).map_err(|e| Error::Analysis(e.to_string()))?;
    Ok(prove(&ts, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckKind, Strategy};
    use revterm_lang::parse_program;

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    /// Fig. 3 / Appendix C: every non-terminating execution is aperiodic.
    const APERIODIC: &str = "while x >= 1 do y := 10 * x; while x <= y do x := x + 1; od od";

    /// A scaled-down version of Fig. 2 (bound 3 instead of 99): no initial
    /// configuration is diverging w.r.t. any constant resolution, but the
    /// program is non-terminating.
    const FIG2_SMALL: &str = "n := 0; b := 0; u := 0; \
        while b == 0 and n <= 3 do \
          u := ndet(); \
          if u <= -1 then b := -1; elseif u == 0 then b := 0; else b := 1; fi \
          n := n + 1; \
          if n >= 4 and b >= 1 then while true do skip; od fi \
        od";

    #[test]
    fn check1_proves_running_example() {
        let ts = revterm_ts::lower(&parse_program(RUNNING).unwrap()).unwrap();
        let result = prove(&ts, &ProverConfig::default());
        assert!(result.is_non_terminating());
        let cert = result.certificate().unwrap();
        assert_eq!(cert.check_kind(), CheckKind::Check1);
        // The certificate summary mentions the resolved assignment.
        assert!(cert.summary(&ts).contains("x :="));
    }

    #[test]
    fn check1_proves_aperiodic_example() {
        let ts = revterm_ts::lower(&parse_program(APERIODIC).unwrap()).unwrap();
        let result = prove(&ts, &ProverConfig::default());
        assert!(result.is_non_terminating(), "Fig. 3 should be proved by Check 1");
    }

    #[test]
    fn terminating_programs_stay_unknown() {
        let ts =
            revterm_ts::lower(&parse_program("n := 0; while n <= 5 do n := n + 1; od").unwrap())
                .unwrap();
        for check in [CheckKind::Check1, CheckKind::Check2] {
            let result = prove(&ts, &ProverConfig::with_check(check));
            assert!(!result.is_non_terminating(), "{check} must not claim non-termination");
        }
    }

    #[test]
    fn check2_proves_program_without_initial_diverging_configuration() {
        let ts = revterm_ts::lower(&parse_program(FIG2_SMALL).unwrap()).unwrap();
        // Check 1 fails with constant/linear resolutions (Example 5.5's point).
        let c1 = prove(&ts, &ProverConfig::default());
        assert!(!c1.is_non_terminating(), "Check 1 should not prove the Fig. 2 family");
        // Check 2 succeeds.
        let mut config = ProverConfig::with_check(CheckKind::Check2);
        config.params = revterm_invgen::TemplateParams::new(3, 1, 1);
        let c2 = prove(&ts, &config);
        assert!(c2.is_non_terminating(), "Check 2 should prove the Fig. 2 family");
        assert_eq!(c2.certificate().unwrap().check_kind(), CheckKind::Check2);
    }

    #[test]
    fn guard_propagation_strategy_also_proves_easy_cases() {
        let ts =
            revterm_ts::lower(&parse_program("while x >= 0 do x := x + 1; od").unwrap()).unwrap();
        let config = ProverConfig::builder().strategy(Strategy::GuardPropagation).build();
        assert!(prove(&ts, &config).is_non_terminating());
    }

    #[test]
    fn prove_program_entry_point() {
        let program = parse_program("while true do skip; od").unwrap();
        let result = prove_program(&program, &ProverConfig::default()).unwrap();
        assert!(result.is_non_terminating());
        assert!(result.elapsed.as_secs() < 120);
        assert!(result.config_label.starts_with("check1"));
    }

    #[test]
    fn prove_with_configs_on_empty_slice_reports_the_documented_label() {
        // Regression: the empty sweep used to return `Unknown` silently with
        // the same label as "ran and failed"; it now carries the documented
        // sentinel label so callers can distinguish the two.
        let ts = revterm_ts::lower(&parse_program("while true do skip; od").unwrap()).unwrap();
        let result = prove_with_configs(&ts, &[]);
        assert!(!result.is_non_terminating());
        assert_eq!(result.config_label, crate::session::NO_CONFIGS_LABEL);
        assert_eq!(result.stats, crate::session::ProveStats::default());
    }

    #[test]
    fn prove_with_configs_tries_until_success() {
        let ts = revterm_ts::lower(&parse_program(FIG2_SMALL).unwrap()).unwrap();
        let configs = vec![
            ProverConfig::default(),
            ProverConfig::builder()
                .check(CheckKind::Check2)
                .params(revterm_invgen::TemplateParams::new(3, 1, 1))
                .build(),
        ];
        let result = prove_with_configs(&ts, &configs);
        assert!(result.is_non_terminating());
        assert!(result.config_label.starts_with("check2"));
    }
}
