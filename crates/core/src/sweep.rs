//! Configuration sweeps (the paper's Section 6 evaluation protocol).
//!
//! The paper evaluates RevTerm by running every configuration — a choice of
//! check, SMT solver and template size `(c, d, D)` — separately and counting
//! a benchmark as proved non-terminating if *at least one* configuration
//! succeeds.  [`crate::ProverSession::sweep`] reproduces that protocol and
//! records every configuration's result together with its runtime, which is
//! the raw data behind Tables 1–4.

use crate::config::{CheckKind, ProverConfig, Strategy};
use crate::prover::{ProofResult, Verdict};
use crate::session::{ProveStats, NO_CONFIGS_LABEL};
use revterm_invgen::TemplateParams;
use std::time::Duration;

/// The outcome of one configuration on one benchmark.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// Which check the configuration ran.
    pub check: CheckKind,
    /// Which strategy (solver stand-in) the configuration used.
    pub strategy: Strategy,
    /// The template parameters.
    pub params: TemplateParams,
    /// The configuration's result: verdict (with the certificate of a
    /// proof), label, wall-clock time and per-stage statistics.  A
    /// configuration skipped because its turn came past the sweep's
    /// deadline reads `Timeout` with zero elapsed time.
    pub result: ProofResult,
}

/// The sweep result for one benchmark.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Per-configuration outcomes, in sweep order.
    pub outcomes: Vec<ConfigOutcome>,
}

impl SweepReport {
    /// Returns `true` iff at least one configuration proved non-termination.
    pub fn proved(&self) -> bool {
        self.successes().next().is_some()
    }

    /// The configurations that proved non-termination, in sweep order.
    fn successes(&self) -> impl Iterator<Item = &ConfigOutcome> {
        self.outcomes.iter().filter(|o| o.result.is_non_terminating())
    }

    /// The fastest successful configuration, if any.
    pub fn fastest_success(&self) -> Option<&ConfigOutcome> {
        self.successes().min_by_key(|o| o.result.elapsed)
    }

    /// Total time spent across all configurations.
    pub fn total_elapsed(&self) -> Duration {
        self.outcomes.iter().map(|o| o.result.elapsed).sum()
    }

    /// The successful configurations restricted to a check / strategy cell
    /// (used by the Table 3 harness).
    pub fn proved_with(&self, check: CheckKind, strategy: Strategy) -> bool {
        self.successes().any(|o| o.check == check && o.strategy == strategy)
    }

    /// Whether some configuration with template bounds `c ≤ max_c` and
    /// `d ≤ max_d` proved the benchmark (used by the Table 4 harness).
    pub fn proved_within(&self, max_c: usize, max_d: usize, max_degree: u32) -> bool {
        self.successes()
            .any(|o| o.params.c <= max_c && o.params.d <= max_d && o.params.degree <= max_degree)
    }

    /// Folds the sweep into one [`ProofResult`], the answer of
    /// [`crate::ProverSession::prove_first`]: the first proof wins, with its
    /// certificate and label.  When nothing was proved the verdict is
    /// [`Verdict::Timeout`] if some configuration was cut short by its
    /// [`crate::Budget`] or the deadline (the search was not exhausted, so
    /// `Unknown` would overclaim) and [`Verdict::Unknown`] otherwise, with
    /// the label [`NO_CONFIGS_LABEL`] for an empty sweep and `"none"` for one
    /// whose configurations all failed.  Elapsed time and statistics are
    /// summed over every configuration.
    pub fn into_result(self) -> ProofResult {
        let elapsed = self.total_elapsed();
        let mut stats = ProveStats::default();
        for outcome in &self.outcomes {
            stats.accumulate(&outcome.result.stats);
        }
        let any_timeout = self.outcomes.iter().any(|o| o.result.timed_out());
        let label = if self.outcomes.is_empty() { NO_CONFIGS_LABEL } else { "none" };
        match self.outcomes.into_iter().find(|o| o.result.is_non_terminating()) {
            Some(winner) => ProofResult { elapsed, stats, ..winner.result },
            None => ProofResult {
                verdict: if any_timeout { Verdict::Timeout } else { Verdict::Unknown },
                elapsed,
                config_label: label.to_string(),
                stats,
            },
        }
    }
}

/// The default configuration grid of the reproduction: both checks, both
/// strategies, template sizes `c ∈ {1, 2, 3}`, `d ∈ {1, 2}` and degrees
/// `D ∈ {1, 2}`.
///
/// The paper sweeps `c, d ∈ [1, 5]` and `D ∈ [1, 2]`; its own Table 4 shows
/// that `c ≤ 3`, `d ≤ 2`, `D ≤ 2` already reaches every benchmark that the
/// full sweep reaches, so the reduced grid preserves the comparison while
/// keeping the exact-arithmetic sweep affordable.
pub fn default_sweep() -> Vec<ProverConfig> {
    let mut configs = Vec::new();
    for &check in &[CheckKind::Check1, CheckKind::Check2] {
        for &strategy in &[Strategy::Houdini, Strategy::GuardPropagation] {
            for &c in &[1usize, 2, 3] {
                for &d in &[1usize, 2] {
                    for &degree in &[1u32, 2] {
                        configs.push(
                            ProverConfig::builder()
                                .check(check)
                                .strategy(strategy)
                                .params(TemplateParams::new(c, d, degree))
                                .build(),
                        );
                    }
                }
            }
        }
    }
    configs
}

/// A small sweep used in tests and the quickstart example: Check 1 and
/// Check 2 with the default strategy and a single template size.
pub fn quick_sweep() -> Vec<ProverConfig> {
    vec![
        ProverConfig::default(),
        ProverConfig::builder().check(CheckKind::Check2).template(3, 1, 1).build(),
    ]
}

/// The degree-1 slice of [`default_sweep`]: both checks, both strategies,
/// `c ∈ {1, 2, 3}`, `d ∈ {1, 2}`, `D = 1` (24 configurations).
///
/// Degree-2 cells pay for Handelman products in every entailment call and
/// are orders of magnitude more expensive; harnesses that track sweep
/// performance (e.g. `session_vs_fresh` in `revterm-bench`) use this grid.
pub fn degree1_sweep() -> Vec<ProverConfig> {
    default_sweep().into_iter().filter(|c| c.params.degree == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProverSession;

    #[test]
    fn degree1_sweep_is_the_degree_one_slice() {
        let configs = degree1_sweep();
        assert_eq!(configs.len(), 2 * 2 * 3 * 2);
        assert!(configs.iter().all(|c| c.params.degree == 1));
    }

    #[test]
    fn default_sweep_covers_both_checks_and_strategies() {
        let configs = default_sweep();
        assert_eq!(configs.len(), 2 * 2 * 3 * 2 * 2);
        assert!(configs.iter().any(|c| c.check == CheckKind::Check1));
        assert!(configs.iter().any(|c| c.check == CheckKind::Check2));
        assert!(configs.iter().any(|c| c.strategy == Strategy::GuardPropagation));
        // Labels are unique.
        let mut labels: Vec<String> = configs.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), configs.len());
    }

    #[test]
    fn sweep_reports_first_success_and_statistics() {
        let mut session = ProverSession::from_source("while x >= 0 do x := x + 1; od").unwrap();
        let report = session.sweep(&quick_sweep(), 1, None);
        assert!(report.proved());
        let fastest = report.fastest_success().unwrap();
        assert!(fastest.result.certificate().is_some(), "a sweep keeps the winning certificate");
        assert!(report.proved_with(fastest.check, fastest.strategy));
        assert!(report.proved_within(5, 5, 2));
        assert!(!report.proved_within(0, 0, 0));
        assert!(report.total_elapsed() >= fastest.result.elapsed);
    }

    #[test]
    fn sweep_on_terminating_program_reports_nothing() {
        let mut session =
            ProverSession::from_source("n := 0; while n <= 3 do n := n + 1; od").unwrap();
        let report = session.sweep(&quick_sweep(), 1, None);
        assert!(!report.proved());
        assert!(report.fastest_success().is_none());
        assert_eq!(report.outcomes.len(), quick_sweep().len());
    }
}
