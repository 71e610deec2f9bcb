//! Session/fresh equivalence: a warm [`ProverSession`] must return exactly
//! the verdicts (and certificate kinds) of a fresh one-shot session per
//! configuration, because every session cache is a pure memo table.

use revterm::{quick_sweep, ProverSession};
use revterm_suite::curated_benchmarks;

/// Three cheap benchmarks spanning the interesting outcomes: a simple
/// non-terminating loop (Check 1 at the first config), the paper's running
/// example (needs a resolution of non-determinism), and a terminating
/// program (every configuration must stay `Unknown`).
const BENCHMARKS: &[&str] = &["nt_counter_up", "paper_fig1_running", "t_counter_down"];

#[test]
fn session_verdicts_match_fresh_verdicts_on_quick_sweep() {
    let suite = curated_benchmarks();
    for name in BENCHMARKS {
        let bench = suite.iter().find(|b| b.name == *name).expect("benchmark exists");
        let ts = bench.transition_system();
        let mut session = ProverSession::new(ts.clone());
        for config in quick_sweep() {
            let fresh = ProverSession::new(ts.clone()).prove(&config);
            let sessioned = session.prove(&config);
            assert_eq!(
                fresh.is_non_terminating(),
                sessioned.is_non_terminating(),
                "verdict mismatch on {name} with {}",
                config.label()
            );
            assert_eq!(fresh.config_label, sessioned.config_label);
            match (fresh.certificate(), sessioned.certificate()) {
                (Some(f), Some(s)) => {
                    assert_eq!(
                        f.check_kind(),
                        s.check_kind(),
                        "certificate kind mismatch on {name} with {}",
                        config.label()
                    );
                    assert_eq!(f.resolution(), s.resolution(), "resolution mismatch on {name}");
                }
                (None, None) => {}
                _ => panic!("certificate presence mismatch on {name} with {}", config.label()),
            }
        }
    }
}

#[test]
fn cache_hit_counters_increment_on_the_second_config() {
    let suite = curated_benchmarks();
    let bench = suite.iter().find(|b| b.name == "paper_fig1_running").expect("benchmark exists");
    let mut session = bench.session();
    let configs = quick_sweep();
    let cold = session.prove(&configs[0]);
    assert_eq!(cold.stats.artifact_cache_hits, 0, "cold run cannot hit session caches");
    let warm = session.prove(&configs[1]);
    assert!(
        warm.stats.artifact_cache_hits > 0,
        "second config should reuse session artifacts: {:?}",
        warm.stats
    );
    assert!(
        warm.stats.entailment_cache_hits > 0,
        "second config should reuse entailment answers: {:?}",
        warm.stats
    );
    let totals = session.stats();
    assert_eq!(totals.proves, 2);
    assert!(totals.aggregate.total_cache_hits() >= warm.stats.total_cache_hits());
}
