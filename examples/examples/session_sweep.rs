//! The session-centric API: sweep a configuration grid over one program
//! through a shared [`ProverSession`] and inspect the cache statistics that
//! make the sweep cheap.
//!
//! ```text
//! cargo run -p revterm-examples --example session_sweep
//! ```

use revterm::{degree1_sweep, ConfigOutcome, ProverSession};
use revterm_examples::build;

fn main() {
    let source = "while x >= 0 do x := x + 1; od";
    println!("program:\n{source}\n");

    let mut session = ProverSession::new(build(source));
    let configs = degree1_sweep();
    let report = session.sweep(&configs, 0, None);

    println!(
        "{} configurations, {} proved non-termination",
        report.outcomes.len(),
        report.outcomes.iter().filter(|o| o.result.is_non_terminating()).count()
    );
    for ConfigOutcome { result, .. } in &report.outcomes {
        println!(
            "  {:<36} {} in {:>9.2?}  ({} entailment calls, {} cached)",
            result.config_label,
            if result.is_non_terminating() { "NO   " } else { "MAYBE" },
            result.elapsed,
            result.stats.entailment_calls,
            result.stats.entailment_cache_hits,
        );
    }

    let agg = session.stats().aggregate;
    println!(
        "\nsession totals: {} candidates tried, {} synthesis calls, {} entailment calls \
         of which {} served from cache; {} probe / {} artifact cache hits",
        agg.candidates_tried,
        agg.synthesis_calls,
        agg.entailment_calls,
        agg.entailment_cache_hits,
        agg.probe_cache_hits,
        agg.artifact_cache_hits,
    );
    assert!(report.proved());
    assert!(agg.entailment_cache_hits > 0, "a warm sweep must hit the entailment memo");
}
