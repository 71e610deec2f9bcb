//! Measures the speedup of the session-centric prover API: for each selected
//! benchmark, runs the **degree-1** configuration grid (24 cells) once with
//! fresh per-configuration `prove` calls and once through a shared
//! [`revterm::ProverSession`], checks that the per-configuration verdicts are
//! identical, and prints one JSON object per benchmark so future PRs can
//! track the speedup.
//!
//! Only the degree-1 grid is swept: degree-2 cells pay for Handelman
//! products in every entailment query and are minutes-expensive per
//! benchmark, which would make this harness useless for routine runs.
//!
//! ```text
//! cargo run --release -p revterm-bench --bin session_vs_fresh [benchmark...]
//! ```
//!
//! With no arguments a small default set is measured (the paper's running
//! example and a cheap simple loop); pass benchmark names from
//! `revterm --list` to measure others.

use revterm::{degree1_sweep, prove, ProverSession};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<String> = if args.is_empty() {
        vec!["nt_counter_up".to_string(), "paper_fig1_running".to_string()]
    } else {
        args
    };
    let suite = revterm_suite::full_suite();
    let configs = degree1_sweep();
    let mut all_matched = true;

    for name in &names {
        let Some(bench) = suite.iter().find(|b| b.name == *name) else {
            eprintln!("unknown benchmark {name:?} (see `revterm --list`)");
            std::process::exit(2);
        };
        let ts = bench.transition_system();

        // Fresh: one cold prover per configuration (the pre-session protocol).
        let fresh_start = Instant::now();
        let fresh: Vec<bool> = configs.iter().map(|c| prove(&ts, c).is_non_terminating()).collect();
        let fresh_secs = fresh_start.elapsed().as_secs_f64();

        // Sessioned: the same grid through one warm session, no early stop.
        let mut session = ProverSession::new(ts);
        let session_start = Instant::now();
        let report = session.sweep(&configs, usize::MAX);
        let session_secs = session_start.elapsed().as_secs_f64();
        let sessioned: Vec<bool> = report.outcomes.iter().map(|o| o.proved).collect();

        let verdicts_match = fresh == sessioned;
        all_matched &= verdicts_match;
        let agg = session.stats().aggregate;
        println!(
            "{{\"benchmark\":\"{}\",\"configs\":{},\"proved_cells\":{},\"fresh_secs\":{:.3},\"session_secs\":{:.3},\"speedup\":{:.2},\"verdicts_match\":{},\"entailment_calls\":{},\"entailment_cache_hits\":{},\"probe_cache_hits\":{},\"artifact_cache_hits\":{},\"lp_solves\":{},\"lp_pivots\":{}}}",
            bench.name,
            configs.len(),
            sessioned.iter().filter(|p| **p).count(),
            fresh_secs,
            session_secs,
            if session_secs > 0.0 { fresh_secs / session_secs } else { f64::INFINITY },
            verdicts_match,
            agg.entailment_calls,
            agg.entailment_cache_hits,
            agg.probe_cache_hits,
            agg.artifact_cache_hits,
            agg.lp.solves,
            agg.lp.pivots,
        );
    }

    if !all_matched {
        eprintln!("FAIL: sessioned verdicts diverged from fresh verdicts");
        std::process::exit(1);
    }
}
