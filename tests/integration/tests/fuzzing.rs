//! The always-on fuzzing gates: corpus replay, printer/parser round trip,
//! deadline behaviour on generated programs, the injected-flip demo that
//! proves the differential harness catches a lying prover end to end, and
//! the LP-level check's sampling and fault detection.

use revterm::{outcome_digest, ProverSession};
use revterm_fuzzgen::{
    default_portfolio, differential, generate_batch, load_dir, lp_differential, sample_lps, shrink,
    DiffOptions, FailureKind, GenConfig,
};
use revterm_lang::{parse_program, pretty_print};
use revterm_solver::{LpProblem, LpResult};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../fuzz_regressions")
}

/// Every checked-in repro file must load, and replaying it through the full
/// four-oracle differential harness must pass — a corpus entry that fails
/// again means a regression of the bug (or slowdown) it pins.
#[test]
fn regression_corpus_replays_clean() {
    let cases = load_dir(&corpus_dir())
        .unwrap_or_else(|(file, e)| panic!("corpus file {file} failed to load: {e}"));
    assert!(cases.len() >= 8, "corpus unexpectedly small: {} files", cases.len());
    let opts = DiffOptions::default();
    for case in cases {
        let report = differential(&case.program, case.label, &opts)
            .unwrap_or_else(|e| panic!("{}: program rejected: {e}", case.name));
        assert!(report.passed(), "{}: corpus replay failed: {:?}", case.name, report.failures);
    }
}

/// Generated programs are canonical by construction, so the printer and the
/// parser must be exact inverses on them: `parse(pretty_print(p)) == p`.
#[test]
fn pretty_print_reparse_round_trip_on_generated_programs() {
    let batch = generate_batch(0x0c0f_fee5, 200, &GenConfig::default());
    for g in &batch {
        let printed = pretty_print(&g.program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("seed {:016x}: reprint did not parse: {e}", g.seed));
        assert_eq!(reparsed, g.program, "seed {:016x}: round trip changed the program", g.seed);
    }
}

/// An already-expired deadline must surface as a structured `Timeout` —
/// never a panic, never a bogus verdict — and must not poison the session:
/// the same session must afterwards produce the verdict a fresh one does.
#[test]
fn expired_deadline_is_structured_timeout_and_does_not_poison_session() {
    let portfolio = default_portfolio();
    for g in generate_batch(0xdead_11fe, 10, &GenConfig::default()) {
        let ts = revterm_ts::lower(&g.program).expect("generated programs lower");
        let mut session = ProverSession::new(ts.clone());
        let cut = session.sweep(&portfolio, 1, Some(Instant::now())).into_result();
        assert!(cut.timed_out(), "seed {:016x}: 0-ms deadline must time out", g.seed);
        assert!(cut.certificate().is_none());

        let warm = session.prove_first(&portfolio);
        let fresh = ProverSession::new(ts.clone()).prove_first(&portfolio);
        assert_eq!(
            outcome_digest(&warm, &ts),
            outcome_digest(&fresh, &ts),
            "seed {:016x}: session poisoned by the timed-out run",
            g.seed
        );
    }
}

/// A deadline that expires *mid-run* (the prover takes well over a
/// millisecond on this nested program) is also a structured `Timeout`, and
/// the budget cut must not leak a truncated synthesis into the caches.
#[test]
fn midrun_deadline_is_structured_timeout_and_does_not_poison_session() {
    let case = load_dir(&corpus_dir())
        .expect("corpus loads")
        .into_iter()
        .find(|c| c.name == "pump-equality-nested-sink")
        .expect("pinned heavy program present");
    let ts = revterm_ts::lower(&case.program).expect("corpus programs lower");
    let portfolio = default_portfolio();
    let mut session = ProverSession::new(ts.clone());
    let deadline = Instant::now() + Duration::from_millis(1);
    let cut = session.sweep(&portfolio, 1, Some(deadline)).into_result();
    assert!(cut.timed_out(), "1-ms deadline must cut this program mid-run");

    let warm = session.prove_first(&portfolio);
    let fresh = ProverSession::new(ts.clone()).prove_first(&portfolio);
    assert!(warm.is_non_terminating(), "prover should still prove the pinned program");
    assert_eq!(
        outcome_digest(&warm, &ts),
        outcome_digest(&fresh, &ts),
        "session poisoned by the mid-run timeout"
    );
}

/// The harness demo required by the issue: inject a verdict flip, watch the
/// oracles catch it, and shrink the failure to a trivial repro (≤ 5
/// transitions) with the built-in shrinker.
#[test]
fn injected_verdict_flip_is_caught_and_shrinks_to_tiny_repro() {
    let program = parse_program("n := 3; while n >= 0 do n := n - 1; od").unwrap();
    let opts = DiffOptions { inject_flip: true, ..DiffOptions::default() };
    let label = revterm_fuzzgen::KnownLabel::Terminating;

    let report = differential(&program, label, &opts).unwrap();
    assert!(
        report.failures.iter().any(|f| f.kind == FailureKind::VerdictMismatch),
        "flip must surface as a verdict mismatch: {:?}",
        report.failures
    );

    let small = shrink(&program, 200, |p| {
        differential(p, label, &opts)
            .is_ok_and(|r| r.failures.iter().any(|f| f.kind == FailureKind::VerdictMismatch))
    });
    let small_ts = revterm_ts::lower(&small).expect("shrunk program lowers");
    assert!(
        small_ts.transitions().len() <= 5,
        "shrinker should minimize the flip repro to <= 5 transitions, got {}:\n{}",
        small_ts.transitions().len(),
        pretty_print(&small)
    );
    // The shrunk program still reproduces, so it would land in the corpus.
    let re = differential(&small, label, &opts).unwrap();
    assert!(re.failures.iter().any(|f| f.kind == FailureKind::VerdictMismatch));
}

/// The LP-level check (oracle 4) on a corpus program: it samples a non-empty
/// set of the run's multiplier LPs, picks the same sample on a second run,
/// finds no divergence against the dense reference, and reports exactly the
/// LP whose reference answer is injected wrong.
#[test]
fn lp_level_check_samples_deterministically_and_catches_a_wrong_answer() {
    let case = load_dir(&corpus_dir())
        .expect("corpus loads")
        .into_iter()
        .find(|c| c.name == "counter-up-basic")
        .expect("pinned program present");
    let ts = revterm_ts::lower(&case.program).expect("corpus programs lower");
    let sample = || {
        let mut session = ProverSession::new(ts.clone());
        session.prove_first(&default_portfolio());
        sample_lps(&session)
    };
    let lps = sample();
    assert!(!lps.is_empty(), "the primary run issued no sampled LPs");
    assert_eq!(format!("{lps:?}"), format!("{:?}", sample()), "sample differs between runs");
    assert!(lp_differential(&lps, LpProblem::solve_dense).is_empty());

    let report = differential(&case.program, case.label, &DiffOptions::default()).unwrap();
    assert_eq!(report.lps_checked, lps.len());
    assert!(report.passed(), "{:?}", report.failures);

    // Fault injection: the reference flips its answer on one LP.
    let victim = lps.len() / 2;
    let lying_reference = |lp: &LpProblem| {
        let honest = lp.solve_dense();
        if !std::ptr::eq(lp, &lps[victim]) {
            return honest;
        }
        match honest {
            LpResult::Optimal(_) => LpResult::Infeasible,
            _ => LpResult::Optimal(Default::default()),
        }
    };
    let failures = lp_differential(&lps, lying_reference);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert_eq!(failures[0].kind, FailureKind::DigestDivergence);
    assert!(failures[0].detail.contains(&format!("#{victim} ")), "{}", failures[0].detail);
}
