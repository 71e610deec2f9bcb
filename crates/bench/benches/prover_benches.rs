//! Micro-benchmarks (`cargo bench -p revterm-bench`): per-program runtime of
//! the prover's successful configurations (the timing shape discussed in
//! Section 6: RevTerm's successful configurations are cheap, single-shot
//! synthesis calls) and of the two structural building blocks, lowering and
//! reversal.
//!
//! No external benchmarking crate is available in this workspace, so this is
//! a plain `harness = false` binary that reports min/mean wall-clock times
//! over a fixed number of iterations.

use revterm::{ProverConfig, ProverSession};
use revterm_lang::parse_program;
use revterm_suite::{APERIODIC, RUNNING_EXAMPLE};
use revterm_ts::{lower, Assertion};
use std::time::{Duration, Instant};

fn time<R>(iters: usize, mut f: impl FnMut() -> R) -> (Duration, Duration) {
    let mut min = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        let elapsed = start.elapsed();
        total += elapsed;
        min = min.min(elapsed);
    }
    (min, total / iters as u32)
}

fn report(name: &str, iters: usize, (min, mean): (Duration, Duration)) {
    println!("{name:<40} min {min:>12.2?}   mean {mean:>12.2?}   ({iters} iters)");
}

fn main() {
    println!("== prove_non_termination (fresh prover per call) ==");
    for (name, src) in [
        ("fig1_running_example", RUNNING_EXAMPLE),
        ("fig3_aperiodic", APERIODIC),
        ("simple_counter_up", "while x >= 0 do x := x + 1; od"),
    ] {
        let ts = lower(&parse_program(src).unwrap()).unwrap();
        let stats = time(10, || {
            let result = ProverSession::new(ts.clone()).prove(&ProverConfig::default());
            assert!(result.is_non_terminating());
        });
        report(name, 10, stats);
    }

    println!("\n== prove_non_termination (shared session) ==");
    for (name, src) in [
        ("fig1_running_example", RUNNING_EXAMPLE),
        ("fig3_aperiodic", APERIODIC),
        ("simple_counter_up", "while x >= 0 do x := x + 1; od"),
    ] {
        let ts = lower(&parse_program(src).unwrap()).unwrap();
        let mut session = ProverSession::new(ts);
        let stats = time(10, || {
            let result = session.prove(&ProverConfig::default());
            assert!(result.is_non_terminating());
        });
        report(name, 10, stats);
    }

    println!("\n== structural ==");
    let program = parse_program(RUNNING_EXAMPLE).unwrap();
    report("lower_running_example", 100, time(100, || lower(&program).unwrap()));
    let ts = lower(&program).unwrap();
    report("reverse_running_example", 100, time(100, || ts.reverse(Assertion::tautology())));
}
