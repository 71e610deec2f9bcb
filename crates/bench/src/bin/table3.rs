//! Reproduces **Table 3** of the paper: the number of benchmarks proved
//! non-terminating per (check, synthesis-strategy) cell, where the synthesis
//! strategy is this reproduction's stand-in for the paper's SMT-solver axis.

use revterm::{CheckKind, Strategy};
use revterm_bench::*;
use revterm_suite::Expected;

fn main() {
    let suite: Vec<_> =
        table_suite().into_iter().filter(|b| b.expected == Expected::NonTerminating).collect();
    println!("Table 3 reproduction on {} non-terminating benchmarks", suite.len());

    // Run the full (reduced) grid without early stopping so that every cell
    // gets an outcome for every benchmark.
    let runs = run_revterm(&suite, &table_sweep_configs(), 0);

    let strategies = [Strategy::Houdini, Strategy::GuardPropagation];
    let checks = [CheckKind::Check1, CheckKind::Check2];

    println!("\n=== Table 3: solved benchmarks per configuration cell ===");
    print!("{:<12}", "");
    for s in &strategies {
        print!("{:>14}", s.to_string());
    }
    println!("{:>10}", "Total");
    for check in &checks {
        print!("{:<12}", check.to_string());
        for strategy in &strategies {
            let count = runs.iter().filter(|r| r.report.proved_with(*check, *strategy)).count();
            print!("{:>14}", count);
        }
        let total = runs
            .iter()
            .filter(|r| {
                r.report.outcomes.iter().any(|o| o.result.is_non_terminating() && o.check == *check)
            })
            .count();
        println!("{:>10}", total);
    }
    print!("{:<12}", "Total");
    for strategy in &strategies {
        let count = runs
            .iter()
            .filter(|r| {
                r.report
                    .outcomes
                    .iter()
                    .any(|o| o.result.is_non_terminating() && o.strategy == *strategy)
            })
            .count();
        print!("{:>14}", count);
    }
    let grand = runs.iter().filter(|r| r.report.proved()).count();
    println!("{:>10}", grand);
}
