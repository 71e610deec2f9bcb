//! Reproduces **Table 4** (Appendix B) of the paper: cumulative numbers of
//! benchmarks proved non-terminating by configurations with template size at
//! most `(c, d)` and degree at most `D`.

use revterm_bench::*;
use revterm_suite::Expected;

fn main() {
    let suite: Vec<_> =
        table_suite().into_iter().filter(|b| b.expected == Expected::NonTerminating).collect();
    println!("Table 4 reproduction on {} non-terminating benchmarks", suite.len());

    let runs = run_revterm(&suite, &table_sweep_configs(), 0);

    // The reduced grid uses c in {1,2,3}, d in {1,2}, D in {1,2}; report the
    // cumulative counts over that grid (the paper's D axis is folded in by
    // taking D <= 2 everywhere, as its own Table 4 does for the saturated
    // cells).
    let cs = [1usize, 2, 3];
    let ds = [1usize, 2];
    println!("\n=== Table 4: cumulative solved benchmarks for template bounds ===");
    print!("{:<8}", "");
    for d in &ds {
        print!("{:>10}", format!("d<={d}"));
    }
    println!();
    for c in &cs {
        print!("{:<8}", format!("c<={c}"));
        for d in &ds {
            let count = runs.iter().filter(|r| r.report.proved_within(*c, *d, 2)).count();
            print!("{:>10}", count);
        }
        println!();
    }
}
