//! The RevTerm benchmark.
//!
//! ```text
//! revbench --workload <fuzz_cold|suite_sweep|serve_deadline> --seed <n>
//!          --seconds <s> --trace <0|1> [--population <seed>]
//! ```
//!
//! Runs one workload in fresh child processes under a memory cap, in whole
//! rounds until `--seconds` of measuring time have passed, checks every
//! output, prints a report and,
//! as its last line, one JSON object with `correct`, `attempted`, `failed`
//! and the metrics: the end-to-end ones with `--trace 0`, the per-layer ones
//! and the tracing overhead with `--trace 1`.  See `README.md`.

mod child;
mod record;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use child::ChildArgs;
use report::{deterministic_counts, end_to_end, per_layer, result_json, Metric, TRACKED};
use run::{capped_child, collect, Collected, Limit};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;
use workload::Workload;

/// Where runs keep what later runs compare against, relative to the
/// directory the benchmark runs in.
const STATE_DIR: &str = ".revbench";

struct Options {
    workload: Workload,
    population: u64,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| values.get(key).copied().ok_or_else(|| format!("--{key} is required"));
    let workload = get("workload")?;
    let parse_seed = |text: &str| {
        match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        }
        .map_err(|_| format!("bad seed {text}"))
    };
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Options {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        population: values
            .get("population")
            .map_or(Ok(workload::BASELINE_POPULATION), |p| parse_seed(p))?,
        seed: parse_seed(get("seed")?)?,
        seconds,
        trace: match values.get("trace").copied().unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        let Some(child_args) = ChildArgs::from_args(&args[1..]) else {
            eprintln!("revbench: bad child arguments");
            std::process::exit(2);
        };
        std::process::exit(child::run(&child_args));
    }
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("revbench: {e}");
            eprintln!(
                "usage: revbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--population <seed>]\n(population default {:#x}; {:#x} is held out for checking claims)",
                Workload::ALL.map(Workload::name).join("|"),
                workload::BASELINE_POPULATION,
                workload::HELD_OUT_POPULATION
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(&options) {
        eprintln!("revbench: {e}");
        std::process::exit(1);
    }
}

fn bench(options: &Options) -> Result<(), String> {
    let base = ChildArgs {
        workload: options.workload,
        population: options.population,
        seed: options.seed,
        from: 0,
        window: Duration::ZERO,
        max_ops: None,
        trace: false,
    };
    let window = Duration::from_secs_f64(options.seconds);
    println!(
        "revbench {} seed {} population {:#x} ({} s{})",
        options.workload.name(),
        options.seed,
        options.population,
        options.seconds,
        if options.trace { ", traced replay" } else { "" }
    );
    if !options.trace {
        let run = collect(&base, Limit::Window(window), capped_child)?;
        let flagged = check_determinism(options, &run)?;
        let (metrics, tail) = end_to_end(options.workload, &run);
        print_metrics(&metrics);
        if let Some(t) = tail {
            println!("  latency_p95_s is the p{:.1} of {} samples", t.percentile, t.samples);
        }
        print_outcome(&run, flagged);
        let tracked: Vec<&Metric> =
            TRACKED.iter().filter_map(|&n| metrics.iter().find(|m| m.name == n)).collect();
        let correct = flagged == 0 && !run.ops.iter().any(run::Op::incorrect);
        println!("{}", result_json(correct, run.attempted(), run.failed(), &tracked));
    } else {
        // Untraced for half the time, then the same ops again, traced.
        let untraced = collect(&base, Limit::Window(window / 2), capped_child)?;
        let traced_base = ChildArgs { trace: true, ..base };
        let traced = collect(&traced_base, Limit::Ops(untraced.attempted()), capped_child)?;
        let flagged = check_determinism(options, &traced)?;
        let metrics = per_layer(&traced, untraced.busy_s());
        print_metrics(&metrics);
        print_outcome(&traced, flagged);
        write_trace(options, &traced)?;
        let all: Vec<&Metric> = metrics.iter().collect();
        let correct = flagged == 0 && !traced.ops.iter().any(run::Op::incorrect);
        println!("{}", result_json(correct, traced.attempted(), traced.failed(), &all));
    }
    Ok(())
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<30} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

fn print_outcome(run: &Collected, flagged: usize) {
    let counts = deterministic_counts(run).into_values().fold([0u64; 4], |mut acc, c| {
        acc.iter_mut().zip(c).for_each(|(a, c)| *a += c);
        acc
    });
    println!(
        "  counts: proved {} lp_solves {} lp_pivots {} entailment_calls {}",
        counts[0], counts[1], counts[2], counts[3]
    );
    println!("  attempted {} failed {}", run.attempted(), run.failed());
    for (program, left) in &run.aborts {
        println!("  child aborted in program #{program}: {left} unfinished ops count as failed");
    }
    if !run.aborts.is_empty() {
        println!(
            "  aborted ops ran {:.3} s before their children died",
            run.abort_time.as_secs_f64()
        );
    }
    let mut reasons: BTreeMap<&str, usize> = BTreeMap::new();
    for op in run.ops.iter().filter(|op| op.failed()) {
        *reasons.entry(if op.verdict() == "error" { "error" } else { &op.check }).or_default() += 1;
    }
    for (reason, n) in reasons {
        println!("  failed ops ({reason}): {n}");
    }
    if flagged > 0 {
        println!("  FLAG: {flagged} ops gave other counts than an earlier run of this seed");
    }
}

/// Compares the deterministic counts of `fuzz_cold` and `suite_sweep` ops
/// with those earlier runs of the same seed recorded, records the new
/// ones, and returns how many ops differ.
fn check_determinism(options: &Options, run: &Collected) -> Result<usize, String> {
    if options.workload == Workload::ServeDeadline {
        return Ok(0); // deadlines make its counts timing-dependent
    }
    let path = Path::new(STATE_DIR).join(format!(
        "counts-{}-{:x}-{}.txt",
        options.workload.name(),
        options.population,
        options.seed
    ));
    let mut known: BTreeMap<u64, [u64; 4]> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let v: Vec<u64> = line.split_whitespace().filter_map(|w| w.parse().ok()).collect();
            match v[..] {
                [i, a, b, c, d] => Some((i, [a, b, c, d])),
                _ => None,
            }
        })
        .collect();
    let mut flagged = 0;
    for (i, counts) in deterministic_counts(run) {
        match known.get(&i) {
            Some(earlier) if *earlier != counts => flagged += 1,
            Some(_) => {}
            None => {
                known.insert(i, counts);
            }
        }
    }
    let text: String =
        known.iter().map(|(i, [a, b, c, d])| format!("{i} {a} {b} {c} {d}\n")).collect();
    std::fs::create_dir_all(STATE_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(flagged)
}

/// Writes the traced run's spans, one per line, for inspection.
fn write_trace(options: &Options, run: &Collected) -> Result<(), String> {
    let path = Path::new(STATE_DIR).join(format!(
        "trace-{}-{}.txt",
        options.workload.name(),
        options.seed
    ));
    let text: String = run.spans.iter().map(|s| s.to_record().line() + "\n").collect();
    std::fs::create_dir_all(STATE_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  trace: {} spans in {}", run.spans.len(), path.display());
    Ok(())
}
