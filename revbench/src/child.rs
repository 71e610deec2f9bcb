//! The measuring child: sets up one workload, runs its ops from a given
//! stream position until its window or op limit is used up, checks every
//! output outside the timed op, and streams records (see [`crate::record`]).
//!
//! The parent runs it under an address-space cap, so a runaway op aborts
//! this process only.

use crate::record::Record;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{
    fuzz_programs, label_allows_proof, portfolio, serve_programs, serve_requests, suite_programs,
    Program, Workload, SERVE_DEADLINE_MS,
};
use revterm::{
    degree1_sweep, outcome_digest, validate_certificate, CheckKind, ProofResult, ProveStats,
    ProverConfig, ProverSession,
};
use revterm_serve::{serve, Client, ServeConfig, ServerHandle};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per child and reported as the median.
pub const SETUP_REPEATS: usize = 15;

/// What the parent asks one child to do.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: Workload,
    /// Seed of the fuzz population the fuzz-based workloads draw from.
    pub population: u64,
    pub seed: u64,
    /// Stream position (program index) to start from.
    pub from: u64,
    /// Stop starting programs once this much measuring time has passed.
    pub window: Duration,
    /// Stop after this many ops (used by the traced replay).
    pub max_ops: Option<u64>,
    pub trace: bool,
}

impl ChildArgs {
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "child".to_string(),
            self.workload.name().to_string(),
            self.population.to_string(),
            self.seed.to_string(),
            self.from.to_string(),
            u64::try_from(self.window.as_millis()).unwrap_or(u64::MAX).to_string(),
            u8::from(self.trace).to_string(),
        ];
        if let Some(n) = self.max_ops {
            args.push(n.to_string());
        }
        args
    }

    pub fn from_args(args: &[String]) -> Option<ChildArgs> {
        let [workload, population, seed, from, window, trace, rest @ ..] = args else {
            return None;
        };
        Some(ChildArgs {
            workload: Workload::parse(workload)?,
            population: population.parse().ok()?,
            seed: seed.parse().ok()?,
            from: from.parse().ok()?,
            window: Duration::from_millis(window.parse().ok()?),
            trace: trace == "1",
            max_ops: match rest {
                [] => None,
                [n] => Some(n.parse().ok()?),
                _ => return None,
            },
        })
    }
}

fn emit(record: &Record) {
    println!("{}", record.line());
}

/// Writes out the spans recorded since the last flush.
fn flush_spans(tracer: &mut Tracer) {
    for span in tracer.drain() {
        emit(&span.to_record());
    }
}

/// Keeps the measuring window and the op budget.
struct Clock {
    start: Instant,
    window: Duration,
    ops_left: Option<u64>,
}

impl Clock {
    fn new(args: &ChildArgs) -> Clock {
        Clock { start: Instant::now(), window: args.window, ops_left: args.max_ops }
    }

    /// Whether to stop before stream position `index`: once the op budget
    /// is spent, or once the window is and `index` starts a round.
    fn expired(&self, index: u64, round: u64) -> bool {
        match self.ops_left {
            Some(left) => left == 0,
            None => index.is_multiple_of(round) && self.start.elapsed() >= self.window,
        }
    }

    /// The `end` record: measuring time and the peak RSS so far, read
    /// before any checks that run after the window.
    fn end(&self) -> Record {
        Record::new("end")
            .with("rss_kb", peak_rss_kb())
            .with("wall_ns", self.start.elapsed().as_nanos())
    }

    fn count_op(&mut self) {
        if let Some(n) = &mut self.ops_left {
            *n = n.saturating_sub(1);
        }
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, reports the median time and
/// returns the last result; each earlier result goes to `discard`, untimed.
fn repeated_setup<T>(
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(earlier) = last.take() {
            discard(earlier);
        }
        let t0 = Instant::now();
        last = Some(setup(tracer));
        times.push(t0.elapsed().as_secs_f64());
    }
    emit(&Record::new("setup").with("secs", median(&times).unwrap_or(0.0)));
    last.expect("SETUP_REPEATS is positive")
}

/// An op record carrying a prove call's counters.
fn op_record(index: u64, latency: Duration, verdict: &str, stats: &ProveStats) -> Record {
    Record::new("op")
        .with("i", index)
        .with("lat_ns", latency.as_nanos())
        .with("res", verdict)
        .with("cands", stats.candidates_tried)
        .with("synth", stats.synthesis_calls)
        .with("ent", stats.entailment_calls)
        .with("ent_hits", stats.entailment_cache_hits)
        .with("probe_hits", stats.probe_cache_hits)
        .with("probe_misses", stats.probe_cache_misses)
        .with("art_hits", stats.artifact_cache_hits)
        .with("art_misses", stats.artifact_cache_misses)
        .with("prunes", stats.absint_prunes)
        .with("lp_solves", stats.lp.solves)
        .with("lp_pivots", stats.lp.pivots)
        .with("warm_lookups", stats.lp.warm_lookups)
        .with("warm_hits", stats.lp.warm_hits)
        .with("fast", stats.lp.absint_fast_paths)
}

fn verdict_name(result: &ProofResult) -> &'static str {
    if result.is_non_terminating() {
        "proved"
    } else if result.timed_out() {
        "timeout"
    } else {
        "unknown"
    }
}

/// Checks a result against the program's label and re-validates its
/// certificate; `"ok"` or the reason it failed.
fn check_result(
    tracer: &mut Tracer,
    program: &Program,
    session: &ProverSession,
    configs: &[ProverConfig],
    result: &ProofResult,
) -> &'static str {
    let Some(cert) = result.certificate() else { return "ok" };
    if !label_allows_proof(program.label) {
        return "wrong_label";
    }
    let Some(config) = configs.iter().find(|c| c.label() == result.config_label) else {
        return "unknown_config";
    };
    let valid = tracer.span("core.validate", |_| {
        validate_certificate(session.ts(), cert, &config.entailment).is_ok()
    });
    if valid {
        "ok"
    } else {
        "cert_rejected"
    }
}

/// Announces the program at stream position `index` and its op count,
/// with the peak RSS so far (a child that dies later cannot report it).
fn begin(index: u64, ops: u64) -> Record {
    Record::new("begin").with("prog", index).with("ops", ops).with("rss_kb", peak_rss_kb())
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Runs the child and returns its exit code.
pub fn run(args: &ChildArgs) -> i32 {
    let mut tracer = Tracer::new(args.trace);
    let end = match args.workload {
        Workload::FuzzCold => fuzz_cold(args, &mut tracer),
        Workload::SuiteSweep => suite_sweep(args, &mut tracer),
        Workload::ServeDeadline => serve_deadline(args, &mut tracer),
    };
    let end = match end {
        Ok(end) => end,
        Err(e) => {
            eprintln!("revbench child: {e}");
            return 1;
        }
    };
    flush_spans(&mut tracer);
    emit(&end);
    0
}

fn fuzz_cold(args: &ChildArgs, tracer: &mut Tracer) -> Result<Record, String> {
    let programs = repeated_setup(
        tracer,
        |t| t.span("fuzzgen.generate", |_| fuzz_programs(args.population, args.seed)),
        drop,
    );
    let configs = portfolio();
    let mut clock = Clock::new(args);
    for index in args.from.. {
        flush_spans(tracer);
        if clock.expired(index, args.workload.round()) {
            break;
        }
        let program = &programs[index as usize % programs.len()];
        emit(&begin(index, 1));
        tracer.set_op(index);
        let t0 = Instant::now();
        let outcome = tracer.span("bench.op", |t| {
            let parsed = t.span("lang.parse", |_| revterm_lang::parse_program(&program.source))?;
            let ts =
                t.span("ts.lower", |_| revterm_ts::lower(&parsed)).map_err(|e| e.to_string())?;
            let mut session = ProverSession::new(ts);
            let result = t.span("core.prove", |_| session.prove_first(&configs));
            Ok::<_, String>((session, result))
        });
        let latency = t0.elapsed();
        clock.count_op();
        let record = match outcome {
            Ok((session, result)) => {
                let check = tracer
                    .span("bench.check", |t| check_result(t, program, &session, &configs, &result));
                op_record(index, latency, verdict_name(&result), &result.stats).with("check", check)
            }
            Err(_) => {
                Record::new("op").with("i", index).with("res", "error").with("check", "parse")
            }
        };
        emit(&record);
    }
    Ok(clock.end())
}

fn suite_sweep(args: &ChildArgs, tracer: &mut Tracer) -> Result<Record, String> {
    let systems = repeated_setup(
        tracer,
        |t| {
            suite_programs(args.seed)
                .into_iter()
                .map(|program| {
                    let parsed = t
                        .span("lang.parse", |_| revterm_lang::parse_program(&program.source))
                        .map_err(|e| format!("{}: {e}", program.name))?;
                    let ts = t
                        .span("ts.lower", |_| revterm_ts::lower(&parsed))
                        .map_err(|e| format!("{}: {e}", program.name))?;
                    Ok((program, ts))
                })
                .collect::<Result<Vec<_>, String>>()
        },
        drop,
    )?;
    let grid = degree1_sweep();
    let cells = grid.len() as u64;
    let mut clock = Clock::new(args);
    'programs: for index in args.from.. {
        flush_spans(tracer);
        if clock.expired(index, args.workload.round()) {
            break;
        }
        let (program, ts) = &systems[index as usize % systems.len()];
        emit(&begin(index, cells));
        let mut session = ProverSession::new(ts.clone());
        for (cell, config) in (0..).zip(&grid) {
            if clock.ops_left == Some(0) {
                break 'programs;
            }
            let op = index * cells + cell;
            tracer.set_op(op);
            let check_span = match config.check {
                CheckKind::Check1 => "core.check1",
                CheckKind::Check2 => "core.check2",
            };
            let t0 = Instant::now();
            let result = tracer.span("bench.op", |t| {
                t.span("core.prove", |t| t.span(check_span, |_| session.prove(config)))
            });
            let latency = t0.elapsed();
            clock.count_op();
            let check = tracer.span("bench.check", |t| {
                check_result(t, program, &session, std::slice::from_ref(config), &result)
            });
            emit(
                &op_record(op, latency, verdict_name(&result), &result.stats).with("check", check),
            );
        }
    }
    Ok(clock.end())
}

struct Daemon {
    handle: ServerHandle,
    client: Client,
}

impl Daemon {
    fn boot() -> Result<Daemon, String> {
        let handle = serve(&ServeConfig::default()).map_err(|e| e.to_string())?;
        let client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
        Ok(Daemon { handle, client })
    }

    fn stop(self) {
        drop(self.client);
        self.handle.shutdown();
        self.handle.join();
    }
}

fn serve_deadline(args: &ChildArgs, tracer: &mut Tracer) -> Result<Record, String> {
    let (programs, requests, daemon) = repeated_setup(
        tracer,
        |t| {
            let programs = t.span("fuzzgen.generate", |_| serve_programs(args.population));
            let daemon = t.span("serve.boot", |_| Daemon::boot());
            (programs, serve_requests(args.seed), daemon)
        },
        |(_, _, daemon)| daemon.map_or((), Daemon::stop),
    );
    let mut daemon = daemon?;
    let configs = portfolio();
    let deadline = Duration::from_millis(SERVE_DEADLINE_MS);
    let mut clock = Clock::new(args);
    // (op index, program, digest) of every response that did not time out.
    let mut to_verify = Vec::new();
    for index in args.from.. {
        flush_spans(tracer);
        if clock.expired(index, args.workload.round()) {
            break;
        }
        let program_index = requests[index as usize % requests.len()];
        let program = &programs[program_index];
        emit(&begin(index, 1));
        tracer.set_op(index);
        let t0 = Instant::now();
        let response = tracer.span("bench.op", |t| {
            t.span("serve.rtt", |_| {
                daemon.client.prove(&program.source, configs.clone(), Some(SERVE_DEADLINE_MS))
            })
        });
        let latency = t0.elapsed();
        clock.count_op();
        let record = match response {
            Ok((outcome, pool_hit)) => {
                let verdict = if outcome.is_non_terminating() {
                    "proved"
                } else if outcome.is_timeout() {
                    "timeout"
                } else {
                    "unknown"
                };
                if verdict != "timeout" {
                    to_verify.push((index, program_index, outcome.digest));
                }
                let check = if outcome.is_non_terminating() && !label_allows_proof(program.label) {
                    "wrong_label"
                } else {
                    "ok"
                };
                op_record(index, latency, verdict, &outcome.stats)
                    .with("check", check)
                    .with("server_ns", outcome.elapsed_us * 1000)
                    .with("pool_hit", u8::from(pool_hit))
                    .with("program", program_index)
                    .with("over_ns", latency.saturating_sub(deadline).as_nanos())
            }
            Err(e) => {
                eprintln!("revbench child: request {index} failed: {e}");
                daemon.stop();
                daemon = Daemon::boot()?;
                Record::new("op").with("i", index).with("res", "error").with("check", "transport")
            }
        };
        emit(&record);
    }
    let end = clock.end();
    daemon.stop();
    verify_digests(tracer, &programs, &configs, &to_verify);
    Ok(end)
}

/// Compares each daemon digest with the in-process digest of the same
/// request without a deadline, and re-validates the in-process certificate;
/// skips programs whose in-process run hit the entailment cap.
fn verify_digests(
    tracer: &mut Tracer,
    programs: &[Program],
    configs: &[ProverConfig],
    responses: &[(u64, usize, u64)],
) {
    let mut reference: HashMap<usize, Option<(u64, &'static str)>> = HashMap::new();
    for &(index, program_index, digest) in responses {
        tracer.set_op(index);
        let expected = *reference.entry(program_index).or_insert_with(|| {
            tracer.span("bench.check", |t| {
                let program = &programs[program_index];
                let mut session = ProverSession::from_source(&program.source).ok()?;
                let result = session.prove_first(configs);
                if result.timed_out() {
                    return None;
                }
                let check = check_result(t, program, &session, configs, &result);
                Some((outcome_digest(&result, session.ts()), check))
            })
        });
        let verdict = match expected {
            None => "skipped",
            Some((_, check)) if check != "ok" => check,
            Some((want, _)) if want != digest => "digest_mismatch",
            Some(_) => "ok",
        };
        emit(&Record::new("verify").with("i", index).with("check", verdict));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_args_round_trip() {
        let args = ChildArgs {
            workload: Workload::SuiteSweep,
            population: 3,
            seed: u64::MAX,
            from: 17,
            window: Duration::from_millis(1500),
            max_ops: Some(9),
            trace: true,
        };
        let back = ChildArgs::from_args(&args.to_args()[1..]).unwrap();
        assert_eq!(back.to_args(), args.to_args());
        let replay = ChildArgs { window: Duration::MAX, ..args.clone() };
        assert!(ChildArgs::from_args(&replay.to_args()[1..]).is_some());
        let untraced = ChildArgs { max_ops: None, trace: false, ..args };
        let back = ChildArgs::from_args(&untraced.to_args()[1..]).unwrap();
        assert_eq!((back.max_ops, back.trace), (None, false));
    }

    #[test]
    fn every_suite_program_has_the_full_grid() {
        assert_eq!(degree1_sweep().len(), 24);
        assert!(crate::workload::SERVE_PROGRAMS > ServeConfig::default().pool_capacity);
    }
}
