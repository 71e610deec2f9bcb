//! The parent side of a run: starts measuring children under a memory cap,
//! reads their records, and accounts for children that die.
//!
//! When a child dies (the address-space cap turns a runaway allocation into
//! an abort), the op in flight and the ops its program had not reached yet
//! count as failed, and a fresh child continues with the next program.

use crate::child::ChildArgs;
use crate::record::Record;
use crate::trace::Span;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Address-space cap of a measuring child, in KiB (1 GiB, some 30 times
/// the children's peak RSS).
pub const CHILD_MEMORY_KB: u64 = 1024 * 1024;

/// One finished op as the child reported it, with its checks applied.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub record: Record,
    /// `"ok"` or why the op's output was rejected.
    pub check: String,
}

impl Op {
    pub fn latency_s(&self) -> f64 {
        self.record.u64("lat_ns") as f64 * 1e-9
    }

    pub fn verdict(&self) -> &str {
        self.record.str("res")
    }

    pub fn failed(&self) -> bool {
        self.verdict() == "error" || !matches!(self.check.as_str(), "ok" | "skipped")
    }

    /// A wrong answer, as opposed to an op that could not finish.
    pub fn incorrect(&self) -> bool {
        matches!(
            self.check.as_str(),
            "wrong_label" | "cert_rejected" | "digest_mismatch" | "unknown_config"
        )
    }
}

/// Everything the children of one run reported.
#[derive(Debug, Default)]
pub struct Collected {
    pub setup_s: Vec<f64>,
    pub ops: Vec<Op>,
    /// `(program index, unfinished ops)` per aborted child; the unfinished
    /// ops are the one in flight and those its program had not reached.
    pub aborts: Vec<(u64, u64)>,
    /// Time from an aborted child's last record to its death.
    pub abort_time: Duration,
    pub spans: Vec<Span>,
    pub peak_rss_kb: u64,
}

impl Collected {
    pub fn unfinished(&self) -> u64 {
        self.aborts.iter().map(|&(_, left)| left).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64 + self.unfinished()
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|op| op.failed()).count() as u64 + self.unfinished()
    }

    /// Op time: the finished ops' latencies.  The time aborted ops ran is
    /// left out: it is set by the memory cap rather than by the prover.
    pub fn busy_s(&self) -> f64 {
        self.ops.iter().map(Op::latency_s).sum()
    }
}

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Window(Duration),
    Ops(u64),
}

/// The command that runs one child under the memory cap.
pub fn capped_child(args: &ChildArgs) -> std::io::Result<Command> {
    let exe = std::env::current_exe()?;
    let mut command = Command::new("sh");
    command
        .arg("-c")
        .arg(format!("ulimit -v {CHILD_MEMORY_KB} && exec \"$0\" \"$@\""))
        .arg(exe)
        .args(args.to_args());
    Ok(command)
}

/// Runs children built by `command` until the limit is used up, starting a
/// new child after each one that dies.
pub fn collect(
    base: &ChildArgs,
    limit: Limit,
    command: impl Fn(&ChildArgs) -> std::io::Result<Command>,
) -> Result<Collected, String> {
    let mut out = Collected::default();
    let mut from = 0;
    let mut measured = Duration::ZERO;
    loop {
        let args = match limit {
            Limit::Window(window) => ChildArgs {
                from,
                window: window.saturating_sub(measured),
                max_ops: None,
                ..base.clone()
            },
            Limit::Ops(n) => ChildArgs {
                from,
                window: Duration::MAX,
                max_ops: Some(n.saturating_sub(out.attempted())),
                ..base.clone()
            },
        };
        let mut child = command(&args)
            .map_err(|e| format!("cannot build child command: {e}"))?
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut in_flight: Option<(u64, u64)> = None; // (program, ops left)
        let mut measure_start = None;
        let mut last_record = Instant::now();
        let mut ended = false;
        let span_base = out.spans.len() as u64;
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading child output: {e}"))?;
            let Some(record) = Record::parse(&line) else { continue };
            last_record = Instant::now();
            match record.kind.as_str() {
                "setup" => {
                    out.setup_s.push(record.f64("secs"));
                    measure_start = Some(last_record);
                }
                "begin" => {
                    out.peak_rss_kb = out.peak_rss_kb.max(record.u64("rss_kb"));
                    in_flight = Some((record.u64("prog"), record.u64("ops")));
                }
                "op" => {
                    if let Some((_, left)) = &mut in_flight {
                        *left = left.saturating_sub(1);
                    }
                    let check = record.str("check").to_string();
                    out.ops.push(Op { record, check });
                }
                "verify" => {
                    let index = record.u64("i");
                    if let Some(op) =
                        out.ops.iter_mut().rev().find(|op| op.record.u64("i") == index)
                    {
                        if op.check == "ok" {
                            op.check = record.str("check").to_string();
                        }
                    }
                }
                "span" => {
                    let mut span = Span::from_record(&record);
                    span.id += span_base;
                    span.parent = span.parent.map(|p| p + span_base);
                    out.spans.push(span);
                }
                "end" => {
                    out.peak_rss_kb = out.peak_rss_kb.max(record.u64("rss_kb"));
                    measured += Duration::from_nanos(record.u64("wall_ns"));
                    ended = true;
                }
                _ => {}
            }
        }
        let status = child.wait().map_err(|e| format!("waiting for child: {e}"))?;
        if status.success() && ended {
            return Ok(out);
        }
        let Some((program, left)) = in_flight.filter(|&(_, left)| left > 0) else {
            return Err(format!("child died outside any op ({status})"));
        };
        let died = Instant::now();
        out.aborts.push((program, left));
        out.abort_time += died - last_record;
        measured += died - measure_start.unwrap_or(died);
        from = program + 1;
        let done = match limit {
            Limit::Window(window) => {
                measured >= window && from.is_multiple_of(base.workload.round())
            }
            Limit::Ops(n) => out.attempted() >= n,
        };
        if done {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn base() -> ChildArgs {
        ChildArgs {
            workload: Workload::SuiteSweep,
            population: 0,
            seed: 1,
            from: 0,
            window: Duration::ZERO,
            max_ops: None,
            trace: false,
        }
    }

    /// A stand-in child: program `p` has three ops; the child started at
    /// program 0 finishes program 0, then aborts after one op of program 1;
    /// the next child runs programs 2 and 3 and ends normally.
    fn fake_child(args: &ChildArgs) -> std::io::Result<Command> {
        let script = match args.from {
            0 => {
                "echo setup secs=0.5; \
                  echo begin prog=0 ops=3; echo op i=0 lat_ns=1000 res=proved check=ok; \
                  echo op i=1 lat_ns=1000 res=unknown check=ok; \
                  echo op i=2 lat_ns=1000 res=unknown check=ok; \
                  echo begin prog=1 ops=3; echo op i=3 lat_ns=1000 res=proved check=ok; \
                  kill -ABRT $$"
            }
            2 => {
                "echo setup secs=0.25; \
                  echo begin prog=2 ops=3; echo op i=6 lat_ns=1000 res=proved check=ok; \
                  echo op i=7 lat_ns=1000 res=proved check=wrong_label; \
                  echo op i=8 lat_ns=1000 res=error check=transport; \
                  echo end rss_kb=2048 wall_ns=5000"
            }
            _ => "exit 3",
        };
        let mut command = Command::new("sh");
        command.arg("-c").arg(script);
        Ok(command)
    }

    #[test]
    fn an_aborted_child_fails_its_unfinished_ops_and_the_run_goes_on() {
        let window = Limit::Window(Duration::from_secs(3600));
        let out = collect(&base(), window, fake_child).unwrap();
        assert_eq!(out.aborts, vec![(1, 2)]);
        assert_eq!(out.ops.len(), 7);
        assert_eq!(out.unfinished(), 2);
        assert_eq!(out.attempted(), 9);
        // Two unfinished ops, one wrong answer, one transport error.
        assert_eq!(out.failed(), 4);
        assert_eq!(out.ops.iter().filter(|op| op.incorrect()).count(), 1);
        assert_eq!(out.setup_s, vec![0.5, 0.25]);
        assert_eq!(out.peak_rss_kb, 2048);
    }

    #[test]
    fn a_child_that_dies_in_setup_is_an_error() {
        let dies = |_: &ChildArgs| {
            let mut command = Command::new("sh");
            command.arg("-c").arg("echo setup secs=1; kill -ABRT $$");
            Ok(command)
        };
        assert!(collect(&base(), Limit::Ops(5), dies).is_err());
    }

    #[test]
    fn the_memory_cap_stops_a_runaway_allocation() {
        let runaway = |_: &ChildArgs| {
            let mut command = Command::new("sh");
            let cap = format!("ulimit -v {}", 64 * 1024);
            command.arg("-c").arg(format!(
                "{cap} && echo setup secs=0 && echo begin prog=0 ops=4 && \
                 exec sh -c 'x=a; while :; do x=$x$x; done'"
            ));
            Ok(command)
        };
        let out = collect(&base(), Limit::Ops(4), runaway).unwrap();
        assert_eq!((out.unfinished(), out.failed()), (4, 4));
    }
}
