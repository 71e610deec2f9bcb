//! Turns what the children reported into named metrics with units.

use crate::run::{Collected, Op};
use crate::stats::{median, percentile, tail, Tail};
use crate::trace::self_times;
use crate::workload::{Workload, SERVE_DEADLINE_MS};
use std::collections::BTreeMap;

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics `BENCHMARK.json` tracks, in its order.
pub const TRACKED: [&str; 6] =
    ["setup_s", "ops_per_s", "latency_p50_s", "latency_p95_s", "proved_ratio", "peak_rss_mb"];

/// Every end-to-end metric of an untraced run, plus the tail it read.
pub fn end_to_end(workload: Workload, run: &Collected) -> (Vec<Metric>, Option<Tail>) {
    let attempted = run.attempted() as f64;
    let answered: Vec<&Op> = run.ops.iter().filter(|op| op.verdict() != "error").collect();
    let latencies: Vec<f64> = answered.iter().map(|op| op.latency_s()).collect();
    let tail = tail(&latencies);
    let count = |f: &dyn Fn(&Op) -> bool| run.ops.iter().filter(|op| f(op)).count() as f64;
    let proved = count(&|op| op.verdict() == "proved" && !op.failed());
    let timeouts = count(&|op| op.verdict() == "timeout");
    let mut metrics = vec![
        metric("setup_s", median(&run.setup_s).unwrap_or(0.0), "s"),
        metric("ops_per_s", ratio(answered.len() as f64, run.busy_s()), "1/s"),
        metric("latency_p50_s", median(&latencies).unwrap_or(0.0), "s"),
        metric("latency_p95_s", tail.map_or(0.0, |t| t.value), "s"),
        metric("proved_ratio", ratio(proved, attempted), "ratio"),
        metric("peak_rss_mb", run.peak_rss_kb as f64 / 1024.0, "MB"),
        metric("timeout_ratio", ratio(timeouts, attempted), "ratio"),
        metric("failed_ratio", ratio(run.failed() as f64, attempted), "ratio"),
    ];
    if workload == Workload::ServeDeadline {
        let limit = 1.1 * SERVE_DEADLINE_MS as f64 * 1e-3;
        let late = count(&|op| op.verdict() != "error" && op.latency_s() > limit);
        let missed = late + run.failed() as f64;
        metrics.push(metric("deadline_miss_ratio", ratio(missed, attempted), "ratio"));
    }
    (metrics, tail)
}

/// Sum of an op counter over the finished ops.
fn total(run: &Collected, key: &str) -> f64 {
    run.ops.iter().map(|op| op.record.u64(key) as f64).sum()
}

/// Span names reported as mean inclusive seconds per call.
const SPAN_METRICS: [(&str, &str); 6] = [
    ("lang.parse_s", "lang.parse"),
    ("ts.lower_s", "ts.lower"),
    ("core.prove_s", "core.prove"),
    ("core.check1_s", "core.check1"),
    ("core.check2_s", "core.check2"),
    ("core.validate_s", "core.validate"),
];

/// Layers whose self time is reported per op (`bench` is the benchmark's
/// own code around the calls).
const SELF_LAYERS: [(&str, &str); 5] = [
    ("self.bench_s", "bench"),
    ("self.lang_s", "lang"),
    ("self.ts_s", "ts"),
    ("self.core_s", "core"),
    ("self.serve_s", "serve"),
];

/// The per-layer metrics of a traced run; `untraced_busy_s` is the op
/// time of the untraced run of the same ops.
pub fn per_layer(traced: &Collected, untraced_busy_s: f64) -> Vec<Metric> {
    let ops = traced.ops.len() as f64; // finished ops: the ones with spans
    let mut inclusive: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut generate = Vec::new();
    for (span, self_ns) in traced.spans.iter().zip(self_times(&traced.spans)) {
        let (calls, secs) = inclusive.entry(span.name.as_str()).or_default();
        *calls += 1.0;
        *secs += span.duration_ns() as f64 * 1e-9;
        if span.name == "fuzzgen.generate" {
            generate.push(span.duration_ns() as f64 * 1e-9);
        } else {
            *by_layer.entry(span.layer()).or_default() += self_ns as f64 * 1e-9;
        }
    }
    let mut metrics: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(name, span)| {
            let (calls, secs) = inclusive.get(span).copied().unwrap_or_default();
            metric(name, ratio(secs, calls), "s/call")
        })
        .collect();
    metrics.extend(SELF_LAYERS.iter().map(|&(name, layer)| {
        metric(name, ratio(by_layer.get(layer).copied().unwrap_or(0.0), ops), "s/op")
    }));
    metrics.push(metric("fuzzgen.generate_s", median(&generate).unwrap_or(0.0), "s"));

    let served: Vec<&Op> =
        traced.ops.iter().filter(|op| !op.record.str("server_ns").is_empty()).collect();
    let server: Vec<f64> =
        served.iter().map(|op| op.record.u64("server_ns") as f64 * 1e-9).collect();
    let rtt: Vec<f64> = served.iter().map(|op| op.latency_s()).collect();
    let overhead: Vec<f64> = rtt.iter().zip(&server).map(|(r, s)| (r - s).max(0.0)).collect();
    let overshoot: Vec<f64> =
        served.iter().map(|op| op.record.u64("over_ns") as f64 * 1e-9).collect();
    metrics.extend([
        metric("serve.rtt_s", median(&rtt).unwrap_or(0.0), "s"),
        metric("serve.server_s", median(&server).unwrap_or(0.0), "s"),
        metric("serve.overhead_s", median(&overhead).unwrap_or(0.0), "s"),
        metric("serve.overshoot_s", percentile(&overshoot, 0.95).unwrap_or(0.0), "s"),
        metric(
            "serve.pool_hit_ratio",
            ratio(total(traced, "pool_hit"), served.len() as f64),
            "ratio",
        ),
    ]);

    let solves = total(traced, "lp_solves");
    let fast = total(traced, "fast");
    let probes = total(traced, "probe_hits") + total(traced, "probe_misses");
    let artifacts = total(traced, "art_hits") + total(traced, "art_misses");
    metrics.extend([
        metric("solver.lp_solves", ratio(solves, ops), "count/op"),
        metric("solver.lp_pivots", ratio(total(traced, "lp_pivots"), ops), "count/op"),
        metric("solver.pivots_per_solve", ratio(total(traced, "lp_pivots"), solves), "ratio"),
        metric("solver.entailment_calls", ratio(total(traced, "ent"), ops), "count/op"),
        metric(
            "solver.entailment_hit_ratio",
            ratio(total(traced, "ent_hits"), total(traced, "ent")),
            "ratio",
        ),
        metric(
            "solver.warm_hit_ratio",
            ratio(total(traced, "warm_hits"), total(traced, "warm_lookups")),
            "ratio",
        ),
        metric("absint.fast_paths", ratio(fast, ops), "count/op"),
        metric("absint.fast_path_ratio", ratio(fast, fast + solves), "ratio"),
        metric("absint.prunes", ratio(total(traced, "prunes"), ops), "count/op"),
        metric("core.probe_hit_ratio", ratio(total(traced, "probe_hits"), probes), "ratio"),
        metric("core.artifact_hit_ratio", ratio(total(traced, "art_hits"), artifacts), "ratio"),
        metric("core.candidates_tried", ratio(total(traced, "cands"), ops), "count/op"),
        metric("invgen.synthesis_calls", ratio(total(traced, "synth"), ops), "count/op"),
        metric("trace.overhead_ratio", ratio(traced.busy_s(), untraced_busy_s), "ratio"),
    ]);
    metrics
}

/// The deterministic counts of a run, by op index: proved, LP solves,
/// pivots and entailment calls.
pub fn deterministic_counts(run: &Collected) -> BTreeMap<u64, [u64; 4]> {
    run.ops
        .iter()
        .filter(|op| op.verdict() != "error")
        .map(|op| {
            let r = &op.record;
            let proved = u64::from(op.verdict() == "proved");
            (r.u64("i"), [proved, r.u64("lp_solves"), r.u64("lp_pivots"), r.u64("ent")])
        })
        .collect()
}

/// Renders the result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::trace::Span;

    fn op(i: u64, lat_ms: u64, res: &str, check: &str) -> Op {
        let record = Record::new("op")
            .with("i", i)
            .with("lat_ns", lat_ms * 1_000_000)
            .with("res", res)
            .with("lp_solves", 10)
            .with("lp_pivots", 40)
            .with("fast", 30);
        Op { record, check: check.to_string() }
    }

    #[test]
    fn end_to_end_counts_failures_against_attempts() {
        let mut run = Collected {
            setup_s: vec![0.3, 0.1, 0.2],
            ops: (0..20)
                .map(|i| op(i, 10 + i, if i % 2 == 0 { "proved" } else { "unknown" }, "ok"))
                .collect(),
            aborts: vec![(3, 4)],
            peak_rss_kb: 2048,
            ..Collected::default()
        };
        run.ops[0].check = "cert_rejected".into();
        let (metrics, tail) = end_to_end(Workload::SuiteSweep, &run);
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("proved_ratio"), 9.0 / 24.0);
        assert_eq!(get("failed_ratio"), 5.0 / 24.0);
        assert_eq!(get("peak_rss_mb"), 2.0);
        assert_eq!(tail.unwrap().samples, 20);
        assert!((get("latency_p95_s") - 0.019).abs() < 1e-12);
        assert!(metrics.iter().all(|m| m.name != "deadline_miss_ratio"));
        for name in TRACKED {
            assert!(metrics.iter().any(|m| m.name == name), "{name} missing");
        }
    }

    #[test]
    fn per_layer_uses_self_time_and_ratios() {
        let span = |id, parent, name: &str, start_ns, end_ns| Span {
            id,
            parent,
            op: 0,
            name: name.to_string(),
            start_ns,
            end_ns,
        };
        let traced = Collected {
            ops: vec![op(0, 1, "proved", "ok"), op(1, 1, "unknown", "ok")],
            spans: vec![
                span(0, None, "bench.op", 0, 1000),
                span(1, Some(0), "core.prove", 100, 900),
                span(2, Some(1), "core.check1", 100, 800),
            ],
            ..Collected::default()
        };
        let metrics = per_layer(&traced, 0.001);
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        let close =
            |n: &str, want: f64| assert!((get(n) - want).abs() < 1e-12 * want.max(1.0), "{n}");
        close("core.prove_s", 800e-9);
        close("self.core_s", 800e-9 / 2.0);
        close("self.bench_s", 200e-9 / 2.0);
        close("solver.pivots_per_solve", 4.0);
        close("absint.fast_path_ratio", 0.75);
        close("trace.overhead_ratio", 2.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let m = metric("setup_s", 0.25, "s");
        let line = result_json(true, 3, 1, &[&m]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
