//! Server metrics: per-operation counters, a latency histogram and the
//! aggregated per-stage prover statistics.
//!
//! The `metrics` wire operation serializes all of this (plus the pool
//! counters, which live in [`crate::pool`]) as one JSON object, so an
//! operator — or the CI smoke test — can see in a single request whether
//! the daemon is actually warm: pool hit counts, entailment-cache hit
//! counts, LP solves and pivots, abstract-interpretation fast paths, and
//! where the request latencies fall.

use crate::pool::PoolStats;
use revterm::api::json::Json;
use revterm::api::stats_to_json;
use revterm::ProveStats;
use std::time::Duration;

/// Upper bounds (microseconds) of the latency histogram buckets; the last
/// bucket is unbounded.  Chosen to straddle the interesting range: a warm
/// cache hit lands in the first buckets, a cold degree-1 prove in the
/// middle, a cold sweep at the top.
pub const LATENCY_BUCKETS_US: [u64; 8] =
    [100, 1_000, 10_000, 100_000, 500_000, 1_000_000, 5_000_000, 30_000_000];

/// Counters for one wire operation.
#[derive(Debug, Clone, Copy, Default)]
struct OpCounters {
    requests: u64,
    errors: u64,
    timeouts: u64,
}

/// All daemon metrics except the pool counters (which the server owns next
/// to the pool itself).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    ops: [OpCounters; Self::OPS.len()],
    /// Requests that failed before an operation was even identified
    /// (unparseable frame, version mismatch, unknown op).
    protocol_errors: u64,
    /// Prover counters accumulated over every prove/sweep outcome served.
    aggregate: ProveStats,
    /// Latency histogram over all requests, bucketed per
    /// [`LATENCY_BUCKETS_US`] (`counts[i]` = requests with latency ≤
    /// `LATENCY_BUCKETS_US[i]`, last slot = the rest).
    latency_counts: [u64; LATENCY_BUCKETS_US.len() + 1],
}

impl Metrics {
    /// The operation names, in the order the counter table uses.
    pub const OPS: [&'static str; 7] =
        ["parse", "prove", "sweep", "analyze", "stats", "metrics", "shutdown"];

    /// Records one served request: its operation (an [`Metrics::OPS`] name),
    /// latency, and whether it failed / reported a timeout verdict.
    pub fn record(&mut self, op: &str, latency: Duration, error: bool, timeout: bool) {
        if let Some(i) = Self::OPS.iter().position(|&name| name == op) {
            self.ops[i].requests += 1;
            self.ops[i].errors += u64::from(error);
            self.ops[i].timeouts += u64::from(timeout);
        } else {
            self.protocol_errors += 1;
        }
        let us = latency.as_micros() as u64;
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency_counts[bucket] += 1;
    }

    /// Folds the per-stage statistics of one served prover outcome into the
    /// running aggregate.
    pub fn record_prove_stats(&mut self, stats: &ProveStats) {
        self.aggregate.accumulate(stats);
    }

    /// Total requests recorded (including protocol failures).
    pub fn total_requests(&self) -> u64 {
        self.ops.iter().map(|op| op.requests).sum::<u64>() + self.protocol_errors
    }

    /// Serializes everything (plus the given pool counters and occupancy)
    /// for the `metrics` wire operation.
    pub fn to_json(&self, pool: &PoolStats, pool_occupancy: usize) -> Json {
        let ops = Self::OPS
            .iter()
            .zip(self.ops.iter())
            .map(|(name, c)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("requests", Json::from(c.requests)),
                        ("errors", Json::from(c.errors)),
                        ("timeouts", Json::from(c.timeouts)),
                    ]),
                )
            })
            .collect();
        let mut buckets: Vec<(String, Json)> = LATENCY_BUCKETS_US
            .iter()
            .enumerate()
            .map(|(i, bound)| (format!("le_{bound}us"), Json::from(self.latency_counts[i])))
            .collect();
        buckets
            .push(("inf".to_string(), Json::from(self.latency_counts[LATENCY_BUCKETS_US.len()])));
        Json::obj(vec![
            ("total_requests", Json::from(self.total_requests())),
            ("protocol_errors", Json::from(self.protocol_errors)),
            ("ops", Json::Obj(ops)),
            (
                "pool",
                Json::obj(vec![
                    ("occupancy", Json::from(pool_occupancy as u64)),
                    ("hits", Json::from(pool.hits)),
                    ("misses", Json::from(pool.misses)),
                    ("evictions", Json::from(pool.evictions)),
                ]),
            ),
            ("prover", stats_to_json(&self.aggregate)),
            ("latency_us", Json::Obj(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_in_the_right_places() {
        let mut m = Metrics::default();
        m.record("prove", Duration::from_micros(50), false, false);
        m.record("prove", Duration::from_millis(2), false, true);
        m.record("sweep", Duration::from_secs(60), true, false);
        m.record("not-an-op", Duration::from_micros(1), true, false);
        assert_eq!(m.total_requests(), 4);
        let stats = ProveStats { entailment_calls: 10, ..Default::default() };
        m.record_prove_stats(&stats);
        m.record_prove_stats(&stats);

        let json = m.to_json(&PoolStats { hits: 3, misses: 2, evictions: 1 }, 2);
        let text = json.to_string();
        let parsed = revterm::api::json::parse_json(&text).unwrap();
        let obj = parsed.as_obj_or("metrics").unwrap();
        assert_eq!(obj.u64_field("total_requests").unwrap(), 4);
        assert_eq!(obj.u64_field("protocol_errors").unwrap(), 1);
        let ops = obj.obj_field("ops").unwrap();
        let prove = ops.obj_field("prove").unwrap();
        assert_eq!(prove.u64_field("requests").unwrap(), 2);
        assert_eq!(prove.u64_field("timeouts").unwrap(), 1);
        assert_eq!(ops.obj_field("sweep").unwrap().u64_field("errors").unwrap(), 1);
        let pool = obj.obj_field("pool").unwrap();
        assert_eq!(pool.u64_field("occupancy").unwrap(), 2);
        assert_eq!(pool.u64_field("hits").unwrap(), 3);
        assert_eq!(obj.obj_field("prover").unwrap().u64_field("entailment_calls").unwrap(), 20);
        let latency = obj.obj_field("latency_us").unwrap();
        assert_eq!(latency.u64_field("le_100us").unwrap(), 2, "50us and 1us requests");
        assert_eq!(latency.u64_field("le_10000us").unwrap(), 1, "2ms request");
        assert_eq!(latency.u64_field("inf").unwrap(), 1, "60s request");
    }
}
