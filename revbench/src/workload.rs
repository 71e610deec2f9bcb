//! The three workloads and the inputs each makes from its seed.
//!
//! * `fuzz_cold` — the first [`FUZZ_PROGRAMS`] programs of a fuzz
//!   population in a seeded order; one op is one cold one-shot query
//!   (parse, lower, fresh session, `prove_first`).
//! * `suite_sweep` — the 38 curated programs in a seeded order; one op is
//!   one cell of the degree-1 grid on the program's warm session.
//! * `serve_deadline` — prove requests with a fixed deadline to an
//!   in-process daemon, in bursts of a fixed skew over
//!   [`SERVE_PROGRAMS`] programs of the same population, in a seeded
//!   rotation.
//!
//! The population is fixed by its own seed and the run seed only orders
//! it: a population drawn afresh per run would put a different share of
//! multi-second programs into each run, and at these run lengths its
//! figures would not repeat (see `README.md`).

use revterm::{Budget, ProverConfig};
use revterm_fuzzgen::{generate_batch, GenConfig, KnownLabel};
use revterm_solver::SplitMix64;
use revterm_suite::Expected;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FuzzCold,
    SuiteSweep,
    ServeDeadline,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::FuzzCold, Workload::SuiteSweep, Workload::ServeDeadline];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FuzzCold => "fuzz_cold",
            Workload::SuiteSweep => "suite_sweep",
            Workload::ServeDeadline => "serve_deadline",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Programs (stream positions) per round, a whole pass over the
    /// workload's inputs.  A run only stops at a round boundary, so every
    /// run measures whole rounds of the same ops.
    pub fn round(self) -> u64 {
        match self {
            Workload::FuzzCold => FUZZ_PROGRAMS as u64,
            Workload::SuiteSweep => revterm_suite::curated_benchmarks().len() as u64,
            Workload::ServeDeadline => (0..SERVE_PROGRAMS).map(burst).sum::<usize>() as u64,
        }
    }
}

/// The population seed the figures are baselined on.
pub const BASELINE_POPULATION: u64 = 0x5eed_f22d;
/// A population seed kept out of tuning, for checking later claims.
pub const HELD_OUT_POPULATION: u64 = 0x9822_0515_fdaa_d002;
/// `fuzz_cold` programs: population positions `0..FUZZ_PROGRAMS`.
pub const FUZZ_PROGRAMS: usize = 64;
/// Distinct programs behind the `serve_deadline` requests, population
/// positions `FUZZ_PROGRAMS + 24..FUZZ_PROGRAMS + 48`: three times the
/// daemon's default pool of 8, so checkouts both hit and miss.
pub const SERVE_PROGRAMS: usize = 24;
const SERVE_OFFSET: usize = FUZZ_PROGRAMS + 24;
/// The fixed per-request deadline of `serve_deadline`.
pub const SERVE_DEADLINE_MS: u64 = 1500;

/// What a program is known to do, when anything is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Terminating,
    NonTerminating,
    Unknown,
}

impl From<KnownLabel> for Label {
    fn from(label: KnownLabel) -> Label {
        match label {
            KnownLabel::Terminating => Label::Terminating,
            KnownLabel::NonTerminating => Label::NonTerminating,
            KnownLabel::Unknown => Label::Unknown,
        }
    }
}

impl From<Expected> for Label {
    fn from(expected: Expected) -> Label {
        match expected {
            Expected::Terminating => Label::Terminating,
            Expected::NonTerminating => Label::NonTerminating,
            Expected::Unknown => Label::Unknown,
        }
    }
}

/// One input program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub label: Label,
}

/// A proof is sound unless the program is known to terminate.
pub fn label_allows_proof(label: Label) -> bool {
    label != Label::Terminating
}

/// The fuzz portfolio both fuzz-based workloads send: the fuzzgen default
/// with its deterministic entailment cap but without its wall-clock limit,
/// so every verdict is machine-independent.
pub fn portfolio() -> Vec<ProverConfig> {
    revterm_fuzzgen::default_portfolio()
        .into_iter()
        .map(|mut config| {
            config.budget = Budget { time_limit: None, ..config.budget };
            config
        })
        .collect()
}

/// Population positions `range` of the fuzz stream `population`.
fn population_slice(population: u64, range: std::ops::Range<usize>) -> Vec<Program> {
    generate_batch(population, range.end, &GenConfig::default())
        .into_iter()
        .skip(range.start)
        .map(|g| Program {
            name: format!("fuzz-{:016x}", g.seed),
            source: g.source,
            label: g.label.into(),
        })
        .collect()
}

/// The `fuzz_cold` programs in the order seed `seed` gives them.
pub fn fuzz_programs(population: u64, seed: u64) -> Vec<Program> {
    let mut programs = population_slice(population, 0..FUZZ_PROGRAMS);
    SplitMix64::new(seed).shuffle(&mut programs);
    programs
}

/// The programs behind the `serve_deadline` requests.
pub fn serve_programs(population: u64) -> Vec<Program> {
    population_slice(population, SERVE_OFFSET..SERVE_OFFSET + SERVE_PROGRAMS)
}

/// The curated suite in a seeded order.
pub fn suite_programs(seed: u64) -> Vec<Program> {
    let mut programs: Vec<Program> = revterm_suite::curated_benchmarks()
        .into_iter()
        .map(|b| Program { name: b.name.to_string(), source: b.source, label: b.expected.into() })
        .collect();
    SplitMix64::new(seed).shuffle(&mut programs);
    programs
}

/// Requests per burst for the program at population rank `rank`: a burst
/// of 24 for rank 0, `24 / (rank + 1)` after that, at least one.
fn burst(rank: usize) -> usize {
    (24 / (rank + 1)).max(1)
}

/// One `serve_deadline` round: every program once, as a burst of
/// back-to-back requests (an editor or CI bot asking about one program
/// again and again), in population order rotated by the seed.
///
/// The burst lengths follow a fixed skew over the population order, so
/// every seed sends the same requests.  Between two bursts of one program
/// come all 23 others, which evicts it from the pool of 8: each burst
/// starts with a pool miss and goes on with hits, and every round repeats
/// the same hits and misses.  A rotation rather than a shuffle keeps the
/// same sessions side by side in the pool for every seed, which keeps
/// `peak_rss_mb` steady.
pub fn serve_requests(seed: u64) -> Vec<usize> {
    let start = SplitMix64::new(seed).next_below(SERVE_PROGRAMS as u64) as usize;
    (0..SERVE_PROGRAMS)
        .map(|k| (start + k) % SERVE_PROGRAMS)
        .flat_map(|p| std::iter::repeat_n(p, burst(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_request_stream_is_determined_by_the_seed() {
        let a = serve_requests(7);
        assert_eq!(a, serve_requests(7));
        assert!((0..20).any(|seed| serve_requests(seed) != a));
        assert_eq!(a.len() as u64, Workload::ServeDeadline.round());
        // Every seed sends the same requests, as bursts, with more
        // distinct programs than the pool holds.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut other = serve_requests(9);
        other.sort_unstable();
        assert_eq!(sorted, other);
        let bursts = 1 + a.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(bursts, SERVE_PROGRAMS);
        assert_eq!(a.iter().filter(|&&p| p == 0).count(), 24);
        assert_eq!(a.iter().filter(|&&p| p == SERVE_PROGRAMS - 1).count(), 1);
        assert_eq!(serve_programs(BASELINE_POPULATION).len(), SERVE_PROGRAMS);
    }

    #[test]
    fn fuzz_order_is_a_seeded_permutation_of_the_population() {
        let mut a = fuzz_programs(BASELINE_POPULATION, 1);
        assert_eq!(a, fuzz_programs(BASELINE_POPULATION, 1));
        let mut b = fuzz_programs(BASELINE_POPULATION, 2);
        assert_ne!(a, b);
        a.sort_by(|x, y| x.name.cmp(&y.name));
        b.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(a, b);
        assert_eq!(a.len(), FUZZ_PROGRAMS);
        let serve = serve_programs(BASELINE_POPULATION);
        assert!(serve.iter().all(|p| a.iter().all(|q| q.name != p.name)));
        assert_ne!(serve, serve_programs(HELD_OUT_POPULATION));
    }

    #[test]
    fn suite_order_is_a_seeded_permutation() {
        let a = suite_programs(1);
        assert_eq!(a, suite_programs(1));
        assert_ne!(a, suite_programs(2));
        assert_eq!(a.len(), 38);
        assert!(a.iter().any(|p| p.name == "nt_square_growth"));
    }

    #[test]
    fn portfolio_keeps_the_cap_and_drops_the_clock() {
        let configs = portfolio();
        assert_eq!(configs.len(), 2);
        for c in &configs {
            assert_eq!(c.budget.time_limit, None);
            assert_eq!(c.budget.max_entailment_calls, Some(800));
        }
    }
}
