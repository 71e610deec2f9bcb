//! Candidate atom pools for invariant templates.

use revterm_num::{Int, Rat};
use revterm_poly::{Poly, Var};
use revterm_ts::interp::Valuation;
use revterm_ts::{Loc, TransitionSystem};
use std::collections::BTreeMap;

/// Template parameters of the paper's Algorithm 1: the type `(c, d)` of the
/// propositional predicate maps and the maximal polynomial degree `D`.
///
/// In this reproduction the parameters bound the *richness of the candidate
/// atom pool* that the guess-and-check synthesis explores:
///
/// * `c = 1` — interval atoms (`±x − k ≥ 0`);
/// * `c ≥ 2` — adds octagon atoms (`±x ± y − k ≥ 0`);
/// * `c ≥ 3` — adds guard-derived atoms (the atoms of the transition guards
///   and their negation boundaries);
/// * `degree ≥ 2` — adds simple quadratic atoms (`±x² − k ≥ 0`, `x·y − k ≥ 0`);
/// * `d` — maximal number of disjuncts a synthesized predicate may have
///   (disjunctive synthesis splits sample sets into at most `d` groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TemplateParams {
    /// Maximal number of conjuncts per disjunct (richness of the atom pool).
    pub c: usize,
    /// Maximal number of disjuncts.
    pub d: usize,
    /// Maximal polynomial degree of a template atom.
    pub degree: u32,
}

impl Default for TemplateParams {
    fn default() -> Self {
        TemplateParams { c: 2, d: 1, degree: 1 }
    }
}

impl TemplateParams {
    /// Creates template parameters.
    pub fn new(c: usize, d: usize, degree: u32) -> TemplateParams {
        TemplateParams { c, d, degree }
    }
}

/// Sample valuations per location, used to pre-filter candidate atoms: any
/// valuation known (by concrete execution) to be contained in the set the
/// invariant must over-approximate immediately falsifies candidate atoms it
/// violates.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: BTreeMap<Loc, Vec<Valuation>>,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> SampleSet {
        SampleSet::default()
    }

    /// Adds a sample valuation at a location.
    pub fn add(&mut self, loc: Loc, vals: Valuation) {
        self.samples.entry(loc).or_default().push(vals);
    }

    /// The samples recorded at a location.
    pub fn at(&self, loc: Loc) -> &[Valuation] {
        self.samples.get(&loc).map_or(&[], |v| v.as_slice())
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.samples.values().map(|v| v.len()).sum()
    }

    /// Returns `true` iff no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locations with at least one sample.
    pub fn locations(&self) -> impl Iterator<Item = Loc> + '_ {
        self.samples.keys().copied()
    }
}

/// Collects the integer constants appearing in the transition relations and
/// the initial assertion of a system (absolute constant terms of the atoms),
/// always including `-1`, `0` and `1`, each also offset by `±1`.
///
/// These are the thresholds the candidate atoms compare against — the same
/// role the template-coefficient search space plays in the paper's encoding.
pub fn collect_constants(ts: &TransitionSystem) -> Vec<Int> {
    let mut constants: Vec<Int> = vec![Int::from(-1_i64), Int::zero(), Int::one()];
    let mut push_poly = |p: &Poly| {
        let c = p.constant_term();
        if c.is_integer() {
            constants.push(c.to_int().expect("integral constant"));
        }
        // Also use the negated constant (guards are usually written as
        // x - k >= 0, so the interesting threshold is k = -constant term).
        let neg = -c;
        if neg.is_integer() {
            constants.push(neg.to_int().expect("integral constant"));
        }
    };
    for t in ts.transitions() {
        for atom in t.relation.atoms() {
            push_poly(atom);
        }
    }
    for atom in ts.init_assertion().atoms() {
        push_poly(atom);
    }
    let mut with_offsets = Vec::new();
    for c in &constants {
        with_offsets.push(c.clone());
        with_offsets.push(c + Int::one());
        with_offsets.push(c - Int::one());
    }
    with_offsets.sort();
    with_offsets.dedup();
    with_offsets
}

/// The polynomial "shapes" (left-hand sides without thresholds) explored for
/// the given parameters, over the unprimed program variables.
fn shapes(ts: &TransitionSystem, params: &TemplateParams) -> Vec<Poly> {
    let n = ts.vars().len();
    let mut shapes = Vec::new();
    for i in 0..n {
        let x = Poly::var(ts.vars().unprimed(i));
        shapes.push(x.clone());
        shapes.push(-x.clone());
        if params.degree >= 2 {
            shapes.push(&x * &x);
            shapes.push(-(&x * &x));
        }
    }
    if params.c >= 2 {
        for i in 0..n {
            for j in (i + 1)..n {
                let x = Poly::var(ts.vars().unprimed(i));
                let y = Poly::var(ts.vars().unprimed(j));
                shapes.push(&x + &y);
                shapes.push(&x - &y);
                shapes.push(&y - &x);
                shapes.push(-(&x + &y));
                if params.degree >= 2 {
                    shapes.push(&x * &y);
                    shapes.push(-(&x * &y));
                }
            }
        }
    }
    if params.c >= 4 && params.degree >= 2 {
        // A few richer quadratic shapes: x^2 - y, y - x^2.
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let x = Poly::var(ts.vars().unprimed(i));
                let y = Poly::var(ts.vars().unprimed(j));
                shapes.push(&(&x * &x) - &y);
                shapes.push(&y - &(&x * &x));
            }
        }
    }
    shapes
}

/// Guard-derived atoms: every atom of every transition relation that ranges
/// over unprimed variables only (these capture the "loop condition" facts
/// that the paper's templates routinely rediscover).
fn guard_atoms(ts: &TransitionSystem) -> Vec<Poly> {
    let mut out = Vec::new();
    for t in ts.transitions() {
        for atom in t.relation.atoms() {
            if atom.vars().iter().all(|v| ts.vars().is_unprimed(*v)) && !atom.is_constant() {
                out.push(atom.clone());
            }
        }
    }
    out.sort_by(|a, b| a.flat_terms().cmp(b.flat_terms()));
    out.dedup();
    out
}

/// Memoized per-system template artifacts: the program constants, the
/// guard-derived atoms and the shape lists per template parameters.
///
/// These three ingredients of [`candidate_atoms`] depend only on the
/// transition system (and, for shapes, on the template parameters) — not on
/// the sample sets — so a fresh cache per call would recompute them once per
/// location per synthesis call.  A `PoolCache` is valid for exactly **one**
/// transition system; the session-centric prover API keeps one per cached
/// restricted/reversed system.
#[derive(Debug, Clone, Default)]
pub struct PoolCache {
    constants: Option<Vec<Int>>,
    guard_atoms: Option<Vec<Poly>>,
    /// Shape lists keyed by the `(c, degree)` components that determine them.
    shapes: Vec<((usize, u32), Vec<Poly>)>,
    /// Number of `prepare` calls answered entirely from the cache.
    pub hits: u64,
    /// Total number of `prepare` calls.
    pub lookups: u64,
}

impl PoolCache {
    /// Creates an empty cache.
    pub fn new() -> PoolCache {
        PoolCache::default()
    }

    /// Ensures constants, guard atoms and the shape list for `params` are
    /// computed, counting a hit when everything was already present.
    fn prepare(&mut self, ts: &TransitionSystem, params: &TemplateParams) {
        self.lookups += 1;
        let shape_key = (params.c, params.degree);
        let have_shapes = self.shapes.iter().any(|(k, _)| *k == shape_key);
        if self.constants.is_some() && self.guard_atoms.is_some() && have_shapes {
            self.hits += 1;
            return;
        }
        if self.constants.is_none() {
            self.constants = Some(collect_constants(ts));
        }
        if self.guard_atoms.is_none() {
            self.guard_atoms = Some(guard_atoms(ts));
        }
        if !have_shapes {
            self.shapes.push((shape_key, shapes(ts, params)));
        }
    }

    fn shapes_for(&self, params: &TemplateParams) -> &[Poly] {
        let shape_key = (params.c, params.degree);
        self.shapes
            .iter()
            .find(|(k, _)| *k == shape_key)
            .map(|(_, s)| s.as_slice())
            .expect("prepare fills the shape list")
    }
}

/// Generates the candidate atom pool for a location.
///
/// Every returned polynomial `p` is a candidate conjunct `p ≥ 0` that is
/// consistent with all sample valuations recorded for the location.  The pool
/// size is bounded by the template parameters; with no samples at a location
/// the thresholds come from the program constants alone.  The per-system
/// artifacts are served from `cache`, which must belong to `ts` (see the
/// [`PoolCache`] docs); a fresh cache gives the same pool.
pub fn candidate_atoms(
    ts: &TransitionSystem,
    loc: Loc,
    samples: &SampleSet,
    params: &TemplateParams,
    cache: &mut PoolCache,
) -> Vec<Poly> {
    cache.prepare(ts, params);
    let constants = cache.constants.as_deref().expect("prepare fills constants");
    let locals = samples.at(loc);
    let mut pool = Vec::new();
    for shape in cache.shapes_for(params) {
        // Tightest threshold consistent with the samples: k = min over samples
        // of shape(sample); candidate atom is shape - k >= 0.
        let sample_min: Option<Rat> = locals
            .iter()
            .map(|v| shape.eval_at_int_point(&|var: Var| v.get(var.index()).clone()))
            .min();
        let mut thresholds: Vec<Rat> = constants.iter().map(|c| Rat::from(c.clone())).collect();
        if let Some(m) = &sample_min {
            thresholds.push(m.clone());
        }
        thresholds.sort();
        thresholds.dedup();
        // Keep only thresholds consistent with every sample, capped at a dozen
        // per shape (tightest first) to bound the pool size on constant-heavy
        // programs.
        const MAX_THRESHOLDS_PER_SHAPE: usize = 12;
        let consistent: Vec<Rat> = thresholds
            .into_iter()
            .filter(|k| match &sample_min {
                Some(m) => k <= m,
                None => true,
            })
            .collect();
        let start = consistent.len().saturating_sub(MAX_THRESHOLDS_PER_SHAPE);
        for k in &consistent[start..] {
            let atom = shape - &Poly::constant(k.clone());
            pool.push(atom);
        }
    }
    if params.c >= 3 {
        for atom in cache.guard_atoms.as_deref().expect("prepare fills guard atoms") {
            let ok = locals.iter().all(|v| {
                !atom.eval_at_int_point(&|var: Var| v.get(var.index()).clone()).is_negative()
            });
            if ok {
                pool.push(atom.clone());
            }
        }
    }
    // Deterministic order on the flat term slices: comparing packed monomial
    // words and coefficients directly, instead of rendering every polynomial
    // to a string, keeps the pool canonical without any allocation.
    pool.sort_by(|a, b| a.flat_terms().cmp(b.flat_terms()));
    pool.dedup();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_lang::parse_program;
    use revterm_num::int;
    use revterm_ts::lower;

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    fn running_ts() -> TransitionSystem {
        lower(&parse_program(RUNNING).unwrap()).unwrap()
    }

    #[test]
    fn constants_include_guard_thresholds() {
        let ts = running_ts();
        let cs = collect_constants(&ts);
        // The guard x >= 9 contributes 9 (and 8, 10 via offsets).
        assert!(cs.contains(&int(9)));
        assert!(cs.contains(&int(8)));
        assert!(cs.contains(&int(10)));
        assert!(cs.contains(&int(0)));
        // Sorted and deduplicated.
        let mut sorted = cs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(cs, sorted);
    }

    #[test]
    fn sample_sets() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        s.add(Loc(1), Valuation::from_i64s(&[9, 0]));
        s.add(Loc(1), Valuation::from_i64s(&[10, 90]));
        s.add(Loc(2), Valuation::from_i64s(&[3, 3]));
        assert_eq!(s.len(), 3);
        assert_eq!(s.at(Loc(1)).len(), 2);
        assert_eq!(s.at(Loc(5)).len(), 0);
        assert_eq!(s.locations().count(), 2);
    }

    #[test]
    fn candidate_atoms_respect_samples() {
        let ts = running_ts();
        let mut samples = SampleSet::new();
        samples.add(ts.init_loc(), Valuation::from_i64s(&[9, 0]));
        samples.add(ts.init_loc(), Valuation::from_i64s(&[12, 120]));
        let pool = candidate_atoms(
            &ts,
            ts.init_loc(),
            &samples,
            &TemplateParams::new(2, 1, 1),
            &mut PoolCache::new(),
        );
        assert!(!pool.is_empty());
        // Every candidate atom is satisfied by every sample.
        for atom in &pool {
            for v in samples.at(ts.init_loc()) {
                assert!(
                    !atom.eval(&|var: Var| Rat::from(v.get(var.index()).clone())).is_negative(),
                    "atom {atom} violated by sample {v}"
                );
            }
        }
        // The pool contains the key fact x >= 9 (i.e. the atom x - 9).
        let x_minus_9 = Poly::var(ts.vars().unprimed(0)) - Poly::constant_i64(9);
        assert!(pool.contains(&x_minus_9));
        // But not x >= 10, which the sample x = 9 falsifies.
        let x_minus_10 = Poly::var(ts.vars().unprimed(0)) - Poly::constant_i64(10);
        assert!(!pool.contains(&x_minus_10));
    }

    #[test]
    fn cached_pools_match_uncached_pools() {
        let ts = running_ts();
        let mut samples = SampleSet::new();
        samples.add(ts.init_loc(), Valuation::from_i64s(&[9, 0]));
        let mut cache = PoolCache::new();
        for params in [TemplateParams::new(1, 1, 1), TemplateParams::new(3, 2, 2)] {
            for loc in ts.locations() {
                let fresh = candidate_atoms(&ts, loc, &samples, &params, &mut PoolCache::new());
                let cached = candidate_atoms(&ts, loc, &samples, &params, &mut cache);
                assert_eq!(fresh, cached, "pool mismatch at {loc:?} with {params:?}");
            }
        }
        // Every location after the first (per params) is served from the cache.
        assert!(cache.hits >= cache.lookups - 2, "hits {} lookups {}", cache.hits, cache.lookups);
    }

    #[test]
    fn richer_parameters_grow_the_pool() {
        let ts = running_ts();
        let samples = SampleSet::new();
        let pool = |c, d, degree| {
            let params = TemplateParams::new(c, d, degree);
            candidate_atoms(&ts, ts.init_loc(), &samples, &params, &mut PoolCache::new())
        };
        let (small, medium, large) = (pool(1, 1, 1), pool(2, 1, 1), pool(3, 2, 2));
        assert!(small.len() < medium.len());
        assert!(medium.len() < large.len());
        // c = 1 only produces single-variable atoms.
        assert!(small.iter().all(|p| p.vars().len() <= 1));
        // c >= 2 produces two-variable (octagon) atoms.
        assert!(medium.iter().any(|p| p.vars().len() == 2));
        // degree 2 produces quadratic atoms.
        assert!(large.iter().any(|p| p.total_degree() == 2));
        assert!(medium.iter().all(|p| p.total_degree() <= 1));
    }
}
