//! The polynomial entailment oracle (Farkas / Handelman style).
//!
//! Given premise inequalities `g_1 ≥ 0, …, g_k ≥ 0` and a conclusion
//! `p ≥ 0`, the oracle searches for non-negative rational multipliers
//! `λ_0, λ_1, …` such that
//!
//! ```text
//! p  =  λ_0 · 1  +  Σ_j λ_j · π_j
//! ```
//!
//! where the `π_j` range over products of premises of bounded multiset size
//! and bounded total degree.  Such a representation certifies the entailment
//! over the reals and hence over the integers.  For linear premises and a
//! linear conclusion with product size 1 this is exactly Farkas' lemma (and is
//! complete whenever the premise polyhedron is non-empty); larger products
//! give a Handelman-style relaxation for polynomial arithmetic.
//!
//! The search for multipliers is a pure rational LP feasibility problem and is
//! discharged by [`crate::LpProblem::solve`].  The LP is built sparsely: it
//! has one equality row per monomial and one non-negative multiplier column
//! per premise product, and each row mentions only the products actually
//! containing its monomial, so the rows have a handful of nonzeros no matter
//! how many products the budget generates.  [`multiplier_lp`] exposes that
//! construction so differential checks can rebuild exactly the LP a query
//! issued and re-solve it with the dense reference engine.
//!
//! Every LP is solved cold, so a query's verdict and witness depend only on
//! `(premises, conclusion, options)` — never on which queries came before.
//! That is what makes the [`EntailmentCache`] memo sound.
//!
//! ```
//! use revterm_poly::{Poly, Var};
//! use revterm_solver::{entails, entails_with_witness, EntailmentOptions};
//!
//! let x = Poly::var(Var(0));
//! let premises = vec![&x - &Poly::constant_i64(2)]; // x - 2 >= 0
//! let conclusion = &x.scale(&revterm_num::rat(3)) - &Poly::constant_i64(6);
//!
//! // x >= 2 entails 3x - 6 >= 0, with certificate λ = [0, 3].
//! let opts = EntailmentOptions::linear();
//! assert!(entails(&premises, &conclusion, &opts));
//! let witness = entails_with_witness(&premises, &conclusion, &opts).unwrap();
//! assert_eq!(witness, vec![revterm_num::rat(0), revterm_num::rat(3)]);
//! ```

use crate::lp::{LpProblem, LpStats, Rel, VarKind};
use revterm_num::Rat;
use revterm_poly::{LinExpr, Monomial, Poly, Var};
use std::sync::Arc;

/// Options controlling the entailment search.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EntailmentOptions {
    /// Maximal number of premises multiplied together in one product
    /// (1 = plain Farkas; 2 is enough for the quadratic certificates that
    /// appear in this project's benchmarks).
    pub max_product_size: usize,
    /// Maximal total degree of a product that is kept.
    pub max_product_degree: u32,
    /// Also attempt to show that the premises are unsatisfiable over the
    /// reals (in which case any conclusion is entailed).
    pub use_unsat_fallback: bool,
    /// Allow callers to answer all-linear entailment queries by interval
    /// closure of the premises (the `revterm_absint` fast path) instead of
    /// building an LP.  The fast path only ever claims entailments that
    /// carry an explicit Farkas certificate, so answers are bitwise
    /// identical either way; the flag exists as the differential knob for
    /// the `absint` on/off determinism gate.
    pub interval_fast_path: bool,
}

impl Default for EntailmentOptions {
    fn default() -> Self {
        EntailmentOptions {
            max_product_size: 2,
            max_product_degree: 4,
            use_unsat_fallback: true,
            interval_fast_path: true,
        }
    }
}

impl EntailmentOptions {
    /// Options for purely linear reasoning (plain Farkas lemma).
    pub fn linear() -> Self {
        EntailmentOptions { max_product_size: 1, max_product_degree: 1, ..Default::default() }
    }

    /// Options with a given product size / degree budget.
    pub fn with_budget(max_product_size: usize, max_product_degree: u32) -> Self {
        EntailmentOptions { max_product_size, max_product_degree, ..Default::default() }
    }

    /// A copy of these options restricted to the plain-Farkas budget
    /// (product size and degree 1), preserving every non-budget field —
    /// use this instead of [`EntailmentOptions::linear`] when downgrading a
    /// configured options value for a linear obligation.
    pub fn linearized(&self) -> Self {
        EntailmentOptions { max_product_size: 1, max_product_degree: 1, ..self.clone() }
    }
}

/// Builds the list of candidate products of the premises.
fn products(premises: &[Poly], opts: &EntailmentOptions) -> Vec<Poly> {
    // Levels are built in place: level `s` occupies `out[level_start..]` and
    // seeds level `s + 1`, so products are stored once instead of being
    // cloned from a scratch level vector (the list and its order are
    // exactly what the two-vector construction produced).
    let mut out: Vec<Poly> = vec![Poly::one()];
    let mut level_start = 0;
    for _ in 0..opts.max_product_size {
        let level_end = out.len();
        for base_idx in level_start..level_end {
            for g in premises {
                let prod = &out[base_idx] * g;
                if prod.total_degree() <= opts.max_product_degree && !prod.is_zero() {
                    out.push(prod);
                }
            }
        }
        level_start = level_end;
        if out.len() == level_end {
            break;
        }
    }
    out.dedup();
    out
}

/// The multiplier LP asking for a non-negative combination of
/// `product_list` equal to `target`: multiplier `λ_j` is the non-negative LP variable
/// `Var(j)`.
///
/// The LP has one row per monomial occurring anywhere and one column per
/// product; a row's nonzeros are exactly the products containing that
/// monomial, so the constraint expressions stay sparse.
fn combination_lp(product_list: &[Poly], target: &Poly) -> LpProblem {
    let mut lp = LpProblem::new();
    for j in 0..product_list.len() {
        lp.set_var_kind(Var(j as u32), VarKind::NonNegative);
    }
    // For every monomial occurring anywhere, the coefficients must match.
    // Monomials are Copy keys, so collecting the row set copies words.
    let mut monomials: Vec<Monomial> = target.terms().map(|(m, _)| *m).collect();
    for p in product_list {
        monomials.extend(p.terms().map(|(m, _)| *m));
    }
    monomials.sort();
    monomials.dedup();
    // Scatter each product's flat term run into its monomial's row instead
    // of probing every product for every monomial: O(total terms) lookups,
    // and since column indices arrive in increasing order, every
    // `add_coeff` is an append.  Row order (sorted monomials) and row
    // contents are identical to the probe-per-monomial construction.
    let mut rows: Vec<LinExpr> =
        monomials.iter().map(|m| LinExpr::constant(-target.coefficient(m))).collect();
    for (j, p) in product_list.iter().enumerate() {
        for (m, c) in p.flat_terms() {
            let i = monomials.binary_search(m).expect("row set covers all product monomials");
            rows[i].add_coeff(Var(j as u32), c.clone());
        }
    }
    for expr in rows {
        lp.add_constraint(expr, Rel::Eq);
    }
    lp
}

/// Searches for a non-negative combination of `product_list` equal to
/// `target` and returns the multipliers (aligned with `product_list`) if
/// one exists.
fn combination_witness(
    product_list: &[Poly],
    target: &Poly,
    stats: &mut LpStats,
) -> Option<Vec<Rat>> {
    let result = combination_lp(product_list, target).solve_counted(stats);
    result.solution().map(|sol| (0..product_list.len()).map(|j| sol.value(Var(j as u32))).collect())
}

/// The multiplier LP that the oracle solves first for one query:
/// `Some(conclusion)` is an [`entails`] query, `None` an [`implies_false`]
/// query (target `-1`). Returns `None` when the oracle answers the query
/// without an LP (a non-negative constant conclusion, or a premise that is a
/// negative constant).
///
/// When an [`entails`] query's LP is infeasible and
/// [`EntailmentOptions::use_unsat_fallback`] is set, the oracle goes on to
/// solve the [`implies_false`] LP of the same premises.
pub fn multiplier_lp(
    premises: &[Poly],
    conclusion: Option<&Poly>,
    opts: &EntailmentOptions,
) -> Option<LpProblem> {
    let target = match conclusion {
        Some(p) if p.as_constant().is_some_and(|c| !c.is_negative()) => return None,
        Some(p) => p.clone(),
        None if has_negative_constant(premises) => return None,
        None => Poly::constant_i64(-1),
    };
    Some(combination_lp(&products(premises, opts), &target))
}

/// Checks whether the premises entail the conclusion (`∀x. ⋀ g_i ≥ 0 ⟹ p ≥ 0`)
/// and returns the certifying multipliers if so.
///
/// The first element of the returned vector is the constant slack `λ_0`; the
/// remaining entries are aligned with the internally generated product list,
/// so the witness is mainly useful for debugging and for the certificate
/// validation tests.
pub fn entails_with_witness(
    premises: &[Poly],
    conclusion: &Poly,
    opts: &EntailmentOptions,
) -> Option<Vec<Rat>> {
    entails_with_witness_impl(premises, conclusion, opts, &mut LpStats::default())
}

/// [`entails_with_witness`], adding the LP work to `stats`.
fn entails_with_witness_impl(
    premises: &[Poly],
    conclusion: &Poly,
    opts: &EntailmentOptions,
    stats: &mut LpStats,
) -> Option<Vec<Rat>> {
    // Trivial case: the conclusion is a non-negative constant.
    if let Some(c) = conclusion.as_constant() {
        if !c.is_negative() {
            return Some(vec![c]);
        }
    }
    let product_list = products(premises, opts);
    if let Some(witness) = combination_witness(&product_list, conclusion, stats) {
        return Some(witness);
    }
    if opts.use_unsat_fallback && implies_false_impl(premises, opts, stats) {
        return Some(Vec::new());
    }
    None
}

/// Checks whether the premises entail the conclusion.
///
/// Sound and incomplete: `true` is always trustworthy, `false` means "no
/// certificate of the bounded shape was found".
pub fn entails(premises: &[Poly], conclusion: &Poly, opts: &EntailmentOptions) -> bool {
    entails_with_witness(premises, conclusion, opts).is_some()
}

/// Checks whether the premises are unsatisfiable over the reals, by deriving
/// the contradiction `-1 ≥ 0` as a non-negative combination of premise
/// products.
pub fn implies_false(premises: &[Poly], opts: &EntailmentOptions) -> bool {
    implies_false_impl(premises, opts, &mut LpStats::default())
}

/// `true` iff some premise is a negative constant (syntactically false).
fn has_negative_constant(premises: &[Poly]) -> bool {
    premises.iter().any(|p| p.as_constant().is_some_and(|c| c.is_negative()))
}

/// [`implies_false`], adding the LP work to `stats`.
fn implies_false_impl(premises: &[Poly], opts: &EntailmentOptions, stats: &mut LpStats) -> bool {
    if has_negative_constant(premises) {
        return true;
    }
    let product_list = products(premises, opts);
    combination_witness(&product_list, &Poly::constant_i64(-1), stats).is_some()
}

/// A memo table for the entailment oracle, reusable across many queries on
/// the same (or overlapping) premise sets.
///
/// The oracle is a pure function of `(premises, conclusion, options)`, so
/// memoizing its boolean outcome is sound and — crucially for configuration
/// sweeps, where the same consecution obligations are re-discharged for every
/// template size and strategy — turns the vast majority of repeated LP
/// constructions into hash-map lookups.  A [`crate::entails`] call that goes
/// through the cache returns *bitwise-identical* answers to the uncached
/// oracle.
///
/// Premises are passed as `Arc<[Poly]>` slices: callers (the Houdini loop)
/// build one shared premise vector per transition and query many conclusion
/// atoms against it, so a cache insertion stores a reference-counted pointer
/// instead of cloning the whole premise vector per entry.
///
/// The cache also keeps hit/lookup counters so callers (the session-centric
/// prover API) can report cache effectiveness, and misses add their LP work
/// to a caller-supplied [`LpStats`].
#[derive(Debug, Clone, Default)]
pub struct EntailmentCache {
    /// Buckets keyed by the hash of the *borrowed* query, so that cache hits
    /// — the common case on a warm configuration sweep — never clone the
    /// premises or conclusion; owned keys are built on insertion only (and
    /// even then the premises are an `Arc` bump, not a deep clone).
    map: std::collections::HashMap<u64, Vec<(EntailmentKey, bool)>>,
    /// Number of queries answered from the memo table.
    pub hits: u64,
    /// Total number of queries routed through the cache.
    pub lookups: u64,
}

/// One query held by an [`EntailmentCache`] (see [`EntailmentCache::sample`]).
#[derive(Debug, Clone, Copy)]
pub struct MemoizedQuery<'a> {
    /// The premises, in call order.
    pub premises: &'a [Poly],
    /// The conclusion; `None` for an [`implies_false`] query.
    pub conclusion: Option<&'a Poly>,
    /// The options the query ran under.
    pub opts: &'a EntailmentOptions,
}

/// Memo key: the premises in call order, the conclusion (`None` encodes an
/// [`implies_false`] query), and the options.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EntailmentKey {
    premises: Arc<[Poly]>,
    conclusion: Option<Poly>,
    opts: EntailmentOptions,
}

impl EntailmentKey {
    fn matches(
        &self,
        premises: &Arc<[Poly]>,
        conclusion: Option<&Poly>,
        opts: &EntailmentOptions,
    ) -> bool {
        (Arc::ptr_eq(&self.premises, premises) || self.premises == *premises)
            && self.conclusion.as_ref() == conclusion
            && self.opts == *opts
    }
}

/// Hashes the borrowed form of a query; agreement with the derived `Hash` of
/// [`EntailmentKey`] is not required (the hash only selects a bucket, the
/// owned keys inside are compared structurally).
fn query_hash(premises: &[Poly], conclusion: Option<&Poly>, opts: &EntailmentOptions) -> u64 {
    use std::hash::{Hash, Hasher};
    // Hashing a query walks each polynomial's flat term slice and folds
    // `(packed monomial word, small rational)` runs — no tree traversal, no
    // clones, no allocation on the packed tiers.
    let mut hasher = revterm_num::Fnv64::new();
    premises.hash(&mut hasher);
    conclusion.hash(&mut hasher);
    opts.hash(&mut hasher);
    hasher.finish()
}

impl EntailmentCache {
    /// Creates an empty cache.
    pub fn new() -> EntailmentCache {
        EntailmentCache::default()
    }

    fn lookup_or(
        &mut self,
        premises: &Arc<[Poly]>,
        conclusion: Option<&Poly>,
        opts: &EntailmentOptions,
        compute: impl FnOnce() -> bool,
    ) -> bool {
        self.lookups += 1;
        let bucket = self.map.entry(query_hash(premises, conclusion, opts)).or_default();
        if let Some((_, answer)) =
            bucket.iter().find(|(k, _)| k.matches(premises, conclusion, opts))
        {
            self.hits += 1;
            return *answer;
        }
        let answer = compute();
        bucket.push((
            EntailmentKey {
                premises: Arc::clone(premises),
                conclusion: conclusion.cloned(),
                opts: opts.clone(),
            },
            answer,
        ));
        answer
    }

    /// Memoized [`entails`]; misses add their LP work to `lp`.
    pub fn entails(
        &mut self,
        premises: &Arc<[Poly]>,
        conclusion: &Poly,
        opts: &EntailmentOptions,
        lp: &mut LpStats,
    ) -> bool {
        self.lookup_or(premises, Some(conclusion), opts, || {
            entails_with_witness_impl(premises, conclusion, opts, lp).is_some()
        })
    }

    /// Memoized [`implies_false`]; misses add their LP work to `lp`.
    pub fn implies_false(
        &mut self,
        premises: &Arc<[Poly]>,
        opts: &EntailmentOptions,
        lp: &mut LpStats,
    ) -> bool {
        self.lookup_or(premises, None, opts, || implies_false_impl(premises, opts, lp))
    }

    /// A deterministic sample of at most `k` memoized queries: the ones with
    /// the smallest query hashes, in hash order. The hash is FNV over the
    /// query itself, so the sample depends only on which queries were
    /// memoized — not on the process or (barring a hash collision) on the
    /// order the queries arrived in.
    pub fn sample(&self, k: usize) -> Vec<MemoizedQuery<'_>> {
        let mut hashes: Vec<u64> = self.map.keys().copied().collect();
        hashes.sort_unstable();
        hashes
            .iter()
            .flat_map(|h| &self.map[h])
            .take(k)
            .map(|(key, _)| MemoizedQuery {
                premises: &key.premises,
                conclusion: key.conclusion.as_ref(),
                opts: &key.opts,
            })
            .collect()
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.map.values().map(|bucket| bucket.len()).sum()
    }

    /// Returns `true` iff nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_num::{rat, Rat};

    fn x() -> Poly {
        Poly::var(Var(100))
    }
    fn y() -> Poly {
        Poly::var(Var(101))
    }
    fn c(v: i64) -> Poly {
        Poly::constant_i64(v)
    }

    #[test]
    fn trivial_conclusions() {
        let opts = EntailmentOptions::default();
        assert!(entails(&[], &c(0), &opts));
        assert!(entails(&[], &c(5), &opts));
        assert!(!entails(&[], &c(-1), &opts));
        assert!(!entails(&[], &(x() - c(1)), &opts));
    }

    #[test]
    fn linear_farkas_entailments() {
        let opts = EntailmentOptions::linear();
        // x >= 3 ⟹ x >= 1
        assert!(entails(&[&x() - &c(3)], &(&x() - &c(1)), &opts));
        // x >= 3 ⟹ 2x - 5 >= 0
        assert!(entails(&[&x() - &c(3)], &(x().scale(&rat(2)) - c(5)), &opts));
        // x >= 1 does NOT imply x >= 3
        assert!(!entails(&[&x() - &c(1)], &(&x() - &c(3)), &opts));
        // x >= 0 and y >= 0 ⟹ x + y >= 0
        assert!(entails(&[x(), y()], &(&x() + &y()), &opts));
        // x >= 0 and y >= 0 do NOT imply x - y >= 0
        assert!(!entails(&[x(), y()], &(&x() - &y()), &opts));
    }

    #[test]
    fn entailment_with_equalities() {
        let opts = EntailmentOptions::linear();
        // x = 7 (as two inequalities) ⟹ x >= 5 and 10 - x >= 0.
        let premises = [&x() - &c(7), &c(7) - &x()];
        assert!(entails(&premises, &(&x() - &c(5)), &opts));
        assert!(entails(&premises, &(&c(10) - &x()), &opts));
        assert!(!entails(&premises, &(&x() - &c(8)), &opts));
    }

    #[test]
    fn unsat_premises_entail_everything() {
        let opts = EntailmentOptions::default();
        let premises = [&x() - &c(3), -x()]; // x >= 3 and x <= 0
        assert!(implies_false(&premises, &opts));
        assert!(entails(&premises, &(&x() - &c(1000)), &opts));
        assert!(entails(&premises, &c(-5), &opts));
        // Satisfiable premises are not reported unsat.
        assert!(!implies_false(&[&x() - &c(3)], &opts));
        assert!(!implies_false(&[], &opts));
        // A syntactically false premise is detected immediately.
        assert!(implies_false(&[c(-2)], &opts));
    }

    #[test]
    fn quadratic_handelman_entailments() {
        let opts = EntailmentOptions::default();
        // x >= 3 ⟹ x^2 >= 9   (needs the product (x-3)^2).
        assert!(entails(&[&x() - &c(3)], &(&x() * &x() - c(9)), &opts));
        // x >= 0 ∧ y >= 2 ⟹ x*y + x >= 0.
        assert!(entails(&[x(), &y() - &c(2)], &(&(&x() * &y()) + &x()), &opts));
        // x >= 0 does NOT imply x^2 >= 1.
        assert!(!entails(&[x()], &(&x() * &x() - c(1)), &opts));
    }

    #[test]
    fn witness_multipliers_reconstruct_conclusion() {
        let opts = EntailmentOptions::linear();
        let premises = vec![&x() - &c(3), y()];
        let conclusion = &(&x() + &y()) - &c(1);
        let witness = entails_with_witness(&premises, &conclusion, &opts).unwrap();
        // Re-build the combination over the same product list and compare.
        let product_list = super::products(&premises, &opts);
        assert_eq!(witness.len(), product_list.len());
        let mut sum = Poly::zero();
        for (lambda, p) in witness.iter().zip(product_list.iter()) {
            assert!(!lambda.is_negative(), "multipliers must be non-negative");
            sum = &sum + &p.scale(lambda);
        }
        assert_eq!(sum, conclusion);
    }

    #[test]
    fn running_example_invariant_step() {
        // The inductiveness condition of Example 5.4 at the inner loop:
        //   x >= 9  ∧  x <= y  ∧  x' = x + 1  ∧  y' = y   ⟹   x' >= 9.
        let opts = EntailmentOptions::linear();
        let xp = Poly::var(Var(102));
        let yp = Poly::var(Var(103));
        let premises = vec![
            &x() - &c(9),
            &y() - &x(),
            &xp - &(&x() + &c(1)),
            &(&x() + &c(1)) - &xp,
            &yp - &y(),
            &y() - &yp,
        ];
        assert!(entails(&premises, &(&xp - &c(9)), &opts));
        // ... and it does not entail x' >= y' (which is false when x < y).
        assert!(!entails(&premises, &(&xp - &yp), &opts));
    }

    #[test]
    fn entailment_cache_matches_uncached_oracle_and_counts_hits() {
        let opts = EntailmentOptions::linear();
        let mut cache = EntailmentCache::new();
        let mut lp = LpStats::default();
        let queries: Vec<(Arc<[Poly]>, Poly)> = vec![
            (vec![&x() - &c(3)].into(), &x() - &c(1)),
            (vec![&x() - &c(1)].into(), &x() - &c(3)),
            (vec![x(), y()].into(), &x() + &y()),
        ];
        for (premises, conclusion) in &queries {
            let fresh = entails(premises, conclusion, &opts);
            assert_eq!(cache.entails(premises, conclusion, &opts, &mut lp), fresh);
            // Second query is a hit and must agree.
            let hits_before = cache.hits;
            assert_eq!(cache.entails(premises, conclusion, &opts, &mut lp), fresh);
            assert_eq!(cache.hits, hits_before + 1);
        }
        // implies_false queries are keyed separately from entails queries.
        let contradiction: Arc<[Poly]> = vec![&x() - &c(3), -x()].into();
        assert!(cache.implies_false(&contradiction, &opts, &mut lp));
        assert!(cache.implies_false(&contradiction, &opts, &mut lp));
        assert!(!cache.is_empty());
        assert_eq!(cache.len(), 4);
        assert!(cache.lookups > cache.hits);
        // The LP layer saw only the misses, and counted them.
        assert_eq!(cache.lookups - cache.hits, cache.len() as u64);
        assert!(lp.solves > 0);
    }

    #[test]
    fn prop_engine_choice_does_not_change_farkas_certificates() {
        // Re-solving a query's multiplier LP with the dense reference must
        // give the engine's Farkas certificate bit for bit: random
        // feasible/infeasible entailment chains.
        use crate::SplitMix64;
        let opts = EntailmentOptions::linear();
        let mut rng = SplitMix64::new(0x0FA1_2CA5);
        let (mut entailed, mut refuted) = (0, 0);
        for round in 0..40 {
            let n = 3 + rng.next_below(4) as usize;
            let mut premises = Vec::new();
            let mut total = rat(0);
            for i in 0..n {
                let step = Rat::packed(rng.next_in_range(1, 6), rng.next_in_range(1, 4));
                let step_poly = Poly::constant(step.clone());
                premises
                    .push(&Poly::var(Var(i as u32 + 1)) - &Poly::var(Var(i as u32)) - step_poly);
                total = &total + &step;
            }
            // Entailed on even rounds (slack below the chain sum), refuted on
            // odd rounds (conclusion overshoots the sum).
            let slack = if round % 2 == 0 { rat(1) } else { rat(-1) };
            let bound = &total - &slack;
            let conclusion = &Poly::var(Var(n as u32)) - &Poly::var(Var(0)) - Poly::constant(bound);
            let via_engine = entails_with_witness(&premises, &conclusion, &opts);
            let lp = multiplier_lp(&premises, Some(&conclusion), &opts).expect("an LP is issued");
            let dense = lp.solve_dense();
            assert_eq!(lp.solve(), dense, "engines diverged on round {round}");
            let columns = products(&premises, &opts).len();
            let via_dense =
                dense.solution().map(|s| (0..columns).map(|j| s.value(Var(j as u32))).collect());
            assert_eq!(via_engine, via_dense, "certificates diverged on round {round}");
            match via_engine {
                Some(_) => entailed += 1,
                None => refuted += 1,
            }
        }
        assert_eq!(entailed, 20);
        assert_eq!(refuted, 20);
    }

    #[test]
    fn prop_warm_started_streams_match_the_cold_oracle() {
        // A Houdini-shaped stream through one memo table: one premise set,
        // many conclusion atoms. Every LP starts cold, so verdicts must match
        // the uncached oracle on every atom.
        use crate::SplitMix64;
        let opts = EntailmentOptions::linear();
        let mut rng = SplitMix64::new(0x57A6_57A6);
        let mut lp = LpStats::default();
        for _ in 0..12 {
            let n = 2 + rng.next_below(3) as usize;
            let mut premises: Vec<Poly> = Vec::new();
            for i in 0..n {
                // x_i >= b_i with random bounds.
                let b = rng.next_in_range(-3, 3);
                premises.push(&Poly::var(Var(i as u32)) - &Poly::constant_i64(b));
            }
            let premises: Arc<[Poly]> = premises.into();
            let mut cache = EntailmentCache::new();
            for atom in 0..6u32 {
                let i = rng.next_below(n as u64) as u32;
                let b = rng.next_in_range(-4, 4);
                let conclusion = &Poly::var(Var(i)) - &Poly::constant_i64(b);
                let memoized = cache.entails(&premises, &conclusion, &opts, &mut lp);
                let cold = entails(&premises, &conclusion, &opts);
                assert_eq!(memoized, cold, "atom {atom} diverged");
            }
        }
        assert!(lp.solves > 0);
        assert_eq!((lp.warm_lookups, lp.warm_hits), (0, 0));
    }

    #[test]
    fn multiplier_lp_skips_queries_answered_without_an_lp() {
        let opts = EntailmentOptions::linear();
        assert!(multiplier_lp(&[x()], Some(&c(3)), &opts).is_none());
        assert!(multiplier_lp(&[x(), c(-1)], None, &opts).is_none());
        // x >= 3 entails x >= 1: the rebuilt LP is feasible in both engines.
        let lp = multiplier_lp(&[&x() - &c(3)], Some(&(&x() - &c(1))), &opts).unwrap();
        assert!(lp.solve().is_feasible());
        assert_eq!(lp.solve(), lp.solve_dense());
        // x >= 3 and x <= 0 is contradictory: the `-1 >= 0` LP is feasible.
        let lp = multiplier_lp(&[&x() - &c(3), -x()], None, &opts).unwrap();
        assert!(lp.solve().is_feasible());
    }

    #[test]
    fn memo_sample_does_not_depend_on_arrival_order() {
        let opts = EntailmentOptions::linear();
        let queries: Vec<(Arc<[Poly]>, Poly)> =
            (0..6).map(|k| (vec![&x() - &c(k)].into(), &x() - &c(k + 1))).collect();
        let sample = |order: &mut dyn Iterator<Item = &(Arc<[Poly]>, Poly)>| {
            let mut cache = EntailmentCache::new();
            for (premises, conclusion) in order {
                cache.entails(premises, conclusion, &opts, &mut LpStats::default());
            }
            format!("{:?}", cache.sample(3))
        };
        let forward = sample(&mut queries.iter());
        assert_eq!(forward, sample(&mut queries.iter().rev()));
        let mut cache = EntailmentCache::new();
        assert!(cache.sample(3).is_empty());
        cache.implies_false(&queries[0].0, &opts, &mut LpStats::default());
        assert_eq!(cache.sample(3).len(), 1);
        assert!(cache.sample(3)[0].conclusion.is_none());
    }

    #[test]
    fn product_generation_respects_budgets() {
        let premises = vec![x(), y()];
        let small = products(&premises, &EntailmentOptions::with_budget(1, 1));
        // 1, x, y.
        assert_eq!(small.len(), 3);
        let bigger = products(&premises, &EntailmentOptions::with_budget(2, 2));
        // 1, x, y, x^2, xy, yx, y^2 (dedup keeps distinct polynomials).
        assert!(bigger.len() >= 6);
        assert!(bigger.iter().any(|p| p.total_degree() == 2));
        assert!(bigger.iter().all(|p| p.total_degree() <= 2));
    }
}
