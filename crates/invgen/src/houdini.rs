//! Guess-and-check (Houdini-style) synthesis of inductive predicate maps.

use crate::atoms::{candidate_atoms_cached, PoolCache, SampleSet, TemplateParams};
use crate::verify::{is_inductive, predicate_entails};
use revterm_absint::{close_premises, PremiseClosure};
use revterm_poly::Poly;
use revterm_solver::{EntailmentCache, EntailmentOptions, LpStats};
use revterm_ts::{Assertion, Loc, PredicateMap, PropPredicate, TransitionSystem};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative work bound for one synthesis call.
///
/// A single Houdini run over a large candidate pool can issue hundreds of
/// thousands of entailment queries; callers that operate under a deadline or
/// an entailment-call cap (the prover's `Budget`) pass one of these so the
/// fixpoint loop can stop *between* transition batches instead of only after
/// the fixpoint converges.  Both limits are optional; [`unlimited`] bounds
/// nothing.
///
/// [`unlimited`]: SynthesisBudget::unlimited
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthesisBudget {
    /// Wall-clock cutoff.
    pub deadline: Option<Instant>,
    /// Absolute entailment-lookup count (on the shared [`EntailmentCache`])
    /// at which to stop — i.e. `lookups_at_arm_time + cap`, not a delta.
    pub entail_call_stop: Option<u64>,
}

impl SynthesisBudget {
    /// A budget that never fires.
    pub fn unlimited() -> SynthesisBudget {
        SynthesisBudget::default()
    }

    /// `true` once either limit is hit (checked against the entailment
    /// cache's current lookup counter).
    pub fn exhausted(&self, entail_lookups: u64) -> bool {
        if self.entail_call_stop.is_some_and(|stop| entail_lookups >= stop) {
            return true;
        }
        self.deadline.is_some_and(|deadline| Instant::now() >= deadline)
    }
}

/// Options controlling [`synthesize_invariant`].
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Template parameters (the paper's `(c, d)` and `D`).
    pub params: TemplateParams,
    /// Entailment budget used for the consecution checks.
    pub entailment: EntailmentOptions,
    /// Require `Θ_init ⟹ I(ℓ_init)` (drop atoms at `ℓ_init` that are not
    /// implied by the initial assertion).  Disable this when the invariant
    /// only needs to contain a single concrete initial configuration that is
    /// already provided as a sample (Check 1).
    pub require_initiation: bool,
    /// A location forced to `false` in the result; transitions into and out
    /// of it are ignored by the synthesis (Check 1 forces `I(ℓ_out) = ∅` and
    /// verifies the incoming transitions separately).
    pub forced_false: Option<Loc>,
    /// Upper bound on the number of Houdini sweeps (a safety valve; the
    /// fixpoint is normally reached much earlier).
    pub max_iterations: usize,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            params: TemplateParams::default(),
            entailment: EntailmentOptions::default(),
            require_initiation: true,
            forced_false: None,
            max_iterations: 64,
        }
    }
}

/// Synthesizes an inductive predicate map for a transition system by
/// candidate generation and Houdini-style weakening.
///
/// The result is guaranteed inductive (it is re-verified before being
/// returned; the `debug_assert` documents the contract).  With
/// `require_initiation` it additionally satisfies `Θ_init ⟹ I(ℓ_init)`, so it
/// is a genuine invariant of the system.  Sample valuations known to belong
/// to the over-approximated set prune the candidate pool up front.
pub fn synthesize_invariant(
    ts: &TransitionSystem,
    samples: &SampleSet,
    options: &SynthesisOptions,
) -> PredicateMap {
    synthesize_invariant_cached(
        ts,
        samples,
        options,
        &mut PoolCache::new(),
        &mut EntailmentCache::new(),
        &mut LpStats::default(),
    )
}

/// [`synthesize_invariant`] with the candidate-pool artifacts served from a
/// [`PoolCache`] and every entailment query memoized in an
/// [`EntailmentCache`]; LP work is added to `lp`.
///
/// Produces a bitwise-identical predicate map (both caches are pure memo
/// tables); the pool cache must belong to `ts`, while the entailment cache is
/// keyed purely on polynomials and may be shared across systems.  The
/// session-centric prover API threads long-lived caches through here so that
/// configuration sweeps discharge each recurring consecution obligation once.
pub fn synthesize_invariant_cached(
    ts: &TransitionSystem,
    samples: &SampleSet,
    options: &SynthesisOptions,
    pool: &mut PoolCache,
    entail: &mut EntailmentCache,
    lp: &mut LpStats,
) -> PredicateMap {
    synthesize_invariant_budgeted(
        ts,
        samples,
        options,
        pool,
        entail,
        lp,
        &SynthesisBudget::unlimited(),
    )
    .expect("an unlimited synthesis budget cannot be exhausted")
}

/// [`synthesize_invariant_cached`] under a [`SynthesisBudget`].
///
/// Returns `None` as soon as the budget fires (polled before the initiation
/// pruning and between Houdini transition batches — the overrun is bounded
/// by one batch).  A `None` result is a *cut-short* computation, not a
/// fixpoint: callers must not cache it or treat it as an invariant.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_invariant_budgeted(
    ts: &TransitionSystem,
    samples: &SampleSet,
    options: &SynthesisOptions,
    pool: &mut PoolCache,
    entail: &mut EntailmentCache,
    lp: &mut LpStats,
    budget: &SynthesisBudget,
) -> Option<PredicateMap> {
    let mut atom_sets: Vec<Vec<Poly>> = ts
        .locations()
        .map(|loc| {
            if Some(loc) == options.forced_false {
                Vec::new()
            } else {
                candidate_atoms_cached(ts, loc, samples, &options.params, pool)
            }
        })
        .collect();

    // Interval fast path: a "yes" from the premise closure is always a
    // nonnegative combination of single premises, which the multiplier LP
    // (products of size >= 1, degree >= 1) can express, so skipping the LP
    // cannot flip an answer.  Guard on the budget so the argument holds.
    let fast = options.entailment.interval_fast_path
        && options.entailment.max_product_size >= 1
        && options.entailment.max_product_degree >= 1;

    // Initiation pruning: atoms at ℓ_init must follow from Θ_init.
    if budget.exhausted(entail.lookups) {
        return None;
    }
    if options.require_initiation {
        let theta: Arc<[Poly]> = ts.init_assertion().atoms().to_vec().into();
        let theta_closure = if fast { Some(close_premises(theta.iter())) } else { None };
        let init = ts.init_loc();
        atom_sets[init.0].retain(|atom| {
            // A closure contradiction is a Farkas proof of `-1 >= 0`, so the
            // `implies_false` disjunct below is already known to hold.
            if let Some(cl) = &theta_closure {
                if cl.entails(atom) || cl.is_contradiction() {
                    lp.absint_fast_paths += 1;
                    return true;
                }
            }
            entail.entails(&theta, atom, &options.entailment, lp)
                || entail.implies_false(&theta, &options.entailment, lp)
        });
    }

    // Houdini fixpoint: drop atoms that are not preserved by some transition.
    // The unprimed → primed rename is a fixed map of the system, and the
    // fixpoint only ever *removes* atoms, so each atom's primed form is
    // computed once here and carried through the sweeps in a parallel list
    // instead of being re-renamed per transition per iteration.
    let prime = |atom: &Poly| {
        atom.rename(&|v| if ts.vars().is_unprimed(v) { ts.vars().primed(v.index()) } else { v })
    };
    let mut primed_sets: Vec<Vec<Poly>> =
        atom_sets.iter().map(|set| set.iter().map(prime).collect()).collect();
    let skip = |loc: Loc| Some(loc) == options.forced_false;
    for _ in 0..options.max_iterations {
        let mut changed = false;
        for t in ts.transitions() {
            if budget.exhausted(entail.lookups) {
                return None;
            }
            if skip(t.source) || skip(t.target) {
                continue;
            }
            if atom_sets[t.target.0].is_empty() {
                continue;
            }
            let mut premise_vec: Vec<Poly> = atom_sets[t.source.0].clone();
            premise_vec.extend(t.relation.atoms().iter().cloned());
            // One shared allocation for the whole atom batch: the entailment
            // cache compares stored premises by `Arc::ptr_eq` first.
            let premises: Arc<[Poly]> = premise_vec.into();
            // One interval closure per transition per sweep serves the whole
            // atom batch of this target.
            let closure = if fast { Some(close_premises(premises.iter())) } else { None };
            // A closure contradiction is a Farkas proof that the premises are
            // unsatisfiable, so this transition can never force a drop: with
            // the unsat fallback every obligation answers true, and without
            // it the `implies_false` veto below would fire (its LP is
            // feasible by the very same derivation).  Skip the batch.
            if closure.as_ref().is_some_and(PremiseClosure::is_contradiction) {
                lp.absint_fast_paths += 1;
                continue;
            }
            // If the premises are unsatisfiable nothing needs to be dropped.
            let target = t.target.0;
            let before = atom_sets[target].len();
            let kept: Vec<usize> = primed_sets[target]
                .iter()
                .enumerate()
                .filter(|(_, primed)| {
                    if premises.contains(primed) {
                        return true;
                    }
                    if closure.as_ref().is_some_and(|cl| cl.entails(primed)) {
                        lp.absint_fast_paths += 1;
                        return true;
                    }
                    entail.entails(
                        &premises,
                        primed,
                        &adaptive(&premises, primed, &options.entailment),
                        lp,
                    )
                })
                .map(|(i, _)| i)
                .collect();
            if kept.len() != before {
                // Check unsatisfiability once before committing to a drop: if
                // the premises are contradictory the obligations hold anyway.
                if entail.implies_false(
                    &premises,
                    &adaptive(&premises, &Poly::one(), &options.entailment),
                    lp,
                ) {
                    continue;
                }
                atom_sets[target] = kept.iter().map(|&i| atom_sets[target][i].clone()).collect();
                primed_sets[target] =
                    kept.iter().map(|&i| primed_sets[target][i].clone()).collect();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut map = PredicateMap::unsatisfiable(ts.num_locs());
    for loc in ts.locations() {
        if Some(loc) == options.forced_false {
            map.set(loc, PropPredicate::unsatisfiable());
        } else {
            map.set(
                loc,
                PropPredicate::from_assertion(Assertion::from_polys(atom_sets[loc.0].clone())),
            );
        }
    }
    debug_assert!(
        {
            let skipped: Vec<usize> = ts
                .transitions()
                .iter()
                .filter(|t| skip(t.source) || skip(t.target))
                .map(|t| t.id)
                .collect();
            is_inductive(ts, &map, &options.entailment, &skipped).is_ok()
        },
        "houdini result must be inductive"
    );
    Some(map)
}

fn adaptive(premises: &[Poly], conclusion: &Poly, base: &EntailmentOptions) -> EntailmentOptions {
    let deg = premises
        .iter()
        .map(|p| p.total_degree())
        .chain(std::iter::once(conclusion.total_degree()))
        .max()
        .unwrap_or(0);
    if deg <= 1 {
        // Restrict only the product budget; non-budget fields (unsat
        // fallback, the LP-engine selector) keep the caller's values.
        base.linearized()
    } else {
        base.clone()
    }
}

/// Convenience: checks whether the synthesized map, together with the
/// initiation condition, certifies that a predicate holds at a location for
/// all reachable configurations (used in tests).
pub fn invariant_implies_at(
    _ts: &TransitionSystem,
    map: &PredicateMap,
    loc: Loc,
    fact: &Poly,
    opts: &EntailmentOptions,
) -> bool {
    map.at(loc).disjuncts().iter().all(|d| {
        predicate_entails(
            d.atoms(),
            &PropPredicate::from_assertion(Assertion::ge_zero(fact.clone())),
            opts,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use revterm_lang::parse_program;
    use revterm_num::int;
    use revterm_poly::Var;
    use revterm_ts::interp::Valuation;
    use revterm_ts::{lower, Resolution};

    const RUNNING: &str =
        "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";

    #[test]
    fn forward_invariant_of_simple_counter() {
        // n := 0; while n <= 5 do n := n + 1; od
        // Expected invariant fact: n >= 0 at every reachable location.
        let ts = lower(&parse_program("n := 0; while n <= 5 do n := n + 1; od").unwrap()).unwrap();
        let mut samples = SampleSet::new();
        samples.add(ts.init_loc(), Valuation::from_i64s(&[0]));
        let options = SynthesisOptions::default();
        let map = synthesize_invariant(&ts, &samples, &options);
        // The map is inductive and initiation holds.
        assert!(is_inductive(&ts, &map, &options.entailment, &[]).is_ok());
        assert!(crate::initiation_holds(&ts, &map, &options.entailment));
        // It implies n >= 0 at the loop head.
        let n = Poly::var(Var(0));
        assert!(invariant_implies_at(&ts, &map, ts.init_loc(), &n, &options.entailment));
        // And n <= 6 at the terminal location (the loop exits with n = 6).
        let bound = Poly::constant_i64(6) - &n;
        assert!(invariant_implies_at(&ts, &map, ts.terminal_loc(), &bound, &options.entailment));
    }

    #[test]
    fn check1_style_invariant_for_running_example() {
        // Example 5.4: restrict x := ndet() to x := 9; from the initial
        // configuration (x, y) = (9, 0) the invariant x >= 9 holds everywhere
        // and ℓ_out is unreachable.
        let ts = lower(&parse_program(RUNNING).unwrap()).unwrap();
        let ndet_id = ts.ndet_transitions().next().unwrap().id;
        let restricted = ts.restrict(&Resolution::from_pairs([(ndet_id, Poly::constant_i64(9))]));

        // Samples: run the (now deterministic) system from (9, 0).
        let mut samples = SampleSet::new();
        let start =
            revterm_ts::interp::Config::new(restricted.init_loc(), Valuation::from_i64s(&[9, 0]));
        for cfg in revterm_ts::interp::run(&restricted, &start, &|_, _| int(0), 60) {
            samples.add(cfg.loc, cfg.vals);
        }

        let options = SynthesisOptions {
            require_initiation: false,
            forced_false: Some(restricted.terminal_loc()),
            ..SynthesisOptions::default()
        };
        let map = synthesize_invariant(&restricted, &samples, &options);

        // The invariant entails x >= 9 at the outer loop head.
        let x = Poly::var(Var(0));
        assert!(invariant_implies_at(
            &restricted,
            &map,
            restricted.init_loc(),
            &(&x - &Poly::constant_i64(9)),
            &options.entailment
        ));
        // ℓ_out is forced to false and every transition into it has an
        // unsatisfiable premise under the invariant — the Check 1 success
        // condition.
        assert!(map.at(restricted.terminal_loc()).is_empty());
        for t in restricted.transitions_to(restricted.terminal_loc()) {
            if t.source == restricted.terminal_loc() {
                continue;
            }
            let mut premises: Vec<Poly> = map.at(t.source).disjuncts()[0].atoms().to_vec();
            premises.extend(t.relation.atoms().iter().cloned());
            assert!(
                revterm_solver::implies_false(&premises, &options.entailment),
                "transition t{} into ℓ_out should be blocked by the invariant",
                t.id
            );
        }
    }

    #[test]
    fn initiation_pruning_respects_theta() {
        // Θ_init is x = 5; candidate atoms x >= 9 must be pruned at ℓ_init even
        // though no sample is provided.
        let ts = lower(&parse_program("x := 5; while x >= 0 do x := x - 1; od").unwrap()).unwrap();
        let options = SynthesisOptions::default();
        let map = synthesize_invariant(&ts, &SampleSet::new(), &options);
        assert!(crate::initiation_holds(&ts, &map, &options.entailment));
        assert!(is_inductive(&ts, &map, &options.entailment, &[]).is_ok());
        // x <= 5 is an invariant of this program and should be implied at the
        // loop head.
        let x = Poly::var(Var(0));
        assert!(invariant_implies_at(
            &ts,
            &map,
            ts.init_loc(),
            &(Poly::constant_i64(5) - &x),
            &options.entailment
        ));
    }

    #[test]
    fn unreachable_terminal_in_trivial_infinite_loop() {
        // while true do skip; od — ℓ_out is unreachable; with forced_false the
        // synthesis succeeds trivially and the incoming-transition check holds
        // because there are no transitions into ℓ_out at all.
        let ts = lower(&parse_program("while true do skip; od").unwrap()).unwrap();
        assert_eq!(
            ts.transitions_to(ts.terminal_loc()).filter(|t| t.source != ts.terminal_loc()).count(),
            0
        );
        let options = SynthesisOptions {
            require_initiation: false,
            forced_false: Some(ts.terminal_loc()),
            ..SynthesisOptions::default()
        };
        let map = synthesize_invariant(&ts, &SampleSet::new(), &options);
        assert!(map.at(ts.terminal_loc()).is_empty());
    }
}
