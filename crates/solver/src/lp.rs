//! Exact linear programming over the rationals (two-phase primal simplex).
//!
//! # Encoding
//!
//! An [`LpProblem`] is a list of constraints `expr REL 0` over free or
//! non-negative variables, plus an optional minimisation objective. `solve`
//! lowers it to standard form the classic way: every free variable is split
//! into a difference of two non-negative columns, every inequality gains a
//! slack/surplus column, rows are sign-normalised so the right-hand side is
//! non-negative, and one artificial column per row provides the initial
//! basis for phase 1 (minimise the sum of artificials; feasible iff that
//! optimum is zero). Phase 2 then minimises the real objective with the
//! artificial columns banned. Bland's rule (lowest improving column index,
//! lowest basic variable on ties) guarantees termination.
//!
//! # The engine: revised simplex over an eta-file basis
//!
//! [`LpProblem::solve`] never updates a tableau. It keeps the constraint
//! matrix column-major as [`SparseRow`]s — sorted `(row, coefficient)`
//! nonzero lists, since the rows of this workspace's Farkas/Handelman
//! encodings have 3–6 nonzeros regardless of how many multiplier columns
//! exist — and the inverse of the current basis `B` in **product form**: a
//! list of *etas* — matrices that differ from the identity in one column —
//! with `B⁻¹ = η_k ⋯ η_2 η_1`. A pivot appends one eta (built from the
//! entering column's FTRAN image) instead of re-eliminating every row, and
//! the two linear systems simplex needs per iteration are solved by sweeps
//! over the eta file that walk stored nonzeros only:
//!
//! * **FTRAN** (`B d = a_q`): apply the etas in creation order; an eta whose
//!   slot entry is zero in the running vector is skipped entirely.
//! * **BTRAN** (`Bᵀ y = c_B`): apply the etas in reverse order; each
//!   replaces one entry of the running vector by a dot product with its
//!   stored column.
//!
//! Every solve starts cold from the all-artificial basis and prices with the
//! exact reduced costs `c_j − y·a_j`. Those equal a tableau's reduced-cost
//! row entry for entry, so the engine makes exactly the Bland's-rule choices
//! of the dense reference tableau [`LpProblem::solve_dense`], and the two
//! return **bitwise-identical** results. That equality is the differential
//! oracle: the tests here, the fuzz harness's LP-level check and the
//! `num_profile` bench digests all enforce it. [`LpStats`] counts solves and
//! pivots for the prover's statistics.
//!
//! ```
//! use revterm_num::rat;
//! use revterm_poly::{LinExpr, Var};
//! use revterm_solver::{LpProblem, Rel, VarKind};
//!
//! // minimise x + y subject to x + y >= 2, x - y = 1, x, y >= 0.
//! let mut lp = LpProblem::new();
//! lp.set_var_kind(Var(0), VarKind::NonNegative);
//! lp.set_var_kind(Var(1), VarKind::NonNegative);
//! lp.add_constraint(LinExpr::var(Var(0)) + LinExpr::var(Var(1)) - LinExpr::constant(rat(2)), Rel::Ge);
//! lp.add_constraint(LinExpr::var(Var(0)) - LinExpr::var(Var(1)) - LinExpr::constant(rat(1)), Rel::Eq);
//! lp.set_objective(LinExpr::var(Var(0)) + LinExpr::var(Var(1)));
//! let solution = lp.solve().solution().unwrap().clone();
//! assert_eq!(solution.objective().clone(), rat(2));
//! assert_eq!(lp.solve(), lp.solve_dense());
//! ```

use revterm_num::Rat;
use revterm_poly::{LinExpr, Var};
use std::collections::BTreeMap;
use std::fmt;

/// Relation of a linear constraint to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `expr = 0`
    Eq,
    /// `expr ≥ 0`
    Ge,
    /// `expr ≤ 0`
    Le,
}

/// Sign restriction of an LP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarKind {
    /// The variable ranges over all rationals.
    #[default]
    Free,
    /// The variable is restricted to be `≥ 0`.
    NonNegative,
}

/// A sparse vector as `(index, coefficient)` pairs; the engine stores each
/// constraint-matrix column as one, indexed by row.
///
/// # Invariants
///
/// * entries are sorted by **strictly increasing** index (no duplicate
///   indices);
/// * **no explicit zeros** are stored — an index absent from the list has
///   coefficient exactly zero;
/// * coefficients are canonical [`Rat`]s (reduced, positive denominator),
///   so machine-word-sized values stay in the packed tier and the simplex
///   kernels inherit the packed fast paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseRow {
    entries: Vec<(u32, Rat)>,
}

impl SparseRow {
    /// Creates an empty row (all coefficients zero).
    pub fn new() -> SparseRow {
        SparseRow::default()
    }

    /// Creates an empty row with capacity for `n` nonzeros.
    pub fn with_capacity(n: usize) -> SparseRow {
        SparseRow { entries: Vec::with_capacity(n) }
    }

    /// Builds a row from arbitrary `(column, coefficient)` pairs: sorts by
    /// column, sums duplicate columns, and drops zero coefficients.
    pub fn from_entries(entries: impl IntoIterator<Item = (u32, Rat)>) -> SparseRow {
        let mut raw: Vec<(u32, Rat)> = entries.into_iter().collect();
        raw.sort_by_key(|(c, _)| *c);
        let mut row = SparseRow::with_capacity(raw.len());
        for (col, coeff) in raw {
            match row.entries.last_mut() {
                Some((last, acc)) if *last == col => {
                    *acc += &coeff;
                    if acc.is_zero() {
                        row.entries.pop();
                    }
                }
                _ => {
                    if !coeff.is_zero() {
                        row.entries.push((col, coeff));
                    }
                }
            }
        }
        row
    }

    /// Appends a nonzero coefficient at an index strictly greater than every
    /// index already present (the builder fast path for callers that visit
    /// indices in increasing order). Crate-internal: unlike [`SparseRow::from_entries`] it trusts the
    /// caller with the sorted/no-zeros invariants, checking them only in
    /// debug builds.
    pub(crate) fn push(&mut self, col: u32, coeff: Rat) {
        debug_assert!(!coeff.is_zero(), "explicit zero pushed into a sparse row");
        debug_assert!(
            self.entries.last().is_none_or(|(last, _)| *last < col),
            "sparse row push out of order"
        );
        self.entries.push((col, coeff));
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` iff the row is entirely zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The coefficient at `col`, or `None` if it is zero.
    pub fn get(&self, col: u32) -> Option<&Rat> {
        self.entries.binary_search_by_key(&col, |(c, _)| *c).ok().map(|idx| &self.entries[idx].1)
    }

    /// Iterates over the nonzeros in increasing column order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Rat)> + '_ {
        self.entries.iter().map(|(c, v)| (*c, v))
    }
}

/// A satisfying assignment returned by the solver.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LpSolution {
    values: BTreeMap<Var, Rat>,
    objective: Rat,
}

impl LpSolution {
    /// The value assigned to a variable (zero if the variable did not occur).
    pub fn value(&self, v: Var) -> Rat {
        self.values.get(&v).cloned().unwrap_or_else(Rat::zero)
    }

    /// The value of the minimised objective (zero for pure feasibility calls).
    pub fn objective(&self) -> &Rat {
        &self.objective
    }

    /// Iterates over `(variable, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Rat)> + '_ {
        self.values.iter()
    }
}

/// Result of solving an [`LpProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpResult {
    /// The constraints are unsatisfiable.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// An optimal (or, without an objective, feasible) assignment.
    Optimal(LpSolution),
}

impl LpResult {
    /// Returns the solution if one was found.
    pub fn solution(&self) -> Option<&LpSolution> {
        match self {
            LpResult::Optimal(s) => Some(s),
            _ => None,
        }
    }

    /// Returns `true` iff the problem was found feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, LpResult::Optimal(_))
    }
}

/// A linear program: constraints `expr REL 0`, optional minimisation
/// objective, per-variable sign restrictions.
///
/// ```
/// use revterm_poly::{LinExpr, Var};
/// use revterm_num::rat;
/// use revterm_solver::{LpProblem, Rel, VarKind};
///
/// // minimise x subject to x >= 3, x free.
/// let mut lp = LpProblem::new();
/// lp.set_var_kind(Var(0), VarKind::Free);
/// lp.add_constraint(LinExpr::var(Var(0)) - LinExpr::constant(rat(3)), Rel::Ge);
/// lp.set_objective(LinExpr::var(Var(0)));
/// let sol = lp.solve().solution().unwrap().clone();
/// assert_eq!(sol.value(Var(0)), rat(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    var_kinds: BTreeMap<Var, VarKind>,
    constraints: Vec<(LinExpr, Rel)>,
    objective: Option<LinExpr>,
}

impl fmt::Display for LpProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "lp with {} constraints", self.constraints.len())?;
        for (e, r) in &self.constraints {
            writeln!(
                f,
                "  {} {} 0",
                e,
                match r {
                    Rel::Eq => "=",
                    Rel::Ge => ">=",
                    Rel::Le => "<=",
                }
            )?;
        }
        Ok(())
    }
}

/// The user-variable → simplex-column mapping shared by the engine and the
/// dense reference: each free variable occupies an adjacent
/// (positive, negative) column pair, each non-negative variable one column.
struct ColumnMap {
    vars: Vec<Var>,
    col_of_pos: BTreeMap<Var, usize>,
    col_of_neg: BTreeMap<Var, usize>,
    structural_cols: usize,
}

impl ColumnMap {
    /// Reads a user-variable assignment back out of the column values.
    fn reconstruct(&self, col_values: &[Rat], objective: Rat) -> LpSolution {
        let mut values = BTreeMap::new();
        for &v in &self.vars {
            let pos = col_values[self.col_of_pos[&v]].clone();
            let val = match self.col_of_neg.get(&v) {
                Some(&neg) => &pos - &col_values[neg],
                None => pos,
            };
            values.insert(v, val);
        }
        LpSolution { values, objective }
    }
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> LpProblem {
        LpProblem::default()
    }

    /// Declares the sign restriction of a variable (default: free).
    pub fn set_var_kind(&mut self, v: Var, kind: VarKind) {
        self.var_kinds.insert(v, kind);
    }

    /// Adds the constraint `expr REL 0`.
    pub fn add_constraint(&mut self, expr: LinExpr, rel: Rel) {
        self.constraints.push((expr, rel));
    }

    /// Sets the linear objective to minimise.
    pub fn set_objective(&mut self, objective: LinExpr) {
        self.objective = Some(objective);
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Maps every user variable to one or two simplex columns.
    fn column_map(&self) -> ColumnMap {
        let mut vars: Vec<Var> = self
            .constraints
            .iter()
            .flat_map(|(e, _)| e.vars().collect::<Vec<_>>())
            .chain(self.objective.iter().flat_map(|e| e.vars().collect::<Vec<_>>()))
            .collect();
        vars.sort();
        vars.dedup();

        let mut col_of_pos: BTreeMap<Var, usize> = BTreeMap::new();
        let mut col_of_neg: BTreeMap<Var, usize> = BTreeMap::new();
        let mut num_cols = 0usize;
        for &v in &vars {
            let kind = self.var_kinds.get(&v).copied().unwrap_or_default();
            col_of_pos.insert(v, num_cols);
            num_cols += 1;
            if kind == VarKind::Free {
                col_of_neg.insert(v, num_cols);
                num_cols += 1;
            }
        }
        ColumnMap { vars, col_of_pos, col_of_neg, structural_cols: num_cols }
    }

    /// The dense phase-2 cost vector of the objective (if any).
    fn cost_vector(&self, map: &ColumnMap, total_cols: usize) -> Option<Vec<Rat>> {
        let obj = self.objective.as_ref()?;
        let mut cost = vec![Rat::zero(); total_cols];
        for (v, c) in obj.nonzeros() {
            cost[map.col_of_pos[&v]] += c;
            if let Some(&neg) = map.col_of_neg.get(&v) {
                cost[neg] -= c;
            }
        }
        Some(cost)
    }

    /// Solves the problem with the revised simplex (see the module docs).
    ///
    /// Two-phase Bland's-rule simplex from the all-artificial basis, with
    /// the basis inverse kept as an eta file. Results are bitwise-identical
    /// to [`LpProblem::solve_dense`].
    pub fn solve(&self) -> LpResult {
        self.solve_counted(&mut LpStats::default())
    }

    /// [`LpProblem::solve`], adding its solve and pivots to `stats`.
    pub(crate) fn solve_counted(&self, stats: &mut LpStats) -> LpResult {
        let map = self.column_map();
        let m = self.constraints.len();
        // Standard form `A·x = b` with `b ≥ 0`, stored column-major: the
        // engine works against original columns, never updated rows.
        // Structural columns come first, then one slack/surplus column per
        // inequality in constraint order, then the identity block of
        // artificials. A row whose right-hand side would be negative is
        // negated. The outer loop runs in row order, so each column
        // receives its entries sorted by row.
        let num_slack = self.constraints.iter().filter(|(_, rel)| *rel != Rel::Eq).count();
        let total_decision_cols = map.structural_cols + num_slack;
        let total_cols = total_decision_cols + m;
        let mut cols: Vec<SparseRow> = vec![SparseRow::new(); total_cols];
        let mut rhs: Vec<Rat> = Vec::with_capacity(m);
        let mut next_slack = map.structural_cols;
        for (i, (expr, rel)) in self.constraints.iter().enumerate() {
            let row = i as u32;
            let b = -expr.constant_part().clone();
            let flip = b.is_negative();
            let signed = |c: Rat| if flip { -c } else { c };
            for (v, c) in expr.nonzeros() {
                cols[map.col_of_pos[&v]].push(row, signed(c.clone()));
                if let Some(&neg) = map.col_of_neg.get(&v) {
                    cols[neg].push(row, signed(-c.clone()));
                }
            }
            let slack = match rel {
                Rel::Eq => None,
                Rel::Ge => Some(-Rat::one()),
                Rel::Le => Some(Rat::one()),
            };
            if let Some(c) = slack {
                cols[next_slack].push(row, signed(c));
                next_slack += 1;
            }
            cols[total_decision_cols + i].push(row, Rat::one());
            rhs.push(if flip { -b } else { b });
        }

        stats.solves += 1;
        let mut engine = RevisedSimplex::new(&cols, rhs, total_decision_cols);
        // Phase 1: minimise the sum of artificial variables.
        let phase1_cost: Vec<Rat> = (0..total_cols)
            .map(|j| if j >= total_decision_cols { Rat::one() } else { Rat::zero() })
            .collect();
        let banned = vec![false; total_cols];
        if !engine.simplex(&phase1_cost, &banned, stats) {
            // Phase 1 objective is bounded below by 0, so this cannot happen.
            return LpResult::Infeasible;
        }
        let phase1_value: Rat =
            engine.basis.iter().enumerate().map(|(i, &b)| &phase1_cost[b] * &engine.x_b[i]).sum();
        if phase1_value.is_positive() {
            return LpResult::Infeasible;
        }
        engine.drive_out_artificials(stats);
        // Ban artificial columns from re-entering.
        let mut banned = vec![false; total_cols];
        banned[total_decision_cols..].fill(true);

        // Phase 2 (only if an objective is present).
        let objective_value;
        if let Some(cost) = self.cost_vector(&map, total_cols) {
            if !engine.simplex(&cost, &banned, stats) {
                return LpResult::Unbounded;
            }
            let basis_value: Rat =
                engine.basis.iter().enumerate().map(|(i, &b)| &cost[b] * &engine.x_b[i]).sum();
            objective_value = &basis_value
                + self.objective.as_ref().expect("cost implies objective").constant_part();
        } else {
            objective_value = Rat::zero();
        }

        // Extract the solution.
        let mut col_values = vec![Rat::zero(); total_cols];
        for (i, &b) in engine.basis.iter().enumerate() {
            col_values[b] = engine.x_b[i].clone();
        }
        LpResult::Optimal(map.reconstruct(&col_values, objective_value))
    }

    /// Solves the problem with the dense reference simplex.
    ///
    /// A plain dense tableau, kept only as the reference that the tests, the
    /// fuzz harness's LP-level check and the `num_profile` bench bin compare
    /// [`LpProblem::solve`] against. It must produce **bitwise-identical**
    /// results: both make the same Bland's-rule pivot choices, and exact
    /// arithmetic makes every intermediate value representation-independent.
    pub fn solve_dense(&self) -> LpResult {
        let map = self.column_map();
        let m = self.constraints.len();

        // Build rows: a·x (cols) = b with b >= 0, adding slack/surplus columns.
        let mut rows: Vec<Vec<Rat>> = Vec::with_capacity(m);
        let mut rhs: Vec<Rat> = Vec::with_capacity(m);
        let mut slack_specs: Vec<(usize, Rat)> = Vec::new(); // (row, coefficient)
        for (i, (expr, rel)) in self.constraints.iter().enumerate() {
            let mut row = vec![Rat::zero(); map.structural_cols];
            for (v, c) in expr.coeffs() {
                row[map.col_of_pos[v]] += c;
                if let Some(&neg) = map.col_of_neg.get(v) {
                    row[neg] -= c;
                }
            }
            let b = -expr.constant_part().clone();
            let slack = match rel {
                Rel::Eq => None,
                Rel::Ge => Some(-Rat::one()),
                Rel::Le => Some(Rat::one()),
            };
            rows.push(row);
            rhs.push(b);
            if let Some(c) = slack {
                slack_specs.push((i, c));
            }
        }
        // Append slack columns.
        let num_slack = slack_specs.len();
        for row in rows.iter_mut() {
            row.extend(std::iter::repeat_n(Rat::zero(), num_slack));
        }
        for (k, (row_idx, coeff)) in slack_specs.iter().enumerate() {
            rows[*row_idx][map.structural_cols + k] = coeff.clone();
        }
        let total_decision_cols = map.structural_cols + num_slack;
        // Normalise signs so that rhs >= 0.
        for i in 0..m {
            if rhs[i].is_negative() {
                rhs[i] = -std::mem::take(&mut rhs[i]);
                for c in rows[i].iter_mut() {
                    if !c.is_zero() {
                        *c = -std::mem::take(c);
                    }
                }
            }
        }
        // Append artificial columns (one per row) to get an initial basis.
        for (i, row) in rows.iter_mut().enumerate() {
            row.extend(std::iter::repeat_n(Rat::zero(), m));
            row[total_decision_cols + i] = Rat::one();
        }
        let total_cols = total_decision_cols + m;
        let mut basis: Vec<usize> = (0..m).map(|i| total_decision_cols + i).collect();

        // Phase 1: minimise the sum of artificial variables.
        let phase1_cost: Vec<Rat> = (0..total_cols)
            .map(|j| if j >= total_decision_cols { Rat::one() } else { Rat::zero() })
            .collect();
        let banned: Vec<bool> = vec![false; total_cols];
        if !simplex_dense(&mut rows, &mut rhs, &mut basis, &phase1_cost, &banned) {
            // Phase 1 objective is bounded below by 0, so this cannot happen.
            return LpResult::Infeasible;
        }
        let phase1_value: Rat =
            basis.iter().enumerate().map(|(i, &b)| &phase1_cost[b] * &rhs[i]).sum();
        if phase1_value.is_positive() {
            return LpResult::Infeasible;
        }
        // Drive artificial variables out of the basis where possible.
        for i in 0..m {
            if basis[i] >= total_decision_cols {
                if let Some(j) = (0..total_decision_cols).find(|&j| !rows[i][j].is_zero()) {
                    pivot_dense(&mut rows, &mut rhs, &mut basis, i, j);
                }
            }
        }
        // Ban artificial columns from ever entering again.
        let mut banned = vec![false; total_cols];
        banned[total_decision_cols..].fill(true);

        // Phase 2 (only if an objective is present).
        let objective_value;
        if let Some(cost) = self.cost_vector(&map, total_cols) {
            if !simplex_dense(&mut rows, &mut rhs, &mut basis, &cost, &banned) {
                return LpResult::Unbounded;
            }
            let basis_value: Rat = basis.iter().enumerate().map(|(i, &b)| &cost[b] * &rhs[i]).sum();
            objective_value = &basis_value
                + self.objective.as_ref().expect("cost implies objective").constant_part();
        } else {
            objective_value = Rat::zero();
        }

        // Extract the solution.
        let mut col_values = vec![Rat::zero(); total_cols];
        for (i, &b) in basis.iter().enumerate() {
            col_values[b] = rhs[i].clone();
        }
        LpResult::Optimal(map.reconstruct(&col_values, objective_value))
    }
}

/// Counters kept by the LP engine, surfaced through the prover's per-run
/// statistics.
///
/// All counters are monotone; callers snapshot and subtract
/// ([`LpStats::delta_since`]) to attribute work to one prove call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Solves performed.
    pub solves: u64,
    /// Simplex pivots performed (phase 1, artificial drive-out and phase 2).
    pub pivots: u64,
    /// Always 0. The engine used to warm-start from cached bases; every
    /// solve now starts cold. The field stays because outside readers of
    /// [`LpStats`] (the repository benchmark) still read it.
    pub warm_lookups: u64,
    /// Always 0, for the same reason as [`LpStats::warm_lookups`].
    pub warm_hits: u64,
    /// Entailment queries answered by the abstract-interpretation interval
    /// fast path without building an LP at all (see `revterm_absint`).
    pub absint_fast_paths: u64,
}

impl LpStats {
    /// Adds `other`'s counters into `self`.
    pub fn accumulate(&mut self, other: &LpStats) {
        self.solves += other.solves;
        self.pivots += other.pivots;
        self.absint_fast_paths += other.absint_fast_paths;
    }

    /// The counter increments since an `earlier` snapshot of the same
    /// (monotone) counters.
    pub fn delta_since(&self, earlier: &LpStats) -> LpStats {
        LpStats {
            solves: self.solves - earlier.solves,
            pivots: self.pivots - earlier.pivots,
            absint_fast_paths: self.absint_fast_paths - earlier.absint_fast_paths,
            ..LpStats::default()
        }
    }
}

/// One factor of the product-form basis inverse: a matrix equal to the
/// identity except in column `slot`, which holds the stored nonzeros.
/// Appending the eta built from `w = B⁻¹·a_q` (pivoting at `slot`) updates
/// `B⁻¹` for the basis change `basis[slot] ← q`.
#[derive(Debug, Clone)]
struct Eta {
    slot: u32,
    /// Sorted `(row, value)` nonzeros of the replaced column, including the
    /// diagonal entry `(slot, 1 / w[slot])`.
    entries: Vec<(u32, Rat)>,
}

/// Working state of the revised simplex: the original columns, the current
/// basis, the eta-file factorization of its inverse, and the basic solution.
struct RevisedSimplex<'a> {
    cols: &'a [SparseRow],
    total_decision_cols: usize,
    m: usize,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    etas: Vec<Eta>,
    x_b: Vec<Rat>,
}

/// Dot product of a dense vector with a sparse column, skipping zero
/// entries on both sides.
fn sparse_dot(dense: &[Rat], col: &SparseRow) -> Rat {
    let mut acc = Rat::zero();
    for (i, a) in col.iter() {
        let d = &dense[i as usize];
        if !d.is_zero() {
            acc += &(d * a);
        }
    }
    acc
}

impl<'a> RevisedSimplex<'a> {
    /// Installs the all-artificial starting basis (`B = I`, `x_B = b`).
    fn new(cols: &'a [SparseRow], rhs: Vec<Rat>, total_decision_cols: usize) -> RevisedSimplex<'a> {
        let m = rhs.len();
        let basis: Vec<usize> = (0..m).map(|i| total_decision_cols + i).collect();
        let mut in_basis = vec![false; cols.len()];
        for &b in &basis {
            in_basis[b] = true;
        }
        RevisedSimplex { cols, total_decision_cols, m, basis, in_basis, etas: Vec::new(), x_b: rhs }
    }

    /// FTRAN: applies `B⁻¹` to a dense vector in place. Etas apply in
    /// creation order; an eta whose slot entry is currently zero is skipped.
    fn ftran(&self, v: &mut [Rat]) {
        for eta in &self.etas {
            let slot = eta.slot as usize;
            let vs = std::mem::take(&mut v[slot]);
            if vs.is_zero() {
                continue;
            }
            for (i, e) in &eta.entries {
                let i = *i as usize;
                if i == slot {
                    v[i] = e * &vs;
                } else {
                    v[i] += &(e * &vs);
                }
            }
        }
    }

    /// BTRAN: applies `B⁻ᵀ` to a dense vector in place. Etas apply in
    /// reverse order; each replaces its slot entry by a dot product with its
    /// stored column.
    fn btran(&self, y: &mut [Rat]) {
        for eta in self.etas.iter().rev() {
            let mut acc = Rat::zero();
            for (i, e) in &eta.entries {
                let yi = &y[*i as usize];
                if !yi.is_zero() {
                    acc += &(e * yi);
                }
            }
            y[eta.slot as usize] = acc;
        }
    }

    /// `B⁻¹ · column j` as a dense vector.
    fn ftran_col(&self, j: usize) -> Vec<Rat> {
        let mut v = vec![Rat::zero(); self.m];
        for (i, a) in self.cols[j].iter() {
            v[i as usize] = a.clone();
        }
        self.ftran(&mut v);
        v
    }

    /// Appends the inverse eta that pivots `w = B⁻¹·a_entering` at `slot`
    /// (requires `w[slot] != 0`).
    fn push_eta(&mut self, slot: usize, w: &[Rat]) {
        debug_assert!(!w[slot].is_zero(), "eta pivot element is zero");
        let inv = w[slot].recip();
        let mut entries = Vec::with_capacity(w.iter().filter(|v| !v.is_zero()).count());
        for (i, wi) in w.iter().enumerate() {
            if i == slot {
                entries.push((i as u32, inv.clone()));
            } else if !wi.is_zero() {
                entries.push((i as u32, -(wi * &inv)));
            }
        }
        debug_assert!(
            entries.windows(2).all(|e| e[0].0 < e[1].0),
            "eta entries not strictly increasing by row"
        );
        self.etas.push(Eta { slot: slot as u32, entries });
    }

    /// Bland pricing: the lowest-index improving non-basic column, priced
    /// with exact reduced costs `c_j − y·a_j` where `y = B⁻ᵀ c_B` comes from
    /// one BTRAN sweep. These equal the dense reference tableau's reduced-cost
    /// row, so both pick the same entering column.
    fn price(&self, cost: &[Rat], banned: &[bool]) -> Option<usize> {
        let mut y: Vec<Rat> = self.basis.iter().map(|&b| cost[b].clone()).collect();
        self.btran(&mut y);
        for j in 0..cost.len() {
            if banned[j] || self.in_basis[j] {
                continue;
            }
            let reduced = &cost[j] - &sparse_dot(&y, &self.cols[j]);
            if reduced.is_negative() {
                return Some(j);
            }
        }
        None
    }

    /// The dense reference tableau's ratio test on `w = B⁻¹·a_entering`: lowest ratio
    /// `x_B[i] / w[i]` over `w[i] > 0`, ties broken towards the lowest basic
    /// variable index.
    fn ratio_test(&self, w: &[Rat]) -> Option<usize> {
        let mut leaving: Option<usize> = None;
        let mut best_ratio: Option<Rat> = None;
        for (i, wi) in w.iter().enumerate() {
            if !wi.is_positive() {
                continue;
            }
            let ratio = &self.x_b[i] / wi;
            let better = match &best_ratio {
                None => true,
                Some(b) => {
                    ratio < *b
                        || (ratio == *b
                            && self.basis[i]
                                < self.basis[leaving.expect("leaving set with best_ratio")])
                }
            };
            if better {
                best_ratio = Some(ratio);
                leaving = Some(i);
            }
        }
        leaving
    }

    /// Replaces the basic variable at `slot` by `entering`: updates the
    /// basic solution, appends the pivot's eta, and fixes the bookkeeping.
    fn pivot(&mut self, slot: usize, entering: usize, w: &[Rat], stats: &mut LpStats) {
        let theta = &self.x_b[slot] / &w[slot];
        for (i, wi) in w.iter().enumerate() {
            if i != slot && !wi.is_zero() {
                self.x_b[i] -= &(&theta * wi);
            }
        }
        self.x_b[slot] = theta;
        self.push_eta(slot, w);
        self.in_basis[self.basis[slot]] = false;
        self.in_basis[entering] = true;
        self.basis[slot] = entering;
        stats.pivots += 1;
    }

    /// Runs Bland's-rule simplex to optimality from the current (feasible)
    /// basis. Returns `false` iff the objective is unbounded below.
    fn simplex(&mut self, cost: &[Rat], banned: &[bool], stats: &mut LpStats) -> bool {
        loop {
            let Some(entering) = self.price(cost, banned) else { return true };
            let w = self.ftran_col(entering);
            let Some(slot) = self.ratio_test(&w) else { return false };
            self.pivot(slot, entering, &w, stats);
        }
    }

    /// Pivots remaining artificial basic variables out wherever some
    /// decision column has a nonzero in their tableau row — the same
    /// lowest-column choice as the dense reference's drive-out (basic
    /// decision columns are unit vectors there, with a zero in every other
    /// row, so skipping them here changes nothing).
    fn drive_out_artificials(&mut self, stats: &mut LpStats) {
        for slot in 0..self.m {
            if self.basis[slot] < self.total_decision_cols {
                continue;
            }
            // Row `slot` of the current tableau is `ρ·A` with `ρ` the
            // corresponding row of `B⁻¹`, i.e. BTRAN of a unit vector.
            let mut rho = vec![Rat::zero(); self.m];
            rho[slot] = Rat::one();
            self.btran(&mut rho);
            let entering = (0..self.total_decision_cols)
                .find(|&j| !self.in_basis[j] && !sparse_dot(&rho, &self.cols[j]).is_zero());
            if let Some(j) = entering {
                let w = self.ftran_col(j);
                debug_assert!(!w[slot].is_zero(), "drive-out pivot on zero element");
                self.pivot(slot, j, &w, stats);
            }
        }
    }
}

/// Runs the dense reference simplex on a tableau that already contains a
/// feasible basis. Returns `false` if the objective is unbounded below.
fn simplex_dense(
    rows: &mut [Vec<Rat>],
    rhs: &mut [Rat],
    basis: &mut [usize],
    cost: &[Rat],
    banned: &[bool],
) -> bool {
    let m = rows.len();
    let n = cost.len();
    let mut in_basis = vec![false; n];
    for &b in basis.iter() {
        in_basis[b] = true;
    }
    loop {
        // Rows whose basic variable has zero cost contribute nothing to any
        // reduced cost; skipping them up front makes the phase-1 scan (where
        // most basic variables are zero-cost after a few pivots) cheap.
        let active_rows: Vec<usize> = (0..m).filter(|&i| !cost[basis[i]].is_zero()).collect();
        // Reduced cost of column j: c_j - Σ_i c_{basis[i]} * rows[i][j].
        let mut entering = None;
        for j in 0..n {
            if banned[j] || in_basis[j] {
                continue;
            }
            let mut reduced = cost[j].clone();
            for &i in &active_rows {
                if !rows[i][j].is_zero() {
                    reduced -= &(&cost[basis[i]] * &rows[i][j]);
                }
            }
            if reduced.is_negative() {
                entering = Some(j); // Bland's rule: first (lowest-index) improving column.
                break;
            }
        }
        let entering = match entering {
            Some(j) => j,
            None => return true, // optimal
        };
        // Ratio test.
        let mut leaving: Option<usize> = None;
        let mut best_ratio: Option<Rat> = None;
        for i in 0..m {
            if rows[i][entering].is_positive() {
                let ratio = &rhs[i] / &rows[i][entering];
                let better = match &best_ratio {
                    None => true,
                    Some(b) => {
                        ratio < *b
                            || (ratio == *b
                                && basis[i] < basis[leaving.expect("leaving set with best_ratio")])
                    }
                };
                if better {
                    best_ratio = Some(ratio);
                    leaving = Some(i);
                }
            }
        }
        let leaving = match leaving {
            Some(i) => i,
            None => return false, // unbounded
        };
        in_basis[basis[leaving]] = false;
        in_basis[entering] = true;
        pivot_dense(rows, rhs, basis, leaving, entering);
    }
}

/// Pivots the dense tableau so that column `col` becomes basic in row `row`.
///
/// Clone-free: the pivot row is scaled in place, and every elimination walks
/// only the non-zero entries of the pivot row (the tableau rows produced by
/// the Farkas/Handelman encodings are sparse, so this skips most columns).
fn pivot_dense(
    rows: &mut [Vec<Rat>],
    rhs: &mut [Rat],
    basis: &mut [usize],
    row: usize,
    col: usize,
) {
    let m = rows.len();
    debug_assert!(!rows[row][col].is_zero(), "pivot on zero element");
    let inv = rows[row][col].recip();
    if !inv.is_one() {
        for c in rows[row].iter_mut() {
            if !c.is_zero() {
                *c *= &inv;
            }
        }
        rhs[row] *= &inv;
    }
    for i in 0..m {
        if i == row {
            continue;
        }
        // Taking the factor zeroes rows[i][col], which is exactly the value
        // elimination assigns to it (rows[row][col] == 1 after scaling).
        let factor = std::mem::take(&mut rows[i][col]);
        if factor.is_zero() {
            continue;
        }
        let (pivot_row, target_row) = if i < row {
            let (lo, hi) = rows.split_at_mut(row);
            (&hi[0], &mut lo[i])
        } else {
            let (lo, hi) = rows.split_at_mut(i);
            (&lo[row], &mut hi[0])
        };
        for (j, p) in pivot_row.iter().enumerate() {
            if j == col || p.is_zero() {
                continue;
            }
            target_row[j] -= &(&factor * p);
        }
        let delta = &factor * &rhs[row];
        rhs[i] -= &delta;
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use revterm_num::{rat, ratio, Rat};

    fn e(c: i64) -> LinExpr {
        LinExpr::constant(rat(c))
    }
    fn v(i: u32) -> LinExpr {
        LinExpr::var(Var(i))
    }

    #[test]
    fn trivial_feasible_and_infeasible() {
        let mut lp = LpProblem::new();
        lp.add_constraint(e(1), Rel::Ge); // 1 >= 0
        assert!(lp.solve().is_feasible());

        let mut lp = LpProblem::new();
        lp.add_constraint(e(-1), Rel::Ge); // -1 >= 0
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn feasibility_with_free_variables() {
        // x >= 3 and x <= -2 is infeasible; x >= 3 and x <= 10 is feasible.
        let mut lp = LpProblem::new();
        lp.add_constraint(v(0) - e(3), Rel::Ge);
        lp.add_constraint(v(0) + e(2), Rel::Le);
        assert_eq!(lp.solve(), LpResult::Infeasible);

        let mut lp = LpProblem::new();
        lp.add_constraint(v(0) - e(3), Rel::Ge);
        lp.add_constraint(v(0) - e(10), Rel::Le);
        let sol = lp.solve().solution().unwrap().clone();
        let x = sol.value(Var(0));
        assert!(x >= rat(3) && x <= rat(10));
    }

    #[test]
    fn negative_solutions_require_free_variables() {
        // x <= -5 with x free is feasible, with x >= 0 it is not.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::Free);
        lp.add_constraint(v(0) + e(5), Rel::Le);
        let sol = lp.solve().solution().unwrap().clone();
        assert!(sol.value(Var(0)) <= rat(-5));

        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.add_constraint(v(0) + e(5), Rel::Le);
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn optimisation_simple() {
        // minimise x + y subject to x >= 1, y >= 2.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) - e(1), Rel::Ge);
        lp.add_constraint(v(1) - e(2), Rel::Ge);
        lp.set_objective(v(0) + v(1));
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.objective().clone(), rat(3));
        assert_eq!(sol.value(Var(0)), rat(1));
        assert_eq!(sol.value(Var(1)), rat(2));
    }

    #[test]
    fn optimisation_with_equalities_and_fractions() {
        // minimise 2x + 3y subject to x + y = 10, x - y <= 2, x, y >= 0.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) + v(1) - e(10), Rel::Eq);
        lp.add_constraint(v(0) - v(1) - e(2), Rel::Le);
        lp.set_objective(v(0).scale(&rat(2)) + v(1).scale(&rat(3)));
        let sol = lp.solve().solution().unwrap().clone();
        // Optimal at x = 6, y = 4: objective 24.
        assert_eq!(sol.objective().clone(), rat(24));
        assert_eq!(sol.value(Var(0)), rat(6));
        assert_eq!(sol.value(Var(1)), rat(4));
        // Solution satisfies the constraints exactly.
        assert_eq!(&sol.value(Var(0)) + &sol.value(Var(1)), rat(10));
    }

    #[test]
    fn fractional_optimum() {
        // minimise y subject to 2y >= 1  =>  y = 1/2.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(1).scale(&rat(2)) - e(1), Rel::Ge);
        lp.set_objective(v(1));
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(1)), ratio(1, 2));
        assert_eq!(sol.objective().clone(), ratio(1, 2));
    }

    #[test]
    fn unbounded_objective() {
        // minimise -x subject to x >= 0 (x can grow forever).
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.add_constraint(v(0), Rel::Ge);
        lp.set_objective(-v(0));
        assert_eq!(lp.solve(), LpResult::Unbounded);
        assert_eq!(lp.solve_dense(), LpResult::Unbounded);
    }

    #[test]
    fn equality_system_solved_exactly() {
        // x + 2y = 7, 3x - y = 0  =>  x = 1, y = 3.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::Free);
        lp.set_var_kind(Var(1), VarKind::Free);
        lp.add_constraint(v(0) + v(1).scale(&rat(2)) - e(7), Rel::Eq);
        lp.add_constraint(v(0).scale(&rat(3)) - v(1), Rel::Eq);
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(0)), rat(1));
        assert_eq!(sol.value(Var(1)), rat(3));
    }

    #[test]
    fn degenerate_and_redundant_constraints() {
        // Redundant copies of the same constraint must not confuse the solver.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        for _ in 0..4 {
            lp.add_constraint(v(0) - e(2), Rel::Ge);
        }
        lp.add_constraint(v(0) - e(2), Rel::Eq);
        lp.set_objective(v(0));
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(0)), rat(2));
    }

    #[test]
    fn farkas_style_feasibility() {
        // Multipliers l1, l2 >= 0 with  l1 - l2 = 0  and  l1 + l2 = 2  =>  l1 = l2 = 1.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) - v(1), Rel::Eq);
        lp.add_constraint(v(0) + v(1) - e(2), Rel::Eq);
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(0)), rat(1));
        assert_eq!(sol.value(Var(1)), rat(1));
    }

    #[test]
    fn moderately_sized_random_like_system_is_handled() {
        // A chain x1 <= x2 <= ... <= x8, x8 <= 5, minimise -x1 - note the
        // optimum is x1 = ... = x8 = 5.
        let mut lp = LpProblem::new();
        for i in 0..8 {
            lp.set_var_kind(Var(i), VarKind::Free);
        }
        for i in 0..7 {
            lp.add_constraint(v(i + 1) - v(i), Rel::Ge);
        }
        lp.add_constraint(v(7) - e(5), Rel::Le);
        lp.set_objective(-v(0));
        let sol = lp.solve().solution().unwrap().clone();
        assert_eq!(sol.value(Var(0)), rat(5));
        assert_eq!(sol.objective().clone(), rat(-5));
    }

    // -----------------------------------------------------------------------
    // SparseRow invariants and kernels.
    // -----------------------------------------------------------------------

    #[test]
    fn sparse_row_construction_and_lookup() {
        let row = SparseRow::from_entries(vec![
            (7, rat(3)),
            (2, rat(1)),
            (7, rat(-3)), // cancels the first entry
            (4, rat(0)),  // explicit zero is dropped
            (9, ratio(1, 2)),
        ]);
        assert_eq!(row.nnz(), 2);
        assert_eq!(row.get(2), Some(&rat(1)));
        assert_eq!(row.get(7), None);
        assert_eq!(row.get(4), None);
        assert_eq!(row.get(9), Some(&ratio(1, 2)));
        let cols: Vec<u32> = row.iter().map(|(c, _)| c).collect();
        assert_eq!(cols, vec![2, 9]);
        assert!(SparseRow::new().is_empty());
    }

    // -----------------------------------------------------------------------
    // Engine vs dense reference differential testing.
    // -----------------------------------------------------------------------

    /// Builds a random Farkas-flavoured system: equality/inequality rows of
    /// 1–3 nonzeros over a mix of free and non-negative variables, half the
    /// time with an objective.
    fn random_lp(rng: &mut SplitMix64, with_objective: bool) -> LpProblem {
        let n_vars = 2 + rng.next_below(5) as usize;
        let n_rows = 2 + rng.next_below(7) as usize;
        let mut lp = LpProblem::new();
        for v in 0..n_vars {
            let kind = if rng.next_below(3) == 0 { VarKind::Free } else { VarKind::NonNegative };
            lp.set_var_kind(Var(v as u32), kind);
        }
        for _ in 0..n_rows {
            let mut expr =
                LinExpr::constant(Rat::packed(rng.next_in_range(-8, 8), rng.next_in_range(1, 4)));
            for _ in 0..(1 + rng.next_below(3)) {
                let var = rng.next_below(n_vars as u64) as u32;
                let c = rng.next_in_range(-5, 5);
                if c != 0 {
                    expr.add_coeff(Var(var), rat(c));
                }
            }
            let rel = match rng.next_below(3) {
                0 => Rel::Eq,
                1 => Rel::Ge,
                _ => Rel::Le,
            };
            lp.add_constraint(expr, rel);
        }
        if with_objective {
            let mut obj = LinExpr::zero();
            for v in 0..n_vars {
                obj.add_coeff(Var(v as u32), rat(rng.next_in_range(0, 3)));
            }
            lp.set_objective(obj);
        }
        lp
    }

    #[test]
    fn prop_revised_and_dense_engines_agree_on_random_systems() {
        // The engine must be indistinguishable from the dense reference on
        // feasible, infeasible and unbounded instances — not just the
        // verdict but the exact solution values (both make the same
        // Bland's-rule choices).
        let mut rng = SplitMix64::new(0xD1FF_5EED);
        let (mut feasible, mut infeasible) = (0, 0);
        for round in 0..120 {
            let lp = random_lp(&mut rng, round % 2 == 0);
            let revised = lp.solve();
            assert_eq!(revised, lp.solve_dense(), "revised vs dense diverged on:\n{lp}");
            match revised {
                LpResult::Optimal(_) => feasible += 1,
                LpResult::Infeasible => infeasible += 1,
                LpResult::Unbounded => {}
            }
        }
        // The generator must actually exercise both exits.
        assert!(feasible > 10, "generator produced too few feasible systems");
        assert!(infeasible > 10, "generator produced too few infeasible systems");
    }

    #[test]
    fn degenerate_pivots_agree_across_engines() {
        // Redundant constraints force degenerate (zero-ratio) pivots; the
        // engine must still agree with the dense reference.
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        for _ in 0..4 {
            lp.add_constraint(v(0) - e(2), Rel::Ge);
        }
        lp.add_constraint(v(0) - e(2), Rel::Eq);
        lp.set_objective(v(0));
        let revised = lp.solve();
        assert_eq!(revised.solution().map(|s| s.objective().clone()), Some(rat(2)));
        assert_eq!(revised, lp.solve_dense());
    }

    #[test]
    fn lp_stats_accumulate_and_delta() {
        let mut a = LpStats { solves: 3, pivots: 10, absint_fast_paths: 0, ..LpStats::default() };
        let before = a;
        a.accumulate(&LpStats { solves: 1, pivots: 4, absint_fast_paths: 2, ..LpStats::default() });
        assert_eq!(
            a.delta_since(&before),
            LpStats { solves: 1, pivots: 4, absint_fast_paths: 2, ..LpStats::default() }
        );
        assert_eq!(a.solves, 4);
        assert_eq!(a.pivots, 14);
    }

    #[test]
    fn solves_and_pivots_are_counted() {
        let mut lp = LpProblem::new();
        lp.set_var_kind(Var(0), VarKind::NonNegative);
        lp.set_var_kind(Var(1), VarKind::NonNegative);
        lp.add_constraint(v(0) - v(1), Rel::Eq);
        lp.add_constraint(v(0) + v(1) - e(2), Rel::Eq);
        let mut stats = LpStats::default();
        assert_eq!(lp.solve_counted(&mut stats), lp.solve());
        assert_eq!(stats.solves, 1);
        assert!(stats.pivots > 0, "a cold solve from the artificial basis must pivot");
        assert_eq!((stats.warm_lookups, stats.warm_hits), (0, 0));
    }
}
