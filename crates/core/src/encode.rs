//! Lowering generators and properties to the finite-domain solver.
//!
//! A [`SymbolicGenerator`] is the solver-side image of a generator
//! `G_c^k`: one boolean per coefficient cell plus a unary-encoded
//! symbolic check length. The identity part of `G` is not materialized
//! (it is fixed by well-formedness constraint (1) of §3.2, so we bake
//! it in structurally — same reasoning for constraint (2): `H` is a
//! transpose view of the same cells).
//!
//! Columns at index `≥ len_c` are forced to zero, so GF(2) products
//! over the full `max_check` columns automatically ignore inactive
//! columns — this is how a *symbolic* check length coexists with
//! fixed-width circuits.

use fec_gf2::{BitMatrix, BitVec};
use fec_hamming::Generator;
use fec_smt::{Lit, SmtSolver};

/// How CEGIS turns a failed candidate into new synthesizer constraints.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CexMode {
    /// Paper-faithful (`makeCex`, §3.4): block the exact candidate
    /// matrix so it is never proposed again. Weak learning — §6 lists
    /// generalizing this as future work.
    BlockCandidate,
    /// Generalized counterexamples: the verifier's witness data word
    /// `x` yields the constraint "the codeword of `x` has weight ≥ md"
    /// on the *symbolic* cells, pruning every generator that fails on
    /// `x`, not just the current one.
    #[default]
    DataWord,
}

/// The solver-side representation of one generator.
pub struct SymbolicGenerator {
    data_len: usize,
    max_check: usize,
    /// `cells[y][x]`: coefficient bit at row `y`, check column `x`.
    cells: Vec<Vec<Lit>>,
    /// Column-activity bits: `col_active[j]` ⟺ `len_c ≥ j + 1`, so
    /// they are also the unary register of the check length.
    col_active: Vec<Lit>,
}

impl SymbolicGenerator {
    /// Allocates a symbolic generator with `data_len` data bits and up
    /// to `max_check` check bits.
    ///
    /// Asserts (permanently) the structural well-formedness: monotone
    /// column activity and zeroing of inactive columns.
    pub fn new(s: &mut SmtSolver, data_len: usize, max_check: usize) -> SymbolicGenerator {
        assert!(data_len > 0 && max_check > 0);
        let col_active: Vec<Lit> = (0..max_check).map(|_| s.fresh_lit()).collect();
        for w in col_active.windows(2) {
            s.add_clause(&[!w[1], w[0]]); // len_c ≥ j+1 → len_c ≥ j
        }
        let cells: Vec<Vec<Lit>> = (0..data_len)
            .map(|_| (0..max_check).map(|_| s.fresh_lit()).collect())
            .collect();
        for row in &cells {
            for (x, &cell) in row.iter().enumerate() {
                s.add_clause(&[!cell, col_active[x]]); // inactive ⇒ zero
            }
        }
        SymbolicGenerator {
            data_len,
            max_check,
            cells,
            col_active,
        }
    }

    /// Data length `k`.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Upper bound on the check length.
    pub fn max_check(&self) -> usize {
        self.max_check
    }

    /// The symbolic check length as a unary register: `len_c()[j]`
    /// holds iff `len_c ≥ j + 1`. Bound it with
    /// `SmtSolver::constrain_register_at_most`/`_at_least`.
    pub fn len_c(&self) -> &[Lit] {
        &self.col_active
    }

    /// The coefficient cell literal at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> Lit {
        self.cells[row][col]
    }

    /// All coefficient cells, flattened (for `len_1` cardinality).
    pub fn all_cells(&self) -> Vec<Lit> {
        self.cells.iter().flatten().copied().collect()
    }

    /// Reads the concrete generator out of a satisfying model.
    pub fn extract(&self, s: &SmtSolver) -> Generator {
        let active = self.col_active.iter().take_while(|&&a| s.model_lit(a));
        let c = active.count().max(1);
        let mut p = BitMatrix::zeros(self.data_len, c);
        for y in 0..self.data_len {
            for x in 0..c {
                if s.model_lit(self.cells[y][x]) {
                    p.set(y, x, true);
                }
            }
        }
        Generator::from_coefficients(p)
    }

    /// Assumption literals that pin this symbolic generator to a
    /// concrete candidate — the paper's `makeAssertion(G'')`, realized
    /// as solve-time assumptions so the verifier stays incremental.
    pub fn pin_assumptions(&self, g: &Generator) -> Vec<Lit> {
        let mut out = Vec::with_capacity(self.data_len * self.max_check + self.max_check);
        let c = g.check_len().min(self.max_check);
        for (j, &a) in self.col_active.iter().enumerate() {
            out.push(if j < c { a } else { !a });
        }
        for y in 0..self.data_len {
            for x in 0..self.max_check {
                let bit = x < c && g.coefficients().get(y, x);
                out.push(if bit {
                    self.cells[y][x]
                } else {
                    !self.cells[y][x]
                });
            }
        }
        out
    }

    /// The paper's `makeCex(G'')`: a blocking clause forbidding this
    /// exact candidate (cells and check length).
    pub fn blocking_clause(&self, s: &SmtSolver, g: &Generator) -> Vec<Lit> {
        let _ = s;
        self.pin_assumptions(g).into_iter().map(|l| !l).collect()
    }

    /// The generalized counterexample: for the witness data word `x`
    /// (non-zero), asserts that the codeword of `x` has weight ≥ the
    /// required minimum distance `d`, over the symbolic cells.
    pub fn add_dataword_counterexample(&self, s: &mut SmtSolver, x: &BitVec, d: usize) {
        assert_eq!(x.len(), self.data_len, "counterexample length mismatch");
        let dweight = x.count_ones();
        assert!(dweight > 0, "counterexample must be a non-zero data word");
        if dweight >= d {
            return; // data weight alone satisfies the distance
        }
        let need = d - dweight;
        if need > self.max_check {
            // even with every check column set, the codeword of `x`
            // cannot reach the required weight: this problem shape is
            // infeasible — record that as an empty clause
            s.add_clause(&[]);
            return;
        }
        // parity of column j over the selected rows (inactive columns
        // contribute 0 because their cells are forced 0)
        let parities: Vec<Lit> = (0..self.max_check)
            .map(|j| {
                let sel: Vec<Lit> = x.iter_ones().map(|y| self.cells[y][j]).collect();
                s.xor_all(&sel)
            })
            .collect();
        s.at_least_k(&parities, need);
    }

    /// Builds the verifier-side minimum-distance circuit: a symbolic
    /// data word `x ≠ 0` and a unary counting register over the bits of
    /// its codeword (formula φ_md of §3.2, in the linear-code
    /// single-word form: two codewords differing in fewer than `d` bits
    /// exist iff a non-zero codeword of weight `< d` exists).
    ///
    /// Returns the `x` literals, so the caller can read the witness,
    /// and the register `weight`, where `weight[j]` holds iff the
    /// codeword has weight ≥ `j + 1`. The violation of distance `d` is
    /// `¬weight[d − 1]`: a unit clause for a fixed distance, or a
    /// solve-time assumption when `d` changes between queries. The
    /// register counts only up to `max_d`, the largest distance the
    /// caller will ask about, so it costs O(n · max_d) clauses.
    pub fn assert_distance_violation(
        &self,
        s: &mut SmtSolver,
        max_d: usize,
    ) -> (Vec<Lit>, Vec<Lit>) {
        let xs: Vec<Lit> = (0..self.data_len).map(|_| s.fresh_lit()).collect();
        s.add_clause(&xs); // x ≠ 0
        let parities: Vec<Lit> = (0..self.max_check)
            .map(|j| {
                let terms: Vec<Lit> = (0..self.data_len)
                    .map(|y| s.and2(xs[y], self.cells[y][j]))
                    .collect();
                s.xor_all(&terms)
            })
            .collect();
        let mut all: Vec<Lit> = xs.clone();
        all.extend(parities);
        let weight = s.counting_register(&all, max_d);
        (xs, weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_hamming::{distance, standards};
    use fec_smt::SmtResult;

    /// Pins the symbolic check length to `c`.
    fn fix_len_c(s: &mut SmtSolver, sym: &SymbolicGenerator, c: usize) {
        s.constrain_register_at_least(sym.len_c(), c);
        s.constrain_register_at_most(sym.len_c(), c);
    }

    #[test]
    fn extract_round_trips_a_pinned_candidate() {
        let mut s = SmtSolver::new();
        let sym = SymbolicGenerator::new(&mut s, 4, 5);
        let g = standards::hamming_7_4();
        let pins = sym.pin_assumptions(&g);
        assert_eq!(s.solve(&pins), SmtResult::Sat);
        let got = sym.extract(&s);
        // extraction keeps only the active columns
        assert_eq!(got.check_len(), 3);
        assert_eq!(got.coefficients(), g.coefficients());
    }

    #[test]
    fn inactive_columns_are_zero() {
        let mut s = SmtSolver::new();
        let sym = SymbolicGenerator::new(&mut s, 3, 4);
        // force len_c = 2 and a cell in column 3 — must be unsat
        fix_len_c(&mut s, &sym, 2);
        s.add_clause(&[sym.cell(0, 3)]);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
    }

    #[test]
    fn blocking_clause_excludes_exactly_that_candidate() {
        let mut s = SmtSolver::new();
        let sym = SymbolicGenerator::new(&mut s, 4, 3);
        fix_len_c(&mut s, &sym, 3);
        let g = standards::hamming_7_4();
        let clause = sym.blocking_clause(&s, &g);
        s.add_clause(&clause);
        // the blocked candidate itself is now unsat …
        assert_eq!(s.solve(&sym.pin_assumptions(&g)), SmtResult::Unsat);
        // … but other matrices remain available
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert_ne!(sym.extract(&s).coefficients(), g.coefficients());
    }

    #[test]
    fn distance_violation_finds_low_weight_codeword() {
        // pin a BAD generator (duplicate columns ⇒ md = 2) and require
        // md 3: the violation circuit must find a witness
        let mut s = SmtSolver::new();
        let sym = SymbolicGenerator::new(&mut s, 3, 3);
        let bad = Generator::from_coeff_str("110\n110\n011").unwrap();
        let (xs, weight) = sym.assert_distance_violation(&mut s, 3);
        s.add_clause(&[!weight[2]]);
        assert_eq!(s.solve(&sym.pin_assumptions(&bad)), SmtResult::Sat);
        // witness: read x, confirm concretely that its codeword weight < 3
        let x = BitVec::from_bools(&xs.iter().map(|&l| s.model_lit(l)).collect::<Vec<_>>());
        assert!(!x.is_zero());
        let w = bad.encode(&x);
        assert!(
            w.count_ones() < 3,
            "witness {x} gives weight {}",
            w.count_ones()
        );
    }

    #[test]
    fn distance_violation_unsat_for_good_generator() {
        let mut s = SmtSolver::new();
        let sym = SymbolicGenerator::new(&mut s, 4, 3);
        let good = standards::hamming_7_4();
        let (_, weight) = sym.assert_distance_violation(&mut s, 3);
        s.add_clause(&[!weight[2]]);
        assert_eq!(s.solve(&sym.pin_assumptions(&good)), SmtResult::Unsat);
    }

    #[test]
    fn distance_bound_is_one_assumption() {
        // one verifier answers every distance: assuming ¬weight[d − 1]
        // asks for a codeword of weight < d, so Hamming (7,4) passes
        // d = 3 and fails d = 4 on the same solver
        let mut s = SmtSolver::new();
        let sym = SymbolicGenerator::new(&mut s, 4, 3);
        let (xs, weight) = sym.assert_distance_violation(&mut s, 4);
        let g = standards::hamming_7_4();
        let query = |d: usize| [sym.pin_assumptions(&g), vec![!weight[d - 1]]].concat();
        assert_eq!(s.solve(&query(3)), SmtResult::Unsat);
        assert_eq!(s.solve(&query(4)), SmtResult::Sat);
        let x = BitVec::from_bools(&xs.iter().map(|&l| s.model_lit(l)).collect::<Vec<_>>());
        assert_eq!(g.encode(&x).count_ones(), 3);
        assert_eq!(s.solve(&query(3)), SmtResult::Unsat, "d = 4 left no trace");
    }

    #[test]
    fn dataword_counterexample_prunes_offending_matrices() {
        let mut s = SmtSolver::new();
        let sym = SymbolicGenerator::new(&mut s, 3, 3);
        fix_len_c(&mut s, &sym, 3);
        // counterexample: data word 100 must map to weight ≥ 3 codeword,
        // so row 0 of P needs weight ≥ 2
        let x = BitVec::from_bitstring("100").unwrap();
        sym.add_dataword_counterexample(&mut s, &x, 3);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        let g = sym.extract(&s);
        assert!(g.coefficients().row(0).count_ones() >= 2);
        // and pinning a generator with a weight-1 row 0 is now unsat
        let bad = Generator::from_coeff_str("100\n111\n011").unwrap();
        assert_eq!(s.solve(&sym.pin_assumptions(&bad)), SmtResult::Unsat);
    }

    #[test]
    fn cegis_by_hand_synthesizes_distance_3() {
        // miniature CEGIS loop entirely at this layer: synthesize a
        // (6,3) code with md = 3
        let mut syn = SmtSolver::new();
        let sym_s = SymbolicGenerator::new(&mut syn, 3, 3);
        fix_len_c(&mut syn, &sym_s, 3);
        let mut ver = SmtSolver::new();
        let sym_v = SymbolicGenerator::new(&mut ver, 3, 3);
        let (xs, weight) = sym_v.assert_distance_violation(&mut ver, 3);
        ver.add_clause(&[!weight[2]]);
        let mut found = None;
        for _ in 0..200 {
            assert_eq!(syn.solve(&[]), SmtResult::Sat, "synthesizer ran dry");
            let cand = sym_s.extract(&syn);
            if ver.solve(&sym_v.pin_assumptions(&cand)) == SmtResult::Unsat {
                found = Some(cand);
                break;
            }
            let x = BitVec::from_bools(&xs.iter().map(|&l| ver.model_lit(l)).collect::<Vec<_>>());
            sym_s.add_dataword_counterexample(&mut syn, &x, 3);
        }
        let g = found.expect("no generator found in 200 iterations");
        assert_eq!(distance::min_distance_exhaustive(&g), 3);
    }
}
