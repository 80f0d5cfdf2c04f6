//! Small bounded integers in monotone unary ("order") encoding.
//!
//! A [`UnaryInt`] with maximum `m` is a register of `m` literals where
//! `bits[j]` means *value ≥ j+1*, with monotonicity enforced. This is
//! the natural representation for the paper's symbolic lengths
//! (`len_c(Gᵢ)` ranges over `2..=14` in the Table 1 experiment): order
//! comparisons against constants are single literals, which makes the
//! `minimal(len_c(G₀))` bound-tightening loop cheap.

use crate::solver::SmtSolver;
use fec_sat::Lit;

/// A non-negative integer in `0..=max`, unary-encoded.
#[derive(Clone, Debug)]
pub struct UnaryInt {
    /// `bits[j]` ⇔ value ≥ j+1; monotone non-increasing.
    bits: Vec<Lit>,
}

impl UnaryInt {
    /// Creates a fresh integer in `0..=max` (monotonicity asserted in
    /// the solver's current scope — use at the root for persistent
    /// variables).
    pub fn new(s: &mut SmtSolver, max: usize) -> UnaryInt {
        let bits: Vec<Lit> = (0..max).map(|_| s.fresh_lit()).collect();
        for w in bits.windows(2) {
            // value ≥ j+2 → value ≥ j+1
            s.add_clause(&[!w[1], w[0]]);
        }
        UnaryInt { bits }
    }

    /// Wraps an existing unary register (e.g. a counting register from
    /// [`SmtSolver::counting_register`]) as an integer.
    pub fn from_register(bits: Vec<Lit>) -> UnaryInt {
        UnaryInt { bits }
    }

    /// A constant integer.
    pub fn constant(s: &mut SmtSolver, value: usize, max: usize) -> UnaryInt {
        assert!(value <= max, "constant out of range");
        let t = s.lit_true();
        let f = s.lit_false();
        UnaryInt {
            bits: (0..max).map(|j| if j < value { t } else { f }).collect(),
        }
    }

    /// The inclusive upper bound of the representation.
    pub fn max(&self) -> usize {
        self.bits.len()
    }

    /// Literal meaning `self ≥ k` (constant for k = 0 or k > max).
    pub fn ge_const(&self, s: &mut SmtSolver, k: usize) -> Lit {
        if k == 0 {
            s.lit_true()
        } else if k > self.bits.len() {
            s.lit_false()
        } else {
            self.bits[k - 1]
        }
    }

    /// Asserts `self ≤ k` in the current scope.
    pub fn assert_le(&self, s: &mut SmtSolver, k: usize) {
        if k < self.bits.len() {
            s.add_clause(&[!self.bits[k]]);
        }
    }

    /// Asserts `self ≥ k` in the current scope.
    pub fn assert_ge(&self, s: &mut SmtSolver, k: usize) {
        if k > 0 {
            assert!(k <= self.bits.len(), "assert_ge: {k} out of range");
            s.add_clause(&[self.bits[k - 1]]);
        }
    }

    /// Asserts `self = k` in the current scope.
    pub fn assert_eq(&self, s: &mut SmtSolver, k: usize) {
        self.assert_ge(s, k);
        self.assert_le(s, k);
    }

    /// Asserts `self ≤ other` in the current scope.
    pub fn assert_le_int(&self, s: &mut SmtSolver, other: &UnaryInt) {
        for j in 0..self.bits.len() {
            // self ≥ j+1 → other ≥ j+1
            let rhs = other.ge_const(s, j + 1);
            let lhs = self.bits[j];
            s.add_clause(&[!lhs, rhs]);
        }
    }

    /// Reads the value from the current model.
    pub fn model_value(&self, s: &SmtSolver) -> usize {
        self.bits.iter().take_while(|&&b| s.model_lit(b)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmtResult;

    #[test]
    fn fresh_int_takes_every_value() {
        for target in 0..=4 {
            let mut s = SmtSolver::new();
            let x = UnaryInt::new(&mut s, 4);
            x.assert_eq(&mut s, target);
            assert_eq!(s.solve(&[]), SmtResult::Sat);
            assert_eq!(x.model_value(&s), target);
        }
    }

    #[test]
    fn le_and_ge_bounds() {
        let mut s = SmtSolver::new();
        let x = UnaryInt::new(&mut s, 10);
        x.assert_ge(&mut s, 3);
        x.assert_le(&mut s, 5);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        let v = x.model_value(&s);
        assert!((3..=5).contains(&v), "value {v} outside [3,5]");
        x.assert_le(&mut s, 2);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
    }

    #[test]
    fn constant_int() {
        let mut s = SmtSolver::new();
        let c = UnaryInt::constant(&mut s, 3, 8);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert_eq!(c.model_value(&s), 3);
        let ge3 = c.ge_const(&mut s, 3);
        let ge4 = c.ge_const(&mut s, 4);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(s.model_lit(ge3));
        assert!(!s.model_lit(ge4));
    }

    #[test]
    fn le_int_comparison() {
        let mut s = SmtSolver::new();
        let x = UnaryInt::new(&mut s, 5);
        let y = UnaryInt::new(&mut s, 5);
        x.assert_le_int(&mut s, &y);
        y.assert_le(&mut s, 2);
        x.assert_ge(&mut s, 2);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(x.model_value(&s) <= y.model_value(&s));
        x.assert_ge(&mut s, 3);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
    }

    #[test]
    fn register_linkage_counts_bits() {
        let mut s = SmtSolver::new();
        let xs: Vec<Lit> = (0..5).map(|_| s.fresh_lit()).collect();
        let reg = s.counting_register(&xs, xs.len());
        let count = UnaryInt::from_register(reg);
        // force 2 of 5 true, then the integer must read 2
        s.add_clause(&[xs[0]]);
        s.add_clause(&[xs[3]]);
        for i in [1, 2, 4] {
            s.add_clause(&[!xs[i]]);
        }
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert_eq!(count.model_value(&s), 2);
        // and asserting = 3 must now fail
        count.assert_eq(&mut s, 3);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
    }

    #[test]
    fn out_of_range_comparisons_are_constants() {
        let mut s = SmtSolver::new();
        let x = UnaryInt::new(&mut s, 3);
        let ge0 = x.ge_const(&mut s, 0);
        let ge9 = x.ge_const(&mut s, 9);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(s.model_lit(ge0));
        assert!(!s.model_lit(ge9));
    }
}
