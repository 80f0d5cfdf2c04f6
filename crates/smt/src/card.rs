//! Cardinality constraints: `Σ xᵢ ⋈ k`, in the totalizer encoding
//! (Bailleux–Boufkhad): a balanced tree of unary "counting registers"
//! whose output literal `out[j]` means *at least j+1 inputs are true*.
//!
//! Every register counts only as far as a cap: each merge keeps
//! `min(|a| + |b|, cap)` outputs, so a bound `k` costs O(n·k) clauses
//! with cap `k + 1` instead of the full register's O(n²) (a distance
//! check over a 30,004-bit codeword stays small). Arc-consistent for
//! every bound below the cap.

use crate::solver::SmtSolver;
use fec_sat::Lit;

impl SmtSolver {
    /// Builds a unary counting register for `lits` that counts up to
    /// `cap`: the returned vector `out` has `min(|lits|, cap)` outputs,
    /// and `out[j]` is true iff at least `j+1` of the inputs are true,
    /// with monotonicity (`out[j+1] → out[j]`) enforced. Pass
    /// `lits.len()` for a register that counts every input.
    pub fn counting_register(&mut self, lits: &[Lit], cap: usize) -> Vec<Lit> {
        let mark = self.enc_begin();
        let reg = self.totalizer(lits, cap);
        self.enc_end("totalizer", mark);
        reg
    }

    /// Asserts `Σ lits ≤ k`.
    pub fn at_most_k(&mut self, lits: &[Lit], k: usize) {
        if k >= lits.len() {
            return; // vacuous
        }
        if k == 0 {
            for &l in lits {
                self.add_clause(&[!l]);
            }
            return;
        }
        let reg = self.counting_register(lits, k + 1);
        self.constrain_register_at_most(&reg, k);
    }

    /// Asserts `Σ lits ≥ k`.
    pub fn at_least_k(&mut self, lits: &[Lit], k: usize) {
        if k == 0 {
            return; // vacuous
        }
        assert!(
            k <= lits.len(),
            "at_least_k: bound {k} exceeds {} inputs",
            lits.len()
        );
        if k == lits.len() {
            for &l in lits {
                self.add_clause(&[l]);
            }
            return;
        }
        let reg = self.counting_register(lits, k);
        self.constrain_register_at_least(&reg, k);
    }

    /// Given a unary register, asserts the counted value is ≤ k.
    pub fn constrain_register_at_most(&mut self, reg: &[Lit], k: usize) {
        if k < reg.len() {
            self.add_clause(&[!reg[k]]);
        }
    }

    /// Given a unary register, asserts the counted value is ≥ k.
    pub fn constrain_register_at_least(&mut self, reg: &[Lit], k: usize) {
        if k > 0 {
            assert!(k <= reg.len(), "register too short for ≥ {k}");
            self.add_clause(&[reg[k - 1]]);
        }
    }

    // --- totalizer ------------------------------------------------------

    fn totalizer(&mut self, lits: &[Lit], cap: usize) -> Vec<Lit> {
        if cap == 0 {
            return Vec::new();
        }
        match lits.len() {
            0 => Vec::new(),
            1 => vec![lits[0]],
            _ => {
                let mid = lits.len() / 2;
                let left = self.totalizer(&lits[..mid], cap);
                let right = self.totalizer(&lits[mid..], cap);
                self.totalizer_merge(&left, &right, cap)
            }
        }
    }

    /// Merges two unary registers into one counting their sum up to
    /// `cap`. An input register shorter than `cap` counts all of its
    /// inputs, so the `≤` clauses that omit its literal stay sound.
    fn totalizer_merge(&mut self, a: &[Lit], b: &[Lit], cap: usize) -> Vec<Lit> {
        let n = (a.len() + b.len()).min(cap);
        let out: Vec<Lit> = (0..n).map(|_| self.fresh_lit()).collect();
        // out[k] true if alpha of a and beta of b with alpha+beta = k+1
        // clauses: a[i-1] ∧ b[j-1] → out[i+j-1]   (sum ≥ i+j)
        // and the converse direction for arc-consistency of ≤ bounds:
        // ¬a[i] ∧ ¬b[j] → ¬out[i+j]  (sum < i+1 + j+1 - 1)
        for i in 0..=a.len() {
            for j in 0..=b.len() {
                if i + j >= 1 && i + j <= n {
                    // (a≥i ∧ b≥j) → out ≥ i+j
                    let mut c = Vec::with_capacity(3);
                    if i > 0 {
                        c.push(!a[i - 1]);
                    }
                    if j > 0 {
                        c.push(!b[j - 1]);
                    }
                    c.push(out[i + j - 1]);
                    self.add_clause(&c);
                }
                if i + j < n {
                    // (a<i+1 ∧ b<j+1) → out < i+j+1, i.e. ¬a[i]∧¬b[j]→¬out[i+j]
                    let mut c = Vec::with_capacity(3);
                    if i < a.len() {
                        c.push(a[i]);
                    }
                    if j < b.len() {
                        c.push(b[j]);
                    }
                    c.push(!out[i + j]);
                    self.add_clause(&c);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmtResult;

    /// Exhaustively verifies that an assertion about Σxᵢ matches the
    /// arithmetic truth for every input pattern.
    fn check_card(
        n: usize,
        k: usize,
        assert_fn: impl Fn(&mut SmtSolver, &[Lit], usize),
        spec: impl Fn(usize, usize) -> bool,
    ) {
        for pattern in 0..(1u32 << n) {
            let mut s = SmtSolver::new();
            let xs: Vec<Lit> = (0..n).map(|_| s.fresh_lit()).collect();
            assert_fn(&mut s, &xs, k);
            let mut count = 0;
            for (i, &x) in xs.iter().enumerate() {
                let v = (pattern >> i) & 1 == 1;
                count += usize::from(v);
                s.add_clause(&[if v { x } else { !x }]);
            }
            let expect = spec(count, k);
            let got = s.solve(&[]) == SmtResult::Sat;
            assert_eq!(got, expect, "n={n} k={k} pattern={pattern:b} count={count}");
        }
    }

    #[test]
    fn at_most_k_totalizer_exhaustive() {
        for n in 1..=5 {
            for k in 0..=n {
                check_card(n, k, |s, xs, k| s.at_most_k(xs, k), |count, k| count <= k);
            }
        }
    }

    #[test]
    fn at_least_k_totalizer_exhaustive() {
        for n in 1..=5 {
            for k in 0..=n {
                check_card(n, k, |s, xs, k| s.at_least_k(xs, k), |count, k| count >= k);
            }
        }
    }

    #[test]
    fn capped_register_counts_up_to_its_cap() {
        for n in 1..=6 {
            for cap in 1..=n + 1 {
                for pattern in 0..(1u32 << n) {
                    let mut s = SmtSolver::new();
                    let xs: Vec<Lit> = (0..n).map(|_| s.fresh_lit()).collect();
                    let reg = s.counting_register(&xs, cap);
                    assert_eq!(reg.len(), n.min(cap), "n={n} cap={cap}");
                    for (i, &x) in xs.iter().enumerate() {
                        let v = (pattern >> i) & 1 == 1;
                        s.add_clause(&[if v { x } else { !x }]);
                    }
                    let count = pattern.count_ones() as usize;
                    // out[j] ⟺ count ≥ j + 1: both polarities must be
                    // forced, so each opposite value is UNSAT
                    for (j, &out) in reg.iter().enumerate() {
                        let holds = count > j;
                        let wrong = if holds { !out } else { out };
                        assert_eq!(
                            s.solve(&[wrong]),
                            SmtResult::Unsat,
                            "n={n} cap={cap} pattern={pattern:b} out[{j}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn register_bounds_constrain_the_count() {
        // an existing register bounded from both sides, then read back
        let mut s = SmtSolver::new();
        let xs: Vec<Lit> = (0..5).map(|_| s.fresh_lit()).collect();
        let reg = s.counting_register(&xs, xs.len());
        s.constrain_register_at_least(&reg, 2);
        s.constrain_register_at_most(&reg, 3);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        let count = xs.iter().filter(|&&x| s.model_lit(x)).count();
        assert!((2..=3).contains(&count), "count {count} outside [2, 3]");
        // force 2 of 5 true: the register must read 2 ...
        s.add_clause(&[xs[0]]);
        s.add_clause(&[xs[3]]);
        for i in [1, 2, 4] {
            s.add_clause(&[!xs[i]]);
        }
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert_eq!(reg.iter().take_while(|&&r| s.model_lit(r)).count(), 2);
        // ... and a bound of ≥ 3 must now fail
        s.constrain_register_at_least(&reg, 3);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
    }

    #[test]
    fn counting_register_reads_exact_value() {
        let mut s = SmtSolver::new();
        let xs: Vec<Lit> = (0..6).map(|_| s.fresh_lit()).collect();
        let reg = s.counting_register(&xs, xs.len());
        // force exactly bits 1, 3, 4 true
        for (i, &x) in xs.iter().enumerate() {
            let v = matches!(i, 1 | 3 | 4);
            s.add_clause(&[if v { x } else { !x }]);
        }
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        let value = reg.iter().take_while(|&&r| s.model_lit(r)).count();
        assert_eq!(value, 3);
        // monotone: after the first false, all false
        let vals: Vec<bool> = reg.iter().map(|&r| s.model_lit(r)).collect();
        assert!(
            vals.windows(2).all(|w| w[0] || !w[1]),
            "register not unary: {vals:?}"
        );
    }

    #[test]
    fn scoped_cardinality_pops_cleanly() {
        let mut s = SmtSolver::new();
        let xs: Vec<Lit> = (0..4).map(|_| s.fresh_lit()).collect();
        for &x in &xs {
            s.add_clause(&[x]);
        }
        s.push();
        s.at_most_k(&xs, 2);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.solve(&[]), SmtResult::Sat);
    }
}
