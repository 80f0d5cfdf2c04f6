//! Tseitin-encoded boolean gadgets.
//!
//! Each gadget introduces a fresh definition literal constrained (in the
//! current scope) to equal the described function of its inputs. The
//! XOR chains built here are the heart of the GF(2) matrix-product
//! encodings in `fec-synth`: an encode bit is an XOR over AND terms.

use crate::solver::SmtSolver;
use fec_sat::Lit;

impl SmtSolver {
    /// A literal equal to `a ∧ b`.
    pub fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        let o = self.fresh_lit();
        self.add_clause(&[!o, a]);
        self.add_clause(&[!o, b]);
        self.add_clause(&[o, !a, !b]);
        o
    }

    /// A literal equal to `a ⊕ b`.
    pub fn xor2(&mut self, a: Lit, b: Lit) -> Lit {
        let o = self.fresh_lit();
        self.add_clause(&[!o, a, b]);
        self.add_clause(&[!o, !a, !b]);
        self.add_clause(&[o, !a, b]);
        self.add_clause(&[o, a, !b]);
        o
    }

    /// A literal equal to the XOR (GF(2) sum) of `lits` (false for empty).
    ///
    /// Built as a balanced tree so definition depth is logarithmic.
    pub fn xor_all(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => self.lit_false(),
            [l] => *l,
            _ => {
                let mark = self.enc_begin();
                let mut layer: Vec<Lit> = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(match pair {
                            [a, b] => self.xor2(*a, *b),
                            [a] => *a,
                            _ => unreachable!(),
                        });
                    }
                    layer = next;
                }
                self.enc_end("xor", mark);
                layer[0]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmtResult;

    /// Exhaustively checks a gadget against a boolean function.
    fn check_gadget<const N: usize>(
        build: impl Fn(&mut SmtSolver, [Lit; N]) -> Lit,
        spec: impl Fn([bool; N]) -> bool,
    ) {
        for input_bits in 0..(1u32 << N) {
            let mut s = SmtSolver::new();
            let ins: [Lit; N] = std::array::from_fn(|_| s.fresh_lit());
            let out = build(&mut s, ins);
            let mut vals = [false; N];
            for i in 0..N {
                vals[i] = (input_bits >> i) & 1 == 1;
                s.add_clause(&[if vals[i] { ins[i] } else { !ins[i] }]);
            }
            assert_eq!(s.solve(&[]), SmtResult::Sat);
            assert_eq!(
                s.model_lit(out),
                spec(vals),
                "gadget mismatch on input {vals:?}"
            );
        }
    }

    #[test]
    fn and2_truth_table() {
        check_gadget(|s, [a, b]| s.and2(a, b), |[a, b]| a && b);
    }

    #[test]
    fn xor2_truth_table() {
        check_gadget(|s, [a, b]| s.xor2(a, b), |[a, b]| a ^ b);
    }

    #[test]
    fn xor_all_truth_table() {
        check_gadget(
            |s, ins: [Lit; 5]| s.xor_all(&ins),
            |vals| vals.iter().filter(|&&v| v).count() % 2 == 1,
        );
    }

    #[test]
    fn empty_gadgets() {
        let mut s = SmtSolver::new();
        let x = s.xor_all(&[]);
        assert_eq!(s.solve(&[]), SmtResult::Sat);
        assert!(!s.model_lit(x));
    }

    #[test]
    fn gadgets_respect_scopes() {
        // a gadget defined inside a popped scope must not constrain later
        let mut s = SmtSolver::new();
        let a = s.fresh_lit();
        let b = s.fresh_lit();
        s.push();
        let o = s.and2(a, b);
        s.add_clause(&[o]);
        s.add_clause(&[!a]);
        assert_eq!(s.solve(&[]), SmtResult::Unsat);
        s.pop();
        assert_eq!(s.solve(&[!a]), SmtResult::Sat);
    }
}
