//! Cancellation-aware common-subexpression elimination over the IR.
//!
//! The sparse emission costs `len_1 - (#non-empty columns)` XORs — the
//! paper's §4.4 metric. This pass goes below that floor with two
//! complementary ideas:
//!
//! 1. **Output differencing (cancellation).** Check columns of real
//!    codes overlap heavily, so `out_j` is often cheaper as
//!    `out_i ⊕ (col_j ⊕ col_i)` — the GF(2) *difference* — than from
//!    its own column. This is genuine cancellation: terms shared by
//!    both columns vanish from the residual, an effect no
//!    sharing-only CSE can express.
//! 2. **Paar-style shared-pair extraction.** Over the resulting term
//!    lists (each a set of inputs / output references), repeatedly
//!    extract the pair of atoms co-occurring in the most lists
//!    (`≥ 2`) into a fresh gate, rewriting those lists to use it.
//!    Patterns are `u64` bitsets over the ≤ 64 outputs, so each
//!    greedy step is a popcount scan.
//!
//! The result is **certified, not trusted**: the assembled circuit is
//! run through [`validate_circuit`], and if the proof fails — or the
//! "minimized" circuit is somehow larger — [`minimize`] falls back to
//! the sparse reference circuit, which always validates. Callers can
//! therefore rely on `Minimized::report.is_valid()`.

use crate::analyze::validate_circuit;
use crate::Report;
use fec_codegen::{Circuit, Node, Output};
use fec_gf2::BitVec;
use fec_hamming::Generator;
use std::collections::HashMap;

/// A minimization result: the certified circuit, its validation
/// report, and the cost it is measured against.
#[derive(Debug)]
pub struct Minimized {
    /// The best *validated* circuit found (worst case: the sparse
    /// reference circuit itself).
    pub circuit: Circuit,
    /// Validation of `circuit` against the generator — always valid.
    pub report: Report,
    /// XOR count of the sparse reference emission for the same
    /// generator (the baseline the reduction is quoted against).
    pub sparse_xor_count: usize,
}

impl Minimized {
    /// XOR count of the minimized circuit.
    pub fn xor_count(&self) -> usize {
        self.circuit.xor_count()
    }

    /// Fractional reduction vs. the sparse emission (`0.0` when the
    /// baseline has no gates).
    pub fn reduction(&self) -> f64 {
        if self.sparse_xor_count == 0 {
            0.0
        } else {
            1.0 - self.xor_count() as f64 / self.sparse_xor_count as f64
        }
    }
}

/// An atom in a term list during pattern extraction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Atom {
    /// Data input `y`.
    In(u32),
    /// The finished value of output `i` (a Phase-A difference base).
    Ref(usize),
    /// A gate extracted in Phase B: XOR of two earlier atoms.
    Pair(usize, usize),
}

/// Minimizes the encoder circuit for `g` and certifies the result.
///
/// # Panics
/// Panics if `g.check_len() > 64` (outputs must pack into a `u64`).
pub fn minimize(g: &Generator) -> Minimized {
    let r = g.check_len();
    assert!(r <= 64, "minimize packs output patterns into a u64");
    let sparse = Circuit::from_generator(g);
    let sparse_xor_count = sparse.xor_count();

    let cols: Vec<BitVec> = (0..r).map(|j| g.check_column(j)).collect();

    // Phase A: output differencing. diffs[j] = Some((base, residual))
    // rewrites out_j as out_base ⊕ residual. Bases are pinned as roots
    // the moment they are used, so the reference graph stays acyclic
    // (diff → root, one level) and the choice is deterministic.
    let mut diffs: Vec<Option<(usize, BitVec)>> = vec![None; r];
    let mut used_as_base = vec![false; r];
    for j in 0..r {
        if used_as_base[j] || cols[j].count_ones() < 2 {
            continue;
        }
        let mut best: Option<(usize, BitVec, usize)> = None;
        for i in 0..r {
            if i == j || diffs[i].is_some() {
                continue;
            }
            let mut residual = cols[j].clone();
            residual ^= &cols[i];
            let w = residual.count_ones();
            if best.as_ref().is_none_or(|(_, _, bw)| w < *bw) {
                best = Some((i, residual, w));
            }
        }
        if let Some((i, residual, w)) = best {
            // `+1` pays for the out_i ⊕ residual join gate
            if w + 1 < cols[j].count_ones() {
                diffs[j] = Some((i, residual));
                used_as_base[i] = true;
            }
        }
    }

    // Term lists → atom table with u64 occurrence patterns.
    let mut atoms: Vec<(Atom, u64)> = Vec::new();
    let mut input_slot: HashMap<u32, usize> = HashMap::new();
    let mark = |atoms: &mut Vec<(Atom, u64)>,
                input_slot: &mut HashMap<u32, usize>,
                atom: Atom,
                j: usize| {
        let idx = match atom {
            Atom::In(y) => *input_slot.entry(y).or_insert_with(|| {
                atoms.push((atom, 0));
                atoms.len() - 1
            }),
            _ => {
                atoms.push((atom, 0));
                atoms.len() - 1
            }
        };
        atoms[idx].1 |= 1 << j;
    };
    // shared Ref atoms: one slot per base output
    let mut ref_slot: HashMap<usize, usize> = HashMap::new();
    for j in 0..r {
        match &diffs[j] {
            None => {
                for y in cols[j].iter_ones() {
                    mark(&mut atoms, &mut input_slot, Atom::In(y as u32), j);
                }
            }
            Some((i, residual)) => {
                let idx = *ref_slot.entry(*i).or_insert_with(|| {
                    atoms.push((Atom::Ref(*i), 0));
                    atoms.len() - 1
                });
                atoms[idx].1 |= 1 << j;
                for y in residual.iter_ones() {
                    mark(&mut atoms, &mut input_slot, Atom::In(y as u32), j);
                }
            }
        }
    }

    // Phase B: greedy shared-pair extraction in pattern space.
    loop {
        let mut best: Option<(usize, usize, u32)> = None;
        for a in 0..atoms.len() {
            if atoms[a].1 == 0 {
                continue;
            }
            for b in a + 1..atoms.len() {
                let shared = (atoms[a].1 & atoms[b].1).count_ones();
                if shared >= 2 && best.is_none_or(|(_, _, s)| shared > s) {
                    best = Some((a, b, shared));
                }
            }
        }
        let Some((a, b, _)) = best else { break };
        let inter = atoms[a].1 & atoms[b].1;
        atoms[a].1 &= !inter;
        atoms[b].1 &= !inter;
        atoms.push((Atom::Pair(a, b), inter));
    }

    // Phase C: assembly in dependency order (roots before diffs; pair
    // atoms materialize lazily, hash-consed so no gate is duplicated).
    let mut c = Circuit::new(g.data_len(), r);
    let mut atom_node: Vec<Option<Node>> = vec![None; atoms.len()];
    let mut out_node: Vec<Option<Node>> = vec![None; r];
    let mut cse: HashMap<(Node, Node), Node> = HashMap::new();

    fn node_of(
        idx: usize,
        atoms: &[(Atom, u64)],
        atom_node: &mut Vec<Option<Node>>,
        out_node: &[Option<Node>],
        c: &mut Circuit,
        cse: &mut HashMap<(Node, Node), Node>,
    ) -> Node {
        if let Some(n) = atom_node[idx] {
            return n;
        }
        let n = match atoms[idx].0 {
            Atom::In(y) => Node::Input(y),
            Atom::Ref(i) => out_node[i].expect("diff base built before its dependents"),
            Atom::Pair(a, b) => {
                let na = node_of(a, atoms, atom_node, out_node, c, cse);
                let nb = node_of(b, atoms, atom_node, out_node, c, cse);
                consed_gate(c, cse, na, nb)
            }
        };
        atom_node[idx] = Some(n);
        n
    }

    fn consed_gate(
        c: &mut Circuit,
        cse: &mut HashMap<(Node, Node), Node>,
        a: Node,
        b: Node,
    ) -> Node {
        let key = if a <= b { (a, b) } else { (b, a) };
        *cse.entry(key).or_insert_with(|| c.push_gate(key.0, key.1))
    }

    let build_order: Vec<usize> = (0..r)
        .filter(|&j| diffs[j].is_none())
        .chain((0..r).filter(|&j| diffs[j].is_some()))
        .collect();
    for j in build_order {
        let members: Vec<usize> = (0..atoms.len())
            .filter(|&i| atoms[i].1 & (1 << j) != 0)
            .collect();
        let mut acc: Option<Node> = None;
        for idx in members {
            // Phase-A base refs depend on earlier outputs; since bases
            // are roots and roots precede diffs, out_node is ready.
            let n = node_of(idx, &atoms, &mut atom_node, &out_node, &mut c, &mut cse);
            acc = Some(match acc {
                None => n,
                Some(prev) => consed_gate(&mut c, &mut cse, prev, n),
            });
        }
        let out = match acc {
            None => Output::Zero,
            Some(n) => Output::Node(n),
        };
        c.bind_output(j, out);
        out_node[j] = match out {
            Output::Node(n) => Some(n),
            _ => None,
        };
    }
    let c = c.dce();

    // Certification: accept the minimized circuit only with a proof.
    let report = validate_circuit(&c, g);
    if report.is_valid() && c.xor_count() <= sparse_xor_count {
        Minimized {
            circuit: c,
            report,
            sparse_xor_count,
        }
    } else {
        let report = validate_circuit(&sparse, g);
        debug_assert!(report.is_valid());
        Minimized {
            circuit: sparse,
            report,
            sparse_xor_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_hamming::standards;

    #[test]
    fn minimized_circuits_are_certified_equivalent() {
        for g in [
            standards::hamming_7_4(),
            standards::hamming_extended_8_4(),
            standards::shortened_hamming(57, 7).unwrap(),
            standards::shortened_hamming(32, 6).unwrap(),
        ] {
            let m = minimize(&g);
            assert!(m.report.is_valid(), "{:?}: {:?}", g, m.report.diags);
            assert!(m.xor_count() <= m.sparse_xor_count);
            // spot-check concretely too
            let sparse = Circuit::from_generator(&g);
            for d in [0u64, 1, 0x5555_5555, 0xFFFF_FFFF_FFFF_FFFF] {
                let d = d & ((1u64 << g.data_len().min(63)) - 1);
                assert_eq!(m.circuit.eval_u64(d), sparse.eval_u64(d));
            }
        }
    }

    #[test]
    fn named_generators_minimize_to_pinned_xor_counts() {
        // the named generators `codegen_tv` sweeps; a minimizer change
        // that moves any count must update this table on purpose
        for (name, g, xors) in [
            ("hamming_7_4", standards::hamming_7_4(), 5),
            ("hamming_extended_8_4", standards::hamming_extended_8_4(), 6),
            ("parity_16", standards::parity_code(16), 15),
            (
                "shortened_hamming_32_6",
                standards::shortened_hamming(32, 6).unwrap(),
                58,
            ),
            (
                "shortened_hamming_57_7",
                standards::shortened_hamming(57, 7).unwrap(),
                107,
            ),
            ("paper_g4_5", standards::paper_g4_5(), 6),
        ] {
            let m = minimize(&g);
            assert!(m.report.is_valid(), "{name}: {:?}", m.report.diags);
            assert_eq!(m.xor_count(), xors, "{name}");
        }
    }

    #[test]
    fn flagship_reduction_clears_the_25_percent_gate() {
        let g = standards::ieee_8023df_128_120();
        let m = minimize(&g);
        assert!(m.report.is_valid(), "{:?}", m.report.diags);
        assert_eq!((m.sparse_xor_count, m.xor_count()), (360, 232));
        assert!(m.reduction() >= 0.25, "reduction {:.3}", m.reduction());
    }

    #[test]
    fn duplicate_columns_collapse_to_one_computation() {
        // two identical columns: the second should cost ~nothing
        use fec_gf2::BitMatrix;
        let mut coeff = BitMatrix::zeros(6, 2);
        for y in 0..6 {
            coeff.set(y, 0, y % 2 == 0 || y == 1);
            coeff.set(y, 1, y % 2 == 0 || y == 1);
        }
        let g = Generator::from_coefficients(coeff);
        let m = minimize(&g);
        assert!(m.report.is_valid());
        assert!(m.xor_count() < m.sparse_xor_count);
    }
}
