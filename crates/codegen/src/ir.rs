//! The XOR-circuit intermediate representation.
//!
//! A [`Circuit`] computes `check_len` parity bits from `data_len`
//! input bits using only binary XOR gates. Gates are stored in
//! evaluation order and may reference inputs or *earlier* gates; each
//! output is bound to a node, to the constant zero (an empty generator
//! column), or left unbound (a lintable defect). The representation is
//! deliberately permissive — out-of-range or forward references are
//! constructible — because the validator (`fec_circ::validate_circuit`)
//! is the component charged with rejecting them; builders in this
//! module only ever produce well-formed circuits.

use fec_gf2::BitVec;
use fec_hamming::Generator;

/// A value in the circuit: a data input or the result of a gate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Node {
    /// Data bit `i` (LSB-first, as in the emitted kernels).
    Input(u32),
    /// The result of gate `g` (an index into [`Circuit::gates`]).
    Gate(u32),
}

/// A binary XOR gate: `a ^ b`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Gate {
    pub a: Node,
    pub b: Node,
}

/// What a check-bit output is bound to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Output {
    /// Not bound at all — reported as an `unbound-output` lint.
    Unbound,
    /// Constant zero (an all-zero generator column).
    Zero,
    /// The value of a node.
    Node(Node),
}

/// An XOR circuit: `inputs` data bits in, one bound node per check
/// bit out.
#[derive(Clone, Debug)]
pub struct Circuit {
    inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<Output>,
}

impl Circuit {
    /// An empty circuit with every output unbound.
    pub fn new(inputs: usize, outputs: usize) -> Circuit {
        Circuit {
            inputs,
            gates: Vec::new(),
            outputs: vec![Output::Unbound; outputs],
        }
    }

    /// Number of data inputs `k`.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The gates in evaluation order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The output bindings (one per check bit).
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Number of XOR gates — the cost measure the minimizer drives
    /// down and `codegen_tv` reports.
    pub fn xor_count(&self) -> usize {
        self.gates.len()
    }

    /// Appends the gate `a ^ b` and returns its node.
    pub fn push_gate(&mut self, a: Node, b: Node) -> Node {
        self.gates.push(Gate { a, b });
        Node::Gate((self.gates.len() - 1) as u32)
    }

    /// Binds output `j`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn bind_output(&mut self, j: usize, out: Output) {
        self.outputs[j] = out;
    }

    /// XOR-folds `nodes` into a single binding, adding `len - 1` gates
    /// (`Zero` for an empty list, the node itself for a singleton).
    pub fn xor_chain(&mut self, nodes: &[Node]) -> Output {
        match nodes.split_first() {
            None => Output::Zero,
            Some((&first, rest)) => {
                let mut acc = first;
                for &n in rest {
                    acc = self.push_gate(acc, n);
                }
                Output::Node(acc)
            }
        }
    }

    /// Builds the *sparse reference circuit* straight from the
    /// generator: one XOR chain per check column over its set
    /// coefficients — exactly the shape of the paper's emitted C, with
    /// `len_1 - (#non-empty columns)` gates.
    pub fn from_generator(g: &Generator) -> Circuit {
        let cols: Vec<BitVec> = (0..g.check_len()).map(|j| g.check_column(j)).collect();
        Circuit::from_columns(g.data_len(), &cols)
    }

    /// Builds a circuit from explicit column forms (bit `y` of
    /// `cols[j]` set ⇔ input `y` feeds output `j`).
    ///
    /// # Panics
    /// Panics if a column's length differs from `inputs`.
    pub fn from_columns(inputs: usize, cols: &[BitVec]) -> Circuit {
        let mut c = Circuit::new(inputs, cols.len());
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), inputs, "from_columns: column length");
            let nodes: Vec<Node> = col.iter_ones().map(|y| Node::Input(y as u32)).collect();
            let out = c.xor_chain(&nodes);
            c.bind_output(j, out);
        }
        c
    }

    /// Concretely evaluates the circuit on packed input words (input
    /// `i` = bit `i % 64` of `data[i / 64]`); returns the check bits
    /// packed into a `u64`.
    ///
    /// This is the *testing* semantics; proofs use the symbolic
    /// evaluator in `validate_circuit` instead.
    ///
    /// # Panics
    /// Panics on unbound outputs, unresolvable node references, or
    /// more than 64 outputs.
    pub fn eval(&self, data: &[u64]) -> u64 {
        assert!(self.outputs.len() <= 64, "eval packs outputs into a u64");
        let input_bit = |i: u32| -> u64 {
            let i = i as usize;
            assert!(i < self.inputs, "eval: input {i} out of range");
            data.get(i / 64).map_or(0, |w| (w >> (i % 64)) & 1)
        };
        let mut vals = Vec::with_capacity(self.gates.len());
        for (gi, gate) in self.gates.iter().enumerate() {
            let read = |n: Node| -> u64 {
                match n {
                    Node::Input(i) => input_bit(i),
                    Node::Gate(g) => {
                        assert!((g as usize) < gi, "eval: forward gate reference");
                        vals[g as usize]
                    }
                }
            };
            vals.push(read(gate.a) ^ read(gate.b));
        }
        let mut out = 0u64;
        for (j, o) in self.outputs.iter().enumerate() {
            let bit = match *o {
                Output::Unbound => panic!("eval: output {j} unbound"),
                Output::Zero => 0,
                Output::Node(Node::Input(i)) => input_bit(i),
                Output::Node(Node::Gate(g)) => vals[g as usize],
            };
            out |= bit << j;
        }
        out
    }

    /// [`Circuit::eval`] for `k ≤ 64` circuits taking one data word.
    pub fn eval_u64(&self, d: u64) -> u64 {
        self.eval(&[d])
    }

    /// Returns an equivalent circuit with unreachable gates removed
    /// and the survivors renumbered (bindings preserved).
    pub fn dce(&self) -> Circuit {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<u32> = Vec::new();
        for o in &self.outputs {
            if let Output::Node(Node::Gate(g)) = *o {
                stack.push(g);
            }
        }
        while let Some(g) = stack.pop() {
            let gi = g as usize;
            if gi >= self.gates.len() || live[gi] {
                continue;
            }
            live[gi] = true;
            for n in [self.gates[gi].a, self.gates[gi].b] {
                if let Node::Gate(p) = n {
                    stack.push(p);
                }
            }
        }
        let mut remap = vec![u32::MAX; self.gates.len()];
        let mut gates = Vec::new();
        for (gi, gate) in self.gates.iter().enumerate() {
            if live[gi] {
                let fix = |n: Node| match n {
                    Node::Gate(p) => Node::Gate(remap[p as usize]),
                    other => other,
                };
                let fixed = Gate {
                    a: fix(gate.a),
                    b: fix(gate.b),
                };
                remap[gi] = gates.len() as u32;
                gates.push(fixed);
            }
        }
        let outputs = self
            .outputs
            .iter()
            .map(|o| match *o {
                Output::Node(Node::Gate(g)) => Output::Node(Node::Gate(remap[g as usize])),
                other => other,
            })
            .collect();
        Circuit {
            inputs: self.inputs,
            gates,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_hamming::standards;

    #[test]
    fn sparse_circuit_matches_generator_encode() {
        let g = standards::shortened_hamming(32, 6).unwrap();
        let c = Circuit::from_generator(&g);
        // gate count = len_1 - #non-empty columns
        let nonempty = (0..g.check_len())
            .filter(|&j| g.check_column(j).count_ones() > 0)
            .count();
        assert_eq!(c.xor_count(), g.coefficient_ones() - nonempty);
        for d in [0u64, 1, 0xFFFF_FFFF, 0xDEAD_BEEF, 0x1234_5678] {
            let word = g.encode(&BitVec::from_u128(d as u128, 32));
            let expect = word.slice(32..38).to_u128() as u64;
            assert_eq!(c.eval_u64(d), expect, "data {d:#x}");
        }
    }

    #[test]
    fn wide_circuit_evaluates_over_multiple_words() {
        let g = standards::ieee_8023df_128_120();
        let c = Circuit::from_generator(&g);
        assert_eq!(c.inputs(), 120);
        // reference: encode via the Generator on a 120-bit word
        let data_words = [0x0123_4567_89AB_CDEFu64, 0x00FE_DCBA_9876_5432u64];
        let mut bits = BitVec::zeros(120);
        for i in 0..120 {
            bits.set(i, (data_words[i / 64] >> (i % 64)) & 1 == 1);
        }
        let word = g.encode(&bits);
        let expect = word.slice(120..128).to_u128() as u64;
        assert_eq!(c.eval(&data_words), expect);
    }

    #[test]
    fn dce_drops_only_unreachable_gates() {
        let mut c = Circuit::new(3, 1);
        let t0 = c.push_gate(Node::Input(0), Node::Input(1));
        let _dead = c.push_gate(Node::Input(1), Node::Input(2));
        let t2 = c.push_gate(t0, Node::Input(2));
        c.bind_output(0, Output::Node(t2));
        let pruned = c.dce();
        assert_eq!(pruned.xor_count(), 2);
        for d in 0u64..8 {
            assert_eq!(pruned.eval_u64(d), c.eval_u64(d));
        }
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn eval_panics_on_unbound_output() {
        Circuit::new(2, 1).eval_u64(0);
    }
}
