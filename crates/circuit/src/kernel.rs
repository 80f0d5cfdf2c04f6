//! Compiled runtime kernels over validated circuits.
//!
//! `Circuit::eval` is the *testing* semantics: it re-resolves node
//! references and allocates a scratch vector on every call, which is
//! fine for spot checks and useless for datapaths that push millions
//! of words through an encoder (the Monte-Carlo robustness sweeps, the
//! streaming pipeline). [`CircuitKernel`] compiles a circuit once into
//! a flat op list over a reusable scratch buffer, so the per-word cost
//! is exactly `inputs` loads plus `xor_count` XORs — the §4.4 cost
//! model, executed literally. [`CircuitKernel::encode_checks_lanes`]
//! runs the same op list over 64 words at once (word `t` in bit lane
//! `t` of every value slot), so `xor_count` XORs encode 64 words.
//!
//! The intended construction path is [`CircuitKernel::minimized`],
//! which runs the certified CSE minimizer and therefore inherits its
//! guarantee: the compiled op list is provably equivalent to the
//! generator matrix. Every linear systematic code is one generator, so
//! one kernel type covers them all: a §4.3 `CompositeCode` ensemble
//! compiles through its combined `CompositeCode::generator()`, wider
//! than 64 bits or not, and takes the same scalar and 64-lane paths.
//! Minimizing costs far more than encoding a word, so callers compile
//! once and clone the kernel for scratch.

use crate::minimize::minimize;
use fec_codegen::{Circuit, Node, Output};
use fec_hamming::Generator;

/// Output slot marker for a constant-zero binding.
const ZERO: u32 = u32::MAX;

/// A circuit compiled to a flat evaluation plan with reusable scratch.
///
/// Value slots: `0..inputs` hold the data bits, `inputs + g` holds the
/// result of gate `g`. Ops are `(a, b)` slot pairs in evaluation
/// order; construction rejects the defects `Circuit` is permissive
/// about (unbound outputs, forward or out-of-range references), so
/// evaluation itself is branch-free and panic-free.
#[derive(Clone, Debug)]
pub struct CircuitKernel {
    inputs: usize,
    ops: Vec<(u32, u32)>,
    outs: Vec<u32>,
    vals: Vec<u64>,
}

impl CircuitKernel {
    /// Compiles `c` into a kernel.
    ///
    /// # Panics
    /// Panics on unbound outputs, forward/out-of-range node
    /// references, or more than 64 outputs — the same defects
    /// `validate_circuit` lints, enforced here because a compiled plan
    /// cannot represent them.
    pub fn new(c: &Circuit) -> CircuitKernel {
        let inputs = c.inputs();
        assert!(
            c.outputs().len() <= 64,
            "CircuitKernel packs outputs into a u64"
        );
        let slot = |n: Node, before_gate: usize| -> u32 {
            match n {
                Node::Input(i) => {
                    assert!((i as usize) < inputs, "kernel: input {i} out of range");
                    i
                }
                Node::Gate(g) => {
                    assert!((g as usize) < before_gate, "kernel: forward gate reference");
                    inputs as u32 + g
                }
            }
        };
        let ops: Vec<(u32, u32)> = c
            .gates()
            .iter()
            .enumerate()
            .map(|(gi, gate)| (slot(gate.a, gi), slot(gate.b, gi)))
            .collect();
        let outs: Vec<u32> = c
            .outputs()
            .iter()
            .enumerate()
            .map(|(j, o)| match *o {
                Output::Unbound => panic!("kernel: output {j} unbound"),
                Output::Zero => ZERO,
                Output::Node(n) => slot(n, c.gates().len()),
            })
            .collect();
        CircuitKernel {
            inputs,
            vals: vec![0; inputs + ops.len()],
            ops,
            outs,
        }
    }

    /// Minimizes the encoder for `g` with the certified CSE pass and
    /// compiles the resulting (validated) circuit.
    ///
    /// # Panics
    /// Panics if `g.check_len() > 64` (inherited from `minimize`).
    pub fn minimized(g: &Generator) -> CircuitKernel {
        let m = minimize(g);
        debug_assert!(m.report.is_valid());
        CircuitKernel::new(&m.circuit)
    }

    /// Number of data inputs `k`.
    pub fn data_len(&self) -> usize {
        self.inputs
    }

    /// Number of check-bit outputs.
    pub fn check_len(&self) -> usize {
        self.outs.len()
    }

    /// XOR ops per evaluation.
    pub fn xor_count(&self) -> usize {
        self.ops.len()
    }

    /// The op loop, shared by every entry point: each value slot is a
    /// `u64` of independent bit lanes.
    fn eval(&mut self) {
        for (i, &(a, b)) in self.ops.iter().enumerate() {
            self.vals[self.inputs + i] = self.vals[a as usize] ^ self.vals[b as usize];
        }
    }

    fn run(&mut self) -> u64 {
        self.eval();
        let mut out = 0u64;
        for (j, &s) in self.outs.iter().enumerate() {
            if s != ZERO {
                out |= (self.vals[s as usize] & 1) << j;
            }
        }
        out
    }

    /// Encodes the check bits for a `k ≤ 64` data word (bit `i` of
    /// `data` is data bit `i`).
    ///
    /// # Panics
    /// Panics if the circuit has more than 64 inputs.
    pub fn encode_checks(&mut self, data: u64) -> u64 {
        assert!(self.inputs <= 64, "encode_checks: use encode_checks_wide");
        for i in 0..self.inputs {
            self.vals[i] = (data >> i) & 1;
        }
        self.run()
    }

    /// Encodes the check bits for a wide data word packed as in
    /// `Circuit::eval` / `BitVec::words()`: input `i` is bit `i % 64`
    /// of `data[i / 64]`; missing words read as zero.
    pub fn encode_checks_wide(&mut self, data: &[u64]) -> u64 {
        for i in 0..self.inputs {
            self.vals[i] = data.get(i / 64).map_or(0, |w| (w >> (i % 64)) & 1);
        }
        self.run()
    }

    /// Encodes the check bits of up to 64 data words in one pass of
    /// the op list. Word `t` is `words[t * stride..(t + 1) * stride]`,
    /// packed as in [`CircuitKernel::encode_checks_wide`], and rides bit
    /// lane `t` of every value slot; its check bits land in `checks[t]`.
    /// Bits at or above `k` are ignored, so `words` may hold whole
    /// codewords, and data bits beyond `stride` words read as zero.
    ///
    /// # Panics
    /// Panics if `stride` is zero, `words.len()` is not a multiple of
    /// `stride`, there are more than 64 words, or `checks` is shorter
    /// than the word count.
    pub fn encode_checks_lanes(&mut self, words: &[u64], stride: usize, checks: &mut [u64]) {
        assert!(
            stride > 0 && words.len().is_multiple_of(stride),
            "encode_checks_lanes: ragged words"
        );
        let lanes = words.len() / stride;
        assert!(lanes <= 64, "encode_checks_lanes: at most 64 lanes");
        assert!(
            checks.len() >= lanes,
            "encode_checks_lanes: checks too short"
        );
        let mut block = [0u64; 64];
        for j in 0..self.inputs.div_ceil(64) {
            let slots = &mut self.vals[64 * j..(64 * j + 64).min(self.inputs)];
            if j >= stride {
                slots.fill(0);
                continue;
            }
            for (t, row) in block[..lanes].iter_mut().enumerate() {
                *row = words[t * stride + j];
            }
            block[lanes..].fill(0);
            transpose64(&mut block);
            slots.copy_from_slice(&block[..slots.len()]);
        }
        self.eval();
        block.fill(0);
        for (row, &s) in block.iter_mut().zip(&self.outs) {
            if s != ZERO {
                *row = self.vals[s as usize];
            }
        }
        transpose64(&mut block);
        checks[..lanes].copy_from_slice(&block[..lanes]);
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of `a[r]` moves to
/// bit `r` of `a[c]` (recursive block swaps, six rounds).
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fec_gf2::BitVec;
    use fec_hamming::{standards, CompositeCode};

    fn mask64(bits: usize) -> u64 {
        if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }

    fn encode_ref(g: &Generator, data: u64) -> u64 {
        let word = g.encode(&BitVec::from_u128(data as u128, g.data_len()));
        word.slice(g.data_len()..g.codeword_len()).to_u128() as u64
    }

    #[test]
    fn minimized_kernel_matches_generator_encode() {
        for g in [
            standards::hamming_7_4(),
            standards::hamming_extended_8_4(),
            standards::shortened_hamming(32, 6).unwrap(),
            standards::shortened_hamming(57, 7).unwrap(),
            standards::shortened_hamming(64, 7).unwrap(),
        ] {
            let mut k = CircuitKernel::minimized(&g);
            assert_eq!(k.data_len(), g.data_len());
            assert_eq!(k.check_len(), g.check_len());
            let m = mask64(g.data_len());
            for d in [0u64, 1, 0x5555_5555_5555_5555, u64::MAX, 0xDEAD_BEEF] {
                let d = d & m;
                assert_eq!(k.encode_checks(d), encode_ref(&g, d), "{g:?} data {d:#x}");
            }
        }
    }

    #[test]
    fn wide_kernel_matches_flagship_generator() {
        let g = standards::ieee_8023df_128_120();
        let mut k = CircuitKernel::minimized(&g);
        for words in [
            [0u64, 0],
            [u64::MAX, (1u64 << 56) - 1],
            [0x0123_4567_89AB_CDEF, 0x00FE_DCBA_9876_5432],
        ] {
            let mut bits = BitVec::zeros(120);
            for i in 0..120 {
                bits.set(i, (words[i / 64] >> (i % 64)) & 1 == 1);
            }
            let expect = g.encode(&bits).slice(120..128).to_u128() as u64;
            assert_eq!(k.encode_checks_wide(&words), expect);
            assert_eq!(k.encode_checks_wide(bits.words()), expect);
        }
    }

    /// Table 1's k = 4 optima (md = 8 down to 2) as coefficient rows.
    const K4_CODES: [[&str; 4]; 7] = [
        ["11011011100", "01100111110", "11001100111", "00111101101"],
        ["0011110011", "1110111000", "0111011101", "1000011111"],
        ["11100110", "10111111", "11011010", "01010111"],
        ["1111001", "1011111", "0110011", "0111100"],
        ["1011", "1101", "1110", "0111"],
        ["110", "011", "101", "111"],
        ["01", "10", "10", "10"],
    ];

    fn lane_kernels() -> Vec<(CircuitKernel, usize)> {
        let mut out = vec![(
            CircuitKernel::minimized(&standards::ieee_8023df_128_120()),
            2,
        )];
        for rows in K4_CODES {
            let g = Generator::from_coeff_str(&rows.join("\n")).expect("pinned code");
            out.push((CircuitKernel::minimized(&g), 1));
        }
        // a §4.3 composite over 96 bits: two Hamming segments, bits
        // alternating between them, as one combined generator
        let map: Vec<usize> = (0..96).map(|j| j % 2).collect();
        let segment = || standards::shortened_hamming(48, 7).expect("k = 48");
        let composite = CompositeCode::from_map(vec![segment(), segment()], &map).expect("map");
        out.push((CircuitKernel::minimized(&composite.generator()), 2));
        out
    }

    /// Every batch size the datapath produces: empty, one, two, a
    /// partial and a full pass.
    fn lanes_match_per_word(kernel: &mut CircuitKernel, words: &[u64], stride: usize) {
        for lanes in [0, 1, 2, 63, 64] {
            let batch = &words[..lanes * stride];
            let mut got = [u64::MAX; 65];
            kernel.encode_checks_lanes(batch, stride, &mut got);
            for (t, word) in batch.chunks(stride).enumerate() {
                assert_eq!(
                    got[t],
                    kernel.encode_checks_wide(word),
                    "lane {t} of {lanes}"
                );
            }
            assert_eq!(got[lanes], u64::MAX, "wrote past the lanes");
        }
    }

    #[test]
    fn transpose64_moves_bit_c_of_row_r_to_bit_r_of_row_c() {
        let mut a = [0u64; 64];
        for (r, row) in a.iter_mut().enumerate() {
            *row = (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (1 << (r % 7));
        }
        let before = a;
        transpose64(&mut a);
        for (r, row) in before.iter().enumerate() {
            for (c, col) in a.iter().enumerate() {
                assert_eq!((col >> r) & 1, (row >> c) & 1, "({r}, {c})");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// One 64-lane pass equals per-word `encode_checks_wide` on the
        /// 802.3df kernel, the seven pinned k = 4 codes and a 96-bit
        /// composite.
        #[test]
        fn prop_lanes_match_per_word_encodes(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 128)
        ) {
            for (mut kernel, stride) in lane_kernels() {
                lanes_match_per_word(&mut kernel, &words[..64 * stride], stride);
            }
        }

        /// Bits at or above `k` never reach the op list, as on the
        /// scalar path: whole codewords encode like their data bits.
        #[test]
        fn prop_lanes_ignore_bits_above_k(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 128)
        ) {
            for (mut kernel, stride) in lane_kernels() {
                let k = kernel.data_len();
                let words = &words[..64 * stride];
                let clean: Vec<u64> = words
                    .chunks(stride)
                    .flat_map(|w| {
                        w.iter().enumerate().map(|(j, &x)| x & mask64(k.saturating_sub(64 * j)))
                    })
                    .collect();
                let (mut dirty_checks, mut clean_checks) = ([0u64; 64], [0u64; 64]);
                kernel.encode_checks_lanes(words, stride, &mut dirty_checks);
                kernel.encode_checks_lanes(&clean, stride, &mut clean_checks);
                proptest::prop_assert_eq!(dirty_checks, clean_checks);
            }
        }
    }

    #[test]
    fn lanes_read_missing_words_as_zero() {
        let mut k = CircuitKernel::minimized(&standards::ieee_8023df_128_120());
        let lo: Vec<u64> = (0..64u64)
            .map(|t| t.wrapping_mul(0xA076_1D64_78BD_642F))
            .collect();
        let mut got = [0u64; 64];
        k.encode_checks_lanes(&lo, 1, &mut got);
        for (t, &w) in lo.iter().enumerate() {
            assert_eq!(got[t], k.encode_checks_wide(&[w]));
        }
    }

    #[test]
    fn kernel_is_cheaper_than_sparse_on_the_flagship() {
        let g = standards::ieee_8023df_128_120();
        let k = CircuitKernel::minimized(&g);
        let sparse = Circuit::from_generator(&g).xor_count();
        assert!(k.xor_count() < sparse, "{} !< {sparse}", k.xor_count());
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn kernel_rejects_unbound_outputs() {
        CircuitKernel::new(&Circuit::new(2, 1));
    }
}
