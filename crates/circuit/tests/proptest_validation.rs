//! Property tests: for random generator matrices, every encoder form —
//! the generator circuit, the minimized circuit, and the C and Rust
//! emitted from each — is *proved* equivalent to the matrix by the
//! static validator; and validating any form against a perturbed
//! matrix is refuted with the right lint class.

use fec_circ::{minimize, validate_circuit, validate_forms, validate_source, Circuit, Lang};
use fec_circ::{CircuitKernel, LintClass};
use fec_codegen::{emit_c, emit_rust};
use fec_gf2::{BitMatrix, BitVec};
use fec_hamming::Generator;
use proptest::prelude::*;

/// A deterministic random coefficient matrix (cells from splitmix64).
fn random_generator(seed: u64, k: usize, r: usize) -> Generator {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut m = BitMatrix::zeros(k, r);
    for y in 0..k {
        for j in 0..r {
            m.set(y, j, next() & 1 == 1);
        }
    }
    Generator::from_coefficients(m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every encoder form validates against the matrix it came from.
    #[test]
    fn prop_all_backend_forms_validate(seed in 0u64..u64::MAX, k in 1usize..=32, r in 1usize..=8) {
        let g = random_generator(seed, k, r);
        let (_, forms) = validate_forms(&g);
        prop_assert_eq!(forms.len(), 6);
        for (form, rep) in &forms {
            prop_assert!(rep.is_valid(), "{form}: {:?}", rep.diags);
        }
        let src = emit_c(&Circuit::from_generator(&g), Some(21));
        let rep = validate_source(&src, Lang::C, &g);
        prop_assert!(rep.is_valid(), "emitted C with main: {:?}", rep.diags);
    }

    /// Minimization never loses equivalence and never costs more than
    /// the sparse baseline; its emitted sources validate too.
    #[test]
    fn prop_minimize_is_certified_and_no_worse(seed in 0u64..u64::MAX, k in 1usize..=32, r in 1usize..=8) {
        let g = random_generator(seed, k, r);
        let m = minimize(&g);
        prop_assert!(m.report.is_valid(), "{:?}", m.report.diags);
        prop_assert!(m.xor_count() <= m.sparse_xor_count);
        let rep = validate_source(&emit_c(&m.circuit, None), Lang::C, &g);
        prop_assert!(rep.is_valid(), "minimized C: {:?}", rep.diags);
        let rep = validate_source(&emit_rust(&m.circuit), Lang::Rust, &g);
        prop_assert!(rep.is_valid(), "minimized Rust: {:?}", rep.diags);
    }

    /// The minimized circuit and the kernel compiled from the sparse
    /// circuit agree with `Generator::encode` on random data words —
    /// the symbolic proof and the concrete semantics coincide.
    #[test]
    fn prop_minimized_eval_matches_kernel(seed in 0u64..u64::MAX, k in 1usize..=32, r in 1usize..=8, d in 0u64..u64::MAX) {
        let g = random_generator(seed, k, r);
        let m = minimize(&g);
        let mut kernel = CircuitKernel::new(&Circuit::from_generator(&g));
        let d = d & ((1u64 << k) - 1);
        let word = g.encode(&BitVec::from_u128(d as u128, k));
        let expect = word.slice(k..k + r).to_u128() as u64;
        prop_assert_eq!(m.circuit.eval_u64(d), expect);
        prop_assert_eq!(kernel.encode_checks(d), expect);
    }

    /// Flipping one coefficient makes every form fail validation
    /// against the perturbed matrix, with the matching term class.
    #[test]
    fn prop_flipped_cell_is_refuted(seed in 0u64..u64::MAX, k in 1usize..=32, r in 1usize..=8, y_pick in 0usize..64, j_pick in 0usize..64) {
        let g = random_generator(seed, k, r);
        let (y, j) = (y_pick % k, j_pick % r);
        let mut m = BitMatrix::zeros(k, r);
        for yy in 0..k {
            for jj in 0..r {
                m.set(yy, jj, g.coefficients().get(yy, jj));
            }
        }
        let was_set = m.get(y, j);
        m.set(y, j, !was_set);
        let g2 = Generator::from_coefficients(m);

        // the *circuit* faithful to g cannot match g2
        let rep = validate_circuit(&Circuit::from_generator(&g), &g2);
        prop_assert!(!rep.is_valid());
        // cell was 1 in g: the form has a term g2 lacks → extra-term;
        // cell was 0 in g: g2 requires a term the form lacks → missing-term
        if was_set {
            prop_assert!(rep.has_class(LintClass::ExtraTerm), "{:?}", rep.diags);
        } else {
            prop_assert!(rep.has_class(LintClass::MissingTerm), "{:?}", rep.diags);
        }
        // and the emitted source is refuted the same way
        let rep = validate_source(&emit_c(&Circuit::from_generator(&g), None), Lang::C, &g2);
        prop_assert!(!rep.is_valid());
    }
}
