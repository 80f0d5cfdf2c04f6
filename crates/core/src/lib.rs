//! CEGIS-based synthesis of application-specific Hamming FEC codes —
//! the primary contribution of the reproduced paper.
//!
//! The pipeline mirrors the paper's §3:
//!
//! 1. **Property language** ([`spec`]) — the Fig. 3 grammar: numeric
//!    expressions over generators (`len_d`, `len_c`, `len_1`, `md`,
//!    matrix cells, weights, `sum_w`), boolean combinations, and the
//!    `minimal(e)` / `maximal(e)` optimization pseudo-properties.
//! 2. **Encoding** ([`encode`]) — lowers properties plus the §3.2
//!    well-formedness constraints to the finite-domain solver in
//!    `fec-smt` (our substitute for Z3's QF_UFLRA; see DESIGN.md).
//! 3. **CEGIS** ([`cegis`]) — Algorithm 1: a synthesizer solver
//!    proposes candidate generators, a verifier solver searches for
//!    minimum-distance counterexamples, and optimization constraints
//!    tighten bounds until timeout. [`reference`](mod@reference) is
//!    the from-scratch oracle the incremental driver is tested against.
//! 4. **Stand-alone verification** ([`verify`]) — §4.1: check concrete
//!    generators (e.g. the 802.3df (128,120) code) against properties.
//! 5. **Weighted synthesis** ([`weights`]) — §4.3: per-bit criticality
//!    weights, the `map` of data bits to generators, and minimization
//!    of the weighted undetected-error objective `sum_w`.
//!
//! # Quickstart
//!
//! ```
//! use fec_synth::spec::parse_property;
//! use fec_synth::cegis::{Synthesizer, SynthesisConfig};
//!
//! // §3.1 example: one generator, 4 data bits, ≤ 4 check bits,
//! // minimum distance 3, minimizing the check bits.
//! let prop = parse_property(
//!     "len_G = 1 && len_d(G0) = 4 && len_c(G0) <= 4 \
//!      && md(G0) = 3 && minimal(len_c(G0))").unwrap();
//! let mut synth = Synthesizer::new(SynthesisConfig::default());
//! let result = synth.run(&prop).unwrap();
//! let g = &result.generators[0];
//! assert_eq!(g.data_len(), 4);
//! assert_eq!(g.check_len(), 3); // the optimal Hamming (7,4) shape
//! ```

#![forbid(unsafe_code)]

pub mod cegis;
pub mod encode;
pub mod reference;
pub mod verify;
pub mod weights;

// The property language and the structural/bounds analysis live in
// `fec-analyze` (shared with `fecsynth analyze` and the bench sweep
// pruner); re-exported here so `fec_synth::spec::...` keeps working.
pub use fec_analyze::spec;
