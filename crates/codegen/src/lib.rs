//! Encoder production (§4.4): the XOR-circuit IR and its C and Rust
//! emitters.
//!
//! For a *fixed* generator, every check bit is the XOR of the data bits
//! its coefficient column selects. The paper emits per-generator C
//! programs and shows that minimizing `len_1` (total set coefficient
//! bits) speeds up encode/check. This crate holds the one
//! representation every encoder in the workspace comes from:
//!
//! - [`Circuit`]: `k` inputs, binary XOR gates in evaluation order,
//!   one output binding per check bit. [`Circuit::from_generator`] is
//!   the unminimized "sparse" encoder, one XOR chain per check column,
//!   with `len_1 - (#non-empty columns)` gates;
//! - [`emit_c`] / [`emit_rust`]: straight-line source for any circuit
//!   (a word-array parameter when `k > 64`), plus the stride-driven
//!   benchmark `main` that Fig. 5 compiles.
//!
//! The `fec-circ` crate proves every circuit and every emitted source
//! equal to its generator matrix, minimizes circuits, and compiles them
//! into runtime kernels.

#![forbid(unsafe_code)]

mod emit;
mod ir;

pub use emit::{emit_c, emit_rust};
pub use ir::{Circuit, Gate, Node, Output};
