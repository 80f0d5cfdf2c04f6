//! Channel and data-type simulation substrate.
//!
//! The paper's robustness experiments (§4.2 Fig. 4, §4.3 Table 2) push
//! tens of millions of codewords through a binary symmetric channel
//! (BSC) and count undetected errors. This crate provides:
//!
//! - [`bsc`]: the channel model, with geometric skip sampling so the
//!   cost scales with the number of *flips*, not the number of bits,
//!   and an exact integer table for the gaps in place of a logarithm;
//! - [`floatbits`]: IEEE-754 per-bit error-magnitude analysis — the
//!   data behind Fig. 1 and the §4.3 weights;
//! - [`experiment`]: the trial harnesses that regenerate Fig. 4 and
//!   Table 2, with a multi-threaded runner. Codewords of up to 64
//!   bits run 64 trials per pass of the minimized encoder, one per
//!   bit lane of `CircuitKernel::encode_checks_lanes`.

#![forbid(unsafe_code)]

pub mod awgn;
pub mod bsc;
pub mod burst;
pub mod experiment;
pub mod floatbits;
