//! **fec-stream** — a streaming packet-FEC pipeline that finally puts
//! the synthesized codes on the wire, and closes the paper's
//! application-specific loop: the decoder *measures* the channel and
//! hands the measurement back to CEGIS as a §4.3 weighted spec.
//!
//! The datapath, per frame:
//!
//! ```text
//! bytes ─ packetize ─ words ─┬─ fountain repair words (per generation)
//!                            └─ inner encode (minimized kernels)
//!        ─ block interleave ─ Gilbert–Elliott channel ─ deinterleave
//!        ─ syndrome check (detect-and-erase) ─ fountain recovery
//!        ─ burst-profile estimation ─ [--adapt] weighted CEGIS ─ swap
//! ```
//!
//! - [`packet::Packetizer`] chops a byte stream into `k`-bit words;
//! - [`fountain`] adds XOR-parity repair words per generation and
//!   recovers erasures by GF(2) elimination;
//! - the inner code ([`pipeline::InnerCode`]) is compiled once into a
//!   certified minimized kernel (`fec-circ`) that encodes every frame,
//!   §4.3 composites included, never the naive matrix multiply;
//! - `fec-channel`'s [`GilbertElliott`](fec_channel::burst::GilbertElliott)
//!   corrupts the interleaved stream with state carried across blocks;
//! - [`estimate::BurstProfile`] reconstructs exact error vectors for
//!   every recovered frame and histograms the bursts;
//! - [`adapt::synthesize_adapted`] turns the measurement into a
//!   weighted synthesis problem and returns a deployable composite
//!   code plus channel-tuned depth and repair budget.
//!
//! Determinism: all randomness (payloads, repair masks, the channel)
//! derives from one seed through domain-separated sub-seeds
//! ([`pipeline::sub_seed`]), so every run — and every CI differential
//! check — is bit-reproducible.

#![forbid(unsafe_code)]

pub mod adapt;
pub mod estimate;
pub mod fountain;
pub mod packet;
pub mod pipeline;

pub use adapt::{synthesize_adapted, AdaptConfig, AdaptedCode};
pub use estimate::BurstProfile;
pub use packet::Packetizer;
pub use pipeline::{
    deterministic_payload, run_adaptive, run_stream, sub_seed, AdaptiveOutcome, InnerCode,
    StreamConfig, StreamOutcome, StreamStats,
};
