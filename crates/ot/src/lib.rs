//! Oblivious transfer for the secure Yannakakis workspace.
//!
//! Three layers, mirroring how the paper's backends are built:
//!
//! * [`base`] — Chou–Orlandi "simplest OT": O(κ) public-key operations over
//!   the Mersenne-prime group from `secyan-crypto::mersenne`. Run once per
//!   session to bootstrap extension.
//! * [`iknp`] — IKNP OT extension: after κ = 128 base OTs, any number of
//!   fast symmetric-key OTs. This powers garbled-circuit input transfer
//!   and the oblivious switching network in `secyan-oep`.
//! * [`kkrt`] — KKRT batched oblivious PRF (BaRK-OPRF), the 512-column wide
//!   cousin of IKNP. This powers the OPPRF inside circuit PSI
//!   (`secyan-psi`), which in turn implements the paper's §5.3/§5.5.
//!
//! All protocols speak over `secyan_transport::Channel` and are exercised
//! end-to-end (two real threads) by this crate's tests.

pub mod base;
pub mod iknp;
pub mod kkrt;

pub use iknp::{gilboa_bits, gilboa_shifts, OtReceiver, OtRecvBank, OtSendBank, OtSender};
pub use kkrt::{KkrtReceiver, KkrtRecvBank, KkrtSendBank, KkrtSender, KkrtSenderKey};
