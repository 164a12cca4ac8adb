//! Differential correctness harness for the secure Yannakakis stack.
//!
//! Three pieces, used together by the `tests/` integration suite and
//! usable from a debugging session:
//!
//! * [`gen`] — a seeded generator of random free-connex join-aggregate
//!   instances ([`Instance::generate`]), plus a baseline-shaped chain
//!   family ([`Instance::generate_chain`]). Same seed, same instance —
//!   a failing seed in CI reproduces locally with no further state.
//! * [`diff`] — the differential runner: the naive evaluator (oracle),
//!   plaintext Yannakakis, the garbled-circuit baseline, and the full
//!   secure protocol over one instance, with agreement asserted
//!   ([`check_instance`]) and the secure transcript returned for
//!   obliviousness checks.
//! * fault harness glue — [`run_secure_with_faults`] runs the secure
//!   protocol through `secyan-transport`'s deterministic fault-injecting
//!   relay and returns the typed outcome.
//!
//! See DESIGN.md §10 for the fault model and the reasoning behind the
//! engine lineup.

pub mod diff;
pub mod gen;

pub use diff::{
    canonical_result, check_instance, oracle, plaintext_yannakakis, run_baseline, run_secure,
    run_secure_phase_split, run_secure_phase_split_accounted, run_secure_phase_split_tcp,
    run_secure_phase_split_with_faults, run_secure_tcp, run_secure_tcp_eager,
    run_secure_tcp_proxied, run_secure_uncoalesced, run_secure_with_faults, scalar_of,
    session_seeds, Differential, Rows, SecureRun,
};
pub use gen::{AggKind, Instance};
