//! One measured two-party operation: both parties as threads of this
//! process, each timing its own side.

use crate::sys::{Interval, Mark};
use crate::trace::{self, Party, ROOT};
use secyan_core::{run_offline, run_online, QueryResult, SecureQuery, Session};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_relation::{NaturalRing, Relation};
use secyan_tpch::queries::{run_secure_instance, QuerySpec, ResultRow};
use secyan_transport::{try_run_protocol, try_run_protocol_on, Channel, CommStats, Role};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

/// Why an operation produced no result.
pub type OpError = String;

/// Run a two-party body, turning a typed protocol error or any panic into
/// an [`OpError`] so one failed operation is counted, not fatal.
pub fn guarded<T>(
    body: impl FnOnce() -> Result<T, secyan_transport::ProtocolError>,
) -> Result<T, OpError> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("protocol error: {e}")),
        Err(p) => Err(format!(
            "panic: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("non-string payload")
        )),
    }
}

/// A meeting point for the two party threads, outside the protocol's
/// channel so it adds no bytes or rounds. A party that unwinds drops its
/// end, and the peer then fails instead of waiting forever.
pub struct Gate {
    tx: Sender<()>,
    rx: Receiver<()>,
}

const GATE_TIMEOUT: Duration = Duration::from_secs(120);

pub fn gate_pair() -> (Gate, Gate) {
    let (ta, rb) = channel();
    let (tb, ra) = channel();
    (Gate { tx: ta, rx: ra }, Gate { tx: tb, rx: rb })
}

impl Gate {
    /// Signal the peer once and wait for its signal.
    pub fn meet(&self) {
        // A send error means the peer is gone; the receive below reports it.
        let _ = self.tx.send(());
        if let Err(e) = self.rx.recv_timeout(GATE_TIMEOUT) {
            panic!("peer party never reached the gate: {e}");
        }
    }
}

/// Both parties' sides of one single-phase query.
pub struct SingleOp {
    pub rows: Vec<ResultRow>,
    pub alice: Interval,
    pub bob: Interval,
    pub stats: CommStats,
}

fn single_party(
    ch: &mut Channel,
    party: Party,
    op: usize,
    spec: &QuerySpec,
    seed: u64,
) -> (Vec<ResultRow>, Interval) {
    let m0 = Mark::now();
    let root = trace::open(ROOT, party, op, Some(ch.stats()));
    let sp = trace::open("session.bootstrap", party, op, Some(ch.stats()));
    let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::default(), seed);
    sp.close(Some(sess.ch.stats()));
    let sp = trace::open("protocol.run", party, op, Some(sess.ch.stats()));
    let rows = run_secure_instance(&mut sess, spec);
    sp.close(Some(sess.ch.stats()));
    let m1 = Mark::now();
    root.close(Some(sess.ch.stats()));
    (rows, Interval::between(&m0, &m1))
}

/// TPC-H query in one phase over the in-process channel; Alice receives.
pub fn single_phase(spec: &QuerySpec, seeds: (u64, u64), op: usize) -> Result<SingleOp, OpError> {
    guarded(|| {
        try_run_protocol(
            |ch| single_party(ch, Party::Alice, op, spec, seeds.0),
            |ch| single_party(ch, Party::Bob, op, spec, seeds.1),
        )
    })
    .map(|((rows, alice), (_, bob), stats)| SingleOp {
        rows,
        alice,
        bob,
        stats,
    })
}

/// One party's inputs to a phase-split run.
pub struct SplitInputs<'a> {
    pub query: &'a SecureQuery,
    pub sizes: &'a [usize],
    pub ring: RingCtx,
    pub rels: Vec<Option<Relation<NaturalRing>>>,
    pub seed: u64,
}

/// Both parties' sides of one offline-then-online execution.
pub struct SplitOp {
    /// Alice's revealed result.
    pub result: QueryResult,
    /// Offline phase up to the phase boundary, per party.
    pub offline: (Interval, Interval),
    /// Online phase, per party.
    pub online: (Interval, Interval),
    /// Counters moved in each phase (both directions).
    pub offline_stats: CommStats,
    pub online_stats: CommStats,
    /// Alice's banked material before the online phase: OTs, KKRT
    /// instances and pre-garbled circuits, both directions summed.
    pub banked: (usize, usize, usize),
}

struct SplitSide {
    result: QueryResult,
    offline: Interval,
    online: Interval,
    boundary: CommStats,
    banked: (usize, usize, usize),
}

fn split_party(
    ch: &mut Channel,
    party: Party,
    op: usize,
    inp: SplitInputs,
    gate: Gate,
) -> SplitSide {
    let hasher = TweakHasher::default();
    let m0 = Mark::now();
    let root = trace::open(ROOT, party, op, Some(ch.stats()));
    let sp = trace::open("preproc.offline", party, op, Some(ch.stats()));
    let material = run_offline(
        ch,
        inp.query,
        inp.sizes,
        Role::Alice,
        inp.ring,
        hasher,
        inp.seed,
    );
    // A staged tail would otherwise ship with the first online frame and
    // leave the peer's offline phase waiting on this party's online work.
    ch.flush();
    sp.close(Some(ch.stats()));
    let (ot, kk, gc) = (
        material.ot_banked(),
        material.kkrt_banked(),
        material.circuits_banked(),
    );
    // Phase boundary: the online phase starts when both hold their
    // material, as it would once inputs arrive after preprocessing. Alice
    // reads the shared meter between the two meetings, when neither party
    // can be sending.
    gate.meet();
    let boundary = ch.stats();
    gate.meet();
    let m1 = Mark::now();
    let sp = trace::open("preproc.online", party, op, Some(ch.stats()));
    let result = run_online(
        ch,
        inp.query,
        &inp.rels,
        Role::Alice,
        inp.ring,
        hasher,
        material,
    );
    sp.close(Some(ch.stats()));
    let m2 = Mark::now();
    root.close(Some(ch.stats()));
    SplitSide {
        result,
        offline: Interval::between(&m0, &m1),
        online: Interval::between(&m1, &m2),
        boundary,
        banked: (ot.0 + ot.1, kk.0 + kk.1, gc.0 + gc.1),
    }
}

/// Offline phase, then the online phase, over a caller-supplied channel
/// pair with a shared meter; Alice receives.
pub fn phase_split(
    pair: (Channel, Channel),
    alice: SplitInputs,
    bob: SplitInputs,
    op: usize,
) -> Result<SplitOp, OpError> {
    let (ga, gb) = gate_pair();
    guarded(|| {
        try_run_protocol_on(
            pair,
            |ch| split_party(ch, Party::Alice, op, alice, ga),
            |ch| split_party(ch, Party::Bob, op, bob, gb),
        )
    })
    .map(|(a, b, stats)| SplitOp {
        result: a.result,
        offline: (a.offline, b.offline),
        online: (a.online, b.online),
        offline_stats: a.boundary,
        online_stats: stats.since(&a.boundary),
        banked: a.banked,
    })
}
