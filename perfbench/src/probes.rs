//! Shape-sized layer probes for the traced run: each times one layer's
//! public functions on the workload's own dimensions, as derived by
//! `QueryShape::derive`, without running the query driver.

use crate::ops::{gate_pair, guarded, Gate, OpError};
use crate::sys::median;
use crate::trace::{self, Party, NO_OP};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secyan_core::{QueryShape, SecureQuery, Session};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_ot::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
use secyan_transport::{channel_pair, tcp_channel_pair, try_run_protocol_on, Channel, Role};
use std::hint::black_box;
use std::time::Instant;

/// Derivations per query; the median is reported.
const DERIVE_REPS: usize = 3;
/// Session bootstraps timed by [`bootstrap`].
const BOOTSTRAP_REPS: usize = 5;

/// Work counts and derivation time of a set of query shapes.
pub struct ShapeProbe {
    pub derive_s: f64,
    pub planned_ands: u64,
    pub planned_circuits: usize,
    pub ot_budget: usize,
    pub kkrt_budget: usize,
    pub shapes: Vec<QueryShape>,
}

/// Derive the shape of each `(query, sizes)` (receiver Alice, `ell`-bit
/// ring); counts are summed over the queries.
pub fn shapes(queries: &[(SecureQuery, Vec<usize>, usize)]) -> ShapeProbe {
    let mut times = Vec::new();
    let mut shapes = Vec::new();
    for (q, sizes, ell) in queries {
        let mut shape = None;
        for _ in 0..DERIVE_REPS {
            let sp = trace::open("shape.derive", Party::Main, NO_OP, None);
            let t = Instant::now();
            shape = Some(black_box(QueryShape::derive(q, sizes, Role::Alice, *ell)));
            times.push(t.elapsed().as_secs_f64());
            sp.close(None);
        }
        shapes.push(shape.expect("DERIVE_REPS >= 1"));
    }
    ShapeProbe {
        derive_s: median(&times),
        planned_ands: shapes
            .iter()
            .flat_map(|s| &s.planned)
            .map(|p| p.circuit.and_count())
            .sum(),
        planned_circuits: shapes.iter().map(|s| s.planned.len()).sum(),
        ot_budget: shapes.iter().map(|s| s.ot_budget).sum(),
        kkrt_budget: shapes.iter().map(|s| s.kkrt_budget).sum(),
        shapes,
    }
}

/// AND gates garbled per second over every planned circuit of `shapes`.
pub fn gc_ands_per_s(shapes: &[QueryShape]) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x6C);
    let (mut ands, mut secs) = (0u64, 0f64);
    for pc in shapes.iter().flat_map(|s| &s.planned) {
        let sp = trace::open("gc.garble", Party::Main, NO_OP, None);
        let t = Instant::now();
        black_box(secyan_gc::scheme::garble(
            &pc.circuit,
            TweakHasher::default(),
            &mut rng,
        ));
        secs += t.elapsed().as_secs_f64();
        sp.close(None);
        ands += pc.circuit.and_count();
    }
    if secs > 0.0 {
        ands as f64 / secs
    } else {
        0.0
    }
}

/// Meet the peer, then time `body` on this party up to its last frame.
fn timed(
    gate: &Gate,
    name: &'static str,
    party: Party,
    ch: &mut Channel,
    body: impl FnOnce(&mut Channel),
) -> f64 {
    // Ship what earlier steps staged, or the peer may wait for it forever.
    ch.flush();
    gate.meet();
    let sp = trace::open(name, party, NO_OP, Some(ch.stats()));
    let t = Instant::now();
    body(ch);
    ch.flush();
    let wall = t.elapsed().as_secs_f64();
    sp.close(Some(ch.stats()));
    wall
}

/// A party's banking step, built after its one-time setup: each call
/// banks the given number of instances.
type Banker = Box<dyn FnMut(&mut Channel, usize)>;

/// Time one bank per non-zero budget on both parties, after one setup;
/// returns nanoseconds per banked instance (per bank the slower party's
/// time, summed, over the instances banked).
fn bank_probe(
    name: &'static str,
    budgets: &[usize],
    alice: impl FnOnce(&mut Channel) -> Banker + Send,
    bob: impl FnOnce(&mut Channel) -> Banker + Send,
) -> Result<f64, OpError> {
    let budgets: Vec<usize> = budgets.iter().copied().filter(|&b| b > 0).collect();
    let b = &budgets;
    let (ga, gb) = gate_pair();
    let (wa, wb, _) = guarded(|| {
        try_run_protocol_on(
            channel_pair(),
            move |ch| {
                let mut bank = alice(ch);
                b.iter()
                    .map(|&m| timed(&ga, name, Party::Alice, ch, |ch| bank(ch, m)))
                    .collect::<Vec<_>>()
            },
            move |ch| {
                let mut bank = bob(ch);
                b.iter()
                    .map(|&m| timed(&gb, name, Party::Bob, ch, |ch| bank(ch, m)))
                    .collect::<Vec<_>>()
            },
        )
    })?;
    let secs: f64 = wa.iter().zip(&wb).map(|(a, b)| a.max(*b)).sum();
    let total: usize = budgets.iter().sum();
    Ok(if total > 0 {
        secs * 1e9 / total as f64
    } else {
        0.0
    })
}

/// IKNP random-OT banks (`OtSender::offline`/`OtReceiver::offline`).
pub fn ot_ns_per_banked(budgets: &[usize]) -> Result<f64, OpError> {
    let h = TweakHasher::default();
    bank_probe(
        "ot.bank",
        budgets,
        move |ch| {
            let mut rng = StdRng::seed_from_u64(0xA);
            let mut s = OtSender::setup(ch, &mut rng, h);
            Box::new(move |ch, m| drop(black_box(s.offline(ch, m))))
        },
        move |ch| {
            let mut rng = StdRng::seed_from_u64(0xB);
            let mut r = OtReceiver::setup(ch, &mut rng, h);
            Box::new(move |ch, m| drop(black_box(r.offline(ch, m, &mut rng))))
        },
    )
}

/// KKRT OPRF banks (`KkrtSender::offline`/`KkrtReceiver::offline`).
pub fn kkrt_ns_per_instance(budgets: &[usize]) -> Result<f64, OpError> {
    let h = TweakHasher::default();
    bank_probe(
        "kkrt.bank",
        budgets,
        move |ch| {
            let mut rng = StdRng::seed_from_u64(0xC);
            let mut s = KkrtSender::setup(ch, &mut rng, h);
            Box::new(move |ch, m| drop(black_box(s.offline(ch, m))))
        },
        move |ch| {
            let mut rng = StdRng::seed_from_u64(0xD);
            let mut r = KkrtReceiver::setup(ch, &mut rng, h);
            Box::new(move |ch, m| drop(black_box(r.offline(ch, m, &mut rng))))
        },
    )
}

/// Session bootstrap (`Session::new`) over loopback TCP, as a session
/// pays it: median seconds per party and bytes per bootstrap.
pub struct Bootstrap {
    pub alice_s: f64,
    pub bob_s: f64,
    pub bytes: u64,
}

pub fn bootstrap(seed: u64) -> Result<Bootstrap, OpError> {
    let (mut wa, mut wb, mut bytes) = (Vec::new(), Vec::new(), 0);
    for rep in 0..BOOTSTRAP_REPS as u64 {
        let pair = tcp_channel_pair().map_err(|e| format!("loopback pair: {e}"))?;
        let (ga, gb) = gate_pair();
        let boot = |gate: Gate, party: Party, seed: u64| {
            move |ch: &mut Channel| {
                timed(&gate, "session.bootstrap", party, ch, |ch| {
                    drop(black_box(Session::new(
                        ch,
                        RingCtx::new(32),
                        TweakHasher::default(),
                        seed,
                    )))
                })
            }
        };
        let (a, b, stats) = guarded(|| {
            try_run_protocol_on(
                pair,
                boot(ga, Party::Alice, seed ^ rep),
                boot(gb, Party::Bob, !seed ^ rep),
            )
        })?;
        wa.push(a);
        wb.push(b);
        bytes = stats.total_bytes();
    }
    Ok(Bootstrap {
        alice_s: median(&wa),
        bob_s: median(&wb),
        bytes,
    })
}
