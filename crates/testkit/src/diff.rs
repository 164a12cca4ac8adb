//! The differential runner: every instance through every engine.
//!
//! Four engines evaluate the same instance:
//!
//! 1. the brute-force naive evaluator (`secyan-relation::naive`) — the
//!    oracle, chosen for being too simple to be wrong;
//! 2. plaintext 3-phase Yannakakis (`secyan-relation::yannakakis`);
//! 3. the naive garbled-circuit baseline (`secyan-baseline`), on instances
//!    matching its chain/scalar query shape;
//! 4. the full secure two-party protocol (`secyan-core`).
//!
//! [`check_instance`] asserts they all agree and returns the secure run's
//! transcript so obliviousness tests can compare instances of equal public
//! shape. Results are compared after canonicalization: rows sorted, equal
//! output tuples merged in the ring (the secure engine reveals one row per
//! surviving join row, the plaintext engines one per group — both are
//! valid decodings of the same aggregate), and zero-valued rows dropped
//! (a zero aggregate is indistinguishable from an absent row in every
//! engine's output contract).

use crate::gen::{AggKind, Instance};
use secyan_baseline::{naive_gc_evaluator, naive_gc_garbler, NaiveRows};
use secyan_core::preproc::run_online_accounted;
use secyan_core::protocol::StepUse;
use secyan_core::{run_offline, run_online, secure_yannakakis, QueryResult, Session};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_ot::{OtReceiver, OtSender};
use secyan_relation::{naive::naive_join_aggregate, yannakakis, CountSemiring, Relation};
use secyan_transport::{
    run_protocol, run_protocol_captured, run_protocol_captured_on,
    tcp_channel_pair_with_transcript, tcp_pair_from_streams, try_run_protocol_on,
    try_run_protocol_with_faults, CommStats, FaultPlan, ProtocolError, Role, TcpFault,
    TcpFaultProxy,
};

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Canonical query result: sorted `(tuple, value)` rows, no zero values.
pub type Rows = Vec<(Vec<u64>, u64)>;

/// Key bits used for baseline-compatible instances (keys are `< 256` by
/// [`Instance::baseline_rows`]'s check).
const BASELINE_KEY_BITS: usize = 8;

/// Permute tuple columns into sorted attribute-name order — the same
/// column order `Relation::canonical()` uses — so secure results (whose
/// `QueryResult::schema` is in protocol order) compare against plaintext
/// ones.
fn sorted_columns(schema: &[String], tuples: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    let mut order: Vec<usize> = (0..schema.len()).collect();
    order.sort_by(|&a, &b| schema[a].cmp(&schema[b]));
    tuples
        .into_iter()
        .map(|t| order.iter().map(|&i| t[i]).collect())
        .collect()
}

/// Canonicalize a secure run's revealed [`QueryResult`]: columns permuted
/// into sorted attribute-name order, rows sorted, equal tuples merged in
/// the ring, zero-valued rows dropped — the form every engine's output is
/// compared in. `secyan-client` uses this too, so a networked run prints
/// rows directly comparable with the oracle's.
pub fn canonical_result(ring: RingCtx, res: &QueryResult) -> Rows {
    canonical_nonzero(
        ring,
        sorted_columns(&res.schema, res.tuples.clone())
            .into_iter()
            .zip(res.values.iter().copied())
            .collect(),
    )
}

fn canonical_nonzero(ring: RingCtx, mut rows: Rows) -> Rows {
    rows.sort();
    let mut merged: Rows = Vec::with_capacity(rows.len());
    for (t, v) in rows {
        match merged.last_mut() {
            Some((last, acc)) if *last == t => *acc = ring.reduce(acc.wrapping_add(v)),
            _ => merged.push((t, v)),
        }
    }
    merged.retain(|(_, v)| *v != 0);
    merged
}

/// The oracle answer for an instance. SUM runs the naive evaluator in the
/// instance's own ring; COUNT runs it in the overflow-free saturating
/// counting semiring and reduces at the very end, so an engine that
/// wrapped *during* aggregation (instead of only at the boundary) would be
/// caught.
pub fn oracle(inst: &Instance) -> Rows {
    match inst.agg {
        AggKind::Sum => canonical_nonzero(
            inst.ring_ctx(),
            naive_join_aggregate(&inst.relations, &inst.output).canonical(),
        ),
        AggKind::Count => {
            let ring = inst.ring_ctx();
            let rels: Vec<Relation<CountSemiring>> = inst
                .relations
                .iter()
                .map(|r| {
                    Relation::from_rows(
                        CountSemiring,
                        r.schema.clone(),
                        r.tuples.iter().map(|t| (t.clone(), 1)).collect(),
                    )
                })
                .collect();
            canonical_nonzero(
                ring,
                naive_join_aggregate(&rels, &inst.output)
                    .canonical()
                    .into_iter()
                    .map(|(t, v)| (t, ring.reduce(v)))
                    .collect(),
            )
        }
    }
}

/// Engine 2: plaintext 3-phase Yannakakis over the instance's ring.
pub fn plaintext_yannakakis(inst: &Instance) -> Rows {
    canonical_nonzero(
        inst.ring_ctx(),
        yannakakis(&inst.relations, &inst.tree, &inst.output).canonical(),
    )
}

/// What a secure run produced, plus its public communication profile.
#[derive(Debug, Clone)]
pub struct SecureRun {
    /// Canonicalized receiver-side result.
    pub result: Rows,
    /// Public output size as revealed by the protocol.
    pub out_size: usize,
    /// Aggregate communication counters.
    pub stats: CommStats,
    /// Full payload transcript in wire order — obliviousness and
    /// thread-count-determinism tests compare these across runs.
    pub transcript: Vec<(Role, Vec<u8>)>,
}

impl SecureRun {
    /// The transcript reduced to the obliviousness view: per-message
    /// `(sender, length)`.
    pub fn lengths(&self) -> Vec<(Role, usize)> {
        self.transcript.iter().map(|(r, m)| (*r, m.len())).collect()
    }
}

/// Engine 4: the full secure two-party protocol, on a recording channel.
/// Alice is the receiver; session RNG seeds derive from the instance seed.
pub fn run_secure(inst: &Instance) -> SecureRun {
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let ring = inst.ring_ctx();
    let (sa, sb) = session_seeds(inst);
    let (res, (), stats, handle) = run_protocol_captured(
        move |ch| {
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sa);
            secure_yannakakis(&mut sess, &qa, &ra, Role::Alice)
        },
        move |ch| {
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sb);
            secure_yannakakis(&mut sess, &qb, &rb, Role::Alice);
        },
    );
    SecureRun {
        result: canonical_result(ring, &res),
        out_size: res.out_size,
        stats,
        transcript: handle.messages(),
    }
}

/// [`run_secure`] with message coalescing disabled: every staged message
/// ships as its own wire frame (the pre-super-round behavior). Same
/// session seeds as [`run_secure`], so the result, the logical transcript,
/// and every stage-time counter must be byte-identical; only the
/// frame/super-round counters may differ. Round-regression tests run both
/// and diff them.
pub fn run_secure_uncoalesced(inst: &Instance) -> SecureRun {
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let ring = inst.ring_ctx();
    let (sa, sb) = session_seeds(inst);
    let (res, (), stats, handle) = run_protocol_captured(
        move |ch| {
            ch.set_eager(true);
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sa);
            secure_yannakakis(&mut sess, &qa, &ra, Role::Alice)
        },
        move |ch| {
            ch.set_eager(true);
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sb);
            secure_yannakakis(&mut sess, &qb, &rb, Role::Alice);
        },
    );
    SecureRun {
        result: canonical_result(ring, &res),
        out_size: res.out_size,
        stats,
        transcript: handle.messages(),
    }
}

/// Engine 3: the naive garbled-circuit baseline, on instances matching its
/// chain/scalar shape (`None` otherwise). Both parties must decode the
/// same aggregate; the caller compares it to the oracle's scalar.
pub fn run_baseline(inst: &Instance) -> Option<u64> {
    let rows = inst.baseline_rows()?;
    let sizes = inst.sizes();
    let owners = inst.owners.clone();
    let to_side = |who: Role| -> Vec<Option<NaiveRows>> {
        rows.iter()
            .zip(&owners)
            .map(|(r, &o)| if o == who { Some(r.clone()) } else { None })
            .collect()
    };
    let (alice_rows, bob_rows) = (to_side(Role::Alice), to_side(Role::Bob));
    let ell = inst.ell as usize;
    let (s2, o2) = (sizes.clone(), owners.clone());
    let (sa, sb) = session_seeds(inst);
    const HASHER: TweakHasher = TweakHasher::Aes;
    let (a, b, _) = run_protocol(
        move |ch| {
            let mut rng = StdRng::seed_from_u64(sa);
            let mut ot = OtSender::setup(ch, &mut rng, HASHER);
            naive_gc_garbler(
                ch,
                &sizes,
                &owners,
                &alice_rows,
                BASELINE_KEY_BITS,
                ell,
                &mut ot,
                HASHER,
                &mut rng,
            )
        },
        move |ch| {
            let mut rng = StdRng::seed_from_u64(sb);
            let mut ot = OtReceiver::setup(ch, &mut rng, HASHER);
            naive_gc_evaluator(
                ch,
                &s2,
                &o2,
                &bob_rows,
                BASELINE_KEY_BITS,
                ell,
                &mut ot,
                HASHER,
            )
        },
    );
    assert_eq!(a, b, "baseline parties decode different aggregates");
    Some(a)
}

/// The scalar value of a canonicalized scalar-query result (`0` when the
/// aggregate vanished).
pub fn scalar_of(rows: &Rows) -> u64 {
    match rows.len() {
        0 => 0,
        1 => rows[0].1,
        n => panic!("scalar query produced {n} rows"),
    }
}

/// Everything [`check_instance`] established about one instance.
#[derive(Debug, Clone)]
pub struct Differential {
    /// The oracle's canonical answer.
    pub expected: Rows,
    /// The secure run (result already asserted equal to `expected`).
    pub secure: SecureRun,
    /// The baseline's aggregate, when the instance matched its shape.
    pub baseline: Option<u64>,
}

/// Run an instance through every engine and assert they agree. Panics
/// with the instance's reproduction handle on any mismatch.
pub fn check_instance(inst: &Instance) -> Differential {
    let expected = oracle(inst);
    let plain = plaintext_yannakakis(inst);
    assert_eq!(
        plain,
        expected,
        "plaintext yannakakis disagrees with the naive oracle on {}",
        inst.describe()
    );
    let secure = run_secure(inst);
    assert_eq!(
        secure.result,
        expected,
        "secure protocol disagrees with the oracle on {}",
        inst.describe()
    );
    let baseline = run_baseline(inst);
    if let Some(b) = baseline {
        assert_eq!(
            b,
            scalar_of(&expected),
            "circuit baseline disagrees with the oracle on {}",
            inst.describe()
        );
    }
    Differential {
        expected,
        secure,
        baseline,
    }
}

/// Engine 4 in phase-split mode: run the offline phase (shape-keyed
/// precomputation), then the online phase against the banked material.
/// Must produce results identical to [`run_secure`]; the recorded stats
/// additionally carry the offline/online byte and round split.
///
/// `shed` optionally exhausts the material before the online run:
/// `(circuits, ot_cap)` discards that many pre-garbled entries and caps
/// the OT banks, forcing per-step inline fallback mid-online (applied
/// symmetrically, as a real exhausted pool would be).
pub fn run_secure_phase_split(inst: &Instance, shed: Option<(usize, usize)>) -> SecureRun {
    run_secure_phase_split_accounted(inst, shed).0
}

/// [`run_secure_phase_split`], also returning how each plan step met its
/// garbled circuits on each party (Alice's steps, then Bob's).
pub fn run_secure_phase_split_accounted(
    inst: &Instance,
    shed: Option<(usize, usize)>,
) -> (SecureRun, [Vec<StepUse>; 2]) {
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let sizes = inst.sizes();
    let (s2, sizes) = (sizes.clone(), sizes);
    let ring = inst.ring_ctx();
    let (sa, sb) = session_seeds(inst);
    let ((res, use_a), (_, use_b), stats, handle) = run_protocol_captured(
        move |ch| {
            let mut m = run_offline(
                ch,
                &qa,
                &sizes,
                Role::Alice,
                ring,
                TweakHasher::default(),
                sa,
            );
            if let Some((c, cap)) = shed {
                m.shed(c, cap);
            }
            run_online_accounted(ch, &qa, &ra, Role::Alice, ring, TweakHasher::default(), m)
        },
        move |ch| {
            let mut m = run_offline(ch, &qb, &s2, Role::Alice, ring, TweakHasher::default(), sb);
            if let Some((c, cap)) = shed {
                m.shed(c, cap);
            }
            run_online_accounted(ch, &qb, &rb, Role::Alice, ring, TweakHasher::default(), m)
        },
    );
    let run = SecureRun {
        result: canonical_result(ring, &res),
        out_size: res.out_size,
        stats,
        transcript: handle.messages(),
    };
    (run, [use_a, use_b])
}

/// [`run_secure_phase_split`] under a transport fault plan: the fault may
/// land in either phase, and in both cases the run must end in a typed
/// error or a correct result — never a hang or an untyped panic.
pub fn run_secure_phase_split_with_faults(
    inst: &Instance,
    plan: &FaultPlan,
) -> Result<(Rows, CommStats), ProtocolError> {
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let sizes = inst.sizes();
    let (s2, sizes) = (sizes.clone(), sizes);
    let ring = inst.ring_ctx();
    let (sa, sb) = session_seeds(inst);
    try_run_protocol_with_faults(
        plan,
        move |ch| {
            let m = run_offline(
                ch,
                &qa,
                &sizes,
                Role::Alice,
                ring,
                TweakHasher::default(),
                sa,
            );
            run_online(ch, &qa, &ra, Role::Alice, ring, TweakHasher::default(), m)
        },
        move |ch| {
            let m = run_offline(ch, &qb, &s2, Role::Alice, ring, TweakHasher::default(), sb);
            run_online(ch, &qb, &rb, Role::Alice, ring, TweakHasher::default(), m);
        },
    )
    .map(|(res, (), stats)| (canonical_result(ring, &res), stats))
}

/// Run the secure protocol under a transport fault plan. `Ok` carries the
/// receiver's canonical result (the plan's fault may land beyond the run's
/// message horizon); `Err` is the typed failure both the harness and the
/// fault tests care about: it must be an error, never a hang or an
/// untyped panic.
pub fn run_secure_with_faults(
    inst: &Instance,
    plan: &FaultPlan,
) -> Result<(Rows, CommStats), ProtocolError> {
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let ring = inst.ring_ctx();
    let (sa, sb) = session_seeds(inst);
    try_run_protocol_with_faults(
        plan,
        move |ch| {
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sa);
            secure_yannakakis(&mut sess, &qa, &ra, Role::Alice)
        },
        move |ch| {
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sb);
            secure_yannakakis(&mut sess, &qb, &rb, Role::Alice);
        },
    )
    .map(|(res, (), stats)| (canonical_result(ring, &res), stats))
}

/// Derive the two parties' `(alice, bob)` session RNG seeds from the
/// instance seed — fixed so reruns of a seed are byte-identical, distinct
/// per party. Public because the networked runtime must derive the same
/// seeds in two different processes (`secyan-client` Alice's,
/// `secyan-server` Bob's) for a TCP run to be transcript-comparable with
/// an in-process one.
pub fn session_seeds(inst: &Instance) -> (u64, u64) {
    let base = inst.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (base ^ 0xA11C_E000, base ^ 0xB0B0_0000)
}

/// [`run_secure`] over a real localhost TCP socket: same protocol
/// closures, same session seeds, but both endpoints' frames traverse the
/// kernel's TCP stack. The pair shares one meter and transcript exactly
/// like the in-process run, so the differential TCP sweep can assert the
/// result, transcript, and every stage-time counter are byte-identical to
/// [`run_secure`] on the same instance.
pub fn run_secure_tcp(inst: &Instance) -> SecureRun {
    run_secure_tcp_inner(inst, false)
}

/// [`run_secure_tcp`] with coalescing disabled (see
/// [`run_secure_uncoalesced`]): every staged message ships as its own TCP
/// frame. The coalesced-vs-eager differential must hold over the socket
/// exactly as it does in process.
pub fn run_secure_tcp_eager(inst: &Instance) -> SecureRun {
    run_secure_tcp_inner(inst, true)
}

fn run_secure_tcp_inner(inst: &Instance, eager: bool) -> SecureRun {
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let ring = inst.ring_ctx();
    let (sa, sb) = session_seeds(inst);
    let pair = tcp_channel_pair_with_transcript().expect("loopback TCP pair");
    let (res, (), stats, handle) = run_protocol_captured_on(
        pair,
        move |ch| {
            ch.set_eager(eager);
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sa);
            secure_yannakakis(&mut sess, &qa, &ra, Role::Alice)
        },
        move |ch| {
            ch.set_eager(eager);
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sb);
            secure_yannakakis(&mut sess, &qb, &rb, Role::Alice);
        },
    );
    SecureRun {
        result: canonical_result(ring, &res),
        out_size: res.out_size,
        stats,
        transcript: handle.messages(),
    }
}

/// [`run_secure_phase_split`] over localhost TCP (no shedding): the
/// offline/online super-round pins must be transport-independent, which
/// the golden-round tests assert by diffing this run's phase-split meters
/// against the in-process ones.
pub fn run_secure_phase_split_tcp(inst: &Instance) -> SecureRun {
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let sizes = inst.sizes();
    let (s2, sizes) = (sizes.clone(), sizes);
    let ring = inst.ring_ctx();
    let (sa, sb) = session_seeds(inst);
    let pair = tcp_channel_pair_with_transcript().expect("loopback TCP pair");
    let (res, (), stats, handle) = run_protocol_captured_on(
        pair,
        move |ch| {
            let m = run_offline(
                ch,
                &qa,
                &sizes,
                Role::Alice,
                ring,
                TweakHasher::default(),
                sa,
            );
            run_online(ch, &qa, &ra, Role::Alice, ring, TweakHasher::default(), m)
        },
        move |ch| {
            let m = run_offline(ch, &qb, &s2, Role::Alice, ring, TweakHasher::default(), sb);
            run_online(ch, &qb, &rb, Role::Alice, ring, TweakHasher::default(), m);
        },
    );
    SecureRun {
        result: canonical_result(ring, &res),
        out_size: res.out_size,
        stats,
        transcript: handle.messages(),
    }
}

/// Run the secure protocol over TCP with Alice's traffic routed through a
/// [`TcpFaultProxy`] injecting `fault` (or a transparent proxy when
/// `None`). Both endpoints carry `io_timeout` so a stalled wire surfaces
/// as a typed `Timeout` instead of blocking the test. `Ok` carries the
/// receiver's canonical result; `Err` the typed failure — never a hang or
/// an untyped panic, on either endpoint.
pub fn run_secure_tcp_proxied(
    inst: &Instance,
    fault: Option<TcpFault>,
    io_timeout: Duration,
) -> Result<(Rows, CommStats), ProtocolError> {
    let query = inst.query();
    let (qa, qb) = (query.clone(), query);
    let ra = inst.party_relations(Role::Alice);
    let rb = inst.party_relations(Role::Bob);
    let ring = inst.ring_ctx();
    let (sa, sb) = session_seeds(inst);
    // Bob listens; Alice connects through the byte-level proxy, matching
    // the proxy's direction convention (connecting side = Alice).
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("loopback listener");
    let upstream = listener.local_addr().expect("listener addr");
    let proxy = TcpFaultProxy::spawn(upstream, fault).expect("fault proxy");
    let alice_stream = TcpStream::connect(proxy.addr()).expect("connect via proxy");
    let (bob_stream, _) = listener.accept().expect("accept");
    let (mut ca, mut cb) = tcp_pair_from_streams(alice_stream, bob_stream).expect("TCP pair");
    ca.set_io_timeout(Some(io_timeout));
    cb.set_io_timeout(Some(io_timeout));
    let out = try_run_protocol_on(
        (ca, cb),
        move |ch| {
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sa);
            secure_yannakakis(&mut sess, &qa, &ra, Role::Alice)
        },
        move |ch| {
            let mut sess = Session::new(ch, ring, TweakHasher::default(), sb);
            secure_yannakakis(&mut sess, &qb, &rb, Role::Alice);
        },
    )
    .map(|(res, (), stats)| (canonical_result(ring, &res), stats));
    drop(proxy);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_and_yannakakis_agree_widely() {
        // Plaintext-only sweep: cheap, so cover many seeds here; the
        // secure sweep lives in the integration suite.
        for seed in 0..150 {
            let inst = Instance::generate(seed);
            assert_eq!(
                plaintext_yannakakis(&inst),
                oracle(&inst),
                "{}",
                inst.describe()
            );
        }
    }

    #[test]
    fn secure_engine_agrees_on_a_sample() {
        for seed in [0, 1, 2, 3] {
            check_instance(&Instance::generate(seed));
        }
    }

    #[test]
    fn baseline_engine_agrees_on_chain_family() {
        let mut ran = 0;
        for seed in 0..4 {
            let inst = Instance::generate_chain(seed);
            let d = check_instance(&inst);
            ran += usize::from(d.baseline.is_some());
        }
        assert_eq!(ran, 4, "every chain instance must exercise the baseline");
    }

    #[test]
    fn scalar_of_rejects_non_scalars() {
        assert_eq!(scalar_of(&vec![]), 0);
        assert_eq!(scalar_of(&vec![(vec![], 7)]), 7);
    }
}
