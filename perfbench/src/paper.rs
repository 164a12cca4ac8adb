//! The paper's TPC-H workloads: `q3-cold` (Q3, one phase, in-process
//! channel) and `q10-split` (Q10, offline then online, loopback TCP).

use crate::ops::{self, SplitInputs, SplitOp};
use crate::probes;
use crate::report::{check_same, Report};
use crate::sys::{median, mix_seed, peak_rss_mb, Interval};
use crate::trace::{self, Party, NO_OP};
use secyan_core::QueryResult;
use secyan_crypto::RingCtx;
use secyan_relation::NaturalRing;
use secyan_tpch::queries::{
    canonical, run_plaintext_instance, Post, QuerySpec, ResultRow, SubQuery,
};
use secyan_tpch::{Database, PaperQuery, Scale};
use secyan_transport::{channel_pair, tcp_channel_pair, Channel, CommStats, Role};
use std::time::{Duration, Instant};

/// Data set size in MB of the classic dump (2,2xx tuples for Q3).
const SCALE_MB: f64 = 0.3;
/// Annotation ring width ℓ.
const ELL: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

fn ring() -> NaturalRing {
    NaturalRing::paper_default()
}

/// A query's data, its plaintext answer, and what producing them cost.
struct Inputs {
    spec: QuerySpec,
    oracle: Vec<ResultRow>,
    generate_s: f64,
    build_s: f64,
    oracle_s: f64,
    setup_s: f64,
}

fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let sp = trace::open(name, Party::Main, NO_OP, None);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    sp.close(None);
    (out, secs)
}

/// Set up [`SETUP_REPS`] times: generate and build the query's data, then
/// run one untimed warm-up operation on a tiny data set of the same seed.
/// The plaintext answer is computed afterwards, outside `setup_s`.
fn setup(
    query: PaperQuery,
    seed: u64,
    warm_up: impl Fn(&QuerySpec) -> Result<(), String>,
) -> Result<Inputs, String> {
    let (mut setups, mut gens, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut spec = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (db, g) = timed("tpch.generate", || {
            Database::generate(Scale::mb(SCALE_MB), seed)
        });
        let (s, b) = timed("tpch.build", || query.build(&db, ring()));
        let tiny = query.build(&Database::generate(Scale::tiny(), seed), ring());
        let traced = trace::enabled();
        trace::set_enabled(false);
        warm_up(&tiny).map_err(|e| format!("warm-up: {e}"))?;
        trace::set_enabled(traced);
        setups.push(t.elapsed().as_secs_f64());
        gens.push(g);
        builds.push(b);
        spec = Some(s);
    }
    let spec = spec.expect("SETUP_REPS >= 1");
    let (oracle, oracle_s) = timed("tpch.plaintext", || {
        canonical(run_plaintext_instance(&spec, ring()))
    });
    Ok(Inputs {
        spec,
        oracle,
        generate_s: median(&gens),
        build_s: median(&builds),
        oracle_s,
        setup_s: median(&setups),
    })
}

/// The single subquery of a query whose answer is revealed directly.
fn reveal_subquery(spec: &QuerySpec) -> Result<&SubQuery, String> {
    match (&spec.post, spec.subqueries.as_slice()) {
        (Post::Reveal, [sq]) => Ok(sq),
        _ => Err(format!(
            "{} is not a single revealed subquery",
            spec.query.name()
        )),
    }
}

fn result_rows(ring: RingCtx, res: &QueryResult) -> Vec<ResultRow> {
    canonical(
        res.tuples
            .iter()
            .cloned()
            .zip(res.values.iter().map(|&v| ring.to_signed(v)))
            .collect(),
    )
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Keep measuring until `seconds` have passed, alternating traced and
/// untraced operations in a traced run (so their difference is the
/// tracing overhead). `op` returns the operation's query wall time when
/// it succeeded and was checked.
fn measure(seconds: u64, traced: bool, mut op: impl FnMut(usize) -> Option<f64>) -> Measured {
    let min_ops = if traced { 2 } else { 1 };
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut m = Measured::default();
    let mut i = 0;
    while i < min_ops || Instant::now() < deadline {
        let on = traced && i % 2 == 0;
        trace::set_enabled(on);
        if let Some(wall) = op(i) {
            m.done += 1;
            if on { &mut m.traced } else { &mut m.untraced }.push(wall);
        }
        i += 1;
    }
    trace::set_enabled(traced);
    m.loop_s = start.elapsed().as_secs_f64();
    m
}

#[derive(Default)]
struct Measured {
    done: usize,
    loop_s: f64,
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

impl Measured {
    fn ops_per_s(&self) -> f64 {
        self.done as f64 / self.loop_s
    }
    fn overhead_s(&self) -> f64 {
        median(&self.traced) - median(&self.untraced)
    }
}

/// Per-layer figures every TPC-H workload reports the same way.
fn common_layers(
    r: &mut Report,
    inputs: &Inputs,
    m: &Measured,
    sq: &SubQuery,
) -> probes::ShapeProbe {
    r.set("inputs.generate_s", inputs.generate_s);
    r.set("inputs.build_s", inputs.build_s);
    r.set("inputs.oracle_s", inputs.oracle_s);
    let sizes: Vec<usize> = sq.relations.iter().map(|r| r.len()).collect();
    let shape = probes::shapes(&[(sq.to_secure_query(), sizes, ELL)]);
    r.set("shape.derive_s", shape.derive_s);
    r.set("shape.planned_ands", shape.planned_ands as f64);
    r.set("shape.planned_circuits", shape.planned_circuits as f64);
    r.set("shape.ot_budget", shape.ot_budget as f64);
    r.set("shape.kkrt_budget", shape.kkrt_budget as f64);
    r.set("gc.ands_per_s", probes::gc_ands_per_s(&shape.shapes));
    match probes::ot_ns_per_banked(&[shape.ot_budget]) {
        Ok(ns) => r.set("ot.ns_per_banked_ot", ns),
        Err(e) => r.record(Some(format!("OT bank probe: {e}"))),
    }
    match probes::kkrt_ns_per_instance(&[shape.kkrt_budget]) {
        Ok(ns) => r.set("kkrt.ns_per_instance", ns),
        Err(e) => r.record(Some(format!("KKRT bank probe: {e}"))),
    }
    // The TPC-H workloads run no server.
    r.set("server.pool_hit_ratio", 0.0);
    r.set("server.pool_left", 0.0);
    r.set(
        "trace.root_self_s",
        trace::receiver_root_self_s(&trace::spans()),
    );
    r.set("trace.overhead_s", m.overhead_s());
    shape
}

fn set_protocol(r: &mut Report, alice: &[Interval], bob: &[Interval]) {
    let pick =
        |xs: &[Interval], f: fn(&Interval) -> f64| median(&xs.iter().map(f).collect::<Vec<_>>());
    r.set("protocol.busy_s.alice", pick(alice, |i| i.busy_s));
    r.set("protocol.busy_s.bob", pick(bob, |i| i.busy_s));
    r.set("protocol.peer_wait_s", pick(alice, Interval::blocked_s));
    r.set("protocol.runqueue_wait_s", pick(alice, |i| i.runq_s));
}

fn set_transport(r: &mut Report, s: &CommStats) {
    let frames = s.frames_alice_to_bob + s.frames_bob_to_alice;
    r.set("transport.frames", frames as f64);
    r.set(
        "transport.msgs_per_frame",
        s.messages as f64 / frames.max(1) as f64,
    );
    r.set("transport.bytes_a2b", s.bytes_alice_to_bob as f64);
    r.set("transport.bytes_b2a", s.bytes_bob_to_alice as f64);
    r.set("transport.super_rounds", s.super_rounds as f64);
}

/// Deterministic counts of a phase split, checked to repeat exactly.
fn check_split(r: &mut Report, ops: &[SplitOp]) {
    let pick = |f: fn(&SplitOp) -> u64| ops.iter().map(f).collect::<Vec<_>>();
    check_same(r, "offline bytes", &pick(|o| o.offline_stats.total_bytes()));
    check_same(r, "online bytes", &pick(|o| o.online_stats.total_bytes()));
    check_same(
        r,
        "offline super-rounds",
        &pick(|o| o.offline_stats.super_rounds),
    );
    check_same(
        r,
        "online super-rounds",
        &pick(|o| o.online_stats.super_rounds),
    );
}

fn split_inputs<'a>(
    query: &'a secyan_core::SecureQuery,
    sizes: &'a [usize],
    sq: &SubQuery,
    seeds: (u64, u64),
) -> (SplitInputs<'a>, SplitInputs<'a>) {
    let side = |role, seed| SplitInputs {
        query,
        sizes,
        ring: ring().0,
        rels: sq.my_relations(role),
        seed,
    };
    (side(Role::Alice, seeds.0), side(Role::Bob, seeds.1))
}

/// One offline-then-online execution of `sq`, checked against `oracle`.
fn split_op(
    r: &mut Report,
    pair: (Channel, Channel),
    sq: &SubQuery,
    seeds: (u64, u64),
    oracle: &[ResultRow],
    op: usize,
) -> Option<SplitOp> {
    let query = sq.to_secure_query();
    let sizes: Vec<usize> = sq.relations.iter().map(|r| r.len()).collect();
    let (a, b) = split_inputs(&query, &sizes, sq, seeds);
    match ops::phase_split(pair, a, b, op) {
        Err(e) => {
            r.record(Some(e));
            None
        }
        Ok(o) if result_rows(ring().0, &o.result) != oracle => {
            r.mismatch(format!(
                "phase-split op {op}: result differs from the plaintext oracle"
            ));
            None
        }
        Ok(o) => {
            r.record(None);
            Some(o)
        }
    }
}

pub(crate) fn set_preproc(r: &mut Report, ops: &[SplitOp], single_bytes: u64) {
    let off: Vec<f64> = ops.iter().map(|o| o.offline.0.wall_s).collect();
    let on: Vec<f64> = ops.iter().map(|o| o.online.0.wall_s).collect();
    r.set("preproc.offline_s", median(&off));
    r.set("preproc.online_s", median(&on));
    if let Some(o) = ops.first() {
        r.set(
            "preproc.offline_super_rounds",
            o.offline_stats.super_rounds as f64,
        );
        r.set(
            "preproc.online_super_rounds",
            o.online_stats.super_rounds as f64,
        );
        r.set("preproc.banked_ots", o.banked.0 as f64);
        r.set("preproc.banked_kkrt", o.banked.1 as f64);
        r.set("preproc.banked_circuits", o.banked.2 as f64);
        let split = o.offline_stats.total_bytes() + o.online_stats.total_bytes();
        r.set(
            "preproc.split_bytes_ratio",
            split as f64 / single_bytes.max(1) as f64,
        );
    }
}

/// `q3-cold`: TPC-H Q3, single phase, in-process channel.
pub fn q3_cold(seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let seeds = (mix_seed(seed, 1), mix_seed(seed, 2));
    let warm = |spec: &QuerySpec| ops::single_phase(spec, seeds, NO_OP).map(drop);
    let inputs = setup(PaperQuery::Q3, seed, warm)?;
    let mut r = Report::default();
    let mut done: Vec<ops::SingleOp> = Vec::new();
    let m = measure(seconds, traced, |i| {
        match ops::single_phase(&inputs.spec, seeds, i) {
            Err(e) => {
                r.record(Some(e));
                None
            }
            Ok(o) if canonical(o.rows.clone()) != inputs.oracle => {
                r.mismatch(format!(
                    "Q3 op {i}: result differs from the plaintext oracle"
                ));
                None
            }
            Ok(o) => {
                r.record(None);
                let wall = o.alice.wall_s;
                done.push(o);
                Some(wall)
            }
        }
    });
    check_same(
        &mut r,
        "Q3 bytes",
        &done
            .iter()
            .map(|o| o.stats.total_bytes())
            .collect::<Vec<_>>(),
    );
    check_same(
        &mut r,
        "Q3 super-rounds",
        &done
            .iter()
            .map(|o| o.stats.super_rounds)
            .collect::<Vec<_>>(),
    );
    let stats = done.first().map(|o| o.stats).unwrap_or_default();
    let alice: Vec<Interval> = done.iter().map(|o| o.alice).collect();
    let bob: Vec<Interval> = done.iter().map(|o| o.bob).collect();
    if !traced {
        r.set(
            "query_s",
            median(&alice.iter().map(|i| i.wall_s).collect::<Vec<_>>()),
        );
        r.set("ops_per_s", m.ops_per_s());
        r.set("comm_mb", mb(stats.total_bytes()));
        r.set("total_comm_mb", mb(stats.total_bytes()));
        r.set("super_rounds", stats.super_rounds as f64);
        r.set(
            "cpu_s",
            median(
                &done
                    .iter()
                    .map(|o| o.alice.busy_s + o.bob.busy_s)
                    .collect::<Vec<_>>(),
            ),
        );
        r.set("setup_s", inputs.setup_s);
        r.set("peak_rss_mb", peak_rss_mb());
        r.info("samples", done.len() as f64, "count");
        r.info("comm_bytes", stats.total_bytes() as f64, "B");
        return Ok(r);
    }
    let sq = reveal_subquery(&inputs.spec)?;
    common_layers(&mut r, &inputs, &m, sq);
    let spans = trace::spans();
    let measured: Vec<trace::Span> = spans.into_iter().filter(|s| s.op != NO_OP).collect();
    r.set(
        "session.bootstrap_s.alice",
        trace::median_wall(&measured, "session.bootstrap", Party::Alice),
    );
    r.set(
        "session.bootstrap_s.bob",
        trace::median_wall(&measured, "session.bootstrap", Party::Bob),
    );
    let boot_bytes: Vec<f64> = measured
        .iter()
        .filter(|s| s.name == "session.bootstrap" && s.party == Party::Alice)
        .filter_map(|s| s.comm.map(|c| c.total_bytes() as f64))
        .collect();
    r.set("session.bootstrap_bytes", median(&boot_bytes));
    set_protocol(&mut r, &alice, &bob);
    set_transport(&mut r, &stats);
    // Q3 runs in one phase; the pre-processing layer is probed on Q3's
    // own shape with one offline-then-online execution.
    let probe: Vec<SplitOp> = split_op(&mut r, channel_pair(), sq, seeds, &inputs.oracle, NO_OP)
        .into_iter()
        .collect();
    set_preproc(&mut r, &probe, stats.total_bytes());
    Ok(r)
}

/// `q10-split`: TPC-H Q10, offline phase then a timed online phase per
/// query, over a real loopback TCP channel pair.
pub fn q10_split(seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let seeds = (mix_seed(seed, 3), mix_seed(seed, 4));
    let warm = |spec: &QuerySpec| -> Result<(), String> {
        let sq = reveal_subquery(spec)?;
        let query = sq.to_secure_query();
        let sizes: Vec<usize> = sq.relations.iter().map(|r| r.len()).collect();
        let (a, b) = split_inputs(&query, &sizes, sq, seeds);
        let pair = tcp_channel_pair().map_err(|e| format!("loopback pair: {e}"))?;
        ops::phase_split(pair, a, b, NO_OP).map(drop)
    };
    let inputs = setup(PaperQuery::Q10, seed, warm)?;
    let sq = reveal_subquery(&inputs.spec)?;
    let mut r = Report::default();
    let mut done: Vec<SplitOp> = Vec::new();
    let m = measure(seconds, traced, |i| {
        let pair = match tcp_channel_pair() {
            Ok(p) => p,
            Err(e) => {
                r.record(Some(format!("loopback pair: {e}")));
                return None;
            }
        };
        let o = split_op(&mut r, pair, sq, seeds, &inputs.oracle, i)?;
        let wall = o.online.0.wall_s;
        done.push(o);
        Some(wall)
    });
    check_split(&mut r, &done);
    let first = |f: fn(&SplitOp) -> CommStats| done.first().map(f).unwrap_or_default();
    let (off, on) = (first(|o| o.offline_stats), first(|o| o.online_stats));
    let alice: Vec<Interval> = done.iter().map(|o| o.online.0).collect();
    let bob: Vec<Interval> = done.iter().map(|o| o.online.1).collect();
    if !traced {
        let offline: Vec<f64> = done.iter().map(|o| o.offline.0.wall_s).collect();
        r.set(
            "query_s",
            median(&alice.iter().map(|i| i.wall_s).collect::<Vec<_>>()),
        );
        r.set("ops_per_s", m.ops_per_s());
        r.set("comm_mb", mb(on.total_bytes()));
        r.set("total_comm_mb", mb(off.total_bytes() + on.total_bytes()));
        r.set("super_rounds", on.super_rounds as f64);
        r.set(
            "cpu_s",
            median(
                &done
                    .iter()
                    .map(|o| o.online.0.busy_s + o.online.1.busy_s)
                    .collect::<Vec<_>>(),
            ),
        );
        r.set("setup_s", inputs.setup_s);
        r.set("peak_rss_mb", peak_rss_mb());
        r.info("samples", done.len() as f64, "count");
        r.info("offline_s", median(&offline), "s");
        r.info("offline_comm_mb", mb(off.total_bytes()), "MB");
        r.info("offline_super_rounds", off.super_rounds as f64, "count");
        r.info("online_comm_bytes", on.total_bytes() as f64, "B");
        r.info("offline_comm_bytes", off.total_bytes() as f64, "B");
        return Ok(r);
    }
    common_layers(&mut r, &inputs, &m, sq);
    match probes::bootstrap(seeds.0) {
        Ok(b) => {
            r.set("session.bootstrap_s.alice", b.alice_s);
            r.set("session.bootstrap_s.bob", b.bob_s);
            r.set("session.bootstrap_bytes", b.bytes as f64);
        }
        Err(e) => r.record(Some(format!("bootstrap probe: {e}"))),
    }
    set_protocol(&mut r, &alice, &bob);
    set_transport(&mut r, &on);
    // The waste ratio's base: the same query in one phase.
    let single = match ops::single_phase(&inputs.spec, seeds, NO_OP) {
        Ok(o) if canonical(o.rows.clone()) == inputs.oracle => {
            r.record(None);
            o.stats.total_bytes()
        }
        Ok(_) => {
            r.mismatch("single-phase Q10: result differs from the plaintext oracle".into());
            0
        }
        Err(e) => {
            r.record(Some(e));
            0
        }
    };
    set_preproc(&mut r, &done, single);
    Ok(r)
}
