//! `chain-sessions`: an in-process `secyan-server` on loopback, driven by
//! one closed-loop client (`secyan_client::run_session`) through a fixed,
//! seeded mix of testkit instances and run modes.

use crate::ops::guarded;
use crate::probes;
use crate::report::{check_same, Report};
use crate::sys::{median, mix_seed, peak_rss_mb, process_cpu_s, quantile, Interval, Mark};
use crate::trace::{self, Party, NO_OP, ROOT};
use secyan_client::{run_session, ClientConfig, RunOutcome};
use secyan_server::{serve, QuerySpec, RunMode, ServerConfig, ServerHandle, SessionRequest};
use secyan_testkit::{canonical_result, oracle, run_secure, session_seeds, Instance, Rows};
use secyan_transport::{channel_pair, CommStats, Role};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Sessions in one cycle of the mix: both instance families crossed with
/// the three run modes, four instances each.
const MIX: usize = 24;
/// Query executions in one `Pooled` session.
const POOLED_RUNS: u32 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The session mix: a fixed list of testkit instances (seeds 1 to 4 of
/// each family under each run mode), replayed in an order drawn from the
/// run seed. The list is fixed because per-session cost differs several
/// times over between random-family instances, so a mix drawn from the
/// seed would not measure the same work from one seed to the next.
fn mix(seed: u64) -> Vec<SessionRequest> {
    let mut reqs: Vec<SessionRequest> = (0..MIX as u64)
        .map(|i| {
            let instance = i / 6 + 1;
            let spec = if i % 2 == 0 {
                QuerySpec::Chain { seed: instance }
            } else {
                QuerySpec::Random { seed: instance }
            };
            let (mode, runs) = match (i / 2) % 3 {
                0 => (RunMode::Single, 1),
                1 => (RunMode::PhaseSplit, 1),
                _ => (RunMode::Pooled, POOLED_RUNS),
            };
            SessionRequest { spec, mode, runs }
        })
        .collect();
    // Fisher-Yates shuffle driven by the run seed.
    for i in (1..reqs.len()).rev() {
        let j = (mix_seed(seed, 100 + i as u64) % (i as u64 + 1)) as usize;
        reqs.swap(i, j);
    }
    reqs
}

/// A completed session: its time on the client thread and its counters.
struct Completed {
    time: Interval,
    stats: CommStats,
}

/// One client session, connect to checked result, on the calling thread.
/// `Err` carries the reason and whether the result disagreed with the
/// oracle (rather than failing to arrive).
fn client_session(
    cfg: &ClientConfig,
    req: &SessionRequest,
    want: &Rows,
    op: usize,
) -> Result<Completed, (String, bool)> {
    let m0 = Mark::now();
    let root = trace::open(ROOT, Party::Alice, op, None);
    let sp = trace::open("client.run_session", Party::Alice, op, None);
    let ran = catch_unwind(AssertUnwindSafe(|| run_session(cfg, req)));
    sp.close(None);
    let sp = trace::open("testkit.verify", Party::Alice, op, None);
    let checked = match ran {
        Err(_) => Err(("client panicked".to_string(), false)),
        Ok(Err(e)) => Err((format!("{req:?}: {e}"), false)),
        Ok(Ok(RunOutcome { rows, stats, .. })) if &rows == want => Ok(stats),
        Ok(Ok(_)) => Err((format!("{req:?}: result differs from the oracle"), true)),
    };
    sp.close(None);
    let m1 = Mark::now();
    root.close(None);
    checked.map(|stats| Completed {
        time: Interval::between(&m0, &m1),
        stats,
    })
}

/// Start the server and run one untimed warm-up session.
fn start(seed: u64) -> Result<ServerHandle, String> {
    let server = serve(ServerConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let warm = SessionRequest {
        spec: QuerySpec::Chain {
            seed: mix_seed(seed, 99),
        },
        mode: RunMode::Single,
        runs: 1,
    };
    run_session(&ClientConfig::new(server.addr()), &warm)
        .map_err(|e| format!("warm-up session: {e}"))?;
    Ok(server)
}

pub fn chain_sessions(seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        // The previous repetition's server stops here, outside the timing.
        drop(server.take());
        let t = Instant::now();
        server = Some(start(seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("SETUP_REPS >= 1");
    let setup_s = median(&setups);
    let warm_sessions = server.reports().len();

    let reqs = mix(seed);
    let t = Instant::now();
    let insts: Vec<Instance> = reqs.iter().map(|r| r.spec.instance()).collect();
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let wants: Vec<Rows> = insts.iter().map(oracle).collect();
    let oracle_s = t.elapsed().as_secs_f64();

    let cfg = ClientConfig::new(server.addr());
    let mut r = Report::default();
    // Per mix entry: every completed session's time and counters.
    let mut per_entry: Vec<Vec<Completed>> = (0..MIX).map(|_| Vec::new()).collect();
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let cpu0 = process_cpu_s();
    let start_t = Instant::now();
    let deadline = start_t + Duration::from_secs(seconds);
    let min_cycles = if traced { 2 } else { 1 };
    let mut cycle = 0;
    while cycle < min_cycles || Instant::now() < deadline {
        // Whole cycles only, so every entry weighs the same; a traced run
        // alternates traced and untraced cycles.
        let on = traced && cycle % 2 == 0;
        trace::set_enabled(on);
        for (i, req) in reqs.iter().enumerate() {
            match client_session(&cfg, req, &wants[i], cycle * MIX + i) {
                Ok(s) => {
                    r.record(None);
                    if on {
                        &mut traced_walls
                    } else {
                        &mut untraced_walls
                    }
                    .push(s.time.wall_s);
                    per_entry[i].push(s);
                }
                Err((e, true)) => r.mismatch(e),
                Err((e, false)) => r.record(Some(e)),
            }
        }
        cycle += 1;
    }
    trace::set_enabled(traced);
    let loop_s = start_t.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;

    let sessions: Vec<&Completed> = per_entry.iter().flatten().collect();
    let n = sessions.len().max(1) as f64;
    for (i, s) in per_entry.iter().enumerate() {
        let pick = |f: fn(&Completed) -> u64| s.iter().map(f).collect::<Vec<_>>();
        check_same(
            &mut r,
            &format!("session {i} bytes"),
            &pick(|s| s.stats.total_bytes()),
        );
        check_same(
            &mut r,
            &format!("session {i} super-rounds"),
            &pick(|s| s.stats.super_rounds),
        );
    }
    // Counts per session: the mean over the mix entries, each counted once.
    let firsts: Vec<CommStats> = per_entry
        .iter()
        .filter_map(|s| s.first().map(|s| s.stats))
        .collect();
    let per_session = |f: fn(&CommStats) -> u64| {
        firsts.iter().map(|s| f(s) as f64).sum::<f64>() / firsts.len().max(1) as f64
    };
    let walls: Vec<f64> = sessions.iter().map(|s| s.time.wall_s).collect();
    let alice_busy: f64 = sessions.iter().map(|s| s.time.busy_s).sum();

    if !traced {
        r.set("query_s", median(&walls));
        r.set("ops_per_s", sessions.len() as f64 / loop_s);
        r.set("comm_mb", per_session(CommStats::total_bytes) / 1e6);
        r.set("total_comm_mb", per_session(CommStats::total_bytes) / 1e6);
        r.set("super_rounds", per_session(|s| s.super_rounds));
        r.set("cpu_s", cpu_s / n);
        r.set("setup_s", setup_s);
        r.set("peak_rss_mb", peak_rss_mb());
        r.info("samples", walls.len() as f64, "count");
        r.info("session_ms_p50", median(&walls) * 1e3, "ms");
        r.info("session_ms_p90", quantile(&walls, 0.9) * 1e3, "ms");
        r.info("sessions_per_s", sessions.len() as f64 / loop_s, "1/s");
        return Ok(r);
    }

    r.set("inputs.generate_s", generate_s);
    let t = Instant::now();
    let plans: Vec<_> = insts
        .iter()
        .map(|i| (i.query(), i.sizes(), i.ell as usize))
        .collect();
    r.set("inputs.build_s", t.elapsed().as_secs_f64());
    r.set("inputs.oracle_s", oracle_s);
    let shape = probes::shapes(&plans);
    r.set("shape.derive_s", shape.derive_s);
    r.set("shape.planned_ands", shape.planned_ands as f64);
    r.set("shape.planned_circuits", shape.planned_circuits as f64);
    r.set("shape.ot_budget", shape.ot_budget as f64);
    r.set("shape.kkrt_budget", shape.kkrt_budget as f64);
    r.set("gc.ands_per_s", probes::gc_ands_per_s(&shape.shapes));
    let budgets =
        |f: fn(&secyan_core::QueryShape) -> usize| shape.shapes.iter().map(f).collect::<Vec<_>>();
    match probes::ot_ns_per_banked(&budgets(|s| s.ot_budget)) {
        Ok(ns) => r.set("ot.ns_per_banked_ot", ns),
        Err(e) => r.record(Some(format!("OT bank probe: {e}"))),
    }
    match probes::kkrt_ns_per_instance(&budgets(|s| s.kkrt_budget)) {
        Ok(ns) => r.set("kkrt.ns_per_instance", ns),
        Err(e) => r.record(Some(format!("KKRT bank probe: {e}"))),
    }
    match probes::bootstrap(mix_seed(seed, 5)) {
        Ok(b) => {
            r.set("session.bootstrap_s.alice", b.alice_s);
            r.set("session.bootstrap_s.bob", b.bob_s);
            r.set("session.bootstrap_bytes", b.bytes as f64);
        }
        Err(e) => r.record(Some(format!("bootstrap probe: {e}"))),
    }
    // Alice is the client thread; the server's side is the rest of the
    // process's CPU time.
    let pick =
        |f: fn(&Interval) -> f64| median(&sessions.iter().map(|s| f(&s.time)).collect::<Vec<_>>());
    r.set("protocol.busy_s.alice", pick(|i| i.busy_s));
    r.set("protocol.busy_s.bob", ((cpu_s - alice_busy) / n).max(0.0));
    r.set("protocol.peer_wait_s", pick(Interval::blocked_s));
    r.set("protocol.runqueue_wait_s", pick(|i| i.runq_s));

    // The sessions' pre-processing runs inside the server and client; the
    // layer is probed on the mix's first random-family phase-split instance.
    let probe_idx = (0..MIX)
        .filter(|&i| reqs[i].mode == RunMode::PhaseSplit)
        .filter_map(|i| match reqs[i].spec {
            QuerySpec::Random { seed } => Some((seed, i)),
            QuerySpec::Chain { .. } => None,
        })
        .min()
        .map(|(_, i)| i)
        .expect("the mix holds a random phase-split session");
    preproc_probe(&mut r, &insts[probe_idx], &wants[probe_idx]);

    // Pool counters of the measured sessions, once the server filed them.
    let expected = warm_sessions + sessions.len();
    let wait_until = Instant::now() + Duration::from_secs(5);
    while server.reports().len() < expected && Instant::now() < wait_until {
        std::thread::sleep(Duration::from_millis(5));
    }
    let reports: Vec<_> = server
        .reports()
        .into_iter()
        .filter(|s| s.id as usize >= warm_sessions)
        .collect();
    let hits: u64 = reports.iter().map(|s| s.pool_hits).sum();
    let misses: u64 = reports.iter().map(|s| s.pool_misses).sum();
    r.set(
        "server.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.set(
        "server.pool_left",
        reports.iter().map(|s| s.pool_left as f64).sum(),
    );

    let frames = per_session(|s| s.frames_alice_to_bob + s.frames_bob_to_alice);
    r.set("transport.frames", frames);
    r.set(
        "transport.msgs_per_frame",
        per_session(|s| s.messages) / frames.max(1.0),
    );
    r.set("transport.bytes_a2b", per_session(|s| s.bytes_alice_to_bob));
    r.set("transport.bytes_b2a", per_session(|s| s.bytes_bob_to_alice));
    r.set("transport.super_rounds", per_session(|s| s.super_rounds));

    r.set(
        "trace.root_self_s",
        trace::receiver_root_self_s(&trace::spans()),
    );
    r.set(
        "trace.overhead_s",
        median(&traced_walls) - median(&untraced_walls),
    );
    Ok(r)
}

/// One offline-then-online execution of `inst` in-process, and the same
/// instance in one phase as the waste ratio's base; both checked.
fn preproc_probe(r: &mut Report, inst: &Instance, want: &Rows) {
    let query = inst.query();
    let sizes = inst.sizes();
    let (sa, sb) = session_seeds(inst);
    let side = |role, seed| crate::ops::SplitInputs {
        query: &query,
        sizes: &sizes,
        ring: inst.ring_ctx(),
        rels: inst.party_relations(role),
        seed,
    };
    let split = match crate::ops::phase_split(
        channel_pair(),
        side(Role::Alice, sa),
        side(Role::Bob, sb),
        NO_OP,
    ) {
        Ok(o) if &canonical_result(inst.ring_ctx(), &o.result) == want => {
            r.record(None);
            o
        }
        Ok(_) => return r.mismatch("pre-processing probe: result differs from the oracle".into()),
        Err(e) => return r.record(Some(format!("pre-processing probe: {e}"))),
    };
    let single = match guarded(|| Ok(run_secure(inst))) {
        Ok(run) if &run.result == want => {
            r.record(None);
            run.stats.total_bytes()
        }
        Ok(_) => return r.mismatch("single-phase probe: result differs from the oracle".into()),
        Err(e) => return r.record(Some(format!("single-phase probe: {e}"))),
    };
    crate::paper::set_preproc(r, &[split], single);
}
