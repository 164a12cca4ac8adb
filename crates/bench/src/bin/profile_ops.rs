//! Ad-hoc operator timing used to find protocol hot spots (dev tool).
//!
//! Also emits `BENCH_hashers.json`: machine-readable per-block timings of
//! the three tweakable hashers, so successive PRs can track the perf
//! trajectory of the garbling/OT hot path.
use rand::rngs::StdRng;
use rand::SeedableRng;
use secyan_crypto::{Block, RingCtx, TweakHasher};
use secyan_oep::{shared_oep_other, shared_oep_perm_holder};
use secyan_ot::{OtReceiver, OtSender};
use secyan_transport::run_protocol;
use std::time::Instant;

fn main() {
    // `--quick`: CI bench-smoke mode. Runs only the online phase-split
    // profile (1 rep, loopback, no BENCH file writes) and exits non-zero
    // if the chain3 round counts regress past the recorded budgets or its
    // online/offline bytes differ from the pinned counts.
    if std::env::args().any(|a| a == "--quick") {
        profile_online(true);
        return;
    }
    profile_kernels();
    profile_thresholds();
    profile_hashers();
    profile_parallel();
    profile_online(false);

    let ring = RingCtx::new(32);
    let hasher = TweakHasher::default();
    // 1. session-ish setup
    let t = Instant::now();
    run_protocol(
        |ch| {
            let mut rng = StdRng::seed_from_u64(1);
            let _s = OtSender::setup(ch, &mut rng, hasher);
            let _r = OtReceiver::setup(ch, &mut rng, hasher);
            let _ks = secyan_ot::KkrtSender::setup(ch, &mut rng, hasher);
            let _kr = secyan_ot::KkrtReceiver::setup(ch, &mut rng, hasher);
        },
        |ch| {
            let mut rng = StdRng::seed_from_u64(2);
            let _r = OtReceiver::setup(ch, &mut rng, hasher);
            let _s = OtSender::setup(ch, &mut rng, hasher);
            let _kr = secyan_ot::KkrtReceiver::setup(ch, &mut rng, hasher);
            let _ks = secyan_ot::KkrtSender::setup(ch, &mut rng, hasher);
        },
    );
    println!("session setup: {:?}", t.elapsed());

    // 2. shared OEP of size 300
    let t = Instant::now();
    run_protocol(
        |ch| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut otr = OtReceiver::setup(ch, &mut rng, hasher);
            let xi: Vec<usize> = (0..300).collect();
            let shares = vec![7u64; 300];
            shared_oep_perm_holder(ch, &xi, &shares, ring, &mut otr)
        },
        |ch| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut ots = OtSender::setup(ch, &mut rng, hasher);
            let shares = vec![3u64; 300];
            shared_oep_other(ch, &shares, 300, ring, &mut ots, &mut rng)
        },
    );
    println!("shared OEP 300: {:?}", t.elapsed());

    // 3. reduce-join product, 75 shared rows (Gilboa over correlated OT)
    use secyan_core::semijoin::{product_other, product_owner};
    let n = 75;
    let t = Instant::now();
    run_protocol(
        move |ch| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut ots = OtSender::setup(ch, &mut rng, hasher);
            let (v, z): (Vec<u64>, Vec<u64>) = (0..n as u64).map(|i| (i, 3 * i)).unzip();
            product_owner(ch, ring, &mut ots, &v, &z, false)
        },
        move |ch| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut otr = OtReceiver::setup(ch, &mut rng, hasher);
            let (v, z): (Vec<u64>, Vec<u64>) = (0..n as u64).map(|i| (7 * i, i + 1)).unzip();
            product_other(ch, ring, &mut otr, Some(&v), &z)
        },
    );
    println!("product OT 75 rows: {:?}", t.elapsed());

    // 4. PSI 75 x 300 with plain payloads
    let t = Instant::now();
    run_protocol(
        |ch| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut kkrt = secyan_ot::KkrtReceiver::setup(ch, &mut rng, hasher);
            let mut otr = OtReceiver::setup(ch, &mut rng, hasher);
            let x: Vec<u64> = (0..75).collect();
            secyan_psi::psi_receiver(
                ch,
                &x,
                300,
                ring,
                &mut kkrt,
                &mut otr,
                hasher,
                &mut std::collections::VecDeque::new(),
            )
            .ind_shares
            .len()
        },
        |ch| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut kkrt = secyan_ot::KkrtSender::setup(ch, &mut rng, hasher);
            let mut ots = OtSender::setup(ch, &mut rng, hasher);
            let y: Vec<(u64, u64)> = (0..300u64).map(|i| (i, i)).collect();
            secyan_psi::psi_sender(
                ch,
                &y,
                75,
                ring,
                &mut kkrt,
                &mut ots,
                hasher,
                &mut rng,
                &mut std::collections::VecDeque::new(),
            )
            .ind_shares
            .len()
        },
    );
    println!("plain PSI 75x300: {:?}", t.elapsed());

    // 5. merge/agg circuit over 300 rows
    use secyan_core::agg::AggKind;
    use secyan_core::shape::GcSpec;
    let t = Instant::now();
    let _c = GcSpec::Merge {
        n: 300,
        kind: AggKind::Sum,
    }
    .build(32);
    println!(
        "merge circuit build 300: {:?} ({} ANDs)",
        t.elapsed(),
        _c.and_count()
    );
}

/// Time each SIMD kernel against its forced-scalar arm and write
/// `BENCH_kernels.json`. Arms are flipped in-process via
/// `cpu::set_force_scalar`, so one binary measures both; the `features`
/// and `cpus` fields record exactly what the numbers were taken on — a
/// speedup is only meaningful where the probe says the SIMD arm actually
/// ran. The pool is pinned to 1 thread throughout so the numbers isolate
/// the kernels from the band partitioning measured elsewhere.
fn profile_kernels() {
    use secyan_crypto::cpu;
    use secyan_crypto::gf64::{self, Gf64};
    use secyan_crypto::transpose::BitMatrix;
    use secyan_par as par;

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let feats = cpu::features();
    par::set_threads(1);

    // Median-of-reps nanoseconds for one arm of one kernel.
    let time_arm = |force: bool, reps: usize, f: &mut dyn FnMut()| -> f64 {
        cpu::set_force_scalar(force);
        let mut runs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            f();
            runs.push(t.elapsed().as_secs_f64() * 1e9);
        }
        cpu::clear_force_scalar();
        runs.sort_by(|a, b| a.total_cmp(b));
        runs[runs.len() / 2]
    };

    let mut entries: Vec<(&str, f64, f64)> = Vec::new();

    // 1. Bit-matrix transpose, 4096x4096 (2 MiB): movemask kernel vs the
    // reference bit loop.
    let m = BitMatrix::from_fn(4096, 4096, |r, c| (r * 31 + c * 7) % 3 == 0);
    let tr = |force| {
        time_arm(force, 5, &mut || {
            std::hint::black_box(m.transpose());
        })
    };
    entries.push(("transpose_4096x4096", tr(true), tr(false)));

    // 2. GF(2^64) elementwise multiply, 65536 elements: 4-way interleaved
    // CLMUL with deferred reduction vs the shift-and-add scalar field op.
    let ys: Vec<Gf64> = (0..1u64 << 16)
        .map(|i| Gf64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1))
        .collect();
    let mut xs = ys.clone();
    let mut mul = |force| {
        time_arm(force, 20, &mut || {
            gf64::mul_slice(&mut xs, &ys);
            std::hint::black_box(xs[0]);
        })
    };
    entries.push(("gf64_mul_slice_65536", mul(true), mul(false)));

    // 3. Newton interpolation through 24 points, 256 bins per rep: the
    // OPPRF hint-generation inner loop.
    let bins: Vec<Vec<(Gf64, Gf64)>> = (0..256u64)
        .map(|b| {
            (0..24u64)
                .map(|i| {
                    let x = (b * 24 + i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    (Gf64(x), Gf64(x ^ b))
                })
                .collect()
        })
        .collect();
    let interp = |force| {
        time_arm(force, 5, &mut || {
            for pts in &bins {
                std::hint::black_box(gf64::poly_interpolate(pts));
            }
        })
    };
    entries.push(("gf64_interpolate_deg24_x256", interp(true), interp(false)));

    // 4. Lockstep Horner over 2048 bins of degree 24: the OPPRF hint
    // evaluation inner loop.
    let flat: Vec<Gf64> = (0..2048u64 * 24)
        .map(|i| Gf64(i.wrapping_mul(0x2545_f491_4f6c_dd1d)))
        .collect();
    let exs: Vec<Gf64> = (0..2048u64).map(|i| Gf64(i * 3 + 1)).collect();
    let eval = |force| {
        time_arm(force, 20, &mut || {
            std::hint::black_box(gf64::poly_eval_batch(&flat, 24, &exs));
        })
    };
    entries.push(("gf64_poly_eval_batch_2048x24", eval(true), eval(false)));

    // 5. Fixed-key AES over 65536 blocks: the 8-wide software-pipelined
    // AES-NI path vs the portable T-table implementation.
    let mut blocks: Vec<u128> = (0..1u128 << 16)
        .map(|i| i.wrapping_mul(0xdead_beef))
        .collect();
    let key = secyan_crypto::aes::Aes128::new([7u8; 16]);
    let mut aes = |force| {
        time_arm(force, 10, &mut || {
            key.encrypt_blocks(&mut blocks);
            std::hint::black_box(blocks[0]);
        })
    };
    entries.push(("aes_encrypt_many_65536", aes(true), aes(false)));

    par::set_threads(0);

    let mut json = format!(
        "{{\n  \"cpus\": {cpus},\n  \"features\": {{\"sse2\": {}, \"ssse3\": {}, \"avx2\": {}, \
\"pclmulqdq\": {}, \"aes\": {}}},\n  \"forced_scalar_env\": {},\n  \"kernels\": {{\n",
        feats.sse2,
        feats.ssse3,
        feats.avx2,
        feats.pclmulqdq,
        feats.aes,
        cpu::force_scalar(),
    );
    for (i, (name, scalar_ns, simd_ns)) in entries.iter().enumerate() {
        let speedup = scalar_ns / simd_ns;
        println!(
            "kernel {name}: scalar {:.0} us, simd {:.0} us ({speedup:.2}x)",
            scalar_ns / 1e3,
            simd_ns / 1e3
        );
        json.push_str(&format!(
            "    \"{name}\": {{\"scalar_ns\": {scalar_ns:.0}, \"simd_ns\": {simd_ns:.0}, \
\"speedup\": {speedup:.2}}}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");
}

/// Threads-vs-work microbench for the pooled phases, validating the
/// dispatch thresholds: below each threshold the 4-thread timing must
/// match the 1-thread timing (no dispatch happens, so no overhead), and
/// a 1-thread run must never lose to the old always-dispatch behaviour.
/// Printed only — the numbers feed threshold tuning, not the tracked
/// JSON artifacts (they are machine-load sensitive).
fn profile_thresholds() {
    use secyan_circuit::Builder;
    use secyan_crypto::transpose::BitMatrix;
    use secyan_par as par;

    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let time_at = |threads: usize, reps: usize, f: &mut dyn FnMut()| -> f64 {
        par::set_threads(threads);
        let mut runs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t = Instant::now();
            f();
            runs.push(t.elapsed().as_secs_f64() * 1e6);
        }
        par::set_threads(0);
        median(runs)
    };

    // Transpose around PAR_MIN_OUT_BYTES: 8 KiB (below), 32 KiB (at),
    // 512 KiB (above).
    for (rows, cols) in [(128usize, 512usize), (128, 2048), (1024, 4096)] {
        let m = BitMatrix::from_fn(rows, cols, |r, c| (r + c) % 5 == 0);
        let run = |t| {
            time_at(t, 9, &mut || {
                std::hint::black_box(m.transpose());
            })
        };
        let (t1, t4) = (run(1), run(4));
        println!(
            "threshold transpose {rows}x{cols} ({} B out): t1 {t1:.1} us, t4 {t4:.1} us \
             (t4/t1 {:.2})",
            rows * cols / 8,
            t4 / t1
        );
    }

    // Garbling: a width-1 AND chain (levels never reach the pool bar —
    // 4 threads must cost the same as 1) vs a wide level-parallel
    // circuit.
    let hasher = TweakHasher::default();
    let narrow = {
        let mut b = Builder::new();
        let mut w = b.alice_input();
        let xs: Vec<_> = (0..8192).map(|_| b.bob_input()).collect();
        for x in xs {
            w = b.and(w, x);
        }
        b.output(w);
        b.finish()
    };
    let wide = {
        let mut b = Builder::new();
        let xs: Vec<_> = (0..16).map(|_| b.alice_word(32)).collect();
        let ys: Vec<_> = (0..16).map(|_| b.bob_word(32)).collect();
        let words: Vec<_> = xs.iter().zip(&ys).map(|(x, y)| b.mul_words(x, y)).collect();
        for w in &words {
            b.output_word(w);
        }
        b.finish()
    };
    for (name, circ) in [("narrow-chain", &narrow), ("wide-mul", &wide)] {
        let run = |t| {
            time_at(t, 5, &mut || {
                let mut rng = StdRng::seed_from_u64(9);
                std::hint::black_box(
                    secyan_gc::scheme::garble(circ, hasher, &mut rng)
                        .tables
                        .len(),
                );
            })
        };
        let (t1, t4) = (run(1), run(4));
        println!(
            "threshold garble {name} ({} ANDs): t1 {t1:.1} us, t4 {t4:.1} us (t4/t1 {:.2})",
            circ.and_count(),
            t4 / t1
        );
    }
}

/// Time the worker-pool hot paths (IKNP extension, OPPRF hint
/// interpolation, half-gates garbling) at 1/2/4/8 threads and write
/// `BENCH_parallel.json`. The thread count is forced programmatically via
/// `secyan_par::set_threads`, overriding `SECYAN_THREADS`; the `cpus`
/// field records how many hardware threads the numbers were measured on.
fn profile_parallel() {
    use secyan_circuit::Builder;
    use secyan_par as par;
    use secyan_psi::opprf::{opprf_evaluate, opprf_program, PsiItem};

    const OT_M: usize = 1 << 16;
    const BINS: usize = 2048;
    const DEGREE: usize = 24;
    let hasher = TweakHasher::default();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let iknp_ms = |threads: usize| -> f64 {
        par::set_threads(threads);
        let (elapsed, _, _) = run_protocol(
            |ch| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut ot = OtSender::setup(ch, &mut rng, hasher);
                let t = Instant::now();
                let pairs = ot.random(ch, OT_M);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(pairs);
                ms
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(2);
                let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
                let choices: Vec<bool> = (0..OT_M).map(|i| i % 3 == 0).collect();
                std::hint::black_box(ot.random(ch, &choices));
            },
        );
        par::set_threads(0);
        elapsed
    };

    let opprf_ms = |threads: usize| -> f64 {
        par::set_threads(threads);
        let programs: Vec<Vec<(u64, u64)>> = (0..BINS as u64)
            .map(|b| (0..8).map(|i| (b * 100 + i, b ^ i)).collect())
            .collect();
        let queries: Vec<PsiItem> = (0..BINS as u64).map(|b| PsiItem::Real(b * 100)).collect();
        let (elapsed, _, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(3);
                let mut kkrt = secyan_ot::KkrtSender::setup(ch, &mut rng, hasher);
                let t = Instant::now();
                opprf_program(ch, &mut kkrt, &programs, DEGREE, &mut rng);
                t.elapsed().as_secs_f64() * 1e3
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(4);
                let mut kkrt = secyan_ot::KkrtReceiver::setup(ch, &mut rng, hasher);
                std::hint::black_box(opprf_evaluate(ch, &mut kkrt, &queries, DEGREE));
            },
        );
        par::set_threads(0);
        elapsed
    };

    // Wide circuit: independent word multiplies, so most AND gates share a
    // level and the levelized garbler can fan out.
    let mut b = Builder::new();
    let xs: Vec<_> = (0..16).map(|_| b.alice_word(32)).collect();
    let ys: Vec<_> = (0..16).map(|_| b.bob_word(32)).collect();
    let words: Vec<_> = xs.iter().zip(&ys).map(|(x, y)| b.mul_words(x, y)).collect();
    for w in &words {
        b.output_word(w);
    }
    let circ = b.finish();
    let garble_ms = |threads: usize| -> f64 {
        par::set_threads(threads);
        let mut rng = StdRng::seed_from_u64(5);
        let t = Instant::now();
        let g = secyan_gc::scheme::garble(&circ, hasher, &mut rng);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(g.tables.len());
        par::set_threads(0);
        ms
    };

    let thread_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    for &t in &thread_counts {
        let iknp = iknp_ms(t);
        let opprf = opprf_ms(t);
        let gc = garble_ms(t);
        println!(
            "parallel t={t}: iknp {iknp:.1} ms, opprf hints {opprf:.1} ms, garbling {gc:.1} ms"
        );
        rows.push((t, iknp, opprf, gc));
    }

    let base = rows[0];
    let mut json = String::from("{\n  \"cpus\": ");
    json.push_str(&cpus.to_string());
    json.push_str(&format!(
        ",\n  \"iknp_extension_ots\": {OT_M},\n  \"opprf_bins\": {BINS},\n  \
\"garbling_ands\": {},\n  \"threads\": {{\n",
        circ.and_count()
    ));
    for (i, (t, iknp, opprf, gc)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{t}\": {{\"iknp_extension_ms\": {iknp:.2}, \"opprf_hints_ms\": {opprf:.2}, \
\"garbling_ms\": {gc:.2}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let at4 = rows.iter().find(|r| r.0 == 4).unwrap_or(&base);
    json.push_str(&format!(
        "  }},\n  \"speedup_at_4_threads\": {{\"iknp_extension\": {:.2}, \"opprf_hints\": {:.2}, \
\"garbling\": {:.2}}}\n}}\n",
        base.1 / at4.1,
        base.2 / at4.2,
        base.3 / at4.3
    ));
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
}

/// Cold vs. warm query latency for the offline/online phase split and
/// write `BENCH_online.json`.
///
/// * `cold` — one single-phase run from nothing: session bootstrap
///   (base OTs, KKRT OPRF seeds), all garbling, and the data-dependent
///   work, timed end to end.
/// * `warm` — the online phase alone against material provisioned by
///   `run_offline` (provisioning untimed: it happens before the data
///   arrives, which is the entire point of the split).
///
/// Both are measured twice: on loopback (`local_*_ms`, compute-bound) and
/// under a declared WAN model (`cold_ms`/`warm_ms`; see
/// [`secyan_transport::NetModel`] — every send really sleeps for its
/// serialization plus per-round propagation delay, so the headline
/// numbers reflect the network the split is designed for, where the
/// offline phase's garbled tables and OT/OPRF extensions dominate the
/// cold critical path). The model's parameters are reported in the JSON
/// next to the numbers they shaped. Medians of `REPS` runs on a chain
/// query whose shape the plan covers completely; byte counters come
/// from the phase-tagged transport metering.
fn profile_online(quick: bool) {
    use secyan_core::{run_offline, run_online, secure_yannakakis, SecureQuery, Session};
    use secyan_relation::{JoinTree, NaturalRing, Relation};
    use secyan_transport::{run_protocol_with_net, NetModel, Role};

    const REPS: usize = 5;
    // Round budgets for the chain3 instance below. The counts are
    // public-shape-determined (the protocol is oblivious), so any change
    // is a code change, not noise; `tests/tests/rounds.rs` pins the same
    // numbers. A regression past these fails the bench-smoke CI job.
    const ONLINE_SUPER_ROUND_BUDGET: u64 = 16;
    const OFFLINE_SUPER_ROUND_BUDGET: u64 = 9;
    // The chain3 bytes, pinned exactly: like the rounds they depend only on
    // the public shape, so an intentional change is a re-pin.
    const ONLINE_BYTES: u64 = 795_192;
    const OFFLINE_BYTES: u64 = 1_928_704;
    let reps = if quick { 1 } else { REPS };
    let ring = RingCtx::new(64);
    let hasher = TweakHasher::default();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // A 3-relation chain, scalar aggregate: R1(a) ⋈ R2(a,b) ⋈ R3(b),
    // sizes 200/400/200, owners alternating. The reduce phase collapses it
    // to a single survivor, so every circuit is shape-plannable.
    let strings = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
    let (n1, n2, n3) = (24u64, 48u64, 24u64);
    let query = SecureQuery::new(
        vec![strings(&["a"]), strings(&["a", "b"]), strings(&["b"])],
        vec![Role::Alice, Role::Bob, Role::Alice],
        JoinTree::chain(3),
        Vec::new(),
    );
    let nat = NaturalRing(ring);
    let r1 = Relation::from_rows(
        nat,
        strings(&["a"]),
        (0..n1).map(|i| (vec![i], i % 7 + 1)).collect(),
    );
    let r2 = Relation::from_rows(
        nat,
        strings(&["a", "b"]),
        (0..n2).map(|i| (vec![i % n1, i % 31], i % 5 + 1)).collect(),
    );
    let r3 = Relation::from_rows(
        nat,
        strings(&["b"]),
        (0..n3).map(|i| (vec![i % 31], i % 3 + 1)).collect(),
    );
    let sizes = [n1 as usize, n2 as usize, n3 as usize];
    let alice_rels = vec![Some(r1), None, Some(r3)];
    let bob_rels = vec![None, Some(r2), None];

    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };

    // One cold + one warm sweep under an optional network model. Returns
    // (cold_ms, warm_ms, stats-of-last-warm-run, cold_bytes, cold_rounds).
    let sweep = |net: Option<NetModel>, reps: usize, seed0: u64| {
        let mut cold_runs = Vec::new();
        let mut cold_bytes = 0u64;
        let mut cold_rounds = 0u64;
        for rep in 0..reps {
            let (qa, qb) = (query.clone(), query.clone());
            let (ra, rb) = (alice_rels.clone(), bob_rels.clone());
            let seed = seed0 + rep as u64;
            let fa = move |ch: &mut secyan_transport::Channel| {
                let mut sess = Session::new(ch, ring, hasher, seed);
                secure_yannakakis(&mut sess, &qa, &ra, Role::Alice).values
            };
            let fb = move |ch: &mut secyan_transport::Channel| {
                let mut sess = Session::new(ch, ring, hasher, seed + 1000);
                secure_yannakakis(&mut sess, &qb, &rb, Role::Alice);
            };
            let t = Instant::now();
            let (v, _, stats) = match net {
                Some(m) => run_protocol_with_net(m, fa, fb),
                None => run_protocol(fa, fb),
            };
            cold_runs.push(t.elapsed().as_secs_f64() * 1e3);
            cold_bytes = stats.total_bytes();
            cold_rounds = stats.rounds;
            std::hint::black_box(v);
        }
        // Warm: provision offline, then time only the online phase. The
        // timer is started by the party driving the run once provisioning
        // is done on both sides (run_offline returns in lockstep).
        let mut warm_runs = Vec::new();
        let mut warm_stats = secyan_transport::CommStats::default();
        for rep in 0..reps {
            let (qa, qb) = (query.clone(), query.clone());
            let (ra, rb) = (alice_rels.clone(), bob_rels.clone());
            let (s2, sz) = (sizes, sizes);
            let seed = seed0 + 2000 + rep as u64;
            let fa = move |ch: &mut secyan_transport::Channel| {
                let m = run_offline(ch, &qa, &sz, Role::Alice, ring, hasher, seed);
                let t = Instant::now();
                let v = run_online(ch, &qa, &ra, Role::Alice, ring, hasher, m).values;
                (v, t.elapsed().as_secs_f64() * 1e3)
            };
            let fb = move |ch: &mut secyan_transport::Channel| {
                let m = run_offline(ch, &qb, &s2, Role::Alice, ring, hasher, seed + 1000);
                run_online(ch, &qb, &rb, Role::Alice, ring, hasher, m);
            };
            let ((v, ms), _, stats) = match net {
                Some(m) => run_protocol_with_net(m, fa, fb),
                None => run_protocol(fa, fb),
            };
            warm_runs.push(ms);
            warm_stats = stats;
            std::hint::black_box(v);
        }
        (
            median(cold_runs),
            median(warm_runs),
            warm_stats,
            cold_bytes,
            cold_rounds,
        )
    };

    let (local_cold_ms, local_warm_ms, stats, cold_bytes, cold_rounds) = sweep(None, reps, 1000);
    let offline_bytes = stats.offline_bytes;
    let online_bytes = stats.online_bytes;
    let online_rounds = stats.online_rounds;
    let super_rounds = stats.super_rounds;
    let online_super_rounds = stats.online_super_rounds;
    let offline_super_rounds = stats.offline_super_rounds;
    let local_speedup = local_cold_ms / local_warm_ms;
    println!(
        "online phase split (loopback): cold {local_cold_ms:.1} ms, warm {local_warm_ms:.1} ms \
         ({local_speedup:.1}x), cold {cold_bytes} B / {cold_rounds} rounds, \
         offline {offline_bytes} B / online {online_bytes} B \
         ({online_rounds} rounds, {online_super_rounds} super-rounds online / \
         {offline_super_rounds} offline)"
    );
    if online_super_rounds > ONLINE_SUPER_ROUND_BUDGET
        || offline_super_rounds > OFFLINE_SUPER_ROUND_BUDGET
    {
        eprintln!(
            "round-count regression: online {online_super_rounds} super-rounds \
             (budget {ONLINE_SUPER_ROUND_BUDGET}), offline {offline_super_rounds} \
             (budget {OFFLINE_SUPER_ROUND_BUDGET})"
        );
        std::process::exit(1);
    }
    if online_bytes != ONLINE_BYTES || offline_bytes != OFFLINE_BYTES {
        eprintln!(
            "byte-count change: online {online_bytes} B (pinned {ONLINE_BYTES}), \
             offline {offline_bytes} B (pinned {OFFLINE_BYTES})"
        );
        std::process::exit(1);
    }
    if quick {
        println!(
            "bench-smoke: round budgets and byte pins hold \
             (online {online_super_rounds}/{ONLINE_SUPER_ROUND_BUDGET}, \
             offline {offline_super_rounds}/{OFFLINE_SUPER_ROUND_BUDGET}; \
             {online_bytes} B online, {offline_bytes} B offline)"
        );
        return;
    }

    // The headline numbers: the same sweep under a declared WAN. The cold
    // path must push every garbled table and OT/OPRF extension through the
    // modeled link at query time; the warm path already paid for those
    // offline.
    let net = NetModel::wan(20);
    let (cold_ms, warm_ms, _, _, _) = sweep(Some(net), 3, 5000);
    let speedup = cold_ms / warm_ms;
    println!(
        "online phase split ({} Mbit/s, {} ms one-way): cold {cold_ms:.1} ms, \
         warm {warm_ms:.1} ms ({speedup:.1}x)",
        net.bandwidth_bits_per_sec / 1_000_000,
        net.one_way_latency_us as f64 / 1e3
    );
    let json = format!(
        "{{\n  \"cpus\": {cpus},\n  \"query\": \"chain3 sizes {n1}/{n2}/{n3} scalar sum, 64-bit ring\",\n  \
\"network_model\": {{\"bandwidth_bits_per_sec\": {bw}, \"one_way_latency_us\": {lat}}},\n  \
\"reps\": {REPS},\n  \"cold_ms\": {cold_ms:.2},\n  \"warm_ms\": {warm_ms:.2},\n  \
\"speedup\": {speedup:.2},\n  \"local_cold_ms\": {local_cold_ms:.2},\n  \
\"local_warm_ms\": {local_warm_ms:.2},\n  \"local_speedup\": {local_speedup:.2},\n  \
\"cold_bytes\": {cold_bytes},\n  \"cold_rounds\": {cold_rounds},\n  \
\"offline_bytes\": {offline_bytes},\n  \"online_bytes\": {online_bytes},\n  \
\"online_rounds\": {online_rounds},\n  \"super_rounds\": {super_rounds},\n  \
\"online_super_rounds\": {online_super_rounds},\n  \
\"offline_super_rounds\": {offline_super_rounds}\n}}\n",
        bw = net.bandwidth_bits_per_sec,
        lat = net.one_way_latency_us,
    );
    std::fs::write("BENCH_online.json", &json).expect("write BENCH_online.json");
    println!("wrote BENCH_online.json");
}

/// Time the tweakable hashers (scalar vs batched, plus 512-bit row
/// compression) and write `BENCH_hashers.json`.
fn profile_hashers() {
    const N: usize = 1 << 16;
    const ROWS: usize = 1 << 12;
    let blocks: Vec<Block> = (0..N as u128)
        .map(|i| Block(i.wrapping_mul(0x9e37_79b9)))
        .collect();
    let rows: Vec<[u8; 64]> = (0..ROWS).map(|i| [i as u8; 64]).collect();
    let hashers = [TweakHasher::Sha256, TweakHasher::Aes];

    let mut entries = Vec::new();
    let mut sha_scalar = 0.0f64;
    for h in hashers {
        // Scalar: one dispatch per block.
        let t = Instant::now();
        let mut acc = Block::ZERO;
        for (j, &b) in blocks.iter().enumerate() {
            acc ^= h.hash(b, j as u64);
        }
        let scalar_ns = t.elapsed().as_nanos() as f64 / N as f64;
        std::hint::black_box(acc);

        // Batched: the hot-loop API.
        let t = Instant::now();
        let out = h.hash_batch(&blocks, 0);
        let batch_ns = t.elapsed().as_nanos() as f64 / N as f64;
        std::hint::black_box(out);

        // 512-bit KKRT row compression.
        let t = Instant::now();
        let out = h.hash_row_batch(0, &rows);
        let row_ns = t.elapsed().as_nanos() as f64 / ROWS as f64;
        std::hint::black_box(out);

        if matches!(h, TweakHasher::Sha256) {
            sha_scalar = scalar_ns;
        }
        println!(
            "hasher {h:?}: scalar {scalar_ns:.1} ns/block, batch {batch_ns:.1} ns/block, \
             row512 {row_ns:.1} ns/row"
        );
        entries.push((h, scalar_ns, batch_ns, row_ns));
    }

    let mut json = String::from("{\n  \"blocks\": ");
    json.push_str(&N.to_string());
    json.push_str(",\n  \"hashers\": {\n");
    for (i, (h, scalar_ns, batch_ns, row_ns)) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    \"{h:?}\": {{\"scalar_ns_per_block\": {scalar_ns:.2}, \
\"batch_ns_per_block\": {batch_ns:.2}, \"row512_ns_per_row\": {row_ns:.2}, \
\"batch_speedup_vs_sha256\": {:.2}}}{}\n",
            sha_scalar / batch_ns,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_hashers.json", &json).expect("write BENCH_hashers.json");
    println!("wrote BENCH_hashers.json");
}
