//! Criterion micro-benchmarks of the cryptographic substrates: per-unit
//! costs of OT extension, garbling, OEP and PSI — the constants behind the
//! figures' linear terms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secyan_circuit::Builder;
use secyan_crypto::{Block, RingCtx, TweakHasher};
use secyan_gc::scheme::{eval, garble, EvalTables};
use secyan_oep::{oep_perm_holder, oep_value_holder};
use secyan_ot::{OtReceiver, OtSender};
use secyan_transport::run_protocol;

fn bench_ot_extension(c: &mut Criterion) {
    let mut g = c.benchmark_group("ot_extension");
    for m in [1_000usize, 10_000] {
        g.throughput(Throughput::Elements(m as u64));
        g.bench_with_input(BenchmarkId::new("random_ots", m), &m, |b, &m| {
            b.iter(|| {
                run_protocol(
                    move |ch| {
                        let mut rng = StdRng::seed_from_u64(1);
                        let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::default());
                        ot.random(ch, m)
                    },
                    move |ch| {
                        let mut rng = StdRng::seed_from_u64(2);
                        let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::default());
                        ot.random(ch, &vec![false; m])
                    },
                )
            });
        });
    }
    g.finish();
}

fn bench_garbling(c: &mut Criterion) {
    let mut g = c.benchmark_group("garbling");
    // A 32-bit multiplier: the dominant gate block in the full join's product tree.
    let mut b = Builder::new();
    let x = b.alice_word(32);
    let y = b.bob_word(32);
    let p = b.mul_words(&x, &y);
    b.output_word(&p);
    let circuit = b.finish();
    let ands = circuit.and_count();
    for hasher in [TweakHasher::Aes, TweakHasher::Sha256] {
        g.throughput(Throughput::Elements(ands));
        g.bench_function(
            BenchmarkId::new("mul32_garble", format!("{hasher:?}")),
            |bch| {
                let mut rng = StdRng::seed_from_u64(3);
                bch.iter(|| garble(&circuit, hasher, &mut rng));
            },
        );
        g.bench_function(
            BenchmarkId::new("mul32_eval", format!("{hasher:?}")),
            |bch| {
                let mut rng = StdRng::seed_from_u64(4);
                let gb = garble(&circuit, hasher, &mut rng);
                let labels: Vec<Block> = (0..64).map(|i| gb.input_label(i, false)).collect();
                let tables = EvalTables {
                    tables: gb.tables.clone(),
                };
                bch.iter(|| eval(&circuit, &tables, &labels, hasher));
            },
        );
    }
    g.finish();
}

fn bench_oep(c: &mut Criterion) {
    let mut g = c.benchmark_group("oep");
    let ring = RingCtx::new(32);
    for n in [256usize, 1024] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("identity_oep", n), &n, |b, &n| {
            let values: Vec<u64> = (0..n as u64).collect();
            let xi: Vec<usize> = (0..n).collect();
            b.iter(|| {
                let v = values.clone();
                let x = xi.clone();
                run_protocol(
                    move |ch| {
                        let mut rng = StdRng::seed_from_u64(5);
                        let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::default());
                        oep_perm_holder(ch, &x, n, ring, &mut ot)
                    },
                    move |ch| {
                        let mut rng = StdRng::seed_from_u64(6);
                        let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::default());
                        oep_value_holder(ch, &v, n, ring, &mut ot, &mut rng)
                    },
                )
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ot_extension, bench_garbling, bench_oep
}
criterion_main!(benches);
