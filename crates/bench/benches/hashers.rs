//! Criterion micro-benchmarks of the tweakable hash variants: the
//! per-block cost of `Sha256` (cross-check) and `Aes` (default fixed-key
//! MMO), scalar and batched. This is the
//! kernel behind every AND gate, every OT row, and every OPRF mask, so
//! the per-block constant here is the slope of the figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use secyan_crypto::{Block, TweakHasher};

const HASHERS: [TweakHasher; 2] = [TweakHasher::Sha256, TweakHasher::Aes];

fn test_blocks(n: usize) -> Vec<Block> {
    (0..n)
        .map(|i| Block((i as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835)))
        .collect()
}

/// One block, one tweak per call — the shape of a naive garbling loop.
fn bench_scalar(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_scalar");
    let blocks = test_blocks(1024);
    g.throughput(Throughput::Elements(blocks.len() as u64));
    for hasher in HASHERS {
        g.bench_function(BenchmarkId::new("hash", format!("{hasher:?}")), |b| {
            b.iter(|| {
                let mut acc = Block::ZERO;
                for (j, &x) in blocks.iter().enumerate() {
                    acc ^= hasher.hash(x, j as u64);
                }
                acc
            });
        });
    }
    g.finish();
}

/// Whole-slice batches — the shape of the IKNP row-hashing hot loop.
fn bench_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_batch");
    for n in [1024usize, 16384] {
        let blocks = test_blocks(n);
        g.throughput(Throughput::Elements(n as u64));
        for hasher in HASHERS {
            g.bench_with_input(
                BenchmarkId::new(format!("{hasher:?}"), n),
                &blocks,
                |b, blocks| b.iter(|| hasher.hash_batch(blocks, 0)),
            );
        }
    }
    g.finish();
}

/// Four-hash gate kernels — the shape of the half-gates garbler.
fn bench_gate_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_gate_kernels");
    let blocks = test_blocks(4096);
    g.throughput(Throughput::Elements(blocks.len() as u64 / 4));
    for hasher in HASHERS {
        g.bench_function(BenchmarkId::new("hash4", format!("{hasher:?}")), |b| {
            b.iter(|| {
                let mut acc = Block::ZERO;
                for (j, quad) in blocks.chunks_exact(4).enumerate() {
                    let t = 2 * j as u64;
                    let out =
                        hasher.hash4([quad[0], quad[1], quad[2], quad[3]], [t, t, t + 1, t + 1]);
                    acc ^= out[0] ^ out[1] ^ out[2] ^ out[3];
                }
                acc
            });
        });
    }
    g.finish();
}

/// Wide-row hashing — the shape of the KKRT OPRF output masking.
fn bench_rows(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_rows");
    let rows: Vec<[u8; 64]> = (0..4096usize)
        .map(|i| {
            let mut r = [0u8; 64];
            r[..8].copy_from_slice(&(i as u64).to_le_bytes());
            r
        })
        .collect();
    g.throughput(Throughput::Elements(rows.len() as u64));
    for hasher in HASHERS {
        g.bench_function(
            BenchmarkId::new("row512_batch", format!("{hasher:?}")),
            |b| {
                b.iter(|| hasher.hash_row_batch(0, &rows));
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scalar,
    bench_batch,
    bench_gate_kernels,
    bench_rows
);
criterion_main!(benches);
