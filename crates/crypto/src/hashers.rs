//! Tweakable correlation-robust hashing for garbling and OT extension.
//!
//! Garbled-circuit gates and IKNP rows hash a 128-bit block together with a
//! public tweak (gate id / row index). Production systems use fixed-key
//! AES for this (EMP, SECYAN's backend); [`TweakHasher::Aes`] reproduces
//! that construction from scratch (see [`crate::aes`]) and is the default
//! on every hot path. [`TweakHasher::Sha256`] remains available as a
//! slower, independent random-oracle-style cross-check. The choice never
//! affects message sizes or protocol structure, only the per-gate constant.
//!
//! The AES variant is the standard tweaked MMO construction
//! `H(x, t) = π(σ(x) ⊕ t) ⊕ σ(x)` with `π` the fixed-key AES permutation
//! and `σ` a linear orthomorphism (here `σ(hi ‖ lo) = (hi ⊕ lo) ‖ hi`),
//! which is circular-correlation-robust under the usual ideal-permutation
//! analysis. The batched entry points ([`TweakHasher::hash_batch`],
//! [`TweakHasher::hash4`], …) hoist the key schedule and dispatch out of
//! the per-gate loop and hand the kernel 4–8 independent blocks per call.

use crate::aes::{fixed_key, PIPELINE_WIDTH};
use crate::block::Block;
use crate::secret::Zeroize;
use crate::sha256::{digest_to_u64, Sha256};
use secyan_par as par;

/// Below this many blocks a batch hash runs serially — the pool dispatch
/// would cost more than the AES work it spreads.
const PAR_MIN_BLOCKS: usize = 2048;

/// Below this many wide rows `hash_row_batch` runs serially. Rows carry
/// N/16 AES calls each, so the bar is lower than for single blocks.
const PAR_MIN_ROWS: usize = 512;

/// The hash used at each garbled gate / OT row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TweakHasher {
    /// SHA-256(label ‖ tweak) truncated to 128 bits. Secure but an order
    /// of magnitude slower than [`TweakHasher::Aes`]; kept for
    /// cross-checking.
    Sha256,
    /// Fixed-key AES-128 in the tweaked MMO construction. The default.
    #[default]
    Aes,
}

/// The linear orthomorphism σ(hi ‖ lo) = (hi ⊕ lo) ‖ hi. Both σ and
/// x ↦ σ(x) ⊕ x are bijective, which is what the MMO security proof needs.
#[inline]
fn sigma(x: u128) -> u128 {
    let hi = x >> 64;
    let lo = x & u64::MAX as u128;
    ((hi ^ lo) << 64) | hi
}

impl TweakHasher {
    /// Hash one block under a tweak.
    #[inline]
    pub fn hash(self, b: Block, tweak: u64) -> Block {
        match self {
            TweakHasher::Sha256 => sha_hash(&[b], tweak),
            TweakHasher::Aes => {
                let s = sigma(b.0);
                Block(fixed_key().encrypt_u128(s ^ tweak as u128) ^ s)
            }
        }
    }

    /// Hash two blocks under a tweak (a double-width compression; argument
    /// order matters).
    #[inline]
    pub fn hash2(self, a: Block, b: Block, tweak: u64) -> Block {
        match self {
            TweakHasher::Sha256 => sha_hash(&[a, b], tweak),
            TweakHasher::Aes => {
                // σ²(a) ⊕ σ(b) keeps the two arguments in distinct linear
                // positions, so swapping them changes the input to π.
                let s = sigma(sigma(a.0)) ^ sigma(b.0);
                Block(fixed_key().encrypt_u128(s ^ tweak as u128) ^ s)
            }
        }
    }

    /// Hash four blocks, each under its own tweak, in one kernel dispatch.
    /// Exactly the shape of one half-gates AND gate on the garbler side.
    #[inline]
    pub fn hash4(self, xs: [Block; 4], tweaks: [u64; 4]) -> [Block; 4] {
        match self {
            TweakHasher::Aes => {
                let s = xs.map(|x| sigma(x.0));
                let mut buf = [
                    s[0] ^ tweaks[0] as u128,
                    s[1] ^ tweaks[1] as u128,
                    s[2] ^ tweaks[2] as u128,
                    s[3] ^ tweaks[3] as u128,
                ];
                fixed_key().encrypt_blocks(&mut buf);
                [
                    Block(buf[0] ^ s[0]),
                    Block(buf[1] ^ s[1]),
                    Block(buf[2] ^ s[2]),
                    Block(buf[3] ^ s[3]),
                ]
            }
            _ => [
                self.hash(xs[0], tweaks[0]),
                self.hash(xs[1], tweaks[1]),
                self.hash(xs[2], tweaks[2]),
                self.hash(xs[3], tweaks[3]),
            ],
        }
    }

    /// Hash two independent (block, tweak) pairs in one dispatch — the
    /// shape of one AND gate on the evaluator side.
    #[inline]
    pub fn hash_pair(self, x0: Block, t0: u64, x1: Block, t1: u64) -> (Block, Block) {
        match self {
            TweakHasher::Aes => {
                let s0 = sigma(x0.0);
                let s1 = sigma(x1.0);
                let mut buf = [s0 ^ t0 as u128, s1 ^ t1 as u128];
                fixed_key().encrypt_blocks(&mut buf);
                (Block(buf[0] ^ s0), Block(buf[1] ^ s1))
            }
            _ => (self.hash(x0, t0), self.hash(x1, t1)),
        }
    }

    /// Hash a slice of blocks, block `j` under tweak `tweak_base + j` —
    /// the shape of post-transpose IKNP row hashing. One kernel dispatch
    /// per 8 blocks; large batches additionally split across the worker
    /// pool (each element depends only on its own block and index, so the
    /// chunk boundaries cannot change the output).
    pub fn hash_batch(self, xs: &[Block], tweak_base: u64) -> Vec<Block> {
        let mut out = vec![Block(0); xs.len()];
        par::with_pool_if(
            par::threads() > 1 && xs.len() >= 2 * PAR_MIN_BLOCKS,
            |pool| {
                pool.chunks_mut(&mut out, 1, PAR_MIN_BLOCKS, |off, chunk| {
                    self.hash_batch_into(
                        &xs[off..off + chunk.len()],
                        tweak_base.wrapping_add(off as u64),
                        chunk,
                    );
                });
            },
        );
        out
    }

    /// Serial kernel behind [`TweakHasher::hash_batch`].
    fn hash_batch_into(self, xs: &[Block], tweak_base: u64, out: &mut [Block]) {
        match self {
            TweakHasher::Aes => {
                let mut sig: Vec<u128> = xs.iter().map(|x| sigma(x.0)).collect();
                let mut buf: Vec<u128> = sig
                    .iter()
                    .enumerate()
                    .map(|(j, &s)| s ^ tweak_base.wrapping_add(j as u64) as u128)
                    .collect();
                fixed_key().encrypt_blocks(&mut buf);
                for (o, (&c, &s)) in out.iter_mut().zip(buf.iter().zip(&sig)) {
                    *o = Block(c ^ s);
                }
                // The scratch holds σ(label) images — label material.
                sig.zeroize();
                buf.zeroize();
            }
            _ => {
                for (j, (o, &x)) in out.iter_mut().zip(xs).enumerate() {
                    *o = self.hash(x, tweak_base.wrapping_add(j as u64));
                }
            }
        }
    }

    /// Batched [`TweakHasher::hash2`]: element `j` hashes
    /// `(a[j], b[j])` under tweak `tweak_base + j`. Parallel for large
    /// batches, same chunk-invariance argument as [`TweakHasher::hash_batch`].
    pub fn hash2_batch(self, a: &[Block], b: &[Block], tweak_base: u64) -> Vec<Block> {
        assert_eq!(a.len(), b.len(), "hash2_batch wants aligned slices");
        let mut out = vec![Block(0); a.len()];
        par::with_pool_if(
            par::threads() > 1 && a.len() >= 2 * PAR_MIN_BLOCKS,
            |pool| {
                pool.chunks_mut(&mut out, 1, PAR_MIN_BLOCKS, |off, chunk| {
                    let end = off + chunk.len();
                    self.hash2_batch_into(
                        &a[off..end],
                        &b[off..end],
                        tweak_base.wrapping_add(off as u64),
                        chunk,
                    );
                });
            },
        );
        out
    }

    /// Serial kernel behind [`TweakHasher::hash2_batch`].
    fn hash2_batch_into(self, a: &[Block], b: &[Block], tweak_base: u64, out: &mut [Block]) {
        match self {
            TweakHasher::Aes => {
                let mut sig: Vec<u128> = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| sigma(sigma(x.0)) ^ sigma(y.0))
                    .collect();
                let mut buf: Vec<u128> = sig
                    .iter()
                    .enumerate()
                    .map(|(j, &s)| s ^ tweak_base.wrapping_add(j as u64) as u128)
                    .collect();
                fixed_key().encrypt_blocks(&mut buf);
                for (o, (&c, &s)) in out.iter_mut().zip(buf.iter().zip(&sig)) {
                    *o = Block(c ^ s);
                }
                sig.zeroize();
                buf.zeroize();
            }
            _ => {
                for (j, (o, (&x, &y))) in out.iter_mut().zip(a.iter().zip(b)).enumerate() {
                    *o = self.hash2(x, y, tweak_base.wrapping_add(j as u64));
                }
            }
        }
    }

    /// Hash every block of `xs`, block `j` under its own `tweaks[j]`, into
    /// `out`. This is the fully general batched shape: the level-parallel
    /// garbler/evaluator use it to hand the AES kernel a whole level's
    /// worth of gate hashes (4 per AND garbling, 2 evaluating) as one
    /// contiguous batch instead of one 4-block dispatch per gate. Serial
    /// by design — it is called from inside `secyan-par` workers, which
    /// must never nest a pool.
    pub fn hash_each_into(self, xs: &[Block], tweaks: &[u64], out: &mut [Block]) {
        assert_eq!(xs.len(), tweaks.len(), "hash_each wants aligned slices");
        assert_eq!(xs.len(), out.len(), "hash_each wants aligned slices");
        match self {
            TweakHasher::Aes => {
                let mut sig: Vec<u128> = xs.iter().map(|x| sigma(x.0)).collect();
                let mut buf: Vec<u128> = sig
                    .iter()
                    .zip(tweaks)
                    .map(|(&s, &t)| s ^ t as u128)
                    .collect();
                fixed_key().encrypt_blocks(&mut buf);
                for (o, (&c, &s)) in out.iter_mut().zip(buf.iter().zip(&sig)) {
                    *o = Block(c ^ s);
                }
                // The scratch holds σ(label) images — label material.
                sig.zeroize();
                buf.zeroize();
            }
            _ => {
                for (o, (&x, &t)) in out.iter_mut().zip(xs.iter().zip(tweaks)) {
                    *o = self.hash(x, t);
                }
            }
        }
    }

    /// Allocating wrapper around [`TweakHasher::hash_each_into`].
    pub fn hash_each(self, xs: &[Block], tweaks: &[u64]) -> Vec<Block> {
        let mut out = vec![Block(0); xs.len()];
        self.hash_each_into(xs, tweaks, &mut out);
        out
    }

    /// Hash a wide row (N bytes, N a multiple of 16) down to 64 bits under
    /// a tweak — the KKRT OPRF output masking. The AES variant chains the
    /// single-key Matyas–Meyer–Oseas compression h' = π(h ⊕ m) ⊕ h ⊕ m
    /// over the row's 16-byte words, seeded with the tweak.
    pub fn hash_row<const N: usize>(self, tweak: u64, row: &[u8; N]) -> u64 {
        match self {
            TweakHasher::Sha256 => sha_row(tweak, row),
            TweakHasher::Aes => {
                let mut h = tweak as u128;
                for chunk in row.chunks_exact(16) {
                    let m = u128::from_le_bytes(chunk.try_into().expect("16-byte chunk"));
                    let t = h ^ m;
                    h = fixed_key().encrypt_u128(t) ^ t;
                }
                h as u64
            }
        }
    }

    /// Batched [`TweakHasher::hash_row`]: row `j` hashes under tweak
    /// `tweak_base + j`. The AES variant advances all chains of a chunk of
    /// [`PIPELINE_WIDTH`] rows together, so every kernel dispatch carries
    /// a full pipeline of independent blocks; large batches additionally
    /// split rows across the worker pool (each row's chain is independent
    /// of its neighbours).
    pub fn hash_row_batch<const N: usize>(self, tweak_base: u64, rows: &[[u8; N]]) -> Vec<u64> {
        let mut out = vec![0u64; rows.len()];
        par::with_pool_if(
            par::threads() > 1 && rows.len() >= 2 * PAR_MIN_ROWS,
            |pool| {
                pool.chunks_mut(&mut out, 1, PAR_MIN_ROWS, |off, chunk| {
                    self.hash_row_batch_into(
                        tweak_base.wrapping_add(off as u64),
                        &rows[off..off + chunk.len()],
                        chunk,
                    );
                });
            },
        );
        out
    }

    /// Serial kernel behind [`TweakHasher::hash_row_batch`].
    fn hash_row_batch_into<const N: usize>(
        self,
        tweak_base: u64,
        rows: &[[u8; N]],
        out: &mut [u64],
    ) {
        match self {
            TweakHasher::Aes => {
                assert_eq!(N % 16, 0, "row length must be a multiple of 16");
                let mut pos = 0;
                let mut h: Vec<u128> = Vec::with_capacity(PIPELINE_WIDTH);
                let mut t = vec![0u128; PIPELINE_WIDTH];
                for (c, chunk) in rows.chunks(PIPELINE_WIDTH).enumerate() {
                    h.clear();
                    h.extend(
                        (0..chunk.len()).map(|j| {
                            tweak_base.wrapping_add((c * PIPELINE_WIDTH + j) as u64) as u128
                        }),
                    );
                    for k in 0..N / 16 {
                        for (j, row) in chunk.iter().enumerate() {
                            let m = u128::from_le_bytes(
                                row[16 * k..16 * (k + 1)].try_into().expect("16 bytes"),
                            );
                            t[j] = h[j] ^ m;
                        }
                        h.copy_from_slice(&t[..chunk.len()]);
                        fixed_key().encrypt_blocks(&mut h);
                        for j in 0..chunk.len() {
                            h[j] ^= t[j];
                        }
                    }
                    for (o, &x) in out[pos..].iter_mut().zip(h.iter()) {
                        *o = x as u64;
                    }
                    pos += chunk.len();
                }
                // Chain state mixes OPRF row material; scrub it.
                h.zeroize();
                t.zeroize();
            }
            _ => {
                for (j, (o, row)) in out.iter_mut().zip(rows).enumerate() {
                    *o = self.hash_row(tweak_base.wrapping_add(j as u64), row);
                }
            }
        }
    }
}

/// SHA-256 of blocks ‖ tweak, truncated to 128 bits.
fn sha_hash(blocks: &[Block], tweak: u64) -> Block {
    let mut h = Sha256::new();
    for b in blocks {
        h.update(&b.to_bytes());
    }
    h.update(&tweak.to_le_bytes());
    let d = h.finalize();
    Block(u128::from_le_bytes(d[..16].try_into().expect("16 bytes")))
}

/// SHA-256 row compression for the KKRT masking.
fn sha_row(tweak: u64, row: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(b"row-hash");
    h.update(&tweak.to_le_bytes());
    h.update(row);
    digest_to_u64(&h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [TweakHasher; 2] = [TweakHasher::Sha256, TweakHasher::Aes];

    #[test]
    fn deterministic_and_tweak_sensitive() {
        for h in ALL {
            let b = Block(12345);
            assert_eq!(h.hash(b, 1), h.hash(b, 1));
            assert_ne!(h.hash(b, 1), h.hash(b, 2));
            assert_ne!(h.hash(b, 1), h.hash(Block(12346), 1));
        }
    }

    #[test]
    fn hash2_argument_order_matters() {
        for h in ALL {
            let (a, b) = (Block(1), Block(2));
            assert_ne!(h.hash2(a, b, 0), h.hash2(b, a, 0));
            assert_eq!(h.hash2(a, b, 7), h.hash2(a, b, 7));
            assert_ne!(h.hash2(a, b, 7), h.hash2(a, b, 8));
        }
    }

    #[test]
    fn aes_hash_differs_from_input_and_spreads() {
        // H(x, t) must not leak σ(x) or x trivially.
        let b = Block(0xdead_beef);
        let h = TweakHasher::Aes.hash(b, 3);
        assert_ne!(h, b);
        let h2 = TweakHasher::Aes.hash(Block(0xdead_beee), 3);
        assert!((h.0 ^ h2.0).count_ones() > 30, "poor diffusion");
    }

    #[test]
    fn sigma_is_an_orthomorphism() {
        // σ and σ ⊕ id are both injective on a sample.
        let mut seen_s = std::collections::HashSet::new();
        let mut seen_sx = std::collections::HashSet::new();
        for i in 0..1000u128 {
            let x = i.wrapping_mul(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
            assert!(seen_s.insert(sigma(x)));
            assert!(seen_sx.insert(sigma(x) ^ x));
        }
    }

    #[test]
    fn batch_equals_per_element_hash() {
        for h in ALL {
            let xs: Vec<Block> = (0..37u128).map(|i| Block(i * 0x9e37_79b9)).collect();
            let batch = h.hash_batch(&xs, 1000);
            assert_eq!(batch.len(), xs.len());
            for (j, &x) in xs.iter().enumerate() {
                assert_eq!(batch[j], h.hash(x, 1000 + j as u64), "{h:?} element {j}");
            }
        }
    }

    #[test]
    fn hash2_batch_equals_per_element_hash2() {
        for h in ALL {
            let a: Vec<Block> = (0..19u128).map(|i| Block(i + 1)).collect();
            let b: Vec<Block> = (0..19u128).map(|i| Block(i * 77 + 5)).collect();
            let batch = h.hash2_batch(&a, &b, 50);
            for j in 0..a.len() {
                assert_eq!(batch[j], h.hash2(a[j], b[j], 50 + j as u64), "{h:?} {j}");
            }
        }
    }

    #[test]
    fn hash4_and_hash_pair_equal_scalar() {
        for h in ALL {
            let xs = [Block(1), Block(2), Block(3), Block(4)];
            let ts = [10, 10, 11, 11];
            let got = h.hash4(xs, ts);
            for j in 0..4 {
                assert_eq!(got[j], h.hash(xs[j], ts[j]), "{h:?} lane {j}");
            }
            let (p0, p1) = h.hash_pair(Block(9), 2, Block(8), 3);
            assert_eq!(p0, h.hash(Block(9), 2));
            assert_eq!(p1, h.hash(Block(8), 3));
        }
    }

    #[test]
    fn hash_each_equals_per_element_hash() {
        for h in ALL {
            let xs: Vec<Block> = (0..23u128).map(|i| Block(i * 31 + 2)).collect();
            let tweaks: Vec<u64> = (0..23u64).map(|i| i.wrapping_mul(0x7777) ^ 5).collect();
            let got = h.hash_each(&xs, &tweaks);
            for j in 0..xs.len() {
                assert_eq!(got[j], h.hash(xs[j], tweaks[j]), "{h:?} element {j}");
            }
        }
    }

    #[test]
    fn row_hash_batch_equals_scalar_and_is_tweak_sensitive() {
        for h in ALL {
            let rows: Vec<[u8; 64]> = (0..21u8).map(|i| [i; 64]).collect();
            let batch = h.hash_row_batch(500, &rows);
            for (j, row) in rows.iter().enumerate() {
                assert_eq!(batch[j], h.hash_row(500 + j as u64, row), "{h:?} row {j}");
            }
            assert_ne!(h.hash_row(1, &rows[0]), h.hash_row(2, &rows[0]), "{h:?}");
            assert_ne!(h.hash_row(1, &rows[0]), h.hash_row(1, &rows[1]), "{h:?}");
        }
    }

    #[test]
    fn batch_hashing_is_thread_count_invariant() {
        // Batches big enough to cross the parallel thresholds must agree
        // with the serial result exactly, at several thread counts.
        let xs: Vec<Block> = (0..6000u128).map(|i| Block(i * 0x9e37_79b9 + 7)).collect();
        let rows: Vec<[u8; 64]> = (0..1500u64)
            .map(|i| {
                let mut r = [0u8; 64];
                r[..8].copy_from_slice(&i.to_le_bytes());
                r
            })
            .collect();
        for h in ALL {
            secyan_par::set_threads(1);
            let want_b = h.hash_batch(&xs, 9);
            let want_2 = h.hash2_batch(&xs, &xs, 9);
            let want_r = h.hash_row_batch(9, &rows);
            for n in [2, 4] {
                secyan_par::set_threads(n);
                assert_eq!(h.hash_batch(&xs, 9), want_b, "{h:?} threads={n}");
                assert_eq!(h.hash2_batch(&xs, &xs, 9), want_2, "{h:?} threads={n}");
                assert_eq!(h.hash_row_batch(9, &rows), want_r, "{h:?} threads={n}");
            }
            secyan_par::set_threads(0);
        }
    }

    #[test]
    fn variants_disagree_with_each_other() {
        // Sanity: the two hashers are genuinely different functions.
        let b = Block(42);
        assert_ne!(TweakHasher::Sha256.hash(b, 1), TweakHasher::Aes.hash(b, 1));
    }
}
