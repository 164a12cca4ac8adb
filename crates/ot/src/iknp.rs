//! IKNP oblivious-transfer extension.
//!
//! After κ = 128 base OTs (run once per [`OtSender::setup`] /
//! [`OtReceiver::setup`] pair), any number of 1-out-of-2 OTs cost only
//! symmetric-key work and one m-bit column message per base OT. The secure
//! Yannakakis protocol consumes OTs in bulk: garbled-circuit evaluator
//! inputs, every switch of the oblivious switching network, the OPPRF and
//! the reduce-join's Gilboa products all sit on top of this module.
//!
//! Semi-honest IKNP as in the original paper: the receiver's choice bits
//! are an input (chosen-choice, random-message OT); chosen messages are
//! layered on by one-time-pad masking, and correlated OT on ring words
//! ([`OtSender::send_correlated`]) by one masked word per instance.

use rand::Rng;
use secyan_crypto::transpose::BitMatrix;
use secyan_crypto::{
    ct_select_bytes, Block, CtChoice, CtSelect, Prg, Secret, TweakHasher, Zeroize,
};
use secyan_par as par;
use secyan_transport::{Channel, ReadExt, WriteExt};

/// Security parameter κ: number of base OTs / width of the extension
/// matrix.
pub const KAPPA: usize = 128;

/// Minimum OT batch size (in instances) before the column expansion uses
/// the worker pool; below this the per-column PRG work is too small to
/// amortize a dispatch.
pub(crate) const OT_PAR_MIN: usize = 4096;

/// Minimum columns per worker when the expansion does parallelize.
pub(crate) const COLS_PER_PART: usize = 16;

/// Minimum extracted blocks per worker for the post-transpose row gather.
pub(crate) const BLOCKS_PER_PART: usize = 4096;

/// Extension sender: after setup, produces message pairs.
pub struct OtSender {
    /// The κ secret choice bits used in the reversed base OTs. Secret-typed:
    /// leaking s breaks every OT derived from this setup.
    s: Secret<u128>,
    /// One PRG per column, seeded with the base-OT key `k_{s_i}`.
    prgs: Vec<Prg>,
    hasher: TweakHasher,
    ctr: u64,
    /// Precomputed random-OT material consumed by the online phase.
    bank: Option<OtSendBank>,
}

/// Extension receiver: after setup, obtains one message per choice bit.
pub struct OtReceiver {
    /// PRG pairs per column, seeded with both base-OT keys.
    prgs: Vec<(Prg, Prg)>,
    hasher: TweakHasher,
    ctr: u64,
    /// Precomputed random-OT material consumed by the online phase.
    bank: Option<OtRecvBank>,
}

/// Sender-side bank of precomputed random OTs, produced offline by
/// [`OtSender::offline`] and consumed online via Beaver-style
/// derandomization: the receiver sends correction bits `d = c ⊕ c'`
/// (packed, m/8 bytes) and the sender's effective pair becomes
/// `(x_d, x_{1⊕d})`, replacing the 16m-byte IKNP column bundle on the
/// online critical path.
///
/// Material is strictly single-use: consumed entries are zeroized at take
/// time, and anything left over is zeroized on drop (the pads are
/// `Secret`-wrapped).
pub struct OtSendBank {
    /// Interleaved pads: `[x0_0, x1_0, x0_1, x1_1, ...]`.
    pairs: Secret<Vec<Block>>,
    cursor: usize,
}

impl OtSendBank {
    /// Unconsumed instances left in the bank.
    pub fn remaining(&self) -> usize {
        self.pairs.expose().len() / 2 - self.cursor
    }

    /// Take `m` pad pairs, zeroizing them inside the bank as they leave.
    fn take(&mut self, m: usize) -> Vec<(Block, Block)> {
        let start = self.cursor;
        self.cursor += m;
        let pairs = self.pairs.expose_mut();
        let out = pairs[2 * start..2 * self.cursor]
            .chunks_exact(2)
            .map(|c| (c[0], c[1]))
            .collect();
        for p in pairs[2 * start..2 * self.cursor].iter_mut() {
            p.zeroize();
        }
        out
    }

    /// Discard (zeroize) entries until at most `cap` remain. Used by
    /// exhaustion tests to model a bank drained mid-run; discarded pads
    /// are scrubbed exactly like consumed ones.
    pub fn shed_to(&mut self, cap: usize) {
        let excess = self.remaining().saturating_sub(cap);
        drop(self.take(excess));
    }
}

/// Receiver-side bank of precomputed random OTs: the random choice bits
/// `c'` drawn offline together with the pads they selected. See
/// [`OtSendBank`] for the derandomization and single-use story.
pub struct OtRecvBank {
    /// The offline random choice bits `c'`.
    choices: Secret<Vec<bool>>,
    /// The pad selected by each `c'_i`.
    blocks: Secret<Vec<Block>>,
    cursor: usize,
}

impl OtRecvBank {
    /// Unconsumed instances left in the bank.
    pub fn remaining(&self) -> usize {
        self.blocks.expose().len() - self.cursor
    }

    /// Take `m` (choice, pad) entries, zeroizing them inside the bank.
    fn take(&mut self, m: usize) -> (Vec<bool>, Vec<Block>) {
        let start = self.cursor;
        self.cursor += m;
        let choices = self.choices.expose_mut();
        let blocks = self.blocks.expose_mut();
        let c = choices[start..self.cursor].to_vec();
        let b = blocks[start..self.cursor].to_vec();
        for x in choices[start..self.cursor].iter_mut() {
            x.zeroize();
        }
        for x in blocks[start..self.cursor].iter_mut() {
            x.zeroize();
        }
        (c, b)
    }

    /// Discard (zeroize) entries until at most `cap` remain; see
    /// [`OtSendBank::shed_to`].
    pub fn shed_to(&mut self, cap: usize) {
        let excess = self.remaining().saturating_sub(cap);
        let _ = self.take(excess);
    }
}

impl OtSender {
    /// Bootstrap via base OTs (this side plays base-OT *receiver*).
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R, hasher: TweakHasher) -> OtSender {
        let s: u128 = rng.gen();
        // ct-ok: branchless bit extraction — `& 1 == 1` compiles to a mask
        // test, and the resulting bools feed the branchless base-OT receive.
        let choices: Vec<bool> = (0..KAPPA).map(|i| s >> i & 1 == 1).collect();
        // The base-OT seeds are zeroized as each PRG consumes its seed.
        let seeds = crate::base::receive(ch, &choices, rng);
        let prgs = seeds
            .iter()
            .map(|k| Prg::from_secret(b"iknp-col", k))
            .collect();
        OtSender {
            s: Secret::new(s),
            prgs,
            hasher,
            ctr: 0,
            bank: None,
        }
    }

    /// Offline phase: bank `m` random OT instances for later derandomized
    /// consumption. The peer must run the matching [`OtReceiver::offline`]
    /// with the same `m`.
    pub fn offline(&mut self, ch: &mut Channel, m: usize) -> OtSendBank {
        let mut pairs = self.random(ch, m);
        let mut flat = Vec::with_capacity(2 * m);
        for &(x0, x1) in &pairs {
            flat.push(x0);
            flat.push(x1);
        }
        pairs.zeroize();
        OtSendBank {
            pairs: Secret::new(flat),
            cursor: 0,
        }
    }

    /// Attach a bank produced by [`OtSender::offline`]; subsequent
    /// chosen-message calls consume it while enough instances remain.
    pub fn attach_bank(&mut self, bank: OtSendBank) {
        self.bank = Some(bank);
    }

    /// Detach the current bank, if any (remaining material zeroizes when
    /// the returned bank drops).
    pub fn detach_bank(&mut self) -> Option<OtSendBank> {
        self.bank.take()
    }

    /// Instances still available in the attached bank (0 when none).
    pub fn bank_remaining(&self) -> usize {
        self.bank.as_ref().map_or(0, |b| b.remaining())
    }

    /// Random pads for `m` chosen-message OTs: derandomize banked
    /// instances when the bank covers the batch, otherwise run a fresh
    /// extension. Both parties see the same public batch sizes and bank
    /// budgets, so the pooled-vs-inline decision is always mirrored.
    fn draw_pads(&mut self, ch: &mut Channel, m: usize) -> Vec<(Block, Block)> {
        if self.bank.as_ref().is_some_and(|b| b.remaining() >= m) {
            if m == 0 {
                return Vec::new();
            }
            // Beaver-style correction: receiver sends d = c ⊕ c'; the
            // effective pair is (x_d, x_{1⊕d}), so position c selects
            // x_{c'} — exactly the pad the receiver banked.
            let d = ch.recv_bool_vec(m);
            let taken = self.bank.as_mut().expect("bank checked above").take(m);
            return taken
                .iter()
                .zip(&d)
                .map(|(&(x0, x1), &di)| {
                    let swap = CtChoice::from_bool(di);
                    (
                        Block::ct_select(swap, x1, x0),
                        Block::ct_select(swap, x0, x1),
                    )
                })
                .collect();
        }
        self.random(ch, m)
    }

    /// Produce `m` random-message OT instances. The receiver (running
    /// [`OtReceiver::random`] with its choice bits) learns exactly one
    /// message of each returned pair.
    pub fn random(&mut self, ch: &mut Channel, m: usize) -> Vec<(Block, Block)> {
        if m == 0 {
            return Vec::new();
        }
        let row_bytes = m.div_ceil(8);
        // The receiver ships all κ masked columns as ONE message (see
        // `OtReceiver::random`); pull the whole bundle at once.
        let mut u_all = vec![0u8; KAPPA * row_bytes];
        ch.recv_into(&mut u_all);
        // Column i of Q: G(k_{s_i}) ⊕ s_i · u_i. The s_i correlation is
        // applied branchlessly: every column does the same XOR loop against
        // u masked by an all-ones/all-zeros byte derived from s_i. Columns
        // are independent given the received bundle, so large batches
        // expand across the worker pool (partitioned by column index —
        // public — with each worker owning its columns' rows of Q).
        let mut q = BitMatrix::zero(KAPPA, m);
        let mut s_bits = *self.s.expose();
        par::with_pool_if(par::threads() > 1 && m >= OT_PAR_MIN, |pool| {
            let s_ref = &s_bits;
            pool.zip_chunks_mut(
                &mut self.prgs,
                q.as_bytes_mut(),
                row_bytes,
                COLS_PER_PART,
                |i, prg, row| {
                    prg.fill(row);
                    let s_i = CtChoice::from_lsb((*s_ref >> i) as u8).mask_u8();
                    for (c, &ub) in row.iter_mut().zip(&u_all[i * row_bytes..]) {
                        *c ^= ub & s_i;
                    }
                },
            );
        });
        let rows = q.transpose(); // m rows of κ bits
        let mut qjs = vec![Block(0); m];
        let mut qjs_s = vec![Block(0); m];
        par::with_pool_if(par::threads() > 1 && m >= 2 * BLOCKS_PER_PART, |pool| {
            pool.chunks_mut(&mut qjs, 1, BLOCKS_PER_PART, |off, chunk| {
                for (k, b) in chunk.iter_mut().enumerate() {
                    *b = Block(u128::from_le_bytes(
                        rows.row(off + k).try_into().expect("κ/8 = 16 bytes"),
                    ));
                }
            });
        });
        for (d, &qj) in qjs_s.iter_mut().zip(&qjs) {
            *d = qj ^ Block(s_bits);
        }
        s_bits.zeroize();
        // Both correlated branches hashed in batched kernel dispatches
        // (internally parallel for large m).
        let h0 = self.hasher.hash_batch(&qjs, self.ctr);
        let h1 = self.hasher.hash_batch(&qjs_s, self.ctr);
        self.ctr += m as u64;
        // The q-rows are the pads' preimages; scrub the local copies.
        qjs.zeroize();
        qjs_s.zeroize();
        h0.into_iter().zip(h1).collect()
    }

    /// Chosen-message OT on 128-bit messages.
    pub fn send_blocks(&mut self, ch: &mut Channel, pairs: &[(Block, Block)]) {
        let pads = self.draw_pads(ch, pairs.len());
        let mut masked = Vec::with_capacity(pairs.len() * 2);
        for ((m0, m1), (x0, x1)) in pairs.iter().zip(&pads) {
            masked.push((*m0 ^ *x0).0);
            masked.push((*m1 ^ *x1).0);
        }
        ch.send_u128_slice(&masked);
    }

    /// Chosen-message OT on equal-length byte strings.
    ///
    /// A batch with no bytes to carry — no pairs, or only empty messages —
    /// is communication-free on both sides and draws no pads: the
    /// receiver's [`OtReceiver::recv_bytes`] consumes nothing for zero
    /// choices or a zero length, so sending even an empty frame here would
    /// desynchronize the wire.
    pub fn send_bytes(&mut self, ch: &mut Channel, pairs: &[(Vec<u8>, Vec<u8>)]) {
        let mut bytes = 0;
        for (m0, m1) in pairs {
            assert_eq!(m0.len(), m1.len(), "OT messages must have equal length");
            bytes += m0.len();
        }
        if bytes == 0 {
            return;
        }
        let pads = self.draw_pads(ch, pairs.len());
        let mut buf = Vec::new();
        for ((m0, m1), &(x0, x1)) in pairs.iter().zip(&pads) {
            buf.extend_from_slice(&mask_bytes(m0, x0));
            buf.extend_from_slice(&mask_bytes(m1, x1));
        }
        ch.send(buf);
    }

    /// Correlated OT on ℓ-bit ring words (ℓ ≤ 64): for each correlation
    /// `deltas[j]`, the receiver with choice bit `c_j` learns
    /// `s_j + c_j·Δ_j (mod 2^ℓ)` and this side keeps the random `s_j`, which
    /// is returned. The pads are drawn like those of the chosen-message
    /// calls (banked or inline), and the only message is one ⌈ℓ/8⌉-byte
    /// word per OT: `y_j = s_j + Δ_j − x1_j`, with `s_j = x0_j`. An empty
    /// batch is communication-free, as for [`OtSender::send_bytes`].
    pub fn send_correlated(&mut self, ch: &mut Channel, deltas: &[u64], ell: usize) -> Vec<u64> {
        if deltas.is_empty() {
            return Vec::new();
        }
        let (mask, width) = ring_word(ell);
        let pads = self.draw_pads(ch, deltas.len());
        let mut ours = Vec::with_capacity(deltas.len());
        ch.send_with(deltas.len() * width, |buf| {
            for ((word, &(x0, x1)), &delta) in buf.chunks_exact_mut(width).zip(&pads).zip(deltas) {
                let s = x0.0 as u64 & mask;
                let y = s.wrapping_add(delta).wrapping_sub(x1.0 as u64) & mask;
                word.copy_from_slice(&y.to_le_bytes()[..width]);
                ours.push(s);
            }
        });
        ours
    }
}

/// The OT choice bits of a ring word for Gilboa multiplication, least
/// significant first. Paired with the correlations [`gilboa_shifts`] of
/// the other factor, ℓ correlated OTs leave the two parties with additive
/// shares of the product: the sender keeps minus the sum of its words, the
/// receiver the sum of the words it learns.
pub fn gilboa_bits(x: u64, ell: usize) -> impl Iterator<Item = bool> {
    // ct-ok: branchless bit extraction — `& 1 == 1` compiles to a mask
    // test, as in `OtSender::setup`.
    (0..ell).map(move |k| x >> k & 1 == 1)
}

/// The correlations 2^k·x (mod 2^ℓ), k < ℓ, that pair with the bits of the
/// peer's factor ([`gilboa_bits`]): a shift by a public amount, no branch
/// on `x`.
pub fn gilboa_shifts(x: u64, ell: usize) -> impl Iterator<Item = u64> {
    let (mask, _) = ring_word(ell);
    (0..ell).map(move |k| (x << k) & mask)
}

/// The ring mask of Z_{2^ℓ} and the wire width of one of its words.
fn ring_word(ell: usize) -> (u64, usize) {
    assert!((1..=64).contains(&ell), "ring width must be in 1..=64");
    (u64::MAX >> (64 - ell), ell.div_ceil(8))
}

impl OtReceiver {
    /// Bootstrap via base OTs (this side plays base-OT *sender*).
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R, hasher: TweakHasher) -> OtReceiver {
        // Seed pairs are zeroized on drop as each PRG consumes its seed.
        let pairs = crate::base::send(ch, KAPPA, rng);
        let prgs = pairs
            .iter()
            .map(|(k0, k1)| {
                (
                    Prg::from_secret(b"iknp-col", k0),
                    Prg::from_secret(b"iknp-col", k1),
                )
            })
            .collect();
        OtReceiver {
            prgs,
            hasher,
            ctr: 0,
            bank: None,
        }
    }

    /// Offline phase: bank `m` random OT instances with random choice bits
    /// `c'`, to be derandomized online against the real choices. The peer
    /// must run the matching [`OtSender::offline`] with the same `m`.
    pub fn offline<R: Rng>(&mut self, ch: &mut Channel, m: usize, rng: &mut R) -> OtRecvBank {
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let blocks = self.random(ch, &choices);
        OtRecvBank {
            choices: Secret::new(choices),
            blocks: Secret::new(blocks),
            cursor: 0,
        }
    }

    /// Attach a bank produced by [`OtReceiver::offline`].
    pub fn attach_bank(&mut self, bank: OtRecvBank) {
        self.bank = Some(bank);
    }

    /// Detach the current bank, if any.
    pub fn detach_bank(&mut self) -> Option<OtRecvBank> {
        self.bank.take()
    }

    /// Instances still available in the attached bank (0 when none).
    pub fn bank_remaining(&self) -> usize {
        self.bank.as_ref().map_or(0, |b| b.remaining())
    }

    /// Pads selected by `choices`: derandomize banked instances when the
    /// bank covers the batch (sending only packed correction bits d = c ⊕ c',
    /// which are uniform and independent of c), else a fresh extension.
    fn draw_pads(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        let m = choices.len();
        if self.bank.as_ref().is_some_and(|b| b.remaining() >= m) {
            if m == 0 {
                return Vec::new();
            }
            let (cprime, blocks) = self.bank.as_mut().expect("bank checked above").take(m);
            // ct-ok: XOR of two bools is branchless; d is sent on the wire
            // and is uniform because c' is.
            let d: Vec<bool> = choices
                .iter()
                .zip(&cprime)
                .map(|(&c, &cp)| c ^ cp)
                .collect();
            ch.send_bool_slice(&d);
            return blocks;
        }
        self.random(ch, choices)
    }

    /// Obtain the message selected by each choice bit (random-message OT).
    pub fn random(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        let m = choices.len();
        if m == 0 {
            return Vec::new();
        }
        let row_bytes = m.div_ceil(8);
        // Pack the choice bits without branching on them.
        let mut r_packed = vec![0u8; row_bytes];
        for (j, &c) in choices.iter().enumerate() {
            r_packed[j / 8] |= (c as u8) << (j % 8);
        }
        // Per column: t0 = G(k0), u = G(k1) ⊕ t0 ⊕ r. Both streams for all
        // κ columns land in one interleaved scratch (t0 then u per column)
        // so the expansion can split across the worker pool by column
        // index; the masked columns then go out as ONE message, which
        // `OtSender::random` reads with a single `recv_into`.
        let mut cols = vec![0u8; KAPPA * 2 * row_bytes];
        par::with_pool_if(par::threads() > 1 && m >= OT_PAR_MIN, |pool| {
            let r_ref = &r_packed;
            pool.zip_chunks_mut(
                &mut self.prgs,
                &mut cols,
                2 * row_bytes,
                COLS_PER_PART,
                |_, (prg0, prg1), chunk| {
                    let (t0, u) = chunk.split_at_mut(row_bytes);
                    prg0.fill(t0);
                    prg1.fill(u);
                    for k in 0..row_bytes {
                        u[k] ^= t0[k] ^ r_ref[k];
                    }
                },
            );
        });
        let mut t = BitMatrix::zero(KAPPA, m);
        let mut u_all = vec![0u8; KAPPA * row_bytes];
        for i in 0..KAPPA {
            let chunk = &cols[i * 2 * row_bytes..(i + 1) * 2 * row_bytes];
            t.row_mut(i).copy_from_slice(&chunk[..row_bytes]);
            u_all[i * row_bytes..(i + 1) * row_bytes].copy_from_slice(&chunk[row_bytes..]);
        }
        // The t0 streams are OT-pad preimages; scrub the scratch.
        cols.zeroize();
        ch.send_bytes(&u_all);
        let rows = t.transpose();
        let mut tjs = vec![Block(0); m];
        par::with_pool_if(par::threads() > 1 && m >= 2 * BLOCKS_PER_PART, |pool| {
            pool.chunks_mut(&mut tjs, 1, BLOCKS_PER_PART, |off, chunk| {
                for (k, b) in chunk.iter_mut().enumerate() {
                    *b = Block(u128::from_le_bytes(
                        rows.row(off + k).try_into().expect("16 bytes"),
                    ));
                }
            });
        });
        let out = self.hasher.hash_batch(&tjs, self.ctr);
        self.ctr += m as u64;
        tjs.zeroize();
        out
    }

    /// First half of a receive: draw the pads for `choices`. This is
    /// *send-only* on the receiver side (banked: packed correction bits;
    /// fresh: the masked column bundle), so it can be staged before other
    /// incoming traffic is read — protocol layers use this to batch all
    /// receiver-side OT corrections of a round into one super-frame before
    /// blocking on the sender's replies. Finish with
    /// [`OtReceiver::finish_recv_blocks`] / [`OtReceiver::finish_recv_bytes`]
    /// / [`OtReceiver::finish_recv_correlated`] in the same order relative
    /// to the peer's sends.
    pub fn begin_recv(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        self.draw_pads(ch, choices)
    }

    /// Second half of [`OtReceiver::begin_recv`] for 128-bit messages:
    /// read the masked pairs and unmask the chosen one.
    pub fn finish_recv_blocks(
        &mut self,
        ch: &mut Channel,
        pads: &[Block],
        choices: &[bool],
    ) -> Vec<Block> {
        let masked = ch.recv_u128_vec(choices.len() * 2);
        choices
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let picked =
                    u128::ct_select(CtChoice::from_bool(c), masked[2 * j + 1], masked[2 * j]);
                Block(picked) ^ pads[j]
            })
            .collect()
    }

    /// Second half of [`OtReceiver::begin_recv`] for byte-string messages
    /// of known length `len`.
    pub fn finish_recv_bytes(
        &mut self,
        ch: &mut Channel,
        pads: &[Block],
        choices: &[bool],
        len: usize,
    ) -> Vec<Vec<u8>> {
        let raw = ch.recv_bytes(choices.len() * 2 * len);
        choices
            .iter()
            .enumerate()
            .map(|(j, &c)| {
                let m0 = &raw[2 * j * len..(2 * j + 1) * len];
                let m1 = &raw[(2 * j + 1) * len..(2 * j + 2) * len];
                let picked = ct_select_bytes(CtChoice::from_bool(c), m1, m0);
                mask_bytes(&picked, pads[j])
            })
            .collect()
    }

    /// Second half of [`OtReceiver::begin_recv`] for correlated OT on
    /// ℓ-bit ring words (see [`OtSender::send_correlated`]): returns
    /// `s_j + c_j·Δ_j (mod 2^ℓ)`. The sender's word is added under an
    /// all-ones/all-zeros mask of the choice bit, so the arithmetic does
    /// not branch on it.
    pub fn finish_recv_correlated(
        &mut self,
        ch: &mut Channel,
        pads: &[Block],
        choices: &[bool],
        ell: usize,
    ) -> Vec<u64> {
        if choices.is_empty() {
            return Vec::new();
        }
        let (mask, width) = ring_word(ell);
        let raw = ch.recv_bytes(choices.len() * width);
        raw.chunks_exact(width)
            .zip(pads)
            .zip(choices)
            .map(|((word, pad), &c)| {
                let mut le = [0u8; 8];
                le[..width].copy_from_slice(word);
                let y = u64::from_le_bytes(le) & CtChoice::from_bool(c).mask_u64();
                (pad.0 as u64).wrapping_add(y) & mask
            })
            .collect()
    }

    /// Receive chosen 128-bit messages. The unchosen branch is read too and
    /// discarded via [`CtSelect`], so memory access does not index on the
    /// choice bit.
    pub fn recv_blocks(&mut self, ch: &mut Channel, choices: &[bool]) -> Vec<Block> {
        let pads = self.begin_recv(ch, choices);
        self.finish_recv_blocks(ch, &pads, choices)
    }

    /// Receive chosen byte-string messages of known length `len`. Both
    /// candidate strings are unmasked and the result selected bytewise, so
    /// neither control flow nor access pattern depends on the choice bits.
    /// A zero `len` is communication-free and draws no pads, as on the
    /// sender side ([`OtSender::send_bytes`]).
    pub fn recv_bytes(&mut self, ch: &mut Channel, choices: &[bool], len: usize) -> Vec<Vec<u8>> {
        if len == 0 {
            return vec![Vec::new(); choices.len()];
        }
        let pads = self.begin_recv(ch, choices);
        self.finish_recv_bytes(ch, &pads, choices, len)
    }
}

/// XOR a byte string with the PRG expansion of a pad block.
fn mask_bytes(msg: &[u8], pad: Block) -> Vec<u8> {
    let mut stream = vec![0u8; msg.len()];
    Prg::from_seed(b"ot-pad", pad).fill(&mut stream);
    msg.iter().zip(&stream).map(|(&a, &b)| a ^ b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::{run_protocol, Phase};

    fn run_random(m: usize, seed: u64) -> (Vec<(Block, Block)>, Vec<Block>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let choices: Vec<bool> = (0..m).map(|_| rng.gen()).collect();
        let c2 = choices.clone();
        let (pairs, got, _) = run_protocol(
            move |ch| {
                let mut s = OtSender::setup(
                    ch,
                    &mut StdRng::seed_from_u64(seed + 1),
                    TweakHasher::Sha256,
                );
                s.random(ch, m)
            },
            move |ch| {
                let mut r = OtReceiver::setup(
                    ch,
                    &mut StdRng::seed_from_u64(seed + 2),
                    TweakHasher::Sha256,
                );
                r.random(ch, &c2)
            },
        );
        (pairs, got, choices)
    }

    #[test]
    fn random_ot_delivers_chosen_message() {
        let (pairs, got, choices) = run_random(100, 10);
        for j in 0..100 {
            let (x0, x1) = pairs[j];
            assert_ne!(x0, x1);
            assert_eq!(got[j], if choices[j] { x1 } else { x0 }, "instance {j}");
        }
    }

    #[test]
    fn non_multiple_of_eight_sizes() {
        for m in [1, 7, 9, 63, 65] {
            let (pairs, got, choices) = run_random(m, 20 + m as u64);
            for j in 0..m {
                let (x0, x1) = pairs[j];
                assert_eq!(got[j], if choices[j] { x1 } else { x0 });
            }
        }
    }

    #[test]
    fn multiple_extensions_reuse_setup() {
        let (outs, gots, _) = run_protocol(
            |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(30), TweakHasher::Sha256);
                (s.random(ch, 10), s.random(ch, 10))
            },
            |ch| {
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(31), TweakHasher::Sha256);
                (r.random(ch, &[true; 10]), r.random(ch, &[false; 10]))
            },
        );
        for j in 0..10 {
            assert_eq!(gots.0[j], outs.0[j].1);
            assert_eq!(gots.1[j], outs.1[j].0);
        }
        // Distinct instances across the two batches.
        assert_ne!(outs.0, outs.1);
    }

    #[test]
    fn empty_batch_is_communication_free() {
        // A zero-message batch (e.g. an OSN over a width-1 network has no
        // switches) must put nothing on the wire in either direction: an
        // orphan frame here desynchronizes every later message. So must a
        // batch of empty byte strings (a reveal of tuples with no
        // attributes), and neither may draw a pad: with 3 banked OTs, the
        // 2-message batch would take banked pads and the 5-message batch
        // would extend inline. The marker exchange after the empty batches
        // proves the streams still align.
        let (a, b, stats) = run_protocol(
            |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(40), TweakHasher::Sha256);
                let bank = s.offline(ch, 3);
                s.attach_bank(bank);
                let before = ch.stats().total_bytes();
                s.send_bytes(ch, &[]);
                s.send_blocks(ch, &[]);
                assert!(s.send_correlated(ch, &[], 32).is_empty());
                for m in [2, 5] {
                    s.send_bytes(ch, &vec![(Vec::new(), Vec::new()); m]);
                }
                assert_eq!(ch.stats().total_bytes(), before, "empty batch sent bytes");
                assert_eq!(s.bank_remaining(), 3, "empty batch drew pads");
                ch.send_u64(0xA11C);
                ch.recv_u64()
            },
            |ch| {
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(41), TweakHasher::Sha256);
                let bank = r.offline(ch, 3, &mut StdRng::seed_from_u64(42));
                r.attach_bank(bank);
                let before = ch.stats().total_bytes();
                assert!(r.recv_bytes(ch, &[], 16).is_empty());
                assert!(r.recv_blocks(ch, &[]).is_empty());
                let pads = r.begin_recv(ch, &[]);
                assert!(r.finish_recv_correlated(ch, &pads, &[], 32).is_empty());
                for m in [2, 5] {
                    let got = r.recv_bytes(ch, &vec![true; m], 0);
                    assert_eq!(got, vec![Vec::<u8>::new(); m]);
                }
                assert_eq!(ch.stats().total_bytes(), before, "empty batch sent bytes");
                assert_eq!(r.bank_remaining(), 3, "empty batch drew pads");
                ch.send_u64(0xB0B);
                ch.recv_u64()
            },
        );
        assert_eq!(a, 0xB0B);
        assert_eq!(b, 0xA11C);
        assert!(stats.total_bytes() > 0); // setup + markers still flowed
    }

    #[test]
    fn chosen_blocks_transfer() {
        let pairs: Vec<(Block, Block)> = (0..50u128).map(|i| (Block(i), Block(i + 1000))).collect();
        let p2 = pairs.clone();
        let choices: Vec<bool> = (0..50).map(|i| i % 3 == 0).collect();
        let c2 = choices.clone();
        let (_, got, _) = run_protocol(
            move |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(40), TweakHasher::Sha256);
                s.send_blocks(ch, &p2);
            },
            move |ch| {
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(41), TweakHasher::Sha256);
                r.recv_blocks(ch, &c2)
            },
        );
        for j in 0..50 {
            let want = if choices[j] { pairs[j].1 } else { pairs[j].0 };
            assert_eq!(got[j], want);
        }
    }

    #[test]
    fn chosen_bytes_transfer() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..20u8)
            .map(|i| (vec![i; 33], vec![i + 100; 33]))
            .collect();
        let p2 = pairs.clone();
        let choices: Vec<bool> = (0..20).map(|i| i % 2 == 1).collect();
        let c2 = choices.clone();
        let (_, got, _) = run_protocol(
            move |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(50), TweakHasher::Sha256);
                s.send_bytes(ch, &p2);
            },
            move |ch| {
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(51), TweakHasher::Sha256);
                r.recv_bytes(ch, &c2, 33)
            },
        );
        for j in 0..20 {
            let want = if choices[j] { &pairs[j].1 } else { &pairs[j].0 };
            assert_eq!(&got[j], want);
        }
    }

    #[test]
    fn extension_is_thread_count_invariant() {
        // Same seeds, sizes crossing every parallel threshold: outputs must
        // be bit-identical at 1 and 4 threads.
        let m = 2 * OT_PAR_MIN;
        let run_at = |threads: usize| {
            secyan_par::set_threads(threads);
            let out = run_random(m, 70);
            secyan_par::set_threads(0);
            out
        };
        let (pairs1, got1, choices) = run_at(1);
        let (pairs4, got4, _) = run_at(4);
        assert_eq!(pairs1, pairs4);
        assert_eq!(got1, got4);
        for j in 0..m {
            let (x0, x1) = pairs1[j];
            assert_eq!(got1[j], if choices[j] { x1 } else { x0 }, "instance {j}");
        }
    }

    #[test]
    fn banked_blocks_transfer_with_fewer_online_bytes() {
        let pairs: Vec<(Block, Block)> = (0..64u128).map(|i| (Block(i), Block(i + 500))).collect();
        let p2 = pairs.clone();
        let choices: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
        let c2 = choices.clone();
        let ((), got, stats) = run_protocol(
            move |ch| {
                ch.set_phase(Phase::Offline);
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(80), TweakHasher::Sha256);
                let bank = s.offline(ch, 64);
                s.attach_bank(bank);
                ch.set_phase(Phase::Online);
                s.send_blocks(ch, &p2);
                assert_eq!(s.bank_remaining(), 0);
            },
            move |ch| {
                ch.set_phase(Phase::Offline);
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(81), TweakHasher::Sha256);
                let bank = r.offline(ch, 64, &mut StdRng::seed_from_u64(82));
                r.attach_bank(bank);
                ch.set_phase(Phase::Online);
                r.recv_blocks(ch, &c2)
            },
        );
        for j in 0..64 {
            let want = if choices[j] { pairs[j].1 } else { pairs[j].0 };
            assert_eq!(got[j], want, "instance {j}");
        }
        // Online: 8 bytes of packed corrections + 2·64·16 masked bytes —
        // far below the 16m-byte column bundle of an inline extension.
        // The phase-tagged counters make this exact and race-free: each
        // frame is attributed to the phase its sender was in.
        assert_eq!(stats.online_bytes, 8 + 2 * 64 * 16);
        assert!(stats.offline_bytes > 0, "bootstrap traffic must be tagged");
    }

    #[test]
    fn banked_bytes_transfer() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> =
            (0..10u8).map(|i| (vec![i; 16], vec![i + 50; 16])).collect();
        let p2 = pairs.clone();
        let choices: Vec<bool> = (0..10).map(|i| i % 3 == 1).collect();
        let c2 = choices.clone();
        let (_, got, _) = run_protocol(
            move |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(83), TweakHasher::Sha256);
                let bank = s.offline(ch, 10);
                s.attach_bank(bank);
                s.send_bytes(ch, &p2);
            },
            move |ch| {
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(84), TweakHasher::Sha256);
                let bank = r.offline(ch, 10, &mut StdRng::seed_from_u64(85));
                r.attach_bank(bank);
                r.recv_bytes(ch, &c2, 16)
            },
        );
        for j in 0..10 {
            let want = if choices[j] { &pairs[j].1 } else { &pairs[j].0 };
            assert_eq!(&got[j], want);
        }
    }

    #[test]
    fn exhausted_bank_falls_back_inline() {
        // Bank covers only the first batch; the second falls back to a
        // fresh extension on both sides without desynchronizing.
        let mk = |i: u128| (Block(i), Block(i + 77));
        let (_, (got1, got2), _) = run_protocol(
            move |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(86), TweakHasher::Sha256);
                let bank = s.offline(ch, 4);
                s.attach_bank(bank);
                s.send_blocks(ch, &[mk(0), mk(1), mk(2), mk(3)]);
                assert_eq!(s.bank_remaining(), 0);
                s.send_blocks(ch, &[mk(10), mk(11)]);
            },
            move |ch| {
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(87), TweakHasher::Sha256);
                let bank = r.offline(ch, 4, &mut StdRng::seed_from_u64(88));
                r.attach_bank(bank);
                let a = r.recv_blocks(ch, &[true, false, true, false]);
                let b = r.recv_blocks(ch, &[false, true]);
                (a, b)
            },
        );
        assert_eq!(got1, vec![Block(77), Block(1), Block(79), Block(3)]);
        assert_eq!(got2, vec![Block(10), Block(88)]);
    }

    #[test]
    fn bank_take_zeroizes_consumed_entries() {
        let (_, _, _) = run_protocol(
            |ch| {
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(89), TweakHasher::Sha256);
                let mut bank = s.offline(ch, 8);
                // Random pads are nonzero with overwhelming probability.
                assert!(bank.pairs.expose().iter().any(|b| *b != Block::ZERO));
                let taken = bank.take(8);
                assert!(taken
                    .iter()
                    .any(|&(a, b)| a != Block::ZERO || b != Block::ZERO));
                // Consumed-on-take: the bank's copies are gone.
                assert!(bank.pairs.expose().iter().all(|b| *b == Block::ZERO));
                assert_eq!(bank.remaining(), 0);
            },
            |ch| {
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(90), TweakHasher::Sha256);
                let mut bank = r.offline(ch, 8, &mut StdRng::seed_from_u64(91));
                assert!(bank.blocks.expose().iter().any(|b| *b != Block::ZERO));
                let _ = bank.take(8);
                assert!(bank.blocks.expose().iter().all(|b| *b == Block::ZERO));
                assert!(bank.choices.expose().iter().all(|&c| !c));
            },
        );
    }

    /// Run correlated OT on `deltas` at ring width `ell`, with both sides
    /// banking `bank` random OTs first (none when 0). Returns the sender's
    /// and receiver's words and the online bytes.
    fn run_correlated(
        deltas: Vec<u64>,
        choices: Vec<bool>,
        ell: usize,
        bank: usize,
    ) -> (Vec<u64>, Vec<u64>, u64) {
        let (ours, theirs, stats) = run_protocol(
            move |ch| {
                ch.set_phase(Phase::Offline);
                let mut s =
                    OtSender::setup(ch, &mut StdRng::seed_from_u64(92), TweakHasher::Sha256);
                if bank > 0 {
                    let b = s.offline(ch, bank);
                    s.attach_bank(b);
                }
                ch.set_phase(Phase::Online);
                s.send_correlated(ch, &deltas, ell)
            },
            move |ch| {
                ch.set_phase(Phase::Offline);
                let mut r =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(93), TweakHasher::Sha256);
                if bank > 0 {
                    let b = r.offline(ch, bank, &mut StdRng::seed_from_u64(94));
                    r.attach_bank(b);
                }
                ch.set_phase(Phase::Online);
                let pads = r.begin_recv(ch, &choices);
                r.finish_recv_correlated(ch, &pads, &choices, ell)
            },
        );
        (ours, theirs, stats.online_bytes)
    }

    #[test]
    fn correlated_ot_delivers_shifted_word() {
        for ell in [1usize, 7, 32, 64] {
            let mask = u64::MAX >> (64 - ell);
            let m = 40;
            let deltas: Vec<u64> = (0..m as u64)
                .map(|j| (j.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1 << (ell - 1)) & mask)
                .collect();
            let choices: Vec<bool> = (0..m).map(|j| j % 3 != 1).collect();
            for bank in [0, m] {
                let (ours, theirs, online) =
                    run_correlated(deltas.clone(), choices.clone(), ell, bank);
                for j in 0..m {
                    assert_eq!(ours[j] & !mask, 0, "ℓ={ell} sender word out of ring");
                    let want = ours[j].wrapping_add(deltas[j] * choices[j] as u64) & mask;
                    assert_eq!(theirs[j], want, "ℓ={ell} bank={bank} instance {j}");
                }
                // One ⌈ℓ/8⌉-byte word per OT on top of the pad draw:
                // packed corrections when banked, else the κ-column bundle.
                let pads = if bank > 0 { 1 } else { KAPPA } * m.div_ceil(8);
                assert_eq!(online, (pads + m * ell.div_ceil(8)) as u64, "ℓ={ell}");
            }
        }
    }

    #[test]
    fn other_hashers_also_work() {
        for hasher in [TweakHasher::Sha256, TweakHasher::Aes] {
            let (pairs, got, _) = run_protocol(
                move |ch| {
                    let mut s = OtSender::setup(ch, &mut StdRng::seed_from_u64(60), hasher);
                    s.random(ch, 16)
                },
                move |ch| {
                    let mut r = OtReceiver::setup(ch, &mut StdRng::seed_from_u64(61), hasher);
                    r.random(ch, &[true; 16])
                },
            );
            for j in 0..16 {
                assert_eq!(got[j], pairs[j].1, "{hasher:?} instance {j}");
            }
        }
    }
}
