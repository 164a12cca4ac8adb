//! KKRT batched oblivious PRF (BaRK-OPRF).
//!
//! The wide-matrix (w = 512) cousin of IKNP: for a batch of m inputs, the
//! *receiver* learns F(j, x_j) for its j-th input x_j, while the *sender*
//! learns a key that lets it evaluate F(j, ·) at arbitrary points. That
//! asymmetry is exactly what the OPPRF hint construction in circuit PSI
//! needs (`secyan-psi::opprf`): the sender programs corrections
//! F(j, y) ⊕ target for each of its own elements y.
//!
//! Outputs are truncated to 64 bits so they embed into GF(2^64) for the
//! polynomial hints; the 2^{-64} collision probability keeps the total
//! failure probability under the paper's 2^{-σ}, σ = 40, for all workload
//! sizes used here.

use crate::iknp::{BLOCKS_PER_PART, COLS_PER_PART, OT_PAR_MIN};
use rand::Rng;
use secyan_crypto::sha256::Sha256;
use secyan_crypto::transpose::BitMatrix;
use secyan_crypto::{zeroize_bytes, CtChoice, Prg, Secret, TweakHasher, Zeroize};
use secyan_par as par;
use secyan_transport::{Channel, WriteExt};

/// Minimum batch size before the (SHA-heavy) input-encoding map uses the
/// worker pool; each element costs two compression-function calls, so the
/// bar is far lower than for PRG column expansion.
const CODES_PER_PART: usize = 128;

/// Matrix width w: the pseudorandom-code length in bits.
pub const WIDTH: usize = 512;
const WIDTH_BYTES: usize = WIDTH / 8;

/// The pseudorandom code C: arbitrary bytes → 512 bits.
fn code(x: &[u8]) -> [u8; WIDTH_BYTES] {
    let mut out = [0u8; WIDTH_BYTES];
    for half in 0..2u8 {
        let mut h = Sha256::new();
        h.update(b"kkrt-code");
        h.update(&[half]);
        h.update(x);
        out[half as usize * 32..(half as usize + 1) * 32].copy_from_slice(&h.finalize());
    }
    out
}

/// OPRF sender (key holder). Holds the base-OT state; each
/// [`KkrtSender::key_batch`] call produces a key for one batch.
pub struct KkrtSender {
    /// The w secret correlation bits; leaking them voids every OPRF batch.
    s: Secret<[u8; WIDTH_BYTES]>,
    prgs: Vec<Prg>,
    hasher: TweakHasher,
    ctr: u64,
    bank: Option<KkrtSendBank>,
}

/// OPRF receiver (input holder).
pub struct KkrtReceiver {
    prgs: Vec<(Prg, Prg)>,
    hasher: TweakHasher,
    ctr: u64,
    bank: Option<KkrtRecvBank>,
}

/// Sender-side bank of precomputed KKRT instances, produced offline by
/// [`KkrtSender::offline`] against random receiver codes and consumed
/// online via Beaver-style derandomization.
///
/// The KKRT correlation is linear in the code: the extension leaves the
/// sender with `q_j = t_j ⊕ (C(x_j) & s)`. Running it offline against a
/// *random* code `c'_j` gives `q'_j = t_j ⊕ (c'_j & s)`; when the real
/// input arrives the receiver sends `d_j = C(x_j) ⊕ c'_j` (uniform, since
/// `c'_j` is) and the sender folds in `d_j & s`, recovering exactly the
/// online correlation. The online message replaces the column bundle of a
/// fresh extension at the same per-instance width, so banking trades no
/// extra bytes for moving the PRG expansion, the column masking, and both
/// bit-matrix transposes off the critical path.
///
/// Material is strictly single-use: consumed rows are zeroized at take
/// time and anything left over zeroizes on drop.
pub struct KkrtSendBank {
    /// Offline correlation rows `q'_j = t_j ⊕ (c'_j & s)`.
    q_rows: Secret<Vec<[u8; WIDTH_BYTES]>>,
    cursor: usize,
}

impl KkrtSendBank {
    /// Unconsumed instances left in the bank.
    pub fn remaining(&self) -> usize {
        self.q_rows.expose().len() - self.cursor
    }

    /// Take `m` rows, zeroizing them inside the bank as they leave.
    fn take(&mut self, m: usize) -> Vec<[u8; WIDTH_BYTES]> {
        let start = self.cursor;
        self.cursor += m;
        let rows = self.q_rows.expose_mut();
        let out = rows[start..self.cursor].to_vec();
        for r in rows[start..self.cursor].iter_mut() {
            r.zeroize();
        }
        out
    }

    /// Discard (zeroize) entries until at most `cap` remain; exhaustion
    /// tests use this to model a bank drained mid-run.
    pub fn shed_to(&mut self, cap: usize) {
        let excess = self.remaining().saturating_sub(cap);
        let mut dropped = self.take(excess);
        dropped.zeroize();
    }
}

/// Receiver-side bank: the random offline codes `c'_j` together with the
/// row preimages `t_j` they produced. See [`KkrtSendBank`] for the
/// derandomization and single-use story.
pub struct KkrtRecvBank {
    /// The offline random codes `c'_j`.
    codes: Secret<Vec<[u8; WIDTH_BYTES]>>,
    /// The matching row preimages `t_j` (hashed only at consumption time,
    /// when the instance index is known).
    t_rows: Secret<Vec<[u8; WIDTH_BYTES]>>,
    cursor: usize,
}

impl KkrtRecvBank {
    /// Unconsumed instances left in the bank.
    pub fn remaining(&self) -> usize {
        self.t_rows.expose().len() - self.cursor
    }

    /// Take `m` (code, row) entries, zeroizing them inside the bank.
    #[allow(clippy::type_complexity)]
    fn take(&mut self, m: usize) -> (Vec<[u8; WIDTH_BYTES]>, Vec<[u8; WIDTH_BYTES]>) {
        let start = self.cursor;
        self.cursor += m;
        let codes = self.codes.expose_mut();
        let rows = self.t_rows.expose_mut();
        let c = codes[start..self.cursor].to_vec();
        let t = rows[start..self.cursor].to_vec();
        for x in codes[start..self.cursor].iter_mut() {
            x.zeroize();
        }
        for x in rows[start..self.cursor].iter_mut() {
            x.zeroize();
        }
        (c, t)
    }

    /// Discard (zeroize) entries until at most `cap` remain; see
    /// [`KkrtSendBank::shed_to`].
    pub fn shed_to(&mut self, cap: usize) {
        let excess = self.remaining().saturating_sub(cap);
        let (mut c, mut t) = self.take(excess);
        c.zeroize();
        t.zeroize();
    }
}

/// A batch key: lets the sender evaluate F(j, ·) for each instance j of the
/// batch.
pub struct KkrtSenderKey {
    q_rows: Vec<[u8; WIDTH_BYTES]>,
    s: Secret<[u8; WIDTH_BYTES]>,
    hasher: TweakHasher,
    base: u64,
}

impl KkrtSender {
    /// Bootstrap: run w base OTs as base-OT receiver with secret choices s.
    /// `hasher` is the output hash masking the OPRF rows; both parties must
    /// pass the same choice.
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R, hasher: TweakHasher) -> KkrtSender {
        let mut s = [0u8; WIDTH_BYTES];
        rng.fill(&mut s[..]);
        // ct-ok: branchless bit extraction — `& 1 == 1` compiles to a mask
        // test, and the resulting bools feed the branchless base-OT receive.
        let choices: Vec<bool> = (0..WIDTH).map(|i| s[i / 8] >> (i % 8) & 1 == 1).collect();
        // Base-OT seeds are zeroized as each PRG consumes its seed.
        let seeds = crate::base::receive(ch, &choices, rng);
        let prgs = seeds
            .iter()
            .map(|k| Prg::from_secret(b"kkrt-col", k))
            .collect();
        KkrtSender {
            s: Secret::new(s),
            prgs,
            hasher,
            ctr: 0,
            bank: None,
        }
    }

    /// Offline phase: bank `m` instances extended against random receiver
    /// codes, for later derandomized consumption. The peer must run the
    /// matching [`KkrtReceiver::offline`] with the same `m`.
    pub fn offline(&mut self, ch: &mut Channel, m: usize) -> KkrtSendBank {
        let q_rows = if m == 0 {
            Vec::new()
        } else {
            self.extend(ch, m)
        };
        KkrtSendBank {
            q_rows: Secret::new(q_rows),
            cursor: 0,
        }
    }

    /// Attach a bank produced by [`KkrtSender::offline`]; subsequent
    /// batches consume it while enough instances remain.
    pub fn attach_bank(&mut self, bank: KkrtSendBank) {
        self.bank = Some(bank);
    }

    /// Detach the current bank, if any (remaining material zeroizes when
    /// the returned bank drops).
    pub fn detach_bank(&mut self) -> Option<KkrtSendBank> {
        self.bank.take()
    }

    /// Instances still available in the attached bank (0 when none).
    pub fn bank_remaining(&self) -> usize {
        self.bank.as_ref().map_or(0, |b| b.remaining())
    }

    /// Run one batch of size `m`, obtaining the evaluation key:
    /// derandomize banked instances when the bank covers the batch, else
    /// run a fresh extension. Both parties see the same public batch sizes
    /// and bank budgets, so the decision is always mirrored.
    pub fn key_batch(&mut self, ch: &mut Channel, m: usize) -> KkrtSenderKey {
        let base = self.ctr;
        self.ctr += m as u64;
        if m == 0 {
            return KkrtSenderKey {
                q_rows: Vec::new(),
                s: self.s.clone(),
                hasher: self.hasher,
                base,
            };
        }
        if self.bank.as_ref().is_some_and(|b| b.remaining() >= m) {
            // Beaver-style code correction: d_j = C(x_j) ⊕ c'_j turns the
            // banked q'_j = t_j ⊕ (c'_j & s) into t_j ⊕ (C(x_j) & s) —
            // the correlation a fresh extension would have produced.
            let mut d_all = vec![0u8; m * WIDTH_BYTES];
            ch.recv_into(&mut d_all);
            let mut q_rows = self.bank.as_mut().expect("bank checked above").take(m);
            let s = self.s.expose();
            for (j, row) in q_rows.iter_mut().enumerate() {
                let d = &d_all[j * WIDTH_BYTES..(j + 1) * WIDTH_BYTES];
                for k in 0..WIDTH_BYTES {
                    row[k] ^= d[k] & s[k];
                }
            }
            return KkrtSenderKey {
                q_rows,
                s: self.s.clone(),
                hasher: self.hasher,
                base,
            };
        }
        KkrtSenderKey {
            q_rows: self.extend(ch, m),
            s: self.s.clone(),
            hasher: self.hasher,
            base,
        }
    }

    /// One fresh OT extension of `m >= 1` instances: receive the masked
    /// column bundle and return the correlated rows `t_j ⊕ (code_j & s)`.
    fn extend(&mut self, ch: &mut Channel, m: usize) -> Vec<[u8; WIDTH_BYTES]> {
        let row_bytes = m.div_ceil(8);
        // The receiver sends all w masked columns as ONE message (see
        // `KkrtReceiver::eval_batch`).
        let mut u_all = vec![0u8; WIDTH * row_bytes];
        ch.recv_into(&mut u_all);
        let mut q = BitMatrix::zero(WIDTH, m);
        let mut s_arr = *self.s.expose();
        par::with_pool_if(par::threads() > 1 && m >= OT_PAR_MIN, |pool| {
            let s_ref = &s_arr;
            pool.zip_chunks_mut(
                &mut self.prgs,
                q.as_bytes_mut(),
                row_bytes,
                COLS_PER_PART,
                |i, prg, row| {
                    prg.fill(row);
                    // Branchless s_i correlation, as in IKNP: mask u with
                    // all-ones/all-zeros derived from the secret bit.
                    let s_i = CtChoice::from_lsb(s_ref[i / 8] >> (i % 8)).mask_u8();
                    for (c, &ub) in row.iter_mut().zip(&u_all[i * row_bytes..]) {
                        *c ^= ub & s_i;
                    }
                },
            );
        });
        s_arr.zeroize();
        let rows = q.transpose();
        let mut q_rows = vec![[0u8; WIDTH_BYTES]; m];
        par::with_pool_if(par::threads() > 1 && m >= 2 * BLOCKS_PER_PART, |pool| {
            pool.chunks_mut(&mut q_rows, 1, BLOCKS_PER_PART, |off, chunk| {
                for (k, r) in chunk.iter_mut().enumerate() {
                    r.copy_from_slice(rows.row(off + k));
                }
            });
        });
        q_rows
    }
}

impl KkrtSenderKey {
    /// Number of instances in the batch.
    pub fn len(&self) -> usize {
        self.q_rows.len()
    }

    /// True if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.q_rows.is_empty()
    }

    /// Evaluate F(j, y) for arbitrary y. Already branchless: the code bits
    /// gate s bytewise through `&`, never through control flow.
    pub fn eval(&self, j: usize, y: &[u8]) -> u64 {
        let c = code(y);
        let s = self.s.expose();
        let mut row = self.q_rows[j];
        for k in 0..WIDTH_BYTES {
            row[k] ^= c[k] & s[k];
        }
        self.hasher.hash_row(self.base + j as u64, &row)
    }
}

impl KkrtReceiver {
    /// Bootstrap: run w base OTs as base-OT sender. `hasher` must match the
    /// sender's choice.
    pub fn setup<R: Rng>(ch: &mut Channel, rng: &mut R, hasher: TweakHasher) -> KkrtReceiver {
        // Seed pairs are zeroized on drop as each PRG consumes its seed.
        let pairs = crate::base::send(ch, WIDTH, rng);
        let prgs = pairs
            .iter()
            .map(|(k0, k1)| {
                (
                    Prg::from_secret(b"kkrt-col", k0),
                    Prg::from_secret(b"kkrt-col", k1),
                )
            })
            .collect();
        KkrtReceiver {
            prgs,
            hasher,
            ctr: 0,
            bank: None,
        }
    }

    /// Offline phase: bank `m` instances extended under fresh *random*
    /// codes (no input needed yet), for later derandomized consumption.
    /// The peer must run the matching [`KkrtSender::offline`] with the
    /// same `m`.
    pub fn offline<R: Rng>(&mut self, ch: &mut Channel, m: usize, rng: &mut R) -> KkrtRecvBank {
        let (codes, t_rows) = if m == 0 {
            (Vec::new(), Vec::new())
        } else {
            let mut codes = vec![[0u8; WIDTH_BYTES]; m];
            for c in codes.iter_mut() {
                rng.fill(&mut c[..]);
            }
            let t_rows = self.extend(ch, &codes);
            (codes, t_rows)
        };
        KkrtRecvBank {
            codes: Secret::new(codes),
            t_rows: Secret::new(t_rows),
            cursor: 0,
        }
    }

    /// Attach a bank produced by [`KkrtReceiver::offline`].
    pub fn attach_bank(&mut self, bank: KkrtRecvBank) {
        self.bank = Some(bank);
    }

    /// Detach the current bank, if any (remaining material zeroizes when
    /// the returned bank drops).
    pub fn detach_bank(&mut self) -> Option<KkrtRecvBank> {
        self.bank.take()
    }

    /// Instances still available in the attached bank (0 when none).
    pub fn bank_remaining(&self) -> usize {
        self.bank.as_ref().map_or(0, |b| b.remaining())
    }

    /// Run one batch on `inputs`, learning F(j, inputs[j]) per instance:
    /// derandomize banked instances when the bank covers the batch (see
    /// [`KkrtSendBank`]), else run a fresh extension. The decision mirrors
    /// the sender's — both sides see the same batch sizes and budgets.
    pub fn eval_batch(&mut self, ch: &mut Channel, inputs: &[&[u8]]) -> Vec<u64> {
        let m = inputs.len();
        let base = self.ctr;
        self.ctr += m as u64;
        if m == 0 {
            return Vec::new();
        }
        // Code matrix: row j = C(x_j); we need its columns. Two SHA-256
        // compressions per element makes this the receiver's second-hottest
        // loop, and each element is independent — map it over the pool.
        let codes: Vec<[u8; WIDTH_BYTES]> =
            par::with_pool_if(par::threads() > 1 && m >= 2 * CODES_PER_PART, |pool| {
                pool.map(inputs, CODES_PER_PART, |_, x| code(x))
            });
        if self.bank.as_ref().is_some_and(|b| b.remaining() >= m) {
            // Beaver-style code correction: send d_j = C(x_j) ⊕ c'_j —
            // uniform on the wire because c'_j is — and hash the banked
            // row preimages under this batch's instance tweaks.
            let (cprimes, mut t_rows) = self.bank.as_mut().expect("bank checked above").take(m);
            let mut d_all = vec![0u8; m * WIDTH_BYTES];
            for (j, (cj, cp)) in codes.iter().zip(&cprimes).enumerate() {
                for k in 0..WIDTH_BYTES {
                    d_all[j * WIDTH_BYTES + k] = cj[k] ^ cp[k];
                }
            }
            ch.send_bytes(&d_all);
            let out = self.hasher.hash_row_batch(base, &t_rows);
            let mut cprimes = cprimes;
            cprimes.zeroize();
            t_rows.zeroize();
            return out;
        }
        let mut t_rows = self.extend(ch, &codes);
        let out = self.hasher.hash_row_batch(base, &t_rows);
        t_rows.zeroize();
        out
    }

    /// One fresh OT extension under the given codes (one per instance):
    /// send the masked column bundle and return the row preimages `t_j`.
    fn extend(&mut self, ch: &mut Channel, codes: &[[u8; WIDTH_BYTES]]) -> Vec<[u8; WIDTH_BYTES]> {
        let m = codes.len();
        let row_bytes = m.div_ceil(8);
        // Per column: t0 = G(k0), u = G(k1) ⊕ t0 ⊕ c_i (column i of the
        // code matrix). As in IKNP, both streams for all w columns land in
        // one interleaved scratch so the expansion splits across the pool,
        // and the masked columns leave as ONE message (the sender's
        // `key_batch` reads the bundle with a single `recv_into`). The code
        // bits derive from the receiver's private inputs, so fold them in
        // without branching on them.
        let mut cols = vec![0u8; WIDTH * 2 * row_bytes];
        // Column i of the code matrix is needed per worker. Rather than
        // extracting it bit-by-bit inside every column's loop (w · m bit
        // ops), transpose the whole m×w code matrix ONCE through the SIMD
        // kernel and hand each worker its column as a ready byte slice.
        // The transpose runs before the pool dispatch below, so its own
        // internal parallelism never nests.
        let mut code_mat = BitMatrix::zero(m, WIDTH);
        for (j, cj) in codes.iter().enumerate() {
            code_mat.row_mut(j).copy_from_slice(cj);
        }
        let mut code_cols = code_mat.transpose(); // w rows of m bits
        zeroize_bytes(code_mat.as_bytes_mut());
        par::with_pool_if(par::threads() > 1 && m >= OT_PAR_MIN, |pool| {
            let code_cols_ref = &code_cols;
            pool.zip_chunks_mut(
                &mut self.prgs,
                &mut cols,
                2 * row_bytes,
                COLS_PER_PART,
                |i, (prg0, prg1), chunk| {
                    let (t0, u) = chunk.split_at_mut(row_bytes);
                    prg0.fill(t0);
                    prg1.fill(u);
                    for ((uk, &t0k), &ck) in u.iter_mut().zip(&*t0).zip(code_cols_ref.row(i)) {
                        *uk ^= t0k ^ ck;
                    }
                },
            );
        });
        // The code bits derive from the receiver's private inputs; scrub
        // the transposed copy once every column has folded it in.
        zeroize_bytes(code_cols.as_bytes_mut());
        let mut t = BitMatrix::zero(WIDTH, m);
        let mut u_all = vec![0u8; WIDTH * row_bytes];
        for i in 0..WIDTH {
            let chunk = &cols[i * 2 * row_bytes..(i + 1) * 2 * row_bytes];
            t.row_mut(i).copy_from_slice(&chunk[..row_bytes]);
            u_all[i * row_bytes..(i + 1) * row_bytes].copy_from_slice(&chunk[row_bytes..]);
        }
        // The t0 streams are the OPRF outputs' preimages; scrub the scratch.
        cols.zeroize();
        ch.send_bytes(&u_all);
        let rows = t.transpose();
        let mut t_rows = vec![[0u8; WIDTH_BYTES]; m];
        par::with_pool_if(par::threads() > 1 && m >= 2 * BLOCKS_PER_PART, |pool| {
            pool.chunks_mut(&mut t_rows, 1, BLOCKS_PER_PART, |off, chunk| {
                for (k, r) in chunk.iter_mut().enumerate() {
                    r.copy_from_slice(rows.row(off + k));
                }
            });
        });
        t_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::{run_protocol, ReadExt};

    fn run_batch_with(inputs: Vec<Vec<u8>>, hasher: TweakHasher) -> (KkrtSenderKey, Vec<u64>) {
        let (key, got, _) = run_protocol(
            move |ch| {
                let mut s = KkrtSender::setup(ch, &mut StdRng::seed_from_u64(1), hasher);
                let m = { ch.recv_u64() as usize };
                s.key_batch(ch, m)
            },
            move |ch| {
                let mut r = KkrtReceiver::setup(ch, &mut StdRng::seed_from_u64(2), hasher);
                ch.send_u64(inputs.len() as u64);
                let refs: Vec<&[u8]> = inputs.iter().map(|v| v.as_slice()).collect();
                r.eval_batch(ch, &refs)
            },
        );
        (key, got)
    }

    fn run_batch(inputs: Vec<Vec<u8>>) -> (KkrtSenderKey, Vec<u64>) {
        run_batch_with(inputs, TweakHasher::default())
    }

    #[test]
    fn receiver_output_matches_sender_eval() {
        for hasher in [TweakHasher::Sha256, TweakHasher::Aes] {
            let inputs: Vec<Vec<u8>> = (0..40u64).map(|i| i.to_le_bytes().to_vec()).collect();
            let (key, got) = run_batch_with(inputs.clone(), hasher);
            for (j, x) in inputs.iter().enumerate() {
                assert_eq!(got[j], key.eval(j, x), "{hasher:?} instance {j}");
            }
        }
    }

    #[test]
    fn other_points_look_different() {
        let inputs: Vec<Vec<u8>> = (0..10u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let (key, got) = run_batch(inputs);
        // Evaluating at a different point gives a different value.
        let other = 999u64.to_le_bytes().to_vec();
        for (j, g) in got.iter().enumerate() {
            assert_ne!(*g, key.eval(j, &other));
        }
        // Same input under different instance indices differs.
        assert_ne!(
            key.eval(0, &0u64.to_le_bytes()),
            key.eval(1, &0u64.to_le_bytes())
        );
    }

    #[test]
    fn multiple_batches_are_independent() {
        let (keys, gots, _) = run_protocol(
            |ch| {
                let mut s =
                    KkrtSender::setup(ch, &mut StdRng::seed_from_u64(3), TweakHasher::default());
                (s.key_batch(ch, 5), s.key_batch(ch, 5))
            },
            |ch| {
                let mut r =
                    KkrtReceiver::setup(ch, &mut StdRng::seed_from_u64(4), TweakHasher::default());
                let ins: Vec<Vec<u8>> = (0..5u64).map(|i| i.to_le_bytes().to_vec()).collect();
                let refs: Vec<&[u8]> = ins.iter().map(|v| v.as_slice()).collect();
                (r.eval_batch(ch, &refs), r.eval_batch(ch, &refs))
            },
        );
        for j in 0..5 {
            let x = (j as u64).to_le_bytes();
            assert_eq!(gots.0[j], keys.0.eval(j, &x));
            assert_eq!(gots.1[j], keys.1.eval(j, &x));
            assert_ne!(gots.0[j], gots.1[j], "batches must not collide");
        }
    }

    #[test]
    fn empty_batch() {
        let (key, got) = run_batch(vec![]);
        assert!(key.is_empty());
        assert!(got.is_empty());
    }

    #[test]
    fn banked_batches_match_sender_eval_and_fall_back_when_short() {
        // Bank 12 instances, then draw batches of 5, 5 and 5: the first
        // two derandomize from the bank, the third falls back to a fresh
        // inline extension (12 - 10 < 5), mirrored on both sides.
        let (keys, gots, _) = run_protocol(
            |ch| {
                let mut s =
                    KkrtSender::setup(ch, &mut StdRng::seed_from_u64(5), TweakHasher::default());
                let bank = s.offline(ch, 12);
                assert_eq!(bank.remaining(), 12);
                s.attach_bank(bank);
                let keys = (s.key_batch(ch, 5), s.key_batch(ch, 5), s.key_batch(ch, 5));
                assert_eq!(s.bank_remaining(), 2, "third batch must not drain the bank");
                keys
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(6);
                let mut r = KkrtReceiver::setup(ch, &mut rng, TweakHasher::default());
                let bank = r.offline(ch, 12, &mut rng);
                assert_eq!(bank.remaining(), 12);
                r.attach_bank(bank);
                let ins: Vec<Vec<u8>> = (0..5u64).map(|i| i.to_le_bytes().to_vec()).collect();
                let refs: Vec<&[u8]> = ins.iter().map(|v| v.as_slice()).collect();
                let gots = (
                    r.eval_batch(ch, &refs),
                    r.eval_batch(ch, &refs),
                    r.eval_batch(ch, &refs),
                );
                assert_eq!(r.bank_remaining(), 2);
                gots
            },
        );
        for j in 0..5 {
            let x = (j as u64).to_le_bytes();
            assert_eq!(gots.0[j], keys.0.eval(j, &x), "banked batch 1");
            assert_eq!(gots.1[j], keys.1.eval(j, &x), "banked batch 2");
            assert_eq!(gots.2[j], keys.2.eval(j, &x), "inline fallback batch");
            assert_ne!(
                gots.0[j], gots.1[j],
                "instance tweaks must separate batches"
            );
        }
    }

    #[test]
    fn shed_to_caps_the_bank() {
        let (_, _, _) = run_protocol(
            |ch| {
                let mut s =
                    KkrtSender::setup(ch, &mut StdRng::seed_from_u64(7), TweakHasher::default());
                let mut bank = s.offline(ch, 10);
                bank.shed_to(3);
                assert_eq!(bank.remaining(), 3);
                bank.shed_to(8);
                assert_eq!(bank.remaining(), 3, "shed never grows the bank");
            },
            |ch| {
                let mut rng = StdRng::seed_from_u64(8);
                let mut r = KkrtReceiver::setup(ch, &mut rng, TweakHasher::default());
                let mut bank = r.offline(ch, 10, &mut rng);
                bank.shed_to(3);
                assert_eq!(bank.remaining(), 3);
            },
        );
    }
}
