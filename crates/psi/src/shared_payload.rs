//! PSI with **secret-shared** payloads (paper §5.5).
//!
//! In the middle of a query plan the payloads (annotations) no longer
//! belong to either party — they exist only as additive shares. The paper's
//! construction, reproduced here exactly:
//!
//! 1. extend the N payload shares to N+B with zeros (locally);
//! 2. the sender draws a random permutation ξ₁ of [N+B]; one **shared OEP**
//!    re-randomizes and permutes the shares to z'_j = z_{ξ₁(j)};
//! 3. run the OPPRFs of circuit PSI, but the programmed payload of y_j is
//!    the *index* ξ₁⁻¹(j);
//! 4. a garbled circuit reveals, per bin b, k_b = ξ₁⁻¹(j) on a match and
//!    k_b = ξ₁⁻¹(N+b) otherwise — a uniformly random set of distinct
//!    indices either way, so the receiver learns nothing — plus shares of
//!    the indicator, which leaves through its output label (§5.2);
//! 5. the receiver uses ξ₂(b) = k_b in a second **shared OEP**, landing the
//!    parties on fresh shares of the matched payload (or of the zero
//!    padding).

use rand::seq::SliceRandom;
use rand::Rng;
use secyan_circuit::{bits_to_u64, u64_to_bits, Builder, Circuit, Word};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_gc::{
    evaluate_begin, evaluate_shared_finish, garble_shared, garble_shared_online, take_eval,
    take_garble, EvalMaterial, GarbleMaterial, SharedOutputSpec,
};
use secyan_oep::{
    shared_oep_other, shared_oep_perm_holder, shared_oep_perm_holder_begin,
    shared_oep_perm_holder_finish, OepPending,
};
use secyan_ot::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
use secyan_transport::Channel;
use std::collections::{HashMap, VecDeque};

use crate::circuit_psi::{negotiate_cuckoo, negotiate_simple, psi_params, PsiOutput};
use crate::hashing::CuckooTable;
use crate::opprf::{opprf_evaluate_finish, opprf_program_with_key};

/// Bits t = ⌈log₂(n + bins)⌉ of a k-index routing index (at least 1): the
/// indices range over the `n + bins` slots of the extended payload vector.
pub fn index_bits(n: usize, bins: usize) -> usize {
    let slots = n + bins;
    (usize::BITS - slots.saturating_sub(1).leading_zeros()).max(1) as usize
}

/// The k-index circuit over `bins` bins for a sender set of size `n`: per
/// bin the indicator o_b = s_b, which leaves as shares ([`k_spec`]), and the
/// t-bit routing index k_b = ind ? p_b ⊕ w_b : d_b in the clear toward the
/// evaluator (= PSI receiver), t = [`index_bits`]. Public so the offline
/// plan can pre-garble it from the public sizes.
pub fn k_circuit(bins: usize, n: usize) -> Circuit {
    let t = index_bits(n, bins);
    let mut b = Builder::new();
    // Garbler (= PSI sender): per bin s, w, d.
    let swd: Vec<(Word, Word, Word)> = (0..bins)
        .map(|_| (b.alice_word(64), b.alice_word(t), b.alice_word(t)))
        .collect();
    // Evaluator (= PSI receiver): per bin o, p.
    let op: Vec<(Word, Word)> = (0..bins).map(|_| (b.bob_word(64), b.bob_word(t))).collect();
    let mut ks = Vec::with_capacity(bins);
    for ((s, w, d), (o, p)) in swd.iter().zip(&op) {
        let ind = b.eq_words(o, s);
        b.output(ind);
        let unmasked = b.xor_words(p, w);
        ks.push(b.mux_words(ind, &unmasked, d));
    }
    for k in &ks {
        b.output_word(k);
    }
    b.finish()
}

/// The k-index circuit's conversions over an ℓ-bit ring: each bin's
/// indicator (outputs `0..bins`) once, with scalar 1; the indices stay
/// revealed.
fn k_spec(bins: usize, ell: usize) -> SharedOutputSpec {
    SharedOutputSpec::new(ell, (0..bins).collect())
}

/// Receiver-side in-flight state between [`shared_payload_psi_receiver_begin`]
/// and [`shared_payload_psi_receiver_finish`]: everything up to staging the
/// ξ₂-OEP's OT corrections has happened, and the cuckoo table is known.
pub struct SharedPayloadPending {
    cuckoo: CuckooTable,
    ind_shares: Vec<u64>,
    zprime_shares: Vec<u64>,
    oep: OepPending,
}

impl SharedPayloadPending {
    /// The receiver's cuckoo table — available before the PSI completes,
    /// so downstream per-bin routings can be staged early.
    pub fn cuckoo(&self) -> &CuckooTable {
        &self.cuckoo
    }
}

/// First half of the shared-payload PSI receiver: steps 1–4 in full (the
/// first shared OEP, binning, OPPRFs, the k circuit) and the send-only
/// part of step 5 — the ξ₂-OEP's OT corrections are staged but the masked
/// values are not yet received. The caller can stage further
/// dependency-free messages into the same outbound super-frame before
/// [`shared_payload_psi_receiver_finish`] blocks.
#[allow(clippy::too_many_arguments)]
pub fn shared_payload_psi_receiver_begin<R: Rng + ?Sized>(
    ch: &mut Channel,
    elements: &[u64],
    my_payload_shares: &[u64],
    ring: RingCtx,
    kkrt: &mut KkrtReceiver,
    ot_recv: &mut OtReceiver,
    ot_send: &mut OtSender,
    hasher: TweakHasher,
    rng: &mut R,
    gc_bank: &mut VecDeque<EvalMaterial>,
) -> SharedPayloadPending {
    let n = my_payload_shares.len();
    let params = psi_params(elements.len(), n);
    let bins = params.bins;
    // Step 1–2: extend shares with B zeros; shared OEP under the sender's ξ₁.
    let mut ext = my_payload_shares.to_vec();
    ext.resize(n + bins, 0);
    let zprime_shares = shared_oep_other(ch, &ext, n + bins, ring, ot_send, rng);
    // Step 3: binning + OPPRFs (corrections staged with the seed, see
    // `negotiate_cuckoo`).
    let (cuckoo, _queries, e1, e2) = negotiate_cuckoo(ch, elements, &params, kkrt);
    let o = opprf_evaluate_finish(ch, e1);
    let p = opprf_evaluate_finish(ch, e2);
    // Step 4: evaluate the k circuit.
    let circuit = k_circuit(bins, n);
    let t = index_bits(n, bins);
    let mut my_bits = Vec::with_capacity(bins * (64 + t));
    for b in 0..bins {
        my_bits.extend(u64_to_bits(o[b], 64));
        my_bits.extend(u64_to_bits(p[b], t));
    }
    let spec = k_spec(bins, ring.bits() as usize);
    let material = take_eval(gc_bank, &circuit);
    let gc = evaluate_begin(ch, &circuit, material, &my_bits, ot_recv);
    let (ind_shares, k_bits) =
        evaluate_shared_finish(ch, &circuit, gc, &spec, &my_bits, ot_recv, hasher);
    let ks: Vec<usize> = k_bits
        .chunks_exact(t)
        .map(|k| bits_to_u64(k) as usize)
        .collect();
    for &k in &ks {
        assert!(k < n + bins, "k index out of range: corrupted transcript");
    }
    // Step 5 (send half): stage the ξ₂-OEP corrections with ξ₂ = k.
    let oep = shared_oep_perm_holder_begin(ch, &ks, n + bins, ot_recv);
    SharedPayloadPending {
        cuckoo,
        ind_shares,
        zprime_shares,
        oep,
    }
}

/// Second half of the shared-payload PSI receiver: finish the ξ₂-OEP walk.
/// Receive-only.
pub fn shared_payload_psi_receiver_finish(
    ch: &mut Channel,
    pending: SharedPayloadPending,
    ring: RingCtx,
    ot_recv: &mut OtReceiver,
) -> PsiOutput {
    let SharedPayloadPending {
        cuckoo,
        ind_shares,
        zprime_shares,
        oep,
    } = pending;
    let payload_shares = shared_oep_perm_holder_finish(ch, oep, &zprime_shares, ring, ot_recv);
    PsiOutput {
        cuckoo: Some(cuckoo),
        ind_shares,
        payload_shares,
    }
}

/// Receiver side (the cuckoo/X holder; also holds shares of the sender's
/// payload vector). `my_payload_shares.len()` is the sender's public set
/// size. Returns per-bin shares of indicator and payload. `gc_bank` holds
/// pre-received tables in plan order (empty deque for single-phase runs).
/// Implemented as [`shared_payload_psi_receiver_begin`] +
/// [`shared_payload_psi_receiver_finish`].
#[allow(clippy::too_many_arguments)]
pub fn shared_payload_psi_receiver<R: Rng + ?Sized>(
    ch: &mut Channel,
    elements: &[u64],
    my_payload_shares: &[u64],
    ring: RingCtx,
    kkrt: &mut KkrtReceiver,
    ot_recv: &mut OtReceiver,
    ot_send: &mut OtSender,
    hasher: TweakHasher,
    rng: &mut R,
    gc_bank: &mut VecDeque<EvalMaterial>,
) -> PsiOutput {
    let pending = shared_payload_psi_receiver_begin(
        ch,
        elements,
        my_payload_shares,
        ring,
        kkrt,
        ot_recv,
        ot_send,
        hasher,
        rng,
        gc_bank,
    );
    shared_payload_psi_receiver_finish(ch, pending, ring, ot_recv)
}

/// Sender side (the Y holder; also holds shares of their own payload
/// vector, aligned by index with `elements`). `receiver_size` is public.
/// `gc_bank` mirrors the receiver's: pre-garbled material in plan order.
#[allow(clippy::too_many_arguments)]
pub fn shared_payload_psi_sender<R: Rng + ?Sized>(
    ch: &mut Channel,
    elements: &[u64],
    receiver_size: usize,
    my_payload_shares: &[u64],
    ring: RingCtx,
    kkrt: &mut KkrtSender,
    ot_send: &mut OtSender,
    ot_recv: &mut OtReceiver,
    hasher: TweakHasher,
    rng: &mut R,
    gc_bank: &mut VecDeque<GarbleMaterial>,
) -> PsiOutput {
    let n = elements.len();
    assert_eq!(my_payload_shares.len(), n);
    let index_of: HashMap<u64, usize> = elements.iter().enumerate().map(|(j, &e)| (e, j)).collect();
    assert_eq!(index_of.len(), n, "sender elements must be distinct");
    let params = psi_params(receiver_size, n);
    let bins = params.bins;
    // Steps 1–2: ξ₁ and the first shared OEP (this side holds ξ₁).
    let mut xi1: Vec<usize> = (0..n + bins).collect();
    xi1.shuffle(rng);
    let mut xi1_inv = vec![0usize; n + bins];
    for (j, &v) in xi1.iter().enumerate() {
        xi1_inv[v] = j;
    }
    let mut ext = my_payload_shares.to_vec();
    ext.resize(n + bins, 0);
    let zprime_shares = shared_oep_perm_holder(ch, &xi1, &ext, ring, ot_recv);
    // Step 3: binning + OPPRFs.
    let (simple, k1, k2) = negotiate_simple(ch, elements, &params, kkrt);
    let s: Vec<u64> = (0..bins).map(|_| rng.gen()).collect();
    let member_prog: Vec<Vec<(u64, u64)>> = simple
        .bins
        .iter()
        .enumerate()
        .map(|(b, ys)| ys.iter().map(|&y| (y, s[b])).collect())
        .collect();
    opprf_program_with_key(ch, k1, &member_prog, params.degree, rng);
    // A full 64-bit mask keeps the OPPRF output uniform on a match too;
    // the circuit uses its low t bits.
    let w: Vec<u64> = (0..bins).map(|_| rng.gen()).collect();
    let index_prog: Vec<Vec<(u64, u64)>> = simple
        .bins
        .iter()
        .enumerate()
        .map(|(b, ys)| {
            ys.iter()
                .map(|&y| (y, xi1_inv[index_of[&y]] as u64 ^ w[b]))
                .collect()
        })
        .collect();
    opprf_program_with_key(ch, k2, &index_prog, params.degree, rng);
    // Step 4: garble the k circuit; the indicator converts with scalar 1.
    let t = index_bits(n, bins);
    let circuit = k_circuit(bins, n);
    let spec = k_spec(bins, ring.bits() as usize);
    let mut my_bits = Vec::with_capacity(bins * (64 + 2 * t));
    for b in 0..bins {
        my_bits.extend(u64_to_bits(s[b], 64));
        my_bits.extend(u64_to_bits(w[b], t));
        my_bits.extend(u64_to_bits(xi1_inv[n + b] as u64, t));
    }
    let scalars = vec![1; bins];
    let ind_shares = match take_garble(gc_bank, &circuit) {
        Some(m) => garble_shared_online(ch, &circuit, m, &spec, &scalars, &my_bits, ot_send),
        None => garble_shared(
            ch, &circuit, &spec, &scalars, &my_bits, ot_send, hasher, rng,
        ),
    };
    // Step 5: second shared OEP (receiver holds ξ₂).
    let payload_shares = shared_oep_other(ch, &zprime_shares, bins, ring, ot_send, rng);
    PsiOutput {
        cuckoo: None,
        ind_shares,
        payload_shares,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_transport::run_protocol;

    fn run(x: Vec<u64>, y: Vec<u64>, payloads: Vec<u64>) -> (PsiOutput, PsiOutput, RingCtx) {
        // One hasher choice drives OT, OPRF, and garbling on both sides.
        let hasher = TweakHasher::default();
        let ring = RingCtx::new(32);
        let mut setup = StdRng::seed_from_u64(31);
        let (recv_sh, send_sh) = ring.share_vec(&payloads, &mut setup);
        let x_len = x.len();
        let (r, s, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(32);
                let mut kkrt = KkrtReceiver::setup(ch, &mut rng, hasher);
                let mut ot_r = OtReceiver::setup(ch, &mut rng, hasher);
                let mut ot_s = OtSender::setup(ch, &mut rng, hasher);
                shared_payload_psi_receiver(
                    ch,
                    &x,
                    &recv_sh,
                    ring,
                    &mut kkrt,
                    &mut ot_r,
                    &mut ot_s,
                    hasher,
                    &mut rng,
                    &mut VecDeque::new(),
                )
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(33);
                let mut kkrt = KkrtSender::setup(ch, &mut rng, hasher);
                // Setup order must complement the receiver's: their
                // OtReceiver pairs with our OtSender and vice versa.
                let mut ot_s = OtSender::setup(ch, &mut rng, hasher);
                let mut ot_r = OtReceiver::setup(ch, &mut rng, hasher);
                shared_payload_psi_sender(
                    ch,
                    &y,
                    x_len,
                    &send_sh,
                    ring,
                    &mut kkrt,
                    &mut ot_s,
                    &mut ot_r,
                    hasher,
                    &mut rng,
                    &mut VecDeque::new(),
                )
            },
        );
        (r, s, ring)
    }

    #[test]
    fn shared_payloads_land_in_matching_bins() {
        let x = vec![1u64, 2, 3, 4, 5, 6];
        let y = vec![2u64, 4, 9];
        let payloads = vec![222u64, 444, 999];
        let (r, s, ring) = run(x, y, payloads);
        let cuckoo = r.cuckoo.as_ref().unwrap();
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        for (b, slot) in cuckoo.bins.iter().enumerate() {
            match slot {
                Some(2) => {
                    assert_eq!(ind[b], 1);
                    assert_eq!(val[b], 222);
                }
                Some(4) => {
                    assert_eq!(ind[b], 1);
                    assert_eq!(val[b], 444);
                }
                _ => {
                    assert_eq!(ind[b], 0, "bin {b}");
                    assert_eq!(val[b], 0, "bin {b}");
                }
            }
        }
    }

    #[test]
    fn k_index_at_the_index_width_edge() {
        // 6 receiver elements → 8 bins; a sender set of 24 puts n + B at
        // 2^5 (t = 5), of 25 at 2^5 + 1 (t = 6).
        let x: Vec<u64> = (1..=6).collect();
        for (n, t) in [(24usize, 5usize), (25, 6)] {
            assert_eq!(psi_params(x.len(), n).bins, 8);
            assert_eq!(index_bits(n, 8), t);
            let y: Vec<u64> = (3..3 + n as u64).collect();
            let payloads: Vec<u64> = y.iter().map(|&e| 1000 + e).collect();
            let (r, s, ring) = run(x.clone(), y, payloads);
            let cuckoo = r.cuckoo.as_ref().unwrap();
            let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
            let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
            for (b, slot) in cuckoo.bins.iter().enumerate() {
                let hit = slot.filter(|&e| e >= 3);
                assert_eq!(ind[b], u64::from(hit.is_some()), "n={n} bin {b}");
                assert_eq!(val[b], hit.map_or(0, |e| 1000 + e), "n={n} bin {b}");
            }
        }
    }

    #[test]
    fn k_circuit_carries_the_top_index() {
        // The largest index, n + B − 1, must survive the t-bit mux both as
        // the matched index p ⊕ w (bin 0) and as the decoy d (bin 1).
        for (n, bins) in [(24usize, 8usize), (25, 8), (0, 1)] {
            let t = index_bits(n, bins);
            let top = (n + bins - 1) as u64;
            let c = k_circuit(bins, n);
            assert_eq!(c.and_count(), ((63 + t) * bins) as u64);
            let (w, d) = (0b1, top);
            let mut a_bits = Vec::new();
            let mut b_bits = Vec::new();
            for b in 0..bins {
                a_bits.extend(u64_to_bits(77, 64));
                a_bits.extend(u64_to_bits(w, t));
                a_bits.extend(u64_to_bits(d, t));
                b_bits.extend(u64_to_bits(if b == 0 { 77 } else { 78 }, 64));
                b_bits.extend(u64_to_bits(top ^ w, t));
            }
            let hasher = TweakHasher::default();
            let ring = RingCtx::new(64);
            let (ca, cb) = (c.clone(), c.clone());
            let (g, (e, k_bits), _) = run_protocol(
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(5);
                    let mut ot = OtSender::setup(ch, &mut rng, hasher);
                    let spec = k_spec(bins, 64);
                    let ones = vec![1; bins];
                    garble_shared(ch, &ca, &spec, &ones, &a_bits, &mut ot, hasher, &mut rng)
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(6);
                    let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
                    let pending = evaluate_begin(ch, &cb, None, &b_bits, &mut ot);
                    let spec = k_spec(bins, 64);
                    evaluate_shared_finish(ch, &cb, pending, &spec, &b_bits, &mut ot, hasher)
                },
            );
            let ks: Vec<u64> = k_bits.chunks_exact(t).map(bits_to_u64).collect();
            assert!(ks.iter().all(|&k| k == top), "n={n} bins={bins}: {ks:?}");
            let ind = ring.reconstruct_vec(&e, &g);
            assert_eq!(ind[0], 1);
            assert!(ind[1..].iter().all(|&i| i == 0));
        }
    }

    #[test]
    fn no_matches_all_zero() {
        let (r, s, ring) = run(vec![1, 2, 3], vec![7, 8], vec![70, 80]);
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        assert!(ind.iter().all(|&v| v == 0));
        assert!(val.iter().all(|&v| v == 0));
    }
}
