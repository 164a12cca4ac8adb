//! Circuit PSI with payloads (paper §5.3).
//!
//! Roles (independent of transport roles): the **receiver** holds the set X
//! being cuckoo-hashed and evaluates the garbled circuit; the **sender**
//! holds the set Y with one payload per element and garbles. For each bin b
//! of the receiver's cuckoo table, both parties obtain additive shares of
//!
//! * `Ind(x_b ∈ Y)` (as a 0/1 ring element), and
//! * the payload of the matching y (or 0 when there is no match),
//!
//! and nothing else — the intersection itself stays hidden, which is what
//! lets the paper chain PSI into semijoins (§6.2).
//!
//! Sender elements must be distinct: the Yannakakis reduce phase guarantees
//! this by aggregating before every semijoin.

use rand::Rng;
use secyan_circuit::{u64_to_bits, Circuit};
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_gc::{
    evaluate_shared_begin, evaluate_shared_finish, garble_shared, garble_shared_online, take_eval,
    take_garble, with_shared_outputs, EvalMaterial, EvalPending, GarbleMaterial, SharedOutputSpec,
};
use secyan_ot::{KkrtReceiver, KkrtSender, KkrtSenderKey, OtReceiver, OtSender};
use secyan_transport::{Channel, ReadExt, WriteExt};
use std::collections::{HashMap, VecDeque};

use crate::hashing::{bin_count, max_bin_size, CuckooTable, SimpleTable};
use crate::opprf::{
    opprf_evaluate_begin, opprf_evaluate_finish, opprf_program_with_key, OpprfEval, PsiItem,
};

/// Per-party result of a circuit PSI: one entry per cuckoo bin.
#[derive(Debug, Clone)]
pub struct PsiOutput {
    /// The receiver's cuckoo table (receiver side only) — needed to map
    /// bins back to elements downstream.
    pub cuckoo: Option<CuckooTable>,
    /// Shares of Ind(x_b ∈ Y) per bin.
    pub ind_shares: Vec<u64>,
    /// Shares of the matched payload (0 on no match) per bin.
    pub payload_shares: Vec<u64>,
}

/// The public parameters both parties derive identically. Public so the
/// offline plan (`secyan-core`'s query shapes) can reproduce the bin
/// and degree bounds from the public relation sizes alone.
pub struct PsiParams {
    pub bins: usize,
    pub degree: usize,
}

/// Derive the cuckoo/simple-hash parameters from the two public set sizes.
pub fn psi_params(receiver_size: usize, sender_size: usize) -> PsiParams {
    let bins = bin_count(receiver_size);
    PsiParams {
        bins,
        degree: max_bin_size(sender_size, bins),
    }
}

/// The per-bin matching circuit: shares of indicator and payload. Public
/// so the offline plan can pre-garble it — its dimensions depend only
/// on the public bin count and ring width.
pub fn matching_circuit(bins: usize, ell: usize) -> (Circuit, SharedOutputSpec) {
    let spec = SharedOutputSpec::uniform(2 * bins, ell);
    let circuit = with_shared_outputs(&spec, |b| {
        // Garbler (sender): s_b then w_b per bin; evaluator: o_b then p_b.
        let sw: Vec<_> = (0..bins)
            .map(|_| (b.alice_word(64), b.alice_word(64)))
            .collect();
        let op: Vec<_> = (0..bins)
            .map(|_| (b.bob_word(64), b.bob_word(64)))
            .collect();
        let mut words = Vec::with_capacity(2 * bins);
        for ((s, w), (o, p)) in sw.iter().zip(&op) {
            let ind = b.eq_words(o, s);
            let z64 = b.xor_words(p, w);
            let z = b.resize_word(&z64, ell);
            let val = b.and_word_bit(&z, ind);
            let mut ind_bits = vec![b.constant(false); ell];
            ind_bits[0] = ind;
            words.push(secyan_circuit::Word(ind_bits));
            words.push(val);
        }
        words
    });
    (circuit, spec)
}

/// Split the interleaved `[ind, val, ind, val, ...]` share list.
fn split_shares(shares: Vec<u64>) -> (Vec<u64>, Vec<u64>) {
    let mut ind = Vec::with_capacity(shares.len() / 2);
    let mut val = Vec::with_capacity(shares.len() / 2);
    for pair in shares.chunks_exact(2) {
        ind.push(pair[0]);
        val.push(pair[1]);
    }
    (ind, val)
}

/// Agree on a cuckoo/simple-hash seed whose bin loads respect the public
/// bound, *optimistically* overlapping the two KKRT batches with the
/// verdict: each attempt stages the seed **and** both OPPRF correction
/// batches before blocking on the sender's verdict, so an accepted first
/// attempt (the overwhelmingly common case) costs zero extra ping-pongs.
/// A rejected attempt discards the two in-flight evaluations — both
/// parties burn the same 2·bins banked KKRT instances, so bank budgets
/// stay mirrored; if the bank runs dry the batches transparently fall back
/// to fresh (still receiver-send-only) extensions. The retry count was
/// already public under the old send/verdict loop.
///
/// Receiver side; returns the table, its per-bin queries, and the two
/// pending OPPRF evaluations (membership first, payload second).
pub(crate) fn negotiate_cuckoo(
    ch: &mut Channel,
    elements: &[u64],
    params: &PsiParams,
    kkrt: &mut KkrtReceiver,
) -> (CuckooTable, Vec<PsiItem>, OpprfEval, OpprfEval) {
    let mut seed = 0u64;
    loop {
        let table = CuckooTable::build(elements, params.bins, seed);
        // taint-ok: adaptive retry — each seed attempt needs the peer's
        // verdict; the fast path already stages everything before blocking.
        ch.send_u64(table.seed);
        let queries: Vec<PsiItem> = table
            .bins
            .iter()
            .enumerate()
            .map(|(b, slot)| match slot {
                Some(e) => PsiItem::Real(*e),
                None => PsiItem::Dummy(b as u64),
            })
            .collect();
        let e1 = opprf_evaluate_begin(ch, kkrt, &queries, params.degree);
        let e2 = opprf_evaluate_begin(ch, kkrt, &queries, params.degree);
        if ch.recv_u64() == 1 {
            return (table, queries, e1, e2);
        }
        seed = table.seed.wrapping_add(1);
    }
}

/// Sender side of the optimistic negotiation; consumes the receiver's
/// in-flight correction batches (in FIFO order, after the verdict is
/// staged) whether or not the seed is accepted, keeping the KKRT streams
/// of both parties aligned. Returns the simple-hash table and the two
/// evaluation keys (membership first, payload second).
pub(crate) fn negotiate_simple(
    ch: &mut Channel,
    elements: &[u64],
    params: &PsiParams,
    kkrt: &mut KkrtSender,
) -> (SimpleTable, KkrtSenderKey, KkrtSenderKey) {
    loop {
        let seed = ch.recv_u64();
        let table = SimpleTable::build(elements, params.bins, seed);
        let ok = table.max_load() <= params.degree;
        // taint-ok: adaptive retry — the verdict answers the seed just
        // received; see negotiate_cuckoo for the round accounting.
        ch.send_u64(ok as u64);
        let k1 = kkrt.key_batch(ch, params.bins);
        let k2 = kkrt.key_batch(ch, params.bins);
        if ok {
            return (table, k1, k2);
        }
    }
}

/// Receiver-side in-flight PSI state between [`psi_receiver_begin`] and
/// [`psi_receiver_finish`]: everything up to (and including) staging the
/// matching circuit's OT corrections has happened; the cuckoo table is
/// already known, so a caller can derive downstream routings from it and
/// stage their corrections into the same outbound super-frame.
pub struct PsiReceiverPending {
    cuckoo: CuckooTable,
    circuit: Circuit,
    spec: SharedOutputSpec,
    my_bits: Vec<bool>,
    gc: EvalPending,
}

impl PsiReceiverPending {
    /// The receiver's cuckoo table — available before the PSI completes,
    /// so downstream per-bin routings can be staged early.
    pub fn cuckoo(&self) -> &CuckooTable {
        &self.cuckoo
    }
}

/// First half of the circuit-PSI receiver: negotiate the cuckoo seed,
/// finish the two OPPRF evaluations, and stage (send-only) the matching
/// circuit's OT corrections. Returns with the outbound super-frame still
/// open: everything this side must *send* for the PSI has been staged, so
/// the caller can stage further dependency-free messages (e.g. the OSN
/// corrections of a cuckoo-derived OEP) before [`psi_receiver_finish`]
/// blocks on the garbler's labels.
#[allow(clippy::too_many_arguments)]
pub fn psi_receiver_begin(
    ch: &mut Channel,
    elements: &[u64],
    sender_size: usize,
    ring: RingCtx,
    kkrt: &mut KkrtReceiver,
    ot: &mut OtReceiver,
    gc_bank: &mut VecDeque<EvalMaterial>,
) -> PsiReceiverPending {
    let params = psi_params(elements.len(), sender_size);
    let (cuckoo, _queries, e1, e2) = negotiate_cuckoo(ch, elements, &params, kkrt);
    let o = opprf_evaluate_finish(ch, e1);
    let p = opprf_evaluate_finish(ch, e2);
    // The matching circuit: this party evaluates.
    let (circuit, spec) = matching_circuit(params.bins, ring.bits() as usize);
    let mut my_bits = Vec::with_capacity(params.bins * 128);
    for b in 0..params.bins {
        my_bits.extend(u64_to_bits(o[b], 64));
        my_bits.extend(u64_to_bits(p[b], 64));
    }
    let material = take_eval(gc_bank, &circuit);
    let gc = evaluate_shared_begin(ch, &circuit, material, &my_bits, ot);
    PsiReceiverPending {
        cuckoo,
        circuit,
        spec,
        my_bits,
        gc,
    }
}

/// Second half of the circuit-PSI receiver: receive and evaluate the
/// matching circuit. Receive-only.
pub fn psi_receiver_finish(
    ch: &mut Channel,
    pending: PsiReceiverPending,
    ot: &mut OtReceiver,
    hasher: TweakHasher,
) -> PsiOutput {
    let PsiReceiverPending {
        cuckoo,
        circuit,
        spec,
        my_bits,
        gc,
    } = pending;
    let shares = evaluate_shared_finish(ch, &circuit, gc, &spec, &my_bits, ot, hasher);
    let (ind_shares, payload_shares) = split_shares(shares);
    PsiOutput {
        cuckoo: Some(cuckoo),
        ind_shares,
        payload_shares,
    }
}

/// Receiver (cuckoo) side of circuit PSI. `elements` must be distinct;
/// `sender_size` is the public size of the sender's set. `gc_bank` holds
/// pre-received garbled tables in plan order (pass an empty deque for a
/// single-phase run): when its front matches the matching circuit the
/// evaluation consumes it, else the tables travel inline. Implemented as
/// [`psi_receiver_begin`] + [`psi_receiver_finish`].
#[allow(clippy::too_many_arguments)]
pub fn psi_receiver(
    ch: &mut Channel,
    elements: &[u64],
    sender_size: usize,
    ring: RingCtx,
    kkrt: &mut KkrtReceiver,
    ot: &mut OtReceiver,
    hasher: TweakHasher,
    gc_bank: &mut VecDeque<EvalMaterial>,
) -> PsiOutput {
    let pending = psi_receiver_begin(ch, elements, sender_size, ring, kkrt, ot, gc_bank);
    psi_receiver_finish(ch, pending, ot, hasher)
}

/// Sender side of circuit PSI. `items` are distinct `(element, payload)`
/// pairs with payloads already reduced into `ring`; `receiver_size` is the
/// public size of the receiver's set. `gc_bank` mirrors the receiver's:
/// pre-garbled material in plan order, consumed when its front matches.
#[allow(clippy::too_many_arguments)]
pub fn psi_sender<R: Rng + ?Sized>(
    ch: &mut Channel,
    items: &[(u64, u64)],
    receiver_size: usize,
    ring: RingCtx,
    kkrt: &mut KkrtSender,
    ot: &mut OtSender,
    hasher: TweakHasher,
    rng: &mut R,
    gc_bank: &mut VecDeque<GarbleMaterial>,
) -> PsiOutput {
    let params = psi_params(receiver_size, items.len());
    let payload_of: HashMap<u64, u64> = items.iter().copied().collect();
    assert_eq!(
        payload_of.len(),
        items.len(),
        "sender elements must be distinct"
    );
    let elements: Vec<u64> = items.iter().map(|&(e, _)| e).collect();
    let (simple, k1, k2) = negotiate_simple(ch, &elements, &params, kkrt);
    // Membership OPPRF: every element of bin b targets the same random s_b.
    let s: Vec<u64> = (0..params.bins).map(|_| rng.gen()).collect();
    let member_prog: Vec<Vec<(u64, u64)>> = simple
        .bins
        .iter()
        .enumerate()
        .map(|(b, ys)| ys.iter().map(|&y| (y, s[b])).collect())
        .collect();
    opprf_program_with_key(ch, k1, &member_prog, params.degree, rng);
    // Payload OPPRF: element y targets payload(y) ⊕ w_b.
    let w: Vec<u64> = (0..params.bins).map(|_| rng.gen()).collect();
    let payload_prog: Vec<Vec<(u64, u64)>> = simple
        .bins
        .iter()
        .enumerate()
        .map(|(b, ys)| ys.iter().map(|&y| (y, payload_of[&y] ^ w[b])).collect())
        .collect();
    opprf_program_with_key(ch, k2, &payload_prog, params.degree, rng);
    // The matching circuit: this party garbles.
    let (circuit, spec) = matching_circuit(params.bins, ring.bits() as usize);
    let mut my_bits = Vec::with_capacity(params.bins * 128);
    for b in 0..params.bins {
        my_bits.extend(u64_to_bits(s[b], 64));
        my_bits.extend(u64_to_bits(w[b], 64));
    }
    let shares = match take_garble(gc_bank, &circuit) {
        Some(m) => garble_shared_online(ch, &circuit, m, &spec, &my_bits, ot, rng),
        None => garble_shared(ch, &circuit, &spec, &my_bits, ot, hasher, rng),
    };
    let (ind_shares, payload_shares) = split_shares(shares);
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

    fn run_psi(x: Vec<u64>, y: Vec<(u64, u64)>) -> (PsiOutput, PsiOutput, RingCtx) {
        // One hasher choice drives OT, OPRF, and garbling on both sides.
        let hasher = TweakHasher::default();
        let ring = RingCtx::new(32);
        let x_len = x.len();
        let y_len = y.len();
        let (r, s, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(21);
                let mut kkrt = KkrtReceiver::setup(ch, &mut rng, hasher);
                let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
                psi_receiver(
                    ch,
                    &x,
                    y_len,
                    ring,
                    &mut kkrt,
                    &mut ot,
                    hasher,
                    &mut VecDeque::new(),
                )
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(22);
                let mut kkrt = KkrtSender::setup(ch, &mut rng, hasher);
                let mut ot = OtSender::setup(ch, &mut rng, hasher);
                psi_sender(
                    ch,
                    &y,
                    x_len,
                    ring,
                    &mut kkrt,
                    &mut ot,
                    hasher,
                    &mut rng,
                    &mut VecDeque::new(),
                )
            },
        );
        (r, s, ring)
    }

    #[test]
    fn intersection_and_payloads_reconstruct() {
        let x = vec![1u64, 2, 3, 4, 5];
        let y = vec![(2u64, 200u64), (4, 400), (6, 600)];
        let (r, s, ring) = run_psi(x, y);
        let cuckoo = r.cuckoo.as_ref().unwrap();
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        for (b, slot) in cuckoo.bins.iter().enumerate() {
            match slot {
                Some(e) if [2, 4].contains(e) => {
                    assert_eq!(ind[b], 1, "element {e}");
                    assert_eq!(val[b], e * 100);
                }
                _ => {
                    assert_eq!(ind[b], 0, "bin {b} slot {slot:?}");
                    assert_eq!(val[b], 0);
                }
            }
        }
    }

    #[test]
    fn disjoint_sets_yield_all_zero() {
        let (r, s, ring) = run_psi(vec![1, 2, 3], vec![(7, 70), (8, 80)]);
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        assert!(ind.iter().all(|&v| v == 0));
        assert!(val.iter().all(|&v| v == 0));
    }

    #[test]
    fn full_overlap() {
        let x = vec![10u64, 11, 12];
        let y: Vec<(u64, u64)> = x.iter().map(|&e| (e, e + 1000)).collect();
        let (r, s, ring) = run_psi(x.clone(), y);
        let cuckoo = r.cuckoo.as_ref().unwrap();
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
        let matched: usize = ind.iter().map(|&v| v as usize).sum();
        assert_eq!(matched, 3);
        for (b, slot) in cuckoo.bins.iter().enumerate() {
            if let Some(e) = slot {
                assert_eq!(val[b], e + 1000);
            }
        }
    }

    #[test]
    fn shares_alone_look_uninformative() {
        // Neither share vector should equal the cleartext indicators.
        let (r, s, ring) = run_psi(vec![1, 2], vec![(1, 10), (2, 20)]);
        let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
        assert_ne!(r.ind_shares, ind);
        assert_ne!(s.ind_shares, ind);
    }
}
