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
//! Only the equality test is garbled. The payload OPPRF hands the receiver
//! p_b = payload − w_b on a match, for a uniform 64-bit sender mask w_b, so
//! its output is uniform whether or not the bin matches; the shares use
//! residues mod 2^ℓ. The matching circuit's one output per bin, the
//! indicator, leaves through its output label twice: with scalar 1 as
//! [ind] = (e₁, g₁), and with scalar w_b as [ind·w_b] = (e₂, g₂). Then
//! ind·payload = ind·p_b + ind·w_b, where ind·p_b = e₁·p_b + g₁·p_b and the
//! cross term g₁·p_b costs ℓ Gilboa correlated OTs (the receiver chooses
//! with the bits of p_b).
//!
//! Sender elements must be distinct: the Yannakakis reduce phase guarantees
//! this by aggregating before every semijoin.

use rand::Rng;
use secyan_circuit::{u64_to_bits, Builder, Circuit};
use secyan_crypto::{Block, RingCtx, TweakHasher};
use secyan_gc::{
    evaluate_begin, evaluate_shared_finish, garble_shared, garble_shared_online, take_eval,
    take_garble, EvalMaterial, EvalPending, GarbleMaterial, SharedOutputSpec,
};
use secyan_ot::{
    gilboa_bits, gilboa_shifts, KkrtReceiver, KkrtSender, KkrtSenderKey, OtReceiver, OtSender,
};
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

/// The per-bin matching circuit: the equality test o_b = s_b, whose output
/// is the bin's indicator. Garbler (sender): s_b per bin; evaluator: o_b
/// per bin — 63 ANDs and 64 + 64 inputs per bin. Public so the offline plan
/// can pre-garble it: it depends only on the public bin count.
pub fn matching_circuit(bins: usize) -> Circuit {
    let mut b = Builder::new();
    let s: Vec<_> = (0..bins).map(|_| b.alice_word(64)).collect();
    let o: Vec<_> = (0..bins).map(|_| b.bob_word(64)).collect();
    for (s, o) in s.iter().zip(&o) {
        let ind = b.eq_words(o, s);
        b.output(ind);
    }
    b.finish()
}

/// Correlated OTs one matching circuit-PSI over `bins` bins draws, the PSI
/// sender sending: ℓ per bin for the payload cross term g₁·p_b.
pub fn matching_ots(bins: usize, ell: usize) -> usize {
    bins * ell
}

/// The matching circuit's conversions over an ℓ-bit ring: each bin's
/// indicator twice, with scalar 1 and then with the payload mask w_b.
fn matching_spec(bins: usize, ell: usize) -> SharedOutputSpec {
    SharedOutputSpec::new(ell, (0..bins).flat_map(|b| [b, b]).collect())
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
    ring: RingCtx,
    my_bits: Vec<bool>,
    gc: EvalPending,
    /// The payload OPPRF's output p_b per bin; its residue mod 2^ℓ is the
    /// receiver's Gilboa factor.
    payload: Vec<u64>,
    /// The bits of `payload`, ℓ per bin, and their staged OT pads.
    payload_bits: Vec<bool>,
    pads: Vec<Block>,
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
    let circuit = matching_circuit(params.bins);
    let my_bits: Vec<bool> = o.iter().flat_map(|&ob| u64_to_bits(ob, 64)).collect();
    let material = take_eval(gc_bank, &circuit);
    let gc = evaluate_begin(ch, &circuit, material, &my_bits, ot);
    // The payload cross term: Gilboa OT choosing with the bits of p_b,
    // staged beside the circuit's input-label corrections.
    let ell = ring.bits() as usize;
    let payload_bits: Vec<bool> = p.iter().flat_map(|&pb| gilboa_bits(pb, ell)).collect();
    let pads = ot.begin_recv(ch, &payload_bits);
    PsiReceiverPending {
        cuckoo,
        circuit,
        ring,
        my_bits,
        gc,
        payload: p,
        payload_bits,
        pads,
    }
}

/// Second half of the circuit-PSI receiver: receive and evaluate the
/// matching circuit, then the cross term's OT words. Receive-only. Payload
/// share per bin: e₁·p_b + e₂ + the words received.
pub fn psi_receiver_finish(
    ch: &mut Channel,
    pending: PsiReceiverPending,
    ot: &mut OtReceiver,
    hasher: TweakHasher,
) -> PsiOutput {
    let PsiReceiverPending {
        cuckoo,
        circuit,
        ring,
        my_bits,
        gc,
        payload,
        payload_bits,
        pads,
    } = pending;
    let ell = ring.bits() as usize;
    let spec = matching_spec(payload.len(), ell);
    let (shares, _) = evaluate_shared_finish(ch, &circuit, gc, &spec, &my_bits, ot, hasher);
    let cross = ot.finish_recv_correlated(ch, &pads, &payload_bits, ell);
    let mut ind_shares = Vec::with_capacity(payload.len());
    let mut payload_shares = Vec::with_capacity(payload.len());
    for ((e, &pb), words) in shares
        .chunks_exact(2)
        .zip(&payload)
        .zip(cross.chunks_exact(ell))
    {
        ind_shares.push(e[0]);
        let local = ring.add(ring.mul(e[0], pb), e[1]);
        payload_shares.push(words.iter().fold(local, |a, &x| ring.add(a, x)));
    }
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
    // Payload OPPRF: element y targets payload(y) − w_b. The mask is a
    // full 64-bit word, so the OPPRF output is uniform on a match as well
    // as off one; only its residue mod 2^ℓ enters the share arithmetic.
    let w: Vec<u64> = (0..params.bins).map(|_| rng.gen()).collect();
    let payload_prog: Vec<Vec<(u64, u64)>> = simple
        .bins
        .iter()
        .enumerate()
        .map(|(b, ys)| {
            ys.iter()
                .map(|&y| (y, payload_of[&y].wrapping_sub(w[b])))
                .collect()
        })
        .collect();
    opprf_program_with_key(ch, k2, &payload_prog, params.degree, rng);
    // The matching circuit: this party garbles. The indicator converts with
    // scalars 1 and w_b per bin.
    let ell = ring.bits() as usize;
    let circuit = matching_circuit(params.bins);
    let spec = matching_spec(params.bins, ell);
    let my_bits: Vec<bool> = s.iter().flat_map(|&sb| u64_to_bits(sb, 64)).collect();
    let scalars: Vec<u64> = w.iter().flat_map(|&wb| [1, ring.reduce(wb)]).collect();
    let kept = match take_garble(gc_bank, &circuit) {
        Some(m) => garble_shared_online(ch, &circuit, m, &spec, &scalars, &my_bits, ot),
        None => garble_shared(ch, &circuit, &spec, &scalars, &my_bits, ot, hasher, rng),
    };
    // The cross term g₁·p_b: correlations 2^k·g₁ against the bits of p_b.
    let deltas: Vec<u64> = kept
        .chunks_exact(2)
        .flat_map(|g| gilboa_shifts(g[0], ell))
        .collect();
    let ours = ot.send_correlated(ch, &deltas, ell);
    let ind_shares = kept.chunks_exact(2).map(|g| g[0]).collect();
    let payload_shares = kept
        .chunks_exact(2)
        .zip(ours.chunks_exact(ell))
        .map(|(g, words)| ring.sub(g[1], words.iter().fold(0, |a, &x| ring.add(a, x))))
        .collect();
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
        run_psi_in(RingCtx::new(32), x, y)
    }

    fn run_psi_in(
        ring: RingCtx,
        x: Vec<u64>,
        y: Vec<(u64, u64)>,
    ) -> (PsiOutput, PsiOutput, RingCtx) {
        // One hasher choice drives OT, OPRF, and garbling on both sides.
        let hasher = TweakHasher::default();
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
    fn payloads_wrap_at_the_top_bit() {
        // payload − w_b and the cross term wrap mod 2^ℓ: payloads at and
        // above 2^(ℓ−1), up to 2^ℓ − 1.
        for ell in [1u32, 64] {
            let ring = RingCtx::new(ell);
            let top = 1u64 << (ell - 1);
            let payloads = [ring.reduce(u64::MAX), top, ring.reduce(top | 7)];
            let y: Vec<(u64, u64)> = [2u64, 4, 6].into_iter().zip(payloads).collect();
            let (r, s, ring) = run_psi_in(ring, vec![1, 2, 3, 4, 5, 6], y.clone());
            let cuckoo = r.cuckoo.as_ref().unwrap();
            let ind = ring.reconstruct_vec(&r.ind_shares, &s.ind_shares);
            let val = ring.reconstruct_vec(&r.payload_shares, &s.payload_shares);
            for (b, slot) in cuckoo.bins.iter().enumerate() {
                let hit = y.iter().find(|&&(e, _)| Some(e) == *slot);
                assert_eq!(ind[b], u64::from(hit.is_some()), "ℓ={ell} bin {b}");
                assert_eq!(val[b], hit.map_or(0, |&(_, v)| v), "ℓ={ell} bin {b}");
            }
        }
    }

    #[test]
    fn payload_opprf_output_is_full_width() {
        // The receiver's payload OPPRF output must look uniform in matched
        // bins too: a mask reduced mod 2^ℓ would leave its high bits zero
        // exactly where the bin matches.
        let hasher = TweakHasher::default();
        let ring = RingCtx::new(32);
        let x: Vec<u64> = (1..=8).collect();
        let y: Vec<(u64, u64)> = x.iter().map(|&e| (e, e)).collect();
        let (high, _, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(21);
                let mut kkrt = KkrtReceiver::setup(ch, &mut rng, hasher);
                let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
                let mut bank = VecDeque::new();
                let pending = psi_receiver_begin(ch, &x, 8, ring, &mut kkrt, &mut ot, &mut bank);
                let high = pending.payload.iter().filter(|&&p| p >> 32 != 0).count();
                psi_receiver_finish(ch, pending, &mut ot, hasher);
                high
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(22);
                let mut kkrt = KkrtSender::setup(ch, &mut rng, hasher);
                let mut ot = OtSender::setup(ch, &mut rng, hasher);
                let mut bank = VecDeque::new();
                psi_sender(
                    ch, &y, 8, ring, &mut kkrt, &mut ot, hasher, &mut rng, &mut bank,
                );
            },
        );
        // All 11 bins (8 matched), each high half zero with prob. 2^-32.
        assert_eq!(high, bin_count(8));
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
