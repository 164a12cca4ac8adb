//! Oblivious semijoin and reduce-join (paper §6.2).
//!
//! The reduce-join `R ← R_F ⋈⊗ R_G` (with `R_G`'s attributes contained in
//! `R_F`'s, as in the reduce phase) keeps exactly `R_F`'s tuples and
//! replaces each annotation by `v_F(t) ⊗ v_G(t')` for the unique joining
//! `t' ∈ R_G` — or by 0 if none exists. The annotated semijoin
//! `R_F ⋉⊗ R_G` is the same thing applied to the support projection
//! π¹(R_G).
//!
//! Two variants, exactly as in the paper:
//! * **cross-party** — `R_F` and `R_G` owned by different parties: PSI
//!   (with plain payloads while `R_G`'s annotations are still owner-known,
//!   §6.5; with secret-shared payloads otherwise, §5.5) aligns `R_G`'s
//!   annotations with `R_F`'s cuckoo bins, then an OEP and a product
//!   finish the job;
//! * **same-party** — no PSI needed: the owner matches tuples locally and
//!   a single OEP + product does the rest.
//!
//! The product multiplies additive shares over Z_{2^ℓ} without a circuit:
//! Gilboa multiplication spends ℓ correlated OTs per cross term
//! ([`product_owner`] / [`product_other`]), drawn from the session's OT
//! banks when the offline phase provisioned them.

use crate::agg::{oblivious_project_agg, AggKind};
use crate::session::Session;
use crate::shape::{Dims, GcSpec};
use crate::srel::{dummy_key, SecureRelation};
use secyan_crypto::RingCtx;
use secyan_oep::{
    shared_oep_other, shared_oep_perm_holder, shared_oep_perm_holder_begin,
    shared_oep_perm_holder_finish,
};
use secyan_ot::{gilboa_bits, gilboa_shifts, OtReceiver, OtSender};
use secyan_psi::{
    psi_params, psi_receiver_begin, psi_receiver_finish, psi_sender,
    shared_payload_psi_receiver_begin, shared_payload_psi_receiver_finish,
    shared_payload_psi_sender, CuckooTable,
};
use secyan_transport::Channel;
use std::collections::HashMap;

/// Correlated OTs one reduce-join product over `n` rows draws: ℓ per
/// cross term per row — one term (v times the peer's z-share) while v is
/// plain at the `R_F` owner (§6.5), two (plus the peer's v-share times the
/// owner's z-share) once it is shared.
pub(crate) fn product_ots(n: usize, ell: usize, v_plain: bool) -> usize {
    n * ell * if v_plain { 1 } else { 2 }
}

/// The `R_F` owner's side of the reduce-join product `[v ⊗ z]` (Gilboa
/// multiplication over correlated OT; the owner is the OT sender). `v`
/// holds the owner's plain annotations when `v_plain` (§6.5), else its
/// v-shares; `z` holds its z-shares. Bit k of the peer's z-share selects
/// 2^k·v, and once v is shared bit k of the peer's v-share selects 2^k
/// times the owner's z-share. The owner subtracts its sender words and adds
/// its local term (its v times its z-share). Returns the owner's shares of
/// the products. Receive, then send: the peer's OT corrections arrive
/// first and one ⌈ℓ/8⌉-byte word per OT answers them.
pub fn product_owner(
    ch: &mut Channel,
    ring: RingCtx,
    ot: &mut OtSender,
    v: &[u64],
    z: &[u64],
    v_plain: bool,
) -> Vec<u64> {
    assert_eq!(v.len(), z.len(), "one v per z");
    let ell = ring.bits() as usize;
    let mut deltas = Vec::with_capacity(product_ots(z.len(), ell, v_plain));
    for (&vi, &zi) in v.iter().zip(z) {
        deltas.extend(gilboa_shifts(vi, ell));
        if !v_plain {
            deltas.extend(gilboa_shifts(zi, ell));
        }
    }
    let ours = ot.send_correlated(ch, &deltas, ell);
    let per_row = product_ots(1, ell, v_plain);
    v.iter()
        .zip(z)
        .zip(ours.chunks_exact(per_row))
        .map(|((&vi, &zi), s)| ring.sub(ring.mul(vi, zi), s.iter().fold(0, |a, &x| ring.add(a, x))))
        .collect()
}

/// The other party's side of [`product_owner`] (the OT receiver). `v`
/// holds its v-shares, or is `None` while v is plain at the owner; `z`
/// holds its z-shares. Its choice bits are the bits of its z-share, then of
/// its v-share; it sums the words it receives and adds its local term (its
/// v-share times its z-share). Returns this party's shares of the products.
pub fn product_other(
    ch: &mut Channel,
    ring: RingCtx,
    ot: &mut OtReceiver,
    v: Option<&[u64]>,
    z: &[u64],
) -> Vec<u64> {
    let ell = ring.bits() as usize;
    let v_plain = v.is_none();
    let v = v.unwrap_or(&[]);
    assert!(v_plain || v.len() == z.len(), "one v per z");
    let mut choices = Vec::with_capacity(product_ots(z.len(), ell, v_plain));
    for (i, &zi) in z.iter().enumerate() {
        choices.extend(gilboa_bits(zi, ell));
        if !v_plain {
            choices.extend(gilboa_bits(v[i], ell));
        }
    }
    let pads = ot.begin_recv(ch, &choices);
    let theirs = ot.finish_recv_correlated(ch, &pads, &choices, ell);
    let per_row = product_ots(1, ell, v_plain);
    z.iter()
        .enumerate()
        .zip(theirs.chunks_exact(per_row))
        .map(|((i, &zi), r)| {
            let local = if v_plain { 0 } else { ring.mul(v[i], zi) };
            r.iter().fold(local, |a, &x| ring.add(a, x))
        })
        .collect()
}

/// The public choices of a reduce-join `R_F ⋈⊗ R_G`, which the operator
/// and [`crate::shape::Plan`] both branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinRoute {
    /// Cross-party only: the circuit-PSI, garbled by the `R_G` owner — the
    /// matching circuit on plain payloads (§6.5), else k-index (§5.5).
    pub psi: Option<GcSpec>,
    /// The product takes v in the clear at the `R_F` owner while `R_F`'s
    /// annotations are owner-known (§6.5): one cross term, not two.
    pub v_plain: bool,
}

impl JoinRoute {
    pub(crate) fn of(rf: Dims, rg: Dims) -> JoinRoute {
        let bins = psi_params(rf.size, rg.size).bins;
        JoinRoute {
            psi: (rf.owner != rg.owner).then_some(if rg.is_plain {
                GcSpec::Matching { bins }
            } else {
                GcSpec::KIndex { bins, n: rg.size }
            }),
            v_plain: rf.is_plain,
        }
    }
}

/// The attributes of `f` that `g` shares, in `f`'s order.
pub(crate) fn shared_attrs(f: &[String], g: &[String]) -> Vec<String> {
    f.iter().filter(|a| g.contains(a)).cloned().collect()
}

/// Map each R_F row to the cuckoo bin holding its join key (bin 0 for
/// dummy rows — their annotation is 0, so the product kills the payload).
fn route_rows(cuckoo: &CuckooTable, key_of_row: &[Option<u64>]) -> Vec<usize> {
    let mut bin_of_key: HashMap<u64, usize> = HashMap::new();
    for (b, slot) in cuckoo.bins.iter().enumerate() {
        if let Some(e) = slot {
            bin_of_key.insert(*e, b);
        }
    }
    key_of_row
        .iter()
        .map(|k| match k {
            Some(k) => *bin_of_key.get(k).expect("key was cuckoo-placed"),
            None => 0,
        })
        .collect()
}

/// Oblivious reduce-join `R_F ⋈⊗ R_G` (see module docs). The real tuples
/// of `R_G` must be distinct on the shared attributes — guaranteed when
/// `R_G` is a projection-aggregation output, which is the only way the
/// Yannakakis driver calls this.
pub fn oblivious_reduce_join(
    sess: &mut Session,
    rf: &mut SecureRelation,
    rg: &mut SecureRelation,
) -> SecureRelation {
    let join_attrs = shared_attrs(&rf.schema, &rg.schema);
    let n = rf.size;
    let i_own_f = rf.is_mine(sess);
    let route = JoinRoute::of(rf.dims(), rg.dims());
    let banked = sess.banked_circuits();

    // Obtain my z-shares aligned with R_F's rows.
    let my_z: Vec<u64> = if route.psi.is_none() {
        rg.ensure_shared(sess);
        // Owner matches locally; one extra dummy slot catches non-matches.
        let mut g_shares = rg.annot_shares.clone();
        g_shares.push(0);
        if i_own_f {
            let pos_g = rg.positions(&join_attrs);
            let g_dummy = rg.dummy.as_ref().expect("owner side");
            let mut index: HashMap<u64, usize> = HashMap::new();
            let nonce = sess.random_u64();
            for (j, dummy) in g_dummy.iter().enumerate().take(rg.size) {
                if !dummy {
                    let k = rg.join_key(j, &pos_g, nonce);
                    assert!(
                        index.insert(k, j).is_none(),
                        "reduce-join requires distinct join keys in R_G"
                    );
                }
            }
            let pos_f = rf.positions(&join_attrs);
            let f_dummy = rf.dummy.as_ref().expect("owner side");
            let xi: Vec<usize> = (0..n)
                .map(|i| {
                    if f_dummy[i] {
                        rg.size // dummy slot
                    } else {
                        let k = rf.join_key(i, &pos_f, nonce);
                        index.get(&k).copied().unwrap_or(rg.size)
                    }
                })
                .collect();
            shared_oep_perm_holder(sess.ch, &xi, &g_shares, sess.ring, &mut sess.ot_recv)
        } else {
            shared_oep_other(
                sess.ch,
                &g_shares,
                n,
                sess.ring,
                &mut sess.ot_send,
                &mut sess.rng,
            )
        }
    } else {
        // Cross-party: PSI aligns R_G's annotations to R_F's cuckoo bins.
        let nonce = sess.random_u64();
        if i_own_f {
            // Build X: distinct join keys of real R_F rows, padded to n.
            let pos_f = rf.positions(&join_attrs);
            let f_dummy = rf.dummy.as_ref().expect("owner side");
            let mut seen: HashMap<u64, ()> = HashMap::new();
            let mut x: Vec<u64> = Vec::with_capacity(n);
            let mut key_of_row: Vec<Option<u64>> = vec![None; n];
            for i in 0..n {
                if f_dummy[i] {
                    continue;
                }
                let k = rf.join_key(i, &pos_f, nonce);
                key_of_row[i] = Some(k);
                if seen.insert(k, ()).is_none() {
                    x.push(k);
                }
            }
            let mut pad = 0u64;
            while x.len() < n {
                x.push(dummy_key(nonce ^ 0x5eed, pad));
                pad += 1;
            }
            // Begin the PSI: once the cuckoo table is fixed (before the
            // PSI completes), ξ is derivable, so the ξ-OEP's OT
            // corrections ride the same outbound super-frame as the PSI's.
            // The sender consumes them in this order: PSI first, outer
            // OEP last — matching the staging order here.
            if matches!(route.psi, Some(GcSpec::Matching { .. })) {
                let psi = psi_receiver_begin(
                    sess.ch,
                    &x,
                    rg.size,
                    sess.ring,
                    &mut sess.kkrt_recv,
                    &mut sess.ot_recv,
                    &mut sess.gc_eval,
                );
                let bins = psi.cuckoo().bins.len();
                let xi = route_rows(psi.cuckoo(), &key_of_row);
                let oep = shared_oep_perm_holder_begin(sess.ch, &xi, bins, &mut sess.ot_recv);
                let psi = psi_receiver_finish(sess.ch, psi, &mut sess.ot_recv, sess.hasher);
                shared_oep_perm_holder_finish(
                    sess.ch,
                    oep,
                    &psi.payload_shares,
                    sess.ring,
                    &mut sess.ot_recv,
                )
            } else {
                let psi = shared_payload_psi_receiver_begin(
                    sess.ch,
                    &x,
                    &rg.annot_shares,
                    sess.ring,
                    &mut sess.kkrt_recv,
                    &mut sess.ot_recv,
                    &mut sess.ot_send,
                    sess.hasher,
                    &mut sess.rng,
                    &mut sess.gc_eval,
                );
                let bins = psi.cuckoo().bins.len();
                let xi = route_rows(psi.cuckoo(), &key_of_row);
                let oep = shared_oep_perm_holder_begin(sess.ch, &xi, bins, &mut sess.ot_recv);
                let psi =
                    shared_payload_psi_receiver_finish(sess.ch, psi, sess.ring, &mut sess.ot_recv);
                shared_oep_perm_holder_finish(
                    sess.ch,
                    oep,
                    &psi.payload_shares,
                    sess.ring,
                    &mut sess.ot_recv,
                )
            }
        } else {
            // R_G owner: PSI sender.
            debug_assert!(rg.is_mine(sess));
            let pos_g = rg.positions(&join_attrs);
            let g_dummy = rg.dummy.as_ref().expect("owner side");
            let keys: Vec<u64> = (0..rg.size)
                .map(|j| {
                    if g_dummy[j] {
                        dummy_key(nonce ^ 0x60, j as u64)
                    } else {
                        rg.join_key(j, &pos_g, nonce)
                    }
                })
                .collect();
            let psi = if matches!(route.psi, Some(GcSpec::Matching { .. })) {
                let plain = rg.plain_annots.as_ref().expect("plain annots");
                let items: Vec<(u64, u64)> =
                    keys.iter().copied().zip(plain.iter().copied()).collect();
                psi_sender(
                    sess.ch,
                    &items,
                    n,
                    sess.ring,
                    &mut sess.kkrt_send,
                    &mut sess.ot_send,
                    sess.hasher,
                    &mut sess.rng,
                    &mut sess.gc_garble,
                )
            } else {
                shared_payload_psi_sender(
                    sess.ch,
                    &keys,
                    n,
                    &rg.annot_shares,
                    sess.ring,
                    &mut sess.kkrt_send,
                    &mut sess.ot_send,
                    &mut sess.ot_recv,
                    sess.hasher,
                    &mut sess.rng,
                    &mut sess.gc_garble,
                )
            };
            shared_oep_other(
                sess.ch,
                &psi.payload_shares,
                n,
                sess.ring,
                &mut sess.ot_send,
                &mut sess.rng,
            )
        }
    };

    // The PSI takes its circuit straight from the session's pre-garbled
    // queue; count it when none matched.
    if route.psi.is_some() && sess.banked_circuits() == banked {
        sess.inline_circuits += 1;
    }

    // Product: new annotations [v ⊗ z]. The R_F owner is the OT sender.
    let out_shares = if i_own_f {
        let my_v = if route.v_plain {
            rf.plain_annots.as_ref().expect("plain on owner")
        } else {
            &rf.annot_shares
        };
        product_owner(
            sess.ch,
            sess.ring,
            &mut sess.ot_send,
            my_v,
            &my_z,
            route.v_plain,
        )
    } else {
        let my_v = (!route.v_plain).then_some(rf.annot_shares.as_slice());
        product_other(sess.ch, sess.ring, &mut sess.ot_recv, my_v, &my_z)
    };
    SecureRelation {
        schema: rf.schema.clone(),
        owner: rf.owner,
        tuples: rf.tuples.clone(),
        dummy: rf.dummy.clone(),
        size: n,
        annot_shares: out_shares,
        is_plain: false,
        plain_annots: None,
    }
}

/// Oblivious annotated semijoin `R_F ⋉⊗ R_G` (paper §6.2): the support
/// projection of `R_G` on the shared attributes, then a reduce-join.
pub fn oblivious_semijoin(
    sess: &mut Session,
    rf: &mut SecureRelation,
    rg: &mut SecureRelation,
) -> SecureRelation {
    let join_attrs = shared_attrs(&rf.schema, &rg.schema);
    let mut support = oblivious_project_agg(sess, rg, &join_attrs, AggKind::Support);
    oblivious_reduce_join(sess, rf, &mut support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_relation::{NaturalRing, Relation};
    use secyan_transport::{run_protocol, Role};

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Drive a reduce-join with R_F owned by Alice and R_G owned by
    /// `g_owner`; returns reconstructed output annotations in R_F order.
    fn run_reduce_join(
        f_rows: Vec<(Vec<u64>, u64)>,
        g_rows: Vec<(Vec<u64>, u64)>,
        f_schema: Vec<&str>,
        g_schema: Vec<&str>,
        g_owner: Role,
        force_shared: bool,
    ) -> Vec<u64> {
        let ring = NaturalRing::paper_default();
        let f_rel = Relation::from_rows(ring, strings(&f_schema), f_rows);
        let g_rel = Relation::from_rows(ring, strings(&g_schema), g_rows);
        let (fs, gs) = (strings(&f_schema), strings(&g_schema));
        let (fs2, gs2) = (fs.clone(), gs.clone());
        let g_rel2 = g_rel.clone();
        let (a_sh, b_sh, _) = run_protocol(
            move |ch| {
                let mut sess =
                    crate::session::Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 81);
                let mut rf = SecureRelation::load(&mut sess, Role::Alice, fs, Some(&f_rel));
                let mut rg = SecureRelation::load(
                    &mut sess,
                    g_owner,
                    gs,
                    (g_owner == Role::Alice).then_some(&g_rel),
                );
                if force_shared {
                    rf.ensure_shared(&mut sess);
                    rg.ensure_shared(&mut sess);
                }
                let out = oblivious_reduce_join(&mut sess, &mut rf, &mut rg);
                out.annot_shares
            },
            move |ch| {
                let mut sess =
                    crate::session::Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 82);
                let mut rf = SecureRelation::load(&mut sess, Role::Alice, fs2, None);
                let mut rg = SecureRelation::load(
                    &mut sess,
                    g_owner,
                    gs2,
                    (g_owner == Role::Bob).then_some(&g_rel2),
                );
                if force_shared {
                    rf.ensure_shared(&mut sess);
                    rg.ensure_shared(&mut sess);
                }
                let out = oblivious_reduce_join(&mut sess, &mut rf, &mut rg);
                out.annot_shares
            },
        );
        let ring = RingCtx::new(32);
        ring.reconstruct_vec(&a_sh, &b_sh)
    }

    /// Run the product on `v ⊗ z` over `ring`, Alice owning `R_F` (the OT
    /// sender). z is always shared; v is plain at Alice when `v_plain`,
    /// else shared. With `bank > 0` both sides bank that many random OTs
    /// first. Returns the reconstructed products, the online bytes, and
    /// the OTs left in each party's bank.
    fn run_product(
        ring: RingCtx,
        v: Vec<u64>,
        z: Vec<u64>,
        v_plain: bool,
        bank: usize,
    ) -> (Vec<u64>, u64, (usize, usize)) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use secyan_transport::Phase;
        let mut rng = StdRng::seed_from_u64(85);
        let (za, zb) = ring.share_vec(&z, &mut rng);
        let (va, vb) = if v_plain {
            (v, Vec::new())
        } else {
            ring.share_vec(&v, &mut rng)
        };
        let ((a_sh, a_left), (b_sh, b_left), stats) = run_protocol(
            move |ch| {
                ch.set_phase(Phase::Offline);
                let mut ot = OtSender::setup(ch, &mut StdRng::seed_from_u64(86), TweakHasher::Aes);
                if bank > 0 {
                    let b = ot.offline(ch, bank);
                    ot.attach_bank(b);
                }
                ch.set_phase(Phase::Online);
                let out = product_owner(ch, ring, &mut ot, &va, &za, v_plain);
                (out, ot.bank_remaining())
            },
            move |ch| {
                ch.set_phase(Phase::Offline);
                let mut ot =
                    OtReceiver::setup(ch, &mut StdRng::seed_from_u64(87), TweakHasher::Aes);
                if bank > 0 {
                    let b = ot.offline(ch, bank, &mut StdRng::seed_from_u64(88));
                    ot.attach_bank(b);
                }
                ch.set_phase(Phase::Online);
                let my_v = (!v_plain).then_some(vb.as_slice());
                let out = product_other(ch, ring, &mut ot, my_v, &zb);
                (out, ot.bank_remaining())
            },
        );
        (
            ring.reconstruct_vec(&a_sh, &b_sh),
            stats.online_bytes,
            (a_left, b_left),
        )
    }

    #[test]
    fn product_matches_plaintext_at_every_width() {
        for ell in [1u32, 7, 32, 64] {
            let ring = RingCtx::new(ell);
            let top = 1u64 << (ell - 1);
            // Factors ≥ 2^(ℓ−1): every shift of the top bit wraps out of
            // the ring, and at ℓ = 64 out of the machine word.
            let v: Vec<u64> = (0..9u64)
                .map(|i| ring.reduce(top | i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
                .collect();
            let z: Vec<u64> = (0..9u64)
                .map(|i| ring.reduce(top | (i + 3).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)))
                .collect();
            let want: Vec<u64> = v.iter().zip(&z).map(|(&a, &b)| ring.mul(a, b)).collect();
            for v_plain in [true, false] {
                let m = product_ots(v.len(), ell as usize, v_plain);
                // Inline extension, an exact bank, and a bank shed below
                // the draw, which both sides must skip together.
                for (bank, left) in [(0, 0), (m, 0), (m - 1, m - 1)] {
                    let (got, online, remaining) =
                        run_product(ring, v.clone(), z.clone(), v_plain, bank);
                    let case = format!("ℓ={ell} v_plain={v_plain} bank={bank}");
                    assert_eq!(got, want, "{case}");
                    assert_eq!(remaining, (left, left), "{case}");
                    if bank == m {
                        // Packed corrections, then one ⌈ℓ/8⌉-byte word per OT.
                        let words = m * (ell as usize).div_ceil(8);
                        assert_eq!(online, (m.div_ceil(8) + words) as u64, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_product_sends_nothing() {
        for v_plain in [true, false] {
            let (got, online, _) = run_product(RingCtx::new(32), vec![], vec![], v_plain, 0);
            assert!(got.is_empty());
            assert_eq!(online, 0, "v_plain={v_plain}");
        }
    }

    #[test]
    fn cross_party_reduce_join() {
        for force_shared in [false, true] {
            let got = run_reduce_join(
                vec![
                    (vec![1, 100], 2),
                    (vec![2, 200], 3),
                    (vec![3, 300], 5),
                    (vec![1, 400], 7),
                ],
                vec![(vec![1], 10), (vec![3], 20)],
                vec!["k", "x"],
                vec!["k"],
                Role::Bob,
                force_shared,
            );
            // k=1 matches (×10), k=2 no match (→0), k=3 matches (×20).
            assert_eq!(got, vec![20, 0, 100, 70], "force_shared={force_shared}");
        }
    }

    #[test]
    fn same_party_reduce_join() {
        for force_shared in [false, true] {
            let got = run_reduce_join(
                vec![(vec![5, 1], 4), (vec![6, 2], 6)],
                vec![(vec![5], 100), (vec![7], 9)],
                vec!["k", "x"],
                vec!["k"],
                Role::Alice,
                force_shared,
            );
            assert_eq!(got, vec![400, 0], "force_shared={force_shared}");
        }
    }

    #[test]
    fn semijoin_zeroes_danglings_only() {
        // Semijoin keeps annotations where a nonzero partner exists.
        let ring = NaturalRing::paper_default();
        let f_rel = Relation::from_rows(
            ring,
            strings(&["k"]),
            vec![(vec![1], 11), (vec![2], 22), (vec![3], 33)],
        );
        // R_G has duplicate k values (semijoin aggregates them first) and
        // one zero-annotated partner.
        let g_rel = Relation::from_rows(
            ring,
            strings(&["k", "y"]),
            vec![(vec![1, 7], 1), (vec![1, 8], 1), (vec![2, 9], 0)],
        );
        let (a_sh, b_sh, _) = run_protocol(
            move |ch| {
                let mut sess =
                    crate::session::Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 83);
                let mut rf =
                    SecureRelation::load(&mut sess, Role::Alice, strings(&["k"]), Some(&f_rel));
                let mut rg = SecureRelation::load(&mut sess, Role::Bob, strings(&["k", "y"]), None);
                rf.ensure_shared(&mut sess);
                rg.ensure_shared(&mut sess);
                oblivious_semijoin(&mut sess, &mut rf, &mut rg).annot_shares
            },
            move |ch| {
                let mut sess =
                    crate::session::Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 84);
                let mut rf = SecureRelation::load(&mut sess, Role::Alice, strings(&["k"]), None);
                let mut rg =
                    SecureRelation::load(&mut sess, Role::Bob, strings(&["k", "y"]), Some(&g_rel));
                rf.ensure_shared(&mut sess);
                rg.ensure_shared(&mut sess);
                oblivious_semijoin(&mut sess, &mut rf, &mut rg).annot_shares
            },
        );
        let ring = RingCtx::new(32);
        let got = ring.reconstruct_vec(&a_sh, &b_sh);
        // k=1 kept (11), k=2 partner zero-annotated → 0, k=3 dangling → 0.
        assert_eq!(got, vec![11, 0, 0]);
    }
}
