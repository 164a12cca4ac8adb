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
//!   circuit finish the job;
//! * **same-party** — no PSI needed: the owner matches tuples locally and
//!   a single OEP + product circuit does the rest.

use crate::agg::{oblivious_project_agg, AggKind};
use crate::session::Session;
use crate::shape::{Dims, GcSpec};
use crate::srel::{dummy_key, SecureRelation};
use secyan_circuit::{u64_to_bits, Circuit, Word};
use secyan_gc::{with_shared_outputs, SharedOutputSpec};
use secyan_oep::{
    shared_oep_other, shared_oep_perm_holder, shared_oep_perm_holder_begin,
    shared_oep_perm_holder_finish,
};
use secyan_psi::{
    psi_params, psi_receiver_begin, psi_receiver_finish, psi_sender,
    shared_payload_psi_receiver_begin, shared_payload_psi_receiver_finish,
    shared_payload_psi_sender, CuckooTable,
};
use std::collections::HashMap;

/// The product circuit: out_i = v_i ⊗ z_i as fresh shares. When
/// `v_plain`, the garbler (the `R_F` owner) feeds v_i in the clear (§6.5);
/// otherwise v_i enters as shares from both parties. z_i always enters as
/// shares.
pub(crate) fn product_circuit(n: usize, ell: usize, v_plain: bool) -> (Circuit, SharedOutputSpec) {
    let spec = SharedOutputSpec::uniform(n, ell);
    let circuit = with_shared_outputs(&spec, |b| {
        let va: Vec<Word> = (0..n).map(|_| b.alice_word(ell)).collect();
        let za: Vec<Word> = (0..n).map(|_| b.alice_word(ell)).collect();
        let (vb, zb): (Vec<Word>, Vec<Word>) = if v_plain {
            (Vec::new(), (0..n).map(|_| b.bob_word(ell)).collect())
        } else {
            (
                (0..n).map(|_| b.bob_word(ell)).collect(),
                (0..n).map(|_| b.bob_word(ell)).collect(),
            )
        };
        (0..n)
            .map(|i| {
                let v = if v_plain {
                    va[i].clone()
                } else {
                    b.add_words(&va[i], &vb[i])
                };
                let z = b.add_words(&za[i], &zb[i]);
                b.mul_words(&v, &z)
            })
            .collect()
    });
    (circuit, spec)
}

/// The public choices of a reduce-join `R_F ⋈⊗ R_G`, which the operator
/// and [`crate::shape::Plan`] both branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JoinRoute {
    /// Cross-party only: the circuit-PSI, garbled by the `R_G` owner — the
    /// matching circuit on plain payloads (§6.5), else k-index (§5.5).
    pub psi: Option<GcSpec>,
    /// The product (garbled by the `R_F` owner) takes v in the clear while
    /// `R_F`'s annotations are owner-known (§6.5).
    pub v_plain: bool,
}

impl JoinRoute {
    pub(crate) fn of(rf: Dims, rg: Dims) -> JoinRoute {
        let bins = psi_params(rf.size, rg.size).bins;
        JoinRoute {
            psi: (rf.owner != rg.owner).then_some(if rg.is_plain {
                GcSpec::Matching { bins }
            } else {
                GcSpec::KIndex { bins }
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

/// Run the product circuit. `my_v`: my v-inputs (plain values for the
/// owner when `v_plain`, else my shares; empty on the non-owner side when
/// `v_plain`). `my_z`: my z-shares. The `R_F` owner garbles.
fn run_product(
    sess: &mut Session,
    i_am_garbler: bool,
    n: usize,
    v_plain: bool,
    my_v: &[u64],
    my_z: &[u64],
) -> Vec<u64> {
    let ell = sess.ring.bits() as usize;
    let (circuit, spec) = product_circuit(n, ell, v_plain);
    let mut bits = Vec::with_capacity(n * 2 * ell);
    if i_am_garbler {
        for &v in my_v {
            bits.extend(u64_to_bits(v, ell));
        }
        for &z in my_z {
            bits.extend(u64_to_bits(z, ell));
        }
        sess.garble_shared(&circuit, &spec, &bits)
    } else {
        if !v_plain {
            for &v in my_v {
                bits.extend(u64_to_bits(v, ell));
            }
        }
        for &z in my_z {
            bits.extend(u64_to_bits(z, ell));
        }
        sess.evaluate_shared(&circuit, &spec, &bits)
    }
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

    // Product circuit: new annotations [v ⊗ z]. The R_F owner garbles.
    let v_plain = route.v_plain;
    let my_v: Vec<u64> = if i_own_f {
        if v_plain {
            rf.plain_annots.clone().expect("plain on owner")
        } else {
            rf.annot_shares.clone()
        }
    } else if v_plain {
        Vec::new()
    } else {
        rf.annot_shares.clone()
    };
    let out_shares = run_product(sess, i_own_f, n, v_plain, &my_v, &my_z);
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
