//! The oblivious join (paper §6.3) — the full-join phase.
//!
//! Precondition (established by the semijoin phase): every dangling tuple
//! is zero-annotated, so the nonzero support R*_F of each relation equals
//! its projection of the join result J* and may be revealed to the
//! designated receiver. The receiver then joins locally, announces
//! OUT = |J*| (public per §4), and per-relation OEPs + one product circuit
//! produce J*'s annotations — in shared form, so the result can feed query
//! composition (§7), or revealed when it *is* the final answer.

use crate::session::Session;
use crate::srel::SecureRelation;
use secyan_circuit::{bits_to_u64, u64_to_bits, BitRef, Builder, Circuit, Word};
use secyan_gc::{with_shared_outputs, OutputMode, SharedOutputSpec};
use secyan_oep::{shared_oep_other, shared_oep_perm_holder};
use secyan_transport::{ReadExt, Role, WriteExt};
use std::collections::HashMap;

/// Result of the oblivious join.
#[derive(Debug, Clone)]
pub struct JoinOutput {
    /// Combined schema (fold order, duplicates removed).
    pub schema: Vec<String>,
    /// Receiver side: the join tuples J*. Empty on the other side.
    pub tuples: Vec<Vec<u64>>,
    /// Annotation shares per output row (both sides), unless revealed.
    pub annot_shares: Vec<u64>,
    /// Revealed annotations (receiver side, only when `reveal` was set).
    pub values: Vec<u64>,
    /// Public output size.
    pub out_size: usize,
}

/// The support-reveal circuit for one relation: per row, the support bit
/// ind = [v ≠ 0] as NOT eq(v_a, −v_b), the garbler inputting its v-share
/// and the evaluator its negated share — ℓ−1 ANDs a row, and no tuple
/// word enters. Outputs `0..n` are the bits, revealed to the evaluator;
/// with `converted`, outputs `n..2n` repeat them for the conversion of
/// the garbler's tuple words ([`reveal_support`]). Garbler = the
/// non-receiver.
pub(crate) fn reveal_circuit(n: usize, ell: usize, converted: bool) -> Circuit {
    let mut b = Builder::new();
    let va: Vec<Word> = (0..n).map(|_| b.alice_word(ell)).collect();
    let neg_vb: Vec<Word> = (0..n).map(|_| b.bob_word(ell)).collect();
    let inds: Vec<BitRef> = va
        .iter()
        .zip(&neg_vb)
        .map(|(x, y)| {
            let zero = b.eq_words(x, y);
            b.not(zero)
        })
        .collect();
    for _ in 0..1 + usize::from(converted) {
        for &ind in &inds {
            b.output(ind);
        }
    }
    b.finish()
}

/// Whether a reveal moves tuple words from the non-receiver to the
/// receiver: the non-receiver owns the relation and its schema is
/// nonempty. A lone survivor's reveal then runs one OT per row, a support
/// reveal converts the words out of its circuit; the plan counts both.
pub(crate) fn sends_tuples(owner: Role, receiver: Role, attrs: usize) -> bool {
    owner != receiver && attrs > 0
}

/// Per row, in the owner's storage order: `Some((tuple, v))` for real rows
/// with a nonzero aggregate.
type RevealedRows = Vec<Option<(Vec<u64>, u64)>>;

/// Bytes of one attribute value in a revealed tuple.
const ATTR_BYTES: usize = 8;

/// Reveal a lone survivor — the whole answer — to the receiver without a
/// circuit. The non-receiver opens its annotation shares as ⌈ℓ/8⌉-byte
/// ring words, staged before it blocks; the receiver reconstructs v on
/// every row. When the non-receiver owns the tuples, each row is one
/// chosen-message OT of (zero string, tuple bytes) with choice [v ≠ 0], so
/// the receiver learns the tuples of nonzero rows only and the other side
/// sees uniform choice corrections. `Some(rows)` on the receiver side.
fn reveal_values(
    sess: &mut Session,
    rel: &mut SecureRelation,
    receiver: Role,
) -> Option<RevealedRows> {
    rel.ensure_shared(sess);
    let (n, attrs) = (rel.size, rel.schema.len());
    let width = (sess.ring.bits() as usize).div_ceil(8);
    if sess.role() != receiver {
        let opened: Vec<u8> = rel
            .annot_shares
            .iter()
            .flat_map(|s| s.to_le_bytes().into_iter().take(width))
            .collect();
        sess.ch.send_bytes(&opened);
        if sends_tuples(rel.owner, receiver, attrs) {
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = rel
                .tuples
                .as_ref()
                .expect("owner side")
                .iter()
                .map(|t| {
                    let bytes: Vec<u8> = t.iter().flat_map(|v| v.to_le_bytes()).collect();
                    (vec![0; bytes.len()], bytes)
                })
                .collect();
            sess.ot_send.send_bytes(sess.ch, &pairs);
        }
        return None;
    }
    let opened = sess.ch.recv_bytes(n * width);
    let values: Vec<u64> = opened
        .chunks_exact(width)
        .zip(&rel.annot_shares)
        .map(|(word, &mine)| {
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(word);
            sess.ring.add(mine, u64::from_le_bytes(le))
        })
        .collect();
    let tuples: Vec<Vec<u64>> = match rel.tuples.clone() {
        Some(tuples) => tuples,
        None if !sends_tuples(rel.owner, receiver, attrs) => vec![Vec::new(); n],
        None => {
            let choices: Vec<bool> = values.iter().map(|&v| v != 0).collect();
            sess.ot_recv
                .recv_bytes(sess.ch, &choices, attrs * ATTR_BYTES)
                .iter()
                .map(|bytes| {
                    bytes
                        .chunks_exact(ATTR_BYTES)
                        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
                        .collect()
                })
                .collect()
        }
    };
    let rows = tuples
        .into_iter()
        .zip(values)
        .map(|(t, v)| (v != 0).then_some((t, v)))
        .collect();
    Some(rows)
}

/// Reveal `rel`'s nonzero support to the receiver through
/// [`reveal_circuit`]; `Some(rows)` with v = 1 on the receiver side. When
/// the garbler (the non-receiver) owns the tuples, each support bit is
/// converted once per tuple word at a 64-bit ring with the word as the
/// garbler's scalar ([`secyan_gc::shares`]), and the garbler opens its
/// kept share g, so the receiver's share e gives e + g = ind·word: 16
/// bytes per attribute. Like the conversion word, g is masked by the hash
/// of the label the receiver does not hold, so it says nothing when
/// ind = 0.
fn reveal_support(
    sess: &mut Session,
    rel: &mut SecureRelation,
    receiver: Role,
) -> Option<RevealedRows> {
    rel.ensure_shared(sess);
    let (n, attrs) = (rel.size, rel.schema.len());
    let ell = sess.ring.bits() as usize;
    let converted = sends_tuples(rel.owner, receiver, attrs);
    let circuit = reveal_circuit(n, ell, converted);
    let wires = if converted {
        (n..2 * n).flat_map(|o| vec![o; attrs]).collect()
    } else {
        Vec::new()
    };
    let spec = SharedOutputSpec::new(64, wires);
    if sess.role() != receiver {
        let bits: Vec<bool> = rel
            .annot_shares
            .iter()
            .flat_map(|&s| u64_to_bits(s, ell))
            .collect();
        let scalars: Vec<u64> = if converted {
            rel.tuples.iter().flatten().flatten().copied().collect()
        } else {
            Vec::new()
        };
        let kept = sess.garble_shared(&circuit, &spec, &scalars, &bits);
        sess.ch.send_u64_slice(&kept);
        return None;
    }
    let bits: Vec<bool> = rel
        .annot_shares
        .iter()
        .flat_map(|&s| u64_to_bits(sess.ring.neg(s), ell))
        .collect();
    let (shares, inds) = sess.evaluate_shared(&circuit, &spec, &bits);
    let opened = sess.ch.recv_u64_vec(shares.len());
    let words: Vec<u64> = shares
        .iter()
        .zip(&opened)
        .map(|(&e, &g)| e.wrapping_add(g))
        .collect();
    let rows = inds
        .iter()
        .enumerate()
        .map(|(i, &ind)| {
            if !ind {
                return None; // dummy, dangling or zero-valued
            }
            let tuple = match &rel.tuples {
                Some(tuples) => tuples[i].clone(),
                None => words[i * attrs..(i + 1) * attrs].to_vec(),
            };
            Some((tuple, 1))
        })
        .collect();
    Some(rows)
}

/// The k-way annotation product circuit over `n` rows, one ℓ-bit output
/// word per row. Garbler = non-receiver. The caller reveals the outputs to
/// the receiver or leaves them as fresh shares (§5.2); the circuit is the
/// same either way.
fn product_tree_circuit(n: usize, k: usize, ell: usize) -> Circuit {
    with_shared_outputs(|b| {
        let ga: Vec<Vec<Word>> = (0..n)
            .map(|_| (0..k).map(|_| b.alice_word(ell)).collect())
            .collect();
        let gb: Vec<Vec<Word>> = (0..n)
            .map(|_| (0..k).map(|_| b.bob_word(ell)).collect())
            .collect();
        (0..n)
            .map(|i| {
                let mut acc: Option<Word> = None;
                for j in 0..k {
                    let v = b.add_words(&ga[i][j], &gb[i][j]);
                    acc = Some(match acc {
                        None => v,
                        Some(a) => b.mul_words(&a, &v),
                    });
                }
                acc.expect("k >= 1")
            })
            .collect()
    })
}

/// The oblivious join. `rels` must be ordered so that each prefix is
/// connected (the driver folds bottom-up along the join tree); all
/// dangling tuples must already be zero-annotated. `reveal` controls
/// whether the annotations are opened to the receiver or left shared; a
/// lone relation is then revealed directly, with no product tree.
pub fn oblivious_join(
    sess: &mut Session,
    rels: &mut [SecureRelation],
    receiver: Role,
    reveal: bool,
) -> JoinOutput {
    assert!(!rels.is_empty());
    let ell = sess.ring.bits() as usize;
    let i_am_receiver = sess.role() == receiver;
    // A lone relation whose result is revealed (e.g. TPC-H Q3 after the
    // reduce phase) is the whole answer: open its rows and values.
    if reveal && rels.len() == 1 {
        let rows = reveal_values(sess, &mut rels[0], receiver);
        let (tuples, values): (Vec<_>, Vec<_>) = rows.into_iter().flatten().flatten().unzip();
        return JoinOutput {
            schema: rels[0].schema.clone(),
            out_size: tuples.len(),
            tuples,
            annot_shares: Vec::new(),
            values,
        };
    }
    // Step 1: reveal every relation's nonzero support to the receiver.
    let revealed: Vec<_> = rels
        .iter_mut()
        .map(|r| reveal_support(sess, r, receiver))
        .collect();
    // Step 2: the receiver joins locally, tracking per-relation provenance.
    let mut schema: Vec<String> = Vec::new();
    for r in rels.iter() {
        for a in &r.schema {
            if !schema.contains(a) {
                schema.push(a.clone());
            }
        }
    }
    let (tuples, prov, out_size) = if i_am_receiver {
        let mut acc: Vec<(HashMap<String, u64>, Vec<usize>)> = Vec::new();
        for (ri, rows) in revealed.iter().enumerate() {
            let rows = rows.as_ref().expect("receiver side");
            let rel_schema = &rels[ri].schema;
            if ri == 0 {
                for (idx, row) in rows.iter().enumerate() {
                    if let Some((t, _)) = row {
                        let vals: HashMap<String, u64> =
                            rel_schema.iter().cloned().zip(t.iter().copied()).collect();
                        acc.push((vals, vec![idx]));
                    }
                }
                continue;
            }
            // Hash the new relation on the shared attributes.
            let common: Vec<String> = rel_schema
                .iter()
                .filter(|a| acc.first().is_some_and(|(m, _)| m.contains_key(*a)))
                .cloned()
                .collect();
            let mut index: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
            for (idx, row) in rows.iter().enumerate() {
                if let Some((t, _)) = row {
                    let key: Vec<u64> = common
                        .iter()
                        .map(|a| {
                            let p = rel_schema.iter().position(|s| s == a).expect("common attr");
                            t[p]
                        })
                        .collect();
                    index.entry(key).or_default().push(idx);
                }
            }
            let mut next = Vec::new();
            for (vals, prov) in acc {
                let key: Vec<u64> = common.iter().map(|a| vals[a]).collect();
                if let Some(matches) = index.get(&key) {
                    for &idx in matches {
                        let (t, _) = rows[idx].as_ref().expect("indexed row is real");
                        let mut vals2 = vals.clone();
                        for (a, &v) in rel_schema.iter().zip(t.iter()) {
                            vals2.insert(a.clone(), v);
                        }
                        let mut prov2 = prov.clone();
                        prov2.push(idx);
                        next.push((vals2, prov2));
                    }
                }
            }
            acc = next;
        }
        let out_size = acc.len();
        sess.ch.send_u64(out_size as u64);
        let tuples: Vec<Vec<u64>> = acc
            .iter()
            .map(|(vals, _)| schema.iter().map(|a| vals[a]).collect())
            .collect();
        let prov: Vec<Vec<usize>> = acc.into_iter().map(|(_, p)| p).collect();
        (tuples, prov, out_size)
    } else {
        let out_size = crate::session::recv_declared_size(sess.ch, "join output");
        (Vec::new(), Vec::new(), out_size)
    };
    if out_size == 0 {
        return JoinOutput {
            schema,
            tuples,
            annot_shares: Vec::new(),
            values: Vec::new(),
            out_size,
        };
    }
    // Step 3: per-relation OEPs align annotation shares with J* rows.
    let k = rels.len();
    let mut aligned: Vec<Vec<u64>> = Vec::with_capacity(k);
    for (ri, rel) in rels.iter().enumerate() {
        if i_am_receiver {
            let xi: Vec<usize> = prov.iter().map(|p| p[ri]).collect();
            aligned.push(shared_oep_perm_holder(
                sess.ch,
                &xi,
                &rel.annot_shares,
                sess.ring,
                &mut sess.ot_recv,
            ));
        } else {
            aligned.push(shared_oep_other(
                sess.ch,
                &rel.annot_shares,
                out_size,
                sess.ring,
                &mut sess.ot_send,
                &mut sess.rng,
            ));
        }
    }
    // Step 4: product circuit. Garbler = non-receiver.
    let circuit = product_tree_circuit(out_size, k, ell);
    let mut bits = Vec::new();
    for i in 0..out_size {
        for a in aligned.iter() {
            bits.extend(u64_to_bits(a[i], ell));
        }
    }
    let (annot_shares, values) = if i_am_receiver {
        if reveal {
            let out = sess
                .evaluate(&circuit, &bits, OutputMode::RevealToEvaluator)
                .expect("reveals to evaluator");
            let values = (0..out_size)
                .map(|i| bits_to_u64(&out[i * ell..(i + 1) * ell]))
                .collect();
            (Vec::new(), values)
        } else {
            let shares = sess.evaluate_words(&circuit, ell, &bits);
            (shares, Vec::new())
        }
    } else if reveal {
        sess.garble(&circuit, &bits, OutputMode::RevealToEvaluator);
        (Vec::new(), Vec::new())
    } else {
        let shares = sess.garble_words(&circuit, ell, &bits);
        (shares, Vec::new())
    };
    JoinOutput {
        schema,
        tuples,
        annot_shares,
        values,
        out_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_gc::{evaluate_offline, garble_offline};
    use secyan_transport::{run_protocol, Phase};

    /// OT extension columns: an inline batch of m OTs costs the receiver
    /// κ·⌈m/8⌉ bytes, a banked one ⌈m/8⌉ bytes of corrections.
    const KAPPA: usize = 128;

    /// One relation revealed to Alice (so Bob garbles and sends OTs).
    #[derive(Clone)]
    struct Case {
        ell: usize,
        owner: Role,
        attrs: usize,
        tuples: Vec<Vec<u64>>,
        va: Vec<u64>,
        vb: Vec<u64>,
    }

    /// Rows with v = 2^(ℓ−1), v = 0 from nonzero shares that wrap, v = 1,
    /// v = 2^ℓ − 1, and v = 0 from zero shares. Tuple words cycle through
    /// 0, `u64::MAX` and an arbitrary word, so a nonzero row carries the
    /// extremes.
    fn case(ell: usize, owner: Role, attrs: usize) -> Case {
        let ring = RingCtx::new(ell as u32);
        let mut rng = StdRng::seed_from_u64(ell as u64);
        let values = [1 << (ell - 1), 0, 1, ring.reduce(u64::MAX), 0];
        let n = values.len();
        let va: Vec<u64> = (0..n)
            .map(|i| {
                if i == n - 1 {
                    0
                } else {
                    ring.reduce(rng.gen::<u64>() | 1)
                }
            })
            .collect();
        let vb = values
            .iter()
            .zip(&va)
            .map(|(&v, &a)| ring.sub(v, a))
            .collect();
        let words = |i: usize| [0, u64::MAX, 0x0123_4567_89ab_cdef ^ i as u64];
        let tuples = (0..n)
            .map(|i| (0..attrs).map(|j| words(i)[(i + j) % 3]).collect())
            .collect();
        Case {
            ell,
            owner,
            attrs,
            tuples,
            va,
            vb,
        }
    }

    impl Case {
        fn expected(&self, lone: bool) -> RevealedRows {
            let ring = RingCtx::new(self.ell as u32);
            self.va
                .iter()
                .zip(&self.vb)
                .zip(&self.tuples)
                .map(|((&a, &b), t)| {
                    let v = ring.add(a, b);
                    (v != 0).then(|| (t.clone(), if lone { v } else { 1 }))
                })
                .collect()
        }
    }

    /// Run `case` through the lone (`reveal_values`) or support
    /// (`reveal_support`) reveal, inline or from offline material: exact
    /// OT banks, and the pre-garbled support circuit. Returns Alice's rows
    /// and the online bytes; asserts the material is used up exactly.
    fn run_reveal(case: &Case, lone: bool, pooled: bool) -> (RevealedRows, u64) {
        let n = case.va.len();
        let ell = case.ell;
        let converted = sends_tuples(case.owner, Role::Alice, case.attrs);
        let circuit = reveal_circuit(n, ell, converted);
        let bank = match (lone, pooled) {
            (_, false) => 0,
            (true, _) if converted => n,
            (true, _) => 0,
            (false, _) => ell * n,
        };
        let party = |role: Role, shares: Vec<u64>| {
            let (case, circuit) = (case.clone(), circuit.clone());
            move |ch: &mut secyan_transport::Channel| {
                ch.set_phase(Phase::Offline);
                let ring = RingCtx::new(ell as u32);
                let mut sess = Session::new(ch, ring, TweakHasher::default(), ell as u64);
                let garbler = role == Role::Bob;
                if bank > 0 {
                    if garbler {
                        let b = sess.ot_send.offline(sess.ch, bank);
                        sess.ot_send.attach_bank(b);
                    } else {
                        let b = sess.ot_recv.offline(sess.ch, bank, &mut sess.rng);
                        sess.ot_recv.attach_bank(b);
                    }
                }
                if pooled && !lone {
                    if garbler {
                        let m = garble_offline(sess.ch, &circuit, sess.hasher, &mut sess.rng);
                        sess.gc_garble.push_back(m);
                    } else {
                        sess.gc_eval.push_back(evaluate_offline(sess.ch, &circuit));
                    }
                }
                sess.ch.set_phase(Phase::Online);
                let mine = role == case.owner;
                let mut rel = SecureRelation {
                    schema: (0..case.attrs).map(|j| format!("a{j}")).collect(),
                    owner: case.owner,
                    tuples: mine.then(|| case.tuples.clone()),
                    dummy: mine.then(|| vec![false; n]),
                    size: n,
                    annot_shares: shares,
                    is_plain: false,
                    plain_annots: None,
                };
                let rows = if lone {
                    reveal_values(&mut sess, &mut rel, Role::Alice)
                } else {
                    reveal_support(&mut sess, &mut rel, Role::Alice)
                };
                assert_eq!(sess.ot_send.bank_remaining(), 0);
                assert_eq!(sess.ot_recv.bank_remaining(), 0);
                assert_eq!(sess.banked_circuits(), 0);
                let inline = if lone || pooled { 0 } else { 1 };
                assert_eq!(sess.inline_circuits, inline);
                rows
            }
        };
        let (rows, bob, stats) = run_protocol(
            party(Role::Alice, case.va.clone()),
            party(Role::Bob, case.vb.clone()),
        );
        assert!(bob.is_none(), "only the receiver learns rows");
        (rows.expect("receiver side"), stats.online_bytes)
    }

    /// Receiver-side bytes of `m` OTs.
    fn ot_choice_bytes(m: usize, pooled: bool) -> usize {
        m.div_ceil(8) * if pooled { 1 } else { KAPPA }
    }

    #[test]
    fn lone_reveal_opens_values_and_sends_tuples_by_ot() {
        for ell in [1usize, 7, 32, 64] {
            for owner in [Role::Alice, Role::Bob] {
                for attrs in [0usize, 1, 3] {
                    for pooled in [false, true] {
                        let c = case(ell, owner, attrs);
                        let n = c.va.len();
                        let (rows, bytes) = run_reveal(&c, true, pooled);
                        let what = format!("ℓ={ell} owner={owner:?} attrs={attrs} pooled={pooled}");
                        assert_eq!(rows, c.expected(true), "{what}");
                        // The opened shares, plus one OT per row of
                        // (zero string, tuple bytes) when Bob owns tuples.
                        let mut want = n * ell.div_ceil(8);
                        if owner == Role::Bob && attrs > 0 {
                            want += ot_choice_bytes(n, pooled) + 2 * n * 8 * attrs;
                        }
                        assert_eq!(bytes, want as u64, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn support_reveal_converts_tuple_words_out_of_the_circuit() {
        for ell in [1usize, 7, 32, 64] {
            for pooled in [false, true] {
                let mut receiver_owned = 0;
                for (owner, attrs) in [
                    (Role::Alice, 3),
                    (Role::Bob, 0),
                    (Role::Bob, 1),
                    (Role::Bob, 3),
                ] {
                    let c = case(ell, owner, attrs);
                    let n = c.va.len();
                    let (rows, bytes) = run_reveal(&c, false, pooled);
                    let what = format!("ℓ={ell} owner={owner:?} attrs={attrs} pooled={pooled}");
                    // A row whose tuple is all zero words stays a row.
                    assert_eq!(rows, c.expected(false), "{what}");
                    let labels = ell * n;
                    let mut want = labels * 16 // garbler input labels
                        + n.div_ceil(8) // decode bits of the support bits
                        + ot_choice_bytes(labels, pooled)
                        + 2 * labels * 16; // masked evaluator labels
                    if !pooled {
                        want += 2 * 16 * (ell - 1) * n; // half-gates tables
                    }
                    if owner == Role::Alice {
                        receiver_owned = bytes;
                    } else {
                        // Per attribute: one conversion word c and the
                        // opened share g, 8 bytes each.
                        want += 16 * n * attrs;
                        assert_eq!(bytes, receiver_owned + (16 * n * attrs) as u64, "{what}");
                    }
                    assert_eq!(bytes, want as u64, "{what}");
                }
            }
        }
    }
}
