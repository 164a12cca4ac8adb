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
use secyan_circuit::{bits_to_u64, u64_to_bits, Builder, Circuit, Word};
use secyan_gc::{with_shared_outputs, OutputMode};
use secyan_oep::{shared_oep_other, shared_oep_perm_holder};
use secyan_transport::{Role, WriteExt};
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

/// The reveal circuit for one relation. Per row it outputs the
/// reconstructed aggregate v (`values`) or the support bit `v ≠ 0`, then,
/// when the garbler owns the tuples, the tuple words gated by `v ≠ 0`:
/// zero-valued rows are indistinguishable from dummies, exactly as the
/// paper notes (a zero aggregate contributes nothing to the result).
/// Garbler = the non-receiver; outputs reveal to the receiver-evaluator.
pub(crate) fn reveal_circuit(
    n: usize,
    ell: usize,
    attrs: usize,
    owner_is_garbler: bool,
    values: bool,
) -> Circuit {
    let mut b = Builder::new();
    // Garbler inputs: v-shares, plus tuple words when the garbler owns them.
    let va: Vec<Word> = (0..n).map(|_| b.alice_word(ell)).collect();
    let ta: Vec<Vec<Word>> = (0..n)
        .map(|_| {
            if owner_is_garbler {
                (0..attrs).map(|_| b.alice_word(64)).collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let vb: Vec<Word> = (0..n).map(|_| b.bob_word(ell)).collect();
    for i in 0..n {
        let v = b.add_words(&va[i], &vb[i]);
        if values {
            b.output_word(&v);
        }
        if values && !owner_is_garbler {
            continue;
        }
        let ind = b.is_nonzero_word(&v);
        if !values {
            b.output(ind);
        }
        for w in &ta[i] {
            let gated = b.and_word_bit(w, ind);
            b.output_word(&gated);
        }
    }
    b.finish()
}

/// Per row, in the owner's storage order: `Some((tuple, v))` for real rows
/// with a nonzero aggregate.
type RevealedRows = Vec<Option<(Vec<u64>, u64)>>;

/// Reveal `rel`'s nonzero rows to the receiver through [`reveal_circuit`];
/// `Some(rows)` on the receiver side, where v is the aggregate with
/// `values`, else 1.
fn reveal_rows(
    sess: &mut Session,
    rel: &mut SecureRelation,
    receiver: Role,
    values: bool,
) -> Option<RevealedRows> {
    rel.ensure_shared(sess);
    let n = rel.size;
    let ell = sess.ring.bits() as usize;
    let attrs = rel.schema.len();
    let owner_is_garbler = rel.owner != receiver;
    let circuit = reveal_circuit(n, ell, attrs, owner_is_garbler, values);
    // Packing matches the circuit's declaration order: all v-shares
    // first, then (garbler side, when it owns them) all tuple words.
    let mut bits = Vec::new();
    for &s in &rel.annot_shares {
        bits.extend(u64_to_bits(s, ell));
    }
    if sess.role() != receiver {
        if owner_is_garbler {
            for t in rel.tuples.as_ref().expect("owner side") {
                for &v in t {
                    bits.extend(u64_to_bits(v, 64));
                }
            }
        }
        sess.garble(&circuit, &bits, OutputMode::RevealToEvaluator);
        return None;
    }
    let out = sess
        .evaluate(&circuit, &bits, OutputMode::RevealToEvaluator)
        .expect("reveals to evaluator");
    let head = if values { ell } else { 1 };
    let stride = head + if owner_is_garbler { attrs * 64 } else { 0 };
    let rows = (0..n)
        .map(|i| {
            let row = &out[i * stride..(i + 1) * stride];
            let v = bits_to_u64(&row[..head]);
            if v == 0 {
                return None; // dummy, dangling or zero-valued
            }
            let tuple = if owner_is_garbler {
                row[head..].chunks(64).map(bits_to_u64).collect()
            } else {
                rel.tuples.as_ref().expect("receiver owns the tuples")[i].clone()
            };
            Some((tuple, v))
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
    // Step 1: reveal every relation's nonzero support to the receiver — or,
    // for a lone relation whose result is revealed (e.g. TPC-H Q3 after
    // the reduce phase), its rows and aggregate values, which is the whole
    // answer.
    let lone = reveal && rels.len() == 1;
    let revealed: Vec<_> = rels
        .iter_mut()
        .map(|r| reveal_rows(sess, r, receiver, lone))
        .collect();
    if lone {
        let (tuples, values): (Vec<_>, Vec<_>) =
            revealed.into_iter().flatten().flatten().flatten().unzip();
        return JoinOutput {
            schema: rels[0].schema.clone(),
            out_size: tuples.len(),
            tuples,
            annot_shares: Vec::new(),
            values,
        };
    }
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
