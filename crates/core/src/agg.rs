//! Oblivious projection-aggregation (paper §6.1).
//!
//! Computes π⊕_F(R) or the support projection π¹_F(R) of a
//! [`SecureRelation`] whose annotations are secret-shared. The owner sorts
//! locally, a shared OEP re-aligns the annotation shares with the sorted
//! order, and a chain of garbled merge gates sweeps group aggregates into
//! each group's last row — all other rows become dummies with
//! zero-annotation shares, so the output has the *same public size* as the
//! input and leaks nothing about the number of groups.
//!
//! When the annotations are still owner-known (`is_plain`, §6.5) the whole
//! operator collapses to local computation plus dummy padding.

use crate::session::Session;
use crate::shape::Dims;
use crate::srel::SecureRelation;
use secyan_circuit::{u64_to_bits, BitRef, Circuit, Word};
use secyan_gc::with_shared_outputs;
use secyan_oep::{shared_oep_other, shared_oep_perm_holder};

/// Which projection-aggregation to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// π⊕: sum the group's annotations.
    Sum,
    /// π¹: 1 if the group contains any nonzero annotation, else 0.
    Support,
}

impl AggKind {
    /// Bits of one merge-circuit output word over an `ell`-bit ring: the
    /// full sum, or the one bit of a support indicator.
    pub(crate) fn out_bits(self, ell: usize) -> usize {
        match self {
            AggKind::Sum => ell,
            AggKind::Support => 1,
        }
    }
}

/// The merge-gate chain circuit. Garbler = relation owner.
///
/// Inputs: garbler's N−1 equality bits and N share words, then the
/// evaluator's N share words. Outputs: N words of [`AggKind::out_bits`]
/// bits in sorted order, nonzero only at group ends; they leave as shares.
pub(crate) fn merge_circuit(n: usize, ell: usize, kind: AggKind) -> Circuit {
    with_shared_outputs(|b| {
        let eq_bits: Vec<BitRef> = (0..n.saturating_sub(1)).map(|_| b.alice_input()).collect();
        let a_shares: Vec<Word> = (0..n).map(|_| b.alice_word(ell)).collect();
        let b_shares: Vec<Word> = (0..n).map(|_| b.bob_word(ell)).collect();
        let vs: Vec<Word> = a_shares
            .iter()
            .zip(&b_shares)
            .map(|(x, y)| b.add_words(x, y))
            .collect();
        let mut outs: Vec<Word> = Vec::with_capacity(n);
        match kind {
            AggKind::Sum => {
                let mut z = vs[0].clone();
                for i in 0..n.saturating_sub(1) {
                    let eq = eq_bits[i];
                    let neq = b.not(eq);
                    outs.push(b.and_word_bit(&z, neq));
                    let keep = b.and_word_bit(&z, eq);
                    z = b.add_words(&keep, &vs[i + 1]);
                }
                outs.push(z);
            }
            AggKind::Support => {
                let inds: Vec<BitRef> = vs.iter().map(|v| b.is_nonzero_word(v)).collect();
                let mut acc = inds[0];
                for i in 0..n.saturating_sub(1) {
                    let eq = eq_bits[i];
                    let neq = b.not(eq);
                    let emitted = b.and(acc, neq);
                    outs.push(Word(vec![emitted]));
                    let kept = b.and(acc, eq);
                    acc = b.or(kept, inds[i + 1]);
                }
                outs.push(Word(vec![acc]));
            }
        }
        outs
    })
}

/// The path π⊕/π¹ takes, a function of public data only. The operator and
/// [`crate::shape::Plan`] both branch on it, so the plan lists a merge
/// circuit exactly when the operator runs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggRoute {
    /// §6.5: owner-known annotations are aggregated locally and stay plain.
    Local,
    /// No rows: nothing to aggregate.
    Empty,
    /// A grand total (empty grouping) under SUM is linear in the
    /// annotations, so each party folds its own shares: no communication.
    Linear,
    /// Shared OEP into sorted order, then the merge-gate circuit.
    Merge,
}

impl AggRoute {
    pub(crate) fn of(rel: Dims, attrs: &[String], kind: AggKind) -> AggRoute {
        if rel.is_plain {
            AggRoute::Local
        } else if rel.size == 0 {
            AggRoute::Empty
        } else if attrs.is_empty() && kind == AggKind::Sum {
            AggRoute::Linear
        } else {
            AggRoute::Merge
        }
    }
}

/// Oblivious π⊕_attrs(R) / π¹_attrs(R). Both parties call this with the
/// same public arguments; the output relation keeps the owner and the
/// public size N of the input.
pub fn oblivious_project_agg(
    sess: &mut Session,
    rel: &SecureRelation,
    attrs: &[String],
    kind: AggKind,
) -> SecureRelation {
    let n = rel.size;
    let mine = rel.is_mine(sess);
    // Owner side: the output tuples and dummy flags; both sides: shares.
    let (rows, annot_shares) = match AggRoute::of(rel.dims(), attrs, kind) {
        AggRoute::Local => return local_project_agg(sess, rel, attrs, kind),
        AggRoute::Empty => (mine.then(|| (Vec::new(), Vec::new())), Vec::new()),
        // Dummy annotations are shares of 0, so folding them in is
        // harmless. The single real output row sits at the public last
        // position; every other row is a dummy whose shares reconstruct
        // to 0, matching the merge-chain output contract.
        AggRoute::Linear => {
            let total = rel
                .annot_shares
                .iter()
                .fold(0u64, |acc, &v| sess.ring.add(acc, v));
            let mut shares = vec![0u64; n];
            shares[n - 1] = total;
            let mut dummy = vec![true; n];
            dummy[n - 1] = false;
            (mine.then(|| (vec![Vec::new(); n], dummy)), shares)
        }
        AggRoute::Merge => merge(sess, rel, attrs, kind),
    };
    let (tuples, dummy) = rows.unzip();
    SecureRelation {
        schema: attrs.to_vec(),
        owner: rel.owner,
        tuples,
        dummy,
        size: n,
        annot_shares,
        is_plain: false,
        plain_annots: None,
    }
}

/// Owner-side output rows (tuples, dummy flags) and my output shares.
type MergeOutput = (Option<(Vec<Vec<u64>>, Vec<bool>)>, Vec<u64>);

/// The shared OEP into sorted order, then the merge-gate circuit.
fn merge(sess: &mut Session, rel: &SecureRelation, attrs: &[String], kind: AggKind) -> MergeOutput {
    let n = rel.size;
    let ell = sess.ring.bits() as usize;
    let circuit = merge_circuit(n, ell, kind);
    let bits = kind.out_bits(ell);
    if rel.is_mine(sess) {
        let pos = rel.positions(attrs);
        let tuples = rel.tuples.as_ref().expect("owner side");
        let dummies = rel.dummy.as_ref().expect("owner side");
        // Sort real rows by the projected key; dummies go last, each its
        // own singleton group.
        let mut order: Vec<usize> = (0..n).collect();
        let proj = |i: usize| -> Vec<u64> { pos.iter().map(|&p| tuples[i][p]).collect() };
        order.sort_by(|&i, &j| (dummies[i], proj(i)).cmp(&(dummies[j], proj(j))));
        // Shared OEP: permute the annotation shares into sorted order.
        let my_sorted = shared_oep_perm_holder(
            sess.ch,
            &order,
            &rel.annot_shares,
            sess.ring,
            &mut sess.ot_recv,
        );
        // Equality chain bits over the sorted order.
        let eq: Vec<bool> = (0..n - 1)
            .map(|i| {
                let (a, b) = (order[i], order[i + 1]);
                !dummies[a] && !dummies[b] && proj(a) == proj(b)
            })
            .collect();
        let mut my_bits: Vec<bool> = eq.clone();
        for &s in &my_sorted {
            my_bits.extend(u64_to_bits(s, ell));
        }
        let out_shares = sess.garble_words(&circuit, bits, &my_bits);
        // Build the output rows: group-end rows are real, others dummy.
        let mut out_tuples = Vec::with_capacity(n);
        let mut out_dummy = Vec::with_capacity(n);
        for i in 0..n {
            let src = order[i];
            out_tuples.push(proj(src));
            let is_end = i == n - 1 || !eq[i];
            out_dummy.push(dummies[src] || !is_end);
        }
        (Some((out_tuples, out_dummy)), out_shares)
    } else {
        let my_sorted = shared_oep_other(
            sess.ch,
            &rel.annot_shares,
            n,
            sess.ring,
            &mut sess.ot_send,
            &mut sess.rng,
        );
        let mut my_bits: Vec<bool> = Vec::with_capacity(n * ell);
        for &s in &my_sorted {
            my_bits.extend(u64_to_bits(s, ell));
        }
        (None, sess.evaluate_words(&circuit, bits, &my_bits))
    }
}

/// §6.5: the owner aggregates locally, padding the result back to the
/// public input size with dummies. No communication.
fn local_project_agg(
    sess: &mut Session,
    rel: &SecureRelation,
    attrs: &[String],
    kind: AggKind,
) -> SecureRelation {
    let n = rel.size;
    if !rel.is_mine(sess) {
        return SecureRelation {
            schema: attrs.to_vec(),
            owner: rel.owner,
            tuples: None,
            dummy: None,
            size: n,
            annot_shares: vec![0; n],
            is_plain: true,
            plain_annots: None,
        };
    }
    let pos = rel.positions(attrs);
    let tuples = rel.tuples.as_ref().expect("owner side");
    let dummies = rel.dummy.as_ref().expect("owner side");
    let plain = rel.plain_annots.as_ref().expect("plain annots");
    let mut groups: std::collections::HashMap<Vec<u64>, u64> = std::collections::HashMap::new();
    let mut order: Vec<Vec<u64>> = Vec::new();
    for i in 0..n {
        if dummies[i] {
            continue;
        }
        let key: Vec<u64> = pos.iter().map(|&p| tuples[i][p]).collect();
        let v = plain[i];
        match groups.get_mut(&key) {
            Some(acc) => {
                *acc = match kind {
                    AggKind::Sum => sess.ring.add(*acc, v),
                    AggKind::Support => {
                        if *acc == 1 || v != 0 {
                            1
                        } else {
                            0
                        }
                    }
                }
            }
            None => {
                let init = match kind {
                    AggKind::Sum => v,
                    AggKind::Support => (v != 0) as u64,
                };
                groups.insert(key.clone(), init);
                order.push(key);
            }
        }
    }
    let mut out_tuples = Vec::with_capacity(n);
    let mut out_dummy = Vec::with_capacity(n);
    let mut out_annots = Vec::with_capacity(n);
    for key in &order {
        out_tuples.push(key.clone());
        out_dummy.push(false);
        out_annots.push(groups[key]);
    }
    while out_tuples.len() < n {
        out_tuples.push(vec![0; attrs.len()]);
        out_dummy.push(true);
        out_annots.push(0);
    }
    SecureRelation {
        schema: attrs.to_vec(),
        owner: rel.owner,
        tuples: Some(out_tuples),
        dummy: Some(out_dummy),
        size: n,
        annot_shares: vec![0; n],
        is_plain: true,
        plain_annots: Some(out_annots),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::RingCtx;
    use secyan_relation::{NaturalRing, Relation};
    use secyan_transport::{run_protocol, Role};
    use std::collections::HashMap;

    /// Run oblivious aggregation end-to-end and reconstruct (key → value).
    fn run_agg(
        rows: Vec<(Vec<u64>, u64)>,
        schema: Vec<&str>,
        attrs: Vec<&str>,
        kind: AggKind,
        force_shared: bool,
    ) -> HashMap<Vec<u64>, u64> {
        let schema: Vec<String> = schema.into_iter().map(|s| s.to_string()).collect();
        let attrs: Vec<String> = attrs.into_iter().map(|s| s.to_string()).collect();
        let rel = Relation::from_rows(NaturalRing::paper_default(), schema.clone(), rows);
        let (sch_a, sch_b) = (schema.clone(), schema);
        let (at_a, at_b) = (attrs.clone(), attrs);
        let ((out_a, tuples, dummy), out_b, _) = run_protocol(
            move |ch| {
                let mut sess = crate::session::Session::new(
                    ch,
                    RingCtx::new(32),
                    secyan_crypto::TweakHasher::Sha256,
                    71,
                );
                let mut r = SecureRelation::load(&mut sess, Role::Alice, sch_a, Some(&rel));
                if force_shared {
                    r.ensure_shared(&mut sess);
                }
                let mut out = oblivious_project_agg(&mut sess, &r, &at_a, kind);
                out.ensure_shared(&mut sess);
                (
                    out.annot_shares.clone(),
                    out.tuples.clone().unwrap(),
                    out.dummy.clone().unwrap(),
                )
            },
            move |ch| {
                let mut sess = crate::session::Session::new(
                    ch,
                    RingCtx::new(32),
                    secyan_crypto::TweakHasher::Sha256,
                    72,
                );
                let mut r = SecureRelation::load(&mut sess, Role::Alice, sch_b, None);
                if force_shared {
                    r.ensure_shared(&mut sess);
                }
                let mut out = oblivious_project_agg(&mut sess, &r, &at_b, kind);
                out.ensure_shared(&mut sess);
                out.annot_shares.clone()
            },
        );
        let ring = RingCtx::new(32);
        let mut result = HashMap::new();
        for i in 0..tuples.len() {
            let v = ring.reconstruct(out_a[i], out_b[i]);
            if dummy[i] {
                assert_eq!(v, 0, "dummy row {i} must carry a zero annotation");
            } else {
                assert!(result.insert(tuples[i].clone(), v).is_none());
            }
        }
        result
    }

    #[test]
    fn sum_groups_correctly() {
        for force_shared in [false, true] {
            let got = run_agg(
                vec![
                    (vec![1, 10], 5),
                    (vec![2, 20], 7),
                    (vec![1, 30], 11),
                    (vec![2, 40], 1),
                    (vec![3, 50], 9),
                ],
                vec!["g", "x"],
                vec!["g"],
                AggKind::Sum,
                force_shared,
            );
            let want: HashMap<Vec<u64>, u64> = [(vec![1], 16), (vec![2], 8), (vec![3], 9)]
                .into_iter()
                .collect();
            assert_eq!(got, want, "force_shared={force_shared}");
        }
    }

    #[test]
    fn support_is_binary() {
        for force_shared in [false, true] {
            let got = run_agg(
                vec![
                    (vec![1], 0),
                    (vec![1], 0),
                    (vec![2], 3),
                    (vec![2], 4),
                    (vec![3], 0),
                ],
                vec!["g"],
                vec!["g"],
                AggKind::Support,
                force_shared,
            );
            // Group 1: all zero → support 0 (its row reconstructs to 0, so
            // it is indistinguishable from a dummy and dropped from the
            // map only if flagged; the oblivious path flags group ends as
            // real, so key [1] appears with value 0).
            assert_eq!(got.get(&vec![2u64]), Some(&1));
            assert_eq!(got.get(&vec![1u64]).copied().unwrap_or(0), 0);
            assert_eq!(got.get(&vec![3u64]).copied().unwrap_or(0), 0);
        }
    }

    #[test]
    fn grand_total_empty_attrs() {
        let got = run_agg(
            vec![(vec![1], 5), (vec![2], 6), (vec![3], 7)],
            vec!["x"],
            vec![],
            AggKind::Sum,
            true,
        );
        assert_eq!(got.get(&vec![]), Some(&18));
    }

    #[test]
    fn single_row_relation() {
        let got = run_agg(
            vec![(vec![9], 42)],
            vec!["x"],
            vec!["x"],
            AggKind::Sum,
            true,
        );
        assert_eq!(got.get(&vec![9u64]), Some(&42));
    }
}
