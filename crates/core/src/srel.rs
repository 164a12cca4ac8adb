//! Secure (shared-annotation) relations.
//!
//! A [`SecureRelation`] is the protocol-time form of an annotated relation
//! (paper §6 requirements (1)–(3)): the tuples are held in the clear by
//! exactly one party (the *owner*), the size and schema are public, and
//! the annotations exist only as additive shares split between the two
//! parties, aligned by tuple index. Dummy tuples — padding whose
//! annotation shares reconstruct to 0 — are tracked on the owner side
//! only; the other party cannot tell them apart from real rows.

use crate::query::SecureQuery;
use crate::session::Session;
use crate::shape::Dims;
use secyan_crypto::sha256::{digest_to_u64, Sha256};
use secyan_relation::{NaturalRing, Relation};
use secyan_transport::{ReadExt, Role, WriteExt};

/// One party's view of a secure relation.
#[derive(Debug, Clone)]
pub struct SecureRelation {
    /// Public: attribute names.
    pub schema: Vec<String>,
    /// Public: which party holds the tuples.
    pub owner: Role,
    /// Owner side: the tuple values (row-major, one `u64` per attribute).
    /// `None` on the non-owner side; the public length is `size`.
    pub tuples: Option<Vec<Vec<u64>>>,
    /// Owner side: dummy flags (same length as `tuples`).
    pub dummy: Option<Vec<bool>>,
    /// Public: number of rows.
    pub size: usize,
    /// My additive shares of the annotations (`size` entries; meaningful
    /// only once `is_plain` is false).
    pub annot_shares: Vec<u64>,
    /// Public plan-level flag (§6.5 optimization): true while the
    /// annotations are still fully known to the owner, letting
    /// aggregations run locally and PSI use plain payloads. Flips to
    /// false after [`SecureRelation::ensure_shared`].
    pub is_plain: bool,
    /// Owner side, valid while `is_plain`: the cleartext annotations.
    pub plain_annots: Option<Vec<u64>>,
}

impl SecureRelation {
    /// Load an owner-local annotated relation into the protocol. Only the
    /// public size travels; the annotations stay owner-known (`is_plain`)
    /// until an operator needs them shared (§6.5 optimization). Both
    /// parties call this with the same public `owner`; the owner passes
    /// `Some(relation)`.
    pub fn load(
        sess: &mut Session,
        owner: Role,
        schema: Vec<String>,
        rel: Option<&Relation<NaturalRing>>,
    ) -> SecureRelation {
        if sess.role() == owner {
            let rel = rel.expect("owner must supply the relation");
            sess.ch.send_u64(rel.len() as u64);
            Self::from_owned(sess, owner, schema, rel)
        } else {
            let size = crate::session::recv_declared_size(sess.ch, "relation");
            Self::from_declared(owner, schema, size)
        }
    }

    /// Load every relation of `query` in one declaration round: every size
    /// this side owns is staged before any peer declaration is received,
    /// so all size messages of one direction coalesce into a single
    /// super-frame instead of ping-ponging once per relation. Both parties
    /// call this with the same public query; owners pass `Some(relation)`
    /// at their positions of `my_relations`.
    pub fn load_all(
        sess: &mut Session,
        query: &SecureQuery,
        my_relations: &[Option<Relation<NaturalRing>>],
    ) -> Vec<SecureRelation> {
        assert_eq!(my_relations.len(), query.len());
        let role = sess.role();
        let owned = |i: usize| {
            my_relations[i]
                .as_ref()
                .expect("owner must supply the relation")
        };
        // Both parties arrive here with dependency-free declarations — a
        // simultaneous round. If both staged eagerly, the two opening
        // sends would race and the round meters would depend on thread
        // scheduling. Deterministic rule: only the plan-first relation's
        // owner declares eagerly; the peer defers each declaration to its
        // slot in pass 2, by which point it has already blocked on the
        // eager side's super-frame (its first slot is a receive). The
        // deferred declarations still coalesce — they stage ahead of
        // whatever this side sends next in the same direction.
        let i_go_first = query.owners.first().is_none_or(|&owner| owner == role);
        if i_go_first {
            // Pass 1: stage every owned size, in plan order.
            for i in (0..query.len()).filter(|&i| query.owners[i] == role) {
                sess.ch.send_u64(owned(i).len() as u64);
            }
        }
        // Pass 2: build; the peer's declarations arrive in plan order.
        (0..query.len())
            .map(|i| {
                let (owner, schema) = (query.owners[i], query.schemas[i].clone());
                if owner == role {
                    if !i_go_first {
                        sess.ch.send_u64(owned(i).len() as u64);
                    }
                    Self::from_owned(sess, owner, schema, owned(i))
                } else {
                    let size = crate::session::recv_declared_size(sess.ch, "relation");
                    Self::from_declared(owner, schema, size)
                }
            })
            .collect()
    }

    /// Owner-side constructor (size already declared on the wire).
    fn from_owned(
        sess: &mut Session,
        owner: Role,
        schema: Vec<String>,
        rel: &Relation<NaturalRing>,
    ) -> SecureRelation {
        assert_eq!(rel.schema, schema);
        let size = rel.len();
        let plain: Vec<u64> = rel.annots.iter().map(|&v| sess.ring.reduce(v)).collect();
        SecureRelation {
            schema,
            owner,
            tuples: Some(rel.tuples.clone()),
            dummy: Some(vec![false; size]),
            size,
            annot_shares: vec![0; size],
            is_plain: true,
            plain_annots: Some(plain),
        }
    }

    /// Non-owner-side constructor from the declared public size.
    fn from_declared(owner: Role, schema: Vec<String>, size: usize) -> SecureRelation {
        SecureRelation {
            schema,
            owner,
            tuples: None,
            dummy: None,
            size,
            annot_shares: vec![0; size],
            is_plain: true,
            plain_annots: None,
        }
    }

    /// Convert owner-known annotations into additive shares (no-op when
    /// already shared). The transition is part of the public plan, so both
    /// parties always agree on whether this communicates.
    pub fn ensure_shared(&mut self, sess: &mut Session) {
        if !self.is_plain {
            return;
        }
        if sess.role() == self.owner {
            let plain = self.plain_annots.take().expect("owner holds plain annots");
            let mut mine = Vec::with_capacity(self.size);
            let mut theirs = Vec::with_capacity(self.size);
            for &v in &plain {
                let (a, b) = sess.ring.share(v, &mut sess.rng);
                mine.push(a);
                theirs.push(b);
            }
            sess.ch.send_u64_slice(&theirs);
            self.annot_shares = mine;
        } else {
            self.annot_shares = sess.ch.recv_u64_vec(self.size);
        }
        self.is_plain = false;
    }

    /// The public fields every operator choice reads.
    pub(crate) fn dims(&self) -> Dims {
        Dims {
            owner: self.owner,
            size: self.size,
            is_plain: self.is_plain,
        }
    }

    /// Am I the owner?
    pub fn is_mine(&self, sess: &Session) -> bool {
        sess.role() == self.owner
    }

    /// The column positions of `attrs`.
    pub fn positions(&self, attrs: &[String]) -> Vec<usize> {
        attrs
            .iter()
            .map(|a| {
                self.schema
                    .iter()
                    .position(|s| s == a)
                    .unwrap_or_else(|| panic!("attribute {a} not in {:?}", self.schema))
            })
            .collect()
    }

    /// Owner-side: the 64-bit join key of row `i` on column positions
    /// `pos`. Dummy rows draw a fresh never-matching key from `nonce`.
    pub fn join_key(&self, i: usize, pos: &[usize], nonce: u64) -> u64 {
        let tuples = self.tuples.as_ref().expect("owner side");
        if self.dummy.as_ref().expect("owner side")[i] {
            return dummy_key(nonce, i as u64);
        }
        key64(pos.iter().map(|&p| tuples[i][p]))
    }
}

/// Collision-resistant 64-bit encoding of a composite join key.
pub fn key64(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Sha256::new();
    h.update(b"join-key");
    for v in values {
        h.update(&v.to_le_bytes());
    }
    digest_to_u64(&h.finalize())
}

/// A fresh key guaranteed (whp) not to collide with any real join key.
pub fn dummy_key(nonce: u64, index: u64) -> u64 {
    let mut h = Sha256::new();
    h.update(b"dummy-key");
    h.update(&nonce.to_le_bytes());
    h.update(&index.to_le_bytes());
    digest_to_u64(&h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_transport::run_protocol;

    #[test]
    fn load_shares_annotations() {
        let ring = NaturalRing::paper_default();
        let rel = Relation::from_rows(
            ring,
            vec!["a".into()],
            vec![(vec![1], 10), (vec![2], 20), (vec![3], 30)],
        );
        let schema = vec!["a".to_string()];
        let (sa, sb) = (schema.clone(), schema.clone());
        let (a, b, _) = run_protocol(
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 1);
                let mut r = SecureRelation::load(&mut s, Role::Alice, sa, Some(&rel));
                let plain = r.plain_annots.clone();
                r.ensure_shared(&mut s);
                (r, plain)
            },
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 2);
                let mut r = SecureRelation::load(&mut s, Role::Alice, sb, None);
                r.ensure_shared(&mut s);
                r
            },
        );
        let (a, plain) = a;
        assert_eq!(a.size, 3);
        assert_eq!(b.size, 3);
        assert!(a.tuples.is_some());
        assert!(b.tuples.is_none());
        assert!(!a.is_plain && !b.is_plain);
        assert_eq!(plain.as_deref(), Some(&[10u64, 20, 30][..]));
        let ring = RingCtx::new(32);
        let got = ring.reconstruct_vec(&a.annot_shares, &b.annot_shares);
        assert_eq!(got, vec![10, 20, 30]);
        // Shares alone are blinded.
        assert_ne!(a.annot_shares, vec![10, 20, 30]);
    }

    #[test]
    fn join_keys_distinguish_dummies() {
        let k1 = key64([1, 2]);
        let k2 = key64([1, 3]);
        assert_ne!(k1, k2);
        assert_ne!(dummy_key(5, 0), dummy_key(5, 1));
        assert_ne!(dummy_key(5, 0), k1);
    }

    #[test]
    fn load_bool_annotations_reduce_into_ring() {
        // NaturalRing values beyond the ring mask get reduced at load.
        let ring = NaturalRing(RingCtx::new(8));
        let rel = Relation::from_rows(ring, vec!["a".into()], vec![(vec![1], 300)]);
        let schema = vec!["a".to_string()];
        let (sa, sb) = (schema.clone(), schema.clone());
        let (a, b, _) = run_protocol(
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(8), TweakHasher::Sha256, 3);
                let mut r = SecureRelation::load(&mut s, Role::Alice, sa, Some(&rel));
                r.ensure_shared(&mut s);
                r
            },
            move |ch| {
                let mut s = Session::new(ch, RingCtx::new(8), TweakHasher::Sha256, 4);
                let mut r = SecureRelation::load(&mut s, Role::Alice, sb, None);
                r.ensure_shared(&mut s);
                r
            },
        );
        let ring = RingCtx::new(8);
        assert_eq!(
            ring.reconstruct(a.annot_shares[0], b.annot_shares[0]),
            300 % 256
        );
    }
}
