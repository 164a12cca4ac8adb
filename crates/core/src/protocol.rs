//! The secure Yannakakis driver (paper §6.4).
//!
//! Both parties run this function with the same public [`SecureQuery`];
//! each passes its own relations' data. After the batched size
//! declarations, the driver compiles the public [`Plan`] — which operator
//! runs on which node, in which order, with which circuits — and executes
//! its steps. The phases follow `secyan_relation::yannakakis`:
//!
//! 1. **Reduce**: bottom-up, each node is either folded into its parent
//!    (π⊕ + reduce-join) or kept with its non-output attributes
//!    aggregated away.
//! 2. **Semijoin**: bottom-up then top-down passes mark dangling tuples by
//!    zeroing their annotation shares (nothing is physically removed —
//!    sizes are public).
//! 3. **Full join**: reveal supports, local join, OEP + product circuit
//!    (§6.3). When the reduce phase leaves a single node (e.g. TPC-H Q3),
//!    the driver skips phases 2–3 and reveals that node directly.

use crate::agg::oblivious_project_agg;
use crate::join::{oblivious_join, JoinOutput};
use crate::query::SecureQuery;
use crate::semijoin::{oblivious_reduce_join, oblivious_semijoin};
use crate::session::Session;
use crate::shape::{Op, Plan};
use crate::srel::SecureRelation;
use secyan_relation::{NaturalRing, Relation};
use secyan_transport::Role;

/// The receiver-side result of a secure query (the other party's copy has
/// empty tuples/values and only the public `out_size`).
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Vec<String>,
    pub tuples: Vec<Vec<u64>>,
    pub values: Vec<u64>,
    pub out_size: usize,
}

/// Shared-form result used for query composition (§7): the receiver knows
/// the tuples; the aggregate of row i stays split between the parties.
#[derive(Debug, Clone)]
pub struct SharedQueryResult {
    pub schema: Vec<String>,
    pub tuples: Vec<Vec<u64>>,
    pub annot_shares: Vec<u64>,
    pub out_size: usize,
}

/// How one executed plan step met its garbled circuits on this party.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepUse {
    /// Pre-garbled circuits consumed from offline material.
    pub pooled: usize,
    /// Circuits garbled or evaluated inline.
    pub inline: usize,
}

/// Run the secure Yannakakis protocol, revealing the results to
/// `receiver`. `my_relations[i]` is `Some` iff this party owns relation i.
pub fn secure_yannakakis(
    sess: &mut Session,
    query: &SecureQuery,
    my_relations: &[Option<Relation<NaturalRing>>],
    receiver: Role,
) -> QueryResult {
    execute(sess, query, my_relations, receiver, true).0.into()
}

/// Like [`secure_yannakakis`] but leaving the aggregates in shared form
/// for composition (§7).
pub fn secure_yannakakis_shared(
    sess: &mut Session,
    query: &SecureQuery,
    my_relations: &[Option<Relation<NaturalRing>>],
    receiver: Role,
) -> SharedQueryResult {
    let out = execute(sess, query, my_relations, receiver, false).0;
    SharedQueryResult {
        schema: out.schema,
        tuples: out.tuples,
        annot_shares: out.annot_shares,
        out_size: out.out_size,
    }
}

impl From<JoinOutput> for QueryResult {
    fn from(out: JoinOutput) -> QueryResult {
        QueryResult {
            schema: out.schema,
            tuples: out.tuples,
            values: out.values,
            out_size: out.out_size,
        }
    }
}

/// Load the relations, compile the [`Plan`] and execute its steps,
/// reporting how each step met its circuits.
pub(crate) fn execute(
    sess: &mut Session,
    query: &SecureQuery,
    my_relations: &[Option<Relation<NaturalRing>>],
    receiver: Role,
    reveal: bool,
) -> (JoinOutput, Vec<StepUse>) {
    // Load: one batched declaration round for every relation in the plan.
    let mut rels = SecureRelation::load_all(sess, query, my_relations);
    let sizes: Vec<usize> = rels.iter().map(|r| r.size).collect();
    let plan = Plan::compile(query, &sizes, receiver, sess.ring.bits() as usize);
    let mut out = None;
    let mut uses = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        let (banked, inline) = (sess.banked_circuits(), sess.inline_circuits);
        match &step.op {
            Op::ProjectAgg { node, attrs, kind } => {
                rels[*node] = oblivious_project_agg(sess, &rels[*node], attrs, *kind);
            }
            Op::ReduceJoin { f, g } | Op::Semijoin { f, g } => {
                let (mut rf, mut rg) = (rels[*f].clone(), rels[*g].clone());
                rels[*f] = if matches!(step.op, Op::Semijoin { .. }) {
                    oblivious_semijoin(sess, &mut rf, &mut rg)
                } else {
                    oblivious_reduce_join(sess, &mut rf, &mut rg)
                };
            }
            Op::Finish { order } => {
                let mut folded: Vec<SecureRelation> =
                    order.iter().map(|&i| rels[i].clone()).collect();
                out = Some(oblivious_join(sess, &mut folded, receiver, reveal));
            }
        }
        uses.push(StepUse {
            pooled: banked - sess.banked_circuits(),
            inline: sess.inline_circuits - inline,
        });
    }
    (out.expect("a plan ends with its finish step"), uses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_crypto::{RingCtx, TweakHasher};
    use secyan_relation::naive::naive_join_aggregate;
    use secyan_relation::JoinTree;
    use secyan_transport::run_protocol;
    use std::collections::HashMap;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Run the secure protocol end-to-end and return the receiver's
    /// (tuple → value) map, canonicalized over the output schema order.
    fn run_secure(
        query: SecureQuery,
        alice_rels: Vec<Option<Relation<NaturalRing>>>,
        bob_rels: Vec<Option<Relation<NaturalRing>>>,
    ) -> (Vec<String>, HashMap<Vec<u64>, u64>) {
        let q2 = query.clone();
        let (res, _, _) = run_protocol(
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 101);
                secure_yannakakis(&mut sess, &query, &alice_rels, Role::Alice)
            },
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 102);
                secure_yannakakis(&mut sess, &q2, &bob_rels, Role::Alice)
            },
        );
        let mut map = HashMap::new();
        for (t, &v) in res.tuples.iter().zip(&res.values) {
            let prev = map.insert(t.clone(), v);
            assert!(prev.is_none(), "duplicate output tuple {t:?}");
        }
        (res.schema, map)
    }

    /// Canonicalize a plaintext result against a given schema order.
    fn expect_map(
        rels: &[Relation<NaturalRing>],
        output: &[String],
        schema: &[String],
    ) -> HashMap<Vec<u64>, u64> {
        let want = naive_join_aggregate(rels, output);
        let pos: Vec<usize> = schema
            .iter()
            .map(|a| want.schema.iter().position(|s| s == a).expect("attr"))
            .collect();
        want.tuples
            .iter()
            .zip(&want.annots)
            .map(|(t, &v)| (pos.iter().map(|&p| t[p]).collect(), v))
            .collect()
    }

    fn example_1_1() -> Vec<Relation<NaturalRing>> {
        let ring = NaturalRing::paper_default();
        vec![
            Relation::from_rows(
                ring,
                strings(&["person"]),
                vec![(vec![1], 80), (vec![2], 50), (vec![3], 70)],
            ),
            Relation::from_rows(
                ring,
                strings(&["person", "disease"]),
                vec![
                    (vec![1, 10], 1000),
                    (vec![1, 11], 500),
                    (vec![2, 10], 2000),
                    (vec![9, 10], 400), // dangling person
                ],
            ),
            Relation::from_rows(
                ring,
                strings(&["disease", "class"]),
                vec![(vec![10, 7], 1), (vec![11, 8], 1), (vec![12, 9], 1)],
            ),
        ]
    }

    #[test]
    fn example_1_1_end_to_end() {
        // Alice = insurance (R1, R3), Bob = hospital (R2) — the paper's
        // exact scenario. The reduce phase collapses the whole chain, so
        // this exercises the single-survivor reveal path.
        let rels = example_1_1();
        let query = SecureQuery::new(
            vec![
                strings(&["person"]),
                strings(&["person", "disease"]),
                strings(&["disease", "class"]),
            ],
            vec![Role::Alice, Role::Bob, Role::Alice],
            JoinTree::chain(3),
            strings(&["class"]),
        );
        let (schema, got) = run_secure(
            query,
            vec![Some(rels[0].clone()), None, Some(rels[2].clone())],
            vec![None, Some(rels[1].clone()), None],
        );
        let want = expect_map(&rels, &strings(&["class"]), &schema);
        assert_eq!(got, want);
    }

    #[test]
    fn group_by_join_attribute_full_join_path() {
        // Output includes attributes from two nodes, so the reduce phase
        // keeps several survivors and the full-join path runs.
        let ring = NaturalRing::paper_default();
        let r1 = Relation::from_rows(
            ring,
            strings(&["a", "b"]),
            vec![(vec![1, 10], 2), (vec![2, 20], 3), (vec![3, 10], 5)],
        );
        let r2 = Relation::from_rows(
            ring,
            strings(&["b", "c"]),
            vec![(vec![10, 100], 7), (vec![20, 200], 11), (vec![30, 300], 13)],
        );
        let out = strings(&["a", "b", "c"]);
        let query = SecureQuery::new(
            vec![strings(&["a", "b"]), strings(&["b", "c"])],
            vec![Role::Alice, Role::Bob],
            JoinTree::chain(2),
            out.clone(),
        );
        let (schema, got) = run_secure(
            query,
            vec![Some(r1.clone()), None],
            vec![None, Some(r2.clone())],
        );
        let want = expect_map(&[r1, r2], &out, &schema);
        assert_eq!(got, want);
    }

    #[test]
    fn three_relations_with_survivors() {
        // Chain of 3 with group-by on the two outer join attributes:
        // exercises reduce + semijoin + full join together.
        let ring = NaturalRing::paper_default();
        let r1 = Relation::from_rows(
            ring,
            strings(&["a", "b"]),
            vec![
                (vec![1, 5], 1),
                (vec![2, 5], 2),
                (vec![3, 6], 3),
                (vec![4, 7], 4),
            ],
        );
        let r2 = Relation::from_rows(
            ring,
            strings(&["b", "c"]),
            vec![(vec![5, 8], 10), (vec![6, 9], 20), (vec![6, 8], 30)],
        );
        let r3 = Relation::from_rows(
            ring,
            strings(&["c", "d"]),
            vec![(vec![8, 1], 100), (vec![9, 1], 200), (vec![9, 2], 300)],
        );
        let out = strings(&["b", "c"]);
        // Rooted at R2(b,c) so both output attributes' TOPs sit at the
        // root, witnessing free-connexity.
        let query = SecureQuery::new(
            vec![
                strings(&["a", "b"]),
                strings(&["b", "c"]),
                strings(&["c", "d"]),
            ],
            vec![Role::Alice, Role::Bob, Role::Alice],
            JoinTree::new(vec![Some(1), None, Some(1)]),
            out.clone(),
        );
        let (schema, got) = run_secure(
            query,
            vec![Some(r1.clone()), None, Some(r3.clone())],
            vec![None, Some(r2.clone()), None],
        );
        let want = expect_map(&[r1, r2, r3], &out, &schema);
        assert_eq!(got, want);
    }

    #[test]
    fn count_star_scalar_query() {
        // O = ∅: the secure COUNT(*)-style scalar aggregate.
        let ring = NaturalRing::paper_default();
        let r1 = Relation::from_rows(
            ring,
            strings(&["a"]),
            vec![(vec![1], 1), (vec![2], 1), (vec![3], 1)],
        );
        let r2 = Relation::from_rows(
            ring,
            strings(&["a", "b"]),
            vec![
                (vec![1, 1], 1),
                (vec![1, 2], 1),
                (vec![3, 1], 1),
                (vec![4, 4], 1),
            ],
        );
        let out: Vec<String> = vec![];
        let query = SecureQuery::new(
            vec![strings(&["a"]), strings(&["a", "b"])],
            vec![Role::Alice, Role::Bob],
            JoinTree::chain(2),
            out.clone(),
        );
        let (_, got) = run_secure(
            query,
            vec![Some(r1.clone()), None],
            vec![None, Some(r2.clone())],
        );
        assert_eq!(got.get(&vec![]), Some(&3));
    }

    #[test]
    fn bob_as_receiver_owner_side_reveal() {
        // The receiver owns the final relation: owner == receiver path.
        let ring = NaturalRing::paper_default();
        let r1 = Relation::from_rows(ring, strings(&["a"]), vec![(vec![1], 5), (vec![2], 6)]);
        let r2 = Relation::from_rows(
            ring,
            strings(&["a", "g"]),
            vec![(vec![1, 77], 10), (vec![2, 88], 100), (vec![2, 77], 1)],
        );
        let out = strings(&["g"]);
        let query = SecureQuery::new(
            vec![strings(&["a"]), strings(&["a", "g"])],
            vec![Role::Alice, Role::Bob],
            JoinTree::chain(2),
            out.clone(),
        );
        let q2 = query.clone();
        let (_, res, _) = run_protocol(
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 103);
                secure_yannakakis(&mut sess, &query, &[Some(r1.clone()), None], Role::Bob)
            },
            move |ch| {
                let mut sess = Session::new(ch, RingCtx::new(32), TweakHasher::Sha256, 104);
                secure_yannakakis(&mut sess, &q2, &[None, Some(r2.clone())], Role::Bob)
            },
        );
        let mut got: Vec<(Vec<u64>, u64)> = res
            .tuples
            .iter()
            .cloned()
            .zip(res.values.iter().copied())
            .collect();
        got.sort();
        // g=77: 5·10 + 6·1 = 56; g=88: 6·100 = 600.
        assert_eq!(got, vec![(vec![77], 56), (vec![88], 600)]);
    }
}
