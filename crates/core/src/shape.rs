//! Query shapes and the compiled plan: the public skeleton an offline phase
//! can precompute for.
//!
//! Everything the secure Yannakakis driver *does* — which operator runs on
//! which node, which circuits get garbled, how much OT each step draws —
//! is a function of the public plan: the join tree, the schemas, the
//! per-relation sizes, the annotation ring width, and who receives the
//! result (§6.4). That is the protocol's obliviousness property, and it is
//! also exactly what makes an offline/online split possible: two queries
//! with the same *shape* consume interchangeable precomputed material, no
//! matter how their private tuples differ.
//!
//! [`Plan::compile`] walks the join tree once and returns the ordered
//! operator [`Step`]s with the parameters ([`GcSpec`]) of their circuits.
//! The online driver ([`crate::protocol`]) executes those steps, and
//! [`QueryShape::derive`] lists their circuits for the offline phase. Every
//! public choice of an operator lives in one function that the operator
//! and the plan both call (`AggRoute::of`, `JoinRoute::of`), so every
//! planned circuit is consumed, in order. The one unplanned circuit is the
//! full-join product tree: its row count is the data-dependent join output
//! size, so it always garbles inline. Consumption is digest-checked
//! ([`secyan_gc::circuit_digest`]) as a safety net.

use crate::agg::{merge_circuit, AggKind, AggRoute};
use crate::join::{reveal_circuit, sends_tuples};
use crate::query::SecureQuery;
use crate::semijoin::{product_ots, shared_attrs, JoinRoute};
use secyan_circuit::Circuit;
use secyan_crypto::sha256::{digest_to_u64, Sha256};
use secyan_psi::{k_circuit, matching_circuit, matching_ots};
use secyan_transport::Role;

/// Canonical 64-bit fingerprint of a query shape: join-tree topology,
/// schemas, owners, per-relation sizes, annotation bit width, and the
/// receiving party. Two runs with equal keys execute byte-identical
/// public transcript skeletons and can share precomputed material.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeKey(pub u64);

impl ShapeKey {
    /// Compute the key alone, without planning circuits — the cheap lookup
    /// path for pool queries ([`crate::preproc::PreprocPool`]). Hashes
    /// every public component of the plan; length prefixes keep the
    /// encoding injective.
    pub fn of(query: &SecureQuery, sizes: &[usize], receiver: Role, ell: usize) -> ShapeKey {
        assert_eq!(sizes.len(), query.len(), "one size per relation");
        let mut h = Sha256::new();
        h.update(b"secyan-shape-v1");
        h.update(&(ell as u64).to_le_bytes());
        h.update(&[receiver.is_alice() as u8]);
        h.update(&(query.len() as u64).to_le_bytes());
        for (i, &size) in sizes.iter().enumerate() {
            h.update(&[query.owners[i].is_alice() as u8]);
            h.update(&(size as u64).to_le_bytes());
            h.update(&(query.schemas[i].len() as u64).to_le_bytes());
            for a in &query.schemas[i] {
                h.update(&(a.len() as u64).to_le_bytes());
                h.update(a.as_bytes());
            }
            // Parent index (or the node's own index for the root) pins the
            // tree topology.
            let p = query.tree.parent(i).unwrap_or(i);
            h.update(&(p as u64).to_le_bytes());
        }
        h.update(&(query.output.len() as u64).to_le_bytes());
        for a in &query.output {
            h.update(&(a.len() as u64).to_le_bytes());
            h.update(a.as_bytes());
        }
        ShapeKey(digest_to_u64(&h.finalize()))
    }
}

/// One garbled circuit the online driver will run, in execution order.
#[derive(Debug, Clone)]
pub struct PlannedCircuit {
    /// The exact circuit, built from the plan step's [`GcSpec`].
    pub circuit: Circuit,
    /// Which party garbles it; the other evaluates.
    pub garbler: Role,
}

/// A derived query shape: the pool key, the plannable circuit schedule,
/// and the OT bank budget.
#[derive(Debug, Clone)]
pub struct QueryShape {
    pub key: ShapeKey,
    /// Garbled circuits of the compiled plan's steps, in the order the
    /// online driver executes them.
    pub planned: Vec<PlannedCircuit>,
    /// Number of offline random OTs to bank per direction. A deterministic
    /// (deliberately generous) function of the shape, so both parties
    /// always build equal-sized banks and their pooled-vs-inline decisions
    /// stay mirrored.
    pub ot_budget: usize,
    /// Number of KKRT OPRF instances to bank per direction (sender and
    /// receiver extensions both sized to this): exactly what the plan's
    /// circuit-PSIs draw ([`Plan::kkrt_instances`]).
    pub kkrt_budget: usize,
}

impl QueryShape {
    /// Derive the shape of running `query` with the given public
    /// per-relation sizes, revealing to `receiver`, over an `ell`-bit
    /// annotation ring. Both parties must call this with identical
    /// arguments (all public), and the result is deterministic.
    pub fn derive(query: &SecureQuery, sizes: &[usize], receiver: Role, ell: usize) -> QueryShape {
        let key = ShapeKey::of(query, sizes, receiver, ell);
        let plan = Plan::compile(query, sizes, receiver, ell);
        let planned: Vec<PlannedCircuit> = plan
            .circuits()
            .map(|pg| PlannedCircuit {
                circuit: pg.gc.build(plan.ell),
                garbler: pg.garbler,
            })
            .collect();
        let ot_budget = ot_budget(sizes, &planned, plan.ots());
        QueryShape {
            key,
            planned,
            ot_budget,
            kkrt_budget: plan.kkrt_instances(),
        }
    }
}

/// The public face of a relation: the fields every operator choice reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dims {
    pub owner: Role,
    pub size: usize,
    /// Annotations still owner-known (§6.5).
    pub is_plain: bool,
}

/// Parameters of one garbled circuit a plan step runs; [`GcSpec::build`]
/// calls the operator's own builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcSpec {
    /// π⊕/π¹ merge-gate chain over `n` rows (§6.1).
    Merge { n: usize, kind: AggKind },
    /// Circuit-PSI matching over `bins` cuckoo bins, plain payloads (§6.5).
    Matching { bins: usize },
    /// Circuit-PSI k-index selection over `bins` for a sender set of size
    /// `n`, shared payloads (§5.5).
    KIndex { bins: usize, n: usize },
    /// Reveal of one relation's nonzero support (`n` rows) to the
    /// receiver for the full join (§6.3); `converted` when its tuple words
    /// convert out of the circuit ([`sends_tuples`]).
    Reveal { n: usize, converted: bool },
}

impl GcSpec {
    /// Build the circuit over an `ell`-bit annotation ring.
    pub fn build(self, ell: usize) -> Circuit {
        match self {
            GcSpec::Merge { n, kind } => merge_circuit(n, ell, kind),
            GcSpec::Matching { bins } => matching_circuit(bins),
            GcSpec::KIndex { bins, n } => k_circuit(bins, n),
            GcSpec::Reveal { n, converted } => reveal_circuit(n, ell, converted),
        }
    }
}

/// A step's garbled circuit and the party that garbles it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedGc {
    pub gc: GcSpec,
    pub garbler: Role,
}

/// The operator a plan step runs, on join-tree node indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `node ← π_attrs(node)` (§6.1).
    ProjectAgg {
        node: usize,
        attrs: Vec<String>,
        kind: AggKind,
    },
    /// `f ← f ⋈⊗ g` (§6.2); `g` holds a projection-aggregation output.
    ReduceJoin { f: usize, g: usize },
    /// `f ← f ⋉⊗ g` (§6.2).
    Semijoin { f: usize, g: usize },
    /// Reveal the surviving nodes: a lone survivor by opening its shares,
    /// with no circuit, several through the full join (§6.3) in this fold
    /// order.
    Finish { order: Vec<usize> },
}

/// One operator step of a compiled plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    pub op: Op,
    /// The garbled circuits the operator runs, in execution order. The
    /// full join's product tree is not listed: its size is the
    /// data-dependent join output size.
    pub circuits: Vec<PlannedGc>,
    /// OTs the step draws besides its circuits' evaluator labels: a
    /// reduce-join product's correlated OTs, the `R_F` owner sending (n·ℓ
    /// per cross term), plus a matching circuit-PSI's payload cross term,
    /// the PSI sender sending (ℓ per bin); a lone survivor's tuple OTs, the
    /// non-receiver sending (one per row, when it owns a nonempty schema);
    /// 0 for the other operators.
    pub ots: usize,
}

/// The compiled secure Yannakakis plan: the ordered operator steps, a
/// function of public data only. The last step is the [`Op::Finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Annotation ring width the circuits are built for.
    pub ell: usize,
    pub steps: Vec<Step>,
}

impl Plan {
    /// Compile the plan for `query` at the public per-relation `sizes`,
    /// revealing to `receiver` over an `ell`-bit ring: the reduce,
    /// semijoin and finish phases of [`crate::protocol`]. Builds no
    /// circuit.
    pub fn compile(query: &SecureQuery, sizes: &[usize], receiver: Role, ell: usize) -> Plan {
        assert_eq!(sizes.len(), query.len(), "one size per relation");
        let tree = &query.tree;
        let mut nodes: Vec<Node> = (0..query.len())
            .map(|i| Node {
                schema: query.schemas[i].clone(),
                dims: Dims {
                    owner: query.owners[i],
                    size: sizes[i],
                    is_plain: true,
                },
            })
            .collect();
        let mut steps = Vec::new();
        let mut removed = vec![false; query.len()];
        let mut kept_below = vec![false; query.len()];

        for i in tree.bottom_up() {
            let parent = tree.parent(i);
            let parent_schema = parent.map_or(Vec::new(), |p| nodes[p].schema.clone());
            let f_prime: Vec<String> = nodes[i]
                .schema
                .iter()
                .filter(|a| query.output.contains(a) || parent_schema.contains(a))
                .cloned()
                .collect();
            let folds = !kept_below[i] && f_prime.iter().all(|a| parent_schema.contains(a));
            match parent {
                Some(p) if folds => {
                    steps.push(Node::project_agg(&mut nodes, i, f_prime, AggKind::Sum));
                    steps.push(Node::join(&mut nodes, Op::ReduceJoin { f: p, g: i }, ell));
                    removed[i] = true;
                }
                _ => {
                    if f_prime.len() != nodes[i].schema.len() {
                        steps.push(Node::project_agg(&mut nodes, i, f_prime, AggKind::Sum));
                    }
                    if let Some(p) = parent {
                        kept_below[p] = true;
                    }
                }
            }
        }
        // Top-down from the root keeps every prefix of the fold connected
        // in the tree; the join is commutative.
        let order: Vec<usize> = tree
            .top_down()
            .into_iter()
            .filter(|&i| !removed[i])
            .collect();

        if order.len() > 1 {
            let inner = |i: &usize| !removed[*i] && *i != tree.root();
            for i in tree.bottom_up().into_iter().filter(inner) {
                let p = tree.parent(i).expect("non-root");
                steps.push(Node::join(&mut nodes, Op::Semijoin { f: p, g: i }, ell));
            }
            for i in tree.top_down().into_iter().filter(inner) {
                let p = tree.parent(i).expect("non-root");
                steps.push(Node::join(&mut nodes, Op::Semijoin { f: i, g: p }, ell));
            }
        }

        // A lone survivor opens its shares, with one tuple OT per row when
        // the non-receiver owns them; several reveal their supports.
        let sends = |i: usize| sends_tuples(nodes[i].dims.owner, receiver, nodes[i].schema.len());
        let (circuits, ots) = match order[..] {
            [lone] if sends(lone) => (Vec::new(), nodes[lone].dims.size),
            [_] => (Vec::new(), 0),
            _ => {
                let reveal = |i: usize| PlannedGc {
                    gc: GcSpec::Reveal {
                        n: nodes[i].dims.size,
                        converted: sends(i),
                    },
                    garbler: receiver.peer(),
                };
                (order.iter().map(|&i| reveal(i)).collect(), 0)
            }
        };
        steps.push(Step {
            op: Op::Finish { order },
            circuits,
            ots,
        });
        Plan { ell, steps }
    }

    /// Every planned circuit, in execution order.
    pub fn circuits(&self) -> impl Iterator<Item = &PlannedGc> {
        self.steps.iter().flat_map(|s| &s.circuits)
    }

    /// OTs the plan's steps draw besides their circuits' evaluator labels
    /// ([`Step::ots`]).
    pub fn ots(&self) -> usize {
        self.steps.iter().map(|s| s.ots).sum()
    }

    /// KKRT OPRF instances the plan draws per direction: each circuit-PSI
    /// runs two OPPRFs of `bins` instances.
    pub fn kkrt_instances(&self) -> usize {
        self.circuits()
            .map(|pg| match pg.gc {
                GcSpec::Matching { bins } | GcSpec::KIndex { bins, .. } => 2 * bins,
                _ => 0,
            })
            .sum()
    }
}

/// A node's public state as the compiled steps transform it.
#[derive(Clone)]
struct Node {
    schema: Vec<String>,
    dims: Dims,
}

impl Node {
    /// π_attrs over this node: its merge circuit, if any, and the result.
    fn agg(&self, attrs: &[String], kind: AggKind, circuits: &mut Vec<PlannedGc>) -> Node {
        let route = AggRoute::of(self.dims, attrs, kind);
        if route == AggRoute::Merge {
            let n = self.dims.size;
            circuits.push(PlannedGc {
                gc: GcSpec::Merge { n, kind },
                garbler: self.dims.owner,
            });
        }
        Node {
            schema: attrs.to_vec(),
            dims: Dims {
                is_plain: route == AggRoute::Local,
                ..self.dims
            },
        }
    }

    /// The step `node ← π_attrs(node)`.
    fn project_agg(nodes: &mut [Node], node: usize, attrs: Vec<String>, kind: AggKind) -> Step {
        let mut circuits = Vec::new();
        nodes[node] = nodes[node].agg(&attrs, kind, &mut circuits);
        Step {
            op: Op::ProjectAgg { node, attrs, kind },
            circuits,
            ots: 0,
        }
    }

    /// The join step `op`: `f ← f ⋈⊗ g`, or `f ← f ⋉⊗ g` (the support
    /// projection of `g` on the shared attributes, then a reduce-join),
    /// over an `ell`-bit ring.
    fn join(nodes: &mut [Node], op: Op, ell: usize) -> Step {
        let (Op::ReduceJoin { f, g } | Op::Semijoin { f, g }) = op else {
            unreachable!("not a join step: {op:?}")
        };
        let semijoin = matches!(op, Op::Semijoin { .. });
        let (rf, mut rg) = (&nodes[f], nodes[g].clone());
        let mut step = Step {
            op,
            circuits: Vec::new(),
            ots: 0,
        };
        if semijoin {
            let attrs = shared_attrs(&rf.schema, &rg.schema);
            rg = rg.agg(&attrs, AggKind::Support, &mut step.circuits);
        }
        let route = JoinRoute::of(rf.dims, rg.dims);
        if let Some(gc) = route.psi {
            step.circuits.push(PlannedGc {
                gc,
                garbler: rg.dims.owner,
            });
        }
        step.ots = product_ots(rf.dims.size, ell, route.v_plain);
        if let Some(GcSpec::Matching { bins }) = route.psi {
            step.ots += matching_ots(bins, ell);
        }
        nodes[f].dims.is_plain = false;
        step
    }
}

/// The per-direction OT bank budget: evaluator input labels for every
/// planned circuit, the steps' other OTs ([`Plan::ots`]), plus a
/// generous allowance for the OEP switching networks and PSI machinery
/// (≈ 2·w·⌈log₂ w⌉ + w OTs per oblivious switching network of width w,
/// several networks per relation per phase). Over-provisioning only costs
/// offline time; under-provisioning degrades to inline OT extension,
/// symmetrically on both sides.
fn ot_budget(sizes: &[usize], planned: &[PlannedCircuit], ots: usize) -> usize {
    let labels: usize = planned.iter().map(|pc| pc.circuit.bob_inputs).sum();
    let switches: usize = sizes
        .iter()
        .map(|&n| {
            // OEP widths in the driver top out around 2n + 2 (cuckoo bins
            // and the reduce-join dummy slot); 8 networks per relation
            // covers every aggregation/semijoin sweep that can touch it.
            let w = 2 * n + 2;
            let lg = usize::BITS as usize - w.leading_zeros() as usize;
            8 * (2 * w * lg + w)
        })
        .sum();
    labels + ots + switches + 1024
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_relation::JoinTree;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn chain_query() -> SecureQuery {
        SecureQuery::new(
            vec![
                strings(&["person"]),
                strings(&["person", "disease"]),
                strings(&["disease", "class"]),
            ],
            vec![Role::Alice, Role::Bob, Role::Alice],
            JoinTree::chain(3),
            strings(&["class"]),
        )
    }

    #[test]
    fn key_is_deterministic_and_size_sensitive() {
        let q = chain_query();
        let a = QueryShape::derive(&q, &[3, 4, 3], Role::Alice, 32);
        let b = QueryShape::derive(&q, &[3, 4, 3], Role::Alice, 32);
        assert_eq!(a.key, b.key);
        assert_eq!(a.planned.len(), b.planned.len());
        let c = QueryShape::derive(&q, &[3, 5, 3], Role::Alice, 32);
        assert_ne!(a.key, c.key, "sizes must be part of the key");
        let d = QueryShape::derive(&q, &[3, 4, 3], Role::Bob, 32);
        assert_ne!(a.key, d.key, "receiver must be part of the key");
        let e = QueryShape::derive(&q, &[3, 4, 3], Role::Alice, 16);
        assert_ne!(a.key, e.key, "ring width must be part of the key");
    }

    #[test]
    fn chain_plan_ends_with_a_reveal_and_has_budget() {
        // The paper's chain collapses to a single survivor, R3(class),
        // owned by the receiver Alice: the plan ends with a Finish that
        // opens its shares and garbles nothing, and no OT, while the
        // earlier steps still plan circuits and a budget.
        let q = chain_query();
        let plan = Plan::compile(&q, &[3, 4, 3], Role::Alice, 32);
        let finish = plan.steps.last().expect("a plan has steps");
        assert_eq!(finish.op, Op::Finish { order: vec![2] });
        assert!(finish.circuits.is_empty());
        assert_eq!(finish.ots, 0);
        // Revealed to Bob instead, the tuples travel by one OT per row.
        let plan = Plan::compile(&q, &[3, 4, 3], Role::Bob, 32);
        let finish = plan.steps.last().expect("a plan has steps");
        assert!(finish.circuits.is_empty());
        assert_eq!(finish.ots, 3);
        let shape = QueryShape::derive(&q, &[3, 4, 3], Role::Alice, 32);
        assert!(!shape.planned.is_empty());
        assert!(shape.ot_budget > 0);
    }

    /// The products' correlated OTs replaced the garbled product circuits'
    /// evaluator labels one for one (n·ℓ per cross term). A matching
    /// circuit-PSI takes 64 evaluator labels per bin (the equality test's
    /// o_b; it was 128 with p_b) plus ℓ correlated OTs per bin for the
    /// payload cross term; a k-index PSI takes 64 + t labels per bin, t =
    /// ⌈log₂(n + bins)⌉ (it was 128). A lone survivor's reveal takes no
    /// labels (its circuit took n·ℓ) and one tuple OT per row when the
    /// non-receiver owns a nonempty schema.
    #[test]
    fn ot_budget_is_pinned() {
        let chain3 = SecureQuery::new(
            vec![strings(&["a"]), strings(&["a", "b"]), strings(&["b"])],
            vec![Role::Alice, Role::Bob, Role::Alice],
            JoinTree::chain(3),
            Vec::new(),
        );
        let shape = QueryShape::derive(&chain3, &[24, 48, 24], Role::Alice, 64);
        // 44,176 before the label conversion: at ℓ = 64 a matching PSI's
        // 64 labels + 64 OTs per bin equal its old 128 labels, and the one
        // k-index PSI (31 bins, n = 48, t = 7) drops (128 − 71)·31 = 1,767.
        // 42,409 before the circuit-free reveal: the lone survivor (24
        // rows, empty schema) drops 24·64 = 1,536 labels and adds no OT.
        assert_eq!(shape.ot_budget, 40_873);
        // TPC-H Q3 at 0.3 MB: customer ⋈ orders ⋈ lineitem.
        let q3 = SecureQuery::new(
            vec![
                strings(&["custkey"]),
                strings(&["custkey", "orderkey", "o_orderdate", "o_shippriority"]),
                strings(&["orderkey"]),
            ],
            vec![Role::Alice, Role::Bob, Role::Alice],
            JoinTree::new(vec![Some(1), None, Some(1)]),
            strings(&["orderkey", "o_orderdate", "o_shippriority"]),
        );
        let shape = QueryShape::derive(&q3, &[45, 450, 1752], Role::Alice, 32);
        // 1,083,232 before: two matching PSIs over 572 bins at ℓ = 32 drop
        // (128 − 64 − 32)·572·2 = 36,608. 1,046,624 before the
        // circuit-free reveal: the lone survivor, orders (450 rows, three
        // attributes, owned by the non-receiver Bob), drops 450·32 =
        // 14,400 labels and adds 450 tuple OTs.
        assert_eq!(shape.ot_budget, 1_032_674);
    }

    /// The support reveal garbles only the ℓ-bit zero test: ℓ−1 ANDs, ℓ
    /// garbler and ℓ evaluator inputs per row, whatever the tuples. A
    /// garbler-owned tuple converts out of a second copy of the support
    /// bit rather than entering the circuit.
    #[test]
    fn reveal_circuit_is_the_zero_test() {
        for n in [1usize, 24, 450] {
            for ell in [1usize, 32, 64] {
                for (converted, outputs) in [(false, n), (true, 2 * n)] {
                    let spec = GcSpec::Reveal { n, converted };
                    let c = spec.build(ell);
                    assert_eq!(c.and_count(), ((ell - 1) * n) as u64, "{spec:?} ℓ={ell}");
                    assert_eq!(c.alice_inputs, ell * n);
                    assert_eq!(c.bob_inputs, ell * n);
                    assert_eq!(c.outputs.len(), outputs);
                }
            }
        }
    }

    /// The matching circuit garbles only its per-bin 64-bit equality test:
    /// 63 ANDs and 64 evaluator inputs per bin, whatever the ring width.
    #[test]
    fn matching_circuit_is_the_equality_test() {
        for bins in [1usize, 31, 572] {
            for ell in [1usize, 32, 64] {
                let c = GcSpec::Matching { bins }.build(ell);
                assert_eq!(c.and_count(), 63 * bins as u64);
                assert_eq!(c.bob_inputs, 64 * bins);
                assert_eq!(c.alice_inputs, 64 * bins);
                assert_eq!(c.outputs.len(), bins);
            }
        }
    }

    #[test]
    fn scalar_sum_plans_no_merge_circuit() {
        // A grand-total SUM folds shares locally (the linear path of
        // `oblivious_project_agg`): projecting the shared root onto the
        // empty output runs no merge circuit.
        let q = SecureQuery::new(
            vec![strings(&["a"]), strings(&["a", "b"]), strings(&["b"])],
            vec![Role::Alice, Role::Bob, Role::Alice],
            JoinTree::chain(3),
            Vec::new(),
        );
        let plan = Plan::compile(&q, &[24, 48, 24], Role::Alice, 64);
        let scalar = |s: &Step| matches!(&s.op, Op::ProjectAgg { attrs, .. } if attrs.is_empty());
        assert!(plan
            .steps
            .iter()
            .any(|s| scalar(s) && s.circuits.is_empty()));
    }
}
