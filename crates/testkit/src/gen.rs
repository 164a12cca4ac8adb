//! Seeded generator of random free-connex join-aggregate instances.
//!
//! Every instance is a pure function of its seed: the generator draws the
//! relation count, the tree shape, schemas, ownership, the ring width ℓ,
//! the aggregate kind, and the data itself from one `StdRng`. A failing
//! seed printed by a differential test therefore reproduces the exact
//! instance with `Instance::generate(seed)`.
//!
//! The generated families deliberately cover the awkward corners of the
//! paper's model: skewed key distributions, empty relations, all-dangling
//! inputs (a join edge whose key ranges are disjoint), zero-valued
//! annotations, and annotation values within a few ulps of the Z_{2^ℓ}
//! wrap-around, over both SUM (ring) and COUNT (all-one annotations)
//! semantics at ℓ = 32 and 64.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secyan_core::SecureQuery;
use secyan_crypto::RingCtx;
use secyan_relation::{find_free_connex_tree, Hypergraph, JoinTree, NaturalRing, Relation};
use secyan_transport::Role;

/// Which aggregate semantics an instance exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// SUM over Z_{2^ℓ}: annotations are arbitrary ring elements and the
    /// result is exact modular arithmetic (wrap-around included).
    Sum,
    /// COUNT: every annotation is 1; the overflow-free oracle is the
    /// saturating `CountSemiring`, reduced into the ring at the end.
    Count,
}

/// One generated join-aggregate instance: the public query (schemas,
/// owners, join tree, output attributes, ring width, aggregate kind) plus
/// the private data of both parties.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The seed this instance was generated from (for reproduction).
    pub seed: u64,
    /// Ring width ℓ of Z_{2^ℓ}.
    pub ell: u32,
    /// Aggregate semantics.
    pub agg: AggKind,
    /// Relation schemas, in join-tree node order.
    pub schemas: Vec<Vec<String>>,
    /// Who owns each relation.
    pub owners: Vec<Role>,
    /// A join tree whose rooting witnesses free-connexity.
    pub tree: JoinTree,
    /// Output (group-by) attributes; empty means a scalar aggregate.
    pub output: Vec<String>,
    /// The relations themselves (annotations already reduced into Z_{2^ℓ};
    /// all 1 for COUNT instances).
    pub relations: Vec<Relation<NaturalRing>>,
}

impl Instance {
    /// Generate the instance determined by `seed`: 2–6 relations under a
    /// random acyclic (free-connex) join tree.
    pub fn generate(seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = rng.gen_range(2..=6usize);

        // Random tree *shape* wires the join attributes: relation i > 0
        // shares attribute "j{i}" with a random earlier relation, which
        // keeps the hypergraph acyclic by construction. Private attributes
        // vary each relation's arity.
        let mut parent: Vec<Option<usize>> = vec![None];
        for i in 1..k {
            parent.push(Some(rng.gen_range(0..i)));
        }
        let mut schemas: Vec<Vec<String>> = vec![Vec::new(); k];
        for i in 1..k {
            let p = parent[i].expect("non-root");
            let a = format!("j{i}");
            schemas[i].push(a.clone());
            schemas[p].push(a);
        }
        for (i, s) in schemas.iter_mut().enumerate() {
            for t in 0..rng.gen_range(0..=2usize) {
                s.push(format!("p{i}x{t}"));
            }
        }

        let agg = if rng.gen_bool(0.25) {
            AggKind::Count
        } else {
            AggKind::Sum
        };
        let ell = if rng.gen_bool(0.33) { 64 } else { 32 };
        let ring = RingCtx::new(ell);

        let (output, tree) = choose_output(&mut rng, &schemas);

        let owners: Vec<Role> = if rng.gen_bool(0.2) {
            let all = if rng.gen_bool(0.5) {
                Role::Alice
            } else {
                Role::Bob
            };
            vec![all; k]
        } else {
            (0..k)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        Role::Alice
                    } else {
                        Role::Bob
                    }
                })
                .collect()
        };

        // Per-attribute key domains. COUNT instances get tiny domains and
        // larger relations, making duplicate-heavy inputs the norm there.
        let attrs: Vec<String> = {
            let mut v = Vec::new();
            for s in &schemas {
                for a in s {
                    if !v.contains(a) {
                        v.push(a.clone());
                    }
                }
            }
            v
        };
        let domains: Vec<(u64, bool)> = attrs
            .iter()
            .map(|_| {
                let d = match agg {
                    AggKind::Count => rng.gen_range(1..=3u64),
                    AggKind::Sum => rng.gen_range(1..=5u64),
                };
                (d, rng.gen_bool(0.3)) // (domain size, skewed?)
            })
            .collect();
        // All-dangling inputs: occasionally shift one join edge's child
        // values into a disjoint range so nothing survives the semijoin.
        let dangling: Option<usize> = if k > 1 && rng.gen_bool(0.15) {
            Some(rng.gen_range(1..k))
        } else {
            None
        };

        let max_rows = match agg {
            AggKind::Count => 12,
            AggKind::Sum => 8,
        };
        let relations: Vec<Relation<NaturalRing>> = schemas
            .iter()
            .enumerate()
            .map(|(i, schema)| {
                let n = if rng.gen_bool(0.08) {
                    0
                } else {
                    rng.gen_range(1..=max_rows)
                };
                let mut rel = Relation::new(NaturalRing(ring), schema.clone());
                for _ in 0..n {
                    let tuple: Vec<u64> = schema
                        .iter()
                        .map(|a| {
                            let ai = attrs.iter().position(|x| x == a).expect("known attr");
                            let (d, skew) = domains[ai];
                            let v = if skew && rng.gen_bool(0.6) {
                                1
                            } else {
                                rng.gen_range(1..=d)
                            };
                            // The dangling edge's child side lives in a
                            // disjoint key range.
                            if dangling == Some(i) && *a == format!("j{i}") {
                                v + 1000
                            } else {
                                v
                            }
                        })
                        .collect();
                    let annot = match agg {
                        AggKind::Count => 1,
                        AggKind::Sum => match rng.gen_range(0..10u32) {
                            0 => 0, // explicitly zero-annotated tuple
                            1 | 2 => ring.reduce(u64::MAX - rng.gen_range(0..=2)),
                            _ => rng.gen_range(1..=9),
                        },
                    };
                    rel.push(tuple, annot);
                }
                rel
            })
            .collect();

        Instance {
            seed,
            ell,
            agg,
            schemas,
            owners,
            tree,
            output,
            relations,
        }
    }

    /// The benchmark chain3 instance: three relations of 24/48/24 rows,
    /// alternating ownership, scalar SUM at ℓ = 64.
    pub fn chain3_bench() -> Instance {
        let strings = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let rel = |schema: &[&str], n: u64, row: fn(u64) -> (Vec<u64>, u64)| {
            Relation::from_rows(
                NaturalRing(RingCtx::new(64)),
                strings(schema),
                (0..n).map(row).collect(),
            )
        };
        Instance {
            seed: 42,
            ell: 64,
            agg: AggKind::Sum,
            schemas: vec![strings(&["a"]), strings(&["a", "b"]), strings(&["b"])],
            owners: vec![Role::Alice, Role::Bob, Role::Alice],
            tree: JoinTree::chain(3),
            output: Vec::new(),
            relations: vec![
                rel(&["a"], 24, |i| (vec![i], i % 7 + 1)),
                rel(&["a", "b"], 48, |i| (vec![i % 24, i % 31], i % 5 + 1)),
                rel(&["b"], 24, |i| (vec![i % 31], i % 3 + 1)),
            ],
        }
    }

    /// Generate a baseline-compatible instance: a 2–3 relation chain of
    /// binary relations with a scalar SUM output and tiny sizes, exactly
    /// the query shape `secyan-baseline`'s Cartesian-product circuit
    /// evaluates.
    pub fn generate_chain(seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A1_0000_0000_0001);
        let k = rng.gen_range(2..=3usize);
        let schemas: Vec<Vec<String>> = (0..k)
            .map(|j| vec![format!("a{j}"), format!("a{}", j + 1)])
            .collect();
        let tree = JoinTree::chain(k);
        let ring = RingCtx::new(32);
        let owners: Vec<Role> = (0..k)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Role::Alice
                } else {
                    Role::Bob
                }
            })
            .collect();
        let relations: Vec<Relation<NaturalRing>> = schemas
            .iter()
            .map(|schema| {
                let n = rng.gen_range(1..=3usize);
                let mut rel = Relation::new(NaturalRing(ring), schema.clone());
                for _ in 0..n {
                    let tuple: Vec<u64> = (0..2).map(|_| rng.gen_range(0..=3u64)).collect();
                    let annot = if rng.gen_bool(0.2) {
                        ring.reduce(u64::MAX - rng.gen_range(0..=2))
                    } else {
                        rng.gen_range(0..=6)
                    };
                    rel.push(tuple, annot);
                }
                rel
            })
            .collect();
        Instance {
            seed,
            ell: 32,
            agg: AggKind::Sum,
            schemas,
            owners,
            tree,
            output: Vec::new(),
            relations,
        }
    }

    /// The ring Z_{2^ℓ} of this instance.
    pub fn ring_ctx(&self) -> RingCtx {
        RingCtx::new(self.ell)
    }

    /// Build (and validate) the public secure query.
    pub fn query(&self) -> SecureQuery {
        SecureQuery::new(
            self.schemas.clone(),
            self.owners.clone(),
            self.tree.clone(),
            self.output.clone(),
        )
    }

    /// `my_relations` argument for one party: `Some` for owned relations.
    pub fn party_relations(&self, who: Role) -> Vec<Option<Relation<NaturalRing>>> {
        self.relations
            .iter()
            .zip(&self.owners)
            .map(|(r, &o)| if o == who { Some(r.clone()) } else { None })
            .collect()
    }

    /// Public relation sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.relations.iter().map(|r| r.len()).collect()
    }

    /// If this instance matches the naive-GC baseline's query shape (chain
    /// of binary relations, scalar output, every relation nonempty, tiny
    /// Cartesian product, 8-bit keys), return each relation's rows as the
    /// baseline's `(left key, right key, annotation)` triples.
    pub fn baseline_rows(&self) -> Option<Vec<Vec<(u64, u64, u64)>>> {
        if !self.output.is_empty() || self.schemas.len() < 2 {
            return None;
        }
        for (j, s) in self.schemas.iter().enumerate() {
            if s.len() != 2 {
                return None;
            }
            if j + 1 < self.schemas.len() && s[1] != self.schemas[j + 1][0] {
                return None;
            }
        }
        let sizes = self.sizes();
        if sizes.contains(&0) || sizes.iter().product::<usize>() > 128 {
            return None;
        }
        let rows: Vec<Vec<(u64, u64, u64)>> = self
            .relations
            .iter()
            .map(|r| {
                r.tuples
                    .iter()
                    .zip(&r.annots)
                    .map(|(t, &a)| (t[0], t[1], a))
                    .collect()
            })
            .collect();
        let keys_fit = rows.iter().flatten().all(|&(l, r, _)| l < 256 && r < 256);
        keys_fit.then_some(rows)
    }

    /// One-line reproduction handle for failure messages. The seed alone
    /// regenerates the instance; the rest is for human triage.
    pub fn describe(&self) -> String {
        format!(
            "instance[seed={}, ell={}, agg={:?}, sizes={:?}, owners={:?}, output={:?}]",
            self.seed,
            self.ell,
            self.agg,
            self.sizes(),
            self.owners,
            self.output,
        )
    }
}

/// Pick output attributes and a join tree witnessing free-connexity.
/// Random subsets are attempted first (rejection-sampling against
/// `find_free_connex_tree`); scalar output is both a deliberate case and
/// the always-valid fallback.
fn choose_output(rng: &mut StdRng, schemas: &[Vec<String>]) -> (Vec<String>, JoinTree) {
    let h = Hypergraph::new(schemas.to_vec());
    let attrs: Vec<String> = {
        let mut v = Vec::new();
        for s in schemas {
            for a in s {
                if !v.contains(a) {
                    v.push(a.clone());
                }
            }
        }
        v
    };
    for _ in 0..8 {
        let output: Vec<String> = if rng.gen_bool(0.25) {
            Vec::new()
        } else {
            let want = rng.gen_range(1..=3usize.min(attrs.len()));
            let mut pool = attrs.clone();
            let mut out = Vec::new();
            for _ in 0..want {
                let i = rng.gen_range(0..pool.len());
                out.push(pool.swap_remove(i));
            }
            out
        };
        if let Some(tree) = find_free_connex_tree(&h, &output) {
            return (output, tree);
        }
    }
    let tree = find_free_connex_tree(&h, &[])
        .expect("generated hypergraph is acyclic, so a scalar-output tree exists");
    (Vec::new(), tree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            let a = Instance::generate(seed);
            let b = Instance::generate(seed);
            assert_eq!(a.schemas, b.schemas);
            assert_eq!(a.output, b.output);
            assert_eq!(a.tree, b.tree);
            assert_eq!(a.owners, b.owners);
            for (ra, rb) in a.relations.iter().zip(&b.relations) {
                assert_eq!(ra.tuples, rb.tuples);
                assert_eq!(ra.annots, rb.annots);
            }
        }
    }

    #[test]
    fn generated_queries_validate() {
        for seed in 0..40 {
            let inst = Instance::generate(seed);
            // SecureQuery::new re-checks free-connexity; a panic here is a
            // generator bug.
            let q = inst.query();
            assert_eq!(q.len(), inst.relations.len());
            for (r, s) in inst.relations.iter().zip(&inst.schemas) {
                assert_eq!(&r.schema, s);
            }
        }
    }

    #[test]
    fn families_cover_the_corners() {
        let mut saw_empty_rel = false;
        let mut saw_scalar = false;
        let mut saw_grouped = false;
        let mut saw_count = false;
        let mut saw_ell64 = false;
        let mut saw_wrap = false;
        let mut saw_zero_annot = false;
        for seed in 0..200 {
            let inst = Instance::generate(seed);
            saw_empty_rel |= inst.sizes().contains(&0);
            saw_scalar |= inst.output.is_empty();
            saw_grouped |= !inst.output.is_empty();
            saw_count |= inst.agg == AggKind::Count;
            saw_ell64 |= inst.ell == 64;
            let ring = inst.ring_ctx();
            let near_wrap = ring.reduce(u64::MAX - 4);
            for r in &inst.relations {
                saw_wrap |= r.annots.iter().any(|&a| a >= near_wrap);
                saw_zero_annot |=
                    inst.agg == AggKind::Sum && !r.annots.is_empty() && r.annots.contains(&0);
            }
        }
        assert!(saw_empty_rel, "no empty relation in 200 seeds");
        assert!(saw_scalar, "no scalar-output instance in 200 seeds");
        assert!(saw_grouped, "no group-by instance in 200 seeds");
        assert!(saw_count, "no COUNT instance in 200 seeds");
        assert!(saw_ell64, "no ell=64 instance in 200 seeds");
        assert!(saw_wrap, "no near-wrap annotation in 200 seeds");
        assert!(saw_zero_annot, "no zero annotation in 200 seeds");
    }

    #[test]
    fn chain_family_is_baseline_compatible() {
        for seed in 0..20 {
            let inst = Instance::generate_chain(seed);
            let rows = inst
                .baseline_rows()
                .expect("chain family must match the baseline shape");
            assert_eq!(rows.len(), inst.relations.len());
            inst.query(); // chain + scalar output must be free-connex
        }
    }
}
