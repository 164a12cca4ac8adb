//! The garbling scheme: free-XOR, half-gates, point-and-permute.
//!
//! Channel-free: [`garble`] turns a circuit into tables + label metadata on
//! the garbler side, [`eval`] consumes tables + input labels on the
//! evaluator side. The two-party protocol in [`crate::protocol`] moves the
//! bytes.

use rand::Rng;
use secyan_circuit::{Circuit, Gate, LevelSchedule};
use secyan_crypto::{Block, CtChoice, CtEq, Secret, TweakHasher, Zeroize};
use secyan_par as par;

/// Minimum AND-gate count before garbling/evaluation builds a level
/// schedule. The levelized path batches every level's gate hashes into
/// one wide AES dispatch (`TweakHasher::hash_each`), which already wins
/// at a single thread; below this the per-gate serial loop's lack of
/// schedule-building overhead wins.
const GC_PAR_MIN_ANDS: usize = 512;

/// Minimum AND gates handed to one worker within a level. One garbled AND
/// is ~70ns of work while a pool dispatch costs tens of microseconds in
/// wake/park round trips, so a level must carry well over a thousand ANDs
/// per extra worker before fan-out beats the serial loop. Levels below
/// this threshold run inline on the calling thread (`Pool::ranges`
/// collapses to one part), which keeps the 1-thread path from ever losing.
const GC_ANDS_PER_PART: usize = 2048;

/// Spawn pool workers only if some level is at least this wide. Spawning
/// is the expensive part (thread create + park/wake per level): a circuit
/// whose widest level still collapses to one part would pay it for
/// nothing — exactly the "garbling 0.44x at 4 threads" regression the
/// bench history recorded when the old code spawned on total AND count.
fn schedule_worth_pool(sched: &LevelSchedule) -> bool {
    sched.levels.iter().map(|l| l.ands.len()).max().unwrap_or(0) >= 2 * GC_ANDS_PER_PART
}

/// Garbler-side result of garbling a circuit.
///
/// Δ and the zero-labels are the scheme's key material: anyone holding a
/// wire label *and* Δ can flip the encoded bit, and the input zero-labels
/// decode every garbler input. They live in [`Secret`] wrappers — no
/// `Debug`, zeroized on drop — and leave only through the explicit label
/// accessors below. The tables are ciphertexts and stay public.
pub struct Garbling {
    /// The global free-XOR offset Δ (lsb forced to 1 for point-and-permute).
    pub delta: Secret<Block>,
    /// Zero-label of every input wire, in wire order (Alice inputs first).
    pub input_zero_labels: Secret<Vec<Block>>,
    /// Zero-label of every output wire, in output order.
    pub output_zero_labels: Secret<Vec<Block>>,
    /// Two ciphertexts per AND gate, in gate order.
    pub tables: Vec<(Block, Block)>,
}

impl Garbling {
    /// The label encoding bit `b` on input wire `i`, selected branchlessly
    /// (the bit is a party's private input).
    pub fn input_label(&self, i: usize, b: bool) -> Block {
        let delta = self.delta.expose_block().ct_masked(CtChoice::from_bool(b));
        self.input_zero_labels.expose()[i] ^ delta
    }

    /// Decode bits: lsb of each output zero-label. The evaluator XORs these
    /// with the color bits of its output labels to learn the outputs.
    pub fn decode_bits(&self) -> Vec<bool> {
        self.output_zero_labels
            .expose()
            .iter()
            .map(|l| l.lsb())
            .collect()
    }

    /// Decode an output label the evaluator computed back to a cleartext
    /// bit (garbler-side check; panics on a label that matches neither).
    /// Both candidates are compared with [`CtEq`] — no short-circuit on key
    /// material.
    pub fn decode_output(&self, idx: usize, label: Block) -> bool {
        let zero = self.output_zero_labels.expose()[idx];
        let one = zero ^ self.delta.expose_block();
        let is_zero = label.ct_eq(&zero);
        let is_one = label.ct_eq(&one);
        assert!(
            is_zero.or(is_one).to_bool(),
            "output label matches neither candidate"
        );
        is_one.to_bool()
    }
}

/// Evaluator-side view of the tables (what travels over the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalTables {
    /// Two ciphertexts per AND gate, in gate order.
    pub tables: Vec<(Block, Block)>,
}

impl EvalTables {
    /// Serialize for the channel: 32 bytes per AND gate.
    pub fn to_blocks(&self) -> Vec<u128> {
        self.tables.iter().flat_map(|&(a, b)| [a.0, b.0]).collect()
    }

    /// Deserialize.
    pub fn from_blocks(raw: &[u128]) -> EvalTables {
        assert_eq!(raw.len() % 2, 0);
        EvalTables {
            tables: raw
                .chunks_exact(2)
                .map(|c| (Block(c[0]), Block(c[1])))
                .collect(),
        }
    }
}

/// Garble `circuit`, drawing labels from `rng`.
pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, hasher: TweakHasher, rng: &mut R) -> Garbling {
    let delta = Block::random(rng).with_lsb(true);
    let n_in = circuit.alice_inputs + circuit.bob_inputs;
    let mut zero = vec![Block::ZERO; circuit.num_wires];
    for z in zero.iter_mut().take(n_in) {
        *z = Block::random(rng);
    }
    let n_ands = circuit.and_count() as usize;
    let mut tables = vec![(Block::ZERO, Block::ZERO); n_ands];
    // The levelized path pays off even at one thread (full AES batches per
    // level); whether it also *spawns workers* is decided inside from the
    // schedule's widest level.
    if n_ands >= GC_PAR_MIN_ANDS {
        garble_levels(circuit, hasher, delta, &mut zero, &mut tables);
    } else {
        let mut and_idx = 0u64;
        for g in &circuit.gates {
            match *g {
                Gate::Xor { a, b, out } => zero[out] = zero[a] ^ zero[b],
                Gate::Inv { a, out } => zero[out] = zero[a] ^ delta,
                Gate::And { a, b, out } => {
                    let (wg, we, tg, te) = garble_and(zero[a], zero[b], delta, hasher, and_idx);
                    tables[and_idx as usize] = (tg, te);
                    zero[out] = wg ^ we;
                    and_idx += 1;
                }
            }
        }
    }
    let input_zero_labels = Secret::new(zero[..n_in].to_vec());
    let output_zero_labels = Secret::new(circuit.outputs.iter().map(|&o| zero[o]).collect());
    // The full wire-label buffer holds every intermediate label — key
    // material. Scrub it before the allocation is released.
    zero.zeroize();
    Garbling {
        delta: Secret::new(delta),
        input_zero_labels,
        output_zero_labels,
        tables,
    }
}

/// Half-gates garbling of one AND gate. Returns the two halves of the
/// output zero-label and the two table ciphertexts.
///
/// The permute bits p_a, p_b are secret (they encode the label↔bit map), so
/// the conditional XORs of the half-gates construction are done with
/// [`Block::ct_masked`] rather than `if` — the gate garbles in the same
/// instruction sequence whatever the permute bits are.
fn garble_and(
    wa0: Block,
    wb0: Block,
    delta: Block,
    hasher: TweakHasher,
    and_idx: u64,
) -> (Block, Block, Block, Block) {
    let j_g = 2 * and_idx;
    let j_e = 2 * and_idx + 1;
    // All four hashes of the gate in one kernel dispatch.
    let h = hasher.hash4([wa0, wa0 ^ delta, wb0, wb0 ^ delta], [j_g, j_g, j_e, j_e]);
    garble_and_from_hashes(wa0, wb0, delta, h)
}

/// The algebra of one garbled AND given its four precomputed hashes
/// (`[H(wa0,j_g), H(wa1,j_g), H(wb0,j_e), H(wb1,j_e)]`). Split out so the
/// levelized path can hash a whole level in one batch first.
fn garble_and_from_hashes(
    wa0: Block,
    wb0: Block,
    delta: Block,
    h: [Block; 4],
) -> (Block, Block, Block, Block) {
    let pa = CtChoice::from_bool(wa0.lsb());
    let pb = CtChoice::from_bool(wb0.lsb());
    let [h_a0, h_a1, h_b0, h_b1] = h;
    // Generator half-gate.
    let t_g = h_a0 ^ h_a1 ^ delta.ct_masked(pb);
    let w_g = h_a0 ^ t_g.ct_masked(pa);
    // Evaluator half-gate.
    let t_e = h_b0 ^ h_b1 ^ wa0;
    let w_e = h_b0 ^ (t_e ^ wa0).ct_masked(pb);
    (w_g, w_e, t_g, t_e)
}

/// Level-parallel garbling: free gates run serially in circuit order;
/// each level's AND gates — mutually independent by construction of the
/// [`LevelSchedule`] — fan out across the pool. `garble_and` is a pure
/// function of `(zero[a], zero[b], delta, and_idx)`, and every AND reads
/// only wires settled in earlier steps, so the produced tables and wire
/// labels are byte-identical to the serial loop at any thread count.
fn garble_levels(
    circuit: &Circuit,
    hasher: TweakHasher,
    delta: Block,
    zero: &mut [Block],
    tables: &mut [(Block, Block)],
) {
    let sched = LevelSchedule::build(circuit);
    par::with_pool_if(par::threads() > 1 && schedule_worth_pool(&sched), |pool| {
        for level in &sched.levels {
            for &gi in &level.free {
                match circuit.gates[gi] {
                    Gate::Xor { a, b, out } => zero[out] = zero[a] ^ zero[b],
                    Gate::Inv { a, out } => zero[out] = zero[a] ^ delta,
                    Gate::And { .. } => unreachable!("AND scheduled as free gate"),
                }
            }
            if level.ands.is_empty() {
                continue;
            }
            let zero_ro: &[Block] = zero;
            // [w_out, t_g, t_e] per AND, in level order. Each worker
            // assembles its chunk's 4-per-gate hash inputs into one flat
            // batch so the AES kernel sees full pipelines, then applies
            // the half-gates algebra per gate.
            let mut results: Vec<[Block; 3]> = vec![[Block::ZERO; 3]; level.ands.len()];
            pool.chunks_mut(&mut results, 1, GC_ANDS_PER_PART, |off, chunk| {
                let ands = &level.ands[off..off + chunk.len()];
                let mut xs: Vec<Block> = Vec::with_capacity(4 * ands.len());
                let mut tweaks: Vec<u64> = Vec::with_capacity(4 * ands.len());
                for and in ands {
                    let (wa0, wb0) = (zero_ro[and.a], zero_ro[and.b]);
                    let j_g = 2 * and.and_idx as u64;
                    xs.extend([wa0, wa0 ^ delta, wb0, wb0 ^ delta]);
                    tweaks.extend([j_g, j_g, j_g + 1, j_g + 1]);
                }
                let mut hs = hasher.hash_each(&xs, &tweaks);
                for (i, and) in ands.iter().enumerate() {
                    let h: [Block; 4] = hs[4 * i..4 * i + 4].try_into().expect("4 hashes");
                    let (wg, we, tg, te) =
                        garble_and_from_hashes(zero_ro[and.a], zero_ro[and.b], delta, h);
                    chunk[i] = [wg ^ we, tg, te];
                }
                // The staging buffers hold labels and their hashes — key
                // material.
                xs.zeroize();
                hs.zeroize();
            });
            // Indexed by position rather than zipped with `results`: the
            // gate descriptors are public topology and must not alias the
            // secret label buffer in the dataflow (xtask taint).
            for (i, and) in level.ands.iter().enumerate() {
                zero[and.out] = results[i][0];
                tables[and.and_idx] = (results[i][1], results[i][2]);
            }
            // The staging buffer holds output zero-labels — key material.
            results.zeroize();
        }
    });
}

/// Evaluate garbled `circuit` given one label per input wire. Returns one
/// label per output wire.
pub fn eval(
    circuit: &Circuit,
    tables: &EvalTables,
    input_labels: &[Block],
    hasher: TweakHasher,
) -> Vec<Block> {
    let n_in = circuit.alice_inputs + circuit.bob_inputs;
    assert_eq!(input_labels.len(), n_in, "one label per input wire");
    assert_eq!(tables.tables.len() as u64, circuit.and_count());
    let mut wires = vec![Block::ZERO; circuit.num_wires];
    wires[..n_in].copy_from_slice(input_labels);
    // Mirrors `garble`: levelize for batching whenever the circuit is big
    // enough; worker spawning is a separate, width-based decision inside.
    if tables.tables.len() >= GC_PAR_MIN_ANDS {
        eval_levels(circuit, tables, hasher, &mut wires);
    } else {
        let mut and_idx = 0u64;
        for g in &circuit.gates {
            match *g {
                Gate::Xor { a, b, out } => wires[out] = wires[a] ^ wires[b],
                // INV is free: the garbler flipped the semantics of the labels.
                Gate::Inv { a, out } => wires[out] = wires[a],
                Gate::And { a, b, out } => {
                    wires[out] = eval_and(&wires, tables, a, b, and_idx, hasher);
                    and_idx += 1;
                }
            }
        }
    }
    let outs = circuit.outputs.iter().map(|&o| wires[o]).collect();
    // Intermediate labels are correlated with cleartext wire values; scrub
    // the evaluation buffer before it is released.
    wires.zeroize();
    outs
}

/// Evaluate one AND gate's output label from the current wire state.
///
/// Both hashes of the gate run in one kernel dispatch. The color bits
/// gate the table ciphertexts through `ct_masked` — the labels are
/// correlated with the cleartext wire values, so no control flow may
/// depend on them.
fn eval_and(
    wires: &[Block],
    tables: &EvalTables,
    a: usize,
    b: usize,
    and_idx: u64,
    hasher: TweakHasher,
) -> Block {
    let (t_g, t_e) = tables.tables[and_idx as usize];
    let (wa, wb) = (wires[a], wires[b]);
    let j_g = 2 * and_idx;
    let j_e = 2 * and_idx + 1;
    let (h_g, h_e) = hasher.hash_pair(wa, j_g, wb, j_e);
    eval_and_from_hashes(wa, wb, t_g, t_e, h_g, h_e)
}

/// The algebra of one evaluated AND given its two precomputed hashes.
/// Split out so the levelized path can hash a whole level in one batch.
fn eval_and_from_hashes(
    wa: Block,
    wb: Block,
    t_g: Block,
    t_e: Block,
    h_g: Block,
    h_e: Block,
) -> Block {
    let w_g = h_g ^ t_g.ct_masked(CtChoice::from_bool(wa.lsb()));
    let w_e = h_e ^ (t_e ^ wa).ct_masked(CtChoice::from_bool(wb.lsb()));
    w_g ^ w_e
}

/// Level-parallel evaluation, mirroring [`garble_levels`]: free gates run
/// serially, each level's AND gates evaluate concurrently ([`eval_and`]
/// is pure given the settled wire labels), and the output labels write
/// back in level order. Both parties derive the same public schedule, so
/// the wire values match the serial loop bit for bit.
fn eval_levels(circuit: &Circuit, tables: &EvalTables, hasher: TweakHasher, wires: &mut [Block]) {
    let sched = LevelSchedule::build(circuit);
    par::with_pool_if(par::threads() > 1 && schedule_worth_pool(&sched), |pool| {
        for level in &sched.levels {
            for &gi in &level.free {
                match circuit.gates[gi] {
                    Gate::Xor { a, b, out } => wires[out] = wires[a] ^ wires[b],
                    Gate::Inv { a, out } => wires[out] = wires[a],
                    Gate::And { .. } => unreachable!("AND scheduled as free gate"),
                }
            }
            if level.ands.is_empty() {
                continue;
            }
            let wires_ro: &[Block] = wires;
            // Each worker hashes its chunk's 2-per-gate inputs as one flat
            // batch (full AES pipelines), then applies the table algebra.
            let mut results: Vec<Block> = vec![Block::ZERO; level.ands.len()];
            pool.chunks_mut(&mut results, 1, GC_ANDS_PER_PART, |off, chunk| {
                let ands = &level.ands[off..off + chunk.len()];
                let mut xs: Vec<Block> = Vec::with_capacity(2 * ands.len());
                let mut tweaks: Vec<u64> = Vec::with_capacity(2 * ands.len());
                for and in ands {
                    let j_g = 2 * and.and_idx as u64;
                    xs.extend([wires_ro[and.a], wires_ro[and.b]]);
                    tweaks.extend([j_g, j_g + 1]);
                }
                let mut hs = hasher.hash_each(&xs, &tweaks);
                for (i, and) in ands.iter().enumerate() {
                    let (t_g, t_e) = tables.tables[and.and_idx];
                    chunk[i] = eval_and_from_hashes(
                        wires_ro[and.a],
                        wires_ro[and.b],
                        t_g,
                        t_e,
                        hs[2 * i],
                        hs[2 * i + 1],
                    );
                }
                // Labels and their hashes are wire-value-correlated; scrub.
                xs.zeroize();
                hs.zeroize();
            });
            for (and, &r) in level.ands.iter().zip(&results) {
                wires[and.out] = r;
            }
            // Staged output labels are correlated with wire values; scrub.
            results.zeroize();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_circuit::{bits_to_u64, evaluate as plain_eval, u64_to_bits, Builder};

    /// Garble + evaluate `circuit` on cleartext inputs; compare to plaintext.
    fn check(circuit: &Circuit, alice: &[bool], bob: &[bool], hasher: TweakHasher, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = garble(circuit, hasher, &mut rng);
        let labels: Vec<Block> = alice
            .iter()
            .chain(bob)
            .enumerate()
            .map(|(i, &b)| g.input_label(i, b))
            .collect();
        let tables = EvalTables {
            tables: g.tables.clone(),
        };
        let out_labels = eval(circuit, &tables, &labels, hasher);
        let expect = plain_eval(circuit, alice, bob);
        // Decode both ways: garbler-side exact check and evaluator-side
        // color-bit decode.
        let decode = g.decode_bits();
        for (i, &lbl) in out_labels.iter().enumerate() {
            assert_eq!(g.decode_output(i, lbl), expect[i], "garbler decode {i}");
            assert_eq!(lbl.lsb() ^ decode[i], expect[i], "color decode {i}");
        }
    }

    #[test]
    fn single_gates_exhaustive() {
        for hasher in [TweakHasher::Sha256, TweakHasher::Aes] {
            for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
                for op in 0..4 {
                    let mut b = Builder::new();
                    let a = b.alice_input();
                    let c = b.bob_input();
                    let o = match op {
                        0 => b.and(a, c),
                        1 => b.xor(a, c),
                        2 => b.or(a, c),
                        _ => {
                            let n = b.not(a);
                            b.and(n, c)
                        }
                    };
                    b.output(o);
                    let circ = b.finish();
                    check(&circ, &[x], &[y], hasher, 1 + op as u64);
                }
            }
        }
    }

    #[test]
    fn adder_circuit_matches_plaintext() {
        let mut b = Builder::new();
        let x = b.alice_word(32);
        let y = b.bob_word(32);
        let s = b.add_words(&x, &y);
        b.output_word(&s);
        let circ = b.finish();
        for (x, y) in [(3u64, 5u64), (0xffff_ffff, 1), (123456, 654321)] {
            check(
                &circ,
                &u64_to_bits(x, 32),
                &u64_to_bits(y, 32),
                TweakHasher::Sha256,
                7,
            );
        }
    }

    #[test]
    fn multiplier_circuit_matches_plaintext() {
        let mut b = Builder::new();
        let x = b.alice_word(16);
        let y = b.bob_word(16);
        let s = b.mul_words(&x, &y);
        b.output_word(&s);
        let circ = b.finish();
        for hasher in [TweakHasher::Sha256, TweakHasher::Aes] {
            check(
                &circ,
                &u64_to_bits(1234, 16),
                &u64_to_bits(4321, 16),
                hasher,
                8,
            );
        }
    }

    #[test]
    fn eval_output_value_via_colors() {
        // End-to-end decode of a word output using only evaluator knowledge.
        let mut b = Builder::new();
        let x = b.alice_word(16);
        let y = b.bob_word(16);
        let s = b.sub_words(&x, &y);
        b.output_word(&s);
        let circ = b.finish();
        let mut rng = StdRng::seed_from_u64(9);
        let g = garble(&circ, TweakHasher::Sha256, &mut rng);
        let labels: Vec<Block> = u64_to_bits(500, 16)
            .iter()
            .chain(&u64_to_bits(123, 16))
            .enumerate()
            .map(|(i, &bit)| g.input_label(i, bit))
            .collect();
        let outs = eval(
            &circ,
            &EvalTables {
                tables: g.tables.clone(),
            },
            &labels,
            TweakHasher::Sha256,
        );
        let decode = g.decode_bits();
        let bits: Vec<bool> = outs
            .iter()
            .zip(&decode)
            .map(|(l, &d)| l.lsb() ^ d)
            .collect();
        assert_eq!(bits_to_u64(&bits), 500 - 123);
    }

    #[test]
    fn garbling_is_thread_count_invariant() {
        // Wide enough to cross GC_PAR_MIN_ANDS and take the levelized
        // path; same RNG seed, so tables/labels must match bit for bit.
        let mut b = Builder::new();
        let x = b.alice_word(32);
        let y = b.bob_word(32);
        let p = b.mul_words(&x, &y);
        b.output_word(&p);
        let circ = b.finish();
        assert!(
            circ.and_count() as usize >= super::GC_PAR_MIN_ANDS,
            "test circuit too small to exercise the parallel path"
        );
        let run_at = |t: usize| {
            par::set_threads(t);
            let mut rng = StdRng::seed_from_u64(77);
            let g = garble(&circ, TweakHasher::default(), &mut rng);
            let labels: Vec<Block> = u64_to_bits(0xdead_beef, 32)
                .iter()
                .chain(&u64_to_bits(0x1234_5678, 32))
                .enumerate()
                .map(|(i, &bit)| g.input_label(i, bit))
                .collect();
            let outs = eval(
                &circ,
                &EvalTables {
                    tables: g.tables.clone(),
                },
                &labels,
                TweakHasher::default(),
            );
            par::set_threads(0);
            let decode = g.decode_bits();
            (g.tables, decode, outs)
        };
        let serial = run_at(1);
        for t in [2, 4] {
            assert_eq!(run_at(t), serial, "thread count {t} diverged");
        }
    }

    #[test]
    fn tables_serialize_roundtrip() {
        let t = EvalTables {
            tables: vec![(Block(1), Block(2)), (Block(3), Block(4))],
        };
        assert_eq!(EvalTables::from_blocks(&t.to_blocks()), t);
    }

    proptest::proptest! {
        #[test]
        fn prop_garbled_eq_plaintext(x in 0u64..1<<16, y in 0u64..1<<16, seed: u64) {
            let mut b = Builder::new();
            let xw = b.alice_word(16);
            let yw = b.bob_word(16);
            let sum = b.add_words(&xw, &yw);
            let prod = b.mul_words(&xw, &yw);
            let eqb = b.eq_words(&xw, &yw);
            let lt = b.lt_words(&xw, &yw);
            b.output_word(&sum);
            b.output_word(&prod);
            b.output(eqb);
            b.output(lt);
            let circ = b.finish();
            check(&circ, &u64_to_bits(x, 16), &u64_to_bits(y, 16), TweakHasher::Aes, seed);
        }
    }
}
