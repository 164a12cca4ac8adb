//! The two-party garbled-circuit protocol.
//!
//! One invocation = one garbled circuit: the garbler garbles and ships
//! tables + its own input labels; the evaluator obtains its input labels
//! through IKNP OT, evaluates, and the outputs are decoded toward the
//! party/parties the caller selects. Constant rounds per invocation, as the
//! paper requires of every building block.

use rand::Rng;
use secyan_circuit::{Circuit, Gate};
use secyan_crypto::{Block, TweakHasher};
use secyan_ot::{OtReceiver, OtSender};
use secyan_transport::{Channel, ReadExt, WriteExt};
use std::collections::VecDeque;

use crate::scheme::{eval, garble, EvalTables, Garbling};
use crate::shares::{evaluator_convert, garbler_convert, SharedOutputSpec};

/// Who learns the cleartext circuit outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Only the evaluator decodes the outputs.
    RevealToEvaluator,
    /// Only the garbler learns the outputs (the evaluator sends back the
    /// color bits, which are meaningless without the permute bits).
    RevealToGarbler,
    /// Both parties learn the outputs.
    RevealBoth,
}

/// A cheap structural fingerprint of a public circuit, used to pair
/// pre-garbled material with the circuit an online call presents. Both
/// parties derive it locally from the same public circuit, so it is a
/// bookkeeping key, not a security boundary: a mismatch merely routes the
/// call to the inline (offline-then-online) fallback.
pub fn circuit_digest(circuit: &Circuit) -> u64 {
    #[inline]
    fn mix(h: u64, v: u64) -> u64 {
        let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    let mut h = mix(0xC19C_0317_D16E_5700u64, circuit.num_wires as u64);
    h = mix(h, circuit.alice_inputs as u64);
    h = mix(h, circuit.bob_inputs as u64);
    for g in &circuit.gates {
        h = match *g {
            Gate::Xor { a, b, out } => mix(mix(mix(mix(h, 1), a as u64), b as u64), out as u64),
            Gate::And { a, b, out } => mix(mix(mix(mix(h, 2), a as u64), b as u64), out as u64),
            Gate::Inv { a, out } => mix(mix(mix(h, 3), a as u64), out as u64),
        };
    }
    for &o in &circuit.outputs {
        h = mix(h, o as u64);
    }
    h
}

/// Garbler-side offline material: a pre-garbled circuit whose tables have
/// already been shipped to the evaluator. The key material inside the
/// [`Garbling`] is `Secret`-wrapped and zeroizes when the material drops,
/// used or not.
pub struct GarbleMaterial {
    garbling: Garbling,
    digest: u64,
    /// The hash the circuit was garbled under; output conversions reuse it.
    hasher: TweakHasher,
}

impl GarbleMaterial {
    /// Fingerprint of the circuit this material was garbled for.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Evaluator-side offline material: the tables received during the
/// offline phase. Tables are ciphertexts (public given the wire), but the
/// pairing digest keeps consumption aligned with the garbler.
pub struct EvalMaterial {
    tables: EvalTables,
    digest: u64,
}

impl EvalMaterial {
    /// Fingerprint of the circuit these tables belong to.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// Pop the front of a garbler-side material queue iff it was pre-garbled
/// for exactly `circuit` (by digest). Anything else — empty queue, or a
/// circuit the offline plan did not list — returns `None`, routing
/// the caller to the inline fallback. Both parties derive the digest from
/// the same public circuit, so their pop-vs-fallback decisions mirror.
pub fn take_garble(
    queue: &mut VecDeque<GarbleMaterial>,
    circuit: &Circuit,
) -> Option<GarbleMaterial> {
    if queue
        .front()
        .is_some_and(|m| m.digest() == circuit_digest(circuit))
    {
        queue.pop_front()
    } else {
        None
    }
}

/// Evaluator-side counterpart of [`take_garble`].
pub fn take_eval(queue: &mut VecDeque<EvalMaterial>, circuit: &Circuit) -> Option<EvalMaterial> {
    if queue
        .front()
        .is_some_and(|m| m.digest() == circuit_digest(circuit))
    {
        queue.pop_front()
    } else {
        None
    }
}

/// Offline half of [`garble_circuit`]: garble and ship the tables — the
/// only message of the protocol that is independent of both parties'
/// private inputs.
pub fn garble_offline<R: Rng + ?Sized>(
    ch: &mut Channel,
    circuit: &Circuit,
    hasher: TweakHasher,
    rng: &mut R,
) -> GarbleMaterial {
    let g = garble(circuit, hasher, rng);
    let table_blocks = EvalTables {
        tables: g.tables.clone(),
    }
    .to_blocks();
    ch.send_u128_slice(&table_blocks);
    GarbleMaterial {
        garbling: g,
        digest: circuit_digest(circuit),
        hasher,
    }
}

/// Online half of [`garble_circuit`]: input labels, decode bits, OT and
/// garbler-side decoding, against material produced by
/// [`garble_offline`] for the same circuit.
pub fn garble_online(
    ch: &mut Channel,
    circuit: &Circuit,
    material: GarbleMaterial,
    my_inputs: &[bool],
    ot: &mut OtSender,
    mode: OutputMode,
) -> Option<Vec<bool>> {
    let g = garble_labels(ch, circuit, material, my_inputs);
    // Decode bits for the evaluator.
    if matches!(mode, OutputMode::RevealToEvaluator | OutputMode::RevealBoth) {
        ch.send_bool_slice(&g.decode_bits());
    }
    send_eval_labels(ch, circuit, &g, ot);
    // Output decoding toward the garbler.
    if matches!(mode, OutputMode::RevealToGarbler | OutputMode::RevealBoth) {
        let colors = ch.recv_bool_vec(circuit.outputs.len());
        let decode = g.decode_bits();
        Some(colors.iter().zip(&decode).map(|(&c, &d)| c ^ d).collect())
    } else {
        None
    }
}

/// [`garble_online`] for a circuit whose `spec` outputs leave as additive
/// shares ([`crate::shares`]); the other outputs are revealed to the
/// evaluator. The conversion words follow the input labels, and decode
/// bits go out for the revealed outputs only. `scalars[i]` is the
/// garbler's scalar for conversion `i`. Returns the garbler's shares, one
/// per conversion.
pub fn garble_shared_online(
    ch: &mut Channel,
    circuit: &Circuit,
    material: GarbleMaterial,
    spec: &SharedOutputSpec,
    scalars: &[u64],
    my_inputs: &[bool],
    ot: &mut OtSender,
) -> Vec<u64> {
    let hasher = material.hasher;
    let g = garble_labels(ch, circuit, material, my_inputs);
    let (kept, words) = garbler_convert(&g, hasher, spec, scalars);
    ch.send_bytes(&words);
    let decode: Vec<bool> = g
        .decode_bits()
        .into_iter()
        .zip(spec.revealed(circuit.outputs.len()))
        .filter_map(|(d, revealed)| revealed.then_some(d))
        .collect();
    ch.send_bool_slice(&decode);
    send_eval_labels(ch, circuit, &g, ot);
    kept
}

/// Check `material` against `circuit` and send the garbler's input labels.
fn garble_labels(
    ch: &mut Channel,
    circuit: &Circuit,
    material: GarbleMaterial,
    my_inputs: &[bool],
) -> Garbling {
    assert_eq!(my_inputs.len(), circuit.alice_inputs, "garbler input arity");
    assert_eq!(
        material.digest,
        circuit_digest(circuit),
        "pre-garbled material is for a different circuit"
    );
    let g = material.garbling;
    let my_labels: Vec<u128> = my_inputs
        .iter()
        .enumerate()
        .map(|(i, &b)| g.input_label(i, b).0)
        .collect();
    ch.send_u128_slice(&my_labels);
    g
}

/// The evaluator's input labels, through OT.
fn send_eval_labels(ch: &mut Channel, circuit: &Circuit, g: &Garbling, ot: &mut OtSender) {
    let eval_pairs: Vec<(Block, Block)> = (0..circuit.bob_inputs)
        .map(|j| {
            let i = circuit.alice_inputs + j;
            (g.input_label(i, false), g.input_label(i, true))
        })
        .collect();
    ot.send_blocks(ch, &eval_pairs);
}

/// Offline half of [`evaluate_circuit`]: receive the tables.
pub fn evaluate_offline(ch: &mut Channel, circuit: &Circuit) -> EvalMaterial {
    let tables = EvalTables::from_blocks(&ch.recv_u128_vec(2 * circuit.and_count() as usize));
    EvalMaterial {
        tables,
        digest: circuit_digest(circuit),
    }
}

/// Evaluator-side in-flight state between [`evaluate_begin`] and
/// [`evaluate_finish`]: the OT pads drawn for the evaluator's choice bits
/// and the tables (pre-received, or `None` when they travel inline and
/// will be received at finish time).
pub struct EvalPending {
    material: Option<EvalMaterial>,
    pads: Vec<Block>,
}

/// First half of the evaluator protocol: stage the OT correction bits for
/// `my_inputs` and return without blocking. Everything the evaluator must
/// *send* for this circuit is staged here, so a caller can stage further
/// dependency-free messages (e.g. the OSN corrections of a follow-up OEP
/// whose routing is already known) into the same outbound super-frame
/// before [`evaluate_finish`] blocks on the garbler. The garbler reads the
/// corrections inside `ot.send_blocks` only after staging tables, labels
/// and decode bits, so per-direction FIFO order is unchanged.
pub fn evaluate_begin(
    ch: &mut Channel,
    circuit: &Circuit,
    material: Option<EvalMaterial>,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
) -> EvalPending {
    assert_eq!(my_inputs.len(), circuit.bob_inputs, "evaluator input arity");
    if let Some(m) = &material {
        assert_eq!(
            m.digest,
            circuit_digest(circuit),
            "pre-received tables are for a different circuit"
        );
    }
    let pads = ot.begin_recv(ch, my_inputs);
    EvalPending { material, pads }
}

/// Second half of the evaluator protocol: receive tables (when they travel
/// inline), garbler labels, decode bits and the OT correction messages,
/// then evaluate. Receive-only until the optional color-bit reply.
pub fn evaluate_finish(
    ch: &mut Channel,
    circuit: &Circuit,
    pending: EvalPending,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
    hasher: TweakHasher,
    mode: OutputMode,
) -> Option<Vec<bool>> {
    let staged = recv_labels(ch, circuit, pending);
    let decode = if matches!(mode, OutputMode::RevealToEvaluator | OutputMode::RevealBoth) {
        Some(ch.recv_bool_vec(circuit.outputs.len()))
    } else {
        None
    };
    let out_labels = eval_labels(ch, circuit, staged, my_inputs, ot, hasher);
    let colors: Vec<bool> = out_labels.iter().map(|l| l.lsb()).collect();
    if matches!(mode, OutputMode::RevealToGarbler | OutputMode::RevealBoth) {
        ch.send_bool_slice(&colors);
    }
    decode.map(|d| colors.iter().zip(&d).map(|(&c, &dd)| c ^ dd).collect())
}

/// [`evaluate_finish`] for a circuit whose `spec` outputs leave as
/// additive shares (the evaluator side of [`garble_shared_online`] and
/// [`garble_shared`]; begin with [`evaluate_begin`]). Returns this side's
/// shares, one per conversion, and the decoded values of the outputs left
/// revealed, in output order.
pub fn evaluate_shared_finish(
    ch: &mut Channel,
    circuit: &Circuit,
    pending: EvalPending,
    spec: &SharedOutputSpec,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
    hasher: TweakHasher,
) -> (Vec<u64>, Vec<bool>) {
    let staged = recv_labels(ch, circuit, pending);
    let words = ch.recv_bytes(spec.wires.len() * spec.ring_word().1);
    let revealed = spec.revealed(circuit.outputs.len());
    let decode = ch.recv_bool_vec(revealed.iter().filter(|&&r| r).count());
    let out_labels = eval_labels(ch, circuit, staged, my_inputs, ot, hasher);
    let shares = evaluator_convert(&out_labels, hasher, spec, &words);
    let values = out_labels
        .iter()
        .zip(&revealed)
        .filter_map(|(l, &r)| r.then_some(l.lsb()))
        .zip(&decode)
        .map(|(c, &d)| c ^ d)
        .collect();
    (shares, values)
}

/// What the evaluator holds before its label OTs finish.
struct Staged {
    tables: EvalTables,
    garbler_labels: Vec<Block>,
    pads: Vec<Block>,
}

/// Receive the tables (when they travel inline) and the garbler's labels.
fn recv_labels(ch: &mut Channel, circuit: &Circuit, pending: EvalPending) -> Staged {
    let EvalPending { material, pads } = pending;
    let tables = match material {
        Some(m) => m.tables,
        None => evaluate_offline(ch, circuit).tables,
    };
    let garbler_labels = ch
        .recv_u128_vec(circuit.alice_inputs)
        .into_iter()
        .map(Block)
        .collect();
    Staged {
        tables,
        garbler_labels,
        pads,
    }
}

/// Finish the evaluator's label OTs and evaluate: one label per output.
fn eval_labels(
    ch: &mut Channel,
    circuit: &Circuit,
    staged: Staged,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
    hasher: TweakHasher,
) -> Vec<Block> {
    let my_labels = ot.finish_recv_blocks(ch, &staged.pads, my_inputs);
    let mut labels = staged.garbler_labels;
    labels.extend(my_labels);
    eval(circuit, &staged.tables, &labels, hasher)
}

/// Online half of [`evaluate_circuit`], against material produced by
/// [`evaluate_offline`] for the same circuit. Implemented as
/// [`evaluate_begin`] + [`evaluate_finish`]: the OT correction bits are
/// staged *before* blocking on the garbler's labels, so one GC evaluation
/// costs a single ping-pong on the wire instead of three direction
/// switches.
pub fn evaluate_online(
    ch: &mut Channel,
    circuit: &Circuit,
    material: EvalMaterial,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
    hasher: TweakHasher,
    mode: OutputMode,
) -> Option<Vec<bool>> {
    let pending = evaluate_begin(ch, circuit, Some(material), my_inputs, ot);
    evaluate_finish(ch, circuit, pending, my_inputs, ot, hasher, mode)
}

/// Garbler side. `my_inputs` are the cleartext values of the circuit's
/// Alice (garbler) input wires. Returns the outputs if `mode` reveals them
/// to the garbler, else `None`.
///
/// Implemented as [`garble_offline`] immediately followed by
/// [`garble_online`]; the wire format is identical to the historical
/// single-phase protocol, so transcripts and tests are unchanged.
pub fn garble_circuit<R: Rng + ?Sized>(
    ch: &mut Channel,
    circuit: &Circuit,
    my_inputs: &[bool],
    ot: &mut OtSender,
    hasher: TweakHasher,
    rng: &mut R,
    mode: OutputMode,
) -> Option<Vec<bool>> {
    assert_eq!(my_inputs.len(), circuit.alice_inputs, "garbler input arity");
    let material = garble_offline(ch, circuit, hasher, rng);
    garble_online(ch, circuit, material, my_inputs, ot, mode)
}

/// Garbler side of a shared-output circuit, garbled inline:
/// [`garble_offline`] then [`garble_shared_online`].
#[allow(clippy::too_many_arguments)]
pub fn garble_shared<R: Rng + ?Sized>(
    ch: &mut Channel,
    circuit: &Circuit,
    spec: &SharedOutputSpec,
    scalars: &[u64],
    my_inputs: &[bool],
    ot: &mut OtSender,
    hasher: TweakHasher,
    rng: &mut R,
) -> Vec<u64> {
    let material = garble_offline(ch, circuit, hasher, rng);
    garble_shared_online(ch, circuit, material, spec, scalars, my_inputs, ot)
}

/// Evaluator side. `my_inputs` are the cleartext values of the circuit's
/// Bob (evaluator) input wires. Returns the outputs if `mode` reveals them
/// to the evaluator, else `None`.
///
/// Implemented as [`evaluate_begin`] + [`evaluate_finish`] with inline
/// tables: the OT corrections are staged before the tables are received,
/// matching the banked path's round structure. Per-direction message
/// order (and hence the transcript content) is unchanged from the
/// historical single-phase protocol; only the direction interleaving
/// tightens.
pub fn evaluate_circuit(
    ch: &mut Channel,
    circuit: &Circuit,
    my_inputs: &[bool],
    ot: &mut OtReceiver,
    hasher: TweakHasher,
    mode: OutputMode,
) -> Option<Vec<bool>> {
    let pending = evaluate_begin(ch, circuit, None, my_inputs, ot);
    evaluate_finish(ch, circuit, pending, my_inputs, ot, hasher, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_circuit::{bits_to_u64, u64_to_bits, Builder};
    use secyan_transport::run_protocol;

    fn adder_circuit(bits: usize) -> Circuit {
        let mut b = Builder::new();
        let x = b.alice_word(bits);
        let y = b.bob_word(bits);
        let s = b.add_words(&x, &y);
        b.output_word(&s);
        b.finish()
    }

    fn run_gc(
        circuit: &Circuit,
        a_bits: Vec<bool>,
        b_bits: Vec<bool>,
        mode: OutputMode,
    ) -> (Option<Vec<bool>>, Option<Vec<bool>>) {
        let ca = circuit.clone();
        let cb = circuit.clone();
        let (ra, rb, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(100);
                let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Sha256);
                garble_circuit(
                    ch,
                    &ca,
                    &a_bits,
                    &mut ot,
                    TweakHasher::Sha256,
                    &mut rng,
                    mode,
                )
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(101);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Sha256);
                evaluate_circuit(ch, &cb, &b_bits, &mut ot, TweakHasher::Sha256, mode)
            },
        );
        (ra, rb)
    }

    #[test]
    fn reveal_to_evaluator() {
        let c = adder_circuit(32);
        let (ra, rb) = run_gc(
            &c,
            u64_to_bits(1_000_000, 32),
            u64_to_bits(2_345, 32),
            OutputMode::RevealToEvaluator,
        );
        assert!(ra.is_none());
        assert_eq!(bits_to_u64(&rb.unwrap()), 1_002_345);
    }

    #[test]
    fn reveal_to_garbler() {
        let c = adder_circuit(16);
        let (ra, rb) = run_gc(
            &c,
            u64_to_bits(40, 16),
            u64_to_bits(2, 16),
            OutputMode::RevealToGarbler,
        );
        assert_eq!(bits_to_u64(&ra.unwrap()), 42);
        assert!(rb.is_none());
    }

    #[test]
    fn reveal_both() {
        let c = adder_circuit(8);
        let (ra, rb) = run_gc(
            &c,
            u64_to_bits(200, 8),
            u64_to_bits(100, 8),
            OutputMode::RevealBoth,
        );
        // 300 mod 256 = 44.
        assert_eq!(bits_to_u64(&ra.unwrap()), 44);
        assert_eq!(bits_to_u64(&rb.unwrap()), 44);
    }

    #[test]
    fn multiple_circuits_one_session() {
        // The OT state amortizes across invocations, as the Yannakakis
        // driver requires.
        let c1 = adder_circuit(16);
        let c2 = adder_circuit(16);
        let (c1a, c2a) = (c1.clone(), c2.clone());
        let (_, rb, _) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(5);
                let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::Sha256);
                for (c, x) in [(&c1a, 1u64), (&c2a, 2)] {
                    garble_circuit(
                        ch,
                        c,
                        &u64_to_bits(x, 16),
                        &mut ot,
                        TweakHasher::Sha256,
                        &mut rng,
                        OutputMode::RevealToEvaluator,
                    );
                }
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(6);
                let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::Sha256);
                let mut outs = Vec::new();
                for (c, y) in [(&c1, 10u64), (&c2, 20)] {
                    let o = evaluate_circuit(
                        ch,
                        c,
                        &u64_to_bits(y, 16),
                        &mut ot,
                        TweakHasher::Sha256,
                        OutputMode::RevealToEvaluator,
                    );
                    outs.push(bits_to_u64(&o.unwrap()));
                }
                outs
            },
        );
        assert_eq!(rb, vec![11, 22]);
    }

    #[test]
    fn no_evaluator_inputs() {
        // A circuit whose inputs all belong to the garbler still runs.
        let mut b = Builder::new();
        let x = b.alice_word(8);
        let one = b.const_word(1, 8);
        let s = b.add_words(&x, &one);
        b.output_word(&s);
        let c = b.finish();
        let (_, rb) = run_gc(
            &c,
            u64_to_bits(41, 8),
            vec![],
            OutputMode::RevealToEvaluator,
        );
        assert_eq!(bits_to_u64(&rb.unwrap()), 42);
    }
}
