//! Per-party protocol session state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secyan_circuit::Circuit;
use secyan_crypto::{RingCtx, TweakHasher};
use secyan_gc::{
    evaluate_begin, evaluate_circuit, evaluate_online, evaluate_shared_finish, fold_words,
    garble_circuit, garble_online, garble_shared, garble_shared_online, take_eval, take_garble,
    word_scalars, EvalMaterial, GarbleMaterial, OutputMode, SharedOutputSpec,
};
use secyan_ot::{KkrtReceiver, KkrtSender, OtReceiver, OtSender};
use secyan_transport::{Channel, ProtocolError, ReadExt, Role};
use std::collections::VecDeque;

/// Upper bound on any size a peer can declare for a relation or join
/// output. Instances this workspace evaluates are far smaller; anything
/// larger is a malformed (or malicious) peer trying to drive a huge
/// allocation, and is rejected with a typed error before allocating.
/// Tied to the transport's super-frame bound: a declaration the transport
/// could never carry the payload for is rejected at the same threshold.
pub const MAX_DECLARED_SIZE: u64 = secyan_transport::MAX_FRAME_SIZE as u64;

/// Receive a peer-declared public size and validate it against
/// [`MAX_DECLARED_SIZE`] before the caller allocates proportionally to it.
/// Raises a typed [`ProtocolError::Malformed`] unwind (caught by
/// `try_run_protocol`) on an absurd declaration.
pub fn recv_declared_size(ch: &mut Channel, what: &str) -> usize {
    let size = ch.recv_u64();
    if size > MAX_DECLARED_SIZE {
        ProtocolError::malformed(format!(
            "peer declared {what} of {size} rows (max {MAX_DECLARED_SIZE})"
        ));
    }
    size as usize
}

/// Everything one party carries through a secure query evaluation: the
/// channel, the annotation ring, the garbling hash, a CSPRNG, and both
/// directions of OT extension and KKRT OPRF (bootstrapped once here, then
/// amortized over every operator, as the paper's cost model assumes).
pub struct Session<'a> {
    pub ch: &'a mut Channel,
    pub ring: RingCtx,
    pub hasher: TweakHasher,
    pub rng: StdRng,
    pub ot_send: OtSender,
    pub ot_recv: OtReceiver,
    pub kkrt_send: KkrtSender,
    pub kkrt_recv: KkrtReceiver,
    /// Pre-garbled circuits waiting to be consumed (this party garbles),
    /// in plan order. Empty outside the offline/online split.
    pub gc_garble: VecDeque<GarbleMaterial>,
    /// Pre-received garbled tables waiting to be consumed (this party
    /// evaluates), in plan order.
    pub gc_eval: VecDeque<EvalMaterial>,
    /// Circuits garbled or evaluated inline because no pre-garbled
    /// material matched (every circuit, outside the offline/online split).
    pub(crate) inline_circuits: usize,
}

impl<'a> Session<'a> {
    /// Set up a session. Both parties must call this with the same `ring`
    /// and `hasher`; the base-OT bootstraps interleave in a fixed
    /// role-dependent order so the two sides pair correctly.
    pub fn new(
        ch: &'a mut Channel,
        ring: RingCtx,
        hasher: TweakHasher,
        rng_seed: u64,
    ) -> Session<'a> {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let (ot_send, ot_recv, kkrt_send, kkrt_recv) = match ch.role() {
            Role::Alice => {
                let s = OtSender::setup(ch, &mut rng, hasher);
                let r = OtReceiver::setup(ch, &mut rng, hasher);
                let ks = KkrtSender::setup(ch, &mut rng, hasher);
                let kr = KkrtReceiver::setup(ch, &mut rng, hasher);
                (s, r, ks, kr)
            }
            Role::Bob => {
                let r = OtReceiver::setup(ch, &mut rng, hasher);
                let s = OtSender::setup(ch, &mut rng, hasher);
                let kr = KkrtReceiver::setup(ch, &mut rng, hasher);
                let ks = KkrtSender::setup(ch, &mut rng, hasher);
                (s, r, ks, kr)
            }
        };
        Session {
            ch,
            ring,
            hasher,
            rng,
            ot_send,
            ot_recv,
            kkrt_send,
            kkrt_recv,
            gc_garble: VecDeque::new(),
            gc_eval: VecDeque::new(),
            inline_circuits: 0,
        }
    }

    /// This party's transport role.
    pub fn role(&self) -> Role {
        self.ch.role()
    }

    /// Convenience: a fresh random ring element.
    pub fn random_ring(&mut self) -> u64 {
        self.ring.random(&mut self.rng)
    }

    /// Convenience: a fresh random u64 (dummy keys etc.).
    pub fn random_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Pre-garbled circuits not yet consumed, on either side.
    pub(crate) fn banked_circuits(&self) -> usize {
        self.gc_garble.len() + self.gc_eval.len()
    }

    /// Pop the pre-garbled material for `circuit` off the queue front, or
    /// count an inline garbling.
    fn take_garble(&mut self, circuit: &Circuit) -> Option<GarbleMaterial> {
        let material = take_garble(&mut self.gc_garble, circuit);
        self.inline_circuits += usize::from(material.is_none());
        material
    }

    /// Evaluator-side counterpart of [`Session::take_garble`].
    fn take_eval(&mut self, circuit: &Circuit) -> Option<EvalMaterial> {
        let material = take_eval(&mut self.gc_eval, circuit);
        self.inline_circuits += usize::from(material.is_none());
        material
    }

    /// Garble `circuit`, consuming pre-garbled offline material when the
    /// front of the queue matches (by circuit digest), else inline.
    ///
    /// The pooled-vs-inline decision is symmetric across the two parties:
    /// both provision the compiled plan's public circuit sequence offline,
    /// so their queue fronts carry the same digest, and both fall back
    /// together on the one circuit the plan leaves out (the data-dependent
    /// full-join product tree).
    pub fn garble(
        &mut self,
        circuit: &Circuit,
        my_inputs: &[bool],
        mode: OutputMode,
    ) -> Option<Vec<bool>> {
        match self.take_garble(circuit) {
            Some(material) => garble_online(
                self.ch,
                circuit,
                material,
                my_inputs,
                &mut self.ot_send,
                mode,
            ),
            None => garble_circuit(
                self.ch,
                circuit,
                my_inputs,
                &mut self.ot_send,
                self.hasher,
                &mut self.rng,
                mode,
            ),
        }
    }

    /// Evaluate `circuit`, consuming pre-received tables when the front of
    /// the queue matches (see [`Session::garble`] for the symmetry
    /// argument).
    pub fn evaluate(
        &mut self,
        circuit: &Circuit,
        my_inputs: &[bool],
        mode: OutputMode,
    ) -> Option<Vec<bool>> {
        match self.take_eval(circuit) {
            Some(material) => evaluate_online(
                self.ch,
                circuit,
                material,
                my_inputs,
                &mut self.ot_recv,
                self.hasher,
                mode,
            ),
            None => evaluate_circuit(
                self.ch,
                circuit,
                my_inputs,
                &mut self.ot_recv,
                self.hasher,
                mode,
            ),
        }
    }

    /// Garble `circuit`, converting the `spec` outputs into additive
    /// shares with this side's `scalars` (one per conversion, §5.2) and
    /// revealing the others to the evaluator, through the offline plan
    /// (see [`Session::garble`]). Returns this side's share of each
    /// conversion.
    pub fn garble_shared(
        &mut self,
        circuit: &Circuit,
        spec: &SharedOutputSpec,
        scalars: &[u64],
        my_inputs: &[bool],
    ) -> Vec<u64> {
        match self.take_garble(circuit) {
            Some(material) => garble_shared_online(
                self.ch,
                circuit,
                material,
                spec,
                scalars,
                my_inputs,
                &mut self.ot_send,
            ),
            None => garble_shared(
                self.ch,
                circuit,
                spec,
                scalars,
                my_inputs,
                &mut self.ot_send,
                self.hasher,
                &mut self.rng,
            ),
        }
    }

    /// Evaluator side of [`Session::garble_shared`] (see
    /// [`Session::evaluate`] for the queue): this side's share of each
    /// conversion, and the decoded outputs `spec` leaves revealed, in
    /// output order.
    pub fn evaluate_shared(
        &mut self,
        circuit: &Circuit,
        spec: &SharedOutputSpec,
        my_inputs: &[bool],
    ) -> (Vec<u64>, Vec<bool>) {
        let material = self.take_eval(circuit);
        let pending = evaluate_begin(self.ch, circuit, material, my_inputs, &mut self.ot_recv);
        evaluate_shared_finish(
            self.ch,
            circuit,
            pending,
            spec,
            my_inputs,
            &mut self.ot_recv,
            self.hasher,
        )
    }

    /// Garble `circuit` whose outputs are words of `bits` bits each,
    /// leaving every word as shares over the session ring
    /// ([`Session::garble_shared`]). Returns this side's share of each
    /// word.
    pub fn garble_words(&mut self, circuit: &Circuit, bits: usize, my_inputs: &[bool]) -> Vec<u64> {
        let n = circuit.outputs.len() / bits;
        let spec = SharedOutputSpec::words(n, bits, self.ring.bits() as usize);
        let kept = self.garble_shared(circuit, &spec, &word_scalars(n, bits), my_inputs);
        fold_words(&kept, bits, spec.ell)
    }

    /// Evaluator side of [`Session::garble_words`].
    pub fn evaluate_words(
        &mut self,
        circuit: &Circuit,
        bits: usize,
        my_inputs: &[bool],
    ) -> Vec<u64> {
        let n = circuit.outputs.len() / bits;
        let spec = SharedOutputSpec::words(n, bits, self.ring.bits() as usize);
        let (shares, _) = self.evaluate_shared(circuit, &spec, my_inputs);
        fold_words(&shares, bits, spec.ell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secyan_transport::run_protocol;

    #[test]
    fn sessions_pair_up() {
        // Setting up a session on both sides must not deadlock and leaves
        // the channel clean for subsequent traffic.
        let (a, b, _) = run_protocol(
            |ch| {
                let s = Session::new(ch, RingCtx::new(32), TweakHasher::default(), 1);
                s.role()
            },
            |ch| {
                let s = Session::new(ch, RingCtx::new(32), TweakHasher::default(), 2);
                s.role()
            },
        );
        assert_eq!(a, Role::Alice);
        assert_eq!(b, Role::Bob);
    }
}
