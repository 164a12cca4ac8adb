//! Yao-to-arithmetic share conversion (paper §5.2) through output labels.
//!
//! The secure Yannakakis operators feed secret-shared annotations *into*
//! garbled circuits and need the results back *as shares*, never in the
//! clear. A converted output never decodes: the evaluator's output label
//! itself is turned into an additive share over Z_{2^ℓ}, with one
//! ⌈ℓ/8⌉-byte word of communication and no gate in the circuit.
//!
//! **Row-reduced conversion.** Take an output wire with zero-label K⁰ and
//! permute bit p = lsb(K⁰), so the colour-0 label is K^p; a garbler scalar
//! u ∈ Z_{2^ℓ}; and a tweak τ.
//!
//! * The garbler keeps g = p·u − H(K^p, τ) and sends the word
//!   c = (1−p)·u − p·u + H(K^p, τ) − H(K^{1−p}, τ).
//! * The evaluator, holding label L, computes e = H(L, τ) + lsb(L)·c.
//!
//! Then e + g = b·u, where b is the wire's value: with colour 0 the
//! evaluator holds K^p and b = p; with colour 1 it holds K^{1−p}, b = 1−p,
//! and c cancels the garbler's hash. The word c is masked by the hash of
//! the label the evaluator does not hold, so it reveals nothing.
//!
//! An ℓ-bit output word Σ_k 2^k·bit_k converts each bit with scalar 2^k
//! ([`SharedOutputSpec::words`], [`word_scalars`], [`fold_words`]); a 1-bit
//! result such as a PSI indicator needs one word in total. A wire may be
//! converted once per scalar (each conversion has its own τ), and a
//! circuit may mix converted outputs with outputs revealed to the
//! evaluator: only the revealed ones get decode bits.
//!
//! [`crate::protocol::garble_shared`] (inline) or
//! [`crate::protocol::garble_shared_online`] (pre-garbled) and
//! [`crate::protocol::evaluate_shared_finish`] run the conversion: its
//! words travel right after the garbler's input labels, identically for
//! pre-garbled and inline material.

use secyan_circuit::{Builder, Circuit, Word};
use secyan_crypto::{Block, CtChoice, RingCtx, TweakHasher, Zeroize};

use crate::scheme::Garbling;

/// Tweak domain of the conversion hashes: the top bit keeps every τ apart
/// from the half-gates tweaks 2·and_idx and 2·and_idx + 1.
const CONVERT_TWEAK: u64 = 1 << 63;

/// Which outputs of a circuit leave as additive shares over Z_{2^ℓ}.
/// Public: both parties derive it from the public circuit parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedOutputSpec {
    /// Ring width ℓ of the shares, 1..=64.
    pub ell: usize,
    /// One entry per conversion, in the order the conversion words travel:
    /// the output wire it converts. A wire appears once per scalar it is
    /// converted with; an output not listed is revealed to the evaluator.
    pub wires: Vec<usize>,
}

impl SharedOutputSpec {
    /// Convert the listed output wires into shares over Z_{2^ℓ}.
    pub fn new(ell: usize, wires: Vec<usize>) -> SharedOutputSpec {
        assert!((1..=64).contains(&ell), "ring width must be in 1..=64");
        SharedOutputSpec { ell, wires }
    }

    /// `n` output words of `bits` ≤ ℓ bits each, as outputs `0..n·bits`:
    /// every bit is converted once, bit k of a word with scalar 2^k
    /// ([`word_scalars`]); [`fold_words`] sums each word's shares.
    pub fn words(n: usize, bits: usize, ell: usize) -> SharedOutputSpec {
        assert!(bits <= ell, "output word wider than the ring");
        SharedOutputSpec::new(ell, (0..n * bits).collect())
    }

    /// Per output wire of a circuit with `outputs` outputs: whether it is
    /// revealed to the evaluator (it has no conversion).
    pub fn revealed(&self, outputs: usize) -> Vec<bool> {
        let mut revealed = vec![true; outputs];
        for &o in &self.wires {
            revealed[o] = false;
        }
        revealed
    }

    /// The ring mask and the wire width of one conversion word.
    pub(crate) fn ring_word(&self) -> (u64, usize) {
        (u64::MAX >> (64 - self.ell), self.ell.div_ceil(8))
    }
}

/// The garbler's scalars for a [`SharedOutputSpec::words`] spec: 2^k for
/// bit k of each of the `n` words.
pub fn word_scalars(n: usize, bits: usize) -> Vec<u64> {
    (0..n).flat_map(|_| (0..bits).map(|k| 1u64 << k)).collect()
}

/// Sum each word's per-bit shares (`bits` of them) into one share mod 2^ℓ.
pub fn fold_words(shares: &[u64], bits: usize, ell: usize) -> Vec<u64> {
    let ring = RingCtx::new(ell as u32);
    shares
        .chunks_exact(bits)
        .map(|c| c.iter().fold(0, |a, &x| ring.add(a, x)))
        .collect()
}

/// Build a circuit whose result words (returned by `f`, which declares the
/// circuit's inputs) are its outputs, in order — the layout
/// [`SharedOutputSpec::words`] converts.
pub fn with_shared_outputs(f: impl FnOnce(&mut Builder) -> Vec<Word>) -> Circuit {
    let mut b = Builder::new();
    for word in f(&mut b) {
        b.output_word(&word);
    }
    b.finish()
}

/// Garbler half of the conversion: the kept shares g and the conversion
/// words c, one per entry of `spec.wires` (see the module docs). The
/// selections on the permute bits are branchless; the hash staging
/// buffers hold labels and are scrubbed.
pub(crate) fn garbler_convert(
    g: &Garbling,
    hasher: TweakHasher,
    spec: &SharedOutputSpec,
    scalars: &[u64],
) -> (Vec<u64>, Vec<u8>) {
    assert_eq!(scalars.len(), spec.wires.len(), "one scalar per conversion");
    let (mask, width) = spec.ring_word();
    let zero = g.output_zero_labels.expose();
    let delta = g.delta.expose_block();
    let mut xs: Vec<Block> = Vec::with_capacity(2 * spec.wires.len());
    let mut tweaks: Vec<u64> = Vec::with_capacity(2 * spec.wires.len());
    for (i, &o) in spec.wires.iter().enumerate() {
        // K^p = K⁰ ⊕ p·Δ is the colour-0 label, K^{1−p} = K^p ⊕ Δ.
        let colour0 = zero[o] ^ delta.ct_masked(CtChoice::from_bool(zero[o].lsb()));
        xs.extend([colour0, colour0 ^ delta]);
        tweaks.extend([CONVERT_TWEAK | i as u64; 2]);
    }
    let mut hs = hasher.hash_each(&xs, &tweaks);
    let mut kept = Vec::with_capacity(spec.wires.len());
    let mut words = vec![0u8; spec.wires.len() * width];
    for (i, (&o, &u)) in spec.wires.iter().zip(scalars).enumerate() {
        let pu = u & CtChoice::from_bool(zero[o].lsb()).mask_u64();
        let (h0, h1) = (hs[2 * i].0 as u64, hs[2 * i + 1].0 as u64);
        kept.push(pu.wrapping_sub(h0) & mask);
        let c = u
            .wrapping_sub(pu)
            .wrapping_sub(pu)
            .wrapping_add(h0)
            .wrapping_sub(h1);
        words[i * width..(i + 1) * width].copy_from_slice(&(c & mask).to_le_bytes()[..width]);
    }
    xs.zeroize();
    hs.zeroize();
    (kept, words)
}

/// Evaluator half of the conversion: e = H(L, τ) + lsb(L)·c for each
/// conversion, from the circuit's output labels and the received words.
pub(crate) fn evaluator_convert(
    out_labels: &[Block],
    hasher: TweakHasher,
    spec: &SharedOutputSpec,
    words: &[u8],
) -> Vec<u64> {
    let (mask, width) = spec.ring_word();
    let mut xs: Vec<Block> = spec.wires.iter().map(|&o| out_labels[o]).collect();
    let tweaks: Vec<u64> = (0..xs.len()).map(|i| CONVERT_TWEAK | i as u64).collect();
    let mut hs = hasher.hash_each(&xs, &tweaks);
    let shares = xs
        .iter()
        .zip(&hs)
        .zip(words.chunks_exact(width))
        .map(|((label, h), word)| {
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(word);
            let c = u64::from_le_bytes(le) & CtChoice::from_bool(label.lsb()).mask_u64();
            (h.0 as u64).wrapping_add(c) & mask
        })
        .collect();
    xs.zeroize();
    hs.zeroize();
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        evaluate_begin, evaluate_circuit, evaluate_offline, evaluate_shared_finish, garble_circuit,
        garble_offline, garble_shared, garble_shared_online, OutputMode,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secyan_circuit::{bits_to_u64, u64_to_bits};
    use secyan_ot::{OtReceiver, OtSender};
    use secyan_transport::run_protocol;

    /// Run a shared-output circuit, pre-garbled (`banked`) or inline.
    /// Returns the garbler's shares, the evaluator's shares and revealed
    /// bits, and the garbler-to-evaluator bytes.
    fn run_shared(
        circuit: &Circuit,
        spec: &SharedOutputSpec,
        scalars: Vec<u64>,
        a_bits: Vec<bool>,
        b_bits: Vec<bool>,
        banked: bool,
    ) -> (Vec<u64>, Vec<u64>, Vec<bool>, u64) {
        let hasher = TweakHasher::default();
        let (ca, cb) = (circuit.clone(), circuit.clone());
        let (sa, sb) = (spec.clone(), spec.clone());
        let (ga, (eb, revealed), stats) = run_protocol(
            move |ch| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut ot = OtSender::setup(ch, &mut rng, hasher);
                if banked {
                    let m = garble_offline(ch, &ca, hasher, &mut rng);
                    garble_shared_online(ch, &ca, m, &sa, &scalars, &a_bits, &mut ot)
                } else {
                    garble_shared(ch, &ca, &sa, &scalars, &a_bits, &mut ot, hasher, &mut rng)
                }
            },
            move |ch| {
                let mut rng = StdRng::seed_from_u64(2);
                let mut ot = OtReceiver::setup(ch, &mut rng, hasher);
                let material = banked.then(|| evaluate_offline(ch, &cb));
                let p = evaluate_begin(ch, &cb, material, &b_bits, &mut ot);
                evaluate_shared_finish(ch, &cb, p, &sb, &b_bits, &mut ot, hasher)
            },
        );
        (ga, eb, revealed, stats.bytes_alice_to_bob)
    }

    /// Circuit: multiply a shared input (one half per party, reconstructed
    /// by an in-circuit adder) by a garbler-private factor, outputting the
    /// product as shares.
    fn product_circuit(bits: usize) -> Circuit {
        with_shared_outputs(|b| {
            let factor = b.alice_word(bits);
            let va = b.alice_word(bits);
            let vb = b.bob_word(bits);
            let v = b.add_words(&va, &vb);
            vec![b.mul_words(&v, &factor)]
        })
    }

    #[test]
    fn conversion_at_every_width_and_scalar() {
        // Both wire values, scalars at and above 2^(ℓ−1), inline and
        // pre-garbled: e + g = b·u mod 2^ℓ.
        for ell in [1usize, 7, 32, 64] {
            let ring = RingCtx::new(ell as u32);
            let top = 1u64 << (ell - 1);
            let scalars = vec![top, ring.reduce(u64::MAX), ring.reduce(top | 5)];
            for banked in [false, true] {
                for (x, y) in [(false, false), (true, false), (true, true)] {
                    let mut b = Builder::new();
                    let xa = b.alice_input();
                    let yb = b.bob_input();
                    let o = b.xor(xa, yb);
                    b.output(o);
                    let c = b.finish();
                    let spec = SharedOutputSpec::new(ell, vec![0; 3]);
                    let (ga, eb, revealed, _) =
                        run_shared(&c, &spec, scalars.clone(), vec![x], vec![y], banked);
                    assert!(revealed.is_empty());
                    let bit = u64::from(x ^ y);
                    for (i, &u) in scalars.iter().enumerate() {
                        assert_eq!(
                            ring.reconstruct(ga[i], eb[i]),
                            ring.mul(bit, u),
                            "ℓ={ell} banked={banked} b={bit} u={u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shared_product_reconstructs() {
        for ell in [7usize, 32, 64] {
            let ring = RingCtx::new(ell as u32);
            let mut setup_rng = StdRng::seed_from_u64(42);
            let (secret, factor) = (ring.reduce(u64::MAX - 3), ring.reduce(0x1234_5678_9abc));
            let (sa, sb) = ring.share(secret, &mut setup_rng);
            let mut a_bits = u64_to_bits(factor, ell);
            a_bits.extend(u64_to_bits(sa, ell));
            let spec = SharedOutputSpec::words(1, ell, ell);
            for banked in [false, true] {
                let (ga, eb, _, _) = run_shared(
                    &product_circuit(ell),
                    &spec,
                    word_scalars(1, ell),
                    a_bits.clone(),
                    u64_to_bits(sb, ell),
                    banked,
                );
                let (ga, eb) = (fold_words(&ga, ell, ell), fold_words(&eb, ell, ell));
                let product = ring.mul(secret, factor);
                assert_eq!(ring.reconstruct(ga[0], eb[0]), product);
                // Neither share is the product itself (overwhelmingly).
                assert_ne!(eb[0], product);
            }
        }
    }

    #[test]
    fn multiple_output_words() {
        // Two words of different widths in one circuit, both shared over
        // Z_{2^16}: a 16-bit sum and an 8-bit doubling.
        let c = with_shared_outputs(|b| {
            let x = b.alice_word(16);
            let y = b.bob_word(8);
            let y16 = b.resize_word(&y, 16);
            let sum = b.add_words(&x, &y16);
            let y2 = b.add_words(&y, &y);
            vec![sum, y2]
        });
        let spec = SharedOutputSpec::new(16, (0..24).collect());
        let mut scalars = word_scalars(1, 16);
        scalars.extend(word_scalars(1, 8));
        let (ga, eb, _, _) = run_shared(
            &c,
            &spec,
            scalars,
            u64_to_bits(1000, 16),
            u64_to_bits(77, 8),
            false,
        );
        let ring = RingCtx::new(16);
        let word = |lo: usize, hi: usize| {
            let g = fold_words(&ga[lo..hi], hi - lo, 16)[0];
            let e = fold_words(&eb[lo..hi], hi - lo, 16)[0];
            ring.reconstruct(g, e)
        };
        assert_eq!(word(0, 16), 1077);
        assert_eq!(word(16, 24), 154);
    }

    #[test]
    fn mixed_circuit_reveals_only_unconverted_outputs() {
        // Output 0: x == y, converted at ℓ = 16 (one 2-byte word); outputs
        // 1..=8: x ⊕ y, revealed. Revealing all 9 outputs costs 2 bytes of
        // decode bits; the mixed circuit sends the word plus 1 byte of
        // decode bits for the 8 revealed outputs — none for the converted
        // wire, so it moves exactly 1 byte more.
        let mut b = Builder::new();
        let x = b.alice_word(8);
        let y = b.bob_word(8);
        let eq = b.eq_words(&x, &y);
        b.output(eq);
        let d = b.xor_words(&x, &y);
        b.output_word(&d);
        let c = b.finish();
        let spec = SharedOutputSpec::new(16, vec![0]);
        let ring = RingCtx::new(16);
        for (xv, yv) in [(42u64, 42u64), (42, 43)] {
            let (xb, yb) = (u64_to_bits(xv, 8), u64_to_bits(yv, 8));
            let (ga, eb, revealed, mixed_bytes) =
                run_shared(&c, &spec, vec![1], xb.clone(), yb.clone(), false);
            assert_eq!(ring.reconstruct(ga[0], eb[0]), u64::from(xv == yv));
            assert_eq!(revealed.len(), 8);
            assert_eq!(bits_to_u64(&revealed), xv ^ yv);
            let (ca, cb) = (c.clone(), c.clone());
            let (_, _, plain) = run_protocol(
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(1);
                    let mut ot = OtSender::setup(ch, &mut rng, TweakHasher::default());
                    let mode = OutputMode::RevealToEvaluator;
                    let hasher = TweakHasher::default();
                    garble_circuit(ch, &ca, &xb, &mut ot, hasher, &mut rng, mode)
                },
                move |ch| {
                    let mut rng = StdRng::seed_from_u64(2);
                    let mut ot = OtReceiver::setup(ch, &mut rng, TweakHasher::default());
                    let mode = OutputMode::RevealToEvaluator;
                    evaluate_circuit(ch, &cb, &yb, &mut ot, TweakHasher::default(), mode)
                },
            );
            assert_eq!(mixed_bytes, plain.bytes_alice_to_bob + 1);
        }
    }
}
