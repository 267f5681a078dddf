//! # haac-gc — garbled circuits cryptography
//!
//! The EMP-toolkit-equivalent substrate of the HAAC reproduction: the
//! cryptographic machinery that HAAC's gate engines accelerate.
//! Implements exactly the construction the paper targets (§2.1):
//!
//! - **FreeXOR** [Kolesnikov & Schneider]: XOR gates cost one 128-bit
//!   XOR; a global offset Δ ([`Delta`]) relates every label pair.
//! - **Half-Gate AND** [Zahur, Rosulek & Evans]: two table rows per AND;
//!   four hash calls to garble, two to evaluate — batched so the AES
//!   blocks pipeline ([`garble_and_batch`], [`eval_and_batch`]). On a
//!   VAES core a batch is one fused kernel a side: keys, rounds and the half-gate XOR network in 512-bit
//!   registers, as in HAAC's gate engine.
//! - **Re-keyed gate hash** [Guo et al.]: `H(x, i) = AES_i(x) ⊕ x` with
//!   exactly one key expansion per tweak (two per AND gate, metered by
//!   [`CryptoCounters`]) — the secure construction HAAC chooses over
//!   fixed-key AES, and the only one provided ([`GateHash`]).
//! - **Point-and-permute** decoding via label least-significant bits.
//!
//! The AES core dispatches at startup to AES-NI (x86_64), the ARMv8
//! crypto extensions (aarch64), or a portable software fallback — see
//! [`aes`].
//!
//! The crate has one of each thing:
//!
//! - **one oracle** — [`garble()`] and [`evaluate()`], a straight-line
//!   loop each over the raw netlist with every label resident. They are
//!   the paper's "CPU GC" baseline (what HAAC's speedups are measured
//!   against) and the reference every executor below is tested to match
//!   bit for bit; they are never optimised.
//! - **one label store** — the tagless slot slab ([`slab`]) a renamed
//!   [`SlotProgram`] indexes, behind [`StreamingGarbler`] and
//!   [`StreamingEvaluator`] ([`stream`]).
//! - **one garbling loop** — the slab loop behind [`StreamingGarbler`].
//!   It batches the plan's runs of independent AND gates through one
//!   cipher call, mirroring HAAC's parallel gate engines, and
//!   [`garble_plan_in`] runs it to completion ahead of time for a bank
//!   ([`instance`]).
//!
//! Two-party sessions (real OT, channels, framing) live in
//! `haac-runtime`; this crate supplies their state machines ([`ot`],
//! [`ot_ext`]), the stored-instance format ([`instance`]) and the
//! worker pool a server runs sessions on ([`engine`]).
//!
//! # Examples
//!
//! ```
//! use haac_circuit::Builder;
//! use haac_gc::{garble, evaluate, decode_outputs};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Private AND of two bits.
//! let mut b = Builder::new();
//! let x = b.input_garbler(1);
//! let y = b.input_evaluator(1);
//! let z = b.and(x[0], y[0]);
//! let circuit = b.finish(vec![z]).unwrap();
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let garbling = garble(&circuit, &mut rng);
//! let inputs = garbling.encode_inputs(&circuit, &[true], &[true]);
//! let out = evaluate(&circuit, &garbling.garbled.tables, &inputs);
//! assert_eq!(decode_outputs(&out, &garbling.garbled.output_decode), vec![true]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aes;
mod block;
pub mod engine;
mod evaluate;
mod garble;
mod hash;
pub mod instance;
pub mod ot;
pub mod ot_ext;
pub mod slab;
pub mod stream;

pub use aes::{active_backend, AesBackend};
pub use block::{
    blocks_from_wire, blocks_to_wire, tables_from_wire, tables_to_wire, wire_view, Block, Delta,
    TABLE_BYTES,
};
pub use engine::{EnginePool, PoolStats};
pub use evaluate::{eval_and, eval_and_batch, eval_inv, eval_xor, evaluate};
pub use garble::{
    decode_outputs, garble, garble_and, garble_and_batch, garble_inv, garble_xor, GarbledCircuit,
    Garbling, MAX_AND_BATCH,
};
pub use hash::{CryptoCounters, GateHash, HashScheme, OT_BASE_TWEAK, OT_EXT_TWEAK};
pub use instance::{garble_plan_in, BankedGarbler, InstanceDecodeError, PlanGarbling};
pub use ot::OtError;
pub use ot_ext::{OtExtReceiver, OtExtSender, KAPPA as OT_EXT_KAPPA};
pub use slab::{
    rename_in_order, rename_live_in_order, Renaming, RunClass, SlotInstr, SlotOp, SlotProgram,
    OOR_SLOT,
};
pub use stream::{
    baseline_plan, EvaluatorFinish, GarblerFinish, Liveness, StreamingEvaluator, StreamingGarbler,
};

#[cfg(test)]
mod tests {
    use super::*;
    use haac_circuit::Builder;
    use rand::{rngs::StdRng, SeedableRng};

    /// The crate-level invariant: garble∘evaluate∘decode == plaintext, on
    /// a circuit mixing every gate type.
    #[test]
    fn end_to_end_mixed_circuit() {
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.input_evaluator(8);
        let (sum, _) = b.add_words(&x, &y);
        let prod = b.mul_words_trunc(&x, &y);
        let lt = b.lt_u(&x, &y);
        let nx = b.not_word(&x);
        let mut outs = sum;
        outs.extend(prod);
        outs.push(lt);
        outs.extend(nx);
        let c = b.finish(outs).unwrap();

        let mut rng = StdRng::seed_from_u64(7);
        for (xv, yv) in [(3u64, 5u64), (255, 255), (0, 17), (170, 85)] {
            let gb = haac_circuit::to_bits(xv, 8);
            let eb = haac_circuit::to_bits(yv, 8);
            let g = garble(&c, &mut rng);
            let labels = g.encode_inputs(&c, &gb, &eb);
            let out = evaluate(&c, &g.garbled.tables, &labels);
            let got = decode_outputs(&out, &g.garbled.output_decode);
            assert_eq!(got, c.eval(&gb, &eb).unwrap(), "x={xv} y={yv}");
        }
    }
}
