//! Banked pre-garbled instances: the ahead-of-time drain, a byte
//! format, and replay.
//!
//! HAAC's premise is that garbling is embarrassingly precomputable —
//! tables depend only on the circuit and the garbler's randomness, never
//! on either party's inputs. A serving stack exploits that by garbling
//! *off the request path*: [`garble_plan_in`] runs the streaming
//! garbler's slab loop to completion during idle capacity, a bank
//! shelves the resulting [`PlanGarbling`], and at request time a
//! [`BankedGarbler`] replays the stored tables chunk-for-chunk with
//! **zero online cipher work** — only the OT/input phase still
//! computes. [`PlanGarbling::to_bytes`] and
//! [`PlanGarbling::from_bytes`] give an instance a checked byte form.
//!
//! Unlike CRGC-style reusable circuits, a banked instance is strictly
//! **one-time-use**: FreeXOR ties every label pair to one global Δ, so
//! streaming the same tables to two evaluators would let them pool
//! active labels and decode wires neither may learn. The type system
//! enforces this — [`BankedGarbler::new`] consumes the instance, and a
//! bank's claim API moves it out of storage.

use haac_circuit::WireId;
use rand::Rng;

use crate::block::{Block, Delta};
use crate::engine::EnginePool;
use crate::hash::{CryptoCounters, HashScheme};
use crate::slab::SlotProgram;
use crate::stream::{GarblerFinish, StreamingGarbler};

/// A whole garbling of a renamed [`SlotProgram`], made ahead of time by
/// [`garble_plan_in`]: everything the protocol ships or keeps, without
/// per-wire labels (the slab forgets a label the moment its window
/// slides past, exactly as it does online).
///
/// Bit-identical to driving [`StreamingGarbler::with_plan`] to
/// completion with the same seed: same Δ, same input labels, same table
/// stream, same decode string, same cipher counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanGarbling {
    /// The global FreeXOR offset.
    pub delta: Delta,
    /// Zero labels of all primary inputs (garbler inputs first).
    pub input_zero_labels: Vec<Block>,
    /// The garbled AND tables, in stream order.
    pub tables: Vec<[Block; 2]>,
    /// Permute bits of the output wires' zero labels.
    pub output_decode: Vec<bool>,
    /// Cipher work performed.
    pub crypto: CryptoCounters,
}

impl PlanGarbling {
    /// Encodes both parties' cleartext bits into active input labels
    /// (garbler bits first), as [`StreamingGarbler::encode_inputs`]
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if the combined width does not match the garbling's input
    /// count.
    pub fn encode_inputs(&self, garbler_bits: &[bool], evaluator_bits: &[bool]) -> Vec<Block> {
        assert_eq!(
            garbler_bits.len() + evaluator_bits.len(),
            self.input_zero_labels.len(),
            "input width"
        );
        garbler_bits
            .iter()
            .chain(evaluator_bits)
            .zip(&self.input_zero_labels)
            .map(|(&bit, &zero)| if bit { zero ^ self.delta.block() } else { zero })
            .collect()
    }
}

/// Garbles a whole renamed [`SlotProgram`] ahead of time: the
/// [`StreamingGarbler`] slab loop drained in one call, so a banked
/// instance comes out of the same loop as every online session.
///
/// The transcript — Δ, input labels, every table, the decode string,
/// the cipher counters — is the streaming garbler's for the same seed.
/// A plan whose slab is below its natural window reads its far operands
/// from the OoRW store here exactly as it does online.
///
/// `pool` is unused: the drain runs on the calling thread, and the
/// argument only keeps the signature its callers already use.
pub fn garble_plan_in<R: Rng + ?Sized>(
    plan: &SlotProgram,
    rng: &mut R,
    scheme: HashScheme,
    _pool: &EnginePool,
) -> PlanGarbling {
    let mut garbler = StreamingGarbler::with_plan(plan, rng, scheme);
    let delta = garbler.delta();
    let input_zero_labels = garbler.take_input_zero_labels();
    let mut tables = Vec::with_capacity(plan.and_count());
    garbler.next_tables_into(usize::MAX, &mut tables);
    let GarblerFinish { output_decode, crypto, .. } = garbler.finish();
    PlanGarbling { delta, input_zero_labels, tables, output_decode, crypto }
}

/// Serialization format tag: bumped on any layout change so a stale
/// bank is refused loudly instead of deserializing garbage.
const MAGIC: &[u8; 8] = b"HAACPGI1";

/// A stored instance failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceDecodeError(String);

impl std::fmt::Display for InstanceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "banked instance decode: {}", self.0)
    }
}

impl std::error::Error for InstanceDecodeError {}

fn decode_err(message: impl Into<String>) -> InstanceDecodeError {
    InstanceDecodeError(message.into())
}

/// A little-endian cursor over a stored instance's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], InstanceDecodeError> {
        let end = self.at.checked_add(n).filter(|&end| end <= self.bytes.len());
        let end = end.ok_or_else(|| decode_err("truncated instance"))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u64(&mut self) -> Result<u64, InstanceDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn block(&mut self) -> Result<Block, InstanceDecodeError> {
        Ok(Block::from_bytes(self.take(16)?.try_into().expect("16 bytes")))
    }

    /// A length prefix that must be satisfiable by the remaining bytes
    /// (`unit` = bytes per element) — a corrupt count must not drive
    /// allocation.
    fn len(&mut self, unit: usize, what: &str) -> Result<usize, InstanceDecodeError> {
        let count = self.u64()?;
        let count = usize::try_from(count).map_err(|_| decode_err(format!("{what} count")))?;
        let need = count.checked_mul(unit).ok_or_else(|| decode_err(format!("{what} count")))?;
        if need > self.bytes.len() - self.at {
            return Err(decode_err(format!("{what} count exceeds payload")));
        }
        Ok(count)
    }
}

impl PlanGarbling {
    /// Serializes the instance for bank storage: magic, Δ, input zero
    /// labels, tables in stream order, bit-packed decode string, and the
    /// precompute cipher counters. Everything is little-endian, like the
    /// wire protocol.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(
            MAGIC.len()
                + 16
                + 8 * 4
                + 16 * self.input_zero_labels.len()
                + 32 * self.tables.len()
                + self.output_decode.len().div_ceil(8)
                + 16,
        );
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&self.delta.block().to_bytes());
        bytes.extend_from_slice(&(self.input_zero_labels.len() as u64).to_le_bytes());
        for label in &self.input_zero_labels {
            bytes.extend_from_slice(&label.to_bytes());
        }
        bytes.extend_from_slice(&(self.tables.len() as u64).to_le_bytes());
        for table in &self.tables {
            bytes.extend_from_slice(&table[0].to_bytes());
            bytes.extend_from_slice(&table[1].to_bytes());
        }
        bytes.extend_from_slice(&(self.output_decode.len() as u64).to_le_bytes());
        let mut byte = 0u8;
        for (i, &bit) in self.output_decode.iter().enumerate() {
            byte |= (bit as u8) << (i % 8);
            if i % 8 == 7 {
                bytes.push(byte);
                byte = 0;
            }
        }
        if !self.output_decode.len().is_multiple_of(8) {
            bytes.push(byte);
        }
        bytes.extend_from_slice(&self.crypto.key_expansions.to_le_bytes());
        bytes.extend_from_slice(&self.crypto.aes_blocks.to_le_bytes());
        bytes
    }

    /// Decodes an instance serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns a [`InstanceDecodeError`] on a wrong magic, a truncated
    /// payload, an overlong length prefix, a Δ whose point-and-permute
    /// bit (lsb) is not 1, nonzero padding bits after the decode
    /// string, or trailing bytes — so the bytes that decode are exactly
    /// the bytes [`to_bytes`](Self::to_bytes) writes for the result.
    pub fn from_bytes(bytes: &[u8]) -> Result<PlanGarbling, InstanceDecodeError> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(decode_err("bad magic (not a banked instance, or a stale format)"));
        }
        let delta_block = r.block()?;
        let delta = Delta::from_block(delta_block);
        if delta.block() != delta_block {
            return Err(decode_err("delta lsb must be 1"));
        }
        let inputs = r.len(16, "input label")?;
        let input_zero_labels = (0..inputs).map(|_| r.block()).collect::<Result<Vec<_>, _>>()?;
        let num_tables = r.len(32, "table")?;
        let tables = (0..num_tables)
            .map(|_| Ok([r.block()?, r.block()?]))
            .collect::<Result<Vec<_>, InstanceDecodeError>>()?;
        let outputs = r.len(0, "output bit")?;
        let packed = r.take(outputs.div_ceil(8))?;
        // One byte string per instance: the unused high bits of the
        // last packed byte are zero, as `to_bytes` writes them.
        if outputs % 8 != 0 && packed[packed.len() - 1] >> (outputs % 8) != 0 {
            return Err(decode_err("nonzero padding in the decode string"));
        }
        let output_decode = (0..outputs).map(|i| packed[i / 8] >> (i % 8) & 1 == 1).collect();
        let crypto = CryptoCounters { key_expansions: r.u64()?, aes_blocks: r.u64()? };
        if r.at != bytes.len() {
            return Err(decode_err("trailing bytes"));
        }
        Ok(PlanGarbling { delta, input_zero_labels, tables, output_decode, crypto })
    }
}

/// Replays a pre-garbled instance through the streaming-garbler surface.
///
/// Mirrors [`StreamingGarbler`] closely enough that a session driver is
/// generic over the two: input labels are available until the first
/// chunk is pulled, chunks come out in stream order via
/// [`next_tables_into`](Self::next_tables_into), and
/// [`finish`](Self::finish) consumes the garbler. The difference is the
/// cost model — every "garbled" chunk is a memcpy from storage, so
/// [`finish`](Self::finish) reports **zero** online cipher work (the
/// precompute cost stayed with the producer).
///
/// Construction consumes the [`PlanGarbling`]: an instance that has
/// become a `BankedGarbler` cannot be banked, cloned, or replayed again
/// (one-time-use, enforced by move semantics).
#[derive(Debug)]
pub struct BankedGarbler {
    delta: Delta,
    /// Dropped when streaming starts, like the streaming garbler's.
    input_zero_labels: Option<Vec<Block>>,
    tables: Vec<[Block; 2]>,
    cursor: usize,
    started: bool,
    output_decode: Vec<bool>,
    precompute_crypto: CryptoCounters,
}

impl BankedGarbler {
    /// Takes ownership of a pre-garbled instance for one replay.
    pub fn new(instance: PlanGarbling) -> BankedGarbler {
        BankedGarbler {
            delta: instance.delta,
            input_zero_labels: Some(instance.input_zero_labels),
            tables: instance.tables,
            cursor: 0,
            started: false,
            output_decode: instance.output_decode,
            precompute_crypto: instance.crypto,
        }
    }

    /// The instance's FreeXOR offset.
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// The `(zero, one)` label pair of a primary input wire.
    ///
    /// # Panics
    ///
    /// Panics once streaming has started (labels are dropped, exactly as
    /// the streaming garbler drops them) or on an out-of-range wire.
    pub fn input_label_pair(&self, wire: WireId) -> (Block, Block) {
        let inputs = self
            .input_zero_labels
            .as_ref()
            .expect("input labels are only available before streaming starts");
        let zero = inputs[wire as usize];
        (zero, zero ^ self.delta.block())
    }

    /// Active labels for the garbler's own inputs (the first
    /// `garbler_bits.len()` primary inputs).
    ///
    /// # Panics
    ///
    /// Panics once streaming has started or if `garbler_bits` is wider
    /// than the instance's input count.
    pub fn garbler_input_labels(&self, garbler_bits: &[bool]) -> Vec<Block> {
        let inputs = self
            .input_zero_labels
            .as_ref()
            .expect("input labels are only available before streaming starts");
        assert!(garbler_bits.len() <= inputs.len(), "garbler input width");
        garbler_bits
            .iter()
            .zip(inputs)
            .map(|(&bit, &zero)| if bit { zero ^ self.delta.block() } else { zero })
            .collect()
    }

    /// Number of primary input labels stored (before streaming starts).
    pub fn num_inputs(&self) -> usize {
        self.input_zero_labels.as_ref().map_or(0, Vec::len)
    }

    /// Copies the next chunk of up to `max_tables` stored tables into
    /// `tables`, dropping the input labels on the first call. Returns
    /// `false` once the replay is exhausted — same contract as
    /// [`StreamingGarbler::next_tables_into`], so the chunk framing on
    /// the wire is identical to an online garbling with the same chunk
    /// size.
    pub fn next_tables_into(&mut self, max_tables: usize, tables: &mut Vec<[Block; 2]>) -> bool {
        assert!(max_tables > 0, "chunk capacity must be positive");
        tables.clear();
        if self.started && self.cursor == self.tables.len() {
            return false;
        }
        self.started = true;
        self.input_zero_labels = None;
        let take = max_tables.min(self.tables.len() - self.cursor);
        tables.extend_from_slice(&self.tables[self.cursor..self.cursor + take]);
        self.cursor += take;
        true
    }

    /// Whether every stored table has been replayed.
    pub fn is_done(&self) -> bool {
        self.cursor == self.tables.len()
    }

    /// Total AND tables this replay will emit.
    pub fn total_tables(&self) -> usize {
        self.tables.len()
    }

    /// Always 0: replay reads storage, never the wire-slot slab.
    pub fn oor_queue_len(&self) -> usize {
        0
    }

    /// Number of output-decode bits stored.
    pub fn num_outputs(&self) -> usize {
        self.output_decode.len()
    }

    /// Cipher work the *producer* spent garbling this instance — carried
    /// for attribution, never counted against the serving session.
    pub fn precompute_crypto(&self) -> CryptoCounters {
        self.precompute_crypto
    }

    /// Ends the replay, yielding the decode string. Online cipher work
    /// and memory high-water marks are all zero: nothing was garbled and
    /// no label window was maintained on the request path.
    ///
    /// # Panics
    ///
    /// Panics unless [`is_done`](Self::is_done).
    pub fn finish(self) -> GarblerFinish {
        assert!(self.is_done(), "finish() before every stored table was replayed");
        GarblerFinish {
            output_decode: self.output_decode,
            peak_live_wires: 0,
            oor_queue_peak: 0,
            crypto: CryptoCounters::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::baseline_plan;
    use haac_circuit::Builder;
    use rand::{rngs::StdRng, SeedableRng};

    fn sample_circuit() -> haac_circuit::Circuit {
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.input_evaluator(8);
        let (sum, carry) = b.add_words(&x, &y);
        let lt = b.lt_u(&x, &y);
        let mut outs = sum;
        outs.push(carry);
        outs.push(lt);
        b.finish(outs).unwrap()
    }

    fn sample_instance(seed: u64) -> PlanGarbling {
        let plan = baseline_plan(&sample_circuit());
        let pool = EnginePool::new(2);
        garble_plan_in(&plan, &mut StdRng::seed_from_u64(seed), HashScheme::Rekeyed, &pool)
    }

    #[test]
    fn serialization_roundtrips() {
        let instance = sample_instance(11);
        let bytes = instance.to_bytes();
        assert_eq!(PlanGarbling::from_bytes(&bytes).unwrap(), instance);
    }

    #[test]
    fn decode_refuses_corruption() {
        let instance = sample_instance(12);
        let bytes = instance.to_bytes();
        assert!(PlanGarbling::from_bytes(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(PlanGarbling::from_bytes(&extra).is_err(), "trailing bytes");
        let mut magic = bytes.clone();
        magic[0] ^= 0xff;
        assert!(PlanGarbling::from_bytes(&magic).is_err(), "magic");
        let mut count = bytes;
        // Input-label count prefix (right after magic + Δ) blown up past
        // the payload.
        count[MAGIC.len() + 16] = 0xff;
        count[MAGIC.len() + 16 + 7] = 0xff;
        assert!(PlanGarbling::from_bytes(&count).is_err(), "overlong count");
    }

    /// The whole point of the bank: a replayed instance's chunk stream is
    /// bit-identical to garbling online with the same seed, for every
    /// chunk size — including ones that don't divide the table count.
    #[test]
    fn replay_chunks_match_online_garbling() {
        let circuit = sample_circuit();
        let plan = baseline_plan(&circuit);
        for chunk in [1, 3, 7, 1 << 12] {
            let mut online = StreamingGarbler::with_plan(
                &plan,
                &mut StdRng::seed_from_u64(99),
                HashScheme::Rekeyed,
            );
            let mut banked = BankedGarbler::new(sample_instance(99));
            assert_eq!(banked.delta(), online.delta());
            assert_eq!(
                banked.garbler_input_labels(&[true; 8]),
                online.garbler_input_labels(&[true; 8]),
            );
            for wire in 8..16u32 {
                assert_eq!(banked.input_label_pair(wire), online.input_label_pair(wire));
            }
            let (mut got, mut want) = (Vec::new(), Vec::new());
            loop {
                let more_online = online.next_tables_into(chunk, &mut want);
                let more_banked = banked.next_tables_into(chunk, &mut got);
                // Online may emit one trailing empty chunk while it walks
                // a non-AND tail; replay has no tail to walk. Empty
                // chunks never reach the wire, so only compare content.
                if !want.is_empty() || !got.is_empty() {
                    assert_eq!(got, want, "chunk={chunk}");
                }
                if !more_online {
                    assert!(!banked.next_tables_into(chunk, &mut got) || got.is_empty());
                    break;
                }
                if !more_banked {
                    assert!(want.is_empty());
                }
            }
            let online_fin = online.finish();
            let banked_fin = banked.finish();
            assert_eq!(banked_fin.output_decode, online_fin.output_decode);
            assert_eq!(banked_fin.crypto, CryptoCounters::default(), "zero online cipher work");
        }
    }

    #[test]
    #[should_panic(expected = "before streaming starts")]
    fn input_labels_unavailable_after_streaming() {
        let mut banked = BankedGarbler::new(sample_instance(5));
        let mut chunk = Vec::new();
        banked.next_tables_into(4, &mut chunk);
        let _ = banked.input_label_pair(0);
    }
}
