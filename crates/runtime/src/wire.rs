//! Protocol framing: typed messages over a [`Channel`].
//!
//! Every message is one frame: a 1-byte tag, a 4-byte little-endian
//! payload length, and the payload. Blocks and group elements are 16-byte
//! little-endian; bit strings are count-prefixed and bit-packed. The
//! framing is self-describing enough that a peer speaking a different
//! protocol version fails loudly (unknown tag / length mismatch) instead
//! of desynchronizing.

use haac_core::ReorderKind;
use haac_gc::{
    blocks_from_wire, blocks_to_wire, tables_from_wire, tables_to_wire, wire_view, Block,
    HashScheme, TABLE_BYTES,
};

use crate::channel::Channel;
use crate::error::RuntimeError;

/// Upper bound on a single frame payload (64 MiB) — a corrupt or hostile
/// length prefix must not drive allocation.
const MAX_PAYLOAD: usize = 64 << 20;

/// Frame tag of [`Message::Tables`].
const TABLES_TAG: u8 = 6;

/// Bytes of a `Tables` payload ahead of the tables: the stream cursor
/// (8 B) and the table count (4 B).
const TABLES_PREFIX: usize = 8 + 4;

/// Bytes of a `Tables` frame ahead of the tables: tag and length (5 B)
/// and the payload prefix — see [`tables_frame_head`].
pub const TABLES_HEAD: usize = 5 + TABLES_PREFIX;

/// Frame tag of [`Message::Resume`]. Public because a server dispatches
/// on the first byte of a fresh connection: a service request opens with
/// its own request tag, a reconnect opens with a raw `Resume` frame.
pub const RESUME_TAG: u8 = 11;

/// Session parameters the garbler announces before streaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionHeader {
    /// The garbler's plan digest (`SlotProgram::digest`): the evaluator
    /// must have lowered the same program, or the stream would decode
    /// to garbage, so a mismatch is refused before any table moves.
    pub plan_digest: [u8; 16],
    /// The gate-hash construction in use.
    pub scheme: HashScheme,
    /// Tables per streamed `Tables` frame — the garbler's
    /// `SessionConfig::chunk_tables`, a capacity hint: every frame
    /// carries its own count.
    pub chunk_tables: u32,
    /// Cumulative-ack cadence: the evaluator sends a [`Message::ChunkAck`]
    /// after every `ack_interval` table frames. The garbler's replay
    /// buffer (and therefore its backpressure point) is sized from this.
    pub ack_interval: u32,
    /// How evaluator-input labels are delivered. Both parties drive the
    /// same OT message flow, so a mismatch is refused before any OT
    /// round runs.
    pub ot_mode: OtMode,
}

/// How a session delivers the evaluator's input labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OtMode {
    /// One Chou–Orlandi base OT per evaluator input bit (three
    /// public-key exponentiations each).
    #[default]
    Base,
    /// IKNP-style OT extension: ~128 base OTs (roles reversed)
    /// bootstrap one cheap AES-evaluated correlated OT per input bit.
    Extended,
}

impl OtMode {
    /// The human-readable spelling (error messages, metrics labels).
    pub fn label(self) -> &'static str {
        match self {
            OtMode::Base => "base",
            OtMode::Extended => "extended",
        }
    }
}

/// Wire tag of an [`OtMode`] (shared by the session header and the
/// server's request/ack frames).
pub fn ot_mode_tag(mode: OtMode) -> u8 {
    match mode {
        OtMode::Base => 0,
        OtMode::Extended => 1,
    }
}

/// Decodes an [`OtMode`] wire tag.
///
/// # Errors
///
/// Returns a protocol error for an unknown tag.
pub fn ot_mode_from_tag(tag: u8) -> Result<OtMode, RuntimeError> {
    match tag {
        0 => Ok(OtMode::Base),
        1 => Ok(OtMode::Extended),
        other => Err(RuntimeError::protocol(format!("unknown OT mode tag {other}"))),
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session parameters (garbler → evaluator, first).
    Header(SessionHeader),
    /// Active labels for the garbler's own inputs (garbler → evaluator).
    GarblerInputs(Vec<Block>),
    /// Base-OT sender public point `S` plus the batch nonce folded into
    /// key derivation. Garbler → evaluator in base mode; evaluator →
    /// garbler in extended mode, where the base-OT roles reverse.
    OtSetup {
        /// The sender's public point `S = g^y`.
        point: u128,
        /// The sender-sampled per-batch nonce.
        nonce: u128,
    },
    /// Base-OT blinded points, one per choice bit (base-OT receiver →
    /// sender; the direction follows the mode, as with `OtSetup`).
    OtPoints(Vec<u128>),
    /// Base-OT ciphertext pairs (base-OT sender → receiver).
    OtCiphertexts(Vec<[Block; 2]>),
    /// OT extension `u` matrix: κ columns of `⌈m/κ⌉` packed bit blocks,
    /// flattened column-major (evaluator → garbler).
    OtExtMatrix(Vec<Block>),
    /// OT extension masked label pairs, one per evaluator input
    /// (garbler → evaluator).
    OtExtLabels(Vec<[Block; 2]>),
    /// One chunk of garbled AND tables, in gate order (garbler → evaluator).
    Tables {
        /// Position of this frame in the session's stream-frame sequence
        /// (table chunks first, then the output-decode frame). Resume is
        /// byte replay addressed by this cursor.
        seq: u64,
        /// The chunk's garbled tables.
        tables: Vec<[Block; 2]>,
    },
    /// Output decode string (garbler → evaluator, after the last chunk).
    OutputDecode(Vec<bool>),
    /// Decoded cleartext outputs (evaluator → garbler, output sharing).
    Outputs(Vec<bool>),
    /// Cumulative stream acknowledgement (evaluator → garbler): every
    /// frame with `seq < upto_seq` has been received and fed, so the
    /// garbler may drop it from its replay buffer.
    ChunkAck {
        /// Exclusive upper bound of the acknowledged prefix.
        upto_seq: u64,
    },
    /// Reconnect hello (evaluator → garbler on a **fresh** connection):
    /// resume the suspended session identified by `ticket` from stream
    /// frame `next_seq`.
    Resume {
        /// Opaque ticket issued with the original session ack.
        ticket: u128,
        /// First stream frame the evaluator has not yet received.
        next_seq: u64,
    },
    /// Resume acceptance (garbler → evaluator): replay starts at
    /// `from_seq`, which must equal the requested `next_seq`.
    ResumeAck {
        /// First frame the garbler will (re)send.
        from_seq: u64,
    },
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Header(_) => 1,
            Message::GarblerInputs(_) => 2,
            Message::OtSetup { .. } => 3,
            Message::OtPoints(_) => 4,
            Message::OtCiphertexts(_) => 5,
            Message::Tables { .. } => TABLES_TAG,
            Message::OutputDecode(_) => 7,
            Message::Outputs(_) => 8,
            Message::OtExtMatrix(_) => 9,
            Message::OtExtLabels(_) => 10,
            Message::Resume { .. } => RESUME_TAG,
            Message::ResumeAck { .. } => 12,
            Message::ChunkAck { .. } => 13,
        }
    }

    /// A short human-readable name (for error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Message::Header(_) => "Header",
            Message::GarblerInputs(_) => "GarblerInputs",
            Message::OtSetup { .. } => "OtSetup",
            Message::OtPoints(_) => "OtPoints",
            Message::OtCiphertexts(_) => "OtCiphertexts",
            Message::Tables { .. } => "Tables",
            Message::OutputDecode(_) => "OutputDecode",
            Message::Outputs(_) => "Outputs",
            Message::OtExtMatrix(_) => "OtExtMatrix",
            Message::OtExtLabels(_) => "OtExtLabels",
            Message::Resume { .. } => "Resume",
            Message::ResumeAck { .. } => "ResumeAck",
            Message::ChunkAck { .. } => "ChunkAck",
        }
    }
}

fn scheme_tag(scheme: HashScheme) -> u8 {
    match scheme {
        HashScheme::Rekeyed => 0,
        HashScheme::FixedKey => 1,
    }
}

fn scheme_from_tag(tag: u8) -> Result<HashScheme, RuntimeError> {
    match tag {
        0 => Ok(HashScheme::Rekeyed),
        1 => Ok(HashScheme::FixedKey),
        other => Err(RuntimeError::protocol(format!("unknown hash scheme tag {other}"))),
    }
}

/// Wire tag of a [`ReorderKind`] (the server's request and ack frames).
pub fn reorder_tag(reorder: ReorderKind) -> u8 {
    match reorder {
        ReorderKind::Baseline => 0,
        ReorderKind::Full => 1,
        ReorderKind::Segment => 2,
    }
}

/// Decodes a [`ReorderKind`] wire tag.
///
/// # Errors
///
/// Returns a protocol error for an unknown tag.
pub fn reorder_from_tag(tag: u8) -> Result<ReorderKind, RuntimeError> {
    match tag {
        0 => Ok(ReorderKind::Baseline),
        1 => Ok(ReorderKind::Full),
        2 => Ok(ReorderKind::Segment),
        other => Err(RuntimeError::protocol(format!("unknown reorder kind tag {other}"))),
    }
}

fn push_blocks(payload: &mut Vec<u8>, blocks: &[Block]) {
    payload.reserve(4 + 16 * blocks.len());
    payload.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    blocks_to_wire(blocks, payload);
}

fn push_tables(payload: &mut Vec<u8>, tables: &[[Block; 2]]) {
    payload.reserve(4 + TABLE_BYTES * tables.len());
    payload.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    tables_to_wire(tables, payload);
}

fn push_bits(payload: &mut Vec<u8>, bits: &[bool]) {
    payload.extend_from_slice(&(bits.len() as u32).to_le_bytes());
    let mut byte = 0u8;
    for (i, &bit) in bits.iter().enumerate() {
        byte |= (bit as u8) << (i % 8);
        if i % 8 == 7 {
            payload.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        payload.push(byte);
    }
}

/// Serializes and sends one message. Does **not** flush — the session
/// layer owns flush boundaries.
///
/// # Errors
///
/// Propagates channel I/O failures.
pub fn write_message<C: Channel + ?Sized>(
    channel: &mut C,
    message: &Message,
) -> Result<(), RuntimeError> {
    // One `Tables` encoder: the head the streaming loop sends ahead of
    // the tables' own bytes.
    if let Message::Tables { seq, tables } = message {
        channel.send(&tables_frame_head(*seq, tables.len())?)?;
        return Ok(channel.send(&wire_view(tables.as_flattened()))?);
    }
    Ok(channel.send(&encode_frame(message)?)?)
}

/// Appends a message's payload to `payload` (the streaming loop never
/// comes here for `Tables`: it sends [`tables_frame_head`] and the
/// tables).
fn encode_payload(message: &Message, payload: &mut Vec<u8>) {
    match message {
        Message::Header(h) => {
            payload.extend_from_slice(&h.plan_digest);
            payload.push(scheme_tag(h.scheme));
            payload.extend_from_slice(&h.chunk_tables.to_le_bytes());
            payload.extend_from_slice(&h.ack_interval.to_le_bytes());
            payload.push(ot_mode_tag(h.ot_mode));
        }
        Message::GarblerInputs(labels) => push_blocks(payload, labels),
        Message::OtSetup { point, nonce } => {
            payload.extend_from_slice(&point.to_le_bytes());
            payload.extend_from_slice(&nonce.to_le_bytes());
        }
        Message::OtPoints(points) => {
            payload.extend_from_slice(&(points.len() as u32).to_le_bytes());
            for point in points {
                payload.extend_from_slice(&point.to_le_bytes());
            }
        }
        Message::OtCiphertexts(pairs) | Message::OtExtLabels(pairs) => push_tables(payload, pairs),
        Message::OtExtMatrix(blocks) => push_blocks(payload, blocks),
        Message::Tables { seq, tables } => {
            payload.extend_from_slice(&seq.to_le_bytes());
            push_tables(payload, tables);
        }
        Message::OutputDecode(bits) | Message::Outputs(bits) => push_bits(payload, bits),
        Message::Resume { ticket, next_seq } => {
            payload.extend_from_slice(&ticket.to_le_bytes());
            payload.extend_from_slice(&next_seq.to_le_bytes());
        }
        Message::ResumeAck { from_seq } => payload.extend_from_slice(&from_seq.to_le_bytes()),
        Message::ChunkAck { upto_seq } => payload.extend_from_slice(&upto_seq.to_le_bytes()),
    }
}

/// Serializes one message into its exact wire frame (tag + length +
/// payload), encoding the payload in place behind the head — the bytes
/// a resumable garbler stashes in its replay buffer so that resume is
/// byte replay, never re-encoding.
///
/// # Errors
///
/// Rejects oversized payloads (same bound the channel writers enforce).
pub fn encode_frame(message: &Message) -> Result<Vec<u8>, RuntimeError> {
    let mut frame = vec![message.tag(), 0, 0, 0, 0];
    encode_payload(message, &mut frame);
    let payload_len = frame.len() - 5;
    if payload_len > MAX_PAYLOAD {
        return Err(RuntimeError::protocol(format!(
            "{} frame of {payload_len} bytes exceeds the {MAX_PAYLOAD} byte limit",
            message.name(),
        )));
    }
    frame[1..5].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(frame)
}

/// Wire bytes of a `Tables` frame carrying `tables` tables: tag and
/// length (5 B), stream cursor (8 B), count (4 B), then 32 B per table.
pub fn tables_frame_len(tables: usize) -> usize {
    TABLES_HEAD + TABLE_BYTES * tables
}

/// The head of a `Tables` frame carrying `count` tables under stream
/// cursor `seq` — tag, length, cursor and count. The frame is this head
/// followed by the tables' wire bytes ([`wire_view`] of the flattened
/// chunk), byte-identical to what [`encode_frame`] builds from the owned
/// message; the garbler sends the two parts as they lie, so a chunk is
/// never copied into a frame.
///
/// # Errors
///
/// Rejects oversized chunks.
pub fn tables_frame_head(seq: u64, count: usize) -> Result<[u8; TABLES_HEAD], RuntimeError> {
    let payload_len = tables_frame_len(count) - 5;
    if payload_len > MAX_PAYLOAD {
        return Err(RuntimeError::protocol(format!(
            "Tables frame of {payload_len} bytes exceeds the {MAX_PAYLOAD} byte limit"
        )));
    }
    let mut head = [0u8; TABLES_HEAD];
    head[0] = TABLES_TAG;
    head[1..5].copy_from_slice(&(payload_len as u32).to_le_bytes());
    head[5..13].copy_from_slice(&seq.to_le_bytes());
    head[13..].copy_from_slice(&(count as u32).to_le_bytes());
    Ok(head)
}

struct PayloadReader {
    bytes: Vec<u8>,
    pos: usize,
}

impl PayloadReader {
    fn take(&mut self, n: usize) -> Result<&[u8], RuntimeError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or_else(|| RuntimeError::protocol("frame payload truncated"))?;
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, RuntimeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, RuntimeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u128(&mut self) -> Result<u128, RuntimeError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16 bytes")))
    }

    fn u8(&mut self) -> Result<u8, RuntimeError> {
        Ok(self.take(1)?[0])
    }

    /// Bytes of payload not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads a count prefix. It is untrusted: the items it promises
    /// must actually be present in the (already length-capped) payload
    /// before a single element is allocated — a hostile 4-byte count in
    /// a tiny frame must not drive a giant `Vec` reservation.
    fn count(&mut self, per_item_bytes: usize) -> Result<usize, RuntimeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(per_item_bytes) > self.remaining() {
            return Err(RuntimeError::protocol(format!(
                "count {count} exceeds the {} bytes of frame payload",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// A count-prefixed run of table-shaped pairs, decoded in one pass.
    fn tables(&mut self) -> Result<Vec<[Block; 2]>, RuntimeError> {
        let count = self.count(TABLE_BYTES)?;
        let bytes = self.take(TABLE_BYTES * count)?;
        let mut tables = vec![[Block::ZERO; 2]; count];
        tables_from_wire(&mut tables, copy_from(bytes))?;
        Ok(tables)
    }

    /// A count-prefixed run of blocks, decoded in one pass into a
    /// presized vector once the count has been checked against the
    /// payload.
    fn blocks(&mut self) -> Result<Vec<Block>, RuntimeError> {
        let count = self.count(16)?;
        let bytes = self.take(16 * count)?;
        let mut blocks = vec![Block::ZERO; count];
        blocks_from_wire(&mut blocks, copy_from(bytes))?;
        Ok(blocks)
    }

    fn counted<T>(
        &mut self,
        per_item_bytes: usize,
        read: impl Fn(&mut Self) -> Result<T, RuntimeError>,
    ) -> Result<Vec<T>, RuntimeError> {
        let count = self.count(per_item_bytes)?;
        (0..count).map(|_| read(self)).collect()
    }

    fn bits(&mut self) -> Result<Vec<bool>, RuntimeError> {
        let count = self.u32()? as usize;
        // Same cap as `counted`: never trust the prefix beyond the bytes
        // that actually arrived (8 bits per payload byte).
        if count.div_ceil(8) > self.remaining() {
            return Err(RuntimeError::protocol(format!(
                "bit count {count} exceeds the {} bytes of frame payload",
                self.remaining()
            )));
        }
        let bytes = self.take(count.div_ceil(8))?;
        Ok((0..count).map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1).collect())
    }

    fn finish(self) -> Result<(), RuntimeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(RuntimeError::protocol("frame payload has trailing bytes"))
        }
    }
}

/// A wire-decoder fill that copies `bytes`, which are exactly as long
/// as the buffer it is handed.
fn copy_from(bytes: &[u8]) -> impl FnOnce(&mut [u8]) -> Result<(), RuntimeError> + '_ {
    |buf| {
        buf.copy_from_slice(bytes);
        Ok(())
    }
}

/// The length prefix is untrusted: it is capped before it sizes anything.
fn check_len(len: usize) -> Result<(), RuntimeError> {
    if len > MAX_PAYLOAD {
        return Err(RuntimeError::protocol(format!("frame of {len} bytes exceeds limit")));
    }
    Ok(())
}

/// Receives and decodes one message (blocking).
///
/// # Errors
///
/// Propagates channel I/O failures and rejects malformed frames.
pub fn read_message<C: Channel + ?Sized>(channel: &mut C) -> Result<Message, RuntimeError> {
    let mut tag = [0u8; 1];
    channel.recv_exact(&mut tag)?;
    let mut len = [0u8; 4];
    channel.recv_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    check_len(len)?;
    read_payload(channel, tag[0], len)
}

/// Receives the `len`-byte payload of a frame tagged `tag` and decodes it.
fn read_payload<C: Channel + ?Sized>(
    channel: &mut C,
    tag: u8,
    len: usize,
) -> Result<Message, RuntimeError> {
    let mut bytes = vec![0u8; len];
    channel.recv_exact(&mut bytes)?;
    let mut r = PayloadReader { bytes, pos: 0 };

    let message = match tag {
        1 => Message::Header(SessionHeader {
            plan_digest: r.u128()?.to_le_bytes(),
            scheme: scheme_from_tag(r.u8()?)?,
            chunk_tables: r.u32()?,
            ack_interval: r.u32()?,
            ot_mode: ot_mode_from_tag(r.u8()?)?,
        }),
        2 => Message::GarblerInputs(r.blocks()?),
        3 => Message::OtSetup { point: r.u128()?, nonce: r.u128()? },
        4 => Message::OtPoints(r.counted(16, PayloadReader::u128)?),
        5 => Message::OtCiphertexts(r.tables()?),
        TABLES_TAG => Message::Tables { seq: r.u64()?, tables: r.tables()? },
        7 => Message::OutputDecode(r.bits()?),
        8 => Message::Outputs(r.bits()?),
        9 => Message::OtExtMatrix(r.blocks()?),
        10 => Message::OtExtLabels(r.tables()?),
        RESUME_TAG => Message::Resume { ticket: r.u128()?, next_seq: r.u64()? },
        12 => Message::ResumeAck { from_seq: r.u64()? },
        13 => Message::ChunkAck { upto_seq: r.u64()? },
        other => return Err(RuntimeError::protocol(format!("unknown frame tag {other}"))),
    };
    r.finish()?;
    Ok(message)
}

/// What [`read_stream_frame`] found next on the table stream.
#[derive(Debug, PartialEq)]
pub enum StreamFrame {
    /// A `Tables` frame that `admit` accepted; its tables are now the
    /// whole content of the buffer the reader was handed.
    Tables,
    /// Any other message, decoded as [`read_message`] decodes it.
    Other(Message),
}

/// The evaluator's stream-loop reader: [`read_message`], except that a
/// `Tables` payload is received straight into `tables` — one reused
/// buffer, resized to exactly the frame's count, so nothing of an
/// earlier frame can be fed again — instead of through a zero-filled
/// byte vector and a fresh `Vec` per frame. A frame costs three channel
/// receives, as it does in [`read_message`]: tag and length, cursor and
/// count, tables.
///
/// Every peer-controlled length is refused before it sizes anything:
/// the length prefix by the frame cap, the count by `12 + 32 × count ==
/// len` exactly, and the frame itself by `admit(seq, count)` — the
/// session's sequence and remaining-tables checks — which runs before
/// `tables` is resized or a table byte is received.
///
/// # Errors
///
/// Propagates channel I/O failures and `admit`'s refusal, and rejects
/// malformed frames.
pub fn read_stream_frame<C: Channel + ?Sized>(
    channel: &mut C,
    tables: &mut Vec<[Block; 2]>,
    admit: impl FnOnce(u64, usize) -> Result<(), RuntimeError>,
) -> Result<StreamFrame, RuntimeError> {
    let mut head = [0u8; 5];
    channel.recv_exact(&mut head)?;
    let len = u32::from_le_bytes(head[1..].try_into().expect("4 bytes")) as usize;
    check_len(len)?;
    if head[0] != TABLES_TAG {
        return read_payload(channel, head[0], len).map(StreamFrame::Other);
    }
    let Some(table_bytes) = len.checked_sub(TABLES_PREFIX) else {
        return Err(RuntimeError::protocol("frame payload truncated"));
    };
    let mut prefix = [0u8; TABLES_PREFIX];
    channel.recv_exact(&mut prefix)?;
    let seq = u64::from_le_bytes(prefix[..8].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(prefix[8..].try_into().expect("4 bytes")) as usize;
    match count.saturating_mul(TABLE_BYTES).cmp(&table_bytes) {
        std::cmp::Ordering::Greater => {
            return Err(RuntimeError::protocol(format!(
                "count {count} exceeds the {table_bytes} bytes of frame payload"
            )));
        }
        std::cmp::Ordering::Less => {
            return Err(RuntimeError::protocol("frame payload has trailing bytes"));
        }
        std::cmp::Ordering::Equal => {}
    }
    admit(seq, count)?;
    tables.resize(count, [Block::ZERO; 2]);
    tables_from_wire(tables, |bytes| channel.recv_exact(bytes))?;
    Ok(StreamFrame::Tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::MemChannel;

    fn round_trip(message: Message) {
        let (mut a, mut b) = MemChannel::pair();
        write_message(&mut a, &message).unwrap();
        a.flush().unwrap();
        let got = read_message(&mut b).unwrap();
        assert_eq!(got, message);
    }

    #[test]
    fn all_message_kinds_round_trip() {
        for ot_mode in [OtMode::Base, OtMode::Extended] {
            round_trip(Message::Header(SessionHeader {
                plan_digest: *b"0123456789abcdef",
                scheme: HashScheme::Rekeyed,
                chunk_tables: 2048,
                ack_interval: 16,
                ot_mode,
            }));
        }
        round_trip(Message::GarblerInputs(vec![Block::from(1u128), Block::from(2u128)]));
        round_trip(Message::OtSetup { point: 0xDEAD_BEEFu128, nonce: 0xFACEu128 });
        round_trip(Message::OtPoints(vec![3, 5, 7]));
        round_trip(Message::OtCiphertexts(vec![[Block::from(9u128), Block::from(10u128)]]));
        round_trip(Message::OtExtMatrix(vec![Block::from(21u128), Block::from(22u128)]));
        round_trip(Message::OtExtLabels(vec![[Block::from(31u128), Block::from(32u128)]]));
        round_trip(Message::Tables {
            seq: 42,
            tables: vec![
                [Block::from(11u128), Block::from(12u128)],
                [Block::from(13u128), Block::from(14u128)],
            ],
        });
        round_trip(Message::OutputDecode(vec![
            true, false, true, true, false, true, false, true, true,
        ]));
        round_trip(Message::Outputs(Vec::new()));
        round_trip(Message::Resume { ticket: 0x0123_4567_89AB_CDEFu128, next_seq: 77 });
        round_trip(Message::ResumeAck { from_seq: 77 });
        round_trip(Message::ChunkAck { upto_seq: u64::MAX });
    }

    #[test]
    fn bit_packing_handles_all_residues() {
        for n in 0..20usize {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            round_trip(Message::Outputs(bits));
        }
    }

    #[test]
    fn borrowed_table_writer_matches_owned_message() {
        let tables = vec![
            [Block::from(1u128), Block::from(2u128)],
            [Block::from(3u128), Block::from(4u128)],
        ];
        // The garbler's frame: the head, then the chunk's own bytes.
        let head = tables_frame_head(9, tables.len()).unwrap();
        let frame = [&head[..], &wire_view(tables.as_flattened())].concat();
        assert_eq!(frame.len(), tables_frame_len(tables.len()));
        // Byte-identical framing: the owned message serializes to it.
        let owned = Message::Tables { seq: 9, tables };
        assert_eq!(frame, encode_frame(&owned).unwrap());
        let (mut c, mut d) = MemChannel::pair();
        write_message(&mut c, &owned).unwrap();
        c.flush().unwrap();
        let mut sent = vec![0u8; frame.len()];
        d.recv_exact(&mut sent).unwrap();
        assert_eq!(sent, frame);
        assert_eq!(c.stats().bytes_sent, frame.len() as u64);
    }

    #[test]
    fn label_runs_encode_as_the_per_block_reference() {
        let labels: Vec<Block> =
            (0..19_968u128).map(|i| Block::from((i * 0x9E37_79B9) ^ !i)).collect();
        for message in [Message::GarblerInputs(labels.clone()), Message::OtExtMatrix(labels)] {
            let blocks = match &message {
                Message::GarblerInputs(blocks) | Message::OtExtMatrix(blocks) => blocks,
                _ => unreachable!(),
            };
            let mut reference = vec![message.tag()];
            reference.extend_from_slice(&(4 + 16 * blocks.len() as u32).to_le_bytes());
            reference.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
            for block in blocks {
                reference.extend_from_slice(&block.to_bytes());
            }
            let frame = encode_frame(&message).unwrap();
            assert_eq!(frame, reference, "{}", message.name());
            let (mut a, mut b) = MemChannel::pair();
            a.send_flush(&frame, &[]).unwrap();
            assert_eq!(read_message(&mut b).unwrap(), message);
        }
    }

    #[test]
    fn encoded_frames_match_the_channel_writers_byte_for_byte() {
        let tables = vec![
            [Block::from(5u128), Block::from(6u128)],
            [Block::from(7u128), Block::from(8u128)],
        ];
        // The replay-buffer encoder must produce exactly what the live
        // writers put on the wire — resume correctness is byte replay.
        let head = tables_frame_head(3, tables.len()).unwrap();
        let (mut a, mut b) = MemChannel::pair();
        a.send_flush(&head, &wire_view(tables.as_flattened())).unwrap();
        assert_eq!(read_message(&mut b).unwrap(), Message::Tables { seq: 3, tables });

        let decode = Message::OutputDecode(vec![true, false, true]);
        let frame = encode_frame(&decode).unwrap();
        let (mut e, mut f) = MemChannel::pair();
        e.send(&frame).unwrap();
        e.flush().unwrap();
        assert_eq!(read_message(&mut f).unwrap(), decode);
    }

    #[test]
    fn stream_frame_reader_takes_three_receives_and_never_feeds_stale_tables() {
        use crate::fault::{FaultChannel, FaultSpec};

        let long: Vec<[Block; 2]> =
            (0..40u128).map(|i| [Block::from(i), Block::from(!i)]).collect();
        let short = vec![[Block::from(77u128), Block::from(78u128)]];
        let (mut a, b) = MemChannel::pair();
        // Injects nothing; its op counter counts this side's receives.
        let mut b = FaultChannel::new(b, FaultSpec::default(), 0);
        for (seq, tables) in [(0, &long), (1, &short), (2, &long)] {
            write_message(&mut a, &Message::Tables { seq, tables: tables.clone() }).unwrap();
        }
        write_message(&mut a, &Message::OutputDecode(vec![true])).unwrap();
        a.flush().unwrap();

        let mut buf = Vec::new();
        let mut admitted = Vec::new();
        let mut read = |b: &mut FaultChannel<MemChannel>, buf: &mut Vec<[Block; 2]>| {
            read_stream_frame(b, buf, |seq, count| {
                admitted.push((seq, count));
                Ok(())
            })
            .unwrap()
        };
        assert_eq!(read(&mut b, &mut buf), StreamFrame::Tables);
        assert_eq!((b.ops(), &buf), (3, &long));
        let (at, capacity) = (buf.as_ptr(), buf.capacity());
        // A short frame after a long one is exactly its own tables.
        assert_eq!(read(&mut b, &mut buf), StreamFrame::Tables);
        assert_eq!((b.ops(), &buf), (6, &short));
        assert_eq!(read(&mut b, &mut buf), StreamFrame::Tables);
        assert_eq!((b.ops(), &buf), (9, &long));
        // One buffer for the whole stream.
        assert_eq!((buf.as_ptr(), buf.capacity()), (at, capacity));
        assert_eq!(read(&mut b, &mut buf), StreamFrame::Other(Message::OutputDecode(vec![true])));
        assert_eq!(admitted, vec![(0, 40), (1, 1), (2, 40)]);
    }

    #[test]
    fn stream_frame_reader_asks_the_session_before_sizing_its_buffer() {
        let tables = vec![[Block::from(1u128), Block::from(2u128)]; 3];
        let (mut a, mut b) = MemChannel::pair();
        write_message(&mut a, &Message::Tables { seq: 5, tables }).unwrap();
        a.flush().unwrap();
        let mut buf = Vec::new();
        let err = read_stream_frame(&mut b, &mut buf, |seq, count| {
            Err(RuntimeError::protocol(format!("refused {seq}/{count}")))
        })
        .unwrap_err();
        assert!(err.to_string().contains("refused 5/3"), "{err}");
        assert_eq!(buf.capacity(), 0);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let (mut a, mut b) = MemChannel::pair();
        a.send(&[250u8]).unwrap();
        a.send(&0u32.to_le_bytes()).unwrap();
        a.flush().unwrap();
        let err = read_message(&mut b).unwrap_err();
        assert!(err.to_string().contains("unknown frame tag"));
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let (mut a, mut b) = MemChannel::pair();
        a.send(&[6u8]).unwrap();
        a.send(&u32::MAX.to_le_bytes()).unwrap();
        a.flush().unwrap();
        let err = read_message(&mut b).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (mut a, mut b) = MemChannel::pair();
        a.send(&[3u8]).unwrap(); // OtSetup: exactly 32 bytes expected
        a.send(&33u32.to_le_bytes()).unwrap();
        a.send(&[0u8; 33]).unwrap();
        a.flush().unwrap();
        let err = read_message(&mut b).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"));
    }

    #[test]
    fn ot_mode_tags_round_trip_and_reject_unknowns() {
        for mode in [OtMode::Base, OtMode::Extended] {
            assert_eq!(ot_mode_from_tag(ot_mode_tag(mode)).unwrap(), mode);
        }
        assert!(ot_mode_from_tag(9).is_err());
    }
}
