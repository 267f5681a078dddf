//! Fuzz-style property tests for the wire format's decoder.
//!
//! The framing layer is the runtime's attack surface: every byte a peer
//! sends flows through [`read_message`]. These properties drive the
//! decoder with arbitrary, truncated, and bit-flipped frames and assert
//! the contract the session layer relies on — a malformed frame is a
//! typed [`RuntimeError`] (never a panic), and an untrusted count or
//! length prefix never drives an allocation beyond the bytes that
//! actually arrived.
//!
//! The evaluator's stream loop reads through a second entry point,
//! [`read_stream_frame`], which receives `Tables` payloads straight into
//! one reused table buffer; it is held to the same contract, plus: a
//! refused frame never grows that buffer.
//!
//! The same contract is checked for the other decoder of stored or
//! received bytes in the stack, [`PlanGarbling::from_bytes`] (the
//! bank's instance format): any mutation of a valid encoding is a typed
//! error or decodes to an instance that encodes back to exactly those
//! bytes.

use std::io;

use haac_gc::{Block, CryptoCounters, Delta, HashScheme, PlanGarbling};
use haac_runtime::wire::{
    read_message, read_stream_frame, write_message, Message, OtMode, SessionHeader, StreamFrame,
};
use haac_runtime::{Channel, ChannelStats, ReorderKind, RuntimeError};
use proptest::collection::vec;
use proptest::prelude::*;

/// A deterministic, non-blocking byte-vector channel: reads past the end
/// fail with `UnexpectedEof` (the in-memory analogue of a peer hanging
/// up mid-frame) instead of blocking like `MemChannel`.
#[derive(Debug, Default)]
struct ByteChannel {
    data: Vec<u8>,
    pos: usize,
    stats: ChannelStats,
}

impl ByteChannel {
    fn of(data: Vec<u8>) -> ByteChannel {
        ByteChannel { data, ..ByteChannel::default() }
    }
}

impl Channel for ByteChannel {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.data.extend_from_slice(bytes);
        self.stats.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let end = self.pos + buf.len();
        if end > self.data.len() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "frame source exhausted"));
        }
        buf.copy_from_slice(&self.data[self.pos..end]);
        self.pos = end;
        self.stats.bytes_received += buf.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }
}

/// Serializes a message to its exact wire bytes.
fn encode(message: &Message) -> Vec<u8> {
    let mut channel = ByteChannel::default();
    write_message(&mut channel, message).expect("valid messages serialize");
    channel.data
}

fn u128_from(data: &[u8]) -> u128 {
    data.iter().fold(1u128, |acc, &b| acc.wrapping_mul(257).wrapping_add(b as u128))
}

fn blocks_from(data: &[u8]) -> Vec<Block> {
    data.chunks(4).map(|c| Block::from(u128_from(c))).collect()
}

fn pairs_from(data: &[u8]) -> Vec<[Block; 2]> {
    data.chunks(8)
        .map(|c| [Block::from(u128_from(c)), Block::from(u128_from(c).wrapping_add(1))])
        .collect()
}

fn bits_from(data: &[u8]) -> Vec<bool> {
    data.iter().map(|&b| b & 1 == 1).collect()
}

/// Deterministically builds one of every message kind from sampled raw
/// bytes — the valid-frame generator all mutation properties start from.
fn message_from(kind: u8, data: &[u8]) -> Message {
    match kind % 13 {
        0 => Message::Header(SessionHeader {
            garbler_inputs: u128_from(data) as u32,
            evaluator_inputs: (u128_from(data) >> 32) as u32,
            num_gates: (u128_from(data) >> 13) as u64,
            num_tables: (u128_from(data) >> 29) as u64,
            scheme: if data.first().copied().unwrap_or(0) & 1 == 0 {
                HashScheme::Rekeyed
            } else {
                HashScheme::FixedKey
            },
            window_wires: (u128_from(data) >> 7) as u32,
            chunk_tables: (u128_from(data) as u32) | 1,
            ack_interval: (u128_from(data) >> 40) as u32,
            reorder: match data.first().copied().unwrap_or(0) % 3 {
                0 => ReorderKind::Baseline,
                1 => ReorderKind::Full,
                _ => ReorderKind::Segment,
            },
            ot_mode: if data.first().copied().unwrap_or(0) & 2 == 0 {
                OtMode::Base
            } else {
                OtMode::Extended
            },
        }),
        1 => Message::GarblerInputs(blocks_from(data)),
        2 => Message::OtSetup { point: u128_from(data), nonce: u128_from(data).wrapping_mul(31) },
        3 => Message::OtPoints(data.chunks(5).map(u128_from).collect()),
        4 => Message::OtCiphertexts(pairs_from(data)),
        5 => Message::Tables { seq: (u128_from(data) >> 64) as u64, tables: pairs_from(data) },
        6 => Message::OutputDecode(bits_from(data)),
        7 => Message::Outputs(bits_from(data)),
        8 => Message::OtExtMatrix(blocks_from(data)),
        9 => Message::OtExtLabels(pairs_from(data)),
        10 => Message::Resume { ticket: u128_from(data), next_seq: (u128_from(data) >> 17) as u64 },
        11 => Message::ResumeAck { from_seq: (u128_from(data) >> 23) as u64 },
        _ => Message::ChunkAck { upto_seq: (u128_from(data) >> 11) as u64 },
    }
}

/// Deterministically builds a small stored instance from sampled raw
/// bytes: up to 30 input labels, 15 tables and `outputs` decode bits.
fn instance_from(data: &[u8], outputs: u8) -> PlanGarbling {
    PlanGarbling {
        delta: Delta::from_block(Block::from(u128_from(data))),
        input_zero_labels: blocks_from(data),
        tables: pairs_from(data),
        output_decode: (0..outputs).map(|i| u128_from(data) >> (i % 128) & 1 == 1).collect(),
        crypto: CryptoCounters {
            key_expansions: u128_from(data) as u64,
            aes_blocks: (u128_from(data) >> 64) as u64,
        },
    }
}

/// Byte offsets of the three `u64` length prefixes in an instance's
/// encoding: input labels, tables, output bits (after the 8-byte magic
/// and the 16-byte Δ; labels are 16 bytes, tables 32).
fn instance_prefix_offsets(instance: &PlanGarbling) -> [usize; 3] {
    let labels_at = 8 + 16;
    let tables_at = labels_at + 8 + 16 * instance.input_zero_labels.len();
    let outputs_at = tables_at + 8 + 32 * instance.tables.len();
    [labels_at, tables_at, outputs_at]
}

/// The instance decoder's contract on bytes it did not write: a typed
/// error, or an instance whose encoding is exactly those bytes (so no
/// decoded collection can be larger than what arrived).
fn err_or_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(instance) = PlanGarbling::from_bytes(bytes) {
        prop_assert_eq!(instance.to_bytes(), bytes);
    }
    Ok(())
}

/// Builds a raw frame without going through the (validating) writer.
fn raw_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![tag];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Reads one frame through the stream-loop reader, admitting whatever
/// cursor and count it announces.
fn read_stream(bytes: Vec<u8>, tables: &mut Vec<[Block; 2]>) -> Result<StreamFrame, RuntimeError> {
    read_stream_frame(&mut ByteChannel::of(bytes), tables, |_, _| Ok(()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stream_frame_reader_agrees_with_read_message(
        kind in any::<u8>(),
        data in vec(any::<u8>(), 0..120),
        stale in vec(any::<u8>(), 0..120),
    ) {
        // Whatever an earlier frame left in the buffer, a `Tables` frame
        // leaves exactly its own tables there; every other message
        // decodes as `read_message` decodes it.
        let message = message_from(kind, &data);
        let mut tables = pairs_from(&stale);
        let mut admitted = None;
        let frame = read_stream_frame(
            &mut ByteChannel::of(encode(&message)),
            &mut tables,
            |seq, count| {
                admitted = Some((seq, count));
                Ok(())
            },
        )
        .expect("valid frame decodes");
        match message {
            Message::Tables { seq, tables: sent } => {
                prop_assert_eq!(frame, StreamFrame::Tables);
                prop_assert_eq!(admitted, Some((seq, sent.len())));
                prop_assert_eq!(tables, sent);
            }
            other => {
                prop_assert_eq!(frame, StreamFrame::Other(other));
                prop_assert_eq!(admitted, None);
            }
        }
    }

    #[test]
    fn stream_frame_reader_types_every_malformed_frame_and_never_grows_its_buffer(
        data in vec(any::<u8>(), 0..120),
        mutation in 0u8..6,
        knob in any::<u32>(),
    ) {
        let sent = pairs_from(&data);
        let mut frame = encode(&Message::Tables { seq: 3, tables: sent.clone() });
        // tag (1) | len (4) | seq (8) | count (4) | 32 B per table
        let (len_at, count_at) = (1, 13);
        let put = |frame: &mut Vec<u8>, at: usize, v: u32| {
            frame[at..at + 4].copy_from_slice(&v.to_le_bytes())
        };
        let want = match mutation {
            // Truncated anywhere: the transport's error, or the typed
            // refusal of a length too short for its own prefix.
            0 => {
                frame.truncate(knob as usize % frame.len());
                "Io"
            }
            // A count beyond the payload — up to 2^32 − 1 tables.
            1 => {
                put(&mut frame, count_at, (sent.len() as u32 + 1).max(knob));
                "exceeds"
            }
            // A count short of the payload: trailing bytes.
            2 => {
                prop_assume!(!sent.is_empty());
                put(&mut frame, count_at, knob % sent.len() as u32);
                "trailing"
            }
            // A length that is not 12 + 32 × count, either way.
            3 => {
                let len = (12 + 32 * sent.len() as u32).wrapping_add(1 + knob % 64);
                put(&mut frame, len_at, len);
                "trailing"
            }
            // A length over the frame cap.
            4 => {
                put(&mut frame, len_at, (64u32 << 20) + 1 + knob % 1024);
                "exceeds limit"
            }
            // An unknown tag over the same bytes.
            _ => {
                frame[0] = 14 + (knob % 242) as u8;
                "unknown frame tag"
            }
        };
        let mut tables = Vec::with_capacity(2);
        tables.push([Block::from(7u128); 2]);
        let (at, capacity) = (tables.as_ptr(), tables.capacity());
        let err = read_stream(frame, &mut tables).expect_err("a malformed frame must not decode");
        match &err {
            RuntimeError::Io(_) => prop_assert_eq!(want, "Io", "{}", err),
            RuntimeError::Protocol(m) => prop_assert!(
                m.contains(want) || (want == "Io" && m.contains("truncated")),
                "want {want:?}, got: {err}"
            ),
            _ => prop_assert!(false, "unexpected error shape: {err}"),
        }
        // Refused before the count sized anything — except a frame cut
        // inside its tables, which was well-formed up to the cut and had
        // sized the buffer for exactly the tables it announced.
        if want != "Io" {
            prop_assert_eq!((tables.as_ptr(), tables.capacity()), (at, capacity));
        }
        prop_assert!(tables.len() <= sent.len().max(1));
    }

    #[test]
    fn stream_frame_reader_never_panics_on_arbitrary_bytes(
        blob in vec(any::<u8>(), 0..600),
        tag_it in any::<bool>(),
    ) {
        // Half the cases are steered into the `Tables` arm.
        let mut bytes = blob.clone();
        if let (true, Some(tag)) = (tag_it, bytes.first_mut()) {
            *tag = 6;
        }
        let mut tables = Vec::new();
        if let Ok(StreamFrame::Tables) = read_stream(bytes, &mut tables) {
            // Only bytes that arrived can have become tables.
            prop_assert!(17 + 32 * tables.len() <= blob.len());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(blob in vec(any::<u8>(), 0..600)) {
        let mut channel = ByteChannel::of(blob.clone());
        // Ok (the bytes happened to form a frame) or a typed error —
        // anything but a panic or a hang.
        let _ = read_message(&mut channel);
    }

    #[test]
    fn arbitrary_payloads_under_every_tag_never_panic(
        tag in any::<u8>(),
        payload in vec(any::<u8>(), 0..300),
    ) {
        // Well-formed framing, hostile payload: exercises every decoder
        // arm instead of dying at the tag check.
        let mut channel = ByteChannel::of(raw_frame(tag, &payload));
        let _ = read_message(&mut channel);
    }

    #[test]
    fn valid_messages_round_trip(kind in any::<u8>(), data in vec(any::<u8>(), 0..120)) {
        let message = message_from(kind, &data);
        let mut channel = ByteChannel::of(encode(&message));
        let decoded = read_message(&mut channel).expect("valid frame decodes");
        prop_assert_eq!(decoded, message);
    }

    #[test]
    fn truncated_frames_return_typed_errors(
        kind in any::<u8>(),
        data in vec(any::<u8>(), 0..120),
        cut in any::<u16>(),
    ) {
        let mut frame = encode(&message_from(kind, &data));
        let cut = cut as usize % frame.len(); // strictly shorter than the frame
        frame.truncate(cut);
        let err = read_message(&mut ByteChannel::of(frame))
            .expect_err("a truncated frame must not decode");
        prop_assert!(
            matches!(err, RuntimeError::Io(_) | RuntimeError::Protocol(_)),
            "unexpected error shape: {err}"
        );
    }

    #[test]
    fn bit_flipped_frames_never_panic(
        kind in any::<u8>(),
        data in vec(any::<u8>(), 0..120),
        flip in any::<u32>(),
    ) {
        let mut frame = encode(&message_from(kind, &data));
        let bit = flip as usize % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        // The flip may still decode (e.g. inside a label) or fail with a
        // typed error; it must never panic or desynchronize into a hang.
        let _ = read_message(&mut ByteChannel::of(frame));
    }

    #[test]
    fn unknown_reorder_tags_in_the_header_are_typed_errors(
        kind in any::<u8>(),
        data in vec(any::<u8>(), 0..120),
        bad_tag in 3u8..,
    ) {
        // The header's second-to-last byte is the negotiated
        // ReorderKind; a peer speaking a newer (or corrupted) schedule
        // vocabulary must fail as a typed protocol error naming the
        // field — never a panic, and never a silently-assumed Baseline.
        let Message::Header(header) = message_from(0, &data) else { unreachable!() };
        let mut frame = encode(&Message::Header(header));
        let reorder_at = frame.len() - 2;
        frame[reorder_at] = bad_tag;
        let err = read_message(&mut ByteChannel::of(frame))
            .expect_err("an unknown reorder tag must not decode");
        prop_assert!(
            matches!(&err, RuntimeError::Protocol(m) if m.contains("reorder")),
            "want a protocol error naming the reorder tag, got: {err}"
        );
    }

    #[test]
    fn unknown_ot_mode_tags_in_the_header_are_typed_errors(
        kind in any::<u8>(),
        data in vec(any::<u8>(), 0..120),
        bad_tag in 2u8..,
    ) {
        // Same contract for the trailing OtMode byte: an unknown OT
        // vocabulary is a typed refusal, never a silently-assumed Base.
        let Message::Header(header) = message_from(0, &data) else { unreachable!() };
        let mut frame = encode(&Message::Header(header));
        *frame.last_mut().expect("headers have payload") = bad_tag;
        let err = read_message(&mut ByteChannel::of(frame))
            .expect_err("an unknown OT mode tag must not decode");
        prop_assert!(
            matches!(&err, RuntimeError::Protocol(m) if m.contains("OT mode")),
            "want a protocol error naming the OT mode tag, got: {err}"
        );
    }

    #[test]
    fn hostile_count_prefixes_are_rejected_before_allocating(
        tag in 0u8..8,
        count in 1024u32..,
        filler in vec(any::<u8>(), 0..32),
    ) {
        // A tiny frame whose count prefix promises up to 4 billion
        // items: the decoder must reject it from the payload size alone
        // (never reserving `count` elements). Tags: the counted decoders
        // (labels, points, ciphertext pairs, tables, the OT-extension
        // matrix and label pairs) and both bit kinds.
        let tag = [2u8, 4, 5, 6, 7, 8, 9, 10][tag as usize];
        let mut payload = Vec::new();
        if tag == 6 {
            // Table frames carry an 8-byte stream cursor ahead of the
            // count prefix.
            payload.extend_from_slice(&7u64.to_le_bytes());
        }
        payload.extend_from_slice(&count.to_le_bytes());
        payload.extend_from_slice(&filler);
        prop_assume!(count as usize > payload.len() * 8); // hostile even for 1-bit items
        let err = read_message(&mut ByteChannel::of(raw_frame(tag, &payload)))
            .expect_err("an overpromising count must be rejected");
        prop_assert!(
            matches!(&err, RuntimeError::Protocol(m) if m.contains("exceeds")),
            "want a protocol error about the cap, got: {err}"
        );
    }

    #[test]
    fn truncated_instances_are_typed_errors(
        data in vec(any::<u8>(), 0..120),
        outputs in any::<u8>(),
        cut in any::<u16>(),
    ) {
        let mut bytes = instance_from(&data, outputs).to_bytes();
        bytes.truncate(cut as usize % bytes.len()); // strictly shorter
        prop_assert!(PlanGarbling::from_bytes(&bytes).is_err());
    }

    #[test]
    fn byte_flipped_instances_are_rejected_or_canonical(
        data in vec(any::<u8>(), 0..120),
        outputs in any::<u8>(),
        at in any::<u16>(),
        flip in 1u8..,
    ) {
        // A flip inside a label, a table or a counter is another valid
        // instance; one in the magic, Δ's permute bit, a length prefix
        // or the decode string's padding bits must not decode to
        // something that re-encodes differently.
        let instance = instance_from(&data, outputs);
        let mut bytes = instance.to_bytes();
        // A quarter of the cases aim at the bytes that steer the
        // decoder — the low byte of each prefix and the last byte of the
        // packed decode string — the rest land anywhere.
        let [labels_at, tables_at, outputs_at] = instance_prefix_offsets(&instance);
        let decode_end = outputs_at + 8 + (outputs as usize).div_ceil(8) - 1;
        let at = match at % 16 {
            0 => labels_at,
            1 => tables_at,
            2 => outputs_at,
            3 => decode_end,
            _ => at as usize % bytes.len(),
        };
        bytes[at] ^= flip;
        err_or_canonical(&bytes)?;
    }

    #[test]
    fn blown_up_instance_length_prefixes_are_rejected_before_allocating(
        data in vec(any::<u8>(), 0..120),
        outputs in any::<u8>(),
        which in 0usize..3,
        count in any::<u64>(),
    ) {
        // Each prefix in turn promises far more elements than the
        // payload holds — up to 2^64 − 1, where reserving `count`
        // elements would abort the process. The output-bit count has no
        // per-element byte cost to check against, so it is the read of
        // its packed bytes that must stop it.
        let instance = instance_from(&data, outputs);
        let mut bytes = instance.to_bytes();
        let at = instance_prefix_offsets(&instance)[which];
        bytes[at..at + 8].copy_from_slice(&count.max(1 << 16).to_le_bytes());
        prop_assert!(PlanGarbling::from_bytes(&bytes).is_err());
    }
}

/// The length prefix itself is capped before any payload allocation: a
/// 64 MiB+ claim dies at the header, whatever bytes follow.
#[test]
fn oversized_length_prefix_is_rejected_at_the_header() {
    for len in [(64u32 << 20) + 1, u32::MAX] {
        let mut frame = vec![6u8];
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&[0u8; 64]);
        let err = read_message(&mut ByteChannel::of(frame)).unwrap_err();
        assert!(matches!(&err, RuntimeError::Protocol(m) if m.contains("exceeds limit")), "{err}");
    }
}
