//! The service-level handshake that precedes the GC protocol.
//!
//! A connecting evaluator first names the computation it wants — a VIP
//! workload, a scale, an instruction schedule ([`ReorderKind`]), and a
//! garbling seed — and the server answers with an ack (or a refusal
//! naming the reason). Only then does the standard streamed session
//! (header, labels, OT, table chunks) begin, unchanged from
//! `haac-runtime`. Carrying the reorder in the request is what lets
//! both parties lower with the same `Full`/`Segment` schedule: the
//! server fetches (or builds) the matching cached plan, the ack names
//! the schedule back, and the session header's plan digest confirms
//! both parties lowered the same program, so a disagreement dies as a
//! typed refusal instead of a diverged transcript.
//!
//! Frames reuse the wire discipline of the session layer: a 1-byte tag,
//! explicit lengths, and hard caps on every untrusted length so a
//! hostile request cannot drive allocation.

use std::time::Instant;

use haac_runtime::wire::{
    ot_mode_from_tag, ot_mode_tag, reorder_from_tag, reorder_tag, RESUME_TAG,
};
use haac_runtime::{Channel, OtMode, ReorderKind, RuntimeError, SessionPhase};
use haac_workloads::Scale;

/// Frame tag of a session request (client → server).
const REQUEST_TAG: u8 = 0x71;
/// Frame tag of the server's ack/refusal (server → client).
const ACK_TAG: u8 = 0x61;

/// Ack status byte: the session may proceed.
const ACK_OK: u8 = 0;
/// Ack status byte: refused with a reason message.
const ACK_REFUSED: u8 = 1;
/// Ack status byte: admission control turned the session away — the
/// message carries a retry hint, and the refusal is always retry-safe.
const ACK_BUSY: u8 = 2;

/// Longest accepted workload name (the VIP names are all ≤ 8 bytes).
const MAX_NAME: usize = 64;
/// Longest refusal message shipped back to a client.
const MAX_ACK_MESSAGE: usize = 512;
/// Reorder byte of a request that leaves the schedule to the server
/// (the session-layer tags 0/1/2 name concrete kinds).
const AUTO_REORDER_TAG: u8 = 0xFF;
/// OT-mode byte of a request that leaves the input-label delivery mode
/// to the server (the session-layer tags 0/1 name concrete modes).
const AUTO_OT_TAG: u8 = 0xFF;

/// What a connecting evaluator asks the server to compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRequest {
    /// VIP workload name (paper abbreviation, case-insensitive).
    pub workload: String,
    /// Workload scale to build/fetch.
    pub scale: Scale,
    /// Instruction schedule both parties lower with (the server's
    /// circuit cache keys on it alongside workload and scale).
    /// `None` delegates the choice to the server's per-workload policy
    /// ([`choose_reorder`](crate::choose_reorder)); either way the ack
    /// carries the schedule actually chosen, and the client lowers
    /// with that.
    pub reorder: Option<ReorderKind>,
    /// Input-label delivery mode ([`OtMode::Base`] per-input public-key
    /// OTs, or the IKNP-style extension). `None` delegates to the
    /// server's per-workload policy
    /// ([`choose_ot_mode`](crate::choose_ot_mode)); the ack carries the
    /// mode actually chosen and the client configures with that.
    pub ot_mode: Option<OtMode>,
    /// Seed for the server's garbling randomness — deterministic
    /// per-request transcripts, distinct across requests.
    pub seed: u64,
}

impl SessionRequest {
    /// A baseline-schedule request (the common case).
    pub fn new(workload: impl Into<String>, scale: Scale, seed: u64) -> SessionRequest {
        SessionRequest {
            workload: workload.into(),
            scale,
            reorder: Some(ReorderKind::Baseline),
            ot_mode: Some(OtMode::Base),
            seed,
        }
    }

    /// A request that lets the server pick the schedule and the OT
    /// mode: the client learns both choices from the ack and configures
    /// with them.
    pub fn negotiated(workload: impl Into<String>, scale: Scale, seed: u64) -> SessionRequest {
        SessionRequest { workload: workload.into(), scale, reorder: None, ot_mode: None, seed }
    }

    /// Returns the request pinned to the given instruction schedule.
    pub fn with_reorder(mut self, reorder: ReorderKind) -> SessionRequest {
        self.reorder = Some(reorder);
        self
    }

    /// Returns the request pinned to the given input-label delivery
    /// mode.
    pub fn with_ot_mode(mut self, ot_mode: OtMode) -> SessionRequest {
        self.ot_mode = Some(ot_mode);
        self
    }
}

fn scale_tag(scale: Scale) -> u8 {
    match scale {
        Scale::Small => 0,
        Scale::Paper => 1,
    }
}

fn scale_from_tag(tag: u8) -> Result<Scale, RuntimeError> {
    match tag {
        0 => Ok(Scale::Small),
        1 => Ok(Scale::Paper),
        other => Err(RuntimeError::protocol(format!("unknown scale tag {other}"))),
    }
}

/// Sends a session request and flushes.
///
/// # Errors
///
/// Fails on transport errors or an over-long workload name.
pub fn write_request<C: Channel + ?Sized>(
    channel: &mut C,
    request: &SessionRequest,
) -> Result<(), RuntimeError> {
    let name = request.workload.as_bytes();
    if name.is_empty() || name.len() > MAX_NAME {
        return Err(RuntimeError::protocol(format!(
            "workload name must be 1..={MAX_NAME} bytes, got {}",
            name.len()
        )));
    }
    channel.send(&[REQUEST_TAG, name.len() as u8])?;
    channel.send(name)?;
    let reorder = request.reorder.map_or(AUTO_REORDER_TAG, reorder_tag);
    let ot_mode = request.ot_mode.map_or(AUTO_OT_TAG, ot_mode_tag);
    channel.send(&[scale_tag(request.scale), reorder, ot_mode])?;
    channel.send(&request.seed.to_le_bytes())?;
    channel.flush()?;
    Ok(())
}

/// Receives a session request (blocking, no deadline).
///
/// # Errors
///
/// Fails on transport errors or malformed frames.
pub fn read_request<C: Channel + ?Sized>(channel: &mut C) -> Result<SessionRequest, RuntimeError> {
    read_request_deadline(channel, None)
}

/// Re-arms the channel's I/O timeout with the budget left until
/// `deadline`; an already-expired budget is itself a handshake
/// deadline error.
fn arm_remaining<C: Channel + ?Sized>(
    channel: &mut C,
    deadline: Option<Instant>,
) -> Result<(), RuntimeError> {
    let Some(deadline) = deadline else {
        return Ok(());
    };
    let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
        return Err(RuntimeError::Deadline { phase: SessionPhase::Handshake });
    };
    channel.set_io_deadline(Some(remaining))?;
    Ok(())
}

/// What a freshly accepted connection opens with: a new session
/// request, or a `Resume` frame reviving a suspended one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionHello {
    /// A new session: the standard [`SessionRequest`].
    Request(SessionRequest),
    /// A reconnect reviving a suspended session.
    Resume {
        /// The opaque ticket the original session's ack carried.
        ticket: u128,
        /// The evaluator's next expected stream sequence number.
        next_seq: u64,
    },
}

/// Receives a session request under a whole-handshake wall-clock
/// deadline.
///
/// The *remaining* budget is re-armed as the channel's I/O timeout
/// before every read, so a peer dripping the request one frame at a
/// time — each arriving just under a fixed per-read timeout — still
/// cannot stretch the handshake past `deadline` (the slow-loris hole a
/// plain socket timeout leaves open). On success the I/O timeout is
/// disarmed again; the session layer re-arms its own per-phase
/// deadlines from there.
///
/// # Errors
///
/// Fails on transport errors or malformed frames; with a deadline set,
/// errors are attributed to [`SessionPhase::Handshake`] and an expired
/// or overrun budget is a typed [`RuntimeError::Deadline`].
pub fn read_request_deadline<C: Channel + ?Sized>(
    channel: &mut C,
    deadline: Option<Instant>,
) -> Result<SessionRequest, RuntimeError> {
    match read_hello_deadline(channel, deadline)? {
        SessionHello::Request(request) => Ok(request),
        SessionHello::Resume { .. } => {
            Err(RuntimeError::protocol("expected a session request, received a resume frame"))
        }
    }
}

/// Receives a connection's opening frame — a session request or a
/// `Resume` — under the same whole-handshake wall-clock deadline as
/// [`read_request_deadline`]. The two vocabularies share one dispatch
/// byte: a fresh request opens with the request tag, a reconnect with
/// the session layer's `Resume` frame tag.
///
/// # Errors
///
/// As [`read_request_deadline`].
pub fn read_hello_deadline<C: Channel + ?Sized>(
    channel: &mut C,
    deadline: Option<Instant>,
) -> Result<SessionHello, RuntimeError> {
    let wrap = move |e: RuntimeError| {
        if deadline.is_some() {
            e.in_phase(SessionPhase::Handshake)
        } else {
            e
        }
    };
    arm_remaining(channel, deadline)?;
    let mut head = [0u8; 2];
    channel.recv_exact(&mut head).map_err(|e| wrap(e.into()))?;
    if head[0] == RESUME_TAG {
        // The tail of a session-layer Resume frame: the 2-byte head
        // already consumed its tag and the first length byte.
        arm_remaining(channel, deadline)?;
        let mut rest = [0u8; 3];
        channel.recv_exact(&mut rest).map_err(|e| wrap(e.into()))?;
        let len = u32::from_le_bytes([head[1], rest[0], rest[1], rest[2]]) as usize;
        if len != 24 {
            return Err(RuntimeError::protocol(format!(
                "resume frame payload must be 24 bytes, got {len}"
            )));
        }
        arm_remaining(channel, deadline)?;
        let mut payload = [0u8; 24];
        channel.recv_exact(&mut payload).map_err(|e| wrap(e.into()))?;
        let ticket = u128::from_le_bytes(payload[..16].try_into().expect("16 bytes"));
        let next_seq = u64::from_le_bytes(payload[16..].try_into().expect("8 bytes"));
        if deadline.is_some() {
            channel.set_io_deadline(None)?;
        }
        return Ok(SessionHello::Resume { ticket, next_seq });
    }
    if head[0] != REQUEST_TAG {
        return Err(RuntimeError::protocol(format!(
            "expected a session request, received frame tag {}",
            head[0]
        )));
    }
    let name_len = head[1] as usize;
    if name_len == 0 || name_len > MAX_NAME {
        return Err(RuntimeError::protocol(format!(
            "workload name length {name_len} out of range"
        )));
    }
    arm_remaining(channel, deadline)?;
    let mut name = vec![0u8; name_len];
    channel.recv_exact(&mut name).map_err(|e| wrap(e.into()))?;
    let workload = String::from_utf8(name)
        .map_err(|_| RuntimeError::protocol("workload name is not UTF-8"))?;
    arm_remaining(channel, deadline)?;
    let mut tail = [0u8; 11];
    channel.recv_exact(&mut tail).map_err(|e| wrap(e.into()))?;
    let scale = scale_from_tag(tail[0])?;
    let reorder = match tail[1] {
        AUTO_REORDER_TAG => None,
        tag => Some(reorder_from_tag(tag)?),
    };
    let ot_mode = match tail[2] {
        AUTO_OT_TAG => None,
        tag => Some(ot_mode_from_tag(tag)?),
    };
    let seed = u64::from_le_bytes(tail[3..11].try_into().expect("8 bytes"));
    if deadline.is_some() {
        channel.set_io_deadline(None)?;
    }
    Ok(SessionHello::Request(SessionRequest { workload, scale, reorder, ot_mode, seed }))
}

/// Sends the server's answer to a request — `Ok` with the instruction
/// schedule and OT mode the session will run (the client's explicit
/// choices echoed back, or the server's picks for a negotiated
/// request) plus an optional resume ticket (carried as the ack's
/// 16-byte message; a server that cannot suspend sessions sends none),
/// or `Err` with a reason to refuse — and flushes.
///
/// # Errors
///
/// Fails on transport errors.
pub fn write_ack<C: Channel + ?Sized>(
    channel: &mut C,
    verdict: Result<(ReorderKind, OtMode, Option<u128>), &str>,
) -> Result<(), RuntimeError> {
    let ticket_bytes;
    let (reorder, ot_mode, message) = match verdict {
        Ok((kind, mode, ticket)) => {
            let message = match ticket {
                Some(ticket) => {
                    ticket_bytes = ticket.to_le_bytes();
                    &ticket_bytes[..]
                }
                None => &[][..],
            };
            (reorder_tag(kind), ot_mode_tag(mode), message)
        }
        Err(reason) => {
            let bytes = reason.as_bytes();
            (0, 0, &bytes[..bytes.len().min(MAX_ACK_MESSAGE)])
        }
    };
    let status = if verdict.is_err() { ACK_REFUSED } else { ACK_OK };
    channel.send(&[ACK_TAG, status, reorder, ot_mode])?;
    channel.send(&(message.len() as u16).to_le_bytes())?;
    channel.send(message)?;
    channel.flush()?;
    Ok(())
}

/// Sends a busy refusal — admission control turning a connection away
/// before any handshake state exists — carrying the server's retry
/// hint, and flushes. The client surfaces it as the always-retry-safe
/// [`RuntimeError::Busy`].
///
/// # Errors
///
/// Fails on transport errors.
pub fn write_busy<C: Channel + ?Sized>(
    channel: &mut C,
    retry_after_ms: u64,
) -> Result<(), RuntimeError> {
    channel.send(&[ACK_TAG, ACK_BUSY, 0, 0])?;
    channel.send(&8u16.to_le_bytes())?;
    channel.send(&retry_after_ms.to_le_bytes())?;
    channel.flush()?;
    Ok(())
}

/// Receives the server's ack and returns the instruction schedule and
/// OT mode the session will run, plus the resume ticket if the server
/// issued one; a refusal becomes a protocol error carrying the
/// server's reason.
///
/// # Errors
///
/// Fails on transport errors, malformed frames, or a server refusal.
pub fn read_ack<C: Channel + ?Sized>(
    channel: &mut C,
) -> Result<(ReorderKind, OtMode, Option<u128>), RuntimeError> {
    let mut head = [0u8; 6];
    channel.recv_exact(&mut head)?;
    if head[0] != ACK_TAG {
        return Err(RuntimeError::protocol(format!(
            "expected a session ack, received frame tag {}",
            head[0]
        )));
    }
    let len = u16::from_le_bytes([head[4], head[5]]) as usize;
    if len > MAX_ACK_MESSAGE {
        return Err(RuntimeError::protocol(format!("ack message length {len} out of range")));
    }
    let mut message = vec![0u8; len];
    channel.recv_exact(&mut message)?;
    match head[1] {
        ACK_OK => {
            let ticket = match message.len() {
                0 => None,
                16 => Some(u128::from_le_bytes(message[..].try_into().expect("16 bytes"))),
                other => {
                    return Err(RuntimeError::protocol(format!(
                        "ack ticket must be absent or 16 bytes, got {other}"
                    )))
                }
            };
            Ok((reorder_from_tag(head[2])?, ot_mode_from_tag(head[3])?, ticket))
        }
        ACK_BUSY => {
            let retry_after_ms = message
                .get(..8)
                .map(|bytes| u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
                .unwrap_or(0);
            Err(RuntimeError::Busy { retry_after_ms })
        }
        _ => Err(RuntimeError::protocol(format!(
            "server refused the session: {}",
            String::from_utf8_lossy(&message)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haac_runtime::MemChannel;

    #[test]
    fn requests_round_trip() {
        let (mut a, mut b) = MemChannel::pair();
        for reorder in [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment] {
            for ot_mode in [OtMode::Base, OtMode::Extended] {
                let request = SessionRequest::new("DotProd", Scale::Small, 0xFEED)
                    .with_reorder(reorder)
                    .with_ot_mode(ot_mode);
                write_request(&mut a, &request).unwrap();
                assert_eq!(read_request(&mut b).unwrap(), request);
            }
        }
    }

    #[test]
    fn negotiated_requests_round_trip_as_auto() {
        let (mut a, mut b) = MemChannel::pair();
        let request = SessionRequest::negotiated("MatMult", Scale::Small, 0xBEEF);
        assert_eq!(request.reorder, None);
        assert_eq!(request.ot_mode, None);
        write_request(&mut a, &request).unwrap();
        assert_eq!(read_request(&mut b).unwrap(), request);
    }

    #[test]
    fn unknown_reorder_tags_are_typed_protocol_errors() {
        let (mut a, mut b) = MemChannel::pair();
        a.send(&[REQUEST_TAG, 4]).unwrap();
        a.send(b"Hamm").unwrap();
        a.send(&[0u8, 9, 0]).unwrap(); // scale Small, reorder tag 9: unknown
        a.send(&7u64.to_le_bytes()).unwrap();
        a.flush().unwrap();
        let err = read_request(&mut b).unwrap_err();
        assert!(err.to_string().contains("reorder"), "{err}");
    }

    #[test]
    fn unknown_ot_mode_tags_are_typed_protocol_errors() {
        let (mut a, mut b) = MemChannel::pair();
        a.send(&[REQUEST_TAG, 4]).unwrap();
        a.send(b"Hamm").unwrap();
        a.send(&[0u8, 0, 9]).unwrap(); // scale Small, baseline, OT tag 9: unknown
        a.send(&7u64.to_le_bytes()).unwrap();
        a.flush().unwrap();
        let err = read_request(&mut b).unwrap_err();
        assert!(err.to_string().contains("OT mode"), "{err}");
    }

    #[test]
    fn acks_round_trip_with_the_chosen_schedule() {
        let (mut a, mut b) = MemChannel::pair();
        for kind in [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment] {
            for mode in [OtMode::Base, OtMode::Extended] {
                write_ack(&mut a, Ok((kind, mode, None))).unwrap();
                assert_eq!(read_ack(&mut b).unwrap(), (kind, mode, None));
            }
        }
        write_ack(&mut a, Err("no such workload")).unwrap();
        let err = read_ack(&mut b).unwrap_err();
        assert!(err.to_string().contains("no such workload"), "{err}");
    }

    #[test]
    fn acks_round_trip_the_resume_ticket() {
        let (mut a, mut b) = MemChannel::pair();
        let ticket = 0xDEAD_BEEF_0123_4567_89AB_CDEF_FEED_FACEu128;
        write_ack(&mut a, Ok((ReorderKind::Full, OtMode::Base, Some(ticket)))).unwrap();
        assert_eq!(read_ack(&mut b).unwrap(), (ReorderKind::Full, OtMode::Base, Some(ticket)));
    }

    #[test]
    fn malformed_ticket_lengths_are_typed_protocol_errors() {
        let (mut a, mut b) = MemChannel::pair();
        a.send(&[ACK_TAG, ACK_OK, 0, 0]).unwrap();
        a.send(&5u16.to_le_bytes()).unwrap();
        a.send(&[1, 2, 3, 4, 5]).unwrap();
        a.flush().unwrap();
        let err = read_ack(&mut b).unwrap_err();
        assert!(err.to_string().contains("ticket"), "{err}");
    }

    #[test]
    fn resume_hellos_dispatch_from_the_request_path() {
        // A reconnecting evaluator opens with the session layer's
        // Resume frame; the hello reader must route it, and the
        // request-only reader must refuse it as a typed error.
        use haac_runtime::wire::{write_message, Message};
        let (mut a, mut b) = MemChannel::pair();
        let ticket = 0xC0FF_EE00_D00Du128;
        write_message(&mut a, &Message::Resume { ticket, next_seq: 42 }).unwrap();
        a.flush().unwrap();
        assert_eq!(
            read_hello_deadline(&mut b, None).unwrap(),
            SessionHello::Resume { ticket, next_seq: 42 }
        );
        write_message(&mut a, &Message::Resume { ticket, next_seq: 7 }).unwrap();
        a.flush().unwrap();
        let err = read_request(&mut b).unwrap_err();
        assert!(err.to_string().contains("resume"), "{err}");
    }

    #[test]
    fn request_hellos_still_parse_through_the_hello_reader() {
        let (mut a, mut b) = MemChannel::pair();
        let request = SessionRequest::new("DotProd", Scale::Small, 3);
        write_request(&mut a, &request).unwrap();
        assert_eq!(read_hello_deadline(&mut b, None).unwrap(), SessionHello::Request(request));
    }

    #[test]
    fn busy_refusals_round_trip_with_the_retry_hint() {
        let (mut a, mut b) = MemChannel::pair();
        write_busy(&mut a, 250).unwrap();
        let err = read_ack(&mut b).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Busy { retry_after_ms: 250 }),
            "expected a typed busy refusal, got: {err}"
        );
        assert!(err.retry_safe(), "busy refusals precede all handshake state");
    }

    #[test]
    fn handshake_deadline_cuts_off_a_silent_client() {
        let (_a, mut b) = MemChannel::pair();
        let deadline = Instant::now() + std::time::Duration::from_millis(40);
        let err = read_request_deadline(&mut b, Some(deadline)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Deadline { phase: SessionPhase::Handshake }),
            "expected a handshake deadline, got: {err}"
        );
    }

    #[test]
    fn handshake_deadline_cuts_off_a_slow_loris_drip() {
        // The peer sends a valid head frame and then stalls forever:
        // each *individual* read stays live, but the whole-handshake
        // wall clock still expires because the remaining budget is
        // re-armed before every read.
        let (mut a, mut b) = MemChannel::pair();
        a.send(&[REQUEST_TAG, 4]).unwrap();
        a.flush().unwrap();
        let start = Instant::now();
        let deadline = start + std::time::Duration::from_millis(60);
        let err = read_request_deadline(&mut b, Some(deadline)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Deadline { phase: SessionPhase::Handshake }),
            "expected a handshake deadline, got: {err}"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "the drip must not stretch the handshake"
        );
    }

    #[test]
    fn expired_deadline_fails_without_reading() {
        let (_a, mut b) = MemChannel::pair();
        let deadline = Instant::now() - std::time::Duration::from_millis(1);
        let err = read_request_deadline(&mut b, Some(deadline)).unwrap_err();
        assert!(matches!(err, RuntimeError::Deadline { phase: SessionPhase::Handshake }));
    }

    #[test]
    fn oversized_names_are_rejected_by_the_writer() {
        let (mut a, _b) = MemChannel::pair();
        let request = SessionRequest::new("x".repeat(65), Scale::Small, 0);
        assert!(write_request(&mut a, &request).is_err());
    }

    #[test]
    fn wrong_tag_is_a_protocol_error() {
        let (mut a, mut b) = MemChannel::pair();
        a.send(&[0xFFu8, 1]).unwrap();
        a.send(b"x").unwrap();
        a.send(&[0u8, 0, 0]).unwrap();
        a.send(&0u64.to_le_bytes()).unwrap();
        a.flush().unwrap();
        assert!(read_request(&mut b).is_err());
    }
}
