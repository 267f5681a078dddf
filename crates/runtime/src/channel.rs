//! Pluggable byte transports between the two parties.
//!
//! A [`Channel`] is a reliable, ordered, *buffered* byte pipe with
//! explicit flush points and traffic accounting. The session layer
//! writes whole protocol frames and flushes at streaming boundaries
//! (end of handshake, end of each table chunk), so a channel
//! implementation sees exactly the message pattern a real deployment
//! would put on the wire.
//!
//! Two implementations ship here:
//!
//! - [`MemChannel`]: paired in-process queues, for tests and
//!   single-machine two-thread sessions (the moral equivalent of a
//!   loopback socket without the kernel).
//! - [`TcpChannel`]: a real TCP stream with `TCP_NODELAY`, for genuine
//!   two-process / two-machine sessions.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Initial write-buffer capacity for both channel kinds: a full
/// default-window table chunk (2048 tables × 32 B) plus framing, so
/// steady-state streaming never grows the buffer.
const WRITE_BUFFER_CAPACITY: usize = 64 * 1024 + 256;

/// Cumulative traffic counters for one endpoint of a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Bytes handed to `send` so far.
    pub bytes_sent: u64,
    /// Bytes returned from `recv_exact` so far.
    pub bytes_received: u64,
    /// Number of `flush` calls that transmitted buffered data.
    pub flushes: u64,
}

/// A reliable, ordered byte pipe between the garbler and the evaluator.
///
/// `send` may buffer; `flush` must make everything sent so far visible
/// to the peer. `recv_exact` blocks until the buffer is filled or the
/// peer disconnects (an error).
pub trait Channel {
    /// Queues `bytes` for transmission.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the peer has disconnected.
    fn send(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Fills `buf` completely from the peer, blocking as needed.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the peer disconnects first.
    fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()>;

    /// Transmits everything buffered by `send`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the peer has disconnected.
    fn flush(&mut self) -> io::Result<()>;

    /// Sends `head` then `body` and flushes: one frame whose body the
    /// caller keeps. The default is exactly `send`, `send`, `flush`; a
    /// transport that can write both parts where they lie overrides it
    /// to skip copying them into its write buffer (the table stream's
    /// 64 KiB frames go out this way).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the peer has disconnected.
    fn send_flush(&mut self, head: &[u8], body: &[u8]) -> io::Result<()> {
        self.send(head)?;
        self.send(body)?;
        self.flush()
    }

    /// Traffic counters for this endpoint.
    fn stats(&self) -> ChannelStats;

    /// Bounds every subsequent blocking operation (`recv_exact`,
    /// `flush`) to `timeout`; `None` restores unbounded blocking. An
    /// operation that cannot complete in time fails with
    /// [`io::ErrorKind::TimedOut`] (or `WouldBlock` on transports whose
    /// socket timeouts surface that way) — the session layer converts
    /// either into a typed per-phase deadline error. The default
    /// implementation ignores the deadline (a transport that cannot
    /// time out simply keeps blocking; sessions over it fall back to
    /// the pre-deadline behavior).
    ///
    /// # Errors
    ///
    /// Propagates transport errors from arming the timeout.
    fn set_io_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let _ = timeout;
        Ok(())
    }
}

/// A borrowed channel is a channel, so a driver that owns its channel
/// (it may swap in a fresh one on resume) can also run on a caller's.
impl<T: Channel + ?Sized> Channel for &mut T {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        (**self).send(bytes)
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        (**self).recv_exact(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }

    fn send_flush(&mut self, head: &[u8], body: &[u8]) -> io::Result<()> {
        (**self).send_flush(head, body)
    }

    fn stats(&self) -> ChannelStats {
        (**self).stats()
    }

    fn set_io_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        (**self).set_io_deadline(timeout)
    }
}

impl<T: Channel + ?Sized> Channel for Box<T> {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        (**self).send(bytes)
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        (**self).recv_exact(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }

    fn send_flush(&mut self, head: &[u8], body: &[u8]) -> io::Result<()> {
        (**self).send_flush(head, body)
    }

    fn stats(&self) -> ChannelStats {
        (**self).stats()
    }

    fn set_io_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        (**self).set_io_deadline(timeout)
    }
}

/// Default [`MemChannel::pair`] capacity, in flushed-but-unread
/// messages. Each flush carries at most one table chunk (~64 KiB), so
/// this bounds a lagging peer's backlog to a few MiB instead of letting
/// a fast garbler buffer an entire circuit in memory.
pub const DEFAULT_MEM_CHANNEL_CAPACITY: usize = 64;

/// In-process channel endpoint: paired FIFO byte queues with *bounded*
/// capacity.
///
/// The bound is the backpressure a real socket provides for free: when
/// the peer stops reading, [`flush`](Channel::flush) blocks once
/// `capacity` flushed messages are outstanding, stalling the sender
/// instead of growing its memory without limit. Tests exercise
/// garbler-side backpressure deterministically via
/// [`pair_bounded`](MemChannel::pair_bounded) with a tiny capacity.
///
/// # Examples
///
/// ```
/// use haac_runtime::{Channel, MemChannel};
///
/// let (mut alice, mut bob) = MemChannel::pair();
/// alice.send(b"hello").unwrap();
/// alice.flush().unwrap();
/// let mut buf = [0u8; 5];
/// bob.recv_exact(&mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// assert_eq!(alice.stats().bytes_sent, 5);
/// assert_eq!(bob.stats().bytes_received, 5);
/// ```
#[derive(Debug)]
pub struct MemChannel {
    outbox: mpsc::SyncSender<Vec<u8>>,
    inbox: mpsc::Receiver<Vec<u8>>,
    write_buffer: Vec<u8>,
    read_buffer: VecDeque<u8>,
    stats: ChannelStats,
    /// Per-operation bound on blocking receives and backpressured
    /// flushes (the in-process analogue of socket timeouts).
    io_timeout: Option<Duration>,
}

impl MemChannel {
    /// Creates two connected endpoints with the default capacity.
    pub fn pair() -> (MemChannel, MemChannel) {
        MemChannel::pair_bounded(DEFAULT_MEM_CHANNEL_CAPACITY)
    }

    /// Creates two connected endpoints whose queues hold at most
    /// `capacity` flushed-but-unread messages in each direction; a
    /// further flush blocks until the peer catches up.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a rendezvous queue would deadlock
    /// two parties that both need to send before reading).
    pub fn pair_bounded(capacity: usize) -> (MemChannel, MemChannel) {
        assert!(capacity > 0, "capacity must be positive");
        let (to_b, from_a) = mpsc::sync_channel(capacity);
        let (to_a, from_b) = mpsc::sync_channel(capacity);
        let make = |outbox, inbox| MemChannel {
            outbox,
            inbox,
            write_buffer: Vec::with_capacity(WRITE_BUFFER_CAPACITY),
            read_buffer: VecDeque::new(),
            stats: ChannelStats::default(),
            io_timeout: None,
        };
        (make(to_b, from_b), make(to_a, from_a))
    }
}

impl Channel for MemChannel {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_buffer.extend_from_slice(bytes);
        self.stats.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        // Like a socket read timeout, the bound is per operation: one
        // recv_exact gets the whole budget, re-armed on the next call.
        let deadline = self.io_timeout.map(|t| Instant::now() + t);
        while self.read_buffer.len() < buf.len() {
            let message = match deadline {
                None => self.inbox.recv().map_err(|_| disconnected_mid_message())?,
                Some(deadline) => {
                    let remaining = deadline
                        .checked_duration_since(Instant::now())
                        .ok_or_else(recv_timed_out)?;
                    self.inbox.recv_timeout(remaining).map_err(|e| match e {
                        mpsc::RecvTimeoutError::Timeout => recv_timed_out(),
                        mpsc::RecvTimeoutError::Disconnected => disconnected_mid_message(),
                    })?
                }
            };
            self.read_buffer.extend(message);
        }
        // Two bulk copies (the ring's halves), not a pop per byte.
        let (front, back) = self.read_buffer.as_slices();
        let (head, tail) = buf.split_at_mut(front.len().min(buf.len()));
        head.copy_from_slice(&front[..head.len()]);
        tail.copy_from_slice(&back[..tail.len()]);
        self.read_buffer.drain(..buf.len());
        self.stats.bytes_received += buf.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.write_buffer.is_empty() {
            return Ok(());
        }
        // The queue message must own its bytes; hand over the buffer
        // itself (no memcpy) and replace it with a fresh presized one.
        let mut message =
            std::mem::replace(&mut self.write_buffer, Vec::with_capacity(WRITE_BUFFER_CAPACITY));
        match self.io_timeout {
            None => self
                .outbox
                .send(message)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer disconnected"))?,
            Some(timeout) => {
                // SyncSender has no send_timeout; poll try_send against
                // the deadline so a peer that stopped reading bounds
                // the backpressure stall instead of wedging the sender.
                let deadline = Instant::now() + timeout;
                loop {
                    match self.outbox.try_send(message) {
                        Ok(()) => break,
                        Err(mpsc::TrySendError::Disconnected(_)) => {
                            return Err(io::Error::new(
                                io::ErrorKind::BrokenPipe,
                                "peer disconnected",
                            ));
                        }
                        Err(mpsc::TrySendError::Full(returned)) => {
                            if Instant::now() >= deadline {
                                return Err(io::Error::new(
                                    io::ErrorKind::TimedOut,
                                    "peer stopped draining the channel",
                                ));
                            }
                            message = returned;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
            }
        }
        self.stats.flushes += 1;
        Ok(())
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn set_io_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.io_timeout = timeout;
        Ok(())
    }
}

fn disconnected_mid_message() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "peer disconnected mid-message")
}

fn recv_timed_out() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "peer sent nothing within the deadline")
}

/// A real TCP transport with write buffering and `TCP_NODELAY`.
///
/// Flush boundaries map one-to-one onto `write_all` calls on the socket,
/// so the runtime's chunked streaming shows up as genuine network
/// behavior (one segment burst per table chunk) instead of one giant
/// blocking write.
#[derive(Debug)]
pub struct TcpChannel {
    stream: TcpStream,
    write_buffer: Vec<u8>,
    stats: ChannelStats,
}

impl TcpChannel {
    /// Connects to a listening peer.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpChannel> {
        TcpChannel::from_stream(TcpStream::connect(addr)?)
    }

    /// Wraps an accepted stream (the listening side).
    ///
    /// # Errors
    ///
    /// Fails if `TCP_NODELAY` cannot be set.
    pub fn from_stream(stream: TcpStream) -> io::Result<TcpChannel> {
        stream.set_nodelay(true)?;
        Ok(TcpChannel {
            stream,
            write_buffer: Vec::with_capacity(WRITE_BUFFER_CAPACITY),
            stats: ChannelStats::default(),
        })
    }

    /// The peer's socket address, if known.
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn peer_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.stream.peer_addr()
    }
}

impl Channel for TcpChannel {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_buffer.extend_from_slice(bytes);
        self.stats.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.stream.read_exact(buf)?;
        self.stats.bytes_received += buf.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.write_buffer.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.write_buffer)?;
        self.stream.flush()?;
        self.write_buffer.clear();
        self.stats.flushes += 1;
        Ok(())
    }

    /// Whatever is buffered, then `head` and `body`, in vectored writes
    /// straight from where they lie — the frame is never copied into the
    /// write buffer.
    fn send_flush(&mut self, head: &[u8], body: &[u8]) -> io::Result<()> {
        if self.write_buffer.is_empty() && head.is_empty() && body.is_empty() {
            return Ok(());
        }
        // Counted as `send` counts: when handed over, written or not.
        self.stats.bytes_sent += (head.len() + body.len()) as u64;
        let mut parts = [IoSlice::new(&self.write_buffer), IoSlice::new(head), IoSlice::new(body)];
        let mut parts = &mut parts[..];
        IoSlice::advance_slices(&mut parts, 0);
        while !parts.is_empty() {
            match self.stream.write_vectored(parts) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(written) => IoSlice::advance_slices(&mut parts, written),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.stream.flush()?;
        self.write_buffer.clear();
        self.stats.flushes += 1;
        Ok(())
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn set_io_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        // Genuine socket timeouts: a stalled peer surfaces as
        // `WouldBlock`/`TimedOut` from the kernel, which the session
        // layer types as a per-phase deadline. Timeouts are per socket
        // operation, the same granularity MemChannel emulates.
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn mem_channel_is_full_duplex() {
        let (mut a, mut b) = MemChannel::pair();
        a.send(b"ping").unwrap();
        a.flush().unwrap();
        b.send(b"pong").unwrap();
        b.flush().unwrap();
        let mut buf = [0u8; 4];
        b.recv_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        a.recv_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn mem_channel_reassembles_across_flushes() {
        let (mut a, mut b) = MemChannel::pair();
        a.send(b"ab").unwrap();
        a.flush().unwrap();
        a.send(b"cdef").unwrap();
        a.flush().unwrap();
        let mut buf = [0u8; 6];
        b.recv_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
        assert_eq!(a.stats(), ChannelStats { bytes_sent: 6, bytes_received: 0, flushes: 2 });
    }

    #[test]
    fn tcp_send_flush_survives_partial_writes_to_a_slow_reader() {
        const BODY: usize = 4 << 20;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let body: Vec<u8> = (0..BODY).map(|i| (i * 31 % 251) as u8).collect();
        let expected = [&b"buffered"[..], b"head", &body].concat();
        let reader = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Small reads with pauses: the socket buffers fill, so the
            // writer's vectored writes come back short.
            let mut got = Vec::new();
            let mut piece = [0u8; 16 * 1024];
            loop {
                match stream.read(&mut piece).unwrap() {
                    0 => break got,
                    n => got.extend_from_slice(&piece[..n]),
                }
                if got.len() % (256 * 1024) < piece.len() {
                    thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        });
        let mut writer = TcpChannel::connect(addr).unwrap();
        writer.send(b"buffered").unwrap();
        writer.send_flush(b"head", &body).unwrap();
        // Nothing left behind in the write buffer to go out twice.
        writer.flush().unwrap();
        let stats = writer.stats();
        drop(writer);
        assert!(reader.join().unwrap() == expected, "bytes arrive once, in order");
        let sent = (8 + 4 + BODY) as u64;
        assert_eq!(stats, ChannelStats { bytes_sent: sent, bytes_received: 0, flushes: 1 });
    }

    #[test]
    fn mem_channel_reports_disconnect() {
        let (mut a, b) = MemChannel::pair();
        drop(b);
        let mut buf = [0u8; 1];
        assert!(a.recv_exact(&mut buf).is_err());
        a.send(b"x").unwrap();
        assert!(a.flush().is_err());
    }

    #[test]
    fn empty_flush_is_not_counted() {
        let (mut a, _b) = MemChannel::pair();
        a.flush().unwrap();
        assert_eq!(a.stats().flushes, 0);
    }

    #[test]
    fn flushes_are_counted_on_both_bounded_and_unbounded_pairs() {
        // The session layer's `io_ns`/`overlap_ratio` accounting hangs
        // off flush boundaries, so MemChannel must meter them exactly
        // like a real transport — one count per non-empty flush, on
        // every pair flavor.
        for (mut a, mut b) in [MemChannel::pair(), MemChannel::pair_bounded(3)] {
            for round in 1..=3u64 {
                a.send(&[round as u8; 16]).unwrap();
                a.flush().unwrap();
                assert_eq!(a.stats().flushes, round);
                let mut buf = [0u8; 16];
                b.recv_exact(&mut buf).unwrap();
            }
            // A flush with nothing buffered transmits nothing and
            // counts nothing, so flush counts equal wire messages.
            a.flush().unwrap();
            assert_eq!(a.stats().flushes, 3);
            assert_eq!(b.stats().flushes, 0, "the receiver never flushed");
            assert_eq!(a.stats().bytes_sent, b.stats().bytes_received);
        }
    }

    #[test]
    fn bounded_pair_stalls_the_sender_instead_of_buffering_unboundedly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        const CAPACITY: usize = 2;
        const TOTAL_FLUSHES: usize = CAPACITY + 5;
        let (mut sender, mut receiver) = MemChannel::pair_bounded(CAPACITY);
        let completed = Arc::new(AtomicUsize::new(0));
        let completed_in_thread = Arc::clone(&completed);
        let producer = thread::spawn(move || {
            for _ in 0..TOTAL_FLUSHES {
                sender.send(&[0u8; 1024]).unwrap();
                sender.flush().unwrap();
                completed_in_thread.fetch_add(1, Ordering::SeqCst);
            }
            sender
        });
        // The producer runs ahead until the queue is full, then stalls:
        // exactly CAPACITY flushes complete, the (CAPACITY+1)-th blocks.
        let deadline = Instant::now() + Duration::from_secs(10);
        while completed.load(Ordering::SeqCst) < CAPACITY {
            assert!(Instant::now() < deadline, "producer never reached the cap");
            thread::yield_now();
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(
            completed.load(Ordering::SeqCst),
            CAPACITY,
            "a full queue must block flush, not buffer on"
        );
        // Draining the queue releases the producer; everything arrives.
        let mut buf = [0u8; 1024];
        for _ in 0..TOTAL_FLUSHES {
            receiver.recv_exact(&mut buf).unwrap();
        }
        let sender = producer.join().unwrap();
        assert_eq!(completed.load(Ordering::SeqCst), TOTAL_FLUSHES);
        assert_eq!(sender.stats().flushes, TOTAL_FLUSHES as u64);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_pair_is_rejected() {
        let _ = MemChannel::pair_bounded(0);
    }

    #[test]
    fn mem_channel_read_deadline_times_out_against_a_silent_peer() {
        let (mut a, _b) = MemChannel::pair();
        a.set_io_deadline(Some(Duration::from_millis(20))).unwrap();
        let mut buf = [0u8; 1];
        let err = a.recv_exact(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // Clearing the deadline restores unbounded blocking semantics
        // (verified here only for the disconnect path, which must stay
        // an EOF, not a timeout).
        a.set_io_deadline(None).unwrap();
        drop(_b);
        let err = a.recv_exact(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn mem_channel_flush_deadline_bounds_backpressure() {
        let (mut a, b) = MemChannel::pair_bounded(1);
        a.set_io_deadline(Some(Duration::from_millis(20))).unwrap();
        a.send(b"first").unwrap();
        a.flush().unwrap(); // fills the queue: the peer reads nothing
        a.send(b"second").unwrap();
        let err = a.flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        drop(b);
        a.send(b"third").unwrap();
        let err = a.flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "disconnect beats timeout");
    }

    #[test]
    fn tcp_channel_read_deadline_times_out_against_a_silent_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let keep_open = thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut client = TcpChannel::connect(addr).unwrap();
        client.set_io_deadline(Some(Duration::from_millis(30))).unwrap();
        let mut buf = [0u8; 1];
        let err = client.recv_exact(&mut buf).unwrap_err();
        assert!(matches!(err.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock), "{err}");
        drop(keep_open.join().unwrap());
    }

    #[test]
    fn tcp_channel_loopback_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut channel = TcpChannel::from_stream(stream).unwrap();
            let mut buf = [0u8; 5];
            channel.recv_exact(&mut buf).unwrap();
            channel.send(&buf).unwrap();
            channel.send(b"!").unwrap();
            channel.flush().unwrap();
            channel.stats()
        });
        let mut client = TcpChannel::connect(addr).unwrap();
        client.send(b"hello").unwrap();
        client.flush().unwrap();
        let mut buf = [0u8; 6];
        client.recv_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello!");
        let server_stats = server.join().unwrap();
        assert_eq!(server_stats.bytes_sent, 6);
        assert_eq!(server_stats.flushes, 1);
        assert_eq!(client.stats().bytes_received, 6);
    }
}
