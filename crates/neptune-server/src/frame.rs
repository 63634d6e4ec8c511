//! Message framing over a byte stream.
//!
//! Each message travels as `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! The CRC protects against a corrupted or desynchronized stream turning
//! into a silently wrong operation on the server.
//!
//! [`FrameBuf`] holds per-connection scratch state so the steady-state cost
//! of a frame is zero allocations: reads reuse one payload buffer, writes
//! reuse one encode buffer and stream shared segments
//! ([`Writer::put_bytes_shared`]) straight to the socket without ever
//! materializing the frame contiguously.
//!
//! ## Reads are resumable
//!
//! [`FrameBuf::read_frame`] keeps its progress — header bytes and payload
//! bytes received so far — in the `FrameBuf`. When the underlying reader
//! returns `WouldBlock` or `TimedOut` partway through a frame, the error
//! goes to the caller and the bytes already read stay put; the next call
//! resumes exactly where the last one stopped. A mid-frame timeout is
//! therefore safe to treat as "nothing yet": the server polls for shutdown
//! with a 100 ms read timeout, and a frame whose bytes straddle one (a
//! paused client, a TCP retransmit) is still decoded whole rather than
//! losing its head and reading the rest of its payload as the next header.
//! Any other error — a clean close, a truncated stream, an oversized
//! length — discards the partial frame. `Interrupted` is retried in place.
//!
//! Both ends read through a [`std::io::BufReader`] of [`READ_BUFFER`]
//! bytes, so a small frame's header and payload arrive in one `recv`
//! rather than one for each. Resumability is what makes that buffering
//! safe under a read timeout: the `BufReader` never loses bytes on an
//! error, and neither does the frame reader above it.

use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;

use neptune_storage::checksum::{crc32, Crc32};
use neptune_storage::codec::{Decode, Encode, Writer};
use neptune_storage::error::{Result, StorageError};

/// Largest accepted frame (64 MiB): a node's contents can be large, but a
/// length beyond this indicates a desynchronized or hostile stream.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Capacity of the `BufReader` each connection end reads frames through:
/// a small request or response arrives in one `recv`, and a payload larger
/// than this bypasses the buffer and is read straight into the frame's
/// scratch buffer.
pub const READ_BUFFER: usize = 8 * 1024;

/// Frame header size: length plus CRC.
const HEADER: usize = 8;

/// Reusable per-connection framing state: a read scratch buffer, a write
/// encode buffer, and optional byte counters
/// (`neptune_server_bytes_{in,out}_total` on the server side).
///
/// Error behavior is designed so a connection can survive a bad frame
/// without desynchronizing: an oversized length is rejected *before any
/// allocation* ([`StorageError::FrameTooLarge`]), and a CRC mismatch is
/// reported only after the full payload has been drained from the stream,
/// leaving the reader positioned at the next frame boundary.
#[derive(Default)]
pub struct FrameBuf {
    /// The frame being read: its header, how much of the header has
    /// arrived, and (once the header is whole) the payload buffer and how
    /// much of it has arrived. Kept across calls so a read interrupted by a
    /// timeout resumes mid-frame.
    header: [u8; HEADER],
    header_read: usize,
    read_scratch: Vec<u8>,
    payload_read: usize,
    write_scratch: Writer,
    bytes_in: Option<Arc<neptune_obs::Counter>>,
    bytes_out: Option<Arc<neptune_obs::Counter>>,
}

impl FrameBuf {
    /// Scratch state with no byte accounting (client side).
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Scratch state that adds every frame's wire size (header + payload)
    /// to the given counters.
    pub fn with_counters(
        bytes_in: Arc<neptune_obs::Counter>,
        bytes_out: Arc<neptune_obs::Counter>,
    ) -> Self {
        FrameBuf {
            bytes_in: Some(bytes_in),
            bytes_out: Some(bytes_out),
            ..FrameBuf::default()
        }
    }

    /// Read one frame and decode it as `T`, reusing the scratch buffer.
    ///
    /// Returns `Err(StorageError::Io)` with `UnexpectedEof` on clean stream
    /// close before a frame starts (the caller treats that as disconnect).
    /// A `WouldBlock` or `TimedOut` error leaves the partial frame in place
    /// and the next call resumes it (see the module docs).
    pub fn read_frame<R: Read, T: Decode>(&mut self, reader: &mut R) -> Result<T> {
        let result = self.fill_frame(reader);
        if !matches!(&result, Err(StorageError::Io(e)) if is_retryable(e.kind())) {
            // A frame is complete, or the partial one is unrecoverable:
            // either way the next call starts at a header.
            self.header_read = 0;
            self.payload_read = 0;
        }
        let len = result?;
        if let Some(c) = &self.bytes_in {
            c.add((HEADER + len) as u64);
        }
        let [_, _, _, _, c0, c1, c2, c3] = self.header;
        let expected_crc = u32::from_le_bytes([c0, c1, c2, c3]);
        let actual = crc32(&self.read_scratch);
        if actual != expected_crc {
            return Err(StorageError::ChecksumMismatch {
                expected: expected_crc,
                actual,
            });
        }
        T::from_bytes(&self.read_scratch)
    }

    /// Fill the header, then the payload, from wherever the last call left
    /// off; returns the payload length once the whole frame has arrived.
    fn fill_frame<R: Read>(&mut self, reader: &mut R) -> Result<usize> {
        while self.header_read < HEADER {
            let rest = self.header.get_mut(self.header_read..).unwrap_or_default();
            let n = read_some(reader, rest)?;
            self.header_read += n;
            if self.header_read == HEADER {
                let [l0, l1, l2, l3, ..] = self.header;
                let len = u32::from_le_bytes([l0, l1, l2, l3]);
                if len > MAX_FRAME {
                    // Reject before resizing the scratch buffer: a corrupt
                    // length field must not drive a giant allocation.
                    return Err(StorageError::FrameTooLarge {
                        len: len as u64,
                        max: MAX_FRAME as u64,
                    });
                }
                self.read_scratch.resize(len as usize, 0);
            }
        }
        while self.payload_read < self.read_scratch.len() {
            let rest = self
                .read_scratch
                .get_mut(self.payload_read..)
                .unwrap_or_default();
            let n = read_some(reader, rest)?;
            self.payload_read += n;
        }
        Ok(self.read_scratch.len())
    }

    /// Write one encodable message as a frame, reusing the encode buffer,
    /// then flush the writer. See [`FrameBuf::queue_frame`] for the
    /// pipelined (unflushed) variant.
    pub fn write_frame<W: Write, T: Encode>(&mut self, writer: &mut W, message: &T) -> Result<()> {
        self.queue_frame(writer, message)?;
        writer.flush()?;
        Ok(())
    }

    /// Write one frame *without* flushing, so a pipelining caller can queue
    /// N frames into a buffered writer and pay one flush for all of them.
    ///
    /// The payload is never assembled contiguously: the CRC is computed
    /// incrementally over the encoder's chunks (shared segments included)
    /// and the same chunks are then streamed to `writer`.
    pub fn queue_frame<W: Write, T: Encode>(&mut self, writer: &mut W, message: &T) -> Result<()> {
        self.write_scratch.clear();
        message.encode(&mut self.write_scratch);
        let len = self.write_scratch.len();
        if len > MAX_FRAME as usize {
            return Err(StorageError::FrameTooLarge {
                len: len as u64,
                max: MAX_FRAME as u64,
            });
        }
        let mut hasher = Crc32::new();
        self.write_scratch
            .for_each_chunk(|chunk| hasher.update(chunk));
        let [l0, l1, l2, l3] = (len as u32).to_le_bytes();
        let [c0, c1, c2, c3] = hasher.finish().to_le_bytes();
        let header = [l0, l1, l2, l3, c0, c1, c2, c3];
        writer.write_all(&header)?;
        let mut io_err: Option<std::io::Error> = None;
        self.write_scratch.for_each_chunk(|chunk| {
            if io_err.is_none() {
                if let Err(e) = writer.write_all(chunk) {
                    io_err = Some(e);
                }
            }
        });
        if let Some(e) = io_err {
            return Err(e.into());
        }
        if let Some(c) = &self.bytes_out {
            c.add(8 + len as u64);
        }
        // Drop shared segments now rather than at the next call: holding
        // them would pin large payload allocations between frames.
        self.write_scratch.clear();
        Ok(())
    }
}

/// Errors after which a partial frame is kept for the next call.
fn is_retryable(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// One `read` into a non-empty `buf`, retrying `Interrupted`; a zero-byte
/// read (end of stream) becomes `UnexpectedEof`.
fn read_some<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<usize> {
    loop {
        match reader.read(buf) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into()),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Write one encodable message as a frame (one-shot convenience; hot paths
/// keep a [`FrameBuf`] instead).
pub fn write_frame<W: Write, T: Encode>(writer: &mut W, message: &T) -> Result<()> {
    FrameBuf::new().write_frame(writer, message)
}

/// Read one frame and decode it as `T` (one-shot convenience; hot paths
/// keep a [`FrameBuf`] instead).
pub fn read_frame<R: Read, T: Decode>(reader: &mut R) -> Result<T> {
    FrameBuf::new().read_frame(reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &"hello hypertext".to_string()).unwrap();
        write_frame(&mut buf, &42u64).unwrap();
        let mut cursor = Cursor::new(buf);
        let s: String = read_frame(&mut cursor).unwrap();
        assert_eq!(s, "hello hypertext");
        let n: u64 = read_frame(&mut cursor).unwrap();
        assert_eq!(n, 42);
    }

    #[test]
    fn reused_framebuf_roundtrips_and_counts_bytes() {
        let registry = neptune_obs::Registry::new(true);
        let mut fb = FrameBuf::with_counters(
            registry.counter("test_bytes_in"),
            registry.counter("test_bytes_out"),
        );
        let mut buf = Vec::new();
        fb.write_frame(&mut buf, &"first".to_string()).unwrap();
        fb.write_frame(&mut buf, &"second, longer".to_string())
            .unwrap();
        let wire_len = buf.len() as u64;
        let mut cursor = Cursor::new(buf);
        let a: String = fb.read_frame(&mut cursor).unwrap();
        let b: String = fb.read_frame(&mut cursor).unwrap();
        assert_eq!((a.as_str(), b.as_str()), ("first", "second, longer"));
        assert_eq!(registry.counter("test_bytes_out").get(), wire_len);
        assert_eq!(registry.counter("test_bytes_in").get(), wire_len);
    }

    #[test]
    fn shared_segments_stream_without_materializing() {
        // An Arc'd payload goes out by reference and arrives intact.
        let payload: Arc<[u8]> = Arc::from(vec![0xABu8; 100_000]);
        let mut fb = FrameBuf::new();
        let mut buf = Vec::new();
        fb.write_frame(&mut buf, &payload).unwrap();
        assert_eq!(
            Arc::strong_count(&payload),
            1,
            "write must not retain the payload"
        );
        let mut cursor = Cursor::new(buf);
        let back: Arc<[u8]> = fb.read_frame(&mut cursor).unwrap();
        assert_eq!(&back[..], &payload[..]);
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &"payload".to_string()).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_frame::<_, String>(&mut cursor),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn crc_mismatch_leaves_stream_frame_aligned() {
        // A CRC-failed frame is fully drained, so the *next* frame still
        // decodes — the connection can report the error and keep going
        // instead of desynchronizing.
        let mut buf = Vec::new();
        write_frame(&mut buf, &"corrupt me".to_string()).unwrap();
        let after_first = buf.len();
        write_frame(&mut buf, &"survivor".to_string()).unwrap();
        buf[after_first - 1] ^= 0xFF; // flip a byte in frame 1's payload
        let mut fb = FrameBuf::new();
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            fb.read_frame::<_, String>(&mut cursor),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        let s: String = fb.read_frame(&mut cursor).unwrap();
        assert_eq!(s, "survivor");
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut fb = FrameBuf::new();
        let mut cursor = Cursor::new(buf);
        let err = fb.read_frame::<_, String>(&mut cursor).unwrap_err();
        assert!(
            matches!(err, StorageError::FrameTooLarge { len, max }
                if len == (MAX_FRAME + 1) as u64 && max == MAX_FRAME as u64),
            "want FrameTooLarge, got {err:?}"
        );
        assert_eq!(
            fb.read_scratch.capacity(),
            0,
            "hostile length must be rejected before any allocation"
        );
        // A max-length header is also rejected at *write* time, so a peer
        // never emits a frame the other side won't accept.
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            fb.write_frame(&mut sink, &huge),
            Err(StorageError::FrameTooLarge { .. })
        ));
    }

    /// One step of a [`Scripted`] reader's script.
    enum Step {
        /// The next `n` bytes of the stream, handed out across as many
        /// `read` calls as the caller's buffers need.
        Bytes(usize),
        /// One `read` that fails with `WouldBlock` (a read timeout).
        WouldBlock,
    }

    /// A reader that hands out a byte stream as scripted: each `read`
    /// returns at most what is left of the current step, and a
    /// [`Step::WouldBlock`] step fails one call. After the script, the
    /// rest of the stream comes in whatever sizes are asked for. Counts
    /// every `read` call.
    struct Scripted {
        data: Vec<u8>,
        pos: usize,
        script: std::collections::VecDeque<Step>,
        reads: usize,
    }

    impl Scripted {
        fn new(data: Vec<u8>, script: Vec<Step>) -> Scripted {
            Scripted {
                data,
                pos: 0,
                script: script.into(),
                reads: 0,
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let rest = self.data.len() - self.pos;
            let n = match self.script.front_mut() {
                Some(Step::WouldBlock) => {
                    self.script.pop_front();
                    return Err(ErrorKind::WouldBlock.into());
                }
                Some(Step::Bytes(left)) => {
                    let n = buf.len().min(*left).min(rest);
                    *left -= n;
                    if *left == 0 {
                        self.script.pop_front();
                    }
                    n
                }
                None => buf.len().min(rest),
            };
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Read one frame, retrying (and counting) `WouldBlock`s.
    fn read_retrying<R: Read>(
        fb: &mut FrameBuf,
        reader: &mut R,
        blocked: &mut usize,
    ) -> Result<String> {
        loop {
            match fb.read_frame::<_, String>(reader) {
                Err(StorageError::Io(e)) if e.kind() == ErrorKind::WouldBlock => *blocked += 1,
                other => return other,
            }
        }
    }

    fn two_frames() -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, &"the first frame".to_string()).unwrap();
        write_frame(&mut buf, &"second".to_string()).unwrap();
        buf
    }

    #[test]
    fn a_timeout_at_any_byte_resumes_mid_frame() {
        let stream = two_frames();
        for cut in 1..stream.len() {
            let script = || vec![Step::Bytes(cut), Step::WouldBlock];
            let mut blocked = 0;
            let mut fb = FrameBuf::new();
            let mut direct = Scripted::new(stream.clone(), script());
            let a = read_retrying(&mut fb, &mut direct, &mut blocked).unwrap();
            let b = read_retrying(&mut fb, &mut direct, &mut blocked).unwrap();
            assert_eq!(
                (a.as_str(), b.as_str()),
                ("the first frame", "second"),
                "cut {cut}"
            );
            // The same through the connection's read buffer.
            let mut buffered = std::io::BufReader::with_capacity(
                READ_BUFFER,
                Scripted::new(stream.clone(), script()),
            );
            let a = read_retrying(&mut fb, &mut buffered, &mut blocked).unwrap();
            let b = read_retrying(&mut fb, &mut buffered, &mut blocked).unwrap();
            assert_eq!(
                (a.as_str(), b.as_str()),
                ("the first frame", "second"),
                "cut {cut}"
            );
            assert_eq!(blocked, 2, "cut {cut}: one timeout per stream");
        }
    }

    #[test]
    fn a_small_frame_costs_one_underlying_read() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &"small".to_string()).unwrap();
        let mut reader = std::io::BufReader::with_capacity(READ_BUFFER, Scripted::new(buf, vec![]));
        let s: String = FrameBuf::new().read_frame(&mut reader).unwrap();
        assert_eq!(s, "small");
        assert_eq!(reader.get_ref().reads, 1, "header and payload in one read");
    }

    #[test]
    fn an_oversized_length_in_pieces_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = Scripted::new(buf, vec![Step::Bytes(3), Step::WouldBlock]);
        let mut fb = FrameBuf::new();
        let mut blocked = 0;
        let err = read_retrying(&mut fb, &mut reader, &mut blocked).unwrap_err();
        assert!(matches!(err, StorageError::FrameTooLarge { .. }), "{err:?}");
        assert_eq!(blocked, 1);
        assert_eq!(fb.read_scratch.capacity(), 0);
    }

    #[test]
    fn a_crc_mismatch_in_pieces_leaves_the_stream_aligned() {
        let mut stream = two_frames();
        let first_len = stream.len() - (HEADER + 1 + "second".len());
        stream[first_len - 1] ^= 0xFF; // flip a byte in frame 1's payload
                                       // Every byte of frame 1 arrives alone, with a timeout after each.
        let script = (0..first_len)
            .flat_map(|_| [Step::Bytes(1), Step::WouldBlock])
            .collect();
        let mut reader = Scripted::new(stream, script);
        let mut fb = FrameBuf::new();
        let mut blocked = 0;
        assert!(matches!(
            read_retrying(&mut fb, &mut reader, &mut blocked),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert_eq!(
            read_retrying(&mut fb, &mut reader, &mut blocked).unwrap(),
            "second"
        );
        assert_eq!(blocked, first_len);
    }

    #[test]
    fn truncated_stream_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &"payload".to_string()).unwrap();
        buf.truncate(buf.len() - 2);
        let mut cursor = Cursor::new(buf);
        assert!(read_frame::<_, String>(&mut cursor).is_err());
    }
}
