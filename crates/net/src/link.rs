//! Point-to-point frame links and the wire codec of the live backend.
//!
//! The simulator moves typed events between processes directly; the live
//! backend (`gcs-live`) moves **frames** when it runs on its TCP wire. A
//! frame is a fixed 16-byte header plus an opaque body, and a [`TcpLink`]
//! carries frames intact and in order over a loopback TCP stream. (The live
//! backend's default channel wire moves bursts of events between member
//! inboxes and never frames them.)
//!
//! # Frame format
//!
//! ```text
//! offset  size  field
//! 0       2     magic 0x47 0x43  ("GC")
//! 2       1     version (currently 1)
//! 3       1     channel tag (runtime-defined; the live backend uses it to
//!               distinguish net frames from control frames)
//! 4       4     sender process id   (big-endian u32)
//! 8       4     receiver process id (big-endian u32)
//! 12      4     body length         (big-endian u32)
//! 16      len   body
//! ```
//!
//! The codec is sans-I/O: [`encode_frame`] appends to a caller buffer and
//! [`FrameDecoder`] consumes arbitrary byte chunks (TCP segment boundaries
//! do not respect frames), yielding complete frames as they close. Bodies
//! are opaque: the live backend keeps event payloads as in-process handles
//! (the same philosophy as the arena's `PayloadRef`) and puts the handle in
//! the body, so the wire carries real framing, ordering, and flow-control
//! behavior without a full serialization layer — the one piece of the
//! deployment story this reproduction does not model.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Length of the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 16;

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 2] = [0x47, 0x43];

/// Codec version emitted and accepted.
pub const FRAME_VERSION: u8 = 1;

/// Largest body the codec accepts (a corrupted length field must not make
/// the decoder buffer gigabytes).
pub const MAX_FRAME_BODY: usize = 16 * 1024 * 1024;

/// The fixed header of one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Channel tag (runtime-defined multiplexing byte).
    pub channel: u8,
    /// Sender process id.
    pub from: u32,
    /// Receiver process id.
    pub to: u32,
    /// Body length in bytes.
    pub len: u32,
}

/// A decoding failure (corrupt stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream did not open with the frame magic.
    BadMagic,
    /// The version byte was not [`FRAME_VERSION`].
    BadVersion(u8),
    /// The length field exceeded [`MAX_FRAME_BODY`].
    Oversized(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "frame stream lost sync (bad magic)"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame (header + body) onto the end of `out`.
pub fn encode_frame(header: &FrameHeader, body: &[u8], out: &mut Vec<u8>) {
    debug_assert_eq!(header.len as usize, body.len(), "header length mismatch");
    out.reserve(FRAME_HEADER_LEN + body.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(header.channel);
    out.extend_from_slice(&header.from.to_be_bytes());
    out.extend_from_slice(&header.to.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
}

/// An incremental frame decoder: push byte chunks in, pull whole frames out.
///
/// Chunk boundaries are arbitrary — a frame may arrive split across many
/// reads or many frames may arrive in one read; the decoder buffers exactly
/// what an incomplete frame needs.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf` (consumed bytes are compacted away lazily).
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed prefix space is reused so a
        // long-lived decoder does not grow without bound.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<(FrameHeader, Vec<u8>)>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        if avail[0..2] != FRAME_MAGIC {
            return Err(FrameError::BadMagic);
        }
        if avail[2] != FRAME_VERSION {
            return Err(FrameError::BadVersion(avail[2]));
        }
        let be32 = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        let len = be32(&avail[12..16]);
        if len as usize > MAX_FRAME_BODY {
            return Err(FrameError::Oversized(len));
        }
        if avail.len() < FRAME_HEADER_LEN + len as usize {
            return Ok(None);
        }
        let header = FrameHeader {
            channel: avail[3],
            from: be32(&avail[4..8]),
            to: be32(&avail[8..12]),
            len,
        };
        let body = avail[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len as usize].to_vec();
        self.pos += FRAME_HEADER_LEN + len as usize;
        Ok(Some((header, body)))
    }
}

/// A bidirectional frame link over a TCP stream (the live backend connects
/// pairs over 127.0.0.1): frames arrive intact and in send order, the
/// contract TCP gives for free. `TCP_NODELAY` is set: protocol frames are
/// latency-bound, not throughput-bound.
pub struct TcpLink {
    stream: TcpStream,
    decoder: FrameDecoder,
    scratch: Vec<u8>,
    read_buf: [u8; 8192],
}

impl TcpLink {
    /// Wraps an already connected stream.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpLink {
            stream,
            decoder: FrameDecoder::new(),
            scratch: Vec::new(),
            read_buf: [0; 8192],
        })
    }

    /// Creates a connected pair over the loopback interface.
    pub fn pair() -> io::Result<(TcpLink, TcpLink)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let client = TcpStream::connect(addr)?;
        let (server, _) = listener.accept()?;
        Ok((TcpLink::new(client)?, TcpLink::new(server)?))
    }

    /// Shuts the underlying stream down in both directions, unblocking any
    /// thread parked in [`recv`](Self::recv) on a clone of this link (it observes
    /// EOF). Used by the live runtime to tear reader threads down.
    pub fn shutdown(&self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Both)
    }

    /// Duplicates the link handle (shared underlying stream) so one side can
    /// be split between a writing and a reading thread.
    pub fn try_clone(&self) -> io::Result<TcpLink> {
        Ok(TcpLink {
            stream: self.stream.try_clone()?,
            decoder: FrameDecoder::new(),
            scratch: Vec::new(),
            read_buf: [0; 8192],
        })
    }

    /// Sends one frame (blocking until the stream accepted the bytes).
    pub fn send(&mut self, header: &FrameHeader, body: &[u8]) -> io::Result<()> {
        self.scratch.clear();
        encode_frame(header, body, &mut self.scratch);
        self.stream.write_all(&self.scratch)
    }

    /// Receives the next frame, blocking; `None` means the peer closed.
    pub fn recv(&mut self) -> io::Result<Option<(FrameHeader, Vec<u8>)>> {
        loop {
            if let Some(frame) = self
                .decoder
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                return Ok(Some(frame));
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                return Ok(if self.decoder.pending() == 0 {
                    None
                } else {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ));
                });
            }
            self.decoder.push(&self.read_buf[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::{any, prop_assert, prop_assert_eq, ProptestConfig, Strategy};

    fn hdr(channel: u8, from: u32, to: u32, len: usize) -> FrameHeader {
        FrameHeader {
            channel,
            from,
            to,
            len: len as u32,
        }
    }

    #[test]
    fn roundtrip_one_frame() {
        let mut wire = Vec::new();
        encode_frame(&hdr(3, 1, 2, 5), b"hello", &mut wire);
        assert_eq!(wire.len(), FRAME_HEADER_LEN + 5);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let (h, body) = dec.next_frame().unwrap().expect("complete frame");
        assert_eq!((h.channel, h.from, h.to, h.len), (3, 1, 2, 5));
        assert_eq!(body, b"hello");
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn partial_reads_reassemble() {
        // TCP does not respect frame boundaries: feed the stream one byte
        // at a time and in uneven chunks across two frames.
        let mut wire = Vec::new();
        encode_frame(&hdr(0, 7, 8, 3), b"abc", &mut wire);
        encode_frame(&hdr(1, 8, 7, 0), b"", &mut wire);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(1) {
            dec.push(chunk);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].1, b"abc");
        assert_eq!(got[1].0.channel, 1);
        assert_eq!(got[1].1, b"");
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn corrupt_streams_error_instead_of_hanging() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0xde, 0xad, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(dec.next_frame(), Err(FrameError::BadMagic));

        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        encode_frame(&hdr(0, 0, 0, 0), b"", &mut wire);
        wire[2] = 9; // wrong version
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::BadVersion(9)));

        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        encode_frame(&hdr(0, 0, 0, 0), b"", &mut wire);
        wire[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::Oversized(u32::MAX)));
    }

    /// One piece of a hostile stream, chosen by `kind`: a valid frame, one
    /// with a byte overwritten, a well-formed header announcing `len` bytes
    /// (none, the cap, one past it, the most a length field can say, or
    /// anything) followed by `body`, or `body` as raw bytes.
    fn hostile_piece(kind: u8, byte: u8, len: u32, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        match kind % 4 {
            0 => encode_frame(&hdr(byte, 1, 2, body.len()), body, &mut out),
            1 => {
                encode_frame(&hdr(byte, 1, 2, body.len()), body, &mut out);
                let at = len as usize % out.len();
                out[at] = byte;
            }
            2 => {
                let cap = MAX_FRAME_BODY as u32;
                let len = [0, cap, cap + 1, u32::MAX, len][byte as usize % 5];
                out.extend_from_slice(&FRAME_MAGIC);
                out.push(FRAME_VERSION);
                out.push(byte);
                out.extend_from_slice(&1u32.to_be_bytes());
                out.extend_from_slice(&2u32.to_be_bytes());
                out.extend_from_slice(&len.to_be_bytes());
                out.extend_from_slice(body);
            }
            _ => out.extend_from_slice(body),
        }
        out
    }

    /// The frames a stream decoded to, and the error that ended it.
    type Decoded = (Vec<(FrameHeader, Vec<u8>)>, Option<FrameError>);

    /// Feeds `stream` to a decoder in chunks of the sizes `chunks` cycles
    /// through, draining every frame after each chunk. A corrupt stream's
    /// error must be final (the links abandon the stream on it).
    fn decode_in_chunks(
        stream: &[u8],
        chunks: &[usize],
    ) -> Result<Decoded, proptest::TestCaseError> {
        let mut dec = FrameDecoder::new();
        let (mut frames, mut failed) = (Vec::new(), None);
        let mut sizes = chunks.iter().cycle();
        let mut at = 0;
        while at < stream.len() {
            let end = (at + sizes.next().expect("one size at least")).min(stream.len());
            dec.push(&stream[at..end]);
            at = end;
            loop {
                match dec.next_frame() {
                    Ok(Some((h, body))) => {
                        proptest::prop_assert!(failed.is_none(), "a frame after {failed:?}");
                        proptest::prop_assert_eq!(body.len(), h.len as usize);
                        proptest::prop_assert!(body.len() <= MAX_FRAME_BODY);
                        frames.push((h, body));
                    }
                    Ok(None) => {
                        proptest::prop_assert!(failed.is_none(), "{failed:?} went away");
                        break;
                    }
                    Err(e) => {
                        proptest::prop_assert!(failed.is_none_or(|f| f == e));
                        failed = Some(e);
                        break;
                    }
                }
            }
        }
        Ok((frames, failed))
    }

    /// Up to twelve [`hostile_piece`] arguments.
    fn hostile_pieces() -> impl Strategy<Value = Vec<(u8, u8, u32, Vec<u8>)>> {
        vec(
            (
                any::<u8>(),
                any::<u8>(),
                any::<u32>(),
                vec(any::<u8>(), 0..48),
            ),
            0..12,
        )
    }

    fn hostile_stream(pieces: &[(u8, u8, u32, Vec<u8>)]) -> Vec<u8> {
        pieces
            .iter()
            .flat_map(|(kind, byte, len, body)| hostile_piece(*kind, *byte, *len, body))
            .collect()
    }

    /// Up to ten frames (channel, from, to, body) of up to 1,200 bytes each.
    fn valid_frames() -> impl Strategy<Value = Vec<(u8, u32, u32, Vec<u8>)>> {
        vec(
            (
                any::<u8>(),
                any::<u32>(),
                any::<u32>(),
                vec(any::<u8>(), 0..1_200),
            ),
            0..10,
        )
    }

    /// Encodes `frames` back to back: the stream, and the frames as sent.
    fn encode_all(frames: Vec<(u8, u32, u32, Vec<u8>)>) -> (Vec<u8>, Vec<(FrameHeader, Vec<u8>)>) {
        let mut stream = Vec::new();
        let sent = frames
            .into_iter()
            .map(|(channel, from, to, body)| {
                let header = FrameHeader {
                    channel,
                    from,
                    to,
                    len: body.len() as u32,
                };
                encode_frame(&header, &body, &mut stream);
                (header, body)
            })
            .collect();
        (stream, sent)
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever bytes arrive, in whatever chunks, the decoder does not
        /// panic: every call answers a complete frame whose body is within
        /// the cap, "not yet", or a decoding error that stays.
        #[test]
        fn hostile_bytes_yield_frames_or_errors_never_a_panic(
            pieces in hostile_pieces(),
            chunks in vec(1usize..80, 1..30),
        ) {
            decode_in_chunks(&hostile_stream(&pieces), &chunks)?;
        }

        /// Valid frames back to back, split at arbitrary boundaries — past
        /// the decoder's 4 KiB compaction point too — decode intact and in
        /// order, and leave nothing behind.
        #[test]
        fn valid_frames_split_anywhere_decode_intact(
            frames in valid_frames(),
            chunks in vec(1usize..600, 1..20),
        ) {
            let (stream, sent) = encode_all(frames);
            let (got, failed) = decode_in_chunks(&stream, &chunks)?;
            prop_assert_eq!(failed, None);
            prop_assert_eq!(got, sent);
        }
    }

    /// Writes `stream` through `writer`'s raw socket in chunks of the sizes
    /// `chunks` cycles through, then closes the writing half. The streams
    /// here stay far below a socket buffer, so no write waits on the reader.
    fn write_raw_in_chunks(writer: &TcpLink, stream: &[u8], chunks: &[usize]) -> io::Result<()> {
        let mut socket = &writer.stream;
        let mut sizes = chunks.iter().cycle();
        let mut at = 0;
        while at < stream.len() {
            let end = (at + sizes.next().expect("one size at least")).min(stream.len());
            socket.write_all(&stream[at..end])?;
            at = end;
        }
        writer.stream.shutdown(std::net::Shutdown::Write)
    }

    /// Receives on `reader` until the link ends: the frames, and the error
    /// that ended it (`None` for a clean hangup). A read timeout turns a
    /// blocked `recv` into an error of its own kind.
    fn recv_to_end(reader: &mut TcpLink) -> (Vec<(FrameHeader, Vec<u8>)>, Option<io::Error>) {
        reader
            .stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("read timeout");
        let mut frames = Vec::new();
        loop {
            match reader.recv() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some(e)),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The hostile streams above, written through a real loopback TCP
        /// socket in arbitrary chunks: the reader yields the frames an
        /// in-process decoder finds in the same bytes, each within the cap,
        /// then ends as the bytes do — a clean hangup, `InvalidData` (a
        /// corrupt stream) or `UnexpectedEof` (a frame cut short). It never
        /// panics and never blocks.
        #[test]
        fn hostile_bytes_over_loopback_tcp_never_panic_or_hang(
            pieces in hostile_pieces(),
            chunks in vec(1usize..80, 1..30),
        ) {
            let stream = hostile_stream(&pieces);
            let mut dec = FrameDecoder::new();
            dec.push(&stream);
            let mut expected = Vec::new();
            let expected_end = loop {
                match dec.next_frame() {
                    Ok(Some(frame)) => expected.push(frame),
                    Ok(None) if dec.pending() == 0 => break None,
                    Ok(None) => break Some(io::ErrorKind::UnexpectedEof),
                    Err(_) => break Some(io::ErrorKind::InvalidData),
                }
            };
            let (writer, mut reader) = TcpLink::pair().expect("loopback pair");
            write_raw_in_chunks(&writer, &stream, &chunks).expect("raw write");
            let (got, end) = recv_to_end(&mut reader);
            for (h, body) in &got {
                prop_assert_eq!(body.len(), h.len as usize);
                prop_assert!(body.len() <= MAX_FRAME_BODY);
            }
            prop_assert_eq!(got, expected);
            prop_assert_eq!(end.map(|e| e.kind()), expected_end);
        }

        /// Valid frames written through a real loopback TCP socket in
        /// arbitrary chunks arrive intact and in order, then the hangup.
        #[test]
        fn valid_frames_over_loopback_tcp_arrive_intact(
            frames in valid_frames(),
            chunks in vec(1usize..600, 1..20),
        ) {
            let (stream, sent) = encode_all(frames);
            let (writer, mut reader) = TcpLink::pair().expect("loopback pair");
            write_raw_in_chunks(&writer, &stream, &chunks).expect("raw write");
            let (got, end) = recv_to_end(&mut reader);
            prop_assert!(end.is_none(), "{end:?}");
            prop_assert_eq!(got, sent);
        }
    }

    #[test]
    fn tcp_link_roundtrips_over_loopback() {
        let (mut a, mut b) = TcpLink::pair().expect("loopback pair");
        let big = vec![0xabu8; 100_000]; // force multiple reads
        a.send(&hdr(2, 4, 5, big.len()), &big).unwrap();
        a.send(&hdr(2, 4, 5, 3), b"end").unwrap();
        let (h1, b1) = b.recv().unwrap().expect("big frame");
        assert_eq!(h1.len as usize, big.len());
        assert_eq!(b1, big);
        let (_, b2) = b.recv().unwrap().expect("tail frame");
        assert_eq!(b2, b"end");
        // Reply direction works too.
        b.send(&hdr(0, 5, 4, 2), b"ok").unwrap();
        let (_, r) = a.recv().unwrap().expect("reply");
        assert_eq!(r, b"ok");
        drop(a);
        assert!(b.recv().unwrap().is_none(), "hangup surfaces as None");
    }
}
