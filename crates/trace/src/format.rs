//! The binary address-trace format: raw and framed variants, with a
//! streaming reader that never materialises the whole trace.
//!
//! The **raw** form is the classic compact trace interchange layout: a bare
//! sequence of big-endian `u32` byte addresses, four bytes per access,
//! nothing else. Any tool that emits 4-byte big-endian addresses can feed
//! the replay engine directly.
//!
//! The **framed** form wraps the same payload in a fixed 40-byte header
//! carrying the geometry the trace was generated for and an integrity
//! check, mirroring the serve store's crc32-framed log:
//!
//! ```text
//! "CMET" | version (u32 LE) | line_bytes (u64 LE) | num_sets (u64 LE)
//!        | assoc (u32 LE) | count (u64 LE) | crc32 (u32 LE) | payload
//! ```
//!
//! `crc32` covers the payload bytes (IEEE, reflected — the same polynomial
//! as the store log). The reader sniffs the first four bytes: a `CMET`
//! magic selects framed parsing (header geometry available up front, count
//! and CRC verified incrementally as chunks stream through); anything else
//! is treated as the first raw address. Raw traces cannot start with the
//! bytes `CMET` — that address (0x434d4554) is out of reach for the layouts
//! this workspace generates, and external traces can add a frame to
//! disambiguate.

use cme_cache::{CacheConfig, CacheConfigError};
use std::io::{self, Read, Seek, SeekFrom, Write};

/// The framed-variant magic.
pub const MAGIC: &[u8; 4] = b"CMET";
/// Current framed-format version.
pub const VERSION: u32 = 1;
/// Framed header length in bytes.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 4 + 8 + 4;
/// Bytes per access in the payload (big-endian `u32`).
pub const BYTES_PER_ACCESS: usize = 4;

/// Streaming IEEE CRC-32 (reflected, polynomial `0xEDB88320`) — the
/// workspace's one CRC, which the serve store's log frames use too — in
/// incremental form so the writer and reader never buffer the payload.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }
}

impl Crc32 {
    /// A fresh checksum.
    pub fn new() -> Crc32 {
        Crc32::default()
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        self.state = crc;
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// The metadata a framed trace carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Format version (currently always [`VERSION`]).
    pub version: u32,
    /// Line size the trace was generated for.
    pub line_bytes: u64,
    /// Set count the trace was generated for.
    pub num_sets: u64,
    /// Associativity the trace was generated for.
    pub assoc: u32,
    /// Number of addresses in the payload.
    pub count: u64,
    /// IEEE CRC-32 of the payload bytes.
    pub crc32: u32,
}

impl FrameHeader {
    /// The embedded cache geometry.
    pub fn geometry(&self) -> Result<CacheConfig, CacheConfigError> {
        CacheConfig::with_geometry(self.line_bytes, self.num_sets, self.assoc)
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(MAGIC);
        out[4..8].copy_from_slice(&self.version.to_le_bytes());
        out[8..16].copy_from_slice(&self.line_bytes.to_le_bytes());
        out[16..24].copy_from_slice(&self.num_sets.to_le_bytes());
        out[24..28].copy_from_slice(&self.assoc.to_le_bytes());
        out[28..36].copy_from_slice(&self.count.to_le_bytes());
        out[36..40].copy_from_slice(&self.crc32.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8; HEADER_LEN]) -> io::Result<FrameHeader> {
        debug_assert_eq!(&bytes[0..4], MAGIC);
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(bad_data(format!("unsupported trace version {version}")));
        }
        Ok(FrameHeader {
            version,
            line_bytes: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            num_sets: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            assoc: u32::from_le_bytes(bytes[24..28].try_into().unwrap()),
            count: u64::from_le_bytes(bytes[28..36].try_into().unwrap()),
            crc32: u32::from_le_bytes(bytes[36..40].try_into().unwrap()),
        })
    }
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Streams a raw trace: each address as four big-endian bytes. Returns the
/// number of addresses written.
pub fn write_raw<W: Write>(w: &mut W, addrs: impl IntoIterator<Item = u32>) -> io::Result<u64> {
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut count = 0u64;
    for a in addrs {
        buf.extend_from_slice(&a.to_be_bytes());
        count += 1;
        if buf.len() >= 64 * 1024 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    Ok(count)
}

/// Streams a framed trace carrying `cfg`'s geometry: writes a placeholder
/// header, streams the payload while accumulating count and CRC, then seeks
/// back and patches the header. Returns the number of addresses written.
pub fn write_framed<W: Write + Seek>(
    w: &mut W,
    cfg: &CacheConfig,
    addrs: impl IntoIterator<Item = u32>,
) -> io::Result<u64> {
    let mut header = FrameHeader {
        version: VERSION,
        line_bytes: cfg.line_bytes(),
        num_sets: cfg.num_sets(),
        assoc: cfg.assoc(),
        count: 0,
        crc32: 0,
    };
    let start = w.stream_position()?;
    w.write_all(&header.encode())?;
    let mut crc = Crc32::new();
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut count = 0u64;
    for a in addrs {
        buf.extend_from_slice(&a.to_be_bytes());
        count += 1;
        if buf.len() >= 64 * 1024 {
            crc.update(&buf);
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    crc.update(&buf);
    w.write_all(&buf)?;
    header.count = count;
    header.crc32 = crc.finish();
    let end = w.stream_position()?;
    w.seek(SeekFrom::Start(start))?;
    w.write_all(&header.encode())?;
    w.seek(SeekFrom::Start(end))?;
    Ok(count)
}

/// The framed encoding of a trace, in memory (convenience for
/// fingerprinting and the serve trace job).
pub fn frame_bytes(cfg: &CacheConfig, addrs: &[u32]) -> Vec<u8> {
    let mut out = io::Cursor::new(Vec::with_capacity(
        HEADER_LEN + addrs.len() * BYTES_PER_ACCESS,
    ));
    write_framed(&mut out, cfg, addrs.iter().copied()).expect("in-memory write cannot fail");
    out.into_inner()
}

/// A streaming reader over either trace variant.
///
/// Construction sniffs the magic and, for framed traces, parses the header
/// — the geometry is available before any payload is read. Payload
/// addresses are then decoded in caller-sized chunks via
/// [`TraceReader::read_chunk`]; the whole trace is never materialised.
/// Framed traces verify the payload CRC and the address count at end of
/// stream; both variants reject a truncated trailing address.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    header: Option<FrameHeader>,
    /// Undecoded payload bytes carried across `read_chunk` calls (0–3, plus
    /// the sniffed prefix of a raw trace right after construction).
    pending: Vec<u8>,
    crc: Crc32,
    decoded: u64,
    finished: bool,
}

impl<R: Read> TraceReader<R> {
    /// Sniffs the stream head and prepares to decode.
    pub fn new(mut src: R) -> io::Result<TraceReader<R>> {
        let mut head = [0u8; 4];
        let got = read_up_to(&mut src, &mut head)?;
        if got == 4 && &head == MAGIC {
            let mut rest = [0u8; HEADER_LEN];
            rest[0..4].copy_from_slice(&head);
            src.read_exact(&mut rest[4..])
                .map_err(|_| bad_data("truncated trace header".to_string()))?;
            let header = FrameHeader::decode(&rest)?;
            Ok(TraceReader {
                src,
                header: Some(header),
                pending: Vec::new(),
                crc: Crc32::new(),
                decoded: 0,
                finished: false,
            })
        } else if got == 0 {
            Ok(TraceReader {
                src,
                header: None,
                pending: Vec::new(),
                crc: Crc32::new(),
                decoded: 0,
                finished: true,
            })
        } else {
            Ok(TraceReader {
                src,
                header: None,
                pending: head[..got].to_vec(),
                crc: Crc32::new(),
                decoded: 0,
                finished: false,
            })
        }
    }

    /// The frame header, when the trace is framed.
    pub fn header(&self) -> Option<&FrameHeader> {
        self.header.as_ref()
    }

    /// Addresses decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Decodes up to `max` further addresses into `out` (appended; the
    /// caller clears between chunks for fixed memory). Returns how many
    /// were appended; `0` means a clean end of trace. End-of-stream
    /// verification (CRC, count, no trailing partial address) happens on
    /// the call that observes EOF.
    pub fn read_chunk(&mut self, out: &mut Vec<u32>, max: usize) -> io::Result<usize> {
        if self.finished || max == 0 {
            return Ok(0);
        }
        let want = max * BYTES_PER_ACCESS;
        let mut bytes = std::mem::take(&mut self.pending);
        bytes.reserve(want.saturating_sub(bytes.len()));
        let mut chunk = [0u8; 16 * 1024];
        let mut eof = false;
        while bytes.len() < want {
            let cap = chunk.len().min(want - bytes.len());
            let got = read_up_to(&mut self.src, &mut chunk[..cap])?;
            if got == 0 {
                eof = true;
                break;
            }
            bytes.extend_from_slice(&chunk[..got]);
        }
        let whole = bytes.len() / BYTES_PER_ACCESS * BYTES_PER_ACCESS;
        if self.header.is_some() {
            self.crc.update(&bytes[..whole]);
        }
        for quad in bytes[..whole].chunks_exact(BYTES_PER_ACCESS) {
            out.push(u32::from_be_bytes(quad.try_into().unwrap()));
        }
        let n = whole / BYTES_PER_ACCESS;
        self.decoded += n as u64;
        self.pending = bytes[whole..].to_vec();
        if eof {
            self.finished = true;
            if !self.pending.is_empty() {
                return Err(bad_data(format!(
                    "truncated trace: {} trailing bytes after {} addresses",
                    self.pending.len(),
                    self.decoded
                )));
            }
            if let Some(h) = &self.header {
                if self.decoded != h.count {
                    return Err(bad_data(format!(
                        "trace count mismatch: header says {}, payload holds {}",
                        h.count, self.decoded
                    )));
                }
                if self.crc.finish() != h.crc32 {
                    return Err(bad_data("trace payload failed its crc32".to_string()));
                }
            }
        }
        Ok(n)
    }

    /// Decodes the remaining addresses into one vector (tests and small
    /// traces; replay streams through [`crate::replay_reader`] instead).
    pub fn read_to_end(mut self) -> io::Result<Vec<u32>> {
        let mut out = match self.header {
            Some(h) => Vec::with_capacity(h.count as usize),
            None => Vec::new(),
        };
        while self.read_chunk(&mut out, 1 << 16)? > 0 {}
        Ok(out)
    }
}

fn read_up_to<R: Read>(src: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::new(1024, 32, 2).unwrap()
    }

    #[test]
    fn crc_matches_store_vector() {
        // The classic check value for "123456789", fed in two pieces.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF43926);
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn raw_roundtrip() {
        let addrs: Vec<u32> = (0..1000).map(|i| i * 37).collect();
        let mut bytes = Vec::new();
        assert_eq!(write_raw(&mut bytes, addrs.iter().copied()).unwrap(), 1000);
        assert_eq!(bytes.len(), 4000);
        let r = TraceReader::new(&bytes[..]).unwrap();
        assert!(r.header().is_none());
        assert_eq!(r.read_to_end().unwrap(), addrs);
    }

    #[test]
    fn framed_roundtrip_and_header() {
        let addrs: Vec<u32> = (0..513).map(|i| i * 101 + 7).collect();
        let bytes = frame_bytes(&cfg(), &addrs);
        assert_eq!(bytes.len(), HEADER_LEN + addrs.len() * 4);
        let r = TraceReader::new(&bytes[..]).unwrap();
        let h = *r.header().expect("framed");
        assert_eq!(h.count, 513);
        assert_eq!(h.geometry().unwrap(), cfg());
        assert_eq!(r.read_to_end().unwrap(), addrs);
        // Re-framing the decoded addresses reproduces the bytes exactly.
        let again = frame_bytes(&cfg(), &addrs);
        assert_eq!(bytes, again);
    }

    #[test]
    fn chunked_reads_never_materialise() {
        let addrs: Vec<u32> = (0..10_000).map(|i| i ^ 0xABCD).collect();
        let bytes = frame_bytes(&cfg(), &addrs);
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut seen = Vec::new();
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if r.read_chunk(&mut buf, 777).unwrap() == 0 {
                break;
            }
            seen.extend_from_slice(&buf);
        }
        assert_eq!(seen, addrs);
    }

    #[test]
    fn empty_traces() {
        let r = TraceReader::new(&[][..]).unwrap();
        assert_eq!(r.read_to_end().unwrap(), Vec::<u32>::new());
        let bytes = frame_bytes(&cfg(), &[]);
        let r = TraceReader::new(&bytes[..]).unwrap();
        assert_eq!(r.header().unwrap().count, 0);
        assert_eq!(r.read_to_end().unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn corruption_is_detected() {
        let addrs: Vec<u32> = (0..64).collect();
        // Flipped payload byte: CRC failure.
        let mut bytes = frame_bytes(&cfg(), &addrs);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(TraceReader::new(&bytes[..]).unwrap().read_to_end().is_err());
        // Truncated payload: count mismatch.
        let bytes = frame_bytes(&cfg(), &addrs);
        let cut = &bytes[..bytes.len() - 8];
        assert!(TraceReader::new(cut).unwrap().read_to_end().is_err());
        // Trailing partial address, raw variant.
        let mut raw = Vec::new();
        write_raw(&mut raw, addrs.iter().copied()).unwrap();
        raw.push(0xFF);
        assert!(TraceReader::new(&raw[..]).unwrap().read_to_end().is_err());
        // Truncated header.
        let bytes = frame_bytes(&cfg(), &addrs);
        assert!(TraceReader::new(&bytes[..HEADER_LEN - 3]).is_err());
        // Future version.
        let mut bytes = frame_bytes(&cfg(), &addrs);
        bytes[4] = 9;
        assert!(TraceReader::new(&bytes[..]).is_err());
    }
}
