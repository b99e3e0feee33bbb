//! The content-addressed result store: an in-memory LRU backed by an
//! optional append-only on-disk log with crash-safe compaction.
//!
//! Keys are the 128-bit job [`Fingerprint`]s of `engine::job_fingerprint`;
//! values are the canonical report payloads. The disk log lives at
//! `<dir>/results.cmes` and is a sequence of frames:
//!
//! ```text
//! "CMES" | fingerprint (16 B LE) | payload len (u32 LE) | crc32 (u32 LE) | payload
//! ```
//!
//! On open the log is scanned once. A truncated or garbled tail (e.g. the
//! process died mid-append) is cut off — the file is truncated to the last
//! frame boundary so later appends stay well-framed. A complete frame whose
//! payload fails its CRC is *skipped* (not loaded); the entry is simply
//! recomputed on next demand and re-appended. Either way corruption costs
//! one recomputation, never a wrong answer.
//!
//! ## Dead bytes and compaction
//!
//! Skipped corrupt frames and superseded duplicates stay on disk as *dead
//! bytes* (tracked as `disk_bytes − live_bytes`, where live is the latest
//! valid frame per key). [`Store::compact`] reclaims them with the classic
//! crash-safe protocol: rewrite the surviving frames to `results.cmes.tmp`,
//! fsync, atomically rename over the log, then swap the in-memory handle.
//! Every step can fail (or be failed, by an injected crash point) and the
//! disk stays consistent: before the rename the original log is untouched;
//! after it the compacted log *is* the log, and [`Store`] resyncs its
//! in-memory view from disk truth on any error. Compaction runs
//! automatically from [`Store::put`] once dead bytes cross
//! [`AUTO_COMPACT_RATIO`] of a non-trivial log, and on demand via the
//! daemon's `compact` verb.
//!
//! A failed append self-heals the same way: the log is truncated back to
//! the pre-append frame boundary (discarding the torn bytes), and if even
//! that fails the store degrades to memory-only rather than risk writing
//! after an unknown tail.

use crate::fault::{self, FaultSite, Faults};
use crate::lru::Lru;
use cme_ir::Fingerprint;
use cme_trace::Crc32;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8; 4] = b"CMES";
const HEADER_LEN: usize = 4 + 16 + 4 + 4;

/// Auto-compaction fires when dead bytes exceed this share of the log...
pub const AUTO_COMPACT_RATIO: f64 = 0.5;
/// ...and the log is at least this big (tiny logs aren't worth a rewrite).
pub const AUTO_COMPACT_MIN_BYTES: u64 = 4096;

/// The IEEE CRC-32 of a frame payload: the trace format's checksum, in
/// one shot.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// One cached result.
#[derive(Debug, Clone)]
pub struct StoredResult {
    /// The canonical report payload (spliced verbatim into responses).
    pub payload: Arc<String>,
    /// Whole-program miss ratio, extracted so sweeps can reuse hits without
    /// re-parsing the payload.
    pub miss_ratio: f64,
    /// Points classified when the result was computed.
    pub points: u64,
    /// The report's exact miss count (`None` for estimates and traces), so
    /// a sweep cell answers its `misses` without parsing the payload.
    pub exact_misses: Option<u64>,
}

#[derive(Debug)]
struct Inner {
    map: Lru<StoredResult>,
    /// Fingerprint → byte length of its latest *valid* frame on disk
    /// (avoids duplicate appends and funds the live-bytes gauge).
    on_disk: HashMap<u128, u64>,
    file: Option<File>,
    /// Current size of the disk log in bytes (0 for in-memory stores).
    disk_bytes: u64,
    /// Bytes occupied by the latest valid frame of each key.
    live_bytes: u64,
}

/// Statistics from opening an on-disk log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Frames loaded successfully.
    pub loaded: usize,
    /// Complete frames dropped for CRC mismatch.
    pub corrupt: usize,
    /// Bytes cut off the tail (truncated/garbled final frame).
    pub truncated_bytes: u64,
}

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Log size before the rewrite.
    pub before_bytes: u64,
    /// Log size after the rewrite.
    pub after_bytes: u64,
    /// Frames surviving into the compacted log.
    pub frames: usize,
    /// Dead bytes reclaimed.
    pub dropped_bytes: u64,
}

/// The store. Cheap to share (`Arc` internally via the caller).
#[derive(Debug)]
pub struct Store {
    inner: Mutex<Inner>,
    path: Option<PathBuf>,
    load_stats: LoadStats,
    faults: Faults,
    /// Appends that failed and were healed by truncating the tail.
    pub append_errors: AtomicU64,
    /// Compaction passes that completed.
    pub compactions: AtomicU64,
    /// Compaction passes that failed (store resynced from disk).
    pub compaction_errors: AtomicU64,
}

/// The parsed shape of a log: surviving frames in first-seen key order,
/// each the latest valid frame for its key.
struct ScanResult {
    /// (fingerprint, raw frame bytes) for every surviving key.
    frames: Vec<(u128, Vec<u8>)>,
    stats: LoadStats,
    /// Total bytes of well-formed prefix (the truncation boundary).
    valid_len: u64,
}

/// Scans raw log bytes into surviving frames. Shared by open, compaction,
/// and resync so all three agree on what the log *means*.
fn scan_log(bytes: &[u8]) -> ScanResult {
    let mut frames: Vec<(u128, Vec<u8>)> = Vec::new();
    let mut index: HashMap<u128, usize> = HashMap::new();
    let mut stats = LoadStats::default();
    let mut pos = 0usize;
    loop {
        if pos == bytes.len() {
            break; // clean end
        }
        if pos + HEADER_LEN > bytes.len() || &bytes[pos..pos + 4] != MAGIC {
            stats.truncated_bytes = (bytes.len() - pos) as u64;
            break;
        }
        let fp = u128::from_le_bytes(bytes[pos + 4..pos + 20].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[pos + 20..pos + 24].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 24..pos + 28].try_into().unwrap());
        let body_start = pos + HEADER_LEN;
        if body_start + len > bytes.len() {
            stats.truncated_bytes = (bytes.len() - pos) as u64;
            break;
        }
        let frame = &bytes[pos..body_start + len];
        let body = &bytes[body_start..body_start + len];
        pos = body_start + len;
        if crc32(body) != crc || std::str::from_utf8(body).is_err() {
            stats.corrupt += 1;
            continue; // well-framed but damaged: dead bytes until compaction
        }
        match index.get(&fp) {
            Some(&at) => frames[at].1 = frame.to_vec(), // superseded: keep latest
            None => {
                index.insert(fp, frames.len());
                frames.push((fp, frame.to_vec()));
                stats.loaded += 1;
            }
        }
    }
    ScanResult {
        frames,
        stats,
        valid_len: pos as u64,
    }
}

/// Encodes one frame.
fn encode_frame(fp: u128, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(MAGIC);
    frame.extend_from_slice(&fp.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

impl Store {
    /// An in-memory-only store holding at most `capacity` entries.
    pub fn in_memory(capacity: usize) -> Store {
        Store {
            inner: Mutex::new(Inner {
                map: Lru::new(capacity),
                on_disk: HashMap::new(),
                file: None,
                disk_bytes: 0,
                live_bytes: 0,
            }),
            path: None,
            load_stats: LoadStats::default(),
            faults: None,
            append_errors: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_errors: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) a disk-backed store under `dir`. At most
    /// `capacity` answers are held in memory; from a log holding more, the
    /// most recently written load.
    pub fn open(dir: &Path, capacity: usize) -> io::Result<Store> {
        Store::open_with(dir, capacity, None)
    }

    /// [`Store::open`] with a fault plan threaded through disk I/O.
    pub fn open_with(dir: &Path, capacity: usize, faults: Faults) -> io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("results.cmes");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let scan = scan_log(&bytes);
        if scan.stats.truncated_bytes > 0 {
            // Cut the garbled tail so later appends stay well-framed.
            file.set_len(scan.valid_len)?;
        }
        file.seek(SeekFrom::End(0))?;
        let disk_bytes = scan.valid_len;

        let mut map = Lru::new(capacity);
        let mut on_disk = HashMap::new();
        let mut live_bytes = 0u64;
        for (fp, frame) in &scan.frames {
            let text = std::str::from_utf8(&frame[HEADER_LEN..]).unwrap();
            map.insert(*fp, extract_summary(text));
            on_disk.insert(*fp, frame.len() as u64);
            live_bytes += frame.len() as u64;
        }

        Ok(Store {
            inner: Mutex::new(Inner {
                map,
                on_disk,
                file: Some(file),
                disk_bytes,
                live_bytes,
            }),
            path: Some(path),
            load_stats: scan.stats,
            faults,
            append_errors: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_errors: AtomicU64::new(0),
        })
    }

    /// What the opening scan found (zeros for in-memory stores).
    pub fn load_stats(&self) -> LoadStats {
        self.load_stats
    }

    /// The on-disk log path, if disk-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        fault::lock_recover(&self.inner).map.len()
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the on-disk log in bytes (0 for in-memory stores).
    pub fn disk_bytes(&self) -> u64 {
        fault::lock_recover(&self.inner).disk_bytes
    }

    /// Live frames in the on-disk log — latest valid frame per key
    /// (0 for in-memory stores).
    pub fn disk_frames(&self) -> usize {
        fault::lock_recover(&self.inner).on_disk.len()
    }

    /// Bytes of the log occupied by live frames.
    pub fn live_bytes(&self) -> u64 {
        fault::lock_recover(&self.inner).live_bytes
    }

    /// Bytes of the log occupied by corrupt or superseded frames —
    /// reclaimable by [`Store::compact`].
    pub fn dead_bytes(&self) -> u64 {
        let inner = fault::lock_recover(&self.inner);
        inner.disk_bytes.saturating_sub(inner.live_bytes)
    }

    /// Looks up a result, refreshing its LRU position.
    pub fn get(&self, fp: Fingerprint) -> Option<StoredResult> {
        fault::lock_recover(&self.inner).map.get(fp.0).cloned()
    }

    /// Inserts a result, evicting the least-recently-used entry past
    /// capacity and appending a frame to the disk log (once per key). A
    /// failed append is healed by truncating back to the pre-append
    /// boundary; dead bytes past [`AUTO_COMPACT_RATIO`] trigger an inline
    /// compaction.
    pub fn put(&self, fp: Fingerprint, result: StoredResult) {
        let mut inner = fault::lock_recover(&self.inner);
        if inner.file.is_some() && !inner.on_disk.contains_key(&fp.0) {
            let frame = encode_frame(fp.0, result.payload.as_bytes());
            let offset = inner.disk_bytes;
            let file = inner.file.as_mut().unwrap();
            match fault::shim_append(file, &frame, &self.faults) {
                Ok(()) => {
                    inner.on_disk.insert(fp.0, frame.len() as u64);
                    inner.disk_bytes += frame.len() as u64;
                    inner.live_bytes += frame.len() as u64;
                }
                Err(_) => {
                    // Heal: discard whatever partial bytes landed. If even
                    // the truncate fails the tail is unknowable — degrade
                    // to memory-only rather than corrupt the log.
                    self.append_errors.fetch_add(1, Ordering::Relaxed);
                    let healed = file
                        .set_len(offset)
                        .and_then(|()| file.seek(SeekFrom::Start(offset)).map(|_| ()));
                    if healed.is_err() {
                        inner.file = None;
                    }
                }
            }
        }

        inner.map.insert(fp.0, result);

        let dead = inner.disk_bytes.saturating_sub(inner.live_bytes);
        if inner.file.is_some()
            && inner.disk_bytes >= AUTO_COMPACT_MIN_BYTES
            && (dead as f64) >= AUTO_COMPACT_RATIO * inner.disk_bytes as f64
        {
            let _ = self.compact_locked(&mut inner);
        }
    }

    /// Rewrites the log to just the latest valid frame per key: write temp,
    /// fsync, atomic rename, swap the in-memory view. On *any* failure the
    /// in-memory view is resynced from the path, which is consistent at
    /// every step — the original log until the rename commits, the
    /// compacted log after.
    pub fn compact(&self) -> io::Result<CompactStats> {
        let mut inner = fault::lock_recover(&self.inner);
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut Inner) -> io::Result<CompactStats> {
        let path = match (&inner.file, &self.path) {
            (Some(_), Some(p)) => p.clone(),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "store is memory-only; nothing to compact",
                ))
            }
        };
        match self.compact_steps(inner, &path) {
            Ok(stats) => {
                self.compactions.fetch_add(1, Ordering::Relaxed);
                Ok(stats)
            }
            Err(e) => {
                // Disk truth is consistent; the in-memory view may not be
                // (stale handle after a committed rename, half-applied
                // bookkeeping). Rebuild the view from the path.
                self.compaction_errors.fetch_add(1, Ordering::Relaxed);
                self.resync_locked(inner, &path);
                Err(e)
            }
        }
    }

    /// The fallible body of a compaction pass, with an injected crash point
    /// at every step.
    fn compact_steps(&self, inner: &mut Inner, path: &Path) -> io::Result<CompactStats> {
        let before_bytes = inner.disk_bytes;
        let bytes = fault::shim_read_to_end(inner.file.as_mut().unwrap(), &self.faults)?;
        let scan = scan_log(&bytes);

        let tmp_path = path.with_extension("cmes.tmp");
        let written: io::Result<File> = (|| {
            let mut tmp = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?;
            for (i, (_, frame)) in scan.frames.iter().enumerate() {
                if i == scan.frames.len() / 2
                    && fault::fires(&self.faults, FaultSite::CompactTempWrite)
                {
                    // A genuine partial temp file, like a crash mid-write.
                    let _ = tmp.write_all(&frame[..frame.len() / 2]);
                    return Err(fault::injected_err("compact: temp write"));
                }
                tmp.write_all(frame)?;
            }
            if fault::fires(&self.faults, FaultSite::CompactFsync) {
                return Err(fault::injected_err("compact: fsync"));
            }
            tmp.sync_all()?;
            Ok(tmp)
        })();
        let tmp = match written {
            Ok(tmp) => tmp,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp_path);
                return Err(e);
            }
        };
        drop(tmp);

        if fault::fires(&self.faults, FaultSite::CompactRename) {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(fault::injected_err("compact: rename"));
        }
        std::fs::rename(&tmp_path, path)?;
        // The rename has committed: from here the compacted log IS the log,
        // and any failure must resync rather than roll back.
        if fault::fires(&self.faults, FaultSite::CompactSwap) {
            return Err(fault::injected_err("compact: swap"));
        }

        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let after_bytes = file.seek(SeekFrom::End(0))?;
        let mut on_disk = HashMap::new();
        let mut live_bytes = 0u64;
        for (fp, frame) in &scan.frames {
            on_disk.insert(*fp, frame.len() as u64);
            live_bytes += frame.len() as u64;
        }
        inner.file = Some(file);
        inner.on_disk = on_disk;
        inner.disk_bytes = after_bytes;
        inner.live_bytes = live_bytes;
        Ok(CompactStats {
            before_bytes,
            after_bytes,
            frames: scan.frames.len(),
            dropped_bytes: before_bytes.saturating_sub(after_bytes),
        })
    }

    /// Rebuilds the disk-facing view (handle, on-disk index, byte gauges)
    /// from whatever is at `path` right now. The in-memory LRU is kept —
    /// its payloads are valid results regardless of what disk says.
    fn resync_locked(&self, inner: &mut Inner, path: &Path) {
        inner.file = None;
        inner.on_disk = HashMap::new();
        inner.disk_bytes = 0;
        inner.live_bytes = 0;
        let reopened: io::Result<()> = (|| {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let scan = scan_log(&bytes);
            if scan.stats.truncated_bytes > 0 {
                file.set_len(scan.valid_len)?;
            }
            file.seek(SeekFrom::Start(scan.valid_len))?;
            for (fp, frame) in &scan.frames {
                inner.on_disk.insert(*fp, frame.len() as u64);
                inner.live_bytes += frame.len() as u64;
            }
            inner.disk_bytes = scan.valid_len;
            inner.file = Some(file);
            Ok(())
        })();
        if reopened.is_err() {
            // Can't even reopen: degrade to memory-only. Results stay
            // correct; persistence resumes on the next daemon start.
            inner.file = None;
            inner.on_disk = HashMap::new();
            inner.disk_bytes = 0;
            inner.live_bytes = 0;
        }
    }
}

/// The stored result of a payload read back from the log: its
/// `miss_ratio`, total `points` and `exact_misses`, parsed once on open
/// (the payload is our own canonical JSON).
fn extract_summary(text: &str) -> StoredResult {
    use crate::json::Json;
    let v = Json::parse(text).ok();
    let field = |key: &str| v.as_ref().and_then(|v| v.get(key));
    StoredResult {
        miss_ratio: field("miss_ratio").and_then(Json::as_f64).unwrap_or(0.0),
        points: field("points").and_then(Json::as_u64).unwrap_or(0),
        exact_misses: field("exact_misses").and_then(Json::as_u64),
        payload: Arc::new(text.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    fn result(text: &str) -> StoredResult {
        StoredResult {
            payload: Arc::new(text.to_string()),
            miss_ratio: 0.5,
            points: 10,
            exact_misses: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cme-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn lru_evicts_oldest() {
        let s = Store::in_memory(2);
        s.put(fp(1), result("one"));
        s.put(fp(2), result("two"));
        assert!(s.get(fp(1)).is_some()); // refresh 1
        s.put(fp(3), result("three")); // evicts 2
        assert!(s.get(fp(2)).is_none());
        assert!(s.get(fp(1)).is_some());
        assert!(s.get(fp(3)).is_some());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn disk_roundtrip() {
        let dir = tmp_dir("rt");
        let exact = r#"{"miss_ratio":0.25,"points":40,"exact_misses":10}"#;
        let estimate = r#"{"miss_ratio":0.75,"points":40,"exact_misses":null}"#;
        {
            let s = Store::open(&dir, 16).unwrap();
            s.put(fp(7), result(exact));
            s.put(fp(8), result(estimate));
        }
        let s = Store::open(&dir, 16).unwrap();
        assert_eq!(s.load_stats().loaded, 2);
        assert_eq!(s.load_stats().corrupt, 0);
        let r = s.get(fp(7)).expect("persisted");
        assert_eq!(&*r.payload, exact);
        assert_eq!(r.miss_ratio, 0.25);
        assert_eq!(r.points, 40);
        assert_eq!(r.exact_misses, Some(10), "reopen parses the exact count");
        assert_eq!(s.get(fp(8)).unwrap().exact_misses, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopening a log that holds more answers than the capacity keeps the
    /// most recently written in memory; the log keeps them all.
    #[test]
    fn reopen_holds_at_most_capacity() {
        let dir = tmp_dir("cap");
        let payload = r#"{"miss_ratio":0.5,"points":10}"#;
        {
            let s = Store::open(&dir, 16).unwrap();
            for n in 1..=3 {
                s.put(fp(n), result(payload));
            }
        }
        let s = Store::open(&dir, 2).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.disk_frames(), 3);
        assert!(s.get(fp(1)).is_none());
        assert!(s.get(fp(3)).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_stats_track_appends_and_reopen() {
        let dir = tmp_dir("ds");
        let payload = r#"{"miss_ratio":0.5,"points":10}"#;
        let frame_len = (HEADER_LEN + payload.len()) as u64;
        {
            let s = Store::open(&dir, 16).unwrap();
            assert_eq!(s.disk_bytes(), 0);
            assert_eq!(s.disk_frames(), 0);
            s.put(fp(1), result(payload));
            s.put(fp(2), result(payload));
            // A repeat put of a key already on disk appends nothing.
            s.put(fp(1), result(payload));
            assert_eq!(s.disk_bytes(), 2 * frame_len);
            assert_eq!(s.disk_frames(), 2);
            assert_eq!(s.live_bytes(), 2 * frame_len);
            assert_eq!(s.dead_bytes(), 0);
        }
        let s = Store::open(&dir, 16).unwrap();
        assert_eq!(s.disk_bytes(), 2 * frame_len);
        assert_eq!(s.disk_frames(), 2);

        let mem = Store::in_memory(4);
        mem.put(fp(3), result(payload));
        assert_eq!(mem.disk_bytes(), 0);
        assert_eq!(mem.disk_frames(), 0);
        assert!(mem.compact().is_err(), "memory-only compaction is refused");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Corrupting a frame's payload makes its bytes dead; compaction
    /// reclaims them and the compacted log round-trips.
    #[test]
    fn compaction_reclaims_corrupt_frames() {
        let dir = tmp_dir("compact");
        let payload_a = r#"{"miss_ratio":0.25,"points":40}"#;
        let payload_b = r#"{"miss_ratio":0.75,"points":40}"#;
        {
            let s = Store::open(&dir, 16).unwrap();
            s.put(fp(1), result(payload_a));
            s.put(fp(2), result(payload_b));
        }
        // Flip a payload byte of the first frame.
        let path = dir.join("results.cmes");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let s = Store::open(&dir, 16).unwrap();
        assert_eq!(s.load_stats().loaded, 1);
        assert_eq!(s.load_stats().corrupt, 1);
        let frame_len = (HEADER_LEN + payload_a.len()) as u64;
        assert_eq!(s.dead_bytes(), frame_len, "the corrupt frame is dead");

        let stats = s.compact().unwrap();
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.dropped_bytes, frame_len);
        assert_eq!(s.dead_bytes(), 0);
        assert_eq!(s.disk_bytes(), frame_len);

        // Appends after compaction land in the new file and survive reopen.
        s.put(fp(3), result(payload_a));
        drop(s);
        let s = Store::open(&dir, 16).unwrap();
        assert_eq!(s.load_stats().loaded, 2);
        assert_eq!(s.load_stats().corrupt, 0);
        assert_eq!(&*s.get(fp(2)).unwrap().payload, payload_b);
        assert_eq!(&*s.get(fp(3)).unwrap().payload, payload_a);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn append self-heals: the log is truncated back to the previous
    /// frame boundary, the store keeps serving, and a reopen sees only
    /// whole frames.
    #[test]
    fn torn_append_heals_to_frame_boundary() {
        let dir = tmp_dir("torn");
        let payload = r#"{"miss_ratio":0.5,"points":10}"#;
        let frame_len = (HEADER_LEN + payload.len()) as u64;
        let faults: Faults = Some(Arc::new(
            FaultPlan::parse("seed=3,torn-write=1000x1").unwrap(),
        ));
        let s = Store::open_with(&dir, 16, faults).unwrap();
        s.put(fp(1), result(payload)); // torn: healed, nothing on disk
        assert_eq!(s.append_errors.load(Ordering::Relaxed), 1);
        assert_eq!(s.disk_bytes(), 0);
        assert!(s.get(fp(1)).is_some(), "memory entry survives the tear");
        s.put(fp(2), result(payload)); // cap spent: lands whole
        assert_eq!(s.disk_bytes(), frame_len);

        let s2 = Store::open(&dir, 16).unwrap();
        assert_eq!(s2.load_stats().loaded, 1);
        assert_eq!(s2.load_stats().truncated_bytes, 0, "no torn tail on disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every injected compaction crash point leaves the store consistent:
    /// reads still work, a reopen of the directory sees every stored
    /// payload byte-identical, and a later compaction succeeds.
    #[test]
    fn compaction_crash_points_recover() {
        for site in [
            "compact-temp",
            "compact-fsync",
            "compact-rename",
            "compact-swap",
        ] {
            let dir = tmp_dir(&format!("crash-{site}"));
            let payloads: Vec<String> = (0..6)
                .map(|i| format!(r#"{{"miss_ratio":0.{i}25,"points":{i}0}}"#))
                .collect();
            {
                let s = Store::open(&dir, 16).unwrap();
                for (i, p) in payloads.iter().enumerate() {
                    s.put(fp(i as u128 + 1), result(p));
                }
            }
            // Kill one frame so compaction has something to do.
            let path = dir.join("results.cmes");
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[HEADER_LEN + 2] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();

            let faults: Faults = Some(Arc::new(
                FaultPlan::parse(&format!("seed=9,{site}=1000x1")).unwrap(),
            ));
            let s = Store::open_with(&dir, 16, faults).unwrap();
            let err = s.compact().expect_err("crash point must fail the pass");
            assert!(err.to_string().contains("injected"), "{site}: {err}");
            assert_eq!(s.compaction_errors.load(Ordering::Relaxed), 1);

            // The store still answers (frame 1 was corrupted above).
            for (i, p) in payloads.iter().enumerate().skip(1) {
                assert_eq!(
                    &*s.get(fp(i as u128 + 1)).expect("entry survives").payload,
                    p,
                    "{site}: payload {i} after failed compaction"
                );
            }
            // The crash-point cap is spent: the retry completes.
            let stats = s.compact().expect("second pass succeeds");
            assert_eq!(stats.frames, 5, "{site}");
            assert_eq!(s.dead_bytes(), 0, "{site}");

            // Disk truth: a fresh open loads all five survivors, clean.
            drop(s);
            let s = Store::open(&dir, 16).unwrap();
            assert_eq!(s.load_stats().loaded, 5, "{site}");
            assert_eq!(s.load_stats().corrupt, 0, "{site}");
            assert_eq!(s.load_stats().truncated_bytes, 0, "{site}");
            for (i, p) in payloads.iter().enumerate().skip(1) {
                assert_eq!(&*s.get(fp(i as u128 + 1)).unwrap().payload, p, "{site}");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Superseded frames (legacy duplicate appends) count as dead and the
    /// latest content wins on open.
    #[test]
    fn superseded_frames_are_dead_and_latest_wins() {
        let dir = tmp_dir("dup");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.cmes");
        let old = br#"{"miss_ratio":0.1,"points":1}"#;
        let new = br#"{"miss_ratio":0.9,"points":9}"#;
        let mut bytes = encode_frame(42, old);
        bytes.extend_from_slice(&encode_frame(42, new));
        std::fs::write(&path, &bytes).unwrap();

        let s = Store::open(&dir, 16).unwrap();
        assert_eq!(s.load_stats().loaded, 1);
        assert_eq!(s.disk_frames(), 1);
        assert_eq!(s.dead_bytes(), (HEADER_LEN + old.len()) as u64);
        assert_eq!(
            &*s.get(fp(42)).unwrap().payload,
            std::str::from_utf8(new).unwrap()
        );

        let stats = s.compact().unwrap();
        assert_eq!(stats.frames, 1);
        assert_eq!(s.dead_bytes(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Auto-compaction kicks in from `put` once dead bytes dominate a
    /// non-trivial log.
    #[test]
    fn auto_compaction_triggers_on_dead_ratio() {
        let dir = tmp_dir("auto");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.cmes");
        // A log that is one live frame plus enough corrupt bulk to cross
        // both the ratio and the size floor.
        let live = br#"{"miss_ratio":0.5,"points":10}"#;
        let mut bytes = encode_frame(1, live);
        let big = vec![b'x'; AUTO_COMPACT_MIN_BYTES as usize];
        let mut corrupt = encode_frame(2, &big);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF; // break the CRC
        bytes.extend_from_slice(&corrupt);
        std::fs::write(&path, &bytes).unwrap();

        let s = Store::open(&dir, 16).unwrap();
        assert!(s.dead_bytes() > AUTO_COMPACT_MIN_BYTES);
        s.put(fp(3), result(r#"{"miss_ratio":0.5,"points":10}"#));
        assert_eq!(
            s.compactions.load(Ordering::Relaxed),
            1,
            "put crossed the dead-ratio trigger"
        );
        assert_eq!(s.dead_bytes(), 0);
        assert_eq!(s.disk_frames(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
