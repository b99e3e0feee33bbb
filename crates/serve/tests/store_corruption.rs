//! On-disk store robustness: corrupt and truncated entries are detected by
//! the length+CRC framing, skipped on load, and transparently recomputed.

use cme_cache::CacheConfig;
use cme_ir::{Fingerprint, LinExpr, ProgramBuilder, SNode, SRef};
use cme_serve::engine::{Engine, Job};
use cme_serve::store::{Store, StoredResult};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

const HEADER_LEN: u64 = 4 + 16 + 4 + 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cme-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn payload(i: usize) -> String {
    format!(
        r#"{{"miss_ratio":0.5,"points":{},"tag":"entry-{i}"}}"#,
        i * 10
    )
}

fn result(i: usize) -> StoredResult {
    StoredResult {
        payload: Arc::new(payload(i)),
        miss_ratio: 0.5,
        points: (i * 10) as u64,
        exact_misses: None,
    }
}

/// Flips one byte at `offset` in the store log.
fn flip_byte(path: &std::path::Path, offset: u64) {
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    use std::io::Read;
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&[b[0] ^ 0xFF]).unwrap();
}

#[test]
fn corrupt_entry_is_skipped_and_truncated_tail_cut() {
    let dir = temp_dir("corrupt");
    {
        let s = Store::open(&dir, 16).unwrap();
        for i in 1..=3 {
            s.put(Fingerprint(i as u128), result(i));
        }
    }
    let log = dir.join("results.cmes");

    // Corrupt one payload byte inside the SECOND frame.
    let frame1_len = HEADER_LEN + payload(1).len() as u64;
    flip_byte(&log, frame1_len + HEADER_LEN + 3);

    // Truncate the tail mid-way through the THIRD frame (simulated crash
    // during append).
    let frame2_len = HEADER_LEN + payload(2).len() as u64;
    let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    f.set_len(frame1_len + frame2_len + HEADER_LEN + 4).unwrap();
    drop(f);

    let s = Store::open(&dir, 16).unwrap();
    let stats = s.load_stats();
    assert_eq!(stats.loaded, 1, "only the intact entry loads");
    assert_eq!(stats.corrupt, 1, "the flipped-CRC entry is skipped");
    assert!(stats.truncated_bytes > 0, "the partial tail frame is cut");
    assert!(s.get(Fingerprint(1)).is_some());
    assert!(s.get(Fingerprint(2)).is_none(), "corrupt entry must miss");
    assert!(s.get(Fingerprint(3)).is_none(), "truncated entry must miss");

    // Recompute + re-append works: the log stays well-framed after the cut.
    // The damaged frame itself stays in the append-only log and is skipped
    // again on every scan; the fresh frame after it wins.
    s.put(Fingerprint(2), result(2));
    s.put(Fingerprint(3), result(3));
    drop(s);
    let s = Store::open(&dir, 16).unwrap();
    assert_eq!(s.load_stats().loaded, 3);
    assert_eq!(
        s.load_stats().corrupt,
        1,
        "stale damaged frame still skipped"
    );
    assert_eq!(s.load_stats().truncated_bytes, 0);
    assert_eq!(&**s.get(Fingerprint(2)).unwrap().payload, payload(2));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbled_header_truncates_from_there() {
    let dir = temp_dir("garble");
    {
        let s = Store::open(&dir, 16).unwrap();
        s.put(Fingerprint(1), result(1));
        s.put(Fingerprint(2), result(2));
    }
    let log = dir.join("results.cmes");
    // Smash the magic of the second frame: everything from there is dropped.
    let frame1_len = HEADER_LEN + payload(1).len() as u64;
    flip_byte(&log, frame1_len);

    let s = Store::open(&dir, 16).unwrap();
    assert_eq!(s.load_stats().loaded, 1);
    assert!(s.load_stats().truncated_bytes > 0);
    assert!(s.get(Fingerprint(1)).is_some());
    assert!(s.get(Fingerprint(2)).is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash-at-any-moment coverage: truncating a three-frame log at EVERY
/// byte offset must reopen cleanly, keep exactly the frames that were
/// fully on disk before the cut, and leave the log appendable.
#[test]
fn truncation_at_every_byte_offset_preserves_whole_frames() {
    let dir = temp_dir("trunc-sweep");
    {
        let s = Store::open(&dir, 16).unwrap();
        for i in 1..=3 {
            s.put(Fingerprint(i as u128), result(i));
        }
    }
    let log = dir.join("results.cmes");
    let full = std::fs::read(&log).unwrap();
    // Cumulative end offset of each frame.
    let ends: Vec<u64> = (1..=3)
        .scan(0u64, |acc, i| {
            *acc += HEADER_LEN + payload(i).len() as u64;
            Some(*acc)
        })
        .collect();
    assert_eq!(*ends.last().unwrap(), full.len() as u64);

    for cut in 0..=full.len() {
        std::fs::write(&log, &full[..cut]).unwrap();
        let s = Store::open(&dir, 16).unwrap();
        let stats = s.load_stats();
        let whole = ends.iter().filter(|&&e| e <= cut as u64).count();
        assert_eq!(stats.loaded, whole, "cut at byte {cut}");
        assert_eq!(
            stats.corrupt, 0,
            "cut at byte {cut}: truncation is not corruption"
        );
        for i in 1..=3usize {
            assert_eq!(
                s.get(Fingerprint(i as u128)).is_some(),
                ends[i - 1] <= cut as u64,
                "cut at byte {cut}, frame {i}"
            );
        }
        // The reopened log must still take appends that survive a reopen.
        s.put(Fingerprint(99), result(9));
        drop(s);
        let s = Store::open(&dir, 16).unwrap();
        assert_eq!(s.load_stats().loaded, whole + 1, "cut at byte {cut}");
        assert_eq!(
            &**s.get(Fingerprint(99)).unwrap().payload,
            payload(9),
            "cut at byte {cut}: fresh append readable after reopen"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// End to end through the engine: a damaged stored result is recomputed on
/// the next query and the payload comes out byte-identical to the original.
#[test]
fn engine_recomputes_after_corruption() {
    let dir = temp_dir("engine-recompute");

    let mut b = ProgramBuilder::new("recompute");
    b.array("A", &[128], 8);
    b.push(SNode::loop_(
        "I",
        1,
        128,
        vec![SNode::reads_only(vec![SRef::new(
            "A",
            vec![LinExpr::var("I")],
        )])],
    ));
    let p = b.build().unwrap();
    let cfg = CacheConfig::new(1024, 32, 2).unwrap();

    let original = {
        let engine = Engine::new(Store::open(&dir, 16).unwrap());
        let out = engine.run(&Job::exact(&p, cfg)).unwrap();
        assert!(!out.from_store);
        out.payload
    };

    // Damage the stored payload on disk.
    flip_byte(&dir.join("results.cmes"), HEADER_LEN + 5);

    let engine = Engine::new(Store::open(&dir, 16).unwrap());
    assert_eq!(engine.store().load_stats().corrupt, 1);
    let recomputed = engine.run(&Job::exact(&p, cfg)).unwrap();
    assert!(!recomputed.from_store, "corrupt entry must be recomputed");
    assert_eq!(
        &*recomputed.payload, &*original,
        "recompute is byte-identical"
    );
    // And it is stored again.
    let hot = engine.run(&Job::exact(&p, cfg)).unwrap();
    assert!(hot.from_store);

    std::fs::remove_dir_all(&dir).unwrap();
}
