//! WAL replay unit suite: group-commit batching, torn tails, corrupt
//! tails, duplicate flushes, empty logs, crash semantics, compaction, and
//! a model check of one-record-per-key flushes against a record per write.

use mcpaxos_actor::{StableStore, WalStore};
use proptest::prelude::*;

#[test]
fn empty_log_replays_to_empty_store() {
    let mut s = WalStore::new();
    assert_eq!(s.replay(), 0);
    assert!(s.is_empty());
    assert_eq!(s.write_count(), 0);
    assert_eq!(s.corrupt_records(), 0);

    let s = WalStore::from_log(Vec::new());
    assert!(s.is_empty());
    assert_eq!(s.corrupt_records(), 0);
}

#[test]
fn group_commit_batches_many_writes_into_one_disk_write() {
    let mut s = WalStore::new();
    for i in 0..10u8 {
        s.write("vote", vec![i]);
    }
    assert_eq!(s.write_count(), 0, "writes only buffer");
    assert!(s.unflushed_len() > 0);
    s.flush();
    assert_eq!(s.write_count(), 1, "whole batch is one sync");
    assert_eq!(s.unflushed_len(), 0);
    assert_eq!(s.read("vote"), Some(&[9u8][..]));
    assert_eq!(s.records_written(), 10);
}

#[test]
fn duplicate_flush_is_free() {
    let mut s = WalStore::new();
    s.write("k", vec![1]);
    s.flush();
    s.flush();
    s.flush();
    assert_eq!(s.write_count(), 1, "empty flushes must not be charged");
}

#[test]
fn crash_loses_unflushed_but_keeps_flushed() {
    let mut s = WalStore::new();
    s.write("vote", vec![1]);
    s.flush();
    s.write("vote", vec![2]); // buffered only
    assert_eq!(s.read("vote"), Some(&[2u8][..]), "reads see the buffer");
    s.lose_unflushed();
    assert_eq!(
        s.read("vote"),
        Some(&[1u8][..]),
        "crash rolls back to the flushed record"
    );
    assert_eq!(s.corrupt_records(), 0, "a clean tail is not corruption");
}

#[test]
fn torn_tail_truncates_to_last_good_record() {
    let mut s = WalStore::new();
    s.write("vote", vec![1, 1, 1]);
    s.flush();
    s.write("vote", vec![2, 2, 2]);
    s.flush();
    let full = s.log_len();
    s.tear_tail(3); // cut the last record mid-write
    assert!(s.log_len() < full);
    let recovered = s.replay();
    assert_eq!(recovered, 1, "only the intact record survives");
    assert_eq!(s.read("vote"), Some(&[1u8, 1, 1][..]));
    assert_eq!(s.corrupt_records(), 1);
    // The log was truncated at the tear: replaying again is clean.
    let before = s.corrupt_records();
    s.replay();
    assert_eq!(s.corrupt_records(), before);
}

#[test]
fn corrupt_tail_fails_crc_and_truncates() {
    let mut s = WalStore::new();
    s.write("rnd", vec![7]);
    s.write("vote", vec![8]);
    s.flush();
    s.write("vote", vec![9]);
    s.flush();
    s.corrupt_tail(2); // flip bits inside the final record's CRC/payload
    s.replay();
    assert_eq!(s.read("vote"), Some(&[8u8][..]), "falls back to last good");
    assert_eq!(s.read("rnd"), Some(&[7u8][..]));
    assert_eq!(s.corrupt_records(), 1);
}

#[test]
fn corruption_mid_log_truncates_everything_after() {
    let mut s = WalStore::new();
    s.write("a", vec![1]);
    s.flush();
    let cut = s.log_len();
    s.write("b", vec![2]);
    s.write("c", vec![3]);
    s.flush();
    // Corrupt the *second* record: 'a' survives, 'b' and 'c' are lost
    // even though 'c''s bytes are intact (no way to trust a log past a
    // bad record).
    let tail = s.log_len() - cut;
    s.corrupt_tail(tail);
    s.replay();
    assert_eq!(s.read("a"), Some(&[1u8][..]));
    assert!(s.read("b").is_none());
    assert!(s.read("c").is_none());
    assert!(s.corrupt_records() >= 1);
}

#[test]
fn from_log_roundtrip() {
    let mut s = WalStore::new();
    s.write("vote", vec![4, 5]);
    s.write("mcount", vec![6]);
    s.flush();
    // Simulate re-opening the file: feed the raw bytes to a fresh store.
    let reopened = WalStore::from_log(s.log_bytes().to_vec());
    assert_eq!(reopened.read("vote"), Some(&[4u8, 5][..]));
    assert_eq!(reopened.read("mcount"), Some(&[6u8][..]));
    assert_eq!(reopened.corrupt_records(), 0);
}

/// Mirrors the WAL record layout for test verification:
/// `[payload_len u32 LE][key_len u16 LE][key][value][crc32 u32 LE]`.
fn encode_record(key: &str, value: &[u8]) -> Vec<u8> {
    let kb = key.as_bytes();
    let payload_len = 2 + kb.len() + value.len();
    let mut out = Vec::new();
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let start = out.len();
    out.extend_from_slice(&(kb.len() as u16).to_le_bytes());
    out.extend_from_slice(kb);
    out.extend_from_slice(value);
    let crc = mcpaxos_actor::crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn record_layout_is_stable() {
    // Pin the on-disk format: a change here breaks recovery of existing
    // logs and must be deliberate.
    let mut s = WalStore::from_log(encode_record("vote", &[1, 2, 3]));
    assert_eq!(s.read("vote"), Some(&[1u8, 2, 3][..]));
    assert_eq!(s.corrupt_records(), 0);
    // Two records back to back.
    let mut log = encode_record("a", &[1]);
    log.extend(encode_record("a", &[2]));
    s = WalStore::from_log(log);
    assert_eq!(s.read("a"), Some(&[2u8][..]), "later record wins");
}

#[test]
fn compaction_shrinks_log_and_preserves_reads() {
    let mut s = WalStore::new();
    for i in 0..50u8 {
        s.write("vote", vec![i; 8]);
        s.flush();
    }
    s.write("mcount", vec![3]);
    s.flush();
    let before = s.log_len();
    let syncs_before = s.write_count();
    s.compact();
    assert!(s.log_len() < before, "50 superseded records must vanish");
    assert_eq!(s.read("vote"), Some(&[49u8; 8][..]));
    assert_eq!(s.read("mcount"), Some(&[3u8][..]));
    assert!(
        s.write_count() > syncs_before,
        "the rewrite is a disk write"
    );
    // Replay of the compacted log reproduces the same state.
    s.replay();
    assert_eq!(s.read("vote"), Some(&[49u8; 8][..]));
    assert_eq!(s.corrupt_records(), 0);
}

#[test]
fn compaction_flushes_buffered_writes_first() {
    let mut s = WalStore::new();
    s.write("k", vec![1]);
    s.compact(); // must not silently drop the buffered record
    s.lose_unflushed();
    assert_eq!(s.read("k"), Some(&[1u8][..]), "compaction implies flush");
}

#[test]
fn auto_compaction_kicks_in_above_threshold() {
    // No knob: the log is bounded by max(4 × live records, 64 KiB) plus
    // the batch a flush appends, for a value that keeps growing.
    let mut s = WalStore::new();
    let mut rewrites = 0;
    for i in 0..10_000usize {
        let value = vec![i as u8; 16 + i / 8];
        let batch = encode_record("vote", &value).len() + encode_record("mcount", &[1]).len();
        s.write("vote", value);
        s.write("mcount", vec![1]);
        let before = s.log_len();
        s.flush();
        if s.log_len() < before {
            rewrites += 1;
        }
        let live = batch; // both keys are pending: the batch is all live records
        assert!(
            s.log_len() <= (4 * live).max(64 * 1024) + batch,
            "flush {i}: {} bytes of log for {live} live",
            s.log_len()
        );
    }
    assert!(rewrites > 0, "the log compacted itself");
    assert_eq!(
        s.write_count(),
        10_000,
        "a compacting flush is still one sync"
    );
    assert_eq!(s.read("vote"), Some(&vec![15u8; 16 + 9_999 / 8][..]));
    let reopened = WalStore::from_log(s.log_bytes().to_vec());
    assert_eq!(reopened.read("vote"), s.read("vote"));
    assert_eq!(reopened.read("mcount"), Some(&[1u8][..]));
}

/// The WAL as it behaved when every `write` was its own record: pending
/// records in write order, flushed records in flush order, the latest of
/// a key winning on read.
#[derive(Default)]
struct EveryRecord {
    flushed: Vec<(String, Vec<u8>)>,
    pending: Vec<(String, Vec<u8>)>,
    syncs: u64,
}

impl EveryRecord {
    fn latest<'a>(
        records: impl DoubleEndedIterator<Item = &'a (String, Vec<u8>)>,
        key: &str,
    ) -> Option<&'a [u8]> {
        records
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }
    fn read(&self, key: &str) -> Option<&[u8]> {
        Self::latest(self.flushed.iter().chain(&self.pending), key)
    }
    fn flushed_read(&self, key: &str) -> Option<&[u8]> {
        Self::latest(self.flushed.iter(), key)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Coalescing writes per key, and rewriting the log inside a flush,
    /// are invisible: after every step the store agrees with a reference
    /// that keeps every write as a record, on reads, durable reads, syncs
    /// and a reopen of the flushed bytes.
    #[test]
    fn one_record_per_key_per_flush_matches_a_record_per_write(
        ops in prop::collection::vec((0u8..8, 0usize..3, 0usize..3_000), 1..300)
    ) {
        const KEYS: [&str; 3] = ["vote", "mcount", "ckpt"];
        let mut s = WalStore::new();
        let mut r = EveryRecord::default();
        for (op, key, len) in ops {
            let key = KEYS[key];
            match op {
                0..=4 => {
                    let value = vec![len as u8; len];
                    s.write(key, value.clone());
                    r.pending.push((key.to_owned(), value));
                }
                5 | 6 => {
                    s.flush();
                    if !r.pending.is_empty() {
                        r.syncs += 1;
                        r.flushed.append(&mut r.pending);
                    }
                }
                _ => {
                    s.lose_unflushed();
                    r.pending.clear();
                }
            }
            let reopened = WalStore::from_log(s.log_bytes().to_vec());
            for k in KEYS {
                prop_assert_eq!(s.read(k), r.read(k));
                prop_assert_eq!(s.flushed_read(k), r.flushed_read(k));
                prop_assert_eq!(reopened.read(k), r.flushed_read(k));
            }
            prop_assert_eq!(s.write_count(), r.syncs);
            prop_assert_eq!(reopened.corrupt_records(), 0);
        }
    }
}
