//! Stable storage with write accounting.
//!
//! §4.4 of the paper is entirely about *when* agents must write to disk:
//! acceptors must persist `(vrnd, vval)` on every accept, may keep `rnd`
//! volatile under the `MCount` scheme, and coordinators never need stable
//! storage at all. To measure those claims we route every durable write
//! through [`StableStore`], which counts writes.
//!
//! Two implementations are provided:
//!
//! * [`MemStore`] — an overwrite-in-place key-value map where every
//!   `write` is one synchronous disk write (the seed behaviour, used by
//!   the default experiments);
//! * [`WalStore`] — an append-only, CRC-checksummed record log that only
//!   buffers until its owner flushes: `write` replaces the key's pending
//!   value, [`StableStore::flush`] makes the batch durable — one record per
//!   written key — as *one* counted disk write and rewrites the log in
//!   place of appending once superseded records dominate it, recovery
//!   replays the log and truncates torn or corrupt tails instead of
//!   failing, and [`StableStore::compact`] rewrites the log keeping only
//!   the latest record per key on demand.

use std::collections::BTreeMap;
use std::fmt;

/// Process-local stable storage: a small key-value store of byte strings
/// that survives crashes.
///
/// Keys are short static names ("vote", "mcount", ...); values are produced
/// by the [`crate::wire`] codec. [`StableStore::write_count`] counts
/// *synchronous disk writes* (the unit of §4.4's accounting): for
/// [`MemStore`] that is every `write`; for [`WalStore`] it is every
/// non-empty [`StableStore::flush`], which is how group commit amortizes
/// many logical writes into one disk write.
pub trait StableStore {
    /// Writes `value` under `key`, replacing any previous value. Whether
    /// the write is immediately durable depends on the implementation:
    /// [`MemStore`] syncs per write, [`WalStore`] buffers until
    /// [`StableStore::flush`].
    fn write(&mut self, key: &str, value: Vec<u8>);

    /// Reads the last value written under `key`, if any (including
    /// buffered, not-yet-flushed writes).
    fn read(&self, key: &str) -> Option<&[u8]>;

    /// Total number of synchronous disk writes performed over the lifetime
    /// of the store (across crashes — the store itself is the durable
    /// medium).
    fn write_count(&self) -> u64;

    /// Makes all buffered writes durable. A store that syncs per write
    /// (such as [`MemStore`]) has nothing to do.
    fn flush(&mut self) {}

    /// Crash semantics: drops writes that were buffered but never flushed
    /// (the host runtime calls this when the owning process crashes). A
    /// store that syncs per write loses nothing.
    fn lose_unflushed(&mut self) {}

    /// Compacts the underlying representation, retaining only what is
    /// needed to serve [`StableStore::read`]. A no-op for stores without a
    /// log structure.
    fn compact(&mut self) {}

    /// Records found unreadable (bad checksum or torn tail) during
    /// recovery replays of this store.
    fn corrupt_records(&self) -> u64 {
        0
    }

    /// Reads the last **durable** value under `key`: what a crash right
    /// now would preserve. For per-write-sync stores this is the same as
    /// [`StableStore::read`]; a buffering store must exclude unflushed
    /// writes. Invariant checkers use this to assert durability claims
    /// without crashing the process.
    fn flushed_read(&self, key: &str) -> Option<&[u8]> {
        self.read(key)
    }
}

/// In-memory implementation of [`StableStore`].
///
/// "In-memory" refers to the host process running the simulation; from the
/// simulated process's point of view this storage is durable: the simulator
/// keeps it across crash/recover cycles of the owning process.
#[derive(Clone, Default)]
pub struct MemStore {
    data: BTreeMap<String, Vec<u8>>,
    writes: u64,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct keys currently stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl StableStore for MemStore {
    fn write(&mut self, key: &str, value: Vec<u8>) {
        self.writes += 1;
        self.data.insert(key.to_owned(), value);
    }

    fn read(&self, key: &str) -> Option<&[u8]> {
        self.data.get(key).map(|v| v.as_slice())
    }

    fn write_count(&self) -> u64 {
        self.writes
    }
}

impl fmt::Debug for MemStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemStore")
            .field("keys", &self.data.keys().collect::<Vec<_>>())
            .field("writes", &self.writes)
            .finish()
    }
}

// ----- CRC32 (IEEE 802.3 polynomial) -------------------------------------

/// Slicing-by-8 tables: `t[0]` is the classic bytewise table, and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// lookups advance the checksum by eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 checksum (IEEE polynomial) of `bytes`, eight bytes a step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let at = |k: usize, x: u32| t[k][(x & 0xFF) as usize];
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = at(7, lo)
            ^ at(6, lo >> 8)
            ^ at(5, lo >> 16)
            ^ at(4, lo >> 24)
            ^ at(3, hi)
            ^ at(2, hi >> 8)
            ^ at(1, hi >> 16)
            ^ at(0, hi >> 24);
    }
    for &b in chunks.remainder() {
        c = at(0, c ^ u32::from(b)) ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ----- WalStore ------------------------------------------------------------

/// Record layout, appended back to back:
///
/// ```text
/// [payload_len: u32 LE] [key_len: u16 LE] [key bytes] [value bytes] [crc: u32 LE]
/// ```
///
/// `payload_len` covers `key_len + key + value`; the CRC covers the same
/// payload bytes. A record whose length field runs past the end of the log
/// is a *torn tail* (the crash interrupted the write); a record whose CRC
/// does not match is *corrupt*. Both truncate replay at the last good
/// record.
const LEN_BYTES: usize = 4;
const KEYLEN_BYTES: usize = 2;
const CRC_BYTES: usize = 4;

/// Encoded size of the record holding `value` under `key`.
fn record_len(key: &str, value: &[u8]) -> usize {
    LEN_BYTES + KEYLEN_BYTES + key.len() + value.len() + CRC_BYTES
}

/// A flush rewrites the log instead of appending to it when the log would
/// otherwise outgrow both four times its live records and this many bytes.
const COMPACT_FLOOR: usize = 64 * 1024;

/// A readable key's latest value, flagged until a flush makes it durable.
#[derive(Clone)]
struct Entry {
    value: Vec<u8>,
    pending: bool,
}

/// Append-only, CRC-checksummed record log implementing [`StableStore`]
/// with group-commit batching. The store never decides when a write is
/// durable: the agent that wrote flushes at the point where a message or
/// a recovery relies on it.
///
/// * `write` replaces the key's pending value and updates the read index;
///   it encodes nothing and performs **no** disk write. A value superseded
///   before the flush was never durable, so dropping it changes nothing a
///   read, a replay or a crash can observe.
/// * [`StableStore::flush`] appends one record per written key — the
///   latest value — to the durable log as one counted disk write (the
///   group commit). Flushing an empty batch is free — duplicate flushes
///   are not charged.
/// * The log compacts itself: a flush that would leave it larger than
///   four times its live records (and than 64 KiB) writes the log afresh
///   as one record per live key, the batch included, instead of appending.
///   It is still the flush's one counted disk write.
/// * [`StableStore::lose_unflushed`] models the crash: pending values are
///   dropped and the index is rebuilt by replaying the durable log, so a
///   recovering actor observes exactly the flushed state.
/// * [`WalStore::replay`] walks the log record by record, verifying each
///   CRC; a torn or corrupt tail is truncated at the last good record and
///   counted in [`StableStore::corrupt_records`] instead of failing
///   recovery.
/// * [`StableStore::compact`] flushes, then rewrites the log with one
///   record per live key as one more disk write.
#[derive(Clone)]
pub struct WalStore {
    /// The durable medium: flushed records, back to back.
    log: Vec<u8>,
    /// Latest value per key, including pending (unflushed) writes.
    index: BTreeMap<String, Entry>,
    /// Synchronous disk writes (non-empty flushes + compaction rewrites).
    synced: u64,
    /// `write` calls over the store's lifetime.
    writes: u64,
    /// Unreadable records seen by replays.
    corrupt: u64,
}

impl Default for WalStore {
    fn default() -> Self {
        WalStore::new()
    }
}

impl WalStore {
    /// A group-commit store: writes pend until [`StableStore::flush`].
    pub fn new() -> Self {
        WalStore {
            log: Vec::new(),
            index: BTreeMap::new(),
            synced: 0,
            writes: 0,
            corrupt: 0,
        }
    }

    /// Rebuilds a store from raw log bytes (as read back from a disk
    /// file), replaying and truncating any torn tail.
    pub fn from_log(log: Vec<u8>) -> Self {
        let mut s = WalStore::new();
        s.log = log;
        s.replay();
        s
    }

    /// Size of the flushed log in bytes.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// The flushed log bytes (what a disk file would contain); feed them
    /// to [`WalStore::from_log`] to model re-opening after a restart.
    pub fn log_bytes(&self) -> &[u8] {
        &self.log
    }

    /// Bytes the next flush would append: one record per pending key.
    pub fn unflushed_len(&self) -> usize {
        self.index
            .iter()
            .filter(|(_, e)| e.pending)
            .map(|(k, e)| record_len(k, &e.value))
            .sum()
    }

    /// `write` calls over the store's lifetime (logical records, however
    /// many of them a flush coalesced).
    pub fn records_written(&self) -> u64 {
        self.writes
    }

    /// Number of distinct keys currently readable.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no keys are readable.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Test hook: XORs the last `n` bytes of the flushed log with `0xFF`,
    /// simulating medium corruption of the tail.
    pub fn corrupt_tail(&mut self, n: usize) {
        let len = self.log.len();
        for b in &mut self.log[len.saturating_sub(n)..] {
            *b ^= 0xFF;
        }
    }

    /// Test hook: drops the last `n` bytes of the flushed log, simulating
    /// a torn (partially persisted) final record.
    pub fn tear_tail(&mut self, n: usize) {
        let keep = self.log.len().saturating_sub(n);
        self.log.truncate(keep);
    }

    fn append_record(out: &mut Vec<u8>, key: &str, value: &[u8]) {
        let key = key.as_bytes();
        let payload_len = KEYLEN_BYTES + key.len() + value.len();
        out.extend_from_slice(&(payload_len as u32).to_le_bytes());
        let payload_start = out.len();
        out.extend_from_slice(&(key.len() as u16).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(value);
        let crc = crc32(&out[payload_start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Parses the record at `log[at..]`; returns `(key, value, next_at)`
    /// or `None` when the record is torn or fails its CRC.
    fn parse_record(log: &[u8], at: usize) -> Option<(String, Vec<u8>, usize)> {
        let rest = &log[at..];
        if rest.len() < LEN_BYTES {
            return None;
        }
        let payload_len = u32::from_le_bytes(rest[..LEN_BYTES].try_into().unwrap()) as usize;
        let total = LEN_BYTES + payload_len + CRC_BYTES;
        if payload_len < KEYLEN_BYTES || rest.len() < total {
            return None; // torn: the record was cut mid-write
        }
        let payload = &rest[LEN_BYTES..LEN_BYTES + payload_len];
        let stored_crc =
            u32::from_le_bytes(rest[LEN_BYTES + payload_len..total].try_into().unwrap());
        if crc32(payload) != stored_crc {
            return None; // corrupt payload
        }
        let key_len = u16::from_le_bytes(payload[..KEYLEN_BYTES].try_into().unwrap()) as usize;
        if KEYLEN_BYTES + key_len > payload.len() {
            return None;
        }
        let key = String::from_utf8(payload[KEYLEN_BYTES..KEYLEN_BYTES + key_len].to_vec()).ok()?;
        let value = payload[KEYLEN_BYTES + key_len..].to_vec();
        Some((key, value, at + total))
    }

    /// Replays the flushed log from the start, rebuilding the read index
    /// (pending writes are dropped). Stops at the first torn or corrupt
    /// record, truncates the log there (truncate-to-last-good-record) and
    /// counts the event in [`StableStore::corrupt_records`]. Returns the
    /// number of records recovered.
    pub fn replay(&mut self) -> u64 {
        self.index.clear();
        let mut at = 0;
        let mut recovered = 0;
        while at < self.log.len() {
            match Self::parse_record(&self.log, at) {
                Some((key, value, next)) => {
                    let entry = Entry {
                        value,
                        pending: false,
                    };
                    self.index.insert(key, entry);
                    at = next;
                    recovered += 1;
                }
                None => {
                    self.corrupt += 1;
                    self.log.truncate(at);
                    break;
                }
            }
        }
        recovered
    }

    /// Makes the pending values durable as one counted disk write: their
    /// records are appended, or — when that would leave the log larger
    /// than four times the live records and than [`COMPACT_FLOOR`] — the
    /// log is written afresh as one record per live key. Returns whether
    /// it was rewritten; a flush with nothing pending does nothing.
    fn commit(&mut self) -> bool {
        let batch = self.unflushed_len();
        if batch == 0 {
            return false; // duplicate flush: nothing to sync, nothing charged
        }
        let live: usize = self
            .index
            .iter()
            .map(|(k, e)| record_len(k, &e.value))
            .sum();
        let rewrite = self.log.len() + batch > (4 * live).max(COMPACT_FLOOR);
        self.write_records(rewrite);
        rewrite
    }

    /// Appends the pending records to the log, or with `all` replaces the
    /// log by one record per live key; either way nothing is pending
    /// after, and it counts as one disk write.
    fn write_records(&mut self, all: bool) {
        if all {
            self.log.clear();
        }
        for (k, e) in &mut self.index {
            if all || e.pending {
                Self::append_record(&mut self.log, k, &e.value);
            }
            e.pending = false;
        }
        self.synced += 1;
    }
}

impl StableStore for WalStore {
    fn write(&mut self, key: &str, value: Vec<u8>) {
        let entry = Entry {
            value,
            pending: true,
        };
        match self.index.get_mut(key) {
            Some(e) => *e = entry,
            None => {
                self.index.insert(key.to_owned(), entry);
            }
        }
        self.writes += 1;
    }

    fn read(&self, key: &str) -> Option<&[u8]> {
        self.index.get(key).map(|e| e.value.as_slice())
    }

    fn write_count(&self) -> u64 {
        self.synced
    }

    fn flush(&mut self) {
        self.commit();
    }

    fn lose_unflushed(&mut self) {
        self.replay();
    }

    fn compact(&mut self) {
        // Make pending values durable first, then rewrite: compaction must
        // never weaken durability.
        self.flush();
        if !self.log.is_empty() {
            self.write_records(true);
        }
    }

    fn corrupt_records(&self) -> u64 {
        self.corrupt
    }

    fn flushed_read(&self, key: &str) -> Option<&[u8]> {
        // The read index includes pending writes, so scan the flushed log
        // instead (O(log) per call — this is an inspection hook, not a hot
        // path).
        let mut at = 0;
        let mut hit = None;
        while at < self.log.len() {
            match Self::parse_record(&self.log, at) {
                Some((k, v, next)) => {
                    if k == key {
                        hit = Some(next - CRC_BYTES - v.len()..next - CRC_BYTES);
                    }
                    at = next;
                }
                None => break,
            }
        }
        hit.map(|r| &self.log[r])
    }
}

impl fmt::Debug for WalStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalStore")
            .field("keys", &self.index.keys().collect::<Vec<_>>())
            .field("log_bytes", &self.log.len())
            .field("unflushed_bytes", &self.unflushed_len())
            .field("synced", &self.synced)
            .field("writes", &self.writes)
            .field("corrupt", &self.corrupt)
            .finish()
    }
}

// ----- FileWal --------------------------------------------------------------

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// A [`WalStore`] whose log lives in a real file, for processes whose
/// crashes are OS-process kills rather than simulated events (the TCP
/// multi-process example). The in-memory [`WalStore`] keeps the read
/// index and record format; `FileWal` mirrors every flushed byte to the
/// file and `sync_data`s it, so what [`StableStore::flushed_read`] would
/// return is exactly what a re-[`FileWal::open`] after `SIGKILL`
/// recovers. As with [`WalStore`], a write is durable only once the
/// owning agent flushes it. The in-memory copy of the log is bounded the
/// way [`WalStore`]'s is, and so is the file.
///
/// Opening replays the file through [`WalStore::from_log`] — a torn or
/// corrupt tail is truncated (both in memory and on disk) rather than
/// failing recovery, matching the in-memory store's crash semantics.
/// A flush that compacts the log, and [`StableStore::compact`], rewrite
/// the file atomically via a temp file + rename, so a crash
/// mid-compaction leaves the old log intact.
///
/// I/O errors after open are fatal by design: a store that cannot make
/// bytes durable must crash the process (the crash-recovery model's
/// answer), not silently acknowledge writes, so the mirroring paths
/// panic on I/O failure.
pub struct FileWal {
    inner: WalStore,
    file: File,
    path: PathBuf,
    /// Bytes of `inner`'s flushed log already written + synced to `file`.
    durable_len: usize,
}

impl FileWal {
    /// Opens (creating if absent) a group-commit store backed by `path`:
    /// writes pend in memory until [`StableStore::flush`], which appends
    /// one record per written key to the file (or rewrites it, when the
    /// flush compacts) and `sync_data`s it as one disk write.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileWal> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let had = bytes.len();
        let inner = WalStore::from_log(bytes);
        if inner.log_len() < had {
            // Torn/corrupt tail: truncate the file to the last good
            // record so the next replay doesn't re-scan garbage.
            file.set_len(inner.log_len() as u64)?;
            file.sync_data()?;
        }
        let durable_len = inner.log_len();
        Ok(FileWal {
            inner,
            file,
            path: path.to_path_buf(),
            durable_len,
        })
    }

    /// The path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Size of the durable (flushed) log in bytes.
    pub fn log_len(&self) -> usize {
        self.inner.log_len()
    }

    /// Appends the log bytes flushed since the last mirror and syncs.
    fn mirror_append(&mut self) {
        let log = self.inner.log_bytes();
        debug_assert!(log.len() >= self.durable_len, "flush never shrinks the log");
        if log.len() == self.durable_len {
            return;
        }
        let tail = &log[self.durable_len..];
        let at = self.durable_len as u64;
        self.file
            .seek(SeekFrom::Start(at))
            .and_then(|_| self.file.write_all(tail))
            .and_then(|_| self.file.sync_data())
            .expect("FileWal: cannot make log durable");
        self.durable_len = log.len();
    }

    /// Rewrites the whole file from the (compacted) log: temp file +
    /// rename, then reopen the handle on the new inode.
    fn mirror_rewrite(&mut self) {
        let mut tmp_name = self.path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        let rewrite = (|| -> io::Result<File> {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(self.inner.log_bytes())?;
            f.sync_data()?;
            std::fs::rename(&tmp, &self.path)?;
            Ok(f)
        })();
        self.file = rewrite.expect("FileWal: cannot rewrite compacted log");
        self.durable_len = self.inner.log_len();
    }
}

impl StableStore for FileWal {
    fn write(&mut self, key: &str, value: Vec<u8>) {
        self.inner.write(key, value);
    }

    fn read(&self, key: &str) -> Option<&[u8]> {
        self.inner.read(key)
    }

    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }

    fn flush(&mut self) {
        if self.inner.commit() {
            self.mirror_rewrite();
        } else {
            self.mirror_append();
        }
    }

    fn lose_unflushed(&mut self) {
        self.inner.lose_unflushed();
    }

    fn compact(&mut self) {
        self.inner.compact();
        self.mirror_rewrite();
    }

    fn corrupt_records(&self) -> u64 {
        self.inner.corrupt_records()
    }

    fn flushed_read(&self, key: &str) -> Option<&[u8]> {
        self.inner.flushed_read(key)
    }
}

impl fmt::Debug for FileWal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileWal")
            .field("path", &self.path)
            .field("durable_len", &self.durable_len)
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut s = MemStore::new();
        assert!(s.read("vote").is_none());
        assert!(s.is_empty());
        s.write("vote", vec![1, 2, 3]);
        assert_eq!(s.read("vote"), Some(&[1u8, 2, 3][..]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn every_write_is_counted() {
        let mut s = MemStore::new();
        s.write("k", vec![0]);
        s.write("k", vec![0]); // same value: still a disk write
        s.write("j", vec![1]);
        assert_eq!(s.write_count(), 3);
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut s = MemStore::new();
        s.write("k", vec![0]);
        s.write("k", vec![9, 9]);
        assert_eq!(s.read("k"), Some(&[9u8, 9][..]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn memstore_trait_defaults_are_noops() {
        let mut s = MemStore::new();
        s.write("k", vec![7]);
        s.flush();
        s.compact();
        s.lose_unflushed(); // per-write sync: nothing to lose
        assert_eq!(s.read("k"), Some(&[7u8][..]));
        assert_eq!(s.corrupt_records(), 0);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The reference: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_slicing_by_8_matches_bytewise() {
        // A fixed xorshift stream: random lengths 0..=4096 and contents,
        // so every remainder length and every table is exercised.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..217 {
            let len = if round <= 16 {
                round
            } else {
                (next() % 4097) as usize
            };
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "len {len}");
        }
    }

    /// A temp file path unique to this test; removed on drop.
    struct TempWal(PathBuf);
    impl TempWal {
        fn new(name: &str) -> Self {
            TempWal(std::env::temp_dir().join(format!(
                "mcpaxos_filewal_{}_{}",
                std::process::id(),
                name
            )))
        }
    }
    impl Drop for TempWal {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn filewal_survives_reopen() {
        let t = TempWal::new("reopen");
        {
            let mut s = FileWal::open(&t.0).unwrap();
            s.write("vote", vec![1, 2, 3]);
            s.write("rnd", vec![9]);
            s.flush();
            s.write("vote", vec![4, 4]); // buffered, never flushed
        } // dropped without flush: the OS-process-crash analogue
        let s = FileWal::open(&t.0).unwrap();
        assert_eq!(s.read("vote"), Some(&[1u8, 2, 3][..]));
        assert_eq!(s.read("rnd"), Some(&[9u8][..]));
        assert_eq!(s.corrupt_records(), 0);
    }

    #[test]
    fn filewal_truncates_torn_tail_on_open() {
        let t = TempWal::new("torn");
        let good_len;
        {
            let mut s = FileWal::open(&t.0).unwrap();
            s.write("vote", vec![1; 32]);
            s.flush();
            good_len = s.log_len();
            s.write("vote", vec![2; 32]);
            s.flush();
        }
        // Tear the last record mid-write.
        let f = OpenOptions::new().write(true).open(&t.0).unwrap();
        f.set_len(good_len as u64 + 3).unwrap();
        drop(f);

        let s = FileWal::open(&t.0).unwrap();
        assert_eq!(
            s.read("vote"),
            Some(&[1u8; 32][..]),
            "last good record wins"
        );
        assert_eq!(s.corrupt_records(), 1);
        assert_eq!(
            std::fs::metadata(&t.0).unwrap().len(),
            good_len as u64,
            "torn bytes are truncated from the file too"
        );
    }

    #[test]
    fn filewal_compact_rewrites_file() {
        let t = TempWal::new("compact");
        let mut s = FileWal::open(&t.0).unwrap();
        // Pending writes of one key coalesce: a flush appends one record.
        for i in 0..50u8 {
            s.write("vote", vec![i; 64]);
        }
        s.flush();
        let one = std::fs::metadata(&t.0).unwrap().len();
        assert_eq!(one as usize, record_len("vote", &[0; 64]));
        // Fifty flushes append fifty records (far below the self-compaction
        // floor); an explicit compaction rewrites them as one.
        for i in 0..50u8 {
            s.write("vote", vec![i; 64]);
            s.flush();
        }
        let fat = std::fs::metadata(&t.0).unwrap().len();
        assert_eq!(fat, 51 * one);
        s.compact();
        let slim = std::fs::metadata(&t.0).unwrap().len();
        assert_eq!(slim, one, "compaction keeps one record per key");
        assert_eq!(s.read("vote"), Some(&[49u8; 64][..]));
        // And the compacted file replays cleanly after another write.
        s.write("rnd", vec![1]);
        s.flush();
        drop(s);
        let s = FileWal::open(&t.0).unwrap();
        assert_eq!(s.read("vote"), Some(&[49u8; 64][..]));
        assert_eq!(s.read("rnd"), Some(&[1u8][..]));
        assert_eq!(s.corrupt_records(), 0);
    }

    #[test]
    fn filewal_stays_small_across_compacting_flushes_and_reopens() {
        let t = TempWal::new("selfcompact");
        let value = |i: u32| i.to_le_bytes().repeat(256); // 1 KiB
        {
            let mut s = FileWal::open(&t.0).unwrap();
            s.write("mcount", vec![7]);
            for i in 0..1_000 {
                s.write("vote", value(i));
                s.flush();
                let file = std::fs::metadata(&t.0).unwrap().len() as usize;
                assert_eq!(file, s.log_len(), "the file mirrors the log");
                assert!(file <= COMPACT_FLOOR, "flush {i}: {file} bytes");
            }
            assert_eq!(s.write_count(), 1_000, "one sync per flush");
            s.write("vote", vec![0; 8]); // pending, never flushed
        }
        let s = FileWal::open(&t.0).unwrap();
        assert_eq!(s.read("vote"), Some(&value(999)[..]));
        assert_eq!(s.read("mcount"), Some(&[7u8][..]));
        assert_eq!(s.corrupt_records(), 0);
    }
}
