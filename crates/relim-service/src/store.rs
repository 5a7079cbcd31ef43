//! The content-addressed result store.
//!
//! Every served result is stored under its **content address**: the
//! 128-bit FNV-1a digest of the request's canonical key (see
//! [`crate::ops::OpRequest::canonical_key`]). The store is two-level:
//!
//! * an **in-memory map** bounded by `capacity`, evicting in FIFO
//!   (insertion) order — deterministic, no clocks involved;
//! * an optional **on-disk layer**: one JSON file per entry, named
//!   `<digest>.json`, holding the schema tag, the digest, the *full
//!   canonical key* and the result text. Files are written atomically
//!   (temp file + rename), so concurrent writers and crashes never
//!   produce a torn entry — at worst a stale temp file, which loading
//!   ignores.
//!
//! Reads check memory first, then fall back to disk (so eviction only
//! costs a file read, never a recomputation). Every hit — memory or
//! disk — **verifies the full key text**, not just the digest: a digest
//! collision degrades to a miss, never to a wrong answer. Corrupt disk
//! files (unparsable JSON, wrong schema, digest/key mismatch) are
//! skipped and counted at load, and simply overwritten by the next store
//! of that address — recovery is automatic, not manual.
//!
//! ## Request coalescing — the in-flight table
//!
//! When several executors serve identical cold queries concurrently, the
//! store's **in-flight table** lets the first one own the computation and
//! every later identical request attach as a *waiter*:
//! [`ResultStore::claim`] returns [`InflightClaim::Owner`] exactly once
//! per key until the owner calls [`ResultStore::complete`], which
//! notifies all waiters with the owner's result. The table is keyed by
//! the **full canonical key**, not the digest, for the same reason hits
//! verify the key: a digest collision must never hand a waiter bytes
//! computed for a different request. Owners store the result *before*
//! completing, so a request that misses the coalescing window either
//! hits the store or recomputes the same bytes — coalescing is a
//! throughput optimization, never a correctness dependency.
//!
//! ## Disk budget — oldest-first GC
//!
//! The disk layer can be bounded by a byte budget
//! ([`ResultStore::persistent_with_budget`]): whenever a write pushes the
//! directory past the budget, entry files are deleted oldest-first
//! (modification time, ties broken by digest — deterministic even when
//! a coarse-granularity filesystem stamps a burst of writes with one
//! mtime) until the directory fits, never touching the entry just
//! written. A collected entry simply becomes a store miss; the next
//! computation of that address re-persists it.

use relim_core::digest::fnv1a128_hex;
use relim_json::Json;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};

/// The schema tag written into every store file.
pub const STORE_SCHEMA: &str = "relim-store/1";

/// The content address of a canonical key: 32 hex characters.
pub fn digest_of(key: &str) -> String {
    fnv1a128_hex(key.as_bytes())
}

struct MemEntry {
    key: String,
    result: String,
}

struct Inner {
    entries: HashMap<String, MemEntry>,
    /// Insertion order of `entries` keys — the FIFO eviction queue.
    order: VecDeque<String>,
}

/// The waiter senders attached to one in-flight computation.
type WaiterSenders = Vec<mpsc::Sender<Result<String, String>>>;

/// The outcome of [`ResultStore::claim`]: either the caller owns the
/// computation for its key, or an identical computation is already in
/// flight and the caller holds a receiver for its result.
pub enum InflightClaim {
    /// No identical computation is in flight. The claimant must compute,
    /// store, and then call [`ResultStore::complete`] exactly once —
    /// even on failure — or waiters block until their receiver errors.
    Owner,
    /// An identical computation is in flight; receive the owner's
    /// result (or error) from the channel.
    Waiter(mpsc::Receiver<Result<String, String>>),
}

/// Counters describing a store's traffic and health (all cumulative
/// since construction except `mem_entries`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the in-memory map.
    pub mem_hits: u64,
    /// Lookups answered from the disk layer (after a memory miss).
    pub disk_hits: u64,
    /// Lookups answered by neither layer.
    pub misses: u64,
    /// Entries written (memory, and disk when persistent).
    pub stores: u64,
    /// Entries evicted from memory by the FIFO bound (still on disk when
    /// persistent).
    pub evictions: u64,
    /// Disk files skipped as corrupt (unparsable, wrong schema, digest or
    /// key mismatch) at load or on a disk-fallback read.
    pub corrupt_skipped: u64,
    /// Requests that attached as waiters to an identical in-flight
    /// computation instead of recomputing (see [`ResultStore::claim`]).
    pub coalesced: u64,
    /// Entry files deleted from disk by the byte-budget GC (see
    /// [`ResultStore::persistent_with_budget`]).
    pub gc_evictions: u64,
    /// Stale `.tmp-*` files (a crash or failed rename mid-write) swept
    /// at open.
    pub tmp_swept: u64,
    /// Bytes currently held by the disk layer (0 for memory-only stores).
    pub disk_bytes: u64,
    /// Distinct entries currently held in memory.
    pub mem_entries: usize,
}

/// A content-addressed result store (see the module docs).
pub struct ResultStore {
    dir: Option<PathBuf>,
    capacity: usize,
    /// Disk byte budget; `None` leaves the disk layer unbounded.
    budget_bytes: Option<u64>,
    inner: Mutex<Inner>,
    /// In-flight computations by full canonical key → waiter senders.
    inflight: Mutex<HashMap<String, WaiterSenders>>,
    /// Serializes disk writes and GC, and carries the current on-disk
    /// byte count so the budget check never re-lists the directory.
    disk: Mutex<u64>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    corrupt_skipped: AtomicU64,
    coalesced: AtomicU64,
    gc_evictions: AtomicU64,
    tmp_swept: AtomicU64,
    /// Uniquifier for temp file names under concurrent writers.
    tmp_seq: AtomicU64,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("dir", &self.dir)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl ResultStore {
    /// A memory-only store holding up to `capacity` entries (at least 1).
    pub fn in_memory(capacity: usize) -> ResultStore {
        ResultStore {
            dir: None,
            capacity: capacity.max(1),
            budget_bytes: None,
            inner: Mutex::new(Inner { entries: HashMap::new(), order: VecDeque::new() }),
            inflight: Mutex::new(HashMap::new()),
            disk: Mutex::new(0),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_skipped: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            gc_evictions: AtomicU64::new(0),
            tmp_swept: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// A store persisted under `dir` with an unbounded disk layer — see
    /// [`ResultStore::persistent_with_budget`].
    ///
    /// # Errors
    ///
    /// Propagates directory creation/listing failures.
    pub fn persistent(dir: impl Into<PathBuf>, capacity: usize) -> io::Result<ResultStore> {
        ResultStore::persistent_with_budget(dir, capacity, None)
    }

    /// A store persisted under `dir` (created if missing): existing
    /// entries are loaded into memory up to `capacity` (in sorted
    /// file-name order — deterministic), the rest stay reachable through
    /// the disk fallback. Corrupt files are skipped and counted, never
    /// fatal. When `budget_bytes` is set, the disk layer is bounded: any
    /// write (and the open itself) that finds the directory over budget
    /// deletes entry files oldest-first until it fits (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// Propagates directory creation/listing failures.
    pub fn persistent_with_budget(
        dir: impl Into<PathBuf>,
        capacity: usize,
        budget_bytes: Option<u64>,
    ) -> io::Result<ResultStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let store = ResultStore {
            dir: Some(dir.clone()),
            budget_bytes,
            ..ResultStore::in_memory(capacity)
        };
        // Sweep stale `.tmp-*` files first. A crash (or failed rename)
        // mid-[`ResultStore::put`] leaves one behind, and nothing else
        // ever would: temp files live only inside `put`'s disk lock, so
        // across opens they are always garbage. Left alone they
        // accumulate unboundedly *outside* the byte budget — both the
        // `disk_bytes` accounting and the GC listing filter on `.json`.
        for entry in std::fs::read_dir(&dir)? {
            let Ok(entry) = entry else { continue };
            let stale = entry.file_name().to_str().is_some_and(|n| n.starts_with(".tmp-"));
            if stale && std::fs::remove_file(entry.path()).is_ok() {
                store.tmp_swept.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        names.sort();
        let mut disk_bytes = 0u64;
        for path in &names {
            disk_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        }
        {
            let mut inner = store.inner.lock().expect("store lock poisoned");
            for path in names {
                if inner.entries.len() >= store.capacity {
                    break; // remaining entries stay disk-only
                }
                match read_entry_file(&path) {
                    Some((digest, key, result)) => {
                        inner.order.push_back(digest.clone());
                        inner.entries.insert(digest, MemEntry { key, result });
                    }
                    None => {
                        store.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        {
            let mut disk = store.disk.lock().expect("store disk lock poisoned");
            *disk = disk_bytes;
            // A directory inherited over budget (budget lowered between
            // runs) is trimmed at open, before any traffic.
            if let Some(budget) = store.budget_bytes {
                if *disk > budget {
                    store.gc_oldest_first(&dir, None, budget, &mut disk);
                }
            }
        }
        Ok(store)
    }

    /// Whether this store persists entries to disk.
    pub fn is_persistent(&self) -> bool {
        self.dir.is_some()
    }

    /// The stored result for `key` (whose digest the caller already
    /// computed), from memory or disk. Verifies the full key on either
    /// path; `None` on a miss or a (counted) verification failure.
    pub fn get(&self, digest: &str, key: &str) -> Option<String> {
        {
            let inner = self.inner.lock().expect("store lock poisoned");
            if let Some(entry) = inner.entries.get(digest) {
                if entry.key == key {
                    self.mem_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(entry.result.clone());
                }
                // Digest collision: treat as a miss (the store never
                // serves bytes for a different key).
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        if let Some(dir) = &self.dir {
            match read_entry_file(&entry_path(dir, digest)) {
                Some((_, stored_key, result)) if stored_key == key => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(result);
                }
                Some(_) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                None => {} // missing or corrupt: fall through to a miss
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `result` under `key`/`digest` in memory (evicting FIFO
    /// beyond capacity) and, when persistent, on disk via an atomic
    /// temp-file + rename. Concurrent writers of the same address write
    /// the same bytes, so the last rename winning is harmless.
    ///
    /// # Errors
    ///
    /// Propagates disk write failures (the memory layer is already
    /// updated — the store stays servable).
    pub fn put(&self, digest: &str, key: &str, result: &str) -> io::Result<()> {
        {
            let mut inner = self.inner.lock().expect("store lock poisoned");
            if !inner.entries.contains_key(digest) {
                while inner.entries.len() >= self.capacity {
                    if let Some(oldest) = inner.order.pop_front() {
                        inner.entries.remove(&oldest);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    } else {
                        break;
                    }
                }
                inner.order.push_back(digest.to_owned());
            }
            inner.entries.insert(
                digest.to_owned(),
                MemEntry { key: key.to_owned(), result: result.to_owned() },
            );
        }
        self.stores.fetch_add(1, Ordering::Relaxed);
        if let Some(dir) = &self.dir {
            let doc = Json::Obj(vec![
                ("schema".into(), Json::str(STORE_SCHEMA)),
                ("digest".into(), Json::str(digest)),
                ("key".into(), Json::str(key)),
                ("result".into(), Json::str(result)),
            ]);
            let text = doc.render();
            let unique = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
            let tmp = dir.join(format!(".tmp-{}-{}-{digest}", std::process::id(), unique));
            let target = entry_path(dir, digest);
            // The disk lock serializes write + accounting + GC, so the
            // byte count stays exact under concurrent writers.
            let mut disk = self.disk.lock().expect("store disk lock poisoned");
            std::fs::write(&tmp, &text)?;
            let replaced = std::fs::metadata(&target).map(|m| m.len()).unwrap_or(0);
            std::fs::rename(&tmp, &target)?;
            *disk = disk.saturating_sub(replaced) + text.len() as u64;
            if let Some(budget) = self.budget_bytes {
                if *disk > budget {
                    self.gc_oldest_first(dir, Some(digest), budget, &mut disk);
                }
            }
        }
        Ok(())
    }

    /// Deletes entry files oldest-first until the directory fits
    /// `budget`, never touching `protect` (the entry just written).
    /// The eviction order is **fully deterministic**: modification time
    /// first, ties broken by the entry's digest (its file stem). Coarse
    /// filesystem timestamp granularity routinely stamps a burst of
    /// writes with one mtime — without the digest tie-break, which
    /// entry dies would depend on directory iteration order, and two
    /// daemons GC-ing identical stores could diverge. Best-effort: a
    /// file that vanishes mid-GC (a racing GC in another process, a
    /// concurrent writer's rename) is simply skipped — the next write
    /// re-runs the check. Caller holds the disk lock.
    fn gc_oldest_first(&self, dir: &Path, protect: Option<&str>, budget: u64, disk: &mut u64) {
        let Ok(listing) = std::fs::read_dir(dir) else { return };
        let mut files: Vec<(std::time::SystemTime, String, PathBuf, u64)> = listing
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .filter_map(|e| {
                let path = e.path();
                let digest = path.file_stem()?.to_str()?.to_owned();
                if protect == Some(digest.as_str()) {
                    return None;
                }
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, digest, path, meta.len()))
            })
            .collect();
        files.sort();
        for (_, _, path, len) in files {
            if *disk <= budget {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                *disk = disk.saturating_sub(len);
                self.gc_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Claims the in-flight slot for `key`: [`InflightClaim::Owner`] when
    /// no identical computation is running (the caller must compute,
    /// [`ResultStore::put`], then [`ResultStore::complete`]), or
    /// [`InflightClaim::Waiter`] carrying a receiver for the owner's
    /// result. Keyed by the full canonical key — a digest collision can
    /// never coalesce two different requests.
    pub fn claim(&self, key: &str) -> InflightClaim {
        let mut inflight = self.inflight.lock().expect("store inflight lock poisoned");
        match inflight.get_mut(key) {
            Some(waiters) => {
                let (tx, rx) = mpsc::channel();
                waiters.push(tx);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                InflightClaim::Waiter(rx)
            }
            None => {
                inflight.insert(key.to_owned(), Vec::new());
                InflightClaim::Owner
            }
        }
    }

    /// Releases the in-flight slot for `key`, sending `result` to every
    /// waiter that attached while the owner computed. The owner must call
    /// this *after* [`ResultStore::put`], so a request arriving between
    /// the two either waits here or hits the store — never recomputes
    /// unnecessarily, and never misses the result.
    pub fn complete(&self, key: &str, result: &Result<String, String>) {
        let waiters = self
            .inflight
            .lock()
            .expect("store inflight lock poisoned")
            .remove(key)
            .unwrap_or_default();
        for tx in waiters {
            // A gone waiter (client disconnected) is fine.
            let _ = tx.send(result.clone());
        }
    }

    /// The stored `(key, result)` under a content address, from memory
    /// or disk. Unlike [`ResultStore::get`] the caller knows only the
    /// digest, so both paths check that the stored key re-digests to it
    /// (the disk path also runs the file's schema checks); an entry that
    /// fails reads as `None`. Read-only: never counted as a hit or a
    /// miss (it is an inspection, not traffic). This is the read behind
    /// the daemon's `fetch` op.
    pub fn lookup_digest(&self, digest: &str) -> Option<(String, String)> {
        {
            let inner = self.inner.lock().expect("store lock poisoned");
            if let Some(entry) = inner.entries.get(digest) {
                return (digest_of(&entry.key) == digest)
                    .then(|| (entry.key.clone(), entry.result.clone()));
            }
        }
        let dir = self.dir.as_ref()?;
        read_entry_file(&entry_path(dir, digest)).map(|(_, key, result)| (key, result))
    }

    /// A snapshot of the store counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_skipped: self.corrupt_skipped.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            gc_evictions: self.gc_evictions.load(Ordering::Relaxed),
            tmp_swept: self.tmp_swept.load(Ordering::Relaxed),
            disk_bytes: *self.disk.lock().expect("store disk lock poisoned"),
            mem_entries: self.inner.lock().expect("store lock poisoned").entries.len(),
        }
    }
}

fn entry_path(dir: &Path, digest: &str) -> PathBuf {
    dir.join(format!("{digest}.json"))
}

/// Reads one stored entry directly from a store directory, without
/// opening a [`ResultStore`] — and therefore without the open-time side
/// effects (temp-file sweep, budget GC) that would be hostile to a
/// directory a live daemon is serving from. The read-only path `relim
/// viz --store` uses. `None` for missing or corrupt entries.
pub fn read_stored_entry(dir: &Path, digest: &str) -> Option<(String, String)> {
    read_entry_file(&entry_path(dir, digest)).map(|(_, key, result)| (key, result))
}

/// Reads and fully verifies one store file: parses, checks the schema
/// tag, re-digests the key and compares it to both the recorded digest
/// and the file name. `None` for missing or corrupt files.
fn read_entry_file(path: &Path) -> Option<(String, String, String)> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(&text).ok()?;
    if doc.get("schema").and_then(Json::as_str) != Some(STORE_SCHEMA) {
        return None;
    }
    let digest = doc.get("digest").and_then(Json::as_str)?.to_owned();
    let key = doc.get("key").and_then(Json::as_str)?.to_owned();
    let result = doc.get("result").and_then(Json::as_str)?.to_owned();
    if digest_of(&key) != digest {
        return None;
    }
    if path.file_stem().and_then(|s| s.to_str()) != Some(digest.as_str()) {
        return None;
    }
    Some((digest, key, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("relim-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_round_trip_and_verified_hits() {
        let store = ResultStore::in_memory(8);
        let key = "relim-store/1\nop=test\n";
        let digest = digest_of(key);
        assert_eq!(store.get(&digest, key), None);
        store.put(&digest, key, "the result\nbytes").unwrap();
        assert_eq!(store.get(&digest, key).as_deref(), Some("the result\nbytes"));
        // A forged digest with a different key is a miss, never a hit.
        assert_eq!(store.get(&digest, "some other key"), None);
        let stats = store.stats();
        assert_eq!((stats.mem_hits, stats.misses, stats.stores), (1, 2, 1));
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let store = ResultStore::in_memory(2);
        let keys: Vec<String> = (0..4).map(|i| format!("key-{i}")).collect();
        for key in &keys {
            store.put(&digest_of(key), key, key).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.mem_entries, 2);
        assert_eq!(stats.evictions, 2);
        // Newest two survive, oldest two are gone (memory-only store).
        assert_eq!(store.get(&digest_of(&keys[3]), &keys[3]).as_deref(), Some("key-3"));
        assert_eq!(store.get(&digest_of(&keys[0]), &keys[0]), None);
    }

    #[test]
    fn persistent_store_survives_reopen_byte_identically() {
        let dir = tmp_dir("reopen");
        let key = "relim-store/1\nop=test\nproblem:\nN (degree 3):\nM M M\n";
        let digest = digest_of(key);
        let result = "line one\nline \"two\" with ünïcode\n";
        {
            let store = ResultStore::persistent(&dir, 8).unwrap();
            store.put(&digest, key, result).unwrap();
        }
        let reopened = ResultStore::persistent(&dir, 8).unwrap();
        assert_eq!(reopened.get(&digest, key).as_deref(), Some(result));
        assert_eq!(reopened.stats().mem_hits, 1, "reopen loads into memory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_falls_back_to_disk() {
        let dir = tmp_dir("fallback");
        let store = ResultStore::persistent(&dir, 1).unwrap();
        let (k1, k2) = ("first key", "second key");
        store.put(&digest_of(k1), k1, "first result").unwrap();
        store.put(&digest_of(k2), k2, "second result").unwrap(); // evicts k1 from memory
        assert_eq!(store.stats().mem_entries, 1);
        assert_eq!(store.get(&digest_of(k1), k1).as_deref(), Some("first result"));
        assert_eq!(store.stats().disk_hits, 1, "evicted entry served from disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claim_coalesces_waiters_until_complete() {
        let store = ResultStore::in_memory(8);
        let key = "relim-store/1\nop=test\ncoalesce\n";
        assert!(matches!(store.claim(key), InflightClaim::Owner));
        let InflightClaim::Waiter(rx1) = store.claim(key) else {
            panic!("second claim must coalesce")
        };
        let InflightClaim::Waiter(rx2) = store.claim(key) else {
            panic!("third claim must coalesce")
        };
        // A *different* key is its own computation, never coalesced.
        assert!(matches!(store.claim("another key"), InflightClaim::Owner));
        assert_eq!(store.stats().coalesced, 2);

        store.complete(key, &Ok("the bytes".to_owned()));
        assert_eq!(rx1.recv().unwrap().unwrap(), "the bytes");
        assert_eq!(rx2.recv().unwrap().unwrap(), "the bytes");
        // The slot is free again: the next identical request owns it.
        assert!(matches!(store.claim(key), InflightClaim::Owner));
        store.complete(key, &Err("boom".to_owned()));
        store.complete("another key", &Ok(String::new()));
    }

    #[test]
    fn budget_gc_deletes_oldest_first_and_reput_repersists() {
        let dir = tmp_dir("gc");
        // Each entry file is ~130 bytes; a 300-byte budget holds two.
        let store = ResultStore::persistent_with_budget(&dir, 1, Some(300)).unwrap();
        let keys: Vec<String> = (0..3).map(|i| format!("gc key {i}")).collect();
        for key in &keys {
            store.put(&digest_of(key), key, "result payload").unwrap();
            // Distinct mtimes even on coarse-grained filesystems.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let stats = store.stats();
        assert!(stats.gc_evictions >= 1, "{stats:?}");
        assert!(stats.disk_bytes <= 300, "{stats:?}");
        // The newest entry is never the GC victim.
        assert!(dir.join(format!("{}.json", digest_of(&keys[2]))).is_file());
        // The oldest was collected; with mem capacity 1 it is a full miss.
        assert!(!dir.join(format!("{}.json", digest_of(&keys[0]))).is_file());
        assert_eq!(store.get(&digest_of(&keys[0]), &keys[0]), None);
        // Re-putting the collected entry re-persists it.
        store.put(&digest_of(&keys[0]), &keys[0], "result payload").unwrap();
        assert!(dir.join(format!("{}.json", digest_of(&keys[0]))).is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_gc_breaks_equal_mtime_ties_by_digest() {
        let dir = tmp_dir("gc-ties");
        // Entries written with budget off, then *forced* onto one
        // shared mtime — the coarse-filesystem burst scenario.
        let keys: Vec<String> = (0..4).map(|i| format!("tie key {i}")).collect();
        {
            let store = ResultStore::persistent(&dir, 8).unwrap();
            for key in &keys {
                store.put(&digest_of(key), key, "result payload").unwrap();
            }
        }
        let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        let mut digests: Vec<String> = keys.iter().map(|k| digest_of(k)).collect();
        for digest in &digests {
            let file = std::fs::File::options()
                .write(true)
                .open(dir.join(format!("{digest}.json")))
                .unwrap();
            file.set_modified(stamp).unwrap();
        }
        // Each entry file is ~130 bytes; a 300-byte budget keeps two.
        // With all mtimes equal, the victims must be exactly the two
        // smallest digests — insertion order is irrelevant.
        let store = ResultStore::persistent_with_budget(&dir, 8, Some(300)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.gc_evictions, 2, "{stats:?}");
        digests.sort();
        assert!(!dir.join(format!("{}.json", digests[0])).is_file(), "smallest digest dies first");
        assert!(!dir.join(format!("{}.json", digests[1])).is_file());
        assert!(dir.join(format!("{}.json", digests[2])).is_file());
        assert!(dir.join(format!("{}.json", digests[3])).is_file(), "largest digest survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_gc_trims_an_inherited_directory_at_open() {
        let dir = tmp_dir("gc-open");
        {
            let unbounded = ResultStore::persistent(&dir, 8).unwrap();
            for i in 0..4 {
                let key = format!("open key {i}");
                unbounded.put(&digest_of(&key), &key, "result payload").unwrap();
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            assert_eq!(unbounded.stats().gc_evictions, 0, "no budget, no GC");
        }
        let store = ResultStore::persistent_with_budget(&dir, 8, Some(300)).unwrap();
        let stats = store.stats();
        assert!(stats.gc_evictions >= 1, "{stats:?}");
        assert!(stats.disk_bytes <= 300, "{stats:?}");
        // The newest entry survived the trim.
        assert!(dir.join(format!("{}.json", digest_of("open key 3"))).is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_temp_files_are_swept_at_open() {
        let dir = tmp_dir("tmp-sweep");
        let key = "crash key";
        let digest = digest_of(key);
        {
            let store = ResultStore::persistent(&dir, 8).unwrap();
            store.put(&digest, key, "survivor").unwrap();
        }
        // Simulate a crash mid-`put`: temp files written but never
        // renamed (one from this "process", one from an older pid).
        std::fs::write(dir.join(format!(".tmp-{}-7-{digest}", std::process::id())), "half")
            .unwrap();
        std::fs::write(dir.join(format!(".tmp-1-0-{digest}")), "older half").unwrap();
        let store = ResultStore::persistent(&dir, 8).unwrap();
        let stats = store.stats();
        assert_eq!(stats.tmp_swept, 2, "{stats:?}");
        assert_eq!(stats.corrupt_skipped, 0, "temp files never count as corrupt entries");
        let survivors: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().and_then(|e| e.file_name().to_str().map(str::to_owned)))
            .collect();
        assert_eq!(survivors, vec![format!("{digest}.json")], "only the real entry remains");
        // The byte accounting covers exactly the surviving entry.
        assert_eq!(store.get(&digest, key).as_deref(), Some("survivor"));
        let entry_len = std::fs::metadata(entry_path(&dir, &digest)).unwrap().len();
        assert_eq!(stats.disk_bytes, entry_len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_lookup_reads_memory_and_disk_without_counting_traffic() {
        let dir = tmp_dir("lookup");
        let store = ResultStore::persistent(&dir, 1).unwrap();
        let (k1, k2) = ("lookup key 1", "lookup key 2");
        store.put(&digest_of(k1), k1, "r1").unwrap();
        store.put(&digest_of(k2), k2, "r2").unwrap(); // evicts k1 to disk-only
        let (key, result) = store.lookup_digest(&digest_of(k2)).unwrap();
        assert_eq!((key.as_str(), result.as_str()), (k2, "r2"), "memory path");
        let (key, result) = store.lookup_digest(&digest_of(k1)).unwrap();
        assert_eq!((key.as_str(), result.as_str()), (k1, "r1"), "disk path");
        assert_eq!(store.lookup_digest("0000"), None);
        let stats = store.stats();
        assert_eq!((stats.mem_hits, stats.disk_hits, stats.misses), (0, 0, 0), "{stats:?}");
        // The free-function form reads the same bytes with no store open.
        assert_eq!(read_stored_entry(&dir, &digest_of(k1)), Some((k1.to_owned(), "r1".to_owned())));
        // A memory entry whose key does not re-digest to its address is
        // never served by address.
        let memory = ResultStore::in_memory(4);
        let forged = digest_of(k1);
        memory.put(&forged, k2, "poison").unwrap();
        assert_eq!(memory.get(&forged, k2).as_deref(), Some("poison"), "the entry is resident");
        assert_eq!(memory.lookup_digest(&forged), None, "memory path re-digests the key");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_skipped_and_overwritten() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let key = "a key";
        let digest = digest_of(key);
        // Three corruption flavors: garbage bytes, valid JSON with a
        // digest that does not match its key, and a wrong schema tag.
        std::fs::write(dir.join(format!("{digest}.json")), "not json {{{").unwrap();
        let lying = Json::Obj(vec![
            ("schema".into(), Json::str(STORE_SCHEMA)),
            ("digest".into(), Json::str(&digest)),
            ("key".into(), Json::str("a DIFFERENT key")),
            ("result".into(), Json::str("poison")),
        ]);
        std::fs::write(dir.join("lying.json"), lying.render()).unwrap();
        std::fs::write(dir.join("old.json"), "{\"schema\": \"relim-store/0\"}").unwrap();

        let store = ResultStore::persistent(&dir, 8).unwrap();
        assert_eq!(store.stats().corrupt_skipped, 3, "{:?}", store.stats());
        assert_eq!(store.get(&digest, key), None, "corrupt entry must read as a miss");
        // Recovery: the next put simply overwrites the bad file.
        store.put(&digest, key, "good result").unwrap();
        let reopened = ResultStore::persistent(&dir, 8).unwrap();
        assert_eq!(reopened.get(&digest, key).as_deref(), Some("good result"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
