//! Checkpointed corpus sweeps: a framed JSON-lines journal of completed
//! [`AppRecord`]s.
//!
//! Every record finished by [`crate::Pipeline::run_resumable`] is
//! appended as one framed line (see [`crate::durable`]): a CRC32-checked,
//! sequence-numbered envelope around the record's JSON. A sweep killed
//! mid-flight loses at most the apps that were in progress; on restart
//! the journal is scanned for its longest valid prefix, already-analysed
//! packages are skipped, and the sweep continues. Torn tails, bit rot,
//! and lost records are all detected by the frame scan rather than
//! trusted to JSON parsing.
//!
//! The journal also owns the sweep's **quarantine file**
//! (`<journal>.quarantine.jsonl`): apps repeatedly caught in-flight at a
//! crash accumulate attempts there, and past a configured threshold the
//! pipeline skips them with an analysis-failure record instead of
//! letting one poisonous app wedge every resume.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::durable::{
    atomic_write_frames, encode_records, load_records, Appended, FramedWriter, IoHarness,
    SinkOptions, StreamKind,
};
use crate::pipeline::AppRecord;

/// A framed JSON-lines checkpoint file of completed app records.
#[derive(Debug, Clone)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// A journal at `path`; the file need not exist yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Journal { path: path.into() }
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Path of the telemetry event stream written alongside this
    /// journal (`<journal>.events.jsonl`), used by resumed runs to
    /// stitch spans into one timeline.
    pub fn events_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(".events.jsonl");
        PathBuf::from(name)
    }

    /// Path of the provenance ledger written alongside this journal
    /// (`<journal>.provenance.jsonl`), holding one causal graph per
    /// analysed app (see [`crate::provenance`]).
    pub fn provenance_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(".provenance.jsonl");
        PathBuf::from(name)
    }

    /// Path of the quarantine file written alongside this journal
    /// (`<journal>.quarantine.jsonl`): one entry per app that was
    /// in-flight at a crash, with its interrupted-attempt count.
    pub fn quarantine_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(".quarantine.jsonl");
        PathBuf::from(name)
    }

    /// Path of the durable metrics snapshot stream written alongside
    /// this journal (`<journal>.metrics.jsonl`): periodic CRC-framed
    /// serializations of the metrics registry on the virtual clock,
    /// resume-stitched like the event stream (see `crate::profile`).
    pub fn metrics_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(".metrics.jsonl");
        PathBuf::from(name)
    }

    /// Path of the folded span-profile artifact written alongside this
    /// journal when a run completes (`<journal>.profile.folded`):
    /// collapsed-stack lines ready for flamegraph tooling. Written at
    /// finalize because the canonical event stream drops span lines.
    pub fn profile_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(".profile.folded");
        PathBuf::from(name)
    }

    /// Path of shard `k`'s journal (`<journal>.shard-K.jsonl`). During a
    /// multi-worker sweep each worker appends to the shard its app
    /// hashes to; `finalize` merges every shard back into the base
    /// journal and removes the shard files, so a completed run leaves
    /// the same single-file layout as a serial one.
    pub fn shard_path(&self, k: usize) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(format!(".shard-{k}.jsonl"));
        PathBuf::from(name)
    }

    /// Path of shard `k`'s provenance ledger
    /// (`<journal>.shard-K.provenance.jsonl`).
    pub fn shard_provenance_path(&self, k: usize) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(format!(".shard-{k}.provenance.jsonl"));
        PathBuf::from(name)
    }

    /// Path of shard `k`'s telemetry event stream
    /// (`<journal>.shard-K.events.jsonl`).
    pub fn shard_events_path(&self, k: usize) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(format!(".shard-{k}.events.jsonl"));
        PathBuf::from(name)
    }

    /// A [`Journal`] view of shard `k`'s journal file, for recovery and
    /// frame verification of a pre-merge sharded layout.
    pub fn shard(&self, k: usize) -> Journal {
        Journal::new(self.shard_path(k))
    }

    /// Shard indices with a journal file on disk, ascending. Discovery
    /// is by directory scan, not configuration: a resumed run must
    /// recover whatever shard layout the killed session left, whatever
    /// worker count either run was configured with.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading the journal's directory (a
    /// missing directory is an empty layout).
    pub fn discover_shards(&self) -> io::Result<Vec<usize>> {
        let parent = match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let Some(file_name) = self.path.file_name().and_then(|n| n.to_str()) else {
            return Ok(Vec::new());
        };
        let prefix = format!("{file_name}.shard-");
        let mut shards = Vec::new();
        let entries = match std::fs::read_dir(&parent) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            // `<prefix>K.jsonl` is a shard journal; `K.provenance.jsonl`
            // and `K.events.jsonl` are its sidecars, not journals.
            let Some(index) = rest.strip_suffix(".jsonl") else {
                continue;
            };
            if !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(k) = index.parse::<usize>() {
                    shards.push(k);
                }
            }
        }
        shards.sort_unstable();
        shards.dedup();
        Ok(shards)
    }

    /// Removes every shard file triplet (journal, provenance, events)
    /// discovered on disk; called after `finalize` has merged the shards
    /// into the base streams. Returns the number of shards removed.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from discovery or removal (files already gone
    /// are fine).
    pub fn remove_shards(&self) -> io::Result<usize> {
        let shards = self.discover_shards()?;
        for &k in &shards {
            for path in [
                self.shard_path(k),
                self.shard_provenance_path(k),
                self.shard_events_path(k),
            ] {
                match std::fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(shards.len())
    }

    /// Loads every record in the valid framed prefix. A missing file is
    /// an empty journal; the first torn, corrupt, or out-of-sequence
    /// frame ends the load (everything before it is kept).
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file not existing.
    pub fn load(&self) -> io::Result<Vec<AppRecord>> {
        Ok(load_records(&self.path)?.0)
    }

    /// Rewrites the journal to exactly `records`, reframed from
    /// sequence 0 (plain write; for recovery paths).
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn rewrite(&self, records: &[AppRecord]) -> io::Result<()> {
        std::fs::write(&self.path, encode_records(records))
    }

    /// Atomically replaces the journal with `records` in the given
    /// (corpus) order, reframed from sequence 0 — the completed-run
    /// finalize that makes same-seed runs byte-identical however the
    /// sweep interleaved or how many times it was resumed. Faults are
    /// routed through `harness` when present.
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn finalize_with(
        &self,
        records: &[AppRecord],
        harness: Option<&std::sync::Arc<IoHarness>>,
    ) -> io::Result<()> {
        atomic_write_frames(&self.path, encode_records(records), harness)
    }

    /// Opens the journal for appending with stand-alone sink options
    /// (default sync policy, no fault injection), creating the file if
    /// needed and truncating any torn tail so the sequence continues
    /// cleanly.
    ///
    /// # Errors
    ///
    /// Returns the underlying open error.
    pub fn writer(&self) -> io::Result<JournalWriter> {
        self.writer_with(SinkOptions::direct(StreamKind::Journal))
    }

    /// Like [`Journal::writer`], but with explicit sink options — the
    /// pipeline threads the run's shared [`crate::durable::IoState`],
    /// sync policy, and fault harness through here.
    ///
    /// # Errors
    ///
    /// Returns the underlying open error.
    pub fn writer_with(&self, opts: SinkOptions) -> io::Result<JournalWriter> {
        Ok(JournalWriter {
            inner: FramedWriter::open(&self.path, opts)?,
        })
    }

    /// Loads quarantine entries; a missing file is an empty list.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file not existing.
    pub fn load_quarantine(&self) -> io::Result<Vec<QuarantineEntry>> {
        Ok(load_records(&self.quarantine_path())?.0)
    }

    /// Rewrites the quarantine file to exactly `entries` (sorted by
    /// package for determinism); an empty list removes the file.
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn write_quarantine(&self, entries: &[QuarantineEntry]) -> io::Result<()> {
        let path = self.quarantine_path();
        if entries.is_empty() {
            return match std::fs::remove_file(&path) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e),
            };
        }
        let mut sorted: Vec<&QuarantineEntry> = entries.iter().collect();
        sorted.sort_by(|a, b| a.package.cmp(&b.package));
        std::fs::write(&path, encode_records(&sorted))
    }

    /// Deletes the journal file if present (start a sweep from scratch).
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file not existing.
    pub fn reset(&self) -> io::Result<()> {
        // The event stream, provenance ledger, quarantine file, metrics
        // stream, profile artifact, and any shard files all describe the
        // journal's records; a reset journal must not resume against
        // stale ones.
        self.remove_shards()?;
        for side in [
            self.events_path(),
            self.provenance_path(),
            self.quarantine_path(),
            self.metrics_path(),
            self.profile_path(),
        ] {
            match std::fs::remove_file(side) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// One quarantine entry: an app observed in-flight at a crash, with how
/// many resumes it has interrupted so far.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// The app's package name.
    pub package: String,
    /// Interrupted attempts accumulated across resumes.
    pub attempts: u32,
}

/// An append handle to a [`Journal`]. One framed record per line,
/// flushed per append so a kill loses at most in-flight apps; fsyncs
/// follow the sink's [`crate::durable::SyncPolicy`].
#[derive(Debug)]
pub struct JournalWriter {
    inner: FramedWriter,
}

impl JournalWriter {
    /// Appends one record as a framed JSON line.
    ///
    /// # Errors
    ///
    /// Returns the underlying write error (transient faults are retried
    /// within the run's budget first). The journal is never shed.
    pub fn append(&mut self, record: &AppRecord) -> io::Result<()> {
        let body = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        match self.inner.append_body(&body)? {
            Appended::Written | Appended::Shed => Ok(()),
        }
    }

    /// Sequence number the next appended record will carry.
    pub fn seq(&self) -> u64 {
        self.inner.seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DynamicOutcome, DynamicStatus};

    fn record(pkg: &str) -> AppRecord {
        AppRecord {
            package: pkg.to_string(),
            metadata: dydroid_workload::AppMetadata {
                category: 1,
                downloads: 10,
                rating_count: 2,
                avg_rating: 4.5,
            },
            decompiled: true,
            filter: Default::default(),
            obfuscation: Default::default(),
            rewritten: false,
            dynamic: Some(DynamicOutcome::empty(DynamicStatus::Exercised)),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dydroid_journal_{tag}_{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn round_trips_records() {
        let journal = Journal::new(temp_path("roundtrip"));
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.a")).unwrap();
            w.append(&record("com.b")).unwrap();
        }
        let loaded = journal.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].package, "com.a");
        assert_eq!(loaded[1].package, "com.b");
        // Every line is a framed envelope that still parses as JSON.
        let text = std::fs::read_to_string(journal.path()).unwrap();
        for line in text.lines() {
            let v: serde::Value = serde_json::from_str(line).expect("frame is JSON");
            assert!(v.get("seq").is_some());
            assert!(v.get("crc").is_some());
            assert!(v.get("body").and_then(|b| b.get("package")).is_some());
        }
        journal.reset().unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let journal = Journal::new(temp_path("missing"));
        journal.reset().unwrap();
        assert!(journal.load().unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = temp_path("torn");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.whole")).unwrap();
        }
        // Simulate a kill mid-append: garbage half-line at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"seq\":1,\"len\":231,\"crc\":17,\"body\":{\"package\":\"com.torn");
        std::fs::write(&path, text).unwrap();
        let loaded = journal.load().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].package, "com.whole");
        journal.reset().unwrap();
    }

    #[test]
    fn recover_truncates_the_torn_tail() {
        let path = temp_path("recover");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.whole")).unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"package\":\"com.torn\",\"metad");
        std::fs::write(&path, text).unwrap();
        // Recovery rewrites a torn journal to its valid prefix, so appends
        // after it land on a clean file and a full reload sees both records.
        let survivors = journal.load().unwrap();
        assert_eq!(survivors.len(), 1);
        journal.rewrite(&survivors).unwrap();
        journal
            .writer()
            .unwrap()
            .append(&record("com.later"))
            .unwrap();
        let loaded = journal.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[1].package, "com.later");
        journal.reset().unwrap();
    }

    #[test]
    fn recovery_counts_dropped_lines() {
        let path = temp_path("counted");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.whole")).unwrap();
        }
        // A clean journal recovers with zero drops.
        let (clean, dropped) = load_records::<AppRecord>(&path).unwrap();
        assert_eq!(clean.len(), 1);
        assert_eq!(dropped, 0);
        // Corrupt middle line: it and everything after it is dropped
        // and counted.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"package\":\"com.torn\",\"metad\n");
        text.push_str("not json either\n");
        std::fs::write(&path, text).unwrap();
        let (recovered, dropped) = load_records::<AppRecord>(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(dropped, 2);
        journal.reset().unwrap();
    }

    #[test]
    fn a_flipped_bit_is_detected_and_dropped() {
        let path = temp_path("bitflip");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.a")).unwrap();
            w.append(&record("com.b")).unwrap();
        }
        // Flip one bit inside the second record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() - 20;
        bytes[target] ^= 0b0000_0100;
        std::fs::write(&path, &bytes).unwrap();
        let (recovered, dropped) = load_records::<AppRecord>(&path).unwrap();
        assert_eq!(recovered.len(), 1, "corrupt record must drop");
        assert_eq!(recovered[0].package, "com.a");
        assert_eq!(dropped, 1);
        journal.reset().unwrap();
    }

    #[test]
    fn finalize_is_byte_deterministic_and_atomic() {
        let path = temp_path("finalize");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        let records = vec![record("com.a"), record("com.b")];
        journal.finalize_with(&records, None).unwrap();
        let first = std::fs::read(&path).unwrap();
        // Append out-of-band garbage, then finalize again: identical bytes.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, b"garbage"))
            .unwrap();
        journal.finalize_with(&records, None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        assert_eq!(journal.load().unwrap().len(), 2);
        journal.reset().unwrap();
    }

    #[test]
    fn events_path_sits_beside_the_journal() {
        let journal = Journal::new("/tmp/sweep.jsonl");
        assert_eq!(
            journal.events_path(),
            PathBuf::from("/tmp/sweep.jsonl.events.jsonl")
        );
    }

    #[test]
    fn provenance_path_sits_beside_the_journal() {
        let journal = Journal::new("/tmp/sweep.jsonl");
        assert_eq!(
            journal.provenance_path(),
            PathBuf::from("/tmp/sweep.jsonl.provenance.jsonl")
        );
    }

    #[test]
    fn metrics_and_profile_paths_sit_beside_the_journal() {
        let journal = Journal::new("/tmp/sweep.jsonl");
        assert_eq!(
            journal.metrics_path(),
            PathBuf::from("/tmp/sweep.jsonl.metrics.jsonl")
        );
        assert_eq!(
            journal.profile_path(),
            PathBuf::from("/tmp/sweep.jsonl.profile.folded")
        );
        // The metrics sidecar must never register as a shard journal.
        let dir = std::env::temp_dir().join(format!("dydroid_metrics_disc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = Journal::new(dir.join("sweep.jsonl"));
        j.reset().unwrap();
        std::fs::write(j.metrics_path(), b"").unwrap();
        assert!(j.discover_shards().unwrap().is_empty());
        j.reset().unwrap();
        assert!(!j.metrics_path().exists(), "reset removes the stream");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_removes_the_provenance_ledger() {
        let journal = Journal::new(temp_path("prov_reset"));
        journal.reset().unwrap();
        std::fs::write(journal.provenance_path(), "{}\n").unwrap();
        journal.reset().unwrap();
        assert!(!journal.provenance_path().exists());
    }

    #[test]
    fn quarantine_round_trips_and_empties_away() {
        let journal = Journal::new(temp_path("quarantine"));
        journal.reset().unwrap();
        assert!(journal.load_quarantine().unwrap().is_empty());
        let entries = vec![
            QuarantineEntry {
                package: "com.b".to_string(),
                attempts: 2,
            },
            QuarantineEntry {
                package: "com.a".to_string(),
                attempts: 1,
            },
        ];
        journal.write_quarantine(&entries).unwrap();
        let loaded = journal.load_quarantine().unwrap();
        // Stored sorted by package for deterministic reporting.
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].package, "com.a");
        assert_eq!(loaded[1].package, "com.b");
        assert_eq!(loaded[1].attempts, 2);
        journal.write_quarantine(&[]).unwrap();
        assert!(!journal.quarantine_path().exists());
        journal.reset().unwrap();
    }

    #[test]
    fn reset_removes_the_quarantine_file() {
        let journal = Journal::new(temp_path("quarantine_reset"));
        journal.reset().unwrap();
        journal
            .write_quarantine(&[QuarantineEntry {
                package: "com.q".to_string(),
                attempts: 3,
            }])
            .unwrap();
        journal.reset().unwrap();
        assert!(!journal.quarantine_path().exists());
    }

    #[test]
    fn shard_paths_sit_beside_the_journal() {
        let journal = Journal::new("/tmp/sweep.jsonl");
        assert_eq!(
            journal.shard_path(3),
            PathBuf::from("/tmp/sweep.jsonl.shard-3.jsonl")
        );
        assert_eq!(
            journal.shard_provenance_path(3),
            PathBuf::from("/tmp/sweep.jsonl.shard-3.provenance.jsonl")
        );
        assert_eq!(
            journal.shard_events_path(3),
            PathBuf::from("/tmp/sweep.jsonl.shard-3.events.jsonl")
        );
    }

    #[test]
    fn shard_discovery_finds_journals_not_sidecars() {
        let dir = std::env::temp_dir().join(format!("dydroid_shard_disc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::new(dir.join("sweep.jsonl"));
        journal.reset().unwrap();
        assert!(journal.discover_shards().unwrap().is_empty());
        // Two shard journals, one with sidecars, plus decoys that must
        // not register as shards.
        for path in [
            journal.shard_path(0),
            journal.shard_path(2),
            journal.shard_provenance_path(2),
            journal.shard_events_path(2),
            dir.join("sweep.jsonl.shard-x.jsonl"),
            dir.join("other.jsonl.shard-1.jsonl"),
        ] {
            std::fs::write(path, b"").unwrap();
        }
        assert_eq!(journal.discover_shards().unwrap(), vec![0, 2]);
        // Removal clears the full triplet of every discovered shard.
        assert_eq!(journal.remove_shards().unwrap(), 2);
        assert!(journal.discover_shards().unwrap().is_empty());
        assert!(!journal.shard_provenance_path(2).exists());
        assert!(!journal.shard_events_path(2).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_removes_shard_files() {
        let dir = std::env::temp_dir().join(format!("dydroid_shard_reset_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::new(dir.join("sweep.jsonl"));
        journal.reset().unwrap();
        std::fs::write(journal.shard_path(1), b"").unwrap();
        std::fs::write(journal.shard_events_path(1), b"").unwrap();
        journal.reset().unwrap();
        assert!(!journal.shard_path(1).exists());
        assert!(!journal.shard_events_path(1).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_journal_round_trips_records() {
        let dir = std::env::temp_dir().join(format!("dydroid_shard_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::new(dir.join("sweep.jsonl"));
        journal.reset().unwrap();
        {
            let mut w = journal.shard(0).writer().unwrap();
            w.append(&record("com.shard0")).unwrap();
        }
        {
            let mut w = journal.shard(1).writer().unwrap();
            w.append(&record("com.shard1a")).unwrap();
            w.append(&record("com.shard1b")).unwrap();
        }
        assert_eq!(journal.discover_shards().unwrap(), vec![0, 1]);
        assert_eq!(journal.shard(0).load().unwrap().len(), 1);
        let shard1 = journal.shard(1).load().unwrap();
        assert_eq!(shard1.len(), 2);
        assert_eq!(shard1[0].package, "com.shard1a");
        // Per-shard sequences each start at 0.
        let scan = crate::durable::scan_path(&journal.shard_path(1))
            .unwrap()
            .unwrap();
        assert_eq!(scan.next_seq, 2);
        assert_eq!(scan.dropped, 0);
        journal.reset().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_load_continues_file() {
        let journal = Journal::new(temp_path("resume"));
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.first")).unwrap();
            assert_eq!(w.seq(), 1);
        }
        {
            let mut w = journal.writer().unwrap();
            assert_eq!(w.seq(), 1, "sequence continues across sessions");
            w.append(&record("com.second")).unwrap();
        }
        assert_eq!(journal.load().unwrap().len(), 2);
        journal.reset().unwrap();
    }
}
