//! The per-app analysis pipeline and the parallel corpus sweep.
//!
//! The sweep is fault-tolerant: every app is analysed under
//! [`std::panic::catch_unwind`] with a per-app deadline and bounded
//! retries, so one hostile app can neither kill a worker nor stall the
//! corpus. See `DESIGN.md`, "Failure taxonomy & fault tolerance".

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

use crossbeam::channel;
use dydroid_analysis::decompiler::{self, DecompileError};
use dydroid_analysis::entity::EntityMix;
use dydroid_analysis::obfuscation::{self, ObfuscationReport};
use dydroid_analysis::taint::{Leak, PrivacyType, TaintAnalysis};
use dydroid_analysis::{DclFilter, MalwareDetector, VulnKind};
use dydroid_avm::{DclEvent, Device, Owner};
use dydroid_monkey::{ExerciseOutcome, Monkey, MonkeyConfig};
use dydroid_workload::{AppMetadata, SyntheticApp};
use serde::{Deserialize, Serialize};

use crate::cache::{content_hash, AnalysisCache, BinaryVerdict, CacheStats};
use crate::config::PipelineConfig;
use crate::durable::{
    load_records, visit_path, FramedWriter, IoHarness, IoState, SinkOptions, StreamKind,
};
use crate::profile::{SpanProfile, StragglerEntry, Watchdog};
use crate::provenance::{AppProvenance, ProvenanceLedger};
use crate::report::{MeasurementReport, SweepStats};
use crate::scheduler::{idle_workers, virtual_makespan_us, Lane, Scheduler, WorkerStats};
use crate::sweep::QuarantineEntry;
use crate::telemetry::{
    EventLine, EventReadback, HistogramSummary, MetricsSnapshot, Progress, SpanRecord, Telemetry,
};
use crate::training;

/// Outcome category of the dynamic phase (Table II rows).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DynamicStatus {
    /// Repackaging (permission injection) crashed.
    RewriteFailure,
    /// No launchable activity: the Monkey cannot drive the app.
    NoActivity,
    /// The app crashed at runtime.
    Crash,
    /// Successfully exercised.
    Exercised,
    /// The *harness* failed on this app — an analyzer panic, a blown
    /// per-app deadline, or a resource-sanity rejection — as opposed to
    /// the app itself failing. Table II reports these separately so
    /// harness bugs cannot masquerade as app behaviour.
    AnalysisFailure {
        /// Human-readable cause (panic message, deadline report, ...).
        reason: String,
    },
}

/// A malware detection hit on one intercepted file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MalwareHit {
    /// Path of the loaded file.
    pub path: String,
    /// Matched family.
    pub family: String,
    /// ACFG match score.
    pub score: f64,
    /// Whether the file was native code.
    pub native: bool,
}

/// A privacy type leaked by an app's loaded code, with entity attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakSummary {
    /// The leaked type.
    pub privacy: PrivacyType,
    /// Whether every leaking class lives outside the app package.
    pub exclusively_third_party: bool,
}

/// Results of the dynamic phase for one app.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicOutcome {
    /// Status category.
    pub status: DynamicStatus,
    /// Successful DEX DCL events.
    pub dex_events: Vec<DclEvent>,
    /// Successful native DCL events.
    pub native_events: Vec<DclEvent>,
    /// Remote-provenance loads: `(loaded path, source URLs)`.
    pub remote_loads: Vec<(String, Vec<String>)>,
    /// Entity mix of DEX loads.
    pub dex_entity: EntityMix,
    /// Entity mix of native loads.
    pub native_entity: EntityMix,
    /// Code-injection vulnerability classifications.
    pub vulns: Vec<VulnKind>,
    /// Malware detections over intercepted binaries.
    pub malware: Vec<MalwareHit>,
    /// Raw taint leaks from intercepted DEX code.
    pub leaks: Vec<Leak>,
    /// Per-type leak summary with entity exclusivity.
    pub leak_types: Vec<LeakSummary>,
}

impl DynamicOutcome {
    /// An outcome with the given status and no observations.
    pub fn empty(status: DynamicStatus) -> Self {
        DynamicOutcome {
            status,
            dex_events: Vec::new(),
            native_events: Vec::new(),
            remote_loads: Vec::new(),
            dex_entity: EntityMix::default(),
            native_entity: EntityMix::default(),
            vulns: Vec::new(),
            malware: Vec::new(),
            leaks: Vec::new(),
            leak_types: Vec::new(),
        }
    }

    /// A harness-failure outcome with the given reason.
    pub fn failure(reason: impl Into<String>) -> Self {
        DynamicOutcome::empty(DynamicStatus::AnalysisFailure {
            reason: reason.into(),
        })
    }
}

/// The full analysis record of one app.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppRecord {
    /// Package name.
    pub package: String,
    /// Store metadata (popularity, category).
    pub metadata: AppMetadata,
    /// Whether decompilation succeeded.
    pub decompiled: bool,
    /// Static DCL filter result.
    pub filter: DclFilter,
    /// Obfuscation detector results.
    pub obfuscation: ObfuscationReport,
    /// Whether the app was rewritten (permission injection).
    pub rewritten: bool,
    /// Dynamic phase results; `None` when the app never entered it.
    pub dynamic: Option<DynamicOutcome>,
}

impl AppRecord {
    /// Whether DEX DCL was intercepted for this app.
    pub fn dex_intercepted(&self) -> bool {
        self.dynamic
            .as_ref()
            .map(|d| d.status == DynamicStatus::Exercised && !d.dex_events.is_empty())
            .unwrap_or(false)
    }

    /// Whether native DCL was intercepted for this app.
    pub fn native_intercepted(&self) -> bool {
        self.dynamic
            .as_ref()
            .map(|d| d.status == DynamicStatus::Exercised && !d.native_events.is_empty())
            .unwrap_or(false)
    }

    /// The harness-failure reason, if the harness (not the app) failed.
    pub fn harness_failure(&self) -> Option<&str> {
        match self.dynamic.as_ref().map(|d| &d.status) {
            Some(DynamicStatus::AnalysisFailure { reason }) => Some(reason),
            _ => None,
        }
    }
}

/// The DyDroid pipeline.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    detector: MalwareDetector,
    cache: AnalysisCache,
    telemetry: Telemetry,
    io_harness: Option<Arc<IoHarness>>,
}

impl Pipeline {
    /// Creates a pipeline, training the reference malware detector (the
    /// inverted block index is built once here, at train time).
    pub fn new(config: PipelineConfig) -> Self {
        let telemetry = Telemetry::new(config.telemetry);
        let detector = training::reference_detector_traced(config.malware_threshold, &telemetry);
        let cache = if config.analysis_cache {
            AnalysisCache::new(config.cache_shards)
        } else {
            AnalysisCache::disabled()
        }
        .with_telemetry(telemetry.clone());
        Pipeline {
            config,
            detector,
            cache,
            telemetry,
            io_harness: None,
        }
    }

    /// Attaches an I/O fault harness: every persistent-stream write of
    /// subsequent runs is routed through it, so crash-torture tests can
    /// kill the sweep at any write boundary on the deterministic virtual
    /// op clock (see [`crate::durable`]).
    pub fn set_io_harness(&mut self, harness: Arc<IoHarness>) {
        self.io_harness = Some(harness);
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Sink options for `stream`, threading the run's shared I/O state,
    /// the configured sync policy, and any attached fault harness.
    fn sink_options(&self, stream: StreamKind, state: &Arc<IoState>) -> SinkOptions {
        SinkOptions {
            stream,
            policy: self.config.sync_policy,
            state: Arc::clone(state),
            harness: self.io_harness.clone(),
        }
    }

    /// The pipeline's telemetry handle (a no-op handle when
    /// `PipelineConfig::telemetry` is off).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A point-in-time snapshot of every telemetry metric — counters,
    /// gauges, and per-phase latency histograms (empty when telemetry is
    /// disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// A snapshot of the analysis-cache counters (monotonic across runs
    /// of this pipeline; see [`CacheStats::since`] for per-run deltas).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A snapshot of the signature-matcher counters (monotonic; see
    /// [`dydroid_analysis::DetectorStats::since`] for per-run deltas).
    pub fn detector_stats(&self) -> dydroid_analysis::DetectorStats {
        self.detector.stats()
    }

    /// Runs the full measurement over a corpus, in parallel, and returns
    /// the aggregated report. Per-app failures (panics, deadlines) are
    /// isolated into [`DynamicStatus::AnalysisFailure`] records; the
    /// sweep itself always completes.
    pub fn run(&self, corpus: &[SyntheticApp]) -> MeasurementReport {
        let cache_mark = self.cache.stats();
        let detector_mark = self.detector.stats();
        let avm_marks = self.avm_counter_marks();
        // Without a journal the ledger only materializes on disk when an
        // explicit path was configured; a fresh run starts it clean.
        let ledger = self.ledger_for(None);
        if let Some(ledger) = &ledger {
            if let Err(e) = ledger.reset() {
                eprintln!(
                    "dydroid: failed to reset ledger {}: {e}",
                    ledger.path().display()
                );
            }
        }
        let io_state = IoState::new(self.config.io_retry_budget);
        let ledger_writer = self.open_ledger_writer(ledger.as_ref(), &io_state);
        let observatory = Observatory::open(self, None, &io_state);
        let sweep_start = Instant::now();
        let indices: Vec<usize> = (0..corpus.len()).collect();
        let mut sweep_span = self.telemetry.span("sweep");
        sweep_span.field("apps", indices.len());
        let (results, worker_stats) = self.sweep(
            corpus,
            &indices,
            None,
            ledger_writer.as_ref(),
            None,
            &HashSet::new(),
            observatory.as_ref(),
            sweep_span.id(),
        );
        drop(sweep_span);
        drop(ledger_writer);
        if let Some(obs) = &observatory {
            obs.finish(self);
        }
        let sweep_ms = sweep_start.elapsed().as_millis() as u64;
        self.assemble(
            corpus,
            results,
            HashMap::new(),
            Vec::new(),
            ledger.as_ref(),
            None,
            &io_state,
            None,
            SweepPerf {
                worker_stats,
                stream_shards: 1,
                shard_contention: 0,
            },
            observatory,
            sweep_ms,
            cache_mark,
            detector_mark,
            avm_marks,
        )
    }

    /// The ledger backing this run's provenance records, if any: the
    /// configured `provenance_out` path wins, else the ledger sits
    /// beside the journal when one is in use.
    fn ledger_for(&self, journal: Option<&crate::sweep::Journal>) -> Option<ProvenanceLedger> {
        if !self.config.provenance {
            return None;
        }
        if let Some(path) = &self.config.provenance_out {
            return Some(ProvenanceLedger::new(path));
        }
        journal.map(|j| ProvenanceLedger::new(j.provenance_path()))
    }

    fn open_ledger_writer(
        &self,
        ledger: Option<&ProvenanceLedger>,
        io_state: &Arc<IoState>,
    ) -> Option<Mutex<crate::provenance::LedgerWriter>> {
        let ledger = ledger?;
        match ledger.writer_with(self.sink_options(StreamKind::Ledger, io_state)) {
            Ok(w) => Some(Mutex::new(w)),
            Err(e) => {
                eprintln!(
                    "dydroid: failed to open ledger {}: {e}",
                    ledger.path().display()
                );
                None
            }
        }
    }

    /// Marks of the monotonic avm truncation counters, for per-run
    /// deltas.
    fn avm_counter_marks(&self) -> AvmMarks {
        AvmMarks {
            events_dropped: self.telemetry.counter_value("avm.events_dropped"),
            flow_truncated: self.telemetry.counter_value("avm.flow_edges_truncated"),
            flow_deduped: self.telemetry.counter_value("avm.flow_edges_deduped"),
        }
    }

    /// Like [`Pipeline::run`], but streams every completed record to
    /// `journal` and skips corpus packages the journal already holds, so
    /// a killed sweep resumes where it left off.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading or appending the journal file;
    /// analysis failures never surface as errors.
    pub fn run_resumable(
        &self,
        corpus: &[SyntheticApp],
        journal: &crate::sweep::Journal,
    ) -> std::io::Result<MeasurementReport> {
        let recover_start = self.telemetry.now_us();
        let Recovered {
            mut outcome,
            readbacks,
            segment_spans,
        } = self.recover_streams(journal)?;
        let recovered = outcome.records.len();
        // Stitch spans from the previous session — base stream, then any
        // shard streams a killed multi-writer sweep left behind, in
        // ascending shard order — from the event bodies recovery already
        // parsed.
        let stitched: usize = readbacks
            .into_iter()
            .map(|readback| self.telemetry.stitch(readback))
            .sum();
        if stitched > 0 {
            self.telemetry
                .counter_add("telemetry.spans_stitched", stitched as u64);
        }
        // Only now may recovery's own spans take ids: the stitched spans
        // have moved the id counter past the prior session's.
        let recover_span = self.telemetry.span_since(
            "recover",
            recover_start,
            vec![
                ("segments", segment_spans.len().to_string()),
                ("records", recovered.to_string()),
            ],
        );
        if let Some(span) = recover_span {
            let recover_id = self.telemetry.record_span(span);
            for mut span in segment_spans {
                span.parent = recover_id;
                self.telemetry.record_span(span);
            }
        }
        let ledger = self.ledger_for(Some(journal));
        let io_state = IoState::new(self.config.io_retry_budget);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter_add("journal.recovered_records", recovered as u64);
            self.telemetry
                .counter_add("journal.dropped_lines", outcome.journal_dropped as u64);
            self.telemetry
                .counter_add("ledger.dropped_lines", outcome.ledger_dropped as u64);
            self.telemetry
                .counter_add("events.dropped_lines", outcome.events_dropped as u64);
            self.telemetry
                .counter_add("sweep.inconsistent_apps", outcome.inconsistent.len() as u64);
            self.telemetry
                .counter_add("sweep.quarantined_apps", outcome.quarantined.len() as u64);
            let events_path = journal.events_path();
            if let Err(e) = self.telemetry.set_event_sink_with(
                &events_path,
                self.sink_options(StreamKind::Events, &io_state),
            ) {
                eprintln!(
                    "dydroid: failed to open event sink {}: {e}",
                    events_path.display()
                );
            }
        }
        let mut done: HashMap<String, AppRecord> = std::mem::take(&mut outcome.records)
            .into_iter()
            .map(|r| (r.package.clone(), r))
            .collect();
        let prior_provenance = std::mem::take(&mut outcome.provenance);
        let writer =
            Mutex::new(journal.writer_with(self.sink_options(StreamKind::Journal, &io_state))?);
        let ledger_writer = self.open_ledger_writer(ledger.as_ref(), &io_state);
        // Apps that exhausted their interrupted-attempt budget are not
        // re-analysed: a deterministic failure record is persisted through
        // the normal journal/checkpoint/ledger path so all three streams
        // stay mutually consistent, then the app is excluded from the
        // pending set.
        for entry in &outcome.quarantine {
            if entry.attempts < self.config.quarantine_threshold
                || done.contains_key(entry.package.as_str())
            {
                continue;
            }
            let Some(app) = corpus.iter().find(|a| a.package() == entry.package) else {
                continue;
            };
            let record = self.failure_record(
                app,
                format!("quarantined after {} interrupted attempts", entry.attempts),
            );
            let append = writer
                .lock()
                .map_err(|p| std::io::Error::other(p.to_string()))
                .and_then(|mut w| w.append(&record));
            match append {
                Ok(()) => self.telemetry.emit_checkpoint(&record.package, 0),
                Err(e) => {
                    eprintln!("dydroid: journal append failed for {}: {e}", record.package)
                }
            }
            if let Some(ledger_writer) = &ledger_writer {
                let provenance = AppProvenance::from_record(&record);
                let append = ledger_writer
                    .lock()
                    .map_err(|p| std::io::Error::other(p.to_string()))
                    .and_then(|mut w| w.append(&provenance));
                match append {
                    Ok(()) => self.telemetry.emit_provenance_link(&record.package, 0),
                    Err(e) => {
                        eprintln!("dydroid: ledger append failed for {}: {e}", record.package)
                    }
                }
            }
            done.insert(record.package.clone(), record);
        }
        let pending: Vec<usize> = (0..corpus.len())
            .filter(|&i| !done.contains_key(corpus[i].package()))
            .collect();
        // Apps invalidated by recovery re-run in the low-priority retry
        // lane so a crash loop cannot starve first-pass coverage.
        let retry: HashSet<String> = outcome.inconsistent.iter().cloned().collect();
        // Multi-writer mode: with more than one shard resolved and real
        // work pending, every worker appends to its app's stream shard
        // and the collector only aggregates. A failure to open the
        // shards degrades to the single-writer collector path.
        let shard_count = self.config.resolved_stream_shards();
        let shards = if shard_count > 1 && pending.len() > 1 {
            match StreamShards::open(
                self,
                journal,
                ledger_writer.is_some(),
                shard_count,
                &io_state,
            ) {
                Ok(shards) => Some(shards),
                Err(e) => {
                    eprintln!(
                        "dydroid: failed to open stream shards: {e}; using single-writer path"
                    );
                    None
                }
            }
        } else {
            None
        };
        let cache_mark = self.cache.stats();
        let detector_mark = self.detector.stats();
        let avm_marks = self.avm_counter_marks();
        let observatory = Observatory::open(self, Some(journal), &io_state);
        let sweep_start = Instant::now();
        let mut sweep_span = self.telemetry.span("sweep");
        sweep_span.field("apps", pending.len());
        sweep_span.field("resumed", recovered);
        let (results, worker_stats) = self.sweep(
            corpus,
            &pending,
            if shards.is_none() {
                Some(&writer)
            } else {
                None
            },
            if shards.is_none() {
                ledger_writer.as_ref()
            } else {
                None
            },
            shards.as_ref(),
            &retry,
            observatory.as_ref(),
            sweep_span.id(),
        );
        drop(sweep_span);
        if let Some(obs) = &observatory {
            obs.finish(self);
        }
        let perf = SweepPerf {
            worker_stats,
            stream_shards: shards.as_ref().map_or(1, |s| s.shards.len()),
            shard_contention: shards.as_ref().map_or(0, StreamShards::contention),
        };
        // Close the shard writers before finalize merges and removes the
        // shard files (the telemetry shard sinks close inside
        // `finalize_event_sink`).
        drop(shards);
        drop(ledger_writer);
        let sweep_ms = sweep_start.elapsed().as_millis() as u64;
        let summary = RecoverySummary {
            recovered: recovered as u64,
            dropped: (outcome.journal_dropped + outcome.ledger_dropped + outcome.events_dropped)
                as u64,
            inconsistent: outcome.inconsistent.len() as u64,
            quarantined: outcome.quarantined,
        };
        Ok(self.assemble(
            corpus,
            results,
            done,
            prior_provenance,
            ledger.as_ref(),
            Some(journal),
            &io_state,
            Some(summary),
            perf,
            observatory,
            sweep_ms,
            cache_mark,
            detector_mark,
            avm_marks,
        ))
    }

    /// Reconciles the three persistent streams of an interrupted run —
    /// journal, provenance ledger, telemetry event stream — to their
    /// longest mutually consistent checkpoint prefix.
    ///
    /// Per stream, corrupt or torn frames are dropped (with a uniform
    /// stderr warning). The base journal and ledger are rewritten to the
    /// merged consistent set where it differs from what they hold; shard
    /// streams are merged into them and removed. Each segment (the base triplet or one shard's) is read
    /// once, on up to [`PipelineConfig::effective_workers`] threads.
    /// An app then counts as recovered only when every active stream
    /// holds it: a journal record, a ledger graph (when provenance is
    /// on), and a `checkpoint` event (when telemetry wrote an event
    /// stream). Apps present in some but not all streams are re-analysed;
    /// each such interruption bumps the app's quarantine attempt count,
    /// and apps at or over [`PipelineConfig::quarantine_threshold`] are
    /// reported in [`RecoveryOutcome::quarantined`] and skipped by
    /// [`Pipeline::run_resumable`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading or rewriting the journal and its
    /// quarantine sidecar; ledger and event-stream read failures degrade
    /// to warnings (their records are simply not recovered).
    pub fn recover_all(&self, journal: &crate::sweep::Journal) -> std::io::Result<RecoveryOutcome> {
        Ok(self.recover_streams(journal)?.outcome)
    }

    /// [`Pipeline::recover_all`], also handing back what a resumed run
    /// stitches into its timeline: each segment's event readback and
    /// recovery span, in merge order.
    fn recover_streams(&self, journal: &crate::sweep::Journal) -> std::io::Result<Recovered> {
        // The base triplet and every shard triplet a killed multi-writer
        // sweep left behind are reconciled with the same per-segment
        // rule: longest mutually consistent prefix of that segment's
        // journal, ledger, and checkpoint stream.
        let base_ledger = self.ledger_for(Some(journal));
        let shard_ids = journal.discover_shards()?;
        let mut segments = Vec::with_capacity(shard_ids.len() + 1);
        segments.push(Segment {
            shard: None,
            journal: journal.clone(),
            ledger: base_ledger.clone(),
            events_path: journal.events_path(),
        });
        for &k in &shard_ids {
            segments.push(Segment {
                shard: Some(k),
                journal: journal.shard(k),
                ledger: self
                    .config
                    .provenance
                    .then(|| ProvenanceLedger::new(journal.shard_provenance_path(k))),
                events_path: journal.shard_events_path(k),
            });
        }
        let recovered = self.recover_segments(&segments);

        // Merge: base records first, then shards in ascending shard
        // order, first record per package wins. Duplicates only arise
        // from a crash between the base finalize and shard removal,
        // where both copies are identical. The segments ran in
        // parallel, but each one's result depends only on its own
        // files, and the merge takes them in this fixed order.
        let mut base_record_count = 0usize;
        let mut base_checkpoints: Option<HashSet<String>> = None;
        let mut seen: HashSet<String> = HashSet::new();
        let mut consistent: Vec<AppRecord> = Vec::new();
        let mut provenance: Vec<AppProvenance> = Vec::new();
        let mut inconsistent: BTreeSet<String> = BTreeSet::new();
        let mut journal_dropped = 0usize;
        let mut ledger_dropped = 0usize;
        let mut events_dropped = 0usize;
        let mut base_journal_count = 0usize;
        let (mut base_torn, mut base_ledger_torn) = (false, false);
        let mut prov_by_pkg: HashMap<String, AppProvenance> = HashMap::new();
        let mut readbacks = Vec::new();
        let mut segment_spans = Vec::new();
        for (idx, segment) in recovered.into_iter().enumerate() {
            let segment = segment?;
            for warning in &segment.warnings {
                eprintln!("{warning}");
            }
            if let Some(mut events) = segment.events {
                let checkpoints = std::mem::take(&mut events.checkpoints);
                if idx == 0 {
                    base_checkpoints = Some(checkpoints);
                }
                readbacks.push(events);
            }
            segment_spans.extend(segment.span);
            if idx == 0 {
                base_journal_count = segment.journal_count;
                base_record_count = segment.records.len();
                base_torn = segment.journal_dropped > 0;
                base_ledger_torn = segment.ledger_dropped > 0;
            }
            journal_dropped += segment.journal_dropped;
            ledger_dropped += segment.ledger_dropped;
            events_dropped += segment.events_dropped;
            inconsistent.extend(segment.inconsistent);
            for p in segment.provenance {
                prov_by_pkg.entry(p.package.clone()).or_insert(p);
            }
            for record in segment.records {
                if seen.insert(record.package.clone()) {
                    if let Some(p) = prov_by_pkg.remove(record.package.as_str()) {
                        provenance.push(p);
                    }
                    consistent.push(record);
                }
            }
        }
        drop(prov_by_pkg);
        // A package consistent in any segment is recovered; it is not
        // re-analysed even if another segment holds a torn copy of it.
        inconsistent.retain(|p| !seen.contains(p.as_str()));
        let shards_contributed = consistent.len() > base_record_count;

        // Rewrite the base journal and ledger to the merged consistent
        // set so this session's appends extend files that agree with
        // each other (and hold everything the shards contributed). A
        // torn base file is rewritten too: segments only read, so this
        // is where its dropped tail goes. Shard files are not rewritten;
        // they are removed below.
        if consistent.len() != base_journal_count || shards_contributed || base_torn {
            journal.rewrite(&consistent)?;
        }
        if let Some(ledger) = &base_ledger {
            if !inconsistent.is_empty() || shards_contributed || base_ledger_torn {
                if let Err(e) = ledger.rewrite(&provenance) {
                    eprintln!(
                        "dydroid: failed to rewrite ledger {}: {e}",
                        ledger.path().display()
                    );
                }
            }
        }
        // Shard-contributed records have their checkpoint events only in
        // the shard streams being merged away: append the missing
        // per-app facts to the base stream so a later recovery still
        // sees every merged record as checkpointed.
        if self.telemetry.is_enabled() {
            let known = base_checkpoints.unwrap_or_default();
            let missing: Vec<&AppRecord> = consistent
                .iter()
                .filter(|r| !known.contains(r.package.as_str()))
                .collect();
            if !missing.is_empty() {
                let events_path = journal.events_path();
                let append = FramedWriter::open(&events_path, {
                    let mut opts = SinkOptions::direct(StreamKind::Events);
                    opts.harness = self.io_harness.clone();
                    opts
                })
                .and_then(|mut w| {
                    for record in &missing {
                        w.append_body(&canonical_event(&record.package, "checkpoint"))?;
                        if self.config.provenance {
                            w.append_body(&canonical_event(&record.package, "provenance"))?;
                        }
                    }
                    Ok(())
                });
                if let Err(e) = append {
                    eprintln!(
                        "dydroid: failed to merge shard checkpoints into {}: {e}",
                        events_path.display()
                    );
                }
            }
        }
        if !shard_ids.is_empty() {
            journal.remove_shards()?;
        }

        // Quarantine bookkeeping: every cross-stream-inconsistent app
        // burned one interrupted attempt; apps that completed since then
        // shed their entries.
        let mut quarantine = journal.load_quarantine()?;
        for package in &inconsistent {
            match quarantine.iter_mut().find(|e| &e.package == package) {
                Some(entry) => entry.attempts = entry.attempts.saturating_add(1),
                None => quarantine.push(QuarantineEntry {
                    package: package.clone(),
                    attempts: 1,
                }),
            }
        }
        quarantine.retain(|e| !seen.contains(e.package.as_str()));
        drop(seen);
        journal.write_quarantine(&quarantine)?;
        let quarantined: Vec<String> = quarantine
            .iter()
            .filter(|e| e.attempts >= self.config.quarantine_threshold)
            .map(|e| e.package.clone())
            .collect();

        Ok(Recovered {
            outcome: RecoveryOutcome {
                records: consistent,
                provenance,
                journal_dropped,
                ledger_dropped,
                events_dropped,
                inconsistent: inconsistent.into_iter().collect(),
                quarantine,
                quarantined,
            },
            readbacks,
            segment_spans,
        })
    }

    /// Recovers every segment on up to `effective_workers()` threads, one
    /// contiguous chunk of `segments` each, and returns the results in
    /// `segments` order. A segment only reads its own three files,
    /// through plain `std::fs`: nothing here writes or goes through the
    /// I/O harness, so the order segments finish in cannot change a byte
    /// or move the harness op clock.
    fn recover_segments(&self, segments: &[Segment]) -> Vec<std::io::Result<SegmentRecovery>> {
        let chunk = segments
            .len()
            .div_ceil(self.config.effective_workers())
            .max(1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = segments
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|s| self.recover_segment(s))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }

    /// Reconciles one segment — a (journal, ledger, events) triplet,
    /// either the base streams or one shard's — to its longest mutually
    /// consistent prefix. Pure read, each file once: rewrites happen at
    /// the merge layer. Warnings are returned rather than printed, so
    /// they come out in segment order.
    fn recover_segment(&self, segment: &Segment) -> std::io::Result<SegmentRecovery> {
        let started = self.telemetry.now_us();
        let mut warnings = Vec::new();
        let (journal_records, journal_dropped) = load_records::<AppRecord>(segment.journal.path())?;
        warnings.extend(dropped_warning(
            "journal",
            segment.journal.path(),
            journal_records.len(),
            journal_dropped,
        ));
        let journal_count = journal_records.len();

        let mut ledger_records: Vec<AppProvenance> = Vec::new();
        let mut ledger_dropped = 0usize;
        let mut ledger_active = false;
        if let Some(ledger) = &segment.ledger {
            match load_records::<AppProvenance>(ledger.path()) {
                Ok((records, dropped)) => {
                    warnings.extend(dropped_warning(
                        "ledger",
                        ledger.path(),
                        records.len(),
                        dropped,
                    ));
                    ledger_dropped = dropped;
                    ledger_records = records;
                    ledger_active = true;
                }
                Err(e) => warnings.push(format!(
                    "dydroid: failed to recover ledger {}: {e}",
                    ledger.path().display()
                )),
            }
        }

        // The event stream constrains recovery only when telemetry is
        // enabled and a stream exists: each `checkpoint` event mirrors a
        // successful journal append, so a journal record without one
        // belongs to the torn tail of the killed session. The same pass
        // gathers the spans a resumed run stitches.
        let mut events_dropped = 0usize;
        let mut events: Option<EventReadback> = None;
        if self.telemetry.is_enabled() {
            let events_path = &segment.events_path;
            let mut readback = EventReadback::default();
            match visit_path(events_path, |_, body| readback.read(body)) {
                Ok(Some(end)) => {
                    warnings.extend(dropped_warning(
                        "events",
                        events_path,
                        end.next_seq as usize,
                        end.dropped,
                    ));
                    events_dropped = end.dropped;
                    events = Some(readback);
                }
                Ok(None) => {}
                Err(e) => warnings.push(format!(
                    "dydroid: failed to scan events {}: {e}",
                    events_path.display()
                )),
            }
        }
        let checkpoints = events.as_ref().map(|e| &e.checkpoints);
        let ledgered: HashSet<&str> = ledger_records.iter().map(|p| p.package.as_str()).collect();
        let mut inconsistent: BTreeSet<String> = BTreeSet::new();
        let mut records: Vec<AppRecord> = Vec::new();
        for record in journal_records {
            let in_ledger = !ledger_active || ledgered.contains(record.package.as_str());
            let in_events = checkpoints.is_none_or(|c| c.contains(record.package.as_str()));
            if in_ledger && in_events {
                records.push(record);
            } else {
                inconsistent.insert(record.package.clone());
            }
        }
        drop(ledgered);
        let consistent_set: HashSet<&str> = records.iter().map(|r| r.package.as_str()).collect();
        for p in ledger_records
            .iter()
            .map(|p| p.package.as_str())
            .chain(checkpoints.into_iter().flatten().map(String::as_str))
        {
            if !consistent_set.contains(p) {
                inconsistent.insert(p.to_string());
            }
        }
        let provenance: Vec<AppProvenance> = ledger_records
            .into_iter()
            .filter(|p| consistent_set.contains(p.package.as_str()))
            .collect();
        drop(consistent_set);

        let span = self.telemetry.span_since(
            "segment",
            started,
            vec![
                (
                    "shard",
                    segment.shard.map_or("base".to_string(), |k| k.to_string()),
                ),
                ("records", records.len().to_string()),
                (
                    "dropped",
                    (journal_dropped + ledger_dropped + events_dropped).to_string(),
                ),
            ],
        );

        Ok(SegmentRecovery {
            records,
            provenance,
            journal_dropped,
            ledger_dropped,
            events_dropped,
            inconsistent,
            journal_count,
            events,
            warnings,
            span,
        })
    }

    /// The parallel worker loop. Every worker owns a two-lane deque in
    /// the work-stealing [`Scheduler`] (new work ahead of recovery
    /// re-scans) and analyses each app inside a panic-isolation
    /// boundary. With `shards` attached, the worker itself appends the
    /// finished record to its app's stream shard — no collector
    /// bottleneck; otherwise the collector owns the single-writer
    /// journal/ledger appends as before. Results flow through a bounded
    /// channel so a slow collector backpressures workers instead of
    /// buffering the whole corpus in memory.
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &self,
        corpus: &[SyntheticApp],
        indices: &[usize],
        journal: Option<&Mutex<crate::sweep::JournalWriter>>,
        ledger: Option<&Mutex<crate::provenance::LedgerWriter>>,
        shards: Option<&StreamShards>,
        retry: &HashSet<String>,
        observatory: Option<&Observatory>,
        parent_span: u64,
    ) -> (Vec<SweepItem>, Vec<WorkerStats>) {
        let workers = self.config.effective_workers().min(indices.len().max(1));
        let scheduler = Scheduler::new(workers);
        for (pos, &i) in indices.iter().enumerate() {
            let lane = if self.config.priority_lanes && retry.contains(corpus[i].package()) {
                Lane::Retry
            } else {
                Lane::New
            };
            scheduler.seed(pos % workers, i, lane);
        }
        if self.telemetry.is_enabled() {
            // Baseline gauges for the --progress line, the metrics
            // snapshots, and `dcltrace top`.
            self.telemetry.gauge_set("sweep.workers", workers as u64);
            self.telemetry
                .gauge_set("sweep.total_apps", indices.len() as u64);
            self.telemetry.gauge_set("sweep.done", 0);
        }
        let (result_tx, result_rx) =
            channel::bounded::<(usize, AppRecord, Option<AppProvenance>, u64, u64)>(4 * workers);
        let progress =
            (self.config.progress && !indices.is_empty()).then(|| Progress::new(indices.len()));

        // Collected outside the scope so partial results survive even a
        // worker-thread panic that escapes the per-app isolation.
        let collected: Mutex<Vec<SweepItem>> = Mutex::new(Vec::new());
        let scope_result = crossbeam::thread::scope(|scope| {
            for worker in 0..workers {
                let result_tx = result_tx.clone();
                let scheduler = &scheduler;
                scope.spawn(move |_| {
                    while let Some(i) = scheduler.next_task(worker) {
                        let app = &corpus[i];
                        // Scope this thread's event lines (spans, then the
                        // checkpoint/provenance links of the shard append)
                        // to the app's shard for the whole task.
                        let shard = shards.map(|s| s.shard_of(app));
                        let _scope = shard.map(|k| self.telemetry.event_shard_scope(Some(k)));
                        let started = Instant::now();
                        let (record, provenance, span_id, virtual_us) =
                            self.analyze_app_traced(app, parent_span);
                        if let (Some(shards), Some(k)) = (shards, shard) {
                            shards.append(
                                k,
                                &record,
                                provenance.as_ref(),
                                span_id,
                                &self.telemetry,
                            );
                        }
                        scheduler.note_executed(
                            worker,
                            started.elapsed().as_micros() as u64,
                            virtual_us,
                        );
                        if result_tx
                            .send((i, record, provenance, span_id, virtual_us))
                            .is_err()
                        {
                            // Receiver gone: the sweep is shutting down.
                            break;
                        }
                    }
                });
            }
            drop(result_tx);
            let mut collected_count = 0u64;
            while let Ok((i, record, provenance, span_id, virtual_us)) = result_rx.recv() {
                if let Some(writer) = journal {
                    let append = writer
                        .lock()
                        .map_err(|p| std::io::Error::other(p.to_string()))
                        .and_then(|mut w| w.append(&record));
                    match append {
                        // A checkpoint in the event stream mirrors every
                        // successful journal append, so a resumed run can
                        // stitch records back to their spans.
                        Ok(()) => self.telemetry.emit_checkpoint(&record.package, span_id),
                        Err(e) => {
                            eprintln!("dydroid: journal append failed for {}: {e}", record.package);
                        }
                    }
                }
                if let (Some(writer), Some(provenance)) = (ledger, &provenance) {
                    let append = writer
                        .lock()
                        .map_err(|p| std::io::Error::other(p.to_string()))
                        .and_then(|mut w| w.append(provenance));
                    match append {
                        // The provenance-link line is the durable span
                        // cross-reference the ledger itself omits.
                        Ok(()) => self
                            .telemetry
                            .emit_provenance_link(&record.package, span_id),
                        Err(e) => {
                            eprintln!("dydroid: ledger append failed for {}: {e}", record.package);
                        }
                    }
                }
                if self.telemetry.is_enabled() {
                    // Observatory bookkeeping, all on the collector
                    // thread: worker/utilization gauges from the live
                    // scheduler counters, then the watchdog and metrics
                    // snapshot hooks.
                    collected_count += 1;
                    let stats = scheduler.worker_stats();
                    self.telemetry
                        .gauge_set("sweep.busy_us", stats.iter().map(|w| w.busy_us).sum());
                    self.telemetry
                        .gauge_set("sweep.virtual_makespan_us", virtual_makespan_us(&stats));
                    self.telemetry.gauge_set("sweep.done", collected_count);
                    if let Some(obs) = observatory {
                        obs.on_app_done(self, &record.package, span_id, virtual_us);
                    }
                }
                if let Some(progress) = &progress {
                    let failed = record.harness_failure().is_some();
                    if let Some(line) = progress.on_app_done(failed, &self.telemetry) {
                        eprintln!("dydroid: {line}");
                    }
                }
                if let Ok(mut records) = collected.lock() {
                    records.push((i, record, provenance));
                }
            }
        });
        if scope_result.is_err() {
            eprintln!("dydroid: a sweep thread panicked outside per-app isolation; continuing with partial results");
        }
        (
            collected.into_inner().unwrap_or_default(),
            scheduler.worker_stats(),
        )
    }

    /// Merges sweep results (and any journaled records) into a complete,
    /// corpus-ordered report; apps lost to a non-isolated thread death
    /// are recorded as harness failures rather than dropped. When a
    /// ledger is in play it is finalized here: rewritten in corpus order
    /// with environment outcomes attached, so a completed run's ledger
    /// is byte-identical however the sweep interleaved (and across
    /// resume-from-checkpoint runs).
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        corpus: &[SyntheticApp],
        results: Vec<SweepItem>,
        mut done: HashMap<String, AppRecord>,
        prior_provenance: Vec<AppProvenance>,
        ledger: Option<&ProvenanceLedger>,
        journal: Option<&crate::sweep::Journal>,
        io_state: &Arc<IoState>,
        recovery: Option<RecoverySummary>,
        perf: SweepPerf,
        observatory: Option<Observatory>,
        sweep_ms: u64,
        cache_mark: CacheStats,
        detector_mark: dydroid_analysis::DetectorStats,
        avm_marks: AvmMarks,
    ) -> MeasurementReport {
        // Live-built graphs win over recovered ledger lines; recovered
        // lines cover the resumed apps this session never re-ran.
        let mut provenance: HashMap<String, AppProvenance> = prior_provenance
            .into_iter()
            .map(|p| (p.package.clone(), p))
            .collect();
        for (i, record, prov) in results {
            if let Some(app) = corpus.get(i) {
                done.insert(app.package().to_string(), record);
                if let Some(prov) = prov {
                    provenance.insert(app.package().to_string(), prov);
                }
            }
        }
        let records: Vec<AppRecord> = corpus
            .iter()
            .map(|app| {
                done.remove(app.package()).unwrap_or_else(|| {
                    self.failure_record(app, "record lost: sweep worker died".to_string())
                })
            })
            .collect();
        let env_start = Instant::now();
        let env = if self.config.environment_reruns {
            let mut env_span = self.telemetry.span("environment");
            let env = crate::environment::rerun_all(self, corpus, &records);
            env_span.field("flagged_files", env.counts.total_files);
            env
        } else {
            crate::environment::EnvOutcome::default()
        };
        // Finalize the ledger: one record per corpus app, corpus order,
        // env outcomes attached. Apps whose live graph is gone (resumed
        // with a torn ledger line) get a degraded reconstruction.
        let mut finalized = true;
        if self.config.provenance {
            let final_provenance: Vec<AppProvenance> = corpus
                .iter()
                .zip(&records)
                .map(|(app, record)| {
                    let mut p = provenance
                        .remove(app.package())
                        .unwrap_or_else(|| AppProvenance::from_record(record));
                    p.env_loads = env
                        .loads
                        .iter()
                        .filter(|l| l.package == record.package)
                        .map(|l| crate::provenance::EnvLoadOutcome {
                            path: l.path.clone(),
                            configs: l.configs.clone(),
                        })
                        .collect();
                    p
                })
                .collect();
            if let Some(ledger) = ledger {
                if let Err(e) = ledger.finalize_with(&final_provenance, self.io_harness.as_ref()) {
                    finalized = false;
                    eprintln!(
                        "dydroid: failed to finalize ledger {}: {e}",
                        ledger.path().display()
                    );
                }
            }
        }
        // Finalize the journal and the event stream the same way the
        // ledger is finalized: atomically rewritten in corpus order, so
        // a completed run's three streams are byte-identical however the
        // sweep interleaved and however many resumes it took. The
        // canonical event stream keeps only the per-app checkpoint and
        // provenance-link facts; live span timings are interleave-
        // dependent and are dropped.
        if let Some(journal) = journal {
            if let Err(e) = journal.finalize_with(&records, self.io_harness.as_ref()) {
                finalized = false;
                eprintln!(
                    "dydroid: failed to finalize journal {}: {e}",
                    journal.path().display()
                );
            }
            if self.telemetry.is_enabled() {
                let mut bodies = Vec::with_capacity(records.len() * 2);
                for record in &records {
                    bodies.push(canonical_event(&record.package, "checkpoint"));
                    if self.config.provenance {
                        bodies.push(canonical_event(&record.package, "provenance"));
                    }
                }
                let events_path = journal.events_path();
                if let Err(e) = self.telemetry.finalize_event_sink(
                    &events_path,
                    &bodies,
                    self.io_harness.as_ref(),
                ) {
                    finalized = false;
                    eprintln!(
                        "dydroid: failed to finalize events {}: {e}",
                        events_path.display()
                    );
                }
            }
            // A sharded sweep's per-shard files are fully folded into
            // the canonical streams above; drop them so the layout a
            // completed run leaves behind is identical to a serial one.
            // Only once every stream actually finalized: a failed
            // finalize — or a crash-frozen harness, whose post-crash
            // writes report success without touching disk — must leave
            // the shard files for the next session's recovery to merge.
            if self.io_harness.as_ref().is_some_and(|h| h.crashed()) {
                finalized = false;
            }
            if finalized {
                if let Err(e) = journal.remove_shards() {
                    eprintln!(
                        "dydroid: failed to remove shard files beside {}: {e}",
                        journal.path().display()
                    );
                }
            }
        }
        // Observatory wrap-up: idle-worker warnings, then the straggler
        // appendix — per-phase breakdowns filled from the flagged apps'
        // child spans in one pass over the span store.
        let (straggler_warnings, stragglers) = match &observatory {
            Some(obs) => {
                let idle = idle_workers(&perf.worker_stats);
                if idle > 0 {
                    self.telemetry
                        .counter_add("watchdog.idle_workers", idle as u64);
                    self.telemetry
                        .emit_warning("idle_workers", "", &[("workers", idle as u64)]);
                }
                let (flagged, mut entries) = obs.take_stragglers();
                entries.sort_by(|a, b| {
                    b.0.virtual_us
                        .cmp(&a.0.virtual_us)
                        .then_with(|| a.0.package.cmp(&b.0.package))
                });
                entries.truncate(self.config.straggler_top);
                let wanted: HashSet<u64> = entries.iter().map(|(_, id)| *id).collect();
                let mut children: HashMap<u64, Vec<(String, u64)>> = HashMap::new();
                if !wanted.is_empty() {
                    self.telemetry.with_spans(|spans| {
                        for span in spans.iter().filter(|s| wanted.contains(&s.parent)) {
                            children
                                .entry(span.parent)
                                .or_default()
                                .push((span.name.clone(), span.dur_us));
                        }
                    });
                }
                let entries: Vec<StragglerEntry> = entries
                    .into_iter()
                    .map(|(mut entry, id)| {
                        let mut phases = children.remove(&id).unwrap_or_default();
                        phases.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                        entry.phases = phases;
                        entry
                    })
                    .collect();
                (flagged, entries)
            }
            None => (0, Vec::new()),
        };
        let snapshot = self.telemetry.snapshot();
        let app_wall = snapshot
            .histogram("span.app.us")
            .copied()
            .unwrap_or_default();
        let phases: Vec<(String, HistogramSummary)> = snapshot
            .histograms
            .iter()
            .filter(|(name, _)| name != "span.app.us")
            .cloned()
            .collect();
        let io = io_state.snapshot();
        let recovery = recovery.unwrap_or_default();
        let stats = SweepStats {
            sweep_ms,
            env_ms: env_start.elapsed().as_millis() as u64,
            analyzed_apps: records.len(),
            cache: self.cache.stats().since(&cache_mark),
            detector: self.detector.stats().since(&detector_mark),
            workers: self.config.effective_workers(),
            dropped_events: self
                .telemetry
                .counter_value("avm.events_dropped")
                .saturating_sub(avm_marks.events_dropped),
            flow_truncated: self
                .telemetry
                .counter_value("avm.flow_edges_truncated")
                .saturating_sub(avm_marks.flow_truncated),
            flow_deduped: self
                .telemetry
                .counter_value("avm.flow_edges_deduped")
                .saturating_sub(avm_marks.flow_deduped),
            journal_syncs: io.syncs[StreamKind::Journal.index()],
            io_retries: io.retries,
            io_backoff_us: io.backoff_us,
            shed_events: io.shed[StreamKind::Events.index()],
            shed_provenance: io.shed[StreamKind::Ledger.index()],
            shed_metrics: io.shed[StreamKind::Metrics.index()],
            recovered_records: recovery.recovered,
            recovery_dropped: recovery.dropped,
            inconsistent_apps: recovery.inconsistent,
            quarantined: recovery.quarantined,
            stream_shards: perf.stream_shards,
            shard_contention: perf.shard_contention,
            worker_stats: perf.worker_stats,
            straggler_warnings,
            stragglers,
            app_wall,
            phases,
        };
        let mut report = MeasurementReport::new(records, env.counts);
        report.set_env_loads(env.loads);
        report.set_stats(stats);
        if let Some(path) = &self.config.trace_out {
            if let Err(e) = self.telemetry.write_chrome_trace(Path::new(path)) {
                eprintln!("dydroid: failed to write chrome trace to {path}: {e}");
            }
        }
        // Span profile exports: the configured `profile_out`, plus a
        // `<journal>.profile.folded` artifact beside every journaled
        // telemetry run — the canonical event stream drops span lines at
        // finalize, so this artifact is what `dcltrace profile` falls
        // back to once a run completes.
        if self.telemetry.is_enabled() && (self.config.profile_out.is_some() || journal.is_some()) {
            let folded = self.telemetry.with_spans(SpanProfile::fold).folded();
            if let Some(path) = &self.config.profile_out {
                if let Err(e) = std::fs::write(path, &folded) {
                    eprintln!("dydroid: failed to write span profile to {path}: {e}");
                }
            }
            if let Some(journal) = journal {
                let path = journal.profile_path();
                if let Err(e) = std::fs::write(&path, &folded) {
                    eprintln!(
                        "dydroid: failed to write span profile to {}: {e}",
                        path.display()
                    );
                }
            }
        }
        report
    }

    /// Analyses one app inside the fault-isolation boundary: panics are
    /// caught, harness failures are retried up to `max_retries` times
    /// (reseeding the Monkey when `retry_reseed` is set), and the final
    /// failure is recorded as [`DynamicStatus::AnalysisFailure`].
    pub fn analyze_app_resilient(&self, app: &SyntheticApp) -> AppRecord {
        self.analyze_app_traced(app, 0).0
    }

    /// [`Pipeline::analyze_app_resilient`] under a per-app telemetry span
    /// (parented to the sweep span); returns the record and provenance
    /// graph together with the span id (so the sweep collector can
    /// checkpoint and ledger them) and the app's deterministic virtual
    /// cost in microseconds, summed across attempts, which the scheduler
    /// charges to the worker that ran it.
    fn analyze_app_traced(
        &self,
        app: &SyntheticApp,
        parent_span: u64,
    ) -> (AppRecord, Option<AppProvenance>, u64, u64) {
        let mut span = self.telemetry.span_with_parent("app", parent_span);
        span.field("app", &app.plan.package);
        let span_id = span.id();
        let attempts = self.config.max_retries.saturating_add(1);
        let mut last: Option<AppRecord> = None;
        let mut total_virtual_us = 0u64;
        // The static phases are input-deterministic, so a multi-attempt
        // failure spiral decompiles the app once, not once per attempt.
        let mut statics: Option<StaticPhases> = None;
        for attempt in 0..attempts {
            if attempt > 0 && self.telemetry.is_enabled() {
                self.telemetry.counter_add("sweep.retries", 1);
            }
            let salt = if attempt == 0 || !self.config.retry_reseed {
                0
            } else {
                RETRY_SEED_SALT.wrapping_mul(u64::from(attempt))
            };
            match catch_unwind(AssertUnwindSafe(|| {
                self.analyze_app_salted(app, salt, span_id)
            })) {
                Ok((record, provenance, virtual_us)) => {
                    total_virtual_us += virtual_us;
                    if record.harness_failure().is_none() {
                        span.field("attempt", attempt + 1);
                        span.field("verdict", verdict_label(&record));
                        // Apps that never reached the dynamic phase carry
                        // no live device state; they still get a ledger
                        // entry, reconstructed from the record, so the
                        // ledger's app set always matches the journal's.
                        let provenance = self.config.provenance.then(|| {
                            let mut p =
                                provenance.unwrap_or_else(|| AppProvenance::from_record(&record));
                            p.span = span_id;
                            p
                        });
                        return (record, provenance, span_id, total_virtual_us);
                    }
                    last = Some(record);
                }
                Err(payload) => {
                    let reason = format!(
                        "panic in attempt {}/{}: {}",
                        attempt + 1,
                        attempts,
                        panic_message(payload.as_ref())
                    );
                    let statics = *statics.get_or_insert_with(|| Self::static_phases(app));
                    last = Some(Self::record_from_statics(app, reason, statics));
                }
            }
        }
        let record =
            last.unwrap_or_else(|| self.failure_record(app, "no analysis attempt ran".to_string()));
        span.field("attempt", attempts);
        span.field("verdict", verdict_label(&record));
        // Harness failures carry no live device state; the ledger gets a
        // degraded record reconstructed from the app record at finalize.
        let provenance = self.config.provenance.then(|| {
            let mut p = AppProvenance::from_record(&record);
            p.span = span_id;
            p
        });
        (record, provenance, span_id, total_virtual_us)
    }

    /// Re-runs the cheap static phases under their own panic guard, so a
    /// failed app still lands in the right Table II population.
    fn static_phases(app: &SyntheticApp) -> StaticPhases {
        let static_phases =
            catch_unwind(AssertUnwindSafe(|| match decompiler::decompile(&app.apk) {
                Ok(d) => (true, DclFilter::scan(&d.classes), obfuscation::analyze(&d)),
                Err(DecompileError::AntiDecompilation { .. }) => (
                    false,
                    DclFilter::default(),
                    ObfuscationReport::anti_decompilation_only(),
                ),
                Err(_) => (false, DclFilter::default(), ObfuscationReport::default()),
            }));
        static_phases.unwrap_or((false, DclFilter::default(), ObfuscationReport::default()))
    }

    /// Builds the record for an app whose dynamic analysis was lost to a
    /// panic or deadline.
    fn failure_record(&self, app: &SyntheticApp, reason: String) -> AppRecord {
        Self::record_from_statics(app, reason, Self::static_phases(app))
    }

    fn record_from_statics(
        app: &SyntheticApp,
        reason: String,
        (decompiled, filter, obfuscation): StaticPhases,
    ) -> AppRecord {
        AppRecord {
            package: app.plan.package.clone(),
            metadata: app.plan.metadata.clone(),
            decompiled,
            filter,
            obfuscation,
            rewritten: false,
            dynamic: Some(DynamicOutcome::failure(reason)),
        }
    }

    /// Analyses a standalone APK (e.g. a file from disk) with optional
    /// environment fixtures; the package is taken from the manifest.
    ///
    /// # Errors
    ///
    /// Returns the parse error when the archive or its manifest is
    /// malformed beyond even the anti-decompilation failure modes.
    pub fn analyze_apk(
        &self,
        apk: Vec<u8>,
        remote_resources: Vec<(String, String, Vec<u8>)>,
        device_files: Vec<(String, String, Vec<u8>)>,
    ) -> Result<AppRecord, dydroid_dex::ApkError> {
        let package = dydroid_dex::Apk::parse(&apk)?.manifest()?.package;
        let app = SyntheticApp {
            plan: dydroid_workload::AppPlan::external(package),
            apk,
            remote_resources,
            device_files,
        };
        Ok(self.analyze_app(&app))
    }

    /// Analyses a single app end to end (no panic isolation or retries;
    /// see [`Pipeline::analyze_app_resilient`] for the sweep wrapper).
    pub fn analyze_app(&self, app: &SyntheticApp) -> AppRecord {
        self.analyze_app_with_provenance(app).0
    }

    /// [`Pipeline::analyze_app`], also returning the provenance flight
    /// record (`None` when `PipelineConfig::provenance` is off or the
    /// dynamic phase never ran).
    pub fn analyze_app_with_provenance(
        &self,
        app: &SyntheticApp,
    ) -> (AppRecord, Option<AppProvenance>) {
        let mut span = self.telemetry.span("app");
        span.field("app", &app.plan.package);
        let (record, mut provenance, _) = self.analyze_app_salted(app, 0, span.id());
        span.field("verdict", verdict_label(&record));
        if let Some(p) = &mut provenance {
            p.span = span.id();
        }
        (record, provenance)
    }

    /// [`Pipeline::analyze_app`] with a Monkey seed salt (non-zero on
    /// reseeded retries) and a parent span for the phase children. Also
    /// returns the app's provenance graph when the dynamic phase ran and
    /// `PipelineConfig::provenance` is on (the graph is built from live
    /// device state — flow graph, event log — that the record drops).
    fn analyze_app_salted(
        &self,
        app: &SyntheticApp,
        seed_salt: u64,
        parent_span: u64,
    ) -> (AppRecord, Option<AppProvenance>, u64) {
        let metadata = app.plan.metadata.clone();
        let package = app.plan.package.clone();

        // Phase 1+2: decompile, static filter, obfuscation analysis —
        // one "static" span; its early returns drop the guard on exit.
        let static_span = self.telemetry.span_with_parent("static", parent_span);

        let decompiled = match decompiler::decompile(&app.apk) {
            Ok(d) => d,
            Err(DecompileError::AntiDecompilation { .. }) => {
                return (
                    AppRecord {
                        package,
                        metadata,
                        decompiled: false,
                        filter: DclFilter::default(),
                        obfuscation: ObfuscationReport::anti_decompilation_only(),
                        rewritten: false,
                        dynamic: None,
                    },
                    None,
                    0,
                );
            }
            Err(_) => {
                return (
                    AppRecord {
                        package,
                        metadata,
                        decompiled: false,
                        filter: DclFilter::default(),
                        obfuscation: ObfuscationReport::default(),
                        rewritten: false,
                        dynamic: None,
                    },
                    None,
                    0,
                );
            }
        };

        // Resource-sanity guard: a manifest blown up far past anything a
        // store-distributed app declares would stall the rewriter and the
        // Monkey's callback enumeration. Reject it as a harness-level
        // failure instead of burning the deadline on it.
        let manifest_entries =
            decompiled.manifest.permissions.len() + decompiled.manifest.components.len();
        if manifest_entries > MANIFEST_SANITY_LIMIT {
            return (
                AppRecord {
                    package,
                    metadata,
                    decompiled: true,
                    filter: DclFilter::default(),
                    obfuscation: ObfuscationReport::default(),
                    rewritten: false,
                    dynamic: Some(DynamicOutcome::failure(format!(
                        "manifest exceeds sanity bounds: {manifest_entries} entries > {MANIFEST_SANITY_LIMIT}"
                    ))),
                },
                None,
                0,
            );
        }

        // Phase 2: static filter + obfuscation analysis.
        let filter = DclFilter::scan(&decompiled.classes);
        let obfuscation = obfuscation::analyze(&decompiled);
        drop(static_span);
        if !filter.any() {
            return (
                AppRecord {
                    package,
                    metadata,
                    decompiled: true,
                    filter,
                    obfuscation,
                    rewritten: false,
                    dynamic: None,
                },
                None,
                0,
            );
        }

        // Phase 3: rewrite if needed. Apps that already hold the
        // permission install their original bytes — borrowed, not
        // cloned: a full-APK copy per app is pure overhead at corpus
        // scale.
        let (install_bytes, rewritten): (Cow<[u8]>, bool) =
            if decompiler::needs_rewriting(&decompiled.manifest) {
                let _span = self.telemetry.span_with_parent("rewrite", parent_span);
                match decompiler::repackage_with_permission(&decompiled) {
                    Ok(bytes) => (Cow::Owned(bytes), true),
                    Err(_) => {
                        return (
                            AppRecord {
                                package,
                                metadata,
                                decompiled: true,
                                filter,
                                obfuscation,
                                rewritten: false,
                                dynamic: Some(DynamicOutcome::empty(DynamicStatus::RewriteFailure)),
                            },
                            None,
                            0,
                        );
                    }
                }
            } else {
                (Cow::Borrowed(app.apk.as_slice()), false)
            };

        // Phase 4: dynamic analysis.
        let mut device = self.prepare_device(app, self.config.device_config());
        let (dynamic, path_leaks, virtual_us) = self.exercise_and_analyze_salted(
            app,
            &mut device,
            &install_bytes,
            &decompiled,
            seed_salt,
            parent_span,
        );
        // Per-app instrumentation-bound counters (the env re-runs bypass
        // this path, so these count the baseline sweep only).
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter_add("avm.events_dropped", device.log.dropped_events());
            self.telemetry.counter_add(
                "avm.flow_edges_truncated",
                device.hooks.flow.truncated_edges(),
            );
            self.telemetry.counter_add(
                "avm.flow_edges_deduped",
                device.hooks.flow.duplicate_edges(),
            );
        }
        // The flight recorder fuses the device state the record is about
        // to drop (flow graph, raw event log) with the outcome.
        let provenance = self.config.provenance.then(|| {
            AppProvenance::build(
                &package,
                status_label(&dynamic.status),
                &device.log,
                &device.hooks.flow,
                &dynamic.dex_events,
                &dynamic.native_events,
                &dynamic.malware,
                &path_leaks,
            )
        });

        (
            AppRecord {
                package,
                metadata,
                decompiled: true,
                filter,
                obfuscation,
                rewritten,
                dynamic: Some(dynamic),
            },
            provenance,
            virtual_us,
        )
    }

    /// Builds a device with the app's environment fixtures in place.
    pub fn prepare_device(&self, app: &SyntheticApp, config: dydroid_avm::DeviceConfig) -> Device {
        let mut device = Device::new(config);
        device.hooks.suppress_file_ops = self.config.suppress_file_ops;
        device.log.set_capacity(self.config.max_events_per_app);
        for (domain, path, bytes) in &app.remote_resources {
            device.net.host(domain, path, bytes.clone());
        }
        for (path, owner, bytes) in &app.device_files {
            device
                .fs
                .write_system(path, bytes.clone(), Owner::app(owner.clone()));
        }
        device
    }

    /// Installs, exercises and post-processes one app on a prepared
    /// device. Also used by the environment re-runs.
    pub fn exercise_and_analyze(
        &self,
        app: &SyntheticApp,
        device: &mut Device,
        install_bytes: &[u8],
        decompiled: &decompiler::DecompiledApp,
    ) -> DynamicOutcome {
        self.exercise_and_analyze_salted(app, device, install_bytes, decompiled, 0, 0)
            .0
    }

    /// [`Pipeline::exercise_and_analyze`] under a caller-supplied parent
    /// span (the environment re-runs parent their per-configuration
    /// spans here).
    pub(crate) fn exercise_and_analyze_traced(
        &self,
        app: &SyntheticApp,
        device: &mut Device,
        install_bytes: &[u8],
        decompiled: &decompiler::DecompiledApp,
        parent_span: u64,
    ) -> DynamicOutcome {
        self.exercise_and_analyze_salted(app, device, install_bytes, decompiled, 0, parent_span)
            .0
    }

    /// [`Pipeline::exercise_and_analyze`] with a Monkey seed salt. Also
    /// returns per-path privacy-leak attribution `(loaded path, privacy
    /// type label)` — the verdict edges of the provenance graph, which
    /// the aggregate [`DynamicOutcome`] no longer resolves to paths —
    /// and the app's deterministic virtual cost in microseconds (from
    /// instructions retired), which the scheduler charges to its worker.
    fn exercise_and_analyze_salted(
        &self,
        app: &SyntheticApp,
        device: &mut Device,
        install_bytes: &[u8],
        decompiled: &decompiler::DecompiledApp,
        seed_salt: u64,
        parent_span: u64,
    ) -> (DynamicOutcome, Vec<(String, String)>, u64) {
        let package = &app.plan.package;

        {
            let mut install_span = self.telemetry.span_with_parent("install", parent_span);
            install_span.field("bytes", install_bytes.len());
            if device.install(install_bytes).is_err() {
                install_span.field("result", "error");
                return (
                    DynamicOutcome::empty(DynamicStatus::RewriteFailure),
                    Vec::new(),
                    0,
                );
            }
        }

        let mut monkey = Monkey::new(MonkeyConfig {
            seed: self.config.monkey_seed ^ hash_pkg(package) ^ seed_salt,
            event_budget: self.config.monkey_events,
            deadline_ms: self.config.deadline_ms(),
        });
        let mut monkey_span = self.telemetry.span_with_parent("monkey", parent_span);
        let instructions_before = device.instructions_retired();
        let fires_before = device.hooks.fire_count();
        let exercised = monkey.exercise(device, package);
        // The avm contributes instruction-retirement and hook-fire deltas
        // to the monkey span and the run-wide counters.
        let instructions = device.instructions_retired() - instructions_before;
        let virtual_us = dydroid_monkey::virtual_us(instructions);
        let hook_fires = device.hooks.fire_count() - fires_before;
        if monkey_span.is_recording() {
            monkey_span.field("instructions", instructions);
            monkey_span.field("hook_fires", hook_fires);
            self.telemetry.counter_add("avm.instructions", instructions);
            self.telemetry.counter_add("avm.hook_fires", hook_fires);
            self.telemetry.counter_add("monkey.virtual_us", virtual_us);
        }
        let status = match exercised {
            Ok(ExerciseOutcome::NoActivity) => DynamicStatus::NoActivity,
            Ok(ExerciseOutcome::Exercised { crashed: true, .. }) => DynamicStatus::Crash,
            Ok(ExerciseOutcome::Exercised { crashed: false, .. }) => DynamicStatus::Exercised,
            Ok(ExerciseOutcome::DeadlineExceeded {
                events_fired,
                elapsed_ms,
            }) => {
                monkey_span.field("status", "deadline_exceeded");
                return (
                    DynamicOutcome::failure(format!(
                        "deadline exceeded after {events_fired} events: {elapsed_ms} ms charged, budget {} ms",
                        self.config.app_deadline_ms
                    )),
                    Vec::new(),
                    virtual_us,
                );
            }
            Err(_) => DynamicStatus::RewriteFailure,
        };
        monkey_span.field("status", status_label(&status));
        drop(monkey_span);
        if matches!(
            status,
            DynamicStatus::NoActivity | DynamicStatus::RewriteFailure
        ) {
            return (DynamicOutcome::empty(status), Vec::new(), virtual_us);
        }
        // Crashed apps count as failures in Table II (see
        // `AppRecord::dex_intercepted`), but the instrumentation still
        // recorded whatever loaded before the crash — the environment
        // re-runs of Table VIII rely on those events.

        // Collect DCL observations.
        let mut collect_span = self.telemetry.span_with_parent("collect", parent_span);
        let mut dex_events = Vec::new();
        let mut native_events = Vec::new();
        for event in device.log.dcl_events() {
            if !event.success {
                continue;
            }
            if event.kind.is_dex() {
                dex_events.push(event.clone());
            } else {
                native_events.push(event.clone());
            }
        }

        // Provenance via the download tracker.
        let mut remote_loads = Vec::new();
        for event in dex_events.iter().chain(native_events.iter()) {
            let urls = device.hooks.flow.url_sources(&event.path);
            if !urls.is_empty() {
                remote_loads.push((event.path.clone(), urls));
            }
        }
        remote_loads.sort();
        remote_loads.dedup();

        // Entity attribution from call sites.
        let dex_entity = EntityMix::from_call_sites(
            package,
            dex_events.iter().map(|e| e.call_site_class.as_str()),
        );
        let native_entity = EntityMix::from_call_sites(
            package,
            native_events.iter().map(|e| e.call_site_class.as_str()),
        );

        // Vulnerability classification over loaded paths.
        let vulns = dydroid_analysis::vuln::classify_all(
            package,
            &decompiled.manifest,
            dex_events
                .iter()
                .chain(native_events.iter())
                .map(|e| e.path.as_str()),
        );
        if collect_span.is_recording() {
            collect_span.field("dex_events", dex_events.len());
            collect_span.field("native_events", native_events.len());
            collect_span.field("remote_loads", remote_loads.len());
            collect_span.field("dropped_events", device.log.dropped_events());
            collect_span.field("flow_truncated", device.hooks.flow.truncated_edges());
            collect_span.field("flow_deduped", device.hooks.flow.duplicate_edges());
        }
        drop(collect_span);

        // Static analysis of intercepted binaries: each path analysed
        // once per app however many times it was loaded, and — through
        // the content-addressed cache — each unique byte content
        // analysed once per *sweep* however many apps load it. The
        // batch hands cold payloads to a small worker fan-out so their
        // detections (the indexed matcher) resolve in parallel.
        let mut seen_paths: HashSet<&str> = HashSet::new();
        let unique: Vec<_> = device
            .hooks
            .intercepted()
            .iter()
            .filter(|binary| seen_paths.insert(binary.path.as_str()))
            .collect();
        let contents: Vec<&[u8]> = unique.iter().map(|b| b.data.as_slice()).collect();
        let taint = TaintAnalysis::new();
        let mut analysis_span = self
            .telemetry
            .span_with_parent("binary_analysis", parent_span);
        // Delta marks cost shard locks, so take them only when recording.
        let marks = analysis_span
            .is_recording()
            .then(|| (self.cache.stats(), self.detector.stats()));
        let verdicts = self.cache.analyze_batch(
            &contents,
            &self.detector,
            &taint,
            self.config.effective_workers().min(BATCH_ANALYSIS_WORKERS),
        );
        if let Some((cache_mark, detector_mark)) = marks {
            let cache_delta = self.cache.stats().since(&cache_mark);
            let detector_delta = self.detector.stats().since(&detector_mark);
            analysis_span.field("binaries", unique.len());
            analysis_span.field("cache_hits", cache_delta.hits);
            analysis_span.field("cache_misses", cache_delta.misses);
            analysis_span.field("candidates", detector_delta.candidates);
            analysis_span.field("pruned", detector_delta.pruned);
            analysis_span.field("fully_scored", detector_delta.fully_scored);
        }
        drop(analysis_span);
        let mut malware = Vec::new();
        let mut leaks: Vec<Leak> = Vec::new();
        let mut leak_seen: HashSet<Leak> = HashSet::new();
        let mut leak_classes: HashMap<PrivacyType, Vec<String>> = HashMap::new();
        let mut path_leaks: Vec<(String, String)> = Vec::new();
        for (binary, verdict) in unique.iter().zip(&verdicts) {
            let BinaryVerdict::Parsed {
                native,
                malware: family_hit,
                leaks: binary_leaks,
            } = &**verdict
            else {
                continue;
            };
            if let Some(hit) = family_hit {
                malware.push(MalwareHit {
                    path: binary.path.clone(),
                    family: hit.family.clone(),
                    score: hit.score,
                    native: *native,
                });
            }
            for leak in binary_leaks {
                leak_classes
                    .entry(leak.privacy)
                    .or_default()
                    .push(leak.class.clone());
                path_leaks.push((binary.path.clone(), format!("{:?}", leak.privacy)));
                if leak_seen.insert(leak.clone()) {
                    leaks.push(leak.clone());
                }
            }
        }
        path_leaks.sort();
        path_leaks.dedup();
        let mut leak_types: Vec<LeakSummary> = leak_classes
            .into_iter()
            .map(|(privacy, classes)| LeakSummary {
                privacy,
                exclusively_third_party: classes.iter().all(|c| {
                    dydroid_analysis::entity::classify(package, c)
                        == dydroid_analysis::Entity::ThirdParty
                }),
            })
            .collect();
        leak_types.sort_by_key(|l| l.privacy);

        (
            DynamicOutcome {
                status,
                dex_events,
                native_events,
                remote_loads,
                dex_entity,
                native_entity,
                vulns,
                malware,
                leaks,
                leak_types,
            },
            path_leaks,
            virtual_us,
        )
    }
}

/// Per-shard writers of the three persistent streams during a sharded
/// multi-writer sweep. Apps are routed by APK content hash (the same
/// key the analysis cache stripes on), so each worker appends to the
/// shard owning its current app with no collector bottleneck; the
/// shards are merged back into the canonical single-file streams by
/// `finalize` and by [`Pipeline::recover_all`] after a crash.
struct StreamShards {
    shards: Vec<Mutex<ShardStreams>>,
    /// Appends that found their shard mutex held by another worker
    /// (they block and proceed; the count sizes the contention report).
    contention: AtomicU64,
}

struct ShardStreams {
    journal: crate::sweep::JournalWriter,
    ledger: Option<crate::provenance::LedgerWriter>,
}

impl StreamShards {
    /// Opens `count` shard triplets beside `journal` (journal + ledger
    /// writers here, event sinks registered with the telemetry layer).
    /// Per-shard frame sequences continue from each shard file's valid
    /// prefix, exactly like the base streams.
    fn open(
        pipeline: &Pipeline,
        journal: &crate::sweep::Journal,
        ledger_active: bool,
        count: usize,
        io_state: &Arc<IoState>,
    ) -> std::io::Result<StreamShards> {
        let mut shards = Vec::with_capacity(count);
        let mut event_paths = Vec::with_capacity(count);
        for k in 0..count {
            let journal_writer = journal
                .shard(k)
                .writer_with(pipeline.sink_options(StreamKind::Journal, io_state))?;
            let ledger = ledger_active
                .then(|| {
                    ProvenanceLedger::new(journal.shard_provenance_path(k))
                        .writer_with(pipeline.sink_options(StreamKind::Ledger, io_state))
                })
                .transpose()?;
            shards.push(Mutex::new(ShardStreams {
                journal: journal_writer,
                ledger,
            }));
            event_paths.push(journal.shard_events_path(k));
        }
        if pipeline.telemetry.is_enabled() {
            pipeline.telemetry.set_sharded_event_sinks(
                &event_paths,
                &pipeline.sink_options(StreamKind::Events, io_state),
            )?;
        }
        Ok(StreamShards {
            shards,
            contention: AtomicU64::new(0),
        })
    }

    /// The shard owning `app`, by APK content hash.
    fn shard_of(&self, app: &SyntheticApp) -> usize {
        (content_hash(&app.apk) % self.shards.len() as u64) as usize
    }

    /// Appends one completed app to its shard, holding the shard lock
    /// through the journal append → checkpoint → ledger append →
    /// provenance-link quad so the virtual op clock orders the four
    /// writes as a unit — the per-segment recovery intersection depends
    /// on that ordering.
    fn append(
        &self,
        k: usize,
        record: &AppRecord,
        provenance: Option<&AppProvenance>,
        span_id: u64,
        telemetry: &Telemetry,
    ) {
        let mut shard = match self.shards[k].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                match self.shards[k].lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                }
            }
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        };
        match shard.journal.append(record) {
            Ok(()) => telemetry.emit_checkpoint(&record.package, span_id),
            Err(e) => eprintln!(
                "dydroid: shard {k} journal append failed for {}: {e}",
                record.package
            ),
        }
        if let (Some(writer), Some(provenance)) = (shard.ledger.as_mut(), provenance) {
            match writer.append(provenance) {
                Ok(()) => telemetry.emit_provenance_link(&record.package, span_id),
                Err(e) => eprintln!(
                    "dydroid: shard {k} ledger append failed for {}: {e}",
                    record.package
                ),
            }
        }
    }

    /// Total contended shard appends so far.
    fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }
}

/// Scheduler/shard accounting of one sweep, carried into [`SweepStats`].
#[derive(Debug, Default)]
struct SweepPerf {
    worker_stats: Vec<WorkerStats>,
    stream_shards: usize,
    shard_contention: u64,
}

/// The live observability rig of one sweep (DESIGN.md §5j): the durable
/// metrics snapshot stream and the straggler watchdog, fed by the
/// collector as apps complete. Built only when telemetry is enabled and
/// at least one of its pieces is configured on, so the disabled fast
/// path stays a single branch per app.
#[derive(Debug)]
struct Observatory {
    metrics: Option<MetricsStream>,
    watchdog: Option<Mutex<Watchdog>>,
    /// Flagged stragglers paired with their app span ids, so assemble
    /// can fill per-phase breakdowns from the spans' children.
    stragglers: Mutex<Vec<(StragglerEntry, u64)>>,
}

/// The durable metrics snapshot stream: the full metrics registry,
/// CRC-framed to `<journal>.metrics.jsonl` every time the deterministic
/// virtual clock (`monkey.virtual_us`) advances by the configured
/// interval. First stream to shed under disk pressure; resume-stitched
/// (the writer continues from the file's valid prefix) like every other
/// stream.
#[derive(Debug)]
struct MetricsStream {
    writer: Mutex<FramedWriter>,
    /// `monkey.virtual_us` at the last snapshot.
    last_mark: AtomicU64,
    interval_us: u64,
}

impl Observatory {
    /// Builds the rig for one run. `None` when telemetry is off or every
    /// piece is disabled; the metrics stream additionally needs a
    /// journal to sit beside.
    fn open(
        pipeline: &Pipeline,
        journal: Option<&crate::sweep::Journal>,
        io_state: &Arc<IoState>,
    ) -> Option<Observatory> {
        if !pipeline.telemetry.is_enabled() {
            return None;
        }
        let config = &pipeline.config;
        let metrics = journal
            .filter(|_| config.metrics_interval_us > 0)
            .and_then(|journal| {
                let path = journal.metrics_path();
                match FramedWriter::open(
                    &path,
                    pipeline.sink_options(StreamKind::Metrics, io_state),
                ) {
                    Ok(writer) => Some(MetricsStream {
                        writer: Mutex::new(writer),
                        last_mark: AtomicU64::new(
                            pipeline.telemetry.counter_value("monkey.virtual_us"),
                        ),
                        interval_us: config.metrics_interval_us,
                    }),
                    Err(e) => {
                        eprintln!(
                            "dydroid: failed to open metrics stream {}: {e}",
                            path.display()
                        );
                        None
                    }
                }
            });
        let watchdog =
            (config.watchdog_k > 1.0).then(|| Mutex::new(Watchdog::new(config.watchdog_k)));
        if metrics.is_none() && watchdog.is_none() {
            return None;
        }
        Some(Observatory {
            metrics,
            watchdog,
            stragglers: Mutex::new(Vec::new()),
        })
    }

    /// Collector hook, once per completed app: feeds the watchdog the
    /// app's deterministic virtual cost (static-only apps charge none
    /// and are not observations) and cuts a metrics snapshot when the
    /// virtual clock has advanced a full interval.
    fn on_app_done(&self, pipeline: &Pipeline, package: &str, span_id: u64, virtual_us: u64) {
        if virtual_us > 0 {
            if let Some(watchdog) = &self.watchdog {
                let flagged = watchdog.lock().ok().and_then(|mut w| w.observe(virtual_us));
                if let Some(median) = flagged {
                    pipeline.telemetry.counter_add("watchdog.stragglers", 1);
                    pipeline.telemetry.emit_warning(
                        "straggler",
                        package,
                        &[("virtual_us", virtual_us), ("median_us", median)],
                    );
                    if let Ok(mut stragglers) = self.stragglers.lock() {
                        stragglers.push((
                            StragglerEntry {
                                package: package.to_string(),
                                virtual_us,
                                median_virtual_us: median,
                                phases: Vec::new(),
                            },
                            span_id,
                        ));
                    }
                }
            }
        }
        if let Some(stream) = &self.metrics {
            let now = pipeline.telemetry.counter_value("monkey.virtual_us");
            if now.saturating_sub(stream.last_mark.load(Ordering::Relaxed)) >= stream.interval_us {
                stream.last_mark.store(now, Ordering::Relaxed);
                stream.snapshot(pipeline, now);
            }
        }
    }

    /// End-of-sweep: one final snapshot (so a completed run's stream
    /// always ends on the full registry) and an fsync.
    fn finish(&self, pipeline: &Pipeline) {
        if let Some(stream) = &self.metrics {
            let now = pipeline.telemetry.counter_value("monkey.virtual_us");
            stream.last_mark.store(now, Ordering::Relaxed);
            stream.snapshot(pipeline, now);
            if let Ok(mut writer) = stream.writer.lock() {
                if let Err(e) = writer.sync_now() {
                    eprintln!("dydroid: metrics stream sync failed: {e}");
                }
            }
        }
    }

    /// Drains the flagged stragglers (with span ids) and the total flag
    /// count, for [`SweepStats`].
    fn take_stragglers(&self) -> (u64, Vec<(StragglerEntry, u64)>) {
        let flagged = self
            .watchdog
            .as_ref()
            .and_then(|w| w.lock().ok())
            .map_or(0, |w| w.flagged());
        let entries = self
            .stragglers
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default();
        (flagged, entries)
    }
}

impl MetricsStream {
    /// Serializes the full registry as one framed
    /// `{"type":"metrics","virtual_us":…,"snapshot":…}` record. Write
    /// failures degrade to a counter plus a single warning — snapshots
    /// are derived data; losing one never corrupts the run.
    fn snapshot(&self, pipeline: &Pipeline, virtual_us: u64) {
        let snapshot = pipeline.telemetry.snapshot();
        let Ok(json) = serde_json::to_string(&snapshot) else {
            return;
        };
        let body =
            format!("{{\"type\":\"metrics\",\"virtual_us\":{virtual_us},\"snapshot\":{json}}}");
        if let Ok(mut writer) = self.writer.lock() {
            if let Err(e) = writer.append_body(&body) {
                pipeline
                    .telemetry
                    .counter_add("telemetry.metrics_write_errors", 1);
                if pipeline
                    .telemetry
                    .counter_value("telemetry.metrics_write_errors")
                    == 1
                {
                    eprintln!("dydroid: metrics stream: write failed ({e}); degrading");
                }
            }
        }
    }
}

/// Manifest-entry ceiling of the resource-sanity guard (permissions +
/// components); real store apps sit orders of magnitude below this.
pub const MANIFEST_SANITY_LIMIT: usize = 4_096;

/// Per-app ceiling on the batch-analysis fan-out. Each sweep worker may
/// open its own batch, so this stays small to bound transient
/// oversubscription; the fan-out only happens when an app produced at
/// least two distinct cold payloads.
pub const BATCH_ANALYSIS_WORKERS: usize = 4;

/// Mixed into the Monkey seed on reseeded retry attempts.
const RETRY_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// `(decompiled, filter, obfuscation)` from the cheap static phases.
type StaticPhases = (bool, DclFilter, ObfuscationReport);

/// One collected sweep result: corpus index, record, provenance graph.
type SweepItem = (usize, AppRecord, Option<AppProvenance>);

/// What [`Pipeline::recover_all`] reconciled out of the three persistent
/// streams (journal, provenance ledger, telemetry events) of an
/// interrupted journaled run.
#[derive(Debug, Default)]
pub struct RecoveryOutcome {
    /// Journal records of the longest mutually consistent prefix, in
    /// journal order: every active stream holds each of these apps.
    pub records: Vec<AppRecord>,
    /// Recovered provenance graphs for exactly the consistent apps.
    pub provenance: Vec<AppProvenance>,
    /// Corrupt or torn journal frames dropped during recovery.
    pub journal_dropped: usize,
    /// Corrupt or torn ledger frames dropped during recovery.
    pub ledger_dropped: usize,
    /// Corrupt or torn event frames dropped during recovery.
    pub events_dropped: usize,
    /// Packages present in at least one stream but not all (sorted);
    /// these are re-analysed on resume.
    pub inconsistent: Vec<String>,
    /// The quarantine ledger after this reconciliation: interrupted
    /// attempts accumulated per package across resumes.
    pub quarantine: Vec<QuarantineEntry>,
    /// Packages at or over [`PipelineConfig::quarantine_threshold`]
    /// (sorted); [`Pipeline::run_resumable`] records these as analysis
    /// failures instead of re-analysing them.
    pub quarantined: Vec<String>,
}

/// One segment's reconciliation: the longest mutually consistent prefix
/// of a (journal, ledger, events) triplet — the base streams or one
/// shard's — before the per-segment results are merged.
#[derive(Debug, Default)]
struct SegmentRecovery {
    records: Vec<AppRecord>,
    provenance: Vec<AppProvenance>,
    journal_dropped: usize,
    ledger_dropped: usize,
    events_dropped: usize,
    inconsistent: BTreeSet<String>,
    journal_count: usize,
    /// The event stream read back, when telemetry is on and it exists.
    events: Option<EventReadback>,
    /// Stderr warnings, printed by the merge in segment order.
    warnings: Vec<String>,
    /// This segment's recovery span, without an id yet (telemetry on).
    span: Option<SpanRecord>,
}

/// One (journal, ledger, events) triplet to reconcile: the base streams
/// or one shard's.
struct Segment {
    shard: Option<usize>,
    journal: crate::sweep::Journal,
    ledger: Option<ProvenanceLedger>,
    events_path: PathBuf,
}

/// [`RecoveryOutcome`] plus what [`Pipeline::run_resumable`] stitches
/// into its timeline, per segment in merge order.
struct Recovered {
    outcome: RecoveryOutcome,
    readbacks: Vec<EventReadback>,
    segment_spans: Vec<SpanRecord>,
}

/// Marks of the monotonic avm telemetry counters taken at sweep start,
/// so [`Pipeline::assemble`] can report per-run deltas.
#[derive(Debug, Default, Clone, Copy)]
struct AvmMarks {
    events_dropped: u64,
    flow_truncated: u64,
    flow_deduped: u64,
}

/// Recovery counts carried into [`Pipeline::assemble`] for [`SweepStats`].
#[derive(Debug, Default)]
struct RecoverySummary {
    recovered: u64,
    dropped: u64,
    inconsistent: u64,
    quarantined: Vec<String>,
}

/// Uniform stream-recovery warning, only when frames were lost.
fn dropped_warning(stream: &str, path: &Path, recovered: usize, dropped: usize) -> Option<String> {
    (dropped > 0).then(|| {
        format!(
            "dydroid: {stream} {}: recovered {recovered} record(s), dropped {dropped} corrupt frame(s)",
            path.display()
        )
    })
}

/// One line of the canonical (finalized) event stream: a bare per-app
/// fact, free of span ids and timestamps so the finalized stream is
/// byte-identical however the sweep interleaved.
fn canonical_event(package: &str, kind: &str) -> String {
    let mut line = EventLine::new(kind);
    line.field("app", package);
    line.finish()
}

/// Stable label for a [`DynamicStatus`], used as a span field value.
fn status_label(status: &DynamicStatus) -> &'static str {
    match status {
        DynamicStatus::Exercised => "exercised",
        DynamicStatus::Crash => "crash",
        DynamicStatus::NoActivity => "no_activity",
        DynamicStatus::RewriteFailure => "rewrite_failure",
        DynamicStatus::AnalysisFailure { .. } => "harness_failure",
    }
}

/// Span-field verdict for a completed app record (also the provenance
/// ledger's per-app verdict label).
pub(crate) fn verdict_label(record: &AppRecord) -> &'static str {
    match record.dynamic.as_ref() {
        None => "static_only",
        Some(outcome) => status_label(&outcome.status),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

pub(crate) fn hash_pkg(pkg: &str) -> u64 {
    pkg.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_workload::{generate, CorpusSpec};

    fn tiny_corpus() -> Vec<SyntheticApp> {
        generate(&CorpusSpec {
            scale: 0.004, // ~235 apps
            seed: 99,
        })
    }

    #[test]
    fn empty_corpus_is_fine() {
        let pipeline = Pipeline::new(PipelineConfig {
            environment_reruns: true,
            ..Default::default()
        });
        let report = pipeline.run(&[]);
        assert!(report.records().is_empty());
        assert_eq!(report.env_counts().total_files, 0);
        // All tables render from nothing.
        let _ = report.render_all();
    }

    #[test]
    fn report_serialises_to_json_and_back() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig {
            environment_reruns: false,
            workers: 2,
            ..Default::default()
        });
        let report = pipeline.run(&corpus[..20.min(corpus.len())]);
        let json = serde_json::to_string(&report).expect("serialise");
        let back: MeasurementReport = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(back.table2(), report.table2());
        assert_eq!(back.records().len(), report.records().len());
    }

    #[test]
    fn pipeline_runs_over_tiny_corpus() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig {
            workers: 2,
            environment_reruns: false,
            ..Default::default()
        });
        let report = pipeline.run(&corpus);
        assert_eq!(report.records().len(), corpus.len());
        // Somebody must have been intercepted.
        assert!(report.records().iter().any(AppRecord::dex_intercepted));
        assert!(report.records().iter().any(AppRecord::native_intercepted));
    }

    #[test]
    fn anti_decompilation_app_recorded() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig {
            workers: 1,
            environment_reruns: false,
            ..Default::default()
        });
        let app = corpus
            .iter()
            .find(|a| a.plan.anti_decompilation)
            .expect("plan includes anti-decompilation apps");
        let record = pipeline.analyze_app(app);
        assert!(!record.decompiled);
        assert!(record.obfuscation.anti_decompilation);
        assert!(record.dynamic.is_none());
    }

    #[test]
    fn remote_fetch_app_detected_as_remote() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| a.plan.remote_fetch)
            .expect("plan includes remote-fetch apps");
        let record = pipeline.analyze_app(app);
        let dynamic = record.dynamic.expect("dynamic phase ran");
        assert_eq!(dynamic.status, DynamicStatus::Exercised);
        assert!(!dynamic.remote_loads.is_empty(), "must be flagged remote");
        assert!(dynamic.remote_loads[0].1[0].contains("mobads.baidu.com"));
        assert!(dynamic.dex_entity.third_party);
    }

    #[test]
    fn malware_app_detected() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| {
                matches!(
                    a.plan.malware,
                    Some((dydroid_workload::MalwareFamily::ChathookPtrace, _))
                ) && a
                    .plan
                    .malware
                    .as_ref()
                    .map(|(_, t)| t.iter().all(|x| *x == dydroid_workload::TriggerSet::none()))
                    .unwrap_or(false)
            })
            .or_else(|| corpus.iter().find(|a| a.plan.malware.is_some()));
        if let Some(app) = app {
            let record = pipeline.analyze_app(app);
            let dynamic = record.dynamic.expect("dynamic phase ran");
            // Under the baseline environment every trigger fires, so the
            // payload loads and must be flagged.
            assert!(
                !dynamic.malware.is_empty(),
                "expected detection for {}: {dynamic:?}",
                app.plan.package
            );
        }
    }

    #[test]
    fn crash_app_categorised() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| a.plan.crash_on_launch)
            .expect("plan includes crash apps");
        let record = pipeline.analyze_app(app);
        assert_eq!(record.dynamic.unwrap().status, DynamicStatus::Crash);
    }

    #[test]
    fn rewrite_failure_categorised() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| a.plan.anti_repackaging)
            .expect("plan includes anti-repackaging apps");
        let record = pipeline.analyze_app(app);
        assert_eq!(
            record.dynamic.unwrap().status,
            DynamicStatus::RewriteFailure
        );
        assert!(!record.rewritten);
    }

    #[test]
    fn vulnerable_app_flagged() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| matches!(a.plan.vuln, Some(dydroid_workload::VulnPlan::DexExternal)))
            .expect("plan includes vulnerable apps");
        let record = pipeline.analyze_app(app);
        let dynamic = record.dynamic.unwrap();
        assert!(dynamic
            .vulns
            .iter()
            .any(|v| matches!(v, VulnKind::ExternalStorage)));
    }

    #[test]
    fn privacy_leaks_surface_in_record() {
        let corpus = tiny_corpus();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let app = corpus
            .iter()
            .find(|a| a.plan.google_ads)
            .expect("plan includes ad apps");
        let record = pipeline.analyze_app(app);
        let dynamic = record.dynamic.unwrap();
        assert!(dynamic
            .leak_types
            .iter()
            .any(|l| l.privacy == PrivacyType::Settings && l.exclusively_third_party));
    }
}
