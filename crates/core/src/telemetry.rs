//! Span-based tracing and metrics for the measurement pipeline.
//!
//! DyDroid is a *measurement* system: when a 46K-app sweep (or our
//! fault-injected 200-app reproduction) stalls, the coarse wall-times in
//! `SweepStats` cannot say which app, which phase, or where the time
//! went. This module provides the missing observability layer:
//!
//! - **Spans** — every app analyzed under [`crate::Pipeline::run`] /
//!   `run_resumable` opens a span with child spans per phase (static
//!   filter, rewrite, install, monkey run, interception collect, binary
//!   analysis, environment re-runs), each carrying structured fields
//!   (app id, retry attempt, cache hit/miss deltas, verdict). Span ids
//!   are recorded in the sweep's JSONL event stream so resumed runs
//!   stitch into the same timeline.
//! - **Metrics** — a lock-striped registry (mirroring the `cache.rs`
//!   shard pattern) of counters, gauges, and log-linear histograms,
//!   feeding p50/p95/p99 per-phase latency into an extended
//!   `render_perf()`.
//! - **Exporters** — (1) a JSONL event stream written alongside the
//!   journal, (2) Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` / Perfetto ([`chrome_trace`]), and (3) a
//!   periodic single-line live progress report ([`Progress`]).
//!
//! Everything is gated by `PipelineConfig::telemetry`: a disabled
//! [`Telemetry`] is a single `Option` check per call site — no
//! allocation, no clock read, no atomics.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::durable::{
    atomic_write_frames, encode_frames, visit_path, FramedWriter, IoHarness, SinkOptions,
    StreamKind,
};

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two (16 → ≤6.25% relative quantile error).
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Values below `SUBS` get exact unit buckets; each octave above
/// contributes `SUBS` buckets, up to the top of the `u64` range.
const NUM_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Maps a value to its log-linear bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        (shift as usize) * SUBS + (v >> shift) as usize
    }
}

/// Inclusive lower bound of a bucket (its reported quantile value).
fn bucket_lower(i: usize) -> u64 {
    if i < SUBS {
        i as u64
    } else {
        ((i % SUBS + SUBS) as u64) << (i / SUBS - 1)
    }
}

/// A log-linear histogram over `u64` values (microseconds, counts, …).
///
/// Recording is O(1); quantiles are read by walking cumulative bucket
/// counts and reporting the matching bucket's lower bound, clamped to
/// the observed `[min, max]` — so the relative error is bounded by the
/// bucket width (≤6.25% with 16 sub-buckets per octave).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]` (0 when empty). Reported as the
    /// lower bound of the bucket holding the target rank, clamped to the
    /// observed value range.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if target == self.count {
            // The top rank is the observed maximum, exactly.
            return self.max;
        }
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bucket_lower(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Snapshot of the headline summary statistics.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Headline statistics of one [`Histogram`], cheap to copy and serialize.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median (bucket lower bound).
    pub p50: u64,
    /// 95th percentile (bucket lower bound).
    pub p95: u64,
    /// 99th percentile (bucket lower bound).
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Lock-striped metrics registry
// ---------------------------------------------------------------------------

const REGISTRY_SHARDS: usize = 16;

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histo(Arc<Mutex<Histogram>>),
}

/// A sharded registry of named counters, gauges, and histograms.
///
/// Names are striped over `Mutex<HashMap>` shards by FNV-1a hash — the
/// same pattern `cache.rs` uses for verdict shards — so concurrent sweep
/// workers recording different metrics rarely contend.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Box<[Mutex<HashMap<String, Metric>>]>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        let shards = (0..REGISTRY_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MetricsRegistry { shards }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Metric>> {
        &self.shards[(name_hash(name) as usize) & (self.shards.len() - 1)]
    }

    fn metric(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut shard = self.shard(name).lock().expect("metrics shard poisoned");
        if let Some(metric) = shard.get(name) {
            return metric.clone();
        }
        shard.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Adds `n` to the named counter, creating it at zero if needed.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Metric::Counter(c) = self.metric(name, || Metric::Counter(Arc::default())) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of the named counter (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        let shard = self.shard(name).lock().expect("metrics shard poisoned");
        match shard.get(name) {
            Some(Metric::Counter(c)) => c.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Sets the named gauge to `v`, creating it if needed.
    pub fn gauge_set(&self, name: &str, v: u64) {
        if let Metric::Gauge(g) = self.metric(name, || Metric::Gauge(Arc::default())) {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Current value of the named gauge (0 if absent).
    pub fn gauge_value(&self, name: &str) -> u64 {
        let shard = self.shard(name).lock().expect("metrics shard poisoned");
        match shard.get(name) {
            Some(Metric::Gauge(g)) => g.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Records `v` into the named histogram, creating it if needed.
    pub fn record(&self, name: &str, v: u64) {
        if let Metric::Histo(h) = self.metric(name, || Metric::Histo(Arc::default())) {
            h.lock().expect("histogram poisoned").record(v);
        }
    }

    /// Point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("metrics shard poisoned");
            for (name, metric) in shard.iter() {
                match metric {
                    Metric::Counter(c) => {
                        counters.push((name.clone(), c.load(Ordering::Relaxed)));
                    }
                    Metric::Gauge(g) => gauges.push((name.clone(), g.load(Ordering::Relaxed))),
                    Metric::Histo(h) => {
                        let summary = h.lock().expect("histogram poisoned").summary();
                        histograms.push((name.clone(), summary));
                    }
                }
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A serializable point-in-time view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Value of a counter in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Summary of a histogram in this snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The counters as an ordered name → value map — the export surface
    /// the unified bench measurement record (`dydroid-bench`) feeds its
    /// `counters` envelope from. Registry names are kept verbatim.
    pub fn counter_map(&self) -> std::collections::BTreeMap<String, u64> {
        self.counters.iter().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A completed (or stitched-in) span on the sweep timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique id within the timeline (never 0; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Phase name ("app", "monkey", "binary_analysis", …).
    pub name: String,
    /// Worker lane the span ran on (stable per thread).
    pub tid: u64,
    /// Start offset from the telemetry epoch, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Structured key/value fields attached via [`SpanGuard::field`].
    pub fields: Vec<(String, String)>,
}

/// What one previous-session event stream holds for a resumed run,
/// gathered in a single pass over its bodies: the spans to stitch and
/// the apps it checkpointed.
#[derive(Debug, Default)]
pub(crate) struct EventReadback {
    /// Span lines of the stitchable prefix, in stream order.
    spans: Vec<SpanRecord>,
    /// Highest span id any line of the stitchable prefix names.
    max_span_id: u64,
    /// Apps with a `checkpoint` line anywhere in the stream.
    pub(crate) checkpoints: HashSet<String>,
    /// Set by the first body that is not JSON: the timeline stops
    /// there, while the checkpoint set takes every later line too.
    stitch_ended: bool,
}

impl EventReadback {
    /// Takes one frame body: parses it once and files what it says.
    pub(crate) fn read(&mut self, body: &str) {
        let Ok(value) = serde_json::from_str::<serde::Value>(body) else {
            self.stitch_ended = true;
            return;
        };
        let kind = value.get("type").and_then(|t| t.as_str());
        if kind == Some("checkpoint") {
            if let Some(app) = value.get("app").and_then(|a| a.as_str()) {
                self.checkpoints.insert(app.to_string());
            }
        }
        if self.stitch_ended {
            return;
        }
        match kind {
            Some("span") => {
                if let Ok(record) = SpanRecord::from_json(&value) {
                    self.max_span_id = self.max_span_id.max(record.id);
                    self.spans.push(record);
                }
            }
            Some("checkpoint" | "provenance") => {
                if let Some(id) = value.get("span").and_then(|s| s.as_u64()) {
                    self.max_span_id = self.max_span_id.max(id);
                }
            }
            _ => {}
        }
    }

    /// The span lines read so far, for offline replay.
    pub(crate) fn into_spans(self) -> Vec<SpanRecord> {
        self.spans
    }
}

/// Total spans retained in memory before new ones are counted as
/// dropped (they still reach the JSONL sink and the histograms).
const MAX_SPANS: usize = 1 << 20;
const SPAN_STRIPES: usize = 16;

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_span: AtomicU64,
    registry: MetricsRegistry,
    spans: Box<[Mutex<Vec<SpanRecord>>]>,
    span_count: AtomicUsize,
    sink: Mutex<Option<FramedWriter>>,
    /// Per-shard event sinks for multi-writer sweeps: each worker routes
    /// its events (via the thread-local shard scope) to its app's shard
    /// file, so concurrent appends never contend on one sink mutex.
    shard_sinks: RwLock<Vec<Arc<Mutex<FramedWriter>>>>,
    /// Whether the base sink or any shard sink is attached, so a run
    /// without an event stream never renders the lines it would drop.
    sink_attached: AtomicBool,
}

thread_local! {
    /// The event shard the current thread's writes are scoped to. Set by
    /// [`Telemetry::event_shard_scope`] around each sharded-sweep task;
    /// `None` routes to the base sink.
    static EVENT_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
}

/// RAII guard scoping the current thread's event writes to one shard;
/// restores the previous scope on drop (scopes nest).
pub struct EventShardGuard {
    prev: Option<usize>,
}

impl Drop for EventShardGuard {
    fn drop(&mut self) {
        EVENT_SHARD.with(|s| s.set(self.prev));
    }
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

fn thread_lane() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static LANE: Cell<u64> = const { Cell::new(0) };
    }
    LANE.with(|lane| {
        if lane.get() == 0 {
            lane.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        lane.get()
    })
}

impl Inner {
    fn new() -> Self {
        let spans = (0..SPAN_STRIPES)
            .map(|_| Mutex::new(Vec::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Inner {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            registry: MetricsRegistry::new(),
            spans,
            span_count: AtomicUsize::new(0),
            sink: Mutex::new(None),
            shard_sinks: RwLock::new(Vec::new()),
            sink_attached: AtomicBool::new(false),
        }
    }

    /// Recomputes [`Inner::sink_attached`] after a sink change.
    fn refresh_sink_attached(&self) {
        let attached = self.sink.lock().expect("event sink poisoned").is_some()
            || !self
                .shard_sinks
                .read()
                .expect("shard sinks poisoned")
                .is_empty();
        self.sink_attached.store(attached, Ordering::SeqCst);
    }

    /// Writes an event line of type `kind` with the members `fields`
    /// appends, or renders nothing when no sink is attached.
    fn emit(&self, kind: &str, fields: impl FnOnce(&mut EventLine)) {
        if !self.sink_attached.load(Ordering::SeqCst) {
            return;
        }
        let mut line = EventLine::new(kind);
        fields(&mut line);
        self.write_event(&line.finish());
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn store_span(&self, record: SpanRecord) {
        if self.span_count.load(Ordering::Relaxed) >= MAX_SPANS {
            self.registry.counter_add("telemetry.spans_dropped", 1);
            return;
        }
        self.span_count.fetch_add(1, Ordering::Relaxed);
        let stripe = (record.tid as usize) & (self.spans.len() - 1);
        self.spans[stripe]
            .lock()
            .expect("span stripe poisoned")
            .push(record);
    }

    fn write_event(&self, line: &str) {
        // A thread inside a shard scope appends to its shard's sink so
        // concurrent workers never contend on the base sink mutex; all
        // other threads (and non-sharded runs) use the base sink.
        if let Some(shard) = EVENT_SHARD.with(Cell::get) {
            let writer = {
                let sinks = self.shard_sinks.read().expect("shard sinks poisoned");
                if sinks.is_empty() {
                    None
                } else {
                    Some(Arc::clone(&sinks[shard % sinks.len()]))
                }
            };
            if let Some(writer) = writer {
                let mut w = writer.lock().expect("shard sink poisoned");
                self.append_event(&mut w, line);
                return;
            }
        }
        let mut sink = self.sink.lock().expect("event sink poisoned");
        if let Some(w) = sink.as_mut() {
            self.append_event(w, line);
        }
    }

    /// Mirror the journal's crash discipline: one framed line per
    /// event. The writer sheds events itself under disk pressure;
    /// hard errors are counted and warned once (the finalized
    /// stream is reconstructed from memory at run completion, so
    /// a lost live event never corrupts the durable record).
    fn append_event(&self, w: &mut FramedWriter, line: &str) {
        if let Err(e) = w.append_body(line) {
            self.registry.counter_add("telemetry.event_write_errors", 1);
            if self.registry.counter_value("telemetry.event_write_errors") == 1 {
                eprintln!("dydroid: events: write failed ({e}); degrading telemetry");
            }
        }
    }

    fn finish_span(&self, mut record: SpanRecord) {
        thread_local! {
            /// Reused `span.<name>.us` histogram key.
            static KEY: RefCell<String> = const { RefCell::new(String::new()) };
        }
        record.dur_us = self.now_us().saturating_sub(record.start_us);
        KEY.with(|key| {
            let mut key = key.borrow_mut();
            key.clear();
            key.push_str("span.");
            key.push_str(&record.name);
            key.push_str(".us");
            self.registry.record(&key, record.dur_us);
        });
        self.emit("span", |line| span_fields(line, &record));
        self.store_span(record);
    }
}

/// One event-stream line, `{"type":<kind>,"key":value,...}`, written
/// member by member straight into its text.
pub(crate) struct EventLine {
    text: String,
}

impl EventLine {
    /// A line of the given `type`.
    pub(crate) fn new(kind: &str) -> Self {
        let mut text = String::with_capacity(128);
        text.push_str("{\"type\":");
        kind.write_json(&mut text);
        EventLine { text }
    }

    /// Appends one `"key":value` member.
    pub(crate) fn field(&mut self, key: &str, value: &(impl Serialize + ?Sized)) -> &mut Self {
        self.text.push(',');
        key.write_json(&mut self.text);
        self.text.push(':');
        value.write_json(&mut self.text);
        self
    }

    /// The finished single-line JSON object.
    pub(crate) fn finish(mut self) -> String {
        self.text.push('}');
        self.text
    }
}

/// A span line's members after its `type`: the [`SpanRecord`] fields in
/// declaration order, as its derived `Serialize` writes them and
/// [`EventReadback`] parses them back.
fn span_fields(line: &mut EventLine, record: &SpanRecord) {
    line.field("id", &record.id)
        .field("parent", &record.parent)
        .field("name", &record.name)
        .field("tid", &record.tid)
        .field("start_us", &record.start_us)
        .field("dur_us", &record.dur_us)
        .field("fields", &record.fields);
}

/// Handle to the telemetry subsystem. Cloning is cheap (an `Arc`); a
/// disabled handle makes every operation a no-op.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled or disabled subsystem, per `PipelineConfig::telemetry`.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            inner: enabled.then(|| Arc::new(Inner::new())),
        }
    }

    /// A disabled handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether telemetry is collecting.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span. The span ends (and is recorded) on drop.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with_parent(name, 0)
    }

    /// Opens a span under an explicit parent span id (0 = root). Used to
    /// parent worker-thread spans under the sweep span without carrying
    /// a guard across threads.
    pub fn span_with_parent(&self, name: &str, parent: u64) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                let record = SpanRecord {
                    id,
                    parent,
                    name: name.to_string(),
                    tid: thread_lane(),
                    start_us: inner.now_us(),
                    dur_us: 0,
                    fields: Vec::new(),
                };
                SpanGuard {
                    active: Some(ActiveSpan {
                        inner: Arc::clone(inner),
                        record: Some(record),
                    }),
                }
            }
        }
    }

    /// Adds `n` to a named counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter_add(name, n);
        }
    }

    /// Current value of a named counter (0 when disabled or absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.registry.counter_value(name))
    }

    /// Sets a named gauge.
    pub fn gauge_set(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_set(name, v);
        }
    }

    /// Current value of a named gauge (0 when disabled or absent).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.registry.gauge_value(name))
    }

    /// Records a value into a named histogram.
    pub fn record(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.record(name, v);
        }
    }

    /// Snapshot of all metrics (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |i| i.registry.snapshot())
    }

    /// All retained spans, ordered by start time then id.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut all = Vec::new();
        for stripe in inner.spans.iter() {
            all.extend(stripe.lock().expect("span stripe poisoned").iter().cloned());
        }
        all.sort_by_key(|s| (s.start_us, s.id));
        all
    }

    /// Calls `f` on every retained span, in no particular order, with
    /// the span store locked: a pass over the spans without cloning them.
    pub fn with_spans<R>(&self, f: impl FnOnce(&[&SpanRecord]) -> R) -> R {
        let Some(inner) = &self.inner else {
            return f(&[]);
        };
        let stripes: Vec<_> = inner
            .spans
            .iter()
            .map(|stripe| stripe.lock().expect("span stripe poisoned"))
            .collect();
        let all: Vec<&SpanRecord> = stripes.iter().flat_map(|stripe| stripe.iter()).collect();
        f(&all)
    }

    /// Directs the framed JSONL event stream (span, checkpoint and
    /// provenance-link lines) to `path`, appending so resumed sweeps
    /// extend the same stream; a torn or corrupt tail is truncated and
    /// the frame sequence continues from the valid prefix.
    pub fn set_event_sink(&self, path: &Path) -> io::Result<()> {
        self.set_event_sink_with(path, SinkOptions::direct(StreamKind::Events))
    }

    /// Like [`Telemetry::set_event_sink`], but with explicit sink
    /// options so the pipeline can thread the run's shared I/O state,
    /// sync policy, and fault harness through.
    pub fn set_event_sink_with(&self, path: &Path, opts: SinkOptions) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let writer = FramedWriter::open(path, opts)?;
        *inner.sink.lock().expect("event sink poisoned") = Some(writer);
        inner.refresh_sink_attached();
        Ok(())
    }

    /// Opens one framed event sink per shard path (appending, torn tails
    /// truncated — same contract as [`Telemetry::set_event_sink_with`]).
    /// Worker threads opt into a shard with
    /// [`Telemetry::event_shard_scope`]; threads outside any scope keep
    /// writing to the base sink. Replaces any previous shard sinks.
    pub fn set_sharded_event_sinks(
        &self,
        paths: &[std::path::PathBuf],
        opts: &SinkOptions,
    ) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut sinks = Vec::with_capacity(paths.len());
        for path in paths {
            let writer = FramedWriter::open(path, opts.clone())?;
            sinks.push(Arc::new(Mutex::new(writer)));
        }
        *inner.shard_sinks.write().expect("shard sinks poisoned") = sinks;
        inner.refresh_sink_attached();
        Ok(())
    }

    /// Closes all per-shard event sinks (flushing on drop); subsequent
    /// writes from any shard scope fall back to the base sink.
    pub fn clear_sharded_event_sinks(&self) {
        if let Some(inner) = &self.inner {
            inner
                .shard_sinks
                .write()
                .expect("shard sinks poisoned")
                .clear();
            inner.refresh_sink_attached();
        }
    }

    /// Scopes the current thread's event writes to `shard` until the
    /// returned guard drops (pass `None` to force the base sink). Safe
    /// to call with telemetry disabled — the scope is thread-local and
    /// simply never consulted.
    pub fn event_shard_scope(&self, shard: Option<usize>) -> EventShardGuard {
        let prev = EVENT_SHARD.with(|s| s.replace(shard));
        EventShardGuard { prev }
    }

    /// Atomically replaces the event stream at `path` with the given
    /// canonical body lines (reframed from sequence 0), closing the live
    /// sink first. Called when a journaled run completes: the canonical
    /// stream holds only interleave-independent lines, which is what
    /// makes the finalized file byte-identical across same-seed and
    /// resumed runs. No-op when telemetry is disabled.
    ///
    /// # Errors
    ///
    /// Returns write errors from the atomic rewrite.
    pub fn finalize_event_sink(
        &self,
        path: &Path,
        bodies: &[String],
        harness: Option<&Arc<IoHarness>>,
    ) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        *inner.sink.lock().expect("event sink poisoned") = None;
        inner
            .shard_sinks
            .write()
            .expect("shard sinks poisoned")
            .clear();
        inner.refresh_sink_attached();
        atomic_write_frames(path, encode_frames(0, bodies), harness)
    }

    /// Emits a checkpoint event tying a journaled app record to the span
    /// that produced it, so a resumed run can stitch the timeline.
    pub fn emit_checkpoint(&self, app: &str, span: u64) {
        self.emit_app_link("checkpoint", app, span);
    }

    /// Emits a provenance-link event tying an app's ledger record to the
    /// span that produced it. The ledger itself omits span ids (they
    /// depend on worker interleave and would break its byte-determinism),
    /// so this event-stream line is the durable cross-reference.
    pub fn emit_provenance_link(&self, app: &str, span: u64) {
        self.emit_app_link("provenance", app, span);
    }

    /// `{"type":<kind>,"app":..,"span":..,"t_us":..}`: the checkpoint
    /// and provenance-link line shape.
    fn emit_app_link(&self, kind: &str, app: &str, span: u64) {
        let Some(inner) = &self.inner else { return };
        inner.emit(kind, |line| {
            line.field("app", app)
                .field("span", &span)
                .field("t_us", &inner.now_us());
        });
    }

    /// Emits a structured warning event (`{"type":"warn","kind":...}`)
    /// to the live event stream — the observatory's channel for
    /// straggler and stall alerts, which `dcltrace top` surfaces while
    /// the sweep runs. Like span lines, warnings are live-only detail:
    /// the finalized canonical stream drops them.
    pub fn emit_warning(&self, kind: &str, app: &str, detail: &[(&str, u64)]) {
        let Some(inner) = &self.inner else { return };
        inner.emit("warn", |line| {
            line.field("kind", kind).field("app", app);
            for (name, value) in detail {
                line.field(name, value);
            }
            line.field("t_us", &inner.now_us());
        });
    }

    /// Loads span events from a previous session's JSONL stream so a
    /// resumed sweep extends the same timeline: stitched spans are
    /// retained for trace export and the span-id counter is advanced
    /// past the highest prior id (ids stay unique across sessions).
    /// Histograms are *not* replayed — metrics describe this process.
    /// Returns the number of spans stitched; the first torn or corrupt
    /// frame stops the read (same tolerance as the journal).
    pub fn stitch_from(&self, path: &Path) -> io::Result<usize> {
        if !self.is_enabled() {
            return Ok(0);
        }
        let mut readback = EventReadback::default();
        visit_path(path, |_, body| readback.read(body))?;
        Ok(self.stitch(readback))
    }

    /// Stitches the spans of one stream's [`EventReadback`] into the
    /// timeline (see [`Telemetry::stitch_from`]); returns how many.
    pub(crate) fn stitch(&self, readback: EventReadback) -> usize {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let loaded = readback.spans.len();
        for record in readback.spans {
            inner.store_span(record);
        }
        inner
            .next_span
            .fetch_max(readback.max_span_id + 1, Ordering::Relaxed);
        loaded
    }

    /// Microseconds since the telemetry epoch (0 when disabled): the
    /// clock every span's `start_us` is on.
    pub(crate) fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now_us())
    }

    /// A span that ran from `start_us` until now on the calling thread,
    /// without an id or parent yet (see [`Telemetry::record_span`]);
    /// `None` when disabled.
    pub(crate) fn span_since(
        &self,
        name: &str,
        start_us: u64,
        fields: Vec<(&str, String)>,
    ) -> Option<SpanRecord> {
        let inner = self.inner.as_ref()?;
        Some(SpanRecord {
            id: 0,
            parent: 0,
            name: name.to_string(),
            tid: thread_lane(),
            start_us,
            dur_us: inner.now_us().saturating_sub(start_us),
            fields: fields
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        })
    }

    /// Stores a span measured before its id could be handed out: it
    /// gets the next id, replacing `record.id`. Returns the id (0 when
    /// disabled).
    ///
    /// Resume recovery times its spans while it reads the previous
    /// session's events, and only then may it take ids: the stitched
    /// spans must first move the id counter past theirs. Such a span
    /// goes to the in-memory store only, for the profile and the trace
    /// export, like a stitched one: no event line (which would add a
    /// write to the I/O harness op clock) and no latency histogram
    /// (which every metrics snapshot would carry from then on).
    pub(crate) fn record_span(&self, mut record: SpanRecord) -> u64 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        record.id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let id = record.id;
        inner.store_span(record);
        id
    }

    /// Writes all retained spans as Chrome `trace_event` JSON, loadable
    /// in `chrome://tracing` or Perfetto.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let doc = chrome_trace(&self.spans());
        std::fs::write(path, doc.to_compact_string() + "\n")
    }
}

struct ActiveSpan {
    inner: Arc<Inner>,
    record: Option<SpanRecord>,
}

/// RAII guard for an open span; ends and records the span on drop.
/// All methods are no-ops when telemetry is disabled.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// The span's id, or 0 when telemetry is disabled.
    pub fn id(&self) -> u64 {
        self.active
            .as_ref()
            .and_then(|a| a.record.as_ref())
            .map_or(0, |r| r.id)
    }

    /// Whether this guard refers to a live span.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a structured `key = value` field.
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(record) = self.active.as_mut().and_then(|a| a.record.as_mut()) {
            record.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// Opens a child span of this span.
    pub fn child(&self, name: &str) -> SpanGuard {
        match &self.active {
            None => SpanGuard { active: None },
            Some(active) => Telemetry {
                inner: Some(Arc::clone(&active.inner)),
            }
            .span_with_parent(name, self.id()),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut active) = self.active.take() {
            if let Some(record) = active.record.take() {
                active.inner.finish_span(record);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Converts spans to a Chrome `trace_event` document (the JSON object
/// form: `{"traceEvents": [...]}`), loadable in `chrome://tracing` and
/// Perfetto. Each span becomes a complete (`"ph": "X"`) event on the
/// worker lane it ran on; span id, parent id, and structured fields ride
/// in `args`.
pub fn chrome_trace(spans: &[SpanRecord]) -> serde::Value {
    let events: Vec<serde::Value> = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), s.id.to_json()),
                ("parent".to_string(), s.parent.to_json()),
            ];
            for (k, v) in &s.fields {
                args.push((k.clone(), serde::Value::Str(v.clone())));
            }
            serde::Value::Object(vec![
                ("name".to_string(), serde::Value::Str(s.name.clone())),
                ("cat".to_string(), serde::Value::Str("dydroid".to_string())),
                ("ph".to_string(), serde::Value::Str("X".to_string())),
                ("ts".to_string(), s.start_us.to_json()),
                ("dur".to_string(), s.dur_us.to_json()),
                ("pid".to_string(), 1u64.to_json()),
                ("tid".to_string(), s.tid.to_json()),
                ("args".to_string(), serde::Value::Object(args)),
            ])
        })
        .collect();
    serde::Value::Object(vec![
        ("traceEvents".to_string(), serde::Value::Array(events)),
        (
            "displayTimeUnit".to_string(),
            serde::Value::Str("ms".to_string()),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Live progress
// ---------------------------------------------------------------------------

/// Live sweep progress: counts completions and renders a single-line
/// report roughly every tenth of the corpus (and always on the last
/// app). The ETA projects the remaining apps' virtual-clock charge
/// (`monkey.virtual_us`, accumulated in microseconds so per-app deltas
/// never truncate to zero) through the observed virtual-time-per-wall-
/// second throughput — scaled by the run's parallel balance
/// (`sweep.virtual_makespan_us ÷ monkey.virtual_us`, published by the
/// sweep collector) so multi-worker ETAs reflect the *makespan* still
/// ahead rather than the serial virtual time, which would be k× too
/// pessimistic on k workers. Falls back to the serial projection when
/// no makespan gauge is set, and to plain completion rate when no
/// virtual time has been charged yet. The line also carries worker
/// utilization (`sweep.busy_us` against workers × wall time) and the
/// watchdog's running straggler count.
#[derive(Debug)]
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    failed: AtomicUsize,
    every: usize,
    started: Instant,
}

impl Progress {
    /// Tracker for a sweep over `total` apps.
    pub fn new(total: usize) -> Self {
        Progress {
            total,
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            every: (total / 10).max(1),
            started: Instant::now(),
        }
    }

    /// Notes one completed app; returns a progress line when one is due.
    pub fn on_app_done(&self, harness_failure: bool, telemetry: &Telemetry) -> Option<String> {
        if harness_failure {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !done.is_multiple_of(self.every) && done != self.total {
            return None;
        }
        let failed = self.failed.load(Ordering::Relaxed);
        let retried = telemetry.counter_value("sweep.retries");
        let virtual_us = telemetry.counter_value("monkey.virtual_us");
        let makespan_us = telemetry.gauge_value("sweep.virtual_makespan_us");
        let stalls = telemetry.counter_value("watchdog.stragglers");
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let workers = telemetry.gauge_value("sweep.workers");
        let busy_us = telemetry.gauge_value("sweep.busy_us");
        let util = if workers > 0 && elapsed > 0.0 {
            let capacity_us = workers as f64 * elapsed * 1e6;
            (busy_us as f64 / capacity_us * 100.0).min(100.0)
        } else {
            0.0
        };
        let remaining = self.total.saturating_sub(done) as f64;
        let eta = if virtual_us > 0 && elapsed > 0.0 {
            // remaining × (virtual time per app) ÷ (virtual time per
            // second), deflated to the makespan the workers actually
            // realize when the collector publishes one.
            let per_app = virtual_us as f64 / done as f64;
            let balance = if makespan_us > 0 {
                (makespan_us as f64 / virtual_us as f64).min(1.0)
            } else {
                1.0
            };
            remaining * per_app * balance / (virtual_us as f64 / elapsed).max(f64::MIN_POSITIVE)
        } else if rate > 0.0 {
            remaining / rate
        } else {
            0.0
        };
        Some(format!(
            "sweep {done}/{total} · {failed} failed · {retried} retried · \
             {rate:.1} apps/s · {util:.0}% util · {stalls} stalled · \
             {virtual_ms:.1} virtual ms charged · ETA {eta:.1}s",
            total = self.total,
            virtual_ms = virtual_us as f64 / 1_000.0,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_exact_below_subs_and_bounded_above() {
        // Unit buckets below SUBS.
        for v in 0..SUBS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
        // Every bucket's lower bound maps back to that bucket, and
        // bucket lower bounds are strictly increasing.
        let mut prev = None;
        for i in 0..NUM_BUCKETS {
            let lb = bucket_lower(i);
            assert_eq!(bucket_index(lb), i, "lower bound of bucket {i}");
            if let Some(p) = prev {
                assert!(lb > p, "bucket {i} not increasing");
            }
            prev = Some(lb);
        }
        // Relative error bound: lower bound within 1/16 of any value.
        for v in [17u64, 100, 999, 12_345, u32::MAX as u64, u64::MAX / 3] {
            let lb = bucket_lower(bucket_index(v));
            assert!(lb <= v);
            assert!(v - lb <= v / SUBS as u64, "error too large for {v}");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.quantile(0.50);
        assert!((469..=531).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((928..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);

        // A point mass at a bucket boundary is reported exactly.
        let mut point = Histogram::new();
        for _ in 0..100 {
            point.record(4096);
        }
        assert_eq!(point.quantile(0.5), 4096);
        assert_eq!(point.summary().p99, 4096);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in [3u64, 17, 170, 1_700, 17_000] {
            a.record(v);
            combined.record(v);
        }
        for v in [5u64, 50, 500_000] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), combined.summary());
    }

    #[test]
    fn registry_counters_gauges_histograms_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter_add("apps", 3);
        reg.counter_add("apps", 4);
        reg.gauge_set("workers", 8);
        reg.record("lat.us", 100);
        reg.record("lat.us", 200);
        assert_eq!(reg.counter_value("apps"), 7);
        assert_eq!(reg.counter_value("missing"), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("apps"), 7);
        assert_eq!(snap.gauges, vec![("workers".to_string(), 8)]);
        let lat = snap.histogram("lat.us").expect("histogram");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.min, 100);
        assert_eq!(lat.max, 200);
        // The snapshot serializes and parses back through the shim.
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn spans_nest_and_record_fields() {
        let t = Telemetry::new(true);
        {
            let mut root = t.span("app");
            root.field("app", "com.example");
            {
                let mut child = root.child("monkey");
                child.field("events", 10);
                assert_ne!(child.id(), 0);
                assert_ne!(child.id(), root.id());
            }
            let grand = root.child("analysis");
            drop(grand);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "app").expect("root span");
        assert_eq!(root.parent, 0);
        assert_eq!(
            root.fields,
            vec![("app".to_string(), "com.example".to_string())]
        );
        for child in spans.iter().filter(|s| s.name != "app") {
            assert_eq!(child.parent, root.id);
        }
        // The drop hook fed the per-phase histograms.
        let snap = t.snapshot();
        assert_eq!(snap.histogram("span.app.us").expect("app histo").count, 1);
        assert_eq!(
            snap.histogram("span.monkey.us")
                .expect("monkey histo")
                .count,
            1
        );
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::disabled();
        let mut span = t.span("app");
        assert_eq!(span.id(), 0);
        assert!(!span.is_recording());
        span.field("k", "v");
        let child = span.child("inner");
        assert_eq!(child.id(), 0);
        drop(child);
        drop(span);
        t.counter_add("c", 1);
        assert_eq!(t.counter_value("c"), 0);
        assert!(t.spans().is_empty());
        assert_eq!(t.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn chrome_trace_document_parses_back() {
        let t = Telemetry::new(true);
        {
            let mut root = t.span("app");
            root.field("app", "com.x");
            let _child = root.child("monkey");
        }
        let doc = chrome_trace(&t.spans());
        let text = doc.to_compact_string();
        let parsed: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(ev.get("ts").and_then(|t| t.as_u64()).is_some());
            assert!(ev.get("dur").and_then(|d| d.as_u64()).is_some());
            assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
            assert!(ev.get("args").and_then(|a| a.get("id")).is_some());
        }
    }

    #[test]
    fn event_lines_match_the_tree_form() {
        let record = SpanRecord {
            id: 12,
            parent: 3,
            name: "binary_analysis".to_string(),
            tid: 2,
            start_us: 1_000_000,
            dur_us: u64::MAX,
            fields: vec![
                ("app".to_string(), "com.\"q\"\\é".to_string()),
                ("note".to_string(), "line\nbreak\u{1}".to_string()),
            ],
        };
        let mut tree = vec![("type".to_string(), serde::Value::Str("span".to_string()))];
        if let serde::Value::Object(rest) = record.to_json() {
            tree.extend(rest);
        }
        let mut line = EventLine::new("span");
        span_fields(&mut line, &record);
        assert_eq!(
            line.finish(),
            serde::Value::Object(tree).to_compact_string()
        );

        let mut line = EventLine::new("warn");
        line.field("app", "com.a").field("ms", &7u64);
        assert_eq!(
            line.finish(),
            serde_json::json!({ "type": "warn", "app": "com.a", "ms": 7u64 }).to_compact_string()
        );
    }

    #[test]
    fn event_lines_render_only_with_a_sink_attached() {
        let dir = std::env::temp_dir().join(format!(
            "dydroid-sink-flag-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let t = Telemetry::new(true);
        let attached = || {
            t.inner
                .as_ref()
                .expect("enabled")
                .sink_attached
                .load(Ordering::SeqCst)
        };
        assert!(!attached());
        t.set_sharded_event_sinks(
            &[dir.join("shard0.jsonl")],
            &SinkOptions::direct(StreamKind::Events),
        )
        .expect("shard sinks");
        assert!(attached());
        t.clear_sharded_event_sinks();
        assert!(!attached());
        let path = dir.join("events.jsonl");
        t.set_event_sink(&path).expect("sink");
        assert!(attached());
        drop(t.span("app"));
        t.finalize_event_sink(&path, &[], None).expect("finalize");
        assert!(!attached());
        // Spans still reach the store and the histograms without a sink.
        drop(t.span("app"));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(
            t.snapshot().histogram("span.app.us").map(|h| h.count),
            Some(2)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn event_stream_stitches_across_sessions() {
        let path = std::env::temp_dir().join(format!(
            "dydroid-stitch-{}-{:?}.events.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        // Session 1: two spans and a checkpoint.
        let first = Telemetry::new(true);
        first.set_event_sink(&path).expect("sink");
        let first_ids: Vec<u64> = {
            let mut root = first.span("app");
            root.field("app", "com.a");
            let child = root.child("monkey");
            vec![root.id(), child.id()]
        };
        first.emit_checkpoint("com.a", first_ids[0]);
        drop(first);

        // Session 2 stitches the stream and continues the timeline.
        let second = Telemetry::new(true);
        let loaded = second.stitch_from(&path).expect("stitch");
        assert_eq!(loaded, 2);
        second.set_event_sink(&path).expect("sink");
        let new_id = {
            let span = second.span("app");
            span.id()
        };
        // Ids never collide across sessions.
        assert!(first_ids.iter().all(|&id| id != new_id));
        let spans = second.spans();
        assert_eq!(spans.len(), 3);
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3, "span ids must be unique after stitching");

        // A torn tail on the event stream is tolerated like the journal's.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                use std::io::Write;
                f.write_all(b"{\"type\":\"span\",\"id\":9")
            })
            .expect("append torn tail");
        let third = Telemetry::new(true);
        assert_eq!(third.stitch_from(&path).expect("stitch torn"), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_event_sinks_route_by_thread_scope() {
        let dir = std::env::temp_dir().join(format!(
            "dydroid-evshard-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let base = dir.join("events.jsonl");
        let shard_paths = vec![
            dir.join("shard-0.events.jsonl"),
            dir.join("shard-1.events.jsonl"),
        ];

        let t = Telemetry::new(true);
        t.set_event_sink(&base).expect("base sink");
        t.set_sharded_event_sinks(&shard_paths, &SinkOptions::direct(StreamKind::Events))
            .expect("shard sinks");

        // No scope → base sink; scoped → that shard; scopes nest/restore.
        t.emit_checkpoint("com.base", 1);
        {
            let _guard = t.event_shard_scope(Some(0));
            t.emit_checkpoint("com.zero", 2);
            {
                let _inner = t.event_shard_scope(Some(1));
                t.emit_checkpoint("com.one", 3);
            }
            t.emit_checkpoint("com.zero.again", 4);
        }
        t.emit_checkpoint("com.base.again", 5);
        t.clear_sharded_event_sinks();
        {
            // After clearing, a scoped write falls back to the base sink.
            let _guard = t.event_shard_scope(Some(0));
            t.emit_checkpoint("com.fallback", 6);
        }
        drop(t);

        let read = |p: &Path| {
            crate::durable::scan_path(p)
                .expect("scan")
                .map_or_else(Vec::new, |s| s.bodies)
        };
        let base_bodies = read(&base);
        assert_eq!(base_bodies.len(), 3);
        assert!(base_bodies[0].contains("com.base"));
        assert!(base_bodies[2].contains("com.fallback"));
        let zero = read(&shard_paths[0]);
        assert_eq!(zero.len(), 2);
        assert!(zero[0].contains("com.zero") && zero[1].contains("com.zero.again"));
        let one = read(&shard_paths[1]);
        assert_eq!(one.len(), 1);
        assert!(one[0].contains("com.one"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_reports_on_schedule() {
        let t = Telemetry::new(true);
        t.counter_add("monkey.virtual_us", 500_500);
        t.counter_add("watchdog.stragglers", 3);
        t.gauge_set("sweep.workers", 4);
        t.gauge_set("sweep.busy_us", 1);
        // A 4-worker run that parallelizes perfectly: the makespan is a
        // quarter of the serial virtual time, so the ETA must shrink by
        // the same balance factor instead of staying k× pessimistic.
        t.gauge_set("sweep.virtual_makespan_us", 500_500 / 4);
        let progress = Progress::new(20);
        let mut lines = Vec::new();
        for i in 0..20 {
            if let Some(line) = progress.on_app_done(i % 5 == 0, &t) {
                lines.push(line);
            }
        }
        // Every 2 apps out of 20 → 10 reports, last one at 20/20.
        assert_eq!(lines.len(), 10);
        let last = lines.last().expect("final line");
        assert!(last.contains("sweep 20/20"), "got: {last}");
        assert!(last.contains("4 failed"), "got: {last}");
        assert!(last.contains("3 stalled"), "got: {last}");
        assert!(last.contains("% util"), "got: {last}");
        assert!(last.contains("500.5 virtual ms"), "got: {last}");
        // At 20/20 nothing remains, so the balance-scaled ETA is zero.
        assert!(last.contains("ETA 0.0s"), "got: {last}");
    }

    #[test]
    fn progress_eta_scales_with_parallel_balance() {
        let serial = Telemetry::new(true);
        serial.counter_add("monkey.virtual_us", 1_000_000);
        let balanced = Telemetry::new(true);
        balanced.counter_add("monkey.virtual_us", 1_000_000);
        balanced.gauge_set("sweep.virtual_makespan_us", 250_000);
        let parse_eta = |line: &str| -> f64 {
            let tail = line.rsplit("ETA ").next().expect("eta field");
            tail.trim_end_matches('s').parse().expect("eta number")
        };
        // Same wall progress, same virtual charge: the run publishing a
        // 4× parallel makespan must project ~¼ the ETA. Sleep long
        // enough that the one-decimal rendering can tell them apart
        // (ETA here is proportional to elapsed wall time).
        let p1 = Progress::new(10);
        std::thread::sleep(std::time::Duration::from_millis(250));
        let eta_serial = parse_eta(&p1.on_app_done(false, &serial).expect("line at 1/10"));
        let p2 = Progress::new(10);
        std::thread::sleep(std::time::Duration::from_millis(250));
        let eta_balanced = parse_eta(&p2.on_app_done(false, &balanced).expect("line at 1/10"));
        assert!(eta_serial >= 1.0, "serial ETA too small: {eta_serial}");
        assert!(
            eta_balanced < eta_serial * 0.5,
            "makespan balance not applied: serial {eta_serial} vs balanced {eta_balanced}"
        );
    }
}
