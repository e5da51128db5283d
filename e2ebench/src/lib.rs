//! Support code of the end-to-end sweep benchmark: the outside-in span
//! tracer with self-time accounting, the report digest and its check
//! against the committed table, and the corpus digest.
//!
//! `src/main.rs` drives the pipeline through its public API; this crate
//! holds the parts with their own tests.

use std::time::Instant;

use dydroid::MeasurementReport;
use dydroid_workload::SyntheticApp;
use serde_json::Value;

/// One timed call into a layer, recorded by the benchmark around the
/// public function it calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`decompile`, `monkey`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Corpus index of the app the span belongs to, if any.
    pub app: Option<usize>,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for a single-threaded replay. Spans are kept
/// in memory and only written out when the replay ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        app: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            app,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        app: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, app);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `app`), one per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = serde_json::json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "app": s.app,
            });
            out.push_str(&line.to_compact_string());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once,
/// and a child reaching outside its parent only counts inside it).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summed self time (seconds) and call count per span name.
pub fn layer_totals(spans: &[Span]) -> std::collections::BTreeMap<&'static str, (f64, u64)> {
    let mut totals = std::collections::BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = totals.entry(span.name).or_insert((0.0, 0u64));
        entry.0 += self_ns as f64 / 1e9;
        entry.1 += 1;
    }
    totals
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Content hash plus size of a byte string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a 64 of the bytes.
    pub fnv64: u64,
    /// Length in bytes.
    pub bytes: u64,
}

impl Digest {
    /// Digest of `bytes`.
    pub fn of(bytes: &[u8]) -> Digest {
        Digest {
            fnv64: fnv64(bytes),
            bytes: bytes.len() as u64,
        }
    }

    /// The digest as a JSON object (`fnv64` as 16 hex digits).
    pub fn to_json(self) -> Value {
        serde_json::json!({
            "fnv64": format!("{:016x}", self.fnv64),
            "bytes": self.bytes,
        })
    }

    /// Parses [`Digest::to_json`] output.
    pub fn from_json(v: &Value) -> Option<Digest> {
        Some(Digest {
            fnv64: u64::from_str_radix(v.get("fnv64")?.as_str()?, 16).ok()?,
            bytes: v.get("bytes")?.as_u64()?,
        })
    }
}

/// Digest of a generated corpus: every APK, remote resource and device
/// file, in corpus order, with the package names.
pub fn corpus_digest(corpus: &[SyntheticApp]) -> Digest {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = 0u64;
    let mut feed = |chunk: &[u8]| {
        for &b in (chunk.len() as u64).to_le_bytes().iter().chain(chunk) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        bytes += chunk.len() as u64;
    };
    for app in corpus {
        feed(app.package().as_bytes());
        feed(&app.apk);
        for (domain, path, data) in &app.remote_resources {
            feed(domain.as_bytes());
            feed(path.as_bytes());
            feed(data);
        }
        for (path, owner, data) in &app.device_files {
            feed(path.as_bytes());
            feed(owner.as_bytes());
            feed(data);
        }
    }
    Digest { fnv64: h, bytes }
}

/// The report's paper tables as pretty JSON, in the same shape
/// `tables --json` writes. This is the benchmark's output check: it
/// anchors on the measurement, not on how the streams are laid out on
/// disk.
pub fn tables_json(report: &MeasurementReport, scale: f64, seed: u64) -> String {
    serde_json::json!({
        "scale": scale,
        "seed": seed,
        "apps": report.records().len(),
        "table2": report.table2(),
        "table3": report.table3(),
        "table4": report.table4(),
        "table5": report.table5(),
        "table6": report.table6(),
        "figure3": report.figure3(),
        "table7": report.table7(),
        "table8": report.env_counts(),
        "table9": report.table9(),
        "table10": report.table10(),
    })
    .to_pretty_string()
}

/// The committed report digests (`digests.json`): one entry per seed at
/// the benchmark's scale.
#[derive(Debug, Clone)]
pub struct DigestTable {
    /// Corpus scale the digests were taken at.
    scale: f64,
    entries: Vec<(u64, Digest)>,
}

/// Outcome of checking a report against the committed table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestCheck {
    /// The report matches the committed digest for its seed.
    Match,
    /// The report differs from the committed digest for its seed.
    Mismatch {
        /// The committed digest.
        expected: Digest,
    },
    /// No digest is committed for this seed.
    Uncommitted,
}

impl DigestTable {
    /// Parses `digests.json`.
    pub fn parse(text: &str) -> Result<DigestTable, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let scale = v
            .get("scale")
            .and_then(Value::as_f64)
            .ok_or("digests.json: missing scale")?;
        let mut entries = Vec::new();
        for (seed, d) in v
            .get("seeds")
            .and_then(Value::as_object)
            .ok_or("digests.json: missing seeds")?
        {
            let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
            let d = Digest::from_json(d).ok_or(format!("bad digest for seed {seed}"))?;
            entries.push((seed, d));
        }
        Ok(DigestTable { scale, entries })
    }

    /// Corpus scale the digests were taken at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The committed digest for `seed`, if any.
    pub fn expected(&self, seed: u64) -> Option<Digest> {
        self.entries
            .iter()
            .find(|(s, _)| *s == seed)
            .map(|(_, d)| *d)
    }

    /// Checks a report's tables JSON against the committed digest.
    pub fn check(&self, seed: u64, report_json: &str) -> DigestCheck {
        match self.expected(seed) {
            None => DigestCheck::Uncommitted,
            Some(expected) if Digest::of(report_json.as_bytes()) == expected => DigestCheck::Match,
            Some(expected) => DigestCheck::Mismatch { expected },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_json_round_trips() {
        let d = Digest::of(b"hello");
        assert_eq!(Digest::from_json(&d.to_json()), Some(d));
    }
}
