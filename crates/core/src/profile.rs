//! Span-derived profiling and the straggler watchdog — the analytical
//! half of the sweep observatory (DESIGN.md §5j).
//!
//! The telemetry layer (§5d) records one [`SpanRecord`] per phase per
//! app. This module folds that span tree into a **profile**: for every
//! distinct root-to-leaf name path, how many spans ran there, their
//! total (inclusive) time, and their self time (total minus child
//! time). The profile is exportable as Brendan-Gregg collapsed-stack
//! ("folded") lines — `app;monkey 1234` — which `flamegraph.pl` and
//! every folded-stack tool consume directly.
//!
//! The same profile is computable two ways, and the two are
//! byte-identical over the same span set (a differential test holds
//! this):
//!
//! - **live**, from the in-memory span store fed by `SpanGuard` drops
//!   ([`SpanProfile::fold`] under `Telemetry::with_spans`), and
//! - **offline**, by replaying the durable (possibly sharded) event
//!   streams of a journaled run ([`SpanProfile::replay_journal`]).
//!
//! The [`Watchdog`] rides the same data on the *deterministic virtual
//! clock*: it keeps a running median of per-app virtual cost and flags
//! any app exceeding `k×` that median as a straggler, so one wedged app
//! in a corpus-scale sweep is named while it is happening instead of
//! being averaged away post-hoc.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::durable::visit_path;
use crate::sweep::Journal;
use crate::telemetry::{EventReadback, SpanRecord};

/// Parent-chain walk bound: a span nested deeper than this (impossible
/// for well-formed streams; cycles only via corruption) is rooted where
/// the walk stopped instead of looping forever.
const MAX_PROFILE_DEPTH: usize = 64;

/// Apps the watchdog observes before it starts flagging, so the running
/// median is meaningful before anything is called a straggler.
pub const WATCHDOG_WARMUP: usize = 16;

/// Aggregate of every span that ran at one name path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// Number of spans aggregated at this path.
    pub count: u64,
    /// Inclusive time: sum of the spans' durations, in microseconds.
    pub total_us: u64,
    /// Self time: inclusive time minus time attributed to child spans,
    /// in microseconds.
    pub self_us: u64,
}

/// A self-time/total-time profile over a span tree, keyed by the
/// root-to-leaf path of span names.
///
/// Paths are stored in a `BTreeMap`, so every export is deterministic
/// for a given span set regardless of the order spans were recorded or
/// replayed in — the property the live-vs-offline differential test
/// pins down to the byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanProfile {
    nodes: BTreeMap<Vec<String>, ProfileEntry>,
}

impl SpanProfile {
    /// Builds the profile from a span set (any order).
    ///
    /// Each span contributes its duration to its own path's total, and
    /// its duration minus its direct children's durations to the path's
    /// self time. A span whose parent id is absent from the set (e.g. a
    /// phase span whose app span was lost to a crash) roots its path at
    /// the deepest ancestor present.
    pub fn from_spans(spans: &[SpanRecord]) -> SpanProfile {
        SpanProfile::fold(&spans.iter().collect::<Vec<_>>())
    }

    /// [`SpanProfile::from_spans`] over borrowed spans, as
    /// `Telemetry::with_spans` hands them out.
    ///
    /// Paths are interned as nodes of a name trie, and each span's node
    /// is memoized, so a path is walked once per distinct span chain
    /// rather than once per span; only the distinct paths are ever
    /// built as strings.
    pub fn fold(spans: &[&SpanRecord]) -> SpanProfile {
        let mut by_id: HashMap<u64, usize> = HashMap::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            by_id.insert(s.id, i);
        }
        let parent_of = |i: usize| match spans[i].parent {
            0 => None,
            id => by_id.get(&id).copied(),
        };
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if parent_of(i).is_some() {
                *child_us.entry(s.parent).or_insert(0) += s.dur_us;
            }
        }
        let mut trie = PathTrie::default();
        // Each span's trie node, once its whole ancestor chain is known
        // to fit within the depth cut.
        let mut memo: Vec<Option<usize>> = vec![None; spans.len()];
        let mut entries: Vec<ProfileEntry> = Vec::new();
        let mut chain: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            // Walk up to the nearest memoized ancestor (or the root),
            // giving up once the chain is longer than the cut allows.
            chain.clear();
            let mut cursor = Some(i);
            let mut base = PathTrie::ROOT;
            while let Some(j) = cursor {
                if let Some(node) = memo[j] {
                    base = node;
                    break;
                }
                chain.push(j);
                if chain.len() > MAX_PROFILE_DEPTH + 1 {
                    break;
                }
                cursor = parent_of(j);
            }
            let node = if chain.len() + trie.depth(base) <= MAX_PROFILE_DEPTH + 1 {
                let mut node = base;
                for &j in chain.iter().rev() {
                    node = trie.child(node, &spans[j].name);
                    memo[j] = Some(node);
                }
                node
            } else {
                // Deeper than the cut (only a corrupt stream's cycle
                // gets here): the path is the span and its nearest
                // `MAX_PROFILE_DEPTH` ancestors.
                let mut names = vec![s.name.as_str()];
                let mut cursor = parent_of(i);
                for _ in 0..MAX_PROFILE_DEPTH {
                    let Some(j) = cursor else { break };
                    names.push(&spans[j].name);
                    cursor = parent_of(j);
                }
                names
                    .iter()
                    .rev()
                    .fold(PathTrie::ROOT, |node, name| trie.child(node, name))
            };
            if entries.len() <= node {
                entries.resize(node + 1, ProfileEntry::default());
            }
            let entry = &mut entries[node];
            entry.count += 1;
            entry.total_us += s.dur_us;
            entry.self_us += s
                .dur_us
                .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        }
        let nodes = entries
            .into_iter()
            .enumerate()
            .filter(|(_, entry)| entry.count > 0)
            .map(|(node, entry)| (trie.path(node), entry))
            .collect();
        SpanProfile { nodes }
    }

    /// Builds the profile offline by replaying framed event streams:
    /// every `{"type":"span"}` body in each stream's valid prefix is a
    /// span. Torn or corrupt tails end that stream's replay (same
    /// tolerance as `Telemetry::stitch_from`); missing files are empty.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than a stream file not existing.
    pub fn from_event_streams(paths: &[PathBuf]) -> io::Result<SpanProfile> {
        let mut spans = Vec::new();
        for path in paths {
            let mut readback = EventReadback::default();
            visit_path(path, |_, body| readback.read(body))?;
            spans.extend(readback.into_spans());
        }
        spans.sort_by_key(|s| (s.start_us, s.id));
        Ok(SpanProfile::from_spans(&spans))
    }

    /// [`SpanProfile::from_event_streams`] over a journal's full stream
    /// layout: the base event stream plus every discovered shard's.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from shard discovery or stream reads.
    pub fn replay_journal(journal: &Journal) -> io::Result<SpanProfile> {
        let mut paths = vec![journal.events_path()];
        for k in journal.discover_shards()? {
            paths.push(journal.shard_events_path(k));
        }
        SpanProfile::from_event_streams(&paths)
    }

    /// Number of distinct span paths in the profile.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the profile holds no spans at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The profile's entries, in path order.
    pub fn entries(&self) -> impl Iterator<Item = (&[String], &ProfileEntry)> {
        self.nodes.iter().map(|(p, e)| (p.as_slice(), e))
    }

    /// Brendan-Gregg collapsed-stack export: one
    /// `name;name;… self_µs\n` line per path, in path order. Feed the
    /// output straight to `flamegraph.pl`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, entry) in &self.nodes {
            out.push_str(&path.join(";"));
            let _ = writeln!(out, " {}", entry.self_us);
        }
        out
    }

    /// Human-readable profile table, hottest self-time first.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&Vec<String>, &ProfileEntry)> = self.nodes.iter().collect();
        rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then_with(|| a.0.cmp(b.0)));
        let width = rows
            .iter()
            .map(|(p, _)| p.join(";").len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<width$}  {:>9}  {:>12}  {:>12}",
            "path", "count", "total µs", "self µs"
        );
        for (path, e) in rows {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>9}  {:>12}  {:>12}",
                path.join(";"),
                e.count,
                e.total_us,
                e.self_us
            );
        }
        out
    }
}

/// Span name paths interned as a trie: node 0 is the empty root path,
/// and every other node extends its parent's path by one name.
struct PathTrie<'a> {
    /// `(parent node, name, path length)` per node.
    nodes: Vec<(usize, &'a str, usize)>,
    children: HashMap<(usize, &'a str), usize>,
}

impl Default for PathTrie<'_> {
    fn default() -> Self {
        PathTrie {
            nodes: vec![(0, "", 0)],
            children: HashMap::new(),
        }
    }
}

impl<'a> PathTrie<'a> {
    const ROOT: usize = 0;

    /// Number of names on `node`'s path.
    fn depth(&self, node: usize) -> usize {
        self.nodes[node].2
    }

    /// The node for `node`'s path extended by `name`.
    fn child(&mut self, node: usize, name: &'a str) -> usize {
        if let Some(&child) = self.children.get(&(node, name)) {
            return child;
        }
        let child = self.nodes.len();
        self.nodes.push((node, name, self.depth(node) + 1));
        self.children.insert((node, name), child);
        child
    }

    /// `node`'s path, root first.
    fn path(&self, mut node: usize) -> Vec<String> {
        let mut path = Vec::with_capacity(self.depth(node));
        while node != Self::ROOT {
            let (parent, name, _) = self.nodes[node];
            path.push(name.to_string());
            node = parent;
        }
        path.reverse();
        path
    }
}

/// One flagged straggler: an app whose deterministic virtual cost
/// exceeded `k×` the running per-app median when it completed.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StragglerEntry {
    /// The app's package name.
    pub package: String,
    /// The app's virtual cost in microseconds.
    pub virtual_us: u64,
    /// The running median virtual cost when the app was flagged.
    pub median_virtual_us: u64,
    /// Wall-clock phase breakdown from the app's child spans:
    /// `(phase name, µs)`, largest first.
    pub phases: Vec<(String, u64)>,
}

/// Running-median straggler detector on the deterministic virtual
/// clock.
///
/// The sweep collector feeds it one observation per completed
/// dynamic-phase app. After [`WATCHDOG_WARMUP`] observations it flags
/// any app whose virtual cost exceeds `k×` the running median —
/// deterministic across worker counts and interleaves, because the
/// virtual clock is. Noise-level variance (a few percent around the
/// median) never trips a `k` of the default 4.0, while a planted 10×
/// app always does.
#[derive(Debug)]
pub struct Watchdog {
    k: f64,
    sorted: Vec<u64>,
    flagged: u64,
}

impl Watchdog {
    /// Detector flagging apps over `k` × the running median; `k ≤ 1.0`
    /// disables flagging (observations are still counted).
    pub fn new(k: f64) -> Self {
        Watchdog {
            k,
            sorted: Vec::new(),
            flagged: 0,
        }
    }

    /// Notes one completed app's virtual cost. Returns the running
    /// median it was judged against when the app is flagged as a
    /// straggler, `None` otherwise.
    pub fn observe(&mut self, virtual_us: u64) -> Option<u64> {
        let mut verdict = None;
        if self.k > 1.0 && self.sorted.len() >= WATCHDOG_WARMUP {
            let median = self.sorted[self.sorted.len() / 2];
            if median > 0 && virtual_us as f64 > self.k * median as f64 {
                self.flagged += 1;
                verdict = Some(median);
            }
        }
        let pos = self.sorted.partition_point(|&v| v <= virtual_us);
        self.sorted.insert(pos, virtual_us);
        verdict
    }

    /// Observations so far.
    pub fn observed(&self) -> usize {
        self.sorted.len()
    }

    /// Apps flagged so far.
    pub fn flagged(&self) -> u64 {
        self.flagged
    }

    /// The current running median virtual cost (0 before any
    /// observation).
    pub fn median(&self) -> u64 {
        if self.sorted.is_empty() {
            0
        } else {
            self.sorted[self.sorted.len() / 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            tid: 1,
            start_us,
            dur_us,
            fields: Vec::new(),
        }
    }

    #[test]
    fn profile_attributes_self_and_total_time() {
        let spans = vec![
            span(1, 0, "app", 0, 100),
            span(2, 1, "static", 0, 30),
            span(3, 1, "monkey", 30, 50),
            span(4, 0, "app", 100, 40),
            span(5, 4, "monkey", 100, 40),
        ];
        let profile = SpanProfile::from_spans(&spans);
        assert_eq!(profile.len(), 3);
        let get = |names: &[&str]| {
            let key: Vec<String> = names.iter().map(|s| s.to_string()).collect();
            profile
                .entries()
                .find(|(p, _)| *p == key.as_slice())
                .map(|(_, e)| *e)
                .expect("path present")
        };
        let app = get(&["app"]);
        assert_eq!(app.count, 2);
        assert_eq!(app.total_us, 140);
        // First app: 100 − (30 + 50) = 20 self; second: 40 − 40 = 0.
        assert_eq!(app.self_us, 20);
        let monkey = get(&["app", "monkey"]);
        assert_eq!(monkey.count, 2);
        assert_eq!(monkey.total_us, 90);
        assert_eq!(monkey.self_us, 90, "leaves keep all their time");
        assert_eq!(get(&["app", "static"]).self_us, 30);
    }

    #[test]
    fn folded_output_is_order_independent() {
        let mut spans = vec![
            span(1, 0, "app", 0, 100),
            span(2, 1, "monkey", 10, 60),
            span(3, 0, "sweep", 0, 500),
        ];
        let forward = SpanProfile::from_spans(&spans).folded();
        spans.reverse();
        let reversed = SpanProfile::from_spans(&spans).folded();
        assert_eq!(forward, reversed, "profile must not depend on span order");
        // Folded lines parse as `path space value`.
        assert_eq!(forward.lines().count(), 3);
        for line in forward.lines() {
            let (path, value) = line.rsplit_once(' ').expect("path value");
            assert!(!path.is_empty());
            value.parse::<u64>().expect("numeric self time");
        }
        assert!(forward.contains("app;monkey 60\n"));
        assert!(forward.contains("app 40\n"));
    }

    #[test]
    fn orphan_spans_root_at_the_deepest_present_ancestor() {
        // Parent id 99 is absent (lost to a crash): the child's path
        // starts at itself instead of looping or panicking.
        let spans = vec![span(2, 99, "monkey", 0, 50)];
        let profile = SpanProfile::from_spans(&spans);
        let (path, entry) = profile.entries().next().expect("one path");
        assert_eq!(path, ["monkey".to_string()].as_slice());
        assert_eq!(entry.self_us, 50);
    }

    #[test]
    fn cyclic_parent_links_terminate() {
        // Corruption could make two spans each other's parent; the walk
        // must stop at the depth bound.
        let spans = vec![span(1, 2, "a", 0, 10), span(2, 1, "b", 0, 10)];
        let profile = SpanProfile::from_spans(&spans);
        assert_eq!(profile.len(), 2);
    }

    /// Reference fold: walks every span's parent chain afresh, cut at
    /// `MAX_PROFILE_DEPTH` ancestors.
    fn walked_profile(spans: &[SpanRecord]) -> SpanProfile {
        let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if s.parent != 0 && by_id.contains_key(&s.parent) {
                *child_us.entry(s.parent).or_insert(0) += s.dur_us;
            }
        }
        let mut nodes: BTreeMap<Vec<String>, ProfileEntry> = BTreeMap::new();
        for s in spans {
            let mut path = vec![s.name.clone()];
            let mut cursor = s.parent;
            for _ in 0..MAX_PROFILE_DEPTH {
                match by_id.get(&cursor) {
                    Some(&i) if cursor != 0 => {
                        path.push(spans[i].name.clone());
                        cursor = spans[i].parent;
                    }
                    _ => break,
                }
            }
            path.reverse();
            let entry = nodes.entry(path).or_default();
            entry.count += 1;
            entry.total_us += s.dur_us;
            entry.self_us += s
                .dur_us
                .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        }
        SpanProfile { nodes }
    }

    #[test]
    fn memoized_fold_matches_the_per_span_walk() {
        let mut spans = Vec::new();
        // Chains right at, one past and well past the depth cut, each
        // with a side leaf at every level.
        let mut next = 1u64;
        let cut = MAX_PROFILE_DEPTH;
        for depth in [cut, cut + 1, cut + 2, 150] {
            let mut parent = 0;
            for level in 0..depth as u64 {
                let id = next;
                let name = format!("l{}", level % 5);
                spans.push(span(id, parent, &name, level, 1000 - level));
                spans.push(span(id + 1, id, "leaf", level, 3));
                parent = id;
                next += 2;
            }
        }
        // A three-span cycle with a child, and orphans.
        spans.push(span(9001, 9003, "a", 0, 10));
        spans.push(span(9002, 9001, "b", 0, 10));
        spans.push(span(9003, 9002, "c", 0, 10));
        spans.push(span(9004, 9002, "d", 0, 4));
        spans.push(span(9005, 424242, "orphan", 0, 7));
        // A shallow forest with shared names.
        for app in 0..20u64 {
            let root = 10_000 + app * 10;
            spans.push(span(root, 0, "app", app, 100));
            for (k, name) in ["static", "monkey", "monkey"].iter().enumerate() {
                spans.push(span(root + 1 + k as u64, root, name, app, 20 + k as u64));
            }
        }
        let expected = walked_profile(&spans);
        assert_eq!(SpanProfile::from_spans(&spans), expected);
        spans.reverse();
        assert_eq!(SpanProfile::from_spans(&spans), expected);
        spans.sort_by_key(|s| (s.name.clone(), s.id));
        assert_eq!(SpanProfile::from_spans(&spans), expected);
    }

    #[test]
    fn watchdog_flags_planted_straggler_not_noise() {
        let mut dog = Watchdog::new(4.0);
        // Noise-level variance around 100 µs: never flagged.
        for i in 0..32u64 {
            let v = 95 + (i * 7) % 11; // 95..=105
            assert_eq!(dog.observe(v), None, "noise flagged at i={i}");
        }
        assert_eq!(dog.flagged(), 0);
        let median = dog.median();
        assert!((95..=105).contains(&median));
        // A planted 10× app is flagged against that median.
        let verdict = dog.observe(median * 10);
        assert_eq!(verdict, Some(median));
        assert_eq!(dog.flagged(), 1);
        // The straggler barely moves the median; normal apps still pass.
        assert_eq!(dog.observe(104), None);
    }

    #[test]
    fn watchdog_warms_up_and_can_be_disabled() {
        let mut dog = Watchdog::new(4.0);
        // Before warmup even a huge outlier passes silently.
        for _ in 0..WATCHDOG_WARMUP - 1 {
            assert_eq!(dog.observe(100), None);
        }
        assert_eq!(dog.observe(100_000), None, "still warming up");
        assert_eq!(dog.observed(), WATCHDOG_WARMUP);
        // k ≤ 1.0 disables flagging entirely.
        let mut off = Watchdog::new(1.0);
        for _ in 0..WATCHDOG_WARMUP * 2 {
            off.observe(100);
        }
        assert_eq!(off.observe(100_000), None);
        assert_eq!(off.flagged(), 0);
    }

    #[test]
    fn render_lists_hottest_self_time_first() {
        let spans = vec![
            span(1, 0, "app", 0, 100),
            span(2, 1, "monkey", 0, 80),
            span(3, 0, "sweep", 0, 10),
        ];
        let table = SpanProfile::from_spans(&spans).render();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("path"));
        assert!(lines[1].contains("app;monkey"), "got: {}", lines[1]);
        assert!(lines[2].contains("app"), "got: {}", lines[2]);
        assert!(lines[3].contains("sweep"), "got: {}", lines[3]);
    }
}
