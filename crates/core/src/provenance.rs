//! The per-app DCL provenance flight recorder.
//!
//! DyDroid's measurement artifacts — the DCL logger records, the
//! download-tracker flow graph (Table I) and the Table VIII environment
//! re-runs — are fused here into one causal graph per app with stable
//! node ids: URL → InputStream → Buffer/OutputStream → File → DCL load →
//! call-site entity → (malware / privacy) verdict, including
//! interception-queue suppressions (blocked delete/rename) and
//! per-environment-config load outcomes. The graph is persisted as a
//! compact JSONL ledger beside the sweep journal ([`ProvenanceLedger`]),
//! resume-safe and torn-tail tolerant like the journal itself, and
//! queried offline by the `dcltrace` bench bin.
//!
//! Determinism contract: node ids are indices into the key-sorted node
//! list and every collection is sorted before serialization, so a
//! completed run's finalized ledger is byte-identical across same-seed
//! runs and across resume-from-checkpoint runs. The span cross-link is
//! excluded from the serialized form (span ids depend on worker
//! interleave); the durable link is emitted into the telemetry event
//! stream instead (`Telemetry::emit_provenance_link`).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use dydroid_analysis::entity::{classify, Entity};
use dydroid_avm::{DclEvent, DclKind, Event, EventLog, FileOp, FlowGraph, FlowNode};
use serde::{Deserialize, Serialize};

use crate::durable::{
    atomic_write_frames, encode_records, load_records, FramedWriter, IoHarness, SinkOptions,
    StreamKind,
};
use crate::pipeline::{verdict_label, AppRecord, MalwareHit};

/// A node in the causal provenance graph. Every variant carries the
/// fields that make it identity-stable across runs (no heap addresses,
/// no timestamps).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProvNode {
    /// A remote origin: a `java.net.URL` the download tracker saw.
    Url {
        /// The URL string.
        url: String,
    },
    /// An `InputStream` object, by heap id.
    InputStream {
        /// Heap object id.
        obj: u32,
    },
    /// A `Buffer` object, by heap id.
    Buffer {
        /// Heap object id.
        obj: u32,
    },
    /// An `OutputStream` object, by heap id.
    OutputStream {
        /// Heap object id.
        obj: u32,
    },
    /// A file on the device, by absolute path.
    File {
        /// Absolute path.
        path: String,
    },
    /// A successful DCL load of a file, with its call-site entity.
    Load {
        /// Loaded path.
        path: String,
        /// Loader API (`DexClassLoader`, `System.load`, ...).
        kind: String,
        /// Call-site class (top app frame, Figure 2).
        call_site: String,
        /// Entity classification of the call site (`own`/`third-party`).
        entity: String,
    },
    /// A file operation suppressed by the interception queue.
    Blocked {
        /// Affected path.
        path: String,
        /// Blocked operation (`delete`/`rename`/`write`).
        op: String,
    },
    /// A malware verdict on a loaded file.
    Malware {
        /// Flagged path.
        path: String,
        /// Matched family.
        family: String,
    },
    /// A privacy-leak verdict on a loaded file.
    Leak {
        /// Leaking path.
        path: String,
        /// Leaked privacy type label.
        privacy: String,
    },
}

impl ProvNode {
    /// The node's canonical key: unique, and its sort order defines the
    /// stable node-id assignment.
    pub fn key(&self) -> String {
        match self {
            ProvNode::Url { url } => format!("url:{url}"),
            ProvNode::InputStream { obj } => format!("istream:{obj:08}"),
            ProvNode::Buffer { obj } => format!("buffer:{obj:08}"),
            ProvNode::OutputStream { obj } => format!("ostream:{obj:08}"),
            ProvNode::File { path } => format!("file:{path}"),
            ProvNode::Load {
                path,
                kind,
                call_site,
                ..
            } => format!("load:{path}|{kind}|{call_site}"),
            ProvNode::Blocked { path, op } => format!("blocked:{path}|{op}"),
            ProvNode::Malware { path, family } => format!("malware:{path}|{family}"),
            ProvNode::Leak { path, privacy } => format!("leak:{path}|{privacy}"),
        }
    }

    /// Human-readable label for chain rendering and DOT export.
    pub fn label(&self) -> String {
        match self {
            ProvNode::Url { url } => format!("URL {url}"),
            ProvNode::InputStream { obj } => format!("InputStream#{obj}"),
            ProvNode::Buffer { obj } => format!("Buffer#{obj}"),
            ProvNode::OutputStream { obj } => format!("OutputStream#{obj}"),
            ProvNode::File { path } => format!("File {path}"),
            ProvNode::Load {
                kind,
                call_site,
                entity,
                ..
            } => format!("Load[{kind} @ {call_site} ({entity})]"),
            ProvNode::Blocked { path, op } => format!("Blocked[{op} {path}]"),
            ProvNode::Malware { family, .. } => format!("Malware[{family}]"),
            ProvNode::Leak { privacy, .. } => format!("Leak[{privacy}]"),
        }
    }
}

/// A directed edge between two node ids.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvEdge {
    /// Source node id (index into [`AppProvenance::nodes`]).
    pub from: u32,
    /// Target node id.
    pub to: u32,
    /// Edge kind: `flow`, `load`, `blocked`, or `verdict`.
    pub kind: String,
    /// Multiplicity (Table I rules fire repeatedly on hot copy loops).
    pub count: u64,
}

/// One file's load outcome across the Table VIII environment configs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvLoadOutcome {
    /// The malicious path re-run under each configuration.
    pub path: String,
    /// Config names (Table VIII order) under which the file still loaded.
    pub configs: Vec<String>,
}

/// A divergent load: present under some environment configs, absent
/// under others — the logic-bomb signal `dcltrace diff` surfaces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvDivergence {
    /// The divergent path.
    pub path: String,
    /// Configs under which it loaded.
    pub loaded_under: Vec<String>,
    /// Configs under which it did not load.
    pub missing_under: Vec<String>,
}

/// The complete provenance flight-recorder record of one app.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProvenance {
    /// Package name.
    pub package: String,
    /// Final verdict label of the dynamic phase (`exercised`, `crash`,
    /// `static_only`, ...).
    pub verdict: String,
    /// Whether this record was reconstructed from a journaled
    /// [`AppRecord`] instead of captured live — stream-level nodes,
    /// blocked ops and per-path leaks are missing in that case.
    pub degraded: bool,
    /// Graph nodes; a node's id is its index (key-sorted, stable).
    pub nodes: Vec<ProvNode>,
    /// Graph edges, sorted by `(from, to, kind)`.
    pub edges: Vec<ProvEdge>,
    /// Events evicted by the `EventLog` ring bound during the run.
    pub dropped_events: u64,
    /// Distinct flow edges dropped at the `FlowGraph` edge cap.
    pub truncated_flow_edges: u64,
    /// Duplicate flow-rule firings folded into edge multiplicities.
    pub deduped_flow_edges: u64,
    /// Table VIII per-config load outcomes (malware-flagged apps only;
    /// attached when the run finalizes).
    pub env_loads: Vec<EnvLoadOutcome>,
    /// The app's telemetry span id, for cross-referencing the event
    /// stream. Excluded from the serialized ledger (span ids depend on
    /// thread interleave); the durable link lives in the event stream.
    #[serde(skip)]
    pub span: u64,
}

/// Accumulates nodes and edges with deterministic id assignment.
#[derive(Default)]
struct GraphBuilder {
    nodes: BTreeMap<String, ProvNode>,
    edges: BTreeMap<(String, String, &'static str), u64>,
}

impl GraphBuilder {
    fn node(&mut self, node: ProvNode) -> String {
        let key = node.key();
        self.nodes.entry(key.clone()).or_insert(node);
        key
    }

    fn edge(&mut self, from: ProvNode, to: ProvNode, kind: &'static str, count: u64) {
        let f = self.node(from);
        let t = self.node(to);
        *self.edges.entry((f, t, kind)).or_insert(0) += count;
    }

    /// All load nodes for `path`, or the file node as a fallback — the
    /// anchors verdict edges hang off.
    fn verdict_sources(&self, path: &str) -> Vec<ProvNode> {
        let loads: Vec<ProvNode> = self
            .nodes
            .values()
            .filter(|n| matches!(n, ProvNode::Load { path: p, .. } if p == path))
            .cloned()
            .collect();
        if loads.is_empty() {
            vec![ProvNode::File {
                path: path.to_string(),
            }]
        } else {
            loads
        }
    }

    fn finish(self) -> (Vec<ProvNode>, Vec<ProvEdge>) {
        let ids: HashMap<&str, u32> = self
            .nodes
            .keys()
            .enumerate()
            .map(|(i, k)| (k.as_str(), i as u32))
            .collect();
        // BTreeMap order is (from-key, to-key, kind); keys sort exactly
        // like the ids they map to, so the edge list comes out sorted by
        // (from, to, kind) without a second pass.
        let edges = self
            .edges
            .iter()
            .map(|((f, t, kind), count)| ProvEdge {
                from: ids[f.as_str()],
                to: ids[t.as_str()],
                kind: (*kind).to_string(),
                count: *count,
            })
            .collect();
        (self.nodes.into_values().collect(), edges)
    }
}

fn flow_to_prov(node: &FlowNode) -> ProvNode {
    match node {
        FlowNode::Url(url) => ProvNode::Url { url: url.clone() },
        FlowNode::InputStream(obj) => ProvNode::InputStream { obj: *obj },
        FlowNode::Buffer(obj) => ProvNode::Buffer { obj: *obj },
        FlowNode::OutputStream(obj) => ProvNode::OutputStream { obj: *obj },
        FlowNode::File(path) => ProvNode::File { path: path.clone() },
    }
}

fn kind_label(kind: DclKind) -> &'static str {
    match kind {
        DclKind::DexClassLoader => "DexClassLoader",
        DclKind::PathClassLoader => "PathClassLoader",
        DclKind::NativeLoad => "System.load",
        DclKind::NativeLoadLibrary => "System.loadLibrary",
    }
}

fn entity_label(entity: Entity) -> &'static str {
    match entity {
        Entity::Own => "own",
        Entity::ThirdParty => "third-party",
    }
}

fn op_label(op: FileOp) -> &'static str {
    match op {
        FileOp::Write => "write",
        FileOp::Delete => "delete",
        FileOp::Rename => "rename",
    }
}

fn load_node(package: &str, event: &DclEvent) -> ProvNode {
    ProvNode::Load {
        path: event.path.clone(),
        kind: kind_label(event.kind).to_string(),
        call_site: event.call_site_class.clone(),
        entity: entity_label(classify(package, &event.call_site_class)).to_string(),
    }
}

impl AppProvenance {
    /// Builds the full causal graph from the live device state after the
    /// dynamic phase: the flow graph (Table I), DCL events, interception
    /// suppressions, and the detector/taint verdicts with per-path
    /// attribution (`path_leaks` pairs a loaded path with a leaked
    /// privacy-type label).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        package: &str,
        verdict: &str,
        log: &EventLog,
        flow: &FlowGraph,
        dex_events: &[DclEvent],
        native_events: &[DclEvent],
        malware: &[MalwareHit],
        path_leaks: &[(String, String)],
    ) -> AppProvenance {
        let mut b = GraphBuilder::default();
        for (from, to, count) in flow.edges() {
            b.edge(flow_to_prov(from), flow_to_prov(to), "flow", count);
        }
        for event in dex_events.iter().chain(native_events.iter()) {
            b.edge(
                ProvNode::File {
                    path: event.path.clone(),
                },
                load_node(package, event),
                "load",
                1,
            );
        }
        for event in log.events() {
            if let Event::File {
                op,
                path,
                suppressed: true,
                ..
            } = event
            {
                b.edge(
                    ProvNode::File { path: path.clone() },
                    ProvNode::Blocked {
                        path: path.clone(),
                        op: op_label(*op).to_string(),
                    },
                    "blocked",
                    1,
                );
            }
        }
        for hit in malware {
            for source in b.verdict_sources(&hit.path) {
                b.edge(
                    source,
                    ProvNode::Malware {
                        path: hit.path.clone(),
                        family: hit.family.clone(),
                    },
                    "verdict",
                    1,
                );
            }
        }
        for (path, privacy) in path_leaks {
            for source in b.verdict_sources(path) {
                b.edge(
                    source,
                    ProvNode::Leak {
                        path: path.clone(),
                        privacy: privacy.clone(),
                    },
                    "verdict",
                    1,
                );
            }
        }
        let (nodes, edges) = b.finish();
        AppProvenance {
            package: package.to_string(),
            verdict: verdict.to_string(),
            degraded: false,
            nodes,
            edges,
            dropped_events: log.dropped_events(),
            truncated_flow_edges: flow.truncated_edges(),
            deduped_flow_edges: flow.duplicate_edges(),
            env_loads: Vec::new(),
            span: 0,
        }
    }

    /// Reconstructs a coarse graph from a journaled [`AppRecord`] — the
    /// fallback for resumed apps whose ledger line was lost to a torn
    /// tail. URL→File edges are direct (the stream-level intermediates
    /// are not journaled) and blocked ops / per-path leaks are missing;
    /// the record is marked [`degraded`](AppProvenance::degraded).
    pub fn from_record(record: &AppRecord) -> AppProvenance {
        let mut b = GraphBuilder::default();
        if let Some(d) = &record.dynamic {
            for (path, urls) in &d.remote_loads {
                for url in urls {
                    b.edge(
                        ProvNode::Url { url: url.clone() },
                        ProvNode::File { path: path.clone() },
                        "flow",
                        1,
                    );
                }
            }
            for event in d.dex_events.iter().chain(d.native_events.iter()) {
                b.edge(
                    ProvNode::File {
                        path: event.path.clone(),
                    },
                    load_node(&record.package, event),
                    "load",
                    1,
                );
            }
            for hit in &d.malware {
                for source in b.verdict_sources(&hit.path) {
                    b.edge(
                        source,
                        ProvNode::Malware {
                            path: hit.path.clone(),
                            family: hit.family.clone(),
                        },
                        "verdict",
                        1,
                    );
                }
            }
        }
        let (nodes, edges) = b.finish();
        AppProvenance {
            package: record.package.clone(),
            verdict: verdict_label(record).to_string(),
            degraded: true,
            nodes,
            edges,
            dropped_events: 0,
            truncated_flow_edges: 0,
            deduped_flow_edges: 0,
            env_loads: Vec::new(),
            span: 0,
        }
    }

    /// The id of the node with `key`, if present. Nodes are key-sorted,
    /// so this is a binary search.
    pub fn node_index(&self, key: &str) -> Option<usize> {
        self.nodes
            .binary_search_by(|n| n.key().as_str().cmp(key))
            .ok()
    }

    /// All load-node ids for `path`.
    pub fn loads_for(&self, path: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, ProvNode::Load { path: p, .. } if p == path))
            .map(|(i, _)| i)
            .collect()
    }

    /// Verdict-node ids reachable from `node` over `verdict` edges.
    pub fn verdicts_of(&self, node: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|e| e.kind == "verdict" && e.from as usize == node)
            .map(|e| e.to as usize)
            .collect()
    }

    /// The causal chain ending at `File(path)`: a shortest path over
    /// `flow` edges from a URL node when one reaches the file (the
    /// remote-provenance case), otherwise from the farthest local origin
    /// (e.g. an APK asset). `None` when the file is not in the graph.
    pub fn chain_node_ids(&self, path: &str) -> Option<Vec<usize>> {
        let file_key = ProvNode::File {
            path: path.to_string(),
        }
        .key();
        let file_id = self.node_index(&file_key)?;
        // Reverse adjacency over flow edges, in sorted-edge order so the
        // BFS (and therefore the chosen chain) is deterministic.
        let mut reverse: HashMap<usize, Vec<usize>> = HashMap::new();
        for e in self.edges.iter().filter(|e| e.kind == "flow") {
            reverse
                .entry(e.to as usize)
                .or_default()
                .push(e.from as usize);
        }
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut queue = VecDeque::from([file_id]);
        let mut origin = file_id;
        let mut url_origin = None;
        while let Some(node) = queue.pop_front() {
            if url_origin.is_none() && matches!(self.nodes[node], ProvNode::Url { .. }) {
                url_origin = Some(node);
                break; // BFS: first URL reached is a fewest-hops origin.
            }
            origin = node;
            if let Some(preds) = reverse.get(&node) {
                for &p in preds {
                    if p != file_id && !parent.contains_key(&p) {
                        parent.insert(p, node);
                        queue.push_back(p);
                    }
                }
            }
        }
        let mut chain = Vec::new();
        let mut cursor = url_origin.unwrap_or(origin);
        chain.push(cursor);
        while cursor != file_id {
            cursor = parent[&cursor];
            chain.push(cursor);
        }
        Some(chain)
    }

    /// Whether the chain for `path` starts at a URL node — the graph's
    /// answer to `FlowGraph::is_remote`.
    pub fn is_remote_chain(&self, path: &str) -> bool {
        self.chain_node_ids(path)
            .and_then(|c| c.first().copied())
            .map(|id| matches!(self.nodes[id], ProvNode::Url { .. }))
            .unwrap_or(false)
    }

    /// Renders the full causal chain for `path` as text: the flow chain,
    /// then each load with its verdicts. `None` when the file is unknown.
    pub fn render_chain(&self, path: &str) -> Option<String> {
        let chain = self.chain_node_ids(path)?;
        let mut s = chain
            .iter()
            .map(|&i| self.nodes[i].label())
            .collect::<Vec<_>>()
            .join(" -> ");
        s.push('\n');
        for load in self.loads_for(path) {
            let _ = write!(s, "  \\-> {}", self.nodes[load].label());
            for verdict in self.verdicts_of(load) {
                let _ = write!(s, " -> {}", self.nodes[verdict].label());
            }
            s.push('\n');
        }
        Some(s)
    }

    /// Every loaded path that appears as a `load` edge target's source
    /// file, sorted — the paths `chain` can be asked about.
    pub fn loaded_paths(&self) -> Vec<String> {
        let mut paths: Vec<String> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                ProvNode::Load { path, .. } => Some(path.clone()),
                _ => None,
            })
            .collect();
        paths.sort();
        paths.dedup();
        paths
    }

    /// The loads whose presence differs across the four environment
    /// configurations — exactly the Table VIII divergence set.
    pub fn env_diff(&self) -> Vec<EnvDivergence> {
        let all = crate::environment::config_names();
        self.env_loads
            .iter()
            .filter(|l| l.configs.len() < all.len())
            .map(|l| EnvDivergence {
                path: l.path.clone(),
                loaded_under: l.configs.clone(),
                missing_under: all
                    .iter()
                    .filter(|n| !l.configs.iter().any(|c| c == *n))
                    .map(|n| (*n).to_string())
                    .collect(),
            })
            .collect()
    }

    /// Graphviz DOT rendering of this app's graph.
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", dot_escape(&self.package));
        let _ = writeln!(s, "  rankdir=LR;");
        let _ = writeln!(s, "  label=\"{}\";", dot_escape(&self.package));
        self.dot_body(&mut s, "  ", "n");
        s.push_str("}\n");
        s
    }

    /// Writes node and edge statements with an id prefix (shared by the
    /// single-app export and the clustered corpus export).
    fn dot_body(&self, s: &mut String, indent: &str, prefix: &str) {
        for (i, node) in self.nodes.iter().enumerate() {
            let (shape, color) = match node {
                ProvNode::Url { .. } => ("ellipse", "lightblue"),
                ProvNode::File { .. } => ("box", "white"),
                ProvNode::Load { entity, .. } if entity == "own" => ("hexagon", "palegreen"),
                ProvNode::Load { .. } => ("hexagon", "khaki"),
                ProvNode::Blocked { .. } => ("octagon", "gray"),
                ProvNode::Malware { .. } => ("diamond", "tomato"),
                ProvNode::Leak { .. } => ("diamond", "orange"),
                _ => ("plaintext", "white"),
            };
            let _ = writeln!(
                s,
                "{indent}{prefix}{i} [label=\"{}\" shape={shape} style=filled fillcolor={color}];",
                dot_escape(&node.label())
            );
        }
        for edge in &self.edges {
            let label = if edge.count > 1 {
                format!("{} x{}", edge.kind, edge.count)
            } else {
                edge.kind.clone()
            };
            let _ = writeln!(
                s,
                "{indent}{prefix}{} -> {prefix}{} [label=\"{label}\"];",
                edge.from, edge.to
            );
        }
    }
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Clustered Graphviz DOT export of many apps' graphs in one document.
pub fn corpus_dot(records: &[AppProvenance]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph dcl_provenance {{");
    let _ = writeln!(s, "  rankdir=LR;");
    for (i, record) in records.iter().enumerate() {
        let _ = writeln!(s, "  subgraph cluster_{i} {{");
        let _ = writeln!(s, "    label=\"{}\";", dot_escape(&record.package));
        record.dot_body(&mut s, "    ", &format!("a{i}_n"));
        let _ = writeln!(s, "  }}");
    }
    s.push_str("}\n");
    s
}

/// Verifies that the ledger and the journal agree on the app set —
/// the CI smoke check. Returns a human-readable report of any mismatch.
///
/// # Errors
///
/// Returns a description of the packages present on one side only.
pub fn check_against_journal(
    ledger: &[AppProvenance],
    journal: &[AppRecord],
) -> Result<(), String> {
    let ledger_set: std::collections::BTreeSet<&str> =
        ledger.iter().map(|p| p.package.as_str()).collect();
    let journal_set: std::collections::BTreeSet<&str> =
        journal.iter().map(|r| r.package.as_str()).collect();
    if ledger_set == journal_set {
        return Ok(());
    }
    let missing: Vec<&str> = journal_set.difference(&ledger_set).copied().collect();
    let extra: Vec<&str> = ledger_set.difference(&journal_set).copied().collect();
    let mut msg = String::new();
    if !missing.is_empty() {
        let _ = write!(
            msg,
            "{} journaled app(s) missing from ledger: {}",
            missing.len(),
            missing[..missing.len().min(5)].join(", ")
        );
    }
    if !extra.is_empty() {
        if !msg.is_empty() {
            msg.push_str("; ");
        }
        let _ = write!(
            msg,
            "{} ledger app(s) not in journal: {}",
            extra.len(),
            extra[..extra.len().min(5)].join(", ")
        );
    }
    Err(msg)
}

/// Corpus-level provenance aggregation, computed on demand from a
/// [`crate::MeasurementReport`] (see `MeasurementReport::provenance_index`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceIndex {
    /// Apps with at least one remote-origin load chain.
    pub remote_apps: usize,
    /// Distinct remote-origin loaded files.
    pub remote_files: usize,
    /// Remote-origin chains per responsible entity
    /// (`own`/`third-party`), counted per (app, path) chain.
    pub remote_by_entity: Vec<(String, usize)>,
    /// Top staging directories of loaded files: `(dir, #loads)`,
    /// descending, capped at 10.
    pub staging_dirs: Vec<(String, usize)>,
    /// Loads whose presence diverges across the environment configs:
    /// `(package, path, configs loaded under)`.
    pub divergent: Vec<(String, String, Vec<String>)>,
}

impl ProvenanceIndex {
    /// Renders the index as a text section.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "PROVENANCE INDEX — {} apps with remote-origin chains over {} files",
            self.remote_apps, self.remote_files
        );
        for (entity, n) in &self.remote_by_entity {
            let _ = writeln!(s, "  remote chains via {entity}: {n}");
        }
        if !self.staging_dirs.is_empty() {
            let _ = writeln!(s, "  top staging directories:");
            for (dir, n) in &self.staging_dirs {
                let _ = writeln!(s, "    {dir}  ({n} loads)");
            }
        }
        let _ = writeln!(s, "  environment-divergent loads: {}", self.divergent.len());
        for (pkg, path, configs) in &self.divergent {
            let _ = writeln!(s, "    {pkg} {path}  loaded under [{}]", configs.join(", "));
        }
        s
    }
}

/// The JSONL provenance ledger beside the sweep journal: one
/// [`AppProvenance`] per line, streamed during the sweep for
/// resume-safety and rewritten deterministically (corpus order, deduped)
/// when a run completes.
#[derive(Debug, Clone)]
pub struct ProvenanceLedger {
    path: PathBuf,
}

impl ProvenanceLedger {
    /// A ledger at `path`; the file need not exist yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        ProvenanceLedger { path: path.into() }
    }

    /// The ledger's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads every complete record; a missing file is an empty ledger
    /// and a torn tail ends the load (same tolerance as the journal).
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file not existing.
    pub fn load(&self) -> io::Result<Vec<AppProvenance>> {
        Ok(load_records(&self.path)?.0)
    }

    /// Rewrites the ledger to exactly `records`, reframed from
    /// sequence 0 (plain write; for recovery paths).
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn rewrite(&self, records: &[AppProvenance]) -> io::Result<()> {
        std::fs::write(&self.path, encode_records(records))
    }

    /// Opens the ledger for appending with stand-alone sink options,
    /// creating it if needed; a torn tail is truncated so the sequence
    /// continues cleanly.
    ///
    /// # Errors
    ///
    /// Returns the underlying open error.
    pub fn writer(&self) -> io::Result<LedgerWriter> {
        self.writer_with(SinkOptions::direct(StreamKind::Ledger))
    }

    /// Like [`ProvenanceLedger::writer`], but with explicit sink options
    /// so the pipeline can thread the run's shared I/O state, sync
    /// policy, and fault harness through.
    ///
    /// # Errors
    ///
    /// Returns the underlying open error.
    pub fn writer_with(&self, opts: SinkOptions) -> io::Result<LedgerWriter> {
        Ok(LedgerWriter {
            inner: FramedWriter::open(&self.path, opts)?,
        })
    }

    /// Deletes the ledger file if present.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file not existing.
    pub fn reset(&self) -> io::Result<()> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Rewrites the ledger to exactly `records`, in the given order —
    /// called with corpus-ordered records when a run completes, which is
    /// what makes the finalized file byte-identical across same-seed
    /// and resumed runs.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from writing the file.
    pub fn finalize(&self, records: &[AppProvenance]) -> io::Result<()> {
        self.finalize_with(records, None)
    }

    /// Like [`ProvenanceLedger::finalize`], but atomic (temp file +
    /// rename) and routed through the fault harness when present — a
    /// crash or injected fault mid-finalize leaves the previous bytes
    /// intact rather than a blend.
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn finalize_with(
        &self,
        records: &[AppProvenance],
        harness: Option<&std::sync::Arc<IoHarness>>,
    ) -> io::Result<()> {
        atomic_write_frames(&self.path, encode_records(records), harness)
    }
}

/// An append handle to a [`ProvenanceLedger`]; one framed record per
/// line, flushed per append. Under sustained disk pressure (shed level
/// ≥ 3) appends are shed — counted, not written — since the finalize at
/// run completion reconstructs the full ledger from memory.
#[derive(Debug)]
pub struct LedgerWriter {
    inner: FramedWriter,
}

impl LedgerWriter {
    /// Appends one record as a framed JSON line (or sheds it under disk
    /// pressure).
    ///
    /// # Errors
    ///
    /// Returns the underlying write error (transient faults are retried
    /// within the run's budget first).
    pub fn append(&mut self, record: &AppProvenance) -> io::Result<()> {
        let body = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.inner.append_body(&body).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_avm::EventLog;

    fn dcl(path: &str, call_site: &str) -> DclEvent {
        DclEvent {
            kind: DclKind::DexClassLoader,
            path: path.to_string(),
            odex_dir: None,
            call_site_class: call_site.to_string(),
            stack: vec![format!("{call_site}->init")],
            package: "com.app".to_string(),
            success: true,
        }
    }

    fn downloaded_app() -> AppProvenance {
        let mut flow = FlowGraph::new();
        flow.add_edge(
            FlowNode::Url("http://cdn.x.com/a.dex".to_string()),
            FlowNode::InputStream(1),
        );
        flow.add_edge(FlowNode::InputStream(1), FlowNode::Buffer(2));
        flow.add_edge(FlowNode::Buffer(2), FlowNode::OutputStream(3));
        flow.add_edge(
            FlowNode::OutputStream(3),
            FlowNode::File("/data/data/a/files/a.dex".to_string()),
        );
        let mut log = EventLog::new();
        log.push(Event::File {
            op: FileOp::Delete,
            path: "/data/data/a/files/a.dex".to_string(),
            suppressed: true,
            package: "com.app".to_string(),
        });
        let events = vec![dcl("/data/data/a/files/a.dex", "com.ads.Loader")];
        let malware = vec![MalwareHit {
            path: "/data/data/a/files/a.dex".to_string(),
            family: "adware".to_string(),
            score: 1.0,
            native: false,
        }];
        let leaks = vec![("/data/data/a/files/a.dex".to_string(), "IMEI".to_string())];
        AppProvenance::build(
            "com.app",
            "exercised",
            &log,
            &flow,
            &events,
            &[],
            &malware,
            &leaks,
        )
    }

    #[test]
    fn chain_reconstructs_url_to_load() {
        let prov = downloaded_app();
        let chain = prov
            .chain_node_ids("/data/data/a/files/a.dex")
            .expect("file in graph");
        assert_eq!(chain.len(), 5, "URL, stream, buffer, ostream, file");
        assert!(matches!(prov.nodes[chain[0]], ProvNode::Url { .. }));
        assert!(matches!(
            prov.nodes[*chain.last().unwrap()],
            ProvNode::File { .. }
        ));
        assert!(prov.is_remote_chain("/data/data/a/files/a.dex"));
        let text = prov.render_chain("/data/data/a/files/a.dex").unwrap();
        assert!(text.contains("URL http://cdn.x.com/a.dex"));
        assert!(text.contains("Load[DexClassLoader @ com.ads.Loader (third-party)]"));
        assert!(text.contains("Malware[adware]"));
        assert!(text.contains("Leak[IMEI]"));
    }

    #[test]
    fn blocked_ops_and_verdicts_present() {
        let prov = downloaded_app();
        assert!(prov
            .nodes
            .iter()
            .any(|n| matches!(n, ProvNode::Blocked { op, .. } if op == "delete")));
        assert!(prov.edges.iter().any(|e| e.kind == "blocked"));
        assert!(prov.edges.iter().any(|e| e.kind == "verdict"));
        let loads = prov.loads_for("/data/data/a/files/a.dex");
        assert_eq!(loads.len(), 1);
        assert_eq!(prov.verdicts_of(loads[0]).len(), 2);
    }

    #[test]
    fn node_ids_are_stable_and_sorted() {
        let prov = downloaded_app();
        let keys: Vec<String> = prov.nodes.iter().map(ProvNode::key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Edges sorted by (from, to, kind).
        let tuples: Vec<(u32, u32, &str)> = prov
            .edges
            .iter()
            .map(|e| (e.from, e.to, e.kind.as_str()))
            .collect();
        let mut sorted_tuples = tuples.clone();
        sorted_tuples.sort();
        assert_eq!(tuples, sorted_tuples);
        // Rebuilding produces identical serialization.
        let again = downloaded_app();
        assert_eq!(
            serde_json::to_string(&prov).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn local_origin_chain_is_not_remote() {
        let mut flow = FlowGraph::new();
        flow.add_edge(
            FlowNode::File("apk:assets/p.bin".to_string()),
            FlowNode::InputStream(1),
        );
        flow.add_edge(FlowNode::InputStream(1), FlowNode::Buffer(2));
        flow.add_edge(FlowNode::Buffer(2), FlowNode::OutputStream(3));
        flow.add_edge(
            FlowNode::OutputStream(3),
            FlowNode::File("/data/data/a/cache/p.dex".to_string()),
        );
        let log = EventLog::new();
        let events = vec![dcl("/data/data/a/cache/p.dex", "com.app.Main")];
        let prov =
            AppProvenance::build("com.app", "exercised", &log, &flow, &events, &[], &[], &[]);
        assert!(!prov.is_remote_chain("/data/data/a/cache/p.dex"));
        let chain = prov.chain_node_ids("/data/data/a/cache/p.dex").unwrap();
        assert!(matches!(
            prov.nodes[chain[0]],
            ProvNode::File { .. } | ProvNode::InputStream { .. }
        ));
    }

    #[test]
    fn env_diff_lists_divergent_loads_only() {
        let mut prov = downloaded_app();
        prov.env_loads = vec![
            EnvLoadOutcome {
                path: "/a".to_string(),
                configs: crate::environment::config_names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            },
            EnvLoadOutcome {
                path: "/b".to_string(),
                configs: vec!["Location OFF".to_string()],
            },
        ];
        let diff = prov.env_diff();
        assert_eq!(diff.len(), 1);
        assert_eq!(diff[0].path, "/b");
        assert_eq!(diff[0].loaded_under, vec!["Location OFF"]);
        assert_eq!(diff[0].missing_under.len(), 3);
    }

    #[test]
    fn dot_export_declares_every_edge_endpoint() {
        let prov = downloaded_app();
        let dot = prov.to_dot();
        assert!(dot.starts_with("digraph"));
        for edge in &prov.edges {
            assert!(dot.contains(&format!("n{} -> n{}", edge.from, edge.to)));
        }
        for i in 0..prov.nodes.len() {
            assert!(dot.contains(&format!("n{i} [label=")));
        }
        let corpus = corpus_dot(&[prov]);
        assert!(corpus.contains("subgraph cluster_0"));
    }

    #[test]
    fn ledger_roundtrip_torn_tail_and_finalize() {
        let path =
            std::env::temp_dir().join(format!("dydroid_ledger_test_{}.jsonl", std::process::id()));
        let ledger = ProvenanceLedger::new(&path);
        ledger.reset().unwrap();
        let prov = downloaded_app();
        {
            let mut w = ledger.writer().unwrap();
            w.append(&prov).unwrap();
        }
        // Span id must not leak into the serialized line.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("\"span\""));
        // Torn tail tolerated and counted.
        let mut torn = text.clone();
        torn.push_str("{\"package\":\"com.torn\",\"verd");
        std::fs::write(&path, torn).unwrap();
        let (records, dropped) = load_records::<AppProvenance>(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(dropped, 1);
        assert_eq!(records[0], prov);
        // Finalize rewrites deterministically.
        ledger.finalize(std::slice::from_ref(&prov)).unwrap();
        let finalized = std::fs::read_to_string(&path).unwrap();
        assert_eq!(finalized, text);
        ledger.reset().unwrap();
    }

    #[test]
    fn check_flags_app_set_disagreement() {
        let prov = downloaded_app();
        assert!(check_against_journal(std::slice::from_ref(&prov), &[]).is_err());
        assert!(check_against_journal(&[], &[]).is_ok());
    }
}
