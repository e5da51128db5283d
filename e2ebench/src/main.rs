//! `e2ebench`: one measured step of the end-to-end sweep benchmark.
//!
//! ```text
//! e2ebench sweep     --workload W --seed N --work DIR [--crash-at OPS] [--seconds S]
//! e2ebench trace     --workload W --seed N --work DIR [--crash-at OPS]
//! e2ebench count-ops --seed N --work DIR
//! e2ebench digests   --seeds A,B,...
//! ```
//!
//! `sweep` sets up workload `journaled`, `in-memory` or `resume` once,
//! then repeats its timed call at the production defaults (2 workers),
//! each time from the same starting state, until `S` seconds (default 0)
//! have passed since the step started, at least once; it prints one JSON
//! line. `trace` runs the workload once more with `profile_out` set, then
//! replays it on one thread through each layer's public functions under
//! the benchmark's own spans, and prints the per-layer metrics.
//! `count-ops` counts the write ops of a journaled sweep, which places
//! the `resume` workload's crash point. `digests` prints the digest
//! table `digests.json` holds. `run.py` drives these steps and
//! aggregates them.
//!
//! `digests.json` is compiled in. Its `scale` is the corpus scale of
//! every command, so the scale and the digests checked against it
//! cannot disagree.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use dydroid::cache::BinaryVerdict;
use dydroid::{
    environment, training, AnalysisCache, AppProvenance, AppRecord, DynamicStatus, IoHarness,
    Journal, MeasurementReport, Pipeline, PipelineConfig, ProvenanceLedger, Telemetry,
};
use dydroid_analysis::{decompiler, obfuscation, DclFilter, TaintAnalysis};
use dydroid_avm::DclEvent;
use dydroid_e2ebench::{
    corpus_digest, fnv64, layer_totals, self_times_ns, tables_json, DigestCheck, DigestTable,
    Tracer,
};
use dydroid_monkey::{ExerciseOutcome, Monkey, MonkeyConfig};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};
use serde_json::Value;

/// Sweep workers: fixed, so results from machines with more cores stay
/// comparable (the reference machine has 2).
const WORKERS: usize = 2;

/// Spans timed to estimate the cost of one telemetry span.
const TELEMETRY_PROBE_SPANS: u64 = 50_000;

const MB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Journaled,
    InMemory,
    Resume,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "journaled" => Some(Workload::Journaled),
            "in-memory" => Some(Workload::InMemory),
            "resume" => Some(Workload::Resume),
            _ => None,
        }
    }
}

/// The committed report digests; their scale is the benchmark's scale.
const DIGESTS: &str = include_str!("../digests.json");

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    scale: f64,
    work: PathBuf,
    digests: DigestTable,
    crash_at: Option<u64>,
    seconds: f64,
    seeds: Vec<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let digests = DigestTable::parse(DIGESTS)?;
    let mut args = Args {
        command,
        workload: Workload::Journaled,
        seed: CorpusSpec::default().seed,
        scale: digests.scale(),
        work: PathBuf::from(".bench_work"),
        digests,
        crash_at: None,
        seconds: 0.0,
        seeds: Vec::new(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value).ok_or_else(|| bad("a workload"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--work" => args.work = PathBuf::from(value),
            "--crash-at" => args.crash_at = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--seeds" => {
                args.seeds = value
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|_| bad("integers")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn config() -> PipelineConfig {
    PipelineConfig {
        workers: WORKERS,
        ..Default::default()
    }
}

/// Directory of the workload's streams (journal, ledger, events,
/// metrics, profile artifacts) and its report. `run.py` mounts a private
/// tmpfs at its parent, `<work>/streams`, for each step.
fn state_dir(args: &Args) -> PathBuf {
    args.work.join("streams").join("state")
}

/// Filesystem type of the mount that holds `dir`, from `/proc/self/mounts`
/// (the last of stacked mounts wins, as it does for path lookup).
fn fs_type(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

fn io_err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| io_err("create copy dir", e))?;
    for entry in std::fs::read_dir(from).map_err(|e| io_err("read state dir", e))? {
        let entry = entry.map_err(|e| io_err("read state dir", e))?;
        if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| io_err("copy state file", e))?;
        }
    }
    Ok(())
}

/// Apps missing from the report or recorded as harness failures.
fn failed_apps(corpus: &[SyntheticApp], report: &MeasurementReport) -> usize {
    let records = report.records();
    let harness = records
        .iter()
        .filter(|r| r.harness_failure().is_some())
        .count();
    let in_order = corpus
        .iter()
        .zip(records)
        .filter(|(app, r)| app.package() == r.package)
        .count();
    harness + corpus.len().saturating_sub(in_order)
}

/// The state a workload's timed call starts from.
struct Prepared {
    corpus: Vec<SyntheticApp>,
    pipeline: Pipeline,
    journal: Journal,
    /// Tables JSON of the interrupted sweep (`resume` only): that sweep
    /// ran to completion in memory, only its disk state froze.
    interrupted_json: Option<String>,
    setup_s: f64,
}

fn prepare(args: &Args, base: PipelineConfig) -> Result<Prepared, String> {
    let workload = args.workload;
    let state = state_dir(args);
    std::fs::create_dir_all(&state).map_err(|e| io_err("create work dir", e))?;
    let journal = Journal::new(state.join("sweep.jsonl"));
    let t0 = Instant::now();
    let corpus = generate(&CorpusSpec {
        scale: args.scale,
        seed: args.seed,
    });
    let mut interrupted_json = None;
    if workload != Workload::InMemory {
        journal.reset().map_err(|e| io_err("reset journal", e))?;
    }
    if workload == Workload::Resume {
        let crash_at = args.crash_at.ok_or("resume needs --crash-at")?;
        let harness = IoHarness::new(Some(crash_at), None);
        let mut crashing = Pipeline::new(base.clone());
        crashing.set_io_harness(Arc::clone(&harness));
        let report = crashing
            .run_resumable(&corpus, &journal)
            .map_err(|e| io_err("interrupted sweep", e))?;
        if !harness.crashed() {
            return Err(format!(
                "crash point {crash_at} never fired ({} write ops)",
                harness.ops()
            ));
        }
        interrupted_json = Some(tables_json(&report, args.scale, args.seed));
    }
    let pipeline = Pipeline::new(base);
    Ok(Prepared {
        corpus,
        pipeline,
        journal,
        interrupted_json,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

fn timed_call(workload: Workload, p: &Prepared) -> Result<(MeasurementReport, f64), String> {
    let t = Instant::now();
    let report = match workload {
        Workload::InMemory => p.pipeline.run(&p.corpus),
        Workload::Journaled | Workload::Resume => p
            .pipeline
            .run_resumable(&p.corpus, &p.journal)
            .map_err(|e| io_err("journaled sweep", e))?,
    };
    Ok((report, t.elapsed().as_secs_f64()))
}

/// Output checks shared by `sweep` and `trace`: the committed digest,
/// and for `resume` byte equality with the interrupted sweep's report.
fn check_report(args: &Args, p: &Prepared, report_json: &str) -> (Value, bool) {
    let check = args.digests.check(args.seed, report_json);
    let resume_equal = p.interrupted_json.as_ref().map(|j| j == report_json);
    let correct = !matches!(check, DigestCheck::Mismatch { .. }) && resume_equal != Some(false);
    let label = match check {
        DigestCheck::Match => "match",
        DigestCheck::Mismatch { .. } => "mismatch",
        DigestCheck::Uncommitted => "uncommitted",
    };
    let digest = dydroid_e2ebench::Digest::of(report_json.as_bytes());
    (
        serde_json::json!({
            "digest": digest.to_json(),
            "digest_check": label,
            "resume_equal": resume_equal,
        }),
        correct,
    )
}

/// The process's peak resident memory so far (`VmHWM`), in KiB.
///
/// Read after the first call of a `sweep` step, so it covers set-up and
/// one sweep: a process that runs more sweeps holds more memory, as the
/// allocator keeps the arenas of each sweep's worker threads (in-memory
/// grows from 49 MiB after one sweep to 95 MiB after five, then stays).
fn peak_rss_kib_so_far() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Puts the timed call's starting state back after a timed call: a fresh
/// pipeline (the analysis cache and telemetry of the last call must not
/// carry over), and a fresh journal for `journaled` or the interrupted
/// sweep's streams, copied from `crashed`, for `resume`.
fn restore(args: &Args, p: &mut Prepared, crashed: &Path) -> Result<(), String> {
    p.pipeline = Pipeline::new(config());
    let state = state_dir(args);
    match args.workload {
        Workload::InMemory => Ok(()),
        Workload::Journaled => p.journal.reset().map_err(|e| io_err("reset journal", e)),
        Workload::Resume => {
            std::fs::remove_dir_all(&state).map_err(|e| io_err("clear state dir", e))?;
            copy_dir(crashed, &state)
        }
    }
}

fn cmd_sweep(args: &Args) -> Result<Value, String> {
    let started = Instant::now();
    let mut p = prepare(args, config())?;
    let crashed = args.work.join("streams").join("crashed");
    if args.workload == Workload::Resume {
        copy_dir(&state_dir(args), &crashed)?;
    }
    // The first call of a fresh process can run far slower than the
    // rest (in-memory: 0.9-1.1 s against 0.45-0.7 s), so `journaled` and
    // `in-memory` make one untimed call first. `resume`'s set-up already
    // ran a whole journaled sweep in this process.
    let warmup = args.workload != Workload::Resume;
    let mut sweep_s = Vec::new();
    let (mut calls, mut failed, mut same_report) = (0, 0, true);
    let mut peak_rss_kib = None;
    let mut first_json: Option<String> = None;
    let report = loop {
        if calls > 0 {
            restore(args, &mut p, &crashed)?;
        }
        let (report, seconds) = timed_call(args.workload, &p)?;
        calls += 1;
        if calls == 1 {
            peak_rss_kib = peak_rss_kib_so_far();
        }
        if !(warmup && calls == 1) {
            sweep_s.push(seconds);
        }
        failed += failed_apps(&p.corpus, &report);
        let report_json = tables_json(&report, args.scale, args.seed);
        match &first_json {
            None => first_json = Some(report_json),
            Some(first) => same_report &= *first == report_json,
        }
        if !sweep_s.is_empty() && started.elapsed().as_secs_f64() >= args.seconds {
            break report;
        }
    };
    let report_json = first_json.expect("at least one call");
    let _ = std::fs::remove_dir_all(&crashed);
    let report_path = state_dir(args).join("report.json");
    std::fs::write(&report_path, &report_json).map_err(|e| io_err("write report", e))?;
    let disk_bytes = dir_bytes(&state_dir(args));
    let (check, correct) = check_report(args, &p, &report_json);
    let stats = report.stats();
    Ok(serde_json::json!({
        "setup_s": p.setup_s,
        "sweep_s": sweep_s,
        "apps": report.records().len(),
        "attempted": p.corpus.len() * calls,
        "failed": failed,
        "disk_bytes": disk_bytes,
        "peak_rss_kib": peak_rss_kib,
        "fsyncs": stats.journal_syncs,
        "recovered": stats.recovered_records,
        "correct": correct && same_report,
        "check": check,
        "scale": args.scale,
        "journal_fs": fs_type(&state_dir(args)),
        "available_parallelism": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }))
}

fn cmd_count_ops(args: &Args) -> Result<Value, String> {
    let state = state_dir(args);
    std::fs::create_dir_all(&state).map_err(|e| io_err("create work dir", e))?;
    let journal = Journal::new(state.join("sweep.jsonl"));
    journal.reset().map_err(|e| io_err("reset journal", e))?;
    let corpus = generate(&CorpusSpec {
        scale: args.scale,
        seed: args.seed,
    });
    let harness = IoHarness::counting();
    let mut pipeline = Pipeline::new(config());
    pipeline.set_io_harness(Arc::clone(&harness));
    pipeline
        .run_resumable(&corpus, &journal)
        .map_err(|e| io_err("counting sweep", e))?;
    Ok(serde_json::json!({ "ops": harness.ops() }))
}

fn cmd_digests(args: &Args) -> Result<Value, String> {
    let mut seeds = Vec::new();
    for &seed in &args.seeds {
        let corpus = generate(&CorpusSpec {
            scale: args.scale,
            seed,
        });
        let report = Pipeline::new(config()).run(&corpus);
        let json = tables_json(&report, args.scale, seed);
        eprintln!("seed {seed}: {} apps", corpus.len());
        seeds.push((
            seed.to_string(),
            dydroid_e2ebench::Digest::of(json.as_bytes()).to_json(),
        ));
    }
    Ok(serde_json::json!({
        "scale": args.scale,
        "seeds": Value::Object(seeds),
    }))
}

/// Per-layer counts the replay accumulates beside its spans.
#[derive(Default)]
struct Counts {
    replayed: u64,
    decompile_bytes: u64,
    decompile_failed: u64,
    dynamic: u64,
    rewrites: u64,
    copied_bytes: u64,
    install_bytes: u64,
    install_failed: u64,
    monkey_events: u64,
    instructions: u64,
    binaries: u64,
    provenance_nodes: u64,
    mismatches: u64,
}

/// What one app's replay observed, checked against its sweep record.
struct Observed {
    filter: DclFilter,
    payloads: usize,
}

fn status_label(status: &DynamicStatus) -> &'static str {
    match status {
        DynamicStatus::Exercised => "exercised",
        DynamicStatus::Crash => "crash",
        DynamicStatus::NoActivity => "no_activity",
        DynamicStatus::RewriteFailure => "rewrite_failure",
        DynamicStatus::AnalysisFailure { .. } => "harness_failure",
    }
}

/// Replays one app through the layers the sweep runs, each under its own
/// span. The journal record is the sweep's; the replay re-derives what
/// each layer computes and the caller checks it against that record.
#[allow(clippy::too_many_arguments)]
fn replay_app(
    tr: &mut Tracer,
    app_span: usize,
    i: usize,
    app: &SyntheticApp,
    record: &AppRecord,
    pipeline: &Pipeline,
    cache: &AnalysisCache,
    detector: &dydroid_analysis::MalwareDetector,
    counts: &mut Counts,
) -> (Observed, Option<AppProvenance>) {
    let cfg = pipeline.config();
    let at = (Some(app_span), Some(i));
    counts.decompile_bytes += app.apk.len() as u64;
    let decompiled = tr.time("decompile", at.0, at.1, || decompiler::decompile(&app.apk));
    let Ok(decompiled) = decompiled else {
        counts.decompile_failed += 1;
        let observed = Observed {
            filter: DclFilter::default(),
            payloads: 0,
        };
        return (observed, None);
    };
    let (filter, _obfuscation) = tr.time("static_scan", at.0, at.1, || {
        (
            DclFilter::scan(&decompiled.classes),
            obfuscation::analyze(&decompiled),
        )
    });
    let mut observed = Observed {
        filter,
        payloads: 0,
    };
    if !filter.any() {
        return (observed, None);
    }
    counts.dynamic += 1;
    let rewritten = if decompiler::needs_rewriting(&decompiled.manifest) {
        counts.rewrites += 1;
        match tr.time("rewrite", at.0, at.1, || {
            decompiler::repackage_with_permission(&decompiled)
        }) {
            Ok(bytes) => Some(bytes),
            Err(_) => return (observed, None),
        }
    } else {
        None
    };
    let install_bytes: &[u8] = rewritten.as_deref().unwrap_or(&app.apk);
    counts.copied_bytes += app
        .remote_resources
        .iter()
        .map(|(_, _, b)| b.len() as u64)
        .chain(app.device_files.iter().map(|(_, _, b)| b.len() as u64))
        .sum::<u64>();
    let mut device = tr.time("prepare_device", at.0, at.1, || {
        pipeline.prepare_device(app, cfg.device_config())
    });
    counts.install_bytes += install_bytes.len() as u64;
    if tr
        .time("install", at.0, at.1, || device.install(install_bytes))
        .is_err()
    {
        counts.install_failed += 1;
        return (observed, None);
    }
    let mut monkey = Monkey::new(MonkeyConfig {
        seed: cfg.monkey_seed ^ fnv64(app.package().as_bytes()),
        event_budget: cfg.monkey_events,
        deadline_ms: cfg.deadline_ms(),
    });
    let before = device.instructions_retired();
    let exercised = tr.time("monkey", at.0, at.1, || {
        monkey.exercise(&mut device, app.package())
    });
    counts.instructions += device.instructions_retired() - before;
    match exercised {
        Ok(ExerciseOutcome::Exercised { events_fired, .. }) => {
            counts.monkey_events += events_fired as u64
        }
        _ => return (observed, None),
    }
    let (dex_events, native_events): (Vec<DclEvent>, Vec<DclEvent>) = device
        .log
        .dcl_events()
        .filter(|e| e.success)
        .cloned()
        .partition(|e| e.kind.is_dex());
    observed.payloads = dex_events.len() + native_events.len();
    let taint = TaintAnalysis::new();
    let mut seen = HashSet::new();
    let unique: Vec<_> = device
        .hooks
        .intercepted()
        .iter()
        .filter(|b| seen.insert(b.path.as_str()))
        .collect();
    counts.binaries += unique.len() as u64;
    let verdicts: Vec<_> = tr.time("binary_analysis", at.0, at.1, || {
        unique
            .iter()
            .map(|b| cache.analyze(&b.data, detector, &taint))
            .collect()
    });
    let mut path_leaks: Vec<(String, String)> = unique
        .iter()
        .zip(&verdicts)
        .flat_map(|(b, v)| match &**v {
            BinaryVerdict::Parsed { leaks, .. } => leaks
                .iter()
                .map(|l| (b.path.clone(), format!("{:?}", l.privacy)))
                .collect(),
            _ => Vec::new(),
        })
        .collect();
    path_leaks.sort();
    path_leaks.dedup();
    let dynamic = record.dynamic.as_ref();
    let provenance = tr.time("provenance", at.0, at.1, || {
        AppProvenance::build(
            app.package(),
            dynamic.map_or("static_only", |d| status_label(&d.status)),
            &device.log,
            &device.hooks.flow,
            &dex_events,
            &native_events,
            dynamic.map_or(&[][..], |d| &d.malware),
            &path_leaks,
        )
    });
    counts.provenance_nodes += provenance.nodes.len() as u64;
    (observed, Some(provenance))
}

/// Self share of the program's own `sweep;app` span in a folded profile.
fn profile_unattributed(folded: &str) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for line in folded.lines() {
        let Some((stack, us)) = line.rsplit_once(' ') else {
            continue;
        };
        let us: u64 = us.parse().unwrap_or(0);
        if stack == "sweep;app" {
            own += us;
        }
        if stack == "sweep;app" || stack.starts_with("sweep;app;") {
            total += us;
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

fn cmd_trace(args: &Args) -> Result<Value, String> {
    let workload = args.workload;
    let profile_path = args.work.join("profile.folded");
    let base = PipelineConfig {
        profile_out: Some(profile_path.to_string_lossy().into_owned()),
        ..config()
    };
    // The workload itself, once, for the report, its stats and the
    // program's own profile.
    let p = prepare(args, base)?;
    let replay_dir = args.work.join("streams").join("replay");
    if workload == Workload::Resume {
        copy_dir(&state_dir(args), &replay_dir)?;
    } else {
        std::fs::create_dir_all(&replay_dir).map_err(|e| io_err("create replay dir", e))?;
    }
    let (report, _) = timed_call(workload, &p)?;
    let report_json = tables_json(&report, args.scale, args.seed);
    let (check, mut correct) = check_report(args, &p, &report_json);
    let records = report.records();
    let folded = std::fs::read_to_string(&profile_path).unwrap_or_default();
    let spans_per_app = ratio(
        p.pipeline.telemetry().spans().len() as f64,
        p.corpus.len() as f64,
    );

    // The replay: one thread, the benchmark's own spans around each
    // layer's public functions.
    let mut tr = Tracer::default();
    let root = tr.begin("replay", None, None);
    let spec = CorpusSpec {
        scale: args.scale,
        seed: args.seed,
    };
    let corpus = tr.time("generate", Some(root), None, || generate(&spec));
    let corpus_bytes: u64 = corpus
        .iter()
        .map(|a| {
            a.apk.len() as u64
                + a.remote_resources
                    .iter()
                    .chain(a.device_files.iter())
                    .map(|(_, _, b)| b.len() as u64)
                    .sum::<u64>()
        })
        .sum();
    let detector = tr.time("train", Some(root), None, || {
        training::reference_detector(p.pipeline.config().malware_threshold)
    });
    let cache = AnalysisCache::new(0);
    let journal = Journal::new(replay_dir.join("sweep.jsonl"));
    let ledger = ProvenanceLedger::new(journal.provenance_path());
    let journaled = workload != Workload::InMemory;
    let mut recovered: HashSet<String> = HashSet::new();
    let (mut recover_bytes, mut recover_records, mut recover_dropped) = (0u64, 0u64, 0u64);
    if journaled {
        recover_bytes = dir_bytes(&replay_dir);
        let outcome = tr
            .time("recover", Some(root), None, || {
                p.pipeline.recover_all(&journal)
            })
            .map_err(|e| io_err("recover", e))?;
        recover_records = outcome.records.len() as u64;
        recover_dropped =
            (outcome.journal_dropped + outcome.ledger_dropped + outcome.events_dropped) as u64;
        recovered.extend(outcome.records.into_iter().map(|r| r.package));
    }
    let mut writers = if journaled {
        Some((
            journal.writer().map_err(|e| io_err("open journal", e))?,
            ledger.writer().map_err(|e| io_err("open ledger", e))?,
        ))
    } else {
        None
    };
    let mut counts = Counts::default();
    let mut provenance: Vec<Option<AppProvenance>> = vec![None; corpus.len()];
    for (i, (app, record)) in corpus.iter().zip(records).enumerate() {
        if recovered.contains(app.package()) {
            continue;
        }
        counts.replayed += 1;
        let app_span = tr.begin("app", Some(root), Some(i));
        let (observed, live) = replay_app(
            &mut tr,
            app_span,
            i,
            app,
            record,
            &p.pipeline,
            &cache,
            &detector,
            &mut counts,
        );
        let prov = match live {
            Some(prov) => prov,
            None => tr.time("provenance", Some(app_span), Some(i), || {
                AppProvenance::from_record(record)
            }),
        };
        if let Some((journal_w, ledger_w)) = writers.as_mut() {
            tr.time("journal_append", Some(app_span), Some(i), || {
                journal_w.append(record)
            })
            .map_err(|e| io_err("journal append", e))?;
            tr.time("ledger_append", Some(app_span), Some(i), || {
                ledger_w.append(&prov)
            })
            .map_err(|e| io_err("ledger append", e))?;
        }
        provenance[i] = Some(prov);
        tr.end(app_span);
        let expected_payloads = record
            .dynamic
            .as_ref()
            .map_or(0, |d| d.dex_events.len() + d.native_events.len());
        if observed.filter != record.filter || observed.payloads != expected_payloads {
            counts.mismatches += 1;
            if counts.mismatches <= 5 {
                eprintln!(
                    "e2ebench: replay of {} disagrees with the sweep: filter {:?} vs {:?}, payloads {} vs {}",
                    app.package(),
                    observed.filter,
                    record.filter,
                    observed.payloads,
                    expected_payloads
                );
            }
        }
    }
    drop(writers);
    let (journal_bytes, ledger_bytes) = if journaled {
        (
            std::fs::metadata(journal.path()).map_or(0, |m| m.len()),
            std::fs::metadata(ledger.path()).map_or(0, |m| m.len()),
        )
    } else {
        (0, 0)
    };
    let env = tr.time("env_rerun", Some(root), None, || {
        environment::rerun_all(&p.pipeline, &corpus, records)
    });
    let flagged = records
        .iter()
        .filter(|r| r.dynamic.as_ref().is_some_and(|d| !d.malware.is_empty()))
        .count();
    if journaled {
        let finals: Vec<AppProvenance> = records
            .iter()
            .zip(provenance)
            .map(|(r, p)| p.unwrap_or_else(|| AppProvenance::from_record(r)))
            .collect();
        tr.time("finalize", Some(root), None, || {
            journal
                .finalize_with(records, None)
                .and_then(|()| ledger.finalize_with(&finals, None))
        })
        .map_err(|e| io_err("finalize", e))?;
    }
    let replay_json = tr.time("report_assemble", Some(root), None, || {
        let mut replayed = MeasurementReport::new(records.to_vec(), env.counts);
        replayed.set_env_loads(env.loads);
        tables_json(&replayed, args.scale, args.seed)
    });
    tr.end(root);

    // The cost of one span through the program's telemetry API.
    let telemetry = Telemetry::new(true);
    let t = Instant::now();
    for _ in 0..TELEMETRY_PROBE_SPANS {
        drop(std::hint::black_box(telemetry.span("probe")));
    }
    let span_ns = t.elapsed().as_nanos() as f64 / TELEMETRY_PROBE_SPANS as f64;

    let spans = tr.spans();
    std::fs::write(args.work.join("spans.jsonl"), tr.to_jsonl())
        .map_err(|e| io_err("write spans", e))?;
    let totals = layer_totals(spans);
    let busy = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.1);
    let self_ns = self_times_ns(spans);
    let (app_self, app_total) = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "app")
        .fold((0u64, 0u64), |(a, b), (s, own)| (a + own, b + s.dur_ns()));
    let cache_stats = cache.stats();
    let det = detector.stats();
    let stats = report.stats();
    if counts.mismatches > 0 || replay_json != report_json {
        correct = false;
    }
    let metrics = serde_json::json!({
        "workload.generate_s": busy("generate"),
        "workload.corpus_mb": corpus_bytes as f64 / MB,
        "training.train_s": busy("train"),
        "decompile.busy_s": busy("decompile"),
        "decompile.calls": calls("decompile"),
        "decompile.mb_in": counts.decompile_bytes as f64 / MB,
        "decompile.failed": counts.decompile_failed,
        "static_scan.busy_s": busy("static_scan"),
        "filter.pass_ratio": ratio(counts.dynamic as f64, counts.replayed as f64),
        "rewrite.busy_s": busy("rewrite"),
        "rewrite.calls": counts.rewrites,
        "prepare_device.busy_s": busy("prepare_device"),
        "prepare_device.mb_copied": counts.copied_bytes as f64 / MB,
        "install.busy_s": busy("install"),
        "install.mb_in": counts.install_bytes as f64 / MB,
        "install.failed": counts.install_failed,
        "monkey.busy_s": busy("monkey"),
        "monkey.events": counts.monkey_events,
        "avm.instructions": counts.instructions,
        "binary_analysis.busy_s": busy("binary_analysis"),
        "binary_analysis.calls": counts.binaries,
        "cache.hit_ratio": cache_stats.hit_rate(),
        "detector.prune_ratio": ratio(det.pruned as f64, det.candidates as f64),
        "env_rerun.busy_s": busy("env_rerun"),
        "env_rerun.calls": flagged * environment::config_names().len(),
        "provenance.busy_s": busy("provenance"),
        "provenance.nodes": counts.provenance_nodes,
        "journal.append_s": busy("journal_append"),
        "journal.mb": journal_bytes as f64 / MB,
        "ledger.append_s": busy("ledger_append"),
        "ledger.mb": ledger_bytes as f64 / MB,
        "finalize.busy_s": busy("finalize"),
        "durable.syncs": stats.journal_syncs,
        "durable.shard_contention": stats.shard_contention,
        "scheduler.steals": stats.worker_stats.iter().map(|w| w.steals).sum::<u64>(),
        "scheduler.balance": dydroid::scheduler::parallel_balance(&stats.worker_stats),
        "recover.busy_s": busy("recover"),
        "recover.mb_scanned": recover_bytes as f64 / MB,
        "recover.records": recover_records,
        "recover.dropped": recover_dropped,
        "report.assemble_s": busy("report_assemble"),
        "telemetry.span_ns": span_ns,
        "telemetry.spans_per_app": spans_per_app,
        "trace.unattributed_share": ratio(app_self as f64, app_total as f64),
        "profile.unattributed_share": profile_unattributed(&folded),
    });
    Ok(serde_json::json!({
        "correct": correct,
        "attempted": p.corpus.len(),
        "failed": failed_apps(&p.corpus, &report),
        "replayed": counts.replayed,
        "replay_mismatches": counts.mismatches,
        "replay_report_equal": replay_json == report_json,
        "check": check,
        "corpus_digest": corpus_digest(&corpus).to_json(),
        "scale": args.scale,
        "journal_fs": fs_type(&state_dir(args)),
        "available_parallelism": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        "metrics": metrics,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.command.as_str() {
        "sweep" => cmd_sweep(&args),
        "trace" => cmd_trace(&args),
        "count-ops" => cmd_count_ops(&args),
        "digests" => cmd_digests(&args),
        other => Err(format!("unknown command {other}")),
    };
    match out {
        Ok(v) => {
            println!("{}", v.to_compact_string());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
