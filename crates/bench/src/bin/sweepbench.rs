//! rebar-style sweep benchmark: runs a fixed-seed corpus sweep through
//! two variants — the **uncached baseline** (analysis cache off) and the
//! **cached** path (content-addressed analysis cache on) — verifies both
//! produce identical measurement JSON, then sweeps the worker count 1→N through the sharded
//! multi-writer path and emits the apps/sec-per-core scaling curve.
//!
//! Each variant is sampled over several rounds (rebar warmup/sample
//! discipline) and the cached-vs-baseline speedup is judged with the
//! shared noise-aware comparator: a wall-clock difference inside the
//! run-to-run noise band reads "within noise", not "0.99x".
//!
//! Scaling is judged on the **virtual makespan** — the longest summed
//! deterministic per-app virtual cost any one worker was charged (see
//! `dydroid::WorkerStats`) — not wall-clock: the curve then measures
//! scheduler load balance and is reproducible on any machine, including
//! single-core CI runners where wall-clock cannot speed up at all.
//! Wall-clock per worker count is still recorded, unjudged.
//!
//! The run emits one unified measurement record (`BENCH_sweep.json`),
//! appends it to `BENCH_history.jsonl`, and exits 1 on any failed
//! identity check or `--min-scaling` gate (the shared bench exit-code
//! convention).

use std::time::Instant;

use dydroid::scheduler::virtual_makespan_us;
use dydroid::{Journal, MeasurementReport, Pipeline, PipelineConfig};
use dydroid_bench::measure::sample_rounds;
use dydroid_bench::{
    significant, ArgParser, CommonArgs, CompareConfig, Direction, Measurement, EXIT_FINDING,
};
use dydroid_workload::{generate, SyntheticApp};

const USAGE: &str = "sweepbench [--scale F] [--seed N] [--out PATH] [--samples N] [--warmup N] \
[--history PATH | --no-history] [--skip-baseline] [--max-workers N] [--min-scaling F]";

/// One timed sweep; returns the report and total wall-clock ms.
fn timed_sweep(config: PipelineConfig, corpus: &[SyntheticApp]) -> (MeasurementReport, f64) {
    let pipeline = Pipeline::new(config);
    let t0 = Instant::now();
    let report = pipeline.run(corpus);
    (report, t0.elapsed().as_secs_f64() * 1e3)
}

/// One scaling point: a journaled sweep at a fixed worker count through
/// the sharded multi-writer path. Returns the report, the wall-clock
/// ms, and the finalized journal bytes (the cross-count byte-identity
/// evidence).
fn scaling_point(
    corpus: &[SyntheticApp],
    workers: usize,
    dir: &std::path::Path,
) -> (MeasurementReport, u64, Vec<u8>) {
    let config = PipelineConfig {
        workers,
        telemetry: false,
        environment_reruns: false,
        ..PipelineConfig::default()
    };
    let pipeline = Pipeline::new(config);
    let path = dir.join(format!("scaling-{workers}.jsonl"));
    let journal = Journal::new(&path);
    journal.reset().expect("reset scaling journal");
    let t0 = Instant::now();
    let report = pipeline
        .run_resumable(corpus, &journal)
        .expect("scaling sweep");
    let wall_ms = t0.elapsed().as_millis() as u64;
    let bytes = std::fs::read(&path).expect("read finalized scaling journal");
    (report, wall_ms, bytes)
}

/// The perf facts of one variant as a JSON object (the legacy payload
/// shape, median wall-clock over the sampled rounds).
fn variant_json(report: &MeasurementReport, wall_ms: f64, apps: usize) -> serde_json::Value {
    let stats = report.stats();
    let cache = &stats.cache;
    let apps_per_sec = if wall_ms == 0.0 {
        0.0
    } else {
        apps as f64 * 1000.0 / wall_ms
    };
    let phases = serde_json::json!({
        "sweep_ms": stats.sweep_ms,
        "env_ms": stats.env_ms,
    });
    let cache_json = serde_json::json!({
        "hits": cache.hits,
        "misses": cache.misses,
        "unique_binaries": cache.entries,
        "hit_rate": cache.hit_rate(),
        "sig_builds": cache.sig_builds,
        "taint_runs": cache.taint_runs,
    });
    serde_json::json!({
        "wall_ms": wall_ms,
        "apps_per_sec": apps_per_sec,
        "phases": phases,
        "cache": cache_json,
    })
}

fn main() {
    let mut parser = ArgParser::new(USAGE);
    let mut common = CommonArgs::for_bench("BENCH_sweep.json", 3, 1);
    common.scale = 0.01;
    let mut skip_baseline = false;
    let mut max_workers = 4usize;
    while let Some(arg) = parser.next() {
        if common.accept(&arg, &mut parser) {
            continue;
        }
        match arg.as_str() {
            "--skip-baseline" => skip_baseline = true,
            "--max-workers" => {
                max_workers = parser.value("--max-workers", "an integer >= 1");
                if max_workers == 0 {
                    parser.fail("--max-workers needs an integer >= 1");
                }
            }
            other => parser.fail(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!(
        "sweepbench: generating corpus (scale {}, seed {:#x}) ...",
        common.scale, common.seed
    );
    let corpus = generate(&dydroid_workload::CorpusSpec {
        scale: common.scale,
        seed: common.seed,
    });
    let apps = corpus.len();
    eprintln!("sweepbench: {apps} apps");

    let mut record = Measurement::new("sweep", "cached-vs-baseline", common.scale, common.seed);
    record.samples = common.samples;
    record.warmup = common.warmup;

    // Telemetry off in both variants: this benchmark is the PR-over-PR
    // perf trajectory, so it measures the disabled-telemetry fast path
    // (tracebench owns the enabled-vs-disabled comparison).
    let cached_config = PipelineConfig {
        telemetry: false,
        ..PipelineConfig::default()
    };
    let baseline_config = PipelineConfig {
        analysis_cache: false,
        telemetry: false,
        ..PipelineConfig::default()
    };

    eprintln!(
        "sweepbench: cached sweep ({} warmup + {} sample rounds) ...",
        common.warmup, common.samples
    );
    let mut cached_report: Option<MeasurementReport> = None;
    let cached_ms = sample_rounds(common.samples, common.warmup, || {
        let (report, ms) = timed_sweep(cached_config.clone(), &corpus);
        cached_report = Some(report);
        ms
    });
    let cached_report = cached_report.expect("at least one cached round");
    eprint!("{}", cached_report.render_perf());
    record.counters_from_stats(cached_report.stats());
    record.push_metric(
        "cached_wall_ms",
        "ms",
        Direction::Lower,
        false,
        cached_ms.clone(),
    );
    let cached_median = dydroid_bench::Stats::from_samples(&cached_ms).median;
    record.push_metric(
        "apps_per_sec",
        "apps/sec",
        Direction::Higher,
        false,
        cached_ms
            .iter()
            .map(|ms| {
                if *ms == 0.0 {
                    0.0
                } else {
                    apps as f64 * 1000.0 / ms
                }
            })
            .collect(),
    );

    let mut payload = serde_json::json!({
        "apps": apps,
        "workers": PipelineConfig::default().effective_workers(),
        "cached": variant_json(&cached_report, cached_median, apps),
    });

    if !skip_baseline {
        eprintln!(
            "sweepbench: uncached baseline ({} warmup + {} sample rounds) ...",
            common.warmup, common.samples
        );
        let mut baseline_report: Option<MeasurementReport> = None;
        let baseline_ms = sample_rounds(common.samples, common.warmup, || {
            let (report, ms) = timed_sweep(baseline_config.clone(), &corpus);
            baseline_report = Some(report);
            ms
        });
        let baseline_report = baseline_report.expect("at least one baseline round");
        eprint!("{}", baseline_report.render_perf());

        // The optimization must not change a single measured byte.
        let a = serde_json::to_string(&cached_report).expect("serialise cached");
        let b = serde_json::to_string(&baseline_report).expect("serialise baseline");
        if a != b {
            eprintln!("sweepbench: FAIL — cached and baseline reports differ");
            std::process::exit(EXIT_FINDING);
        }
        eprintln!("sweepbench: reports identical ({} bytes of JSON)", a.len());

        let baseline_median = dydroid_bench::Stats::from_samples(&baseline_ms).median;
        let speedup = if cached_median == 0.0 {
            0.0
        } else {
            baseline_median / cached_median
        };
        // Noise-aware judgement of the cache effect: the same floor/k
        // thresholds benchcmp applies. A sub-noise difference is
        // reported as such instead of a meaningless 0.99x.
        let cfg = CompareConfig::default();
        let (beyond_noise, threshold) = significant(&baseline_ms, &cached_ms, cfg.floor, cfg.k);
        let verdict = if beyond_noise {
            "beyond noise"
        } else {
            "WITHIN NOISE — treat as 1.00x"
        };
        eprintln!(
            "sweepbench: baseline median {baseline_median:.1} ms -> cached median \
             {cached_median:.1} ms ({speedup:.2}x, {verdict}; threshold ±{threshold:.1} ms)"
        );
        record.push_metric(
            "baseline_wall_ms",
            "ms",
            Direction::Lower,
            false,
            baseline_ms,
        );
        record.push_metric(
            "cache_speedup",
            "ratio",
            Direction::Higher,
            false,
            vec![speedup],
        );
        if let serde_json::Value::Object(map) = &mut payload {
            map.push((
                "baseline".to_string(),
                variant_json(&baseline_report, baseline_median, apps),
            ));
            map.push(("speedup".to_string(), serde_json::json!(speedup)));
            map.push((
                "speedup_beyond_noise".to_string(),
                serde_json::json!(beyond_noise),
            ));
        }
    }

    // Worker-count scaling sweep 1→N through the sharded multi-writer
    // journaled path. Each count runs the same corpus; the finalized
    // journal and the report JSON must be byte-identical across counts.
    let scaling_dir =
        std::env::temp_dir().join(format!("sweepbench-scaling-{}", std::process::id()));
    std::fs::create_dir_all(&scaling_dir).expect("create scaling dir");
    let mut points = Vec::new();
    let mut makespan_1 = 0u64;
    let mut makespan_max = 0u64;
    let mut reference: Option<(Vec<u8>, String)> = None;
    for workers in 1..=max_workers {
        eprintln!("sweepbench: scaling sweep at {workers} worker(s) ...");
        let (report, wall_ms, journal_bytes) = scaling_point(&corpus, workers, &scaling_dir);
        let stats = report.stats();
        let makespan_us = virtual_makespan_us(&stats.worker_stats);
        if workers == 1 {
            makespan_1 = makespan_us;
        }
        makespan_max = makespan_us;
        // Scaling factor: how much shorter the critical path (longest
        // per-worker virtual cost) got versus one worker.
        let scaling = if makespan_us == 0 {
            0.0
        } else {
            makespan_1 as f64 / makespan_us as f64
        };
        let report_json = serde_json::to_string(&report).expect("serialise scaling report");
        match &reference {
            None => reference = Some((journal_bytes, report_json)),
            Some((ref_journal, ref_report)) => {
                if *ref_journal != journal_bytes {
                    eprintln!(
                        "sweepbench: FAIL — finalized journal at {workers} workers differs from 1 worker"
                    );
                    std::process::exit(EXIT_FINDING);
                }
                if *ref_report != report_json {
                    eprintln!(
                        "sweepbench: FAIL — report JSON at {workers} workers differs from 1 worker"
                    );
                    std::process::exit(EXIT_FINDING);
                }
            }
        }
        let steals: u64 = stats.worker_stats.iter().map(|w| w.steals).sum();
        let virtual_total: u64 = stats.worker_stats.iter().map(|w| w.virtual_us).sum();
        let apps_per_virtual_sec_per_core = if makespan_us == 0 {
            0.0
        } else {
            apps as f64 * 1_000_000.0 / (makespan_us as f64 * workers as f64)
        };
        eprintln!(
            "sweepbench:   wall {wall_ms} ms, virtual makespan {makespan_us} µs, scaling {scaling:.2}x, {steals} steals"
        );
        points.push(serde_json::json!({
            "workers": workers,
            "stream_shards": stats.stream_shards,
            "wall_ms": wall_ms,
            "virtual_makespan_us": makespan_us,
            "virtual_total_us": virtual_total,
            "scaling": scaling,
            "apps_per_virtual_sec_per_core": apps_per_virtual_sec_per_core,
            "steals": steals,
            "shard_contention": stats.shard_contention,
        }));
    }
    let _ = std::fs::remove_dir_all(&scaling_dir);
    let final_scaling = points
        .last()
        .and_then(|p| p["scaling"].as_f64())
        .unwrap_or(0.0);
    eprintln!(
        "sweepbench: scaling 1→{max_workers}: {final_scaling:.2}x on virtual makespan \
         (streams byte-identical across counts)"
    );
    // Virtual metrics: deterministic, judged across machines by benchcmp.
    record.push_metric(
        "virtual_makespan_us",
        "us",
        Direction::Lower,
        true,
        vec![makespan_max as f64],
    );
    record.push_metric(
        "scaling_at_max",
        "ratio",
        Direction::Higher,
        true,
        vec![final_scaling],
    );
    if let serde_json::Value::Object(map) = &mut payload {
        map.push((
            "scaling".to_string(),
            serde_json::json!({
                "judged_on": "virtual_makespan_us",
                "max_workers": max_workers,
                "scaling_at_max": final_scaling,
                "points": points,
            }),
        ));
    }
    record.payload = payload;

    record
        .write_pretty(&common.out)
        .expect("write bench output");
    eprintln!("sweepbench: wrote {}", common.out);
    common.append_history("sweepbench", &record);

    if let Some(min_scaling) = common.gate("scaling") {
        if final_scaling < min_scaling {
            eprintln!(
                "sweepbench: FAIL — scaling {final_scaling:.2}x at {max_workers} workers below \
                 required {min_scaling:.2}x"
            );
            std::process::exit(EXIT_FINDING);
        }
    }
}
