//! rebar-style interpreter benchmark: drives a fixed mini-corpus of
//! synthetic bytecode workloads through the AVM's interpreter and emits
//! a unified `BENCH_avm.json` measurement record (appended to
//! `BENCH_history.jsonl`) with per-workload instructions/second samples,
//! so future changes have a regression trajectory. The retired
//! instruction count is a `Steady` virtual identity benchcmp gates
//! across machines.

use std::time::Instant;

use dydroid_avm::{Device, DeviceConfig, Process};
use dydroid_bench::{ArgParser, CommonArgs, Direction, Measurement, Stats, EXIT_FINDING};
use dydroid_dex::builder::DexBuilder;
use dydroid_dex::{AccessFlags, CmpKind, DexFile, FieldRef, Manifest, MethodRef};

const USAGE: &str = "avmbench [--samples N] [--warmup N] [--iters N] [--out PATH] \
[--history PATH | --no-history]";

const PKG: &str = "com.bench.app";
const ENTRY_CLASS: &str = "com.bench.Main";
const ENTRY: &str = "bench";

/// A `Worker` class with one int field and a `bump()V` virtual method,
/// shared by the call-heavy workloads.
fn add_worker(b: &mut DexBuilder) {
    let c = b.class("com.bench.Worker", "java.lang.Object");
    c.field("n", "I", AccessFlags::PRIVATE);
    let m = c.method("bump", "()V", AccessFlags::PUBLIC);
    m.registers(4);
    m.iget(1, 0, FieldRef::new("com.bench.Worker", "n", "I"));
    m.const_int(2, 1);
    m.binop(dydroid_dex::BinOp::Add, 1, 1, 2);
    m.iput(1, 0, FieldRef::new("com.bench.Worker", "n", "I"));
    m.ret_void();
}

/// Virtual-call churn: one hot monomorphic call site invoked in a loop.
fn workload_calls() -> DexFile {
    let mut b = DexBuilder::new();
    add_worker(&mut b);
    let c = b.class(ENTRY_CLASS, "java.lang.Object");
    let m = c.method(ENTRY, "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(6);
    m.new_instance(0, "com.bench.Worker");
    m.const_int(1, 6000);
    m.const_int(2, 1);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.if_zero(CmpKind::Le, 1, done);
    m.invoke_virtual(MethodRef::new("com.bench.Worker", "bump", "()V"), vec![0]);
    m.binop(dydroid_dex::BinOp::Sub, 1, 1, 2);
    m.goto(head);
    m.bind(done);
    m.ret_void();
    b.build()
}

/// Field churn: eight-field object, hot loop reads/writes the *last*
/// declared field — the worst case for the heap's linear field scan.
fn workload_fields() -> DexFile {
    let mut b = DexBuilder::new();
    let c = b.class(ENTRY_CLASS, "java.lang.Object");
    let m = c.method(ENTRY, "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(8);
    m.new_instance(0, ENTRY_CLASS);
    // Populate eight fields so `f7` sits at the end of the slot table.
    for i in 0..8 {
        m.const_int(1, i);
        m.iput(1, 0, FieldRef::new(ENTRY_CLASS, format!("f{i}"), "I"));
    }
    m.const_int(2, 5000);
    m.const_int(3, 1);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.if_zero(CmpKind::Le, 2, done);
    m.iget(4, 0, FieldRef::new(ENTRY_CLASS, "f7", "I"));
    m.binop(dydroid_dex::BinOp::Add, 4, 4, 3);
    m.iput(4, 0, FieldRef::new(ENTRY_CLASS, "f7", "I"));
    m.binop(dydroid_dex::BinOp::Sub, 2, 2, 3);
    m.goto(head);
    m.bind(done);
    m.ret_void();
    b.build()
}

/// Mixed: statics, a virtual call and arithmetic per iteration —
/// the shape of real app glue code.
fn workload_mixed() -> DexFile {
    let mut b = DexBuilder::new();
    add_worker(&mut b);
    let c = b.class(ENTRY_CLASS, "java.lang.Object");
    let m = c.method(ENTRY, "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(8);
    m.new_instance(0, "com.bench.Worker");
    m.const_int(1, 4000);
    m.const_int(2, 1);
    m.const_int(3, 0);
    m.sput(3, FieldRef::new("com.bench.G", "total", "I"));
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.if_zero(CmpKind::Le, 1, done);
    m.invoke_virtual(MethodRef::new("com.bench.Worker", "bump", "()V"), vec![0]);
    m.sget(4, FieldRef::new("com.bench.G", "total", "I"));
    m.binop(dydroid_dex::BinOp::Add, 4, 4, 1);
    m.sput(4, FieldRef::new("com.bench.G", "total", "I"));
    m.binop(dydroid_dex::BinOp::Sub, 1, 1, 2);
    m.goto(head);
    m.bind(done);
    m.ret_void();
    b.build()
}

/// Pure register arithmetic — the floor: no names, no dispatch.
fn workload_arith() -> DexFile {
    let mut b = DexBuilder::new();
    let c = b.class(ENTRY_CLASS, "java.lang.Object");
    let m = c.method(ENTRY, "()V", AccessFlags::PUBLIC | AccessFlags::STATIC);
    m.registers(8);
    m.const_int(0, 0); // acc
    m.const_int(1, 15000); // i
    m.const_int(2, 1);
    m.const_int(3, 3);
    let head = m.label();
    let done = m.label();
    m.bind(head);
    m.if_zero(CmpKind::Le, 1, done);
    m.binop(dydroid_dex::BinOp::Mul, 4, 1, 3);
    m.binop(dydroid_dex::BinOp::Add, 0, 0, 4);
    m.binop(dydroid_dex::BinOp::Sub, 1, 1, 2);
    m.goto(head);
    m.bind(done);
    m.ret_void();
    b.build()
}

fn workloads() -> Vec<(&'static str, DexFile)> {
    vec![
        ("calls", workload_calls()),
        ("fields", workload_fields()),
        ("mixed", workload_mixed()),
        ("arith", workload_arith()),
    ]
}

struct Measured {
    /// Per-sample instructions/second.
    samples_ips: Vec<f64>,
    total_instructions: u64,
    total_secs: f64,
}

/// Runs one workload: a persistent process executes the entry `iters`
/// times per sample (resetting the heap between entries so the arena
/// and register pool are exercised in steady state), `warmup`
/// unrecorded rounds first.
fn measure(classes: &DexFile, common: &CommonArgs, iters: usize) -> Measured {
    let mut device = Device::new(DeviceConfig {
        instrumented: false,
        ..DeviceConfig::default()
    });
    let manifest = Manifest::new(PKG);
    let mut proc = Process::new(PKG.to_string(), classes.clone(), &manifest);
    let run_round = |proc: &mut Process, device: &mut Device| {
        for _ in 0..iters {
            proc.heap.reset();
            if !proc.run_entry(device, ENTRY_CLASS, ENTRY) {
                eprintln!("avmbench: FAIL — workload crashed");
                std::process::exit(EXIT_FINDING);
            }
        }
    };
    for _ in 0..common.warmup {
        run_round(&mut proc, &mut device);
    }
    let before_all = device.instructions_retired();
    let mut samples_ips = Vec::with_capacity(common.samples);
    let mut total_secs = 0.0;
    for _ in 0..common.samples {
        let before = device.instructions_retired();
        let t0 = Instant::now();
        run_round(&mut proc, &mut device);
        let secs = t0.elapsed().as_secs_f64();
        let insns = device.instructions_retired() - before;
        total_secs += secs;
        samples_ips.push(if secs > 0.0 { insns as f64 / secs } else { 0.0 });
    }
    Measured {
        samples_ips,
        total_instructions: device.instructions_retired() - before_all,
        total_secs,
    }
}

fn main() {
    let mut parser = ArgParser::new(USAGE);
    let mut common = CommonArgs::for_bench("BENCH_avm.json", 10, 3);
    common.scale = 0.0;
    common.seed = 0;
    let mut iters = 5usize;
    while let Some(arg) = parser.next() {
        if common.accept(&arg, &mut parser) {
            continue;
        }
        match arg.as_str() {
            "--iters" => iters = parser.value("--iters", "an integer"),
            other => parser.fail(&format!("unknown argument {other:?}")),
        }
    }
    if let Some((gate, _)) = common.gates.first() {
        parser.fail(&format!("avmbench has no --min-{gate} gate"));
    }

    // The iteration count shapes the instruction-retirement identity, so
    // it belongs in the workload string: records at different --iters
    // are a shape mismatch and their Steady metrics must not gate.
    let workload = format!("interp-i{iters}");
    let mut record = Measurement::new("avm", &workload, common.scale, common.seed);
    record.samples = common.samples;
    record.warmup = common.warmup;

    let mut per_workload = Vec::new();
    let mut total_insns = 0u64;
    let mut total_secs = 0.0f64;

    for (name, classes) in workloads() {
        let m = measure(&classes, &common, iters);
        let median = Stats::from_samples(&m.samples_ips).median;
        eprintln!(
            "avmbench: {name:<8} {median:>12.0} ips, {} instructions",
            m.total_instructions
        );
        total_insns += m.total_instructions;
        total_secs += m.total_secs;
        record.push_metric(
            &format!("{name}_ips"),
            "instructions/sec",
            Direction::Higher,
            false,
            m.samples_ips.clone(),
        );
        per_workload.push(serde_json::json!({
            "workload": name,
            "samples_ips": m.samples_ips,
            "median_ips": median,
            "instructions": m.total_instructions,
            "wall_secs": m.total_secs,
        }));
    }

    let aggregate = total_insns as f64 / total_secs.max(f64::MIN_POSITIVE);
    eprintln!("avmbench: aggregate {aggregate:.0} ips");
    record.push_metric(
        "aggregate_ips",
        "instructions/sec",
        Direction::Higher,
        false,
        vec![aggregate],
    );
    // Deterministic identity: the interpreter must retire exactly this
    // many instructions for the fixed workloads, on any machine.
    record.push_metric(
        "instructions_retired",
        "count",
        Direction::Steady,
        true,
        vec![total_insns as f64],
    );
    record.counter("avm.instructions_retired", total_insns);

    record.payload = serde_json::json!({
        "iters_per_sample": iters,
        "workloads": per_workload,
    });

    record
        .write_pretty(&common.out)
        .expect("write bench output");
    eprintln!("avmbench: wrote {}", common.out);
    common.append_history("avmbench", &record);
}
