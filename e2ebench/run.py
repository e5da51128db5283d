#!/usr/bin/env python3
"""End-to-end sweep benchmark of the DyDroid pipeline.

    python3 e2ebench/run.py --workload journaled|in-memory|resume \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Builds `e2ebench` (the Rust package
beside this file) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then:

- `--trace 0` runs three fresh-process steps, each of which sets up the
  workload once and repeats its timed call for a third of `--seconds`,
  and reports the end-to-end metrics over all of them;
- `--trace 1` runs the workload once more and replays it on one thread
  under the benchmark's own spans, reporting the per-layer metrics.

Metric names and units come from BENCHMARK.json. Human-readable lines
go first; the last line of standard output is the result as one JSON
object. All files are written under `.bench_work/` in the checkout; each
step keeps its stream files on a private tmpfs mounted there (see
`TMPFS_SCRIPT`).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The committed report digests, which the binary compiles in, also fix
# the corpus scale of every workload and the default seed (the one
# `tables` uses).
with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as _f:
    DEFAULT_SEED = json.load(_f)["default_seed"]
# The resume workload's crash point, as a share of a full sweep's writes.
CRASH_SHARE = 0.9
# Fresh-process steps per timed run: each sets up once (so `setup_s` is
# a median of three) and then repeats its timed call for its share of
# `--seconds`.
STEPS = 3
STEP_TIMEOUT_S = 120.0
BUILD_TIMEOUT_S = 850.0
MB = 1024.0 * 1024.0
WORKLOADS = ("journaled", "in-memory", "resume")

# Each step runs in a private mount namespace with a tmpfs at
# `<step work>/streams`, where the binary keeps every stream file. The
# streams fsync every 32 records (183 times on the journal alone per
# journaled sweep). On the reference machine's virtio disk, shared with
# other VMs (see README.md), those fsyncs made the same sweep take 1.4 s
# in one minute and 3.5 s in the next: the disk measured the neighbours,
# not the program. On tmpfs the syncs
# are still made and counted (`durable.syncs`). The mount is seen only
# by the step's process, lives exactly as long as it, and its path is
# inside the checkout. Where it cannot be made, steps write to the
# checkout's own filesystem; the fingerprint's `journal_fs` says which.
TMPFS_SCRIPT = 'mount -t tmpfs -o size=512m e2ebench "$1" && shift && exec "$@"'


def tmpfs_wrapper(work):
    return ["unshare", "--mount", "--propagation", "private",
            "sh", "-c", TMPFS_SCRIPT, "sh", os.path.join(work, "streams")]


def tmpfs_works(work):
    """Whether a step in `work` can have its private tmpfs."""
    probe = os.path.join(work, "probe")
    os.makedirs(os.path.join(probe, "streams"))
    try:
        done = subprocess.run(tmpfs_wrapper(probe) + ["true"], cwd=ROOT,
                              capture_output=True, timeout=30)
        ok = done.returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    shutil.rmtree(probe, ignore_errors=True)
    return ok


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary; returns its path."""
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the repository's crates are missing; run from a full checkout")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "e2ebench")


def step(binary, args, work, tmpfs, timeout=STEP_TIMEOUT_S):
    """Runs one e2ebench step in a fresh process, on its own tmpfs if
    `tmpfs`, and returns its JSON result.

    `unshare` and `sh` exec into the binary, so the process waited for is
    the binary. It is always waited for; on timeout it is killed first.
    """
    os.makedirs(os.path.join(work, "streams"), exist_ok=True)
    out_path = os.path.join(work, "stdout.json")
    wrapper = tmpfs_wrapper(work) if tmpfs else []
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(wrapper + [binary] + args + ["--work", work],
                                cwd=ROOT, stdout=out)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"step {args[0]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"step {args[0]} exited with {proc.returncode}")
    with open(out_path, encoding="utf-8") as f:
        lines = f.read().strip().splitlines()
    if not lines:
        fail(f"step {args[0]} printed no result")
    return json.loads(lines[-1])


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_files(path):
    """Files under `path`, sorted, leaving out build directories."""
    if os.path.isfile(path):
        return [path]
    files = []
    for d, dirs, fs in os.walk(path):
        dirs[:] = [x for x in dirs if x != "target" and not x.startswith(".")]
        files.extend(os.path.join(d, f) for f in fs)
    return sorted(files)


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout need not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", os.path.basename(BENCH_DIR)]
    for top in tops:
        for name in source_files(os.path.join(ROOT, top)):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(seed, result):
    return {
        "available_parallelism": result["available_parallelism"],
        "journal_fs": result["journal_fs"],
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "scale": result["scale"],
        "seed": seed,
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def crash_point(binary, common, work, tmpfs):
    """Write op at which the resume workload's interrupted sweep dies."""
    counted = step(binary, ["count-ops"] + common, os.path.join(work, "count"), tmpfs)
    shutil.rmtree(os.path.join(work, "count"), ignore_errors=True)
    return str(int(counted["ops"] * CRASH_SHARE))


def run_timed(binary, args, common, work, tmpfs):
    """Timed steps; returns (metric values, attempted, failed, correct,
    the first step's result, human-readable extras)."""
    runs = []
    for i in range(STEPS):
        it_work = os.path.join(work, f"step-{i}")
        budget = args.seconds / STEPS
        result = step(binary, ["sweep", "--seconds", str(budget)] + common,
                      it_work, tmpfs, timeout=budget + STEP_TIMEOUT_S)
        shutil.rmtree(it_work, ignore_errors=True)
        if result["peak_rss_kib"] is None:
            fail("cannot read the step's peak RSS from /proc/self/status")
        rss_kib = result["peak_rss_kib"]
        runs.append(result)
        print(f"step {i + 1}: setup {result['setup_s']:.3f} s, timed calls "
              f"{' '.join(f'{s:.3f}' for s in result['sweep_s'])} s, "
              f"rss {rss_kib / 1024:.1f} MiB, disk {result['disk_bytes'] / MB:.3f} MiB",
              file=sys.stderr)
    digests = {json.dumps(r["check"]["digest"], sort_keys=True) for r in runs}
    correct = all(r["correct"] for r in runs) and len(digests) == 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    med = lambda key: statistics.median(key(r) for r in runs)
    timed_apps = sum(r["apps"] * len(r["sweep_s"]) for r in runs)
    timed_s = sum(sum(r["sweep_s"]) for r in runs)
    metrics = {
        "setup_s": med(lambda r: r["setup_s"]),
        # Throughput over every timed call of the run. The host's speed
        # drifts in phases of tens of seconds and more (see README.md);
        # the pooled rate averages the phases a run spans, where the
        # median of a few calls jumps between them.
        "apps_per_s": timed_apps / timed_s,
        # The mean of the steps' peaks. One process's peak is bimodal
        # (journaled: about 63.5 or 66.3 MiB, by thread timing; resume:
        # about 83 or 86 MiB), so the median or the largest of three
        # steps flips between the modes from run to run.
        "peak_rss_mb": statistics.mean(r["peak_rss_kib"] for r in runs) / 1024.0,
        "disk_mb": med(lambda r: r["disk_bytes"] / MB),
    }
    extras = {
        "steps": len(runs),
        "timed_calls": sum(len(r["sweep_s"]) for r in runs),
        "failed_share": failed / attempted,
        "fsyncs": med(lambda r: r["fsyncs"]),
        "recovered_records": med(lambda r: r["recovered"]),
        "digest_check": sorted({r["check"]["digest_check"] for r in runs}),
        "report_digest": runs[0]["check"]["digest"],
    }
    return metrics, attempted, failed, correct, runs[0], extras


def measure(args, binary, work):
    """Runs the workload in `work`; prints the fingerprint and the extras,
    and returns (metric values, attempted, failed, correct)."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    tmpfs = tmpfs_works(work)
    if not tmpfs:
        print("e2ebench: cannot mount a private tmpfs; streams go to the "
              "checkout's filesystem", file=sys.stderr)
    if args.workload == "resume":
        common += ["--crash-at", crash_point(binary, common, work, tmpfs)]

    if args.trace == 1:
        result = step(binary, ["trace"] + common, os.path.join(work, "trace"), tmpfs)
        spans = os.path.join(ROOT, ".bench_work", f"spans-{args.workload}-{args.seed}.jsonl")
        shutil.copyfile(os.path.join(work, "trace", "spans.jsonl"), spans)
        values = result["metrics"]
        attempted, failed, correct = result["attempted"], result["failed"], result["correct"]
        extras = {k: result[k] for k in ("replayed", "replay_mismatches",
                                         "replay_report_equal", "check", "corpus_digest")}
        extras["spans"] = os.path.relpath(spans, ROOT)
    else:
        values, attempted, failed, correct, result, extras = \
            run_timed(binary, args, common, work, tmpfs)

    print(json.dumps({"fingerprint": fingerprint(args.seed, result)}))
    print(json.dumps({"workload": args.workload, **extras}))
    return values, attempted, failed, correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = declared_metrics(args.trace == 1)
    binary = build()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        values, attempted, failed, correct = measure(args, binary, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            fail(f"metric {m['name']} declared in BENCHMARK.json was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload:>10}  {m['name']:<28} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
