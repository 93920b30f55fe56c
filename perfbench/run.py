#!/usr/bin/env python3
"""connlab benchmark: build the binary, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The binary (perfbench, built from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR or .bench_build) runs the
workload closed-loop on one thread for --seconds and reports raw per-op
timings; this script turns them into metrics. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line before
it, prefixed "# meta", records the host, compiler, build type, op counts
and the steal ticks /proc/stat saw during the run.

--trace 0 reports the end-to-end metrics, measured in PROCESSES binary
processes run one after the other, each for an equal share of --seconds
(NOTE.md, "Steadiness", says why); --trace 1 reports the per-layer ones
from one process (see NOTE.md for what each metric means and which
end-to-end metric it moves).
--size, --max-ops and --expect exist for the benchmark's own tests: they
shrink a campaign, cap the op count of each process, and override the
expected fingerprint.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("fuzz-dnsproxy", "fleet", "grid")

# An untraced measurement runs this many processes one after the other, so
# its ops see as many address-space layouts (see NOTE.md, "Steadiness").
# Each process sets up once; setup_s is the mean over them.
PROCESSES = 8

# A traced run whose layer spans account for less of its traced wall time
# than this is not correct: the per-layer split would miss a layer.
MIN_SPAN_COVERAGE = 0.95

# Every process this script starts must finish inside this budget.
DEADLINE_S = 170

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "op_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "fuzz.cov_clear.self_s": "s",
    "fuzz.cov_classify.self_s": "s",
    "fuzz.cov_absorb.self_s": "s",
    "fuzz.coverage.share": "ratio",
    "fuzz.execute.self_s": "s",
    "fuzz.execute.share": "ratio",
    "fuzz.mutate.self_s": "s",
    "fuzz.corpus.self_s": "s",
    "fuzz.triage.self_s": "s",
    "fuzz.boot.self_s": "s",
    "fuzz.adds_per_exec": "ratio",
    "fuzz.crashing_execs": "count",
    "vm.steps_per_exec": "steps/exec",
    "loader.restores_per_exec": "ratio",
    "vm.superblock.hit_ratio": "ratio",
    "vm.superblock.compiles": "count",
    "vm.superblock.imports": "count",
    "mem.dirty_pages_copied": "count",
    "grid.boot.self_s": "s",
    "grid.cell.self_s": "s",
    "grid.boots_per_cell": "ratio",
    "grid.vm_steps": "count",
    "fleet.lane_boot.self_s": "s",
    "fleet.restore.self_s": "s",
    "fleet.volley_exec.self_s": "s",
    "fleet.battery.self_s": "s",
    "fleet.driver.self_s": "s",
    "fleet.restores": "count",
    "fleet.evaluations": "count",
    "fleet.restores_unread_ratio": "ratio",
    "fleet.memo_hit_ratio": "ratio",
    "trace_overhead": "ratio",
    "span_coverage": "ratio",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return os.path.join(out, "perfbench")


def steal_ticks():
    """Aggregate steal ticks from /proc/stat (0 where unavailable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except (OSError, ValueError):
        return 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_binary(cmd, deadline):
    """Runs one benchmark process to completion; returns its last JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before " + " ".join(cmd))
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, timeout=timeout)
    if result.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % result.returncode)
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing")
    return json.loads(lines[-1])


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer(raw, overhead, coverage):
    """Per-layer metrics from the per-pass medians of the additive
    quantities the traced ops report (0 where a workload lacks a layer)."""
    get = lambda name: raw.get(name, 0.0)
    execs = get("fuzz.execs")
    hits = get("vm.superblock.hits")
    restores = get("fleet.restores")
    evaluations = get("fleet.evaluations")
    values = {name: get(name) for name in PER_LAYER_UNITS}
    values.update({
        "fuzz.coverage.share": ratio(
            get("fuzz.cov_clear.self_s") + get("fuzz.cov_classify.self_s") +
            get("fuzz.cov_absorb.self_s"), get("fuzz.total_s")),
        "fuzz.execute.share": ratio(get("fuzz.execute.self_s"),
                                    get("fuzz.total_s")),
        "fuzz.adds_per_exec": ratio(get("fuzz.corpus_adds"), execs),
        "vm.steps_per_exec": ratio(get("vm.steps"), execs),
        "loader.restores_per_exec": ratio(get("loader.restores"), execs),
        "vm.superblock.hit_ratio": ratio(
            hits, hits + get("vm.superblock.fallbacks")),
        "grid.boots_per_cell": ratio(get("grid.boots"), get("grid.cells")),
        "grid.vm_steps": get("vm.steps") if get("grid.cells") else 0.0,
        "fleet.restores_unread_ratio": ratio(restores - evaluations,
                                             restores),
        "fleet.memo_hit_ratio": ratio(
            get("fleet.memo_hits"), get("fleet.memo_hits") + evaluations),
        "trace_overhead": overhead,
        "span_coverage": coverage,
    })
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=0)
    parser.add_argument("--max-ops", type=int, default=0)
    parser.add_argument("--expect", default=None)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0 or args.size < 0 or args.max_ops < 0:
        parser.error("numbers must be non-negative")

    binary = build()
    if binary is None:
        return 1
    deadline = time.monotonic() + DEADLINE_S

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--size", str(args.size)]
    if args.expect is not None:
        cmd += ["--expect", args.expect]

    steal_before = steal_ticks()
    processes = 1 if args.trace else PROCESSES
    runs = []
    for _ in range(processes):
        # Each process starts at the campaign where the previous one stopped.
        done = sum(run["attempted"] for run in runs)
        runs.append(run_binary(cmd + [
            "--seconds", "%.3f" % (args.seconds / processes),
            "--trace", str(args.trace), "--first", str(done),
            "--max-ops", str(args.max_ops)], deadline))
    steal = steal_ticks() - steal_before

    campaigns = runs[0]["campaigns"]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    # Without a pin each process takes a campaign's reference from its own
    # first run of it, so the processes must agree with each other too.
    reference = [""] * campaigns
    for run in runs:
        for i, fingerprint in enumerate(run["references"]):
            if not fingerprint:
                continue
            if not reference[i]:
                reference[i] = fingerprint
            elif fingerprint != reference[i]:
                log("perfbench: campaign %d gave %r in one process and %r "
                    "in another" % (i, fingerprint[:40], reference[i][:40]))
                failed += len(run["op_s"][i])
    failed = min(failed, attempted)
    setup_s = [run["setup_s"] for run in runs]
    correct = failed == 0 and all(run["warmup_ok"] for run in runs)
    if args.trace and runs[0]["span_coverage"] < MIN_SPAN_COVERAGE:
        log("perfbench: layer spans cover %.3f of the traced time" %
            runs[0]["span_coverage"])
        correct = False
    # An op is one pass over the campaign set; its time is the sum of each
    # campaign's mean repetition time over all processes (see NOTE.md,
    # "Steadiness").
    ops = [[t for run in runs for t in run["op_s"][i]]
           for i in range(campaigns)]
    op_s = sum(statistics.fmean(times) for times in ops)
    items_per_op = campaigns * runs[0]["items_per_campaign"]
    run = runs[0]

    if args.trace:
        traced_s = sum(statistics.fmean(times)
                       for times in run["traced_op_s"])
        values = per_layer(run["layers"], traced_s / op_s,
                           run["span_coverage"])
        units = PER_LAYER_UNITS
    else:
        values = {
            "items_per_s": items_per_op / op_s,
            "op_ms": op_s * 1e3,
            "setup_s": statistics.fmean(setup_s),
            "peak_rss_mb": statistics.median(
                r["peak_rss_kb"] for r in runs) / 1024.0,
        }
        units = END_TO_END_UNITS

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "compiler": run["compiler"],
        "build_type": run["build_type"],
        "campaigns": campaigns,
        "items_per_op": items_per_op,
        "processes": len(runs),
        "ops": sum(len(times) for times in ops),
        "traced_ops": sum(len(times) for times in run["traced_op_s"]),
        "setup_s_samples": setup_s,
        "process_mean_op_ms": [
            statistics.fmean(t for times in r["op_s"] for t in times) * 1e3
            for r in runs],
        "campaign_ms": [statistics.fmean(t) * 1e3 for t in ops],
        "op_ms_p10": sum(quantile(t, 0.1) for t in ops) * 1e3,
        "op_ms_median": sum(statistics.median(t) for t in ops) * 1e3,
        "op_ms_p90": sum(quantile(t, 0.9) for t in ops) * 1e3,
        "steal_ticks": steal,
        "pinned": run["pinned"],
        "fingerprint": reference[0][:40],
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as error:
        log("perfbench: %s" % error)
        sys.exit(1)
