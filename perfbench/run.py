#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds perfbench/ (the benchmark binary
plus the libraries under src/) as a Release build under $CARGO_TARGET_DIR
(default .bench_build), runs the workload on the single-threaded
simulator, checks the outputs, prints a human-readable report and, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an
untraced run. --trace 1 reports the per-layer metrics: it runs the workload
untraced and again with the cluster's tracer and journal on (alternating
with untraced repetitions), requires every run to reach the same
virtual-time outcome, and takes the layer counts and the replayed layer
timings from the traced run. Reports and the benchmark's
own spans go to .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
PHASES = ("t_gen", "t_trans_cl", "t_prs", "t_idx", "t_queue", "t_trans_lf",
          "t_wait_f", "t_append_f", "t_ack", "t_commit", "t_apply", "t_fsync")


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures and builds perfbench_bin (Release); returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise BenchError("no src/ under %s: run from the repository root" % root)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench_bin", "-j", jobs])
    return os.path.join(build_dir, "perfbench_bin")


def run_logged(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError("timed out: %s" % " ".join(cmd)) from e
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def run_binary(binary, workload, seed, seconds, traced, cells=None, spans=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "%.3f" % seconds, "--traced", "1" if traced else "0"]
    if cells is not None:
        cmd += ["--cells", str(cells)]
    if spans is not None:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError("timed out: %s" % " ".join(cmd)) from e
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr[-4000:])
        raise BenchError("failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(root, raw):
    commit = "unknown"
    if shutil.which("git"):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "commit": commit,
        "source_sha256": source_digest(root),
    }


def source_digest(root):
    """sha256 over src/ and perfbench/ (names and bytes), so a report names
    the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def check_cells(cells):
    """Per-cell correctness gate; returns a list of failure messages."""
    problems = []
    for i, v in enumerate(cells):
        c = v["checks"]
        if not v["bootstrapped"]:
            problems.append("cell %d: no leader at bootstrap" % i)
        if c["log_matching"]:
            problems.append("cell %d: %s" % (i, c["log_matching"]))
        if c["committed_prefixes"]:
            problems.append("cell %d: %s" % (i, c["committed_prefixes"]))
        if not c["net_consistent"]:
            problems.append("cell %d: network accounting inconsistent" % i)
        if c["strong_missing"]:
            problems.append("cell %d: %d strong-acked ids not in the committed log"
                            % (i, c["strong_missing"]))
    return problems


def host_figures(raw):
    """Per-repetition host-time figures: (committed k/s of wall, setup s,
    wall ns per committed request)."""
    reps = [r for r in raw["reps"] if r["completed"] > 0 and r["measure_wall_s"] > 0]
    if not reps:
        raise BenchError("no repetition completed a request")
    kreq = [r["completed"] / r["measure_wall_s"] / 1000 for r in reps]
    setup = [r["setup_s"] for r in raw["reps"]]
    ns_per_req = [r["measure_wall_s"] * 1e9 / r["completed"] for r in reps]
    return statistics.median(kreq), statistics.median(setup), statistics.median(ns_per_req)


def pooled_sum(cells, key):
    return sum(v[key] for v in cells)


def pct_ms(hist, q):
    return metrics.percentile(hist["cdf"], hist["max"], q) / 1e6


def end_to_end(raw):
    cells = raw["cells"]
    window_s = pooled_sum(cells, "window_ns") / 1e9
    completed = pooled_sum(cells, "completed")
    ack, commit = raw["pooled"]["ack"], raw["pooled"]["commit"]
    host_kreq, setup, _ = host_figures(raw)
    values = {
        "kops": completed / window_s / 1000,
        "ack_p50_ms": pct_ms(ack, 0.50),
        "ack_p99_ms": pct_ms(ack, 0.99),
        "commit_p50_ms": pct_ms(commit, 0.50),
        "host_kreq_s": host_kreq,
        "setup_s": setup,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }
    samples = {"ack_p50_ms": ack["count"], "ack_p99_ms": ack["count"],
               "commit_p50_ms": commit["count"]}
    return values, samples


def client_facing(raw):
    """Client-facing figures that carry no bound, pooled over every cell of
    `raw`: the commit tail (bimodal across seeds under failover) and the
    failure, availability and loss figures (zero without faults)."""
    cells = raw["cells"]
    issued = pooled_sum(cells, "issued")
    resends = pooled_sum(cells, "timeouts") + pooled_sum(cells, "retries")
    outages = [metrics.outage_slices(v["slices"], c) * v["slice_ns"] / 1e6
               for v in cells for c in v["crash_slices"]]
    weak = sum(v["checks"]["weak_acked"] for v in cells)
    lost = sum(v["checks"]["weak_lost"] for v in cells)
    return {
        "commit_p99_ms": pct_ms(raw["pooled"]["commit"], 0.99),
        "fail_ratio": resends / issued if issued else 0.0,
        "outage_ms": sum(outages) / len(outages) if outages else 0.0,
        "acked_loss_ratio": lost / weak if weak else 0.0,
    }


def per_layer(untraced, traced):
    """Layer metrics: counts and replay timings from the traced process,
    tracing overhead from its paired traced/untraced repetitions, wall time
    per request, client-facing figures and the memory baseline from the
    untraced process. Both processes run the run's first cell only."""
    v = traced["cells"][0]
    lay = traced["layers"]
    n = max(1, v["completed"])
    nodes = 3
    follower_entries = v["appended"] * (nodes - 1) / nodes
    ph = v["phases"]
    out = {}
    for p in PHASES:
        out["phase.%s_us" % p] = ph[p] / n / 1e3
    events_per_req = v["events"] / n
    msgs_per_req = v["msgs"] / n
    out.update({
        "sim.events_per_req": events_per_req,
        "sim.pending_mean": v["pending_mean"],
        "sim.step_ns": lay["step_ns"],
        "net.msgs_per_req": msgs_per_req,
        "net.bytes_per_req": v["bytes"] / n,
        "net.drop_ratio": v["dropped"] / v["msgs"] if v["msgs"] else 0.0,
        "net.send_ns": lay["send_ns"],
        "raft.entries_per_rpc": v["append_entries"] / v["append_rpcs"] if v["append_rpcs"] else 0.0,
        "raft.rpc_timeouts": v["rpc_timeouts"],
        "raft.elections": v["elections"],
        "raft.client_timeouts": v["timeouts"],
        "raft.leader_changes_seen": v["leader_changes_seen"],
        "nbraft.weak_per_req": v["weak_sent"] / n,
        "nbraft.window_inserts_per_entry":
            v["window_inserts"] / follower_entries if follower_entries else 0.0,
        "nbraft.window_overflows": v["window_overflows"],
        "nbraft.window_ns": lay["window_ns"],
        "nbraft.votelist_ns": lay["votelist_ns"],
        "storage.fsyncs_per_req": v["fsyncs"] / n,
        "storage.records_per_fsync": v["disk_records"] / v["fsyncs"] if v["fsyncs"] else 0.0,
        "storage.disk_bytes_per_req": v["disk_bytes"] / n,
        "storage.retained_mb": v["retained_bytes"] / 2**20,
        "storage.append_ns": lay["append_ns"],
        "tsdb.apply_ns": lay["apply_ns"],
        "tsdb.points_per_req": v["points"] / n,
        "harness.make_payload_ns": lay["make_payload_ns"],
    })
    _, _, wall_ns_per_req = host_figures(untraced)
    covered = {
        "sim": (lay["step_ns"], events_per_req - msgs_per_req * lay["net_events_per_msg"]),
        "net": (lay["send_ns"], msgs_per_req),
        "nbraft.window": (lay["window_ns"], follower_entries / n),
        "nbraft.votelist": (lay["votelist_ns"], v["appended"] / nodes / n),
        "storage": (lay["append_ns"], v["disk_records"] / n),
        "tsdb": (lay["apply_ns"], v["applied"] / n),
        "harness": (lay["make_payload_ns"], v["issued"] / n),
    }
    out["raft.residual_ns_per_req"] = metrics.residual_ns_per_req(wall_ns_per_req, covered)
    out.update(client_facing(untraced))
    out["obs.trace_overhead_pct"] = 100 * (median_wall(traced, True) / median_wall(traced, False) - 1)
    out["obs.trace_rss_mb"] = (traced["peak_rss_kb"] - untraced["peak_rss_kb"]) / 1024
    return out, covered, wall_ns_per_req


def median_wall(raw, traced):
    """Median measurement wall time of the traced (or untraced)
    repetitions; a traced binary run alternates the two on one cell."""
    return statistics.median(r["measure_wall_s"] for r in raw["reps"] if r["traced"] == traced)


def span_self_times(path):
    """Host seconds per span name, minus the time its child spans cover."""
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    child_ns = {}
    for s in spans.values():
        if s["parent"] >= 0:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    totals = {}
    for sid, s in spans.items():
        self_ns = s["end_ns"] - s["start_ns"] - child_ns.get(sid, 0)
        totals[s["name"]] = totals.get(s["name"], 0) + self_ns
    return {k: v / 1e9 for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def load_contract(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (path, e)) from e


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    contract = load_contract(root)
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    binary = build(root)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    problems = []
    extra = {}
    if args.trace == 0:
        raw = run_binary(binary, args.workload, args.seed, args.seconds, traced=False)
        values, samples = end_to_end(raw)
        extra = {"pooled_over_cells": client_facing(raw)}
        listed = contract["end_to_end"]
        attempted = pooled_sum(raw["cells"], "issued")
        runs = [raw]
    else:
        spans_path = os.path.join(out_dir, "spans-%s.jsonl" % tag)
        untraced = run_binary(binary, args.workload, args.seed, args.seconds / 2, traced=False,
                              cells=1)
        traced = run_binary(binary, args.workload, args.seed, args.seconds / 2, traced=True,
                            cells=1, spans=spans_path)
        if traced["cells"][0] != untraced["cells"][0]:
            problems.append("traced run diverged from the untraced run in virtual time")
        values, covered, wall_ns = per_layer(untraced, traced)
        samples = {}
        listed = contract["per_layer"]
        attempted = pooled_sum(untraced["cells"], "issued") + traced["cells"][0]["issued"]
        runs = [untraced, traced]
        raw = traced
        extra = {"residual_terms": covered, "wall_ns_per_req": wall_ns,
                 "span_self_s": span_self_times(spans_path), "spans": spans_path}

    for r in runs:
        problems += check_cells(r["cells"])
        if not r["deterministic"]:
            problems.append("a repeated cell did not reproduce its virtual-time outcome")
    prov = provenance(root, raw)

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError("metrics not computed: %s" % ", ".join(missing))
    correct = not problems
    failed = 0 if correct else attempted
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }

    with open(os.path.join(out_dir, "report-%s.json" % tag), "w") as f:
        json.dump({"provenance": prov, "problems": problems, "result": result,
                   "all_values": values, **extra}, f, indent=1, default=str)

    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for k, v in prov.items():
        print("  %-14s %s" % (k, v))
    for m in listed:
        line = "  %-34s %14.6g %s" % (m["name"], values[m["name"]], m["unit"])
        if m["name"] in samples:
            n = samples[m["name"]]
            beyond, supported = metrics.samples_beyond(
                n, 0.99 if m["name"].endswith("p99_ms") else 0.5)
            line += "   (n=%d, %d beyond)" % (n, beyond)
            if not supported:
                line += " too few samples beyond"
        print(line)
    if args.trace == 0:
        print("  pooled over every cell (reported as per-layer metrics with --trace 1):")
        for k, v in extra["pooled_over_cells"].items():
            print("    %-32s %14.6g" % (k, v))
    else:
        print("  host self time by benchmark span (traced run):")
        for name, secs in list(extra["span_self_s"].items())[:12]:
            print("    %-32s %9.3f s" % (name, secs))
    for p in problems:
        print("  CHECK FAILED: %s" % p)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(1)
