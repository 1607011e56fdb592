#!/usr/bin/env python3
"""Layer-timed benchmark of ebvpart: one workload per call.

    python3 perfbench/run.py --workload pl-partition --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The script builds the program and
the benchmark driver from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), generates the workload's inputs from --seed with the freshly
built `ebvpart generate` / `ebvpart partition` before any timer starts,
runs the workload and checks its outputs. It prints a human-readable report
and, as its last line, one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from a run that also records
spans around every timed call. Scratch and spill files live under
.bench_work/ and are removed on exit; a stamped record of every run
(host, compiler, build type, source digest, raw samples, spans) is written
to .bench_out/. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = ROOT / "perfbench"
WORK_ROOT = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

PL = {"vertices": 400_000, "edges": 4_000_000, "eta": 2.3, "parts": 64}
ROAD = {"side": 300, "parts": 32}
SERVE_WORKERS = 2
SERVE_CONNECTIONS = 2
SERVE_SPAWNS = 3  # daemon start-ups per run; setup_s is their median
# Idle seconds before a serve run prepares anything. Started right after a
# CPU-heavy run, the closed loop measured ~0.41 s per 1000 requests instead
# of ~0.25 s for the whole window, while 5 s of idle first gave the normal
# figure: the wakeup-bound loop inherits state the previous run leaves.
SERVE_SETTLE_S = 5
NEIGHBOR_LIMIT = 65536

WORKLOADS = ("pl-partition", "pl-pagerank", "road-sssp-spill", "serve-lookups")

E2E = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("replication_factor", "ratio"),
    ("edge_imbalance", "ratio"),
    ("vertex_imbalance", "ratio"),
]

# Named in the untraced report but not gated: not every workload has them.
REPORTED_UNTRACED = ("bsp.messages", "bsp.message_imbalance", "bsp.sim_exec_s",
                     "serve.req_per_s", "serve.p50_ms", "serve.p99_ms",
                     "serve.samples")

PHASES = ("compute", "route", "merge", "broadcast", "install", "load",
          "release")
SERVE_OPS = ("degree", "neighbors", "replicas", "partition")
SERVE_CLASSES = ("degree", "neighbors", "lookup")
SELF_LAYERS = ("harness", "graph", "partition", "bsp", "analysis", "serve")

PER_LAYER = (
    [("graph.validate_s", "s"),
     ("partition.edge_order_s", "s"),
     ("partition.score_s", "s"),
     ("partition.cpu_per_wall", "ratio"),
     ("partition.metrics_s", "s"),
     ("bsp.read_partition_s", "s"),
     ("bsp.distribute_s", "s"),
     ("bsp.spill_mb", "MB"),
     ("bsp.run_s", "s"),
     ("bsp.supersteps", "count"),
     ("bsp.superstep_ms", "ms"),
     ("bsp.messages_per_s", "1/s"),
     ("bsp.cpu_per_wall", "ratio")]
    + [(f"bsp.phase.{p}_s", "s") for p in PHASES]
    + [("bsp.messages", "count"),
       ("bsp.message_imbalance", "ratio"),
       ("bsp.sim_exec_s", "s"),
       ("analysis.render_s", "s")]
    + [(f"serve.{op}.{q}_ms", "ms") for op in SERVE_OPS for q in ("p50", "p99")]
    + [("serve.req_per_s", "1/s"),
       ("serve.p50_ms", "ms"),
       ("serve.p99_ms", "ms"),
       ("serve.samples", "count")]
    + [(f"serve.queue_wait.{c}.p50_ms", "ms") for c in SERVE_CLASSES]
    + [(f"serve.handler.{c}.p50_ms", "ms") for c in SERVE_CLASSES]
    + [("serve.overloaded", "count")]
    + [(f"{layer}.self_s", "s") for layer in SELF_LAYERS]
    + [("trace.overhead_s", "s"),
       ("trace.coverage", "ratio")]
)


class BenchError(Exception):
    """A failure that leaves no result: the command exits non-zero."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# Build and stamp.


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configure + build ebvpart and perfbench_driver; returns their paths."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    steps = []
    if not (out / "Makefile").exists():  # also retries a failed configure
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target",
                  "ebvpart", "perfbench_driver"])
    with open(logfile, "a") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = logfile.read_text(errors="replace").splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return out / "ebv" / "ebvpart", out / "perfbench_driver"


def source_digest():
    """sha256 over the program sources (the checkout is not a git repo)."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools"):
        paths += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def fs_type(path):
    """Filesystem type of `path` from /proc/mounts (longest mount prefix)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def stamp(driver, work):
    info = json.loads(subprocess.run([str(driver), "stamp"], check=True,
                                     capture_output=True,
                                     text=True).stdout.splitlines()[-1])
    info["nproc"] = len(os.sched_getaffinity(0))
    info["git_sha"] = git_sha()
    info["source_sha256"] = source_digest()
    info["work_fs"] = fs_type(work.resolve())
    return info


# ---------------------------------------------------------------------------
# Inputs (prepared before any timer).


def run_quiet(cmd, cwd):
    res = subprocess.run([str(c) for c in cmd], cwd=cwd, capture_output=True,
                         text=True)
    if res.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} failed:\n{res.stderr}")
    return res.stdout


def prepare_pl(ebvpart, work, seed):
    run_quiet([ebvpart, "generate", "--family", "powerlaw",
               "--vertices", PL["vertices"], "--edges", PL["edges"],
               "--eta", PL["eta"], "--seed", seed, "--out", "pl.ebvs"], work)
    run_quiet([ebvpart, "partition", "--mmap", "pl.ebvs", "--algo", "ebv",
               "--parts", PL["parts"], "--threads", 1, "--out", "pl.ebvp"],
              work)
    os.sync()  # so writeback of the inputs does not overlap the timers
    return "pl.ebvs", "pl.ebvp"


def prepare_road(ebvpart, work, seed):
    run_quiet([ebvpart, "generate", "--family", "road", "--side",
               ROAD["side"], "--seed", seed, "--out", "road.ebvs"], work)
    run_quiet([ebvpart, "partition", "--mmap", "road.ebvs", "--algo", "ebv",
               "--parts", ROAD["parts"], "--threads", 1, "--out",
               "road.ebvp"], work)
    os.sync()
    return "road.ebvs", "road.ebvp"


def run_driver(driver, args, work):
    res = subprocess.run([str(driver)] + [str(a) for a in args], cwd=work,
                         capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"driver {args[0]} printed nothing "
                         f"(exit {res.returncode}):\n{res.stderr}")
    data = json.loads(lines[-1])
    data["exit_code"] = res.returncode
    if res.stderr.strip():
        log(res.stderr.strip())
    return data


# ---------------------------------------------------------------------------
# Spans -> self time per layer, coverage.


def layer_of(name):
    head = name.split(".", 1)[0]
    return "harness" if head in ("setup", "job") else head


def analyse_spans(spans):
    """Self time per layer over the setup/job span trees (a span's duration
    minus its children's), and the share of setup+job that the direct
    children of those roots cover. Spans are [name, start, end, parent]."""
    children = {}
    for i, (_, start, end, parent) in enumerate(spans):
        children.setdefault(parent, []).append(end - start)
    in_tree = []
    for name, _, _, parent in spans:
        in_tree.append(name in ("setup", "job") or
                       (parent >= 0 and in_tree[parent]))
    self_s = {layer: 0.0 for layer in SELF_LAYERS}
    covered = total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if not in_tree[i]:
            continue
        child_s = sum(children.get(i, []))
        self_s[layer_of(name)] += (end - start) - child_s
        if parent < 0:
            total += end - start
            covered += child_s
    return self_s, (covered / total if total > 0 else 0.0)


# ---------------------------------------------------------------------------
# Workloads.


def batch_result(data, trace):
    """Shared metrics of the three batch workloads."""
    q = data["quality"]
    e2e = {
        "setup_s": median(data["setup_s"]),
        "job_s": median(data["job_s"]),
        "cpu_s": median(data["cpu_s"]),
        "peak_rss_mb": data["peak_rss_mb"],
        "replication_factor": q["replication_factor"],
        "edge_imbalance": q["edge_imbalance"],
        "vertex_imbalance": q["vertex_imbalance"],
    }
    samples = {"setup_s": len(data["setup_s"]), "job_s": len(data["job_s"]),
               "cpu_s": len(data["cpu_s"])}
    layers = {}
    if trace:
        reps = data["layers"]
        for key in reps[0]:
            layers[key] = median([r[key] for r in reps])
        self_s, coverage = analyse_spans(data["spans"])
        for layer, value in self_s.items():
            layers[f"{layer}.self_s"] = value / len(reps)
        layers["trace.coverage"] = coverage
        layers["trace.overhead_s"] = (median(data["traced_total_s"]) -
                                      median(data["untraced_total_s"]))
    if "bsp" in data:
        b = data["bsp"]
        layers.update({"bsp.messages": b["messages"],
                       "bsp.message_imbalance": b["message_imbalance"],
                       "bsp.sim_exec_s": b["sim_exec_s"]})
        if "bsp.supersteps" not in layers:
            layers["bsp.supersteps"] = b["supersteps"]
    return e2e, samples, layers


def workload_partition(ebvpart, driver, work, seed, seconds, trace):
    snap, ebvp = prepare_pl(ebvpart, work, seed)
    data = run_driver(driver, ["partition", "--snapshot", snap, "--reference",
                               ebvp, "--parts", PL["parts"], "--threads", 4,
                               "--seconds", seconds, "--trace", int(trace)],
                      work)
    return data, batch_result(data, trace)


def workload_pagerank(ebvpart, driver, work, seed, seconds, trace):
    snap, ebvp = prepare_pl(ebvpart, work, seed)
    # One thread: at 4 threads job_s followed the host's scheduling. Over
    # 10 seeds its middle-half spread was 0.21 and 0.36 of the median in two
    # sets, while cpu_s stayed within its bound; at 1 thread it was 0.096.
    data = run_driver(driver, ["run", "--app", "pr", "--snapshot", snap,
                               "--partition", ebvp, "--threads", 1,
                               "--seconds", seconds, "--trace", int(trace)],
                      work)
    return data, batch_result(data, trace)


def workload_road(ebvpart, driver, work, seed, seconds, trace):
    snap, ebvp = prepare_road(ebvpart, work, seed)
    (work / "spill").mkdir()
    # One thread: at 2 threads the ~250 short supersteps park and wake
    # ranks so often that wall time followed the VM's wakeup latency
    # (medians 3.40-4.63 s, CPU steady) while 1 thread held 5.99-6.05 s.
    data = run_driver(driver, ["run", "--app", "sssp", "--snapshot", snap,
                               "--partition", ebvp, "--threads", 1,
                               "--resident-workers", 4, "--spill-dir",
                               "spill", "--seconds", seconds, "--trace",
                               int(trace)], work)
    return data, batch_result(data, trace)


class Daemon:
    """`ebvpart serve` child; ready when it prints its `serving` line."""

    def __init__(self, ebvpart, work, snap, ebvp):
        self.stderr = open(work / "serve.stderr", "ab")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [str(ebvpart), "serve", "--mmap", snap, "--partition", ebvp,
             "--workers", str(SERVE_WORKERS), "--socket", "serve.sock",
             "--neighbor-limit", str(NEIGHBOR_LIMIT)],
            cwd=work, stdout=subprocess.PIPE, stderr=self.stderr)
        line = self.proc.stdout.readline().decode(errors="replace")
        self.setup_s = time.monotonic() - t0
        self.start, self.ready = t0, t0 + self.setup_s
        match = re.search(r"\(pid (\d+)\)", line)
        if not line.startswith("serving") or not match:
            self.stop()
            raise BenchError(f"serve did not start: {line!r}")
        self.pid = int(match.group(1))

    def stop(self):
        """SIGTERM drain; returns the drain report (stdout after `serving`)."""
        report = ""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            report = self.proc.communicate(timeout=60)[0].decode(
                errors="replace")
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.stderr.close()
        return report


def parse_duration_ms(text):
    value, unit = text.split()
    scale = {"us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
    return float(value) * scale


def parse_metrics_text(text):
    """Per-class queue-wait/handler p50 and the overloaded column sum from
    the live EBVQ metrics report. The degree queue high-water gauge is not
    read: under concurrent load it can underflow (a daemon bug)."""
    out = {}
    for kind, key in (("queue-wait-ms", "queue_wait"),
                      ("handler-ms", "handler")):
        for cls in SERVE_CLASSES:
            m = re.search(rf"serve\.{kind}\.{cls}\s*\|\s*n=([\d,]+) "
                          rf"p50=([\d.]+ (?:us|ms|s))", text)
            out[f"serve.{key}.{cls}.p50_ms"] = (
                parse_duration_ms(m.group(2)) if m else 0.0)
    overloaded = 0
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) >= 4 and cells[0] in ("stats", "degree", "neighbors",
                                            "lookup", "run"):
            overloaded += int(cells[3].replace(",", ""))
    out["serve.overloaded"] = overloaded
    return out


def serve_window(driver, work, snap, ebvp, daemon, seed, seconds, trace):
    return run_driver(driver, [
        "serve-client", "--socket", "serve.sock", "--daemon-pid",
        daemon.pid, "--snapshot", snap, "--partition", ebvp, "--connections",
        SERVE_CONNECTIONS, "--seconds", seconds, "--seed", seed,
        "--neighbor-limit", NEIGHBOR_LIMIT, "--trace", int(trace)], work)


def workload_serve(ebvpart, driver, work, seed, seconds, trace):
    time.sleep(SERVE_SETTLE_S)
    snap, ebvp = prepare_pl(ebvpart, work, seed)
    setups = []
    daemon = None
    try:
        for _ in range(SERVE_SPAWNS - 1):
            d = Daemon(ebvpart, work, snap, ebvp)
            setups.append(d.setup_s)
            d.stop()
        daemon = Daemon(ebvpart, work, snap, ebvp)
        setups.append(daemon.setup_s)
        untraced = None
        if trace:
            untraced = serve_window(driver, work, snap, ebvp, daemon, seed,
                                    seconds, False)
        data = serve_window(driver, work, snap, ebvp, daemon, seed, seconds,
                            trace)
    finally:
        report = daemon.stop() if daemon else ""
    if daemon.proc.returncode != 0:
        raise BenchError(f"serve exited {daemon.proc.returncode} on drain")

    completed = sum(len(v) for v in data["latency_ms"].values())
    all_lat = [x for v in data["latency_ms"].values() for x in v]
    per_k = 1000.0 / completed if completed else float("inf")
    q = data["quality"]
    e2e = {
        "setup_s": median(setups),
        "job_s": data["window_s"] * per_k,
        "cpu_s": data["daemon_cpu_s"] * per_k,
        "peak_rss_mb": data["daemon_peak_rss_mb"],
        "replication_factor": q["replication_factor"],
        "edge_imbalance": q["edge_imbalance"],
        "vertex_imbalance": q["vertex_imbalance"],
    }
    samples = {"setup_s": len(setups), "job_s": completed,
               "cpu_s": completed}
    layers = {
        "serve.req_per_s": completed / data["window_s"],
        "serve.p50_ms": percentile(all_lat, 50),
        "serve.p99_ms": percentile(all_lat, 99),
        "serve.samples": completed,
    }
    for op in SERVE_OPS:
        layers[f"serve.{op}.p50_ms"] = percentile(data["latency_ms"][op], 50)
        layers[f"serve.{op}.p99_ms"] = percentile(data["latency_ms"][op], 99)
    layers.update(parse_metrics_text(data["metrics_text"]))
    data["setup_samples_s"] = setups
    data["latency_ms"] = {op: len(v) for op, v in data["latency_ms"].items()}
    data["drain_report"] = report
    if trace:
        # Request spans are the children of one span per connection.
        busy = sum(end - start for _, start, end, parent in data["spans"]
                   if parent >= 0)
        window = SERVE_CONNECTIONS * data["window_s"]
        layers["serve.self_s"] = busy
        layers["harness.self_s"] = window - busy
        layers["trace.coverage"] = busy / window
        u_completed = sum(len(v) for v in untraced["latency_ms"].values())
        layers["trace.overhead_s"] = (
            e2e["job_s"] - untraced["window_s"] * 1000.0 / u_completed)
        data["untraced_window"] = {k: untraced[k] for k in
                                   ("window_s", "attempted", "failed")}
        data["attempted"] += untraced["attempted"]
        data["failed"] += untraced["failed"]
        data["checks"] += [dict(c, name="untraced_window." + c["name"])
                           for c in untraced["checks"]]
    return data, (e2e, samples, layers)


RUNNERS = {
    "pl-partition": workload_partition,
    "pl-pagerank": workload_pagerank,
    "road-sssp-spill": workload_road,
    "serve-lookups": workload_serve,
}


# ---------------------------------------------------------------------------
# Report.


def load_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(workload, seed, info, e2e, samples, layers, data, trace,
                 coverage_ok):
    print(f"# perfbench {workload} seed={seed} trace={int(trace)}")
    print("# host: " + " ".join(f"{k}={v}" for k, v in info.items()))
    attempted, failed = data["attempted"], data["failed"]
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations failed or refused)")
    if "transport_errors" in data and failed:
        print(f"# serve: {data['overloaded']} overloaded, "
              f"{data['transport_errors']} transport errors; first error: "
              f"{data['first_error']}")
    for check in data["checks"]:
        print(f"# check {check['name']}: {'ok' if check['ok'] else 'FAILED'}"
              f" - {check['detail']}")
    if not trace:
        print("# end-to-end metric          value        unit   samples")
        for name, unit in E2E:
            n = samples.get(name, 1)
            print(f"  {name:<24} {fmt(e2e[name]):>12} {unit:<6} {n}")
        for name, unit in PER_LAYER:
            if name in REPORTED_UNTRACED and name in layers:
                print(f"  {name:<24} {fmt(layers[name]):>12} {unit}")
        return
    print("# per-layer metric                      value        unit")
    for name, unit in PER_LAYER:
        print(f"  {name:<36} {fmt(layers.get(name, 0.0)):>12} {unit}")
    print(f"# tracing overhead (traced - untraced setup+job): "
          f"{fmt(layers.get('trace.overhead_s', 0.0))} s; span coverage of "
          f"setup+job {fmt(layers.get('trace.coverage', 0.0))} "
          f"({'ok' if coverage_ok else 'BELOW BOUND'})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = args.trace == 1

    bounds = load_bounds()
    ebvpart, driver = build()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        info = stamp(driver, work)
        data, (e2e, samples, layers) = RUNNERS[args.workload](
            ebvpart, driver, work, args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    coverage_ok = True
    if trace:
        coverage_ok = layers.get("trace.coverage", 0.0) >= 1.0 - bounds["job_s"]
        data["checks"].append({
            "name": "spans_cover_setup_and_job", "ok": coverage_ok,
            "detail": f"coverage {layers.get('trace.coverage', 0.0):.4f}, "
                      f"needs >= {1.0 - bounds['job_s']:.2f}"})
    correct = (all(c["ok"] for c in data["checks"]) and
               data["exit_code"] == 0 and data["failed"] == 0)
    if trace:
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E}

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": trace, "host": info,
              "end_to_end": e2e, "samples": samples, "layers": layers,
              "correct": correct, "raw": data}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record))

    print_report(args.workload, args.seed, info, e2e, samples, layers, data,
                 trace, coverage_ok)
    print(json.dumps({"correct": correct,
                      "attempted": int(data["attempted"]),
                      "failed": int(data["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        log(f"perfbench: {err}")
        sys.exit(2)
