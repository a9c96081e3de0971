#!/usr/bin/env python3
"""Serving benchmark of tcrowd_serverd, end to end through Finalize.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds the repository in Release into
.bench_build (or $CARGO_TARGET_DIR), then runs as many whole iterations of
the workload as fit in S seconds: boot the daemons on kernel-assigned
loopback ports, drive the seeded arrival stream through Finalize from one
single-threaded driver process, check the result, stop and reap every
daemon. --trace 0 prints the end-to-end metrics; --trace 1 replaces the
front daemon with the traced host (timing decorators around each layer's
seam) and prints the per-layer metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)

# Later claims are checked on this seed, never used while tuning a change.
HELD_OUT_SEED = 9001

# Cold set-ups measured after each iteration on top of its own, so that the
# setup_s median rests on samples spread over the whole run.
EXTRA_SETUPS = 4

# A workload fixes its world (table, crowd, service flags, world seed); the
# command-line seed picks the arrival streams, so quality numbers vary with
# the answers drawn, not with a new table's column difficulties. Iteration k
# of a run drives stream k, and error_rate/mnad average the first
# `quality_iterations` streams: a pure function of the seed.
WORKLOADS = {
    # Closed loop, one daemon, pages of 10: admission control sheds while
    # the EM refresh over a 15k-answer history lags behind. Runnable, but not
    # one of BENCHMARK.json's workloads: its throughput follows the 2-thread
    # EM's speed, which drifts on a shared host by more than the largest
    # bound a gated metric may have (see README.md).
    "single-daemon": {
        "world": ["--rows=600", "--cols=5", "--workers=40",
                  "--policy=looping", "--engine=tcrowd", "--target=5",
                  "--seed=801"],
        "drive": ["--tasks=10", "--page=10"],
        "topology": "single",
        "quality_iterations": 2,
    },
    # Paced open loop through a router over two shard daemons with durable
    # checkpoints: five or six frames per arrival, one answer per frame,
    # about 2% retractions. 200 arrivals/s is well below the closed-loop
    # capacity of this topology (about 1400 arrivals/s on 4 CPUs).
    "router-2shard": {
        "world": ["--rows=150", "--cols=5", "--workers=40",
                  "--policy=looping", "--engine=tcrowd", "--target=3",
                  "--threads=1", "--seed=802"],
        "drive": ["--tasks=2", "--page=1", "--retract-share=0.02",
                  "--rate=200"],
        "topology": "router",
        "shards": 2,
        "quality_iterations": 3,
    },
    # Closed loop, structure-aware assignment on the restaurant stand-in:
    # leases and submits pay SelectTaskExcluding and inline policy refits.
    "structure-assign": {
        "world": ["--dataset=restaurant", "--policy=structure",
                  "--engine=tcrowd", "--target=3", "--seed=803"],
        "drive": ["--tasks=2", "--page=2"],
        "topology": "single",
        "quality_iterations": 5,
    },
}

END_TO_END = [
    ("answers_per_s", "1/s"), ("lease_p50_us", "us"), ("submit_p50_us", "us"),
    ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("error_rate", "ratio"),
    ("mnad", "ratio"),
]
# Client figures printed by every run but carried in the JSON result only by
# the traced run: on a shared virtual machine their run-to-run spread is
# wider than the largest bound a gated metric may have (see README.md). A
# p99 of these sub-millisecond requests is set by hypervisor preemption, and
# the EM fit behind Finalize runs up to twice as long while the host is busy.
UNGATED = [("lease_p99_us", "us"), ("submit_p99_us", "us"),
           ("finalize_s", "s")]

SERVICE_KINDS = ["start_session", "request_tasks", "submit_batch",
                 "end_session", "retract"]
SHARD_KINDS = SERVICE_KINDS + ["gather_log", "meters"]
# Client request kind -> the service call that serves it.
CLIENT_TO_SERVICE = {"hello": "start_session", "lease": "request_tasks",
                     "submit": "submit_batch", "retract": "retract",
                     "bye": "end_session", "finalize": "finalize"}

PER_LAYER = (
    UNGATED +
    [("simulation.driver.self_share", "ratio"),
     ("simulation.driver.late_p99_us", "us"),
     ("net.lease_self_us", "us"), ("net.submit_self_us", "us"),
     ("net.frames_per_answer", "ratio"), ("net.shed_share", "ratio"),
     ("net.write_queue_peak_bytes", "bytes")]
    + [("service.%s_%s_us" % (k, p), "us")
       for k in SERVICE_KINDS for p in ("p50", "p99")]
    + [("service.finalize_s", "s"), ("service.busy_share", "ratio")]
    + [("service.shard.%s_%s_us" % (k, p), "us")
       for k in SHARD_KINDS for p in ("p50", "p99")]
    + [("service.shard.calls_per_arrival", "ratio"),
       ("service.router.self_share", "ratio"),
       ("service.router.gather_ms", "ms"),
       ("service.router.merge_fit_s", "s"),
       ("assignment.select_p50_us", "us"), ("assignment.select_p99_us", "us"),
       ("assignment.select_calls", "count"),
       ("assignment.refresh_p50_ms", "ms"), ("assignment.refresh_max_ms", "ms"),
       ("assignment.refreshes", "count"), ("assignment.observe_p50_us", "us"),
       ("service.engine.refreshes", "count"),
       ("service.engine.refresh_ms", "ms"),
       ("service.engine.ingest_p50_us", "us"),
       ("service.engine.finalize_s", "s"),
       ("inference.em.fit_s", "s"), ("inference.em.iterations", "count"),
       ("inference.em.ms_per_iteration", "ms"),
       ("inference.em.shard_speedup", "ratio"),
       ("inference.store.seals", "count"),
       ("inference.store.compactions", "count"),
       ("inference.store.entries_indexed_per_answer", "ratio"),
       ("service.snapshot.bytes_per_answer", "bytes"),
       ("service.snapshot.files", "count"),
       ("service.snapshot.open_ms", "ms"),
       ("platform.trace.overhead_share", "ratio")]
    + [("residual.%s_share" % k, "ratio") for k in CLIENT_TO_SERVICE]
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def mix_seed(seed, salt):
    digest = hashlib.sha256(("%d:%s" % (seed, salt)).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


# --------------------------------------------------------------------------
# Build and environment.

def build(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    os.makedirs(build_root, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    with open(log_path, "a") as out:
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out, check=True, timeout=300)
        subprocess.run(["cmake", "--build", cmake_dir, "-j", "4", "--target",
                        "tcrowd_serverd", "perfbench_driver",
                        "perfbench_host"],
                       stdout=out, stderr=out, check=True, timeout=840)
    with open(os.path.join(cmake_dir, "build_info.json")) as f:
        info = json.load(f)
    if info.get("build_type") != "Release":
        raise BenchError("refusing to measure a %s build"
                         % info.get("build_type"))
    return {
        "serverd": os.path.join(cmake_dir, "tcrowd", "tools",
                                "tcrowd_serverd"),
        "driver": os.path.join(cmake_dir, "perfbench_driver"),
        "host": os.path.join(cmake_dir, "perfbench_host"),
        "info": info,
    }


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def source_revision():
    try:
        out = subprocess.run(["git", "-C", SOURCE_ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        rows = out.stdout.split()
        if out.returncode == 0 and os.path.realpath(rows[0]) == \
                os.path.realpath(SOURCE_ROOT):
            return rows[1]
    except OSError:
        pass
    # Not a git checkout: name the commit by the content of what is built.
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(SOURCE_ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, SOURCE_ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


# --------------------------------------------------------------------------
# Daemons.

class Daemons:
    """Every daemon of one iteration; stop() SIGTERMs and reaps them all and
    checks their exit status."""

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.procs = []

    def start(self, argv, name):
        err = open(os.path.join(self.run_dir, name + ".err"), "w")
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                cwd=self.run_dir)
        err.close()
        self.procs.append((name, proc))
        line = read_line(proc.stdout, 30.0)
        if " listening on " not in line:
            raise BenchError("%s did not start: %r" % (name, line))
        port = int(line.split(" listening on ")[1].split()[0].rsplit(":")[1])
        return port

    def peak_rss_mib(self):
        total_kib = 0
        for _, proc in self.procs:
            with open("/proc/%d/status" % proc.pid) as f:
                for row in f:
                    if row.startswith("VmHWM:"):
                        total_kib += int(row.split()[1])
        return total_kib / 1024.0

    def stop(self):
        bad = []
        for _, proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for name, proc in reversed(self.procs):
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            proc.stdout.close()
            if code != 0:
                bad.append("%s exited %s" % (name, code))
        self.procs = []
        return bad


def read_line(stream, timeout):
    deadline = time.monotonic() + timeout
    buf = b""
    fd = stream.fileno()
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0:
            break
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            break
        chunk = os.read(fd, 1)
        if not chunk:
            break
        buf += chunk
    return buf.decode(errors="replace")


def scrape_metrics(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        body = conn.getresponse().read().decode()
    finally:
        conn.close()
    values = {}
    for row in body.splitlines():
        if row and not row.startswith("#"):
            parts = row.split()
            if len(parts) == 2:
                try:
                    values[parts[0]] = float(parts[1])
                except ValueError:
                    pass
    return values


# --------------------------------------------------------------------------
# One iteration: boot, drive through Finalize, check, tear down.

def boot(daemons, bins, wl, world, run_dir, traced):
    """Starts the workload's daemons; returns the front port and the ports
    the set-up probe greets."""
    front_bin = bins["host"] if traced else bins["serverd"]
    extra = (["--spans-out=" + os.path.join(run_dir, "spans.json")]
             if traced else [])
    if wl["topology"] == "router":
        n = wl["shards"]
        ckpt = ["--checkpoint-dir=" + os.path.join(run_dir, "ckpt")]
        shard_ports = [
            daemons.start([bins["serverd"]] + world + ckpt +
                          ["--shard-index=%d" % i, "--shard-count=%d" % n],
                          "shard%d" % i)
            for i in range(n)]
        front = daemons.start(
            [front_bin] + world + extra +
            ["--router", "--connect-shard=" +
             ",".join("127.0.0.1:%d" % p for p in shard_ports)], "router")
        probes = shard_ports + [front]
    else:
        front = daemons.start([front_bin] + world + extra, "daemon")
        probes = [front]
    return front, probes


def run_driver(bins, argv, timeout=170):
    proc = subprocess.run([bins["driver"]] + argv, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("driver failed: " + proc.stderr.strip()[-2000:])


def setup_only(bins, wl, world, run_dir):
    os.makedirs(run_dir)
    t0 = time.monotonic_ns()
    daemons = Daemons(run_dir)
    try:
        _, probes = boot(daemons, bins, wl, world, run_dir, traced=False)
        out = os.path.join(run_dir, "probe.json")
        run_driver(bins, ["drive", "--probe-only", "--out=" + out,
                          "--setup-origin-ns=%d" % t0,
                          "--probe=" + ",".join("127.0.0.1:%d" % p
                                                for p in probes)] + world)
    finally:
        bad = daemons.stop()
    if bad:
        raise BenchError("; ".join(bad))
    with open(out) as f:
        return json.load(f)["setup_s"]


def cpu_steal_ticks():
    """Ticks the hypervisor gave this machine's CPUs to someone else."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def iteration(bins, wl, world, load_seed, run_dir, traced):
    os.makedirs(run_dir)
    steal = cpu_steal_ticks()
    t0 = time.monotonic_ns()
    daemons = Daemons(run_dir)
    out = os.path.join(run_dir, "drive.json")
    try:
        front, probes = boot(daemons, bins, wl, world, run_dir, traced)
        run_driver(bins, ["drive", "--out=" + out,
                          "--setup-origin-ns=%d" % t0,
                          "--connect=127.0.0.1:%d" % front,
                          "--probe=" + ",".join("127.0.0.1:%d" % p
                                                for p in probes),
                          "--load-seed=%d" % load_seed]
                   + (["--analyze"] if traced else []) + wl["drive"] + world)
        scraped = [scrape_metrics(p) for p in probes]
        rss = daemons.peak_rss_mib()
    finally:
        bad = daemons.stop()
    with open(out) as f:
        result = json.load(f)
    result["exit_errors"] = bad
    result["steal_s"] = (cpu_steal_ticks() - steal) / os.sysconf("SC_CLK_TCK")
    result["wall_s"] = (time.monotonic_ns() - t0) * 1e-9
    result["peak_rss_mb"] = rss
    result["front_metrics"] = scraped[-1]
    result["write_queue_peak"] = max(m.get("tcrowd_net_write_queue_peak", 0)
                                     for m in scraped)
    if traced:
        with open(os.path.join(run_dir, "spans.json")) as f:
            result["spans"] = json.load(f)
        if wl["topology"] == "router":
            result["snapshot"] = snapshot_stats(bins, wl, world, run_dir)
    return result


def snapshot_stats(bins, wl, world, run_dir):
    ckpt = os.path.join(run_dir, "ckpt")
    size = files = 0
    for d, _, fs in os.walk(ckpt):
        for f in fs:
            files += 1
            size += os.path.getsize(os.path.join(d, f))
    out = os.path.join(run_dir, "open.json")
    run_driver(bins, ["snapshot-open", "--out=" + out,
                      "--shard-count=%d" % wl["shards"],
                      "--checkpoint-dir=" + ckpt] + world)
    with open(out) as f:
        opened = json.load(f)
    return {"bytes": size, "files": files, "open_ms": max(opened["open_ms"])}


# --------------------------------------------------------------------------
# Correctness gate.

def check(results, digest_cache, cache_key):
    """Correctness problems of a run's iterations (empty when correct)."""
    problems = []
    digests = {}
    for r in results:
        if r["exit_errors"]:
            problems += r["exit_errors"]
        if r["accepted"] + r["rejected"] + r["answers_failed"] != \
                r["answers_sent"]:
            problems.append("accepted + rejected + failed != attempted")
        if r["live_answers"] != r["daemon_answers_accepted"]:
            problems.append("driver accepted %d, daemon %d" % (
                r["live_answers"], r["daemon_answers_accepted"]))
        if r["finalize_mismatches"]:
            problems.append("%d of %d Finalize calls gave another digest" % (
                r["finalize_mismatches"], len(r["finalize_s"])))
        if r["wire_digest"] != r["local_digest"]:
            problems.append("wire digest %s != in-process digest %s" % (
                r["wire_digest"], r["local_digest"]))
        # One arrival stream, one history: the traced and untraced drives of
        # a stream, and every run of this build and seed, agree.
        key = "%s:%d" % (cache_key, r["stream"])
        if digests.setdefault(key, r["wire_digest"]) != r["wire_digest"]:
            problems.append("stream %d gave digests %s and %s" % (
                r["stream"], digests[key], r["wire_digest"]))
    try:
        with open(digest_cache) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    for key, digest in digests.items():
        if known.setdefault(key, digest) != digest:
            problems.append("digest %s differs from an earlier run's %s" % (
                digest, known[key]))
    with open(digest_cache, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return problems


# --------------------------------------------------------------------------
# Metrics.

def latencies(r, kind, paced):
    return stats.due_time_latencies(r[kind + "_us"], r[kind + "_arrival"],
                                    r["lateness_us"] if paced else [])


def iteration_percentile(results, kind, q, paced):
    """Median over iterations of each iteration's q-th percentile, so that
    one iteration disturbed by a neighbour on the machine does not set the
    figure."""
    return stats.median([stats.percentile(latencies(r, kind, paced), q)
                         for r in results])


def ungated(results, paced, lines):
    """The p99 of each client request kind, with the sample counts behind
    it (every iteration should have ten samples beyond its p99), and the
    fastest Finalize of the run: a deterministic fit that neighbours on the
    host can only slow down, so the best call is the one they touched
    least."""
    values = {"finalize_s": min(min(r["finalize_s"]) for r in results)}
    for kind in ("lease", "submit"):
        counts = [len(r[kind + "_us"]) for r in results]
        beyond = [stats.samples_beyond(n, 99) for n in counts]
        lines.append("# samples %s: per iteration %s, beyond p99 %s, highest "
                     "supported percentile %s%s" % (
                         kind, counts, beyond,
                         stats.highest_supported_percentile(min(counts)),
                         "" if min(beyond) >= stats.MIN_BEYOND
                         else " (too few samples for a p99)"))
        values[kind + "_p99_us"] = iteration_percentile(results, kind, 99,
                                                        paced)
    for name, unit in UNGATED:
        lines.append("# %-46s %16.6f %s" % (name, values[name], unit))
    return values


def end_to_end(quality, results, setups, paced, lines):
    ungated(results, paced, lines)
    for kind in ("lease", "submit"):
        lines.append("# %s_p50_us per iteration: %s" % (kind, " ".join(
            "%.1f" % stats.percentile(latencies(r, kind, paced), 50)
            for r in results)))
    # Throughput rests on one measurement per iteration, and neighbours on a
    # shared host only ever slow it down, in bursts that can cover most of a
    # run; so it is the run's best (the rule timeit follows). Each p50
    # already rests on a whole iteration's requests.
    return {
        "answers_per_s": max(r["accepted"] / r["drive_s"] for r in results),
        "lease_p50_us": iteration_percentile(results, "lease", 50, paced),
        "submit_p50_us": iteration_percentile(results, "submit", 50, paced),
        "setup_s": stats.median(setups),
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in results]),
        "error_rate": sum(r["error_rate"] for r in quality) / len(quality),
        "mnad": sum(r["mnad"] for r in quality) / len(quality),
    }


def p(values, q):
    return stats.percentile(values, q) if values else 0.0


def per_layer(results, reference, paced, lines):
    m = ungated(results, paced, lines)
    med = stats.median
    m["simulation.driver.self_share"] = med(
        [1.0 - (r["driver_in_calls_s"] + r["driver_pacing_wait_s"]) /
         r["drive_s"] for r in results])
    m["simulation.driver.late_p99_us"] = p(
        [x for r in results for x in r["lateness_us"]], 99)

    # Client round trip vs the service span of the same request; the
    # front daemon's first session is the set-up probe.
    self_us = {k: [] for k in CLIENT_TO_SERVICE}
    client_sum = {k: 0.0 for k in CLIENT_TO_SERVICE}
    service_sum = {k: 0.0 for k in CLIENT_TO_SERVICE}
    for r in results:
        svc = r["spans"]["service"]
        for kind, call in CLIENT_TO_SERVICE.items():
            spans = svc.get(call, [])
            if call in ("start_session", "end_session"):
                spans = spans[1:]
            client = ([x * 1e6 for x in r["finalize_s"]]
                      if kind == "finalize" else r.get(kind + "_us", []))
            for c, s in zip(client, spans):
                self_us[kind].append(c - s)
            client_sum[kind] += sum(client)
            service_sum[kind] += sum(spans)
    m["net.lease_self_us"] = p(self_us["lease"], 50)
    m["net.submit_self_us"] = p(self_us["submit"], 50)
    for kind in CLIENT_TO_SERVICE:
        m["residual.%s_share" % kind] = (
            (client_sum[kind] - service_sum[kind]) / client_sum[kind]
            if client_sum[kind] > 0 else 0.0)
        if self_us[kind]:
            lines.append("# residual %s: client %.0f us, service %.0f us, "
                         "unattributed p50 %.1f us over %d requests" % (
                             kind, client_sum[kind], service_sum[kind],
                             p(self_us[kind], 50), len(self_us[kind])))

    front = [r["front_metrics"] for r in results]
    m["net.frames_per_answer"] = med(
        [f.get("tcrowd_net_frames_processed", 0) / r["accepted"]
         for f, r in zip(front, results)])
    m["net.shed_share"] = med(
        [f.get("tcrowd_net_retry_later_total", 0) /
         (r["submit_sends"] + r["retry_later"])
         for f, r in zip(front, results)])
    m["net.write_queue_peak_bytes"] = max(r["write_queue_peak"]
                                          for r in results)

    def spans_of(layer, kind):
        out = []
        for r in results:
            values = r["spans"][layer].get(kind, [])
            if layer == "service" and kind in ("start_session",
                                               "end_session"):
                values = values[1:]
            out += values
        return out

    for kind in SERVICE_KINDS:
        values = spans_of("service", kind)
        m["service.%s_p50_us" % kind] = p(values, 50)
        m["service.%s_p99_us" % kind] = p(values, 99)
        lines.append("# samples service.%s: n=%d" % (kind, len(values)))
    m["service.finalize_s"] = med(
        [min(r["spans"]["service"]["finalize"]) * 1e-6 for r in results])
    busy = [sum(sum(r["spans"]["service"].get(k, [])) for k in SERVICE_KINDS)
            * 1e-6 / r["drive_s"] for r in results]
    m["service.busy_share"] = med(busy)

    arrivals = sum(r["arrivals"] for r in results)
    shard_calls = 0
    for kind in SHARD_KINDS:
        values = spans_of("shard", kind)
        m["service.shard.%s_p50_us" % kind] = p(values, 50)
        m["service.shard.%s_p99_us" % kind] = p(values, 99)
        if kind != "gather_log":
            shard_calls += len(values)
    m["service.shard.calls_per_arrival"] = shard_calls / arrivals
    # Router self time over the drive: every router call but Finalize
    # against every shard call it made but the Finalize gathers.
    router_time = shard_time = 0.0
    for r in results:
        router_time += sum(sum(v) for k, v in r["spans"]["service"].items()
                           if k != "finalize")
        shard_time += sum(sum(v) for k, v in r["spans"]["shard"].items()
                          if k != "gather_log")
    m["service.router.self_share"] = (
        (router_time - shard_time) / router_time if shard_time else 0.0)
    # Per Finalize call: every call gathers the log of every shard.
    gather_ms = [sum(r["spans"]["shard"].get("gather_log", [])) * 1e-3 /
                 len(r["finalize_s"]) for r in results]
    m["service.router.gather_ms"] = med(gather_ms)
    m["service.router.merge_fit_s"] = (
        med([min(r["spans"]["service"]["finalize"]) * 1e-6 - g * 1e-3
             for r, g in zip(results, gather_ms)]) if any(gather_ms) else 0.0)

    select_us = spans_of("policy", "select")
    refresh_us = spans_of("policy", "refresh")
    m["assignment.select_p50_us"] = p(select_us, 50)
    m["assignment.select_p99_us"] = p(select_us, 99)
    m["assignment.select_calls"] = med(
        [len(r["spans"]["policy"].get("select", [])) for r in results])
    m["assignment.refresh_p50_ms"] = p(refresh_us, 50) * 1e-3
    m["assignment.refresh_max_ms"] = max(refresh_us, default=0.0) * 1e-3
    m["assignment.refreshes"] = med(
        [len(r["spans"]["policy"].get("refresh", [])) for r in results])
    m["assignment.observe_p50_us"] = p(spans_of("policy", "observe"), 50)

    m["service.engine.refreshes"] = med(
        [r["daemon_engine_refreshes"] for r in results])
    m["service.engine.refresh_ms"] = med(
        [r["engine_refresh_ms"] for r in results])
    m["service.engine.ingest_p50_us"] = p(
        [x for r in results for x in r["engine_ingest_us"]], 50)
    m["service.engine.finalize_s"] = med(
        [r["engine_finalize_s"] for r in results])
    m["inference.em.fit_s"] = med([r["em_fit_s"] for r in results])
    m["inference.em.iterations"] = med([r["em_iterations"] for r in results])
    m["inference.em.ms_per_iteration"] = med(
        [r["em_fit_s"] * 1e3 / max(1, r["em_iterations"]) for r in results])
    m["inference.em.shard_speedup"] = med(
        [r["em_fit_one_shard_s"] / r["em_fit_s"] for r in results])
    m["inference.store.seals"] = med([r["store_seals"] for r in results])
    m["inference.store.compactions"] = med(
        [r["store_compactions"] for r in results])
    m["inference.store.entries_indexed_per_answer"] = med(
        [r["store_entries_indexed"] / r["live_answers"] for r in results])

    snaps = [r["snapshot"] for r in results if "snapshot" in r]
    m["service.snapshot.bytes_per_answer"] = (
        med([s["bytes"] / r["accepted"] for s, r in zip(snaps, results)])
        if snaps else 0.0)
    m["service.snapshot.files"] = med([s["files"] for s in snaps]) \
        if snaps else 0
    m["service.snapshot.open_ms"] = med([s["open_ms"] for s in snaps]) \
        if snaps else 0.0

    # The same arrival stream (0) drives the reference and the first traced
    # iteration.
    traced_aps = results[0]["accepted"] / results[0]["drive_s"]
    untraced_aps = reference["accepted"] / reference["drive_s"]
    m["platform.trace.overhead_share"] = 1.0 - traced_aps / untraced_aps
    return m


# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    bins = build(build_root)
    wl = WORKLOADS[args.workload]
    # The daemons see only the world flags; the arrival seeds stay here.
    world = wl["world"]

    def load_seed(k):
        return mix_seed(args.seed, "arrivals-%d" % k)

    env = {"nproc": len(os.sched_getaffinity(0)),
           "build_type": bins["info"]["build_type"],
           "compiler": bins["info"]["compiler"],
           "commit": source_revision(), "workload": args.workload,
           "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
           "trace": args.trace}
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    runs_root = os.path.join(build_root, "runs")
    os.makedirs(runs_root, exist_ok=True)
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    counter = [0]

    def fresh_dir():
        counter[0] += 1
        d = os.path.join(runs_root, "%s-%d" % (tag, counter[0]))
        shutil.rmtree(d, ignore_errors=True)
        return d

    start = time.monotonic()
    setups, results, reference = [], [], None
    try:
        if args.trace:
            reference = iteration(bins, wl, world, load_seed(0), fresh_dir(),
                                  traced=False)
            reference["stream"] = 0
        # Whole iterations only: stop before one that would end past the
        # deadline (judged by the longest so far), so a run lasts about
        # --seconds.
        longest = 0.0
        while True:
            k = len(results)
            r = iteration(bins, wl, world, load_seed(k), fresh_dir(),
                          traced=bool(args.trace))
            longest = max(longest, r["wall_s"])
            r["stream"] = k
            results.append(r)
            setups.append(r["setup_s"])
            if not args.trace:
                for _ in range(EXTRA_SETUPS):
                    setups.append(setup_only(bins, wl, world, fresh_dir()))
            if (time.monotonic() + longest - start > args.seconds and
                    len(results) >= wl["quality_iterations"]):
                break
    finally:
        for d in os.listdir(runs_root):
            if d.startswith(tag):
                shutil.rmtree(os.path.join(runs_root, d), ignore_errors=True)

    checked = results + ([reference] if reference else [])
    # One history per build, workload definition, seed and stream.
    recipe = hashlib.sha256(json.dumps(wl, sort_keys=True).encode())
    problems = check(checked, os.path.join(build_root, "digests.json"),
                     "%s:%s:%d:%s" % (args.workload, recipe.hexdigest()[:12],
                                      args.seed, file_sha(bins["serverd"])))
    for problem in problems:
        log("perfbench: INCORRECT: " + problem)
    lines = ["# iterations %d, digests %s" % (
        len(results), " ".join(r["wire_digest"] for r in results)),
             "# wall time per iteration (s): %s; run %.1f" % (" ".join(
                 "%.2f" % r["wall_s"] for r in results),
                 time.monotonic() - start),
             "# cpu steal per iteration (s): %s" % " ".join(
                 "%.2f" % r["steal_s"] for r in results),
             "# answers_per_s per iteration: %s" % " ".join(
                 "%.0f" % (r["accepted"] / r["drive_s"]) for r in results),
             "# finalize_s per iteration: %s" % " ".join(
                 "/".join("%.4f" % x for x in r["finalize_s"])
                 for r in results)]
    paced = any(a.startswith("--rate=") for a in wl["drive"])
    if args.trace:
        lines.append("# not reachable from the seams timed here: "
                     "service-mutex wait and hold, E-step/M-step split, "
                     "checkpoint write time, frame decode vs dispatch")
        values = per_layer(results, reference, paced, lines)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(results[:wl["quality_iterations"]], results,
                            setups, paced, lines)
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    # Zero on a healthy run, so it rides in the result's "failed" count
    # rather than as a metric with a relative bound.
    lines.append("# %-46s %16.6f ratio" % ("failed_share",
                                           failed / attempted))
    for line in lines:
        print(line)
    metrics = {}
    for name, unit in units.items():
        if not (stats.valid_metric_name(name) and stats.valid_unit(unit)):
            raise BenchError("invalid metric %r (%r)" % (name, unit))
        metrics[name] = {"value": float(values[name]), "unit": unit}
        print("%-48s %16.6f %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as e:
        log("perfbench: %s: %s" % (type(e).__name__, e))
        sys.exit(1)
