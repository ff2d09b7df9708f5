#!/usr/bin/env python3
"""Serving benchmark for hypre_server.

    python3 servebench/run.py --workload mixed_rw --seed 1 --seconds 30 --trace 0

Builds hypre_server and the servebench load generator from this checkout,
then:

  --trace 0  starts the server on a 100k-paper synthetic DBLP tenant (three
             times, to take the median set-up time), drives the timed
             instance over loopback with `servebench load`, scrapes
             /metrics before and after, and prints the end-to-end metrics.
  --trace 1  runs `servebench trace`, the in-process replay of the same
             request streams with spans around every layer call, and prints
             the per-layer metrics.

The server, the replay threads and the traced replay run on one core.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Any mismatch in the correctness gate makes the
exit code nonzero. See README.md in this directory for the workloads and
metrics.
"""
import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "servebench")
SERVER = os.path.join(BUILD, "hypre", "hypre_server")
SERVEBENCH = os.path.join(BUILD, "servebench")
WORKLOADS = ("hot_read", "cold_tail", "mixed_rw")
SETUP_REPS = 3
# The server and the load generator's replay threads share this one core:
# a request then hands over between threads without a cross-core wake-up,
# whose cost on a shared virtual machine swings with the host's load.
BENCH_CPU = max(os.sched_getaffinity(0))
TENANT_PAPERS = 100000
TENANT_SEED = 42
# /metrics families diffed around the load, read only once its connections
# are closed.
SCRAPE_PREFIXES = ("hypre_engine_", "hypre_prober_", "hypre_api_admission_",
                   "hypre_delta_", "hypre_storage_", "hypre_server_")


def pin():
    """Runs the calling process on BENCH_CPU (a preexec_fn)."""
    os.sched_setaffinity(0, {BENCH_CPU})


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise SystemExit("run.py: no CMakeLists.txt at the checkout root; "
                         "cannot build hypre_server")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                    "--target", "hypre_server", "servebench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def request(port, method, path, body=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


class Server:
    """One hypre_server process on a kernel-chosen loopback port."""

    def __init__(self, work, storage, tag):
        self.log_path = os.path.join(work, "server-%s.log" % tag)
        args = [SERVER, "--port", "0"]
        if storage:
            store = os.path.join(work, "store-%s" % tag)
            shutil.rmtree(store, ignore_errors=True)
            config = os.path.join(work, "server-%s.json" % tag)
            with open(config, "w") as f:
                json.dump({"host": "127.0.0.1", "tenants": [{
                    "name": "t", "synthetic_papers": TENANT_PAPERS,
                    "synthetic_seed": TENANT_SEED, "storage_dir": store}]}, f)
            args += ["--config", config]
        else:
            args += ["--tenant", "t=synthetic:%d:%d" % (TENANT_PAPERS, TENANT_SEED)]
        self.log_file = open(self.log_path, "w")
        self.proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                     stderr=self.log_file, preexec_fn=pin)
        self.port = None

    def wait_listening(self, timeout=60):
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on [0-9.]+:(\d+)")
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                found = pattern.search(f.read())
            if found:
                self.port = int(found.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("hypre_server did not start; see " + self.log_path)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log_file.close()


def set_up(work, storage, warmup, tag):
    """Spawn -> tenant open -> warm-up; returns (server, seconds)."""
    started = time.monotonic()
    server = Server(work, storage, tag)
    try:
        server.wait_listening()
        status, body = request(server.port, "GET", "/v1/t/stats")
        if status != 200:
            raise RuntimeError("tenant open failed: %d %r" % (status, body[:200]))
        if warmup:
            status, body = request(server.port, "POST", "/v1/t/enumerate", warmup)
            if status != 200:
                raise RuntimeError("warm-up failed: %d %r" % (status, body[:200]))
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - started


def scrape(port):
    status, body = request(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError("/metrics returned %d" % status)
    values = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#") or "_bucket{" in line:
            continue
        name, _, value = line.rpartition(" ")
        if name.startswith(SCRAPE_PREFIXES):
            values[re.sub(r"\{.*\}", "", name)] = float(value)
    return values


def run_servebench(args, pinned=False):
    proc = subprocess.run([SERVEBENCH] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          preexec_fn=pin if pinned else None)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("servebench %s exited with %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


def run_untraced(a, work):
    warm_path = os.path.join(work, "warmup.json")
    plan = run_servebench(["plan", "--workload", a.workload,
                           "--seed", str(a.seed), "--seconds", str(a.seconds),
                           "--warmup-out", warm_path])
    log("plan " + json.dumps(plan))
    with open(warm_path, "rb") as f:
        warmup = f.read()
    storage = a.workload == "mixed_rw"

    setups = []
    server = None
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
            server, seconds = set_up(work, storage, warmup, "rep%d" % rep)
            setups.append(seconds)
        log("setup_s " + " ".join("%.3f" % s for s in setups))
        before = scrape(server.port)
        load_args = ["load", "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--port", str(server.port),
                     "--cpu", str(BENCH_CPU)]
        if a.corrupt:
            load_args.append("--corrupt")
        result = run_servebench(load_args)
        after = scrape(server.port)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    side = result.pop("side")
    side["metrics_delta"] = {k: after[k] - before.get(k, 0.0)
                             for k in sorted(after)
                             if after[k] != before.get(k, 0.0)}
    print(json.dumps({"outside_view": side}, sort_keys=True))
    metrics = result["metrics"]
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["server_rss_mb"] = {"value": rss, "unit": "MB"}
    return result


def run_traced(a, work):
    spans = os.path.join(BUILD_ROOT, "spans-%s-%d.jsonl" % (a.workload, a.seed))
    trace_args = ["trace", "--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--work", work, "--spans", spans]
    if a.corrupt:
        trace_args.append("--corrupt")
    result = run_servebench(trace_args, pinned=True)
    log("spans written to " + spans)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one byte of one response before the check "
                             "(shows the gate failing the run)")
    a = parser.parse_args()

    build()
    work = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    os.makedirs(work)
    try:
        result = run_traced(a, work) if a.trace else run_untraced(a, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
