#!/usr/bin/env python3
"""kanon's benchmark: batch anonymization, durable ingest and release serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_read --seed 3 --seconds 10 --trace 0

It builds the program (the repository's own CMake build, default build
type) and the benchmark's load generator, runs one round of the workload's
lifecycle against the `kanon_cli` binary, checks every output, and prints
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 it runs the in-process traced replay (perfbench/trace) instead
and prints the per-layer metrics. See perfbench/README.md.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
JOBS = str(min(4, os.cpu_count() or 1))

K = 10  # base anonymity given to the program (--k)
COARSE = 8  # coarse release granularity, as a multiple of K
DP_KEY = "perfbench"  # deployment secret shared by leader and replica
WRITERS = 3
READERS = 3
BATCH = 100  # records per NDJSON POST
TRICKLE_MS = 40  # open-loop writer: one batch every 40 ms = 2,500 records/s
REPEATS = 5  # restarts and replica bootstraps per round
BATCH_SEED = 20070415  # fixed: the batch table does not depend on --seed

# Every workload runs the same serving lifecycle (durable ingest, drain,
# restarts, replica bootstraps, read mix), so that every end-to-end metric
# is measured on every workload; batch_anonymize adds the CLI on a
# million-row table. The workloads set which phase carries the load.
# `batch_rows` is also the table the traced run of serve_read replays for
# the batch layers.
WORKLOADS = {
    "batch_anonymize": dict(batch_rows=1_000_000, batch_runs=1,
                            ingest_records=400_000, read_cycles=84,
                            trickle_posts=200),
    "serve_read": dict(batch_rows=200_000, batch_runs=0,
                       ingest_records=400_000, read_cycles=110,
                       trickle_posts=300),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sh(cmd, logfile):
    with open(logfile, "ab") as out:
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        with open(logfile, "rb") as f:
            tail = f.read()[-3000:].decode(errors="replace")
        raise BenchError(f"command failed ({rc}): {' '.join(cmd)}\n{tail}")


def build(trace):
    """Builds kanon_cli, the load generator and (traced runs) the tracer."""
    os.makedirs(BUILD, exist_ok=True)
    blog = os.path.join(BUILD, "build.log")
    kanon = os.path.join(BUILD, "kanon")
    if not os.path.exists(os.path.join(kanon, "CMakeCache.txt")):
        sh(["cmake", "-S", ROOT, "-B", kanon], blog)
    sh(["cmake", "--build", kanon, "--target", "kanon_cli", "-j", JOBS], blog)
    load = os.path.join(BUILD, "loadgen")
    if not os.path.exists(os.path.join(load, "CMakeCache.txt")):
        sh(["cmake", "-S", os.path.join(HERE, "loadgen"), "-B", load,
            "-DCMAKE_BUILD_TYPE=Release"], blog)
    sh(["cmake", "--build", load, "-j", JOBS], blog)
    bins = {"cli": os.path.join(kanon, "tools", "kanon_cli"),
            "load": os.path.join(load, "kbench_load")}
    # The tracer is built on every run, so that a traced run need not
    # compile the library within its time limit; only a traced run fails
    # when it does not build.
    tr = os.path.join(BUILD, "trace")
    try:
        if not os.path.exists(os.path.join(tr, "CMakeCache.txt")):
            sh(["cmake", "-S", os.path.join(HERE, "trace"), "-B", tr,
                "-DKANON_ROOT=" + ROOT], blog)
        sh(["cmake", "--build", tr, "--target", "kbench_trace", "-j", JOBS],
           blog)
    except BenchError:
        if trace:
            raise
    if trace:
        bins["trace"] = os.path.join(tr, "kbench_trace")
    for path in bins.values():
        if not os.path.exists(path):
            raise BenchError("build produced no " + path)
    return bins


def load(bins, *args, timeout=170):
    """Runs one kbench_load subcommand and returns its JSON line."""
    out = subprocess.run([bins["load"], *[str(a) for a in args]],
                         stdout=subprocess.PIPE, timeout=timeout, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


class Server:
    """A `kanon_cli serve` process; port parsed from its stderr log."""

    def __init__(self, bins, workdir, name, args):
        self.log_path = os.path.join(workdir, name + ".log")
        self.log = open(self.log_path, "wb")
        self.started = time.monotonic()
        self.proc = subprocess.Popen([bins["cli"], "serve", *args],
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None
        self.rusage = None
        deadline = self.started + 60
        while self.port is None:
            with open(self.log_path, "rb") as f:
                m = re.search(rb"listening on [0-9.]+:(\d+)", f.read())
            if m:
                self.port = int(m.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"{name} did not start: " + self.tail())
            else:
                time.sleep(0.0005)

    def tail(self):
        with open(self.log_path, "rb") as f:
            return f.read()[-2000:].decode(errors="replace")

    def stop(self):
        """SIGTERMs the process and reaps it; returns seconds until exit."""
        if self.rusage is not None:
            return 0.0
        t0 = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.log.close()
        return time.monotonic() - t0

    def kill(self):
        if self.rusage is None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
            self.rusage = 0
        self.log.close()


def wait_healthz(server, timeout=60.0):
    """Polls /healthz until 200; the cold start ends there."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                return
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(0.0005)
    raise BenchError("leader never answered /healthz: " + server.tail())


def maxrss_mb(rusage):
    return rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_round(bins, workload, seed, workdir, domain):
    """One round of the lifecycle; returns (metrics, attempted, failed,
    problems). `problems` are probes that went wrong: they make the run's
    `correct` false."""
    p = WORKLOADS[workload]
    n_batch, n_ingest = p["batch_rows"], p["ingest_records"]
    servers = []
    m = {}
    attempted = failed = 0
    problems = []
    wal = os.path.join(workdir, "wal")
    leader_args = [str(a) for a in (
        "--listen", "127.0.0.1:0", "--k", K, "--wal-dir", wal, "--domain",
        domain, "--dp-key", DP_KEY)]

    def start(name, args):
        server = Server(bins, workdir, name, args)
        servers.append(server)
        return server

    try:
        # ---- set-up: a cold durable leader ----------------------------
        leader = start("leader", leader_args)
        wait_healthz(leader)
        m["setup_s"] = time.monotonic() - leader.started

        # ---- durable ingest -------------------------------------------
        ing = load(bins, "ingest", "--port", leader.port, "--seed", seed,
                   "--records", n_ingest, "--writers", WRITERS, "--batch",
                   BATCH)
        attempted += n_ingest
        failed += ing["failed_records"]
        if ing["probe_errors"]:
            problems.append(f"{ing['probe_errors']} summary probes failed")
        m["ingest_rec_per_s"] = ing["rec_per_s"]
        m["ingest_p50_ms"] = ing["p50_ms"]
        m["ingest_p99_ms"] = ing["p99_ms"]
        m["staleness_p50_records"] = ing["staleness_p50"]

        # ---- drain ------------------------------------------------------
        m["drain_s"] = leader.stop()
        if leader.proc.returncode != 0:
            problems.append(f"leader exited {leader.proc.returncode}")

        # ---- restarts and replica bootstraps, interleaved ----------------
        # Every restart recovers the same directory and every bootstrap
        # copies the same checkpoint, so each is repeated REPEATS times,
        # spread over the round, and the median reported. The last leader
        # and replica serve the verification and the read mix.
        restarts, boots = [], []
        follower = None
        for i in range(REPEATS):
            if follower is not None:
                follower.stop()
                leader.stop()
            leader = start(f"leader-restart{i}", leader_args)
            cover = load(bins, "wait-records", "--port", leader.port,
                         "--records", ing["acked"], "--timeout-s", 60)
            restarts.append(time.monotonic() - leader.started)
            if not cover["ok"]:
                problems.append("restarted leader never covered the acks")
            follower = start(f"follower{i}", [
                "--follow", f"127.0.0.1:{leader.port}", "--listen",
                "127.0.0.1:0", "--domain", domain, "--k", str(K), "--dp-key",
                DP_KEY])
            rep = load(bins, "replica-wait", "--leader", leader.port,
                       "--follower", follower.port, "--timeout-s", 60)
            boots.append(time.monotonic() - follower.started)
            attempted += 1
            failed += 0 if rep["identical"] else 1
        m["restart_s"] = median(restarts)
        m["replica_bootstrap_s"] = median(boots)

        ver = load(bins, "verify", "--port", leader.port, "--seed", seed,
                   "--records", n_ingest, "--k", K, "--k1", COARSE * K)
        attempted += ver["checks"]
        failed += ver["uncovered"] + ver["failed_checks"]

        # ---- read mix over leader and replica, with a trickle writer --
        rd = load(bins, "read", "--leader", leader.port, "--follower",
                  follower.port, "--seed", seed, "--k", K, "--readers",
                  READERS, "--cycles", p["read_cycles"], "--record-base",
                  n_ingest, "--batch", BATCH, "--trickle-posts",
                  p["trickle_posts"], "--trickle-ms", TRICKLE_MS)
        attempted += rd["requests"] + rd["trickle_posts"]
        failed += rd["failed"] + rd["trickle_failed"]
        if rd["requests"] != rd["expected_requests"]:
            problems.append("read mix sent an unexpected number of requests")
        if rd["identity_mismatch"]:
            problems.append(f"{rd['identity_mismatch']} replica bodies "
                            "differed from the leader's at the same epoch")
        for name in ("read_req_per_s", "query_p50_ms", "query_p99_ms",
                     "release_p50_ms", "dp_p50_ms"):
            m[name] = rd[name]
        follower.stop()
        leader.stop()
        read_rss = maxrss_mb(leader.rusage)

        # ---- batch: the CLI on the fixed table --------------------------
        # Last in the round, so that the table's writeback cannot slow the
        # WAL's fsyncs.
        cli_rss, batch = 0.0, None
        csv_in = os.path.join(workdir, "in.csv")
        csv_out = os.path.join(workdir, "out.csv")
        if p["batch_runs"]:
            load(bins, "gen-csv", "--seed", BATCH_SEED, "--rows", n_batch,
                 "--out", csv_in)
        times = []
        for _ in range(p["batch_runs"]):
            t = time.monotonic()
            with open(os.path.join(workdir, "cli.log"), "wb") as cli_log:
                cli = subprocess.Popen(
                    [bins["cli"], "--input", csv_in, "--output", csv_out,
                     "--k", str(K)], stdout=cli_log, stderr=subprocess.STDOUT)
                _, status, cli_rusage = os.wait4(cli.pid, 0)
            times.append(time.monotonic() - t)
            cli_rss = max(cli_rss, maxrss_mb(cli_rusage))
            if os.waitstatus_to_exitcode(status) != 0:
                problems.append(f"kanon_cli exited {status}")
            batch = load(bins, "check-batch", "--seed", BATCH_SEED, "--rows",
                         n_batch, "--output", csv_out, "--k", K)
            attempted += n_batch
            failed += batch["failed"]
            os.remove(csv_out)
        if p["batch_runs"]:
            os.remove(csv_in)

        m["peak_rss_mb"] = {"batch_anonymize": cli_rss,
                            "serve_read": read_rss}[workload]
        m["ncp"] = (batch["ncp"] if workload == "batch_anonymize"
                    else ver["ncp"])
        log("detail: " + json.dumps({"batch": batch, "ingest": ing,
                                     "verify": ver, "read": rd,
                                     "restarts": restarts, "boots": boots,
                                     "batch_s": times}))
        return m, attempted, failed, problems
    finally:
        for s in servers:
            s.kill()
            # A follower stages checkpoints under /tmp/kanon-follower-<pid>
            # and leaves the directory behind; the process is gone by now.
            shutil.rmtree(f"/tmp/kanon-follower-{s.proc.pid}",
                          ignore_errors=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    # A stopped benchmark still stops the servers it started (the finally
    # clauses below run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        bins = build(args.trace == 1)
        workdir = os.path.join(ROOT, ".bench_run",
                               f"{args.workload}-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            selftest = load(bins, "selftest")
            if args.trace == 1:
                result = run_trace(bins, args, workdir)
            else:
                result = run_untraced(bins, args, workdir,
                                      load(bins, "domain")["domain"])
            result["correct"] = result["correct"] and selftest["ok"]
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                spec = json.load(f)
            metrics = with_units(result["values"], spec[
                "per_layer" if args.trace == 1 else "end_to_end"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log(f"benchmark failed: {e}")
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def run_untraced(bins, args, workdir, domain):
    # Whole rounds until --seconds have passed; one round already takes
    # longer than the run length, so a run is one round.
    start = time.monotonic()
    rounds = []
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(run_round(bins, args.workload, args.seed, workdir,
                                domain))
        shutil.rmtree(os.path.join(workdir, "wal"), ignore_errors=True)
    values = {name: sorted(r[0][name] for r in rounds)[len(rounds) // 2]
              for name in rounds[0][0]}
    problems = [p for r in rounds for p in r[3]]
    for p in problems:
        log("check failed: " + p)
    return {"correct": not problems,
            "attempted": sum(r[1] for r in rounds),
            "failed": sum(r[2] for r in rounds), "values": values}


def run_trace(bins, args, workdir):
    p = WORKLOADS[args.workload]
    spans = os.path.join(ROOT, ".bench_run", f"trace-{args.workload}.json")
    out = subprocess.run(
        [bins["trace"], "--workdir", workdir, "--seed", str(args.seed),
         "--batch-seed", str(BATCH_SEED), "--batch-rows", str(p["batch_rows"]),
         "--batch-runs", str(p["batch_runs"]), "--repeats", str(REPEATS),
         "--ingest-records", str(p["ingest_records"]), "--read-cycles",
         str(p["read_cycles"]), "--trickle-posts", str(p["trickle_posts"]),
         "--k", str(K), "--spans-out", spans],
        stdout=subprocess.PIPE, timeout=170, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def with_units(values, declared):
    """Pairs each declared metric with its unit; a missing one is an error."""
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in declared}


if __name__ == "__main__":
    sys.exit(main())
