#!/usr/bin/env python3
"""Outside-in benchmark of the repro CLI and sweep service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 2025 \\
        --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``suite-cold``  -- ``repro run SUITE --json`` with default flags, each
  command in a fresh process;
* ``suite-warm``  -- the same command with ``--cache-dir D`` after set-up
  filled ``D`` with a cold run;
* ``service-mix`` -- ``repro serve --jobs 2 --job-concurrency 2`` driven
  by two closed-loop client threads through ``SweepClient``.

Every result is checked byte for byte: against the SHA-256 digests
pinned in ``digests.json`` where one exists, otherwise against the first
result this checkout saw for the same experiment, seed and request
budget.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics of :mod:`tracer`.  The amount of work in a run is a
fixed function of ``--seconds`` (calibrated on a 2-core host), so two
versions of the program always do the same work.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

WORKLOADS = ("suite-cold", "suite-warm", "service-mix")
DEFAULT_SEED = 2025
SUITE = ("table3", "fig5", "fig9", "fig10", "fig23", "ablation-scheduler")
#: Per-core request budget of the suite commands (quick mode's 8000
#: makes one cold command take ~50 s; 1000 keeps it near 8 s).
SUITE_REQUESTS = 1000
#: Service job kinds: experiment x per-core request budget.
SERVICE_KINDS = tuple((experiment, requests)
                      for experiment in ("fig5", "fig9", "table5", "fig17")
                      for requests in (1000, 1500))
#: Share of service submissions that repeat an earlier one.  Kinds share
#: cells at equal option seeds, so about another 15% of jobs find every
#: cell computed; together about 30% of jobs compute nothing, which keeps
#: the upper median among the computed jobs.
REPEAT_SHARE = 0.15
CLIENTS = 2
#: A run does one unit of work per UNIT_S[workload] of ``--seconds``: a
#: cold suite command, a warm suite command, or one block of
#: ``len(SERVICE_KINDS)`` distinct service jobs plus their repeats.  At
#: ``--seconds 30`` a run takes 30-45 s on a 2-core box, set-up included.
UNIT_S = {"suite-cold": 7.5, "suite-warm": 5.0, "service-mix": 6.0}
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = {"suite-cold": 3, "suite-warm": 2, "service-mix": 5}
TRACED_REPEATS = 2

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "jobs_per_s": "1/s",
              "job_latency_p50_s": "s", "job_latency_tail_s": "s"}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def child_env() -> dict:
    """The environment of every program process: this checkout's
    sources, unbuffered stdout, and no ambient ``REPRO_*`` settings."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def result_key(experiment: str, seed: int, requests: int) -> str:
    return f"{experiment}.seed{seed}.req{requests}"


def split_results(text: str) -> list[tuple[str, str]]:
    """``(experiment, json text)`` for each result printed by
    ``repro run --json``."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return docs
        doc, end = decoder.raw_decode(text, pos)
        docs.append((doc.get("experiment"), text[pos:end]))
        pos = end


class Checker:
    """Byte-for-byte output check against pinned or first-seen
    digests."""

    def __init__(self) -> None:
        pinned = json.loads((HERE / "digests.json").read_text())
        self.pinned = pinned["digests"]
        self.ledger = WORK / "ledger"
        self.ledger.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.mismatches: list[str] = []

    def check(self, key: str, text: str | None) -> bool:
        """Count one operation; ``text=None`` is an operation that
        produced no result."""
        self.attempted += 1
        if text is None:
            self.mismatches.append(f"{key}: no result")
            return False
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        expected = self.pinned.get(key)
        if expected is None:
            path = self.ledger / key
            if path.exists():
                expected = path.read_text().strip()
            else:
                tmp = path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(digest + "\n")
                os.replace(tmp, path)
                expected = digest
        if digest != expected:
            self.mismatches.append(f"{key}: sha256 {digest[:16]} != "
                                   f"expected {expected[:16]}")
            return False
        return True


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.tmp = WORK / f"run-{os.getpid()}"
        self.checker = Checker()
        self.loads: list[list[float]] = []
        self._serial = 0

    def scratch(self, stem: str) -> Path:
        self._serial += 1
        return self.tmp / f"{stem}{self._serial}"

    def units(self) -> int:
        return max(1, round(self.seconds / UNIT_S[self.workload]))


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------
def run_command(run: Run, argv: list[str]) -> dict:
    """Run one program process to exit, timing each experiment result
    as it reaches stdout; CPU and peak RSS come from ``wait4``."""
    load = os.getloadavg()[0]
    err_path = run.scratch("stderr")
    with open(err_path, "w+b") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        chunks, marks = [], []
        with proc.stdout:
            for line in proc.stdout:
                chunks.append(line)
                if line == b"}\n":
                    marks.append(time.perf_counter() - started)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    run.loads.append([load, os.getloadavg()[0]])
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": b"".join(chunks).decode("utf-8", "replace"),
            "marks": marks, "stderr": stderr,
            "code": proc.returncode}


def import_probe(run: Run) -> float:
    """Interpreter start plus ``import repro.cli``, in a fresh
    process."""
    probe = run_command(run, [sys.executable, "-c", "import repro.cli"])
    if probe["code"] != 0:
        raise BenchError(f"import repro.cli failed:\n{probe['stderr']}")
    return probe["wall"]


def suite_command(run: Run, cache_dir: Path | None = None,
                  traced: Path | None = None) -> dict:
    """One ``repro run SUITE --json`` process; its results are
    checked."""
    argv = [sys.executable]
    argv += ["-m", "repro.cli"] if traced is None else \
        [str(HERE / "tracer.py"), str(traced)]
    argv += ["run", *SUITE, "--json", "--requests", str(SUITE_REQUESTS),
             "--seed", str(run.seed)]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    command = run_command(run, argv)
    texts: dict[str, str] = {}
    if command["code"] == 0:
        try:
            texts = dict(split_results(command["stdout"]))
        except ValueError:
            texts = {}
    for experiment in SUITE:
        run.checker.check(result_key(experiment, run.seed, SUITE_REQUESTS),
                          texts.get(experiment))
    if command["code"] != 0:
        print(command["stderr"][-2000:], file=sys.stderr)
    previous = 0.0
    command["latencies"] = []
    for mark in command["marks"]:
        command["latencies"].append(mark - previous)
        previous = mark
    return command


# ----------------------------------------------------------------------
# Counter reconciliation
# ----------------------------------------------------------------------
def exec_line_counts(stderr: str) -> dict | None:
    """Counters from the ``[repro.exec]`` summary line, if printed."""
    for line in stderr.splitlines():
        if line.startswith("[repro.exec] executor["):
            fields = dict(re.findall(r"(\w+)=(\d+)", line))
            counts = {name: int(fields[name])
                      for name in ("cells", "computed", "memo_hits")}
            if "hits" in fields:
                counts.update(cache_hits=int(fields["hits"]),
                              cache_misses=int(fields["misses"]),
                              cache_stores=int(fields["stores"]))
            return counts
    return None


def reconcile(traced: dict, sources: dict[str, dict]) -> None:
    """Fail loudly when a traced count differs from the program's own:
    a wrapper missed a binding site."""
    for source, counts in sources.items():
        for name, value in counts.items():
            if name in traced and traced[name] != value:
                raise BenchError(
                    f"counter mismatch: traced {name}={traced[name]} but "
                    f"{source} says {value}")


def traced_layers(command: dict, out_dir: Path) -> dict:
    metrics, counts, own = tracer.summarize(out_dir)
    sources = {"executor stats": own}
    line = exec_line_counts(command["stderr"])
    if line is not None:
        sources["[repro.exec] line"] = line
    reconcile(counts, sources)
    return metrics


# ----------------------------------------------------------------------
# Suite workloads
# ----------------------------------------------------------------------
def suite_workload(run: Run) -> tuple[dict, dict]:
    warm = run.workload == "suite-warm"
    cache_dir = None
    setup, layers = [], {}
    probes = [import_probe(run) for _ in range(SETUP_REPEATS["suite-cold"])
              if run.trace or not warm]
    if warm:
        # Set-up is the cold fill itself: interpreter, import and every
        # cell computed and stored.  The traced run traces the last fill
        # for the cache-write counters.
        for index in range(SETUP_REPEATS["suite-warm"]):
            target = run.scratch("cache")
            last = index == SETUP_REPEATS["suite-warm"] - 1
            traced = run.scratch("trace") if run.trace and last else None
            fill = suite_command(run, cache_dir=target, traced=traced)
            setup.append(fill["wall"])
            cache_dir = cache_dir or target
            if traced is not None:
                fill_layers = traced_layers(fill, traced)
                layers["exec.cache.put.calls"] = \
                    fill_layers["exec.cache.put.calls"]
                layers["exec.cache.put.s"] = fill_layers["exec.cache.put.s"]
    else:
        setup = probes
    if run.trace:
        plain, traced_runs, samples = [], [], []
        for _ in range(TRACED_REPEATS):
            plain.append(suite_command(run, cache_dir))
            out_dir = run.scratch("trace")
            command = suite_command(run, cache_dir, traced=out_dir)
            traced_runs.append(command)
            samples.append(traced_layers(command, out_dir))
        metrics = {name: statistics.median(s[name] for s in samples)
                   for name in samples[0]}
        metrics.update(layers)
        metrics["cli.import_s"] = statistics.median(probes)
        wall = statistics.median(c["wall"] for c in plain)
        traced_wall = statistics.median(c["wall"] for c in traced_runs)
        metrics["trace.overhead_pct"] = (traced_wall / wall - 1.0) * 100
        return metrics, {}
    commands = [suite_command(run, cache_dir) for _ in range(run.units())]
    latencies = [lat for c in commands for lat in c["latencies"]]
    wall = statistics.median(c["wall"] for c in commands)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(c["cpu"] for c in commands),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(c["rss_mb"] for c in commands),
        "jobs_per_s": len(SUITE) / wall,
    }
    return metrics, latency_metrics(metrics, latencies)


def latency_metrics(metrics: dict, latencies: list[float]) -> dict:
    """Upper median and the highest percentile with ten samples beyond
    it.  Both are actual samples: an average of the two middle values
    would swing between the modes of a suite-warm run, where half the
    experiments are cache hits."""
    ordered = sorted(latencies)
    if not ordered:
        raise BenchError("no operation completed")
    count = len(ordered)
    index = max(0, count - 11)
    metrics["job_latency_p50_s"] = statistics.median_high(ordered)
    metrics["job_latency_tail_s"] = ordered[index]
    return {"job_latency_tail_s":
            f"p{100.0 * index / max(1, count - 1):.0f} of {count} "
            f"samples, {count - 1 - index} beyond it"}


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def service_jobs(seed: int, blocks: int) -> list[tuple[str, int, int]]:
    """The seeded job list: ``blocks`` shuffled rounds of every job kind
    with distinct option seeds, plus repeats of earlier submissions,
    each placed at a random point after the job it repeats."""
    rng = random.Random(seed)
    distinct, occurrences = [], Counter()
    for _ in range(blocks):
        block = list(SERVICE_KINDS)
        rng.shuffle(block)
        for experiment, requests in block:
            distinct.append((experiment, seed + occurrences[experiment,
                                                            requests],
                             requests))
            occurrences[experiment, requests] += 1
    placed = [(float(index), job) for index, job in enumerate(distinct)]
    repeats = round(len(distinct) * REPEAT_SHARE / (1.0 - REPEAT_SHARE))
    for _ in range(repeats):
        original = rng.randrange(len(distinct))
        placed.append((rng.uniform(original, len(distinct)) + 0.5,
                       distinct[original]))
    return [job for _, job in sorted(placed, key=lambda item: item[0])]


class Server:
    """One ``repro serve`` process with a fresh cache directory."""

    def __init__(self, run: Run, traced: Path | None = None) -> None:
        home = run.scratch("server")
        home.mkdir(parents=True)
        port_file = home / "port"
        argv = [sys.executable]
        argv += ["-m", "repro.cli"] if traced is None else \
            [str(HERE / "tracer.py"), str(traced)]
        argv += ["serve", "--port", "0", "--port-file", str(port_file),
                 "--jobs", "2", "--job-concurrency", "2",
                 "--cache-dir", str(home / "cache")]
        self.err = open(home / "stderr", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        try:
            self.port = self._wait_ready(port_file)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started
        self.url = f"http://127.0.0.1:{self.port}"

    def _wait_ready(self, port_file: Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("repro serve exited during start-up")
            text = port_file.read_text().strip() \
                if port_file.exists() else ""
            if text.isdigit():
                port = int(text)
                connection = http.client.HTTPConnection("127.0.0.1", port,
                                                        timeout=5)
                try:
                    connection.request("GET", "/v1/readyz")
                    if connection.getresponse().status == 200:
                        return port
                except OSError:
                    pass
                finally:
                    connection.close()
            time.sleep(0.01)
        raise BenchError("repro serve not ready after 60 s")

    def tree(self) -> list[int]:
        """The server and every live descendant process."""
        parents = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                stat = _proc_stat(int(entry))
                if stat is not None:
                    parents[int(entry)] = int(stat[1])
        pids, frontier = [self.proc.pid], [self.proc.pid]
        while frontier:
            frontier = [pid for pid, ppid in parents.items()
                        if ppid in frontier]
            pids.extend(frontier)
        return pids

    def cpu_s(self) -> float:
        """CPU seconds of the server tree so far (reaped children
        included)."""
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.tree():
            stat = _proc_stat(pid)
            if stat is not None:
                total += sum(int(value) for value in stat[11:15])
        return total / ticks

    def peak_rss_mb(self) -> float:
        peak = 0
        for pid in self.tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+)", status, re.M)
            if match:
                peak = max(peak, int(match.group(1)))
        return peak / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def _proc_stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def closed_loop(run: Run, server: Server) -> dict:
    """Drive the job list through ``CLIENTS`` closed-loop threads."""
    sys.path.insert(0, str(SRC))
    from repro import RunOptions
    from repro.service.client import JobFailed, ServiceError, SweepClient

    jobs = service_jobs(run.seed, run.units())
    pending = list(enumerate(jobs))
    records: list[dict] = [{} for _ in jobs]
    lock = threading.Lock()

    def one_job(client: SweepClient, job: tuple) -> dict:
        experiment, seed, requests = job
        record: dict = {"key": result_key(*job)}
        options = RunOptions(seed=seed, requests_per_core=requests)
        started = time.perf_counter()
        try:
            job_id = client.submit(experiment, options)
            submitted = time.perf_counter()
            running = None
            for event in client.stream(job_id):
                if event.get("kind") == "state" and \
                        event.get("state") == "running" and running is None:
                    running = time.perf_counter()
            finished = time.perf_counter()
            running = running or finished
            text = client.result(job_id)
        except (ServiceError, JobFailed) as error:
            record["error"] = str(error)
            return record
        done = time.perf_counter()
        record.update(text=text, latency=done - started,
                      submit_s=submitted - started,
                      queue_wait_s=running - submitted,
                      run_s=finished - running, result_s=done - finished,
                      bytes=len(text.encode("utf-8")))
        return record

    def client_thread() -> None:
        client = SweepClient(server.url)
        while True:
            with lock:
                if not pending:
                    return
                index, job = pending.pop(0)
            try:
                records[index] = one_job(client, job)
            except Exception as error:  # noqa: BLE001 — count, go on
                traceback.print_exc()
                records[index] = {"key": result_key(*job),
                                  "error": f"{type(error).__name__}: {error}"}

    cpu0 = server.cpu_s() + _self_cpu()
    load = os.getloadavg()[0]
    started = time.perf_counter()
    threads = [threading.Thread(target=client_thread)
               for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    makespan = time.perf_counter() - started
    cpu = server.cpu_s() + _self_cpu() - cpu0
    run.loads.append([load, os.getloadavg()[0]])
    for record in records:
        if not run.checker.check(record["key"], record.get("text")) and \
                "error" in record:
            print(f"job {record['key']} failed: {record['error']}",
                  file=sys.stderr)
    done = [record for record in records if "latency" in record]
    return {"jobs": done, "makespan": makespan, "cpu": cpu,
            "rss_mb": server.peak_rss_mb(),
            "jobs_per_s": len(done) / makespan}


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def service_counters(server: Server) -> tuple[dict, dict]:
    """Summed per-job counters and the ``/v1/metrics`` executor and
    cache counters, after the closed loop."""
    from repro.service.client import SweepClient

    client = SweepClient(server.url)
    jobs = Counter()
    for record in client.jobs():
        jobs.update(record["counters"])
    exposed = {}
    for line in client.metrics_text().splitlines():
        match = re.match(r"repro_(executor|cache)_(\w+?)(?:_total)? (\S+)$",
                         line)
        if match:
            exposed[f"{match.group(1)}.{match.group(2)}"] = \
                float(match.group(3))
    metrics = {name: int(exposed[f"executor.{name}"])
               for name in ("cells", "computed", "memo_hits", "dedup_hits")}
    metrics.update(cache_hits=int(exposed["cache.hits"]),
                   cache_misses=int(exposed["cache.misses"]),
                   cache_stores=int(exposed["cache.stores"]))
    summed = {name: jobs[name]
              for name in ("cells", "computed", "memo_hits", "dedup_hits")}
    reconcile(summed, {"/v1/metrics": metrics})
    return summed, metrics


def service_workload(run: Run) -> tuple[dict, dict]:
    servers = []
    try:
        for _ in range(SETUP_REPEATS["service-mix"]):
            if servers:
                servers[-1].stop()
            servers.append(Server(run))
        setup = [server.ready_s for server in servers]
        loop = closed_loop(run, servers[-1])
        servers[-1].stop()
        if run.trace:
            return traced_service(run, loop), {}
    finally:
        for server in servers:
            server.stop()
    latencies = [job["latency"] for job in loop["jobs"]]
    metrics = {
        "wall_s": loop["makespan"],
        "cpu_s": loop["cpu"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": loop["rss_mb"],
        "jobs_per_s": loop["jobs_per_s"],
    }
    return metrics, latency_metrics(metrics, latencies)


def traced_service(run: Run, plain: dict) -> dict:
    out_dir = run.scratch("trace")
    server = Server(run, traced=out_dir)
    try:
        loop = closed_loop(run, server)
        jobs, exposed = service_counters(server)
    finally:
        server.stop()
    metrics, counts, own = tracer.summarize(out_dir)
    reconcile(counts, {"/v1/metrics": exposed, "executor stats": own})
    done = loop["jobs"]
    metrics.update({
        "service.submit.s": statistics.median(j["submit_s"] for j in done),
        "service.result.s": statistics.median(j["result_s"] for j in done),
        "service.result.bytes": sum(j["bytes"] for j in done),
        "service.queue_wait.s":
            statistics.median(j["queue_wait_s"] for j in done),
        "service.run.s": statistics.median(j["run_s"] for j in done),
        "service.jobs.computed": jobs["computed"],
        "service.jobs.memo_hits": jobs["memo_hits"],
        "service.jobs.dedup_hits": jobs["dedup_hits"],
        "service.useful_ratio": metrics["exec.useful_ratio"],
        "trace.overhead_pct":
            (plain["jobs_per_s"] / loop["jobs_per_s"] - 1.0) * 100,
    })
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
SERVICE_LAYER = ("service.submit.s", "service.result.s",
                 "service.result.bytes", "service.queue_wait.s",
                 "service.run.s", "service.jobs.computed",
                 "service.jobs.memo_hits", "service.jobs.dedup_hits",
                 "service.useful_ratio")


def layer_unit(name: str) -> str:
    if "s" in name.split(".") or name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_us_per_event"):
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def context(run: Run) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"workload": run.workload, "seed": run.seed,
            "seconds": run.seconds, "trace": run.trace,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "commit": commit, "source_sha256": digest.hexdigest(),
            "loadavg_1m_before_after": run.loads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources at {SRC}; run from the root of a "
              f"repro checkout", file=sys.stderr)
        return 2
    run = Run(args)
    run.tmp.mkdir(parents=True, exist_ok=True)
    try:
        if run.workload == "service-mix":
            metrics, notes = service_workload(run)
        else:
            metrics, notes = suite_workload(run)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)

    checker = run.checker
    for mismatch in checker.mismatches:
        print(f"output mismatch: {mismatch}", file=sys.stderr)
    failed = len(checker.mismatches)
    print(json.dumps({"context": context(run)}, sort_keys=True))
    print(f"error_rate {failed / checker.attempted:.4f} ratio "
          f"({failed} of {checker.attempted} operations)")
    if run.trace:
        for name in SERVICE_LAYER:
            metrics.setdefault(name, 0.0)
        units = {name: layer_unit(name) for name in metrics}
    else:
        units = END_TO_END
    for name in sorted(metrics):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {metrics[name]:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
