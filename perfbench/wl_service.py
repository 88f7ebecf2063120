"""``service_burst``: open-loop bursts of distinct jobs against
``python -m repro serve --workers 2``.

One client process.  Every job of a burst is due at the burst's start and
submitted at once (each distinct job twice, in a seeded order), so the
queue saturates; the client then polls the job listing (one
``GET /v1/jobs`` per tick) until every job is terminal and times each
job's latency from the due time.  The timed loop runs ``--seconds``
worth of whole bursts; jobs never repeat within a run.  The
workload seed draws the jobs' master seeds and the submission order.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List

import harness

WORKERS = 2
BURST_JOBS = 16
#: Makespan of one burst on a 2-core x86 box.
NOMINAL_BURST_S = 1.6
#: Mid-size case_study_full jobs: a quarter of the paper's population on
#: half its channels.  Jobs differ only in their master seed, so every
#: seed gives the same amount of work.
JOB_PARAMS = {"total_nodes": 400, "num_channels": 8, "superframes": 50}
EXPERIMENT = "case_study_full"
#: Set-up samples per run: the serving server's spawn, then spawns of
#: servers that only start, spread between the bursts.
SETUP_REPEATS = 7
CHECK_SAMPLE = 3
POLL_PAUSE_S = 0.01
#: Per-layer metric prefixes the client cannot see (reported as 0): the
#: work inside the server, whose workers always trace (no untraced run to
#: compare, so ``obs.`` too), and the CLI's start-up.
BYPASSED = ("kernel.", "network.", "sweep.", "engine.", "driver.",
            "params.", "output.", "cache.lookup", "cache.store_s", "obs.",
            "startup.", "cli.", "cache.code_version")
TERMINAL = ("done", "failed", "cancelled")


def client_module():
    if harness.SRC not in sys.path:
        sys.path.insert(0, harness.SRC)
    from repro.service import client
    return client


class Server:
    """One ``repro serve`` process on a fresh cache and job store."""

    def __init__(self, work: str, index: int):
        client = client_module()
        cache = os.path.join(work, f"service-cache-{index}")
        os.makedirs(cache)
        self._stderr = open(os.path.join(work, f"serve-{index}.log"), "wb")
        command = [sys.executable, "-m", "repro", "serve",
                   "--workers", str(WORKERS), "--port", "0",
                   "--cache-dir", cache,
                   "--store", os.path.join(cache, "jobs.sqlite")]
        start = time.monotonic()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr,
            env=harness.child_env(cache), cwd=harness.ROOT)
        try:
            line = self.process.stdout.readline().decode()
            match = re.search(r"(http://[\d.]+:\d+)", line)
            if not match:
                raise harness.BenchError(f"serve printed no address: {line!r}")
            self.client = client.ServiceClient(match.group(1))
            deadline = start + 60.0
            while True:
                try:
                    self.client.health()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise harness.BenchError("serve never became healthy")
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - start

    def stop(self) -> float:
        """SIGTERM (graceful drain), reap; returns peak RSS in MB."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        _, rss = harness.reap(self.process, 60.0)
        self.process.stdout.close()
        self._stderr.close()
        return rss


class Jobs:
    """Seeded, never-repeating job specs of one run."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.used = set()

    def burst(self, count: int) -> List[dict]:
        specs = []
        while len(specs) < count:
            job_seed = self.rng.randrange(1, 2 ** 31)
            if job_seed in self.used:
                continue
            self.used.add(job_seed)
            specs.append({"kind": "run", "name": EXPERIMENT,
                          "params": dict(JOB_PARAMS), "seed": job_seed})
        return specs


def run_burst(server: Server, specs: List[dict], rng: random.Random,
              record: harness.Record) -> dict:
    """Submit every spec twice at t=0, poll the job listing until every
    job is terminal, then confirm each job's state with one timed
    ``status()``."""
    submissions = [spec for spec in specs for _ in range(2)]
    rng.shuffle(submissions)
    client = server.client
    submit_s: List[float] = []
    job_of: Dict[int, str] = {}
    created: Dict[str, int] = {}
    due = time.monotonic()
    for spec in submissions:
        start = time.monotonic()
        receipt = client.submit(spec)
        submit_s.append(time.monotonic() - start)
        key = spec["seed"]
        if key in job_of and job_of[key] != receipt["job_id"]:
            record.fail(f"duplicate submission of seed {key} got a new job")
        job_of.setdefault(key, receipt["job_id"])
        created[receipt["job_id"]] = (created.get(receipt["job_id"], 0)
                                      + int(bool(receipt["created"])))
    pending = set(job_of.values())
    running_at: Dict[str, float] = {}
    done_at: Dict[str, float] = {}
    while pending:
        listing = client.jobs()["jobs"]
        now = time.monotonic()
        for job in listing:
            job_id = job["job_id"]
            if job_id not in pending:
                continue
            if job["state"] == "running":
                running_at.setdefault(job_id, now)
            elif job["state"] in TERMINAL:
                done_at[job_id] = now
                pending.discard(job_id)
        time.sleep(POLL_PAUSE_S)
    status_s: List[float] = []
    for job_id in job_of.values():
        start = time.monotonic()
        state = client.status(job_id)["state"]
        status_s.append(time.monotonic() - start)
        record.op(state == "done" and created[job_id] == 1,
                  f"job {job_id[:12]} ended {state}, created "
                  f"{created[job_id]} times")
    latencies = [done_at[job] - due for job in job_of.values()]
    observed = [job for job in job_of.values() if job in running_at]
    return {"due": due, "latencies": latencies,
            "makespan_s": max(done_at.values()) - due,
            "submit_s": submit_s, "status_s": status_s,
            "queue_wait_s": [running_at[job] - due for job in observed],
            "run_s": [done_at[job] - running_at[job] for job in observed],
            "jobs": len(job_of),
            "submissions": len(submissions),
            "deduplicated": len(submissions) - sum(created.values()),
            "job_of": job_of}


def check_sample(server: Server, specs: List[dict], job_of: Dict[int, str],
                 rng: random.Random, record: harness.Record) -> None:
    """Fetched results of a seeded sample must be byte-identical to
    ``Session.run(...).to_json()`` of the same spec."""
    from repro.api import Session
    session = Session(cache=False)
    for spec in rng.sample(specs, min(CHECK_SAMPLE, len(specs))):
        fetched = server.client.result_text(job_of[spec["seed"]])
        expected = session.run(spec["name"], seed=spec["seed"],
                               **spec["params"]).to_json()
        if fetched != expected:
            record.fail(f"job seed {spec['seed']}: fetched result differs "
                        f"from Session.run(...).to_json()")


def spawn_time(work: str, index: int) -> float:
    """One more set-up sample: spawn a server until ``/v1/health``
    answers, then stop it."""
    server = Server(work, index)
    server.stop()
    return server.setup_s


def run_timed(seed: int, seconds: float, work: str,
              record: harness.Record) -> None:
    jobs = Jobs(seed)
    order_rng = random.Random(seed + 1)
    server = Server(work, 0)
    setups = [server.setup_s]
    try:
        latencies: List[float] = []
        makespan = 0.0
        distinct = 0
        bursts = harness.passes_for(seconds, NOMINAL_BURST_S)
        all_specs: List[dict] = []
        job_of: Dict[int, str] = {}
        for index in range(bursts):
            specs = jobs.burst(BURST_JOBS)
            burst = run_burst(server, specs, order_rng, record)
            latencies.extend(burst["latencies"])
            makespan += burst["makespan_s"]
            distinct += len(specs)
            all_specs.extend(specs)
            job_of.update(burst["job_of"])
            for _ in range(harness.samples_after(index, bursts,
                                                 SETUP_REPEATS - 1)):
                setups.append(spawn_time(work, len(setups)))
        check_sample(server, all_specs, job_of, order_rng, record)
    finally:
        peak_rss = server.stop()

    tail = harness.tail(latencies)
    record.add("setup_s", harness.median(setups), "s")
    record.add("ops_per_s", distinct / makespan, "ops/s")
    record.add("latency_p50_s", harness.median(latencies), "s")
    record.add("latency_tail_s", tail["value"], "s")
    record.add("peak_rss_mb", peak_rss, "MB")
    record.note(f"{bursts} bursts of {BURST_JOBS} distinct jobs, each "
                f"submitted twice; latency_tail_s is "
                f"p{tail['percentile']:.1f} of {tail['samples']} jobs; "
                f"setup_s is the median of {len(setups)} server spawns, "
                f"spread over the run")


def run_traced(seed: int, work: str,
               record: harness.Record) -> Dict[str, float]:
    """Two fully observed bursts on fresh servers: their exact counts must
    repeat."""
    jobs = Jobs(seed)
    order_rng = random.Random(seed + 1)
    passes = []
    for index in range(2):
        server = Server(work, index)
        try:
            specs = jobs.burst(BURST_JOBS)
            burst = run_burst(server, specs, order_rng, record)
            burst["metrics"] = server.client.metrics()
            if index == 0:
                check_sample(server, specs, burst["job_of"], order_rng,
                             record)
        finally:
            server.stop()
        passes.append(burst)

    def counters(burst: dict) -> Dict[str, int]:
        metrics = burst["metrics"]
        values = dict(metrics.get("counters", {}))
        values.update(metrics.get("backend", {}).get("counters", {}))
        return values

    exact = ("service.jobs.computed", "service.jobs.claimed",
             "service.jobs.done", "service.jobs.failed", "cache.store")
    harness.check_exact([counters(burst) for burst in passes], exact,
                        record, "traced bursts")

    def pooled_median(key: str) -> float:
        values = [value for burst in passes for value in burst[key]]
        return harness.median(values) if values else 0.0

    def parallelism(burst: dict) -> float:
        # A job can go queued -> done between two polls; only jobs seen
        # running have a run time, so their mean stands for every job's.
        if not burst["run_s"]:
            return 0.0
        mean_run = sum(burst["run_s"]) / len(burst["run_s"])
        return mean_run * burst["jobs"] / burst["makespan_s"]

    last = counters(passes[-1])
    layers: Dict[str, float] = {
        "service.submit_s": pooled_median("submit_s"),
        "service.status_s": pooled_median("status_s"),
        "service.queue_wait_s": pooled_median("queue_wait_s"),
        "service.run_s": pooled_median("run_s"),
        "service.parallelism": harness.median(
            [parallelism(burst) for burst in passes]),
        "service.dedup_ratio": (passes[-1]["deduplicated"]
                                / passes[-1]["submissions"]),
        "service.jobs.computed": last.get("service.jobs.computed", 0),
        "service.jobs.claimed": last.get("service.jobs.claimed", 0),
        "service.jobs.done": last.get("service.jobs.done", 0),
        "service.jobs.failed": last.get("service.jobs.failed", 0),
        "service.jobs.retried": last.get("service.jobs.retried", 0),
        "lock.acquired": last.get("lock.acquired", 0),
        "lock.contended": last.get("lock.contended", 0),
        "cache.hits": last.get("cache.hit", 0),
        "cache.misses": last.get("cache.miss", 0),
        "cache.stores": last.get("cache.store", 0),
    }
    seen = sum(len(burst["run_s"]) for burst in passes)
    total = sum(burst["jobs"] for burst in passes)
    record.note(f"traced: {len(passes)} observed bursts of {BURST_JOBS} "
                f"jobs; {seen} of {total} jobs were seen running, and "
                f"queue_wait_s, run_s and parallelism cover those")
    return layers
