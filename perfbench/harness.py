"""Shared plumbing of the end-to-end benchmark: paths, child processes,
percentiles and the result record.

This module never imports ``repro``: the parent harness process stays a
light client, so what it measures is the program's cost, not its own.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: The benchmark always runs from the root of a checkout.
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space of one invocation (caches, job stores, traces, captured
#: output).  Listed in the repository's ``.gitignore``; removed on exit.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Tail percentile rule: the highest percentile with at least this many
#: samples beyond it.
TAIL_BEYOND = 10

#: Hard wall limit of any single child process.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The program under test is missing or cannot run at all."""


def check_checkout() -> None:
    """Fail fast when the checkout holds no program to benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to benchmark: {SRC}/repro is missing "
                         "(run from the root of a repository checkout)")


def make_workdir() -> str:
    path = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only when no concurrent run still uses it
    except OSError:
        pass


def child_env(cache_dir: Optional[str] = None) -> Dict[str, str]:
    """Environment of a program process: sources on the path, an isolated
    cache, unbuffered output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = cache_dir
    return env


def compile_sources() -> None:
    """Byte-compile the program once, untimed, so no measured process pays
    a first-import compile that later ones skip."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL,
                   env=child_env(), timeout=CHILD_TIMEOUT_S)


@dataclass
class ChildResult:
    """Outcome of one child process run to completion."""

    returncode: int
    wall_s: float
    start_monotonic: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def _kill_after(pid: int, timeout_s: float) -> threading.Timer:
    def kill() -> None:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    timer = threading.Timer(timeout_s, kill)
    timer.daemon = True
    timer.start()
    return timer


def reap(process: subprocess.Popen, timeout_s: float = CHILD_TIMEOUT_S):
    """Wait for ``process`` with ``wait4`` (returning its exit code and
    peak RSS in MB); kill it when it outlives ``timeout_s``."""
    timer = _kill_after(process.pid, timeout_s)
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss / 1024.0


def run_child(command: Sequence[str], env: Dict[str, str], scratch: str,
              timeout_s: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one program process to completion, timing it from spawn to
    exit and capturing its output through files (no pipe can fill up)."""
    out_path = os.path.join(scratch, "child.stdout")
    err_path = os.path.join(scratch, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        process = subprocess.Popen(list(command), stdout=out, stderr=err,
                                   env=env, cwd=ROOT)
        returncode, rss_mb = reap(process, timeout_s)
        wall = time.monotonic() - start
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        return ChildResult(returncode, wall, start, rss_mb, out.read(),
                           err.read())


def last_json_line(data: bytes) -> dict:
    """The JSON record a helper child prints as its last stdout line."""
    lines = [line for line in data.decode("utf-8").splitlines()
             if line.strip()]
    if not lines:
        raise ValueError("child printed no result record")
    return json.loads(lines[-1])


def passes_for(seconds: float, nominal_pass_s: float) -> int:
    """Whole passes a run makes: ``seconds`` of work at the workload's
    nominal pass time.  The count depends on ``--seconds`` only, never on
    how fast this run happens to go, so every run of a workload does the
    same work and its quantiles cover the same op mix."""
    return max(1, round(seconds / nominal_pass_s))


def samples_after(index: int, passes: int, samples: int) -> int:
    """How many set-up samples a run takes after its pass ``index``, so
    that ``samples`` of them spread evenly over its ``passes``.  Set-up
    is then sampled across the run, as its ops are, and a slow phase of
    the machine at the start does not make the whole of ``setup_s``."""
    return (round((index + 1) * samples / passes)
            - round(index * samples / passes))


# -- statistics ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it: the (TAIL_BEYOND+1)-th largest sample, with its nearest-rank
    percentile and the sample count.  It is never below the median; with
    ``TAIL_BEYOND`` samples or fewer it is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return {"value": float(ordered[-1]), "percentile": 100.0,
                "samples": n}
    # Too few samples for a tail above the median: report the median.
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return {"value": float(ordered[rank - 1]),
            "percentile": 100.0 * rank / n, "samples": n}


def check_exact(passes: Sequence[Dict[str, int]],
                names: Optional[Sequence[str]], record: "Record",
                label: str) -> None:
    """Exact counts (``names``, or every count any pass has) must repeat
    between passes of the same work; a drift is a failure, never
    averaged away."""
    if names is None:
        names = sorted(set().union(*passes))
    drift = {name: [counts.get(name) for counts in passes]
             for name in names
             if len({counts.get(name) for counts in passes}) > 1}
    if drift:
        record.fail(f"{label}: exact counts drifted between passes: "
                    f"{drift}")


# -- the result record ---------------------------------------------------------------
class Record:
    """Everything one invocation reports: metrics, notes and op counts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add(self, name: str, value: float, unit: str) -> None:
        """Record one metric; exact counts stay integers."""
        exact = isinstance(value, int) and not isinstance(value, bool)
        self.metrics[name] = {"value": value if exact else float(value),
                              "unit": unit}

    def op(self, ok: bool, detail: str = "") -> None:
        """Count one attempted op; a failed or incorrect one counts as
        failed, with its reason kept for the report."""
        self.attempted += 1
        if not ok:
            self.fail(detail)

    def fail(self, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(detail)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def emit(self, names: Sequence[str]) -> Dict[str, object]:
        """Print the human summary, then the result JSON as the last line."""
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        attempted = max(1, self.attempted)
        print(f"workload {self.workload}: {self.attempted} ops attempted, "
              f"{self.failed} failed (fail_rate "
              f"{self.failed / attempted:.4f} of {attempted} ops)")
        for text in self.notes:
            print(f"  note: {text}")
        for text in self.failures:
            print(f"  FAILED: {text}")
        for name in names:
            metric = self.metrics[name]
            print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
        result = {"correct": self.failed == 0,
                  "attempted": attempted,
                  "failed": self.failed,
                  "metrics": {name: self.metrics[name] for name in names}}
        sys.stdout.flush()
        print(json.dumps(result))
        return result
