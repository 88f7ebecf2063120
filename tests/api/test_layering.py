"""One-way layering: the runner knows neither repro.api, sweep nor bench.

``repro.api`` sits on top of the runner, the sweep subsystem and the bench
subsystem; the runner package must import none of them at import time (the
CLI wires the sweep and bench command trees in lazily).  CI runs the same
assertion as a standalone step.

The cache-hit import budget pins what a replayed ``repro run`` loads: the
schema, the cache key and the stored JSON, never numpy or the model.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _run(code: str, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", **env})


def test_importing_the_runner_pulls_in_no_upper_layer():
    completed = _run(
        "import sys; import repro.runner, repro.runner.cli; "
        "offenders = sorted(m for m in sys.modules "
        "if m.startswith(('repro.api', 'repro.sweep', 'repro.bench', "
        "'repro.service'))); "
        "assert not offenders, offenders")
    assert completed.returncode == 0, completed.stderr


def test_importing_the_routing_layer_pulls_in_no_upper_layer():
    """The NET layer (topology + routing) sits below the runner: it may
    import the MAC, traffic and RNG substrate, never the orchestration
    layers above it.  CI runs the same assertion as a standalone step."""
    completed = _run(
        "import sys; import repro.network.routing, repro.network.topology; "
        "offenders = sorted(m for m in sys.modules "
        "if m.startswith(('repro.runner', 'repro.api', 'repro.sweep', "
        "'repro.bench'))); "
        "assert not offenders, offenders")
    assert completed.returncode == 0, completed.stderr


def test_importing_obs_pulls_in_nothing_above_the_sim_substrate():
    """``repro.obs`` sits just above :mod:`repro.sim`: importing it must
    not pull in the runner, sweep, bench, api or any simulation-domain
    package.  The check diffs against the modules ``import repro`` loads
    (the package and its lazy-export helper).  CI runs the same assertion
    as a standalone step."""
    completed = _run(
        "import sys, repro; base = set(sys.modules); import repro.obs; "
        "offenders = sorted(m for m in set(sys.modules) - base "
        "if m.startswith('repro.') "
        "and not m.startswith(('repro.obs', 'repro.sim'))); "
        "assert not offenders, offenders")
    assert completed.returncode == 0, completed.stderr


def test_importing_the_facade_pulls_in_no_service_layer():
    """``repro.service`` sits *above* the façade; importing ``repro.api``
    must not load it (the CLI wires serve/jobs in lazily)."""
    completed = _run(
        "import sys; import repro.api; "
        "offenders = sorted(m for m in sys.modules "
        "if m.startswith('repro.service')); "
        "assert not offenders, offenders")
    assert completed.returncode == 0, completed.stderr


def test_service_sources_import_nothing_below_the_facade():
    """Static check of the service seam: every ``repro.*`` import in
    ``src/repro/service/`` is the façade, the obs layer, the service
    package itself, or the cache-backend protocol — never the runner,
    sweep, bench or simulation layers directly.  CI runs the same
    assertion as a standalone step."""
    import ast

    allowed = ("repro.api", "repro.obs", "repro.service",
               "repro.runner.backends")
    offenders = []
    for path in sorted((SRC / "repro" / "service").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            for name in names:
                if name.startswith("repro") and not name.startswith(allowed):
                    offenders.append(f"{path.name}: {name}")
    assert not offenders, offenders


def test_importing_the_service_loads_no_layer_below_the_facade_directly():
    """Runtime counterpart: loading ``repro.service`` only reaches the
    engine through the modules ``repro.api`` itself already loaded."""
    completed = _run(
        "import sys; import repro.api; base = set(sys.modules); "
        "import repro.service, repro.service.cli; "
        "offenders = sorted(m for m in set(sys.modules) - base "
        "if m.startswith('repro.') "
        "and not m.startswith(('repro.service', 'repro.obs'))); "
        "assert not offenders, offenders")
    assert completed.returncode == 0, completed.stderr


def test_importing_the_facade_is_self_contained_and_runs(tmp_path):
    """The documented entry point works from a cold interpreter."""
    completed = _run(
        "import repro.api as api; "
        f"session = api.Session(cache_dir={str(tmp_path)!r}); "
        "result = session.run('fig3_radio'); "
        "assert result.rows and not result.cache_hit; "
        "print(result.experiment, len(result.rows))")
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("fig3_radio")


#: One ``repro run fig3_radio --output json`` through ``main`` in a fresh
#: interpreter; prints its exit status, stderr summary, stdout and modules.
RUN_PROBE = """
import contextlib, io, json, sys
from repro.runner.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    status = main(["run", "fig3_radio", "--output", "json"])
print(json.dumps({"status": status, "summary": err.getvalue(),
                  "rows": out.getvalue(), "modules": sorted(sys.modules)}))
"""

#: Never loaded by a cache hit: numpy, the model layers, the layers above
#: the runner, and the heavy stdlib the service and the process pool use.
NOT_ON_THE_HIT_PATH = (
    "numpy", "repro.core", "repro.radio", "repro.contention",
    "repro.network", "repro.mac", "repro.experiments", "repro.api",
    "repro.sweep", "repro.service", "repro.bench", "http.server", "sqlite3",
    "concurrent.futures.process")

#: Every ``repro`` module a cache hit loads, exactly.  A module joining this
#: path is a deliberate decision: update the list (and the budget note in
#: docs/architecture.md) in the same change.
HIT_PATH_MODULES = [
    "repro", "repro._lazy", "repro.analysis", "repro.analysis.io",
    "repro.analysis.tables", "repro.constants", "repro.obs",
    "repro.obs.parallel", "repro.obs.report", "repro.obs.trace",
    "repro.obs.tracer", "repro.runner", "repro.runner.backends",
    "repro.runner.cache", "repro.runner.cli", "repro.runner.drivers",
    "repro.runner.engine", "repro.runner.executor", "repro.runner.params",
    "repro.runner.registry", "repro.runner.result", "repro.sim",
    "repro.sim.monitor",
]


def _probe_run(cache_dir: Path) -> dict:
    completed = _run(RUN_PROBE, REPRO_CACHE_DIR=str(cache_dir))
    assert completed.returncode == 0, completed.stderr
    probe = json.loads(completed.stdout)
    assert probe["status"] == 0, probe["summary"]
    return probe


def test_a_cache_hit_imports_only_the_schema_key_and_json(tmp_path):
    miss = _probe_run(tmp_path)
    hit = _probe_run(tmp_path)
    assert "[cache]" in hit["summary"], hit["summary"]
    loaded = set(hit["modules"])
    assert not loaded & set(NOT_ON_THE_HIT_PATH), \
        sorted(loaded & set(NOT_ON_THE_HIT_PATH))
    assert [name for name in hit["modules"]
            if name == "repro" or name.startswith("repro.")] \
        == HIT_PATH_MODULES
    assert hit["rows"] == miss["rows"]


def test_a_cache_miss_still_loads_numpy_and_the_model(tmp_path):
    """The converse: the same process shape on an empty cache computes,
    so it loads numpy and the fig3 driver, and prints the rows the later
    hit replays."""
    miss = _probe_run(tmp_path)
    assert "[computed" in miss["summary"], miss["summary"]
    loaded = set(miss["modules"])
    assert {"numpy", "repro.radio.cc2420",
            "repro.experiments.fig3_radio"} <= loaded
    assert json.loads(miss["rows"])
    assert _probe_run(tmp_path)["rows"] == miss["rows"]
