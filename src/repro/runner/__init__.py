"""Experiment engine: registry, parallel executors and result caching.

This package turns the per-figure drivers of :mod:`repro.experiments` into
one orchestrated system:

* :mod:`repro.runner.params` — typed parameter schemas
  (:class:`ParamSpec`/:class:`ParamSchema`): validation, coercion to
  canonical values and did-you-mean errors shared by every entry point;
* :mod:`repro.runner.registry` — declarative catalogue of every experiment
  (name, typed schema, outputs, runtime estimate) with helpful lookup
  errors;
* :mod:`repro.runner.result` — :class:`RunResult`, the first-class result
  object every engine run returns (rows, metric accessors, provenance,
  deterministic ``to_table``/``to_json``/``to_csv``);
* :mod:`repro.runner.executor` — serial and process-pool execution
  strategies sharing one streaming ``(index, result)`` interface;
* :mod:`repro.runner.cache` — content-addressed on-disk JSON cache keyed by
  (experiment, parameters, seed, code version);
* :mod:`repro.runner.drivers` — adapters mapping each paper driver onto the
  engine contract (loaded lazily by :func:`default_registry`);
* :mod:`repro.runner.engine` — :func:`run_experiment`, the single
  programmatic entry point;
* :mod:`repro.runner.cli` — the ``python -m repro`` command line.

Determinism is the engine's core guarantee: every parallel task carries its
own seed spawned from the run's master seed, so ``--jobs N`` changes the
wall-clock, never the rows.
"""

from repro.runner.cache import NullCache, ResultCache, code_version
from repro.runner.engine import DEFAULT_SEED, run_experiment
from repro.runner.executor import (ProcessExecutor, SerialExecutor,
                                   make_executor, run_ordered)
from repro.runner.params import (ParamSchema, ParamSpec, ParameterValueError,
                                 UnknownParameterError, parse_param)
from repro.runner.registry import (ExperimentRegistry, ExperimentSpec,
                                   RunContext, UnknownExperimentError,
                                   default_registry)
from repro.runner.result import RunResult

__all__ = [
    "DEFAULT_SEED",
    "ExperimentRegistry",
    "ExperimentSpec",
    "NullCache",
    "ParamSchema",
    "ParamSpec",
    "ParameterValueError",
    "ProcessExecutor",
    "ResultCache",
    "RunContext",
    "RunResult",
    "SerialExecutor",
    "UnknownExperimentError",
    "UnknownParameterError",
    "code_version",
    "default_registry",
    "make_executor",
    "parse_param",
    "run_experiment",
    "run_ordered",
]
