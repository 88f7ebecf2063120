"""Checks that the documented public API surfaces are importable.

A downstream user relies on the package ``__init__`` re-exports documented in
the README and the module docstrings; these tests pin them so refactors do
not silently break the public surface.
"""

import importlib
import warnings

import pytest


PUBLIC_SURFACE = {
    "repro": ["EnergyModel", "ModelConfig", "NodeEnergyBudget", "CaseStudy",
              "CaseStudyParameters", "CaseStudyResult", "ChannelInversionPolicy",
              "CC2420_PROFILE", "RadioState", "__version__"],
    "repro.sim": ["Environment", "Event", "Process", "Timeout", "Monitor",
                  "TimeWeightedMonitor", "CounterMonitor", "RandomStreams"],
    "repro.phy": ["Band", "PhyTiming", "TIMING_2450MHZ", "EmpiricalBerModel",
                  "AnalyticOqpskErrorModel", "PhyFrame", "OqpskDsssModulator",
                  "packet_error_probability"],
    "repro.radio": ["RadioState", "RadioPowerProfile", "CC2420_PROFILE",
                    "CC2420Radio", "EnergyLedger", "BerCalibration",
                    "fit_exponential_ber"],
    "repro.channel": ["AwgnLink", "CoherenceModel", "BlockFadingChannel",
                      "FreeSpacePathLoss", "LogDistancePathLoss",
                      "UniformPathLossDistribution", "WiredTestBench"],
    "repro.mac": ["MacConstants", "MAC_2450MHZ", "CsmaParameters",
                  "SlottedCsmaCa", "BeaconFrame", "DataFrame", "AckFrame",
                  "GtsManager", "IndirectQueue", "Superframe",
                  "SuperframeConfig", "AssociationService", "CommandFrame"],
    "repro.contention": ["ContentionSimulator", "ContentionStatistics",
                         "ContentionTable", "build_contention_table",
                         "ClosedFormContentionModel"],
    "repro.network": ["StarTopology", "uniform_disc_placement",
                      "PeriodicSensingTraffic", "BufferedTrafficSource",
                      "TrafficModel", "TrafficSource", "SaturatedTraffic",
                      "PoissonTraffic", "BurstyAlarmTraffic",
                      "MixedPopulation", "build_traffic_model",
                      "ChannelAllocator", "SensorNode",
                      "DenseNetworkScenario", "ChannelScenario"],
    "repro.core": ["EnergyModel", "ModelConfig", "NodeEnergyBudget",
                   "ActivationPolicy", "ChannelInversionPolicy",
                   "PacketSizeOptimizer", "BeaconOrderSelector",
                   "EnergyBreakdown", "TimeBreakdown", "ImprovementAnalysis",
                   "CaseStudy", "LifetimeAnalysis", "SensitivityAnalysis"],
    "repro.analysis": ["format_table", "Series", "SeriesCollection",
                       "ExperimentReport"],
    "repro.experiments": ["run_fig3_radio_characterization", "run_fig4_ber",
                          "run_fig6_csma", "run_fig7_link_adaptation",
                          "run_fig8_packet_size", "run_fig9_breakdown",
                          "run_case_study", "run_improvements",
                          "run_model_vs_simulation", "default_model"],
    "repro.runner": ["run_experiment", "RunResult", "ExperimentSpec",
                     "ExperimentRegistry", "UnknownExperimentError",
                     "default_registry", "SerialExecutor", "ProcessExecutor",
                     "make_executor", "run_ordered", "ResultCache",
                     "NullCache", "code_version", "DEFAULT_SEED",
                     "ParamSpec", "ParamSchema", "ParameterValueError",
                     "UnknownParameterError", "parse_param"],
    "repro.api": ["Session", "RunResult", "SweepSpec", "GridAxis",
                  "RangeAxis", "RandomAxis", "ParamSpec", "ParamSchema",
                  "ParameterValueError", "UnknownParameterError",
                  "UnknownExperimentError", "DEFAULT_SEED", "code_version"],
    "repro.sweep": ["SweepSpec", "GridAxis", "RangeAxis", "RandomAxis",
                    "run_sweep", "sweep_status", "expand_points",
                    "SweepRunResult", "SweepPoint", "SweepStatus",
                    "pareto_front", "knee_point", "dominates", "group_rows",
                    "aggregate_rows", "export_sweep", "sweep_manifest",
                    "write_rows", "get_sweep", "sweep_names",
                    "UnknownSweepError", "spec_from_payload"],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_SURFACE[module_name]:
        assert hasattr(module, name), f"{module_name} is missing {name}"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_all_lists_are_importable(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


#: Retired names that must no longer resolve: removed deprecation
#: aliases and the code paths superseded by one kernel per backend.
RETIRED_SURFACE = {
    "repro.runner": ["ExperimentRun"],
    "repro.runner.engine": ["ExperimentRun"],
    "repro.network": ["ChannelSimTask", "simulate_channel"],
    "repro.analysis": ["ParameterSweep", "SweepResult"],
    "repro.sim": ["Resource", "Store"],
}

#: Retired modules: superseded (``repro.sweep`` replaced the old parameter
#: sweep), unused (the simulation resources) or shim-only.
RETIRED_MODULES = ["repro.analysis.sweep", "repro.sim.resources",
                   "repro._deprecation"]


@pytest.mark.parametrize("module_name", sorted(RETIRED_SURFACE))
def test_retired_names_are_gone(module_name):
    module = importlib.import_module(module_name)
    for name in RETIRED_SURFACE[module_name]:
        assert not hasattr(module, name), f"{module_name} still has {name}"


@pytest.mark.parametrize("module_name", RETIRED_MODULES)
def test_retired_modules_cannot_be_imported(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


def test_import_and_run_raise_no_deprecation_warnings(tmp_path):
    """Internal call paths never touch a deprecated API: a tiny end-to-end
    run under an error filter must pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.runner import run_experiment
        from repro.runner.cli import main
        run = run_experiment("fig3_radio", cache_root=tmp_path)
        assert run.rows
        assert main(["list", "--verbose"]) == 0


# -- lazy package exports ---------------------------------------------------------------

#: Packages whose ``__init__`` resolves its exports on first access
#: (PEP 562), so importing one submodule never loads the whole package.
LAZY_PACKAGES = ["repro", "repro.analysis", "repro.service", "repro.sim",
                 "repro.sweep"]

#: Checked in a fresh interpreter, where nothing has been resolved yet.
LAZY_PROBE = """
import importlib, sys
name = sys.argv[1]
package = importlib.import_module(name)
exported = list(package.__all__)
missing = sorted(set(exported) - set(dir(package)))
assert not missing, ("dir() misses", missing)
namespace = {}
exec(f"from {name} import *", namespace)
assert set(exported) <= set(namespace), sorted(set(exported) - set(namespace))
try:
    package.no_such_export
except AttributeError as error:
    assert repr(name) in str(error), str(error)
else:
    raise AssertionError("unknown attribute resolved")
print("ok")
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_resolve_in_a_fresh_interpreter(package):
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE, package], capture_output=True,
        text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_export_is_cached_on_the_package(package):
    """After its first access a lazy name is a plain package attribute."""
    module = importlib.import_module(package)
    name = next(attr for attr in module.__all__ if attr != "__version__")
    value = getattr(module, name)
    assert vars(module)[name] is value


def test_registry_schema_choices_are_the_single_source_constants():
    """The registry declares its choices from ``repro.constants``; the
    model modules re-export the same objects, so the two cannot drift."""
    import repro.constants as constants
    from repro.contention.tables import PAPER_SEED
    from repro.experiments.common import (EXPERIMENT_SEED, TABLE_LOADS,
                                          TABLE_SIZES)
    from repro.network.routing import ROUTING_KINDS
    from repro.network.scenario import ChannelScenario
    from repro.network.topology import TOPOLOGY_KINDS
    from repro.network.traffic import TRAFFIC_MODEL_KINDS
    from repro.runner import DEFAULT_SEED, default_registry
    from repro.runner.drivers import ENGINE_TABLE_LOADS, ENGINE_TABLE_SIZES

    schema = default_registry().get("case_study_full").schema
    assert schema["backend"].choices is ChannelScenario.BACKENDS
    assert schema["topology"].choices is TOPOLOGY_KINDS
    assert schema["routing"].choices is ROUTING_KINDS
    assert schema["traffic_model"].choices is TRAFFIC_MODEL_KINDS
    assert ChannelScenario.BACKENDS is constants.SCENARIO_BACKENDS
    assert TOPOLOGY_KINDS is constants.TOPOLOGY_KINDS
    assert ROUTING_KINDS is constants.ROUTING_KINDS
    assert TRAFFIC_MODEL_KINDS is constants.TRAFFIC_MODEL_KINDS
    assert ENGINE_TABLE_LOADS is TABLE_LOADS is constants.TABLE_LOADS
    assert ENGINE_TABLE_SIZES is TABLE_SIZES is constants.TABLE_SIZES
    assert DEFAULT_SEED == PAPER_SEED == EXPERIMENT_SEED \
        == constants.PAPER_SEED
