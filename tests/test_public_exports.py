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
