"""Analysis and reporting utilities.

Plot-free (terminal friendly) helpers used by the experiment drivers, the
examples and the benchmark harness:

* :mod:`repro.analysis.tables` — fixed-width ASCII tables;
* :mod:`repro.analysis.series` — named (x, y) series containers standing in
  for the paper's figures;
* :mod:`repro.analysis.report` — experiment report assembly (paper value vs
  measured value, relative error, pass/fail against a tolerance band);
* :mod:`repro.analysis.keys` — type-aware value keys (``bool`` never
  conflated with ``int``) shared by every row grouping/filtering helper;
* :mod:`repro.analysis.io` — deterministic CSV/JSON row writers.

The names load lazily: the CLI's row writers and tables never import the
numpy-backed series containers.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.keys": ("typed_key", "values_equal"),
    "repro.analysis.report": ("ComparisonRow", "ExperimentReport"),
    "repro.analysis.series": ("Series", "SeriesCollection"),
    "repro.analysis.tables": ("format_table",),
})

__all__ = [
    "format_table",
    "typed_key",
    "values_equal",
    "Series",
    "SeriesCollection",
    "ComparisonRow",
    "ExperimentReport",
]
