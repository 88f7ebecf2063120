"""Analysis and reporting utilities.

Plot-free (terminal friendly) helpers used by the experiment drivers, the
examples and the benchmark harness:

* :mod:`repro.analysis.tables` — fixed-width ASCII tables;
* :mod:`repro.analysis.series` — named (x, y) series containers standing in
  for the paper's figures;
* :mod:`repro.analysis.report` — experiment report assembly (paper value vs
  measured value, relative error, pass/fail against a tolerance band);
* :mod:`repro.analysis.keys` — type-aware value keys (``bool`` never
  conflated with ``int``) shared by every row grouping/filtering helper.
"""

from repro.analysis.keys import typed_key, values_equal
from repro.analysis.report import ComparisonRow, ExperimentReport
from repro.analysis.series import Series, SeriesCollection
from repro.analysis.tables import format_table

__all__ = [
    "format_table",
    "typed_key",
    "values_equal",
    "Series",
    "SeriesCollection",
    "ComparisonRow",
    "ExperimentReport",
]
