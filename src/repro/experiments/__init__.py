"""Per-table and per-figure reproductions of the paper.

Each module declares the run keys it reads, ``keys() -> List[RunKey]``,
and renders its table or figure (ASCII text plus structured data) with
a pure ``render(results) -> ExperimentOutput`` over a mapping from each
declared key to its measurement.  :func:`reproduce` runs them, and
``repro reproduce <id>|all`` calls it.
"""

from repro.experiments.common import ExperimentOutput

__all__ = ["ExperimentOutput", "reproduce", "EXPERIMENTS"]

EXPERIMENTS = [
    "table1",
    "table2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "table3",
    # Extensions beyond the paper:
    "wear_analysis",
    "crystal_gazer",
    "llc_sensitivity",
    "scale_robustness",
    "observer_sweep",
    "writes_breakdown",
    "migration_vs_gc",
]


def reproduce(names, runner, max_workers=None):
    """Render the experiments ``names`` from one ``runner.sweep`` of
    the union of their keys (deduplicated in declaration order; a pool
    of ``max_workers``, ``1`` for in-process).  A failed key renders
    as ``ERR`` cells (:func:`~repro.experiments.common.error_result`).

    Returns ``({name: ExperimentOutput}, failed RunOutcomes)``.
    """
    import importlib

    from repro.experiments.common import error_result

    modules = {name: importlib.import_module(f"repro.experiments.{name}")
               for name in names}
    keys = list(dict.fromkeys(key for module in modules.values()
                              for key in module.keys()))
    report = runner.sweep(keys, max_workers=max_workers)
    results = {outcome.key: (outcome.result if outcome.ok
                             else error_result(outcome.key))
               for outcome in report.outcomes}
    outputs = {name: module.render(results)
               for name, module in modules.items()}
    return outputs, report.failures
