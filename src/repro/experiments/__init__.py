"""Per-table and per-figure reproduction scripts.

Each module exposes ``run(runner) -> ExperimentOutput`` that
regenerates the corresponding table or figure of the paper (as an ASCII
rendering plus structured data) with the
:class:`~repro.harness.experiment.ExperimentRunner` it is given, and
can be executed directly::

    python -m repro.experiments.table2

Modules share one runner when invoked through :func:`run_all`, so
overlapping measurements are reused.
"""

from repro.experiments.common import ExperimentOutput

__all__ = ["ExperimentOutput", "run_all", "EXPERIMENTS"]

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


def run_all(verbose: bool = True):
    """Regenerate every table and figure; returns outputs by name.

    ``verbose`` narrates progress through the ``repro`` logger rather
    than printing: attach a handler (the CLI uses
    :func:`repro.observability.log.enable_console`) to see it.
    """
    import importlib

    from repro.harness.experiment import ExperimentRunner
    from repro.observability.log import narrate

    runner = ExperimentRunner(verbose=verbose)
    outputs = {}
    for name in EXPERIMENTS:
        module = importlib.import_module(f"repro.experiments.{name}")
        output = module.run(runner)
        outputs[name] = output
        if verbose:
            narrate("%s\n", output.text)
    return outputs
