"""Per-figure experiment modules and their registry.

Run one experiment::

    from repro.experiments import get_experiment
    result = get_experiment("F2").run(n_insts=40_000)
    print(result.render())

Adding an experiment: write a module whose docstring gives the paper
rationale and whose ``run(apps=, n_insts=, seed=)`` returns
:func:`~.common.build_table` over its ``ModelSpec`` variants and its
``(header, fn(AppRun))`` columns; then register it in
:data:`~.registry.EXPERIMENTS`.  ``Table.column(header)`` and
``Table.mean(header)`` read the result back.
"""

from .registry import EXPERIMENTS, Experiment, get_experiment

__all__ = ["EXPERIMENTS", "Experiment", "get_experiment"]
