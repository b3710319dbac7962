"""Executable regeneration of every table and figure in the paper.

Each module exposes a ``run(...)`` function returning plain dict rows (used
by the benchmark suite and the tests) and a ``main()`` that prints a
formatted report, so e.g. ``python -m repro.experiments.table1`` regenerates
Table 1 from both the closed-form formulas and live measurements.

Submodules are imported on use (``from repro.experiments import table1``),
not here: importing them eagerly would make ``python -m
repro.experiments.table1`` find its own module already imported.
"""

__all__ = ["table1", "table2", "scaling", "intermix_report"]
