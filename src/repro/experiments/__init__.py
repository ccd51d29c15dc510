"""Experiment harnesses.

One module per experiment in DESIGN.md's index. Each exposes ``run_*``
functions returning structured results and a ``main`` that renders them with
:mod:`repro.experiments.common` (``python -m repro <id>`` prints it).
``tests/acceptance/`` holds one module per experiment that calls these
harnesses and asserts the shape the paper's argument predicts.
"""

from .common import fmt_table, planes_under_test

__all__ = ["fmt_table", "planes_under_test"]
