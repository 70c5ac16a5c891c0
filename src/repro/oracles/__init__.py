"""Reference implementations the flat-array solvers are tested against.

Every solver module has one implementation, the kernel that runs.  The
historical implementations they were ported from live here unchanged, one
module per area (``graphs``, ``tap``, ``cycle_space``, ``k_ecss``,
``three_ecss``, ``cost_effectiveness``), as the oracles of the ``diff-*``
trials in :mod:`repro.analysis.differential`.  Only those trials and the
tests import this package, so editing an oracle never invalidates the cached
results of code that does not run it.
"""
