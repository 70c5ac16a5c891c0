"""Experiment harness: engine, backends, tables and the experiments.

The paper contains no empirical evaluation, so the experiments here measure
the quantitative content of its theorems (see DESIGN.md §1 and §4) --
approximation ratios against exact optima / lower bounds, round-complexity
scaling against the claimed bounds, iteration counts, decomposition and
cycle-space properties, and ablations of the design choices.

Trials fan out over pluggable execution backends
(:mod:`repro.analysis.backends`: serial, processes, cluster, or registered
third-party backends) and replay from an on-disk cache via
:class:`~repro.analysis.engine.ExperimentEngine`.  Cache entries are keyed by
code versions derived from solver-module content hashes
(:mod:`repro.analysis.code_version`) and cleaned up with
:func:`~repro.analysis.engine.cache_gc` /
:func:`~repro.analysis.engine.cache_clear`.  See
:mod:`repro.analysis.experiments` for the registered experiments and
:mod:`repro.analysis.differential` for the engine-sharded differential
trials.
"""

from repro.analysis.tables import Table
from repro.analysis.runner import TrialFailure, TrialResult
from repro.analysis.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    register_backend,
    resolve_backend,
)
from repro.analysis.code_version import code_version_for
from repro.analysis.engine import (
    CODE_VERSION,
    CacheFidelityError,
    ExperimentEngine,
    TrialJob,
    cache_clear,
    cache_gc,
    cache_stats,
)
from repro.analysis import experiments

__all__ = [
    "Table",
    "TrialResult",
    "TrialFailure",
    "ExperimentEngine",
    "TrialJob",
    "CODE_VERSION",
    "CacheFidelityError",
    "code_version_for",
    "cache_stats",
    "cache_gc",
    "cache_clear",
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "register_backend",
    "resolve_backend",
    "experiments",
]
