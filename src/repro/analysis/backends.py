"""Pluggable execution backends for the experiment engine.

The engine used to drive a hard-coded ``ProcessPoolExecutor``; sweeps that
want to scale past one machine (MPI, ray, a job queue) had to patch the
engine itself.  This module separates *what* to run (the engine's job
batches) from *where* to run it, following the scheduler/executor split of
container orchestration systems: an :class:`ExecutionBackend` maps a
picklable function over a batch of items and returns the results **in item
order**, and a string registry (:data:`BACKENDS`) lets new backends plug in
by name without touching :class:`~repro.analysis.engine.ExperimentEngine`.

Four backends ship by default:

* ``"serial"`` -- in-process ``for`` loop; zero overhead, always available.
* ``"processes"`` -- ``ProcessPoolExecutor``; true parallelism for
  CPU-bound solver trials (functions and items must pickle).
* ``"cluster"`` -- the socket work queue of :mod:`repro.analysis.cluster`
  (loopback worker processes by default, external ``kecss worker`` peers
  via ``REPRO_CLUSTER_LISTEN``); registered lazily through
  :data:`_BACKEND_AUTOLOAD` so importing this module stays cheap.
* ``"failover"`` -- the graceful-degradation chain of
  :mod:`repro.analysis.faults` (``cluster -> processes -> serial``), also
  autoloaded; infrastructure failures fall through the chain instead of
  failing the sweep, and every degradation is recorded into provenance.

Backends may optionally be context managers: entering one acquires a
persistent resource (an executor pool, a coordinator plus its workers)
that successive ``map`` calls reuse, and exiting releases it.  The engine
enters its backend when used as ``with engine:`` so pool startup amortises
across batches; an un-entered ``map`` stays self-contained, acquiring and
releasing per call.

Because trial seeds are derived up front, every backend produces
bit-identical results; only the wall-clock differs.
"""

from __future__ import annotations

import importlib

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, TypeVar, runtime_checkable

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "BACKENDS",
    "available_backends",
    "register_backend",
    "resolve_backend",
]

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


@runtime_checkable
class ExecutionBackend(Protocol):
    """Maps a function over a batch of items, preserving item order.

    Implementations must be deterministic in *ordering*: ``map(f, items)``
    returns ``[f(items[0]), f(items[1]), ...]`` regardless of the order the
    calls actually execute in.  ``name`` identifies the backend in summaries
    and registry lookups.
    """

    name: str

    def map(
        self, function: Callable[[_Item], _Result], items: Sequence[_Item]
    ) -> list[_Result]:
        """Apply *function* to every item; results come back in item order."""
        ...


#: Backend name -> factory taking a ``workers`` keyword.  ``register_backend``
#: adds entries; MPI/ray backends can register here without engine changes.
BACKENDS: dict[str, Callable[..., ExecutionBackend]] = {}

#: Backends registered on first use: name -> module whose import runs the
#: ``register_backend`` call.  Keeps ``import repro.analysis.backends`` free
#: of the heavier backends' dependencies (multiprocessing, sockets).
_BACKEND_AUTOLOAD: dict[str, str] = {
    "cluster": "repro.analysis.cluster.backend",
    "failover": "repro.analysis.faults",
}


def available_backends() -> list[str]:
    """Every resolvable backend name (registered plus autoloadable), sorted."""
    return sorted(set(BACKENDS) | set(_BACKEND_AUTOLOAD))


def register_backend(name: str):
    """Register the decorated backend factory/class under *name*."""

    def decorate(factory):
        BACKENDS[name] = factory
        return factory

    return decorate


@register_backend("serial")
@dataclass
class SerialBackend:
    """In-process sequential execution; the reference all others must match."""

    workers: int = 1
    name: str = "serial"

    def map(self, function, items):
        return [function(item) for item in items]


def _map_chunksize(n_items: int, pool_size: int) -> int:
    """``Executor.map`` chunksize: a few chunks per worker, never below 1.

    ``ProcessPoolExecutor.map`` defaults to chunksize 1 -- one IPC round
    trip per item, which dominates the wall clock when trials run in
    microseconds.  A few chunks per worker amortises the pickling without
    costing load balance on small batches.
    """
    return max(1, n_items // (max(1, pool_size) * 4))


@register_backend("processes")
@dataclass
class ProcessBackend:
    """``ProcessPoolExecutor`` fan-out; functions and items must pickle.

    Used as a context manager, one executor pool persists across ``map``
    calls (``ExperimentEngine`` enters its backend under ``with engine:``
    to amortise pool startup over a batch sequence); un-entered, each
    ``map`` spins up and tears down its own pool, as it always did.
    """

    workers: int = 2
    name: str = "processes"
    _pool = None  # class attribute: set per instance while entered

    def __enter__(self):
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=max(1, self.workers))
        return self

    def __exit__(self, exc_type, exc, tb):
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def map(self, function, items):
        items = list(items)
        if self._pool is not None:
            return list(
                self._pool.map(
                    function, items,
                    chunksize=_map_chunksize(len(items), self.workers),
                )
            )
        if self.workers <= 1 or len(items) <= 1:
            return [function(item) for item in items]
        pool_size = min(self.workers, len(items))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            return list(
                pool.map(
                    function, items,
                    chunksize=_map_chunksize(len(items), pool_size),
                )
            )


def resolve_backend(
    spec: str | ExecutionBackend | None, workers: int = 1
) -> ExecutionBackend:
    """Resolve *spec* to a backend instance.

    ``None`` picks the historical default from *workers* (serial for one
    worker, processes otherwise), a string is looked up in :data:`BACKENDS`
    and instantiated with ``workers=workers``, and an existing backend
    instance passes through unchanged.
    """
    if spec is None:
        spec = "serial" if workers <= 1 else "processes"
    if isinstance(spec, str):
        if spec not in BACKENDS and spec in _BACKEND_AUTOLOAD:
            # Importing the module runs its register_backend decorator.
            importlib.import_module(_BACKEND_AUTOLOAD[spec])
        try:
            factory = BACKENDS[spec]
        except KeyError:
            raise KeyError(
                f"no execution backend registered under {spec!r}; "
                f"known backends: {available_backends()}"
            ) from None
        return factory(workers=workers)
    return spec
