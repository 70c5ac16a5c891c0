"""Outside-in tracing: wrap each layer's public callables from the benchmark's side.

The program itself is not modified.  :class:`Instrumentation` replaces every
binding of a layer function in the loaded ``repro`` modules (the caller's
``from ... import`` name as well as the defining module's), or the method on
its class, with a wrapper that opens a span on a :class:`SpanRecorder`, and
puts the originals back on exit.  Spans are parent-linked, kept in memory and
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from perfbench.measure import self_times


class SpanRecorder:
    """Parent-linked spans of one thread, kept in flat lists until written out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int | None] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def self_times(self) -> list[float]:
        return self_times(list(zip(self.parents, self.starts, self.ends)))

    def subtree(self, root: int) -> list[int]:
        """*root* and every span opened inside it (spans are stored in open order)."""
        members = {root}
        index = root + 1
        while index < len(self.names) and self.parents[index] in members:
            members.add(index)
            index += 1
        return sorted(members)

    def totals(self, roots: Sequence[int]) -> dict[str, dict[str, float]]:
        """Per span name over the subtrees of *roots*: ``s`` (inclusive), ``self_s``, ``calls``."""
        own = self.self_times()
        table: dict[str, dict[str, float]] = {}
        for root in roots:
            for index in self.subtree(root):
                row = table.setdefault(self.names[index], {"s": 0.0, "self_s": 0.0, "calls": 0})
                row["s"] += self.ends[index] - self.starts[index]
                row["self_s"] += own[index]
                row["calls"] += 1
        return table

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, name in enumerate(self.names):
                handle.write(json.dumps({
                    "id": index, "parent": self.parents[index], "name": name,
                    "start": self.starts[index], "end": self.ends[index],
                }) + "\n")


@dataclass(frozen=True)
class Layer:
    """One traced callable.

    Attributes:
        span: Span name, also the prefix of its per-layer metrics.
        module: Module that defines the callable.
        attr: Function name, or ``Class.method``.
        count: Optional ``(counter, result -> amount)`` read off each return value.
    """

    span: str
    module: str
    attr: str
    count: tuple[str, Callable[[object], int]] | None = None


SOLVER_LAYERS = (
    Layer("core.k_ecss", "repro.core.k_ecss", "k_ecss"),
    Layer("core.two_ecss", "repro.core.two_ecss", "two_ecss"),
    Layer("core.three_ecss", "repro.core.three_ecss", "three_ecss",
          ("core.three_ecss.iterations", lambda result: result.iterations)),
    Layer("core.augment_to_k", "repro.core.k_ecss", "augment_to_k",
          ("core.aug_iterations", lambda result: result.iterations)),
    Layer("fastaug.BitsetCoverKernel.score", "repro.core.fastaug", "BitsetCoverKernel.score"),
    Layer("fastaug.BitsetCoverKernel.add_many", "repro.core.fastaug",
          "BitsetCoverKernel.add_many"),
    Layer("fastaug.PathLabelKernel.score_round", "repro.core.fastaug",
          "PathLabelKernel.score_round"),
    Layer("cycle_space.compute_labels", "repro.cycle_space.labels", "compute_labels"),
    Layer("graphs.hop_diameter", "repro.graphs.fastgraph", "hop_diameter"),
    Layer("graphs.enumerate_cuts_of_size", "repro.graphs.cuts", "enumerate_cuts_of_size"),
    Layer("graphs.is_k_edge_connected", "repro.graphs.connectivity", "is_k_edge_connected"),
    Layer("graphs.verify", "repro.graphs.connectivity", "verify_spanning_subgraph"),
    Layer("congest.simulate_bfs_tree", "repro.congest.primitives", "simulate_bfs_tree",
          ("congest.bfs_rounds", lambda result: result[1].rounds)),
    Layer("mst.minimum_spanning_tree", "repro.mst.sequential", "minimum_spanning_tree"),
    Layer("mst.build_mst_with_fragments", "repro.mst.distributed", "build_mst_with_fragments"),
    Layer("decomposition.build_decomposition", "repro.decomposition.segments",
          "build_decomposition"),
    Layer("tap.distributed_tap", "repro.tap.distributed", "distributed_tap",
          ("tap.iterations", lambda result: result.iterations)),
)

ENGINE_LAYERS = (
    Layer("engine.run_jobs", "repro.analysis.engine", "ExperimentEngine.run_jobs"),
    Layer("engine.code_version_for", "repro.analysis.code_version", "code_version_for"),
    Layer("store.ingest", "repro.store.store", "TrialStore.ingest"),
)


def _traced(recorder: SpanRecorder, layer: Layer, original: Callable) -> Callable:
    name = layer.span

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if layer.count is not None:
            counter, amount = layer.count
            recorder.counts[counter] += amount(result)
        return result

    return traced


class Instrumentation:
    """Context manager that routes every binding of *layers* through span wrappers."""

    def __init__(self, recorder: SpanRecorder, layers: Sequence[Layer]) -> None:
        self._patches: list[tuple[object, str, object, Callable]] = []
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for layer in layers:
            owner: object = importlib.import_module(layer.module)
            class_name, _, method = layer.attr.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[method]
                sites = [(owner, method)]
            else:
                original = getattr(owner, method)
                sites = [
                    (module, key) for module in modules
                    for key, value in vars(module).items() if value is original
                ]
            wrapper = _traced(recorder, layer, original)
            self._patches.extend((site, key, original, wrapper) for site, key in sites)

    def __enter__(self) -> "Instrumentation":
        for site, key, _, wrapper in self._patches:
            setattr(site, key, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for site, key, original, _ in self._patches:
            setattr(site, key, original)
