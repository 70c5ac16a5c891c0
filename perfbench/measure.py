"""The benchmark's own arithmetic, independent of the code under test.

Everything here is pure: timings in, summary numbers out.  The lower bound
and the solution check use networkx only, so a defect in ``repro`` cannot
also hide itself in the numbers that judge it.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Iterable, Sequence

import networkx as nx

#: A tail percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75)


def tail_percentile(count: int) -> int | None:
    """The highest percentile in :data:`TAIL_PERCENTILES` with ten samples beyond it.

    ``count * (100 - p) / 100`` samples lie above the ``p``-th percentile of
    ``count`` samples; ``None`` when even the lowest candidate has too few.
    """
    for p in TAIL_PERCENTILES:
        if count * (100 - p) >= MIN_TAIL_SAMPLES * 100:
            return p
    return None


def timing_summary(samples: Sequence[float]) -> dict:
    """Median, sample count and the highest tail percentile the count supports."""
    if not samples:
        raise ValueError("no samples")
    summary = {"count": len(samples), "p50": statistics.median(samples)}
    p = tail_percentile(len(samples))
    if p is not None:
        summary[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return summary


def self_times(spans: Sequence[tuple[int | None, float, float]]) -> list[float]:
    """Self time of each ``(parent_index, start, end)`` span: its duration minus its children's.

    Spans come from one thread, so a child interval lies inside its parent's
    and siblings do not overlap; summed over a tree the self times therefore
    telescope to the root's duration.
    """
    own = [end - start for _, start, end in spans]
    for parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def mean_of_ratios(numerators: Iterable[float], denominators: Iterable[float]) -> float:
    """Mean over instances of ``numerator / denominator`` (each instance weighs the same)."""
    ratios = [num / den for num, den in zip(numerators, denominators, strict=True)]
    return statistics.fmean(ratios)


def ratio_of_sums(numerators: Iterable[float], denominators: Iterable[float]) -> float:
    """``sum(numerators) / sum(denominators)`` (each unit of work weighs the same)."""
    return math.fsum(numerators) / math.fsum(denominators)


def _weight(graph: nx.Graph, u, v) -> int:
    return graph[u][v].get("weight", 1)


def k_ecss_lower_bound(graph: nx.Graph, k: int) -> int:
    """``max(MST weight, ceil(sum_v (k cheapest weights at v) / 2))``.

    Any k-ECSS is connected (so weighs at least the MST) and gives every vertex
    degree at least ``k`` while counting each edge at most twice.
    """
    mst = sum(
        data.get("weight", 1)
        for _, _, data in nx.minimum_spanning_edges(graph, algorithm="kruskal", data=True)
    )
    degree_total = sum(
        sum(sorted(_weight(graph, v, u) for u in graph.neighbors(v))[:k]) for v in graph
    )
    return max(mst, (degree_total + 1) // 2)


def solution_problem(graph: nx.Graph, edges: Iterable, k: int, weight: int) -> str | None:
    """Why *edges* is not a k-edge-connected spanning subgraph of weight *weight*, or ``None``."""
    chosen = nx.Graph()
    chosen.add_nodes_from(graph)
    count = 0
    for u, v in edges:
        if not graph.has_edge(u, v):
            return f"edge {(u, v)!r} is not in the input graph"
        chosen.add_edge(u, v)
        count += 1
    if count != chosen.number_of_edges():
        return "duplicate edges in the solution"
    actual = sum(_weight(graph, u, v) for u, v in chosen.edges())
    if actual != weight:
        return f"reported weight {weight} but the edges weigh {actual}"
    if not nx.is_k_edge_connected(chosen, k):
        return f"solution is not {k}-edge-connected"
    return None


def instance_record(edges: Iterable, weight: int, rounds: int, iterations: int) -> list:
    """The per-instance output the digest covers: sorted edges, weight, rounds, iterations."""
    canonical = sorted(sorted((repr(u), repr(v))) for u, v in edges)
    return [canonical, weight, rounds, iterations]


def digest(records: Sequence) -> str:
    """Short SHA-256 over JSON-encoded per-instance records, in ladder order."""
    encoded = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


def import_cumulative_seconds(importtime_stderr: str, package: str) -> float:
    """Cumulative import time of *package* from ``python -X importtime`` output.

    Lines are printed children first, each indented one level deeper than its
    importer, so an entry's parent is the next later line that is less
    indented.  The package's time is the sum of the cumulative column over
    its entries that no other entry of the package imported.
    """
    entries: list[tuple[int, str, int]] = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name_field = fields[2]
        depth = len(name_field) - len(name_field.lstrip())
        entries.append((depth, name_field.strip(), int(fields[1])))

    def inside(name: str) -> bool:
        return name == package or name.startswith(package + ".")

    total_us = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if inside(name) and not any(inside(outer) for _, outer in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us / 1e6
