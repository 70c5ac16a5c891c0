"""Tests of the benchmark's own arithmetic and tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import networkx as nx
import pytest

from perfbench import measure
from perfbench.layers import Instrumentation, Layer, SpanRecorder


@pytest.mark.parametrize(
    ("count", "expected"),
    [(1, None), (39, None), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95),
     (999, 95), (1000, 99), (5000, 99)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(count, expected):
    assert measure.tail_percentile(count) == expected


def test_timing_summary_states_count_and_only_supported_tails():
    small = measure.timing_summary([3.0, 1.0, 2.0])
    assert small == {"count": 3, "p50": 2.0}
    samples = [float(i) for i in range(1, 101)]
    summary = measure.timing_summary(samples)
    assert summary["count"] == 100
    assert summary["p50"] == 50.5
    assert set(summary) == {"count", "p50", "p90"}
    # At least ten samples lie strictly above the reported p90.
    assert sum(1 for value in samples if value > summary["p90"]) >= 10
    with pytest.raises(ValueError):
        measure.timing_summary([])


def test_self_time_is_span_minus_children():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [(None, 0.0, 10.0), (0, 1.0, 4.0), (1, 2.0, 3.0), (0, 5.0, 9.0)]
    own = measure.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(10.0)


def test_recorder_totals_and_subtrees():
    recorder = SpanRecorder()
    first = recorder.open("solve")
    inner = recorder.open("layer")
    recorder.close(inner)
    recorder.close(first)
    second = recorder.open("solve")
    recorder.close(second)
    assert recorder.subtree(first) == [first, inner]
    assert recorder.subtree(second) == [second]
    table = recorder.totals([first, second])
    assert table["solve"]["calls"] == 2 and table["layer"]["calls"] == 1
    whole = sum(recorder.ends[i] - recorder.starts[i] for i in (first, second))
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(whole)
    with pytest.raises(RuntimeError):
        outer = recorder.open("a")
        recorder.open("b")
        recorder.close(outer)


def test_ratio_bases_differ_as_stated():
    # Two instances: weights 10 and 30 against bounds 10 and 10.
    assert measure.mean_of_ratios([10, 30], [10, 10]) == 2.0
    # Work per second weighs instances by their time: 100 + 300 edges in 1 + 3 s.
    assert measure.ratio_of_sums([100, 300], [1.0, 3.0]) == 100.0
    assert measure.mean_of_ratios([100, 300], [1.0, 3.0]) == 100.0
    assert measure.ratio_of_sums([100, 100], [1.0, 3.0]) == 50.0
    assert measure.mean_of_ratios([100, 100], [1.0, 3.0]) == pytest.approx(200 / 3)


def _small_graphs():
    from repro.graphs.generators import make_family

    for family in ("weighted-sparse", "weighted-dense", "weighted-k3", "torus", "powerlaw"):
        for seed in range(3):
            yield make_family(family)(12 + 4 * seed, seed=seed)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lower_bound_matches_the_repository_bound(k):
    from repro.baselines.mst_baseline import k_ecss_lower_bound

    for graph in _small_graphs():
        if min(degree for _, degree in graph.degree()) < k:
            continue
        assert measure.k_ecss_lower_bound(graph, k) == k_ecss_lower_bound(graph, k)


def test_lower_bound_takes_the_larger_part_and_rounds_up():
    k4 = nx.Graph()
    for u, v, weight in [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 2), (1, 3, 2), (2, 3, 3)]:
        k4.add_edge(u, v, weight=weight)
    # k=1: the MST (the star at 0, weight 3) beats ceil((1+1+1+1) / 2) = 2.
    assert measure.k_ecss_lower_bound(k4, 1) == 3
    # k=2: the degree bound ceil((2+3+3+3) / 2) = ceil(5.5) = 6 beats the MST.
    assert measure.k_ecss_lower_bound(k4, 2) == 6


def test_solution_problem_flags_each_defect():
    graph = nx.cycle_graph(5)
    for u, v in graph.edges():
        graph[u][v]["weight"] = 2
    graph.add_edge(0, 2, weight=7)
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    assert measure.solution_problem(graph, cycle, 2, 10) is None
    assert "not in the input graph" in measure.solution_problem(graph, cycle + [(1, 3)], 2, 10)
    assert "duplicate" in measure.solution_problem(graph, cycle + [(1, 0)], 2, 10)
    assert "weigh" in measure.solution_problem(graph, cycle, 2, 11)
    assert "2-edge-connected" in measure.solution_problem(graph, cycle[:-1], 2, 8)
    assert "3-edge-connected" in measure.solution_problem(graph, cycle, 3, 10)


def test_digest_covers_edges_weight_rounds_iterations():
    base = measure.instance_record([(1, 0), (1, 2)], 5, 40, 3)
    assert base == measure.instance_record([(2, 1), (0, 1)], 5, 40, 3)
    records = [base]
    for changed in (measure.instance_record([(0, 1)], 5, 40, 3),
                    measure.instance_record([(0, 1), (1, 2)], 6, 40, 3),
                    measure.instance_record([(0, 1), (1, 2)], 5, 41, 3),
                    measure.instance_record([(0, 1), (1, 2)], 5, 40, 4)):
        assert measure.digest([changed]) != measure.digest(records)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       scipy._lib
import time:       200 |        300 |     scipy
import time:        50 |         50 |       numpy.core
import time:       400 |        450 |     numpy
import time:        70 |         70 |         scipy.sparse._base
import time:        30 |        100 |       scipy.sparse
import time:        20 |        120 |     scipy.optimize
import time:        10 |        880 |   repro.baselines.exact
import time:        90 |        975 | repro.cli
import time:         5 |          5 | scipy.linalg
"""


def test_import_cumulative_counts_each_outermost_package_entry_once():
    # Lines come children first; one level of nesting is two more spaces.
    # scipy (300) + scipy.optimize (120) + scipy.linalg (5): the nested scipy
    # entries are already inside their importer's cumulative time.
    assert measure.import_cumulative_seconds(IMPORTTIME, "scipy") == pytest.approx(425e-6)
    assert measure.import_cumulative_seconds(IMPORTTIME, "numpy") == pytest.approx(450e-6)
    assert measure.import_cumulative_seconds(IMPORTTIME, "repro") == pytest.approx(975e-6)
    assert measure.import_cumulative_seconds("", "scipy") == 0.0


def test_instrumentation_patches_every_binding_and_restores_them():
    import importlib

    from repro.graphs.generators import make_family

    fastgraph = importlib.import_module("repro.graphs.fastgraph")
    caller = importlib.import_module("repro.core.k_ecss")
    original = fastgraph.hop_diameter
    recorder = SpanRecorder()
    layer = Layer("graphs.hop_diameter", "repro.graphs.fastgraph", "hop_diameter",
                  ("diameter_sum", lambda result: result))
    graph = make_family("torus")(16)
    with Instrumentation(recorder, [layer]):
        assert caller.hop_diameter is not original
        assert fastgraph.hop_diameter is not original
        diameter = caller.hop_diameter(graph)
    assert caller.hop_diameter is original
    assert fastgraph.hop_diameter is original
    assert recorder.names == ["graphs.hop_diameter"]
    assert recorder.counts["diameter_sum"] == diameter == 4
