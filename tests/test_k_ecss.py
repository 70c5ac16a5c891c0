"""Tests for the weighted k-ECSS algorithm and the Aug_k framework (Section 4)."""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.baselines.exact import exact_k_ecss_weight
from repro.baselines.mst_baseline import k_ecss_lower_bound
from repro.core.augmentation import (
    AugmentationResult,
    build_subgraph,
    compose_augmentations,
)
from repro.core.fastaug import BitsetCoverKernel
from repro.core.k_ecss import _forest_filter, augment_to_k, k_ecss
from repro.congest.metrics import RoundLedger
from repro.graphs.connectivity import canonical_edge, is_k_edge_connected
from repro.graphs.fastgraph import ArrayUnionFind
from repro.graphs.generators import harary_graph, random_k_edge_connected_graph
from repro.mst.sequential import minimum_spanning_tree
from repro.oracles.k_ecss import _mst_filter, augment_to_k_nx


class TestAugmentToK:
    def _mst_edges(self, graph):
        return frozenset(canonical_edge(u, v) for u, v in minimum_spanning_tree(graph).edges())

    def test_raises_connectivity_from_1_to_2(self):
        graph = random_k_edge_connected_graph(14, 2, extra_edge_prob=0.3, seed=0)
        current = self._mst_edges(graph)
        result = augment_to_k(graph, current, 2, seed=0)
        combined = build_subgraph(graph, current | result.added)
        assert is_k_edge_connected(combined, 2)

    def test_added_edges_do_not_overlap_h(self):
        graph = random_k_edge_connected_graph(14, 2, extra_edge_prob=0.3, seed=1)
        current = self._mst_edges(graph)
        result = augment_to_k(graph, current, 2, seed=1)
        assert not (result.added & current)

    def test_claim_4_1_at_most_n_minus_1_edges(self):
        for seed in range(3):
            graph = random_k_edge_connected_graph(14, 3, extra_edge_prob=0.4, seed=seed)
            current = self._mst_edges(graph)
            stage2 = augment_to_k(graph, current, 2, seed=seed)
            current = frozenset(current | stage2.added)
            stage3 = augment_to_k(graph, current, 3, seed=seed)
            n = graph.number_of_nodes()
            assert len(stage2.added) <= n - 1
            assert len(stage3.added) <= n - 1

    def test_added_edges_are_acyclic_with_mst_filter(self):
        graph = random_k_edge_connected_graph(16, 2, extra_edge_prob=0.3, seed=3)
        current = self._mst_edges(graph)
        result = augment_to_k(graph, current, 2, seed=3)
        added_graph = nx.Graph(list(result.added))
        assert nx.is_forest(added_graph)

    def test_already_k_connected_subgraph_needs_nothing(self):
        graph = harary_graph(10, 3)
        all_edges = frozenset(canonical_edge(u, v) for u, v in graph.edges())
        result = augment_to_k(graph, all_edges, 3, seed=0)
        assert result.added == frozenset()
        assert result.iterations == 0

    def test_history_and_ledger_are_consistent(self):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=4)
        result = augment_to_k(graph, self._mst_edges(graph), 2, seed=4)
        assert result.iterations == len(result.metadata["history"])
        assert result.ledger.count("aug-iteration") == result.iterations
        assert result.ledger.count("aug-state-broadcast") == 1

    def test_without_mst_filter_still_valid(self):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=5)
        current = self._mst_edges(graph)
        result = augment_to_k(graph, current, 2, seed=5, use_mst_filter=False)
        combined = build_subgraph(graph, current | result.added)
        assert is_k_edge_connected(combined, 2)

    def test_probability_schedule_starts_small_and_grows(self):
        graph = random_k_edge_connected_graph(14, 2, extra_edge_prob=0.3, seed=6)
        result = augment_to_k(graph, self._mst_edges(graph), 2, seed=6)
        history = result.metadata["history"]
        assert history[0].probability <= 1.0 / graph.number_of_edges() * 2
        assert all(entry.probability <= 1.0 for entry in history)

    def test_max_iterations_guard(self):
        graph = random_k_edge_connected_graph(12, 2, extra_edge_prob=0.3, seed=7)
        with pytest.raises(RuntimeError):
            augment_to_k(graph, self._mst_edges(graph), 2, seed=7, max_iterations=1)

    def test_rescores_only_after_a_grows(self, monkeypatch):
        graph = random_k_edge_connected_graph(24, 3, extra_edge_prob=0.3, seed=8)
        current = self._mst_edges(graph)
        calls = []
        score = BitsetCoverKernel.score

        def counting_score(kernel):
            calls.append(None)
            return score(kernel)

        monkeypatch.setattr(BitsetCoverKernel, "score", counting_score)
        result = augment_to_k(graph, current, 2, seed=8, cut_seed=8)
        history = result.metadata["history"]
        grew = sum(1 for stats in history[:-1] if stats.added > 0)
        assert len(calls) == 1 + grew < len(history)
        oracle = augment_to_k_nx(graph, current, 2, seed=8, cut_seed=8)
        assert history == oracle.metadata["history"]


class TestForestFilter:
    """The union-find Line 4 filter against the full-Kruskal ``_mst_filter``."""

    @staticmethod
    def _filter_over(graph, forest_edges, active):
        node_index = {node: i for i, node in enumerate(graph.nodes())}
        forest = ArrayUnionFind(len(node_index))
        for u, v in forest_edges:
            assert forest.union(node_index[u], node_index[v])
        return _forest_filter(forest, node_index, active)

    def test_matches_full_kruskal_on_random_forests(self):
        orders_differ = 0
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(12, 40)
            graph = random_k_edge_connected_graph(n, 2, extra_edge_prob=0.3, seed=seed)
            edges = sorted(canonical_edge(u, v) for u, v in graph.edges())
            rng.shuffle(edges)
            # A: a random forest of at most n / 2 edges, so active edges survive.
            node_index = {node: i for i, node in enumerate(graph.nodes())}
            components = ArrayUnionFind(n)
            forest = [
                (u, v) for u, v in edges[: rng.randint(0, n // 2)]
                if components.union(node_index[u], node_index[v])
            ]
            in_forest = set(forest)
            rest = [edge for edge in edges if edge not in in_forest]
            active = sorted(rng.sample(rest, rng.randint(1, len(rest))), key=repr)
            orders_differ += sorted(active) != active
            expected = _mst_filter(graph, in_forest, active)
            assert self._filter_over(graph, forest, active) == expected
        assert orders_differ > 0

    def test_only_the_smaller_canonical_edge_of_a_cycle_survives(self):
        graph = nx.cycle_graph(12)
        graph.add_edges_from([(2, 10), (2, 11)])
        # Repr order puts (10, 11) first; Kruskal meets (2, 10) first.
        active = sorted([(2, 10), (10, 11)], key=repr)
        assert active == [(10, 11), (2, 10)]
        assert _mst_filter(graph, {(2, 11)}, active) == [(2, 10)]
        assert self._filter_over(graph, [(2, 11)], active) == [(2, 10)]

    def test_kept_edges_join_the_forest(self):
        node_index = {node: node for node in range(12)}
        forest = ArrayUnionFind(12)
        assert _forest_filter(forest, node_index, [(0, 1), (1, 2)]) == [(0, 1), (1, 2)]
        assert _forest_filter(forest, node_index, [(0, 2), (2, 3)]) == [(2, 3)]
        assert forest.components == 12 - 3


class TestKEcss:
    def test_k_equal_one_returns_a_spanning_tree_of_mst_weight(self):
        graph = random_k_edge_connected_graph(15, 2, extra_edge_prob=0.2, seed=8)
        result = k_ecss(graph, 1, seed=8)
        assert result.num_edges == graph.number_of_nodes() - 1
        assert result.weight == int(
            minimum_spanning_tree(graph).size(weight="weight")
        )
        ok, reason = result.verify()
        assert ok, reason

    @pytest.mark.parametrize("k", [2, 3])
    def test_output_is_k_edge_connected(self, k):
        graph = random_k_edge_connected_graph(12, k, extra_edge_prob=0.35, seed=10 + k)
        result = k_ecss(graph, k, seed=k)
        ok, reason = result.verify()
        assert ok, reason
        assert result.k == k

    def test_k4_on_a_small_instance(self):
        graph = random_k_edge_connected_graph(10, 4, extra_edge_prob=0.4, seed=20)
        result = k_ecss(graph, 4, seed=20)
        ok, reason = result.verify()
        assert ok, reason

    def test_weight_between_lower_bound_and_klogn_times_optimum(self):
        graph = random_k_edge_connected_graph(12, 3, extra_edge_prob=0.4, seed=21)
        result = k_ecss(graph, 3, seed=21)
        optimum = exact_k_ecss_weight(graph, 3)
        lower = k_ecss_lower_bound(graph, 3)
        assert lower <= optimum <= result.weight
        assert result.weight <= 3 * math.log2(graph.number_of_nodes()) * optimum

    def test_stage_metadata_matches_claim_2_1(self, weighted_k3_graph):
        result = k_ecss(weighted_k3_graph, 3, seed=22)
        stages = result.metadata["stages"]
        assert [stage["level"] for stage in stages] == [1, 2, 3]
        assert sum(stage["weight"] for stage in stages) == result.weight
        n = weighted_k3_graph.number_of_nodes()
        assert all(stage["added"] <= n - 1 for stage in stages)

    def test_rounds_below_theorem_bound(self, weighted_k3_graph):
        result = k_ecss(weighted_k3_graph, 3, seed=23)
        assert result.rounds <= result.metadata["round_bound"]

    def test_rejects_invalid_inputs(self):
        graph = random_k_edge_connected_graph(10, 2, extra_edge_prob=0.3, seed=24)
        with pytest.raises(ValueError):
            k_ecss(graph, 0)
        cycle = nx.cycle_graph(10)  # exactly 2-edge-connected: 3-ECSS is infeasible
        with pytest.raises(ValueError):
            k_ecss(cycle, 3)

    def test_deterministic_given_seed(self, weighted_k3_graph):
        a = k_ecss(weighted_k3_graph, 3, seed=99)
        b = k_ecss(weighted_k3_graph, 3, seed=99)
        assert a.edges == b.edges


class TestComposeAugmentations:
    def test_missing_solver_rejected(self):
        graph = harary_graph(8, 2)
        with pytest.raises(ValueError):
            compose_augmentations(graph, 2, {1: lambda g, c, l: None})

    def test_overlapping_stage_output_rejected(self):
        graph = harary_graph(8, 2)
        edge = canonical_edge(*next(iter(graph.edges())))

        def stage(g, current, level):
            return AugmentationResult(
                added=frozenset({edge}), weight=1, iterations=1, ledger=RoundLedger()
            )

        with pytest.raises(RuntimeError):
            compose_augmentations(graph, 2, {1: stage, 2: stage})

    def test_build_subgraph_copies_weights(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=5)
        graph.add_edge(1, 2, weight=7)
        subgraph = build_subgraph(graph, [(0, 1)])
        assert subgraph[0][1]["weight"] == 5
        assert subgraph.number_of_nodes() == 3
        assert subgraph.number_of_edges() == 1

    def test_composition_accumulates_ledgers_and_iterations(self):
        graph = harary_graph(8, 2)

        def stage(g, current, level):
            ledger = RoundLedger()
            ledger.add("stage", 5)
            edges = frozenset(
                {canonical_edge(u, v) for u, v in g.edges() if (u + v + level) % 7 == 0}
            ) - current
            return AugmentationResult(
                added=edges, weight=len(edges), iterations=2, ledger=ledger
            )

        edges, iterations, ledger, stages = compose_augmentations(graph, 2, {1: stage, 2: stage})
        assert iterations == 4
        assert ledger.by_label()["stage"] == 10
        assert len(stages) == 2
        assert edges == stages[0].added | stages[1].added
