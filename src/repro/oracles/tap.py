"""The historical set-algebra TAP solvers (oracles of the ``diff-tap-*`` sweeps).

:class:`CoverageStateNX` answers every coverage query with Python set
algebra over per-edge ``frozenset`` paths; :func:`distributed_tap_nx` and
:func:`greedy_tap_nx` run on it.  :func:`repro.tap.distributed.distributed_tap`
and :func:`repro.tap.greedy.greedy_tap` must reproduce them bit for bit on
the :class:`repro.tap.fastcover.FastCoverage` kernel.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable

import networkx as nx

from repro.congest.cost_model import CostModel
from repro.congest.metrics import RoundLedger
from repro.graphs.connectivity import canonical_edge
from repro.oracles.cost_effectiveness import cost_effectiveness, rounded_cost_effectiveness
from repro.tap.distributed import TapIterationStats, TapResult, _resolve_run_parameters
from repro.tap.greedy import GreedyTapResult
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["CoverageStateNX", "distributed_tap_nx", "greedy_tap_nx"]


class CoverageStateNX:
    """The historical ``frozenset``-based implementation (reference oracle).

    Kept verbatim for the ``diff-tap-*`` differential suite: every query is
    answered with Python set algebra over per-edge ``frozenset`` paths, the
    behaviour the flat-array kernel must reproduce bit-identically.
    """

    def __init__(self, graph: nx.Graph, tree: RootedTree) -> None:
        self.graph = graph
        self.tree = tree

        self._tree_edges: list[Edge] = sorted(tree.tree_edges(), key=repr)
        self._tree_edge_index: dict[Edge, int] = {
            edge: index for index, edge in enumerate(self._tree_edges)
        }
        self._covered: set[int] = set()

        tree_edge_set = set(self._tree_edges)
        self._paths: dict[Edge, frozenset[int]] = {}
        self._weights: dict[Edge, int] = {}
        for u, v, data in graph.edges(data=True):
            edge = canonical_edge(u, v)
            if edge in tree_edge_set:
                continue
            path = frozenset(
                self._tree_edge_index[canonical_edge(a, b)]
                for a, b in tree.tree_path_edges(u, v)
            )
            self._paths[edge] = path
            self._weights[edge] = data.get("weight", 1)

    # --------------------------------------------------------------- queries
    @property
    def tree_edges(self) -> list[Edge]:
        return list(self._tree_edges)

    @property
    def non_tree_edges(self) -> list[Edge]:
        return list(self._paths)

    def weight(self, edge: Edge) -> int:
        return self._weights[canonical_edge(*edge)]

    def path(self, edge: Edge) -> frozenset[int]:
        return self._paths[canonical_edge(*edge)]

    def tree_edge_by_index(self, index: int) -> Edge:
        return self._tree_edges[index]

    def tree_edge_index(self, edge: Edge) -> int:
        return self._tree_edge_index[canonical_edge(*edge)]

    def is_covered(self, tree_edge: Edge) -> bool:
        return self._tree_edge_index[canonical_edge(*tree_edge)] in self._covered

    def covered_indices(self) -> frozenset[int]:
        return frozenset(self._covered)

    def uncovered_indices(self) -> frozenset[int]:
        return frozenset(range(len(self._tree_edges))) - frozenset(self._covered)

    def uncovered_on_path(self, edge: Edge) -> frozenset[int]:
        return self.path(edge) - frozenset(self._covered)

    def uncovered_count(self, edge: Edge) -> int:
        return len(self.uncovered_on_path(edge))

    def all_covered(self) -> bool:
        return len(self._covered) == len(self._tree_edges)

    # --------------------------------------------------------------- updates
    def cover_with(self, edge: Edge) -> set[int]:
        path = self.path(edge)
        new = set(path) - self._covered
        self._covered.update(path)
        return new

    def cover_with_many(self, edges: Iterable[Edge]) -> set[int]:
        new: set[int] = set()
        for edge in edges:
            new.update(self.cover_with(edge))
        return new

    # ------------------------------------------------------------ validation
    def verify_augmentation(self, edges: Iterable[Edge]) -> bool:
        covered: set[int] = set()
        for edge in edges:
            covered.update(self.path(edge))
        return len(covered) == len(self._tree_edges)


def _passes_voting_threshold(votes: int, candidate_uncovered: int) -> bool:
    """The votes >= |C_e| / 8 test of Line 5, in exact integer arithmetic."""
    return 8 * votes >= candidate_uncovered


def distributed_tap_nx(
    graph: nx.Graph,
    tree: RootedTree,
    seed: int | random.Random | None = None,
    segment_diameter: int | None = None,
    cost_model: CostModel | None = None,
    symmetry_breaking: bool = True,
    max_iterations: int | None = None,
    coverage: CoverageStateNX | None = None,
) -> TapResult:
    """The historical set-algebra implementation (reference oracle).

    Bit-identical to :func:`distributed_tap` on every input -- same RNG
    stream, candidate order, tie-breaks and ledger charges -- but runs on
    :class:`CoverageStateNX` ``frozenset`` paths; the ``diff-tap-*``
    differential suite asserts the parity.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = graph.number_of_nodes()
    cost_model, segment_diameter, max_iterations = _resolve_run_parameters(
        graph, cost_model, segment_diameter, max_iterations
    )

    state = coverage if coverage is not None else CoverageStateNX(graph, tree)
    ledger = RoundLedger()
    augmentation: set[Edge] = set()
    history: list[TapIterationStats] = []

    zero_weight = [edge for edge in state.non_tree_edges if state.weight(edge) == 0]
    if zero_weight:
        augmentation.update(zero_weight)
        state.cover_with_many(zero_weight)
        ledger.add(
            "tap-zero-weight-setup",
            cost_model.tap_iteration_rounds(segment_diameter),
            note="initial coverage by zero-weight edges (pre-iteration Line 6)",
        )

    iteration = 0
    while not state.all_covered():
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(
                f"weighted TAP did not converge within {max_iterations} iterations; "
                "is the input graph 2-edge-connected?"
            )

        # Line 1-2: rounded cost-effectiveness and candidate selection.
        effectiveness: dict[Edge, object] = {}
        for edge in state.non_tree_edges:
            if edge in augmentation:
                continue
            uncovered = state.uncovered_count(edge)
            if uncovered == 0:
                continue
            effectiveness[edge] = rounded_cost_effectiveness(uncovered, state.weight(edge))
        if not effectiveness:
            raise RuntimeError(
                "no non-tree edge covers the remaining uncovered tree edges; "
                "the input graph is not 2-edge-connected"
            )
        maximum = max(effectiveness.values())
        candidates = sorted(
            (edge for edge, value in effectiveness.items() if value == maximum), key=repr
        )

        if symmetry_breaking:
            added = _voting_round_nx(state, candidates, rng, n)
        else:
            added = list(candidates)

        newly_covered = state.cover_with_many(added)
        augmentation.update(added)

        ledger.add(
            "tap-iteration",
            cost_model.tap_iteration_rounds(segment_diameter),
            note=f"iteration {iteration} (Lemma 3.3: O(D + sqrt n))",
        )
        history.append(
            TapIterationStats(
                iteration=iteration,
                max_rounded_effectiveness=maximum,
                candidates=len(candidates),
                added=len(added),
                newly_covered=len(newly_covered),
                uncovered_remaining=len(state.uncovered_indices()),
            )
        )

    weight = sum(state.weight(edge) for edge in augmentation)
    return TapResult(
        augmentation=augmentation,
        weight=weight,
        iterations=iteration,
        ledger=ledger,
        history=history,
    )


def _voting_round_nx(
    state: CoverageStateNX,
    candidates: list[Edge],
    rng: random.Random,
    n: int,
) -> list[Edge]:
    """Lines 3-5: random numbers, votes of uncovered tree edges, threshold check."""
    numbers = {edge: rng.randint(1, n ** 8) for edge in candidates}

    # Every uncovered tree edge votes for the first candidate covering it.
    votes: dict[Edge, int] = {edge: 0 for edge in candidates}
    candidate_uncovered = {edge: state.uncovered_on_path(edge) for edge in candidates}
    voters: dict[int, list[Edge]] = {}
    for edge, uncovered in candidate_uncovered.items():
        for index in uncovered:
            voters.setdefault(index, []).append(edge)
    for index, covering in voters.items():
        chosen = min(covering, key=lambda edge: (numbers[edge], repr(edge)))
        votes[chosen] += 1

    added = []
    for edge in candidates:
        uncovered = candidate_uncovered[edge]
        if not uncovered:
            continue
        if _passes_voting_threshold(votes[edge], len(uncovered)):
            added.append(edge)
    return added


def greedy_tap_nx(
    graph: nx.Graph,
    tree: RootedTree,
    coverage: CoverageStateNX | None = None,
) -> GreedyTapResult:
    """The historical per-step rescan implementation (reference oracle).

    Kept for the ``diff-tap-greedy`` differential suite: it re-evaluates
    ``cost_effectiveness`` as exact fractions and breaks ties by ``repr``
    inside the loop, the behaviour :func:`greedy_tap` reproduces exactly.
    """
    state = coverage if coverage is not None else CoverageStateNX(graph, tree)
    augmentation: set[Edge] = set()
    steps = 0

    zero_weight = [edge for edge in state.non_tree_edges if state.weight(edge) == 0]
    if zero_weight:
        augmentation.update(zero_weight)
        state.cover_with_many(zero_weight)

    while not state.all_covered():
        steps += 1
        best_edge = None
        best_value = None
        for edge in state.non_tree_edges:
            if edge in augmentation:
                continue
            uncovered = state.uncovered_count(edge)
            if uncovered == 0:
                continue
            value = cost_effectiveness(uncovered, state.weight(edge))
            if best_value is None or value > best_value or (
                value == best_value and repr(edge) < repr(best_edge)
            ):
                best_value = value
                best_edge = edge
        if best_edge is None:
            raise RuntimeError(
                "greedy TAP ran out of covering edges; the graph is not 2-edge-connected"
            )
        augmentation.add(best_edge)
        state.cover_with(best_edge)

    weight = sum(state.weight(edge) for edge in augmentation)
    return GreedyTapResult(augmentation=augmentation, weight=weight, steps=steps)
