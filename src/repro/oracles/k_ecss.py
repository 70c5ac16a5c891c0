"""The historical frozenset ``Aug_k`` (oracle of the ``diff-kecss-kernel`` sweep).

:func:`augment_to_k_nx` recomputes coverage with frozenset intersections and
filters with a full Kruskal run (:func:`_mst_filter`) every iteration;
:func:`k_ecss_nx` composes it exactly as :func:`repro.core.k_ecss.k_ecss`
composes the kernel-backed :func:`repro.core.k_ecss.augment_to_k`.
"""

from __future__ import annotations

import random
from typing import Hashable

import networkx as nx

from repro.congest.cost_model import CostModel
from repro.core.augmentation import AugmentationResult
from repro.core.fastaug import GuessingSchedule
from repro.core.k_ecss import AugIterationStats, _k_ecss_impl, _level_setup
from repro.core.result import ECSSResult
from repro.graphs.connectivity import canonical_edge
from repro.mst.sequential import minimum_spanning_tree
from repro.oracles.cost_effectiveness import rounded_cost_effectiveness

Edge = tuple[Hashable, Hashable]

__all__ = ["augment_to_k_nx", "k_ecss_nx"]


def _recompute_effectiveness_nx(
    candidates_pool: list[Edge],
    added: set[Edge],
    covers: dict[Edge, frozenset[int]],
    uncovered: set[int],
    weight_of: dict[Edge, int],
) -> dict[Edge, object]:
    """The historical O(|E| * |cuts|) recompute (the oracle inner loop)."""
    effectiveness: dict[Edge, object] = {}
    for edge in candidates_pool:
        if edge in added:
            continue
        live = len(covers[edge] & uncovered)
        if live == 0:
            continue
        effectiveness[edge] = rounded_cost_effectiveness(live, weight_of[edge])
    return effectiveness


def augment_to_k_nx(
    graph: nx.Graph,
    current_edges: frozenset[Edge],
    k: int,
    seed: int | random.Random | None = None,
    schedule_constant: int = 2,
    cost_model: CostModel | None = None,
    use_mst_filter: bool = True,
    max_iterations: int | None = None,
    cut_seed: int | None = None,
) -> AugmentationResult:
    """Historical frozenset ``Aug_k``, retained as the differential oracle.

    Same arguments and bit-identical output as :func:`augment_to_k`; coverage
    is recomputed with frozenset intersections against the uncovered-cut set
    whenever edges join ``A``.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    cost_model, ledger, cuts, candidates_pool, weight_of = _level_setup(
        graph, current_edges, k, cost_model, cut_seed
    )
    if max_iterations is None:
        max_iterations = 16 * schedule_constant * cost_model.log_n ** 3 + 8 * n + 64
    if not cuts:
        return AugmentationResult(
            added=frozenset(), weight=0, iterations=0, ledger=ledger,
            metadata={"cuts": 0, "history": []},
        )

    covers: dict[Edge, frozenset[int]] = {}
    for edge in candidates_pool:
        u, v = edge
        covers[edge] = frozenset(
            index for index, cut in enumerate(cuts) if (u in cut.side) != (v in cut.side)
        )

    uncovered: set[int] = set(range(len(cuts)))
    added: set[Edge] = set()
    history: list[AugIterationStats] = []

    schedule = GuessingSchedule(m, max(1, schedule_constant * cost_model.log_n))
    effectiveness_dirty = True
    effectiveness: dict[Edge, object] = {}

    iteration = 0
    while uncovered:
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(
                f"Aug_{k} did not converge within {max_iterations} iterations"
            )

        # Lines 1-2: (re)compute rounded cost-effectiveness when coverage changed.
        if effectiveness_dirty:
            effectiveness = _recompute_effectiveness_nx(
                candidates_pool, added, covers, uncovered, weight_of
            )
            effectiveness_dirty = False
        if not effectiveness:
            raise RuntimeError(
                f"no edge of G covers the remaining cuts of size {k - 1}; "
                f"the input graph is not {k}-edge-connected"
            )
        maximum = max(effectiveness.values())
        candidate_edges = sorted(
            (edge for edge, value in effectiveness.items() if value == maximum), key=repr
        )

        probability = schedule.update(maximum)

        # Line 3: activation.
        if probability >= 1.0:  # repro: disable=DET004 -- p is an exact binary power
            active = list(candidate_edges)
        else:
            active = [edge for edge in candidate_edges if rng.random() < probability]

        # Line 4: MST filtering keeps A acyclic.
        newly_added: list[Edge] = []
        if active:
            if use_mst_filter:
                chosen = _mst_filter(graph, added, active)
            else:
                chosen = list(active)
            for edge in chosen:
                if edge not in added:
                    added.add(edge)
                    newly_added.append(edge)

        if newly_added:
            for edge in newly_added:
                uncovered -= covers[edge]
            effectiveness_dirty = True

        ledger.add(
            "aug-iteration",
            cost_model.aug_iteration_rounds(len(newly_added)),
            note=f"Aug_{k} iteration {iteration} (Lemma 4.4)",
        )
        history.append(
            AugIterationStats(
                iteration=iteration,
                probability=probability,
                candidates=len(candidate_edges),
                active=len(active),
                added=len(newly_added),
                uncovered_remaining=len(uncovered),
            )
        )

    return AugmentationResult(
        added=frozenset(added),
        weight=sum(weight_of[edge] for edge in added),
        iterations=iteration,
        ledger=ledger,
        metadata={"cuts": len(cuts), "history": history, "k": k},
    )


def _mst_filter(graph: nx.Graph, zero_weight_edges: set[Edge], active: list[Edge]) -> list[Edge]:
    """Line 4: keep only the active candidates that appear in the filtered MST.

    The MST is computed over ``G`` with weight 0 for edges already in ``A``,
    weight 1 for active candidates and weight 2 for everything else; ties are
    broken by canonical edge id, so the filter is deterministic given the set
    of active candidates.
    """
    active_set = set(active)
    reweighted = nx.Graph()
    reweighted.add_nodes_from(graph.nodes())
    for u, v in graph.edges():
        edge = canonical_edge(u, v)
        if edge in zero_weight_edges:
            weight = 0
        elif edge in active_set:
            weight = 1
        else:
            weight = 2
        reweighted.add_edge(u, v, weight=weight)
    mst = minimum_spanning_tree(reweighted)
    return [edge for edge in active if mst.has_edge(*edge)]


def k_ecss_nx(
    graph: nx.Graph,
    k: int,
    seed: int | random.Random | None = None,
    schedule_constant: int = 2,
    use_mst_filter: bool = True,
) -> ECSSResult:
    """:func:`k_ecss` over the historical :func:`augment_to_k_nx` oracle."""
    return _k_ecss_impl(graph, k, seed, schedule_constant, use_mst_filter, augment_to_k_nx)
