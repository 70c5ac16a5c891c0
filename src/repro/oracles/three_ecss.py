"""The historical ``Counter``-per-candidate 3-ECSS (oracle of ``diff-3ecss-kernel``).

:func:`three_ecss_nx` shares the preamble and result assembly of
:func:`repro.core.three_ecss.three_ecss` and consumes the seeded RNG in the
same order -- labels first, then one draw per candidate in ``repr`` order --
but scores every iteration with :func:`_score_round_nx`.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Hashable

import networkx as nx

from repro.core.fastaug import GuessingSchedule
from repro.core.result import ECSSResult
from repro.core.three_ecss import ThreeEcssIterationStats, _result, _setup
from repro.cycle_space.labels import compute_labels
from repro.graphs.connectivity import canonical_edge
from repro.oracles.cost_effectiveness import round_up_to_power_of_two

Edge = tuple[Hashable, Hashable]

__all__ = ["three_ecss_nx"]


def _score_round_nx(
    labels: dict[Edge, object],
    tree_edge_set: set[Edge],
    candidate_paths: dict[Edge, list[Edge]],
    added: set[Edge],
) -> tuple[int, dict[Edge, Fraction]]:
    """One iteration of the historical Claim 5.8 scoring (the oracle inner loop).

    Returns ``(tree_in_pairs, rounded)`` where *rounded* maps each candidate
    with positive cost-effectiveness to its rounded value ``rho~`` -- computed
    once per candidate and reused for both the maximum and the candidate
    filter.
    """
    n_phi = Counter(labels.values())
    tree_in_pairs = sum(1 for t in tree_edge_set if n_phi[labels[t]] > 1)
    if tree_in_pairs == 0:
        return 0, {}

    # Claim 5.8: cost-effectiveness of e is sum over labels on its path of
    # n_{phi,e} * (n_phi - n_{phi,e}).
    rounded: dict[Edge, Fraction] = {}
    for edge, path in candidate_paths.items():
        if edge in added:
            continue
        on_path = Counter(labels[t] for t in path)
        value = sum(
            count * (n_phi[label] - count) for label, count in on_path.items()
        )
        if value > 0:
            rounded[edge] = round_up_to_power_of_two(Fraction(value))
    return tree_in_pairs, rounded


def three_ecss_nx(
    graph: nx.Graph,
    seed: int | random.Random | None = None,
    exact_labels: bool = False,
    schedule_constant: int = 2,
    simulate_bfs: bool = False,
) -> ECSSResult:
    """Historical set/``Counter`` 3-ECSS, retained as the differential oracle.

    Same arguments and bit-identical output as :func:`three_ecss`; every
    iteration rebuilds label counts with :class:`collections.Counter` per
    candidate path and compares exact :class:`~fractions.Fraction` values.
    """
    rng, cost_model, ledger, h_edges, tree = _setup(graph, seed, simulate_bfs)
    tree_edge_set = set(tree.tree_edges())

    # Pre-compute the tree path of every potential candidate edge.
    candidate_paths: dict[Edge, list[Edge]] = {}
    for u, v in graph.edges():
        edge = canonical_edge(u, v)
        if edge in h_edges:
            continue
        candidate_paths[edge] = [canonical_edge(a, b) for a, b in tree.tree_path_edges(u, v)]

    added: set[Edge] = set()
    history: list[ThreeEcssIterationStats] = []
    mode = "exact" if exact_labels else "random"

    schedule = GuessingSchedule(
        graph.number_of_edges(), max(1, schedule_constant * cost_model.log_n)
    )
    previous_max: Fraction | None = None
    previous_probability_was_one = False

    n = graph.number_of_nodes()
    max_iterations = 16 * schedule_constant * cost_model.log_n ** 3 + 8 * n + 64
    iteration = 0
    while True:
        iteration += 1
        if iteration > max_iterations:
            raise RuntimeError(f"3-ECSS did not converge within {max_iterations} iterations")

        current = nx.Graph()
        current.add_nodes_from(graph.nodes())
        current.add_edges_from(h_edges | added)
        labelling = compute_labels(current, tree=tree, mode=mode, seed=rng)
        ledger.add(
            "3ecss-iteration",
            cost_model.three_ecss_iteration_rounds(),
            note=f"iteration {iteration} (labels + cost-effectiveness, O(D))",
        )

        tree_in_pairs, rounded = _score_round_nx(
            labelling.labels, tree_edge_set, candidate_paths, added
        )
        if tree_in_pairs == 0:
            history.append(
                ThreeEcssIterationStats(
                    iteration=iteration,
                    probability=schedule.probability,
                    candidates=0,
                    added=0,
                    tree_edges_in_cut_pairs=0,
                )
            )
            break
        if not rounded:
            raise RuntimeError(
                "no remaining edge covers the remaining cut pairs; "
                "the input graph is not 3-edge-connected"
            )

        computed_max = max(rounded.values())
        # Lemma 5.11's robustness tweak: the maximum rounded cost-effectiveness
        # is forced to be non-increasing, and to halve after a p = 1 iteration.
        maximum = computed_max
        if previous_max is not None:
            maximum = min(maximum, previous_max)
            if previous_probability_was_one:
                maximum = min(maximum, previous_max / 2)
        candidates = sorted(
            (edge for edge, value in rounded.items() if value >= maximum),
            key=repr,
        )

        probability = schedule.update(maximum)
        previous_max = maximum
        # The schedule emits exact binary powers capped at 1, so >= 1.0 is a
        # reliable saturation test, not a float tolerance.
        previous_probability_was_one = probability >= 1.0  # repro: disable=DET004

        if probability >= 1.0:  # repro: disable=DET004
            active = list(candidates)
        else:
            active = [edge for edge in candidates if rng.random() < probability]
        added.update(active)

        history.append(
            ThreeEcssIterationStats(
                iteration=iteration,
                probability=probability,
                candidates=len(candidates),
                added=len(active),
                tree_edges_in_cut_pairs=tree_in_pairs,
            )
        )

    return _result(graph, h_edges, added, history, mode, cost_model, ledger, iteration)
