"""The historical per-path cycle-space labelling (oracle of ``diff-labels-*``)."""

from __future__ import annotations

import random
from typing import Hashable

import networkx as nx

from repro.cycle_space.labels import EdgeLabelling, Label, _prepare
from repro.trees.rooted import RootedTree

Edge = tuple[Hashable, Hashable]

__all__ = ["compute_labels_nx"]


def compute_labels_nx(
    graph: nx.Graph,
    tree: RootedTree | None = None,
    bits: int | None = None,
    mode: str = "random",
    seed: int | random.Random | None = None,
) -> EdgeLabelling:
    """The historical per-path accumulation (reference oracle).

    Draws the same RNG stream and produces identical labels to
    :func:`compute_labels`, but XORs every non-tree label onto each tree edge
    of its path individually -- O(sum of path lengths).  The
    ``diff-labels-*`` differential suite asserts the parity.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    tree, bits, non_tree_edges = _prepare(graph, tree, bits, mode)
    tree_edge_set = set(tree.tree_edges())

    labels: dict[Edge, Label] = {}
    tree_paths: dict[Edge, frozenset[Edge]] = {}
    for edge in non_tree_edges:
        tree_paths[edge] = frozenset(tree.tree_path_edges(*edge))

    if mode == "random":
        for edge in non_tree_edges:
            labels[edge] = rng.getrandbits(bits)
        accumulator: dict[Edge, int] = {t: 0 for t in tree_edge_set}
        for edge in non_tree_edges:
            for t in tree_paths[edge]:
                accumulator[t] ^= labels[edge]
        labels.update(accumulator)
    else:
        for edge in non_tree_edges:
            labels[edge] = frozenset({edge})
        covering: dict[Edge, set[Edge]] = {t: set() for t in tree_edge_set}
        for edge in non_tree_edges:
            for t in tree_paths[edge]:
                covering[t].add(edge)
        for t, cover in covering.items():
            labels[t] = frozenset(cover)
        bits = 0

    return EdgeLabelling(
        graph=graph, tree=tree, labels=labels, bits=bits, mode=mode,
        tree_paths=tree_paths,
    )
