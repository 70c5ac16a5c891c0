"""The historical networkx connectivity and cut enumeration (oracles).

Reference implementations of :mod:`repro.graphs.connectivity` and
:mod:`repro.graphs.cuts`: the ``diff-fastgraph-*`` sweeps assert that the
flat-array kernel returns exactly what these return.
"""

from __future__ import annotations

import itertools
import random
from typing import Hashable, Iterable, Sequence

import networkx as nx

from repro.graphs.connectivity import canonical_edge
from repro.graphs.cuts import Cut, _dedupe, _is_minimal_cut

Edge = tuple[Hashable, Hashable]

__all__ = [
    "bridges_nx",
    "edge_connectivity_nx",
    "enumerate_cut_pairs_nx",
    "enumerate_min_cuts_contraction_nx",
]


def edge_connectivity_nx(graph: nx.Graph) -> int:
    """The historical all-networkx edge connectivity (differential oracle)."""
    if graph.number_of_nodes() <= 1:
        return 0
    if not nx.is_connected(graph):
        return 0
    return nx.edge_connectivity(graph)


def bridges_nx(graph: nx.Graph) -> set[Edge]:
    """The historical networkx bridge finder (differential oracle)."""
    if graph.number_of_edges() == 0:
        return set()
    return {canonical_edge(u, v) for u, v in nx.bridges(graph)}


def enumerate_cut_pairs_nx(graph: nx.Graph) -> list[Cut]:
    """The historical all-networkx cut-pair enumeration (differential oracle)."""
    if graph.number_of_nodes() < 2:
        return []
    if not nx.is_connected(graph):
        raise ValueError("cut-pair enumeration requires a connected graph")
    tree = nx.minimum_spanning_tree(graph, weight=None)
    tree_edges = [canonical_edge(u, v) for u, v in tree.edges()]
    tree_edge_set = set(tree_edges)
    non_tree_edges = [
        canonical_edge(u, v)
        for u, v in graph.edges()
        if canonical_edge(u, v) not in tree_edge_set
    ]
    root = next(iter(graph.nodes()))
    parent = {root: None}
    depth = {root: 0}
    for child, par in nx.bfs_predecessors(tree, root):
        parent[child] = par
        depth[child] = depth[par] + 1

    def tree_path_edges(u: Hashable, v: Hashable) -> set[Edge]:
        """Edges on the unique tree path between u and v."""
        path = set()
        a, b = u, v
        while a != b:
            if depth[a] >= depth[b]:
                path.add(canonical_edge(a, parent[a]))
                a = parent[a]
            else:
                path.add(canonical_edge(b, parent[b]))
                b = parent[b]
        return path

    cover_sets: dict[Edge, set[Edge]] = {t: set() for t in tree_edges}
    for f in non_tree_edges:
        for t in tree_path_edges(*f):
            cover_sets[t].add(f)

    pairs: set[frozenset[Edge]] = set()
    # Case 1: tree edge covered by a single non-tree edge.
    for t, covering in cover_sets.items():
        if len(covering) == 1:
            pairs.add(frozenset({t, next(iter(covering))}))
    # Case 2: tree edges with identical (non-empty or empty) cover sets.
    by_cover: dict[frozenset[Edge], list[Edge]] = {}
    for t, covering in cover_sets.items():
        by_cover.setdefault(frozenset(covering), []).append(t)
    for group in by_cover.values():
        for t1, t2 in itertools.combinations(group, 2):
            pairs.add(frozenset({t1, t2}))

    cuts = []
    for pair in pairs:
        pruned = graph.copy()
        pruned.remove_edges_from(pair)
        components = list(nx.connected_components(pruned))
        if len(components) != 2:
            # The pair is not actually a cut pair (can happen only if the
            # graph is not 2-edge-connected); skip defensively.
            continue
        cuts.append(Cut.from_side(graph, components[0]))
    return _dedupe(cuts)


def enumerate_min_cuts_contraction_nx(
    graph: nx.Graph,
    size: int,
    seed: int | random.Random | None = None,
    runs: int | None = None,
) -> list[Cut]:
    """The historical dict-based contraction enumerator (differential oracle)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = graph.number_of_nodes()
    if n < 2:
        return []
    if runs is None:
        runs = min(4 * n * n, 6000)

    found: dict[frozenset, Cut] = {}

    def record(side: Iterable[Hashable]) -> None:
        try:
            cut = Cut.from_side(graph, side)
        except ValueError:
            return
        if cut.size == size and _is_minimal_cut(graph, cut):
            found[cut.side] = cut

    # Seed with all single-vertex (degree) cuts.
    for node in graph.nodes():
        if graph.degree(node) == size:
            record({node})

    edges = [canonical_edge(u, v) for u, v in graph.edges()]
    for _ in range(runs):
        side = _contract_once(graph, edges, rng)
        record(side)
    return list(found.values())


def _contract_once(
    graph: nx.Graph,
    edges: Sequence[Edge],
    rng: random.Random,
) -> set[Hashable]:
    """One run of Karger contraction; returns the vertex set of one super-node."""
    label: dict[Hashable, Hashable] = {v: v for v in graph.nodes()}
    members: dict[Hashable, set[Hashable]] = {v: {v} for v in graph.nodes()}
    remaining = len(members)
    order = list(edges)
    rng.shuffle(order)
    for u, v in order:
        if remaining <= 2:
            break
        ru, rv = _find(label, u), _find(label, v)
        if ru == rv:
            continue
        # Union by size.
        if len(members[ru]) < len(members[rv]):
            ru, rv = rv, ru
        label[rv] = ru
        members[ru].update(members[rv])
        del members[rv]
        remaining -= 1
    # Return the smaller remaining super-node as the cut side.
    groups = sorted(members.values(), key=len)
    return set(groups[0])


def _find(label: dict, node: Hashable) -> Hashable:
    root = node
    while label[root] != root:
        root = label[root]
    while label[node] != root:
        label[node], node = root, label[node]
    return root
