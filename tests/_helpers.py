"""Plain helper functions shared by several test modules."""

from __future__ import annotations

import random

import networkx as nx

from repro.trees.rooted import RootedTree


def random_tree(n: int, seed: int) -> RootedTree:
    """A random rooted tree on ``n`` vertices (random attachment)."""
    rng = random.Random(seed)
    tree = nx.Graph()
    tree.add_node(0)
    for node in range(1, n):
        tree.add_edge(node, rng.randrange(node))
    return RootedTree(tree, root=0)


def cli_error(argv: list[str], capsys) -> tuple[int, str]:
    """Run ``kecss argv`` where it must fail with one ``kecss: error:`` line.

    Returns ``(exit_code, message)``: 2 for usage errors, 1 for operational
    ones.
    """
    from repro.cli import main

    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kecss: error: "), lines
    return code, lines[0].removeprefix("kecss: error: ")
