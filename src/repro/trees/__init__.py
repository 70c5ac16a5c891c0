"""Rooted-tree substrate: parent/depth bookkeeping, LCA queries and tree paths.

The 2-ECSS algorithm (Section 3) spends most of its time reasoning about the
unique tree path covered by a non-tree edge; this subpackage provides that
machinery once, shared by the TAP algorithm, the segment decomposition and
the cycle-space sampling code.  :class:`RootedTree` is the only tree type: it
owns the cached integer-array path index every kernel reads.
"""

from repro.trees.rooted import RootedTree

__all__ = ["RootedTree"]
