"""Solver-ladder benchmark: see ``perfbench/README.md``."""
