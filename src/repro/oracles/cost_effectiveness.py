"""Exact cost-effectiveness bookkeeping (Section 2.1), the oracles' scoring.

The cost-effectiveness of a candidate edge ``e`` is ``rho(e) = |C_e| / w(e)``,
the number of still-uncovered cuts it covers per unit of weight; candidates
are compared by their *rounded* cost-effectiveness ``rho~(e)``, the smallest
power of two strictly greater than ``rho(e)``.  Zero-weight edges have
infinite cost-effectiveness (the algorithms add them up-front).

Exact fractions are used throughout so that ties and maxima are deterministic
and independent of floating point rounding.  The solvers compare integer
exponents instead (:func:`repro.core.fastaug.rounded_exponent`); the
:data:`~repro.core.fastaug.INFINITE_EFFECTIVENESS` sentinel is shared.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.fastaug import INFINITE_EFFECTIVENESS, _Infinity

__all__ = [
    "INFINITE_EFFECTIVENESS",
    "cost_effectiveness",
    "round_up_to_power_of_two",
    "rounded_cost_effectiveness",
]


def cost_effectiveness(uncovered: int, weight: int) -> Fraction | _Infinity:
    """Return ``rho = uncovered / weight`` (infinite when ``weight == 0``)."""
    if uncovered < 0:
        raise ValueError("the number of uncovered cuts cannot be negative")
    if weight < 0:
        raise ValueError("edge weights must be non-negative")
    if weight == 0:
        return INFINITE_EFFECTIVENESS
    return Fraction(uncovered, weight)


def round_up_to_power_of_two(value: Fraction) -> Fraction:
    """Return the smallest power of two strictly greater than *value* (> 0).

    The paper rounds ``rho`` "to the closest power of 2 that is greater than
    rho", so for every candidate ``rho~ / 2 <= rho < rho~`` -- the property the
    approximation analysis (Lemma 3.6) uses.
    """
    if value <= 0:
        raise ValueError("can only round positive values")
    power = Fraction(1)
    if value >= 1:
        while power <= value:
            power *= 2
        return power
    while power / 2 > value:
        power /= 2
    return power


def rounded_cost_effectiveness(uncovered: int, weight: int) -> Fraction | _Infinity:
    """Return ``rho~`` for an edge covering *uncovered* cuts at cost *weight*."""
    rho = cost_effectiveness(uncovered, weight)
    if rho is INFINITE_EFFECTIVENESS:
        return rho
    if rho == 0:
        return Fraction(0)
    return round_up_to_power_of_two(rho)
