"""Exact commuting probabilities between subsets of a finite group."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import EmptySet, GroupMismatch
from .group import commute_matrix
from .subset import Subset


def _require_usable(x: Subset, y: Subset) -> None:
    if x.group is not y.group:
        raise GroupMismatch("commuting probability needs subsets of the same group")
    if x.size == 0 or y.size == 0:
        raise EmptySet("commuting probability needs nonempty subsets")


def _centralizer_counts(x: Subset, y: Subset) -> np.ndarray:
    """|C_x(g)| for each g in y, in y's id order."""
    return np.count_nonzero(commute_matrix(x.group)[y.ids] & x.mask, axis=1)


def commuting_probability(x: Subset, y: Subset) -> Fraction:
    """Exact probability that a uniform pair from x times y commutes.

    Computed as the centralizer sum (1/|y|) * sum_{g in y} |C_x(g)| / |x|,
    iterating over the smaller of the two sets.
    """
    _require_usable(x, y)
    small, large = (x, y) if x.size <= y.size else (y, x)
    pairs = int(_centralizer_counts(large, small).sum())
    return Fraction(pairs, x.size * y.size)


def centralizer_profile(x: Subset, y: Subset) -> list[tuple[int, Fraction]]:
    """(g, |C_x(g)|/|x|) for each g in y, in element-id order."""
    _require_usable(x, y)
    counts = _centralizer_counts(x, y)
    return [(int(g), Fraction(int(c), x.size)) for g, c in zip(y.ids, counts)]
