"""Brute-force reference computations over a plain Cayley table.

Everything here takes a multiplication table (a square integer array whose
entry [x, y] is the id of x*y) and element ids, and uses nothing from the
package under test: commuting probabilities by counting pairs, product sets
by listing every product, subgroups by closing under products, conjugates by
conjugating. The benchmark checks the package's outputs against these after
the timed rounds.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """An output of the package disagrees with the brute-force reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def as_ids(ids) -> np.ndarray:
    return np.unique(np.asarray(list(ids), dtype=np.int64))


def identity(mul: np.ndarray) -> int:
    n = mul.shape[0]
    everything = np.arange(n)
    for e in range(n):
        if np.array_equal(mul[e], everything) and np.array_equal(mul[:, e], everything):
            return e
    raise CheckFailed("table has no two-sided identity")


def inverses(mul: np.ndarray) -> np.ndarray:
    e = identity(mul)
    inv = np.argmax(mul == e, axis=1)
    require(bool((mul[np.arange(mul.shape[0]), inv] == e).all()), "some element has no inverse")
    return inv


def commuting_pairs(mul: np.ndarray, xs, ys) -> int:
    """Number of pairs (x, y) in xs times ys with x*y == y*x."""
    xs, ys = as_ids(xs), as_ids(ys)
    return int(np.count_nonzero(mul[np.ix_(xs, ys)] == mul[np.ix_(ys, xs)].T))


def pr(mul: np.ndarray, xs, ys) -> Fraction:
    xs, ys = as_ids(xs), as_ids(ys)
    return Fraction(commuting_pairs(mul, xs, ys), xs.size * ys.size)


def product_set(mul: np.ndarray, xs, ys) -> np.ndarray:
    return np.unique(mul[np.ix_(as_ids(xs), as_ids(ys))])


def power_set(mul: np.ndarray, xs, j: int) -> np.ndarray:
    acc = as_ids(xs)
    for _ in range(j - 1):
        acc = product_set(mul, acc, xs)
    return acc


def closure(mul: np.ndarray, ids) -> np.ndarray:
    """Smallest set containing ids and closed under products."""
    cur = as_ids(ids)
    while True:
        nxt = np.union1d(cur, product_set(mul, cur, cur))
        if nxt.size == cur.size:
            return cur
        cur = nxt


def is_subgroup(mul: np.ndarray, ids) -> bool:
    ids = as_ids(ids)
    return ids.size > 0 and np.array_equal(product_set(mul, ids, ids), ids)


def is_normal(mul: np.ndarray, inv: np.ndarray, ids) -> bool:
    ids = as_ids(ids)
    if not is_subgroup(mul, ids):
        return False
    g = np.arange(mul.shape[0])[:, None]
    conj = mul[mul[inv[g], ids[None, :]], g]
    return bool(np.isin(conj, ids).all())


def commutator_subgroup(mul: np.ndarray, inv: np.ndarray, xs, ys) -> np.ndarray:
    """Subgroup generated by every x^-1 y^-1 x y."""
    xs, ys = as_ids(xs)[:, None], as_ids(ys)[None, :]
    comms = mul[mul[mul[inv[xs], inv[ys]], xs], ys]
    return closure(mul, comms.ravel())


def centralizer(mul: np.ndarray, ids, g: int) -> np.ndarray:
    ids = as_ids(ids)
    return ids[mul[ids, g] == mul[g, ids]]


def conjugacy_class(mul: np.ndarray, inv: np.ndarray, g: int, ids) -> np.ndarray:
    """{x^-1 g x : x in ids}."""
    ids = as_ids(ids)
    return np.unique(mul[mul[inv[ids], g], ids])


def left_coset_count(mul: np.ndarray, ids, sub) -> int:
    """Number of distinct left cosets g*sub over g in ids."""
    ids, sub = as_ids(ids), as_ids(sub)
    return int(np.unique(mul[np.ix_(ids, sub)].min(axis=1)).size)


def greedy_cover_size(mul: np.ndarray, inv: np.ndarray, a) -> int:
    """Size of a greedy cover of A^2 by left translates e*A.

    Any cover bounds the minimum from above, so an exact certificate can
    never need more translates than this.
    """
    a = as_ids(a)
    square = product_set(mul, a, a)
    cands = product_set(mul, square, inv[a])
    hits = np.isin(mul[np.ix_(cands, a)], square)
    covers = np.zeros((cands.size, mul.shape[0]), dtype=bool)
    rows = np.repeat(np.arange(cands.size), a.size)
    covers[rows[hits.ravel()], mul[np.ix_(cands, a)].ravel()[hits.ravel()]] = True
    uncovered = np.zeros(mul.shape[0], dtype=bool)
    uncovered[square] = True
    count = 0
    while uncovered.any():
        gains = (covers & uncovered).sum(axis=1)
        best = int(np.argmax(gains))
        require(gains[best] > 0, "translates cannot cover A^2")
        uncovered &= ~covers[best]
        count += 1
    return count


def check_group_table(mul: np.ndarray) -> None:
    """Raise unless mul is the table of a group.

    Latin square, two-sided identity and inverses, then Light's
    associativity test: the elements a with (x*a)*y == x*(a*y) for all x, y
    are closed under products, so checking a generating set is exact.
    """
    n = mul.shape[0]
    require(mul.ndim == 2 and mul.shape == (n, n), "table is not square")
    require(int(mul.min()) >= 0 and int(mul.max()) < n, "table entry out of range")
    everything = np.arange(n)
    require(bool((np.sort(mul, axis=1) == everything).all()), "a row is not a permutation")
    require(bool((np.sort(mul, axis=0) == everything[:, None]).all()), "a column is not a permutation")
    inverses(mul)
    generated = np.zeros(n, dtype=bool)
    generators = []
    for g in range(n):
        if not generated[g]:
            generators.append(g)
            generated[:] = False
            generated[closure(mul, generators)] = True
    for a in generators:
        lhs = mul[mul[:, a]]  # lhs[x, y] = (x*a)*y
        rhs = mul[:, mul[a]]  # rhs[x, y] = x*(a*y)
        require(np.array_equal(lhs, rhs), f"associativity fails through element {a}")
