"""Independent reference implementations used to validate the library.

Everything here works on plain multiplication tables (lists or arrays of
ints) and deliberately avoids the package's own data structures and
algorithms: probabilities by literal pair counting, subgroup enumeration by
join-of-cyclic-subgroups fixpoint, conjugacy by direct orbit computation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

import numpy as np


def identity_of(mul) -> int:
    n = len(mul)
    for e in range(n):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
            return e
    raise AssertionError("table has no identity")


def inverse_map(mul) -> list[int]:
    e = identity_of(mul)
    n = len(mul)
    inv = [-1] * n
    for x in range(n):
        for y in range(n):
            if mul[x][y] == e:
                inv[x] = y
                break
    assert all(v >= 0 for v in inv)
    return inv


def oracle_pr(xids, yids, mul) -> Fraction:
    """Commuting probability by literal pair enumeration."""
    hits = sum(1 for x, y in iproduct(xids, yids) if mul[x][y] == mul[y][x])
    return Fraction(hits, len(xids) * len(yids))


def oracle_quotient_pr(xids, yids, nids, mul, inv) -> Fraction:
    """pr(XN/N, YN/N) over distinct cosets: xN, yN commute when x y x^-1 y^-1 is in N."""

    def coset_reps(ids):
        return list({min(mul[g][m] for m in nids): g for g in ids}.values())

    xs, ys, n = coset_reps(xids), coset_reps(yids), set(nids)
    hits = sum(1 for x, y in iproduct(xs, ys) if mul[mul[mul[x][y]][inv[x]]][inv[y]] in n)
    return Fraction(hits, len(xs) * len(ys))


def oracle_product(xids, yids, mul) -> set[int]:
    return {mul[x][y] for x, y in iproduct(xids, yids)}


def oracle_power(ids, j, mul) -> set[int]:
    acc = set(ids)
    for _ in range(j - 1):
        acc = oracle_product(acc, ids, mul)
    return acc


def oracle_centralizer(ids, g, mul) -> set[int]:
    return {x for x in ids if mul[x][g] == mul[g][x]}


def oracle_class(g, ids, mul, inv) -> set[int]:
    return {mul[mul[inv[x]][g]][x] for x in ids}


def oracle_conjugacy_classes(mul) -> list[set[int]]:
    n = len(mul)
    inv = inverse_map(mul)
    everything = range(n)
    assigned = [False] * n
    classes = []
    for g in range(n):
        if assigned[g]:
            continue
        cls = oracle_class(g, everything, mul, inv)
        for h in cls:
            assigned[h] = True
        classes.append(cls)
    return classes


def oracle_center(mul) -> set[int]:
    n = len(mul)
    return {g for g in range(n) if all(mul[g][x] == mul[x][g] for x in range(n))}


def oracle_is_subgroup(ids, mul) -> bool:
    ids = set(ids)
    return bool(ids) and oracle_product(ids, ids, mul) == ids


def _closure_np(mul_np, ids) -> frozenset[int]:
    n = mul_np.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[list(ids)] = True
    while True:
        cur = np.flatnonzero(mask)
        mask[mul_np[np.ix_(cur, cur)]] = True
        if np.count_nonzero(mask) == cur.size:
            return frozenset(int(v) for v in cur)


def oracle_subgroup_closure(ids, mul) -> set[int]:
    return set(_closure_np(np.asarray(mul), ids))


def oracle_all_subgroups(mul) -> set[frozenset[int]]:
    """All subgroups: fixpoint of joining known subgroups with cyclic ones.

    Every subgroup is the join of the cyclic subgroups it contains, so
    repeatedly adjoining one cyclic generator reaches everything.
    """
    mul_np = np.asarray(mul)
    n = mul_np.shape[0]
    cyclics = {_closure_np(mul_np, [g]) for g in range(n)}
    subs = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        fresh = set()
        for h in frontier:
            for c in cyclics:
                if c <= h:
                    continue
                joined = _closure_np(mul_np, h | c)
                if joined not in subs:
                    fresh.add(joined)
        subs |= fresh
        frontier = fresh
    return subs


def _by_size_and_mask(sets, n) -> list[bytes]:
    """Masks of the distinct sets, ordered as the package orders subgroups."""
    masks = set()
    for ids in sets:
        mask = np.zeros(n, dtype=bool)
        mask[list(ids)] = True
        masks.add(mask.tobytes())
    return sorted(masks, key=lambda m: (m.count(1), m))


def reference_cyclic_closures(mul) -> list[frozenset[int]]:
    """<g> for each g by its own closure: the per-element loop the power walk replaced."""
    mul_np = np.asarray(mul)
    return [_closure_np(mul_np, [g]) for g in range(mul_np.shape[0])]


def reference_cyclic_subgroups(mul) -> list[bytes]:
    return _by_size_and_mask(reference_cyclic_closures(mul), len(mul))


def reference_normal_subgroups(mul) -> list[bytes]:
    """Joins of the normal closures of every conjugacy class, one closure per class."""
    mul_np = np.asarray(mul)
    principals = {_closure_np(mul_np, c) for c in oracle_conjugacy_classes(mul)}
    found = {frozenset([identity_of(mul)])}
    queue = list(found)
    while queue:
        base = queue.pop()
        for prin in principals:
            join = _closure_np(mul_np, base | prin)
            if join not in found:
                found.add(join)
                queue.append(join)
    return _by_size_and_mask(found, len(mul))


def oracle_is_normal(ids, mul, inv) -> bool:
    members = set(ids)
    n = len(mul)
    for g in range(n):
        for h in members:
            if mul[mul[inv[g]][h]][g] not in members:
                return False
    return True


def oracle_normal_subgroups(mul) -> set[frozenset[int]]:
    inv = inverse_map(mul)
    return {s for s in oracle_all_subgroups(mul) if oracle_is_normal(s, mul, inv)}


def oracle_commutator_subgroup(xids, yids, mul, inv) -> set[int]:
    comms = {
        mul[mul[mul[inv[x]][inv[y]]][x]][y] for x in xids for y in yids
    }
    return oracle_subgroup_closure(comms, mul)


def compose(p, q):
    """Permutation composition (p after q): (p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def permutation_table(perms) -> list[list[int]]:
    index = {p: i for i, p in enumerate(perms)}
    return [[index[compose(a, b)] for b in perms] for a in perms]


def oracle_best_t(mul, b_closure_ids) -> tuple[int, int]:
    """Exhaustive (commutator size, index) minimum over all normal subgroups."""
    n = len(mul)
    inv = inverse_map(mul)
    best = None
    for t in sorted(oracle_normal_subgroups(mul), key=lambda s: (len(s), sorted(s))):
        comm = oracle_commutator_subgroup(t, b_closure_ids, mul, inv)
        key = (len(comm), n // len(t))
        if best is None or key < best:
            best = key
    return best


def oracle_exact_cover(elems, cover, upper) -> list[int]:
    """Minimum cover of the columns of a bool matrix by its rows, by the plain
    branch and bound: rows largest first (least element on ties), branch on
    the uncovered column with the fewest covering rows (least column on
    ties), prune only by ceil(remaining / largest row).  Returns the elements
    of the first minimum cover in that search order, or upper if none beats
    it."""
    sizes = np.count_nonzero(cover, axis=1)
    order = np.lexsort((elems, -sizes))
    cover = cover[order]
    elems = elems[order].tolist()
    packed = np.packbits(cover, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    coverers = [np.flatnonzero(col).tolist() for col in cover.T]
    full = (1 << cover.shape[1]) - 1
    max_mask = int(sizes.max())
    best = list(upper)
    best_len = len(upper)

    def dfs(covered: int, chosen: list[int]) -> None:
        nonlocal best, best_len
        if covered == full:
            if len(chosen) < best_len:
                best_len = len(chosen)
                best = [elems[i] for i in chosen]
            return
        remaining = (full & ~covered).bit_count()
        if len(chosen) + (remaining + max_mask - 1) // max_mask >= best_len:
            return
        # branch on the uncovered point with the fewest candidate translates
        pick = -1
        pick_n = None
        m = full & ~covered
        while m:
            low = m & -m
            b = low.bit_length() - 1
            k = len(coverers[b])
            if pick_n is None or k < pick_n:
                pick, pick_n = b, k
            m ^= low
        for ci in coverers[pick]:
            dfs(covered | masks[ci], chosen + [ci])

    dfs(0, [])
    return best
