"""Approximate-subgroup certificates, growth ratios, and covering lemmas."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ApproxCommuteError, ExactCapExceeded, NoIdentity, NotSymmetric
from .subset import Subset, invert, is_symmetric, power, powers, product

EXACT_UNIVERSE_CAP = 4096
EXACT_NODE_CAP = 10**6


@dataclass(frozen=True)
class ApproxCertificate:
    """Witness that base^2 is covered by k_cert left translates of base."""

    base: Subset
    cover: Subset
    k_cert: int
    doubling: Fraction
    tripling: Fraction
    mode: str

    def covers(self) -> bool:
        """Re-verify base^2 subset-of cover*base by direct product computation."""
        return power(self.base, 2).issubset(product(self.cover, self.base))


def _require_certifiable(a: Subset) -> None:
    if not a.contains_identity:
        raise NoIdentity("certify needs the identity in the base set")
    if not is_symmetric(a):
        raise NotSymmetric("certify needs a symmetric base set")


def _coverage_matrix(a: Subset, a2: Subset) -> tuple[np.ndarray, np.ndarray]:
    """Candidate ids and the bool matrix cover[i, p]: e_i * a contains a2.ids[p].

    Candidates are {x * b^-1 : x in a^2, b in a}: sound because any translate
    e*a covering x satisfies e = x*b^-1, so minimal covers live in this set,
    and each candidate covers at least its own x.  A row equal to an earlier
    one is dropped, so the least id stands for each distinct translate.
    Products outside a^2 land in a spare last column, which is cut off.
    """
    pos = np.full(a.group.order, a2.size, dtype=np.int32)
    pos[a2.ids] = np.arange(a2.size)
    cands = product(a2, invert(a)).ids
    cover = np.zeros((cands.size, a2.size + 1), dtype=bool)
    cover[np.arange(cands.size)[:, None], pos[a.group.mul[np.ix_(cands, a.ids)]]] = True
    cover = cover[:, :-1]
    packed = np.packbits(cover, axis=1)
    _, first = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True)
    keep = np.sort(first)
    return cands[keep], cover[keep]


def _greedy_cover(cover: np.ndarray) -> list[int]:
    """Rows of a largest-gain cover; argmax takes the first maximum, the least id.

    gains[i] is kept equal to count_nonzero(cover[i] & uncovered) by taking
    off, after each pick, the columns that pick newly covered.
    """
    chosen: list[int] = []
    uncovered = np.ones(cover.shape[1], dtype=bool)
    gains = np.count_nonzero(cover, axis=1)
    while uncovered.any():
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise ApproxCommuteError("internal error: candidates cannot cover the square")
        chosen.append(best)
        newly = cover[best] & uncovered
        uncovered &= ~newly
        gains -= np.count_nonzero(cover[:, newly], axis=1)
    return chosen


def _exact_cover(elems: np.ndarray, cover: np.ndarray, upper: list[int]) -> list[int]:
    """Branch and bound for a minimum cover; deterministic search order.

    Rows go largest first (least id on ties), columns by (coverer count,
    column), so a node branches on its first uncovered column.  A node with
    room = best_len - |chosen| - 1 rows left for a smaller cover is pruned
    unless its room largest gains reach its uncovered count (Beasley 1987),
    a valid bound, so the first minimum cover in search order is returned.
    One float32 product, exact on 0/1 entries, gives the gains of all
    children at once.  Past EXACT_NODE_CAP nodes the search stops.
    """
    sizes = np.count_nonzero(cover, axis=1)
    order = np.lexsort((elems, -sizes))
    cover = cover[order][:, np.argsort(np.count_nonzero(cover, axis=0), kind="stable")]
    elems = elems[order].tolist()
    columns = cover.T.astype(np.float32)
    coverers = [np.flatnonzero(col) for col in cover.T]
    best, best_len, nodes = list(upper), len(upper), 0

    def dfs(uncovered: np.ndarray, chosen: list[int]) -> None:
        nonlocal best, best_len, nodes
        kids = coverers[int(np.argmax(uncovered))]
        left = uncovered & ~cover[kids]
        remaining = np.count_nonzero(left, axis=1).tolist()
        reach = np.cumsum(-np.sort(-(left.astype(np.float32) @ columns), axis=1), axis=1)
        for i, ci in enumerate(kids.tolist()):
            nodes += 1
            if nodes > EXACT_NODE_CAP:
                bound = np.searchsorted(np.cumsum(np.sort(sizes)[::-1]), cover.shape[1]) + 1
                raise ExactCapExceeded(
                    f"exact search passed {EXACT_NODE_CAP} nodes: a minimum cover "
                    f"has at least {bound} and at most {best_len} translates"
                )
            picked = chosen + [ci]
            room = best_len - len(picked) - 1
            if remaining[i] == 0:
                if room >= 0:
                    best, best_len = [elems[j] for j in picked], len(picked)
            elif room >= 1 and reach[i, room - 1] >= remaining[i]:
                dfs(left[i], picked)

    dfs(np.ones(cover.shape[1], dtype=bool), [])
    return best


def certify(
    a: Subset,
    mode: str = "greedy",
    *,
    exact_cap: int = EXACT_UNIVERSE_CAP,
) -> ApproxCertificate:
    """Certify a as a k-approximate subgroup via set cover of a^2 by translates.

    The universe is a^2 and the candidate translates are {x * b^-1}, held as
    one bool matrix with a row per distinct translate (least id first) and a
    column per element of a^2.  Greedy mode takes the classic largest-gain
    cover (ties to the least element id, so k_cert <= k_min * (1 + ln|a^2|));
    exact mode runs branch-and-bound on the same matrix for a true minimum
    and refuses universes larger than exact_cap.  The returned certificate is
    re-verified against a^2 before it is handed back.
    """
    if mode not in ("greedy", "exact"):
        raise ValueError(f"mode must be 'greedy' or 'exact', got {mode!r}")
    _require_certifiable(a)
    _, a2, a3 = powers(a, 3)
    if mode == "exact" and a2.size > exact_cap:
        raise ExactCapExceeded(f"|a^2| = {a2.size} exceeds the exact-mode cap {exact_cap}")
    elems, cover_matrix = _coverage_matrix(a, a2)
    chosen = [int(elems[i]) for i in _greedy_cover(cover_matrix)]
    if mode == "exact":
        chosen = _exact_cover(elems, cover_matrix, chosen)
    cover = Subset.from_ids(a.group, chosen)
    if not a2.issubset(product(cover, a)):
        raise ApproxCommuteError("internal error: certificate fails to cover the square")
    return ApproxCertificate(
        base=a,
        cover=cover,
        k_cert=cover.size,
        doubling=Fraction(a2.size, a.size),
        tripling=Fraction(a3.size, a.size),
        mode=mode,
    )


def growth_constants(a: Subset, max_power: int) -> list[Fraction]:
    """Exact ratios |a^j| / |a| for j = 2..max_power."""
    if max_power < 2:
        raise ValueError(f"max_power must be >= 2, got {max_power}")
    if a.size == 0:
        raise ApproxCommuteError("growth_constants needs a nonempty set")
    return [Fraction(p.size, a.size) for p in powers(a, max_power)[1:]]


def ruzsa_cover(a: Subset, y: Subset) -> Subset:
    """Greedy maximal family f in a with pairwise-disjoint translates f*y.

    Scanning a in id order keeps the construction deterministic.  The output
    satisfies |f| <= |a*y| / |y| and a subset-of f*y*y^-1, which is
    re-verified before returning.
    """
    group = a.group
    if a.size == 0 or y.size == 0:
        raise ApproxCommuteError("ruzsa_cover needs nonempty sets")
    used = np.zeros(group.order, dtype=bool)
    picked: list[int] = []
    for f in a.ids:
        spot = group.mul[f, y.ids]
        if not used[spot].any():
            picked.append(int(f))
            used[spot] = True
    cover = Subset.from_ids(group, picked)
    if not a.issubset(product(cover, product(y, invert(y)))):
        raise ApproxCommuteError("internal error: covering property failed")
    return cover

