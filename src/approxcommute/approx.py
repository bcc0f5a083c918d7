"""Approximate-subgroup certificates, growth ratios, and covering lemmas."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ApproxCommuteError, ExactCapExceeded, NoIdentity, NotSymmetric
from .subset import Subset, invert, is_symmetric, power, powers, product

EXACT_UNIVERSE_CAP = 4096


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


def _candidate_masks(a: Subset, a2: Subset) -> list[tuple[int, int]]:
    """(element id, covered-universe bitmask) per distinct useful candidate.

    Candidates are {x * b^-1 : x in a^2, b in a}: sound because any translate
    e*a covering x satisfies e = x*b^-1, so minimal covers live in this set.
    """
    group = a.group
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[a2.ids] = np.arange(a2.size)
    cands = product(a2, invert(a))
    out: list[tuple[int, int]] = []
    seen: set[int] = set()
    for e in cands.ids:
        hit = pos[group.mul[e, a.ids]]
        hit = hit[hit >= 0]
        mask = 0
        for p in hit:
            mask |= 1 << int(p)
        if mask and mask not in seen:
            seen.add(mask)
            out.append((int(e), mask))
    return out


def _greedy_cover(universe_bits: int, cands: list[tuple[int, int]]) -> list[int]:
    chosen: list[int] = []
    covered = 0
    while covered != universe_bits:
        best_e = -1
        best_gain = 0
        best_mask = 0
        for e, mask in cands:
            gain = (mask & ~covered).bit_count()
            if gain > best_gain:  # ties keep the earlier (smaller) element id
                best_e, best_gain = e, gain
                best_mask = mask
        if best_gain == 0:
            raise ApproxCommuteError("internal error: candidates cannot cover the square")
        chosen.append(best_e)
        covered |= best_mask
    return chosen


def _exact_cover(universe_size: int, cands: list[tuple[int, int]], upper: list[int]) -> list[int]:
    """Branch and bound for a minimum cover; deterministic search order."""
    full = (1 << universe_size) - 1
    order = sorted(range(len(cands)), key=lambda i: (-cands[i][1].bit_count(), cands[i][0]))
    masks = [cands[i][1] for i in order]
    elems = [cands[i][0] for i in order]
    coverers: list[list[int]] = [[] for _ in range(universe_size)]
    for ci, mask in enumerate(masks):
        m = mask
        while m:
            low = m & -m
            coverers[low.bit_length() - 1].append(ci)
            m ^= low
    max_mask = max(mask.bit_count() for mask in masks)
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


def certify(
    a: Subset,
    mode: str = "greedy",
    *,
    exact_cap: int = EXACT_UNIVERSE_CAP,
) -> ApproxCertificate:
    """Certify a as a k-approximate subgroup via set cover of a^2 by translates.

    The universe is a^2 and the candidate translates are {x * b^-1}.  Greedy
    mode takes the classic largest-gain cover (ties to the least element id,
    so k_cert <= k_min * (1 + ln|a^2|)); exact mode runs branch-and-bound for
    a true minimum and refuses universes larger than exact_cap.  The returned
    certificate is re-verified against a^2 before it is handed back.
    """
    if mode not in ("greedy", "exact"):
        raise ValueError(f"mode must be 'greedy' or 'exact', got {mode!r}")
    _require_certifiable(a)
    _, a2, a3 = powers(a, 3)
    if mode == "exact" and a2.size > exact_cap:
        raise ExactCapExceeded(f"|a^2| = {a2.size} exceeds the exact-mode cap {exact_cap}")
    cands = _candidate_masks(a, a2)
    universe_bits = (1 << a2.size) - 1
    chosen = _greedy_cover(universe_bits, cands)
    if mode == "exact":
        chosen = _exact_cover(a2.size, cands, chosen)
    cover = Subset.from_ids(a.group, chosen)
    cert = ApproxCertificate(
        base=a,
        cover=cover,
        k_cert=cover.size,
        doubling=Fraction(a2.size, a.size),
        tripling=Fraction(a3.size, a.size),
        mode=mode,
    )
    if not cert.covers():
        raise ApproxCommuteError("internal error: certificate fails to cover the square")
    return cert


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

