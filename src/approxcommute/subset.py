"""Immutable dense subsets of a finite group and their product algebra."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

import numpy as np

from .errors import GroupMismatch

if TYPE_CHECKING:  # pragma: no cover
    from .group import Group, T


class Subset:
    """Immutable subset of a group's element ids: read-only mask and ids, plus derived data."""

    __slots__ = ("group", "mask", "ids", "size", "_derived")

    def __init__(self, group: "Group", mask: np.ndarray, *, _trusted: bool = False):
        if not _trusted:
            mask = np.array(mask, dtype=bool)
            if mask.shape != (group.order,):
                raise ValueError(
                    f"mask length {mask.shape} does not match group order {group.order}"
                )
        mask.flags.writeable = False
        ids = mask.nonzero()[0]
        ids.flags.writeable = False
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "size", int(ids.shape[0]))
        object.__setattr__(self, "_derived", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subset is immutable")

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The data about this set under key, made by build() on first use, freed with the set."""
        if self._derived is None:
            object.__setattr__(self, "_derived", {})
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ids(cls, group: "Group", ids: Iterable[int]) -> "Subset":
        mask = np.zeros(group.order, dtype=bool)
        arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= group.order):
            raise ValueError(f"element ids out of range [0, {group.order})")
        mask[arr] = True
        return cls(group, mask, _trusted=True)

    @classmethod
    def full(cls, group: "Group") -> "Subset":
        """The whole group, one shared object per group."""
        return group.derived("full", lambda: cls(group, np.ones(group.order, bool), _trusted=True))

    @classmethod
    def empty(cls, group: "Group") -> "Subset":
        return cls(group, np.zeros(group.order, dtype=bool), _trusted=True)

    @classmethod
    def singleton(cls, group: "Group", g: int) -> "Subset":
        return cls.from_ids(group, [g])

    # -- container protocol ------------------------------------------------

    def __contains__(self, g: int) -> bool:
        return 0 <= g < self.group.order and bool(self.mask[g])

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return (int(g) for g in self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self.group is other.group and np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        return hash((id(self.group), self.mask.tobytes()))

    def __and__(self, other: "Subset") -> "Subset":
        _require_same_group(self, other)
        return Subset(self.group, self.mask & other.mask, _trusted=True)

    def __or__(self, other: "Subset") -> "Subset":
        _require_same_group(self, other)
        return Subset(self.group, self.mask | other.mask, _trusted=True)

    def __sub__(self, other: "Subset") -> "Subset":
        _require_same_group(self, other)
        return Subset(self.group, self.mask & ~other.mask, _trusted=True)

    def issubset(self, other: "Subset") -> bool:
        _require_same_group(self, other)
        return not bool((self.mask & ~other.mask).any())

    @property
    def contains_identity(self) -> bool:
        return bool(self.mask[self.group.identity])

    def id_list(self) -> list[int]:
        """Sorted python ints, the canonical wire representation of a set."""
        return [int(g) for g in self.ids]

    def __repr__(self) -> str:
        shown = ",".join(str(int(g)) for g in self.ids[:8])
        tail = ",..." if self.size > 8 else ""
        return f"Subset({self.group.name}, size={self.size}, ids=[{shown}{tail}])"


def _require_same_group(x: Subset, y: Subset) -> None:
    if x.group is not y.group:
        raise GroupMismatch(
            f"subsets belong to different groups ({x.group.name} vs {y.group.name})"
        )


def product(x: Subset, y: Subset) -> Subset:
    """Pointwise product set {a*b : a in x, b in y}.

    Empty if either operand is empty; the whole group if either operand is
    the whole group and the other is not empty (x*G = G*y = G). Otherwise
    one O(|x|*|y|) index of the multiplication table marks the products.
    """
    _require_same_group(x, y)
    group = x.group
    if x.size == 0 or y.size == 0:
        return Subset.empty(group)
    if x.size == group.order or y.size == group.order:
        return Subset.full(group)
    out = np.zeros(group.order, dtype=bool)
    out[group.mul[x.ids[:, None], y.ids]] = True
    return Subset(group, out, _trusted=True)


def powers(x: Subset, j: int) -> list[Subset]:
    """The chain [x^1, ..., x^j] as a new list, one product per step, kept on x.

    Once x^(i+1) == x^i every higher power equals it, so the rest of the
    chain repeats that set without further products. A set whose powers
    cycle ({1} in C3: x^4 == x) never stabilizes and keeps the j - 1 asked for.
    """
    if j < 1:
        raise ValueError(f"power exponent must be >= 1, got {j}")
    memo = x.derived("powers", lambda: [[], False])  # [[x^2, x^3, ...], stable]
    higher = memo[0]
    while len(higher) + 1 < j and not memo[1]:
        last = higher[-1] if higher else x
        nxt = product(last, x)
        if nxt == last:
            memo[1] = True
        else:
            higher.append(nxt)
    chain = [x] + higher[: j - 1]
    return chain + [chain[-1]] * (j - len(chain))


def power(x: Subset, j: int) -> Subset:
    """j-fold product set x^j (x^1 = x); the walk stops where the chain stabilizes.

    A set containing 1 keeps its chain, up to |G| - 1 sets, for its lifetime;
    any other set may cycle, so j is not capped and it walks afresh.
    """
    if x.contains_identity:
        return powers(x, min(j, x.group.order))[-1]
    if j < 1:
        raise ValueError(f"power exponent must be >= 1, got {j}")
    current = x
    for _ in range(j - 1):
        nxt = product(current, x)
        if nxt == current:
            break
        current = nxt
    return current


def invert(x: Subset) -> Subset:
    """Inverse set {a^-1 : a in x}."""
    group = x.group
    mask = np.zeros(group.order, dtype=bool)
    mask[group.inv[x.ids]] = True
    return Subset(group, mask, _trusted=True)


def is_symmetric(x: Subset) -> bool:
    """True when x is closed under inverses; memoised on x."""
    return x.derived("symmetric", lambda: bool(np.array_equal(x.mask, x.mask[x.group.inv])))


def symmetrize(x: Subset) -> Subset:
    """Union of x with its inverse set; identity on symmetric inputs."""
    return x | invert(x)


def with_identity(x: Subset) -> Subset:
    """x with the identity element added."""
    if x.contains_identity:
        return x
    mask = x.mask.copy()
    mask[x.group.identity] = True
    return Subset(x.group, mask, _trusted=True)


def translate(g: int, x: Subset, side: str = "left") -> Subset:
    """Coset g*x (side="left") or x*g (side="right")."""
    group = x.group
    if not 0 <= g < group.order:
        raise ValueError(f"element id {g} out of range [0, {group.order})")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    mask = np.zeros(group.order, dtype=bool)
    if x.size:
        moved = group.mul[g, x.ids] if side == "left" else group.mul[x.ids, g]
        mask[moved] = True
    return Subset(group, mask, _trusted=True)
