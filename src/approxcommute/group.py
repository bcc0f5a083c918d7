"""Finite groups as dense multiplication tables over element ids 0..n-1."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from .errors import (
    ApproxCommuteError,
    ClassCountCapExceeded,
    EmptySet,
    GroupMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    NotSubgroup,
    OrderCapExceeded,
    SpecParseError,
)
from .subset import Subset, product, symmetrize, with_identity

DEFAULT_ORDER_CAP = 2000
ORDER_CAP_ENV = "APPROXCOMMUTE_ORDER_CAP"
PERM_CLOSURE_CAP = 20000
DEFAULT_CLASS_CAP = 1024
T = TypeVar("T")


def current_order_cap() -> int:
    """Group order cap; APPROXCOMMUTE_ORDER_CAP overrides the default 2000.

    A value that is not a positive integer raises SpecParseError, a ValueError.
    """
    raw = os.environ.get(ORDER_CAP_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise SpecParseError(f"{ORDER_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise SpecParseError(f"{ORDER_CAP_ENV} must be positive, got {cap}")
    return cap


class Group:
    """Finite group on ids 0..order-1; id 0 is always the identity.

    Trusts mul to be a group table with the identity at id 0; only
    build_from_table validates one.  mul and inv are stored read-only.
    """

    __slots__ = ("order", "mul", "inv", "labels", "name", "_derived", "__weakref__")

    identity = 0

    def __init__(self, mul, labels: Optional[Sequence[str]], name: str):
        mul = np.ascontiguousarray(mul, dtype=np.int32)
        inv = mul.argmin(axis=1).astype(np.int32)
        mul.flags.writeable = False
        inv.flags.writeable = False
        self.order = int(mul.shape[0])
        self.mul = mul
        self.inv = inv
        self.labels = None if labels is None else tuple(str(s) for s in labels)
        self.name = name
        self._derived: dict = {}

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """The per-group data under key, made by build() on first use.

        Holds the whole group as one Subset (Subset.full), the commute matrix,
        the conjugacy class representatives (class_reps), the masks of every
        <g> (cyclic_subgroup), normal and cyclic subgroups, quotient maps by
        normal subgroups, and the greedy k of each set a statement was checked
        on without an explicit k. Entries live as long as the group does; data
        about one set is on the set.
        """
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    @property
    def is_abelian(self) -> bool:
        return bool(commute_matrix(self).all())

    def element_label(self, g: int) -> str:
        if self.labels is not None:
            return self.labels[g]
        return str(g)

    def __repr__(self) -> str:
        return f"Group({self.name}, order={self.order})"


@dataclass(frozen=True)
class QuotientMap:
    """Surjection onto a quotient group; targets use minimal coset reps."""

    source: Group
    target: Group
    projection: np.ndarray

    def image(self, x: Subset) -> Subset:
        if x.group is not self.source:
            raise ApproxCommuteError("subset does not belong to the quotient source")
        return Subset.from_ids(self.target, self.projection[x.ids])

    def kernel(self) -> Subset:
        return Subset(self.source, self.projection == self.target.identity)


# ---------------------------------------------------------------------------
# construction


def _check_latin(mul: np.ndarray) -> None:
    n = mul.shape[0]
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise NotLatinSquare(f"table must be square, got shape {mul.shape}")
    if n == 0:
        raise NotLatinSquare("table must be nonempty")
    if mul.min() < 0 or mul.max() >= n:
        raise NotLatinSquare(f"table entries must lie in [0, {n})")
    expect = np.arange(n, dtype=mul.dtype)
    if not np.array_equal(np.sort(mul, axis=1), np.broadcast_to(expect, mul.shape)):
        raise NotLatinSquare("some row is not a permutation of the element ids")
    if not np.array_equal(np.sort(mul, axis=0), np.broadcast_to(expect[:, None], mul.shape)):
        raise NotLatinSquare("some column is not a permutation of the element ids")


def _find_identity(mul: np.ndarray) -> int:
    n = mul.shape[0]
    expect = np.arange(n, dtype=mul.dtype)
    for e in np.flatnonzero(mul[:, 0] == 0):
        if np.array_equal(mul[e], expect) and np.array_equal(mul[:, e], expect):
            return int(e)
    raise NoIdentity("no two-sided identity element in the table")


def _check_associative(mul: np.ndarray) -> None:
    """Light's test: exact at every order.

    When (x*a)*y == x*(a*y) for all x, y, the same holds for every product
    of such elements a (Clifford & Preston I, 1961, section 1.2), so checking
    a generating set suffices.  Each generator is the least id not yet
    reached from the identity by right multiplication with the earlier ones;
    the reached set is then a subgroup and at least doubles with each new
    generator, so at most log2(n) + 1 checks of n^2 products each are made.
    """
    n = mul.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        a = int(np.argmin(reached))
        lhs = mul[mul[:, a]]  # lhs[x, y] = (x*a)*y
        rhs = mul[:, mul[a]]  # rhs[x, y] = x*(a*y)
        if not np.array_equal(lhs, rhs):
            x, y = map(int, np.argwhere(lhs != rhs)[0])
            raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")
        gens.append(a)
        frontier = mul[reached, a]
        while True:
            frontier = np.unique(frontier[~reached[frontier]])
            if frontier.size == 0:
                break
            reached[frontier] = True
            frontier = mul[np.ix_(frontier, gens)].ravel()


def build_from_table(table, *, labels: Optional[Sequence[str]] = None, name: Optional[str] = None) -> Group:
    """Validate an n x n multiplication table from outside and wrap it as a Group.

    The one place a table is checked: the Latin-square property, the
    two-sided identity (relabelled to id 0 when needed), two-sided inverses,
    and associativity exactly by Light's test over a generating set, in
    O(n^2 log n).
    """
    mul = np.asarray(table)
    _check_latin(mul)  # before the int32 cast, which would wrap large entries
    mul = np.array(mul, dtype=np.int32)  # a copy: Group freezes its table, not the caller's
    n = mul.shape[0]
    if labels is not None and len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    e = _find_identity(mul)
    if e != 0:
        # relabel so the identity sits at id 0 (swap ids 0 and e)
        perm = np.arange(n, dtype=np.int32)
        perm[0], perm[e] = e, 0
        mul = perm[mul[np.ix_(perm, perm)]]
        if labels is not None:
            labels = list(labels)
            labels[0], labels[e] = labels[e], labels[0]
    inv = mul.argmin(axis=1)
    # argmin finds the unique 0 per row; confirm inverses are two-sided
    if not np.array_equal(mul[inv, np.arange(n)], np.zeros(n, dtype=mul.dtype)):
        x = int(np.flatnonzero(mul[inv, np.arange(n)] != 0)[0])
        raise NoInverse(f"element {x} has no two-sided inverse")
    _check_associative(mul)
    return Group(mul, labels, name or f"table[{n}]")


def build_from_permutations(
    generators: Iterable[Sequence[int]],
    *,
    degree: Optional[int] = None,
    order_cap: int = PERM_CLOSURE_CAP,
    name: Optional[str] = None,
) -> Group:
    """Group generated by permutations, closed by BFS from the identity.

    Element order is the BFS discovery order with generators applied in the
    given order, so id assignment is deterministic.  Permutations are tuples
    p acting as i -> p[i]; the product a*b acts as i -> a[b[i]].  The table
    is filled by column gathers along the BFS tree: q = parent*g gives column
    a*q = (a*parent)*g, column parent read through right multiplication by g.
    """
    gens = [tuple(int(v) for v in g) for g in generators]
    if degree is None:
        degree = len(gens[0]) if gens else 1
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValueError(f"generator {g} is not a permutation of 0..{degree - 1}")
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    tree = [(0, 0)]  # (parent, j) with elems[q] = elems[parent] * gens[j]
    right = [[] for _ in gens]  # right[j][p] = id of elems[p] * gens[j]
    for head, p in enumerate(elems):
        for j, g in enumerate(gens):
            q = tuple(p[g[i]] for i in range(degree))
            qid = index.setdefault(q, len(elems))
            if qid == len(elems):
                if qid >= order_cap:
                    raise OrderCapExceeded(
                        f"permutation closure exceeded the cap of {order_cap} elements"
                    )
                elems.append(q)
                tree.append((head, j))
            right[j].append(qid)
    n = len(elems)
    right = np.array(right, dtype=np.int32).reshape(len(gens), n)
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n)
    for q, (parent, j) in enumerate(tree[1:], 1):
        table[:, q] = right[j][table[:, parent]]
    return Group(table, None, name or f"perm[{n}]")


def direct_product(g: Group, h: Group, *, order_cap: Optional[int] = None) -> Group:
    """Direct product with element id = g_id * |h| + h_id."""
    cap = current_order_cap() if order_cap is None else order_cap
    n = g.order * h.order
    if n > cap:
        raise OrderCapExceeded(f"product order {n} exceeds cap {cap}")
    big = g.mul.astype(np.int64)[:, None, :, None] * h.order + h.mul[None, :, None, :]
    table = big.reshape(n, n).astype(np.int32)
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = [f"({a},{b})" for a in g.labels for b in h.labels]
    return Group(table, labels, f"{g.name}x{h.name}")


# ---------------------------------------------------------------------------
# element-level operations


def subgroup_closure(seed: Subset) -> Subset:
    """Smallest subgroup containing the seed set.

    Starts from seed, its inverses and the identity, and squares the set
    through `product` until it stops growing.
    """
    if seed.size == 0:
        raise EmptySet("subgroup_closure needs a nonempty seed set")
    cur = with_identity(symmetrize(seed))
    while True:
        nxt = product(cur, cur)
        if nxt.size == cur.size:  # 1 in cur, so cur is a subset of cur*cur
            return cur
        cur = nxt


def commute_matrix(group: Group) -> np.ndarray:
    """Read-only bool matrix whose entry [a, b] says a*b == b*a."""

    def build() -> np.ndarray:
        eq = group.mul == group.mul.T
        eq.flags.writeable = False
        return eq

    return group.derived("commute", build)


def centralizer_in(x: Subset, g: int) -> Subset:
    """Elements of x commuting with g."""
    return Subset(x.group, x.mask & commute_matrix(x.group)[g], _trusted=True)


def conjugates(ids, u: Subset) -> np.ndarray:
    """Array c with c[j, i] = u_j^-1 * g_i * u_j over the ids g_i and the elements u_j of u."""
    mul, uids = u.group.mul, u.ids
    return mul[mul[u.group.inv[uids][:, None], ids], uids[:, None]]


def class_sizes(ids, u: Subset) -> np.ndarray:
    """|g^u| for each id g: the number of distinct values in its column of conjugates."""
    c = conjugates(ids, u)
    c.sort(axis=0)
    return (c.shape[0] > 0) + (c[1:] != c[:-1]).sum(axis=0)


def class_reps(group: Group) -> np.ndarray:
    """Read-only array whose entry g is the least id in the conjugacy class of g."""

    def build() -> np.ndarray:
        reps = conjugates(np.arange(group.order), Subset.full(group)).min(axis=0)
        reps.flags.writeable = False
        return reps

    return group.derived("class_reps", build)


def conjugacy_class_under(g: int, x: Subset) -> Subset:
    """Conjugates {x^-1 g x} of g by elements of x."""
    return Subset.from_ids(x.group, conjugates([g], x))


def conjugacy_classes(group: Group) -> list[Subset]:
    """All conjugacy classes, ordered by their minimal element id."""
    reps = class_reps(group)
    return [Subset(group, reps == r, _trusted=True) for r in np.unique(reps)]


def center(group: Group) -> Subset:
    """Elements commuting with everything."""
    return Subset(group, commute_matrix(group).all(axis=1), _trusted=True)


def is_subgroup(x: Subset) -> bool:
    """True when x is nonempty and closed under the product; memoised on x."""
    return x.size > 0 and x.derived("subgroup", lambda: product(x, x) == x)


def is_normal(x: Subset) -> bool:
    """True when x is a subgroup invariant under conjugation by the whole group."""
    return is_subgroup(x) and np.array_equal(x.mask, x.mask[class_reps(x.group)])


def _by_size_and_mask(sub: Subset) -> tuple[int, bytes]:
    return sub.size, sub.mask.tobytes()


def cyclic_subgroup(group: Group, g: int) -> Subset:
    """The cyclic subgroup <g>: row g of a bool matrix of every <g>, kept on the group.

    One power walk for all g at once makes the matrix: walk g marks g^k in
    row g until g^k = 1.
    """

    def build() -> np.ndarray:
        rows = np.zeros((group.order, group.order), dtype=bool)
        rows[:, group.identity] = True
        live = cur = np.arange(1, group.order)  # id 0 is the identity
        while live.size:
            rows[live, cur] = True
            cur = group.mul[cur, live]
            back = cur == group.identity
            live, cur = live[~back], cur[~back]
        rows.flags.writeable = False
        return rows

    return Subset(group, group.derived("cyclic_rows", build)[g], _trusted=True)


def cyclic_subgroups(group: Group) -> list[Subset]:
    """Distinct cyclic subgroups, ordered by (size, mask); memoised on the group."""

    def build() -> tuple[Subset, ...]:
        found = dict.fromkeys(cyclic_subgroup(group, g) for g in range(group.order))
        return tuple(sorted(found, key=_by_size_and_mask))

    return list(group.derived("cyclics", build))


def normal_subgroups(group: Group, *, class_cap: int = DEFAULT_CLASS_CAP) -> list[Subset]:
    """All normal subgroups, ordered by (size, mask).

    Every normal subgroup N is the join of the normal closures <g^G> over
    its elements g, and the join of two normal subgroups is their product
    set.  So the list is the closure of {1} under N -> N*<C>, where <C> runs
    over the subgroups generated by the conjugacy classes: #normals *
    #classes products at most (Hulpke, "Computing normal subgroups", ISSAC
    1998); classes whose representatives generate one cyclic subgroup have
    one <C>, so only one of them is closed.  The class representatives and the
    result are memoised on the group; each call checks class_cap and returns
    a fresh list.
    """
    reps = class_reps(group)
    n_classes = int(np.count_nonzero(reps == np.arange(group.order)))
    if n_classes > class_cap:
        raise ClassCountCapExceeded(
            f"{n_classes} conjugacy classes exceed the cap of {class_cap}"
        )

    def build() -> tuple[Subset, ...]:
        by_cyclic = {cyclic_subgroup(group, r).mask.tobytes(): r for r in np.unique(reps)}
        classes = (Subset(group, reps == r, _trusted=True) for r in by_cyclic.values())
        principals = dict.fromkeys(subgroup_closure(c) for c in classes)
        trivial = Subset.singleton(group, group.identity)
        found = dict.fromkeys([trivial])
        queue = [trivial]
        while queue:
            base = queue.pop()
            for prin in principals:
                if not prin.issubset(base):
                    join = product(base, prin)
                    if join not in found:
                        found[join] = None
                        queue.append(join)
        return tuple(sorted(found, key=_by_size_and_mask))

    return list(group.derived("normals", build))


def commutator_subgroup(x: Subset, y: Subset) -> Subset:
    """Subgroup generated by the commutators [a, b] = a^-1 b^-1 a b."""
    group = x.group
    if y.group is not group:
        raise GroupMismatch("commutator_subgroup operands belong to different groups")
    if x.size == 0 or y.size == 0:
        return Subset.from_ids(group, [group.identity])
    out = np.zeros(group.order, dtype=bool)
    out[group.mul[group.inv[x.ids], conjugates(x.ids, y)]] = True
    return subgroup_closure(Subset(group, out, _trusted=True))


def quotient(group: Group, n_sub: Subset) -> QuotientMap:
    """Quotient by a normal subgroup, on minimal coset representatives."""
    if n_sub.group is not group:
        raise GroupMismatch("normal subgroup belongs to a different group")
    if n_sub.size == 0 or not is_subgroup(n_sub):
        raise NotSubgroup("quotient requires a subgroup")
    if not is_normal(n_sub):
        raise NotNormal("quotient requires a normal subgroup")
    cosets = group.mul[:, n_sub.ids]
    rep = cosets.min(axis=1).astype(np.int32)
    reps_sorted = np.unique(rep)
    proj = np.searchsorted(reps_sorted, rep).astype(np.int32)
    table = proj[group.mul[np.ix_(reps_sorted, reps_sorted)]]
    labels = None
    if group.labels is not None:
        labels = [group.labels[int(r)] for r in reps_sorted]
    target = Group(table, labels, f"{group.name}/N{n_sub.size}")
    # full homomorphism check; with the source verified this also certifies
    # the target's associativity on every product
    lhs = proj[group.mul]
    rhs = target.mul[proj[:, None], proj[None, :]]
    if not np.array_equal(lhs, rhs):
        raise ApproxCommuteError("internal error: quotient projection is not a homomorphism")
    proj.flags.writeable = False
    return QuotientMap(group, target, proj)
