"""Built-in family of groups with small approximate subgroups of known shape.

The underlying group is (V x| <s>) x U where V is an elementary abelian
2-group with basis e_1..e_n, s is the automorphism cyclically shifting the
basis, and U is cyclic of order u.  The center Z has order z = 2u.  The role
set A is the union of the cosets e_i Z for i = 1..k together with the
identity; it is a (k+1)-approximate subgroup whose commuting behaviour and
growth are known in closed form, which makes the family a sharp test bed for
the witness pipelines and the statement suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ApproxCommuteError, BadParams, OrderCapExceeded
from .group import (
    Group,
    build_from_table,
    center,
    class_sizes,
    current_order_cap,
    direct_product,
    subgroup_closure,
)
from .probability import commuting_probability
from .subset import Subset, is_symmetric, power, product

ROLE_NAMES = ("A", "A0", "H", "Z")


@dataclass(frozen=True)
class ExampleParams:
    """Family parameters; n is the shift length, k < n the coset count."""

    n: int
    k: int
    u_order: int

    def __post_init__(self):
        if self.n < 2:
            raise BadParams(f"n must be >= 2, got {self.n}")
        if not 1 <= self.k < self.n:
            raise BadParams(f"k must satisfy 1 <= k < n, got k={self.k}, n={self.n}")
        if self.u_order < 1:
            raise BadParams(f"u_order must be >= 1, got {self.u_order}")

    @property
    def z(self) -> int:
        """Order of the center: 2 * u_order."""
        return 2 * self.u_order

    @property
    def group_order(self) -> int:
        return self.n * (1 << self.n) * self.u_order


@dataclass(frozen=True)
class ExampleInstance:
    """A built family member with its role subsets and predicted quantities."""

    params: ExampleParams
    group: Group
    roles: dict[str, Subset] = field(repr=False)
    predicted: dict[str, object] = field(repr=False)
    cover_b: Subset = field(repr=False)

    def subset(self, role: str) -> Subset:
        if role not in self.roles:
            raise KeyError(f"unknown role {role!r}; expected one of {ROLE_NAMES}")
        return self.roles[role]


def predicted_quantities(params: ExampleParams) -> dict[str, object]:
    """Closed-form sizes, probabilities, and bounds for a family member."""
    n, k, z = params.n, params.k, params.z
    loose = Fraction(1, n) + Fraction(1, k * z)
    return {
        "A_size": k * z + 1,
        "H_size": (1 << k) * z,
        "A0_size": (k + 1) * z,
        "Z_size": z,
        "class_size_nonidentity": n,
        "pr_A_G": Fraction(Fraction(k * z, n) + 1, k * z + 1),
        "A_over_H_lower": Fraction(k, 1 << k),
        "pr_H_G_lower": Fraction(1, 1 << k),
        "pr_A0_G_lower": Fraction(1, k + 1),
        "pr_ratio_A_H_upper": loose * (1 << k),
        "pr_ratio_A_A0_upper": loose * (k + 1),
    }


def _shift_table(n: int) -> Group:
    """V x| <s> on pairs (v, i) with id = v*n + i; s rotates basis bits."""
    size_v = 1 << n
    vmask = size_v - 1
    vs = np.arange(size_v, dtype=np.int64)
    # rot[i][v] = v with each bit b moved to (b + i) % n
    rot = np.empty((n, size_v), dtype=np.int64)
    for i in range(n):
        rot[i] = ((vs << i) | (vs >> (n - i))) & vmask if i else vs
    order = size_v * n
    v1 = np.arange(order, dtype=np.int64) // n
    i1 = np.arange(order, dtype=np.int64) % n
    table = np.empty((order, order), dtype=np.int32)
    for row in range(order):
        v, i = int(v1[row]), int(i1[row])
        table[row] = (v ^ rot[i][v1]) * n + (i + i1) % n
    labels = [f"{int(v):0{n}b}|s{int(i)}" for v, i in zip(v1, i1)]
    return build_from_table(table, labels=labels, name=f"shift[{n}]")


def _cyclic(u: int) -> Group:
    table = (np.add.outer(np.arange(u), np.arange(u)) % u).astype(np.int32)
    return build_from_table(table, labels=[f"u{i}" for i in range(u)], name=f"C{u}")


def build_example(params: ExampleParams, *, order_cap: Optional[int] = None) -> ExampleInstance:
    """Build a family member and verify every predicted quantity exactly."""
    cap = current_order_cap() if order_cap is None else order_cap
    if params.group_order > cap:
        raise OrderCapExceeded(
            f"family order {params.group_order} exceeds cap {cap}"
        )
    n, k, u = params.n, params.k, params.u_order
    group = direct_product(_shift_table(n), _cyclic(u), order_cap=cap)
    ones = (1 << n) - 1

    def gid(v: int, i: int, j: int) -> int:
        return (v * n + i) * u + j

    z_ids = [gid(v, 0, j) for v in (0, ones) for j in range(u)]
    a_ids = {group.identity}
    for i in range(1, k + 1):
        basis = 1 << (i - 1)
        for w in (0, ones):
            for j in range(u):
                a_ids.add(gid(basis ^ w, 0, j))
    a = Subset.from_ids(group, sorted(a_ids))
    zc = Subset.from_ids(group, z_ids)
    a0 = a | zc
    h = subgroup_closure(a)
    cover_b = Subset.from_ids(
        group, [group.identity] + [gid(1 << (i - 1), 0, 0) for i in range(1, k + 1)]
    )
    roles = {"A": a, "A0": a0, "H": h, "Z": zc}
    predicted = predicted_quantities(params)
    _verify_instance(group, roles, cover_b, predicted, params)
    return ExampleInstance(
        params=params, group=group, roles=roles, predicted=predicted, cover_b=cover_b
    )


def _verify_instance(group, roles, cover_b, predicted, params) -> None:
    """Check the closed forms against direct computation; fail loudly if off."""
    a, a0, h, zc = roles["A"], roles["A0"], roles["H"], roles["Z"]
    full = Subset.full(group)
    problems = []
    if center(group) != zc:
        problems.append("center mismatch")
    if a.size != predicted["A_size"]:
        problems.append(f"|A| = {a.size} != {predicted['A_size']}")
    if h.size != predicted["H_size"]:
        problems.append(f"|H| = {h.size} != {predicted['H_size']}")
    if a0.size != predicted["A0_size"]:
        problems.append(f"|A0| = {a0.size} != {predicted['A0_size']}")
    if not (is_symmetric(a) and a.contains_identity):
        problems.append("A is not symmetric with identity")
    if not power(a, 2).issubset(product(cover_b, a)):
        problems.append("A^2 not covered by B*A")
    sizes = class_sizes(a.ids, full)
    wrong = (sizes != predicted["class_size_nonidentity"]) & (a.ids != group.identity)
    if wrong.any():
        i = int(np.argmax(wrong))
        problems.append(f"|{a.ids[i]}^G| = {sizes[i]} != {params.n}")
    pr_a = commuting_probability(a, full)
    if pr_a != predicted["pr_A_G"]:
        problems.append(f"pr(A,G) = {pr_a} != {predicted['pr_A_G']}")
    pr_h = commuting_probability(h, full)
    if not pr_h > predicted["pr_H_G_lower"]:
        problems.append("pr(H,G) lower bound failed")
    pr_a0 = commuting_probability(a0, full)
    if not pr_a0 > predicted["pr_A0_G_lower"]:
        problems.append("pr(A0,G) lower bound failed")
    if not Fraction(a.size, h.size) > predicted["A_over_H_lower"]:
        problems.append("|A|/|H| lower bound failed")
    if not pr_a / pr_h < predicted["pr_ratio_A_H_upper"]:
        problems.append("pr(A,G)/pr(H,G) upper bound failed")
    if not pr_a / pr_a0 < predicted["pr_ratio_A_A0_upper"]:
        problems.append("pr(A,G)/pr(A0,G) upper bound failed")
    if problems:
        raise ApproxCommuteError(
            "family construction failed verification: " + "; ".join(problems)
        )
