"""Standard corpus of small groups used by the verification suite.

Builders for the classical families plus shorthand names like "C12", "D4",
"S5", "A4", "Q8".  Dihedral and quaternion tables come straight from the
presentation formulas; symmetric and alternating groups are closed from
permutation generators so their element order is the canonical breadth-first
one.
"""

from __future__ import annotations

import re
from math import factorial

import numpy as np

from .errors import BadParams, OrderCapExceeded
from .family import ExampleInstance, ExampleParams, build_example
from .group import Group, build_from_permutations, build_from_table, current_order_cap


def cyclic(n: int) -> Group:
    if n < 1:
        raise BadParams(f"cyclic order must be >= 1, got {n}")
    table = (np.add.outer(np.arange(n), np.arange(n)) % n).astype(np.int32)
    return build_from_table(table, labels=[f"g{i}" for i in range(n)], name=f"C{n}")


def dihedral(k: int) -> Group:
    """Dihedral group of order 2k; id = j*k + i encodes r^i s^j."""
    if k < 1:
        raise BadParams(f"dihedral parameter must be >= 1, got {k}")
    ids = np.arange(2 * k)
    i1, j1 = (ids % k)[:, None], (ids // k)[:, None]
    i2, j2 = (ids % k)[None, :], (ids // k)[None, :]
    sign = 1 - 2 * j1
    table = (((i1 + sign * i2) % k) + k * (j1 ^ j2)).astype(np.int32)
    labels = [f"r{i}" if j == 0 else f"r{i}s" for j in (0, 1) for i in range(k)]
    return build_from_table(table, labels=labels, name=f"D{k}")


def symmetric(n: int) -> Group:
    if n < 1:
        raise BadParams(f"symmetric degree must be >= 1, got {n}")
    if n == 1:
        return build_from_permutations([(0,)], name="S1")
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return build_from_permutations([swap, cycle], name=f"S{n}")


def alternating(n: int) -> Group:
    if n < 3:
        raise BadParams(f"alternating degree must be >= 3, got {n}")
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n == 3:
        gens = [three]
    elif n % 2 == 1:
        gens = [three, tuple(list(range(1, n)) + [0])]
    else:
        gens = [three, tuple([0] + list(range(2, n)) + [1])]
    return build_from_permutations(gens, name=f"A{n}")


def quaternion(order: int) -> Group:
    """Generalized quaternion group Q_(4m); id = j*2m + i encodes a^i b^j."""
    if order < 8 or order % 4:
        raise BadParams(f"quaternion order must be a multiple of 4 >= 8, got {order}")
    m = order // 4
    two_m = 2 * m
    ids = np.arange(order)
    i1, j1 = (ids % two_m)[:, None], (ids // two_m)[:, None]
    i2, j2 = (ids % two_m)[None, :], (ids // two_m)[None, :]
    sign = 1 - 2 * j1
    bump = m * (j1 & j2)
    table = (((i1 + sign * i2 + bump) % two_m) + two_m * (j1 ^ j2)).astype(np.int32)
    labels = [f"a{i}" if j == 0 else f"a{i}b" for j in (0, 1) for i in range(two_m)]
    return build_from_table(table, labels=labels, name=f"Q{order}")


_NAME_RE = re.compile(r"^(C|D|S|A|Q)(\d+)$")

_BUILDERS = {
    "C": cyclic,
    "D": dihedral,
    "S": symmetric,
    "A": alternating,
    "Q": quaternion,
}


def named(name: str) -> Group:
    """Build a group from a shorthand name like C12, D4, S5, A5, or Q8.

    The order follows from the name, so a group above the order cap is
    refused before anything is built.
    """
    match = _NAME_RE.match(name.strip())
    if not match:
        raise BadParams(
            f"unrecognized group name {name!r}; expected C<n>, D<k>, S<n>, "
            "A<n>, or Q<order>"
        )
    kind, digits = match.group(1), match.group(2)
    try:
        param = int(digits)
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise BadParams(f"group name {kind}<{len(digits)} digits> is too long to parse") from exc
    if kind in "SA":  # past degree 20 a lower bound will do for the cap
        order = factorial(min(param, 20)) // (2 if kind == "A" else 1)
    else:
        order = 2 * param if kind == "D" else param
    cap = current_order_cap()
    if order > cap:
        at_least = "at least " if kind in "SA" and param > 20 else ""
        raise OrderCapExceeded(f"{kind}{param} has order {at_least}{order}, above the cap {cap}")
    return _BUILDERS[kind](param)

# Orders stay at or below 320 so the whole corpus builds in seconds and the
# brute-force oracles in the test suite remain feasible.
DEFAULT_CYCLIC = (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 60, 128, 200)
DEFAULT_DIHEDRAL = (3, 4, 5, 6, 8, 10, 12, 25, 100)
DEFAULT_SYMMETRIC = (3, 4, 5)
DEFAULT_ALTERNATING = (4, 5)
DEFAULT_QUATERNION = (8, 16)
DEFAULT_FAMILY = ((3, 1, 1), (4, 2, 1), (5, 2, 2))


def default_family_instances() -> list[ExampleInstance]:
    return [build_example(ExampleParams(n, k, u)) for n, k, u in DEFAULT_FAMILY]


def default_corpus() -> list[tuple[Group, dict]]:
    """The standard (group, roles) list; roles is empty except for family members."""
    groups: list[tuple[Group, dict]] = []
    for n in DEFAULT_CYCLIC:
        groups.append((cyclic(n), {}))
    for k in DEFAULT_DIHEDRAL:
        groups.append((dihedral(k), {}))
    for n in DEFAULT_SYMMETRIC:
        groups.append((symmetric(n), {}))
    for n in DEFAULT_ALTERNATING:
        groups.append((alternating(n), {}))
    for order in DEFAULT_QUATERNION:
        groups.append((quaternion(order), {}))
    for inst in default_family_instances():
        groups.append((inst.group, dict(inst.roles)))
    return groups
