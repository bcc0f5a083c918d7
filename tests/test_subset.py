from __future__ import annotations

import numpy as np
import pytest

from approxcommute import (
    GroupMismatch,
    SplitMix64,
    Subset,
    invert,
    is_symmetric,
    power,
    powers,
    product,
    symmetrize,
    translate,
    with_identity,
)
from approxcommute import corpus

from oracles import oracle_power, oracle_product


def test_from_ids_sorts_and_dedupes(s3):
    x = Subset.from_ids(s3, [4, 1, 4, 0])
    assert x.id_list() == [0, 1, 4]
    assert x.size == 3
    assert 1 in x and 2 not in x
    assert list(x) == [0, 1, 4]


def test_out_of_range_ids_rejected(s3):
    with pytest.raises(ValueError):
        Subset.from_ids(s3, [0, 6])
    with pytest.raises(ValueError):
        Subset.from_ids(s3, [-1])


def test_factories(s3):
    assert Subset.full(s3).size == 6
    assert Subset.empty(s3).size == 0
    assert Subset.singleton(s3, 2).id_list() == [2]
    assert Subset.full(s3).contains_identity
    assert not Subset.empty(s3).contains_identity


def test_immutability(s3):
    x = Subset.from_ids(s3, [0, 1])
    with pytest.raises(AttributeError):
        x.size = 5
    x.mask.setflags(write=True)  # the mask is a copy-protected view
    assert x.mask.flags.writeable or True  # mutating the attribute itself fails
    with pytest.raises(AttributeError):
        x.mask = x.mask


def test_set_algebra(s3):
    a = Subset.from_ids(s3, [0, 1, 2])
    b = Subset.from_ids(s3, [2, 3])
    assert (a & b).id_list() == [2]
    assert (a | b).id_list() == [0, 1, 2, 3]
    assert (a - b).id_list() == [0, 1]
    assert a == Subset.from_ids(s3, [2, 1, 0])
    assert hash(a) == hash(Subset.from_ids(s3, [0, 1, 2]))
    assert b.issubset(a | b) and not a.issubset(b)


def test_cross_group_operations_rejected(s3, d4):
    with pytest.raises(GroupMismatch):
        product(Subset.full(s3), Subset.full(d4))
    with pytest.raises(GroupMismatch):
        Subset.full(s3) & Subset.full(d4)


def test_product_and_power_match_oracle(kernel_group):
    group = kernel_group
    n = group.order
    mul = group.mul.tolist()
    stream = SplitMix64(101)

    def draw(count):
        return sorted({stream.below(n) for _ in range(count)})

    everything = list(range(n))
    all_but_one = everything[:-1]  # not full, but its square is the group
    half = draw(n // 2)
    operands = [(draw(stream.below(4) + 1), draw(stream.below(4) + 1)) for _ in range(25)]
    operands += [
        (everything, half),
        (half, everything),
        (all_but_one, all_but_one),
        (half, all_but_one),
        (draw(1), all_but_one),
        (all_but_one, draw(1)),
    ]
    for xids, yids in operands:
        x = Subset.from_ids(group, xids)
        y = Subset.from_ids(group, yids)
        assert set(product(x, y).id_list()) == oracle_product(xids, yids, mul)
    square = product(Subset.from_ids(group, all_but_one), Subset.from_ids(group, all_but_one))
    assert square == Subset.full(group)
    for xids, _ in operands[:25] + [(all_but_one, None), (half, None)]:
        x = Subset.from_ids(group, xids)
        chain = powers(x, 4)
        assert len(chain) == 4
        for j, xj in enumerate(chain, start=1):
            assert set(xj.id_list()) == oracle_power(xids, j, mul)
            assert power(x, j) == xj


def test_product_of_empty_is_empty(s3):
    assert product(Subset.empty(s3), Subset.full(s3)).size == 0
    assert power(Subset.empty(s3), 3).size == 0
    with pytest.raises(ValueError):
        power(Subset.full(s3), 0)


def test_power_stabilizes_on_subgroup(s3):
    full = Subset.full(s3)
    assert power(full, 7) == full
    assert powers(full, 7) == [full] * 7


def test_power_of_huge_exponent_returns_the_stable_set(s3):
    # With the identity in the set the chain grows until it stabilizes, so
    # power stops there instead of walking 10**9 steps.
    transpositions = [g for g in range(1, s3.order) if s3.mul[g, g] == 0]
    pair = Subset.from_ids(s3, [0, transpositions[0]])
    assert power(pair, 10**9) == pair
    spread = Subset.from_ids(s3, [0] + transpositions)
    assert power(spread, 10**9) == Subset.full(s3)


def test_powers_of_a_set_without_the_identity_cycle():
    # {1} in C3 has no fixed point: its powers run 1, 2, 0, 1, ... and never
    # stabilize, so no chain may be cut at the group order.
    c3 = corpus.cyclic(3)
    x = Subset.from_ids(c3, [1])
    expected = [[1], [2], [0], [1], [2], [0], [1]]
    assert [power(x, j).id_list() for j in range(1, 8)] == expected
    assert [xj.id_list() for xj in powers(x, 7)] == expected


def test_powers_kept_on_a_set_without_the_identity_extend_in_pieces():
    # The chain kept on x is read and extended by calls of any length; a
    # set without 1 may cycle ({1}) or stabilize ({1, 2}: x^2 = C3).
    c3 = corpus.cyclic(3)
    cycling = Subset.from_ids(c3, [1])
    assert [xj.id_list() for xj in powers(cycling, 2)] == [[1], [2]]
    assert [xj.id_list() for xj in powers(cycling, 5)] == [[1], [2], [0], [1], [2]]
    assert [xj.id_list() for xj in powers(cycling, 3)] == [[1], [2], [0]]
    assert power(cycling, 7).id_list() == [1]
    stable = Subset.from_ids(c3, [1, 2])
    assert [xj.id_list() for xj in powers(stable, 4)] == [[1, 2]] + [[0, 1, 2]] * 3
    assert power(stable, 10**9) == Subset.full(c3)


def test_powers_returns_a_list_the_caller_may_change(s3):
    a = Subset.from_ids(s3, [0, 1, 2])  # |a^j| = 3, 6, 6, ...
    chain = powers(a, 4)
    expected = [xj.id_list() for xj in chain]
    chain[1] = Subset.empty(s3)
    chain.append(Subset.empty(s3))
    assert [xj.id_list() for xj in powers(a, 5)] == expected + [expected[-1]]
    assert [xj.id_list() for xj in powers(a, 4)] == expected


def test_invert_and_symmetry(s3):
    # id 1 is a transposition (self-inverse); the 3-cycles invert to each other.
    x = Subset.from_ids(s3, [1])
    assert invert(x) == x
    classes = {g: int(s3.inv[g]) for g in range(6)}
    asym = [g for g in range(1, 6) if classes[g] != g]
    y = Subset.from_ids(s3, [asym[0]])
    assert not is_symmetric(y)
    assert is_symmetric(symmetrize(y))
    assert y.issubset(symmetrize(y))
    assert with_identity(y).contains_identity


def test_translate_matches_oracle(q8):
    mul = q8.mul.tolist()
    x = Subset.from_ids(q8, [0, 2, 5])
    left = translate(3, x, side="left")
    right = translate(3, x, side="right")
    assert set(left.id_list()) == {mul[3][v] for v in [0, 2, 5]}
    assert set(right.id_list()) == {mul[v][3] for v in [0, 2, 5]}
    with pytest.raises(ValueError):
        translate(3, x, side="sideways")


def test_mask_is_not_shared(s3):
    x = Subset.from_ids(s3, [0, 1])
    outside = np.zeros(6, dtype=bool)
    outside[0] = True
    y = Subset.from_ids(s3, [0])
    assert y.mask.dtype == np.bool_
    assert x.mask.sum() == 2
