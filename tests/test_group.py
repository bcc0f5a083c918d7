from __future__ import annotations

import random

import numpy as np
import pytest

from approxcommute import (
    ClassCountCapExceeded,
    EmptySet,
    ExampleParams,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    NotSubgroup,
    OrderCapExceeded,
    Subset,
    build_example,
    build_from_permutations,
    build_from_table,
    center,
    centralizer_in,
    commutator_subgroup,
    conjugacy_class_under,
    conjugacy_classes,
    direct_product,
    is_normal,
    is_subgroup,
    normal_subgroups,
    product,
    quotient,
    subgroup_closure,
)
from approxcommute import corpus
from approxcommute.group import class_sizes

from oracles import (
    compose,
    oracle_all_subgroups,
    oracle_center,
    oracle_centralizer,
    oracle_class,
    oracle_commutator_subgroup,
    oracle_conjugacy_classes,
    oracle_is_normal,
    oracle_subgroup_closure,
    inverse_map,
    permutation_table,
)


def test_rejects_non_latin_table():
    with pytest.raises(NotLatinSquare):
        build_from_table([[0, 0], [1, 1]])


def test_rejects_table_without_identity():
    # Subtraction mod 3: Latin, has a right identity but no two-sided one.
    table = [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
    with pytest.raises(NoIdentity):
        build_from_table(table)


def test_rejects_non_associative_loop():
    # A loop (Latin square, identity 0, every element self-inverse) that is
    # not associative: (1*2)*2 = 4 but 1*(2*2) = 1.
    base = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative):
        build_from_table(base)


def test_identity_relabeled_to_zero():
    # C3 written with the identity at position 2.
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    perm_fixed = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    group = build_from_table(perm_fixed)
    assert group.identity == 0
    assert group.mul[0].tolist() == [0, 1, 2]


def test_inverse_table(q8):
    mul = q8.mul.tolist()
    inv = inverse_map(mul)
    assert q8.inv.tolist() == inv


def test_labels_roundtrip():
    group = build_from_table([[0, 1], [1, 0]], labels=["e", "t"])
    assert group.element_label(0) == "e"
    assert group.element_label(1) == "t"
    bare = build_from_table([[0, 1], [1, 0]])
    assert bare.element_label(1) == "1"


def test_label_length_validated():
    with pytest.raises(ValueError):
        build_from_table([[0, 1], [1, 0]], labels=["e"])


def test_permutation_closure_matches_table_construction():
    swap = (1, 0, 2)
    cycle = (1, 2, 0)
    group = build_from_permutations([swap, cycle])
    assert group.order == 6
    # Reconstruct the expected element order: breadth-first from identity.
    perms = [(0, 1, 2)]
    frontier = [(0, 1, 2)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in (swap, cycle):
                q = compose(p, g)
                if q not in perms:
                    perms.append(q)
                    nxt.append(q)
        frontier = nxt
    expected = permutation_table(perms)
    assert group.mul.tolist() == expected


def test_permutation_closure_cap():
    cycle = tuple(list(range(1, 12)) + [0])
    with pytest.raises(OrderCapExceeded):
        build_from_permutations([cycle], order_cap=10)


def _symmetric_gens(n):
    return [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]


def _alternating_gens(n):
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2:
        return [three, tuple(list(range(1, n)) + [0])]
    return [three, tuple([0] + list(range(2, n)) + [1])]


def _bfs_elements(gens, degree):
    """Closure of gens in BFS order from the identity, generators in order."""
    perms = [tuple(range(degree))]
    seen = {perms[0]}
    for p in perms:
        for g in gens:
            q = compose(p, g)
            if q not in seen:
                seen.add(q)
                perms.append(q)
    return perms


@pytest.mark.parametrize(
    "gens",
    [
        [(0,)],
        *(_symmetric_gens(n) for n in (3, 4, 5, 6)),
        *(_alternating_gens(n) for n in (4, 5, 6)),
        # C3 wr C3 (order 81) on 9 points, three generators
        [(1, 2, 0, 3, 4, 5, 6, 7, 8), (0, 1, 2, 4, 5, 3, 6, 7, 8),
         (3, 4, 5, 6, 7, 8, 0, 1, 2)],
        [(1, 0, 2, 3), (1, 2, 3, 0), (1, 0, 2, 3)],  # a repeated generator
        [(0, 1, 2, 3, 4), (1, 2, 3, 4, 0)],  # the identity among them
    ],
    ids=["S1", "S3", "S4", "S5", "S6", "A4", "A5", "A6", "C3wrC3", "repeat", "identity"],
)
def test_permutation_table_matches_composition(gens):
    perms = _bfs_elements(gens, len(gens[0]))
    group = build_from_permutations(gens)
    assert group.order == len(perms)
    assert group.mul.tolist() == permutation_table(perms)


def test_permutation_closure_cap_is_exact():
    gens = _symmetric_gens(4)
    assert build_from_permutations(gens, order_cap=24).order == 24
    with pytest.raises(OrderCapExceeded):
        build_from_permutations(gens, order_cap=23)


def test_direct_product_structure(s3):
    c2 = corpus.cyclic(2)
    prod = direct_product(s3, c2)
    assert prod.order == 12
    mul = prod.mul
    # id = s3_id * 2 + c2_id; componentwise multiplication.
    for a in (0, 3, 5):
        for i in (0, 1):
            for b in (1, 4):
                for j in (0, 1):
                    x = a * 2 + i
                    y = b * 2 + j
                    assert mul[x, y] == s3.mul[a, b] * 2 + ((i + j) % 2)


def test_direct_product_order_cap(s3):
    with pytest.raises(OrderCapExceeded):
        direct_product(s3, s3, order_cap=30)


def test_is_abelian(c12, s3):
    assert c12.is_abelian
    assert not s3.is_abelian


def test_centralizer_matches_oracle(d4):
    mul = d4.mul.tolist()
    full = Subset.full(d4)
    for g in range(8):
        got = centralizer_in(full, g).id_list()
        assert set(got) == oracle_centralizer(range(8), g, mul)
    sub = Subset.from_ids(d4, [0, 1, 5])
    for g in range(8):
        assert set(centralizer_in(sub, g).id_list()) == oracle_centralizer(
            [0, 1, 5], g, mul
        )


def test_conjugacy_classes_match_oracle(q8, s3):
    for group in (q8, s3):
        mul = group.mul.tolist()
        expected = {frozenset(c) for c in oracle_conjugacy_classes(mul)}
        got = {frozenset(c.id_list()) for c in conjugacy_classes(group)}
        assert got == expected


def test_class_under_subset_matches_oracle(s3):
    mul = s3.mul.tolist()
    inv = inverse_map(mul)
    sub = [0, 1, 2]
    for g in range(6):
        got = conjugacy_class_under(g, Subset.from_ids(s3, sub))
        assert set(got.id_list()) == oracle_class(g, sub, mul, inv)


@pytest.mark.parametrize("name", ["S4", "D6", "Q16"])
def test_class_kernel_under_random_subsets_matches_oracle(name):
    group = corpus.named(name)
    mul = group.mul.tolist()
    inv = inverse_map(mul)
    rng = random.Random(f"class-kernel:{name}")
    ids = np.arange(group.order)
    for size in (1, 2, 3, 5, group.order // 2, group.order):
        u = Subset.from_ids(group, rng.sample(range(group.order), size))
        expected = [oracle_class(g, u.id_list(), mul, inv) for g in range(group.order)]
        assert class_sizes(ids, u).tolist() == [len(c) for c in expected]
        for g in rng.sample(range(group.order), 4):
            assert set(conjugacy_class_under(g, u).id_list()) == expected[g]
    empty = Subset.empty(group)
    assert class_sizes(ids, empty).tolist() == [0] * group.order
    assert conjugacy_class_under(1, empty).size == 0


@pytest.mark.parametrize("name", ["S4", "D4", "Q8"])
def test_is_normal_matches_oracle_on_every_subgroup(name):
    group = corpus.named(name)
    mul = group.mul.tolist()
    inv = inverse_map(mul)
    for sub in oracle_all_subgroups(mul):
        x = Subset.from_ids(group, sub)
        assert is_normal(x) == oracle_is_normal(sub, mul, inv)
    # A class without the identity is closed under conjugation but not normal.
    assert not is_normal(conjugacy_classes(group)[-1])


@pytest.mark.parametrize("name", ["S4", "D6", "Q16"])
def test_commutator_of_random_subgroup_pairs_matches_oracle(name):
    group = corpus.named(name)
    mul = group.mul.tolist()
    inv = inverse_map(mul)
    rng = random.Random(f"commutator:{name}")
    for _ in range(12):
        x, y = (
            subgroup_closure(Subset.from_ids(group, rng.sample(range(group.order), 2)))
            for _ in range(2)
        )
        expected = oracle_commutator_subgroup(x.id_list(), y.id_list(), mul, inv)
        assert set(commutator_subgroup(x, y).id_list()) == expected


def test_s3_class_count_frozen(s3):
    assert len(conjugacy_classes(s3)) == 3
    assert sorted(c.size for c in conjugacy_classes(s3)) == [1, 2, 3]


def test_center_matches_oracle(d4, q8, s3):
    for group in (d4, q8, s3):
        assert set(center(group).id_list()) == oracle_center(group.mul.tolist())


def test_center_sizes_frozen(d4, q8, s3):
    assert center(d4).size == 2
    assert center(q8).size == 2
    assert center(s3).size == 1


def test_subgroup_closure(s3):
    # A transposition generates an order-2 subgroup; adding a 3-cycle gives S3.
    t = Subset.from_ids(s3, [1])
    sub = subgroup_closure(t)
    assert sub.size == 2 and sub.contains_identity
    three = next(g for g in range(1, 6) if int(s3.inv[g]) != g)
    assert subgroup_closure(Subset.from_ids(s3, [1, three])).size == 6
    with pytest.raises(EmptySet):
        subgroup_closure(Subset.empty(s3))


def test_subgroup_closure_of_random_seeds_matches_oracle(kernel_group):
    group = kernel_group
    mul = group.mul.tolist()
    rng = random.Random(f"closure:{group.name}")
    for size in (1, 1, 2, 2, 3, 5, group.order - 1, group.order):
        seed = rng.sample(range(group.order), size)
        got = subgroup_closure(Subset.from_ids(group, seed))
        assert set(got.id_list()) == oracle_subgroup_closure(seed, mul)
        assert is_subgroup(got)


def test_is_subgroup_and_normal(s3):
    rot = subgroup_closure(
        Subset.from_ids(s3, [next(g for g in range(1, 6) if int(s3.inv[g]) != g)])
    )
    refl = subgroup_closure(Subset.from_ids(s3, [1]))
    assert is_subgroup(rot) and is_subgroup(refl)
    assert not is_subgroup(Subset.from_ids(s3, [1, 2]))
    assert is_normal(rot)
    assert not is_normal(refl)


def test_normal_subgroups_frozen_counts(s3, d4, q8, c12):
    assert [n.size for n in normal_subgroups(s3)] == [1, 3, 6]
    # D4: 1, Z, three order-4 subgroups, G.
    assert [n.size for n in normal_subgroups(d4)] == [1, 2, 4, 4, 4, 8]
    # Q8: every subgroup is normal: 1, Z, three C4, G.
    assert [n.size for n in normal_subgroups(q8)] == [1, 2, 4, 4, 4, 8]
    # C12: all six divisors.
    assert [n.size for n in normal_subgroups(c12)] == [1, 2, 3, 4, 6, 12]


def test_normal_subgroups_class_cap(s3):
    with pytest.raises(ClassCountCapExceeded):
        normal_subgroups(corpus.cyclic(30), class_cap=10)


@pytest.mark.parametrize(
    "params, count", [((5, 2, 2), 15), ((6, 2, 3), 54)], ids=["5,2,2", "6,2,3"]
)
def test_normal_subgroups_complete_beyond_oracle(params, count):
    # Orders 320 and 1152 lie beyond the brute-force oracle, so check the
    # lattice properties that pin the list down instead.
    group = build_example(ExampleParams(*params)).group
    normals = normal_subgroups(group)
    assert len(normals) == count
    assert normals[0] == Subset.singleton(group, group.identity)
    assert normals[-1] == Subset.full(group)
    assert all(is_normal(n) for n in normals)
    masks = {n.mask.tobytes() for n in normals}
    assert len(masks) == count
    for i, n in enumerate(normals):
        for m in normals[i + 1 :]:
            assert product(n, m).mask.tobytes() in masks
    for cls in conjugacy_classes(group):
        assert subgroup_closure(cls).mask.tobytes() in masks


def test_normal_subgroups_memo_contract():
    group = corpus.cyclic(30)
    first = normal_subgroups(group)
    assert normal_subgroups(group) == first
    expected = list(first)
    first.clear()
    assert normal_subgroups(group) == expected
    # the cap is checked on every call, not only the one that enumerates
    with pytest.raises(ClassCountCapExceeded):
        normal_subgroups(group, class_cap=10)


def test_commutator_subgroup_matches_oracle(s3, d4, q8):
    for group in (s3, d4, q8):
        mul = group.mul.tolist()
        inv = inverse_map(mul)
        full = Subset.full(group)
        got = commutator_subgroup(full, full)
        expected = oracle_commutator_subgroup(range(group.order), range(group.order), mul, inv)
        assert set(got.id_list()) == expected


def test_commutator_with_trivial_is_trivial(s3):
    triv = Subset.singleton(s3, 0)
    full = Subset.full(s3)
    assert commutator_subgroup(triv, full).id_list() == [0]


def test_quotient_by_center(d4):
    z = center(d4)
    qmap = quotient(d4, z)
    assert qmap.target.order == 4
    assert qmap.target.is_abelian
    # Projection is a homomorphism.
    proj = qmap.projection
    for a in range(8):
        for b in range(8):
            assert proj[d4.mul[a, b]] == qmap.target.mul[proj[a], proj[b]]
    assert set(qmap.kernel().id_list()) == set(z.id_list())


def test_quotient_rejects_bad_inputs(s3):
    with pytest.raises(NotSubgroup):
        quotient(s3, Subset.from_ids(s3, [0, 1, 2]))
    refl = subgroup_closure(Subset.from_ids(s3, [1]))
    with pytest.raises(NotNormal):
        quotient(s3, refl)


def test_quotient_image(s3):
    rot = next(n for n in normal_subgroups(s3) if n.size == 3)
    qmap = quotient(s3, rot)
    assert qmap.target.order == 2
    img = qmap.image(Subset.from_ids(s3, [1]))
    assert img.size == 1 and not img.contains_identity


def test_unchecked_constructions_pass_the_table_checks():
    # Permutation closures, direct products and quotients skip validation;
    # each table they build must still pass it unchanged.
    built = [corpus.symmetric(n) for n in (3, 4, 5, 6)]
    built += [corpus.alternating(4), corpus.alternating(5)]
    built += [build_example(ExampleParams(*p)).group for p in ((3, 1, 1), (4, 2, 1), (5, 2, 2))]
    for group, _roles in corpus.default_corpus():
        built += [quotient(group, n).target for n in normal_subgroups(group)]
    for g in built:
        checked = build_from_table(g.mul)
        assert np.array_equal(checked.mul, g.mul), g.name
        assert np.array_equal(checked.inv, g.inv), g.name


def test_mul_table_is_readonly(s3):
    with pytest.raises(ValueError):
        s3.mul[0, 0] = 3


def test_build_from_table_leaves_the_callers_array_alone():
    # an int32 table with the identity at id 0 needs no cast and no relabelling
    a = np.array([[0, 1], [1, 0]], dtype=np.int32)
    g = build_from_table(a)
    assert g.mul is not a and not np.shares_memory(g.mul, a)
    assert a.flags.writeable and not g.mul.flags.writeable
    a[0, 0] = 1
    assert g.mul[0, 0] == 0


def test_sampled_associativity_on_large_group():
    group = corpus.cyclic(600)
    assert group.order == 600
    # Construction runs Light's test, which is exact at every order.
    assert group.mul[599, 1] == 0


def test_rejects_non_associative_table_above_order_512():
    # Shifting the intercalate at rows 5, 305 and columns 7, 307 of C600 by
    # 300 swaps the values 12 and 312 in it: still Latin with identity 0, but
    # (4*1)*7 = 312 while 4*(1*7) = 12.
    table = np.array(corpus.cyclic(600).mul)
    for i in (5, 305):
        for j in (7, 307):
            table[i, j] = (table[i, j] + 300) % 600
    with pytest.raises(NotAssociative):
        build_from_table(table)


def test_named_respects_order_cap(monkeypatch):
    monkeypatch.setenv("APPROXCOMMUTE_ORDER_CAP", "10")
    for name in ("C60", "S4"):
        with pytest.raises(OrderCapExceeded):
            corpus.named(name)
    assert corpus.named("D5").order == 10


def test_order_cap_env_override(monkeypatch):
    from approxcommute import current_order_cap

    monkeypatch.delenv("APPROXCOMMUTE_ORDER_CAP", raising=False)
    assert current_order_cap() == 2000
    monkeypatch.setenv("APPROXCOMMUTE_ORDER_CAP", "10")
    assert current_order_cap() == 10
    with pytest.raises(OrderCapExceeded):
        direct_product(corpus.cyclic(4), corpus.cyclic(4))
    # An explicit argument wins over the environment.
    assert direct_product(corpus.cyclic(4), corpus.cyclic(4), order_cap=16).order == 16
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("APPROXCOMMUTE_ORDER_CAP", bad)
        with pytest.raises(ValueError):
            current_order_cap()
