"""Certificates, growth ratios, and covering lemmas against brute-force oracles."""

import itertools
from fractions import Fraction

import pytest

from approxcommute import (
    ApproxCommuteError,
    ExactCapExceeded,
    NoIdentity,
    NotSymmetric,
    Subset,
    certify,
    dihedral,
    growth_constants,
    invert,
    power,
    product,
    ruzsa_cover,
    symmetrize,
    with_identity,
)
from approxcommute.approx import _coverage_matrix, _greedy_cover
from approxcommute.corpus import named
from approxcommute.rng import SplitMix64
from approxcommute.suite import random_symmetric_subset

from oracles import inverse_map, oracle_exact_cover, oracle_power, oracle_product


def brute_minimum_cover(group, aids):
    """Smallest k with a^2 inside e*a for some |e| = k, searching all of G."""
    a2 = oracle_power(aids, 2, group.mul)
    for k in range(1, group.order + 1):
        for combo in itertools.combinations(range(group.order), k):
            if a2 <= oracle_product(combo, aids, group.mul):
                return k
    raise AssertionError("unreachable: e = G always covers")


def transpositions(s3):
    return [g for g in range(s3.order) if g != 0 and s3.mul[g, g] == 0]


def test_subgroup_certifies_with_one_translate(s3, d4):
    for group in (s3, d4):
        cert = certify(Subset.full(group))
        assert cert.k_cert == 1
        assert cert.cover.id_list() == [0]
        assert cert.doubling == 1
        assert cert.tripling == 1
        assert cert.covers()


def test_proper_subgroup_certifies_with_one_translate(s3):
    t = transpositions(s3)[0]
    h = Subset.from_ids(s3, [0, t])
    cert = certify(h, "exact")
    assert cert.k_cert == 1
    assert cert.doubling == 1


def test_exact_mode_matches_brute_force(s3, d4):
    t1, t2 = transpositions(s3)[:2]
    cases = [
        (s3, [0, t1, t2]),
        (s3, list(range(s3.order))),
        (d4, [0, 1, int(d4.inv[1]), 4]),
    ]
    for group, aids in cases:
        a = with_identity(symmetrize(Subset.from_ids(group, aids)))
        cert = certify(a, "exact")
        assert cert.k_cert == brute_minimum_cover(group, a.id_list())
        assert cert.covers()


def test_exact_never_worse_than_greedy(d4, q8, family_311):
    sets = [
        with_identity(symmetrize(Subset.from_ids(d4, [1, 4]))),
        with_identity(symmetrize(Subset.from_ids(q8, [1, 2, 5]))),
        family_311.subset("A"),
    ]
    for a in sets:
        greedy = certify(a, "greedy")
        exact = certify(a, "exact")
        assert exact.k_cert <= greedy.k_cert
        for cert in (greedy, exact):
            # Cover verified against the oracle, not the library product.
            covered = oracle_product(cert.cover.id_list(), a.id_list(), a.group.mul)
            assert oracle_power(a.id_list(), 2, a.group.mul) <= covered


def test_cover_elements_come_from_quotient_products(s3):
    t1, t2 = transpositions(s3)[:2]
    a = Subset.from_ids(s3, [0, t1, t2])
    cert = certify(a)
    allowed = oracle_product(
        sorted(oracle_power(a.id_list(), 2, s3.mul)),
        [int(s3.inv[g]) for g in a.id_list()],
        s3.mul,
    )
    assert set(cert.cover.id_list()) <= allowed


def test_family_a_set_is_k_plus_one_approximate(family_311, family_421):
    for inst in (family_311, family_421):
        cert = certify(inst.subset("A"), "exact")
        assert cert.k_cert <= inst.params.k + 1


def test_certify_is_deterministic(q8):
    a = with_identity(symmetrize(Subset.from_ids(q8, [1, 2, 5])))
    first = certify(a)
    second = certify(a)
    assert first.cover.id_list() == second.cover.id_list()
    assert first.k_cert == second.k_cert


def test_certify_rejections(s3):
    t = transpositions(s3)[0]
    three_cycle = next(g for g in range(1, s3.order) if s3.mul[g, g] != 0)
    with pytest.raises(NoIdentity):
        certify(Subset.from_ids(s3, [t]))
    with pytest.raises(NotSymmetric):
        certify(Subset.from_ids(s3, [0, three_cycle]))
    with pytest.raises(ValueError):
        certify(Subset.full(s3), "fast")


def test_exact_cap(d4):
    with pytest.raises(ExactCapExceeded):
        certify(Subset.full(d4), "exact", exact_cap=4)


def test_exact_cover_is_the_plain_search_cover():
    # The pruned search must return the very cover, not just the size, that
    # the plain branch and bound returns; greedy seeds both.
    stream = SplitMix64(909)
    plan = [(name, density, 6) for name in ("S4", "D12", "Q16", "C24")
            for density in ("1/10", "1/5", "1/3", "1/2")]
    plan += [("A5", "1/3", 4), ("A5", "1/2", 4)]
    below_greedy = 0
    for name, density, count in plan:
        group = named(name)
        for _ in range(count):
            a = random_symmetric_subset(group, density, stream)
            elems, matrix = _coverage_matrix(a, power(a, 2))
            greedy = [int(elems[i]) for i in _greedy_cover(matrix)]
            want = sorted(oracle_exact_cover(elems, matrix, greedy))
            assert certify(a, "exact").cover.id_list() == want, (name, density)
            below_greedy += len(want) < len(greedy)
    assert below_greedy >= 20, below_greedy


def test_growth_constants_match_oracle(s3, family_311):
    for a in (Subset.from_ids(s3, [0] + transpositions(s3)[:2]), family_311.subset("A")):
        ratios = growth_constants(a, 5)
        assert len(ratios) == 4
        for j, ratio in zip(range(2, 6), ratios):
            assert ratio == Fraction(len(oracle_power(a.id_list(), j, a.group.mul)), a.size)
    with pytest.raises(ValueError):
        growth_constants(Subset.full(s3), 1)


def test_ruzsa_cover_bounds_and_coverage(s3, d4, q8):
    rng = SplitMix64(411)
    groups = [s3, d4, q8, dihedral(8)]
    for trial in range(40):
        group = groups[rng.below(len(groups))]
        aids = sorted({rng.below(group.order) for _ in range(1 + rng.below(6))})
        yids = sorted({rng.below(group.order) for _ in range(1 + rng.below(4))})
        a = with_identity(symmetrize(Subset.from_ids(group, aids)))
        y = Subset.from_ids(group, yids)
        f = ruzsa_cover(a, y)
        ay = oracle_product(a.id_list(), y.id_list(), group.mul)
        assert f.size * y.size <= len(ay)
        inv = inverse_map(group.mul)
        yy = oracle_product(y.id_list(), [inv[g] for g in y.id_list()], group.mul)
        assert set(a.id_list()) <= oracle_product(f.id_list(), sorted(yy), group.mul)
        # Translates of distinct representatives are pairwise disjoint.
        translates = [oracle_product([g], y.id_list(), group.mul) for g in f.id_list()]
        for s, t in itertools.combinations(translates, 2):
            assert not (s & t)


def test_ruzsa_cover_rejects_empty(s3):
    with pytest.raises(ApproxCommuteError):
        ruzsa_cover(Subset.from_ids(s3, []), Subset.full(s3))


def test_power_ratio_consistency(q8):
    # doubling and tripling recorded on the certificate agree with the sets.
    a = with_identity(symmetrize(Subset.from_ids(q8, [1, 2])))
    cert = certify(a)
    assert cert.doubling == Fraction(power(a, 2).size, a.size)
    assert cert.tripling == Fraction(product(power(a, 2), a).size, a.size)
    assert invert(a) == a


# (k_cert, cover ids) for fixed inputs.  The least id stands for each distinct
# translate and greedy ties go to the least id, so these are determined
# exactly, not just up to the cover size.
_PINNED_NAMED = {
    ("A", "greedy"): (2, [0, 10]),
    ("A", "exact"): (2, [0, 10]),
    ("A0", "greedy"): (2, [0, 10]),
    ("A0", "exact"): (2, [0, 10]),
    ("H", "greedy"): (1, [0]),
    ("H", "exact"): (1, [0]),
    ("A5", "greedy"): (9, [0, 1, 3, 4, 15, 20, 21, 24, 55]),
    ("A5", "exact"): (7, [3, 15, 19, 24, 34, 50, 55]),
    ("D25", "greedy"): (7, [0, 3, 5, 12, 14, 30, 42]),
    ("D25", "exact"): (7, [0, 3, 5, 12, 14, 30, 42]),
}

_PINNED_RANDOM = [
    ("S5", "1/10", 7, [0, 1, 2, 18, 44, 68, 80]),
    ("S5", "1/5", 8, [0, 1, 11, 15, 16, 22, 43, 113]),
    ("S5", "1/3", 7, [0, 1, 2, 16, 19, 22, 72]),
    ("D100", "1/10", 13, [0, 9, 12, 19, 28, 91, 101, 137, 140, 168, 191, 192, 194]),
    ("D100", "1/5", 9, [0, 8, 13, 16, 17, 25, 146, 154, 171]),
    ("D100", "1/3", 6, [0, 52, 53, 141, 159, 189]),
]


def test_certify_covers_pinned(family_522):
    sets = {role: family_522.subset(role) for role in ("A", "A0", "H")}
    sets["A5"] = Subset.from_ids(named("A5"), [0, 1, 3, 4, 15, 21, 24, 36, 50])
    sets["D25"] = Subset.from_ids(named("D25"), [0, 3, 5, 6, 19, 20, 22, 29, 39, 47])
    for (name, mode), (k, ids) in _PINNED_NAMED.items():
        cert = certify(sets[name], mode)
        assert (cert.k_cert, cert.cover.id_list()) == (k, ids), (name, mode)
    stream = SplitMix64(2024)
    groups = {"S5": named("S5"), "D100": named("D100")}
    for name, density, k, ids in _PINNED_RANDOM:
        cert = certify(random_symmetric_subset(groups[name], density, stream), "greedy")
        assert (cert.k_cert, cert.cover.id_list()) == (k, ids), (name, density)
