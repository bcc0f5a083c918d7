"""Witness pipelines: every reported bound recomputed from definitions."""

from fractions import Fraction

import pytest

from approxcommute import (
    PowerCapExceeded,
    ProbabilityBelowEpsilon,
    Subset,
    bounded_conjugate_cover,
    certify,
    commuting_probability,
    cyclic,
    direct_product,
    extract_core,
    power,
    symmetric,
    witness_thm1,
    witness_thm2,
)

from oracles import (
    inverse_map,
    oracle_best_t,
    oracle_class,
    oracle_commutator_subgroup,
    oracle_is_normal,
    oracle_is_subgroup,
    oracle_power,
    oracle_product,
    oracle_pr,
)


def all_ids(group):
    return list(range(group.order))


def test_extract_core_keeps_exactly_small_classes(s3):
    full = Subset.full(s3)
    ext = extract_core(full, full, Fraction(1, 2), 1)
    inv = inverse_map(s3.mul)
    threshold = Fraction(2, Fraction(1, 2))
    expected = {
        g for g in range(s3.order)
        if len(oracle_class(g, all_ids(s3), s3.mul, inv)) <= threshold
    }
    assert set(ext.x.id_list()) == expected
    assert ext.class_threshold == threshold
    assert 2 * ext.x.size >= ext.epsilon * full.size
    assert set(ext.b.id_list()) == oracle_power(ext.x.id_list(), 2, s3.mul)
    assert ext.class_bound_m == max(
        len(oracle_class(g, all_ids(s3), s3.mul, inv)) for g in ext.b_closure.id_list()
    )
    assert ext.chain_bound_pair == Fraction(1, Fraction(1, 4)) ** 2
    assert ext.chain_bound_cover == Fraction(1, Fraction(1, 4)) ** 6


def test_extract_core_filters_large_class():
    # In C2 x S4 take H = (central copy of C2) + one 3-cycle: the 3-cycle's
    # class has 8 elements, past the threshold 48/17, so only the center stays.
    group = direct_product(cyclic(2), symmetric(4))
    s4 = symmetric(4)
    inv4 = inverse_map(s4.mul)
    big = next(
        g for g in range(s4.order)
        if len(oracle_class(g, all_ids(s4), s4.mul, inv4)) == 8
    )
    h = Subset.from_ids(group, [0, s4.order, big])
    full = Subset.full(group)
    assert commuting_probability(h, full) == Fraction(17, 24)
    ext = extract_core(h, full, Fraction(17, 24), 1)
    assert ext.x.id_list() == [0, s4.order]
    assert ext.class_bound_m == 1
    assert ext.b_cert.k_cert == 1


def test_extract_core_rejects_low_probability(s3):
    full = Subset.full(s3)
    with pytest.raises(ProbabilityBelowEpsilon):
        extract_core(full, full, Fraction(3, 4), 1)


def test_extract_core_validation(s3):
    full = Subset.full(s3)
    with pytest.raises(ValueError):
        extract_core(full, full, 0, 1)
    with pytest.raises(ValueError):
        extract_core(full, full, 2, 1)
    with pytest.raises(ValueError):
        extract_core(full, full, Fraction(1, 2), 0)


@pytest.mark.parametrize("maker", ["s3", "d4", "q8"])
def test_thm1_t_is_optimal(maker, request):
    group = request.getfixturevalue(maker)
    report = witness_thm1(Subset.full(group))
    assert report.theorem == "1.1"
    inv = inverse_map(group.mul)
    assert oracle_is_normal(report.t.id_list(), group.mul, inv)
    comm = oracle_commutator_subgroup(
        report.t.id_list(), report.extractions[0].b_closure.id_list(), group.mul, inv
    )
    assert report.commutator_size == len(comm)
    assert report.index_g_t == group.order // report.t.size
    assert (report.commutator_size, report.index_g_t) == oracle_best_t(
        group.mul, report.extractions[0].b_closure.id_list()
    )


def test_thm1_gamma_bound(family_311):
    a = family_311.subset("A")
    report = witness_thm1(a)
    assert report.gamma >= report.epsilon / (2 * report.k_cert)
    overlap = set(a.id_list()) & set(report.extractions[0].b.id_list())
    denominator = max(a.size, report.extractions[0].b.size)
    assert report.gamma == Fraction(len(overlap), denominator)


def test_thm1_family_t_matches_exhaustive_search(family_311):
    report = witness_thm1(family_311.subset("A"))
    group = family_311.group
    assert (report.commutator_size, report.index_g_t) == oracle_best_t(
        group.mul, report.extractions[0].b_closure.id_list()
    )


def test_thm1_large_family_structure(family_522):
    # <B> = <A> is abelian of order 16 here, so the abelian normal subgroup
    # V x U of order 64 centralizes it: commutator 1 at index 5 beats the
    # center's index 80.  Values confirmed once against exhaustive search.
    report = witness_thm1(family_522.subset("A"))
    group = family_522.group
    assert (report.commutator_size, report.index_g_t) == (1, 5)
    inv = inverse_map(group.mul)
    assert oracle_is_normal(report.t.id_list(), group.mul, inv)
    comm = oracle_commutator_subgroup(
        report.t.id_list(), report.extractions[0].b_closure.id_list(), group.mul, inv
    )
    assert len(comm) == 1


def test_thm1_explicit_epsilon(s3):
    full = Subset.full(s3)
    loose = witness_thm1(full, Fraction(1, 3))
    assert loose.epsilon == Fraction(1, 3)
    assert loose.t is not None


def test_thm2_invariants(d4, q8, family_311):
    for inst in (d4, q8):
        report = witness_thm2(Subset.full(inst))
        _check_thm2(report)
    _check_thm2(witness_thm2(family_311.subset("A")))


def _check_thm2(report):
    group = report.a.group
    mul = group.mul
    inv = inverse_map(mul)
    assert report.theorem == "1.2"
    assert len(report.extractions) == 2
    ext1, ext2 = report.extractions
    # Second pass digs inside the first pass's output.
    assert ext2.h == ext1.b
    assert ext2.u == ext1.b_closure
    assert ext2.epsilon == report.eta
    assert set(report.y.id_list()) <= set(ext1.b.id_list())
    cids = report.c.id_list()
    assert oracle_is_subgroup(cids, mul)
    assert report.c_prime_size == len(
        oracle_commutator_subgroup(cids, cids, mul, inv)
    )
    a_ids = report.a.id_list()
    a2 = oracle_power(a_ids, 2, mul)
    assert report.gamma == Fraction(len(set(cids) & a2), len(a_ids))
    assert report.gamma >= report.epsilon * report.eta / 4
    assert report.eta == 1 / (report.k_tilde * ext1.class_bound_m)
    assert Fraction(report.cover_f.size) <= 4 * report.k_cert**2 / (
        report.epsilon * report.eta
    )
    assert Fraction(report.coset_count) * report.gamma <= report.k_cert**2
    # Cosets counted by minimum representative: recompute directly.
    reps = {min(oracle_product([g], cids, mul)) for g in a_ids}
    assert report.coset_count == len(reps)
    # F covers A by translates of Y Y^-1.
    yy = oracle_product(
        report.y.id_list(), [inv[g] for g in report.y.id_list()], mul
    )
    assert set(a_ids) <= oracle_product(report.cover_f.id_list(), sorted(yy), mul)


def test_thm2_eta_uses_worst_ratio(q8):
    report = witness_thm2(Subset.full(q8))
    ext1 = report.extractions[0]
    assert report.k_tilde == max(
        Fraction(ext1.b_cert.k_cert), Fraction(ext1.b.size, ext1.x.size)
    )
    assert commuting_probability(ext1.b, ext1.b_closure) >= report.eta


def test_witnesses_are_deterministic(d4):
    full = Subset.full(d4)
    r1, r2 = witness_thm1(full), witness_thm1(full)
    assert r1.t == r2.t and r1.gamma == r2.gamma
    s1, s2 = witness_thm2(full), witness_thm2(full)
    assert s1.c == s2.c and s1.cover_f == s2.cover_f


def test_cover_single_central_element(s3):
    a = Subset.full(s3)
    cert = certify(a)
    d, translates = bounded_conjugate_cover(a, cert, [0])
    # Conjugating the identity never moves it: one translate, D = A^2.
    assert len(translates) == 1
    assert d == power(a, 2)


def test_cover_abelian_group():
    g = cyclic(12)
    a = Subset.full(g)
    cert = certify(a)
    d, translates = bounded_conjugate_cover(a, cert, [5])
    assert len(translates) == 1
    assert d == Subset.full(g)


def test_cover_three_cycle(s3):
    a = Subset.full(s3)
    cert = certify(a)
    inv = inverse_map(s3.mul)
    cycle = next(g for g in range(1, s3.order) if s3.mul[g, g] != 0)
    d, translates = bounded_conjugate_cover(a, cert, [cycle])
    # The class of a 3-cycle has two elements, so two translates of the
    # centralizer (order 3) tile the group exactly.
    assert len(translates) == 2
    assert d.size == 3
    covered = set()
    for t in translates:
        covered |= oracle_product(d.id_list(), [t], s3.mul)
    assert covered == set(range(s3.order))
    assert len(oracle_class(cycle, all_ids(s3), s3.mul, inv)) == len(translates)


def test_cover_two_levels(s3):
    a = Subset.full(s3)
    cert = certify(a)
    cycle = next(g for g in range(1, s3.order) if s3.mul[g, g] != 0)
    flip = next(g for g in range(1, s3.order) if s3.mul[g, g] == 0)
    d, translates = bounded_conjugate_cover(a, cert, [cycle, flip])
    inv = inverse_map(s3.mul)
    bound = len(oracle_class(cycle, all_ids(s3), s3.mul, inv)) * len(
        oracle_class(flip, all_ids(s3), s3.mul, inv)
    )
    assert len(translates) <= bound
    covered = set()
    for t in translates:
        covered |= oracle_product(d.id_list(), [t], s3.mul)
    assert set(a.id_list()) <= covered
    # D centralizes both chosen elements.
    for g in d.id_list():
        assert s3.mul[g, cycle] == s3.mul[cycle, g]
        assert s3.mul[g, flip] == s3.mul[flip, g]


@pytest.mark.parametrize(
    "source, gs, d_ids, translates",
    [
        ("family", [1, 2], [0, 1, 310, 311], [0, 10, 20, 30]),
        ("S4", [1, 2], [0], [0, 1, 20, 23, 2, 3, 21, 18, 4, 6, 16, 14,
                             5, 7, 9, 12, 8, 11, 22, 19, 10, 13, 15, 17]),
        ("S4", [5, 7], [0, 23], [0, 2, 5, 10, 1, 4, 9, 11, 3, 8, 15, 16]),
    ],
)
def test_cover_pinned(family_522, source, gs, d_ids, translates):
    # Representatives are taken in first-occurrence order over the source set.
    a = family_522.subset("A") if source == "family" else Subset.full(symmetric(4))
    d, got = bounded_conjugate_cover(a, certify(a), gs)
    assert (d.id_list(), got) == (d_ids, translates)


def test_cover_validation(s3, d4):
    a = Subset.full(s3)
    cert = certify(a)
    with pytest.raises(ValueError):
        bounded_conjugate_cover(a, cert, [])
    with pytest.raises(PowerCapExceeded):
        bounded_conjugate_cover(a, cert, [0] * 6)
    other = certify(Subset.full(d4))
    with pytest.raises(ValueError):
        bounded_conjugate_cover(a, other, [0])
