"""Statement registry: formulas pinned by hand-computed instances and oracles."""

import gc
import itertools
import weakref
from fractions import Fraction

import pytest

from approxcommute import (
    GroupMismatch,
    HypothesisViolated,
    centralizer_in,
    REGISTRY,
    Subset,
    check,
    cyclic,
    dihedral,
    direct_product,
    statement_ids,
    symmetric,
)
from approxcommute import corpus, statements
from approxcommute.group import _by_size_and_mask, class_sizes, cyclic_subgroups, normal_subgroups
from approxcommute.rng import SplitMix64, derive_seed

from oracles import (
    inverse_map,
    oracle_centralizer,
    oracle_class,
    oracle_commutator_subgroup,
    oracle_normal_subgroups,
    oracle_power,
    oracle_pr,
    oracle_product,
    oracle_quotient_pr,
    oracle_subgroup_closure,
)

# Each statement's inputs, in registry order.
ALL_INPUTS = {
    "P2.1": ("a", "nsub"),
    "P2.2": ("a", "nsub"),
    "C2.3a": ("a", "nsub", "k"),
    "C2.3b": ("a", "nsub", "k"),
    "Sub-mono": ("h1", "h2"),
    "L2.5a": ("a", "g"),
    "L2.5b": ("a", "g"),
    "L2.6": ("a", "g", "n", "k"),
    "P2.7": ("a1", "a2", "b"),
    "C2.8": ("h", "a", "b", "k"),
    "P1.3": ("a", "b", "t"),
    "P1.4": ("a", "c", "k"),
}
ALL_IDS = list(ALL_INPUTS)


def s3_pieces(s3):
    ts = [g for g in range(1, s3.order) if s3.mul[g, g] == 0]
    cycles = [g for g in range(1, s3.order) if s3.mul[g, g] != 0]
    n = Subset.from_ids(s3, [0] + cycles)
    return ts, cycles, n


def test_registry_lists_every_statement():
    assert statement_ids() == ALL_IDS
    for sid, spec in REGISTRY.items():
        assert spec.statement_id == sid
        assert spec.summary
        assert spec.inputs == ALL_INPUTS[sid]


@pytest.mark.parametrize("sid", ALL_IDS)
def test_builders_make_valid_instances_of_their_statement(sid, s3, family_311):
    spec = REGISTRY[sid]
    densities = (Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
    for group, roles in ((s3, {}), (family_311.group, dict(family_311.roles))):
        instances = list(spec.corpus(group, roles))
        assert instances
        for idx in range(20):
            stream = SplitMix64(derive_seed(3, sid, idx))
            instances.append(spec.draw(group, densities[idx % 4], stream))
        for inst in instances:
            assert set(inst) <= set(spec.inputs)
            check(sid, **inst)  # valid by construction: no HypothesisViolated


@pytest.mark.parametrize("sid", ALL_IDS)
def test_memos_on_sets_do_not_change_any_result(sid, s3, d4, family_311):
    # Fresh copies carry no memo; the builder's own objects are shared
    # between instances, so replaying them backwards reads memos that later
    # instances made.
    def fresh(value):
        return Subset(value.group, value.mask.copy()) if isinstance(value, Subset) else value

    spec = REGISTRY[sid]
    for group, roles in ((s3, {}), (d4, {}), (family_311.group, dict(family_311.roles))):
        instances = list(spec.corpus(group, roles))
        copied = [check(sid, **{k: fresh(v) for k, v in inst.items()}) for inst in instances]
        shared = [check(sid, **inst) for inst in reversed(instances)][::-1]
        assert [(r.lhs, r.rhs) for r in shared] == [(r.lhs, r.rhs) for r in copied]


def test_sub_mono_corpus_is_the_issubset_loop(s3, d4, family_311):
    for group in (s3, d4, family_311.group, dihedral(12)):
        pool = cyclic_subgroups(group) + normal_subgroups(group) + [Subset.full(group)]
        pool = sorted(dict.fromkeys(pool), key=_by_size_and_mask)
        loop = [(h1, h2) for h2 in pool for h1 in pool if h1.issubset(h2)]
        got = [(inst["h1"], inst["h2"]) for inst in REGISTRY["Sub-mono"].corpus(group, {})]
        assert got == loop


def test_the_whole_group_is_one_read_only_set(s3, d4):
    for group in (s3, d4):
        full = Subset.full(group)
        assert full is Subset.full(group)
        assert full.size == group.order
        for arr in (full.mask, full.ids):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[1]


def test_unknown_statement_and_inputs(s3):
    with pytest.raises(KeyError):
        check("P9.9", a=Subset.full(s3))
    with pytest.raises(TypeError):
        check("L2.5a", a=Subset.full(s3), g=0, extra=1)


def test_quotient_factorization_whole_group(s3):
    # A = S3, N = A3: rhs collapses to pr(C2) pr(C3) = 1 against lhs 1/2.
    _, _, n = s3_pieces(s3)
    r = check("P2.1", a=Subset.full(s3), nsub=n)
    assert (r.lhs, r.rhs) == (Fraction(1, 2), 1)
    assert r.holds and r.slack == Fraction(1, 2)


def test_quotient_factorization_is_tight_on_abelian():
    c6 = cyclic(6)
    n = Subset.from_ids(c6, [0, 2, 4])
    r = check("P2.1", a=Subset.full(c6), nsub=n)
    assert r.lhs == r.rhs == 1 and r.slack == 0


def test_restricted_quotient_bound_tight_on_subgroup(s3):
    # A = {e, t} is an abelian subgroup, so every factor of P2.2 equals 1.
    ts, _, n = s3_pieces(s3)
    a = Subset.from_ids(s3, [0, ts[0]])
    r = check("P2.2", a=a, nsub=n)
    assert r.lhs == r.rhs == 1 and r.slack == 0
    r2 = check("C2.3b", a=a, nsub=n, k=1)
    assert r2.lhs == r2.rhs == 1 and r2.slack == 0


def test_quotient_bounds_nontrivial_set(s3):
    ts, _, n = s3_pieces(s3)
    a = Subset.from_ids(s3, [0, ts[0], ts[1]])
    r = check("P2.1", a=a, nsub=n)
    assert (r.lhs, r.rhs) == (Fraction(5, 9), 2)
    r2 = check("P2.2", a=a, nsub=n)
    assert (r2.lhs, r2.rhs) == (Fraction(7, 9), 4)
    r3 = check("C2.3a", a=a, nsub=n, k=2)
    assert r3.lhs == Fraction(5, 9) and r3.rhs == Fraction(16, 1)
    assert all(x.holds for x in (r, r2, r3))


def test_quotient_bounds_match_oracle(s3):
    # N = S3 x 1 in S3 x S3: N and G/N are both non-abelian, and A n N,
    # A^2 n N and N give different factors, so each factor of the bound counts.
    group = direct_product(s3, s3)
    mul, inv = group.mul.tolist(), inverse_map(group.mul.tolist())
    a_ids, nids = [0, 8, 11, 17, 32], [6 * x for x in range(6)]
    a, nsub = Subset.from_ids(group, a_ids), Subset.from_ids(group, nids)
    pw = {j: oracle_power(a_ids, j, mul) for j in (2, 3, 4, 5)}
    a4n = sorted(pw[4] & set(nids))
    ambient = oracle_quotient_pr(a_ids, range(36), nids, mul, inv) * oracle_pr(a4n, nids, mul)
    restricted = oracle_quotient_pr(a_ids, a_ids, nids, mul, inv) * oracle_pr(
        a4n, sorted(pw[2] & set(nids)), mul
    )
    want = {
        "P2.1": Fraction(len(pw[5]), 5) * ambient,
        "P2.2": Fraction(len(pw[3]) * len(pw[5]), 25) * restricted,
        "C2.3a": 3**4 * ambient,
        "C2.3b": 3**6 * restricted,
    }
    for sid, rhs in want.items():
        k = {"k": 3} if sid.startswith("C") else {}
        assert check(sid, a=a, nsub=nsub, **k).rhs == rhs, sid


def test_quotient_requires_normal_subgroup(s3):
    ts, _, _ = s3_pieces(s3)
    not_normal = Subset.from_ids(s3, [0, ts[0]])
    with pytest.raises(HypothesisViolated):
        check("P2.1", a=Subset.full(s3), nsub=not_normal)


QUOTIENT_IDS = ("P2.1", "P2.2", "C2.3a", "C2.3b")


@pytest.mark.parametrize("name", ["S4", "D4", "Q8", "A4", "S3xS3"])
def test_quotient_bounds_match_the_oracles_on_every_normal_subgroup(name):
    # Sets of density 1/6 often leave AN/N short of G/N, so the restricted
    # factor differs from the ambient one; on S3 x S3 this seed also draws
    # sets whose A^5 n N outgrows A^4 n N in a way pr(-, N) sees.
    if name == "S3xS3":
        group = direct_product(symmetric(3), symmetric(3))
    else:
        group = corpus.named(name)
    mul, inv = group.mul.tolist(), inverse_map(group.mul.tolist())
    stream = SplitMix64(derive_seed(5, "quotient-oracle", name))
    sets = [Subset.full(group)]
    sets += [statements.random_symmetric_subset(group, Fraction(1, 6), stream) for _ in range(2)]
    for a in sets:
        a_ids = a.id_list()
        pw = {j: oracle_power(a_ids, j, mul) for j in (2, 3, 4, 5)}
        for nids in map(sorted, oracle_normal_subgroups(mul)):
            nsub = Subset.from_ids(group, nids)
            a4n = sorted(pw[4] & set(nids))
            ambient = oracle_quotient_pr(a_ids, range(group.order), nids, mul, inv)
            ambient *= oracle_pr(a4n, nids, mul)
            restricted = oracle_quotient_pr(a_ids, a_ids, nids, mul, inv)
            restricted *= oracle_pr(a4n, sorted(pw[2] & set(nids)), mul)
            want = {
                "P2.1": Fraction(len(pw[5]), a.size) * ambient,
                "P2.2": Fraction(len(pw[3]) * len(pw[5]), a.size**2) * restricted,
                "C2.3a": 2**4 * ambient,
                "C2.3b": 2**6 * restricted,
            }
            for sid in QUOTIENT_IDS:
                k = {"k": 2} if sid.startswith("C") else {}
                assert check(sid, a=a, nsub=nsub, **k).rhs == want[sid], (sid, a, nsub)


@pytest.mark.parametrize("sid", QUOTIENT_IDS)
def test_quotient_statements_refuse_a_bad_n_or_another_group(sid, s3):
    ts, _, n = s3_pieces(s3)
    k = {"k": 2} if sid.startswith("C") else {}
    with pytest.raises(HypothesisViolated):
        check(sid, a=Subset.full(s3), nsub=Subset.from_ids(s3, [0, ts[0]]), **k)
    # C6 has the order of S3 and a normal N of order 3, so A's ids would
    # index N's arrays without an error.
    c6 = cyclic(6)
    with pytest.raises(GroupMismatch):
        check(sid, a=Subset.full(s3), nsub=Subset.from_ids(c6, [0, 2, 4]), **k)
    with pytest.raises(GroupMismatch):
        check(sid, a=Subset.full(c6), nsub=n, **k)


def test_symmetry_and_identity_hypotheses(s3):
    ts, cycles, n = s3_pieces(s3)
    lopsided = Subset.from_ids(s3, [0, cycles[0]])
    with pytest.raises(HypothesisViolated):
        check("P2.1", a=lopsided, nsub=n)
    with pytest.raises(HypothesisViolated):
        check("L2.5a", a=lopsided, g=0)
    no_identity = Subset.from_ids(s3, [ts[0]])
    with pytest.raises(HypothesisViolated):
        check("C2.3a", a=no_identity, nsub=n)
    with pytest.raises(HypothesisViolated):
        check("L2.5a", a=Subset.full(s3), g=99)


def test_subgroup_monotonicity(s3):
    _, cycles, n = s3_pieces(s3)
    r = check("Sub-mono", h1=Subset.singleton(s3, 0), h2=n)
    assert (r.lhs, r.rhs) == (Fraction(2, 3), 1)
    tight = check("Sub-mono", h1=n, h2=n)
    assert tight.slack == 0
    with pytest.raises(HypothesisViolated):
        check("Sub-mono", h1=n, h2=Subset.singleton(s3, 0))
    with pytest.raises(HypothesisViolated):
        check("Sub-mono", h1=Subset.from_ids(s3, [0, cycles[0]]), h2=Subset.full(s3))


def test_centralizer_class_tradeoff_hand_values(s3):
    ts, _, _ = s3_pieces(s3)
    a = Subset.from_ids(s3, [0, ts[0], ts[1]])
    r = check("L2.5a", a=a, g=ts[0])
    assert (r.lhs, r.rhs) == (4, 5)
    r2 = check("L2.5b", a=a, g=ts[0])
    assert (r2.lhs, r2.rhs) == (3, 4)


def test_centralizer_class_tradeoff_exhaustive(s3):
    # Every symmetric subset of S3 (unions of inversion orbits) against every
    # group element, both lemmas, versus direct set computations.
    inv = inverse_map(s3.mul)
    orbits = []
    seen = set()
    for g in range(s3.order):
        if g not in seen:
            orbit = {g, inv[g]}
            seen |= orbit
            orbits.append(sorted(orbit))
    assert len(orbits) == 5
    for r in range(1, len(orbits) + 1):
        for combo in itertools.combinations(orbits, r):
            aids = sorted(itertools.chain.from_iterable(combo))
            a = Subset.from_ids(s3, aids)
            a2 = oracle_power(aids, 2, s3.mul)
            for g in range(s3.order):
                cls = oracle_class(g, aids, s3.mul, inv)
                ra = check("L2.5a", a=a, g=g)
                assert ra.lhs == len(oracle_centralizer(aids, g, s3.mul)) * len(cls)
                assert ra.rhs == len(a2)
                assert ra.holds
                rb = check("L2.5b", a=a, g=g)
                assert rb.lhs == len(aids)
                assert rb.rhs == len(oracle_centralizer(sorted(a2), g, s3.mul)) * len(cls)
                assert rb.holds


@pytest.mark.parametrize("name", ["S4", "D12", "Q16", "family:3,1,1"])
def test_per_set_rows_are_the_one_element_counts(name, family_311):
    group = family_311.group if name.startswith("family") else corpus.named(name)
    stream = SplitMix64(derive_seed(5, "rows", name))
    sets = [
        Subset.full(group),
        Subset.empty(group),
        Subset.from_ids(group, [1, group.order - 1]),  # no identity
        statements.random_symmetric_subset(group, Fraction(1, 3), stream),
        statements._random_plain_subset(group, Fraction(1, 4), stream),
    ]
    for u in sets:
        assert statements._centralizer_row(u).tolist() == [
            centralizer_in(u, g).size for g in range(group.order)
        ]
        assert statements._class_row(u).tolist() == [
            int(class_sizes([g], u)[0]) for g in range(group.order)
        ]


def test_conjugate_growth_statement(s3, family_311):
    # A = G is 1-approximate: the class never grows, slack 0 at every n.
    for g in range(s3.order):
        r = check("L2.6", a=Subset.full(s3), g=g, n=4, k=1)
        assert r.slack == 0
    a = family_311.subset("A")
    g = next(x for x in a.id_list() if x)
    r = check("L2.6", a=a, g=g, n=3, k=family_311.params.k + 1)
    inv = inverse_map(family_311.group.mul)
    a3 = sorted(oracle_power(a.id_list(), 3, family_311.group.mul))
    assert r.lhs == len(oracle_class(g, a3, family_311.group.mul, inv))
    assert r.holds
    # n = 1 compares the class with itself.
    r1 = check("L2.6", a=a, g=g, n=1, k=family_311.params.k + 1)
    assert r1.holds and r1.lhs == r1.rhs
    assert r1.lhs == len(oracle_class(g, a.id_list(), family_311.group.mul, inv))
    with pytest.raises(ValueError):
        check("L2.6", a=Subset.full(s3), g=0, n=0, k=1)


def test_doubling_transfer(s3):
    ts, _, _ = s3_pieces(s3)
    a1 = Subset.from_ids(s3, [0, ts[0]])
    a2 = Subset.from_ids(s3, [0, ts[0], ts[1]])
    r = check("P2.7", a1=a1, a2=a2, b=Subset.full(s3))
    assert (r.lhs, r.rhs) == (Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(HypothesisViolated):
        check("P2.7", a1=a2, a2=a1, b=Subset.full(s3))


def test_subgroup_transfer(s3):
    ts, cycles, _ = s3_pieces(s3)
    h = Subset.from_ids(s3, [0, ts[0]])
    a = Subset.from_ids(s3, [0, ts[0], ts[1]])
    r = check("C2.8", h=h, a=a, b=Subset.full(s3), k=2)
    assert (r.lhs, r.rhs) == (Fraction(5, 18), Fraction(2, 3))
    with pytest.raises(HypothesisViolated):
        check("C2.8", h=Subset.from_ids(s3, [0, cycles[0]]), a=a, b=Subset.full(s3))
    with pytest.raises(HypothesisViolated):
        check("C2.8", h=Subset.from_ids(s3, [0, ts[2]]), a=a, b=Subset.full(s3))


def test_lower_bound_via_normalish_subgroup(s3):
    _, _, n = s3_pieces(s3)
    full = Subset.full(s3)
    r = check("P1.3", a=full, b=full, t=n)
    assert (r.lhs, r.rhs) == (Fraction(1, 6), Fraction(1, 2))
    # The commutator factor m really is |[T, <B>]|, and it dominates each
    # T-class of an element of B, which is the counting behind the bound.
    inv = inverse_map(s3.mul)
    closure = sorted(oracle_subgroup_closure(full.id_list(), s3.mul))
    comm = oracle_commutator_subgroup(n.id_list(), closure, s3.mul, inv)
    assert len(comm) == 3
    for g in full.id_list():
        assert len(oracle_class(g, n.id_list(), s3.mul, inv)) <= len(comm)
    with pytest.raises(HypothesisViolated):
        check("P1.3", a=full, b=full, t=Subset.from_ids(s3, [0, 1, 2]))


def test_lower_bound_via_subgroup_overlap(s3):
    ts, _, n = s3_pieces(s3)
    a = Subset.from_ids(s3, [0, ts[0], ts[1]])
    r = check("P1.4", a=a, c=n, k=2)
    a2 = sorted(oracle_power(a.id_list(), 2, s3.mul))
    gamma = Fraction(len(set(n.id_list()) & set(a2)), a.size)
    assert r.lhs == gamma**2 / (Fraction(16) * 1)
    assert r.rhs == oracle_pr(a2, a2, s3.mul)
    assert r.holds
    with pytest.raises(HypothesisViolated):
        check("P1.4", a=a, c=Subset.from_ids(s3, [0, ts[0], ts[1]]), k=2)


def test_instance_description(s3):
    _, _, n = s3_pieces(s3)
    r = check("P2.1", a=Subset.full(s3), nsub=n, description="named-run")
    assert r.instance == "named-run"
    r2 = check("P2.1", a=Subset.full(s3), nsub=n)
    assert r2.instance.startswith("P2.1[")


def test_same_order_groups_do_not_share_quotients(s3):
    # S3 and C6 both have a normal subgroup of order 3; results must differ.
    _, _, n = s3_pieces(s3)
    c6 = cyclic(6)
    r_s3 = check("P2.1", a=Subset.full(s3), nsub=n)
    r_c6 = check("P2.1", a=Subset.full(c6), nsub=Subset.from_ids(c6, [0, 2, 4]))
    assert r_s3.lhs == Fraction(1, 2) and r_c6.lhs == 1
    assert r_c6.slack == 0 and r_s3.slack == Fraction(1, 2)


def test_quotient_cache_lets_the_group_go():
    group = cyclic(6)
    check("P2.1", a=Subset.full(group), nsub=Subset.from_ids(group, [0, 2, 4]))
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None


def test_default_k_uses_certificate(monkeypatch):
    import approxcommute.statements as statements_mod

    calls = []
    real_certify = statements_mod.certify

    def counted(*args, **kwargs):
        calls.append(args)
        return real_certify(*args, **kwargs)

    monkeypatch.setattr(statements_mod, "certify", counted)
    for sid in ("C2.3a", "L2.6", "C2.8", "P1.4"):
        s3 = symmetric(3)  # a fresh group, so no greedy k is memoised yet
        ts, _, n = s3_pieces(s3)
        a = Subset.from_ids(s3, [0, ts[0], ts[1]])
        h = Subset.from_ids(s3, [0, ts[0]])
        inputs = {
            "C2.3a": {"a": a, "nsub": n},
            "L2.6": {"a": a, "g": ts[0], "n": 3},
            "C2.8": {"h": h, "a": a, "b": Subset.full(s3)},
            "P1.4": {"a": a, "c": h},
        }[sid]

        def sides(**k):
            r = check(sid, **inputs, **k)
            return r.lhs, r.rhs

        # Omitting k certifies a greedily (k = 2); the explicit value
        # reproduces it, and k = 1 does not.
        calls.clear()
        auto = sides()
        assert auto == sides(k=2) != sides(k=1), sid
        # The greedy k is memoised on the set: a second check of it certifies nothing.
        assert sides() == auto and len(calls) == 1, sid
        with pytest.raises(ValueError):
            check(sid, k=0, **inputs)
