"""Constructive witnesses for the two structure theorems.

Both pipelines start from an approximate subgroup A with frequent commuting
and extract a large core X of elements with small conjugacy classes.  The
first route produces a normal-ish subgroup T of small index whose commutator
with <X^2> is small; the second iterates the extraction to land on a genuine
subgroup C = <Y> meeting A^2 in a large set with small derived subgroup, plus
a short coset cover of A.  Every reported quantity is recomputed from its
definition before the report is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .approx import ApproxCertificate, certify, ruzsa_cover
from .errors import (
    ApproxCommuteError,
    ClassCountCapExceeded,
    NormalEnumerationCapExceeded,
    PowerCapExceeded,
    ProbabilityBelowEpsilon,
)
from .group import (
    centralizer_in,
    commutator_subgroup,
    conjugacy_class_under,
    normal_subgroups,
    subgroup_closure,
)
from .probability import commuting_probability
from .subset import Subset, power, powers, translate

RationalLike = Union[Fraction, int, str]

# Cap on the tower height in bounded_conjugate_cover; the centralizer set at
# level s lives in A^(2^s) and past 2^5 the powers saturate on anything small.
MAX_COVER_LEVELS = 5


@dataclass(frozen=True)
class CoreExtraction:
    """Record of one small-class core extraction from H inside U."""

    h: Subset
    u: Subset
    epsilon: Fraction
    k_u: int
    class_threshold: Fraction
    x: Subset
    b: Subset
    b_closure: Subset
    b_cert: ApproxCertificate
    class_bound_m: int
    chain_bound_pair: Fraction
    chain_bound_cover: Fraction


@dataclass(frozen=True)
class WitnessReport:
    """Everything a witness run produced, with bounds already re-verified."""

    theorem: str
    a: Subset
    k_cert: int
    epsilon: Fraction
    gamma: Fraction
    extractions: tuple[CoreExtraction, ...]
    t: Optional[Subset] = None
    index_g_t: Optional[int] = None
    commutator_size: Optional[int] = None
    y: Optional[Subset] = None
    c: Optional[Subset] = None
    c_prime_size: Optional[int] = None
    k_tilde: Optional[Fraction] = None
    eta: Optional[Fraction] = None
    coset_count: Optional[int] = None
    cover_f: Optional[Subset] = None


def _as_probability(value: RationalLike, label: str) -> Fraction:
    q = Fraction(value)
    if not 0 < q <= 1:
        raise ValueError(f"{label} must lie in (0, 1], got {q}")
    return q


def extract_core(h: Subset, u: Subset, epsilon: RationalLike, k_u: int) -> CoreExtraction:
    """Keep the elements of H whose U-class is small, then square them.

    Requires pr(H, U) >= epsilon.  The extracted core X satisfies
    |X| >= (epsilon/2)|H| by a counting argument, and B = X^2 generates a
    subgroup on which every U-class stays below m = max |y^U|.
    """
    eps = _as_probability(epsilon, "epsilon")
    if k_u < 1:
        raise ValueError(f"k_u must be >= 1, got {k_u}")
    pr_hu = commuting_probability(h, u)
    if pr_hu < eps:
        raise ProbabilityBelowEpsilon(
            f"pr(H, U) = {pr_hu} is below epsilon = {eps}"
        )
    threshold = Fraction(2 * k_u, eps)
    keep = [
        g for g in h.ids if conjugacy_class_under(int(g), u).size <= threshold
    ]
    x = Subset.from_ids(h.group, keep)
    if Fraction(x.size) < Fraction(eps, 2) * h.size:
        raise ApproxCommuteError(
            f"core size |X| = {x.size} fell below (epsilon/2)|H|; "
            "this contradicts the counting bound and indicates a bug"
        )
    b = power(x, 2)
    b_closure = subgroup_closure(b)
    m = max(
        conjugacy_class_under(int(g), u).size for g in b_closure.ids
    )
    alpha = eps / 2
    ratio = Fraction(k_u) / alpha
    return CoreExtraction(
        h=h,
        u=u,
        epsilon=eps,
        k_u=k_u,
        class_threshold=threshold,
        x=x,
        b=b,
        b_closure=b_closure,
        b_cert=certify(b, "greedy"),
        class_bound_m=m,
        chain_bound_pair=ratio**2,
        chain_bound_cover=ratio**6,
    )


def witness_thm1(
    a: Subset,
    epsilon: Optional[RationalLike] = None,
) -> WitnessReport:
    """Witness for the small-index route: find T normal with small [T, <B>].

    T minimizes (|[T, <B>]|, [G:T]) lexicographically over all normal
    subgroups; with epsilon = pr(A, G) this makes both the index and the
    commutator size bounded in terms of k_cert and epsilon alone.
    """
    group = a.group
    cert = certify(a, "greedy")
    full = Subset.full(group)
    eps = (
        commuting_probability(a, full)
        if epsilon is None
        else _as_probability(epsilon, "epsilon")
    )
    ext = extract_core(a, full, eps, 1)
    try:
        normals = normal_subgroups(group)
    except ClassCountCapExceeded as exc:
        raise NormalEnumerationCapExceeded(
            f"cannot search for T: {exc}"
        ) from exc
    best = None
    best_key = None
    for cand in normals:
        comm = commutator_subgroup(cand, ext.b_closure)
        key = (comm.size, group.order // cand.size)
        if best_key is None or key < best_key:
            best, best_key = (cand, comm.size), key
    t, comm_size = best
    gamma = Fraction((a & ext.b).size, max(a.size, ext.b.size))
    if gamma < eps / (2 * cert.k_cert):
        raise ApproxCommuteError(
            f"overlap gamma = {gamma} fell below epsilon/(2 k); "
            "this contradicts the core bound and indicates a bug"
        )
    return WitnessReport(
        theorem="1.1",
        a=a,
        k_cert=cert.k_cert,
        epsilon=eps,
        gamma=gamma,
        extractions=(ext,),
        t=t,
        index_g_t=group.order // t.size,
        commutator_size=comm_size,
    )


def witness_thm2(a: Subset, epsilon: Optional[RationalLike] = None) -> WitnessReport:
    """Witness for the subgroup route: C = <Y> large in A^2, C' small.

    Runs the extraction twice.  The first pass works inside A itself and
    yields B = X^2 with pr(B, <B>) >= eta = 1/(K~ m); the second pass inside
    <B> yields Y whose closure C meets A^2 in at least (epsilon eta / 4)|A|
    elements.  A Ruzsa cover F and the exact number of C-cosets meeting A
    round out the report.
    """
    group = a.group
    cert = certify(a, "greedy")
    eps = (
        commuting_probability(a, a)
        if epsilon is None
        else _as_probability(epsilon, "epsilon")
    )
    ext1 = extract_core(a, a, eps, cert.k_cert)
    k_tilde = max(
        Fraction(ext1.b_cert.k_cert), Fraction(ext1.b.size, ext1.x.size)
    )
    eta = 1 / (k_tilde * ext1.class_bound_m)
    pr_b = commuting_probability(ext1.b, ext1.b_closure)
    if pr_b < eta:
        raise ApproxCommuteError(
            f"pr(B, <B>) = {pr_b} fell below eta = {eta}; "
            "this contradicts the class bound and indicates a bug"
        )
    ext2 = extract_core(ext1.b, ext1.b_closure, eta, 1)
    y = ext2.x
    c = subgroup_closure(y)
    c_prime = commutator_subgroup(c, c)
    a2 = power(a, 2)
    gamma = Fraction((c & a2).size, a.size)
    if gamma < eps * eta / 4:
        raise ApproxCommuteError(
            f"overlap gamma = {gamma} fell below epsilon*eta/4; "
            "this contradicts the second core bound and indicates a bug"
        )
    cover_f = ruzsa_cover(a, y)
    if Fraction(cover_f.size) > 4 * cert.k_cert**2 / (eps * eta):
        raise ApproxCommuteError(
            f"Ruzsa cover size {cover_f.size} exceeded 4K^2/(epsilon eta); "
            "this contradicts the covering bound and indicates a bug"
        )
    mul = group.mul
    coset_count = len({int(mul[g, c.ids].min()) for g in a.ids})
    if Fraction(coset_count) * gamma > Fraction(cert.k_cert**2):
        raise ApproxCommuteError(
            f"coset count {coset_count} exceeded K^2/gamma; "
            "this contradicts the disjointness bound and indicates a bug"
        )
    return WitnessReport(
        theorem="1.2",
        a=a,
        k_cert=cert.k_cert,
        epsilon=eps,
        gamma=gamma,
        extractions=(ext1, ext2),
        y=y,
        c=c,
        c_prime_size=c_prime.size,
        k_tilde=k_tilde,
        eta=eta,
        coset_count=coset_count,
        cover_f=cover_f,
    )


def bounded_conjugate_cover(
    a: Subset, cert: ApproxCertificate, gs: Sequence[int]
) -> tuple[Subset, list[int]]:
    """Cover A by few right-translates of a simultaneous centralizer.

    Given elements g_1..g_s, returns (D, translates) with
    D = C_{A^(2^s)}(g_1, ..., g_s) and A contained in the union of the sets
    D*d over the listed translates; the translate count is at most
    prod_i |g_i^(A^(2^(i-1)))|, each factor bounded via the certificate.
    """
    if cert.base != a:
        raise ValueError("certificate does not belong to the given subset")
    s = len(gs)
    if s < 1:
        raise ValueError("need at least one element to cover against")
    if s > MAX_COVER_LEVELS:
        raise PowerCapExceeded(
            f"cover depth {s} exceeds the maximum of {MAX_COVER_LEVELS}"
        )
    group = a.group
    mul = group.mul
    source = a
    translates: list[int] = []
    chain = powers(a, 1 << s)
    for level, g in enumerate(gs, start=1):
        g = int(g)
        seen: dict[int, int] = {}
        for x in source.ids:
            value = int(mul[int(mul[group.inv[x], g]), x])
            if value not in seen:
                seen[value] = int(x)
        reps = list(seen.values())
        if level == 1:
            translates = reps
        else:
            translates = [
                int(mul[b, h]) for h in translates for b in reps
            ]
            translates = list(dict.fromkeys(translates))
        d_set = chain[(1 << level) - 1]
        for gj in gs[:level]:
            d_set = centralizer_in(d_set, int(gj))
        source = d_set
    covered = Subset.empty(group)
    for d in translates:
        covered = covered | translate(d, d_set, side="right")
    if not a.issubset(covered):
        raise ApproxCommuteError(
            "translate family failed to cover A; this contradicts the "
            "induction and indicates a bug"
        )
    return d_set, translates
