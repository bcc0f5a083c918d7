"""Registry of checkable commuting-probability inequalities.

Each statement takes concrete subsets of one finite group, validates its
hypotheses, and evaluates both sides of the inequality exactly as rationals.
All inequalities are normalized to the form lhs <= rhs so that
slack = rhs - lhs is nonnegative exactly when the statement holds.  Each
statement also registers the builders of its suite instances, valid by construction.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

import numpy as np

from .approx import certify
from .errors import HypothesisViolated
from .group import (
    Group,
    _by_size_and_mask,
    class_sizes,
    commutator_subgroup,
    cyclic_subgroup,
    cyclic_subgroups,
    is_normal,
    is_subgroup,
    normal_subgroups,
    subgroup_closure,
)
from .probability import _centralizer_counts, commuting_probability
from .rng import SplitMix64
from .subset import Subset, is_symmetric, power, powers, symmetrize, with_identity


@dataclass(frozen=True)
class CheckResult:
    """Outcome of evaluating one statement on one instance."""

    statement_id: str
    instance: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def slack(self) -> Fraction:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class StatementSpec:
    """One registered inequality: identifier, summary, evaluator and valid-instance builders."""

    statement_id: str
    summary: str
    inputs: tuple[str, ...]
    evaluate: Callable[..., tuple[Fraction, Fraction]]
    corpus: Callable[[Group, dict], Iterator[dict]]  # (group, roles) -> structured instances
    draw: Callable[[Group, Fraction, SplitMix64], dict]  # (group, density, stream) -> one instance


REGISTRY: dict[str, StatementSpec] = {}


def _statement(sid: str, summary: str, corpus, draw):
    """Register an evaluator and its instance builders; its parameters after sid are the inputs."""

    def register(evaluate):
        inputs = tuple(inspect.signature(evaluate).parameters)[1:]
        REGISTRY[sid] = StatementSpec(sid, summary, inputs, evaluate, corpus, draw)
        return evaluate

    return register


def random_symmetric_subset(group: Group, density, stream: SplitMix64) -> Subset:
    """Random inverse-closed subset containing the identity.

    Each {g, g^-1} orbit with g != 1 is included independently with the given
    probability (exact rational), drawn in ascending order of min(g, g^-1),
    so the result depends only on the stream state and the group.
    """
    return _draw_pairs(group, range(group.order), Fraction(density), stream)


def _draw_pairs(group: Group, ids, probability: Fraction, stream: SplitMix64) -> Subset:
    """The identity plus each pair {g, g^-1} with min(g, g^-1) in ids, kept with
    the given probability: one event per pair, drawn as one block in the order of ids."""
    ids = np.asarray(ids, dtype=np.intp)
    pick = ids[(ids != group.identity) & (ids <= group.inv[ids])]
    keep = pick[stream.events(probability, pick.size)]
    mask = np.zeros(group.order, dtype=bool)
    mask[group.identity] = True
    mask[keep] = mask[group.inv[keep]] = True
    return Subset(group, mask, _trusted=True)


def _random_plain_subset(group: Group, density, stream: SplitMix64) -> Subset:
    mask = stream.events(density, group.order)
    if not mask.any():
        mask[stream.below(group.order)] = True
    return Subset(group, mask, _trusted=True)


def _a_candidates(group: Group, roles: dict) -> list[Subset]:
    """Symmetric identity-containing test sets for one corpus group."""
    cands = [Subset.full(group)]
    if group.order > 1:
        cands.append(with_identity(symmetrize(Subset.singleton(group, 1))))
    for role in ("A", "A0", "H"):
        if role in roles:
            cands.append(roles[role])
    return list(dict.fromkeys(cands))


def _require(cond: bool, sid: str, reason: str) -> None:
    if not cond:
        raise HypothesisViolated(sid, reason)


def _require_approx(sid: str, a: Subset, label: str = "A") -> None:
    _require(a.size > 0, sid, f"{label} is empty")
    _require(a.contains_identity, sid, f"{label} must contain the identity")
    _require(is_symmetric(a), sid, f"{label} must be symmetric")


def _require_symmetric(sid: str, a: Subset, label: str = "A") -> None:
    _require(a.size > 0, sid, f"{label} is empty")
    _require(is_symmetric(a), sid, f"{label} must be symmetric")


def _require_subgroup(sid: str, h: Subset, label: str) -> None:
    _require(h.size > 0, sid, f"{label} is empty")
    _require(is_subgroup(h), sid, f"{label} must be a subgroup")


def _cert_k(a: Subset, k: Optional[int]) -> int:
    """k if given, else k_cert of the greedy certificate of a, memoised on a."""
    if k is not None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return k
    return a.derived("greedy_k", lambda: certify(a, "greedy").k_cert)


def _pr_full(x: Subset) -> Fraction:
    """pr(x, G), memoised on x."""
    return x.derived("pr_full", lambda: commuting_probability(x, Subset.full(x.group)))


def _pr_self(x: Subset) -> Fraction:
    """pr(x, x), memoised on x."""
    return x.derived("pr_self", lambda: commuting_probability(x, x))


def _coset_arrays(nsub: Subset) -> tuple[np.ndarray, np.ndarray]:
    """coset[g] numbers gN by least element r; commute[i, j] says [r_i, r_j] is in N."""
    group = nsub.group
    reps, coset = np.unique(group.mul[:, nsub.ids].min(axis=1), return_inverse=True)
    prod = coset[group.mul[np.ix_(reps, reps)]]  # [r_i, r_j] in N iff r_i r_j N = r_j r_i N
    return coset, prod == prod.T


def _quotient_bound(sid: str, chain: list[Subset], nsub: Subset, ambient: bool) -> Fraction:
    """pr(AN/N, G/N) pr(A^4 n N, N) if ambient, else pr(AN/N, AN/N) pr(A^4 n N, A^2 n N).

    chain is the power chain [A, A^2, ...] of A, at least up to A^4.
    """
    a4n = chain[3] & nsub  # GroupMismatch before A's ids index N's arrays
    _require(is_normal(nsub), sid, "N must be a normal subgroup")
    coset, commute = nsub.derived("cosets", lambda: _coset_arrays(nsub))
    image = np.unique(coset[chain[0].ids])
    if ambient:
        pairs, inner = commute[image], nsub
    else:
        pairs, inner = commute[np.ix_(image, image)], chain[1] & nsub
    return Fraction(int(pairs.sum()), pairs.size) * commuting_probability(a4n, inner)


def _quot_corpus(group: Group, roles: dict) -> Iterator[dict]:
    a_cands = _a_candidates(group, roles)
    for nsub in normal_subgroups(group):
        for a in a_cands:
            yield {"a": a, "nsub": nsub}


def _quot_draw(group: Group, density, stream: SplitMix64) -> dict:
    nsub = stream.choice(normal_subgroups(group))
    return {"a": random_symmetric_subset(group, density, stream), "nsub": nsub}


# P2.1, P2.2, C2.3a and C2.3b take the same instances: A and a normal subgroup N.
@_statement("P2.1", "pr(A,G) <= (|A^5|/|A|) pr(AN/N, G/N) pr(A^4 n N, N)", _quot_corpus, _quot_draw)
def _p21(sid, a: Subset, nsub: Subset) -> tuple[Fraction, Fraction]:
    _require_symmetric(sid, a)
    chain = powers(a, 5)
    lead = Fraction(chain[4].size, a.size)
    return _pr_full(a), lead * _quotient_bound(sid, chain, nsub, ambient=True)


@_statement("P2.2", "pr(A,A) <= (|A^3||A^5|/|A|^2) pr(AN/N, AN/N) pr(A^4 n N, A^2 n N)",
            _quot_corpus, _quot_draw)
def _p22(sid, a: Subset, nsub: Subset) -> tuple[Fraction, Fraction]:
    _require_symmetric(sid, a)
    chain = powers(a, 5)
    lead = Fraction(chain[2].size * chain[4].size, a.size**2)
    return _pr_self(a), lead * _quotient_bound(sid, chain, nsub, ambient=False)


@_statement("C2.3a", "pr(A,G) <= K^4 pr(AN/N, G/N) pr(A^4 n N, N)", _quot_corpus, _quot_draw)
def _c23a(sid, a, nsub, k=None):
    _require_approx(sid, a)
    lead = Fraction(_cert_k(a, k) ** 4)
    return _pr_full(a), lead * _quotient_bound(sid, powers(a, 4), nsub, ambient=True)


@_statement("C2.3b", "pr(A,A) <= K^6 pr(AN/N, AN/N) pr(A^4 n N, A^2 n N)", _quot_corpus, _quot_draw)
def _c23b(sid, a, nsub, k=None):
    _require_approx(sid, a)
    lead = Fraction(_cert_k(a, k) ** 6)
    bound = _quotient_bound(sid, powers(a, 4), nsub, ambient=False)
    return _pr_self(a), lead * bound


def _sub_mono_corpus(group: Group, roles: dict) -> Iterator[dict]:
    pool = cyclic_subgroups(group) + normal_subgroups(group) + [Subset.full(group)]
    pool = sorted(dict.fromkeys(pool), key=_by_size_and_mask)
    m = np.array([h.mask for h in pool])
    inside = ~(m @ ~m.T)  # [i, k]: no element of pool[i] lies outside pool[k]
    for k, h2 in enumerate(pool):
        for i in np.flatnonzero(inside[:, k]):
            yield {"h1": pool[i], "h2": h2}


def _sub_mono_draw(group: Group, density, stream: SplitMix64) -> dict:
    g1 = stream.below(group.order)
    g2 = stream.below(group.order)
    h2 = subgroup_closure(Subset.from_ids(group, sorted({g1, g2})))
    h1 = cyclic_subgroup(group, stream.choice(h2.ids))
    return {"h1": h1, "h2": h2}


@_statement("Sub-mono", "pr(H2,G) <= pr(H1,G) for subgroups H1 <= H2",
            _sub_mono_corpus, _sub_mono_draw)
def _sub_mono(sid, h1: Subset, h2: Subset) -> tuple[Fraction, Fraction]:
    _require_subgroup(sid, h1, "H1")
    _require_subgroup(sid, h2, "H2")
    _require(h1.issubset(h2), sid, "H1 must be contained in H2")
    return _pr_full(h2), _pr_full(h1)


def _element(sid: str, group: Group, g) -> int:
    g = int(g)
    if not 0 <= g < group.order:
        raise HypothesisViolated(sid, f"element id {g} out of range for order {group.order}")
    return g


def _centralizer_row(x: Subset) -> np.ndarray:
    """|C_x(g)| for every g in the group, memoised on x."""
    return x.derived("centralizer_row", lambda: _centralizer_counts(x, Subset.full(x.group)))


def _class_row(x: Subset) -> np.ndarray:
    """|g^x| for every g in the group, memoised on x."""
    return x.derived("class_row", lambda: class_sizes(np.arange(x.group.order), x))


def _l25_corpus(group: Group, roles: dict) -> Iterator[dict]:
    for a in _a_candidates(group, roles):
        for g in range(group.order):
            yield {"a": a, "g": g}


def _l25_draw(group: Group, density, stream: SplitMix64) -> dict:
    return {"a": random_symmetric_subset(group, density, stream), "g": stream.below(group.order)}


# L2.5a and L2.5b take the same instances: A and every element g.
@_statement("L2.5a", "|C_A(g)| |g^A| <= |A^2|", _l25_corpus, _l25_draw)
def _l25a(sid, a: Subset, g: int) -> tuple[Fraction, Fraction]:
    _require_symmetric(sid, a)
    g = _element(sid, a.group, g)
    lhs = Fraction(int(_centralizer_row(a)[g] * _class_row(a)[g]))
    return lhs, Fraction(power(a, 2).size)


@_statement("L2.5b", "|A| <= |C_{A^2}(g)| |g^A|", _l25_corpus, _l25_draw)
def _l25b(sid, a: Subset, g: int) -> tuple[Fraction, Fraction]:
    _require_symmetric(sid, a)
    g = _element(sid, a.group, g)
    rhs = Fraction(int(_centralizer_row(power(a, 2))[g] * _class_row(a)[g]))
    return Fraction(a.size), rhs


def _l26_corpus(group: Group, roles: dict) -> Iterator[dict]:
    for a in _a_candidates(group, roles):
        for g in a.id_list()[:6]:
            for n in (2, 3):
                yield {"a": a, "g": g, "n": n}


def _l26_draw(group: Group, density, stream: SplitMix64) -> dict:
    a = random_symmetric_subset(group, density, stream)
    return {"a": a, "g": stream.below(group.order), "n": 2 + stream.below(2)}


@_statement("L2.6", "|g^(A^n)| <= K^(n-1) |g^A|", _l26_corpus, _l26_draw)
def _l26(sid, a: Subset, g: int, n: int, k=None) -> tuple[Fraction, Fraction]:
    _require_approx(sid, a)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    kk = _cert_k(a, k)
    g = _element(sid, a.group, g)
    lhs = Fraction(int(_class_row(power(a, n))[g]))
    rhs = Fraction(kk ** (n - 1) * int(_class_row(a)[g]))
    return lhs, rhs


def _p27_corpus(group: Group, roles: dict) -> Iterator[dict]:
    a_cands = _a_candidates(group, roles)
    for a2 in a_cands:
        for a1 in a_cands:
            if a1.issubset(a2):
                for b in (Subset.full(group), Subset.singleton(group, group.order - 1)):
                    yield {"a1": a1, "a2": a2, "b": b}


def _p27_draw(group: Group, density, stream: SplitMix64) -> dict:
    a2 = random_symmetric_subset(group, density, stream)
    a1 = _draw_pairs(group, a2.ids, Fraction(1, 2), stream)
    b = _random_plain_subset(group, density, stream)
    return {"a1": a1, "a2": a2, "b": b}


@_statement("P2.7", "pr(A2,B)/(K K') <= pr(A1^2,B) for symmetric A1 <= A2", _p27_corpus, _p27_draw)
def _p27(sid, a1: Subset, a2: Subset, b: Subset) -> tuple[Fraction, Fraction]:
    _require_symmetric(sid, a1, "A1")
    _require_symmetric(sid, a2, "A2")
    _require(a1.issubset(a2), sid, "A1 must be contained in A2")
    _require(b.size > 0, sid, "B is empty")
    a1_sq = power(a1, 2)
    k1 = Fraction(a1_sq.size, a1.size)
    k2 = Fraction(power(a2, 2).size, a2.size)
    lhs = commuting_probability(a2, b) / (k1 * k2)
    rhs = commuting_probability(a1_sq, b)
    return lhs, rhs


def _c28_corpus(group: Group, roles: dict) -> Iterator[dict]:
    full = Subset.full(group)
    subs = cyclic_subgroups(group)
    if "H" in roles:
        subs.append(roles["H"])
    for h in subs:
        for b in (full, Subset.singleton(group, group.order - 1)):
            yield {"h": h, "a": full, "b": b}


def _c28_draw(group: Group, density, stream: SplitMix64) -> dict:
    h = cyclic_subgroup(group, stream.below(group.order))
    a = h | random_symmetric_subset(group, density, stream)
    return {"h": h, "a": a, "b": _random_plain_subset(group, density, stream)}


@_statement("C2.8", "pr(A,B)/K <= pr(H,B) for a subgroup H <= A", _c28_corpus, _c28_draw)
def _c28(sid, h: Subset, a: Subset, b: Subset, k=None) -> tuple[Fraction, Fraction]:
    _require_approx(sid, a)
    _require_subgroup(sid, h, "H")
    _require(h.issubset(a), sid, "H must be contained in A")
    _require(b.size > 0, sid, "B is empty")
    kk = _cert_k(a, k)
    lhs = commuting_probability(a, b) / kk
    rhs = commuting_probability(h, b)
    return lhs, rhs


def _p13_corpus(group: Group, roles: dict) -> Iterator[dict]:
    full = Subset.full(group)
    trivial = Subset.singleton(group, group.identity)
    t_pool = dict.fromkeys([trivial, full] + normal_subgroups(group)[:6])
    b_cands = [full] + ([roles["A"]] if "A" in roles else [])
    for a in _a_candidates(group, roles):
        for b in b_cands:
            for t in t_pool:
                yield {"a": a, "b": b, "t": t}


def _p13_draw(group: Group, density, stream: SplitMix64) -> dict:
    a = _random_plain_subset(group, density, stream)
    b = _random_plain_subset(group, density, stream)
    t = cyclic_subgroup(group, stream.below(group.order))
    return {"a": a, "b": b, "t": t}


@_statement("P1.3", "gamma/([G:T] |[T,<B>]|) <= pr(A,G) with gamma = |A n B|/|A|",
            _p13_corpus, _p13_draw)
def _p13(sid, a: Subset, b: Subset, t: Subset) -> tuple[Fraction, Fraction]:
    _require(a.size > 0, sid, "A is empty")
    _require(b.size > 0, sid, "B is empty")
    _require_subgroup(sid, t, "T")
    group = a.group
    gamma = Fraction((a & b).size, a.size)
    index = Fraction(group.order, t.size)
    m = commutator_subgroup(t, subgroup_closure(b)).size
    lhs = gamma / (index * m)
    return lhs, _pr_full(a)


def _p14_corpus(group: Group, roles: dict) -> Iterator[dict]:
    trivial = Subset.singleton(group, group.identity)
    c_pool = dict.fromkeys([trivial, Subset.full(group)] + normal_subgroups(group)[:4])
    for a in _a_candidates(group, roles):
        for c in c_pool:
            yield {"a": a, "c": c}


def _p14_draw(group: Group, density, stream: SplitMix64) -> dict:
    a = random_symmetric_subset(group, density, stream)
    c = cyclic_subgroup(group, stream.below(group.order))
    return {"a": a, "c": c}


@_statement("P1.4", "gamma^2/(K^4 |C'|) <= pr(A^2,A^2) with gamma = |C n A^2|/|A|",
            _p14_corpus, _p14_draw)
def _p14(sid, a: Subset, c: Subset, k=None) -> tuple[Fraction, Fraction]:
    _require_approx(sid, a)
    _require_subgroup(sid, c, "C")
    kk = _cert_k(a, k)
    a2 = power(a, 2)
    gamma = Fraction((c & a2).size, a.size)
    s = commutator_subgroup(c, c).size
    lhs = gamma**2 / (Fraction(kk**4) * s)
    return lhs, _pr_self(a2)


def statement_ids() -> list[str]:
    """All registered statement identifiers, in registry order."""
    return list(REGISTRY)


def _describe(statement_id: str, inputs: dict) -> str:
    parts = []
    group = None
    for name, value in inputs.items():
        if isinstance(value, Subset):
            group = group or value.group
            parts.append(f"{name}:{value.size}")
        elif value is not None:
            parts.append(f"{name}={value}")
    prefix = group.name if group is not None else "?"
    return f"{statement_id}[{prefix}|{','.join(parts)}]"


def check(statement_id: str, *, description: Optional[str] = None, **inputs) -> CheckResult:
    """Evaluate one statement on one instance; raises on a bad instance.

    Unknown statement ids raise KeyError; instances that fail a hypothesis
    raise HypothesisViolated.  A returned result with holds == False means
    the inequality genuinely failed on a valid instance.
    """
    try:
        spec = REGISTRY[statement_id]
    except KeyError:
        raise KeyError(
            f"unknown statement {statement_id!r}; known: {', '.join(REGISTRY)}"
        ) from None
    unknown = set(inputs) - set(spec.inputs)
    if unknown:
        raise TypeError(
            f"{statement_id} does not accept inputs {sorted(unknown)}; "
            f"expected {list(spec.inputs)}"
        )
    lhs, rhs = spec.evaluate(statement_id, **inputs)
    return CheckResult(
        statement_id=statement_id,
        instance=description or _describe(statement_id, inputs),
        lhs=lhs,
        rhs=rhs,
    )
