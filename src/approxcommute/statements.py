"""Registry of checkable commuting-probability inequalities.

Each statement takes concrete subsets of one finite group, validates its
hypotheses, and evaluates both sides of the inequality exactly as rationals.
All inequalities are normalized to the form lhs <= rhs so that
slack = rhs - lhs is nonnegative exactly when the statement holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .approx import certify
from .errors import HypothesisViolated, NotNormal, NotSubgroup
from .group import (
    Group,
    QuotientMap,
    centralizer_in,
    class_sizes,
    commutator_subgroup,
    is_subgroup,
    quotient,
    subgroup_closure,
)
from .probability import commuting_probability
from .subset import Subset, is_symmetric, power, powers


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


def _fail(sid: str, reason: str) -> HypothesisViolated:
    return HypothesisViolated(sid, reason)


def _require(cond: bool, sid: str, reason: str) -> None:
    if not cond:
        raise _fail(sid, reason)


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


def _quotient_by(sid: str, nsub: Subset) -> QuotientMap:
    # Quotient construction dominates some checks, and suites hit the same
    # normal subgroup thousands of times; the map is kept on the group.
    group = nsub.group
    try:
        return group.derived(
            ("quotient", nsub.mask.tobytes()), lambda: quotient(group, nsub)
        )
    except (NotSubgroup, NotNormal) as exc:
        raise _fail(sid, f"N must be a normal subgroup: {exc}") from exc


def _cert_k(a: Subset, k: Optional[int]) -> int:
    if k is not None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return k
    return certify(a, "greedy").k_cert


def _pr_full(x: Subset) -> Fraction:
    return commuting_probability(x, Subset.full(x.group))


def _quotient_factor(sid: str, a: Subset, nsub: Subset, ambient: bool) -> Fraction:
    """pr factor over the quotient: against G/N if ambient, else AN/N itself."""
    qmap = _quotient_by(sid, nsub)
    image = qmap.image(a)
    if ambient:
        return commuting_probability(image, Subset.full(qmap.target))
    return commuting_probability(image, image)


def _p21(sid, a: Subset, nsub: Subset) -> tuple[Fraction, Fraction]:
    _require_symmetric(sid, a)
    *_, a4, a5 = powers(a, 5)
    lhs = _pr_full(a)
    rhs = (
        Fraction(a5.size, a.size)
        * _quotient_factor(sid, a, nsub, ambient=True)
        * commuting_probability(a4 & nsub, nsub)
    )
    return lhs, rhs


def _p22(sid, a: Subset, nsub: Subset) -> tuple[Fraction, Fraction]:
    _require_symmetric(sid, a)
    _, a2, a3, a4, a5 = powers(a, 5)
    lhs = commuting_probability(a, a)
    rhs = (
        Fraction(a3.size * a5.size, a.size**2)
        * _quotient_factor(sid, a, nsub, ambient=False)
        * commuting_probability(a4 & nsub, a2 & nsub)
    )
    return lhs, rhs


def _c23a(sid, a, nsub, k=None):
    _require_approx(sid, a)
    kk = _cert_k(a, k)
    a4 = power(a, 4)
    lhs = _pr_full(a)
    rhs = (
        Fraction(kk**4)
        * _quotient_factor(sid, a, nsub, ambient=True)
        * commuting_probability(a4 & nsub, nsub)
    )
    return lhs, rhs


def _c23b(sid, a, nsub, k=None):
    _require_approx(sid, a)
    kk = _cert_k(a, k)
    _, a2, _, a4 = powers(a, 4)
    lhs = commuting_probability(a, a)
    rhs = (
        Fraction(kk**6)
        * _quotient_factor(sid, a, nsub, ambient=False)
        * commuting_probability(a4 & nsub, a2 & nsub)
    )
    return lhs, rhs


def _sub_mono(sid, h1: Subset, h2: Subset) -> tuple[Fraction, Fraction]:
    _require_subgroup(sid, h1, "H1")
    _require_subgroup(sid, h2, "H2")
    _require(h1.issubset(h2), sid, "H1 must be contained in H2")
    return _pr_full(h2), _pr_full(h1)


def _element(sid: str, group: Group, g) -> int:
    g = int(g)
    if not 0 <= g < group.order:
        raise _fail(sid, f"element id {g} out of range for order {group.order}")
    return g


def _class_size(g: int, u: Subset) -> int:
    return int(class_sizes([g], u)[0])


def _l25a(sid, a: Subset, g: int) -> tuple[Fraction, Fraction]:
    _require_symmetric(sid, a)
    g = _element(sid, a.group, g)
    lhs = Fraction(centralizer_in(a, g).size * _class_size(g, a))
    return lhs, Fraction(power(a, 2).size)


def _l25b(sid, a: Subset, g: int) -> tuple[Fraction, Fraction]:
    _require_symmetric(sid, a)
    g = _element(sid, a.group, g)
    rhs = Fraction(centralizer_in(power(a, 2), g).size * _class_size(g, a))
    return Fraction(a.size), rhs


def _l26(sid, a: Subset, g: int, n: int, k=None) -> tuple[Fraction, Fraction]:
    _require_approx(sid, a)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    kk = _cert_k(a, k)
    g = _element(sid, a.group, g)
    lhs = Fraction(_class_size(g, power(a, n)))
    rhs = Fraction(kk ** (n - 1) * _class_size(g, a))
    return lhs, rhs


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


def _c28(sid, h: Subset, a: Subset, b: Subset, k=None) -> tuple[Fraction, Fraction]:
    _require_approx(sid, a)
    _require_subgroup(sid, h, "H")
    _require(h.issubset(a), sid, "H must be contained in A")
    _require(b.size > 0, sid, "B is empty")
    kk = _cert_k(a, k)
    lhs = commuting_probability(a, b) / kk
    rhs = commuting_probability(h, b)
    return lhs, rhs


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


def _p14(sid, a: Subset, c: Subset, k=None) -> tuple[Fraction, Fraction]:
    _require_approx(sid, a)
    _require_subgroup(sid, c, "C")
    kk = _cert_k(a, k)
    a2 = power(a, 2)
    gamma = Fraction((c & a2).size, a.size)
    s = commutator_subgroup(c, c).size
    lhs = gamma**2 / (Fraction(kk**4) * s)
    return lhs, commuting_probability(a2, a2)


@dataclass(frozen=True)
class StatementSpec:
    """One registered inequality: identifier, summary, and evaluator."""

    statement_id: str
    summary: str
    inputs: tuple[str, ...]
    evaluate: Callable[..., tuple[Fraction, Fraction]]


REGISTRY: dict[str, StatementSpec] = {
    spec.statement_id: spec
    for spec in (
        StatementSpec(
            "P2.1",
            "pr(A,G) <= (|A^5|/|A|) pr(AN/N, G/N) pr(A^4 n N, N)",
            ("a", "nsub"),
            _p21,
        ),
        StatementSpec(
            "P2.2",
            "pr(A,A) <= (|A^3||A^5|/|A|^2) pr(AN/N, AN/N) pr(A^4 n N, A^2 n N)",
            ("a", "nsub"),
            _p22,
        ),
        StatementSpec(
            "C2.3a",
            "pr(A,G) <= K^4 pr(AN/N, G/N) pr(A^4 n N, N)",
            ("a", "nsub", "k"),
            _c23a,
        ),
        StatementSpec(
            "C2.3b",
            "pr(A,A) <= K^6 pr(AN/N, AN/N) pr(A^4 n N, A^2 n N)",
            ("a", "nsub", "k"),
            _c23b,
        ),
        StatementSpec(
            "Sub-mono",
            "pr(H2,G) <= pr(H1,G) for subgroups H1 <= H2",
            ("h1", "h2"),
            _sub_mono,
        ),
        StatementSpec(
            "L2.5a",
            "|C_A(g)| |g^A| <= |A^2|",
            ("a", "g"),
            _l25a,
        ),
        StatementSpec(
            "L2.5b",
            "|A| <= |C_{A^2}(g)| |g^A|",
            ("a", "g"),
            _l25b,
        ),
        StatementSpec(
            "L2.6",
            "|g^(A^n)| <= K^(n-1) |g^A|",
            ("a", "g", "n", "k"),
            _l26,
        ),
        StatementSpec(
            "P2.7",
            "pr(A2,B)/(K K') <= pr(A1^2,B) for symmetric A1 <= A2",
            ("a1", "a2", "b"),
            _p27,
        ),
        StatementSpec(
            "C2.8",
            "pr(A,B)/K <= pr(H,B) for a subgroup H <= A",
            ("h", "a", "b", "k"),
            _c28,
        ),
        StatementSpec(
            "P1.3",
            "gamma/([G:T] |[T,<B>]|) <= pr(A,G) with gamma = |A n B|/|A|",
            ("a", "b", "t"),
            _p13,
        ),
        StatementSpec(
            "P1.4",
            "gamma^2/(K^4 |C'|) <= pr(A^2,A^2) with gamma = |C n A^2|/|A|",
            ("a", "c", "k"),
            _p14,
        ),
    )
}


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
