"""Exception types shared across the toolkit."""

from __future__ import annotations


class ApproxCommuteError(Exception):
    """Base class for every error raised by this package."""


class NotLatinSquare(ApproxCommuteError):
    """Multiplication table rows/columns are not permutations of the ids."""


class NoIdentity(ApproxCommuteError):
    """No two-sided identity element found, or a set lacks the identity."""


class NoInverse(ApproxCommuteError):
    """Some element has no two-sided inverse."""


class NotAssociative(ApproxCommuteError):
    """Multiplication table fails an associativity check."""


class OrderCapExceeded(ApproxCommuteError):
    """A construction would exceed the configured group order cap."""


class ClassCountCapExceeded(ApproxCommuteError):
    """Conjugacy class count exceeds the normal-subgroup enumeration cap."""


class NotNormal(ApproxCommuteError):
    """Subset is not a normal subgroup."""


class NotSubgroup(ApproxCommuteError):
    """Subset is not a subgroup."""


class GroupMismatch(ApproxCommuteError):
    """Operands belong to different Group instances."""


class EmptySet(ApproxCommuteError):
    """Operation requires a nonempty subset."""


class NotSymmetric(ApproxCommuteError):
    """Subset is not closed under inverses."""


class ExactCapExceeded(ApproxCommuteError):
    """Exact set-cover certification passed its universe or search-node cap."""


class ProbabilityBelowEpsilon(ApproxCommuteError):
    """Commuting probability fell below the requested threshold."""


class NormalEnumerationCapExceeded(ApproxCommuteError):
    """Normal-subgroup enumeration hit its cap inside a witness pipeline."""


class PowerCapExceeded(ApproxCommuteError):
    """Requested power chain is beyond the supported cap."""


class HypothesisViolated(ApproxCommuteError):
    """A statement check received an instance violating its hypotheses."""

    def __init__(self, statement_id: str, reason: str):
        super().__init__(f"{statement_id}: {reason}")
        self.statement_id = statement_id
        self.reason = reason


class BadParams(ApproxCommuteError):
    """Invalid parameters for the built-in example family."""


class SpecParseError(ApproxCommuteError, ValueError):
    """Malformed group/subset/config specification or environment setting."""
