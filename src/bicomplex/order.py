"""The componentwise partial order on hyperbolic numbers.

``alpha <=' gamma`` means both idempotent components satisfy ``<=``; the
strict relation ``<'`` requires both component inequalities to be strict.
Incomparable pairs (components disagreeing in direction) are first-class
citizens here, which is why :func:`compare` returns a four-way result
instead of pretending the order is total.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from .backend import rle, rlt
from .errors import EmptySetError, NonPositiveBoundError
from .scalars import HyperbolicScalar


class OrderResult(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def compare(alpha: HyperbolicScalar, gamma: HyperbolicScalar) -> OrderResult:
    le1, le2 = rle(alpha.a1, gamma.a1), rle(alpha.a2, gamma.a2)
    ge1, ge2 = rle(gamma.a1, alpha.a1), rle(gamma.a2, alpha.a2)
    if le1 and le2 and ge1 and ge2:
        return OrderResult.EQUAL
    if le1 and le2:
        return OrderResult.LESS
    if ge1 and ge2:
        return OrderResult.GREATER
    return OrderResult.INCOMPARABLE


def le(alpha: HyperbolicScalar, gamma: HyperbolicScalar) -> bool:
    """alpha <=' gamma (non-strict, both components)."""
    return rle(alpha.a1, gamma.a1) and rle(alpha.a2, gamma.a2)


def lt_strict(alpha: HyperbolicScalar, gamma: HyperbolicScalar) -> bool:
    """alpha <' gamma: both component inequalities strict."""
    return rlt(alpha.a1, gamma.a1) and rlt(alpha.a2, gamma.a2)


def is_positive(alpha: HyperbolicScalar) -> bool:
    """alpha >' 0."""
    return lt_strict(HyperbolicScalar.zero(), alpha)


def sup_d(A: Iterable[HyperbolicScalar]) -> HyperbolicScalar:
    """Componentwise maximum — the least upper bound under <='."""
    elements = list(A)
    if not elements:
        raise EmptySetError("sup_d of empty set")
    return HyperbolicScalar(
        max(x.a1 for x in elements),
        max(x.a2 for x in elements),
    )


def inf_d(A: Iterable[HyperbolicScalar]) -> HyperbolicScalar:
    """Componentwise minimum — the greatest lower bound under <='."""
    elements = list(A)
    if not elements:
        raise EmptySetError("inf_d of empty set")
    return HyperbolicScalar(
        min(x.a1 for x in elements),
        min(x.a2 for x in elements),
    )


def is_d_bounded(A: Sequence[HyperbolicScalar], M: HyperbolicScalar) -> bool:
    """True iff every element's component absolute values are strictly below M's.

    The empty collection is vacuously bounded.  M must be >' 0.
    """
    if not is_positive(M):
        raise NonPositiveBoundError("bound must be >' 0")
    return all(lt_strict(x.abs_k(), M) for x in A)
