"""Interleaving domains, their enumeration, and chain coefficients.

A nondecreasing slot map M with M(b) <= k1-k2+b pins each s_b between
consecutive t's; the corresponding domain is a single descending chain of
all k1+k2 coordinates, and the weighted formal sum of these domains is
the integration cycle of the sl3 identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .logreal import sin_ratio


@dataclass(frozen=True)
class OrderMap:
    """Slot assignment b -> M(b), stored 1-based, nondecreasing."""

    m: tuple

    def __post_init__(self):
        vals = self.m
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise DomainError(f"slot map must be nondecreasing, got {vals}")

    @property
    def k2(self) -> int:
        return len(self.m)


@dataclass(frozen=True)
class Chain:
    """Weighted formal sum of interleaving domains."""

    k1: int
    k2: int
    terms: tuple  # of (OrderMap, float coefficient)


def enumerate_maps(k1: int, k2: int) -> list[OrderMap]:
    """All valid slot maps, lexicographically ordered."""
    if not k1 >= k2 >= 0:
        raise DomainError(f"need k1 >= k2 >= 0, got ({k1},{k2})")
    out = []

    def rec(prefix):
        b = len(prefix)
        if b == k2:
            out.append(OrderMap(tuple(prefix)))
            return
        lo = prefix[-1] if prefix else 1
        for val in range(lo, k1 - k2 + b + 1 + 1):
            rec(prefix + [val])

    rec([])
    return out


def coefficient_x(M: OrderMap, k1: int, k2: int, gamma: float) -> float:
    """Trigonometric weight of one domain inside the integration cycle."""
    out = 1.0
    for b1 in range(1, k2 + 1):
        num = (k1 - k2 - M.m[b1 - 1] + b1 + 1) * gamma
        den = (k1 - k2 + b1) * gamma
        out *= sin_ratio(num, den)
    return out


def gamma_chain(k1: int, k2: int, gamma: float) -> Chain:
    """The integration cycle: every domain weighted by its sine-ratio factor."""
    return Chain(k1, k2, tuple((M, coefficient_x(M, k1, k2, gamma))
                               for M in enumerate_maps(k1, k2)))


def unit_chain(k1: int, k2: int) -> Chain:
    """All domains with coefficient 1; as a chain this is the plain cone."""
    return Chain(k1, k2, tuple((M, 1.0) for M in enumerate_maps(k1, k2)))


def merged_order(M: OrderMap, k1: int, k2: int) -> list[tuple]:
    """Descending order of all coordinates on the domain of M.

    Returns [('s', b) | ('t', a)] from the largest coordinate down; the
    s-variables assigned to slot j sit just above t_j, ties between
    s-variables broken by ascending index.
    """
    order = []
    for j in range(1, k1 + 1):
        for b in range(1, k2 + 1):
            if M.m[b - 1] == j:
                order.append(("s", b))
        order.append(("t", j))
    return order

