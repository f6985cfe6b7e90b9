"""Scalar parameter bundle shared by every identity.

The sl2 identities read ``k = k1``, ``beta = beta1`` and ``z = z1``;
fields that an identity does not use are simply ignored by it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .errors import InvalidParamsError


@dataclass(frozen=True)
class ParamSet:
    k1: int = 1
    k2: int = 0
    alpha: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    gamma: float = -0.1
    z1: float = 0.5
    z2: float = 0.5

    def __post_init__(self):
        if not (isinstance(self.k1, int) and isinstance(self.k2, int)):
            raise InvalidParamsError("k1 and k2 must be integers")
        if not (self.k1 >= self.k2 >= 0):
            raise InvalidParamsError(f"need k1 >= k2 >= 0, got k1={self.k1}, k2={self.k2}")
        for name in ("alpha", "beta1", "beta2", "gamma", "z1", "z2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParamsError(f"{name} must be finite, got {getattr(self, name)}")

    # sl2 aliases
    @property
    def k(self) -> int:
        return self.k1

    @property
    def beta(self) -> float:
        return self.beta1

    @property
    def z(self) -> float:
        return self.z1

    def with_(self, **kwargs) -> "ParamSet":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return asdict(self)
