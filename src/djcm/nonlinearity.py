"""Intensity deformation f(n) and its overflow-safe tables.

Every coupling in the model is dressed by products of f over a range of
Fock levels, f(n+1)...f(n+k). Those products are taken as differences of
ln[f(n)]! = sum_{j=1..n} ln f(j) so that mean photon numbers around 25
(Fock levels near 100, or several hundred for thermal fields) never
overflow. :meth:`Nonlinearity.tables` builds that running sum, with
ln[f(0)]! = 0 (empty product), and f(n)^2 for the Kerr and Stark terms,
fresh on every call. f(0) is never evaluated, so f(0) = 0 for the sqrt
deformation, or a deformation undefined at 0, is harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidNonlinearityError

IDENTITY = "identity"
SQRT_N = "sqrt_n"
CUSTOM = "custom"


@dataclass(frozen=True, eq=False, repr=False)
class Nonlinearity:
    """Deformation function f(n): an immutable value, safe to share."""

    kind: str
    fn: Callable[[int], float] | None = None

    def __post_init__(self):
        if self.kind not in (IDENTITY, SQRT_N, CUSTOM):
            raise InvalidNonlinearityError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == CUSTOM and self.fn is None:
            raise InvalidNonlinearityError("custom nonlinearity needs an evaluator")

    @classmethod
    def identity(cls) -> "Nonlinearity":
        return cls(IDENTITY)

    @classmethod
    def sqrt_n(cls) -> "Nonlinearity":
        return cls(SQRT_N)

    @classmethod
    def custom(cls, fn: Callable[[int], float]) -> "Nonlinearity":
        return cls(CUSTOM, fn=fn)

    @classmethod
    def from_table(cls, values: Sequence[float]) -> "Nonlinearity":
        """Inline table of f(1..N) values; f(0) is irrelevant and set to 0."""
        vals = [float(v) for v in values]

        def fn(n: int) -> float:
            if n == 0:
                return 0.0
            if n > len(vals):
                raise InvalidNonlinearityError(
                    f"inline nonlinearity table has {len(vals)} entries, need f({n})"
                )
            return vals[n - 1]

        return cls(CUSTOM, fn=fn)

    @classmethod
    def from_name(cls, name: str) -> "Nonlinearity":
        if name == IDENTITY:
            return cls.identity()
        if name == SQRT_N:
            return cls.sqrt_n()
        raise InvalidNonlinearityError(
            f"unknown nonlinearity name {name!r} (expected 'identity' or 'sqrt_n')"
        )

    def eval_f(self, n: int) -> float:
        """f(n) for integer n >= 0. f(0) may be 0; f(n>=1) must be positive."""
        if n < 0:
            raise InvalidNonlinearityError(f"f(n) undefined for n={n} < 0")
        if self.kind == IDENTITY:
            return 1.0
        if self.kind == SQRT_N:
            return math.sqrt(n)
        value = float(self.fn(n))
        if n >= 1 and (not math.isfinite(value) or value <= 0.0):
            raise InvalidNonlinearityError(
                f"custom nonlinearity returned f({n})={value!r}; "
                "need a finite positive value for n >= 1"
            )
        return value

    def tables(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only arrays (f(n)^2, ln[f(n)]!) for n = 0..n_max.

        f is evaluated at n >= 1 only: entry 0 of f(n)^2 is 0, which the
        coefficient formulas only ever multiply by n(n-1) or n, both 0
        there, and ln[f(0)]! = 0. The running sum adds ln f(j) in order.
        """
        if self.kind == IDENTITY:
            f2, log_factorial = np.ones(n_max + 1), np.zeros(n_max + 1)
        else:
            values = [self.eval_f(j) for j in range(1, n_max + 1)]
            log_factorial = np.cumsum([0.0] + [math.log(v) for v in values])
            if self.kind == SQRT_N:
                f2 = np.arange(n_max + 1, dtype=float)  # exact, unlike sqrt(n)**2
            else:
                f2 = np.array([0.0] + [v**2 for v in values])
        f2[0] = 0.0
        f2.flags.writeable = log_factorial.flags.writeable = False
        return f2, log_factorial

    def __repr__(self) -> str:
        return f"Nonlinearity({self.kind!r})"
