"""Intensity deformation f(n) and its overflow-safe tables.

Every coupling in the model is dressed by products of f over a range of
Fock levels, f(n+1)...f(n+k). Those products are taken as differences of
ln[f(n)]! = sum_{j=1..n} ln f(j) so that mean photon numbers around 25
(Fock levels near 100, or several hundred for thermal fields) never
overflow. :meth:`Nonlinearity.tables` builds that running sum, with
ln[f(0)]! = 0 (empty product), and f(n)^2 for the Kerr and Stark terms,
fresh on every call. f(0) is never read: a table starts at f(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidNonlinearityError

IDENTITY = "identity"
SQRT_N = "sqrt_n"
TABLE = "table"


@dataclass(frozen=True)
class Nonlinearity:
    """f(n): ``identity``, ``sqrt_n`` or a ``table`` of f(1..N), each finite and > 0."""

    kind: str
    values: tuple = ()

    def __post_init__(self):
        values = tuple(map(float, self.values))
        if self.kind not in (IDENTITY, SQRT_N, TABLE) or (self.kind == TABLE) != bool(values):
            raise InvalidNonlinearityError(
                "a nonlinearity is 'identity', 'sqrt_n' or a non-empty table, "
                f"got {self.kind!r} with {len(values)} values"
            )
        for n, value in enumerate(values, start=1):
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidNonlinearityError(
                    f"nonlinearity table entry f({n})={value!r}; need a finite value > 0"
                )
        object.__setattr__(self, "values", values)

    @classmethod
    def identity(cls) -> "Nonlinearity":
        return cls(IDENTITY)

    @classmethod
    def sqrt_n(cls) -> "Nonlinearity":
        return cls(SQRT_N)

    @classmethod
    def from_table(cls, values: Sequence[float]) -> "Nonlinearity":
        """Inline table of f(1..N) values."""
        return cls(TABLE, values)

    @classmethod
    def from_name(cls, name: str) -> "Nonlinearity":
        if name in (IDENTITY, SQRT_N):
            return cls(name)
        raise InvalidNonlinearityError(
            f"unknown nonlinearity name {name!r} (expected 'identity' or 'sqrt_n')"
        )

    def tables(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only arrays (f(n)^2, ln[f(n)]!) for n = 0..n_max.

        Entry 0 of f(n)^2 is 0, which the coefficient formulas only ever
        multiply by n(n-1) or n, both 0 there, and ln[f(0)]! = 0. The
        running sum adds math.log f(j) in order. A table's square is the
        rounded product f f, inf where that overflows: the plan then
        refuses the run as phase overflow.
        """
        if self.kind == IDENTITY:
            f2, log_factorial = np.ones(n_max + 1), np.zeros(n_max + 1)
        else:
            if self.kind == SQRT_N:
                f2 = np.arange(n_max + 1.0)  # exact, unlike sqrt(n)**2
                f = np.sqrt(f2)
            elif n_max <= len(self.values):
                f = np.array((0.0,) + self.values[:n_max])
                with np.errstate(over="ignore"):
                    f2 = f * f
            else:
                size = len(self.values)
                raise InvalidNonlinearityError(
                    f"inline nonlinearity table has {size} entries, need f({size + 1}) to f({n_max})"
                )
            log_factorial = np.cumsum([0.0, *map(math.log, f[1:].tolist())])
        f2[0] = 0.0
        f2.flags.writeable = log_factorial.flags.writeable = False
        return f2, log_factorial
