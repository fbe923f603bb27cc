"""Intensity deformation f(n) and overflow-safe f-factorial ratios.

Every coupling in the model is dressed by products of f over a range of
Fock levels, f(n+1)...f(n+k).  Those products are accumulated as sums of
ln f(j) so that mean photon numbers around 25 (Fock levels near 100, or
several hundred for thermal fields) never overflow. The running sums
``table[n] = sum_{j=1..n} ln f(j)`` are cached, with ``table[0] = 0``
(empty product), so f(0) = 0 for the sqrt deformation is harmless: it is
never a factor of any ratio.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidNonlinearityError

IDENTITY = "identity"
SQRT_N = "sqrt_n"
CUSTOM = "custom"


class Nonlinearity:
    """Deformation function f(n) plus cached log f-factorial table.

    Instances are meant to be built once, primed with :meth:`ensure` up to
    the scenario truncation bound, and then shared read-only between
    workers. The table only ever grows.
    """

    def __init__(self, kind: str, fn: Callable[[int], float] | None = None):
        if kind not in (IDENTITY, SQRT_N, CUSTOM):
            raise InvalidNonlinearityError(f"unknown nonlinearity kind {kind!r}")
        if kind == CUSTOM and fn is None:
            raise InvalidNonlinearityError("custom nonlinearity needs an evaluator")
        self.kind = kind
        self._fn = fn
        self._log_table = [0.0]  # [f(0)]! := 1

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
        value = float(self._fn(n))
        if n >= 1 and (not math.isfinite(value) or value <= 0.0):
            raise InvalidNonlinearityError(
                f"custom nonlinearity returned f({n})={value!r}; "
                "need a finite positive value for n >= 1"
            )
        return value

    def ensure(self, n_max: int) -> None:
        """Extend the cached log f-factorial table through n_max."""
        while len(self._log_table) <= n_max:
            j = len(self._log_table)
            self._log_table.append(self._log_table[-1] + math.log(self.eval_f(j)))

    def f_factorial_log(self, n: int) -> float:
        """ln([f(n)]!) = sum_{j=1..n} ln f(j); 0 for n = 0."""
        if n < 0:
            raise InvalidNonlinearityError(f"[f(n)]! undefined for n={n} < 0")
        self.ensure(n)
        return self._log_table[n]

    def f_ratio(self, n: int, k: int) -> float:
        """[f(n+k)]! / [f(n)]! = f(n+1)...f(n+k), computed in log space."""
        if n < 0 or k < 1:
            raise InvalidNonlinearityError(f"f_ratio needs n >= 0, k >= 1; got {n}, {k}")
        if self.kind == IDENTITY:
            return 1.0
        return math.exp(self.f_factorial_log(n + k) - self.f_factorial_log(n))

    def log_table(self, n_max: int) -> np.ndarray:
        """Array view of ln([f(n)]!) for n = 0..n_max."""
        self.ensure(n_max)
        return np.asarray(self._log_table[: n_max + 1], dtype=float)

    def f_squared_table(self, n_max: int) -> np.ndarray:
        """Array of f(n)^2 for n = 0..n_max, used by the coefficient formulas."""
        if self.kind == IDENTITY:
            return np.ones(n_max + 1)
        if self.kind == SQRT_N:
            return np.arange(n_max + 1, dtype=float)
        return np.array([self.eval_f(j) ** 2 for j in range(n_max + 1)])

    def __repr__(self) -> str:
        return f"Nonlinearity({self.kind!r})"
