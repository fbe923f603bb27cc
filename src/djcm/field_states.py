"""Initial photon-number distributions on a truncated Fock basis.

Coherent, squeezed-vacuum and thermal fields are all parameterized by the
mean photon number nbar (|alpha|^2 = nbar, sinh^2 r = nbar, and the
Bose-Einstein occupation respectively). Only their populations rho_nn(0)
are built here; the dynamics starts the field in the pure state
sum_n sqrt(rho_nn(0)) |n> (model.initial_excited_amplitudes), which is
the coherent state for a real alpha but neither the squeezed vacuum's
signs nor the thermal mixture (see the README). Weights are
evaluated in log space: (2n)!/(2^n n!)^2 at n ~ 50 and Poisson terms at
n ~ 100 overflow naive evaluation long before the truncation bound.

Truncation policy: smallest N whose cumulative mass reaches 1 - tail_eps,
padded by +k (keeps the c_{n+k,g} companion index in range) plus a fixed
safety margin of 10 levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .factorials import log_factorials

COHERENT = "coherent"
SQUEEZED = "squeezed"
THERMAL = "thermal"
KINDS = (COHERENT, SQUEEZED, THERMAL)

DEFAULT_TAIL_EPS = 1e-12
_PAD_LEVELS = 10
# Most levels choose_truncation evaluates in one call
_MAX_SPAN = 4096
# Most levels N_cut + 1 a distribution may have: 2^22 holds thermal
# nbar 1e5 (2 576 556 levels), and a walk toward more is refused, not run.
_MAX_LEVELS = 2**22


@dataclass(frozen=True, eq=False)
class PhotonDistribution:
    """rho_nn(0) for n = 0..N_cut, together with the mass actually captured."""

    kind: str
    nbar: float
    probabilities: np.ndarray
    captured_mass: float
    tail_eps: float

    @property
    def n_cut(self) -> int:
        return len(self.probabilities) - 1

    def mean(self) -> float:
        n = np.arange(len(self.probabilities))
        return float(np.dot(n, self.probabilities))


def _log_weights(kind: str, n: np.ndarray, nbar: float) -> np.ndarray:
    """ln rho_nn(0) on the integer levels ``n``; -inf marks exact zeros."""
    out = np.full(n.shape, -np.inf)
    if nbar == 0.0:
        out[n == 0] = 0.0  # vacuum for every kind
        return out
    if kind == COHERENT:
        # Poisson e^{-nbar} nbar^n / n!
        return -nbar + n * math.log(nbar) - log_factorials(n)
    if kind == THERMAL:
        return n * math.log(nbar / (1.0 + nbar)) - math.log(1.0 + nbar)
    if kind == SQUEEZED:
        even = n % 2 == 0
        m = n[even] // 2
        # one ln j! table serves both (2m)! and m!
        j, at = np.unique(np.concatenate((2 * m, m)), return_inverse=True)
        ln_fact = log_factorials(j)[at]
        out[even] = (
            m * math.log(nbar)
            + ln_fact[: m.size]
            - 2 * m * math.log(2.0)
            - 2 * ln_fact[m.size :]
            - (m + 0.5) * math.log(1.0 + nbar)
        )
        return out
    raise InvalidParameterError(f"unknown field kind {kind!r}")


def choose_truncation(kind: str, nbar: float, tail_eps: float, k: int) -> int:
    """Smallest N with cumulative mass >= 1 - tail_eps, padded by k + 10.

    More than _MAX_LEVELS levels (N_cut + 1) raise InvalidParameterError,
    as soon as the walk passes the largest N that fits, so an extreme
    nbar or k fails at once instead of walking or allocating without end.
    """
    return _truncate(kind, nbar, tail_eps, k)[0]


def _truncate(kind: str, nbar: float, tail_eps: float, k: int):
    """:func:`choose_truncation`'s N_cut and the weights its walk evaluated.

    The weights are exp(ln rho_nn(0)) of levels 0, 1, ..., as many as the
    walk reached: fewer or more than N_cut + 1.
    """
    if not (nbar >= 0.0) or not math.isfinite(nbar):
        raise InvalidParameterError(f"mean photon number must be >= 0, got {nbar!r}")
    if not (0.0 < tail_eps < 1.0):
        raise InvalidParameterError(f"tail_eps must lie in (0, 1), got {tail_eps!r}")
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown field kind {kind!r}")
    if k < 1:
        raise InvalidParameterError(f"photon transition number must be >= 1, got {k}")
    most = _MAX_LEVELS - 1 - k - _PAD_LEVELS  # the largest N that fits
    too_many = InvalidParameterError(
        f"{kind} nbar={nbar!r} with tail_eps={tail_eps!r} and k={k} needs more "
        f"than {_MAX_LEVELS} Fock levels"
    )
    if most < 0:  # k alone takes more levels
        raise too_many
    target = 1.0 - tail_eps
    # Each kind's weights rise to one mode, then fall, so the levels that
    # fit hold at most (most + 1) times the largest of them: below the
    # target (with a factor 2 for rounding) the walk is refused unwalked.
    ends = np.array([0, min(math.floor(nbar), most), most])
    if 2.0 * (most + 1) * float(np.max(np.exp(_log_weights(kind, ends, nbar)))) < target:
        raise too_many
    total = 0.0
    start = 0
    block = 64
    span = block
    evaluated = []
    while True:
        if start > most:
            raise too_many
        # Weights are evaluated for a span of blocks at once (doubling up
        # to _MAX_SPAN levels); the mass is still summed per 64-level
        # block, whose rounding decides n_cut.
        evaluated.append(np.exp(_log_weights(kind, np.arange(start, start + span), nbar)))
        for w in evaluated[-1].reshape(-1, block):
            cum = total + np.cumsum(w)
            hit = np.nonzero(cum >= target)[0]
            if hit.size:
                if start + int(hit[0]) > most:
                    raise too_many
                return start + int(hit[0]) + k + _PAD_LEVELS, np.concatenate(evaluated)
            total = cum[-1]
            if start > nbar and float(np.sum(w)) == 0.0:
                # Past the mode the weights only fall, so accumulation
                # stalled below the target: tolerance unreachable in double
                # precision. (Before the mode a coherent block can underflow.)
                raise InvalidParameterError(
                    f"tail_eps={tail_eps!r} unreachable for {kind} nbar={nbar!r}"
                )
            start += block
        span = min(2 * span, _MAX_SPAN)


def build_distribution(
    kind: str, nbar: float, tail_eps: float = DEFAULT_TAIL_EPS, k: int = 1
) -> PhotonDistribution:
    """rho_nn(0) of the field kind named in scenario configs, truncated by choose_truncation."""
    n_cut, weights = _truncate(kind, nbar, tail_eps, k)
    if kind == THERMAL and nbar > 0.0:
        # The sequential product keeps the geometric ratio exact level to level.
        factors = np.full(n_cut + 1, nbar / (1.0 + nbar))
        factors[0] = 1.0 / (1.0 + nbar)
        probs = np.multiply.accumulate(factors)
    else:
        # the truncation's weights, then those of any level past them
        rest = np.exp(_log_weights(kind, np.arange(len(weights), n_cut + 1), nbar))
        probs = np.concatenate((weights[: n_cut + 1], rest))
    probs.setflags(write=False)
    return PhotonDistribution(
        kind=kind,
        nbar=float(nbar),
        probabilities=probs,
        captured_mass=float(np.sum(probs)),
        tail_eps=float(tail_eps),
    )


def coherent_distribution(
    nbar: float, tail_eps: float = DEFAULT_TAIL_EPS, k: int = 1
) -> PhotonDistribution:
    """Poisson populations e^{-nbar} nbar^n / n!."""
    return build_distribution(COHERENT, nbar, tail_eps, k)


def squeezed_distribution(
    nbar: float, tail_eps: float = DEFAULT_TAIL_EPS, k: int = 1
) -> PhotonDistribution:
    """Squeezed-vacuum populations, nonzero on even levels only.

    rho_{2n,2n} = nbar^n (2n)! / ((2^n n!)^2 (1+nbar)^(n+1/2)), which is the
    tanh^{2n}(r) (2n)! / ((2^n n!)^2 cosh r) form with sinh^2 r = nbar.
    """
    return build_distribution(SQUEEZED, nbar, tail_eps, k)


def thermal_distribution(
    nbar: float, tail_eps: float = DEFAULT_TAIL_EPS, k: int = 1
) -> PhotonDistribution:
    """Bose-Einstein populations nbar^n / (1+nbar)^(n+1)."""
    return build_distribution(THERMAL, nbar, tail_eps, k)


def thermal_nbar_from_temperature(frequency: float, temperature: float) -> float:
    """Mean occupation 1 / (exp(nu / T) - 1), in units with hbar = kB = 1."""
    if not (frequency > 0.0):
        raise InvalidParameterError(f"frequency must be > 0, got {frequency!r}")
    if not (temperature > 0.0):
        raise InvalidParameterError(f"temperature must be > 0, got {temperature!r}")
    x = frequency / temperature
    if x > 700.0:  # exp overflows; occupation is zero to double precision
        return 0.0
    # a ratio that underflows to 0, or whose inverse overflows, has no finite nbar
    nbar = 1.0 / math.expm1(x) if x > 0.0 else math.inf
    if not math.isfinite(nbar):
        raise InvalidParameterError(
            f"frequency {frequency!r} over temperature {temperature!r} is too small: "
            "the mean photon number is not finite"
        )
    return nbar

