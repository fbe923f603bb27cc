"""The model the closed form and the RK4 oracle share, and nothing of either route.

The dynamics closes within two-dimensional Fock doublets |n, e> / |n+k, g>.
For each doublet the coefficients R1, R2, R_n = R1 - R2, the coupling
alpha_n, the phase phi_n = (R1 + R2)/2 and the generalized Rabi frequency
Omega_n = sqrt((R_n - mu)^2 + alpha_n^2)/2 fully determine the motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, PhysicsValidationError
from .factorials import log_factorials
from .field_states import PhotonDistribution
from .nonlinearity import Nonlinearity

STARK_CONSTRAINT = "Stark coefficients require k=2 (set beta1=beta2=0 for k!=2)"


@dataclass(frozen=True)
class ModelParams:
    """Scalar physics parameters.

    k          photon transition number (>= 1)
    gamma      coupling amplitude (> 0); lambda(t) = gamma cos(mu t)
    mu         coupling modulation frequency (>= 0)
    detuning   Delta = omega - k nu
    chi        Kerr susceptibility
    beta1/2    Stark coefficients (ground / excited); only allowed for k = 2
    nu         field frequency; only enters the optional free-evolution
               phase on the atomic coherence and temperature conversions
    """

    k: int = 1
    gamma: float = 1.0
    mu: float = 0.0
    detuning: float = 0.0
    chi: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "mu", "detuning", "chi", "beta1", "beta2", "nu"):
            if not math.isfinite(getattr(self, name)):
                raise PhysicsValidationError(
                    f"{name} must be finite, got {getattr(self, name)!r}"
                )
        if not math.isfinite(self.k) or int(self.k) != self.k or self.k < 1:
            raise PhysicsValidationError(f"k must be a positive integer, got {self.k!r}")
        if not (self.gamma > 0.0):
            raise PhysicsValidationError(f"gamma must be > 0, got {self.gamma!r}")
        if self.mu < 0.0:
            raise PhysicsValidationError(f"mu must be >= 0, got {self.mu!r}")
        if self.nu < 0.0:
            raise PhysicsValidationError(f"nu must be >= 0, got {self.nu!r}")
        if self.k != 2 and (self.beta1 != 0.0 or self.beta2 != 0.0):
            raise PhysicsValidationError(STARK_CONSTRAINT)


class CoefficientTable:
    """Vectorized R1, R2, Rn, alpha, phi, Omega over n = 0..n_max."""

    # an overflowing coefficient is inf or NaN: the plan refuses it as phase overflow
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, params: ModelParams, f: Nonlinearity, n_max: int):
        k = params.k
        n = np.arange(n_max + 1, dtype=float)
        f2, lf = f.tables(n_max + k)
        f2n = f2[: n_max + 1]
        f2n_m1 = np.concatenate(([0.0], f2[:n_max]))  # paired with n(n-1) = 0 at n=0
        f2nk = f2[k : k + n_max + 1]
        f2nk_m1 = f2[k - 1 : k + n_max]

        kerr_e = n * (n - 1.0) * f2n * f2n_m1
        kerr_g = (n + k) * (n + k - 1.0) * f2nk * f2nk_m1
        stark_e = n * f2n * params.beta2
        stark_g = (n + k) * f2nk * params.beta1

        self.n = np.arange(n_max + 1)
        self.R1 = 0.5 * params.detuning + stark_e + params.chi * kerr_e
        self.R2 = -0.5 * params.detuning + stark_g + params.chi * kerr_g
        self.Rn = self.R1 - self.R2
        self.phi = 0.5 * params.chi * (kerr_e + kerr_g) + 0.5 * (stark_e + stark_g)

        ni = self.n
        ln_fact = log_factorials(np.arange(n_max + k + 1))
        log_alpha = (
            math.log(params.gamma)
            + (lf[ni + k] - lf[ni])
            + 0.5 * (ln_fact[ni + k] - ln_fact[ni])
        )
        self.alpha = np.exp(log_alpha)
        self.Omega = 0.5 * np.hypot(self.Rn - params.mu, self.alpha)


# |Omega t| below which sin(Omega t)/Omega takes its series
_SERIES_LIMIT = 1e-4


def _sin_over_omega(omega: np.ndarray, t, sin_x=None, out=None) -> np.ndarray:
    """sin(Omega t)/Omega for doublets ``omega`` (last axis) and times ``t``.

    ``t`` is a scalar or a column of times, one row each; ``sin_x`` is
    sin(Omega t) when the caller already has it, and ``out`` an array of
    the result's shape to write into. The limit
    sin(Omega t)/Omega -> t keeps the degenerate Omega = 0 doublet finite:
    where |Omega t| < 1e-4 the series t (1 - x^2/6 + x^4/120), x = Omega t,
    replaces the quotient, avoiding 0/0 without catastrophic cancellation.
    Such a cell needs |t| min(Omega) < 1e-4, so only the rows up to the
    last such time are searched (a prefix of an ascending grid).
    """
    shape = np.broadcast_shapes(np.shape(omega), np.shape(t))
    t = np.reshape(t, (-1, 1))
    if sin_x is None:
        sin_x = np.sin(omega * t)
    s = np.divide(sin_x, np.where(omega > 0.0, omega, 1.0), out=out)
    s = s.reshape(len(t), -1)
    low = np.flatnonzero(np.min(omega, initial=np.inf) * np.abs(t[:, 0]) < _SERIES_LIMIT)
    if len(low):
        rows = slice(0, int(low[-1]) + 1)
        x = omega * t[rows]
        small = np.abs(x) < _SERIES_LIMIT
        if small.any():
            xs = x[small]
            ts = np.broadcast_to(t[rows], x.shape)[small]
            s[rows][small] = ts * (1.0 - xs * xs / 6.0 + xs**4 / 120.0)
    return s.reshape(shape)


def initial_excited_amplitudes(dist: PhotonDistribution) -> np.ndarray:
    """c_{n,e}(0) = +sqrt(rho_nn(0)): the field starts in sum_n sqrt(p_n) |n>.

    The field states give only the populations p_n; this root also fixes
    the phases. W, rho_ee, rho_gg and H_z depend on the populations alone,
    but rho_eg pairs doublet n with doublet n + k through
    c_{n+k}(0) conj(c_n(0)), so it, H_x, H_y, E_x and E_y depend on the
    phases too. The README's "Initial field states" says what the
    convention means for each field kind; ``initial_amplitudes`` of the
    closed form and the oracle takes any other choice.
    """
    return np.sqrt(dist.probabilities)


def _resolve_initial(dist, initial_amplitudes):
    if initial_amplitudes is None:
        return initial_excited_amplitudes(dist).astype(complex)
    c0 = np.asarray(initial_amplitudes, dtype=complex)
    if c0.shape != dist.probabilities.shape:
        raise InvalidParameterError(
            f"initial amplitudes have shape {c0.shape}, "
            f"distribution has {dist.probabilities.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(c0))
    if len(bad):
        raise InvalidParameterError(
            f"initial amplitude of level {bad[0]} is not finite: {complex(c0[bad[0]])!r}"
        )
    return c0


# Samples per block of a ClosedFormPlan on wide plans, and the step of
# every block length; a multiple of the closed form's _FINE.
_BLOCK_ROWS = 256


class UniformGrid:
    """The grid ``np.linspace(0.0, t_end, samples)``, made a slice at a time.

    ``grid[a:b]`` equals ``np.linspace(0.0, t_end, samples)[a:b]`` bit for
    bit (sample j is j * step, the last one t_end, as numpy computes them),
    so a run can walk a grid of any length holding one block of it.
    :class:`ClosedFormPlan` and :func:`ode_oracle_blocks` take one
    wherever they take an array of times. It has at most 2^53 samples:
    beyond that the index j is not exact as a double, so j * step would
    not be np.linspace's sample.
    """

    def __init__(self, t_end: float, samples: int):
        if not (math.isfinite(t_end) and t_end >= 0.0) or not 2 <= samples <= 2**53:
            raise InvalidParameterError(
                "a uniform grid needs t_end >= 0 and 2 to 2^53 samples, "
                f"got {t_end!r}, {samples!r}"
            )
        self.t_end, self.samples = float(t_end), int(samples)
        self.div = self.samples - 1
        self.step = self.t_end / self.div  # as np.linspace: 0.0 when it underflows

    def __len__(self) -> int:
        return self.samples

    def __getitem__(self, rows: slice) -> np.ndarray:
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise InvalidParameterError(f"a uniform grid takes slices of step 1, got {rows!r}")
        start, stop, _ = rows.indices(self.samples)
        t = np.arange(start, max(start, stop), dtype=float)
        if self.step == 0.0:  # np.linspace's order for a step that underflows
            t /= self.div
            t *= self.t_end
        else:
            t *= self.step
        t += 0.0
        if stop == self.samples and len(t):
            t[-1] = self.t_end
        return t


def _as_slice(idx: np.ndarray):
    """idx as a slice when it is evenly spaced, for a strided scatter."""
    if len(idx) > 1:
        d = idx[1] - idx[0]
        if d > 0 and np.all(np.diff(idx) == d):
            return slice(int(idx[0]), int(idx[-1]) + 1, int(d))
    return idx


def _stack_blocks(blocks, rows: int, width: int):
    """Whole-grid (excited, ground) arrays of ``rows`` rows from consecutive blocks of them.

    A grid of one block is that block itself, not a copy: the blocks of
    an amplitude sink and of the oracle are new arrays each, which nothing
    else holds.
    """
    excited = ground = None
    start = 0
    for block_e, block_g in blocks:
        if len(block_e) == rows:
            return block_e, block_g
        if excited is None:
            excited = np.empty((rows, width), dtype=complex)
            ground = np.empty_like(excited)
        excited[start : start + len(block_e)] = block_e
        ground[start : start + len(block_g)] = block_g
        start += len(block_e)
    if excited is None:  # an empty grid
        excited, ground = np.empty((2, 0, width), dtype=complex)
    return excited, ground
