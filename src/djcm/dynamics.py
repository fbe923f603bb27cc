"""Per-doublet coefficients and time evolution of the amplitude equations.

The dynamics closes within two-dimensional Fock doublets |n, e> / |n+k, g>.
For each doublet the coefficients R1, R2, R_n = R1 - R2, the coupling
alpha_n, the phase phi_n = (R1 + R2)/2 and the generalized Rabi frequency
Omega_n = sqrt((R_n - mu)^2 + alpha_n^2)/2 fully determine the motion.

Two independent routes are provided:

* :class:`ClosedFormPlan` evaluates the analytic solution of the
  rotating-wave amplitude equations on a time grid, block by block into
  sinks (:class:`AmplitudeSink`, :class:`DensitySink`);
  :func:`closed_form_series` returns a whole grid's amplitudes.
* :func:`evolve_ode_oracle` (block by block: :func:`ode_oracle_blocks`)
  integrates those equations numerically (classic RK4 with per-doublet
  step halving), optionally retaining the counter-rotating terms, and
  maps the slow variables back through X = c_{n,e} e^{i R1 t},
  Y = c_{n+k,g} e^{i R2 t} so its output is directly comparable with the
  closed form.

Everything here is a pure function of immutable inputs; reductions run in
a fixed order so results do not depend on how callers parallelize.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailureError, InvalidParameterError, PhysicsValidationError
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


@dataclass(frozen=True, eq=False)
class AmplitudeState:
    """Doublet amplitudes at one time: excited[n] = c_{n,e}, ground[n] = c_{n+k,g}."""

    time: float
    excited: np.ndarray
    ground: np.ndarray
    k: int


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


# Shortest grid whose phases come from fine tables of _FINE rows; a
# shorter grid pays for no table.
_TABLE_MIN_SAMPLES = 16
# Rows of the fine phase tables of a uniform grid, shared by a whole run:
# grid sample j is coarse[j // _FINE] * fine[j % _FINE], with the coarse
# rows evaluated per block. Blocks therefore start at multiples of _FINE.
# Any other grid has groups of one row, each time its own anchor.
_FINE = 16
# Samples per block of a ClosedFormPlan; a multiple of _FINE.
_BLOCK_ROWS = 256
# Doublets evaluated together by the closed form.
_DOUBLET_CHUNK = 128
_EPS = float(np.finfo(float).eps)
# Largest phase argument |w| t_end the closed form accepts: beyond it the
# rounding eps |w| t_end of a phase is 1 rad or more.
_PHASE_LIMIT = 2.0**52


def _uniform_step(times: np.ndarray):
    """Step of an ascending uniform grid, or None for any other grid.

    A grid counts as uniform when every time lies within 2 eps max|t| of
    t_0 + j * step, the rounding ``np.linspace`` leaves (about 1 eps).
    """
    n = len(times)
    if n < _TABLE_MIN_SAMPLES:
        return None
    step = (times[-1] - times[0]) / (n - 1)
    if not step > 0.0:
        return None
    ideal = times[0] + step * np.arange(n)
    if np.max(np.abs(times - ideal)) > 2.0 * _EPS * np.max(np.abs(times)):
        return None
    return float(step)


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


def _grid_span(times):
    """(times, largest time, table step or None) of an array of times or a UniformGrid."""
    if isinstance(times, UniformGrid):
        uniform = len(times) >= _TABLE_MIN_SAMPLES and times.step > 0.0
        return times, times.t_end, times.step if uniform else None
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise InvalidParameterError("evolution times must be >= 0")
    return times, float(np.max(times, initial=0.0)), _uniform_step(times)


def _expand(coarse: np.ndarray, fine: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[J * g + r] = coarse[J] * fine[r], g = len(fine), for a contiguous out."""
    np.multiply(coarse[:, None, :], fine, out=out.reshape(len(coarse), len(fine), -1))
    return out


class _Scratch:
    """Flat work buffers of one evaluating thread, shared by its chunks block after block.

    :func:`_view` hands out a contiguous (rows, width) array at the head of
    one, so a narrower last chunk still works on contiguous memory.
    """

    def __init__(self, rows: int, width: int):
        size = rows * width
        # phase arguments, then a sink's squares or (as complex) its ground phase
        self.arg = np.empty(2 * size)
        self.sin = np.empty(size)  # s = sin(Omega t)/Omega
        self.rot = np.empty(size, dtype=complex)  # the rotation, then the envelope
        self.excited = np.empty(size, dtype=complex)  # the correction, then a sink's terms


def _view(buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
    return buffer[: rows * width].reshape(rows, width)


def _as_slice(idx: np.ndarray):
    """idx as a slice when it is evenly spaced, for a strided scatter."""
    if len(idx) > 1:
        d = idx[1] - idx[0]
        if d > 0 and np.all(np.diff(idx) == d):
            return slice(int(idx[0]), int(idx[-1]) + 1, int(d))
    return idx


def _product_into(out: np.ndarray, cols, a, b) -> None:
    """out[:, cols] = a * b, written in place when cols is a slice."""
    if isinstance(cols, slice):
        np.multiply(a, b, out=out[:, cols])
    else:
        out[:, cols] = a * b


@dataclass(frozen=True)
class _Chunk:
    """Up to _DOUBLET_CHUNK active doublets and their halo, as column ranges.

    ``span`` and ``mine`` slice the plan's arrays over the active
    doublets: ``mine`` the chunk's ``own`` doublets, ``span`` those and
    the halo after them, the next active doublets up to the partner
    n + k of the last own one that has one, so that each coherence pair
    (n, n + k) with n among the own finds both members within the span.
    ``cols`` are the own doublets' level columns in a block's amplitudes,
    ``pairs`` slices the plan's pair arrays, and ``lo`` and ``hi`` are
    those pairs' members as positions within the span.
    """

    span: slice
    own: int
    mine: slice
    cols: object
    pairs: slice
    lo: object
    hi: object


class AmplitudeSink:
    """Closed-form amplitudes of each block, (rows, n_cut+1) for excited and ground.

    A block's value is the pair ``(excited, ground)`` of new arrays, with
    ``excited[:, n]`` = c_{n,e} and ``ground[:, n]`` = c_{n+k,g} and the
    inactive columns zero.

    Built once per run over the plan's active doublets: the fine tables
    of the ground phase (w = phi - mu/2) and of the excited phase (the
    ground phase times exp(-i mu r step)), with c0 and the constant
    factors of the closed form folded in. :meth:`take` slices them to a
    chunk. The sink holds nothing else, so threads may share it.
    """

    def __init__(self, plan: "ClosedFormPlan"):
        self.plan = plan
        c0a = plan.c0[plan.active]
        alpha = plan.coefficients.alpha[plan.active]
        ground_fine = np.exp(-1j * (plan.ground_rate * plan.r_step))
        self.excited_fine = ground_fine * (np.exp(-1j * (plan.mu * plan.r_step)) * c0a)
        self.ground_fine = ground_fine * (-0.5j * alpha * c0a)

    def start(self, n: int):
        """A new block of n rows: (excited, ground), zero."""
        excited = np.zeros((n, len(self.plan.c0)), dtype=complex)
        return excited, np.zeros_like(excited)

    def phases(self, chunk: _Chunk, t: np.ndarray, n: int, work: _Scratch):
        """(excited phase, ground phase) of a chunk's own columns from the tables.

        c0 exp(-i (phi + mu/2) t) and -i (alpha/2) c0 exp(-i (phi - mu/2) t)
        on the first n rows of the padded times column t, in ``work``'s
        buffers that the rotation no longer uses.
        """
        plan = self.plan
        m, w, mine = len(t), chunk.own, chunk.mine
        anchors = t[:: plan.group]
        ground_coarse = np.exp(-1j * (plan.ground_rate[mine] * anchors))
        shift = np.exp(-1j * (plan.mu * anchors))
        excited_phase = _expand(
            ground_coarse * shift, self.excited_fine[:, mine], _view(work.excited, m, w)
        )
        ground_phase = _expand(
            ground_coarse, self.ground_fine[:, mine], _view(work.arg.view(complex), m, w)
        )
        return excited_phase[:n], ground_phase[:n]

    def take(self, block, chunk: _Chunk, t, envelope, s, work: _Scratch) -> None:
        """Write a chunk's own columns of the block's amplitudes."""
        excited, ground = block
        n, w = len(excited), chunk.own
        excited_phase, ground_phase = self.phases(chunk, t, n, work)
        _product_into(excited, chunk.cols, excited_phase, envelope[:n, :w])
        _product_into(ground, chunk.cols, ground_phase, s[:n, :w])


class DensitySink:
    """The reduced atomic density of each block, reduced without amplitudes.

    A block's value is the triple ``(rho_ee, rho_gg, rho_eg)`` of new
    arrays, float, float and complex (rho_eg = sum_n conj(c_{n+k,g})
    c_{n+k,e}), with one value per sample.

    Built once per run over the plan's active doublets: |c0|^2 and
    alpha/2, and over its coherence pairs (n, n + k) the fine table
    exp(-i w r step) of the pair phase, w = phi_{n+k} - phi_n + mu, with
    the weight i (alpha_n/2) conj(c0_n) c0_{n+k} folded in. :meth:`take`
    slices them to a chunk. The sink holds nothing else, so threads may
    share it.
    """

    def __init__(self, plan: "ClosedFormPlan"):
        self.plan = plan
        c0, alpha, active = plan.c0, plan.coefficients.alpha, plan.active
        c0a = c0[active]
        self.population = c0a.real * c0a.real + c0a.imag * c0a.imag
        # |c0|^2, twice: once for the real, once for the imaginary part of
        # the envelope
        self.population_twice = np.repeat(self.population, 2).reshape(-1, 2)
        self.half_alpha = 0.5 * alpha[active]
        lo, hi = active[plan.pair_lo], active[plan.pair_hi]
        weight = 0.5j * alpha[lo] * np.conj(c0[lo]) * c0[hi]
        self.pair_fine = np.exp(-1j * (plan.pair_rate * plan.r_step)) * weight

    def start(self, n: int):
        """A new block of n samples: (rho_ee, rho_gg, rho_eg), zero."""
        return np.zeros(n), np.zeros(n), np.zeros(n, dtype=complex)

    def take(self, block, chunk: _Chunk, t, envelope, s, work: _Scratch) -> None:
        """Add a chunk's share of the block's density to the three rows.

        The populations carry no phase: rho_ee = |envelope|^2 . |c0|^2, with
        |envelope|^2 = cos^2 + ((R_n - mu)/2 s)^2, and
        rho_gg = ((alpha/2) s)^2 . |c0|^2, each a real matrix-vector
        product. The factors are squared after they are multiplied, as in
        |amplitude|^2, so no weight overflows where the amplitudes stay
        finite (((alpha/2) s)^2 is bounded, (alpha/2)^2 alone is not).

        The coherence rho_eg = sum_n i (alpha_n/2) conj(c0_n) c0_{n+k}
        s_n envelope_{n+k} exp(-i (phi_{n+k} - phi_n + mu) t) takes its pair
        phase as coarse x fine rows: the fine factor, weight included,
        multiplies the terms, and each group's sum against its coarse row
        is one matrix product. A chunk without an active pair skips it.
        """
        plan = self.plan
        rho_ee, rho_gg, rho_eg = block
        n, w, mine = len(rho_ee), chunk.own, chunk.mine
        ground = np.multiply(s[:n, :w], self.half_alpha[mine], out=_view(work.arg, n, w))
        rho_gg += np.square(ground, out=ground) @ self.population[mine]
        # |envelope|^2 = cos^2 + ((R_n - mu)/2 s)^2: its parts side by side
        parts = np.square(envelope[:n, :w].view(float), out=_view(work.arg, n, 2 * w))
        rho_ee += parts @ self.population_twice[mine].reshape(-1)
        pairs = chunk.pairs
        p = pairs.stop - pairs.start
        if not p:
            return
        m, g = len(t), plan.group
        terms = np.multiply(s[:, chunk.lo], envelope[:, chunk.hi], out=_view(work.excited, m, p))
        terms = terms.reshape(m // g, g, p)
        terms *= self.pair_fine[:, pairs]
        coarse = np.exp(-1j * (plan.pair_rate[pairs] * t[::g]))
        rho_eg += np.matmul(terms, coarse[:, :, None]).reshape(m)[:n]


class ClosedFormPlan:
    """The closed form on a grid, evaluated _BLOCK_ROWS samples at a time into sinks.

    ``times`` is an array or a :class:`UniformGrid`, whose blocks are made
    as they are evaluated. ``plan.blocks(*sinks)`` evaluates each block
    once into every sink given and yields the block's first sample and
    one value per sink: a :class:`DensitySink`'s is the block's rho_ee,
    rho_gg and rho_eg, reduced without writing any amplitude, an
    :class:`AmplitudeSink`'s the block's (block length, n_cut+1)
    amplitudes. The plan also reports ``active_doublets`` and
    ``max_phase_argument``.

    Built once per run, each as one array over the ``active`` doublets
    (levels with c0 != 0): ``omega``; ``rabi`` = -Omega with its fine
    table ``rabi_fine`` = exp(-i ``rabi_fine_arg``), rabi_fine_arg =
    rabi r step; ``envelope_rate`` = -(R_n - mu)/2; ``ground_rate`` =
    phi - mu/2; and ``pair_rate`` = phi_{n+k} - phi_n + mu over the
    coherence pairs, whose members sit at ``pair_lo`` and ``pair_hi``
    among the active doublets. A sink made for the plan builds its own
    tables over the same doublets. ``chunks`` cut them into
    _DOUBLET_CHUNK-wide column ranges with the halo their pairs need,
    which bounds ``scratch_shape``, the (rows, width) of the work buffers
    that each evaluating thread makes for itself. Each block of
    _BLOCK_ROWS samples then evaluates only its coarse rows, anchored at
    the grid's own times t_{group J}, and each chunk's rotation stage
    once for all the sinks it feeds (:meth:`blocks`). The plan and its
    sinks hold only these per-run tables, so threads may share them.

    ``group``, the rows per coarse anchor, comes from the grid: _FINE on a
    uniform grid of at least _TABLE_MIN_SAMPLES samples (``step`` is then
    its step, the fine tables' spacing, and ``r_step`` the column of fine
    offsets r step), 1 on any other grid (``step`` is None), where every
    time is its own anchor.

    A grid whose largest phase argument |w| t_end reaches 2^52 is refused
    with PhysicsValidationError ("phase overflow") before any block is
    evaluated: there eps |w| t_end >= 1 rad, so no digit of the phase is
    right. The rates w are the very arrays the kernel evaluates: omega,
    ground_rate, mu and pair_rate. A block that is not finite in any sink
    raises PhysicsValidationError too (:meth:`blocks`).
    """

    def __init__(self, params, f, dist, times, initial_amplitudes=None):
        self.times, t_max, step = _grid_span(times)
        self.coefficients = co = CoefficientTable(params, f, dist.n_cut)
        self.c0 = c0 = _resolve_initial(dist, initial_amplitudes)
        self.active = active = np.nonzero(c0 != 0.0)[0]
        self.active_doublets = len(active)
        self.mu = mu = params.mu
        # position of level n + k among the active levels, -1 where inactive
        position = np.full(len(c0) + params.k, -1)
        position[active] = np.arange(len(active))
        partner = position[active + params.k]
        self.pair_lo = np.nonzero(partner >= 0)[0]
        self.pair_hi = partner[self.pair_lo]
        self.omega = co.Omega[active]
        self.ground_rate = co.phi[active] - 0.5 * mu
        self.pair_rate = co.phi[active[self.pair_hi]] - co.phi[active[self.pair_lo]] + mu
        # the largest phase argument the kernel evaluates: Omega t, the
        # ground phase (phi - mu/2) t, the shift mu t and the pair phase
        # (phi_{n+k} - phi_n + mu) t, at the last time
        rates = np.abs(np.concatenate((self.omega, self.ground_rate, [mu], self.pair_rate)))
        self.max_phase_argument = float(np.max(rates) * t_max)
        # cos, sin and exp of such arguments may still be finite, but meaningless
        if not self.max_phase_argument < _PHASE_LIMIT:
            raise PhysicsValidationError(
                "phase overflow: the largest phase argument |w| t_end is "
                f"{self.max_phase_argument:.6g} >= 2^52, where the rounding of the "
                "phases reaches 1 rad"
            )
        self.step = step
        self.group = 1 if step is None else _FINE
        # the fine offsets r step of a group's rows: 0 alone in a group of one
        self.r_step = np.arange(self.group)[:, None] * (step or 0.0)
        self.rabi = -self.omega
        self.rabi_fine_arg = self.rabi * self.r_step
        self.rabi_fine = np.exp(-1j * self.rabi_fine_arg)
        self.envelope_rate = -0.5 * (co.Rn[active] - mu)
        self.chunks = []
        for i0 in range(0, len(active), _DOUBLET_CHUNK):
            i1 = min(i0 + _DOUBLET_CHUNK, len(active))
            pairs = slice(*np.searchsorted(self.pair_lo, (i0, i1)).tolist())
            lo, hi = self.pair_lo[pairs] - i0, self.pair_hi[pairs] - i0
            span = slice(i0, max(i1, i0 + int(np.max(hi, initial=-1)) + 1))
            cols = _as_slice(active[i0:i1])
            self.chunks.append(
                _Chunk(span, i1 - i0, slice(i0, i1), cols, pairs, _as_slice(lo), _as_slice(hi))
            )
        width = max((c.span.stop - c.span.start for c in self.chunks), default=0)
        padded_rows = -(-min(_BLOCK_ROWS, len(self.times)) // self.group) * self.group
        self.scratch_shape = (padded_rows, width)

    def rotation(self, chunk: _Chunk, t: np.ndarray, work: _Scratch):
        """(envelope, s) of every column of a chunk's span at the times column t.

        envelope = cos(Omega t) - i (R_n - mu)/2 s and s = sin(Omega t)/Omega,
        from the rotation exp(i Omega t) of :meth:`_rotation`: its real part
        is cos(Omega t) and its imaginary part gives s. Both are views of
        ``work``'s buffers.
        """
        rot = self._rotation(chunk, t, work)
        omega = self.omega[chunk.span]
        s = _sin_over_omega(omega, t, rot.imag, out=_view(work.sin, *rot.shape))
        envelope = rot  # its real part already holds cos(Omega t)
        np.multiply(self.envelope_rate[chunk.span], s, out=envelope.imag)
        return envelope, s

    def _rotation(self, chunk: _Chunk, t: np.ndarray, work: _Scratch) -> np.ndarray:
        """exp(i Omega t) of a chunk's span for one block, from the tables.

        ``t`` is the block's column of grid times, padded to whole groups
        of g = ``group`` rows; its rows 0, g, 2 g, ... are the coarse
        anchors. With g = 1 every time is its own anchor, the fine factor
        is 1 and the correction d below is exactly 0.

        The rotation from the tables is moved onto the direct argument
        fl(Omega t) by exp(-i d) ~ 1 - d^2/2 - i d, where
        d = fl(w t_j) - fl(w t_anchor) - fl(w r step) is exact (Sterbenz)
        and a few eps |Omega t| in size: cos and sin then carry the
        rounding of fl(Omega t) evaluated directly, so unitarity and the
        population route to W hold as tightly as there.
        """
        span, g = chunk.span, self.group
        rabi = self.rabi[span]
        m, w = len(t), len(rabi)
        anchors = t[::g]
        d = np.multiply(rabi, t, out=_view(work.arg, m, w))  # fl(w t_j), made d below
        anchor_arg = rabi * anchors
        rot = _expand(np.exp(-1j * anchor_arg), self.rabi_fine[:, span], _view(work.rot, m, w))
        groups = d.reshape(len(anchors), g, w)
        groups -= anchor_arg[:, None, :]
        groups -= self.rabi_fine_arg[:, span]
        correction = _view(work.excited, m, w)
        re = correction.real
        np.multiply(d, 0.5, out=re)
        re *= d
        np.subtract(1.0, re, out=re)
        np.subtract(0.0, d, out=correction.imag)  # 0 - d keeps the signs of zero
        rot *= correction
        return rot

    def blocks(self, *sinks):
        """Evaluate the grid block by block into ``sinks``; yield (start, *values).

        Each tuple holds the block's first sample and the block's value in
        each sink, in the order of ``sinks``, new arrays every block; each
        chunk's rotation stage is evaluated once per block, whatever the
        sinks. A block with a value that is not finite in any sink raises
        PhysicsValidationError, which names the block's first time and the
        largest phase argument.

        A plan of two or more chunks on a grid of two or more blocks, run
        where at least two CPUs are usable, evaluates every other block
        on one helper thread (:meth:`_interleaved`); the values, the
        order of the blocks and of any error are those of the serial loop.
        """
        starts = range(0, len(self.times), _BLOCK_ROWS)
        if len(self.chunks) < 2 or len(starts) < 2 or _usable_cpus() < 2:
            work = _Scratch(*self.scratch_shape)
            for start in starts:
                yield (start, *self._evaluate(start, sinks, work))
        else:
            yield from self._interleaved(starts, sinks)

    def _interleaved(self, starts: range, sinks):
        """:meth:`blocks` with the odd blocks evaluated on one helper thread.

        The helper evaluates with the same plan and sinks into work
        buffers of its own. While the caller evaluates block i and the
        consumer takes it, the helper evaluates block i + 1 and hands back
        its values; it then goes on to block i + 3. So two blocks are
        evaluated at a time, each with the serial loop's arithmetic. The
        helper's error surfaces when its block is due, and however the
        stream ends, the helper's block is awaited and its thread joined.
        """
        # the helper's next block start, None to stop; then that block's values or error
        job = [starts[1], None]
        job_ready, block_done = threading.Semaphore(0), threading.Semaphore(0)

        # the helper's work buffers are made here, on the caller: made on the
        # helper they came from its own malloc arena, and a pass over the 45
        # presets peaked 0.5-2.5 MiB higher
        work, helper_work = _Scratch(*self.scratch_shape), _Scratch(*self.scratch_shape)

        def evaluate_jobs():
            while True:
                job_ready.acquire()
                if job[0] is None:
                    return
                try:
                    job[1] = self._evaluate(job[0], sinks, helper_work)
                except Exception as exc:  # raised by the caller when the block is due
                    job[1] = exc
                block_done.release()

        helper = threading.Thread(target=evaluate_jobs, name="djcm-blocks", daemon=True)
        helper.start()
        job_ready.release()
        try:
            for i in range(0, len(starts), 2):
                yield (starts[i], *self._evaluate(starts[i], sinks, work))
                if i + 1 == len(starts):
                    break
                block_done.acquire()
                values = job[1]
                if isinstance(values, Exception):
                    raise values
                if i + 3 < len(starts):
                    job[0] = starts[i + 3]
                    job_ready.release()
                yield (starts[i + 1], *values)
        finally:
            job[0] = None
            job_ready.release()
            helper.join()

    def _evaluate(self, start: int, sinks, work: _Scratch) -> tuple:
        """The values of the block at ``start`` in each sink, evaluated in ``work``."""
        n = min(_BLOCK_ROWS, len(self.times) - start)
        t = self._table_times(start, n)
        values = tuple(sink.start(n) for sink in sinks)
        # a value that overflows shows as one that is not finite, reported
        # once below instead of as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk in self.chunks:
                envelope, s = self.rotation(chunk, t, work)
                for sink, block in zip(sinks, values):
                    sink.take(block, chunk, t, envelope, s, work)
            # a NaN or an infinity anywhere in a sink's arrays reaches their sum
            finite = all(np.isfinite(sum(np.sum(a) for a in block)) for block in values)
        if not finite:
            raise PhysicsValidationError(
                f"the closed form is not finite in the block starting at t = {t[0, 0]:.6g}; "
                f"the largest phase argument |w| t_end is {self.max_phase_argument:.6g}"
            )
        return values

    def _table_times(self, start: int, n: int) -> np.ndarray:
        """Column of the block's grid times, padded on the grid to whole groups."""
        t = self.times[start : start + n]
        pad = (-n) % self.group
        if pad:
            t = np.concatenate((t, t[-1] + self.step * np.arange(1, pad + 1)))
        return t[:, None]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _stack_blocks(blocks, rows: int, width: int):
    """Whole-grid (excited, ground) arrays of ``rows`` rows from consecutive blocks of them."""
    excited = np.empty((rows, width), dtype=complex)
    ground = np.empty_like(excited)
    start = 0
    for block_e, block_g in blocks:
        excited[start : start + len(block_e)] = block_e
        ground[start : start + len(block_g)] = block_g
        start += len(block_e)
    return excited, ground


def closed_form_series(
    params: ModelParams,
    f: Nonlinearity,
    dist: PhotonDistribution,
    times,
    initial_amplitudes=None,
):
    """Closed-form amplitudes on a grid: arrays of shape (len(times), n_cut+1).

    The blocks of a :class:`ClosedFormPlan` through one
    :class:`AmplitudeSink`, concatenated. Doublets with no initial
    amplitude stay exactly zero and are skipped (half of every
    squeezed-vacuum distribution, plus the truncation pad). The others are
    evaluated _DOUBLET_CHUNK at a time, which keeps each chunk's
    temporaries in cache and bounds their memory. A largest phase argument
    of 2^52 or more, or amplitudes that are not finite, raise
    PhysicsValidationError (the phase arguments overflowed).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    plan = ClosedFormPlan(params, f, dist, times, initial_amplitudes)
    blocks = (amplitudes for _, amplitudes in plan.blocks(AmplitudeSink(plan)))
    return _stack_blocks(blocks, len(times), len(plan.c0))


# Steps between direct evaluations of the coupling phases in the oracle.
_REANCHOR = 128
# (segment, doublet) pairs the oracle integrates side by side, unless one
# segment has more doublets: a batch's arrays, about 0.5 kB a pair, then
# stay below the size of a block's amplitudes and mostly in cache.
_MAX_PAIRS = 4096
# A complex product whose right operand is a temporary is written
# np.multiply(x, temp): numpy computes ``x * temp`` in place into a
# temporary of 256 KiB or more, with the operands swapped, and its complex
# multiply is not bitwise commutative, so the digits would otherwise
# depend on the batch size.


class _PairBatch:
    """Flattened (segment, doublet) pairs awaiting propagator integration.

    The amplitude equations are linear, so each output segment is fully
    described by a 2x2 propagator per doublet, and propagators of
    different segments are independent. Integrating them all side by side
    keeps every array operation of a sweep on wide arrays.
    """

    def __init__(self, t0, dt, alpha, Rn, weight, mu, counter_rotating):
        self.t0 = t0
        self.dt = dt
        self.alpha = alpha
        self.Rn = Rn
        self.weight = weight  # amplitude scale entering the doublet
        self.mu = mu
        self.counter_rotating = counter_rotating

    def take(self, idx):
        return _PairBatch(
            self.t0[idx], self.dt[idx], self.alpha[idx], self.Rn[idx],
            self.weight[idx], self.mu, self.counter_rotating,
        )

    def coupling(self, t):
        """Off-diagonal entries (a01, a10) of the coefficient matrix at t.

        Direct evaluation: the definition that :meth:`sweep` follows, in
        a rotating frame (power form) or by recurrence (step loop).
        """
        half = -0.5j * self.alpha
        e = np.exp(-1j * ((self.mu - self.Rn) * t))
        if not self.counter_rotating:
            return half * e, half * np.conj(e)
        ep = np.exp(1j * ((self.mu + self.Rn) * t))
        return half * (ep + e), half * (np.conj(e) + np.conj(ep))

    def sweep(self, m: int):
        """RK4-integrate the propagator over each pair's segment in m steps.

        The coefficient matrix is [[0, a], [-conj(a), 0]] with
        a = -i (alpha/2) s(t), where s = e = exp(-i (mu - Rn) t), plus
        c = exp(i (mu + Rn) t) with the counter-rotating terms. With a0, a1
        and a2 the coupling at the start, middle and end of a step, one
        classic RK4 step of this linear system, its four stages multiplied
        out, is the matrix [[p, q], [-conj(q), conj(p)]] (:func:`_rk4_step`),
        so the propagator keeps the form [[u, v], [-conj(v), conj(u)]] and
        only (u, v) is carried.

        Rotating-wave form: with w = mu - Rn and D(t) = diag(exp(-i w t/2),
        exp(i w t/2)), a(t0 + s) is a(s) conjugated by D(t0), so the step
        at t_j is D(t_j) S0 D(t_j)^-1 with S0 the step at t = 0, and the m
        steps multiply out to D(t0 + dt) T^m D(t0)^-1 with T = D(-h) S0.
        T^m is taken by binary powering, about 2 log2(m) array products
        instead of m steps (:meth:`_power_sweep`).

        Counter-rotating form: the two rotation frequencies share no
        frame, so the m steps are applied one by one (:meth:`_step_sweep`).
        """
        if self.counter_rotating:
            u, v = self._step_sweep(m)
        else:
            u, v = self._power_sweep(m)
        return np.stack([u, v, -np.conj(v), np.conj(u)])

    def _power_sweep(self, m: int):
        """(u, v) of the rotating-wave propagator as D(t0 + dt) T^m D(t0)^-1."""
        h = self.dt / m
        z = 0.5 * self.alpha * h
        w = self.mu - self.Rn
        half = np.exp(-0.5j * (w * h))  # s at the step's midpoint, t = h/2
        p, q = _rk4_step(z, 1.0, half, half * half)
        # T = D(-h) S0 = [[a, b], [-conj(b), conj(a)]]; products of this
        # form keep it, so only (a, b) is carried while squaring
        back = np.conj(half)
        a, b = back * p, back * q
        big_a, big_b = np.ones_like(a), np.zeros_like(b)
        while m:
            if m & 1:
                big_a, big_b = (
                    big_a * a - np.multiply(big_b, np.conj(b)),
                    big_a * b + np.multiply(big_b, np.conj(a)),
                )
            a, b = a * a - (b.real * b.real + b.imag * b.imag), (2.0 * a.real) * b
            m >>= 1
        u = np.multiply(big_a, np.exp(-0.5j * (w * self.dt)))
        v = np.multiply(big_b, np.exp(-0.5j * (w * (2.0 * self.t0 + self.dt))))
        return u, v

    def _step_sweep(self, m: int):
        """(u, v) of the counter-rotating propagator, one RK4 step at a time.

        The phases follow by recurrence: a step's end value starts the
        next, and e(t + h/2) = e(t) exp(-i (mu - Rn) h/2) (likewise c),
        with a direct ``exp`` every ``_REANCHOR`` steps to bound the drift.
        """
        h = self.dt / m
        z = 0.5 * self.alpha * h
        w = self.mu - self.Rn
        w_c = self.mu + self.Rn
        rot = np.exp(-0.5j * (w * h))
        rot_c = np.exp(0.5j * (w_c * h))
        u = np.ones(len(self.t0), dtype=complex)
        v = np.zeros_like(u)
        for j in range(m):
            if j % _REANCHOR == 0:
                ta = self.t0 + j * h
                e0 = np.exp(-1j * (w * ta))
                c0 = np.exp(1j * (w_c * ta))
            e1 = e0 * rot
            e2 = e1 * rot
            c1 = c0 * rot_c
            c2 = c1 * rot_c
            p, q = _rk4_step(z, e0 + c0, e1 + c1, e2 + c2)
            e0 = e2
            c0 = c2
            u, v = p * u - np.multiply(q, np.conj(v)), p * v + np.multiply(q, np.conj(u))
        return u, v


def _rk4_step(z, s0, s1, s2):
    """Entries (p, q) of one classic RK4 step matrix [[p, q], [-conj(q), conj(p)]].

    With a = -i (alpha/2) s at the start (s0), middle (s1) and end (s2)
    of a step of length h, and z = alpha h / 2:

        p = 1 - (h^2/6) (a1 a0* + |a1|^2 + a2 a1*) + (h^4/24) |a1|^2 a2 a0*
        q = (h/6) (a0 + 4 a1 + a2) - (h^3/12) |a1|^2 (a0 + a2)
    """
    z2 = z * z
    mid2 = s1.real * s1.real + s1.imag * s1.imag
    s0c = np.conj(s0)
    p = 1.0 - (z2 / 6.0) * (s1 * s0c + mid2 + np.multiply(s2, np.conj(s1))) + (
        z2 * z2 / 24.0
    ) * (mid2 * (s2 * s0c))
    ends = s0 + s2
    q = (-1j / 6.0 * z) * (ends + 4.0 * s1 - (0.5 * z2 * mid2) * ends)
    return p, q


def _refine_bucket(batch: _PairBatch, m0: int, tol: float, out, slots, pair_info):
    """Halve steps until two refinements agree below tol for every pair.

    Agreement is measured on the doublet's amplitudes, i.e. the propagator
    disagreement scaled by the amplitude entering the doublet, matching a
    direct state integration. The finer sweep is accepted; for a
    4th-order method its true error is about 1/15 of the observed
    disagreement (Richardson), so accumulated error over the output grid
    stays well under segments * tol.

    Each sweep is evaluated in the form :meth:`_PairBatch.sweep` picks:
    by matrix powers in the rotating-wave case (cost ~ log2 m per sweep),
    step by step with the counter-rotating terms (cost ~ m). The steps
    compared and accepted are the same either way.
    """
    idx = np.arange(len(batch.t0))
    m = m0
    if 2 * m > 2**24:
        n_bad, t_bad = pair_info(slots[0])
        raise IntegrationFailureError(
            n_bad, t_bad, "step count exceeded 2^24 per output segment"
        )
    coarse = batch.sweep(m)
    while True:
        m *= 2
        if m > 2**24:
            n_bad, t_bad = pair_info(slots[idx[0]])
            raise IntegrationFailureError(
                n_bad, t_bad, "step count exceeded 2^24 per output segment"
            )
        sub = batch.take(idx) if len(idx) < len(batch.t0) else batch
        fine = sub.sweep(m)
        err = np.max(np.abs(fine - coarse), axis=0) * sub.weight
        done = err <= tol
        if done.any():
            out[:, slots[idx[done]]] = fine[:, done]
        if done.all():
            return
        idx = idx[~done]
        coarse = fine[:, ~done]


def _oracle_grid(t_grid):
    """The oracle's grid, an array or a UniformGrid, once it is known to be valid."""
    if isinstance(t_grid, UniformGrid):
        if not t_grid.step > 0.0:  # an underflowing step repeats times
            raise InvalidParameterError("t_grid must be strictly ascending")
        return t_grid
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1:
        raise InvalidParameterError("t_grid must be a 1-d array of times")
    if t_grid[0] != 0.0:
        raise InvalidParameterError("t_grid must start at 0")
    if np.any(np.diff(t_grid) <= 0.0):
        raise InvalidParameterError("t_grid must be strictly ascending")
    return t_grid


def ode_oracle_blocks(
    params: ModelParams,
    f: Nonlinearity,
    dist: PhotonDistribution,
    t_grid,
    include_counter_rotating: bool = False,
    tol: float = 1e-10,
    initial_amplitudes=None,
):
    """The RK4 reference evolution, _BLOCK_ROWS grid rows at a time.

    Yields ``(excited, ground)`` for each block of rows, new arrays of
    shape (block rows, n_cut+1) laid out as :class:`AmplitudeSink`'s, so
    a caller can compare them with the closed form block by block.
    ``t_grid`` is an array or a :class:`UniformGrid`; it starts at 0 and
    ascends strictly, and ``tol`` is finite and > 0 (InvalidParameterError
    otherwise). See :func:`evolve_ode_oracle` for the integration.

    The slow variables X, Y of each integrated doublet are chained through
    each output segment's propagator as soon as it is integrated. The
    propagators are integrated side by side in batches of at most
    ``_MAX_PAIRS`` (segment, doublet) pairs within a block, or one
    segment's doublets where those are more, so the memory held is one
    block of rows plus one batch, whatever the grid's length.
    """
    grid = _oracle_grid(t_grid)
    # two refinements never agree within a NaN or a tol <= 0
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol!r}")
    n_cut = dist.n_cut
    co = CoefficientTable(params, f, n_cut)
    c0 = _resolve_initial(dist, initial_amplitudes)
    active = np.nonzero(c0 != 0.0)[0]
    mu = params.mu
    weight_all = math.sqrt(2.0) * np.abs(c0[active])
    # Doublets whose whole amplitude stays below the agreement tolerance
    # are carried frozen: unitarity keeps the true state within |c0| of
    # the initial one, so the deviation bound already holds without
    # integrating (and integrating them at huge coupling frequencies is
    # what step counts cannot afford).
    is_frozen = weight_all <= 0.5 * tol
    frozen = active[is_frozen]
    live = np.nonzero(~is_frozen)[0]
    alpha = co.alpha[active][live]
    Rn = co.Rn[active][live]
    weight = weight_all[live]
    # Frequencies the steps must resolve for an accurate propagator: the
    # explicit exponentials and the coupling rotation. Starting at
    # w*h <= 0.75 keeps the first refinement comparison inside the
    # asymptotic regime of the method, where agreement is meaningful.
    w = np.maximum(np.abs(mu - Rn), alpha)
    if include_counter_rotating:
        w = np.maximum(w, np.abs(mu + Rn))
    w = np.maximum(w, 1.0)
    live_cols = _as_slice(active[live])
    X = c0[active[live]].astype(complex)
    Y = np.zeros_like(X)
    d_live = len(live)
    seg_block = max(1, _MAX_PAIRS // max(d_live, 1))
    cols = _as_slice(active)
    r1 = -1j * co.R1[active]
    r2 = -1j * co.R2[active]

    for b0 in range(0, len(grid), _BLOCK_ROWS):
        b1 = min(b0 + _BLOCK_ROWS, len(grid))
        excited = np.zeros((b1 - b0, n_cut + 1), dtype=complex)
        ground = np.zeros_like(excited)
        if b0 == 0:
            excited[0] = c0
        first = max(b0, 1)  # rows from here on end a segment
        if first == b1 or not len(active):
            yield excited, ground
            continue
        excited[first - b0 :, frozen] = c0[frozen]
        # times of rows first - 1 .. b1 - 1: segment i runs from tb[i] to tb[i + 1]
        tb = grid[first - 1 : b1]
        dt = np.diff(tb)
        for s0 in range(0, len(dt), seg_block):
            s1 = min(s0 + seg_block, len(dt))
            rows = slice(first - b0 + s0, first - b0 + s1)
            if d_live:
                batch = _PairBatch(
                    np.repeat(tb[s0:s1], d_live),
                    np.repeat(dt[s0:s1], d_live),
                    np.tile(alpha, s1 - s0),
                    np.tile(Rn, s1 - s0),
                    np.tile(weight, s1 - s0),
                    mu,
                    include_counter_rotating,
                )
                m0p = np.maximum(np.ceil(batch.dt * np.tile(w, s1 - s0) / 0.75).astype(int), 2)
                m0p = 2 ** np.ceil(np.log2(m0p)).astype(int)
                out = np.empty((4, (s1 - s0) * d_live), dtype=complex)

                def pair_info(slot, s0=s0):
                    seg, di = divmod(int(slot), d_live)
                    return int(active[live[di]]), float(tb[s0 + seg + 1])

                for m_init in np.unique(m0p):
                    slots = np.nonzero(m0p == m_init)[0]
                    _refine_bucket(batch.take(slots), int(m_init), tol, out, slots, pair_info)
                props = out.reshape(4, s1 - s0, d_live)
                for i in range(s1 - s0):
                    X, Y = (
                        props[0, i] * X + props[1, i] * Y,
                        props[2, i] * X + props[3, i] * Y,
                    )
                    excited[rows.start + i, live_cols] = X
                    ground[rows.start + i, live_cols] = Y
            # reattach the diagonal phases
            t1 = tb[s0 + 1 : s1 + 1, None]
            excited[rows, cols] *= np.exp(r1 * t1)
            ground[rows, cols] *= np.exp(r2 * t1)
        yield excited, ground


def evolve_ode_oracle(
    params: ModelParams,
    f: Nonlinearity,
    dist: PhotonDistribution,
    t_grid,
    include_counter_rotating: bool = False,
    tol: float = 1e-10,
    initial_amplitudes=None,
):
    """Runge-Kutta reference evolution, independent of the closed form.

    Integrates, per Fock doublet, the slow-variable system (rotating-wave
    form by default; with ``include_counter_rotating`` the full pre-RWA
    form retaining both rotation directions) and reattaches the diagonal
    phases e^{-i R1 t}, e^{-i R2 t}. Classic fixed-order RK4 with step
    halving per output segment until two refinements agree below ``tol``
    for every doublet; doublets with no initial population are carried as
    exact zeros. The rotating-wave product of m RK4 steps is evaluated by
    binary powering of one step matrix; the counter-rotating form applies
    its m steps one at a time, so ``include_counter_rotating`` costs time
    proportional to the step count (see :meth:`_PairBatch.sweep`).

    Returns one :class:`AmplitudeState` per grid time: the blocks of
    :func:`ode_oracle_blocks`, concatenated.
    """
    times = _oracle_grid(t_grid)[:]
    blocks = ode_oracle_blocks(
        params, f, dist, times, include_counter_rotating, tol, initial_amplitudes
    )
    excited, ground = _stack_blocks(blocks, len(times), dist.n_cut + 1)
    k = params.k
    return [
        AmplitudeState(time=float(t), excited=excited[i], ground=ground[i], k=k)
        for i, t in enumerate(times)
    ]


def max_amplitude_deviation(states_a, states_b) -> float:
    """Largest |c_a - c_b| over all doublets and times of two state lists."""
    worst = 0.0
    for a, b in zip(states_a, states_b, strict=True):
        worst = max(
            worst,
            float(np.max(np.abs(a.excited - b.excited))),
            float(np.max(np.abs(a.ground - b.ground))),
        )
    return worst
