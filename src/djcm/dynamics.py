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
# Samples per block of a ClosedFormPlan on wide plans, and the step of
# every block length; a multiple of _FINE.
_BLOCK_ROWS = 256
# Doublets evaluated together by the closed form.
_DOUBLET_CHUNK = 128
# Cells (rows x columns) of a block's widest per-row array: narrower sinks
# get longer blocks (ClosedFormPlan.block_rows), up to _MAX_BLOCK_ROWS.
_BLOCK_CELLS = _BLOCK_ROWS * _DOUBLET_CHUNK
_MAX_BLOCK_ROWS = 3 * _BLOCK_ROWS
_EPS = float(np.finfo(float).eps)
# Largest phase argument |w| t_end the closed form accepts: beyond it the
# rounding eps |w| t_end of a phase is 1 rad or more.
_PHASE_LIMIT = 2.0**52
# Largest summed rounding weight of the exponentials a plan leaves to
# separable sums: about the most the split moves the density from its
# all-per-cell value.
_SEPARABLE_BUDGET = 1e-15


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
    """Flat work buffers of one :meth:`ClosedFormPlan.blocks` call, reused block after block.

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
    chunk. It takes every chunk of the plan, the separable doublets'
    too, and holds nothing else, so threads may share it. Its ``width``,
    the columns of its widest per-row array, is n_cut + 1.
    """

    def __init__(self, plan: "ClosedFormPlan"):
        self.plan = plan
        self.chunk_count = len(plan.chunks)
        self.width = len(plan.c0)
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

    def finish(self, block, t) -> None:
        """Nothing: every doublet's amplitudes come from :meth:`take`."""


class DensitySink:
    """The reduced atomic density of each block, reduced without amplitudes.

    A block's value is the triple ``(rho_ee, rho_gg, rho_eg)`` of new
    arrays, float, float and complex (rho_eg = sum_n conj(c_{n+k,g})
    c_{n+k,e}), with one value per sample.

    The plan's per-cell doublets and pairs are reduced from the rotation
    stage of its ``kept_chunks`` (:meth:`take`); the separable ones, as
    sums of exponentials, once per block (:meth:`finish`). Built once per
    run: over the per-cell doublets |c0|^2 and alpha/2, and over their
    pairs (n, n + k) the fine table exp(-i w r step) of the pair phase,
    w = phi_{n+k} - phi_n + mu, with the weight
    i (alpha_n/2) conj(c0_n) c0_{n+k} folded in; over the separable terms
    (``plan.separable``) the coarse table exp(i w 16 J step) and the fine
    table exp(i w r step), weights folded in, of each rate w. The sink
    holds nothing else, so threads may share it. Its ``width``, the
    columns per row of its widest array, is the widest span of its
    chunks, or its separable terms over _FINE where those are more (a
    coarse row of the separable sums covers _FINE rows).
    """

    def __init__(self, plan: "ClosedFormPlan"):
        self.plan = plan
        self.chunk_count = plan.kept_chunks
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
        terms = plan.separable
        self.doublet_rate, self.coherence_rate = terms.doublet_rate, terms.pair_rate
        self.has_separable = bool(len(self.doublet_rate) or len(self.coherence_rate))
        coarse = plan.r_step * _FINE  # the offsets 16 J step of a block's coarse rows
        fine = plan.r_step[:, 0]
        self.doublet_coarse = _phases(coarse * self.doublet_rate)
        # Re(G H) = [Re G, Im G] @ [Re H; -Im H] for G viewed as floats and
        # H = weight exp(i w r step), the weights real
        self.doublet_fine = np.empty((len(self.doublet_rate), 2, _FINE))
        arg = self.doublet_rate[:, None] * fine
        np.multiply(np.cos(arg), terms.doublet_weight[:, None], out=self.doublet_fine[:, 0])
        np.multiply(np.sin(arg), -terms.doublet_weight[:, None], out=self.doublet_fine[:, 1])
        self.doublet_fine = self.doublet_fine.reshape(-1, _FINE)
        self.doublet_constant = float(np.sum(terms.doublet_weight))
        self.separable_population = float(np.sum(terms.population))
        self.coherence_coarse = _phases(coarse * self.coherence_rate)
        self.coherence_fine = _phases(self.coherence_rate[:, None] * fine)
        self.coherence_fine *= terms.pair_weight[:, None]
        spans = (c.span.stop - c.span.start for c in plan.chunks[: self.chunk_count])
        separable_width = -(-(len(self.doublet_rate) + len(self.coherence_rate)) // _FINE)
        self.width = max(max(spans, default=0), separable_width)
        self.rho_ee_at_zero = None
        if self.has_separable and plan.times[0:1][0] == 0.0:
            # squares that overflow fail the first block, as in the per-cell path
            with np.errstate(over="ignore", invalid="ignore"):
                self.rho_ee_at_zero = _rho_ee_at_zero(plan)

    def start(self, n: int):
        """A new block of n samples: (rho_ee, rho_gg, rho_eg), zero."""
        return np.zeros(n), np.zeros(n), np.zeros(n, dtype=complex)

    def take(self, block, chunk: _Chunk, t, envelope, s, work: _Scratch) -> None:
        """Add a per-cell chunk's share of the block's density to the three rows.

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
        is one matrix product. A chunk without a per-cell pair skips it.
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

    def finish(self, block, t) -> None:
        """Add the separable doublets' and pairs' share of the block's density.

        Each is a sum of weighted exponentials sum_w c_w exp(i w t) at the
        times t_a + (16 J + r) step, t_a the time of every _BLOCK_ROWS-th
        row of the block, so each such anchor's sum is the matrix product
        of its coarse rows exp(i w t_a) exp(i w 16 J step) with the fine
        table (:func:`_anchored_sums`): rho_gg's share is
        sum p q/2 - Re sum (p q/2) exp(2 i Omega t), rho_ee's the separable
        populations less that, and rho_eg's the sum of the pairs' terms.

        At t = 0 the share is exactly zero (s_n(0) = 0), and rho_ee is
        |c0|^2 summed as the all-per-cell reduction sums it
        (:func:`_rho_ee_at_zero`), so the first row does not depend on the
        split.
        """
        if not self.has_separable:
            return
        rho_ee, rho_gg, rho_eg = block
        n, groups, anchors = len(rho_ee), len(t) // _FINE, t[::_BLOCK_ROWS, 0]
        at_zero = anchors[0] == 0.0
        if len(self.doublet_rate):
            sums = _anchored_sums(
                self.doublet_coarse, self.doublet_rate, self.doublet_fine, anchors, groups, float
            )
            share = self.doublet_constant - sums[:n]
            if at_zero:
                share[0] = 0.0
            rho_gg += share
            rho_ee += self.separable_population - share
        if len(self.coherence_rate):
            sums = _anchored_sums(
                self.coherence_coarse, self.coherence_rate, self.coherence_fine, anchors, groups
            )
            share = sums[:n]
            if at_zero:
                share[0] = 0.0
            rho_eg += share
        if at_zero:
            rho_ee[0] = self.rho_ee_at_zero


def _anchored_sums(coarse, rate, fine, anchors, groups: int, dtype=complex) -> np.ndarray:
    """The separable sums of a block's rows: (coarse x exp(i rate t_a)) @ fine per anchor t_a.

    ``coarse`` holds the _FINE coarse rows below an anchor and ``groups``
    counts the block's coarse rows. The anchors with all _FINE rows take
    one batched ``np.matmul``, which multiplies slice by slice with the
    very matrix product a block of _BLOCK_ROWS rows makes, and a shorter
    last anchor its own product, so the sums do not depend on the block
    length: one product over more rows would (BLAS rounds by its shape).
    With ``dtype`` float the terms' complex heads are viewed as floats
    against a real fine table.
    """
    phase = _phases(anchors[:, None] * rate)
    per = len(coarse)
    full, rest = divmod(groups, per)
    out = np.empty((groups, fine.shape[1]), dtype=dtype)
    if full:
        head = np.multiply(coarse, phase[:full, None, :])
        np.matmul(head.view(dtype), fine, out=out[: full * per].reshape(full, per, -1))
    if rest:
        head = np.multiply(coarse[:rest], phase[full])
        np.matmul(head.view(dtype), fine, out=out[full * per :])
    return out.reshape(-1)


def _phases(arg: np.ndarray) -> np.ndarray:
    """exp(i arg) of a real array, as cos arg + i sin arg."""
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _rho_ee_at_zero(plan: "ClosedFormPlan") -> float:
    """rho_ee at t = 0 as the all-per-cell reduction sums it.

    At t = 0 every envelope is 1, so that reduction adds |c0|^2 over the
    active doublets in ascending order, _DOUBLET_CHUNK at a time, each
    chunk's sum row 0 of a matrix-vector product over the first block's
    rows. The sum here is made with the very same products, whose rounding
    depends on their width, so it equals that reduction's bit for bit. Row
    0 of such a product does not depend on the rows below it, so the
    _BLOCK_ROWS rows here stand for a first block of any length.
    """
    c0a = plan.c0[np.sort(plan.active)]
    twice = np.repeat(c0a.real * c0a.real + c0a.imag * c0a.imag, 2)
    rows = min(_BLOCK_ROWS, len(plan.times))
    parts = np.zeros(rows * 2 * _DOUBLET_CHUNK)
    parts[: 2 * _DOUBLET_CHUNK : 2] = 1.0  # row 0: |envelope(0)|^2 = 1^2 + 0^2
    total = 0.0
    for i0 in range(0, len(c0a), _DOUBLET_CHUNK):
        w = min(_DOUBLET_CHUNK, len(c0a) - i0)
        total += float((_view(parts, rows, 2 * w) @ twice[2 * i0 : 2 * (i0 + w)])[0])
    return total


@dataclass(frozen=True)
class _SeparableTerms:
    """A plan's separable doublets and pairs, as weights and rates of exponentials.

    Over the separable doublets, ``population`` |c0|^2 and the term
    p q/2 exp(i w t), ``doublet_weight`` p q/2 at ``doublet_rate``
    w = 2 Omega, q = (alpha/(2 Omega))^2, of
    rho_gg = sum p q (1 - cos 2 Omega t)/2. Over the separable pairs, four
    terms each: s_n envelope_{n+k} exp(-i w_pair t) times the pair weight
    expands into exponentials at ``pair_rate`` +-Omega_n +- Omega_{n+k} -
    w_pair, with ``pair_weight``
    sigma (alpha_n/(2 Omega_n))/2 conj(c0_n) c0_{n+k} (1 - tau b_{n+k})/2,
    b = (R_n - mu)/(2 Omega) and sigma, tau the two signs.
    """

    population: np.ndarray
    doublet_weight: np.ndarray
    doublet_rate: np.ndarray
    pair_weight: np.ndarray
    pair_rate: np.ndarray


# The signs (sigma, tau) of a pair's four exponentials.
_SIGMA = np.array([1.0, 1.0, -1.0, -1.0])
_TAU = np.array([1.0, -1.0, 1.0, -1.0])


def _separable_split(co, c0a, levels, lo, hi, pair_rate, mu, t_max, step):
    """The separable doublets and pairs, as masks, with their terms and rounding weights.

    Returns (doublets, pairs, terms, bound, r). Every doublet's and
    pair's exponentials get the rounding weight
    r = |weight| |rate| t_end 4 eps, summed per doublet or pair; a
    doublet with Omega = 0 or a term that is not finite has r = inf. On
    a grid with a table ``step`` the lightest are separable as long as
    their r sum to at most _SEPARABLE_BUDGET, and a pair kept per cell
    keeps both its members; on any other grid nothing is. ``bound`` sums
    the r of the separable doublets and pairs, and ``r`` is each
    doublet's own.
    """
    p = c0a.real * c0a.real + c0a.imag * c0a.imag
    omega = co.Omega[levels]
    two_omega = 2.0 * omega  # hypot(R_n - mu, alpha), so |a|, |b| <= 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = co.alpha[levels] / two_omega
        b = (co.Rn[levels] - mu) / two_omega
        doublet_weight = 0.5 * p * (a * a)
        half = (0.5 * a[lo] * np.conj(c0a[lo]) * c0a[hi])[:, None]
        pair_weight = half * (_SIGMA * (0.5 - 0.5 * _TAU * b[hi][:, None]))
        rates = _SIGMA * omega[lo][:, None] + _TAU * omega[hi][:, None] - pair_rate[:, None]
        scale = 4.0 * _EPS * t_max
        doublet_r = doublet_weight * two_omega * scale
        pair_r = np.sum(np.abs(pair_weight) * np.abs(rates), axis=1) * scale
    doublet_r[~np.isfinite(doublet_r) | (omega == 0.0)] = np.inf
    pair_r[~np.isfinite(pair_r) | (omega[lo] == 0.0) | (omega[hi] == 0.0)] = np.inf
    r = np.concatenate((doublet_r, pair_r))
    light = np.zeros(len(r), dtype=bool)
    if step is not None:
        lightest = np.argsort(r, kind="stable")
        count = np.searchsorted(np.cumsum(r[lightest]), _SEPARABLE_BUDGET, "right")
        light[lightest[:count]] = True
    doublets, pairs = light[: len(doublet_r)], light[len(doublet_r) :]
    doublets[lo[~pairs]] = doublets[hi[~pairs]] = False
    terms = _SeparableTerms(
        p[doublets],
        doublet_weight[doublets],
        two_omega[doublets],
        pair_weight[pairs].reshape(-1),
        rates[pairs].reshape(-1),
    )
    bound = float(np.sum(doublet_r[doublets]) + np.sum(pair_r[pairs]))
    return doublets, pairs, terms, bound, doublet_r


class ClosedFormPlan:
    """The closed form on a grid, evaluated a block of samples at a time into sinks.

    ``times`` is an array or a :class:`UniformGrid`, whose blocks are made
    as they are evaluated. ``plan.blocks(*sinks)`` evaluates each block
    once into every sink given and yields the block's first sample and
    one value per sink: a :class:`DensitySink`'s is the block's rho_ee,
    rho_gg and rho_eg, reduced without writing any amplitude, an
    :class:`AmplitudeSink`'s the block's (block length, n_cut+1)
    amplitudes. The plan also reports ``active_doublets``,
    ``max_phase_argument``, ``per_cell_doublets`` and
    ``separable_rounding_bound``.

    Block length. A block has ``block_rows(*sinks)`` samples: 256
    (_BLOCK_ROWS) times as many as keep the sinks' widest per-row array
    (their ``width``) within the 256 x 128 cells of one doublet chunk,
    at most 768 (_MAX_BLOCK_ROWS). Wide plans, and every run with an
    amplitude sink of more than 64 columns (n_cut >= 64), keep 256 rows;
    a density sink of a narrow plan, such as the coherent presets' (30-60
    per-cell doublets), runs 512 or 768, so the numpy calls of each block
    and of the steps after it (observables, formatting) are paid up to
    three times less often. The cap bounds the memory of a block's
    temporaries, which grows with its rows. The values do not depend on
    the block length: each row is reduced as in a block of 256
    (:meth:`DensitySink.finish`).

    The split. On a uniform grid of group _FINE (below) everything the
    density sink reduces is a sum of exponentials in t: per doublet
    p q (1 - cos 2 Omega t)/2 in rho_gg (and p less that in rho_ee), per
    pair four exponentials in rho_eg (:class:`_SeparableTerms`). Such a
    sum evaluated from phase tables carries rounding of about
    r = |weight| |rate| t_end 4 eps per exponential, where the per-cell
    kernel moves each rotation onto fl(Omega t) itself. So the doublets
    and pairs of largest r stay per cell until the others' r sum to at
    most _SEPARABLE_BUDGET (1e-15): a bound on how far the split moves the
    density, not a tuned constant. A pair kept per cell keeps both its
    members; a doublet with Omega = 0 or a weight that is not finite stays
    per cell, and so does every doublet of any other grid. ``separable``
    holds the separable terms, ``rounding_weight`` each active doublet's
    own r, ``per_cell_doublets`` counts the doublets kept and
    ``separable_rounding_bound`` sums the separable terms' r.

    Built once per run, each as one array over the ``active`` doublets
    (levels with c0 != 0), the per-cell ones first and each part in
    ascending order: ``omega``; ``rabi`` = -Omega with its fine table
    ``rabi_fine`` = exp(-i ``rabi_fine_arg``), rabi_fine_arg = rabi r
    step; ``envelope_rate`` = -(R_n - mu)/2; ``ground_rate`` = phi - mu/2;
    and ``pair_rate`` = phi_{n+k} - phi_n + mu over the per-cell
    coherence pairs, whose members sit at ``pair_lo`` and ``pair_hi``
    among the active doublets. A sink made for the plan builds its own
    tables over the same doublets. ``chunks`` cut them into
    _DOUBLET_CHUNK-wide column ranges with the halo their pairs need, the
    first ``kept_chunks`` over the per-cell doublets and the rest over the
    separable ones, which only an amplitude sink takes; the chunks the
    sinks take bound ``scratch_shape(*sinks)``, the (rows, width) of the
    work buffers that each call of :meth:`blocks` makes for itself. Each
    block then evaluates only its coarse rows, anchored at the grid's own
    times t_{group J}, and each chunk's rotation stage once for all the
    sinks that take it (:meth:`blocks`). The plan and its sinks hold only
    these per-run tables, so threads may share them.

    ``group``, the rows per coarse anchor, comes from the grid: _FINE on a
    uniform grid of at least _TABLE_MIN_SAMPLES samples (``step`` is then
    its step, the fine tables' spacing, and ``r_step`` the column of fine
    offsets r step), 1 on any other grid (``step`` is None), where every
    time is its own anchor.

    A grid whose largest phase argument |w| t_end reaches 2^52 is refused
    with PhysicsValidationError ("phase overflow") before any block is
    evaluated: there eps |w| t_end >= 1 rad, so no digit of the phase is
    right. The rates w are the very arrays the per-cell kernel evaluates:
    omega, ground_rate, mu and pair_rate. A block that is not finite in
    any sink raises PhysicsValidationError too (:meth:`blocks`).
    """

    def __init__(self, params, f, dist, times, initial_amplitudes=None):
        self.times, t_max, step = _grid_span(times)
        self.coefficients = co = CoefficientTable(params, f, dist.n_cut)
        self.c0 = c0 = _resolve_initial(dist, initial_amplitudes)
        levels = np.nonzero(c0 != 0.0)[0]
        self.active_doublets = len(levels)
        self.mu = mu = params.mu
        # position of level n + k among the active levels, -1 where inactive
        position = np.full(len(c0) + params.k, -1)
        position[levels] = np.arange(len(levels))
        partner = position[levels + params.k]
        lo = np.nonzero(partner >= 0)[0]
        hi = partner[lo]
        omega = co.Omega[levels]
        ground_rate = co.phi[levels] - 0.5 * mu
        pair_rate = co.phi[levels[hi]] - co.phi[levels[lo]] + mu
        # the largest phase argument the kernel evaluates: Omega t, the
        # ground phase (phi - mu/2) t, the shift mu t and the pair phase
        # (phi_{n+k} - phi_n + mu) t, at the last time
        rates = np.abs(np.concatenate((omega, ground_rate, [mu], pair_rate)))
        with np.errstate(over="ignore"):  # inf: refused below
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
        split = _separable_split(co, c0[levels], levels, lo, hi, pair_rate, mu, t_max, step)
        separable, separable_pairs, self.separable, self.separable_rounding_bound, r = split
        # the per-cell doublets first, then the separable ones
        order = np.concatenate((np.nonzero(~separable)[0], np.nonzero(separable)[0]))
        self.active = active = levels[order]
        self.per_cell_doublets = kept = len(levels) - int(np.count_nonzero(separable))
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        self.pair_lo = position[lo[~separable_pairs]]
        self.pair_hi = position[hi[~separable_pairs]]
        self.pair_rate = pair_rate[~separable_pairs]
        self.rounding_weight = r[order]
        self.omega = omega[order]
        self.ground_rate = ground_rate[order]
        self.rabi = -self.omega
        self.rabi_fine_arg = self.rabi * self.r_step
        self.rabi_fine = np.exp(-1j * self.rabi_fine_arg)
        self.envelope_rate = -0.5 * (co.Rn[active] - mu)
        self.chunks = []
        for first, last in ((0, kept), (kept, len(active))):
            for i0 in range(first, last, _DOUBLET_CHUNK):
                i1 = min(i0 + _DOUBLET_CHUNK, last)
                pairs = slice(*np.searchsorted(self.pair_lo, (i0, i1)).tolist())
                lo, hi = self.pair_lo[pairs] - i0, self.pair_hi[pairs] - i0
                span = slice(i0, max(i1, i0 + int(np.max(hi, initial=-1)) + 1))
                cols = _as_slice(active[i0:i1])
                self.chunks.append(
                    _Chunk(span, i1 - i0, slice(i0, i1), cols, pairs, _as_slice(lo), _as_slice(hi))
                )
        self.kept_chunks = -(-kept // _DOUBLET_CHUNK)

    def block_rows(self, *sinks) -> int:
        """Samples per block for ``sinks``: as many whole _BLOCK_ROWS as fit their widest row.

        The largest multiple of _BLOCK_ROWS whose rows times the widest
        sink's ``width`` stay within _BLOCK_CELLS, at least _BLOCK_ROWS and
        at most _MAX_BLOCK_ROWS.
        """
        widest = max((sink.width for sink in sinks), default=0)
        fits = _BLOCK_CELLS // max(widest, 1) // _BLOCK_ROWS
        return _BLOCK_ROWS * min(max(fits, 1), _MAX_BLOCK_ROWS // _BLOCK_ROWS)

    def scratch_shape(self, *sinks) -> tuple:
        """(rows, width) of the work buffers of one call evaluating blocks into ``sinks``.

        The rows of a block padded to whole groups, and the widest span of
        the chunks the sinks take.
        """
        rows = min(self.block_rows(*sinks), len(self.times))
        count = max((sink.chunk_count for sink in sinks), default=0)
        width = max((c.span.stop - c.span.start for c in self.chunks[:count]), default=0)
        return -(-rows // self.group) * self.group, width

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

        The blocks are evaluated one after another on the calling thread,
        into one set of work buffers (:class:`_Scratch`) made for this call.
        """
        rows = self.block_rows(*sinks)
        work = _Scratch(*self.scratch_shape(*sinks))
        for start in range(0, len(self.times), rows):
            yield (start, *self._evaluate(start, rows, sinks, work))

    def _evaluate(self, start: int, rows: int, sinks, work: _Scratch) -> tuple:
        """The values of the block of ``rows`` at ``start`` in each sink, evaluated in ``work``.

        Each sink takes the plan's first ``sink.chunk_count`` chunks, whose
        rotation stage is evaluated once for all of them, and then
        finishes the block (a density sink adds its separable share).
        """
        n = min(rows, len(self.times) - start)
        t = self._table_times(start, n)
        values = tuple(sink.start(n) for sink in sinks)
        count = max((sink.chunk_count for sink in sinks), default=0)
        # a value that overflows shows as one that is not finite, reported
        # once below instead of as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for i, chunk in enumerate(self.chunks[:count]):
                envelope, s = self.rotation(chunk, t, work)
                for sink, block in zip(sinks, values):
                    if i < sink.chunk_count:
                        sink.take(block, chunk, t, envelope, s, work)
            for sink, block in zip(sinks, values):
                sink.finish(block, t)
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
# (segment, doublet) pairs the oracle integrates, phases or chains at once,
# unless one segment has more doublets: a batch's arrays, about 0.5 kB a
# pair, then stay below the size of a block's amplitudes and mostly in cache.
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
    keeps every array operation of a sweep on wide arrays. A rotating-wave
    propagator depends on its segment's start only through v's phase, so
    segments of one length share their pairs (:func:`ode_oracle_blocks`).

    With the counter-rotating terms the batch also holds the coupling's
    phases at each pair's start, e(t0) and c(t0) of :meth:`sweep`
    (``start_phases``), made once for all the sweeps of its pairs, and
    ``steps``, the buffers of :func:`_step_buffers` its step loop works
    in, or None to make them per sweep.
    """

    def __init__(
        self, t0, dt, alpha, Rn, weight, mu, counter_rotating, start_phases=None, steps=None
    ):
        self.t0 = t0
        self.dt = dt
        self.alpha = alpha
        self.Rn = Rn
        self.weight = weight  # amplitude scale entering the doublet
        self.mu = mu
        self.counter_rotating = counter_rotating
        if counter_rotating and start_phases is None:
            start_phases = (
                np.exp(-1j * ((mu - Rn) * t0)),
                np.exp(1j * ((mu + Rn) * t0)),
            )
        self.start_phases = start_phases
        self.steps = steps

    def take(self, idx):
        phases = self.start_phases
        return _PairBatch(
            self.t0[idx], self.dt[idx], self.alpha[idx], self.Rn[idx],
            self.weight[idx], self.mu, self.counter_rotating,
            None if phases is None else (phases[0][idx], phases[1][idx]), self.steps,
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
        """(u, v): RK4-integrate the propagator over each pair's segment in m steps.

        The coefficient matrix is [[0, a], [-conj(a), 0]] with
        a = -i (alpha/2) s(t), where s = e = exp(-i (mu - Rn) t), plus
        c = exp(i (mu + Rn) t) with the counter-rotating terms. With a0, a1
        and a2 the coupling at the start, middle and end of a step, one
        classic RK4 step of this linear system, its four stages multiplied
        out, is the matrix [[p, q], [-conj(q), conj(p)]] (:func:`_rk4_step`),
        so the propagator keeps the form [[u, v], [-conj(v), conj(u)]] and
        only (u, v) is carried and returned. With ``steps`` they are views of
        those buffers, which the batch's next sweep overwrites.

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
            return self._step_sweep(m)
        return self._power_sweep(m)

    def _power_sweep(self, m: int):
        """(u, v) of the rotating-wave propagator as D(t0 + dt) T^m D(t0)^-1."""
        h = self.dt / m
        w = self.mu - self.Rn
        half = np.exp(-0.5j * (w * h))  # s at the step's midpoint, t = h/2
        p, q = _rk4_step(_rk4_constants(0.5 * self.alpha * h), 1.0, half, half * half)
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
        from the batch's start phases and with a direct ``exp`` every
        ``_REANCHOR`` steps to bound the drift. A step's end coupling
        s = e + c starts the next step, so s is added afresh only at step 0
        and after each re-anchoring. Every per-step array, the phases, the
        step matrix and (u, v) included, goes to the batch's ``steps``
        buffers, or to buffers made for this sweep, so the m steps take no
        fresh memory.
        """
        n = len(self.t0)
        complex_rows, float_rows = self.steps or _step_buffers(n)
        h = self.dt / m
        constants = _rk4_constants(0.5 * self.alpha * h)
        w = self.mu - self.Rn
        w_c = self.mu + self.Rn
        rot = np.exp(-0.5j * (w * h))
        rot_c = np.exp(0.5j * (w_c * h))
        # in the order of _step_buffers
        e0, e1, e2, c0, c1, c2, s0, s1, s2, u, v, u_next, v_next, *work = (
            row[:n] for row in complex_rows
        )
        work += [row[:n] for row in float_rows]
        u.fill(1.0)
        v.fill(0.0)
        np.copyto(e0, self.start_phases[0])
        np.copyto(c0, self.start_phases[1])
        for j in range(m):
            if j % _REANCHOR == 0:
                if j:
                    ta = self.t0 + j * h
                    np.exp(-1j * (w * ta), out=e0)
                    np.exp(1j * (w_c * ta), out=c0)
                np.add(e0, c0, out=s0)
            np.multiply(e0, rot, out=e1)
            np.multiply(e1, rot, out=e2)
            np.multiply(c0, rot_c, out=c1)
            np.multiply(c1, rot_c, out=c2)
            np.add(e1, c1, out=s1)
            np.add(e2, c2, out=s2)
            p, q = _rk4_step(constants, s0, s1, s2, work)
            # u' = p u - q conj(v), v' = p v + q conj(u), in work arrays p and q do not use
            conj, term = work[:2]
            np.multiply(p, u, out=u_next)
            np.subtract(u_next, np.multiply(q, np.conjugate(v, out=conj), out=term), out=u_next)
            np.multiply(p, v, out=v_next)
            np.add(v_next, np.multiply(q, np.conjugate(u, out=conj), out=term), out=v_next)
            u, u_next, v, v_next = u_next, u, v_next, v
            e0, e2 = e2, e0  # the step's end starts the next
            c0, c2 = c2, c0
            s0, s2 = s2, s0
        return u, v


def _step_buffers(pairs: int):
    """Work rows of the counter-rotating step loop for up to ``pairs`` pairs.

    18 complex rows: e, c and s = e + c at a step's start, middle and end,
    (u, v) and the next (u, v), and :func:`_rk4_step`'s five; and its two
    float rows. :meth:`_PairBatch._step_sweep` works in the first n
    columns of each row, for a batch of n pairs.
    """
    return np.empty((18, pairs), dtype=complex), np.empty((2, pairs))


def _rk4_constants(z):
    """z^2/6, z^4/24, -i z/6 and z^2/2 of :func:`_rk4_step`, once per sweep."""
    z2 = z * z
    return z2 / 6.0, z2 * z2 / 24.0, -1j / 6.0 * z, 0.5 * z2


def _rk4_step(constants, s0, s1, s2, work=None):
    """Entries (p, q) of one classic RK4 step matrix [[p, q], [-conj(q), conj(p)]].

    With a = -i (alpha/2) s at the start (s0), middle (s1) and end (s2)
    of a step of length h, and ``constants`` of z = alpha h / 2 (:func:`_rk4_constants`):

        p = 1 - (h^2/6) (a1 a0* + |a1|^2 + a2 a1*) + (h^4/24) |a1|^2 a2 a0*
        q = (h/6) (a0 + 4 a1 + a2) - (h^3/12) |a1|^2 (a0 + a2)

    ``work``, five complex and two float arrays of the pairs' shape, takes
    every intermediate and (p, q), which are then views of it; without it
    each is a new array. Either way the products run in the same order
    with the same operands, and none writes over one of its operands: numpy
    rounds a complex product of one element computed in place differently.
    """
    z2_6, z4_24, iz_6, z2_2 = constants
    a, b, c, p, q, mid2, r = (None,) * 7 if work is None else work
    mid2 = np.multiply(s1.real, s1.real, out=mid2)
    mid2 = np.add(mid2, np.multiply(s1.imag, s1.imag, out=r), out=mid2)
    s0c = np.conjugate(s0, out=a)
    b = np.add(np.multiply(s1, s0c, out=b), mid2, out=b)
    b = np.add(b, np.multiply(s2, np.conjugate(s1, out=c), out=p), out=b)
    p = np.subtract(1.0, np.multiply(z2_6, b, out=c), out=p)
    b = np.multiply(mid2, np.multiply(s2, s0c, out=c), out=b)
    p = np.add(p, np.multiply(z4_24, b, out=c), out=p)
    ends = np.add(s0, s2, out=a)
    b = np.add(ends, np.multiply(4.0, s1, out=b), out=b)
    c = np.multiply(np.multiply(z2_2, mid2, out=r), ends, out=c)
    q = np.multiply(iz_6, np.subtract(b, c, out=b), out=q)
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

    Only (u, v) of each sweep is carried, and the coarse pair is copied
    out of the sweep's buffers before the finer sweep reuses them. The
    disagreement max(|u_f - u_c|, |v_f - v_c|) is that of all four
    entries, bit for bit: -conj(v) and conj(u) differ by negations and
    conjugations, which are exact and keep |z|. An accepted pair's four
    rows (u, v, -conj v, conj u) are written to ``out`` once.
    """
    idx = np.arange(len(batch.t0))
    m = m0
    if 2 * m > 2**24:
        n_bad, t_bad = pair_info(slots[0])
        raise IntegrationFailureError(
            n_bad, t_bad, "step count exceeded 2^24 per output segment"
        )
    u_c, v_c = (x.copy() for x in batch.sweep(m))
    while True:
        m *= 2
        if m > 2**24:
            n_bad, t_bad = pair_info(slots[idx[0]])
            raise IntegrationFailureError(
                n_bad, t_bad, "step count exceeded 2^24 per output segment"
            )
        sub = batch.take(idx) if len(idx) < len(batch.t0) else batch
        u_f, v_f = sub.sweep(m)
        err = np.maximum(np.abs(u_f - u_c), np.abs(v_f - v_c))
        err *= sub.weight
        done = err <= tol
        if done.any():
            u, v, at = u_f[done], v_f[done], slots[idx[done]]
            out[0, at], out[1, at], out[2, at], out[3, at] = u, v, -np.conj(v), np.conj(u)
        if done.all():
            return
        idx = idx[~done]
        u_c, v_c = u_f[~done], v_f[~done]


def _segment_groups(dt, counter_rotating):
    """(group of each segment, first segment of each group), ids by first occurrence:
    rotating-wave segments of one length share one, the others have one each."""
    if counter_rotating:
        return np.arange(len(dt)), np.arange(len(dt))
    _, lead, inverse = np.unique(dt, return_index=True, return_inverse=True)
    order = np.argsort(lead)
    return np.argsort(order)[inverse], lead[order]


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
    block_rows: int = _BLOCK_ROWS,
):
    """The RK4 reference evolution, ``block_rows`` grid rows at a time.

    Yields ``(excited, ground)`` for each block of rows, new arrays of
    shape (block rows, n_cut+1) laid out as :class:`AmplitudeSink`'s, so
    a caller can compare them with the closed form block by block; a
    caller whose plan runs longer blocks passes its
    :meth:`ClosedFormPlan.block_rows`. The rows do not depend on the block
    length. ``t_grid`` is an array or a :class:`UniformGrid`; it starts at
    0 and ascends strictly, ``tol`` is finite and > 0 and ``block_rows`` a
    positive integer: the call itself raises InvalidParameterError
    otherwise, before any block is drawn.
    See :func:`evolve_ode_oracle` for the integration.

    The slow variables X, Y of each integrated doublet are chained through
    each output segment's propagator. Within a block, rotating-wave
    segments of one length share one integration, in order of first
    occurrence, and each applies its own phase exp(-i w (2 t0 + dt)/2) to
    v; with the counter-rotating terms every segment is integrated.
    Integration, phasing and chaining take at most ``_MAX_PAIRS``
    (segment, doublet) pairs at once, or one segment's doublets where
    those are more, so the memory held is one block of rows, one batch
    and the propagators of the lengths still to come in the block. A
    batch's propagators and the counter-rotating step loop's buffers are
    made once per run, for its largest batch, and reused by every batch;
    only propagators a later batch still needs are copied out of them.
    """
    grid = _oracle_grid(t_grid)
    # two refinements never agree within a NaN or a tol <= 0
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol!r}")
    if isinstance(block_rows, bool) or not isinstance(block_rows, int) or block_rows < 1:
        raise InvalidParameterError(f"block_rows must be a positive integer, got {block_rows!r}")
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
    d_live = len(live)
    seg_block = max(1, _MAX_PAIRS // max(d_live, 1))
    cols = _as_slice(active)
    r1 = -1j * co.R1[active]
    r2 = -1j * co.R2[active]

    def integrate(t0, dt, t_end, propagators, steps):
        """Propagators (u, v, -conj v, conj u) over [t0, t0 + dt]; failures name t_end.

        They are written to the head of ``propagators``, which the next
        call overwrites; ``steps`` are the step loop's buffers.
        """
        n = len(dt)
        batch = _PairBatch(
            np.repeat(t0, d_live), np.repeat(dt, d_live), np.tile(alpha, n), np.tile(Rn, n),
            np.tile(weight, n), mu, include_counter_rotating, steps=steps,
        )
        m0p = np.maximum(np.ceil(batch.dt * np.tile(w, n) / 0.75).astype(int), 2)
        m0p = 2 ** np.ceil(np.log2(m0p)).astype(int)
        out = propagators[:, : n * d_live]

        def pair_info(slot):
            g, di = divmod(int(slot), d_live)
            return int(active[live[di]]), float(t_end[g])

        for m_init in np.unique(m0p):
            slots = np.nonzero(m0p == m_init)[0]
            _refine_bucket(batch.take(slots), int(m_init), tol, out, slots, pair_info)
        return out.reshape(4, n, d_live)

    def walk():
        # buffers of the run's largest batch: a chunk's new segment lengths
        # are at most seg_block, and at most a block's segments
        pairs = d_live * min(seg_block, block_rows, len(grid) - 1)
        propagators = np.empty((4, pairs), dtype=complex)
        steps = _step_buffers(pairs) if include_counter_rotating else None
        X = c0[active[live]].astype(complex)
        Y = np.zeros_like(X)
        for b0 in range(0, len(grid), block_rows):
            b1 = min(b0 + block_rows, len(grid))
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
            group, lead = _segment_groups(dt, include_counter_rotating)
            need = np.minimum.accumulate(group[::-1])[::-1]  # no later segment needs a lower id
            held, lo = np.empty((4, 0, d_live), dtype=complex), 0  # groups lo, lo + 1, ..
            for s0 in range(0, len(dt), seg_block):
                s1 = min(s0 + seg_block, len(dt))
                rows = slice(first - b0 + s0, first - b0 + s1)
                if d_live:
                    held, lo = held[:, need[s0] - lo :], need[s0]
                    if not held.size:  # so that no view keeps old propagators alive
                        held = held.copy()
                    # the first segments of the groups met first here
                    new = lead[lo + held.shape[1] : group[s0:s1].max() + 1]
                    if len(new):
                        if np.may_share_memory(held, propagators):  # the next call overwrites
                            held = held.copy()
                        # rotating-wave groups integrate [-dt/2, dt/2], whose start phase is 1
                        t0 = tb[new] if include_counter_rotating else -0.5 * dt[new]
                        fresh = integrate(t0, dt[new], tb[new + 1], propagators, steps)
                        held = np.concatenate([held, fresh], axis=1) if held.shape[1] else fresh
                    u, v, v_c, u_c = held[:, _as_slice(group[s0:s1] - lo)]
                    if not include_counter_rotating:
                        start = 2.0 * tb[s0:s1, None] + dt[s0:s1, None]
                        v = np.multiply(v, np.exp(-0.5j * ((mu - Rn) * start)))
                        v_c = -np.conj(v)
                    for i in range(s1 - s0):
                        X, Y = u[i] * X + v[i] * Y, v_c[i] * X + u_c[i] * Y
                        excited[rows.start + i, live_cols] = X
                        ground[rows.start + i, live_cols] = Y
                    del u, v, v_c, u_c  # before the next chunk integrates
                # reattach the diagonal phases
                t1 = tb[s0 + 1 : s1 + 1, None]
                excited[rows, cols] *= np.exp(r1 * t1)
                ground[rows, cols] *= np.exp(r2 * t1)
            yield excited, ground

    return walk()


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
    binary powering of one step matrix, once per segment length and block
    of rows; the counter-rotating form applies its m steps one at a time,
    for every segment, so ``include_counter_rotating`` costs time
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
