"""The closed form of the rotating-wave amplitude equations, evaluated on a time grid.

:class:`ClosedFormPlan` evaluates it block by block into a sink
(:class:`AmplitudeSink`, :class:`DensitySink`), :func:`closed_form_series`
returns a whole grid's amplitudes, and :mod:`djcm.oracle` checks them.
Everything here is a pure function of immutable inputs; reductions run in
a fixed order so results do not depend on how callers parallelize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, PhysicsValidationError
from .field_states import PhotonDistribution
from .model import (
    _BLOCK_ROWS,
    CoefficientTable,
    ModelParams,
    UniformGrid,
    _as_slice,
    _resolve_initial,
    _sin_over_omega,
    _stack_blocks,
)
from .nonlinearity import Nonlinearity
# the oracle's public names, for callers that also run against checkouts without djcm.oracle
from .oracle import AmplitudeState, evolve_ode_oracle, max_amplitude_deviation, ode_oracle_blocks

# Shortest grid whose phases come from fine tables of _FINE rows; a
# shorter grid pays for no table.
_TABLE_MIN_SAMPLES = 16
# Rows of the fine phase tables of a uniform grid, shared by a whole run:
# grid sample j is coarse[j // _FINE] * fine[j % _FINE], with the coarse
# rows evaluated per block. Blocks therefore start at multiples of _FINE.
# Any other grid has groups of one row, each time its own anchor.
_FINE = 16
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


def _phase_checked(argument: float) -> float:
    """``argument``, a run's largest phase argument |w| t_end, unless it reaches 2^52.

    From there PhysicsValidationError ("phase overflow"): cos, sin and
    exp of such arguments may still be finite, but meaningless.
    """
    if not argument < _PHASE_LIMIT:
        raise PhysicsValidationError(
            f"phase overflow: the largest phase argument |w| t_end is {argument:.6g} "
            ">= 2^52, where the rounding of the phases reaches 1 rad"
        )
    return argument


def _finite_rates(*rates) -> None:
    """PhysicsValidationError ("phase overflow") naming a rate of ``rates`` that is not finite.

    Each is (name, levels, values), values[i] the rate at ascending level
    n = levels[i]; the message names the lowest such n, and the first rate there.
    """
    found = []
    for name, levels, values in rates:
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            found.append((int(levels[bad[0]]), name, values[bad[0]]))
    if found:
        n, name, value = min(found, key=lambda item: item[0])
        raise PhysicsValidationError(
            f"phase overflow: {name} is {value} at level n = {n}, "
            "the first level where it is not finite"
        )


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
    """The closed form on a grid, evaluated a block of samples at a time into a sink.

    ``times`` is an array or a :class:`UniformGrid`, whose blocks are made
    as they are evaluated. ``plan.blocks(sink)`` evaluates each block
    into the sink and yields the block's first sample and its value: a
    :class:`DensitySink`'s is the block's rho_ee, rho_gg and rho_eg,
    reduced without writing any amplitude, an :class:`AmplitudeSink`'s
    the block's (block length, n_cut+1) amplitudes. Each sink is a pass
    of its own over the grid. The plan also reports ``active_doublets``,
    ``max_phase_argument``, ``per_cell_doublets`` and
    ``separable_rounding_bound``.

    Block length. A block has ``block_rows(sink)`` samples: 256
    (_BLOCK_ROWS) times as many as keep the sink's widest per-row array
    (its ``width``) within the 256 x 128 cells of one doublet chunk, at
    most 768 (_MAX_BLOCK_ROWS). Wide plans, and an amplitude sink of more
    than 64 columns (n_cut >= 64), keep 256 rows; a density sink of a
    narrow plan, such as the coherent presets' (30-60 per-cell
    doublets), runs 512 or 768, so the numpy calls of each block
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
    sink takes bound ``scratch_shape(sink)``, the (rows, width) of the
    work buffers that each call of :meth:`blocks` makes for itself. Each
    block then evaluates only its coarse rows, anchored at the grid's own
    times t_{group J}, and each chunk's rotation stage (:meth:`blocks`).
    The plan and its sinks hold only these per-run tables, so threads may
    share them.

    ``group``, the rows per coarse anchor, comes from the grid: _FINE on a
    uniform grid of at least _TABLE_MIN_SAMPLES samples (``step`` is then
    its step, the fine tables' spacing, and ``r_step`` the column of fine
    offsets r step), 1 on any other grid (``step`` is None), where every
    time is its own anchor.

    A grid whose largest phase argument |w| t_end reaches 2^52 is refused
    with PhysicsValidationError ("phase overflow") before any block is
    evaluated: there eps |w| t_end >= 1 rad, so no digit of the phase is
    right. The rates w are the very arrays the per-cell kernel evaluates:
    omega, ground_rate, mu and pair_rate; a rate that is not finite is
    refused the same way, naming the rate and its first level n. A block
    that is not finite in the sink raises PhysicsValidationError too
    (:meth:`blocks`).
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
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: refused below
            ground_rate = co.phi[levels] - 0.5 * mu
            pair_rate = co.phi[levels[hi]] - co.phi[levels[lo]] + mu
            _finite_rates(
                ("Omega_n", levels, omega),
                ("phi_n - mu/2", levels, ground_rate),
                ("the pair rate phi_{n+k} - phi_n + mu", levels[lo], pair_rate),
            )
            # the largest phase argument the kernel evaluates: Omega t, the
            # ground phase (phi - mu/2) t, the shift mu t and the pair phase
            # (phi_{n+k} - phi_n + mu) t, at the last time
            rates = np.abs(np.concatenate((omega, ground_rate, [mu], pair_rate)))
            self.max_phase_argument = _phase_checked(float(np.max(rates) * t_max))
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

    def block_rows(self, sink) -> int:
        """Samples per block for ``sink``: as many whole _BLOCK_ROWS as fit its widest row.

        The largest multiple of _BLOCK_ROWS whose rows times the sink's
        ``width`` stay within _BLOCK_CELLS, at least _BLOCK_ROWS and at
        most _MAX_BLOCK_ROWS.
        """
        fits = _BLOCK_CELLS // max(sink.width, 1) // _BLOCK_ROWS
        return _BLOCK_ROWS * min(max(fits, 1), _MAX_BLOCK_ROWS // _BLOCK_ROWS)

    def scratch_shape(self, sink) -> tuple:
        """(rows, width) of the work buffers of one call evaluating blocks into ``sink``.

        The rows of a block padded to whole groups, and the widest span of
        the chunks the sink takes.
        """
        rows = min(self.block_rows(sink), len(self.times))
        chunks = self.chunks[: sink.chunk_count]
        width = max((c.span.stop - c.span.start for c in chunks), default=0)
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

    def blocks(self, sink):
        """Evaluate the grid block by block into ``sink``; yield (start, value).

        Each pair holds the block's first sample and the block's value in
        the sink, new arrays every block. A block with a value that is not
        finite raises PhysicsValidationError, which names the block's
        first time and the largest phase argument.

        The blocks are evaluated one after another on the calling thread,
        into one set of work buffers (:class:`_Scratch`) made for this call.
        """
        rows = self.block_rows(sink)
        work = _Scratch(*self.scratch_shape(sink))
        for start in range(0, len(self.times), rows):
            yield start, self._evaluate(start, rows, sink, work)

    def _evaluate(self, start: int, rows: int, sink, work: _Scratch):
        """The value of the block of ``rows`` at ``start`` in ``sink``, evaluated in ``work``.

        The sink takes the rotation stage of the plan's first
        ``sink.chunk_count`` chunks, and then finishes the block (a density
        sink adds its separable share).
        """
        n = min(rows, len(self.times) - start)
        t = self._table_times(start, n)
        block = sink.start(n)
        # a value that overflows shows as one that is not finite, reported
        # once below instead of as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk in self.chunks[: sink.chunk_count]:
                envelope, s = self.rotation(chunk, t, work)
                sink.take(block, chunk, t, envelope, s, work)
            sink.finish(block, t)
            # a NaN or an infinity anywhere in the sink's arrays reaches their sum
            finite = np.isfinite(sum(np.sum(a) for a in block))
        if not finite:
            raise PhysicsValidationError(
                f"the closed form is not finite in the block starting at t = {t[0, 0]:.6g}; "
                f"the largest phase argument |w| t_end is {self.max_phase_argument:.6g}"
            )
        return block

    def _table_times(self, start: int, n: int) -> np.ndarray:
        """Column of the block's grid times, padded on the grid to whole groups."""
        t = self.times[start : start + n]
        pad = (-n) % self.group
        if pad:
            t = np.concatenate((t, t[-1] + self.step * np.arange(1, pad + 1)))
        return t[:, None]


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
