"""The RK4 reference evolution, which checks the closed form and shares no code with it.

:func:`evolve_ode_oracle` (block by block: :func:`ode_oracle_blocks`)
integrates the amplitude equations (classic RK4 with per-doublet step
halving), optionally retaining the counter-rotating terms, and maps the
slow variables back through X = c_{n,e} e^{i R1 t}, Y = c_{n+k,g} e^{i R2 t}
so its output is directly comparable with the closed form. It imports
nothing from :mod:`djcm.dynamics` (``tests/test_modules.py`` checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationFailureError, InvalidParameterError
from .field_states import PhotonDistribution
from .model import (
    _BLOCK_ROWS,
    CoefficientTable,
    ModelParams,
    UniformGrid,
    _as_slice,
    _resolve_initial,
    _stack_blocks,
)
from .nonlinearity import Nonlinearity


@dataclass(frozen=True, eq=False)
class AmplitudeState:
    """Doublet amplitudes at one time: excited[n] = c_{n,e}, ground[n] = c_{n+k,g}."""

    time: float
    excited: np.ndarray
    ground: np.ndarray
    k: int


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

    def sweep(self, m):
        """(u, v): RK4-integrate the propagator over each pair's segment in m steps.

        ``m`` is one step count for every pair, or one per pair in
        ascending order. The coefficient matrix is [[0, a], [-conj(a), 0]]
        with a = -i (alpha/2) s(t), where s = e = exp(-i (mu - Rn) t), plus
        c = exp(i (mu + Rn) t) with the counter-rotating terms. With a0, a1
        and a2 the coupling at the start, middle and end of a step, one
        classic RK4 step of this linear system, its four stages multiplied
        out, is the matrix [[p, q], [-conj(q), conj(p)]] (:func:`_rk4_step`),
        so the propagator keeps the form [[u, v], [-conj(v), conj(u)]] and
        only (u, v) is carried and returned. With ``steps`` and one step
        count they are views of those buffers, which the batch's next sweep
        overwrites.

        Rotating-wave form: with w = mu - Rn and D(t) = diag(exp(-i w t/2),
        exp(i w t/2)), a(t0 + s) is a(s) conjugated by D(t0), so the step
        at t_j is D(t_j) S0 D(t_j)^-1 with S0 the step at t = 0, and the m
        steps multiply out to D(t0 + dt) T^m D(t0)^-1 with T = D(-h) S0.
        T^m is taken by binary powering, about 2 log2(m) array products
        instead of m steps, in one powering for the whole batch
        (:meth:`_power_sweep`).

        Counter-rotating form: the two rotation frequencies share no
        frame, so the m steps are applied one by one (:meth:`_step_sweep`),
        in one step loop per run of pairs with equal step counts.

        Either way a pair's digits do not depend on the other pairs of the
        batch or on their step counts.
        """
        if not self.counter_rotating:
            return self._power_sweep(m)
        runs = _equal_runs(np.broadcast_to(m, self.t0.shape))
        if len(runs) == 1:
            return self._step_sweep(runs[0][0])
        u, v = np.empty((2, len(self.t0)), dtype=complex)
        for steps, lo, hi in runs:
            u[lo:hi], v[lo:hi] = self.take(slice(lo, hi))._step_sweep(steps)
        return u, v

    def _power_sweep(self, m):
        """(u, v) of the rotating-wave propagator as D(t0 + dt) T^m D(t0)^-1.

        Round j of the powering multiplies T^(2^j) into the pairs whose
        digit j of m is 1, then squares it for the pairs with digits above
        j: with m ascending those are a suffix of the batch, which shrinks
        as the pairs' digits run out. Each pair gets the products, in the
        order and with the operands, of a powering of its own m.
        """
        m = np.broadcast_to(m, self.dt.shape)
        h = self.dt / m
        w = self.mu - self.Rn
        half = np.exp(-0.5j * (w * h))  # s at the step's midpoint, t = h/2
        p, q = _rk4_step(_rk4_constants(0.5 * self.alpha * h), 1.0, half, half * half)
        # T = D(-h) S0 = [[a, b], [-conj(b), conj(a)]]; products of this
        # form keep it, so only (a, b) is carried while squaring. a and b
        # hold the pairs from lo on.
        back = np.conj(half)
        a, b = back * p, back * q
        big_a, big_b = np.ones_like(a), np.zeros_like(b)
        lo = 0
        for odd, rest in _binary_digits(_equal_runs(m)):
            if odd is not None:
                here = slice(odd.start - lo, odd.stop - lo) if isinstance(odd, slice) else odd - lo
                a_o, b_o, x, y = a[here], b[here], big_a[odd], big_b[odd]
                big_a[odd], big_b[odd] = (
                    np.multiply(x, a_o) - np.multiply(y, np.conj(b_o)),
                    np.multiply(x, b_o) + np.multiply(y, np.conj(a_o)),
                )
            a, b, lo = a[rest - lo :], b[rest - lo :], rest
            if len(a):
                a, b = a * a - (b.real * b.real + b.imag * b.imag), (2.0 * a.real) * b
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


def _equal_runs(m):
    """(value, first, end) of each run of equal entries of the integer array m."""
    if not len(m):
        return []
    cuts = (np.flatnonzero(m[1:] != m[:-1]) + 1).tolist()
    firsts = [0, *cuts]
    return list(zip(m[firsts].tolist(), firsts, [*cuts, len(m)]))


def _binary_digits(runs):
    """(odd, rest) for each binary digit j of ascending step counts, lowest first.

    ``runs`` are the counts' :func:`_equal_runs`. ``odd`` are the pairs
    whose digit j is 1, as a slice, an index array or None, and ``rest``
    is the first pair with a digit above j.
    """
    end = runs[-1][2] if runs else 0
    for j in range(runs[-1][0].bit_length() if runs else 0):
        spans = []
        for value, first, stop in runs:
            if value >> j & 1:
                if spans and spans[-1][1] == first:
                    spans[-1] = (spans[-1][0], stop)
                else:
                    spans.append((first, stop))
        if not spans:
            odd = None
        elif len(spans) == 1:
            odd = slice(*spans[0])
        else:
            odd = np.concatenate([np.arange(first, stop) for first, stop in spans])
        yield odd, next((first for value, first, _ in runs if value >> (j + 1)), end)


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


def _refine(batch: _PairBatch, m0, tol: float, out, pair_info):
    """Halve steps until two refinements agree below tol for every pair.

    ``m0`` holds each pair's first step count. Agreement is measured on
    the doublet's amplitudes, i.e. the propagator disagreement scaled by
    the amplitude entering the doublet, matching a direct state
    integration. The finer sweep is accepted; for a 4th-order method its
    true error is about 1/15 of the observed disagreement (Richardson), so
    accumulated error over the output grid stays well under segments * tol.

    The pairs are put in order of first step count, ties by position, and
    every refinement level is one :meth:`_PairBatch.sweep` of the pairs
    still open, each at its own step count: by matrix powers in the
    rotating-wave case (cost ~ log2 m per sweep), step by step with the
    counter-rotating terms (cost ~ m). A pair's steps and digits are those
    of a refinement of it alone. A pair whose step count would pass 2^24
    fails, and so do the pairs after it in that order, whose counts are no
    smaller. The error names the first failing pair in that order, the one
    that refining each first step count in turn, lowest first, would
    name, once the pairs before it are done.

    Only (u, v) of each sweep is carried, and the coarse pair is copied
    out of the sweep's buffers before the finer sweep reuses them. The
    disagreement max(|u_f - u_c|, |v_f - v_c|) is that of all four
    entries, bit for bit: -conj(v) and conj(u) differ by negations and
    conjugations, which are exact and keep |z|. An accepted pair's four
    rows (u, v, -conj v, conj u) are written to column i of ``out``, for
    the pair i of ``batch``, once.
    """
    order = np.argsort(m0, kind="stable")
    m = m0[order]  # the open pairs' coarse step counts, ascending
    failed = None  # the first pair, in this order, whose steps would pass 2^24
    u_c = v_c = None
    while True:
        # the finer sweep doubles m: a pair whose steps would pass 2^24
        # fails, and so do the pairs after it, whose counts are no smaller
        keep = int(np.searchsorted(m, 2**23, side="right"))
        if keep < len(m):
            failed = order[keep]
        order, m = order[:keep], m[:keep]
        if not keep:
            break
        sub = batch.take(order)
        if u_c is None:
            u_c, v_c = (x.copy() for x in sub.sweep(m))
        u_c, v_c = u_c[:keep], v_c[:keep]
        m = 2 * m
        u_f, v_f = sub.sweep(m)
        err = np.maximum(np.abs(u_f - u_c), np.abs(v_f - v_c))
        err *= sub.weight
        done = err <= tol
        if done.any():
            u, v, at = u_f[done], v_f[done], order[done]
            out[0, at], out[1, at], out[2, at], out[3, at] = u, v, -np.conj(v), np.conj(u)
        still = ~done
        order, m, u_c, v_c = order[still], m[still], u_f[still], v_f[still]
    if failed is not None:
        n_bad, t_bad = pair_info(failed)
        raise IntegrationFailureError(n_bad, t_bad, "step count exceeded 2^24 per output segment")


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
    those are more. When the segments being chained meet a length not yet
    integrated, the block's next lengths not yet integrated are integrated
    together, as many as a batch holds, in one :func:`_refine`. So the
    memory held is one block of rows and at most two batches of
    propagators, the one being integrated and the earlier lengths the
    block still uses, unless a length recurs after more than a batch of
    newer lengths: then every length from it on is held. A batch's
    propagators and the counter-rotating step loop's buffers are made
    once per run, for its largest batch, and reused by every batch; only
    propagators a later batch still needs are copied out of them.
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

        _refine(batch, m0p, tol, out, pair_info)
        return out.reshape(4, n, d_live)

    def walk():
        # a batch's segment lengths: a chunk meets at most seg_block new
        # ones, and at most a block's segments; the buffers hold one batch
        lengths = min(seg_block, block_rows, len(grid) - 1)
        pairs = d_live * lengths
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
                    ahead = lo + held.shape[1]  # the first group not integrated
                    if group[s0:s1].max() >= ahead:
                        # the first segments of this and the next groups, a batch
                        new = lead[ahead : ahead + lengths]
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
    of rows, and a refinement level of a batch of lengths and doublets is
    one powering, each pair at its own step count; the counter-rotating
    form applies its m steps one at a time, for every segment, in one step
    loop per distinct step count, so ``include_counter_rotating`` costs
    time proportional to the step count (see :meth:`_PairBatch.sweep`).

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
