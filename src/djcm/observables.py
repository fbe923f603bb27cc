"""Atomic inversion, reduced atomic density matrix and entropy squeezing.

The reduced 2x2 atomic density matrix follows from tracing the joint
state over the field. The off-diagonal element pairs equal total photon
number: rho_eg = sum_n c_{n+k,e} conj(c_{n+k,g}), i.e. the excited
amplitude at Fock level n+k against the ground amplitude whose field
level is also n+k. Pairing c_{n,e} with c_{n+k,g} instead would be
off-diagonal in the field trace and is wrong.

Information entropies of the three Pauli components use the natural
logarithm, so the squeezing factors E_alpha = exp(H_alpha) -
2/sqrt(exp(H_z)) compare against bounds in nats; squeezing in
sigma_alpha means E_alpha < 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError
from .field_states import PhotonDistribution
from .model import CoefficientTable, ModelParams, _sin_over_omega
from .nonlinearity import Nonlinearity

PROB_SLACK = 1e-9


@dataclass(frozen=True)
class ReducedAtomDensity:
    rho_ee: float
    rho_gg: float
    rho_eg: complex


@dataclass(frozen=True)
class ObservableRecord:
    time: float
    W: float
    rho: ReducedAtomDensity
    H_x: float
    H_y: float
    H_z: float
    dH_x: float
    dH_y: float
    dH_z: float
    E_x: float
    E_y: float
    norm: float


CSV_COLUMNS = (
    "t",
    "W",
    "rho_ee",
    "rho_gg",
    "re_rho_eg",
    "im_rho_eg",
    "H_x",
    "H_y",
    "H_z",
    "E_x",
    "E_y",
    "norm",
)
# the emitted columns, then dH_alpha = exp(H_alpha) for the entropic bound
SERIES_COLUMNS = CSV_COLUMNS + ("dH_x", "dH_y", "dH_z")


class ObservableSeries:
    """Observables on a time grid, one read-only float64 array per quantity.

    ``series["W"]`` is a column (names in :data:`SERIES_COLUMNS`);
    ``series[i]`` and iteration give :class:`ObservableRecord` row views,
    which are built only when asked for. ``len(series)`` is the number of
    samples.
    """

    __slots__ = ("columns",)

    def __init__(self, columns):
        arrays = {}
        for name in SERIES_COLUMNS:
            array = np.asarray(columns[name], dtype=float).view()
            array.flags.writeable = False  # a view: the caller's array stays writable
            arrays[name] = array
        if len({a.shape for a in arrays.values()}) != 1 or arrays["t"].ndim != 1:
            raise ValueError("series columns must be 1-D arrays of one length")
        self.columns = arrays

    @classmethod
    def concatenate(cls, parts) -> "ObservableSeries":
        """One series from consecutive blocks, in order: a sequence or any iterable of them."""
        parts = list(parts)  # each column walks the blocks again
        return cls(
            {name: np.concatenate([p.columns[name] for p in parts]) for name in SERIES_COLUMNS}
        )

    def __len__(self) -> int:
        return len(self.columns["t"])

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.columns[key]
        i = range(len(self))[operator.index(key)]
        return next(self._rows(slice(i, i + 1)))

    def __iter__(self):
        return self._rows(slice(None))

    def _rows(self, index: slice):
        c = {name: col[index].tolist() for name, col in self.columns.items()}
        rho = map(
            ReducedAtomDensity,
            c["rho_ee"],
            c["rho_gg"],
            map(complex, c["re_rho_eg"], c["im_rho_eg"]),
        )
        # positional, in the field order of ObservableRecord
        rest = ("H_x", "H_y", "H_z", "dH_x", "dH_y", "dH_z", "E_x", "E_y", "norm")
        return map(ObservableRecord, c["t"], c["W"], rho, *(c[name] for name in rest))


def atomic_inversion_closed(
    params: ModelParams, f: Nonlinearity, dist: PhotonDistribution, t: float
) -> float:
    """Inversion from the populations directly, bypassing amplitudes.

    W(t) = sum_n rho_nn(0) [cos(2 Omega_n t) + (R_n - mu)^2 sin^2(Omega_n t)
    / (2 Omega_n^2)]; the degenerate Omega_n -> 0 doublet enters through
    the stable sin(Omega t)/Omega limit.
    """
    co = CoefficientTable(params, f, dist.n_cut)
    s = _sin_over_omega(co.Omega, float(t))
    bracket = np.cos(2.0 * co.Omega * t) + 0.5 * (co.Rn - params.mu) ** 2 * s * s
    return float(np.dot(dist.probabilities, bracket))


def _density_arrays(excited: np.ndarray, ground: np.ndarray, k: int):
    """rho_ee, rho_gg, rho_eg for (T, N+1) amplitude arrays."""
    rho_ee = np.vecdot(excited, excited).real
    rho_gg = np.vecdot(ground, ground).real
    # excited amplitude at level n+k against ground amplitude at level n+k
    rho_eg = np.vecdot(ground[..., : excited.shape[-1] - k], excited[..., k:])
    return rho_ee, rho_gg, rho_eg


def _clamped(p, what: str):
    p = np.asarray(p, dtype=float)
    # NaN fails both comparisons, so it is caught with the out-of-range values
    ok = (p >= -PROB_SLACK) & (p <= 1.0 + PROB_SLACK)
    if not np.all(ok):
        raise NumericalConsistencyError(
            f"{what} outside [0,1] beyond roundoff slack {PROB_SLACK}, "
            f"or NaN: {p[~ok][:4]!r}"
        )
    return np.clip(p, 0.0, 1.0)


def _h2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Two-outcome Shannon entropy with the 0 ln 0 = 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0) + np.where(
            q > 0.0, q * np.log(q), 0.0
        )
    return -terms


def _entropy_arrays(rho_ee, rho_gg, rho_eg):
    re_ge = np.real(np.conj(rho_eg))
    im_ge = np.imag(np.conj(rho_eg))
    px = _clamped(0.5 + re_ge, "P(sigma_x)")
    py = _clamped(0.5 + im_ge, "P(sigma_y)")
    pe = _clamped(rho_ee, "rho_ee")
    pg = _clamped(rho_gg, "rho_gg")
    H_x = _h2(px, 1.0 - px)
    H_y = _h2(py, 1.0 - py)
    H_z = _h2(pe, pg)
    return H_x, H_y, H_z


def records_from_series(
    times: np.ndarray,
    excited: np.ndarray,
    ground: np.ndarray,
    k: int,
    coherence_phase: float = 0.0,
) -> ObservableSeries:
    """Observable series for a block of amplitude series.

    ``coherence_phase`` reattaches the free-evolution phase to rho_eg as
    exp(-i * coherence_phase * t); the default 0 keeps the interaction
    picture in which the closed form is written.
    """
    rho_ee, rho_gg, rho_eg = _density_arrays(excited, ground, k)
    return series_from_density(times, rho_ee, rho_gg, rho_eg, coherence_phase)


def series_from_density(
    times: np.ndarray,
    rho_ee: np.ndarray,
    rho_gg: np.ndarray,
    rho_eg: np.ndarray,
    coherence_phase: float = 0.0,
) -> ObservableSeries:
    """Observable series for a block of reduced densities, one value per time.

    The entropies and columns that :func:`records_from_series` builds from
    amplitudes, here from rho_ee, rho_gg and rho_eg directly (as the
    closed form's density sink reduces them); ``coherence_phase`` as there.
    """
    if coherence_phase != 0.0:
        rho_eg = rho_eg * np.exp(-1j * coherence_phase * times)
    H_x, H_y, H_z = _entropy_arrays(rho_ee, rho_gg, rho_eg)
    dH_x, dH_y, dH_z = np.exp(H_x), np.exp(H_y), np.exp(H_z)
    bound = 2.0 / np.sqrt(dH_z)
    return ObservableSeries(
        {
            "t": times,
            "W": rho_ee - rho_gg,
            "rho_ee": rho_ee,
            "rho_gg": rho_gg,
            "re_rho_eg": rho_eg.real,
            "im_rho_eg": rho_eg.imag,
            "H_x": H_x,
            "H_y": H_y,
            "H_z": H_z,
            "E_x": dH_x - bound,
            "E_y": dH_y - bound,
            "norm": rho_ee + rho_gg,
            "dH_x": dH_x,
            "dH_y": dH_y,
            "dH_z": dH_z,
        }
    )
