"""The Fourier-Hermite grid, the spectral state, its norms, band-limited
interpolation in frequency, and the checkpoint file.

Conventions (fixed once, used everywhere)
-----------------------------------------
Fourier transform in the free direction x1:  F(g)(xi) = integral e^(-i x xi) g dx,
inverse carries 1/(2 pi).  The x1 box is [-L/2, L/2) with n equispaced points and
frequencies xi_k = 2 pi k / L, k = -n/2 .. n/2 - 1, stored in FFT order.
The trapped direction x2 is carried by the normalized phi_p; the steppers
sample it at the cubic nodes of the basis.

With this convention ||f||^2_{L2(R^2)} = (2 pi)^(-1) sum_p ||f~_p||^2_{L2(dxi)};
the composite norms include the (2 pi)^(-1/2) physical normalization.

The <x1>^kappa weights are realized as kappa frequency derivatives taken by
centered finite differences on the periodic frequency grid; the tests check
them against the physical-space multiplication route.
"""

from __future__ import annotations

import io
import json
import math
import os
import zipfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InterpolationRangeError
from .hermite import HermiteBasis


@dataclass(frozen=True)
class Grid:
    """Discretization: periodic x1 box and shared Hermite basis for x2."""

    n_x1: int
    length_x1: float
    basis: HermiteBasis

    def __post_init__(self):
        if self.n_x1 < 16 or (self.n_x1 & (self.n_x1 - 1)) != 0:
            raise ValueError("n_x1 must be a power of two >= 16")
        if self.length_x1 <= 0:
            raise ValueError("length_x1 must be positive")

    @property
    def dx(self) -> float:
        return self.length_x1 / self.n_x1

    @property
    def dxi(self) -> float:
        return 2.0 * math.pi / self.length_x1

    @property
    def x1(self) -> np.ndarray:
        return -0.5 * self.length_x1 + self.dx * np.arange(self.n_x1)

    @property
    def xi(self) -> np.ndarray:
        """Frequencies in FFT storage order."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_x1, d=self.dx)

    @property
    def xi_max(self) -> float:
        return math.pi * self.n_x1 / self.length_x1

    def in_window(self, xi) -> np.ndarray:
        """Whether each frequency lies in [-xi_max, xi_max], up to rounding."""
        return np.abs(xi) <= self.xi_max * (1.0 + 1e-12)

    @property
    def alt(self) -> np.ndarray:
        """(-1)^k phases translating the FFT to the centered-box transform."""
        k = np.arange(self.n_x1)
        return np.where(k % 2 == 0, 1.0, -1.0)


@dataclass
class SpectralState:
    """Profile coefficients f~_{+,p}(xi_k), the "+" traveling component only.

    The solution u is real, so the "-" component is paired with it,
    f~_{-,p}(xi) = conj(f~_{+,p}(-xi)); ``minus_component`` derives it.
    """

    time: float
    coeffs: np.ndarray  # complex, shape (P, n_x1)

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "SpectralState":
        return SpectralState(self.time, self.coeffs.copy())


def minus_component(plus: np.ndarray) -> np.ndarray:
    """f~_{-,p}(xi) = conj(f~_{+,p}(-xi)) on the FFT-ordered frequency axis."""
    return np.conj(plus[..., _reflect_index(plus.shape[-1])])


def _reflect_index(n: int) -> np.ndarray:
    """Index map k -> -k on the FFT-ordered frequency grid."""
    return (-np.arange(n)) % n


def xi_derivative(coeffs: np.ndarray, dxi: float) -> np.ndarray:
    """Centered finite difference d/dxi on the FFT-ordered frequency axis.

    FFT order is a cyclic shift of monotone xi, so both share the periodic
    neighbours; for trap-confined, band-limited data the wrap is negligible.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    wrapped = np.concatenate((coeffs[..., -1:], coeffs, coeffs[..., :1]), axis=-1)
    return (wrapped[..., 2:] - wrapped[..., :-2]) / (2.0 * dxi)


@dataclass(frozen=True)
class CompositeNorms:
    tilde_HN: float
    HM_HN: float
    B_t: float
    S_MN_t: float


@lru_cache(maxsize=32)
def _norm_weights(n_modes: int, M: float, n_x1: int | None = None,
                  length_x1: float | None = None, N: float | None = None) -> tuple:
    """The weights of the norms, built once per grid and exponents and
    read-only: (lam^(2M),) for ``hm_l2_norm``, and with the x1 grid and N
    also (xi^2 + lam)^(2N), <xi>^(2N) and <xi>^3 for ``composite_norms``.
    A ``Grid`` holds arrays and cannot be hashed, so its size and length key
    the cache."""
    lam = 2.0 * np.arange(n_modes) + 2.0   # the Hermite eigenvalues 2p + 2
    if n_x1 is None:
        weights = (lam ** (2.0 * M),)
    else:
        xi2 = (2.0 * math.pi * np.fft.fftfreq(n_x1, d=length_x1 / n_x1)) ** 2
        with np.errstate(over="ignore", invalid="ignore"):   # an overflowing weight norms to inf
            lam_m = lam ** (2.0 * M)
        weights = (lam_m, (xi2[None, :] + lam[:, None]) ** (2.0 * N),
                   (1.0 + xi2) ** N, (1.0 + xi2) ** 1.5)
    for w in weights:
        w.flags.writeable = False
    return weights


def composite_norms(state: SpectralState, grid: Grid, M: float, N: float) -> CompositeNorms:
    """All norms of Definition-style spaces for a state.

    tilde_HN uses the full 2D symbol (xi^2 + 2p + 2)^N; HM_HN uses eigenvalue
    multipliers (2p+2)^M on per-mode H^N norms; B_t = <t>^(-1/2) times the
    H^(3/2)(<x1>) norm; S_MN_t = tilde_HN + <t>^(-1/2) * (Hermite-weighted
    H^(3/2)(<x1>)), t the state's time.  Vector norms are the sum over the two
    components; the "-" component is the mirror of "+", so each is twice the
    "+" norm.
    """
    lam_m, w_full, w_xi_N, w_xi_32 = _norm_weights(state.n_modes, M, grid.n_x1,
                                                   grid.length_x1, N)
    bracket_t = math.sqrt(1.0 + state.time * state.time)
    scale = grid.dxi / (2.0 * math.pi)

    with np.errstate(over="ignore", invalid="ignore"):   # a huge state norms to inf
        a2 = np.abs(state.coeffs) ** 2
        tilde = math.sqrt(np.sum(w_full * a2) * scale)
        hmhn = math.sqrt(np.sum(lam_m * np.sum(w_xi_N * a2, axis=1)) * scale)
        d1 = np.abs(xi_derivative(state.coeffs, grid.dxi)) ** 2
        mode32 = np.sum(w_xi_32 * (a2 + d1), axis=1)   # per-mode H^(3/2)(<x>)^2
        b_t = math.sqrt(np.sum(mode32) * scale) / math.sqrt(bracket_t)
        bm = math.sqrt(np.sum(lam_m * mode32) * scale) / math.sqrt(bracket_t)
    return CompositeNorms(tilde_HN=2.0 * tilde, HM_HN=2.0 * hmhn, B_t=2.0 * b_t,
                          S_MN_t=2.0 * (tilde + bm))


def hm_l2_norm(coeffs: np.ndarray, grid: Grid, M0: float) -> float:
    """Hermite-weighted L2 norm sum_sigma ||(2p+2)^M0 f_p||_{l2 L2}, physical
    scale: twice the norm of the "+" coefficients (P, n_x1)."""
    (lam,) = _norm_weights(coeffs.shape[0], M0)
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * math.sqrt(np.sum(lam[:, None] * np.abs(coeffs) ** 2)
                               * grid.dxi / (2.0 * math.pi))


def interp_matrix(grid: Grid, targets: np.ndarray) -> np.ndarray:
    """Matrix evaluating the band-limited interpolant of f~ at ``targets``.

    The interpolant is the unique trigonometric polynomial through the grid
    values: f~(xi*) = dx * sum_j f_j e^(-i x_j xi*), with f_j the inverse
    DFT (n/L) alt ifft(f~) of the grid values.
    Since dx n / L = 1, entry (t, k) is alt_k ifft_j(e^(-i x_j xi*_t))_k.
    Raises InterpolationRangeError outside [-xi_max, xi_max].
    """
    targets = np.asarray(targets, dtype=float)
    if not np.all(grid.in_window(targets)):
        raise InterpolationRangeError(
            f"target frequency beyond window +-{grid.xi_max:.6g}")
    return grid.alt * np.fft.ifft(np.exp(-1j * np.outer(targets, grid.x1)), axis=1)


def save_state(path, grid: Grid, meta: dict, **states: SpectralState) -> None:
    """Write one checkpoint: ``meta`` (a JSON object), the grid geometry and
    the named states, as an .npz (zip) archive with a CRC-32 per member.  It
    is written to ``path + ".tmp"`` and committed by one ``os.replace``, so a
    kill leaves the old file or the new one, never a mix."""
    header = {"n_x1": grid.n_x1, "length_x1": grid.length_x1,
              "times": {name: state.time for name, state in states.items()}}
    arrays = {"meta": json.dumps(meta, sort_keys=True), "header": json.dumps(header),
              **{name: state.coeffs for name, state in states.items()}}
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, array in arrays.items():   # fixed ZipInfo date: equal bytes
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asarray(array), allow_pickle=False)
    os.replace(tmp, path)


def load_state(path, grid: Grid) -> tuple[dict, dict[str, SpectralState]]:
    """Read a ``save_state`` file; returns (meta, {name: state}).  Each member
    is read whole, so its CRC-32 is checked, and each state the header lists
    must be present (a damaged zip directory can hide members silently).
    Raises ValueError when the file is damaged or its geometry or a state's
    shape (P, n_x1) differs."""
    try:
        with zipfile.ZipFile(path) as zf:
            arrays = {name.removesuffix(".npy"):
                      np.lib.format.read_array(io.BytesIO(zf.read(name)))
                      for name in zf.namelist()}
        meta, header = (json.loads(str(arrays[key])) for key in ("meta", "header"))
        states = {name: SpectralState(time, arrays[name])
                  for name, time in header["times"].items()}
    except (OSError, EOFError, KeyError, RuntimeError, zipfile.BadZipFile) as exc:
        # a flipped compression or encryption flag raises NotImplementedError
        raise ValueError(f"unreadable checkpoint file: {exc!r}") from exc
    if header["n_x1"] != grid.n_x1 or abs(header["length_x1"] - grid.length_x1) > 1e-12:
        raise ValueError("checkpoint geometry does not match grid")
    shape = (grid.basis.max_mode + 1, grid.n_x1)
    for name, state in states.items():
        if state.coeffs.shape != shape:
            raise ValueError(f"checkpoint state {name!r} has shape "
                             f"{state.coeffs.shape}, expected {shape}")
    return meta, states
