"""Fourier-Hermite transforms between physical fields and mode coefficients,
Sobolev-type norms, and the checkpoint file.

Conventions (fixed once, used everywhere)
-----------------------------------------
Fourier transform in the free direction x1:  F(g)(xi) = integral e^(-i x xi) g dx,
inverse carries 1/(2 pi).  The x1 box is [-L/2, L/2) with n equispaced points and
frequencies xi_k = 2 pi k / L, k = -n/2 .. n/2 - 1, stored in FFT order.
The trapped direction x2 is sampled at the Gauss-Hermite nodes of the basis and
projected onto normalized phi_p.

With this convention ||f||^2_{L2(R^2)} = (2 pi)^(-1) sum_p ||f~_p||^2_{L2(dxi)}.
``sobolev_weighted_norm`` is the plain frequency-side norm (no 1/(2 pi)); the
composite norms include the (2 pi)^(-1/2) physical normalization.

The <x1>^kappa weights are realized as kappa frequency derivatives taken by
centered finite differences on the periodic frequency grid; the tests check
them against the physical-space multiplication route.
"""

from __future__ import annotations

import io
import json
import math
import os
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import ConfinementWarning, InterpolationRangeError
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


def forward_x1(grid: Grid, field: np.ndarray) -> np.ndarray:
    """DFT approximation of integral e^(-i x xi) f(x) dx along axis 0."""
    alt = grid.alt.reshape((-1,) + (1,) * (np.ndim(field) - 1))
    return grid.dx * alt * np.fft.fft(field, axis=0)


def inverse_x1(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``forward_x1`` (carries the 1/(2 pi), i.e. 1/L discretely)."""
    alt = grid.alt.reshape((-1,) + (1,) * (np.ndim(coeffs) - 1))
    return (grid.n_x1 / grid.length_x1) * np.fft.ifft(alt * coeffs, axis=0)


def forward(grid: Grid, field: np.ndarray) -> np.ndarray:
    """Field sampled on (x1 grid) x (Hermite nodes) -> coefficients (P, n_x1).

    Warns with ConfinementWarning when the field has not decayed below 1e-12
    of its peak at the outermost x2 nodes.
    """
    basis = grid.basis
    field = np.asarray(field)
    if field.shape != (grid.n_x1, basis.quad_order):
        raise ValueError(f"field must have shape ({grid.n_x1}, {basis.quad_order})")
    peak = np.max(np.abs(field))
    if peak > 0:
        edge = max(np.max(np.abs(field[:, 0])), np.max(np.abs(field[:, -1])))
        if edge > 1e-12 * peak:
            warnings.warn(
                f"field at x2 quadrature boundary is {edge / peak:.2e} of peak",
                ConfinementWarning,
            )
    hat = forward_x1(grid, field)                      # (n_x1, Q)
    weighted = basis.total_weights * basis.phi         # (P, Q)
    return weighted @ hat.T                            # (P, n_x1)


def inverse(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients (P, n_x1) -> field on (x1 grid) x (Hermite nodes)."""
    coeffs = np.asarray(coeffs)
    n_modes = coeffs.shape[0]
    phys_x1 = inverse_x1(grid, coeffs.T)               # (n_x1, P)
    return phys_x1 @ grid.basis.phi[:n_modes]          # (n_x1, Q)


def xi_derivative(coeffs: np.ndarray, dxi: float, order: int = 1) -> np.ndarray:
    """Centered finite difference d/dxi on the FFT-ordered frequency axis.

    FFT order is a cyclic shift of monotone xi, so both share the periodic
    neighbours; for trap-confined, band-limited data the wrap is negligible.
    """
    out = np.asarray(coeffs, dtype=complex)
    for _ in range(order):
        out = (np.roll(out, -1, axis=-1) - np.roll(out, 1, axis=-1)) / (2.0 * dxi)
    return out


def sobolev_weighted_norm(f_p: np.ndarray, grid: Grid, N: float, kappa: int) -> float:
    """|| <xi>^N f~ ||-type norm of one mode with kappa frequency derivatives.

    norm^2 = sum_{j<=kappa} binom(kappa, j) || <xi>^N d^j f~ ||^2_{L2(dxi)}.
    Plain frequency-side L2 for N = kappa = 0 (no Parseval factor).
    """
    if N < 0 or kappa not in (0, 1, 2):
        raise ValueError("need N >= 0 and kappa in {0, 1, 2}")
    w = (1.0 + grid.xi ** 2) ** N   # <xi>^(2N)
    f_p = np.asarray(f_p, dtype=complex)
    total = np.sum(w * np.abs(f_p) ** 2)
    d = f_p
    for j in range(1, kappa + 1):
        d = xi_derivative(d, grid.dxi)
        total += math.comb(kappa, j) * np.sum(w * np.abs(d) ** 2)
    return float(math.sqrt(total * grid.dxi))


@dataclass(frozen=True)
class CompositeNorms:
    tilde_HN: float
    HM_HN: float
    B_t: float
    S_MN_t: float


def _eigenvalues(n_modes: int) -> np.ndarray:
    return 2.0 * np.arange(n_modes) + 2.0


def composite_norms(state: SpectralState, grid: Grid, M: float, N: float) -> CompositeNorms:
    """All norms of Definition-style spaces for a state.

    tilde_HN uses the full 2D symbol (xi^2 + 2p + 2)^N; HM_HN uses eigenvalue
    multipliers (2p+2)^M on per-mode H^N norms; B_t = <t>^(-1/2) times the
    H^(3/2)(<x1>) norm; S_MN_t = tilde_HN + <t>^(-1/2) * (Hermite-weighted
    H^(3/2)(<x1>)), t the state's time.  Vector norms are the sum over the two
    components; the "-" component is the mirror of "+", so each is twice the
    "+" norm.
    """
    xi2 = grid.xi ** 2
    lam = _eigenvalues(state.n_modes)
    w_full = (xi2[None, :] + lam[:, None]) ** (2.0 * N)
    w_xi_N = (1.0 + xi2) ** N
    w_xi_32 = (1.0 + xi2) ** 1.5
    bracket_t = math.sqrt(1.0 + state.time * state.time)
    scale = grid.dxi / (2.0 * math.pi)

    with np.errstate(over="ignore", invalid="ignore"):   # a huge state norms to inf
        a2 = np.abs(state.coeffs) ** 2
        tilde = math.sqrt(np.sum(w_full * a2) * scale)
        hmhn = math.sqrt(np.sum(lam ** (2.0 * M) * np.sum(w_xi_N * a2, axis=1)) * scale)
        d1 = np.abs(xi_derivative(state.coeffs, grid.dxi)) ** 2
        mode32 = np.sum(w_xi_32 * (a2 + d1), axis=1)   # per-mode H^(3/2)(<x>)^2
        b_t = math.sqrt(np.sum(mode32) * scale) / math.sqrt(bracket_t)
        bm = math.sqrt(np.sum(lam ** (2.0 * M) * mode32) * scale) / math.sqrt(bracket_t)
    return CompositeNorms(tilde_HN=2.0 * tilde, HM_HN=2.0 * hmhn, B_t=2.0 * b_t,
                          S_MN_t=2.0 * (tilde + bm))


def hm_l2_norm(coeffs: np.ndarray, grid: Grid, M0: float) -> float:
    """Hermite-weighted L2 norm sum_sigma ||(2p+2)^M0 f_p||_{l2 L2}, physical
    scale: twice the norm of the "+" coefficients (P, n_x1)."""
    lam = _eigenvalues(coeffs.shape[0]) ** (2.0 * M0)
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * math.sqrt(np.sum(lam[:, None] * np.abs(coeffs) ** 2)
                               * grid.dxi / (2.0 * math.pi))


def interp_matrix(grid: Grid, targets: np.ndarray) -> np.ndarray:
    """Matrix evaluating the band-limited interpolant of f~ at ``targets``.

    The interpolant is the unique trigonometric polynomial through the grid
    values: f~(xi*) = dx * sum_j f_j e^(-i x_j xi*), with f_j = inverse_x1(f~).
    Since dx n / L = 1, entry (t, k) is alt_k ifft_j(e^(-i x_j xi*_t))_k.
    Raises InterpolationRangeError outside [-xi_max, xi_max].
    """
    targets = np.asarray(targets, dtype=float)
    bound = grid.xi_max * (1.0 + 1e-12)
    if np.any(np.abs(targets) > bound):
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
