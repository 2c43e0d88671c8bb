"""The Fourier-Hermite grid, the norms of a state and the checkpoint archive.

Conventions (fixed once, used everywhere)
-----------------------------------------
Fourier transform in the free direction x1:  F(g)(xi) = integral e^(-i x xi) g dx,
inverse carries 1/(2 pi).  The x1 box is [-L/2, L/2) with n equispaced points and
frequencies xi_k = 2 pi k / L, k = -n/2 .. n/2 - 1, stored in FFT order.
The trapped direction x2 is carried by the normalized phi_p; the steppers
sample it at the cubic nodes of the basis.

A state is the complex (P, n_x1) array of the profile coefficients
f~_{+,p}(xi_k), the "+" traveling component only: the solution u is real, so
the "-" component is its mirror, f~_{-,p}(xi) = conj(f~_{+,p}(-xi)).  A state
holds no time; the run loop derives each from its step count.

With this convention ||f||^2_{L2(R^2)} = (2 pi)^(-1) sum_p ||f~_p||^2_{L2(dxi)};
the composite norms include the (2 pi)^(-1/2) physical normalization.

The <x1>^kappa weights are realized as kappa frequency derivatives taken by
centered finite differences on the periodic frequency grid; the tests check
them against the physical-space multiplication route.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import zipfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def xi_derivative(coeffs: np.ndarray, dxi: float) -> np.ndarray:
    """Centered finite difference d/dxi on the FFT-ordered frequency axis.

    FFT order is a cyclic shift of monotone xi, so both share the periodic
    neighbours; for trap-confined, band-limited data the wrap is negligible.
    """
    diff = _centered_difference(np.asarray(coeffs, dtype=complex))
    diff /= 2.0 * dxi
    return diff


def _centered_difference(coeffs: np.ndarray) -> np.ndarray:
    """c[k+1] - c[k-1] on the periodic last axis: one sliced difference of
    the flattened array, whose values at the row ends k = 0 and n-1 mix
    neighbouring rows, then one of the wrapped ends that overwrites them."""
    diff = np.empty(coeffs.shape, coeffs.dtype)
    flat, flat_diff = coeffs.reshape(-1), diff.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=flat_diff[1:-1])
    np.subtract(coeffs[..., 1::-1], coeffs[..., :-3:-1], out=diff[..., ::diff.shape[-1] - 1])
    return diff


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
    read-only: (lam^M as a column,) for ``hm_l2_norm``; with the x1 grid and
    N, lam^(2M), (xi^2 + lam)^(2N), the columns <xi>^(2N) and <xi>^3 stacked
    as (n_x1, 2), and <xi>^3 / (2 dxi)^2 for the centered difference, for
    ``norm_sums``.  A ``Grid`` holds arrays and cannot be hashed, so its size
    and length key the cache."""
    lam = 2.0 * np.arange(n_modes) + 2.0   # the Hermite eigenvalues 2p + 2
    if n_x1 is None:
        weights = (lam[:, None] ** M,)
    else:
        xi2 = (2.0 * math.pi * np.fft.fftfreq(n_x1, d=length_x1 / n_x1)) ** 2
        with np.errstate(over="ignore", invalid="ignore"):   # an overflowing weight norms to inf
            lam_m = lam ** (2.0 * M)
        w_32 = (1.0 + xi2) ** 1.5
        weights = (lam_m, (xi2[None, :] + lam[:, None]) ** (2.0 * N),
                   np.stack(((1.0 + xi2) ** N, w_32), axis=1),
                   w_32 / (4.0 * math.pi / length_x1) ** 2)
    for w in weights:
        w.flags.writeable = False
    return weights


def norm_sums(coeffs: np.ndarray, grid: Grid, M: float, N: float) -> tuple:
    """The t-free squares of the "+" norms of ``composite_norms``, each times
    dxi/(2 pi): tilde_HN, HM_HN, the H^(3/2)(<x1>) norm and its
    Hermite-weighted form.  A state the steps leave alone keeps them."""
    lam_m, w_full, w_xi, w_diff = _norm_weights(coeffs.shape[0], M, grid.n_x1,
                                                grid.length_x1, N)
    with np.errstate(over="ignore", invalid="ignore"):   # a huge state norms to inf
        a2 = np.square(np.abs(coeffs))
        per_mode = a2 @ w_xi   # (P, 2): the <xi>^(2N) and <xi>^3 sums
        mode32 = per_mode[:, 1] + np.square(np.abs(_centered_difference(coeffs))) @ w_diff
        tilde2, hmhn2 = float(np.vdot(w_full, a2)), float(lam_m @ per_mode[:, 0])
        b2, bm2 = float(mode32.sum()), float(lam_m @ mode32)
    scale = grid.dxi / (2.0 * math.pi)
    return tilde2 * scale, hmhn2 * scale, b2 * scale, bm2 * scale


def norms_at(sums: tuple, t: float) -> CompositeNorms:
    """The composite norms at time t of the ``norm_sums`` of a state."""
    tilde2, hmhn2, b2, bm2 = sums
    root_t = math.sqrt(math.sqrt(1.0 + t * t))   # <t>^(1/2)
    tilde = math.sqrt(tilde2)
    return CompositeNorms(tilde_HN=2.0 * tilde, HM_HN=2.0 * math.sqrt(hmhn2),
                          B_t=2.0 * math.sqrt(b2) / root_t,
                          S_MN_t=2.0 * (tilde + math.sqrt(bm2) / root_t))


def composite_norms(coeffs: np.ndarray, t: float, grid: Grid, M: float,
                    N: float) -> CompositeNorms:
    """All norms of Definition-style spaces for a state at time t.

    tilde_HN uses the full 2D symbol (xi^2 + 2p + 2)^N; HM_HN uses eigenvalue
    multipliers (2p+2)^M on per-mode H^N norms; B_t = <t>^(-1/2) times the
    H^(3/2)(<x1>) norm; S_MN_t = tilde_HN + <t>^(-1/2) * (Hermite-weighted
    H^(3/2)(<x1>)).  Vector norms are the sum over the two components; the
    "-" component is the mirror of "+", so each is twice the "+" norm.
    """
    return norms_at(norm_sums(coeffs, grid, M, N), t)


def hm_l2_norm(coeffs: np.ndarray, grid: Grid, M0: float) -> float:
    """Hermite-weighted L2 norm sum_sigma ||(2p+2)^M0 f_p||_{l2 L2}, physical
    scale: twice the norm of the "+" coefficients (P, n_x1)."""
    (root,) = _norm_weights(coeffs.shape[0], M0)
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = coeffs * root
        return 2.0 * math.sqrt(np.vdot(weighted, weighted).real * grid.dxi / (2.0 * math.pi))


@contextlib.contextmanager
def replace_on_close(path, mode: str):
    """Open ``path + ".tmp"`` in ``mode`` and commit it to ``path`` by one
    ``os.replace`` when the block ends, so a kill leaves the old file or the
    new one, never a mix.  On any error the temporary is removed."""
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_state(path, meta: dict, **arrays) -> None:
    """Write ``meta`` (a JSON object) and the named arrays as one .npz (zip)
    archive with a CRC-32 per member, through ``replace_on_close``."""
    members = {"meta": json.dumps(meta, sort_keys=True), **arrays}
    with replace_on_close(path, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
        for name, array in members.items():   # fixed ZipInfo date: equal bytes
            with zf.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asarray(array), allow_pickle=False)


def load_state(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a ``save_state`` file; returns (meta, {name: array}).  Each member
    is read whole, so its CRC-32 is checked.  Raises ValueError when the file
    is damaged; what its members must hold is the caller's to check."""
    try:
        with zipfile.ZipFile(path) as zf:
            arrays = {name.removesuffix(".npy"):
                      np.lib.format.read_array(io.BytesIO(zf.read(name)))
                      for name in zf.namelist()}
        return json.loads(str(arrays.pop("meta"))), arrays
    except (OSError, EOFError, KeyError, RuntimeError, zipfile.BadZipFile) as exc:
        # a flipped compression or encryption flag raises NotImplementedError
        raise ValueError(f"unreadable checkpoint file: {exc!r}") from exc
