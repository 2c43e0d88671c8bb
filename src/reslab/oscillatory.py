"""Oscillatory integrals: direct quadrature of int e^(i t psi(x)) F(x) chi(x) dx,
the stationary-phase leading term with the Fresnel-normalized constant, and
the bilinear Duhamel frequency convolution.

Quadrature is composite Gauss-Legendre, chosen over FFT methods because the
phases here are not polynomial.  Panel width follows the local |psi'|, so no
panel carries more than _PHASE_BUDGET = 48 radians of phase (Deano, Huybrechs
& Iserles, Computing Highly Oscillatory Integrals, 2017).  The 32-point
remainder for e^(i kappa x) on [-1, 1] is 2^65 (32!)^4 / (65 (64!)^3) kappa^64,
about 1.3e-108 kappa^64 (Davis & Rabinowitz, Methods of Numerical Integration,
2.7): 2.9e-20 at such a panel's kappa = 24, 1e-17 at kappa = 26.3.
Optional breakpoints get geometrically graded panels so mildly singular
amplitudes (|x - a|^gamma, gamma > -1) integrate accurately.  A node chunk
holds _CHUNK = 2^15 nodes, 256 kB per float64 array, so its live temporaries
fit a 2 MiB L2 cache; chunks are summed in real arithmetic, and ``--threads``
splits the chunks of each integral, not the list of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import parallel
from .errors import DegenerateStationaryPoint, ResolutionError
from .phase import PhaseParams, bracket, dphase_deta, phase
from .transform import Grid, interp_matrix

# Fresnel normalization of the stationary-phase constant:
# int e^(i t x^2) dx = sqrt(pi/t) e^(i pi/4).
C_SP = math.sqrt(2.0 * math.pi)

_GL_ORDER = 32
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)
_MAX_NODES = 20_000_000
_CHUNK = 1 << 15
_BLOCKS = 64
_PHASE_BUDGET = 48.0


@dataclass(frozen=True)
class SmoothBump:
    """C-infinity cutoff supported on [center - radius, center + radius].

    chi(x) = exp(1 - 1/(1 - u^2)), u = (x - center)/radius; chi(center) = 1
    and max |chi'| is about 2.1/radius.  Only the support and the 1/radius
    slope scale matter to the estimates; the exact shape is a free choice.
    """

    center: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("cutoff radius must be positive")

    def __call__(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.radius
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out if out.ndim else float(out)

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)


@dataclass(frozen=True)
class PhaseCurve:
    """Phase psi with first derivative (second optional; central differences
    of dpsi with step 1e-5 otherwise)."""

    psi: Callable
    dpsi: Callable
    d2psi: Callable | None = None

    def second(self, x: float) -> float:
        if self.d2psi is not None:
            return float(self.d2psi(x))
        return float((self.dpsi(x + 1e-5) - self.dpsi(x - 1e-5)) / 2e-5)


@dataclass(frozen=True)
class OscIntegralSpec:
    """Everything defining I = int e^(i t psi) F chi dx.

    With ``cutoff`` None the integral runs over ``window`` with chi = 1
    (used when closed-form comparisons need chi identically one where the
    amplitude lives).
    """

    phase: PhaseCurve
    amplitude: Callable
    time: float
    cutoff: SmoothBump | None = None
    window: tuple[float, float] | None = None

    def domain(self) -> tuple[float, float]:
        if self.cutoff is not None:
            return self.cutoff.support
        if self.window is None:
            raise ValueError("spec needs a cutoff or an explicit window")
        return self.window

    def chi(self, x):
        if self.cutoff is None:
            return np.ones_like(np.asarray(x, dtype=float))
        return self.cutoff(x)


def _panel_edges(a: float, b: float, t: float, dpsi_abs: np.ndarray,
                 breakpoints: tuple[float, ...]) -> np.ndarray:
    """Panel edges on [a, b] sized by the local |psi'|.

    ``dpsi_abs`` is |psi'| at equally spaced samples from a to b.  [a, b] is
    cut into _BLOCKS equal blocks.  On each, |psi'| is bounded by the max of
    the block's samples plus one more on each side, and the block is filled
    with equal panels no wider than min(span/8, _PHASE_BUDGET/(|t| bound), 1).
    So no panel carries more than _PHASE_BUDGET radians of phase, where the
    32-point remainder, about 1.3e-108 (_PHASE_BUDGET/2)^64, is below rounding.
    Each breakpoint gets panels graded geometrically towards it, starting
    from the width of the block that contains it.
    """
    span = b - a
    block_lo = np.linspace(a, b, _BLOCKS + 1)
    block_len = np.diff(block_lo)
    last = dpsi_abs.size - 1
    first = np.floor(np.arange(_BLOCKS) * last / _BLOCKS).astype(int)
    stop = np.ceil(np.arange(1, _BLOCKS + 1) * last / _BLOCKS).astype(int)
    bound = np.array([dpsi_abs[max(i - 1, 0):j + 2].max() for i, j in zip(first, stop)])
    width = np.minimum(_PHASE_BUDGET / (abs(t) * bound + 1e-300), min(span / 8.0, 1.0))
    per_block = np.ceil(block_len / width)
    if per_block.sum() * _GL_ORDER > _MAX_NODES:
        raise ResolutionError(
            f"{per_block.sum():.0f} panels needed on [{a:.3g}, {b:.3g}] exceeds node budget")
    counts = per_block.astype(np.int64)
    block = np.repeat(np.arange(_BLOCKS), counts)
    j = np.arange(block.size) - np.repeat(np.cumsum(counts) - counts, counts)
    edges = np.append(block_lo[block] + block_len[block] * (j / counts[block]), b)
    for c in breakpoints:
        if not a < c < b:
            continue
        k = int(np.searchsorted(block_lo, c, side="right")) - 1
        edges = edges[np.abs(edges - c) > 1e-15]
        local = np.concatenate([c - width[k] * 0.5 ** np.arange(48),
                                [c], c + width[k] * 0.5 ** np.arange(48)])
        edges = np.concatenate([edges, local[(local > a) & (local < b)]])
    return np.unique(edges)


def _gauss_legendre_panels(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _GL_ORDER-point Gauss-Legendre rule on the
    panels [lo_i, hi_i], flattened panel by panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return ((mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel(),
            (half[:, None] * _GL_WEIGHTS[None, :]).ravel())


def quadrature_oscillatory(spec: OscIntegralSpec, breakpoints: tuple[float, ...] = (),
                           threads: int = 0) -> complex:
    """Composite Gauss-Legendre value of the oscillatory integral.

    ``threads`` workers sum the node chunks; the sums are added in chunk
    order, so the value does not depend on the thread count.  Raises
    ResolutionError when the oscillation cannot be resolved within the node
    budget.
    """
    a, b = spec.domain()
    t = spec.time
    sample = np.linspace(a, b, 2049)
    edges = _panel_edges(a, b, t, np.abs(spec.phase.dpsi(sample)), breakpoints)
    los, his = edges[:-1], edges[1:]
    step = max(1, _CHUNK // _GL_ORDER)

    def chunk_sum(start: int) -> complex:
        x, w = _gauss_legendre_panels(los[start:start + step], his[start:start + step])
        theta = t * np.asarray(spec.phase.psi(x), dtype=float)
        # real and imaginary parts of sum a e^(i theta); a keeps F's dtype
        amp = w * np.asarray(spec.amplitude(x))
        if spec.cutoff is not None:
            amp = amp * spec.cutoff(x)
        return np.sum(amp * np.cos(theta)) + 1j * np.sum(amp * np.sin(theta))

    total = 0.0 + 0.0j
    for part in parallel.thread_map(chunk_sum, range(0, los.size, step), threads):
        total += part
    return complex(total)


def stationary_phase_leading(spec: OscIntegralSpec, x0: float) -> complex:
    """Leading term sqrt(2 pi/(t |psi''(x0)|)) e^(i pi/4 sgn psi'') e^(i t psi(x0))
    chi(x0) F(x0).

    The constant is fixed by the Fresnel normalization and validated against
    the exact Fresnel-Gaussian integral in the tests.
    """
    if spec.time <= 0:
        raise ValueError("stationary-phase leading term needs t > 0")
    dpsi0 = float(spec.phase.dpsi(x0))
    scale = 1.0 + abs(float(spec.phase.dpsi(x0 + 1.0)) - dpsi0)
    if abs(dpsi0) > 1e-6 * scale:
        raise ValueError(f"psi'({x0}) = {dpsi0:.3g} is not a stationary point")
    dd = spec.phase.second(x0)
    if abs(dd) < 1e-12:
        raise DegenerateStationaryPoint(f"|psi''({x0})| = {abs(dd):.3g}")
    amp = complex(np.asarray(spec.amplitude(x0), dtype=complex))
    chi0 = float(spec.chi(x0))
    return (math.sqrt(2.0 * math.pi / (spec.time * abs(dd)))
            * np.exp(1j * (math.pi / 4.0) * np.sign(dd))
            * np.exp(1j * spec.time * float(spec.phase.psi(x0)))
            * chi0 * amp)


def fresnel_gaussian_spec(t: float, kink: bool = False) -> OscIntegralSpec:
    """The Gaussian test family: psi = x^2, F = e^(-x^2) (optionally times the
    borderline factor 1 + |x|^(1/2), whose stationary-point singularity makes
    the remainder attain the t^(-3/4) scale); window [-8, 8]."""
    if kink:
        amp = lambda x: np.exp(-x * x) * (1.0 + np.sqrt(np.abs(x)))
    else:
        amp = lambda x: np.exp(-x * x)
    return OscIntegralSpec(
        phase=PhaseCurve(psi=lambda x: x * x, dpsi=lambda x: 2.0 * x,
                         d2psi=lambda x: 2.0 + 0.0 * np.asarray(x, float)),
        amplitude=amp, time=t, window=(-8.0, 8.0))


def stat_phase_decay_table(times=(100.0, 316.23, 1000.0, 3162.3, 10000.0),
                           threads: int = 0) -> dict:
    """Quadrature vs leading term across t in [1e2, 1e4] for the kinked
    Gaussian family, one time after another, each integral on ``threads``
    workers; returns rows and the fitted exponent of |quad - leading|."""
    rows = []
    for t in times:
        spec = fresnel_gaussian_spec(t, kink=True)
        quad = quadrature_oscillatory(spec, breakpoints=(0.0,), threads=threads)
        lead = stationary_phase_leading(spec, 0.0)
        rows.append({"t": t, "quadrature_re": quad.real, "quadrature_im": quad.imag,
                     "leading_re": lead.real, "leading_im": lead.imag,
                     "abs_diff": abs(quad - lead)})
    logs = np.log([r["abs_diff"] for r in rows])
    exponent = float(np.polyfit(np.log(list(times)), logs, 1)[0])
    return {"rows": rows, "fitted_exponent": exponent}


def duhamel_phase(params: PhaseParams, xi: float, sign: int) -> PhaseCurve:
    """psi(eta) = -sign * phi(xi, eta): the component-(+) integrand carries
    e^(-i s phi), the component-(-) one e^(+i s phi)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 (top) or -1 (bottom)")
    return PhaseCurve(
        psi=lambda eta: -sign * phase(params, xi, eta),
        dpsi=lambda eta: -sign * dphase_deta(params, xi, eta),
    )


def duhamel_kernel(fm: np.ndarray, fn: np.ndarray, params: PhaseParams, s: float,
                   sign: int, grid: Grid, xi_out: np.ndarray | None = None) -> np.ndarray:
    """Direct quadrature, for each output frequency xi, of

        int e^(i s psi(eta)) fm~(eta)/<eta>_m fn~(xi-eta)/<xi-eta>_n deta,

    psi = -sign phi(xi, .) the ``duhamel_phase`` (so sign must be +-1), with
    fm~, fn~ band-limited interpolants of the coefficient arrays.  The
    prefactors (alpha beta, coupling, -1/(8 pi)) are the caller's business.
    This is the slow reference for the solver nonlinearity and the calibration
    target of the resonant kernel.
    """
    if xi_out is None:
        xi_out = grid.xi
    xi_out = np.atleast_1d(np.asarray(xi_out, dtype=float))
    W = grid.xi_max
    # resolve both the s-oscillation (|d_eta phi| <= 2) and the x1-content of
    # the interpolants (|x| <= L/2)
    density = 2.0 * abs(s) + grid.length_x1 / 2.0 + 4.0
    n_nodes = int(min(max(512, math.ceil(2.0 * W * density)), _MAX_NODES))
    if n_nodes >= _MAX_NODES:
        raise ResolutionError(f"duhamel kernel needs more than {_MAX_NODES} nodes")
    n_panels = max(1, n_nodes // _GL_ORDER)
    edges = np.linspace(-W, W, n_panels + 1)
    eta, w = _gauss_legendre_panels(edges[:-1], edges[1:])
    fm_eta = (interp_matrix(grid, eta) @ np.asarray(fm, complex)) / bracket(eta, params.m)
    out = np.empty(xi_out.size, dtype=complex)
    for i, xi in enumerate(xi_out):
        psi = duhamel_phase(params, xi, sign).psi
        shifted = xi - eta
        # the convolution partner may leave the window; fold it in periodically
        # (band-limited interpolants are L-periodic in x, 2W-periodic in xi)
        folded = (shifted + W) % (2.0 * W) - W
        fn_shift = (interp_matrix(grid, folded) @ np.asarray(fn, complex)) \
            / bracket(shifted, params.n)
        out[i] = np.sum(w * np.exp(1j * s * psi(eta)) * fm_eta * fn_shift)
    return out
