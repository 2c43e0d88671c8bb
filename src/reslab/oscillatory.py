"""Oscillatory integrals over a window: direct quadrature of int_a^b e^(i t psi(x)) F(x) dx
and the stationary-phase leading term with the Fresnel-normalized constant,
checked against each other by ``stat_phase_decay_table``.

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

_GL_ORDER = 32
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)
_MAX_NODES = 20_000_000
_CHUNK = 1 << 15
_BLOCKS = 64
_PHASE_BUDGET = 48.0


@dataclass(frozen=True)
class PhaseCurve:
    """Phase psi with its first and second derivatives."""

    psi: Callable
    dpsi: Callable
    d2psi: Callable


@dataclass(frozen=True)
class OscIntegralSpec:
    """I = int_a^b e^(i t psi) F dx over the window (a, b); a taper is a factor of F."""

    phase: PhaseCurve
    amplitude: Callable
    time: float
    window: tuple[float, float]


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
    # sorted and deduplicated by hand: np.unique imports numpy.ma on first use
    edges.sort()
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


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
    a, b = spec.window
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
        return np.sum(amp * np.cos(theta)) + 1j * np.sum(amp * np.sin(theta))

    total = 0.0 + 0.0j
    for part in parallel.thread_map(chunk_sum, range(0, los.size, step), threads):
        total += part
    return complex(total)


def stationary_phase_leading(spec: OscIntegralSpec, x0: float) -> complex:
    """Leading term sqrt(2 pi/(t |psi''(x0)|)) e^(i pi/4 sgn psi'') e^(i t psi(x0)) F(x0).

    The constant is fixed by the Fresnel normalization and validated against
    the exact Fresnel-Gaussian integral in the tests.
    """
    if spec.time <= 0:
        raise ValueError("stationary-phase leading term needs t > 0")
    dpsi0 = float(spec.phase.dpsi(x0))
    scale = 1.0 + abs(float(spec.phase.dpsi(x0 + 1.0)) - dpsi0)
    if abs(dpsi0) > 1e-6 * scale:
        raise ValueError(f"psi'({x0}) = {dpsi0:.3g} is not a stationary point")
    dd = float(spec.phase.d2psi(x0))
    if abs(dd) < 1e-12:
        raise DegenerateStationaryPoint(f"|psi''({x0})| = {abs(dd):.3g}")
    amp = complex(np.asarray(spec.amplitude(x0), dtype=complex))
    return (math.sqrt(2.0 * math.pi / (spec.time * abs(dd)))
            * np.exp(1j * (math.pi / 4.0) * np.sign(dd))
            * np.exp(1j * spec.time * float(spec.phase.psi(x0))) * amp)


def kinked_gaussian_spec(t: float) -> OscIntegralSpec:
    """psi = x^2, F = e^(-x^2) (1 + |x|^(1/2)) on [-8, 8]: the kink of F at the
    stationary point makes the remainder attain the t^(-3/4) scale."""
    return OscIntegralSpec(
        phase=PhaseCurve(psi=lambda x: x * x, dpsi=lambda x: 2.0 * x,
                         d2psi=lambda x: 2.0 + 0.0 * np.asarray(x, float)),
        amplitude=lambda x: np.exp(-x * x) * (1.0 + np.sqrt(np.abs(x))),
        time=t, window=(-8.0, 8.0))


DECAY_TIMES = (100.0, 316.23, 1000.0, 3162.3, 10000.0)   # two a decade over [1e2, 1e4]


def stat_phase_decay_table(threads: int = 0) -> dict:
    """Quadrature vs leading term at ``DECAY_TIMES`` for the kinked Gaussian
    family, one time after another, each integral on ``threads`` workers;
    returns rows and the fitted exponent of |quad - leading|."""
    rows = []
    for t in DECAY_TIMES:
        spec = kinked_gaussian_spec(t)
        quad = quadrature_oscillatory(spec, breakpoints=(0.0,), threads=threads)
        lead = stationary_phase_leading(spec, 0.0)
        rows.append({"t": t, "quadrature_re": quad.real, "quadrature_im": quad.imag,
                     "leading_re": lead.real, "leading_im": lead.imag,
                     "abs_diff": abs(quad - lead)})
    logs = np.log([r["abs_diff"] for r in rows])
    exponent = float(np.polyfit(np.log(list(DECAY_TIMES)), logs, 1)[0])
    return {"rows": rows, "fitted_exponent": exponent}
