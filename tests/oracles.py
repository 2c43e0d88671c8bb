"""Independent oracles and reference implementations used by the test suite.

Everything here deliberately avoids the package's own computational paths:
Hermite functions come from scipy's polynomial evaluation, integrals from
adaptive quadrature, the resonance scan is a vectorized cubic brute force
(and, per output mode, a scan of every m with an integer square root),
derivatives are Richardson-extrapolated differences, and the reference PDE
solver is a leapfrog scheme with a uniform finite-difference trap direction.
The two-component references carry both traveling components, build the
"-" one by their own conjugate mirror, and compute the kick with complex
transforms and matmuls; the unfolded Strang step rotates with four separate
exponentials, as the splitting is written on paper; the resonant right-hand
side reads its legs through dense interpolation matrices (``interp_matrix``),
one triple at a time, where the stepper runs one batched chirp-z transform.  The triple-table
oracle is the exception: it walks the per-p Gram matmul of
``TripleProductTable`` into a dict one entry at a time and writes one sorted
row at a time with ``%d,%d,%d,%.17g``, against the table's run layout and
per-run templates, and so must agree with it byte for byte.  Two more
oracles are the earlier all-at-once forms of kernels that now work in
cache-sized pieces, and must agree with them bit for bit: the flat-Gram
build of the table (``triple_entries_flat_gram``) and the full-grid sampled
phase minimum (``sampled_phase_min_grid``).  The canonical triple list
``enumerate_triples`` is not an oracle but a test helper: it reads the
package's closed-form walk, and ``brute_force_triples`` checks it; so is
``table_rows``, the m, n and p of the table's rows read off its run layout.

The package holds only what the CLI runs, so the reference implementations,
cross-checks and reference scales of the paper that no command computes live
here as well: the x1 transforms ``forward_x1``/``inverse_x1``; the
physical-space Fourier-Hermite transforms ``forward``/``inverse`` on a plain
Gauss-Hermite rule of their own (``plain_rule``, at least 40 nodes), which
warn with ``ConfinementWarning`` on a field that is not trap-confined; the
weighted Sobolev norm; the bilinear Duhamel convolution ``duhamel_kernel``
and its phase ``duhamel_phase``; the Hermite eigen-residual, the interaction
decay envelope, the triple product on the substituted rule of any order
(``triple_product_at_order``, for the order-doubling checks) and at the
exact order (``triple_product``, the table's one-triple reference), the
closed-form phase derivatives the phase module does not need, the plain
Gaussian stationary-phase family ``fresnel_gaussian_spec`` (the package
keeps the kinked one that ``stat-phase-check`` runs), the closed form of the
kinked stationary-phase integral, the smooth cutoff ``SmoothBump`` with
``cut_spec``, which folds it into the amplitude on the bump's support, the
phase floor, the non-stationary bound, the physical-space frequency
derivative, the massless resonance condition and the discrete energy of
the full stepper (``discrete_energy``).
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import eval_hermite


class ConfinementWarning(UserWarning):
    """Field mass at the trapped-direction quadrature boundary exceeds tolerance."""


class PlainRule(NamedTuple):
    """The Gauss-Hermite rule of ``forward``/``inverse``: nodes, weights,
    total weights w e^(x^2), and phi_0..phi_max_mode at the nodes."""
    quad_order: int
    nodes: np.ndarray
    weights: np.ndarray
    total_weights: np.ndarray
    phi: np.ndarray


def plain_rule(max_mode: int) -> PlainRule:
    """The plain rule for modes <= max_mode: the order of the cubic rule, but
    at least 40, so that trap-confined test fields decay below 1e-12 of their
    peak inside its node extent."""
    from reslab.hermite import gauss_hermite, hermite_table, triple_quad_order

    order = max(triple_quad_order(max_mode, max_mode, max_mode), 40)
    nodes, weights, total = gauss_hermite(order)
    return PlainRule(order, nodes, weights, total, hermite_table(max_mode, nodes))


def forward_x1(grid, field: np.ndarray) -> np.ndarray:
    """DFT approximation of integral e^(-i x xi) f(x) dx along axis 0."""
    alt = grid.alt.reshape((-1,) + (1,) * (np.ndim(field) - 1))
    return grid.dx * alt * np.fft.fft(field, axis=0)


def inverse_x1(grid, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``forward_x1`` (carries the 1/(2 pi), i.e. 1/L discretely)."""
    alt = grid.alt.reshape((-1,) + (1,) * (np.ndim(coeffs) - 1))
    return (grid.n_x1 / grid.length_x1) * np.fft.ifft(alt * coeffs, axis=0)


def forward(grid, field: np.ndarray) -> np.ndarray:
    """Field sampled on (x1 grid) x (plain-rule nodes) -> coefficients (P, n_x1).

    Warns with ConfinementWarning when the field has not decayed below 1e-12
    of its peak at the outermost x2 nodes.
    """
    rule = plain_rule(grid.basis.max_mode)
    field = np.asarray(field)
    if field.shape != (grid.n_x1, rule.quad_order):
        raise ValueError(f"field must have shape ({grid.n_x1}, {rule.quad_order})")
    peak = np.max(np.abs(field))
    if peak > 0:
        edge = max(np.max(np.abs(field[:, 0])), np.max(np.abs(field[:, -1])))
        if edge > 1e-12 * peak:
            warnings.warn(f"field at x2 quadrature boundary is {edge / peak:.2e} of peak",
                          ConfinementWarning)
    return (rule.total_weights * rule.phi) @ forward_x1(grid, field).T   # (P, n_x1)


def inverse(grid, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients (P, n_x1) -> field on (x1 grid) x (plain-rule nodes)."""
    coeffs = np.asarray(coeffs)
    return inverse_x1(grid, coeffs.T) @ plain_rule(grid.basis.max_mode).phi[:len(coeffs)]


def sobolev_weighted_norm(f_p: np.ndarray, grid, N: float, kappa: int) -> float:
    """|| <xi>^N f~ ||-type norm of one mode with kappa frequency derivatives:
    norm^2 = sum_{j<=kappa} binom(kappa, j) || <xi>^N d^j f~ ||^2_{L2(dxi)},
    plain frequency-side L2 for N = kappa = 0 (no Parseval factor)."""
    from reslab.transform import xi_derivative

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


def psi_direct(n: int, x):
    """Normalized Hermite function via scipy's H_n evaluation."""
    norm = math.exp(0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)
                           + 0.5 * math.log(math.pi)))
    return eval_hermite(n, np.asarray(x, float)) * np.exp(-0.5 * np.asarray(x, float) ** 2) / norm


def adaptive_triple(m: int, n: int, p: int) -> float:
    """Brute-force adaptive quadrature of the normalized triple product."""
    val, err = quad(lambda x: psi_direct(m, x) * psi_direct(n, x) * psi_direct(p, x),
                    -20.0, 20.0, limit=400, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-9
    return val


def triple_product_at_order(m: int, n: int, p: int, order: int) -> float:
    """T(m, n, p) on the order-point substituted rule ``hermite._cubic_rule``,
    for the order-doubling checks; the indices are sorted first, so every
    permutation agrees bitwise."""
    from reslab.hermite import _cubic_rule

    m, n, p = sorted((m, n, p))
    table, w = _cubic_rule(order, p)
    return float(np.sum(w * table[m] * table[n] * table[p]))


def triple_product(m: int, n: int, p: int) -> float:
    """integral phi_m phi_n phi_p dx, one triple at a time: exactly 0.0 for
    odd m+n+p (odd integrand), else the substituted rule at the exact order
    ``hermite.triple_quad_order``.  The reference for ``TripleProductTable``,
    which builds every value from one Gram matmul per p."""
    from reslab.hermite import triple_quad_order

    if min(m, n, p) < 0:
        raise ValueError("mode indices must be >= 0")
    if (m + n + p) % 2 == 1:
        return 0.0
    return triple_product_at_order(m, n, p, triple_quad_order(m, n, p))


def eigen_residual(n: int, grid: np.ndarray) -> float:
    """Max-norm residual of (-phi_n'' + x^2 phi_n) - (2n+1) phi_n at the
    interior points of a uniform grid: phi_n from ``hermite_table``, phi_n''
    from the 5-point fourth-order stencil."""
    from reslab.hermite import hermite_table

    h = grid[1] - grid[0]
    f = hermite_table(n, grid)[n]
    d2 = (-f[:-4] + 16.0 * f[1:-3] - 30.0 * f[2:-2] + 16.0 * f[3:-1] - f[4:]) / (12.0 * h * h)
    x = grid[2:-2]
    return float(np.max(np.abs(-d2 + x * x * f[2:-2] - (2.0 * n + 1.0) * f[2:-2])))


def interaction_bound_ratio(m: int, n: int, p: int, K: int, nu: float, beta: float,
                            table=None) -> float:
    """|T(m,n,p)| over the decay envelope (m^nu / p^beta) (sqrt(mn)/(sqrt(mn)+p-n))^K,
    m <= n <= p; the envelope raises each index to at least 1, so the ratio
    is finite at mode 0."""
    value = table.get(m, n, p) if table is not None else triple_product(m, n, p)
    m1, n1, p1 = max(1, m), max(1, n), max(1, p)
    root = math.sqrt(m1 * n1)
    return abs(value) / ((m1 ** nu / p1 ** beta) * (root / (root + p - n)) ** K)


def dphase_dxi(params, xi, eta):
    """Closed-form d phi / d xi."""
    xi, eta = np.asarray(xi, float), np.asarray(eta, float)
    return (xi / np.sqrt(xi ** 2 + 2.0 * params.p + 2.0)
            + params.beta * (xi - eta) / np.sqrt((xi - eta) ** 2 + 2.0 * params.n + 2.0))


def d2phase_deta2(params, xi, eta):
    """Closed-form d^2 phi / d eta^2."""
    xi, eta = np.asarray(xi, float), np.asarray(eta, float)
    return (params.alpha * (2.0 * params.m + 2.0) / (eta ** 2 + 2.0 * params.m + 2.0) ** 1.5
            + params.beta * (2.0 * params.n + 2.0) / ((xi - eta) ** 2 + 2.0 * params.n + 2.0) ** 1.5)


def duhamel_phase(params, xi: float, sign: int):
    """The ``PhaseCurve`` psi(eta) = -sign * phi(xi, eta) with its closed-form
    derivatives: the component-(+) integrand carries e^(-i s phi), the
    component-(-) one e^(+i s phi)."""
    from reslab.oscillatory import PhaseCurve
    from reslab.phase import dphase_deta, phase

    if sign not in (1, -1):
        raise ValueError("sign must be +1 (top) or -1 (bottom)")
    return PhaseCurve(psi=lambda eta: -sign * phase(params, xi, eta),
                      dpsi=lambda eta: -sign * dphase_deta(params, xi, eta),
                      d2psi=lambda eta: -sign * d2phase_deta2(params, xi, eta))


def interp_matrix(grid, targets: np.ndarray) -> np.ndarray:
    """Dense matrix evaluating the band-limited interpolant of f~ at ``targets``.

    The interpolant is the unique trigonometric polynomial through the grid
    values: f~(xi*) = dx * sum_j f_j e^(-i x_j xi*), with f_j the inverse
    DFT (n/L) alt ifft(f~) of the grid values.
    Since dx n / L = 1, entry (t, k) is alt_k ifft_j(e^(-i x_j xi*_t))_k.
    Raises ValueError outside [-xi_max, xi_max].
    """
    targets = np.asarray(targets, dtype=float)
    if not np.all(np.abs(targets) <= grid.xi_max * (1.0 + 1e-12)):
        raise ValueError(f"target frequency beyond window +-{grid.xi_max:.6g}")
    return grid.alt * np.fft.ifft(np.exp(-1j * np.outer(targets, grid.x1)), axis=1)


def duhamel_kernel(fm: np.ndarray, fn: np.ndarray, params, s: float, sign: int,
                   grid, xi_out: np.ndarray | None = None) -> np.ndarray:
    """Direct quadrature, for each output frequency xi, of

        int e^(i s psi(eta)) fm~(eta)/<eta>_m fn~(xi-eta)/<xi-eta>_n deta,

    psi = -sign phi(xi, .) the ``duhamel_phase`` (so sign must be +-1), with
    fm~, fn~ band-limited interpolants (``interp_matrix``) of the
    coefficient arrays, on 32-point Gauss-Legendre panels over the window.
    The prefactors (alpha beta, coupling, -1/(8 pi)) are the caller's
    business.  This is the calibration target of the resonant kernel.
    """
    from reslab.phase import bracket

    xi_out = grid.xi if xi_out is None else np.atleast_1d(np.asarray(xi_out, dtype=float))
    W = grid.xi_max
    # resolve both the s-oscillation (|d_eta phi| <= 2) and the x1-content of
    # the interpolants (|x| <= L/2)
    density = 2.0 * abs(s) + grid.length_x1 / 2.0 + 4.0
    n_panels = max(1, max(512, math.ceil(2.0 * W * density)) // 32)
    edges = np.linspace(-W, W, n_panels + 1)
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    nodes, weights = leggauss(32)
    eta = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
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


def phase_floor(m: int, n: int, R: float) -> float:
    """Reference lower-bound scale 1/((sqrt(n+1)+sqrt(m+1))^2 R) of |phi| on the
    ball of radius R, meaningful only away from space-time resonance."""
    return 1.0 / ((math.sqrt(n + 1.0) + math.sqrt(m + 1.0)) ** 2 * R)


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


def cut_spec(phase, amplitude, time: float, bump: SmoothBump):
    """The ``OscIntegralSpec`` of int e^(i t psi) F chi dx: the amplitude F chi
    on the window ``bump.support``."""
    from reslab.oscillatory import OscIntegralSpec

    return OscIntegralSpec(phase=phase, amplitude=lambda x: amplitude(x) * bump(x),
                           time=time, window=bump.support)


def fresnel_gaussian_spec(t: float):
    """The plain Gaussian family: psi = x^2, F = e^(-x^2) on the window
    [-8, 8]; its integral over the line is sqrt(pi/(1 - i t))."""
    from reslab.oscillatory import OscIntegralSpec, PhaseCurve

    return OscIntegralSpec(
        phase=PhaseCurve(psi=lambda x: x * x, dpsi=lambda x: 2.0 * x,
                         d2psi=lambda x: 2.0 + 0.0 * np.asarray(x, float)),
        amplitude=lambda x: np.exp(-x * x), time=t, window=(-8.0, 8.0))


def nonstationary_bound(amplitude, bump: SmoothBump, time: float, gradient_floor: float,
                        amplitude_deriv=None) -> float:
    """Upper bound sqrt(rho)/(t m) (||F||_2 + ||F'||_2) on the integral of
    e^(i t psi) F chi, chi = ``bump`` of radius rho, when |psi'| >= m =
    ``gradient_floor`` on its support; the norms are of the uncut F =
    ``amplitude`` over the support, F' is ``amplitude_deriv``, or a centered
    difference without one."""
    a, b = bump.support
    nodes, weights = leggauss(64)
    x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    w = 0.5 * (b - a) * weights
    h = 1e-6 * (1.0 + abs(b - a))
    deriv = amplitude_deriv or (lambda y: (np.asarray(amplitude(y + h), complex)
                                           - np.asarray(amplitude(y - h), complex))
                                / (2.0 * h))
    norms = [math.sqrt(float(np.sum(w * np.abs(np.asarray(g(x), complex)) ** 2)))
             for g in (amplitude, deriv)]
    return math.sqrt(bump.radius) / (time * gradient_floor) * sum(norms)


def kinked_gaussian_exact(t: float) -> complex:
    """integral e^(i t x^2) e^(-x^2) (1 + |x|^(1/2)) dx over the real line, in
    closed form: with a = 1 - i t, sqrt(pi/a) + Gamma(3/4) a^(-3/4), both
    powers on the principal branch.  The window [-8, 8] of the kinked family
    drops about e^(-64) of it."""
    a = complex(1.0, -t)
    return cmath.sqrt(math.pi / a) + math.gamma(0.75) * cmath.exp(-0.75 * cmath.log(a))


def xi_derivative_physical(grid, coeffs: np.ndarray) -> np.ndarray:
    """d/dxi of one coefficient row as the transform of (-i x) f, exact for
    band-limited data."""
    return forward_x1(grid, -1j * grid.x1 * inverse_x1(grid, coeffs))


def composite_norms_reference(coeffs: np.ndarray, time: float, grid, M: float,
                              N: float) -> tuple[float, float, float, float]:
    """(tilde_HN, HM_HN, B_t, S_MN_t) of a "+" state (P, n_x1) with every weight
    built at the call and the xi derivative taken by ``np.roll``; each norm is
    twice the "+" one."""
    xi2 = grid.xi ** 2
    lam = 2.0 * np.arange(coeffs.shape[0]) + 2.0
    a2 = np.abs(coeffs) ** 2
    d1 = np.abs((np.roll(coeffs, -1, axis=1) - np.roll(coeffs, 1, axis=1))
                / (2.0 * grid.dxi)) ** 2
    scale = grid.dxi / (2.0 * math.pi)
    bracket_t = math.sqrt(1.0 + time * time)
    tilde = math.sqrt(np.sum((xi2[None, :] + lam[:, None]) ** (2.0 * N) * a2) * scale)
    hmhn = math.sqrt(np.sum(lam ** (2.0 * M) * np.sum((1.0 + xi2) ** N * a2, axis=1)) * scale)
    mode32 = np.sum((1.0 + xi2) ** 1.5 * (a2 + d1), axis=1)
    b_t = math.sqrt(np.sum(mode32) * scale / bracket_t)
    bm = math.sqrt(np.sum(lam ** (2.0 * M) * mode32) * scale / bracket_t)
    return 2.0 * tilde, 2.0 * hmhn, 2.0 * b_t, 2.0 * (tilde + bm)


def hm_l2_norm_reference(coeffs: np.ndarray, grid, M0: float) -> float:
    """sum_sigma ||(2p+2)^M0 f_p||_{l2 L2} with the weights built at the call."""
    lam = (2.0 * np.arange(coeffs.shape[0]) + 2.0) ** (2.0 * M0)
    return 2.0 * math.sqrt(np.sum(lam[:, None] * np.abs(coeffs) ** 2)
                           * grid.dxi / (2.0 * math.pi))


def is_resonant_massless(m: int, n: int, p: int) -> bool:
    """The resonance condition with eigenvalues 2k+1 (no mass term): for a
    rotation (a, b, c) of (m, n, p), (2(c-a-b) - 1)^2 = 4(2a+1)(2b+1), which is
    impossible mod 8 (an odd square is 1 mod 8)."""
    return any((2 * (c - a - b) - 1) ** 2 == 4 * (2 * a + 1) * (2 * b + 1)
               for a, b, c in ((m, n, p), (n, p, m), (p, m, n)))


def brute_force_triples(max_mode: int) -> set[tuple[int, int, int]]:
    """All (m, n, p) with the polynomial zero, canonicalized to m <= n and p in
    the largest position; O(max_mode^3) vectorized scan in int64."""
    k = np.arange(max_mode + 1, dtype=np.int64)
    m, n, p = np.meshgrid(k, k, k, indexing="ij")
    poly = (m * m + n * n + p * p - 2 * m * n - 2 * p * m - 2 * p * n
            - 2 * m - 2 * n - 2 * p - 3)
    sols = np.argwhere(poly == 0)
    out = set()
    for a, b, c in sols:
        a, b, c = sorted((int(a), int(b), int(c)))
        out.add((a, b, c))
    return out


def enumerate_triples(max_mode: int) -> list[tuple[int, int, int]]:
    """Sorted canonical triples (m, n, p), m <= n <= p <= max_mode, p in the
    largest-root position: the (-1, -1) entries of the package's walk.  Every
    solution of the resonance polynomial is an index permutation of one."""
    from reslab.triples import _resonant_inputs
    return sorted((m, n, p) for p in range(max_mode + 1)
                  for m, n, alpha, beta in _resonant_inputs(p, max_mode)
                  if (alpha, beta) == (-1, -1) and m <= n <= p)


def resonant_inputs_scan(p: int, max_mode: int):
    """(m, n, alpha, beta) of the resonant set for output mode p in
    lexicographic order, scanning every m: n is a root of the polynomial,
    m + p + 1 -+ 2 sqrt((m+1)(p+1)), when (m+1)(p+1) is a perfect square;
    m = n with alpha = -beta is skipped."""
    out = []
    for m in range(max_mode + 1):
        r = math.isqrt((m + 1) * (p + 1))
        if r * r != (m + 1) * (p + 1):
            continue
        for n in (m + p + 1 - 2 * r, m + p + 1 + 2 * r):
            if 0 <= n <= max_mode:
                out.extend((m, n, a, b) for a in (-1, 1) for b in (-1, 1)
                           if m != n or a == b)
    return out


def triple_table_dict(max_mode: int) -> dict[tuple[int, int, int], float]:
    """T(m, n, p) for m <= n <= p <= max_mode with even m + n + p, walked one
    entry at a time out of the per-p Gram matrix of ``TripleProductTable``."""
    from reslab.hermite import _cubic_rule, triple_quad_order

    table, w_total = _cubic_rule(triple_quad_order(max_mode, max_mode, max_mode), max_mode)
    entries = {}
    for p in range(max_mode + 1):
        g = (table[: p + 1] * (w_total * table[p])) @ table[: p + 1].T
        for m in range(p + 1):
            for n in range(m, p + 1):
                if (m + n + p) % 2 == 0:
                    entries[(m, n, p)] = float(g[m, n])
    return entries


def triple_entries_flat_gram(max_mode: int) -> np.ndarray:
    """The triple table built all at once, as rows (m, n, p, value): every
    G_p is written row-major at offset sum_{q<p} (q+1)^2 of one flat buffer,
    and the rows are gathered from it by index columns that list the
    even-parity m <= n <= p in lexicographic order, taken from a mask over
    the whole cube rather than from the table's run layout."""
    from reslab.hermite import _cubic_rule, triple_quad_order

    table, w_total = _cubic_rule(triple_quad_order(max_mode, max_mode, max_mode), max_mode)
    offset = np.cumsum([0] + [(p + 1) ** 2 for p in range(max_mode + 1)])
    gram = np.empty(offset[-1])
    for p in range(max_mode + 1):
        np.matmul(table[: p + 1] * (w_total * table[p]), table[: p + 1].T,
                  out=gram[offset[p]:offset[p + 1]].reshape(p + 1, p + 1))
    m, n, p = np.ogrid[: max_mode + 1, : max_mode + 1, : max_mode + 1]
    m, n, p = np.nonzero((m <= n) & (n <= p) & ((m + n + p) % 2 == 0))
    entries = np.empty(len(m), [("m", np.int32), ("n", np.int32), ("p", np.int32),
                                ("value", float)])
    entries["m"], entries["n"], entries["p"] = m, n, p
    entries["value"] = gram[offset[p] + m * (p + 1) + n]
    return entries


def table_rows(max_mode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m, n and p of each row of ``TripleProductTable(max_mode).entries``,
    which holds values only, expanded from the runs of ``_row_runs``."""
    from reslab.hermite import _row_runs

    mm, nn, first, count = _row_runs(max_mode)
    start = np.cumsum(count) - count
    p = np.repeat(first - 2 * start, count) + 2 * np.arange(int(count.sum()))
    return np.repeat(mm, count), np.repeat(nn, count), p


def sampled_phase_min_grid(params, R: float) -> float:
    """``np.min`` of |phi| over the whole 800-angle by 400-radius polar grid
    of the ball of radius R at once, NaN or inf included."""
    from reslab.phase import phase

    angles = np.linspace(0.0, 2.0 * math.pi, 800, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):
        rr, aa = np.meshgrid(np.linspace(0.0, R, 400), angles)
        return float(np.abs(phase(params, rr * np.cos(aa), rr * np.sin(aa))).min())


def write_triple_csv(entries: dict[tuple[int, int, int], float], path) -> None:
    """The triple-table CSV written one sorted row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m,n,p,value\n")
        for key in sorted(entries):
            fh.write("%d,%d,%d,%.17g\n" % (*key, entries[key]))


def refine_edges_per_panel(edges: np.ndarray, resolution: float) -> np.ndarray:
    """Quadrature panel edges with every panel split into ceil(resolution)
    equal panels, one ``np.linspace`` per panel."""
    extra = math.ceil(resolution)
    fine = [np.linspace(edges[i], edges[i + 1], extra + 1)[:-1]
            for i in range(edges.size - 1)]
    return np.unique(np.concatenate(fine + [edges[-1:]]))


def uniform_panel_edges(a: float, b: float, t: float, dpsi_abs: np.ndarray,
                        breakpoints: tuple[float, ...]) -> np.ndarray:
    """Quadrature panel edges of the global-max layout: every panel as wide
    as 8 radians of phase at the largest sampled |psi'| allows, with panels
    graded geometrically towards each breakpoint."""
    span = b - a
    width = min(span / 8.0, 8.0 / (abs(t) * float(np.max(dpsi_abs)) + 1e-300), 1.0)
    edges = np.linspace(a, b, max(8, math.ceil(span / width)) + 1)
    for c in breakpoints:
        if not a < c < b:
            continue
        edges = edges[np.abs(edges - c) > 1e-15]
        local = np.concatenate([c - width * 0.5 ** np.arange(48),
                                [c], c + width * 0.5 ** np.arange(48)])
        edges = np.concatenate([edges, local[(local > a) & (local < b)]])
    return np.unique(edges)


def richardson_d1(f, x: float, h: float) -> float:
    """Fourth-order first derivative from two centered differences."""
    d_h = (f(x + h) - f(x - h)) / (2.0 * h)
    d_h2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def richardson_d2(f, x: float, h: float) -> float:
    """Fourth-order second derivative from two centered differences."""
    def d2(step):
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)
    return (4.0 * d2(h / 2.0) - d2(h)) / 3.0


def rewrite_checkpoint(path, member: str, **fields) -> None:
    """Sets ``fields`` in the JSON member ``member`` ("meta" or "header") of a
    checkpoint file and writes the file back with valid CRCs, as a forged or
    corrupted-in-memory checkpoint would be."""
    with np.load(path) as npz:
        arrays = dict(npz)
    doc = json.loads(str(arrays[member]))
    doc.update(fields)
    arrays[member] = np.asarray(json.dumps(doc))
    np.savez(path, **arrays)


def two_component(plus: np.ndarray) -> np.ndarray:
    """(2, P, n) stack of f~_+ and its pair f~_-(xi) = conj(f~_+(-xi))."""
    n = plus.shape[-1]
    return np.stack((plus, np.conj(plus[:, (-np.arange(n)) % n])))


def leapfrog_reference(grid, state, n_modes: int, t_end: float, dt: float,
                       n_x2: int = 257, x2_extent: float = 8.0):
    """Independent discretization of the trapped Klein-Gordon equation:
    leapfrog in time on u itself, uniform-grid fourth-order finite differences
    in the trapped direction, spectral collocation in x1 on the same grid.

    Returns (x2 grid, u at t_end sampled on x1-grid x x2-grid).
    """
    from reslab.hermite import hermite_table

    x2 = np.linspace(-x2_extent, x2_extent, n_x2)
    h2 = x2[1] - x2[0]
    omega = np.sqrt(grid.xi[None, :] ** 2 + (2.0 * np.arange(n_modes) + 2.0)[:, None])
    phi_x2 = hermite_table(n_modes - 1, x2)

    def to_phys(coeff_rows):
        return (inverse_x1(grid, coeff_rows.T) @ phi_x2).real

    plus, minus = two_component(state.coeffs)
    u0 = to_phys((plus - minus) / (2j * omega))
    v0 = to_phys((plus + minus) / 2.0)

    k2 = grid.xi ** 2

    def rhs(u):
        uxx1 = np.fft.ifft(-k2[:, None] * np.fft.fft(u, axis=0), axis=0).real
        up = np.zeros((u.shape[0], n_x2 + 4))
        up[:, 2:-2] = u
        uxx2 = (-up[:, :-4] + 16.0 * up[:, 1:-3] - 30.0 * up[:, 2:-2]
                + 16.0 * up[:, 3:-1] - up[:, 4:]) / (12.0 * h2 * h2)
        return uxx1 + uxx2 - (x2 ** 2)[None, :] * u - u + u * u

    n_steps = round(t_end / dt)
    u_prev = u0
    u_cur = u0 + dt * v0 + 0.5 * dt * dt * rhs(u0)
    for _ in range(1, n_steps):
        u_prev, u_cur = u_cur, 2.0 * u_cur - u_prev + dt * dt * rhs(u_cur)
    return x2, u_cur


def physical_field_on(grid, state, n_modes: int, x2: np.ndarray) -> np.ndarray:
    """u(t) from a profile state, sampled on x1-grid x given x2 points."""
    from reslab.hermite import hermite_table

    omega = np.sqrt(grid.xi[None, :] ** 2 + (2.0 * np.arange(n_modes) + 2.0)[:, None])
    sgn = np.array([1.0, -1.0])[:, None, None]
    trav = two_component(state.coeffs) * np.exp(1j * sgn * state.time * omega[None, :, :])
    mode = (trav[0] - trav[1]) / (2j * omega)
    return (inverse_x1(grid, mode.T) @ hermite_table(n_modes - 1, x2)).real


def kick_reference(stepper, u: np.ndarray) -> np.ndarray:
    """(u^2)~_p from both traveling components u (2, P, n) of ``FullStepper``'s
    grid and cubic nodes, in complex arithmetic throughout."""
    grid = stepper.grid
    mode = (u[0] - u[1]) / (2j * stepper.omega)                     # u~_p
    phys = (grid.n_x1 / grid.length_x1) * np.fft.ifft(grid.alt * mode, axis=1)
    vals = phys.T @ grid.basis.cubic_phi[:stepper.n_modes]          # (n, Qc)
    proj = (vals * vals) @ stepper.project.T                        # (n, P)
    out = grid.dx * grid.alt * np.fft.fft(proj.T, axis=1)
    out[:, stepper.mask] = 0.0
    return out


def strang_step_reference(stepper, coeffs: np.ndarray, t: float, dt: float):
    """One unfolded Strang step of ``FullStepper`` on both components (2, P, n):
    profile -> traveling variables, half rotation, midpoint kick with
    ``kick_reference``, half rotation, back to the profile.  Returns
    (t + dt, coefficients)."""
    sgn = np.array([1.0, -1.0])[:, None, None]
    om = stepper.omega[None, :, :]
    u = coeffs * np.exp(1j * sgn * t * om)
    u = u * np.exp(1j * sgn * (dt / 2.0) * om)
    if stepper.nonlinear:
        k1 = kick_reference(stepper, u)
        k2 = kick_reference(stepper, u + (dt / 2.0) * k1[None, :, :])
        u = u + dt * k2[None, :, :]
    u = u * np.exp(1j * sgn * (dt / 2.0) * om)
    return t + dt, u * np.exp(-1j * sgn * (t + dt) * om)


def discrete_energy(stepper, state) -> tuple[float, float]:
    """The energy that ``FullStepper``'s splitting nearly conserves, and its
    cubic term: with u~ = e^(i t om) f,
    E = (4 pi)^-1 dxi sum |u~|^2 - 1/3 dx sum_x sum_q w_q u(x, y_q)^3, u at
    the cubic nodes y_q with total weights w_q.  Both sums are exact on the
    2/3-rule band: the rule integrates degree 3 max_mode in x2, and the
    x1-frequencies of u^3 stay below n, so the x1 sum does not alias."""
    grid, basis = stepper.grid, stepper.grid.basis
    u = np.exp(1j * state.time * stepper.omega) * state.coeffs
    quadratic = grid.dxi * float(np.sum(np.abs(u) ** 2)) / (4.0 * math.pi)
    phys = np.fft.ifft(u * (grid.n_x1 / grid.length_x1) * grid.alt / stepper.omega, axis=1).imag
    vals = basis.cubic_phi[:stepper.n_modes].T @ phys                # (Qc, n)
    cubic = -grid.dx * float(np.sum(basis.cubic_total_weights[:, None] * vals ** 3)) / 3.0
    return quadratic + cubic, cubic


def resonant_rhs_reference(grid, triples, coeffs: np.ndarray, s: float) -> np.ndarray:
    """The unit-coupling resonant right-hand side on both components (2, P, n),
    one triple at a time with dense ``interp_matrix`` legs: output sigma of
    mode p reads the field components (-sigma a, -sigma b) of modes m and n
    at lam xi and (1-lam) xi, wherever both lie in the window, and carries
    K ab sqrt(2 pi/(s |D|)) e^(i pi/4 (-sigma) sgn D)."""
    from reslab.evolution import K_PREF
    from reslab.phase import d2_at_stationary

    out = np.zeros_like(coeffs)
    bound = grid.xi_max * (1.0 + 1e-12)
    for tr in triples:
        lam = tr.lam
        idx = np.nonzero((np.abs(lam * grid.xi) <= bound)
                         & (np.abs((1.0 - lam) * grid.xi) <= bound))[0]
        if idx.size == 0:
            continue
        xs = grid.xi[idx]
        em = interp_matrix(grid, lam * xs) / np.sqrt((lam * xs) ** 2 + 2.0 * tr.m + 2.0)[:, None]
        en = interp_matrix(grid, (1.0 - lam) * xs) \
            / np.sqrt(((1.0 - lam) * xs) ** 2 + 2.0 * tr.n + 2.0)[:, None]
        d_signed = d2_at_stationary(tr.m, tr.n, tr.alpha, tr.beta, xs)
        kernel = K_PREF * tr.alpha * tr.beta * np.sqrt(2.0 * math.pi / (s * np.abs(d_signed)))
        for comp, sigma in enumerate((1, -1)):
            comp_m = 0 if -sigma * tr.alpha == 1 else 1
            comp_n = 0 if -sigma * tr.beta == 1 else 1
            fresnel = np.exp(1j * (math.pi / 4.0) * -sigma * np.sign(d_signed))
            out[comp, tr.p, idx] += (kernel * fresnel * (em @ coeffs[comp_m, tr.m])
                                     * (en @ coeffs[comp_n, tr.n]))
    return out
