"""Independent oracles and reference implementations used by the test suite.

Everything here deliberately avoids the package's own computational paths:
Hermite functions come from scipy's polynomial evaluation, integrals from
adaptive quadrature, the resonance scan is a vectorized cubic brute force,
derivatives are Richardson-extrapolated differences, and the reference PDE
solver is a leapfrog scheme with a uniform finite-difference trap direction.
The two-component references carry both traveling components, build the
"-" one by their own conjugate mirror, and compute the kick with complex
transforms and matmuls; the unfolded Strang step rotates with four separate
exponentials, as the splitting is written on paper.  The triple-table
oracle is the exception: it walks the per-p Gram matmul of
``TripleProductTable`` into a dict one entry at a time and writes one sorted
row at a time with ``%d,%d,%d,%.17g``, against the table's run layout and
per-run templates, and so must agree with it byte for byte.

The package holds only what the CLI runs, so the reference implementations,
cross-checks and reference scales of the paper that no command computes live
here as well: the x1 transforms ``forward_x1``/``inverse_x1``; the
physical-space Fourier-Hermite transforms ``forward``/``inverse`` on a plain
Gauss-Hermite rule of their own (``plain_rule``, at least 40 nodes), which
warn with ``ConfinementWarning`` on a field that is not trap-confined; the
weighted Sobolev norm; the bilinear Duhamel convolution ``duhamel_kernel``
and its phase ``duhamel_phase``; the Hermite eigen-residual, the interaction
decay envelope, the closed-form phase derivatives the phase module does not
need, the closed form of the kinked stationary-phase integral, the phase
floor, the non-stationary bound, the physical-space frequency derivative and
the massless resonance condition.
"""

from __future__ import annotations

import cmath
import math
import warnings
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
    from reslab.hermite import triple_product

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


def duhamel_kernel(fm: np.ndarray, fn: np.ndarray, params, s: float, sign: int,
                   grid, xi_out: np.ndarray | None = None) -> np.ndarray:
    """Direct quadrature, for each output frequency xi, of

        int e^(i s psi(eta)) fm~(eta)/<eta>_m fn~(xi-eta)/<xi-eta>_n deta,

    psi = -sign phi(xi, .) the ``duhamel_phase`` (so sign must be +-1), with
    fm~, fn~ band-limited interpolants (``transform.interp_matrix``) of the
    coefficient arrays, on 32-point Gauss-Legendre panels over the window.
    The prefactors (alpha beta, coupling, -1/(8 pi)) are the caller's
    business.  This is the calibration target of the resonant kernel.
    """
    from reslab.phase import bracket
    from reslab.transform import interp_matrix

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


def nonstationary_bound(spec, gradient_floor: float, amplitude_deriv=None) -> float:
    """Upper bound sqrt(rho)/(t m) (||F||_2 + ||F'||_2) on the integral of
    ``spec`` when |psi'| >= m = ``gradient_floor`` on its support of radius
    rho; F' is ``amplitude_deriv``, or a centered difference without one."""
    a, b = spec.domain()
    rho = 0.5 * (b - a) if spec.cutoff is None else spec.cutoff.radius
    nodes, weights = leggauss(64)
    x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    w = 0.5 * (b - a) * weights
    h = 1e-6 * (1.0 + abs(b - a))
    deriv = amplitude_deriv or (lambda y: (np.asarray(spec.amplitude(y + h), complex)
                                           - np.asarray(spec.amplitude(y - h), complex))
                                / (2.0 * h))
    norms = [math.sqrt(float(np.sum(w * np.abs(np.asarray(g(x), complex)) ** 2)))
             for g in (spec.amplitude, deriv)]
    return math.sqrt(rho) / (spec.time * gradient_floor) * sum(norms)


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


def resonant_rhs_reference(stepper, coeffs: np.ndarray, s: float) -> np.ndarray:
    """``ResonantStepper`` right-hand side on both components (2, P, n): output
    sigma reads the field components (-sigma a, -sigma b) and carries the
    Fresnel factor e^(i pi/4 (-sigma) sgn D)."""
    from reslab.phase import d2_at_stationary

    out = np.zeros_like(coeffs)
    for p, slots_p in enumerate(stepper.slots):
        for slot in slots_p:
            tr = slot.triple
            xs = stepper.grid.xi[slot.idx]
            sgn_d = np.sign(d2_at_stationary(tr.m, tr.n, tr.alpha, tr.beta, xs))
            for comp, sigma in enumerate((1, -1)):
                comp_m = 0 if -sigma * tr.alpha == 1 else 1
                comp_n = 0 if -sigma * tr.beta == 1 else 1
                fresnel = np.exp(1j * (math.pi / 4.0) * -sigma * sgn_d)
                out[comp, p, slot.idx] += (slot.kernel * fresnel / math.sqrt(s)
                                           * (slot.em @ coeffs[comp_m, tr.m])
                                           * (slot.en @ coeffs[comp_n, tr.n]))
    return out
