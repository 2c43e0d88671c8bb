"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own computational paths:
Hermite functions come from scipy's polynomial evaluation, integrals from
adaptive quadrature, the resonance scan is a vectorized cubic brute force,
derivatives are Richardson-extrapolated differences, and the reference PDE
solver is a leapfrog scheme with a uniform finite-difference trap direction.
The unfolded Strang step keeps the stepper's nonlinear kick but rotates with
four separate exponentials, as the splitting is written on paper.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import eval_hermite


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


def leapfrog_reference(grid, state0, n_modes: int, t_end: float, dt: float,
                       n_x2: int = 257, x2_extent: float = 8.0):
    """Independent discretization of the trapped Klein-Gordon equation:
    leapfrog in time on u itself, uniform-grid fourth-order finite differences
    in the trapped direction, spectral collocation in x1 on the same grid.

    Returns (x2 grid, u at t_end sampled on x1-grid x x2-grid).
    """
    from reslab.hermite import hermite_table
    from reslab.transform import inverse_x1

    x2 = np.linspace(-x2_extent, x2_extent, n_x2)
    h2 = x2[1] - x2[0]
    omega = np.sqrt(grid.xi[None, :] ** 2 + (2.0 * np.arange(n_modes) + 2.0)[:, None])
    phi_x2 = hermite_table(n_modes - 1, x2)

    def to_phys(coeff_rows):
        return (inverse_x1(grid, coeff_rows.T) @ phi_x2).real

    u0 = to_phys((state0.coeffs[0] - state0.coeffs[1]) / (2j * omega))
    v0 = to_phys((state0.coeffs[0] + state0.coeffs[1]) / 2.0)

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
    from reslab.transform import inverse_x1

    omega = np.sqrt(grid.xi[None, :] ** 2 + (2.0 * np.arange(n_modes) + 2.0)[:, None])
    sgn = np.array([1.0, -1.0])[:, None, None]
    trav = state.coeffs * np.exp(1j * sgn * state.time * omega[None, :, :])
    mode = (trav[0] - trav[1]) / (2j * omega)
    return (inverse_x1(grid, mode.T) @ hermite_table(n_modes - 1, x2)).real


def strang_step_reference(stepper, state, dt: float):
    """One unfolded Strang step of ``FullStepper``: profile -> traveling
    variables, half rotation, midpoint kick, half rotation, back to the
    profile.  Returns (time, coefficients)."""
    t = state.time
    sgn = np.array([1.0, -1.0])[:, None, None]
    om = stepper.omega[None, :, :]
    u = state.coeffs * np.exp(1j * sgn * t * om)
    u = u * np.exp(1j * sgn * (dt / 2.0) * om)
    if stepper.nonlinear:
        k1 = stepper._nonlinear_rhs(u)
        k2 = stepper._nonlinear_rhs(u + (dt / 2.0) * k1[None, :, :])
        u = u + dt * k2[None, :, :]
    u = u * np.exp(1j * sgn * (dt / 2.0) * om)
    return t + dt, u * np.exp(-1j * sgn * (t + dt) * om)
