"""Acceptance gate: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with -s or read captured output on failure)."""

import math
import time

import numpy as np
from scipy.optimize import brentq

from oracles import (SmoothBump, brute_force_triples, cut_spec, d2phase_deta2, dphase_dxi,
                     duhamel_phase, eigen_residual, enumerate_triples, forward,
                     fresnel_gaussian_spec, interp_matrix, inverse, leapfrog_reference,
                     nonstationary_bound,
                     physical_field_on, plain_rule, richardson_d1, richardson_d2,
                     table_rows, triple_product, triple_product_at_order)
from reslab.evolution import (K_PREF, FullStepper, ResonantStepper, SimConfig,
                              init_profile, make_grid, run)
from reslab.hermite import HermiteBasis, TripleProductTable
from reslab.oscillatory import (OscIntegralSpec, PhaseCurve, kinked_gaussian_spec,
                                quadrature_oscillatory, stationary_phase_leading)
from reslab.phase import PhaseParams, dphase_deta, lambda_coeff, phase
from reslab.transform import Grid, composite_norms, hm_l2_norm


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_resonance_enumeration():
    t0 = time.time()
    fast = set(enumerate_triples(200))
    brute = brute_force_triples(200)
    identity = max(abs(math.sqrt(p + 1) - math.sqrt(m + 1) - math.sqrt(n + 1))
                   for m, n, p in fast)
    elapsed = time.time() - t0
    ok = fast == brute and identity <= 1e-12 and elapsed < 10.0
    report(1, ok, f"enumerate(200): {len(fast)} triples == brute force, "
                  f"sqrt identity {identity:.2e} <= 1e-12, {elapsed:.1f}s < 10s")


def test_criterion_2_hermite_suite():
    rule = plain_rule(60)   # built from gauss_hermite and hermite_table
    gram = (rule.phi * rule.total_weights) @ rule.phi.T
    ortho = float(np.max(np.abs(gram - np.eye(61))))

    eig = max(eigen_residual(n, np.arange(-18.0, 18.0001, 0.01)) for n in range(21))

    table = TripleProductTable(30)
    rng = np.random.default_rng(0)
    perm_ok = True
    m, n, p = table_rows(30)
    parity_ok = len(m) == len(table.entries) and bool(np.all((m + n + p) % 2 == 0))
    for _ in range(100):
        m, n, p = (int(v) for v in rng.integers(0, 31, 3))
        vals = {table.get(*q) for q in ((m, n, p), (p, n, m), (n, p, m))}
        perm_ok &= len(vals) == 1
        if (m + n + p) % 2:
            parity_ok &= table.get(m, n, p) == 0.0

    stab = 0.0
    for m, n, p in [(0, 0, 0), (10, 20, 30), (40, 40, 40), (0, 20, 40), (6, 7, 9)]:
        base = (m + n + p) // 2 + 2
        v1 = triple_product(m, n, p)
        v2 = triple_product_at_order(m, n, p, 2 * base)
        stab = max(stab, abs(v1 - v2) / max(abs(v1), 1e-2))

    ok = ortho <= 1e-10 and eig <= 1e-5 and perm_ok and parity_ok and stab <= 1e-12
    report(2, ok, f"orthonormality {ortho:.2e} <= 1e-10, eigen residual "
                  f"{eig:.2e} <= 1e-5 (n <= 20), permutation/parity exact, "
                  f"order-doubling {stab:.2e} <= 1e-12")


def test_criterion_3_transforms():
    grid = Grid(64, 16.0, HermiteBasis.build(8))
    rule = plain_rule(grid.basis.max_mode)
    field = np.exp(-0.5 * grid.x1 ** 2)[:, None] * rule.phi[0][None, :]
    coeffs = forward(grid, field)
    back = inverse(grid, coeffs)
    roundtrip = float(np.max(np.abs(back - field)) / np.max(np.abs(field)))

    phys = math.sqrt(np.sum(np.abs(field) ** 2 * grid.dx
                            * rule.total_weights[None, :]))
    parseval = abs(hm_l2_norm(coeffs, grid, 0.0) / 2.0 - phys) / phys

    rng = np.random.default_rng(1)
    N = 1.5
    sandwich_ok = True
    for _ in range(20):
        env = np.exp(-0.5 * (grid.xi / 1.5) ** 2)
        c = (rng.normal(size=(6, 64)) + 1j * rng.normal(size=(6, 64))) * env
        lower = composite_norms(c, 0.0, grid, M=N / 2.0, N=N).HM_HN
        tilde = composite_norms(c, 0.0, grid, M=N, N=N).tilde_HN
        upper = composite_norms(c, 0.0, grid, M=N, N=2.0 * N).HM_HN
        sandwich_ok &= lower <= tilde + 1e-9 and tilde <= upper + 1e-9

    ok = roundtrip <= 1e-10 and parseval <= 1e-9 and sandwich_ok
    report(3, ok, f"round trip {roundtrip:.2e} <= 1e-10, Parseval "
                  f"{parseval:.2e} <= 1e-9, norm sandwich on 20 states")


def test_criterion_4_phase_suite():
    rng = np.random.default_rng(2)
    fd_worst = 0.0
    for _ in range(1000):
        m, n, p = (int(v) for v in rng.integers(0, 31, 3))
        a, b = (int(v) for v in rng.choice([-1, 1], 2))
        xi, eta = rng.uniform(-50.0, 50.0, 2)
        pp = PhaseParams(m, n, p, a, b)
        h = 1e-3 * (1.0 + abs(xi) + abs(eta))
        for closed, fd in (
                (dphase_deta(pp, xi, eta),
                 richardson_d1(lambda e: phase(pp, xi, e), eta, h)),
                (dphase_dxi(pp, xi, eta),
                 richardson_d1(lambda x: phase(pp, x, eta), xi, h)),
                (d2phase_deta2(pp, xi, eta),
                 richardson_d2(lambda e: phase(pp, xi, e), eta, h))):
            fd_worst = max(fd_worst, abs(closed - fd) / (1.0 + abs(closed)))

    line_worst = 0.0
    for m, n, p in enumerate_triples(50):
        pp = PhaseParams(m, n, p, -1, -1)
        slope = 1.0 / lambda_coeff(m, n, -1, -1)
        for eta in (0.0, 1.0, -1.0, 10.0, -10.0):
            line_worst = max(line_worst, abs(phase(pp, slope * eta, eta)))

    grid_vals = np.linspace(-50.0, 50.0, 200)
    xi, eta = np.meshgrid(grid_vals, grid_vals)
    comparison_ok = True
    for m, n, p in enumerate_triples(50)[:10]:
        pp = PhaseParams(m, n, p, -1, -1)
        comparison_ok &= bool(np.all(np.abs(dphase_dxi(pp, xi, eta))
                                     <= np.abs(dphase_deta(pp, xi, eta)) + 1e-12))

    core_worst = 0.0
    for m, n, p in enumerate_triples(50):
        pp = PhaseParams(m, n, p, -1, -1)
        slope = 1.0 / lambda_coeff(m, n, -1, -1)
        for eta in (0.5, -1.0, 3.0, 10.0):
            core_worst = max(core_worst, abs(dphase_dxi(pp, slope * eta, eta)))

    ok = (fd_worst <= 1e-6 and line_worst <= 1e-10 and comparison_ok
          and core_worst <= 1e-10)
    report(4, ok, f"derivatives vs FD {fd_worst:.2e} <= 1e-6 (1000 samples), "
                  f"phase on resonant line {line_worst:.2e} <= 1e-10, "
                  f"|dxi phi| <= |deta phi| on 200x200 x 10 sets, "
                  f"coresonant line {core_worst:.2e} <= 1e-10")


def test_criterion_5_stationary_phase():
    t0 = time.time()
    fresnel_worst = 0.0
    for t in (10.0, 100.0):
        val = quadrature_oscillatory(fresnel_gaussian_spec(t))
        exact = complex(np.sqrt(np.pi / (1.0 - 1j * t)))
        fresnel_worst = max(fresnel_worst, abs(val - exact) / abs(exact))

    times = np.array([100.0, 316.23, 1000.0, 3162.3, 10000.0])
    diffs = []
    for t in times:
        spec = kinked_gaussian_spec(t)
        quad = quadrature_oscillatory(spec, breakpoints=(0.0,))
        lead = stationary_phase_leading(spec, 0.0)
        diffs.append(abs(quad - lead))
    exponent = float(np.polyfit(np.log(times), np.log(diffs), 1)[0])

    rng = np.random.default_rng(123)
    bound_ok = True
    for _ in range(100):
        center = rng.uniform(1.0, 4.0)
        radius = rng.uniform(0.5, 2.0)
        slope = rng.uniform(0.5, 2.0)
        curv = rng.uniform(0.0, 0.3)
        t = rng.uniform(20.0, 200.0)
        a = rng.uniform(0.3, 2.0)
        curve = PhaseCurve(
            psi=lambda x, s=slope, c=curv: s * np.asarray(x, float)
            + c * np.asarray(x, float) ** 3 / 3.0,
            dpsi=lambda x, s=slope, c=curv: s + c * np.asarray(x, float) ** 2,
            d2psi=lambda x, c=curv: 2.0 * c * np.asarray(x, float))
        amp = lambda x, a=a: np.exp(-a * np.asarray(x, float) ** 2)
        bump = SmoothBump(center, radius)
        lo, hi = bump.support
        floor = float(np.min(np.abs(curve.dpsi(np.linspace(lo, hi, 512))))) * 0.999
        bound_ok &= abs(quadrature_oscillatory(cut_spec(curve, amp, t, bump))) \
            <= nonstationary_bound(amp, bump, t, floor)

    elapsed = time.time() - t0
    ok = (fresnel_worst <= 1e-6 and abs(exponent + 0.75) <= 0.15 and bound_ok
          and elapsed < 60.0)
    report(5, ok, f"Fresnel-Gaussian {fresnel_worst:.2e} <= 1e-6, decay "
                  f"exponent {exponent:.3f} within -0.75 +- 0.15, bound held "
                  f"on 100 specs, {elapsed:.1f}s < 60s")


def test_criterion_6_integrators():
    cfg = SimConfig(eps=0.05, P=4, n_x1=64, dt=0.02, t_end=1.0,
                    init_modes=(0, 3), seed=7)
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)

    # the linear flow: the full stepper's rotations with a zero kick, in the
    # run loop's segments of 12 steps, each ending at its step-count time
    lin = FullStepper(grid, 4)
    lin._kick = lambda u, scale: np.zeros_like(u)
    s = state
    before = np.sqrt(np.sum(np.abs(s) ** 2, axis=1))
    for i in range(0, 10_000, 12):
        end = min(i + 12, 10_000)
        s = lin.step(s, i * 0.02, 0.02, end - i, end * 0.02)
    after = np.sqrt(np.sum(np.abs(s) ** 2, axis=1))
    conservation = float(np.max(np.abs(after - before)) / np.max(before))

    full = FullStepper(grid, 4)

    def run_full(dt, T=0.64):
        st = state
        for k in range(round(T / dt)):
            st = full.step(st, k * dt, dt)
        return st

    c1, c2, c3 = run_full(0.08), run_full(0.04), run_full(0.02)
    ratio_full = float(np.max(np.abs(c1 - c2)) / np.max(np.abs(c2 - c3)))

    res = ResonantStepper(grid, 4, coupling_mode="unit")

    def run_res(ds, T=1.6):
        st = state
        for k in range(round(T / ds)):
            st = res.step(st, 1.0 + k * ds, ds)
        return st

    r1, r2, r3 = run_res(0.2), run_res(0.1), run_res(0.05)
    ratio_res = float(np.max(np.abs(r1 - r2)) / np.max(np.abs(r2 - r3)))

    cfg6 = SimConfig(eps=20.0, P=6, n_x1=64, dt=0.005, t_end=1.0,
                     init_modes=(0, 1), seed=7)
    grid6 = make_grid(cfg6)
    state6 = init_profile(cfg6, grid6)
    x2, u_ref = leapfrog_reference(grid6, state6, 6, 1.0, 5e-4)
    stepper6 = FullStepper(grid6, 6, norm_ceiling=1e9)
    s6 = state6
    for k in range(200):
        s6 = stepper6.step(s6, k * 0.005, 0.005)
    ours = physical_field_on(grid6, s6, 200 * 0.005, 6, x2)
    oracle_rel = float(np.linalg.norm(ours - u_ref) / np.linalg.norm(u_ref))

    ok = (conservation <= 1e-12 and 3.5 <= ratio_full <= 4.5
          and 3.5 <= ratio_res <= 4.5 and oracle_rel <= 1e-3)
    report(6, ok, f"linear conservation {conservation:.2e} <= 1e-12 over 1e4 "
                  f"steps, Richardson ratios {ratio_full:.2f}/{ratio_res:.2f} "
                  f"in [3.5, 4.5], leapfrog oracle {oracle_rel:.2e} <= 1e-3 "
                  f"(64 x 6 modes, t = 1)")


def test_criterion_7_resonant_kernel_consistency():
    t0 = time.time()
    cfg = SimConfig(eps=0.05, P=4, n_x1=64, dt=0.02, t_end=1.0,
                    init_modes=(0, 3), seed=7)
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = ResonantStepper(grid, 4, coupling_mode="unit")
    params = PhaseParams(0, 0, 3, -1, -1)
    plus0 = state[0]
    W = grid.xi_max
    worst = 0.0
    quad_worst = 0.0
    for s in (50.0, 125.0, 200.0, 350.0, 500.0):
        rhs = stepper.rhs(state, s)
        for k in (0, 1, 2, 62, 63):
            xi = grid.xi[k]
            term = rhs[3, k] / K_PREF   # single-triple kernel, prefactor out
            curve = duhamel_phase(params, xi, 1)
            x0 = brentq(curve.dpsi, -5.0, 5.0)

            def amp(eta, xi=xi):
                eta = np.atleast_1d(np.asarray(eta, float))
                shifted = xi - eta
                folded = (shifted + W) % (2.0 * W) - W
                a = plus0 @ interp_matrix(grid, eta).T / np.sqrt(eta ** 2 + 2.0)
                b = plus0 @ interp_matrix(grid, folded).T / np.sqrt(shifted ** 2 + 2.0)
                out = a * b
                return out if out.size > 1 else complex(out[0])

            spec = OscIntegralSpec(phase=curve, amplitude=amp, time=s,
                                   window=(-W, W))
            sp_eval = stationary_phase_leading(spec, x0)
            worst = max(worst, abs(term - sp_eval) / abs(sp_eval))
            if s in (50.0, 500.0) and k in (0, 2):
                quad = quadrature_oscillatory(spec)
                quad_worst = max(quad_worst, abs(term - quad) / abs(quad))
    elapsed = time.time() - t0
    ok = worst <= 0.15 and quad_worst <= 0.15 and elapsed < 300.0
    report(7, ok, f"resonant kernel vs stationary-phase evaluation "
                  f"{worst:.2e} <= 15% at 25 (s, xi) samples (quadrature "
                  f"cross-check {quad_worst:.2%}), {elapsed:.1f}s < 5min")


def test_criterion_8_approximation_scaling():
    t0 = time.time()
    end_diffs = {}
    ratios = {}
    for eps in (0.1, 0.05, 0.025):
        cfg = SimConfig(eps=eps, P=8, n_x1=128, length_x1=16.0, dt=0.02,
                        t_end=round(1.0 / eps), s0=1.0, init_modes=(2, 3),
                        M=4.0, N=2.0, M0=1.0, out_every=0.25, seed=7)
        record = run(cfg, "compare")
        end_diffs[eps] = record.diff
        ratios[eps] = record.diff / record.tv_full
    eps_arr = np.array([0.1, 0.05, 0.025])
    d_arr = np.array([end_diffs[e] for e in eps_arr])
    exponent = float(np.polyfit(np.log(eps_arr), np.log(d_arr), 1)[0])
    decreasing = bool(d_arr[0] > d_arr[1] > d_arr[2])
    ratio_ok = all(r <= 0.10 for r in ratios.values())
    elapsed = time.time() - t0
    ok = decreasing and exponent >= 1.2 and ratio_ok and elapsed < 1800.0
    detail = ", ".join(f"eps={e}: diff={end_diffs[e]:.2e} ({ratios[e]:.1%} of TV)"
                       for e in eps_arr)
    report(8, ok, f"power-law exponent {exponent:.2f} >= 1.2, {detail}, "
                  f"{elapsed:.0f}s < 30min")
