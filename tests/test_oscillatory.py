import math

import numpy as np
import pytest

from oracles import (duhamel_kernel, duhamel_phase, forward_x1, inverse_x1,
                     kinked_gaussian_exact, nonstationary_bound, refine_edges_per_panel,
                     uniform_panel_edges)
from reslab import oscillatory
from reslab.errors import DegenerateStationaryPoint, ResolutionError
from reslab.hermite import HermiteBasis
from reslab.oscillatory import (_CHUNK, _GL_NODES, _GL_ORDER, _GL_WEIGHTS,
                                _PHASE_BUDGET, C_SP, OscIntegralSpec, PhaseCurve,
                                SmoothBump, _panel_edges, fresnel_gaussian_spec, quadrature_oscillatory,
                                stat_phase_decay_table,
                                stationary_phase_leading)
from reslab.phase import PhaseParams, d2_at_stationary, lambda_coeff
from reslab.transform import Grid, interp_matrix


def fresnel_exact(t: float) -> complex:
    return complex(np.sqrt(np.pi / (1.0 - 1j * t)))


def test_gaussian_no_oscillation():
    spec = fresnel_gaussian_spec(0.0)
    assert quadrature_oscillatory(spec) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


@pytest.mark.parametrize("t", [10.0, 100.0])
def test_fresnel_gaussian_closed_form(t):
    val = quadrature_oscillatory(fresnel_gaussian_spec(t))
    assert abs(val - fresnel_exact(t)) <= 1e-6 * abs(fresnel_exact(t))


@pytest.mark.parametrize("t", [10.0, 1e2, 1e3, 1e4])
def test_fresnel_gaussian_closed_form_to_rounding(t):
    val = quadrature_oscillatory(fresnel_gaussian_spec(t))
    assert abs(val - fresnel_exact(t)) <= 1e-12 * abs(fresnel_exact(t))


def test_gauss_legendre_exact_at_phase_budget():
    # 32-point remainder for e^(i kappa x) on [-1, 1] is about 1.3e-108 kappa^64:
    # 2.9e-20 at kappa = 24, the half-width phase of a _PHASE_BUDGET panel
    kappa = _PHASE_BUDGET / 2.0
    val = np.sum(_GL_WEIGHTS * np.exp(1j * kappa * _GL_NODES))
    assert abs(val - 2.0 * math.sin(kappa) / kappa) <= 1e-15


def test_fresnel_magnitude_value():
    # |sqrt(pi/(1 - 100 i))| = 0.177240...
    assert abs(quadrature_oscillatory(fresnel_gaussian_spec(100.0))) == \
        pytest.approx(0.1772396, rel=1e-5)


def test_zero_amplitude():
    spec = OscIntegralSpec(
        phase=PhaseCurve(psi=lambda x: x * x, dpsi=lambda x: 2 * x, d2psi=lambda x: 2.0),
        amplitude=lambda x: 0.0 * np.asarray(x), time=50.0, window=(-8.0, 8.0))
    assert quadrature_oscillatory(spec) == 0.0


def test_resolution_doubling_stability(monkeypatch):
    spec = fresnel_gaussian_spec(100.0)
    v1 = quadrature_oscillatory(spec)
    monkeypatch.setattr(oscillatory, "_panel_edges",
                        lambda *args: refine_edges_per_panel(_panel_edges(*args), 2))
    v2 = quadrature_oscillatory(spec)
    assert abs(v1 - v2) <= 1e-9 * abs(v1)


def kinked_edges(t: float, layout=_panel_edges) -> np.ndarray:
    """Panel edges of the kinked Gaussian family at time t, as
    ``quadrature_oscillatory`` lays them out."""
    spec = fresnel_gaussian_spec(t, kink=True)
    a, b = spec.window
    return layout(a, b, t, np.abs(spec.phase.dpsi(np.linspace(a, b, 2049))), (0.0,))


@pytest.mark.parametrize("t", [1e2, 1e4])
def test_panels_carry_at_most_the_phase_budget(t):
    edges = kinked_edges(t)
    x = edges[:-1, None] + np.diff(edges)[:, None] * np.linspace(0.0, 1.0, 33)[None, :]
    dpsi = np.abs(fresnel_gaussian_spec(t, kink=True).phase.dpsi(x)).max(axis=1)
    assert np.all(t * dpsi * np.diff(edges) <= _PHASE_BUDGET * (1.0 + 1e-9))


def test_local_layout_uses_fewer_panels_than_uniform():
    assert kinked_edges(1e4).size - 1 <= 0.4 * (kinked_edges(1e4, uniform_panel_edges).size - 1)


def test_decay_table_layout_node_count():
    # the 16-point rule at 12 radians laid out 2 580 768 nodes over the five
    # times; the 32-point rule at 48 radians needs about half of them
    times = (100.0, 316.23, 1000.0, 3162.3, 10000.0)
    nodes = sum(kinked_edges(t).size - 1 for t in times) * _GL_ORDER
    assert nodes <= 0.51 * 2_580_768


def test_decay_table_matches_kinked_closed_form():
    # the breakpoint-graded panels resolve the |x|^(1/2) kink at the stationary
    # point to rounding, at every time of the table
    rows = stat_phase_decay_table()["rows"]
    assert [row["t"] for row in rows] == [100.0, 316.23, 1000.0, 3162.3, 10000.0]
    for row in rows:
        exact = kinked_gaussian_exact(row["t"])
        value = complex(row["quadrature_re"], row["quadrature_im"])
        assert abs(value - exact) <= 1e-12 * abs(exact), row["t"]


def test_decay_table_matches_uniform_layout(monkeypatch):
    local = stat_phase_decay_table()
    monkeypatch.setattr(oscillatory, "_panel_edges", uniform_panel_edges)
    uniform = stat_phase_decay_table()
    for row, ref in zip(local["rows"], uniform["rows"]):
        for key, value in ref.items():
            assert abs(row[key] - value) <= 1e-11 * abs(value), key


def test_chunk_pool_independent_of_thread_count():
    spec = fresnel_gaussian_spec(1e4, kink=True)
    panels = kinked_edges(spec.time).size - 1
    # more chunks than the largest pool, so every pool splits the integral
    threads = (1, 2, 3)
    assert math.ceil(panels / (_CHUNK // _GL_ORDER)) >= 2 * max(threads)
    values = [quadrature_oscillatory(spec, breakpoints=(0.0,), threads=k) for k in threads]
    assert values[0] == values[1] == values[2]


def test_thread_map_results_independent_of_thread_count():
    serial = stat_phase_decay_table(times=(100.0, 1000.0), threads=1)
    threaded = stat_phase_decay_table(times=(100.0, 1000.0), threads=4)
    assert serial == threaded


def test_resolution_error_on_budget():
    spec = fresnel_gaussian_spec(1e9)
    with pytest.raises(ResolutionError):
        quadrature_oscillatory(spec)


def test_leading_term_fresnel():
    spec = fresnel_gaussian_spec(100.0)
    lead = stationary_phase_leading(spec, 0.0)
    assert abs(lead) == pytest.approx(math.sqrt(math.pi / 100.0), rel=1e-13)
    assert np.angle(lead) == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert C_SP == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-15)


def test_leading_term_large_t_agreement():
    spec = fresnel_gaussian_spec(10000.0)
    lead = stationary_phase_leading(spec, 0.0)
    quad = quadrature_oscillatory(spec)
    assert abs(lead) == pytest.approx(math.sqrt(math.pi) / 100.0, rel=1e-13)
    assert abs(quad) == pytest.approx(abs(lead), rel=1e-3)


def test_leading_term_vanishing_amplitude():
    spec = OscIntegralSpec(
        phase=PhaseCurve(psi=lambda x: x * x, dpsi=lambda x: 2 * x,
                         d2psi=lambda x: 2.0),
        amplitude=lambda x: np.asarray(x) ** 2 * np.exp(-np.asarray(x) ** 2),
        time=100.0, window=(-8.0, 8.0))
    assert stationary_phase_leading(spec, 0.0) == 0.0


def test_leading_term_guards():
    spec = fresnel_gaussian_spec(100.0)
    with pytest.raises(ValueError):
        stationary_phase_leading(spec, 1.0)   # psi'(1) != 0
    cubic = OscIntegralSpec(
        phase=PhaseCurve(psi=lambda x: x ** 3, dpsi=lambda x: 3.0 * np.asarray(x) ** 2,
                         d2psi=lambda x: 6.0 * np.asarray(x)),
        amplitude=lambda x: np.exp(-np.asarray(x) ** 2), time=100.0,
        window=(-8.0, 8.0))
    with pytest.raises(DegenerateStationaryPoint):
        stationary_phase_leading(cubic, 0.0)


def test_decay_law_exponent():
    result = stat_phase_decay_table(times=(100.0, 1000.0, 10000.0))
    assert result["fitted_exponent"] == pytest.approx(-0.75, abs=0.15)


def test_fresnel_remainder_times_t34_bounded():
    # |quadrature - leading| * t^(3/4) stays bounded on the plain Gaussian
    # family (its remainder actually decays faster, like t^(-3/2))
    vals = []
    for t in (100.0, 1000.0, 10000.0):
        spec = fresnel_gaussian_spec(t)
        diff = abs(quadrature_oscillatory(spec) - stationary_phase_leading(spec, 0.0))
        vals.append(diff * t ** 0.75)
    assert vals[0] == max(vals)
    assert max(vals) < 1.0


def test_nonstationary_bound_example():
    spec = OscIntegralSpec(
        phase=PhaseCurve(psi=lambda x: np.asarray(x, float),
                         dpsi=lambda x: np.ones_like(np.asarray(x, float)),
                         d2psi=lambda x: np.zeros_like(np.asarray(x, float))),
        amplitude=lambda x: np.exp(-np.asarray(x, float) ** 2),
        time=50.0, cutoff=SmoothBump(2.0, 1.0))
    deriv = lambda x: -2.0 * np.asarray(x, float) * np.exp(-np.asarray(x, float) ** 2)
    bound = nonstationary_bound(spec, 1.0, deriv)
    assert abs(quadrature_oscillatory(spec)) <= bound
    # bound halves when t doubles
    spec2 = OscIntegralSpec(phase=spec.phase, amplitude=spec.amplitude,
                            time=100.0, cutoff=spec.cutoff)
    assert nonstationary_bound(spec2, 1.0, deriv) == pytest.approx(bound / 2.0, rel=1e-12)


def test_nonstationary_bound_randomized():
    rng = np.random.default_rng(123)
    for _ in range(100):
        center = rng.uniform(1.0, 4.0)
        radius = rng.uniform(0.5, 2.0)
        slope = rng.uniform(0.5, 2.0)
        curv = rng.uniform(0.0, 0.3)
        t = rng.uniform(20.0, 200.0)
        a = rng.uniform(0.3, 2.0)
        phase = PhaseCurve(
            psi=lambda x, s=slope, c=curv: s * np.asarray(x, float)
            + c * np.asarray(x, float) ** 3 / 3.0,
            dpsi=lambda x, s=slope, c=curv: s + c * np.asarray(x, float) ** 2,
            d2psi=lambda x, c=curv: 2.0 * c * np.asarray(x, float))
        amp = lambda x, a=a: np.exp(-a * np.asarray(x, float) ** 2)
        spec = OscIntegralSpec(phase=phase, amplitude=amp, time=t,
                               cutoff=SmoothBump(center, radius))
        lo, hi = spec.domain()
        floor = float(np.min(np.abs(phase.dpsi(np.linspace(lo, hi, 512))))) * 0.999
        assert floor > 0
        bound = nonstationary_bound(spec, floor)
        assert abs(quadrature_oscillatory(spec)) <= bound


def test_smooth_bump_shape():
    bump = SmoothBump(0.0, 2.0)
    assert bump(0.0) == pytest.approx(1.0)
    assert bump(2.0) == 0.0 and bump(-2.5) == 0.0
    x = np.linspace(-1.99, 1.99, 2001)
    slopes = np.diff(bump(x)) / np.diff(x)
    assert np.max(np.abs(slopes)) <= 2.2 / 2.0   # documented slope scale


@pytest.fixture(scope="module")
def duh_grid():
    return Grid(64, 16.0, HermiteBasis.build(8))


@pytest.fixture(scope="module")
def duh_fields(duh_grid):
    fm = np.asarray(math.sqrt(2 * math.pi) * np.exp(-0.5 * duh_grid.xi ** 2), complex)
    fn = np.asarray(math.sqrt(2 * math.pi) * np.exp(-0.3 * duh_grid.xi ** 2)
                    * (1.0 + 0.3j), complex)
    return fm, fn


def test_duhamel_plain_convolution_oracle(duh_grid, duh_fields):
    fm, fn = duh_fields
    params = PhaseParams(0, 0, 3, -1, -1)
    kernel = duhamel_kernel(fm, fn, params, 0.0, 1, duh_grid)
    am = inverse_x1(duh_grid, fm / np.sqrt(duh_grid.xi ** 2 + 2.0))
    bn = inverse_x1(duh_grid, fn / np.sqrt(duh_grid.xi ** 2 + 2.0))
    oracle = 2.0 * math.pi * forward_x1(duh_grid, am * bn)
    assert np.max(np.abs(kernel - oracle)) <= 1e-8 * np.max(np.abs(oracle))


def test_duhamel_zero_input(duh_grid, duh_fields):
    fm, _ = duh_fields
    params = PhaseParams(0, 0, 3, -1, -1)
    out = duhamel_kernel(fm, 0.0 * fm, params, 3.0, 1, duh_grid)
    assert np.all(out == 0.0)


def test_duhamel_bilinearity(duh_grid, duh_fields):
    fm, fn = duh_fields
    params = PhaseParams(1, 2, 3, -1, 1)
    xi_out = np.array([0.0, 1.2])
    k1 = duhamel_kernel(2.0 * fm, fn, params, 2.0, 1, duh_grid, xi_out=xi_out)
    k2 = duhamel_kernel(fm, fn, params, 2.0, 1, duh_grid, xi_out=xi_out)
    assert np.allclose(k1, 2.0 * k2, rtol=1e-13)
    k3 = duhamel_kernel(fm, fn + 0.5 * fm, params, 2.0, 1, duh_grid, xi_out=xi_out)
    k4 = duhamel_kernel(fm, 0.5 * fm, params, 2.0, 1, duh_grid, xi_out=xi_out)
    assert np.allclose(k3, k2 + k4, rtol=1e-12)


def test_duhamel_conjugation_symmetry(duh_grid):
    rng = np.random.default_rng(3)
    # Hermitian-symmetric arrays (real in physical space)
    idx = (-np.arange(64)) % 64
    fm = (rng.normal(size=64) + 1j * rng.normal(size=64)) * np.exp(-0.4 * duh_grid.xi ** 2)
    fm = 0.5 * (fm + np.conj(fm[idx]))
    fn = (rng.normal(size=64) + 1j * rng.normal(size=64)) * np.exp(-0.5 * duh_grid.xi ** 2)
    fn = 0.5 * (fn + np.conj(fn[idx]))
    params = PhaseParams(0, 1, 2, -1, -1)
    xi_out = np.array([0.7, -1.3])
    k_plus = duhamel_kernel(fm, fn, params, 2.5, 1, duh_grid, xi_out=-xi_out)
    k_minus = duhamel_kernel(fm, fn, params, 2.5, -1, duh_grid, xi_out=xi_out)
    assert np.allclose(k_minus, np.conj(k_plus), rtol=1e-10)


@pytest.mark.parametrize("s", [200.0, 500.0])
def test_duhamel_resonant_stationary_phase(duh_grid, duh_fields, s):
    # on a resonant triple at xi = 0 the kernel magnitude approaches the
    # stationary-phase prediction sqrt(2 pi/(s |d2|)) |fm(0) fn(0)| / <0><0>
    fm, fn = duh_fields
    params = PhaseParams(0, 0, 3, -1, -1)
    val = duhamel_kernel(fm, fn, params, s, 1, duh_grid, xi_out=np.array([0.0]))[0]
    d2 = d2_at_stationary(0, 0, -1, -1, 0.0)
    lead = (math.sqrt(2.0 * math.pi / (s * abs(d2)))
            * np.exp(1j * (math.pi / 4.0) * np.sign(-d2))
            * (fm[0] / math.sqrt(2.0)) * (fn[0] / math.sqrt(2.0)))
    assert abs(val - lead) <= 0.10 * abs(lead)


def test_duhamel_phase_signs():
    params = PhaseParams(0, 0, 3, -1, -1)
    top = duhamel_phase(params, 0.5, 1)
    bottom = duhamel_phase(params, 0.5, -1)
    assert top.psi(0.2) == -bottom.psi(0.2)
    with pytest.raises(ValueError):
        duhamel_phase(params, 0.5, 2)


def test_duhamel_kernel_rejects_bad_sign(duh_grid, duh_fields):
    fm, fn = duh_fields
    with pytest.raises(ValueError):
        duhamel_kernel(fm, fn, PhaseParams(1, 2, 3, -1, 1), 1.0, 2, duh_grid)


def test_generic_stationary_phase_on_duhamel_integrand(duh_grid, duh_fields):
    # stationary_phase_leading applied to the bilinear integrand, with the
    # stationary point found numerically, matches the closed-form assembly
    from scipy.optimize import brentq
    fm, fn = duh_fields
    params = PhaseParams(0, 0, 3, -1, -1)
    xi, s = 0.8, 300.0
    lam = lambda_coeff(0, 0, -1, -1)
    curve = duhamel_phase(params, xi, 1)
    x0 = brentq(curve.dpsi, -3.0, 3.0)
    assert x0 == pytest.approx(lam * xi, abs=1e-10)

    W = duh_grid.xi_max

    def amp(eta):
        eta = np.atleast_1d(np.asarray(eta, float))
        shifted = xi - eta
        folded = (shifted + W) % (2.0 * W) - W   # same periodic fold as the kernel
        a = fm @ interp_matrix(duh_grid, eta).T / np.sqrt(eta ** 2 + 2.0)
        b = fn @ interp_matrix(duh_grid, folded).T / np.sqrt(shifted ** 2 + 2.0)
        out = a * b
        return out if out.size > 1 else complex(out[0])

    spec = OscIntegralSpec(phase=curve, amplitude=amp, time=s,
                           window=(-duh_grid.xi_max, duh_grid.xi_max))
    lead = stationary_phase_leading(spec, x0)
    d2 = d2_at_stationary(0, 0, -1, -1, xi)
    closed = (math.sqrt(2.0 * math.pi / (s * abs(d2)))
              * np.exp(1j * (math.pi / 4.0) * np.sign(-d2)) * amp(lam * xi))
    assert abs(lead - closed) <= 1e-6 * abs(closed)
    quad = quadrature_oscillatory(spec)
    assert abs(quad - lead) <= 0.15 * abs(lead)
