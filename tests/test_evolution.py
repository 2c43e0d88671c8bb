import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (discrete_energy, duhamel_kernel, interp_matrix, leapfrog_reference,
                     physical_field_on, resonant_rhs_reference, strang_step_reference,
                     two_component)
import reslab.evolution as evolution
from reslab.errors import BlowupDetected, ConfigError
from reslab.evolution import (K_PREF, FullStepper, ResonantStepper, SimConfig,
                              _check_ceiling, config_from_json, init_profile, make_grid,
                              run, seed_uniforms)
from reslab.hermite import _cubic_rule
from reslab.phase import d2_at_stationary, lambda_coeff
from reslab.triples import interactions_for_output
from reslab.transform import Grid, composite_norms


@pytest.fixture(scope="module")
def small_cfg():
    return SimConfig(eps=0.05, P=4, n_x1=64, length_x1=16.0, dt=0.02,
                     t_end=1.0, init_modes=(0, 3), M=4.0, N=2.0, seed=7)


@pytest.fixture(scope="module")
def small_setup(small_cfg):
    grid = make_grid(small_cfg)
    return grid, init_profile(small_cfg, grid)


def test_config_validation_reports_pointers():
    # a SimConfig is valid by construction, built directly or by replace
    for build in (lambda: SimConfig(dt=0.0, P=0, gate="nope"),
                  lambda: dataclasses.replace(SimConfig(), dt=0.0, P=0, gate="nope")):
        with pytest.raises(ConfigError) as exc:
            build()
        assert [p for p, _ in exc.value.issues] == ["/P", "/dt", "/gate", "/init_modes"]


def test_config_hypothesis_warnings():
    warns = SimConfig(M=2.0, N=1.0).warnings()
    assert any("M > 3" in w for w in warns)
    assert any("M > 6" in w for w in warns)
    assert any("N >= 3/2" in w for w in warns)


def test_init_profile_norm_and_reality(small_cfg, small_setup):
    grid, state = small_setup
    norm = composite_norms(state, 0.0, grid, small_cfg.M, small_cfg.N).S_MN_t
    assert norm == pytest.approx(small_cfg.eps / 2.0, rel=1e-10)
    assert state.shape == (small_cfg.P, small_cfg.n_x1)


def test_init_profile_single_mode_literal():
    cfg = SimConfig(eps=0.1, P=4, n_x1=64, dt=0.02, t_end=1.0, init_modes=(0,))
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    norm = composite_norms(state, 0.0, grid, cfg.M, cfg.N).S_MN_t
    assert norm == pytest.approx(0.05, rel=1e-10)


def test_init_profile_zero_eps():
    cfg = SimConfig(eps=0.0, P=4, n_x1=64, t_end=1.0, dt=0.02, init_modes=(0,))
    state = init_profile(cfg, make_grid(cfg))
    assert np.all(state == 0.0)


def test_init_profile_non_finite_norm_raises(small_cfg):
    # the weight (2P)^(2M) is finite, its product with the state is not;
    # scaling eps/2 by 1/inf would start the run at zero
    cfg = dataclasses.replace(small_cfg, M=170.6, n_x1=32)
    with pytest.raises(BlowupDetected, match="norm inf"):
        init_profile(cfg, make_grid(cfg))


def test_init_profile_deterministic(small_cfg):
    a = init_profile(small_cfg, make_grid(small_cfg))
    b = init_profile(small_cfg, make_grid(small_cfg))
    assert np.array_equal(a, b)


def test_seed_stream_matches_pcg64():
    # numpy's SeedSequence -> PCG64 -> random(), draw for draw: one-word
    # seeds, both sides of every 32-bit word boundary up to eight words, and
    # seeds of up to 400 bits, whose words past the fourth mix in last
    rng = random.Random(31)
    seeds = list(range(256)) + [2 ** (32 * k) + d for k in range(1, 9) for d in (-1, 1)]
    seeds += [rng.getrandbits(bits) for bits in range(1, 401, 3)]
    for seed in seeds:
        reference = np.random.Generator(np.random.PCG64(seed))
        draws = list(itertools.islice(seed_uniforms(seed), 8))
        assert draws == [reference.random() for _ in range(8)], seed


def _coeffs_with_default_rng(config, grid) -> np.ndarray:
    """init_profile's coefficients, drawn by numpy's own generator."""
    rng = np.random.default_rng(config.seed)
    coeffs = np.zeros((config.P, grid.n_x1), dtype=complex)
    packet = np.exp(-0.5 * (grid.xi / config.packet_width) ** 2)
    for p in config.init_modes:
        amp = 0.5 + 0.5 * rng.random()
        theta = 2.0 * math.pi * rng.random()
        coeffs[p] = amp * np.exp(1j * theta) * packet
    coeffs[:, np.abs(np.fft.fftfreq(grid.n_x1, d=1.0 / grid.n_x1)) > grid.n_x1 / 3.0] = 0.0
    norm = composite_norms(coeffs, 0.0, grid, config.M, config.N).S_MN_t
    return coeffs * ((config.eps / 2.0) / norm)


def test_init_profile_draws_as_default_rng():
    desk = Path(__file__).parents[1] / "configs" / "compare_desk.json"
    configs = [config_from_json(json.loads(desk.read_text()))[0]]
    configs += [SimConfig(P=8, n_x1=64, t_end=1.0, seed=seed, init_modes=modes)
                for seed, modes in [(0, (0,)), (7, (0, 3)), (255, (1, 2, 3)),
                                    (2 ** 64 + 1, tuple(range(8))), (10 ** 30, (5, 2))]]
    for config in configs:
        grid = make_grid(config)
        assert np.array_equal(init_profile(config, grid),
                              _coeffs_with_default_rng(config, grid)), config


def _linear_stepper(grid, n_modes):
    """A full stepper whose kick is zero: its steps are the rotations of the
    linear flow alone, which leave the profile f invariant."""
    stepper = FullStepper(grid, n_modes)
    stepper._kick = lambda u, scale: np.zeros_like(u)
    return stepper


def test_linear_flow_profile_invariant(small_setup):
    grid, state = small_setup
    stepper = _linear_stepper(grid, 4)
    dt = 0.02
    # one segment of the rotations returns f
    seg = stepper.step(state, 0.1, dt, 12)
    assert seg is not state
    assert np.max(np.abs(seg - state)) <= 1e-14 * np.max(np.abs(state))
    # t -> t' -> t'' in two segments, the second entering by the cached exit
    # rotation of the first, matches one segment t -> t''
    t1, t2 = 0.1 + 5 * dt, 0.1 + 12 * dt
    two = stepper.step(stepper.step(state, 0.1, dt, 5, t1), t1, dt, 7, t2)
    one = _linear_stepper(grid, 4).step(state, 0.1, dt, 12, t2)
    assert np.max(np.abs(two - one)) <= 1e-14 * np.max(np.abs(state))
    # 10^4 steps in segments of 12 keep the per-mode norms
    s = state
    per_mode0 = np.sqrt(np.sum(np.abs(s) ** 2, axis=1))
    for i in range(0, 10_000, 12):
        end = min(i + 12, 10_000)
        s = stepper.step(s, i * dt, dt, end - i, end * dt)
    per_mode1 = np.sqrt(np.sum(np.abs(s) ** 2, axis=1))
    assert np.max(np.abs(per_mode1 - per_mode0)) <= 1e-12 * np.max(per_mode0)


def test_cached_exit_rotation_gives_the_bytes_of_a_fresh_stepper():
    # a run's next segment enters by the exit rotation its stepper kept; a
    # resumed run's fresh stepper computes it by the same exp, so the two
    # step the same bytes.  A key of another dt is not taken for it
    cfg = SimConfig(eps=20.0, P=6, n_x1=64, dt=0.02, t_end=1.0, init_modes=(0, 3))
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = FullStepper(grid, 6)
    mid = stepper.step(state, 0.0, cfg.dt, 12, 12 * cfg.dt)
    cached = stepper.step(mid, 12 * cfg.dt, cfg.dt, 13, 25 * cfg.dt)
    fresh = FullStepper(grid, 6).step(mid, 12 * cfg.dt, cfg.dt, 13, 25 * cfg.dt)
    assert np.array_equal(cached, fresh)
    assert not np.array_equal(cached, mid)
    # the segment ends at the t_next it is given: with a zero kick, ending
    # 0.5 past t + steps dt rotates the profile by e^(-0.5 i om)
    linear = _linear_stepper(grid, 6)
    late = linear.step(state, 0.0, cfg.dt, 12, 12 * cfg.dt + 0.5)
    expected = state * np.exp(-0.5j * stepper.omega)
    assert np.max(np.abs(late - expected)) <= 1e-14 * np.max(np.abs(state))
    back = stepper.step(cached, 25 * cfg.dt, -cfg.dt, 13, 12 * cfg.dt)
    assert np.array_equal(back, FullStepper(grid, 6).step(cached, 25 * cfg.dt, -cfg.dt, 13,
                                                          12 * cfg.dt))
    assert np.max(np.abs(back - mid)) <= 1e-12 * np.max(np.abs(mid))


def test_linear_step_returns_coefficients_exactly(small_setup):
    # no step writes to its input, so the idle flow need not copy it
    grid, state = small_setup
    start = state.copy()
    linear = FullStepper(grid, 4, nonlinear=False)
    assert linear.step(state, 0.0, 0.02) is state
    assert linear.step(state, 1.0, 0.02, 7) is state
    assert np.array_equal(state, start)


def test_folded_step_matches_unfolded_strang():
    cfg = SimConfig(eps=20.0, P=6, n_x1=64, dt=0.02, t_end=1.0, init_modes=(0, 3))
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = FullStepper(grid, 6)
    folded = state
    ref_t, ref = 0.0, two_component(state)
    for _ in range(50):
        folded = stepper.step(folded, ref_t, cfg.dt)
        ref_t, ref = strang_step_reference(stepper, ref, ref_t, cfg.dt)
        assert np.max(np.abs(folded - ref[0])) <= 1e-13 * np.max(np.abs(ref))
    # the kicks moved f far beyond the tolerance, so the comparison is not vacuous
    assert np.max(np.abs(ref[0] - state)) >= 1e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("P,n_x1,length_x1", [(8, 128, 16.0), (32, 1024, 128.0)])
def test_kick_leaves_physical_field_unchanged(P, n_x1, length_x1):
    # the nonlinear sub-flow forces u_t only, so one kick solves it exactly:
    # the midpoint's inner kick moves the field, and so the increment, by roundoff
    cfg = SimConfig(eps=200.0, P=P, n_x1=n_x1, length_x1=length_x1, dt=0.02,
                    t_end=1.0, init_modes=(0, 3))
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = FullStepper(grid, P)
    u = state * np.exp(1j * (cfg.dt / 2.0) * stepper.omega)
    scale = cfg.dt * stepper._from_phys
    kick = stepper._kick(u, scale)

    def field(v):
        return np.fft.ifft(v * stepper._to_phys, axis=1).imag

    before = field(u)
    assert np.max(np.abs(field(u + kick) - before)) <= 1e-14 * np.max(np.abs(before))
    midpoint = stepper._kick(u + stepper._kick(u, scale / 2.0), scale)
    assert np.max(np.abs(midpoint - kick)) <= 1e-14 * np.max(np.abs(kick))
    # the kick is far above roundoff, so neither comparison is vacuous
    assert np.max(np.abs(kick)) >= 1e-6 * np.max(np.abs(u))


@pytest.mark.parametrize("steps", [1, 7, 50])
def test_segment_matches_single_steps(steps):
    cfg = SimConfig(eps=20.0, P=6, n_x1=64, dt=0.02, t_end=1.0, init_modes=(0, 3))
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = FullStepper(grid, 6)
    single = state
    for k in range(steps):
        single = stepper.step(single, k * cfg.dt, cfg.dt)
    segment = stepper.step(state, 0.0, cfg.dt, steps)
    scale = np.max(np.abs(single))
    assert np.max(np.abs(segment - single)) <= 1e-13 * scale
    assert np.max(np.abs(single - state)) >= 1e-7 * scale


def test_resonant_segment_matches_single_steps(small_setup):
    # substep k of a segment from s runs at s + k ds, as the k-th single step
    # does, so a segment equals its steps bit for bit
    grid, state = small_setup
    stepper = ResonantStepper(grid, 4, coupling_mode="unit")
    single = state
    for k in range(7):
        single = stepper.step(single, 1.0 + k * 0.05, 0.05)
    segment = stepper.step(state, 1.0, 0.05, 7)
    assert np.array_equal(segment, single)
    assert not np.array_equal(segment, state)


def test_exact_order_cubic_rule_matches_a_wider_rule():
    # the projection of u^2 is exact on the 12 cubic nodes of the desk basis,
    # so a 40-node rule steps the same trajectory up to roundoff
    cfg = SimConfig(eps=2e4, P=8, n_x1=128, length_x1=16.0, dt=0.02, t_end=1.0)
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    basis = grid.basis
    assert basis.cubic_phi.shape[1] == 12
    cubic_phi, cubic_total = _cubic_rule(40, basis.max_mode)
    wide = Grid(grid.n_x1, grid.length_x1, dataclasses.replace(
        basis, cubic_phi=cubic_phi, cubic_total_weights=cubic_total))
    start = state.copy()
    exact = FullStepper(grid, cfg.P).step(state, 0.0, cfg.dt, 50)
    assert np.array_equal(state, start)   # the in-place kick works on a copy
    ref = FullStepper(wide, cfg.P).step(state, 0.0, cfg.dt, 50)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(exact - ref)) <= 1e-14 * scale
    # the kicks moved f far beyond the tolerance, so the comparison is not vacuous
    assert np.max(np.abs(ref - state)) >= 1e-6 * scale


def test_ceiling_check_decisions():
    ceiling = 2.5
    coeffs = np.zeros((2, 16), dtype=complex)
    coeffs[1, 3] = ceiling
    _check_ceiling(coeffs, ceiling)   # exactly at the ceiling passes
    coeffs[1, 3] = 1j * ceiling
    _check_ceiling(coeffs, ceiling)
    for bad in (math.nextafter(ceiling, math.inf), math.inf, -math.inf, math.nan,
                complex(0.0, math.nan)):
        coeffs[1, 3] = bad
        with pytest.raises(BlowupDetected, match="exceeds"):
            _check_ceiling(coeffs, ceiling)


@pytest.mark.parametrize("ceiling", [2.5, 1e6, 1e200, 1.7e308])
def test_ceiling_decisions_at_the_step(ceiling, monkeypatch):
    # a one-step segment from f = 0 whose kick is the state: the step's quick
    # test (sum |u|^2 < ceiling^2/4, whose square overflows for the two
    # largest ceilings) and its fallback must decide as _check_ceiling does
    grid = make_grid(SimConfig(P=2, n_x1=16, init_modes=(0, 1)))
    states = []
    for value in (1.0, math.nextafter(ceiling, 0.0), ceiling, 1j * ceiling,
                  math.nextafter(ceiling, math.inf), math.inf, -math.inf, math.nan,
                  complex(0.0, math.nan)):
        one = np.zeros((2, 16), dtype=complex)
        one[1, 3] = value
        states.append(one)
    # every entry just below the ceiling: the sum passes ceiling^2/4
    states.append(np.full((2, 16), math.nextafter(ceiling, 0.0), dtype=complex))
    fallbacks = []

    def check(coeffs, bound):
        fallbacks.append(coeffs[1, 3])
        _check_ceiling(coeffs, bound)

    monkeypatch.setattr(evolution, "_check_ceiling", check)
    for target in states:
        try:
            _check_ceiling(target, ceiling)
            expected = None
        except BlowupDetected as exc:
            expected = str(exc)
        stepper = FullStepper(grid, 2, norm_ceiling=ceiling)
        stepper._kick = lambda u, scale, target=target: target.copy()
        try:
            stepper.step(np.zeros((2, 16), dtype=complex), 0.0, 0.02)
            got = None
        except BlowupDetected as exc:
            got = str(exc)
        assert got == expected, (ceiling, target[1, 3])
    # the state holding 1 passes the quick test; every other one needs the
    # fallback, which passes the four under the ceiling
    assert len(fallbacks) == len(states) - 1 and 1.0 not in fallbacks


def test_reality_preserved_by_full_step():
    # the derived "-" component follows the two-component step's own "-" one
    cfg = SimConfig(eps=20.0, P=6, n_x1=64, dt=0.02, t_end=2.0, init_modes=(0, 3))
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = FullStepper(grid, 6)
    s = state
    t, ref = 0.0, two_component(state)
    for _ in range(100):
        s = stepper.step(s, t, 0.02)
        t, ref = strang_step_reference(stepper, ref, t, 0.02)
    assert np.max(np.abs(two_component(s)[1] - ref[1])) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(ref[1] - two_component(state)[1])) >= 1e-6 * np.max(np.abs(ref))


def test_full_step_is_time_reversible():
    # a symmetric splitting of exact sub-flows is undone by stepping back with
    # -dt; a kick that is wrong on one leg only would not return
    cfg = SimConfig(eps=2e4)
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = FullStepper(grid, cfg.P)
    forward = stepper.step(state, 0.0, 0.02, 500)
    back = stepper.step(forward, 10.0, -0.02, 500)
    scale = np.max(np.abs(state))
    assert np.max(np.abs(back - state)) <= 1e-12 * scale
    assert np.max(np.abs(forward - state)) >= 1e-3 * scale


def test_full_step_energy_drift_is_second_order_and_bounded():
    # a symmetric, symplectic splitting of a Galerkin-truncated Hamiltonian
    # system: the energy error at a fixed time falls as dt^2.  Drifts are
    # relative to the cubic term, 2.9e-3 of E here; a kick scaled by 1.01
    # drifts by 4.1e-3 at dt = 0.02, 17 times the true kick's 2.4e-4
    cfg = SimConfig(eps=2e4)
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = FullStepper(grid, cfg.P)
    e0, cubic = discrete_energy(stepper, state, 0.0)

    def drift(dt):
        steps = round(10.0 / dt)
        end = stepper.step(state, 0.0, dt, steps)
        return abs(discrete_energy(stepper, end, steps * dt)[0] - e0) / abs(cubic)

    d = [drift(dt) for dt in (0.02, 0.01, 0.005)]
    assert d[0] / d[1] == pytest.approx(4.0, abs=0.05)
    assert d[1] / d[2] == pytest.approx(4.0, abs=0.05)
    assert d[0] <= 1e-3
    kick = stepper._kick
    stepper._kick = lambda u, scale: 1.01 * kick(u, scale)
    assert drift(0.02) > 1e-3


def test_full_step_richardson_order_two(small_setup):
    grid, state = small_setup
    stepper = FullStepper(grid, 4)

    def run(dt, T=0.64):
        s = state
        for k in range(round(T / dt)):
            s = stepper.step(s, k * dt, dt)
        return s

    c1, c2, c3 = run(0.08), run(0.04), run(0.02)
    ratio = np.max(np.abs(c1 - c2)) / np.max(np.abs(c2 - c3))
    assert 3.5 <= ratio <= 4.5


def test_kick_size_scales_with_eps_squared(small_cfg):
    grid = make_grid(small_cfg)
    state = init_profile(small_cfg, grid)
    stepper = FullStepper(grid, small_cfg.P)
    lin = FullStepper(grid, small_cfg.P, nonlinear=False)
    dt = 0.02
    kick = np.max(np.abs(stepper.step(state, 0.0, dt) - lin.step(state, 0.0, dt)))
    cfg_half = SimConfig(**{**small_cfg.__dict__, "eps": small_cfg.eps / 2.0})
    grid2 = make_grid(cfg_half)
    state2 = init_profile(cfg_half, grid2)
    kick_half = np.max(np.abs(FullStepper(grid2, 4).step(state2, 0.0, dt)
                              - FullStepper(grid2, 4, nonlinear=False).step(state2, 0.0, dt)))
    assert kick / kick_half == pytest.approx(4.0, rel=1e-3)


def test_full_solver_vs_leapfrog_oracle():
    cfg = SimConfig(eps=20.0, P=6, n_x1=64, length_x1=16.0, dt=0.005,
                    t_end=1.0, init_modes=(0, 1), M=4.0, N=2.0, seed=7)
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    x2, u_ref = leapfrog_reference(grid, state, cfg.P, 1.0, 5e-4)
    stepper = FullStepper(grid, cfg.P, norm_ceiling=1e9)
    steps = round(1.0 / cfg.dt)
    s = state
    for k in range(steps):
        s = stepper.step(s, k * cfg.dt, cfg.dt)
    ours = physical_field_on(grid, s, steps * cfg.dt, cfg.P, x2)
    rel = np.linalg.norm(ours - u_ref) / np.linalg.norm(u_ref)
    assert rel <= 1e-3


def test_blowup_detection(small_setup):
    grid, state = small_setup
    stepper = FullStepper(grid, 4, norm_ceiling=1e-12)
    with pytest.raises(BlowupDetected):
        stepper.step(state, 0.0, 0.02)


def test_resonant_no_triples_constant():
    cfg = SimConfig(eps=0.05, P=3, n_x1=64, t_end=2.0, dt=0.02, init_modes=(0, 2))
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = ResonantStepper(grid, 3)
    assert stepper.triple_count == 0
    s = state
    for k in range(20):
        s = stepper.step(s, 1.0 + k * 0.05, 0.05)
    assert np.array_equal(s, state)


def test_resonant_couplings_all_zero_by_parity(monkeypatch):
    # every admissible triple has odd m+n+p, so the physical system is trivial
    triples, _ = interactions_for_output(7)
    assert triples
    assert all((tr.m + tr.n + tr.p) % 2 == 1 for tr in triples)
    grid = make_grid(SimConfig(P=8, n_x1=64))
    stepper = ResonantStepper(grid, 8)
    assert stepper.triple_count == len(triples)
    assert stepper.couplings_all_zero
    assert stepper.active == []
    # hermite mode builds no leg, whatever table is passed: it is never read
    assert ResonantStepper(grid, 8, table=object()).active == []
    # unit mode keeps one slot per triple that has in-window samples
    unit = ResonantStepper(grid, 8, coupling_mode="unit")
    bound = grid.xi_max * (1.0 + 1e-12)
    in_window = [tr for tr in triples
                 if np.any((np.abs(tr.lam * grid.xi) <= bound)
                           & (np.abs((1.0 - tr.lam) * grid.xi) <= bound))]
    assert in_window
    assert unit.active == in_window
    assert unit.couplings_all_zero
    cfg = SimConfig(eps=0.05, P=8, n_x1=64, t_end=2.0, dt=0.02, init_modes=(2, 3))
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    # with no slot the step is idle: it never evaluates the right-hand side
    # and returns its input
    idle = ResonantStepper(grid, 8)

    def no_rhs(*args):
        raise AssertionError("rhs called by an idle resonant step")
    monkeypatch.setattr(idle, "rhs", no_rhs)
    assert idle.step(state, 1.0, 0.1) is state
    assert idle.step(state, 1.1, 0.1, 3) is state
    # the flag is the parity check the stepper makes: a listed triple of even
    # m+n+p (none is resonant) would clear it
    even = SimpleNamespace(m=0, n=0, p=2, alpha=-1, beta=-1, lam=0.5)
    monkeypatch.setattr("reslab.evolution.interactions_for_output",
                        lambda *args: ([*triples, even], []))
    assert not ResonantStepper(grid, 8).couplings_all_zero


def test_resonant_single_triple_hand_rhs(small_setup):
    grid, state = small_setup
    stepper = ResonantStepper(grid, 4, coupling_mode="unit")
    s0 = 2.0
    rhs = stepper.rhs(state, s0)
    lam = lambda_coeff(0, 0, -1, -1)
    xi = grid.xi
    # component "+" fields carry signs (-sigma a, -sigma b) = (+, +)
    fa = state[0] @ interp_matrix(grid, lam * xi).T / np.sqrt((lam * xi) ** 2 + 2.0)
    fb = state[0] @ interp_matrix(grid, (1 - lam) * xi).T \
        / np.sqrt(((1 - lam) * xi) ** 2 + 2.0)
    d_signed = d2_at_stationary(0, 0, -1, -1, xi)
    hand = (K_PREF * 1.0 * np.sqrt(2.0 * math.pi / (s0 * np.abs(d_signed)))
            * np.exp(1j * (math.pi / 4.0) * (-1.0) * np.sign(d_signed)) * fa * fb)
    scale = np.max(np.abs(hand))
    assert np.max(np.abs(rhs[3] - hand)) <= 1e-10 * scale
    # hermite couplings vanish: same assembly gives exactly zero
    assert np.all(ResonantStepper(grid, 4).rhs(state, s0) == 0.0)


def test_resonant_rhs_preserves_reality(small_setup):
    # the "+" rhs and its derived "-" pair match the two-sigma rhs
    grid, state = small_setup
    stepper = ResonantStepper(grid, 4, coupling_mode="unit")
    rhs = stepper.rhs(state, 2.0)
    ref = resonant_rhs_reference(grid, interactions_for_output(3)[0],
                                 two_component(state), 2.0)
    scale = np.max(np.abs(ref))
    assert scale > 0.0
    assert np.max(np.abs(rhs - ref[0])) <= 1e-13 * scale
    assert np.max(np.abs(two_component(rhs)[1] - ref[1])) <= 1e-13 * scale


def test_resonant_chirp_z_legs_match_dense_legs_at_unit_resonant_size():
    # the unit_resonant benchmark grid, 66 active triples; a random state
    # reads every frequency, where a smooth packet would hide a wrong branch
    # of the chirp
    grid = make_grid(SimConfig(P=32, n_x1=512, length_x1=64.0))
    stepper = ResonantStepper(grid, 32, coupling_mode="unit")
    assert len(stepper.active) == 66
    # O(triples n) state: no dense (n, n) leg
    arrays = [v for v in vars(stepper).values() if isinstance(v, np.ndarray)]
    assert all(a.ndim < 2 or a.shape[0] <= 2 * len(stepper.active) for a in arrays)
    assert sum(a.nbytes for a in arrays) < 8e6
    rng = np.random.default_rng(27)
    coeffs = rng.standard_normal((32, 512)) + 1j * rng.standard_normal((32, 512))
    rhs = stepper.rhs(coeffs, 2.0)
    ref = resonant_rhs_reference(grid, interactions_for_output(31)[0],
                                 two_component(coeffs), 2.0)[0]
    assert np.max(np.abs(rhs - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_resonant_richardson_order_two(small_setup):
    grid, state = small_setup
    stepper = ResonantStepper(grid, 4, coupling_mode="unit")

    def run(ds, T=1.6):
        s = state
        for k in range(round(T / ds)):
            s = stepper.step(s, 1.0 + k * ds, ds)
        return s

    c1, c2, c3 = run(0.2), run(0.1), run(0.05)
    ratio = np.max(np.abs(c1 - c2)) / np.max(np.abs(c2 - c3))
    assert 3.5 <= ratio <= 4.5


def run_rows(config, which):
    """The run's record and every output row, collected by an observer."""
    rows = []

    def observer(step, f, g, record, checkpoint):
        rows.append(record.row)
    return run(config, which, observer=observer), rows


def test_checkpoints_fall_on_output_rows_at_their_stride():
    # rows every 12 steps, checkpoint_every 25: checkpoints at 24, 48, 72 and
    # 96 of 100; g forks at step 50, between two rows
    cfg = SimConfig(P=4, n_x1=64, dt=0.02, t_end=2.0, s0=1.0, init_modes=(0, 3),
                    out_every=0.25, checkpoint_every=25)
    for every, expected in ((25, [24, 48, 72, 96]), (0, [])):
        calls = []
        run(dataclasses.replace(cfg, checkpoint_every=every), "compare",
            observer=lambda step, f, g, record, checkpoint:
                calls.append((step, checkpoint, g is not None)))
        assert [step for step, _, _ in calls] == [*range(0, 100, 12), 100]
        assert [step for step, checkpoint, _ in calls if checkpoint] == expected
        assert [step for step, _, forked in calls if forked] == [60, 72, 84, 96, 100]


def test_compare_t_end_equals_s0():
    cfg = SimConfig(eps=0.05, P=4, n_x1=64, dt=0.02, t_end=1.0, s0=1.0,
                    init_modes=(0, 3), out_every=1.0)
    _, rows = run_rows(cfg, "compare")
    diffs = [row[4] for row in rows if row[4] == row[4]]
    assert diffs == [0.0]


def test_compare_nonlinearity_off_diff_zero():
    cfg = SimConfig(eps=0.05, P=4, n_x1=64, dt=0.02, t_end=2.0, s0=1.0,
                    init_modes=(0, 3), out_every=0.5, nonlinear=False)
    _, rows = run_rows(cfg, "compare")
    diffs = np.array([row[4] for row in rows if row[4] == row[4]])
    assert np.max(diffs) <= 1e-14


def test_compare_trivial_resonant_flow_flagged():
    cfg = SimConfig(eps=0.05, P=8, n_x1=64, dt=0.02, t_end=2.0, s0=1.0,
                    init_modes=(2, 3), out_every=0.5)
    record = run(cfg, "compare")
    assert record.resonant_triple_count == 6
    assert record.resonant_couplings_all_zero


@pytest.mark.parametrize("coupling_mode", ["hermite", "unit"])
def test_compare_g_norms_match_a_fresh_evaluation(coupling_mode, monkeypatch):
    # the run keeps g's norm sums while g is one unchanged array (hermite mode
    # from the fork on) and recomputes them when a step replaces g (unit mode)
    cfg = SimConfig(eps=20.0, P=4, n_x1=64, dt=0.02, t_end=2.0, s0=1.0,
                    init_modes=(0, 3), out_every=0.25, coupling_mode=coupling_mode)
    grid = make_grid(cfg)
    seen, sums_of = [], []
    norm_sums = evolution.norm_sums
    monkeypatch.setattr(evolution, "norm_sums",
                        lambda g, *args: sums_of.append(g) or norm_sums(g, *args))

    def observer(step, f, g, record, checkpoint):
        if g is not None:
            t = record.row[0]
            assert record.row[3] == composite_norms(g, t, grid, cfg.M, cfg.N).S_MN_t, step
            seen.append(g)

    run(cfg, "compare", observer=observer)
    assert len(seen) == 5   # rows at steps 60, 72, 84, 96 and 100; the fork is at 50
    assert all(g is seen[0] for g in seen) == (coupling_mode == "hermite")
    assert len(sums_of) == (1 if coupling_mode == "hermite" else 5)


def test_short_time_agreement_desk_grid():
    # ||f - g|| <= 0.1 * (variation of f) for t <= min(t_end, 0.1 eps^(-4/3))
    eps = 0.05
    horizon = min(20.0, 0.1 * eps ** (-4.0 / 3.0))
    cfg = SimConfig(eps=eps, P=8, n_x1=128, dt=0.02, t_end=20.0, s0=1.0,
                    init_modes=(2, 3), out_every=0.25, seed=7)
    record, rows = run_rows(cfg, "compare")
    times, diffs = np.array(rows)[:, [0, 4]].T
    window = (times <= horizon) & np.isfinite(diffs)
    assert np.all(diffs[window] <= 0.1 * record.tv_full)


DESK = Path(__file__).parents[1] / "configs" / "compare_desk.json"


def desk_config(**overrides) -> SimConfig:
    """``configs/compare_desk.json`` with no checkpoints, and the overrides."""
    return config_from_json(dict(json.loads(DESK.read_text()), checkpoint_every=0,
                                 **overrides))[0]


def test_approximation_error_scales_like_eps_squared():
    # the resonant system approximates the equation to O(eps^2): from eps =
    # 0.05 to 0.1 the end difference grows by 3.999997 and the total
    # variation of f by 3.99999997
    small, large = (run(cfg, "compare")
                    for cfg in (desk_config(eps=0.05), desk_config(eps=0.1)))
    assert large.diff / small.diff == pytest.approx(4.0, abs=1e-3)
    assert large.tv_full / small.tv_full == pytest.approx(4.0, abs=1e-3)


def test_approximation_error_bounded_up_to_the_box_horizon():
    # mode-0 data in a box of length 64 has 2.2e-3 of its u^2 beyond
    # |x1| = 3L/8 at t = 30, so up to there the periodic box disperses it as
    # the line would, and max ||f - g||_{H^M0 L2} / eps^2 reads 2.19e-5 (t = 6)
    box = dict(P=8, n_x1=512, length_x1=64.0, init_modes=[0], out_every=1.0)

    def worst(config):
        _, rows = run_rows(config, "compare")
        return np.nanmax([row[4] for row in rows]) / config.eps ** 2
    bound = 5e-5
    assert worst(desk_config(t_end=30.0, **box)) <= bound
    # the defect it catches: unit couplings in place of the Hermite ones,
    # which are 0, read 1.36e-4 by t = 5 (4.9e-4 by t = 30) in this box
    assert worst(desk_config(t_end=5.0, coupling_mode="unit", **box)) > bound


def test_run_single_full_and_resonant():
    cfg = SimConfig(eps=0.05, P=4, n_x1=64, dt=0.02, t_end=1.5, s0=1.0,
                    init_modes=(0, 3), out_every=0.5)
    for which, t0 in (("full", 0.0), ("resonant", 1.0)):
        record, rows = run_rows(cfg, which)
        assert rows[0][0] == t0 and rows[-1][0] == pytest.approx(1.5)
        assert record.row == rows[-1] and record.diff is None
    with pytest.raises(ValueError, match="which must be"):
        run(cfg, "neither")


def test_run_memory_does_not_grow_with_rows():
    # the run streams its rows: holding them all would retain about 0.35 kB
    # a row, 155 kB more for 500 rows than for 50
    def retained(rows):
        cfg = SimConfig(P=2, n_x1=16, init_modes=(0, 1), dt=0.01, t_end=rows * 0.01,
                        out_every=0.01)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            record = run(cfg, "full")
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    retained(50)   # warm-up: the basis, weight and rule caches
    assert retained(500) - retained(50) < 10_000


def test_run_single_resonant_honours_subcycle():
    cfg = SimConfig(eps=50.0, P=4, n_x1=64, dt=0.05, t_end=1.5, s0=1.0,
                    init_modes=(0, 3), out_every=0.25, coupling_mode="unit")

    def end_state(config):
        last = {}

        def observer(step, f, g, record, checkpoint):
            last["f"] = f
        run(config, "resonant", observer=observer)
        return last["f"]

    one = end_state(cfg)
    two = end_state(dataclasses.replace(cfg, resonant_subcycle=2))
    assert not np.array_equal(one, two)

    # the run's two rows, every 5 steps, are two segments of 10 half steps
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = ResonantStepper(grid, cfg.P, coupling_mode="unit")
    for i in (0, 5):
        state = stepper.step(state, cfg.s0 + i * cfg.dt, cfg.dt / 2, 10)
    assert np.array_equal(two, state)


def test_kernel_consistency_sample():
    # single-triple resonant RHS term vs direct oscillatory quadrature of the
    # bilinear integrand (couplings and prefactors divided out of both sides)
    cfg = SimConfig(eps=0.05, P=4, n_x1=64, dt=0.02, t_end=1.0, init_modes=(0, 3), seed=7)
    grid = make_grid(cfg)
    state = init_profile(cfg, grid)
    stepper = ResonantStepper(grid, 4, coupling_mode="unit")
    from reslab.phase import PhaseParams
    params = PhaseParams(0, 0, 3, -1, -1)
    plus = state
    for s, xi_idx in ((80.0, 0), (300.0, 2)):
        rhs = stepper.rhs(state, s)
        term = rhs[3, xi_idx] / K_PREF
        quad = duhamel_kernel(plus[0], plus[0], params, s, 1, grid,
                              xi_out=np.array([grid.xi[xi_idx]]))[0]
        assert abs(term - quad) <= 0.15 * abs(quad)
