import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslab.hermite import HermiteBasis, hermite_table
from oracles import (ConfinementWarning, composite_norms_reference, forward, forward_x1,
                     hm_l2_norm_reference, interp_matrix, inverse, inverse_x1, plain_rule,
                     sobolev_weighted_norm, two_component, xi_derivative_physical)
from reslab.transform import (CompositeNorms, Grid, composite_norms, hm_l2_norm, load_state,
                              save_state, xi_derivative)


def gaussian_field(grid):
    return np.exp(-0.5 * grid.x1 ** 2)[:, None] * plain_rule(grid.basis.max_mode).phi[0][None, :]


def random_state(grid, n_modes, rng, width=1.5):
    shape = (n_modes, grid.n_x1)
    envelope = np.exp(-0.5 * (grid.xi / width) ** 2)
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * envelope


def test_grid_validation():
    basis = HermiteBasis.build(4)
    with pytest.raises(ValueError):
        Grid(12, 16.0, basis)
    with pytest.raises(ValueError):
        Grid(48, 16.0, basis)
    with pytest.raises(ValueError):
        Grid(64, -1.0, basis)


def test_forward_gaussian_closed_form(grid64):
    coeffs = forward(grid64, gaussian_field(grid64))
    exact = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * grid64.xi ** 2)
    assert np.max(np.abs(coeffs[0] - exact)) <= 1e-10 * np.max(np.abs(exact))
    assert np.max(np.abs(coeffs[1:])) <= 1e-12


def test_forward_zero_field(grid64):
    coeffs = forward(grid64, np.zeros((64, plain_rule(grid64.basis.max_mode).quad_order)))
    assert np.all(coeffs == 0.0)


@pytest.mark.filterwarnings("ignore::oracles.ConfinementWarning")
def test_forward_cosine_two_bins(grid64):
    # phi_3 only decays to ~1e-13 at the default node extent; the warning is
    # legitimate and irrelevant to the two-bin structure under test
    field = hermite_table(3, plain_rule(grid64.basis.max_mode).nodes)[3][None, :] \
        * np.cos(2.0 * math.pi * grid64.x1 / grid64.length_x1)[:, None]
    coeffs = forward(grid64, field)
    peak = np.max(np.abs(coeffs))
    hot = np.argwhere(np.abs(coeffs) > 1e-12 * peak)
    assert {tuple(idx) for idx in hot} == {(3, 1), (3, 63)}


def test_confinement_warning(grid64):
    bad = np.ones((grid64.n_x1, plain_rule(grid64.basis.max_mode).quad_order))
    with pytest.warns(ConfinementWarning):
        forward(grid64, bad)


def test_round_trip(grid64):
    field = gaussian_field(grid64)
    back = inverse(grid64, forward(grid64, field))
    assert np.max(np.abs(back - field)) <= 1e-10 * np.max(np.abs(field))


def test_inverse_zero_and_single_coefficient(grid64):
    assert np.all(inverse(grid64, np.zeros((3, 64), complex)) == 0.0)
    coeffs = np.zeros((3, 64), complex)
    coeffs[2, 5] = 1.0
    field = inverse(grid64, coeffs)
    ref = hermite_table(2, plain_rule(grid64.basis.max_mode).nodes)[2][None, :] \
        * np.exp(1j * grid64.xi[5] * grid64.x1)[:, None] / grid64.length_x1
    assert np.max(np.abs(field - ref)) <= 1e-12


def test_forward_linearity(grid64):
    rng = np.random.default_rng(0)
    f = gaussian_field(grid64)
    g = np.roll(f, 7, axis=0) * 0.3
    a, b = 1.7, -0.4 + 0.2j
    lhs = forward(grid64, a * f + b * g)
    rhs = a * forward(grid64, f) + b * forward(grid64, g)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))


def test_sobolev_norm_gaussian_closed_form(grid64):
    coeffs = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * grid64.xi ** 2)
    # int |sqrt(2 pi) e^(-xi^2/2)|^2 dxi = 2 pi sqrt(pi)
    exact = math.sqrt(2.0 * math.pi * math.sqrt(math.pi))
    assert sobolev_weighted_norm(coeffs, grid64, 0.0, 0) == \
        pytest.approx(exact, rel=1e-10)
    assert sobolev_weighted_norm(np.zeros(64), grid64, 2.0, 2) == 0.0


def test_sobolev_norm_collapses_to_plain_l2(grid64):
    rng = np.random.default_rng(5)
    arr = rng.normal(size=64) * np.exp(-0.3 * grid64.xi ** 2)
    plain = math.sqrt(np.sum(np.abs(arr) ** 2) * grid64.dxi)
    assert sobolev_weighted_norm(arr, grid64, 0.0, 0) == pytest.approx(plain, rel=1e-14)


def test_parseval(grid64):
    field = gaussian_field(grid64)
    coeffs = forward(grid64, field)
    phys = math.sqrt(np.sum(np.abs(field) ** 2 * grid64.dx
                            * plain_rule(grid64.basis.max_mode).total_weights[None, :]))
    assert hm_l2_norm(coeffs, grid64, 0.0) / 2.0 == pytest.approx(phys, rel=1e-9)


def test_norm_sandwich_on_random_states(grid64):
    rng = np.random.default_rng(11)
    N = 1.5
    for _ in range(20):
        st = random_state(grid64, 6, rng)
        lower = composite_norms(st, 0.0, grid64, M=N / 2.0, N=N).HM_HN
        tilde = composite_norms(st, 0.0, grid64, M=N, N=N).tilde_HN
        upper = composite_norms(st, 0.0, grid64, M=N, N=2.0 * N).HM_HN
        assert lower <= tilde + 1e-9
        assert tilde <= upper + 1e-9


def test_multiplier_bound_exact(grid64):
    rng = np.random.default_rng(2)
    arr = rng.normal(size=64) + 1j * rng.normal(size=64)
    for lam in (0.5, 2.0, 10.0):
        damped = arr / np.sqrt(grid64.xi ** 2 + lam)
        assert np.linalg.norm(damped) <= np.linalg.norm(arr) / math.sqrt(lam) + 1e-15


def test_composite_bracket_t_scaling(grid64):
    coeffs = np.zeros((5, 64), complex)
    coeffs[0] = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * grid64.xi ** 2)
    n0 = composite_norms(coeffs, 0.0, grid64, 2.0, 1.0)
    n3 = composite_norms(coeffs, 3.0, grid64, 2.0, 1.0)
    # B_t = <t>^(-1/2) * (t-free norm); <3> = sqrt(10)
    assert n0.B_t / n3.B_t == pytest.approx(10.0 ** 0.25, rel=1e-12)
    assert isinstance(n0, CompositeNorms)


def test_composite_norms_count_both_components(grid64):
    # the "-" component, a conjugate mirror of "+", has the same norms
    st = random_state(grid64, 5, np.random.default_rng(12))
    mirrored = two_component(st)[1]
    for a, b in zip(dataclasses.astuple(composite_norms(st, 1.0, grid64, 2.0, 1.5)),
                    dataclasses.astuple(composite_norms(mirrored, 1.0, grid64, 2.0, 1.5))):
        assert a == pytest.approx(b, rel=1e-14)
    assert hm_l2_norm(st, grid64, 1.0) == pytest.approx(hm_l2_norm(mirrored, grid64, 1.0),
                                                        rel=1e-14)


def test_tilde_norm_eigenvalue_scaling(grid64):
    # xi-concentrated data: the 2D symbol reduces to (2p+2)^N
    narrow = np.exp(-50.0 * grid64.xi ** 2)
    ratios = []
    for p in (0, 4):
        coeffs = np.zeros((5, 64), complex)
        coeffs[p] = narrow
        N = 1.0
        tilde = composite_norms(coeffs, 0.0, grid64, 2.0, N).tilde_HN
        base = composite_norms(coeffs, 0.0, grid64, 2.0, 0.0).tilde_HN
        ratios.append(tilde / base / (2.0 * p + 2.0) ** N)
    assert ratios[0] == pytest.approx(1.0, rel=2e-2)
    assert ratios[1] == pytest.approx(1.0, rel=2e-2)
    assert ratios[0] == pytest.approx(ratios[1], rel=2e-2)


def test_xi_derivative_cross_check(grid64):
    coeffs = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * grid64.xi ** 2) + 0j
    fd = xi_derivative(coeffs, grid64.dxi)
    spectral = xi_derivative_physical(grid64, coeffs)
    exact = -grid64.xi * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * grid64.xi ** 2)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(spectral - exact)) <= 1e-12 * scale
    # centered differences are second order: O(dxi^2) on the default grid,
    # and a 4x finer frequency grid cuts the error ~16x
    err_coarse = np.max(np.abs(fd - exact)) / scale
    assert err_coarse < 0.08
    fine = Grid(256, 64.0, grid64.basis)
    cf = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * fine.xi ** 2) + 0j
    err_fine = np.max(np.abs(xi_derivative(cf, fine.dxi)
                             + fine.xi * np.abs(cf))) / scale
    assert err_fine < err_coarse / 8.0


@pytest.mark.parametrize("shape", [(16,), (3, 64), (2, 3, 128)])
@pytest.mark.parametrize("order", [1, 2])
def test_xi_derivative_matches_monotone_order(shape, order):
    # differencing in monotone-xi order and shifting back gives the same
    # bits: FFT order is a cyclic shift of it; order 2 is the repeated call
    # of sobolev_weighted_norm's kappa = 2
    rng = np.random.default_rng(3)
    for coeffs in (rng.normal(size=shape) + 1j * rng.normal(size=shape),
                   rng.normal(size=shape)):
        ref = np.fft.fftshift(coeffs + 0j, axes=-1)
        out = coeffs
        for _ in range(order):
            ref = (np.roll(ref, -1, axis=-1) - np.roll(ref, 1, axis=-1)) / (2.0 * 0.3)
            out = xi_derivative(out, 0.3)
        assert np.array_equal(out, np.fft.ifftshift(ref, axes=-1))


def test_reality_constraint_from_real_field(grid64):
    # real u, real du/dt: u~_{-}(xi) = conj(u~_{+}(-xi))
    rng = np.random.default_rng(8)
    u = np.real(gaussian_field(grid64)) * rng.normal()
    v = np.roll(u, 3, axis=0) * 0.5
    omega = np.sqrt(grid64.xi[None, :] ** 2
                    + (2.0 * np.arange(grid64.basis.max_mode + 1) + 2.0)[:, None])
    cu = forward(grid64, u)
    cv = forward(grid64, v)
    plus, minus = cv + 1j * omega * cu, cv - 1j * omega * cu
    assert np.max(np.abs(two_component(plus)[1] - minus)) <= 1e-12 * np.max(np.abs(plus))


def test_minus_component_is_conjugate_mirror(grid64):
    rng = np.random.default_rng(9)
    plus = random_state(grid64, 4, rng)
    minus = two_component(plus)[1]
    xi = grid64.xi
    for k in range(grid64.n_x1):   # xi_k -> -xi_k, the Nyquist bin onto itself
        j = int(np.argmin(np.abs(xi + xi[k]))) if k != grid64.n_x1 // 2 else k
        assert np.array_equal(minus[:, k], np.conj(plus[:, j]))
    assert np.array_equal(two_component(minus)[1], plus)


@pytest.mark.parametrize("geometry", [(64, 16.0), (1024, 128.0)],
                         ids=["grid64", "grid1024"])
def test_interp_eval_matches_closed_form(grid64, geometry):
    grid = Grid(*geometry, grid64.basis)
    coeffs = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * grid.xi ** 2) + 0j
    targets = np.array([0.31, -1.7, 2.55])
    vals = coeffs @ interp_matrix(grid, targets).T
    exact = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * targets ** 2)
    assert np.max(np.abs(vals - exact)) <= 1e-12
    with pytest.raises(ValueError, match="beyond window"):
        interp_matrix(grid, np.array([grid.xi_max * 1.5]))


def test_state_snapshot_roundtrip(tmp_path, grid64):
    rng = np.random.default_rng(4)
    n_modes = grid64.basis.max_mode + 1
    f, g = (random_state(grid64, n_modes, rng) for _ in range(2))
    meta = {"step": 125, "t": 2.5 + 1e-15, "tv": 0.1 + 0.2, "config_sha": "ab" * 32}
    for arrays in ({"f": f, "g": g}, {"f": f}, {}):
        out = tmp_path / ("".join(arrays) or "none")
        out.mkdir()
        path = out / "checkpoint.npz"
        save_state(path, meta, **arrays)
        loaded_meta, loaded = load_state(path)
        assert loaded_meta == meta
        assert loaded.keys() == arrays.keys()
        for name, array in arrays.items():
            assert np.array_equal(loaded[name], array)
        assert [p.name for p in out.iterdir()] == ["checkpoint.npz"]
        # equal inputs give equal bytes
        save_state(out / "again.npz", meta, **arrays)
        assert (out / "again.npz").read_bytes() == path.read_bytes()


def test_failed_snapshot_commit_removes_its_temporary(tmp_path, grid64):
    # a directory squats on the checkpoint, so the rename fails; an object
    # array fails while the archive is written
    n_modes = grid64.basis.max_mode + 1
    (tmp_path / "checkpoint.npz").mkdir()
    with pytest.raises(OSError):
        save_state(tmp_path / "checkpoint.npz", {}, f=np.zeros((n_modes, 64), complex))
    with pytest.raises(ValueError, match="allow_pickle"):
        save_state(tmp_path / "other.npz", {}, f=object())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]


def test_cached_norm_weights_match_a_fresh_build():
    # the weights are cached per grid and exponents: calls that alternate
    # between two grids, two mode counts and several exponents and times must
    # each read their own
    rng = np.random.default_rng(11)
    grids = [Grid(64, 16.0, HermiteBasis.build(5)), Grid(128, 24.0, HermiteBasis.build(5))]
    cases = [(grid, n_modes, M, N, t) for grid in grids for n_modes in (3, 6)
             for M, N, t in ((4.0, 2.0, 0.0), (2.0, 1.5, 3.0), (7.5, 0.0, 0.5))]
    coeffs_of = [random_state(grid, n_modes, rng) for grid, n_modes, *_ in cases]
    order = list(range(len(cases)))
    for i in order + order[::-1]:
        case, coeffs = cases[i], coeffs_of[i]
        grid, _, M, N, t = case
        ours = dataclasses.astuple(composite_norms(coeffs, t, grid, M, N))
        ref = composite_norms_reference(coeffs, t, grid, M, N)
        for a, b in zip(ours, ref):
            assert a == pytest.approx(b, rel=1e-14, abs=0.0), case
        for M0 in (0.0, M):
            assert hm_l2_norm(coeffs, grid, M0) == pytest.approx(
                hm_l2_norm_reference(coeffs, grid, M0), rel=1e-14, abs=0.0), case


def test_hm_l2_norm_eigenvalue_weights(grid64):
    coeffs = np.zeros((3, 64), complex)
    coeffs[2, 5] = 1.0
    plain = hm_l2_norm(coeffs, grid64, 0.0)
    weighted = hm_l2_norm(coeffs, grid64, 2.0)
    assert weighted == pytest.approx(plain * 6.0 ** 2, rel=1e-13)
    # both components count: twice the "+" norm
    assert plain == pytest.approx(2.0 * math.sqrt(grid64.dxi / (2.0 * math.pi)), rel=1e-15)


def test_forward_x1_inverse_x1_roundtrip(grid64):
    rng = np.random.default_rng(6)
    f = (rng.normal(size=64) + 1j * rng.normal(size=64)) * np.exp(-0.3 * grid64.x1 ** 2)
    assert np.max(np.abs(inverse_x1(grid64, forward_x1(grid64, f)) - f)) < 1e-13


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_interp_exact_at_grid_nodes_property(seed):
    grid = Grid(64, 16.0, HermiteBasis.build(2))
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=64) + 1j * rng.normal(size=64)
    vals = coeffs @ interp_matrix(grid, grid.xi).T
    assert np.max(np.abs(vals - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))
