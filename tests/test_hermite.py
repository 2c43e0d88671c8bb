import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite

from oracles import (adaptive_triple, eigen_residual, forward, interaction_bound_ratio,
                     plain_rule, psi_direct, table_rows, triple_entries_flat_gram,
                     triple_product, triple_product_at_order, triple_table_dict,
                     write_triple_csv)
from reslab.hermite import (MAX_QUAD_ORDER, HermiteBasis, TripleProductTable,
                            gauss_hermite, hermite_table, triple_quad_order)
from reslab.transform import Grid


def test_phi0_at_origin():
    assert hermite_table(0, [0.0])[0, 0] == pytest.approx(math.pi ** -0.25, rel=1e-14)


def test_phi1_odd_parity():
    assert hermite_table(1, [0.0])[1, 0] == 0.0


def test_phi2_at_origin_frozen_oracle_value():
    # oracle: psi_2 = (4x^2 - 2) e^(-x^2/2) from differentiating e^(-x^2),
    # normalized by ||psi_2|| = sqrt(8 sqrt(pi)); frozen from tests/oracles.py
    phi2 = hermite_table(2, [0.0])[2, 0]
    assert phi2 == pytest.approx(-0.5311259660135984, rel=1e-13)
    assert phi2 == pytest.approx(psi_direct(2, 0.0), rel=1e-13)


@pytest.mark.parametrize("max_mode,cubic", [(0, 2), (7, 12), (25, 39), (31, 48)])
def test_basis_cubic_rule_has_the_exact_order(max_mode, cubic):
    # the cubic rule takes the fewest nodes that make every triple integral
    # exact; only the oracle's plain rule keeps the floor of 40
    basis = HermiteBasis.build(max_mode)
    assert basis.cubic_phi.shape == (max_mode + 1, cubic)
    assert cubic == triple_quad_order(max_mode, max_mode, max_mode)
    assert basis.cubic_total_weights.shape == (cubic,)
    rule = plain_rule(max_mode)
    assert rule.quad_order == max(cubic, 40) == rule.phi.shape[1] == rule.nodes.size


def test_basis_build_asks_for_the_cubic_order_only():
    # the basis carries one rule: building it looks up Gauss-Hermite order 12
    # at the desk (max_mode 7) and no other order
    gauss_hermite.cache_clear()
    HermiteBasis.build(7)
    assert gauss_hermite.cache_info().misses == 1
    assert gauss_hermite.cache_info().currsize == 1
    gauss_hermite(12)
    assert gauss_hermite.cache_info().hits == 1
    assert gauss_hermite.cache_info().currsize == 1


def test_gauss_hermite_matches_scipy():
    for order in (*range(1, 65), *range(80, MAX_QUAD_ORDER + 1, 16)):
        nodes, weights, total = gauss_hermite(order)
        ref_nodes, ref_weights = roots_hermite(order)
        ref_total = np.exp(np.log(ref_weights) + ref_nodes ** 2)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-13, order
        assert np.max(np.abs(total - ref_total) / ref_total) <= 1e-11, order
        assert np.all(weights > 0.0), order


def _loaded_by_cli_import(module: str) -> bool:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    probe = f"import sys, reslab.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_cli_import_leaves_scipy_out():
    assert not _loaded_by_cli_import("scipy")


def test_cli_import_leaves_thread_pool_out():
    # stat-phase-check starts plain threads; the pool's import would cost
    # every command
    assert not _loaded_by_cli_import("concurrent.futures")


def test_recurrence_matches_direct_evaluation():
    x = np.linspace(-8.0, 8.0, 641)
    table = hermite_table(40, x)
    for n in range(41):
        a = table[n]
        b = psi_direct(n, x)
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_orthonormality_to_mode_60():
    rule = plain_rule(60)   # built from gauss_hermite and hermite_table
    gram = (rule.phi * rule.total_weights) @ rule.phi.T
    assert np.max(np.abs(gram - np.eye(61))) <= 1e-10


def test_quadrature_nodes_symmetric_weights_positive():
    rule = plain_rule(60)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-12
    assert np.all(rule.weights > 0)


def test_quadrature_moment_exactness():
    nodes, weights, _ = gauss_hermite(24)
    for j in range(0, 24):
        exact = math.gamma(j + 0.5)
        assert np.sum(weights * nodes ** (2 * j)) == pytest.approx(exact, rel=1e-13)


def test_eigen_residual_ground_state():
    assert eigen_residual(0, np.arange(-8.0, 8.0, 0.01)) < 1e-6


def test_eigen_residual_mode_5():
    assert eigen_residual(5, np.arange(-12.0, 12.0, 0.01)) < 1e-5


def test_triple_product_ground_closed_form():
    # pi^(-3/4) int e^(-3x^2/2) dx = sqrt(2 pi / 3) / pi^(3/4)
    exact = math.sqrt(2.0 * math.pi / 3.0) / math.pi ** 0.75
    assert triple_product(0, 0, 0) == pytest.approx(exact, rel=1e-13)


def test_triple_product_odd_parity_exact_zero():
    assert triple_product(0, 0, 1) == 0.0
    assert triple_product(3, 4, 2) == 0.0


def test_triple_product_002_adaptive_oracle():
    # frozen from the adaptive-quadrature oracle; equals
    # -(2/3) sqrt(2 pi/3) pi^(-1/2) (8 sqrt(pi))^(-1/2)
    frozen = -0.14455417843067967
    assert triple_product(0, 0, 2) == pytest.approx(frozen, rel=1e-12)
    assert adaptive_triple(0, 0, 2) == pytest.approx(frozen, rel=1e-10)


@pytest.mark.parametrize("mnp", [(2, 4, 6), (1, 3, 10), (5, 5, 8)])
def test_triple_product_matches_adaptive_quadrature(mnp):
    assert triple_product(*mnp) == pytest.approx(adaptive_triple(*mnp), abs=1e-11)


def test_table_permutation_symmetry_bitwise(table60):
    rng = np.random.default_rng(1)
    for _ in range(200):
        m, n, p = (int(v) for v in rng.integers(0, 61, 3))
        vals = {table60.get(*perm) for perm in
                [(m, n, p), (m, p, n), (n, m, p), (n, p, m), (p, m, n), (p, n, m)]}
        assert len(vals) == 1  # bit-for-bit identical


def test_table_parity_zero_exact(table60):
    m, n, p = table_rows(60)
    assert len(m) == len(table60.entries)
    assert np.all((m + n + p) % 2 == 0)
    assert table60.get(0, 0, 1) == 0.0


def test_table_matches_single_evaluations(table60):
    for mnp in [(0, 0, 0), (2, 4, 6), (10, 20, 30), (60, 60, 60)]:
        assert table60.get(*mnp) == pytest.approx(triple_product(*mnp), rel=1e-12, abs=1e-15)


def test_quadrature_order_doubling_stability():
    rng = np.random.default_rng(2)
    triples = [tuple(sorted(int(v) for v in rng.integers(0, 41, 3))) for _ in range(30)]
    triples += [(40, 40, 40), (0, 0, 60), (20, 40, 60)]
    for m, n, p in triples:
        if (m + n + p) % 2 or m + n + p > 120:
            continue
        base = (m + n + p) // 2 + 2
        v1 = triple_product(m, n, p)
        assert v1 == triple_product_at_order(m, n, p, base)
        v2 = triple_product_at_order(m, n, p, 2 * base)
        # 1e-12 relative, with an absolute floor for entries that are
        # themselves below quadrature roundoff (e.g. T(0,0,60) ~ 1e-16)
        assert abs(v1 - v2) <= 1e-12 * abs(v1) + 1e-14


@pytest.mark.parametrize("max_mode", [0, 1, 2, 7, 60, 61])
def test_table_matches_dict_walk_oracle(tmp_path, max_mode):
    table = TripleProductTable(max_mode)
    oracle = triple_table_dict(max_mode)
    table.write_csv(tmp_path / "table.csv")
    write_triple_csv(oracle, tmp_path / "oracle.csv")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert len(table.entries) == len(oracle)
    for (m, n, p), v in oracle.items():
        for perm in ((m, n, p), (m, p, n), (n, m, p), (n, p, m), (p, m, n), (p, n, m)):
            assert table.get(*perm) == v



@pytest.mark.parametrize("max_mode", [0, 1, 2, 7, 60, 61, 120])
def test_table_entries_match_flat_gram_build(max_mode):
    entries = TripleProductTable(max_mode).entries
    oracle = triple_entries_flat_gram(max_mode)
    assert entries.dtype == np.float64
    assert entries.tobytes() == oracle["value"].tobytes()
    for got, want in zip(table_rows(max_mode), (oracle["m"], oracle["n"], oracle["p"])):
        assert np.array_equal(got, want)


def test_table_build_memory_stays_per_p():
    # at max_mode 120 the values keep 1.2 MB and the build peaks at 2.4 MB;
    # (m, n, p) rows of 20 bytes would peak at 4.2 MB, a flat buffer of
    # every G_p would add 4.8 MB, and index columns for a gather 1.2 MB each
    TripleProductTable(120)
    tracemalloc.start()
    try:
        TripleProductTable(120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


@pytest.mark.parametrize("block", [1, 5])
def test_table_csv_blocks_smaller_than_a_run(tmp_path, monkeypatch, block):
    # a block closes after the run that fills it, so at these sizes most
    # blocks hold one or two runs of up to 7 rows, and some runs are empty
    monkeypatch.setattr(TripleProductTable, "_CSV_BLOCK", block)
    TripleProductTable(12).write_csv(tmp_path / "table.csv")
    write_triple_csv(triple_table_dict(12), tmp_path / "oracle.csv")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_table_csv_memory_stays_bounded(tmp_path):
    # the text at max_mode 120 is 4.7 MB; the writer holds one block of it
    table = TripleProductTable(120)
    tracemalloc.start()
    try:
        table.write_csv(tmp_path / "table.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "table.csv").stat().st_size > 4_500_000
    assert peak < 1_500_000

def test_bound_ratio_all_unit_scales():
    # m = n = p = 1: every envelope factor is 1, so the ratio equals |T(1,1,1)|
    assert interaction_bound_ratio(1, 1, 1, K=0, nu=0.2, beta=0.04) == \
        abs(triple_product(1, 1, 1))


def test_bound_ratio_finite_values():
    r = interaction_bound_ratio(2, 10, 40, K=2, nu=0.2, beta=0.04)
    assert np.isfinite(r) and r >= 0.0
    # underline(0) = 1 keeps mode-0 ratios finite
    r0 = interaction_bound_ratio(0, 0, 3, K=1, nu=0.2, beta=0.04)
    assert np.isfinite(r0)


def test_bound_ratio_non_explosion_proxy(table60):
    best = {"lo": 0.0, "hi": 0.0}
    for m, n, p, v in zip(*(col.tolist() for col in table_rows(60)), table60.entries.tolist()):
        if v == 0.0:
            continue
        r = interaction_bound_ratio(m, n, p, K=4, nu=0.2, beta=0.04, table=table60)
        if 10 <= p <= 30:
            best["lo"] = max(best["lo"], r)
        if 30 <= p <= 60:
            best["hi"] = max(best["hi"], r)
    assert best["lo"] > 0 and best["hi"] > 0
    assert best["hi"] <= 2.0 * best["lo"]


def test_table_csv_lexicographic(tmp_path, table60):
    path = tmp_path / "triples.csv"
    table60.write_csv(path)
    rows = path.read_text().splitlines()
    assert rows[0] == "m,n,p,value"
    keys = [tuple(int(v) for v in r.split(",")[:3]) for r in rows[1:]]
    assert keys == sorted(keys)
    assert all(k[0] <= k[1] <= k[2] for k in keys)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
def test_triple_product_symmetry_and_parity_property(m, n, p):
    v = triple_product(m, n, p)
    if (m + n + p) % 2:
        assert v == 0.0
    assert v == triple_product(p, m, n)


def test_basis_synthesize_project_roundtrip(basis60):
    # a field constant in x1 has all its content at xi = 0, scaled by L
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=20)
    vals = coeffs @ hermite_table(19, plain_rule(60).nodes)
    grid = Grid(16, 4.0, basis60)
    back = forward(grid, np.tile(vals, (16, 1)))[:20, 0] / grid.length_x1
    assert np.max(np.abs(back - coeffs)) < 1e-12
