import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reslab.triples
from oracles import (brute_force_triples, enumerate_triples, is_resonant_massless,
                     resonant_inputs_scan)
from reslab.cli import main
from reslab.evolution import ResonantStepper, SimConfig, make_grid
from reslab.triples import (ResonantTriple, _resonant_inputs, all_couplings_zero,
                            condition_polynomial, interactions_for_output,
                            printed_gate_admissible, sqrt_gate_admissible)


def test_is_resonant_examples():
    assert condition_polynomial(0, 0, 3) == 0
    assert condition_polynomial(0, 3, 8) == 0
    assert condition_polynomial(0, 0, 1) != 0


def test_is_resonant_arbitrary_precision():
    # Python integers are unbounded: there is no overflow cutoff
    m = 10 ** 40 - 1
    n = 4 * 10 ** 40 - 1   # (m+1)(n+1) = 4e80 = (2e40)^2
    p = m + n + 1 + 2 * (2 * 10 ** 40)
    assert condition_polynomial(m, n, p) == 0


def test_enumerate_small_ranges():
    assert enumerate_triples(3) == [(0, 0, 3)]
    assert enumerate_triples(8) == [(0, 0, 3), (0, 3, 8), (1, 1, 7)]
    assert enumerate_triples(2) == []


@pytest.mark.parametrize("max_mode", [10, 50])
def test_enumerate_equals_brute_force(max_mode):
    assert set(enumerate_triples(max_mode)) == brute_force_triples(max_mode)


def test_sqrt_identity_for_enumerated():
    for m, n, p in enumerate_triples(200):
        assert abs(math.sqrt(p + 1) - math.sqrt(m + 1) - math.sqrt(n + 1)) <= 1e-12


def test_resonant_walk_has_odd_parity_and_zero_couplings(table60):
    # with p+1 = d c^2 the walk's inputs are m+1 = d a^2, n+1 = d (a -+ c)^2,
    # so m + n + p = 2d(a^2 -+ ac + c^2) - 3 is odd; the Hermite triple
    # integral vanishes for odd total parity, which zeroes every coupling
    # either gate can admit
    walked = [(m, n, p) for p in range(501) for m, n, _, _ in _resonant_inputs(p, 500)]
    assert len(walked) == 8498
    assert all((m + n + p) % 2 == 1 for m, n, p in walked)
    small = [t for t in walked if max(t) <= 60]
    assert small and all(table60.get(*t) == 0.0 for t in small)
    triples, _ = interactions_for_output(60)
    assert all_couplings_zero(triples)
    assert not all_couplings_zero([*triples, SimpleNamespace(m=0, n=0, p=2)])


def test_symmetry_closure():
    for m, n, p in enumerate_triples(60):
        for perm in ((m, n, p), (n, p, m), (p, m, n), (p, n, m), (n, m, p), (m, p, n)):
            assert condition_polynomial(*perm) == 0
        assert m <= n <= p


def test_density_monotone_and_oracle_count():
    counts = [len(enumerate_triples(k)) for k in (10, 50, 100, 200)]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]
    assert counts[1] == len(brute_force_triples(50))


def _feeding(p, max_mode, gate="sqrt"):
    """The interactions of output mode p, out of the one listing."""
    admitted, _ = interactions_for_output(max_mode, gate=gate)
    return [t for t in admitted if t.p == p]


def test_interactions_for_output_p3():
    out = _feeding(3, 8)
    keys = {(t.m, t.n, t.alpha, t.beta) for t in out}
    assert (0, 0, -1, -1) in keys
    tr = [t for t in out if (t.m, t.n) == (0, 0)][0]
    assert tr.lam == pytest.approx(0.5, rel=1e-15)
    out_printed = _feeding(3, 8, gate="printed")
    assert (0, 0, -1, -1) in {(t.m, t.n, t.alpha, t.beta) for t in out_printed}


def test_interactions_for_output_p7():
    out = _feeding(7, 7)
    tr = [t for t in out if (t.m, t.n) == (1, 1)]
    assert len(tr) == 1 and tr[0].lam == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("p", range(51))
def test_interactions_output_matches_brute_force(p):
    out = _feeding(p, 50)
    # brute-force classification: (m, n) with some permutation of (m, n, p)
    # resonant and the root of the opposite-signed index dominant
    expected = set()
    for m in range(51):
        for n in range(51):
            if condition_polynomial(m, n, p) != 0:
                continue
            for a, b in ((-1, -1), (-1, 1), (1, -1)):
                if m == n and a == -b:
                    continue
                big = {(-1, -1): p, (-1, 1): m, (1, -1): n}[(a, b)]
                rest = {(-1, -1): (m, n), (-1, 1): (n, p), (1, -1): (m, p)}[(a, b)]
                if abs(math.sqrt(big + 1) - math.sqrt(rest[0] + 1)
                       - math.sqrt(rest[1] + 1)) < 1e-9:
                    expected.add((m, n, a, b))
    assert {(t.m, t.n, t.alpha, t.beta) for t in out} == expected
    if p == 0:
        # mode 0 is never the largest root: only mixed-sign branches feed it
        assert expected and all((t.alpha, t.beta) != (-1, -1) for t in out)


@pytest.mark.parametrize("max_mode", [0, 1, 2, 7, 50, 200])
def test_closed_form_walk_matches_scan_of_every_m(max_mode):
    for p in range(max_mode + 1):
        assert list(_resonant_inputs(p, max_mode)) == resonant_inputs_scan(p, max_mode)


def test_interactions_sorted_lexicographically():
    out, _ = interactions_for_output(50)
    keys = [(t.p, t.m, t.n, t.alpha, t.beta) for t in out]
    assert keys == sorted(keys)


def test_enumerate_and_resonant_stepper_walk_the_set_once(tmp_path, monkeypatch):
    # one call of the walk per output mode: the gate disagreements ride on it
    calls = []
    walk = reslab.triples._resonant_inputs

    def counting(p, max_mode):
        calls.append(p)
        return walk(p, max_mode)

    monkeypatch.setattr(reslab.triples, "_resonant_inputs", counting)
    assert main(["enumerate", "--max-mode", "50", "--out-dir", str(tmp_path)]) == 0
    assert calls == list(range(51))
    calls.clear()
    ResonantStepper(make_grid(SimConfig(P=8)), 8)
    assert calls == list(range(8))


def test_gate_disagreements_nonempty_and_flagged():
    _, dis = interactions_for_output(10)
    assert (8, 0, 3, -1, 1) in dis
    # the disagreeing entry is sqrt-admissible but rejected as printed
    assert sqrt_gate_admissible(8, 0, 3, -1, 1)
    assert not printed_gate_admissible(8, 0, 3, -1, 1)


def test_gates_agree_on_canonical_branch():
    for m, n, p in enumerate_triples(30):
        assert sqrt_gate_admissible(m, n, p, -1, -1)
        assert printed_gate_admissible(m, n, p, -1, -1)
        assert not sqrt_gate_admissible(m, n, p, 1, 1)
        assert not printed_gate_admissible(m, n, p, 1, 1)


def test_gate_disagreements_match_brute_force():
    expected = [(m, n, p, a, b)
                for m in range(31) for n in range(31) for p in range(31)
                if condition_polynomial(m, n, p) == 0
                for a in (-1, 1) for b in (-1, 1)
                if not (m == n and a == -b)
                and sqrt_gate_admissible(m, n, p, a, b)
                != printed_gate_admissible(m, n, p, a, b)]
    assert expected and interactions_for_output(30)[1] == expected


def test_counts_at_max_mode_200():
    # the numbers the benchmark gate checks on ``enumerate --max-mode 200``
    admitted, disagreements = interactions_for_output(200, gate="sqrt")
    assert len(admitted) == 744
    assert len(disagreements) == 347


def test_massless_variant_empty():
    for m in range(20):
        for n in range(20):
            for p in range(20):
                assert not is_resonant_massless(m, n, p)


def test_resonant_triple_validation():
    with pytest.raises(ValueError):
        ResonantTriple(0, 0, 1, -1, -1, 0.5)   # not resonant
    with pytest.raises(ValueError):
        ResonantTriple(1, 1, 7, -1, 1, 0.5)    # degenerate signs


def _root_is_the_sum(big, a, b):
    """sqrt(big+1) = sqrt(a+1) + sqrt(b+1), in exact integers."""
    prod = (a + 1) * (b + 1)
    r = math.isqrt(prod)
    return r * r == prod and big == a + b + 1 + 2 * r


def _sqrt_characterization(m, n, p):
    # some index's root equals the sum of the other two
    return any(_root_is_the_sum(big, a, b) for big, a, b in ((p, m, n), (m, n, p), (n, m, p)))


def _root_form(m, n, p, alpha, beta):
    """The sqrt gate as its docstring states it: the root of the index the
    signs pick is the sum of the other two."""
    if (alpha, beta) == (1, 1):
        return False
    big, a, b = {(-1, -1): (p, m, n), (-1, 1): (m, n, p), (1, -1): (n, m, p)}[alpha, beta]
    return _root_is_the_sum(big, a, b)


SIGNS = [(-1, -1), (-1, 1), (1, -1), (1, 1)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 400), st.integers(0, 400), st.integers(0, 400))
def test_polynomial_equals_sqrt_characterization(m, n, p):
    assert (condition_polynomial(m, n, p) == 0) == _sqrt_characterization(m, n, p)


def test_sqrt_gate_equals_the_root_form_below_120():
    # off the resonant set both forms reject; on it, every tuple with
    # m, n, p < 120 under every sign pair
    i = np.arange(120)
    on_set = np.argwhere(condition_polynomial(*np.meshgrid(i, i, i, indexing="ij")) == 0)
    verdicts = [sqrt_gate_admissible(*t, *signs) for t in on_set.tolist() for signs in SIGNS]
    assert verdicts == [_root_form(*t, *signs) for t in on_set.tolist() for signs in SIGNS]
    assert sum(verdicts) == 354


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.integers(1, 10 ** 9), st.integers(1, 10 ** 9),
       st.permutations(range(3)), st.sampled_from(SIGNS), st.integers(-1, 1))
def test_sqrt_gate_equals_the_root_form_at_large_indices(d, a, c, order, signs, shift):
    # sqrt(d (a+c)^2) = sqrt(d a^2) + sqrt(d c^2): resonant for shift 0
    triple = (d * a * a - 1, d * c * c - 1, d * (a + c) ** 2 - 1 + shift)
    m, n, p = (triple[k] for k in order)
    assert sqrt_gate_admissible(m, n, p, *signs) == _root_form(m, n, p, *signs)
