import math
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import table_rows, write_triple_csv
from reslab import textfmt
from reslab.hermite import TripleProductTable
from reslab.textfmt import fmt, format_rows


def percent(ints, values) -> bytes:
    """The reference: one ``%`` per row."""
    line = "%d," * len(ints) + "%.17g\n"
    return "".join(line % (*row, v) for *row, v in
                   zip(*(np.asarray(col).tolist() for col in ints), list(values))).encode()


def is_tie(v) -> bool:
    """Whether |v| lies exactly halfway between two 17-digit decimals."""
    scaled = Fraction(abs(v)) * Fraction(10) ** (16 - Decimal(abs(v)).adjusted())
    return scaled.denominator == 2


def assert_rows_match(values, ints=None):
    values = np.asarray(values, dtype=np.float64)
    ints = [np.arange(values.size)] if ints is None else ints
    assert format_rows(ints, values) == percent(ints, values.tolist())


def test_fmt_is_percent_17g():
    for x in (0.1, -2.5e-300, 1e16, 1e17, float("nan"), np.float64(1 / 3), 7):
        assert fmt(x) == "%.17g" % float(x)


finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(math.isfinite))


@settings(max_examples=300, deadline=None)
@given(st.lists(finite_doubles, min_size=1, max_size=64))
def test_every_finite_double_matches_percent(values):
    assert_rows_match(values)


def test_powers_of_two_down_to_the_smallest_subnormal():
    # 2^-25 = 2.98023223876953125e-08 is an exact 17-digit tie, which % rounds
    # to even
    values = [math.ldexp(1.0, -j) for j in range(1, 1075)]
    assert "%.17g" % math.ldexp(1.0, -25) == "2.9802322387695312e-08"
    assert_rows_match(values + [-v for v in values])


def test_powers_of_ten_and_their_neighbours(monkeypatch):
    tens = [float(f"1e{j}") for j in range(-323, 309)]
    # some are stored below 10^j and still print as 1e+j: their digits carry
    assert any(Fraction(t) < Fraction(10) ** j for j, t in zip(range(-323, 309), tens))
    below, above = np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)
    values = np.concatenate([tens, below, above])
    calls = []
    monkeypatch.setattr(textfmt, "fmt", lambda x: calls.append(x) or fmt(x))
    assert_rows_match(np.concatenate([values, -values]))
    # log10 misses k by one next to half of these; the fast path steps k and
    # decides them, so only the values outside its range and the exact ties
    # (999999999999999.875 is one) take %
    assert calls and all(not 1e-280 <= abs(v) <= 1e280 or is_tie(v) for v in calls)
    assert is_tie(np.nextafter(1e15, 0.0))


def test_signed_zeros_and_non_finite_values():
    assert_rows_match([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
def test_fixed_and_exponent_notation_switch(edge):
    # %g prints fixed for exponents -4 to 16, with exponent notation outside
    near = [edge, *np.nextafter(edge, [0.0, np.inf]), edge * 0.5, edge * 9.999999, edge * 1.5]
    assert_rows_match(near + [-v for v in near])


def test_int_columns_of_every_width():
    ints = [np.array([0, 9, 10, 99, 100, 999, 1000, 123456789012345]),
            np.array([100, 99, 10, 9, 0, 7, 120, 1]), np.zeros(8, dtype=int)]
    assert_rows_match(np.linspace(-1.0, 1.0, 8), ints)
    assert format_rows([np.zeros(0, dtype=int)], np.zeros(0)) == b""


def test_fallback_rows_give_the_percent_text(monkeypatch):
    # a tie window of 1 sends every row to %; the text must not change
    values = np.random.default_rng(7).standard_normal(512) * 10.0 ** np.arange(-256, 256)
    fast = format_rows([np.arange(512)], values)
    calls = []
    monkeypatch.setattr(textfmt, "fmt", lambda x: calls.append(x) or fmt(x))
    monkeypatch.setattr(textfmt, "_TIE_WINDOW", 1.0)
    assert format_rows([np.arange(512)], values) == fast == percent([np.arange(512)], values)
    assert len(calls) == 512


@pytest.mark.parametrize("block", [7, 97, 4096])
def test_table_csv_at_every_small_max_mode(tmp_path, monkeypatch, block):
    monkeypatch.setattr(TripleProductTable, "_CSV_BLOCK", block)
    for max_mode in range(0, 41):
        table = TripleProductTable(max_mode)
        table.write_csv(tmp_path / "table.csv")
        rows = zip(*(col.tolist() for col in table_rows(max_mode)), table.entries.tolist())
        write_triple_csv({(m, n, p): v for m, n, p, v in rows}, tmp_path / "oracle.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
