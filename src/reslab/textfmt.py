"""The one home of the ``%.17g`` rule of reslab's text outputs.

``fmt`` formats one float.  ``format_rows`` returns the text of many lines
``i1,...,ik,v`` at once, byte for byte what ``"%d,...,%d,%.17g\\n" % row``
gives for each row, without a ``%`` per row.

It takes the 17 significant digits of |v| from D = round(|v| 10^(16-k)),
k = floor(log10 |v|), computed as a double-double product (Dekker 1971):
|v| times 10^(16-k) held as hi + lo, with the product's rounding error
recovered exactly by a Veltkamp split.  Its error is below 1e-14 of a unit
of D, so D is decided wherever the fraction lies farther than ``_TIE_WINDOW``
from 1/2.  The rows where it is not, and the rows of 0, non-finite or
extreme values, take the exact ``%`` instead, as Grisu does (Loitsch 2010).

The text of a block is built column-major, one byte position per row of a
(W, N) uint8 array, so that every step is a contiguous operation of length
N; each row holds its candidate bytes in a fixed layout with the bytes it
does not use set to NUL, and one transpose and one ``bytes.translate`` drop
them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_TIE_WINDOW = 1e-6
# |v| outside this range takes %: 10^(16-k) and its split stay finite and
# normal, and the product's error term does not underflow
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN, _K_MAX = -282, 281          # k of the fast range, with one step of retry
_SPLIT = 134217729.0                # 2^27 + 1, Veltkamp's constant
_D_MIN, _D_MAX = 10 ** 16, 10 ** 17
_VALUE_WIDTH = 46                   # sign, "0.000", 17 + "." + 17 digits, "e+ddd"
_NUL, _MARK, _ZERO = 0, 1, ord("0")


def fmt(x) -> str:
    return "%.17g" % float(x)


@lru_cache(maxsize=1)
def _powers() -> tuple[np.ndarray, ...]:
    """10^s = hi + lo for s = 16 - k over the fast range of k, from exact
    integers (int / int is correctly rounded), and hi split into halves of
    26 bits.  Returns ``hi, hi_head, hi_tail, lo``, indexed by _K_MAX - k."""
    hi, lo = [], []
    for k in range(_K_MAX, _K_MIN - 1, -1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    c = _SPLIT * hi
    head = c - (c - hi)
    return hi, head, hi - head, np.array(lo)


def _scaled(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part (int64) and fraction of ax 10^(16-k) in double-double:
    p = ax hi rounded, plus its exact error and ax lo."""
    hi, head, tail, lo = (a[_K_MAX - k] for a in _powers())
    c = _SPLIT * ax
    ah = c - (c - ax)
    at = ax - ah
    p = ax * hi
    r = (((ah * head - p) + ah * tail + at * head) + at * tail) + ax * lo
    fl = np.floor(r)
    return p.astype(np.int64) + fl.astype(np.int64), r - fl


def _digit_rows(col: np.ndarray, width: int, out: np.ndarray, pad: bool) -> None:
    """The decimal characters of the non-negative integers ``col`` in ``width``
    rows of ``out``, most significant first; with ``pad`` the leading zeros
    are NUL, and the last digit is always written."""
    for j in range(width - 1, -1, -1):
        q = col // 10
        out[j] = col - q * 10 + _ZERO
        if pad and j < width - 1:
            out[j] *= col != 0   # col holds value // 10^(width-1-j): 0 on a leading zero
        col = q


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k and the 17 digit characters (a (17, N) uint8 array, most significant
    first) of %.17g for each |x|, and the mask of the rows the fast path does
    not decide, whose k and digits are not meaningful."""
    ax = np.abs(x)
    slow = ~((ax >= _FAST_MIN) & (ax <= _FAST_MAX))     # 0, inf and nan too
    ax[slow] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64)
    whole, frac = _scaled(ax, k)
    # log10 may miss k by one next to a power of 10: step and compute again
    off = (whole >= _D_MAX).astype(np.int64) - (whole < _D_MIN)
    moved = np.flatnonzero(off)
    if moved.size:
        k[moved] += off[moved]
        whole[moved], frac[moved] = _scaled(ax[moved], k[moved])
    # where the true value sits on 10^16 or 10^17 itself, the computed one may
    # fall a rounding error outside either k; rounded to D it lands in range
    whole += frac > 0.5
    slow |= (whole < _D_MIN) | (whole > _D_MAX) | (np.abs(frac - 0.5) < _TIE_WINDOW)
    carry = whole == _D_MAX
    whole[carry] = _D_MIN
    k += carry
    digits = np.empty((17, x.size), dtype=np.uint8)
    head, tail = np.divmod(whole, 10 ** 9)
    _digit_rows(head.astype(np.uint32), 8, digits[:8], False)
    _digit_rows(tail.astype(np.uint32), 9, digits[8:], False)
    return k, digits, slow


def format_rows(ints, values) -> bytes:
    """The lines ``"%d,...,%d,%.17g\\n" % (*ints_i, values_i)`` for every row
    i, concatenated.  ``ints`` are columns of non-negative integers and
    ``values`` a float64 column, all of one length."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if not n:
        return b""
    k, dch, slow = _decimal(x)
    nd = ((dch != _ZERO) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)  # digits kept
    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)                 # "0." and -k - 1 zeros before the digits
    nint = np.where(fixed, np.maximum(k + 1, 0), 1)   # digits before the point
    sci = ~fixed
    ak = np.abs(k)

    # the layout: each int and ",", sign, "0.000", 17 integer digits, ".",
    # 17 fraction digits, "e+ddd", newline; a byte position that no row of
    # the block uses gets no row of ``blk``
    ints = [np.asarray(col) for col in ints]
    widths = [len(str(int(col.max()))) for col in ints]
    blk = np.empty((sum(widths) + len(widths) + _VALUE_WIDTH + 1, n), dtype=np.uint8)
    row = 0
    for col, w in zip(ints, widths):
        _digit_rows(col.astype(np.uint64), w, blk[row:row + w], True)
        blk[row + w] = ord(",")
        row += w + 1
    value0 = row
    neg = np.signbit(x)
    if neg.any():
        blk[row] = neg * np.uint8(ord("-"))
        row += 1
    if small.any():
        blk[row] = small * np.uint8(_ZERO)
        blk[row + 1] = small * np.uint8(ord("."))
        row += 2
        for j in range(-1 - int(k[small].min())):   # the zeros after "0."
            blk[row] = (small & (k <= -2 - j)) * np.uint8(_ZERO)
            row += 1
    for j in range(int(nint.max())):
        np.multiply(dch[j], nint > j, out=blk[row])
        row += 1
    point = (nd > nint) & ~small
    if point.any():
        blk[row] = point * np.uint8(ord("."))
        row += 1
    for j in range(int(nint.min()), int(nd.max())):
        np.multiply(dch[j], (nint <= j) & (nd > j), out=blk[row])
        row += 1
    if sci.any():
        blk[row] = sci * np.uint8(ord("e"))
        blk[row + 1] = sci * np.where(k < 0, np.uint8(ord("-")), np.uint8(ord("+")))
        row += 2
        if (sci & (ak >= 100)).any():
            blk[row] = (sci & (ak >= 100)) * (ak // 100 + _ZERO).astype(np.uint8)
            row += 1
        blk[row] = sci * (ak // 10 % 10 + _ZERO).astype(np.uint8)
        blk[row + 1] = sci * (ak % 10 + _ZERO).astype(np.uint8)
        row += 2
    blk[row] = ord("\n")
    idx = np.flatnonzero(slow)
    if not idx.size:
        return blk[:row + 1].T.tobytes().translate(None, b"\0")
    # each slow row's value is one mark byte, replaced by its % text
    blk[value0:row, idx] = _NUL
    blk[value0, idx] = _MARK
    parts = blk[:row + 1].T.tobytes().translate(None, b"\0").split(bytes([_MARK]))
    texts = [fmt(v).encode() for v in x[idx].tolist()]
    return b"".join(b for pair in zip(parts, texts + [b""]) for b in pair)
