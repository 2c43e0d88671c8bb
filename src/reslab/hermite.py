"""Normalized Hermite functions, Gauss-Hermite quadrature, and the triple
interaction tensor.

Conventions
-----------
The stored functions are the L2-normalized Hermite functions

    phi_n = psi_n / ||psi_n||_2,      ||psi_n||_2 = (2^n n! sqrt(pi))^(1/2),

where psi_n(x) = (-1)^n e^(x^2/2) d^n/dx^n e^(-x^2) is the unnormalized
family: multiply phi_n by (2^n n! sqrt(pi))^(1/2) to recover psi_n.
phi_n is an eigenfunction of -d^2/dx^2 + x^2 with eigenvalue 2n+1.  Every
value of phi_n comes from the recurrence in ``hermite_table``.

Triple products are computed for the normalized family,

    T(m, n, p) = integral phi_m phi_n phi_p dx,

by Gauss-Hermite quadrature after the substitution x = sqrt(2/3) y, which
turns the total Gaussian factor e^(-3x^2/2) into the quadrature weight
e^(-y^2) and makes the rule exact for m + n + p <= 2*order - 1.  That
substituted rule is built in one place, ``_cubic_rule``, for the basis's
cubic nodes and ``TripleProductTable``, the one home of T in the package;
``MAX_MODE`` is the largest mode count it can serve within
``MAX_QUAD_ORDER``.  The table
stores only the values, one float64 per row in lexicographic (m, n, p)
order: one run of rows per pair m <= n, holding the even-parity p >= n
(``_row_runs``), so a row's m, n and p follow from its place.  One Gram
matmul per p gives that p's rows, which are scattered straight to their
places, and a row is found by arithmetic.  ``write_csv`` builds each
block's indices from the runs and writes their ``%.17g`` text with
``textfmt.format_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

# x = _SCALE * y maps the weight e^(-3x^2/2) to e^(-y^2)
_SCALE = math.sqrt(2.0 / 3.0)

# Above this order the raw Gauss-Hermite weights underflow and the
# weight/exp(x^2) recombination loses all digits.
MAX_QUAD_ORDER = 320
# The largest max_mode whose cubic rule, of order 3 max_mode // 2 + 2, fits.
MAX_MODE = 2 * (MAX_QUAD_ORDER - 2) // 3


def hermite_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """All phi_0..phi_{n_max} on the points x; shape (n_max+1, len(x)).

    Three-term recurrence with the Gaussian folded in, stable for large n
    where differentiating e^(-x^2) overflows:
    phi_0 = pi^(-1/4) e^(-x^2/2),  phi_1 = sqrt(2) x phi_0,
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1}.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = math.sqrt(2.0 / (k + 1.0)) * x * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


@lru_cache(maxsize=64)
def gauss_hermite(order: int):
    """Nodes, weights and total weights w*exp(x^2) of the order-point rule.

    The rule integrates poly(x) * e^(-x^2) exactly for deg <= 2*order - 1;
    the total weights integrate decaying smooth functions directly.
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if order > MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order {order} exceeds {MAX_QUAD_ORDER}")
    nodes, weights = hermgauss(order)
    if np.any(weights <= 0.0):
        raise ValueError(f"Gauss-Hermite weights underflow at order {order}")
    total = np.exp(np.log(weights) + nodes * nodes)
    return nodes, weights, total


def _cubic_rule(order: int, max_mode: int) -> tuple[np.ndarray, np.ndarray]:
    """phi_0..phi_max_mode at the nodes of the order-point rule substituted by
    x = sqrt(2/3) y, and its total weights, which include the Jacobian."""
    nodes, _, total = gauss_hermite(order)
    return hermite_table(max_mode, _SCALE * nodes), _SCALE * total


@dataclass(frozen=True)
class HermiteBasis:
    """Mode values for the trap direction: ``cubic_phi`` and
    ``cubic_total_weights`` are the sqrt(2/3)-substituted rule of order
    ``triple_quad_order(max_mode, max_mode, max_mode)``, the fewest nodes that
    make every triple integral of the basis exact, so the rule projects the
    square of a field of modes <= max_mode onto those modes exactly.
    """

    max_mode: int
    cubic_phi: np.ndarray    # (max_mode+1, 3 max_mode // 2 + 2)
    cubic_total_weights: np.ndarray   # includes the sqrt(2/3) Jacobian

    @classmethod
    def build(cls, max_mode: int) -> "HermiteBasis":
        if max_mode < 0:
            raise ValueError("max_mode must be >= 0")
        cubic_phi, cubic_total = _cubic_rule(triple_quad_order(max_mode, max_mode, max_mode),
                                             max_mode)
        return cls(max_mode=max_mode, cubic_phi=cubic_phi, cubic_total_weights=cubic_total)


def triple_quad_order(m: int, n: int, p: int) -> int:
    return (m + n + p) // 2 + 2


def _row_runs(max_mode: int):
    """The table's row layout: one run per pair m <= n, pairs in row-major
    order, and the run of (m, n) holds the even-parity p >= n, that is
    p = first, first + 2, ..., max_mode with first = n + m % 2, in ``count``
    rows (0 when first > max_mode).  Returns ``mm, nn, first, count``."""
    mm, nn = np.triu_indices(max_mode + 1)
    first = nn + mm % 2
    return mm, nn, first, (max_mode - first) // 2 + 1


class TripleProductTable:
    """Symmetric sparse table of T(m,n,p) for m <= n <= p <= max_mode.

    ``entries`` is a float64 array of the values T(m, n, p) in lexicographic
    (m, n, p) order, one row per even-parity triple; odd-parity entries are
    exactly 0 and not stored.  The rows form the runs of ``_row_runs``, which
    give each row's m, n and p: a row's index is its run's start plus
    (p - first) // 2.  The table is built one p at a time, each Gram matrix
    G_p scattered to its rows, so each value is computed once and all index
    permutations agree.
    """

    _CSV_BLOCK = 4096

    def __init__(self, max_mode: int):
        quad_order = triple_quad_order(max_mode, max_mode, max_mode)
        self.max_mode = max_mode
        self.built_with = quad_order
        table, w_total = _cubic_rule(quad_order, max_mode)
        mm, nn, first, count = _row_runs(max_mode)
        self._first, self._start = first, np.cumsum(count) - count
        self.entries = np.empty(int(count.sum()))
        # the runs holding a row at p are those with m + n + p even and
        # n <= p: ordered by n, a prefix of the runs of p's parity, and each
        # row sits at its run's start + (p - first) // 2 = row0 + p // 2
        by_n = np.lexsort((mm, nn))
        mm, nn, row0 = mm[by_n], nn[by_n], (self._start - first // 2)[by_n]
        runs = [(mm[sel], nn[sel], row0[sel]) for sel in ((mm + nn) % 2 == q for q in (0, 1))]
        for p in range(max_mode + 1):
            m, n, r = runs[p % 2]
            cut = np.searchsorted(n, p, side="right")
            m, n, r = m[:cut], n[:cut], r[:cut] + p // 2
            # G_p[m, n] = sum_i w_i phi_p phi_m phi_n for m, n <= p
            g = (table[: p + 1] * (w_total * table[p])) @ table[: p + 1].T
            self.entries[r] = g[m, n]

    def get(self, m: int, n: int, p: int) -> float:
        if min(m, n, p) < 0:
            raise ValueError("mode indices must be >= 0")
        if max(m, n, p) > self.max_mode:
            raise KeyError(f"mode above table max_mode={self.max_mode}")
        if (m + n + p) % 2 == 1:
            return 0.0
        a, b, c = sorted((m, n, p))
        run = a * (2 * self.max_mode + 3 - a) // 2 + b - a   # (a, b) in row-major order
        return float(self.entries[self._start[run] + (c - self._first[run]) // 2])

    def write_csv(self, path) -> None:
        """Columns m,n,p,value with m<=n<=p, lexicographic row order, each
        value as ``%.17g``.  The rows go in blocks of whole runs of
        ``_row_runs``, at least ``_CSV_BLOCK`` rows each: a block's m, n and
        p are built from its runs and its text by ``textfmt.format_rows``,
        so the whole text never sits in memory."""
        from .textfmt import format_rows   # as in cli._RunWriter.__call__

        mm, nn, first, count = _row_runs(self.max_mode)
        end = self._start + count
        with open(path, "wb") as fh:
            fh.write(b"m,n,p,value\n")
            run, at = 0, 0
            while at < self.entries.size:
                # through the run that fills the block
                stop = min(int(np.searchsorted(end, at + self._CSV_BLOCK)) + 1, end.size)
                runs, rows = slice(run, stop), int(end[stop - 1]) - at
                reps = count[runs]
                # row i of the block in run r holds p = first + 2 (i - the run's first row)
                p = 2 * np.arange(rows) + np.repeat(first[runs] - 2 * (self._start[runs] - at), reps)
                fh.write(format_rows((np.repeat(mm[runs], reps), np.repeat(nn[runs], reps), p),
                                     self.entries[at:at + rows]))
                run, at = stop, at + rows
