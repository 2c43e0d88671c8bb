"""Normalized Hermite functions, Gauss-Hermite quadrature, and the triple
interaction tensor.

Conventions
-----------
The stored functions are the L2-normalized Hermite functions

    phi_n = psi_n / ||psi_n||_2,      ||psi_n||_2 = (2^n n! sqrt(pi))^(1/2),

where psi_n(x) = (-1)^n e^(x^2/2) d^n/dx^n e^(-x^2) is the unnormalized
family.  Either convention is recoverable through ``norm_constant``.
phi_n is an eigenfunction of -d^2/dx^2 + x^2 with eigenvalue 2n+1.  Every
value of phi_n comes from the recurrence in ``hermite_table``.

Triple products are computed for the normalized family,

    T(m, n, p) = integral phi_m phi_n phi_p dx,

by Gauss-Hermite quadrature after the substitution x = sqrt(2/3) y, which
turns the total Gaussian factor e^(-3x^2/2) into the quadrature weight
e^(-y^2) and makes the rule exact for m + n + p <= 2*order - 1.  That
substituted rule is built in one place, ``_cubic_rule``, for the basis's
cubic nodes, ``triple_product`` and ``TripleProductTable``; ``MAX_MODE`` is
the largest mode count it can serve within ``MAX_QUAD_ORDER``.  The table
stores columns m, n, p, value in one structured array, filled from one Gram
matmul per p and sorted once.
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


def norm_constant(n: int) -> float:
    """||psi_n||_2 = (2^n n! sqrt(pi))^(1/2), computed in log space."""
    return math.exp(0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0) + 0.5 * math.log(math.pi)))


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
    """Immutable bundle of nodes, weights and mode values for the trap direction.

    ``nodes``/``weights`` form the plain Gauss-Hermite rule used for mode
    projections (integrands poly * e^(-x^2)); ``cubic_phi`` and
    ``cubic_total_weights`` are the sqrt(2/3)-substituted rule that makes
    triple integrals exact.
    """

    max_mode: int
    quad_order: int
    nodes: np.ndarray
    weights: np.ndarray
    total_weights: np.ndarray
    phi: np.ndarray          # (max_mode+1, quad_order) values at nodes
    cubic_total_weights: np.ndarray   # includes the sqrt(2/3) Jacobian
    cubic_phi: np.ndarray

    @classmethod
    def build(cls, max_mode: int) -> "HermiteBasis":
        if max_mode < 0:
            raise ValueError("max_mode must be >= 0")
        # exact for phi_a phi_b projections and for the quadratic nonlinearity
        # projected onto modes <= max_mode; the floor keeps the node extent
        # wide enough that trap-confined test fields decay below 1e-12 at the
        # boundary
        quad_order = max((3 * max_mode) // 2 + 2, 40)
        nodes, weights, total = gauss_hermite(quad_order)
        cubic_phi, cubic_total = _cubic_rule(quad_order, max_mode)
        return cls(
            max_mode=max_mode,
            quad_order=quad_order,
            nodes=nodes,
            weights=weights,
            total_weights=total,
            phi=hermite_table(max_mode, nodes),
            cubic_total_weights=cubic_total,
            cubic_phi=cubic_phi,
        )


def triple_quad_order(m: int, n: int, p: int) -> int:
    return (m + n + p) // 2 + 2


def triple_product(m: int, n: int, p: int, quad_order: int | None = None) -> float:
    """integral phi_m phi_n phi_p dx, exact by substituted Gauss-Hermite.

    Zero is returned exactly for odd m+n+p (odd integrand).
    """
    if min(m, n, p) < 0:
        raise ValueError("mode indices must be >= 0")
    if (m + n + p) % 2 == 1:
        return 0.0
    m, n, p = sorted((m, n, p))   # canonical order: permutations agree bitwise
    if quad_order is None:
        quad_order = triple_quad_order(m, n, p)
    table, w = _cubic_rule(quad_order, p)
    return float(np.sum(w * table[m] * table[n] * table[p]))


class TripleProductTable:
    """Symmetric sparse table of T(m,n,p) for m <= n <= p <= max_mode.

    ``entries`` is a structured array of rows (m, n, p, value) in
    lexicographic (m, n, p) order, one row per even-parity triple; odd-parity
    entries are exactly 0 and not stored.  Each value is computed once, in
    canonical order, so all index permutations return bit-identical values.
    """

    _DTYPE = np.dtype([("m", np.int32), ("n", np.int32), ("p", np.int32), ("value", float)])
    _CSV_BLOCK = 4096

    def __init__(self, max_mode: int):
        quad_order = triple_quad_order(max_mode, max_mode, max_mode)
        self.max_mode = max_mode
        self.built_with = quad_order
        table, w_total = _cubic_rule(quad_order, max_mode)
        blocks = []
        for p in range(max_mode + 1):
            w = w_total * table[p]
            # G[m, n] = sum_i w_i phi_m phi_n for m, n <= p
            g = (table[: p + 1] * w) @ table[: p + 1].T
            mm, nn = np.triu_indices(p + 1)
            even = (mm + nn + p) % 2 == 0
            block = np.empty(int(even.sum()), self._DTYPE)
            block["m"], block["n"], block["p"] = mm[even], nn[even], p
            block["value"] = g[mm[even], nn[even]]
            blocks.append(block)
        rows = np.concatenate(blocks)
        self.entries = rows[np.lexsort((rows["p"], rows["n"], rows["m"]))]
        self._keys = self._key(self.entries["m"], self.entries["n"], self.entries["p"])

    def _key(self, m, n, p):
        """Row key, increasing in lexicographic (m, n, p) order."""
        base = self.max_mode + 1
        return (np.asarray(m, np.int64) * base + n) * base + p

    def get(self, m: int, n: int, p: int) -> float:
        if min(m, n, p) < 0:
            raise ValueError("mode indices must be >= 0")
        if max(m, n, p) > self.max_mode:
            raise KeyError(f"mode above table max_mode={self.max_mode}")
        if (m + n + p) % 2 == 1:
            return 0.0
        a, b, c = sorted((m, n, p))
        return float(self.entries["value"][np.searchsorted(self._keys, self._key(a, b, c))])

    def write_csv(self, path) -> None:
        """Columns m,n,p,value with m<=n<=p, lexicographic row order; written
        in blocks of rows, so the whole text never sits in memory."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("m,n,p,value\n")
            for start in range(0, len(self.entries), self._CSV_BLOCK):
                block = self.entries[start:start + self._CSV_BLOCK]
                rows = zip(*(block[col].tolist() for col in ("m", "n", "p", "value")))
                fh.write("".join(map("%d,%d,%d,%.17g\n".__mod__, rows)))
