"""Integer enumeration of space-time resonant mode triples.

A triple (m, n, p) is resonant exactly when

    m^2 + n^2 + p^2 - 2mn - 2pm - 2pn - 2m - 2n - 2p - 3 = 0,

a fully symmetric condition equivalent to one of sqrt(m+1), sqrt(n+1),
sqrt(p+1) being the sum of the other two.  It is quadratic in each index:
for a fixed output mode p the inputs are n = m + p + 1 +- 2 sqrt((m+1)(p+1)),
and with p+1 = d c^2, d squarefree, they are m+1 = d a^2, n+1 = d (a -+ c)^2.
So the resonant set is walked in closed form, O(sqrt(max_mode)) per output
mode, O(max_mode^(3/2)) over all of them.  ``interactions_for_output`` is
the one listing: a single pass over that walk (``_resonant_inputs``) judges
each tuple by both gates, and returns the interactions the chosen gate
admits together with the tuples on which the gates disagree.  It computes
no coupling: m + n + p is odd on the walk, so every T(m, n, p) is exactly 0.
The cubic brute-force scan and the canonical triple list are test oracles.

All arithmetic is exact (Python integers); there is no overflow bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def condition_polynomial(m: int, n: int, p: int) -> int:
    """Exact integer value of the resonance polynomial."""
    return (m * m + n * n + p * p
            - 2 * m * n - 2 * p * m - 2 * p * n
            - 2 * m - 2 * n - 2 * p - 3)


def sqrt_gate_admissible(m: int, n: int, p: int, alpha: int, beta: int) -> bool:
    """Root-characterization gate: the index whose sign opposes the output
    carries the largest root.

    phi = <xi>_p + alpha <eta>_m + beta <xi-eta>_n vanishes on the space
    resonant line iff the root of the (+)-signed group equals the sum of the
    (-)-signed ones:
      (alpha, beta) = (-1, -1): sqrt(p+1) = sqrt(m+1) + sqrt(n+1)
      (alpha, beta) = (-1, +1): sqrt(m+1) = sqrt(n+1) + sqrt(p+1)
      (alpha, beta) = (+1, -1): sqrt(n+1) = sqrt(m+1) + sqrt(p+1)
      (alpha, beta) = (+1, +1): never.
    On the resonant set (the polynomial is 0) one root is the sum of the
    other two, so its index is the strict largest: the gate asks that the
    index the signs pick be larger than the other two.
    """
    if (alpha, beta) == (1, 1):
        return False
    big, a, b = {(-1, -1): (p, m, n), (-1, 1): (m, n, p), (1, -1): (n, m, p)}[alpha, beta]
    return big > a and big > b and condition_polynomial(m, n, p) == 0


def printed_gate_excludes(m: int, n: int, p: int, alpha: int, beta: int) -> bool:
    """First branch of the sign-inequality case analysis: the tuple has no
    time resonance at all (neither space-time nor space resonant only)."""
    ab = alpha * beta
    return (alpha, beta) == (1, 1) or ab * p + beta * m < 0 or ab * p + beta * n < 0


def printed_gate_admissible(m: int, n: int, p: int, alpha: int, beta: int) -> bool:
    """Admissibility via the sign-inequality case analysis.

    Disagrees with the root characterization on some mixed-sign tuples
    (reports surface the differences); kept selectable for comparison.
    """
    if printed_gate_excludes(m, n, p, alpha, beta):
        return False
    return (condition_polynomial(m, n, p) == 0
            and alpha * beta * p + beta * m + alpha * n >= 0)


def all_couplings_zero(triples) -> bool:
    """Whether every triple has odd m + n + p, so that its Hermite coupling
    T(m, n, p) is exactly 0."""
    return all((tr.m + tr.n + tr.p) % 2 == 1 for tr in triples)


# gate name (the ``gate`` config value, ``--gate`` and ``phase.classify``'s
# ``gate``) -> admissibility test
GATES = {"sqrt": sqrt_gate_admissible, "printed": printed_gate_admissible}


@dataclass(frozen=True)
class ResonantTriple:
    """One admissible interaction feeding output mode p.

    ``alpha``/``beta`` are the phase-class signs of the m- and n-legs; ``lam``
    is the stationary frequency ratio.
    """

    m: int
    n: int
    p: int
    alpha: int
    beta: int
    lam: float

    def __post_init__(self):
        if condition_polynomial(self.m, self.n, self.p) != 0:
            raise ValueError("triple does not satisfy the resonance condition")
        if self.m == self.n and self.alpha == -self.beta:
            raise ValueError("degenerate self-interaction is excluded")


def _resonant_inputs(p: int, max_mode: int):
    """Every (m, n, alpha, beta), m, n <= max_mode, with (m, n, p) resonant,
    in lexicographic order; the degenerate m = n, alpha = -beta is skipped.

    For fixed (m, p) the polynomial is quadratic in n with roots
    n = m + p + 1 -+ 2 sqrt((m+1)(p+1)), integral iff (m+1)(p+1) is a square.
    With p+1 = d c^2, d squarefree, that holds iff m+1 = d a^2, and then
    n+1 = d (a -+ c)^2: the walk visits only m = d a^2 - 1, a = 1, 2, ...
    """
    c = max(k for k in range(1, math.isqrt(p + 1) + 1) if (p + 1) % (k * k) == 0)
    d = (p + 1) // (c * c)
    for a in range(1, math.isqrt((max_mode + 1) // d) + 1):
        m = d * a * a - 1
        for n in (d * (a - c) ** 2 - 1, d * (a + c) ** 2 - 1):
            if not 0 <= n <= max_mode:
                continue
            for alpha in (-1, 1):
                for beta in (-1, 1):
                    if m != n or alpha == beta:
                        yield m, n, alpha, beta


def interactions_for_output(max_mode: int, gate: str = "sqrt"
                            ) -> tuple[list[ResonantTriple], list[tuple[int, int, int, int, int]]]:
    """One walk of the resonant set with every index <= max_mode, both gates
    judged on each (m, n, p, alpha, beta).

    Returns the interactions that ``gate`` ("sqrt" or "printed") admits, in
    (p, m, n, alpha, beta) order, and the sorted (m, n, p, alpha, beta) tuples
    on which the two gates disagree.
    """
    from .phase import lambda_coeff

    admitted, disagreements = [], []
    for p in range(max_mode + 1):
        for m, n, alpha, beta in _resonant_inputs(p, max_mode):
            verdict = {name: admissible(m, n, p, alpha, beta)
                       for name, admissible in GATES.items()}
            if verdict["sqrt"] != verdict["printed"]:
                disagreements.append((m, n, p, alpha, beta))
            if verdict[gate]:
                admitted.append(ResonantTriple(
                    m=m, n=n, p=p, alpha=alpha, beta=beta,
                    lam=lambda_coeff(m, n, alpha, beta)))
    return admitted, sorted(disagreements)
