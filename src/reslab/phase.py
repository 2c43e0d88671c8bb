"""Three-wave phase functions, their stationary points, resonance
classification, and level-band diagnostics.

The phase of the interaction (input modes m, n with signs alpha, beta, output
mode p) is

    phi(xi, eta) = <xi>_p + alpha <eta>_m + beta <xi - eta>_n,
    <eta>_m = sqrt(eta^2 + 2m + 2).

Space resonances sit on the line eta = lambda * xi with
lambda = 1 / (1 + alpha beta sqrt((n+1)/(m+1))); the line slope in the
(eta, xi) plane is Lambda = 1/lambda.  Space-time resonance holds when phi
also vanishes there, which reduces to an integer condition on (m, n, p).
The curvature d^2_eta phi at the stationary point eta0 = lambda xi has one
closed form, ``d2_at_stationary``; it is signed (it carries alpha), and
callers that need its magnitude take ``abs``.

Two admissibility gates are provided, named as in ``triples.GATES``:
"printed" applies a sign-inequality case analysis, "sqrt" the root
characterization (the index carrying the opposite sign has its root sqrt(k+1)
equal to the sum of the other two).  The two disagree on some mixed-sign
tuples -- the inequality form is not self-consistent there -- so
disagreements are surfaced by reports, never silently resolved.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DegenerateSelfInteraction, ResolutionError
from .triples import GATES, printed_gate_excludes


class Tag(enum.Enum):
    NO_TIME_RESONANCE = "NoTimeResonance"
    SPACE_TIME_RESONANT_LINE = "SpaceTimeResonantLine"
    SPACE_RESONANT_ONLY = "SpaceResonantOnly"


@dataclass(frozen=True)
class PhaseParams:
    m: int
    n: int
    p: int
    alpha: int
    beta: int

    def __post_init__(self):
        if min(self.m, self.n, self.p) < 0:
            raise ValueError("mode indices must be >= 0")
        if self.alpha not in (-1, 1) or self.beta not in (-1, 1):
            raise ValueError("signs must be +-1")


@dataclass(frozen=True)
class ResonanceClass:
    tag: Tag
    resonant_line_slope: float | None = None  # Lambda, with xi = Lambda * eta


def phase(params: PhaseParams, xi, eta):
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = (np.sqrt(xi ** 2 + 2.0 * params.p + 2.0)
           + params.alpha * np.sqrt(eta ** 2 + 2.0 * params.m + 2.0)
           + params.beta * np.sqrt((xi - eta) ** 2 + 2.0 * params.n + 2.0))
    return out if out.ndim else float(out)


def dphase_deta(params: PhaseParams, xi, eta):
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = (params.alpha * eta / np.sqrt(eta ** 2 + 2.0 * params.m + 2.0)
           - params.beta * (xi - eta) / np.sqrt((xi - eta) ** 2 + 2.0 * params.n + 2.0))
    return out if out.ndim else float(out)


def lambda_coeff(m: int, n: int, alpha: int, beta: int) -> float:
    """Stationary frequency ratio: eta0(xi) = lambda * xi.

    Raises DegenerateSelfInteraction for m = n with alpha*beta = -1, where
    d_eta phi vanishes identically at xi = 0 and nowhere else.
    """
    ab = alpha * beta
    if m == n and ab == -1:
        raise DegenerateSelfInteraction(f"m = n = {m} with alpha = -beta")
    return 1.0 / (1.0 + ab * math.sqrt((n + 1.0) / (m + 1.0)))


def d2_at_stationary(m: int, n: int, alpha: int, beta: int, xi):
    """Signed d^2_eta phi at the stationary point eta0 = lambda xi, in closed
    form alpha (2m+2) / (lambda (lambda^2 xi^2 + 2m+2)^(3/2))."""
    lam = lambda_coeff(m, n, alpha, beta)
    xi = np.asarray(xi, dtype=float)
    out = alpha * ((2.0 * m + 2.0) / (lam * (lam * lam * xi ** 2 + 2.0 * m + 2.0) ** 1.5))
    return out if out.ndim else float(out)


def classify(params: PhaseParams, gate: str = "printed") -> ResonanceClass:
    """Full case analysis of the resonant-set theorem.

    (alpha, beta) = (1, 1) never has time resonances.  Otherwise the selected
    gate ("sqrt" or "printed") decides whether the space resonant line is
    also time resonant.
    """
    m, n, p, a, b = params.m, params.n, params.p, params.alpha, params.beta
    admissible = GATES[gate]
    if (a, b) == (1, 1) or (gate == "printed"
                            and printed_gate_excludes(m, n, p, a, b)):
        return ResonanceClass(Tag.NO_TIME_RESONANCE)
    if admissible(m, n, p, a, b):
        return ResonanceClass(Tag.SPACE_TIME_RESONANT_LINE, 1.0 / lambda_coeff(m, n, a, b))
    return ResonanceClass(Tag.SPACE_RESONANT_ONLY)


class Regime(enum.Enum):
    LOW_FREQ = "LowFreq"
    RHO_SMALL = "RhoSmall"
    RHO_LARGE = "RhoLarge"


def band_width_reference(m: int, n: int, j: int, regime: Regime, k: int | None = None) -> float:
    """Scale that the measured band width is compared against (constants free)."""
    if regime is Regime.LOW_FREQ:
        return 2.0 ** -j * min(math.sqrt(m), math.sqrt(n))
    if regime is Regime.RHO_SMALL:
        if k is None:
            raise ValueError("RhoSmall reference needs the dyadic level k of |eta|")
        return 2.0 ** (3 * k) * 2.0 ** -j / (2.0 * m + 2.0)
    return 2.0 ** (j / 2.0) * math.sqrt(2.0 * n + 2.0)


def _probe_eta(m: int, n: int, j: int, regime: Regime, k: int | None) -> float:
    if regime is Regime.LOW_FREQ:
        return min(math.sqrt(m), math.sqrt(n)) / 8.0
    if regime is Regime.RHO_SMALL:
        if k is None:
            raise ValueError("RhoSmall probe needs the dyadic level k")
        eta = math.sqrt(2.0) * 2.0 ** k
        rho = eta * eta / (2.0 ** j * max(m, 1))
        if eta < math.sqrt(m) or rho > 0.5:
            raise ValueError(f"(m={m}, j={j}, k={k}) is outside the small-rho regime")
        return eta
    return None  # caller supplies the window for RHO_LARGE


def band_width_probe(m: int, n: int, j: int, regime: Regime, k: int | None = None,
                     eta_window: float | None = None) -> float:
    """Measured width of the band {-2^-j <= d_eta phi <= -2^-(j+1)} near the
    resonant line, for the (-1,-1) phase (p drops out of d_eta phi).

    The probe walks along the inward normal of the resonant line from a base
    point chosen for the regime and brackets both level crossings by bisection;
    the width is the distance between them.  Raises BracketFailure when a level
    is not reached inside the probe window (empty level set).
    """
    params = PhaseParams(m, n, 0, -1, -1)
    lam = lambda_coeff(m, n, -1, -1)
    slope = 1.0 / lam   # xi = slope * eta on the resonant line
    eta0 = eta_window if regime is Regime.RHO_LARGE else _probe_eta(m, n, j, regime, k)
    if eta0 is None:
        raise ValueError("RhoLarge probe needs eta_window")
    base = np.array([slope * eta0, eta0])        # (xi, eta) on the line
    normal = np.array([1.0, -slope]) / math.hypot(1.0, slope)

    def g(s: float) -> float:
        return dphase_deta(params, base[0] + s * normal[0], base[1] + s * normal[1])

    # d_eta phi decreases away from the line on the chosen side; orient the walk
    probe = 1e-6 * (1.0 + abs(eta0))
    direction = -1.0 if g(probe) > 0.0 else 1.0

    def crossing(level: float) -> float:
        lo, hi = 0.0, probe
        span = 4.0 * (1.0 + abs(eta0) + math.sqrt(m + n + 2.0))
        while g(direction * hi) > level:
            lo, hi = hi, 2.0 * hi
            if hi > span:
                raise BracketFailure(
                    f"level {level:.3g} not reached within |s| <= {span:.3g}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(direction * mid) > level:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13 * (1.0 + hi):
                break
        return 0.5 * (lo + hi)

    s_outer = crossing(-(2.0 ** -j))
    s_inner = crossing(-(2.0 ** -(j + 1)))
    return abs(s_outer - s_inner)


def sampled_phase_min(params: PhaseParams, R: float) -> float:
    """Minimum of |phi| over a polar sampling of the ball |(xi,eta)| <= R,
    400 radii by 800 angles.

    Raises ResolutionError when the minimum is not finite (phi overflows on
    a ball too large for floating point)."""
    radii = np.linspace(0.0, R, 400)
    angles = np.linspace(0.0, 2.0 * math.pi, 800, endpoint=False)
    rr, aa = np.meshgrid(radii, angles)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.abs(phase(params, rr * np.cos(aa), rr * np.sin(aa))).min())
    if not math.isfinite(value):
        raise ResolutionError(f"sampled |phi| on the ball of radius {R:.3g} is not finite")
    return value


def phase_report(params: PhaseParams, R: float = 20.0,
                 width_specs: tuple = ()) -> dict:
    """JSON-ready diagnostic summary for one parameter set.

    ``width_specs`` is an iterable of (j, regime_name, k_or_None) entries;
    probes that fail to bracket are reported with width null.
    """
    printed = classify(params, "printed")
    sqrt_cls = classify(params, "sqrt")
    try:
        lam = lambda_coeff(params.m, params.n, params.alpha, params.beta)
        d2 = abs(d2_at_stationary(params.m, params.n, params.alpha, params.beta, 0.0))
    except DegenerateSelfInteraction:
        lam = None
        d2 = None
    probes = []
    for j, regime_name, k in width_specs:
        regime = Regime(regime_name)
        entry = {"j": j, "regime": regime.value, "k": k}
        try:
            entry["measured_width"] = band_width_probe(params.m, params.n, j, regime, k=k)
            entry["reference_scale"] = band_width_reference(params.m, params.n, j, regime, k=k)
        except (BracketFailure, ValueError, OverflowError) as exc:
            entry["measured_width"] = None
            entry["error"] = str(exc)
        probes.append(entry)
    return {
        "params": {"m": params.m, "n": params.n, "p": params.p,
                   "alpha": params.alpha, "beta": params.beta},
        "class": printed.tag.value,
        "class_sqrt_gate": sqrt_cls.tag.value,
        "gates_disagree": printed.tag is not sqrt_cls.tag,
        "lambda": lam,
        "d2_at_zero": d2,
        "sampled_phase_min": sampled_phase_min(params, R),
        "ball_radius": R,
        "width_probes": probes,
    }
