"""Time integration of the trapped Klein-Gordon equation (pseudo-spectral,
via the first-order profile formulation) and of its resonant reduced system,
producing comparable trajectories.

Full equation
-------------
u_tt - Lap u + x2^2 u + u = u^2 is split as u_pm = u_t +- i sqrt(-Lap+x2^2+1) u,
giving d/dt u~_{pm,p}(xi) = +-i om u~_{pm,p} + (u^2)~_p, om = sqrt(xi^2+2p+2).
u is real, so u~_{-,p}(xi) = conj(u~_{+,p}(-xi)): states hold the "+" profile
only, and ``transform.minus_component`` derives the "-" one.
One step is Strang: exact half rotation, one kick, exact half rotation.  The
nonlinear sub-flow adds (u^2)~ to u~_+ and u~_- alike (it forces u_t only), so
u = (u~_+ - u~_-)/(2i om) is constant and the kick solves it exactly.  It
squares u = 2 Re F^-1(u~_+/(2i om)) (om is even in xi) at the cubic quadrature
nodes, an exact Galerkin projection through the triple-product tensor, and
dealiases by the 2/3 rule in xi.  The state is the profile
f~_{+,p} = e^(-i t om) u~_{+,p}, invariant under the linear flow.
A call steps a segment of consecutive steps in traveling variables at
mid-step, u = e^(i (t+dt/2) om) f: the half rotations of two consecutive steps
merge into one multiply by e^(i dt om), so a segment costs two exps, at its
ends, whatever its length.  The run loop's segments end at the output rows
and the s0 fork, so the norms and checkpoints see f only.

Resonant system
---------------
d/ds f~_{sigma,p}(xi) = K sum_triples ab M(m,n,p)
    sqrt(2 pi/(s |D|)) e^(i pi/4 sgn(-sigma a D))
    f~_{-sigma a, m}(lam xi)/<lam xi>_m  f~_{-sigma b, n}((1-lam) xi)/<(1-lam) xi>_n,

where (a, b) are the phase-class signs of the admissible triple, lam its
stationary ratio, D the closed-form d2_eta phi at the stationary point and
K = -1/(8 pi) the bilinear prefactor of the equation (derivations often
drop the constant; it is kept so full and resonant trajectories are
comparable).  The field components carry signs (-sigma a, -sigma b): pairing
e^(-+ i s phi^(a,b)) with fields labeled (a, b) directly would be
inconsistent, and the relabeled form is the one that preserves the reality
pairing; only the sigma = +1 output is computed.
Off-grid samples f~(lam xi) are values of the trigonometric polynomial
through the grid values; samples beyond the frequency window are truncated
to zero (out-of-band interactions are not representable on the grid).  With
g = ifft(alt f~), f~(r xi_k) = e^(i pi r k) sum_j g_j e^(-2 pi i r j k/n), k
the signed index, and jk = (j^2 + k^2 - (k-j)^2)/2 makes the sum a circular
convolution of length 2n whose chirp holds k-j at its representative in
[-3n/2, n/2): Bluestein's chirp-z transform, one batched fft, multiply and
ifft for every leg of every triple.

A structural fact surfaces here: the resonance condition forces m + n + p to
be odd (reduce the polynomial mod 2), while M(m,n,p) vanishes exactly for odd
total parity.  Every admissible triple therefore carries coupling zero and
the physically-coupled resonant flow is trivial: the reduced profile is
constant in s.  So no M is computed: the walk lists triples only, and the
stepper checks their parity and builds no leg in hermite mode.  It offers
``coupling_mode="unit"`` as a diagnostic that replaces M by 1, so the
kernel machinery (validated against the oscillatory module) and integrator
convergence can be measured on a non-degenerate right-hand side.  Like the
full stepper, a call steps a segment.  A flow that leaves the state invariant
(the linear one, or one with no leg) is the one ``_idle`` flow, which checks
nothing: the run loop checks the ceiling once, on the initial state.

Runs
----
``run(config, which, grid)`` is the one run loop, for "full", "resonant" or
"compare", on the step count and strides of ``schedule``.  It keeps only the
latest output row, so its memory does not grow with the rows.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BlowupDetected, ConfigError
from .hermite import HermiteBasis
from .transform import Grid, SpectralState, composite_norms, hm_l2_norm, minus_component
from .phase import bracket, d2_at_stationary
from .triples import ResonantTriple, interactions_for_output

K_PREF = -1.0 / (8.0 * math.pi)
# Most stepper steps one run may take, t_end/dt * (1 + resonant_subcycle);
# the desk config takes 2000.
MAX_STEPS = 10 ** 7
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class SimConfig:
    """Run configuration, valid by construction: a value that breaks a rule
    raises ConfigError with (json-pointer, message) issues.  ``warnings``
    lists the step-rounding and hypothesis warnings."""

    eps: float = 0.05
    P: int = 8
    n_x1: int = 128
    length_x1: float = 16.0
    dt: float = 0.02
    t_end: float = 10.0
    M0: float = 1.0
    M: float = 4.0
    N: float = 2.0
    s0: float = 1.0
    gate: str = "sqrt"
    seed: int = 7
    # quadratic products of modes {2, 3} avoid coupled near-resonances inside
    # an 8-mode truncation, which keeps the desk-scale comparison clean
    init_modes: tuple[int, ...] = (2, 3)
    packet_width: float = 1.0
    out_every: float = 0.25
    norm_ceiling: float = 1e6
    checkpoint_every: int = 500
    include_alpha_beta: bool = True
    nonlinear: bool = True
    resonant_subcycle: int = 1
    coupling_mode: str = "hermite"

    def __post_init__(self) -> None:
        """The per-field rules are ``SCHEMA``'s; type errors are reported
        alone, as range rules need numbers.  Then come the rules JSON Schema
        cannot state."""
        props = SCHEMA["properties"]
        errs = [(f"/{name}", f"must be {_JSON_TYPES[rule['type']]}")
                for name, rule in props.items()
                if "type" in rule and not _has_json_type(getattr(self, name), rule)]
        if errs:
            raise ConfigError(errs)
        errs = [(f"/{name}", msg) for name, rule in props.items()
                for msg in _rule_violations(getattr(self, name), rule)]
        if not errs:   # the step budget and the weights need every field in range
            if self.t_end / self.dt > MAX_STEPS / (1 + self.resonant_subcycle):
                errs.append(("/t_end", "t_end/dt * (1 + resonant_subcycle) must be at "
                                       f"most {MAX_STEPS}"))
            # each norm weight at the largest mode and frequency is a finite
            # float; compared in log space, so the check itself cannot overflow
            xi_max = math.pi * self.n_x1 / self.length_x1   # inf for a tiny box
            log_2p = math.log(2.0 * self.P)
            errs += [(ptr, f"norm weight {w} overflows a float") for ptr, w, log_w in (
                ("/M", "(2P)^(2M)", 2.0 * self.M * log_2p),
                ("/M0", "(2P)^(2M0)", 2.0 * self.M0 * log_2p),
                ("/N", "((pi n_x1/length_x1)^2 + 2P)^(2N)",
                 4.0 * self.N * math.log(math.hypot(xi_max, math.sqrt(2.0 * self.P)))),
                ("/length_x1", "(1 + (pi n_x1/length_x1)^2)^(3/2)",
                 3.0 * math.log(math.hypot(xi_max, 1.0)))) if log_w >= _LOG_FLOAT_MAX]
        if self.n_x1 & (self.n_x1 - 1):
            errs.append(("/n_x1", "must be a power of two"))
        if self.t_end < self.dt:
            errs.append(("/t_end", "must be >= dt"))
        if any(p >= self.P for p in self.init_modes):
            errs.append(("/init_modes", f"entries must lie in [0, {self.P})"))
        if errs:
            raise ConfigError(errs)

    def warnings(self) -> list[str]:
        """The step-rounding and hypothesis warnings; the run goes ahead."""
        warns = [f"{name} = {span} is not a multiple of dt = {self.dt}; it is "
                 "rounded to whole steps" for name, span in (("t_end", self.t_end),
                                                            ("s0", self.s0))
                 if abs(math.remainder(span, self.dt)) > 1e-9 * max(1.0, span)]
        if not self.M > 3:
            warns.append("M <= 3 violates the existence-theorem hypothesis M > 3")
        if not self.M > 6:
            warns.append("M <= 6 violates the resonant-existence hypothesis M > 6")
        if not self.N >= 1.5:
            warns.append("N < 3/2 violates the resonant-existence hypothesis N >= 3/2")
        return warns


with open(os.path.join(os.path.dirname(__file__), "config.schema.json"), encoding="utf-8") as _fh:
    SCHEMA = json.load(_fh)   # the run-config rules, installed with the package

# the types the schema uses; arrays are tuples of integers
_JSON_TYPES = {"number": "a finite number", "integer": "an integer",
               "boolean": "a boolean", "array": "a list of integers"}


def _has_json_type(value, rule: dict) -> bool:
    """JSON Schema's type test, except that a bool is no number and a number
    must be finite as a float (NaN, infinities and huge ints fail)."""
    kind = rule["type"]
    if kind == "array":
        return isinstance(value, tuple) and all(_has_json_type(v, rule["items"]) for v in value)
    if kind == "boolean" or isinstance(value, bool):
        return kind == "boolean" and isinstance(value, bool)
    if kind == "integer":
        return isinstance(value, numbers.Integral)
    return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max


def _rule_violations(value, rule: dict) -> list[str]:
    """What ``value``, of the right type, breaks of the rule's other keywords."""
    out = []
    if "minimum" in rule and value < rule["minimum"]:
        out.append(f"must be >= {rule['minimum']}")
    if "exclusiveMinimum" in rule and value <= rule["exclusiveMinimum"]:
        out.append(f"must be > {rule['exclusiveMinimum']}")
    if "maximum" in rule and value > rule["maximum"]:
        out.append(f"must be <= {rule['maximum']}")
    if "enum" in rule and value not in rule["enum"]:
        out.append("must be one of " + ", ".join(map(repr, rule["enum"])))
    if "minItems" in rule and len(value) < rule["minItems"]:
        out.append(f"length must be >= {rule['minItems']}")
    if "items" in rule:
        out += sorted({"entries " + m for v in value for m in _rule_violations(v, rule["items"])})
    return out


def config_from_json(raw: dict) -> tuple[SimConfig, list[str]]:
    """The validated config of a parsed JSON object, and its warnings.  A
    number with zero fraction (4.0) is an integer to JSON Schema, so it
    becomes an int where the schema wants one; arrays become tuples.
    Raises ConfigError with (json-pointer, message) issues."""
    props = SCHEMA["properties"]
    unknown = [(f"/{key}", "unknown field") for key in raw if key not in props]
    if unknown:
        raise ConfigError(unknown)
    config = SimConfig(**{key: _from_json(value, props[key]) for key, value in raw.items()})
    return config, config.warnings()


def _from_json(value, rule: dict):
    if rule.get("type") == "array" and isinstance(value, list):
        return tuple(_from_json(v, rule["items"]) for v in value)
    integral = rule.get("type") == "integer" and isinstance(value, float) and value.is_integer()
    return int(value) if integral else value


def make_grid(config: SimConfig) -> Grid:
    basis = HermiteBasis.build(config.P - 1)
    return Grid(config.n_x1, config.length_x1, basis)


def init_profile(config: SimConfig, grid: Grid) -> SpectralState:
    """Seeded Gaussian packets on the configured modes of ``grid``, scaled so
    the S^{M,N}_0 norm of the state (both paired components) equals eps/2."""
    rng = np.random.default_rng(config.seed)
    coeffs = np.zeros((config.P, grid.n_x1), dtype=complex)
    with np.errstate(over="ignore"):   # a narrow packet's exp(-inf) is its exact 0
        packet = np.exp(-0.5 * (grid.xi / config.packet_width) ** 2)
    for p in config.init_modes:
        amp = 0.5 + 0.5 * rng.random()
        theta = 2.0 * math.pi * rng.random()
        coeffs[p] = amp * np.exp(1j * theta) * packet
    coeffs[:, _dealias_mask(grid.n_x1)] = 0.0
    state = SpectralState(0.0, coeffs)
    if config.eps == 0.0:
        state.coeffs[:] = 0.0
        return state
    norm = composite_norms(state, grid, config.M, config.N).S_MN_t
    if not (math.isfinite(norm) and norm > 0.0):
        raise BlowupDetected(f"initial S^(M,N) norm {norm:.3g} is not finite and positive; "
                             "the state cannot be scaled to eps/2")
    state.coeffs *= (config.eps / 2.0) / norm
    return state


def _dealias_mask(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.abs(k) > n / 3.0


def _check_ceiling(coeffs: np.ndarray, ceiling: float) -> None:
    peak = np.abs(coeffs).max()
    if not peak <= ceiling:   # NaN and inf fail the comparison too
        raise BlowupDetected(f"coefficient magnitude {peak:.3g} exceeds {ceiling:.3g}")


def _idle(state: SpectralState, h: float, steps: int) -> SpectralState:
    """``steps`` steps of size h of a flow that leaves the coefficients as they are."""
    t = state.time
    for _ in range(steps):
        t += h
    return SpectralState(t, state.coeffs.copy())


class FullStepper:
    """Strang-splitting integrator for the profile of the full equation."""

    def __init__(self, grid: Grid, n_modes: int, nonlinear: bool = True,
                 norm_ceiling: float = 1e6):
        self.grid = grid
        self.n_modes = n_modes
        self.nonlinear = nonlinear
        self.norm_ceiling = norm_ceiling
        basis = grid.basis
        if basis.max_mode < n_modes - 1:
            raise ValueError("basis does not cover the requested mode count")
        self.omega = bracket(grid.xi[None, :], np.arange(n_modes)[:, None])
        self.mask = _dealias_mask(grid.n_x1)
        self._synth_t = np.ascontiguousarray(basis.cubic_phi[:n_modes].T)   # (Qc, P)
        self.project = basis.cubic_total_weights * basis.cubic_phi[:n_modes]
        # u = 2 Re F^-1(u~/(2i om)) = Im ifft(u~ to_phys); the forward
        # transform, its (-1)^k phases and the 2/3 rule are one real row
        self._to_phys = (grid.n_x1 / grid.length_x1) * grid.alt / self.omega
        self._from_phys = grid.dx * grid.alt * ~self.mask
        self._shift_dt, self._shift = None, None

    def _kick(self, u: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """scale (u^2)~_p from the traveling profile u, shape (P, n), dealiased;
        the square and the scaling reuse their operands' buffers."""
        phys = np.fft.ifft(u * self._to_phys, axis=1).imag           # real u, (P, n)
        vals = self._synth_t @ phys                                  # (Qc, n)
        np.square(vals, out=vals)
        kick = np.fft.fft(self.project @ vals, axis=1)
        kick *= scale
        return kick

    def step(self, state: SpectralState, dt: float, steps: int = 1) -> SpectralState:
        """``steps`` Strang steps of size dt, each with one kick, the exact
        nonlinear sub-flow.  Between steps the state is the traveling profile at
        mid-step, u = e^(i (t+dt/2) om) f, joined by one rotation e^(i dt om)."""
        if not self.nonlinear:                # the linear flow leaves f invariant
            return _idle(state, dt, steps)
        t, f = state.time, state.coeffs
        if steps > 1 and dt != self._shift_dt:
            self._shift_dt, self._shift = dt, np.exp(1j * dt * self.omega)
        scale = dt * self._from_phys
        with np.errstate(over="ignore", invalid="ignore"):   # the ceiling reports it
            u = f * np.exp(1j * (t + dt / 2.0) * self.omega)
            for k in range(steps):
                if k:
                    u *= self._shift
                    t += dt
                u += self._kick(u, scale)
                _check_ceiling(u, self.norm_ceiling)
            f = u * np.exp(-1j * (t + dt / 2.0) * self.omega)
        return SpectralState(t + dt, f)


class ResonantStepper:
    """Explicit midpoint integrator for the resonant system.  The triples are
    the ``gate``-admitted interactions of one ``interactions_for_output``
    walk over modes 0..n_modes-1.  Each has odd m+n+p, so its Hermite
    coupling is exactly 0 (``couplings_all_zero`` checks the parity) and
    hermite mode builds no leg.  In unit mode every coupling is 1 and
    ``active`` lists the triples with in-window samples.  Each leg, f~_m at
    lam xi or f~_n at (1-lam) xi, keeps its pre-chirp and the FFT of its
    chirp; the post-chirps, brackets, kernel, Fresnel factor and in-window
    mask make one weight row per active triple.  ``table`` is never read, so
    it cannot change a result: ``perfbench/worker.py`` passes it, and the
    benchmark's next change deletes it."""

    def __init__(self, grid: Grid, n_modes: int, gate: str = "sqrt", table=None,
                 include_alpha_beta: bool = True, norm_ceiling: float = 1e6,
                 coupling_mode: str = "hermite"):
        if coupling_mode not in ("hermite", "unit"):
            raise ValueError("coupling_mode must be 'hermite' or 'unit'")
        self.grid = grid
        self.n_modes = n_modes
        self.norm_ceiling = norm_ceiling
        xi, n = grid.xi, grid.n_x1
        triples, _ = interactions_for_output(n_modes - 1, gate)
        self.triple_count = len(triples)
        self.couplings_all_zero = all((tr.m + tr.n + tr.p) % 2 == 1 for tr in triples)
        self.active: list[ResonantTriple] = []
        weights = []
        for tr in triples if coupling_mode == "unit" else ():
            lam = tr.lam
            inw = grid.in_window(lam * xi) & grid.in_window((1.0 - lam) * xi)
            if not inw.any():
                continue
            xs = xi[inw]
            d_signed = d2_at_stationary(tr.m, tr.n, tr.alpha, tr.beta, xs)
            ab = float(tr.alpha * tr.beta) if include_alpha_beta else 1.0
            w = np.zeros(n, dtype=complex)
            w[inw] = (K_PREF * ab * np.sqrt(2.0 * math.pi / np.abs(d_signed))
                      * np.exp(-1j * (math.pi / 4.0) * np.sign(d_signed))
                      / (bracket(lam * xs, tr.m) * bracket((1.0 - lam) * xs, tr.n)))
            self.active.append(tr)
            weights.append(w)
        # the lam legs, then the 1-lam legs; component 1 is the derived f~_-
        legs = np.array([(tr.lam, tr.alpha, tr.m) for tr in self.active]
                        + [(1.0 - tr.lam, tr.beta, tr.n) for tr in self.active]).reshape(-1, 3)
        ratio = legs[:, 0]
        self._comp, self._mode = (legs[:, 1] > 0).astype(int), legs[:, 2].astype(int)
        self._p = np.array([tr.p for tr in self.active], dtype=int)
        k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)   # signed index, FFT order
        j = np.arange(n, dtype=np.int64)
        z = np.arange(2 * n, dtype=np.int64)
        z = np.where(z < n // 2, z, z - 2 * n)   # k - j mod 2n, in [-3n/2, n/2)
        self._out = k % (2 * n)                  # where the convolution holds k
        arg = (math.pi / n) * ratio[:, None]
        self._pre = np.exp(-1j * arg * (j * j))                        # (L, n)
        self._chirp = np.fft.fft(np.exp(1j * arg * (z * z)), axis=1)  # (L, 2n)
        post = np.exp(1j * arg * (k * (n - k)))   # e^(i pi r k) e^(-i pi r k^2/n)
        post_a, post_b = post.reshape(2, -1, n)
        self._weight = np.array(weights).reshape(-1, n) * post_a * post_b

    def rhs(self, coeffs: np.ndarray, s: float) -> np.ndarray:
        """d/ds of the "+" profile; a leg of sign -a reads f~_+ when a = -1
        and the derived f~_- when a = +1."""
        n = coeffs.shape[1]
        g = np.fft.ifft(np.stack((coeffs, minus_component(coeffs))) * self.grid.alt, axis=2)
        legs = np.fft.fft(g[self._comp, self._mode] * self._pre, 2 * n, axis=1)
        leg_a, leg_b = np.fft.ifft(legs * self._chirp, axis=1)[:, self._out].reshape(2, -1, n)
        out = np.zeros_like(coeffs)
        np.add.at(out, self._p, leg_a * leg_b * (self._weight / math.sqrt(s)))
        return out

    def step(self, state: SpectralState, ds: float, steps: int = 1) -> SpectralState:
        """``steps`` explicit midpoint steps of size ds."""
        if not self.active:   # no coupled triple: the flow is constant
            return _idle(state, ds, steps)
        s, coeffs = state.time, state.coeffs
        with np.errstate(over="ignore", invalid="ignore"):   # the ceiling reports it
            for _ in range(steps):
                k1 = self.rhs(coeffs, s)
                k2 = self.rhs(coeffs + (ds / 2.0) * k1, s + ds / 2.0)
                coeffs = coeffs + ds * k2
                _check_ceiling(coeffs, self.norm_ceiling)
                s += ds
        return SpectralState(s, coeffs)


# the columns of an output row: t and norms of f; in "compare" also the
# S^(M,N) norm of g and ||f - g||_{H^M0 L2}, both nan before s0
COLUMNS = {which: ("t", "tilde_HN", "HM_HN", "B_t", "S_MN_t") for which in ("full", "resonant")}
COLUMNS["compare"] = ("t", "tilde_HN_f", "S_MN_f", "S_MN_g", "diff_HM0L2")


@dataclass
class TrajectoryRecord:
    row: tuple = ()     # the latest output row, in the order of COLUMNS[which]
    diff: float | None = None   # the latest ||f-g||_{H^M0 L2}, None before s0
    # discrete total variation sum_i ||f(t_{i+1}) - f(t_i)||_{H^M0 L2} over the
    # output times of the comparison window [s0, t_end]
    tv_full: float = 0.0
    resonant_triple_count: int = 0
    resonant_active_slots: int = 0      # slots the resonant stepper steps
    resonant_couplings_all_zero: bool = True   # every m+n+p odd, so every M(m,n,p) is 0


def schedule(config: SimConfig, which: str) -> tuple[float, int, int, int]:
    """A ``run``'s start time, its step count and the strides, in steps, of its
    output rows and of its checkpoints (a multiple of the first)."""
    t_start = config.s0 if which == "resonant" else 0.0
    n_total = round(max(config.t_end - t_start, 0.0) / config.dt)
    # a stride beyond the run emits only the first and last rows; clamping it
    # there keeps a huge out_every/dt from overflowing round()
    out_stride = max(1, round(min(config.out_every / config.dt, n_total + 1)))
    ckpt_stride = max(out_stride, (config.checkpoint_every // out_stride) * out_stride)
    return t_start, n_total, out_stride, ckpt_stride


def run(config: SimConfig, which: str, grid: Grid, observer=None,
        resume: dict | None = None) -> TrajectoryRecord:
    """Evolve on ``grid`` the full profile f from 0 to t_end ("full"), the
    resonant one from the initial profile at s0 ("resonant"), or both
    ("compare": g forks from f at s0, g(s0) = f(s0), and runs the resonant
    sub-cycle); build a row of ``COLUMNS[which]`` at the output cadence,
    which ``record.row`` holds until the next.  Each state advances by
    segments that end at the output rows, at the fork and at the last step.

    ``observer(kind, step, f_state, g_state, record)`` is called at every
    output time ("out") and at checkpoints ("ckpt").  ``resume`` (from a
    checkpoint) carries {"step", "f", "g", "tv"} and restarts the loop
    mid-trajectory.  The segment ends depend only on the config and every
    checkpoint is an output row, so a resumed run replays the same segments,
    its total-variation sum continues exactly and the checkpoint's states
    give ``record`` the last row written before the stop.
    """
    if which not in COLUMNS:
        raise ValueError("which must be 'full', 'resonant' or 'compare'")
    record = TrajectoryRecord()
    if which != "resonant":
        full = FullStepper(grid, config.P, nonlinear=config.nonlinear,
                           norm_ceiling=config.norm_ceiling)
    if which != "full":
        resonant = ResonantStepper(grid, config.P, gate=config.gate,
                                   include_alpha_beta=config.include_alpha_beta,
                                   norm_ceiling=config.norm_ceiling,
                                   coupling_mode=config.coupling_mode)
        record.resonant_triple_count = resonant.triple_count
        record.resonant_active_slots = len(resonant.active)
        record.resonant_couplings_all_zero = resonant.couplings_all_zero
    ds = config.dt / config.resonant_subcycle
    t_start, n_total, out_stride, ckpt_stride = schedule(config, which)
    # the fork is at least one step in: the resonant kernel 1/sqrt(s) is singular at s = 0
    i_s0 = max(1, round(min(config.s0, config.t_end) / config.dt)) if which == "compare" else -1

    def measure() -> list[float]:
        """Sets ``record.row`` from the states; returns every norm it computed."""
        nf = composite_norms(f, grid, config.M, config.N)
        values = [*vars(nf).values()]
        if which != "compare":
            record.row = (f.time, *values)
        elif g is None:
            record.row = (f.time, nf.tilde_HN, nf.S_MN_t, math.nan, math.nan)
        else:
            ng = composite_norms(g, grid, config.M, config.N)
            record.diff = hm_l2_norm(f.coeffs - g.coeffs, grid, config.M0)
            record.row = (f.time, nf.tilde_HN, nf.S_MN_t, ng.S_MN_t, record.diff)
            values += [*vars(ng).values(), record.diff]
        return values

    def emit(step: int) -> None:
        nonlocal prev_out
        values = measure()
        if g is not None:   # prev_out is f at the last row, or at the fork
            record.tv_full += hm_l2_norm(f.coeffs - prev_out, grid, config.M0)
            prev_out = f.coeffs.copy()
            values.append(record.tv_full)
        # a state under the ceiling can still square past the largest float
        if not all(map(math.isfinite, values)):
            raise BlowupDetected(f"a norm at t = {f.time:.6g} overflows a float")
        if observer is not None:
            observer("out", step, f, g, record)

    if resume is not None:
        i, f, g = resume["step"], resume["f"], resume["g"]   # no step mutates a state
        record.tv_full = resume["tv"]
        prev_out = f.coeffs.copy()
        measure()   # the row written last before the stop
    else:
        i = 0
        f = init_profile(config, grid)
        _check_ceiling(f.coeffs, config.norm_ceiling)
        if which == "resonant":
            f.time = t_start
        g = prev_out = None
        emit(0)
    while i < n_total:
        # one segment: up to the next output row, or to the fork before it
        end = min((i // out_stride + 1) * out_stride, n_total)
        if i < i_s0 < end:
            end = i_s0
        sub = (end - i) * config.resonant_subcycle
        f = resonant.step(f, ds, sub) if which == "resonant" else full.step(f, config.dt, end - i)
        if g is not None:
            g = resonant.step(g, ds, sub)
        i = end
        if i == i_s0:
            g = f.copy()
            prev_out = f.coeffs.copy()
        if i % out_stride == 0 or i == n_total:
            emit(i)
        if observer is not None and config.checkpoint_every > 0 \
                and i % ckpt_stride == 0:
            observer("ckpt", i, f, g, record)
    return record
