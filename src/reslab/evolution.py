"""Time integration of the trapped Klein-Gordon equation (pseudo-spectral,
via the first-order profile formulation) and of its resonant reduced system,
producing comparable trajectories.

Full equation
-------------
u_tt - Lap u + x2^2 u + u = u^2 is split as u_pm = u_t +- i sqrt(-Lap+x2^2+1) u,
giving d/dt u~_{pm,p}(xi) = +-i om u~_{pm,p} + (u^2)~_p, om = sqrt(xi^2+2p+2).
u is real, so u~_{-,p}(xi) = conj(u~_{+,p}(-xi)): states hold the "+" profile
only, and ``transform.minus_component`` derives the "-" one.
One step is Strang: exact half rotation, midpoint-rule nonlinear kick computed
by reconstructing u = 2 Re F^-1(u~_+/(2i om)) in physical space (om is even in
xi), squaring pointwise at the cubic quadrature nodes (which makes the mode
truncation an exact Galerkin projection through the triple-product tensor),
transforming back, 2/3-rule dealiasing in xi, exact half rotation.  On the
stored profile f~_{+,p} = e^(-i t om) u~_{+,p}, invariant under the linear
flow, the rotations fold into rot = e^(i (t+dt/2) om):
f' = f + dt conj(rot) k2(rot f).

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
Off-grid samples f~(lam xi) use band-limited trigonometric interpolation;
samples beyond the frequency window are truncated to zero (out-of-band
interactions are not representable on the grid).

A structural fact surfaces here: the resonance condition forces m + n + p to
be odd (reduce the polynomial mod 2), while M(m,n,p) vanishes exactly for odd
total parity.  Every admissible triple therefore carries coupling zero and
the physically-coupled resonant flow is trivial: the reduced profile is
constant in s.  The stepper builds no slot for a zero-coupling triple, and
offers ``coupling_mode="unit"`` as a diagnostic that replaces M by 1, so the
kernel machinery (validated against the oscillatory module) and integrator
convergence can be measured on a non-degenerate right-hand side.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupDetected, ConfigError
from .hermite import HermiteBasis, TripleProductTable
from .transform import (Grid, SpectralState, composite_norms, hm_l2_norm,
                        interp_matrix, minus_component)
from .phase import d2_at_stationary
from .triples import ResonantTriple, interactions_for_output

K_PREF = -1.0 / (8.0 * math.pi)
# Most stepper steps one run may take, t_end/dt * (1 + resonant_subcycle);
# the desk config takes 2000.
MAX_STEPS = 10 ** 7


@dataclass(frozen=True)
class SimConfig:
    """Run configuration; ``validate`` reports violations and hypothesis warnings."""

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

    def validate(self) -> tuple[list[tuple[str, str]], list[str]]:
        """Returns (errors, warnings); errors carry JSON-pointer paths.

        The per-field rules are ``SCHEMA``'s; type errors are reported alone,
        as range rules need numbers.  Then come the rules JSON Schema cannot
        state, and, for a valid config, the step-rounding and hypothesis
        warnings.
        """
        props = SCHEMA["properties"]
        errs = [(f"/{name}", f"must be {_JSON_TYPES[rule['type']]}")
                for name, rule in props.items()
                if "type" in rule and not _has_json_type(getattr(self, name), rule)]
        if errs:
            return errs, []
        errs = [(f"/{name}", msg) for name, rule in props.items()
                for msg in _rule_violations(getattr(self, name), rule)]
        if not errs and self.t_end / self.dt > MAX_STEPS / (1 + self.resonant_subcycle):
            errs.append(("/t_end", "t_end/dt * (1 + resonant_subcycle) must be at "
                                   f"most {MAX_STEPS}"))
        if self.n_x1 & (self.n_x1 - 1):
            errs.append(("/n_x1", "must be a power of two"))
        if self.t_end < self.dt:
            errs.append(("/t_end", "must be >= dt"))
        if any(p >= self.P for p in self.init_modes):
            errs.append(("/init_modes", f"entries must lie in [0, {self.P})"))
        if errs:
            return errs, []
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
        return [], warns


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
    errors, warns = config.validate()
    if errors:
        raise ConfigError(errors)
    return config, warns


def _from_json(value, rule: dict):
    if rule.get("type") == "array" and isinstance(value, list):
        return tuple(_from_json(v, rule["items"]) for v in value)
    integral = rule.get("type") == "integer" and isinstance(value, float) and value.is_integer()
    return int(value) if integral else value


def make_grid(config: SimConfig) -> Grid:
    basis = HermiteBasis.build(config.P - 1)
    return Grid(config.n_x1, config.length_x1, basis)


def init_profile(config: SimConfig, grid: Grid | None = None) -> tuple[Grid, SpectralState]:
    """Seeded Gaussian packets on the configured modes, scaled so the S^{M,N}_0
    norm of the state (both paired components) equals eps/2."""
    if grid is None:
        grid = make_grid(config)
    rng = np.random.default_rng(config.seed)
    coeffs = np.zeros((config.P, grid.n_x1), dtype=complex)
    w = config.packet_width
    for p in config.init_modes:
        amp = 0.5 + 0.5 * rng.random()
        theta = 2.0 * math.pi * rng.random()
        coeffs[p] = amp * np.exp(1j * theta) * np.exp(-0.5 * (grid.xi / w) ** 2)
    coeffs[:, _dealias_mask(grid.n_x1)] = 0.0
    state = SpectralState(0.0, coeffs)
    if config.eps == 0.0:
        state.coeffs[:] = 0.0
        return grid, state
    norm = composite_norms(state, grid, config.M, config.N, t=0.0).S_MN_t
    if not (math.isfinite(norm) and norm > 0.0):
        raise BlowupDetected(f"initial S^(M,N) norm {norm:.3g} is not finite and positive; "
                             "the state cannot be scaled to eps/2")
    state.coeffs *= (config.eps / 2.0) / norm
    return grid, state


def _dealias_mask(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.abs(k) > n / 3.0


def _check_ceiling(coeffs: np.ndarray, ceiling: float) -> None:
    peak = np.max(np.abs(coeffs))
    if not np.isfinite(peak) or peak > ceiling:
        raise BlowupDetected(f"coefficient magnitude {peak:.3g} exceeds {ceiling:.3g}")


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
        self.omega = np.sqrt(grid.xi[None, :] ** 2
                             + (2.0 * np.arange(n_modes) + 2.0)[:, None])
        self.mask = _dealias_mask(grid.n_x1)
        self.synth = basis.cubic_phi[:n_modes]                       # (P, Qc)
        self.project = basis.cubic_total_weights * basis.cubic_phi[:n_modes]
        self._two_i_omega = 2j * self.omega
        self._alt = grid.alt
        self._scale_fwd = grid.dx
        self._scale_inv = grid.n_x1 / grid.length_x1

    def _nonlinear_rhs(self, u: np.ndarray) -> np.ndarray:
        """(u^2)~_p from the "+" traveling component, shape (P, n), dealiased."""
        phys1 = (2.0 * self._scale_inv) * np.fft.ifft(
            self._alt * (u / self._two_i_omega), axis=1).real        # real u, (P, n)
        vals = phys1.T @ self.synth                                  # (n, Qc)
        proj = (vals * vals) @ self.project.T                        # (n, P)
        half = np.fft.rfft(proj.T, axis=1)                           # xi >= 0 of a real field
        out = self._scale_fwd * self._alt * np.concatenate((half, half[:, -2:0:-1].conj()), axis=1)
        out[:, self.mask] = 0.0
        return out

    def step(self, state: SpectralState, dt: float) -> SpectralState:
        t, f = state.time, state.coeffs
        coeffs = f.copy()                    # the linear flow leaves f invariant
        if self.nonlinear:
            rot = np.exp(1j * (t + dt / 2.0) * self.omega)  # folded Strang
            u = f * rot                                      # traveling, mid-step
            k1 = self._nonlinear_rhs(u)
            k2 = self._nonlinear_rhs(u + (dt / 2.0) * k1)
            coeffs = f + dt * k2 * rot.conj()
        _check_ceiling(coeffs, self.norm_ceiling)
        return SpectralState(t + dt, coeffs)


@dataclass
class _TripleSlot:
    triple: ResonantTriple
    idx: np.ndarray        # output-frequency indices with both reads in-window
    em: np.ndarray         # interpolation at lam*xi, divided by <lam xi>_m
    en: np.ndarray         # interpolation at (1-lam)*xi, divided by <(1-lam) xi>_n
    kernel: np.ndarray     # ab * M * sqrt(2 pi / |D|)
    fresnel: np.ndarray    # e^(-i pi/4 sgn D), the sigma = +1 factor


class ResonantStepper:
    """Explicit midpoint integrator for the resonant system.  ``slots`` holds
    the triples with in-window samples and a non-zero coupling.  Couplings
    come from ``table`` if given, else from ``triple_product``, which is an
    exact 0.0 for every resonant triple (odd parity)."""

    def __init__(self, grid: Grid, n_modes: int, gate: str = "sqrt",
                 table: TripleProductTable | None = None,
                 include_alpha_beta: bool = True, norm_ceiling: float = 1e6,
                 coupling_mode: str = "hermite"):
        if coupling_mode not in ("hermite", "unit"):
            raise ValueError("coupling_mode must be 'hermite' or 'unit'")
        self.grid = grid
        self.n_modes = n_modes
        self.norm_ceiling = norm_ceiling
        xi = grid.xi
        bound = grid.xi_max * (1.0 + 1e-12)
        triples = [tr for p in range(n_modes)
                   for tr in interactions_for_output(p, n_modes - 1, gate=gate, table=table)]
        self.triple_count = len(triples)
        # every Hermite M(m,n,p) is zero, whatever coupling_mode is
        self.couplings_all_zero = all(tr.coupling == 0.0 for tr in triples)
        self.slots: list[list[_TripleSlot]] = [[] for _ in range(n_modes)]
        for tr in triples:
            coupling = tr.coupling if coupling_mode == "hermite" else 1.0
            lam = tr.lam
            ok = (np.abs(lam * xi) <= bound) & (np.abs((1.0 - lam) * xi) <= bound)
            idx = np.nonzero(ok)[0]
            if idx.size == 0 or coupling == 0.0:
                continue
            xs = xi[idx]
            em = interp_matrix(grid, lam * xs) \
                / np.sqrt((lam * xs) ** 2 + 2.0 * tr.m + 2.0)[:, None]
            en = interp_matrix(grid, (1.0 - lam) * xs) \
                / np.sqrt(((1.0 - lam) * xs) ** 2 + 2.0 * tr.n + 2.0)[:, None]
            d_signed = d2_at_stationary(tr.m, tr.n, tr.alpha, tr.beta, xs)
            ab = float(tr.alpha * tr.beta) if include_alpha_beta else 1.0
            kernel = K_PREF * ab * coupling * np.sqrt(2.0 * math.pi / np.abs(d_signed))
            fresnel = np.exp(-1j * (math.pi / 4.0) * np.sign(d_signed))
            self.slots[tr.p].append(_TripleSlot(tr, idx, em, en, kernel, fresnel))

    def rhs(self, coeffs: np.ndarray, s: float) -> np.ndarray:
        """d/ds of the "+" profile; a leg of sign -a reads f~_+ when a = -1
        and the derived f~_- when a = +1."""
        out = np.zeros_like(coeffs)
        legs = {-1: coeffs, 1: minus_component(coeffs)}
        inv_sqrt_s = 1.0 / math.sqrt(s)
        for p, slots_p in enumerate(self.slots):
            for slot in slots_p:
                tr = slot.triple
                a_leg = slot.em @ legs[tr.alpha][tr.m]
                b_leg = slot.en @ legs[tr.beta][tr.n]
                out[p, slot.idx] += inv_sqrt_s * slot.kernel * slot.fresnel * a_leg * b_leg
        return out

    def step(self, state: SpectralState, ds: float) -> SpectralState:
        s = state.time
        if not any(self.slots):   # no coupled triple: the flow is constant
            return SpectralState(s + ds, state.coeffs.copy())
        k1 = self.rhs(state.coeffs, s)
        k2 = self.rhs(state.coeffs + (ds / 2.0) * k1, s + ds / 2.0)
        coeffs = state.coeffs + ds * k2
        _check_ceiling(coeffs, self.norm_ceiling)
        return SpectralState(s + ds, coeffs)


@dataclass
class TrajectoryRecord:
    times: list[float] = field(default_factory=list)
    norms_full: list = field(default_factory=list)      # CompositeNorms of f
    norms_resonant: list = field(default_factory=list)  # CompositeNorms of g or None
    diff_norms: list = field(default_factory=list)      # ||f-g||_{H^M0 L2} or nan
    # discrete total variation sum_i ||f(t_{i+1}) - f(t_i)||_{H^M0 L2} over the
    # output times of the comparison window [s0, t_end]
    tv_full: float = 0.0
    resonant_triple_count: int = 0
    resonant_active_slots: int = 0      # slots the resonant stepper steps
    resonant_couplings_all_zero: bool = True   # every M(m,n,p) is zero


def run_compare(config: SimConfig, grid: Grid | None = None,
                state0: SpectralState | None = None,
                observer=None, resume: dict | None = None) -> TrajectoryRecord:
    """Evolve the full profile f from 0 to t_end and the resonant profile g
    from s0 (g(s0) = f(s0)); record composite norms and the difference norm
    at the output cadence.

    ``observer(kind, step, f_state, g_state, record)`` is called at every
    output time ("out") and at checkpoints ("ckpt"); used by the CLI for CSV
    streaming and checkpoint files.  ``resume`` (from a checkpoint) carries
    {"step", "f", "g", "tv"} and restarts the loop mid-trajectory; checkpoints
    land on output times, so total-variation accumulation continues exactly.
    """
    return _run(config, "compare", grid, state0, observer, resume)


def run_single(config: SimConfig, which: str, grid: Grid | None = None,
               state0: SpectralState | None = None,
               observer=None, resume: dict | None = None) -> TrajectoryRecord:
    """Evolve only the full system ("full") or only the resonant one
    ("resonant", started from the initial profile at s0)."""
    if which not in ("full", "resonant"):
        raise ValueError("which must be 'full' or 'resonant'")
    return _run(config, which, grid, state0, observer, resume)


def _run(config: SimConfig, which: str, grid: Grid | None,
         state0: SpectralState | None, observer, resume: dict | None) -> TrajectoryRecord:
    """The one run loop.  The primary state f is stepped by the full stepper,
    or by the resonant sub-cycle when ``which == "resonant"``; in "compare" g
    forks from f at s0 and then runs the same sub-cycle."""
    errs, _ = config.validate()
    if errs:
        raise ValueError("invalid config: " + "; ".join(p for p, _ in errs))
    if grid is None:
        grid = make_grid(config)
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
        record.resonant_active_slots = sum(map(len, resonant.slots))
        record.resonant_couplings_all_zero = resonant.couplings_all_zero
    ds = config.dt / config.resonant_subcycle

    def subcycle(state: SpectralState) -> SpectralState:
        for _ in range(config.resonant_subcycle):
            state = resonant.step(state, ds)
        return state

    out_stride = max(1, round(config.out_every / config.dt))
    ckpt_stride = max(out_stride,
                      (config.checkpoint_every // out_stride) * out_stride)
    t_start = config.s0 if which == "resonant" else 0.0
    n_total = round(max(config.t_end - t_start, 0.0) / config.dt)
    i_s0 = round(min(config.s0, config.t_end) / config.dt) if which == "compare" else -1

    if resume is not None:
        i_start = int(resume["step"])
        f = resume["f"].copy()
        g = resume["g"].copy() if resume["g"] is not None else None
        record.tv_full = float(resume.get("tv", 0.0))
        prev_out = f.coeffs.copy() if g is not None else None
    else:
        i_start = 0
        if state0 is None:
            _, state0 = init_profile(config, grid)
        f = state0.copy()
        if which == "resonant":
            f.time = t_start
        g = None
        prev_out = None

    def emit(step: int) -> None:
        nonlocal prev_out
        record.times.append(f.time)
        record.norms_full.append(composite_norms(f, grid, config.M, config.N))
        if g is not None:
            record.norms_resonant.append(composite_norms(g, grid, config.M, config.N))
            record.diff_norms.append(hm_l2_norm(f.coeffs - g.coeffs, grid, config.M0))
            if prev_out is not None:
                record.tv_full += hm_l2_norm(f.coeffs - prev_out, grid, config.M0)
            prev_out = f.coeffs.copy()
        else:
            record.norms_resonant.append(None)
            record.diff_norms.append(float("nan"))
        if observer is not None:
            observer("out", step, f, g, record)

    if resume is None:
        emit(0)
    for i in range(i_start + 1, n_total + 1):
        f = subcycle(f) if which == "resonant" else full.step(f, config.dt)
        if i == i_s0:
            g = f.copy()
            prev_out = f.coeffs.copy()
        elif g is not None:
            g = subcycle(g)
        if i % out_stride == 0 or i == n_total:
            emit(i)
        if observer is not None and config.checkpoint_every > 0 \
                and i % ckpt_stride == 0:
            observer("ckpt", i, f, g, record)
    return record
