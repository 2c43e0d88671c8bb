"""Time integration of the trapped Klein-Gordon equation (pseudo-spectral,
via the first-order profile formulation) and of its resonant reduced system,
producing comparable trajectories.

Full equation
-------------
u_tt - Lap u + x2^2 u + u = u^2 is split as u_pm = u_t +- i sqrt(-Lap+x2^2+1) u,
giving d/dt u~_{pm,p}(xi) = +-i om u~_{pm,p} + (u^2)~_p, om = sqrt(xi^2+2p+2).
u is real, so u~_{-,p}(xi) = conj(u~_{+,p}(-xi)): a state is the (P, n_x1)
array of the "+" profile only.
One step is Strang: exact half rotation, one kick, exact half rotation.  The
nonlinear sub-flow adds (u^2)~ to u~_+ and u~_- alike (it forces u_t only), so
u = (u~_+ - u~_-)/(2i om) is constant and the kick solves it exactly.  It
squares u = 2 Re F^-1(u~_+/(2i om)) (om is even in xi) at the cubic quadrature
nodes, an exact Galerkin projection through the triple-product tensor, and
dealiases by the 2/3 rule in xi.  The state is the profile
f~_{+,p} = e^(-i t om) u~_{+,p}, invariant under the linear flow.
A call steps a segment of consecutive steps from its start time t in
traveling variables at mid-step, u = e^(i (t+dt/2) om) f: the half rotations
of two consecutive steps merge into one multiply by e^(i dt om).  A segment
ending at t' leaves by R(t') = e^(-i (t'-dt/2) om), and the next one enters
by conj(R(t')) e^(i dt om), so in a run a segment costs one exp whatever its
length.  The run loop's segments end at the output rows and the s0 fork, so
the norms and checkpoints see f only, and the norms of an unchanged g are
summed once.

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
The f~_- legs need no mirror of the state: alt is even in k, so
ifft(alt f~_-) = conj(ifft(alt f~_+)).  Off-grid samples f~(lam xi) are
values of the trigonometric polynomial through the grid values; samples
beyond the frequency window are truncated to zero (out-of-band interactions
are not representable on the grid).  With
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
full stepper, a call steps a segment from its start time s; substep k runs
at s + k ds.  A flow that leaves the state invariant (the linear one, or one
with no leg) returns its input and checks nothing: the run loop checks the
ceiling once, on the initial state.

Runs
----
``run(config, which)`` is the one run loop, for "full", "resonant" or
"compare", on the step count, strides and fork of ``schedule``.  Its clock
is the step count: the time at step i is t_start + i dt, computed afresh
for each segment and row, never accumulated.  It keeps only the latest
output row, so its memory does not grow with the rows.
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
from .transform import Grid, composite_norms, hm_l2_norm, norm_sums, norms_at
from .phase import bracket, d2_at_stationary
from .triples import ResonantTriple, all_couplings_zero, interactions_for_output

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
                                                            ("s0", self.s0),
                                                            ("out_every", self.out_every))
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


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_uniforms(seed: int):
    """The doubles in [0, 1) of numpy's ``default_rng(seed).random()``, in
    plain ints: SeedSequence(seed) -> PCG64 (setseq-128, XSL-RR output) ->
    (next64 >> 11) 2^-53.  It keeps the run commands off numpy.random."""
    const = 0x43B0D7E5

    def hashmix(w, mult=0x931E8875):
        nonlocal const
        w ^= const
        const = const * mult & _MASK32
        w = w * const & _MASK32
        return w ^ w >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    # the 4-word pool over the seed's little-endian 32-bit words
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))
    const = 0x8B51F9DD   # generate_state(4, uint64)
    s = [hashmix(w, 0x58F38DED) for w in pool * 2]
    s = [s[k] | s[k + 1] << 32 for k in range(0, 8, 2)]
    # srandom: words 2-3 set the odd increment; step from 0, add words 0-1, step
    inc = (s[2] << 65 | s[3] << 1 | 1) & _MASK128
    state = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        yield (((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0 ** -53


def init_profile(config: SimConfig, grid: Grid) -> np.ndarray:
    """Seeded Gaussian packets on the configured modes of ``grid``, scaled so
    the S^{M,N}_0 norm of the state (both paired components) equals eps/2."""
    draws = seed_uniforms(config.seed)
    coeffs = np.zeros((config.P, grid.n_x1), dtype=complex)
    with np.errstate(over="ignore"):   # a narrow packet's exp(-inf) is its exact 0
        packet = np.exp(-0.5 * (grid.xi / config.packet_width) ** 2)
    for p in config.init_modes:
        amp = 0.5 + 0.5 * next(draws)
        theta = 2.0 * math.pi * next(draws)
        coeffs[p] = amp * np.exp(1j * theta) * packet
    coeffs[:, _dealias_mask(grid.n_x1)] = 0.0
    if config.eps == 0.0:
        coeffs[:] = 0.0
        return coeffs
    norm = composite_norms(coeffs, 0.0, grid, config.M, config.N).S_MN_t
    if not (math.isfinite(norm) and norm > 0.0):
        raise BlowupDetected(f"initial S^(M,N) norm {norm:.3g} is not finite and positive; "
                             "the state cannot be scaled to eps/2")
    coeffs *= (config.eps / 2.0) / norm
    return coeffs


def _dealias_mask(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.abs(k) > n / 3.0


def _check_ceiling(coeffs: np.ndarray, ceiling: float) -> None:
    peak = np.abs(coeffs).max()
    if not peak <= ceiling:   # NaN and inf fail the comparison too
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
        self.omega = bracket(grid.xi[None, :], np.arange(n_modes)[:, None])
        self.mask = _dealias_mask(grid.n_x1)
        self._synth_t = np.ascontiguousarray(basis.cubic_phi[:n_modes].T)   # (Qc, P)
        self.project = basis.cubic_total_weights * basis.cubic_phi[:n_modes]
        # u = 2 Re F^-1(u~/(2i om)) = Im ifft(u~ to_phys); the forward
        # transform, its (-1)^k phases and the 2/3 rule are one real row
        self._to_phys = (grid.n_x1 / grid.length_x1) * grid.alt / self.omega
        self._from_phys = grid.dx * grid.alt * ~self.mask
        self._shift_dt, self._shift = None, None
        self._exit_key, self._exit = None, None
        # the kick's work arrays: u to_phys and the FFT back, its ifft, the
        # cubic values and their projection
        n = grid.n_x1
        self._work = (np.empty((n_modes, n), complex), np.empty((n_modes, n), complex),
                      np.empty((self._synth_t.shape[0], n)), np.empty((n_modes, n)))

    def _kick(self, u: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """scale (u^2)~_p from the traveling profile u, shape (P, n), dealiased,
        as a new array; the steps between write into the stepper's buffers."""
        spec, field, vals, proj = self._work
        np.multiply(u, self._to_phys, out=spec)
        np.fft.ifft(spec, axis=1, out=field)
        np.matmul(self._synth_t, field.imag, out=vals)   # real u at the cubic nodes
        np.square(vals, out=vals)
        np.matmul(self.project, vals, out=proj)
        return np.fft.fft(proj, axis=1, out=spec) * scale

    def _exit_rotation(self, t: float, dt: float) -> np.ndarray:
        """R(t) = e^(-i (t - dt/2) om), which ends a segment at t; its
        conjugate times e^(i dt om) starts the next one.  The last R is kept
        by its exact (t, dt), so a run's next segment takes it without an exp,
        and a resumed one computes the same bytes afresh."""
        if self._exit_key != (t, dt):
            self._exit_key, self._exit = (t, dt), np.exp(-1j * (t - dt / 2.0) * self.omega)
        return self._exit

    def step(self, f: np.ndarray, t: float, dt: float, steps: int = 1,
             t_next: float | None = None) -> np.ndarray:
        """``steps`` Strang steps of size dt from time t to t_next (by default
        t + steps dt; a run passes the time of its step count), each with one
        kick, the exact nonlinear sub-flow.  Between steps the state is the
        traveling profile at mid-step, u = e^(i (t+dt/2) om) f, joined by one
        rotation e^(i dt om).  f is not written to."""
        if not self.nonlinear:                # the linear flow leaves f invariant
            return f
        if dt != self._shift_dt:
            self._shift_dt, self._shift = dt, np.exp(1j * dt * self.omega)
        scale = dt * self._from_phys
        ceiling = float(self.norm_ceiling)   # an int's square could not become a float
        bound = 0.25 * ceiling * ceiling     # inf when the square overflows
        with np.errstate(over="ignore", invalid="ignore"):   # the ceiling reports it
            u = f * self._exit_rotation(t, dt).conj()        # e^(i (t - dt/2) om) f
            for _ in range(steps):
                u *= self._shift
                u += self._kick(u, scale)
                # sum |u|^2 < ceiling^2/4 proves every |u| under the ceiling;
                # nan and an overflowed sum fail the strict test
                if not np.vdot(u, u).real < bound:
                    _check_ceiling(u, self.norm_ceiling)
            return u * self._exit_rotation(t + steps * dt if t_next is None else t_next, dt)


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
        self._alt = grid.alt
        xi, n = grid.xi, grid.n_x1
        triples, _ = interactions_for_output(n_modes - 1, gate)
        self.triple_count = len(triples)
        self.couplings_all_zero = all_couplings_zero(triples)
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
        g = np.fft.ifft(coeffs * self._alt, axis=1)
        g = np.stack((g, g.conj()))   # the ifft of alt f~_+ and of alt f~_-
        legs = np.fft.fft(g[self._comp, self._mode] * self._pre, 2 * n, axis=1)
        leg_a, leg_b = np.fft.ifft(legs * self._chirp, axis=1)[:, self._out].reshape(2, -1, n)
        out = np.zeros_like(coeffs)
        np.add.at(out, self._p, leg_a * leg_b * (self._weight / math.sqrt(s)))
        return out

    def step(self, coeffs: np.ndarray, s: float, ds: float, steps: int = 1) -> np.ndarray:
        """``steps`` explicit midpoint steps of size ds from time s; coeffs is
        not written to."""
        if not self.active:   # no coupled triple: the flow is constant
            return coeffs
        with np.errstate(over="ignore", invalid="ignore"):   # the ceiling reports it
            for k in range(steps):
                s_k = s + k * ds
                k1 = self.rhs(coeffs, s_k)
                k2 = self.rhs(coeffs + (ds / 2.0) * k1, s_k + ds / 2.0)
                coeffs = coeffs + ds * k2
                _check_ceiling(coeffs, self.norm_ceiling)
        return coeffs


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


def schedule(config: SimConfig, which: str) -> tuple[float, int, int, int, int]:
    """A ``run``'s start time, its step count, the strides, in steps, of its
    output rows and of its checkpoints (a multiple of the first), and the
    step at which g forks from f (-1 but in "compare")."""
    t_start = config.s0 if which == "resonant" else 0.0
    n_total = round(max(config.t_end - t_start, 0.0) / config.dt)
    # a stride beyond the run emits only the first and last rows; clamping it
    # there keeps a huge out_every/dt from overflowing round()
    out_stride = max(1, round(min(config.out_every / config.dt, n_total + 1)))
    ckpt_stride = max(out_stride, (config.checkpoint_every // out_stride) * out_stride)
    # the fork is at least one step in: the resonant kernel 1/sqrt(s) is singular at s = 0
    fork = max(1, round(min(config.s0, config.t_end) / config.dt)) if which == "compare" else -1
    return t_start, n_total, out_stride, ckpt_stride, fork


def run(config: SimConfig, which: str, observer=None,
        resume: dict | None = None) -> TrajectoryRecord:
    """Evolve the full profile f from 0 to t_end ("full"), the
    resonant one from the initial profile at s0 ("resonant"), or both
    ("compare": g forks from f at s0, g(s0) = f(s0), and runs the resonant
    sub-cycle); build a row of ``COLUMNS[which]`` at the output cadence,
    which ``record.row`` holds until the next.  Each state advances by
    segments that end at the output rows, at the fork and at the last step.

    ``observer(step, f, g, record, checkpoint)`` is called once per output
    row with the state arrays; ``checkpoint`` is true on the rows at the
    checkpoint stride, whose states a resume can start from.  ``resume``
    carries {"step", "f", "g", "tv"} of such a row (g None before the fork)
    and restarts the loop there.  The segment ends and their start times
    depend only on the config, so a resumed run replays the same segments,
    its total-variation sum continues exactly and the states give ``record``
    the row written last before the stop.
    """
    if which not in COLUMNS:
        raise ValueError("which must be 'full', 'resonant' or 'compare'")
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
        record.resonant_active_slots = len(resonant.active)
        record.resonant_couplings_all_zero = resonant.couplings_all_zero
    ds = config.dt / config.resonant_subcycle
    t_start, n_total, out_stride, ckpt_stride, i_s0 = schedule(config, which)
    checkpoints = config.checkpoint_every > 0

    # g and its norm_sums: no step writes to its input, so the sums hold while
    # g is the same array, in hermite mode from the fork on
    g_sums = (None, None)

    def measure(step: int) -> list[float]:
        """Sets ``record.row`` from the states; returns every norm it computed."""
        nonlocal g_sums
        t = t_start + step * config.dt
        nf = composite_norms(f, t, grid, config.M, config.N)
        values = [*vars(nf).values()]
        if which != "compare":
            record.row = (t, *values)
        elif g is None:
            record.row = (t, nf.tilde_HN, nf.S_MN_t, math.nan, math.nan)
        else:
            if g_sums[0] is not g:
                g_sums = (g, norm_sums(g, grid, config.M, config.N))
            ng = norms_at(g_sums[1], t)
            record.diff = hm_l2_norm(f - g, grid, config.M0)
            record.row = (t, nf.tilde_HN, nf.S_MN_t, ng.S_MN_t, record.diff)
            values += [*vars(ng).values(), record.diff]
        return values

    def emit(step: int) -> None:
        nonlocal prev_out
        values = measure(step)
        if g is not None:   # prev_out is f at the last row, or at the fork
            record.tv_full += hm_l2_norm(f - prev_out, grid, config.M0)
            prev_out = f
            values.append(record.tv_full)
        # a state under the ceiling can still square past the largest float
        if not all(map(math.isfinite, values)):
            raise BlowupDetected(f"a norm at t = {record.row[0]:.6g} overflows a float")
        if observer is not None:
            observer(step, f, g, record, checkpoints and step > 0 and step % ckpt_stride == 0)

    if resume is not None:
        i, f, g = resume["step"], resume["f"], resume["g"]
        record.tv_full = resume["tv"]
        prev_out = f
        measure(i)   # the row written last before the stop
    else:
        i = 0
        f = init_profile(config, grid)
        _check_ceiling(f, config.norm_ceiling)
        g = prev_out = None
        emit(0)
    while i < n_total:
        # one segment: up to the next output row, or to the fork before it
        end = min((i // out_stride + 1) * out_stride, n_total)
        if i < i_s0 < end:
            end = i_s0
        t, sub = t_start + i * config.dt, (end - i) * config.resonant_subcycle
        f = (resonant.step(f, t, ds, sub) if which == "resonant"
             else full.step(f, t, config.dt, end - i, t_start + end * config.dt))
        if g is not None:
            g = resonant.step(g, t, ds, sub)
        i = end
        if i == i_s0:   # no step writes to its input, so g and prev_out share f
            g = prev_out = f
        if i % out_stride == 0 or i == n_total:
            emit(i)
    return record
