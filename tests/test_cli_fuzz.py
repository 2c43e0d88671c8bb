"""The run commands' contract on configs drawn from the schema itself: at,
inside and just past each bound, huge ints and values of the wrong type.
Whatever the config, a run exits 0, 2 or 3 without a traceback or a numpy
warning, and a run that exits 0 wrote finite norms and a manifest that
lists exactly the files of its directory.  A ``simulate-full`` run that
exits 0 is resumed from its checkpoint, and the resumed ``trajectory.csv``
and ``summary.json`` are the uninterrupted ones byte for byte, or the resume
exits 2.  Only the size fields are clamped, so that a valid draw stays a run
of a few steps on a small grid.  A checkpoint whose step and rows are
rewritten with valid CRCs resumes only when they are the written values.

``phase-report`` keeps the same contract on drawn radii and width probes
over a wide range of levels j and of dyadic levels k, and a probe it cannot
measure reports a null width with an error, never a measured width of 0.
A mode index above ``hermite.MAX_MODE``, up to far beyond float range, exits
2 with an argparse message."""

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import rewrite_checkpoint
from reslab.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from reslab.evolution import MAX_STEPS, SCHEMA
from reslab.hermite import MAX_MODE

FLOAT_MAX = sys.float_info.max
HUGE_INTS = (2 ** 63, 2 ** 64 + 1, 10 ** 400, -(2 ** 63))
# a small valid run that the drawn fields override
BASE = {"P": 4, "n_x1": 32, "t_end": 0.2, "dt": 0.02, "s0": 0.1,
        "init_modes": [0, 1], "out_every": 0.05, "checkpoint_every": 5}
MAX_RATIO = 20      # t_end/dt of a valid draw
MAX_SUBCYCLE = 3


def _near(bound) -> list:
    """The bound, the floats next to it and the integers either side."""
    return [bound, float(bound), math.nextafter(bound, -math.inf),
            math.nextafter(bound, math.inf), bound - 1, bound + 1]


def field_values(rule: dict):
    """Values for one schema field: its edges and a range inside it."""
    if "enum" in rule:
        return st.sampled_from(rule["enum"] + ["neither"])
    kind = rule["type"]
    if kind == "boolean":
        return st.sampled_from([True, False, 0, 1, None])
    if kind == "array":
        return st.one_of(st.lists(field_values(rule["items"]), max_size=3),
                         st.sampled_from([7, "0"]))
    lo = rule.get("minimum", rule.get("exclusiveMinimum", -1e6))
    hi = rule.get("maximum", 1e6)
    edges = [0, 1, -1, 0.5, 1e-300, FLOAT_MAX, -FLOAT_MAX, math.inf, math.nan,
             True, "1", *HUGE_INTS]
    for key in ("minimum", "exclusiveMinimum", "maximum"):
        if key in rule:
            edges += _near(rule[key])
    if kind == "integer":
        inside = st.integers(int(lo), int(min(hi, lo + 1000)))
    else:
        inside = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from(edges), inside)


def _integral(value) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _positive(value) -> bool:
    return not isinstance(value, (bool, str)) and isinstance(value, (int, float)) \
        and 0 < value <= FLOAT_MAX


def clamp_sizes(cfg: dict) -> dict:
    """P <= 4, n_x1 in {16, 32}, t_end/dt <= 20 and at most 3 resonant
    substeps where the drawn value is valid; an invalid value is kept, since
    it exits 2 before any step."""
    cfg = dict(cfg)
    if _integral(cfg["P"]) and 4 < cfg["P"] <= 213:
        cfg["P"] = 4
    n = cfg["n_x1"]
    if _integral(n) and 32 < n <= 2 ** 20 and not int(n) & (int(n) - 1):
        cfg["n_x1"] = 32
    sub = cfg.get("resonant_subcycle", 1)
    if _integral(sub) and MAX_SUBCYCLE < sub <= MAX_STEPS:
        cfg["resonant_subcycle"] = MAX_SUBCYCLE
    t_end, dt = cfg["t_end"], cfg["dt"]
    if _positive(t_end) and _positive(dt) and MAX_RATIO < t_end / dt <= MAX_STEPS:
        cfg["t_end"] = MAX_RATIO * dt
    return cfg


def run_cli(argv: list) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI call; a numpy warning is
    an error, so it fails the test as an escaped exception."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check_outputs(out: str, compare: bool) -> None:
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert sorted(manifest["outputs"] + ["manifest.json"]) == sorted(os.listdir(out))
    with open(os.path.join(out, "trajectory.csv"), encoding="utf-8") as fh:
        rows = [[float(v) for v in line.split(",")] for line in fh.read().splitlines()[1:]]
    assert rows
    for row in rows:
        assert all(math.isfinite(v) for v in (row[:3] if compare else row)), row
    if compare:
        # the g columns are nan only before the fork at s0, so in a leading block
        started = [math.isfinite(row[3]) for row in rows]
        assert started[-1] and started == sorted(started), started
        assert all(math.isfinite(row[4]) == s for row, s in zip(rows, started))


PROPERTIES = SCHEMA["properties"]
# up to four schema fields, each drawn by ``field_values``
DRAWN = st.lists(st.sampled_from(sorted(PROPERTIES)), max_size=4, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({name: field_values(PROPERTIES[name])
                                         for name in names}))


def _read(out: str, name: str) -> bytes:
    with open(os.path.join(out, name), "rb") as fh:
        return fh.read()


def write_config(tmp: str, cfg: dict) -> str:
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from(["compare", "simulate-resonant"]), drawn=DRAWN)
# a packet narrower than the grid spacing squares xi/w to inf; its Gaussian
# is exp(-inf) = 0 there, which must not warn
@example(command="compare", drawn={"packet_width": 1e-300})
# the linear flow keeps a state just under the largest ceiling, whose norms
# square past the largest float
@example(command="compare", drawn={"eps": 1e300, "norm_ceiling": FLOAT_MAX, "nonlinear": False})
# s0 rounds to step 0, where g must still fork
@example(command="compare", drawn={"s0": 0.0078125})
# a kernel of 1/sqrt(1e-300) overflows the right-hand side below the largest ceiling
@example(command="simulate-resonant", drawn={"s0": 1e-300, "norm_ceiling": FLOAT_MAX})
def test_run_contract_on_schema_draws(command, drawn):
    cfg = clamp_sizes({**BASE, **drawn})
    if command == "simulate-resonant":   # the hermite-mode flow is idle
        cfg["coupling_mode"] = "unit"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        code, err = run_cli([command, "--config", write_config(tmp, cfg), "--out-dir", out])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), (code, err)
        assert "Traceback" not in err
        if code == EXIT_OK:
            check_outputs(out, compare=(command == "compare"))


# valid small grids and amplitudes under the other drawn fields, so that most
# draws step the nonlinear kick and reach the resume
GRIDS = st.fixed_dictionaries({"P": st.integers(2, 8), "n_x1": st.sampled_from([16, 32]),
                               "length_x1": st.floats(2.0, 64.0), "eps": st.floats(0.0, 100.0)})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(grid=GRIDS, drawn=DRAWN)
# the base run checkpoints at steps 4 and 8 of 10, so the resume reruns two steps
@example(grid={}, drawn={})
# no checkpoint is written, so the resume starts afresh
@example(grid={}, drawn={"checkpoint_every": 0})
# the last checkpoint is at the last step, so the resume steps nothing
@example(grid={}, drawn={"checkpoint_every": 10})
def test_simulate_full_resume_on_schema_draws(grid, drawn):
    cfg = clamp_sizes({**BASE, **grid, **drawn})
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate-full", "--config", write_config(tmp, cfg),
                "--out-dir", os.path.join(tmp, "out")]
        code, err = run_cli(argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), (code, err)
        assert "Traceback" not in err
        if code != EXIT_OK:
            return
        check_outputs(argv[-1], compare=False)
        uninterrupted = {name: _read(argv[-1], name) for name in ("trajectory.csv", "summary.json")}
        code, err = run_cli(argv + ["--resume"])
        assert code in (EXIT_OK, EXIT_CONFIG), (code, err)
        assert "Traceback" not in err
        if code == EXIT_OK:
            for name, data in uninterrupted.items():
                assert _read(argv[-1], name) == data, name
            check_outputs(argv[-1], compare=False)


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    """An uninterrupted ``simulate-full`` of BASE, which checkpoints at steps
    4 and 8 of 10 and writes a row every 2 steps: its argv, its outputs, and
    the written step with the rows up to it."""
    tmp = str(tmp_path_factory.mktemp("base"))
    argv = ["simulate-full", "--config", write_config(tmp, BASE),
            "--out-dir", os.path.join(tmp, "out")]
    assert run_cli(argv)[0] == EXIT_OK
    with np.load(os.path.join(argv[-1], "checkpoint.npz")) as npz:
        step = json.loads(str(npz["meta"]))["step"]
    outputs = {name: _read(argv[-1], name) for name in ("trajectory.csv", "summary.json")}
    return argv, outputs, (step, step // 2 + 1)


COUNTS = st.one_of(st.integers(-2, 12), st.integers())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(step=COUNTS, rows=COUNTS)
@example(step=8, rows=5)   # the written values: the resume reruns two steps
@example(step=8, rows=6)   # every row of the run: the resume cuts the last
@example(step=8, rows=4)
@example(step=4, rows=3)   # the earlier checkpoint's, with the later state
@example(step=-7, rows=5)
@example(step=8, rows=-3)
@example(step=10 ** 400, rows=10 ** 400)
def test_resume_only_from_the_written_step_and_rows(base_run, step, rows):
    # ``step`` forges the checkpoint; trajectory.csv keeps its first ``rows``
    # rows, which must hold the rows up to the step
    argv, outputs, (written_step, written_rows) = base_run
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        shutil.copytree(argv[-1], out)
        rewrite_checkpoint(os.path.join(out, "checkpoint.npz"), step=step)
        lines = outputs["trajectory.csv"].splitlines(keepends=True)
        with open(os.path.join(out, "trajectory.csv"), "wb") as fh:
            fh.write(b"".join(lines[:1 + max(rows, 0)]))
        code, err = run_cli(argv[:-1] + [out, "--resume"])
        assert "Traceback" not in err
        if step == written_step and rows >= written_rows:
            assert code == EXIT_OK, err
            for name, data in outputs.items():
                assert _read(out, name) == data, name
        else:
            assert code == EXIT_CONFIG, (code, err)
            assert "damaged checkpoint" in err


# levels j and dyadic levels k: small, wide, at the float limits and huge
LEVELS = st.one_of(st.integers(-60, 60), st.integers(-3000, 3000),
                   st.sampled_from([40, 45, 1074, 1075, 2000, -1100, 10 ** 400]))
PROBES = st.lists(st.tuples(LEVELS, st.sampled_from(["LowFreq", "RhoSmall", "RhoLarge"]),
                            st.one_of(st.none(), LEVELS)), min_size=1, max_size=3)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(m=st.integers(0, 64), n=st.integers(0, 64), p=st.integers(0, 8),
       radius=st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-300, 1e300, FLOAT_MAX])),
       probes=PROBES)
# the bisection cannot resolve the two crossings of this band
@example(m=4, n=4, p=1, radius=20.0, probes=[(45, "LowFreq", None)])
# the band's levels underflow a float
@example(m=4, n=4, p=1, radius=20.0, probes=[(2000, "LowFreq", None), (2000, "RhoSmall", 3)])
# the sampling radii of the largest float overflow
@example(m=0, n=0, p=0, radius=FLOAT_MAX, probes=[(0, "LowFreq", None)])
def test_phase_report_contract_on_drawn_probes(m, n, p, radius, probes):
    spec = ";".join(f"{j},{regime},{'-' if k is None else k}" for j, regime, k in probes)
    with tempfile.TemporaryDirectory() as out:
        code, err = run_cli(["phase-report", "--m", str(m), "--n", str(n), "--p", str(p),
                             "--radius", repr(radius), "--width-probes", spec,
                             "--out-dir", out])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), (code, err)
        assert "Traceback" not in err
        if code == EXIT_OK:
            with open(os.path.join(out, "phase_report.json"), encoding="utf-8") as fh:
                entries = json.load(fh)["width_probes"]
            assert len(entries) == len(probes)
            for entry in entries:
                if entry["measured_width"] is None:
                    assert entry["error"], entry
                else:
                    assert 0.0 < entry["measured_width"] < math.inf, entry
                    assert 0.0 <= entry["reference_scale"] < math.inf, entry


# valid indices, indices just past the bound and far past float range
MODES = st.one_of(st.integers(0, MAX_MODE), st.integers(MAX_MODE + 1, 10 ** 6),
                  st.sampled_from([0, MAX_MODE, MAX_MODE + 1, 10 ** 300, 10 ** 400]))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(m=MODES, n=MODES, p=MODES)
@example(m=0, n=10 ** 400, p=0)
@example(m=10 ** 300, n=0, p=0)
def test_phase_report_mode_bound_on_drawn_indices(m, n, p):
    with tempfile.TemporaryDirectory() as out:
        code, err = run_cli(["phase-report", "--m", str(m), "--n", str(n), "--p", str(p),
                             "--out-dir", out])
    assert "Traceback" not in err
    if max(m, n, p) > MAX_MODE:
        assert code == EXIT_CONFIG and f"must be an integer in [0, {MAX_MODE}]" in err, err
    else:
        assert code in (EXIT_OK, EXIT_NUMERIC), (code, err)
