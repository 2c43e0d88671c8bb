import ast
import dataclasses
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reslab.cli as cli
import reslab.evolution as evolution
import reslab.transform as transform
from reslab.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                        load_config, main)
from oracles import rewrite_checkpoint, triple_table_dict, two_component, write_triple_csv
from reslab.errors import BlowupDetected, ConfigError
from reslab.evolution import MAX_STEPS, SimConfig, config_from_json, make_grid
from reslab.hermite import MAX_MODE
from reslab.triples import GATES
from reslab.transform import SpectralState

SCHEMA = evolution.SCHEMA["properties"]
CKPT = "checkpoint.npz"


def write_cfg(path, **overrides):
    cfg = {"eps": 0.05, "P": 4, "n_x1": 64, "length_x1": 16.0, "dt": 0.02,
           "t_end": 2.0, "s0": 1.0, "init_modes": [0, 3], "out_every": 0.5,
           "checkpoint_every": 25}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_subcommand_exit_64(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    err = capsys.readouterr().err
    usage = next(line for line in err.splitlines() if line.startswith("usage:"))
    for name in ("enumerate", "phase-report", "stat-phase-check", "simulate-full",
                 "simulate-resonant", "compare", "triple-table"):
        assert name in usage


def test_help_exit_zero():
    assert main([]) == EXIT_OK


def test_missing_config_names_path(tmp_path, capsys):
    code = main(["compare", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "nope.json" in capsys.readouterr().err


def test_invalid_dt_pointer(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json", dt=0.0)
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
        == EXIT_CONFIG
    assert "/dt" in capsys.readouterr().err


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json")
    data = json.loads(cfg.read_text())
    data["dts"] = 0.1
    cfg.write_text(json.dumps(data))
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
        == EXIT_CONFIG
    assert "/dts" in capsys.readouterr().err


def test_small_M_warns_but_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json", M=2.0, t_end=0.5, s0=0.25,
                    dt=0.025, out_every=0.25)
    code = main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_OK
    assert "M > 3" in err


def test_schema_matches_simconfig():
    fields = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    assert set(SCHEMA) == set(fields)
    for name, prop in SCHEMA.items():
        default = fields[name]
        assert prop["default"] == (list(default) if isinstance(default, tuple)
                                   else default), name
    # modes 0..P-1 need the cubic rule of max_mode P - 1 <= hermite.MAX_MODE
    assert SCHEMA["P"]["maximum"] == MAX_MODE + 1
    assert SCHEMA["gate"]["enum"] == list(GATES)


# the keywords SimConfig enforces, and those that state no rule
ENFORCED = {"type", "minimum", "exclusiveMinimum", "maximum", "enum", "items",
            "minItems"}
ANNOTATIONS = {"default", "description"}


def test_every_schema_keyword_is_enforced():
    # a rule in a keyword or type that SimConfig does not read would go
    # unenforced; arrays are read as lists of integers
    for name, prop in SCHEMA.items():
        items = prop.get("items", {})
        assert set(prop) <= ENFORCED | ANNOTATIONS, name
        assert set(items) <= (ENFORCED - {"items"}) | ANNOTATIONS, name
        assert prop.get("type") in (None, *evolution._JSON_TYPES), name
        assert (prop.get("type") == "array") == (items.get("type") == "integer"), name


def test_schema_is_package_data():
    package = Path(evolution.__file__).parent
    assert (package / "config.schema.json").is_file()
    assert json.loads((package / "config.schema.json").read_text()) == evolution.SCHEMA
    assert not (Path(__file__).parents[1] / "config.schema.json").exists()


def _schema_violations():
    wrong_type = {"number": ["1", True, None, float("nan")],
                  "integer": [1.5, "4", True], "boolean": ["no", 1],
                  "array": ["23", [1.5], [True]]}
    for name, prop in SCHEMA.items():
        for value in wrong_type.get(prop.get("type"), []):
            yield name, value
        if "enum" in prop:
            yield name, "nope"
        if "minimum" in prop:
            yield name, prop["minimum"] - 1
        if "exclusiveMinimum" in prop:
            yield name, prop["exclusiveMinimum"]
        if "maximum" in prop:
            # 1e100 + 1 == 1e100: a float maximum needs a wider step
            high = prop["maximum"]
            yield name, high + 1 if prop["type"] == "integer" else 2 * high
        if "minimum" in prop.get("items", {}):
            yield name, [prop["items"]["minimum"] - 1]
        if "minItems" in prop:
            yield name, [0] * (prop["minItems"] - 1)


def _violation_id(value):
    """Scalars keep pytest's id; a list is named by its entries, not by its
    position in the parameter list, so a new rule renames no other case."""
    return "items-" + "-".join(map(str, value)) if isinstance(value, list) else None


@pytest.mark.parametrize("name,value", list(_schema_violations()), ids=_violation_id)
def test_schema_violation_rejected_at_field(tmp_path, capsys, name, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: value}))
    with pytest.raises(ConfigError) as exc:
        load_config(str(cfg), {})
    assert f"/{name}" in [path for path, _ in exc.value.issues]
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
        == EXIT_CONFIG
    assert f"config error at /{name}:" in capsys.readouterr().err


def test_step_budget_is_a_config_error(tmp_path, capsys):
    # t_end/dt overflows to inf; 2^62 substeps per step would never finish
    for raw in ({"t_end": 1e300, "dt": 1e-300}, {"resonant_subcycle": 2 ** 62}):
        with pytest.raises(ConfigError) as exc:
            config_from_json(raw)
        assert [path for path, _ in exc.value.issues] == ["/t_end"]
    # exactly the budget: MAX_STEPS / 2 steps of dt, one substep each
    assert config_from_json({"t_end": MAX_STEPS / 4, "dt": 0.5})[0].t_end == 2.5e6
    cfg = write_cfg(tmp_path / "cfg.json", t_end=1e300, dt=1e-300)
    assert main(["simulate-full", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
        == EXIT_CONFIG
    assert f"config error at /t_end: t_end/dt * (1 + resonant_subcycle) must be at " \
        f"most {MAX_STEPS}" in capsys.readouterr().err


@pytest.mark.parametrize("name,value", [("M", 1e6), ("M0", 200), ("N", 400),
                                        ("length_x1", 1e-300)])
def test_overflowing_norm_weight_exits_2(tmp_path, capsys, name, value):
    # (2P)^(2M0) = 8^400 overflows to inf, and inf * 0 made every
    # diff_HM0L2 nan; the weight rule stops the run before numpy computes it
    cfg = write_cfg(tmp_path / "cfg.json", **{name: value})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["compare", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error at /{name}: norm weight" in err
    assert "RuntimeWarning" not in err and not caught


def test_out_every_beyond_the_run_is_clamped(tmp_path):
    # 1e308/dt is inf, which round() cannot convert; any stride past the run
    # writes the first and last rows only, and no checkpoint
    outs = [tmp_path / "1e6", tmp_path / "1e308"]
    for out, out_every in zip(outs, (1e6, 1e308)):
        cfg = write_cfg(tmp_path / "cfg.json", out_every=out_every)
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    for name in ("trajectory.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert len((outs[1] / "trajectory.csv").read_text().splitlines()) == 3
    assert not (outs[1] / CKPT).exists()


def test_step_rounding_warns_through_the_cli(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json", t_end=1.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no Python warning reaches stderr raw
        assert main(["simulate-full", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "warning: t_end = 1.01 is not a multiple of dt = 0.02" in err
    assert "warnings.warn(" not in err


def test_integral_json_numbers_are_integers(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", n_x1=64.0, P=4.0, init_modes=[0.0, 3])
    config, _ = load_config(str(cfg), {})
    assert (config.n_x1, config.P, config.init_modes) == (64, 4, (0, 3))
    assert type(config.n_x1) is int and type(config.init_modes[0]) is int


def test_integer_beyond_float_range_is_not_a_finite_number(tmp_path):
    # json reads 1e400 written out in digits as an int, which no float holds
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"eps": 1' + "0" * 400 + "}")
    with pytest.raises(ConfigError) as exc:
        load_config(str(cfg), {})
    assert exc.value.issues == [("/eps", "must be a finite number")]


def test_config_echo_and_warnings(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json")
    config, warns = load_config(str(cfg), {})
    assert config.P == 4 and config.init_modes == (0, 3)
    assert warns  # M = 4 <= 6 triggers the resonant hypothesis warning
    with pytest.raises(ConfigError):
        load_config(str(write_cfg(tmp_path / "bad.json", gate="huh")), {})


def test_enumerate_outputs(tmp_path):
    out = tmp_path / "enum"
    assert main(["enumerate", "--max-mode", "50", "--gate", "sqrt",
                 "--out-dir", str(out)]) == EXIT_OK
    rows = (out / "resonant_interactions.csv").read_text().splitlines()
    assert rows[0] == "m,n,p,alpha,beta,lambda,coupling"
    assert len(rows) > 1
    summary = json.loads((out / "enumerate_summary.json").read_text())
    assert summary["max_mode"] == 50 and summary["gate"] == "sqrt"
    assert summary["count"] == len(rows) - 1
    assert summary["all_couplings_zero"] is True
    assert summary["gate_disagreements"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "resonant_interactions.csv" in manifest["outputs"]
    # T(m, n, p) vanishes for odd m+n+p, which every row has
    cells = [row.split(",") for row in rows[1:]]
    assert all(sum(map(int, c[:3])) % 2 == 1 and c[6] == "0" for c in cells)


def test_enumerate_coupling_flag_is_the_parity_check(tmp_path, monkeypatch):
    # a listed triple of even m+n+p (none is resonant) would clear the flag
    even = SimpleNamespace(m=0, n=0, p=2, alpha=-1, beta=-1, lam=0.5)
    monkeypatch.setattr(cli, "interactions_for_output", lambda *args, **kw: ([even], []))
    assert main(["enumerate", "--max-mode", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "enumerate_summary.json").read_text())
    assert summary["all_couplings_zero"] is False


def test_readme_cli_examples_run(tmp_path):
    # every "reslab ..." line of the README's CLI block, continuations
    # joined and comments dropped, with configs/ read from the repo root and
    # every --out-dir moved under tmp_path
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines()]
    calls = [argv[1:] for argv in lines if argv[:1] == ["reslab"]]
    assert len(calls) == 9
    for argv in calls:
        argv = [str(root / arg) if arg.startswith("configs/") else arg for arg in argv]
        at = argv.index("--out-dir") + 1
        argv[at] = str(tmp_path / argv[at])
        assert main(argv) == EXIT_OK, argv


def test_enumerate_massless_empty(tmp_path):
    out = tmp_path / "massless"
    assert main(["enumerate", "--max-mode", "50", "--massless",
                 "--out-dir", str(out)]) == EXIT_OK
    summary = json.loads((out / "enumerate_summary.json").read_text())
    assert summary["count"] == 0 and summary["massless"] is True
    assert (out / "resonant_interactions.csv").read_text().splitlines() == \
        ["m,n,p,alpha,beta,lambda,coupling"]


def test_phase_report_command(tmp_path):
    out = tmp_path / "pr"
    assert main(["phase-report", "--m", "0", "--n", "0", "--p", "3",
                 "--alpha", "-1", "--beta", "-1", "--radius", "10",
                 "--width-probes", "3,LowFreq,-;3,RhoSmall,5000",
                 "--out-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "phase_report.json").read_text())
    assert report["class"] == "SpaceTimeResonantLine"
    assert report["width_probes"][0]["j"] == 3
    # a probe whose scale overflows is reported, not raised
    assert report["width_probes"][1]["measured_width"] is None
    assert "error" in report["width_probes"][1]


def test_phase_report_rho_large_probe(tmp_path):
    # the probe point of RhoLarge comes from k, as for RhoSmall
    out = tmp_path / "pr"
    assert main(["phase-report", "--m", "4", "--n", "4", "--p", "1", "--width-probes",
                 "0,RhoLarge,5;0,RhoLarge,-;-2000,RhoSmall,3", "--out-dir", str(out)]) == EXIT_OK
    probe, no_k, huge = json.loads((out / "phase_report.json").read_text())["width_probes"]
    assert math.isfinite(probe["measured_width"]) and "error" not in probe
    ref = probe["reference_scale"]
    assert ref / 4.0 <= probe["measured_width"] <= 4.0 * ref
    assert no_k["measured_width"] is None and "needs the dyadic level k" in no_k["error"]
    # 2^j underflows to 0 here, so rho is computed with 2^-j, which overflows
    assert huge["measured_width"] is None and "error" in huge


def test_phase_report_unresolved_band_is_null(tmp_path):
    # from j ~ 42 the bisection cannot tell the two crossings apart, and from
    # j = 1074 a level underflows: either is reported, never a width of 0.0
    out = tmp_path / "pr"
    assert main(["phase-report", "--m", "4", "--n", "4", "--p", "1", "--width-probes",
                 "40,LowFreq,-;45,LowFreq,-;2000,LowFreq,-;2000,RhoSmall,3",
                 "--out-dir", str(out)]) == EXIT_OK
    fine, *failed = json.loads((out / "phase_report.json").read_text())["width_probes"]
    ref = fine["reference_scale"]
    assert ref / 4.0 <= fine["measured_width"] <= 4.0 * ref and "error" not in fine
    unresolved, underflow, underflow_small = failed
    assert all(probe["measured_width"] is None for probe in failed)
    assert "not resolved apart" in unresolved["error"]
    assert "underflow" in underflow["error"] and "underflow" in underflow_small["error"]


def test_phase_report_overflowing_radius_exits_3(tmp_path, capsys):
    # phi overflows on these balls: with alpha = beta = -1 it is inf - inf =
    # NaN where the squares overflow, so its sampled minimum would be NaN
    for i, (m, n, p, radius) in enumerate((("0", "0", "3", "1e300"), ("2", "3", "1", "1e200"))):
        out = tmp_path / f"pr{i}"
        assert main(["phase-report", "--m", m, "--n", n, "--p", p,
                     "--radius", radius, "--out-dir", str(out)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical failure" in err and "not finite" in err
        assert not (out / "phase_report.json").exists()
        assert not (out / "manifest.json").exists()


def test_phase_report_at_the_mode_bound_exits_0(tmp_path):
    # the largest accepted indices probe every regime without a numpy warning
    out = tmp_path / "pr"
    mode = str(MAX_MODE)
    argv = ["phase-report", "--m", mode, "--n", mode, "--p", mode, "--width-probes",
            "3,LowFreq,-;3,RhoSmall,4;3,RhoLarge,6", "--out-dir", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_OK
    probes = json.loads((out / "phase_report.json").read_text())["width_probes"]
    assert [probe["regime"] for probe in probes] == ["LowFreq", "RhoSmall", "RhoLarge"]
    assert all(0.0 < probe["measured_width"] < math.inf for probe in probes), probes


PHASE = ["phase-report", "--m", "0", "--n", "0", "--p", "3"]
RUN = ["--config", "{tmp}/cfg.json"]
BAD_ARGUMENTS = {
    "enumerate max-mode negative": ["enumerate", "--max-mode", "-3"],
    "enumerate max-mode not an integer": ["enumerate", "--max-mode", "x"],
    "triple-table max-mode negative": ["triple-table", "--max-mode", "-2"],
    "triple-table max-mode beyond quadrature": ["triple-table", "--max-mode", "213"],
    "phase-report m negative": PHASE + ["--m", "-1"],
    "phase-report n negative": PHASE + ["--n", "-1"],
    "phase-report p negative": PHASE + ["--p", "-1"],
    "phase-report m beyond the mode bound": PHASE + ["--m", "213"],
    "phase-report m beyond float range": PHASE + ["--m", "1" + "0" * 300],
    "phase-report n beyond float conversion": PHASE + ["--n", "1" + "0" * 400],
    "phase-report p beyond float conversion": PHASE + ["--p", "1" + "0" * 400],
    "phase-report radius negative": PHASE + ["--radius", "-1"],
    "phase-report radius zero": PHASE + ["--radius", "0"],
    "phase-report radius nan": PHASE + ["--radius", "nan"],
    "phase-report radius inf": PHASE + ["--radius", "inf"],
    "phase-report width-probes one field": PHASE + ["--width-probes", "bad"],
    "phase-report width-probes unknown regime": PHASE + ["--width-probes", "1,x,-"],
    "phase-report width-probes bad k": PHASE + ["--width-probes", "3,LowFreq,-;1,RhoSmall,z"],
    "stat-phase-check threads negative": ["stat-phase-check", "--threads", "-1"],
    "compare config a directory": ["compare", "--config", "{tmp}"],
    "simulate-full config not text": ["simulate-full", "--config", "{tmp}/binary"],
    "simulate-resonant seed negative": ["simulate-resonant", *RUN, "--seed", "-1"],
    "enumerate out-dir a file": ["enumerate", "--max-mode", "3", "--out-dir", "{tmp}/binary"],
    "compare out-dir a file": ["compare", *RUN, "--out-dir", "{tmp}/binary"],
}


@pytest.mark.parametrize("argv", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_argument_exits_2_without_traceback(tmp_path, capsys, argv):
    write_cfg(tmp_path / "cfg.json")
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path / "out")]
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "error" in err and "Traceback" not in err


UNWRITABLE = {
    "compare trajectory": (["compare", *RUN], "trajectory.csv"),
    "enumerate csv": (["enumerate", "--max-mode", "7"], "resonant_interactions.csv"),
    "enumerate manifest": (["enumerate", "--max-mode", "7"], "manifest.json"),
}


@pytest.mark.parametrize("argv, output", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_output_exits_2_naming_it(tmp_path, capsys, argv, output):
    # a directory squats on the output: writing it, or renaming onto it, fails
    write_cfg(tmp_path / "cfg.json")
    out_dir = tmp_path / "out"
    (out_dir / output).mkdir(parents=True)
    code = main([arg.format(tmp=tmp_path) for arg in argv] + ["--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert f"error: cannot write {out_dir / output}: " in err
    assert "Traceback" not in err
    assert not list(out_dir.rglob("*.tmp"))


def test_analysis_commands_load_no_hashing_masked_arrays_or_pool(tmp_path):
    # _hashlib (OpenSSL) serves only the runs' hashes; numpy.ma comes with
    # np.unique and concurrent.futures with a thread pool
    calls = [["enumerate", "--max-mode", "7"], ["triple-table", "--max-mode", "7"],
             ["stat-phase-check", "--threads", "2"],
             ["phase-report", "--m", "0", "--n", "0", "--p", "3",
              "--width-probes", "3,LowFreq,-"]]
    calls = [argv + ["--out-dir", str(tmp_path / argv[0])] for argv in calls]
    probe = ("import sys\nfrom reslab.cli import main\n"
             f"for argv in {calls!r}:\n    assert main(argv) == 0, argv\n"
             "print(sorted({'_hashlib', 'numpy.ma', 'concurrent.futures'} & set(sys.modules)))")
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    assert (tmp_path / "stat-phase-check" / "stat_phase_decay.csv").exists()


def test_desk_compare_keeps_its_config_hashes(tmp_path):
    # the checkpoint's hash of the parsed config is pinned: a checkpoint
    # written before hashlib moved into the hash helper must still resume
    desk = Path(__file__).parents[1] / "configs" / "compare_desk.json"
    out = tmp_path / "desk"
    assert main(["compare", "--config", str(desk), "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input_hashes"] == {"config": hashlib.sha256(desk.read_bytes()).hexdigest()}
    config, _ = cli.load_config(str(desk), {})
    meta, _ = transform.load_state(out / CKPT, make_grid(config))
    assert meta["config_sha"] == \
        "bc122005c4752a4bdb9db6f155f4453f244dfad5b86cd55bcad44aedd8764981"


def test_triple_table_command(tmp_path):
    out = tmp_path / "tt"
    assert main(["triple-table", "--max-mode", "12", "--out-dir", str(out)]) == EXIT_OK
    rows = (out / "triple_products.csv").read_text().splitlines()
    keys = [tuple(int(v) for v in r.split(",")[:3]) for r in rows[1:]]
    assert keys == sorted(keys)



def test_triple_table_at_the_benchmark_size_matches_dict_walk(tmp_path):
    out = tmp_path / "tt"
    assert main(["triple-table", "--max-mode", "120", "--out-dir", str(out)]) == EXIT_OK
    write_triple_csv(triple_table_dict(120), tmp_path / "oracle.csv")
    assert (out / "triple_products.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

def test_compare_deterministic_outputs(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(a)]) == EXIT_OK
    assert main(["compare", "--config", str(cfg), "--out-dir", str(b)]) == EXIT_OK
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_simulate_full_norm_series(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json")
    out = tmp_path / "full"
    assert main(["simulate-full", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,tilde_HN,HM_HN,B_t,S_MN_t"
    data = np.genfromtxt(out / "trajectory.csv", delimiter=",", skip_header=1)
    assert np.all(np.isfinite(data))
    assert np.all(np.diff(data[:, 0]) > 0)


def test_simulate_resonant_runs(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json")
    out = tmp_path / "res"
    assert main(["simulate-resonant", "--config", str(cfg),
                 "--out-dir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["which"] == "resonant"


def test_summary_counts_active_resonant_slots(tmp_path):
    # "all zero" reports the Hermite couplings, whatever coupling_mode is;
    # the active slots are the ones the stepper steps
    desk = Path(__file__).parents[1] / "configs" / "compare_desk.json"
    unit = write_cfg(tmp_path / "unit.json", coupling_mode="unit")
    active = {}
    for cfg in (desk, unit):
        out = tmp_path / cfg.stem
        assert main(["simulate-resonant", "--config", str(cfg),
                     "--out-dir", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["resonant_couplings_all_zero"] is True
        assert summary["resonant_triple_count"] > 0
        active[cfg.stem] = summary["resonant_active_slots"]
    assert active["compare_desk"] == 0
    assert active["unit"] > 0


def _crash_compare(cfg, out_dir, monkeypatch, kill_after=80):
    """Runs compare until the full stepper is asked to pass step
    ``kill_after``, then dies as a kill would, inside that segment."""
    orig = evolution.FullStepper.step
    done = {"steps": 0}

    def dying_step(self, state, dt, steps=1):
        done["steps"] += steps
        if done["steps"] > kill_after:
            raise KeyboardInterrupt
        return orig(self, state, dt, steps)

    monkeypatch.setattr(evolution.FullStepper, "step", dying_step)
    with pytest.raises(KeyboardInterrupt):
        main(["compare", "--config", str(cfg), "--out-dir", str(out_dir)])
    monkeypatch.setattr(evolution.FullStepper, "step", orig)
    assert (out_dir / CKPT).exists()


def test_kill_and_resume_reproduces_trajectory(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "cfg.json", t_end=3.0)
    ref = tmp_path / "ref"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(ref)]) == EXIT_OK

    crashdir = tmp_path / "crash"
    _crash_compare(cfg, crashdir, monkeypatch)
    assert main(["compare", "--config", str(cfg), "--out-dir", str(crashdir),
                 "--resume"]) == EXIT_OK
    a = np.genfromtxt(ref / "trajectory.csv", delimiter=",", skip_header=1)
    b = np.genfromtxt(crashdir / "trajectory.csv", delimiter=",", skip_header=1)
    assert np.nanmax(np.abs(a - b)) <= 1e-12


def test_thread_setting_does_not_bind_resume(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path / "cfg.json", t_end=3.0)
    ref = tmp_path / "ref"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(ref)]) == EXIT_OK
    # the thread count is neither a config field nor a compare flag
    assert main(["compare", "--config", str(write_cfg(tmp_path / "t.json", threads=1)),
                 "--out-dir", str(tmp_path / "t")]) == EXIT_CONFIG
    assert "/threads: unknown field" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", str(cfg), "--threads", "1",
              "--out-dir", str(tmp_path / "t")])
    assert exc.value.code == 2

    crashdir = tmp_path / "crash"
    _crash_compare(cfg, crashdir, monkeypatch)
    assert main(["compare", "--config", str(cfg), "--out-dir", str(crashdir),
                 "--resume"]) == EXIT_OK
    assert (crashdir / "trajectory.csv").read_bytes() == \
        (ref / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("kill_after", [49, 80])
def test_kill_and_resume_with_fork_off_the_output_grid(tmp_path, monkeypatch, kill_after):
    # as at the desk, s0 = step 50 falls between the rows of out_stride 12,
    # so a segment ends at the fork; checkpoints land on steps 24, 48 and 72,
    # before the fork or after it
    cfg = write_cfg(tmp_path / "cfg.json", t_end=3.0, out_every=0.25)
    ref = tmp_path / "ref"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(ref)]) == EXIT_OK

    crashdir = tmp_path / "crash"
    _crash_compare(cfg, crashdir, monkeypatch, kill_after=kill_after)
    assert main(["compare", "--config", str(cfg), "--out-dir", str(crashdir),
                 "--resume"]) == EXIT_OK
    for name in ("trajectory.csv", "summary.json"):
        assert (crashdir / name).read_bytes() == (ref / name).read_bytes(), name


# every file operation one checkpoint makes, in order: the whole file is
# written under a temporary name and committed by one rename
CHECKPOINT_WRITES = ["open checkpoint.npz.tmp", "replace checkpoint.npz.tmp"]


def _watch_checkpoint_writes(monkeypatch, kill_at=None):
    """Records each ``open`` in reslab.cli and reslab.transform and each
    ``os.replace`` made while the second checkpoint is written, and dies as a
    kill would at the ``kill_at``-th of them."""
    writes, seen = [], {"ckpt": 0, "inside": False}
    observe = cli._RunWriter.__call__

    def observer(self, kind, *args):
        seen["ckpt"] += kind == "ckpt"
        seen["inside"] = kind == "ckpt" and seen["ckpt"] == 2
        try:
            return observe(self, kind, *args)
        finally:
            seen["inside"] = False

    def watched(name, fn):
        def call(path, *args, **kwargs):
            if seen["inside"]:
                if len(writes) == kill_at:
                    raise KeyboardInterrupt
                writes.append(f"{name} {os.path.basename(path)}")
            return fn(path, *args, **kwargs)
        return call

    monkeypatch.setattr(cli._RunWriter, "__call__", observer)
    monkeypatch.setattr(cli, "open", watched("open", open), raising=False)
    monkeypatch.setattr(transform, "open", watched("open", open), raising=False)
    monkeypatch.setattr(os, "replace", watched("replace", os.replace))
    return writes


@pytest.mark.parametrize("kill_at", range(len(CHECKPOINT_WRITES)))
def test_kill_during_checkpoint_resumes_exactly(tmp_path, monkeypatch, kill_at):
    cfg = write_cfg(tmp_path / "cfg.json", t_end=3.0)
    ref = tmp_path / "ref"
    with monkeypatch.context() as m:
        writes = _watch_checkpoint_writes(m)
        assert main(["compare", "--config", str(cfg), "--out-dir", str(ref)]) == EXIT_OK

    crashdir = tmp_path / "crash"
    with monkeypatch.context() as m:
        _watch_checkpoint_writes(m, kill_at=kill_at)
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--config", str(cfg), "--out-dir", str(crashdir)])
    code = main(["compare", "--config", str(cfg), "--out-dir", str(crashdir),
                 "--resume"])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_OK:
        assert (crashdir / "trajectory.csv").read_bytes() == \
            (ref / "trajectory.csv").read_bytes()
        assert not list(crashdir.glob("*.tmp"))
    assert writes == CHECKPOINT_WRITES


def _cut(path, size):
    path.write_bytes(path.read_bytes()[:size])


def _mid_payload(path):
    """Offset of a byte in the middle of the stored f coefficients."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("f.npy")
    return info.header_offset + info.compress_size // 2


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def _two_components(d):
    """Rewrites the checkpoint with each state as both components (2, P, n_x1),
    the layout of earlier code."""
    grid = make_grid(load_config(str(d.parent / "cfg.json"), {})[0])
    meta, states = transform.load_state(d / CKPT, grid)
    transform.save_state(d / CKPT, grid, meta, **{
        name: SpectralState(st.time, two_component(st.coeffs)) for name, st in states.items()})


# the run checkpoints at steps 25, 50, 75 and 100 of 100, after 2, 3, 4 and 5
# rows, so its checkpoint holds step 100 and rows 5
DAMAGE = {
    "meta step negative": lambda d: rewrite_checkpoint(d / CKPT, "meta", step=-7),
    "meta rows negative": lambda d: rewrite_checkpoint(d / CKPT, "meta", rows=-3),
    "meta of an earlier checkpoint": lambda d: rewrite_checkpoint(d / CKPT, "meta",
                                                                  step=50, rows=3),
    "meta tv negative": lambda d: rewrite_checkpoint(d / CKPT, "meta", tv=-5.0),
    "meta tv NaN": lambda d: rewrite_checkpoint(d / CKPT, "meta", tv=math.nan),
    "meta tv a bool": lambda d: rewrite_checkpoint(d / CKPT, "meta", tv=True),
    "state times a list": lambda d: rewrite_checkpoint(d / CKPT, "header", times=[1]),
    "state times not numbers": lambda d: rewrite_checkpoint(d / CKPT, "header",
                                                            times={"f": "x", "g": "x"}),
    "state time of g forged": lambda d: rewrite_checkpoint(d / CKPT, "header",
                                                           times={"f": 2.0, "g": 50.0}),
    "state header cut": lambda d: _cut(d / CKPT, 20),
    "two-component states": _two_components,
    "state payload cut": lambda d: _cut(d / CKPT, _mid_payload(d / CKPT)),
    "checkpoint garbage": lambda d: (d / CKPT).write_bytes(b"{step: 7"),
    "payload byte flipped": lambda d: _flip(d / CKPT, _mid_payload(d / CKPT)),
    "trajectory rows missing": lambda d: _cut(d / "trajectory.csv", 40),
    "last row cut": lambda d: _cut(d / "trajectory.csv",
                                   (d / "trajectory.csv").stat().st_size - 1),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_checkpoint_exits_cleanly(tmp_path, capsys, damage):
    cfg = write_cfg(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    DAMAGE[damage](out)
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out),
                 "--resume"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "damaged checkpoint" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files
    if damage == "two-component states":
        assert "shape (2, 4, 64)" in err


def test_missing_checkpoint_starts_fresh(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json")
    ref = tmp_path / "ref"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(ref)]) == EXIT_OK
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    (out / CKPT).unlink()
    (out / (CKPT + ".tmp")).write_bytes(b"left by a killed write")
    _cut(out / "trajectory.csv", 40)
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out),
                 "--resume"]) == EXIT_OK
    assert not (out / (CKPT + ".tmp")).exists()
    for name in ("trajectory.csv", CKPT):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_fresh_run_drops_earlier_checkpoint(tmp_path):
    out = tmp_path / "out"
    first = write_cfg(tmp_path / "first.json")
    assert main(["compare", "--config", str(first), "--out-dir", str(out)]) == EXIT_OK
    assert (out / CKPT).exists()
    (out / (CKPT + ".tmp")).write_bytes(b"left by a killed write")
    second = write_cfg(tmp_path / "second.json", checkpoint_every=0, t_end=0.5)
    assert main(["compare", "--config", str(second), "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert CKPT not in manifest["outputs"]
    assert {p.name for p in out.iterdir()} == set(manifest["outputs"]) | {"manifest.json"}
    csv = (out / "trajectory.csv").read_bytes()
    assert main(["compare", "--config", str(second), "--out-dir", str(out),
                 "--resume"]) == EXIT_OK
    assert (out / "trajectory.csv").read_bytes() == csv


def test_failed_run_leaves_no_earlier_manifest(tmp_path):
    # a manifest means a finished run: the desk compare's manifest and
    # summary must not outlive a later run in the same out-dir that fails
    out = tmp_path / "out"
    desk = Path(__file__).parents[1] / "configs" / "compare_desk.json"
    assert main(["compare", "--config", str(desk), "--out-dir", str(out)]) == EXIT_OK
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"manifest.json", "summary.json", CKPT} <= set(files)
    # a config error and a refused checkpoint leave every byte as it was
    bad = write_cfg(tmp_path / "bad.json", dt=0.0)
    assert main(["compare", "--config", str(bad), "--out-dir", str(out)]) == EXIT_CONFIG
    other = write_cfg(tmp_path / "other.json")
    assert main(["compare", "--config", str(other), "--out-dir", str(out),
                 "--resume"]) == EXIT_CONFIG
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files
    blowup = tmp_path / "blowup.json"
    blowup.write_text(json.dumps({"eps": 1e5, "P": 4, "n_x1": 32, "t_end": 5.0,
                                  "norm_ceiling": 1e3, "init_modes": [0]}))
    assert main(["compare", "--config", str(blowup), "--out-dir", str(out)]) == EXIT_NUMERIC
    assert [p.name for p in out.iterdir()] == ["trajectory.csv"]


def test_failed_resume_leaves_no_earlier_manifest(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "cfg.json", t_end=4.0, out_every=0.2, checkpoint_every=60)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    rows = len((out / "trajectory.csv").read_text().splitlines())

    def fail(*args, **kwargs):
        raise BlowupDetected("a failure after the checkpoint was accepted")
    monkeypatch.setattr(cli, "run", fail)
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out),
                 "--resume"]) == EXIT_NUMERIC
    assert sorted(p.name for p in out.iterdir()) == [CKPT, "trajectory.csv"]
    # the checkpoint at step 180 of 200 holds rows 0..18: the CSV was cut back
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 19 < rows


def test_resume_rejects_other_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json", t_end=1.0)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    assert (out / CKPT).exists()
    other = write_cfg(tmp_path / "other.json", t_end=2.0)
    capsys.readouterr()
    assert main(["compare", "--config", str(other), "--out-dir", str(out),
                 "--resume"]) == EXIT_CONFIG
    assert "different config" in capsys.readouterr().err


def test_resume_at_the_final_step_rewrites_identical_outputs(tmp_path):
    # checkpoints land on steps 100 and 200 of 200: the resume steps nothing
    # and its one row is the checkpoint's
    cfg = write_cfg(tmp_path / "cfg.json", t_end=4.0, out_every=0.2, checkpoint_every=100)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    before = {name: (out / name).read_bytes() for name in ("trajectory.csv", "summary.json")}
    assert json.loads(before["summary.json"])["end_diff_HM0L2"] is not None
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out),
                 "--resume"]) == EXIT_OK
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name


def test_resonant_resume_rewrites_identical_outputs(tmp_path):
    # the resonant run starts at s0 = 1.5 and checkpoints at steps 30, 60, 90
    # and 120 of 125, so its last checkpoint's f is at 1.5 + 120 dt
    cfg = write_cfg(tmp_path / "cfg.json", s0=1.5, t_end=4.0, out_every=0.2,
                    checkpoint_every=30, coupling_mode="unit")
    out = tmp_path / "out"
    argv = ["simulate-resonant", "--config", str(cfg), "--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    before = {name: (out / name).read_bytes()
              for name in ("trajectory.csv", "summary.json", CKPT)}
    assert main(argv + ["--resume"]) == EXIT_OK
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name


def test_resume_memory_does_not_grow_with_rows(tmp_path):
    # the resume cuts trajectory.csv back line by line: reading the whole file
    # into a list peaked about 0.16 kB a row higher, 285 kB more for 2 000 rows
    # than for 200
    def resume_peak(rows):
        cfg = write_cfg(tmp_path / f"{rows}.json", P=2, n_x1=16, init_modes=[0, 1],
                        dt=0.01, t_end=rows * 0.01, out_every=0.01, checkpoint_every=rows)
        out = tmp_path / str(rows)
        assert main(["simulate-full", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        tracemalloc.start()
        try:
            assert main(["simulate-full", "--config", str(cfg), "--out-dir", str(out),
                         "--resume"]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    resume_peak(20)   # warm-up: the basis, weight and rule caches
    assert resume_peak(2000) - resume_peak(200) < 20_000


def _drop_which(d):
    """Rewrites the checkpoint's meta without the command, as earlier code wrote it."""
    grid = make_grid(load_config(str(d.parent / "cfg.json"), {})[0])
    meta, states = transform.load_state(d / CKPT, grid)
    del meta["which"]
    transform.save_state(d / CKPT, grid, meta, **states)


@pytest.mark.parametrize("first, second", [("simulate-full", "compare"),
                                           ("simulate-full", "simulate-resonant"),
                                           ("compare", "compare")])
def test_resume_rejects_other_command(tmp_path, capsys, first, second):
    cfg = write_cfg(tmp_path / "cfg.json", t_end=4.0, out_every=0.2, checkpoint_every=60)
    out = tmp_path / "out"
    assert main([first, "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    if first == second:   # a checkpoint that does not name its command
        _drop_which(out)
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main([second, "--config", str(cfg), "--out-dir", str(out),
                 "--resume"]) == EXIT_CONFIG
    assert "different config or command" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files


def test_blowup_exit_code(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", norm_ceiling=1e-15)
    assert main(["compare", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "bl")]) == EXIT_NUMERIC


@pytest.mark.parametrize("field, value, cause", [
    # the initial state is checked before the first row and the first kick,
    # so the ceiling reports its real magnitude, not the kick's overflow
    ("eps", 1e300, "coefficient magnitude 5.65e+295 exceeds 1e+06"),
    # the weight (2P)^(2M) is finite, its product with the state is not
    ("M", 170.6, "initial S^(M,N) norm inf"),
])
def test_overflow_exits_3_without_numpy_warning(tmp_path, capsys, field, value, cause):
    cfg = write_cfg(tmp_path / "cfg.json", P=4, n_x1=32, **{field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "o")]) == EXIT_NUMERIC
    assert f"numerical failure: {cause}" in capsys.readouterr().err
    assert (tmp_path / "o" / "trajectory.csv").read_text().splitlines() == \
        ["t,tilde_HN_f,S_MN_f,S_MN_g,diff_HM0L2"]


def test_overflowing_box_length_exits_2(tmp_path, capsys):
    # dxi ~ 6e-308 would overflow the xi-derivative in the initial norm; the
    # schema's maximum stops the run before numpy warns
    cfg = write_cfg(tmp_path / "cfg.json", length_x1=1e308, n_x1=32, t_end=0.2)
    out = tmp_path / "big"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
    assert "config error at /length_x1: must be <= 1e+100" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()
    assert not (out / "manifest.json").exists()


def test_huge_grid_exits_2_without_traceback(tmp_path, capsys):
    # 2^70 is a power of two numpy's FFT cannot size; the schema's maximum
    # stops the run at the field
    desk = json.loads((Path(__file__).parents[1] / "configs" / "compare_desk.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**desk, "n_x1": 2 ** 70}))
    out = tmp_path / "huge"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error at /n_x1:" in err and "Traceback" not in err
    assert not (out / "trajectory.csv").exists()


def test_stat_phase_check_threads_write_identical_csv(tmp_path):
    for k in ("1", "2"):
        assert main(["stat-phase-check", "--threads", k,
                     "--out-dir", str(tmp_path / k)]) == EXIT_OK
    assert (tmp_path / "1" / "stat_phase_decay.csv").read_bytes() == \
        (tmp_path / "2" / "stat_phase_decay.csv").read_bytes()


def test_stat_phase_check_command(tmp_path):
    out = tmp_path / "spc"
    assert main(["stat-phase-check", "--out-dir", str(out)]) == EXIT_OK
    rows = (out / "stat_phase_decay.csv").read_text().splitlines()
    assert rows[0].startswith("t,quadrature_re")
    summary = json.loads((out / "stat_phase_summary.json").read_text())
    assert -0.9 <= summary["fitted_exponent"] <= -0.6


def test_manifest_lists_outputs(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "cfg.json")
    out = tmp_path / "m"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert "trajectory.csv" in manifest["outputs"]
    assert manifest["input_hashes"]["config"]
    assert manifest["config"]["P"] == 4

    resumed = tmp_path / "r"
    _crash_compare(cfg, resumed, monkeypatch)
    assert main(["compare", "--config", str(cfg), "--out-dir", str(resumed),
                 "--resume"]) == EXIT_OK
    for run in (out, resumed):
        manifest = json.loads((run / "manifest.json").read_text())
        assert {p.name for p in run.iterdir()} == \
            set(manifest["outputs"]) | {"manifest.json"}
        assert CKPT in manifest["outputs"]
        assert not list(run.glob("*.tmp"))


def test_threads_env_variable_ignored(monkeypatch):
    from reslab.parallel import resolve_threads
    # --threads is the one way to set the count; 0 means all cores
    monkeypatch.setenv("RESLAB_THREADS", "3")
    assert resolve_threads(0) == (os.cpu_count() or 1)
    assert resolve_threads(2) == 2


def test_every_error_class_is_raised_in_the_package():
    # an error class that no code raises or warns is dead
    import reslab.errors as errors
    used = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(getattr(target, "id", getattr(target, "attr", None)))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn":
                used.update(arg.id for arg in node.args if isinstance(arg, ast.Name))
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert classes - {"ReslabError"} <= used
