import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import reslab.evolution as evolution
from reslab.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                        load_config, main)
from reslab.errors import ConfigError
from reslab.evolution import SimConfig

SCHEMA = json.loads((Path(__file__).parents[1] / "config.schema.json")
                    .read_text())["properties"]


def write_cfg(path, **overrides):
    cfg = {"eps": 0.05, "P": 4, "n_x1": 64, "length_x1": 16.0, "dt": 0.02,
           "t_end": 2.0, "s0": 1.0, "init_modes": [0, 3], "out_every": 0.5,
           "checkpoint_every": 25}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_unknown_subcommand_exit_64(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err


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
        if "minimum" in prop.get("items", {}):
            yield name, [prop["items"]["minimum"] - 1]


@pytest.mark.parametrize("name,value", list(_schema_violations()))
def test_schema_violation_rejected_at_field(tmp_path, capsys, name, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: value}))
    with pytest.raises(ConfigError) as exc:
        load_config(str(cfg), {})
    assert f"/{name}" in [path for path, _ in exc.value.issues]
    assert main(["compare", "--config", str(cfg), "--out-dir", str(tmp_path)]) \
        == EXIT_CONFIG
    assert f"config error at /{name}:" in capsys.readouterr().err


def test_integral_json_numbers_are_integers(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", n_x1=64.0, P=4.0, init_modes=[0.0, 3])
    config, _ = load_config(str(cfg), {})
    assert (config.n_x1, config.P, config.init_modes) == (64, 4, (0, 3))
    assert type(config.n_x1) is int and type(config.init_modes[0]) is int


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
                 "--width-probes", "3,LowFreq,-", "--out-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "phase_report.json").read_text())
    assert report["class"] == "SpaceTimeResonantLine"
    assert report["width_probes"][0]["j"] == 3


def test_triple_table_command(tmp_path):
    out = tmp_path / "tt"
    assert main(["triple-table", "--max-mode", "12", "--out-dir", str(out)]) == EXIT_OK
    rows = (out / "triple_products.csv").read_text().splitlines()
    keys = [tuple(int(v) for v in r.split(",")[:3]) for r in rows[1:]]
    assert keys == sorted(keys)


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


def _crash_compare(cfg, out_dir, monkeypatch):
    """Runs compare until the 81st full step, then dies as a kill would."""
    orig = evolution.FullStepper.step
    calls = {"n": 0}

    def dying_step(self, state, dt):
        calls["n"] += 1
        if calls["n"] > 80:
            raise KeyboardInterrupt
        return orig(self, state, dt)

    monkeypatch.setattr(evolution.FullStepper, "step", dying_step)
    with pytest.raises(KeyboardInterrupt):
        main(["compare", "--config", str(cfg), "--out-dir", str(out_dir)])
    monkeypatch.setattr(evolution.FullStepper, "step", orig)
    assert (out_dir / "progress.json").exists()


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
    monkeypatch.setenv("RESLAB_THREADS", "1")
    _crash_compare(cfg, crashdir, monkeypatch)
    monkeypatch.delenv("RESLAB_THREADS")
    assert main(["compare", "--config", str(cfg), "--out-dir", str(crashdir),
                 "--resume"]) == EXIT_OK
    assert (crashdir / "trajectory.csv").read_bytes() == \
        (ref / "trajectory.csv").read_bytes()


def _cut(path, size):
    path.write_bytes(path.read_bytes()[:size])


DAMAGE = {
    "state header cut": lambda d: _cut(d / "f_checkpoint.fhstate", 20),
    "state payload cut": lambda d: _cut(d / "g_checkpoint.fhstate", 200),
    "progress garbage": lambda d: (d / "progress.json").write_text("{step: 7"),
    "progress not an object": lambda d: (d / "progress.json").write_text("[1]"),
    "state file missing": lambda d: (d / "g_checkpoint.fhstate").unlink(),
    "trajectory rows missing": lambda d: _cut(d / "trajectory.csv", 40),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_checkpoint_exits_cleanly(tmp_path, capsys, damage):
    cfg = write_cfg(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    DAMAGE[damage](out)
    capsys.readouterr()
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out),
                 "--resume"]) == EXIT_CONFIG
    assert "damaged checkpoint" in capsys.readouterr().err


def test_resume_rejects_other_config(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", t_end=1.0)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    if not (out / "progress.json").exists():
        pytest.skip("run too short for a checkpoint")
    other = write_cfg(tmp_path / "other.json", t_end=2.0)
    assert main(["compare", "--config", str(other), "--out-dir", str(out),
                 "--resume"]) == EXIT_CONFIG


def test_blowup_exit_code(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", norm_ceiling=1e-15)
    assert main(["compare", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "bl")]) == EXIT_NUMERIC


def test_stat_phase_check_command(tmp_path):
    out = tmp_path / "spc"
    assert main(["stat-phase-check", "--out-dir", str(out)]) == EXIT_OK
    rows = (out / "stat_phase_decay.csv").read_text().splitlines()
    assert rows[0].startswith("t,quadrature_re")
    summary = json.loads((out / "stat_phase_summary.json").read_text())
    assert -0.9 <= summary["fitted_exponent"] <= -0.6


def test_manifest_lists_outputs(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json")
    out = tmp_path / "m"
    assert main(["compare", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists()
    assert "trajectory.csv" in manifest["outputs"]
    assert manifest["input_hashes"]["config"]
    assert manifest["config"]["P"] == 4


def test_threads_env_fallback(tmp_path, monkeypatch):
    from reslab.parallel import resolve_threads
    monkeypatch.setenv("RESLAB_THREADS", "3")
    assert resolve_threads(0) == 3
    assert resolve_threads(2) == 2
    monkeypatch.delenv("RESLAB_THREADS")
    assert resolve_threads(0) >= 1
