"""Tests of the benchmark itself: the gate, the span arithmetic and the
benchmark's declared metrics.  Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from gate import check_pass, load_reference  # noqa: E402
from layers import OTHER_METRICS, SPAN_METRICS, unit_of  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import BENCHMARKED, REFERENCE_DIR, WORKLOADS  # noqa: E402

DESK = WORKLOADS["desk_compare"]


def _desk_out_dir(tmp_path, csv_text: str) -> str:
    out = tmp_path / "out"
    out.mkdir()
    (out / "trajectory.csv").write_text(csv_text)
    (out / "trajectory.csv.before_resume").write_text(csv_text)
    (out / "summary.json").write_text(json.dumps(
        {"resonant_couplings_all_zero": True, "resonant_triple_count": 6}))
    return str(out)


def _ops(rc_run: int = 0, rc_resume: int = 0) -> list[dict]:
    return [{"op": "run", "rc": rc_run, "wall_s": 1.0, "error": None},
            {"op": "resume", "rc": rc_resume, "wall_s": 0.1, "error": None}]


def _desk_reference():
    reference = load_reference(REFERENCE_DIR, "desk_compare")
    return reference, reference["trajectories"]["0"]


def test_gate_passes_the_reference_trajectory(tmp_path):
    reference, csv = _desk_reference()
    checked = check_pass(DESK, _desk_out_dir(tmp_path, csv), _ops(), reference, 0)
    assert [op["ok"] for op in checked] == [True, True]


def test_gate_counts_a_perturbed_trajectory_as_failed(tmp_path):
    reference, csv = _desk_reference()
    lines = csv.splitlines()
    cells = lines[40].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
    lines[40] = ",".join(cells)
    out = _desk_out_dir(tmp_path, "\n".join(lines) + "\n")
    checked = check_pass(DESK, out, _ops(), reference, 0)
    assert not checked[0]["ok"]
    assert "tilde_HN_f" in checked[0]["problems"][0]


def _with_diff(csv: str, value) -> str:
    lines = csv.splitlines()
    cells = lines[-1].split(",")
    cells[4] = repr(value(float(cells[4]), float(cells[2])))
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_gate_counts_a_diverged_difference_norm_as_failed(tmp_path):
    reference, csv = _desk_reference()
    out = _desk_out_dir(tmp_path, _with_diff(csv, lambda _d, s: 1e-6 * s))
    checked = check_pass(DESK, out, _ops(), reference, 0)
    assert not checked[0]["ok"]
    assert any("S_MN_f" in p for p in checked[0]["problems"])


def test_gate_counts_a_changed_nonlinear_drift_as_failed(tmp_path):
    reference, csv = _desk_reference()
    out = _desk_out_dir(tmp_path, _with_diff(csv, lambda d, _s: d * (1.0 + 1e-2)))
    checked = check_pass(DESK, out, _ops(), reference, 0)
    assert not checked[0]["ok"]
    assert "diff_HM0L2" in checked[0]["problems"][0]


def test_gate_counts_a_changed_resume_as_failed(tmp_path):
    reference, csv = _desk_reference()
    out = _desk_out_dir(tmp_path, csv)
    with open(os.path.join(out, "trajectory.csv"), "a") as fh:
        fh.write("20.25,1,1,1,0\n")
    checked = check_pass(DESK, out, _ops(), reference, 0)
    assert not checked[1]["ok"]


def test_gate_counts_a_nonzero_exit_as_failed(tmp_path):
    reference, csv = _desk_reference()
    checked = check_pass(DESK, _desk_out_dir(tmp_path, csv), _ops(rc_resume=3),
                         reference, 0)
    assert [op["ok"] for op in checked] == [True, False]
    assert checked[1]["problems"] == ["exit code 3"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 5.0},   # overlaps 2 (another thread)
        {"id": 4, "parent": 2, "start": 1.5, "end": 2.0},
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.5, 3: 2.0, 4: 0.5}


def test_adopted_pool_work_is_a_child_of_the_submitting_span():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)

    def submit(items):
        parent = tracer.current()
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(tracer.adopt(parent, leaf), items))

    assert tracer.call("map", submit, ([1, 2, 3],), {}) == [2, 3, 4]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    (root,) = by_name["map"]
    assert [s["parent"] for s in by_name["leaf"]] == [root["id"]] * 3
    assert root["thread"] == threading.get_ident()


def test_patch_keeps_classmethods_and_restores():
    class Thing:
        @classmethod
        def build(cls, n):
            return (cls, n)

    tracer = Tracer()
    assert tracer.patch(Thing, "build", "thing.build")
    assert Thing.build(3) == (Thing, 3)
    assert not tracer.patch(Thing, "missing", "thing.missing")
    tracer.unpatch()
    assert [s["name"] for s in tracer.spans] == ["thing.build"]
    assert isinstance(Thing.__dict__["build"], classmethod)


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    assert set(BENCHMARKED) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {m: unit_of(m) for m in list(SPAN_METRICS) + list(OTHER_METRICS)}


def test_run_refuses_a_directory_without_reslab(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analysis",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
