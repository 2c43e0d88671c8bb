"""Capture the reference outputs the gate compares against.

    python3 perfbench/capture_reference.py [workload ...]

Run from the root of a reslab checkout whose outputs are trusted.  Each
simulation workload runs once per config seed in ``range(REFERENCE_SEEDS)``;
``analysis`` runs once.  A capture whose outputs break an invariant of the
gate (exit codes, counts, decay exponent, resume identity) is not written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from gate import check_pass
from run import run_child
from workloads import REFERENCE_DIR, REFERENCE_SEEDS, WORKLOADS

TABLE_SAMPLE_STRIDE = 997


def _read(*parts: str) -> str:
    with open(os.path.join(*parts), "r", encoding="utf-8") as fh:
        return fh.read()


def capture_pass(root: str, workload, seed: int, work: str) -> tuple[str, dict]:
    out_dir = os.path.join(work, f"{workload.name}-{seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    result = run_child(["pass", "--workload", workload.name, "--seed", str(seed),
                        "--out-dir", out_dir], root, time.monotonic() + 600,
                       os.path.join(work, "capture.log"))
    return out_dir, result


def capture(root: str, workload, work: str) -> dict:
    if workload.command is not None:
        reference = {"trajectories": {}}
        for seed in range(REFERENCE_SEEDS):
            out_dir, result = capture_pass(root, workload, seed, work)
            reference["trajectories"][str(seed)] = _read(out_dir, "trajectory.csv")
            check_captured(workload, out_dir, result, reference, seed)
            print(f"{workload.name} seed {seed}: captured", file=sys.stderr)
        return reference
    out_dir, result = capture_pass(root, workload, 0, work)
    table = _read(out_dir, "table", "triple_products.csv").splitlines()
    reference = {
        "enumerate": {"csv": _read(out_dir, "enum", "resonant_interactions.csv")},
        "triple-table": {"lines": len(table), "header": table[0],
                         "sample": {str(i): table[i] for i in
                                    list(range(1, len(table), TABLE_SAMPLE_STRIDE))
                                    + [len(table) - 1]}},
        "stat-phase-check": {"csv": _read(out_dir, "sp", "stat_phase_decay.csv")},
        "phase-report": {"report": json.loads(_read(out_dir, "phase", "phase_report.json"))},
    }
    check_captured(workload, out_dir, result, reference, 0)
    return reference


def check_captured(workload, out_dir: str, result: dict, reference: dict, seed: int) -> None:
    checked = check_pass(workload, out_dir, result["ops"], reference, seed)
    bad = [f"{op['op']}: {'; '.join(op['problems'])}" for op in checked if not op["ok"]]
    if bad:
        raise SystemExit(f"{workload.name} seed {seed} breaks the gate: {bad}")
    shutil.rmtree(out_dir, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    names = sys.argv[1:] or sorted(WORKLOADS)
    work = os.path.join(root, ".perfbench_run", "capture")
    os.makedirs(work, exist_ok=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names:
        reference = capture(root, WORKLOADS[name], work)
        reference["captured_with"] = run_child(
            ["setup", "--workload", name, "--seed", "0"], root,
            time.monotonic() + 600, os.path.join(work, "capture.log"))["env"]
        with open(os.path.join(REFERENCE_DIR, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: reference written", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
