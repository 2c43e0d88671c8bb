"""Correctness gate: every CLI call of a pass either passes or counts as a
failed operation.

A call fails when its exit code is not 0 or when its outputs disagree with
the physics invariants or with the reference captured by
``capture_reference.py``.  Norm columns are compared with a relative
tolerance, so roundoff-level changes pass and any change in the dynamics
does not.

``diff_HM0L2`` of ``compare`` is ||f(t) - g(t)|| with g frozen at f(s0),
because every resonant coupling is zero at desk size: it is the nonlinear
drift of f, about 1e-10 of its norm.  It is held under an absolute bound
scaled to ``S_MN_f`` and compared with the reference at ``DIFF_RTOL``.
Scaling the nonlinear kick by 1 + 1e-3 moves it by exactly 1e-3; rewriting
the linear rotation with other roundoff moves it by 1e-5.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-9
ATOL = 1e-13               # analysis outputs only; trajectories use RTOL alone
DIFF_BOUND = 1e-9          # diff_HM0L2 <= DIFF_BOUND * S_MN_f
DIFF_RTOL = 1e-3
EXPONENT = -0.75           # stationary-phase remainder decay, t^(-3/4)
EXPONENT_TOL = 0.02
ENUMERATE_COUNT = 744      # interactions at max-mode 200, sqrt gate
DISAGREEMENTS = 347        # gate disagreements at max-mode 200
TRIPLE_COUNT = {"desk_compare": 6, "unit_resonant": 66}


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def compare_csv(text: str, ref: str, exact: tuple[str, ...] = (),
                rtol: dict[str, float] | None = None, atol: float = 0.0) -> list[str]:
    """Problems found comparing a CSV with its reference, cell by cell.

    Columns in ``exact`` must match as text; the others within ``atol`` plus
    a relative tolerance, RTOL unless ``rtol`` names the column.
    """
    rtol = rtol or {}
    lines, ref_lines = text.splitlines(), ref.splitlines()
    if not lines or lines[0] != ref_lines[0]:
        return [f"header {lines[:1]} != {ref_lines[:1]}"]
    if len(lines) != len(ref_lines):
        return [f"{len(lines) - 1} rows, reference has {len(ref_lines) - 1}"]
    header = lines[0].split(",")
    problems = []
    for i, (line, ref_line) in enumerate(zip(lines[1:], ref_lines[1:]), start=1):
        for col, a, b in zip(header, line.split(","), ref_line.split(",")):
            try:
                ok = a == b if col in exact else \
                    _close(float(a), float(b), rtol.get(col, RTOL), atol)
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"row {i} {col}: {a} != reference {b}")
                if len(problems) >= 5:
                    return problems
    return problems


def check_diff_column(text: str) -> list[str]:
    """|diff_HM0L2| within DIFF_BOUND of S_MN_f wherever it is defined."""
    lines = text.splitlines()
    header = lines[0].split(",")
    i_diff, i_s = header.index("diff_HM0L2"), header.index("S_MN_f")
    problems = []
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        diff, s = float(cells[i_diff]), float(cells[i_s])
        if not math.isnan(diff) and not abs(diff) <= DIFF_BOUND * s:
            problems.append(f"row {k} diff_HM0L2 {diff:.3g} > {DIFF_BOUND:g} * S_MN_f")
    return problems


def _read(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _simulation_problems(workload, op: str, out_dir: str, reference: dict,
                         config_seed: int) -> list[str]:
    csv = _read(os.path.join(out_dir, "trajectory.csv"))
    if csv is None:
        return ["trajectory.csv missing"]
    if op == "resume":
        before = _read(os.path.join(out_dir, "trajectory.csv.before_resume"))
        return [] if before == csv else ["resumed trajectory.csv differs from the uninterrupted one"]
    problems = []
    if workload.command == "compare":
        problems += check_diff_column(csv)
    problems += compare_csv(csv, reference["trajectories"][str(config_seed)],
                            rtol={"diff_HM0L2": DIFF_RTOL})
    summary = json.loads(_read(os.path.join(out_dir, "summary.json")) or "{}")
    if summary.get("resonant_couplings_all_zero") is not True:
        problems.append("summary: resonant_couplings_all_zero is not true")
    expected = TRIPLE_COUNT.get(workload.name)
    if expected is not None and summary.get("resonant_triple_count") != expected:
        problems.append(f"summary: resonant_triple_count "
                        f"{summary.get('resonant_triple_count')} != {expected}")
    return problems


def _json_problems(got, ref, where: str = "") -> list[str]:
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(got) != sorted(ref):
            return [f"{where or '/'} keys {sorted(got)} != {sorted(ref)}"]
        return [p for k in ref for p in _json_problems(got[k], ref[k], f"{where}/{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{where} has {len(got)} items, reference {len(ref)}"]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in _json_problems(g, r, f"{where}/{i}")]
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return [] if _close(float(got), ref, RTOL, ATOL) else \
            [f"{where}: {got} != reference {ref}"]
    return [] if got == ref else [f"{where}: {got!r} != reference {ref!r}"]


def _analysis_problems(op: str, out_dir: str, reference: dict) -> list[str]:
    ref = reference[op]
    if op == "enumerate":
        summary = json.loads(_read(os.path.join(out_dir, "enum", "enumerate_summary.json")) or "{}")
        problems = []
        if summary.get("count") != ENUMERATE_COUNT:
            problems.append(f"enumerate count {summary.get('count')} != {ENUMERATE_COUNT}")
        if len(summary.get("gate_disagreements", [])) != DISAGREEMENTS:
            problems.append(f"{len(summary.get('gate_disagreements', []))} gate "
                            f"disagreements != {DISAGREEMENTS}")
        csv = _read(os.path.join(out_dir, "enum", "resonant_interactions.csv"))
        if csv is None:
            return problems + ["resonant_interactions.csv missing"]
        return problems + compare_csv(csv, ref["csv"], exact=("m", "n", "p", "alpha", "beta"),
                                      atol=ATOL)
    if op == "triple-table":
        csv = _read(os.path.join(out_dir, "table", "triple_products.csv"))
        if csv is None:
            return ["triple_products.csv missing"]
        lines = csv.splitlines()
        if len(lines) != ref["lines"]:
            return [f"triple_products.csv has {len(lines)} lines, reference {ref['lines']}"]
        rows = sorted(ref["sample"], key=int)
        sample = "\n".join([lines[0]] + [lines[int(i)] for i in rows])
        ref_sample = "\n".join([ref["header"]] + [ref["sample"][i] for i in rows])
        return compare_csv(sample, ref_sample, exact=("m", "n", "p"), atol=ATOL)
    if op == "stat-phase-check":
        summary = json.loads(_read(os.path.join(out_dir, "sp", "stat_phase_summary.json")) or "{}")
        exponent = summary.get("fitted_exponent", float("nan"))
        problems = [] if abs(exponent - EXPONENT) <= EXPONENT_TOL else \
            [f"fitted exponent {exponent} not within {EXPONENT_TOL} of {EXPONENT}"]
        csv = _read(os.path.join(out_dir, "sp", "stat_phase_decay.csv"))
        if csv is None:
            return problems + ["stat_phase_decay.csv missing"]
        return problems + compare_csv(csv, ref["csv"], atol=ATOL)
    report = _read(os.path.join(out_dir, "phase", "phase_report.json"))
    if report is None:
        return ["phase_report.json missing"]
    return _json_problems(json.loads(report), ref["report"])


def check_pass(workload, out_dir: str, ops: list[dict],
               reference: dict, config_seed: int) -> list[dict]:
    """Each op of a pass with ``ok`` and the problems found."""
    checked = []
    for op in ops:
        if op["rc"] != 0:
            problems = [f"exit code {op['rc']}"]
            if op.get("error"):
                problems.append(op["error"].strip().splitlines()[-1])
        else:
            try:
                if workload.command is not None:
                    problems = _simulation_problems(workload, op["op"], out_dir,
                                                    reference, config_seed)
                else:
                    problems = _analysis_problems(op["op"], out_dir, reference)
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        checked.append({**op, "ok": not problems, "problems": problems})
    return checked


def load_reference(reference_dir: str, workload_name: str) -> dict:
    with open(os.path.join(reference_dir, workload_name + ".json"), "r",
              encoding="utf-8") as fh:
        return json.load(fh)
