"""reslab benchmark: one workload, measured from the root of a checkout.

    python3 perfbench/run.py --workload desk_compare --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every workload

Every set-up and every pass runs in a fresh process (``worker.py``) with
``PYTHONPATH=src`` and BLAS pinned to one thread.  ``--trace 0`` measures
set-up several times, then untraced passes until ``--seconds`` have gone, and
reports the end-to-end metrics as medians (at least three passes when they
fit in twice ``--seconds``).  ``--trace 1`` alternates
untraced and traced passes for ``--seconds`` and reports the per-layer
metrics of the traced passes and the tracing overhead.  Every CLI call is an
operation checked by ``gate.py``.  Human-readable lines come first; the last
line of stdout is the JSON result.  Spans and full results are kept under
``.perfbench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from gate import check_pass, load_reference
from layers import OTHER_METRICS, SPAN_METRICS, unit_of
from workloads import REFERENCE_DIR, WORKLOADS, cli_calls, config_seed

HERE = os.path.dirname(os.path.abspath(__file__))
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER = sorted(SPAN_METRICS) + sorted(OTHER_METRICS)
RUN_LIMIT_S = 170.0      # a run must end within 180 s
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 15, 5.0
# At least this many passes, so that one pass slowed by the host cannot move
# the median, unless the next pass would end after twice --seconds.
PASSES_MIN = 3


class ChildFailed(Exception):
    pass


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RESLAB_THREADS"}
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv: list[str], root: str, deadline: float, log_path: str) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left before the run limit")
    with open(log_path, "a", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv],
                                  cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                                  stderr=log, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"worker timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited {proc.returncode}; see {log_path}")
    return json.loads(lines[-1])


def cache_bytes(level: int) -> int | None:
    """Size of the level-``level`` data or unified cache one core uses."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, index, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(base, index, "size")) as fh:
                size = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        return None
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def csv_counts(out_dir: str) -> tuple[int, int]:
    """Data rows and bytes of every CSV a pass left in ``out_dir``."""
    rows = size = 0
    for dirpath, _dirs, files in os.walk(out_dir):
        for name in files:
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                size += os.path.getsize(path)
                with open(path, "rb") as fh:
                    rows += max(0, sum(1 for _ in fh) - 1)
    return rows, size


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g}..{q3:.6g}"


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, root: str, workload, seed: int, trace: bool, deadline: float):
        self.root, self.workload, self.seed, self.deadline = root, workload, seed, deadline
        self.reference = load_reference(REFERENCE_DIR, workload.name)
        self.work = os.path.join(root, ".perfbench_run",
                                 f"{workload.name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.log = os.path.join(self.work, "worker.log")
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.env: dict = {}
        self.passes = 0

    def fail(self, count: int, why: str) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(why)

    def setup(self) -> dict | None:
        try:
            result = run_child(["setup", "--workload", self.workload.name,
                                "--seed", str(self.seed)], self.root, self.deadline, self.log)
        except ChildFailed as exc:
            self.fail(1, f"setup: {exc}")
            return None
        self.env = result["env"]
        return result

    def one_pass(self, traced: bool) -> dict | None:
        """One pass in a fresh process, gated; None when the worker failed."""
        self.passes += 1
        out_dir = os.path.join(self.work, f"pass{self.passes}")
        argv = ["pass", "--workload", self.workload.name, "--seed", str(self.seed),
                "--out-dir", out_dir]
        if traced:
            argv += ["--spans", os.path.join(self.work, f"spans-pass{self.passes}.jsonl")]
        try:
            result = run_child(argv, self.root, self.deadline, self.log)
        except ChildFailed as exc:
            self.fail(len(cli_calls(self.workload, self.seed, out_dir)),
                      f"pass {self.passes}: {exc}")
            return None
        self.env = result["env"]
        result["ops"] = check_pass(self.workload, out_dir, result["ops"], self.reference,
                                   config_seed(self.seed))
        result["wall_s"] = sum(op["wall_s"] for op in result["ops"])
        result["cpu_s"] = sum(op["cpu_s"] for op in result["ops"])
        result["csv_rows"], result["csv_bytes"] = csv_counts(out_dir)
        for op in result["ops"]:
            self.attempted += 1
            if not op["ok"]:
                self.failed += 1
                self.problems.append(f"pass {self.passes} {op['op']}: "
                                     + "; ".join(op["problems"]))
        shutil.rmtree(out_dir, ignore_errors=True)
        return result


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, list[str]]:
    setups: list[dict] = []
    t0 = time.monotonic()
    tries = 0
    while tries < SETUPS_MIN or (time.monotonic() - t0 < SETUP_BUDGET_S and tries < SETUPS_MAX):
        tries += 1
        value = run.setup()
        if value is not None:
            setups.append(value)
    passes = []
    t0 = time.monotonic()
    while True:
        result = run.one_pass(traced=False)
        if result is None:
            break
        passes.append(result)
        elapsed = time.monotonic() - t0
        if elapsed >= seconds and (len(passes) >= PASSES_MIN
                                   or elapsed * (len(passes) + 1) / len(passes) > 2 * seconds):
            break
    walls = [p["wall_s"] for p in passes]
    cpus = [p["cpu_s"] for p in passes]
    setup_cpu = [s["setup_s"] for s in setups]
    setup_wall = [s["setup_wall_s"] for s in setups]
    rss = [p["peak_rss_mb"] for p in passes]
    resumes = [op["wall_s"] for p in passes for op in p["ops"] if op["op"] == "resume"]
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setup_cpu),
        "peak_rss_mb": median(rss),
        "ok_ratio": (run.attempted - run.failed) / run.attempted if run.attempted else 0.0,
    }
    notes = [
        f"wall_s: median of {len(walls)} passes ({spread(walls)})",
        f"CPU seconds of the same calls: median {median(cpus):.6g} s ({spread(cpus)})",
        f"setup_s: CPU seconds, median of {len(setups)} set-ups ({spread(setup_cpu)}); "
        f"their wall time {median(setup_wall):.6g} s ({spread(setup_wall)})",
        f"peak_rss_mb: median of {len(rss)} passes ({spread(rss)})",
        f"fail_ratio = {run.failed}/{run.attempted} operations (one CLI call each)",
    ]
    if resumes:
        notes.append(f"resume_s = {median(resumes):.6g} s "
                     f"(the --resume call, part of wall_s; {spread(resumes)})")
    return metrics, notes


def measure_layers(run: Run, seconds: float) -> tuple[dict, list[str]]:
    untraced, traced = [], []
    t0 = time.monotonic()
    while not traced or time.monotonic() - t0 < seconds:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for is_traced in order:
            result = run.one_pass(traced=is_traced)
            if result is not None:
                (traced if is_traced else untraced).append(result)
        if run.failed:
            break
    metrics, reasons = {}, {}
    for name in PER_LAYER:
        metrics[name] = median([p["layers"][name] for p in traced if name in p["layers"]])
    for p in traced:
        for name, why in p["reasons"].items():
            reasons.setdefault(name, why)
    resumes = [op["wall_s"] for p in untraced for op in p["ops"] if op["op"] == "resume"]
    metrics["cli.resume_s"] = median(resumes)
    if not resumes:
        reasons["cli.resume_s"] = "this workload makes no --resume call"
    metrics["cli.csv_rows"] = median([p["csv_rows"] for p in traced])
    metrics["cli.csv_bytes"] = median([p["csv_bytes"] for p in traced])
    working_set = metrics["workload.working_set_bytes_computed"]
    for level, name in ((2, "workload.working_set_over_l2_computed"),
                        (3, "workload.working_set_over_l3_computed")):
        size = cache_bytes(level)
        metrics[name] = working_set / size if size else 0.0
        if not size:
            reasons[name] = f"L{level} size not readable"
    med = lambda key, passes: median([p[key] for p in passes])
    metrics["trace.wall_s"] = med("wall_s", traced)
    metrics["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", untraced)
    metrics["trace.overhead_cpu_s"] = med("cpu_s", traced) - med("cpu_s", untraced)
    notes = [f"tracing overhead: traced wall_s {med('wall_s', traced):.6g} s - untraced "
             f"wall_s {med('wall_s', untraced):.6g} s = {metrics['trace.overhead_s']:.6g} s; "
             f"in CPU seconds {metrics['trace.overhead_cpu_s']:.6g} s "
             f"({len(traced)} traced, {len(untraced)} untraced passes)",
             "names ending in _computed, dense_bytes and rhs bytes are computed from "
             "array sizes, not measured; p50/p99 include child spans, .s is self time"]
    notes += [f"absent {name}: {why}" for name, why in sorted(reasons.items())]
    return metrics, notes


def environment_lines(env: dict) -> list[str]:
    l2, l3 = cache_bytes(2), cache_bytes(3)
    mib = lambda b: f"{b / (1 << 20):g} MiB" if b else "unknown"
    return [f"env: python {env.get('python')}, numpy {env.get('numpy')}, "
            f"scipy {env.get('scipy')}, {env.get('openblas')}, "
            f"BLAS threads {env.get('blas_threads')}, nproc {env.get('nproc')}, "
            f"cpu {cpu_model()}, L2 per core {mib(l2)}, L3 {mib(l3)}"]


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[Run, dict]:
    run = Run(root, WORKLOADS[name], seed, trace, deadline)
    metrics, notes = (measure_layers if trace else measure_end_to_end)(run, seconds)
    units = {n: unit_of(n) for n in PER_LAYER} if trace else END_TO_END
    print(f"# workload {name}, seed {seed} (config seed {config_seed(seed)}), "
          f"{'traced' if trace else 'untraced'}, {run.passes} passes")
    for line in environment_lines(run.env) + notes:
        print(f"# {line}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    for metric, unit in units.items():
        print(f"{name}.{metric} = {metrics[metric]!r} {unit}")
    with open(os.path.join(run.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace, "env": run.env,
                   "cpu": cpu_model(), "attempted": run.attempted, "failed": run.failed,
                   "problems": run.problems, "metrics": metrics, "notes": notes},
                  fh, indent=2, sort_keys=True)
    return run, {m: {"value": metrics[m], "unit": u} for m, u in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reslab", "cli.py")):
        print(f"error: {root} holds no reslab source (src/reslab/cli.py); run from "
              "the root of a reslab checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        run, metrics = run_workload(root, name, args.seed, args.seconds,
                                    bool(args.trace), deadline)
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if args.workload == "all" else ""
        out.update({prefix + m: v for m, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
