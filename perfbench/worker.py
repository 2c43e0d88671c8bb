"""One measurement in a fresh process, started by ``run.py``.

    worker.py setup --workload W --seed S
        import reslab and build what the workload builds before its first
        step; the process is discarded so the timed passes start cold.
    worker.py pass --workload W --seed S --out-dir D [--spans FILE]
        one pass of the workload's CLI calls through ``reslab.cli.main``;
        with ``--spans`` the layers are wrapped and the spans written to FILE.

Needs ``PYTHONPATH`` to point at the checkout's ``src``.  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

from workloads import WORKLOADS, cli_calls, config_seed


def setup(workload, seed: int) -> dict:
    """CPU and wall seconds to import reslab and build what the workload's
    CLI call builds before its first step."""
    t0, c0 = time.perf_counter(), time.process_time()
    from reslab.cli import load_config
    if workload.command is not None:
        from reslab.evolution import FullStepper, ResonantStepper, init_profile, make_grid
        from reslab.hermite import TripleProductTable
        config, _ = load_config(workload.config, {"seed": config_seed(seed)})
        grid = make_grid(config)
        if "full" in workload.builds:
            FullStepper(grid, config.P, nonlinear=config.nonlinear,
                        norm_ceiling=config.norm_ceiling)
        if "resonant" in workload.builds:
            ResonantStepper(grid, config.P, gate=config.gate,
                            table=TripleProductTable(config.P - 1),
                            include_alpha_beta=config.include_alpha_beta,
                            norm_ceiling=config.norm_ceiling,
                            coupling_mode=config.coupling_mode)
        init_profile(config, grid)
    return {"setup_s": time.process_time() - c0, "setup_wall_s": time.perf_counter() - t0}


def _call_main(main, argv) -> tuple[int, str | None]:
    """Exit code of one CLI call; a raw exception counts as exit code 1."""
    try:
        return main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:
        return 1, traceback.format_exc()


def one_pass(workload, seed: int, out_dir: str, spans_path: str | None) -> dict:
    import reslab.cli
    tracer = None
    if spans_path:
        from layers import instrument, pass_metrics
        from spans import Tracer
        tracer = Tracer()
        absent = instrument(tracer)
    ops = []
    for op, argv in cli_calls(workload, seed, out_dir):
        if op == "resume":
            csv = os.path.join(out_dir, "trajectory.csv")
            if os.path.exists(csv):
                shutil.copyfile(csv, csv + ".before_resume")
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            rc, error = _call_main(reslab.cli.main, argv)
        else:
            rc, error = tracer.call("cli.main", _call_main, (reslab.cli.main, argv), {})
        ops.append({"op": op, "rc": rc, "wall_s": time.perf_counter() - t0,
                    "cpu_s": time.process_time() - c0, "error": error})
    result = {"ops": ops,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.unpatch()
        tracer.dump(spans_path)
        from reslab import hermite, parallel
        result["layers"], result["reasons"] = pass_metrics(
            tracer, absent, getattr(hermite, "gauss_hermite", None),
            parallel.resolve_threads(0) if hasattr(parallel, "resolve_threads") else 1)
    return result


def environment() -> dict:
    """Versions and threading of the numerics this process runs on."""
    import ctypes
    import glob
    import numpy
    import scipy
    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "openblas": None, "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    env["openblas"] = get_config().decode()
                    env["blas_threads"] = get_threads()
                    return env
    return env


def _check_origin() -> None:
    """Refuse to measure a reslab imported from anywhere but PYTHONPATH's src."""
    import reslab
    src = os.path.abspath(os.environ.get("PYTHONPATH", "").split(os.pathsep)[0])
    if not os.path.abspath(reslab.__file__).startswith(src + os.sep):
        raise SystemExit(f"reslab imported from {reslab.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir")
    parser.add_argument("--spans")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed)
    else:
        result = one_pass(workload, args.seed, args.out_dir, args.spans)
    _check_origin()
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
