"""Command-line orchestration: config ingestion, experiment execution, result
serialization, reproducibility plumbing.

Subcommands: enumerate, phase-report, stat-phase-check, simulate-full,
simulate-resonant, compare, triple-table.  All take --out-dir.  The simulation
subcommands read a JSON config via --config, and --seed overrides its seed;
--resume continues from the checkpoint in out-dir.  stat-phase-check takes
--threads (env fallback RESLAB_THREADS).  Exit codes: 0 success, 2 config
error (including a checkpoint that is damaged or from another config),
3 numerical failure, 64 unknown subcommand.

Outputs are deterministic for a fixed config and seed: floats are printed
with repr-faithful %.17g, JSON keys are sorted, and all numerics run on the
same code path regardless of thread count.  The run manifest is written
atomically last and lists every output file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import struct
import sys
import time

from .errors import BlowupDetected, ConfigError, ReslabError, ResolutionError
from .evolution import SimConfig, make_grid, run_compare, run_single
from .hermite import TripleProductTable
from .oscillatory import stat_phase_decay_table
from .phase import PhaseParams, phase_report
from .transform import load_state, save_state
from .triples import gate_disagreements, interactions_for_output
from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

_COMMANDS = ("enumerate", "phase-report", "stat-phase-check", "simulate-full",
             "simulate-resonant", "compare", "triple-table")


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path, payload) -> None:
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _write_manifest(out_dir: str, config_snapshot, input_hashes: dict,
                    outputs: list[str], wall_s: float) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "tool": "reslab",
        "version": __version__,
        "config": config_snapshot,
        "input_hashes": input_hashes,
        "outputs": sorted(outputs),
        "wall_seconds": wall_s,
    })


def load_config(path: str | None, overrides: dict) -> tuple[SimConfig, list[str]]:
    """Parse and validate a JSON run config; CLI overrides win.

    Raises ConfigError with (json-pointer, message) issues; returns the config
    and the non-fatal hypothesis warnings.
    """
    raw: dict = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError([("/", f"config file not found: {path}")])
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([("/", f"invalid JSON in {path}: {exc}")]) from exc
        if not isinstance(raw, dict):
            raise ConfigError([("/", "config must be a JSON object")])
    raw.update({k: v for k, v in overrides.items() if v is not None})
    fields = {f.name: f.type for f in dataclasses.fields(SimConfig)}
    issues = [(f"/{key}", "unknown field") for key in raw if key not in fields]
    if issues:
        raise ConfigError(issues)
    for key, value in raw.items():
        if fields[key] == "int":
            raw[key] = _json_int(value)
    if isinstance(raw.get("init_modes"), list):
        raw["init_modes"] = tuple(_json_int(v) for v in raw["init_modes"])
    config = SimConfig(**raw)
    errors, warnings_ = config.validate()
    if errors:
        raise ConfigError(errors)
    return config, warnings_


def _json_int(value):
    """JSON Schema counts a number with zero fraction (4.0) as an integer."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _config_snapshot(config: SimConfig) -> dict:
    snap = dataclasses.asdict(config)
    snap["init_modes"] = list(snap["init_modes"])
    return snap


def _config_hash(config: SimConfig) -> str:
    return hashlib.sha256(
        json.dumps(_config_snapshot(config), sort_keys=True).encode()).hexdigest()


def cmd_enumerate(args) -> int:
    out_dir = _ensure_out_dir(args)
    t0 = time.time()
    rows = []
    if not args.massless:   # the massless variant has a provably empty set
        table = TripleProductTable(args.max_mode) if args.max_mode <= 120 else None
        for p in range(args.max_mode + 1):
            rows.extend(interactions_for_output(p, args.max_mode, gate=args.gate,
                                                table=table))
    csv_path = os.path.join(out_dir, "resonant_interactions.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("m,n,p,alpha,beta,lambda,coupling\n")
        for tr in rows:
            fh.write(f"{tr.m},{tr.n},{tr.p},{tr.alpha},{tr.beta},"
                     f"{_fmt(tr.lam)},{_fmt(tr.coupling)}\n")
    summary_path = os.path.join(out_dir, "enumerate_summary.json")
    _write_json(summary_path, {
        "count": len(rows),
        "max_mode": args.max_mode,
        "gate": args.gate,
        "massless": args.massless,
        "gate_disagreements": [] if args.massless else
            [list(t) for t in gate_disagreements(args.max_mode)],
        "all_couplings_zero": all(tr.coupling == 0.0 for tr in rows),
    })
    _write_manifest(out_dir, {"max_mode": args.max_mode, "gate": args.gate,
                              "massless": args.massless}, {},
                    ["resonant_interactions.csv", "enumerate_summary.json"],
                    time.time() - t0)
    return EXIT_OK


def cmd_phase_report(args) -> int:
    out_dir = _ensure_out_dir(args)
    t0 = time.time()
    params = PhaseParams(args.m, args.n, args.p, args.alpha, args.beta)
    specs = []
    if args.width_probes:
        for item in args.width_probes.split(";"):
            j, regime, k = item.split(",")
            specs.append((int(j), regime, None if k == "-" else int(k)))
    report = phase_report(params, R=args.radius, width_specs=tuple(specs))
    path = os.path.join(out_dir, "phase_report.json")
    _write_json(path, report)
    _write_manifest(out_dir, report["params"], {}, ["phase_report.json"],
                    time.time() - t0)
    return EXIT_OK


def cmd_stat_phase_check(args) -> int:
    out_dir = _ensure_out_dir(args)
    t0 = time.time()
    result = stat_phase_decay_table(threads=args.threads)
    csv_path = os.path.join(out_dir, "stat_phase_decay.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("t,quadrature_re,quadrature_im,leading_re,leading_im,abs_diff\n")
        for r in result["rows"]:
            fh.write(",".join(_fmt(r[k]) for k in
                              ("t", "quadrature_re", "quadrature_im",
                               "leading_re", "leading_im", "abs_diff")) + "\n")
    _write_json(os.path.join(out_dir, "stat_phase_summary.json"),
                {"fitted_exponent": result["fitted_exponent"]})
    _write_manifest(out_dir, {}, {},
                    ["stat_phase_decay.csv", "stat_phase_summary.json"],
                    time.time() - t0)
    return EXIT_OK


def cmd_triple_table(args) -> int:
    out_dir = _ensure_out_dir(args)
    t0 = time.time()
    table = TripleProductTable(args.max_mode)
    path = os.path.join(out_dir, "triple_products.csv")
    table.write_csv(path)
    _write_manifest(out_dir,
                    {"max_mode": args.max_mode, "quad_order": table.built_with},
                    {}, ["triple_products.csv"], time.time() - t0)
    return EXIT_OK


class _RunWriter:
    """Streams trajectory rows and writes checkpoint/progress files."""

    def __init__(self, out_dir: str, config: SimConfig, compare: bool):
        self.out_dir = out_dir
        self.config = config
        self.compare = compare
        self.grid = make_grid(config)
        self.csv_path = os.path.join(out_dir, "trajectory.csv")
        self.rows = 0
        self._fh = None

    @property
    def header(self) -> str:
        if self.compare:
            return "t,tilde_HN_f,S_MN_f,S_MN_g,diff_HM0L2"
        return "t,tilde_HN,HM_HN,B_t,S_MN_t"

    def start(self, truncate_to: int | None = None) -> None:
        if truncate_to is None:
            self._fh = open(self.csv_path, "w", encoding="utf-8")
            self._fh.write(self.header + "\n")
            self.rows = 0
        else:
            with open(self.csv_path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
            if len(lines) < 1 + truncate_to:
                raise ValueError(f"trajectory.csv has fewer than {truncate_to} rows")
            keep = lines[:1 + truncate_to]
            with open(self.csv_path, "w", encoding="utf-8") as fh:
                fh.writelines(keep)
            self._fh = open(self.csv_path, "a", encoding="utf-8")
            self.rows = truncate_to

    def __call__(self, kind: str, step: int, f, g, record) -> None:
        if kind == "out":
            i = len(record.times) - 1
            if self.compare:
                nf = record.norms_full[i]
                ng = record.norms_resonant[i]
                row = (record.times[i], nf.tilde_HN, nf.S_MN_t,
                       ng.S_MN_t if ng is not None else float("nan"),
                       record.diff_norms[i])
            else:
                nf = record.norms_full[i]
                row = (record.times[i], nf.tilde_HN, nf.HM_HN, nf.B_t, nf.S_MN_t)
            self._fh.write(",".join(_fmt(v) for v in row) + "\n")
            self._fh.flush()
            self.rows += 1
        elif kind == "ckpt":
            save_state(os.path.join(self.out_dir, "f_checkpoint.fhstate"),
                       self.grid, f)
            if g is not None:
                save_state(os.path.join(self.out_dir, "g_checkpoint.fhstate"),
                           self.grid, g)
            _write_json(os.path.join(self.out_dir, "progress.json"), {
                "step": step,
                "rows": self.rows,
                "tv": record.tv_full,
                "has_g": g is not None,
                "config_sha": _config_hash(self.config),
            })

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _load_resume(out_dir: str, config: SimConfig, writer: _RunWriter):
    """Reopens ``writer`` at the checkpoint in out_dir and returns the run
    loop's ``resume`` dict, or None when out_dir holds no checkpoint."""
    progress_path = os.path.join(out_dir, "progress.json")
    if not os.path.exists(progress_path):
        return None
    try:
        with open(progress_path, "r", encoding="utf-8") as fh:
            progress = json.load(fh)
        if progress["config_sha"] != _config_hash(config):
            raise ConfigError([("/", "checkpoint in out-dir was produced by a "
                                     "different config; refusing to resume")])
        f, _, _ = load_state(os.path.join(out_dir, "f_checkpoint.fhstate"), writer.grid)
        g = None
        if progress.get("has_g"):
            g, _, _ = load_state(os.path.join(out_dir, "g_checkpoint.fhstate"),
                                 writer.grid)
        resume = {"step": int(progress["step"]), "f": f, "g": g,
                  "tv": float(progress.get("tv", 0.0))}
        writer.start(truncate_to=int(progress["rows"]))
    except (OSError, ValueError, KeyError, TypeError, struct.error) as exc:
        raise ConfigError([("/", f"damaged checkpoint in {out_dir} ({exc}); "
                                 "remove it or run without --resume")]) from exc
    return resume


def _run_trajectory(args, which: str) -> int:
    out_dir = _ensure_out_dir(args)
    config, warns = load_config(args.config, {"seed": args.seed})
    for w in warns:
        print(f"warning: {w}", file=sys.stderr)
    t0 = time.time()
    writer = _RunWriter(out_dir, config, compare=(which == "compare"))
    resume = _load_resume(out_dir, config, writer) if args.resume else None
    if resume is None:
        writer.start()
    grid = writer.grid
    if which == "compare":
        record = run_compare(config, grid=grid, observer=writer, resume=resume)
    else:
        record = run_single(config, which, grid=grid, observer=writer,
                            resume=resume)
    writer.close()
    outputs = ["trajectory.csv", "summary.json"]
    diffs = [d for d in record.diff_norms if d == d]
    summary = {
        "which": which,
        "gate": config.gate,
        "include_alpha_beta": config.include_alpha_beta,
        "coupling_mode": config.coupling_mode,
        "resonant_triple_count": record.resonant_triple_count,
        "resonant_active_slots": record.resonant_active_slots,
        "resonant_couplings_all_zero": record.resonant_couplings_all_zero,
        "end_time": record.times[-1] if record.times else None,
        "end_diff_HM0L2": diffs[-1] if diffs else None,
        "tv_full_HM0L2": record.tv_full if which == "compare" else None,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    for name in ("f_checkpoint.fhstate", "g_checkpoint.fhstate", "progress.json"):
        if os.path.exists(os.path.join(out_dir, name)):
            outputs.append(name)
    _write_manifest(out_dir, _config_snapshot(config),
                    {"config": _sha256_file(args.config)} if args.config else {},
                    outputs, time.time() - t0)
    return EXIT_OK


def _ensure_out_dir(args) -> str:
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reslab",
        description="Fourier-Hermite resonance toolkit for the trapped "
                    "Klein-Gordon equation")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--out-dir", default=None)

    p = sub.add_parser("enumerate", help="list resonant interactions")
    p.add_argument("--max-mode", type=int, required=True)
    p.add_argument("--gate", choices=("sqrt", "printed"), default="sqrt")
    p.add_argument("--massless", action="store_true",
                   help="drop the mass term (eigenvalues 2p+1): empty set")
    common(p)

    p = sub.add_parser("phase-report", help="diagnostics for one phase")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--beta", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--radius", type=float, default=20.0)
    p.add_argument("--width-probes", default="",
                   help="semicolon list j,regime,k (k='-' when unused)")
    common(p)

    p = sub.add_parser("stat-phase-check", help="stationary-phase decay table")
    p.add_argument("--threads", type=int, default=0,
                   help="worker threads; 0 means RESLAB_THREADS or all cores")
    common(p)

    p = sub.add_parser("triple-table", help="export the interaction tensor")
    p.add_argument("--max-mode", type=int, required=True)
    common(p)

    for name in ("simulate-full", "simulate-resonant", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--resume", action="store_true",
                       help="continue from a checkpoint in out-dir")
        p.add_argument("--seed", type=int, default=None)
        common(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        _build_parser().print_help()
        return EXIT_OK
    if argv[0] not in _COMMANDS:
        print(f"unknown subcommand: {argv[0]}", file=sys.stderr)
        print(f"usage: reslab {{{','.join(_COMMANDS)}}} ...", file=sys.stderr)
        return EXIT_USAGE
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "phase-report":
            return cmd_phase_report(args)
        if args.command == "stat-phase-check":
            return cmd_stat_phase_check(args)
        if args.command == "triple-table":
            return cmd_triple_table(args)
        if args.command == "simulate-full":
            return _run_trajectory(args, "full")
        if args.command == "simulate-resonant":
            return _run_trajectory(args, "resonant")
        if args.command == "compare":
            return _run_trajectory(args, "compare")
    except ConfigError as exc:
        for path, msg in exc.issues:
            print(f"config error at {path}: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowupDetected, ResolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ReslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
