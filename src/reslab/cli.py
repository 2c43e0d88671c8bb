"""Command-line orchestration: config ingestion, experiment execution, result
serialization, reproducibility plumbing.

Subcommands: enumerate, phase-report, stat-phase-check, simulate-full,
simulate-resonant, compare, triple-table.  All take --out-dir.  The simulation
subcommands read a JSON config via --config, and --seed overrides its seed;
they checkpoint to out-dir/checkpoint.npz (see ``transform.save_state``), and
--resume continues from it, or starts afresh without one.  stat-phase-check
takes --threads (0, the default, means all cores).  Exit codes: 0 success, 2 config
error (including a checkpoint that is damaged or from another config) or an
argument its argparse type rejects, 3 numerical failure, 64 unknown subcommand.

Outputs are deterministic for a fixed config and seed: floats are printed
with repr-faithful %.17g, JSON keys are sorted, and all numerics run on the
same code path regardless of thread count.  ``main`` creates out-dir, runs
the command and writes the run manifest atomically last; it lists every
output file the command reports.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

from .errors import BlowupDetected, ConfigError, ReslabError, ResolutionError
from .evolution import (SimConfig, config_from_json, make_grid, run_compare,
                        run_single)
from .hermite import MAX_MODE, TripleProductTable
from .oscillatory import stat_phase_decay_table
from .phase import PhaseParams, Regime, phase_report
from .transform import load_state, save_state
from .triples import GATES, gate_disagreements, interactions_for_output
from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

CHECKPOINT = "checkpoint.npz"

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


def load_config(path: str | None, overrides: dict) -> tuple[SimConfig, list[str]]:
    """Parse and validate a JSON run config; CLI overrides win.

    Raises ConfigError with (json-pointer, message) issues; returns the config
    and the non-fatal hypothesis warnings.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError([("/", f"cannot read config file {path}: "
                                     f"{exc.strerror or exc}")]) from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError([("/", f"invalid JSON in {path}: {exc}")]) from exc
        if not isinstance(raw, dict):
            raise ConfigError([("/", "config must be a JSON object")])
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_json(raw)


def _config_hash(config: SimConfig) -> str:
    return hashlib.sha256(
        json.dumps(dataclasses.asdict(config), sort_keys=True).encode()).hexdigest()


# Each command writes its outputs to out_dir and returns what the manifest
# records of it: (config snapshot, input hashes, output file names).

def cmd_enumerate(args, out_dir: str):
    rows = []
    if not args.massless:   # the massless variant has a provably empty set
        for p in range(args.max_mode + 1):
            rows.extend(interactions_for_output(p, args.max_mode, gate=args.gate))
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
    return ({"max_mode": args.max_mode, "gate": args.gate, "massless": args.massless},
            {}, ["resonant_interactions.csv", "enumerate_summary.json"])


def cmd_phase_report(args, out_dir: str):
    params = PhaseParams(args.m, args.n, args.p, args.alpha, args.beta)
    report = phase_report(params, R=args.radius, width_specs=args.width_probes)
    _write_json(os.path.join(out_dir, "phase_report.json"), report)
    return report["params"], {}, ["phase_report.json"]


def cmd_stat_phase_check(args, out_dir: str):
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
    return {}, {}, ["stat_phase_decay.csv", "stat_phase_summary.json"]


def cmd_triple_table(args, out_dir: str):
    table = TripleProductTable(args.max_mode)
    table.write_csv(os.path.join(out_dir, "triple_products.csv"))
    return ({"max_mode": args.max_mode, "quad_order": table.built_with},
            {}, ["triple_products.csv"])


class _RunWriter:
    """Streams trajectory rows and writes the checkpoint file."""

    def __init__(self, out_dir: str, config: SimConfig, compare: bool):
        self.out_dir = out_dir
        self.config = config
        self.compare = compare
        self.header = ("t,tilde_HN_f,S_MN_f,S_MN_g,diff_HM0L2" if compare
                       else "t,tilde_HN,HM_HN,B_t,S_MN_t")
        self.grid = make_grid(config)
        self.csv_path = os.path.join(out_dir, "trajectory.csv")
        self.rows = 0
        self._fh = None

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
            with open(self.csv_path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[:1 + truncate_to])
            self._fh = open(self.csv_path, "a", encoding="utf-8")
            self.rows = truncate_to

    def __call__(self, kind: str, step: int, f, g, record) -> None:
        if kind == "out":
            i = len(record.times) - 1
            nf, ng = record.norms_full[i], record.norms_resonant[i]
            if self.compare:
                row = (record.times[i], nf.tilde_HN, nf.S_MN_t,
                       ng.S_MN_t if ng is not None else float("nan"), record.diff_norms[i])
            else:
                row = (record.times[i], nf.tilde_HN, nf.HM_HN, nf.B_t, nf.S_MN_t)
            self._fh.write(",".join(_fmt(v) for v in row) + "\n")
            self._fh.flush()
            self.rows += 1
        elif kind == "ckpt":
            meta = {"step": step, "rows": self.rows, "tv": record.tv_full,
                    "config_sha": _config_hash(self.config)}
            states = {"f": f} if g is None else {"f": f, "g": g}
            save_state(os.path.join(self.out_dir, CHECKPOINT), self.grid, meta,
                       **states)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _load_resume(out_dir: str, config: SimConfig, writer: _RunWriter):
    """Reopens ``writer`` at the checkpoint in out_dir and returns the run
    loop's ``resume`` dict, or None when out_dir holds no checkpoint."""
    path = os.path.join(out_dir, CHECKPOINT)
    if not os.path.exists(path):
        return None
    try:
        meta, states = load_state(path, writer.grid)
        if meta["config_sha"] != _config_hash(config):
            raise ConfigError([("/", "checkpoint in out-dir was produced by a "
                                     "different config; refusing to resume")])
        resume = {"step": int(meta["step"]), "f": states["f"],
                  "g": states.get("g"), "tv": float(meta["tv"])}
        writer.start(truncate_to=int(meta["rows"]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError([("/", f"damaged checkpoint in {out_dir} ({exc}); "
                                 "remove it or run without --resume")]) from exc
    return resume


def _run_trajectory(args, out_dir: str, which: str):
    config, warns = load_config(args.config, {"seed": args.seed})
    for w in warns:
        print(f"warning: {w}", file=sys.stderr)
    writer = _RunWriter(out_dir, config, compare=(which == "compare"))
    resume = _load_resume(out_dir, config, writer) if args.resume else None
    if resume is None:   # an earlier run's checkpoint is not this run's output
        for stale in (CHECKPOINT, CHECKPOINT + ".tmp"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, stale))
        writer.start()
    grid = writer.grid
    try:
        if which == "compare":
            record = run_compare(config, grid=grid, observer=writer, resume=resume)
        else:
            record = run_single(config, which, grid=grid, observer=writer,
                                resume=resume)
    finally:
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
    if os.path.exists(os.path.join(out_dir, CHECKPOINT)):
        outputs.append(CHECKPOINT)
    return (dataclasses.asdict(config),
            {"config": _sha256_file(args.config)} if args.config else {}, outputs)


def _ensure_out_dir(out_dir: str) -> str:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError([("/", f"cannot create out-dir {out_dir}: "
                                 f"{exc.strerror or exc}")]) from exc
    return out_dir


def _int_range(low: int, high: int | None = None):
    """argparse type: an integer in [low, high]."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}" if high is None
                                             else f"must be an integer in [{low}, {high}]")
        return value
    parse.__name__ = "integer"   # argparse names the type in "invalid ... value"
    return parse


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a finite number > 0")
    return value


def _width_probes(text: str) -> tuple:
    """argparse type: "j,regime,k;..." -> ((j, regime, k or None), ...)."""
    try:
        items = (item.split(",") for item in filter(None, text.split(";")))
        return tuple((int(j), Regime(regime).value, None if k == "-" else int(k))
                     for j, regime, k in items)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be a ';' list of j,regime,k with integers j and k (k='-' when unused) "
            f"and regime one of {', '.join(r.value for r in Regime)}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reslab",
        description="Fourier-Hermite resonance toolkit for the trapped "
                    "Klein-Gordon equation")
    sub = parser.add_subparsers(dest="command")

    def common(p, run):
        p.add_argument("--out-dir", default=None)
        p.set_defaults(run=run)

    p = sub.add_parser("enumerate", help="list resonant interactions")
    p.add_argument("--max-mode", type=_int_range(0), required=True)
    p.add_argument("--gate", choices=tuple(GATES), default="sqrt")
    p.add_argument("--massless", action="store_true",
                   help="drop the mass term (eigenvalues 2p+1): empty set")
    common(p, cmd_enumerate)

    p = sub.add_parser("phase-report", help="diagnostics for one phase")
    for mode in ("--m", "--n", "--p"):
        p.add_argument(mode, type=_int_range(0), required=True)
    p.add_argument("--alpha", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--beta", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--radius", type=_positive_float, default=20.0)
    p.add_argument("--width-probes", type=_width_probes, default=(),
                   help="semicolon list j,regime,k (k='-' when unused)")
    common(p, cmd_phase_report)

    p = sub.add_parser("stat-phase-check", help="stationary-phase decay table")
    p.add_argument("--threads", type=_int_range(0), default=0,
                   help="worker threads; 0 means all cores")
    common(p, cmd_stat_phase_check)

    p = sub.add_parser("triple-table", help="export the interaction tensor")
    p.add_argument("--max-mode", type=_int_range(0, MAX_MODE), required=True)
    common(p, cmd_triple_table)

    for name, which in (("simulate-full", "full"), ("simulate-resonant", "resonant"),
                        ("compare", "compare")):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--resume", action="store_true",
                       help="continue from a checkpoint in out-dir")
        p.add_argument("--seed", type=_int_range(0), default=None)
        common(p, lambda args, out_dir, which=which: _run_trajectory(args, out_dir, which))
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
        out_dir = _ensure_out_dir(args.out_dir or ".")
        t0 = time.time()
        config, input_hashes, outputs = args.run(args, out_dir)
        _write_json(os.path.join(out_dir, "manifest.json"), {
            "tool": "reslab", "version": __version__, "config": config,
            "input_hashes": input_hashes, "outputs": sorted(outputs),
            "wall_seconds": time.time() - t0})
        return EXIT_OK
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


if __name__ == "__main__":
    sys.exit(main())
