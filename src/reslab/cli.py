"""Command-line orchestration: config ingestion, experiment execution, result
serialization, reproducibility plumbing.

Subcommands: enumerate, phase-report, stat-phase-check, simulate-full,
simulate-resonant, compare, triple-table.  All take --out-dir.  The simulation
subcommands read a JSON config via --config, and --seed overrides its seed;
each calls ``evolution.run`` with its system ("full", "resonant" or
"compare").  They checkpoint to out-dir/checkpoint.npz at an output row,
recording its step and its time t_start + step dt, and --resume continues
from it, or starts afresh without one; ``_RunWriter`` alone owns these files
and the checkpoint's layout.  stat-phase-check takes --threads (0, the
default, means all cores).  Exit codes: 0 success, 2 config error
(including a checkpoint that is damaged, of an earlier layout or from another
config or command), an argument its argparse type rejects or an output file
that cannot be written, 3 numerical failure, 64 unknown subcommand.

Outputs are deterministic for a fixed config and seed: CSV floats are
printed as %.17g by ``textfmt``, JSON keys are sorted, and all numerics run
on the same code path regardless of thread count.  ``main`` creates out-dir,
removes an earlier manifest before an analysis command (``_RunWriter`` does
so for a simulation command), runs the command and writes the run manifest
atomically last; it lists every output file the command reports.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time

from .errors import BlowupDetected, ConfigError, ReslabError, ResolutionError
from .evolution import COLUMNS, SimConfig, config_from_json, run, schedule
from .hermite import MAX_MODE, TripleProductTable
from .oscillatory import stat_phase_decay_table
from .phase import PhaseParams, Regime, phase_report
from .transform import load_state, replace_on_close, save_state
from .triples import GATES, all_couplings_zero, interactions_for_output
from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

CHECKPOINT = "checkpoint.npz"


def _sha256_file(path) -> str:
    import hashlib   # here, not at the top: it loads OpenSSL, and only runs hash

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path, payload) -> None:
    with replace_on_close(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    import hashlib   # as in _sha256_file

    return hashlib.sha256(
        json.dumps(dataclasses.asdict(config), sort_keys=True).encode()).hexdigest()


# Each command writes its outputs to out_dir and returns what the manifest
# records of it: (config snapshot, input hashes, output file names).

def cmd_enumerate(args, out_dir: str):
    from .textfmt import fmt   # here, not at the top: see _RunWriter.__call__

    rows, disagreements = interactions_for_output(args.max_mode, gate=args.gate)
    with open(os.path.join(out_dir, "resonant_interactions.csv"), "w", encoding="utf-8") as fh:
        fh.write("m,n,p,alpha,beta,lambda,coupling\n")
        for tr in rows:   # T(m, n, p) is exactly 0 for odd m+n+p, as every row has
            fh.write(f"{tr.m},{tr.n},{tr.p},{tr.alpha},{tr.beta},{fmt(tr.lam)},0\n")
    _write_json(os.path.join(out_dir, "enumerate_summary.json"), {
        "count": len(rows),
        "max_mode": args.max_mode,
        "gate": args.gate,
        "gate_disagreements": [list(t) for t in disagreements],
        "all_couplings_zero": all_couplings_zero(rows),
    })
    return ({"max_mode": args.max_mode, "gate": args.gate},
            {}, ["resonant_interactions.csv", "enumerate_summary.json"])


def cmd_phase_report(args, out_dir: str):
    params = PhaseParams(args.m, args.n, args.p, args.alpha, args.beta)
    report = phase_report(params, R=args.radius, width_specs=args.width_probes)
    _write_json(os.path.join(out_dir, "phase_report.json"), report)
    return report["params"], {}, ["phase_report.json"]


def cmd_stat_phase_check(args, out_dir: str):
    from .textfmt import fmt   # as in cmd_enumerate

    result = stat_phase_decay_table(threads=args.threads)
    csv_path = os.path.join(out_dir, "stat_phase_decay.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("t,quadrature_re,quadrature_im,leading_re,leading_im,abs_diff\n")
        for r in result["rows"]:
            fh.write(",".join(fmt(r[k]) for k in
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
    """Owns a run's files in out_dir: decides between a fresh start and a
    resume, streams the trajectory rows and writes the checkpoint.  It is the
    one home of the checkpoint's layout: a ``save_state`` archive of the
    (P, n_x1) profile f, and of g from the compare fork on, whose ``meta``
    holds what the config cannot give: the step, its time ``t``, the total
    variation ``tv``, the command ``which`` and the ``config_sha`` that pins
    the rest, the grid among it."""

    def __init__(self, out_dir: str, config: SimConfig, which: str):
        self.out_dir = out_dir
        self.config = config
        self.which = which
        self.csv_path = os.path.join(out_dir, "trajectory.csv")
        self.ckpt_path = os.path.join(out_dir, CHECKPOINT)
        self.records = [os.path.join(out_dir, name) for name in ("manifest.json", "summary.json")]
        self.config_sha = _config_hash(config)
        self._fh = None

    def begin(self, resume: bool) -> dict | None:
        """Opens trajectory.csv and returns the run loop's ``resume`` dict.

        With ``resume`` and a checkpoint in out_dir, the CSV is cut back to
        the rows up to the checkpoint's step.  A checkpoint that is damaged
        (also one with a step, time, set of states, state shape or total
        variation this run never writes), of an earlier layout, or of another
        config or command raises ConfigError before any file is touched.
        Otherwise the run starts afresh and removes an earlier run's
        checkpoint.  Either way the manifest and summary of an earlier run go
        before the first output changes, so a run that fails leaves none.
        """
        if resume and os.path.exists(self.ckpt_path):
            try:
                meta, arrays = load_state(self.ckpt_path)
                if meta["config_sha"] != self.config_sha or meta.get("which") != self.which:
                    raise ConfigError([("/", "checkpoint in out-dir was produced by a "
                                             "different config or command; refusing to resume")])
                if "t" not in meta and ("times" in meta or "header" in arrays):
                    raise ConfigError([("/", f"checkpoint in {self.out_dir} is of an earlier "
                                             "layout, with no time 't' in its meta; remove it "
                                             "or run without --resume")])
                t_start, n_total, out_stride, ckpt_stride, fork = schedule(self.config, self.which)
                step, t, tv = meta["step"], meta["t"], meta["tv"]
                names = {"f", "g"} if 0 < fork <= step else {"f"}
                if not (isinstance(step, int) and 0 < step <= n_total and step % ckpt_stride == 0
                        and t == t_start + step * self.config.dt and arrays.keys() == names):
                    raise ValueError(f"step {step!r}, time {t!r} and states {sorted(arrays)} "
                                     "of no checkpoint of this run")
                shape = (self.config.P, self.config.n_x1)
                for name in names:
                    if arrays[name].shape != shape:
                        raise ValueError(f"state {name!r} has shape {arrays[name].shape}, "
                                         f"expected {shape}")
                if type(tv) not in (int, float) or not 0.0 <= tv < math.inf:   # a sum of norms
                    raise ValueError(f"total variation {tv!r} is not a finite number >= 0")
                rows = step // out_stride + 1
                with open(self.csv_path, "r+b") as fh:
                    for _ in range(1 + rows):
                        if not fh.readline().endswith(b"\n"):
                            raise ValueError(f"trajectory.csv has fewer than {rows} rows")
                    for stale in self.records:
                        with contextlib.suppress(FileNotFoundError):
                            os.remove(stale)
                    fh.truncate(fh.tell())
                self._fh = open(self.csv_path, "a", encoding="utf-8")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                # a meta that is no JSON object raises TypeError
                raise ConfigError([("/", f"damaged checkpoint in {self.out_dir} ({exc}); "
                                         "remove it or run without --resume")]) from exc
            return dict(step=step, f=arrays["f"], g=arrays.get("g"), tv=float(tv))
        for stale in (self.ckpt_path, self.ckpt_path + ".tmp", *self.records):
            with contextlib.suppress(FileNotFoundError):
                os.remove(stale)
        self._fh = open(self.csv_path, "w", encoding="utf-8")
        self._fh.write(",".join(COLUMNS[self.which]) + "\n")
        return None

    def __call__(self, step: int, f, g, record, checkpoint: bool) -> None:
        # textfmt loads with the first CSV row, not with the package:
        # without cached bytecode its compile would cost every command
        from .textfmt import fmt

        self._fh.write(",".join(map(fmt, record.row)) + "\n")
        self._fh.flush()
        if checkpoint:
            meta = {"step": step, "t": record.row[0], "tv": record.tv_full,
                    "which": self.which, "config_sha": self.config_sha}
            save_state(self.ckpt_path, meta, **({"f": f} if g is None else {"f": f, "g": g}))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _run_trajectory(args, out_dir: str, which: str):
    config, warns = load_config(args.config, {"seed": args.seed})
    for w in warns:
        print(f"warning: {w}", file=sys.stderr)
    writer = _RunWriter(out_dir, config, which)
    resume = writer.begin(args.resume)
    try:
        record = run(config, which, observer=writer, resume=resume)
    finally:
        writer.close()
    outputs = ["trajectory.csv", "summary.json"]
    summary = {
        "which": which,
        "gate": config.gate,
        "include_alpha_beta": config.include_alpha_beta,
        "coupling_mode": config.coupling_mode,
        "resonant_triple_count": record.resonant_triple_count,
        "resonant_active_slots": record.resonant_active_slots,
        "resonant_couplings_all_zero": record.resonant_couplings_all_zero,
        "end_time": record.row[0],
        "end_diff_HM0L2": record.diff,
        "tv_full_HM0L2": record.tv_full if which == "compare" else None,
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    if os.path.exists(writer.ckpt_path):
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


# the subcommands in the order of the help text and of the exit-64 usage line
COMMANDS = ("enumerate", "phase-report", "stat-phase-check", "triple-table",
            "simulate-full", "simulate-resonant", "compare")
_HELP = {"enumerate": "list resonant interactions",
         "phase-report": "diagnostics for one phase",
         "stat-phase-check": "stationary-phase decay table",
         "triple-table": "export the interaction tensor"}


def _add_subcommand(sub, name: str) -> None:
    """Adds subcommand ``name``, its options and the command it runs."""
    p = sub.add_parser(name, **({"help": _HELP[name]} if name in _HELP else {}))
    if name == "enumerate":
        p.add_argument("--max-mode", type=_int_range(0), required=True)
        p.add_argument("--gate", choices=tuple(GATES), default="sqrt")
        command = cmd_enumerate
    elif name == "phase-report":
        for mode in ("--m", "--n", "--p"):   # the triple table's bound, far inside float range
            p.add_argument(mode, type=_int_range(0, MAX_MODE), required=True)
        p.add_argument("--alpha", type=int, choices=(-1, 1), default=-1)
        p.add_argument("--beta", type=int, choices=(-1, 1), default=-1)
        p.add_argument("--radius", type=_positive_float, default=20.0)
        p.add_argument("--width-probes", type=_width_probes, default=(),
                       help="semicolon list j,regime,k; RhoSmall and RhoLarge probe at "
                            "|eta| = sqrt(2) 2^k, LowFreq takes k='-'")
        command = cmd_phase_report
    elif name == "stat-phase-check":
        p.add_argument("--threads", type=_int_range(0), default=0,
                       help="worker threads; 0 means all cores")
        command = cmd_stat_phase_check
    elif name == "triple-table":
        p.add_argument("--max-mode", type=_int_range(0, MAX_MODE), required=True)
        command = cmd_triple_table
    else:
        p.add_argument("--config", default=None)
        p.add_argument("--resume", action="store_true",
                       help="continue from a checkpoint in out-dir")
        p.add_argument("--seed", type=_int_range(0), default=None)

        def command(args, out_dir):
            return _run_trajectory(args, out_dir, name.removeprefix("simulate-"))
    p.add_argument("--out-dir", default=None)
    p.set_defaults(run=command, simulation=name not in _HELP)


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``only``: a call parses one, and
    building the other six would cost it more than the parsing."""
    parser = argparse.ArgumentParser(
        prog="reslab",
        description="Fourier-Hermite resonance toolkit for the trapped "
                    "Klein-Gordon equation")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS if only is None else (only,):
        _add_subcommand(sub, name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        _build_parser().print_help()
        return EXIT_OK
    if argv[0] not in COMMANDS:
        print(f"unknown subcommand: {argv[0]}", file=sys.stderr)
        print(f"usage: reslab {{{','.join(COMMANDS)}}} ...", file=sys.stderr)
        return EXIT_USAGE
    args = _build_parser(argv[0]).parse_args(argv)
    try:
        out_dir = _ensure_out_dir(args.out_dir or ".")
        if not args.simulation:   # a manifest marks a finished run; see _RunWriter.begin
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, "manifest.json"))
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
    except OSError as exc:   # an output that cannot be written; a rename names it second
        print(f"error: cannot write {exc.filename2 or exc.filename or out_dir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowupDetected, ResolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ReslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
