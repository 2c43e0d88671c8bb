"""The benchmark's workloads: which reslab CLI calls each one makes and what
each one builds before its first step.  Why each workload exists is recorded
in ``BENCHMARK.json`` and ``README.md``.

Simulation workloads pass the benchmark seed to the CLI as ``--seed``,
reduced modulo ``REFERENCE_SEEDS`` so that every input has a reference
trajectory captured by ``capture_reference.py``.  Their configs live in
``perfbench/configs``, so the benchmark does not move when ``configs/`` does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEEDS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    command: str | None = None   # CLI subcommand of a simulation workload
    builds: tuple[str, ...] = ()  # steppers the command builds: "full", "resonant"
    resume: bool = False

    @property
    def config(self) -> str | None:
        if self.command is None:
            return None
        return os.path.join(CONFIG_DIR, self.name + ".json")


# The workloads BENCHMARK.json declares.  ``unit_resonant`` and ``full_large``
# run by hand (``--workload``) only: on a shared 2-vCPU host a run must last
# about 50 s for ``wall_s`` to repeat within its bound, and comparing two
# commits on four workloads of that length would take too long.
BENCHMARKED = ("desk_compare", "analysis")

WORKLOADS = {w.name: w for w in (
    Workload("desk_compare", command="compare", builds=("full", "resonant"), resume=True),
    Workload("unit_resonant", command="simulate-resonant", builds=("resonant",)),
    Workload("full_large", command="simulate-full", builds=("full",), resume=True),
    Workload("analysis"),
)}


def config_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def cli_calls(workload: Workload, seed: int, out_dir: str) -> list[tuple[str, list[str]]]:
    """(operation name, argv) for each CLI call of one pass of the workload.

    ``--threads`` is never passed: in-process it leaks into the environment
    and into the checkpoint's config hash.
    """
    if workload.command is not None:
        argv = [workload.command, "--config", workload.config,
                "--out-dir", out_dir, "--seed", str(config_seed(seed))]
        calls = [("run", argv)]
        if workload.resume:
            calls.append(("resume", argv + ["--resume"]))
        return calls
    d = lambda sub: os.path.join(out_dir, sub)
    return [
        ("enumerate", ["enumerate", "--max-mode", "200", "--out-dir", d("enum")]),
        ("triple-table", ["triple-table", "--max-mode", "120", "--out-dir", d("table")]),
        ("stat-phase-check", ["stat-phase-check", "--out-dir", d("sp")]),
        ("phase-report", ["phase-report", "--m", "0", "--n", "0", "--p", "3",
                          "--alpha", "-1", "--beta", "-1",
                          "--width-probes", "3,LowFreq,-", "--out-dir", d("phase")]),
    ]
