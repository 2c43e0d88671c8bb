"""Which reslab callables the traced run wraps, and the per-layer metrics
computed from their spans.

Each callable is wrapped at the name its callers resolve: ``cli`` and
``evolution`` import their helpers by name, so those are patched in the
importing module; ``triples``, ``hermite``, ``phase`` and ``oscillatory``
call their own module globals; stepper and table methods are patched on the
class.  ``cli._RunWriter.__call__`` is the one private hook: CSV rows and
checkpoints are written there, and without it that time would land in the
evolution run loop instead of in ``cli``.
"""

from __future__ import annotations

import importlib

from spans import Tracer, file_bytes, percentile, summarize

# (module, class or None, attribute, span name)
TARGETS = [
    ("reslab.cli", None, "run_compare", "evolution.run_compare"),
    ("reslab.cli", None, "run_single", "evolution.run_single"),
    ("reslab.cli", None, "make_grid", "evolution.make_grid"),
    ("reslab.cli", None, "save_state", "transform.save_state"),
    ("reslab.cli", None, "load_state", "transform.load_state"),
    ("reslab.cli", None, "interactions_for_output", "triples.interactions_for_output"),
    ("reslab.cli", None, "gate_disagreements", "triples.gate_disagreements"),
    ("reslab.cli", None, "phase_report", "phase.phase_report"),
    ("reslab.cli", None, "stat_phase_decay_table", "oscillatory.stat_phase_decay_table"),
    ("reslab.cli", "_RunWriter", "__call__", "cli.observer"),
    ("reslab.evolution", None, "init_profile", "evolution.init_profile"),
    ("reslab.evolution", None, "composite_norms", "transform.composite_norms"),
    ("reslab.evolution", None, "hm_l2_norm", "transform.hm_l2_norm"),
    ("reslab.evolution", None, "interp_matrix", "transform.interp_matrix"),
    ("reslab.evolution", None, "interactions_for_output", "triples.interactions_for_output"),
    ("reslab.evolution", "FullStepper", "__init__", "evolution.FullStepper.build"),
    ("reslab.evolution", "FullStepper", "step", "evolution.FullStepper.step"),
    ("reslab.evolution", "ResonantStepper", "__init__", "evolution.ResonantStepper.build"),
    ("reslab.evolution", "ResonantStepper", "step", "evolution.ResonantStepper.step"),
    ("reslab.evolution", "ResonantStepper", "rhs", "evolution.ResonantStepper.rhs"),
    ("reslab.triples", None, "enumerate_triples", "triples.enumerate_triples"),
    ("reslab.hermite", "HermiteBasis", "build", "hermite.HermiteBasis.build"),
    ("reslab.hermite", "TripleProductTable", "__init__", "hermite.TripleProductTable.build"),
    ("reslab.hermite", "TripleProductTable", "write_csv", "hermite.TripleProductTable.write_csv"),
    ("reslab.phase", None, "lambda_coeff", "phase.lambda_coeff"),
    ("reslab.oscillatory", None, "quadrature_oscillatory", "oscillatory.quadrature_oscillatory"),
]

COMPLEX_BYTES = 16
# Full-size (2, P, n) complex arrays one FullStepper.step touches: the state,
# four exp factors, u, the midpoint u and the result.  Computed, not measured.
FULL_STEP_ARRAYS = 8


def _stepper_counts(_result, args, _kwargs):
    """FFT lengths per full step, computed from the stepper's size: each of
    the two nonlinear evaluations does one inverse and one forward FFT per
    mode."""
    st = args[0]
    return {"fft_len": st.grid.n_x1,
            "ffts_per_step": 4 * st.n_modes if st.nonlinear else 0,
            "step_bytes": FULL_STEP_ARRAYS * 2 * st.n_modes * st.grid.n_x1 * COMPLEX_BYTES}


def _resonant_counts(_result, args, _kwargs):
    """Dense interpolation bytes from the built slots; each RHS call reads
    every slot's two matrices once per component, so twice."""
    st = args[0]
    try:
        slots = [slot for slots_p in st.slots for slot in slots_p]
        dense = sum(slot.em.nbytes + slot.en.nbytes for slot in slots)
        useful = sum(1 for slot in slots if bool((slot.kernel != 0).any()))
    except AttributeError as exc:
        return {"error": f"slot layout not recognised: {exc}"}
    state = 2 * st.n_modes * st.grid.n_x1 * COMPLEX_BYTES
    return {"slots": len(slots), "useful_slots": useful, "dense_bytes": dense,
            "rhs_bytes": 2 * dense, "step_bytes": dense + state}


def _table_counts(_result, args, _kwargs):
    return {"value_bytes": 8 * len(args[0].entries)}


AFTER = {
    "transform.save_state": file_bytes(0),
    "transform.load_state": file_bytes(0),
    "evolution.FullStepper.build": _stepper_counts,
    "evolution.ResonantStepper.build": _resonant_counts,
    "hermite.TripleProductTable.build": _table_counts,
}


def instrument(tracer: Tracer) -> dict[str, str]:
    """Wrap every target; returns span name -> reason for targets not found."""
    absent = {}
    for module_name, cls, attr, span in TARGETS:
        owner = importlib.import_module(module_name)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if owner is None or not tracer.patch(owner, attr, span, AFTER.get(span)):
            absent[span] = f"{module_name}.{cls + '.' if cls else ''}{attr} not found"
    parallel = importlib.import_module("reslab.parallel")
    raw = getattr(parallel, "thread_map", None)
    if raw is None:
        absent["parallel.thread_map"] = "reslab.parallel.thread_map not found"
    else:
        def thread_map(fn, items, threads=0):
            def run():
                return raw(tracer.adopt(tracer.current(), fn), items, threads)
            return tracer.call("parallel.thread_map", run, (), {})
        tracer.replace(parallel, "thread_map", thread_map)
    return absent


# Per-layer metrics read straight off the spans:
# metric name -> (unit, span names, statistic).
SPAN_METRICS = {}


def _add(span, unit_stats):
    for suffix, unit, stat in unit_stats:
        SPAN_METRICS[span + suffix] = (unit, (span,), stat)


_CALLS = (".calls", "count", "calls")
_SELF = (".s", "s", "self")
for _span in ("evolution.FullStepper.step", "evolution.ResonantStepper.step"):
    _add(_span, (_CALLS, _SELF, (".p50_ms", "ms", "p50"), (".p99_ms", "ms", "p99")))
for _span in ("evolution.ResonantStepper.rhs", "transform.composite_norms",
              "transform.hm_l2_norm", "transform.interp_matrix",
              "triples.enumerate_triples", "triples.interactions_for_output",
              "oscillatory.quadrature_oscillatory"):
    _add(_span, (_CALLS, _SELF))
for _span in ("transform.save_state", "transform.load_state"):
    _add(_span, (_CALLS, _SELF, (".bytes", "B", "sum:bytes")))
for _span in ("evolution.init_profile", "hermite.HermiteBasis.build",
              "hermite.TripleProductTable.build", "hermite.TripleProductTable.write_csv",
              "triples.gate_disagreements", "phase.phase_report",
              "oscillatory.stat_phase_decay_table", "parallel.thread_map"):
    _add(_span, (_SELF,))
_add("phase.lambda_coeff", (_CALLS,))
SPAN_METRICS.update({
    "evolution.FullStepper.build_s": ("s", ("evolution.FullStepper.build",), "incl"),
    "evolution.ResonantStepper.build_s": ("s", ("evolution.ResonantStepper.build",), "incl"),
    "evolution.run_loop.s": ("s", ("evolution.run_compare", "evolution.run_single"), "self"),
    "evolution.ResonantStepper.slots": ("count", ("evolution.ResonantStepper.build",), "max:slots"),
    "evolution.ResonantStepper.useful_slots":
        ("count", ("evolution.ResonantStepper.build",), "max:useful_slots"),
    "evolution.ResonantStepper.dense_bytes":
        ("B", ("evolution.ResonantStepper.build",), "max:dense_bytes"),
    "evolution.ResonantStepper.rhs_bytes_computed":
        ("B", ("evolution.ResonantStepper.build",), "max:rhs_bytes"),
    "evolution.FullStepper.fft_len_computed":
        ("count", ("evolution.FullStepper.build",), "max:fft_len"),
    "evolution.FullStepper.ffts_per_step_computed":
        ("count", ("evolution.FullStepper.build",), "max:ffts_per_step"),
})

# Per-layer metrics computed from more than one span, or outside the spans.
OTHER_METRICS = {
    "evolution.ResonantStepper.useful_slot_ratio": "ratio",
    "cli.self_s": "s",
    "cli.resume_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_bytes": "B",
    "hermite.gauss_hermite.hit_ratio": "ratio",
    "parallel.threads": "count",
    "workload.working_set_bytes_computed": "B",
    "workload.working_set_over_l2_computed": "ratio",
    "workload.working_set_over_l3_computed": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_cpu_s": "s",
}


def unit_of(metric: str) -> str:
    if metric in SPAN_METRICS:
        return SPAN_METRICS[metric][0]
    return OTHER_METRICS[metric]


def _statistic(entries: list[dict], stat: str) -> float:
    if stat == "calls":
        return sum(e["calls"] for e in entries)
    if stat == "self":
        return sum(e["self_s"] for e in entries)
    if stat == "incl":
        return sum(e["incl_s"] for e in entries)
    durations = [d for e in entries for d in e["durations_ms"]]
    if stat == "p50":
        return percentile(durations, 50)
    if stat == "p99":
        return percentile(durations, 99)
    how, key = stat.split(":")
    values = [a[key] for e in entries for a in e["attrs"] if key in a]
    if how == "sum":
        return sum(values)
    return max(values, default=0)


def pass_metrics(tracer: Tracer, absent: dict[str, str], gauss_hermite,
                 threads: int) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values of one traced pass and, for each value that could not
    be measured, why.  Metrics that need the parent (CSV sizes, resume time,
    cache sizes, overhead) are left to it."""
    summary = summarize(tracer.spans)
    values, reasons = {}, {}
    for metric, (_unit, names, stat) in SPAN_METRICS.items():
        entries = [summary[n] for n in names if n in summary]
        values[metric] = _statistic(entries, stat)
        if not entries:
            missing = [absent[n] for n in names if n in absent]
            reasons[metric] = missing[0] if missing else "not called by this workload"
        else:
            errors = [a["error"] for e in entries for a in e["attrs"] if "error" in a]
            if errors:
                reasons[metric] = errors[0]
    slots = values["evolution.ResonantStepper.slots"]
    useful = values["evolution.ResonantStepper.useful_slots"]
    values["evolution.ResonantStepper.useful_slot_ratio"] = useful / slots if slots else 0.0
    if not slots:
        reasons["evolution.ResonantStepper.useful_slot_ratio"] = \
            reasons.get("evolution.ResonantStepper.slots", "no slots")
    cli_self = [summary[n]["self_s"] for n in ("cli.main", "cli.observer") if n in summary]
    values["cli.self_s"] = sum(cli_self)
    if gauss_hermite is not None and hasattr(gauss_hermite, "cache_info"):
        info = gauss_hermite.cache_info()
        lookups = info.hits + info.misses
        values["hermite.gauss_hermite.hit_ratio"] = info.hits / lookups if lookups else 0.0
        if not lookups:
            reasons["hermite.gauss_hermite.hit_ratio"] = "not called by this workload"
    else:
        values["hermite.gauss_hermite.hit_ratio"] = 0.0
        reasons["hermite.gauss_hermite.hit_ratio"] = "hermite.gauss_hermite has no cache_info"
    values["parallel.threads"] = threads
    step_bytes = [a[k] for n in ("evolution.FullStepper.build", "evolution.ResonantStepper.build",
                                 "hermite.TripleProductTable.build") if n in summary
                  for a in summary[n]["attrs"] for k in ("step_bytes", "value_bytes") if k in a]
    values["workload.working_set_bytes_computed"] = max(step_bytes, default=0)
    return values, reasons
