"""Span tracing of the fpukdv layers, applied from outside the package.

A :class:`Tracer` wraps the public functions listed in ``LAYERS`` and records
one span per call: name, start, end, parent span and run id (one run per CLI
invocation), plus the work the call was asked to do.  Spans stay in memory
and are written out once, when the traced repetition ends.

Wrapping rebinds every ``fpukdv`` module attribute that holds the original
function, because several modules import a function by name (for example
``sample_to_lattice`` lives in ``core``, ``ansatz``, ``diagnostics`` and
``harness``).  Methods are patched on their class, so every instance and
every caller sees the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fpu_integrate_work(a):
    cfg = a["cfg"]
    return {"site_steps": a["state"].N * round(cfg.t_end / cfg.params.dt_lattice)}


# (span name, module, attribute or Class.method, work counted from the call's arguments)
LAYERS = (
    ("core.sample_to_lattice", "core", "sample_to_lattice", lambda a: {"points": a["N"]}),
    ("kernels.fourier_eval", "kernels", "fourier_eval",
     lambda a: {"mode_points": len(a["points"]) * (len(a["coeffs"]) // 2 + 1)}),
    ("kernels.fpu_rk4", "kernels", "fpu_rk4", lambda a: {"site_steps": len(a["u"]) * a["nsteps"]}),
    ("fpu.fpu_integrate", "fpu", "fpu_integrate", _fpu_integrate_work),
    ("fpu.fpu_energy", "fpu", "fpu_energy", None),
    ("kdv.KdvIntegrator.init", "kdv", "KdvIntegrator.__init__", None),
    ("kdv.KdvIntegrator.run", "kdv", "KdvIntegrator.run",
     lambda a: {"steps": a["n_steps"], "mode_steps": a["self"].cfg.M * a["n_steps"]}),
    ("kdv.track_norm_growth", "kdv", "track_norm_growth", None),
    ("kdv.time_derivative", "kdv", "time_derivative", None),
    ("ansatz.build_p_epsilon", "ansatz", "build_p_epsilon", None),
    ("ansatz.initial_lattice_data", "ansatz", "initial_lattice_data", None),
    ("ansatz.decompose", "ansatz", "decompose", None),
    ("diagnostics.error_norms", "diagnostics", "error_norms", None),
    ("diagnostics.residual_snapshot", "diagnostics", "residual_snapshot", None),
    ("diagnostics.energy_quantity", "diagnostics", "energy_quantity", None),
    ("harness.run_error_scan", "harness", "run_error_scan", None),
    ("harness.run_metastability", "harness", "run_metastability", None),
    ("harness.run_norm_growth", "harness", "run_norm_growth", None),
    ("harness.orbital_distance", "harness", "orbital_distance", None),
    ("harness.write_csv", "harness", "write_csv", lambda a: {"bytes": os.path.getsize(a["path"])}),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Records nested spans for a single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[Span] = []

    def wrap(self, name, fn, work=None):
        sig = inspect.signature(getattr(fn, "py_func", fn)) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                        self.run, name, 0.0, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span.work = work(sig.bind(*args, **kwargs).arguments)
            return result

        return traced

    def install(self, package: str = "fpukdv") -> None:
        """Wrap every layer in ``LAYERS`` wherever the package looks it up."""
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == package or key.startswith(package + ".")]
        for name, module, attr, work in LAYERS:
            mod = importlib.import_module(f"{package}.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), work))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, work)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def load_spans(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


# Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = (
    ("core.sample_to_lattice.calls", "count", "lower"),
    ("core.sample_to_lattice.self_s", "s", "lower"),
    ("core.sample_to_lattice.p50_ms", "ms", "lower"),
    ("core.sample_to_lattice.p99_ms", "ms", "lower"),
    ("core.sample_to_lattice.points", "count", "lower"),
    ("core.sample_to_lattice.per_record", "count", "lower"),
    ("kernels.fourier_eval.calls", "count", "lower"),
    ("kernels.fourier_eval.self_s", "s", "lower"),
    ("kernels.fourier_eval.mode_points", "count", "lower"),
    ("kernels.fourier_eval.ns_per_mode_point", "ns", "lower"),
    ("kernels.fpu_rk4.calls", "count", "lower"),
    ("kernels.fpu_rk4.self_s", "s", "lower"),
    ("kernels.fpu_rk4.site_steps", "count", "lower"),
    ("kernels.fpu_rk4.ns_per_site_step", "ns", "lower"),
    ("fpu.fpu_integrate.calls", "count", "lower"),
    ("fpu.fpu_integrate.self_s", "s", "lower"),
    ("fpu.fpu_integrate.site_steps", "count", "lower"),
    ("fpu.fpu_integrate.ns_per_site_step", "ns", "lower"),
    ("fpu.fpu_energy.calls", "count", "lower"),
    ("fpu.fpu_energy.self_s", "s", "lower"),
    ("kdv.KdvIntegrator.run.calls", "count", "lower"),
    ("kdv.KdvIntegrator.run.self_s", "s", "lower"),
    ("kdv.KdvIntegrator.run.steps", "count", "lower"),
    ("kdv.KdvIntegrator.run.mode_steps", "count", "lower"),
    ("kdv.KdvIntegrator.run.us_per_step", "us", "lower"),
    ("kdv.KdvIntegrator.init.calls", "count", "lower"),
    ("kdv.KdvIntegrator.init.self_s", "s", "lower"),
    ("kdv.integrator_cache.hit_ratio", "ratio", "higher"),
    ("kdv.track_norm_growth.self_s", "s", "lower"),
    ("kdv.time_derivative.calls", "count", "lower"),
    ("ansatz.build_p_epsilon.calls", "count", "lower"),
    ("ansatz.build_p_epsilon.self_s", "s", "lower"),
    ("ansatz.build_p_epsilon.per_record", "count", "lower"),
    ("ansatz.initial_lattice_data.calls", "count", "lower"),
    ("ansatz.initial_lattice_data.self_s", "s", "lower"),
    ("ansatz.decompose.calls", "count", "lower"),
    ("ansatz.decompose.self_s", "s", "lower"),
    ("diagnostics.error_norms.calls", "count", "lower"),
    ("diagnostics.error_norms.self_s", "s", "lower"),
    ("diagnostics.error_norms.p50_ms", "ms", "lower"),
    ("diagnostics.error_norms.p99_ms", "ms", "lower"),
    ("diagnostics.residual_snapshot.calls", "count", "lower"),
    ("diagnostics.residual_snapshot.self_s", "s", "lower"),
    ("diagnostics.energy_quantity.calls", "count", "lower"),
    ("diagnostics.energy_quantity.self_s", "s", "lower"),
    ("harness.run_error_scan.total_s", "s", "lower"),
    ("harness.run_metastability.total_s", "s", "lower"),
    ("harness.run_norm_growth.total_s", "s", "lower"),
    ("harness.orbital_distance.calls", "count", "lower"),
    ("harness.orbital_distance.self_s", "s", "lower"),
    ("harness.write_csv.calls", "count", "lower"),
    ("harness.write_csv.self_s", "s", "lower"),
    ("harness.write_csv.bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.cpu_per_wall", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _percentile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile of the durations, in milliseconds (0 if none)."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1e3


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[Span], counters: dict, traced: dict, untraced_wall_s: float) -> dict:
    """Per-layer metrics, keyed as in ``PER_LAYER``, from one traced repetition.

    ``counters`` holds the integrator-cache hits and misses; ``traced`` is
    the traced repetition's result (wall and CPU seconds).
    """
    self_s = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return float(len(by_name.get(name, ())))

    def own(name):
        return sum((self_s[s.id] for s in by_name.get(name, ())), 0.0)

    def total(name):
        return sum((s.duration for s in by_name.get(name, ())), 0.0)

    def work(name, key):
        return float(sum(s.work.get(key, 0) for s in by_name.get(name, ())))

    def durations(name):
        return [s.duration for s in by_name.get(name, ())]

    def per_record(name):
        """Calls of ``name`` made inside an error_norms call, per such call."""
        inside = 0
        for span in by_name.get(name, ()):
            parent = span.parent
            while parent is not None and by_id[parent].name != "diagnostics.error_norms":
                parent = by_id[parent].parent
            inside += parent is not None
        return _ratio(inside, calls("diagnostics.error_norms"))

    m = {}
    for layer in ("core.sample_to_lattice", "kernels.fourier_eval", "kernels.fpu_rk4",
                  "fpu.fpu_integrate", "fpu.fpu_energy", "kdv.KdvIntegrator.run",
                  "kdv.KdvIntegrator.init", "ansatz.build_p_epsilon",
                  "ansatz.initial_lattice_data", "ansatz.decompose", "diagnostics.error_norms",
                  "diagnostics.residual_snapshot", "diagnostics.energy_quantity",
                  "harness.orbital_distance", "harness.write_csv"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = own(layer)
    for layer in ("core.sample_to_lattice", "diagnostics.error_norms"):
        m[f"{layer}.p50_ms"] = _percentile_ms(durations(layer), 50)
        m[f"{layer}.p99_ms"] = _percentile_ms(durations(layer), 99)
    m["core.sample_to_lattice.points"] = work("core.sample_to_lattice", "points")
    m["core.sample_to_lattice.per_record"] = per_record("core.sample_to_lattice")
    m["ansatz.build_p_epsilon.per_record"] = per_record("ansatz.build_p_epsilon")

    fe = "kernels.fourier_eval"
    m[f"{fe}.mode_points"] = work(fe, "mode_points")
    m[f"{fe}.ns_per_mode_point"] = _ratio(own(fe), m[f"{fe}.mode_points"], 1e9)
    for layer in ("kernels.fpu_rk4", "fpu.fpu_integrate"):
        m[f"{layer}.site_steps"] = work(layer, "site_steps")
        m[f"{layer}.ns_per_site_step"] = _ratio(own(layer), m[f"{layer}.site_steps"], 1e9)
    run = "kdv.KdvIntegrator.run"
    m[f"{run}.steps"] = work(run, "steps")
    m[f"{run}.mode_steps"] = work(run, "mode_steps")
    m[f"{run}.us_per_step"] = _ratio(own(run), m[f"{run}.steps"], 1e6)
    hits, misses = counters.get("integrator_cache_hits", 0), counters.get("integrator_cache_misses", 0)
    m["kdv.integrator_cache.hit_ratio"] = _ratio(hits, hits + misses)
    m["kdv.track_norm_growth.self_s"] = own("kdv.track_norm_growth")
    m["kdv.time_derivative.calls"] = calls("kdv.time_derivative")
    for runner in ("run_error_scan", "run_metastability", "run_norm_growth"):
        m[f"harness.{runner}.total_s"] = total(f"harness.{runner}")
    m["harness.write_csv.bytes"] = work("harness.write_csv", "bytes")
    m["cli.main.self_s"] = own("cli.main")
    m["process.cpu_s"] = traced["cpu_s"]
    m["process.cpu_per_wall"] = _ratio(traced["cpu_s"], traced["wall_s"])
    m["trace.overhead_frac"] = _ratio(traced["wall_s"], untraced_wall_s) - 1.0
    return m


def top_self_times(spans: list[Span], n: int = 5) -> list[tuple[str, float]]:
    """The ``n`` span names with the largest summed self time."""
    self_s = self_times(spans)
    sums: dict[str, float] = {}
    for span in spans:
        sums[span.name] = sums.get(span.name, 0.0) + self_s[span.id]
    return sorted(sums.items(), key=lambda kv: -kv[1])[:n]
