"""Experiment orchestration: epsilon sweeps, theorem time windows,
scaling-exponent fits, metastability runs and persistence.

``ExperimentSpec`` holds every setting of a run with its one default and
rejects bad input; only this module turns it into solver inputs (W0, lattice
starts, KdV configs); ``write_csv`` writes rows of column -> value dicts.

Both lattice scans run each epsilon cell alone against the one reference
run of its KdV window tau0, sampled once into a list: the error scan
records errors against a KdV run, metastability the orbital distance from
W0, which stands still.  The window is ExperimentSpec data: a fixed tau0
is one window for all cells, the extended window of theorem 1 or 2 is one
per epsilon.  Every lattice run takes its largest step from one rule,
``lattice_step``, which grows as 1/eps, so a cell runs about
eps^-2 |log eps| steps on N = L/eps sites, eps^-3 |log eps| site steps in
all.  A sweep runs its windows one after another in one process, in
epsilon order, since the smallest epsilon dominates it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .ansatz import build_p_epsilon, initial_lattice_data, seeded_perturbation
from .core import (
    BlowUpError,
    ConfigurationError,
    FieldProfile,
    InvalidInputError,
    LatticeState,
    ModelParams,
    check_epsilon,
    check_power,
    grid_points,
    lattice_size,
    sample_steps,
    sample_to_lattice,
)
from .diagnostics import error_norms, residual_profiles, residual_snapshot
from .fpu import fpu_energy, lattice_samples
from .kdv import (KdvRunConfig, SolitonSpec, kdv_samples, nonlinear_fields, soliton_profile,
                  track_norm_growth)


@dataclass(frozen=True)
class ExperimentSpec:
    """Every setting of a run with its one default; the gate for outside input."""

    p: int = 2
    epsilons: tuple = (0.2, 0.1, 0.05)
    r: float = 0.25
    K: float = 1.0
    c: float = 1.0
    L: float = 64.0
    M: int = 1024
    tau0: float | None = None
    theorem: int | None = None
    s: int = 6
    dt_lattice: float | None = None  # None: the rule of lattice_step
    dtau_kdv: float = 1.0e-3
    n_samples: int = 100
    perturbation_mode: str = "none"  # "none" or "random"
    seed: int = 0
    perturbation_size: float | None = None
    tau_end: float = 5.0
    initial_mode: str = "soliton"  # "soliton" or "gaussian"
    amplitude: float = 1.0
    t_end: float = 100.0  # lattice time of an fpu run

    def __post_init__(self):
        if self.tau0 is not None and self.theorem is not None:
            raise ConfigurationError("tau0 and theorem select different windows; give one")
        if self.tau0 is None and self.theorem is None:
            object.__setattr__(self, "theorem", 1)
        if self.theorem not in (None, 1, 2):
            raise InvalidInputError(f"theorem must be 1 or 2, got {self.theorem}")
        if not (self.tau0 is None or 0.0 < self.tau0 < math.inf):
            raise InvalidInputError(f"tau0 must be positive and finite, got {self.tau0}")
        check_power(self.p)
        if not isinstance(self.n_samples, numbers.Integral) or self.n_samples < 1:
            raise InvalidInputError(f"sampling needs an integer n_samples >= 1, "
                                    f"got {self.n_samples}")
        for name in ("seed", "s"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise InvalidInputError(f"{name} must be an integer >= 0, got {value}")
        for name in ("t_end", "tau_end", "c", "K", "L"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidInputError(f"{name} must be positive and finite, "
                                        f"got {getattr(self, name)}")
        if not math.isfinite(self.amplitude):
            raise InvalidInputError(f"amplitude must be finite, got {self.amplitude}")
        if not (self.perturbation_size is None or 0.0 <= self.perturbation_size < math.inf):
            raise InvalidInputError(f"perturbation size must be >= 0 and finite, "
                                    f"got {self.perturbation_size}")
        if not 0.0 < self.r < 0.5:
            raise InvalidInputError(f"r must be in (0, 1/2), got {self.r}")
        eps = tuple(self.epsilons)
        if not all(0.0 < e < 1.0 for e in eps):
            raise InvalidInputError(f"epsilons must be in (0, 1), got {eps}")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise InvalidInputError("epsilon list must be strictly decreasing")
        if not (isinstance(self.M, numbers.Integral) and self.M > 0 and self.M % 2 == 0):
            raise InvalidInputError(f"M must be even and positive, got {self.M}")
        if self.perturbation_mode not in ("none", "random"):
            raise InvalidInputError(f"unknown perturbation mode {self.perturbation_mode!r}")
        if self.initial_mode not in ("soliton", "gaussian"):
            raise InvalidInputError(f"unknown initial mode {self.initial_mode!r}")
        object.__setattr__(self, "epsilons", eps)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual_rms: float
    points: tuple


def fit_scaling_exponent(points) -> FitResult:
    """OLS of log y against log x for points (x, y): the scaling exponent of
    a value in epsilon, or of a norm in tau.

    The line is the centred closed form, so no LAPACK routine is loaded.
    """
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < 3:
        raise InvalidInputError("need at least 3 points for a reported slope")
    # written so that NaN fails it too
    if not all(0.0 < e < math.inf and 0.0 < v < math.inf for e, v in pts):
        raise InvalidInputError("scaling fit requires finite positive epsilons and values")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    # on equal x the mean can round off x, so test x itself, not x - mean
    if np.all(x == x[0]):
        raise InvalidInputError("scaling fit needs two distinct epsilons")
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    slope = np.sum(dx * (y - ym)) / np.sum(dx * dx)
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        points=tuple(zip(x.tolist(), y.tolist())),
    )


def time_window(epsilon: float, r: float, K: float, p: int, theorem: int) -> tuple[float, float]:
    """(t0, tau0) of the extended justification windows.

    Theorem 1: t0 = r K^-1 eps^-3 |log eps|;
    Theorem 2: t0 = (2 p K)^-1 eps^-3 log(r |log eps|), needs r|log eps| > 1.
    """
    check_epsilon(epsilon)
    abslog = abs(math.log(epsilon))
    if theorem == 1:
        t0 = r / K * epsilon**-3 * abslog
    elif theorem == 2:
        if r * abslog <= 1.0:
            raise ConfigurationError(
                f"theorem 2 window needs r|log eps| > 1, got {r * abslog}"
            )
        t0 = epsilon**-3 * math.log(r * abslog) / (2.0 * p * K)
    else:
        raise InvalidInputError(f"theorem must be 1 or 2, got {theorem}")
    if t0 <= 0.0:
        raise ConfigurationError(f"nonpositive time window t0 = {t0}")
    return t0, epsilon**3 * t0


def initial_profile(spec: ExperimentSpec) -> FieldProfile:
    """W0 of the spec: the soliton of speed c, or a Gaussian of the given
    amplitude, centred at L/2 on the M-point grid."""
    if spec.initial_mode == "soliton":
        return soliton_profile(SolitonSpec(p=spec.p, c=spec.c, center=spec.L / 2.0), spec.L, spec.M)
    x = grid_points(spec.L, spec.M)
    return FieldProfile.from_values(spec.amplitude * np.exp(-((x - spec.L / 2.0) ** 2)), spec.L)


def _window_for(spec: ExperimentSpec, epsilon: float) -> tuple[float, float]:
    """(t0, tau0) of the spec's window at epsilon."""
    if spec.tau0 is None:
        return time_window(epsilon, spec.r, spec.K, spec.p, spec.theorem)
    return spec.tau0 * epsilon**-3, spec.tau0


def _kdv_config(spec: ExperimentSpec) -> KdvRunConfig:
    return KdvRunConfig(p=spec.p, L=spec.L, M=spec.M, dtau=spec.dtau_kdv)


# theta, the wave's move per lattice step in widths 1/b: with it the rule is
# dt = 0.1 / (eps (p - 1) sqrt(c)), 0.5 at p = 2, c = 1, eps = 0.2.
_STEP_WIDTHS = 0.1 * math.sqrt(6.0)


def lattice_step(spec: ExperimentSpec, epsilon: float) -> float:
    """The largest lattice time step at epsilon: spec.dt_lattice when set,
    else theta / (epsilon * b), b = SolitonSpec(p, c).width.

    S6 runs the linear flow exactly, so its error is set by how far the
    wave moves against its own width in one step: epsilon * dt in xi, which
    the rule holds at theta widths 1/b.  The width enters because a narrow
    wave needs the finer step: a rule in epsilon alone (0.1/eps at every p)
    puts the p = 5 sup error 2.5e-4 and 1.1e-3 off its fine-step value at
    eps = 0.1 and 0.05 (README, "Lattice").
    """
    if spec.dt_lattice is not None:
        return spec.dt_lattice
    return _STEP_WIDTHS / (epsilon * SolitonSpec(p=spec.p, c=spec.c).width)


def _lattice_start(spec: ExperimentSpec, W0: FieldProfile,
                   epsilon: float) -> tuple[LatticeState, ModelParams, float]:
    """(state, params, delta) of a lattice run at epsilon: the sampled ansatz
    of W0 on the N = L/epsilon sites, stepped by ``lattice_step``, plus, in
    random mode, a seeded perturbation of l2 size delta (perturbation_size,
    by default eps^(3/2))."""
    N = lattice_size(spec.L, epsilon)
    params = ModelParams(p=spec.p, epsilon=epsilon, dt_lattice=lattice_step(spec, epsilon))
    delta = spec.perturbation_size if spec.perturbation_size is not None else epsilon**1.5
    perturbation = (seeded_perturbation(N, delta, spec.seed)
                    if spec.perturbation_mode == "random" else None)
    return initial_lattice_data(W0, epsilon, spec.p, N, perturbation), params, delta


def _steps_taken(params: ModelParams, t_end: float, n_samples: int) -> dict:
    """What a lattice run over [0, t_end] steps by: its largest step
    dt_lattice, the step dt it takes and its number of steps."""
    n, dt = sample_steps(t_end, n_samples, params.dt_lattice)
    return {"dt_lattice": params.dt_lattice, "dt": dt, "steps": n * n_samples}


def run_fpu(spec: ExperimentSpec) -> dict:
    """Rows (t, H, sum_u, sum_q) at the n_samples + 1 sample times of one
    lattice run over [0, t_end], at the spec's one epsilon, and the steps it
    took at that epsilon."""
    if len(spec.epsilons) != 1:
        raise ConfigurationError(f"fpu runs one epsilon, got {len(spec.epsilons)}: "
                                 f"{','.join(map(str, spec.epsilons))}")
    eps = spec.epsilons[0]
    state, params, _ = _lattice_start(spec, initial_profile(spec), eps)
    rows = [{"t": t, "H": fpu_energy(st, eps, spec.p),
             "sum_u": float(np.sum(st.u)), "sum_q": float(np.sum(st.q))}
            for t, st in lattice_samples(state, params, spec.t_end, spec.n_samples)]
    return {"rows": rows, "lattice_steps": {eps: _steps_taken(params, spec.t_end, spec.n_samples)}}


# ---------------------------------------------------------------------------
# residual scan
# ---------------------------------------------------------------------------

def run_residual_scan(spec: ExperimentSpec) -> dict:
    """Residual l2 norms at t = 0 for each epsilon, plus slope fits when
    there are three epsilons or more (as in run_error_scan).

    Res1 is the defect of the truncated first lattice equation, so one
    profile gives both its lattice l2 norm and its grid sup (truncation_sup).
    The nonlinear fields of W0 do not depend on epsilon: formed once.
    """
    W0 = initial_profile(spec)
    fields = nonlinear_fields(W0, spec.p)
    rows = []
    for eps in spec.epsilons:
        profiles = residual_profiles(W0, fields, build_p_epsilon(W0, fields.N, eps), eps, spec.p)
        res1_l2, res2_l2 = residual_snapshot(
            sample_to_lattice(profiles, eps, 0.0, lattice_size(spec.L, eps)))
        rows.append({"epsilon": eps, "res1_l2": res1_l2, "res2_l2": res2_l2,
                     "truncation_sup": float(np.max(np.abs(profiles[0].values)))})
    fits = {}
    if len(rows) >= 3:
        fits = {
            "res1": fit_scaling_exponent([(r["epsilon"], r["res1_l2"]) for r in rows]),
            "res2": fit_scaling_exponent([(r["epsilon"], r["res2_l2"]) for r in rows]),
            "truncation": fit_scaling_exponent([(r["epsilon"], r["truncation_sup"]) for r in rows]),
        }
    return {"rows": rows, "fits": fits, "flags": {}}


# ---------------------------------------------------------------------------
# lattice cells: each window's epsilons, run one at a time against its
# sampled reference
# ---------------------------------------------------------------------------

def _run_cells(spec: ExperimentSpec, measurement, reference) -> list[dict]:
    """The cells of the spec's epsilons, in epsilon order, each a lattice run
    from ``_lattice_start``.  Every window and every start is resolved
    first, so a bad one fails before any KdV or lattice step.  One KdV
    window tau0 samples its reference run (tau, W) = reference(spec, W0,
    tau0) once into a list; each cell of the window then runs alone against
    it and appends record(t, state, W) at every sample, record =
    measurement(spec, W0, eps, N).

    A lattice blow-up ends its own cell; a reference blow-up ends every cell
    of its window at the sample where the list ran out.  Either way a
    flagged cell keeps the records before it.
    """
    W0 = initial_profile(spec)
    windows = [(eps, *_window_for(spec, eps)) for eps in spec.epsilons]
    starts = [_lattice_start(spec, W0, eps) for eps in spec.epsilons]
    cells = []
    # a theorem tau0 is strictly monotone in epsilon, so equal tau0 are adjacent
    for tau0, window in itertools.groupby(zip(windows, starts), key=lambda w: w[0][2]):
        refs, ref_error = [], None
        try:
            refs.extend(W for _, W in reference(spec, W0, tau0))
        except BlowUpError as exc:  # a blow-up goes into the table; bugs propagate
            ref_error = exc
        for (eps, t0, _), (state, params, delta) in window:
            record = measurement(spec, W0, eps, state.N)
            cell = {"epsilon": eps, "t0": t0, "tau0": tau0, "delta": delta,
                    "lattice_steps": _steps_taken(params, t0, spec.n_samples), "records": [],
                    "flags": {"blow_up": False}}
            cells.append(cell)
            error = ref_error  # the cell that outlives the list ends with it
            try:
                # zip pulls the lattice first, so its blow-up wins in the last interval
                for (t, st), W in zip(lattice_samples(state, params, t0, spec.n_samples), refs):
                    cell["records"].append(record(t, st, W))
            except BlowUpError as exc:
                error = exc
            if error is not None:
                cell["flags"].update(blow_up=True, error=f"{type(error).__name__}: {error}")
    return cells


def _by_epsilon(cells) -> dict:
    """The cells' flags and lattice steps, each keyed by epsilon."""
    return {key: {c["epsilon"]: c[key] for c in cells} for key in ("flags", "lattice_steps")}


# ---------------------------------------------------------------------------
# error scan: the cells against one KdV run per window
# ---------------------------------------------------------------------------

def _kdv_reference(spec: ExperimentSpec, W0: FieldProfile, tau0: float):
    return kdv_samples(W0, _kdv_config(spec), tau0, spec.n_samples)


def _error_measurement(spec: ExperimentSpec, W0: FieldProfile, epsilon: float, N: int):
    return lambda t, state, W: error_norms(state, W, epsilon, spec.p, t)


def run_error_scan(spec: ExperimentSpec) -> dict:
    """Sweep epsilons, tracking sup_{|t| <= t0} of the error norms."""
    cells = _run_cells(spec, _error_measurement, _kdv_reference)
    for cell in cells:
        records = cell["records"]
        cell["sup_error"] = max(rec.err_u + rec.err_du for rec in records)
        cell["coercivity_violations"] = sum(0 if rec.coercivity_ok else 1 for rec in records)
    points = [(c["epsilon"], c["sup_error"]) for c in cells]
    fits = {}
    if len(points) >= 3 and all(v > 0.0 for _, v in points):
        fits["sup_error"] = fit_scaling_exponent(points)
    return {"cells": cells, "points": points, "fits": fits, **_by_epsilon(cells)}


# ---------------------------------------------------------------------------
# metastability: the cells against W0 standing still
# ---------------------------------------------------------------------------

def orbital_distance(u: np.ndarray, u_ref: np.ndarray) -> float:
    """min over shifts of |u - u_ref(. - sigma)|, integer shifts refined
    by quadratic interpolation of the squared-distance minimum.

    The FFT correlation only picks the best integer shift i; the squared
    distances at i - 1, i, i + 1 are summed directly, since |u|^2 + |u_ref|^2
    - 2 corr would lose the digits of a small distance to cancellation.
    """
    N = u.shape[0]
    corr = np.fft.irfft(np.fft.rfft(u) * np.conj(np.fft.rfft(u_ref)), n=N)
    i = int(np.argmax(corr))
    ym, y0, yp = (float(np.sum((u - np.roll(u_ref, j)) ** 2)) for j in (i - 1, i, i + 1))
    denom = ym - 2.0 * y0 + yp
    dmin = y0 if denom <= 0.0 else y0 - (yp - ym) ** 2 / (8.0 * denom)
    return float(math.sqrt(max(dmin, 0.0)))


def _still_reference(spec: ExperimentSpec, W0: FieldProfile, tau0: float):
    return itertools.repeat((0.0, W0), spec.n_samples + 1)


def _orbital_measurement(spec: ExperimentSpec, W0: FieldProfile, epsilon: float, N: int):
    (u_ref,) = sample_to_lattice((W0,), epsilon, 0.0, N)
    return lambda t, state, W: {"t": t, "orbital_distance": orbital_distance(state.u, u_ref)}


def run_metastability(spec: ExperimentSpec) -> dict:
    cells = _run_cells(spec, _orbital_measurement, _still_reference)
    for cell in cells:
        dists = [rec["orbital_distance"] for rec in cell["records"]]
        delta = cell["delta"]
        cell["sup_orbital_distance"] = max(dists)
        cell["sup_over_delta"] = max(dists) / delta if delta > 0.0 else float("inf")
        cell["flags"]["growth"] = dists[-1] > 10.0 * max(dists[0], delta)
    return {"cells": cells, **_by_epsilon(cells)}


# ---------------------------------------------------------------------------
# KdV norm growth
# ---------------------------------------------------------------------------

def run_norm_growth(spec: ExperimentSpec) -> dict:
    """Track the H^s norm along one KdV run; fit the growth exponent for p >= 4."""
    cfg = _kdv_config(spec)
    samples = track_norm_growth(initial_profile(spec), cfg, spec.s, spec.tau_end, spec.n_samples)
    norms = [smp.Hs_norm for smp in samples]
    out = {
        "samples": samples,
        "sup_norm": max(norms),
        "resolution_flagged": any(smp.resolution_flag for smp in samples),
    }
    if spec.p >= 4:
        pts = [(smp.tau, smp.Hs_norm) for smp in samples if smp.tau >= 1.0]
        if len(pts) >= 3:
            fit = fit_scaling_exponent(pts)  # log-norm vs log-tau
            out["growth_exponent"] = fit.slope
            out["growth_fit"] = fit
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str, rows) -> None:
    """Write rows, each a dict from column to value, under a header of the
    first row's keys; floats at full precision, booleans as 0/1.  The
    directory must exist (``cli.main`` makes a command's out dir)."""
    rows = list(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([_fmt(v) for v in row.values()] for row in rows)


def write_summary_json(path: str, settings: dict, fits, flags, wall_time_s: float,
                       lattice_steps: dict | None = None) -> None:
    """The run's summary; its spec is ``settings``, what the run read.  A
    lattice run adds ``lattice_steps``: per epsilon, its largest step
    dt_lattice (the rule's, or the --dt override), the step dt it took and
    its number of steps."""
    payload = {
        "spec": settings,
        "fits": [asdict(f) for f in fits],
        "flags": flags,
        "wall_time_s": wall_time_s,
    }
    if lattice_steps is not None:
        payload["lattice_steps"] = lattice_steps
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
