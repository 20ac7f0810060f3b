"""Experiment orchestration: epsilon sweeps, theorem time windows,
scaling-exponent fits, metastability runs and persistence.

Sweeps are embarrassingly parallel (one worker per epsilon cell, shared
nothing); results are aggregated ordered by epsilon, so serial and
concurrent execution produce identical output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .ansatz import build_p_epsilon, initial_lattice_data, seeded_perturbation
from .core import (
    DT_LATTICE,
    BlowUpError,
    ConfigurationError,
    ErrorRecord,
    FieldProfile,
    InvalidInputError,
    LatticeState,
    ModelParams,
    l2_norm,
    sample_to_lattice,
    sobolev_norm,
)
from .diagnostics import error_norms, residual_profiles
from .fpu import FpuRunConfig, fpu_integrate
from .kdv import (
    KdvRunConfig,
    SolitonSpec,
    kdv_integrate,
    soliton_profile,
    track_norm_growth,
)

EXPERIMENT_KINDS = (
    "residual_scan",
    "error_scan",
    "theorem1_window",
    "theorem2_window",
    "metastability",
    "kdv_norm_growth",
)


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    p: int = 2
    epsilons: tuple = (0.2, 0.1, 0.05)
    r: float = 0.25
    K: float = 1.0
    c: float = 1.0
    L: float = 64.0
    M: int = 1024
    tau0: float = 1.0
    s: int = 6
    dt_lattice: float = DT_LATTICE
    dtau_kdv: float = 1.0e-3
    n_samples: int = 100
    perturbation_mode: str = "none"  # "none" or "random"
    seed: int = 0
    perturbation_size: float | None = None
    tau_end: float = 5.0
    initial_mode: str = "soliton"  # "soliton" or "gaussian"
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidInputError(f"unknown experiment kind {self.kind!r}")
        if not 0.0 < self.r < 0.5:
            raise InvalidInputError(f"r must be in (0, 1/2), got {self.r}")
        if self.K <= 0.0:
            raise InvalidInputError("K must be positive")
        eps = tuple(self.epsilons)
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise InvalidInputError("epsilon list must be strictly decreasing")
        if self.perturbation_mode not in ("none", "random"):
            raise InvalidInputError(f"unknown perturbation mode {self.perturbation_mode!r}")
        object.__setattr__(self, "epsilons", eps)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual_rms: float
    points: tuple

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual_rms": self.residual_rms,
            "points": [list(pt) for pt in self.points],
        }


def fit_scaling_exponent(points) -> FitResult:
    """OLS of log(value) against log(epsilon)."""
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < 3:
        raise InvalidInputError("need at least 3 points for a reported slope")
    if any(v <= 0.0 or e <= 0.0 for e, v in pts):
        raise InvalidInputError("scaling fit requires positive epsilons and values")
    x = np.log([e for e, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        points=tuple(zip(x.tolist(), y.tolist())),
    )


def pairwise_exponent(point_a, point_b) -> float:
    """Exponent implied by two (epsilon, value) points."""
    (e1, v1), (e2, v2) = point_a, point_b
    return float(math.log(v2 / v1) / math.log(e2 / e1))


def time_window(epsilon: float, r: float, K: float, p: int, theorem: int) -> tuple[float, float]:
    """(t0, tau0) of the extended justification windows.

    Theorem 1: t0 = r K^-1 eps^-3 |log eps|;
    Theorem 2: t0 = (2 p K)^-1 eps^-3 log(r |log eps|), needs r|log eps| > 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must be in (0, 1), got {epsilon}")
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


def _initial_profile(spec: ExperimentSpec) -> FieldProfile:
    if spec.initial_mode == "soliton":
        return soliton_profile(SolitonSpec(p=spec.p, c=spec.c, center=spec.L / 2.0), spec.L, spec.M)
    if spec.initial_mode == "gaussian":
        x = np.arange(spec.M) * (spec.L / spec.M)
        vals = spec.amplitude * np.exp(-((x - spec.L / 2.0) ** 2))
        return FieldProfile.from_values(vals, spec.L, 0.0)
    raise InvalidInputError(f"unknown initial mode {spec.initial_mode!r}")


def _lattice_size(spec: ExperimentSpec, epsilon: float) -> int:
    N = round(spec.L / epsilon)
    if abs(N * epsilon - spec.L) > 1.0e-9 * spec.L:
        raise ConfigurationError(f"L/epsilon = {spec.L / epsilon} is not an integer site count")
    return N

def _window_for(spec: ExperimentSpec, epsilon: float) -> tuple[float, float]:
    if spec.kind == "theorem1_window" or (spec.kind == "metastability"):
        return time_window(epsilon, spec.r, spec.K, spec.p, 1)
    if spec.kind == "theorem2_window":
        return time_window(epsilon, spec.r, spec.K, spec.p, 2)
    # plain KdV-time window
    return spec.tau0 * epsilon**-3, spec.tau0


# ---------------------------------------------------------------------------
# residual scan
# ---------------------------------------------------------------------------

def run_residual_scan(spec: ExperimentSpec) -> dict:
    """Residual l2 norms at t = 0 for each epsilon, plus slope fits.

    Res1 is the defect of the truncated first lattice equation, so one
    profile gives both its lattice l2 norm and its grid sup (truncation_sup).
    """
    W0 = _initial_profile(spec)
    rows = []
    for eps in spec.epsilons:
        N = _lattice_size(spec, eps)
        res1, res2 = residual_profiles(W0, build_p_epsilon(W0, eps, spec.p), eps, spec.p)
        rows.append({"epsilon": eps,
                     "res1_l2": l2_norm(sample_to_lattice(res1, eps, 0.0, N)),
                     "res2_l2": l2_norm(sample_to_lattice(res2, eps, 0.0, N)),
                     "truncation_sup": float(np.max(np.abs(res1.values)))})
    fits = {
        "res1": fit_scaling_exponent([(r["epsilon"], r["res1_l2"]) for r in rows]),
        "res2": fit_scaling_exponent([(r["epsilon"], r["res2_l2"]) for r in rows]),
        "truncation": fit_scaling_exponent([(r["epsilon"], r["truncation_sup"]) for r in rows]),
    }
    return {"rows": rows, "fits": fits, "flags": {}}


# ---------------------------------------------------------------------------
# error scan (KdV-time window or theorem windows)
# ---------------------------------------------------------------------------

def _align_steps(total: float, target: float) -> tuple[int, float]:
    """Split ``total`` into n equal steps of size <= target."""
    n = max(1, math.ceil(total / target - 1.0e-12))
    return n, total / n


def _error_scan_cell(spec: ExperimentSpec, epsilon: float) -> dict:
    """One epsilon cell: co-integrate FPU and KdV, record error diagnostics."""
    N = _lattice_size(spec, epsilon)
    t0, tau0 = _window_for(spec, epsilon)
    W0 = _initial_profile(spec)

    perturbation = None
    if spec.perturbation_mode == "random":
        size = spec.perturbation_size if spec.perturbation_size is not None else epsilon**1.5
        perturbation = seeded_perturbation(N, size, spec.seed)
    state, achieved = initial_lattice_data(W0, epsilon, spec.p, N, perturbation)

    dt_diag = t0 / spec.n_samples
    _, dt = _align_steps(dt_diag, spec.dt_lattice)
    dtau_diag = tau0 / spec.n_samples
    n_kdv, dtau = _align_steps(dtau_diag, spec.dtau_kdv)

    params = ModelParams(p=spec.p, epsilon=epsilon, L=spec.L, N=N, dt_lattice=dt)
    kcfg = KdvRunConfig(p=spec.p, L=spec.L, M=spec.M, dtau=dtau, tau_end=tau0)
    fcfg = FpuRunConfig(params=params, t_end=dt_diag)

    W = W0
    records: list[ErrorRecord] = [error_norms(state, W, epsilon, spec.p, 0.0)]
    hs_sup = sobolev_norm(W0, spec.s)
    flags = {"blow_up": False}
    try:
        for i in range(spec.n_samples):
            state = fpu_integrate(state, fcfg)
            state = LatticeState(u=state.u, q=state.q, t=(i + 1) * dt_diag)
            W = kdv_integrate(W, kcfg, n_kdv)
            hs_sup = max(hs_sup, sobolev_norm(W, spec.s))
            records.append(error_norms(state, W, epsilon, spec.p, state.t))
    except BlowUpError as exc:  # a blow-up goes into the table; bugs propagate
        flags["blow_up"] = True
        flags["error"] = f"{type(exc).__name__}: {exc}"

    sup_error = max(rec.err_u + rec.err_du for rec in records)
    return {
        "epsilon": epsilon,
        "t0": t0,
        "tau0": tau0,
        "sup_error": sup_error,
        "initial": achieved,
        "hs_sup": hs_sup,
        "records": records,
        "flags": flags,
        "coercivity_violations": sum(0 if rec.coercivity_ok else 1 for rec in records),
    }


def run_error_scan(spec: ExperimentSpec, jobs: int = 1) -> dict:
    """Sweep epsilons, tracking sup_{|t| <= t0} of the error norms."""
    cells = _run_cells(_error_scan_cell, spec, jobs)
    points = [(c["epsilon"], c["sup_error"]) for c in cells]
    fits = {}
    if len(points) >= 3 and all(v > 0.0 for _, v in points):
        fits["sup_error"] = fit_scaling_exponent(points)
    return {"cells": cells, "points": points, "fits": fits,
            "flags": {c["epsilon"]: c["flags"] for c in cells}}


# ---------------------------------------------------------------------------
# metastability
# ---------------------------------------------------------------------------

def orbital_distance(u: np.ndarray, u_ref: np.ndarray) -> float:
    """min over shifts of |u - u_ref(. - sigma)|, integer shifts refined
    by quadratic interpolation of the squared-distance minimum."""
    uh = np.fft.rfft(u)
    rh = np.fft.rfft(u_ref)
    corr = np.fft.irfft(uh * np.conj(rh), n=u.shape[0])
    d2 = np.dot(u, u) + np.dot(u_ref, u_ref) - 2.0 * corr
    i = int(np.argmin(d2))
    ym = d2[i - 1]
    y0 = d2[i]
    yp = d2[(i + 1) % d2.shape[0]]
    denom = ym - 2.0 * y0 + yp
    dmin = y0 if denom <= 0.0 else y0 - (yp - ym) ** 2 / (8.0 * denom)
    return float(math.sqrt(max(dmin, 0.0)))


def _metastability_cell(spec: ExperimentSpec, epsilon: float) -> dict:
    N = _lattice_size(spec, epsilon)
    t0, tau0 = time_window(epsilon, spec.r, spec.K, spec.p, 1)
    W0 = _initial_profile(spec)
    u_ref = sample_to_lattice(W0, epsilon, 0.0, N)

    delta = spec.perturbation_size if spec.perturbation_size is not None else epsilon**1.5
    perturbation = None
    if spec.perturbation_mode == "random" and delta > 0.0:
        perturbation = seeded_perturbation(N, delta, spec.seed)
    state, _ = initial_lattice_data(W0, epsilon, spec.p, N, perturbation)

    dt_diag = t0 / spec.n_samples
    _, dt = _align_steps(dt_diag, spec.dt_lattice)
    params = ModelParams(p=spec.p, epsilon=epsilon, L=spec.L, N=N, dt_lattice=dt)
    fcfg = FpuRunConfig(params=params, t_end=dt_diag)

    rows = [{"t": 0.0, "orbital_distance": orbital_distance(state.u, u_ref)}]
    flags = {"blow_up": False, "growth": False}
    try:
        for i in range(spec.n_samples):
            state = fpu_integrate(state, fcfg)
            state = LatticeState(u=state.u, q=state.q, t=(i + 1) * dt_diag)
            rows.append({"t": state.t, "orbital_distance": orbital_distance(state.u, u_ref)})
    except BlowUpError as exc:
        flags["blow_up"] = True
        flags["error"] = f"{type(exc).__name__}: {exc}"

    sup_dist = max(r["orbital_distance"] for r in rows)
    if rows[-1]["orbital_distance"] > 10.0 * max(rows[0]["orbital_distance"], delta):
        flags["growth"] = True
    return {
        "epsilon": epsilon,
        "t0": t0,
        "tau0": tau0,
        "delta": delta,
        "sup_orbital_distance": sup_dist,
        "sup_over_delta": sup_dist / delta if delta > 0.0 else float("inf"),
        "rows": rows,
        "flags": flags,
    }


def run_metastability(spec: ExperimentSpec, jobs: int = 1) -> dict:
    cells = _run_cells(_metastability_cell, spec, jobs)
    return {"cells": cells, "flags": {c["epsilon"]: c["flags"] for c in cells}}


# ---------------------------------------------------------------------------
# KdV norm growth
# ---------------------------------------------------------------------------

def run_norm_growth(spec: ExperimentSpec) -> dict:
    """Track the H^s norm along one KdV run; fit the growth exponent for p >= 4."""
    W0 = _initial_profile(spec)
    cfg = KdvRunConfig(p=spec.p, L=spec.L, M=spec.M, dtau=spec.dtau_kdv, tau_end=spec.tau_end)
    samples = track_norm_growth(W0, cfg, spec.s, n_samples=spec.n_samples)
    norms = [smp.hs_norm for smp in samples]
    out = {
        "samples": samples,
        "sup_norm": max(norms),
        "resolution_flagged": any(smp.resolution_flag for smp in samples),
    }
    if spec.p >= 4:
        pts = [(smp.tau, smp.hs_norm) for smp in samples if smp.tau >= 1.0]
        if len(pts) >= 3:
            fit = fit_scaling_exponent(pts)  # log-norm vs log-tau
            out["growth_exponent"] = fit.slope
            out["growth_fit"] = fit
    return out


# ---------------------------------------------------------------------------
# sweep execution and persistence
# ---------------------------------------------------------------------------

def _run_cells(cell_fn, spec: ExperimentSpec, jobs: int) -> list[dict]:
    if jobs <= 1 or len(spec.epsilons) == 1:
        return [cell_fn(spec, eps) for eps in spec.epsilons]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(cell_fn, spec, eps) for eps in spec.epsilons]
        return [f.result() for f in futures]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


ERROR_CSV_HEADER = ["t", "err_u", "err_du", "E", "res1_l2", "res2_l2", "H", "coercivity_ok"]


def error_records_rows(records: list[ErrorRecord]):
    for rec in records:
        yield [rec.t, rec.err_u, rec.err_du, rec.energy_quantity,
               rec.res1_norm, rec.res2_norm, rec.H_lattice, rec.coercivity_ok]


KDV_CSV_HEADER = ["tau", "mass", "momentum", "energy", "Hs_norm", "sup_norm", "resolution_flag"]


def kdv_samples_rows(samples):
    for smp in samples:
        yield [smp.tau, smp.mass, smp.momentum, smp.energy,
               smp.hs_norm, smp.sup_norm, smp.resolution_flag]


def write_summary_json(path: str, spec: ExperimentSpec, fits, flags, wall_time_s: float) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    payload = {
        "spec": asdict(spec),
        "fits": [f.to_dict() for f in fits],
        "flags": flags,
        "wall_time_s": wall_time_s,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
