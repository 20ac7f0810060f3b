"""The benchmark's workloads and the correctness gate for each of their ops.

A workload is a list of CLI invocations run in one process.  Each invocation
carries a check that reads the files the CLI wrote into its ``--out-dir`` and
returns one :class:`Op` per unit of work: an epsilon cell of a sweep, one
``kdv`` run, or one ``fpu`` run.  An op fails on a non-zero exit code, a
blow-up or resolution flag, a missing or unreadable output file, or a value
outside its oracle.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 42
REL_TOL = 1.0e-4

# Values the CLI produced at the commit that introduced this benchmark.
REF_SUP_ERROR = {0.2: 1.4469427716941032, 0.1: 0.44778068519379055}
REF_SUP_OVER_DELTA = {0.1: 4.977427938105923, 0.05: 5.086071192161774}  # seed 42 only


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Invocation:
    argv: list
    check: Callable[[str, int], list]  # (out_dir, exit_code) -> [Op]


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _op(name: str, code: int, check, *args) -> Op:
    """Run one op's check; a crash, bad exit code or corrupt file fails the op."""
    if code != 0:
        return Op(name, False, f"exit code {code}")
    try:
        return Op(name, True, check(*args))
    except (CheckFailed, OSError, ValueError, KeyError, IndexError, csv.Error) as exc:
        return Op(name, False, f"{type(exc).__name__}: {exc}")


def read_columns(path: str) -> dict:
    """CSV columns as lists of finite floats; at least two data rows."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) >= 2, f"{path}: {len(rows)} data rows")
    cols = {key: [float(row[key]) for row in rows] for key in rows[0]}
    for key, values in cols.items():
        _require(all(math.isfinite(v) for v in values), f"{path}: non-finite {key}")
    return cols


def _flags(path: str, eps: float) -> dict:
    with open(path) as fh:
        flags = json.load(fh)["flags"][str(eps)]
    _require(flags["blow_up"] is False, f"blow-up flagged: {flags.get('error')}")
    return flags


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


# ---------------------------------------------------------------------------
# coupled_scan: error-scan cells against the seed-commit sup errors
# ---------------------------------------------------------------------------

def _scan_cell(out_dir: str, eps: float, n_samples: int) -> str:
    _flags(os.path.join(out_dir, "error_scan_p2.json"), eps)
    cols = read_columns(os.path.join(out_dir, f"error_scan_p2_eps{eps}.csv"))
    _require(len(cols["t"]) == n_samples + 1, f"{len(cols['t'])} records")
    sup = max(u + du for u, du in zip(cols["err_u"], cols["err_du"]))
    _require(_close(sup, REF_SUP_ERROR[eps]), f"sup_error {sup!r} != {REF_SUP_ERROR[eps]!r}")
    violations = sum(1 for ok in cols["coercivity_ok"] if ok != 1.0)
    _require(violations == 0, f"{violations} coercivity violations")
    return f"sup_error={sup:.6g}"


def _check_coupled_scan(out_dir: str, code: int) -> list:
    return [_op(f"eps={eps}", code, _scan_cell, out_dir, eps, 50) for eps in REF_SUP_ERROR]


def _coupled_scan(seed: int) -> list:
    argv = ["error-scan", "--p", "2", "--eps", "0.2,0.1", "--tau0", "1", "--n-samples", "50"]
    return [Invocation(argv, _check_coupled_scan)]


# ---------------------------------------------------------------------------
# lattice_sweep: metastability cells, acceptance-08 agreement across eps
# ---------------------------------------------------------------------------

def _meta_cell(out_dir: str, eps: float, n_samples: int) -> float:
    _flags(os.path.join(out_dir, "metastability_p2.json"), eps)
    cols = read_columns(os.path.join(out_dir, f"metastability_p2_eps{eps}.csv"))
    _require(len(cols["t"]) == n_samples + 1, f"{len(cols['t'])} samples")
    ratio = max(cols["orbital_distance"]) / eps**1.5
    _require(math.isfinite(ratio), "sup_over_delta is not finite")
    return ratio


def _check_lattice_sweep(seed: int, out_dir: str, code: int) -> list:
    ratios = {}

    def cell(eps):
        ratios[eps] = _meta_cell(out_dir, eps, 50)
        if seed == DEFAULT_SEED:
            ref = REF_SUP_OVER_DELTA[eps]
            _require(_close(ratios[eps], ref), f"sup_over_delta {ratios[eps]!r} != {ref!r}")
        return f"sup_over_delta={ratios[eps]:.6g}"

    ops = [_op(f"eps={eps}", code, cell, eps) for eps in REF_SUP_OVER_DELTA]
    if len(ratios) == 2:
        agree = max(ratios.values()) / min(ratios.values())
        if agree > 2.0:
            ops = [Op(op.name, False, f"eps ratio {agree:.3g} > 2") for op in ops]
    return ops


def _lattice_sweep(seed: int) -> list:
    argv = ["metastability", "--p", "2", "--eps", "0.1,0.05", "--r", "0.1",
            "--n-samples", "50", "--seed", str(seed)]
    return [Invocation(argv, lambda out_dir, code: _check_lattice_sweep(seed, out_dir, code))]


# ---------------------------------------------------------------------------
# kdv_evolution: soliton travelling-wave oracle and p=4 growth exponent
# ---------------------------------------------------------------------------

def _kdv_columns(out_dir: str, p: int, tau_end: float) -> dict:
    cols = read_columns(os.path.join(out_dir, f"kdv_p{p}.csv"))
    _require(not any(cols["resolution_flag"]), "resolution flagged")
    _require(abs(cols["tau"][-1] - tau_end) <= 1.0e-9 * tau_end, f"ended at tau={cols['tau'][-1]}")
    return cols


def _soliton_run(out_dir: str, p: int, tau_end: float) -> str:
    hs = _kdv_columns(out_dir, p, tau_end)["Hs_norm"]
    variation = (max(hs) - min(hs)) / hs[0]
    _require(variation <= 1.0e-4, f"H^s variation {variation:.3g} > 1e-4")
    return f"Hs_variation={variation:.3g}"


def _growth_run(out_dir: str, p: int, tau_end: float) -> str:
    cols = _kdv_columns(out_dir, p, tau_end)
    pts = [(math.log(t), math.log(h)) for t, h in zip(cols["tau"], cols["Hs_norm"]) if t >= 1.0]
    _require(len(pts) >= 3, f"{len(pts)} samples with tau >= 1")
    slope = statistics.linear_regression(*zip(*pts)).slope
    _require(slope <= 1.0, f"growth exponent {slope:.3g} > 1")
    return f"growth_exponent={slope:.4g}"


def _kdv_invocation(check, p: int, tau_end: float, *flags: str) -> Invocation:
    argv = ["kdv", "--p", str(p), "--tau-end", str(tau_end), *flags]
    return Invocation(argv, lambda out_dir, code: [
        _op(f"kdv p={p}", code, check, out_dir, p, tau_end)])


def _kdv_evolution(seed: int) -> list:
    return [
        # soliton cases; the two dtau values are the soliton-oracle step heuristic at tau = 1
        _kdv_invocation(_soliton_run, 5, 1.0, "--c", "1", "--L", "24", "--M", "2048",
                        "--dtau", "1.4513788098693759e-4", "--s", "2"),
        _kdv_invocation(_soliton_run, 3, 1.0, "--c", "2", "--L", "24", "--M", "1024",
                        "--dtau", "2.5654181631605953e-4", "--s", "2"),
        _kdv_invocation(_soliton_run, 2, 1.0, "--c", "1", "--L", "32", "--M", "2048",
                        "--dtau", "2e-4", "--s", "6"),
        _kdv_invocation(_growth_run, 4, 5.0, "--initial-mode", "gaussian", "--amplitude", "0.3",
                        "--L", "32", "--M", "512", "--dtau", "5e-4", "--s", "2",
                        "--n-samples", "50"),
    ]


# ---------------------------------------------------------------------------
# conservation: Strang splitting energy drift (acceptance 06 bound)
# ---------------------------------------------------------------------------

def _conservation_run(out_dir: str, t_end: float) -> str:
    cols = read_columns(os.path.join(out_dir, "fpu_p2_eps0.1.csv"))
    _require(abs(cols["t"][-1] - t_end) <= 1.0e-9 * t_end, f"ended at t={cols['t'][-1]}")
    H = cols["H"]
    _require(H[0] != 0.0, "zero initial energy")
    drift = abs(H[-1] - H[0]) / abs(H[0])
    _require(drift <= 1.0e-8, f"relative H drift {drift:.3g} > 1e-8")
    return f"H_drift={drift:.3g}"


def _conservation(seed: int) -> list:
    argv = ["fpu", "--p", "2", "--eps", "0.1", "--t-end", "2500", "--integrator", "splitting",
            "--n-samples", "50"]
    return [Invocation(argv, lambda out_dir, code: [
        _op("fpu splitting", code, _conservation_run, out_dir, 2500.0)])]


# workload name -> (seed -> [Invocation]); BENCHMARK.json says why each exists
WORKLOADS = {
    "coupled_scan": _coupled_scan,
    "lattice_sweep": _lattice_sweep,
    "kdv_evolution": _kdv_evolution,
    "conservation": _conservation,
}
