"""Command-line interface.

Subcommands: soliton, kdv, fpu, residual-scan, error-scan, metastability,
fit.  Configuration comes from an optional JSON document
(--config) with individual flags overriding it; there is no
environment-variable configuration for experiments.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .core import DT_LATTICE, BlowUpError, ConfigurationError, InvalidInputError, ModelParams
from .fpu import fpu_energy, lattice_samples, traveling_wave_initializer
from .harness import (
    ExperimentSpec,
    error_records_rows,
    ERROR_CSV_HEADER,
    fit_scaling_exponent,
    kdv_samples_rows,
    KDV_CSV_HEADER,
    run_error_scan,
    run_metastability,
    run_norm_growth,
    run_residual_scan,
    write_csv,
    write_summary_json,
)
from .kdv import SolitonSpec, soliton_profile, steady_residual


def _eps_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; flags override its entries")
    sp.add_argument("--out-dir", default="out", help="directory for CSV/JSON outputs")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers per sweep")
    sp.add_argument("--seed", type=int, default=0, help="perturbation generator seed")


def _add_model(sp, eps_default="0.2,0.1,0.05"):
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--eps", type=_eps_list, default=_eps_list(eps_default),
                    help="comma-separated decreasing epsilon list")
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--L", type=float, default=64.0)
    sp.add_argument("--M", type=int, default=1024)
    sp.add_argument("--r", type=float, default=0.25)
    sp.add_argument("--K", type=float, default=1.0)
    sp.add_argument("--tau0", type=float, default=None,
                    help="fixed KdV-time window (otherwise a theorem window)")
    sp.add_argument("--theorem", type=int, choices=(1, 2), default=None)
    sp.add_argument("--n-samples", type=int, default=100)
    sp.add_argument("--dt", type=float, default=DT_LATTICE,
                    help="largest lattice time step of the order-4 splitting")
    sp.add_argument("--dtau", type=float, default=1.0e-3)
    sp.add_argument("--s", type=int, default=6)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fpukdv")
    parser._fpukdv_subparsers = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        parser._fpukdv_subparsers[name] = sp
        return sp

    sp = add_parser("soliton", help="soliton profile and steady-ODE residual")
    _add_common(sp)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--L", type=float, default=32.0)
    sp.add_argument("--M", type=int, default=1024)

    sp = add_parser("kdv", help="run the KdV solver with invariant and H^s norm tracking")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--tau-end", type=float, default=5.0)
    sp.add_argument("--initial-mode", default="soliton", choices=("soliton", "gaussian"))
    sp.add_argument("--amplitude", type=float, default=1.0)

    sp = add_parser("fpu", help="run the FPU lattice with energy tracking")
    _add_common(sp)
    _add_model(sp, eps_default="0.2")
    sp.add_argument("--t-end", type=float, default=100.0)
    sp.add_argument("--integrator", default="splitting", choices=("rk4", "splitting"),
                    help="accepted for compatibility; both values run the one "
                         "order-4 splitting")

    sp = add_parser("residual-scan", help="epsilon sweep of the ansatz residuals")
    _add_common(sp)
    _add_model(sp)

    sp = add_parser("error-scan", help="approximation-error sweep over a time window")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--perturbation-mode", default="none", choices=("none", "random"))
    sp.add_argument("--perturbation-size", type=float, default=None)

    sp = add_parser("metastability", help="orbital-distance tracking over the window")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--perturbation-mode", default="random", choices=("none", "random"))
    sp.add_argument("--perturbation-size", type=float, default=None)

    sp = add_parser("fit", help="log-log scaling fit of (epsilon, value) CSV data")
    _add_common(sp)
    sp.add_argument("--input", required=True, help="CSV with two columns: epsilon,value")

    return parser


def _explicit_dests(argv) -> set:
    """Dests given on the command line: re-parse with every default suppressed."""
    parser = build_parser()
    for sp in parser._fpukdv_subparsers.values():
        for action in sp._actions:
            action.default = argparse.SUPPRESS
    return set(vars(parser.parse_args(argv)))


def _load_config(args: argparse.Namespace, argv) -> None:
    """Merge a JSON config under the explicit flags (flags win)."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {args.config}: {exc}") from exc
    explicit = _explicit_dests(argv)
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigurationError(f"unknown config key {key!r}")
        if attr not in explicit:
            if attr == "eps" and isinstance(value, (list, tuple)):
                value = tuple(float(v) for v in value)
            setattr(args, attr, value)


def _spec_from_args(args, kind: str) -> ExperimentSpec:
    return ExperimentSpec(
        kind=kind,
        p=args.p,
        epsilons=tuple(args.eps),
        r=args.r,
        K=args.K,
        c=args.c,
        L=args.L,
        M=args.M,
        tau0=args.tau0 if args.tau0 is not None else 1.0,
        s=args.s,
        dt_lattice=args.dt,
        dtau_kdv=args.dtau,
        n_samples=args.n_samples,
        perturbation_mode=getattr(args, "perturbation_mode", "none"),
        seed=args.seed,
        perturbation_size=getattr(args, "perturbation_size", None),
        tau_end=getattr(args, "tau_end", 5.0),
        initial_mode=getattr(args, "initial_mode", "soliton"),
        amplitude=getattr(args, "amplitude", 1.0),
    )


def _scan_kind(args) -> str:
    if args.tau0 is not None:
        return "error_scan"
    theorem = args.theorem if args.theorem is not None else 1
    return "theorem1_window" if theorem == 1 else "theorem2_window"


def _cmd_soliton(args) -> int:
    spec = SolitonSpec(p=args.p, c=args.c, center=args.L / 2.0)
    W = soliton_profile(spec, args.L, args.M)
    res = float(np.max(np.abs(steady_residual(W, args.p, args.c))))
    path = f"{args.out_dir}/soliton_p{args.p}_c{args.c}.csv"
    write_csv(path, ["x", "W"], zip(W.grid().tolist(), W.values.tolist()))
    print(f"soliton p={args.p} c={args.c}: peak={spec.amplitude:.6g} "
          f"steady_residual={res:.3e} -> {path}")
    return 0


def _cmd_kdv(args) -> int:
    spec = _spec_from_args(args, "kdv_norm_growth")
    out = run_norm_growth(spec)
    path = f"{args.out_dir}/kdv_p{args.p}.csv"
    write_csv(path, KDV_CSV_HEADER, kdv_samples_rows(out["samples"]))
    extra = (f" growth_exponent={out['growth_exponent']:.3f}"
             if "growth_exponent" in out else "")
    print(f"kdv p={args.p}: sup H^{args.s} norm = {out['sup_norm']:.6g}{extra} "
          f"resolution_flagged={out['resolution_flagged']} -> {path}")
    return 2 if out["resolution_flagged"] else 0


def _cmd_fpu(args) -> int:
    if len(args.eps) != 1:
        raise ConfigurationError(f"fpu runs one epsilon, got {len(args.eps)}: "
                                 f"{','.join(map(str, args.eps))}")
    eps = args.eps[0]
    N = round(args.L / eps)
    state, _ = traveling_wave_initializer(args.p, args.c, eps, args.L, args.M, N)
    params = ModelParams(p=args.p, epsilon=eps, L=args.L, N=N, dt_lattice=args.dt)
    rows = [(t, fpu_energy(st, eps, args.p), float(np.sum(st.u)), float(np.sum(st.q)))
            for t, st in lattice_samples(state, params, args.t_end, args.n_samples)]
    path = f"{args.out_dir}/fpu_p{args.p}_eps{eps}.csv"
    write_csv(path, ["t", "H", "sum_u", "sum_q"], rows)
    h0, hT = rows[0][1], rows[-1][1]
    print(f"fpu p={args.p} eps={eps}: relative H drift = {abs(hT - h0) / abs(h0):.3e} -> {path}")
    return 0


def _cmd_residual_scan(args) -> int:
    t_start = time.perf_counter()
    spec = _spec_from_args(args, "residual_scan")
    out = run_residual_scan(spec)
    path = f"{args.out_dir}/residual_scan_p{args.p}.csv"
    write_csv(path, ["epsilon", "res1_l2", "res2_l2", "truncation_sup"],
              ([r["epsilon"], r["res1_l2"], r["res2_l2"], r["truncation_sup"]]
               for r in out["rows"]))
    fits = out["fits"]
    write_summary_json(f"{args.out_dir}/residual_scan_p{args.p}.json", spec,
                       [fits["res1"], fits["res2"], fits["truncation"]],
                       out["flags"], time.perf_counter() - t_start)
    print(f"residual-scan p={args.p}: slope res1={fits['res1'].slope:.3f} "
          f"res2={fits['res2'].slope:.3f} truncation_sup={fits['truncation'].slope:.3f} -> {path}")
    return 0


def _cmd_error_scan(args) -> int:
    t_start = time.perf_counter()
    spec = _spec_from_args(args, _scan_kind(args))
    out = run_error_scan(spec, jobs=args.jobs)
    for cell in out["cells"]:
        write_csv(f"{args.out_dir}/error_scan_p{args.p}_eps{cell['epsilon']}.csv",
                  ERROR_CSV_HEADER, error_records_rows(cell["records"]))
    fits = list(out["fits"].values())
    write_summary_json(f"{args.out_dir}/error_scan_p{args.p}.json", spec, fits,
                       out["flags"], time.perf_counter() - t_start)
    summary = " ".join(f"eps={c['epsilon']}:sup={c['sup_error']:.4e}" for c in out["cells"])
    slope = f" slope={fits[0].slope:.3f}" if fits else ""
    print(f"error-scan p={args.p}: {summary}{slope}")
    if any(f.get("blow_up") for f in out["flags"].values()):
        return 2
    return 0


def _cmd_metastability(args) -> int:
    t_start = time.perf_counter()
    spec = _spec_from_args(args, "metastability")
    out = run_metastability(spec, jobs=args.jobs)
    for cell in out["cells"]:
        write_csv(f"{args.out_dir}/metastability_p{args.p}_eps{cell['epsilon']}.csv",
                  ["t", "orbital_distance"],
                  ([r["t"], r["orbital_distance"]] for r in cell["rows"]))
    write_summary_json(f"{args.out_dir}/metastability_p{args.p}.json", spec, [],
                       out["flags"], time.perf_counter() - t_start)
    summary = " ".join(
        f"eps={c['epsilon']}:sup/delta={c['sup_over_delta']:.3f}" for c in out["cells"])
    print(f"metastability p={args.p}: {summary}")
    if any(f.get("blow_up") for f in out["flags"].values()):
        return 2
    return 0


def _cmd_fit(args) -> int:
    points = []
    try:
        with open(args.input) as fh:
            for row in fh:
                row = row.strip()
                if not row or row.startswith("#"):
                    continue
                toks = row.split(",")
                try:
                    points.append((float(toks[0]), float(toks[1])))
                except ValueError:
                    continue  # header line
    except OSError as exc:
        raise ConfigurationError(f"cannot read input file {args.input}: {exc}") from exc
    fit = fit_scaling_exponent(points)
    print(f"fit: slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
          f"rms={fit.residual_rms:.3e}")
    return 0


_COMMANDS = {
    "soliton": _cmd_soliton,
    "kdv": _cmd_kdv,
    "fpu": _cmd_fpu,
    "residual-scan": _cmd_residual_scan,
    "error-scan": _cmd_error_scan,
    "metastability": _cmd_metastability,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _load_config(args, argv)
        return _COMMANDS[args.command](args)
    except (InvalidInputError, ConfigurationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
