"""Command-line interface.

Subcommands: soliton, kdv, fpu, residual-scan, error-scan, metastability,
fit.  Each takes only the flags it reads (the _COMMANDS table), so a flag
or config key that a command would ignore is a usage error.  The entries of
an optional JSON document (--config) are parsed as flags, spliced in before
the command line's own, which win; there is no environment-variable
configuration.  A summary JSON records the command and the settings it read.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
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


# Every flag of the CLI: its spelling, which is also its config key (with
# "-" or "_"), and its add_argument keywords.  _COMMANDS picks each
# command's flags from here.
_FLAGS = {
    "config": dict(help="JSON config file; flags override its entries"),
    "out-dir": dict(default="out", help="directory for CSV/JSON outputs"),
    "jobs": dict(type=int, default=1, help="parallel workers per sweep"),
    "seed": dict(type=int, default=0, help="perturbation generator seed"),
    "p": dict(type=int, default=2),
    "eps": dict(type=_eps_list, default=(0.2, 0.1, 0.05),
                help="comma-separated decreasing epsilon list"),
    "c": dict(type=float, default=1.0),
    "L": dict(type=float, default=64.0),
    "M": dict(type=int, default=1024),
    "r": dict(type=float, default=0.25),
    "K": dict(type=float, default=1.0),
    "tau0": dict(type=float, default=None,
                 help="fixed KdV-time window; excludes --theorem"),
    "theorem": dict(type=int, choices=(1, 2), default=None,
                    help="extended window of theorem 1 (the default) or 2"),
    "n-samples": dict(type=int, default=100),
    "dt": dict(type=float, default=DT_LATTICE,
               help="largest lattice time step of the order-4 splitting"),
    "dtau": dict(type=float, default=1.0e-3),
    "s": dict(type=int, default=6),
    "tau-end": dict(type=float, default=5.0),
    "initial-mode": dict(default="soliton", choices=("soliton", "gaussian")),
    "amplitude": dict(type=float, default=1.0),
    "t-end": dict(type=float, default=100.0),
    "integrator": dict(default="splitting", choices=("rk4", "splitting"),
                       help="accepted for compatibility; both values run the one "
                            "order-4 splitting"),
    "perturbation-mode": dict(default="none", choices=("none", "random")),
    "perturbation-size": dict(type=float, default=None),
    "input": dict(help="CSV with two columns: epsilon,value (required)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fpukdv")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, defaults) in _COMMANDS.items():
        # no abbreviations: a dropped --dt must not turn into --dtau
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags.split():
            kwargs = dict(_FLAGS[flag])
            if flag in defaults:
                kwargs["default"] = defaults[flag]
            sp.add_argument(f"--{flag}", **kwargs)
    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config entries as --key=value tokens ("=" lets a value start with "-"):
    "_" in a key becomes "-", a list is comma-joined, null keeps the default."""
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"config file {args.config} is not a JSON object")
    dests = vars(args).keys() - {"command"}
    for key in doc:
        if key.replace("-", "_") not in dests:
            raise ConfigurationError(f"{args.command} takes no config key {key!r}")
    return [f"--{key.replace('_', '-')}={','.join(map(str, v)) if isinstance(v, list) else v}"
            for key, v in doc.items() if v is not None]


# parsed flag -> ExperimentSpec field, where the two names differ
_SPEC_FIELDS = {"eps": "epsilons", "dt": "dt_lattice", "dtau": "dtau_kdv"}


def _spec_from_args(args) -> tuple[ExperimentSpec, dict]:
    """The spec of a command's flags (an unset flag keeps the spec default),
    and what it read: the command and each spec field one of its flags sets."""
    fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
    read = {_SPEC_FIELDS.get(dest, dest): v for dest, v in vars(args).items()}
    read = {k: v for k, v in read.items() if k in fields}
    spec = ExperimentSpec(**{k: v for k, v in read.items() if v is not None})
    return spec, {"command": args.command, **{k: getattr(spec, k) for k in read}}


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
    spec, _ = _spec_from_args(args)
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
    spec, settings = _spec_from_args(args)
    out = run_residual_scan(spec)
    path = f"{args.out_dir}/residual_scan_p{args.p}.csv"
    write_csv(path, ["epsilon", "res1_l2", "res2_l2", "truncation_sup"],
              ([r["epsilon"], r["res1_l2"], r["res2_l2"], r["truncation_sup"]]
               for r in out["rows"]))
    fits = out["fits"]
    write_summary_json(f"{args.out_dir}/residual_scan_p{args.p}.json", settings,
                       [fits["res1"], fits["res2"], fits["truncation"]],
                       out["flags"], time.perf_counter() - t_start)
    print(f"residual-scan p={args.p}: slope res1={fits['res1'].slope:.3f} "
          f"res2={fits['res2'].slope:.3f} truncation_sup={fits['truncation'].slope:.3f} -> {path}")
    return 0


def _cmd_error_scan(args) -> int:
    t_start = time.perf_counter()
    spec, settings = _spec_from_args(args)
    out = run_error_scan(spec, jobs=args.jobs)
    for cell in out["cells"]:
        write_csv(f"{args.out_dir}/error_scan_p{args.p}_eps{cell['epsilon']}.csv",
                  ERROR_CSV_HEADER, error_records_rows(cell["records"]))
    fits = list(out["fits"].values())
    write_summary_json(f"{args.out_dir}/error_scan_p{args.p}.json", settings, fits,
                       out["flags"], time.perf_counter() - t_start)
    summary = " ".join(f"eps={c['epsilon']}:sup={c['sup_error']:.4e}" for c in out["cells"])
    slope = f" slope={fits[0].slope:.3f}" if fits else ""
    print(f"error-scan p={args.p}: {summary}{slope}")
    if any(f.get("blow_up") for f in out["flags"].values()):
        return 2
    return 0


def _cmd_metastability(args) -> int:
    t_start = time.perf_counter()
    spec, settings = _spec_from_args(args)
    out = run_metastability(spec, jobs=args.jobs)
    for cell in out["cells"]:
        write_csv(f"{args.out_dir}/metastability_p{args.p}_eps{cell['epsilon']}.csv",
                  ["t", "orbital_distance"],
                  ([r["t"], r["orbital_distance"]] for r in cell["records"]))
    write_summary_json(f"{args.out_dir}/metastability_p{args.p}.json", settings, [],
                       out["flags"], time.perf_counter() - t_start)
    summary = " ".join(
        f"eps={c['epsilon']}:sup/delta={c['sup_over_delta']:.3f}" for c in out["cells"])
    print(f"metastability p={args.p}: {summary}")
    if any(f.get("blow_up") for f in out["flags"].values()):
        return 2
    return 0


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _cmd_fit(args) -> int:
    if args.input is None:
        raise ConfigurationError("fit needs --input, on the command line or in --config")
    try:
        with open(args.input) as fh:
            rows = [(n, line.strip()) for n, line in enumerate(fh, 1)]
    except OSError as exc:
        raise ConfigurationError(f"cannot read input file {args.input}: {exc}") from exc
    rows = [(n, row) for n, row in rows if row and not row.startswith("#")]
    points = []
    for i, (n, row) in enumerate(rows):
        toks = row.split(",")
        numeric = [_is_number(tok) for tok in toks]
        if i == 0 and not any(numeric):
            continue  # header line
        if len(toks) != 2 or not all(numeric):
            raise ConfigurationError(
                f"{args.input} line {n}: expected two numbers epsilon,value, got {row!r}")
        points.append((float(toks[0]), float(toks[1])))
    fit = fit_scaling_exponent(points)
    print(f"fit: slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
          f"rms={fit.residual_rms:.3e}")
    return 0


# command -> (runner, help, the flags it reads, its defaults that differ
# from _FLAGS).  A flag, or config key, that a command does not list is an
# error.
_COMMANDS = {
    "soliton": (_cmd_soliton, "soliton profile and steady-ODE residual",
                "config out-dir p c L M", {"L": 32.0}),
    "kdv": (_cmd_kdv, "run the KdV solver with invariant and H^s norm tracking",
            "config out-dir p c L M n-samples dtau s tau-end initial-mode amplitude", {}),
    "fpu": (_cmd_fpu, "run the FPU lattice with energy tracking",
            "config out-dir p eps c L M n-samples dt t-end integrator", {"eps": (0.2,)}),
    "residual-scan": (_cmd_residual_scan, "epsilon sweep of the ansatz residuals",
                      "config out-dir p eps c L M", {}),
    "error-scan": (_cmd_error_scan, "approximation-error sweep over a time window",
                   "config out-dir jobs seed p eps c L M r K tau0 theorem n-samples dt dtau "
                   "perturbation-mode perturbation-size", {}),
    "metastability": (_cmd_metastability, "orbital-distance tracking over the window",
                      "config out-dir jobs seed p eps c L M r K n-samples dt "
                      "perturbation-mode perturbation-size", {"perturbation-mode": "random"}),
    "fit": (_cmd_fit, "log-log scaling fit of (epsilon, value) CSV data", "config input", {}),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # after the command name, so the last value, a command-line flag's, wins
            i = argv.index(args.command) + 1
            args = parser.parse_args(argv[:i] + _config_flags(args) + argv[i:])
        return _COMMANDS[args.command][0](args)
    except SystemExit as exc:  # argparse has printed the help or a usage error
        return 1 if exc.code not in (0, None) else 0
    except (InvalidInputError, ConfigurationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
