"""Command-line interface.

Subcommands: soliton, kdv, fpu, residual-scan, error-scan, metastability,
fit.  Each takes only the flags it reads (the _COMMANDS table), so a flag
or config key that a command would ignore is a usage error.  The entries of
an optional JSON document (--config) are parsed as flags, spliced in before
the command line's own, which win; there is no environment-variable
configuration.  A command reads its settings from the ExperimentSpec of its
flags, hands the spec to a harness runner, which alone turns it into solver
inputs, and returns an Outcome; main alone writes its CSVs and (but for fit)
a summary JSON of the command, the settings it read, fits and wall time,
and for fpu, error-scan and metastability the lattice steps of each epsilon.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
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
from typing import NamedTuple

import numpy as np

from .core import BlowUpError, ConfigurationError, InvalidInputError
from .harness import (
    ExperimentSpec,
    fit_scaling_exponent,
    initial_profile,
    run_error_scan,
    run_fpu,
    run_metastability,
    run_norm_growth,
    run_residual_scan,
    write_csv,
    write_summary_json,
)
from .kdv import steady_residual


def _eps_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


# Every flag of the CLI: its spelling, which is also its config key (with
# "-" or "_"), and its add_argument keywords; a flag of an ExperimentSpec
# field has no default (unset, it is None).  _COMMANDS picks from here.
_FLAGS = {
    "config": dict(help="JSON config file; flags override its entries"),
    "out-dir": dict(default="out", help="directory for CSV/JSON outputs"),
    "seed": dict(type=int, help="perturbation generator seed"),
    "p": dict(type=int),
    "eps": dict(type=_eps_list, help="comma-separated decreasing epsilon list"),
    "c": dict(type=float),
    "L": dict(type=float),
    "M": dict(type=int),
    "r": dict(type=float),
    "K": dict(type=float),
    "tau0": dict(type=float, help="fixed KdV-time window; excludes --theorem"),
    "theorem": dict(type=int, choices=(1, 2),
                    help="extended window of theorem 1 (the default) or 2"),
    "n-samples": dict(type=int),
    "dt": dict(type=float, help="largest lattice time step at every epsilon; overrides "
                                "the rule 0.1/(eps (p-1) sqrt(c))"),
    "dtau": dict(type=float),
    "s": dict(type=int),
    "tau-end": dict(type=float),
    "initial-mode": dict(choices=("soliton", "gaussian")),
    "amplitude": dict(type=float),
    "t-end": dict(type=float),
    "integrator": dict(default="splitting", choices=("rk4", "splitting"),
                       help="accepted for compatibility; both values run the one "
                            "order-4 splitting"),
    "perturbation-mode": dict(choices=("none", "random")),
    "perturbation-size": dict(type=float),
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
    dests = vars(args).keys() - {"command", "config"}
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


class Outcome(NamedTuple):
    """A command's tables (CSV path -> rows of column -> value), the path
    stem of its summary JSON (None: none), the summary's fits and flags, the
    report line, the exit code and, for a lattice command, the summary's
    steps taken per epsilon."""

    tables: dict
    stem: str | None
    fits: list
    flags: dict
    line: str
    code: int = 0
    lattice_steps: dict | None = None


def _cmd_soliton(spec: ExperimentSpec, args) -> Outcome:
    W = initial_profile(spec)
    res = float(np.max(np.abs(steady_residual(W, spec.p, spec.c))))
    stem = f"{args.out_dir}/soliton_p{spec.p}_c{spec.c}"
    rows = [{"x": x, "W": w} for x, w in zip(W.grid().tolist(), W.values.tolist())]
    return Outcome({f"{stem}.csv": rows}, stem, [], {},
                   f"soliton p={spec.p} c={spec.c}: peak={W.values.max():.6g} "
                   f"steady_residual={res:.3e} -> {stem}.csv")


def _cmd_kdv(spec: ExperimentSpec, args) -> Outcome:
    out = run_norm_growth(spec)
    stem = f"{args.out_dir}/kdv_p{spec.p}"
    extra = (f" growth_exponent={out['growth_exponent']:.3f}"
             if "growth_exponent" in out else "")
    flagged = out["resolution_flagged"]
    return Outcome({f"{stem}.csv": map(dataclasses.asdict, out["samples"])}, stem,
                   [out["growth_fit"]] if "growth_fit" in out else [],
                   {"resolution_flagged": flagged},
                   f"kdv p={spec.p}: sup H^{spec.s} norm = {out['sup_norm']:.6g}{extra} "
                   f"resolution_flagged={flagged} -> {stem}.csv", 2 if flagged else 0)


def _cmd_fpu(spec: ExperimentSpec, args) -> Outcome:
    out, eps = run_fpu(spec), spec.epsilons[0]
    rows = out["rows"]
    stem = f"{args.out_dir}/fpu_p{spec.p}_eps{eps}"
    h0, hT = rows[0]["H"], rows[-1]["H"]
    drift = abs(hT - h0) / abs(h0) if h0 != 0.0 else math.nan  # an underflowed wave
    return Outcome({f"{stem}.csv": rows}, stem, [], {},
                   f"fpu p={spec.p} eps={eps}: relative H drift = {drift:.3e} -> {stem}.csv",
                   lattice_steps=out["lattice_steps"])


def _cmd_residual_scan(spec: ExperimentSpec, args) -> Outcome:
    out = run_residual_scan(spec)
    stem = f"{args.out_dir}/residual_scan_p{spec.p}"
    fits = out["fits"]
    slopes = (f"slope res1={fits['res1'].slope:.3f} res2={fits['res2'].slope:.3f} "
              f"truncation_sup={fits['truncation'].slope:.3f}" if fits else "no fit")
    return Outcome({f"{stem}.csv": out["rows"]}, stem, list(fits.values()), out["flags"],
                   f"residual-scan p={spec.p}: {slopes} -> {stem}.csv")


def _blow_up_code(flags: dict) -> int:
    return 2 if any(f.get("blow_up") for f in flags.values()) else 0


def _cmd_error_scan(spec: ExperimentSpec, args) -> Outcome:
    out = run_error_scan(spec)
    stem = f"{args.out_dir}/error_scan_p{spec.p}"
    fits = list(out["fits"].values())
    summary = " ".join(f"eps={c['epsilon']}:sup={c['sup_error']:.4e}" for c in out["cells"])
    slope = f" slope={fits[0].slope:.3f}" if fits else ""
    return Outcome({f"{stem}_eps{c['epsilon']}.csv": map(dataclasses.asdict, c["records"])
                    for c in out["cells"]}, stem, fits, out["flags"],
                   f"error-scan p={spec.p}: {summary}{slope}", _blow_up_code(out["flags"]),
                   out["lattice_steps"])


def _cmd_metastability(spec: ExperimentSpec, args) -> Outcome:
    out = run_metastability(spec)
    stem = f"{args.out_dir}/metastability_p{spec.p}"
    summary = " ".join(
        f"eps={c['epsilon']}:sup/delta={c['sup_over_delta']:.3f}" for c in out["cells"])
    return Outcome({f"{stem}_eps{c['epsilon']}.csv": c["records"] for c in out["cells"]},
                   stem, [], out["flags"], f"metastability p={spec.p}: {summary}",
                   _blow_up_code(out["flags"]), out["lattice_steps"])


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _cmd_fit(spec: ExperimentSpec, args) -> Outcome:
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
    return Outcome({}, None, [], {}, f"fit: slope={fit.slope:.6g} "
                   f"intercept={fit.intercept:.6g} rms={fit.residual_rms:.3e}")


# command -> (runner, help, the flags it reads, its defaults that differ
# from ExperimentSpec's).  A flag, or config key, that a command does not
# list is an error.
_COMMANDS = {
    "soliton": (_cmd_soliton, "soliton profile and steady-ODE residual",
                "config out-dir p c L M", {"L": 32.0}),
    "kdv": (_cmd_kdv, "run the KdV solver with invariant and H^s norm tracking",
            "config out-dir p c L M n-samples dtau s tau-end initial-mode amplitude",
            {"M": 2048}),
    "fpu": (_cmd_fpu, "run the FPU lattice with energy tracking",
            "config out-dir p eps c L M n-samples dt t-end integrator", {"eps": (0.2,)}),
    "residual-scan": (_cmd_residual_scan, "epsilon sweep of the ansatz residuals",
                      "config out-dir p eps c L M", {}),
    "error-scan": (_cmd_error_scan, "approximation-error sweep over a time window",
                   "config out-dir seed p eps c L M r K tau0 theorem n-samples dt dtau "
                   "perturbation-mode perturbation-size", {}),
    "metastability": (_cmd_metastability, "orbital-distance tracking over the window",
                      "config out-dir seed p eps c L M r K n-samples dt "
                      "perturbation-mode perturbation-size", {"perturbation-mode": "random"}),
    "fit": (_cmd_fit, "log-log scaling fit of (epsilon, value) CSV data", "config input", {}),
}


@contextlib.contextmanager
def _output_errors():
    """An OSError while making the out dir or writing into it is a
    configuration error (a bad --out-dir), not a traceback."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"cannot write output: {exc}") from exc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # after the command name, so the last value, a command-line flag's, wins
            i = argv.index(args.command) + 1
            args = parser.parse_args(argv[:i] + _config_flags(args) + argv[i:])
        t_start = time.perf_counter()
        spec, settings = _spec_from_args(args)
        if "out_dir" in args:  # fit writes nothing
            with _output_errors():
                os.makedirs(args.out_dir, exist_ok=True)
        out = _COMMANDS[args.command][0](spec, args)
        with _output_errors():
            for path, rows in out.tables.items():
                write_csv(path, rows)
            if out.stem is not None:
                write_summary_json(f"{out.stem}.json", settings, out.fits, out.flags,
                                   time.perf_counter() - t_start, out.lattice_steps)
        print(out.line)
        return out.code
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
