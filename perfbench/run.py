"""fpukdv benchmark: one workload per call, results as one JSON line.

    python3 perfbench/run.py --workload coupled_scan --seed 42 --seconds 24 --trace 0

Run from the repository root.  Every repetition starts a fresh interpreter
(``perfbench/worker.py``) that imports ``fpukdv`` from ``src/`` and calls
``fpukdv.cli.main`` for each invocation of the workload.  The outputs the CLI
writes are checked op by op (``workloads.py``).

``--trace 0`` runs the workload ``round(seconds / first repetition)`` times
(at least once, at most 10), runs setup-only probes around the repetitions,
and reports the end-to-end metrics as medians: ``wall_s``, ``setup_s`` and
``peak_rss_mb``.
``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer metrics from the traced one (``spans.py``).

The last line of standard output is the result object; the line before it
is the environment block.  Everything the runs write stays under
``.perfbench_out/``; the full record of the last run of each workload is
kept there as ``<workload>.json``, or ``<workload>.trace.json`` plus the
spans in ``<workload>.trace.spans.jsonl`` for a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import PER_LAYER, layer_metrics, load_spans, top_self_times
from workloads import DEFAULT_SEED, WORKLOADS

PROBES_PER_GAP = 3
WORKER_TIMEOUT_S = 170
MAX_REPS = 10
HERE = os.path.dirname(os.path.abspath(__file__))


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, out: str, setup_only=False, trace=False) -> dict:
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    result.update(elapsed_s=elapsed, out=out, stdout=proc.stdout, stderr=proc.stderr)
    return result


def check_rep(workload: str, seed: int, rep: dict) -> list:
    invocations = WORKLOADS[workload](seed)
    ops = []
    for i, (inv, code) in enumerate(zip(invocations, rep["codes"])):
        ops += inv.check(os.path.join(rep["out"], f"inv{i}"), code)
    return ops


def git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    """Run the repetitions; return the metrics and the raw record."""
    record = {"workload": workload, "seed": seed, "trace": trace, "reps": []}
    if trace:
        untraced = run_worker(workload, seed, os.path.join(tmp, "untraced"))
        traced = run_worker(workload, seed, os.path.join(tmp, "traced"), trace=True)
        reps = [untraced, traced]
        spans = load_spans(os.path.join(traced["out"], "spans.jsonl"))
        values = layer_metrics(spans, traced["counters"], traced, untraced["wall_s"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        record["top_self_s"] = top_self_times(spans)
        record["spans_path"] = os.path.join(traced["out"], "spans.jsonl")
    else:
        # Setup probes go before, between and after the repetitions: timings
        # here drift over seconds, so probes made back to back would all
        # sample one moment of the run.
        probes = []

        def add_probes():
            for _ in range(PROBES_PER_GAP):
                out = os.path.join(tmp, f"probe{len(probes)}")
                probes.append(run_worker(workload, seed, out, setup_only=True))

        add_probes()
        reps = [run_worker(workload, seed, os.path.join(tmp, "rep0"))]
        n_reps = max(1, min(MAX_REPS, round(seconds / reps[0]["elapsed_s"])))
        for i in range(1, n_reps):
            add_probes()
            reps.append(run_worker(workload, seed, os.path.join(tmp, f"rep{i}")))
        add_probes()
        setups = [r["setup_s"] for r in probes + reps]
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                            "unit": "MB"},
        }
        record["setup_samples_s"] = setups
    ops = []
    for rep in reps:
        rep_ops = check_rep(workload, seed, rep)
        ops += rep_ops
        if not all(op.ok for op in rep_ops):
            sys.stderr.write(rep["stdout"] + rep["stderr"])
        record["reps"].append({k: rep[k] for k in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb",
                                                     "codes", "counters")}
                              | {"ops": [op.__dict__ for op in rep_ops]})
    record["env"] = reps[0]["env"]
    record["failed_ops"] = [op.name for op in ops if not op.ok]
    return {"metrics": metrics, "ops": ops, "record": record}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="metastability perturbation seed (lattice_sweep)")
    ap.add_argument("--seconds", type=float, default=24.0,
                    help="measuring time; sets the number of untraced repetitions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fpukdv", "__init__.py")):
        print("perfbench: src/fpukdv not found; run from the repository root", file=sys.stderr)
        return 2
    out_root = os.path.join(root, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        try:
            res = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        except (WorkerError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        record = res["record"]
        record["env"]["git_sha"] = git_sha(root)
        stem = os.path.join(out_root, args.workload + (".trace" if args.trace else ""))
        if args.trace:
            shutil.copyfile(record.pop("spans_path"), stem + ".spans.jsonl")
    record["metrics"] = res["metrics"]
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    ops = res["ops"]
    for op in ops:
        print(f"op {op.name}: {'ok' if op.ok else 'FAILED'} {op.detail}")
    for name, self_s in record.get("top_self_s", ()):
        print(f"self {name}: {self_s:.4f} s")
    print("env " + json.dumps(record["env"], sort_keys=True))
    failed = sum(not op.ok for op in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
