"""One benchmark repetition in a fresh interpreter.

Imports ``fpukdv`` from ``src/`` of the current directory, then (unless
``--setup-only``) calls ``fpukdv.cli.main(argv)`` in-process for each
invocation of the workload, each with its own ``--out-dir``.  Writes
``result.json`` (and ``spans.jsonl`` with ``--trace``) into ``--out``.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; Linux's monotonic clock is system-wide, so ``setup_s`` runs from
process start to the moment the workload is ready.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def _env(np, kernels) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "backend": kernels.BACKEND,
        "numba_imports": kernels.numba is not None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        # numpy exposes no BLAS thread count; None means the library default
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import numpy as np

    import fpukdv
    from fpukdv import cli, kdv, kernels

    setup_s = time.monotonic() - args.t0
    if not os.path.abspath(fpukdv.__file__).startswith(src + os.sep):
        print(f"fpukdv imported from {fpukdv.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s, "env": _env(np, kernels)}

    if not args.setup_only:
        from spans import Tracer
        from workloads import WORKLOADS

        invocations = WORKLOADS[args.workload](args.seed)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        codes = []
        cpu0 = time.process_time()
        start = time.perf_counter()
        for i, inv in enumerate(invocations):
            if tracer is not None:
                tracer.run = i
            try:
                code = cli.main(inv.argv + ["--out-dir", os.path.join(args.out, f"inv{i}")])
            except Exception:  # a crashing invocation is a failed op, not a failed benchmark
                traceback.print_exc()
                code = -1
            codes.append(code)
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["codes"] = codes
        cache = kdv._integrator.cache_info()
        result["counters"] = {"integrator_cache_hits": cache.hits,
                              "integrator_cache_misses": cache.misses}
        if tracer is not None:
            tracer.dump(os.path.join(args.out, "spans.jsonl"))

    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
