"""Every layer the traced benchmark wraps must exist in the package.

``perfbench/spans.py`` names its layers as (module, attribute) strings and
rebinds them when a traced run starts; a renamed or deleted function would
only show up there as an AttributeError.  This test resolves each name with
getattr, without installing the tracer; one test then installs it around
a tiny error-scan, fpu and kdv run.
"""

import importlib
import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LAYERS = runpy.run_path(str(SPANS), run_name="perfbench_spans")["LAYERS"]


@pytest.mark.parametrize("name,module,attr", [layer[:3] for layer in LAYERS])
def test_layer_resolves(name, module, attr):
    target = importlib.import_module(f"fpukdv.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), name


TRACED_RUN = """
import json, runpy, sys
from fpukdv import cli, kdv
spans = runpy.run_path(sys.argv[1], run_name="perfbench_spans")
tracer = spans["Tracer"]()
tracer.install()
out = sys.argv[2]
codes = [cli.main(["error-scan", "--eps", "0.2", "--tau0", "0.01", "--n-samples", "2",
                   "--out-dir", out])]


def in_record(span):
    parent = span.parent
    while parent is not None and tracer.spans[parent].name != "diagnostics.error_norms":
        parent = tracer.spans[parent].parent
    return parent is not None


in_records = sorted({s.name for s in tracer.spans if in_record(s)})
codes.append(cli.main(["fpu", "--eps", "0.1", "--t-end", "5", "--n-samples", "2",
                       "--out-dir", out]))
before_kdv = len(tracer.spans)
codes.append(cli.main(["kdv", "--L", "16", "--M", "256", "--dtau", "0.03", "--tau-end", "0.1",
                       "--n-samples", "5", "--s", "2", "--out-dir", out]))
work = [s.work for s in tracer.spans if s.name == "fpu.fpu_integrate"]
kdv_work = [s.work for s in tracer.spans[before_kdv:] if s.name == "kdv.KdvIntegrator.run"]
cache = kdv._integrator.cache_info()
with open(out + "/traced.json", "w") as fh:
    json.dump({"codes": codes, "work": work, "kdv_work": kdv_work,
               "cache": [cache.hits, cache.misses], "in_records": in_records}, fh)
"""


def test_traced_cli_runs(tmp_path):
    # the tracer rebinds package attributes in place, so it runs in a child
    # process and leaves this one untouched
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    subprocess.run([sys.executable, "-c", TRACED_RUN, str(SPANS), str(tmp_path)],
                   env=env, check=True, timeout=300)
    result = json.loads((tmp_path / "traced.json").read_text())
    assert result["codes"] == [0, 0, 0]
    assert len(result["work"]) == 4  # two samples per run
    assert all(w.get("site_steps", 0) > 0 for w in result["work"])
    # kdv: 0.1 / 5 is one step of 0.02 <= dtau per sample
    assert result["kdv_work"] == [{"steps": 1, "mode_steps": 256}] * 5
    hits, misses = result["cache"]
    assert hits >= 4 and misses >= 1  # one lookup per sample interval
    # the record runs the public formula functions, so their spans nest in it
    assert {"diagnostics.residual_snapshot", "ansatz.build_p_epsilon",
            "kdv.time_derivative"} <= set(result["in_records"])
