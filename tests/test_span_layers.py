"""Every layer the traced benchmark wraps must exist in the package.

``perfbench/spans.py`` names its layers as (module, attribute) strings and
rebinds them when a traced run starts; a renamed or deleted function would
only show up there as an AttributeError.  This test resolves each name with
getattr, without installing the tracer.
"""

import importlib
import pathlib
import runpy

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LAYERS = runpy.run_path(str(SPANS), run_name="perfbench_spans")["LAYERS"]


@pytest.mark.parametrize("name,module,attr", [layer[:3] for layer in LAYERS])
def test_layer_resolves(name, module, attr):
    target = importlib.import_module(f"fpukdv.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), name
