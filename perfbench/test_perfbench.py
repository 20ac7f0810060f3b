"""Tests of the benchmark's own logic.  Run: python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from spans import PER_LAYER, Span, layer_metrics, self_times
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _span(i, parent, name, start, end, **work):
    return Span(i, parent, 0, name, start, end, work)


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "a.inner", 2.0, 3.0),
        _span(3, 0, "b", 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 6.0),
        _span(2, 0, "b", 4.0, 8.0),    # overlaps a on [4, 6]
        _span(3, 0, "c", 9.0, 12.0),   # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_per_record_counts_only_calls_inside_error_norms():
    spans = [
        _span(0, None, "diagnostics.error_norms", 0.0, 1.0),
        _span(1, 0, "ansatz.decompose", 0.1, 0.5),
        _span(2, 1, "core.sample_to_lattice", 0.2, 0.3, points=10),
        _span(3, 0, "core.sample_to_lattice", 0.6, 0.7, points=10),
        _span(4, None, "core.sample_to_lattice", 2.0, 2.5, points=10),  # outside any record
    ]
    m = layer_metrics(spans, {}, {"wall_s": 3.0, "cpu_s": 3.0}, 2.0)
    assert m["core.sample_to_lattice.per_record"] == 2.0
    assert m["core.sample_to_lattice.calls"] == 3.0
    assert m["core.sample_to_lattice.points"] == 30.0
    assert m["diagnostics.error_norms.self_s"] == pytest.approx(1.0 - 0.4 - 0.1)
    assert m["trace.overhead_frac"] == pytest.approx(0.5)
    assert set(m) == {name for name, _, _ in PER_LAYER}


def _conservation_check():
    (inv,) = WORKLOADS["conservation"](42)
    return inv.check


def _write_fpu_csv(out_dir, rows):
    with open(os.path.join(out_dir, "fpu_p2_eps0.1.csv"), "w") as fh:
        fh.write("t,H,sum_u,sum_q\n" + "".join(f"{r}\n" for r in rows))


def test_valid_output_passes(tmp_path):
    _write_fpu_csv(tmp_path, ["0,50.0,1,2", "2500,50.0,1,2"])
    (op,) = _conservation_check()(str(tmp_path), 0)
    assert op.ok, op.detail


@pytest.mark.parametrize("rows", [
    ["0,50.0,1,2", "2500,5O.0,1,2"],   # letter O in a number
    ["0,50.0,1,2", "2500,nan,1,2"],
    ["0,50.0,1,2"],                    # truncated
    ["0,50.0,1,2", "2500,51.0,1,2"],   # drift beyond 1e-8
])
def test_corrupted_output_is_a_failed_op(tmp_path, rows):
    _write_fpu_csv(tmp_path, rows)
    (op,) = _conservation_check()(str(tmp_path), 0)
    assert not op.ok


def test_missing_output_and_bad_exit_code_fail(tmp_path):
    (op,) = _conservation_check()(str(tmp_path), 0)
    assert not op.ok
    _write_fpu_csv(tmp_path, ["0,50.0,1,2", "2500,50.0,1,2"])
    (op,) = _conservation_check()(str(tmp_path), 2)
    assert not op.ok and op.detail == "exit code 2"


def test_corrupted_summary_fails_every_scan_cell(tmp_path):
    (inv,) = WORKLOADS["coupled_scan"](42)
    (tmp_path / "error_scan_p2.json").write_text('{"flags": {"0.2": {"blow_')
    ops = inv.check(str(tmp_path), 0)
    assert len(ops) == 2 and not any(op.ok for op in ops)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_install_rebinds_names_imported_into_other_modules():
    code = textwrap.dedent("""
        import sys
        sys.path[:0] = [sys.argv[1], sys.argv[2]]
        from fpukdv import ansatz, core, harness, kdv
        from spans import Tracer
        t = Tracer()
        t.install()
        assert ansatz.sample_to_lattice is core.sample_to_lattice is harness.sample_to_lattice
        W = kdv.soliton_profile(kdv.SolitonSpec(p=2, c=1.0, center=32.0), 64.0, 256)
        ansatz.initial_lattice_data(W, 0.5, 2, 128)
        names = {(s.name, t.spans[s.parent].name if s.parent is not None else None)
                 for s in t.spans}
        assert ("core.sample_to_lattice", "ansatz.initial_lattice_data") in names
        assert ("kernels.fourier_eval", "core.sample_to_lattice") in names
        assert ("ansatz.build_p_epsilon", "ansatz.initial_lattice_data") in names
    """)
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_run_fails_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "conservation", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
