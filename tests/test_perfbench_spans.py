"""The traced benchmark run wraps ampgraph callables by name; every name
it lists must still resolve, or a per-layer metric would read 0 unnoticed."""

import importlib.util
import pathlib

import ampgraph

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load_spans()
    recorder = spans.Recorder()
    with recorder.installed():
        wrapped = ampgraph.algebra.CKElement.__mul__
    assert recorder.missing == []
    # the product counter was installed, and put back afterwards
    assert wrapped is not ampgraph.algebra.CKElement.__mul__
    assert len(spans.TARGETS) > 20
