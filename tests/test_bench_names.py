"""The benchmark's tracer finds every persorank function it wraps.

``perfbench/spans.py`` wraps functions by module attribute name. These tests
collect only ``tests/``, so without this check a renamed or deleted function
would pass here and break only a traced benchmark run (``--trace 1``).
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracer = load_spans().Tracer("names")
    try:
        tracer.install()  # a missing name raises AttributeError here
        installed = list(tracer._installed)
        assert installed
        for owner, attr, original in installed:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original, attr
