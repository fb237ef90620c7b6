"""Every package name the benchmark harness looks up still resolves.

`perfbench/spans.py` wraps helm_bench functions by name, and
`perfbench/workloads.py` calls `cli._thread_count`. Deleting or renaming one
of them breaks the traced benchmark run, so the suite checks them here.
"""

import importlib.util
from pathlib import Path

from helm_bench import cli

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_installs_over_every_named_function():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises KeyError or AttributeError for a missing name
    finally:
        tracer.uninstall()


def test_workloads_thread_count_exists():
    assert callable(cli._thread_count)
