"""Every package name the benchmark harness looks up still resolves, and its observers run.

`perfbench/spans.py` wraps helm_bench functions by name, and
`perfbench/workloads.py` calls `cli._thread_count`. Deleting or renaming one
of them breaks the traced benchmark run, so the suite checks them here. The
tracer's observers read the results of the calls they watch (a tracker
`Detection`'s `valid` and `score`, a guidance command's mode ...), so the
suite also runs each of them once on a short traced run.
"""

import dataclasses
import importlib.util
from pathlib import Path

from helm_bench import cli, config, io_utils, metrics, sim

ROOT = Path(__file__).resolve().parent.parent
SPANS_PY = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_over_every_named_function():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()  # raises KeyError or AttributeError for a missing name
    finally:
        tracer.uninstall()


def test_observers_run_on_short_traced_runs(tmp_path):
    spans = _load_spans()
    called = set()
    for name, observe in list(spans.OBSERVERS.items()):

        def recording(counts, args, result, _name=name, _observe=observe):
            called.add(_name)
            _observe(counts, args, result)

        spans.OBSERVERS[name] = recording
    emulator = dataclasses.replace(config.load_scenario(ROOT / "scenarios" / "calm_line.ini"), duration=0.5)
    ncc = dataclasses.replace(config.load_scenario(ROOT / "scenarios" / "ncc_standoff.ini"), duration=0.3)
    path = tmp_path / "predictions.txt"
    tracer = spans.Tracer()
    tracer.install()
    try:
        # Through module attributes, as the workloads call them, so the wrappers see the calls.
        logs = [sim.run_scenario(sc) for sc in (emulator, ncc)]
        csv = logs[0].to_csv()
        io_utils.atomic_write_text(path, metrics.format_boxes(logs[1].pred_boxes()))
        pred = metrics.load_boxes(path)
        report = metrics.evaluate_boxes(logs[1].gt_boxes(), pred)
    finally:
        tracer.uninstall()
    # dynamics.saturate is the one observed function the closed loop no longer calls.
    assert called == set(spans.OBSERVERS) - {"dynamics.saturate"}
    counts = tracer.counts()
    assert counts["steps"] == len(logs[0]) + len(logs[1])
    assert sum(v for k, v in counts.items() if k.startswith("mode.")) == counts["steps"]
    assert 0 < counts["ncc.valid"] and 0.0 < counts["ncc.score"]
    assert counts["csv.bytes"] == len(csv)
    assert counts["write.bytes"] == counts["load.bytes"] == path.stat().st_size
    assert counts["eval.frames"] == report.n_frames


def test_workloads_thread_count_exists():
    assert callable(cli._thread_count)
