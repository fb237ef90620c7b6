"""helm-bench benchmark: three closed-loop workloads, their end-to-end metrics,
output checks, and a traced per-layer breakdown.

    python3 perfbench/run.py --workload emulator_loop --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table each
    python3 perfbench/run.py --check             # untimed output checks only

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: BENCHMARK.json's end_to_end metrics, or its
per_layer metrics with --trace 1. Exit code 0 when every check passes, 1
when one fails, 2 when the benchmark cannot run in this directory. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("emulator_loop", "ncc_loop", "evaluate")
SETUP_PROBES = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def import_program():
    """Put the checkout's src/ first on the path and compile it once."""
    for needed in (SRC / "helm_bench" / "__init__.py", ROOT / "scenarios", ROOT / "tests" / "test_acceptance.py"):
        if not needed.exists():
            raise BenchError(f"{needed} is missing: run from a helm-bench checkout")
    # Compiling first keeps every set-up probe on warm bytecode.
    import compileall

    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance() -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def probe_setup(workload) -> float:
    """Set-up time of one fresh process (see setup_probe.py)."""
    paths = [str(workload.scenario_path(name)) for name in workload.scenarios]
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *paths]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-800:]}")
    return float(done.stdout.split()[-1])


class Tally:
    """Operation timings, work done and failures of one phase of a run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.items = 0
        self.aucs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.by_op: dict[str, tuple[list[float], int]] = {}  # op label -> (times, items per repeat)

    def add(self, label: str, elapsed: float, items: int, auc: float) -> None:
        self.times.append(elapsed)
        self.items += items
        if auc is not None:
            self.aucs.append(auc)
        self.by_op.setdefault(label, ([], items))[0].append(elapsed)

    def rate(self) -> float:
        """Work per second over all operations, as measured."""
        return self.items / sum(self.times)

    def median_rate(self) -> float:
        """Work per second of one cycle made of each operation's median repeat.

        Other tenants of a shared machine slow stretches of a run by up to
        ~1.8x. A mean over all operations follows the slowest stretches;
        a median over many short repeats does not.
        """
        work = sum(items for _, items in self.by_op.values())
        return work / sum(statistics.median(times) for times, _ in self.by_op.values())


def run_cycles(workload, seconds: float, min_cycles: int, tally: Tally, first_op: int = 1, tracer=None) -> None:
    """Closed loop: whole cycles over the workload's operations until `seconds` pass."""
    start = perf_counter()
    cycles = 0
    while cycles < min_cycles or perf_counter() - start < seconds:
        for op in workload.ops:
            tally.attempted += 1
            try:
                t0 = perf_counter()
                if tracer is None:
                    result = workload.execute(op)
                else:
                    result = tracer.call(first_op + tally.attempted, workload.execute, op)
                elapsed = perf_counter() - t0
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    outcome = workload.verify(op, result)
            except Exception as exc:
                tally.failed += 1
                tally.problems.append(f"{op.label}: {''.join(traceback.format_exception_only(exc)).strip()}")
                continue
            tally.add(op.label, elapsed, outcome.items, outcome.auc)
            if outcome.problems:
                tally.failed += 1
                tally.problems.extend(outcome.problems)
        cycles += 1


def tail(times: list[float]):
    """(percentile, value) at the highest percentile with >= 10 samples beyond it."""
    import numpy

    for p in TAIL_PERCENTILES:
        if len(times) * (100.0 - p) / 100.0 >= 10:
            return p, float(numpy.percentile(times, p))
    return None


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def print_rows(rows) -> None:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]) - 1)]
    for row in rows:
        cells = [str(c).ljust(w) for c, w in zip(row, widths)] + [str(row[-1])]
        print("  " + "  ".join(cells).rstrip())


def end_to_end(workload, tally: Tally, setup_s: float) -> dict:
    """Print the end-to-end table and return the gated metrics."""
    n = len(tally.times)
    rate = tally.rate()
    median_rate = tally.median_rate()
    p50 = statistics.median(tally.times)
    rss = peak_rss_mib()
    auc = statistics.fmean(tally.aucs)
    tail_at = tail(tally.times)
    steps = workload.unit == "steps/s"
    rows = [
        ("metric", "value", "unit", "note"),
        ("setup_s", f"{setup_s:.4f}", "s", f"median of {SETUP_PROBES} fresh processes, spread over the run"),
        ("steps_per_s", f"{rate:.1f}" if steps else "n/a", "steps/s", "" if steps else "no control steps here"),
        ("eval_frames_per_s", "n/a" if steps else f"{rate:.1f}", "frames/s", "no frames scored here" if steps else ""),
        ("op_s_p50", f"{p50:.4f}", "s", f"n={n}"),
        ("op_s_tail", f"{tail_at[1]:.4f}" if tail_at else "omitted", "s",
         f"p{tail_at[0]:g}, n={n}" if tail_at else f"n={n}, fewer than 20 operations"),
        ("peak_rss_mib", f"{rss:.1f}", "MiB", "ru_maxrss of this process"),
        ("error_rate", f"{tally.failed / tally.attempted:.4f}", "fraction",
         f"{tally.failed} failed / {tally.attempted} attempted"),
        ("track_auc_pct", f"{auc:.3f}", "%", "OTB success AUC, mean over operations"),
        ("items_per_s", f"{median_rate:.1f}", "items/s",
         f"{'steps' if steps else 'frames'} per second, each of the {len(tally.by_op)} "
         "operation(s) at its median repeat"),
    ]
    print_rows(rows)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (median_rate, "items/s"),
        "peak_rss_mib": (rss, "MiB"),
        "track_auc_pct": (auc, "%"),
    }


def traced(workload, seconds: float, base: Tally):
    """Traced half of a --trace 1 run; returns (per-layer metrics, traced tally)."""
    import spans

    tracer = spans.Tracer()
    tally = Tally()
    tracer.install()
    try:
        workload.load()  # set-up calls, traced outside any operation
        run_cycles(workload, seconds, 1, tally, first_op=base.attempted, tracer=tracer)
    finally:
        tracer.uninstall()
    layer, rows = spans.layer_metrics(tracer, tally.attempted, workload.pools)
    untraced_rate = base.median_rate() if base.times else 0.0
    traced_rate = tally.median_rate() if tally.times else 0.0
    overhead = 100.0 * (untraced_rate / traced_rate - 1.0) if untraced_rate and traced_rate else 0.0
    layer["trace.overhead_pct"] = (overhead, "%")
    out = ROOT / ".perfbench" / f"trace_{workload.name}.npz"
    tracer.save(out)

    print_rows([("span", "calls/op", "self_us_p50", "self_us_p99", "share_%", "should move")] + [
        (name, f"{calls:.1f}", f"{p50:.1f}", f"{p99:.1f}", f"{share:.2f}", moves)
        for name, calls, p50, p99, share, moves in rows
    ])
    print_rows([("metric", "value", "unit")] + [
        (name, f"{value:.6g}", unit) for name, (value, unit) in layer.items()
        if not name.endswith(("calls_per_op", "self_us_p50", "self_us_p99"))
    ])
    print(f"tracing overhead: untraced {untraced_rate:.1f} {workload.unit}, traced {traced_rate:.1f} "
          f"{workload.unit} ({overhead:+.1f}%); absolute numbers come from untraced runs")
    print(f"traced outputs match the golden digests / references: {'yes' if tally.failed == 0 else 'NO'}")
    print(f"spans written to {out}")
    return layer, tally


@contextlib.contextmanager
def open_workload(name: str, seed: int):
    """The named workload, its inputs in a temporary directory removed afterwards."""
    import workloads

    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        yield workloads.WORKLOADS[name](ROOT, seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def select(measured: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, in its order, as {name: {value, unit}}."""
    out = {}
    for metric in declared:
        value, unit = measured[metric["name"]]
        if unit != metric["unit"]:
            raise BenchError(f"{metric['name']}: measured in {unit}, BENCHMARK.json says {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": unit}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    contract = load_contract()
    import_program()
    with open_workload(name, seed) as workload:
        print(f"== {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}  "
              f"closed loop, 1 client, {type(workload).__doc__.strip().splitlines()[0]}")
        workload.load()
        workload.reference()
        tally = Tally()
        if trace:
            run_cycles(workload, seconds / 2, 1, tally)
            measured, traced_tally = traced(workload, seconds / 2, tally)
            declared = contract["per_layer"]
        else:
            # The set-up probes are spread over the run, between its slices,
            # so that their median does not rest on one moment's machine load.
            probes = []
            for i in range(SETUP_PROBES):
                probes.append(probe_setup(workload))
                run_cycles(workload, seconds / SETUP_PROBES, workload.min_cycles if i == 0 else 1, tally)
            setup_s = statistics.median(probes)
            measured = end_to_end(workload, tally, setup_s) if tally.times else {}
            declared = contract["end_to_end"]
            traced_tally = Tally()

    attempted = tally.attempted + traced_tally.attempted
    failed = tally.failed + traced_tally.failed
    for problem in tally.problems + traced_tally.problems:
        print(f"FAILED {problem}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    metrics = select(measured, declared) if measured else {}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged, attempted, failed, worst = {}, 0, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, done.returncode)
        if not lines or done.returncode == 2:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and worst == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return worst


def run_check(names, seed: int) -> int:
    """One pass over each workload's operations with every output check, untimed."""
    import_program()
    attempted = failed = 0
    for name in names:
        with open_workload(name, seed) as workload:
            workload.load()
            workload.reference()
            tally = Tally()
            run_cycles(workload, 0.0, workload.min_cycles, tally)
        attempted += tally.attempted
        failed += tally.failed
        print(f"check {name}: {'ok' if tally.failed == 0 else 'FAILED'} ({tally.attempted} operations)")
        for problem in tally.problems:
            print(f"  {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1, help="seed for the generated inputs")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument("--check", action="store_true", help="untimed output checks only")
    args = parser.parse_args(argv)
    try:
        if args.check:
            names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
            return run_check(names, args.seed)
        seconds = args.seconds if args.seconds is not None else load_contract()["run_seconds"]
        if args.workload == "all":
            return run_all(args.seed, seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
