"""helm-bench command line: simulate, evaluate, gains, sweep, plot.

Exit codes: 0 success, 1 usage/validation problems, 2 runtime failures.
Output files are written atomically (temp file + rename). Evaluate and
sweep run on one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from . import config, control, metrics, plots, sim
from .core import ConfigError, EvaluationError, IntegrationError, NumericalError
from .io_utils import atomic_write_text, read_utf8


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _thread_count(n_items: int) -> int:
    # Kept only for perfbench/workloads.py; it goes with the next perfbench change.
    return 1


def _cmd_simulate(args) -> int:
    sc = config.load_scenario(args.scenario)
    if args.seed is not None:
        sc = dataclasses.replace(sc, seed=args.seed)
    log = sim.run_scenario(sc)
    out = Path(args.out)
    atomic_write_text(out / "runlog.csv", log.to_csv())
    atomic_write_text(out / "groundtruth.txt", metrics.format_boxes(log.gt_boxes()))
    atomic_write_text(out / "predictions.txt", metrics.format_boxes(log.pred_boxes()))
    if log.error is not None:
        print(f"run aborted early: {log.error}", file=sys.stderr)
        return 2
    summary = sim.summarize(log, sc.cost)
    print(
        f"{sc.name}: {len(log)} records, settling={summary.settling_time_s:.3g} s, "
        f"rms_e_psi_ss={summary.rms_e_psi_ss:.4g} rad, J={summary.cost_J:.6g}"
    )
    return 0


def _sequence_files(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    files = sorted(p for p in root.glob("*.txt") if p.is_file())
    if not files:
        raise EvaluationError(f"no sequence files under {root}")
    return files


def _evaluate_tracker(
    gt_files: list[Path], pred_dir: Path, truth: dict[Path, metrics.Boxes]
) -> list[tuple[str, metrics.MetricReport]]:
    """Score each ground-truth file against its prediction file, in one batch.

    `pred_dir` holds one prediction file per ground-truth file, under the
    same name; for a single ground-truth file it may be the prediction file
    itself. `truth` holds the ground-truth boxes read so far in this evaluate
    call, by path, so each ground-truth file is read once however many
    trackers are scored. Each pair is checked before the next pair's files
    are read.
    """
    pred_is_dir = pred_dir.is_dir()
    pairs = []
    for gt_path in gt_files:
        pred_path = pred_dir / gt_path.name if pred_is_dir else pred_dir
        if not pred_path.exists():
            raise EvaluationError(f"missing predictions for sequence {gt_path.stem}")
        pairs.append((gt_path, pred_path))

    def boxes():
        for gt_path, pred_path in pairs:
            gt = truth.get(gt_path)
            if gt is None:
                gt = truth[gt_path] = metrics.load_boxes(gt_path)
            yield gt, metrics.load_boxes(pred_path)

    reports = metrics.evaluate_pairs(boxes())
    return [(gt_path.stem, report) for (gt_path, _), report in zip(pairs, reports)]


def _cmd_evaluate(args) -> int:
    gt_dir, pred_dir = Path(args.gt), Path(args.pred)
    if not gt_dir.exists():
        raise EvaluationError(f"ground-truth path not found: {gt_dir}")
    if not pred_dir.exists():
        raise EvaluationError(f"prediction path not found: {pred_dir}")
    pred_is_dir = pred_dir.is_dir()
    if not pred_is_dir and not gt_dir.is_file():
        raise EvaluationError(f"--gt is a directory, so --pred must be one too: {pred_dir}")

    gt_files = _sequence_files(gt_dir)
    listing = [(p, p.is_dir()) for p in pred_dir.iterdir()] if pred_is_dir else []
    tracker_dirs = sorted(p for p, is_dir in listing if is_dir)
    if tracker_dirs and any(p.name.endswith(".txt") for p, is_dir in listing if not is_dir):
        raise EvaluationError(f"--pred holds both box files and tracker directories: {pred_dir}")
    truth: dict[Path, metrics.Boxes] = {}
    if tracker_dirs:
        # One row per tracker: aggregate over its sequences.
        rows = [
            (tdir.name, metrics.aggregate_reports([r for _, r in _evaluate_tracker(gt_files, tdir, truth)]))
            for tdir in tracker_dirs
        ]
    else:
        rows = _evaluate_tracker(gt_files, pred_dir, truth)
        rows.append(("mean", metrics.aggregate_reports([r for _, r in rows])))

    extra = None
    if args.relative_to_best:
        best = max(r.precision for _, r in rows)
        extra = {"precision_rel_best": [100.0 * r.precision / best if best > 0.0 else 0.0 for _, r in rows]}
    atomic_write_text(args.out, metrics.format_report(rows, extra))
    if args.curves:
        curves_path = Path(args.out).with_name(Path(args.out).stem + "_curves.csv")
        atomic_write_text(curves_path, metrics.format_curves(rows))
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _format_matrix(name: str, M) -> str:
    rows = ["  [" + ", ".join(f"{float(v):+.9f}" for v in row) + "]" for row in M]
    return f"{name} =\n" + "\n".join(rows)


def _cmd_gains(args) -> int:
    sc = config.load_scenario(args.scenario)
    kind = sim.ControllerKind.LQR if args.lqr else sc.controller.kind
    if kind is sim.ControllerKind.LQR:
        gain = control.lqr_gain(sc.params, sc.controller.lqr)
        print(_format_matrix("K", gain.K))
        print(_format_matrix("P", gain.P))
        print("closed-loop eigenvalues: " + control.format_poles(gain.poles))
    elif kind is sim.ControllerKind.PID:
        print(sc.controller.pid)
    else:
        print(sc.controller.smc)
    return 0


def _cmd_sweep(args) -> int:
    keys = config.load_keys(args.scenario)
    if args.seed is not None:
        keys["run"]["seed"] = args.seed
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ConfigError("--values must list at least one value")
    variants = [config.sweep_variant(keys, args.axis, value, i) for i, value in enumerate(values)]
    atomic_write_text(args.out, sim.run_sweep(args.axis, values, variants))
    print(f"wrote {args.out} ({len(values)} variants)")
    return 0


# plot --kind: (title, x label, y label, series), each series (label, x column, y column).
_PLOTS = {
    "yaw_error": ("heading error", "t [s]", "e_psi [rad]", [("e_psi", "t", "e_psi")]),
    "thrust": ("thruster commands", "t [s]", "thrust [N]", [("T_left", "t", "TL"), ("T_right", "t", "TR")]),
    "trajectory": ("plan view", "x [m]", "y [m]", [("usv", "x", "y"), ("target", "target_x", "target_y")]),
}


def _cmd_plot(args) -> int:
    log = sim.RunLog.from_csv(read_utf8(args.log, ConfigError, "run log path"))
    title, xlabel, ylabel, series = _PLOTS[args.kind]
    svg = plots.line_chart_svg(
        [(label, getattr(log, x).tolist(), getattr(log, y).tolist()) for label, x, y in series],
        title=title,
        xlabel=xlabel,
        ylabel=ylabel,
    )
    atomic_write_text(args.out, svg)
    print(f"wrote {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one."""
    parser = _Parser(prog="helm-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[], help="run one scenario and export its logs")
    p_sim.add_argument("--scenario", required=True, help="scenario .ini file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_eval = sub.add_parser("evaluate", help="score prediction files against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth file or directory")
    p_eval.add_argument("--pred", required=True, help="prediction file, directory, or tracker dirs")
    p_eval.add_argument("--out", default="report.csv", help="report CSV path")
    p_eval.add_argument("--curves", action="store_true", help="also write the metric curves CSV")
    p_eval.add_argument(
        "--relative-to-best",
        action="store_true",
        help="append precision relative to the best row",
    )
    p_eval.set_defaults(func=_cmd_evaluate)

    p_gains = sub.add_parser("gains", help="print controller gains for a scenario")
    p_gains.add_argument("--scenario", required=True)
    p_gains.add_argument("--lqr", action="store_true", help="solve and print the LQR gain and P")
    p_gains.set_defaults(func=_cmd_gains)

    p_sweep = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--axis", required=True, help="scenario-file key as section.key, e.g. controller.kind")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", required=True, help="summary CSV path")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="render a run log as an SVG chart")
    p_plot.add_argument("--log", required=True, help="runlog.csv from simulate")
    p_plot.add_argument("--kind", choices=tuple(_PLOTS), default="yaw_error")
    p_plot.add_argument("--out", required=True, help="output .svg path")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a word that starts with "-" as an option unless it is a
    # plain negative decimal; joining "--values" to its word lets lists such
    # as "-1e-3" or "-inf" through.
    if "--values" in argv[:-1]:
        i = argv.index("--values")
        argv[i : i + 2] = [f"--values={argv[i + 1]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EvaluationError, FileNotFoundError) as exc:
        print(f"helm-bench: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, NumericalError, OSError) as exc:
        print(f"helm-bench: runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
