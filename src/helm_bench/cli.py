"""helm-bench command line: simulate, evaluate, gains, sweep, plot.

Exit codes: 0 success, 1 usage/validation problems, 2 runtime failures.
Output files are written atomically (temp file + rename). Evaluate and
sweep run on one thread.
"""

from __future__ import annotations

import argparse
import dataclasses
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
        f"{sc.name}: {len(log)} records, settling={summary.settling_time:.3g} s, "
        f"rms_e_psi_ss={summary.rms_e_psi_ss:.4g} rad, J={summary.cost:.6g}"
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
    gt_dir: Path, pred_dir: Path, truth: dict[Path, metrics.Boxes]
) -> list[tuple[str, metrics.MetricReport]]:
    """Score each ground-truth sequence against its prediction file, in one batch.

    `truth` holds the ground-truth boxes read so far in this evaluate call,
    by path, so each ground-truth file is read once however many trackers
    are scored. Each pair is checked before the next pair's files are read.
    """
    gt_files = _sequence_files(gt_dir)
    pairs = []
    for gt_path in gt_files:
        pred_path = pred_dir / gt_path.name if pred_dir.is_dir() else pred_dir
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
    gt_dir = Path(args.gt)
    pred_dir = Path(args.pred)
    if not gt_dir.exists():
        raise EvaluationError(f"ground-truth path not found: {gt_dir}")
    if not pred_dir.exists():
        raise EvaluationError(f"prediction path not found: {pred_dir}")

    tracker_dirs = (
        sorted(d for d in pred_dir.iterdir() if d.is_dir()) if pred_dir.is_dir() else []
    )
    truth: dict[Path, metrics.Boxes] = {}
    rows: list[tuple[str, metrics.MetricReport]] = []
    curve_rows: list[tuple[str, metrics.MetricReport]] = []
    if tracker_dirs:
        # One row per tracker: aggregate over its sequences.
        for tdir in tracker_dirs:
            per_seq = _evaluate_tracker(gt_dir, tdir, truth)
            agg = metrics.aggregate_reports([r for _, r in per_seq])
            rows.append((tdir.name, agg))
            curve_rows.append((tdir.name, agg))
    else:
        per_seq = _evaluate_tracker(gt_dir, pred_dir, truth)
        rows.extend(per_seq)
        agg = metrics.aggregate_reports([r for _, r in per_seq])
        rows.append(("mean", agg))
        curve_rows = per_seq + [("mean", agg)]

    extra = None
    if args.relative_to_best:
        best = max(r.precision for _, r in rows)
        extra = {
            "precision_rel_best": [
                (100.0 * r.precision / best) if best > 0.0 else 0.0 for _, r in rows
            ]
        }
    atomic_write_text(args.out, metrics.format_report(rows, extra))
    if args.curves:
        curves_path = Path(args.out).with_name(Path(args.out).stem + "_curves.csv")
        atomic_write_text(curves_path, metrics.format_curves(curve_rows))
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
        eigs = sorted(gain.eigenvalues, key=lambda z: z.real)
        print(_format_matrix("K", gain.K))
        print(_format_matrix("P", gain.P))
        print("closed-loop eigenvalues: " + ", ".join(f"{e.real:+.6f}{e.imag:+.6f}j" for e in eigs))
    elif kind is sim.ControllerKind.PID:
        print(sc.controller.pid)
    else:
        print(sc.controller.smc)
    return 0


def _cmd_sweep(args) -> int:
    sc = config.load_scenario(args.scenario)
    if args.seed is not None:
        sc = dataclasses.replace(sc, seed=args.seed)
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ConfigError("--values must list at least one value")
    csv_text = sim.run_sweep(sc, args.axis, values)
    atomic_write_text(args.out, csv_text)
    print(f"wrote {args.out} ({len(values)} variants)")
    return 0


def _cmd_plot(args) -> int:
    log = sim.RunLog.from_csv(read_utf8(args.log, ConfigError, "run log path"))
    t = [float(v) for v in log.t]
    if args.kind == "yaw_error":
        svg = plots.line_chart_svg(
            [("e_psi", t, [float(v) for v in log.e_psi])],
            title="heading error",
            xlabel="t [s]",
            ylabel="e_psi [rad]",
        )
    elif args.kind == "thrust":
        svg = plots.line_chart_svg(
            [
                ("T_left", t, [float(v) for v in log.TL]),
                ("T_right", t, [float(v) for v in log.TR]),
            ],
            title="thruster commands",
            xlabel="t [s]",
            ylabel="thrust [N]",
        )
    else:  # trajectory
        svg = plots.line_chart_svg(
            [
                ("usv", [float(v) for v in log.x], [float(v) for v in log.y]),
                ("target", [float(v) for v in log.target_x], [float(v) for v in log.target_y]),
            ],
            title="plan view",
            xlabel="x [m]",
            ylabel="y [m]",
        )
    atomic_write_text(args.out, svg)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_sweep.add_argument("--axis", required=True, help="dotted scenario path, e.g. controller.kind")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", required=True, help="summary CSV path")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="render a run log as an SVG chart")
    p_plot.add_argument("--log", required=True, help="runlog.csv from simulate")
    p_plot.add_argument("--kind", choices=("yaw_error", "thrust", "trajectory"), default="yaw_error")
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
