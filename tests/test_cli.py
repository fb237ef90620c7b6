"""End-to-end command-line behavior: file outputs, reports, and exit codes."""

import hashlib
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from helm_bench.cli import build_parser, main
from helm_bench.metrics import REPORT_COLUMNS, Boxes, format_boxes, load_boxes
from helm_bench.sim import LOG_COLUMNS, SWEEP_COLUMNS, RunLog

SEA_LINE = Path(__file__).resolve().parent.parent / "scenarios" / "sea_line.ini"
SEA_TRIANGLE = SEA_LINE.with_name("sea_triangle.ini")

QUICK = """
[run]
duration = 1.0
dt = 0.02
seed = 3

[target]
x0 = 15
speed = 0.5
"""


@pytest.fixture()
def quick_ini(tmp_path):
    p = tmp_path / "quick.ini"
    p.write_text(QUICK)
    return p


def read(path):
    return path.read_text()


class TestSimulate:
    def test_writes_three_outputs(self, quick_ini, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(quick_ini), "--out", str(out)]) == 0
        runlog = RunLog.from_csv(read(out / "runlog.csv"))
        assert len(runlog) == 51
        gt = load_boxes(out / "groundtruth.txt")
        pred = load_boxes(out / "predictions.txt")
        assert len(gt) == len(pred) == 51
        summary = capsys.readouterr().out
        assert "settling=" in summary and "J=" in summary

    def test_byte_identical_reruns(self, quick_ini, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", str(quick_ini), "--out", str(out_a)])
        main(["simulate", "--scenario", str(quick_ini), "--out", str(out_b)])
        for name in ("runlog.csv", "groundtruth.txt", "predictions.txt"):
            assert read(out_a / name) == read(out_b / name)

    def test_outputs_get_the_mode_of_a_plain_write(self, quick_ini, tmp_path):
        out = tmp_path / "run"
        old = os.umask(0o022)
        try:
            assert main(["simulate", "--scenario", str(quick_ini), "--out", str(out)]) == 0
            with open(out / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        plain = (out / "plain.txt").stat().st_mode
        assert plain & 0o777 == 0o644
        for name in ("runlog.csv", "groundtruth.txt", "predictions.txt"):
            assert (out / name).stat().st_mode == plain
        assert sorted(p.name for p in out.iterdir()) == [
            "groundtruth.txt", "plain.txt", "predictions.txt", "runlog.csv"
        ]  # no temp file left behind

    def test_seed_override_changes_noisy_outputs(self, tmp_path):
        ini = tmp_path / "noisy.ini"
        ini.write_text(QUICK + "\n[tracker]\nsigma_center_px = 3\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--scenario", str(ini), "--out", str(out_a), "--seed", "1"])
        main(["simulate", "--scenario", str(ini), "--out", str(out_b), "--seed", "2"])
        assert read(out_a / "predictions.txt") != read(out_b / "predictions.txt")

    def test_first_step_abort_is_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "fast.ini"
        ini.write_text(QUICK + "\n[usv]\nu0 = 1e308\n")
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(ini), "--out", str(out)]) == 2
        assert "run aborted early" in capsys.readouterr().err
        assert len(RunLog.from_csv(read(out / "runlog.csv"))) == 1

    @pytest.mark.parametrize(
        "usv, error, digest",
        [
            (
                "u0 = 1e308",
                "non-finite state after step at t=0.0: [inf, 0.0, 0.0, 1e+308, 0.0]",
                "50985141adc9b6241287083e21ed53b4107f34042e03950831ed687edfd2fe90",
            ),
            (
                # l/Izz = 3.1e-301 overflows the yaw block of P to inf
                "l = 1e-300",
                "no LQR gain: CARE residual exceeds tolerance",
                "f2f7322167dd27f450f3a3c38c4b6ee00b0ae587ca0c838d4ad59a43c7c45f6d",
            ),
            (
                # l/Izz underflows to 0
                "m = 20\nizz = 1e300\nl = 1e-300",
                "no LQR gain: input gains 1/m = 0.05 and l/Izz = 0.0 must be finite and > 0",
                "25d0ed00a4a0022c623057bb23eeacd8c1313d05c71e809d25a68ab6a799bd4d",
            ),
            (
                "m = 1e-300\nizz = 1e300\nl = 1e-300",
                "no LQR gain: input gains 1/m = 9.999999999999999e+299 and l/Izz = 0.0 must be finite and > 0",
                "f45bca4647a90008e428154b44c514e3f73922c862ec7e08b9818b5764665671",
            ),
            (
                "m = 1e300\nizz = 1e300\nl = 1e-300",
                "no LQR gain: input gains 1/m = 1e-300 and l/Izz = 0.0 must be finite and > 0",
                "9aa443ad988edb00f0a61461244872bcd1c870c631989c76074b62d32410d31e",
            ),
        ],
    )
    def test_degenerate_plant_aborts_without_warnings(self, tmp_path, capsys, usv, error, digest):
        ini = tmp_path / "degenerate.ini"
        ini.write_text(QUICK + f"\n[usv]\n{usv}\n")
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--scenario", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"run aborted early: {error}\n"
        runlog = (out / "runlog.csv").read_bytes()
        assert runlog.startswith(f"# error: {error}\n".encode())
        # the bytes numpy's overflow warnings used to precede
        assert hashlib.sha256(runlog).hexdigest() == digest

    def test_duration_shorter_than_dt_is_exit_1(self, tmp_path, capsys):
        ini = tmp_path / "short.ini"
        ini.write_text("[run]\nduration = 0.01\ndt = 0.02\n")
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(ini), "--out", str(out)]) == 1
        assert "at least one step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, error",
        [
            ("[DEFAULT]\nduration = 5\n", "unknown section [DEFAULT]"),
            ("[run]\nduration = 1e308\n", "scenario too long"),
            ("[run]\ndt = 5e-324\n", "scenario too long"),
            # a weight below zero, however small, and a zero effort weight
            ("[controller]\nlqr_q = -1e-13, 1, 1\n", "LQR state weights q must be >= 0"),
            ("[cost]\nr_effort = 0, 1\n", "r_effort > 0"),
        ],
    )
    def test_rejected_scenario_is_exit_1(self, tmp_path, capsys, text, error):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(ini), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert error in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, error",
        [
            *(
                (f"[sensors]\npsi_sigma = 1e308\n[controller]\nkind = {kind}\n",
                 "non-finite heading measurement at t=")
                for kind in ("pid", "smc", "lqr")
            ),
            ("[sea]\nwave_period = 1e-308\nwave_gain = 1\n", "non-finite wave phase at t="),
        ],
    )
    def test_non_finite_measurement_or_wave_phase_is_exit_2(self, tmp_path, capsys, text, error):
        ini = tmp_path / "overflow.ini"
        ini.write_text(QUICK + "\n" + text)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(ini), "--out", str(out)]) == 2
        assert f"run aborted early: {error}" in capsys.readouterr().err
        first, rest = read(out / "runlog.csv").split("\n", 1)
        assert first.startswith(f"# error: {error}")
        log = RunLog.from_csv(rest)
        assert 0 < len(log) < 51  # truncated at the last good row of a 1 s run

    def test_zero_gain_waves_at_a_non_finite_phase_run_to_the_end(self, tmp_path):
        # with wind on, the wave phase is computed; at zero gain it adds no force
        outs = []
        for period in ("1e-308", "5"):
            ini = tmp_path / f"wind_{period}.ini"
            ini.write_text(QUICK + f"\n[sea]\nwave_period = {period}\nwind_x = 1\n")
            out = tmp_path / f"run_{period}"
            assert main(["simulate", "--scenario", str(ini), "--out", str(out)]) == 0
            outs.append(read(out / "runlog.csv"))
        assert len(RunLog.from_csv(outs[0])) == 51
        assert outs[0] == outs[1]

    def test_missing_scenario_is_exit_1(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path / "no.ini"), "--out", str(tmp_path)])
        assert rc == 1
        assert "scenario file not found" in capsys.readouterr().err


def _scenario_command(command, scenario, tmp_path):
    extra = {
        "simulate": ["--out", str(tmp_path / "run")],
        "sweep": ["--axis", "sea.visibility", "--values", "0.5", "--out", str(tmp_path / "s.csv")],
        "gains": [],
    }[command]
    return [command, "--scenario", str(scenario), *extra]


@pytest.mark.parametrize("command", ["simulate", "sweep", "gains"])
class TestScenarioPath:
    def test_non_utf8_scenario_is_exit_1(self, tmp_path, capsys, command):
        ini = tmp_path / "bad.ini"
        ini.write_bytes(b"[run]\nname = \xff\xfe\n")
        assert main(_scenario_command(command, ini, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"helm-bench: {ini}: not UTF-8 text") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [ini]

    def test_directory_scenario_is_exit_1(self, tmp_path, capsys, command):
        scenario = tmp_path / "scenarios"
        scenario.mkdir()
        assert main(_scenario_command(command, scenario, tmp_path)) == 1
        assert capsys.readouterr().err == f"helm-bench: scenario path is not a file: {scenario}\n"
        assert list(tmp_path.iterdir()) == [scenario]


def write_boxes(path, boxes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_boxes(Boxes.of(boxes)))


BOXES = [(float(k), 0.0, 20.0, 20.0) for k in range(25)]
SHIFTED = [(x + 100.0, y, w, h) for x, y, w, h in BOXES]


class TestEvaluate:
    def test_flat_layout_per_sequence_plus_mean(self, tmp_path, capsys):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        for name in ("seq_a", "seq_b"):
            write_boxes(gt_dir / f"{name}.txt", BOXES)
            write_boxes(pred_dir / f"{name}.txt", BOXES)
        out = tmp_path / "report.csv"
        rc = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir), "--out", str(out)])
        assert rc == 0
        lines = read(out).splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names == ["seq_a", "seq_b", "mean"]
        for ln in lines[1:]:
            cells = ln.split(",")
            assert cells[1] == "100.0000"  # perfect predictions
            assert cells[6] == "25" or cells[0] == "mean"

    def test_tracker_subdirectories_aggregate(self, tmp_path):
        gt_dir = tmp_path / "gt"
        write_boxes(gt_dir / "seq_a.txt", BOXES)
        write_boxes(gt_dir / "seq_b.txt", BOXES)
        pred_dir = tmp_path / "trackers"
        for tracker, boxes in (("good", BOXES), ("bad", SHIFTED)):
            write_boxes(pred_dir / tracker / "seq_a.txt", boxes)
            write_boxes(pred_dir / tracker / "seq_b.txt", boxes)
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                     "--out", str(out)]) == 0
        rows = {ln.split(",")[0]: ln.split(",") for ln in read(out).splitlines()[1:]}
        assert set(rows) == {"good", "bad"}
        assert rows["good"][1] == "100.0000"
        assert float(rows["bad"][4]) == 0.0  # precision of disjoint boxes

    def test_relative_to_best_column(self, tmp_path):
        gt_dir = tmp_path / "gt"
        write_boxes(gt_dir / "s.txt", BOXES)
        pred_dir = tmp_path / "trackers"
        write_boxes(pred_dir / "good" / "s.txt", BOXES)
        near = [(x + 25.0, y, w, h) for x, y, w, h in BOXES]  # err 25 px > 20
        write_boxes(pred_dir / "meh" / "s.txt", near)
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                     "--out", str(out), "--relative-to-best"]) == 0
        head, *rows = read(out).splitlines()
        assert head.endswith(",precision_rel_best")
        vals = {r.split(",")[0]: float(r.split(",")[-1]) for r in rows}
        assert vals["good"] == pytest.approx(100.0)
        assert vals["meh"] == pytest.approx(0.0)

    def test_curves_output(self, tmp_path):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        write_boxes(gt_dir / "s.txt", BOXES)
        write_boxes(pred_dir / "s.txt", BOXES)
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                     "--out", str(out), "--curves"]) == 0
        curves = tmp_path / "report_curves.csv"
        assert curves.exists()
        lines = read(curves).splitlines()
        assert lines[0] == "sequence,curve,threshold,value"
        # success + precision + norm curves for the sequence row and the mean row
        assert len(lines) == 1 + 2 * (101 + 51 + 51)

    def test_tracker_row_is_the_mean_row_of_its_directory(self, tmp_path):
        """Tracker directory `a` scores, byte for byte, as the `mean` row of `--pred pred/a`."""
        rng = np.random.default_rng(5)
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        for s in range(3):
            gt = [(x + 7.0 * s, y, w + s, h) for x, y, w, h in BOXES]
            write_boxes(gt_dir / f"s{s}.txt", gt)
            for tracker, jitter in (("a", 4.0), ("b", 12.0)):
                moved = [None if rng.uniform() < 0.1 else (x + rng.normal(0.0, jitter), y + rng.normal(0.0, jitter), w, h)
                         for x, y, w, h in gt]
                write_boxes(pred_dir / tracker / f"s{s}.txt", moved)

        def evaluate(pred, name):
            out = tmp_path / name / "report.csv"
            assert main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred), "--out", str(out),
                         "--curves"]) == 0
            report = {ln.split(",", 1)[0]: ln.split(",", 1)[1] for ln in read(out).splitlines()[1:]}
            curves = [ln.split(",", 1) for ln in read(out.with_name("report_curves.csv")).splitlines()[1:]]
            return report, curves

        trackers, trackers_curves = evaluate(pred_dir, "trackers")
        per_seq, per_seq_curves = evaluate(pred_dir / "a", "a")
        assert list(per_seq) == ["s0", "s1", "s2", "mean"]
        assert trackers["a"] == per_seq["mean"]
        assert [v for k, v in trackers_curves if k == "a"] == [v for k, v in per_seq_curves if k == "mean"]
        assert trackers["a"] != trackers["b"]

    def test_missing_prediction_file_is_exit_1(self, tmp_path, capsys):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        write_boxes(gt_dir / "a.txt", BOXES)
        write_boxes(gt_dir / "b.txt", BOXES)
        write_boxes(pred_dir / "a.txt", BOXES)
        rc = main(["evaluate", "--gt", str(gt_dir), "--pred", str(pred_dir),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "b" in capsys.readouterr().err

    def test_thread_env_is_ignored(self, tmp_path, monkeypatch, capsys):
        write_boxes(tmp_path / "gt.txt", BOXES)
        write_boxes(tmp_path / "pred.txt", SHIFTED)
        outs = []
        for env in (None, "zero"):
            if env is None:
                monkeypatch.delenv("HELM_BENCH_THREADS", raising=False)
            else:
                monkeypatch.setenv("HELM_BENCH_THREADS", env)
            out = tmp_path / f"r_{env}.csv"
            assert main(["evaluate", "--gt", str(tmp_path / "gt.txt"), "--pred", str(tmp_path / "pred.txt"),
                         "--out", str(out), "--curves"]) == 0
            outs.append((out.read_bytes(), out.with_name(out.stem + "_curves.csv").read_bytes()))
        assert outs[0] == outs[1]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("which", ["gt", "pred"])
    def test_non_utf8_box_file_is_exit_1(self, tmp_path, capsys, which):
        write_boxes(tmp_path / "gt.txt", BOXES)
        write_boxes(tmp_path / "pred.txt", BOXES)
        bad = tmp_path / f"{which}.txt"
        lines = bad.read_bytes().split(b"\n")
        lines[1] = b"\xff\xfe"
        bad.write_bytes(b"\n".join(lines))
        rc = main(["evaluate", "--gt", str(tmp_path / "gt.txt"),
                   "--pred", str(tmp_path / "pred.txt"), "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"helm-bench: {bad}: not UTF-8 text")
        assert not (tmp_path / "r.csv").exists()

    def test_directory_box_file_is_exit_1(self, tmp_path, capsys):
        write_boxes(tmp_path / "gt" / "a.txt", BOXES)
        pred = tmp_path / "pred" / "tracker" / "a.txt"
        pred.mkdir(parents=True)
        rc = main(["evaluate", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"helm-bench: path is not a file: {pred}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_single_file_pair(self, tmp_path):
        write_boxes(tmp_path / "gt.txt", BOXES)
        write_boxes(tmp_path / "pred.txt", BOXES)
        out = tmp_path / "r.csv"
        assert main(["evaluate", "--gt", str(tmp_path / "gt.txt"),
                     "--pred", str(tmp_path / "pred.txt"), "--out", str(out)]) == 0
        assert read(out).splitlines()[1].startswith("gt,100.0000")

    def test_gt_file_with_pred_directory(self, tmp_path):
        write_boxes(tmp_path / "gt.txt", BOXES)
        write_boxes(tmp_path / "pred" / "gt.txt", SHIFTED)
        out = tmp_path / "r.csv"
        assert main(["evaluate", "--gt", str(tmp_path / "gt.txt"),
                     "--pred", str(tmp_path / "pred"), "--out", str(out)]) == 0
        names = [ln.split(",")[0] for ln in read(out).splitlines()[1:]]
        assert names == ["gt", "mean"]

    def test_gt_directory_with_pred_file_is_exit_1(self, tmp_path, capsys):
        # Every sequence would be scored against the same prediction file.
        write_boxes(tmp_path / "gt" / "a.txt", BOXES)
        write_boxes(tmp_path / "gt" / "b.txt", SHIFTED)
        write_boxes(tmp_path / "p.txt", BOXES)
        rc = main(["evaluate", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "p.txt"),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"helm-bench: --gt is a directory, so --pred must be one too: {tmp_path / 'p.txt'}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_pred_directory_with_box_files_and_subdirectories_is_exit_1(self, tmp_path, capsys):
        # Scoring only the subdirectory would silently drop pred/a.txt.
        write_boxes(tmp_path / "gt" / "a.txt", BOXES)
        write_boxes(tmp_path / "pred" / "a.txt", BOXES)
        write_boxes(tmp_path / "pred" / "x" / "a.txt", SHIFTED)
        rc = main(["evaluate", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        want = f"--pred holds both box files and tracker directories: {tmp_path / 'pred'}"
        assert capsys.readouterr().err == f"helm-bench: {want}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_tracker_directories_beside_other_files(self, tmp_path):
        # Only box files (*.txt) next to tracker directories are an error.
        write_boxes(tmp_path / "gt" / "a.txt", BOXES)
        write_boxes(tmp_path / "pred" / "x" / "a.txt", BOXES)
        (tmp_path / "pred" / "README.md").write_text("notes\n")
        out = tmp_path / "r.csv"
        assert main(["evaluate", "--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--out", str(out)]) == 0
        assert [ln.split(",")[0] for ln in read(out).splitlines()[1:]] == ["x"]


def test_logformat_doc_lists_report_columns_in_order():
    """The report column table in docs/logformat.md names every REPORT_COLUMNS entry, in order."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "logformat.md").read_text()
    table = doc.split("## evaluate report columns", 1)[1].split("\n\n", 2)[1]
    rows = [ln for ln in table.splitlines() if ln.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert tuple(names) == REPORT_COLUMNS


def test_logformat_doc_lists_sweep_columns_in_order():
    """The sweep column table in docs/logformat.md names every SWEEP_COLUMNS entry, in order."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "logformat.md").read_text()
    section = doc.split("## sweep CSV", 1)[1].split("\n## ", 1)[0]
    rows = [ln for ln in section.splitlines() if ln.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert tuple(names) == SWEEP_COLUMNS


class TestGains:
    def test_lqr_prints_gain_and_spectrum(self, tmp_path, capsys):
        ini = tmp_path / "lqr.ini"
        ini.write_text("[controller]\nkind = lqr\nlqr_q = 1, 1, 1\nlqr_r = 1, 1\n")
        assert main(["gains", "--scenario", str(ini)]) == 0
        out = capsys.readouterr().out
        assert "K =" in out and "P =" in out and "closed-loop eigenvalues" in out
        assert "+1.000000000" in out  # surge gain for unit weights

    def test_pid_and_smc_print_gain_sets(self, tmp_path, capsys):
        ini = tmp_path / "pid.ini"
        ini.write_text("[controller]\nkind = pid\npid_kp_u = 13\n")
        assert main(["gains", "--scenario", str(ini)]) == 0
        out = capsys.readouterr().out
        assert "kp_u=13" in out.replace(" ", "")

        ini2 = tmp_path / "smc.ini"
        ini2.write_text("[controller]\nkind = smc\nsmc_eta_u = 9\n")
        assert main(["gains", "--scenario", str(ini2)]) == 0
        out2 = capsys.readouterr().out
        assert "eta_u=9" in out2.replace(" ", "")

    def test_lqr_print_is_pinned(self, capsys):
        # every shipped scenario keeps the default plant and weights
        want = (
            "K =\n"
            "  [+8.944271910, +0.000000000, +0.000000000]\n"
            "  [+0.000000000, +22.360679775, +21.395580768]\n"
            "P =\n"
            "  [+8.944271910, +0.000000000, +0.000000000]\n"
            "  [+0.000000000, +23.920986508, +8.944271910]\n"
            "  [+0.000000000, +8.944271910, +8.558232307]\n"
            "closed-loop eigenvalues: -1.337224+1.003453j, -1.337224-1.003453j, -0.447214+0.000000j\n"
        )
        scenarios = Path(__file__).resolve().parent.parent / "scenarios"
        for name in ("calm_line", "sea_line", "sea_triangle", "ncc_standoff", "ncc_approach"):
            assert main(["gains", "--scenario", str(scenarios / f"{name}.ini"), "--lqr"]) == 0
            assert capsys.readouterr().out == want, name

    def test_lqr_flag_forces_riccati_print(self, tmp_path, capsys):
        ini = tmp_path / "pid.ini"
        ini.write_text("[controller]\nkind = pid\n")
        assert main(["gains", "--scenario", str(ini), "--lqr"]) == 0
        assert "K =" in capsys.readouterr().out


class TestOffImageDetection:
    def test_jittered_emulator_runs_to_the_end(self, tmp_path):
        # 20 px of centre jitter puts some emulated boxes off the image
        text = SEA_TRIANGLE.read_text().replace("sigma_center_px = 0.0", "sigma_center_px = 20.0")
        ini = tmp_path / "sea_triangle.ini"
        ini.write_text(text)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(ini), "--out", str(out)]) == 0
        log = RunLog.from_csv(read(out / "runlog.csv"))
        assert log.error is None and len(log) == 3001
        # no dropouts are configured, so a visible target reported invalid
        # was an off-image detection
        assert np.any(~np.isnan(log.gt_x) & (log.det_valid == 0))


class TestSubPixelTarget:
    # A target whose box is under 1e-6 px a side is out of view, so simulate
    # writes no box that evaluate would reject as degenerate.
    def simulate_then_evaluate(self, tmp_path, target):
        ini = tmp_path / "far.ini"
        ini.write_text(f"[run]\nduration = 1\n[target]\n{target}\n")
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(ini), "--out", str(out)]) == 0
        return main(["evaluate", "--gt", str(out / "groundtruth.txt"), "--pred", str(out / "predictions.txt"),
                     "--out", str(tmp_path / "report.csv")])

    @pytest.mark.parametrize("target", ["x0 = 1e10", "extent = 1e-300"])
    def test_out_of_view_target_leaves_no_ground_truth(self, tmp_path, capsys, target):
        assert self.simulate_then_evaluate(tmp_path, target) == 1
        err = capsys.readouterr().err
        assert "no frames with ground truth to evaluate" in err and "degenerate" not in err

    def test_hundred_thousandth_pixel_target_round_trips(self, tmp_path, capsys):
        assert self.simulate_then_evaluate(tmp_path, "x0 = 1e8") == 0
        assert "degenerate" not in capsys.readouterr().err
        assert read(tmp_path / "run" / "groundtruth.txt").startswith("319.999995,239.999995,0.000010,0.000010\n")


class TestSweep:
    def test_sweep_csv(self, quick_ini, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--scenario", str(quick_ini), "--axis", "sea.visibility",
                   "--values", "1.0,0.5", "--out", str(out)])
        assert rc == 0
        lines = read(out).splitlines()
        assert lines[0] == ("axis,value,settling_time_s,overshoot_pct,rms_e_psi_ss,"
                            "tv_left,tv_right,tv_total,cost_J")
        assert [ln.split(",")[0] for ln in lines[1:]] == ["sea.visibility"] * 2
        assert [ln.split(",")[1] for ln in lines[1:]] == ["1.0", "0.5"]

    @pytest.mark.parametrize(
        "scenario, axis, values, digest",
        [
            ("calm_line", "controller.kind", "pid,smc,lqr",
             "28e809376a2393f1b787a3a2ce27ef2e0773aa8b9c0d8ef31bdd8504e98189fc"),
            ("ncc_approach", "tracker.ncc_search_halfwidth", "auto,8",
             "f9bc03b90453f7098c775879536cef77be716bb903525cefbe711c9128e476f1"),
            ("sea_triangle", "target.triangle_side", "15,20",
             "b7209d985ce534253a3351543fb2970be7c999e91571b17e120ee38d7b20c654"),
        ],
        ids=["calm_line", "ncc_approach", "sea_triangle"],
    )
    def test_sweep_csv_golden(self, tmp_path, scenario, axis, values, digest):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--scenario", str(SEA_LINE.with_name(f"{scenario}.ini")), "--axis", axis,
                     "--values", values, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_int_or_auto_field_on_an_auto_scenario(self, tmp_path):
        # the value type follows the key's parser, not the base value (auto)
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--scenario", str(SEA_LINE.with_name("calm_line.ini")),
                   "--axis", "tracker.ncc_search_halfwidth", "--values", "auto,8",
                   "--out", str(out)])
        assert rc == 0
        assert [ln.split(",")[1] for ln in read(out).splitlines()[1:]] == ["auto", "8"]

    def test_empty_values_rejected(self, quick_ini, tmp_path, capsys):
        rc = main(["sweep", "--scenario", str(quick_ini), "--axis", "sea.visibility",
                   "--values", ",", "--out", str(tmp_path / "s.csv")])
        assert rc == 1

    @pytest.mark.parametrize(
        "axis, value",
        [
            ("sea.visibility", "1.5"),  # rejected by SeaState validation
            ("target.extent", "0"),  # rejected by TrajectorySpec validation
            ("camera.width", "0"),  # rejected by CameraIntrinsics validation
            ("sea.wind_velocity", "1"),  # no key: wind_x and wind_y are the keys
            ("target.edges", "1"),  # a property, not a key
            ("guidance_cfg.standoff", "5"),  # a dataclass path: guidance.standoff is the key
            ("controller.pid.kp_u", "1"),
            ("run.duration", "1e308"),  # duration/dt overflows to inf: too many steps
            ("run.dt", "5e-324"),
        ],
    )
    def test_bad_value_is_exit_1(self, tmp_path, capsys, axis, value):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--scenario", str(SEA_LINE), "--axis", axis,
                   "--values", value, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert axis in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["run.seed", "run.name"])
    def test_seed_or_name_axis_is_exit_1(self, quick_ini, tmp_path, capsys, axis):
        # each variant overwrites both, so the values would be ignored
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--scenario", str(quick_ini), "--axis", axis,
                   "--values", "1,2", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"cannot sweep {axis}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["-1e-3", "-1e-3,2e-3", "-.5"])
    def test_negative_value_after_a_space(self, quick_ini, tmp_path, values):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--scenario", str(quick_ini), "--axis", "sea.wave_phase",
                   "--values", values, "--out", str(out)])
        assert rc == 0
        assert [ln.split(",")[1] for ln in read(out).splitlines()[1:]] == values.split(",")

    def test_minus_inf_after_a_space_is_exit_1(self, quick_ini, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--scenario", str(quick_ini), "--axis", "sea.wave_gain",
                   "--values", "-inf", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_exit_1(self, quick_ini, tmp_path, capsys, value):
        out = tmp_path / "s.csv"
        # "--values=..." keeps argparse from reading "-inf" as an option
        rc = main(["sweep", "--scenario", str(quick_ini), "--axis", "sea.wave_gain",
                   f"--values={value}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "not finite" in err and "Traceback" not in err
        assert not out.exists()


class TestPlot:
    @pytest.fixture()
    def runlog(self, quick_ini, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--scenario", str(quick_ini), "--out", str(out)])
        return out / "runlog.csv"

    @pytest.mark.parametrize("kind", ["yaw_error", "thrust", "trajectory"])
    def test_svg_for_each_kind(self, runlog, tmp_path, kind):
        out = tmp_path / f"{kind}.svg"
        assert main(["plot", "--log", str(runlog), "--kind", kind, "--out", str(out)]) == 0
        text = read(out)
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_unwritable_out_is_exit_2(self, runlog, tmp_path, capsys):
        target = tmp_path / "adir"
        target.mkdir()
        rc = main(["plot", "--log", str(runlog), "--out", str(target)])
        assert rc == 2

    def test_truncated_row_is_exit_1(self, runlog, tmp_path, capsys):
        lines = read(runlog).splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0]
        runlog.write_text("\n".join(lines) + "\n")
        rc = main(["plot", "--log", str(runlog), "--out", str(tmp_path / "p.svg")])
        assert rc == 1
        assert "cells" in capsys.readouterr().err

    def _replace_cell(self, runlog, column, value):
        lines = read(runlog).splitlines()
        cells = lines[-1].split(",")
        cells[LOG_COLUMNS.index(column)] = value
        lines[-1] = ",".join(cells)
        runlog.write_text("\n".join(lines) + "\n")

    def test_non_utf8_log_is_exit_1(self, runlog, tmp_path, capsys):
        runlog.write_bytes(runlog.read_bytes() + b"\xff\xfe\n")
        out = tmp_path / "p.svg"
        rc = main(["plot", "--log", str(runlog), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"helm-bench: {runlog}: not UTF-8 text")
        assert not out.exists()

    def test_det_valid_other_than_0_or_1_is_exit_1(self, runlog, tmp_path, capsys):
        self._replace_cell(runlog, "det_valid", "2")
        rc = main(["plot", "--log", str(runlog), "--out", str(tmp_path / "p.svg")])
        assert rc == 1
        assert "det_valid" in capsys.readouterr().err

    def test_unknown_mode_is_exit_1(self, runlog, tmp_path, capsys):
        self._replace_cell(runlog, "mode", "drifting")
        rc = main(["plot", "--log", str(runlog), "--out", str(tmp_path / "p.svg")])
        assert rc == 1
        assert "drifting" in capsys.readouterr().err

    def test_directory_log_is_exit_1(self, tmp_path, capsys):
        log = tmp_path / "run"
        log.mkdir()
        out = tmp_path / "p.svg"
        assert main(["plot", "--log", str(log), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"helm-bench: run log path is not a file: {log}\n"
        assert not out.exists()

    def test_unknown_kind_is_usage_error(self, runlog, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["plot", "--log", str(runlog), "--kind", "bars", "--out", "x.svg"])
        assert exc.value.code == 1


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["teleport"])
        assert exc.value.code == 1

    def test_one_parser_serves_successive_commands(self, quick_ini, tmp_path, capsys):
        # main builds its parser once per process; no call may leave state in it for the next.
        parser = build_parser()
        assert main(["simulate", "--scenario", str(quick_ini), "--out", str(tmp_path / "run")]) == 0
        assert main(["gains", "--scenario", str(quick_ini), "--lqr"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["gains", "--lqr"])  # --scenario is required
        assert exc.value.code == 1
        assert "the following arguments are required: --scenario" in capsys.readouterr().err
        run = tmp_path / "run"
        assert main(["evaluate", "--gt", str(run / "groundtruth.txt"), "--pred", str(run / "predictions.txt"),
                     "--out", str(tmp_path / "report.csv")]) == 0
        assert main(["simulate", "--scenario", str(quick_ini), "--out", str(tmp_path / "again")]) == 0
        assert read(run / "runlog.csv") == read(tmp_path / "again" / "runlog.csv")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", str(quick_ini)])
        assert exc.value.code == 1
        assert build_parser() is parser
