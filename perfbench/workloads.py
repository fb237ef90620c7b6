"""The three benchmark workloads: inputs made from the seed, one operation each,
and the checks that every operation's output is correct.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. Operations call helm_bench only through its
module attributes (``sim.run_scenario``, ``metrics.format_boxes`` ...), so
the tracer in ``spans.py`` sees every layer call.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import io
import os
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

from helm_bench import cli, config, io_utils, metrics, sim

CONTROLLERS = ("PID", "SMC", "LQR")


class Op(NamedTuple):
    label: str
    key: object  # the full-length scenario whose run the checks compare against, or None
    scenario: object  # the sim.Scenario an operation runs, or None


@dataclasses.dataclass
class Outcome:
    items: int  # control steps logged, or frames scored
    auc: float | None  # OTB success AUC of the operation's output, percent
    problems: list[str]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_digests(root: Path) -> dict[tuple[str, str], str]:
    """GOLDEN_SHA256 as pinned in tests/test_acceptance.py (read, not copied)."""
    path = root / "tests" / "test_acceptance.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_SHA256" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"GOLDEN_SHA256 not found in {path}")


def derived_seed(seed: int, label: str) -> int:
    digest = hashlib.blake2s(f"perfbench:{label}:{seed}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def simulate(sc, out_dir: Path):
    """What `helm-bench simulate` does, minus argument parsing and the summary line."""
    log = sim.run_scenario(sc)
    csv = log.to_csv()
    gt = metrics.format_boxes(log.gt_boxes())
    pred = metrics.format_boxes(log.pred_boxes())
    io_utils.atomic_write_text(out_dir / "runlog.csv", csv)
    io_utils.atomic_write_text(out_dir / "groundtruth.txt", gt)
    io_utils.atomic_write_text(out_dir / "predictions.txt", pred)
    return log, csv, gt, pred


def run_auc(log) -> float:
    return metrics.evaluate_boxes(log.gt_boxes(), log.pred_boxes()).auc


class Workload:
    name = ""
    scenarios: tuple[str, ...] = ()  # loaded at set-up, and by the set-up probe
    min_cycles = 1
    unit = "steps/s"  # what items_per_s counts on this workload

    def __init__(self, root: Path, seed: int, tmp: Path) -> None:
        self.root = root
        self.seed = seed
        self.tmp = tmp
        self.ops: list[Op] = []
        self.pools: dict[str, int] = {}  # span owning a thread pool -> workers

    def scenario_path(self, name: str) -> Path:
        return self.root / "scenarios" / f"{name}.ini"

    def load(self) -> None:
        """Program set-up: load the scenarios and build the operation list."""

    def reference(self) -> None:
        """Untimed reference outputs that the checks compare against."""

    def execute(self, op: Op):
        raise NotImplementedError

    def verify(self, op: Op, result) -> Outcome:
        raise NotImplementedError


class ShortenedSimulate(Workload):
    """Simulate operations on shortened scenarios.

    Each operation's `key` is the full-length scenario. `reference` runs it
    once, untimed, and fills `expected[label]` with (Prefix of its outputs,
    the AUC to report or None, a problem found or None). A run never looks
    ahead, so a shortened run must equal the start of its full-length run.
    """

    def __init__(self, root, seed, tmp) -> None:
        super().__init__(root, seed, tmp)
        self.out = tmp / "simulate"
        self.expected: dict[str, tuple] = {}

    def execute(self, op: Op):
        return simulate(op.scenario, self.out)

    def verify(self, op: Op, result) -> Outcome:
        log, csv, gt, pred = result
        prefix, auc, problem = self.expected[op.label]
        problems = [problem] if problem else []
        if log.error is not None:
            problems.append(f"{op.label}: run aborted: {log.error}")
        if not prefix.starts(csv, gt, pred):
            problems.append(f"{op.label}: output differs from the start of its full-length run")
        return Outcome(len(log), auc, problems)


class EmulatorLoop(ShortenedSimulate):
    """Simulate-equivalent operations over the nine goldened (scenario, controller) pairs.

    The shipped emulator scenarios have zero tracker and sensor noise, so
    their bytes do not depend on the seed: they run at their shipped seeds.
    Each timed operation runs the first tenth of the shipped duration, so a
    run repeats every operation a few hundred times (see Tally in run.py).
    The full-length logs are made once per run, untimed, and must match
    their GOLDEN_SHA256 digests.
    """

    name = "emulator_loop"
    scenarios = ("calm_line", "sea_line", "sea_triangle")
    SHORTEN = 10

    def __init__(self, root, seed, tmp) -> None:
        super().__init__(root, seed, tmp)
        self.golden = golden_digests(root)

    def load(self) -> None:
        self.ops = []
        for name in self.scenarios:
            base = config.load_scenario(self.scenario_path(name))
            for kind in CONTROLLERS:
                spec = sim.ControllerSpec(kind=sim.ControllerKind[kind])
                sc = dataclasses.replace(base, controller=spec)
                short = dataclasses.replace(sc, duration=sc.duration / self.SHORTEN)
                self.ops.append(Op(f"{name}/{kind}", sc, short))

    def reference(self) -> None:
        for op in self.ops:
            log, csv, gt, pred = simulate(op.key, self.out)
            digest = sha256(csv)
            problem = None
            if digest != self.golden[(op.key.name, op.key.controller.kind.name)]:
                problem = f"{op.label}: full-length log sha256 {digest[:16]}... differs from the golden digest"
            self.expected[op.label] = (Prefix(csv, gt, pred), run_auc(log), problem)


class NccLoop(ShortenedSimulate):
    """ncc_standoff at a seed derived from the workload seed, at visibility 1 and 0.1.

    Each timed operation simulates 0.6 s, enough for the 0.1 variant to
    lose the target and hold, and at most seeds to search. A 2 s reference run per
    visibility, made once and untimed, must keep AUC >= 95 at visibility 1,
    and every timed operation must equal the first lines of its reference,
    so repeats are identical too. Only visibility 1 counts towards
    track_auc_pct: at 0.1 the tracker loses the target almost at once, and
    its AUC measures chance reacquisitions.
    """

    name = "ncc_loop"
    scenarios = ("ncc_standoff",)
    min_cycles = 2
    VISIBILITIES = (1.0, 0.1)
    MIN_AUC = 95.0  # acceptance criterion 6, at visibility 1
    DURATION = 0.6
    REFERENCE_DURATION = 2.0

    def __init__(self, root, seed, tmp) -> None:
        super().__init__(root, seed, tmp)
        self.run_seed = derived_seed(seed, self.name)

    def load(self) -> None:
        base = config.load_scenario(self.scenario_path("ncc_standoff"))
        self.ops = []
        for vis in self.VISIBILITIES:
            sc = dataclasses.replace(
                base, seed=self.run_seed, sea=dataclasses.replace(base.sea, visibility=vis)
            )
            label = f"ncc_standoff[seed={self.run_seed},visibility={vis}]"
            full = dataclasses.replace(sc, duration=self.REFERENCE_DURATION)
            self.ops.append(Op(label, full, dataclasses.replace(sc, duration=self.DURATION)))

    def reference(self) -> None:
        for op in self.ops:
            log, csv, gt, pred = simulate(op.key, self.out)
            auc = run_auc(log)
            problem = None
            if log.error is not None:
                problem = f"{op.label}: reference run aborted: {log.error}"
            elif op.key.sea.visibility == 1.0 and not auc >= self.MIN_AUC:
                problem = f"{op.label}: AUC {auc:.2f} below {self.MIN_AUC}"
            counted = auc if op.key.sea.visibility == 1.0 else None
            self.expected[op.label] = (Prefix(csv, gt, pred), counted, problem)


class Prefix:
    """A full-length run's outputs, which a shortened run's must begin with."""

    def __init__(self, *texts: str) -> None:
        self.lines = [text.splitlines() for text in texts]

    def starts(self, *texts: str) -> bool:
        for full, text in zip(self.lines, texts):
            lines = text.splitlines()
            if not lines or lines != full[: len(lines)]:
                return False
        return True


class Evaluate(Workload):
    """`helm-bench evaluate --curves` over three trackers x 16 sequences x 200 frames.

    The box files are generated from the workload seed. About 5% of the
    ground-truth frames are out of view, and each tracker has its own
    jitter and miss rate.
    """

    name = "evaluate"
    unit = "frames/s"
    SEQUENCES = 16
    FRAMES = 200
    # name, miss rate, centre jitter (px), relative size jitter
    TRACKERS = (("tracker_a", 0.02, 2.0, 0.03), ("tracker_b", 0.06, 5.0, 0.08), ("tracker_c", 0.12, 10.0, 0.15))

    def __init__(self, root, seed, tmp) -> None:
        super().__init__(root, seed, tmp)
        self.gt_dir = tmp / "eval" / "gt"
        self.pred_dir = tmp / "eval" / "pred"
        self.frames = self._generate(np.random.default_rng([seed, 0xE7A1]))

    def _generate(self, rng) -> int:
        """Write the box files; return the number of frames evaluate scores."""
        self.gt_dir.mkdir(parents=True)
        scored = 0
        n = self.FRAMES
        for s in range(self.SEQUENCES):
            # Box sizes and aspects are stratified over the sequences, so the
            # mix of small and large targets, which sets the AUC, barely
            # changes with the seed.
            size = 24.0 + 72.0 * (s + rng.uniform()) / self.SEQUENCES
            aspect = 0.6 + 0.8 * ((7 * s) % self.SEQUENCES + rng.uniform()) / self.SEQUENCES
            w = np.clip(size * np.exp(np.cumsum(rng.normal(0.0, 0.003, n))), 12.0, 200.0)
            h = w * aspect
            cx = np.clip(320.0 + np.cumsum(rng.normal(0.0, 3.0, n)), 60.0, 580.0)
            cy = np.clip(240.0 + np.cumsum(rng.normal(0.0, 2.0, n)), 60.0, 420.0)
            seen = np.ones(n, dtype=bool)
            gap = n // 20  # one contiguous out-of-view stretch, 5% of the frames
            first = int(rng.integers(0, n - gap))
            seen[first : first + gap] = False
            scored += int(seen.sum())
            _write_boxes(self.gt_dir / f"seq{s:02d}.txt", cx - w / 2, cy - h / 2, w, h, seen)
            for tracker, miss, jitter, size_jitter in self.TRACKERS:
                hit = seen & (rng.uniform(size=n) >= miss)
                scale = np.maximum(1.0 + rng.normal(0.0, size_jitter, n), 0.1)
                pw, ph = w * scale, h * scale
                px = cx + rng.normal(0.0, jitter, n) - pw / 2
                py = cy + rng.normal(0.0, jitter, n) - ph / 2
                out = self.pred_dir / tracker
                out.mkdir(parents=True, exist_ok=True)
                _write_boxes(out / f"seq{s:02d}.txt", px, py, pw, ph, hit)
        return scored * len(self.TRACKERS)

    def _argv(self, out_dir: Path) -> list[str]:
        return ["evaluate", "--gt", str(self.gt_dir), "--pred", str(self.pred_dir),
                "--out", str(out_dir / "report.csv"), "--curves"]

    def _outputs(self, out_dir: Path) -> tuple[bytes, bytes]:
        return (out_dir / "report.csv").read_bytes(), (out_dir / "report_curves.csv").read_bytes()

    def load(self) -> None:
        self.pools = {"cli._evaluate_tracker": cli._thread_count(16)}
        self.out = self.tmp / "eval" / "out"
        self.ops = [Op("evaluate 3 trackers x 16 sequences", None, None)]

    def reference(self) -> None:
        ref = self.tmp / "eval" / "ref"
        saved = os.environ.get("HELM_BENCH_THREADS")
        os.environ["HELM_BENCH_THREADS"] = "1"
        try:
            with redirect_stdout(io.StringIO()):
                rc = cli.main(self._argv(ref))
        finally:
            if saved is None:
                del os.environ["HELM_BENCH_THREADS"]
            else:
                os.environ["HELM_BENCH_THREADS"] = saved
        if rc != 0:
            raise RuntimeError(f"reference evaluate (HELM_BENCH_THREADS=1) exited {rc}")
        self.expected = self._outputs(ref)
        rows = [line.split(",") for line in self.expected[0].decode().splitlines()[1:]]
        self.auc = float(np.mean([float(r[1]) for r in rows]))
        reported = sum(int(r[6]) for r in rows)
        if reported != self.frames:
            raise RuntimeError(f"evaluate scored {reported} frames, expected {self.frames}")

    def execute(self, op: Op):
        with redirect_stdout(io.StringIO()):
            return cli.main(self._argv(self.out))

    def verify(self, op: Op, result) -> Outcome:
        if result != 0:
            return Outcome(self.frames, self.auc, [f"{op.label}: exit code {result}"])
        same = self._outputs(self.out) == self.expected
        problems = [] if same else [f"{op.label}: report or curves differ from the HELM_BENCH_THREADS=1 output"]
        return Outcome(self.frames, self.auc, problems)


def _write_boxes(path: Path, x, y, w, h, present) -> None:
    lines = [
        f"{a:.6f},{b:.6f},{c:.6f},{d:.6f}" if p else "nan,nan,nan,nan"
        for a, b, c, d, p in zip(x.tolist(), y.tolist(), w.tolist(), h.tolist(), present.tolist())
    ]
    path.write_text("\n".join(lines) + "\n")


WORKLOADS = {w.name: w for w in (EmulatorLoop, NccLoop, Evaluate)}
