"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup``, runs
one *pass* (its fixed operation sequence) in ``run_pass`` and checks a
pass's outputs in ``check``.  The program only receives generated inputs.

* ``bench-48``: :func:`bench.run_benchmark` over the 48-frame 160x160
  benchmark set with six methods (four scorer kinds, windows 15/7/5).
* ``train-ref``: three :func:`nccnet.train` runs (1xSTD, 4xSTD, 1xMAD)
  sharing one acceptance corpus built in the set-up.
* ``cli-pipeline``: all seven subcommands through :func:`cli.cli_main`,
  writing and reading every file format.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from nccbank import bench as bn
from nccbank import cli
from nccbank import filterbank as fb
from nccbank import irdatagen as dg
from nccbank import nccnet as nn
from nccbank import patchmath as pm

from spans import method_label

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
BANK_PATH = os.path.join(DATA, "bank4_std.nccnet")
REFERENCE_PATH = os.path.join(DATA, "reference.json")

# Tolerances of the checks against data/reference.json, which holds the
# outputs of the program as it was when this benchmark was added.  They
# admit reordered floating-point sums (e.g. FFT or integral image scoring)
# but not a changed detector.
AUC_TOL = 1e-4               # absolute, per method
CANDIDATE_TOL = 0.005        # relative, total candidates per method
TOP_MOVED_MAX = 1            # frames whose strongest candidate may move
SCORE_TOL = 1e-9             # absolute, float scores vs scalar oracle
ACCURACY_TOL = 0.005         # absolute, final holdout accuracy
COSINE_MIN = 0.9             # learned filter vs reference filter
ORACLE_TOP = 3               # candidates per frame checked by the oracle
SWEEP_SAMPLES = 8            # thresholds re-matched per method


def no_span(name):
    return contextlib.nullcontext()


def load_reference():
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


class Checks:
    """Per-operation verdicts: an operation fails if any of its checks does."""

    def __init__(self):
        self.ops = {}
        self.messages = []
        self.scope = ""  # prefixes operation names, e.g. one per pass

    def expect(self, name, ok, message):
        name = self.scope + name
        self.ops.setdefault(name, True)
        if not ok:
            self.ops[name] = False
            self.messages.append(f"{name}: {message}")

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for ok in self.ops.values() if not ok)


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# bench-48


BENCH_METHODS = (
    "hat15-ideal",
    "gauss-1.2",
    "mad-ratio",
    "hat7-fixed-mad",
    "hat5-fixed-mad",
    "net:" + BANK_PATH,
)


def _ncc_std_oracle(grid):
    f = np.asarray(grid, dtype=float)
    fz = (f - f.mean()).ravel()
    fz /= np.linalg.norm(fz)
    n = fz.size

    def score(win):
        z = (win - win.mean()).ravel()
        ss = np.linalg.norm(z)
        if ss / np.sqrt(n - 1) <= pm.SIGMA_MIN:
            return 0.0
        return float(z @ fz / ss)

    return score


def _mad_ratio_oracle(win):
    mu = win.mean()
    mad = np.mean(np.abs(win - mu))
    if mad <= pm.MAD_MIN:
        return 0.0
    hw = win.shape[0] // 2
    return float(abs(win[hw, hw] - mu) / mad)


def _fixed_oracle(taps):
    raw = np.asarray(taps, dtype=np.int64)

    def score(win):
        res = fb.mad_ncc_fixed_score(bn.frame_to_u16(win), raw, fb.TAP_QFORMAT)
        return 0.0 if res.degenerate else float(res.value)

    return score


def _net_oracle(net):
    def score(win):
        try:
            return nn.forward(net, win)
        except pm.DegeneratePatchError:
            return 0.0

    return score


def bench_oracles(reference):
    """Scalar scorers per method label, built from the recorded taps and
    the program's scalar reference functions."""
    grids = reference["grids"]
    return {
        "hat15-ideal": (15, _ncc_std_oracle(grids["hat15-ideal"])),
        "gauss-1.2": (15, _ncc_std_oracle(grids["gauss-1.2"])),
        "mad-ratio": (15, _mad_ratio_oracle),
        "hat7-fixed-mad": (7, _fixed_oracle(grids["hat7-fixed-mad"])),
        "hat5-fixed-mad": (5, _fixed_oracle(grids["hat5-fixed-mad"])),
        "net": (15, _net_oracle(nn.load_network(BANK_PATH))),
    }


def check_candidates(checks, op, frames, per_frame, window, oracle, nms_radius):
    """Candidate lists: sorted, NMS-separated, top scores equal the scalar
    oracle and are local maxima of the oracle's response."""
    half = window // 2
    r2 = float(nms_radius) ** 2
    for fi, (frame, cands) in enumerate(zip(frames, per_frame)):
        if not cands:
            continue
        rows = np.array([d.row for d in cands], dtype=float)
        cols = np.array([d.col for d in cands], dtype=float)
        scores = np.array([d.score for d in cands])
        order_ok = bool(np.all(scores[:-1] >= scores[1:]))
        checks.expect(op, order_ok, f"frame {fi}: candidates not sorted")
        d2 = (rows[:, None] - rows[None, :]) ** 2 + (cols[:, None] - cols[None, :]) ** 2
        np.fill_diagonal(d2, np.inf)
        checks.expect(op, bool(np.all(d2 > r2)), f"frame {fi}: NMS radius violated")
        oh, ow = frame.shape[0] - window + 1, frame.shape[1] - window + 1
        for d in cands[:ORACLE_TOP]:
            r, c = d.row - half, d.col - half
            want = oracle(frame[r : r + window, c : c + window])
            checks.expect(
                op, abs(want - d.score) <= SCORE_TOL,
                f"frame {fi} ({d.row},{d.col}): score {d.score!r} != oracle {want!r}",
            )
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if (dr or dc) and 0 <= rr < oh and 0 <= cc < ow:
                        nb = oracle(frame[rr : rr + window, cc : cc + window])
                        checks.expect(
                            op, nb <= d.score + SCORE_TOL,
                            f"frame {fi} ({d.row},{d.col}): not a local maximum",
                        )


def check_sweep(checks, op, result, truths, match_radius):
    """Re-match sampled thresholds of the ROC curve with the one-to-one
    matcher and compare hit rate and false alarms per frame."""
    curve = result.curve
    picks = np.unique(np.linspace(0, curve.thresholds.size - 1, SWEEP_SAMPLES).astype(int))
    total = sum(len(t) for t in truths)
    for k in picks:
        thr = curve.thresholds[k]
        tp = fa = 0
        for cands, t in zip(result.frame_candidates, truths):
            m = bn.match_detections([d for d in cands if d.score > thr], t, match_radius)
            tp += m.true_positives
            fa += m.false_alarms
        checks.expect(
            op,
            abs(tp / total - curve.hit_rates[k]) <= 1e-12
            and abs(fa / len(truths) - curve.fa_per_frame[k]) <= 1e-12,
            f"threshold {thr!r}: ROC point differs from re-matched detections",
        )


@dataclasses.dataclass
class Bench48:
    name = "bench-48"
    setup_repeats = 9

    seed: int
    toy: bool = False  # 4 frames, for the benchmark's self-test

    @property
    def frame_count(self):
        return 4 if self.toy else 48

    def setup(self):
        scenes = [dg.synth_scene(c)
                  for c in dg.benchmark_scene_configs(self.frame_count, seed=self.seed)]
        return {
            "frames": [s.image for s in scenes],
            "truths": [s.truths for s in scenes],
        }

    def run_pass(self, state, span=no_span):
        with span("op.run_benchmark"):
            report = bn.run_benchmark(
                state["frames"], state["truths"], list(BENCH_METHODS),
                bn.BenchConfig(include_timing=False),
            )
        return {"report": report}

    def fingerprint(self, outputs):
        return [
            (method_label(r.name), r.curve.auc,
             [[(d.row, d.col, d.score) for d in c] for c in r.frame_candidates])
            for r in outputs["report"].results
        ]

    def reference_entry(self, outputs):
        return {
            method_label(r.name): {
                "auc": r.curve.auc,
                "candidates": sum(len(c) for c in r.frame_candidates),
                "top": [[c[0].row, c[0].col] if c else None for c in r.frame_candidates],
            }
            for r in outputs["report"].results
        }

    def check(self, state, outputs, reference, checks):
        report = outputs["report"]
        oracles = bench_oracles(reference)
        recorded = reference["bench-48"].get(str(self.seed))
        labels = [method_label(r.name) for r in report.results]
        for label in [method_label(m) for m in BENCH_METHODS]:
            checks.expect(f"score:{label}", label in labels, "method missing from report")
        for r in report.results:
            label = method_label(r.name)
            op = f"score:{label}"
            window, oracle = oracles[label]
            check_candidates(checks, op, state["frames"], r.frame_candidates,
                             window, oracle, report.config.nms_radius)
            check_sweep(checks, op, r, report.truths, report.config.match_radius)
            if recorded is not None:
                ref = recorded[label]
                got = sum(len(c) for c in r.frame_candidates)
                checks.expect(op, abs(r.curve.auc - ref["auc"]) <= AUC_TOL,
                              f"auc {r.curve.auc!r} vs reference {ref['auc']!r}")
                checks.expect(
                    op, abs(got - ref["candidates"]) <= CANDIDATE_TOL * ref["candidates"],
                    f"{got} candidates vs reference {ref['candidates']}",
                )
                moved = sum(
                    (c[0].row, c[0].col) != tuple(want) if c and want else bool(c) != bool(want)
                    for c, want in zip(r.frame_candidates, ref["top"])
                )
                checks.expect(op, moved <= TOP_MOVED_MAX,
                              f"strongest candidate moved in {moved} frames")

    def work(self, state, outputs, pass_s):
        scorings = self.frame_count * len(BENCH_METHODS)
        return {"bench.frames_per_s": (scorings / pass_s, "1/s")}

    def setup_digest(self, state):
        return _digest(state["frames"])

    def working_set(self, state, outputs):
        return {"frames": sum(f.nbytes for f in state["frames"])}

    def distinct_patches(self, state, counts):
        # 15x15 windows of the frames: the NCC and net scorers all see them
        return sum((f.shape[0] - 14) * (f.shape[1] - 14) for f in state["frames"])


# ---------------------------------------------------------------------------
# train-ref


TRAIN_CONFIGS = ((1, pm.NORM_STD), (4, pm.NORM_STD), (1, pm.NORM_MAD))
TRAIN_BATCH = 320
NEGATIVE_BUDGET = 8000


def config_label(num_filters, mode):
    return f"{num_filters}x{mode}"


@dataclasses.dataclass
class TrainRef:
    name = "train-ref"
    setup_repeats = 3

    seed: int
    toy: bool = False  # 8 small scenes and batch 40, for the benchmark's self-test

    def setup(self):
        if self.toy:
            configs = dg.training_scene_configs(scene_count=8, seed=self.seed)
            budget = 200
        else:
            configs = dg.standard_training_configs(seed=self.seed)
            budget = NEGATIVE_BUDGET
        samples = dg.build_training_set(configs, negative_budget=budget,
                                        subsample_seed=self.seed)
        patches, labels = dg.augmented_arrays(samples)
        return {"patches": patches, "labels": labels}

    def setup_digest(self, state):
        return _digest([state["patches"], state["labels"]])

    def run_pass(self, state, span=no_span):
        runs = []
        for num_filters, mode in TRAIN_CONFIGS:
            label = config_label(num_filters, mode)
            with span(f"op.train.{label}"):
                net = nn.init_network(num_filters, filter_size=dg.CORE_SIZE,
                                      norm_mode=mode, seed=self.seed)
                start = time.perf_counter()
                batch = 40 if self.toy else TRAIN_BATCH
                history = nn.train(net, state["patches"], state["labels"],
                                   nn.TrainConfig(batch_size=batch, seed=self.seed))
                runs.append((label, net, history, time.perf_counter() - start))
        return {"runs": runs}

    def fingerprint(self, outputs):
        return [
            (label, _digest([net.filters, net.weights]),
             [dataclasses.astuple(ep) for ep in history.epochs])
            for label, net, history, _ in outputs["runs"]
        ]

    def reference_entry(self, outputs):
        return {label: history.final_accuracy
                for label, _, history, _ in outputs["runs"]}

    def check(self, state, outputs, reference, checks):
        recorded = reference["train-ref"].get(str(self.seed))
        ref_filters = reference["filters"]
        for label, net, history, _ in outputs["runs"]:
            op = f"train:{label}"
            checks.expect(op, len(history.epochs) == 5, f"{len(history.epochs)} epochs")
            checks.expect(op, history.final_accuracy > 0.9,
                          f"holdout accuracy {history.final_accuracy}")
            if net.num_filters == 1:  # the gate's convergence check is per filter
                rel = min(ep.filter_rel_change for ep in history.epochs)
                checks.expect(op, rel < 0.05, f"smallest filter change {rel}")
            ref = np.array(ref_filters[net.norm_mode])
            cos = max(nn.filter_similarity(f, ref) for f in net.filters)
            checks.expect(op, cos >= COSINE_MIN, f"cosine {cos} to the reference filter")
            if recorded is not None:
                want = recorded[label]
                checks.expect(op, abs(history.final_accuracy - want) <= ACCURACY_TOL,
                              f"accuracy {history.final_accuracy} vs reference {want}")

    def work(self, state, outputs, pass_s):
        samples = sum(h.train_size * len(h.epochs) for _, _, h, _ in outputs["runs"])
        train_s = sum(t for *_, t in outputs["runs"])
        return {"train.samples_per_s": (samples / train_s, "1/s")}

    def working_set(self, state, outputs):
        return {"corpus": state["patches"].nbytes + state["labels"].nbytes}

    def distinct_patches(self, state, counts):
        # each training is offered the whole corpus once
        return len(TRAIN_CONFIGS) * state["patches"].shape[0]


# ---------------------------------------------------------------------------
# cli-pipeline


CLI_SIZES = {  # scenes, targets per scene, negative budget, epochs
    False: (20, 6, 400, 10),
    True: (3, 6, 40, 2),
}
DETECT_THRESHOLD = "0.5"
QFILTER = "qfilter:f0.qfilter"
NET = "net:bank.nccnet"


def cli_steps(seed, toy=False):
    s = str(seed)
    scenes, targets, negatives, epochs = CLI_SIZES[toy]
    return [
        ["datagen", "--scenes", str(scenes), "--targets", str(targets),
         "--amplitude", "80", "--noise", "3", "--seed", s,
         "--negatives", str(negatives), "--out", "train.nccd",
         "--frames-dir", "frames"],
        ["train", "--data", "train.nccd", "--out", "bank.nccnet", "--filters", "1",
         "--epochs", str(epochs), "--seed", s],
        ["export-filter", "--net", "bank.nccnet", "--index", "0", "--out", "f0.txt"],
        ["export-filter", "--net", "bank.nccnet", "--index", "0", "--fixed",
         "--out", "f0.qfilter"],
        ["fit-hat", "--filter", "f0.txt", "--out", "hat.txt"],
        ["detect", "--frame", os.path.join("frames", "frame_0000.txt"),
         "--method", QFILTER, "--threshold", DETECT_THRESHOLD, "--out", "detect.csv"],
        ["bench", "--data", "frames", "--methods", f"{NET},{QFILTER}", "--no-timing",
         "--out-dir", "report"],
        ["roc", "--scores", "report", "--out-dir", "roc"],
    ]


# Run by a child interpreter: `python -m nccbank.cli --help`, timed from
# the first import of nccbank to the parser's exit.
CLI_STARTUP = """
import contextlib, io, json, runpy, sys
from hostspeed import ScaledClock
sys.argv = ["nccbank", "--help"]
with ScaledClock() as clock, clock.region() as timed:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        runpy.run_module("nccbank.cli", run_name="__main__")
print(json.dumps(timed))
"""


@dataclasses.dataclass
class CliPipeline:
    name = "cli-pipeline"
    setup_repeats = 7

    seed: int
    workdir: str
    toy: bool = False  # 3 scenes, for the benchmark's self-test

    def setup(self):
        # The pipeline's fixed entry cost: a fresh interpreter importing the
        # CLI and building its parser, as every shell invocation pays.  The
        # child times this itself, so that the host speed it is scaled by
        # is that of the CPU the child runs on (see hostspeed.py).
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(HERE), "src")
        env["PYTHONPATH"] = os.pathsep.join([src, HERE, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", CLI_STARTUP],
            env=env, check=True, stdout=subprocess.PIPE, text=True, timeout=120,
        )
        return {"child_timed": json.loads(proc.stdout.splitlines()[-1])}

    def run_pass(self, state, span=no_span):
        ws = os.path.join(self.workdir, "cli")
        shutil.rmtree(ws, ignore_errors=True)
        os.makedirs(ws)
        codes = []
        cwd = os.getcwd()
        os.chdir(ws)
        try:
            for argv in cli_steps(self.seed, self.toy):
                out = io.StringIO()
                with span(f"op.cli.{argv[0]}"), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(out):
                    rc = cli.cli_main(argv)
                codes.append((argv[0] + (" --fixed" if "--fixed" in argv else ""), rc,
                              out.getvalue()))
            files = {}
            for root, _, names in os.walk("."):
                for n in names:
                    p = os.path.join(root, n)
                    with open(p, "rb") as fh:
                        files[os.path.normpath(p)] = fh.read()
        finally:
            os.chdir(cwd)
            shutil.rmtree(ws, ignore_errors=True)
        return {"codes": codes, "files": files}

    def fingerprint(self, outputs):
        return [(s, rc) for s, rc, _ in outputs["codes"]], {
            k: hashlib.sha256(v).hexdigest() for k, v in sorted(outputs["files"].items())
        }

    def _aucs(self, files):
        rows = files.get(os.path.join("report", "auc.csv"), b"").decode().splitlines()
        return {method_label(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}

    def reference_entry(self, outputs):
        return self._aucs(outputs["files"])

    def check(self, state, outputs, reference, checks):
        files = outputs["files"]
        for step, rc, text in outputs["codes"]:
            checks.expect(f"cli:{step}", rc == 0, f"exit {rc}: {text.strip()[-200:]}")
        for name in ("auc.csv", "roc.csv"):
            a = files.get(os.path.join("report", name))
            b = files.get(os.path.join("roc", name))
            checks.expect("cli:roc", a is not None and a == b,
                          f"roc/{name} differs from report/{name}")
        # detect must equal bench's stored candidates of frame 0 above the
        # threshold, in the same order and with the same repr scores
        det = files.get("detect.csv", b"").decode().splitlines()[1:]
        prefix = os.path.join("report", "detections", "qfilter")
        dump = b"".join(v for k, v in files.items() if k.startswith(prefix))
        stored = [r.split(",") for r in dump.decode().splitlines()[1:]]
        want = [",".join(r[1:]) for r in stored
                if r[0] == "0" and float(r[3]) > float(DETECT_THRESHOLD)]
        checks.expect("cli:detect", det == want and len(det) > 0,
                      f"{len(det)} detections vs {len(want)} stored above threshold")
        recorded = reference["cli-pipeline"].get(str(self.seed))
        if recorded is not None:
            aucs = self._aucs(files)
            for label, want_auc in recorded.items():
                got = aucs.get(label)
                checks.expect("cli:bench", got is not None and abs(got - want_auc) <= AUC_TOL,
                              f"{label} auc {got!r} vs reference {want_auc!r}")

    def work(self, state, outputs, pass_s):
        return {}

    def setup_digest(self, state):
        return ""  # the set-up produces no data

    def working_set(self, state, outputs):
        files = outputs["files"]
        return {
            "dataset_file": len(files.get("train.nccd", b"")),
            "frame_files": sum(len(v) for k, v in files.items()
                               if k.startswith("frames" + os.sep)),
        }

    def distinct_patches(self, state, counts):
        # the training set once, plus the 15x15 windows of the frames the
        # net method scores (default 128x128 datagen frames)
        return counts["nccnet.train.patches"] + CLI_SIZES[self.toy][0] * (128 - 14) ** 2


def make(name, seed, workdir, toy=False):
    if name == Bench48.name:
        return Bench48(seed, toy)
    if name == TrainRef.name:
        return TrainRef(seed, toy)
    if name == CliPipeline.name:
        return CliPipeline(seed, workdir, toy)
    raise KeyError(name)
