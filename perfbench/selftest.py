"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics run.py prints,
that every workload prints every metric with its unit in both modes, that
two traced runs of one seed give identical exact counts, that a corrupted
reference makes operations fail, and that run.py refuses to run
without the program's sources.  Exits 1 on the first failed check.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import run  # caps BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402

ROOT = os.path.dirname(run.HERE)
SEED = 3

# Exact counts that must repeat between traced runs of one seed.
EXACT = (
    ["nccnet.normalize_flat_batch.rows", "nccnet.normalize_rows_per_patch",
     "nccnet.loss_and_gradients.calls", "nccnet.train.skipped_degenerate",
     "filterbank.degenerate_windows", "gridio.bytes_read", "gridio.bytes_written"]
    + [f"bench.candidates_per_frame.{m}" for m in run.LABELS]
)

# Per-layer names the traced run prints (beyond the JSON subset).
PRINTED = (
    ["irdatagen.subsample_negatives.s", "irdatagen.augmented_arrays.s",
     "irdatagen.write_dataset.s", "irdatagen.read_dataset.s",
     "irdatagen.write_frames.s", "irdatagen.read_frames.s",
     "gridio.read_grid.s", "gridio.write_grid.s",
     "nccnet.loss_and_gradients.s", "patchmath.backprop_normalization.s",
     "filterbank.mad_ncc_fixed_response.s", "bench.detect_candidates.self_ms_p50",
     "bench.roc_curve.s", "bench.write_benchmark_report.s", "bench.resweep_roc.s",
     "bench.resolve_method.s", "filterbank.fit_hat.s"]
    + [f"cli.{step}.s" for step in run.CLI_STEPS]
    + [f"bench.score.{m}.ms_p{q}" for m in run.LABELS for q in (50, 95)]
    + [f"bench.score_{e}.{m}" for m in run.LABELS for e in ("min", "max")]
)


PASSED = []


def expect(ok, message):
    if not ok:
        print(f"selftest FAILED: {message}")
        sys.exit(1)
    PASSED.append(message)


def quiet_execute(wl, reference, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.execute(wl, reference, 0, trace)
    text = out.getvalue()
    line = json.dumps(result)
    parsed = json.loads(line)
    expect(set(parsed) == {"correct", "attempted", "failed", "metrics"},
           f"{wl.name}: result keys")
    expect(isinstance(parsed["attempted"], int) and parsed["attempted"] >= 1,
           f"{wl.name}: attempted is a positive whole number")
    return parsed, text


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(layers == dict(run.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads match run.py")


def check_workload(name, base_reference, workdir):
    wl = workloads.make(name, SEED, workdir, toy=True)
    reference = copy.deepcopy(base_reference)
    reference[name] = {str(SEED): wl.reference_entry(wl.run_pass(wl.setup()))}

    result, text = quiet_execute(wl, reference, trace=0)
    clean_failed = result["failed"]
    if name != "train-ref":  # toy trainings stop short of the 0.05 filter-change gate
        expect(clean_failed == 0, f"{name}: clean toy run has no failures")
    expect({k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END,
           f"{name}: every end-to-end metric with its unit")
    expect(all(v["value"] > 0 for v in result["metrics"].values()),
           f"{name}: end-to-end metrics are positive")
    for key in list(run.END_TO_END) + list(run.WORKLOAD_METRICS):
        expect(f"  {key}: " in text, f"{name}: prints {key}")

    traced = []
    for _ in range(2):
        result, text = quiet_execute(wl, reference, trace=1)
        expect("FAIL trace:" not in text, f"{name}: traced outputs equal untraced outputs")
        expect({k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER),
               f"{name}: every per-layer metric with its unit")
        for key in PRINTED:
            expect(f"  {key}: " in text, f"{name}: traced run prints {key}")
        traced.append(result["metrics"])
    for key in EXACT:
        expect(traced[0][key] == traced[1][key], f"{name}: {key} repeats exactly")

    broken = copy.deepcopy(reference)
    entry = broken[name][str(SEED)]
    for key in entry:
        if isinstance(entry[key], dict):
            entry[key]["auc"] += 0.5
        else:
            entry[key] += 0.5
    result, _ = quiet_execute(wl, broken, trace=0)
    expect(result["failed"] > clean_failed, f"{name}: a corrupted reference fails operations")


def check_refuses_without_sources(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "bench-48",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without src/ run.py exits non-zero and prints no result")


def main():
    check_benchmark_json()
    base = workloads.load_reference()
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in run.WORKLOAD_NAMES:
            check_workload(name, base, workdir)
        check_refuses_without_sources(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest passed: {len(PASSED)} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
