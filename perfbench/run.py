"""nccbank benchmark: three workloads, end-to-end metrics and a traced run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bench-48 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then runs whole passes of its operation sequence in one closed
loop until at least ``--seconds`` of pass wall time have been measured, and
checks every pass's outputs.  Both times are in seconds at a reference host
speed (hostspeed.py), which divides out the shared host's speed drift.
``--trace 1`` runs one untraced set-up and pass, then the same again with
every public nccbank function wrapped, checks that both give identical
outputs and reports per-layer numbers.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import gc
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import envinfo
from hostspeed import ScaledClock

envinfo.limit_blas_threads()  # before numpy is imported anywhere

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("bench-48", "train-ref", "cli-pipeline")

# End-to-end metrics every workload reports (name -> unit).
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}

# Reported by the workloads they apply to; printed, not in the JSON line.
WORKLOAD_METRICS = {"bench.frames_per_s": "1/s", "train.samples_per_s": "1/s",
                    "failed_frac": "ratio"}

MODULES = ("irdatagen", "gridio", "patchmath", "nccnet", "filterbank", "bench", "cli")
LABELS = ("hat15-ideal", "gauss-1.2", "mad-ratio", "hat7-fixed-mad",
          "hat5-fixed-mad", "net", "qfilter")
CLI_STEPS = ("datagen", "train", "export-filter", "fit-hat", "detect", "bench", "roc")

# Per-layer metrics of the JSON line: those every workload measures (the
# times of layers all three run, and exact counts).  The traced run prints
# the full per-layer list by name, with n/a for layers a workload skips.
PER_LAYER = (
    [("irdatagen.synth_scene.ms_p50", "ms"),
     ("irdatagen.self_s", "s"),
     ("patchmath.self_s", "s"),
     ("nccnet.self_s", "s"),
     ("nccnet.normalize_flat_batch.s", "s"),
     ("nccnet.forward_batch.s", "s"),
     ("nccnet.normalize_flat_batch.rows", "count"),
     ("nccnet.normalize_rows_per_patch", "ratio"),
     ("nccnet.loss_and_gradients.calls", "count"),
     ("nccnet.train.skipped_degenerate", "count"),
     ("gridio.bytes_read", "bytes"),
     ("gridio.bytes_written", "bytes"),
     ("filterbank.degenerate_windows", "count")]
    + [(f"bench.candidates_per_frame.{m}", "count") for m in LABELS]
    + [(f"{m}.errors", "count") for m in MODULES]
    + [("trace_overhead_frac", "ratio")]
)


def _median(values):
    return float(statistics.median(values))


def _pct_ms(values, q):
    import numpy as np

    return float(np.percentile(values, q)) * 1000.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_env(env, working_set):
    print("# environment")
    for key, value in env.items():
        print(f"  {key}: {value}")
    for key, value in working_set.items():
        print(f"  working_set.{key}: {value} bytes "
              f"(L2 {env['l2_cache']}, L3 {env['l3_cache']})")


def _print_checks(checks):
    print(f"# checks: {checks.attempted - checks.failed}/{checks.attempted} operations correct")
    for msg in checks.messages[:20]:
        print(f"  FAIL {msg}")
    if len(checks.messages) > 20:
        print(f"  ... {len(checks.messages) - 20} more")


def _result(checks, metrics):
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_timed(wl, seconds, reference, checks):
    """Set up ``setup_repeats`` times, then run passes for ``seconds``.

    Times are in seconds at the reference host speed (see hostspeed.py);
    the report also prints the wall times.
    """
    setups = []
    passes = []
    work = []
    state = last = None
    with ScaledClock() as clock:
        for _ in range(wl.setup_repeats):
            state = None
            gc.collect()
            with clock.region() as timed:
                state = wl.setup()
            # a set-up that runs in a child process times itself there
            setups.append(state.pop("child_timed", timed))

        while sum(p["wall_s"] for p in passes) < seconds or not passes:
            checks.scope = f"pass{len(passes)}:"
            try:
                with clock.region() as timed:
                    outputs = wl.run_pass(state)
            except Exception as exc:  # a raising pass fails; the run goes on
                checks.expect("pass", False, f"raised {exc!r}")
                passes.append(timed)
                continue
            passes.append(timed)
            wl.check(state, outputs, reference, checks)
            work.append(wl.work(state, outputs, timed["wall_s"]))
            last = outputs

    metrics = {
        "setup_s": (_median([s["scaled_s"] for s in setups]), "s"),
        "pipeline_s": (_median([p["scaled_s"] for p in passes]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "setup_wall_s": (_median([s["wall_s"] for s in setups]), "s"),
        "pipeline_wall_s": (_median([p["wall_s"] for p in passes]), "s"),
        "host_slowness": (_median(clock.slowness), "ratio"),
    }
    for name in sorted({k for w in work for k in w}):
        extra[name] = (_median([w[name][0] for w in work]), work[0][name][1])
    extra["failed_frac"] = (checks.failed / max(checks.attempted, 1), "ratio")
    ws = wl.working_set(state, last) if last is not None else {}
    info = {"setups": setups, "passes": passes}
    return metrics, extra, ws, info


def layer_metrics(tracer, wl, state, overhead):
    """Every per-layer metric by name; None where the layer did not run."""
    summary = tracer.summary()
    counts = tracer.counts
    m = {}

    def self_s(name):
        return (summary[name]["self_s"] if name in summary else None, "s")

    def pct(name, q, key="durations"):
        if name not in summary:
            return (None, "ms")
        return (_pct_ms(summary[name][key], q), "ms")

    m["irdatagen.synth_scene.ms_p50"] = pct("irdatagen.synth_scene", 50)
    for fn in ("subsample_negatives", "augmented_arrays", "write_dataset",
               "read_dataset", "write_frames", "read_frames"):
        m[f"irdatagen.{fn}.s"] = self_s(f"irdatagen.{fn}")
    m["gridio.read_grid.s"] = self_s("gridio.read_grid")
    m["gridio.write_grid.s"] = self_s("gridio.write_grid")
    m["gridio.bytes_read"] = (counts.get("gridio.bytes_read", 0), "bytes")
    m["gridio.bytes_written"] = (counts.get("gridio.bytes_written", 0), "bytes")

    m["nccnet.normalize_flat_batch.s"] = self_s("nccnet.normalize_flat_batch")
    rows = counts.get("nccnet.normalize_flat_batch.rows", 0)
    m["nccnet.normalize_flat_batch.rows"] = (rows, "count")
    m["nccnet.normalize_rows_per_patch"] = (
        rows / wl.distinct_patches(state, counts), "ratio")
    m["nccnet.loss_and_gradients.s"] = self_s("nccnet.loss_and_gradients")
    m["nccnet.loss_and_gradients.calls"] = (
        summary["nccnet.loss_and_gradients"]["calls"]
        if "nccnet.loss_and_gradients" in summary else 0, "count")
    m["nccnet.forward_batch.s"] = self_s("nccnet.forward_batch")
    m["patchmath.backprop_normalization.s"] = self_s("patchmath.backprop_normalization")
    m["nccnet.train.skipped_degenerate"] = (
        counts.get("nccnet.train.skipped_degenerate", 0), "count")

    for label in LABELS:
        name = f"bench.score.{label}"
        m[f"{name}.ms_p50"] = pct(name, 50)
        m[f"{name}.ms_p95"] = pct(name, 95)
        frames = counts.get(f"bench.frames.{label}", 0)
        m[f"bench.candidates_per_frame.{label}"] = (
            counts.get(f"bench.candidates.{label}", 0) / frames if frames else None, "count")
        lo, hi = tracer.score_range.get(label, (None, None))
        m[f"bench.score_min.{label}"] = (lo, "score")
        m[f"bench.score_max.{label}"] = (hi, "score")
    m["filterbank.mad_ncc_fixed_response.s"] = self_s("filterbank.mad_ncc_fixed_response")
    m["filterbank.degenerate_windows"] = (counts.get("filterbank.degenerate_windows", 0),
                                          "count")
    m["bench.detect_candidates.self_ms_p50"] = pct(
        "bench.detect_candidates", 50, "self_durations")
    for fn in ("roc_curve", "write_benchmark_report", "resweep_roc", "resolve_method"):
        m[f"bench.{fn}.s"] = self_s(f"bench.{fn}")
    m["filterbank.fit_hat.s"] = self_s("filterbank.fit_hat")
    for step in CLI_STEPS:
        name = f"op.cli.{step}"  # whole subcommand, as the caller sees it
        m[f"cli.{step}.s"] = ((summary[name]["total_s"] if name in summary else None), "s")

    for mod in MODULES:
        own = [rec["self_s"] for name, rec in summary.items() if name.startswith(mod + ".")]
        m[f"{mod}.self_s"] = (sum(own) if own else None, "s")
        m[f"{mod}.errors"] = (tracer.errors.get(mod, 0), "count")
    m["trace_overhead_frac"] = (overhead, "ratio")
    return m


def run_traced(wl, reference, checks):
    """Untraced set-up and pass, then both traced; the outputs must be
    identical, and the pass times give the tracing overhead."""
    from nccbank import bench as bn
    from nccbank import cli, filterbank, gridio, irdatagen, nccnet, patchmath

    from spans import Tracer

    state = wl.setup()
    start = time.perf_counter()
    outputs = wl.run_pass(state)
    untraced_s = time.perf_counter() - start
    checks.scope = "untraced:"
    wl.check(state, outputs, reference, checks)
    plain = wl.fingerprint(outputs)
    plain_setup = wl.setup_digest(state)
    state = outputs = None
    gc.collect()

    modules = {"irdatagen": irdatagen, "gridio": gridio, "patchmath": patchmath,
               "nccnet": nccnet, "filterbank": filterbank, "bench": bn, "cli": cli}
    scorers = (bn.NccFilterScorer, bn.NetworkScorer, bn.MadRatioScorer, bn.FixedMadScorer)
    tracer = Tracer(modules, scorers)
    with tracer:
        with tracer.span("setup"):
            state = wl.setup()
        start = time.perf_counter()
        with tracer.span("pass"):
            outputs = wl.run_pass(state, span=tracer.span)
        traced_s = time.perf_counter() - start
    checks.scope = "traced:"
    wl.check(state, outputs, reference, checks)
    checks.scope = ""
    checks.expect("trace:outputs", wl.fingerprint(outputs) == plain,
                  "traced outputs differ from untraced outputs")
    checks.expect("trace:setup", wl.setup_digest(state) == plain_setup,
                  "traced set-up differs from untraced set-up")
    checks.expect("trace:restore", tracer.restored(), "wrappers left installed")

    metrics = layer_metrics(tracer, wl, state, traced_s / untraced_s - 1.0)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{wl.name}-seed{wl.seed}.json.gz")
    with gzip.open(path, "wt", encoding="ascii") as fh:
        tracer.write(fh, {"workload": wl.name, "seed": wl.seed,
                          "untraced_s": untraced_s, "traced_s": traced_s,
                          "metrics": {k: v for k, (v, _) in metrics.items()}})
    print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(path)}")
    print("# time waited: not applicable (nothing in nccbank queues)")
    return metrics, wl.working_set(state, outputs)


def execute(wl, reference, seconds, trace):
    """Run one workload object; prints the report and returns the result."""
    import workloads

    checks = workloads.Checks()
    env = envinfo.environment()
    if trace:
        layers, ws = run_traced(wl, reference, checks)
        _print_env(env, ws)
        print(f"# per-layer metrics: {wl.name} seed {wl.seed} (traced run)")
        for key, (value, unit) in layers.items():
            shown = "n/a" if value is None else f"{value!r} {unit}"
            print(f"  {key}: {shown}")
        metrics = {}
        for key, unit in PER_LAYER:
            value = layers[key][0]
            metrics[key] = (0 if value is None else value, unit)
    else:
        metrics, extra, ws, info = run_timed(wl, seconds, reference, checks)
        _print_env(env, ws)
        print(f"# end-to-end metrics: {wl.name} seed {wl.seed}, "
              f"{len(info['setups'])} set-ups, {len(info['passes'])} pass(es), "
              "one closed-loop caller")
        for key, (value, unit) in {**metrics, **extra}.items():
            print(f"  {key}: {value!r} {unit}")
        for key in WORKLOAD_METRICS:
            if key not in extra:
                print(f"  {key}: n/a")
        for key in ("scaled_s", "wall_s"):
            print(f"  setup_times.{key}: {[round(t[key], 4) for t in info['setups']]}")
            print(f"  pass_times.{key}: {[round(t[key], 4) for t in info['passes']]}")
    recorded = str(wl.seed) in reference.get(wl.name, {})
    print(f"# reference outputs recorded for seed {wl.seed}: "
          f"{'yes' if recorded else 'no (scalar-oracle and consistency checks only)'}")
    _print_checks(checks)
    return _result(checks, metrics)


def run_one(name, seed, seconds, trace):
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        wl = workloads.make(name, seed, workdir)
        return execute(wl, workloads.load_reference(), seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed, seconds, trace):
    """Every workload in its own process (peak RSS is per process)."""
    results = {}
    summary = []
    names = list(END_TO_END) + list(WORKLOAD_METRICS) if not trace else []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
        summary += [f"  {name} {line.strip()}" for line in lines
                    if any(line.startswith(f"  {key}: ") for key in names)]
    print("# summary")
    print("\n".join(summary))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nccbank", "__init__.py")):
        print(f"error: nccbank sources not found under {os.path.relpath(SRC)}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
