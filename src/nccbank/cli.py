"""Command-line front end.

Subcommands cover the full pipeline: synthesize labeled data and frame
folders (``datagen``), train a filter bank (``train``), export individual
filters in float or integer form (``export-filter``), fit the hat profile
to an arbitrary filter (``fit-hat``), run one detector over one frame
(``detect``), sweep ROC curves for many methods over a frame folder
(``bench``) and re-sweep stored detections (``roc``).

Exit codes: 0 on success, 1 on runtime failure (bad file, degenerate
input, unknown method), 2 on usage errors.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import bench as bn
from . import filterbank as fb
from . import gridio
from . import irdatagen as dg
from . import nccnet as nn
from . import patchmath as pm

CLUTTER_CHOICES = ("mix",) + dg.CLUTTER_KINDS
# datagen flags named by the SceneConfig field they set on every config
_SCENE_FLAGS = ("clutter_kind", "target_amplitude", "psf_sigma", "noise_sigma",
                "bad_pixel_rate")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="nccbank",
        description="Filter banks and fixed-point scorers for small-target "
        "detection in infrared imagery.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    d = sub.add_parser(
        "datagen", help="synthesize scenes into a dataset file and/or a frame folder"
    )
    d.add_argument("--out", help="labeled dataset file to write")
    d.add_argument("--frames-dir", help="folder for raw frames + truths.csv")
    d.add_argument("--scenes", type=int, default=36, help="number of scene configs")
    d.add_argument("--frames-per-scene", type=int, default=1,
                   help="independent frames per scene config")
    d.add_argument("--seed", type=int, default=1000)
    d.add_argument("--width", type=int, default=128)
    d.add_argument("--height", type=int, default=128)
    d.add_argument("--targets", type=int, default=9, help="targets per scene")
    # scene flags: each left out keeps the recipe's value for every config
    d.add_argument("--clutter", choices=CLUTTER_CHOICES, dest="clutter_kind",
                   help="single clutter kind; mix (the recipe's) cycles "
                   "through all of them")
    d.add_argument("--amplitude", type=float, dest="target_amplitude")
    d.add_argument("--psf-sigma", type=float, dest="psf_sigma")
    d.add_argument("--noise", type=float, dest="noise_sigma")
    d.add_argument("--bad-pixel-rate", type=float, dest="bad_pixel_rate")
    d.add_argument("--negatives", type=int, default=8000,
                   help="negative budget after farthest-point thinning")
    d.add_argument("--standard", action="store_true",
                   help="use the reference training corpus recipe "
                   "(60 scenes of 256x256, 34 targets each); overrides "
                   "--scenes, --width, --height and --targets, and the scene "
                   "flags apply on top")
    d.set_defaults(func=_cmd_datagen)

    t = sub.add_parser("train", help="train a filter bank on a dataset file")
    t.add_argument("--data", required=True, help="dataset file from datagen")
    t.add_argument("--out", required=True, help="network file to write")
    t.add_argument("--filters", type=int, default=1)
    t.add_argument("--norm", choices=sorted(pm.NORM_MODES), default=pm.NORM_STD)
    t.add_argument("--epochs", type=int, dest="max_epochs")
    t.add_argument("--seed", type=int)
    t.add_argument("--lr", type=float, dest="learning_rate")
    t.add_argument("--momentum", type=float)
    t.add_argument("--weight-decay", type=float)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--holdout", type=float, dest="holdout_fraction")
    t.set_defaults(func=_cmd_train, **dataclasses.asdict(nn.TrainConfig()))

    e = sub.add_parser("export-filter", help="write one trained filter to a file")
    e.add_argument("--net", required=True, help="network file")
    e.add_argument("--index", type=int, required=True, help="filter index")
    e.add_argument("--out", required=True)
    e.add_argument("--fixed", action="store_true",
                   help="center, prescale and quantize to integer taps")
    e.add_argument("--qformat", type=int, nargs=2,
                   default=dataclasses.astuple(fb.TAP_QFORMAT),
                   metavar=("BITS", "FRAC"), help="tap format for --fixed")
    e.set_defaults(func=_cmd_export_filter)

    f = sub.add_parser("fit-hat", help="fit the hat profile to a filter grid")
    f.add_argument("--filter", required=True, dest="filter_path",
                   help="text grid to fit against")
    f.add_argument("--out", help="write the fitted hat as a text grid")
    f.set_defaults(func=_cmd_fit_hat)

    de = sub.add_parser("detect", help="run one method over one frame")
    de.add_argument("--frame", required=True, help="frame as a text grid")
    de.add_argument("--method", required=True)
    de.add_argument("--threshold", type=float, required=True)
    de.add_argument("--nms-radius", type=float, default=bn.DEFAULT_NMS_RADIUS)
    de.add_argument("--out", help="detections CSV (row,col,score)")
    de.set_defaults(func=_cmd_detect)

    b = sub.add_parser("bench", help="ROC-sweep methods over a frame folder")
    b.add_argument("--data", required=True, help="frame folder from datagen")
    b.add_argument("--methods", required=True,
                   help="comma-separated method names")
    b.add_argument("--out-dir", required=True)
    b.add_argument("--no-timing", action="store_true",
                   help="omit ms/frame so reports are byte-reproducible")
    b.add_argument("--nms-radius", type=float, default=bn.DEFAULT_NMS_RADIUS)
    b.add_argument("--match-radius", type=float, default=bn.DEFAULT_MATCH_RADIUS)
    b.add_argument("--thresholds", type=int, default=bn.DEFAULT_THRESHOLD_COUNT)
    b.set_defaults(func=_cmd_bench)

    r = sub.add_parser("roc", help="re-sweep ROC curves from stored detections")
    r.add_argument("--scores", required=True, help="a previous bench --out-dir")
    r.add_argument("--out-dir", required=True)
    r.set_defaults(func=_cmd_roc)

    return p


def _cmd_datagen(args):
    if not args.out and not args.frames_dir:
        raise ValueError("nothing to do: pass --out and/or --frames-dir")
    for flag, count in (("--scenes", args.scenes),
                        ("--frames-per-scene", args.frames_per_scene),
                        ("--negatives", args.negatives)):
        pm._count(count, flag)
    if args.frames_dir:
        dg._check_unused_frames_dir(args.frames_dir)
    if args.standard:
        recipe = dg.standard_training_configs(seed=args.seed)
    else:
        recipe = dg.training_scene_configs(
            scene_count=args.scenes,
            seed=args.seed,
            width=args.width,
            height=args.height,
            targets_per_scene=args.targets,
        )
    given = {name: value for name in _SCENE_FLAGS
             if (value := getattr(args, name)) not in (None, "mix")}
    # rep 0 keeps the recipe's seed: recipe seeds are drawn below 2**31
    configs = [
        dataclasses.replace(c, rng_seed=(c.rng_seed + 7919 * rep) % 2**31, **given)
        for c in recipe
        for rep in range(args.frames_per_scene)
    ]
    scenes = [dg.synth_scene(c) for c in configs]
    print(f"synthesized {len(scenes)} scenes "
          f"({sum(len(s.truths) for s in scenes)} targets)")
    if args.frames_dir:
        dg.write_frames(args.frames_dir, scenes)
        print(f"wrote frames to {args.frames_dir}")
    if args.out:
        samples = dg._training_set(scenes, args.negatives, args.seed)
        dg.write_dataset(samples, args.out)
        n_pos = int(np.count_nonzero(samples["label"] == 1))
        print(f"wrote {n_pos} positives + {len(samples) - n_pos} negatives "
              f"to {args.out}")
    return 0


def _cmd_train(args):
    # the flags are checked before the dataset is read and augmented
    config = nn.TrainConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(nn.TrainConfig)})
    net = nn.init_network(
        num_filters=args.filters, filter_size=dg.CORE_SIZE,
        norm_mode=args.norm, seed=args.seed,
    )
    samples = dg.read_dataset(args.data)
    patches, labels = dg.augmented_arrays(samples)
    n_pos = int(np.sum(labels > 0))
    print(f"{len(samples)} stored samples -> {patches.shape[0]} after "
          f"augmentation ({n_pos} positive)")
    history = nn.train(net, patches, labels, config)
    for ep in history.epochs:
        print(f"epoch {ep.epoch + 1}: loss={ep.mean_loss:.6f} "
              f"filter_change={ep.filter_rel_change:.4%} "
              f"holdout_acc={ep.holdout_accuracy:.4f}")
    nn.save_network(net, args.out)
    print(f"saved network to {args.out} "
          f"(final holdout accuracy {history.final_accuracy:.4f})")
    return 0


def _cmd_export_filter(args):
    net = nn.load_network(args.net)
    pm._count(args.index, "--index", 0, net.num_filters - 1)
    grid = net.filters[args.index]
    if args.fixed:
        qf = fb.QFormat(*args.qformat)
        raw = fb.prepare_fixed_taps(grid, qf)
        fb.save_quantized_filter(args.out, raw, qf)
        print(f"wrote quantized filter {args.index} "
              f"(Q{qf.total_bits}.{qf.frac_bits}) to {args.out}")
    else:
        gridio.write_grid(grid, args.out)
        print(f"wrote filter {args.index} to {args.out}")
    return 0


def _cmd_fit_hat(args):
    grid = gridio.read_grid(args.filter_path)
    params, similarity = fb.fit_hat(grid)
    print(f"support_halfwidth={params.support_halfwidth!r}")
    print(f"ricker_sigma={params.ricker_sigma!r}")
    print(f"pit_depth={params.pit_depth!r}")
    print(f"pit_radius={params.pit_radius!r}")
    print(f"similarity={similarity!r}")
    if args.out:
        size = np.asarray(grid).shape[0]
        gridio.write_grid(fb.ricker_hat_grid(size, params), args.out)
        print(f"wrote fitted hat to {args.out}")
    return 0


def _cmd_detect(args):
    frame = gridio.read_grid(args.frame)
    scorer = bn.resolve_method(args.method)
    dets = bn.sliding_detect(frame, scorer, args.threshold, args.nms_radius)
    for d in dets:
        print(f"{d.row},{d.col},{d.score!r}")
    if args.out:
        bn._write_csv(args.out, ["row", "col", "score"],
                      ([d.row, d.col, repr(d.score)] for d in dets))
    print(f"{len(dets)} detections above {args.threshold}")
    return 0


def _cmd_bench(args):
    cfg = bn.BenchConfig(
        nms_radius=args.nms_radius,
        match_radius=args.match_radius,
        threshold_count=args.thresholds,
        include_timing=not args.no_timing,
    )
    methods = [m for m in args.methods.split(",") if m]
    if not methods:
        raise ValueError("no methods given")
    frames, truths = dg.read_frames(args.data)
    report = bn.run_benchmark(frames, truths, methods, cfg)
    bn.write_benchmark_report(report, args.out_dir)
    for r in report.results:
        ms = "-" if r.ms_per_frame is None else f"{r.ms_per_frame:.2f}"
        print(f"{r.name}: auc={r.curve.auc:.4f} ms/frame={ms}")
    print(f"wrote report to {args.out_dir}")
    return 0


def _cmd_roc(args):
    report = bn.resweep_roc(args.scores, args.out_dir)
    for r in report.results:
        print(f"{r.name}: auc={r.curve.auc:.4f}")
    print(f"wrote report to {args.out_dir}")
    return 0


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 2
        return 0 if exc.code in (0, None) else exc.code
    try:
        return args.func(args)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    sys.exit(cli_main())
