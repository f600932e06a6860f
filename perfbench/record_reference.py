"""Record the reference data the benchmark checks against.

Run once, at the commit whose outputs are the reference::

    python3 perfbench/record_reference.py --bank            # bank + filters
    python3 perfbench/record_reference.py --workload bench-48 --seeds 0-19

``--bank`` trains the fixed 4-filter STD bank used by ``bench-48`` and the
1xSTD / 1xMAD reference filters used by ``train-ref``'s cosine check, all on
the acceptance corpus (standard_training_configs seed 1000, farthest-point
thinning to 8000 negatives with seed 1000, batch 320, 5 epochs, network
seed 0), and stores the taps of the built-in methods.  ``--workload`` runs
one untraced pass per seed and merges its reference entry into
``data/reference.json``.
"""

import argparse
import json
import os
import shutil
import sys

import run  # caps BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from nccbank import bench as bn  # noqa: E402
from nccbank import filterbank as fb  # noqa: E402
from nccbank import irdatagen as dg  # noqa: E402
from nccbank import nccnet as nn  # noqa: E402
from nccbank import patchmath as pm  # noqa: E402

CORPUS_SEED = 1000
NET_SEED = 0


def _load():
    if os.path.exists(workloads.REFERENCE_PATH):
        return workloads.load_reference()
    return {name: {} for name in run.WORKLOAD_NAMES}


def _save(ref):
    """One line per seed (or per grid/filter), so diffs stay readable."""
    blocks = []
    for key, entries in sorted(ref.items()):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(entries.items(), key=lambda kv: (len(kv[0]), kv[0]))]
        blocks.append(f" {json.dumps(key)}: {{\n" + ",\n".join(rows) + "\n }")
    os.makedirs(workloads.DATA, exist_ok=True)
    tmp = workloads.REFERENCE_PATH + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    os.replace(tmp, workloads.REFERENCE_PATH)


def record_bank(ref):
    samples = dg.build_training_set(
        dg.standard_training_configs(seed=CORPUS_SEED),
        negative_budget=workloads.NEGATIVE_BUDGET, subsample_seed=CORPUS_SEED,
    )
    patches, labels = dg.augmented_arrays(samples)
    config = nn.TrainConfig(batch_size=workloads.TRAIN_BATCH, seed=NET_SEED)
    trained = {}
    for num_filters, mode in ((4, pm.NORM_STD), (1, pm.NORM_STD), (1, pm.NORM_MAD)):
        net = nn.init_network(num_filters, filter_size=dg.CORE_SIZE, norm_mode=mode,
                              seed=NET_SEED)
        nn.train(net, patches, labels, config)
        trained[(num_filters, mode)] = net
    nn.save_network(trained[(4, pm.NORM_STD)], workloads.BANK_PATH)
    ref["filters"] = {
        mode: trained[(1, mode)].filters[0].tolist() for mode in (pm.NORM_STD, pm.NORM_MAD)
    }
    hat = fb.ricker_hat_grid(15)
    ref["grids"] = {
        "hat15-ideal": fb.crop_grid(hat, bn.HAT_IDEAL_METHODS["hat15-ideal"]).tolist(),
        "gauss-1.2": fb.gaussian_grid(15, bn.GAUSS_METHODS["gauss-1.2"]).tolist(),
        "hat7-fixed-mad": fb.prepare_fixed_taps(fb.crop_grid(hat, 7)).tolist(),
        "hat5-fixed-mad": fb.prepare_fixed_taps(fb.crop_grid(hat, 5)).tolist(),
    }


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bank", action="store_true")
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-19"))
    args = parser.parse_args()
    ref = _load()
    if args.bank:
        record_bank(ref)
        _save(ref)
    if args.workload:
        workdir = os.path.join(run.OUT, f"record-{os.getpid()}")
        try:
            for seed in args.seeds:
                wl = workloads.make(args.workload, seed, workdir)
                entry = wl.reference_entry(wl.run_pass(wl.setup()))
                ref.setdefault(args.workload, {})[str(seed)] = entry
                _save(ref)
                print(args.workload, seed, entry, flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
