"""Train a small NCC filter bank on synthetic scenes and look at what
came out: convergence, holdout accuracy, how hat-like the filter is, and
what happens when you train four filters on the same task.

Run: python3 demos/02_train_filter_bank.py   (about fifteen seconds)
"""

import dataclasses

import numpy as np

from nccbank import filterbank as fb
from nccbank import irdatagen as dg
from nccbank import nccnet as nn
from nccbank import patchmath as pm


def build_data(scene_count=60, seed=4):
    configs = [
        dataclasses.replace(c, target_amplitude=80.0, noise_sigma=3.0)
        for c in dg.training_scene_configs(scene_count=scene_count, seed=seed,
                                           targets_per_scene=8)
    ]
    samples = dg.build_training_set(configs, negative_budget=2500,
                                    subsample_seed=seed)
    patches, labels = dg.augmented_arrays(samples)
    n_pos = int(np.count_nonzero(samples["label"] == 1))
    print(f"{scene_count} scenes -> {n_pos} positives, "
          f"{len(samples) - n_pos} negatives kept")
    print(f"after 64x/4x augmentation: {patches.shape[0]} samples "
          f"({int(np.sum(labels > 0))} positive)")
    return patches, labels


def show_history(history):
    print("epoch  mean_loss  filter_change  holdout_acc")
    for ep in history.epochs:
        print(f"{ep.epoch + 1:5d}  {ep.mean_loss:9.6f}  "
              f"{ep.filter_rel_change:12.2%}  {ep.holdout_accuracy:11.4f}")


def main():
    patches, labels = build_data()

    print()
    print("=== single STD-mode filter ===")
    net = nn.init_network(1, filter_size=15, norm_mode=pm.NORM_STD, seed=0)
    history = nn.train(net, patches, labels,
                       nn.TrainConfig(batch_size=320, seed=0))
    show_history(history)

    filt = net.filters[0]
    params, similarity = fb.fit_hat(filt)
    print()
    print("best-fit hat profile for the learned filter:")
    print(f"  support_halfwidth = {params.support_halfwidth:.3f} sigma")
    print(f"  pit_depth = {params.pit_depth:.3f}, pit_radius = {params.pit_radius:.3f}")
    print(f"  similarity to generated hat = {similarity:.4f}")
    center = filt[7, 7]
    ring = float(np.mean([filt[6, 7], filt[8, 7], filt[7, 6], filt[7, 8]]))
    print(f"  center tap {center:+.4f} vs 4-neighbor ring mean {ring:+.4f}"
          f"  ({'pit present' if center < ring else 'no pit'})")

    print()
    print("=== four filters, same data ===")
    net4 = nn.init_network(4, filter_size=15, norm_mode=pm.NORM_STD, seed=0)
    nn.train(net4, patches, labels, nn.TrainConfig(batch_size=320, seed=0))
    print("pairwise |similarity| between learned filters:")
    for i in range(4):
        row = " ".join(
            f"{abs(nn.filter_similarity(net4.filters[i], net4.filters[j])):.3f}"
            if j != i else "  -  "
            for j in range(4)
        )
        print(f"  filter {i}: {row}")
    print(f"max pairwise |similarity| = {nn.max_pairwise_similarity(net4):.4f}")
    print("extra capacity converges to near-duplicates of one solution --")
    print("the task wants one matched filter, not four different ones.")


if __name__ == "__main__":
    main()
