"""Walk through the scoring core: patch statistics, the two
normalizations, score bounds, affine invariance, and why the analytic
backward pass can be trusted.

Run: python3 demos/01_ncc_basics.py
"""

import numpy as np

from nccbank import patchmath as pm


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    rng = np.random.default_rng(7)

    banner("patch statistics")
    p = np.array([[1.0, 2.0], [3.0, 4.0]])
    print("patch:", p.tolist())
    print(f"mean = {p.mean()}")
    print(f"std  = {p.std(ddof=1):.6f}   (sample convention, n-1)")
    print(f"mad  = {np.abs(p - p.mean()).mean()}   (mean absolute deviation)")

    banner("normalization: same patch, two dispersion measures")
    print("std-normalized:")
    print(pm.normalize(p, pm.NORM_STD))
    print("mad-normalized:")
    print(pm.normalize(p, pm.NORM_MAD))
    print("both are zero-mean; the std one is also unit-norm, which is")
    print("what bounds STD scores to [-1, 1].")

    banner("scores are cosine similarities (std mode)")
    blob = np.exp(-((np.arange(9) - 4.0) ** 2) / 8.0)
    blob = blob[:, None] * blob[None, :]
    noise = rng.normal(size=(9, 9))
    print(f"blob   vs itself : {pm.ncc_score(blob, blob, pm.NORM_STD):+.6f}")
    print(f"blob   vs -blob  : {pm.ncc_score(-blob, blob, pm.NORM_STD):+.6f}")
    print(f"noise  vs blob   : {pm.ncc_score(noise, blob, pm.NORM_STD):+.6f}")
    worst = max(
        abs(pm.ncc_score(rng.normal(size=(9, 9)), blob, pm.NORM_STD))
        for _ in range(2000)
    )
    print(f"max |score| over 2000 random patches: {worst:.9f}  (bound 1.0)")

    banner("amplitude does not matter (affine invariance)")
    patch = rng.normal(loc=100.0, scale=5.0, size=(9, 9))
    for mode in (pm.NORM_STD, pm.NORM_MAD):
        s0 = pm.ncc_score(patch, blob, mode)
        s1 = pm.ncc_score(3.7 * patch + 250.0, blob, mode)
        print(f"{mode}: score {s0:+.9f} -> {s1:+.9f}  (|delta| {abs(s1 - s0):.2e})")
    s0 = pm.ncc_score(patch, blob, pm.NORM_NONE)
    s1 = pm.ncc_score(3.7 * patch + 250.0, blob, pm.NORM_NONE)
    print(f"none: score {s0:+.3f} -> {s1:+.3f}  (raw correlation is gain-sensitive)")

    banner("the backward pass is analytic, not autodiff")
    patch = rng.normal(size=(5, 5))
    upstream = rng.normal(size=(5, 5))
    for mode in (pm.NORM_STD, pm.NORM_MAD):
        grad = pm.backprop_normalization(upstream, patch, mode)
        # the same derivative by one central difference at pixel (2, 2)
        step = 1e-6
        hi, lo = patch.copy(), patch.copy()
        hi[2, 2] += step
        lo[2, 2] -= step
        diff = pm.normalize(hi, mode) - pm.normalize(lo, mode)
        fd = np.sum(upstream * diff) / (2 * step)
        print(f"{mode}: dL/dp[2, 2] analytic {grad[2, 2]:+.9f}, central "
              f"difference {fd:+.9f}; gradient sum {grad.sum():+.1e}")
    print("the gradient sums to zero because adding a constant to the patch")
    print("cannot change its normalized form.")

    banner("sliding correlation")
    frame = rng.normal(loc=30.0, scale=1.0, size=(32, 32))
    frame[10:19, 14:23] += 8.0 * blob
    resp = pm.cross_correlate_valid(frame - frame.mean(),
                                    pm.normalize(blob, pm.NORM_STD))
    r, c = np.unravel_index(np.argmax(resp), resp.shape)
    print(f"planted blob top-left at (10, 14); response argmax at ({r}, {c})")


if __name__ == "__main__":
    main()
