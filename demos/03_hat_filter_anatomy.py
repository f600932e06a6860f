"""Anatomy of the center-surround hat filter and what each dense scorer
costs per frame.

The hat is a Ricker (Mexican-hat) profile with a small central pit: the
positive core matches a PSF-blurred point target, the negative annulus
punishes wider structure, and the pit keeps single-pixel impulses (bad
pixels) from outscoring real blobs.

Run: python3 demos/03_hat_filter_anatomy.py
"""

import numpy as np

from nccbank import filterbank as fb
from nccbank import patchmath as pm


def main():
    hat = fb.ricker_hat_grid(15)
    mid = 7

    print("radial profile of the 15x15 hat (along the +x axis):")
    print("  r   tap")
    for r in range(8):
        print(f"  {r}  {hat[mid, mid + r]:+.4f}")
    print(f"sum of all taps: {hat.sum():+.2e}  (exactly mean-free by construction)")
    print(f"center {hat[mid, mid]:+.4f} sits below ring-1 {hat[mid, mid + 1]:+.4f}:"
          " that dip is the anti-impulse pit.")

    print()
    print("what the hat likes (STD-NCC scores):")
    blob = fb.gaussian_grid(15, 1.2)
    impulse = np.zeros((15, 15))
    impulse[mid, mid] = 1.0
    wide = fb.gaussian_grid(15, 4.0)
    for name, patch in (("psf blob sigma=1.2", blob),
                        ("single-pixel impulse", impulse),
                        ("wide blob sigma=4.0", wide)):
        print(f"  {name:22s} {pm.ncc_score(patch, hat, pm.NORM_STD):+.4f}")

    print()
    print("cropping the same profile narrows the evidence window:")
    for size in (15, 9, 7, 5):
        cropped = fb.crop_grid(hat, size)
        # score the ideal blob through the cropped window
        window = fb.crop_grid(blob, size)
        s = pm.ncc_score(window, cropped, pm.NORM_STD)
        print(f"  {size:2d}x{size:<2d}: blob score {s:+.4f}")
    print("a 5x5 hat never sees the annulus, so clutter that only differs")
    print("from a target outside the core becomes invisible to it.")

    print()
    print("per-frame operation counts of the dense scorers, 256x256 frame, 15x15 filter:")
    print("  method            mul         add      div    sqrt")
    for method in fb.OP_METHODS:
        ops = fb.op_count(method, 256, 15)
        print(f"  {method:11s} {ops.multiplications:10d}  {ops.additions:10d}  "
              f"{ops.divisions:7d}  {ops.square_roots:6d}")
    print("every one of the 242*242 valid windows gets its own denominator:")
    print("STD pays one square root per window, the MAD forms none (sqrt(n) is")
    print("the side 15) but an absolute difference per pixel of every window.")


if __name__ == "__main__":
    main()
