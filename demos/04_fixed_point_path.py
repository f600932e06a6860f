"""The integer MAD-NCC path, side by side with 64-bit floats.

The scoring datapath mirrors a DSP/FPGA implementation: u16 pixels,
Q(8,7) taps, 32-bit sums and products, a 48-bit accumulator, truncating
divisions, Q(16,10) output, and no square root anywhere.

Run: python3 demos/04_fixed_point_path.py
"""

import io

import numpy as np

from nccbank import filterbank as fb
from nccbank import patchmath as pm


def main():
    hat = fb.ricker_hat_grid(15)
    taps = fb.prepare_fixed_taps(hat)          # center, prescale, quantize
    taps_float = fb.dequantize_taps(taps, fb.TAP_QFORMAT)

    print("tap quantization (Q8.7, i.e. raw/128):")
    mid = 7
    print("  r   float tap   raw   dequantized")
    for r in range(0, 8, 2):
        fl = hat[mid, mid + r] - hat.mean()
        print(f"  {r}  {fl:+9.4f}  {taps[mid, mid + r]:5d}   "
              f"{taps_float[mid, mid + r]:+9.4f}")
    print(f"  raw tap range: [{taps.min()}, {taps.max()}]")

    print()
    print("fixed vs float on random u16 windows:")
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        patch = rng.integers(0, 4000, size=(15, 15))
        fixed = fb.mad_ncc_fixed_score(patch, taps, fb.TAP_QFORMAT)
        ref = np.sum(pm.normalize(patch, pm.NORM_MAD) * taps_float)
        worst = max(worst, abs(fixed.value - ref))
    print(f"  worst |fixed - float| over 1000 windows: {worst:.6f}")
    print(f"  (Q16.10 quantum is {2 ** -10}; contract bound is {2 ** -5})")

    print()
    print("where truncation bites: the integer mean")
    patch = np.full((15, 15), 1000, dtype=np.int64)
    patch[mid, mid] = 1500
    fixed = fb.mad_ncc_fixed_score(patch, taps, fb.TAP_QFORMAT)
    ref = np.sum(pm.normalize(patch, pm.NORM_MAD) * taps_float)
    float_mean = patch.mean()
    print(f"  near-flat window with one spike: float mean {float_mean:.3f},"
          f" integer mean {int(patch.sum()) // patch.size}")
    print(f"  fixed {fixed.value:+.4f} vs float {ref:+.4f}"
          f"  (|delta| {abs(fixed.value - ref):.4f})")
    print("  trunc(sum/n) shifts every deviation by frac(mean), which is")
    print("  noticeable only when the sum of |deviations| is tiny, as here.")

    print()
    print("whole-frame scan:")
    frame = rng.integers(900, 1100, size=(64, 64))
    rr, cc = 30, 24
    yy, xx = np.mgrid[0:15, 0:15] - 7.0
    blob = np.exp(-(yy * yy + xx * xx) / (2 * 1.2 ** 2))
    frame[rr - 7 : rr + 8, cc - 7 : cc + 8] += (400 * blob).astype(np.int64)
    raw, degenerate, saturated = fb.mad_ncc_fixed_response(frame, taps, fb.TAP_QFORMAT)
    r, c = np.unravel_index(np.argmax(raw), raw.shape)
    print(f"  planted blob center ({rr}, {cc}); integer-path argmax at "
          f"({r + 7}, {c + 7})")
    print(f"  score there = {raw[r, c] / 1024:+.4f} (raw {raw[r, c]} in Q16.10);"
          f" degenerate windows: {int(degenerate.sum())},"
          f" saturated: {int(saturated.sum())}")

    print()
    print("quantized filters round-trip through a text file:")
    buf = io.StringIO()
    fb.save_quantized_filter(buf, taps, fb.TAP_QFORMAT)
    loaded, qf = fb.load_quantized_filter(io.StringIO(buf.getvalue()))
    print(f"  reread Q{qf.total_bits}.{qf.frac_bits} taps identical: "
          f"{bool(np.array_equal(loaded, taps))}")


if __name__ == "__main__":
    main()
