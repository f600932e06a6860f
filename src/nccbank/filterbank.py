"""Engineered detection filters and the fixed-point MAD-NCC pipeline.

This module provides the non-learned half of the toolkit:

* Gaussian matched filters and the center-surround "hat" filter (a Ricker
  wavelet with a small central pit that de-tunes it from isolated
  bad-pixel impulses), plus a fitter that recovers hat parameters from an
  arbitrary filter such as a trained one.
* Cropping (central trim) and Q-format quantization for hardware-sized
  variants.
* A bit-exact integer MAD-NCC scorer modeling an FPGA datapath: 16-bit
  unsigned pixels, 32-bit sums and products, a 48-bit accumulator, all
  divisions truncating toward zero, output in Q(16, 10).  Because patches
  are square, sqrt(n) is just the patch side, so the entire pipeline is
  square-root free.
* Per-frame operation counts of the dense scorers that the benchmark runs:
  every valid window gets its own denominator, so STD NCC takes one square
  root per window and the MAD forms none.
"""

import dataclasses
import math

import numpy as np

from nccbank import gridio
from nccbank import patchmath as pm

@dataclasses.dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: value = raw / 2**frac_bits, with integer
    ``total_bits`` in [2, 32] and ``frac_bits`` in [0, total_bits)."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        pm._count(self.total_bits, "total_bits", 2, 32)
        pm._count(self.frac_bits, "frac_bits", 0, self.total_bits - 1)

    @property
    def raw_min(self):
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self):
        return (1 << (self.total_bits - 1)) - 1

    @property
    def scale(self):
        return 1 << self.frac_bits

    @property
    def max_value(self):
        """Largest representable magnitude, (2**(t-1) - 1) / 2**f."""
        return self.raw_max / self.scale


TAP_QFORMAT = QFormat(8, 7)
OUT_QFORMAT = QFormat(16, 10)


@dataclasses.dataclass(frozen=True)
class HatParams:
    """Center-surround profile: a 2-D Ricker wavelet sampled on
    [-support_halfwidth, +support_halfwidth]^2 minus a narrow Gaussian pit
    of amplitude pit_depth and width pit_radius at the center.  Frozen;
    ValueError unless pit_depth is finite >= 0 and the others finite > 0."""

    support_halfwidth: float = 7.0
    ricker_sigma: float = 2.0
    pit_depth: float = 0.5
    pit_radius: float = 0.5

    def __post_init__(self):
        for name in ("support_halfwidth", "ricker_sigma", "pit_radius"):
            pm._real(getattr(self, name), name, 0.0, ends="(]")
        pm._real(self.pit_depth, "pit_depth", 0.0)


def _radial_squared(size, halfwidth):
    # Offsets built from exact integer lattice steps so that the squared
    # radius grid is bitwise symmetric under transpose and 90 degree
    # rotation (|-x|^2 == |x|^2 exactly in IEEE arithmetic).
    half = (size - 1) // 2
    offs = (np.arange(size) - half) * (halfwidth / half if half else 1.0)
    return offs[:, None] ** 2 + offs[None, :] ** 2


def gaussian_grid(size, sigma):
    """Isotropic Gaussian, peak 1 at center, sampled at integer offsets.
    ValueError unless ``size`` is an odd integer and ``sigma`` finite > 0."""
    size = pm._odd(size, "size")
    pm._real(sigma, "sigma", 0.0, ends="(]")
    rsq = _radial_squared(size, (size - 1) // 2)
    return np.exp(-rsq / (2.0 * sigma * sigma))


def ricker_hat_grid(size, params=None):
    """Hat profile: Ricker wavelet minus a central pit, exactly zero-sum.

    psi(r) = (1 - r^2/s^2) * exp(-r^2/(2 s^2)) sampled on the square
    lattice spanning [-a, a]^2, minus pit_depth * exp(-r^2/(2 rho^2)),
    then the grid mean is subtracted so the sum is exactly zero.  The
    surround is a negative annulus (a zero-sum wave) and, for the default
    parameters, the center tap sits strictly below its ring-1 neighbors:
    the pit that penalizes isolated single-pixel impulses.
    """
    size = pm._odd(size, "size", 3)
    if params is None:
        params = HatParams()
    rsq = _radial_squared(size, params.support_halfwidth)
    s2 = params.ricker_sigma**2
    ricker = (1.0 - rsq / s2) * np.exp(-rsq / (2.0 * s2))
    pit = params.pit_depth * np.exp(-rsq / (2.0 * params.pit_radius**2))
    grid = ricker - pit
    return grid - grid.mean()


def _golden_max(fun, lo, hi, tol=1e-4, max_iter=60):
    """Golden-section search for the maximum of a unimodal-ish scalar fn."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def fit_hat(target):
    """Fit hat parameters to an arbitrary square odd filter grid.

    Maximizes the mean-removed cosine similarity between the generated hat
    and ``target`` by coarse grid search plus golden-section coordinate
    refinement.  The (support_halfwidth, ricker_sigma) pair is redundant up
    to a joint rescale, so the fit pins ricker_sigma = 1 and varies the
    support; the returned parameters use that convention.

    Returns ``(HatParams, similarity)``.
    """
    tgt = pm.as_patch(target, "target")
    size = tgt.shape[0]
    if tgt.shape[0] != tgt.shape[1] or size % 2 == 0:
        raise ValueError(f"target must be square with odd side, got {tgt.shape}")
    try:
        tgt_n = pm.normalize(tgt, pm.NORM_STD)
    except pm.DegeneratePatchError:
        raise pm.DegeneratePatchError("cannot fit a hat to a flat target")

    def sim(a, depth, radius):
        if a <= 0.05 or radius <= 0.02 or depth < 0:
            return -2.0
        grid = ricker_hat_grid(
            size,
            HatParams(
                support_halfwidth=a,
                ricker_sigma=1.0,
                pit_depth=depth,
                pit_radius=radius,
            ),
        )
        try:
            return float(np.sum(pm.normalize(grid, pm.NORM_STD) * tgt_n))
        except pm.DegeneratePatchError:
            return -2.0

    best = (-2.0, 1.0, 0.0, 0.3)
    for a in np.linspace(0.8, 6.0, 14):
        for depth in (0.0, 0.15, 0.3, 0.45, 0.6, 0.75):
            for radius in (0.15, 0.3, 0.5, 0.8):
                s = sim(a, depth, radius)
                if s > best[0]:
                    best = (s, float(a), float(depth), float(radius))
    _, a, depth, radius = best
    for _ in range(3):
        a, _ = _golden_max(lambda x: sim(x, depth, radius), max(0.2, a - 0.6), a + 0.6)
        depth, _ = _golden_max(lambda x: sim(a, x, radius), max(0.0, depth - 0.2), depth + 0.2)
        radius, _ = _golden_max(lambda x: sim(a, depth, x), max(0.05, radius - 0.2), radius + 0.2)
    params = HatParams(
        support_halfwidth=a, ricker_sigma=1.0, pit_depth=depth, pit_radius=radius
    )
    return params, sim(a, depth, radius)


def crop_grid(grid, new_size):
    """Central new_size x new_size window (trimming, not downsampling) of a
    square grid of odd side; ``new_size`` is an odd integer in [1, side]."""
    g = pm.as_patch(grid, "filter")
    size = g.shape[0]
    if g.shape[0] != g.shape[1]:
        raise ValueError(f"filter must be square, got {g.shape}")
    pm._odd(new_size, "new_size", 1, pm._odd(size, "filter side"))
    trim = (size - new_size) // 2
    return g[trim : trim + new_size, trim : trim + new_size].copy()


def quantize_taps(values, qformat=TAP_QFORMAT):
    """Round-half-even to the format grid, saturating at the raw limits;
    ValueError for a NaN or infinite value, whatever the shape."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"values must be finite, got {v[~np.isfinite(v)][0]}")
    raw = np.rint(v * qformat.scale)
    return np.clip(raw, qformat.raw_min, qformat.raw_max).astype(np.int32)


def dequantize_taps(raw, qformat=TAP_QFORMAT):
    return np.asarray(raw, dtype=float) / qformat.scale


def prescale_for_qformat(grid, qformat=TAP_QFORMAT):
    """Positively rescale so max|tap| lands on the largest representable
    magnitude.  NCC-style scores are invariant to positive filter scale,
    so this only buys quantization resolution."""
    g = pm.as_patch(grid, "filter")
    peak = float(np.max(np.abs(g)))
    if peak <= 0.0:
        raise pm.DegeneratePatchError("cannot prescale an all-zero filter")
    return g * (qformat.max_value / peak)


def prepare_fixed_taps(grid, qformat=TAP_QFORMAT):
    """Canonical float -> integer tap pipeline: center to zero mean,
    prescale to the format's full range, quantize."""
    g = pm.as_patch(grid, "filter")
    centered = g - g.mean()
    return quantize_taps(prescale_for_qformat(centered, qformat), qformat)


@dataclasses.dataclass
class FixedScore:
    """Output of the integer pipeline: raw Q(16, 10) score plus flags."""

    raw: int
    degenerate: bool = False
    saturated: bool = False

    @property
    def value(self):
        return self.raw / OUT_QFORMAT.scale


def _trunc_div_int(num, den):
    # Python // floors; hardware divides truncating toward zero.
    if num >= 0:
        return num // den
    return -((-num) // den)


# Stage overflows in datapath order; a window raises the first that applies.
_STAGE_OVERFLOWS = (
    "pixel sum exceeds the 32-bit stage",
    "sad exceeds the 32-bit stage",
    "product exceeds the 32-bit stage",
    "accumulator exceeds the 48-bit stage",
)


def _fixed_taps(filt, qformat):
    """Validated square integer tap array of the fixed-point scorers."""
    taps = np.asarray(filt)
    if qformat is None:
        raise ValueError("qformat is required")
    if not np.issubdtype(taps.dtype, np.integer):
        raise ValueError("fixed-point taps must be integers")
    if taps.ndim != 2 or taps.shape[0] != taps.shape[1]:
        raise ValueError(f"taps must be square, got shape {taps.shape}")
    # compared as Python ints: np.abs wraps a signed dtype's minimum to itself
    if taps.size and max(-int(taps.min()), int(taps.max())) > (1 << 31) - 1:
        raise ValueError("taps exceed 32-bit range")
    return taps


def _check_u16(pixels, what):
    if not np.issubdtype(pixels.dtype, np.integer):
        raise ValueError(f"fixed-point {what} must be integer-valued")
    if np.any(pixels < 0) or np.any(pixels > 0xFFFF):
        raise ValueError("pixels must fit in 16-bit unsigned")


def mad_ncc_fixed_score(patch, filt, qformat):
    """Score one integer patch against quantized taps, bit-exactly.

    Pipeline (all integer, no square root anywhere):

    1. pixels: 16-bit unsigned (validated)
    2. sum: 32-bit; integer mean = trunc(sum / n)
    3. deviations d_i = pixel - mean; sad = sum |d_i| (32-bit).
       Note n * mad == sad exactly, and sqrt(n) == patch side k for
       square patches, so the denominator sqrt(n) * mad equals sad / k
       with no rounding.
    4. products d_i * f_i: 32-bit; accumulator: 48-bit
    5. score_raw = trunc(acc * k * 2^out_frac / (sad * 2^tap_frac)),
       truncation toward zero, saturated to the output format.

    ``filt`` is an integer tap array in the Q-format ``qformat``.  A
    zero-sad (flat) patch returns raw 0 with the degenerate flag set; a
    stage overflow raises OverflowError.
    """
    taps = _fixed_taps(filt, qformat)
    p = np.asarray(patch)
    _check_u16(p, "patch")
    if p.shape != taps.shape:
        raise ValueError(f"patch {p.shape} must match square taps {taps.shape}")

    k = p.shape[0]
    n = k * k
    pixels = [int(v) for v in p.ravel().tolist()]
    total = sum(pixels)
    if total >= 1 << 32:
        raise OverflowError(_STAGE_OVERFLOWS[0])
    mean = total // n  # non-negative, so floor == trunc
    devs = [v - mean for v in pixels]
    sad = sum(abs(d) for d in devs)
    if sad >= 1 << 32:
        raise OverflowError(_STAGE_OVERFLOWS[1])
    if sad == 0:
        return FixedScore(raw=0, degenerate=True)
    acc = 0
    for d, f in zip(devs, [int(v) for v in taps.ravel().tolist()]):
        prod = d * f
        if not (-(1 << 31) <= prod < (1 << 31)):
            raise OverflowError(_STAGE_OVERFLOWS[2])
        acc += prod
    if not (-(1 << 47) <= acc < (1 << 47)):
        raise OverflowError(_STAGE_OVERFLOWS[3])
    num = acc * k * OUT_QFORMAT.scale
    den = sad * qformat.scale
    raw = _trunc_div_int(num, den)
    saturated = raw < OUT_QFORMAT.raw_min or raw > OUT_QFORMAT.raw_max
    raw = min(max(raw, OUT_QFORMAT.raw_min), OUT_QFORMAT.raw_max)
    return FixedScore(raw=raw, saturated=saturated)


def _trunc_div_array(num, den):
    # den > 0 elementwise; numpy // floors, so divide the magnitudes and
    # restore the sign to truncate toward zero like the scalar path.
    quot = np.abs(num)
    quot //= den
    return np.negative(quot, out=quot, where=num < 0)


def _may_overflow(taps):
    """Whether some 16-bit window can overflow a stage with these int64
    taps.  Deviations satisfy |d_i| <= 0xFFFF, which bounds the pixel sum
    and sad by n * 0xFFFF, each product by 0xFFFF * max|tap| and the
    accumulator by n times that."""
    n = taps.size
    prod = 0xFFFF * int(np.max(np.abs(taps)))
    return n * 0xFFFF >= 1 << 32 or prod >= 1 << 31 or n * prod >= 1 << 47


def _num_may_wrap(k):
    """Whether the output numerator ``acc * k * OUT_QFORMAT.scale`` can
    leave int64 for k x k taps.  A window that passes the stage checks has
    |acc| <= min(n * (2**31 - 1), 2**47 - 1), so only k >= 162 can."""
    acc_max = min(k * k * ((1 << 31) - 1), (1 << 47) - 1)
    return acc_max * k * OUT_QFORMAT.scale >= 1 << 63


def _raise_first_overflow(sums, sad, prod_over, acc):
    """Raise what :func:`mad_ncc_fixed_score` raises at the first window,
    in raster order, that overflows a stage; ``prod_over`` flags the
    windows with a product outside the 32-bit stage."""
    over = np.stack([
        sums >= 1 << 32,
        sad >= 1 << 32,
        prod_over,
        (acc < -(1 << 47)) | (acc >= 1 << 47),
    ]).reshape(len(_STAGE_OVERFLOWS), -1)
    bad = np.flatnonzero(over.any(axis=0))
    if bad.size:
        raise OverflowError(_STAGE_OVERFLOWS[int(np.argmax(over[:, bad[0]]))])


def _stage_dtype(taps):
    """int32 when every box sum, sad and sum(x * t) of a 16-bit window
    fits it, that is when n * 0xFFFF * max(1, max|tap|) < 2**31 (every
    Q(8, 7) filter up to 16 x 16); int64 otherwise."""
    bound = taps.size * 0xFFFF * max(1, int(np.max(np.abs(taps.astype(np.int64)))))
    return np.int32 if bound < 1 << 31 else np.int64


def _tap_sums(x, t, means, check):
    """``sum(x * t)`` over every k x k window of the integer plane ``x``,
    one contiguous pass per tap as :func:`patchmath._sad` runs its passes,
    and, if ``check``, a mask of the windows with a product ``(x - mean)
    * t`` outside the 32-bit stage (else None)."""
    k = t.shape[0]
    h, w = means.shape
    flat, width, run = x.reshape(-1), x.shape[1], pm._run(x.shape, k)
    xt = np.zeros(h * width, dtype=x.dtype)
    acc = xt[:run]
    prod = np.empty(run, dtype=x.dtype)
    prod_over = np.zeros(means.shape, dtype=bool) if check else None
    for i in range(k):
        for j in range(k):
            at = i * width + j
            acc += np.multiply(flat[at : at + run], t[i, j], out=prod)
            if check:
                dev_t = (x[i : i + h, j : j + w] - means) * t[i, j]
                prod_over |= (dev_t < -(1 << 31)) | (dev_t >= 1 << 31)
    return pm._valid(xt, x.shape, k), prod_over


def mad_ncc_fixed_response(frame, filt, qformat):
    """Valid-mode response map of the fixed-point scorer over a frame.

    Bit-identical to calling :func:`mad_ncc_fixed_score` at every window
    position, errors included.  The window sums are integer box sums; the
    sads and the sums ``sum(x * t)`` take one pass per window offset, each
    a contiguous slice of the flattened frame.  These run in int32 when
    ``k * k * 0xFFFF * max(1, max|tap|) < 2**31``, which holds for every
    Q(8, 7) filter up to 16 x 16, and in int64 otherwise; the accumulator
    ``sum(x * t) - mean * sum(t)`` and the output stage are int64 either
    way.  Windows are
    checked for stage overflow only when the taps make one possible, which
    the int32 bound rules out, and the output numerator is computed in
    Python integers only when k alone makes an int64 wrap possible
    (k >= 162).  Returns ``(raw, degenerate, saturated)`` where ``raw`` is
    int32 of shape (H - k + 1, W - k + 1), ``degenerate`` marks zero-sad
    windows (their raw value is 0) and ``saturated`` the windows whose
    quotient left the output format before the clip (never a flat one), as
    the flags of :func:`mad_ncc_fixed_score`.
    """
    taps = _fixed_taps(filt, qformat)
    fr = np.asarray(frame)
    _check_u16(fr, "frames")
    k = taps.shape[0]
    if fr.ndim != 2 or fr.shape[0] < k or fr.shape[1] < k:
        raise ValueError(f"frame {fr.shape} too small for {k}x{k} taps")
    dtype = _stage_dtype(taps)
    x = fr.astype(dtype)
    t = taps.astype(dtype)
    sums = pm._box_sums(x, k)
    means = sums // (k * k)  # sums >= 0, floor == trunc
    sad = pm._sad(x, means, k)
    xt, prod_over = _tap_sums(x, t, means, _may_overflow(t))
    # acc = sum((x - mean) * t) = sum(x * t) - mean * sum(t), exact in int64
    acc = means.astype(np.int64)
    acc *= -int(taps.sum(dtype=np.int64))
    acc += xt
    if prod_over is not None:
        _raise_first_overflow(sums, sad, prod_over, acc)
    num = acc.astype(object) if _num_may_wrap(k) else acc
    num *= k * OUT_QFORMAT.scale
    den = sad.astype(np.int64)
    den *= qformat.scale
    scores = _trunc_div_array(num, np.maximum(den, 1, out=den))  # den >= 0
    flat = sad == 0  # every deviation is 0, so acc and the quotient are too
    saturated = scores < OUT_QFORMAT.raw_min
    saturated |= scores > OUT_QFORMAT.raw_max
    np.clip(scores, OUT_QFORMAT.raw_min, OUT_QFORMAT.raw_max, out=scores)
    return scores.astype(np.int32), flat, saturated


@dataclasses.dataclass
class OpCount:
    multiplications: int
    additions: int
    divisions: int
    square_roots: int


OP_METHODS = ("mad-ratio", "ncc-std", "ncc-mad", "unnorm-corr")


def op_count(method, image_side, filter_side):
    """Per-frame operation counts of the dense scorers for an N x N frame
    and an f x f filter, in direct form.

    Each of the W = (N - f + 1)^2 valid windows gets its own statistics
    and its own denominator; with n = f^2, a window costs:

    * correlation: n multiplications and n - 1 additions, as
      :func:`_tap_sums` runs it (the float scorers' FFT is a software
      stand-in and is not counted);
    * the window mean (all but ``unnorm-corr``): a box sum of 2(f - 1)
      additions and one division by n;
    * ``ncc-std``, ``ncc-mad``: the numerator ``dot - mean * sum(filter)``,
      one multiplication and one addition;
    * ``ncc-std``: the squared pixels (one multiplication per pixel, N^2
      per frame), their box sum, ``S2 - mean * S1`` (one multiplication
      and one addition), its square root, and the division by it;
    * ``ncc-mad``, ``mad-ratio``: the SAD, n absolute differences and
      n - 1 additions.  sqrt(n) * mad = SAD / f, as sqrt(n) = f, so the
      score is ``f * numerator / SAD``: one multiplication and one
      division.  ``mad-ratio``'s numerator is the centre pixel's
      deviation, one absolute difference, and its score
      ``n * |deviation| / SAD``.

    Additions include subtractions and absolute differences.  Only
    ``ncc-std`` takes square roots, one per window.  Raises ValueError
    for an unknown method, a side not an integer >= 1, or a filter too big.
    """
    pm._count(filter_side, "filter_side", 1, pm._count(image_side, "image_side"))
    f, n = filter_side, filter_side * filter_side
    box, sad = 2 * (f - 1), 2 * n - 1
    if method == "unnorm-corr":
        ops = (n, n - 1, 0, 0)
    elif method == "ncc-std":
        ops = (n + 2, n + 2 * box + 1, 2, 1)
    elif method == "ncc-mad":
        ops = (n + 2, n + box + sad, 2, 0)
    elif method == "mad-ratio":
        ops = (1, box + 1 + sad, 2, 0)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {OP_METHODS}")
    windows = (image_side - f + 1) ** 2
    mul, add, div, roots = (windows * op for op in ops)
    if method == "ncc-std":
        mul += image_side * image_side  # the squared pixels of the S2 box sum
    return OpCount(mul, add, div, roots)


def save_quantized_filter(path, raw, qformat):
    """Quantized filter file: text header with the Q-format, then the
    integer taps as one grid block.  Taps that :func:`load_quantized_filter`
    would refuse raise ValueError before anything is written."""
    taps = _fixed_taps(raw, qformat)
    if np.any(taps < qformat.raw_min) or np.any(taps > qformat.raw_max):
        raise ValueError("taps exceed the declared Q-format range")
    header = f"qfilter 1\nqformat {qformat.total_bits} {qformat.frac_bits}\n"
    gridio.write_text(header + gridio._format_block(taps), path)


def load_quantized_filter(path):
    """Read a quantized filter file; returns ``(raw int array, QFormat)``."""
    lines = gridio._lines(gridio.read_text(path))
    if len(lines) < 4 or lines[0].split() != ["qfilter", "1"]:
        raise ValueError("not a version-1 quantized filter file")
    qformat = QFormat(*gridio._field(lines[1], "qformat", 2, int))
    taps, used = gridio._parse_block(lines[2:], int)
    if 2 + used != len(lines):
        raise ValueError(f"expected {used - 1} data lines, found {len(lines) - 3}")
    if taps.shape[0] != taps.shape[1]:
        raise ValueError("tap block must be square, got {}x{}".format(*taps.shape))
    if np.any(taps < qformat.raw_min) or np.any(taps > qformat.raw_max):
        raise ValueError("taps exceed the declared Q-format range")
    return taps.astype(np.int32), qformat
