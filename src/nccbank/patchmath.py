"""Numerical core: patch normalization, correlation, and its backward pass.

Conventions used throughout the package:

* Patches and filters are 2-D float64 arrays indexed ``[row, col]`` with the
  origin at the top-left.
* Whenever a patch is treated as a vector it is flattened row-major
  (numpy C order), and gradients are laid out against that same flattening.
* Two normalizations are supported.  With ``n`` the pixel count and ``mu``
  the patch mean:

  - STD: ``(p - mu) / (sqrt(n - 1) * std(p))`` where ``std`` uses the
    ``n - 1`` divisor.  This equals the centered patch scaled to unit L2
    norm, so the dot product of two STD-normalized patches is the classic
    correlation coefficient in [-1, 1].
  - MAD: ``(p - mu) / (sqrt(n) * mad(p))`` where ``mad`` is the mean
    absolute deviation about the mean.  No square root is needed to
    evaluate it in fixed point (``sqrt(n)`` is the patch side for square
    patches), which is why the FPGA path uses it.  Scores are not
    guaranteed to stay in [-1, 1].

Degenerate (flat) patches have no direction information; normalizing one
raises :class:`DegeneratePatchError` rather than silently dividing by an
epsilon, and :func:`normalize_rows` zeroes and flags them.  The MAD
Jacobian is undefined where any centered pixel sits on the |x| kink;
:func:`backprop_normalization` uses the subgradient ``sign(0) = 0`` there.
"""

import math

import numpy as np

SIGMA_MIN = 1e-12
MAD_MIN = 1e-12

NORM_STD = "std"
NORM_MAD = "mad"
NORM_NONE = "none"
NORM_MODES = (NORM_STD, NORM_MAD, NORM_NONE)

# Rows per block of normalize_rows.  256 rows of 15x15 patches make about
# 0.46 MB per float64 block, and the block loop holds two (the work block
# and its squares), so they stay near L2 size; blocks of 2,048 rows
# measured slower on the 162,560-row corpus.
_BLOCK_ROWS = 256


class DegeneratePatchError(ValueError):
    """Raised when a statistically flat patch cannot be normalized."""


def as_patch(values, name="patch"):
    """Validate and convert to a 2-D float64 array.

    Accepts anything ``np.asarray`` does.  Rejects empty, non-2-D, and
    non-finite input.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _count(value, name, low=1, high=None):
    """``value`` as an int; ValueError unless it is an integer >= ``low``
    (and <= ``high`` unless None).  numpy integers are accepted; bools,
    floats and text are not.  With :func:`_odd` and :func:`_real`, the one
    check of every count, size, index and real setting or argument of the
    package."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        raise ValueError(f"{name} must be an integer {_span(low, high)}, got {value!r}")
    return int(value)


def _odd(value, name, low=1, high=None):
    """:func:`_count` of a window or grid side, which must also be odd."""
    if _count(value, name, low, high) % 2 == 0:
        raise ValueError(f"{name} must be an odd integer {_span(low, high)}, got {value!r}")
    return int(value)


def _span(low, high):
    """The bound of an integer check, as its messages spell it."""
    return f">= {low}" if high is None else f"in [{low}, {high}]"


def _real(value, name, low=-math.inf, high=math.inf, ends="[]"):
    """``value`` as a float; ValueError unless it is a finite number in
    ``low`` .. ``high``, each end included unless ``ends`` (``"[]"``,
    ``"(]"``, ``"[)"`` or ``"()"``) opens it.  Text, bools, None and what
    float refuses are refused."""
    try:
        x = math.nan if isinstance(value, (str, bytes, bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and (x > low if ends[0] == "(" else x >= low)
            and (x < high if ends[1] == ")" else x <= high)):
        if high < math.inf:
            bound = f" and in {ends[0]}{low:g}, {high:g}{ends[1]}"
        elif low > -math.inf:
            bound = f" and {'>' if ends[0] == '(' else '>='} {low:g}"
        else:
            bound = ""
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return x


def _centered(rows, out=None):
    # Two-pass centering of each row of a (B, n) matrix, into ``out`` (a
    # new array if None): the second pass removes the O(eps * scale)
    # rounding residual so the mean-zero invariant holds to ~1e-16 even
    # for patches with large offsets.  A row's mean is its np.add.reduce
    # divided by n, as np.mean computes it, without np.mean's call overhead.
    n = rows.shape[1]
    mean = np.add.reduce(rows, axis=1, keepdims=True)
    mean /= n
    q = np.subtract(rows, mean, out=out)
    mean = np.add.reduce(q, axis=1, keepdims=True)
    mean /= n
    q -= mean
    return q


def _row_stats(q, mode, buf=None):
    """The one per-mode denominator check, over centered rows ``q``.

    Returns ``(denominator, statistic, valid)`` per row: for STD the L2
    norm ``sqrt(n - 1) * std`` and the std, for MAD ``sqrt(n) * mad`` and
    the mad; ``valid`` is False where the statistic is at or below
    ``SIGMA_MIN`` / ``MAD_MIN`` or not finite (a NaN, or an infinity from
    squares or sums that overflow).  The squares (STD) or absolute
    values (MAD) of ``q`` go into ``buf``, an array of ``q``'s shape
    (a new one if None).
    """
    n = q.shape[1]
    if mode == NORM_STD:
        if n < 2:
            raise ValueError("STD normalization needs at least 2 pixels")
        ss = np.sqrt(np.add.reduce(np.square(q, out=buf), axis=1))
        sigma = ss / math.sqrt(n - 1)
        return ss, sigma, (sigma > SIGMA_MIN) & (sigma < np.inf)
    if mode == NORM_MAD:
        mad = np.add.reduce(np.abs(q, out=buf), axis=1)
        mad /= n
        return math.sqrt(n) * mad, mad, (mad > MAD_MIN) & (mad < np.inf)
    raise ValueError(f"unknown normalization mode {mode!r}")


def _normalize_full(x, mode, out=None, buf=None):
    """:func:`normalize_rows` over a (B, n) float64 matrix ``x``; returns
    ``(normalized, valid, stats)``.

    With ``out`` given (it may be ``x`` itself), the rows are centered
    into it and divided there in place, and ``stats`` is None.  Without,
    the normalized rows are a new array and ``stats = (q, den, stat)``
    holds the centered rows beside them with their :func:`_row_stats`
    (None for ``none``), as :func:`_backprop_rows` takes them.  ``buf``
    is as in :func:`_row_stats`.
    """
    if mode == NORM_NONE:
        if out is None:
            out = np.empty(x.shape)
        np.copyto(out, x)
        return out, np.ones(x.shape[0], dtype=bool), None
    q = _centered(x, out)
    den, stat, valid = _row_stats(q, mode, buf)
    normalized = q if out is not None else np.empty(x.shape)
    if valid.all():
        np.divide(q, den[:, None], out=normalized)
    else:  # a flat row is zeroed, not divided (0 / 0 for an exactly flat one)
        np.divide(q, den[:, None], out=normalized, where=valid[:, None])
        normalized[~valid] = 0.0
    return normalized, valid, None if out is not None else (q, den, stat)


def _patch_stats(patch, mode):
    """One patch through :func:`_normalize_full` as a (1, n) row; returns
    ``(normalized, stats)``, both still (1, n)-shaped, and raises
    DegeneratePatchError if the patch is flat."""
    p = as_patch(patch)
    out, valid, stats = _normalize_full(p.reshape(1, -1), mode)
    if not valid[0]:
        raise DegeneratePatchError(f"flat patch: {mode}={stats[2][0]:.3e}")
    return out, stats


def _float_rows(values):
    """``values`` as an array: a float32 one as it is (:func:`normalize_rows`
    widens it block by block), anything else converted to float64."""
    arr = np.asarray(values)
    return arr if arr.dtype == np.float32 else np.asarray(arr, dtype=float)


def _normalize_blocks(rows, mode, dtype):
    """:func:`normalize_rows` stored in ``dtype`` (float64 or float32).

    Every block is copied, a float32 one widened, into one float64 work
    block, normalized there in place and stored into its slice of the
    output, so a float32 store holds ``normalize_rows(rows)[0]`` rounded
    to float32 once, byte for byte.
    """
    x = _float_rows(rows)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError(f"expected (B, n) matrix with n >= 1, got shape {x.shape}")
    out = np.empty(x.shape, dtype)
    valid = np.empty(x.shape[0], dtype=bool)
    work = np.empty((min(len(x), _BLOCK_ROWS), x.shape[1]))
    buf = np.empty_like(work)
    # an empty matrix still goes through one (empty) block, so its mode
    # and width are checked as for any other
    for lo in range(0, max(len(x), 1), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        block = x[lo:hi]
        w = work[: len(block)]
        w[...] = block
        # a NaN or an infinity makes its row's mean, and so its statistics,
        # NaN: the row is flagged flat, and only flagged rows (every row in
        # none mode) need their pixels scanned
        with np.errstate(invalid="ignore"):
            _, valid[lo:hi], _ = _normalize_full(w, mode, w, buf[: len(block)])
        out[lo:hi] = w
        scan = block if mode == NORM_NONE else block[~valid[lo:hi]]
        if not np.isfinite(scan).all():
            bad = lo + int(np.argmin(np.isfinite(block).all(axis=1)))
            raise ValueError(f"row {bad} contains non-finite values")
    return out, valid


def normalize_rows(rows, mode):
    """Normalize each row of a (B, n) matrix; the one normalizer.

    Returns ``(normalized, valid)``, ``normalized`` in float64.  Degenerate
    (flat) rows, and rows whose std or mad overflows to infinity, are
    zeroed and flagged False instead of raising; callers decide how to
    treat them.  Rows are independent: normalizing a matrix
    and then slicing it gives the same bits as normalizing the slice.
    ``none`` returns a copy.

    The rows are normalized in blocks of ``_BLOCK_ROWS``, each copied
    into one float64 work block, normalized there in place and stored into
    its slice of the one preallocated output, so the memory taken is that
    output plus two blocks (the work block and its squares or absolute
    values), never a corpus-sized centred copy.  A float32 matrix is kept
    as it is and widened one block at a time into the work block; widening
    is exact, so its output is bitwise that of its float64 copy.  Any
    other input is converted to float64.  :func:`nccbank.nccnet.train`
    runs the same block loop but stores the normalized rows rounded to
    float32.

    Raises ValueError if the matrix has no columns or holds a NaN or an
    infinity (in every mode, ``none`` included).
    """
    return _normalize_blocks(rows, mode, np.float64)


def normalize(patch, mode):
    """Normalize one patch with ``mode``; ``none`` is the identity.

    Raises
    ------
    DegeneratePatchError
        If the patch std (mad) is at or below ``SIGMA_MIN`` (``MAD_MIN``).
    """
    p = as_patch(patch)
    return _patch_stats(p, mode)[0].reshape(p.shape)


def _filter_spectra(filters, size):
    """Conjugate spectra of the (N, h, w) ``filters`` zero-padded to the
    image ``size``, as :func:`_correlate_spectra` takes them."""
    spectra = np.fft.rfft2(filters, s=size)
    return np.conj(spectra, out=spectra)


def _correlate_spectra(spectrum, filter_spectra, size, fshape):
    """Valid-mode cross-correlation of an image of ``size`` with N filters
    of shape ``fshape``, from the image's ``rfft2`` and the filters'
    :func:`_filter_spectra`: an (N, H - h + 1, W - w + 1) array.

    Each filter's inverse transform is ``irfft2``'s two steps, the first
    in place on that filter's product spectrum, so one product is held at
    a time.  numpy transforms every line alone, so the bits are those of
    ``irfft2`` over the whole product.
    """
    out = np.empty((len(filter_spectra),) + tuple(size))
    for spec, plane in zip(filter_spectra, out):
        prod = spec * spectrum
        np.fft.ifft(prod, size[0], axis=-2, out=prod)
        np.fft.irfft(prod, size[1], axis=-1, out=plane)
    return out[:, : size[0] - fshape[0] + 1, : size[1] - fshape[1] + 1]


def cross_correlate_valid(image, filt):
    """Valid-mode 2-D cross-correlation (no padding, no filter flip).

    ``out[i, j]`` is the dot product of ``filt`` with the image window whose
    top-left corner is ``(i, j)``.  Output shape is
    ``(H - h + 1, W - w + 1)``.  Computed through image-sized FFTs, so the
    circular wrap never reaches a valid output; the error of each output
    is a few ``eps * rms(image) * sum|filt|`` (times the log of the image
    size at worst), wherever the image's energy sits.
    """
    img = as_patch(image, "image")
    f = as_patch(filt, "filter")
    if f.shape[0] > img.shape[0] or f.shape[1] > img.shape[1]:
        raise ValueError(
            f"filter {f.shape} does not fit inside image {img.shape}"
        )
    size = img.shape
    return _correlate_spectra(np.fft.rfft2(img), _filter_spectra(f[None], size),
                              size, f.shape)[0]


def _run(shape, k):
    """Length of the flat run, in a row-major (H, W) array, from the first
    k x k window's top-left pixel to the last one's: (h - 1) * W + w with
    h, w = H - k + 1, W - k + 1.

    The window with its top-left pixel at flat index p reads pixel (i, j)
    at p + i * W + j, so a pass over one window offset is the contiguous
    slice ``flat[i * W + j :][:run]``, inside the array for every offset.
    The run also holds the W - w starts between two output rows, whose
    windows wrap into the next row: they are computed and then dropped
    (see :func:`_valid`).
    """
    h, w = shape[0] - k + 1, shape[1] - k + 1
    return (h - 1) * shape[1] + w


def _valid(out, shape, k):
    """The (H - k + 1, W - k + 1) valid outputs of a flat buffer of
    (H - k + 1) * W entries whose first :func:`_run` entries were
    computed, as a view."""
    h, w = shape[0] - k + 1, shape[1] - k + 1
    return out.reshape(h, shape[1])[:, :w]


def _box_sums(a, k, reduce=np.add):
    """Sum (or ``reduce``, a binary ufunc such as np.maximum) of every
    k x k window of ``a``: k-term sums along the rows, then along the
    columns, so each window's sum takes 2(k - 1) additions of its own
    pixels and its rounding is bounded by its own magnitudes.

    Each pass reduces one contiguous shifted slice of the flattened array
    (see :func:`_run`) into the running result, in the order of the two
    2-D passes, so every valid window gets the same bits.  Returns a view.
    """
    flat = np.ascontiguousarray(a).reshape(-1)
    width = a.shape[1]
    run = _run(a.shape, k)
    span = run + (k - 1) * width  # the row sums the column pass reads
    out = np.empty((a.shape[0] - k + 1) * width, dtype=flat.dtype)
    col = out[:run]
    if k == 1:
        col[...] = flat[:run]
    else:  # each pass starts from its first two slices: no copy
        rows = reduce(flat[:span], flat[1 : 1 + span])
        for j in range(2, k):
            reduce(rows, flat[j : j + span], out=rows)
        reduce(rows[:run], rows[width : width + run], out=col)
        for i in range(2, k):
            reduce(col, rows[i * width : i * width + run], out=col)
    return _valid(out, a.shape, k)


def _sad(x, mu, k):
    """Sum of |x - mu| over every k x k window of ``x``, window means
    ``mu``: one contiguous pass per window offset (see :func:`_run`), no
    per-window pixel copies.  Returns a view."""
    flat = np.ascontiguousarray(x).reshape(-1)
    width = x.shape[1]
    run = _run(x.shape, k)
    mean = np.zeros((mu.shape[0], width), dtype=mu.dtype)
    mean[:, : mu.shape[1]] = mu
    mean = mean.reshape(-1)[:run]
    sad = np.zeros(mu.shape[0] * width, dtype=mu.dtype)
    acc = sad[:run]
    dev = np.empty(run, dtype=mu.dtype)
    for i in range(k):
        for j in range(k):
            at = i * width + j
            np.subtract(flat[at : at + run], mean, out=dev)
            acc += np.abs(dev, out=dev)
    return _valid(sad, x.shape, k)


def ncc_score(patch, filt, mode=NORM_STD):
    """Normalized cross-correlation of two same-shape grids.

    Both grids are normalized with ``mode`` and their flattened dot product
    is returned.  ``mode='none'`` skips normalization and returns the raw
    dot product (the unnormalized-correlation baseline).
    """
    p = as_patch(patch)
    f = as_patch(filt, "filter")
    if p.shape != f.shape:
        raise ValueError(f"shape mismatch: patch {p.shape} vs filter {f.shape}")
    a = normalize(p, mode)
    b = normalize(f, mode)
    return float(np.sum(a * b))


def _backprop_rows(u, stats, mode):
    """Pull upstream gradients ``u`` (B, n) back through the normalization
    of B rows, given their ``stats`` from :func:`_normalize_full`; rows
    are independent.  See :func:`backprop_normalization` for the formulas."""
    if mode == NORM_NONE:
        return u.copy()
    q, den, stat = stats
    n = q.shape[1]
    if mode == NORM_STD:
        pbar = q / den[:, None]
        v = np.add.reduce(u * pbar, axis=1, keepdims=True) * pbar
    else:
        v = np.sign(q)
        v *= np.add.reduce(u * q, axis=1, keepdims=True) / (n * stat[:, None])
    np.subtract(u, v, out=v)
    mean = np.add.reduce(v, axis=1, keepdims=True)
    mean /= n
    v -= mean
    v /= den[:, None]
    return v


def backprop_normalization(upstream, patch, mode):
    """Pull an upstream gradient back through a normalization, in O(n).

    Given ``u = dL/d(normalized patch)`` (same shape as ``patch``), returns
    ``dL/d(patch)``, i.e. ``u^T J`` reshaped to the patch shape.  Uses the
    factored form of the Jacobian rather than materializing it:

    * STD: ``v = u - (u . pbar) pbar``, result ``(v - mean(v)) / ss``.
    * MAD: ``w = u - (u . q) / (n * mad) * s``, result
      ``(w - mean(w)) / (sqrt(n) * mad)``.

    For MAD the subgradient convention ``sign(0) = 0`` is used, so pixels
    sitting exactly on the kink contribute nothing to the mad-derivative
    term.  ``mode='none'`` returns ``upstream`` unchanged.
    """
    u = as_patch(upstream, "upstream")
    p = as_patch(patch)
    if u.shape != p.shape:
        raise ValueError(f"shape mismatch: upstream {u.shape} vs patch {p.shape}")
    _, stats = _patch_stats(p, mode)
    return _backprop_rows(u.reshape(1, -1), stats, mode).reshape(p.shape)
