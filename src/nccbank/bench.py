"""Detection benchmarking: frame scorers, matching, ROC sweeps, reports.

Every method is wrapped as a *scorer*: a callable mapping a frame to a
valid-mode response map (one score per fully-inside window position,
degenerate windows scoring 0.0) with a ``window`` attribute.
:func:`resolve_method` makes and names scorers from method names by one
grammar; :func:`run_benchmark` takes names only, and shares each frame's
statistics among its scorers.
Detection is local maxima of the response followed by greedy non-maximum
suppression; detections are matched one-to-one to ground truth by
ascending distance, and ROC curves aggregate hits over all truths against
false alarms per frame.
"""

import csv
import math
import os
import re
import time
from dataclasses import dataclass

import numpy as np

from . import filterbank as fb
from . import gridio
from . import nccnet as nn
from . import patchmath as pm

DEFAULT_NMS_RADIUS = 7.0
DEFAULT_MATCH_RADIUS = 2.0
DEFAULT_THRESHOLD_COUNT = 512


# ---------------------------------------------------------------------------
# scorers


def frame_to_u16(frame):
    """Round and clamp a float frame onto the u16 pixel range."""
    f = np.asarray(frame, dtype=float)
    return np.clip(np.rint(f), 0, 0xFFFF).astype(np.uint16)


# Largest score error, relative to max(1, |score|), that the response
# map's error bound may allow a window before the window is recomputed
# by the exact two-pass path.
_SCORE_RTOL = 5e-11

# Windows per batch of the exact fallback; bounds its (B, k*k) copies.
_EXACT_BATCH = 8192

_EPS = np.finfo(float).eps


class _FrameWindows:
    """The window statistics of one frame, each computed on first use and
    then kept for every scorer that scores the frame.

    :func:`run_benchmark` makes one per frame and hands it, in place of
    the frame, to every scorer, so a statistic is computed once per frame
    and charged to the first scorer that reads it; its items are freed
    with it, when the next frame gets a new one.  Only what depends on
    the frame alone is kept: each scorer still bounds its own error from
    its own filters, so whether a window takes the exact path stays
    decided per scorer.  Every item is computed by the same operations as
    a lone scorer computes it, so sharing changes no bit.
    """

    def __init__(self, frame):
        self._frame = frame
        self._memo = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def frame(self, k):
        """The checked float frame; ValueError unless it holds a k x k
        window."""
        f = self._get("frame", lambda: pm.as_patch(self._frame, "frame"))
        if f.shape[0] < k or f.shape[1] < k:
            raise ValueError(f"frame {f.shape} smaller than the {k}x{k} window")
        return f

    def centred(self, mode):
        """The frame less its mean (the frame itself for ``none``)."""
        if mode == pm.NORM_NONE:
            return self.frame(1)

        def make():
            f = self.frame(1)
            return f - f.mean()

        return self._get("x", make)

    def spectrum(self, mode):
        """``rfft2`` of :meth:`centred`."""
        return self._get(("spectrum", mode == pm.NORM_NONE),
                         lambda: np.fft.rfft2(self.centred(mode)))

    def rms(self, mode):
        """Root mean square of :meth:`centred`, the frame's part of the
        FFT error."""
        def make():
            x = self.centred(mode)
            return np.sqrt(np.mean(x * x))

        return self._get(("rms", mode == pm.NORM_NONE), make)

    def sums(self, k):
        """``(s1, mu, a1)`` of every k x k window of :meth:`centred`: its
        sum, its mean and its sum of absolute values."""
        def make():
            x = self.centred(pm.NORM_STD)
            s1 = pm._box_sums(x, k)
            return s1, s1 / (k * k), pm._box_sums(np.abs(x), k)

        return self._get(("sums", k), make)

    def norm(self, mode, k):
        """``(den, stat, rel)`` of every k x k window, ``mode`` STD or MAD:
        the score denominator, the std or mad, and the relative error of
        ``den``: for STD its cancellation in ``S2 - S1^2 / n``, by ``S2 /
        den^2``; for MAD the rounding of the sad from its pixels and mean."""
        def make():
            x = self.centred(mode)
            s1, mu, a1 = self.sums(k)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                if mode == pm.NORM_STD:
                    s2 = pm._box_sums(x * x, k)
                    den = np.sqrt(np.maximum(s2 - s1 * mu, 0.0))
                    return den, den / np.sqrt(k * k - 1), 4 * k * _EPS * s2 / (den * den)
                sad = pm._sad(x, mu, k)
                stat = sad / (k * k)
                return np.sqrt(k * k) * stat, stat, (2 * k + 1) * _EPS * a1 / sad

        return self._get((mode, k), make)

    def u16(self, k):
        """The frame on the u16 pixel range of the fixed-point scorers."""
        self.frame(k)
        return self._get("u16", lambda: frame_to_u16(self.frame(1)))


def _frame_windows(frame):
    """``frame`` itself if it is a :class:`_FrameWindows`, else a new one
    of it."""
    return frame if isinstance(frame, _FrameWindows) else _FrameWindows(frame)


def _exact_scores(rows, mode, mat):
    """(B, N) scores of B flattened windows by the two-pass path of the
    normalizer: centered rows, their N dots divided by the ``mode``
    denominator, 0.0 where flat (plain dots for ``none``)."""
    if mode == pm.NORM_NONE:
        return rows @ mat.T
    q = pm._centered(rows)
    den, _, valid = pm._row_stats(q, mode)
    dots = q @ mat.T
    return np.divide(dots, den[:, None], out=np.zeros_like(dots), where=valid[:, None])


def _window_scores(frame, k, mode, mat, spectra=None):
    """(H - k + 1, W - k + 1, N) map of every k x k window of ``frame`` (an
    array or a :class:`_FrameWindows`) against the rows of ``mat``: the
    window's N dots divided by its ``mode`` denominator, not its k*k
    pixels (plain dots for ``none``).

    The dots are FFT correlations of the centred frame, less the window
    mean times each row's sum, over :meth:`_FrameWindows.norm`'s
    denominator.  Every window gets a bound on its score's error, from the
    frame's energy, its own magnitude and the denominator's own error;
    where the bound exceeds ``_SCORE_RTOL * max(1, |score|)`` or cannot
    tell the std or mad from its flat floor, the window is recomputed
    exactly as :func:`_exact_scores`.  ``spectra``, a dict, keeps the
    rows' conjugate spectra for the last frame shape scored, so a scorer
    transforms its filters once per shape.
    """
    windows = _frame_windows(frame)
    f = windows.frame(k)
    n = k * k
    if spectra is None:
        spectra = {}
    if f.shape not in spectra:
        spectra.clear()
        spectra[f.shape] = pm._filter_spectra(mat.reshape(-1, k, k), f.shape)
    dots = pm._correlate_spectra(windows.spectrum(mode), spectra[f.shape], f.shape, (k, k))
    l1 = np.abs(mat).sum(axis=1).max()
    # the FFT's error: spread over the frame, a few eps * rms * l1
    err = _EPS * l1 * np.log2(f.size) * windows.rms(mode)
    if mode == pm.NORM_NONE:
        fast = err <= _SCORE_RTOL * np.maximum(1.0, np.abs(dots).min(axis=0))
    else:
        _, mu, a1 = windows.sums(k)
        sums = mat.sum(axis=1)
        for row, total in zip(dots, sums):  # one (h, w) temporary at a time
            row -= mu * total
        # plus the rounding of x and of the window mean, through the filter;
        # the bound is built in place: err first, then err / den + rel
        bound = _EPS * a1
        bound *= np.abs(mat).max() / 2 + 2 * k * np.abs(sums).max() / n
        bound += err
        den, stat, rel = windows.norm(mode, k)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bound /= den
            bound += rel
            if mode == pm.NORM_MAD:
                bound += (n + 1) * _EPS
            low = 1.0 - bound
            low *= stat
            floor = pm.SIGMA_MIN if mode == pm.NORM_STD else pm.MAD_MIN
            fast = (bound <= _SCORE_RTOL) & (low > floor)
            # every window off the fast path is recomputed below
            dots /= den
    rows, cols = np.nonzero(~fast)
    wins = np.lib.stride_tricks.sliding_window_view(f, (k, k))
    for lo in range(0, rows.size, _EXACT_BATCH):
        r, c = rows[lo : lo + _EXACT_BATCH], cols[lo : lo + _EXACT_BATCH]
        dots[:, r, c] = _exact_scores(wins[r, c].reshape(r.size, n), mode, mat).T
    return np.moveaxis(dots, 0, -1)


class NccFilterScorer:
    """NCC response of one fixed filter (float pipeline).

    ``mode`` selects the normalization applied to each window and to the
    filter itself; ``none`` degrades to plain (unnormalized) correlation.
    """

    def __init__(self, grid, mode=pm.NORM_STD):
        g = pm.as_patch(grid, "filter")
        if g.shape[0] != g.shape[1]:
            raise ValueError(f"filter must be square, got shape {g.shape}")
        self.window = g.shape[0]
        self.mode = mode
        if mode != pm.NORM_NONE:
            g = pm.normalize(g, mode)
        self._mat = g.reshape(1, -1).copy()
        self._spectra = {}

    def __call__(self, frame):
        return _window_scores(frame, self.window, self.mode, self._mat, self._spectra)[..., 0]


class NetworkScorer:
    """Response of a trained filter bank at every window; the bank is
    normalized once, here, so a flat filter raises DegeneratePatchError."""

    def __init__(self, net):
        self.net = net
        self.window = net.filter_size
        self.mode = net.norm_mode
        self._bank = nn.normalized_filters(net)
        self._spectra = {}

    def __call__(self, frame):
        dots = _window_scores(frame, self.window, self.mode, self._bank, self._spectra)
        return np.maximum(dots, 0.0, out=dots) @ self.net.weights


class MadRatioScorer:
    """Center-pixel deviation ratio |p_c - mean| / mad over each window:
    the absolute MAD-NCC response of a centre impulse of height k, as the
    window denominator is ``sqrt(k*k) * mad`` and ``sqrt(k*k) == k``."""

    def __init__(self, window=15):
        self.window = window = pm._odd(window, "window", 3)
        self.mode = pm.NORM_MAD
        self._mat = np.zeros((1, window * window))
        self._mat[0, window * window // 2] = window
        self._spectra = {}

    def __call__(self, frame):
        return np.abs(_window_scores(frame, self.window, self.mode, self._mat,
                                     self._spectra)[..., 0])


class FixedMadScorer:
    """Integer MAD-NCC pipeline; scores are the fixed outputs as floats."""

    def __init__(self, raw_taps, qformat=fb.TAP_QFORMAT):
        self.raw = fb._fixed_taps(raw_taps, qformat)
        self.qformat = qformat
        self.window = self.raw.shape[0]

    def __call__(self, frame):
        u16 = _frame_windows(frame).u16(self.window)
        raw, _, _ = fb.mad_ncc_fixed_response(u16, self.raw, qformat=self.qformat)
        scores = raw.astype(float)
        scores /= fb.OUT_QFORMAT.scale
        return scores


# ---------------------------------------------------------------------------
# detection


# slotted: a benchmark pass keeps every candidate of every frame and method
@dataclass(frozen=True, slots=True)
class Detection:
    row: int
    col: int
    score: float


def _local_maxima(response):
    """Cells >= all in-bounds 8-neighbors and > at least one of them.

    Plateau interiors and fully flat responses yield nothing; two-cell
    ties both qualify and are left for NMS to thin.  Missing neighbors
    beyond the response border neither disqualify a cell nor count as the
    required strictly-smaller neighbor.  A 1x1 response is its own peak.

    The 3 x 3 max over the -inf-padded response and the 3 x 3 min over the
    +inf-padded one are :func:`nccbank.patchmath._box_sums` reductions.
    Both include the cell itself, so ``r >= max`` means "at least every
    neighbor" and ``r > min`` "some neighbor strictly lower".  The min
    skips NaN (as a NaN neighbor is never strictly lower) and the max
    keeps it (as no cell is >= a NaN neighbor).
    """
    r = np.asarray(response, dtype=float)
    if r.size == 1:
        return np.ones(r.shape, dtype=bool)

    def window3(pad, reduce):
        return pm._box_sums(np.pad(r, 1, constant_values=pad), 3, reduce)

    return (r >= window3(-np.inf, np.maximum)) & (r > window3(np.inf, np.fmin))


def detect_candidates(frame, scorer, nms_radius=DEFAULT_NMS_RADIUS):
    """All NMS-surviving local maxima with their scores, threshold-free.

    Returns detections in frame coordinates (window centers), sorted by
    descending score with (row, col) tie-breaks; deterministic.  Raises
    ValueError for a negative or non-finite ``nms_radius``.
    """
    radius = pm._real(nms_radius, "nms_radius", 0.0)
    if not isinstance(frame, _FrameWindows):
        frame = np.asarray(frame, dtype=float)
    response = np.asarray(scorer(frame), dtype=float)
    rows, cols = np.nonzero(_local_maxima(response))
    if rows.size == 0:
        return []
    scores = response[rows, cols]
    # np.nonzero yields raster order, so a stable sort breaks ties by (row, col)
    order = np.argsort(-scores, kind="stable")
    rows, cols, scores = rows[order], cols[order], scores[order]
    # Candidates sit on integer cells, so "within the radius of a kept
    # candidate" is "inside the integer disk painted around it", here as
    # flat offsets into a border-padded mask.  Offsets beyond the response
    # cannot matter, which also keeps radius**2 finite.
    h, w = response.shape
    pr, pc = min(int(radius), h - 1), min(int(radius), w - 1)
    dr, dc = np.nonzero(np.arange(-pr, pr + 1)[:, None] ** 2 + np.arange(-pc, pc + 1) ** 2
                        <= min(radius, h + w) ** 2)
    width = w + 2 * pc
    offsets = (dr - pr) * width + (dc - pc)
    cells = np.empty_like(offsets)
    suppressed = np.zeros((h + 2 * pr) * width, dtype=bool)
    kept = []
    for i, at in enumerate(((rows + pr) * width + cols + pc).tolist()):
        if not suppressed[at]:
            kept.append(i)
            suppressed[np.add(offsets, at, out=cells)] = True
    half = scorer.window // 2
    return list(map(Detection, (rows[kept] + half).tolist(), (cols[kept] + half).tolist(),
                    scores[kept].tolist()))


def _thresholds(values, name, ndim=1):
    """``values`` as a float64 array of ``ndim`` dimensions (0: one threshold,
    1: a sweep), the one threshold rule of :func:`sliding_detect` and
    :func:`roc_curve`: ValueError unless every entry is a number other than
    NaN.  Text, bools and None are refused; +-inf are allowed."""
    numbers = (int, float, np.integer, np.floating)
    entries = np.asarray(values, dtype=object)
    bad = [v for v in entries.flat
           if isinstance(v, bool) or not isinstance(v, numbers) or math.isnan(v)]
    if bad or entries.ndim != ndim:
        what = "a number" if ndim == 0 else "a 1-D sequence of numbers"
        raise ValueError(f"{name} must be {what}, got {bad[0] if bad else values!r}")
    return entries.astype(float)


def sliding_detect(frame, scorer, threshold, nms_radius=DEFAULT_NMS_RADIUS):
    """Detections = NMS-surviving local maxima with score > threshold.

    Thresholding after suppression equals suppressing the thresholded set:
    greedy NMS only ever suppresses downward in score order.  ``threshold``
    is checked by :func:`_thresholds`.
    """
    threshold = float(_thresholds(threshold, "threshold", 0))
    return [
        d for d in detect_candidates(frame, scorer, nms_radius)
        if d.score > threshold
    ]


# ---------------------------------------------------------------------------
# matching


@dataclass(frozen=True)
class MatchResult:
    true_positives: int
    false_alarms: int
    false_negatives: int
    matches: tuple  # ((det_index, truth_index), ...)


def _as_truths(truths):
    """``truths`` as a (T, 2) float array; ValueError for another shape or
    a NaN or infinite coordinate, which no detection could ever hit."""
    t = np.asarray(truths, dtype=float)
    if t.size == 0:
        return np.zeros((0, 2))
    if t.ndim != 2 or t.shape[1] != 2:
        raise ValueError(f"truths must be (T, 2), got shape {t.shape}")
    bad = ~np.isfinite(t).all(axis=1)
    if bad.any():
        raise ValueError(f"truths must be finite, got {tuple(t[bad][0].tolist())}")
    return t


def _match_pairs(dets, truths, match_radius):
    """Ascending (distance, det index, truth index) over every detection
    within ``match_radius`` (a checked float) of a truth; greedy matching
    walks this list."""
    rc = np.array([(d.row, d.col) for d in dets], dtype=float).reshape(-1, 2)
    dist = np.hypot(rc[:, :1] - truths[:, 0], rc[:, 1:] - truths[:, 1])
    di, ti = np.nonzero(dist <= match_radius)
    return sorted(zip(dist[di, ti].tolist(), di.tolist(), ti.tolist()))


def _greedy_matches(pairs, live):
    """One-to-one (det, truth) matches from walking ``pairs`` in order,
    skipping detections whose ``live`` entry is false."""
    det_used = set()
    truth_used = set()
    matches = []
    for _, di, ti in pairs:
        if not live[di] or di in det_used or ti in truth_used:
            continue
        det_used.add(di)
        truth_used.add(ti)
        matches.append((di, ti))
    return matches


def match_detections(detections, truths, match_radius=DEFAULT_MATCH_RADIUS):
    """Greedy one-to-one matching by ascending detection-truth distance.

    A detection within ``match_radius`` (Euclidean, inclusive) of an
    unclaimed truth claims the nearest one; ties break on detection index
    then truth index.  Every unmatched detection is a false alarm, every
    unmatched truth a missed detection, so two detections near one truth
    count one hit plus one false alarm.  Raises ValueError for a negative
    or non-finite ``match_radius``, with or without truths.
    """
    radius = pm._real(match_radius, "match_radius", 0.0)
    t = _as_truths(truths)
    dets = list(detections)
    matches = _greedy_matches(_match_pairs(dets, t, radius), [True] * len(dets))
    tp = len(matches)
    return MatchResult(
        true_positives=tp,
        false_alarms=len(dets) - tp,
        false_negatives=t.shape[0] - tp,
        matches=tuple(matches),
    )


# ---------------------------------------------------------------------------
# ROC


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # strictly decreasing
    hit_rates: np.ndarray  # non-decreasing along the sweep
    fa_per_frame: np.ndarray  # non-decreasing along the sweep
    auc: float


def default_thresholds(scored_frames, count=DEFAULT_THRESHOLD_COUNT):
    """Evenly spaced descending sweep between min and max candidate score.

    Raises ValueError unless ``count`` is an integer >= 1, and for a NaN
    or infinite candidate score, wherever it sits: the sweep has no finite
    ends to space between."""
    count = pm._count(count, "count")
    scores = np.array([d.score for cands, _ in scored_frames for d in cands],
                      dtype=float)
    if not scores.size:
        return np.array([0.0])
    if not np.isfinite(scores).all():
        bad = scores[~np.isfinite(scores)][0]
        raise ValueError(f"candidate scores must be finite, got {bad}")
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:
        return np.array([hi])
    return np.linspace(hi, lo, count)


def _auc_from_points(hit, fa):
    famax = float(fa.max()) if fa.size else 0.0
    if famax == 0.0:
        # vertical curve: nothing to integrate over, report best hit rate
        return float(hit.max()) if hit.size else 0.0
    order = np.argsort(fa, kind="stable")
    return float(np.trapezoid(hit[order], fa[order]) / famax)


def roc_curve(scored_frames, thresholds, match_radius=DEFAULT_MATCH_RADIUS):
    """Sweep thresholds over pre-scored frames.

    ``scored_frames`` is a list of ``(candidates, truths)`` pairs where
    candidates come from :func:`detect_candidates`.  For each threshold the
    per-frame detection set is the candidates scoring above it, matched
    one-to-one against that frame's truths; hit rate aggregates true
    positives over all truths while false alarms average per frame.  The
    area under the curve integrates hit rate over false alarms per frame,
    normalized by the largest false-alarm rate the sweep reached (the
    abscissa has no natural upper bound).  ``match_radius`` is checked
    once, as :func:`match_detections` checks it, and ``thresholds`` by
    :func:`_thresholds`.  A NaN or infinite truth raises ValueError.
    """
    radius = pm._real(match_radius, "match_radius", 0.0)
    frames = [(list(cands), _as_truths(truths)) for cands, truths in scored_frames]
    if not frames:
        raise ValueError("no frames to sweep")
    total_truths = sum(t.shape[0] for _, t in frames)
    if total_truths == 0:
        raise ValueError("no ground truth targets in any frame")
    thr = np.sort(_thresholds(thresholds, "thresholds"))[::-1]
    if thr.size == 0:
        raise ValueError("no thresholds")

    # Greedy matching of a threshold's surviving subset walks the frame's
    # sorted pairs, skipping filtered detections; that equals
    # match_detections on the subset, as filtering keeps detection order.
    # Only paired detections change the matches, so the hit count is
    # constant between consecutive distinct paired scores: match once per
    # such score s, descending, for every threshold below s.
    tp = np.zeros(thr.size, dtype=int)
    dets = np.zeros(thr.size, dtype=int)
    for cands, t in frames:
        scores = np.array([d.score for d in cands])
        pairs = _match_pairs(cands, t, radius)
        # the count of scores above each threshold, NaN scores never above
        ranked = np.sort(scores[~np.isnan(scores)])
        dets += ranked.size - np.searchsorted(ranked, thr, side="right")
        frame_tp = np.zeros(thr.size, dtype=int)
        for s in np.unique(scores[[di for _, di, _ in pairs]])[::-1]:
            frame_tp[thr < s] = len(_greedy_matches(pairs, scores >= s))
        tp += frame_tp
    hits = tp / total_truths
    fas = (dets - tp) / len(frames)
    return RocCurve(thresholds=thr, hit_rates=hits, fa_per_frame=fas,
                    auc=_auc_from_points(hits, fas))


# ---------------------------------------------------------------------------
# method registry


GAUSS_METHODS = {"gauss-0.5": 0.5, "gauss-1.2": 1.2, "gauss-2.0": 2.0}
# The ideal hats of the benchmark reference; resolve_method takes any odd size.
HAT_IDEAL_METHODS = {"hat15-ideal": 15, "hat9-ideal": 9, "hat7-ideal": 7}


def _hat(size):
    return fb.crop_grid(fb.ricker_hat_grid(15), int(size))


# The method grammar: per family, the pattern a whole name must match and
# the scorer made of the match's groups.  The patterns are disjoint and
# spell each scorer one way (a hat's size is an odd 3..15 with no leading
# zero), so each scorer has one name and one dump file.
_FAMILIES = [
    (r"hat([3579]|1[135])-ideal", lambda k: NccFilterScorer(_hat(k), pm.NORM_STD)),
    (r"hat([3579]|1[135])-fixed-mad", lambda k: FixedMadScorer(fb.prepare_fixed_taps(_hat(k)))),
    ("(" + "|".join(map(re.escape, GAUSS_METHODS)) + ")",
     lambda key: NccFilterScorer(fb.gaussian_grid(15, GAUSS_METHODS[key]), pm.NORM_STD)),
    (r"mad-ratio", MadRatioScorer),
    (r"net:(.*)", lambda path: NetworkScorer(nn.load_network(path))),
    (r"filter:(.*)", lambda path: NccFilterScorer(gridio.read_grid(path), pm.NORM_STD)),
    (r"qfilter:(.*)", lambda path: FixedMadScorer(*fb.load_quantized_filter(path))),
]


def resolve_method(name):
    """The scorer, named ``name``, that the grammar above reads in ``name``.

    ``hat<k>-ideal`` (STD NCC) and ``hat<k>-fixed-mad`` (integer MAD path)
    crop the 15 x 15 Ricker hat to any odd k from 3 to 15; ``gauss-<sigma>``
    are the Gaussian matched filters of ``GAUSS_METHODS`` (STD NCC).
    ``net:<path>``, ``filter:<path>`` and ``qfilter:<path>`` load trained
    networks, plain filter grids (STD NCC) and quantized integer filters.
    Any other name, or a name that is not a string, raises ValueError.
    """
    if not isinstance(name, str):
        raise ValueError(f"unknown method {name!r}: a method is given by its name")
    for pattern, make in _FAMILIES:
        match = re.fullmatch(pattern, name, re.DOTALL)
        if match:
            scorer = make(*match.groups())
            scorer.name = name
            return scorer
    raise ValueError(f"unknown method {name!r}")


# ---------------------------------------------------------------------------
# benchmark driver


@dataclass(frozen=True)
class BenchConfig:
    """The settings of a benchmark pass, checked when the config is built
    (``dataclasses.replace`` included): ValueError unless both radii are
    finite numbers >= 0, ``threshold_count`` an integer >= 1 and
    ``include_timing`` a bool.  Text is refused; it is read only from
    meta.csv.  Frozen, so a checked config stays checked."""
    nms_radius: float = DEFAULT_NMS_RADIUS
    match_radius: float = DEFAULT_MATCH_RADIUS
    threshold_count: int = DEFAULT_THRESHOLD_COUNT
    include_timing: bool = True

    def __post_init__(self):
        pm._real(self.nms_radius, "nms_radius", 0.0)
        pm._real(self.match_radius, "match_radius", 0.0)
        pm._count(self.threshold_count, "threshold_count")
        if not isinstance(self.include_timing, (bool, np.bool_)):
            raise ValueError(f"include_timing must be a bool, got {self.include_timing!r}")


@dataclass
class MethodResult:
    name: str
    curve: RocCurve
    ms_per_frame: float  # None when timing disabled
    frame_candidates: list  # list per frame of Detection lists


@dataclass
class BenchReport:
    results: list
    truths: list  # per-frame (T, 2) arrays; their count is the frame count
    config: BenchConfig


def _sweep(name, per_frame, truths, cfg, ms_per_frame=None):
    """ROC sweep of one method's per-frame candidates, as its result."""
    scored = list(zip(per_frame, truths))
    thresholds = default_thresholds(scored, cfg.threshold_count)
    curve = roc_curve(scored, thresholds, match_radius=cfg.match_radius)
    return MethodResult(
        name=name, curve=curve, ms_per_frame=ms_per_frame,
        frame_candidates=per_frame,
    )


def run_benchmark(frames, truths, methods, config=None):
    """Score every frame with every method and sweep a ROC per method.

    ``methods`` are names (see :func:`resolve_method`); ``config`` is a
    :class:`BenchConfig` (checked when it was built), or None for the
    defaults.  Any other config, a NaN or infinite truth, or a truth
    outside its frame raises ValueError, and every method is resolved and
    checked for a dump file of its own, before the first frame is scored.

    Frames are the outer loop and methods the inner one.  Every scorer is
    handed the frame's :class:`_FrameWindows`, so all share its window
    statistics (the centred frame and its spectrum, box sums, the STD and
    MAD denominators, the u16 frame): each is computed once, by the first
    scorer that reads it, and kept until the frame's last method has
    scored it.  A method's ``ms_per_frame`` is the sum of its own scoring
    and detection times over the frames, divided by their count, so a
    shared statistic is charged to the first method that reads it.
    """
    cfg = BenchConfig() if config is None else config
    if not isinstance(cfg, BenchConfig):
        raise ValueError(f"config must be a BenchConfig, got {config!r}")
    frames = [np.asarray(f, dtype=float) for f in frames]
    truth_arrays = [_as_truths(t) for t in truths]
    if len(frames) != len(truth_arrays):
        raise ValueError(
            f"{len(frames)} frames but {len(truth_arrays)} truth lists"
        )
    if not frames:
        raise ValueError("no frames")
    for i, (f, t) in enumerate(zip(frames, truth_arrays)):
        if f.ndim != 2:  # refused when the frame is scored
            continue
        (h, w), (rows, cols) = f.shape, t.T
        outside = ~((0 <= rows) & (rows < h) & (0 <= cols) & (cols < w))
        if outside.any():
            row, col = t[outside][0].tolist()
            raise ValueError(f"truth ({row}, {col}) lies outside frame {i} ({h}x{w})")
    scorers = [resolve_method(m) for m in methods]
    _dump_files([scorer.name for scorer in scorers])
    per_method = [[] for _ in scorers]
    elapsed = [0.0] * len(scorers)
    for frame in frames:
        windows = _FrameWindows(frame)
        for m, scorer in enumerate(scorers):
            start = time.perf_counter()
            per_method[m].append(detect_candidates(windows, scorer, cfg.nms_radius))
            elapsed[m] += time.perf_counter() - start
    results = []
    for scorer, per_frame, spent in zip(scorers, per_method, elapsed):
        ms = 1000.0 * spent / len(frames) if cfg.include_timing else None
        results.append(_sweep(scorer.name, per_frame, truth_arrays, cfg, ms))
    return BenchReport(results=results, truths=truth_arrays, config=cfg)


# ---------------------------------------------------------------------------
# report files


def _safe_filename(name):
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _dump_files(names):
    """Each method's detection dump file name, in order; ValueError naming
    both methods if two names give the same file."""
    owners = {}
    for name in names:
        dump = _safe_filename(name) + ".csv"
        if dump in owners:
            raise ValueError(f"methods {owners[dump]!r} and {name!r} "
                             f"would share detections/{dump}")
        owners[dump] = name
    return list(owners)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_benchmark_report(report, out_dir):
    """Write roc.csv, auc.csv, truths.csv, meta.csv and per-method
    detection dumps under ``out_dir``.  Every float is written with repr,
    so reports are byte-stable for identical inputs (disable timing for a
    fully deterministic auc.csv).  Two methods whose names give the same
    dump file raise ValueError before anything is written."""
    results = report.results
    dumps = _dump_files([r.name for r in results])
    det_dir = os.path.join(out_dir, "detections")
    os.makedirs(det_dir, exist_ok=True)
    cfg = report.config

    _write_csv(os.path.join(out_dir, "roc.csv"),
               ["method", "threshold", "hit_rate", "fa_per_frame"],
               ([r.name, repr(float(t)), repr(float(h)), repr(float(fa))]
                for r in results
                for t, h, fa in zip(r.curve.thresholds, r.curve.hit_rates,
                                    r.curve.fa_per_frame)))
    _write_csv(os.path.join(out_dir, "auc.csv"), ["method", "auc", "ms_per_frame"],
               ([r.name, repr(float(r.curve.auc)),
                 "" if r.ms_per_frame is None else repr(float(r.ms_per_frame))]
                for r in results))
    _write_csv(os.path.join(out_dir, "truths.csv"), ["frame", "row", "col"],
               ([fi, int(row), int(col)]
                for fi, t in enumerate(report.truths) for row, col in t))
    _write_csv(os.path.join(out_dir, "meta.csv"), ["key", "value"], [
        ["frame_count", len(report.truths)],
        ["nms_radius", repr(float(cfg.nms_radius))],
        ["match_radius", repr(float(cfg.match_radius))],
        ["threshold_count", cfg.threshold_count],
    ])
    for dump, r in zip(dumps, results):
        _write_csv(os.path.join(det_dir, dump),
                   ["frame", "row", "col", "score"],
                   ([fi, d.row, d.col, repr(d.score)]
                    for fi, dets in enumerate(r.frame_candidates) for d in dets))


def _finite(what):
    """A converter of text to a float that raises ValueError, naming
    ``what``, unless the float is finite."""
    return lambda text: pm._real(gridio._number(text, float), what)


# meta.csv's keys, each with the type its text is read as
_META_KINDS = {"frame_count": int, "nms_radius": float, "match_radius": float,
               "threshold_count": int}


def read_benchmark_scores(out_dir):
    """Load a written report's inputs back for a ROC re-sweep.

    Returns ``(per_method, truths, config)`` where ``per_method`` maps each
    method name (from auc.csv order) to per-frame candidate lists, and
    ``config`` is the :class:`BenchConfig` of meta.csv's radii and
    threshold count, with ``include_timing=False``; ``len(truths)`` is
    meta.csv's ``frame_count``.  A missing or malformed meta value (a
    count not an integer >= 1, a radius not a finite number >= 0), a
    truth or detection row whose frame is outside ``[0, frame_count)``, or
    a NaN or infinite truth coordinate or detection score, raises
    ValueError naming the file (and the line).
    """
    meta_path = os.path.join(out_dir, "meta.csv")
    text = dict(gridio._read_csv(meta_path, ["key", "value"], (str, str)))
    missing = [key for key in _META_KINDS if key not in text]
    if missing:
        raise ValueError(f"{meta_path}: missing {', '.join(missing)}")
    try:
        meta = {}
        for key, kind in _META_KINDS.items():
            rule = "an integer >= 1" if kind is int else "finite and >= 0"
            bad = f"{key} must be {rule}, got {text[key]!r}"
            meta[key] = gridio._numbers([text[key]], bad, kind)[0]
        frame_count = pm._count(meta.pop("frame_count"), "frame_count")
        config = BenchConfig(include_timing=False, **meta)
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None

    def frame(text):
        return pm._count(gridio._number(text), "frame", 0, frame_count - 1)

    def by_frame(name, header, types, make):
        per_frame = [[] for _ in range(frame_count)]
        for fi, *fields in gridio._read_csv(os.path.join(out_dir, name), header,
                                            (frame, *types)):
            per_frame[fi].append(make(*fields))
        return per_frame

    truths = by_frame("truths.csv", ["frame", "row", "col"],
                      (_finite("row"), _finite("col")),
                      lambda row, col: (row, col))
    truths = [np.array(t).reshape(-1, 2) for t in truths]

    aucs = gridio._read_csv(os.path.join(out_dir, "auc.csv"),
                            ["method", "auc", "ms_per_frame"], (str, str, str))
    per_method = {
        name: by_frame(os.path.join("detections", _safe_filename(name) + ".csv"),
                       ["frame", "row", "col", "score"],
                       (gridio._number, gridio._number, _finite("score")),
                       Detection)
        for name, *_ in aucs
    }
    return per_method, truths, config


def resweep_roc(out_dir, dest_dir):
    """Recompute roc.csv/auc.csv from a stored report's detection dumps,
    with the config :func:`read_benchmark_scores` reads from its meta.csv,
    and write the whole report to ``dest_dir``."""
    per_method, truths, cfg = read_benchmark_scores(out_dir)
    results = [_sweep(name, per_frame, truths, cfg)
               for name, per_frame in per_method.items()]
    report = BenchReport(results=results, truths=truths, config=cfg)
    write_benchmark_report(report, dest_dir)
    return report
