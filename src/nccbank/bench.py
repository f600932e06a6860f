"""Detection benchmarking: frame scorers, matching, ROC sweeps, reports.

Every method is wrapped as a *scorer*: a callable mapping a frame to a
valid-mode response map (one score per fully-inside window position,
degenerate windows scoring 0.0) plus ``name`` and ``window`` attributes.
Detection is local maxima of the response followed by greedy non-maximum
suppression; detections are matched one-to-one to ground truth by
ascending distance, and ROC curves aggregate hits over all truths against
false alarms per frame.
"""

import csv
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


def _check_frame(frame, window):
    f = np.asarray(frame, dtype=float)
    if f.ndim != 2:
        raise ValueError(f"frame must be 2-D, got shape {f.shape}")
    if f.shape[0] < window or f.shape[1] < window:
        raise ValueError(
            f"frame {f.shape} smaller than the {window}x{window} window"
        )
    if not np.all(np.isfinite(f)):
        raise ValueError("frame contains non-finite pixels")
    return f


def _chunk_scores(block, mode, mat):
    """(rows, cols, N) scores of one (rows, cols, k, k) chunk of windows
    against the N rows of ``mat``; degenerate windows score 0.0."""
    rows, cols = block.shape[:2]
    if mode == pm.NORM_NONE:
        return (block.reshape(rows * cols, -1) @ mat.T).reshape(rows, cols, -1)
    # unnamed, so the pixel copy is freed before the statistics allocate
    q = pm._centered(block.reshape(rows * cols, -1))
    den, _, valid = pm._row_stats(q, mode)
    dots = q @ mat.T
    out = np.divide(dots, den[:, None], out=np.zeros_like(dots), where=valid[:, None])
    return out.reshape(rows, cols, -1)


def _window_scores(frame, k, mode, mat):
    """(H - k + 1, W - k + 1, N) map of every k x k window of ``frame``
    against the rows of ``mat``: the window's N dots divided by its
    ``mode`` denominator, not its k*k pixels (plain dots for ``none``)."""
    blocks = pm._window_chunks(_check_frame(frame, k), k)
    return np.concatenate([_chunk_scores(b, mode, mat) for b in blocks])


class NccFilterScorer:
    """NCC response of one fixed filter (float pipeline).

    ``mode`` selects the normalization applied to each window and to the
    filter itself; ``none`` degrades to plain (unnormalized) correlation.
    """

    def __init__(self, grid, mode=pm.NORM_STD, name=None):
        g = pm.as_patch(grid, "filter")
        if g.shape[0] != g.shape[1]:
            raise ValueError(f"filter must be square, got shape {g.shape}")
        self.window = g.shape[0]
        self.mode = mode
        self.name = name or f"nccfilter-{self.window}-{mode}"
        if mode != pm.NORM_NONE:
            g = pm.normalize(g, mode)
        self._mat = g.reshape(1, -1).copy()

    def __call__(self, frame):
        return _window_scores(frame, self.window, self.mode, self._mat)[..., 0]


class NetworkScorer:
    """Response of a trained filter bank at every window; the bank is
    normalized once, here, so a flat filter raises DegeneratePatchError."""

    def __init__(self, net, name=None):
        self.net = net
        self.window = net.filter_size
        self.name = name or f"net-{net.num_filters}x{net.filter_size}-{net.norm_mode}"
        self._bank = nn.normalized_filters(net)

    def __call__(self, frame):
        dots = _window_scores(frame, self.window, self.net.norm_mode, self._bank)
        return np.maximum(dots, 0.0) @ self.net.weights


class MadRatioScorer:
    """Center-pixel deviation ratio |p_c - mean| / mad over each window:
    the absolute MAD-NCC response of a centre impulse of height k, as the
    window denominator is ``sqrt(k*k) * mad`` and ``sqrt(k*k) == k``."""

    def __init__(self, window=15, name=None):
        if window % 2 == 0 or window < 3:
            raise ValueError(f"window must be odd and >= 3, got {window}")
        self.window = window
        self.name = name or "mad-ratio"
        self._mat = np.zeros((1, window * window))
        self._mat[0, window * window // 2] = window

    def __call__(self, frame):
        return np.abs(_window_scores(frame, self.window, pm.NORM_MAD, self._mat)[..., 0])


class FixedMadScorer:
    """Integer MAD-NCC pipeline; scores are the fixed outputs as floats."""

    def __init__(self, raw_taps, qformat=fb.TAP_QFORMAT, name=None):
        raw = np.asarray(raw_taps)
        self.raw = raw
        self.qformat = qformat
        self.window = raw.shape[0]
        self.name = name or f"fixed-mad-{self.window}"

    def __call__(self, frame):
        f = _check_frame(frame, self.window)
        u16 = frame_to_u16(f)
        raw, _ = fb.mad_ncc_fixed_response(u16, self.raw, qformat=self.qformat)
        return raw.astype(float) / fb.OUT_QFORMAT.scale


# ---------------------------------------------------------------------------
# detection


@dataclass(frozen=True)
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
    """
    r = np.asarray(response, dtype=float)
    if r.size == 1:
        return np.ones(r.shape, dtype=bool)
    lo = np.pad(r, 1, constant_values=-np.inf)  # missing: always <=
    hi = np.pad(r, 1, constant_values=np.inf)  # missing: never strictly less
    ge_all = np.ones(r.shape, dtype=bool)
    gt_any = np.zeros(r.shape, dtype=bool)
    h, w = r.shape
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            ge_all &= r >= lo[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
            gt_any |= r > hi[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    return ge_all & gt_any


def _check_radius(radius, name):
    """``radius`` as a float; ValueError unless it is finite and >= 0."""
    r = float(radius)
    if not (np.isfinite(r) and r >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {radius!r}")
    return r


def detect_candidates(frame, scorer, nms_radius=DEFAULT_NMS_RADIUS):
    """All NMS-surviving local maxima with their scores, threshold-free.

    Returns detections in frame coordinates (window centers), sorted by
    descending score with (row, col) tie-breaks; deterministic.  Raises
    ValueError for a negative or non-finite ``nms_radius``.
    """
    r2 = _check_radius(nms_radius, "nms_radius") ** 2
    response = scorer(np.asarray(frame, dtype=float))
    mask = _local_maxima(response)
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        return []
    scores = response[rows, cols]
    order = np.lexsort((cols, rows, -scores))
    rows, cols, scores = rows[order], cols[order], scores[order]
    keep_r = np.empty(rows.size)
    keep_c = np.empty(rows.size)
    kept = []
    m = 0
    for i in range(rows.size):
        if m:
            d2 = (keep_r[:m] - rows[i]) ** 2 + (keep_c[:m] - cols[i]) ** 2
            if np.any(d2 <= r2):
                continue
        keep_r[m] = rows[i]
        keep_c[m] = cols[i]
        m += 1
        kept.append(i)
    half = scorer.window // 2
    return [
        Detection(int(rows[i] + half), int(cols[i] + half), float(scores[i]))
        for i in kept
    ]


def sliding_detect(frame, scorer, threshold, nms_radius=DEFAULT_NMS_RADIUS):
    """Detections = NMS-surviving local maxima with score > threshold.

    Thresholding after suppression equals suppressing the thresholded set:
    greedy NMS only ever suppresses downward in score order.  A NaN
    ``threshold`` raises ValueError; +-inf are allowed.
    """
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
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
    t = np.asarray(truths, dtype=float)
    if t.size == 0:
        return np.zeros((0, 2))
    if t.ndim != 2 or t.shape[1] != 2:
        raise ValueError(f"truths must be (T, 2), got shape {t.shape}")
    return t


def _match_pairs(dets, truths, match_radius):
    """Ascending (distance, det index, truth index) over every detection
    within ``match_radius`` of a truth; greedy matching walks this list.
    Raises ValueError for a negative or non-finite ``match_radius``, with
    or without truths."""
    match_radius = _check_radius(match_radius, "match_radius")
    pairs = []
    if truths.shape[0]:
        for di, d in enumerate(dets):
            dist = np.hypot(truths[:, 0] - d.row, truths[:, 1] - d.col)
            for ti in np.nonzero(dist <= match_radius)[0]:
                pairs.append((float(dist[ti]), di, int(ti)))
    pairs.sort()
    return pairs


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
    count one hit plus one false alarm.
    """
    t = _as_truths(truths)
    dets = list(detections)
    matches = _greedy_matches(_match_pairs(dets, t, match_radius), [True] * len(dets))
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
    method: str
    thresholds: np.ndarray  # strictly decreasing
    hit_rates: np.ndarray  # non-decreasing along the sweep
    fa_per_frame: np.ndarray  # non-decreasing along the sweep
    auc: float
    frame_count: int
    truth_count: int


def default_thresholds(scored_frames, count=DEFAULT_THRESHOLD_COUNT):
    """Evenly spaced descending sweep between min and max candidate score."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    scores = [d.score for cands, _ in scored_frames for d in cands]
    if not scores:
        return np.array([0.0])
    lo, hi = min(scores), max(scores)
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


def roc_curve(scored_frames, thresholds, match_radius=DEFAULT_MATCH_RADIUS,
              method="unknown"):
    """Sweep thresholds over pre-scored frames.

    ``scored_frames`` is a list of ``(candidates, truths)`` pairs where
    candidates come from :func:`detect_candidates`.  For each threshold the
    per-frame detection set is the candidates scoring above it, matched
    one-to-one against that frame's truths; hit rate aggregates true
    positives over all truths while false alarms average per frame.  The
    area under the curve integrates hit rate over false alarms per frame,
    normalized by the largest false-alarm rate the sweep reached (the
    abscissa has no natural upper bound).
    """
    frames = [(list(cands), _as_truths(truths)) for cands, truths in scored_frames]
    if not frames:
        raise ValueError("no frames to sweep")
    total_truths = sum(t.shape[0] for _, t in frames)
    if total_truths == 0:
        raise ValueError("no ground truth targets in any frame")
    thr = np.sort(np.asarray(thresholds, dtype=float))[::-1]
    if thr.size == 0:
        raise ValueError("no thresholds")

    # Per frame: candidate scores (descending already) and the ascending
    # (distance, det, truth) pair list; greedy matching of any threshold's
    # surviving subset walks the same sorted pairs, skipping filtered
    # detections, which matches match_detections on the subset because
    # filtering by score preserves detection order.
    prep = []
    for cands, t in frames:
        scores = np.array([d.score for d in cands])
        prep.append((scores, _match_pairs(cands, t, match_radius)))

    hits = np.empty(thr.size)
    fas = np.empty(thr.size)
    for k, t_k in enumerate(thr):
        tp_total = 0
        det_total = 0
        for scores, pairs in prep:
            live = scores > t_k
            det_total += int(np.count_nonzero(live))
            tp_total += len(_greedy_matches(pairs, live))
        hits[k] = tp_total / total_truths
        fas[k] = (det_total - tp_total) / len(frames)
    return RocCurve(
        method=method,
        thresholds=thr,
        hit_rates=hits,
        fa_per_frame=fas,
        auc=_auc_from_points(hits, fas),
        frame_count=len(frames),
        truth_count=total_truths,
    )


# ---------------------------------------------------------------------------
# method registry


GAUSS_METHODS = {
    "gauss-0.5": 0.5,
    "gauss-1.2": 1.2,
    "gauss-2.0": 2.0,
}
HAT_IDEAL_METHODS = {"hat15-ideal": 15, "hat9-ideal": 9, "hat7-ideal": 7}
HAT_FIXED_METHODS = {"hat9-fixed-mad": 9, "hat7-fixed-mad": 7, "hat5-fixed-mad": 5}

BUILTIN_METHODS = (
    tuple(GAUSS_METHODS)
    + ("mad-ratio",)
    + tuple(HAT_IDEAL_METHODS)
    + tuple(HAT_FIXED_METHODS)
)


def resolve_method(name):
    """Turn a method name into a scorer.

    Built-ins cover the Gaussian matched filters, the MAD deviation ratio,
    and the hat family (ideal float and cropped fixed-point variants).
    ``net:<path>``, ``filter:<path>`` and ``qfilter:<path>`` load trained
    networks, plain filter grids (STD NCC) and quantized integer filters.
    """
    if name in GAUSS_METHODS:
        return NccFilterScorer(
            fb.gaussian_grid(15, GAUSS_METHODS[name]), pm.NORM_STD, name=name
        )
    if name == "mad-ratio":
        return MadRatioScorer(name=name)
    if name in HAT_IDEAL_METHODS:
        size = HAT_IDEAL_METHODS[name]
        grid = fb.crop_grid(fb.ricker_hat_grid(15), size)
        return NccFilterScorer(grid, pm.NORM_STD, name=name)
    if name in HAT_FIXED_METHODS:
        size = HAT_FIXED_METHODS[name]
        grid = fb.crop_grid(fb.ricker_hat_grid(15), size)
        return FixedMadScorer(fb.prepare_fixed_taps(grid), name=name)
    if name.startswith("net:"):
        return NetworkScorer(nn.load_network(name[4:]), name=name)
    if name.startswith("filter:"):
        return NccFilterScorer(gridio.read_grid(name[7:]), pm.NORM_STD, name=name)
    if name.startswith("qfilter:"):
        raw, qf = fb.load_quantized_filter(name[8:])
        return FixedMadScorer(raw, qformat=qf, name=name)
    raise ValueError(f"unknown method {name!r}")


# ---------------------------------------------------------------------------
# benchmark driver


@dataclass
class BenchConfig:
    nms_radius: float = DEFAULT_NMS_RADIUS
    match_radius: float = DEFAULT_MATCH_RADIUS
    threshold_count: int = DEFAULT_THRESHOLD_COUNT
    include_timing: bool = True


@dataclass
class MethodResult:
    name: str
    curve: RocCurve
    ms_per_frame: float  # None when timing disabled
    frame_candidates: list  # list per frame of Detection lists


@dataclass
class BenchReport:
    results: list
    truths: list  # per-frame (T, 2) arrays
    frame_count: int
    config: BenchConfig

    def auc(self, method):
        for r in self.results:
            if r.name == method:
                return r.curve.auc
        raise KeyError(method)


def _sweep(name, per_frame, truths, cfg, ms_per_frame=None):
    """ROC sweep of one method's per-frame candidates, as its result."""
    scored = list(zip(per_frame, truths))
    thresholds = default_thresholds(scored, cfg.threshold_count)
    curve = roc_curve(scored, thresholds, match_radius=cfg.match_radius, method=name)
    return MethodResult(
        name=name, curve=curve, ms_per_frame=ms_per_frame,
        frame_candidates=per_frame,
    )


def run_benchmark(frames, truths, methods, config=None):
    """Score every frame with every method and sweep a ROC per method.

    ``methods`` entries are either name strings (see
    :func:`resolve_method`) or ready-made scorer objects.
    """
    cfg = config or BenchConfig()
    frames = [np.asarray(f, dtype=float) for f in frames]
    truth_arrays = [_as_truths(t) for t in truths]
    if len(frames) != len(truth_arrays):
        raise ValueError(
            f"{len(frames)} frames but {len(truth_arrays)} truth lists"
        )
    if not frames:
        raise ValueError("no frames")
    results = []
    for method in methods:
        scorer = resolve_method(method) if isinstance(method, str) else method
        start = time.perf_counter()
        per_frame = [
            detect_candidates(f, scorer, cfg.nms_radius) for f in frames
        ]
        elapsed = time.perf_counter() - start
        ms = 1000.0 * elapsed / len(frames) if cfg.include_timing else None
        results.append(_sweep(scorer.name, per_frame, truth_arrays, cfg, ms))
    return BenchReport(
        results=results,
        truths=truth_arrays,
        frame_count=len(frames),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# report files


def _safe_filename(name):
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_benchmark_report(report, out_dir):
    """Write roc.csv, auc.csv, truths.csv, meta.csv and per-method
    detection dumps under ``out_dir``.  Every float is written with repr,
    so reports are byte-stable for identical inputs (disable timing for a
    fully deterministic auc.csv)."""
    os.makedirs(out_dir, exist_ok=True)
    det_dir = os.path.join(out_dir, "detections")
    os.makedirs(det_dir, exist_ok=True)
    results = report.results
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
        ["frame_count", report.frame_count],
        ["nms_radius", repr(float(cfg.nms_radius))],
        ["match_radius", repr(float(cfg.match_radius))],
        ["threshold_count", cfg.threshold_count],
    ])
    for r in results:
        _write_csv(os.path.join(det_dir, _safe_filename(r.name) + ".csv"),
                   ["frame", "row", "col", "score"],
                   ([fi, d.row, d.col, repr(d.score)]
                    for fi, dets in enumerate(r.frame_candidates) for d in dets))


_META_KEYS = ("frame_count", "nms_radius", "match_radius", "threshold_count")


def read_benchmark_scores(out_dir):
    """Load a written report's inputs back for a ROC re-sweep.

    Returns ``(per_method, truths, meta)`` where ``per_method`` maps each
    method name (from auc.csv order) to per-frame candidate lists.  A
    missing meta key, a ``frame_count`` below 1, or a truth or detection
    row whose frame is outside ``[0, frame_count)`` raises ValueError
    naming the file (and the line).
    """
    meta_path = os.path.join(out_dir, "meta.csv")
    meta = dict(gridio._read_csv(meta_path, ["key", "value"], (str, str)))
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise ValueError(f"{meta_path}: missing {', '.join(missing)}")
    count = meta["frame_count"]
    if not (count.isdecimal() and int(count) >= 1):
        raise ValueError(
            f"{meta_path}: frame_count must be an integer >= 1, got {count!r}"
        )
    frame_count = int(count)

    def frame(text):
        fi = int(text)
        if not 0 <= fi < frame_count:
            raise ValueError(f"frame {fi} outside [0, {frame_count})")
        return fi

    def by_frame(name, header, types, make):
        per_frame = [[] for _ in range(frame_count)]
        for fi, *fields in gridio._read_csv(os.path.join(out_dir, name), header,
                                            (frame, *types)):
            per_frame[fi].append(make(*fields))
        return per_frame

    truths = by_frame("truths.csv", ["frame", "row", "col"], (float, float),
                      lambda row, col: (row, col))
    truths = [np.array(t).reshape(-1, 2) for t in truths]

    aucs = gridio._read_csv(os.path.join(out_dir, "auc.csv"),
                            ["method", "auc", "ms_per_frame"], (str, str, str))
    per_method = {
        name: by_frame(os.path.join("detections", _safe_filename(name) + ".csv"),
                       ["frame", "row", "col", "score"], (int, int, float), Detection)
        for name, *_ in aucs
    }
    return per_method, truths, meta


def resweep_roc(out_dir, dest_dir):
    """Recompute roc.csv/auc.csv from a stored report's detection dumps."""
    per_method, truths, meta = read_benchmark_scores(out_dir)
    cfg = BenchConfig(
        nms_radius=float(meta["nms_radius"]),
        match_radius=float(meta["match_radius"]),
        threshold_count=int(meta["threshold_count"]),
        include_timing=False,
    )
    results = [_sweep(name, per_frame, truths, cfg)
               for name, per_frame in per_method.items()]
    report = BenchReport(
        results=results, truths=truths, frame_count=len(truths), config=cfg
    )
    write_benchmark_report(report, dest_dir)
    return report
