"""Two-layer NCC network: learned filter bank + ReLU + decision weights.

The model scores a patch ``p`` as

    out = sum_i  w_i * relu( <norm(p), norm(f_i)> )

where ``norm`` is the configured normalization (``std``, ``mad``, or
``none``) applied to both the patch and each filter, ``f_i`` are the raw
filter taps, and ``w_i`` are scalar decision weights.  There are no biases.
Labels are +1 (target) / -1 (clutter) and training minimizes the mean L1
loss ``|out - label|`` with SGD plus classical momentum and weight decay.

All gradients are derived by hand.  Patches are inputs, so gradients flow
only into the filter taps (through the normalization Jacobian, in the
factored form of :func:`nccbank.patchmath.backprop_normalization`) and
into the weights.
Subgradient conventions at the kinks: ``relu'(0) = 0``, ``d|x|/dx = 0`` at
``x = 0``, and ``sign(0) = 0`` inside the MAD backprop.

Because normalization backprop is linear in the upstream gradient, a whole
batch can be pulled through the bank's Jacobians in one call: upstream
gradients are accumulated in normalized-filter space first, and each step
normalizes the bank once for both the forward and the backward pass.

Every batch step of :func:`train` is ``_l1_step``: ``_forward`` over the
batch's normalized patch rows, the mean L1 loss and its dL/d(out), and
``_backward``, which takes any dL/d(out), so ``_l1_step`` is the only
loss-specific code.  The same ``_forward`` scores every row after each
epoch.
:func:`forward` keeps its single-patch form as the reference.
"""

import dataclasses

import numpy as np

from nccbank import gridio
from nccbank import patchmath as pm


# Rows per block of _forward's products.  Multithreaded OpenBLAS touches
# workspace in proportion to a product's row count: one (162,560 x 225)
# (225 x 4) float32 scoring raised RSS by 37-40 MB on two threads, the
# same rows in 2,048-row blocks by 4.6 MB.  256- and 512-row blocks changed
# the bits of the 4-filter scores (OpenBLAS picks other kernels for small
# products).  A 1-filter bank's blocks are matrix-vector products, which
# OpenBLAS ran on one thread at 1,024 rows (18 ms per corpus scoring
# instead of 10) and on two at 2,048.
_SCORE_ROWS = 2048


@dataclasses.dataclass
class NccNetwork:
    """Filter bank (num_filters, k, k), decision weights (num_filters,),
    and the normalization mode shared by patches and filters."""

    filters: np.ndarray
    weights: np.ndarray
    norm_mode: str = pm.NORM_STD

    def __post_init__(self):
        self.filters = np.asarray(self.filters, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.filters.ndim != 3:
            raise ValueError(f"filters must be (N, k, k), got {self.filters.shape}")
        n, kh, kw = self.filters.shape
        if n < 1 or kh != kw or kh < 2:
            raise ValueError(f"bad filter bank shape {self.filters.shape}")
        if self.weights.shape != (n,):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match {n} filters"
            )
        if self.norm_mode not in pm.NORM_MODES:
            raise ValueError(f"unknown normalization mode {self.norm_mode!r}")

    @property
    def num_filters(self):
        return self.filters.shape[0]

    @property
    def filter_size(self):
        return self.filters.shape[1]


@dataclasses.dataclass
class GradientSet:
    filters: np.ndarray
    weights: np.ndarray


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """The settings of :func:`train`, checked when built (``dataclasses.replace``
    included) and frozen after: a field outside the bounds that
    ``__post_init__`` lists raises ValueError."""
    learning_rate: float = 0.001
    momentum: float = 0.95
    weight_decay: float = 0.0005
    batch_size: int = 40
    max_epochs: int = 5
    holdout_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "momentum", "weight_decay"):
            pm._real(getattr(self, name), name)
        pm._count(self.batch_size, "batch_size")
        pm._count(self.max_epochs, "max_epochs")
        pm._real(self.holdout_fraction, "holdout_fraction", 0.0, 1.0, "[)")
        pm._count(self.seed, "seed", 0)


@dataclasses.dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    filter_rel_change: float
    holdout_accuracy: float
    threshold: float


@dataclasses.dataclass
class TrainHistory:
    epochs: list
    train_size: int
    holdout_size: int
    skipped_degenerate: int

    @property
    def final_accuracy(self):
        return self.epochs[-1].holdout_accuracy


def init_network(num_filters, filter_size=15, norm_mode=pm.NORM_STD, seed=0):
    """Fresh network: taps i.i.d. uniform on [-0.05, 0.05], weights 1/N;
    ``num_filters`` must be an integer >= 1, ``filter_size`` >= 2, ``seed`` >= 0."""
    pm._count(num_filters, "num_filters")
    pm._count(filter_size, "filter_size", 2)
    rng = np.random.default_rng(pm._count(seed, "seed", 0))
    filters = rng.uniform(-0.05, 0.05, size=(num_filters, filter_size, filter_size))
    weights = np.full(num_filters, 1.0 / num_filters)
    return NccNetwork(filters=filters, weights=weights, norm_mode=norm_mode)


def _normalized_bank(net):
    """Normalized filters as (N, k*k) rows plus their backprop stats (see
    :func:`nccbank.patchmath._normalize_full`); raises ValueError naming
    the first filter with a NaN or infinite tap, else DegeneratePatchError
    naming the first flat filter.  A non-finite tap makes its filter's
    statistics NaN, so the taps are scanned only once a filter is flagged;
    numpy's warning of the inf - inf that centring an infinite tap makes
    is silenced, so under ``-W error`` the ValueError is what surfaces."""
    rows = net.filters.reshape(net.num_filters, -1)
    with np.errstate(invalid="ignore"):
        out, valid, stats = pm._normalize_full(rows, net.norm_mode)
    if not valid.all():
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"filter {bad} has non-finite taps")
        bad = int(np.flatnonzero(~valid)[0])
        raise pm.DegeneratePatchError(f"filter {bad} is flat and cannot be normalized")
    return out, stats


def normalized_filters(net):
    """Normalize every filter, returned as an (N, k*k) matrix.

    Raises DegeneratePatchError naming the filter if one has gone flat
    (possible in principle under aggressive weight decay), and ValueError
    naming it if one holds a NaN or infinite tap (a diverged training).
    """
    return _normalized_bank(net)[0]


def forward(net, patch):
    """Score a single patch.  Raises DegeneratePatchError on flat input."""
    p = pm.normalize(patch, net.norm_mode).ravel()
    scores = normalized_filters(net) @ p
    return float(np.maximum(scores, 0.0) @ net.weights)


def _forward(net, pn):
    """Outputs for normalized patch rows ``pn`` (B, k*k) and the cache
    :func:`_backward` takes: the (B, N) ReLU'd scores and the bank's
    backprop stats.  Float64 rows score against the normalized bank,
    float32 rows (the corpus :func:`train` stores) against the bank
    rounded to float32; the ReLU'd scores are weighted in float64.
    The rows are scored in blocks of ``_SCORE_ROWS`` into preallocated
    outputs, so BLAS workspace and the float64 copy of the scores stay the
    size of one block, not of the corpus."""
    fn, stats = _normalized_bank(net)
    fn_t = fn.astype(pn.dtype, copy=False).T
    acts = np.empty((len(pn), len(fn)), dtype=pn.dtype)
    out = np.empty(len(pn))
    for lo in range(0, len(pn), _SCORE_ROWS):
        rows = slice(lo, lo + _SCORE_ROWS)
        block = np.matmul(pn[rows], fn_t, out=acts[rows])
        np.maximum(block, 0.0, out=block)
        np.matmul(block, net.weights, out=out[rows])
    return out, (acts, stats)


def _backward(net, pn, cache, g_out):
    """Gradients of a loss given ``g_out`` = dL/d(out) (B,) for the rows
    ``pn`` that :func:`_forward` scored into ``cache``.  The ReLU mask is
    ``acts > 0``, which equals ``scores > 0`` (NaN included)."""
    acts, stats = cache
    g_weights = acts.T @ g_out              # (N,)
    g_scores = g_out[:, None] * net.weights
    g_scores *= acts > 0.0
    upstream = g_scores.T @ pn              # (N, n), normalized-filter space
    g_filters = pm._backprop_rows(upstream, stats, net.norm_mode)
    return GradientSet(
        filters=g_filters.reshape(net.filters.shape), weights=g_weights
    )


def _l1_step(net, pn, y):
    """Mean L1 loss of the normalized patch rows ``pn`` (B, k*k), B >= 1,
    against their labels ``y`` (B,) of +/-1, and its gradients averaged
    over the batch: :func:`_forward`, dL/d(out), :func:`_backward`.  The
    only loss-specific code of the training step."""
    out, cache = _forward(net, pn)
    diff = out - y
    # np.add.reduce and the divide by B are how np.mean computes the mean
    mean_loss = float(np.add.reduce(np.abs(diff)) / pn.shape[0])
    g_out = np.sign(diff) / pn.shape[0]     # d(mean loss)/d out_b
    return mean_loss, _backward(net, pn, cache, g_out)


def momentum_step(param, grad, velocity, lr, momentum, weight_decay):
    """One classical-momentum SGD update; returns (new_param, new_velocity).

    v <- momentum * v - lr * (grad + weight_decay * param)
    p <- p + v

    The inputs are left as they are.
    """
    step = weight_decay * param
    step += grad
    step *= lr
    v = momentum * velocity
    v -= step
    return param + v, v


def _scores_and_labels(scores, labels):
    """``scores`` and ``labels`` as float arrays, checked to be non-empty,
    equal-length and 1-D, the scores finite and the labels +1 or -1."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and labels must be non-empty, equal-length 1-D arrays")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not ((y == 1.0) | (y == -1.0)).all():
        raise ValueError("labels must be +1 or -1")
    return s, y


def calibrate_threshold(scores, labels):
    """Threshold t maximizing accuracy of ``predict = +1 iff score >= t``.

    Needed because a small ReLU bank can emit one-signed outputs, so the
    natural cutoff at 0 may sit outside the score range entirely.  Splits
    inside a run of tied scores are not thresholds; of the best splits the
    lowest wins, and t is the midpoint of the scores on either side of it
    (one below the lowest score or one above the highest at the ends).

    Raises ValueError unless scores and labels are non-empty, equal-length
    1-D arrays of finite scores and +1/-1 labels.
    """
    s, y = _scores_and_labels(scores, labels)
    s_sorted = np.sort(s)
    # positives among the i lowest scores; at a realizable split (below)
    # they are the positives scoring at most s_sorted[i - 1]
    cum_pos = np.zeros(s.size + 1, dtype=np.intp)
    cum_pos[1:] = np.searchsorted(np.sort(s[y > 0]), s_sorted, side="right")
    total_pos = cum_pos[-1]
    idx = np.arange(s.size + 1)
    correct = (total_pos - cum_pos) + (idx - cum_pos)
    # splits inside a run of tied scores are not realizable thresholds
    realizable = np.ones(s.size + 1, dtype=bool)
    realizable[1:-1] = s_sorted[1:] > s_sorted[:-1]
    correct[~realizable] = -1
    best = int(np.argmax(correct))
    if best == 0:
        return float(s_sorted[0] - 1.0)
    if best == s.size:
        return float(s_sorted[-1] + 1.0)
    return float(0.5 * (s_sorted[best - 1] + s_sorted[best]))


def threshold_accuracy(scores, labels, threshold):
    """Fraction of ``labels`` that ``predict = +1 iff score >= threshold``
    gets right.  Raises ValueError for the inputs
    :func:`calibrate_threshold` rejects and for a non-finite threshold."""
    s, y = _scores_and_labels(scores, labels)
    threshold = pm._real(threshold, "threshold")
    return float(np.mean((s >= threshold) == (y > 0)))


def train(net, patches, labels, config=None):
    """Train the network in place; returns a TrainHistory.

    ``config`` is a :class:`TrainConfig` (it checks itself when built) or
    None for the defaults; any other config raises ValueError.
    ``patches`` is (S, k, k) float, ``labels`` (S,) of +/-1.  The data is
    normalized once, block by block in float64, and stored as one float32
    (S, k*k) matrix: each row is :func:`nccbank.patchmath.normalize_rows`'s
    rounded to float32 (patches are inputs), which halves the bytes every
    batch gather and every epoch's scoring stream.  The data is split once
    into train/holdout using ``config.seed`` (holdout_fraction of it held
    out).  Flat patches are dropped up front (counted in the history); a
    NaN or infinite pixel raises ValueError.  Each epoch shuffles the
    training split into batches of ``batch_size``; each batch's float32
    rows are widened into one reused float64 buffer, so the loss, the
    gradients and the momentum step run in float64.  After each epoch
    every row is scored once, in float32 GEMMs of ``_SCORE_ROWS`` rows
    against the normalized bank rounded to float32; holdout accuracy
    (training accuracy when nothing is held out) uses a threshold
    calibrated on the training split's scores.  Fully deterministic for a
    given seed.

    Against the same loop over float64 rows, the stored rounding moves
    the result by far less than its tolerance: filter taps by at most
    1e-6 of the largest tap, weights by a relative 1e-6, each epoch's
    accuracy by 1e-3, its threshold by a relative 1e-5 and its mean loss
    by a relative 1e-8 (measured in README.md, "Training").
    """
    config = TrainConfig() if config is None else config
    if not isinstance(config, TrainConfig):
        raise ValueError(f"config must be a TrainConfig, got {config!r}")
    rows = pm._float_rows(patches)
    k = net.filter_size
    if rows.ndim != 3 or rows.shape[1:] != (k, k):
        raise ValueError(f"patches must be (S, {k}, {k}), got {rows.shape}")
    rows = rows.reshape(rows.shape[0], k * k)
    y = np.asarray(labels, dtype=float)
    if y.shape != (rows.shape[0],) or y.size < 2:
        raise ValueError("need (S, k, k) patches and (S,) labels, S >= 2")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")

    pn, valid = pm._normalize_blocks(rows, net.norm_mode, np.float32)
    skipped = int(np.sum(~valid))
    keep = np.flatnonzero(valid)
    if keep.size < 2:
        raise ValueError("fewer than 2 usable patches after dropping flat ones")

    rng = np.random.default_rng(config.seed)
    perm = keep[rng.permutation(keep.size)]
    n_hold = int(round(keep.size * config.holdout_fraction))
    n_hold = min(max(n_hold, 0), keep.size - 1)
    hold_idx = perm[:n_hold]
    train_idx = perm[n_hold:]

    wide = np.empty((min(config.batch_size, train_idx.size), pn.shape[1]))
    f_velocity = np.zeros_like(net.filters)
    w_velocity = np.zeros_like(net.weights)
    hyper = (config.learning_rate, config.momentum, config.weight_decay)
    history = TrainHistory(
        epochs=[],
        train_size=int(train_idx.size),
        holdout_size=int(hold_idx.size),
        skipped_degenerate=skipped,
    )
    for epoch in range(config.max_epochs):
        start_filters = net.filters.copy()
        order = train_idx[rng.permutation(train_idx.size)]
        losses = []
        counts = []
        for lo in range(0, order.size, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            batch_rows = wide[: batch.size]
            batch_rows[...] = pn[batch]
            loss, grads = _l1_step(net, batch_rows, y[batch])
            net.filters, f_velocity = momentum_step(
                net.filters, grads.filters, f_velocity, *hyper)
            net.weights, w_velocity = momentum_step(
                net.weights, grads.weights, w_velocity, *hyper)
            losses.append(loss)
            counts.append(batch.size)
        mean_loss = float(np.average(losses, weights=counts))

        denom = max(float(np.linalg.norm(start_filters)), 1e-30)
        rel_change = float(np.linalg.norm(net.filters - start_filters)) / denom

        scores, _ = _forward(net, pn)
        thr = calibrate_threshold(scores[train_idx], y[train_idx])
        eval_idx = hold_idx if hold_idx.size else train_idx
        acc = threshold_accuracy(scores[eval_idx], y[eval_idx], thr)
        history.epochs.append(
            EpochStats(
                epoch=epoch,
                mean_loss=mean_loss,
                filter_rel_change=rel_change,
                holdout_accuracy=acc,
                threshold=thr,
            )
        )
    return history


def filter_similarity(a, b):
    """Cosine similarity of two mean-removed filters, in [-1, 1]."""
    return pm.ncc_score(a, b, pm.NORM_STD)


def max_pairwise_similarity(net):
    """Largest |similarity| over distinct filter pairs (0.0 for N = 1)."""
    best = 0.0
    for i in range(net.num_filters):
        for j in range(i + 1, net.num_filters):
            best = max(best, abs(filter_similarity(net.filters[i], net.filters[j])))
    return best


def save_network(net, path):
    """Write a network to a text file; exact float round-trip."""
    if not np.all(np.isfinite(net.weights)):
        raise ValueError("non-finite weight")
    text = "".join([
        f"nccnet 1\nnorm_mode {net.norm_mode}\nfilters {net.num_filters}\n",
        *map(gridio._format_block, net.filters),
        "weights " + " ".join(map(repr, net.weights.tolist())) + "\n",
    ])
    gridio.write_text(text, path)


def load_network(path):
    """Read a network written by :func:`save_network`."""
    lines = gridio._lines(gridio.read_text(path))
    if not lines or lines[0].split() != ["nccnet", "1"]:
        raise ValueError("not a version-1 nccnet file")
    if len(lines) < 4:
        raise ValueError("truncated nccnet file")
    (mode,) = gridio._field(lines[1], "norm_mode", 1, str)
    if mode not in pm.NORM_MODES:
        raise ValueError(f"bad norm_mode line: {lines[1]!r}")
    (count,) = gridio._field(lines[2], "filters", 1, int)
    pm._count(count, "filters")
    pos = 3
    grids = []
    for i in range(count):
        try:
            grid, used = gridio._parse_block(lines[pos:], float)
        except ValueError as exc:
            raise ValueError(f"filter {i}: {exc}") from None
        if grids and grid.shape != grids[0].shape:
            raise ValueError(f"filter {i} has shape {grid.shape}, "
                             f"filter 0 has {grids[0].shape}")
        grids.append(grid)
        pos += used
    if pos == len(lines):
        raise ValueError("missing weights line")
    weights = np.array(gridio._field(lines[pos], "weights", count, float))
    if not np.all(np.isfinite(weights)):
        raise ValueError("non-finite weight")
    if pos + 1 != len(lines):
        raise ValueError(f"unexpected line after weights: {lines[pos + 1]!r}")
    return NccNetwork(filters=np.stack(grids), weights=weights, norm_mode=mode)
