"""Independent reference implementations used to pin expected test values.

Everything in this file is deliberately naive: explicit Python loops,
textbook formulas, and finite differences.  Nothing here imports from
``nccbank``, so agreement between the two is meaningful.
"""

import numpy as np


def naive_mean(grid):
    total = 0.0
    count = 0
    for row in grid:
        for v in row:
            total += float(v)
            count += 1
    return total / count


def naive_std(grid):
    """Sample standard deviation with the n - 1 divisor, two-pass."""
    mu = naive_mean(grid)
    acc = 0.0
    count = 0
    for row in grid:
        for v in row:
            acc += (float(v) - mu) ** 2
            count += 1
    return (acc / (count - 1)) ** 0.5


def naive_mad(grid):
    mu = naive_mean(grid)
    acc = 0.0
    count = 0
    for row in grid:
        for v in row:
            acc += abs(float(v) - mu)
            count += 1
    return acc / count


def naive_normalize_std(grid):
    g = np.asarray(grid, dtype=float)
    mu = naive_mean(g)
    sd = naive_std(g)
    return (g - mu) / (np.sqrt(g.size - 1) * sd)


def naive_normalize_mad(grid):
    g = np.asarray(grid, dtype=float)
    mu = naive_mean(g)
    md = naive_mad(g)
    return (g - mu) / (np.sqrt(g.size) * md)


def two_pass_normalize_rows(rows, mode):
    """The row normalizer's formula in plain numpy calls over the whole
    matrix: rows widened to float64, centered twice with ``np.mean``, the
    STD denominator ``sqrt(np.sum(q * q))`` or the MAD one
    ``sqrt(n) * np.mean(|q|)``, a divide masked to the rows whose std or
    mad exceeds 1e-12 and is finite, and zeros elsewhere (a copy for
    ``none``).  Returns
    ``(normalized, valid, (q, den, stat))``."""
    x = np.asarray(rows, dtype=np.float64)
    if mode == "none":
        return x.copy(), np.ones(len(x), dtype=bool), None
    n = x.shape[1]
    q = x - x.mean(axis=1, keepdims=True)
    q -= q.mean(axis=1, keepdims=True)
    if mode == "std":
        den = np.sqrt(np.sum(q * q, axis=1))
        stat = den / np.sqrt(n - 1)
    else:
        stat = np.mean(np.abs(q), axis=1)
        den = np.sqrt(n) * stat
    valid = (stat > 1e-12) & np.isfinite(stat)
    out = np.zeros_like(q)
    np.divide(q, den[:, None], out=out, where=valid[:, None])
    return out, valid, (q, den, stat)


def two_pass_loss_and_gradients(filters, weights, mode, pn, y):
    """One batch step of the two-layer network in plain numpy calls
    (``np.mean``, ``np.sum``, ``np.outer``): the mean L1 loss of
    ``relu(pn @ fn.T) @ weights`` against labels ``y`` over normalized
    patch rows ``pn``, and its gradients for the (N, k, k) ``filters``
    (pulled back through :func:`two_pass_normalize_rows` in factored form,
    ``sign(0) = 0``) and the weights.  Returns ``(loss, g_filters,
    g_weights)``."""
    fn, _, stats = two_pass_normalize_rows(filters.reshape(len(filters), -1), mode)
    scores = pn @ fn.T
    acts = np.maximum(scores, 0.0)
    diff = acts @ weights - y
    loss = float(np.mean(np.abs(diff)))
    g_out = np.sign(diff) / len(y)
    g_weights = acts.T @ g_out
    u = (np.outer(g_out, weights) * (scores > 0.0)).T @ pn
    if mode == "none":
        return loss, u.reshape(filters.shape), g_weights
    q, den, stat = stats
    if mode == "std":
        pbar = q / den[:, None]
        v = u - np.sum(u * pbar, axis=1, keepdims=True) * pbar
    else:
        dot = np.sum(u * q, axis=1, keepdims=True)
        v = u - dot / (q.shape[1] * stat[:, None]) * np.sign(q)
    g = (v - v.mean(axis=1, keepdims=True)) / den[:, None]
    return loss, g.reshape(filters.shape), g_weights


def stable_argsort_threshold(scores, labels):
    """Accuracy-maximizing threshold for ``predict = +1 iff score >= t``
    by a stable argsort: the positives before every split are a cumulative
    sum in sorted order, splits inside a run of tied scores score -1, the
    first best split wins, and t is the midpoint of its two neighbours
    (the lowest score - 1 or the highest + 1 at the ends)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    pos = (y[order] > 0).astype(int)
    cum_pos = np.concatenate([[0], np.cumsum(pos)])
    idx = np.arange(s.size + 1)
    correct = (pos.sum() - cum_pos) + (idx - cum_pos)
    realizable = np.ones(s.size + 1, dtype=bool)
    realizable[1:-1] = s_sorted[1:] > s_sorted[:-1]
    best = int(np.argmax(np.where(realizable, correct, -1)))
    if best == 0:
        return float(s_sorted[0] - 1.0)
    if best == s.size:
        return float(s_sorted[-1] + 1.0)
    return float(0.5 * (s_sorted[best - 1] + s_sorted[best]))


def naive_correlate_valid(image, filt):
    """Triple-loop valid-mode cross-correlation."""
    img = np.asarray(image, dtype=float)
    f = np.asarray(filt, dtype=float)
    oh = img.shape[0] - f.shape[0] + 1
    ow = img.shape[1] - f.shape[1] + 1
    out = np.zeros((oh, ow))
    for i in range(oh):
        for j in range(ow):
            acc = 0.0
            for r in range(f.shape[0]):
                for c in range(f.shape[1]):
                    acc += img[i + r, j + c] * f[r, c]
            out[i, j] = acc
    return out


def two_d_box_sums(a, k, reduce=np.add):
    """Sum (or ``reduce``) of every k x k window of ``a`` by 2-D shifted
    slices: k-term sums along the rows, then along the columns (the former
    ``patchmath._box_sums``, whose order the flat version keeps)."""
    h, w = a.shape[0] - k + 1, a.shape[1] - k + 1
    rows = a[:, :w].copy()
    for j in range(1, k):
        reduce(rows, a[:, j : j + w], out=rows)
    out = rows[:h].copy()
    for i in range(1, k):
        reduce(out, rows[i : i + h], out=out)
    return out


def two_d_sad(x, mu, k):
    """Sum of |x - mu| over every k x k window, one 2-D shifted slice per
    window offset in row-major offset order (the former
    ``patchmath._sad``)."""
    h, w = mu.shape
    sad = np.zeros_like(mu)
    dev = np.empty_like(mu)
    for i in range(k):
        for j in range(k):
            np.subtract(x[i : i + h, j : j + w], mu, out=dev)
            sad += np.abs(dev, out=dev)
    return sad


def naive_window_scores(frame, k, mode, mat):
    """Window scores by the chunked per-window loop.

    Every k x k window of ``frame`` is copied out, 48 rows of windows at
    a time, and two-pass centered; its N dots with the rows of ``mat``
    are divided by its ``mode`` denominator, and a window whose std or
    mad is at or below 1e-12 is flat and scores 0.0 (``none`` gives the
    plain dots).  Returns the (H - k + 1, W - k + 1, N) scores and the
    (H - k + 1, W - k + 1) flat flags.
    """
    f = np.asarray(frame, dtype=float)
    wins = np.lib.stride_tricks.sliding_window_view(f, (k, k))
    scores, flat = [], []
    for r0 in range(0, wins.shape[0], 48):
        block = wins[r0 : r0 + 48]
        rows, cols = block.shape[:2]
        x = block.reshape(rows * cols, -1)
        if mode == "none":
            valid = np.ones(rows * cols, dtype=bool)
            out = x @ mat.T
        else:
            q = x - x.mean(axis=1, keepdims=True)
            q -= q.mean(axis=1, keepdims=True)
            n = q.shape[1]
            if mode == "std":
                den = np.sqrt(np.sum(q * q, axis=1))
                valid = den / np.sqrt(n - 1) > 1e-12
            else:
                mad = np.mean(np.abs(q), axis=1)
                den = np.sqrt(n) * mad
                valid = mad > 1e-12
            dots = q @ mat.T
            out = np.divide(dots, den[:, None], out=np.zeros_like(dots),
                            where=valid[:, None])
        scores.append(out.reshape(rows, cols, -1))
        flat.append(~valid.reshape(rows, cols))
    return np.concatenate(scores), np.concatenate(flat)


def naive_local_maxima(response):
    """Cells >= all in-bounds 8-neighbors and > at least one of them, by
    16 shifted comparisons against the response padded with -inf (a
    missing neighbor is always <=) and with +inf (never strictly less); a
    1x1 response is its own peak."""
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


def naive_nms(response, candidates, radius):
    """Greedy non-maximum suppression by the per-candidate loop.

    The cells flagged in the boolean ``candidates`` mask are visited by
    descending ``response`` score, ties by (row, col); each is kept unless
    a kept one lies within ``radius`` (Euclidean, inclusive).  Returns the
    kept ``(row, col, score)`` triples in visiting order.
    """
    r = np.asarray(response, dtype=float)
    r2 = float(radius) ** 2
    rows, cols = np.nonzero(candidates)
    scores = r[rows, cols]
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
        kept.append((int(rows[i]), int(cols[i]), float(scores[i])))
    return kept


def naive_extract(image, truths):
    """Per-tile sample extraction loop: (labels, float32 19x19 contexts).

    One positive per truth, centered on it; then negatives tiling the
    frame row-major on a 15-pixel stride from 2 px in, skipping any tile
    whose core center lies within 14 px of a truth on both axes.
    """
    h, w = image.shape
    labels, contexts = [], []
    for r, c in truths:
        labels.append(1)
        contexts.append(image[r - 9 : r + 10, c - 9 : c + 10])
    for r0 in range(2, h - 2 - 15 + 1, 15):
        for c0 in range(2, w - 2 - 15 + 1, 15):
            cr, cc = r0 + 7, c0 + 7
            if any(abs(cr - tr) <= 14 and abs(cc - tc) <= 14 for tr, tc in truths):
                continue
            labels.append(-1)
            contexts.append(image[cr - 9 : cr + 10, cc - 9 : cc + 10])
    return labels, [np.asarray(ctx, dtype=np.float32) for ctx in contexts]


def naive_augment(contexts, labels):
    """Per-sample augmentation loop over 19x19 contexts.

    A positive (+1) gives, for each of 4 rotations, its 15x15 core
    re-windowed by every shift (dr, dc) with dr, dc in {-2, -1, 1, 2},
    dc varying fastest; a negative gives its 4 rotated unshifted cores.
    Rows follow input order.  Returns float64 (patches, labels).
    """
    shifts = [(dr, dc) for dr in (-2, -1, 1, 2) for dc in (-2, -1, 1, 2)]
    patches = []
    out_labels = []
    for ctx, label in zip(contexts, labels):
        for rot in range(4):
            rctx = np.rot90(np.asarray(ctx, dtype=float), rot)
            for dr, dc in shifts if label == 1 else [(0, 0)]:
                patches.append(rctx[2 + dr : 17 + dr, 2 + dc : 17 + dc])
                out_labels.append(float(label))
    return np.array(patches), np.array(out_labels)


def farthest_point_order(features, start, budget):
    """Greedy farthest-point order under d(i, j) = 1 - features[i] . features[j].

    One full-pool matrix-vector product per pick: every row keeps its
    distance to the nearest pick so far, a picked row drops out, and the
    next pick is the farthest row, the lowest index on ties.  Returns
    ``budget`` row indices, ``start`` first.
    """
    f = np.asarray(features, dtype=float)
    order = [int(start)]
    min_d = 1.0 - f @ f[start]
    min_d[start] = -np.inf
    while len(order) < budget:
        nxt = int(np.argmax(min_d))
        order.append(nxt)
        min_d = np.minimum(min_d, 1.0 - f @ f[nxt])
        min_d[nxt] = -np.inf
    return order


def fd_jacobian(func, x, step=1e-6):
    """Central finite-difference Jacobian of ``func`` at flattened ``x``.

    ``func`` maps a 2-D grid to a 2-D grid of the same shape.  Returns an
    (n, n) matrix J with J[i, j] = d out_i / d x_j, both sides flattened
    row-major.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    jac = np.zeros((n, n))
    flat = x.ravel().copy()
    for j in range(n):
        hi = flat.copy()
        lo = flat.copy()
        hi[j] += step
        lo[j] -= step
        f_hi = np.asarray(func(hi.reshape(x.shape))).ravel()
        f_lo = np.asarray(func(lo.reshape(x.shape))).ravel()
        jac[:, j] = (f_hi - f_lo) / (2.0 * step)
    return jac


def vjp_jacobian(vjp, shape):
    """Dense (n, n) Jacobian from a vector-Jacobian product: row i is
    ``vjp(e_i)``, where ``vjp(u)`` returns ``u^T J`` for a grid ``u`` of
    ``shape``, both flattened row-major."""
    n = int(np.prod(shape))
    return np.array([np.ravel(vjp(e.reshape(shape))) for e in np.eye(n)])


def fd_gradient(func, x, step=1e-6):
    """Central finite-difference gradient of a scalar function of a grid."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros(x.size)
    flat = x.ravel().copy()
    for j in range(x.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[j] += step
        lo[j] -= step
        grad[j] = (func(hi.reshape(x.shape)) - func(lo.reshape(x.shape))) / (2.0 * step)
    return grad.reshape(x.shape)


def rel_error(approx, exact):
    """max |a - e| / max(1, max |e|), a scale-aware elementwise error."""
    a = np.asarray(approx, dtype=float)
    e = np.asarray(exact, dtype=float)
    denom = max(1.0, float(np.max(np.abs(e))))
    return float(np.max(np.abs(a - e))) / denom


def _per_batch_train(nn, net, patches, labels, config, dtype):
    """Training loop that normalizes the raw patches again for every batch
    step and every per-epoch evaluation and rounds them to ``dtype``: each
    batch is widened back to float64 for its step, and each evaluation
    scores its rows against the normalized bank rounded to ``dtype``.

    ``nn`` is the nccnet module; only its public functions are used
    (``normalized_filters``, ``momentum_step`` and the threshold calls)
    with :func:`two_pass_normalize_rows` to find flat patches,
    :func:`two_pass_loss_and_gradients` per batch, and the same split,
    shuffles and history as ``nn.train``.  Trains ``net`` in place;
    returns the history.
    """
    arr = np.asarray(patches, dtype=float)
    y = np.asarray(labels, dtype=float)
    mode = net.norm_mode
    valid = two_pass_normalize_rows(arr.reshape(len(arr), -1), mode)[1]
    keep = np.flatnonzero(valid)

    def normalized(idx):
        rows = arr[idx].reshape(len(idx), -1)
        return two_pass_normalize_rows(rows, mode)[0].astype(dtype)

    def scores(idx):
        fn = nn.normalized_filters(net).astype(dtype)
        return np.maximum(normalized(idx) @ fn.T, 0.0) @ net.weights

    rng = np.random.default_rng(config.seed)
    perm = keep[rng.permutation(keep.size)]
    n_hold = int(round(keep.size * config.holdout_fraction))
    n_hold = min(max(n_hold, 0), keep.size - 1)
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    f_velocity = np.zeros_like(net.filters)
    w_velocity = np.zeros_like(net.weights)
    hyper = (config.learning_rate, config.momentum, config.weight_decay)
    epochs = []
    for epoch in range(config.max_epochs):
        start_filters = net.filters.copy()
        order = train_idx[rng.permutation(train_idx.size)]
        losses, counts = [], []
        for lo in range(0, order.size, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            pn = normalized(batch).astype(np.float64)
            loss, g_filters, g_weights = two_pass_loss_and_gradients(
                net.filters, net.weights, mode, pn, y[batch])
            net.filters, f_velocity = nn.momentum_step(
                net.filters, g_filters, f_velocity, *hyper)
            net.weights, w_velocity = nn.momentum_step(
                net.weights, g_weights, w_velocity, *hyper)
            losses.append(loss)
            counts.append(batch.size)
        denom = max(float(np.linalg.norm(start_filters)), 1e-30)
        train_scores = scores(train_idx)
        thr = nn.calibrate_threshold(train_scores, y[train_idx])
        if hold_idx.size:
            acc = nn.threshold_accuracy(scores(hold_idx), y[hold_idx], thr)
        else:
            acc = nn.threshold_accuracy(train_scores, y[train_idx], thr)
        epochs.append(nn.EpochStats(
            epoch=epoch,
            mean_loss=float(np.average(losses, weights=counts)),
            filter_rel_change=float(np.linalg.norm(net.filters - start_filters)) / denom,
            holdout_accuracy=acc,
            threshold=thr,
        ))
    return nn.TrainHistory(
        epochs=epochs,
        train_size=int(train_idx.size),
        holdout_size=int(hold_idx.size),
        skipped_degenerate=int(np.sum(~valid)),
    )


def naive_train(nn, net, patches, labels, config):
    """``nn.train`` by :func:`_per_batch_train`: every normalized batch,
    every evaluation row and the bank for scoring rounded through
    float32, as ``nn.train`` stores and scores them."""
    return _per_batch_train(nn, net, patches, labels, config, np.float32)


def float64_train(nn, net, patches, labels, config):
    """The trainer before the float32 corpus, by :func:`_per_batch_train`:
    the normalized rows and the bank stay in float64."""
    return _per_batch_train(nn, net, patches, labels, config, np.float64)
