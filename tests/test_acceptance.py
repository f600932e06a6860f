"""Release gate: one test per shipping requirement.

Run with ``pytest tests/test_acceptance.py -v`` to get a one-line
pass/fail verdict per requirement.  Seeds, tolerances and runtime
budgets are frozen here; the unit suites cover the fine-grained
behavior, this file checks the headline promises end to end:

1.  analytic gradients agree with central finite differences
2.  score bounds and affine invariance of the normalized modes
3.  training converges to a stable, accurate filter on the
    reference corpus, across five holdout splits
4.  a redundant multi-filter bank collapses to near-duplicates
5.  the wide hat filter wins the synthetic benchmark over the
    narrow/fixed hats, the Gaussian and the deviation-ratio baseline
6.  the integer scorer tracks the float scorer in value and argmax
7.  augmentation cardinalities (64 per positive, 4 per negative)
8.  square-root budgets: the dense scorers take what the cost model counts
9.  the datagen -> train -> bench pipeline is byte-reproducible
"""

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import oracles
from nccbank import bench as bn
from nccbank import filterbank as fb
from nccbank import irdatagen as dg
from nccbank import nccnet as nn
from nccbank import patchmath as pm
from nccbank.cli import cli_main

_CACHE = {}


def _reference_corpus():
    """Standard training corpus, built once and shared between the
    convergence and redundancy checks (it is the expensive part)."""
    if "corpus" not in _CACHE:
        scenes = [dg.synth_scene(c) for c in dg.standard_training_configs(seed=1000)]
        positives, negatives = dg.collect_samples(scenes)
        negatives = dg.subsample_negatives(negatives, 8000, seed=1000)
        patches, labels = dg.augmented_arrays(np.concatenate([positives, negatives]))
        _CACHE["corpus"] = (len(positives), len(negatives), patches, labels)
    return _CACHE["corpus"]


def _kink_free(patch, tol=1e-4):
    q = patch - np.mean(patch)
    return np.min(np.abs(q)) > tol


def _margin_ok(net, patches, labels, margin=1e-4):
    """Batch sits away from every loss/ReLU/MAD kink, so central
    differences with step 1e-6 stay on one side of each kink."""
    flat = np.asarray(patches, float).reshape(len(patches), -1)
    pn, _ = pm.normalize_rows(flat, net.norm_mode)
    scores = pn @ nn.normalized_filters(net).T
    out = np.maximum(scores, 0.0) @ net.weights
    if np.min(np.abs(scores)) < margin:
        return False
    if np.min(np.abs(out - labels)) < margin:
        return False
    if net.norm_mode == pm.NORM_MAD:
        cent = net.filters - net.filters.mean(axis=(1, 2), keepdims=True)
        if np.min(np.abs(cent)) < margin:
            return False
    return True


def _draw_kink_free(rng, count):
    out = []
    while len(out) < count:
        patch = rng.normal(
            loc=rng.uniform(-5.0, 5.0),
            scale=rng.uniform(0.5, 2.0),
            size=(15, 15),
        )
        if _kink_free(patch):
            out.append(patch)
    return np.stack(out)


def test_analytic_gradients_match_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(11)

    # the library's backward operator, one basis vector per Jacobian row
    pool = _draw_kink_free(rng, 120)
    for patch in pool:
        for mode in (pm.NORM_STD, pm.NORM_MAD):
            fd = oracles.fd_jacobian(lambda p: pm.normalize(p, mode), patch)
            jac = oracles.vjp_jacobian(
                lambda u: pm.backprop_normalization(u, patch, mode), patch.shape)
            assert oracles.rel_error(jac, fd) < 1e-4

    # whole-network gradients (filter taps and decision weights) on
    # batches of fresh 15x15 patches, both normalization modes
    for mode in (pm.NORM_STD, pm.NORM_MAD):
        checked = 0
        while checked < 3:
            filters = rng.normal(scale=0.5, size=(2, 15, 15))
            weights = rng.normal(scale=0.8, size=2)
            net = nn.NccNetwork(filters.copy(), weights.copy(), mode)
            patches = _draw_kink_free(rng, 20)
            labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
            if not _margin_ok(net, patches, labels):
                continue
            # the rows and the L1 step of nn.train's batch step
            pn, _ = pm.normalize_rows(patches.reshape(20, -1), mode)

            _, grads = nn._l1_step(net, pn, labels)

            def loss_of_filters(taps):
                trial = nn.NccNetwork(taps.reshape(2, 15, 15), weights.copy(), mode)
                loss, _ = nn._l1_step(trial, pn, labels)
                return loss

            def loss_of_weights(w):
                trial = nn.NccNetwork(filters.copy(), w.ravel(), mode)
                loss, _ = nn._l1_step(trial, pn, labels)
                return loss

            fd_f = oracles.fd_gradient(
                lambda g: loss_of_filters(g.ravel()), filters.reshape(2, 225)
            )
            assert oracles.rel_error(grads.filters.reshape(2, 225), fd_f) < 1e-4
            fd_w = oracles.fd_gradient(loss_of_weights, weights.reshape(1, 2))
            assert oracles.rel_error(grads.weights, fd_w.ravel()) < 1e-4
            checked += 1

    assert time.monotonic() - start < 30.0


def test_score_bounds_and_affine_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(21)

    for _ in range(300):
        patch = rng.normal(loc=rng.uniform(-10, 10), scale=rng.uniform(0.5, 3), size=(9, 9))
        filt = rng.normal(size=(9, 9))
        assert abs(pm.ncc_score(patch, filt, pm.NORM_STD)) <= 1.0 + 1e-9

    for _ in range(200):
        patch = rng.normal(loc=rng.uniform(-10, 10), scale=rng.uniform(0.5, 3), size=(9, 9))
        filt = rng.normal(size=(9, 9))
        a = rng.uniform(0.2, 5.0)
        b = rng.uniform(-50.0, 50.0)
        for mode in (pm.NORM_STD, pm.NORM_MAD):
            s0 = pm.ncc_score(patch, filt, mode)
            s1 = pm.ncc_score(a * patch + b, filt, mode)
            assert abs(s1 - s0) <= 1e-9

    # raw mode provably breaks the invariance: doubling a patch that
    # correlates at 30 raw units moves the score by at least 30
    patch = np.array([[1.0, 2.0], [3.0, 4.0]])
    s0 = pm.ncc_score(patch, patch, pm.NORM_NONE)
    s1 = pm.ncc_score(2.0 * patch + 1.0, patch, pm.NORM_NONE)
    assert abs(s1 - s0) > 1e-3

    assert time.monotonic() - start < 5.0


def test_training_converges_on_reference_corpus():
    start = time.monotonic()
    n_pos, n_neg, patches, labels = _reference_corpus()
    assert 1900 <= n_pos <= 2100
    assert n_neg == 8000
    assert patches.shape[0] == 64 * n_pos + 4 * n_neg

    for seed in range(5):  # five different 80% train splits
        net = nn.init_network(1, filter_size=15, norm_mode=pm.NORM_STD, seed=seed)
        history = nn.train(net, patches, labels, nn.TrainConfig(batch_size=320, seed=seed))
        assert len(history.epochs) == 5
        assert min(ep.filter_rel_change for ep in history.epochs) < 0.05
        assert history.final_accuracy > 0.9

    assert time.monotonic() - start < 300.0


def test_parallel_filters_converge_to_near_duplicates():
    _, _, patches, labels = _reference_corpus()
    hits = 0
    for seed in range(5):
        net = nn.init_network(4, filter_size=15, norm_mode=pm.NORM_STD, seed=seed)
        nn.train(net, patches, labels, nn.TrainConfig(batch_size=320, seed=seed))
        if nn.max_pairwise_similarity(net) > 0.8:
            hits += 1
    assert hits >= 3


def test_benchmark_ranks_wide_hat_above_baselines():
    start = time.monotonic()
    configs = dg.benchmark_scene_configs(48, seed=2000)
    assert {c.clutter_kind for c in configs} == set(dg.CLUTTER_KINDS)
    scenes = [dg.synth_scene(c) for c in configs]
    assert any(scene.bad_pixels for scene in scenes)

    report = bn.run_benchmark(
        [scene.image for scene in scenes],
        [scene.truths for scene in scenes],
        ["hat15-ideal", "gauss-1.2", "mad-ratio", "hat7-fixed-mad", "hat5-fixed-mad"],
        bn.BenchConfig(include_timing=False),
    )
    auc = {r.name: r.curve.auc for r in report.results}

    assert auc["hat15-ideal"] >= auc["gauss-1.2"] >= auc["mad-ratio"]
    assert auc["hat15-ideal"] >= auc["hat7-fixed-mad"]
    assert auc["hat15-ideal"] >= auc["hat5-fixed-mad"]

    assert time.monotonic() - start < 300.0


def _float_mad_response(frame, taps_float):
    k = taps_float.shape[0]
    wins = sliding_window_view(frame.astype(float), (k, k))
    mu = wins.mean(axis=(2, 3), keepdims=True)
    dev = wins - mu
    mad = np.abs(dev).mean(axis=(2, 3))
    num = np.einsum("ijkl,kl->ij", dev, taps_float)
    denom = np.sqrt(k * k) * mad
    return np.where(mad > 0, num / np.where(denom > 0, denom, 1.0), 0.0)


def test_fixed_point_tracks_float_scores_and_peaks():
    start = time.monotonic()
    taps = fb.prepare_fixed_taps(fb.ricker_hat_grid(15))
    taps_float = fb.dequantize_taps(taps, fb.TAP_QFORMAT)

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        patch = rng.integers(0, 4000, size=(15, 15))
        fixed = fb.mad_ncc_fixed_score(patch, taps, fb.TAP_QFORMAT)
        assert not fixed.degenerate
        ref = np.sum(oracles.naive_normalize_mad(patch) * taps_float)
        worst = max(worst, abs(fixed.value - ref))
    assert worst <= 2.0**-5

    # argmax agreement on single-target lab frames, where top-1 is an
    # unambiguous question (multi-target frames have near-tied maxima
    # by design: the scorer is amplitude-invariant)
    seeds = np.random.default_rng(77)
    agree = 0
    for _ in range(200):
        scene = dg.synth_scene(dg.SceneConfig(
            width=128, height=128,
            clutter_kind=dg.COLLIMATOR, clutter_strength=0.0,
            target_count=1, target_amplitude=80.0,
            psf_sigma=1.2, noise_sigma=3.0, bad_pixel_rate=0.0,
            rng_seed=int(seeds.integers(0, 2**31)),
        ))
        frame = bn.frame_to_u16(scene.image)
        raw, _, _ = fb.mad_ncc_fixed_response(frame, taps, fb.TAP_QFORMAT)
        fixed_peak = np.unravel_index(np.argmax(raw), raw.shape)
        float_resp = _float_mad_response(frame, taps_float)
        float_peak = np.unravel_index(np.argmax(float_resp), float_resp.shape)
        if fixed_peak == float_peak:
            agree += 1
    assert agree >= 190  # 95% of 200

    assert time.monotonic() - start < 60.0


def test_augmentation_cardinalities():
    scene = dg.synth_scene(dg.SceneConfig(
        width=96, height=96,
        clutter_kind=dg.COLLIMATOR, clutter_strength=0.0,
        target_count=3, target_amplitude=60.0,
        psf_sigma=1.2, noise_sigma=0.0, bad_pixel_rate=0.0,
        rng_seed=5,
    ))
    positives, negatives = dg.collect_samples([scene])
    assert len(positives) == 3
    assert len(negatives) >= 10

    assert dg.augmented_arrays(positives[:1])[0].shape[0] == 64
    assert dg.augmented_arrays(negatives[:1])[0].shape[0] == 4

    patches, labels = dg.augmented_arrays(np.concatenate([positives, negatives]))
    assert patches.shape[0] == 64 * len(positives) + 4 * len(negatives)
    assert int(np.sum(labels > 0)) == 64 * len(positives)
    assert int(np.sum(labels < 0)) == 4 * len(negatives)


def test_square_root_budget_matches_cost_model(monkeypatch):
    start = time.monotonic()
    for side, fsize in ((256, 15), (256, 7), (128, 9)):
        for method in ("ncc-mad", "mad-ratio", "unnorm-corr"):
            assert fb.op_count(method, side, fsize).square_roots == 0
        expected = (side - fsize + 1) ** 2  # one per valid window
        assert fb.op_count("ncc-std", side, fsize).square_roots == expected

    # the dense scorers the benchmark runs, counted at np.sqrt: an array
    # argument holds one value per window, a scalar one (the frame's rms,
    # sqrt(n)) is taken once per frame
    sqrt = np.sqrt
    roots, fallback = [], []

    def counting_sqrt(x, *args, **kwargs):
        roots.append(np.size(x) if np.ndim(x) else 0)
        return sqrt(x, *args, **kwargs)

    exact_scores = bn._exact_scores

    def counting_exact(rows, *args):
        fallback.append(len(rows))
        return exact_scores(rows, *args)

    rng = np.random.default_rng(81)
    frame = rng.normal(loc=500.0, scale=40.0, size=(256, 256))
    for name, fsize in (("hat15-ideal", 15), ("hat7-ideal", 7),
                        ("mad-ratio", 15), ("hat7-fixed-mad", 7)):
        scorer = bn.resolve_method(name)  # the filter's normalization is offline
        roots.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "sqrt", counting_sqrt)
            patch.setattr(bn, "_exact_scores", counting_exact)
            scorer(frame)
        assert scorer.window == fsize
        if name.endswith("-ideal"):
            assert sum(roots) == fb.op_count("ncc-std", 256, fsize).square_roots, name
        else:
            assert sum(roots) == 0, name
        if name.endswith("-fixed-mad"):
            assert roots == [], name
    assert fallback == []  # no window took the exact path's square roots

    assert time.monotonic() - start < 60.0


def _run_pipeline(root):
    dataset = str(root / "train.nccd")
    frames = str(root / "frames")
    net = str(root / "bank.nccnet")
    report = str(root / "report")
    assert cli_main(["datagen", "--scenes", "6", "--targets", "4",
                     "--amplitude", "80", "--noise", "3", "--seed", "9",
                     "--negatives", "300",
                     "--out", dataset, "--frames-dir", frames]) == 0
    assert cli_main(["train", "--data", dataset, "--out", net,
                     "--filters", "1", "--epochs", "2",
                     "--batch-size", "64", "--seed", "0"]) == 0
    assert cli_main(["bench", "--data", frames,
                     "--methods", "hat15-ideal,mad-ratio",
                     "--no-timing", "--out-dir", report]) == 0
    return root


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_pipeline_is_byte_reproducible(tmp_path):
    first = _tree_bytes(_run_pipeline(tmp_path / "first"))
    second = _tree_bytes(_run_pipeline(tmp_path / "second"))
    assert set(first) == set(second)
    assert first  # dataset + frames + network + report CSVs
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
