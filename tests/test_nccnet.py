import dataclasses
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nccbank import bench as bn
from nccbank import irdatagen as dg
from nccbank import nccnet as nn
from nccbank import patchmath as pm

P22 = np.array([[1.0, 2.0], [3.0, 4.0]])


def toy_dataset(rng, count=200, size=5):
    """Separable toy data: bright center blob vs pure noise."""
    yy, xx = np.mgrid[0:size, 0:size] - (size - 1) / 2.0
    blob = np.exp(-(yy * yy + xx * xx) / 2.0)
    patches = np.empty((count, size, size))
    labels = np.empty(count)
    for i in range(count):
        noise = rng.normal(scale=0.2, size=(size, size))
        if i % 2 == 0:
            patches[i] = blob + noise
            labels[i] = 1.0
        else:
            patches[i] = noise
            labels[i] = -1.0
    return patches, labels


def margin_ok(net, patches, labels, margin=1e-4):
    """True when the batch sits away from every loss/ReLU/MAD kink, so
    central differences with step 1e-6 stay on one side of each kink."""
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


class TestForward:
    def test_pinned_two_filter_case(self):
        # filter 0 is the patch itself (score 1), filter 1 its reversal
        # (score -1, killed by the ReLU): out = 0.5 * 1 + 0.25 * 0
        net = nn.NccNetwork(
            filters=np.stack([P22, P22[::-1, ::-1]]),
            weights=np.array([0.5, 0.25]),
            norm_mode="std",
        )
        assert nn.forward(net, P22) == pytest.approx(0.5, abs=1e-12)

    def test_pinned_mad_case(self):
        # MAD self-score of [[-1,-1],[-1,3]] is 4/3 (see patchmath tests)
        spike = np.array([[-1.0, -1.0], [-1.0, 3.0]])
        net = nn.NccNetwork(
            filters=spike[None], weights=np.array([0.75]), norm_mode="mad"
        )
        assert nn.forward(net, spike) == pytest.approx(1.0, rel=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(50)
        net = nn.init_network(3, filter_size=5, seed=1)
        patches = rng.normal(size=(12, 5, 5))
        pn, valid = pm.normalize_rows(patches.reshape(12, -1), net.norm_mode)
        outs, _ = nn._forward(net, pn)
        assert valid.all()
        for i in range(12):
            assert outs[i] == pytest.approx(nn.forward(net, patches[i]), abs=1e-12)

    def test_batch_rejects_non_finite_patches(self):
        # through train, the one caller that takes a stack of raw patches;
        # a float32 stack is scanned after its block is widened
        net = nn.init_network(2, filter_size=4, seed=2)
        patches = np.random.default_rng(51).normal(size=(5, 4, 4)).astype(np.float32)
        patches[3, 1, 2] = np.inf
        labels = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="row 3 contains non-finite values"):
            nn.train(net, patches, labels)

    def test_batch_shape_checked(self):
        net = nn.init_network(2, filter_size=5, seed=2)
        with pytest.raises(ValueError, match=re.escape(
                "patches must be (S, 5, 5), got (2, 3, 3)")):
            nn.train(net, np.ones((2, 3, 3)), np.ones(2))
        with pytest.raises(ValueError, match=re.escape(
                "patches must be (S, 5, 5), got (25,)")):
            nn.train(net, np.ones(25), np.ones(25))
        for count in (0, 1):
            with pytest.raises(ValueError, match="S >= 2"):
                nn.train(net, np.ones((count, 5, 5)), np.ones(count))

    def test_forward_raises_on_flat(self):
        net = nn.init_network(1, filter_size=4, seed=3)
        with pytest.raises(pm.DegeneratePatchError):
            nn.forward(net, np.zeros((4, 4)))

    @pytest.mark.parametrize("mode", [pm.NORM_STD, pm.NORM_MAD])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_filter_named_not_called_flat(self, mode, bad):
        # a diverged filter, beside a flat one that comes first
        net = nn.init_network(3, filter_size=5, norm_mode=mode, seed=4)
        net.filters[0] = 0.5
        net.filters[1, 0, 0] = bad
        patches = np.random.default_rng(5).normal(size=(2, 5, 5))
        calls = [lambda: bn.NetworkScorer(net), lambda: nn.normalized_filters(net)]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "filter 1 has non-finite taps"
            assert not isinstance(info.value, pm.DegeneratePatchError)
        net.filters[1, 0, 0] = 0.0
        with pytest.raises(pm.DegeneratePatchError, match="filter 0 is flat"):
            nn.normalized_filters(net)


class TestGradients:
    @pytest.mark.parametrize("mode", ["std", "mad", "none"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(60)
        checked = 0
        while checked < 3:
            filters = rng.normal(scale=0.5, size=(2, 4, 4))
            weights = rng.normal(scale=0.8, size=2)
            net = nn.NccNetwork(filters.copy(), weights.copy(), mode)
            patches = rng.normal(scale=1.0, size=(6, 4, 4)) + rng.normal(
                scale=2.0, size=(6, 1, 1)
            )
            labels = np.where(rng.random(6) < 0.5, 1.0, -1.0)
            if not margin_ok(net, patches, labels):
                continue
            # the rows train takes its step on
            pn, _ = pm.normalize_rows(patches.reshape(6, -1), mode)

            _, grads = nn._l1_step(net, pn, labels)

            def loss_of_filters(taps_flat):
                trial = nn.NccNetwork(
                    taps_flat.reshape(2, 4, 4), weights.copy(), mode
                )
                loss, _ = nn._l1_step(trial, pn, labels)
                return loss

            def loss_of_weights(w):
                trial = nn.NccNetwork(filters.copy(), w.ravel(), mode)
                loss, _ = nn._l1_step(trial, pn, labels)
                return loss

            fd_f = oracles.fd_gradient(
                lambda g: loss_of_filters(g.ravel()), filters.reshape(2, 16)
            )
            assert oracles.rel_error(grads.filters.reshape(2, 16), fd_f) < 1e-6
            fd_w = oracles.fd_gradient(loss_of_weights, weights.reshape(1, 2))
            assert oracles.rel_error(grads.weights, fd_w.ravel()) < 1e-6
            checked += 1

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    @pytest.mark.parametrize("num_filters", [1, 3])
    def test_backward_matches_finite_differences_of_squared_error(
            self, mode, num_filters):
        # L = sum((out - y)^2) / 2, so dL/d(out) = out - y: a g_out that is
        # not the L1 loss's sign, on kink-free 15x15 patches and a batch
        # away from every ReLU and MAD kink
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 2:
            filters = rng.normal(scale=0.5, size=(num_filters, 15, 15))
            weights = rng.normal(scale=0.8, size=num_filters)
            net = nn.NccNetwork(filters.copy(), weights.copy(), mode)
            patches = []
            while len(patches) < 20:
                patch = rng.normal(loc=rng.uniform(-5.0, 5.0),
                                   scale=rng.uniform(0.5, 2.0), size=(15, 15))
                if np.min(np.abs(patch - patch.mean())) > 1e-4:
                    patches.append(patch)
            patches = np.stack(patches)
            labels = np.where(rng.random(20) < 0.5, 1.0, -1.0)
            if not margin_ok(net, patches, labels):
                continue
            pn, _ = pm.normalize_rows(patches.reshape(20, -1), mode)

            out, cache = nn._forward(net, pn)
            grads = nn._backward(net, pn, cache, out - labels)

            def loss(taps, w):
                trial = nn.NccNetwork(taps.reshape(filters.shape), w.ravel(), mode)
                diff = nn._forward(trial, pn)[0] - labels
                return 0.5 * float(diff @ diff)

            fd_f = oracles.fd_gradient(lambda g: loss(g, weights),
                                       filters.reshape(num_filters, -1))
            assert oracles.rel_error(grads.filters.reshape(num_filters, -1),
                                     fd_f) < 1e-4
            fd_w = oracles.fd_gradient(lambda w: loss(filters, w),
                                       weights.reshape(1, -1))
            assert oracles.rel_error(grads.weights, fd_w.ravel()) < 1e-4
            checked += 1

    def test_relu_blocks_negative_scores(self):
        # single filter anti-correlated with the lone patch: score < 0,
        # so no gradient reaches the filter taps, only the weight (by 0)
        net = nn.NccNetwork(
            filters=P22[::-1, ::-1][None].copy(),
            weights=np.array([0.5]),
            norm_mode="std",
        )
        pn, _ = pm.normalize_rows(P22.reshape(1, -1), net.norm_mode)
        loss, grads = nn._l1_step(net, pn, np.array([1.0]))
        assert loss == pytest.approx(1.0)
        np.testing.assert_array_equal(grads.filters, 0.0)
        np.testing.assert_array_equal(grads.weights, 0.0)

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    @pytest.mark.parametrize("num_filters", [1, 4])
    def test_batch_step_equals_two_pass_formula_bytewise(self, mode, num_filters):
        # np.add.reduce for np.mean and np.sum, a broadcast product for
        # np.outer and in-place updates give the same bytes
        rng = np.random.default_rng(88)
        patches, labels = toy_dataset(rng, count=37)
        net = nn.init_network(num_filters, filter_size=5, norm_mode=mode, seed=18)
        net.weights = rng.normal(size=num_filters)  # both signs of g_scores
        pn, _ = pm.normalize_rows(patches.reshape(37, -1), mode)
        loss, grads = nn._l1_step(net, pn, labels)
        want = oracles.two_pass_loss_and_gradients(
            net.filters, net.weights, mode, pn, labels)
        assert loss == want[0]
        assert grads.filters.tobytes() == want[1].tobytes()
        assert grads.weights.tobytes() == want[2].tobytes()


class TestSgd:
    def test_pinned_two_step_recurrence(self):
        p, v = 1.0, 0.0
        p, v = nn.momentum_step(p, 0.5, v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert (p, v) == (pytest.approx(0.95), pytest.approx(-0.05))
        p, v = nn.momentum_step(p, 0.5, v, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p == pytest.approx(0.855)
        assert v == pytest.approx(-0.095)

    def test_weight_decay_enters_gradient(self):
        p, v = nn.momentum_step(1.0, 0.5, 0.0, lr=0.1, momentum=0.9, weight_decay=0.1)
        assert v == pytest.approx(-0.06)
        assert p == pytest.approx(0.94)

    def test_two_plain_steps_match_closed_form(self):
        # with constant gradient g: after 2 steps p = p0 - lr*g*(2 + m)
        rng = np.random.default_rng(70)
        for _ in range(10):
            p0 = float(rng.normal())
            g = float(rng.normal())
            lr = float(rng.uniform(0.01, 0.3))
            m = float(rng.uniform(0.0, 0.99))
            p, v = nn.momentum_step(p0, g, 0.0, lr, m, 0.0)
            p, v = nn.momentum_step(p, g, v, lr, m, 0.0)
            assert p == pytest.approx(p0 - lr * g * (2.0 + m), rel=1e-12, abs=1e-12)

    def test_arrays_left_as_they_are_and_bytes_of_the_formula(self):
        rng = np.random.default_rng(71)
        p, g, v = (rng.normal(size=(2, 3, 3)) for _ in range(3))
        before = [a.tobytes() for a in (p, g, v)]
        new_p, new_v = nn.momentum_step(p, g, v, 0.001, 0.95, 0.0005)
        want_v = 0.95 * v - 0.001 * (g + 0.0005 * p)
        assert new_v.tobytes() == want_v.tobytes()
        assert new_p.tobytes() == (p + want_v).tobytes()
        assert [a.tobytes() for a in (p, g, v)] == before


class TestTrain:
    def test_toy_problem_converges(self):
        rng = np.random.default_rng(80)
        patches, labels = toy_dataset(rng)
        net = nn.init_network(1, filter_size=5, norm_mode="std", seed=4)
        cfg = nn.TrainConfig(batch_size=20, max_epochs=5, seed=5)
        hist = nn.train(net, patches, labels, cfg)
        assert len(hist.epochs) == 5
        assert hist.epochs[-1].mean_loss < hist.epochs[0].mean_loss
        assert hist.final_accuracy > 0.9
        assert hist.epochs[-1].filter_rel_change < hist.epochs[0].filter_rel_change

    def test_mad_mode_trains(self):
        rng = np.random.default_rng(81)
        patches, labels = toy_dataset(rng, count=120)
        net = nn.init_network(2, filter_size=5, norm_mode="mad", seed=6)
        cfg = nn.TrainConfig(batch_size=20, max_epochs=3, seed=7)
        hist = nn.train(net, patches, labels, cfg)
        assert np.isfinite(net.filters).all()
        assert hist.epochs[-1].mean_loss < hist.epochs[0].mean_loss

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(82)
        patches, labels = toy_dataset(rng, count=80)
        runs = []
        for _ in range(2):
            net = nn.init_network(2, filter_size=5, seed=8)
            hist = nn.train(net, patches, labels, nn.TrainConfig(max_epochs=2, seed=9))
            runs.append((net.filters.copy(), net.weights.copy(), hist))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        for a, b in zip(runs[0][2].epochs, runs[1][2].epochs):
            assert a == b

    def test_flat_patches_dropped_and_counted(self):
        rng = np.random.default_rng(83)
        patches, labels = toy_dataset(rng, count=60)
        patches[::12] = 4.0  # five flat patches
        net = nn.init_network(1, filter_size=5, seed=10)
        hist = nn.train(net, patches, labels, nn.TrainConfig(max_epochs=1, seed=11))
        assert hist.skipped_degenerate == 5
        assert hist.train_size + hist.holdout_size == 55

    @pytest.mark.parametrize(
        "mode, holdout", [("std", 0.25), ("mad", 0.25), ("none", 0.25), ("std", 0.0)]
    )
    def test_equals_per_batch_normalization_oracle(self, mode, holdout):
        # train normalizes the corpus once, stores it in float32 and slices
        # it; the oracle normalizes every batch and evaluation again from
        # the raw patches and rounds them, and the scoring bank, the same way
        rng = np.random.default_rng(84)
        patches, labels = toy_dataset(rng, count=90)
        patches[::15] = 4.0  # six flat patches
        patches[7] = 1e4 + 1e-13 * np.arange(25.0).reshape(5, 5)  # near-flat
        cfg = nn.TrainConfig(learning_rate=0.01, batch_size=7, max_epochs=3,
                             holdout_fraction=holdout, seed=12)
        runs = []
        for fit in (nn.train, lambda *a: oracles.naive_train(nn, *a)):
            net = nn.init_network(2, filter_size=5, norm_mode=mode, seed=13)
            runs.append((net, fit(net, patches, labels, cfg)))
        (net, hist), (ref_net, ref_hist) = runs
        assert net.filters.tobytes() == ref_net.filters.tobytes()
        assert net.weights.tobytes() == ref_net.weights.tobytes()
        assert hist == ref_hist
        assert hist.skipped_degenerate == (0 if mode == "none" else 7)

    @pytest.mark.parametrize("mode", ["std", "mad", "none"])
    def test_float32_patches_train_as_their_float64_copy(self, mode):
        # more patches than two normalization blocks, so the widening
        # crosses block edges
        rng = np.random.default_rng(87)
        patches, labels = toy_dataset(rng, count=2 * pm._BLOCK_ROWS + 100)
        patches = (patches + 50.0).astype(np.float32)
        patches[::40] = 4.0  # flat patches
        cfg = nn.TrainConfig(batch_size=16, max_epochs=2, seed=16)
        runs = []
        for corpus in (patches, patches.astype(np.float64)):
            net = nn.init_network(2, filter_size=5, norm_mode=mode, seed=17)
            runs.append((net, nn.train(net, corpus, labels, cfg)))
        (net, hist), (ref_net, ref_hist) = runs
        assert net.filters.tobytes() == ref_net.filters.tobytes()
        assert net.weights.tobytes() == ref_net.weights.tobytes()
        assert hist == ref_hist
        assert hist.skipped_degenerate == (0 if mode == "none" else 16)

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_float32_corpus_within_tolerance_of_float64_trainer(self, mode):
        # the stated tolerance of the float32 corpus against the float64
        # trainer; this recipe measured at most 5.4e-9 of the largest tap,
        # 9.4e-10 in the weights, equal accuracies, 5.1e-7 in the
        # thresholds and 2.7e-9 in the mean losses (all 0 in none mode,
        # whose float32 patches are stored exactly)
        configs = dg.training_scene_configs(scene_count=4, seed=5)
        patches, labels = dg.augmented_arrays(
            dg.build_training_set(configs, negative_budget=40))
        cfg = nn.TrainConfig(batch_size=40, seed=3)
        runs = []
        for fit in (nn.train, lambda *a: oracles.float64_train(nn, *a)):
            net = nn.init_network(2, filter_size=dg.CORE_SIZE, norm_mode=mode, seed=2)
            runs.append((net, fit(net, patches, labels, cfg)))
        (net, hist), (ref_net, ref_hist) = runs
        taps = np.abs(ref_net.filters).max()
        assert np.abs(net.filters - ref_net.filters).max() <= 1e-6 * taps
        np.testing.assert_allclose(net.weights, ref_net.weights, rtol=1e-6, atol=0)
        assert len(hist.epochs) == len(ref_hist.epochs) == 5
        for ep, ref in zip(hist.epochs, ref_hist.epochs):
            assert abs(ep.holdout_accuracy - ref.holdout_accuracy) <= 1e-3
            assert abs(ep.threshold - ref.threshold) <= 1e-5 * abs(ref.threshold)
            assert abs(ep.mean_loss - ref.mean_loss) <= 1e-8 * abs(ref.mean_loss)
        assert hist.final_accuracy > 0.9

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_float32_corpus_memory(self, mode):
        # 1.27x: the float32 corpus plus two 256-row float64 blocks;
        # 512-row blocks measured 1.52x, and the float64 corpus alone
        # took 2x the float32 one (2.27x in all)
        rng = np.random.default_rng(89)
        patches = rng.normal(size=(4096, 15, 15)).astype(np.float32)
        labels = np.where(np.arange(4096) % 2 == 0, 1.0, -1.0)
        net = nn.init_network(2, filter_size=15, norm_mode=mode, seed=19)
        cfg = nn.TrainConfig(batch_size=64, max_epochs=1, seed=20)
        tracemalloc.start()
        try:
            nn.train(net, patches, labels, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * patches.nbytes

    def test_corpus_normalized_once(self, monkeypatch):
        assert_corpus_normalized_once(monkeypatch)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("max_epochs", 0), ("holdout_fraction", 1.0),
        ("holdout_fraction", 1.5), ("holdout_fraction", -0.1),
        ("holdout_fraction", float("nan")), ("learning_rate", float("nan")),
        ("momentum", float("inf")), ("weight_decay", float("-inf")),
        ("batch_size", 2.5), ("batch_size", True), ("max_epochs", 2.0),
        ("learning_rate", "0.1"), ("seed", 1.5),
    ])
    def test_config_validation(self, monkeypatch, field, value):
        rng = np.random.default_rng(86)
        patches, labels = toy_dataset(rng, count=20)
        net = nn.init_network(1, filter_size=5, seed=0)
        before = net.filters.copy()

        def never(*args):
            raise AssertionError("the corpus was normalized before the config was checked")

        monkeypatch.setattr(pm, "_normalize_blocks", never)
        with pytest.raises(ValueError, match=field):
            nn.train(net, patches, labels, nn.TrainConfig(**{field: value}))
        assert np.array_equal(net.filters, before)

    @pytest.mark.parametrize("config", [
        {"max_epochs": 0}, dataclasses.make_dataclass(
            "Settings", [f.name for f in dataclasses.fields(nn.TrainConfig)]
        )(0.001, 0.95, 0.0005, 40, 0, 0.2, 0),
    ], ids=["dict", "look-alike"])
    def test_config_must_be_a_train_config(self, monkeypatch, config):
        # a look-alike would skip the checks TrainConfig makes when built
        rng = np.random.default_rng(86)
        patches, labels = toy_dataset(rng, count=20)
        net = nn.init_network(1, filter_size=5, seed=0)
        monkeypatch.setattr(pm, "_normalize_blocks", None)
        with pytest.raises(ValueError, match="config must be a TrainConfig"):
            nn.train(net, patches, labels, config)

    def test_numpy_integer_config_accepted(self):
        rng = np.random.default_rng(86)
        patches, labels = toy_dataset(rng, count=20)
        runs = []
        for batch_size, max_epochs in ((4, 2), (np.int64(4), np.int32(2))):
            net = nn.init_network(1, filter_size=5, seed=0)
            cfg = nn.TrainConfig(batch_size=batch_size, max_epochs=max_epochs, seed=1)
            runs.append((net, nn.train(net, patches, labels, cfg)))
        (net, hist), (ref_net, ref_hist) = runs
        assert net.filters.tobytes() == ref_net.filters.tobytes()
        assert hist == ref_hist

    def test_shape_and_label_validation(self):
        net = nn.init_network(1, filter_size=5, seed=0)
        with pytest.raises(ValueError):
            nn.train(net, np.zeros((4, 3, 3)), np.array([1.0, -1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            nn.train(net, np.zeros((2, 5, 5)), np.array([1.0, 2.0]))
        # two of three patches are flat
        patches = np.stack([np.full((5, 5), 3.0), np.eye(5), np.zeros((5, 5))])
        with pytest.raises(ValueError, match="fewer than 2 usable patches"):
            nn.train(net, patches, np.array([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_patches_rejected(self, bad):
        rng = np.random.default_rng(87)
        patches, labels = toy_dataset(rng, count=20)
        patches[11, 2, 2] = bad
        net = nn.init_network(1, filter_size=5, seed=0)
        before = net.filters.copy()
        with pytest.raises(ValueError, match="row 11 contains non-finite values"):
            nn.train(net, patches, labels, nn.TrainConfig(max_epochs=1))
        assert np.array_equal(net.filters, before)


@st.composite
def calibration_cases(draw):
    """Scores with many ties, all equal, +-0.0 beside other values, or
    arbitrary finite floats; labels of both classes or of one."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["ties", "equal", "signed-zeros", "floats"]))
    if kind == "ties":
        elements = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 0.5, 3.0])
    elif kind == "equal":
        elements = st.just(draw(st.floats(-5.0, 5.0)))
    elif kind == "signed-zeros":
        elements = st.sampled_from([-0.0, 0.0, -1.5, 1.5])
    else:
        elements = st.floats(-1e3, 1e3)
    scores = draw(st.lists(elements, min_size=n, max_size=n))
    classes = draw(st.sampled_from([(-1.0, 1.0), (1.0,), (-1.0,)]))
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    return np.array(scores), np.array(labels)


def assert_corpus_normalized_once(monkeypatch):
    """``train`` normalizes its corpus once and the bank once per
    ``_forward`` call, however many row blocks that call scores."""
    calls = []
    real = pm._normalize_full

    def counting(rows, mode, out=None, buf=None):
        calls.append(np.shape(rows)[0])
        return real(rows, mode, out, buf)

    monkeypatch.setattr(pm, "_normalize_full", counting)
    rng = np.random.default_rng(85)
    patches, labels = toy_dataset(rng, count=60)
    net = nn.init_network(3, filter_size=5, seed=14)
    cfg = nn.TrainConfig(batch_size=8, max_epochs=2, seed=15)
    hist = nn.train(net, patches, labels, cfg)
    # the corpus once, then the 3-filter bank once per batch step (for
    # both the forward and the backward pass) and once per epoch's
    # scoring of the corpus
    steps = -(-hist.train_size // 8)
    assert calls == [60] + [3] * (2 * (steps + 1))


def score_tolerance(net, pn):
    """Per row, a bound on the gap between two ``_forward`` outputs for the
    normalized rows ``pn`` whose dot products were summed in different
    orders.  A dot product of n terms, summed in any order, is within
    gamma_n * sum|terms| of its exact value, gamma_n = n*u / (1 - n*u) with
    u = eps/2 in the rows' precision (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1), so two orders differ by
    about n * eps * sum|terms| at most; this allows twice that.  The ReLU
    does not widen a gap, the weights scale it by |w_j|, and the float64
    weighting adds (N + 1) float64 units."""
    fn = nn.normalized_filters(net).astype(pn.dtype)
    terms = (np.abs(pn) @ np.abs(fn).T).astype(float)   # sum|terms| per score
    gap = 2 * pn.shape[1] * np.finfo(pn.dtype).eps * terms
    return (gap + (len(fn) + 1) * np.finfo(float).eps * terms) @ np.abs(net.weights)


class TestBlockedScoring:
    """``_forward`` over more rows than one ``nn._SCORE_ROWS`` block scores
    the rows block by block; each block's scores may differ from one
    product's in summation order only."""

    @pytest.mark.parametrize("block", [1, 7, 16])
    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_forward_batch_matches_one_call(self, monkeypatch, block, mode):
        rng = np.random.default_rng(90)
        patches, _ = toy_dataset(rng, count=45)  # 45 % 7 = 3, 45 % 16 = 13
        patches[5] = 2.0  # flat: invalid unless mode is none
        net = nn.init_network(4, filter_size=5, norm_mode=mode, seed=21)
        pn, valid = pm.normalize_rows(patches.reshape(45, -1), mode)
        whole, _ = nn._forward(net, pn)
        monkeypatch.setattr(nn, "_SCORE_ROWS", block)
        blocked, _ = nn._forward(net, pn)
        assert valid[5] == (mode == pm.NORM_NONE)
        assert np.all(np.abs(blocked - whole) <= score_tolerance(net, pn))

    @pytest.mark.parametrize("block", [1, 7])
    def test_epoch_scores_match_one_call(self, monkeypatch, block):
        # every batch fits in one block, so only the epoch scoring differs
        scored = []
        real = nn._forward

        def spying(net, pn):
            out, cache = real(net, pn)
            if pn.dtype == np.float32:
                scored.append((out, score_tolerance(net, pn)))
            return out, cache

        monkeypatch.setattr(nn, "_forward", spying)
        rng = np.random.default_rng(91)
        patches, labels = toy_dataset(rng, count=52)
        cfg = nn.TrainConfig(batch_size=block, max_epochs=3, seed=22)
        runs = []
        for rows in (10 ** 9, block):
            monkeypatch.setattr(nn, "_SCORE_ROWS", rows)
            net = nn.init_network(3, filter_size=5, seed=23)
            scored.clear()
            nn.train(net, patches, labels, cfg)
            runs.append((net, list(scored)))
        (ref_net, ref_scored), (net, blocked_scored) = runs
        assert net.filters.tobytes() == ref_net.filters.tobytes()
        assert net.weights.tobytes() == ref_net.weights.tobytes()
        assert len(blocked_scored) == len(ref_scored) == 3
        for (out, tol), (ref_out, _) in zip(blocked_scored, ref_scored):
            assert out.shape == (52,)
            assert np.all(np.abs(out - ref_out) <= tol)

    def test_empty_batch(self, monkeypatch):
        monkeypatch.setattr(nn, "_SCORE_ROWS", 7)
        net = nn.init_network(4, filter_size=5, seed=24)
        outs, (acts, _) = nn._forward(net, np.ones((0, 25)))
        assert outs.shape == (0,) and acts.shape == (0, 4)

    def test_bank_normalized_once_per_blocked_forward(self, monkeypatch):
        monkeypatch.setattr(nn, "_SCORE_ROWS", 7)
        assert_corpus_normalized_once(monkeypatch)


class TestThresholdCalibration:
    def test_separable_scores(self):
        s = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        t = nn.calibrate_threshold(s, y)
        assert t == pytest.approx(0.5)
        assert nn.threshold_accuracy(s, y, t) == 1.0

    def test_interleaved_scores(self):
        s = np.array([0.1, 0.2, 0.3, 0.4])
        y = np.array([-1.0, 1.0, -1.0, 1.0])
        t = nn.calibrate_threshold(s, y)
        assert nn.threshold_accuracy(s, y, t) == pytest.approx(0.75)

    def test_single_class(self):
        s = np.array([0.3, 0.5])
        assert nn.threshold_accuracy(s, np.ones(2), nn.calibrate_threshold(s, np.ones(2))) == 1.0
        assert (
            nn.threshold_accuracy(s, -np.ones(2), nn.calibrate_threshold(s, -np.ones(2)))
            == 1.0
        )

    def test_tied_scores_not_split(self):
        s = np.array([0.5, 0.5, 0.7])
        y = np.array([-1.0, -1.0, 1.0])
        t = nn.calibrate_threshold(s, y)
        assert t == pytest.approx(0.6)
        assert nn.threshold_accuracy(s, y, t) == 1.0

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=calibration_cases())
    def test_equals_stable_argsort_bytewise(self, case):
        # the positives below each split are counted by searchsorted over
        # the sorted positives; at every realizable split that is the
        # stable-order cumulative sum, so the same split and bits win
        s, y = case
        got = nn.calibrate_threshold(s, y)
        want = oracles.stable_argsort_threshold(s, y)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_relu_scores_equal_stable_argsort_bytewise(self):
        # 20,000 scores, a third of them exactly +-0.0 as from a ReLU bank
        rng = np.random.default_rng(72)
        y = np.where(rng.random(20000) < 0.8, 1.0, -1.0)
        s = np.maximum(rng.normal(size=20000) + 0.5 * y, 0.0)
        s[::7] = -0.0
        got = nn.calibrate_threshold(s, y)
        assert np.float64(got).tobytes() == np.float64(
            oracles.stable_argsort_threshold(s, y)).tobytes()

    @pytest.mark.parametrize("call", [
        lambda s, y: nn.calibrate_threshold(s, y),
        lambda s, y: nn.threshold_accuracy(s, y, 0.3),
    ], ids=["calibrate", "accuracy"])
    @pytest.mark.parametrize("scores, labels, match", [
        ([np.nan, 0.2, 0.8], [-1.0, -1.0, 1.0], "scores must be finite"),
        ([0.1, -np.inf, 0.8], [-1.0, -1.0, 1.0], "scores must be finite"),
        ([0.1, 0.5, 0.8], [0.0, -1.0, 1.0], "labels must be"),
        ([0.1, 0.5, 0.8], [2.0, -1.0, 1.0], "labels must be"),
        ([0.1, 0.5, 0.8], [1.0], "equal-length"),
        ([], [], "non-empty"),
        ([[0.1, 0.5]], [[1.0, -1.0]], "1-D"),
    ], ids=["nan-score", "inf-score", "label-0", "label-2", "lengths", "empty",
            "2-d"])
    def test_bad_input_rejected(self, call, scores, labels, match):
        with pytest.raises(ValueError, match=match):
            call(np.array(scores), np.array(labels))

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match=f"^threshold must be finite, got {threshold!r}$"):
            nn.threshold_accuracy([0.1, 0.5, 0.8], [-1.0, 1.0, 1.0], threshold)

    def test_one_signed_network_outputs(self):
        # all-positive scores from a ReLU bank still calibrate cleanly
        s = np.array([0.02, 0.03, 0.6, 0.7, 0.8])
        y = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
        t = nn.calibrate_threshold(s, y)
        assert nn.threshold_accuracy(s, y, t) == 1.0


class TestInitAndSimilarity:
    def test_init_ranges(self):
        net = nn.init_network(4, filter_size=15, seed=12)
        assert net.filters.shape == (4, 15, 15)
        assert np.all(np.abs(net.filters) <= 0.05)
        assert net.filters.std() > 0.01
        np.testing.assert_allclose(net.weights, 0.25)

    def test_init_needs_a_filter(self):
        with pytest.raises(ValueError, match="num_filters must be an integer >= 1, got 0"):
            nn.init_network(0, filter_size=5)

    @pytest.mark.parametrize("filters, weights, mode, message", [
        (np.ones((3, 3)), np.ones(1), "std", "filters must be (N, k, k), got (3, 3)"),
        (np.ones((0, 3, 3)), np.ones(0), "std", "bad filter bank shape (0, 3, 3)"),
        (np.ones((1, 3, 4)), np.ones(1), "std", "bad filter bank shape (1, 3, 4)"),
        (np.ones((1, 1, 1)), np.ones(1), "std", "bad filter bank shape (1, 1, 1)"),
        (np.ones((2, 3, 3)), np.ones(3), "std",
         "weights shape (3,) does not match 2 filters"),
        (np.ones((1, 3, 3)), np.ones(1), "l2", "unknown normalization mode 'l2'"),
    ], ids=["2-d", "no-filters", "non-square", "1x1", "weights", "mode"])
    def test_bad_network_rejected(self, filters, weights, mode, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            nn.NccNetwork(filters, weights, mode)

    def test_init_deterministic(self):
        a = nn.init_network(2, filter_size=7, seed=13)
        b = nn.init_network(2, filter_size=7, seed=13)
        assert np.array_equal(a.filters, b.filters)

    def test_similarity_known_pairs(self):
        f = np.arange(9.0).reshape(3, 3)
        g = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert nn.filter_similarity(f, f) == pytest.approx(1.0)
        assert nn.filter_similarity(f, -f) == pytest.approx(-1.0)
        sim = nn.filter_similarity(f, g)
        assert abs(sim) < 0.5

    def test_max_pairwise(self):
        f = np.arange(16.0).reshape(4, 4)
        net = nn.NccNetwork(np.stack([f, -f]), np.array([0.5, 0.5]), "std")
        assert nn.max_pairwise_similarity(net) == pytest.approx(1.0)
        solo = nn.NccNetwork(f[None], np.array([1.0]), "std")
        assert nn.max_pairwise_similarity(solo) == 0.0


class TestNetworkIO:
    def test_roundtrip_bitwise(self):
        net = nn.init_network(3, filter_size=6, norm_mode="mad", seed=14)
        net.weights = np.array([0.1, -0.25, 1e-17])
        buf = io.StringIO()
        nn.save_network(net, buf)
        buf.seek(0)
        back = nn.load_network(buf)
        assert back.norm_mode == "mad"
        assert np.array_equal(back.filters, net.filters)
        assert np.array_equal(back.weights, net.weights)
        # weights load_network would refuse are refused on save too
        net.weights[2] = np.inf
        with pytest.raises(ValueError, match="non-finite weight"):
            nn.save_network(net, io.StringIO())

    def test_file_roundtrip(self, tmp_path):
        net = nn.init_network(1, filter_size=15, seed=15)
        path = tmp_path / "net.txt"
        nn.save_network(net, path)
        back = nn.load_network(path)
        assert np.array_equal(back.filters, net.filters)

    # save_network's exact text, recorded before the grid block was shared
    GOLDEN = ("nccnet 1\nnorm_mode mad\nfilters 2\n"
              "2 2\n0.5 -1.25\n1e-07 3.0\n"
              "2 2\n0.1 0.2\n-0.3 25000000000.0\n"
              "weights 0.75 -0.3333333333333333\n")

    def test_golden_text(self):
        filters = np.array([[[0.5, -1.25], [1e-7, 3.0]], [[0.1, 0.2], [-0.3, 2.5e10]]])
        net = nn.NccNetwork(filters, np.array([0.75, -1.0 / 3.0]), "mad")
        buf = io.StringIO()
        nn.save_network(net, buf)
        assert buf.getvalue() == self.GOLDEN
        back = nn.load_network(io.StringIO(self.GOLDEN))
        assert back.norm_mode == "mad"
        assert np.array_equal(back.filters, filters)
        assert np.array_equal(back.weights, net.weights)

    HEAD = "nccnet 1\nnorm_mode std\n"
    MALFORMED = [
        ("", "not a version-1 nccnet file"),
        ("nccnet 2\nnorm_mode std\nfilters 1\n2 2\n1 2\n3 4\nweights 1.0\n",
         "not a version-1 nccnet file"),
        ("nccnet 1\nnorm_mode l2\nfilters 1\n2 2\n1 2\n3 4\nweights 1.0\n",
         "bad norm_mode line: 'norm_mode l2'"),
        (HEAD + "filters 2\n2 2\n1 2\n3 4\nweights 1.0\n",
         "filter 1: bad grid header: 'weights 1.0'"),
        (HEAD + "filters 1\n2 2\n1 2\n3 4\nweights 1.0 2.0\n",
         "bad weights line: 'weights 1.0 2.0'"),
        (HEAD + "filters 1\n2 2\n1 2\n3 4\n", "missing weights line"),
        (HEAD + "filters 1\n2 2\n1 nan\n3 4\nweights 1.0\n",
         "filter 0: grid contains non-finite values"),
        (HEAD + "filters 1\n2 2\n1 2\n3 4\nweights inf\n", "non-finite weight"),
        (HEAD + "filters x\n2 2\n1 2\n3 4\nweights 1.0\n",
         "bad filters line: 'filters x'"),
        (HEAD + "filters 1\nfive 5\n1 2\n3 4\nweights 1.0\n",
         "filter 0: bad grid header: 'five 5'"),
        (HEAD + "filters 1\n2 2\n1 2\n3 4\nweights abc\n",
         "bad weights line: 'weights abc'"),
        (HEAD + "filters 1\n-1 2\n1 2\n3 4\nweights 1.0\n",
         "filter 0: bad grid header: '-1 2'"),
        (HEAD + "filters 1\n0 2\n1 2\n3 4\nweights 1.0\n",
         "filter 0: bad grid header: '0 2'"),
        (HEAD + "filters 2\n2 2\n1 2\n3 4\n3 3\n1 2 3\n4 5 6\n7 8 9\nweights 1.0 1.0\n",
         "filter 1 has shape (3, 3), filter 0 has (2, 2)"),
        (HEAD + "filters 3\n2 2\n1 2\n3 4\n2 2\n5 6\n7 8\n2 1\n1\n2\nweights 1 1 1\n",
         "filter 2 has shape (2, 1), filter 0 has (2, 2)"),
        (HEAD + "filters 1\n", "truncated nccnet file"),
        (HEAD + "filter 1\n2 2\n1 2\n3 4\nweights 1.0\n", "bad filters line: 'filter 1'"),
        (HEAD + "filters 1 2\n2 2\n1 2\n3 4\nweights 1.0\n",
         "bad filters line: 'filters 1 2'"),
        (HEAD + "filters 0\n2 2\n1 2\n3 4\nweights 1.0\n",
         "filters must be an integer >= 1, got 0"),
        (HEAD + "filters 2\n2 2\n1 2\n3 4\n", "filter 1: missing grid header"),
        (HEAD + "filters 1\n2\n1 2\n3 4\nweights 1.0\n",
         "filter 0: bad grid header: '2'"),
        (HEAD + "filters 1\n2 2\n1 2\n3 4\nweights 1.0\njunk line\n3 3\n",
         "unexpected line after weights: 'junk line'"),
        (HEAD + "filters 1\n2 2\n1 2\n3 4\nweights 1.0\nweights 1.0\n",
         "unexpected line after weights: 'weights 1.0'"),
        (HEAD + "filters 1\n2 2\n1 2\n3 4\nweights 1_0\n", "bad weights line: 'weights 1_0'"),
        (HEAD + "filters 1_0\n2 2\n1 2\n3 4\nweights 1.0\n",
         "bad filters line: 'filters 1_0'"),
        (HEAD + "filters 1\n2 2\n1 2_0\n3 4\nweights 1.0\n",
         "filter 0: row 0: unparseable value"),
    ]

    @pytest.mark.parametrize("text, message", MALFORMED,
                             ids=[text for text, _ in MALFORMED])
    def test_malformed_rejected(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            nn.load_network(io.StringIO(text))
