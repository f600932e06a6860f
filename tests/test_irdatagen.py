import hashlib
import struct

import numpy as np
import pytest

import oracles
from nccbank import irdatagen as dg
from nccbank import patchmath as pm


def quiet_config(**kw):
    base = dict(
        width=64,
        height=64,
        clutter_kind=dg.COLLIMATOR,
        clutter_strength=0.0,
        target_count=0,
        target_amplitude=60.0,
        psf_sigma=1.2,
        noise_sigma=0.0,
        bad_pixel_rate=0.0,
        rng_seed=7,
    )
    base.update(kw)
    return dg.SceneConfig(**base)


class TestSynth:
    def test_collimator_no_effects_is_flat(self):
        scene = dg.synth_scene(quiet_config())
        assert np.all(scene.image == dg.BASE_LEVEL)
        assert scene.truths == [] and scene.bad_pixels == []

    def test_lone_target_peaks_at_truth(self):
        scene = dg.synth_scene(quiet_config(target_count=1))
        (r, c) = scene.truths[0]
        peak = np.unravel_index(np.argmax(scene.image), scene.image.shape)
        assert abs(peak[0] - r) <= 1 and abs(peak[1] - c) <= 1
        assert scene.image[r, c] == pytest.approx(dg.BASE_LEVEL + 60.0)

    def test_deterministic(self):
        cfg = quiet_config(
            clutter_kind=dg.SKY,
            clutter_strength=1.0,
            target_count=3,
            noise_sigma=5.0,
            bad_pixel_rate=1e-3,
            width=96,
            height=96,
        )
        a = dg.synth_scene(cfg)
        b = dg.synth_scene(cfg)
        assert np.array_equal(a.image, b.image)
        assert a.truths == b.truths and a.bad_pixels == b.bad_pixels

    def test_target_placement_rules(self):
        scene = dg.synth_scene(
            quiet_config(width=128, height=128, target_count=9, noise_sigma=5.0)
        )
        assert len(scene.truths) == 9
        for r, c in scene.truths:
            assert 10 <= r < 118 and 10 <= c < 118
        for i, (r1, c1) in enumerate(scene.truths):
            for r2, c2 in scene.truths[i + 1 :]:
                assert max(abs(r1 - r2), abs(c1 - c2)) >= 16

    def test_bad_pixels_hot_and_isolated(self):
        cfg = quiet_config(
            width=96, height=96, target_count=2, noise_sigma=2.0,
            bad_pixel_rate=5e-4, clutter_kind=dg.SKY, clutter_strength=1.0,
        )
        scene = dg.synth_scene(cfg)
        assert len(scene.bad_pixels) == round(5e-4 * 96 * 96)
        for r, c in scene.bad_pixels:
            for tr, tc in scene.truths:
                assert (r - tr) ** 2 + (c - tc) ** 2 > 9
            # stuck-hot: the defect overwrites the pixel, so its value sits in
            # the defect band regardless of scene content underneath
            assert dg.BASE_LEVEL + 900.0 <= scene.image[r, c] <= dg.BASE_LEVEL + 1600.0
            ring = scene.image[r - 1 : r + 2, c - 1 : c + 2]
            assert scene.image[r, c] > np.median(ring) + 0.5 * 60.0

    def test_clutter_kinds_differ_and_move_the_frame(self):
        frames = {}
        for kind in dg.CLUTTER_KINDS:
            cfg = quiet_config(clutter_kind=kind, clutter_strength=1.0, rng_seed=3)
            frames[kind] = dg.synth_scene(cfg).image
        assert np.ptp(frames[dg.SKY]) > 10.0
        assert np.ptp(frames[dg.TERRAIN]) > 10.0
        assert np.ptp(frames[dg.SEA_GLINT]) > 10.0
        assert np.ptp(frames[dg.COLLIMATOR]) == 0.0

    def test_sea_glint_brights_come_in_clusters(self):
        cfg = quiet_config(clutter_kind=dg.SEA_GLINT, clutter_strength=1.0,
                           rng_seed=11, width=96, height=96)
        img = dg.synth_scene(cfg).image - dg.BASE_LEVEL
        hot = img > 30.0
        assert hot.any()
        # every bright sparkle pixel spreads: some neighbor carries at least
        # half its value (no isolated single-pixel glints)
        for r, c in zip(*np.nonzero(hot)):
            neigh = img[max(r - 1, 0) : r + 2, max(c - 1, 0) : c + 2].copy()
            neigh[min(r, 1), min(c, 1)] = -np.inf
            assert neigh.max() >= 0.5 * img[r, c]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dg.synth_scene(quiet_config(width=32))
        with pytest.raises(ValueError):
            dg.synth_scene(quiet_config(psf_sigma=0.0))
        with pytest.raises(ValueError):
            dg.synth_scene(quiet_config(bad_pixel_rate=1.0))
        with pytest.raises(ValueError):
            dg.synth_scene(quiet_config(clutter_kind="fog"))
        # the PSF stamp would overrun the 10-px border kept around truths
        with pytest.raises(ValueError, match=r"psf_sigma must be finite and in \(0, 2\.5\], got 2\.6"):
            dg.synth_scene(quiet_config(psf_sigma=2.6))
        for field in ("clutter_strength", "target_amplitude", "psf_sigma",
                      "noise_sigma", "bad_pixel_rate"):
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    dg.synth_scene(quiet_config(**{field: bad}))
        for amplitude in (0.0, -5.0):
            with pytest.raises(ValueError, match=f"target_amplitude must be finite and > 0, "
                                                 f"got {amplitude}$"):
                dg.synth_scene(quiet_config(target_amplitude=amplitude))
        for field, rule in (("clutter_strength", ">= 0"), ("noise_sigma", ">= 0"),
                            ("bad_pixel_rate", r"in \[0, 1\)")):
            with pytest.raises(ValueError, match=f"{field} must be finite and {rule}, got -1$"):
                dg.synth_scene(quiet_config(**{field: -1}))
        for field in ("target_count", "rng_seed"):
            with pytest.raises(ValueError, match=f"{field} must be an integer >= 0, got -1$"):
                dg.synth_scene(quiet_config(**{field: -1}))

    def test_psf_at_limit_fits_target_border(self):
        # truths sit >= 10 px from the edge; the stamp reaches ceil(4 sigma)
        edge_gaps = []
        for kind in dg.CLUTTER_KINDS:
            scene = dg.synth_scene(quiet_config(
                psf_sigma=2.5, target_count=6, clutter_kind=kind,
                clutter_strength=1.0, noise_sigma=5.0, width=96, height=96,
            ))
            assert len(scene.truths) == 6
            edge_gaps += [min(r, c, 95 - r, 95 - c) for r, c in scene.truths]
        assert min(edge_gaps) == 10  # a stamp of the full 10-px reach

    def test_targets_land_on_quiet_background(self):
        cfg = quiet_config(width=96, height=96, target_count=5)
        amp = cfg.target_amplitude
        # the right half is rough with sparse glints: they stand out of their
        # 9x9 mean but keep every 15x15 swing below 0.3 amplitude
        clutter = np.zeros((96, 96))
        clutter[::4, 48::4] = 0.25 * amp
        padded = np.pad(clutter, 4, mode="edge")  # a 9x9 mean at every pixel
        truths = dg._place_targets(cfg, np.random.default_rng(0), clutter)
        assert len(truths) == 5
        for r, c in truths:
            resid = max(abs(clutter[i, j] - padded[i : i + 9, j : j + 9].mean())
                        for i in range(r - 9, r + 10) for j in range(c - 9, c + 10))
            core = clutter[r - 7 : r + 8, c - 7 : c + 8]
            assert resid < 0.15 * amp
            assert core.max() - core.min() < 0.3 * amp
            assert c + 9 < 48  # the 19x19 window holds no glint
        rough = np.zeros((96, 96))
        rough[::4, ::4] = 0.25 * amp
        # a smooth ramp leaves no residual off the frame edges: only its
        # 15x15 swing (14 px times the slope) rules the centers out
        steep = np.broadcast_to(2.0 * np.arange(96.0), (96, 96))
        for field in (rough, steep):
            with pytest.raises(RuntimeError, match="cannot place 5 separated"):
                dg._place_targets(cfg, np.random.default_rng(0), field)
        gentle = steep / 2
        assert len(dg._place_targets(cfg, np.random.default_rng(0), gentle)) == 5

    def test_unplaceable_targets_report_the_shortfall(self):
        # a validated 64x64 terrain scene with room for no quiet target:
        # the error says how many were placed and names the quiet limits
        cfg = dg.training_scene_configs(scene_count=4, seed=1, width=64, height=64,
                                        targets_per_scene=2)[1]
        assert cfg.clutter_kind == dg.TERRAIN and cfg.target_amplitude == 60.0
        with pytest.raises(RuntimeError, match=(
                r"cannot place 2 separated targets on quiet background in a "
                r"64x64 scene: placed 0 of 2 in 10000 draws \(the 19x19 context "
                r"must stay within 0\.15 x amplitude = 9 of its 9x9 local mean, "
                r"and the 15x15 core range below 0\.3 x amplitude = 18\)")):
            dg.synth_scene(cfg)

    # truths and bad pixels of one scene per clutter kind, so that a change
    # of the placement rules or of their RNG draws shows; image bytes are not
    # pinned because np.exp may differ by one ulp across CPUs
    PINNED_BENCHMARK = [
        ([(109, 62), (22, 92), (140, 118)],
         [(65, 90), (97, 157), (115, 14), (124, 91), (32, 132), (118, 112)]),
        ([(140, 148), (118, 49), (88, 21)],
         [(15, 91), (74, 117), (101, 17), (13, 12), (154, 9), (7, 7)]),
        ([(27, 66), (49, 148), (87, 84)],
         [(149, 117), (51, 36), (90, 112), (23, 136), (58, 50), (99, 76)]),
        ([(55, 146), (62, 91), (116, 50)],
         [(65, 131), (61, 37), (93, 25), (47, 75), (76, 67), (20, 128)]),
    ]
    # sha256 of the 34 truths then the 20 bad pixels as little-endian int64
    PINNED_TRAINING = ["2dc5ba571be8fd79", "95ebb662187f9aef",
                       "7e847238f943786d", "25ea6ed1c1ff7b52"]

    def test_pinned_truths_and_bad_pixels(self):
        configs = dg.benchmark_scene_configs(8, 2000)[:4]
        assert [c.clutter_kind for c in configs] == list(dg.CLUTTER_KINDS)
        for cfg, (truths, bad) in zip(configs, self.PINNED_BENCHMARK):
            scene = dg.synth_scene(cfg)
            assert (scene.truths, scene.bad_pixels) == (truths, bad)
        configs = dg.standard_training_configs(1000)[:4]
        assert [c.clutter_kind for c in configs] == list(dg.CLUTTER_KINDS)
        for cfg, digest in zip(configs, self.PINNED_TRAINING):
            scene = dg.synth_scene(cfg)
            assert (len(scene.truths), len(scene.bad_pixels)) == (34, 20)
            ints = np.array(scene.truths + scene.bad_pixels, dtype="<i8")
            assert hashlib.sha256(ints.tobytes()).hexdigest()[:16] == digest


class TestExtract:
    def test_pinned_empty_64_scene_gives_16_negatives(self):
        scene = dg.synth_scene(quiet_config(noise_sigma=1.0, rng_seed=5))
        samples = dg.extract_samples(scene)
        assert samples.dtype == dg.SAMPLE_DTYPE and samples.shape == (16,)
        assert np.all(samples["label"] == -1)
        assert np.all(samples["flags"] == 1)

    @pytest.mark.parametrize("truth", [(8, 30), (30, 55), (63, 63)])
    def test_truth_at_the_border_rejected(self, truth):
        # a truth needs its whole 19x19 context inside the frame
        scene = dg.Scene(image=np.zeros((64, 64)), truths=[truth], bad_pixels=[])
        with pytest.raises(ValueError, match="too close to the border"):
            dg.extract_samples(scene)

    def test_one_positive_per_truth_centered(self):
        scene = dg.synth_scene(
            quiet_config(width=96, height=96, target_count=3, noise_sigma=1.0)
        )
        samples = dg.extract_samples(scene)
        pos = samples[samples["label"] == 1]
        assert len(pos) == 3
        assert np.all(samples["label"][:3] == 1)  # positives come first
        for ctx, (r, c) in zip(pos["context"], scene.truths):
            assert ctx[9, 9] == np.float32(scene.image[r, c])
            assert ctx.shape == (19, 19)

    def test_cores_never_overlap(self):
        scene = dg.synth_scene(
            quiet_config(width=128, height=128, target_count=6, noise_sigma=1.0,
                         clutter_kind=dg.SKY, clutter_strength=1.0)
        )
        samples = dg.extract_samples(scene)
        boxes = []
        k = 0
        for label in samples["label"]:
            if label == 1:
                r, c = scene.truths[k]
                k += 1
                boxes.append((r - 7, c - 7))
            else:
                pass  # negative tile positions checked via the invariant below
        # reconstruct negative boxes from the tiling rule and test overlap
        neg_boxes = []
        for r0 in range(2, 128 - 2 - 15 + 1, 15):
            for c0 in range(2, 128 - 2 - 15 + 1, 15):
                if any(abs(r0 + 7 - tr) <= 14 and abs(c0 + 7 - tc) <= 14
                       for tr, tc in scene.truths):
                    continue
                neg_boxes.append((r0, c0))
        assert len(neg_boxes) == np.count_nonzero(samples["label"] == -1)
        all_boxes = boxes + neg_boxes
        for i, (r1, c1) in enumerate(all_boxes):
            for r2, c2 in all_boxes[i + 1 :]:
                assert abs(r1 - r2) >= 15 or abs(c1 - c2) >= 15

    @pytest.mark.parametrize("kind", dg.CLUTTER_KINDS)
    def test_matches_naive_extract(self, kind):
        scene = dg.synth_scene(dg.SceneConfig(
            width=112, height=97, clutter_kind=kind, target_count=4,
            bad_pixel_rate=1e-3, rng_seed=60))
        samples = dg.extract_samples(scene)
        labels, contexts = oracles.naive_extract(scene.image, scene.truths)
        assert samples.dtype == dg.SAMPLE_DTYPE
        assert samples["label"].tolist() == labels
        assert np.all(samples["flags"] == 1)
        assert samples["context"].tobytes() == np.array(contexts).tobytes()


class TestAugment:
    def make_positive(self):
        """A one-sample set: the positive of a lone noise-free target."""
        scene = dg.synth_scene(quiet_config(target_count=1, noise_sigma=0.0))
        samples = dg.extract_samples(scene)
        return samples[samples["label"] == 1][:1]

    def test_positive_yields_exactly_64(self):
        patches, labels = dg.augmented_arrays(self.make_positive())
        assert patches.shape == (64, 15, 15)
        assert np.all(labels == 1.0)

    def test_shift_set_has_16_without_identity(self):
        assert len(dg.SHIFTS) == 16
        assert (0, 0) not in dg.SHIFTS

    def test_shifted_core_validation(self):
        with pytest.raises(ValueError, match="context must be 19x19"):
            dg.shifted_core(np.zeros((15, 15)), 0, 0)
        for dr, dc, name, bad in ((3, 0, "dr", 3), (0, -3, "dc", -3)):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer in \[-2, 2\], "
                                                 rf"got {bad}$"):
                dg.shifted_core(np.zeros((19, 19)), dr, dc)

    def test_rotation_shift_group_identity(self):
        rng = np.random.default_rng(30)
        ctx = rng.normal(size=(19, 19))
        left = np.rot90(dg.shifted_core(ctx, 1, 0), 2)
        right = dg.shifted_core(np.rot90(ctx, 2), -1, 0)
        assert np.array_equal(left, right)

    def test_noise_free_peaks_stay_near_center(self):
        for core in dg.augmented_arrays(self.make_positive())[0]:
            r, c = np.unravel_index(np.argmax(core), core.shape)
            assert abs(r - 7) <= 2 and abs(c - 7) <= 2

    def test_energy_centroid_within_2_5_px(self):
        # per-axis bound: a diagonal +/-2 shift alone moves an ideal point
        # target 2 px on each axis, so the Euclidean distance can reach 2.83
        for core in dg.augmented_arrays(self.make_positive())[0]:
            w = core - core.min()
            total = w.sum()
            rows, cols = np.mgrid[0:15, 0:15]
            cr = (w * rows).sum() / total
            cc = (w * cols).sum() / total
            assert max(abs(cr - 7.0), abs(cc - 7.0)) <= 2.5

    def test_negative_yields_exactly_4(self):
        scene = dg.synth_scene(quiet_config(noise_sigma=2.0, rng_seed=8))
        neg = dg.extract_samples(scene)[:1]
        out, labels = dg.augmented_arrays(neg)
        assert out.shape == (4, 15, 15)
        assert np.all(labels == -1.0)
        # identity rotation keeps the core; every rotation keeps the multiset
        core = dg.shifted_core(neg["context"][0], 0, 0)
        assert np.array_equal(out[0], core)
        base = np.sort(core.ravel())
        for core in out:
            assert np.array_equal(np.sort(core.ravel()), base)

    def test_label_guards(self):
        scene = dg.synth_scene(quiet_config(target_count=1, noise_sigma=1.0))
        samples = dg.extract_samples(scene)
        pos = samples[samples["label"] == 1][:1]
        neg = samples[samples["label"] == -1][:1]
        unlabeled = pos.copy()
        unlabeled["label"] = 0
        with pytest.raises(ValueError, match="record 0: bad label"):
            dg.augmented_arrays(unlabeled)
        # a positive's shifts read its margin; a negative's rotations do not
        clipped = pos.copy()
        clipped["flags"] = 0
        with pytest.raises(ValueError, match="margin"):
            dg.augmented_arrays(np.concatenate([neg, clipped]))
        neg["flags"] = 0
        assert dg.augmented_arrays(neg)[0].shape == (4, 15, 15)
        with pytest.raises(TypeError, match="1-D SAMPLE_DTYPE array"):
            dg.augmented_arrays(list(neg))
        with pytest.raises(TypeError, match="1-D SAMPLE_DTYPE array"):
            dg.augmented_arrays(neg.reshape(1, 1))


def cluster_sample(kind, rng):
    if kind == 0:
        core = np.tile(np.linspace(0.0, 30.0, 15)[:, None], (1, 15))
    elif kind == 1:
        core = 10.0 * ((np.arange(15)[:, None] + np.arange(15)[None, :]) % 2)
    else:
        yy, xx = np.mgrid[0:15, 0:15] - 7.0
        core = 25.0 * np.exp(-(yy**2 + xx**2) / 8.0)
    core = core + rng.normal(scale=1e-3, size=(15, 15))
    ctx = np.zeros((19, 19), dtype=np.float32)
    ctx[2:17, 2:17] = core
    return ctx


def negatives_of(contexts):
    """A negative sample set with full margins from 19x19 contexts."""
    samples = np.empty(len(contexts), dtype=dg.SAMPLE_DTYPE)
    samples["label"] = -1
    samples["flags"] = 1
    samples["context"] = np.reshape(contexts, (-1, 19, 19))
    return samples


def tagged(samples):
    """A copy whose records carry their index in the context's corner
    pixel.  The corner lies in the margin, which subsampling never reads,
    so the picks are the same and say which records they are."""
    samples = samples.copy()
    samples["context"][:, 0, 0] = np.arange(len(samples))
    return samples


def tags(samples):
    return samples["context"][:, 0, 0].astype(int).tolist()


def flat_cores(samples):
    return int(np.count_nonzero(
        np.ptp(samples["context"][:, 2:17, 2:17], axis=(1, 2)) < 1e-6))


def distinct_pool(size, flat_count, seed):
    """``size`` negatives in shuffled order: ``flat_count`` flat cores, the
    rest cluster_sample patches with noise of a random scale added, so no
    two of them are NCC-identical."""
    rng = np.random.default_rng(seed)
    ctxs = []
    for _ in range(size - flat_count):
        ctx = cluster_sample(int(rng.integers(3)), rng)
        noise = rng.normal(scale=rng.uniform(0.01, 5.0), size=(19, 19))
        ctxs.append(ctx + noise)
    ctxs += [np.full((19, 19), v) for v in rng.uniform(0.0, 100.0, size=flat_count)]
    return negatives_of(ctxs)[rng.permutation(size)]


def quadrupole_pool(size, seed):
    """``size`` negatives whose cores are flat but for +4 at two of the 25
    central pixels and -4 at two others, repeats included.  Their features
    are exactly +-0.5 or 0, so every NCC distance is a multiple of 0.25
    computed without rounding: ties are exact, as are duplicates."""
    rng = np.random.default_rng(seed)
    ctxs = []
    for _ in range(size):
        ctx = np.full((19, 19), 1000.0, dtype=np.float32)
        pix = rng.choice(25, size=4, replace=False)
        rows, cols = 7 + pix // 5, 7 + pix % 5
        ctx[rows[:2], cols[:2]] += 4.0
        ctx[rows[2:], cols[2:]] -= 4.0
        ctxs.append(ctx)
    return negatives_of(ctxs)


def oracle_picks(negs, budget, seed):
    """Indices into ``negs`` of the farthest-point oracle's picks, over the
    pool subsample_negatives builds: the normalizable cores plus the first
    flat one as a zero feature row, in input order."""
    cores = np.array(negs["context"][:, 2:17, 2:17], dtype=float).reshape(len(negs), -1)
    feats, valid = pm.normalize_rows(cores, pm.NORM_STD)
    pool = sorted(np.flatnonzero(valid).tolist() + np.flatnonzero(~valid)[:1].tolist())
    start = int(np.random.default_rng(seed).integers(len(pool)))
    return [pool[i] for i in oracles.farthest_point_order(feats[pool], start, budget)]


def assert_matches_oracle(negs, pool_size, seed_offset=0):
    """subsample_negatives picks what the oracle picks, sample for sample, at
    budgets of 1, around one fold, several folds and pool_size - 1."""
    negs = tagged(negs)
    fold = dg._FOLD
    wanted = {1, fold - 1, fold, fold + 1, 3 * fold + 2, pool_size - 1}
    for budget in sorted(b for b in wanted if 1 <= b < pool_size):
        seed = budget + seed_offset
        picked = dg.subsample_negatives(negs, budget, seed=seed)
        assert tags(picked) == oracle_picks(negs, budget, seed)


# picks per fold (dg._FOLD) by rows per fold product block (dg._FOLD_ROWS),
# None for the default; every pool below fits in one default block, so
# blocks of 1 and 7 rows are what runs the blocked fold's edges
FOLD_AND_ROWS = [
    pytest.param(fold, rows, id=str(fold) if rows is None else f"{fold}-rows{rows}")
    for rows in (None, 1, 7) for fold in (1, 2, 7, None)
]


def patch_fold(monkeypatch, fold, rows):
    if fold is not None:
        monkeypatch.setattr(dg, "_FOLD", fold)
    if rows is not None:
        monkeypatch.setattr(dg, "_FOLD_ROWS", rows)


class TestSubsample:
    def test_budget_equals_count_is_identity(self):
        rng = np.random.default_rng(40)
        negs = negatives_of([cluster_sample(i % 3, rng) for i in range(6)])
        assert dg.subsample_negatives(negs, 6, seed=1).tobytes() == negs.tobytes()

    def test_duplicates_collapse(self):
        rng = np.random.default_rng(41)
        a = cluster_sample(0, rng)
        picked = dg.subsample_negatives(negatives_of([a, a.copy()]), 1, seed=2)
        assert len(picked) == 1

    def test_three_clusters_budget_three_covers_all(self):
        rng = np.random.default_rng(42)
        kinds = [i % 3 for i in range(15)]
        negs = tagged(negatives_of([cluster_sample(kind, rng) for kind in kinds]))
        for seed in range(5):
            picked = dg.subsample_negatives(negs, 3, seed=seed)
            picked_kinds = {kinds[i] for i in tags(picked)}
            assert picked_kinds == {0, 1, 2}

    def test_flat_bucket_single_representative(self):
        rng = np.random.default_rng(43)
        flats = [np.full((19, 19), v) for v in (5.0, 5.0, 6.0, 7.0, 8.0)]
        textured = [cluster_sample(i, rng) for i in range(3)]
        picked = dg.subsample_negatives(negatives_of(flats + textured), 4, seed=3)
        assert flat_cores(picked) == 1
        assert len(picked) == 4

    def test_flat_padding_when_pool_short(self):
        rng = np.random.default_rng(44)
        flats = [np.full((19, 19), v) for v in (1.0, 2.0, 3.0, 4.0)]
        textured = [cluster_sample(i, rng) for i in range(2)]
        picked = dg.subsample_negatives(negatives_of(flats + textured), 5, seed=4)
        assert len(picked) == 5
        assert flat_cores(picked) == 3  # the representative plus two padded drops

    @pytest.mark.parametrize("fold, rows", FOLD_AND_ROWS)
    @pytest.mark.parametrize("size, flat_count", [(3, 0), (40, 3), (150, 0), (600, 6)])
    def test_matches_farthest_point_oracle(self, monkeypatch, fold, rows, size, flat_count):
        patch_fold(monkeypatch, fold, rows)
        negs = distinct_pool(size, flat_count, seed=size + flat_count)
        assert_matches_oracle(negs, size - max(flat_count - 1, 0), seed_offset=size)

    @pytest.mark.parametrize("fold, rows", FOLD_AND_ROWS)
    def test_exact_ties_break_toward_lower_index(self, monkeypatch, fold, rows):
        patch_fold(monkeypatch, fold, rows)
        negs = quadrupole_pool(300, seed=46)
        assert_matches_oracle(negs, len(negs))

    def test_matches_oracle_on_scene_negatives(self):
        scenes = [dg.synth_scene(c) for c in dg.training_scene_configs(scene_count=8)]
        _, negs = dg.collect_samples(scenes)
        assert_matches_oracle(negs, len(negs))

    def test_validation(self):
        rng = np.random.default_rng(45)
        negs = negatives_of([cluster_sample(0, rng)])
        with pytest.raises(ValueError):
            dg.subsample_negatives(np.empty(0, dg.SAMPLE_DTYPE), 1)
        with pytest.raises(ValueError):
            dg.subsample_negatives(negs, 0)
        with pytest.raises(ValueError):
            dg.subsample_negatives(negs, 2)
        pos = negatives_of([np.ones((19, 19))])
        pos["label"] = 1
        with pytest.raises(ValueError):
            dg.subsample_negatives(pos, 1)
        with pytest.raises(TypeError):
            dg.subsample_negatives(list(negs), 1)
        bad = cluster_sample(1, rng)
        bad[9, 9] = np.nan
        with pytest.raises(dg.DatasetFormatError, match="record 1: non-finite context"):
            dg.subsample_negatives(np.concatenate([negs, negatives_of([bad]), negs]), 2)


class TestDatasetIO:
    def random_samples(self, rng, count=40):
        samples = np.empty(count, dtype=dg.SAMPLE_DTYPE)
        samples["label"] = np.where(np.arange(count) % 3 == 0, 1, -1)
        samples["flags"] = np.arange(count) % 2
        samples["context"] = rng.normal(size=(count, 19, 19))
        return samples

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(50)
        samples = self.random_samples(rng)
        path = tmp_path / "set.nccd"
        dg.write_dataset(samples, path)
        back = dg.read_dataset(path)
        assert back.dtype == dg.SAMPLE_DTYPE and back.shape == samples.shape
        assert back.tobytes() == samples.tobytes()
        assert back.flags.writeable
        assert path.read_bytes()[18:] == samples.tobytes()

    def test_header_bytes_pinned(self, tmp_path):
        rng = np.random.default_rng(51)
        path = tmp_path / "set.nccd"
        dg.write_dataset(self.random_samples(rng, count=3), path)
        head = path.read_bytes()[:18]
        assert head[:4] == b"NCCD"
        assert head[4:18] == (
            b"\x01\x00"          # version 1
            b"\x0f\x00"          # core 15
            b"\x13\x00"          # context 19
            b"\x03\x00\x00\x00\x00\x00\x00\x00"  # count 3
        )

    def test_corrupt_and_truncated(self, tmp_path):
        rng = np.random.default_rng(52)
        path = tmp_path / "set.nccd"
        dg.write_dataset(self.random_samples(rng, count=5), path)
        blob = path.read_bytes()

        bad = tmp_path / "bad.nccd"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(dg.DatasetFormatError, match="bad magic; not a dataset file"):
            dg.read_dataset(bad)

        bad.write_bytes(blob[:4] + b"\x02\x00" + blob[6:])
        with pytest.raises(dg.DatasetFormatError, match="unsupported dataset version 2"):
            dg.read_dataset(bad)

        bad.write_bytes(blob[:-10])
        want = 5 * dg.SAMPLE_DTYPE.itemsize
        with pytest.raises(dg.DatasetFormatError,
                           match=f"expected {want} record bytes, found {want - 10}"):
            dg.read_dataset(bad)

        bad.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(dg.DatasetFormatError,
                           match="payload larger than the declared count"):
            dg.read_dataset(bad)

        bad.write_bytes(blob[:12])
        with pytest.raises(dg.DatasetFormatError, match="header cut short"):
            dg.read_dataset(bad)

        bad.write_bytes(blob[:6] + struct.pack("<HH", 13, 19) + blob[10:])
        with pytest.raises(dg.DatasetFormatError, match="unsupported patch geometry 13/19"):
            dg.read_dataset(bad)

    def test_zero_count_header_rejected(self, tmp_path):
        # write_dataset refuses an empty set, so a count of 0 is corrupt
        path = tmp_path / "empty.nccd"
        path.write_bytes(b"NCCD" + struct.pack("<HHHQ", 1, 15, 19, 0))
        assert path.stat().st_size == 18
        with pytest.raises(dg.DatasetFormatError, match="sample_count 0"):
            dg.read_dataset(path)

    def test_bad_label_rejected(self, tmp_path):
        rng = np.random.default_rng(53)
        path = tmp_path / "set.nccd"
        dg.write_dataset(self.random_samples(rng, count=2), path)
        blob = bytearray(path.read_bytes())
        blob[18] = 3  # first record's label byte
        path.write_bytes(bytes(blob))
        with pytest.raises(dg.DatasetFormatError, match="record 0: bad label 3"):
            dg.read_dataset(path)

    @pytest.mark.parametrize("flags", [0x02, 0x03, 0xFE, 0x80])
    def test_unknown_flag_bits_rejected(self, tmp_path, flags):
        rng = np.random.default_rng(55)
        samples = self.random_samples(rng, count=2)
        path = tmp_path / "set.nccd"
        dg.write_dataset(samples, path)
        blob = bytearray(path.read_bytes())
        blob[19] = flags  # first record's flags byte
        path.write_bytes(bytes(blob))
        with pytest.raises(dg.DatasetFormatError, match="record 0: unknown flag bits"):
            dg.read_dataset(path)
        samples["flags"][1] = flags
        with pytest.raises(dg.DatasetFormatError, match="record 1: unknown flag bits"):
            dg.write_dataset(samples, tmp_path / "bad.nccd")
        assert not (tmp_path / "bad.nccd").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_context_rejected(self, tmp_path, bad):
        rng = np.random.default_rng(54)
        samples = self.random_samples(rng, count=3)
        path = tmp_path / "set.nccd"
        dg.write_dataset(samples, path)
        good = path.read_bytes()
        samples["context"][1, 4, 7] = bad
        with pytest.raises(dg.DatasetFormatError, match="record 1: non-finite"):
            dg.write_dataset(samples, tmp_path / "bad.nccd")
        assert not (tmp_path / "bad.nccd").exists()
        # the same record corrupted on disk
        blob = bytearray(good)
        offset = 18 + dg.SAMPLE_DTYPE.itemsize + 2 + 4 * (4 * 19 + 7)
        blob[offset : offset + 4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(dg.DatasetFormatError, match="record 1: non-finite"):
            dg.read_dataset(path)

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dg.write_dataset(np.empty(0, dg.SAMPLE_DTYPE), tmp_path / "empty.nccd")
        with pytest.raises(TypeError):
            dg.write_dataset([], tmp_path / "empty.nccd")
        assert not (tmp_path / "empty.nccd").exists()


class TestFramesIO:
    def test_roundtrip(self, tmp_path):
        scenes = [
            dg.synth_scene(quiet_config(target_count=2, noise_sigma=1.0,
                                        width=96, height=96)),
            dg.synth_scene(quiet_config(noise_sigma=1.0, rng_seed=9)),
        ]
        dg.write_frames(tmp_path / "frames", scenes)
        frames, truths = dg.read_frames(tmp_path / "frames")
        assert len(frames) == 2
        assert np.array_equal(frames[0], scenes[0].image)
        assert np.array_equal(frames[1], scenes[1].image)
        assert truths[0] == scenes[0].truths
        assert truths[1] == []

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dg.read_frames(tmp_path / "nope")

    def test_empty_scene_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no scenes"):
            dg.write_frames(tmp_path / "frames", [])
        assert not (tmp_path / "frames").exists()

    @pytest.mark.parametrize("stale", ["frame_0003.txt", "truths.csv"])
    def test_stale_folder_rejected(self, tmp_path, stale):
        # fewer new frames than old ones would leave stale frames behind,
        # scored against the new truths.csv
        d = tmp_path / "frames"
        d.mkdir()
        (d / stale).write_text("stale")
        scenes = [dg.synth_scene(quiet_config(noise_sigma=1.0))]
        with pytest.raises(ValueError, match=f"already holds {stale}"):
            dg.write_frames(d, scenes)
        assert [p.name for p in d.iterdir()] == [stale]
        dg.write_frames(tmp_path / "other", scenes)
        with pytest.raises(ValueError, match="already holds frame_0000.txt"):
            dg.write_frames(tmp_path / "other", scenes)

    @pytest.mark.parametrize("text, message", [
        ("frame,r,c\nframe_0000.txt,5,6\n", "truths.csv: bad header"),
        ("frame,row,col\nframe_0000.txt,5\n",
         "truths.csv: line 2: expected 3 fields, found 2"),
        ("frame,row,col\nframe_0000.txt,5,6\nframe_0000.txt,5,x\n",
         "truths.csv: line 3: invalid literal"),
        ("frame,row,col\nframe_0000.txt,1_0,2_0\n", "truths.csv: line 2: invalid literal"),
        ("frame,row,col\nframe_0000.txt,\u0661,5\n", "truths.csv: line 2: invalid literal"),
        ("frame,row,col\nframe_0000.txt,5, 6\n", "truths.csv: line 2: invalid literal"),
        ("frame,row,col\nframe_0000.txt,-40,9999\n",
         r"truths.csv: truth \(-40, 9999\) lies outside frame_0000.txt \(64x64\)"),
        ("frame,row,col\nframe_0000.txt,5,6\nframe_0000.txt,63,64\n",
         r"truths.csv: truth \(63, 64\) lies outside frame_0000.txt \(64x64\)"),
        ("frame,row,col\nframe_0001.txt,5,6\n",
         "truths.csv references unknown frame 'frame_0001.txt'"),
    ])
    def test_malformed_truths_rejected(self, tmp_path, text, message):
        scenes = [dg.synth_scene(quiet_config(target_count=1, noise_sigma=1.0))]
        dg.write_frames(tmp_path, scenes)
        (tmp_path / "truths.csv").write_text(text)
        with pytest.raises(ValueError, match=message):
            dg.read_frames(tmp_path)


class TestTrainingSetRecipe:
    def test_augmented_class_ratio_lands_at_reference_proportion(self):
        # 5 positives augmented 64x vs 123 negatives augmented 4x lands on
        # the ~260k:400k class proportion (ratio 0.65)
        pos_cfg = quiet_config(width=128, height=128, target_count=5,
                               noise_sigma=2.0, rng_seed=21)
        neg_cfg = quiet_config(width=256, height=256, noise_sigma=2.0,
                               rng_seed=22, clutter_kind=dg.SKY,
                               clutter_strength=1.0)
        samples = dg.build_training_set([pos_cfg, neg_cfg], negative_budget=123,
                                        subsample_seed=1)
        n_pos = np.count_nonzero(samples["label"] == 1)
        n_neg = len(samples) - n_pos
        assert (n_pos, n_neg) == (5, 123)
        ratio = (64.0 * n_pos) / (4.0 * n_neg)
        assert abs(ratio - 0.65) < 0.01

    def test_standard_configs_generate(self):
        configs = dg.training_scene_configs(scene_count=4, seed=5)
        assert len(configs) == 4
        assert {c.clutter_kind for c in configs} == set(dg.CLUTTER_KINDS)
        samples = dg.build_training_set(configs, negative_budget=40)
        assert samples.dtype == dg.SAMPLE_DTYPE
        assert np.count_nonzero(samples["label"] == 1) == 4 * 9
        assert np.count_nonzero(samples["label"] == -1) == 40

    def test_pinned_small_recipe_bytes(self, tmp_path):
        # the dataset file and the augmented corpus of a small recipe, as
        # recorded before sample sets became SAMPLE_DTYPE arrays (and, for
        # the corpus, while it was float64: its exact widening hashes the
        # same)
        configs = dg.training_scene_configs(scene_count=4, seed=5)
        samples = dg.build_training_set(configs, negative_budget=40)
        path = tmp_path / "small.nccd"
        dg.write_dataset(samples, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6bcd709cf5aa6d7ac54ea32cc75552e6c89904888da6f1a3725fe6ffd1abc1e5")
        patches, labels = dg.augmented_arrays(dg.read_dataset(path))
        assert patches.dtype == np.float32
        digest = hashlib.sha256(patches.astype(np.float64).tobytes())
        digest.update(labels.tobytes())
        assert digest.hexdigest() == (
            "89ded7559c7d178571c23f2c4be3302fd86c3d69d3a7a1ae23b59070c82e8fc4")

    def test_deterministic(self):
        configs = dg.training_scene_configs(scene_count=2, seed=6)
        a = dg.build_training_set(configs, negative_budget=20)
        b = dg.build_training_set(configs, negative_budget=20)
        assert len(a) == len(b)
        assert a.tobytes() == b.tobytes()

    def test_augmented_arrays_matches_oracle(self):
        configs = dg.training_scene_configs(scene_count=2, seed=7)
        samples = dg.build_training_set(configs, negative_budget=10)
        # the training set lists all positives first; interleave the labels
        samples = samples[np.random.default_rng(8).permutation(len(samples))]
        assert set(samples["label"][:4].tolist()) == {1, -1}
        patches, labels = dg.augmented_arrays(samples)
        want_p, want_l = oracles.naive_augment(samples["context"],
                                               samples["label"].tolist())
        assert patches.dtype == np.float32
        assert np.array_equal(patches, want_p)
        assert np.array_equal(labels, want_l)

    def test_empty_class_rejected(self):
        # a target-free 64x64 scene gives negatives only
        with pytest.raises(ValueError, match="scenes produced an empty class"):
            dg.build_training_set([quiet_config(noise_sigma=1.0)])

    def test_augmented_arrays_rejects_empty(self):
        with pytest.raises(ValueError):
            dg.augmented_arrays(np.empty(0, dg.SAMPLE_DTYPE))

    def test_benchmark_configs_mix(self):
        configs = dg.benchmark_scene_configs(count=12, seed=3)
        assert len(configs) == 12
        assert {c.clutter_kind for c in configs} == set(dg.CLUTTER_KINDS)
        assert all(c.bad_pixel_rate > 0 for c in configs)
        # some frames carry no target at all
        empties = [c for c in configs if c.target_count == 0]
        assert len(empties) == 2
        assert all(c.target_count in (0, 3) for c in configs)
