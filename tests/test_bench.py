import numpy as np
import pytest

import oracles
from nccbank import bench as bn
from nccbank import filterbank as fb
from nccbank import gridio
from nccbank import irdatagen as dg
from nccbank import nccnet as nn
from nccbank import patchmath as pm


class IdentityScorer:
    """Window-1 scorer: the response map is the frame itself."""

    name = "identity"
    window = 1

    def __call__(self, frame):
        return np.asarray(frame, dtype=float)


def textured_frame(h, w, seed):
    rng = np.random.default_rng(seed)
    base = 1000.0 + 20.0 * rng.standard_normal((h, w))
    return base


# ---------------------------------------------------------------------------
# scorers


class TestNccFilterScorer:
    def test_matches_patch_scores_exhaustively(self, monkeypatch):
        monkeypatch.setattr(pm, "_CHUNK_ROWS", 5)
        frame = textured_frame(24, 22, seed=0)
        filt = fb.gaussian_grid(7, 1.0)
        for mode in (pm.NORM_STD, pm.NORM_MAD):
            scorer = bn.NccFilterScorer(filt, mode)
            resp = scorer(frame)
            assert resp.shape == (18, 16)
            for i in range(18):
                for j in range(16):
                    want = pm.ncc_score(frame[i : i + 7, j : j + 7], filt, mode)
                    assert resp[i, j] == pytest.approx(want, abs=1e-12)

    def test_none_mode_is_plain_correlation(self):
        frame = textured_frame(12, 12, seed=1)
        filt = np.arange(9.0).reshape(3, 3)
        resp = bn.NccFilterScorer(filt, pm.NORM_NONE)(frame)
        want = oracles.naive_correlate_valid(frame, filt)
        assert np.allclose(resp, want, atol=1e-9)

    def test_degenerate_windows_score_zero(self):
        frame = np.full((10, 10), 7.0)
        frame[0, 0] = 9.0
        resp = bn.NccFilterScorer(fb.gaussian_grid(5, 1.0), pm.NORM_STD)(frame)
        # windows not touching the corner are flat -> 0
        assert resp[5, 5] == 0.0
        assert resp[0, 0] != 0.0

    def test_frame_too_small(self):
        with pytest.raises(ValueError):
            bn.NccFilterScorer(fb.gaussian_grid(15, 1.2))(np.ones((10, 40)))

    def test_non_square_filter_rejected(self):
        with pytest.raises(ValueError, match="filter must be square"):
            bn.NccFilterScorer(np.arange(15.0).reshape(5, 3))


class TestMadRatioScorer:
    def test_matches_direct_window_math(self, monkeypatch):
        monkeypatch.setattr(pm, "_CHUNK_ROWS", 3)
        frame = textured_frame(20, 21, seed=2)
        scorer = bn.MadRatioScorer(window=5)
        resp = scorer(frame)
        assert resp.shape == (16, 17)
        for i in range(16):
            for j in range(17):
                win = frame[i : i + 5, j : j + 5]
                mu = win.mean()
                mad = np.mean(np.abs(win - mu))
                want = abs(win[2, 2] - mu) / mad
                assert resp[i, j] == pytest.approx(want, rel=1e-12)

    def test_flat_windows_score_zero(self):
        resp = bn.MadRatioScorer(window=5)(np.full((9, 9), 3.0))
        assert np.all(resp == 0.0)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            bn.MadRatioScorer(window=4)


class TestFixedMadScorer:
    def test_matches_scalar_fixed_scores(self):
        rng = np.random.default_rng(3)
        frame = rng.integers(900, 1100, size=(14, 13)).astype(np.uint16)
        raw = fb.prepare_fixed_taps(fb.ricker_hat_grid(15)[3:8, 3:8])
        scorer = bn.FixedMadScorer(raw)
        resp = scorer(frame)
        for i in range(resp.shape[0]):
            for j in range(resp.shape[1]):
                want = fb.mad_ncc_fixed_score(frame[i : i + 5, j : j + 5], raw,
                                              qformat=fb.TAP_QFORMAT)
                assert resp[i, j] == want.value

    def test_float_frames_are_rounded_to_u16(self):
        # scoring the float frame equals scoring its rounded u16 version
        frame = textured_frame(12, 12, seed=4)
        raw = fb.prepare_fixed_taps(fb.gaussian_grid(5, 1.0) - 0.3)
        scorer = bn.FixedMadScorer(raw)
        assert np.array_equal(scorer(frame), scorer(bn.frame_to_u16(frame)))


class TestFrameToU16:
    def test_pinned_rounding_and_clamping(self):
        frame = np.array([[0.4, 0.5, 1.5, -3.0], [65535.4, 65536.0, 2.5, 7.0]])
        out = bn.frame_to_u16(frame)
        assert out.dtype == np.uint16
        # np.rint rounds half to even: 0.5 -> 0, 1.5 -> 2, 2.5 -> 2
        assert out.tolist() == [[0, 0, 2, 0], [65535, 65535, 2, 7]]


class TestNetworkScorer:
    def test_matches_single_forward(self, monkeypatch):
        monkeypatch.setattr(pm, "_CHUNK_ROWS", 4)
        rng = np.random.default_rng(5)
        net = nn.init_network(num_filters=2, filter_size=5, norm_mode=pm.NORM_STD,
                              seed=7)
        frame = textured_frame(16, 15, seed=6)
        resp = bn.NetworkScorer(net)(frame)
        assert resp.shape == (12, 11)
        for i in range(12):
            for j in range(11):
                want = nn.forward(net, frame[i : i + 5, j : j + 5])
                assert resp[i, j] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("mode", [pm.NORM_MAD, pm.NORM_NONE])
    def test_mad_and_none_modes_match_single_forward(self, monkeypatch, mode):
        monkeypatch.setattr(pm, "_CHUNK_ROWS", 4)
        net = nn.init_network(num_filters=3, filter_size=5, norm_mode=mode, seed=8)
        net.weights = np.array([0.7, -0.4, 1.1])
        frame = textured_frame(17, 15, seed=9) / 100.0
        frame[:7, :8] = 4.0  # flat windows in the first chunk
        resp = bn.NetworkScorer(net)(frame)
        assert resp.shape == (13, 11)
        flat = 0
        for i in range(13):
            for j in range(11):
                try:
                    want = nn.forward(net, frame[i : i + 5, j : j + 5])
                except pm.DegeneratePatchError:
                    flat += 1
                    want = 0.0
                assert resp[i, j] == pytest.approx(want, abs=1e-12)
        assert flat == (0 if mode == pm.NORM_NONE else 12)

    def test_flat_filter_rejected_when_resolved(self, tmp_path):
        net = nn.init_network(num_filters=3, filter_size=5, seed=1)
        net.filters[1] = 0.25
        nn.save_network(net, tmp_path / "flat.nccnet")
        with pytest.raises(pm.DegeneratePatchError, match="filter 1 is flat"):
            bn.resolve_method(f"net:{tmp_path / 'flat.nccnet'}")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "make_scorer",
    [
        lambda: bn.resolve_method("hat15-ideal"),
        lambda: bn.resolve_method("mad-ratio"),
        lambda: bn.resolve_method("hat7-fixed-mad"),
        lambda: bn.NetworkScorer(nn.init_network(num_filters=2, filter_size=5)),
    ],
    ids=["ncc", "mad-ratio", "fixed", "net"],
)
def test_non_finite_pixels_rejected(make_scorer, bad):
    frame = textured_frame(20, 20, seed=8)
    frame[10, 10] = bad
    with pytest.raises(ValueError, match="non-finite"):
        make_scorer()(frame)


# ---------------------------------------------------------------------------
# detection


class TestDetect:
    def test_single_peak(self):
        frame = np.zeros((9, 9))
        frame[4, 5] = 3.0
        dets = bn.sliding_detect(frame, IdentityScorer(), threshold=1.0)
        assert dets == [bn.Detection(4, 5, 3.0)]

    def test_threshold_is_strict(self):
        frame = np.zeros((9, 9))
        frame[4, 4] = 3.0
        assert bn.sliding_detect(frame, IdentityScorer(), threshold=3.0) == []
        assert len(bn.sliding_detect(frame, IdentityScorer(), threshold=2.999)) == 1

    def test_flat_frame_yields_nothing(self):
        assert bn.detect_candidates(np.full((12, 12), 5.0), IdentityScorer()) == []

    def test_single_window_frame_is_its_own_peak(self):
        dets = bn.detect_candidates(np.array([[2.0]]), IdentityScorer())
        assert dets == [bn.Detection(0, 0, 2.0)]

    def test_plateau_interior_is_not_a_peak(self):
        frame = np.zeros((11, 11))
        frame[3:8, 3:8] = 2.0  # 5x5 plateau: interior ties all 8 neighbors
        dets = bn.detect_candidates(frame, IdentityScorer(), nms_radius=1.0)
        # edge/corner plateau cells qualify (they beat the 0 outside) and NMS
        # thins them; the strict interior cell (5,5) never appears
        assert all((d.row, d.col) != (5, 5) for d in dets)
        assert dets  # the plateau is still detected somewhere

    def test_two_cell_tie_keeps_lexicographic_first(self):
        frame = np.zeros((9, 9))
        frame[4, 4] = frame[4, 5] = 2.0
        dets = bn.detect_candidates(frame, IdentityScorer(), nms_radius=3.0)
        assert dets == [bn.Detection(4, 4, 2.0)]

    def test_nms_radius_is_inclusive(self):
        frame = np.zeros((9, 20))
        frame[4, 5] = 3.0
        frame[4, 10] = 2.0  # distance exactly 5
        far = bn.detect_candidates(frame, IdentityScorer(), nms_radius=4.9)
        near = bn.detect_candidates(frame, IdentityScorer(), nms_radius=5.0)
        assert len(far) == 2
        assert len(near) == 1 and near[0].row == 4 and near[0].col == 5

    def test_greedy_chain_revives_third_peak(self):
        # A(3.0) suppresses B(2.0) 6 px away; C(1.0) is 12 px from A and
        # only 6 px from the *suppressed* B, so greedy NMS keeps it
        frame = np.zeros((9, 25))
        frame[4, 3] = 3.0
        frame[4, 9] = 2.0
        frame[4, 15] = 1.0
        dets = bn.detect_candidates(frame, IdentityScorer(), nms_radius=7.0)
        assert [(d.row, d.col) for d in dets] == [(4, 3), (4, 15)]

    def test_detections_sorted_by_descending_score(self):
        frame = np.zeros((30, 30))
        frame[5, 5] = 1.0
        frame[5, 25] = 3.0
        frame[25, 5] = 2.0
        dets = bn.detect_candidates(frame, IdentityScorer(), nms_radius=4.0)
        assert [d.score for d in dets] == [3.0, 2.0, 1.0]

    def test_window_center_coordinates(self):
        # a bright Gaussian blob at a known pixel -> detection exactly there
        cfg = dg.SceneConfig(width=64, height=64, clutter_kind=dg.COLLIMATOR,
                             target_count=0, noise_sigma=0.0, rng_seed=1)
        scene = dg.synth_scene(cfg)
        frame = scene.image.copy()
        rr, cc = np.mgrid[0:64, 0:64]
        frame += 80.0 * np.exp(-((rr - 31.0) ** 2 + (cc - 40.0) ** 2) / (2 * 1.2**2))
        scorer = bn.resolve_method("gauss-1.2")
        dets = bn.sliding_detect(frame, scorer, threshold=0.5)
        assert dets[0].row == 31 and dets[0].col == 40

    def test_response_border_peak_detected(self):
        frame = np.zeros((9, 9))
        frame[0, 0] = 5.0
        dets = bn.detect_candidates(frame, IdentityScorer())
        assert dets[0] == bn.Detection(0, 0, 5.0)

    def test_nan_threshold_rejected_inf_allowed(self):
        frame = np.zeros((9, 9))
        frame[4, 4] = 5.0
        scorer = IdentityScorer()
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            bn.sliding_detect(frame, scorer, float("nan"))
        assert bn.sliding_detect(frame, scorer, float("inf")) == []
        assert bn.sliding_detect(frame, scorer, -float("inf")) == [
            bn.Detection(4, 4, 5.0)
        ]

    def test_sliding_detect_equals_filtered_candidates(self):
        frame = textured_frame(40, 40, seed=8)
        scorer = bn.MadRatioScorer(window=5)
        cands = bn.detect_candidates(frame, scorer, nms_radius=3.0)
        t = np.median([d.score for d in cands])
        dets = bn.sliding_detect(frame, scorer, threshold=t, nms_radius=3.0)
        assert dets == [d for d in cands if d.score > t]


# ---------------------------------------------------------------------------
# matching


def D(r, c, s=1.0):
    return bn.Detection(r, c, s)


class TestMatchDetections:
    def test_empty_detections(self):
        m = bn.match_detections([], [(3, 3), (9, 9)])
        assert (m.true_positives, m.false_alarms, m.false_negatives) == (0, 0, 2)

    def test_exact_hits(self):
        m = bn.match_detections([D(3, 3), D(9, 9)], [(3, 3), (9, 9)])
        assert (m.true_positives, m.false_alarms, m.false_negatives) == (2, 0, 0)
        assert set(m.matches) == {(0, 0), (1, 1)}

    def test_two_detections_one_truth(self):
        m = bn.match_detections([D(5, 5), D(5, 6)], [(5, 5)])
        assert (m.true_positives, m.false_alarms, m.false_negatives) == (1, 1, 0)
        assert m.matches == ((0, 0),)

    def test_radius_is_inclusive(self):
        assert bn.match_detections([D(0, 2)], [(0, 0)]).true_positives == 1
        assert bn.match_detections([D(0, 3)], [(0, 0)]).true_positives == 0
        # non-integer radius boundary
        m = bn.match_detections([D(1, 2)], [(0, 0)], match_radius=2.2)
        assert m.true_positives == 0  # sqrt(5) ~ 2.236 > 2.2
        m = bn.match_detections([D(1, 2)], [(0, 0)], match_radius=2.24)
        assert m.true_positives == 1

    def test_ascending_distance_wins_over_detection_index(self):
        # det 0 is farther from the truth than det 1; det 1 claims it
        m = bn.match_detections([D(5, 7), D(5, 6)], [(5, 5)])
        assert m.matches == ((1, 0),)
        assert m.false_alarms == 1

    def test_distance_tie_breaks_on_detection_then_truth_index(self):
        # both dets at distance 1 from the single truth
        m = bn.match_detections([D(4, 5), D(6, 5)], [(5, 5)])
        assert m.matches == ((0, 0),)
        # one det exactly between two truths -> lower truth index
        m = bn.match_detections([D(5, 5)], [(5, 4), (5, 6)], match_radius=1.0)
        assert m.matches == ((0, 0),)

    def test_displacement_chain(self):
        # det 1 sits exactly on truth 0 and claims it first, displacing
        # det 0 onto truth 1 (distance 2, still inside the radius)
        m = bn.match_detections([D(5, 6), D(5, 5)], [(5, 5), (5, 8)])
        assert set(m.matches) == {(1, 0), (0, 1)}
        assert m.true_positives == 2

    def test_conservation_fuzz(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            dets = [
                D(int(r), int(c), float(s))
                for r, c, s in zip(
                    rng.integers(0, 20, 8), rng.integers(0, 20, 8),
                    rng.random(8),
                )
            ]
            truths = np.column_stack(
                [rng.integers(0, 20, 5), rng.integers(0, 20, 5)]
            )
            m = bn.match_detections(dets, truths, match_radius=3.0)
            assert m.true_positives + m.false_negatives == 5
            assert m.true_positives + m.false_alarms == 8
            # one-to-one
            di = [a for a, _ in m.matches]
            ti = [b for _, b in m.matches]
            assert len(set(di)) == len(di) and len(set(ti)) == len(ti)

    def test_no_truths(self):
        m = bn.match_detections([D(1, 1)], [])
        assert (m.true_positives, m.false_alarms, m.false_negatives) == (0, 1, 0)


@pytest.mark.parametrize("radius", [-2.0, -7.0, float("nan"), float("inf")])
def test_bad_radius_rejected(radius):
    # checked where each radius is used, even with nothing to suppress or match
    flat = np.zeros((6, 6))
    scorer = bn.MadRatioScorer(window=3)
    with pytest.raises(ValueError, match="nms_radius"):
        bn.detect_candidates(flat, scorer, nms_radius=radius)
    with pytest.raises(ValueError, match="nms_radius"):
        bn.sliding_detect(flat, scorer, 0.0, nms_radius=radius)
    with pytest.raises(ValueError, match="match_radius"):
        bn.match_detections([D(1, 1)], [], match_radius=radius)
    with pytest.raises(ValueError, match="match_radius"):
        bn.roc_curve([([D(1, 1)], [(1, 1)])], [0.5], match_radius=radius)
    for field in ("nms_radius", "match_radius"):
        cfg = bn.BenchConfig(include_timing=False, **{field: radius})
        with pytest.raises(ValueError, match=field):
            bn.run_benchmark([flat], [[(3, 3)]], [scorer], cfg)


# ---------------------------------------------------------------------------
# ROC


def random_scored_frames(rng, frames=4, cands=12, truths=3):
    out = []
    for _ in range(frames):
        cl = [
            D(int(r), int(c), float(s))
            for r, c, s in zip(
                rng.integers(0, 30, cands), rng.integers(0, 30, cands),
                np.round(rng.random(cands), 2),
            )
        ]
        cl.sort(key=lambda d: (-d.score, d.row, d.col))
        tr = np.column_stack(
            [rng.integers(0, 30, truths), rng.integers(0, 30, truths)]
        )
        out.append((cl, tr))
    return out


class TestRocCurve:
    def test_matches_per_threshold_matching_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            scored = random_scored_frames(rng)
            thresholds = np.linspace(1.0, 0.0, 21)
            curve = bn.roc_curve(scored, thresholds, match_radius=3.0)
            total_truths = sum(len(t) for _, t in scored)
            for k, t in enumerate(curve.thresholds):
                tp = fa = 0
                for cands, truths in scored:
                    m = bn.match_detections(
                        [d for d in cands if d.score > t], truths,
                        match_radius=3.0,
                    )
                    tp += m.true_positives
                    fa += m.false_alarms
                assert curve.hit_rates[k] == pytest.approx(tp / total_truths)
                assert curve.fa_per_frame[k] == pytest.approx(fa / len(scored))

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            scored = random_scored_frames(rng, frames=3, cands=15, truths=4)
            curve = bn.roc_curve(scored, np.linspace(1, 0, 64), match_radius=4.0)
            assert np.all(np.diff(curve.thresholds) < 0)
            assert np.all(np.diff(curve.hit_rates) >= 0)
            assert np.all(np.diff(curve.fa_per_frame) >= 0)

    def test_pinned_perfect_separation(self):
        scored = [(
            [D(10, 10, 10.0), D(3, 20, 4.0), D(20, 3, 2.0)],
            [(10, 10)],
        )]
        curve = bn.roc_curve(scored, np.linspace(10, 2, 512))
        assert curve.auc == pytest.approx(1.0)
        assert curve.hit_rates[0] == 0.0 and curve.fa_per_frame[0] == 0.0
        assert curve.hit_rates[-1] == 1.0

    def test_pinned_hopeless_detector(self):
        scored = [([D(25, 25, 5.0)], [(3, 3)])]
        curve = bn.roc_curve(scored, np.array([6.0, 4.0]))
        assert curve.hit_rates.tolist() == [0.0, 0.0]
        assert curve.fa_per_frame.tolist() == [0.0, 1.0]
        assert curve.auc == 0.0

    def test_vertical_curve_auc_is_best_hit_rate(self):
        # the only candidate sits on the truth: FA never appears
        scored = [([D(5, 5, 3.0)], [(5, 5)])]
        curve = bn.roc_curve(scored, np.array([4.0, 2.0]))
        assert np.all(curve.fa_per_frame == 0.0)
        assert curve.auc == 1.0

    def test_partial_hit_ceiling_bounds_auc(self):
        # 2 truths, only one ever found, plus a false alarm tail
        scored = [(
            [D(5, 5, 9.0), D(20, 20, 1.0)],
            [(5, 5), (10, 10)],
        )]
        curve = bn.roc_curve(scored, np.linspace(9, 1, 128))
        assert curve.auc == pytest.approx(0.5)

    def test_no_truths_raises(self):
        with pytest.raises(ValueError):
            bn.roc_curve([([D(1, 1)], [])], np.array([0.5]))
        with pytest.raises(ValueError):
            bn.roc_curve([], np.array([0.5]))

    def test_default_thresholds(self):
        scored = [([D(1, 1, 0.25), D(2, 9, 0.75)], [(1, 1)])]
        t = bn.default_thresholds(scored, count=5)
        assert t[0] == 0.75 and t[-1] == 0.25 and len(t) == 5
        assert np.all(np.diff(t) < 0)
        assert bn.default_thresholds([([], [(1, 1)])]).tolist() == [0.0]
        one = [([D(1, 1, 0.4), D(5, 5, 0.4)], [(1, 1)])]
        assert bn.default_thresholds(one).tolist() == [0.4]


# ---------------------------------------------------------------------------
# method registry


class TestResolveMethod:
    def test_builtin_windows_and_types(self):
        expect = {
            "gauss-0.5": (bn.NccFilterScorer, 15),
            "gauss-1.2": (bn.NccFilterScorer, 15),
            "gauss-2.0": (bn.NccFilterScorer, 15),
            "mad-ratio": (bn.MadRatioScorer, 15),
            "hat15-ideal": (bn.NccFilterScorer, 15),
            "hat9-ideal": (bn.NccFilterScorer, 9),
            "hat7-ideal": (bn.NccFilterScorer, 7),
            "hat9-fixed-mad": (bn.FixedMadScorer, 9),
            "hat7-fixed-mad": (bn.FixedMadScorer, 7),
            "hat5-fixed-mad": (bn.FixedMadScorer, 5),
        }
        assert set(bn.BUILTIN_METHODS) == set(expect)
        for name, (cls, window) in expect.items():
            scorer = bn.resolve_method(name)
            assert isinstance(scorer, cls)
            assert scorer.window == window
            assert scorer.name == name

    def test_ideal_methods_use_std_normalization(self):
        assert bn.resolve_method("gauss-1.2").mode == pm.NORM_STD
        assert bn.resolve_method("hat15-ideal").mode == pm.NORM_STD

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            bn.resolve_method("sobel")

    def test_file_backed_methods(self, tmp_path):
        net = nn.init_network(num_filters=1, filter_size=5,
                              norm_mode=pm.NORM_MAD, seed=3)
        nn.save_network(net, tmp_path / "net.txt")
        s = bn.resolve_method(f"net:{tmp_path / 'net.txt'}")
        assert isinstance(s, bn.NetworkScorer) and s.window == 5

        gridio.write_grid(fb.gaussian_grid(7, 2.0), tmp_path / "filt.txt")
        s = bn.resolve_method(f"filter:{tmp_path / 'filt.txt'}")
        assert isinstance(s, bn.NccFilterScorer) and s.window == 7
        assert s.mode == pm.NORM_STD

        raw = fb.prepare_fixed_taps(fb.ricker_hat_grid(9))
        fb.save_quantized_filter(tmp_path / "q.txt", raw, fb.TAP_QFORMAT)
        s = bn.resolve_method(f"qfilter:{tmp_path / 'q.txt'}")
        assert isinstance(s, bn.FixedMadScorer) and s.window == 9
        assert np.array_equal(s.raw, raw)


# ---------------------------------------------------------------------------
# benchmark driver and report files


def tiny_benchmark(seed=0, count=4):
    configs = dg.benchmark_scene_configs(count=count, seed=seed)
    configs = [
        dg.SceneConfig(
            width=72, height=72, clutter_kind=c.clutter_kind,
            clutter_strength=c.clutter_strength,
            target_count=min(c.target_count, 2), target_amplitude=70.0,
            psf_sigma=1.2, noise_sigma=4.0, bad_pixel_rate=c.bad_pixel_rate,
            rng_seed=c.rng_seed,
        )
        for c in configs
    ]
    scenes = [dg.synth_scene(c) for c in configs]
    frames = [s.image for s in scenes]
    truths = [np.array(s.truths, dtype=float).reshape(-1, 2) for s in scenes]
    return frames, truths


class TestRunBenchmark:
    def test_structure_and_ranges(self):
        frames, truths = tiny_benchmark()
        report = bn.run_benchmark(frames, truths, ["gauss-1.2", "mad-ratio"])
        assert report.frame_count == 4
        assert [r.name for r in report.results] == ["gauss-1.2", "mad-ratio"]
        for r in report.results:
            assert 0.0 <= r.curve.auc <= 1.0
            assert r.ms_per_frame > 0.0
            assert len(r.frame_candidates) == 4
        assert report.auc("gauss-1.2") == report.results[0].curve.auc
        with pytest.raises(KeyError):
            report.auc("nope")

    def test_timing_disabled(self):
        frames, truths = tiny_benchmark()
        cfg = bn.BenchConfig(include_timing=False)
        report = bn.run_benchmark(frames, truths, ["mad-ratio"], cfg)
        assert report.results[0].ms_per_frame is None

    def test_input_validation(self):
        frames, truths = tiny_benchmark()
        with pytest.raises(ValueError):
            bn.run_benchmark(frames, truths[:-1], ["mad-ratio"])
        with pytest.raises(ValueError):
            bn.run_benchmark([], [], ["mad-ratio"])

    def test_scorer_objects_accepted(self):
        frames, truths = tiny_benchmark()
        scorer = bn.NccFilterScorer(fb.gaussian_grid(9, 1.2), name="custom-9")
        report = bn.run_benchmark(frames, truths, [scorer])
        assert report.results[0].name == "custom-9"


def dir_bytes(root):
    out = {}
    import os

    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


class TestReportFiles:
    def test_deterministic_bytes_without_timing(self, tmp_path):
        frames, truths = tiny_benchmark()
        cfg = bn.BenchConfig(include_timing=False, threshold_count=64)
        a = bn.run_benchmark(frames, truths, ["gauss-1.2", "hat9-fixed-mad"], cfg)
        b = bn.run_benchmark(frames, truths, ["gauss-1.2", "hat9-fixed-mad"], cfg)
        bn.write_benchmark_report(a, tmp_path / "a")
        bn.write_benchmark_report(b, tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_csv_headers_and_timing_column(self, tmp_path):
        frames, truths = tiny_benchmark()
        cfg = bn.BenchConfig(threshold_count=16)
        report = bn.run_benchmark(frames, truths, ["mad-ratio"], cfg)
        bn.write_benchmark_report(report, tmp_path)
        roc = (tmp_path / "roc.csv").read_text().splitlines()
        assert roc[0] == "method,threshold,hit_rate,fa_per_frame"
        assert len(roc) == 1 + 16
        assert roc[1].startswith("mad-ratio,")
        auc = (tmp_path / "auc.csv").read_text().splitlines()
        assert auc[0] == "method,auc,ms_per_frame"
        assert len(auc[1].split(",")) == 3
        assert auc[1].split(",")[2] != ""  # timing on
        truths_csv = (tmp_path / "truths.csv").read_text().splitlines()
        assert truths_csv[0] == "frame,row,col"
        assert (tmp_path / "detections" / "mad-ratio.csv").exists()

    def test_resweep_reproduces_curves(self, tmp_path):
        frames, truths = tiny_benchmark()
        cfg = bn.BenchConfig(include_timing=False, threshold_count=32)
        report = bn.run_benchmark(frames, truths, ["gauss-1.2", "mad-ratio"], cfg)
        bn.write_benchmark_report(report, tmp_path / "orig")
        bn.resweep_roc(tmp_path / "orig", tmp_path / "again")
        orig = dir_bytes(tmp_path / "orig")
        again = dir_bytes(tmp_path / "again")
        assert orig == again

    def test_method_name_sanitized_for_files(self, tmp_path):
        frames, truths = tiny_benchmark()
        net = nn.init_network(num_filters=1, filter_size=9,
                              norm_mode=pm.NORM_STD, seed=0)
        nn.save_network(net, tmp_path / "n.txt")
        name = f"net:{tmp_path / 'n.txt'}"
        cfg = bn.BenchConfig(include_timing=False, threshold_count=8)
        report = bn.run_benchmark(frames, truths, [name], cfg)
        bn.write_benchmark_report(report, tmp_path / "out")
        dumps = list((tmp_path / "out" / "detections").iterdir())
        assert len(dumps) == 1
        # round-trip still finds it under the sanitized name
        per_method, truths_back, meta = bn.read_benchmark_scores(tmp_path / "out")
        assert set(per_method) == {name}
        assert len(truths_back) == 4


class TestReadBenchmarkScores:
    @pytest.fixture
    def report_dir(self, tmp_path):
        frames, truths = tiny_benchmark()
        cfg = bn.BenchConfig(include_timing=False, threshold_count=8)
        report = bn.run_benchmark(frames, truths, ["mad-ratio"], cfg)
        bn.write_benchmark_report(report, tmp_path)
        return tmp_path

    @pytest.mark.parametrize("frame", ["4", "99", "-1"])
    def test_truth_frame_out_of_range(self, report_dir, frame):
        with open(report_dir / "truths.csv", "a") as fh:
            fh.write(f"{frame},5,5\n")
        lines = len((report_dir / "truths.csv").read_text().splitlines())
        with pytest.raises(ValueError, match=(
            rf"truths.csv: line {lines}: frame {frame} outside \[0, 4\)"
        )):
            bn.read_benchmark_scores(report_dir)

    def test_detection_frame_out_of_range(self, report_dir):
        dump = report_dir / "detections" / "mad-ratio.csv"
        with open(dump, "a") as fh:
            fh.write("7,5,5,1.0\n")
        lines = len(dump.read_text().splitlines())
        with pytest.raises(ValueError, match=(
            rf"mad-ratio.csv: line {lines}: frame 7 outside \[0, 4\)"
        )):
            bn.read_benchmark_scores(report_dir)

    @pytest.mark.parametrize("key", ["frame_count", "nms_radius", "match_radius",
                                     "threshold_count"])
    def test_missing_meta_key(self, report_dir, key):
        meta = report_dir / "meta.csv"
        kept = [ln for ln in meta.read_text().splitlines() if not ln.startswith(key)]
        meta.write_text("\n".join(kept) + "\n")
        with pytest.raises(ValueError, match=f"meta.csv: missing {key}"):
            bn.read_benchmark_scores(report_dir)

    @pytest.mark.parametrize("count", ["-3", "0", "x"])
    def test_bad_frame_count(self, report_dir, count):
        meta = report_dir / "meta.csv"
        meta.write_text(meta.read_text().replace("frame_count,4", f"frame_count,{count}"))
        with pytest.raises(ValueError, match="meta.csv: frame_count must be an integer >= 1"):
            bn.read_benchmark_scores(report_dir)


# ---------------------------------------------------------------------------
# affine invariance at the detection level


class TestAffineInvariance:
    def seeded_frame(self):
        frames, truths = tiny_benchmark(seed=5, count=2)
        return frames[0], truths[0]

    def test_std_and_mad_methods_invariant(self):
        frame, _ = self.seeded_frame()
        warped = 1.7 * frame + 250.0
        for method in ("gauss-1.2", "hat15-ideal", "mad-ratio"):
            scorer = bn.resolve_method(method)
            a = bn.detect_candidates(frame, scorer)
            b = bn.detect_candidates(warped, scorer)
            assert [(d.row, d.col) for d in a] == [(d.row, d.col) for d in b]
            for da, db in zip(a, b):
                assert db.score == pytest.approx(da.score, abs=1e-9)

    def test_unnormalized_method_breaks(self):
        frame, _ = self.seeded_frame()
        warped = 1.7 * frame + 250.0
        scorer = bn.NccFilterScorer(fb.gaussian_grid(15, 1.2) - 0.2,
                                    pm.NORM_NONE, name="raw-corr")
        a = bn.detect_candidates(frame, scorer)
        b = bn.detect_candidates(warped, scorer)
        assert [d.score for d in a] != [d.score for d in b]
