import io

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nccbank import filterbank as fb
from nccbank import patchmath as pm


def impulse(size):
    g = np.zeros((size, size))
    g[size // 2, size // 2] = 1.0
    return g


class TestGaussian:
    def test_center_is_max_and_symmetric(self):
        g = fb.gaussian_grid(15, 1.2)
        assert g[7, 7] == 1.0
        assert g[7, 7] == g.max()
        assert np.array_equal(np.rot90(g), g)
        assert np.array_equal(g.T, g)

    def test_narrow_beats_wide_on_impulse(self):
        s_narrow = pm.ncc_score(impulse(15), fb.gaussian_grid(15, 0.5), "std")
        s_wide = pm.ncc_score(impulse(15), fb.gaussian_grid(15, 2.0), "std")
        assert s_narrow > s_wide

    def test_huge_sigma_goes_flat(self):
        with pytest.raises(pm.DegeneratePatchError):
            pm.normalize(fb.gaussian_grid(15, 1e8), pm.NORM_STD)

    def test_validation(self):
        with pytest.raises(ValueError):
            fb.gaussian_grid(14, 1.0)
        with pytest.raises(ValueError):
            fb.gaussian_grid(15, 0.0)


class TestHat:
    def test_exactly_zero_sum(self):
        assert abs(fb.ricker_hat_grid(15).sum()) < 1e-12
        assert abs(fb.ricker_hat_grid(9, fb.HatParams(3.0, 1.0, 0.2, 0.3)).sum()) < 1e-12

    def test_lattice_exact_symmetry(self):
        hat = fb.ricker_hat_grid(15)
        assert np.array_equal(np.rot90(hat), hat)
        assert np.array_equal(hat.T, hat)

    def test_default_center_pit(self):
        hat = fb.ricker_hat_grid(15)
        c = 7
        for nb in (hat[c - 1, c], hat[c + 1, c], hat[c, c - 1], hat[c, c + 1]):
            assert hat[c, c] < nb

    def test_no_pit_means_center_peak(self):
        hat = fb.ricker_hat_grid(15, fb.HatParams(pit_depth=0.0))
        assert hat[7, 7] == hat.max()

    def test_surround_is_negative_annulus(self):
        hat = fb.ricker_hat_grid(15)
        assert hat[7, 3] < 0.0 and hat[3, 7] < 0.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            fb.HatParams(support_halfwidth=-1.0)
        with pytest.raises(ValueError):
            fb.HatParams(pit_radius=0.0)
        with pytest.raises(ValueError, match=r"ricker_sigma must be finite and > 0, got 0\.0"):
            fb.HatParams(ricker_sigma=0.0)
        with pytest.raises(ValueError, match="pit_depth must be finite and >= 0, got -0.1"):
            fb.HatParams(pit_depth=-0.1)
        # a NaN sigma would build an all-NaN hat
        for field in ("support_halfwidth", "ricker_sigma", "pit_depth", "pit_radius"):
            for bad in (np.nan, np.inf, "1.0", None, True):
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    fb.HatParams(**{field: bad})
        with pytest.raises(ValueError):
            fb.ricker_hat_grid(8)


class TestFitHat:
    def test_self_recovery(self):
        # the default hat re-expressed with sigma pinned to 1 is
        # (support 3.5, pit_depth 0.5, pit_radius 0.25)
        params, sim = fb.fit_hat(fb.ricker_hat_grid(15))
        assert sim > 0.999
        assert abs(params.support_halfwidth - 3.5) < 0.05
        assert abs(params.pit_depth - 0.5) < 0.05
        assert abs(params.pit_radius - 0.25) < 0.05

    def test_gaussian_wants_no_pit(self):
        params, sim = fb.fit_hat(fb.gaussian_grid(15, 1.2))
        assert params.pit_depth < 0.05
        assert sim > 0.8

    def test_flat_target_rejected(self):
        with pytest.raises(pm.DegeneratePatchError):
            fb.fit_hat(np.full((15, 15), 2.0))

    @pytest.mark.parametrize("shape", [(15, 13), (14, 14)])
    def test_non_square_or_even_target_rejected(self, shape):
        with pytest.raises(ValueError, match="target must be square with odd side"):
            fb.fit_hat(np.ones(shape))


class TestCrop:
    def test_fifteen_to_nine_is_three_px_trim(self):
        rng = np.random.default_rng(90)
        g = rng.normal(size=(15, 15))
        np.testing.assert_array_equal(fb.crop_grid(g, 9), g[3:12, 3:12])

    def test_identity_and_composition(self):
        rng = np.random.default_rng(91)
        g = rng.normal(size=(15, 15))
        np.testing.assert_array_equal(fb.crop_grid(g, 15), g)
        two_step = fb.crop_grid(fb.crop_grid(g, 7), 5)
        np.testing.assert_array_equal(two_step, fb.crop_grid(g, 5))

    def test_invalid_sizes(self):
        g = np.zeros((15, 15))
        with pytest.raises(ValueError):
            fb.crop_grid(g, 8)
        with pytest.raises(ValueError):
            fb.crop_grid(g, 17)
        with pytest.raises(ValueError, match=r"filter must be square, got \(15, 13\)"):
            fb.crop_grid(np.zeros((15, 13)), 9)
        with pytest.raises(ValueError, match="^filter side must be an odd integer >= 1, got 14$"):
            fb.crop_grid(np.zeros((14, 14)), 7)


class TestQuantize:
    def test_pinned_values_q87(self):
        raw = fb.quantize_taps(np.array([[0.5, -1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(raw, [[64, -128], [127, 0]])

    def test_round_half_even(self):
        raw = fb.quantize_taps(np.array([[64.5 / 128, 65.5 / 128]]))
        np.testing.assert_array_equal(raw, [[64, 66]])

    @pytest.mark.parametrize("values, got", [
        ([[np.nan, 0.5]], "nan"), ([0.5, -np.inf], "-inf"), (np.inf, "inf"),
    ], ids=["2-D-nan", "1-D-inf", "scalar-inf"])
    def test_non_finite_values_rejected(self, values, got):
        # the cast would turn NaN into -2**31, with a numpy RuntimeWarning
        with pytest.raises(ValueError, match=f"^values must be finite, got {got}$"):
            fb.quantize_taps(values)

    def test_roundtrip_error_half_ulp(self):
        rng = np.random.default_rng(92)
        q = fb.TAP_QFORMAT
        taps = rng.uniform(-q.max_value, q.max_value, size=(15, 15))
        back = fb.dequantize_taps(fb.quantize_taps(taps, q), q)
        assert np.max(np.abs(back - taps)) <= 2.0 ** -(q.frac_bits + 1)

    def test_prescale_hits_full_range(self):
        hat = fb.ricker_hat_grid(15)
        scaled = fb.prescale_for_qformat(hat, fb.TAP_QFORMAT)
        assert np.max(np.abs(scaled)) == pytest.approx(127.0 / 128.0, abs=1e-15)
        with pytest.raises(pm.DegeneratePatchError):
            fb.prescale_for_qformat(np.zeros((5, 5)))

    def test_prepared_taps_use_full_range(self):
        raw = fb.prepare_fixed_taps(fb.ricker_hat_grid(15))
        assert np.max(np.abs(raw)) == 127

    def test_quantization_score_shift_is_small(self):
        # measure C in |score drift| <= C * 2^-frac for the prepared hat
        rng = np.random.default_rng(93)
        q = fb.TAP_QFORMAT
        hat = fb.ricker_hat_grid(15)
        ideal = fb.prescale_for_qformat(hat - hat.mean(), q)
        quant = fb.dequantize_taps(fb.quantize_taps(ideal, q), q)
        worst = 0.0
        for _ in range(100):
            p = rng.normal(loc=1000.0, scale=80.0, size=(15, 15))
            a = pm.ncc_score(p, ideal, "std")
            b = pm.ncc_score(p, quant, "std")
            worst = max(worst, abs(a - b))
        c_measured = worst / 2.0**-q.frac_bits
        assert c_measured < 10.0

    def test_qformat_validation(self):
        with pytest.raises(ValueError):
            fb.QFormat(1, 0)
        with pytest.raises(ValueError, match=r"frac_bits must be an integer in \[0, 7\], got 8"):
            fb.QFormat(8, 8)
        # float bits would fail with a TypeError inside a shift
        with pytest.raises(ValueError, match=r"total_bits must be an integer in \[2, 32\], got 8\.0"):
            fb.QFormat(8.0, 7)
        with pytest.raises(ValueError, match=r"frac_bits must be an integer in \[0, 7\], got True"):
            fb.QFormat(8, True)
        assert fb.QFormat(np.int64(8), np.int32(7)) == fb.TAP_QFORMAT
        assert fb.QFormat(8, 7).raw_min == -128
        assert fb.QFormat(16, 10).raw_max == 32767


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint32, np.uint64])
def test_tap_range_check_ignores_dtype(dtype):
    """|tap| <= 2**31 - 1 in every integer dtype: -2**31 is refused in
    int32 as in int64 (np.abs wraps it to itself in int32)."""
    info = np.iinfo(dtype)
    q = fb.QFormat(32, 0)
    for value in sorted({max(info.min, -(2**31) + 1), info.min, min(info.max, 2**31 - 1),
                         info.max, min(info.max, 2**31)}):
        taps = np.array([[value, 0], [0, 1]], dtype=dtype)
        if abs(value) > 2**31 - 1:
            with pytest.raises(ValueError, match="taps exceed 32-bit range"):
                fb._fixed_taps(taps, q)
        else:
            assert fb._fixed_taps(taps, q) is not None


class TestFixedScore:
    # hand-worked 2x2 case: patch [[10,20],[30,40]], taps (-0.5,-0.25,0.25,0.5)
    # in Q(8,7) = [[-64,-32],[32,64]]:
    #   sum 100, mean 25, devs (-15,-5,5,15), sad 40
    #   acc = 960+160+160+960 = 2240
    #   raw = trunc(2240 * 2 * 1024 / (40 * 128)) = trunc(896.0) = 896
    PATCH = np.array([[10, 20], [30, 40]], dtype=np.uint16)
    TAPS = np.array([[-64, -32], [32, 64]], dtype=np.int32)
    Q = fb.QFormat(8, 7)

    def test_pinned_exact_case(self):
        s = fb.mad_ncc_fixed_score(self.PATCH, self.TAPS, self.Q)
        assert s.raw == 896
        assert not s.degenerate and not s.saturated
        assert s.value == pytest.approx(0.875)

    def test_truncation_toward_zero(self):
        # patch [[10,20],[30,41]]: mean trunc(101/4)=25, devs (-15,-5,5,16),
        # sad 41, acc 2304, quotient 899.12... -> +899; negated taps -> -899
        # (floor division would give -900)
        patch = np.array([[10, 20], [30, 41]], dtype=np.uint16)
        pos = fb.mad_ncc_fixed_score(patch, self.TAPS, self.Q)
        neg = fb.mad_ncc_fixed_score(patch, -self.TAPS, self.Q)
        assert pos.raw == 899
        assert neg.raw == -899

    def test_flat_patch_degenerate(self):
        s = fb.mad_ncc_fixed_score(
            np.full((5, 5), 123, dtype=np.uint16),
            np.ones((5, 5), dtype=np.int32),
            self.Q,
        )
        assert s.degenerate and s.raw == 0

    def test_impulse_beats_ramp_through_quantized_hat9(self):
        hat9 = fb.crop_grid(fb.ricker_hat_grid(15), 9)
        taps = fb.prepare_fixed_taps(hat9)
        imp = np.full((9, 9), 1000, dtype=np.uint16)
        imp[4, 4] = 4000
        ramp = (1000 + 50 * np.arange(9)[None, :] + np.zeros((9, 1))).astype(np.uint16)
        s_imp = fb.mad_ncc_fixed_score(imp, taps, fb.TAP_QFORMAT)
        s_ramp = fb.mad_ncc_fixed_score(ramp, taps, fb.TAP_QFORMAT)
        assert s_imp.raw > 0
        assert s_imp.raw > s_ramp.raw

    def test_matches_float_reference(self):
        rng = np.random.default_rng(94)
        taps = fb.prepare_fixed_taps(fb.ricker_hat_grid(15))
        deq = fb.dequantize_taps(taps, fb.TAP_QFORMAT)
        for _ in range(200):
            patch = rng.integers(200, 4000, size=(15, 15)).astype(np.uint16)
            fixed = fb.mad_ncc_fixed_score(patch, taps, fb.TAP_QFORMAT)
            ref = np.sum(oracles.naive_normalize_mad(patch) * deq)
            assert abs(fixed.value - ref) <= 2.0**-5

    def test_saturation_flag(self):
        # 35x35 taps aligned with the deviation signs: float score would be
        # ~ 0.99 * 35 = 34.7, beyond the Q(16,10) ceiling of ~32
        k = 35
        patch = np.full((k, k), 100, dtype=np.uint16)
        patch[::2, ::2] = 3000
        mean = int(patch.sum()) // (k * k)
        taps = np.where(patch.astype(int) - mean >= 0, 127, -127).astype(np.int32)
        s = fb.mad_ncc_fixed_score(patch, taps, self.Q)
        assert s.saturated
        assert s.raw == fb.OUT_QFORMAT.raw_max

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fb.mad_ncc_fixed_score(self.PATCH.astype(float), self.TAPS, self.Q)
        with pytest.raises(ValueError):
            fb.mad_ncc_fixed_score(
                np.array([[70000, 1], [1, 1]], dtype=np.int64), self.TAPS, self.Q
            )
        with pytest.raises(ValueError):
            fb.mad_ncc_fixed_score(self.PATCH, self.TAPS.astype(float), self.Q)
        with pytest.raises(TypeError):
            fb.mad_ncc_fixed_score(self.PATCH, self.TAPS)
        with pytest.raises(ValueError, match="qformat is required"):
            fb.mad_ncc_fixed_score(self.PATCH, self.TAPS, None)
        with pytest.raises(ValueError, match=r"patch \(3, 3\) must match square taps"):
            fb.mad_ncc_fixed_score(np.ones((3, 3), dtype=np.uint16), self.TAPS, self.Q)


@st.composite
def fixed_cases(draw):
    """Tap Q-format, u16 frame and integer taps; each frame axis spans
    up to 13 window offsets."""
    total = draw(st.integers(2, 32))
    qformat = fb.QFormat(total, draw(st.integers(0, total - 1)))
    k = draw(st.integers(2, 9))
    shape = (draw(st.integers(k, k + 12)), draw(st.integers(k, k + 12)))
    lo = draw(st.integers(0, 0xFFFF))
    hi = draw(st.integers(lo, 0xFFFF))
    frame = draw(hnp.arrays(np.uint16, shape, elements=st.integers(lo, hi)))
    m = qformat.raw_max
    taps = draw(hnp.arrays(np.int64, (k, k), elements=st.integers(-m, m)))
    return qformat, frame, taps


class TestFixedResponse:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(case=fixed_cases())
    def test_matches_scalar_at_every_window(self, case):
        qformat, frame, taps = case
        k = taps.shape[0]
        try:
            want = [
                [fb.mad_ncc_fixed_score(frame[i : i + k, j : j + k], taps, qformat)
                 for j in range(frame.shape[1] - k + 1)]
                for i in range(frame.shape[0] - k + 1)
            ]
        except OverflowError as exc:  # the first window in raster order
            want = str(exc)
        if isinstance(want, str):
            with pytest.raises(OverflowError) as info:
                fb.mad_ncc_fixed_response(frame, taps, qformat)
            assert str(info.value) == want
            return
        raw, degenerate, saturated = fb.mad_ncc_fixed_response(frame, taps, qformat)
        np.testing.assert_array_equal(raw, [[s.raw for s in row] for row in want])
        np.testing.assert_array_equal(
            degenerate, [[s.degenerate for s in row] for row in want])
        np.testing.assert_array_equal(
            saturated, [[s.saturated for s in row] for row in want])

    def test_saturation_flags_match_scalar(self):
        # Q(16, 0) taps of up to +-40 on 3 x 3 windows: |score| can reach
        # 3 * 40, beyond Q(16, 10)'s +-32, so windows saturate both ways;
        # the flat block gives degenerate windows, never saturated ones
        rng = np.random.default_rng(7)
        frame = rng.integers(1000, 1040, size=(14, 14)).astype(np.uint16)
        frame[9:14, 0:5] = 1020
        q = fb.QFormat(16, 0)
        taps = rng.integers(-40, 41, size=(3, 3))
        raw, degenerate, saturated = fb.mad_ncc_fixed_response(frame, taps, q)
        want = [
            [fb.mad_ncc_fixed_score(frame[i : i + 3, j : j + 3], taps, q)
             for j in range(12)]
            for i in range(12)
        ]
        np.testing.assert_array_equal(raw, [[s.raw for s in row] for row in want])
        np.testing.assert_array_equal(
            degenerate, [[s.degenerate for s in row] for row in want])
        np.testing.assert_array_equal(
            saturated, [[s.saturated for s in row] for row in want])
        assert saturated.dtype == bool
        assert 0 < saturated.sum() < saturated.size and degenerate.any()
        assert not (saturated & degenerate).any()
        assert set(raw[saturated].tolist()) == {fb.OUT_QFORMAT.raw_min, fb.OUT_QFORMAT.raw_max}

    def test_bit_identical_to_scalar(self):
        rng = np.random.default_rng(95)
        frame = rng.integers(100, 5000, size=(30, 30)).astype(np.uint16)
        frame[5:14, 20:29] = 777  # one flat window somewhere in the field
        taps = fb.prepare_fixed_taps(fb.crop_grid(fb.ricker_hat_grid(15), 9))
        raw, degen, _ = fb.mad_ncc_fixed_response(frame, taps, fb.TAP_QFORMAT)
        assert raw.shape == (22, 22)
        for i in range(22):
            for j in range(22):
                s = fb.mad_ncc_fixed_score(frame[i : i + 9, j : j + 9], taps, fb.TAP_QFORMAT)
                assert raw[i, j] == s.raw, (i, j)
                assert degen[i, j] == s.degenerate, (i, j)
        assert degen[5, 20]

    @pytest.mark.parametrize(
        "shape, lo, hi, hot, error",
        [
            # Q(24, 20) taps on a full-range frame: the products overflow
            ((5, 5), 0, 0xFFFF, False, "product exceeds the 32-bit stage"),
            # an overflow is possible for these taps, but the pixels are too
            # close together for any window to reach it
            ((12, 13), 100, 300, False, None),
            # only the windows covering one hot pixel overflow
            ((12, 13), 100, 300, True, "product exceeds the 32-bit stage"),
        ],
    )
    def test_stage_overflow_matches_scalar(self, shape, lo, hi, hot, error):
        rng = np.random.default_rng(99)
        frame = rng.integers(lo, hi, size=shape).astype(np.uint16)
        if hot:
            frame[9, 10] = 60000
        q = fb.QFormat(24, 20)
        taps = fb.prepare_fixed_taps(fb.crop_grid(fb.ricker_hat_grid(15), 5), q)
        try:
            want = np.array([
                [fb.mad_ncc_fixed_score(frame[i : i + 5, j : j + 5], taps, q).raw
                 for j in range(shape[1] - 4)]
                for i in range(shape[0] - 4)
            ])
        except OverflowError as exc:
            assert str(exc) == error
            with pytest.raises(OverflowError, match=error):
                fb.mad_ncc_fixed_response(frame, taps, q)
        else:
            assert error is None
            raw, _, _ = fb.mad_ncc_fixed_response(frame, taps, q)
            np.testing.assert_array_equal(raw, want)

    @pytest.mark.parametrize("tap, error", [
        (1 << 16, "product exceeds the 32-bit stage"),
        ((1 << 16) - 1, None),
        (-(1 << 16), None),
        (-(1 << 16) - 1, "product exceeds the 32-bit stage"),
    ])
    def test_product_stage_edges(self, tap, error):
        # 43690 - 43690 // 4 == 2**15, so that pixel's product with a tap
        # of +-2**16 sits exactly on an edge of [-2**31, 2**31)
        frame = np.zeros((3, 3), dtype=np.uint16)
        frame[2, 2] = 43690
        taps = np.array([[0, 0], [0, tap]], dtype=np.int64)
        q = fb.QFormat(32, 0)
        if error:
            with pytest.raises(OverflowError, match=error):
                fb.mad_ncc_fixed_score(frame[1:, 1:], taps, q)
            with pytest.raises(OverflowError, match=error):
                fb.mad_ncc_fixed_response(frame, taps, q)
            return
        raw, degenerate, _ = fb.mad_ncc_fixed_response(frame, taps, q)
        want = fb.mad_ncc_fixed_score(frame[1:, 1:], taps, q)
        assert raw[1, 1] == want.raw and not degenerate[1, 1]
        assert degenerate.sum() == 3

    @pytest.mark.parametrize("stage", [0, 1, 3])
    def test_first_overflow_stage_matches_scalar(self, stage):
        # one wide window that overflows exactly one stage (the product
        # stage has its own tests above); both paths raise its message
        if stage == 0:
            # 257 * 257 * 0xFFFF = 4.33e9 >= 2**32
            patch = np.full((257, 257), 0xFFFF, dtype=np.uint16)
            taps, q = np.zeros((257, 257), dtype=np.int64), fb.TAP_QFORMAT
        elif stage == 1:
            # a quarter of the pixels bright: sum 2.88e9 < 2**32 <= sad 4.31e9
            patch = np.zeros((419, 419), dtype=np.uint16)
            patch.ravel()[: 419 * 419 // 4] = 0xFFFF
            taps, q = np.zeros((419, 419), dtype=np.int64), fb.TAP_QFORMAT
        else:
            # mean 1000 and deviations +-1, so every product fits 32 bits,
            # but the taps follow the signs: acc = 66049 * (2**31 - 1) >= 2**47
            patch = np.full((257, 257), 999, dtype=np.uint16)
            patch.ravel()[::2] = 1001
            taps = np.where(patch > 1000, 1, -1) * ((1 << 31) - 1)
            q = fb.QFormat(32, 0)
        message = fb._STAGE_OVERFLOWS[stage]
        with pytest.raises(OverflowError) as info:
            fb.mad_ncc_fixed_score(patch, taps, q)
        assert str(info.value) == message
        with pytest.raises(OverflowError) as info:
            fb.mad_ncc_fixed_response(patch, taps, q)
        assert str(info.value) == message

    @pytest.mark.parametrize("sign", [1, -1])
    def test_wide_window_output_does_not_wrap(self, sign):
        # k = 162 is the first side where acc * k * 1024 can leave int64:
        # half the pixels 0, half 65535, Q(18, 0) taps of +-65535 following
        # the deviation signs saturate the output without any stage overflow
        k = 162
        frame = np.zeros((k, k), dtype=np.uint16)
        frame.ravel()[: k * k // 2] = 0xFFFF
        mean = int(frame.sum()) // (k * k)
        taps = sign * np.where(frame.astype(np.int64) >= mean, 65535, -65535)
        q = fb.QFormat(18, 0)
        want = fb.mad_ncc_fixed_score(frame, taps, q)
        assert want.saturated
        assert want.raw == (fb.OUT_QFORMAT.raw_max if sign > 0 else fb.OUT_QFORMAT.raw_min)
        raw, degenerate, saturated = fb.mad_ncc_fixed_response(frame, taps, q)
        np.testing.assert_array_equal(raw, [[want.raw]])
        assert raw.dtype == np.int32 and not degenerate.any()
        assert saturated.dtype == bool and saturated.all()

    @pytest.mark.parametrize("peak, qformat, dtype", [
        # 225 * 0xFFFF * 128 < 2**31 <= 225 * 0xFFFF * 146
        (128, fb.TAP_QFORMAT, np.int32),
        (146, fb.QFormat(9, 7), np.int64),
        # large enough for an int32 sum(x * t) to wrap on a window that is
        # not flat
        (255, fb.QFormat(9, 7), np.int64),
    ])
    def test_either_side_of_the_int32_bound(self, peak, qformat, dtype):
        # 15 x 15 taps at +peak but for a negative centre row and a -peak
        # corner, over a 45 x 45 frame of 5 x 5 blocks of 0 and 65535 whose
        # bottom rows are all 65535: flat windows, and windows bright but
        # for one or a few dark blocks, at the extremes of every stage
        taps = np.full((15, 15), peak, dtype=np.int32)
        taps[7] = -(peak // 2)
        taps[0, 0] = -peak
        assert fb._stage_dtype(taps) is dtype
        bi, bj = np.ogrid[:9, :9]
        dark = ((bi * 3 + bj) % 7 == 0) & (bi < 5)
        frame = np.kron(np.where(dark, 0, 0xFFFF), np.ones((5, 5), dtype=int))
        frame = frame.astype(np.uint16)
        raw, degenerate, _ = fb.mad_ncc_fixed_response(frame, taps, qformat)
        want = [
            [fb.mad_ncc_fixed_score(frame[i : i + 15, j : j + 15], taps, qformat)
             for j in range(frame.shape[1] - 14)]
            for i in range(frame.shape[0] - 14)
        ]
        np.testing.assert_array_equal(raw, [[s.raw for s in row] for row in want])
        np.testing.assert_array_equal(
            degenerate, [[s.degenerate for s in row] for row in want])
        assert degenerate.any() and not degenerate.all()

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_trunc_div_array_matches_scalar(self, dtype):
        nums = [(1 << 62) - 1, -((1 << 62) - 1), 1, -1, 0]
        dens = [1, 2, 3, 7, 1024, (1 << 31) - 1]
        pairs = [(a, b) for a in nums for b in dens]
        num = np.array([a for a, _ in pairs], dtype=dtype)
        den = np.array([b for _, b in pairs], dtype=dtype)
        got = fb._trunc_div_array(num, den)
        assert got.dtype == num.dtype
        assert got.tolist() == [fb._trunc_div_int(a, b) for a, b in pairs]

    def test_all_flat_frame(self):
        taps = fb.prepare_fixed_taps(fb.ricker_hat_grid(15))
        raw, degen, saturated = fb.mad_ncc_fixed_response(
            np.full((20, 20), 42, dtype=np.uint16), taps, fb.TAP_QFORMAT
        )
        assert degen.all() and not saturated.any()
        assert np.all(raw == 0)

    def test_validation(self):
        taps = fb.prepare_fixed_taps(fb.ricker_hat_grid(9))
        with pytest.raises(ValueError):
            fb.mad_ncc_fixed_response(np.zeros((20, 20)), taps, fb.TAP_QFORMAT)
        with pytest.raises(ValueError):
            fb.mad_ncc_fixed_response(
                np.zeros((5, 5), dtype=np.uint16), taps, fb.TAP_QFORMAT
            )


class TestOpCount:
    def test_pinned_table(self):
        windows = (256 - 15 + 1) ** 2  # every valid window is scored
        assert windows == 58564
        assert fb.op_count("mad-ratio", 256, 15) == fb.OpCount(
            windows, 478 * windows, 2 * windows, 0)
        assert fb.op_count("ncc-std", 256, 15) == fb.OpCount(
            227 * windows + 256 * 256, 282 * windows, 2 * windows, windows)
        assert fb.op_count("ncc-mad", 256, 15) == fb.OpCount(
            227 * windows, 702 * windows, 2 * windows, 0)
        assert fb.op_count("unnorm-corr", 256, 15) == fb.OpCount(
            225 * windows, 224 * windows, 0, 0)

    def test_spec_examples(self):
        assert fb.op_count("ncc-mad", 512, 15).square_roots == 0
        assert fb.op_count("ncc-std", 512, 15).square_roots == 498 * 498
        assert fb.op_count("unnorm-corr", 512, 15).divisions == 0
        # the SAD alone is 225 absolute differences per window
        assert fb.op_count("ncc-mad", 256, 15).additions >= 225 * 58564

    def test_edge_sizes(self):
        # f = N scores one window; f = 1 has no box-sum additions
        assert fb.op_count("ncc-std", 15, 15) == fb.OpCount(227 + 225, 282, 2, 1)
        assert fb.op_count("unnorm-corr", 8, 1) == fb.OpCount(64, 0, 0, 0)
        assert fb.op_count("mad-ratio", 8, 1) == fb.OpCount(64, 128, 128, 0)
        with pytest.raises(ValueError, match=r"^filter_side must be an integer in \[1, 10\], got 15$"):
            fb.op_count("ncc-std", 10, 15)
        with pytest.raises(ValueError, match="image_side must be an integer >= 1, got 0"):
            fb.op_count("ncc-std", 0, 1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fb.op_count("ipi", 256, 15)


class TestQuantizedFilterIO:
    def test_roundtrip(self, tmp_path):
        taps = fb.prepare_fixed_taps(fb.ricker_hat_grid(9))
        path = tmp_path / "hat9.qf"
        fb.save_quantized_filter(path, taps, fb.TAP_QFORMAT)
        back, q = fb.load_quantized_filter(path)
        assert q == fb.TAP_QFORMAT
        np.testing.assert_array_equal(back, taps)

    def test_stream_roundtrip(self):
        taps = np.array([[1, -2], [3, -4]], dtype=np.int32)
        buf = io.StringIO()
        fb.save_quantized_filter(buf, taps, fb.QFormat(4, 2))
        buf.seek(0)
        back, q = fb.load_quantized_filter(buf)
        assert q == fb.QFormat(4, 2)
        np.testing.assert_array_equal(back, taps)

    def test_golden_text(self):
        # save_quantized_filter's exact text, recorded before the grid
        # block was shared
        golden = "qfilter 1\nqformat 8 7\n3 3\n-128 5 127\n0 -1 64\n3 -7 0\n"
        taps = np.array([[-128, 5, 127], [0, -1, 64], [3, -7, 0]], dtype=np.int32)
        buf = io.StringIO()
        fb.save_quantized_filter(buf, taps, fb.TAP_QFORMAT)
        assert buf.getvalue() == golden
        back, q = fb.load_quantized_filter(io.StringIO(golden))
        assert q == fb.TAP_QFORMAT
        assert back.dtype == np.int32
        np.testing.assert_array_equal(back, taps)

    MALFORMED = [
        ("", "not a version-1 quantized filter file"),
        ("qfilter 2\nqformat 8 7\n1 1\n5\n", "not a version-1"),
        ("qfilter 1\nqformat 8\n1 1\n5\n", "bad qformat line"),
        ("qfilter 1\nqformat 8 7\n2 1\n5\n", "expected 2 data lines, found 1"),
        ("qfilter 1\nqformat 8 7\n1 1\n500\n", "exceed the declared Q-format"),
        ("qfilter 1\nqformat 8 7\n1 2\n5\n", "row 0: expected 2 values, found 1"),
        ("qfilter 1\nqformat 8 x\n1 1\n5\n", "bad qformat line"),
        ("qfilter 1\nqformat 8.0 7\n1 1\n5\n", "bad qformat line"),
        ("qfilter 1\nqformat 40 7\n1 1\n5\n", r"total_bits must be an integer in \[2, 32\], got 40"),
        ("qfilter 1\nqformat 8 7\n1 x\n5\n", "bad grid header: '1 x'"),
        ("qfilter 1\nqformat 8 7\n1 1 1\n5\n", "bad grid header: '1 1 1'"),
        ("qfilter 1\nqformat 8 7\n3 4\n1 2 3 4\n1 2 3 4\n1 2 3 4\n",
         "must be square, got 3x4"),
        ("qfilter 1\nqformat 8 7\n2 2\n5 5\n", "expected 2 data lines, found 1"),
        ("qfilter 1\nqformat 8 7\n2 2\n5 5\n5\n", "row 1: expected 2 values, found 1"),
        ("qfilter 1\nqformat 8 7\n1 1\n5\n5\n", "expected 1 data lines, found 2"),
        ("qfilter 1\nqformat 8 7\n1 1\nx\n", "row 0: unparseable value"),
        ("qfilter 1\nqformat 8 7\n1 1\n5.0\n", "row 0: unparseable value"),
        ("qfilter 1\nqformat 8 7\n1 1\n1_27\n", "row 0: unparseable value"),
        ("qfilter 1\nqformat 8 7\n1 1\n+5\n", "row 0: unparseable value"),
        ("qfilter 1\nqformat 8 7\n1 1\n\u0665\n", "row 0: unparseable value"),
        ("qfilter 1\nqformat 8 7_0\n1 1\n5\n", "bad qformat line"),
        ("qfilter 1\nqformat 8 7\n1 1\n99999999999999999999\n",
         "exceed the declared Q-format"),
    ]

    @pytest.mark.parametrize("text, message", MALFORMED,
                             ids=[text for text, _ in MALFORMED])
    def test_malformed_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            fb.load_quantized_filter(io.StringIO(text))

    def test_save_validation(self):
        with pytest.raises(ValueError):
            fb.save_quantized_filter(io.StringIO(), np.zeros((2, 2)), fb.TAP_QFORMAT)

    @pytest.mark.parametrize("taps, message", [
        (np.ones((3, 4), dtype=np.int32), "taps must be square"),
        (np.array([[500]]), "exceed the declared Q-format"),
        (np.array([[-129, 0], [0, 0]]), "exceed the declared Q-format"),
    ], ids=["3x4", "tap-500", "tap-minus-129"])
    def test_save_refuses_what_load_refuses(self, tmp_path, taps, message):
        # each array raises before anything is written, to a path or a stream
        path, buf = tmp_path / "q.qf", io.StringIO()
        for dest in (path, buf):
            with pytest.raises(ValueError, match=message):
                fb.save_quantized_filter(dest, taps, fb.TAP_QFORMAT)
        assert not path.exists() and buf.getvalue() == ""
        # prepared taps with both ends of the range are written and read back
        for q in (fb.TAP_QFORMAT, fb.QFormat(12, 10)):
            taps = fb.prepare_fixed_taps(fb.ricker_hat_grid(7), q)
            taps[0, :2] = q.raw_min, q.raw_max
            buf = io.StringIO()
            fb.save_quantized_filter(buf, taps, q)
            buf.seek(0)
            back, back_q = fb.load_quantized_filter(buf)
            assert back_q == q
            np.testing.assert_array_equal(back, taps)
