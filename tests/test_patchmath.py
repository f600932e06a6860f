import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nccbank import patchmath as pm

# Hand-derived reference values for the 2x2 patch [[1, 2], [3, 4]]:
#   mean 2.5, centered [-1.5, -0.5, 0.5, 1.5]
#   sum of squares 5, std = sqrt(5/3), mad = 1
#   STD-normalized: centered / sqrt(5)
#   MAD-normalized: centered / (sqrt(4) * 1) = centered / 2
P22 = np.array([[1.0, 2.0], [3.0, 4.0]])
P22_STD = 1.2909944487358056  # sqrt(5/3)
P22_NORM_STD = np.array(
    [
        [-0.6708203932499369, -0.22360679774997896],
        [0.22360679774997896, 0.6708203932499369],
    ]
)
P22_NORM_MAD = np.array([[-0.75, -0.25], [0.25, 0.75]])


def random_patch(rng, shape=(5, 5), scale=1.0, offset=0.0):
    return rng.normal(loc=offset, scale=scale, size=shape)


def kink_free(p, tol=1e-4):
    q = p - np.mean(p)
    return np.min(np.abs(q)) > tol


class TestStats:
    """The statistics behind the normalization denominators and their
    flat-patch checks: the n - 1 std and the mean absolute deviation."""

    @staticmethod
    def stats(p, mode):
        return pm._row_stats(pm._centered(np.reshape(p, (1, -1))), mode)[1][0]

    def test_mean_std_mad_pinned(self):
        np.testing.assert_array_equal(
            pm._centered(P22.reshape(1, -1)), [[-1.5, -0.5, 0.5, 1.5]])
        assert self.stats(P22, pm.NORM_STD) == pytest.approx(P22_STD, rel=1e-15)
        assert self.stats(P22, pm.NORM_MAD) == pytest.approx(1.0, rel=1e-15)

    def test_stats_match_naive(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = random_patch(rng, shape=(4, 7), scale=3.0, offset=50.0)
            want = oracles.naive_std(p)
            assert self.stats(p, pm.NORM_STD) == pytest.approx(want, rel=1e-12)
            want = oracles.naive_mad(p)
            assert self.stats(p, pm.NORM_MAD) == pytest.approx(want, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pm.as_patch(np.zeros(3))
        with pytest.raises(ValueError):
            pm.as_patch(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            pm.as_patch(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            pm.normalize(np.array([[4.0]]), pm.NORM_STD)


class TestNormalize:
    def test_std_pinned(self):
        got = pm.normalize(P22, pm.NORM_STD)
        np.testing.assert_allclose(got, P22_NORM_STD, atol=1e-15)

    def test_mad_pinned(self):
        got = pm.normalize(P22, pm.NORM_MAD)
        np.testing.assert_allclose(got, P22_NORM_MAD, atol=1e-15)

    def test_matches_naive(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = random_patch(rng, shape=(6, 6), scale=2.0, offset=-10.0)
            np.testing.assert_allclose(
                pm.normalize(p, pm.NORM_STD), oracles.naive_normalize_std(p), atol=1e-12
            )
            np.testing.assert_allclose(
                pm.normalize(p, pm.NORM_MAD), oracles.naive_normalize_mad(p), atol=1e-12
            )

    def test_mean_zero_even_with_huge_offset(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_patch(rng, shape=(15, 15), scale=1.0, offset=1e6)
            assert abs(np.mean(pm.normalize(p, pm.NORM_STD))) < 1e-12
            assert abs(np.mean(pm.normalize(p, pm.NORM_MAD))) < 1e-12

    def test_std_gives_unit_l2(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = random_patch(rng, shape=(15, 15))
            nrm = np.linalg.norm(pm.normalize(p, pm.NORM_STD).ravel())
            assert nrm == pytest.approx(1.0, abs=1e-12)

    def test_flat_patch_raises(self):
        flat = np.full((5, 5), 3.25)
        with pytest.raises(pm.DegeneratePatchError):
            pm.normalize(flat, pm.NORM_STD)
        with pytest.raises(pm.DegeneratePatchError):
            pm.normalize(flat, pm.NORM_MAD)

    def test_near_flat_patch_raises(self):
        p = 7.0 + 1e-15 * np.arange(9.0).reshape(3, 3)
        with pytest.raises(pm.DegeneratePatchError):
            pm.normalize(p, pm.NORM_STD)
        with pytest.raises(pm.DegeneratePatchError):
            pm.normalize(p, pm.NORM_MAD)

    def test_none_mode_is_identity(self):
        p = P22.copy()
        np.testing.assert_array_equal(pm.normalize(p, "none"), p)
        with pytest.raises(ValueError):
            pm.normalize(p, "l2")


ROW_KINDS = ("random", "offset", "flat", "near-flat", "tiny")


@st.composite
def row_matrices(draw):
    """(B, n) matrices of mixed rows, float64 or float32, and a block size
    that splits them into more than two blocks more often than not.  Row
    kinds: unit-scale noise, noise on a +-1e4 offset, constant, constant
    plus 1e-15 steps, and noise scaled below the flat cut-off."""
    rows = draw(st.integers(1, 24))
    cols = draw(st.integers(2, 30))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=rows, max_size=rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(rows, cols)) * rng.uniform(0.01, 100.0, size=(rows, 1))
    for i, kind in enumerate(kinds):
        if kind == "offset":
            x[i] += rng.choice([-1e4, 1e4])
        elif kind == "flat":
            x[i] = rng.uniform(-10.0, 10.0)
        elif kind == "near-flat":
            x[i] = 7.0 + 1e-15 * np.arange(cols)
        elif kind == "tiny":
            x[i] *= 1e-14
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return x.astype(dtype), draw(st.sampled_from([1, 3, 8, pm._BLOCK_ROWS]))


class TestNormalizeRows:
    @staticmethod
    def corpus(rng):
        """5x5 patches as rows: offsets up to 1e4, every fifth row flat or
        near-flat."""
        rows = rng.normal(size=(40, 25)) * rng.uniform(0.01, 100.0, size=(40, 1))
        rows += rng.uniform(-1e4, 1e4, size=(40, 1))
        rows[::10] = 3.25
        rows[5::10] = 7.0 + 1e-15 * np.arange(25.0)
        return rows

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_rows_equal_single_patch_wrappers(self, mode):
        rows = self.corpus(np.random.default_rng(16))
        out, valid = pm.normalize_rows(rows, mode)
        assert valid.sum() == (40 if mode == pm.NORM_NONE else 32)
        for row, got, ok in zip(rows, out, valid):
            patch = row.reshape(5, 5)
            if ok:
                want = pm.normalize(patch, mode).ravel()
                assert got.tobytes() == want.tobytes()
            else:
                assert not got.any()
                with pytest.raises(pm.DegeneratePatchError):
                    pm.normalize(patch, mode)

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_normalize_then_slice_equals_slice_then_normalize(self, mode):
        rows = self.corpus(np.random.default_rng(17))
        out, valid = pm.normalize_rows(rows, mode)
        for idx in (slice(0, 7), slice(3, 40, 4), [39, 0, 5, 10, 5], slice(20, 21)):
            part, part_valid = pm.normalize_rows(rows[idx], mode)
            assert part.tobytes() == out[idx].tobytes()
            np.testing.assert_array_equal(part_valid, valid[idx])

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_blocks_match_single_rows_across_edges(self, mode):
        # over three blocks plus a ragged tail; flat, near-flat and
        # 1e4-offset rows on both sides of every block edge
        block = pm._BLOCK_ROWS
        rng = np.random.default_rng(18)
        rows = rng.normal(size=(3 * block + 37, 25)) * rng.uniform(
            0.01, 100.0, size=(3 * block + 37, 1))
        edges = [block, 2 * block, 3 * block, len(rows)]
        for e in edges:
            rows[e - 3] += 1e4
            rows[e - 2] = 7.0 + 1e-15 * np.arange(25.0)
            rows[e - 1] = 3.25
            if e < len(rows):
                rows[e] = -2.5
                rows[e + 1] = -7.0 + 1e-15 * np.arange(25.0)
                rows[e + 2] -= 1e4
        out, valid = pm.normalize_rows(rows, mode)
        flat = 4 * 2 + 3 * 2
        assert valid.sum() == len(rows) - (0 if mode == pm.NORM_NONE else flat)
        for row, got, ok in zip(rows, out, valid):
            one, one_valid = pm.normalize_rows(row[None], mode)
            assert got.tobytes() == one[0].tobytes()
            assert ok == one_valid[0]
        if mode == pm.NORM_NONE:
            assert not np.shares_memory(out, rows)
            assert out.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(case=row_matrices())
    def test_equals_two_pass_formula_bytewise(self, mode, case):
        # the blocks are centered and divided in place with np.add.reduce
        # sums; np.mean, np.sum and a masked divide give the same bytes
        rows, block = case
        with mock.patch.object(pm, "_BLOCK_ROWS", block):
            out, valid = pm.normalize_rows(rows, mode)
        want, want_valid, _ = oracles.two_pass_normalize_rows(rows, mode)
        assert out.tobytes() == want.tobytes()
        assert valid.tobytes() == want_valid.tobytes()

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_row_whose_sum_overflows_is_flat_not_rejected(self, mode):
        # finite pixels whose row sum overflows to inf: the statistics turn
        # NaN and the row is zeroed and flagged, as by the two-pass formula.
        # A 1e200 row centres finitely, but its squares overflow: its std
        # is inf, so it is zeroed and flagged too; its mad stays finite.
        rows = np.random.default_rng(25).normal(size=(pm._BLOCK_ROWS + 4, 25))
        rows[pm._BLOCK_ROWS + 1] = 1e308
        rows[pm._BLOCK_ROWS + 3] *= 1e200
        with np.errstate(over="ignore"):
            out, valid = pm.normalize_rows(rows, mode)
        with np.errstate(over="ignore", invalid="ignore"):
            want, want_valid, _ = oracles.two_pass_normalize_rows(rows, mode)
        assert out.tobytes() == want.tobytes()
        assert valid.tobytes() == want_valid.tobytes()
        assert valid[pm._BLOCK_ROWS + 1] == (mode == pm.NORM_NONE)
        assert valid[pm._BLOCK_ROWS + 3] == (mode != pm.NORM_STD)
        assert out[pm._BLOCK_ROWS + 3].any() == (mode != pm.NORM_STD)
        assert valid.sum() == len(rows) - (mode != pm.NORM_NONE) - (mode == pm.NORM_STD)

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_first_non_finite_row_named_among_flat_rows(self, mode):
        # flat rows are flagged, and scanned, on both sides of the bad ones
        block = pm._BLOCK_ROWS
        rows = np.random.default_rng(26).normal(size=(2 * block + 9, 6))
        rows[[3, block + 2, block + 6]] = 1.5
        rows[block + 5, 4] = np.nan
        rows[block + 7, 0] = np.inf
        with pytest.raises(ValueError, match=f"row {block + 5} contains non-finite"):
            pm.normalize_rows(rows, mode)

    @pytest.mark.parametrize("mode", [pm.NORM_STD, pm.NORM_MAD])
    def test_float64_blocks_take_two_work_blocks(self, mode):
        # each block is normalized in place in one work block; its squares
        # or |q| take a second.  Normalizing a block into new arrays held
        # a centred copy, its square or |q| and an isfinite mask at once:
        # a peak of the output plus three blocks of 512 rows
        rows = np.random.default_rng(27).normal(size=(4096, 225))
        block = pm._BLOCK_ROWS * rows.shape[1] * 8
        tracemalloc.start()
        try:
            out, _ = pm.normalize_rows(rows, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2.5 * block

    @pytest.mark.parametrize("mode", [pm.NORM_STD, pm.NORM_MAD])
    def test_memory_is_one_output_plus_a_block(self, mode):
        # at the unblocked normalizer the corpus-sized centred copy and
        # its square (or |q|) took the traced peak to 2x the output
        rows = np.random.default_rng(19).normal(size=(20000, 225))
        tracemalloc.start()
        try:
            out, _ = pm.normalize_rows(rows, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_float32_rows_equal_their_float64_copy(self, mode):
        # 1,100 rows: two full blocks and a ragged third; flat rows, rows
        # too small to normalize and rows a few float32 steps above 1e4
        rng = np.random.default_rng(22)
        rows = (rng.normal(size=(1100, 25))
                * rng.uniform(0.01, 100.0, size=(1100, 1))).astype(np.float32)
        rows[::50] = 3.25
        rows[7::50] *= np.float32(1e-14)
        steps = np.spacing(np.float32(1e4)) * (np.arange(25) % 3)
        rows[9::50] = np.float32(1e4) + steps.astype(np.float32)
        out, valid = pm.normalize_rows(rows, mode)
        want, want_valid = pm.normalize_rows(rows.astype(np.float64), mode)
        assert rows.dtype == np.float32 and out.dtype == np.float64
        assert out.tobytes() == want.tobytes()
        np.testing.assert_array_equal(valid, want_valid)
        flat = 0 if mode == pm.NORM_NONE else 2 * len(rows[::50])
        assert valid.sum() == len(rows) - flat and valid[9::50].all()

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float32_store_is_the_rounded_float64_result(self, mode, dtype):
        # the store nccnet.train keeps: three blocks and a ragged tail,
        # with flat rows, rows too small to normalize and rows offset by 1e4
        rng = np.random.default_rng(28)
        count = 3 * pm._BLOCK_ROWS + 37
        rows = rng.normal(size=(count, 25)) * rng.uniform(0.01, 100.0, size=(count, 1))
        rows[::50] = 3.25
        rows[7::50] *= 1e-16
        rows[9::50] += 1e4
        rows = rows.astype(dtype)
        out, valid = pm._normalize_blocks(rows, mode, np.float32)
        want, want_valid = pm.normalize_rows(rows, mode)
        assert out.dtype == np.float32
        assert out.tobytes() == want.astype(np.float32).tobytes()
        np.testing.assert_array_equal(valid, want_valid)
        flat = len(rows[::50]) + len(rows[7::50])
        assert valid.sum() == count - (0 if mode == pm.NORM_NONE else flat)

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_non_finite_row_named_by_the_float32_store(self, mode):
        rows = np.random.default_rng(29).normal(size=(pm._BLOCK_ROWS + 9, 4))
        rows[pm._BLOCK_ROWS + 5, 2] = np.nan
        rows[pm._BLOCK_ROWS + 7, 0] = np.inf
        with pytest.raises(ValueError, match=f"row {pm._BLOCK_ROWS + 5} contains "
                                             "non-finite values"):
            pm._normalize_blocks(rows, mode, np.float32)

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_non_finite_float32_row_rejected(self, mode):
        rows = np.random.default_rng(23).normal(
            size=(pm._BLOCK_ROWS + 9, 4)).astype(np.float32)
        rows[pm._BLOCK_ROWS + 5, 2] = np.nan
        with pytest.raises(ValueError, match=f"row {pm._BLOCK_ROWS + 5} contains "
                                             "non-finite values"):
            pm.normalize_rows(rows, mode)

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    def test_float32_rows_are_widened_a_block_at_a_time(self, mode):
        # the output plus a few block-sized temporaries (4 in STD); a
        # float64 copy of the input would add 8 blocks on its own
        rows = np.random.default_rng(24).normal(size=(4096, 225)).astype(np.float32)
        block = pm._BLOCK_ROWS * rows.shape[1] * 8
        tracemalloc.start()
        try:
            out, _ = pm.normalize_rows(rows, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 5 * block

    def test_validation(self):
        with pytest.raises(ValueError, match="expected"):
            pm.normalize_rows(np.zeros(4), pm.NORM_STD)
        with pytest.raises(ValueError, match="at least 2 pixels"):
            pm.normalize_rows(np.zeros((3, 1)), pm.NORM_STD)
        with pytest.raises(ValueError, match="unknown"):
            pm.normalize_rows(np.ones((2, 4)), "l2")
        for mode in pm.NORM_MODES:
            for shape in ((3, 0), (0, 0)):
                with pytest.raises(ValueError, match="n >= 1"):
                    pm.normalize_rows(np.zeros(shape), mode)
            out, valid = pm.normalize_rows(np.zeros((0, 4)), mode)
            assert out.shape == (0, 4) and valid.shape == (0,)

    @pytest.mark.parametrize("mode", pm.NORM_MODES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, mode, bad):
        rows = np.random.default_rng(20).normal(size=(pm._BLOCK_ROWS + 9, 4))
        rows[pm._BLOCK_ROWS + 5, 2] = bad
        with pytest.raises(ValueError, match=f"row {pm._BLOCK_ROWS + 5} contains "
                                             "non-finite values"):
            pm.normalize_rows(rows, mode)


class TestCorrelation:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            ih = int(rng.integers(5, 12))
            iw = int(rng.integers(5, 12))
            fh = int(rng.integers(1, 5))
            fw = int(rng.integers(1, 5))
            img = rng.normal(size=(ih, iw))
            f = rng.normal(size=(fh, fw))
            got = pm.cross_correlate_valid(img, f)
            want = oracles.naive_correlate_valid(img, f)
            assert got.shape == (ih - fh + 1, iw - fw + 1)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_filter_too_big(self):
        with pytest.raises(ValueError):
            pm.cross_correlate_valid(np.zeros((3, 3)), np.zeros((4, 2)))


@st.composite
def box_cases(draw):
    """A plane, a window side, the plane's window means and a reduction:
    float64 planes whose magnitudes span 1e-3 to 1e6 (so a changed
    addition order shows in the bits), int32 and int64 planes of u16
    pixels; single rows, single columns, k = 1 and k = H among them.  The
    reduction is np.add, np.maximum or np.fmin, and for the last two a
    float plane holds NaN, inf and -inf among its pixels."""
    dtype = draw(st.sampled_from([np.float64, np.int32, np.int64]))
    shape = draw(st.one_of(st.tuples(st.just(1), st.integers(1, 12)),
                           st.tuples(st.integers(1, 12), st.just(1)),
                           st.tuples(st.integers(1, 12), st.integers(1, 12))))
    k = draw(st.one_of(st.just(1), st.just(min(shape)), st.integers(1, min(shape))))
    reduce = draw(st.sampled_from([np.add, np.maximum, np.fmin]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == np.float64:
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 6, shape)
        mu = oracles.two_d_box_sums(a, k) / (k * k)
        if reduce is not np.add:
            special = rng.random(shape) < 0.3
            a[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
    else:
        a = rng.integers(0, 0x10000, shape).astype(dtype)
        mu = oracles.two_d_box_sums(a, k) // (k * k)
    return a, k, mu, reduce


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=box_cases())
def test_flat_box_sums_and_sad_match_two_d_passes(case):
    """The contiguous shifted-slice passes give the 2-D passes' bytes."""
    a, k, mu, reduce = case
    with np.errstate(invalid="ignore"):  # inf - inf in the sad, on both sides
        pairs = ((pm._box_sums(a, k, reduce), oracles.two_d_box_sums(a, k, reduce)),
                 (pm._sad(a, mu, k), oracles.two_d_sad(a, mu, k)))
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


class TestNccScore:
    def test_orthogonal_patterns_score_zero(self):
        checker = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert pm.ncc_score(P22, checker, "std") == pytest.approx(0.0, abs=1e-15)
        assert pm.ncc_score(P22, checker, "mad") == pytest.approx(0.0, abs=1e-15)

    def test_self_and_anti_correlation(self):
        rev = P22[::-1, ::-1].copy()
        assert pm.ncc_score(P22, P22, "std") == pytest.approx(1.0, abs=1e-12)
        assert pm.ncc_score(P22, rev, "std") == pytest.approx(-1.0, abs=1e-12)

    def test_mad_self_score_can_exceed_one(self):
        # mean 0, mad = 6/4, normalized [-1/3, -1/3, -1/3, 1]: self dot 4/3
        spike = np.array([[-1.0, -1.0], [-1.0, 3.0]])
        assert pm.ncc_score(spike, spike, "mad") == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_std_score_bounded(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            a = random_patch(rng, shape=(7, 7), scale=5.0, offset=100.0)
            b = random_patch(rng, shape=(7, 7), scale=0.2)
            assert abs(pm.ncc_score(a, b, "std")) <= 1.0 + 1e-9

    def test_affine_invariance_std(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_patch(rng, shape=(9, 9))
            f = random_patch(rng, shape=(9, 9))
            base = pm.ncc_score(p, f, "std")
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(-100.0, 100.0))
            assert pm.ncc_score(a * p + b, f, "std") == pytest.approx(base, abs=1e-9)
            assert pm.ncc_score(-a * p + b, f, "std") == pytest.approx(-base, abs=1e-9)

    def test_none_mode_not_bounded(self):
        big = np.array([[10.0, 0.0], [0.0, 0.0]])
        assert pm.ncc_score(big, big, "none") == pytest.approx(100.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pm.ncc_score(np.zeros((3, 3)) + P22.sum(), np.zeros((2, 2)), "std")


def backprop_jacobian(p, mode):
    """The normalization's Jacobian, one backward pass per row."""
    return oracles.vjp_jacobian(
        lambda u: pm.backprop_normalization(u, p, mode), p.shape)


class TestJacobians:
    def test_std_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_patch(rng, shape=(4, 4), scale=2.0, offset=5.0)
            jac = backprop_jacobian(p, pm.NORM_STD)
            fd = oracles.fd_jacobian(lambda x: pm.normalize(x, pm.NORM_STD), p)
            assert oracles.rel_error(jac, fd) < 1e-6

    def test_mad_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        kept = 0
        while kept < 10:
            p = random_patch(rng, shape=(4, 4), scale=2.0)
            if not kink_free(p):
                continue
            jac = backprop_jacobian(p, pm.NORM_MAD)
            fd = oracles.fd_jacobian(lambda x: pm.normalize(x, pm.NORM_MAD), p)
            assert oracles.rel_error(jac, fd) < 1e-6
            kept += 1

    def test_std_structure(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            p = random_patch(rng, shape=(5, 5))
            jac = backprop_jacobian(p, pm.NORM_STD)
            # symmetric, rows sum to zero, annihilates the patch direction
            np.testing.assert_allclose(jac, jac.T, atol=1e-12)
            np.testing.assert_allclose(jac.sum(axis=1), 0.0, atol=1e-12)
            pbar = pm.normalize(p, pm.NORM_STD).ravel()
            np.testing.assert_allclose(jac @ pbar, 0.0, atol=1e-12)

    def test_mad_rows_sum_to_zero(self):
        # Discriminates the correct factor order: centering must sit
        # innermost, otherwise constant shifts leak through.
        rng = np.random.default_rng(34)
        kept = 0
        while kept < 5:
            p = random_patch(rng, shape=(5, 5), offset=3.0)
            if not kink_free(p):
                continue
            jac = backprop_jacobian(p, pm.NORM_MAD)
            np.testing.assert_allclose(jac.sum(axis=1), 0.0, atol=1e-12)
            kept += 1

    def test_flat_patch_raises(self):
        flat = np.zeros((3, 3))
        with pytest.raises(pm.DegeneratePatchError):
            backprop_jacobian(flat, pm.NORM_STD)
        with pytest.raises(pm.DegeneratePatchError):
            backprop_jacobian(flat, pm.NORM_MAD)


class TestBackprop:
    def test_matches_vector_jacobian_product_std(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p = random_patch(rng, shape=(4, 5), scale=3.0, offset=-2.0)
            u = random_patch(rng, shape=(4, 5))
            fd = oracles.fd_jacobian(lambda x: pm.normalize(x, pm.NORM_STD), p)
            want = (u.ravel() @ fd).reshape(p.shape)
            got = pm.backprop_normalization(u, p, "std")
            assert oracles.rel_error(got, want) < 1e-6

    def test_matches_vector_jacobian_product_mad(self):
        rng = np.random.default_rng(42)
        kept = 0
        while kept < 10:
            p = random_patch(rng, shape=(4, 5), scale=3.0)
            if not kink_free(p):
                continue
            u = random_patch(rng, shape=(4, 5))
            fd = oracles.fd_jacobian(lambda x: pm.normalize(x, pm.NORM_MAD), p)
            want = (u.ravel() @ fd).reshape(p.shape)
            got = pm.backprop_normalization(u, p, "mad")
            assert oracles.rel_error(got, want) < 1e-6
            kept += 1

    def test_all_ones_upstream_gives_column_sums(self):
        rng = np.random.default_rng(43)
        p = random_patch(rng, shape=(5, 5), offset=1.0)
        ones = np.ones_like(p)
        for mode in (pm.NORM_STD, pm.NORM_MAD):
            if mode == pm.NORM_MAD and not kink_free(p):
                continue
            fd = oracles.fd_jacobian(lambda x: pm.normalize(x, mode), p)
            want = fd.sum(axis=0).reshape(p.shape)
            got = pm.backprop_normalization(ones, p, mode)
            assert oracles.rel_error(got, want) < 1e-6

    def test_kink_uses_subgradient_instead_of_raising(self):
        p = np.array([[1.0, 2.0], [3.0, 2.0]])  # pixel on the kink
        u = np.array([[0.5, -1.0], [2.0, 0.25]])
        out = pm.backprop_normalization(u, p, "mad")
        assert np.all(np.isfinite(out))

    def test_none_mode_passthrough(self):
        u = np.array([[1.0, -2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(pm.backprop_normalization(u, P22, "none"), u)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pm.backprop_normalization(np.ones((2, 3)), P22, "std")

    def test_flat_patch_raises(self):
        with pytest.raises(pm.DegeneratePatchError):
            pm.backprop_normalization(np.ones((3, 3)), np.zeros((3, 3)), "mad")

    @pytest.mark.parametrize("mode", ["std", "mad"])
    def test_batched_rows_are_independent(self, mode):
        # 4 filters of 3x3; row 0 is 0..8, whose centre tap sits exactly on
        # the mean (zero deviation, the MAD kink)
        rng = np.random.default_rng(44)
        rows = rng.normal(scale=2.0, size=(4, 9))
        rows[0] = np.arange(9.0)
        u = rng.normal(size=(4, 9))
        _, valid, stats = pm._normalize_full(rows, mode)
        assert valid.all() and stats[0][0, 4] == 0.0
        got = pm._backprop_rows(u, stats, mode)
        for i in range(4):
            one = pm.backprop_normalization(
                u[i].reshape(3, 3), rows[i].reshape(3, 3), mode)
            np.testing.assert_array_equal(got[i], one.ravel())
