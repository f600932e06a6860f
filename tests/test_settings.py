"""The settings objects and the size, count, seed, shift and threshold
arguments of the package are checked in one place each.

``SceneConfig``, ``TrainConfig``, ``HatParams``, ``QFormat`` and
``BenchConfig`` are frozen, check every numeric field through
``patchmath._count`` or ``patchmath._real`` in ``__post_init__`` (so
``dataclasses.replace`` is checked too), and refuse a bad value with
ValueError.  The functions that take a grid or window side, a count, a
seed, a shift or a sigma check it through ``_count``, ``patchmath._odd``
or ``_real``, both ends of a range included, and detection thresholds go
through ``bench._thresholds``: a bad argument is refused with a
ValueError that names it.
"""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest

from nccbank import bench as bn
from nccbank import filterbank as fb
from nccbank import irdatagen as dg
from nccbank import nccnet as nn
from nccbank import patchmath as pm

# each settings class, a valid instance, and one bad value per field kind
SETTINGS = [
    pytest.param(dg.SceneConfig(), {"width": 100.0, "target_count": 2.5, "rng_seed": 1.5,
                                    "noise_sigma": -1.0, "psf_sigma": math.nan},
                 id="SceneConfig"),
    pytest.param(nn.TrainConfig(), {"learning_rate": "0.1", "seed": 1.5, "max_epochs": 0,
                                    "holdout_fraction": 1.0},
                 id="TrainConfig"),
    pytest.param(fb.HatParams(), {"ricker_sigma": math.nan, "pit_depth": -0.5,
                                  "pit_radius": 0.0},
                 id="HatParams"),
    pytest.param(fb.QFormat(8, 7), {"total_bits": 8.0, "frac_bits": 8}, id="QFormat"),
    pytest.param(bn.BenchConfig(), {"nms_radius": "2", "threshold_count": True,
                                    "include_timing": "no"},
                 id="BenchConfig"),
]


@pytest.mark.parametrize("settings, bad", SETTINGS)
def test_frozen_and_replace_is_checked(settings, bad):
    for field in dataclasses.fields(settings):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(settings, field.name, getattr(settings, field.name))
    for name, value in bad.items():
        with pytest.raises(ValueError, match=f"^{name} must be "):
            dataclasses.replace(settings, **{name: value})
    assert dataclasses.replace(settings) == settings


@pytest.mark.parametrize("settings, bad", SETTINGS)
def test_every_numeric_field_goes_through_one_check(settings, bad):
    checked = []

    def spy(check):
        return lambda value, name, *rest, **kw: (checked.append(name)
                                                 or check(value, name, *rest, **kw))

    with mock.patch.object(pm, "_count", spy(pm._count)), \
            mock.patch.object(pm, "_real", spy(pm._real)):
        dataclasses.replace(settings)
    numeric = [f.name for f in dataclasses.fields(settings) if f.type in (int, float)]
    assert sorted(checked) == sorted(numeric)


@pytest.mark.parametrize("value, bounds, message", [
    (0, (1,), "n must be an integer >= 1, got 0"),
    (-1, (0,), "n must be an integer >= 0, got -1"),
    (2.0, (1,), "n must be an integer >= 1, got 2.0"),
    ("3", (1,), "n must be an integer >= 1, got '3'"),
    (True, (0,), "n must be an integer >= 0, got True"),
    (None, (1,), "n must be an integer >= 1, got None"),
    (63, (64,), "n must be an integer >= 64, got 63"),
    (-3, (-2, 2), "n must be an integer in [-2, 2], got -3"),
    (3, (-2, 2), "n must be an integer in [-2, 2], got 3"),
    (np.int64(5), (1, 4), "n must be an integer in [1, 4], got np.int64(5)"),
    (0.5, (-2, 2), "n must be an integer in [-2, 2], got 0.5"),
    (True, (0, 1), "n must be an integer in [0, 1], got True"),
], ids=["zero", "negative", "float", "text", "bool", "None", "below-low",
        "range-below-low", "range-above-high", "range-numpy-above-high", "range-float",
        "range-bool"])
def test_count_refuses(value, bounds, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pm._count(value, "n", *bounds)


def test_count_accepts_numpy_integers():
    for value in (np.int8(5), np.uint64(5), np.int64(5), 5):
        assert pm._count(value, "n") == 5
        assert type(pm._count(value, "n")) is int


def test_count_range_includes_both_ends():
    for value in (-2, 2, np.int8(-2), np.uint8(2)):
        assert pm._count(value, "n", -2, 2) == value
        assert type(pm._count(value, "n", -2, 2)) is int
    assert pm._count(0, "n", 0, 0) == 0


@pytest.mark.parametrize("value, bounds, message", [
    (math.nan, (-math.inf,), "x must be finite, got nan"),
    (math.inf, (0.0,), "x must be finite and >= 0, got inf"),
    (-1, (0.0,), "x must be finite and >= 0, got -1"),
    ("0.5", (-math.inf,), "x must be finite, got '0.5'"),
    (False, (-math.inf,), "x must be finite, got False"),
    (np.bool_(True), (-math.inf,), "x must be finite, got np.True_"),
    (None, (-math.inf,), "x must be finite, got None"),
    ([1.0, 2.0], (-math.inf,), "x must be finite, got [1.0, 2.0]"),
    (0.0, (0.0, math.inf, "(]"), "x must be finite and > 0, got 0.0"),
    (-0.0, (0.0, math.inf, "(]"), "x must be finite and > 0, got -0.0"),
    (-1e-300, (0.0, 1.0, "[)"), "x must be finite and in [0, 1), got -1e-300"),
    (1.0, (0.0, 1.0, "[)"), "x must be finite and in [0, 1), got 1.0"),
    (2.6, (0.0, 2.5, "(]"), "x must be finite and in (0, 2.5], got 2.6"),
    (0.0, (0.0, 2.5, "(]"), "x must be finite and in (0, 2.5], got 0.0"),
    (0.0, (0.0, 1.0, "()"), "x must be finite and in (0, 1), got 0.0"),
    (1.0, (0.0, 1.0, "()"), "x must be finite and in (0, 1), got 1.0"),
    (1.5, (0.0, 1.0), "x must be finite and in [0, 1], got 1.5"),
    (math.nan, (0.0, 1.0, "[)"), "x must be finite and in [0, 1), got nan"),
    (math.inf, (0.0, math.inf, "(]"), "x must be finite and > 0, got inf"),
    (10**400, (0.0, 1.0, "[)"), f"x must be finite and in [0, 1), got {10**400}"),
], ids=["nan", "inf", "below-low", "text", "bool", "numpy-bool", "None", "list",
        "open-low-at-low", "open-low-at-minus-zero", "closed-low-below-low",
        "open-high-at-high", "closed-high-above-high", "open-low-at-low-with-high",
        "open-both-at-low", "open-both-at-high", "closed-both-above-high",
        "range-nan", "open-low-inf", "int-too-big-for-float"])
def test_real_refuses(value, bounds, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pm._real(value, "x", *bounds)


def test_real_range_includes_closed_ends():
    assert pm._real(0.0, "x", 0.0, 1.0, "[)") == 0.0
    assert pm._real(np.float32(2.5), "x", 0.0, 2.5, "(]") == 2.5
    assert pm._real(1, "x", 0.0, 1.0) == 1.0
    assert pm._real(5e-324, "x", 0.0, ends="(]") == 5e-324
    assert pm._real(np.nextafter(1.0, 0.0), "x", 0.0, 1.0, "()") < 1.0


def test_real_accepts_numbers():
    for value in (np.float32(0.5), np.float64(0.5), 0.5):
        assert pm._real(value, "x", 0.0) == 0.5
    assert pm._real(np.int64(3), "x") == 3.0
    assert pm._real(-2, "x") == -2.0


def _negatives(count=4):
    samples = np.empty(count, dtype=dg.SAMPLE_DTYPE)
    samples["label"] = -1
    samples["flags"] = 1
    samples["context"] = np.random.default_rng(5).normal(1000.0, 5.0, (count, 19, 19))
    return samples


_FRAME = np.zeros((9, 9))
_SCORED = [([bn.Detection(4, 4, 5.0)], [(4, 4)])]

# each checked argument: a call that passes the value in that argument, its
# name, and its smallest valid value, (low, high) for a range, or None for a
# threshold
ARGUMENTS = {
    "gaussian_grid-size": (lambda v: fb.gaussian_grid(v, 1.2), "size", 1),
    "gaussian_grid-sigma": (lambda v: fb.gaussian_grid(15, v), "sigma", None),
    "ricker_hat_grid-size": (lambda v: fb.ricker_hat_grid(v), "size", 3),
    "crop_grid-new_size": (lambda v: fb.crop_grid(np.ones((15, 15)), v), "new_size", (1, 15)),
    "op_count-image_side": (lambda v: fb.op_count("ncc-std", v, 3), "image_side", 1),
    "op_count-filter_side": (lambda v: fb.op_count("ncc-std", 16, v), "filter_side",
                             (1, 16)),
    "MadRatioScorer-window": (lambda v: bn.MadRatioScorer(v), "window", 3),
    "init_network-filter_size": (lambda v: nn.init_network(1, filter_size=v),
                                 "filter_size", 2),
    "init_network-seed": (lambda v: nn.init_network(1, seed=v), "seed", 0),
    "subsample_negatives-budget": (lambda v: dg.subsample_negatives(_negatives(), v),
                                   "budget", (1, 4)),
    "subsample_negatives-seed": (lambda v: dg.subsample_negatives(_negatives(), 2, seed=v),
                                 "seed", 0),
    "training_scene_configs-scene_count": (
        lambda v: dg.training_scene_configs(scene_count=v), "scene_count", 1),
    "training_scene_configs-seed": (
        lambda v: dg.training_scene_configs(scene_count=2, seed=v), "seed", 0),
    "benchmark_scene_configs-count": (lambda v: dg.benchmark_scene_configs(count=v),
                                      "count", 1),
    "benchmark_scene_configs-seed": (lambda v: dg.benchmark_scene_configs(count=2, seed=v),
                                     "seed", 0),
    "shifted_core-dr": (lambda v: dg.shifted_core(np.zeros((19, 19)), v, 0), "dr", (-2, 2)),
    "shifted_core-dc": (lambda v: dg.shifted_core(np.zeros((19, 19)), 0, v), "dc", (-2, 2)),
    "threshold_accuracy-threshold": (
        lambda v: nn.threshold_accuracy([0.0, 2.0], [1, -1], v), "threshold", None),
    "sliding_detect-threshold": (
        lambda v: bn.sliding_detect(_FRAME, bn.MadRatioScorer(3), v), "threshold", None),
    "roc_curve-thresholds": (lambda v: bn.roc_curve(_SCORED, v), "thresholds", None),
}
_ODD = {"gaussian_grid-size", "ricker_hat_grid-size", "crop_grid-new_size",
        "MadRatioScorer-window"}


def _bad_arguments():
    for site, (_, name, low) in ARGUMENTS.items():
        if site == "gaussian_grid-sigma":
            rows = [(bad, f"finite and > 0, got {bad!r}")
                    for bad in (math.nan, math.inf, True, "1.2", 0.0)]
        elif site == "threshold_accuracy-threshold":
            rows = [(bad, f"finite, got {bad!r}") for bad in (True, "0.5", math.nan)]
        elif site == "sliding_detect-threshold":
            rows = [(bad, f"a number, got {bad!r}") for bad in (math.nan, "0.5", True, None)]
        elif site == "roc_curve-thresholds":
            rows = [(bad, f"a 1-D sequence of numbers, got {bad[0]!r}")
                    for bad in ([math.nan], ["0.5", "4.9"], [True, False], [None])]
        else:
            low, high = low if isinstance(low, tuple) else (low, None)
            rule = f">= {low}" if high is None else f"in [{low}, {high}]"
            count = f"an integer {rule}, got"
            rows = [(2.5, f"{count} 2.5"), (True, f"{count} True"), ("5", f"{count} '5'"),
                    (low - 1, f"{count} {low - 1}")]
            if high is not None:
                rows.append((high + 1, f"{count} {high + 1}"))
            if site.startswith("shifted_core"):
                rows.append((0.5, f"{count} 0.5"))
            if site in _ODD:
                rows.append((low + 1, f"an odd integer {rule}, got {low + 1}"))
        for bad, message in rows:
            yield pytest.param(site, bad, f"{name} must be {message}",
                               id=f"{site}-{bad!r}")


@pytest.mark.parametrize("site, bad, message", _bad_arguments())
def test_bad_argument_is_refused_by_name(site, bad, message):
    call = ARGUMENTS[site][0]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


# a valid call per site and the arguments it must check
VALID_CALLS = [
    pytest.param(lambda: fb.gaussian_grid(15, 1.2), {"size", "sigma"}, id="gaussian_grid"),
    pytest.param(lambda: fb.ricker_hat_grid(15, fb.HatParams()), {"size"},
                 id="ricker_hat_grid"),
    pytest.param(lambda: fb.crop_grid(np.ones((15, 15)), 7), {"new_size"}, id="crop_grid"),
    pytest.param(lambda: fb.op_count("ncc-std", 16, 3), {"image_side", "filter_side"},
                 id="op_count"),
    pytest.param(lambda: bn.MadRatioScorer(5), {"window"}, id="MadRatioScorer"),
    pytest.param(lambda: nn.init_network(1, 3, seed=0), {"num_filters", "filter_size", "seed"},
                 id="init_network"),
    pytest.param(lambda: dg.subsample_negatives(_negatives(), 2), {"budget", "seed"},
                 id="subsample_negatives"),
    pytest.param(lambda: dg.training_scene_configs(scene_count=2), {"scene_count", "seed"},
                 id="training_scene_configs"),
    pytest.param(lambda: dg.benchmark_scene_configs(count=2), {"count", "seed"},
                 id="benchmark_scene_configs"),
    pytest.param(lambda: dg.shifted_core(np.zeros((19, 19)), -2, 2), {"dr", "dc"},
                 id="shifted_core"),
    pytest.param(lambda: nn.threshold_accuracy([0.0, 2.0], [1, -1], 1.0), {"threshold"},
                 id="threshold_accuracy"),
    pytest.param(lambda: bn.sliding_detect(_FRAME, bn.MadRatioScorer(3), 0.5), {"threshold"},
                 id="sliding_detect"),
    pytest.param(lambda: bn.roc_curve(_SCORED, [0.5]), {"thresholds"}, id="roc_curve"),
]


@pytest.mark.parametrize("call, arguments", VALID_CALLS)
def test_every_argument_goes_through_one_check(call, arguments):
    checked = set()

    def spy(check):
        return lambda value, name, *rest, **kw: (checked.add(name)
                                                 or check(value, name, *rest, **kw))

    with mock.patch.object(pm, "_count", spy(pm._count)), \
            mock.patch.object(pm, "_odd", spy(pm._odd)), \
            mock.patch.object(pm, "_real", spy(pm._real)), \
            mock.patch.object(bn, "_thresholds", spy(bn._thresholds)):
        call()
    assert arguments <= checked


@pytest.mark.parametrize("value, bounds, message", [
    (4, (1,), "n must be an odd integer >= 1, got 4"),
    (1, (3,), "n must be an integer >= 3, got 1"),
    (np.int64(6), (3,), "n must be an odd integer >= 3, got np.int64(6)"),
    (5.0, (1,), "n must be an integer >= 1, got 5.0"),
    (8, (1, 15), "n must be an odd integer in [1, 15], got 8"),
    (17, (1, 15), "n must be an integer in [1, 15], got 17"),
], ids=["even", "below-low", "numpy-even", "float", "range-even", "range-above-high"])
def test_odd_refuses(value, bounds, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pm._odd(value, "n", *bounds)


def test_odd_accepts_odd_integers():
    for value in (np.int16(7), 7):
        assert pm._odd(value, "n", 3) == 7
        assert type(pm._odd(value, "n", 3)) is int
    assert pm._odd(15, "n", 1, 15) == 15
