"""The settings objects of the package check themselves when built.

``SceneConfig``, ``TrainConfig``, ``HatParams``, ``QFormat`` and
``BenchConfig`` are frozen, check every numeric field through
``patchmath._count`` or ``patchmath._real`` in ``__post_init__`` (so
``dataclasses.replace`` is checked too), and refuse a bad value with
ValueError.
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
        return lambda value, name, *low: checked.append(name) or check(value, name, *low)

    with mock.patch.object(pm, "_count", spy(pm._count)), \
            mock.patch.object(pm, "_real", spy(pm._real)):
        dataclasses.replace(settings)
    numeric = [f.name for f in dataclasses.fields(settings) if f.type in (int, float)]
    assert sorted(checked) == sorted(numeric)


@pytest.mark.parametrize("value, low, message", [
    (0, 1, "n must be an integer >= 1, got 0"),
    (-1, 0, "n must be an integer >= 0, got -1"),
    (2.0, 1, "n must be an integer >= 1, got 2.0"),
    ("3", 1, "n must be an integer >= 1, got '3'"),
    (True, 0, "n must be an integer >= 0, got True"),
    (None, 1, "n must be an integer >= 1, got None"),
    (63, 64, "n must be an integer >= 64, got 63"),
], ids=["zero", "negative", "float", "text", "bool", "None", "below-low"])
def test_count_refuses(value, low, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pm._count(value, "n", low)


def test_count_accepts_numpy_integers():
    for value in (np.int8(5), np.uint64(5), np.int64(5), 5):
        assert pm._count(value, "n") == 5
        assert type(pm._count(value, "n")) is int


@pytest.mark.parametrize("value, low, message", [
    (math.nan, -math.inf, "x must be finite, got nan"),
    (math.inf, 0.0, "x must be finite and >= 0, got inf"),
    (-1, 0.0, "x must be finite and >= 0, got -1"),
    ("0.5", -math.inf, "x must be finite, got '0.5'"),
    (False, -math.inf, "x must be finite, got False"),
    (np.bool_(True), -math.inf, "x must be finite, got np.True_"),
    (None, -math.inf, "x must be finite, got None"),
    ([1.0, 2.0], -math.inf, "x must be finite, got [1.0, 2.0]"),
], ids=["nan", "inf", "below-low", "text", "bool", "numpy-bool", "None", "list"])
def test_real_refuses(value, low, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pm._real(value, "x", low)


def test_real_accepts_numbers():
    for value in (np.float32(0.5), np.float64(0.5), 0.5):
        assert pm._real(value, "x", 0.0) == 0.5
    assert pm._real(np.int64(3), "x") == 3.0
    assert pm._real(-2, "x") == -2.0
