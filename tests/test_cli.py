import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from nccbank import bench as bn
from nccbank import filterbank as fb
from nccbank import gridio
from nccbank import irdatagen as dg
from nccbank import nccnet as nn
from nccbank.cli import _build_parser, cli_main


def run(*argv):
    return cli_main(list(argv))


def dir_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "datagen" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self):
        for cmd in ("datagen", "train", "export-filter", "fit-hat",
                    "detect", "bench", "roc"):
            assert run(cmd, "--help") == 0

    def test_no_command_is_usage_error(self):
        assert run() == 2

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 2

    def test_missing_required_flag_is_usage_error(self):
        assert run("train", "--out", "x.txt") == 2

    def test_bad_choice_is_usage_error(self):
        assert run("datagen", "--clutter", "rain", "--out", "x") == 2


class TestDatagen:
    def test_requires_a_destination(self, tmp_path, capsys):
        assert run("datagen", "--scenes", "2") == 1
        assert "nothing to do" in capsys.readouterr().err

    def test_psf_wider_than_target_border_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "x.nccd"
        assert run("datagen", "--scenes", "36", "--psf-sigma", "2.6",
                   "--out", str(out)) == 1
        assert "psf_sigma must be finite and in (0, 2.5], got 2.6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--amplitude", "nan", "target_amplitude must be finite"),
        ("--amplitude", "inf", "target_amplitude must be finite"),
        # explicit ids keep the test IDs these cases had under their earlier messages
        pytest.param("--amplitude", "-5", "target_amplitude must be finite and > 0, got -5.0\n",
                     id="--amplitude--5-target_amplitude must be > 0"),
        ("--noise", "nan", "noise_sigma must be finite"),
        ("--psf-sigma", "nan", "psf_sigma must be finite"),
        pytest.param("--scenes", "0", "--scenes must be an integer >= 1, got 0\n",
                     id="--scenes-0---scenes must be >= 1, got 0"),
        pytest.param("--frames-per-scene", "0",
                     "--frames-per-scene must be an integer >= 1, got 0\n",
                     id="--frames-per-scene-0---frames-per-scene must be >= 1, got 0"),
        pytest.param("--frames-per-scene", "-4",
                     "--frames-per-scene must be an integer >= 1, got -4\n",
                     id="--frames-per-scene--4---frames-per-scene must be >= 1, got -4"),
        pytest.param("--negatives", "0", "--negatives must be an integer >= 1, got 0\n",
                     id="--negatives-0---negatives must be >= 1, got 0"),
        pytest.param("--negatives", "-3", "--negatives must be an integer >= 1, got -3\n",
                     id="--negatives--3---negatives must be >= 1, got -3"),
    ])
    def test_bad_scene_parameter_fails_cleanly(self, tmp_path, capsys, flag,
                                               value, message):
        out = tmp_path / "x.nccd"
        assert run("datagen", "--scenes", "2", flag, value, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_negative_budget_fails_before_synthesis(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        assert run("datagen", "--scenes", "2", "--negatives", "0",
                   "--out", str(tmp_path / "x.nccd"), "--frames-dir", str(frames)) == 1
        captured = capsys.readouterr()
        assert "--negatives must be an integer >= 1, got 0" in captured.err
        assert captured.out == ""
        assert not frames.exists()

    def test_stale_frame_folder_fails_cleanly(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        assert run("datagen", "--scenes", "4", "--frames-dir", str(frames)) == 0
        before = dir_bytes(frames)
        data = tmp_path / "x.nccd"
        assert run("datagen", "--scenes", "2", "--seed", "5", "--frames-dir", str(frames),
                   "--out", str(data)) == 1
        assert "already holds frame_0000.txt" in capsys.readouterr().err
        assert dir_bytes(frames) == before
        assert not data.exists()

    def test_stale_frame_folder_fails_before_synthesis(self, tmp_path, capsys,
                                                       monkeypatch):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "truths.csv").write_text("stale")

        def no_synthesis(config):
            raise AssertionError("synthesized a scene")

        monkeypatch.setattr(dg, "synth_scene", no_synthesis)
        assert run("datagen", "--scenes", "2", "--frames-dir", str(frames)) == 1
        captured = capsys.readouterr()
        assert f"{frames} already holds truths.csv" in captured.err
        assert captured.out == ""

    def test_writes_dataset_and_frames(self, tmp_path, capsys):
        data = tmp_path / "train.nccd"
        frames = tmp_path / "frames"
        code = run(
            "datagen", "--scenes", "4", "--negatives", "60",
            "--seed", "11", "--out", str(data), "--frames-dir", str(frames),
        )
        assert code == 0
        samples = dg.read_dataset(data)
        n_pos = np.count_nonzero(samples["label"] == 1)
        assert n_pos == 4 * 9
        assert len(samples) - n_pos == 60
        loaded, truths = dg.read_frames(frames)
        assert len(loaded) == 4
        assert sum(len(t) for t in truths) == 4 * 9
        out = capsys.readouterr().out
        assert "36 positives" in out

    def test_single_clutter_kind_and_frames_per_scene(self, tmp_path):
        frames = tmp_path / "frames"
        code = run(
            "datagen", "--scenes", "2", "--frames-per-scene", "3",
            "--clutter", "collimator", "--targets", "2",
            "--width", "72", "--height", "72",
            "--frames-dir", str(frames),
        )
        assert code == 0
        loaded, truths = dg.read_frames(frames)
        assert len(loaded) == 6
        assert all(f.shape == (72, 72) for f in loaded)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["datagen", "--scenes", "3", "--negatives", "40", "--seed", "7"]
        for name in ("a", "b"):
            code = run(*args, "--out", str(tmp_path / f"{name}.nccd"),
                       "--frames-dir", str(tmp_path / name))
            assert code == 0
        assert (tmp_path / "a.nccd").read_bytes() == (tmp_path / "b.nccd").read_bytes()
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


# each datagen scene flag, a value off every recipe's, and the SceneConfig
# field it sets
SCENE_FLAGS = [
    ("--clutter", "collimator", "clutter_kind", dg.COLLIMATOR),
    ("--amplitude", "75", "target_amplitude", 75.0),
    ("--psf-sigma", "1.5", "psf_sigma", 1.5),
    ("--noise", "20", "noise_sigma", 20.0),
    ("--bad-pixel-rate", "0.001", "bad_pixel_rate", 0.001),
]
SMALL_SHAPE = ["--scenes", "2", "--width", "80", "--height", "80", "--targets", "2"]


def small_standard_configs(seed=1000):
    """A 2-scene stand-in for the reference recipe, unlike SMALL_SHAPE's."""
    return dg.training_scene_configs(scene_count=2, seed=seed, width=72,
                                     height=72, targets_per_scene=3)


@pytest.fixture
def synthesized(monkeypatch):
    """The configs datagen synthesizes, in order, under a small standard
    recipe."""
    seen = []
    synth_scene = dg.synth_scene

    def record(config):
        seen.append(config)
        return synth_scene(config)

    monkeypatch.setattr(dg, "synth_scene", record)
    monkeypatch.setattr(dg, "standard_training_configs", small_standard_configs)
    return seen


class TestDatagenRecipe:
    @staticmethod
    def recipe(standard, seed=5):
        if standard:
            return small_standard_configs(seed=seed)
        return dg.training_scene_configs(scene_count=2, seed=seed, width=80,
                                         height=80, targets_per_scene=2)

    @staticmethod
    def datagen(tmp_path, standard, *argv):
        return run("datagen", *SMALL_SHAPE, "--seed", "5",
                   *(["--standard"] if standard else []), *argv,
                   "--frames-dir", str(tmp_path / "frames"))

    @pytest.mark.parametrize("standard", [False, True])
    @pytest.mark.parametrize("flag, value, field, parsed", SCENE_FLAGS)
    def test_scene_flag_reaches_every_config(self, tmp_path, synthesized, standard,
                                             flag, value, field, parsed):
        assert self.datagen(tmp_path, standard, flag, value) == 0
        assert synthesized == [dataclasses.replace(c, **{field: parsed})
                               for c in self.recipe(standard)]

    @pytest.mark.parametrize("standard", [False, True])
    @pytest.mark.parametrize("argv", [[], ["--clutter", "mix"]])
    def test_recipe_configs_pass_through(self, tmp_path, synthesized, standard, argv):
        recipe = self.recipe(standard)
        assert [c.clutter_kind for c in recipe] == list(dg.CLUTTER_KINDS[:2])
        assert self.datagen(tmp_path, standard, *argv) == 0
        assert synthesized == recipe

    @pytest.mark.parametrize("standard", [False, True])
    def test_frames_per_scene_reseeds_later_reps_only(self, tmp_path, synthesized,
                                                      standard):
        recipe = self.recipe(standard)
        assert self.datagen(tmp_path, standard, "--frames-per-scene", "2") == 0
        assert synthesized[0::2] == recipe
        assert synthesized[1::2] == [
            dataclasses.replace(c, rng_seed=(c.rng_seed + 7919) % 2**31)
            for c in recipe
        ]


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """One small dataset + frame folder shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("corpus")
    data = root / "train.nccd"
    frames = root / "frames"
    assert run(
        "datagen", "--scenes", "4", "--negatives", "60", "--seed", "11",
        "--out", str(data), "--frames-dir", str(frames),
    ) == 0
    return data, frames


class TestTrain:
    def test_trains_and_saves(self, small_corpus, tmp_path, capsys):
        data, _ = small_corpus
        out = tmp_path / "net.txt"
        code = run(
            "train", "--data", str(data), "--out", str(out),
            "--filters", "1", "--epochs", "1", "--seed", "3",
        )
        assert code == 0
        net = nn.load_network(out)
        assert net.num_filters == 1
        assert net.filter_size == dg.CORE_SIZE
        printed = capsys.readouterr().out
        assert "epoch 1:" in printed
        assert "holdout_acc=" in printed

    def test_deterministic_network_files(self, small_corpus, tmp_path):
        data, _ = small_corpus
        for name in ("a", "b"):
            assert run(
                "train", "--data", str(data), "--out", str(tmp_path / name),
                "--filters", "2", "--norm", "mad", "--epochs", "1",
            ) == 0
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        # the ids name the messages before counts and reals had one check each
        pytest.param("--epochs", "0", "max_epochs must be an integer >= 1, got 0\n",
                     id="--epochs-0-max_epochs must be >= 1"),
        pytest.param("--batch-size", "0", "batch_size must be an integer >= 1, got 0\n",
                     id="--batch-size-0-batch_size must be >= 1"),
        pytest.param("--holdout", "1.5",
                     "holdout_fraction must be finite and in [0, 1), got 1.5\n",
                     id="--holdout-1.5-holdout_fraction must be in [0, 1)"),
        pytest.param("--holdout", "nan",
                     "holdout_fraction must be finite and in [0, 1), got nan\n",
                     id="--holdout-nan-holdout_fraction must be in [0, 1)"),
        pytest.param("--filters", "0", "num_filters must be an integer >= 1, got 0\n",
                     id="--filters-0-num_filters must be >= 1"),
        ("--lr", "nan", "learning_rate must be finite"),
    ])
    def test_bad_config_fails_before_writing(self, small_corpus, tmp_path, capsys,
                                             flag, value, message):
        data, _ = small_corpus
        out = tmp_path / "net.txt"
        assert run("train", "--data", str(data), "--out", str(out), flag, value) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_fails_before_reading(self, tmp_path, capsys, monkeypatch):
        # a --standard dataset augments to a 146 MB patch array: the flags
        # are checked before the dataset is read
        read = []
        monkeypatch.setattr(dg, "read_dataset", lambda *args: read.append(args))
        out = tmp_path / "net.txt"
        assert run("train", "--data", str(tmp_path / "nowhere.nccd"), "--out", str(out),
                   "--epochs", "0") == 1
        captured = capsys.readouterr()
        assert "max_epochs must be an integer >= 1, got 0\n" in captured.err
        assert captured.out == ""
        assert read == []
        assert not out.exists()

    def test_defaults_are_train_config_defaults(self):
        args = _build_parser().parse_args(["train", "--data", "d", "--out", "o"])
        defaults = dataclasses.asdict(nn.TrainConfig())
        assert {name: getattr(args, name) for name in defaults} == defaults

    def test_flags_reach_train_config(self, small_corpus, tmp_path, monkeypatch):
        configs = []

        def no_training(net, patches, labels, config):
            configs.append(config)
            raise RuntimeError("not training")

        monkeypatch.setattr(nn, "train", no_training)
        data, _ = small_corpus
        assert run("train", "--data", str(data), "--out", str(tmp_path / "n.txt"),
                   "--lr", "0.01", "--momentum", "0.5", "--weight-decay", "0.002",
                   "--batch-size", "16", "--epochs", "3", "--holdout", "0.25",
                   "--seed", "7") == 1
        assert configs == [nn.TrainConfig(
            learning_rate=0.01, momentum=0.5, weight_decay=0.002, batch_size=16,
            max_epochs=3, holdout_fraction=0.25, seed=7,
        )]

    def test_missing_data_file(self, tmp_path):
        assert run("train", "--data", str(tmp_path / "nope.nccd"),
                   "--out", str(tmp_path / "n.txt")) == 1


class TestExportFilter:
    @pytest.fixture()
    def net_path(self, tmp_path):
        net = nn.init_network(num_filters=2, filter_size=15, seed=5)
        path = tmp_path / "net.txt"
        nn.save_network(net, path)
        return path

    def test_float_export(self, net_path, tmp_path):
        out = tmp_path / "f.txt"
        assert run("export-filter", "--net", str(net_path), "--index", "1",
                   "--out", str(out)) == 0
        grid = gridio.read_grid(out)
        net = nn.load_network(net_path)
        assert np.array_equal(grid, net.filters[1])

    def test_fixed_export(self, net_path, tmp_path):
        out = tmp_path / "q.txt"
        assert run("export-filter", "--net", str(net_path), "--index", "0",
                   "--out", str(out), "--fixed") == 0
        raw, qf = fb.load_quantized_filter(out)
        assert raw.shape == (15, 15)
        assert (qf.total_bits, qf.frac_bits) == (8, 7)
        assert np.max(np.abs(raw)) == qf.raw_max  # prescaled to full range

    def test_default_qformat_is_the_tap_format(self):
        args = _build_parser().parse_args(
            ["export-filter", "--net", "n", "--index", "0", "--out", "o"])
        assert fb.QFormat(*args.qformat) == fb.TAP_QFORMAT

    def test_fixed_export_in_given_qformat(self, net_path, tmp_path):
        out = tmp_path / "q.txt"
        assert run("export-filter", "--net", str(net_path), "--index", "0",
                   "--out", str(out), "--fixed", "--qformat", "12", "10") == 0
        raw, qf = fb.load_quantized_filter(out)
        assert qf == fb.QFormat(12, 10)
        assert np.max(np.abs(raw)) == qf.raw_max

    def test_index_out_of_range(self, net_path, tmp_path):
        assert run("export-filter", "--net", str(net_path), "--index", "9",
                   "--out", str(tmp_path / "x.txt")) == 1


class TestFitHat:
    def test_fits_and_writes(self, tmp_path, capsys):
        target = fb.ricker_hat_grid(11)
        src = tmp_path / "target.txt"
        gridio.write_grid(target, src)
        out = tmp_path / "hat.txt"
        assert run("fit-hat", "--filter", str(src), "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "similarity=" in printed
        sim = float(printed.split("similarity=")[1].splitlines()[0])
        assert sim > 0.999
        fitted = gridio.read_grid(out)
        assert fitted.shape == (11, 11)
        assert abs(fitted.sum()) < 1e-9

    def test_flat_filter_fails_cleanly(self, tmp_path):
        src = tmp_path / "flat.txt"
        gridio.write_grid(np.zeros((9, 9)), src)
        assert run("fit-hat", "--filter", str(src)) == 1


class TestDetect:
    def test_detects_targets_in_frame(self, small_corpus, tmp_path):
        _, frames = small_corpus
        out = tmp_path / "dets.csv"
        code = run(
            "detect", "--frame", str(frames / "frame_0000.txt"),
            "--method", "gauss-1.2", "--threshold", "0.5",
            "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "row,col,score"
        dets = [tuple(map(float, r.split(","))) for r in rows[1:]]
        _, truths = dg.read_frames(frames)
        hits = sum(
            1 for t in truths[0]
            if any(np.hypot(d[0] - t[0], d[1] - t[1]) <= 2.0 for d in dets)
        )
        assert hits >= len(truths[0]) - 1  # bright seeded targets score high

    def test_unknown_method(self, small_corpus, tmp_path):
        _, frames = small_corpus
        assert run("detect", "--frame", str(frames / "frame_0000.txt"),
                   "--method", "sobel", "--threshold", "0") == 1

    def test_missing_frame(self, tmp_path):
        assert run("detect", "--frame", str(tmp_path / "no.txt"),
                   "--method", "gauss-1.2", "--threshold", "0") == 1

    @pytest.mark.parametrize("radius", ["-7", "nan"])
    def test_bad_nms_radius_fails_cleanly(self, small_corpus, tmp_path, capsys,
                                          radius):
        _, frames = small_corpus
        assert run("detect", "--frame", str(frames / "frame_0000.txt"),
                   "--method", "hat7-fixed-mad", "--threshold", "0",
                   "--nms-radius", radius) == 1
        assert "nms_radius must be finite and >= 0" in capsys.readouterr().err

    def test_non_square_filter_fails_cleanly(self, small_corpus, tmp_path, capsys):
        _, frames = small_corpus
        gridio.write_grid(np.arange(15.0).reshape(5, 3), tmp_path / "f.txt")
        assert run("detect", "--frame", str(frames / "frame_0000.txt"),
                   "--method", f"filter:{tmp_path / 'f.txt'}",
                   "--threshold", "0") == 1
        assert "filter must be square" in capsys.readouterr().err

    def test_non_square_qfilter_fails_cleanly(self, small_corpus, tmp_path, capsys):
        _, frames = small_corpus
        path = tmp_path / "q.txt"
        path.write_text("qfilter 1\nqformat 8 7\n3 4\n" + "1 -2 3 -2\n" * 3)
        assert run("detect", "--frame", str(frames / "frame_0000.txt"),
                   "--method", f"qfilter:{path}", "--threshold", "0") == 1
        assert "tap block must be square, got 3x4" in capsys.readouterr().err

    def test_nan_threshold_fails_cleanly(self, small_corpus, capsys):
        _, frames = small_corpus
        assert run("detect", "--frame", str(frames / "frame_0000.txt"),
                   "--method", "hat7-fixed-mad", "--threshold", "nan") == 1
        assert "threshold must be a number, got nan" in capsys.readouterr().err

    def test_non_finite_frame_fails_cleanly(self, tmp_path, capsys):
        # write_grid refuses NaN, so put the bad value (9, 9) into the text
        lines = gridio.format_grid(np.full((20, 20), 100.0)).splitlines()
        lines[10] = " ".join(["100.0"] * 9 + ["nan"] + ["100.0"] * 10)
        path = tmp_path / "nan.txt"
        path.write_text("\n".join(lines) + "\n")
        assert run("detect", "--frame", str(path),
                   "--method", "hat15-ideal", "--threshold", "0") == 1
        assert "non-finite" in capsys.readouterr().err


class TestBenchAndRoc:
    def test_bench_writes_report(self, small_corpus, tmp_path, capsys):
        _, frames = small_corpus
        out = tmp_path / "report"
        code = run(
            "bench", "--data", str(frames),
            "--methods", "gauss-1.2,mad-ratio",
            "--out-dir", str(out), "--thresholds", "64",
        )
        assert code == 0
        roc = (out / "roc.csv").read_text().splitlines()
        assert roc[0] == "method,threshold,hit_rate,fa_per_frame"
        assert len(roc) == 1 + 2 * 64
        auc = (out / "auc.csv").read_text().splitlines()
        assert auc[0] == "method,auc,ms_per_frame"
        printed = capsys.readouterr().out
        assert "gauss-1.2: auc=" in printed

    def test_no_timing_reruns_byte_identical(self, small_corpus, tmp_path):
        _, frames = small_corpus
        for name in ("a", "b"):
            assert run(
                "bench", "--data", str(frames),
                "--methods", "gauss-1.2,hat9-fixed-mad",
                "--out-dir", str(tmp_path / name),
                "--thresholds", "32", "--no-timing",
            ) == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_roc_resweep_matches(self, small_corpus, tmp_path):
        _, frames = small_corpus
        orig = tmp_path / "orig"
        assert run(
            "bench", "--data", str(frames), "--methods", "mad-ratio",
            "--out-dir", str(orig), "--thresholds", "32", "--no-timing",
        ) == 0
        again = tmp_path / "again"
        assert run("roc", "--scores", str(orig), "--out-dir", str(again)) == 0
        assert dir_bytes(orig) == dir_bytes(again)

    @pytest.mark.parametrize("flag, radius", [
        ("--match-radius", "-2"), ("--match-radius", "nan"),
        ("--nms-radius", "-7"), ("--nms-radius", "nan"),
    ])
    def test_bad_radius_fails_cleanly(self, small_corpus, tmp_path, capsys,
                                      flag, radius):
        _, frames = small_corpus
        assert run("bench", "--data", str(frames), "--methods", "hat7-fixed-mad",
                   "--out-dir", str(tmp_path / "r"), flag, radius) == 1
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite and >= 0" in capsys.readouterr().err

    def test_roc_rejects_bad_stored_radius(self, small_corpus, tmp_path, capsys):
        _, frames = small_corpus
        orig = tmp_path / "orig"
        assert run(
            "bench", "--data", str(frames), "--methods", "mad-ratio",
            "--out-dir", str(orig), "--thresholds", "8", "--no-timing",
        ) == 0
        meta = orig / "meta.csv"
        meta.write_text(meta.read_text().replace("match_radius,2.0", "match_radius,nan"))
        assert run("roc", "--scores", str(orig), "--out-dir", str(tmp_path / "a")) == 1
        assert "match_radius must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("score", ["nan", "inf"])
    def test_roc_rejects_non_finite_stored_score(self, small_corpus, tmp_path,
                                                 capsys, score):
        _, frames = small_corpus
        orig = tmp_path / "orig"
        assert run(
            "bench", "--data", str(frames), "--methods", "mad-ratio",
            "--out-dir", str(orig), "--thresholds", "8", "--no-timing",
        ) == 0
        dump = orig / "detections" / "mad-ratio.csv"
        header, *rows = dump.read_text().splitlines()
        dump.write_text("\n".join([header, f"0,5,5,{score}"] + rows) + "\n")
        assert run("roc", "--scores", str(orig), "--out-dir", str(tmp_path / "a")) == 1
        err = capsys.readouterr().err
        assert f"mad-ratio.csv: line 2: score must be finite, got {score}\n" in err

    @pytest.mark.parametrize("text, message", [
        ("frame,r,c\n", "truths.csv: bad header"),
        ("frame,row,col\nframe_0000.txt,5\n", "truths.csv: line 2: expected 3"),
        ("frame,row,col\nframe_0000.txt,5,x\n", "truths.csv: line 2: invalid"),
    ])
    def test_malformed_truths_fail_cleanly(self, small_corpus, tmp_path, capsys,
                                           text, message):
        _, frames = small_corpus
        copy = tmp_path / "frames"
        shutil.copytree(frames, copy)
        (copy / "truths.csv").write_text(text)
        assert run("bench", "--data", str(copy), "--methods", "mad-ratio",
                   "--out-dir", str(tmp_path / "r")) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, message", [
        ("truths.csv", lambda t: t + "99,5,5\n",
         "frame must be an integer in [0, 3], got 99\n"),
        ("truths.csv", lambda t: t + "-1,5,5\n",
         "frame must be an integer in [0, 3], got -1\n"),
        ("detections/mad-ratio.csv", lambda t: t + "7,5,5,1.0\n",
         "frame must be an integer in [0, 3], got 7\n"),
        ("meta.csv", lambda t: t.replace("frame_count,4\n", ""),
         "meta.csv: missing frame_count"),
        ("meta.csv", lambda t: t.replace("frame_count,4", "frame_count,-3"),
         "meta.csv: frame_count must be an integer >= 1, got -3\n"),
        ("meta.csv", lambda t: t.replace("threshold_count,8", "threshold_count,abc"),
         "meta.csv: threshold_count must be an integer >= 1, got 'abc'"),
        ("meta.csv", lambda t: t.replace("nms_radius,7.0", "nms_radius,x"),
         "meta.csv: nms_radius must be finite and >= 0, got 'x'"),
        ("meta.csv", lambda t: t.replace("match_radius,2.0", "match_radius,-1"),
         "meta.csv: match_radius must be finite and >= 0, got -1.0\n"),
    ], ids=["truth-99", "truth-minus-1", "detection-7", "meta-no-frame-count",
            "meta-frame-count-minus-3", "meta-threshold-count-abc",
            "meta-nms-radius-x", "meta-match-radius-minus-1"])
    def test_roc_rejects_bad_report_rows(self, small_corpus, tmp_path, capsys,
                                         name, edit, message):
        _, frames = small_corpus
        orig = tmp_path / "orig"
        assert run(
            "bench", "--data", str(frames), "--methods", "mad-ratio",
            "--out-dir", str(orig), "--thresholds", "8", "--no-timing",
        ) == 0
        path = orig / name
        path.write_text(edit(path.read_text()))
        assert run("roc", "--scores", str(orig), "--out-dir", str(tmp_path / "a")) == 1
        err = capsys.readouterr().err
        assert message in err
        if name != "meta.csv":
            lines = len(path.read_text().splitlines())
            assert f"{path}: line {lines}: " in err

    @pytest.mark.parametrize("names", [("mad-ratio", "mad-ratio"),
                                       ("filter:a/f.txt", "filter:a_f.txt")],
                             ids=["same-method", "same-dump-file"])
    def test_methods_sharing_a_dump_fail_before_writing(self, small_corpus, tmp_path,
                                                        capsys, monkeypatch, names):
        _, frames = small_corpus
        monkeypatch.chdir(tmp_path)
        os.mkdir("a")
        for path in ("a/f.txt", "a_f.txt"):
            gridio.write_grid(fb.gaussian_grid(7, 1.2), path)
        assert run("bench", "--data", str(frames), "--methods", ",".join(names),
                   "--out-dir", "r", "--thresholds", "8") == 1
        err = capsys.readouterr().err
        assert f"methods {names[0]!r} and {names[1]!r} would share detections/" in err
        assert not os.path.exists("r")

    @pytest.mark.parametrize("methods, message", [
        ("hat15-ideal,hat15-ideal",
         "methods 'hat15-ideal' and 'hat15-ideal' would share detections/"),
        ("hat15-ideal,nosuch", "unknown method 'nosuch'"),
    ], ids=["same-method", "unknown-method"])
    def test_bad_method_list_fails_before_scoring(self, small_corpus, tmp_path,
                                                  capsys, monkeypatch, methods,
                                                  message):
        _, frames = small_corpus
        scored = []
        monkeypatch.setattr(bn, "detect_candidates",
                            lambda *args, **kw: scored.append(args))
        assert run("bench", "--data", str(frames), "--methods", methods,
                   "--out-dir", str(tmp_path / "r")) == 1
        assert message in capsys.readouterr().err
        assert scored == []

    @pytest.mark.parametrize("flag, value, message", [
        # the id names the message before counts were checked as numbers
        pytest.param("--thresholds", "0", "threshold_count must be an integer >= 1, got 0\n",
                     id="--thresholds-0-threshold_count must be an integer >= 1, got '0'"),
        ("--match-radius", "nan", "match_radius must be finite and >= 0"),
        ("--match-radius", "-1", "match_radius must be finite and >= 0"),
        ("--nms-radius", "inf", "nms_radius must be finite and >= 0"),
    ])
    def test_bad_config_fails_before_scoring(self, small_corpus, tmp_path, capsys,
                                             monkeypatch, flag, value, message):
        _, frames = small_corpus
        scored = []
        monkeypatch.setattr(bn, "detect_candidates",
                            lambda *args, **kw: scored.append(args))
        assert run("bench", "--data", str(frames), "--methods", "hat15-ideal",
                   flag, value, "--out-dir", str(tmp_path / "r")) == 1
        assert message in capsys.readouterr().err
        assert scored == []

    def test_empty_method_list(self, small_corpus, tmp_path):
        _, frames = small_corpus
        assert run("bench", "--data", str(frames), "--methods", ",",
                   "--out-dir", str(tmp_path / "r")) == 1

    def test_missing_frames_dir(self, tmp_path):
        assert run("bench", "--data", str(tmp_path / "missing"),
                   "--methods", "mad-ratio",
                   "--out-dir", str(tmp_path / "r")) == 1

    def test_flags_checked_before_frames_are_read(self, tmp_path, capsys, monkeypatch):
        # a bad flag fails without reading the frame folder, even a missing one
        read = []
        monkeypatch.setattr(dg, "read_frames", lambda *args: read.append(args))
        assert run("bench", "--data", str(tmp_path / "nowhere"), "--methods", "mad-ratio",
                   "--thresholds", "0", "--out-dir", str(tmp_path / "r")) == 1
        assert "error: threshold_count must be an integer >= 1, got 0\n" in \
            capsys.readouterr().err
        assert read == []


@pytest.mark.skipif(shutil.which("nccbank") is None,
                    reason="console script not installed")
def test_console_entry_point():
    proc = subprocess.run(["nccbank", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "datagen" in proc.stdout


def test_package_imports_without_scipy():
    # numpy is the only runtime dependency: no module of the package may
    # pull SciPy in, directly or through another import
    code = (
        "import importlib, pkgutil, sys, nccbank\n"
        "for m in pkgutil.iter_modules(nccbank.__path__):\n"
        "    importlib.import_module('nccbank.' + m.name)\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
