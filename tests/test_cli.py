"""End-to-end tests of the command-line interface (in-process)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kooplift as kl
from kooplift import cli
from kooplift.edmd import CHUNK
from kooplift.models import (MODEL_FORMAT, extract_normal, load_model, rollout,
                             states_from_lifted, with_decoder)
from kooplift.observables import DICTIONARY_FORMAT


def _run(argv):
    return cli.main(argv)


def _read_csv_matrix(path):
    """Parse a stamped CSV: drop comment lines and the header row."""
    lines = [ln for ln in path.read_text().strip().split("\n")
             if ln and not ln.startswith("#")]
    return np.array([[float(p) for p in ln.split(",")] for ln in lines[1:]])


@pytest.fixture(scope="module")
def poly_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("polydata")
    rc = _run(["simulate", "--system", "example_poly", "--experiments", "100",
               "--steps", "5", "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out / "snapshots.csv"


@pytest.fixture(scope="module")
def poly_model_file(poly_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = _run(["extract", "--data", str(poly_dataset),
               "--dictionary", "example_poly_basis", "--out", str(out)])
    assert rc == 0
    return out / "model.json"


class TestSimulate:
    def test_motor_dataset_row_count(self, tmp_path):
        rc = _run(["simulate", "--system", "dc_motor_tanh",
                   "--experiments", "200", "--steps", "10", "--seed", "7",
                   "--out", str(tmp_path)])
        assert rc == 0
        ss = kl.load_snapshots(tmp_path / "snapshots.csv")
        assert ss.n_snapshots == 2000
        first = (tmp_path / "snapshots.csv").read_text().split("\n")[0]
        assert first.startswith("# kooplift")
        assert "seed=7" in first

    def test_rerun_byte_identical(self, tmp_path):
        args = ["simulate", "--system", "example_poly", "--experiments", "20",
                "--steps", "5", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(args + ["--out", str(a)]) == 0
        assert _run(args + ["--out", str(b)]) == 0
        assert (a / "snapshots.csv").read_bytes() == \
            (b / "snapshots.csv").read_bytes()

    @pytest.mark.parametrize("mode, digest", [
        ("constant", "6ebd25baa6093de168141877e2ac24f05838c1d40db2acb9246fe4e1df85c300"),
        ("piecewise", "f962d590664983788573073d5ce9fdbd35cee42e448c62592fb47d2810aa96b8"),
    ])
    def test_snapshot_bytes_are_pinned(self, tmp_path, mode, digest):
        # Digests of the files the one-line-per-row repr writer produced.
        rc = _run(["simulate", "--system", "example_poly", "--experiments", "200",
                   "--seed", "3", "--mode", mode, "--out", str(tmp_path)])
        assert rc == 0
        data = (tmp_path / "snapshots.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_unknown_system_lists_builtins(self, tmp_path, capsys):
        rc = _run(["simulate", "--system", "pendulum", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "example_poly" in err and "dc_motor_tanh" in err


class TestEdmd:
    def test_matrix_matches_library_fit(self, poly_dataset, tmp_path):
        rc = _run(["edmd", "--data", str(poly_dataset),
                   "--dictionary", "example_poly_basis",
                   "--out", str(tmp_path)])
        assert rc == 0
        K_cli = _read_csv_matrix(tmp_path / "K.csv")

        ss = kl.load_snapshots(poly_dataset)
        aug = kl.to_augmented(ss)
        nd = kl.example_poly_normal_basis()
        fit = kl.fit_edmd(nd.eval_aug(aug.Z), nd.eval_aug(aug.Zplus))
        np.testing.assert_allclose(K_cli, fit.K, atol=1e-12)

        report = json.loads((tmp_path / "edmd_report.json").read_text())
        assert report["s"] == 8
        assert report["n_snapshots"] == aug.n_snapshots
        assert report["rank_report"]["row_rank_ok_X"] is True

    def test_malformed_csv_names_line(self, poly_dataset, tmp_path, capsys):
        lines = poly_dataset.read_text().split("\n")
        lines[3] = lines[3].rsplit(",", 1)[0]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        rc = _run(["edmd", "--data", str(bad),
                   "--dictionary", "example_poly_basis",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "line 4" in capsys.readouterr().err


class TestNonFiniteData:
    @pytest.mark.parametrize("command", ["edmd", "consistency", "extract"])
    @pytest.mark.parametrize("field, value, matrix", [(0, "1e300", "Psi(X)"),
                                                      (3, "nan", "Psi(Xplus)")],
                             ids=["huge_x1", "nan_x1p"])
    def test_exit_4_names_the_matrix_and_snapshot(self, poly_dataset, tmp_path, capsys,
                                                  command, field, value, matrix):
        lines = poly_dataset.read_text().split("\n")
        row = lines[2 + 7].split(",")  # snapshot 7, after the stamp and the header
        row[field] = value
        lines[2 + 7] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = _run([command, "--data", str(bad), "--dictionary", "example_poly_basis",
                       "--out", str(tmp_path)])
        assert rc == 4
        assert f"numerical failure: {matrix} is not finite at snapshot 7" in capsys.readouterr().err


class TestConsistency:
    def test_invariant_dictionary_and_stamp(self, poly_dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = _run(["consistency", "--data", str(poly_dataset),
                       "--dictionary", "example_poly_basis",
                       "--out", str(out)])
            assert rc == 0
        payload = json.loads((a / "consistency.json").read_text())
        assert payload["index"] <= 1e-10
        meta = payload["meta"]
        assert meta["tool"] == "kooplift"
        assert meta["version"] == kl.__version__
        assert len(meta["config_hash"]) == 12
        assert (a / "consistency.json").read_bytes() == \
            (b / "consistency.json").read_bytes()
        assert (a / "timing.json").exists()


class TestExtractPredict:
    def test_extract_report_and_model(self, poly_model_file):
        model = load_model(poly_model_file)
        assert model.s == 8 and model.l == 4
        assert model.source_index <= 1e-8
        report = json.loads(
            (poly_model_file.parent / "extract_report.json").read_text())
        assert report["source_index"] <= 1e-8
        assert report["meta"]["config_hash"] == \
            json.loads(poly_model_file.read_text())["meta"]["config_hash"]

    def test_predict_matches_library_rollout(self, poly_model_file, tmp_path):
        rng = np.random.default_rng(19)
        U = rng.uniform(-1, 1, size=20)
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1\n" + "\n".join(repr(float(v)) for v in U) + "\n")
        rc = _run(["predict", "--model", str(poly_model_file),
                   "--x0", "0.3,-0.4", "--inputs", str(inputs),
                   "--out", str(tmp_path)])
        assert rc == 0
        pred = _read_csv_matrix(tmp_path / "prediction.csv")
        assert pred.shape == (21, 3)

        model = load_model(poly_model_file)
        Z = rollout(model, [0.3, -0.4], U[None, :], input_dim=1)
        want = states_from_lifted(model, Z)
        np.testing.assert_allclose(pred[:, 1:], want.T, atol=1e-12)

    def test_headless_chain_matches_library(self, poly_dataset, tmp_path):
        """simulate -> extract -> predict on a dictionary with no state head."""
        nd = kl.parametric_family("polynomial", state_dim=2, input_dim=1, s=8,
                                  l=5, fixed_head=None, total_degree=2, seed=2)
        dict_path = tmp_path / "dictionary.json"
        kl.save_dictionary(nd, dict_path)
        assert _run(["extract", "--data", str(poly_dataset),
                     "--dictionary", str(dict_path), "--out", str(tmp_path)]) == 0
        U = np.random.default_rng(19).uniform(-1, 1, size=20)
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1\n" + "\n".join(repr(float(v)) for v in U) + "\n")
        rc = _run(["predict", "--model", str(tmp_path / "model.json"),
                   "--x0", "0.3,-0.4", "--inputs", str(inputs),
                   "--out", str(tmp_path)])
        assert rc == 0
        pred = _read_csv_matrix(tmp_path / "prediction.csv")

        ss = kl.load_snapshots(poly_dataset)
        aug = kl.to_augmented(ss)
        nd = kl.load_dictionary(dict_path)
        rep = kl.invariance_proximity(nd, aug)
        model = extract_normal(rep.fit, nd, source_index=rep)
        assert model.readout_rows() is None
        model = with_decoder(model, ss.X)
        Z = rollout(model, [0.3, -0.4], U[None, :], input_dim=1)
        np.testing.assert_array_equal(pred[:, 1:], states_from_lifted(model, Z).T)

    def test_headless_learned_chain_matches_library(self, poly_dataset, tmp_path):
        """simulate -> learn -> extract -> predict on a learned family with no state head."""
        config = {
            "family": {"kind": "polynomial", "total_degree": 2, "fixed_head": None},
            "s": 8, "l": 5, "epochs": 2, "batch_size": 50,
            "lr_start": 1e-2, "lr_end": 1e-3, "seed": 6,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert _run(["learn", "--data", str(poly_dataset), "--config", str(config_path),
                     "--out", str(tmp_path / "learn")]) == 0
        dict_path = tmp_path / "learn" / "dictionary.json"
        assert _run(["extract", "--data", str(poly_dataset), "--dictionary",
                     str(dict_path), "--out", str(tmp_path / "extract")]) == 0
        U = np.random.default_rng(23).uniform(-1, 1, size=15)
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1\n" + "\n".join(repr(float(v)) for v in U) + "\n")
        assert _run(["predict", "--model", str(tmp_path / "extract" / "model.json"),
                     "--x0", "-0.2,0.5", "--inputs", str(inputs),
                     "--out", str(tmp_path / "predict")]) == 0
        pred = _read_csv_matrix(tmp_path / "predict" / "prediction.csv")

        ss = kl.load_snapshots(poly_dataset)
        aug = kl.to_augmented(ss)
        nd, report = kl.learning.train(kl.learning.config_from_json(config), aug)
        assert nd.fixed_head == ()
        cli_report = json.loads((tmp_path / "learn" / "train_report.json").read_text())
        assert cli_report["final_proximity_train"] == report.final_proximity_train
        np.testing.assert_array_equal(kl.load_dictionary(dict_path).get_params(),
                                      nd.get_params())
        rep = kl.invariance_proximity(nd, aug)
        model = extract_normal(rep.fit, nd, source_index=rep)
        assert model.readout_rows() is None
        model = with_decoder(model, ss.X)
        saved = load_model(tmp_path / "extract" / "model.json")
        np.testing.assert_array_equal(saved.A11, model.A11)
        np.testing.assert_array_equal(saved.decoder[0], model.decoder[0])
        Z = rollout(model, [-0.2, 0.5], U[None, :], input_dim=1)
        np.testing.assert_array_equal(pred[:, 1:], states_from_lifted(model, Z).T)

    def test_negative_leading_x0_both_spellings(self, poly_model_file, tmp_path):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1\n0.5\n-0.3\n0.1\n")
        model = str(poly_model_file)
        for name, x0 in (("separate", ["--x0", "-1.2,3"]), ("joined", ["--x0=-1.2,3"])):
            out = str(tmp_path / name)
            assert _run(["predict", "--model", model, *x0,
                         "--inputs", str(inputs), "--out", out]) == 0
            assert _run(["compare", "--system", "example_poly", "--models", model,
                         model, "--steps", "20", *x0, "--out", out]) == 0
        for fname in ("prediction.csv", "rmse.json", "rmse.csv", "trajectory.csv"):
            a = (tmp_path / "separate" / fname).read_bytes()
            assert a == (tmp_path / "joined" / fname).read_bytes(), fname
        pred = _read_csv_matrix(tmp_path / "separate" / "prediction.csv")
        np.testing.assert_array_equal(pred[0, 1:], [-1.2, 3.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_diverging_rollout_exits_4(self, poly_model_file, tmp_path, capsys):
        payload = json.loads(poly_model_file.read_text())
        payload["A11"] = (np.asarray(payload["A11"]) * 1e200).tolist()
        blown = tmp_path / "model.json"
        blown.write_text(json.dumps(payload))
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1\n" + "0.1\n" * 10)
        out = tmp_path / "out"
        rc = _run(["predict", "--model", str(blown), "--x0", "0.3,-0.4",
                   "--inputs", str(inputs), "--out", str(out)])
        assert rc == 4
        assert "diverged" in capsys.readouterr().err
        assert not (out / "prediction.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered",
                                "ignore:invalid value encountered")
    def test_diverging_rollout_leaves_no_files(self, poly_model_file, tmp_path):
        """No output means no timing sidecar: the directory is never made."""
        payload = json.loads(poly_model_file.read_text())
        payload["A11"] = (np.asarray(payload["A11"]) * 1e200).tolist()
        blown = tmp_path / "model.json"
        blown.write_text(json.dumps(payload))
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1\n" + "0.1\n" * 10)
        out = tmp_path / "out"
        rc = _run(["predict", "--model", str(blown), "--x0", "0.3,-0.4",
                   "--inputs", str(inputs), "--out", str(out)])
        assert rc == 4
        assert not (out / "prediction.csv").exists()
        assert not (out / "timing.json").exists()

    def test_empty_input_sequence_rejected(self, poly_model_file, tmp_path,
                                           capsys):
        inputs = tmp_path / "empty.csv"
        inputs.write_text("u1\n")
        rc = _run(["predict", "--model", str(poly_model_file),
                   "--x0", "0.0,0.0", "--inputs", str(inputs),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "empty" in capsys.readouterr().err


class TestPredictInputs:
    """``predict --inputs``: the input-sequence CSV reader."""

    @staticmethod
    def _predict(model, inputs, out):
        return _run(["predict", "--model", str(model), "--x0", "0.3,-0.4",
                     "--inputs", str(inputs), "--out", str(out)])

    def test_header_blank_and_comment_lines_are_optional(self, poly_model_file, tmp_path):
        texts = {
            "plain": "u1\n0.5\n-0.3\n0.1\n",
            "headless": "0.5\n-0.3\n0.1",
            "commented": "# inputs\n\nu1\n0.5\n  \n# mid\n-0.3\r\n0.1\n\n",
            "headless_commented": "# inputs\n0.5\n# mid\n-0.3\n0.1\n",
        }
        for name, text in texts.items():
            (tmp_path / f"{name}.csv").write_text(text)
            assert self._predict(poly_model_file, tmp_path / f"{name}.csv", tmp_path / name) == 0
        want = (tmp_path / "plain" / "prediction.csv").read_text().split("\n")[1:]
        assert len(want) == 6  # header, x0, three steps and the empty text after the last newline
        for name in texts:
            # The stamp line hashes the input file; the rows must agree.
            got = (tmp_path / name / "prediction.csv").read_text().split("\n")[1:]
            assert got == want, name

    @pytest.mark.parametrize("text, want", [
        ("u1\n0.5\n0.5,0.3\n0.1\n", "line 3 (expected 1 fields)"),
        ("0.5\n\n0.1,0.2\n", "line 3 (expected 1 fields)"),
        ("# c\nu1\n0.5\n# mid\nabc\n", "line 5 (non-numeric field)"),
        ("u1\n0.5\n1_0\n", "line 3 (non-numeric field)"),
    ], ids=["ragged", "ragged_headless", "non_numeric", "underscore"])
    def test_malformed_row_names_line(self, poly_model_file, tmp_path, capsys, text, want):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text(text)
        assert self._predict(poly_model_file, inputs, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {inputs}: malformed CSV row at {want}\n"
        assert not (tmp_path / "prediction.csv").exists()

    @pytest.mark.parametrize("text", ["", "# c\n\nu1\n  \n# d\n", "\n\n"])
    def test_empty_sequence_rejected(self, poly_model_file, tmp_path, capsys, text):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text(text)
        assert self._predict(poly_model_file, inputs, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {inputs}: input sequence is empty\n"


class TestCompare:
    def test_requires_two_models(self, poly_model_file, tmp_path, capsys):
        rc = _run(["compare", "--system", "example_poly",
                   "--models", str(poly_model_file), "--out", str(tmp_path)])
        assert rc == 2
        assert "at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_fewer_than_one_step_exits_2(self, poly_model_file, tmp_path, capsys, steps):
        rc = _run(["compare", "--system", "example_poly", "--models", str(poly_model_file),
                   str(poly_model_file), "--steps", steps, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"need at least 1 rollout step, got {steps}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_against_itself(self, poly_model_file, tmp_path):
        rc = _run(["compare", "--system", "example_poly",
                   "--models", str(poly_model_file), str(poly_model_file),
                   "--steps", "50", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "rmse.json").read_text())
        names = sorted(payload["rmse"])
        assert names == ["model", "model_2"]
        a = payload["rmse"]["model"]["rmse"]
        b = payload["rmse"]["model_2"]["rmse"]
        assert a == b
        assert max(a) <= 1e-8

        table = (tmp_path / "rmse.csv").read_text().strip().split("\n")
        assert table[1] == "model,state,rmse"
        assert len(table) == 6

        traj = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        header = traj[1].split(",")
        assert header[:4] == ["step", "u1", "truth_x1", "truth_x2"]
        assert "model_x1" in header and "model_2_x2" in header
        assert len(traj) == 2 + 51


class TestSwitchedModelFile:
    """A saved switched model runs through ``predict``, but not ``compare``."""

    PATH = Path(__file__).parent / "fixtures" / "model_switched.json"
    VALUES = (-1.0, 0.0, 0.5)  # the model's fitted inputs

    def test_predict_matches_library_rollout(self, tmp_path):
        model = load_model(self.PATH)
        assert sorted(model.matrices) == [(v,) for v in self.VALUES]
        U = np.random.default_rng(20).choice(self.VALUES, size=(1, 20))
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1\n" + "\n".join(repr(float(v)) for v in U[0]) + "\n")
        assert _run(["predict", "--model", str(self.PATH), "--x0", "0.3,-0.4",
                     "--inputs", str(inputs), "--out", str(tmp_path)]) == 0
        pred = _read_csv_matrix(tmp_path / "prediction.csv")
        want = states_from_lifted(model, rollout(model, [0.3, -0.4], U))
        np.testing.assert_array_equal(pred[:, 1:], want.T)

    def test_compare_names_the_first_unknown_input(self, poly_model_file, tmp_path, capsys):
        # compare draws its test input from the continuous input box.
        rc = _run(["compare", "--system", "example_poly", "--models", str(poly_model_file),
                   str(self.PATH), "--steps", "10", "--seed", "5",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        lo, hi = kl.example_poly().input_box
        first = float(np.random.default_rng(5).uniform(lo, hi, size=(10, 1))[0, 0])
        assert f"no matrix fitted for input ({first!r},)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestLearn:
    def test_frozen_family_quick_run(self, poly_dataset, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"family": {"kind": "example_poly_basis"}, "seed": 4}))
        rc = _run(["learn", "--data", str(poly_dataset),
                   "--config", str(config), "--out", str(tmp_path)])
        assert rc == 0
        assert "final proximity" in capsys.readouterr().out

        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["final_proximity_train"] <= 1e-5
        assert report["aborted"] is False

        dictionary = json.loads((tmp_path / "dictionary.json").read_text())
        assert dictionary["meta"]["config_hash"] == \
            report["meta"]["config_hash"]
        curve_head = (tmp_path / "train_curve.csv").read_text().split("\n")[0]
        assert report["meta"]["config_hash"] in curve_head

        nd = kl.load_dictionary(tmp_path / "dictionary.json")
        assert nd.s == 8 and nd.l == 4

    def test_parametric_family_and_seed_override(self, tmp_path):
        out_data = tmp_path / "data"
        rc = _run(["simulate", "--system", "example_poly",
                   "--experiments", "200", "--steps", "1", "--seed", "21",
                   "--out", str(out_data)])
        assert rc == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "family": {"kind": "polynomial", "total_degree": 2, "seed": 1},
            "s": 7, "l": 4, "epochs": 2, "batch_size": 50,
            "lr_start": 1e-2, "lr_end": 1e-3, "seed": 0,
        }))
        rc = _run(["learn", "--data", str(out_data / "snapshots.csv"),
                   "--config", str(config), "--seed", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["meta"]["seed"] == 5
        assert len(report["train_curve"]) == 2

    def test_unknown_config_key_rejected(self, poly_dataset, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"family": {"kind": "example_poly_basis"}, "momentum": 0.9}))
        rc = _run(["learn", "--data", str(poly_dataset),
                   "--config", str(config), "--out", str(tmp_path)])
        assert rc == 2
        assert "momentum" in capsys.readouterr().err

    @pytest.mark.parametrize("family, key", [
        ({"kind": "polynomial", "total_degre": 2}, "total_degre"),
        ({"kind": "polynomial", "total_degree": 2, "widths": [4]}, "widths"),
        ({"kind": "example_poly_basis", "trunacte": ["u"]}, "trunacte"),
        ({"kind": "example_poly_basis", "seed": 1}, "seed"),
    ])
    def test_unknown_family_key_rejected(self, poly_dataset, tmp_path, capsys, family, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": family, "s": 7, "l": 4, "epochs": 1}))
        rc = _run(["learn", "--data", str(poly_dataset),
                   "--config", str(config), "--out", str(tmp_path)])
        assert rc == 2
        assert repr(key) in capsys.readouterr().err

    def test_family_is_checked_before_the_data_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": {"kind": "polynomial", "total_degre": 2},
                                      "s": 7, "l": 4}))
        rc = _run(["learn", "--data", str(tmp_path / "nope.csv"),
                   "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'family.total_degre'" in err and "nope.csv" not in err

    def test_unknown_family_kind_rejected(self, poly_dataset, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": {"kind": "polynomal"}, "s": 7, "l": 4}))
        rc = _run(["learn", "--data", str(poly_dataset),
                   "--config", str(config), "--out", str(tmp_path)])
        assert rc == 2
        assert "'polynomal'" in capsys.readouterr().err


class TestDataFile:
    @pytest.mark.parametrize("command", ["edmd", "consistency", "extract", "learn"])
    def test_missing_data_file_exits_2(self, tmp_path, capsys, command):
        extra = (["--config", str(tmp_path / "config.json")] if command == "learn"
                 else ["--dictionary", "example_poly_basis"])
        (tmp_path / "config.json").write_text(json.dumps({"family": {"kind": "example_poly_basis"}}))
        rc = _run([command, "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)] + extra)
        assert rc == 2
        assert "nope.csv does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", ["{bad", "[]", '"x"'])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, manifest):
        rc = _run(["simulate", "--system", "example_poly", "--experiments", "20",
                   "--steps", "5", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        (tmp_path / "snapshots.manifest.json").write_text(manifest)
        rc = _run(["consistency", "--data", str(tmp_path / "snapshots.csv"),
                   "--dictionary", "example_poly_basis", "--out", str(tmp_path)])
        assert rc == 2
        assert "snapshots.manifest.json: snapshot manifest is not" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["edmd", "consistency", "extract", "learn"])
    def test_data_file_hashed_once_and_not_parsed(self, poly_dataset, tmp_path, monkeypatch,
                                                  command):
        """The command's digest stamps the outputs and vouches for the binary copy."""
        hashed, parsed = [], []
        sha256, read_rows = kl.dynamics._sha256, kl.dynamics._read_rows

        def counted_sha256(path):
            hashed.append(Path(path))
            return sha256(path)

        def counted_read_rows(*args):
            parsed.append(args[0])
            return read_rows(*args)

        monkeypatch.setattr(cli, "_sha256", counted_sha256)
        monkeypatch.setattr(kl.dynamics, "_sha256", counted_sha256)
        monkeypatch.setattr(kl.dynamics, "_read_rows", counted_read_rows)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"family": {"kind": "example_poly_basis"}}))
        extra = (["--config", str(config)] if command == "learn"
                 else ["--dictionary", "example_poly_basis"])
        rc = _run([command, "--data", str(poly_dataset), "--out", str(tmp_path)] + extra)
        assert rc == 0
        assert hashed.count(poly_dataset) == 1
        assert parsed == []
        stamp_file = {"edmd": "edmd_report.json", "consistency": "consistency.json",
                      "extract": "extract_report.json", "learn": "train_report.json"}[command]
        meta = json.loads((tmp_path / stamp_file).read_text())["meta"]
        cfg = {"command": command, "data": sha256(poly_dataset)[:12]}
        if command == "learn":
            cfg["config"] = kl.learning.config_to_json(kl.learning.config_from_json(
                json.loads(config.read_text())))
        else:
            cfg.update(dictionary="example_poly_basis", tol=None)
        assert meta["config_hash"] == cli._config_hash(cfg)


class TestStampContract:
    """The ``meta.config_hash`` of each command is the hash of its documented config."""

    def test_predict_hash(self, poly_model_file, tmp_path):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1\n0.5\n-0.3\n")
        assert _run(["predict", "--model", str(poly_model_file), "--x0", "0.3,-0.4",
                     "--inputs", str(inputs), "--seed", "2", "--out", str(tmp_path)]) == 0
        cfg = {"command": "predict", "model": kl.dynamics._sha256(poly_model_file)[:12],
               "x0": "0.3,-0.4", "inputs": kl.dynamics._sha256(inputs)[:12]}
        head = (tmp_path / "prediction.csv").read_text().split("\n")[0]
        assert head == f"# kooplift {kl.__version__} seed=2 config={cli._config_hash(cfg)}"

    @pytest.mark.parametrize("x0", [None, "0.1,0.2"])
    def test_compare_hash(self, poly_model_file, tmp_path, x0):
        extra = [] if x0 is None else ["--x0", x0]
        assert _run(["compare", "--system", "example_poly", "--models", str(poly_model_file),
                     str(poly_model_file), "--steps", "10", "--seed", "5",
                     "--out", str(tmp_path)] + extra) == 0
        digest = kl.dynamics._sha256(poly_model_file)[:12]
        cfg = {"command": "compare", "system": "example_poly", "models": [digest, digest],
               "steps": 10, "seed": 5, "x0": x0, "dt": 0.005}
        meta = json.loads((tmp_path / "rmse.json").read_text())["meta"]
        assert meta == {"tool": "kooplift", "version": kl.__version__, "seed": 5,
                        "config_hash": cli._config_hash(cfg)}
        for name in ("rmse.csv", "trajectory.csv"):
            head = (tmp_path / name).read_text().split("\n")[0]
            assert head.endswith(f"config={cli._config_hash(cfg)}")


class TestFailedCommandOutputs:
    """Which files a command that fails leaves in ``--out``."""

    def test_aborted_learn_keeps_its_partial_outputs(self, poly_dataset, tmp_path, capsys):
        lines = poly_dataset.read_text().split("\n")
        rows = [i for i, ln in enumerate(lines)
                if ln and not ln.startswith("#") and not ln.startswith("x1")]
        for i in rows:
            lines[i] = ",".join(["nan"] + lines[i].split(",")[1:])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "family": {"kind": "polynomial", "total_degree": 2, "seed": 1},
            "s": 7, "l": 4, "epochs": 2, "batch_size": 50, "lr_start": 1e-2, "lr_end": 1e-3}))
        out = tmp_path / "out"
        rc = _run(["learn", "--data", str(bad), "--config", str(config), "--out", str(out)])
        assert rc == 4
        assert "aborted" in capsys.readouterr().err
        assert sorted(f.name for f in out.iterdir()) == [
            "dictionary.json", "timing.json", "train_curve.csv", "train_report.json"]
        assert json.loads((out / "train_report.json").read_text())["aborted"] is True
        assert json.loads((out / "timing.json").read_text())["command"] == "learn"


class TestTolOption:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--system", "example_poly"],
        ["learn", "--data", "d.csv", "--config", "c.json"],
        ["predict", "--model", "m.json", "--x0", "0,0", "--inputs", "u.csv"],
        ["compare", "--system", "example_poly", "--models", "a.json", "b.json"],
    ], ids=["simulate", "learn", "predict", "compare"])
    def test_rejected_where_there_is_no_cutoff(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            _run(argv + ["--tol", "1e-9", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, stamped", [("edmd", "edmd_report.json"),
                                                  ("consistency", "consistency.json"),
                                                  ("extract", "extract_report.json")])
    def test_dictionary_commands_hash_it(self, poly_dataset, tmp_path, command, stamped):
        assert _run([command, "--data", str(poly_dataset), "--dictionary",
                     "example_poly_basis", "--tol", "1e-9", "--out", str(tmp_path)]) == 0
        cfg = {"command": command, "data": kl.dynamics._sha256(poly_dataset)[:12],
               "dictionary": "example_poly_basis", "tol": 1e-9}
        meta = json.loads((tmp_path / stamped).read_text())["meta"]
        assert meta["config_hash"] == cli._config_hash(cfg)


def _dictionary_json(**edits):
    """A polynomial dictionary's JSON object, with top-level ``edits``."""
    nd = kl.parametric_family("polynomial", state_dim=2, input_dim=1, s=7, l=4, total_degree=2)
    return {**kl.dictionary_to_json(nd), **edits}


def _bilinear_model_json(**edits):
    """The bilinear golden model file's JSON object, with top-level ``edits``."""
    path = Path(__file__).parent / "fixtures" / "model_bilinear.json"
    return {**json.loads(path.read_text()), **edits}


def _config_json(**edits):
    """A short polynomial ``learn`` config, with ``edits``."""
    return {"family": {"kind": "polynomial", "total_degree": 2}, "s": 7, "l": 4,
            "epochs": 2, "batch_size": 50, **edits}


_EYE4 = np.eye(4).tolist()


def _as_switched(matrices):
    """An edit that makes a model file on the polynomial basis a switched one with ``matrices``."""

    def edit(obj):
        head = obj.pop("gtilde_descriptor")
        obj.clear()
        obj.update(format=MODEL_FORMAT, kind="switched", head_of=head, matrices=matrices)

    return edit


class TestMalformedInputFiles:
    """Config, model and dictionary files that are not what they claim exit 2."""

    @staticmethod
    def _argv(option, bad, poly_dataset, poly_model_file, tmp_path):
        inputs = tmp_path / "inputs.csv"
        inputs.write_text("u1\n0.5\n")
        return {
            "config": ["learn", "--data", str(poly_dataset), "--config", str(bad)],
            "model": ["predict", "--model", str(bad), "--x0", "0.3,-0.4",
                      "--inputs", str(inputs)],
            "models": ["compare", "--system", "example_poly",
                       "--models", str(poly_model_file), str(bad)],
            "dictionary": ["extract", "--data", str(poly_dataset), "--dictionary", str(bad)],
        }[option] + ["--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("option", ["config", "model", "models", "dictionary"])
    @pytest.mark.parametrize("text, want", [("{bad", "is not valid JSON"),
                                            ("[]", "is not a JSON object"),
                                            ('"x"', "is not a JSON object")],
                             ids=["not_json", "list", "string"])
    def test_names_the_file(self, poly_dataset, poly_model_file, tmp_path, capsys,
                            option, text, want):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = self._argv(option, bad, poly_dataset, poly_model_file, tmp_path)
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and want in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, obj, key", [
        ("config", {}, "'family'"),
        ("config", {"s": 7, "l": 4}, "'family'"),
        ("config", {"family": 3, "s": 7, "l": 4}, "'family' must be a JSON object"),
        ("model", {"format": MODEL_FORMAT}, "'kind'"),
        ("models", {"format": MODEL_FORMAT}, "'kind'"),
        ("dictionary", {"format": DICTIONARY_FORMAT}, "'kind'"),
        ("dictionary", {"format": DICTIONARY_FORMAT, "kind": "polynomial"}, "'dims'"),
        ("dictionary", {"format": DICTIONARY_FORMAT, "kind": "polynomial", "spec": {},
                        "dims": {"state_dim": 2, "input_dim": 1, "l": 4},
                        "fixed_head": True, "parameters": []}, "has no 'dims.s' key"),
        ("dictionary", {"format": DICTIONARY_FORMAT, "kind": "polynomial", "spec": {},
                        "dims": 3, "fixed_head": True, "parameters": []},
         "'dims' is not a JSON object"),
        ("config", _config_json(epochs="3"), "'epochs' must be an integer"),
        ("config", _config_json(s="6"), "'s' must be an integer"),
        ("config", _config_json(lr_start="x"), "'lr_start' must be a number"),
        ("config", _config_json(batch_size=2.5), "'batch_size' must be an integer"),
        ("config", _config_json(x_scale=[1.0]), "'x_scale' must be a numeric array of shape 2"),
        ("config", _config_json(family={"kind": "polynomial", "total_degree": "two"}),
         "'family.total_degree' must be an integer"),
        ("dictionary", _dictionary_json(parameters="x"), "'parameters' must be a numeric array"),
        ("dictionary", _dictionary_json(dims={"state_dim": 2, "input_dim": 1, "s": "6", "l": 4}),
         "'dims.s' must be an integer"),
        ("dictionary", _dictionary_json(spec={"total_degree": "two"}),
         "'spec.total_degree' must be an integer"),
        ("dictionary", _dictionary_json(x_scale=[1.0]),
         "'x_scale' must be a numeric array of shape 2"),
        ("dictionary", {"format": DICTIONARY_FORMAT, "kind": "example_poly_basis",
                        "truncate": 5}, "'truncate' must be a list of strings"),
        ("dictionary", _dictionary_json(spec={"total_degree": 2, "seed": 0, "widths": [4]}),
         "takes no 'widths' key ('spec.widths')"),
        ("dictionary", _dictionary_json(spec={"total_degre": 2, "seed": 0}),
         "takes no 'total_degre' key ('spec.total_degre')"),
        ("dictionary", _dictionary_json(spec={"total_degree": 2, "activation": "bogus"}),
         "'spec.activation' must be one of"),
        ("config", _config_json(family={"kind": "polynomial", "total_degree": 2, "seed": -1}),
         "'family.seed' must be >= 0"),
        ("config", _config_json(family={"kind": "polynomial", "total_degree": 2,
                                        "activation": "bogus"}),
         "'family.activation' must be one of"),
        ("config", _config_json(family={"kind": "mlp", "widths": [4], "fixed_head": [0, 0]}),
         "fixed_head [0, 0] must be at most l = 4 distinct state coordinates"),
        ("config", _config_json(seed=-2), "seed must be >= 0"),
        ("config", _config_json(ridge_scale=float("nan")), "'ridge_scale' must be finite"),
        ("dictionary", _dictionary_json(bogus=1), "takes no 'bogus' key ('bogus')"),
        ("dictionary", _dictionary_json(dims={"state_dim": 2, "input_dim": 1, "s": 7, "l": 4,
                                              "foo": 1}), "takes no 'foo' key ('dims.foo')"),
        ("dictionary", {"format": DICTIONARY_FORMAT, "kind": "example_poly_basis", "bogus": 1},
         "takes no 'bogus' key ('bogus')"),
        ("dictionary", {"format": DICTIONARY_FORMAT, "kind": "example_poly_basis",
                        "dims": {"state_dim": 2, "input_dim": 1, "s": 99, "l": 4}},
         "'dims' must be {'state_dim': 2, 'input_dim': 1, 's': 8, 'l': 4}"),
        ("dictionary", _dictionary_json(fixed_head_tags=["x2", "x1"]),
         "'fixed_head_tags' must be ['x1', 'x2']"),
        ("model", _bilinear_model_json(advisory="no"), "'advisory' must be true or false"),
    ], ids=["config_empty", "config_no_family", "config_family_not_object", "model", "models",
            "dictionary", "dictionary_no_dims", "dictionary_dims_without_s",
            "dictionary_dims_not_object", "config_epochs_string", "config_s_string",
            "config_lr_start_string", "config_batch_size_fraction", "config_x_scale_short",
            "config_total_degree_string", "dictionary_parameters_string",
            "dictionary_dims_s_string", "dictionary_total_degree_string",
            "dictionary_x_scale_short", "dictionary_truncate_number",
            "dictionary_widths_on_polynomial", "dictionary_misspelled_key",
            "dictionary_activation_unknown", "config_family_seed_negative",
            "config_activation_unknown", "config_fixed_head_repeated", "config_seed_negative",
            "config_ridge_scale_nan", "dictionary_unknown_key", "dictionary_dims_unknown_key",
            "dictionary_builtin_unknown_key", "dictionary_builtin_dims_disagree",
            "dictionary_fixed_head_tags_disagree", "model_advisory_string"])
    def test_names_the_missing_key(self, poly_dataset, poly_model_file, tmp_path, capsys,
                                   option, obj, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = self._argv(option, bad, poly_dataset, poly_model_file, tmp_path)
        assert _run(argv) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, want", [
        (lambda obj: obj.pop("A11"), "has no 'A11' key"),
        (lambda obj: obj.pop("gtilde_descriptor"), "has no 'gtilde_descriptor' key"),
        (lambda obj: obj.update(decoder={"D": [[1.0]]}), "has no 'decoder.residual' key"),
        (lambda obj: obj.update(A11=[[1.0]]), "'A11' must be a numeric array of shape 4 x 4"),
        (lambda obj: obj.update(A11="x"), "'A11' must be a numeric array"),
        (lambda obj: obj.update(A11=[[1, 2], [3]]), "'A11' must be a numeric array"),
        (lambda obj: obj.update(kind=["separable"]), "unknown model kind"),
        (lambda obj: obj.update(decoder={"D": [[1.0]], "residual": 0.1}),
         "'decoder.D' must be a numeric array of shape 2 x 4"),
        (lambda obj: obj.update(bogus=1), "takes no 'bogus' key ('bogus')"),
        (lambda obj: obj.update(decoder={"D": [[0.0] * 4] * 2, "residual": 0.1, "extra": 1}),
         "takes no 'extra' key ('decoder.extra')"),
        (lambda obj: obj.update(decoder={"D": [[0.0] * 4] * 2, "residual": -1.0}),
         "'decoder.residual' must be finite and >= 0.0"),
        (lambda obj: obj.update(source_index=-3.0),
         "'source_index' must be finite and >= 0.0 and <= 1.0"),
        (lambda obj: obj.update(source_index=float("inf")),
         "'source_index' must be finite and >= 0.0 and <= 1.0"),
        (lambda obj: obj.update(l=5), "'l' must be 4"),
        (lambda obj: obj.update(s=9), "'s' must be 8"),
        (lambda obj: obj.update(gtilde_descriptor=5), "not a kooplift dictionary JSON object"),
        (lambda obj: obj["gtilde_descriptor"]["dims"].pop("s"),
         "has no 'gtilde_descriptor.dims.s' key"),
        (lambda obj: obj["gtilde_descriptor"].update(bogus=1),
         "takes no 'bogus' key ('gtilde_descriptor.bogus')"),
        (_as_switched([]), "'matrices' must be a list of one or more objects"),
        (_as_switched([{"u": [0.0, 1.0], "A": _EYE4}]),
         "'matrices[0].u' must be a numeric array of shape 1"),
        (_as_switched([{"u": [0.0], "A": _EYE4}, {"u": [1.0], "A": [[1.0]]}]),
         "'matrices[1].A' must be a numeric array of shape 4 x 4"),
        (_as_switched([{"u": [0.0], "A": _EYE4}, {"u": [1.0], "A": [["x"] * 4] * 4}]),
         "'matrices[1].A' must be a numeric array"),
        (_as_switched([{"u": [0.5], "A": _EYE4}, {"u": [0.5], "A": _EYE4}]),
         "'matrices[1].u' repeats the input value [0.5]"),
    ], ids=["A11", "descriptor", "decoder_residual", "A11_1x1", "A11_string", "A11_ragged",
            "kind_list", "decoder_D_1x1", "unknown_key", "decoder_unknown_key",
            "decoder_residual_negative", "source_index_negative", "source_index_infinite",
            "l_disagrees", "s_disagrees", "descriptor_not_object", "descriptor_dims_without_s",
            "descriptor_unknown_key", "switched_empty", "switched_u_length",
            "switched_A_shape", "switched_A_string", "switched_repeated_u"])
    @pytest.mark.parametrize("option", ["model", "models"])
    def test_model_without_a_key_names_it(self, poly_dataset, poly_model_file, tmp_path,
                                          capsys, option, edit, want):
        obj = json.loads(poly_model_file.read_text())
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = self._argv(option, bad, poly_dataset, poly_model_file, tmp_path)
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and want in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, obj, want", [
        ("dictionary", _dictionary_json(parameters=[0.0]),
         "'parameters' must be a numeric array of shape 48"),
        ("config", _config_json(epochs="3"), "'epochs' must be an integer"),
    ], ids=["dictionary_parameters_short", "config_epochs_string"])
    def test_content_error_names_the_file(self, poly_dataset, poly_model_file, tmp_path, capsys,
                                          option, obj, want):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        argv = self._argv(option, bad, poly_dataset, poly_model_file, tmp_path)
        assert _run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and want in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["data", "config", "model", "models", "inputs", "dictionary"])
def test_directory_as_input_file_exits_2(poly_dataset, poly_model_file, tmp_path, capsys,
                                         option):
    folder = tmp_path / "folder"
    folder.mkdir()
    inputs = tmp_path / "inputs.csv"
    inputs.write_text("u1\n0.5\n")
    predict = ["predict", "--x0", "0.3,-0.4"]
    argv = {
        "data": ["consistency", "--data", folder, "--dictionary", "example_poly_basis"],
        "config": ["learn", "--data", poly_dataset, "--config", folder],
        "model": predict + ["--model", folder, "--inputs", inputs],
        "models": ["compare", "--system", "example_poly", "--models", poly_model_file, folder],
        "inputs": predict + ["--model", poly_model_file, "--inputs", folder],
        "dictionary": ["extract", "--data", poly_dataset, "--dictionary", folder],
    }[option]
    assert _run([str(a) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert str(folder) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "example_poly", "--seed", "-1"],
    ["consistency", "--data", "d.csv", "--dictionary", "example_poly_basis", "--seed", "-1"],
    ["learn", "--data", "d.csv", "--config", "c.json", "--seed", "-3"],
    ["compare", "--system", "example_poly", "--models", "a.json", "b.json", "--seed", "-1"],
], ids=["simulate", "consistency", "learn", "compare"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--seed: must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _one_thread_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(kl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestDeterminism:
    def test_simulate_in_fresh_processes_is_byte_identical_at_one_thread(self, tmp_path):
        env = _one_thread_env()
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            subprocess.run([sys.executable, "-m", "kooplift.cli", "simulate", "--system",
                            "example_poly", "--experiments", "150", "--steps", "9",
                            "--mode", "piecewise", "--seed", "6", "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                            if f.name != "timing.json"})
        assert sorted(outputs[0]) == ["snapshots.csv", "snapshots.manifest.json",
                                      "snapshots.npy"]
        assert outputs[0] == outputs[1]

    def test_consistency_without_the_binary_copy_is_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        assert _run(["simulate", "--system", "example_poly", "--experiments", "300",
                     "--steps", "7", "--seed", "9", "--out", str(data)]) == 0
        outputs = []
        for run in ("with", "without"):
            if run == "without":
                (data / "snapshots.npy").unlink()
            out = tmp_path / run
            assert _run(["consistency", "--data", str(data / "snapshots.csv"),
                         "--dictionary", "example_poly_basis", "--out", str(out)]) == 0
            outputs.append((out / "consistency.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_learn_in_fresh_processes_is_byte_identical_at_one_thread(self, tmp_path):
        """The contract: same inputs, seed and BLAS thread count give the same bytes."""
        assert _run(["simulate", "--system", "dc_motor_tanh", "--experiments", "60",
                     "--steps", "5", "--seed", "2", "--out", str(tmp_path / "data")]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "family": {"kind": "residual_mlp", "blocks": 1, "width": 8},
            "s": 9, "l": 4, "epochs": 3, "batch_size": 50,
            "lr_start": 1e-2, "lr_end": 1e-3, "seed": 3,
        }))
        env = _one_thread_env()
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            subprocess.run([sys.executable, "-m", "kooplift.cli", "learn",
                            "--data", str(tmp_path / "data" / "snapshots.csv"),
                            "--config", str(config), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                            if f.name != "timing.json"})
        assert sorted(outputs[0]) == ["dictionary.json", "train_curve.csv",
                                      "train_report.json"]
        assert outputs[0] == outputs[1]

    def test_streamed_commands_in_fresh_processes_are_byte_identical(self, tmp_path):
        """``consistency`` and ``extract`` over three chunks, the last one partial."""
        data = tmp_path / "data"
        assert _run(["simulate", "--system", "example_poly", "--experiments",
                     str(2 * CHUNK + 7), "--steps", "1", "--seed", "4", "--out", str(data)]) == 0
        assert kl.load_snapshots(data / "snapshots.csv").n_snapshots == 2 * CHUNK + 7
        env = _one_thread_env()
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            for command in ("consistency", "extract"):
                subprocess.run([sys.executable, "-m", "kooplift.cli", command,
                                "--data", str(data / "snapshots.csv"),
                                "--dictionary", "example_poly_basis", "--out", str(out)],
                               env=env, check=True, capture_output=True, timeout=300)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                            if f.name != "timing.json"})
        assert sorted(outputs[0]) == ["consistency.json", "extract_report.json", "model.json"]
        assert outputs[0] == outputs[1]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["--version"])
        assert exc.value.code == 0
        assert kl.__version__ in capsys.readouterr().out
