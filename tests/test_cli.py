"""End-to-end tests of the command-line interface (in-process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kooplift as kl
from kooplift import cli
from kooplift.models import (extract_normal, load_model, rollout,
                             states_from_lifted, with_decoder)


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
        P, Q = nd.eval_aug(aug.Z), nd.eval_aug(aug.Zplus)
        model = extract_normal(kl.fit_edmd(P, Q), nd,
                               source_index=kl.consistency_index(P, Q))
        assert model.readout_rows() is None
        model = with_decoder(model, ss.X)
        Z = rollout(model, [0.3, -0.4], U[None, :], input_dim=1)
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

    def test_empty_input_sequence_rejected(self, poly_model_file, tmp_path,
                                           capsys):
        inputs = tmp_path / "empty.csv"
        inputs.write_text("u1\n")
        rc = _run(["predict", "--model", str(poly_model_file),
                   "--x0", "0.0,0.0", "--inputs", str(inputs),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "empty" in capsys.readouterr().err


class TestCompare:
    def test_requires_two_models(self, poly_model_file, tmp_path, capsys):
        rc = _run(["compare", "--system", "example_poly",
                   "--models", str(poly_model_file), "--out", str(tmp_path)])
        assert rc == 2
        assert "at least 2" in capsys.readouterr().err

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


class TestDeterminism:
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
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        src = str(Path(kl.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["--version"])
        assert exc.value.code == 0
        assert kl.__version__ in capsys.readouterr().out
