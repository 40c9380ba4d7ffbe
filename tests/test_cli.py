"""End-to-end command-line behavior, via subprocesses unless in-process state is the point."""

import argparse
import dataclasses
import hashlib
import json
import pathlib
import platform
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from checkpoints import HEADER_DEFECTS, rewrite_header
from flowids import cli, dataio, training
from models import new_fnn

CMD = [sys.executable, "-m", "flowids"]
NAN = float("nan")  # json.dumps writes it as NaN, which json.load reads back


def run(*argv, cwd=None):
    return subprocess.run(
        CMD + [str(a) for a in argv], capture_output=True, text=True, cwd=cwd
    )


def check_manifest(first_output, command, config, seed, inputs, outputs):
    """The manifest beside the first output names the run and digests every file it read and wrote."""
    manifest = json.loads(pathlib.Path(f"{first_output}.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["config"] == config
    assert manifest["seed"] == seed
    for key, paths in (("inputs", inputs), ("outputs", outputs)):
        assert manifest[key] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth file and two trained checkpoints shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    r = run("synth", "--n", 300, "--seed", 42, "--out", root / "flows.csv")
    assert r.returncode == 0, r.stderr
    r = run(
        "train", "--data", root / "flows.csv", "--out", root / "enc.ckpt",
        "--dim", 8, "--heads", 2, "--blocks", 1, "--lr", 1e-3, "--seed", 0,
        "--log", root / "log.csv",
    )
    assert r.returncode == 0, r.stderr
    (root / "train_stdout.txt").write_text(r.stdout)
    r = run(
        "train", "--data", root / "flows.csv", "--out", root / "fnn.ckpt",
        "--model", "fnn", "--epochs", 30, "--seed", 0,
    )
    assert r.returncode == 0, r.stderr
    return root


class TestSynth:
    def test_row_count(self, workdir):
        lines = (workdir / "flows.csv").read_text().strip().splitlines()
        assert len(lines) == 301  # header + rows

    def test_byte_identical_reruns(self, workdir, tmp_path):
        out = tmp_path / "again.csv"
        r = run("synth", "--n", 300, "--seed", 42, "--out", out)
        assert r.returncode == 0
        assert out.read_bytes() == (workdir / "flows.csv").read_bytes()

    def test_manifest_checksums_output(self, workdir):
        manifest = json.loads((workdir / "flows.csv.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 42
        digest = hashlib.sha256((workdir / "flows.csv").read_bytes()).hexdigest()
        assert manifest["outputs"][str(workdir / "flows.csv")] == digest

    def test_too_small_is_usage_error(self, tmp_path):
        r = run("synth", "--n", 5, "--out", tmp_path / "x.csv")
        assert r.returncode == 2
        assert "error" in r.stderr

    @pytest.mark.parametrize("difficulty", ["separable", "noisy"])
    def test_bad_bayes_error_is_usage_error(self, tmp_path, difficulty):
        """Checked whatever the difficulty; separable data used to accept it and record it."""
        out = tmp_path / "x.csv"
        r = run("synth", "--n", 20, "--difficulty", difficulty, "--bayes-error", 0.7, "--out", out)
        assert r.returncode == 2
        assert "bayes_error" in r.stderr
        assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()

    def test_missing_required_flag(self, tmp_path):
        r = run("synth", "--out", tmp_path / "x.csv")
        assert r.returncode == 2

    def test_negative_seed_is_usage_error(self, tmp_path):
        r = run("synth", "--n", 100, "--seed", -1, "--out", tmp_path / "x.csv")
        assert r.returncode == 2
        assert "seed must be >= 0" in r.stderr
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "x.csv").exists()


class TestTrain:
    def test_reports_final_accuracy(self, workdir):
        stdout = (workdir / "train_stdout.txt").read_text()
        line = [l for l in stdout.splitlines() if l.startswith("final validation accuracy")][0]
        assert float(line.split(":")[1]) >= 0.99

    def test_manifest_records_resolved_config(self, workdir):
        manifest = json.loads((workdir / "enc.ckpt.manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["model"] == "transformer"
        assert cfg["lr"] == 1e-3
        assert cfg["dim"] == 8
        assert manifest["inputs"]  # training data was checksummed

    def test_fnn_defaults_resolved(self, workdir):
        manifest = json.loads((workdir / "fnn.ckpt.manifest.json").read_text())
        cfg = manifest["config"]
        assert cfg["model"] == "fnn"
        assert cfg["lr"] == 1e-3
        assert cfg["epochs"] == 30  # explicit flag, not the default 100
        assert cfg["fnn_hidden"] == [64, 64]

    @pytest.mark.parametrize("checkpoint", ["enc.ckpt", "fnn.ckpt"])
    def test_checkpoint_keeps_the_recipe_and_the_manifest_the_whole_config(self, workdir, checkpoint):
        """The shape lives in the checkpoint's hyper alone: its train_config is the
        manifest's config without the fields that shape the model."""
        config = json.loads((workdir / f"{checkpoint}.manifest.json").read_text())["config"]
        assert set(config) == {f.name for f in dataclasses.fields(training.TrainConfig)}
        kept = dataio.load_checkpoint(workdir / checkpoint).config
        assert kept == {k: v for k, v in config.items() if k not in training.SHAPE_FIELDS}
        assert not {"model", "dim", "heads", "blocks", "mlp_dim", "fnn_hidden", "mask"} & set(kept)

    def test_epoch_log_csv(self, workdir):
        lines = (workdir / "log.csv").read_text().strip().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 11  # header + 10 epochs

    def test_config_file_with_flag_override(self, workdir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "fnn", "epochs": 5, "lr": 0.01}))
        out = tmp_path / "m.ckpt"
        r = run(
            "train", "--data", workdir / "flows.csv", "--out", out,
            "--config", cfg_path, "--epochs", 3,
        )
        assert r.returncode == 0, r.stderr
        manifest = json.loads((tmp_path / "m.ckpt.manifest.json").read_text())
        assert manifest["config"]["epochs"] == 3  # flag beats file
        assert manifest["config"]["lr"] == 0.01  # file beats default

    def test_no_mask_flag_overrides_config(self, workdir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mask": True, "epochs": 1, "dim": 4, "heads": 1, "blocks": 1}))
        out = tmp_path / "m.ckpt"
        argv = ["train", "--data", workdir / "flows.csv", "--out", out, "--config", cfg_path, "--no-mask"]
        assert cli.main([str(a) for a in argv]) == 0
        (header_len,) = struct.unpack("<Q", out.read_bytes()[8:16])
        assert json.loads(out.read_bytes()[16 : 16 + header_len])["hyper"]["mask"] is False

    def test_unknown_config_key_is_usage_error(self, workdir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "fnn", "momentum": 0.9}))
        r = run("train", "--data", workdir / "flows.csv", "--out", tmp_path / "m.ckpt",
                "--config", cfg_path)
        assert r.returncode == 2

    def test_non_bool_mask_in_config_is_usage_error(self, workdir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mask": "false"}))
        r = run("train", "--data", workdir / "flows.csv", "--out", tmp_path / "m.ckpt",
                "--config", cfg_path)
        assert r.returncode == 2
        assert "mask" in r.stderr

    @pytest.mark.parametrize(
        "config, field",
        [
            pytest.param({"epochs": "3", "model": "fnn"}, "epochs", id="epochs-string"),
            pytest.param({"lr": "0.1"}, "lr", id="lr-string"),
            pytest.param({"batch_size": True}, "batch_size", id="batch-size-bool"),
            pytest.param({"fnn_hidden": 5}, "fnn_hidden", id="fnn-hidden-scalar"),
            pytest.param({"split_fractions": 0.5}, "split_fractions", id="split-fractions-scalar"),
            pytest.param({"split_fractions": [NAN, 0.5, 0.5]}, "split_fractions", id="split-fractions-nan"),
            pytest.param({"mlp_dim": 0}, "mlp_dim", id="mlp-dim-zero"),
            pytest.param({"model": "fnn", "lr": NAN}, "lr", id="lr-nan"),
            pytest.param({"model": "fnn", "weight_decay": NAN}, "weight_decay", id="weight-decay-nan"),
            pytest.param({"model": "fnn", "eps": 0}, "eps", id="eps-zero"),
            pytest.param({"model": "fnn", "eps": NAN}, "eps", id="eps-nan"),
            pytest.param({"model": "fnn", "beta1": 1.0}, "beta1", id="beta1-one"),
        ],
    )
    def test_non_numeric_config_value_is_usage_error(self, workdir, tmp_path, config, field):
        """Also the numbers a JSON config can hold that training cannot use: these
        used to end in a TypeError or ValueError (exit 1) or a non-finite loss (exit 5)."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        r = run("train", "--data", workdir / "flows.csv", "--out", tmp_path / "m.ckpt",
                "--config", cfg_path)
        assert r.returncode == 2
        assert field in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "argv, config, said",
        [
            pytest.param(["--heads", "3"], None, "heads 3 does not divide dim 32", id="heads"),
            pytest.param(["--model", "fnn"], {"fnn_hidden": [0, 4]}, "hidden=[0, 4]", id="fnn-hidden"),
            pytest.param(["--model", "fnn"], {"mask": "false"}, "mask must be true or false", id="fnn-mask"),
            pytest.param(["--blocks", "1099511627776"], None, "13,897,826,975,090,722 parameters",
                         id="blocks-over-budget"),
            # 6,291,461 parameters over one input, 31,457,285 over the synthetic profile's 13
            pytest.param(["--model", "fnn"], {"fnn_hidden": [2097152, 1]}, "31,457,285 parameters",
                         id="fnn-over-budget-at-width"),
            pytest.param([], {"split_fractions": [0.5, 0.5, 0]}, "split_fractions must be positive",
                         id="split-fraction-zero"),
            pytest.param([], {"split_fractions": [0.5, 0.5, 0.5]}, "split_fractions must be positive",
                         id="split-fractions-sum"),
            pytest.param([], {"split_fractions": [10**400, 0.5, 0.5]}, "split_fractions must be positive",
                         id="split-fraction-past-float-range"),
            # ints compare with inf exactly, so these passed the range checks and overflowed in AdamW
            pytest.param([], {"model": "fnn", "lr": 10**400}, "lr must be finite and > 0",
                         id="lr-past-float-range"),
            pytest.param([], {"model": "fnn", "eps": 10**400}, "eps must be finite and > 0",
                         id="eps-past-float-range"),
            pytest.param([], {"model": "fnn", "weight_decay": 10**400}, "weight_decay must be finite and >= 0",
                         id="weight-decay-past-float-range"),
        ],
    )
    def test_config_error_exits_2_before_data_is_read(self, tmp_path, argv, config, said):
        """The config is resolved, and its sizes checked at the profile's width,
        first: a --data file that does not exist is not the error reported (exit 6)."""
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = [*argv, "--config", tmp_path / "cfg.json"]
        r = run("train", "--data", tmp_path / "missing.csv", "--out", tmp_path / "m.ckpt", *argv)
        assert r.returncode == 2, r.stderr
        assert said in r.stderr
        assert "missing.csv" not in r.stderr and "loaded" not in r.stderr
        assert "Traceback" not in r.stderr

    def test_negative_mlp_dim_flag_is_usage_error(self, workdir, tmp_path):
        r = run("train", "--data", workdir / "flows.csv", "--out", tmp_path / "m.ckpt", "--mlp-dim", -3)
        assert r.returncode == 2
        assert "mlp_dim=-3" in r.stderr
        assert "tokens" not in r.stderr  # only the sizes at fault are named

    def test_diverging_training_is_numeric_error(self, workdir, tmp_path):
        """A finite but absurd learning rate passes the config checks and overflows the weights."""
        r = run("train", "--data", workdir / "flows.csv", "--out", tmp_path / "m.ckpt",
                "--model", "fnn", "--lr", 1e308)
        assert r.returncode == 5
        assert "non-finite" in r.stderr
        assert not (tmp_path / "m.ckpt.manifest.json").exists()

    def test_unknown_profile_is_usage_error(self, workdir, tmp_path):
        r = run("train", "--data", workdir / "flows.csv", "--out", tmp_path / "m.ckpt", "--profile", "nosuch")
        assert r.returncode == 2
        assert "--profile" in r.stderr and "nosuch" in r.stderr
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize(
        "blob",
        [
            pytest.param(b'{"lr": 0.1\xff}', id="not-utf8"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-too-deep"),
        ],
    )
    def test_unreadable_config_is_usage_error(self, workdir, tmp_path, blob):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(blob)
        r = run("train", "--data", workdir / "flows.csv", "--out", tmp_path / "m.ckpt", "--config", cfg_path)
        assert r.returncode == 2
        assert str(cfg_path) in r.stderr
        assert "Traceback" not in r.stderr

    def test_oversized_cell_is_data_error(self, workdir, tmp_path):
        """A cell over csv.field_size_limit() names the file and line (it used to end in a traceback)."""
        lines = (workdir / "flows.csv").read_text().splitlines()
        lines[1] = "x" * 200_000 + lines[1][lines[1].index(","):]
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        r = run("train", "--data", csv_path, "--out", tmp_path / "m.ckpt")
        assert r.returncode == 3
        assert f"{csv_path}: line 2: field larger than field limit" in r.stderr

    def test_missing_data_flag(self, tmp_path):
        r = run("train", "--out", tmp_path / "m.ckpt")
        assert r.returncode == 2

    def test_unreadable_data_is_io_error(self, tmp_path):
        r = run("train", "--data", tmp_path / "nope.csv", "--out", tmp_path / "m.ckpt")
        assert r.returncode == 6


class TestEval:
    def test_perfect_model_table(self, workdir):
        r = run("eval", "--model", workdir / "enc.ckpt", "--data", workdir / "flows.csv",
                "--label", "enc")
        assert r.returncode == 0, r.stderr
        row = [l for l in r.stdout.splitlines() if l.startswith("enc")][0]
        assert row.count("100.00%") == 6  # all but FNR
        assert "  0.00%" in row  # FNR

    def test_json_deterministic(self, workdir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            r = run("eval", "--model", workdir / "enc.ckpt",
                    "--data", workdir / "flows.csv", "--out", out)
            assert r.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["metrics"]["accuracy"] == 1.0
        assert payload["metrics"]["fnr"] == 0.0
        assert payload["n"] == 300

    def test_roc_csv_written(self, workdir, tmp_path):
        roc = tmp_path / "roc.csv"
        r = run("eval", "--model", workdir / "enc.ckpt", "--data", workdir / "flows.csv",
                "--roc", roc)
        assert r.returncode == 0
        assert roc.read_text().splitlines()[0] == "fpr,tpr"

    def test_manifest_beside_first_output(self, workdir, tmp_path):
        out, roc = tmp_path / "m.json", tmp_path / "roc.csv"
        inputs = [workdir / "enc.ckpt", workdir / "flows.csv"]
        config = {"threshold": 0.25, "model_kind": "transformer"}
        r = run("eval", "--model", inputs[0], "--data", inputs[1], "--threshold", 0.25, "--out", out, "--roc", roc)
        assert r.returncode == 0, r.stderr
        check_manifest(out, "eval", config, 0, inputs, [out, roc])
        assert not (tmp_path / "roc.csv.manifest.json").exists()
        r = run("eval", "--model", inputs[0], "--data", inputs[1], "--threshold", 0.25, "--roc", roc)
        assert r.returncode == 0, r.stderr
        check_manifest(roc, "eval", config, 0, inputs, [roc])

    def test_manifest_names_the_environment(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert cli.main(["eval", "--model", str(workdir / "enc.ckpt"), "--data", str(workdir / "flows.csv"),
                         "--out", str(out)]) == 0
        environment = json.loads(pathlib.Path(f"{out}.manifest.json").read_text())["environment"]
        assert sorted(environment) == ["blas", "numpy", "python", "scoring_threads"]
        assert environment["python"] == platform.python_version()
        assert environment["numpy"] == np.__version__
        assert environment["scoring_threads"] == min(training.usable_cores(), 2)

    @pytest.mark.parametrize("command", ["eval", "report"])
    def test_no_file_output_writes_no_manifest(self, workdir, tmp_path, monkeypatch, capsys, command):
        before = {p: p.stat().st_mtime_ns for p in workdir.glob("*.manifest.json")}
        monkeypatch.chdir(tmp_path)
        model = "--models" if command == "report" else "--model"
        assert cli.main([command, model, str(workdir / "fnn.ckpt"), "--data", str(workdir / "flows.csv")]) == 0
        assert list(tmp_path.iterdir()) == []
        assert {p: p.stat().st_mtime_ns for p in workdir.glob("*.manifest.json")} == before

    def test_corrupt_checkpoint_is_data_error(self, workdir, tmp_path):
        blob = bytearray((workdir / "enc.ckpt").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        r = run("eval", "--model", bad, "--data", workdir / "flows.csv")
        assert r.returncode == 3
        assert "checksum" in r.stderr

    @pytest.mark.parametrize("edit, field", HEADER_DEFECTS)
    def test_malformed_header_is_data_error(self, workdir, tmp_path, edit, field):
        bad = tmp_path / "bad.ckpt"
        rewrite_header(workdir / "enc.ckpt", bad, edit)
        r = run("eval", "--model", bad, "--data", workdir / "flows.csv")
        assert r.returncode == 3
        assert field in r.stderr
        assert "Traceback" not in r.stderr

    def test_version_1_checkpoint_exits_4_before_data_is_read(self, tmp_path):
        """A file written by format version 1 is refused by version, without a
        traceback, before the --data file (which does not exist) is opened."""
        fixture = pathlib.Path(__file__).parent / "fixtures" / "fnn_v1.ckpt"
        r = run("eval", "--model", fixture, "--data", tmp_path / "missing.csv")
        assert r.returncode == 4, r.stderr
        assert "format version 1 is not supported (expected 3)" in r.stderr
        assert "Traceback" not in r.stderr

    def test_version_2_checkpoint_exits_4_before_data_is_read(self, tmp_path):
        """A file written by format version 2 is refused by version, as version 1 is."""
        fixture = pathlib.Path(__file__).parent / "fixtures" / "fnn_v2.ckpt"
        r = run("eval", "--model", fixture, "--data", tmp_path / "missing.csv")
        assert r.returncode == 4, r.stderr
        assert "format version 2 is not supported (expected 3)" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("checkpoint", ["enc.ckpt", "fnn.ckpt"])
    def test_header_errors_print_the_fields_own_text(self, workdir, tmp_path, capsys, checkpoint):
        """Each malformed header's message names its field in plain text, never an exception's repr."""
        bad = tmp_path / "bad.ckpt"
        for case in HEADER_DEFECTS:
            edit, field = case.values
            rewrite_header(workdir / checkpoint, bad, edit)
            assert cli.main(["eval", "--model", str(bad), "--data", str(workdir / "flows.csv")]) == 3, case.id
            err = capsys.readouterr().err
            assert field in err and "Error(" not in err, err

    def test_in_process_calls_build_no_further_parser(self, workdir, monkeypatch, capsys):
        argv = ["eval", "--model", str(workdir / "fnn.ckpt"), "--data", str(workdir / "flows.csv")]
        assert cli.main(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k)
        )
        for _ in range(3):
            assert cli.main(argv) == 0
        assert built == []

    def test_schema_wider_than_the_model_exits_before_reading_data(self, workdir, tmp_path, capsys):
        """An FNN over 4 inputs saved with the workdir checkpoint's schema is
        refused at load: the error names both widths, and the --data path,
        which does not exist, is never opened."""
        schema = dataio.load_checkpoint(workdir / "fnn.ckpt").schema
        bad = tmp_path / "narrow.ckpt"
        dataio.save_checkpoint(new_fnn(4, hidden=(8, 8), seed=1), schema, {}, bad)
        code = cli.main(["eval", "--model", str(bad), "--data", str(tmp_path / "absent.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"schema encodes {schema.width} features but the model takes 4 inputs" in err
        assert "absent.csv" not in err

    def test_future_version_is_incompatibility(self, workdir, tmp_path):
        body = bytearray((workdir / "enc.ckpt").read_bytes()[:-32])
        body[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "future.ckpt"
        bad.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
        r = run("eval", "--model", bad, "--data", workdir / "flows.csv")
        assert r.returncode == 4
        assert "version" in r.stderr

    def test_non_utf8_csv_is_data_error(self, workdir, tmp_path):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(b"a,b\n\xff\xfe,1\n")
        r = run("eval", "--model", workdir / "fnn.ckpt", "--data", csv_path)
        assert r.returncode == 3
        assert f"{csv_path}: not UTF-8 text" in r.stderr
        assert "Traceback" not in r.stderr

    def test_wrong_columns_is_data_error(self, workdir, tmp_path):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("srcip,label\n10.0.0.1,0\n")
        r = run("eval", "--model", workdir / "enc.ckpt", "--data", csv_path)
        assert r.returncode == 3


class TestPredict:
    def test_row_count_and_format(self, workdir, tmp_path):
        out = tmp_path / "scores.csv"
        r = run("predict", "--model", workdir / "enc.ckpt", "--data", workdir / "flows.csv",
                "--out", out)
        assert r.returncode == 0, r.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "row,score,predicted"
        assert len(lines) == 301
        row, score, predicted = lines[1].split(",")
        assert int(row) == 2
        assert 0.0 <= float(score) <= 1.0
        assert predicted in ("0", "1")

    def test_manifest(self, workdir, tmp_path):
        out = tmp_path / "scores.csv"
        inputs = [workdir / "fnn.ckpt", workdir / "flows.csv"]
        r = run("predict", "--model", inputs[0], "--data", inputs[1], "--out", out)
        assert r.returncode == 0, r.stderr
        check_manifest(out, "predict", {"threshold": 0.5, "model_kind": "fnn"}, 0, inputs, [out])

    def test_deterministic(self, workdir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            r = run("predict", "--model", workdir / "enc.ckpt",
                    "--data", workdir / "flows.csv", "--out", out)
            assert r.returncode == 0
        assert a.read_bytes() == b.read_bytes()


class TestReport:
    def test_two_model_comparison(self, workdir, tmp_path):
        out = tmp_path / "table.txt"
        r = run("report", "--models", workdir / "enc.ckpt", workdir / "fnn.ckpt",
                "--data", workdir / "flows.csv", "--out", out)
        assert r.returncode == 0, r.stderr
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5  # header, rule, two model rows, footer
        assert any(l.startswith("transformer:") for l in lines)
        assert any(l.startswith("fnn:") for l in lines)

    def test_manifest(self, workdir, tmp_path):
        out = tmp_path / "table.txt"
        models = [workdir / "enc.ckpt", workdir / "fnn.ckpt"]
        r = run("report", "--models", *models, "--data", workdir / "flows.csv", "--out", out)
        assert r.returncode == 0, r.stderr
        config = {"threshold": 0.5, "models": [str(m) for m in models]}
        check_manifest(out, "report", config, None, models + [workdir / "flows.csv"], [out])

    def test_reads_and_encodes_the_csv_once(self, workdir, monkeypatch, capsys):
        """Three checkpoints of one schema share one load and one encoding of the CSV."""
        calls = []
        for owner, name in ((cli.dataio, "load_csv"), (cli, "encode_batch")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, f=original, n=name: calls.append(n) or f(*a))
        fnn = str(workdir / "fnn.ckpt")
        assert cli.main(["report", "--models", fnn, fnn, fnn, "--data", str(workdir / "flows.csv")]) == 0
        assert calls == ["load_csv", "encode_batch"]
        assert capsys.readouterr().out.count("fnn:") == 3

    def test_single_class_data_is_data_error(self, workdir, tmp_path):
        import csv as csv_mod

        src = (workdir / "flows.csv").read_text().splitlines()
        reader = csv_mod.reader(src)
        rows = list(reader)
        keep = [rows[0]] + [row for row in rows[1:] if row[-1] == "0"]
        csv_path = tmp_path / "oneclass.csv"
        csv_path.write_text("\n".join(",".join(row) for row in keep) + "\n")
        r = run("report", "--models", workdir / "enc.ckpt", "--data", csv_path)
        assert r.returncode == 3
        assert "both classes" in r.stderr


@pytest.mark.parametrize("command", ["train", "eval", "predict", "report"])
def test_manifest_records_what_each_load_kept_and_rejected(workdir, tmp_path, capsys, command):
    """A CSV with one bad row: the manifest names the row and its reason, for
    report once per profile it read, and stderr prints the summary as before."""
    lines = (workdir / "flows.csv").read_text().splitlines()
    cells = lines[4].split(",")
    cells[3] = "fast"  # Sload
    lines[4] = ",".join(cells)
    data, out = tmp_path / "flows.csv", tmp_path / "out"
    data.write_text("\n".join(lines) + "\n")
    fnn, unsw = str(workdir / "fnn.ckpt"), str(tmp_path / "unsw.ckpt")  # the synthetic layout is the unsw one
    argv = {
        "train": ["train", "--model", "fnn", "--epochs", "1", "--out", str(out)],
        "eval": ["eval", "--model", fnn, "--out", str(out)],
        "predict": ["predict", "--model", fnn, "--out", str(out)],
        "report": ["report", "--models", fnn, unsw, fnn, "--out", str(out)],
    }[command]
    profiles = ["synthetic", "unsw"] if command == "report" else ["synthetic"]
    if command == "report":
        assert cli.main(["train", "--model", "fnn", "--epochs", "1", "--profile", "unsw",
                         "--data", str(workdir / "flows.csv"), "--out", unsw]) == 0
        capsys.readouterr()
    assert cli.main(argv + ["--data", str(data)]) == 0
    reason = "column 'Sload': cannot parse numeric cell 'fast'"
    summary = {"rows_loaded": 299, "rows_rejected": 1, "rejects": [[5, reason]]}
    assert json.loads(pathlib.Path(f"{out}.manifest.json").read_text())["loads"] == dict.fromkeys(profiles, summary)
    assert capsys.readouterr().err == f"loaded 299 rows, rejected 1\n  row 5: {reason}\n" * len(profiles)


class TestWarnings:
    """A command's warnings print as plain `warning:` lines and go in its manifest."""

    @pytest.mark.parametrize("flags", [[], ["-W", "error::UserWarning"]], ids=["default", "W-error"])
    def test_constant_features_of_a_ton_csv(self, tmp_path, flags):
        """Python's -W does not turn a command's warning into a traceback."""
        fixture = pathlib.Path(__file__).parent / "fixtures" / "ton_tiny.csv"
        out = tmp_path / "ton.ckpt"
        argv = ["train", "--data", fixture, "--profile", "ton", "--epochs", 1, "--out", out]
        r = subprocess.run([sys.executable, *flags, "-m", "flowids", *map(str, argv)], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert "UserWarning" not in r.stderr and "sentencing.py" not in r.stderr
        warned = json.loads(pathlib.Path(f"{out}.manifest.json").read_text())["warnings"]
        assert "feature 'longitude' is constant in the training split" in warned
        assert [line for line in r.stderr.splitlines() if line.startswith("warning: ")] == [
            f"warning: {message}" for message in warned
        ]

    def test_a_split_without_a_class(self, workdir, tmp_path):
        lines = (workdir / "flows.csv").read_text().splitlines()
        attacks = [line for line in lines[1:] if line.endswith(",1")]
        data, out = tmp_path / "one_attack.csv", tmp_path / "m.ckpt"
        data.write_text("\n".join([lines[0], attacks[0]] + [line for line in lines[1:] if line.endswith(",0")]) + "\n")
        r = run("train", "--data", data, "--model", "fnn", "--epochs", 1, "--out", out)
        assert r.returncode == 0, r.stderr
        warned = ["split 'train' received zero records of class 1", "split 'validation' received zero records of class 1"]
        assert json.loads(pathlib.Path(f"{out}.manifest.json").read_text())["warnings"] == warned
        assert [line for line in r.stderr.splitlines() if "warn" in line.lower()] == [
            f"warning: {message}" for message in warned
        ]

    def test_a_warning_raised_twice_prints_once(self, tmp_path, monkeypatch, capsys):
        """Each distinct warning prints once and is listed once, however often the command raises it."""
        write_csv = dataio.write_csv

        def warn_twice(*args):
            for _ in range(2):
                warnings.warn("the same warning")
            write_csv(*args)

        monkeypatch.setattr(dataio, "write_csv", warn_twice)
        out = tmp_path / "x.csv"
        assert cli.main(["synth", "--n", "20", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: the same warning\n"
        assert json.loads(pathlib.Path(f"{out}.manifest.json").read_text())["warnings"] == ["the same warning"]

    def test_a_clean_run_lists_none(self, workdir):
        for name in ("enc.ckpt", "fnn.ckpt", "flows.csv"):
            assert json.loads((workdir / f"{name}.manifest.json").read_text())["warnings"] == []


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["eval", "predict", "report"])
def test_non_finite_threshold_is_usage_error(workdir, tmp_path, command, value):
    """A nan threshold compares false against every score and would call every row normal."""
    model = "--models" if command == "report" else "--model"
    out = ["--out", tmp_path / "scores.csv"] if command == "predict" else []
    r = run(command, model, workdir / "enc.ckpt", "--data", workdir / "flows.csv", "--threshold", value, *out)
    assert r.returncode == 2
    assert "--threshold" in r.stderr
    assert list(tmp_path.iterdir()) == []


def test_exit_code_table_matches_readme():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    documented = {int(code) for code in re.findall(r"^\| (\d+) \|", readme, re.M)}
    assert documented == set(cli.EXIT_CODES.values()) == {2, 3, 4, 5, 6}
