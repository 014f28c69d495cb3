import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hdclab
from hdclab.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic corpus and a trained model, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    model = root / "model.hdc"
    assert main(["synth-corpus", "--out", str(corpus), "--languages", "5",
                 "--train-chars", "4000", "--test-sentences", "8",
                 "--sentence-chars", "80", "--seed", "3"]) == 0
    assert main(["train", "--corpus", str(corpus), "--dim", "4000",
                 "--seed", "5", "--out", str(model)]) == 0
    return root, corpus, model


def test_train_writes_model_and_sidecar(workspace):
    root, corpus, model = workspace
    assert model.exists()
    sidecar = json.loads((root / "model.hdc.json").read_text())
    assert sidecar["dim"] == 4000
    assert len(sidecar["labels"]) == 5


def test_classify_text(workspace, capsys):
    root, corpus, model = workspace
    sample = (corpus / "train" / "lang01" / "sample00.txt").read_text()[:300]
    assert main(["classify", "--model", str(model), "--text", sample]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "lang01"
    assert len(doc["all_distances"]) == 5
    assert 0 <= doc["normalized_distance"] <= 1


def test_classify_file(workspace, capsys):
    root, corpus, model = workspace
    f = corpus / "train" / "lang02" / "sample00.txt"
    assert main(["classify", "--model", str(model), "--file", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "lang02"


def test_classify_too_short_is_data_error(workspace, capsys):
    root, corpus, model = workspace
    assert main(["classify", "--model", str(model), "--text", "a"]) == 3
    assert "error" in capsys.readouterr().err


def test_eval_writes_report(workspace, capsys):
    root, corpus, model = workspace
    report = root / "report.json"
    assert main(["eval", "--model", str(model), "--corpus", str(corpus),
                 "--mode", "pairwise", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["total"] == 40
    assert "pairwise_accuracy" in doc
    assert "pairwise" in capsys.readouterr().out


def test_baseline_command(workspace, capsys):
    root, corpus, model = workspace
    report = root / "base.json"
    assert main(["baseline", "--corpus", str(corpus), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["classifier"] == "baseline"
    assert doc["accuracy"] >= 0.9


def test_fault_sweep_csv(workspace):
    root, corpus, model = workspace
    out = root / "sweep.csv"
    assert main(["fault-sweep", "--model", str(model), "--corpus", str(corpus),
                 "--fractions", "0,0.5", "--trials", "2",
                 "--seed", "9", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["fraction", "trial", "mode", "accuracy"]
    assert len(rows) == 5


def _corpus_copy(corpus, dest, short_only):
    """Copy of the workspace corpus with a 2-character test sentence added,
    or, with short_only, with every test sentence replaced by one."""
    shutil.copytree(corpus, dest)
    for sentences in sorted((dest / "test").glob("*/sentences.txt")):
        if short_only:
            sentences.write_text("ab\n", encoding="utf-8")
        else:
            with sentences.open("a", encoding="utf-8") as fh:
                fh.write("ab\n")
            break
    return dest


def test_fault_sweep_reports_skipped_sentences(workspace, tmp_path, capsys):
    root, corpus, model = workspace
    copy = _corpus_copy(corpus, tmp_path / "corpus", short_only=False)
    assert main(["fault-sweep", "--model", str(model), "--corpus", str(copy),
                 "--fractions", "0", "--trials", "1",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert "skipped 1 short sentence(s)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["eval", "baseline", "fault-sweep"])
def test_no_usable_test_sentence_is_data_error(workspace, tmp_path, capsys, command):
    root, corpus, model = workspace
    copy = _corpus_copy(corpus, tmp_path / "corpus", short_only=True)
    args = [command, "--corpus", str(copy)]
    if command != "baseline":
        args += ["--model", str(model)]
    if command == "fault-sweep":
        args += ["--trials", "1", "--out", str(tmp_path / "sweep.csv")]
    assert main(args) == 3
    assert "no usable test sentences" in capsys.readouterr().err


def test_noise_curve_csv(workspace):
    root, corpus, model = workspace
    out = root / "curve.csv"
    assert main(["noise-curve", "--dim", "2000", "--symbols", "27",
                 "--flips", "0.1,0.3", "--trials", "40",
                 "--seed", "1", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["flip_fraction", "trials", "recovered", "rate"]
    assert len(rows) == 3
    assert float(rows[1][3]) >= float(rows[2][3]) - 0.1


def test_missing_corpus_is_config_error(workspace, tmp_path, capsys):
    root, corpus, model = workspace
    assert main(["train", "--corpus", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "m.hdc")]) == 2
    assert "error" in capsys.readouterr().err


def test_unreadable_model_is_data_error(workspace, tmp_path, capsys):
    root, corpus, model = workspace
    bad = tmp_path / "bad.hdc"
    bad.write_bytes(b"not a model")
    assert main(["classify", "--model", str(bad), "--text", "whatever here"]) == 3


def test_model_with_bad_utf8_is_data_error(workspace, tmp_path, capsys):
    root, corpus, model = workspace
    raw = bytearray(model.read_bytes())
    raw[20] = 0xFF  # first byte of the alphabet
    bad = tmp_path / "bad.hdc"
    bad.write_bytes(bytes(raw))
    assert main(["classify", "--model", str(bad), "--text", "whatever here"]) == 3
    assert "not valid UTF-8" in capsys.readouterr().err


def test_missing_model_file_is_data_error(workspace, tmp_path):
    root, corpus, model = workspace
    assert main(["classify", "--model", str(tmp_path / "none.hdc"),
                 "--text", "whatever here"]) == 3


def test_bad_fractions_is_config_error(workspace, capsys):
    root, corpus, model = workspace
    assert main(["fault-sweep", "--model", str(model), "--corpus", str(corpus),
                 "--fractions", "0,abc", "--trials", "1",
                 "--out", "/tmp/x.csv"]) == 2
    assert main(["fault-sweep", "--model", str(model), "--corpus", str(corpus),
                 "--fractions", "0,1.5", "--trials", "1",
                 "--out", "/tmp/x.csv"]) == 2
    capsys.readouterr()


def _run_cli(args, cwd):
    """Run the CLI in a real process, so an escaping exception shows as exit 1
    plus a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(hdclab.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-m", "hdclab.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def _assert_one_error_line(proc, code):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sum("error:" in line for line in proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["noise-curve", "--trials", "0", "--out", "out"],
    ["noise-curve", "--dim", "0", "--out", "out"],
    ["noise-curve", "--seed", "-1", "--out", "out"],
    ["synth-corpus", "--languages", "1", "--out", "out"],
    ["synth-corpus", "--train-chars", "2", "--out", "out"],
    ["fault-sweep", "--trials", "0", "--model", "MODEL", "--corpus", "CORPUS", "--out", "out"],
    ["fault-sweep", "--seed", "-1", "--model", "MODEL", "--corpus", "CORPUS", "--out", "out"],
    ["baseline", "--n", "0", "--corpus", "CORPUS"],
    ["baseline", "--n", "14", "--corpus", "CORPUS"],
], ids=lambda args: " ".join(args[:3]))
def test_bad_number_exits_2_without_traceback(workspace, tmp_path, args):
    root, corpus, model = workspace
    args = [{"MODEL": str(model), "CORPUS": str(corpus)}.get(a, a) for a in args]
    _assert_one_error_line(_run_cli(args, tmp_path), 2)
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def narrow_model(workspace):
    """A valid model of the workspace's languages over the alphabet "abc "."""
    root, corpus, model = workspace
    train = hdclab.Corpus()
    for i, label in enumerate(hdclab.ingest(corpus).labels):
        train.add_train(label, "abc cab " * (i + 1) + "bca " * 5)
    path = root / "narrow.hdc"
    hdclab.save_model(
        hdclab.train_pipeline(train, hdclab.EncoderConfig(dim=256, alphabet="abc ")), path
    )
    return path


@pytest.mark.parametrize("command", ["classify", "eval", "fault-sweep"])
def test_text_outside_model_alphabet_exits_3(workspace, narrow_model, tmp_path, command):
    root, corpus, model = workspace
    args = [command, "--model", str(narrow_model)]
    if command == "classify":
        args += ["--text", "hello"]
    else:
        args += ["--corpus", str(corpus)]
    if command == "fault-sweep":
        args += ["--trials", "1", "--out", str(tmp_path / "sweep.csv")]
    proc = _run_cli(args, tmp_path)
    _assert_one_error_line(proc, 3)
    assert "is not in the alphabet" in proc.stderr
    if command == "classify":
        assert "error: symbol 'h' is not in the alphabet" in proc.stderr


def test_determinism_across_runs(workspace, tmp_path):
    root, corpus, model = workspace
    m2 = tmp_path / "again.hdc"
    assert main(["train", "--corpus", str(corpus), "--dim", "4000",
                 "--seed", "5", "--out", str(m2)]) == 0
    assert m2.read_bytes() == model.read_bytes()
