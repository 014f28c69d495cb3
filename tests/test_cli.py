import csv
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import pytest

import hdclab
from hdclab import corpus as corpus_module
from hdclab import synth
from hdclab.cli import main
from hdclab.synth import MAX_CORPUS_CHARS, MAX_LANGUAGES

from _oracles import ref_model_v1_of


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


def test_classify_file_over_the_byte_bound_exits_3_unread(workspace, monkeypatch, capsys):
    root, corpus, model = workspace
    f = corpus / "train" / "lang02" / "sample00.txt"
    size = f.stat().st_size
    monkeypatch.setattr(corpus_module, "MAX_CORPUS_BYTES", size)
    assert main(["classify", "--model", str(model), "--file", str(f)]) == 0
    capsys.readouterr()

    monkeypatch.setattr(corpus_module, "MAX_CORPUS_BYTES", size - 1)
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: pytest.fail(f"{self} was opened"))
    assert main(["classify", "--model", str(model), "--file", str(f)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {f} holds {size} bytes of text, over {size - 1}"]


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
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["fraction", "trial", "mode", "accuracy"]
    assert len(rows) == 5


def test_fault_sweep_independent_masks_json(workspace, tmp_path):
    root, corpus, model = workspace
    report = tmp_path / "sweep.json"
    assert main(["fault-sweep", "--model", str(model), "--corpus", str(corpus),
                 "--fractions", "0,0.5,0.9", "--trials", "2", "--independent-masks",
                 "--out", str(tmp_path / "sweep.csv"), "--json", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["mask_scheme"] == 2
    assert [(r["fraction"], r["trial"]) for r in doc["rows"]] == [
        (f, t) for f in (0.0, 0.5, 0.9) for t in (0, 1)]
    for row in doc["rows"]:
        assert 0.0 <= row["accuracy"] <= 1.0
        hits = row["accuracy"] * 40  # a whole number of the 40 test sentences
        assert abs(hits - round(hits)) < 1e-9


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
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["flip_fraction", "trials", "recovered", "rate"]
    assert len(rows) == 3
    assert float(rows[1][3]) >= float(rows[2][3]) - 0.1


def test_missing_corpus_is_config_error(workspace, tmp_path, capsys):
    root, corpus, model = workspace
    assert main(["train", "--corpus", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "m.hdc")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    pytest.param(["train", "--out", "OUT"], id="train"),
    pytest.param(["eval", "--model", "MODEL", "--report", "OUT"], id="eval"),
    pytest.param(["baseline", "--report", "OUT"], id="baseline"),
    pytest.param(["fault-sweep", "--model", "MODEL", "--trials", "1", "--out", "OUT"],
                 id="fault-sweep"),
])
def test_corpus_that_is_a_plain_file_exits_2(workspace, tmp_path, capsys, args):
    root, corpus, model = workspace
    plain, out = tmp_path / "some.txt", tmp_path / "out"
    plain.write_text("not a corpus\n", encoding="utf-8")
    args = [{"MODEL": str(model), "OUT": str(out)}.get(a, a) for a in args]
    assert main([*args, "--corpus", str(plain)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: corpus {plain} is not a directory"]
    assert sorted(tmp_path.iterdir()) == [plain]


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


@pytest.fixture(scope="module")
def bad_models(workspace):
    """Model paths that do not load: not a model, a v1 file whose alphabet is
    not UTF-8, and no file at all."""
    root, corpus, model = workspace
    garbage, bad_utf8 = root / "garbage.hdc", root / "bad-utf8.hdc"
    garbage.write_bytes(b"not a model")
    raw = bytearray(ref_model_v1_of(hdclab.load_model(model)))
    raw[20] = 0xFF  # first byte of the alphabet
    bad_utf8.write_bytes(bytes(raw))
    return {"GARBAGE": garbage, "BAD_UTF8": bad_utf8, "NO_MODEL": root / "none.hdc"}


_MODEL_COMMANDS = {
    "classify": ["classify", "--text", "whatever here", "--model"],
    "eval": ["eval", "--corpus", "CORPUS", "--model"],
    "fault-sweep": ["fault-sweep", "--corpus", "CORPUS", "--trials", "1", "--out", "out.csv",
                    "--model"],
}


# (args, the path the error line names, a further part of that line).
# MISSING is a directory that does not exist.
@pytest.mark.parametrize("args, names, says", [
    *[pytest.param([*cmd, bad], bad, says, id=f"{name} --model {bad.lower()}")
      for name, cmd in _MODEL_COMMANDS.items()
      for bad, says in (("GARBAGE", ""), ("BAD_UTF8", "not valid UTF-8"),
                        ("NO_MODEL", "No such file"))],
    pytest.param(["train", "--corpus", "CORPUS", "--dim", "500", "--out", "MISSING/m.hdc"],
                 "MISSING/m.hdc", "No such file", id="train --out"),
    pytest.param(["eval", "--model", "MODEL", "--corpus", "CORPUS",
                  "--report", "MISSING/r.json"], "MISSING/r.json", "No such file",
                 id="eval --report"),
    pytest.param(["baseline", "--corpus", "CORPUS", "--report", "MISSING/r.json"],
                 "MISSING/r.json", "No such file", id="baseline --report"),
    pytest.param(["fault-sweep", "--model", "MODEL", "--corpus", "CORPUS", "--trials", "1",
                  "--out", "MISSING/s.csv"], "MISSING/s.csv", "No such file",
                 id="fault-sweep --out"),
    pytest.param(["fault-sweep", "--model", "MODEL", "--corpus", "CORPUS", "--trials", "1",
                  "--out", "s.csv", "--json", "MISSING/s.json"], "MISSING/s.json",
                 "No such file", id="fault-sweep --json"),
    pytest.param(["noise-curve", "--trials", "1", "--out", "MISSING/c.csv"], "MISSING/c.csv",
                 "No such file", id="noise-curve --out"),
])
def test_bad_model_or_output_path_exits_3(workspace, bad_models, tmp_path, args, names, says):
    root, corpus, model = workspace
    paths = {**bad_models, "MODEL": model, "CORPUS": corpus}
    missing = str(tmp_path / "missing")

    def resolve(arg):
        if arg in paths:
            return str(paths[arg])
        return arg.replace("MISSING", missing)

    proc = _run_cli([resolve(a) for a in args], tmp_path)
    _assert_one_error_line(proc, 3)
    (line,) = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert resolve(names) in line and says in line


# Outputs in a missing directory beside a model and a corpus that do not
# exist either: the output is checked first, so its path is the one named.
@pytest.mark.parametrize("args, names", [
    pytest.param(["train", "--corpus", "NO_CORPUS", "--out", "MISSING/m.hdc"],
                 "MISSING/m.hdc", id="train --out"),
    pytest.param(["eval", "--model", "NO_MODEL", "--corpus", "NO_CORPUS",
                  "--report", "MISSING/r.json"], "MISSING/r.json", id="eval --report"),
    pytest.param(["baseline", "--corpus", "NO_CORPUS", "--report", "MISSING/r.json"],
                 "MISSING/r.json", id="baseline --report"),
    pytest.param(["fault-sweep", "--model", "NO_MODEL", "--corpus", "NO_CORPUS",
                  "--out", "MISSING/s.csv"], "MISSING/s.csv", id="fault-sweep --out"),
    pytest.param(["fault-sweep", "--model", "NO_MODEL", "--corpus", "NO_CORPUS",
                  "--out", "s.csv", "--json", "MISSING/s.json"], "MISSING/s.json",
                 id="fault-sweep --json"),
    pytest.param(["noise-curve", "--symbols", "100000000", "--out", "MISSING/c.csv"],
                 "MISSING/c.csv", id="noise-curve --out"),
])
def test_outputs_are_checked_before_any_input(tmp_path, args, names):
    missing = str(tmp_path / "missing")
    paths = {"NO_MODEL": str(tmp_path / "none.hdc"), "NO_CORPUS": str(tmp_path / "none")}

    def resolve(arg):
        return paths.get(arg, arg.replace("MISSING", missing))

    proc = _run_cli([resolve(a) for a in args], tmp_path)
    _assert_one_error_line(proc, 3)
    (line,) = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert resolve(names) in line and "No such file" in line
    assert list(tmp_path.iterdir()) == []


# Each output given as "", beside a model and a corpus that do not exist.
@pytest.mark.parametrize("args, flag", [
    pytest.param(["train", "--corpus", "NO_CORPUS", "--out", ""], "--out", id="train --out"),
    pytest.param(["eval", "--model", "NO_MODEL", "--corpus", "NO_CORPUS", "--report", ""],
                 "--report", id="eval --report"),
    pytest.param(["baseline", "--corpus", "NO_CORPUS", "--report", ""], "--report",
                 id="baseline --report"),
    pytest.param(["fault-sweep", "--model", "NO_MODEL", "--corpus", "NO_CORPUS", "--out", ""],
                 "--out", id="fault-sweep --out"),
    pytest.param(["fault-sweep", "--model", "NO_MODEL", "--corpus", "NO_CORPUS",
                  "--out", "s.csv", "--json", ""], "--json", id="fault-sweep --json"),
    pytest.param(["noise-curve", "--trials", "1", "--out", ""], "--out", id="noise-curve --out"),
    pytest.param(["synth-corpus", "--languages", "2", "--train-chars", "3",
                  "--test-sentences", "1", "--out", ""], "--out", id="synth-corpus --out"),
])
def test_empty_output_path_exits_2_before_any_work(tmp_path, monkeypatch, capsys, args, flag):
    paths = {"NO_MODEL": str(tmp_path / "none.hdc"), "NO_CORPUS": str(tmp_path / "none")}
    monkeypatch.chdir(tmp_path)
    assert main([paths.get(a, a) for a in args]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {flag} is an empty path"]
    assert list(tmp_path.iterdir()) == []


def test_fault_sweep_writes_no_csv_when_its_json_cannot_be_written(workspace, tmp_path):
    root, corpus, model = workspace
    proc = _run_cli(["fault-sweep", "--model", str(model), "--corpus", str(corpus),
                     "--trials", "1", "--out", "s.csv", "--json", "missing/s.json"], tmp_path)
    _assert_one_error_line(proc, 3)
    assert "missing/s.json" in proc.stderr and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("args", [
    ["noise-curve", "--trials", "0", "--out", "out"],
    ["noise-curve", "--dim", "0", "--out", "out"],
    ["noise-curve", "--seed", "-1", "--out", "out"],
    # The packed item memory would be 13.5 GB and 125 GB: refused before it is built.
    ["noise-curve", "--dim", "4000000000", "--out", "out"],
    ["noise-curve", "--symbols", "100000000", "--out", "out"],
    ["synth-corpus", "--languages", "1", "--out", "out"],
    ["synth-corpus", "--train-chars", "2", "--out", "out"],
    ["fault-sweep", "--trials", "0", "--model", "MODEL", "--corpus", "CORPUS", "--out", "out"],
    ["fault-sweep", "--seed", "-1", "--model", "MODEL", "--corpus", "CORPUS", "--out", "out"],
    # Fraction lists are checked before the model is loaded: it is not there.
    ["fault-sweep", "--fractions", "0,1.5", "--model", "none.hdc", "--corpus", "CORPUS",
     "--out", "out"],
    ["fault-sweep", "--fractions", "0,abc", "--model", "none.hdc", "--corpus", "CORPUS",
     "--out", "out"],
    ["fault-sweep", "--fractions", "nan", "--model", "none.hdc", "--corpus", "CORPUS",
     "--out", "out"],
    ["fault-sweep", "--fractions", ",", "--model", "none.hdc", "--corpus", "CORPUS",
     "--out", "out"],
    ["noise-curve", "--flips", "0.1,nan", "--out", "out"],
    ["baseline", "--n", "0", "--corpus", "CORPUS"],
    ["baseline", "--n", "14", "--corpus", "CORPUS"],
    # The model file stores dim as a u32; rejected before any training.
    ["train", "--dim", "4294967296", "--corpus", "CORPUS", "--out", "m.hdc"],
    # A valid u32, but the encoder table would be about 40 GB: the bound in
    # TextEncoder rejects it before anything is allocated.
    ["train", "--dim", "4000000000", "--corpus", "CORPUS", "--out", "m.hdc"],
], ids=lambda args: " ".join(args[:3]))
def test_bad_number_exits_2_without_traceback(workspace, tmp_path, args):
    root, corpus, model = workspace
    args = [{"MODEL": str(model), "CORPUS": str(corpus)}.get(a, a) for a in args]
    _assert_one_error_line(_run_cli(args, tmp_path), 2)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["--languages", str(MAX_LANGUAGES + 1), "--train-chars", "3", "--test-sentences", "0"],
    ["--languages", "200000", "--train-chars", "3", "--test-sentences", "0"],
    ["--train-chars", "1000000000000000"],
    ["--test-sentences", "1000000000"],
    ["--sentence-chars", "1000000000"],
    # Two characters over the bound, every option in range on its own.
    ["--languages", "2", "--train-chars", str(MAX_CORPUS_CHARS // 2 + 1), "--test-sentences", "0"],
], ids=lambda args: " ".join(args[:2]))
def test_synth_corpus_over_a_bound_exits_2_before_drawing(monkeypatch, tmp_path, capsys, args):
    def refuse(*_):
        raise AssertionError("drew before checking the bounds")

    monkeypatch.setattr(synth, "RandomSource", refuse)
    monkeypatch.setattr(synth, "MarkovLanguage", refuse)
    out = tmp_path / "corpus"
    tracemalloc.start()
    try:
        code = main(["synth-corpus", "--out", str(out), *args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "is over" in capsys.readouterr().err
    assert not out.exists() and peak < 2**20


def test_synth_corpus_at_the_language_bound(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth-corpus", "--out", str(out), "--languages", str(MAX_LANGUAGES),
                 "--train-chars", "3", "--test-sentences", "0"]) == 0
    assert len(list((out / "train").iterdir())) == MAX_LANGUAGES


@pytest.fixture(scope="module")
def other_alphabet_model(workspace):
    """The workspace's model in format v1, with "ab" of its stored alphabet
    swapped to "ba"."""
    root, corpus, model = workspace
    raw = ref_model_v1_of(hdclab.load_model(model))
    assert raw[20:22] == b"ab"
    path = root / "other-alphabet.hdc"
    path.write_bytes(raw[:20] + b"ba" + raw[22:])
    return path


@pytest.mark.parametrize("command", ["classify", "eval", "fault-sweep"])
def test_model_with_other_alphabet_exits_3(workspace, other_alphabet_model, tmp_path,
                                           command):
    root, corpus, model = workspace
    args = [command, "--model", str(other_alphabet_model)]
    if command == "classify":
        args += ["--text", "hello"]
    else:
        args += ["--corpus", str(corpus)]
    if command == "fault-sweep":
        args += ["--trials", "1", "--out", str(tmp_path / "sweep.csv")]
    proc = _run_cli(args, tmp_path)
    _assert_one_error_line(proc, 3)
    assert f"error: {other_alphabet_model}: alphabet 'bacdefghijklmnopqrstuvwxyz '" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["classify", "eval", "fault-sweep"])
def test_model_under_another_tie_scheme_exits_3(workspace, tmp_path, command):
    """A v2 file whose tie-scheme byte (at 25) is 1, re-sealed with a fresh CRC."""
    root, corpus, model = workspace
    body = bytearray(model.read_bytes()[:-4])
    assert body[25] == 2
    body[25] = 1
    path = root / f"scheme-1-{command}.hdc"
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    args = [command, "--model", str(path)]
    if command == "classify":
        args += ["--text", "hello"]
    else:
        args += ["--corpus", str(corpus)]
    if command == "fault-sweep":
        args += ["--trials", "1", "--out", str(tmp_path / "sweep.csv")]
    proc = _run_cli(args, tmp_path)
    _assert_one_error_line(proc, 3)
    assert f"error: {path}: the prototypes were trained under tie scheme 1, not 2" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def one_language(tmp_path_factory):
    """A corpus of one language and a D = 1000 model trained on it."""
    root = tmp_path_factory.mktemp("solo")
    corpus = hdclab.Corpus()
    corpus.add_train("solo", "abc cab bca " * 20)
    corpus.add_test("solo", "abc cab bca")
    hdclab.write_corpus(corpus, root / "corpus")
    hdclab.save_model(
        hdclab.train_pipeline(corpus, hdclab.EncoderConfig(dim=1000)), root / "model.hdc"
    )
    return root / "corpus", root / "model.hdc"


@pytest.mark.parametrize("command", ["eval", "fault-sweep"])
def test_pairwise_on_one_language_exits_2(one_language, tmp_path, command):
    corpus, model = one_language
    args = [command, "--model", str(model), "--corpus", str(corpus), "--mode", "pairwise"]
    if command == "fault-sweep":
        args += ["--trials", "1", "--out", "sweep.csv"]
    proc = _run_cli(args, tmp_path)
    _assert_one_error_line(proc, 2)
    assert "pairwise mode needs at least two languages" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def _two_language_corpus(root):
    """Two labels, each with a training text and test sentences, written under root."""
    corpus = hdclab.Corpus()
    for label, text in (("aa", "abc cab bca "), ("bb", "xyz zyx yzx ")):
        corpus.add_train(label, text * 20)
        corpus.add_test(label, text * 2)
    hdclab.write_corpus(corpus, root)
    return root


NOT_REGULAR = {
    "fifo": os.mkfifo,
    "directory": Path.mkdir,
    "symlink-to-directory": lambda path: path.symlink_to(path.parent, target_is_directory=True),
    "dangling-symlink": lambda path: path.symlink_to(path.parent / "missing"),
}


@pytest.fixture()
def regular_reads_only(monkeypatch):
    """Fail the test on any read of a path that is not a regular file, which
    for a FIFO would block for ever."""
    for name in ("read_text", "read_bytes"):
        def guarded(self, *args, _read=getattr(Path, name), **kwargs):
            if not self.is_file():
                pytest.fail(f"{self} was opened, but it is not a regular file")
            return _read(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, guarded)


@pytest.mark.parametrize("role", ["train", "test"])
@pytest.mark.parametrize("kind", list(NOT_REGULAR))
def test_txt_that_is_not_a_regular_file_exits_3_unopened(regular_reads_only, tmp_path, capsys,
                                                         kind, role):
    corpus = _two_language_corpus(tmp_path / "corpus")
    bad = corpus / role / "bb" / "x.txt"
    NOT_REGULAR[kind](bad)
    out = tmp_path / "model.hdc"
    assert main(["train", "--corpus", str(corpus), "--dim", "500", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad} is not a regular file"]
    assert not out.exists()


@pytest.mark.parametrize("args", [
    pytest.param(["classify", "--model", "BAD", "--text", "hello"], id="classify --model"),
    pytest.param(["eval", "--model", "BAD", "--corpus", "CORPUS"], id="eval --model"),
    pytest.param(["fault-sweep", "--model", "BAD", "--corpus", "CORPUS", "--trials", "1",
                  "--out", "OUT"], id="fault-sweep --model"),
    pytest.param(["classify", "--model", "MODEL", "--file", "BAD"], id="classify --file"),
])
@pytest.mark.parametrize("kind", list(NOT_REGULAR))
def test_model_or_file_that_is_not_a_regular_file_exits_3_unopened(
        workspace, regular_reads_only, tmp_path, capsys, kind, args):
    root, corpus, model = workspace
    bad, out = tmp_path / "bad", tmp_path / "sweep.csv"
    NOT_REGULAR[kind](bad)
    args = [{"BAD": str(bad), "MODEL": str(model), "CORPUS": str(corpus), "OUT": str(out)}.get(a, a)
            for a in args]
    assert main(args) == 3
    assert capsys.readouterr().err.splitlines() == [f"error: {bad} is not a regular file"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "baseline"])
def test_label_not_named_in_utf8_exits_2_before_training(tmp_path, capsys, command):
    corpus = _two_language_corpus(tmp_path / "corpus")
    for role, text in (("train", "lmn nml mln " * 20), ("test", "lmn nml mln")):
        label_dir = os.path.join(os.fsencode(corpus / role), b"L\xff")
        os.mkdir(label_dir)
        with open(os.path.join(label_dir, b"f.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    out = tmp_path / "out"
    args = ["--out", str(out), "--dim", "500"] if command == "train" else ["--report", str(out)]
    assert main([command, "--corpus", str(corpus), *args]) == 2
    bad = str(corpus / "train" / "L\udcff")  # the name Python reads for b"L\xff"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: label directory {bad!r} is not named in UTF-8"]
    assert not out.exists() and not (tmp_path / "out.json").exists()


def test_determinism_across_runs(workspace, tmp_path):
    root, corpus, model = workspace
    m2 = tmp_path / "again.hdc"
    assert main(["train", "--corpus", str(corpus), "--dim", "4000",
                 "--seed", "5", "--out", str(m2)]) == 0
    assert m2.read_bytes() == model.read_bytes()
