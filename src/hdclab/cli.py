"""Command-line interface.

Subcommands: train, classify, eval, baseline, fault-sweep, noise-curve,
synth-corpus. Exit codes: 0 success, 2 configuration error (bad arguments,
unusable corpus layout, unknown labels, pairwise mode on one language),
3 data error (unreadable or malformed files, texts too short to encode).
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import sys
from pathlib import Path

from . import corpus as corpus_io
from . import faultlab
from .algebra import RandomSource, n_words
from .baseline import baseline_evaluate, baseline_train
from .corpus import ingest, regular_file, write_corpus
from .encoder import MAX_TABLE_BYTES, EncoderConfig
from .errors import ConfigurationError, DataError
from .itemmem import ItemMemory
from .model_io import load_model, save_model
from .pipeline import check_mode, encode_test_set, evaluate, train_pipeline
from .synth import synth_corpus


def _write_json(path, doc):
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _int_arg(low: int, high: int | None = None):
    """argparse type: a whole number >= ``low`` and, if given, < ``high``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value >= high):
            bound = f"at least {low}" if high is None else f"in [{low}, {high})"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


# RandomSource takes a 64-bit unsigned seed.
_seed = _int_arg(0, 2**64)


def _fractions(text: str) -> list:
    """argparse type: a comma-separated list of numbers in [0, 1]."""
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a comma-separated number list, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("is empty")
    if not all(0 <= v <= 1 for v in values):  # also refuses nan
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return values


def _config_from_args(args) -> EncoderConfig:
    try:
        return EncoderConfig(
            dim=args.dim,
            n=args.n,
            item_seed=args.seed,
            deterministic_ties=args.deterministic_ties,
        )
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


def cmd_train(args) -> int:
    corpus = ingest(args.corpus)
    model = train_pipeline(corpus, _config_from_args(args))
    save_model(model, args.out)
    print(f"trained {len(model.labels)} languages at D={args.dim}, n={args.n}")
    print(f"model written to {args.out}")
    return 0


def cmd_classify(args) -> int:
    model = load_model(args.model)
    if args.text is not None:
        text = args.text
    else:
        path, bound = regular_file(args.file), corpus_io.MAX_CORPUS_BYTES
        size = path.stat().st_size  # before it is opened, as ingest checks its files
        if size > bound:
            raise DataError(f"{path} holds {size} bytes of text, over {bound}")
        text = path.read_text(encoding="utf-8", errors="replace")
    result = model.classify_text(text)  # too short after normalization: DataError
    doc = {
        "label": result.label,
        "distance": result.distance,
        "normalized_distance": result.distance / model.config.dim,
        "all_distances": [
            {"label": lb, "distance": d} for lb, d in result.all_distances
        ],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    corpus = ingest(args.corpus)
    report = evaluate(model, corpus, mode=args.mode)
    if args.report:
        _write_json(args.report, report)
    line = f"multiclass accuracy {report['accuracy']:.4f} over {report['total']} sentences"
    if args.mode == "pairwise":
        line += f"; pairwise accuracy {report['pairwise_accuracy']:.4f}"
    print(line)
    return 0


def cmd_baseline(args) -> int:
    corpus = ingest(args.corpus)
    try:
        clf = baseline_train(corpus, n=args.n)
    except ValueError as exc:  # n over the 2**24 n-gram cap
        raise ConfigurationError(str(exc)) from None
    report = baseline_evaluate(clf, corpus)
    if args.report:
        _write_json(args.report, report)
    print(
        f"baseline accuracy {report['accuracy']:.4f} over {report['total']} sentences"
    )
    return 0


def cmd_fault_sweep(args) -> int:
    model = load_model(args.model)
    corpus = ingest(args.corpus)
    check_mode(model, args.mode)
    queries, true_idx, skipped = encode_test_set(model, corpus)
    if skipped:
        print(f"skipped {skipped} short sentence(s)")
    result = faultlab.fault_sweep(
        model.memory.rows(), queries, true_idx, args.fractions, args.trials,
        mode=args.mode, shared=not args.independent_masks, seed=args.seed,
    )
    result.write_csv(args.out)
    if args.json:
        result.write_json(args.json)
    for fraction, mean, std in result.aggregate():
        print(f"fraction {fraction:g}: mean accuracy {mean:.4f} (std {std:.4f})")
    print(f"sweep written to {args.out}")
    return 0


def cmd_noise_curve(args) -> int:
    if args.symbols * n_words(args.dim) * 8 > MAX_TABLE_BYTES:  # before anything is built
        raise ConfigurationError(f"an item memory of {args.symbols} symbols at D={args.dim} "
                                 f"is over {MAX_TABLE_BYTES} bytes")
    symbols = [f"s{i:02d}" for i in range(args.symbols)]
    mem = ItemMemory.build(symbols, args.dim, args.seed)
    root = RandomSource(args.seed)
    rows = []
    for fi, fraction in enumerate(args.flips):
        recovered = 0
        for trial in range(args.trials):
            rng = root.child(1, fi, trial)
            idx = int(rng.generator.integers(0, args.symbols))
            noisy = faultlab.flip_noise(mem.lookup(symbols[idx]), fraction, rng)
            decoded, _ = mem.cleanup(noisy)
            recovered += decoded == symbols[idx]
        rows.append((fraction, args.trials, recovered, recovered / args.trials))
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["flip_fraction", "trials", "recovered", "rate"])
        for fraction, trials, recovered, rate in rows:
            w.writerow([f"{fraction:g}", trials, recovered, f"{rate:.6f}"])
    for fraction, _, _, rate in rows:
        print(f"flip {fraction:g}: recovery rate {rate:.4f}")
    print(f"curve written to {args.out}")
    return 0


def cmd_synth_corpus(args) -> int:
    try:
        corpus = synth_corpus(
            num_languages=args.languages,
            train_chars=args.train_chars,
            test_sentences=args.test_sentences,
            sentence_chars=args.sentence_chars,
            seed=args.seed,
        )
    except ValueError as exc:  # over synth.MAX_LANGUAGES or synth.MAX_CORPUS_CHARS
        raise ConfigurationError(str(exc)) from None
    write_corpus(corpus, args.out)
    print(
        f"wrote {args.languages} synthetic languages under {args.out} "
        f"({args.train_chars} train chars, {args.test_sentences} test sentences each)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hdclab",
                                description="Hyperdimensional text classification lab")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a language model from a corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--dim", type=int, default=10000)
    t.add_argument("--n", type=int, default=3)
    t.add_argument("--seed", type=_seed, default=1)
    t.add_argument("--deterministic-ties", action="store_true")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("classify", help="classify one text against a model")
    c.add_argument("--model", required=True)
    src = c.add_mutually_exclusive_group(required=True)
    src.add_argument("--text")
    src.add_argument("--file")
    c.set_defaults(func=cmd_classify)

    e = sub.add_parser("eval", help="evaluate a model on a test corpus")
    e.add_argument("--model", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--mode", choices=("multiclass", "pairwise"), default="multiclass")
    e.add_argument("--report")
    e.set_defaults(func=cmd_eval)

    b = sub.add_parser("baseline", help="n-gram histogram baseline accuracy")
    b.add_argument("--corpus", required=True)
    b.add_argument("--n", type=_int_arg(1), default=3)
    b.add_argument("--report")
    b.set_defaults(func=cmd_baseline)

    f = sub.add_parser("fault-sweep", help="accuracy under stuck-at faults")
    f.add_argument("--model", required=True)
    f.add_argument("--corpus", required=True)
    f.add_argument("--fractions", type=_fractions, default="0,0.2,0.4,0.6,0.78,0.9")
    f.add_argument("--trials", type=_int_arg(1), default=10)
    f.add_argument("--mode", choices=("multiclass", "pairwise"), default="multiclass")
    f.add_argument("--independent-masks", action="store_true")
    f.add_argument("--seed", type=_seed, default=0)
    f.add_argument("--out", required=True)
    f.add_argument("--json")
    f.set_defaults(func=cmd_fault_sweep)

    nc = sub.add_parser("noise-curve", help="item-memory recovery vs bit flips")
    nc.add_argument("--dim", type=_int_arg(1), default=10000)
    nc.add_argument("--symbols", type=_int_arg(2), default=27)
    nc.add_argument("--flips", type=_fractions, default="0.1,0.2,0.3,0.4")
    nc.add_argument("--trials", type=_int_arg(1), default=100)
    nc.add_argument("--seed", type=_seed, default=0)
    nc.add_argument("--out", required=True)
    nc.set_defaults(func=cmd_noise_curve)

    sc = sub.add_parser("synth-corpus", help="write a synthetic Markov corpus")
    sc.add_argument("--out", required=True)
    # synth_corpus needs two languages to classify and texts of at least one trigram.
    sc.add_argument("--languages", type=_int_arg(2), default=21)
    sc.add_argument("--train-chars", type=_int_arg(3), default=20000)
    sc.add_argument("--test-sentences", type=_int_arg(0), default=30)
    sc.add_argument("--sentence-chars", type=_int_arg(3), default=100)
    sc.add_argument("--seed", type=_seed, default=0)
    sc.set_defaults(func=cmd_synth_corpus)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Outputs first, so a failing run does no work (synth-corpus makes its tree).
        for flag in ("out", "report", "json"):
            path = getattr(args, flag, None)
            if path == "":
                raise ConfigurationError(f"--{flag} is an empty path")
            if path and args.func is not cmd_synth_corpus and not Path(path).parent.is_dir():
                raise FileNotFoundError(errno.ENOENT, "No such file or directory", path)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
