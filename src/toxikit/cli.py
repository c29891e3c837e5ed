"""Command-line entry point chaining the pipeline stages.

Exit codes: 0 success, 1 usage error (a bad value on the command line, whatever
the flag, reported as ``argument --flag: <what is wrong>``), 2 data error (a bad
file or record, the message naming ``path:line`` where known), 3 internal check failure.

Config files are line-oriented ``key=value`` ('#' comments); flags given
on the command line take precedence over the file.  The bundled resource
tables can be overridden with the TOXIKIT_RESOURCES environment variable
or per-invocation flags.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import resources
from .classifier import (
    EncodedSet,
    LexiconMismatchError,
    Task,
    TkeConfig,
    Vocab,
    eligible_samples,
    encode_corpus,
    grad_check,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .corpus import (
    CorpusError,
    SplitSpec,
    ToxiSample,
    corpus_stats,
    iter_corpus,
    iter_corpus_samples,
    read_corpus,
    read_lines,
    split_dataset,
    write_corpus,
    write_jsonl,
)
from .lexicon import find_matches, load_lexicon
from .metrics import MetricsError, expression_accuracy_breakdown, fleiss_kappa, weighted_prf
from .normalize import clean_corpus
from .pseudolabel import iterate_to_fixpoint
from .variants import (
    DerivationRule,
    GlyphTable,
    PinyinTable,
    compose_deformation,
    detect_code_mixing,
    expand_deformation,
    gen_abbreviation,
    gen_homophones,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3

GRAD_TOLERANCE = 1e-4
CORRUPT_FLOOR = 1e-1


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this tool reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------- values

def _number(kind: type, text: str) -> int | float:
    """``kind(text)`` for int or float, refusing the other scripts' digits and '_' that both take."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII decimal number: {text!r}")
    return kind(text)


def _checked(kind: type, text: str, least: int | None = None) -> int | float:
    """An ASCII int, or a finite float, ≥ ``least`` if given; else a ValueError saying what was expected."""
    try:
        value = _number(kind, text)
        if (kind is int or math.isfinite(value)) and (least is None or value >= least):
            return value
    except ValueError:
        pass
    bound = "" if least is None else f" ≥ {least}"
    raise ValueError(f"expected {'an integer' if kind is int else 'a finite number'}{bound}, got {text!r}")


# the config keys: each TkeConfig field, read as the type of its default value
_CONFIG_FIELDS = {f.name: type(getattr(TkeConfig(), f.name)) for f in fields(TkeConfig)}


def _config_value(key: str, text: str):
    """TkeConfig field ``key`` read from a config line or a flag and checked alone."""
    kind, text = _CONFIG_FIELDS[key], text.strip()
    try:
        if kind is bool:
            value = {"true": True, "1": True, "false": False, "0": False}[text.lower()]
        else:
            value = _number(kind, text) if kind in (int, float) else kind(text)
    except (KeyError, ValueError):
        raise ValueError(f"bad value {text!r} for {key}") from None
    TkeConfig(**{key: value})  # a value of the right kind, out of range: its message says which
    return value


# every number flag but the model flags: dest -> (kind, least value); --seeds is a comma-separated list
_NUMBER_FLAGS = dict(min_chars=(int, 1), min_freq=(int, 0), min_score=(float, None), max_n=(int, 1), configs=(int, 1),
                     check_seed=(int, 0), split_seed=(int, 0), train_ratio=(float, None), seeds=(int, 0))


def _flag_value(dest: str, text: str | list | None):
    """The value of the flag stored at ``dest`` given as ``text``, or a ValueError saying what is wrong."""
    if text == []:  # argparse takes the -- of --flag=-- for the end of the options and stores []
        raise ValueError("expected a value, got '--'")
    if text == "":  # given, not defaulted (no value flag defaults to ''): never read as "not given"
        raise ValueError("expected a value, got ''")
    if dest in _CONFIG_FIELDS and text is not None:
        return _config_value(dest, text)
    if dest not in _NUMBER_FLAGS:
        return text  # a path, a word, or a flag not given
    kind, least = _NUMBER_FLAGS[dest]
    value = [_checked(kind, s, least) for s in text.split(",")] if dest == "seeds" else _checked(kind, text, least)
    if dest == "seeds" and len(set(value)) != len(value):
        raise ValueError(f"repeated seed in {text!r}")
    if dest == "train_ratio":
        SplitSpec(train_ratio=value, seed=0)  # its own check: a ratio in (0, 1)
    return value


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    for where, line in read_lines(path):
        key, equals, raw = line.partition("=")
        if not equals:
            raise CorpusError(f"{where}: expected key=value")
        if (key := key.strip()) not in _CONFIG_FIELDS:
            raise CorpusError(f"{where}: unknown config key {key!r}")
        values[key] = _in_file(where, _config_value, key, raw)
    return values


def _in_file(where: str, read, *args):
    """``read(*args)``, its ValueError turned into a data error naming ``where``, a file's ``path:line``."""
    try:
        return read(*args)
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def _add_model_flags(sub) -> None:
    sub.add_argument("--config", help="key=value config file; flags override it")
    sub.add_argument("--task", default=None, help=f"one of {', '.join(t.value for t in Task)}")
    sub.add_argument("--d", default=None, help="embedding dimension")
    sub.add_argument("--h", default=None, help="hidden dimension")
    sub.add_argument("--lam", default=None, help="enhancement strength in [0,1]")
    sub.add_argument("--pad-len", default=None)
    sub.add_argument("--epochs", default=None)
    sub.add_argument("--batch", default=None)
    sub.add_argument("--lr", default=None)
    sub.add_argument("--dropout", default=None)
    sub.add_argument("--seed", default=None)
    sub.add_argument("--no-enhancement", dest="enhancement", action="store_const", const=False, help="ablate the lexicon")
    sub.add_argument("--weight-decay", default=None)


def _assemble_config(args) -> TkeConfig:
    merged = _parse_config_file(args.config) if args.config else {}
    merged.update((key, value) for key in _CONFIG_FIELDS if (value := getattr(args, key, None)) is not None)
    if "task" not in merged:
        raise CorpusError("no task given (flag --task or config key task)")
    return TkeConfig(**merged)


def _lexicon_file(args) -> str | Path:
    """The ``--lexicon`` file, or else the one the resource directory holds."""
    return getattr(args, "lexicon", None) or resources.lexicon_path()


def _write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- commands

def cmd_normalize(args) -> int:
    exclude = {_in_file(where, _checked, int, line) for where, line in read_lines(args.exclude)} if args.exclude else set()
    samples = [s for s in read_corpus(args.infile) if s.id not in exclude]
    kept, dropped_brief, dropped_dup = clean_corpus(samples, args.min_chars)
    write_corpus(args.out, kept)
    print(f"kept={len(kept)} dropped_brief={dropped_brief} dropped_dup={dropped_dup}")
    return EXIT_OK


def cmd_match(args) -> int:
    lex = load_lexicon(_lexicon_file(args))
    samples = read_corpus(args.infile)
    found = [find_matches(sample.text, lex) for sample in samples]
    rows = (
        {
            "id": sample.id,
            "matches": [
                {"start": m.start, "end": m.end, "term": m.entry.term, "category": m.entry.category.name.lower()}
                for m in matches
            ],
        }
        for sample, matches in zip(samples, found)
    )
    write_jsonl(args.out, rows)
    print(f"samples={len(samples)} matched={sum(map(bool, found))}")
    return EXIT_OK


def cmd_derive(args) -> int:
    rule = DerivationRule(args.rule)
    resource_dir = Path(args.resources) if args.resources else resources.resource_dir()
    if rule is DerivationRule.ABBREVIATION:
        table = PinyinTable.load(resource_dir / "pinyin.tsv")
        print(gen_abbreviation(args.term, table).variant)
    elif rule is DerivationRule.HOMOPHONIC:
        table = PinyinTable.load(resource_dir / "pinyin.tsv")
        for cand in gen_homophones(args.term, table, args.pool):
            print(f"{cand.variant}\t{cand.note}")
    elif rule is DerivationRule.DEFORMATION:
        table = GlyphTable.load(resource_dir / "glyph.tsv")
        if len(args.term) == 1:
            expansion = expand_deformation(args.term, table)
            print("+".join(expansion.components) if expansion.components else expansion.note)
        else:
            hits = compose_deformation(list(args.term), table)
            print(" ".join(hits) if hits else "no character matches these components")
    else:  # code_mixing
        result = detect_code_mixing(args.term)
        runs = " ".join(f"{r.script}:{r.text}" for r in result.runs)
        print(f"mixed={'true' if result.mixed else 'false'} runs={runs}")
    return EXIT_OK


def cmd_pseudolabel(args) -> int:
    lex = load_lexicon(_lexicon_file(args))
    pairs = [(s.id, s.text) for s in iter_corpus(args.infile)]  # no sample outlives its pair
    accept = [line for _, line in read_lines(args.accept)] if args.accept else []
    result = iterate_to_fixpoint(
        pairs, lex, accept, min_freq=args.min_freq, min_score=args.min_score, max_n=args.max_n
    )
    rows = (
        {
            "id": row.sample_id,
            "pseudo_label": row.pseudo_label.value,
            "matches": [{"start": m.start, "end": m.end, "term": m.entry.term} for m in row.matches],
        }
        for row in result.labels
    )
    write_jsonl(args.out, rows)
    if args.report:
        with Path(args.report).open("w", encoding="utf-8") as fh:
            fh.write("term\ttoxic_freq\tclean_freq\tscore\n")
            for cand in result.candidates:
                fh.write(f"{cand.term}\t{cand.toxic_freq}\t{cand.clean_freq}\t{cand.score:.6f}\n")
    toxic = sum(1 for row in result.labels if row.pseudo_label.value == "toxic")
    added = sum(len(batch) for batch in result.added_per_round)
    print(
        f"iterations={result.iterations} toxic={toxic} "
        f"non_toxic={len(result.labels) - toxic} added={added}"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    good = 0
    bad = 0
    for item in iter_corpus_samples(args.infile):
        if isinstance(item, CorpusError):
            print(str(item))
            bad += 1
        else:
            good += 1
    print(f"records={good + bad} invalid={bad}")
    return EXIT_OK if bad == 0 else EXIT_DATA


def _stats_payload(report) -> dict:
    return {
        "by_topic": {topic.value: asdict(row) for topic, row in report.by_topic.items()},
        "overall": asdict(report.overall),
        "group_expression": {
            group.value: asdict(row) for group, row in report.group_expression.items()
        },
    }


def cmd_stats(args) -> int:
    report = corpus_stats(read_corpus(args.infile))
    header = f"{'topic':<10}{'non_toxic':>10}{'toxic':>7}{'off':>6}{'hate':>6}{'h_exp':>7}{'h_imp':>7}{'h_rep':>7}{'total':>7}{'avg_len':>9}"
    print(header)
    rows = list(report.by_topic.items()) + [(None, report.overall)]
    for topic, row in rows:
        name = topic.value if topic else "total"
        print(
            f"{name:<10}{row.non_toxic:>10}{row.toxic:>7}{row.offensive:>6}{row.hate:>6}"
            f"{row.hate_explicit:>7}{row.hate_implicit:>7}{row.hate_reporting:>7}"
            f"{row.total:>7}{row.avg_length:>9.2f}"
        )
    print()
    print(f"{'group':<15}{'explicit':>9}{'implicit':>9}{'reporting':>10}{'total':>7}")
    for group, row in report.group_expression.items():
        print(f"{group.value:<15}{row.explicit:>9}{row.implicit:>9}{row.reporting:>10}{row.total:>7}")
    if args.json:
        _write_json(args.json, _stats_payload(report))
    return EXIT_OK


def _task_set(samples, where, lex, cfg, vocab=None) -> tuple[list[ToxiSample], Vocab, EncodedSet]:
    """The samples of file ``where`` usable for cfg's task, the vocabulary
    (built from them unless given) and their encodings.  An empty
    selection, or a selected sample with an empty text, is a data error."""
    selected = eligible_samples(samples, cfg.task)
    if not selected:
        raise CorpusError(f"{where}: no samples usable for task {cfg.task.value}")
    empty = next((s.id for s in selected if not s.text), None)
    if empty is not None:
        raise CorpusError(f"{where}: sample {empty} has an empty text")
    if vocab is None:
        vocab = Vocab.build(s.text for s in selected)
    return selected, vocab, encode_corpus(selected, vocab, lex, cfg)


def cmd_train(args) -> int:
    cfg = _assemble_config(args)
    lex = load_lexicon(_lexicon_file(args))
    _, vocab, encoded = _task_set(read_corpus(args.infile), args.infile, lex, cfg)
    params, history = train(encoded, cfg, vocab_size=len(vocab))
    save_checkpoint(args.out, params, cfg, vocab, lex)
    last = history[-1]
    print(
        f"task={cfg.task.value} epochs_run={len(history)} train_loss={last.train_loss:.4f} "
        f"train_acc={100 * last.train_accuracy:.1f} model={args.out}"
    )
    return EXIT_OK


def _evaluate(selected, encoded, params, cfg) -> dict:
    labels, _ = predict(encoded, params, cfg)
    mode = "multilabel" if cfg.multilabel else "single"
    prf = weighted_prf(labels, encoded.labels, cfg.n_classes, mode=mode)
    payload = {
        "task": cfg.task.value,
        "n_test": len(selected),
        "precision": round(prf.precision, 10),
        "recall": round(prf.recall, 10),
        "f1": round(prf.f1, 10),
        "support": list(prf.support),
    }
    if cfg.task is Task.TOXIC:
        strata = expression_accuracy_breakdown([int(x) for x in labels], selected)
        payload["expression_accuracy"] = {
            name: {"correct": row.correct, "total": row.total, "accuracy": round(row.accuracy, 10)}
            for name, row in strata.items()
        }
    return payload


def cmd_eval(args) -> int:
    lexicon_file = _lexicon_file(args)
    lex = load_lexicon(lexicon_file)
    try:
        params, cfg, vocab = load_checkpoint(args.model, lex)
    except LexiconMismatchError as exc:
        raise LexiconMismatchError(f"{exc} than {lexicon_file}") from None
    selected, _, encoded = _task_set(read_corpus(args.test), args.test, lex, cfg, vocab)
    payload = _evaluate(selected, encoded, params, cfg)
    print(
        f"task={payload['task']} n={payload['n_test']} "
        f"P={payload['precision']:.1f} R={payload['recall']:.1f} F1={payload['f1']:.1f}"
    )
    for name, row in payload.get("expression_accuracy", {}).items():
        print(f"  {name:<10} acc={row['accuracy']:.1f} ({row['correct']}/{row['total']})")
    if args.json:
        _write_json(args.json, payload)
    return EXIT_OK


def _random_check_batch(rng, cfg: TkeConfig, vocab_size: int, size: int) -> EncodedSet:
    tok, tox, labels = [], [], []
    for _ in range(size):
        n_real = int(rng.integers(1, cfg.pad_len + 1))
        tok.append(rng.integers(1, vocab_size, size=n_real))
        tox.append(rng.integers(0, 6, size=n_real))
        if cfg.multilabel:
            label = (rng.random(cfg.n_classes) < 0.5).astype(np.float64)
            if label.sum() == 0:
                label[int(rng.integers(cfg.n_classes))] = 1.0
        else:
            label = int(rng.integers(cfg.n_classes))
        labels.append(label)
    offsets = np.cumsum([0] + [len(t) for t in tok])
    return EncodedSet(np.concatenate(tok), np.concatenate(tox), offsets, np.array(labels))


def run_gradcheck(n_configs: int, seed: int) -> tuple[float, float]:
    """(max relative error over random configs, corrupted self-test error)."""
    rng = np.random.default_rng(seed)
    tasks = list(Task)
    worst = 0.0
    corrupted = 0.0
    for i in range(n_configs):
        cfg = TkeConfig(
            task=tasks[i % len(tasks)],
            d=int(rng.integers(3, 9)),
            h=int(rng.integers(3, 9)),
            lam=float(rng.choice([0.0, 0.3, 0.5, 1.0])),
            pad_len=int(rng.integers(4, 9)),
            dropout=0.0,
            seed=int(rng.integers(1, 10_000)),
        )
        vocab_size = int(rng.integers(6, 14))
        params = init_params(vocab_size, cfg)
        batch = _random_check_batch(rng, cfg, vocab_size, size=int(rng.integers(2, 5)))
        weights = rng.uniform(0.5, 2.0, size=cfg.n_classes)
        worst = max(worst, grad_check(params, batch, cfg, class_weights=weights))
        if i == n_configs - 1:
            corrupted = grad_check(params, batch, cfg, class_weights=weights, corrupt=True)
    return worst, corrupted


def cmd_gradcheck(args) -> int:
    worst, corrupted = run_gradcheck(args.configs, args.check_seed)
    print(f"max_rel_error={worst:.3e} corrupted_self_test={corrupted:.3e}")
    if worst < GRAD_TOLERANCE and corrupted > CORRUPT_FLOOR:
        return EXIT_OK
    return EXIT_CHECK


def cmd_kappa(args) -> int:
    lines = list(read_lines(args.infile))
    rows = [[_in_file(where, _checked, int, cell) for cell in line.split("\t")] for where, line in lines]
    try:
        value = fleiss_kappa(rows)
    except MetricsError as exc:
        raise MetricsError(f"{args.infile if exc.item is None else lines[exc.item][0]}: {exc}") from None
    print(f"kappa={value:.4f}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg_base = _assemble_config(args)
    lex = load_lexicon(_lexicon_file(args))
    spec = SplitSpec(train_ratio=args.train_ratio, seed=args.split_seed, stratify=args.stratify)

    clean, _, _ = clean_corpus(read_corpus(args.infile))
    stats = _stats_payload(corpus_stats(clean))
    train_set, test_set = split_dataset(clean, spec)
    # both splits are selected and encoded before anything is written, so a
    # split the task cannot use leaves no outdir; encoding never reads the seed
    _, vocab, encoded = _task_set(train_set, f"{args.infile} (train split)", lex, cfg_base)
    test_selected, _, test_encoded = _task_set(test_set, f"{args.infile} (test split)", lex, cfg_base, vocab)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "stats.json", stats)
    write_corpus(outdir / "train.jsonl", train_set)
    write_corpus(outdir / "test.jsonl", test_set)

    # each seed's model is saved and evaluated before the next trains, so no
    # finished model waits in memory, and a failing seed leaves no later one's files
    for seed in args.seeds:
        cfg = replace(cfg_base, seed=seed)
        params, _ = train(encoded, cfg, vocab_size=len(vocab))
        save_checkpoint(outdir / f"model_seed_{seed}.json", params, cfg, vocab, lex)
        payload = _evaluate(test_selected, test_encoded, params, cfg)
        payload["seed"] = seed
        _write_json(outdir / f"report_seed_{seed}.json", payload)

    # aggregate strictly from the per-seed reports on disk
    reports = [json.loads((outdir / f"report_seed_{seed}.json").read_text(encoding="utf-8")) for seed in args.seeds]
    aggregate = {"task": cfg_base.task.value, "seeds": args.seeds, "n_test": reports[0]["n_test"]}
    for metric in ("precision", "recall", "f1"):
        values = [r[metric] for r in reports]
        mean = statistics.fmean(values)
        sd = statistics.stdev(values) if len(values) > 1 else 0.0
        aggregate[metric] = {"mean": round(mean, 10), "sd": round(sd, 10)}
        print(f"{metric}: {mean:.1f} ± {sd:.1f}")
    _write_json(outdir / "aggregate.json", aggregate)
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _build_parser() -> _Parser:
    parser = _Parser(prog="toxikit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("normalize", help="clean texts, drop brief and duplicate samples")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-chars", default="4", help="content characters a kept text needs")
    p.add_argument("--exclude", help="file of sample ids to drop (ad filtering)")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("match", help="report lexicon matches per sample")
    p.add_argument("--lexicon", default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("derive", help="generate profanity variants")
    p.add_argument("--term", required=True)
    p.add_argument("--rule", required=True, choices=[r.value for r in DerivationRule])
    p.add_argument("--pool", default=None, help="replacement characters for homophonic")
    p.add_argument("--resources", default=None)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("pseudolabel", help="lexicon-driven weak labels + candidate report")
    p.add_argument("--lexicon", default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--accept", default=None, help="reviewed terms, one per line")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="candidates TSV")
    p.add_argument("--min-freq", default="3")
    p.add_argument("--min-score", default="3.0")
    p.add_argument("--max-n", default="4")
    p.set_defaults(func=cmd_pseudolabel)

    p = sub.add_parser("validate", help="check every record against the label hierarchy")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="per-topic and per-group corpus statistics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train one subtask model")
    p.add_argument("--lexicon", default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--configs", default="3")
    p.add_argument("--seed", dest="check_seed", default="7")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("kappa", help="Fleiss' kappa over an items × categories count TSV")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("pipeline", help="normalize → stats → split → seed-looped train/eval")
    p.add_argument("--lexicon", default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated, none repeated")
    p.add_argument("--train-ratio", default="0.8")
    p.add_argument("--split-seed", default="0")
    p.add_argument("--stratify", action="store_true")
    _add_model_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def _value_flags(command: _Parser) -> list[argparse.Action]:
    """The flags of a subcommand that take a value."""
    return [a for a in command._actions if a.option_strings and a.nargs is None]


def read_command_line(argv=None) -> argparse.Namespace:
    """The parsed command line, each value flag's text replaced by its value.
    A bad value, whatever the flag, is a usage error (SystemExit 1) naming it."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices[args.command]
    for action in _value_flags(command):
        try:
            setattr(args, action.dest, _flag_value(action.dest, getattr(args, action.dest)))
        except ValueError as exc:
            command.error(f"argument {'/'.join(action.option_strings)}: {exc}")
    if args.command == "derive" and args.rule == DerivationRule.HOMOPHONIC.value and args.pool is None:
        command.error("argument --pool: --rule homophonic needs --pool")
    return args


def main(argv=None) -> int:
    try:
        args = read_command_line(argv)
    except SystemExit as exc:  # argparse's, after it printed why
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every data-error class is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
