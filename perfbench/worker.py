"""One workload in one fresh process.

Started by ``run.py``; not meant to be run by hand.  The process imports
toxikit, sets up (``load_lexicon``; on score-stream also
``load_checkpoint``), prints ``ready`` on stdout, then makes passes over
its workload until ``--seconds`` would be overrun (always at least one;
the default ``--seconds 0`` makes exactly one).  Outputs are checked
after each pass, outside the timed region.  The result goes to ``--result`` as JSON.

A pass is one ``toxikit pipeline`` invocation (pipeline-toxic); one
derive → ``toxikit normalize`` → ``toxikit pseudolabel`` chain
(weaklabel-fixpoint); or one sweep of the seeded request stream
(score-stream).  An operation is a CLI invocation or a score request.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import toxikit
from toxikit import classifier, cli, lexicon, metrics, normalize, resources, variants
from toxikit.corpus import Expression, Platform, TargetGroup, Topic, ToxiSample

from tracer import Tracer, maxrss_mb

F1_FLOOR = 60.0       # toxic-task F1 (percent) any working build clears on these inputs
PROBE_SIZE = 16
PROB_TOLERANCE = 1e-9


def toxic_f1(gold: list[int], pred: list[int]) -> float:
    """Weighted F1 in percent, as the pipeline's reports compute it."""
    return metrics.weighted_prf(pred, gold, 2, mode="single").f1


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def checked(check, *args) -> list[str]:
    """Run an output check; a missing or malformed output is a problem, not a crash."""
    try:
        return check(*args)
    except (OSError, AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"{check.__name__}: {exc!r}"]


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, captured stdout, seconds) of one in-process CLI invocation."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    return code, out.getvalue(), time.perf_counter() - start


class Pass:
    """What one pass produced: its wall time and each operation's (seconds, ok)."""

    def __init__(self):
        self.wall = 0.0
        self.ops: list[tuple[float, bool]] = []
        self.f1: float | None = None
        self.problems: list[str] = []

    def op(self, seconds: float, problems: list[str]) -> None:
        self.ops.append((seconds, not problems))
        self.problems.extend(problems)


# ---------------------------------------------------------------- pipeline-toxic

def pipeline_pass(ctx) -> Pass:
    result = Pass()
    outdir = ctx.work / "pipeline"
    shutil.rmtree(outdir, ignore_errors=True)
    code, _, seconds = run_cli([
        "pipeline", "--task", "toxic", "--in", str(ctx.data / "raw.jsonl"), "--outdir", str(outdir),
        "--seeds", "1,2", "--epochs", "3", "--stratify",
    ])
    ctx.timed_done()
    result.wall = seconds
    problems = [f"pipeline exit {code}"] if code != 0 else checked(check_pipeline, outdir, ctx.manifest, result)
    result.op(seconds, problems)
    return result


def check_pipeline(outdir: Path, manifest: dict, result: Pass) -> list[str]:
    problems = []
    aggregate = json.loads((outdir / "aggregate.json").read_text(encoding="utf-8"))
    if aggregate["seeds"] != [1, 2]:
        problems.append(f"aggregate seeds {aggregate['seeds']}")
    for seed in (1, 2):
        report = json.loads((outdir / f"report_seed_{seed}.json").read_text(encoding="utf-8"))
        if report["seed"] != seed:
            problems.append(f"report_seed_{seed} names seed {report['seed']}")
    clean_total = json.loads((outdir / "stats.json").read_text(encoding="utf-8"))["overall"]["total"]
    n_train = len(_jsonl(outdir / "train.jsonl")) - 1  # minus the schema header
    if clean_total != manifest["expected_clean"]:
        problems.append(f"cleaned corpus has {clean_total} samples, expected {manifest['expected_clean']}")
    if aggregate["n_test"] + n_train != clean_total:
        problems.append(f"n_test {aggregate['n_test']} + train {n_train} != cleaned {clean_total}")
    result.f1 = aggregate["f1"]["mean"]
    if not result.f1 > F1_FLOOR:
        problems.append(f"f1 {result.f1} not above the floor {F1_FLOOR}")
    return problems


# ---------------------------------------------------------------- weaklabel-fixpoint

def derive_lexicon(lex, out_path: Path) -> int:
    """Write the bundled lexicon plus its abbreviation and homophone variants; return the term count.

    The homophone pool is every character of the pinyin table.  Variants
    that repeat an existing term are skipped, so the TSV loads cleanly.
    """
    pinyin = resources.pinyin_path()
    table = variants.PinyinTable.load(pinyin)
    pool = [
        line.split("\t")[0]
        for line in pinyin.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    terms = {entry.term for entry in lex}
    rows = [f"{e.term}\t{e.category.name.lower()}\t{e.surface.value}\t{e.rule_tag.value}" for e in lex]
    for entry in lex:
        if not all(ch in table for ch in entry.term):
            continue
        derived = [variants.gen_abbreviation(entry.term, table)]
        derived += variants.gen_homophones(entry.term, table, pool)
        for cand in derived:
            if cand.variant not in terms:
                terms.add(cand.variant)
                rows.append(f"{cand.variant}\t{entry.category.name.lower()}\t{entry.surface.value}\t{cand.rule.value}")
    out_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return len(rows)


def weaklabel_pass(ctx) -> Pass:
    result = Pass()
    data, work = ctx.data, ctx.work
    derived = work / "derived.tsv"
    clean, labels, report = work / "clean.jsonl", work / "labels.jsonl", work / "candidates.tsv"
    ctx.fixpoint = None
    start = time.perf_counter()
    n_terms = ctx.derive(ctx.lex, derived)
    code_n, out_n, secs_n = run_cli(["normalize", "--in", str(data / "raw.jsonl"), "--out", str(clean)])
    code_p, out_p, secs_p = run_cli([
        "pseudolabel", "--lexicon", str(derived), "--in", str(clean), "--accept", str(data / "accept.txt"),
        "--out", str(labels), "--report", str(report),
    ])
    result.wall = time.perf_counter() - start
    ctx.timed_done()

    m = ctx.manifest
    expected = f"kept={m['expected_clean']} dropped_brief={m['n_brief']} dropped_dup={m['n_dup']}"
    ok_n = code_n == 0 and out_n.strip() == expected
    result.op(secs_n, [] if ok_n else [f"normalize exit {code_n}: {out_n.strip()!r}, expected {expected!r}"])
    result.op(secs_p, [f"pseudolabel exit {code_p}"] if code_p != 0 else checked(
        check_fixpoint, ctx, derived, clean, labels, report, out_p, n_terms, result))
    return result


def check_fixpoint(ctx, derived, clean, labels, report, stdout, n_terms, result: Pass) -> list[str]:
    problems = []
    m = ctx.manifest
    fixpoint = ctx.fixpoint
    if fixpoint is None:
        return ["iterate_to_fixpoint was not called"]
    if fixpoint.iterations != 3:
        problems.append(f"fixpoint took {fixpoint.iterations} rounds, expected 3")
    rounds = [sorted(batch) for batch in fixpoint.added_per_round]
    if rounds != [sorted(m["tier1"]), sorted(m["tier2"])]:
        problems.append(f"added_per_round {rounds} != planted tiers")
    if f"iterations={fixpoint.iterations} " not in stdout:
        problems.append(f"stdout {stdout.strip()!r} disagrees with the fixpoint result")
    pseudo = {row["id"]: row["pseudo_label"] for row in _jsonl(labels)}
    missed = [i for i in m["planted_ids"] if pseudo.get(i) != "toxic"]
    if missed:
        problems.append(f"{len(missed)} planted texts not pseudo-toxic, e.g. id {missed[0]}")
    seed_terms = {line.split("\t")[0] for line in derived.read_text(encoding="utf-8").splitlines()}
    if len(seed_terms) != n_terms:
        problems.append(f"derived lexicon has {len(seed_terms)} distinct terms, derive reported {n_terms}")
    reported = {line.split("\t")[0] for line in report.read_text(encoding="utf-8").splitlines()[1:]}
    leaked = sorted(reported & (seed_terms | set(m["tier1"]) | set(m["tier2"])))
    if leaked:
        problems.append(f"lexicon terms in the candidate report: {leaked[:5]}")
    gold = {row["id"]: row["toxic"] for row in _jsonl(clean)[1:]}
    if set(gold) != set(pseudo):
        problems.append("pseudo labels do not cover the cleaned corpus")
    else:
        ids = sorted(gold)
        result.f1 = toxic_f1([gold[i] for i in ids], [int(pseudo[i] == "toxic") for i in ids])
    return problems


# ---------------------------------------------------------------- score-stream

def _template(record: dict) -> ToxiSample:
    return ToxiSample(
        id=record["id"], platform=Platform(record["platform"]), topic=Topic(record["topic"]),
        text=record["text"], toxic=record["toxic"], hate=record["hate"],
        groups=frozenset(TargetGroup(g) for g in record["groups"]),
        expression=Expression(record["expression"]) if record["expression"] else None,
    )


def score(ctx, batch: list[ToxiSample]):
    samples = [replace(s, text=normalize.normalize_text(s.text)) for s in batch]
    encoded = classifier.encode_corpus(samples, ctx.vocab, ctx.lex, ctx.cfg)
    return classifier.predict(encoded, ctx.params, ctx.cfg)


def build_stream(ctx) -> list[list[ToxiSample]]:
    """Requests take consecutive held-out comments, wrapping around the pool."""
    pool = [_template(r) for r in _jsonl(ctx.data / "heldout.jsonl")[1:]]
    requests, cursor = [], 0
    for size in ctx.manifest["request_sizes"]:
        requests.append([pool[(cursor + k) % len(pool)] for k in range(size)])
        cursor += size
    return requests


def check_request(batch, output) -> list[str]:
    if output is None:
        return ["request raised"]
    labels, probs = output
    if labels.shape != (len(batch),) or not set(labels.tolist()) <= {0, 1}:
        return [f"labels {labels.shape} not one of 0/1 per comment"]
    if probs.shape != (len(batch), 2) or not all(math.isfinite(x) for x in probs.ravel().tolist()):
        return ["probabilities not a finite row per comment"]
    if abs(probs.sum(axis=1) - 1.0).max() > PROB_TOLERANCE:
        return ["probability rows do not sum to 1"]
    return []


def score_pass(ctx) -> Pass:
    result = Pass()
    outputs = []
    start = time.perf_counter()
    for batch in ctx.stream:
        t0 = time.perf_counter()
        try:
            output = score(ctx, batch)
        except Exception:
            traceback.print_exc()
            output = None
        outputs.append((time.perf_counter() - t0, output))
    result.wall = time.perf_counter() - start
    ctx.timed_done()

    predicted: dict[int, int] = {}
    for batch, (seconds, output) in zip(ctx.stream, outputs):
        problems = checked(check_request, batch, output)
        result.op(seconds, problems)
        if not problems:
            for sample, label in zip(batch, output[0].tolist()):
                predicted.setdefault(sample.id, label)
    gold = {s.id: s.toxic for batch in ctx.stream for s in batch}
    if set(predicted) == set(gold):
        ids = sorted(gold)
        result.f1 = toxic_f1([gold[i] for i in ids], [predicted[i] for i in ids])
    else:
        result.problems.append("some held-out comments got no prediction")

    # probes: the head of the largest request, each scored alone, must keep its label
    largest = max(range(len(ctx.stream)), key=lambda j: len(ctx.stream[j]))
    in_batch = outputs[largest][1]
    if in_batch is not None:
        for k, sample in enumerate(ctx.stream[largest][:PROBE_SIZE]):
            try:
                alone = int(score(ctx, [sample])[0][0])
            except Exception:
                traceback.print_exc()
                alone = None
            if alone != int(in_batch[0][k]):
                result.problems.append(f"probe {sample.id}: label {alone} alone, {in_batch[0][k]} in a batch")
                result.ops[largest] = (result.ops[largest][0], False)
    return result


# ---------------------------------------------------------------- driver

PASSES = {"pipeline-toxic": pipeline_pass, "weaklabel-fixpoint": weaklabel_pass, "score-stream": score_pass}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--data", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--model", default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", default=None)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ctx = SimpleNamespace()
    ctx.lex = lexicon.load_lexicon(resources.lexicon_path())
    if args.workload == "score-stream":
        ctx.params, ctx.cfg, ctx.vocab = classifier.load_checkpoint(args.model)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    ctx.data, ctx.work = Path(args.data), Path(args.work)
    ctx.manifest = json.loads((ctx.data / "manifest.json").read_text(encoding="utf-8"))
    ctx.derive = tracer.wrap("variants.derive", derive_lexicon) if tracer else derive_lexicon
    original_fixpoint = cli.iterate_to_fixpoint

    def capture_fixpoint(*a, **kw):
        # the CLI prints only totals; the checks need the per-round result
        ctx.fixpoint = original_fixpoint(*a, **kw)
        return ctx.fixpoint

    cli.iterate_to_fixpoint = capture_fixpoint

    def timed_done():
        # checks run after this; a traced process stops tracing here and makes one pass
        if tracer:
            cli.iterate_to_fixpoint = original_fixpoint
            tracer.uninstall()

    ctx.timed_done = timed_done
    if args.workload == "score-stream":
        ctx.stream = build_stream(ctx)

    run_pass = PASSES[args.workload]
    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(ctx))
        elapsed = time.perf_counter() - begin
        if tracer or elapsed + elapsed / len(passes) > args.seconds:
            break
    cli.iterate_to_fixpoint = original_fixpoint

    out = {
        "toxikit": toxikit.__file__,
        "passes": [{"wall": p.wall, "ops": p.ops, "f1": p.f1, "problems": p.problems} for p in passes],
        "peak_rss_mb": maxrss_mb(),
    }
    if tracer:
        tracer.dump(ctx.work / "spans.jsonl")
        out["layers"] = tracer.summary()
        out["counters"] = dict(tracer.counters)
    Path(args.result).write_text(json.dumps(out) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
