"""Benchmark of toxikit: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run generates seeded inputs
(``gen.py``), checks them with ``toxikit validate``, measures set-up time
in fresh processes, then runs the workload in a fresh worker process
(``worker.py``) with a closed loop of one client, checks every output,
prints one line per metric and, last, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` a worker makes one untraced pass,
a second worker makes one traced pass, and the metrics are the
``per_layer`` list, preceded by a table of every traced span.  Scratch
files go to ``perfbench/.work/``.  Exits 2 without a result when the
toxikit sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

WORKLOADS = ("pipeline-toxic", "weaklabel-fixpoint", "score-stream")
SETUP_PROBES = 24  # half before the workload process, half after, to span the run
DEADLINE_S = 170.0
# The score-stream checkpoint: trained once per run, untimed, with a fixed seed.
CHECKPOINT_TRAIN_SAMPLES = 4_000
CHECKPOINT_ARGS = ["--task", "toxic", "--epochs", "4", "--seed", "1"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Clock:
    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S

    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def toxikit_cli(argv: list[str], clock: Clock) -> None:
    """Run ``python -m toxikit ARGV`` to completion; raise unless it exits 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "toxikit", *argv], env=_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=clock.left(),
    )
    if proc.returncode != 0:
        raise BenchError(f"toxikit {argv[0]} exited {proc.returncode}: {proc.stdout}{proc.stderr}")


def worker(argv: list[str], clock: Clock) -> float:
    """Start worker.py, return seconds from process start to its ``ready`` line, wait for exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], env=_env(), cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], clock.left())
        line = proc.stdout.readline() if readable else ""
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker {argv} did not become ready")
        code = proc.wait(timeout=clock.left())
    except (BenchError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker {argv} exited {code}")
    return ready


def prepare(workload: str, seed: int, work: Path, clock: Clock) -> tuple[Path, Path | None]:
    """Generate and validate inputs; on score-stream also train the checkpoint."""
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    gen.generate(seed, data, SRC / "toxikit" / "resources")
    for name in ("raw.jsonl", "heldout.jsonl"):
        toxikit_cli(["validate", "--in", str(data / name)], clock)
    if workload != "score-stream":
        return data, None
    clean = work / "checkpoint_clean.jsonl"
    toxikit_cli(["normalize", "--in", str(data / "raw.jsonl"), "--out", str(clean)], clock)
    subset = work / "checkpoint_train.jsonl"
    lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)
    subset.write_text("".join(lines[: CHECKPOINT_TRAIN_SAMPLES + 1]), encoding="utf-8")
    model = work / "model.json"
    toxikit_cli(["train", *CHECKPOINT_ARGS, "--in", str(subset), "--out", str(model)], clock)
    return data, model


def run_worker(base: list[str], work: Path, tag: str, extra: list[str], clock: Clock) -> dict:
    result_path = work / f"result_{tag}.json"
    worker([*base, "--result", str(result_path), *extra], clock)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["toxikit"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported toxikit from {result['toxikit']}, not from {SRC}")
    return result


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tally(results: list[dict]) -> tuple[int, int, list[str]]:
    ops = [ok for r in results for p in r["passes"] for _, ok in p["ops"]]
    problems = [msg for r in results for p in r["passes"] for msg in p["problems"]]
    return len(ops), ops.count(False), problems


def end_to_end(result: dict, setup: list[float]) -> tuple[dict[str, float], list[str]]:
    passes = result["passes"]
    latencies = [seconds for p in passes for seconds, _ in p["ops"]]
    f1s = [p["f1"] for p in passes if p["f1"] is not None]
    p99 = quantile(latencies, 0.99)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "peak_rss_mb": result["peak_rss_mb"],
        "request_p50_ms": 1000.0 * quantile(latencies, 0.50),
        "request_p99_ms": 1000.0 * p99,
        "f1": statistics.median(f1s) if f1s else 0.0,
    }
    beyond = sum(1 for x in latencies if x > p99)
    notes = [
        f"setup samples={len(setup)}",
        f"passes={len(passes)} walls_s={[round(p['wall'], 3) for p in passes]}",
        f"operations={len(latencies)} beyond_p99={beyond}",
    ]
    return values, notes


def per_layer(names: list[str], traced: dict, overhead: float) -> dict[str, float]:
    layers, counters = traced["layers"], traced["counters"]

    def stat(span: str, key: str) -> float:
        return layers.get(span, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    derived = {
        "lexicon.matched_frac": lambda: ratio(counters.get("lexicon.find_matches.matched", 0),
                                              stat("lexicon.find_matches", "calls")),
        "pseudolabel.accept_ratio": lambda: ratio(counters.get("pseudolabel.admitted", 0),
                                                  counters.get("pseudolabel.candidates_out", 0)),
        "classifier.train.epoch_s": lambda: ratio(stat("classifier.train", "s"),
                                                  counters.get("classifier.train.epochs", 0)),
        "cli.self_s": lambda: sum(row["self_s"] for name, row in layers.items() if name.startswith("cli.")),
        "bench.trace_overhead_frac": lambda: overhead,
    }
    values = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]()
        elif key in ("s", "calls", "self_s", "maxrss_mb"):
            values[name] = stat(span, key)
        else:  # an item count taken by a tracer hook
            values[name] = counters.get(name, 0)
    return values


def span_table(layers: dict) -> list[str]:
    lines = [f"{'span':<36}{'calls':>8}{'busy_s':>10}{'self_s':>10}{'maxrss_mb':>11}{'rss_rise_mb':>13}"]
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["s"]):
        lines.append(
            f"{name:<36}{row['calls']:>8}{row['s']:>10.4f}{row['self_s']:>10.4f}"
            f"{row['maxrss_mb']:>11.1f}{row['rss_rise_mb']:>13.1f}"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="toxikit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "toxikit" / "__init__.py").is_file():
        print(f"error: toxikit sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    clock = Clock()
    work = HERE / ".work" / args.workload
    try:
        data, model = prepare(args.workload, args.seed, work, clock)
        base = ["--workload", args.workload, "--data", str(data), "--work", str(work)]
        if model is not None:
            base += ["--model", str(model)]
        lines = [f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"]
        if args.trace:
            untraced = run_worker(base, work, "untraced", [], clock)
            traced = run_worker(base, work, "traced", ["--trace", "1"], clock)
            overhead = traced["passes"][0]["wall"] / untraced["passes"][0]["wall"] - 1.0
            values = per_layer([m["name"] for m in wanted], traced, overhead)
            lines += span_table(traced["layers"])
            lines.append(f"spans written to {work / 'spans.jsonl'}")
            results = [untraced, traced]
        else:
            setup = [worker([*base, "--setup-only"], clock) for _ in range(SETUP_PROBES // 2)]
            result = run_worker(base, work, "run", ["--seconds", str(args.seconds)], clock)
            setup += [worker([*base, "--setup-only"], clock) for _ in range(SETUP_PROBES - len(setup))]
            values, notes = end_to_end(result, setup)
            lines += notes
            results = [result]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = tally(results)
    lines += [f"problem: {msg}" for msg in problems[:20]]
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        lines.append(f"{m['name']} = {value:.6g} {m['unit']}")
    lines.append(f"attempted={attempted} failed={failed} failed_frac={failed / max(attempted, 1):.6g}")
    correct = failed == 0 and not problems
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
