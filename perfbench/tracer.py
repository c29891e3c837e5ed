"""Span tracing of toxikit from outside the package.

``Tracer.install()`` replaces every public module-level function of every
loaded ``toxikit`` module with a timing wrapper, in each module that binds
the name (so ``toxikit.cli.train`` and ``toxikit.classifier.train`` both
point at the wrapper), plus a few class members listed in
``_CLASS_MEMBERS``.  Generator functions are left alone: calling one
returns before any work is done.  ``uninstall()`` puts the originals back.

A span is ``(name, start, end, parent, maxrss_start_mb, maxrss_end_mb)``;
``parent`` is the index of the enclosing span or -1.  Spans stay in a
list until ``dump`` writes them out.  Self time is a span's duration
minus the durations of its direct children (calls nest, so children never
overlap).  Hooks keyed by span name turn arguments and return values into
item counts, which are taken at the same boundary as the timing.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, class, attribute, span name)
_CLASS_MEMBERS = (
    ("toxikit.lexicon", "Lexicon", "__init__", "lexicon.Lexicon"),
    ("toxikit.lexicon", "Lexicon", "extended", "lexicon.Lexicon.extended"),
    ("toxikit.classifier", "Vocab", "build", "classifier.Vocab.build"),
    ("toxikit.variants", "PinyinTable", "load", "variants.PinyinTable.load"),
    ("toxikit.variants", "GlyphTable", "load", "variants.GlyphTable.load"),
)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count(key, value_of):
    def hook(counters, args, result):
        counters[key] += value_of(args, result)
    return hook


def _fixpoint(counters, args, result):
    counters["pseudolabel.rounds"] += result.iterations
    counters["pseudolabel.admitted"] += sum(len(batch) for batch in result.added_per_round)


def _checkpoint_bytes(counters, args, result):
    counters["classifier.checkpoint_bytes"] = os.path.getsize(args[0])


HOOKS = {
    "normalize.is_substantive": _count("normalize.dropped_brief", lambda a, r: int(not r)),
    "normalize.deduplicate": _count("normalize.dropped_dup", lambda a, r: len(a[0]) - len(r)),
    "lexicon.find_matches": _count("lexicon.find_matches.matched", lambda a, r: int(bool(r))),
    "pseudolabel.extract_candidates": _count("pseudolabel.candidates_out", lambda a, r: len(r)),
    "pseudolabel.iterate_to_fixpoint": _fixpoint,
    "classifier.encode_corpus": _count("classifier.encode_corpus.samples", lambda a, r: len(a[0])),
    "classifier.predict": _count("classifier.predict.samples", lambda a, r: len(a[0])),
    "classifier.train": _count("classifier.train.epochs", lambda a, r: len(r[1])),
    "classifier.save_checkpoint": _checkpoint_bytes,
    "variants.derive": _count("variants.terms_out", lambda a, r: r),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            rss0 = maxrss_mb()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, rss0, maxrss_mb())
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "toxikit" or n.startswith("toxikit.")]
        wrappers: dict[object, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("toxikit.")
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.removeprefix('toxikit.')}.{obj.__qualname__}"
                    wrappers[obj] = self.wrap(name, obj)
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        for module_name, cls_name, attr, span_name in _CLASS_MEMBERS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            self._restore.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(span_name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(span_name, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """name → calls, busy seconds, self seconds, peak maxrss, maxrss rise."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        rows: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, rss0, rss1) in enumerate(self.spans):
            row = rows.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "maxrss_mb": 0.0, "rss_rise_mb": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            row["maxrss_mb"] = max(row["maxrss_mb"], rss1)
            row["rss_rise_mb"] += rss1 - rss0
        return rows

    def dump(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for name, start, end, parent, rss0, rss1 in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "maxrss_start_mb": rss0, "maxrss_end_mb": rss1}) + "\n")
