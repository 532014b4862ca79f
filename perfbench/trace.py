"""Spans and counts recorded around logotree's public functions.

A ``Recorder`` patches the functions named in a target list (in every
logotree module that imported them, and on classes for methods), so each
call appends one span ``[name, start, end, parent, size]`` to an in-memory
list. ``size`` is the amount of work the call was handed (characters,
batch rows) where a target defines it. Nothing inside ``src/logotree`` is
edited; ``uninstall`` restores every original.

The workloads run with the small ``PROBES`` list installed, which gives
the end-to-end timings (step stamps, evaluation spans); a traced
repetition installs ``TRACED`` as well, which gives per-layer self time.
With ``stop_after_setup`` set, the first span named in ``SETUP_ENDS``
raises ``SetupDone`` instead of opening, which ends a job at the end of
its set-up.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import logotree  # noqa: F401  (the package must be importable before patching)
from logotree import autodiff, checkpoint, encoders, ids, lm, phono, pron

TAPE = "autodiff.tape_record"
#: set-up ends where the first optimizer step records its forward pass, or
#: where the read-only job starts its first phase after loading
SETUP_ENDS = frozenset({TAPE, "ids.depth_histogram", "pron.evaluate", "lm.eval_lm"})


class SetupDone(Exception):
    """Raised at the end of set-up when the recorder stops there."""


@dataclass(frozen=True)
class Target:
    name: str                      # "<module>.<function>" or "<module>.<Class>.<method>"
    size: Callable | None = None   # (*args, **kwargs) -> work units of the call
    span: bool = True              # False: count calls only


def _lines_size(model, lines, *a, **k):
    return sum(len(line) + 1 for line in lines)  # every character plus EOS


PROBES = (
    Target("autodiff.Adam.step"),
    Target("pron.evaluate", size=lambda model, entries, *a, **k: len(entries)),
    Target("pron.decode_batch", size=lambda model, inputs, *a, **k: len(inputs)),
    Target("lm.eval_lm", size=_lines_size),
    Target("lm.StackedLstm.step", size=lambda self, x, *a, **k: x.data.shape[0]),
    Target("autodiff.Tape.backward"),
    Target("ids.depth_histogram"),
)

# layer boundaries; autodiff primitives (matmul, add, ...) stay unwrapped, a
# span per primitive would cost as much as the primitive itself
TRACED = PROBES + (
    Target("pron.train"),
    Target("lm.train_lm"),
    Target("ids.load_rule_table"),
    Target("ids.decompose"),
    Target("ids.linearize"),
    Target("phono.parse_unihan_readings"),
    Target("phono.build_corpus"),
    Target("phono.build_scenario"),
    Target("encoders.build_level_schedule"),
    Target("encoders.treelstm_batch_forward"),
    Target("encoders.treelstm_forward"),
    Target("encoders.lstm_batch_forward"),
    Target("encoders.bilstm_batch_forward"),
    Target("autodiff.clip_global_norm"),
    Target("autodiff.zero_grads"),
    Target("pron.build_model"),
    Target("pron.encode_inputs"),
    Target("pron.forward_batch"),
    Target("pron.predict_pron"),
    Target("pron.pron_loss"),
    Target("pron.save_model"),
    Target("pron.load_model"),
    Target("lm.read_corpus"),
    Target("lm.build_lm"),
    Target("lm.stream_ids"),
    Target("lm.build_cache"),
    Target("lm.EmbeddingCache.rebuild"),
    Target("lm.EmbeddingCache.lookup", span=False),
    Target("checkpoint.save_checkpoint"),
    Target("checkpoint.load_checkpoint"),
)

_MODULES = {"autodiff": autodiff, "checkpoint": checkpoint, "encoders": encoders,
            "ids": ids, "lm": lm, "phono": phono, "pron": pron}


class Recorder:
    """In-memory spans, counts and per-step losses of one process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, size]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.losses: list[float] = []
        self.stop_after_setup = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str, size=None) -> list:
        if self.stop_after_setup and name in SETUP_ENDS:
            raise SetupDone(name)
        span = [name, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, size]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (job phases)."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def take(self) -> tuple[list[list], Counter, list[float]]:
        """Hand over everything recorded so far and start empty."""
        if self.stack:
            raise RuntimeError("spans still open")
        out = (self.spans, self.counts, self.losses)
        self.spans, self.counts, self.losses = [], Counter(), []
        return out

    # -- patching ------------------------------------------------------------
    def install(self, targets) -> None:
        if self._patches:
            raise RuntimeError("already installed")
        for target in targets:
            owner, attr = _resolve(target.name)
            self._patch(owner, attr, self._wrap(target, getattr(owner, attr)))
        self._patch(autodiff.Tape, "__enter__", self._tape_enter(autodiff.Tape.__enter__))
        self._patch(autodiff.Tape, "__exit__", self._tape_exit(autodiff.Tape.__exit__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            owners = [owner]
        else:
            # functions are also bound by ``from .x import f`` elsewhere
            owners = [m for m in _MODULES.values() if getattr(m, attr, None) is original]
        for o in owners:
            self._patches.append((o, attr, original))
            setattr(o, attr, wrapper)

    def _wrap(self, target: Target, fn):
        rec = self
        name, size = target.name, target.size
        if name == "autodiff.Tape.backward":
            def backward(tape, loss, *a, **k):
                rec.counts["autodiff.tape_entries"] += len(tape)
                rec.losses.append(float(loss.data))
                span = rec._open(name)
                try:
                    return fn(tape, loss, *a, **k)
                finally:
                    rec._close(span)
            return backward
        if name == "encoders.build_level_schedule":
            def schedule(*a, **k):
                span = rec._open(name)
                try:
                    out = fn(*a, **k)
                finally:
                    rec._close(span)
                rec.counts["encoders.slots"] += out.total_slots
                rec.counts["encoders.levels"] += len(out.levels)
                rec.counts["encoders.leaf_slots"] += len(out.levels[0])
                return out
            return schedule
        if not target.span:
            def count(*a, **k):
                rec.counts[name] += 1
                return fn(*a, **k)
            return count

        def wrapper(*a, **k):
            span = rec._open(name, size(*a, **k) if size else None)
            try:
                return fn(*a, **k)
            finally:
                rec._close(span)
        return wrapper

    def _tape_enter(self, fn):
        def enter(tape):
            self._open(TAPE)
            return fn(tape)
        return enter

    def _tape_exit(self, fn):
        def exit_(tape, *exc):
            try:
                return fn(tape, *exc)
            finally:
                self._close(self.spans[self.stack[-1]])
        return exit_


def _resolve(name: str):
    parts = name.split(".")
    owner = _MODULES[parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def by_name(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name."""
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += self_s
    return out


def span_tree(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds per call path ("a/b/c")."""
    paths: list[str] = []
    for name, _, _, parent, _ in spans:
        paths.append(f"{paths[parent]}/{name}" if parent >= 0 else name)
    out: dict[str, dict[str, float]] = {}
    for path, span, self_s in zip(paths, spans, self_times(spans)):
        row = out.setdefault(path, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += self_s
    return out
