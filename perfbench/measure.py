"""Repetitions of one workload: checks, metrics, report and result line."""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .trace import (PROBES, SETUP_ENDS, TAPE, TRACED, Recorder, SetupDone, by_name,
                    span_tree)
from .workloads import (REFERENCE_SEED, WORKLOADS, Inputs, Workload, data_stats,
                        matches, prepare)

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
EVALS = ("pron.evaluate", "lm.eval_lm")
#: untraced repetitions per run at least; a traced run needs two of each kind
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: set-up-only repetitions: untimed warm-ups, then a few before each
#: untraced whole repetition
SETUP_WARMUPS = 2
SETUPS_PER_REP = 5


@dataclass
class Rep:
    traced: bool
    outputs: dict
    spans: list[list]
    counts: Counter
    losses: list[float]


class Checks:
    """Attempted and failed operations: steps, evaluations, output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAIL {name} {detail}".rstrip())

    def repetition(self, rep: Rep) -> None:
        """A step failed if its loss is not finite; evaluations that returned
        count as done; every boolean output is a check that must hold."""
        bad = sum(not np.isfinite(x) for x in rep.losses)
        self.attempted += len(rep.losses) + sum(s[0] in EVALS for s in rep.spans)
        self.failed += bad
        if bad:
            self.notes.append(f"FAIL {bad} non-finite step losses")
        for key, value in rep.outputs.items():
            if isinstance(value, bool):
                self.check(key, value)


def run_job(workload: Workload, inp: Inputs, rec: Recorder, traced: bool,
            setup_only: bool = False) -> Rep:
    """One repetition of the job; ``setup_only`` stops it where set-up ends."""
    rec.install(TRACED if traced else PROBES)
    rec.stop_after_setup = setup_only
    outputs = {}
    try:
        with rec.span("job"):
            outputs = workload.job(inp)
    except SetupDone:
        if not setup_only:
            raise
    finally:
        rec.uninstall()
        rec.stop_after_setup = False
    spans, counts, losses = rec.take()
    if setup_only and outputs:
        raise RuntimeError(f"{workload.name}: set-up never ended")
    return Rep(traced, outputs, spans, counts, losses)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def reference_check(workload: Workload, rec: Recorder, checks: Checks,
                    work_dir: Path) -> None:
    """The tiny job at the benchmark's own seed must reproduce reference.json."""
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name)
    inp = prepare(workload, "tiny", REFERENCE_SEED, work_dir)
    rep = run_job(workload, inp, rec, traced=False)
    checks.repetition(rep)
    if stored is None:
        checks.check("reference", False, f"no entry for {workload.name}")
        return
    checks.check("reference step losses", matches(rep.losses, stored["losses"]),
                 f"{rep.losses[:3]}... vs {stored['losses'][:3]}...")
    outputs = json.loads(json.dumps(rep.outputs))
    checks.check("reference outputs", matches(outputs, stored["outputs"]),
                 f"{outputs} vs {stored['outputs']}")


def write_reference(path: Path) -> int:
    rec = Recorder()
    stored = {}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix="reference-", dir=out_dir))
        try:
            rep = run_job(workload, prepare(workload, "tiny", REFERENCE_SEED, work),
                          rec, traced=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        stored[name] = {"seed": REFERENCE_SEED, "losses": rep.losses,
                        "outputs": rep.outputs}
    path.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def setup_seconds(rep: Rep) -> float:
    """Job start to the first span that ends set-up (see ``SETUP_ENDS``);
    a set-up-only repetition stops there, so it is the whole job."""
    job = rep.spans[0]
    first = next((s[1] for s in rep.spans if s[0] in SETUP_ENDS), job[2])
    return first - job[1]


def timings(workload: Workload, rep: Rep) -> dict:
    """End-to-end timings of one untraced repetition.

    A loop step is the interval between two optimizer steps, from the first
    forward pass on (intervals that contain an evaluation are dropped), or
    on compose-scale between two evaluated batches.
    """
    spans = rep.spans
    job = spans[0]
    evals = [s for s in spans if s[0] in EVALS]
    if workload.train_chars:
        first = next(s for s in spans if s[0] == TAPE)
        stamps = [first[1]] + [s[2] for s in spans if s[0] == "autodiff.Adam.step"]
        inner = [e for e in evals if stamps[0] <= e[1] and e[2] <= stamps[-1]]
        loop_s = stamps[-1] - stamps[0] - sum(e[2] - e[1] for e in inner)
        intervals = [b - a for a, b in zip(stamps, stamps[1:])
                     if not any(a <= e[1] and e[2] <= b for e in inner)]
        loop_chars = workload.train_chars(rep.outputs, spans)
    else:
        batches = [s for s in spans if s[0] == "pron.decode_batch"]
        intervals = []
        for e in evals:
            ends = [e[1]] + [b[2] for b in batches if e[1] <= b[1] and b[2] <= e[2]]
            intervals += [b - a for a, b in zip(ends, ends[1:])]
        loop_s = sum(e[2] - e[1] for e in evals)
        loop_chars = sum(e[4] for e in evals)
    return {"wall_s": job[2] - job[1], "loop_chars": loop_chars, "loop_s": loop_s,
            "eval_chars": sum(e[4] for e in evals),
            "eval_s": sum(e[2] - e[1] for e in evals), "intervals": intervals}


def end_to_end(workload: Workload, reps: list[Rep], setups: list[Rep],
               names: list[str]) -> dict[str, float]:
    """Medians over the repetitions for set-up (the set-up-only ones) and
    wall time; throughputs are totals over all of them, steps are pooled."""
    per_rep = [timings(workload, r) for r in reps if not r.traced]
    steps = [x for t in per_rep for x in t["intervals"]]

    def rate(chars, seconds):
        return sum(t[chars] for t in per_rep) / sum(t[seconds] for t in per_rep)

    values = {
        "setup_s": statistics.median(setup_seconds(r) for r in setups),
        "wall_s": statistics.median(t["wall_s"] for t in per_rep),
        "loop_chars_per_s": rate("loop_chars", "loop_s"),
        "loop_step_ms_p50": statistics.median(steps) * 1e3,
        "eval_chars_per_s": rate("eval_chars", "eval_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: values[name] for name in names}


#: a per-layer metric is "<span>.<kind>": the span's call count, its
#: inclusive seconds or its self seconds per traced repetition; these two
#: name the checkpoint round trip more briefly
ALIASES = {"checkpoint.save_s": "checkpoint.save_checkpoint.s",
           "checkpoint.load_s": "checkpoint.load_checkpoint.s"}
KINDS = ("calls", "s", "self_s")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


#: per-layer ratios of counts: (table of spans by name, counts) -> value
RATIOS = {
    "encoders.slots_per_call": lambda t, c: _ratio(
        c["encoders.slots"], t["encoders.build_level_schedule"]["calls"]),
    "encoders.levels_per_call": lambda t, c: _ratio(
        c["encoders.levels"], t["encoders.build_level_schedule"]["calls"]),
    "encoders.leaf_slot_share": lambda t, c: _ratio(
        c["encoders.leaf_slots"], c["encoders.slots"]),
    "autodiff.tape_entries_per_step": lambda t, c: _ratio(
        c["autodiff.tape_entries"], t["autodiff.Tape.backward"]["calls"]),
    "lm.cache_lookups_per_rebuild": lambda t, c: _ratio(
        c["lm.EmbeddingCache.lookup"], t["lm.EmbeddingCache.rebuild"]["calls"]),
}


def layers(rep: Rep, names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; a span the workload
    never opened reads 0."""
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}, by_name(rep.spans))
    out = {}
    for name in names:
        if name in RATIOS:
            out[name] = RATIOS[name](table, rep.counts)
        else:
            span, _, kind = ALIASES.get(name, name).rpartition(".")
            if kind not in KINDS:
                raise KeyError(f"no per-layer metric {name!r}")
            out[name] = table[span][kind]
    return out


def per_layer(reps: list[Rep], stats: dict, names: list[str],
              checks: Checks) -> dict[str, float]:
    """Medians over the traced repetitions. Counts and their ratios must
    repeat exactly; times are seconds per repetition."""
    computed = [n for n in names if n not in stats and n != "trace.overhead_share"]
    traced = [layers(r, computed) for r in reps if r.traced]
    values = {}
    for name in computed:
        seen = [t[name] for t in traced]
        if name in RATIOS or name.endswith(".calls"):
            checks.check(f"{name} repeats", len(set(seen)) == 1, str(sorted(set(seen))))
        values[name] = statistics.median(seen)
    walls = {kind: statistics.median(r.spans[0][2] - r.spans[0][1]
                                     for r in reps if r.traced is kind)
             for kind in (False, True)}
    values["trace.overhead_share"] = walls[True] / walls[False] - 1.0
    values.update(stats)
    return {name: values[name] for name in names}


# ---------------------------------------------------------------------------
# environment and report
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, size: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": size,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit()}


def _print_table(title: str, rows: dict[str, dict]) -> None:
    print(title)
    print(f"  {'span':44s} {'calls':>9s} {'s':>10s} {'self_s':>10s}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:44s} {row['calls']:9.0f} {row['s']:10.4f} {row['self_s']:10.4f}")


def _median_rows(tables: list[dict]) -> dict[str, dict]:
    names = {n for t in tables for n in t}
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    return {n: {k: statistics.median(t.get(n, zero)[k] for t in tables) for k in zero}
            for n in names}


def write_trace_report(path: Path, env: dict, metrics: dict, reps: list[Rep]) -> None:
    traced = [r for r in reps if r.traced]
    names = sorted({s[0] for r in traced for s in r.spans})
    index = {n: i for i, n in enumerate(names)}
    report = {
        "environment": env,
        "metrics": metrics,
        "layers": _median_rows([by_name(r.spans) for r in traced]),
        "span_tree": _median_rows([span_tree(r.spans) for r in traced]),
        "span_names": names,
        # per traced repetition: [name index, start, end, parent, size], times
        # in seconds from the start of the job
        "spans": [[[index[s[0]], s[1] - r.spans[0][1], s[2] - r.spans[0][1], s[3], s[4]]
                   for s in r.spans] for r in traced],
    }
    path.write_text(json.dumps(report) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _attempt(workload: Workload, inp: Inputs, rec: Recorder, traced: bool,
             checks: Checks, setup_only: bool = False) -> Rep | None:
    """One checked repetition; None if it raised (a failed operation)."""
    gc.collect()
    try:
        rep = run_job(workload, inp, rec, traced, setup_only)
    except Exception:
        traceback.print_exc()
        rec.take()
        checks.check("repetition", False, "raised")
        return None
    if setup_only:
        checks.check("set-up", True)
    else:
        checks.repetition(rep)
    return rep


def measure(workload: Workload, inp: Inputs, rec: Recorder, seconds: float,
            trace: bool, checks: Checks) -> tuple[list[Rep], list[Rep]]:
    """Repeat the whole job for ``seconds``, and at least the minimum number
    of times; every repetition must repeat the first one's losses and
    outputs. With ``trace``, traced repetitions alternate with untraced
    ones. Without, each whole repetition follows a few set-up-only ones
    (set-up is a small share of a job, so ``setup_s`` needs more samples,
    spread over the run), after untimed warm-ups: the first set-ups of a
    process run on fresh pages and take up to half again as long."""
    reps: list[Rep] = []
    setups: list[Rep] = []
    for _ in range(0 if trace else SETUP_WARMUPS):
        if _attempt(workload, inp, rec, False, checks, setup_only=True) is None:
            return reps, setups
    start = time.perf_counter()
    while True:
        plain = sum(not r.traced for r in reps)
        enough = (min(plain, len(reps) - plain) >= MIN_TRACED_REPS if trace
                  else plain >= MIN_REPS)
        elapsed = time.perf_counter() - start
        # stop before a repetition that would end past the window
        if enough and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps, setups
        for _ in range(0 if trace else SETUPS_PER_REP):
            setup = _attempt(workload, inp, rec, False, checks, setup_only=True)
            if setup is None:
                return reps, setups
            setups.append(setup)
        rep = _attempt(workload, inp, rec, trace and len(reps) % 2 == 1, checks)
        if rep is None:
            return reps, setups
        if reps:
            checks.check("repetition repeats outputs",
                         rep.outputs == reps[0].outputs and rep.losses == reps[0].losses)
        reps.append(rep)


def run_workload(args, spec: dict, out_dir: Path) -> int:
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'")
    size = "tiny" if args.smoke else "full"
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(args, size)
    print("environment " + json.dumps(env))
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"run-{workload.name}-", dir=out_dir))
    rec, checks = Recorder(), Checks()
    try:
        reference_check(workload, rec, checks, work / "reference")
        inp = prepare(workload, size, args.seed, work / "data")
        stats = data_stats(workload, inp)
        print(f"data {json.dumps({**inp.size.data.record(), **stats})}")
        for name, ok, detail in (workload.extra_checks(inp) if workload.extra_checks else ()):
            checks.check(name, ok, detail)
            print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
        reps, setups = measure(workload, inp, rec, args.seconds, bool(args.trace), checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if (not reps or (args.trace and all(not r.traced for r in reps))
            or (not args.trace and not setups)):
        print("\n".join(checks.notes + ["no repetition completed"]), file=sys.stderr)
        return 1

    metrics = (per_layer(reps, stats, list(units), checks) if args.trace
               else end_to_end(workload, reps, setups, list(units)))
    for note in checks.notes:
        print(note)
    traced = sum(r.traced for r in reps)
    print(f"{workload.name} seed {args.seed}: {len(reps)} repetitions "
          f"({traced} traced), {len(setups)} set-up-only repetitions")
    print(f"outputs {json.dumps(reps[0].outputs)}")
    result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    if args.trace:
        _print_table("spans per traced repetition (median):",
                     _median_rows([by_name(r.spans) for r in reps if r.traced]))
        path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        write_trace_report(path, env, result, reps)
        print(f"span report: {path.relative_to(ROOT)}")
    else:
        steps = sum(len(timings(workload, r)["intervals"]) for r in reps if not r.traced)
        print(f"timings from {len(reps)} repetitions, {steps} loop steps")
    for name, m in result.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": result}))
    return 0
