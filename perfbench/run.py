"""logotree benchmark: seeded workloads, output checks, end-to-end and
per-layer metrics.

One workload, from the repository root:

    python3 perfbench/run.py --workload pron-tree --seed 1 --seconds 24 --trace 0

After an untimed warm-up, the job of the workload is repeated for
``--seconds``. With ``--trace 0`` the last stdout line is a JSON object
whose metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` repetitions alternate untraced and traced, the metrics are
the per-layer ones, and a span report is written to ``.perfbench/``.
Earlier stdout lines are the environment record and a readable report.

All workloads, one process each, summarised as median and quartiles:

    python3 perfbench/run.py --workload all --seeds 10
    python3 perfbench/run.py --workload all --smoke     # tiny, checks names and units

BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench"


def _require_checkout() -> dict:
    """The benchmark builds nothing: it needs the library sources beside it."""
    missing = [p for p in ("src/logotree/__init__.py", "tests/data/mini_ids.txt",
                           "tests/data/mini_readings.txt", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"perfbench: not a logotree checkout, missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload",
                    help="a workload name, or 'all' for every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs; with 'all', check every metric name and unit")
    ap.add_argument("--seeds", type=int, default=1,
                    help="with 'all': runs per workload, seeds seed..seed+n-1")
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute perfbench/reference.json and exit")
    args = ap.parse_args(argv)
    if args.workload is None and not args.write_reference:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    return args


def _run_all(args, spec: dict) -> int:
    """Each workload in its own process; median and quartiles across seeds."""
    import statistics

    problems = []
    traces = (0, 1) if args.smoke else (args.trace,)
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in traces:
            metrics = spec["per_layer" if trace else "end_to_end"]
            results, elapsed = [], []
            for seed in range(args.seed, args.seed + args.seeds):
                cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
                began = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=900, cwd=ROOT)
                elapsed.append(time.perf_counter() - began)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                try:
                    result = json.loads(last[0])
                except json.JSONDecodeError:
                    problems.append(f"{name} seed {seed} trace {trace}: exit "
                                    f"{proc.returncode}, no result\n{proc.stderr[-2000:]}")
                    continue
                if proc.returncode or not result["correct"] or result["failed"]:
                    problems.append(f"{name} seed {seed} trace {trace}: exit "
                                    f"{proc.returncode}, correct={result['correct']}, "
                                    f"failed {result['failed']}/{result['attempted']}")
                results.append(result)
            if not results:
                continue
            print(f"\n{name}  trace={trace}  runs={len(results)}  "
                  f"failed={sum(r['failed'] for r in results)}/"
                  f"{sum(r['attempted'] for r in results)}  "
                  f"run time mean {statistics.mean(elapsed):.1f} s, max {max(elapsed):.1f} s")
            print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'iqr/med':>8s}  unit")
            for metric in metrics:
                values = [r["metrics"][metric["name"]]["value"] for r in results]
                q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                               else [values[0]] * 3)
                spread = (q3 - q1) / abs(med) if med else 0.0
                print(f"  {metric['name']:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f}  {metric['unit']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    spec = _require_checkout()
    args = _parse(argv, spec)
    if args.write_reference:
        from perfbench.measure import write_reference
        return write_reference(BENCH_DIR / "reference.json")
    if args.workload == "all":
        return _run_all(args, spec)
    from perfbench.measure import run_workload
    return run_workload(args, spec, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
