"""Benchmark command for jelogic; standard library only.

    python3 bench/run.py --workload {sweep,realize,nesting,all} --seed N \
        --seconds S --trace {0,1}

Run from any directory of a checkout: the command puts the checkout's ``src``
on the import path itself and refuses to run without it.  With ``--trace 0``
it prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced round and writes its spans to ``bench/out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS = 5  # set-up repetitions; setup_s is their median
NAMES = ("sweep", "realize", "nesting")


def _fresh_import():
    """Import jelogic and the harness anew, as a new process would."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("jelogic", "jebench"):
            del sys.modules[name]
    return importlib.import_module("jebench.workloads")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up SETUPS times, then run whole rounds on the last set-up until
    another round would end past ``seconds``; at least one.  A traced run
    follows each untraced round with a traced one."""
    start = time.perf_counter()
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        W = _fresh_import()
        setup_fn, round_fn = W.WORKLOADS[name]
        state = setup_fn(seed)
        setup_times.append(time.perf_counter() - t0)
    loaded = Path(sys.modules["jelogic"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SystemExit(f"bench: imported jelogic from {loaded}, not from {SRC}")

    plain, traced = W.Tally(), W.Tally()
    while True:
        gc.collect()
        plain.add(round_fn(state, W.Caller()))
        if trace:
            gc.collect()
            tracer = W.Tracer()
            traced.add(round_fn(state, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (plain.rounds + 1) / plain.rounds > seconds:
            break

    if trace:
        metrics = W.trace_metrics(plain, traced, tracer)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics = {"setup_s": (statistics.median(setup_times), "s")}
        metrics.update(W.end_to_end(plain))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    errors = plain.errors + traced.errors
    for e in errors[:20]:
        print(f"{name}: CHECK FAILED: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "rounds": plain.rounds + traced.rounds,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "jelogic" / "__init__.py").is_file():
        print(f"bench: no jelogic sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    metrics = {}
    for n, res in results.items():
        prefix = "" if len(names) == 1 else n + "."
        print(f"{n}: {res['attempted']} operations in {res['rounds']} rounds, {res['failed']} failed")
        for key, (value, unit) in res["metrics"].items():
            print(f"  {key} = {value:.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
