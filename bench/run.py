"""Benchmark of ttrealize on fixed inputs: realize, certify and experiment.

Run from the root of a checkout:

    python3 bench/run.py                                  # all three workloads
    python3 bench/run.py --workload sweep-r3-6 --seed 1 --seconds 12 --trace 0

One workload runs in this process; ``--workload all`` runs each workload
in a process of its own.  The package is imported from ``src/`` of the
checkout.  Untraced runs report the end-to-end metrics, traced runs
(``--trace 1``) the per-layer metrics, and write every span to
``bench/out/``.  The last line of the output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sweep-r3-6", "recertify-r7-8", "experiment-r3")
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "doc_kb": "kB",
    "trace.ops_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12,
                        help="least time of timed ops; runs are whole rounds")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith(("_s", ".s")) else "count"


def run_one(args) -> int:
    if not (SRC / "ttrealize" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    def make_tracer():
        tracer = tracing.Tracer()
        tracing.install(tracer)
        return tracer

    outcome = workloads.run(
        args.workload, args.seed, args.seconds, make_tracer if args.trace else None
    )
    tally = outcome["tally"]
    op_total = sum(tally.op_seconds)
    ops_per_s = tally.attempted / op_total
    if args.trace:
        tracer = outcome["tracer"]
        values = tracer.metrics()
        values["trace.ops_per_s"] = ops_per_s
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": outcome["setup_s"],
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(tally.op_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "doc_kb": statistics.median(tally.doc_bytes) / 1000,
        }
    metrics = {name: {"value": v, "unit": unit(name)} for name, v in values.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"ops attempted {tally.attempted}  failed {tally.failed}  in {op_total:.2f} s of ops")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line sums them up."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
