"""xnap benchmark: one seeded, time-boxed closed loop per workload.

    python3 perfbench/run.py --workload copy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root. xnap is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2.

``--trace 0`` measures the end-to-end metrics: set-up is repeated and its
median reported, then every phase repeats its unit within its share of
``--seconds`` and reports the median (latencies: p50 and p99 over all
calls). ``--trace 1`` alternates untraced and traced rounds of fixed work
(set-up plus one unit of every phase) and reports per-layer numbers from
the traced rounds, plus the tracing overhead. ``--workload all`` runs each
workload in its own child process and prints every metric of each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment, workload properties, failures, output digests and, when
tracing, the spans) is written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

# One client thread: pin BLAS before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("copy", "markov", "linear-cv")


def load_xnap() -> None:
    """Import xnap from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import xnap
    if not Path(xnap.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"xnap was imported from {xnap.__file__}, not from {src}")


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in a fresh child process, so peak memory stays separate."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, check=False)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a terminated run unwind, so its scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        load_xnap()
    except ImportError as exc:
        print(f"error: cannot import xnap from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    import harness
    return harness.run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
