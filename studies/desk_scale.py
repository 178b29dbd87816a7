"""Wall time and peak memory of single trials at desk scale.

For each n in 10^5, 3·10^5 and 10^6 at (a, b, s, K, k) = (9, 1, 0.4, 3, 1)
and seed 1, this runs ``run_trial(params, 1, ("recover", "match",
"witness"))`` three times, each in a fresh Python process, and records each
wall time and their median, the largest peak resident set size of those
processes (``ru_maxrss``, which includes the interpreter and numpy) and a
digest of the trial's ``replay_key``, so two source trees can be checked
to compute the same trial.  BLAS and OpenMP are pinned to one thread.  The
runs go one after another, never at once.

Each run writes one column of ``--out`` and keeps the file's other
columns, so a change can be put next to its parent::

    python3 studies/desk_scale.py --column change --out BENCH.json
    python3 studies/desk_scale.py --column parent --src ../parent/src --out BENCH.json

A file whose columns were measured on another machine is refused.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (10**5, 3 * 10**5, 10**6)
SEED = 1
REPEATS = 3
POINT = {
    "a": 9.0, "b": 1.0, "s": 0.4, "K": 3, "k": 1, "seed": SEED,
    "experiments": ["recover", "match", "witness"],
}

CHILD = """
import hashlib, json, resource, sys, time, warnings
sys.path.insert(0, sys.argv[1])
warnings.simplefilter("ignore")
from csbm import Params, run_trial
n, seed = int(sys.argv[2]), int(sys.argv[3])
params = Params(n=n, a=9.0, b=1.0, s=0.4, K=3, k=1)
start = time.perf_counter()
result = run_trial(params, seed, ("recover", "match", "witness"))
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": round(wall, 3),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "replay_digest": hashlib.sha256(repr(result.replay_key()).encode()).hexdigest()[:16],
    "overlap": result.overlap,
}))
"""


def run_one(src: Path, n: int, seed: int) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(n), str(seed)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="source tree to import csbm from"
    )
    parser.add_argument("--column", required=True, help="name of the column to write")
    parser.add_argument(
        "--out", type=Path, required=True, help="JSON file to merge the column into"
    )
    args = parser.parse_args(argv)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    machine = {
        "cpus": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(),
    }
    if doc.setdefault("machine", machine) != machine:
        raise SystemExit(f"{args.out} holds columns measured on {doc['machine']}")
    doc["point"] = POINT
    column = {}
    for n in SIZES:
        runs = [run_one(args.src.resolve(), n, SEED) for _ in range(REPEATS)]
        if len({r["replay_digest"] for r in runs}) != 1:
            raise RuntimeError(f"n={n}: repeated trials differ")
        walls = [r["wall_s"] for r in runs]
        column[str(n)] = {
            "wall_s": statistics.median(walls),
            "wall_s_runs": walls,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "replay_digest": runs[0]["replay_digest"],
            "overlap": runs[0]["overlap"],
        }
        print(f"{args.column} n={n}: {column[str(n)]}", file=sys.stderr)
    doc.setdefault("columns", {})[args.column] = column
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
