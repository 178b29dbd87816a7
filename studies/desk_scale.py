"""Wall time and peak memory of single trials at desk scale.

For each n in 10^5, 3·10^5 and 10^6 at (a, b, s, K, k) = (9, 1, 0.4, 3, 1)
and seed 1, this runs ``run_trial(params, 1, ("recover", "match",
"witness"))`` three times, each in a fresh Python process, and records each
wall time and their median, the largest peak resident set size of those
processes (``ru_maxrss``, which includes the interpreter and numpy) and a
digest of the trial's ``replay_key``, so two source trees can be checked
to compute the same trial.  BLAS and OpenMP are pinned to one thread.  The
runs go one after another, never at once.

Two more fresh processes per column look inside a trial.  One runs the
trial stage by stage, in the order of ``perfbench/bench.py``'s traced run
with the union's edge decode (``inst.parent.edges``, which older trees
have too) and the anchor split out, at each of
``STAGE_POINTS`` (n = 10^6 at s = 0.4, and n = 3·10^5 at s = 0.15, where
the init used to exhaust its budget) and records per stage the wall time,
``ru_maxrss`` after the stage, the resident set size after it
(``/proc/self/statm``) and its rise across the stage, and the minor page
faults (``ru_minflt``) during it, plus whether the init degraded and its
overlap.  The other runs ``FAULT_TRIALS`` whole trials at the
``above-n30k`` benchmark point, n = 3·10^4 and s = 0.4, and records the
minor page faults of each.

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

STAGE_POINTS = ((10**6, 0.4), (3 * 10**5, 0.15))
STAGE_CHILD = """
import json, os, resource, sys, time, warnings
sys.path.insert(0, sys.argv[1])
warnings.simplefilter("ignore")
import csbm
n, s, seed = int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
params = csbm.Params(n=n, a=9.0, b=1.0, s=s, K=3, k=1)
stages = {}
def rss_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
def stage(name, fn, *args, **kwargs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rss_before = rss_mb()
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss = rss_mb()
    stages[name] = {
        "wall_s": round(wall, 3),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
        "rss_mb": round(rss, 1),
        "rss_rise_mb": round(rss - rss_before, 1),
        "minflt": usage.ru_minflt - before,
    }
    return out
inst = stage("sample", csbm.sample_instance, params, seed)
stage("union", lambda: inst.parent.edges)
# Child 0 alone: reading children[0] builds every child where the instance
# has an anchor property, and child 0 only where it has none.
anchor = stage(
    "anchor", lambda: inst.anchor if hasattr(type(inst), "anchor") else inst.children[0]
)
init = stage(
    "init", csbm.almost_exact_label, anchor, s * 9.0, s * 1.0, params.eps, seed=inst.seed
)
fam = stage("match", csbm.all_pairwise_matchings, inst, 1)
classes = stage("classify", csbm.classify_good_bad, fam)
good = stage("good", csbm.label_good_vertices, inst, fam, init, classes=classes)
stage("bad", csbm.label_bad_vertices, inst, fam, good, classes=classes)
stage("exact", csbm.exact_matching_estimator, inst, 1, family=fam)
stage("witness", csbm.map_failure_witness, inst)
print(json.dumps({
    "stages": stages,
    "init_degraded": init.degraded,
    "init_overlap": csbm.overlap(inst.sigma_star, init),
}))
"""

FAULT_POINT = {"n": 3 * 10**4, "s": 0.4}
FAULT_TRIALS = 5
FAULT_CHILD = """
import json, resource, sys, warnings
sys.path.insert(0, sys.argv[1])
warnings.simplefilter("ignore")
from csbm import Params, run_trial
n, s, trials = int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
params = Params(n=n, a=9.0, b=1.0, s=s, K=3, k=1)
faults = []
for seed in range(1, trials + 1):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_trial(params, seed, ("recover", "match", "witness"))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"minflt_per_trial": faults}))
"""


def run_child(code: str, src: Path, *args) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code, str(src), *map(str, args)],
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
        runs = [run_child(CHILD, args.src.resolve(), n, SEED) for _ in range(REPEATS)]
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
    column["stages"] = {
        f"n={n},s={s}": run_child(STAGE_CHILD, args.src.resolve(), n, s, SEED)
        for n, s in STAGE_POINTS
    }
    faults = run_child(
        FAULT_CHILD, args.src.resolve(), FAULT_POINT["n"], FAULT_POINT["s"], FAULT_TRIALS
    )
    column["page_faults"] = {**FAULT_POINT, **faults}
    print(f"{args.column} stages: {column['stages']}", file=sys.stderr)
    print(f"{args.column} page faults: {column['page_faults']}", file=sys.stderr)
    doc.setdefault("columns", {})[args.column] = column
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
