"""Stage-level trial benchmark for csbm.

One command runs one named workload through the public ``csbm`` API in a
single process and prints its metrics, by name and with units, followed by
one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 perfbench/bench.py --workload above-n30k --seed 1 --seconds 15 --trace 0

``--trace 0`` is the timed run and reports the end-to-end metrics.
``--trace 1`` repeats the same timed loop on the same seeds and then
decomposes its first trials stage by stage, in ``full_recovery``'s order,
recording one span per call; it reports the per-layer metrics and writes
the spans to ``perfbench/out/`` when the run ends.  The benchmark times its
own calls into each module from outside; nothing inside ``csbm`` is
instrumented.  Why each workload and metric was chosen is recorded in
``perfbench/RECORD.md``.
"""

import os

if __name__ == "__main__":
    # Before numpy loads: one BLAS/OpenMP thread, so the numbers measure the
    # program rather than the scheduler of a small shared machine.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import csbm  # noqa: E402
from csbm import harness, seeds  # noqa: E402

EXPERIMENTS = ("recover", "match", "witness")
SETUP_RUNS = 5
SETUP_TRIAL = dict(n=200, a=9.0, b=1.0, s=0.4, K=3, k=1)
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    """A grid of trial cells, run as single trials or as whole sweeps.

    A *unit* is one ``run_trial`` call, or, when ``sweep`` is set, one
    ``harness.sweep`` over every cell plus the two CSV writers.  Every run
    completes at least ``min_units`` units; the results digest, the quality
    rates and the traced decomposition cover exactly those, so they repeat
    for a seed however many more units the time budget allows.
    """

    name: str
    n: int
    s_values: tuple[float, ...]
    K_values: tuple[int, ...]
    min_units: int
    sweep: bool = False
    trials_per_cell: int = 1
    a: float = 9.0
    b: float = 1.0
    k: int = 1

    def cells(self) -> list[csbm.Params]:
        return [
            csbm.Params(n=self.n, a=self.a, b=self.b, s=s, K=K, k=self.k)
            for s in self.s_values
            for K in self.K_values
        ]

    def unit_size(self) -> int:
        return len(self.cells()) * self.trials_per_cell if self.sweep else 1

    def sweep_config(self, master: int) -> harness.SweepConfig:
        return harness.SweepConfig(
            n_values=(self.n,),
            a_values=(self.a,),
            b_values=(self.b,),
            s_values=self.s_values,
            K_values=self.K_values,
            k=self.k,
            trials=self.trials_per_cell,
            master_seed=master,
            experiments=EXPERIMENTS,
            per_trial=True,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("above-n30k", 30000, (0.4,), (3,), min_units=3),
        Workload("below-n30k", 30000, (0.15,), (3,), min_units=3),
        Workload(
            "sweep-n2k", 2000, (0.25, 0.4, 0.6), (2, 3, 4),
            min_units=1, sweep=True, trials_per_cell=4,
        ),
    )
}

END_TO_END_UNITS = {
    "trial_s_p50": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
}

STAGES = (
    "generate.sample",
    "recovery.init",
    "matching.pairwise",
    "matching.classify",
    "recovery.good",
    "recovery.bad",
    "matching.exact",
    "impossibility.witness",
)
PROBES = ("graphs.canonicalise", "graphs.adjacency", "graphs.kcore")
MODULES = ("generate", "matching", "recovery", "impossibility")

PER_LAYER_UNITS = {
    "generate.sample_s": "s",
    "generate.self_s": "s",
    "generate.parent_edges": "count",
    "generate.child_edges": "count",
    "generate.edge_bytes": "B",
    "graphs.canonicalise_s": "s",
    "graphs.adjacency_s": "s",
    "graphs.kcore_s": "s",
    "graphs.kcore_removed": "count",
    "matching.pairwise_s": "s",
    "matching.classify_s": "s",
    "matching.exact_s": "s",
    "matching.self_s": "s",
    "matching.core_frac": "share",
    "matching.bad_vertices": "count",
    "recovery.init_s": "s",
    "recovery.good_s": "s",
    "recovery.bad_s": "s",
    "recovery.self_s": "s",
    "recovery.init_degraded": "share",
    "recovery.metagraph_patterns": "count",
    "impossibility.witness_s": "s",
    "impossibility.self_s": "s",
    "impossibility.r_star": "count",
    "impossibility.s_star": "count",
    "harness.overhead_s": "s",
    "harness.peak_rss_mb": "MB",
    "harness.sweep_overhead_s": "s",
    "harness.csv_s": "s",
    "trace.overhead_s": "s",
}


# -- tracing -----------------------------------------------------------------


class Tracer:
    """Spans kept in memory: name, start, end, parent span id, trial id."""

    def __init__(self):
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, trial: int, parent: int | None = None):
        record = {
            "id": len(self.spans), "name": name, "trial": trial,
            "parent": parent, "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        """Duration of each ``name`` span minus the part its children cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        return [
            s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name
        ]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# -- the stage-by-stage decomposition ------------------------------------------


@dataclass
class Stages:
    """Every stage output of one traced trial."""

    inst: csbm.CorrelatedInstance
    init: csbm.LabelEstimate
    fam: csbm.MatchingFamily
    classes: csbm.VertexClass
    good: csbm.LabelEstimate
    final: csbm.LabelEstimate
    estimate: csbm.MatchingEstimate
    report: csbm.SingletonReport


def run_stages(tracer: Tracer, trial: int, params: csbm.Params, seed: int) -> Stages:
    """One trial called stage by stage, one span per call, as run_trial does it."""
    with tracer.span("trial", trial) as root:
        def stage(name, fn, *args, **kwargs):
            with tracer.span(name, trial, root):
                return fn(*args, **kwargs)

        inst = stage("generate.sample", csbm.sample_instance, params, seed)
        init = stage(
            "recovery.init", csbm.almost_exact_label, inst.children[0],
            params.s * params.a, params.s * params.b, params.eps, seed=inst.seed,
        )
        fam = stage("matching.pairwise", csbm.all_pairwise_matchings, inst, params.k)
        classes = stage("matching.classify", csbm.classify_good_bad, fam)
        good = stage(
            "recovery.good", csbm.label_good_vertices, inst, fam, init, classes=classes
        )
        final = stage(
            "recovery.bad", csbm.label_bad_vertices, inst, fam, good, classes=classes
        )
        estimate = stage(
            "matching.exact", csbm.exact_matching_estimator, inst, params.k, family=fam
        )
        report = stage("impossibility.witness", csbm.map_failure_witness, inst)
        return Stages(inst, init, fam, classes, good, final, estimate, report)


def stage_result(params: csbm.Params, seed: int, st: Stages) -> csbm.TrialResult:
    """The TrialResult that run_trial should report for these stage outputs."""
    fam = st.fam
    signed = int(np.dot(
        st.inst.sigma_star.astype(np.int64), st.final.labels.astype(np.int64)
    ))
    return csbm.TrialResult(
        params=params,
        seed=seed,
        overlap=abs(signed) / params.n,
        recovery_success=abs(signed) == params.n,
        degraded=st.final.degraded,
        good_disagreements=st.final.good_disagreements,
        matching_success=st.estimate.success,
        bad_vertex_count=len(st.classes.bad),
        unmatched_sizes={p: int(fam.unmatched_mask(*p).sum()) for p in fam.pairs()},
        intersect_sizes={
            (i, j): int((fam.unmatched_mask(0, i) & fam.unmatched_mask(0, j)).sum())
            for i in range(1, params.K)
            for j in range(i + 1, params.K)
        },
        r_star_size=len(st.report.r_star),
        s_star_size=len(st.report.s_star),
        witness_found=st.report.witness_found,
    )


def run_probes(tracer: Tracer, trial: int, st: Stages) -> dict:
    """Time graph primitives on the trial's own arrays; return their counts."""
    inst, k = st.inst, st.inst.params.k
    with tracer.span("graphs.canonicalise", trial):
        csbm.Graph(inst.n, inst.parent.edges)
    fresh = csbm.Graph(inst.n, inst.children[0].edges)
    with tracer.span("graphs.adjacency", trial):
        fresh.neighbors(0)
    mu = csbm.PartialMatching.from_permutation(inst.true_pairwise_permutation(0, 1))
    ig = csbm.intersection_graph(inst.children[0], inst.children[1], mu)
    with tracer.span("graphs.kcore", trial):
        core = csbm.k_core(ig, k)
    return {"graphs.kcore_removed": inst.n - len(core)}


def stage_counts(st: Stages) -> dict:
    inst, fam = st.inst, st.fam
    parent_edges = inst.parent.edge_count
    child_edges = sum(c.edge_count for c in inst.children)
    masks = [fam.anchor_masks[p] for p in fam.pairs()]
    patterns = {tuple(col) for col in np.stack(masks, axis=1)} if masks else set()
    return {
        "generate.parent_edges": parent_edges,
        "generate.child_edges": child_edges,
        "generate.edge_bytes": 16 * (parent_edges + child_edges),
        "matching.core_frac": float(np.mean([m.mean() for m in masks])) if masks else 0.0,
        "matching.bad_vertices": len(st.classes.bad),
        "recovery.init_degraded": float(st.init.degraded),
        "recovery.metagraph_patterns": len(patterns),
        "impossibility.r_star": len(st.report.r_star),
        "impossibility.s_star": len(st.report.s_star),
    }


# -- output checks -------------------------------------------------------------


def check_result(r: csbm.TrialResult) -> list[str]:
    """Invariants every TrialResult of the timed run must satisfy."""
    n = r.params.n
    errors = []
    if not 0.0 <= r.overlap <= 1.0:
        errors.append(f"overlap {r.overlap} outside [0, 1]")
    if r.recovery_success != (r.overlap == 1.0):
        errors.append("recovery_success disagrees with overlap == 1")
    if not 0 <= r.bad_vertex_count <= n:
        errors.append(f"bad_vertex_count {r.bad_vertex_count} exceeds n")
    if any(not 0 <= v <= n for v in r.unmatched_sizes.values()):
        errors.append("an unmatched set exceeds n")
    if r.s_star_size > r.r_star_size:
        errors.append("|S*| exceeds |R*|")
    return errors


def _intersection_edges(inst: csbm.CorrelatedInstance, i: int, j: int) -> np.ndarray:
    """Child-i edges whose image under the true permutation is a child-j edge."""
    n = inst.n
    pi = inst.true_pairwise_permutation(i, j)
    ei = inst.children[i].edges
    ej = inst.children[j].edges
    img = pi[ei]
    img_keys = np.minimum(img[:, 0], img[:, 1]) * n + np.maximum(img[:, 0], img[:, 1])
    return ei[np.isin(img_keys, ej[:, 0] * n + ej[:, 1])]


def check_stages(r: csbm.TrialResult, st: Stages) -> list[str]:
    """Checks that need the label vector and matchings, which run_trial hides."""
    import networkx as nx

    inst = st.inst
    n = inst.n
    labels = st.final.labels
    errors = []
    if labels.shape != (n,) or not np.isin(labels, (-1, 1)).all():
        errors.append("final labels are not a length-n vector of ±1")
    if stage_result(r.params, r.seed, st).replay_key() != r.replay_key():
        errors.append("stage-by-stage decomposition differs from run_trial")
    for (i, j), mu in st.fam.matchings.items():
        if len(mu):
            dom, img = (np.array(x, dtype=np.int64) for x in zip(*mu.items()))
            if not np.array_equal(inst.true_pairwise_permutation(i, j)[dom], img):
                errors.append(f"matching {(i, j)} disagrees with the true permutation")
        g = nx.Graph()
        g.add_edges_from(_intersection_edges(inst, i, j).tolist())
        if set(nx.k_core(g, inst.params.k).nodes) != set(mu.domain):
            errors.append(f"matched set {(i, j)} is not the networkx k-core")
    return errors


# -- runs ----------------------------------------------------------------------


@dataclass
class Trial:
    params: csbm.Params
    seed: int
    unit: int
    result: csbm.TrialResult | None = None
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)


@dataclass
class Run:
    """Everything one workload run measured."""

    workload: Workload
    master_seed: int
    trace: bool
    trials: list[Trial] = field(default_factory=list)
    unit_walls: list[float] = field(default_factory=list)
    csv_walls: list[float] = field(default_factory=list)
    csv_digest: str | None = None
    setup_walls: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    tracer: Tracer = field(default_factory=Tracer)
    layers: list[dict] = field(default_factory=list)

    @property
    def prefix(self) -> list[Trial]:
        return [t for t in self.trials if t.unit < self.workload.min_units]

    @property
    def failed(self) -> int:
        return sum(1 for t in self.trials if t.errors)


@contextmanager
def _recording_run_trial(run: Run, unit: int):
    """Route harness.run_trial through a timer that keeps each result."""
    original = harness.run_trial

    def timed(params, seed, *args, **kwargs):
        t0 = time.perf_counter()
        result = original(params, seed, *args, **kwargs)
        wall = time.perf_counter() - t0
        run.trials.append(Trial(params, seed, unit, result, wall))
        return result

    harness.run_trial = timed
    try:
        yield
    finally:
        harness.run_trial = original


def _run_unit(run: Run, unit: int) -> None:
    w = run.workload
    before = len(run.trials)
    run.csv_walls.append(0.0)
    t0 = time.perf_counter()
    try:
        with _recording_run_trial(run, unit):
            if w.sweep:
                result = harness.sweep(w.sweep_config(run.master_seed))
                t1 = time.perf_counter()
                text = harness.cells_csv(result) + harness.trials_csv(result)
                run.csv_walls[unit] = time.perf_counter() - t1
                if unit == 0:
                    run.csv_digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            else:
                params = w.cells()[0]
                key = seeds.cell_key(params.n, params.a, params.b, params.s, params.K, params.k)
                harness.run_trial(
                    params, seeds.trial_seed(run.master_seed, key, unit),
                    experiments=EXPERIMENTS,
                )
    except Exception:  # the whole unit's output is lost: count its trials failed
        traceback.print_exc()
        missing = w.unit_size() - (len(run.trials) - before)
        run.trials.extend(Trial(None, -1, unit) for _ in range(missing))
        for t in run.trials[before:]:
            t.errors.append("the unit raised")
    run.unit_walls.append(time.perf_counter() - t0)


def measure_setup(repeats: int) -> list[float]:
    """Wall time of a fresh process that imports csbm and runs one tiny trial."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import csbm; "
        f"csbm.run_trial(csbm.Params(**{SETUP_TRIAL!r}), 0, experiments={EXPERIMENTS!r})"
    )
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantise a measurement of about half a second.
        subprocess.run(
            [sys.executable, "-c", code, str(SRC)], check=True,
            stdout=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - t0)
    return walls


def run_workload(
    w: Workload,
    master_seed: int,
    seconds: float,
    trace: bool,
    setup_runs: int = SETUP_RUNS,
    corrupt=None,
) -> Run:
    """Run one workload: the timed loop, its checks, and optionally the trace.

    ``corrupt``, when given, is applied to each output before it is checked
    (a TrialResult in the timed run, the Stages of a traced trial); the
    self-test uses it to show that a wrong output is counted as failed.
    """
    run = Run(w, master_seed, trace)
    if not trace:
        run.setup_walls = measure_setup(setup_runs)
    # One untimed trial at full size first: the first large trial in a process
    # runs ~30% slower while the allocator grows its heap, and a sweep of many
    # trials pays that once.
    csbm.run_trial(w.cells()[0], 0, experiments=EXPERIMENTS)

    start = time.perf_counter()
    unit = 0
    while unit < w.min_units or time.perf_counter() - start < seconds:
        _run_unit(run, unit)
        unit += 1
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    for t in run.trials:
        if t.result is not None and not t.errors:
            if corrupt is not None and not trace:
                corrupt(t.result)
            t.errors.extend(check_result(t.result))

    if trace:
        for index, t in enumerate(run.prefix):
            if t.result is None:
                continue
            try:
                st = run_stages(run.tracer, index, t.params, t.seed)
                layers = stage_counts(st)
                layers.update(run_probes(run.tracer, index, st))
            except Exception:  # a raising stage is a failed trial, not a crash
                traceback.print_exc()
                t.errors.append("the traced decomposition raised")
                continue
            layers["harness.overhead_s"] = t.wall_s - sum(
                s["end"] - s["start"] for s in run.tracer.spans
                if s["trial"] == index and s["name"] in STAGES
            )
            run.layers.append(layers)
            if corrupt is not None:
                corrupt(st)
            t.errors.extend(check_stages(t.result, st))
    return run


# -- reporting -----------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(count: int) -> int | None:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    fit = [p for p in (50, 75, 90, 95, 99) if count * (100 - p) / 100 >= 10]
    return fit[-1] if fit else None


def end_to_end(run: Run) -> dict:
    walls = [t.wall_s for t in run.trials if not t.errors]
    completed = [
        sum(1 for t in run.trials if t.unit == u and not t.errors)
        for u in range(len(run.unit_walls))
    ]
    return {
        "trial_s_p50": _median(walls),
        # Median over units, so one slow trial cannot swing the figure.
        "trials_per_s": _median(c / wall for c, wall in zip(completed, run.unit_walls)),
        "setup_s": _median(run.setup_walls),
    }


def per_layer(run: Run) -> dict:
    tr = run.tracer
    metrics = {}
    for name in STAGES + PROBES:
        metrics[f"{name}_s"] = _median(tr.durations(name))
    trials = sorted({s["trial"] for s in tr.spans})
    for module in MODULES:
        metrics[f"{module}.self_s"] = _median(
            sum(
                s["end"] - s["start"] for s in tr.spans
                if s["trial"] == i and s["name"].startswith(module + ".")
            )
            for i in trials
        )
    for key in run.layers[0] if run.layers else ():
        metrics[key] = _median(layers[key] for layers in run.layers)
    if run.layers:  # a share of the traced trials, not a median of flags
        metrics["recovery.init_degraded"] = statistics.fmean(
            layers["recovery.init_degraded"] for layers in run.layers
        )
    metrics["harness.sweep_overhead_s"] = (
        _median(
            wall - csv - sum(t.wall_s for t in run.trials if t.unit == u)
            for u, (wall, csv) in enumerate(zip(run.unit_walls, run.csv_walls))
        )
        if run.workload.sweep else 0.0
    )
    metrics["harness.csv_s"] = _median(run.csv_walls)
    metrics["harness.peak_rss_mb"] = run.peak_rss_mb
    metrics["trace.overhead_s"] = _median(tr.self_times("trial"))
    return {k: metrics.get(k, 0.0) for k in PER_LAYER_UNITS}


def quality(run: Run) -> dict:
    results = [t.result for t in run.prefix if t.result is not None]
    if not results:
        return {}
    return {
        "mean_overlap": statistics.fmean(r.overlap for r in results),
        "exact_rate": statistics.fmean(bool(r.recovery_success) for r in results),
        "degraded_rate": statistics.fmean(bool(r.degraded) for r in results),
    }


def replay_digest(run: Run) -> str:
    h = hashlib.sha256()
    for t in run.prefix:
        h.update(repr(t.result.replay_key() if t.result else None).encode())
    return h.hexdigest()[:16]


def _cache_sizes() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = []
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            sizes.append(f"L{level}={size}")
    return " ".join(sizes) or "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def working_set_mb(w: Workload) -> float:
    """Computed bytes of the largest cell's expected parent + child edge arrays."""
    def edges(p: csbm.Params) -> float:
        half = p.n / 2
        parent = p.p * half * (half - 1) + p.q * half * half
        return parent * (1 + p.K * p.s)
    return 16 * max(edges(p) for p in w.cells()) / 1e6


def environment(run: Run) -> list[str]:
    w = run.workload
    return [
        f"env nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"cpu={_cpu_model()!r} {_cache_sizes()}",
        f"env python={platform.python_version()} numpy={_version('numpy')} "
        f"scipy={_version('scipy')} networkx={_version('networkx')}",
        f"env commit={_git_commit()} master_seed={run.master_seed} "
        f"threads: OMP/OPENBLAS/MKL={os.environ.get('OMP_NUM_THREADS', 'unset')}",
        f"workload {w.name}: n={w.n} a={w.a} b={w.b} s={list(w.s_values)} "
        f"K={list(w.K_values)} k={w.k} sweep={w.sweep} "
        f"working_set={working_set_mb(w):.1f} MB (computed: 16 B x expected edges)",
    ]


def report(run: Run) -> dict:
    """Print the human-readable block, then the JSON result as the last line."""
    for line in environment(run):
        print(line)
    attempted = len(run.trials)
    ok = [t.wall_s for t in run.trials if not t.errors]
    if run.trace:
        metrics = per_layer(run)
        units = PER_LAYER_UNITS
        print(f"traced trials: {len(run.layers)} (the first {run.workload.min_units} unit(s))")
    else:
        metrics = end_to_end(run)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not run.trace:
        print(f"  trial samples: {len(ok)}; setup samples: {len(run.setup_walls)}")
        print(f"peak_rss_mb = {run.peak_rss_mb:.6g} MB (not gated: see RECORD.md)")
        pct = tail_percentile(len(ok))
        if pct is not None:
            tail = float(np.percentile(ok, pct))
            print(f"trial_s_tail = {tail:.6g} s (p{pct} of {len(ok)} trials)")
        else:
            print(f"trial_s_tail = n/a (only {len(ok)} trials; needs >= 20)")
    print(f"fail_rate = {run.failed}/{attempted} = {run.failed / max(attempted, 1):.6g}")
    for name, value in quality(run).items():
        print(f"{name} = {value:.6g} (over the first {len(run.prefix)} trials)")
    print(f"digest replay_key = {replay_digest(run)} (first {len(run.prefix)} trials)")
    if run.csv_digest is not None:
        print(f"digest sweep csv = {run.csv_digest} (first sweep)")
    for t in run.trials:
        for err in t.errors:
            print(f"FAILED trial seed={t.seed}: {err}")
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not Path(csbm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"csbm was imported from {csbm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    if run.trace:
        run.tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    report(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
