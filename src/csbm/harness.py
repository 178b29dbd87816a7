"""Monte Carlo experiment driver.

``run_trial`` runs one end-to-end experiment on one sampled instance as
one ordered list of stages (sample, match, init, classify, good, bad,
exact, witness), recording every statistic in a :class:`TrialResult`.
``sweep`` runs trials over a parameter grid with per-trial seeds derived
deterministically from (master seed, cell identity, trial index), so cell
order and parallelism cannot change any result, and aggregates one CSV row
per cell.  ``scaling_experiment`` fits log-log slopes of the unmatched-set
sizes against theory, and ``region_grid_export`` rasterises the phase
diagram.

CSV output is deterministic byte-for-byte for a fixed config: rows are
sorted by parameter key, floats are written with ``repr``, and fields whose
experiment did not run stay empty (never zero).  Wall-clock columns are
filled only when a config opts into timing, since timings are the one
non-reproducible measurement.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .generate import Params, sample_instance
from .graphs import _require_integer, _require_real
from .impossibility import map_failure_witness
from .matching import all_pairwise_matchings, classify_good_bad
from .recovery import almost_exact_label, label_bad_vertices, label_good_vertices, overlap
from .seeds import cell_key, trial_seed
from .thresholds import RegionLabel, classify_region, connectivity_param

__all__ = [
    "TrialResult",
    "run_trial",
    "cell_seeds",
    "SweepConfig",
    "SweepResult",
    "sweep",
    "ScalingResult",
    "scaling_experiment",
    "scaling_row",
    "region_grid_export",
    "AGGREGATE_COLUMNS",
    "TRIAL_COLUMNS",
    "SCALING_COLUMNS",
    "REGION_COLUMNS",
    "format_csv",
    "trial_row",
    "cells_csv",
    "trials_csv",
    "scaling_csv",
    "regions_csv",
]

_TRIAL_EXPERIMENTS = ("recover", "match", "witness")

EXPERIMENT_NAMES = (*_TRIAL_EXPERIMENTS, "scaling")

_CELL_COLUMNS = ["n", "a", "b", "s", "K", "k"]

# What a scaling fit holds fixed: a cell's columns less n.
_BASE_COLUMNS = _CELL_COLUMNS[1:]

# Each aggregate column after "trials" is the mean of one TRIAL_COLUMNS column.
_TRIAL_COLUMN_OF = {
    "success_rate": "recovery_success",
    "match_rate": "matching_success",
    "mean_overlap": "overlap",
    "mean_bad": "bad_vertex_count",
    "mean_F12": "F12",
    "mean_F12capF13": "F12capF13",
    "witness_rate": "witness_found",
    "mean_ms": "wall_ms",
}

AGGREGATE_COLUMNS = [*_CELL_COLUMNS, "trials", *_TRIAL_COLUMN_OF]

TRIAL_COLUMNS = [
    *_CELL_COLUMNS, "trial", "seed",
    "overlap", "recovery_success", "degraded", "good_disagreements",
    "matching_success", "bad_vertex_count", "F12", "F12capF13",
    "R_star", "S_star", "witness_found", "wall_ms",
]

SCALING_COLUMNS = [
    *_BASE_COLUMNS, "trials", "points_used",
    "fitted_F12", "theory_F12",
    "fitted_F12capF13", "theory_F12capF13",
    "fitted_Rstar", "theory_Rstar",
]

REGION_COLUMNS = ["a", "b", "region"]


@dataclass
class TrialResult:
    """Everything measured in one trial; None marks a skipped experiment.

    ``recovery_success`` is exact: the overlap is 1.0 only when the signed
    label agreement, an integer below 2**53, reaches ±n.  ``unmatched_sizes``
    maps each pair (i, j) to |F_ij|; ``intersect_sizes`` maps (i, j) with
    1 <= i < j to |F_1i ∩ F_1j| in anchor labels.
    """

    params: Params
    seed: int
    overlap: float | None = None
    recovery_success: bool | None = None
    degraded: bool | None = None
    good_disagreements: int | None = None
    matching_success: bool | None = None
    bad_vertex_count: int | None = None
    unmatched_sizes: dict[tuple[int, int], int] | None = None
    intersect_sizes: dict[tuple[int, int], int] | None = None
    r_star_size: int | None = None
    s_star_size: int | None = None
    witness_found: bool | None = None
    wall_ms: float = 0.0

    def replay_key(self) -> tuple:
        """Every field but wall time, in field order; a dict as its sorted items, None if empty."""
        values = (getattr(self, f.name) for f in fields(self) if f.name != "wall_ms")
        return tuple(
            (tuple(sorted(v.items())) or None) if isinstance(v, dict) else v for v in values
        )


def run_trial(
    params: Params,
    seed: int,
    experiments: tuple[str, ...] = ("recover", "match"),
) -> TrialResult:
    """Sample one instance and run the requested experiments on it.

    The one place that orders a trial's stages, each run at most once:
    sample, match (all pairwise matchings, for recover or match; empty at
    K = 1), init (the anchor child's spectral labels, for recover),
    classify (whenever there is a family), good and bad (for recover),
    exact (for match: success when the split has no bad vertex) and
    witness.  Every stage reads the one family, built from the union's
    edges and retention codes in anchor labels; only the anchor child is
    built as a graph.  Deterministic given ``(params, seed, experiments)``
    in every field except wall time.  Match, witness and the family's
    counts leave their fields None at K = 1; a degraded recovery run is
    recorded like any other.
    """
    if isinstance(experiments, str) or not experiments:
        raise ValueError(f"experiments must be a non-empty tuple of names, not {experiments!r}")
    bad_names = set(experiments) - set(_TRIAL_EXPERIMENTS)
    if bad_names:
        raise ValueError(f"unknown experiments: {sorted(bad_names)}")
    recover = "recover" in experiments
    matched = recover or "match" in experiments
    several = params.K >= 2
    start = time.perf_counter()
    inst = sample_instance(params, seed)
    result = TrialResult(params=params, seed=seed)
    fam = all_pairwise_matchings(inst, params.k) if matched else None
    if recover:
        init = almost_exact_label(
            inst.anchor, params.s * params.a, params.s * params.b, params.eps, seed=seed
        )
    classes = classify_good_bad(fam) if matched else None
    if recover:
        good = label_good_vertices(inst, fam, init, classes=classes)
        final = label_bad_vertices(inst, fam, good, classes=classes)
        result.overlap = overlap(inst.sigma_star, final)
        result.recovery_success = result.overlap == 1.0
        result.degraded = final.degraded
        result.good_disagreements = final.good_disagreements
    if "match" in experiments and several:
        result.matching_success = not classes.bad.size
    if matched and several:
        result.bad_vertex_count = len(classes.bad)
        result.unmatched_sizes = {
            pair: int(fam.unmatched_mask(*pair).sum()) for pair in fam.pairs()
        }
        result.intersect_sizes = {
            (i, j): int(
                (fam.unmatched_mask(0, i) & fam.unmatched_mask(0, j)).sum()
            )
            for i in range(1, params.K)
            for j in range(i + 1, params.K)
        }
    if "witness" in experiments and several:
        report = map_failure_witness(inst)
        result.r_star_size = len(report.r_star)
        result.s_star_size = len(report.s_star)
        result.witness_found = report.witness_found
    result.wall_ms = (time.perf_counter() - start) * 1000.0
    return result


def _sorted_unique(values, caster) -> tuple:
    return tuple(sorted({caster(v) for v in values}))


_GRID_FIELDS = ("n_values", "a_values", "b_values", "s_values", "K_values")


@dataclass
class SweepConfig:
    """Grids, trial count, seed, and experiment selection for one sweep.

    Grid values are deduplicated and sorted on construction, and every grid
    cell is validated eagerly through Params.  The ``scaling`` experiment
    needs at least four strictly ascending n values; the other experiments
    run per cell.  ``record_timing`` opts into the wall-clock columns (off
    by default so sweep CSVs are byte-reproducible); it and ``per_trial``
    must be booleans.  ``k`` and ``trials`` are whole numbers of at least
    1 and ``master_seed`` any whole number, all stored as ints; ``eps`` is
    finite and positive, and each ``a``, ``b`` and ``s`` grid value finite,
    all stored as floats.  A bool or a string is rejected.
    """

    n_values: tuple[int, ...]
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    s_values: tuple[float, ...]
    K_values: tuple[int, ...] = (Params.K,)
    k: int = Params.k
    eps: float = Params.eps
    trials: int = 10
    master_seed: int = 0
    experiments: tuple[str, ...] = ("recover",)
    record_timing: bool = False
    per_trial: bool = False

    def __post_init__(self):
        for name in (*_GRID_FIELDS, "experiments"):
            if isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a list, not a string")
        self.n_values = _sorted_unique(self.n_values, partial(_require_integer, "n_values"))
        for name in ("a_values", "b_values", "s_values"):
            setattr(self, name, _sorted_unique(getattr(self, name), partial(_require_real, name)))
        self.K_values = _sorted_unique(self.K_values, partial(_require_integer, "K_values"))
        self.experiments = tuple(self.experiments)
        for grid_name in _GRID_FIELDS:
            if not getattr(self, grid_name):
                raise ValueError(f"{grid_name} must be non-empty")
        bad_names = set(self.experiments) - set(EXPERIMENT_NAMES)
        if bad_names:
            raise ValueError(f"unknown experiments: {sorted(bad_names)}")
        if not self.experiments:
            raise ValueError("at least one experiment is required")
        self.k = _require_integer("k", self.k, 1)
        self.trials = _require_integer("trials", self.trials, 1)
        self.master_seed = _require_integer("master_seed", self.master_seed)
        self.eps = _require_real("eps", self.eps, positive=True)
        for name in ("record_timing", "per_trial"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, not {getattr(self, name)!r}")
        if "scaling" in self.experiments and len(self.n_values) < 4:
            raise ValueError("the scaling experiment needs at least 4 distinct n values")
        self.cells()

    def cells(self) -> list[Params]:
        """The Params of every grid cell, in sorted parameter order."""
        return [
            Params(n=n, a=a, b=b, s=s, K=K, k=self.k, eps=self.eps)
            for n in self.n_values
            for a in self.a_values
            for b in self.b_values
            for s in self.s_values
            for K in self.K_values
        ]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        """Parse a config; lists become tuples and omitted fields keep defaults.

        A config the constructor cannot take (a missing grid, a scalar grid,
        a count given as a string) is a ``ValueError`` like any other bad value.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ValueError(f"malformed config: {exc}") from exc


@dataclass
class SweepResult:
    """Rows produced by one sweep, ready for the CSV writers."""

    cell_rows: list[dict]
    trial_rows: list[dict] = field(default_factory=list)
    scaling_rows: list[dict] = field(default_factory=list)


def _mean(values) -> float | None:
    kept = [float(v) for v in values if v is not None]
    if not kept:
        return None
    return sum(kept) / len(kept)


def _aggregate_row(rows: list[dict]) -> dict:
    """One AGGREGATE_COLUMNS row: the column means of one cell's trial rows."""
    row = {c: rows[0][c] for c in _CELL_COLUMNS}
    row["trials"] = len(rows)
    for column, trial_column in _TRIAL_COLUMN_OF.items():
        row[column] = _mean(r[trial_column] for r in rows)
    return row


def trial_row(r: TrialResult, index: int, record_timing: bool) -> dict:
    """One TRIAL_COLUMNS row; ``wall_ms`` stays empty unless ``record_timing``."""
    return {
        **{c: getattr(r.params, c) for c in _CELL_COLUMNS},
        "trial": index,
        "seed": r.seed,
        "overlap": r.overlap,
        "recovery_success": r.recovery_success,
        "degraded": r.degraded,
        "good_disagreements": r.good_disagreements,
        "matching_success": r.matching_success,
        "bad_vertex_count": r.bad_vertex_count,
        "F12": r.unmatched_sizes.get((0, 1)) if r.unmatched_sizes else None,
        "F12capF13": r.intersect_sizes.get((1, 2)) if r.intersect_sizes else None,
        "R_star": r.r_star_size,
        "S_star": r.s_star_size,
        "witness_found": r.witness_found,
        "wall_ms": r.wall_ms if record_timing else None,
    }


def cell_seeds(params: Params, trials: int, master_seed: int) -> list[int]:
    """Seeds of a cell's ``trials`` trials, in trial order.

    A seed depends only on (master seed, cell parameters, trial index), so
    permuting cells or splitting a grid leaves every trial unchanged.
    ``trials`` must be a whole number of at least 1 and ``master_seed`` a
    whole number.
    """
    trials = _require_integer("trials", trials, 1)
    master_seed = _require_integer("master_seed", master_seed)
    key = cell_key(params.n, params.a, params.b, params.s, params.K, params.k)
    return [trial_seed(master_seed, key, t) for t in range(trials)]


def _cell_rows(
    params: Params,
    trials: int,
    master_seed: int,
    experiments: tuple[str, ...],
    record_timing: bool,
) -> list[dict]:
    """Run a cell's trials and return their TRIAL_COLUMNS rows."""
    return [
        trial_row(run_trial(params, seed, experiments=experiments), t, record_timing)
        for t, seed in enumerate(cell_seeds(params, trials, master_seed))
    ]


def sweep(cfg: SweepConfig) -> SweepResult:
    """Run every cell of the grid; aggregate per cell, optionally per trial.

    Cells run in sorted parameter order and rows come out already sorted.
    """
    trial_experiments = tuple(e for e in cfg.experiments if e != "scaling")
    result = SweepResult(cell_rows=[])
    if trial_experiments:
        for params in cfg.cells():
            rows = _cell_rows(
                params, cfg.trials, cfg.master_seed, trial_experiments, cfg.record_timing
            )
            result.cell_rows.append(_aggregate_row(rows))
            if cfg.per_trial:
                result.trial_rows.extend(rows)
    if "scaling" in cfg.experiments:
        for base in (p for p in cfg.cells() if p.n == cfg.n_values[0]):
            if base.K < 2:
                warnings.warn(f"scaling skipped at K={base.K}: needs at least two children")
                continue
            fit = scaling_experiment(base, cfg.n_values, cfg.trials, cfg.master_seed)
            result.scaling_rows.append(scaling_row(base, fit))
    return result


@dataclass
class ScalingResult:
    """Log-log slope fits of the unmatched-set sizes against n.

    ``mean_*`` hold the per-n averages in n order.  Fits are least-squares
    slopes over the points with positive mean (zero-mean points are dropped
    with a warning); a fit is None when fewer than two points remain.
    Intersection fields are None when K < 3.
    """

    n_values: tuple[int, ...]
    trials: int
    mean_unmatched: list[float]
    mean_intersection: list[float] | None
    mean_singletons: list[float]
    fitted_unmatched: float | None
    fitted_intersection: float | None
    fitted_singletons: float | None
    theory_unmatched: float
    theory_intersection: float | None
    theory_singletons: float
    points_used: int


def _fit_slope(n_values, means, label: str) -> tuple[float | None, int]:
    points = [(n, m) for n, m in zip(n_values, means) if m > 0]
    dropped = len(means) - len(points)
    if dropped:
        warnings.warn(
            f"{label}: dropped {dropped} zero-mean point(s) from the exponent fit"
        )
    if len(points) < 2:
        return None, len(points)
    logs_n = np.log([p[0] for p in points])
    logs_m = np.log([p[1] for p in points])
    slope = float(np.polyfit(logs_n, logs_m, 1)[0])
    return slope, len(points)


def scaling_experiment(
    base: Params,
    n_list,
    trials: int,
    master_seed: int = 0,
) -> ScalingResult:
    """Average |F_12|, |F_12 ∩ F_13|, |R*| over trials at each n and fit slopes.

    ``base`` fixes (a, b, s, K, k); each n in the strictly ascending
    ``n_list`` (at least four points) reuses it with n replaced.  Reported
    theory exponents: 1 - s^2 T_c for |F_12|, 1 - s(1-(1-s)^2) T_c for the
    pair intersection, and 1 - s(1-(1-s)^(K-1)) T_c for the singleton set.
    """
    n_list = [_require_integer("n_list", n) for n in n_list]
    if len(n_list) < 4:
        raise ValueError("scaling needs at least four n values")
    if any(x >= y for x, y in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    if base.K < 2:
        raise ValueError("scaling needs at least two children")
    track_intersection = base.K >= 3
    cells = [
        _cell_rows(replace(base, n=n), trials, master_seed, ("match", "witness"), False)
        for n in n_list
    ]
    mean_unmatched, mean_intersection, mean_singletons = (
        [_mean(r[column] for r in rows) for rows in cells]
        for column in ("F12", "F12capF13", "R_star")
    )
    s, K = base.s, base.K
    tc = connectivity_param(base.a, base.b)
    fitted_f, used_f = _fit_slope(n_list, mean_unmatched, "unmatched F_12")
    if track_intersection:
        fitted_i, _ = _fit_slope(n_list, mean_intersection, "intersection F_12 ∩ F_13")
    else:
        fitted_i = None
    fitted_r, _ = _fit_slope(n_list, mean_singletons, "singleton R*")
    return ScalingResult(
        n_values=tuple(n_list),
        trials=len(cells[0]),
        mean_unmatched=mean_unmatched,
        mean_intersection=mean_intersection if track_intersection else None,
        mean_singletons=mean_singletons,
        fitted_unmatched=fitted_f,
        fitted_intersection=fitted_i,
        fitted_singletons=fitted_r,
        theory_unmatched=1.0 - s * s * tc,
        theory_intersection=(
            1.0 - s * (1.0 - (1.0 - s) ** 2) * tc if track_intersection else None
        ),
        theory_singletons=1.0 - s * (1.0 - (1.0 - s) ** (K - 1)) * tc,
        points_used=used_f,
    )


def scaling_row(base: Params, fit: ScalingResult) -> dict:
    """One SCALING_COLUMNS row for a fit made at the parameters of ``base``."""
    return {
        **{c: getattr(base, c) for c in _BASE_COLUMNS},
        "trials": fit.trials,
        "points_used": fit.points_used,
        "fitted_F12": fit.fitted_unmatched,
        "theory_F12": fit.theory_unmatched,
        "fitted_F12capF13": fit.fitted_intersection,
        "theory_F12capF13": fit.theory_intersection,
        "fitted_Rstar": fit.fitted_singletons,
        "theory_Rstar": fit.theory_singletons,
    }


def _grid_values(step: float, upper: float) -> list[float]:
    count = int(math.floor(upper / step + 1e-9))
    return [round(i * step, 10) for i in range(1, count + 1)]


def region_grid_export(
    s: float, a_max: float, b_max: float, step: float
) -> tuple[list[tuple[float, float, str]], dict[str, int]]:
    """Rasterise the K=3 phase diagram at fixed ``s``.

    The grid runs over multiples of ``step`` in (0, a_max] x (0, b_max].
    ``s`` lies in [0, 1]; ``step`` is finite and positive, and so are
    ``a_max`` and ``b_max``, each at least ``step``.  Grid values are floats.
    Classification runs at strict tolerance (no Boundary rows); the summary
    counts grid cells per region label in a fixed label order.
    """
    s = _require_real("s", s, 0, 1)
    a_max = _require_real("a_max", a_max, positive=True)
    b_max = _require_real("b_max", b_max, positive=True)
    step = _require_real("step", step, positive=True)
    a_values = _grid_values(step, a_max)
    b_values = _grid_values(step, b_max)
    if not a_values or not b_values:
        raise ValueError("ranges must contain at least one grid point")
    rows = []
    counts = {label.value: 0 for label in RegionLabel if label is not RegionLabel.BOUNDARY}
    for a in a_values:
        for b in b_values:
            label = classify_region(a, b, s, tol=0.0).value
            rows.append((a, b, label))
            counts[label] += 1
    return rows, counts


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_csv(columns: list[str], rows: list[dict], sort_by: list[str] | None = None) -> str:
    """Render rows to CSV text deterministically (sorted, repr floats)."""
    ordered = rows
    if sort_by:
        ordered = sorted(rows, key=lambda r: tuple(r[c] for c in sort_by))
    lines = [",".join(columns)]
    for row in ordered:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def cells_csv(result: SweepResult) -> str:
    """Aggregated per-cell CSV for a sweep result."""
    return format_csv(AGGREGATE_COLUMNS, result.cell_rows, sort_by=_CELL_COLUMNS)


def trials_csv(result: SweepResult) -> str:
    """Per-trial CSV for a sweep run with per_trial enabled."""
    return format_csv(TRIAL_COLUMNS, result.trial_rows, sort_by=[*_CELL_COLUMNS, "trial"])


def scaling_csv(result: SweepResult) -> str:
    """Exponent-fit CSV for a sweep run with the scaling experiment."""
    return format_csv(SCALING_COLUMNS, result.scaling_rows, sort_by=_BASE_COLUMNS)


def regions_csv(rows: list[tuple[float, float, str]]) -> str:
    """CSV for a region grid export (rows are already in grid order)."""
    dict_rows = [{"a": a, "b": b, "region": label} for a, b, label in rows]
    return format_csv(REGION_COLUMNS, dict_rows)
