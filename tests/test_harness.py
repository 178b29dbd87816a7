"""Trial driver, grid sweeps, exponent fits, and CSV export."""

import cProfile
import dataclasses
import hashlib
import json
import math
import pstats
import warnings
from pathlib import Path

import numpy as np
import pytest

from csbm import harness
from csbm.generate import Params, sample_instance
from csbm.harness import (
    AGGREGATE_COLUMNS,
    SCALING_COLUMNS,
    TRIAL_COLUMNS,
    SweepConfig,
    cell_seeds,
    cells_csv,
    format_csv,
    region_grid_export,
    regions_csv,
    run_trial,
    scaling_csv,
    scaling_experiment,
    sweep,
    trial_row,
    trials_csv,
)
from csbm.seeds import cell_key, trial_seed
from csbm.thresholds import condition_set


def test_trial_is_reproducible():
    params = Params(n=150, a=9.0, b=1.0, s=0.6, K=3, k=1)
    first = run_trial(params, 11, experiments=("recover", "match", "witness"))
    second = run_trial(params, 11, experiments=("recover", "match", "witness"))
    assert first.replay_key() == second.replay_key()


def _another(value):
    """A value of the same kind as ``value`` that differs from it."""
    if isinstance(value, Params):
        return dataclasses.replace(value, n=value.n + 1)
    if isinstance(value, dict):
        return {**value, (9, 9): 1}
    if value is None or isinstance(value, bool):
        return not value
    return value + 1


def test_replay_key_changes_with_every_field_but_wall_time():
    r = run_trial(Params(n=150, a=9.0, b=1.0, s=0.6, K=3, k=1), 11, ("recover", "match", "witness"))
    for f in dataclasses.fields(r):
        changed = dataclasses.replace(r, **{f.name: _another(getattr(r, f.name))})
        assert (changed.replay_key() == r.replay_key()) == (f.name == "wall_ms"), f.name


def test_trial_classifies_vertices_once():
    params = Params(n=300, a=9.0, b=1.0, s=0.4, K=3, k=1)
    profiler = cProfile.Profile()
    profiler.runcall(run_trial, params, 4, experiments=("recover", "match", "witness"))
    stats = pstats.Stats(profiler).stats
    calls = [
        counts[1]
        for (path, _, name), counts in stats.items()
        if name == "_classes" and path.endswith("matching.py")
    ]
    assert calls == [1]


@pytest.mark.parametrize("s", [0.15, 0.4])
def test_trial_builds_only_the_anchor_child(s, monkeypatch):
    sampled = []

    def keep(params, seed):
        sampled.append(sample_instance(params, seed))
        return sampled[-1]

    monkeypatch.setattr(harness, "sample_instance", keep)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_trial(
            Params(n=500, a=9.0, b=1.0, s=s, K=4, k=1), 2,
            experiments=("recover", "match", "witness"),
        )
    assert "anchor" in sampled[0].__dict__ and "children" not in sampled[0].__dict__
    if s == 0.15:
        assert result.bad_vertex_count > 0


def test_trial_rejects_unknown_experiment():
    params = Params(n=50, a=4.0, b=1.0, s=0.5, K=3, k=1)
    with pytest.raises(ValueError):
        run_trial(params, 0, experiments=("recover", "scaling"))


@pytest.mark.parametrize("experiments", ["recover", ()], ids=["string", "empty"])
def test_trial_rejects_a_string_or_no_experiments(experiments):
    params = Params(n=50, a=4.0, b=1.0, s=0.5, K=3, k=1)
    with pytest.raises(ValueError, match="^experiments must"):
        run_trial(params, 0, experiments=experiments)


def test_trial_accepts_whole_float_sizes():
    # n, K and k are stored as ints, so a whole float runs like the int.
    floats = Params(n=300.0, a=9.0, b=1.0, s=0.4, K=3.0, k=1.0)
    ints = Params(n=300, a=9.0, b=1.0, s=0.4, K=3, k=1)
    assert all(type(getattr(floats, name)) is int for name in ("n", "K", "k"))
    assert run_trial(floats, 3).replay_key() == run_trial(ints, 3).replay_key()


def test_numpy_scalar_params_write_the_same_csv_bytes():
    # a, b, s and eps are stored as Python floats, so no CSV cell reads
    # "np.float64(9.0)".
    scalars = Params(n=200, a=np.float64(9.0), b=1.0, s=np.float64(0.4), K=3, k=1)
    floats = Params(n=200, a=9.0, b=1.0, s=0.4, K=3, k=1)
    assert all(type(getattr(scalars, name)) is float for name in ("a", "b", "s", "eps"))
    texts = [
        format_csv(TRIAL_COLUMNS, [trial_row(run_trial(p, 5), 0, False)])
        for p in (scalars, floats)
    ]
    assert texts[0] == texts[1]


def test_trial_with_one_child_skips_pair_experiments():
    params = Params(n=200, a=9.0, b=1.0, s=0.8, K=1, k=1)
    result = run_trial(params, 2, experiments=("recover", "match", "witness"))
    assert result.matching_success is None
    assert result.bad_vertex_count is None
    assert result.unmatched_sizes is None
    assert result.r_star_size is None
    assert result.witness_found is None
    assert result.overlap is not None
    assert result.degraded is False


def test_trial_records_witness_fields():
    params = Params(n=300, a=9.0, b=1.0, s=0.2, K=3, k=1)
    result = run_trial(params, 4, experiments=("witness",))
    assert isinstance(result.r_star_size, int)
    assert isinstance(result.s_star_size, int)
    assert isinstance(result.witness_found, bool)
    assert result.overlap is None
    assert result.matching_success is None


def test_trial_with_nothing_retained():
    params = Params(n=120, a=9.0, b=1.0, s=0.0, K=3, k=13)
    result = run_trial(params, 0)
    assert result.matching_success is False
    assert result.bad_vertex_count == 120
    assert result.degraded is True
    assert result.recovery_success is False
    assert result.unmatched_sizes[(0, 1)] == 120


def _pinned_sweep_digest() -> str:
    """sha256 of the cells and trials CSVs of the pinned sweep grid.

    The grid covers both regimes, K = 1..4 and bad vertices at s = 0.15.
    """
    cfg = SweepConfig(
        n_values=(500,),
        a_values=(9.0,),
        b_values=(1.0,),
        s_values=(0.15, 0.4),
        K_values=(1, 2, 3, 4),
        k=1,
        trials=3,
        master_seed=0,
        experiments=("recover", "match", "witness"),
        per_trial=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = sweep(cfg)
    text = cells_csv(result) + trials_csv(result)
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_csv_bytes_are_pinned(power_init, retained_sampler):
    """Sweep CSV bytes may not drift between versions of the package.

    The digest was recorded before the edge-key and CSR rewrite of
    ``csbm.graphs``, with the power-iteration init and the retention-draw
    sampler, which run here in place of the Lanczos init and the
    union-first sampler so that the digest still covers every other
    stage; criterion 10 only compares two runs of the same code.
    """
    assert _pinned_sweep_digest() == (
        "bae1efd701870b877734831e95e7e9ca19fb2df8ac76013569fb7362c8fe8010"
    )


def test_sweep_csv_bytes_are_pinned_with_lanczos_init(retained_sampler):
    """The same sweep with the package's own init, recorded when Lanczos replaced power iteration."""
    assert _pinned_sweep_digest() == (
        "4cd633190ca0072c003ede0989b1762286ea1f55ffdec67f8d86488eb6a2548a"
    )


def test_sweep_csv_bytes_are_pinned_with_union_first_sampling():
    """The same sweep with the package's own init and sampler, recorded union-first."""
    assert _pinned_sweep_digest() == (
        "c6dbf9f6159e0c35c9bb41d512621e60709ed26c67fbaf40e3d7a6a2d9c660c2"
    )


def _pinned_scaling_digest() -> str:
    """sha256 of the scaling CSV of the pinned scaling grid."""
    cfg = SweepConfig(
        n_values=(200, 400, 800, 1600),
        a_values=(6.0,),
        b_values=(2.0,),
        s_values=(0.35, 0.6),
        K_values=(2, 3, 4),
        k=1,
        trials=3,
        master_seed=0,
        experiments=("scaling",),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        text = scaling_csv(sweep(cfg))
    return hashlib.sha256(text.encode()).hexdigest()


def test_scaling_csv_bytes_are_pinned(power_init, retained_sampler):
    """Scaling CSV bytes may not drift between versions of the package.

    The digest was recorded while ``scaling_experiment`` still sampled its
    own instances; it now runs each trial through ``run_trial``.  The
    scaling trials run no init, so it holds with either init; the older
    one runs here like in the other pins recorded before Lanczos, and so
    does the retention-draw sampler that the union-first one replaced.
    """
    assert _pinned_scaling_digest() == (
        "5f23425b3773fcb4d5080e59e071988e8c21d6641526f25c2006b1fdac10f168"
    )


def test_scaling_csv_bytes_are_pinned_with_union_first_sampling():
    """The same scaling grid with the package's own sampler, recorded union-first."""
    assert _pinned_scaling_digest() == (
        "643f0ad7a277dc5c0913385141d9defead9fa77610f83eefe890bd3dcdd8c550"
    )


def test_full_retention_cell_succeeds():
    cfg = SweepConfig(
        n_values=(1000,),
        a_values=(18.0,),
        b_values=(2.0,),
        s_values=(1.0,),
        K_values=(3,),
        k=13,
        trials=10,
        experiments=("recover", "match"),
    )
    row = sweep(cfg).cell_rows[0]
    assert row["success_rate"] >= 0.9
    assert row["match_rate"] == 1.0
    assert row["mean_bad"] == 0.0
    assert row["mean_F12"] == 0.0
    assert row["witness_rate"] is None
    assert row["mean_ms"] is None


def test_more_children_help_recovery():
    rates = {}
    for K in (1, 3):
        cfg = SweepConfig(
            n_values=(3000,),
            a_values=(9.0,),
            b_values=(1.0,),
            s_values=(0.4,),
            K_values=(K,),
            k=1,
            trials=10,
            experiments=("recover",),
        )
        rates[K] = sweep(cfg).cell_rows[0]["success_rate"]
    assert rates[3] >= 0.9
    assert rates[3] >= rates[1] + 0.2


def base_config(**overrides):
    payload = dict(
        n_values=(150, 200),
        a_values=(12.0, 18.0),
        b_values=(2.0,),
        s_values=(1.0,),
        K_values=(3,),
        k=1,
        trials=3,
        experiments=("recover", "match"),
    )
    payload.update(overrides)
    return SweepConfig(**payload)


def test_sweep_matches_manual_trials():
    cfg = base_config(n_values=(150,), a_values=(12.0,))
    row = sweep(cfg).cell_rows[0]
    params = cfg.cells()[0]
    key = cell_key(params.n, params.a, params.b, params.s, params.K, params.k)
    manual = [
        run_trial(params, trial_seed(cfg.master_seed, key, t), experiments=cfg.experiments)
        for t in range(cfg.trials)
    ]
    assert row["mean_overlap"] == sum(r.overlap for r in manual) / len(manual)
    assert row["success_rate"] == sum(r.recovery_success for r in manual) / len(manual)
    assert row["mean_F12"] == sum(r.unmatched_sizes[(0, 1)] for r in manual) / len(manual)


def test_sweep_cells_do_not_interact():
    grid = sweep(base_config()).cell_rows
    split = []
    for n in (150, 200):
        for a in (12.0, 18.0):
            split.extend(sweep(base_config(n_values=(n,), a_values=(a,))).cell_rows)
    key = lambda r: (r["n"], r["a"])
    assert sorted(grid, key=key) == sorted(split, key=key)


def test_aggregates_match_per_trial_rows():
    cfg = base_config(per_trial=True)
    result = sweep(cfg)
    assert len(result.trial_rows) == len(result.cell_rows) * cfg.trials
    for row in result.cell_rows:
        mine = [
            t
            for t in result.trial_rows
            if (t["n"], t["a"]) == (row["n"], row["a"])
        ]
        assert len(mine) == cfg.trials
        assert row["mean_overlap"] == sum(t["overlap"] for t in mine) / len(mine)
        assert row["mean_bad"] == sum(t["bad_vertex_count"] for t in mine) / len(mine)


def test_config_normalises_and_validates():
    cfg = base_config(n_values=(200, 150, 200), a_values=(18.0, 12.0))
    assert cfg.n_values == (150, 200)
    assert cfg.a_values == (12.0, 18.0)
    whole = base_config(trials=2.0, master_seed=3.0)
    assert (whole.trials, whole.master_seed) == (2, 3)
    assert type(whole.trials) is int and type(whole.master_seed) is int
    # Equal configs serialise to equal bytes, whatever numeric types they were given.
    given_loosely = base_config(a_values=(18, 12), b_values=(2,), s_values=(1,), k=1.0, eps=1)
    given_exactly = base_config(k=1, eps=1.0)
    assert given_loosely == given_exactly
    assert given_loosely.to_json() == given_exactly.to_json()
    assert type(given_loosely.k) is int and type(given_loosely.eps) is float
    with pytest.raises(ValueError):
        base_config(n_values=())
    with pytest.raises(ValueError):
        base_config(experiments=("recover", "mystery"))
    with pytest.raises(ValueError):
        base_config(trials=0)
    with pytest.raises(ValueError):
        base_config(a_values=(-3.0,))
    with pytest.raises(ValueError):
        base_config(experiments=("scaling",), n_values=(100, 200, 300))


def test_config_rejects_more_than_64_children():
    # Refused when the config is built, before any K = 3 cell runs.
    with pytest.raises(ValueError, match="64 children"):
        base_config(K_values=(3, 65))


def test_cell_seeds_take_a_whole_count_of_at_least_one():
    params = Params(n=100, a=6.0, b=2.0, s=0.35, K=3, k=1)
    assert cell_seeds(params, 2.0, 5) == cell_seeds(params, 2, 5)
    assert len(cell_seeds(params, 2, 5)) == 2
    for trials in (0, -1, 1.5):
        with pytest.raises(ValueError, match="trials"):
            cell_seeds(params, trials, 5)


def test_seeds_must_be_whole_numbers():
    # A fractional seed used to run the truncated seed's trial and write the
    # fraction in the CSV; a bool seed used to run as 0 or 1.
    params = Params(n=100, a=6.0, b=2.0, s=0.35, K=3, k=1)
    for seed in (1.5, True, "1"):
        with pytest.raises(ValueError, match="^seed "):
            run_trial(params, seed)
        with pytest.raises(ValueError, match="^seed "):
            sample_instance(params, seed)
        with pytest.raises(ValueError, match="^master_seed "):
            cell_seeds(params, 2, seed)
    assert cell_seeds(params, 2, np.int64(1)) == cell_seeds(params, 2, 1)
    assert cell_seeds(params, 2, 2.0) == cell_seeds(params, 2, 2)
    assert len(set(cell_seeds(params, 2, -3))) == 2


def test_config_json_round_trip():
    cfg = base_config(per_trial=True, record_timing=True, trials=5)
    assert SweepConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError):
        SweepConfig.from_json('{"n_values": [100], "grid": true}')


def test_config_to_json_bytes_are_pinned():
    cfg = SweepConfig(
        n_values=(200, 150), a_values=(9.0,), b_values=(1.0,), s_values=(0.35, 0.6),
        K_values=(2, 3), k=1, eps=0.02, trials=4, master_seed=7,
        experiments=("recover", "witness"), record_timing=True, per_trial=True,
    )
    assert cfg.to_json() == (
        '{\n  "n_values": [\n    150,\n    200\n  ],\n  "a_values": [\n    9.0\n  ],'
        '\n  "b_values": [\n    1.0\n  ],\n  "s_values": [\n    0.35,\n    0.6\n  ],'
        '\n  "K_values": [\n    2,\n    3\n  ],\n  "k": 1,\n  "eps": 0.02,'
        '\n  "trials": 4,\n  "master_seed": 7,'
        '\n  "experiments": [\n    "recover",\n    "witness"\n  ],'
        '\n  "record_timing": true,\n  "per_trial": true\n}'
    )


def test_config_from_json_accepts_the_readme_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("A sweep config mirrors the `SweepConfig` fields:")[1]
    payload = json.loads(text.split("```json")[1].split("```")[0])
    assert {"eps", "record_timing"}.isdisjoint(payload)
    want = SweepConfig(
        n_values=(1000, 2000), a_values=(9.0,), b_values=(1.0,), s_values=(0.4, 0.6),
        K_values=(1, 2, 3), k=1, trials=10, master_seed=0,
        experiments=("recover", "match"), per_trial=True,
    )
    got = SweepConfig.from_json(json.dumps(payload))
    assert got == want and isinstance(got.n_values, tuple)
    assert isinstance(got.experiments, tuple)
    del payload["experiments"]
    got = SweepConfig.from_json(json.dumps(payload))
    assert got == dataclasses.replace(want, experiments=("recover",))


def test_config_json_rejects_mode():
    payload = json.loads(base_config().to_json())
    assert "mode" not in payload
    payload["mode"] = "seeded"
    with pytest.raises(ValueError, match="mode"):
        SweepConfig.from_json(json.dumps(payload))


def test_scaling_validates_inputs():
    base = Params(n=100, a=6.0, b=2.0, s=0.35, K=3, k=1)
    with pytest.raises(ValueError):
        scaling_experiment(base, (100, 200, 400), 2)
    with pytest.raises(ValueError):
        scaling_experiment(base, (100, 200, 200, 400), 2)
    with pytest.raises(ValueError):
        scaling_experiment(base, (100, 200, 400, 800), 0)
    with pytest.raises(ValueError):
        scaling_experiment(
            Params(n=100, a=6.0, b=2.0, s=0.35, K=1, k=1), (100, 200, 400, 800), 2
        )
    with pytest.raises(ValueError):
        scaling_experiment(base, (100.7, 200.2, 300.9, 400.5), 1)
    with pytest.raises(ValueError):
        scaling_experiment(base, (100, 200, 400, 800), 1.5)


def test_scaling_fits_track_theory():
    base = Params(n=500, a=6.0, b=2.0, s=0.35, K=3, k=1)
    fit = scaling_experiment(base, (500, 1000, 2000, 4000), 3, 0)
    assert fit["points_used"] == 4
    assert fit["theory_F12"] == pytest.approx(1.0 - 0.35**2 * 4.0)
    assert abs(fit["fitted_F12"] - fit["theory_F12"]) < 0.15
    assert abs(fit["fitted_F12capF13"] - fit["theory_F12capF13"]) < 0.15
    assert abs(fit["fitted_Rstar"] - fit["theory_Rstar"]) < 0.15


@pytest.mark.filterwarnings("ignore:.*zero-mean")
@pytest.mark.parametrize(
    "a, b, s, K", [(6.0, 2.0, 0.35, 3), (9.0, 1.0, 0.4, 2), (5.0, 4.0, 0.6, 4), (3.3, 0.7, 0.15, 5)]
)
def test_scaling_theory_exponents_are_condition_values(a, b, s, K):
    fit = scaling_experiment(Params(n=60, a=a, b=b, s=s, K=K), [60, 70, 80, 90], 1)
    values = condition_set(a, b, s, K)
    assert fit["theory_F12"] == 1.0 - values["pair_match"]
    assert fit["theory_Rstar"] == 1.0 - values["match_all"]
    if K >= 3:
        assert fit["theory_F12capF13"] == 1.0 - condition_set(a, b, s, 3)["match_all"]
    else:
        assert fit["theory_F12capF13"] is None


def test_scaling_drops_zero_mean_points():
    base = Params(n=100, a=18.0, b=2.0, s=1.0, K=3, k=13)
    with pytest.warns(UserWarning):
        fit = scaling_experiment(base, (100, 150, 200, 250), 1, 0)
    assert fit["fitted_F12"] is None
    assert fit["points_used"] == 0


def test_sweep_runs_scaling_rows():
    cfg = SweepConfig(
        n_values=(200, 300, 400, 500),
        a_values=(6.0,),
        b_values=(2.0,),
        s_values=(0.35,),
        K_values=(3,),
        k=1,
        trials=2,
        experiments=("scaling",),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = sweep(cfg)
    assert result.cell_rows == []
    assert len(result.scaling_rows) == 1
    row = result.scaling_rows[0]
    assert row["theory_F12"] == pytest.approx(1.0 - 0.35**2 * 4.0)


@pytest.mark.filterwarnings("ignore:.*zero-mean")
@pytest.mark.parametrize("K", [2, 3])
def test_scaling_returns_its_csv_row_then_the_means(K):
    base = Params(n=60, a=6.0, b=2.0, s=0.35, K=K, k=1)
    fit = scaling_experiment(base, [60, 70, 80, 90], 1)
    assert list(fit) == [*SCALING_COLUMNS, "mean_F12", "mean_F12capF13", "mean_Rstar"]
    assert [fit[c] for c in ("a", "b", "s", "K", "k", "trials")] == [6.0, 2.0, 0.35, K, 1, 1]
    assert len(fit["mean_F12"]) == len(fit["mean_Rstar"]) == 4
    assert (fit["mean_F12capF13"] is None) == (K < 3)


def test_scaling_means_are_the_cell_means():
    cfg = SweepConfig(
        n_values=(200, 300, 400, 500),
        a_values=(6.0,),
        b_values=(2.0,),
        s_values=(0.35,),
        K_values=(3,),
        k=1,
        trials=2,
        experiments=("match", "scaling"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = sweep(cfg)
    (fit,) = result.scaling_rows
    for column in ("mean_F12", "mean_F12capF13"):
        assert fit[column] == [row[column] for row in result.cell_rows]


def test_config_refuses_a_cell_over_the_union_ceiling(no_draws):
    with pytest.raises(ValueError, match="n=10000000 expects .* union edges"):
        SweepConfig(
            n_values=(1000, 10**7), a_values=(9.0,), b_values=(1.0,), s_values=(0.4,)
        )


def test_scaling_refuses_an_n_over_the_union_ceiling_before_any_trial(no_draws):
    base = Params(n=200, a=9.0, b=1.0, s=0.4, K=3, k=1)
    with pytest.raises(ValueError, match="n=100000000 expects .* union edges"):
        scaling_experiment(base, (200, 300, 400, 10**8), 1)


def test_region_grid_export_known_cells():
    rows, counts = region_grid_export(0.4, 10.0, 2.0, 1.0)
    assert len(rows) == 20
    assert sum(counts.values()) == 20
    assert "Boundary" not in counts
    cell = {(a, b): label for a, b, label in rows}
    assert cell[(9.0, 1.0)] == "DarkBlue"
    assert all(label for label in cell.values())
    with pytest.raises(ValueError):
        region_grid_export(0.4, 10.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        region_grid_export(0.4, 0.5, 2.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, True, "2"])
@pytest.mark.parametrize("name", ["a_max", "b_max", "step"])
def test_region_grid_export_rejects_non_finite_or_non_positive_ranges(name, value):
    args = {"a_max": 10.0, "b_max": 2.0, "step": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} "):
        region_grid_export(0.4, **args)


def test_region_grid_export_refuses_a_grid_over_the_cap(monkeypatch):
    # The cell count is checked before any grid value is built: a cell that
    # reached the classifier would fail the test.
    def classify(*args, **kwargs):
        raise AssertionError("a cell was classified")

    monkeypatch.setattr(harness, "classify_region", classify)
    with pytest.raises(ValueError, match="has 10000000 cells, more than the cap of 1000000"):
        region_grid_export(0.4, 1e4, 1e3, 1.0)
    with pytest.raises(ValueError, match="has inf cells"):
        region_grid_export(0.4, 1e300, 1.0, 1e-300)
    monkeypatch.undo()
    monkeypatch.setattr(harness, "MAX_GRID_CELLS", 20)
    assert len(region_grid_export(0.4, 10.0, 2.0, 1.0)[0]) == 20
    with pytest.raises(ValueError, match="has 21 cells, more than the cap of 20"):
        region_grid_export(0.4, 7.0, 3.0, 1.0)


def test_region_grid_export_writes_floats_whatever_the_number_type():
    # Before the arguments were cast, numpy scalars gave "np.float64(1.0)"
    # cells and an int step gave "1" cells.
    floats = regions_csv(region_grid_export(0.4, 2.0, 2.0, 1.0)[0])
    scalars = region_grid_export(np.float64(0.4), np.float64(2.0), 2.0, np.float64(1.0))[0]
    assert regions_csv(scalars) == floats
    assert regions_csv(region_grid_export(0.4, 2, 2, 1)[0]) == floats
    assert floats.splitlines()[1].startswith("1.0,1.0,")


def test_csv_formatting_rules():
    text = format_csv(
        ["x", "y"],
        [{"x": None, "y": True}, {"x": 1.5, "y": False}],
        sort_by=["y"],
    )
    assert text == "x,y\n1.5,0\n,1\n"


def test_missing_experiments_leave_empty_fields():
    cfg = base_config(n_values=(150,), a_values=(12.0,), experiments=("recover",))
    result = sweep(cfg)
    text = cells_csv(result)
    header, line = text.strip().split("\n")
    assert header == ",".join(AGGREGATE_COLUMNS)
    fields = dict(zip(AGGREGATE_COLUMNS, line.split(",")))
    assert fields["match_rate"] == ""
    assert fields["witness_rate"] == ""
    assert fields["mean_ms"] == ""
    assert fields["success_rate"] != ""


def test_trials_csv_is_sorted_and_complete():
    cfg = base_config(per_trial=True)
    result = sweep(cfg)
    lines = trials_csv(result).strip().split("\n")
    assert len(lines) == 1 + len(result.trial_rows)
    seen = [tuple(line.split(",")[:7]) for line in lines[1:]]
    assert seen == sorted(seen, key=lambda t: (int(t[0]), float(t[1]), int(t[6])))
