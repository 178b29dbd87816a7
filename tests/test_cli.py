"""End-to-end command-line behaviour."""

import argparse
import json

import numpy as np
import pytest
from conftest import read_edge_list

from csbm import cli, harness
from csbm.cli import build_parser, main
from csbm.generate import Params, sample_instance
from csbm.harness import (
    SCALING_COLUMNS,
    TRIAL_COLUMNS,
    SweepConfig,
    cells_csv,
    format_csv,
    region_grid_export,
    regions_csv,
    run_trial,
    scaling_experiment,
    sweep,
    trials_csv,
)
from csbm.seeds import cell_key, trial_seed


def run_cli(*argv):
    return main([str(x) for x in argv])


def test_model_defaults_are_the_params_defaults():
    cfg = SweepConfig(n_values=[100], a_values=[9.0], b_values=[1.0], s_values=[0.4])
    assert (cfg.K_values, cfg.k, cfg.eps) == ((Params.K,), Params.k, Params.eps)
    model = ["--a", "9", "--b", "1", "--s", "0.4"]
    for argv in (
        ["gen", "--n", "100", *model, "--out", "unused"],
        ["recover", "--n", "100", *model],
        ["match", "--n", "100", *model],
        ["witness", "--n", "100", *model],
        ["scaling", "--n-list", "1,2,3,4", *model],
    ):
        args = build_parser().parse_args(argv)
        defaults = {name: getattr(args, name) for name in ("K", "k", "eps") if hasattr(args, name)}
        assert defaults == {name: getattr(Params, name) for name in defaults}, argv[0]


def test_gen_writes_instance_directory(tmp_path, capsys):
    out = tmp_path / "inst"
    code = run_cli(
        "gen", "--n", 80, "--a", 6.0, "--b", 1.0, "--s", 0.7,
        "--K", 3, "--k", 1, "--seed", 5, "--out", out,
    )
    assert code == 0
    assert "wrote instance" in capsys.readouterr().out
    for name in (
        "parent.edges", "child_1.edges", "child_2.edges", "child_3.edges",
        "sigma.txt", "pi_2.txt", "pi_3.txt", "meta.json",
    ):
        assert (out / name).exists(), name

    inst = sample_instance(Params(n=80, a=6.0, b=1.0, s=0.7, K=3, k=1), 5)
    parent = read_edge_list(out / "parent.edges")
    assert parent == inst.parent
    child2 = read_edge_list(out / "child_2.edges")
    assert child2 == inst.children[1]

    sigma_lines = (out / "sigma.txt").read_text().strip().split("\n")
    assert len(sigma_lines) == 80
    assert set(sigma_lines) <= {"+1", "-1"}
    parsed = np.array([1 if v == "+1" else -1 for v in sigma_lines], dtype=np.int8)
    assert np.array_equal(parsed, inst.sigma_star)

    pi2 = [int(v) for v in (out / "pi_2.txt").read_text().split()]
    assert sorted(pi2) == list(range(80))
    assert np.array_equal(np.array(pi2), inst.pi_star[1])

    meta = json.loads((out / "meta.json").read_text())
    assert set(meta) == {
        "n", "a", "b", "s", "K", "k", "eps", "seed", "parent_edges", "child_edges",
    }
    assert meta["n"] == 80 and meta["seed"] == 5
    assert meta["parent_edges"] == inst.parent.edge_count
    assert meta["child_edges"] == [c.edge_count for c in inst.children]


def test_gen_refuses_file_target(tmp_path, capsys):
    target = tmp_path / "occupied"
    target.write_text("x")
    code = run_cli(
        "gen", "--n", 20, "--a", 4.0, "--b", 1.0, "--s", 0.5,
        "--out", target,
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_recover_prints_trials_and_matches_library(capsys):
    code = run_cli(
        "recover", "--n", 150, "--a", 9.0, "--b", 1.0, "--s", 1.0,
        "--K", 3, "--k", 1, "--trials", 2, "--seed", 3,
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split() == ["trial", "overlap", "success", "bad_vertices", "degraded", "ms"]
    assert len(lines) == 3
    first = lines[1].split()
    params = Params(n=150, a=9.0, b=1.0, s=1.0, K=3, k=1)
    key = cell_key(150, 9.0, 1.0, 1.0, 3, 1)
    expected = run_trial(params, trial_seed(3, key, 0), experiments=("recover",))
    assert float(first[1]) == pytest.approx(expected.overlap, abs=1e-6)
    assert int(first[2]) == int(expected.recovery_success)


def test_recover_appends_csv(tmp_path):
    csv_path = tmp_path / "trials.csv"
    args = (
        "recover", "--n", 100, "--a", 9.0, "--b", 1.0, "--s", 1.0,
        "--K", 3, "--k", 1, "--trials", 2, "--seed", 0, "--csv", csv_path,
    )
    assert run_cli(*args) == 0
    assert run_cli(*args) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("n,a,b,s,K,k,trial,seed,overlap")
    assert lines[1] == lines[3]
    # Without --timing the wall-clock column stays empty.
    assert lines[1].endswith(",")


@pytest.mark.parametrize(
    "existing",
    ["a,b,region\n9.0,1.0,Red\n", "n,a", ",".join(TRIAL_COLUMNS)],
    ids=["other-header", "cut-header", "no-final-newline"],
)
def test_recover_refuses_to_append_to_another_csv(tmp_path, capsys, monkeypatch, existing):
    csv_path = tmp_path / "other.csv"
    csv_path.write_text(existing)
    calls = []
    monkeypatch.setattr(cli, "run_trial", lambda *args, **kw: calls.append(args))
    code = run_cli(
        "recover", "--n", 100, "--a", 9.0, "--b", 1.0, "--s", 1.0,
        "--k", 1, "--trials", 2, "--csv", csv_path,
    )
    assert code == 1
    # The file is refused before the header line and the first trial.
    captured = capsys.readouterr()
    assert f"error: cannot append to {csv_path}" in captured.err
    assert captured.out == "" and calls == []
    assert csv_path.read_text() == existing


def test_recover_csv_equals_the_sweep_trial_rows(tmp_path):
    csv_path = tmp_path / "trials.csv"
    assert run_cli(
        "recover", "--n", 150, "--a", 9.0, "--b", 1.0, "--s", 0.6,
        "--K", 3, "--k", 1, "--trials", 3, "--seed", 5, "--csv", csv_path,
    ) == 0
    cfg = SweepConfig(
        n_values=(150,), a_values=(9.0,), b_values=(1.0,), s_values=(0.6,),
        K_values=(3,), k=1, trials=3, master_seed=5, experiments=("recover",),
        per_trial=True,
    )
    want = trials_csv(sweep(cfg)).splitlines()
    assert len(want) == 4
    assert csv_path.read_text().splitlines() == want


def test_recover_timing_fills_wall_ms(tmp_path):
    csv_path = tmp_path / "timed.csv"
    assert run_cli(
        "recover", "--n", 100, "--a", 9.0, "--b", 1.0, "--s", 1.0,
        "--K", 3, "--k", 1, "--trials", 1, "--seed", 0,
        "--csv", csv_path, "--timing",
    ) == 0
    row = csv_path.read_text().strip().split("\n")[1]
    assert float(row.split(",")[-1]) > 0.0


def test_match_table_and_json(capsys):
    args = (
        "match", "--n", 150, "--a", 9.0, "--b", 1.0, "--s", 1.0,
        "--K", 3, "--k", 1, "--trials", 2, "--seed", 1,
    )
    assert run_cli(*args) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split() == [
        "trial", "M12", "M13", "M23", "bad_vertices", "estimator_success",
    ]
    assert len(lines) == 3

    assert run_cli(*args, "--json") == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 2
    assert records[0]["M12"] == 1.0
    assert records[0]["estimator_success"] is True
    assert records[0]["bad_vertices"] == 0


def test_match_rejects_single_child(capsys):
    code = run_cli(
        "match", "--n", 100, "--a", 9.0, "--b", 1.0, "--s", 1.0,
        "--K", 1, "--trials", 1,
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_match_takes_no_eps(capsys):
    # A match trial runs no initialisation, so it has no accuracy target.
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "match", "--n", 100, "--a", 9.0, "--b", 1.0, "--s", 1.0,
            "--trials", 1, "--eps", 0.5,
        )
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err


def test_witness_prints_consistent_counts(capsys):
    assert run_cli(
        "witness", "--n", 300, "--a", 9.0, "--b", 1.0, "--s", 0.2,
        "--K", 3, "--trials", 3, "--seed", 0,
    ) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split() == ["trial", "R_star", "S_star", "S_plus", "S_minus", "witness"]
    assert len(lines) == 4
    for line in lines[1:]:
        _, r_star, s_star, plus, minus, verdict = line.split()
        assert int(plus) + int(minus) == int(s_star)
        assert int(s_star) <= int(r_star)
        assert verdict in {"0", "1"}


SWEEP_PAYLOAD = dict(
    n_values=[120], a_values=[9.0], b_values=[1.0], s_values=[1.0],
    K_values=[3], k=1, trials=2, master_seed=0,
    experiments=["recover", "match"],
)


def sweep_config(tmp_path, **overrides):
    payload = {**SWEEP_PAYLOAD, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    config = sweep_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli("sweep", "--config", config, "--out", out_a) == 0
    assert run_cli("sweep", "--config", config, "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith("n,a,b,s,K,k,trials,success_rate")
    assert "wrote 1 cell rows" in capsys.readouterr().out


def test_sweep_stdout_and_per_trial(tmp_path, capsys):
    # Without --out stdout is the cells CSV alone; the status line goes to stderr.
    config = sweep_config(tmp_path, per_trial=True)
    trials_out = tmp_path / "trials.csv"
    assert run_cli("sweep", "--config", config, "--per-trial-out", trials_out) == 0
    captured = capsys.readouterr()
    assert captured.out == cells_csv(sweep(SweepConfig(**SWEEP_PAYLOAD, per_trial=True)))
    assert captured.err == f"wrote 2 trial rows to {trials_out}\n"
    assert trials_out.read_text().count("\n") == 3


@pytest.mark.parametrize(
    "option, message",
    [("--per-trial-out", "per_trial=true"), ("--scaling-out", "scaling experiment")],
)
def test_sweep_refuses_output_flags_before_any_trial(
    tmp_path, capsys, monkeypatch, option, message
):
    config = sweep_config(tmp_path)
    calls = []
    monkeypatch.setattr(harness, "run_trial", lambda *args, **kw: calls.append(args))
    out, extra = tmp_path / "cells.csv", tmp_path / "extra.csv"
    assert run_cli("sweep", "--config", config, "--out", out, option, extra) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert calls == [] and not out.exists() and not extra.exists()


def test_every_option_has_help_text():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in subcommands.choices.items():
        for action in sub._actions:
            assert action.help, (name, action.option_strings)


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({**SWEEP_PAYLOAD, "experiments": ["mystery"]}, id="unknown-experiment"),
        pytest.param({"a_values": [9.0]}, id="missing-grids"),
        pytest.param({**SWEEP_PAYLOAD, "n_values": 5}, id="scalar-grid"),
        pytest.param({**SWEEP_PAYLOAD, "trials": "3"}, id="string-count"),
        pytest.param({**SWEEP_PAYLOAD, "trials": 2.5}, id="fractional-count"),
        pytest.param({**SWEEP_PAYLOAD, "k": 1.5}, id="fractional-core-order"),
        pytest.param({**SWEEP_PAYLOAD, "n_values": [120.5]}, id="fractional-grid"),
        pytest.param({**SWEEP_PAYLOAD, "a_values": "91"}, id="string-grid"),
        pytest.param({**SWEEP_PAYLOAD, "experiments": "recover"}, id="string-experiments"),
        pytest.param({**SWEEP_PAYLOAD, "record_timing": "false"}, id="string-record-timing"),
        pytest.param({**SWEEP_PAYLOAD, "per_trial": "no"}, id="string-per-trial"),
        pytest.param({**SWEEP_PAYLOAD, "record_timing": 1}, id="int-record-timing"),
        pytest.param({**SWEEP_PAYLOAD, "per_trial": 1}, id="int-per-trial"),
        pytest.param({**SWEEP_PAYLOAD, "a_values": ["9"]}, id="string-in-a-grid"),
        pytest.param({**SWEEP_PAYLOAD, "b_values": [True]}, id="bool-in-b-grid"),
        pytest.param({**SWEEP_PAYLOAD, "s_values": ["0.4"]}, id="string-in-s-grid"),
        pytest.param({**SWEEP_PAYLOAD, "eps": True}, id="bool-eps"),
        pytest.param({**SWEEP_PAYLOAD, "n_values": [True, 100]}, id="bool-in-n-grid"),
        pytest.param({**SWEEP_PAYLOAD, "k": True}, id="bool-core-order"),
        pytest.param({**SWEEP_PAYLOAD, "trials": True}, id="bool-count"),
    ],
)
def test_sweep_rejects_bad_config(tmp_path, capsys, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    assert run_cli("sweep", "--config", config) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    for flag in ("record_timing", "per_trial"):
        if not isinstance(payload.get(flag, False), bool):
            assert flag in err
    # A value that is not a real number is named by its field.
    for field in ("a_values", "b_values", "s_values"):
        values = payload.get(field)
        if isinstance(values, list) and any(isinstance(x, (bool, str)) for x in values):
            assert f"{field} must be a number" in err
    if isinstance(payload.get("eps"), bool):
        assert "eps must be a number" in err
    # A bool in an integer field is a typo, not the count 1.
    for field in ("n_values", "k", "trials"):
        values = payload.get(field)
        if isinstance(values, bool) or (
            isinstance(values, list) and any(isinstance(x, bool) for x in values)
        ):
            assert f"{field} must be an integer" in err


@pytest.mark.parametrize("text", ["3", "null", "true", '"abc"', "[1, 2]"])
def test_sweep_rejects_config_that_is_not_an_object(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert run_cli("sweep", "--config", config) == 1
    assert "error: config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [0, -2])
@pytest.mark.parametrize("command", ["recover", "match", "witness"])
def test_trial_commands_reject_fewer_than_one_trial(capsys, command, trials):
    code = run_cli(command, "--n", 100, "--a", 9.0, "--b", 1.0, "--s", 0.4, "--trials", trials)
    assert code == 1
    captured = capsys.readouterr()
    assert "error: trials must be at least 1" in captured.err
    assert captured.out == ""


MODEL = ["--a", 9.0, "--b", 1.0, "--s", 0.5]
TRIALS = ["--n", 50, "--k", 1, "--trials", 1]
FLOAT_OPTIONS = {
    "gen": ([*MODEL, "--n", 50, "--eps", 0.01], ["--a", "--b", "--s", "--eps"]),
    "recover": ([*MODEL, *TRIALS, "--eps", 0.01], ["--a", "--b", "--s", "--eps"]),
    "match": ([*MODEL, *TRIALS], ["--a", "--b", "--s"]),
    "witness": ([*MODEL, "--n", 50, "--trials", 1], ["--a", "--b", "--s"]),
    "scaling": (
        [*MODEL, "--k", 1, "--n-list", "50,60,70,80", "--trials", 1], ["--a", "--b", "--s"]
    ),
    "regions": (
        ["--s", 0.5, "--amax", 2.0, "--bmax", 2.0, "--step", 0.5],
        ["--s", "--amax", "--bmax", "--step"],
    ),
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, (_, opts) in FLOAT_OPTIONS.items() for option in opts],
)
def test_float_options_reject_non_finite_values(tmp_path, capsys, command, option, value):
    # Each is one clean "error:" line before any output: no traceback, no
    # header printed first, no instance or metadata written.
    argv = list(FLOAT_OPTIONS[command][0])
    argv[argv.index(option) + 1] = value
    if command == "gen":
        argv += ["--out", tmp_path / "inst"]
    assert run_cli(command, *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "inst").exists()


def test_scaling_prints_fits_and_writes_row(tmp_path, capsys):
    out = tmp_path / "scaling.csv"
    assert run_cli(
        "scaling", "--a", 6.0, "--b", 2.0, "--s", 0.35, "--K", 3, "--k", 1,
        "--n-list", "200,300,400,500", "--trials", 2, "--seed", 0, "--out", out,
    ) == 0
    text = capsys.readouterr().out
    assert "fitted F12 exponent:" in text
    assert "theory 0.51" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("a,b,s,K,k,trials,points_used,fitted_F12")
    assert len(lines) == 2


# The full stdout and --out file of ``csbm scaling`` at K = 3 and K = 2,
# recorded before the fits became their CSV rows.  K = 2 has no
# F12capF13 lines.
SCALING_STDOUT = {
    3: (
        "F12 means: 200:9.00 300:27.50 400:21.50 500:25.00\n"
        "F12capF13 means: 200:3.00 300:4.50 400:2.00 500:3.50\n"
        "Rstar means: 200:3.00 300:4.50 400:2.00 500:3.50\n"
        "fitted F12 exponent: 1.0153627696517404 (theory 0.51)\n"
        "fitted F12capF13 exponent: -0.112991589836843 (theory 0.19150000000000023)\n"
        "fitted Rstar exponent: -0.112991589836843 (theory 0.19150000000000023)\n"
    ),
    2: (
        "F12 means: 200:15.50 300:16.50 400:24.00 500:25.00\n"
        "Rstar means: 200:15.50 300:16.50 400:24.00 500:25.00\n"
        "fitted F12 exponent: 0.5833948398007934 (theory 0.51)\n"
        "fitted Rstar exponent: 0.5833948398007934 (theory 0.51)\n"
    ),
}
SCALING_OUT = {
    3: "6.0,2.0,0.35,3,1,2,4,1.0153627696517404,0.51,-0.112991589836843,"
    "0.19150000000000023,-0.112991589836843,0.19150000000000023\n",
    2: "6.0,2.0,0.35,2,1,2,4,0.5833948398007934,0.51,,,0.5833948398007934,0.51\n",
}


@pytest.mark.parametrize("K", [3, 2])
def test_scaling_stdout_and_row_are_pinned(tmp_path, capsys, K):
    argv = [
        "scaling", "--a", 6, "--b", 2, "--s", 0.35, "--k", 1, "--K", K,
        "--n-list", "200,300,400,500", "--trials", 2, "--seed", 0,
    ]
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == SCALING_STDOUT[K]
    out = tmp_path / "scaling.csv"
    assert run_cli(*argv, "--out", out) == 0
    assert capsys.readouterr().out == SCALING_STDOUT[K] + f"wrote scaling row to {out}\n"
    assert out.read_text() == ",".join(SCALING_COLUMNS) + "\n" + SCALING_OUT[K]
    base = Params(n=200, a=6.0, b=2.0, s=0.35, K=K, k=1)
    row = scaling_experiment(base, [200, 300, 400, 500], 2, 0)
    assert out.read_text() == format_csv(SCALING_COLUMNS, [row])


def test_recover_refuses_a_size_over_the_union_ceiling(capsys, no_draws):
    code = run_cli("recover", "--n", 10**8, "--a", 9, "--b", 1, "--s", 0.4, "--trials", 1)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n=100000000 expects") and "union edges" in err


def test_scaling_rejects_short_n_list(capsys):
    for n_list in ("200,300,400", ","):
        code = run_cli(
            "scaling", "--a", 6.0, "--b", 2.0, "--s", 0.35,
            "--n-list", n_list, "--trials", 1,
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_regions_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "regions.csv"
    assert run_cli(
        "regions", "--s", 0.4, "--amax", 10, "--bmax", 2, "--step", 1,
        "--out", out, "--summary",
    ) == 0
    stdout = capsys.readouterr().out
    assert "wrote 20 region rows" in stdout
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "a,b,region"
    assert len(lines) == 21
    assert "9.0,1.0,DarkBlue" in lines
    assert "Boundary" not in out.read_text()
    counted = sum(
        int(line.rsplit(": ", 1)[1])
        for line in stdout.strip().split("\n")
        if ": " in line
    )
    assert counted == 20


def test_regions_stdout_is_the_csv(capsys):
    # Without --out the summary goes to stderr, so "> regions.csv" keeps a clean CSV.
    assert run_cli(
        "regions", "--s", 0.25, "--amax", 3, "--bmax", 1, "--step", 1, "--summary"
    ) == 0
    captured = capsys.readouterr()
    assert captured.out == regions_csv(region_grid_export(0.25, 3, 1, 1)[0])
    assert captured.err == "Red: 3\n"


def test_regions_refuses_a_grid_over_the_cap(capsys, monkeypatch):
    def classify(*args, **kwargs):
        raise AssertionError("a cell was classified")

    monkeypatch.setattr(harness, "classify_region", classify)
    assert run_cli("regions", "--s", 0.4, "--amax", 1e4, "--bmax", 1e3, "--step", 1) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the grid has 10000000 cells, more than the cap of 1000000\n"
    )
