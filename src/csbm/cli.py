"""Command-line entry points.

Subcommands: ``gen`` writes one sampled instance to a directory; ``recover``,
``match``, and ``witness`` run repeated trials at one parameter point and
print per-trial lines; ``sweep`` drives a JSON-configured grid to CSV;
``scaling`` fits the unmatched-set exponents; ``regions`` rasterises the
phase diagram.  All randomness flows from ``--seed`` through the same
derivation the sweep harness uses, so a CLI trial reproduces the library
call exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .generate import Params, sample_instance
from .graphs import write_edge_list
from .harness import (
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
    scaling_row,
    sweep,
    trial_row,
    trials_csv,
)
from .impossibility import map_failure_witness

__all__ = ["main"]


def _add_model_arguments(
    parser: argparse.ArgumentParser, core: bool = True, init: bool = True
) -> None:
    """The model options, plus ``--k`` with ``core`` and ``--eps`` with ``init``."""
    parser.add_argument("--n", type=int, required=True, help="vertex count")
    parser.add_argument("--a", type=float, required=True, help="intra-community coefficient")
    parser.add_argument("--b", type=float, required=True, help="inter-community coefficient")
    parser.add_argument("--s", type=float, required=True, help="edge retention probability")
    parser.add_argument(
        "--K", type=int, default=Params.K, help="number of children (default %(default)s)"
    )
    if core:
        parser.add_argument(
            "--k", type=int, default=Params.k, help="core order (default %(default)s)"
        )
    if init:
        parser.add_argument(
            "--eps", type=float, default=Params.eps,
            help="init accuracy target (default %(default)s)",
        )


def _params_from(args: argparse.Namespace) -> Params:
    """Params from the model options; ones the subcommand lacks keep Params' defaults."""
    return Params(
        **{f.name: getattr(args, f.name) for f in fields(Params) if hasattr(args, f.name)}
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    params = _params_from(args)
    inst = sample_instance(params, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(inst.parent, out / "parent.edges")
    for j, child in enumerate(inst.children, start=1):
        write_edge_list(child, out / f"child_{j}.edges")
    (out / "sigma.txt").write_text(
        "\n".join("+1" if v > 0 else "-1" for v in inst.sigma_star) + "\n"
    )
    for j in range(1, params.K):
        (out / f"pi_{j + 1}.txt").write_text(
            "\n".join(str(int(v)) for v in inst.pi_star[j]) + "\n"
        )
    meta = {
        **asdict(params),
        "seed": args.seed,
        "parent_edges": inst.parent.edge_count,
        "child_edges": [c.edge_count for c in inst.children],
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote instance to {out} ({inst.parent.edge_count} union edges)")
    return 0


def _append_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    """Append ``rows``, with the header only when the file is new or empty.

    A non-empty file must start with the header line and end in a newline;
    any other file is refused and left untouched.
    """
    header, body = format_csv(columns, rows).split("\n", 1)
    old = path.read_text() if path.exists() else ""
    if old and (old.split("\n", 1)[0] != header or not old.endswith("\n")):
        raise ValueError(
            f"cannot append to {path}: its first line is not the {columns[0]},... header "
            "or it does not end in a newline"
        )
    with path.open("a") as fh:
        fh.write(body if old else f"{header}\n{body}")


def _cmd_recover(args: argparse.Namespace) -> int:
    params = _params_from(args)
    seeds = cell_seeds(params, args.trials, args.seed)
    rows = []
    print("trial overlap success bad_vertices degraded ms")
    for t, seed in enumerate(seeds):
        result = run_trial(params, seed, experiments=("recover",))
        bad = "-" if result.bad_vertex_count is None else result.bad_vertex_count
        print(
            f"{t} {result.overlap:.6f} {int(result.recovery_success)} "
            f"{bad} {int(result.degraded)} {result.wall_ms:.1f}"
        )
        rows.append(trial_row(result, t, record_timing=args.timing))
    if args.csv:
        _append_csv(Path(args.csv), TRIAL_COLUMNS, rows)
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if params.K < 2:
        raise ValueError("matching needs at least two children (K >= 2)")
    pairs = [(i, j) for i in range(params.K) for j in range(i + 1, params.K)]
    pair_names = [f"M{i + 1}{j + 1}" for i, j in pairs]
    records = []
    for t, seed in enumerate(cell_seeds(params, args.trials, args.seed)):
        result = run_trial(params, seed, experiments=("match",))
        records.append(
            {
                "trial": t,
                **{
                    name: round(1.0 - result.unmatched_sizes[pair] / params.n, 6)
                    for name, pair in zip(pair_names, pairs)
                },
                "bad_vertices": result.bad_vertex_count,
                "estimator_success": result.matching_success,
            }
        )
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    header = ["trial", *pair_names, "bad_vertices", "estimator_success"]
    print(" ".join(header))
    for rec in records:
        print(" ".join(str(rec[h]) for h in header))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    params = _params_from(args)
    if params.K < 2:
        raise ValueError("the witness needs at least two children (K >= 2)")
    seeds = cell_seeds(params, args.trials, args.seed)
    print("trial R_star S_star S_plus S_minus witness")
    for t, seed in enumerate(seeds):
        inst = sample_instance(params, seed)
        report = map_failure_witness(inst)
        plus = int(np.count_nonzero(inst.sigma_star[report.s_star] > 0))
        minus = len(report.s_star) - plus
        verdict = "-" if report.witness_found is None else int(report.witness_found)
        print(
            f"{t} {len(report.r_star)} {len(report.s_star)} {plus} {minus} {verdict}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig.from_json(Path(args.config).read_text())
    result = sweep(cfg)
    cells_text = cells_csv(result)
    if args.out:
        Path(args.out).write_text(cells_text)
        print(f"wrote {len(result.cell_rows)} cell rows to {args.out}")
    else:
        sys.stdout.write(cells_text)
    if args.per_trial_out:
        if not cfg.per_trial:
            raise ValueError("config must set per_trial=true to export per-trial rows")
        Path(args.per_trial_out).write_text(trials_csv(result))
        print(f"wrote {len(result.trial_rows)} trial rows to {args.per_trial_out}")
    if args.scaling_out:
        if "scaling" not in cfg.experiments:
            raise ValueError("config must include the scaling experiment")
        Path(args.scaling_out).write_text(scaling_csv(result))
        print(f"wrote {len(result.scaling_rows)} scaling rows to {args.scaling_out}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    if not n_list:
        raise ValueError("scaling needs at least four n values")
    base = Params(
        n=n_list[0], a=args.a, b=args.b, s=args.s, K=args.K, k=args.k
    )
    fit = scaling_experiment(base, n_list, args.trials, args.seed)
    for name, ns, means in (
        ("F12", fit.n_values, fit.mean_unmatched),
        ("F12capF13", fit.n_values, fit.mean_intersection),
        ("Rstar", fit.n_values, fit.mean_singletons),
    ):
        if means is None:
            continue
        print(f"{name} means: " + " ".join(f"{n}:{m:.2f}" for n, m in zip(ns, means)))
    print(f"fitted F12 exponent: {fit.fitted_unmatched} (theory {fit.theory_unmatched})")
    if fit.fitted_intersection is not None or fit.theory_intersection is not None:
        print(
            f"fitted F12capF13 exponent: {fit.fitted_intersection} "
            f"(theory {fit.theory_intersection})"
        )
    print(f"fitted Rstar exponent: {fit.fitted_singletons} (theory {fit.theory_singletons})")
    if args.out:
        Path(args.out).write_text(format_csv(SCALING_COLUMNS, [scaling_row(base, fit)]))
        print(f"wrote scaling row to {args.out}")
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    rows, counts = region_grid_export(args.s, args.amax, args.bmax, args.step)
    text = regions_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(rows)} region rows to {args.out}")
    else:
        sys.stdout.write(text)
    if args.summary:
        for label, count in counts.items():
            if count:
                print(f"{label}: {count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csbm",
        description="Correlated block-model experiments: generation, matching, recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen", help="sample one instance and write it (union graph as parent.edges) to a directory"
    )
    _add_model_arguments(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_gen)

    recover = sub.add_parser("recover", help="run recovery trials at one parameter point")
    _add_model_arguments(recover)
    recover.add_argument("--trials", type=int, default=10)
    recover.add_argument("--seed", type=int, default=0)
    recover.add_argument("--csv", help="append per-trial rows to this CSV")
    recover.add_argument(
        "--timing", action="store_true", help="fill the wall_ms column in --csv output"
    )
    recover.set_defaults(func=_cmd_recover)

    match = sub.add_parser("match", help="run matching trials at one parameter point")
    _add_model_arguments(match, init=False)
    match.add_argument("--trials", type=int, default=10)
    match.add_argument("--seed", type=int, default=0)
    match.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    match.set_defaults(func=_cmd_match)

    witness = sub.add_parser("witness", help="singleton sets and the failure witness")
    _add_model_arguments(witness, core=False, init=False)
    witness.add_argument("--trials", type=int, default=10)
    witness.add_argument("--seed", type=int, default=0)
    witness.set_defaults(func=_cmd_witness)

    sweep_cmd = sub.add_parser("sweep", help="run a JSON-configured parameter sweep")
    sweep_cmd.add_argument("--config", required=True, help="path to a JSON sweep config")
    sweep_cmd.add_argument("--out", help="write the aggregated CSV here (default stdout)")
    sweep_cmd.add_argument("--per-trial-out", help="write per-trial rows here")
    sweep_cmd.add_argument("--scaling-out", help="write scaling-fit rows here")
    sweep_cmd.set_defaults(func=_cmd_sweep)

    scaling = sub.add_parser("scaling", help="fit unmatched-set scaling exponents")
    scaling.add_argument("--a", type=float, required=True)
    scaling.add_argument("--b", type=float, required=True)
    scaling.add_argument("--s", type=float, required=True)
    scaling.add_argument("--K", type=int, default=Params.K)
    scaling.add_argument("--k", type=int, default=Params.k)
    scaling.add_argument(
        "--n-list", required=True, help="comma-separated ascending sizes, at least four"
    )
    scaling.add_argument("--trials", type=int, default=20)
    scaling.add_argument("--seed", type=int, default=0)
    scaling.add_argument("--out", help="write one CSV row of fits here")
    scaling.set_defaults(func=_cmd_scaling)

    regions = sub.add_parser("regions", help="rasterise the phase diagram at fixed s")
    regions.add_argument("--s", type=float, required=True)
    regions.add_argument("--amax", type=float, required=True)
    regions.add_argument("--bmax", type=float, required=True)
    regions.add_argument("--step", type=float, required=True)
    regions.add_argument("--out", help="write the CSV here (default stdout)")
    regions.add_argument("--summary", action="store_true", help="print per-region counts")
    regions.set_defaults(func=_cmd_regions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
