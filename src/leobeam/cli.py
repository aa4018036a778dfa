"""Experiment runner: config parsing, design dispatch, CSV artifacts.

One JSON config document describes the scenario, the design, and the
evaluation; subcommands run a single design, a one-axis sweep, or a
robust-vs-baselines comparison, and write CSV files plus a run manifest that
(together with the seed) fully determines every output byte.
"""

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import design_nonrobust, design_tdma, design_zfbf
from .errors import ConfigError, ConvergenceError, InfeasibleDesignError, LeobeamError
from .evaluator import SWEEP_AXES, evaluate, run_point, sweep
from .network import sinr
from .robust_avg import PenaltyConfig, design_avg_sinr
from .robust_outage import design_outage
from .scenario import NetworkConfig, build_scenario, write_channels

ALGORITHMS = ("avg", "outage", "nonrobust", "zfbf", "tdma")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGED = 4


def default_config() -> dict:
    """Effective defaults: the small reference scenario."""
    return {
        "scenario": {},
        "design": {"algorithm": "avg", "penalty": {}},
        "eval": {"samples": 10000, "seed": 1},
        "output": {"dir": "out"},
    }


def load_config(path) -> dict:
    cfg = default_config()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user_cfg = json.load(fh)
        except json.JSONDecodeError as ex:
            raise ConfigError(f"{path}: line {ex.lineno} column {ex.colno}: {ex.msg}")
        except (OSError, UnicodeDecodeError) as ex:
            raise ConfigError(f"{path}: cannot read: {ex}")
        if not isinstance(user_cfg, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        for block, value in user_cfg.items():
            if block not in cfg:
                raise ConfigError(
                    f"{path}: unknown config block {block!r}; "
                    f"expected one of {sorted(cfg)}"
                )
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: block {block!r} must be an object")
            # scenario fields are checked against NetworkConfig's own
            unknown = set(value) - set(cfg[block]) if block != "scenario" else set()
            if unknown:
                raise ConfigError(
                    f"{path}: unknown {block} key(s) {sorted(unknown)}; "
                    f"valid keys: {sorted(cfg[block])}"
                )
            cfg[block].update(value)
    return cfg


def scenario_from_config(cfg: dict) -> NetworkConfig:
    """The scenario block as a NetworkConfig, for ``build_scenario`` to validate;
    integral counts and seed (12.0) become ints in ``cfg``, as the manifest records."""
    fields = {f.name for f in dataclasses.fields(NetworkConfig)}
    block = cfg["scenario"]
    unknown = set(block) - fields
    if unknown:
        raise ConfigError(
            f"unknown scenario field(s) {sorted(unknown)}; valid fields: {sorted(fields)}"
        )
    for key in ("feeds", "beams", "seed", "users_per_region"):
        if key in block:
            name, value = f"scenario.{key}", block[key]
            if isinstance(value, list):
                block[key] = [_config_int(v, name) for v in value]
            else:
                block[key] = _config_int(value, name)
    block = dict(block)
    if "alpha_explicit" in block and block["alpha_explicit"] is not None:
        block["alpha_policy"] = block.get("alpha_policy", "explicit")
    return NetworkConfig(**block)


def penalty_from_config(cfg: dict) -> PenaltyConfig:
    """The design.penalty block as a PenaltyConfig; an integral max_iters
    (30.0) becomes an int in ``cfg``, as the manifest records."""
    block = cfg["design"].get("penalty", {})
    if not isinstance(block, dict):
        raise ConfigError("design.penalty must be an object")
    fields = {f.name for f in dataclasses.fields(PenaltyConfig)} - {"solver"}
    unknown = set(block) - fields
    if unknown:
        raise ConfigError(f"unknown penalty field(s) {sorted(unknown)}")
    if "max_iters" in block:
        block["max_iters"] = _config_int(block["max_iters"], "penalty.max_iters")
    return PenaltyConfig(**block)


def design_fn(algorithm: str, penalty: PenaltyConfig):
    if algorithm == "avg":
        return lambda sc: design_avg_sinr(sc, penalty)
    if algorithm == "outage":
        return lambda sc: design_outage(sc, penalty)
    if algorithm == "nonrobust":
        return lambda sc: design_nonrobust(sc, penalty)
    if algorithm == "zfbf":
        return lambda sc: design_zfbf(sc)
    if algorithm == "tdma":
        return lambda sc: design_tdma(sc)
    raise ConfigError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


# Trailing columns of sweep.csv and compare.csv: the PointResult fields.
RESULT_COLUMNS = ["status", "total_power_w", "iters", "max_rank_gap", "max_outage"]
RESULT_COLUMNS += ["min_mean_over_target", "detail"]


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # round-trip digits; numpy 2 reprs np.float64(...)
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    return value


def write_csv(path, header, rows):
    """Write one CSV artifact, creating its directory.  Floats are written as
    their shortest round-trip digits and list cells semicolon-joined."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _uniform_or_list(value):
    """A config field's one value, or its per-terminal list if they differ."""
    vals = [float(v) for v in np.ravel(value)]
    return vals[0] if all(v == vals[0] for v in vals) else vals


def write_design_csv(design, scenario, report, path):
    """Per-design summary row, targets as configured; the outage design
    reports its outage target in place of eta and adds its empirical outage."""
    config = scenario.config
    outage = design.algorithm == "outage"
    header = ["gamma_db", "sigma_deg", "p_outage" if outage else "eta"]
    header += ["total_power_w", "iters", "max_rank_gap"]
    row = [
        _uniform_or_list(config.gamma_db),
        float(config.phase_sigma_deg),
        _uniform_or_list(config.outage_prob if outage else config.sic_eta),
        design.total_power,
        design.iterations,
        design.max_rank_gap,
    ]
    if outage:
        header.append("empirical_outage_max")
        row.append(report.max_outage)
    header.append("status")
    row.append(design.status)
    write_csv(path, header, [row])


def write_eval_csv(report, path):
    """CSV rows (m, n, mean_sinr_db, outage, se_outage, samples, seed)."""
    header = ["m", "n", "mean_sinr_db", "outage", "se_outage", "samples", "seed"]
    cols = (report.regions, report.ranks, report.mean_sinr_db, report.outage, report.se_outage)
    write_csv(path, header, ([*r, report.samples, report.seed] for r in zip(*cols)))


def write_sweep_csv(rows, path):
    write_csv(path, ["axis", "value", *RESULT_COLUMNS], map(dataclasses.astuple, rows))


def write_sinr_report(entries, path):
    """CSV rows (region, rank, gamma_linear, desired, intra, residual, inter, noise)."""
    header = ["m", "n", "gamma_linear", "desired", "intra", "residual", "inter", "noise"]
    write_csv(path, header, map(dataclasses.astuple, entries))


def write_manifest(path, command, cfg, extra=None):
    doc = {
        "tool": "leobeam",
        "version": __version__,
        "command": command,
        "config": cfg,
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _config_int(value, name: str) -> int:
    """An integral config number as int: JSON 1e4 gives 10000, while 2.7,
    "many" and true are config errors rather than silently truncated."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _prepare(args):
    """Shared command preamble: (cfg, scenario, penalty, outdir, eval_kw).

    Loads the config, applies the command-line overrides, builds the scenario
    and penalty config; ``eval_kw`` holds the Monte-Carlo ``samples`` and
    ``seed``.  The first CSV written creates ``outdir``, so a config error,
    a bad sweep grid value included, leaves none.
    """
    cfg = load_config(args.config)
    for value, block, key in (
        (args.seed, "eval", "seed"),
        (args.samples, "eval", "samples"),
        (args.algorithm, "design", "algorithm"),
        (args.out, "output", "dir"),
    ):
        if value is not None:
            cfg[block][key] = value
    if not isinstance(cfg["output"]["dir"], str):
        raise ConfigError(f"output.dir must be a string, got {cfg['output']['dir']!r}")
    scenario = build_scenario(scenario_from_config(cfg))
    penalty = penalty_from_config(cfg)
    eval_kw = {key: _config_int(cfg["eval"][key], f"eval.{key}") for key in ("samples", "seed")}
    if eval_kw["samples"] < 1:
        raise ConfigError("eval.samples must be at least 1")
    if eval_kw["seed"] < 0:
        raise ConfigError("eval.seed must be nonnegative")
    cfg["eval"].update(eval_kw)  # the manifest records the values run
    return cfg, scenario, penalty, Path(cfg["output"]["dir"]), eval_kw


def cmd_design(args) -> int:
    cfg, scenario, penalty, outdir, eval_kw = _prepare(args)
    design = design_fn(cfg["design"].get("algorithm", "avg"), penalty)(scenario)
    report = evaluate(design, scenario, **eval_kw)
    write_design_csv(design, scenario, report, outdir / "design.csv")
    write_eval_csv(report, outdir / "eval.csv")
    outputs = ["design.csv", "eval.csv"]
    if design.algorithm != "tdma":
        entries = [sinr(u, u.channel.estimated, design, scenario) for u in scenario.users]
        write_sinr_report(entries, outdir / "sinr.csv")
        outputs.append("sinr.csv")
    write_channels(scenario, outdir / "channels.txt")
    outputs.append("channels.txt")
    write_manifest(
        outdir / "manifest.json",
        "design",
        cfg,
        {
            "algorithm": design.algorithm,
            "status": design.status,
            "total_power_w": design.total_power,
            "iterations": design.iterations,
            "max_rank_gap": design.max_rank_gap,
            "outputs": outputs,
        },
    )
    print(
        f"{design.algorithm}: status {design.status}, total power "
        f"{design.total_power:.6g} W, {design.iterations} penalty iterations, "
        f"max outage {report.max_outage:.4f}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, scenario, penalty, outdir, eval_kw = _prepare(args)
    algorithm = cfg["design"].get("algorithm", "avg")
    grid = [v for v in args.grid.split(",") if v.strip()]
    rows = sweep(scenario, args.axis, grid, design_fn(algorithm, penalty), **eval_kw)
    write_sweep_csv(rows, outdir / "sweep.csv")
    write_manifest(
        outdir / "manifest.json",
        "sweep",
        cfg,
        {"axis": args.axis, "grid": [r.value for r in rows], "outputs": ["sweep.csv"]},
    )
    for r in rows:
        print(f"{args.axis}={r.value:g}: {r.status} power={r.total_power:.6g}")
    statuses = {r.status for r in rows}
    if "NONCONVERGED" in statuses:
        return EXIT_NONCONVERGED
    return EXIT_OK if statuses == {"OPTIMAL"} else EXIT_INFEASIBLE


def cmd_compare(args) -> int:
    cfg, scenario, penalty, outdir, eval_kw = _prepare(args)
    results = [(a, run_point(scenario, design_fn(a, penalty), **eval_kw)) for a in ALGORITHMS]
    write_csv(
        outdir / "compare.csv",
        ["algorithm", *RESULT_COLUMNS],
        ([a, *dataclasses.astuple(r)] for a, r in results),
    )
    write_manifest(outdir / "manifest.json", "compare", cfg, {"outputs": ["compare.csv"]})
    for a, r in results:
        print(a, r.status, r.total_power)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leobeam",
        description="Robust multi-beam satellite NOMA beamforming designs and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config (defaults used if omitted)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="Monte-Carlo seed (overrides config)")
        p.add_argument("--samples", type=int, help="Monte-Carlo samples (overrides config)")
        p.add_argument(
            "--algorithm", choices=ALGORITHMS, help="design algorithm (overrides config)"
        )

    p = sub.add_parser("design", help="run one design + evaluation")
    common(p)
    p.set_defaults(fn=cmd_design)

    p = sub.add_parser("sweep", help="re-design along one parameter axis")
    common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--grid", required=True, help="comma-separated axis values")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("compare", help="robust designs vs baselines on one instance")
    common(p)
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleDesignError as ex:
        print(f"infeasible design ({ex.family} constraints): {ex}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConvergenceError, LeobeamError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
