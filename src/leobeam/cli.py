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

import numpy as np

from . import __version__
from .baselines import design_nonrobust, design_tdma, design_zfbf
from .errors import ConfigError, ConvergenceError, InfeasibleDesignError, LeobeamError
from .evaluator import SWEEP_AXES, evaluate, sweep, write_eval_csv, write_sweep_csv
from .network import sinr, write_sinr_report
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
            with open(path) as fh:
                user_cfg = json.load(fh)
        except json.JSONDecodeError as ex:
            raise ConfigError(f"{path}: line {ex.lineno} column {ex.colno}: {ex.msg}")
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
            cfg[block].update(value)
    return cfg


def scenario_from_config(cfg: dict) -> NetworkConfig:
    fields = {f.name for f in dataclasses.fields(NetworkConfig)}
    block = dict(cfg["scenario"])
    unknown = set(block) - fields
    if unknown:
        raise ConfigError(
            f"unknown scenario field(s) {sorted(unknown)}; valid fields: {sorted(fields)}"
        )
    if "phase_cov" in block and block["phase_cov"] is not None:
        block["phase_cov"] = np.asarray(block["phase_cov"], dtype=float)
    if "alpha_explicit" in block and block["alpha_explicit"] is not None:
        block["alpha_policy"] = block.get("alpha_policy", "explicit")
    net = NetworkConfig(**block)
    net.validate()
    return net


def penalty_from_config(cfg: dict) -> PenaltyConfig:
    block = dict(cfg["design"].get("penalty", {}))
    fields = {f.name for f in dataclasses.fields(PenaltyConfig)} - {"solver"}
    unknown = set(block) - fields
    if unknown:
        raise ConfigError(f"unknown penalty field(s) {sorted(unknown)}")
    pc = PenaltyConfig(**block)
    if pc.rho0 <= 0 or pc.growth <= 1 or pc.rank_gap_tol <= 0 or pc.max_iters <= 0:
        raise ConfigError("penalty config must satisfy rho0>0, growth>1, tol>0, iters>0")
    return pc


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


def _uniform_or_join(values):
    vals = [float(v) for v in values]
    if all(v == vals[0] for v in vals):
        return repr(vals[0])
    return ";".join(repr(v) for v in vals)


def write_design_csv(design, scenario, report, path):
    """Per-design summary row; the outage design reports its outage target in
    place of eta and adds its empirical outage."""
    users = scenario.users
    outage = design.algorithm == "outage"
    header = ["gamma_db", "sigma_deg", "p_outage" if outage else "eta"]
    header += ["total_power_w", "iters", "max_rank_gap"]
    row = [
        _uniform_or_join(10.0 * np.log10(np.asarray([u.gamma_lin for u in users]))),
        _uniform_or_join([np.rad2deg(u.sigma_rad) for u in users]),
        _uniform_or_join([u.outage_prob if outage else u.eta for u in users]),
        repr(design.total_power),
        design.iterations,
        repr(design.max_rank_gap),
    ]
    if outage:
        header.append("empirical_outage_max")
        row.append(repr(report.max_outage) if report is not None else "")
    header.append("status")
    row.append(design.status)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerow(row)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_manifest(path, command, cfg, extra=None):
    doc = {
        "tool": "leobeam",
        "version": __version__,
        "command": command,
        "config": _json_ready(cfg),
    }
    if extra:
        doc.update(_json_ready(extra))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None) is not None:
        cfg["eval"]["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        cfg["eval"]["samples"] = args.samples
    if getattr(args, "algorithm", None) is not None:
        cfg["design"]["algorithm"] = args.algorithm
    if getattr(args, "out", None) is not None:
        cfg["output"]["dir"] = args.out


def _prepare(args):
    """Shared command preamble: (cfg, scenario, penalty, outdir, eval_kw).

    Loads the config, applies the command-line overrides, builds the
    scenario and penalty config and creates the output directory;
    ``eval_kw`` holds the Monte-Carlo ``samples`` and ``seed``.
    """
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    net = scenario_from_config(cfg)
    penalty = penalty_from_config(cfg)
    outdir = _ensure_outdir(cfg)
    scenario = build_scenario(net)
    eval_kw = {"samples": int(cfg["eval"]["samples"]), "seed": int(cfg["eval"]["seed"])}
    return cfg, scenario, penalty, outdir, eval_kw


def cmd_design(args) -> int:
    cfg, scenario, penalty, outdir, eval_kw = _prepare(args)
    design = design_fn(cfg["design"].get("algorithm", "avg"), penalty)(scenario)
    report = evaluate(design, scenario, **eval_kw)
    write_design_csv(design, scenario, report, outdir / "design.csv")
    write_eval_csv(report, outdir / "eval.csv")
    if design.algorithm != "tdma":
        entries = [sinr(u, u.channel.estimated, design, scenario) for u in scenario.users]
        write_sinr_report(entries, outdir / "sinr.csv")
    write_channels(scenario, outdir / "channels.txt")
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
            "outputs": ["design.csv", "eval.csv", "sinr.csv", "channels.txt"],
        },
    )
    print(
        f"{design.algorithm}: status {design.status}, total power "
        f"{design.total_power:.6g} W, {design.iterations} penalty iterations, "
        f"max outage {report.max_outage:.4f}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {args.axis!r}; expected one of {SWEEP_AXES}")
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"could not parse grid {args.grid!r} as comma-separated floats")
    if not grid:
        raise ConfigError("sweep grid is empty")
    cfg, scenario, penalty, outdir, eval_kw = _prepare(args)
    algorithm = cfg["design"].get("algorithm", "avg")
    rows = sweep(scenario, args.axis, grid, design_fn(algorithm, penalty), **eval_kw)
    write_sweep_csv(rows, outdir / "sweep.csv")
    write_manifest(
        outdir / "manifest.json",
        "sweep",
        cfg,
        {"axis": args.axis, "grid": grid, "outputs": ["sweep.csv"]},
    )
    for r in rows:
        print(f"{args.axis}={r.value:g}: {r.status} power={r.total_power:.6g}")
    statuses = {r.status for r in rows}
    if "NONCONVERGED" in statuses:
        return EXIT_NONCONVERGED
    return EXIT_OK if statuses == {"OPTIMAL"} else EXIT_INFEASIBLE


def cmd_compare(args) -> int:
    cfg, scenario, penalty, outdir, eval_kw = _prepare(args)
    rows = []
    for algorithm in ALGORITHMS:
        try:
            design = design_fn(algorithm, penalty)(scenario)
            report = evaluate(design, scenario, **eval_kw)
            rows.append(
                [
                    algorithm,
                    "OPTIMAL",
                    repr(design.total_power),
                    design.iterations,
                    repr(design.max_rank_gap),
                    repr(report.max_outage),
                    repr(report.min_mean_over_target),
                ]
            )
        except (InfeasibleDesignError, ConvergenceError) as ex:
            rows.append([algorithm, "FAILED", "", "", "", "", str(ex)])
    with open(outdir / "compare.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "algorithm",
                "status",
                "total_power_w",
                "iters",
                "max_rank_gap",
                "max_outage",
                "min_mean_over_target",
            ]
        )
        writer.writerows(rows)
    write_manifest(outdir / "manifest.json", "compare", cfg, {"outputs": ["compare.csv"]})
    for r in rows:
        print(" ".join(str(v) for v in r[:3]))
    return EXIT_OK


def cmd_selftest(args) -> int:
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as ex:  # report, do not abort the suite
            checks.append((name, False, f"{type(ex).__name__}: {ex}"))

    def bessel_spots():
        from .numerics import bessel_j

        assert abs(bessel_j(1, 2.07123) - 0.5711226260848378) < 1e-10
        assert bessel_j(3, 0.0) == 0.0

    def beam_limits():
        from .channel import BeamPattern, beam_gain

        pat = BeamPattern(50.0, np.deg2rad(0.4))
        assert abs(beam_gain(pat, 0.0) - 50.0) < 1e-9 * 50.0
        half = beam_gain(pat, np.deg2rad(0.4)) / 50.0
        assert abs(half - 0.5) < 0.05 * 0.5

    def solver_trio():
        from .conic import ConeProgramBuilder, solve

        bld = ConeProgramBuilder()
        v = bld.add_soc(3)
        bld.add_eq([(v, {1: 1.0})], 3.0)
        bld.add_eq([(v, {2: 1.0})], 4.0)
        bld.set_objective([(v, {0: 1.0})])
        s = solve(bld.build())
        assert s.status == "OPTIMAL" and abs(s.obj_primal - 5.0) < 1e-6

    def tiny_design():
        from .robust_avg import design_avg_sinr
        from .scenario import NetworkConfig, build_scenario

        cfg = NetworkConfig(feeds=4, beams=1, users_per_region=1, seed=5)
        sc = build_scenario(cfg)
        d = design_avg_sinr(sc)
        assert d.status == "OPTIMAL" and d.total_power > 0

    def phasor_matrix():
        from .channel import PhaseErrorModel, expected_phase_matrix

        q = expected_phase_matrix(PhaseErrorModel(np.deg2rad(5.0)), 6)
        assert abs(q[0, 1] - np.exp(-np.deg2rad(5.0) ** 2)) < 1e-12
        assert np.linalg.eigvalsh(q).min() > 0

    check("bessel spot values", bessel_spots)
    check("beam pattern limits", beam_limits)
    check("cone solver canned problems", solver_trio)
    check("single-terminal design", tiny_design)
    check("expected phasor matrix", phasor_matrix)

    ok = True
    for name, passed, detail in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
        ok &= passed
    return EXIT_OK if ok else 1


def _ensure_outdir(cfg):
    from pathlib import Path

    outdir = Path(cfg["output"]["dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


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

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    p.set_defaults(fn=cmd_selftest)
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
