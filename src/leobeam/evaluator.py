"""Seeded Monte-Carlo validation of finished beam designs.

The estimated channels and rain draws stay frozen inside an evaluation; only
the phase error is resampled, matching the uncertainty model the designs are
robust against.  Every estimate carries a normal-approximation standard error
and is bit-reproducible from (design, scenario, samples, seed).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, LeobeamError
from .network import BeamDesign, sinr_samples


@dataclass
class EvalReport:
    regions: list
    ranks: list
    mean_sinr: np.ndarray  # linear, per terminal
    se_mean: np.ndarray
    outage: np.ndarray  # Pr{SINR < gamma target}, per terminal
    se_outage: np.ndarray
    gamma_target: np.ndarray
    samples: int
    seed: int
    total_power: float
    per_feed: np.ndarray

    @property
    def mean_sinr_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.mean_sinr)

    @property
    def max_outage(self) -> float:
        return float(self.outage.max())

    @property
    def min_mean_over_target(self) -> float:
        return float((self.mean_sinr / self.gamma_target).min())


def _phase_samples(user, feeds, samples, rng):
    nu = rng.standard_normal((samples, feeds))
    fac = user.phase_model.factor(feeds)
    if fac is not None:
        nu = nu @ fac.T
    return user.sigma_rad * nu


def evaluate(design: BeamDesign, scenario, samples: int = 10000, seed: int = 0):
    """Empirical per-terminal mean SINR and outage under phase-error sampling."""
    if samples < 1:
        raise LeobeamError("need at least one Monte-Carlo sample")
    users = scenario.users
    streams = np.random.SeedSequence(seed).spawn(len(users))
    k = scenario.feeds
    means, se_m, outs, se_o, targets = [], [], [], [], []
    tdma = design.algorithm == "tdma"
    for idx, user in enumerate(users):
        rng = np.random.default_rng(streams[idx])
        errs = _phase_samples(user, k, samples, rng)
        h = user.channel.estimated[None, :] * np.exp(1j * errs)
        if tdma:
            # Each terminal is served alone in its slot by its own column.
            w = design.beams[:, idx]
            gammas = np.abs(h.conj() @ w) ** 2 / design.noise_power
            target = design.metadata["slot_gamma_lin"][idx]
        else:
            gammas = sinr_samples(user, h, design, scenario)
            target = user.gamma_lin
        mean = float(gammas.mean())
        out = float(np.mean(gammas < target))
        means.append(mean)
        se_m.append(float(gammas.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0)
        outs.append(out)
        se_o.append(float(np.sqrt(out * (1.0 - out) / samples)))
        targets.append(target)
    return EvalReport(
        regions=[u.region for u in users],
        ranks=[u.rank for u in users],
        mean_sinr=np.array(means),
        se_mean=np.array(se_m),
        outage=np.array(outs),
        se_outage=np.array(se_o),
        gamma_target=np.array(targets),
        samples=samples,
        seed=seed,
        total_power=design.total_power,
        per_feed=design.per_feed,
    )


def write_eval_csv(report: EvalReport, path):
    """CSV rows (m, n, mean_sinr_db, outage, se_outage, samples, seed)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "mean_sinr_db", "outage", "se_outage", "samples", "seed"])
        for i in range(len(report.regions)):
            writer.writerow(
                [
                    report.regions[i],
                    report.ranks[i],
                    repr(float(report.mean_sinr_db[i])),
                    repr(float(report.outage[i])),
                    repr(float(report.se_outage[i])),
                    report.samples,
                    report.seed,
                ]
            )


SWEEP_AXES = ("gamma", "sigma", "eta", "p")


@dataclass
class SweepRow:
    axis: str
    value: float
    status: str
    total_power: float = float("nan")
    iterations: int = 0
    max_rank_gap: float = float("nan")
    max_outage: float = float("nan")
    min_mean_over_target: float = float("nan")
    detail: str = ""


def apply_axis(scenario, axis: str, value: float):
    if axis == "gamma":
        return scenario.with_gamma_db(value)
    if axis == "sigma":
        return scenario.with_sigma_deg(value)
    if axis == "eta":
        return scenario.with_eta(value)
    if axis == "p":
        return scenario.with_outage(value)
    raise LeobeamError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(scenario, axis: str, grid, design_fn, samples: int = 10000, seed: int = 0):
    """Re-design and re-evaluate along one axis; failed points are marked
    NONCONVERGED (ConvergenceError) or INFEASIBLE (any other LeobeamError)
    and the sweep continues."""
    if len(list(grid)) == 0:
        raise LeobeamError("sweep grid must be nonempty")
    rows = []
    for value in grid:
        point = apply_axis(scenario, axis, float(value))
        try:
            design = design_fn(point)
            report = evaluate(design, point, samples=samples, seed=seed)
            rows.append(
                SweepRow(
                    axis=axis,
                    value=float(value),
                    status="OPTIMAL",
                    total_power=design.total_power,
                    iterations=design.iterations,
                    max_rank_gap=design.max_rank_gap,
                    max_outage=report.max_outage,
                    min_mean_over_target=report.min_mean_over_target,
                )
            )
        except LeobeamError as ex:
            status = "NONCONVERGED" if isinstance(ex, ConvergenceError) else "INFEASIBLE"
            rows.append(SweepRow(axis=axis, value=float(value), status=status, detail=str(ex)))
    return rows


def write_sweep_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "axis",
                "value",
                "status",
                "total_power_w",
                "iters",
                "max_rank_gap",
                "max_outage",
                "min_mean_over_target",
                "detail",
            ]
        )
        for r in rows:
            writer.writerow(
                [
                    r.axis,
                    repr(float(r.value)),
                    r.status,
                    repr(float(r.total_power)),
                    r.iterations,
                    repr(float(r.max_rank_gap)),
                    repr(float(r.max_outage)),
                    repr(float(r.min_mean_over_target)),
                    r.detail,
                ]
            )
