"""Seeded Monte-Carlo validation of finished beam designs.

The estimated channels and rain draws stay frozen inside an evaluation; only
the phase error is resampled, matching the uncertainty model the designs are
robust against.  Every estimate carries a normal-approximation standard error
and is bit-reproducible from (design, scenario, samples, seed).
"""

import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .channel import sample_phase_error
from .errors import ConfigError, ConvergenceError, LeobeamError
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

    @property
    def mean_sinr_db(self) -> np.ndarray:
        return 10.0 * np.log10(self.mean_sinr)

    @property
    def max_outage(self) -> float:
        return float(self.outage.max())

    @property
    def min_mean_over_target(self) -> float:
        return float((self.mean_sinr / self.gamma_target).min())


# Phase entries drawn and scored at once: a chunk is CHUNK_ELEMENTS // K
# samples, so each worker's chunk buffers stay near 0.4 MB whatever the feed
# count K.
CHUNK_ELEMENTS = 1 << 14

# Threads scoring terminals at once; why not the core count: see evaluate.
WORKERS = 2


def evaluate(design: BeamDesign, scenario, samples: int = 10000, seed: int = 0):
    """Empirical per-terminal mean SINR and outage under phase-error sampling.

    Terminals are independent work (each draws from its own spawned
    stream), so ``WORKERS`` threads score them, one terminal per thread at
    a time, and the report keeps the terminal order.  Each terminal's
    samples are drawn and scored in consecutive chunks of about
    ``CHUNK_ELEMENTS // K`` rows through two buffers of its own, so memory
    is per worker: about 0.4 MB of chunk work plus 16 bytes per sample (the
    SINR vector and a temporary of its statistics), not samples x K
    complex.  With 2 workers, 200,000 desk samples peak at about 5.9 MB
    under tracemalloc, where holding every sample at once took 136 MB.
    The normal draws release the interpreter lock, as the cos/sin, the
    multiply and the scoring kernels do (two threads drawing (270, 60)
    normals from their own Generators took 0.73 s where one thread took
    1.36 s for both shares, on 2 vCPUs), so only the Python between numpy
    calls runs serially.  Each worker beyond two adds its buffers and a
    SINR vector, and gains speed only where a core is free for it.  The
    chunks are the rows of one whole draw in order, each row is scored the
    same way, and the statistics are taken over the whole SINR vector, so
    reports are bit-identical to drawing and scoring all samples at once,
    at any worker count, provided the BLAS gives a row of a product the
    same bits whatever the product's row count.  That was verified with
    OpenBLAS 0.3.31 (its SkylakeX, Haswell, Sandybridge and Katmai
    kernels); its Nehalem kernel breaks it for small real products, so
    there chunked correlated draws may differ in the last bit.
    """
    for name, value, least in (("samples", samples, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")
    users = scenario.users
    streams = np.random.SeedSequence(seed).spawn(len(users))
    k = scenario.feeds
    # A one-row product takes another BLAS path than a row of a larger one,
    # so no chunk has one row: the last absorbs a one-row tail.
    rows = max(2, CHUNK_ELEMENTS // k)
    stops = list(range(rows, samples - 1, rows)) + [samples]
    chunks = list(zip([0] + stops[:-1], stops))
    tdma = design.algorithm == "tdma"

    def score(idx):
        """(mean, se_mean, outage, se_outage, target) of terminal ``idx``."""
        user = users[idx]
        rng = np.random.default_rng(streams[idx])
        model = user.phase_model
        fac = model.factor(k)
        nu = np.empty((min(samples, rows + 1), k))
        phasors = np.empty(nu.shape, dtype=complex)
        gammas = np.empty(samples)
        for start, stop in chunks:
            h = phasors[: stop - start]
            theta = sample_phase_error(model, k, rng, len(h), out=nu[: len(h)], fac=fac)
            # exp(j theta) without the complex exp: the same bits, less work.
            np.cos(theta, out=h.real)
            np.sin(theta, out=h.imag)
            # Estimate first: the operand order of the unchunked product.
            np.multiply(user.channel.estimated, h, out=h)
            if tdma:
                # Each terminal is served alone in its slot by its own column.
                w = design.beams[:, idx]
                gammas[start:stop] = np.abs(h.conj() @ w) ** 2 / scenario.noise_power
            else:
                gammas[start:stop] = sinr_samples(user, h, design, scenario)
        target = design.metadata["slot_gamma_lin"][idx] if tdma else user.gamma_lin
        mean = float(gammas.mean())
        out = float(np.mean(gammas < target))
        se_m = float(gammas.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
        se_o = float(np.sqrt(out * (1.0 - out) / samples))
        return mean, se_m, out, se_o, target

    # Worker w scores terminals w, w + workers, ...  Plain threads, not
    # concurrent.futures: its logging import alone adds 0.5 MB of RSS.
    workers = min(WORKERS, len(users))
    stats = [None] * len(users)
    errors = []

    def work(first):
        for idx in range(first, len(users), workers):
            if errors:
                return  # another terminal failed, so the call raises anyway
            try:
                stats[idx] = score(idx)
            except BaseException as ex:  # re-raised in the calling thread
                errors.append(ex)
                return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    means, se_m, outs, se_o, targets = (np.array(col) for col in zip(*stats))
    return EvalReport(
        regions=[u.region for u in users],
        ranks=[u.rank for u in users],
        mean_sinr=means,
        se_mean=se_m,
        outage=outs,
        se_outage=se_o,
        gamma_target=targets,
        samples=samples,
        seed=seed,
    )


# Sweep axis -> the NetworkConfig field it sets.
_AXIS_FIELDS = {
    "gamma": "gamma_db", "sigma": "phase_sigma_deg", "eta": "sic_eta", "p": "outage_prob"
}
SWEEP_AXES = tuple(_AXIS_FIELDS)


@dataclass
class PointResult:
    """Outcome of designing and evaluating one instance; a failed design
    keeps the nan/0 figures and its message as detail."""

    status: str
    total_power: float = float("nan")
    iterations: int = 0
    max_rank_gap: float = float("nan")
    max_outage: float = float("nan")
    min_mean_over_target: float = float("nan")
    detail: str = ""


@dataclass
class _GridPoint:
    axis: str
    value: float


@dataclass
class SweepRow(PointResult, _GridPoint):
    """A grid point and its result; base fields come in reverse MRO order,
    so the fields run axis, value, status, ..., detail (sweep.csv's order)."""


def apply_axis(scenario, axis: str, value: float):
    """The scenario rebuilt with ``axis`` set to ``value`` for every terminal."""
    if axis not in _AXIS_FIELDS:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    return scenario.with_config(**{_AXIS_FIELDS[axis]: value})


def run_point(scenario, design_fn, samples: int = 10000, seed: int = 0) -> PointResult:
    """Design with ``design_fn`` and evaluate the design on ``scenario``.

    A success carries the design's own status; a ConvergenceError gives
    NONCONVERGED and any other LeobeamError INFEASIBLE, except a
    ConfigError: a bad input is raised, not reported as a design outcome.
    """
    try:
        design = design_fn(scenario)
        report = evaluate(design, scenario, samples=samples, seed=seed)
    except ConfigError:
        raise
    except LeobeamError as ex:
        status = "NONCONVERGED" if isinstance(ex, ConvergenceError) else "INFEASIBLE"
        return PointResult(status, detail=str(ex))
    return PointResult(
        design.status,
        total_power=design.total_power,
        iterations=design.iterations,
        max_rank_gap=design.max_rank_gap,
        max_outage=report.max_outage,
        min_mean_over_target=report.min_mean_over_target,
    )


def sweep(scenario, axis: str, grid, design_fn, samples: int = 10000, seed: int = 0):
    """Re-design and re-evaluate along one axis with :func:`run_point`; a
    failed point keeps its status and the sweep continues.  Every point is
    built first, so a bad grid value is a ConfigError before any design."""
    grid = [float(value) for value in grid]
    if not grid:
        raise ConfigError("sweep grid must be nonempty")
    points = [apply_axis(scenario, axis, value) for value in grid]
    return [
        SweepRow(axis=axis, value=value, **vars(run_point(point, design_fn, samples, seed)))
        for value, point in zip(grid, points)
    ]
