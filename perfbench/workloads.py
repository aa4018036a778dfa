"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks its outputs must pass.

Every call into leobeam goes through a module attribute looked up at call
time (``robust_avg.design_avg_sinr(...)``), so the tracer's rebinding
applies to these calls exactly as it does to the package's own.

The two design workloads run one fixed scenario each.  The two evaluation
workloads draw their phase samples from seed ``v`` of a pool of ``POOL``
sampling seeds whose outputs are recorded in ``reference.json``; operation
``i`` of a run with benchmark seed ``n`` uses ``v = (n + i) % POOL``.
"""

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from leobeam import baselines, evaluator, robust_avg, robust_outage, scenario
from leobeam.channel import expected_phase_matrix
from leobeam.conic import SolveOptions
from leobeam.errors import InfeasibleDesignError
from leobeam.network import per_feed_power
from leobeam.robust_avg import PenaltyConfig
from leobeam.robust_outage import mu_from_outage, soc_row_values

POOL = 8
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Checks.  Powers and sweep evaluations follow from the solver's answer and
# are compared at 1e-6 relative; Monte-Carlo means come from a fixed design
# and fixed draws and are compared at 1e-9.  A constraint row may fall short
# by what the solver's stopping test allows: its relative primal residual
# is ||Ax - b|| / (1 + ||b||) <= tol_relaxed, and the checks allow ten times
# that, in the same units.
POWER_RTOL = 1e-6
MEAN_RTOL = 1e-9
ROW_TOL_FACTOR = 10.0

OPTIMAL, INFEASIBLE, FAILED = "OPTIMAL", "INFEASIBLE", "FAILED"


@dataclass
class Outcome:
    """What one timed operation did, as the checks saw it."""

    attempted: int = 0  # design and evaluate calls
    failed: int = 0  # calls that raised (other than infeasible) or failed a check
    problems: list = field(default_factory=list)  # failed checks
    samples: int = 0  # terminal-samples scored by a timed evaluate

    def add_call(self, status, problems=()):
        self.attempted += 1
        if status == FAILED or problems:
            self.failed += 1
        self.problems.extend(problems)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.samples += other.samples


def classify(call):
    """Run one design or evaluate call: (status, result or exception)."""
    try:
        return OPTIMAL, call()
    except InfeasibleDesignError as ex:
        return INFEASIBLE, ex
    except Exception as ex:  # the benchmark records any other failure and goes on
        print(f"operation failed: {type(ex).__name__}: {ex}", file=sys.stderr)
        return FAILED, ex


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def rel_err(value, ref):
    return abs(value - ref) / max(abs(ref), 1e-300)


# -- output checks -------------------------------------------------------------


def check_power(design, ref_power, what):
    err = rel_err(design.total_power, ref_power)
    if err > POWER_RTOL:
        return [f"{what}: total power {design.total_power!r} differs from reference "
                f"{ref_power!r} by {err:.2e} relative"]
    return []


def row_tolerance(sc, user_rhs, config):
    """Absolute shortfall a row may show, from the solver's stopping test."""
    b_norm = np.linalg.norm(np.concatenate([user_rhs, sc.power_caps]))
    return ROW_TOL_FACTOR * config.solver.tol_relaxed * (1.0 + b_norm)


def check_caps_and_rank(sc, design, rank_gap_tol, row_tol):
    """Feed caps on the lifted matrices and the beams, and the rank gap."""
    problems = []
    caps = sc.power_caps
    lifted_feed = np.real(sum(np.diag(w) for w in design.lifted))
    for name, feed in (("lifted", lifted_feed), ("beam", per_feed_power(design.beams))):
        excess = np.max(feed - caps)
        if excess > row_tol:
            problems.append(f"{name} per-feed power exceeds its cap by {excess:.3e} W")
    for m, w in enumerate(design.lifted):
        trace = np.trace(w).real
        gap = trace - np.linalg.eigvalsh(w)[-1]
        if gap > rank_gap_tol + 1e-9 * trace:
            problems.append(f"region {m}: rank gap {gap:.3e} above {rank_gap_tol:.1e}")
    return problems


def check_avg_design(sc, design, config):
    """Average-SINR rows: alpha E|h'w_m|^2 >= gamma (interference + noise)."""
    row_tol = row_tolerance(sc, [u.gamma_lin * sc.noise_power for u in sc.users], config)
    problems = check_caps_and_rank(sc, design, config.rank_gap_tol, row_tol)
    k = sc.feeds
    for idx, user in enumerate(sc.users):
        h = user.channel.estimated
        d = np.outer(h, h.conj()) * expected_phase_matrix(user.phase_model, k)
        power = [np.trace(d @ w).real for w in design.lifted]
        desired = user.alpha * power[user.region]
        interference = sc.intra_weight(user) * power[user.region] + sum(
            sc.region_alpha_total(j) * power[j] for j in range(sc.beams) if j != user.region
        )
        short = user.gamma_lin * (interference + sc.noise_power) - desired
        if short > row_tol:
            problems.append(f"terminal {idx}: average SINR row short by {short:.3e}")
    return problems


def check_outage_design(sc, design, config):
    """Bernstein/SOC rows: tr Q + s >= 2 sqrt(ln 1/p) (mu ||Q||_F + ||r||/sqrt 2)."""
    row_tol = row_tolerance(sc, [sc.noise_power] * len(sc.users), config)
    problems = check_caps_and_rank(sc, design, config.rank_gap_tol, row_tol)
    for idx, user in enumerate(sc.users):
        q, r, s = soc_row_values(sc, user, design.lifted)
        mu = mu_from_outage(user.outage_prob)
        g2 = 2.0 * np.sqrt(np.log(1.0 / user.outage_prob))
        lhs = np.trace(q) + s
        rhs = g2 * (mu * np.linalg.norm(q, "fro") + np.linalg.norm(r) / np.sqrt(2.0))
        if rhs - lhs > row_tol:
            problems.append(f"terminal {idx}: outage SOC row short by {rhs - lhs:.3e}")
    return problems


# -- workloads -------------------------------------------------------------------


def design_outcome(status, design, check, ref_power, where):
    """Outcome of one design call whose reference solved: OPTIMAL and correct."""
    problems = []
    if status == INFEASIBLE:
        problems.append(f"{where}: feasible design reported infeasible")
    elif status == OPTIMAL:
        problems = check(design) + check_power(design, ref_power, where)
    out = Outcome()
    out.add_call(status, problems)
    return out


def recorded_power(workload):
    status, design = workload.op(0)
    if status != OPTIMAL:
        raise RuntimeError(f"{workload.name} ended {status}: {design}")
    return {"total_power": design.total_power}


class OutageDesk:
    """design_outage on the default desk scenario: 12 feeds, 3 beams, 2 per
    region, 3 dB, p = 0.05.  SOC-heavy, Schur order 954; also runs the
    probing assembly.  The input does not depend on the seed (see README)."""

    name = "outage-desk"
    config = PenaltyConfig()

    def setup(self):
        self.scenario = scenario.build_scenario(scenario.NetworkConfig())

    def op(self, v):
        return classify(lambda: robust_outage.design_outage(self.scenario, self.config))

    def check(self, v, result, ref):
        return design_outcome(
            *result,
            lambda d: check_outage_design(self.scenario, d, self.config),
            ref["total_power"],
            self.name,
        )

    def record(self):
        return recorded_power(self)


FULL_SCALE = dict(feeds=60, beams=10, users_per_region=3, gamma_db=1.5)


class AvgFull:
    """design_avg_sinr at full scale (60 feeds, 10 beams, 3 per region,
    1.5 dB) with the README's relaxed numerics.  PSD-dominated: ten 120x120
    embedded blocks; the penalty loop runs one round, so two full solves.
    The input does not depend on the seed (see README)."""

    name = "avg-full"
    config = PenaltyConfig(solver=SolveOptions(tol_relaxed=2e-6), rank_gap_tol=1e-5)

    def setup(self):
        self.scenario = scenario.build_scenario(scenario.NetworkConfig(**FULL_SCALE))

    def op(self, v):
        return classify(lambda: robust_avg.design_avg_sinr(self.scenario, self.config))

    def check(self, v, result, ref):
        return design_outcome(
            *result,
            lambda d: check_avg_design(self.scenario, d, self.config),
            ref["total_power"],
            self.name,
        )

    def record(self):
        return recorded_power(self)


class McEval:
    """evaluate of a zero-forcing design (built in setup) on the full-scale
    scenario, 50,000 phase samples per terminal for 30 terminals.  Only the
    evaluator and network layers work.  The pool varies the sampling seed."""

    name = "mc-eval"
    samples = 50_000

    def setup(self):
        self.scenario = scenario.build_scenario(scenario.NetworkConfig(**FULL_SCALE))
        self.design = baselines.design_zfbf(self.scenario)

    def op(self, v):
        return classify(
            lambda: evaluator.evaluate(self.design, self.scenario, samples=self.samples, seed=v)
        )

    def check(self, v, result, ref):
        status, report = result
        out = Outcome()
        problems = check_power(self.design, ref["zfbf_power"], "zero-forcing design")
        if status == OPTIMAL:
            want = ref[str(v)]
            err = np.max(np.abs(report.mean_sinr - want["mean_sinr"]) / np.abs(want["mean_sinr"]))
            if err > MEAN_RTOL:
                problems.append(f"seed {v}: mean SINR differs from reference by {err:.2e}")
            counts = np.rint(report.outage * report.samples).astype(int).tolist()
            if counts != want["outage_count"]:
                problems.append(f"seed {v}: outage counts differ from reference")
            out.samples = report.samples * len(report.mean_sinr)
        out.add_call(status, problems)
        return out

    def record(self):
        out = {"zfbf_power": self.design.total_power}
        for v in range(POOL):
            status, report = self.op(v)
            if status != OPTIMAL:
                raise RuntimeError(f"{self.name} seed {v} ended {status}: {report}")
            out[str(v)] = {
                "mean_sinr": report.mean_sinr.tolist(),
                "outage_count": np.rint(report.outage * report.samples).astype(int).tolist(),
            }
        return out


SWEEP_GRID = [-10.0 + 0.5 * j for j in range(21)]


class GammaSweep:
    """evaluator.sweep along gamma from -10 to 0 dB in 0.5 dB steps with
    design_avg_sinr at 12 feeds, 3 beams, 6 per region, sic_eta = 0 and
    2,000 samples: many small programs, penalty rounds, infeasibility and
    non-convergence.  Designs do not depend on the seed; the pool varies the
    sampling seed.  The design_fn below classifies each design itself, since
    the sweep labels every LeobeamError INFEASIBLE."""

    name = "gamma-sweep"
    samples = 2000
    config = PenaltyConfig()

    def setup(self):
        self.scenario = scenario.build_scenario(
            scenario.NetworkConfig(users_per_region=6, sic_eta=0.0)
        )

    def op(self, v):
        designs = []

        def design_fn(point):
            status, result = classify(lambda: robust_avg.design_avg_sinr(point, self.config))
            designs.append((status, result, point))
            if status != OPTIMAL:
                raise result
            return result

        rows = evaluator.sweep(
            self.scenario, "gamma", SWEEP_GRID, design_fn, samples=self.samples, seed=v
        )
        return designs, rows

    def check(self, v, result, ref):
        designs, rows = result
        out = Outcome()
        ref_evals = ref["evals"][str(v)]
        for j, ((status, design, point), row) in enumerate(zip(designs, rows)):
            ref_design = ref["designs"][j]
            where = f"gamma {SWEEP_GRID[j]} dB"
            problems = []
            if status == INFEASIBLE and ref_design["status"] == OPTIMAL:
                problems.append(f"{where}: feasible design reported infeasible")
            elif status == OPTIMAL:
                problems = [f"{where}: {p}" for p in check_avg_design(point, design, self.config)]
                if ref_design["status"] == OPTIMAL:
                    problems += check_power(design, ref_design["total_power"], where)
            out.add_call(status, problems)
            if status != OPTIMAL:
                continue
            # the sweep evaluated this design; its row says how that went
            eval_problems = []
            if row.status != OPTIMAL:
                out.add_call(FAILED)
                continue
            if ref_design["status"] == OPTIMAL:
                got = (row.max_outage, row.min_mean_over_target)
                want = ref_evals[j]
                if abs(got[0] - want[0]) > 1.0 / self.samples:
                    eval_problems.append(f"{where}: max outage {got[0]} vs reference {want[0]}")
                if rel_err(got[1], want[1]) > POWER_RTOL:
                    eval_problems.append(f"{where}: mean/target {got[1]!r} vs {want[1]!r}")
            out.add_call(OPTIMAL, eval_problems)
        if len(designs) != len(SWEEP_GRID):
            out.problems.append(f"sweep designed {len(designs)} of {len(SWEEP_GRID)} points")
        return out

    def record(self):
        out = {"designs": None, "evals": {}}
        for v in range(POOL):
            designs, rows = self.op(v)
            entries = [
                {"status": status}
                | ({"total_power": design.total_power} if status == OPTIMAL else {})
                for status, design, _ in designs
            ]
            if out["designs"] is None:
                out["designs"] = entries
            elif entries != out["designs"]:
                raise RuntimeError(f"{self.name}: designs depend on the sampling seed")
            out["evals"][str(v)] = [
                [row.max_outage, row.min_mean_over_target] for row in rows
            ]
        return out


WORKLOADS = {w.name: w for w in (OutageDesk(), AvgFull(), McEval(), GammaSweep())}
