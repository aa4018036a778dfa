"""Average-SINR-constrained total-power minimization (noncritical design).

The rank-one beamforming problem is lifted to PSD matrices, the average-SINR
constraint becomes a linear trace inequality through the expected phasor
matrix, and the dropped rank-one constraint is recovered by an iterative
penalty on tr(W) - lambda_max(W), linearized at the current leading
eigenvector each round.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import expected_phase_matrix
from .conic import ConeProgramBuilder, SolveOptions, solve
from .conic.solver import OPTIMAL, PRIMAL_INFEASIBLE
from .errors import ConfigError, ConvergenceError, InfeasibleDesignError
from .network import BeamDesign
from .numerics import max_eigpair
from .scenario import _is_int, _is_real


@dataclass
class PenaltyConfig:
    rho0: float = 1.0
    growth: float = 3.0
    rank_gap_tol: float = 1e-6
    max_iters: int = 30  # penalty rounds after the relaxation; 0 runs the relaxation only
    solver: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self):
        for key in ("rho0", "growth", "rank_gap_tol"):
            value = getattr(self, key)
            if not _is_real(value):
                raise ConfigError(f"penalty.{key} must be numeric and finite, got {value!r}")
        if not _is_int(self.max_iters):
            raise ConfigError(f"penalty.max_iters must be an integer, got {self.max_iters!r}")
        if self.rho0 <= 0 or self.growth <= 1 or self.rank_gap_tol <= 0 or self.max_iters < 0:
            raise ConfigError("penalty config must satisfy rho0>0, growth>1, tol>0, iters>=0")


def expected_channel_matrix(user) -> np.ndarray:
    """The terminal's Gram E[h h^H] = diag(h_est) E[q q^H] diag(h_est)^H,
    elementwise form."""
    h = user.channel.estimated
    return np.outer(h, h.conj()) * expected_phase_matrix(user.phase_model, len(h))


def avg_constraint_coeffs(scenario, user):
    """(M, K, K) Hermitian coefficients G_j and rhs of the average-SINR row.

    The emitted row reads sum_j tr(G_j W_j) >= rhs and is linear in all W:
    region j enters at weight alpha * [j own] - gamma * weights[j] (own
    region alpha - gamma*t1, every other -gamma*t2_j), all through the
    user's expected channel matrix.
    """
    gamma = user.gamma_lin
    scale = user.alpha * (np.arange(len(user.weights)) == user.region) - gamma * user.weights
    return scale[:, None, None] * expected_channel_matrix(user), gamma * scenario.noise_power


class LiftedProblem:
    """Lifted constraint system shared by both robust designs.

    Holds one Hermitian PSD block W_m per region, one nonnegative slack per
    terminal row and per feed, the terminal rows a subclass emits through
    ``add_terminal_rows`` and, last, the per-feed power caps.  The program
    is built once, in ``__init__``; each solve passes only its objective,
    so every penalty round shares one A, one equilibration and one Schur
    plan.
    """

    family: str  # constraint family that infeasibility certificates name

    def __init__(self, scenario):
        self.scenario = scenario
        k, m = scenario.feeds, scenario.beams
        bld = ConeProgramBuilder()
        self.builder = bld
        self.w_refs = [bld.add_hermitian_psd(k) for _ in range(m)]
        self.row_slack = bld.add_nonneg(len(scenario.users))
        self.feed_slack = bld.add_nonneg(k)
        for idx, user in enumerate(scenario.users):
            self.add_terminal_rows(idx, user)
        # Feed caps, one row per feed: sum_m tr(e_k e_k' W_m) + slack_k = cap_k.
        units = np.array([np.diag(e) for e in np.eye(k)])
        terms = [(ref, units) for ref in self.w_refs]
        bld.add_eq(terms + [(self.feed_slack, np.eye(k))], scenario.power_caps)
        self.problem = bld.build()

    def add_terminal_rows(self, idx, user):
        """Emit terminal ``idx``'s rows; its main row takes -row_slack[idx]."""
        raise NotImplementedError

    def solve(self, objective_matrices=None, options=None):
        """Solve with per-region Hermitian objective matrices (default: identity)."""
        k = self.scenario.feeds
        if objective_matrices is None:
            objective_matrices = [np.eye(k)] * self.scenario.beams
        c = self.builder.objective_vector(zip(self.w_refs, objective_matrices))
        sol = solve(self.problem, c, options)
        ws = [self.builder.extract(ref, sol.x) for ref in self.w_refs]
        return ws, sol

    def infeasibility_family(self, sol) -> str:
        """Attribute an infeasibility certificate to a constraint family.

        The certificate satisfies b'y > 0; the rows contributing positively
        to that inner product are the ones driving the contradiction.  The
        feed-cap rows are the last K rows, every row before them belongs to
        a terminal.
        """
        if sol.certificate is None:
            return "unknown"
        contrib = sol.certificate * self.problem.b
        k = self.scenario.feeds
        user_w = contrib[:-k].sum()
        feed_w = contrib[-k:].sum()
        return self.family if user_w >= feed_w else "per-feed-power"


class AvgSinrProblem(LiftedProblem):
    """One linear average-SINR trace row per terminal."""

    family = "average-sinr"

    # Own __init__ so the benchmark tracer can time this design's assembly.
    def __init__(self, scenario):
        super().__init__(scenario)

    def add_terminal_rows(self, idx, user):
        coeffs, rhs = avg_constraint_coeffs(self.scenario, user)
        terms = list(zip(self.w_refs, coeffs))
        terms.append((self.row_slack, {idx: -1.0}))
        self.builder.add_eq(terms, rhs)


def solve_sdr_init(problem: LiftedProblem, options=None):
    """Relaxation without the rank constraint; typed failure when infeasible."""
    ws, sol = problem.solve(options=options)
    if sol.status == PRIMAL_INFEASIBLE:
        raise InfeasibleDesignError(
            "relaxed design problem is infeasible",
            family=problem.infeasibility_family(sol),
        )
    if sol.status != OPTIMAL:
        raise ConvergenceError(f"initial relaxation ended with status {sol.status}")
    return ws, sol


def penalty_step(problem: LiftedProblem, top_vectors, rho: float, options=None):
    """One penalized solve: objective (1+rho) tr(W) - rho v^H W v per region."""
    k = problem.scenario.feeds
    objs = [
        (1.0 + rho) * np.eye(k) - rho * np.outer(v, v.conj()) for v in top_vectors
    ]
    ws, sol = problem.solve(objs, options=options)
    if sol.status != OPTIMAL:
        raise ConvergenceError(f"penalty solve ended with status {sol.status}")
    return ws, sol


def rank_gaps(ws):
    """(gaps, eigenpairs): tr(W) - lambda_max per region, nonnegative for PSD W."""
    pairs = [max_eigpair(w) for w in ws]
    gaps = np.array([np.trace(w).real - lam for w, (lam, _) in zip(ws, pairs)])
    return gaps, pairs


def extract_beams(pairs) -> np.ndarray:
    """Beams w = sqrt(lambda) v, one column per leading eigenpair (lambda, v).

    The global phase is fixed so the largest-magnitude entry is real positive,
    making extracted designs reproducible.
    """
    cols = []
    for lam, v in pairs:
        w = np.sqrt(max(lam, 0.0)) * v
        pivot = np.argmax(np.abs(w))
        if np.abs(w[pivot]) > 0:
            w = w * np.exp(-1j * np.angle(w[pivot]))
        cols.append(w)
    return np.column_stack(cols)


def run_penalty_loop(
    problem: LiftedProblem, algorithm: str, config: PenaltyConfig | None = None
) -> BeamDesign:
    """Shared rank-one recovery: relaxation, penalty rounds, beam extraction.

    Each solve's rank gaps are computed once, at the head of the round that
    follows it; rho grows before every penalty step after the first.  The
    beams come from the eigenpairs of the round that meets the tolerance.
    """
    config = config or PenaltyConfig()
    ws, _ = solve_sdr_init(problem, options=config.solver)
    rho = config.rho0
    history = []
    prev_gap = np.inf
    stagnant = 0
    for iterations in range(config.max_iters + 1):
        gaps, pairs = rank_gaps(ws)
        gap = float(gaps.max())
        if iterations and gap > config.rank_gap_tol:
            rho *= config.growth
        obj = float(sum(np.trace(w).real for w in ws))
        history.append({"power": obj, "max_gap": gap, "rho": rho})
        if gap <= config.rank_gap_tol:
            return BeamDesign(
                beams=extract_beams(pairs),
                lifted=ws,
                algorithm=algorithm,
                iterations=iterations,
                max_rank_gap=gap,
                status="OPTIMAL",
                metadata={"history": history},
            )
        # five rounds of rho growth without halving the gap means the
        # tolerance is unreachable at this solve accuracy
        stagnant = stagnant + 1 if gap > 0.5 * prev_gap else 0
        if stagnant >= 5 or iterations == config.max_iters:
            break
        prev_gap = gap
        ws, _ = penalty_step(problem, [v for _, v in pairs], rho, options=config.solver)
    raise ConvergenceError(
        f"penalty loop did not reach rank gap {config.rank_gap_tol:.1e} in "
        f"{iterations} iterations (final gap {gap:.3e})"
    )


def design_avg_sinr(scenario, config: PenaltyConfig | None = None) -> BeamDesign:
    """Full noncritical design: relaxation, penalty loop, beam extraction."""
    return run_penalty_loop(AvgSinrProblem(scenario), "avg", config)
