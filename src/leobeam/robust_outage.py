"""Outage-probability-constrained total-power minimization (critical design).

The per-terminal outage constraint Pr{SINR < gamma} <= p is intractable as
stated.  It is handled in three steps: (1) rewrite SINR >= gamma as a
quadratic form q^H Z q >= sigma0^2 in the unit-modulus phasor q; (2) expand
the form to second order in the phase error, which turns it into a Gaussian
quadratic chance constraint; (3) upper-bound the tail with a Bernstein-type
concentration inequality whose least conservative calibration reduces to a
linear row plus two second-order cone rows, all linear in the lifted W
matrices.  Rank-one recovery reuses the same penalty loop as the
average-SINR design.
"""

import warnings

import numpy as np

from .conic.cones import smat
from .errors import ConfigError
from .network import BeamDesign
from .numerics import hermitian_from_embedding
from .robust_avg import LiftedProblem, PenaltyConfig, design_lifted

# Above this phase-error std dev (radians) the second-order expansion the
# outage bound rests on degrades noticeably; warn but proceed.
SMALL_SIGMA_GUARD_RAD = np.deg2rad(15.0)


def taylor_quad_matrix(a_sym: np.ndarray) -> np.ndarray:
    """Quadratic-term matrix of the phasor expansion: off-diagonals copied,
    diagonal entry i replaced by A_ii - sum_n A_in."""
    a = np.asarray(a_sym, dtype=float)
    out = a.copy()
    np.fill_diagonal(out, np.diag(a) - a.sum(axis=1))
    return out


def taylor_linear_vector(b_skew: np.ndarray) -> np.ndarray:
    """Linear-term vector of the phasor expansion: twice the row sums."""
    return 2.0 * np.asarray(b_skew, dtype=float).sum(axis=1)


def taylor_quadratic(z: np.ndarray, theta: np.ndarray) -> float:
    """Second-order expansion of x^H Z x at x = exp(j theta).

    Exact at theta = 0 (the constant term is the all-ones quadratic form);
    the remainder is third order in ||theta||.
    """
    z = np.asarray(z)
    theta = np.asarray(theta, dtype=float)
    const = float(z.sum().real)
    quad = theta @ taylor_quad_matrix(z.real) @ theta
    lin = theta @ taylor_linear_vector(z.imag)
    return const + quad + lin


def mu_from_outage(p: float) -> float:
    """Bound parameter making the two Bernstein branch calibrations coincide.

    Solves (1 - 1/(2 mu^2)) mu = sqrt(ln(1/p)); the positive root is
    (g + sqrt(g^2 + 2))/2 and always exceeds 1/sqrt(2).
    """
    if not 0.0 < p < 1.0:
        raise ConfigError("outage probability must lie in (0, 1)")
    g = np.sqrt(np.log(1.0 / p))
    return float(0.5 * (g + np.sqrt(g * g + 2.0)))


def bernstein_tail_bound(q_mat: np.ndarray, r_vec: np.ndarray, s: float, mu: float):
    """Lemma-style tail bound on Pr{e'Qe + 2 e'r + s <= 0} for e ~ N(0, I)."""
    tau = s + float(np.trace(q_mat))
    t_scale = mu * np.linalg.norm(q_mat, "fro") + np.linalg.norm(r_vec) / np.sqrt(2.0)
    if t_scale == 0.0:
        return 0.0 if tau > 0 else 1.0
    if tau <= 0:
        return 1.0
    lam_mu = (1.0 - 0.5 / mu**2) * mu
    if tau <= 2.0 * lam_mu * t_scale:
        return float(np.exp(-(tau**2) / (4.0 * t_scale**2)))
    return float(np.exp(-tau * lam_mu / t_scale + lam_mu**2))


def margin_scalars(scenario, user) -> dict:
    """Per-region scalars of the SINR margin form Z(W) = sum_j beta_j * zeta(W_j)."""
    gamma = user.gamma_lin
    t1 = scenario.intra_weight(user)
    out = {}
    for j in range(scenario.beams):
        if j == user.region:
            out[j] = user.alpha / gamma - t1
        else:
            out[j] = -scenario.region_alpha_total(j)
    return out


def margin_matrix(scenario, user, ws) -> np.ndarray:
    """Numeric Z for given W matrices: q^H Z q >= sigma0^2 iff SINR >= gamma
    (under the fixed-weight interference accounting)."""
    h = user.channel.estimated
    phase_outer = np.outer(h.conj(), h)
    betas = margin_scalars(scenario, user)
    t = sum(beta * ws[j] for j, beta in betas.items())
    return t * phase_outer


def _cov_sqrt(user, feeds: int) -> np.ndarray | None:
    """Symmetric PSD square root of the phase covariance; None for identity."""
    if user.phase_cov is None:
        return None
    c = np.asarray(user.phase_cov, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (c + c.T))
    if vals.min() < -1e-10:
        raise ConfigError("phase covariance must be PSD")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def taylor_terms(user, z: np.ndarray, croot: np.ndarray | None):
    """(Q, r) of the Gaussian quadratic form e'Qe + 2 e'r in the standardized
    phase error e, from the second-order expansion of q^H Z q.

    Linear in Z; the conic rows probe it on a basis and the numeric checker
    evaluates it directly.  ``croot`` is the covariance square root from
    ``_cov_sqrt`` (None for identity covariance).
    """
    sigma = user.sigma_rad
    f1 = taylor_quad_matrix(z.real)
    f2 = taylor_linear_vector(z.imag)
    if croot is None:
        return sigma**2 * f1, 0.5 * sigma * f2
    return sigma**2 * (croot @ f1 @ croot), 0.5 * sigma * (croot @ f2)


class _UserResponses:
    """Linear responses of (Q, r, s) to each svec coordinate of one W block.

    The pipeline below svec coordinate -> Hermitian basis direction ->
    margin form -> Taylor maps is linear, so evaluating it on the svec basis
    yields the dense constraint coefficients directly.
    """

    def __init__(self, scenario, user):
        k = scenario.feeds
        emb = 2 * k
        veclen = emb * (emb + 1) // 2
        h = user.channel.estimated
        phase_outer = np.outer(h.conj(), h)
        croot = _cov_sqrt(user, k)
        self.q_rows = np.zeros((veclen, k * k))
        self.r_rows = np.zeros((veclen, k))
        self.s_row = np.zeros(veclen)
        basis = np.eye(veclen)
        for a in range(veclen):
            v = hermitian_from_embedding(smat(basis[a], emb))
            z = v * phase_outer
            q, r = taylor_terms(user, z, croot)
            self.q_rows[a] = q.ravel()
            self.r_rows[a] = r
            self.s_row[a] = z.sum().real
        self.trq_row = self.q_rows[:, :: k + 1].sum(axis=1)  # trace of Q per coord


class OutageProblem(LiftedProblem):
    """One Bernstein linear row and two SOC coupling blocks per terminal."""

    family = "outage"

    # Own __init__ so the benchmark tracer can time this design's assembly.
    def __init__(self, scenario):
        for u in scenario.users:
            if u.sigma_rad > SMALL_SIGMA_GUARD_RAD:
                warnings.warn(
                    "phase-error std dev above 15 deg; the second-order "
                    "expansion behind the outage bound degrades",
                    stacklevel=2,
                )
        super().__init__(scenario)

    def add_terminal_rows(self, idx, user):
        scenario, bld = self.scenario, self.builder
        k = scenario.feeds
        resp = _UserResponses(scenario, user)
        betas = margin_scalars(scenario, user)
        mu = mu_from_outage(user.outage_prob)
        g2 = 2.0 * np.sqrt(np.log(1.0 / user.outage_prob))
        r_soc = bld.add_soc(k + 1)  # head x bounds ||r||/sqrt(2)
        q_soc = bld.add_soc(k * k + 1)  # head y bounds mu * ||Q||_F
        # Linear row: tr(Q) + sum Z - 2g(x + y) >= sigma0^2.
        terms = [
            (self.w_refs[j], beta * (resp.trq_row + resp.s_row))
            for j, beta in betas.items()
        ]
        terms.append((r_soc, {0: -g2}))
        terms.append((q_soc, {0: -g2}))
        terms.append((self.row_slack, {idx: -1.0}))
        bld.add_eq(terms, scenario.noise_power)
        # SOC coupling rows: tail coordinates equal the linear forms.
        for i in range(k):
            terms = [
                (self.w_refs[j], -beta * resp.r_rows[:, i] / np.sqrt(2.0))
                for j, beta in betas.items()
            ]
            terms.append((r_soc, {1 + i: 1.0}))
            bld.add_eq(terms, 0.0)
        for i in range(k * k):
            terms = [
                (self.w_refs[j], -beta * mu * resp.q_rows[:, i])
                for j, beta in betas.items()
            ]
            terms.append((q_soc, {1 + i: 1.0}))
            bld.add_eq(terms, 0.0)


def soc_row_values(scenario, user, ws):
    """(Q, r, s) of one terminal at numeric W matrices, for bound checking."""
    z = margin_matrix(scenario, user, ws)
    q, r = taylor_terms(user, z, _cov_sqrt(user, scenario.feeds))
    s = float(z.sum().real) - scenario.noise_power
    return q, r, s


def design_outage(scenario, config: PenaltyConfig | None = None) -> BeamDesign:
    """Full critical design: SOC relaxation, penalty loop, beam extraction."""
    return design_lifted(
        OutageProblem(scenario),
        "outage",
        config,
        outage_prob=[u.outage_prob for u in scenario.users],
        cov_root="symmetric",
    )
