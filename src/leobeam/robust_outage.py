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

from .conic.cones import smat, svec
from .errors import ConfigError
from .network import BeamDesign
from .robust_avg import LiftedProblem, PenaltyConfig, design_lifted

# Above this phase-error std dev (radians) the second-order expansion the
# outage bound rests on degrades noticeably; warn but proceed.
SMALL_SIGMA_GUARD_RAD = np.deg2rad(15.0)


def taylor_quad_matrix(a_sym: np.ndarray) -> np.ndarray:
    """Quadratic-term matrix of the phasor expansion: off-diagonals copied,
    diagonal entry i replaced by A_ii - sum_n A_in.  Leading axes batch."""
    a = np.asarray(a_sym, dtype=float)
    out = a.copy()
    d = np.arange(a.shape[-1])
    out[..., d, d] -= a.sum(axis=-1)
    return out


def taylor_linear_vector(b_skew: np.ndarray) -> np.ndarray:
    """Linear-term vector of the phasor expansion: twice the row sums."""
    return 2.0 * np.asarray(b_skew, dtype=float).sum(axis=-1)


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


def margin_scalars(scenario, user) -> np.ndarray:
    """Per-region scalars of the SINR margin form Z(W) = sum_j beta_j * zeta(W_j):
    alpha/gamma at the own region, less the terminal's weight row."""
    own = np.arange(len(user.weights)) == user.region
    return np.where(own, user.alpha / user.gamma_lin, 0.0) - user.weights


def margin_form(user, t: np.ndarray) -> np.ndarray:
    """Z = T o (h^* h^T) for a weighted sum T of W matrices (leading axes batch)."""
    h = user.channel.estimated
    return t * np.outer(h.conj(), h)


def margin_matrix(scenario, user, ws) -> np.ndarray:
    """Numeric Z for given W matrices: q^H Z q >= sigma0^2 iff SINR >= gamma
    (under the fixed-weight interference accounting)."""
    betas = margin_scalars(scenario, user)
    return margin_form(user, sum(beta * w for beta, w in zip(betas, ws)))


def taylor_terms(user, z: np.ndarray, fac: np.ndarray | None):
    """(Q, r) of the Gaussian quadratic form e'Qe + 2 e'r in the standardized
    phase error e, from the second-order expansion of q^H Z q.

    Linear in Z, and leading axes of ``z`` batch: the conic rows evaluate it
    on the stacked svec basis, the numeric checker on one Z.  ``fac`` is the
    covariance factor L (C = L L') from ``PhaseErrorModel.factor``, None for
    identity.  Every factor C^1/2 U (U orthogonal) gives the same tr Q,
    ||Q||_F and ||r||, which is all the bound reads.
    """
    sigma = user.sigma_rad
    f1 = taylor_quad_matrix(z.real)
    f2 = taylor_linear_vector(z.imag)
    if fac is None:
        return sigma**2 * f1, 0.5 * sigma * f2
    return sigma**2 * (fac.T @ f1 @ fac), 0.5 * sigma * (f2 @ fac)


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
        n = k * k  # svec length of W_j
        # (Q, r, s) are linear in the margin form, which is linear in each
        # W_j: on the svec basis they give one coefficient row per coordinate.
        z = margin_form(user, smat(np.eye(n), k))
        q, r = taylor_terms(user, z, user.phase_model.factor(k))
        lin = q.reshape(n, n)[:, :: k + 1].sum(axis=1) + z.reshape(n, n).sum(axis=1).real
        q = svec(q)  # Q is symmetric: K(K+1)/2 coordinates of norm ||Q||_F
        nq = q.shape[1]
        mu = mu_from_outage(user.outage_prob)
        g2 = 2.0 * np.sqrt(np.log(1.0 / user.outage_prob))
        # A target far below 0 dB makes alpha/gamma huge.  The largest |beta|
        # times the largest entry of lin, r and mu q is, rounded as below,
        # the largest coefficient of the rows, so these say if any overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            betas = margin_scalars(scenario, user)
            big = np.abs(betas).max()
            peaks = big * np.abs(lin).max(), big * np.abs(r).max(), big * mu * np.abs(q).max()
        if not np.isfinite(peaks).all():
            raise ConfigError(
                f"gamma_db of terminal {idx} makes its outage constraint "
                "coefficients overflow"
            )
        r_soc = bld.add_soc(k + 1)  # head x bounds ||r||/sqrt(2)
        q_soc = bld.add_soc(nq + 1)  # head y bounds mu * ||Q||_F
        # Linear row: tr(Q) + sum Z - 2g(x + y) >= sigma0^2.
        terms = [(ref, beta * lin) for ref, beta in zip(self.w_refs, betas)]
        terms += [(r_soc, {0: -g2}), (q_soc, {0: -g2}), (self.row_slack, {idx: -1.0})]
        bld.add_eq(terms, scenario.noise_power)
        # SOC coupling rows: tail coordinates equal the linear forms.
        terms = [(ref, -beta * r.T / np.sqrt(2.0)) for ref, beta in zip(self.w_refs, betas)]
        bld.add_eq(terms + [(r_soc, np.eye(k, k + 1, 1))], np.zeros(k))
        terms = [(ref, -beta * mu * q.T) for ref, beta in zip(self.w_refs, betas)]
        bld.add_eq(terms + [(q_soc, np.eye(nq, nq + 1, 1))], np.zeros(nq))


def soc_row_values(scenario, user, ws):
    """(Q, r, s) of one terminal at numeric W matrices, for bound checking."""
    z = margin_matrix(scenario, user, ws)
    q, r = taylor_terms(user, z, user.phase_model.factor(scenario.feeds))
    s = float(z.sum().real) - scenario.noise_power
    return q, r, s


def design_outage(scenario, config: PenaltyConfig | None = None) -> BeamDesign:
    """Full critical design: SOC relaxation, penalty loop, beam extraction."""
    return design_lifted(OutageProblem(scenario), "outage", config)
