"""Homogeneous self-dual interior-point solver for mixed-cone programs.

Standard form:

    minimize    c'x
    subject to  A x = b,   x in K

with K an ordered product of nonnegative, second-order, and PSD blocks.
The dual is  max b'y  s.t.  c - A'y = z in K.  A predictor-corrector
path-following method with Nesterov-Todd scaling runs on the homogeneous
self-dual embedding, so primal or dual infeasibility is detected with a
certificate ray instead of a diverging iterate.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError
from .cones import (
    PSD as PSD_KIND,
    identity_element,
    interior_margin,
    jordan_mul,
    max_step,
    nt_scaling,
    smat,
)


def _psd_mat(blk, seg):
    return smat(seg, blk.size)

OPTIMAL = "OPTIMAL"
PRIMAL_INFEASIBLE = "PRIMAL_INFEASIBLE"
DUAL_INFEASIBLE = "DUAL_INFEASIBLE"
MAX_ITER = "MAX_ITER"


@dataclass
class ConicProblem:
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: list

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)

    @property
    def n(self):
        return self.c.shape[0]

    @property
    def m(self):
        return self.b.shape[0]

    def validate(self):
        if self.A.ndim != 2 or self.A.shape != (self.m, self.n):
            raise ValueError(f"A must be {self.m}x{self.n}, got {self.A.shape}")
        total = sum(blk.veclen for blk in self.cones)
        if total != self.n:
            raise ValueError(f"cone blocks cover {total} coordinates, expected {self.n}")
        for arr in (self.c, self.A, self.b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("problem data must be finite")
        if not self.cones:
            raise ValueError("at least one cone block required")


@dataclass
class SolveOptions:
    tol: float = 1e-8
    tol_relaxed: float = 1e-7  # accept as OPTIMAL when progress stalls above tol
    inf_tol: float = 1e-9
    max_iter: int = 100
    frac_to_boundary: float = 0.99


@dataclass
class IterateInfo:
    it: int
    pobj: float
    dobj: float
    pres: float
    dres: float
    relgap: float
    mu: float
    tau: float
    kappa: float
    step: float
    sigma: float


@dataclass
class ConicSolution:
    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    obj_primal: float
    obj_dual: float
    gap: float
    pres: float
    dres: float
    iterations: list = field(default_factory=list)
    certificate: np.ndarray | None = None

    @property
    def n_iter(self):
        return len(self.iterations)


class _ConeVec:
    """Per-block views into a flat cone vector."""

    def __init__(self, cones):
        self.cones = cones
        self.slices = []
        pos = 0
        for blk in cones:
            self.slices.append(slice(pos, pos + blk.veclen))
            pos += blk.veclen
        self.n = pos

    def blocks(self, v):
        return [v[sl] for sl in self.slices]


def _equilibrate(problem):
    """Ruiz-style scaling: per-row and uniform per-cone-block column scaling."""
    A = problem.A.copy()
    b = problem.b.copy()
    c = problem.c.copy()
    m, n = A.shape
    dr = np.ones(m)
    dc = np.ones(n)
    layout = _ConeVec(problem.cones)
    for _ in range(3):
        if m:
            rn = np.sqrt(np.abs(A).max(axis=1))
            rn[rn == 0] = 1.0
            A /= rn[:, None]
            b /= rn
            dr /= rn
        for sl in layout.slices:
            cn = np.sqrt(np.abs(A[:, sl]).max()) if m else 1.0
            if cn == 0:
                cn = 1.0
            A[:, sl] /= cn
            c[sl] *= 1.0 / cn
            dc[sl] /= cn
    cscale = max(1.0, np.abs(c).max())
    c /= cscale
    return A, b, c, dr, dc, cscale


def solve(problem: ConicProblem, opts: SolveOptions | None = None) -> ConicSolution:
    """Solve a mixed-cone program; deterministic for identical inputs."""
    opts = opts or SolveOptions()
    problem.validate()
    layout = _ConeVec(problem.cones)
    As, bs, cs, dr, dc, cscale = _equilibrate(problem)
    A0, b0, c0 = problem.A, problem.b, problem.c
    m, n = As.shape
    cones = problem.cones

    e = np.concatenate([identity_element(blk) for blk in cones])
    nu = sum(blk.degree for blk in cones)

    x = e.copy()
    z = e.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    bnorm = 1.0 + np.linalg.norm(b0)
    cnorm = 1.0 + np.linalg.norm(c0)

    log = []
    status = MAX_ITER
    best = None
    best_score = np.inf
    stall = 0
    no_progress = 0

    def unscaled(xv, yv, zv):
        return dc * xv, cscale * dr * yv, cscale * (zv / dc)

    def metrics(xv, yv, zv, tauv):
        xo, yo, zo = unscaled(xv / tauv, yv / tauv, zv / tauv)
        pres = np.linalg.norm(A0 @ xo - b0) / bnorm
        dres = np.linalg.norm(A0.T @ yo + zo - c0) / cnorm
        pobj = float(c0 @ xo)
        dobj = float(b0 @ yo)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return xo, yo, zo, pres, dres, pobj, dobj, relgap

    alpha = 0.0
    sigma = 0.0
    for it in range(opts.max_iter):
        r_p = As @ x - bs * tau
        r_d = -As.T @ y - z + cs * tau
        r_g = float(cs @ x - bs @ y + kappa)
        mu = (x @ z + tau * kappa) / (nu + 1.0)

        xo, yo, zo, pres, dres, pobj, dobj, relgap = metrics(x, y, z, tau)
        log.append(
            IterateInfo(it, pobj, dobj, pres, dres, relgap, mu, tau, kappa, alpha, sigma)
        )
        score = max(pres, dres, relgap)
        if score < 0.9 * best_score:
            best_score = score
            best = (xo, yo, zo, pobj, dobj, relgap, pres, dres)
            no_progress = 0
        else:
            no_progress += 1

        if pres <= opts.tol and dres <= opts.tol and relgap <= opts.tol:
            status = OPTIMAL
            best = (xo, yo, zo, pobj, dobj, relgap, pres, dres)
            break
        if stall >= 3:
            break
        # Endgame floor: once at the relaxed tolerance, stop grinding against
        # the ill-conditioned Schur system instead of letting it degrade.
        if no_progress >= 5 and best_score <= opts.tol_relaxed:
            break
        if no_progress >= 15:
            break

        # Infeasibility certificates (scale-free tests on unscaled data).
        xu, yu, zu = unscaled(x, y, z)
        by = float(b0 @ yu)
        if by > 0:
            if np.linalg.norm(A0.T @ (yu / by) + zu / by) <= opts.inf_tol * cnorm:
                status = PRIMAL_INFEASIBLE
                best = (xo, yo, zo, pobj, dobj, relgap, pres, dres)
                cert = yu / by
                sol = ConicSolution(
                    status, xo, yo, zo, pobj, dobj, relgap, pres, dres, log, cert
                )
                return sol
        cx = float(c0 @ xu)
        if cx < 0:
            if np.linalg.norm(A0 @ (xu / -cx)) <= opts.inf_tol * bnorm:
                status = DUAL_INFEASIBLE
                cert = xu / -cx
                sol = ConicSolution(
                    status, xo, yo, zo, pobj, dobj, relgap, pres, dres, log, cert
                )
                return sol

        try:
            scalings = [
                nt_scaling(blk, xb, zb)
                for blk, xb, zb in zip(cones, layout.blocks(x), layout.blocks(z))
            ]
        except (FloatingPointError, np.linalg.LinAlgError):
            break  # iterate degenerated numerically; report best so far
        lam = np.concatenate([sc.lam for sc in scalings])

        # Schur complement S = A H A' (+ tiny ridge if needed).
        HAt = np.empty((n, m))
        for sc, sl in zip(scalings, layout.slices):
            HAt[sl, :] = sc.apply_H_cols(As[:, sl]).T if m else np.zeros((sl.stop - sl.start, 0))
        S = As @ HAt
        Hc = _apply_H(scalings, layout, cs)
        AHc = As @ Hc

        ridge = 0.0
        for attempt in range(4):
            try:
                L = np.linalg.cholesky(S + ridge * np.eye(m))
                break
            except np.linalg.LinAlgError:
                ridge = max(1e-12 * (1.0 + np.trace(S) / max(m, 1)), ridge * 100 or 1e-12)
        else:
            break

        def schur_solve(rhs):
            sol = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
            # Iterative refinement keeps directions usable in the
            # ill-conditioned endgame; stop once the residual stagnates.
            prev = np.inf
            for _ in range(3):
                resid = rhs - S @ sol
                rnorm = np.linalg.norm(resid)
                if rnorm >= 0.5 * prev:
                    break
                prev = rnorm
                sol = sol + np.linalg.solve(L.T, np.linalg.solve(L, resid))
            return sol

        q1 = schur_solve(AHc + bs)
        p1 = _apply_H(scalings, layout, As.T @ q1 - cs)
        den = float(cs @ p1 - bs @ q1 - kappa / tau)

        def directions(sig, eta_corr, dkappa_corr):
            dc_vec = sig * mu * e - _jordan_sq(cones, layout, lam)
            if eta_corr is not None:
                dc_vec -= eta_corr
            d_kappa = sig * mu - tau * kappa - dkappa_corr
            g = _lam_div(scalings, layout, dc_vec)
            w1 = _apply_Winv(scalings, layout, g) - (1.0 - sig) * r_d
            q2 = schur_solve(-(1.0 - sig) * r_p - As @ _apply_H(scalings, layout, w1))
            p2 = _apply_H(scalings, layout, As.T @ q2 + w1)
            num = -(1.0 - sig) * r_g - float(cs @ p2) + float(bs @ q2) - d_kappa / tau
            dtau = num / den
            dy = q2 + dtau * q1
            dx = p2 + dtau * p1
            dz = cs * dtau - As.T @ dy + (1.0 - sig) * r_d
            dkap = (d_kappa - kappa * dtau) / tau
            return dx, dy, dz, dtau, dkap

        # Predictor (affine scaling) direction.
        dx_a, dy_a, dz_a, dtau_a, dkap_a = directions(0.0, None, 0.0)
        a_aff = _step_len(cones, layout, x, dx_a, z, dz_a, tau, dtau_a, kappa, dkap_a)
        a_aff = min(1.0, a_aff)
        mu_aff = (
            (x + a_aff * dx_a) @ (z + a_aff * dz_a)
            + (tau + a_aff * dtau_a) * (kappa + a_aff * dkap_a)
        ) / (nu + 1.0)
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        # Corrector uses scaled-space products of the affine direction.
        eta = np.concatenate(
            [
                jordan_mul(blk, sc.apply_WinvT(dxb), sc.apply_W(dzb))
                for blk, sc, dxb, dzb in zip(
                    cones, scalings, layout.blocks(dx_a), layout.blocks(dz_a)
                )
            ]
        )
        dx, dy, dz, dtau, dkap = directions(sigma, eta, dtau_a * dkap_a)

        a_max = _step_len(cones, layout, x, dx, z, dz, tau, dtau, kappa, dkap)
        alpha = min(1.0, opts.frac_to_boundary * a_max)
        if alpha < 1e-6:
            # Recenter: a pure centering step is better conditioned and
            # restores interior margin after a degenerate combined step.
            dx, dy, dz, dtau, dkap = directions(1.0, None, 0.0)
            a_max = _step_len(cones, layout, x, dx, z, dz, tau, dtau, kappa, dkap)
            alpha = min(1.0, opts.frac_to_boundary * a_max)
        if alpha <= 1e-10:
            break  # stalled; report best iterate
        stall = stall + 1 if alpha < 1e-6 else 0

        # Keep the new iterate strictly interior despite rounding in a_max.
        for _ in range(12):
            xn = x + alpha * dx
            zn = z + alpha * dz
            if _strictly_interior(cones, layout, xn) and _strictly_interior(
                cones, layout, zn
            ):
                break
            alpha *= 0.8
        x = xn
        y = y + alpha * dy
        z = zn
        tau += alpha * dtau
        kappa += alpha * dkap

    if best is None:
        raise ConvergenceError(
            f"no iterate with finite residuals in {len(log)} iterations"
        )
    xo, yo, zo, pobj, dobj, relgap, pres, dres = best
    if status != OPTIMAL and max(pres, dres, relgap) <= opts.tol_relaxed:
        status = OPTIMAL
    return ConicSolution(status, xo, yo, zo, pobj, dobj, relgap, pres, dres, log, None)


def _apply_H(scalings, layout, v):
    out = np.empty_like(v)
    for sc, sl in zip(scalings, layout.slices):
        out[sl] = sc.apply_H(v[sl])
    return out


def _apply_Winv(scalings, layout, v):
    out = np.empty_like(v)
    for sc, sl in zip(scalings, layout.slices):
        out[sl] = sc.apply_Winv(v[sl])
    return out


def _lam_div(scalings, layout, v):
    out = np.empty_like(v)
    for sc, sl in zip(scalings, layout.slices):
        out[sl] = sc.lam_div(v[sl])
    return out


def _jordan_sq(cones, layout, lam):
    return np.concatenate(
        [jordan_mul(blk, lam[sl], lam[sl]) for blk, sl in zip(cones, layout.slices)]
    )


def _strictly_interior(cones, layout, v):
    for blk, sl in zip(cones, layout.slices):
        if blk.kind == PSD_KIND:
            # Cholesky success is the margin test actually needed downstream.
            try:
                np.linalg.cholesky(_psd_mat(blk, v[sl]))
            except np.linalg.LinAlgError:
                return False
        elif interior_margin(blk, v[sl]) <= 0:
            return False
    return True


def _step_len(cones, layout, x, dx, z, dz, tau, dtau, kappa, dkap):
    a = np.inf
    for blk, sl in zip(cones, layout.slices):
        a = min(a, max_step(blk, x[sl], dx[sl]), max_step(blk, z[sl], dz[sl]))
    if dtau < 0:
        a = min(a, -tau / dtau)
    if dkap < 0:
        a = min(a, -kappa / dkap)
    return a
