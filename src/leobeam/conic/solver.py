"""Homogeneous self-dual interior-point solver for mixed-cone programs.

Standard form:

    minimize    c'x
    subject to  A x = b,   x in K

with K an ordered product of nonnegative, second-order, and PSD blocks
(real symmetric or complex Hermitian).
The dual is  max b'y  s.t.  c - A'y = z in K.  A predictor-corrector
path-following method with Nesterov-Todd scaling runs on the homogeneous
self-dual embedding, so primal or dual infeasibility is detected with a
certificate ray instead of a diverging iterate.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError
from .cones import (
    PSD as PSD_KIND,
    SOC as SOC_KIND,
    PsdRows,
    identity_element,
    interior_margin,
    jordan_mul,
    max_step,
    nt_scaling,
    row_operand,
    smat,
)

OPTIMAL = "OPTIMAL"
PRIMAL_INFEASIBLE = "PRIMAL_INFEASIBLE"
DUAL_INFEASIBLE = "DUAL_INFEASIBLE"
MAX_ITER = "MAX_ITER"

# Keys of ConicSolution.timings: seconds per solver phase, summed over iterations.
PHASES = ("nt_scaling", "schur_assembly", "factor", "schur_solve", "step_search")
# Triangular blocks at or below this order are inverted by one LAPACK solve.
_TRIL_LEAF = 96
# Relative residuals and gap at or below which an iterate is OPTIMAL.
TOL = 1e-8
# Relative residual below which a certificate ray proves infeasibility.
INF_TOL = 1e-9
# Share of the distance to the cone boundary that one step takes.
FRAC_TO_BOUNDARY = 0.99


@dataclass
class ConicProblem:
    """One program: objective c over the constraint set A x = b, x in cones.

    The first solve validates A, b and the cones, equilibrates them and
    plans the Schur assembly (``_Prepared``); every later solve of this
    problem or of a ``with_objective`` sibling reuses that work.  So A, b
    and the cones are read-only after the first solve.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: list
    # Holds the ``_Prepared`` work, shared by reference with every sibling.
    _shared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def with_objective(self, c):
        """The program with objective c over the same A, b and cones,
        sharing the solver's work on them (see the class docstring)."""
        sibling = ConicProblem(c, self.A, self.b, self.cones)
        sibling._shared = self._shared
        return sibling

    def prepared(self):
        """The solver's work on A, b and the cones, made on the first call."""
        if "prep" not in self._shared:
            self.validate()
            self._shared["prep"] = _Prepared(self)
        return self._shared["prep"]


@dataclass
class SolveOptions:
    tol_relaxed: float = 1e-7  # accept as OPTIMAL when progress stalls above TOL
    max_iter: int = 100


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
    timings: dict = field(default_factory=dict)

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


class _SchurPlan:
    """How each cone block of the equilibrated A enters S = A H A'.

    Nonnegative and PSD blocks fill the columns of one dense G = A W' (in
    cone order), and S starts as G G', so numpy takes its symmetric syrk
    path.  A PSD block's rows are read from its own columns of As as G is
    written (``PsdRows``), one bounded chunk at a time, so the plan holds
    only their index and coefficient vectors and a view of As.  A
    second-order block's columns are nonzero only on its own rows r_b (an
    outage SOC touches its terminal's 13 or 79 rows of 558 at desk scale),
    so it adds G_b G_b' into S[r_b, r_b] with G_b = A[r_b, b] W_b' instead.
    """

    def __init__(self, cones, slices, As):
        self.m = As.shape[0]
        self.dense = []  # (block index, G column slice, row_operand)
        self.soc = []  # (block index, S index of r_b x r_b, As[r_b, b])
        width = 0
        for i, (blk, sl) in enumerate(zip(cones, slices)):
            cols = As[:, sl]
            if blk.kind == SOC_KIND:
                rows = np.flatnonzero((cols != 0).any(axis=1))
                self.soc.append((i, np.ix_(rows, rows), cols[rows]))
                continue
            op = row_operand(blk, cols)
            self.dense.append((i, slice(width, width + blk.veclen), op))
            width += blk.veclen
        self.width = width

    def assemble(self, scalings):
        """S = A H A' at the iterate whose per-block NT scalings are given."""
        G = np.empty((self.m, self.width))
        for i, gsl, op in self.dense:
            if isinstance(op, PsdRows):
                op.write_W_cols(scalings[i], G[:, gsl])
            else:
                G[:, gsl] = scalings[i].apply_W_cols(op)
        S = G @ G.T
        del G
        for i, at, cols in self.soc:
            Gb = scalings[i].apply_W_cols(cols)
            S[at] += Gb @ Gb.T
        return S


def _equilibrate(problem):
    """Ruiz-style scaling of A and b: per-row and uniform per-cone-block
    column factors, three passes.  Returns (As, bs, dr, dc, col_factors);
    ``col_factors`` lists each pass's (block slice, 1 / column norm) in the
    order applied, for ``_Prepared.scale_objective`` to replay on c."""
    A = problem.A.copy()
    b = problem.b.copy()
    m, n = A.shape
    dr = np.ones(m)
    dc = np.ones(n)
    col_factors = []
    slices = _ConeVec(problem.cones).slices
    for _ in range(3):
        if m:
            rn = np.sqrt(np.abs(A).max(axis=1))
            rn[rn == 0] = 1.0
            A /= rn[:, None]
            b /= rn
            dr /= rn
        for sl in slices:
            cn = np.sqrt(np.abs(A[:, sl]).max()) if m else 1.0
            if cn == 0:
                cn = 1.0
            A[:, sl] /= cn
            col_factors.append((sl, 1.0 / cn))
            dc[sl] /= cn
    return A, b, dr, dc, col_factors


class _Prepared:
    """The part of a solve that reads only A, b and the cones.

    Made once per constraint set and shared by every objective solved over
    it: the equilibrated As and bs with their row and column factors, the
    column factors to replay on each c, the Schur plan, the cone identity e
    and the barrier degree nu.
    """

    def __init__(self, problem):
        self.layout = _ConeVec(problem.cones)
        self.As, self.bs, self.dr, self.dc, self.col_factors = _equilibrate(problem)
        self.schur = _SchurPlan(problem.cones, self.layout.slices, self.As)
        self.e = np.concatenate([identity_element(blk) for blk in problem.cones])
        self.nu = sum(blk.degree for blk in problem.cones)

    def scale_objective(self, c):
        """(cs, cscale): c through the column factors, in the order A took
        them, then divided by cscale = max(1, max |c|)."""
        if c.shape != self.dc.shape or not np.all(np.isfinite(c)):
            raise ValueError(f"c must be a finite vector of length {self.dc.size}")
        c = c.copy()
        for sl, f in self.col_factors:
            c[sl] *= f
        cscale = max(1.0, np.abs(c).max())
        c /= cscale
        return c, cscale


def solve(problem: ConicProblem, opts: SolveOptions | None = None) -> ConicSolution:
    """Solve a mixed-cone program; deterministic for identical inputs.

    The work on A, b and the cones is the problem's ``prepared()``, made by
    the first solve; c is checked and scaled on every call.
    """
    opts = opts or SolveOptions()
    prep = problem.prepared()
    cs, cscale = prep.scale_objective(problem.c)
    layout, As, bs, dr, dc = prep.layout, prep.As, prep.bs, prep.dr, prep.dc
    schur, e, nu = prep.schur, prep.e, prep.nu
    A0, b0, c0 = problem.A, problem.b, problem.c
    m = As.shape[0]
    cones = problem.cones

    x = e.copy()
    z = e.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    bnorm = 1.0 + np.linalg.norm(b0)
    cnorm = 1.0 + np.linalg.norm(c0)

    log = []
    status, cert = MAX_ITER, None
    best = None
    best_score = np.inf
    stall = 0
    no_progress = 0
    timings = dict.fromkeys(PHASES, 0.0)

    @contextmanager
    def timed(phase):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            timings[phase] += time.perf_counter() - t0

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
        current = (xo, yo, zo, pobj, dobj, relgap, pres, dres)
        score = max(pres, dres, relgap)
        if score < 0.9 * best_score:
            best_score = score
            best = current
            no_progress = 0
        else:
            no_progress += 1

        # Three separate tests: a NaN residual fails each, but max() could pass it.
        if pres <= TOL and dres <= TOL and relgap <= TOL:
            status, best = OPTIMAL, current
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
        if by > 0 and np.linalg.norm(A0.T @ (yu / by) + zu / by) <= INF_TOL * cnorm:
            status, cert, best = PRIMAL_INFEASIBLE, yu / by, current
            break
        cx = float(c0 @ xu)
        if cx < 0 and np.linalg.norm(A0 @ (xu / -cx)) <= INF_TOL * bnorm:
            status, cert, best = DUAL_INFEASIBLE, xu / -cx, current
            break

        with timed("nt_scaling"):
            try:
                scalings = [
                    nt_scaling(blk, xb, zb)
                    for blk, xb, zb in zip(cones, layout.blocks(x), layout.blocks(z))
                ]
            except (FloatingPointError, np.linalg.LinAlgError):
                break  # iterate degenerated numerically; report best so far
        lam = np.concatenate([sc.lam for sc in scalings])

        def per_block(op, v):
            """Apply the scaling method named ``op`` to each block of v."""
            out = np.empty_like(v)
            for sc, sl in zip(scalings, layout.slices):
                out[sl] = getattr(sc, op)(v[sl])
            return out

        # Schur complement S = A H A' (H = W'W), assembled from each block's
        # own rows: G G' over the nonnegative and PSD columns (G = A W', its
        # PSD rows expanded per chunk from As or their compact form), plus
        # each SOC block's G_b G_b' on the rows it touches.  A tiny ridge if
        # needed.
        with timed("schur_assembly"):
            S = schur.assemble(scalings)
            AHc = As @ per_block("apply_H", cs)

        # One factor per iteration, S^-1 = Linv' Linv, reused by every solve below.
        with timed("factor"):
            ridge = 0.0
            for attempt in range(4):
                try:
                    L = np.linalg.cholesky(S + ridge * np.eye(m))
                    break
                except np.linalg.LinAlgError:
                    ridge = max(1e-12 * (1.0 + np.trace(S) / max(m, 1)), ridge * 100 or 1e-12)
            else:
                break
            Linv = _tril_inv(L)
            del L

        def schur_solve(rhs):
            with timed("schur_solve"):
                return Linv.T @ (Linv @ rhs)

        q1 = schur_solve(AHc + bs)
        Atq1 = As.T @ q1
        p1 = per_block("apply_H", Atq1 - cs)
        # cs'p1 - bs'q1 = -p1'H^-1 p1: summed as a square, the tau pivot
        # keeps its sign where the difference would cancel.
        den = -float(np.sum(per_block("apply_WinvT", p1) ** 2)) - kappa / tau

        def newton(rp, rd, rg, g, dk):
            """Solve the linearized system for (dx, dy, dz, dtau, dkap):
                As dx - bs dtau = rp,    -As' dy - dz + cs dtau = rd,
                cs'dx - bs'dy + dkap = rg,    W^-T dx + W dz = g,
                kappa dtau + tau dkap = dk,
            eliminating dz and dx onto the Schur complement."""
            w1 = per_block("apply_Winv", g) + rd
            q2 = schur_solve(rp - As @ per_block("apply_H", w1))
            Atq2 = As.T @ q2
            p2 = per_block("apply_H", Atq2 + w1)
            dtau = (rg - float(cs @ p2) + float(bs @ q2) - dk / tau) / den
            dy = q2 + dtau * q1
            dx = p2 + dtau * p1
            dz = cs * dtau - (Atq2 + dtau * Atq1) - rd
            dkap = (dk - kappa * dtau) / tau
            return dx, dy, dz, dtau, dkap

        def newton_residual(rhs, d):
            dx, dy, dz, dtau, dkap = d
            return (
                rhs[0] - (As @ dx - bs * dtau),
                rhs[1] - (cs * dtau - As.T @ dy - dz),
                rhs[2] - (float(cs @ dx) - float(bs @ dy) + dkap),
                rhs[3] - (per_block("apply_WinvT", dx) + per_block("apply_W", dz)),
                rhs[4] - (kappa * dtau + tau * dkap),
            )

        def directions(sig, eta_corr, dkappa_corr):
            dc_vec = sig * mu * e - _jordan_sq(cones, layout, lam)
            if eta_corr is not None:
                dc_vec -= eta_corr
            rhs = (
                -(1.0 - sig) * r_p,
                -(1.0 - sig) * r_d,
                -(1.0 - sig) * r_g,
                per_block("lam_div", dc_vec),
                sig * mu - tau * kappa - dkappa_corr,
            )
            # One step of iterative refinement on the whole system, kept only
            # if it shrinks the residual: in the ill-conditioned endgame the
            # eliminated solve drifts from the equations it stands for.
            d = newton(*rhs)
            res = newton_residual(rhs, d)
            refined = tuple(u + v for u, v in zip(d, newton(*res)))
            if _norm(newton_residual(rhs, refined)) < _norm(res):
                return refined
            return d

        # Predictor (affine scaling) direction.
        dx_a, dy_a, dz_a, dtau_a, dkap_a = directions(0.0, None, 0.0)
        with timed("step_search"):
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

        with timed("step_search"):
            a_max = _step_len(cones, layout, x, dx, z, dz, tau, dtau, kappa, dkap)
        alpha = min(1.0, FRAC_TO_BOUNDARY * a_max)
        if alpha < 1e-6:
            # Recenter: a pure centering step is better conditioned and
            # restores interior margin after a degenerate combined step.
            dx, dy, dz, dtau, dkap = directions(1.0, None, 0.0)
            with timed("step_search"):
                a_max = _step_len(cones, layout, x, dx, z, dz, tau, dtau, kappa, dkap)
            alpha = min(1.0, FRAC_TO_BOUNDARY * a_max)
        if alpha <= 1e-10:
            break  # stalled; report best iterate
        stall = stall + 1 if alpha < 1e-6 else 0

        # Keep the new iterate strictly interior despite rounding in a_max.
        with timed("step_search"):
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
    if status == MAX_ITER and max(pres, dres, relgap) <= opts.tol_relaxed:
        status = OPTIMAL
    return ConicSolution(
        status, xo, yo, zo, pobj, dobj, relgap, pres, dres, log, cert, timings
    )


def _tril_inv(L):
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: above the leaf
    order only matrix products, about k^3/3 multiply-adds in all.
    """
    k = L.shape[0]
    if k <= _TRIL_LEAF:
        return np.linalg.solve(L, np.eye(k))
    h = k // 2
    Ainv = _tril_inv(L[:h, :h])
    Cinv = _tril_inv(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = Ainv
    out[h:, h:] = Cinv
    out[h:, :h] = -Cinv @ (L[h:, :h] @ Ainv)
    return out


def _norm(parts):
    """Euclidean norm of a tuple of vectors and scalars taken as one vector."""
    return float(np.sqrt(sum(np.vdot(p, p) for p in parts)))


def _jordan_sq(cones, layout, lam):
    return np.concatenate(
        [jordan_mul(blk, lam[sl], lam[sl]) for blk, sl in zip(cones, layout.slices)]
    )


def _strictly_interior(cones, layout, v):
    for blk, sl in zip(cones, layout.slices):
        if blk.kind == PSD_KIND:
            # Cholesky success is the margin test actually needed downstream.
            try:
                np.linalg.cholesky(smat(v[sl], blk.size))
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
