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
    SOC as SOC_KIND,
    PsdRows,
    identity_element,
    jordan_mul,
    max_step,
    nt_scaling,
    row_operand,
)

OPTIMAL = "OPTIMAL"
PRIMAL_INFEASIBLE = "PRIMAL_INFEASIBLE"
DUAL_INFEASIBLE = "DUAL_INFEASIBLE"
MAX_ITER = "MAX_ITER"

# Keys of ConicSolution.timings: seconds per solver phase, summed over
# iterations.  ``factor`` is the Cholesky factor of S and the inverses of
# its diagonal blocks; ``schur_solve`` is the substitutions with them.
PHASES = ("nt_scaling", "schur_assembly", "factor", "schur_solve", "step_search")
# Order of the diagonal blocks of the Schur factor L that are inverted, each
# by one LAPACK solve; a Schur system of this order or less is one block,
# solved as Linv'(Linv r).
_SCHUR_BLOCK = 96
# Relative residuals and gap at or below which an iterate is OPTIMAL.
TOL = 1e-8
# Relative residual below which a certificate ray proves infeasibility.
INF_TOL = 1e-9
# Share of the distance to the cone boundary that one step takes.
FRAC_TO_BOUNDARY = 0.99
# Iterations after which a solve stops with its best iterate (MAX_ITER).
ITER_LIMIT = 100


class ConicProblem:
    """One constraint set A x = b, x in cones, with the solver's work on A,
    b and the cones done once, here; each solve passes its own objective c.

    The constructor checks A, b and the cones, then takes A over: it
    equilibrates A in place (``_equilibrate``), so a caller that keeps using
    its array passes a copy.  A rejected A is left unscaled.  The problem
    holds the equilibrated As and bs with their row and column factors, the
    column factors to replay on each c, the cone slices, the Schur plan,
    the cone identity e and the barrier degree nu.  No solve writes any of
    it, so one problem serves every objective posed over its constraints.

    Products with As (``matvec``, ``rmatvec``) read the second-order
    columns at the cost of their nonzeros: one dense product per contiguous
    run of other columns (all of As when there is no SOC block), plus one
    gather and ``np.bincount`` over the SOC nonzeros, which the Schur plan's
    rows r_b give (an outage SOC column has one).
    """

    def __init__(self, A, b, cones):
        self.b = np.asarray(b, dtype=float)
        self.cones = cones
        if not cones:
            raise ValueError("at least one cone block required")
        self.slices = []
        n = 0
        for blk in cones:
            self.slices.append(slice(n, n + blk.veclen))
            n += blk.veclen
        A = np.asarray(A, dtype=float)
        if A.shape != (self.m, n):
            raise ValueError(f"A must be {self.m}x{n}, got {A.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(self.b))):
            raise ValueError("problem data must be finite")
        self.As, self.bs, self.dr, self.dc, self.col_factors = _equilibrate(
            A, self.b, self.slices
        )
        self.schur = _SchurPlan(cones, self.slices, self.As)
        self.e = np.concatenate([identity_element(blk) for blk in cones])
        self.nu = sum(blk.degree for blk in cones)
        self.runs = []  # column slices of the maximal runs of non-SOC blocks
        for blk, sl in zip(cones, self.slices):
            if blk.kind != SOC_KIND:
                if self.runs and self.runs[-1].stop == sl.start:
                    sl = slice(self.runs.pop().start, sl.stop)
                self.runs.append(sl)
        # Row, column and value of each nonzero of As in the SOC columns.
        rows, cols, vals = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
        for i, r_b, sub in self.schur.soc:
            r, k = np.nonzero(sub)
            rows.append(r_b[r])
            cols.append(self.slices[i].start + k)
            vals.append(sub[r, k])
        self.soc_rows, self.soc_cols, self.soc_vals = map(np.concatenate, (rows, cols, vals))

    @property
    def A(self):
        """A new array holding the unscaled A, rebuilt from the equilibrated
        As: each entry within a few ulp."""
        return self.As / self.dr[:, None] / self.dc

    @property
    def n(self):
        return self.dc.shape[0]

    @property
    def m(self):
        return self.b.shape[0]

    def matvec(self, v):
        """As @ v (see the class docstring)."""
        out = _bincount(self.soc_rows, self.soc_vals * v[self.soc_cols], self.m)
        for sl in self.runs:
            out += self.As[:, sl] @ v[sl]
        return out

    def rmatvec(self, y):
        """As' @ y (see the class docstring)."""
        out = _bincount(self.soc_cols, self.soc_vals * y[self.soc_rows], self.n)
        for sl in self.runs:
            out[sl] = self.As[:, sl].T @ y
        return out

    def scale_objective(self, c):
        """(cs, cscale): c through the column factors, in the order A took
        them, then divided by cscale = max(1, max |c|)."""
        if c.shape != self.dc.shape or not np.all(np.isfinite(c)):
            raise ValueError(f"c must be a finite vector of length {self.n}")
        c = c.copy()
        for sl, f in self.col_factors:
            c[sl] *= f
        cscale = max(1.0, np.abs(c).max())
        c /= cscale
        return c, cscale


@dataclass
class SolveOptions:
    tol_relaxed: float = 1e-7  # accept as OPTIMAL when progress stalls above TOL


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
    timings: dict = field(default_factory=dict)  # seconds per phase, see PHASES

    @property
    def n_iter(self):
        return len(self.iterations)


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
    The nonzeros of these A[r_b, b] are all of the SOC columns' nonzeros,
    and the problem's products with As read them from there.
    """

    def __init__(self, cones, slices, As):
        self.m = As.shape[0]
        self.dense = []  # (block index, G column slice, row_operand)
        self.soc = []  # (block index, rows r_b, As[r_b, b])
        width = 0
        for i, (blk, sl) in enumerate(zip(cones, slices)):
            cols = As[:, sl]
            if blk.kind == SOC_KIND:
                rows = np.flatnonzero((cols != 0).any(axis=1))
                self.soc.append((i, rows, cols[rows]))
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
        for i, rows, cols in self.soc:
            Gb = scalings[i].apply_W_cols(cols)
            S[np.ix_(rows, rows)] += Gb @ Gb.T
        return S


def _equilibrate(A, b, slices):
    """Ruiz-style scaling of A and b: per-row and uniform per-cone-block
    column factors, three passes.  A is scaled in place and no temporary
    of its size is made.  Returns (As, bs, dr, dc, col_factors), As being
    A itself; ``col_factors`` lists each pass's (block slice, 1 / column
    norm) in the order applied, for ``ConicProblem.scale_objective`` to
    replay on c."""
    b = b.copy()
    m, n = A.shape
    dr = np.ones(m)
    dc = np.ones(n)
    col_factors = []
    for _ in range(3):
        if m:
            rn = np.sqrt(np.maximum(A.max(axis=1), -A.min(axis=1)))
            rn[rn == 0] = 1.0
            A /= rn[:, None]
            b /= rn
            dr /= rn
        for sl in slices:
            cols = A[:, sl]
            cn = np.sqrt(max(cols.max(), -cols.min())) if m else 1.0
            if cn == 0:
                cn = 1.0
            cols /= cn
            col_factors.append((sl, 1.0 / cn))
            dc[sl] /= cn
    return A, b, dr, dc, col_factors


def solve(problem: ConicProblem, c, opts: SolveOptions | None = None) -> ConicSolution:
    """Minimize c'x over the problem's constraint set; deterministic for
    identical inputs.

    The work on A, b and the cones is the problem's, made when it was
    built, and the solve only reads it; c is checked and scaled here.
    """
    opts = opts or SolveOptions()
    c0 = np.asarray(c, dtype=float)
    cs, cscale = problem.scale_objective(c0)
    Av, Aty = problem.matvec, problem.rmatvec
    bs, slices = problem.bs, problem.slices
    schur, e, nu = problem.schur, problem.e, problem.nu
    b0 = problem.b
    m = problem.m
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

    def scale_at(x, z):
        """Per-block NT scalings at (x, z); raises FloatingPointError or
        LinAlgError unless every block of x and z is strictly interior."""
        return [nt_scaling(blk, x[sl], z[sl]) for blk, sl in zip(cones, slices)]

    with timed("nt_scaling"):
        scalings = scale_at(x, z)
    alpha = 0.0
    sigma = 0.0
    for it in range(ITER_LIMIT):
        r_p = Av(x) - bs * tau
        r_d = -Aty(y) - z + cs * tau
        r_g = float(cs @ x - bs @ y + kappa)
        mu = (x @ z + tau * kappa) / (nu + 1.0)

        xo, yo, zo, pres, dres, pobj, dobj, relgap = _metrics(
            problem, cscale, c0, b0, x, y, z, tau, r_p, r_d
        )
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

        # Infeasibility certificates: scale-free tests on the unscaled ray,
        # whose products with A the loop-head residuals give.
        xu, yu, _ = _unscaled(problem, cscale, x, y, z)
        Axu, Atyu_zu = _ray_products(problem, cs, cscale, tau, r_p, r_d)
        by = float(b0 @ yu)
        if by > 0 and np.linalg.norm(Atyu_zu / by) <= INF_TOL * cnorm:
            status, cert, best = PRIMAL_INFEASIBLE, yu / by, current
            break
        cx = float(c0 @ xu)
        if cx < 0 and np.linalg.norm(Axu / -cx) <= INF_TOL * bnorm:
            status, cert, best = DUAL_INFEASIBLE, xu / -cx, current
            break

        lam = np.concatenate([sc.lam for sc in scalings])

        def per_block(op, v):
            """Apply the scaling method named ``op`` to each block of v."""
            out = np.empty_like(v)
            for sc, sl in zip(scalings, slices):
                out[sl] = getattr(sc, op)(v[sl])
            return out

        # Schur complement S = A H A' (H = W'W), assembled from each block's
        # own rows: G G' over the nonnegative and PSD columns (G = A W', its
        # PSD rows expanded per chunk from As or their compact form), plus
        # each SOC block's G_b G_b' on the rows it touches.
        with timed("schur_assembly"):
            S = schur.assemble(scalings)
            AHc = Av(per_block("apply_H", cs))

        # One factor per iteration, with a tiny ridge if needed, reused by
        # every solve below; S goes.
        with timed("factor"):
            L = _cholesky(S)
            del S
            if L is None:
                break
            factor = _SchurFactor(L)

        def schur_solve(rhs):
            with timed("schur_solve"):
                return factor.solve(rhs)

        q1 = schur_solve(AHc + bs)
        Atq1 = Aty(q1)
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
            q2 = schur_solve(rp - Av(per_block("apply_H", w1)))
            Atq2 = Aty(q2)
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
                rhs[0] - (Av(dx) - bs * dtau),
                rhs[1] - (cs * dtau - Aty(dy) - dz),
                rhs[2] - (float(cs @ dx) - float(bs @ dy) + dkap),
                rhs[3] - (per_block("apply_WinvT", dx) + per_block("apply_W", dz)),
                rhs[4] - (kappa * dtau + tau * dkap),
            )

        def directions(sig, eta_corr, dkappa_corr):
            dc_vec = sig * mu * e - _jordan_sq(cones, slices, lam)
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
            a_aff = _step_len(cones, slices, x, dx_a, z, dz_a, tau, dtau_a, kappa, dkap_a)
        a_aff = min(1.0, a_aff)
        mu_aff = (
            (x + a_aff * dx_a) @ (z + a_aff * dz_a)
            + (tau + a_aff * dtau_a) * (kappa + a_aff * dkap_a)
        ) / (nu + 1.0)
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        # Corrector uses scaled-space products of the affine direction.
        eta = np.concatenate(
            [
                jordan_mul(blk, sc.apply_WinvT(dx_a[sl]), sc.apply_W(dz_a[sl]))
                for blk, sc, sl in zip(cones, scalings, slices)
            ]
        )
        dx, dy, dz, dtau, dkap = directions(sigma, eta, dtau_a * dkap_a)

        with timed("step_search"):
            a_max = _step_len(cones, slices, x, dx, z, dz, tau, dtau, kappa, dkap)
        alpha = min(1.0, FRAC_TO_BOUNDARY * a_max)
        if alpha < 1e-6:
            # Recenter: a pure centering step is better conditioned and
            # restores interior margin after a degenerate combined step.
            dx, dy, dz, dtau, dkap = directions(1.0, None, 0.0)
            with timed("step_search"):
                a_max = _step_len(cones, slices, x, dx, z, dz, tau, dtau, kappa, dkap)
            alpha = min(1.0, FRAC_TO_BOUNDARY * a_max)
        if alpha <= 1e-10:
            break  # stalled; report best iterate
        stall = stall + 1 if alpha < 1e-6 else 0

        # The trial point's NT scalings, which the next iteration uses, are
        # its interior test: a block's scaling raises unless the point is
        # strictly inside it, and then the step shrinks (a_max is rounded).
        with timed("nt_scaling"):
            for _ in range(12):
                xn = x + alpha * dx
                zn = z + alpha * dz
                try:
                    scalings = scale_at(xn, zn)
                    break
                except (FloatingPointError, np.linalg.LinAlgError):
                    alpha *= 0.8
            else:
                break  # no interior trial point; report the best iterate
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


def _unscaled(problem, cscale, x, y, z):
    """A scaled (x, y, z) in the caller's units: dc x, cscale dr y, cscale z / dc."""
    return problem.dc * x, cscale * problem.dr * y, cscale * (z / problem.dc)


def _metrics(problem, cscale, c, b, x, y, z, tau, r_p, r_d):
    """The iterate (xo, yo, zo) = (x, y, z) / tau in the caller's units, with
    its pres, dres, pobj, dobj and relative gap.

    The residuals come from the loop head's r_p = As x - tau bs and
    r_d = -As'y - z + tau cs, with no product by A: As = diag(dr) A diag(dc),
    bs = dr b and cs = dc c / cscale give A xo - b = r_p / (tau dr) and
    A'yo + zo - c = -cscale r_d / (tau dc).  The objectives are taken on the
    unscaled vectors.
    """
    xo, yo, zo = _unscaled(problem, cscale, x / tau, y / tau, z / tau)
    pres = np.linalg.norm(r_p / (tau * problem.dr)) / (1.0 + np.linalg.norm(b))
    dres = cscale * np.linalg.norm(r_d / (tau * problem.dc)) / (1.0 + np.linalg.norm(c))
    pobj = float(c @ xo)
    dobj = float(b @ yo)
    relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return xo, yo, zo, pres, dres, pobj, dobj, relgap


def _ray_products(problem, cs, cscale, tau, r_p, r_d):
    """(A xu, A'yu + zu) at (xu, yu, zu) = unscaled (x, y, z), from the loop
    head's residuals as ``_metrics`` takes them: As x = r_p + tau bs and
    As'y + z = tau cs - r_d."""
    return (r_p + tau * problem.bs) / problem.dr, cscale * ((tau * cs - r_d) / problem.dc)


def _bincount(index, weights, size):
    """Sums of the weights per index, as floats also when there are none
    (``np.bincount`` gives integer zeros then)."""
    return np.bincount(index, weights, size).astype(float, copy=False)


def _cholesky(S):
    """L with S + ridge I = L L', or None if four attempts fail.

    The ridge is 0 unless a Cholesky fails.  After the first failure it is
    1e-12 (1 + tr(S)/m), S's trace taken before any ridge, and 100 times
    the last ridge after each later one.  Each retry writes the ridge onto
    the diagonal S had at the start, so S is changed in place.
    """
    m = S.shape[0]
    diag, trace = S.diagonal().copy(), np.trace(S)
    ridge = 0.0
    for _ in range(4):
        try:
            return np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            ridge = max(1e-12 * (1.0 + trace / max(m, 1)), ridge * 100 or 1e-12)
            np.fill_diagonal(S, diag + ridge)
    return None


class _SchurFactor:
    """S = L L', solved by blocked forward and back substitution.

    The diagonal blocks of L, of order ``_SCHUR_BLOCK``, are inverted by one
    LAPACK solve each; between them the substitutions take products with
    the strips of L left of and below each block.  A system of order
    ``_SCHUR_BLOCK`` or less is one block, whose solve is Linv'(Linv r) with
    Linv = ``np.linalg.solve(L, I)``.
    """

    def __init__(self, L):
        m = L.shape[0]
        self.L = L
        self.blocks = [slice(i, min(i + _SCHUR_BLOCK, m)) for i in range(0, m, _SCHUR_BLOCK)]
        self.inv = [np.linalg.solve(L[b, b], np.eye(b.stop - b.start)) for b in self.blocks]

    def solve(self, r):
        """x with L L' x = r: forward for L y = r, then back for L' x = y,
        each over x's blocks in place."""
        L = self.L
        x = np.empty_like(r)
        for b, Dinv in zip(self.blocks, self.inv):
            x[b] = Dinv @ (r[b] - L[b, : b.start] @ x[: b.start])
        for b, Dinv in zip(reversed(self.blocks), reversed(self.inv)):
            x[b] = Dinv.T @ (x[b] - L[b.stop :, b].T @ x[b.stop :])
        return x


def _norm(parts):
    """Euclidean norm of a tuple of vectors and scalars taken as one vector."""
    return float(np.sqrt(sum(np.vdot(p, p) for p in parts)))


def _jordan_sq(cones, slices, lam):
    return np.concatenate(
        [jordan_mul(blk, lam[sl], lam[sl]) for blk, sl in zip(cones, slices)]
    )


def _step_len(cones, slices, x, dx, z, dz, tau, dtau, kappa, dkap):
    # A direction that is not finite (overflowed data) gets no step: the solve stalls.
    if not all(np.isfinite(d).all() for d in (dx, dz, dtau, dkap)):
        return 0.0
    a = np.inf
    for blk, sl in zip(cones, slices):
        a = min(a, max_step(blk, x[sl], dx[sl]), max_step(blk, z[sl], dz[sl]))
    if dtau < 0:
        a = min(a, -tau / dtau)
    if dkap < 0:
        a = min(a, -kappa / dkap)
    return a
