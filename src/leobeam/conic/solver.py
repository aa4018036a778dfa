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
    cone_units,
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
# iterations.  ``factor`` is the left-looking pass that writes the Cholesky
# factor L of S over S and inverts L's diagonal blocks; ``schur_solve`` is
# the substitutions with them.
PHASES = ("nt_scaling", "schur_assembly", "factor", "schur_solve", "step_search")
# Width of the column panels of the Schur factor L: each diagonal block is
# factored and inverted by one LAPACK call each.  A Schur system of this
# order or less is one block, whose factor and inverse are numpy's
# cholesky and solve of the whole S, solved as Linv'(Linv r).
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
    column factors to replay on each c, the cone slices, the cone units
    (``cones.ConeUnit``: each PSD block alone, each run of adjacent
    nonnegative or second-order blocks as one) with their column slices,
    the Schur plan, the cone identity e and the barrier degree nu.  No solve writes any of
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
        self.slices = _slices([blk.veclen for blk in cones])
        self.m, self.n = self.b.shape[0], self.slices[-1].stop
        A = np.asarray(A, dtype=float)
        if A.shape != (self.m, self.n):
            raise ValueError(f"A must be {self.m}x{self.n}, got {A.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(self.b))):
            raise ValueError("problem data must be finite")
        self.As, self.bs, self.dr, self.dc, self.col_factors = _equilibrate(
            A, self.b, self.slices
        )
        self.units = cone_units(cones)
        self.unit_slices = _slices([unit.veclen for unit in self.units])
        self.schur = _SchurPlan(self.units, self.unit_slices, self.As)
        self.e = np.concatenate([identity_element(blk) for blk in cones])
        self.nu = sum(blk.degree for blk in cones)
        self.runs = []  # column slices of the maximal runs of non-SOC blocks
        for unit, sl in zip(self.units, self.unit_slices):
            if unit.kind != SOC_KIND:
                if self.runs and self.runs[-1].stop == sl.start:
                    sl = slice(self.runs.pop().start, sl.stop)
                self.runs.append(sl)
        # Row, column and value of each nonzero of As in the SOC columns.
        rows, cols, vals = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
        for _, _, start, r_b, sub, _ in self.schur.soc:
            r, k = np.nonzero(sub)
            rows.append(r_b[r])
            cols.append(start + k)
            vals.append(sub[r, k])
        self.soc_rows, self.soc_cols, self.soc_vals = map(np.concatenate, (rows, cols, vals))

    @property
    def A(self):
        """A new array holding the unscaled A, rebuilt from the equilibrated
        As: each entry within a few ulp."""
        return self.As / self.dr[:, None] / self.dc

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
    """How each cone unit of the equilibrated A enters S = A H A'.

    Orthants and PSD blocks fill the columns of one dense G = A W' (in
    cone order), and S starts as G G', so numpy takes its symmetric syrk
    path.  A PSD block's rows are read from its own columns of As as G is
    written (``PsdRows``), one bounded chunk at a time, so the plan holds
    only their index and coefficient vectors and a view of As.  A
    second-order block's columns are nonzero only on its own rows r_b (an
    outage SOC touches its terminal's 13 or 79 rows of 558 at desk scale),
    so it adds G_b G_b' into S[r_b, r_b] with G_b = A[r_b, b] W_b' instead,
    W_b being block b's part of its run's scaling.  The plan holds r_b as
    its runs of consecutive rows (a desk outage block has one or two) and
    adds the term through one basic slice of S per pair of runs.  The
    nonzeros of these A[r_b, b] are all of the SOC columns' nonzeros, and
    the problem's products with As read them from there.
    """

    def __init__(self, units, slices, As):
        self.m = As.shape[0]
        self.dense = []  # (unit index, G column slice, row_operand)
        # (unit index, block in the run, first column, rows r_b, As[r_b, b], runs of r_b)
        self.soc = []
        width = 0
        for i, (unit, sl) in enumerate(zip(units, slices)):
            cols = As[:, sl]
            if unit.kind == SOC_KIND:
                for j, (head, size) in enumerate(zip(unit.heads, unit.sizes)):
                    sub = cols[:, head : head + size]
                    rows = np.flatnonzero((sub != 0).any(axis=1))
                    self.soc.append((i, j, sl.start + head, rows, sub[rows], _runs(rows)))
                continue
            op = row_operand(unit, cols)
            self.dense.append((i, slice(width, width + unit.veclen), op))
            width += unit.veclen
        self.width = width

    def assemble(self, scalings):
        """S = A H A' at the iterate whose per-unit NT scalings are given."""
        G = np.empty((self.m, self.width))
        for i, gsl, op in self.dense:
            if isinstance(op, PsdRows):
                op.write_W_cols(scalings[i], G[:, gsl])
            else:
                G[:, gsl] = scalings[i].apply_W_cols(op)
        S = G @ G.T
        del G
        for i, j, _, _, cols, runs in self.soc:
            Gb = scalings[i].block_W_cols(j, cols)
            g = Gb @ Gb.T
            for p, lp in runs:
                for q, lq in runs:
                    S[p, q] += g[lp, lq]
        return S


def _slices(sizes):
    """Consecutive slices of the given lengths, from 0."""
    ends = np.cumsum(sizes).tolist()
    return [slice(end - size, end) for size, end in zip(sizes, ends)]


def _runs(rows):
    """(rows of S, rows of the block) of each run of consecutive entries of
    the increasing index array ``rows``, as a pair of slices."""
    edges = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1), rows.size]
    return [
        (slice(rows[a], rows[b - 1] + 1), slice(a, b)) for a, b in zip(edges, edges[1:]) if b > a
    ]


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
    built, and the solve only reads it; c is checked and scaled here.  Each
    iteration builds one ``_NewtonSystem`` at its iterate, and the
    predictor, corrector and any recentering direction all come from it.
    """
    opts = opts or SolveOptions()
    c0 = np.asarray(c, dtype=float)
    cs, cscale = problem.scale_objective(c0)
    bs, b0, nu = problem.bs, problem.b, problem.nu

    x, z, y = problem.e.copy(), problem.e.copy(), np.zeros(problem.m)
    tau, kappa = 1.0, 1.0

    with np.errstate(over="ignore"):  # overflowed data: see _metrics
        bnorm = 1.0 + np.linalg.norm(b0)
        cnorm = 1.0 + np.linalg.norm(c0)

    log = []
    status, cert = MAX_ITER, None
    best, best_score = None, np.inf
    stall = no_progress = 0
    timings = dict.fromkeys(PHASES, 0.0)
    with _timed(timings, "nt_scaling"):
        scalings = _scale_at(problem, x, z)
    alpha = sigma = 0.0
    for it in range(ITER_LIMIT):
        r_p = problem.matvec(x) - bs * tau
        r_d = -problem.rmatvec(y) - z + cs * tau
        r_g = float(cs @ x - bs @ y + kappa)
        mu = _mu(nu, x, z, tau, kappa)

        xo, yo, zo, pres, dres, pobj, dobj, relgap = _metrics(
            problem, cscale, c0, b0, x, y, z, tau, r_p, r_d
        )
        log.append(IterateInfo(it, pobj, dobj, pres, dres, relgap, mu, tau, kappa, alpha, sigma))
        current = (xo, yo, zo, pobj, dobj, relgap, pres, dres)
        # Residuals that are not finite (overflowed data) end the solve: no
        # step from here can be scored.
        if not (np.isfinite(pres) and np.isfinite(dres) and np.isfinite(relgap)):
            break
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

        system = _NewtonSystem(problem, cs, scalings, tau, kappa, timings)
        if system.factor is None:
            break
        point, res = (x, z, tau, kappa), (r_p, r_d, r_g)
        # Predictor (affine scaling) direction.
        d_aff, a_aff = _search(system, point, res, mu, 0.0)
        dx_a, _, dz_a, dtau_a, dkap_a = d_aff
        a = min(1.0, a_aff)
        mu_aff = _mu(nu, x + a * dx_a, z + a * dz_a, tau + a * dtau_a, kappa + a * dkap_a)
        sigma = min(max((mu_aff / mu) ** 3, 1e-8), 1.0 - 1e-8)

        # Corrector uses scaled-space products of the affine direction.
        eta = _jordan(
            problem, system.per_unit("apply_WinvT", dx_a), system.per_unit("apply_W", dz_a)
        )
        d, a_max = _search(system, point, res, mu, sigma, eta, dtau_a * dkap_a)
        alpha = min(1.0, FRAC_TO_BOUNDARY * a_max)
        if alpha < 1e-6:
            # Recenter: a pure centering step is better conditioned and
            # restores interior margin after a degenerate combined step.
            d, a_max = _search(system, point, res, mu, 1.0)
            alpha = min(1.0, FRAC_TO_BOUNDARY * a_max)
        del system  # its factor: the next iteration assembles S without it
        if alpha <= 1e-10:
            break  # stalled; report best iterate
        stall = stall + 1 if alpha < 1e-6 else 0

        # The trial point's NT scalings, which the next iteration uses, are
        # its interior test: a block's scaling raises unless the point is
        # strictly inside it, and then the step shrinks (a_max is rounded).
        dx, dy, dz, dtau, dkap = d
        with _timed(timings, "nt_scaling"):
            for _ in range(12):
                xn = x + alpha * dx
                zn = z + alpha * dz
                try:
                    scalings = _scale_at(problem, xn, zn)
                    break
                except (FloatingPointError, np.linalg.LinAlgError):
                    alpha *= 0.8
            else:
                break  # no interior trial point; report the best iterate
        x, y, z = xn, y + alpha * dy, zn
        tau += alpha * dtau
        kappa += alpha * dkap

    if best is None:
        raise ConvergenceError(f"no iterate with finite residuals in {len(log)} iterations")
    xo, yo, zo, pobj, dobj, relgap, pres, dres = best
    if status == MAX_ITER and max(pres, dres, relgap) <= opts.tol_relaxed:
        status = OPTIMAL
    return ConicSolution(status, xo, yo, zo, pobj, dobj, relgap, pres, dres, log, cert, timings)


class _NewtonSystem:
    """The linearized system at one iterate, for (dx, dy, dz, dtau, dkap):
        As dx - bs dtau = rp,    -As' dy - dz + cs dtau = rd,
        cs'dx - bs'dy + dkap = rg,    W^-T dx + W dz = g,
        kappa dtau + tau dkap = dk,
    with dz and dx eliminated onto the Schur complement S = As H As'
    (H = W'W), which is assembled and factored here, once, for every
    direction of the iteration.  ``factor`` is None when no ridge makes S
    factor, and then nothing else is set.
    """

    def __init__(self, problem, cs, scalings, tau, kappa, timings):
        self.problem, self.cs, self.scalings = problem, cs, scalings
        self.tau, self.kappa, self.timings = tau, kappa, timings
        # S is G G' over the orthant and PSD columns (G = A W') plus each
        # SOC block's G_b G_b' on its own rows; L is written over it.
        with _timed(timings, "schur_assembly"):
            S = problem.schur.assemble(scalings)
            AHc = problem.matvec(self.per_unit("apply_H", cs))
        with _timed(timings, "factor"):
            self.factor = _factor(S)
        if self.factor is None:
            return
        self.q1 = self.schur_solve(AHc + problem.bs)
        self.Atq1 = problem.rmatvec(self.q1)
        self.p1 = self.per_unit("apply_H", self.Atq1 - cs)
        # cs'p1 - bs'q1 = -p1'H^-1 p1: summed as a square, the tau pivot
        # keeps its sign where the difference would cancel.
        self.den = -float(np.sum(self.per_unit("apply_WinvT", self.p1) ** 2)) - kappa / tau
        lam = np.concatenate([sc.lam for sc in scalings])
        self.lam_sq = _jordan(problem, lam, lam)

    def per_unit(self, op, v):
        """Apply the scaling method named ``op`` to each unit of v."""
        out = np.empty_like(v)
        for sc, sl in zip(self.scalings, self.problem.unit_slices):
            out[sl] = getattr(sc, op)(v[sl])
        return out

    def schur_solve(self, rhs):
        with _timed(self.timings, "schur_solve"):
            return self.factor.solve(rhs)

    def solve(self, rhs):
        """The system's solution at rhs = (rp, rd, rg, g, dk)."""
        rp, rd, rg, g, dk = rhs
        p, cs, bs = self.problem, self.cs, self.problem.bs
        w1 = self.per_unit("apply_Winv", g) + rd
        q2 = self.schur_solve(rp - p.matvec(self.per_unit("apply_H", w1)))
        Atq2 = p.rmatvec(q2)
        p2 = self.per_unit("apply_H", Atq2 + w1)
        dtau = (rg - float(cs @ p2) + float(bs @ q2) - dk / self.tau) / self.den
        dy = q2 + dtau * self.q1
        dx = p2 + dtau * self.p1
        dz = cs * dtau - (Atq2 + dtau * self.Atq1) - rd
        dkap = (dk - self.kappa * dtau) / self.tau
        return dx, dy, dz, dtau, dkap

    def residual(self, rhs, d):
        """rhs minus the system's left side at d."""
        p, cs, bs = self.problem, self.cs, self.problem.bs
        dx, dy, dz, dtau, dkap = d
        return (
            rhs[0] - (p.matvec(dx) - bs * dtau),
            rhs[1] - (cs * dtau - p.rmatvec(dy) - dz),
            rhs[2] - (float(cs @ dx) - float(bs @ dy) + dkap),
            rhs[3] - (self.per_unit("apply_WinvT", dx) + self.per_unit("apply_W", dz)),
            rhs[4] - (self.kappa * dtau + self.tau * dkap),
        )

    def direction(self, rhs):
        """``solve(rhs)`` after one step of iterative refinement on the
        whole system, kept only if it shrinks the residual: in the
        ill-conditioned endgame the eliminated solve drifts from the
        equations it stands for."""
        d = self.solve(rhs)
        res = self.residual(rhs, d)
        refined = tuple(u + v for u, v in zip(d, self.solve(res)))
        if _norm(self.residual(rhs, refined)) < _norm(res):
            return refined
        return d


def _search(system, point, res, mu, sig, eta=None, dk_corr=0.0):
    """(direction, longest step in the cones) from point = (x, z, tau,
    kappa), whose residuals are res = (r_p, r_d, r_g), toward the centre
    sig mu; a corrector also passes its second-order terms."""
    dc_vec = sig * mu * system.problem.e - system.lam_sq
    if eta is not None:
        dc_vec -= eta
    rhs = (
        *(-(1.0 - sig) * r for r in res),
        system.per_unit("lam_div", dc_vec),
        sig * mu - system.tau * system.kappa - dk_corr,
    )
    d = system.direction(rhs)
    with _timed(system.timings, "step_search"):
        return d, _step_len(system.problem, point, d)


@contextmanager
def _timed(timings, phase):
    """Adds the seconds the block takes to timings[phase] (see PHASES)."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[phase] += time.perf_counter() - t0


def _scale_at(problem, x, z):
    """Per-unit NT scalings at (x, z); raises FloatingPointError or
    LinAlgError unless every block of x and z is strictly interior."""
    return [
        nt_scaling(unit, x[sl], z[sl]) for unit, sl in zip(problem.units, problem.unit_slices)
    ]


def _mu(nu, x, z, tau, kappa):
    """The complementarity measure (x'z + tau kappa) / (nu + 1)."""
    return (x @ z + tau * kappa) / (nu + 1.0)


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
    unscaled vectors.  Data whose norms overflow make them inf or nan
    without a warning, and the loop head ends the solve on them.
    """
    xo, yo, zo = _unscaled(problem, cscale, x / tau, y / tau, z / tau)
    with np.errstate(over="ignore", invalid="ignore"):
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


def _factor(S):
    """The factor of S + ridge I, written over S, or None if four attempts
    fail.

    The ridge is 0 unless a pass fails.  After the first failure it is
    1e-12 (1 + tr(S)/m), S's trace taken before any ridge, and 100 times
    the last ridge after each later one.  Before each retry S's lower
    triangle is restored from its strict upper one, which no pass writes,
    and the ridge is written onto the diagonal S had at the start.  This
    needs S exactly symmetric, as G G' and the SOC blocks' Gram terms are.
    """
    m = S.shape[0]
    diag, trace = S.diagonal().copy(), np.trace(S)
    ridge = 0.0
    for _ in range(4):
        try:
            return _SchurFactor(S)
        except np.linalg.LinAlgError:
            ridge = max(1e-12 * (1.0 + trace / max(m, 1)), ridge * 100 or 1e-12)
            np.copyto(S, S.T, where=np.tri(m, k=-1, dtype=bool))
            np.fill_diagonal(S, diag + ridge)
    return None


class _SchurFactor:
    """S = L L', factored in place and solved by blocked forward and back
    substitution.

    One left-looking pass over column panels of width ``_SCHUR_BLOCK``
    reads S's lower triangle and writes L over it.  For the panel b that
    starts at row i, P = S[i:, b] - L[i:, :i] L[b, :i]' (one gemm); P's top
    block is factored by numpy's cholesky, giving L[b, b], and inverted by
    one LAPACK solve; then L[b.stop:, b] = P[n:] Linv_b'.  The substitutions
    take products with the inverses and with the strips of L left of and
    below each block; S's strict upper triangle is left as it was.  A
    system of order ``_SCHUR_BLOCK`` or less is one block, factored by
    ``np.linalg.cholesky(S)`` and solved as Linv'(Linv r) with
    Linv = ``np.linalg.solve(L, I)``.  A panel whose block is not positive
    definite raises ``np.linalg.LinAlgError``, with S's lower triangle
    partly overwritten (see ``_factor``).
    """

    def __init__(self, S):
        m = S.shape[0]
        self.L = S
        self.blocks = [slice(i, min(i + _SCHUR_BLOCK, m)) for i in range(0, m, _SCHUR_BLOCK)]
        self.inv = []
        for b in self.blocks:
            i, n = b.start, b.stop - b.start
            if i:
                P = S[i:, :i] @ S[b, :i].T
                np.subtract(S[i:, b], P, out=P)
            else:
                P = S[:, b]
            D = np.linalg.cholesky(P[:n])
            Dinv = np.linalg.solve(D, np.eye(n))
            S[b.stop :, b] = P[n:] @ Dinv.T
            np.copyto(S[b, b], D, where=np.tri(n, dtype=bool))
            self.inv.append(Dinv)

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


def _jordan(problem, a, b):
    """The Jordan product a o b, unit by unit."""
    return np.concatenate(
        [jordan_mul(unit, a[sl], b[sl]) for unit, sl in zip(problem.units, problem.unit_slices)]
    )


def _step_len(problem, point, d):
    """Longest step along d = (dx, dy, dz, dtau, dkap) from
    point = (x, z, tau, kappa) that stays in the cones."""
    x, z, tau, kappa = point
    dx, _, dz, dtau, dkap = d
    # A direction that is not finite (overflowed data) gets no step: the solve stalls.
    if not all(np.isfinite(v).all() for v in (dx, dz, dtau, dkap)):
        return 0.0
    a = np.inf
    for unit, sl in zip(problem.units, problem.unit_slices):
        a = min(a, max_step(unit, x[sl], dx[sl]), max_step(unit, z[sl], dz[sl]))
    return min([a] + [-v / dv for v, dv in ((tau, dtau), (kappa, dkap)) if dv < 0])
