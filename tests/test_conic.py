import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import correlated_cov, count_calls, desk_config
from oracles import (
    dense_schur,
    embed_hermitian,
    fancy_smat,
    fancy_svec,
    hermitian_from_embedding,
    random_feasible_problem,
    random_hermitian,
    random_hermitian_program,
    solve_conic_admm,
)

import leobeam
from leobeam import conic
from leobeam.errors import ConvergenceError
from leobeam.conic import (
    MAX_ITER,
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    DUAL_INFEASIBLE,
    ConeBlock,
    ConeProgramBuilder,
    ConicProblem,
    SolveOptions,
    solve,
)
from leobeam.conic.cones import (
    CHUNK_ELEMENTS,
    PsdRows,
    identity_element,
    interior_margin,
    jordan_mul,
    max_step,
    nt_scaling,
    row_operand,
    smat,
    svec,
)
from leobeam.conic import model as model_module
from leobeam.conic import solver as solver_module
from leobeam.conic.solver import (
    _SCHUR_BLOCK,
    PHASES,
    _cholesky,
    _SchurFactor,
    _unscaled,
)
from leobeam.robust_avg import AvgSinrProblem
from leobeam.robust_outage import OutageProblem
from leobeam.scenario import build_scenario

# The full-scale average-SINR scenario (60 feeds, 10 beams, 3 per region).
FULL_SCALE_AVG = dict(feeds=60, beams=10, users_per_region=3, gamma_db=1.5)


def kkt_residuals(p, c, s):
    pres = np.linalg.norm(p.A @ s.x - p.b) / (1 + np.linalg.norm(p.b))
    dres = np.linalg.norm(p.A.T @ s.y + s.z - c) / (1 + np.linalg.norm(c))
    comp = abs(s.x @ s.z) / (1 + abs(c @ s.x))
    return pres, dres, comp


def record_A(monkeypatch):
    """Copies of each A given to ``ConicProblem`` by the builder or by
    ``random_feasible_problem``, taken before the problem scales it."""
    given = []

    def recorded(A, b, cones):
        given.append(np.array(A, dtype=float))
        return ConicProblem(A, b, cones)

    monkeypatch.setattr(model_module, "ConicProblem", recorded)
    monkeypatch.setattr(conic, "ConicProblem", recorded)
    return given


def soc_pythagorean():
    """(problem, c): minimize v0 over the SOC with v1 = 3 and v2 = 4."""
    bld = ConeProgramBuilder()
    v = bld.add_soc(3)
    bld.add_eq([(v, {1: 1.0})], 3.0)
    bld.add_eq([(v, {2: 1.0})], 4.0)
    return bld.build(), bld.objective_vector([(v, {0: 1.0})])


def design_program(design, scenario):
    """(problem, c): a design's lifted program and its relaxation objective,
    tr W_m summed over the regions."""
    lifted = design(scenario)
    eye = np.eye(scenario.feeds)
    return lifted.problem, lifted.builder.objective_vector((ref, eye) for ref in lifted.w_refs)


class TestCannedProblems:
    def test_nonneg_min(self):
        p = ConicProblem(np.zeros((0, 1)), np.zeros(0), [ConeBlock("nonneg", 1)])
        s = solve(p, np.array([1.0]))
        assert s.status == OPTIMAL
        assert s.obj_primal == pytest.approx(0.0, abs=1e-7)

    def test_psd_forced_trace(self):
        bld = ConeProgramBuilder()
        X = bld.add_psd(2)
        bld.add_eq([(X, np.diag([1.0, 0.0]))], 1.0)
        bld.add_eq([(X, np.diag([0.0, 1.0]))], 1.0)
        s = solve(bld.build(), bld.objective_vector([(X, np.eye(2))]))
        assert s.status == OPTIMAL
        assert s.obj_primal == pytest.approx(2.0, abs=1e-6)

    def test_soc_pythagorean(self):
        s = solve(*soc_pythagorean())
        assert s.status == OPTIMAL
        assert s.obj_primal == pytest.approx(5.0, abs=1e-6)

    def test_primal_infeasible_certificate(self):
        p = ConicProblem(np.array([[1.0]]), np.array([-1.0]), [ConeBlock("nonneg", 1)])
        s = solve(p, np.array([1.0]))
        assert s.status == PRIMAL_INFEASIBLE
        assert s.certificate is not None
        y = s.certificate
        # Farkas ray: b'y > 0 and -(A'y) in K, here the nonnegative orthant.
        assert p.b @ y > 0
        assert np.all(-(p.A.T @ y) >= 0)

    def test_dual_infeasible_certificate(self):
        p = ConicProblem(np.zeros((0, 1)), np.zeros(0), [ConeBlock("nonneg", 1)])
        c = np.array([-1.0])
        s = solve(p, c)
        assert s.status == DUAL_INFEASIBLE
        assert s.certificate is not None
        assert c @ s.certificate < 0

    def test_max_iter_status(self, monkeypatch):
        monkeypatch.setattr(solver_module, "ITER_LIMIT", 2)
        s = solve(*soc_pythagorean(), SolveOptions(tol_relaxed=1e-12))
        assert s.status == MAX_ITER

    def test_zero_iterations_raise_convergence_error(self, monkeypatch):
        monkeypatch.setattr(solver_module, "ITER_LIMIT", 0)
        with pytest.raises(ConvergenceError):
            solve(*soc_pythagorean())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_iterate_raises_convergence_error(self):
        # finite data that the constructor accepts but that overflows every residual
        p, c = soc_pythagorean()
        p = ConicProblem(1e200 * p.A, 1e200 * p.b, p.cones)
        with pytest.raises(ConvergenceError):
            solve(p, c)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ConicProblem(np.ones((1, 3)), np.ones(1), [ConeBlock("nonneg", 2)])

    @pytest.mark.parametrize("kind, size", [("foo", 2), ("nonneg", 0), ("psd", 0)])
    def test_bad_cone_block_rejected(self, kind, size):
        with pytest.raises(ValueError, match=re.escape(f"ConeBlock(kind={kind!r}, size={size},")):
            ConeBlock(kind, size)


class TestRandomFamily:
    def test_against_first_order_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            p, c, kinds = random_feasible_problem(rng)
            s = solve(p, c)
            assert s.status == OPTIMAL
            pres, dres, comp = kkt_residuals(p, c, s)
            assert max(pres, dres, comp) <= 1e-7
            _, obj, pres_admm, dres_admm = solve_conic_admm(c, p.A, p.b, kinds, iters=20000)
            assert max(pres_admm, dres_admm) <= 1e-10  # converged, not stopped at the cap
            assert s.obj_primal == pytest.approx(obj, abs=1e-4 * max(1, abs(obj)))

    def test_weak_duality_on_feasible_iterates(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p, c, _ = random_feasible_problem(rng)
            s = solve(p, c)
            assert s.status == OPTIMAL
            for info in s.iterations:
                if info.pres <= 1e-6 and info.dres <= 1e-6:
                    assert info.dobj <= info.pobj + 1e-7 * (1 + abs(info.pobj) + abs(info.dobj))

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(5)
        p, c, _ = random_feasible_problem(rng)
        s1 = solve(p, c)
        s2 = solve(ConicProblem(p.A, p.b, p.cones), 37.0 * c)
        assert s1.status == s2.status == OPTIMAL
        assert np.linalg.norm(s1.x - s2.x) <= 1e-6 * (1 + np.linalg.norm(s1.x))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        p, c, _ = random_feasible_problem(rng)
        s1 = solve(p, c)
        s2 = solve(p, c)
        assert np.array_equal(s1.x, s2.x)
        assert s1.obj_primal == s2.obj_primal


class TestComplexLift:
    def test_hermitian_trace_equivalence(self):
        bld = ConeProgramBuilder()
        W = bld.add_hermitian_psd(2)
        bld.add_eq([(W, np.diag([1.0, 0.0]))], 1.0)
        bld.add_eq([(W, np.diag([0.0, 1.0]))], 1.0)
        s = solve(bld.build(), bld.objective_vector([(W, np.eye(2))]))
        assert s.status == OPTIMAL
        assert s.obj_primal == pytest.approx(2.0, abs=1e-6)

    def test_extraction_is_psd_hermitian(self):
        bld = ConeProgramBuilder()
        W = bld.add_hermitian_psd(3)
        d = np.array([[2.0, 1j, 0], [-1j, 1.0, 0.5], [0, 0.5, 1.0]])
        bld.add_eq([(W, d)], 1.0)
        s = solve(bld.build(), bld.objective_vector([(W, np.eye(3))]))
        assert s.status == OPTIMAL
        w = bld.extract(W, s.x)
        assert np.allclose(w, w.conj().T)
        assert np.linalg.eigvalsh(w).min() >= -1e-8
        # The emitted row really constrains tr(d W).
        assert np.trace(d @ w).real == pytest.approx(1.0, abs=1e-7)

    def test_matches_exhaustive_complex_parameterization(self):
        # min tr(C0 W) s.t. tr(W) = 1, W hermitian PSD 2x2.
        # Optimum is lambda_min(C0); the oracle sweeps unit vectors u and
        # minimizes u^H C0 u over a dense Bloch-angle grid.
        rng = np.random.default_rng(7)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c0 = 0.5 * (g + g.conj().T)
        bld = ConeProgramBuilder()
        W = bld.add_hermitian_psd(2)
        bld.add_eq([(W, np.eye(2))], 1.0)
        s = solve(bld.build(), bld.objective_vector([(W, c0)]))
        assert s.status == OPTIMAL
        def grid_min(t_lo, t_hi, p_lo, p_hi, npts):
            theta = np.linspace(t_lo, t_hi, npts)
            phi = np.linspace(p_lo, p_hi, npts)
            tt, pp = np.meshgrid(theta, phi, indexing="ij")
            u0 = np.cos(tt / 2)
            u1 = np.sin(tt / 2) * np.exp(1j * pp)
            val = (
                np.abs(u0) ** 2 * c0[0, 0].real
                + np.abs(u1) ** 2 * c0[1, 1].real
                + 2 * np.real(np.conj(u0) * u1 * c0[1, 0])
            )
            idx = np.unravel_index(val.argmin(), val.shape)
            return val[idx], theta[idx[0]], phi[idx[1]]

        best, tb, pb = grid_min(0, np.pi, 0, 2 * np.pi, 700)
        for half in (0.02, 0.001):  # refine around the coarse minimizer
            best, tb, pb = grid_min(tb - half, tb + half, pb - half, pb + half, 301)
        assert s.obj_primal == pytest.approx(best, abs=1e-6)


def build_hermitian_program(data, embedded):
    """The program of ``random_hermitian_program`` with native Hermitian
    blocks, or with each block as its real embedding of twice the order:
    (builder, PSD refs, c)."""
    def coeff(d):
        return 0.5 * embed_hermitian(d) if embedded else d

    bld = ConeProgramBuilder()
    if embedded:
        refs = [bld.add_psd(2 * k) for k in data["orders"]]
    else:
        refs = [bld.add_hermitian_psd(k) for k in data["orders"]]
    u = bld.add_nonneg(data["n_nonneg"]) if data["n_nonneg"] else None
    for row, a, r in zip(data["D"], data["a"], data["rhs"]):
        terms = [(ref, coeff(d)) for ref, d in zip(refs, row)]
        if u is not None:
            terms.append((u, a))
        bld.add_eq(terms, r)
    obj = [(ref, coeff(c)) for ref, c in zip(refs, data["C"])]
    if u is not None:
        obj.append((u, data["f"]))
    return bld, refs, bld.objective_vector(obj)


class TestHermitianCone:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_svec_smat_round_trip(self, d):
        rng = np.random.default_rng(d)
        x = random_hermitian(rng, d)
        v = svec(x)
        assert v.shape == (d * d,) and v.dtype == float
        assert np.allclose(smat(v, d), x, rtol=0, atol=1e-15)
        assert np.array_equal(svec(smat(v, d)), v)
        assert ConeBlock("psd", d, hermitian=True).veclen == d * d

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_inner_product_is_trace(self, d):
        rng = np.random.default_rng(10 + d)
        x, y = random_hermitian(rng, d), random_hermitian(rng, d)
        assert svec(x) @ svec(y) == pytest.approx(np.trace(x @ y).real, abs=1e-12)
        assert abs(np.trace(x @ y).imag) <= 1e-12

    def test_real_part_keeps_real_layout(self):
        rng = np.random.default_rng(14)
        x = random_hermitian(rng, 3)
        assert np.array_equal(svec(x)[:6], svec(x.real))

    @pytest.mark.parametrize("d", [1, 3])
    def test_identity_element(self, d):
        blk = ConeBlock("psd", d, hermitian=True)
        e = identity_element(blk)
        assert e.shape == (blk.veclen,)
        assert np.allclose(smat(e, d), np.eye(d))
        x = svec(random_hermitian(np.random.default_rng(d), d))
        assert np.allclose(jordan_mul(blk, e, x), x, rtol=0, atol=1e-14)

    def test_jordan_mul(self):
        rng = np.random.default_rng(15)
        blk = ConeBlock("psd", 4, hermitian=True)
        x, y = random_hermitian(rng, 4), random_hermitian(rng, 4)
        got = smat(jordan_mul(blk, svec(x), svec(y)), 4)
        assert np.allclose(got, 0.5 * (x @ y + y @ x), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_max_step_reaches_boundary(self, hermitian):
        rng = np.random.default_rng(16)
        blk = ConeBlock("psd", 4, hermitian=hermitian)
        x = interior_point(blk, rng)
        d = random_hermitian(rng, 4)
        dx = svec(d if hermitian else d.real)
        alpha = max_step(blk, x, dx)
        assert np.isfinite(alpha) and alpha > 0
        eig = np.linalg.eigvalsh(smat(x + alpha * dx, 4))
        assert abs(eig.min()) <= 1e-10 * np.abs(eig).max()
        assert np.linalg.eigvalsh(smat(x + 0.99 * alpha * dx, 4)).min() > 0


class TestSocStep:
    """``max_step`` on a second-order cone, decided in exact arithmetic."""

    @staticmethod
    def in_cone(x, dx, t):
        """Whether x + t dx lies in the cone, in rationals (no rounding)."""
        v = [Fraction(a) + Fraction(t) * Fraction(b) for a, b in zip(x.tolist(), dx.tolist())]
        return v[0] >= 0 and v[0] * v[0] >= sum(e * e for e in v[1:])

    @staticmethod
    def draw(rng):
        """(x, dx, rel, near_recession): x inside with x0/||x1|| - 1 = rel.

        A third of the directions are generic, a third lie within a
        relative 1e-12 to 1e-3 of the cone's boundary (dx0 ~ ||dx1||, where
        the ray leaves late or never), and a third run along x's own
        boundary ray (dx1 ~ c x1, where the ray leaves early).
        """
        n = int(rng.integers(2, 8))
        scale = 10.0 ** rng.uniform(-8, 3)
        rel = 10.0 ** rng.uniform(-12, 1)
        x1 = rng.normal(size=n - 1)
        x1 *= scale / np.linalg.norm(x1)
        x = np.concatenate([[scale * (1.0 + rel)], x1])
        dx = rng.normal(size=n) * scale * 10.0 ** rng.uniform(-3, 3)
        kind = int(rng.integers(3))
        if kind == 1:
            gap = rng.uniform(-1, 1) * 10.0 ** rng.uniform(-12, -3)
            dx[0] = np.linalg.norm(dx[1:]) * (1.0 + gap)
        elif kind == 2:
            dx[1:] = x1 * rng.uniform(-3, 3) + dx[1:] * 10.0 ** rng.uniform(-9, 0)
        return x, dx, rel, kind == 1

    def test_step_against_exact_oracle(self):
        # No gross error on any draw: an infinite step only when dx lies in
        # the cone (the ray never leaves it), otherwise x + t/2 dx inside and
        # x + 2t dx outside.  Away from the boundary (rel >= 1e-6) the step
        # is also within 1e-6 relative of the exit point, except for
        # directions near the cone's boundary: there the exit point is set
        # by the last bits of dx0 - ||dx1|| and moves with any rounding.
        rng = np.random.default_rng(11)
        gross, inaccurate, accurate = [], [], 0
        for i in range(2000):
            x, dx, rel, near_recession = self.draw(rng)
            assert self.in_cone(x, dx, 0) and x[0] > np.linalg.norm(x[1:])
            t = max_step(ConeBlock("soc", x.size), x, dx)
            if t == np.inf:
                if not self.in_cone(dx, x, 0):  # dx itself in the cone
                    gross.append(i)
                continue
            t = Fraction(t)
            if not (t > 0 and self.in_cone(x, dx, t / 2) and not self.in_cone(x, dx, 2 * t)):
                gross.append(i)
            if rel >= 1e-6 and not near_recession:
                accurate += 1
                lo, hi = t * Fraction(999_999, 10**6), t * Fraction(1_000_001, 10**6)
                if not (self.in_cone(x, dx, lo) and not self.in_cone(x, dx, hi)):
                    inaccurate.append(i)
        assert gross == [] and inaccurate == []
        assert accurate > 500


def mixed_program(seed):
    """(problem, c): a strictly feasible program over one block of each kind."""
    rng = np.random.default_rng(seed)
    cones = [ConeBlock("nonneg", 3), ConeBlock("soc", 4), ConeBlock("psd", 3, hermitian=True)]
    x0 = np.concatenate([interior_point(blk, rng) for blk in cones])
    z0 = np.concatenate([interior_point(blk, rng) for blk in cones])
    A = rng.normal(size=(5, x0.size))
    return ConicProblem(A, A @ x0, cones), A.T @ rng.normal(size=5) + z0


def assert_interior(problem, v):
    for blk, sl in zip(problem.cones, problem.slices):
        assert interior_margin(blk, v[sl]) > 0


class TestInteriorGuard:
    """The NT scaling of a trial point is the solver's only interior test."""

    @pytest.mark.parametrize(
        "block, outside",
        [
            (ConeBlock("nonneg", 3), [1.0, 0.0, 2.0]),
            (ConeBlock("nonneg", 3), [1.0, -1.0, 2.0]),
            (ConeBlock("soc", 3), [-2.0, 0.5, 0.5]),  # in -K: its x'Jx is positive
            (ConeBlock("soc", 3), [1.0, 0.6, 0.8]),  # on the boundary
            (ConeBlock("psd", 2), svec(np.diag([1.0, -1.0]))),
            (ConeBlock("psd", 2, hermitian=True), svec(np.array([[1, 1j], [-1j, 1]]))),
        ],
        ids=["nonneg-0", "nonneg-neg", "soc-minus-K", "soc-boundary", "psd", "hpsd"],
    )
    def test_scaling_raises_outside(self, block, outside):
        inside = interior_point(block, np.random.default_rng(block.veclen))
        outside = np.asarray(outside, dtype=float)
        for x, z in ((outside, inside), (inside, outside)):
            with pytest.raises((FloatingPointError, np.linalg.LinAlgError)):
                nt_scaling(block, x, z)

    def test_overlong_steps_back_off(self, monkeypatch):
        # Steps 3x the true maximum leave the cone; each trial's scaling
        # rejects it and the step shrinks until the trial is interior.
        problem, c = mixed_program(3)
        want = solve(problem, c)
        rejected = []

        def scaling(blk, x, z):
            try:
                return nt_scaling(blk, x, z)
            except (FloatingPointError, np.linalg.LinAlgError):
                rejected.append(blk.kind)
                raise

        monkeypatch.setattr(solver_module, "nt_scaling", scaling)
        monkeypatch.setattr(solver_module, "max_step", lambda blk, x, dx: 3 * max_step(blk, x, dx))
        s = solve(problem, c)
        assert rejected
        assert want.status == s.status == OPTIMAL
        assert_interior(problem, s.x)
        assert_interior(problem, s.z)
        assert s.obj_primal == pytest.approx(want.obj_primal, rel=1e-7, abs=1e-7)

    @pytest.mark.parametrize("good", [1, 4, 9])
    def test_failed_trials_end_with_best_iterate(self, good, monkeypatch):
        # The start point and the first good - 1 trial points scale and every
        # later scaling fails: the good-th step's twelve trials fail, and the
        # solve ends after good loop heads without scoring a trial point.
        problem, c = mixed_program(3)
        nb = len(problem.cones)
        calls = []

        def scaling(blk, x, z):
            calls.append(blk)
            if len(calls) > good * nb:
                raise FloatingPointError("trial rejected")
            return nt_scaling(blk, x, z)

        monkeypatch.setattr(solver_module, "nt_scaling", scaling)
        s = solve(problem, c, SolveOptions(tol_relaxed=1e-12))
        assert s.status == MAX_ITER
        assert s.n_iter == good and len(calls) == good * nb + 12
        best, best_score = None, np.inf
        for info in s.iterations:
            score = max(info.pres, info.dres, info.relgap)
            if score < 0.9 * best_score:
                best, best_score = info, score
        assert (s.pres, s.dres, s.gap) == (best.pres, best.dres, best.relgap)
        assert_interior(problem, s.x)
        assert_interior(problem, s.z)


class TestSvecGather:
    """svec and smat gather through cached flat indices; the fancy-index
    oracles give every byte, signed zeros included."""

    @staticmethod
    def same_bytes(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hermitian", [False, True], ids=["real", "hermitian"])
    @pytest.mark.parametrize("d", [1, 2, 12, 60])
    def test_svec_matches_fancy_index(self, d, hermitian):
        rng = np.random.default_rng(100 + d + hermitian)
        mats = rng.normal(size=(2, 3, d, d))
        if hermitian:
            mats = mats + 1j * rng.normal(size=mats.shape)
        mats[..., 0, :] = 0.0
        mats[..., :, -1] *= -0.0  # zeros of both signs
        views = [
            mats,  # batch axes
            mats[1, 2],  # one matrix
            mats.swapaxes(-1, -2),  # transposed
            mats[:, ::2],  # sliced
            mats[:, :0],  # empty batch
        ]
        for mat in views:
            self.same_bytes(svec(mat), fancy_svec(mat))

    @pytest.mark.parametrize("hermitian", [False, True], ids=["real", "hermitian"])
    @pytest.mark.parametrize("d", [1, 2, 12, 60])
    def test_smat_matches_fancy_index(self, d, hermitian):
        # Zeros as A's rows hold them (+0): the output's zero imaginary
        # parts below the diagonal are -0 in both.
        rng = np.random.default_rng(200 + d + hermitian)
        n = ConeBlock("psd", d, hermitian=hermitian).veclen
        v = rng.normal(size=(2, 3, n))
        v[rng.random(v.shape) < 0.3] = 0.0
        wide = np.repeat(v, 2, axis=-1)
        for vec in (v, v[1, 2], np.asfortranarray(v), wide[..., ::2], v[:, :0]):
            self.same_bytes(smat(vec, d), fancy_smat(vec, d))


class TestComplexEmbeddingOracle:
    def test_native_matches_embedding(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            data = random_hermitian_program(rng)
            native, refs, c = build_hermitian_program(data, embedded=False)
            emb, emb_refs, c_emb = build_hermitian_program(data, embedded=True)
            p, q = native.build(), emb.build()
            assert p.n == sum(k * k for k in data["orders"]) + data["n_nonneg"]
            s, t = solve(p, c), solve(q, c_emb)
            assert s.status == t.status == OPTIMAL
            assert s.obj_primal == pytest.approx(t.obj_primal, abs=1e-7 * (1 + abs(t.obj_primal)))
            for ref, eref in zip(refs, emb_refs):
                w = native.extract(ref, s.x)
                assert w.dtype == complex
                assert np.linalg.eigvalsh(w).min() >= -1e-8
                x = emb.extract(eref, t.x)
                assert np.linalg.eigvalsh(hermitian_from_embedding(x)).min() >= -1e-8


class TestRowBlocks:
    """A block add_eq stores the same rows as one add_eq per row."""

    @staticmethod
    def program(data, block):
        bld = ConeProgramBuilder()
        x = bld.add_nonneg(3)
        v = bld.add_soc(4)
        w = bld.add_hermitian_psd(3)
        p = bld.add_psd(2)
        bld.add_eq([(x, {0: 1.0})], 2.0)
        terms = [(x, data["x"]), (v, data["v"]), (w, data["w"]), (p, data["p"]), (x, data["x2"])]
        if block:
            bld.add_eq(terms, data["rhs"])
        else:
            for i in range(data["rhs"].size):
                bld.add_eq([(ref, coeff[i]) for ref, coeff in terms], data["rhs"][i])
        bld.add_eq([(v, {0: 1.0})], 3.0)
        return bld.build(), bld.objective_vector([(w, np.eye(3))])

    def test_block_equals_single_rows(self):
        rng = np.random.default_rng(31)
        r = 5
        data = {
            "x": rng.normal(size=(r, 3)),
            "x2": rng.normal(size=(r, 3)),
            "v": rng.normal(size=(r, 4)),
            "w": rng.normal(size=(r, 3, 3)) + 1j * rng.normal(size=(r, 3, 3)),
            "p": rng.normal(size=(r, 3)),  # raw svec rows of a real order-2 block
            "rhs": rng.normal(size=r),
        }
        single, c_single = self.program(data, block=False)
        block, c_block = self.program(data, block=True)
        assert block.m == single.m == r + 2
        assert np.array_equal(block.A, single.A)
        assert np.array_equal(block.b, single.b)
        assert np.array_equal(c_block, c_single)

    def test_wrong_block_shapes_raise(self):
        bld = ConeProgramBuilder()
        x = bld.add_nonneg(3)
        w = bld.add_hermitian_psd(3)
        rhs = np.zeros(2)
        bad_terms = [
            [(x, np.zeros((3, 3)))],  # three rows for a two-row block
            [(x, np.zeros(3))],  # single-row vector in a block
            [(x, np.zeros((2, 3, 3)))],  # matrix stack on a vector cone
            [(w, np.zeros((2, 4, 4)))],  # stack of the wrong order
            [(w, np.zeros((3, 3, 3)))],  # stack with the wrong row count
            [(x, {0: 1.0})],  # dict coefficients make a single row
        ]
        for terms in bad_terms:
            with pytest.raises(ValueError):
                bld.add_eq(terms, rhs)
        with pytest.raises(ValueError):
            bld.add_eq([(x, np.zeros((1, 3)))], np.zeros((1, 1)))
        assert bld.build().m == 0


def interior_point(block, rng):
    """A random strictly interior point of the block."""
    if block.kind == "nonneg":
        return rng.uniform(0.5, 2.0, block.size)
    if block.kind == "soc":
        v = rng.normal(size=block.size)
        v[0] = np.linalg.norm(v[1:]) + rng.uniform(0.5, 2.0)
        return v
    g = rng.normal(size=(block.size, block.size))
    if block.hermitian:
        g = g + 1j * rng.normal(size=(block.size, block.size))
    return svec(g @ g.conj().T + block.size * np.eye(block.size))


class TestSchurKernels:
    @pytest.mark.parametrize("k", [1, _SCHUR_BLOCK, _SCHUR_BLOCK + 1, 2 * _SCHUR_BLOCK + 1, 954])
    def test_block_inverses_match_inverse(self, k):
        # Each diagonal block of L is inverted by itself: its inverse is
        # lower triangular and matches the block's explicit inverse.
        rng = np.random.default_rng(k)
        g = rng.normal(size=(k, k))
        L = np.linalg.cholesky(g @ g.T / k + np.eye(k))
        factor = _SchurFactor(L)
        assert len(factor.blocks) == -(-k // _SCHUR_BLOCK)
        for b, Dinv in zip(factor.blocks, factor.inv):
            n = b.stop - b.start
            assert np.abs(Dinv @ L[b, b] - np.eye(n)).max() <= 1e-12
            assert np.allclose(Dinv, np.linalg.inv(L[b, b]), rtol=0, atol=1e-12)
            assert np.array_equal(Dinv, np.tril(Dinv))

    @pytest.mark.parametrize(
        "m",
        [1, _SCHUR_BLOCK, _SCHUR_BLOCK + 1, 128, 129, 2 * _SCHUR_BLOCK + 1, 257, 558, 954],
    )
    def test_blocked_factor_solves(self, m):
        # One block at m <= 96, blocked substitutions above: S x = r.
        rng = np.random.default_rng(m)
        g = rng.normal(size=(m, m))
        S = g @ g.T / m + np.eye(m)
        r = rng.normal(size=m)
        x = _SchurFactor(_cholesky(S.copy())).solve(r)
        assert np.linalg.norm(S @ x - r) <= 1e-12 * np.linalg.norm(r)
        want = np.linalg.solve(S, r)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("m", [1, 18, 30, 90, _SCHUR_BLOCK])
    def test_one_block_solve_gives_inverse_bits(self, m):
        # At order <= 96 the solve is Linv'(Linv r) with Linv the LAPACK
        # inverse of L: the arithmetic of an explicit inverse, so such
        # programs keep their bits (avg-full's Schur order is 90, desk avg's
        # 18, gamma-sweep's 30).
        rng = np.random.default_rng(m + 1)
        g = rng.normal(size=(m, m))
        L = np.linalg.cholesky(g @ g.T / m + np.eye(m))
        factor = _SchurFactor(L)
        assert len(factor.blocks) == 1
        Linv = np.linalg.solve(L, np.eye(m))
        for _ in range(3):
            r = rng.normal(size=m)
            assert factor.solve(r).tobytes() == (Linv.T @ (Linv @ r)).tobytes()

    def test_ridge_sequence(self):
        # An indefinite S: the first ridge is 1e-12 (1 + tr(S)/m) with S's
        # own trace and each later one 100x the last, as S + ridge I had
        # them; four failed attempts give no factor.
        m = 40
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        lam = rng.uniform(1.0, 3.0, m)
        lam[0] = -1e-11 * (1.0 + lam.sum() / m)  # between the first two ridges
        S = (q * lam) @ q.T
        S = (S + S.T) / 2

        def explicit_ridge(S):
            ridge = 0.0
            for _ in range(4):
                try:
                    return np.linalg.cholesky(S + ridge * np.eye(m)), ridge
                except np.linalg.LinAlgError:
                    ridge = max(1e-12 * (1.0 + np.trace(S) / max(m, 1)), ridge * 100 or 1e-12)
            return None, ridge

        want, ridge = explicit_ridge(S)
        assert ridge == 1e-12 * (1.0 + np.trace(S) / m) * 100  # the second ridge
        assert _cholesky(S.copy()).tobytes() == want.tobytes()
        assert _cholesky(-np.eye(3)) is None

    @pytest.mark.parametrize(
        "block",
        [
            ConeBlock("nonneg", 1),
            ConeBlock("nonneg", 5),
            ConeBlock("soc", 1),
            ConeBlock("soc", 6),
            ConeBlock("psd", 1),
            ConeBlock("psd", 4),
            ConeBlock("psd", 1, hermitian=True),
            ConeBlock("psd", 4, hermitian=True),
        ],
        ids=lambda b: f"{'h' if b.hermitian else ''}{b.kind}{b.size}",
    )
    def test_w_cols_gram_equals_schur_term(self, block):
        # H = W'W, so (A W')(A W')' = A H A' row by row.
        rng = np.random.default_rng(block.veclen)
        sc = nt_scaling(block, interior_point(block, rng), interior_point(block, rng))
        A = rng.normal(size=(7, block.veclen))
        G = sc.apply_W_cols(smat(A, block.size) if block.kind == "psd" else A)
        AHAt = A @ np.column_stack([sc.apply_H(row) for row in A])
        assert G.shape == A.shape
        assert np.allclose(G, np.array([sc.apply_W(row) for row in A]), rtol=1e-12, atol=1e-12)
        assert np.allclose(G @ G.T, AHAt, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("hermitian", [False, True], ids=["real", "hermitian"])
    @pytest.mark.parametrize("d", [1, 2, 12, 60])
    def test_compact_rows_give_dense_bits(self, d, hermitian):
        # G from rows expanded per chunk, the one-entry ones from their
        # compact form, is bit for bit G from the whole (rows, d, d) stack.
        block = ConeBlock("psd", d, hermitian=hermitian)
        rng = np.random.default_rng(d + hermitian)
        sc = nt_scaling(block, interior_point(block, rng), interior_point(block, rng))
        coef = complex(rng.normal(), rng.normal()) if hermitian and d > 1 else rng.normal()

        def entry(k, l, c):
            mat = np.zeros((d, d), dtype=complex if hermitian else float)
            mat[l, k] = np.conj(c)
            mat[k, l] = c
            return svec(mat)

        rows = [
            interior_point(block, rng),  # every entry
            entry(d - 1, d - 1, rng.normal()),  # a feed cap's diagonal entry
            np.zeros(block.veclen),  # a row the block does not enter
            entry(0, d - 1, coef),  # an off-diagonal Q row
            entry(0, 0, 1.0) + entry(d - 1, d - 1, 1.0),  # two entries when d > 1
        ]
        if hermitian and d > 1:
            rows.append(entry(0, d - 1, 1j * abs(coef)))  # imaginary part only
        A = np.array(rows)
        op = row_operand(block, A)
        if d == 1:
            assert op.single.tolist() == [0, 1, 3, 4]
        else:
            assert op.single.tolist() == [1, 3] + [5] * hermitian
        assert sorted(op.single.tolist() + op.stacked.tolist()) == list(range(len(A)))
        G = np.full(A.shape, np.nan)
        op.write_W_cols(sc, G)
        assert np.array_equal(G, sc.apply_W_cols(smat(A, d)))
        if not hermitian or d not in (12, 60):
            return
        # Production shapes: avg-full's 60 feed caps per W block are diagonal
        # rows; the desk outage program's off-diagonal Q rows are complex.
        if d == 60:
            caps = zip(rng.permutation(d), rng.uniform(0.1, 2.0, d))
            A = np.array([entry(k, k, c) for k, c in caps])
        else:
            pairs = [(k, l) for k in range(d) for l in range(k + 1, d)]
            picks = rng.integers(len(pairs), size=300)
            coefs = rng.normal(size=300) + 1j * rng.normal(size=300)
            A = np.array([entry(*pairs[i], c) for i, c in zip(picks, coefs)])
        op = row_operand(block, A)
        assert op.stacked.size == 0 and op.single.size == len(A)
        assert op.ndiag == (len(A) if d == 60 else 0)
        G = np.full(A.shape, np.nan)
        op.write_W_cols(sc, G)
        assert np.array_equal(G, sc.apply_W_cols(smat(A, d)))

    @pytest.mark.parametrize(
        "chunks, extra",
        [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
        ids=["0", "1", "c-1", "c", "c+1", "2c+1"],
    )
    @pytest.mark.parametrize("kind, d", [("multi", 60), ("diag", 60), ("offdiag", 12)])
    def test_chunked_rows_give_dense_bits(self, kind, d, chunks, extra):
        # Blocks of each row kind with row counts around the chunk size: G
        # is bit for bit G from the whole stack.
        block = ConeBlock("psd", d, hermitian=True)
        rng = np.random.default_rng(d + len(kind))
        sc = nt_scaling(block, interior_point(block, rng), interior_point(block, rng))
        chunk = max(1, CHUNK_ELEMENTS // d**2)
        assert chunk == {60: 18, 12: 455}[d]
        n = chunks * chunk + extra
        A = rows_of_kind(kind, d, n, rng)
        op = row_operand(block, A)
        assert op.chunk == chunk and op.dtype == complex
        assert op.stacked.size == (n if kind == "multi" else 0)
        assert op.ndiag == (n if kind == "diag" else 0)
        G = np.full(A.shape, np.nan)
        op.write_W_cols(sc, G)
        assert G.tobytes() == sc.apply_W_cols(smat(A, d)).tobytes()

    def test_no_equality_rows_mixed_cones(self):
        # m = 0: minimize sum(x) + s0 + tr(X) over nonneg x SOC x PSD -> 0.
        cones = [ConeBlock("nonneg", 2), ConeBlock("soc", 3), ConeBlock("psd", 2)]
        c = np.concatenate([[1.0, 1.0, 1.0, 0.0, 0.0], svec(np.eye(2))])
        p = ConicProblem(np.zeros((0, c.size)), np.zeros(0), cones)
        s = solve(p, c)
        assert s.status == OPTIMAL
        assert s.obj_primal == pytest.approx(0.0, abs=1e-7)
        assert np.linalg.eigvalsh(smat(s.x[5:], 2)).min() >= -1e-9


def rows_of_kind(kind, d, n, rng):
    """n rows of A over one Hermitian order-d PSD block, all of one kind:
    "multi" (every entry), "diag" (one diagonal entry, as a feed cap) or
    "offdiag" (one complex off-diagonal entry, as an outage Q row)."""
    if kind == "multi":
        return rng.normal(size=(n, d * d))
    mats = np.zeros((n, d, d), dtype=complex)
    k = rng.integers(d, size=n)
    if kind == "diag":
        mats[np.arange(n), k, k] = rng.uniform(0.1, 2.0, n)
    else:
        l = (k + rng.integers(1, d, size=n)) % d
        coef = rng.normal(size=n) + 1j * rng.normal(size=n)
        mats[np.arange(n), k, l] = coef
        mats[np.arange(n), l, k] = coef.conj()
    return svec(mats).reshape(n, d * d)


def ipm_scalings(problem, c, monkeypatch, iterations):
    """Per-block NT scalings at the given iterations of a solve of ``problem``."""
    seen = []

    def recorded(blk, x, z):
        seen.append((blk, x.copy(), z.copy()))
        return nt_scaling(blk, x, z)

    monkeypatch.setattr(solver_module, "nt_scaling", recorded)
    solve(problem, c)
    nb = len(problem.cones)
    return [
        [nt_scaling(*args) for args in seen[nb * it : nb * (it + 1)]]
        for it in iterations
        if nb * (it + 1) <= len(seen)
    ]


class TestStructuredSchur:
    @pytest.mark.parametrize(
        "design, overrides",
        [
            (OutageProblem, {}),
            (OutageProblem, {"feeds": 18}),
            (OutageProblem, {"phase_cov": correlated_cov(12)}),
            (AvgSinrProblem, {}),
        ],
        ids=["outage-desk", "outage-k18", "outage-cov", "avg-desk"],
    )
    def test_equals_dense_oracle_at_ipm_iterates(self, design, overrides, monkeypatch):
        scenario = build_scenario(desk_config(**overrides))
        problem, c = design_program(design, scenario)
        As, plan = problem.As, problem.schur
        iterates = ipm_scalings(problem, c, monkeypatch, (0, 2, 4, 6))
        assert len(iterates) == 4
        for scalings in iterates:
            S = plan.assemble(scalings)
            ref = dense_schur(problem.cones, As, scalings)
            assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()
        # The one-entry rows the plan holds compact: feed caps, and for the
        # outage program with identity covariance the off-diagonal Q rows.
        k = scenario.feeds
        singles = {op.single.size for _, _, op in plan.dense if isinstance(op, PsdRows)}
        if design is AvgSinrProblem or "phase_cov" in overrides:
            assert singles == {k}
        else:
            assert singles == {k + len(scenario.users) * k * (k - 1) // 2}

    @pytest.mark.parametrize(
        "design, overrides",
        [
            (AvgSinrProblem, {}),
            (OutageProblem, {}),
            (OutageProblem, {"phase_cov": correlated_cov(12)}),
        ],
        ids=["avg-desk", "outage-desk", "outage-cov"],
    )
    def test_rows_give_dense_bits_at_ipm_iterates(self, design, overrides, monkeypatch):
        # Every PSD block of the real programs at real iterates: G from the
        # chunked and compact rows is bit for bit G from the whole stack.
        problem, c = design_program(design, build_scenario(desk_config(**overrides)))
        iterates = ipm_scalings(problem, c, monkeypatch, (0, 2, 4))
        assert len(iterates) == 3
        plan = problem.schur
        ops = [(i, op) for i, _, op in plan.dense if isinstance(op, PsdRows)]
        assert ops
        for scalings in iterates:
            for i, op in ops:
                G = np.full(op.cols.shape, np.nan)
                op.write_W_cols(scalings[i], G)
                want = scalings[i].apply_W_cols(smat(op.cols, op.d))
                assert G.tobytes() == want.tobytes()


class TestSplitProducts:
    """``matvec`` and ``rmatvec`` take one dense product per run of non-SOC
    columns and read the SOC columns' nonzeros: the products with As to
    rounding, and bit for bit where there is no SOC block."""

    @staticmethod
    def assert_products_match(p, rng):
        for _ in range(3):
            v, y = rng.normal(size=p.n), rng.normal(size=p.m)
            # 1e-14 of the sum of |terms| of each entry
            assert np.all(np.abs(p.matvec(v) - p.As @ v) <= 1e-14 * (np.abs(p.As) @ np.abs(v)))
            assert np.all(
                np.abs(p.rmatvec(y) - p.As.T @ y) <= 1e-14 * (np.abs(p.As).T @ np.abs(y))
            )

    @pytest.mark.parametrize(
        "overrides", [{}, {"phase_cov": correlated_cov(12)}], ids=["desk", "cov"]
    )
    def test_outage_programs(self, overrides):
        p = OutageProblem(build_scenario(desk_config(**overrides))).problem
        assert len(p.runs) == 1  # the PSD and nonnegative blocks come first
        soc = [sl for blk, sl in zip(p.cones, p.slices) if blk.kind == "soc"]
        assert p.soc_cols.size == sum(sl.stop - sl.start for sl in soc)  # one per column
        self.assert_products_match(p, np.random.default_rng(1))

    def test_a9_draws_with_soc_blocks(self):
        rng = np.random.default_rng(20260810)  # test_a9_solver_correctness's draws
        draws = [random_feasible_problem(rng)[0] for _ in range(50)]
        with_soc = [p for p in draws if any(blk.kind == "soc" for blk in p.cones)]
        assert len(with_soc) >= 10
        for p in with_soc:
            self.assert_products_match(p, rng)

    def test_all_soc_program(self):
        rng = np.random.default_rng(3)
        cones = [ConeBlock("soc", 3), ConeBlock("soc", 1), ConeBlock("soc", 4)]
        A = rng.normal(size=(5, 8)) * (rng.uniform(size=(5, 8)) < 0.5)
        p = ConicProblem(A, np.ones(5), cones)
        assert p.runs == []
        self.assert_products_match(p, rng)

    def test_no_equality_rows(self):
        cones = [ConeBlock("nonneg", 2), ConeBlock("soc", 3), ConeBlock("psd", 2)]
        p = ConicProblem(np.zeros((0, 8)), np.zeros(0), cones)
        v = np.arange(8.0)
        assert p.matvec(v).shape == (0,) and p.matvec(v).dtype == float
        assert p.rmatvec(np.zeros(0)).tobytes() == np.zeros(8).tobytes()

    @pytest.mark.parametrize("overrides", [{}, FULL_SCALE_AVG], ids=["desk", "full"])
    def test_products_without_soc_give_dense_bits(self, overrides):
        p = AvgSinrProblem(build_scenario(desk_config(**overrides))).problem
        assert p.runs == [slice(0, p.n)] and p.soc_cols.size == 0
        rng = np.random.default_rng(2)
        for _ in range(3):
            v, y = rng.normal(size=p.n), rng.normal(size=p.m)
            assert p.matvec(v).tobytes() == (p.As @ v).tobytes()
            assert p.rmatvec(y).tobytes() == (p.As.T @ y).tobytes()


class TestSchurPlanMemory:
    """The Schur plan reads PSD rows from the equilibrated A: it holds no
    expanded copy of them, only index and coefficient vectors, and expands
    them one bounded chunk at a time."""

    @staticmethod
    def arrays(obj):
        """Every array reachable from obj through containers and PsdRows."""
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                yield from TestSchurPlanMemory.arrays(item)
        elif isinstance(obj, dict):
            yield from TestSchurPlanMemory.arrays(list(obj.values()))
        elif isinstance(obj, PsdRows):
            yield from TestSchurPlanMemory.arrays(list(vars(obj).values()))

    @pytest.mark.parametrize("design", [AvgSinrProblem, OutageProblem], ids=["avg", "outage"])
    def test_plan_holds_no_row_expansion(self, desk_scenario, design):
        p = design(desk_scenario).problem
        plan = p.schur
        ops = [op for _, _, op in plan.dense if isinstance(op, PsdRows)]
        assert ops
        for op in ops:
            assert np.shares_memory(op.cols, p.As)
        # SOC blocks keep their own rows of As (``soc``), a few per block.
        held = [v for k, v in vars(plan).items() if k != "soc"]
        for arr in self.arrays(held):
            if arr.dtype.kind not in "fc" or np.shares_memory(arr, p.As):
                continue
            assert arr.ndim == 1 and arr.size <= plan.m  # one entry per row

    @pytest.mark.parametrize("kind, d", [("multi", 60), ("diag", 60), ("offdiag", 12)])
    def test_write_temporaries_stay_bounded(self, kind, d):
        # Ten chunks of rows of one kind: what write_W_cols allocates at once
        # is a few chunks of (d, d) matrices, not the whole block's rows.
        block = ConeBlock("psd", d, hermitian=True)
        rng = np.random.default_rng(d + len(kind))
        sc = nt_scaling(block, interior_point(block, rng), interior_point(block, rng))
        op = row_operand(block, rows_of_kind(kind, d, 10 * (CHUNK_ELEMENTS // d**2), rng))
        G = np.empty(op.cols.shape)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            op.write_W_cols(sc, G)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 4 * CHUNK_ELEMENTS * np.dtype(complex).itemsize


class TestSharedPreparation:
    """Objectives solved in turn on one problem each give the bits of a
    fresh problem built for them alone, and no solve writes what the problem
    holds."""

    @staticmethod
    def assert_same_bits(got, want):
        assert got.status == want.status
        for name in ("x", "y", "z"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.obj_primal == want.obj_primal

    @pytest.mark.parametrize("design", [AvgSinrProblem, OutageProblem], ids=["avg", "outage"])
    def test_penalty_objective_matches_fresh_problem(self, desk_scenario, design, monkeypatch):
        given = record_A(monkeypatch)
        prob = design(desk_scenario)
        A = given[0]  # unscaled, before the problem equilibrates it
        ws, first = prob.solve()
        k = desk_scenario.feeds
        vs = [np.linalg.eigh(w)[1][:, -1] for w in ws]
        objs = [2.0 * np.eye(k) - np.outer(v, v.conj()) for v in vs]
        _, penalty = prob.solve(objs)
        p = prob.problem
        for mats, shared in (([np.eye(k)] * len(ws), first), (objs, penalty)):
            c = prob.builder.objective_vector(zip(prob.w_refs, mats))
            fresh = solve(ConicProblem(A.copy(), p.b.copy(), p.cones), c)
            assert fresh.status == OPTIMAL
            self.assert_same_bits(shared, fresh)
        # the relaxation objective, solved again, gives its first bits again
        self.assert_same_bits(prob.solve()[1], first)

    def test_objectives_in_turn_match_fresh_problems(self, monkeypatch):
        rng = np.random.default_rng(41)
        given = record_A(monkeypatch)
        for _ in range(4):
            p, c, _ = random_feasible_problem(rng)
            A = given[-1]  # unscaled, before the problem equilibrates it
            first = solve(p, c)
            # c + A'dy keeps c = A'y + z with the same interior z: bounded.
            c2 = c + A.T @ rng.normal(size=p.m)
            second = solve(p, c2)
            for obj, shared in ((c, first), (c2, second)):
                self.assert_same_bits(shared, solve(ConicProblem(A.copy(), p.b, p.cones), obj))
            self.assert_same_bits(solve(p, c), first)

    @staticmethod
    def held(p):
        """The bytes of every array reachable from the problem and its plan."""
        arrays = TestSchurPlanMemory.arrays([vars(p), vars(p.schur)])
        return [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    @pytest.mark.parametrize("case", ["avg", "outage", "a9"])
    def test_solves_write_nothing_the_problem_holds(self, desk_scenario, case):
        if case == "a9":
            rng = np.random.default_rng(20260810)  # test_a9_solver_correctness's draws
            draws = [random_feasible_problem(rng) for _ in range(3)]
            programs = [(p, c, c + p.A.T @ rng.normal(size=p.m)) for p, c, _ in draws]
        else:
            design = AvgSinrProblem if case == "avg" else OutageProblem
            lifted = design(desk_scenario)
            eye = np.eye(desk_scenario.feeds)
            tilted = 2.0 * eye - np.outer(eye[0], eye[0])  # a penalty round's form
            c, c2 = (
                lifted.builder.objective_vector((ref, mat) for ref in lifted.w_refs)
                for mat in (eye, tilted)
            )
            programs = [(lifted.problem, c, c2)]
        for p, c, c2 in programs:
            before = self.held(p)
            assert len(before) > 10
            assert solve(p, c).status == solve(p, c2).status == OPTIMAL
            assert self.held(p) == before

    def test_objective_checked_on_every_solve(self):
        p, c = soc_pythagorean()
        assert solve(p, c).status == OPTIMAL
        for bad in (np.ones(p.n + 1), np.full(p.n, np.nan)):
            with pytest.raises(ValueError, match="finite vector"):
                solve(p, bad)

    def test_builder_builds_once(self):
        bld = ConeProgramBuilder()
        v = bld.add_soc(3)
        bld.add_eq([(v, {1: 1.0})], 3.0)
        bld.build()
        # the builder keeps its variables, so objectives are posed after the build
        assert bld.objective_vector([(v, {0: 1.0})]).tolist() == [1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="already built"):
            bld.build()


def infeasible_problems(monkeypatch):
    """Canned programs the solver must prove infeasible, each with its
    objective, a copy of its unscaled A and its status."""
    given = record_A(monkeypatch)
    bld = ConeProgramBuilder()
    v = bld.add_soc(3)  # v0 = 1 < ||(3, 4)||
    bld.add_eq([(v, {0: 1.0})], 1.0)
    bld.add_eq([(v, {1: 1.0})], 3.0)
    bld.add_eq([(v, {2: 1.0})], 4.0)
    soc = bld.build()
    c_soc = bld.objective_vector([(v, {0: 10.0})])  # cscale 10 after equilibration
    nonneg = [ConeBlock("nonneg", 1)]

    def exact(c, A, b, cones):
        return ConicProblem(A.copy(), b, cones), c, A

    return [
        (*exact(np.ones(1), np.ones((1, 1)), -np.ones(1), nonneg), PRIMAL_INFEASIBLE),
        (soc, c_soc, given[0], PRIMAL_INFEASIBLE),
        (*exact(-np.ones(1), np.zeros((0, 1)), np.zeros(0), nonneg), DUAL_INFEASIBLE),
        # minimize -10 x1 over x >= 0 with 2 x0 - x1 = 1: unbounded below
        (
            *exact(
                np.array([0.0, -10.0]),
                np.array([[2.0, -1.0]]),
                np.array([1.0]),
                [ConeBlock("nonneg", 2)],
            ),
            DUAL_INFEASIBLE,
        ),
    ]


class TestScaledResiduals:
    """The solver reads its residuals and its infeasibility tests off the
    scaled residuals of the loop head.  At every iterate they agree with the
    products by the unscaled A that they replace, within 1e-12 in the
    reported (normalised) units, and the objectives are the same bits."""

    @staticmethod
    def assert_metrics_match_A(problem, c, A, monkeypatch):
        b = problem.b  # A: the exact unscaled A, recorded at build
        calls = count_calls(monkeypatch, solver_module, "_metrics")
        s = solve(problem, c)
        assert len(calls) == s.n_iter > 0
        bnorm, cnorm = 1 + np.linalg.norm(b), 1 + np.linalg.norm(c)
        for (p, cscale, _, _, x, y, z, tau, _, _), info in zip(calls, s.iterations):
            xo, yo, zo = _unscaled(p, cscale, x / tau, y / tau, z / tau)
            assert abs(info.pres - np.linalg.norm(A @ xo - b) / bnorm) <= 1e-12
            assert abs(info.dres - np.linalg.norm(A.T @ yo + zo - c) / cnorm) <= 1e-12
            assert info.pobj == float(c @ xo)
            assert info.dobj == float(b @ yo)
        monkeypatch.undo()  # the next problem's solve wraps the original again

    @pytest.mark.parametrize(
        "design, overrides",
        [(AvgSinrProblem, {}), (OutageProblem, {}), (OutageProblem, {"feeds": 18})],
        ids=["avg-desk", "outage-desk", "outage-k18"],
    )
    def test_design_programs(self, design, overrides, monkeypatch):
        given = record_A(monkeypatch)
        problem, c = design_program(design, build_scenario(desk_config(**overrides)))
        self.assert_metrics_match_A(problem, c, given[0], monkeypatch)

    def test_a9_family(self, monkeypatch):
        rng = np.random.default_rng(20260810)  # test_a9_solver_correctness's draws
        for _ in range(50):
            given = record_A(monkeypatch)  # patched again: each check undoes it
            problem, c, _ = random_feasible_problem(rng)
            self.assert_metrics_match_A(problem, c, given[-1], monkeypatch)

    @pytest.mark.parametrize(
        "case", range(4), ids=["nonneg-primal", "soc-primal", "nonneg-dual", "row-dual"]
    )
    def test_infeasibility_tests(self, case, monkeypatch):
        problem, c, A, want = infeasible_problems(monkeypatch)[case]
        b = problem.b
        points = count_calls(monkeypatch, solver_module, "_metrics")
        products = []
        ray_products = solver_module._ray_products

        def recorded(*args):
            products.append(ray_products(*args))
            return products[-1]

        monkeypatch.setattr(solver_module, "_ray_products", recorded)
        s = solve(problem, c)
        assert s.status == want
        assert products and len(products) <= len(points)
        bnorm, cnorm = 1 + np.linalg.norm(b), 1 + np.linalg.norm(c)
        for (p, cscale, _, _, x, y, z, _, _, _), (Axu, Atyu_zu) in zip(points, products):
            xu, yu, zu = _unscaled(p, cscale, x, y, z)
            by, cx = float(b @ yu), float(c @ xu)
            if by > 0:
                got = np.linalg.norm(Atyu_zu / by) / cnorm
                assert abs(got - np.linalg.norm(A.T @ (yu / by) + zu / by) / cnorm) <= 1e-12
            if cx < 0:
                got = np.linalg.norm(Axu / -cx) / bnorm
                assert abs(got - np.linalg.norm(A @ (xu / -cx)) / bnorm) <= 1e-12
        # the last products are the certifying iterate's, checked above
        assert by > 0 if want == PRIMAL_INFEASIBLE else cx < 0


class TestOneA:
    """The problem owns the only dense A: its constructor takes the array
    over and equilibrates it in place, with transients of a fraction of its
    size, and leaves a rejected A unscaled."""

    @pytest.mark.parametrize("design", [AvgSinrProblem, OutageProblem], ids=["avg", "outage"])
    def test_prepared_holds_one_A(self, desk_scenario, design):
        p = design(desk_scenario).problem
        held = [vars(p), vars(p.schur)]
        floats = [a for a in TestSchurPlanMemory.arrays(held) if a.dtype.kind in "fc"]
        assert {id(a) for a in floats if a.shape == (p.m, p.n)} == {id(p.As)}
        for arr in floats:
            if not np.shares_memory(arr, p.As):
                assert arr.size <= p.m * p.n // 10

    def test_preparation_adds_a_fraction_of_A(self, monkeypatch):
        scenario = build_scenario(desk_config(feeds=18))
        peaks = []

        def measured(A, b, cones):
            # A is already made: the peak is the constructor's own work
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            problem = ConicProblem(A, b, cones)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return problem

        monkeypatch.setattr(model_module, "ConicProblem", measured)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            p = OutageProblem(scenario).problem
        finally:
            if started:
                tracemalloc.stop()
        (peak,) = peaks
        nbytes = p.As.nbytes
        assert nbytes > 10e6
        assert peak <= 0.25 * nbytes

    def test_builder_hands_A_over(self, monkeypatch):
        given = []

        def recorded(A, b, cones):
            given.append(A)
            return ConicProblem(A, b, cones)

        monkeypatch.setattr(model_module, "ConicProblem", recorded)
        p, _ = soc_pythagorean()
        assert np.shares_memory(given[0], p.As)

    def test_caller_arrays_unchanged(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            p, c, _ = random_feasible_problem(rng)
            A, b = p.A, p.b.copy()
            c2 = c + A.T @ rng.normal(size=p.m)
            kept = [arr.copy() for arr in (b, c, c2)]
            q = ConicProblem(A, b, p.cones)
            assert np.shares_memory(q.As, A)  # taken over, not copied
            assert solve(q, c).status == solve(q, c2).status == OPTIMAL
            for arr, want in zip((b, c, c2), kept):
                assert arr.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
    def test_rejected_A_left_unscaled(self, bad):
        cones = [ConeBlock("nonneg", 2), ConeBlock("soc", 3)]
        A = np.random.default_rng(12).normal(size=(3, 6 if bad == "shape" else 5))
        if bad != "shape":
            A[1, 2] = float(bad)
        kept = A.copy()
        with pytest.raises(ValueError, match="must be 3x5" if bad == "shape" else "finite"):
            ConicProblem(A, np.ones(3), cones)
        assert A.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("design", [AvgSinrProblem, OutageProblem], ids=["avg", "outage"])
    def test_A_reads_back_within_a_few_ulp(self, desk_scenario, design, monkeypatch):
        given = record_A(monkeypatch)
        p = design(desk_scenario).problem
        A = given[0]
        back = p.A
        assert np.all(np.abs(back - A) <= 4 * np.finfo(float).eps * np.abs(A))
        assert np.array_equal(back == 0, A == 0)


class TestTimings:
    def test_phase_seconds_within_wall_time(self):
        rng = np.random.default_rng(9)
        p, c, _ = random_feasible_problem(rng)
        t0 = time.perf_counter()
        s = solve(p, c)
        wall = time.perf_counter() - t0
        assert s.status == OPTIMAL
        assert tuple(s.timings) == PHASES
        assert all(v >= 0.0 for v in s.timings.values())
        assert s.timings["factor"] > 0.0
        assert sum(s.timings.values()) <= wall


@pytest.mark.parametrize("module", [leobeam, conic], ids=["leobeam", "leobeam.conic"])
def test_export_list_resolves(module):
    # A stale __all__ entry otherwise fails only on ``import *``.
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
