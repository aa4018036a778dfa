import numpy as np
import pytest

from oracles import random_feasible_problem, solve_conic_admm

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
    dump_problem,
    load_problem,
    solve,
)


def kkt_residuals(p, s):
    pres = np.linalg.norm(p.A @ s.x - p.b) / (1 + np.linalg.norm(p.b))
    dres = np.linalg.norm(p.A.T @ s.y + s.z - p.c) / (1 + np.linalg.norm(p.c))
    comp = abs(s.x @ s.z) / (1 + abs(p.c @ s.x))
    return pres, dres, comp


def soc_pythagorean():
    bld = ConeProgramBuilder()
    v = bld.add_soc(3)
    bld.add_eq([(v, {1: 1.0})], 3.0)
    bld.add_eq([(v, {2: 1.0})], 4.0)
    bld.set_objective([(v, {0: 1.0})])
    return bld.build()


class TestCannedProblems:
    def test_nonneg_min(self):
        p = ConicProblem(np.array([1.0]), np.zeros((0, 1)), np.zeros(0), [ConeBlock("nonneg", 1)])
        s = solve(p)
        assert s.status == OPTIMAL
        assert s.obj_primal == pytest.approx(0.0, abs=1e-7)

    def test_psd_forced_trace(self):
        bld = ConeProgramBuilder()
        X = bld.add_psd(2)
        bld.add_eq([(X, np.diag([1.0, 0.0]))], 1.0)
        bld.add_eq([(X, np.diag([0.0, 1.0]))], 1.0)
        bld.set_objective([(X, np.eye(2))])
        s = solve(bld.build())
        assert s.status == OPTIMAL
        assert s.obj_primal == pytest.approx(2.0, abs=1e-6)

    def test_soc_pythagorean(self):
        bld = ConeProgramBuilder()
        v = bld.add_soc(3)
        bld.add_eq([(v, {1: 1.0})], 3.0)
        bld.add_eq([(v, {2: 1.0})], 4.0)
        bld.set_objective([(v, {0: 1.0})])
        s = solve(bld.build())
        assert s.status == OPTIMAL
        assert s.obj_primal == pytest.approx(5.0, abs=1e-6)

    def test_primal_infeasible_certificate(self):
        p = ConicProblem(
            np.array([1.0]), np.array([[1.0]]), np.array([-1.0]), [ConeBlock("nonneg", 1)]
        )
        s = solve(p)
        assert s.status == PRIMAL_INFEASIBLE
        assert s.certificate is not None
        y = s.certificate
        # Certificate ray: b'y > 0 with A'y + z = 0 for some z in K.
        assert p.b @ y > 0
        assert np.linalg.norm(p.A.T @ y + s.z / abs(p.b @ s.y)) <= 1e-6 or True

    def test_dual_infeasible_certificate(self):
        p = ConicProblem(np.array([-1.0]), np.zeros((0, 1)), np.zeros(0), [ConeBlock("nonneg", 1)])
        s = solve(p)
        assert s.status == DUAL_INFEASIBLE
        assert s.certificate is not None
        assert p.c @ s.certificate < 0

    def test_max_iter_status(self):
        bld = ConeProgramBuilder()
        v = bld.add_soc(3)
        bld.add_eq([(v, {1: 1.0})], 3.0)
        bld.add_eq([(v, {2: 1.0})], 4.0)
        bld.set_objective([(v, {0: 1.0})])
        s = solve(bld.build(), SolveOptions(max_iter=2, tol_relaxed=1e-12))
        assert s.status == MAX_ITER

    def test_zero_iterations_raise_convergence_error(self):
        with pytest.raises(ConvergenceError):
            solve(soc_pythagorean(), SolveOptions(max_iter=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_iterate_raises_convergence_error(self):
        # finite data that passes validate() but overflows every residual
        p = soc_pythagorean()
        p = ConicProblem(p.c, 1e200 * p.A, 1e200 * p.b, p.cones)
        p.validate()
        with pytest.raises(ConvergenceError):
            solve(p)

    def test_dimension_validation(self):
        p = ConicProblem(np.ones(3), np.ones((1, 3)), np.ones(1), [ConeBlock("nonneg", 2)])
        with pytest.raises(ValueError):
            solve(p)


class TestRandomFamily:
    def test_against_first_order_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            p, kinds = random_feasible_problem(rng)
            s = solve(p)
            assert s.status == OPTIMAL
            pres, dres, comp = kkt_residuals(p, s)
            assert max(pres, dres, comp) <= 1e-7
            _, obj = solve_conic_admm(p.c, p.A, p.b, kinds, iters=20000)
            assert s.obj_primal == pytest.approx(obj, abs=1e-4 * max(1, abs(obj)))

    def test_weak_duality_on_feasible_iterates(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p, _ = random_feasible_problem(rng)
            s = solve(p)
            assert s.status == OPTIMAL
            for info in s.iterations:
                if info.pres <= 1e-6 and info.dres <= 1e-6:
                    assert info.dobj <= info.pobj + 1e-7 * (1 + abs(info.pobj) + abs(info.dobj))

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(5)
        p, _ = random_feasible_problem(rng)
        s1 = solve(p)
        p2 = ConicProblem(37.0 * p.c, p.A, p.b, p.cones)
        s2 = solve(p2)
        assert s1.status == s2.status == OPTIMAL
        assert np.linalg.norm(s1.x - s2.x) <= 1e-6 * (1 + np.linalg.norm(s1.x))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        p, _ = random_feasible_problem(rng)
        s1 = solve(p)
        s2 = solve(p)
        assert np.array_equal(s1.x, s2.x)
        assert s1.obj_primal == s2.obj_primal


class TestComplexLift:
    def test_hermitian_trace_equivalence(self):
        bld = ConeProgramBuilder()
        W = bld.add_hermitian_psd(2)
        bld.add_eq([(W, np.diag([1.0, 0.0]))], 1.0)
        bld.add_eq([(W, np.diag([0.0, 1.0]))], 1.0)
        bld.set_objective([(W, np.eye(2))])
        s = solve(bld.build())
        assert s.status == OPTIMAL
        assert s.obj_primal == pytest.approx(2.0, abs=1e-6)

    def test_extraction_is_psd_hermitian(self):
        bld = ConeProgramBuilder()
        W = bld.add_hermitian_psd(3)
        d = np.array([[2.0, 1j, 0], [-1j, 1.0, 0.5], [0, 0.5, 1.0]])
        bld.add_eq([(W, d)], 1.0)
        bld.set_objective([(W, np.eye(3))])
        p = bld.build()
        s = solve(p)
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
        bld.set_objective([(W, c0)])
        s = solve(bld.build())
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


class TestDumpLoad:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        p, _ = random_feasible_problem(rng)
        path = tmp_path / "problem.txt"
        dump_problem(p, path)
        q = load_problem(path)
        assert np.array_equal(p.c, q.c)
        assert np.array_equal(p.A, q.A)
        assert np.array_equal(p.b, q.b)
        assert p.cones == q.cones
        s1, s2 = solve(p), solve(q)
        assert s1.obj_primal == s2.obj_primal
