import time
import tracemalloc

import numpy as np
import pytest

from conftest import correlated_cov, desk_config
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
    jordan_mul,
    max_step,
    nt_scaling,
    row_operand,
    smat,
    svec,
)
from leobeam.conic import solver as solver_module
from leobeam.conic.solver import (
    _TRIL_LEAF,
    PHASES,
    _ConeVec,
    _equilibrate,
    _SchurPlan,
    _tril_inv,
)
from leobeam.robust_avg import AvgSinrProblem
from leobeam.robust_outage import OutageProblem
from leobeam.scenario import build_scenario


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
        # Farkas ray: b'y > 0 and -(A'y) in K, here the nonnegative orthant.
        assert p.b @ y > 0
        assert np.all(-(p.A.T @ y) >= 0)

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
            _, obj, pres_admm, dres_admm = solve_conic_admm(p.c, p.A, p.b, kinds, iters=20000)
            assert max(pres_admm, dres_admm) <= 1e-10  # converged, not stopped at the cap
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


def build_hermitian_program(data, embedded):
    """The program of ``random_hermitian_program`` with native Hermitian
    blocks, or with each block as its real embedding of twice the order."""
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
    bld.set_objective(obj)
    return bld, refs


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
            native, refs = build_hermitian_program(data, embedded=False)
            emb, emb_refs = build_hermitian_program(data, embedded=True)
            p, q = native.build(), emb.build()
            assert p.n == sum(k * k for k in data["orders"]) + data["n_nonneg"]
            s, t = solve(p), solve(q)
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
        bld.set_objective([(w, np.eye(3))])
        return bld.build()

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
        single = self.program(data, block=False)
        block = self.program(data, block=True)
        assert block.m == single.m == r + 2
        assert np.array_equal(block.A, single.A)
        assert np.array_equal(block.b, single.b)
        assert np.array_equal(block.c, single.c)

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
    @pytest.mark.parametrize("k", [1, _TRIL_LEAF, _TRIL_LEAF + 1, 2 * _TRIL_LEAF + 1, 954])
    def test_tril_inv_matches_inverse(self, k):
        rng = np.random.default_rng(k)
        g = rng.normal(size=(k, k))
        L = np.linalg.cholesky(g @ g.T / k + np.eye(k))
        Linv = _tril_inv(L)
        assert np.abs(Linv @ L - np.eye(k)).max() <= 1e-12
        assert np.allclose(Linv, np.linalg.inv(L), rtol=0, atol=1e-12)
        assert np.array_equal(Linv, np.tril(Linv))

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
        p = ConicProblem(c, np.zeros((0, c.size)), np.zeros(0), cones)
        s = solve(p)
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


def ipm_scalings(problem, monkeypatch, iterations):
    """Per-block NT scalings at the given iterations of a solve of ``problem``."""
    seen = []

    def recorded(blk, x, z):
        seen.append((blk, x.copy(), z.copy()))
        return nt_scaling(blk, x, z)

    monkeypatch.setattr(solver_module, "nt_scaling", recorded)
    solve(problem)
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
        problem = design(scenario).problem
        As = _equilibrate(problem)[0]
        plan = _SchurPlan(problem.cones, _ConeVec(problem.cones).slices, As)
        iterates = ipm_scalings(problem, monkeypatch, (0, 2, 4, 6))
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
        problem = design(build_scenario(desk_config(**overrides))).problem
        iterates = ipm_scalings(problem, monkeypatch, (0, 2, 4))
        assert len(iterates) == 3
        plan = problem.prepared().schur
        ops = [(i, op) for i, _, op in plan.dense if isinstance(op, PsdRows)]
        assert ops
        for scalings in iterates:
            for i, op in ops:
                G = np.full(op.cols.shape, np.nan)
                op.write_W_cols(scalings[i], G)
                want = scalings[i].apply_W_cols(smat(op.cols, op.d))
                assert G.tobytes() == want.tobytes()


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
        prep = design(desk_scenario).problem.prepared()
        plan = prep.schur
        ops = [op for _, _, op in plan.dense if isinstance(op, PsdRows)]
        assert ops
        for op in ops:
            assert np.shares_memory(op.cols, prep.As)
        # SOC blocks keep their own rows of As (``soc``), a few per block.
        held = [v for k, v in vars(plan).items() if k != "soc"]
        for arr in self.arrays(held):
            if arr.dtype.kind not in "fc" or np.shares_memory(arr, prep.As):
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
    """A solve that reuses a problem's equilibration and Schur plan gives the
    bits of a solve that makes its own."""

    @staticmethod
    def assert_same_bits(got, want):
        assert got.status == want.status
        for name in ("x", "y", "z"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.obj_primal == want.obj_primal

    @pytest.mark.parametrize("design", [AvgSinrProblem, OutageProblem], ids=["avg", "outage"])
    def test_penalty_objective_matches_fresh_problem(self, desk_scenario, design):
        prob = design(desk_scenario)
        ws, _ = prob.solve()  # the relaxation prepares the shared work
        k = desk_scenario.feeds
        vs = [np.linalg.eigh(w)[1][:, -1] for w in ws]
        objs = [2.0 * np.eye(k) - np.outer(v, v.conj()) for v in vs]
        _, shared = prob.solve(objs)
        c = prob.builder.objective_vector(zip(prob.w_refs, objs))
        p = prob.problem
        fresh = solve(ConicProblem(c, p.A.copy(), p.b.copy(), p.cones))
        assert fresh.status == OPTIMAL
        self.assert_same_bits(shared, fresh)

    def test_with_objective_matches_fresh_problem(self):
        rng = np.random.default_rng(41)
        for _ in range(4):
            p, _ = random_feasible_problem(rng)
            first = solve(p)
            # c + A'dy keeps c = A'y + z with the same interior z: bounded.
            c2 = p.c + p.A.T @ rng.normal(size=p.m)
            sibling = p.with_objective(c2)
            assert sibling.prepared() is p.prepared()
            self.assert_same_bits(solve(sibling), solve(ConicProblem(c2, p.A, p.b, p.cones)))
            # the first objective is still solved to the same bits after the sibling's solve
            self.assert_same_bits(solve(p), first)

    def test_objective_checked_on_every_solve(self):
        p = soc_pythagorean()
        assert solve(p).status == OPTIMAL
        for bad in (np.ones(p.n + 1), np.full(p.n, np.nan)):
            with pytest.raises(ValueError, match="finite vector"):
                solve(p.with_objective(bad))

    def test_builder_builds_once(self):
        bld = ConeProgramBuilder()
        v = bld.add_soc(3)
        bld.add_eq([(v, {1: 1.0})], 3.0)
        bld.set_objective([(v, {0: 1.0})])
        p = bld.build()
        assert np.array_equal(bld.objective_vector([(v, {0: 1.0})]), p.c)
        with pytest.raises(ValueError, match="already built"):
            bld.build()


class TestTimings:
    def test_phase_seconds_within_wall_time(self):
        rng = np.random.default_rng(9)
        p, _ = random_feasible_problem(rng)
        t0 = time.perf_counter()
        s = solve(p)
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
