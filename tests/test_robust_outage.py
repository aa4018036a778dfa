import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import correlated_cov, count_calls, desk_config
from oracles import (
    bernstein_tail_bound,
    random_hermitian,
    taylor_quadratic,
    vecq_outage_problem,
)

from leobeam.channel import PhaseErrorModel
from leobeam.conic.cones import smat, svec
from leobeam.conic.solver import OPTIMAL, PRIMAL_INFEASIBLE
from leobeam.errors import ConfigError, InfeasibleDesignError
from leobeam.evaluator import CHUNK_ELEMENTS, evaluate
from leobeam.network import per_feed_power
from leobeam import robust_avg
from leobeam.conic import ConeProgramBuilder
from leobeam.robust_avg import (
    AvgSinrProblem,
    check_memory,
    design_avg_sinr,
    design_bytes,
    physical_memory,
)
from leobeam.robust_outage import (
    OutageProblem,
    design_outage,
    margin_form,
    margin_matrix,
    margin_scalars,
    mu_from_outage,
    soc_row_values,
    taylor_linear_vector,
    taylor_quad_matrix,
    taylor_terms,
)
from leobeam.scenario import NetworkConfig, build_scenario


def with_cov(desk_scenario, cov):
    """The desk scenario, or its draw with the correlated covariance."""
    if cov is None:
        return desk_scenario
    return build_scenario(desk_config(phase_cov=correlated_cov(desk_scenario.feeds)))


class TestTaylorMaps:
    def test_identity_maps_to_zero(self):
        assert np.allclose(taylor_quad_matrix(np.eye(4)), 0.0)

    def test_two_by_two_quad(self):
        a, b, d = 1.7, -0.4, 2.2
        m = np.array([[a, b], [b, d]])
        want = np.array([[-b, b], [b, -b]])
        assert np.allclose(taylor_quad_matrix(m), want)

    def test_two_by_two_linear(self):
        beta = 0.9
        b = np.array([[0.0, beta], [-beta, 0.0]])
        assert np.allclose(taylor_linear_vector(b), [2 * beta, -2 * beta])

    def test_zero_linear(self):
        assert np.allclose(taylor_linear_vector(np.zeros((3, 3))), 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a1 = rng.normal(size=(4, 4))
            a2 = rng.normal(size=(4, 4))
            a1, a2 = 0.5 * (a1 + a1.T), 0.5 * (a2 + a2.T)
            assert np.allclose(
                taylor_quad_matrix(a1 + a2),
                taylor_quad_matrix(a1) + taylor_quad_matrix(a2),
            )
            b1 = rng.normal(size=(4, 4))
            b1 = 0.5 * (b1 - b1.T)
            assert np.allclose(taylor_linear_vector(3.0 * b1), 3.0 * taylor_linear_vector(b1))

    def test_batch_matches_one_at_a_time(self):
        stack = np.random.default_rng(2).normal(size=(6, 5, 5))
        quad, lin = taylor_quad_matrix(stack), taylor_linear_vector(stack)
        for a, q, v in zip(stack, quad, lin):
            assert np.array_equal(q, taylor_quad_matrix(a))
            assert np.array_equal(v, taylor_linear_vector(a))

    def test_skew_linear_term_sums_to_zero(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(5, 5))
        b = 0.5 * (b - b.T)
        assert taylor_linear_vector(b).sum() == pytest.approx(0.0, abs=1e-12)


class TestTaylorQuadratic:
    def test_zero_angle_exact(self):
        rng = np.random.default_rng(2)
        z = random_hermitian(rng, 4)
        assert taylor_quadratic(z, np.zeros(4)) == pytest.approx(
            float(z.sum().real), rel=1e-14
        )

    def test_third_order_remainder(self):
        rng = np.random.default_rng(3)
        z = random_hermitian(rng, 5)
        direction = rng.normal(size=5)
        direction /= np.linalg.norm(direction)
        errs = []
        scales = [1e-1, 3e-2, 1e-2, 3e-3]
        for s in scales:
            theta = s * direction
            x = np.exp(1j * theta)
            exact = np.real(x.conj() @ z @ x)
            errs.append(abs(exact - taylor_quadratic(z, theta)))
        # cubic remainder: error <= c ||theta||^3 with stable c
        cs = [e / s**3 for e, s in zip(errs, scales)]
        assert max(cs) <= 3.0 * min(cs)

    def test_real_diagonal_reduces_to_weighted_squares(self):
        rng = np.random.default_rng(4)
        d = np.diag(rng.normal(size=4))
        theta = rng.normal(0, 0.05, 4)
        f1 = taylor_quad_matrix(d)
        by_hand = float(d.sum()) + sum(f1[i, i] * theta[i] ** 2 for i in range(4))
        # off-diagonals of f1(diag) vanish, so the quadratic is diagonal
        assert taylor_quadratic(d, theta) == pytest.approx(by_hand, rel=1e-12)


class TestMuFromOutage:
    def test_known_value(self):
        mu = mu_from_outage(0.05)
        g = np.sqrt(np.log(1 / 0.05))
        assert g == pytest.approx(1.7308, abs=1e-4)
        assert mu == pytest.approx(1.98297, abs=1e-4)

    def test_defining_equation_residual(self):
        for p in (0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999):
            mu = mu_from_outage(p)
            g = np.sqrt(np.log(1.0 / p))
            assert (1.0 - 0.5 / mu**2) * mu == pytest.approx(g, abs=1e-12)
            assert mu > 1.0 / np.sqrt(2.0)

    def test_root_finding_oracle(self):
        # bisect the defining equation independently
        p = 0.05
        g = np.sqrt(np.log(1.0 / p))
        lo, hi = 1.0 / np.sqrt(2.0) + 1e-12, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (1.0 - 0.5 / mid**2) * mid < g:
                lo = mid
            else:
                hi = mid
        assert mu_from_outage(p) == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_limit_p_to_one(self):
        assert mu_from_outage(1 - 1e-12) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-5)

    def test_rejects_boundary(self):
        for p in (0.0, 1.0):
            with pytest.raises(ConfigError):
                mu_from_outage(p)


class TestMarginMatrix:
    def test_hermitian(self, desk_scenario):
        rng = np.random.default_rng(5)
        ws = [random_hermitian(rng, desk_scenario.feeds) for _ in range(desk_scenario.beams)]
        for u in desk_scenario.users:
            z = margin_matrix(u, ws)
            assert np.allclose(z, z.conj().T)

    def test_all_ones_phasor_gives_entry_sum(self, desk_scenario):
        rng = np.random.default_rng(6)
        ws = [random_hermitian(rng, desk_scenario.feeds) for _ in range(desk_scenario.beams)]
        u = desk_scenario.users[0]
        z = margin_matrix(u, ws)
        ones = np.ones(desk_scenario.feeds)
        assert np.real(ones @ z @ ones) == pytest.approx(float(z.sum().real), rel=1e-12)

    def test_boundary_single_user(self):
        # at gamma = alpha |h^H w|^2 / sigma0^2 the zero-error margin is zero
        sc = build_scenario(desk_config(feeds=4, beams=1, users_per_region=1, seed=7))
        u = sc.users[0]
        h = u.channel.estimated
        w = h / np.linalg.norm(h)
        boundary_gamma = u.alpha * abs(h.conj() @ w) ** 2 / sc.noise_power
        sc2 = sc.with_config(gamma_db=10.0 * np.log10(boundary_gamma))
        u2 = sc2.users[0]
        z = margin_matrix(u2, [np.outer(w, w.conj())])
        q = np.ones(4)
        assert np.real(q @ z @ q) - sc.noise_power == pytest.approx(0.0, abs=1e-9)

    def test_scalars_sign(self, desk_scenario):
        for u in desk_scenario.users:
            betas = margin_scalars(u)
            assert betas[u.region] > 0  # feasible targets keep the own-term positive
            for j, b in enumerate(betas):
                if j != u.region:
                    assert b < 0


class TestBernsteinBound:
    def test_deterministic_case(self):
        assert bernstein_tail_bound(np.zeros((3, 3)), np.zeros(3), 1.0, 2.0) == 0.0
        assert bernstein_tail_bound(np.zeros((3, 3)), np.zeros(3), -1.0, 2.0) == 1.0

    def test_monte_carlo_upper_bound(self):
        # the analytic tail bound dominates the empirical tail
        rng = np.random.default_rng(8)
        k = 6
        for _ in range(5):
            q = rng.normal(size=(k, k))
            q = 0.2 * (q + q.T)
            r = 0.3 * rng.normal(size=k)
            s = 4.0 + rng.uniform(0, 2)
            mu = mu_from_outage(0.05)
            e = rng.standard_normal((200_000, k))
            vals = np.einsum("si,ij,sj->s", e, q, e) + 2.0 * e @ r + s
            emp = np.mean(vals <= 0.0)
            bound = bernstein_tail_bound(q, r, s, mu)
            assert emp <= bound + 3.0 * np.sqrt(max(emp, 1e-6) / 200_000)


class TestSocRows:
    def test_sigma_zero_collapses_to_deterministic(self, desk_scenario):
        sc = desk_scenario.with_config(phase_sigma_deg=0.0)
        d = design_outage(sc)
        # with no uncertainty Q = 0, r = 0, and the rows force the zero-error
        # margin: the all-ones phasor meets every target exactly or better
        for u in sc.users:
            z = margin_matrix(u, [np.outer(d.beams[:, j], d.beams[:, j].conj()) for j in range(sc.beams)])
            ones = np.ones(sc.feeds)
            assert np.real(ones @ z @ ones) >= sc.noise_power * (1 - 1e-5)

    def test_feasible_point_satisfies_tail_bound(self, desk_scenario, alg2_design):
        sc = desk_scenario.with_config(outage_prob=0.05)
        for u in sc.users:
            q, r, s = soc_row_values(sc, u, alg2_design.lifted)
            mu = mu_from_outage(u.outage_prob)
            bound = bernstein_tail_bound(q, r, s, mu)
            # the rows bind at the optimum, so allow solver-tolerance slack
            assert bound <= u.outage_prob + 1e-5

    def test_homogeneity(self, desk_scenario):
        # scaling noise power and all W by one factor preserves the rows
        import dataclasses

        sc = desk_scenario
        rng = np.random.default_rng(9)
        ws = [random_hermitian(rng, sc.feeds) for _ in range(sc.beams)]
        factor = 3.7
        cfg2 = dataclasses.replace(sc.config, noise_power=factor * sc.config.noise_power)
        sc2 = dataclasses.replace(sc, config=cfg2)
        for u in sc.users:
            q1, r1, s1 = soc_row_values(sc, u, ws)
            q2, r2, s2 = soc_row_values(sc2, u, [factor * w for w in ws])
            assert np.allclose(q2, factor * q1)
            assert np.allclose(r2, factor * r1)
            assert s2 == pytest.approx(factor * s1, rel=1e-12)

    def test_cholesky_factor_gives_symmetric_root_invariants(self, desk_scenario):
        # L = C^1/2 U with U orthogonal: tr Q, ||Q||_F and ||r|| are unchanged
        sc = with_cov(desk_scenario, "correlated")
        vals, vecs = np.linalg.eigh(correlated_cov(sc.feeds))
        croot = (vecs * np.sqrt(vals)) @ vecs.T
        rng = np.random.default_rng(14)
        ws = [random_hermitian(rng, sc.feeds) for _ in range(sc.beams)]
        for u in sc.users:
            q, r, _ = soc_row_values(sc, u, ws)
            q_sym, r_sym = taylor_terms(u, margin_matrix(u, ws), croot)
            assert np.trace(q) == pytest.approx(np.trace(q_sym), rel=1e-12)
            assert np.linalg.norm(q) == pytest.approx(np.linalg.norm(q_sym), rel=1e-12)
            assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(r_sym), rel=1e-12)


class TestConicRowsMatchNumeric:
    """The assembled outage rows, applied to svec(W_j), give the (Q, r, s)
    that ``soc_row_values`` computes from the same W_j."""

    @pytest.mark.parametrize("cov", [None, "correlated"])
    def test_rows_reproduce_soc_row_values(self, desk_scenario, cov):
        sc = with_cov(desk_scenario, cov)
        k = sc.feeds
        prob = OutageProblem(sc)
        a = prob.problem.A
        rng = np.random.default_rng(12)
        ws = [random_hermitian(rng, k) for _ in range(sc.beams)]
        x = np.zeros(a.shape[1])
        for ref, w in zip(prob.w_refs, ws):
            x[ref.cols] = svec(w)
        rows = a @ x
        per_user = 1 + k + k * (k + 1) // 2  # Bernstein row, r rows, svec(Q) rows
        assert rows.size == per_user * len(sc.users) + k  # feed caps last
        for idx, user in enumerate(sc.users):
            q, r, s = soc_row_values(sc, user, ws)
            mu = mu_from_outage(user.outage_prob)
            got = rows[idx * per_user : (idx + 1) * per_user]
            want = np.concatenate(
                [[np.trace(q) + s + sc.noise_power], -r / np.sqrt(2.0), -mu * svec(q)]
            )
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])


class TestSymmetricQ:
    """The Q cone holds svec(Q): exact only because Q is symmetric."""

    @pytest.mark.parametrize("cov", [None, "correlated"])
    def test_q_symmetric_and_svec_norm_is_frobenius(self, desk_scenario, cov):
        sc = with_cov(desk_scenario, cov)
        k = sc.feeds
        rng = np.random.default_rng(13)
        stack = np.array([random_hermitian(rng, k) for _ in range(8)])
        for user in sc.users:
            q, _ = taylor_terms(user, margin_form(user, stack), user.phase_model.factor(k))
            for qi in q:
                fro = np.linalg.norm(qi)
                assert np.linalg.norm(qi - qi.T) <= 1e-14 * fro
                assert abs(np.linalg.norm(svec(qi)) - fro) <= 1e-12 * fro

    @pytest.mark.parametrize("cov", [None, "correlated"])
    def test_same_optimum_as_vec_q_layout(self, desk_scenario, cov):
        sc = with_cov(desk_scenario, cov)
        k, users = sc.feeds, len(sc.users)
        prob, oracle = OutageProblem(sc), vecq_outage_problem(sc)
        assert prob.problem.m == users * (1 + k + k * (k + 1) // 2) + k == 558
        assert oracle.problem.m == users * (1 + k + k * k) + k
        _, sol = prob.solve()
        _, ref = oracle.solve()
        assert sol.status == ref.status == OPTIMAL
        assert sol.obj_primal == pytest.approx(ref.obj_primal, rel=1e-7)


class TestPhaseCovariance:
    @pytest.mark.parametrize(
        "cov", [np.eye(4), 0.5 * np.eye(12)], ids=["wrong-size", "half-diagonal"]
    )
    def test_design_outage_rejects(self, desk_scenario, cov):
        # A half diagonal fails where the model is made, a wrong size where
        # the design factors it for its feed count.
        with pytest.raises(ConfigError, match="phase covariance"):
            model = PhaseErrorModel(desk_scenario.users[0].phase_model.sigma_rad, cov)
            users = [dataclasses.replace(u, phase_model=model) for u in desk_scenario.users]
            design_outage(dataclasses.replace(desk_scenario, users=users))


    def test_one_factor_per_model(self, monkeypatch, desk_scenario):
        # The solver factors its own blocks; count only factorizations of C.
        cov = correlated_cov(desk_scenario.feeds)
        choleskys = count_calls(monkeypatch, np.linalg, "cholesky")
        sc = build_scenario(desk_config(phase_cov=cov))
        design = design_outage(sc)
        evaluate(design, sc, samples=3 * CHUNK_ELEMENTS // sc.feeds, seed=2)
        of_cov = [a for (a, *_) in choleskys if a.shape == cov.shape and np.array_equal(a, cov)]
        assert len(of_cov) == 1


class TestInfeasibilityFamily:
    """Certificate attribution on the shared lifted layout, without a solve."""

    @pytest.mark.parametrize(
        "cls, family", [(AvgSinrProblem, "average-sinr"), (OutageProblem, "outage")]
    )
    def test_user_rows_vs_feed_rows(self, desk_scenario, cls, family):
        prob = cls(desk_scenario)
        rhs = prob.problem.b
        k = desk_scenario.feeds
        user_only = np.where(np.arange(rhs.size) < rhs.size - k, rhs, 0.0)
        feed_only = rhs - user_only
        assert np.any(user_only > 0) and np.any(feed_only > 0)
        assert prob.infeasibility_family(SimpleNamespace(certificate=user_only)) == family
        assert (
            prob.infeasibility_family(SimpleNamespace(certificate=feed_only))
            == "per-feed-power"
        )
        assert prob.infeasibility_family(SimpleNamespace(certificate=None)) == "unknown"


def small_random_configs(n):
    """The small outage family: 4 or 6 feeds, 2 beams, 1-2 terminals per
    region, gamma -3..15 dB, sigma 0-10 deg, p 0.01-0.3."""
    rng = np.random.default_rng(0)
    for i in range(n):
        feeds = int(rng.choice([4, 6]))
        users_per_region = [int(v) for v in rng.integers(1, 3, size=2)]
        gamma_db = rng.uniform(-3, 15)
        phase_sigma_deg = rng.uniform(0, 10)
        outage_prob = rng.uniform(0.01, 0.3)
        yield NetworkConfig(
            feeds=feeds,
            beams=2,
            users_per_region=users_per_region,
            gamma_db=gamma_db,
            phase_sigma_deg=phase_sigma_deg,
            outage_prob=outage_prob,
            seed=1000 + i,
        )


def cone_margins(problem, v):
    """Each block's margin of v, positive inside the block's cone; every cone
    here is its own dual."""
    margins, at = [], 0
    for blk in problem.cones:
        part = v[at : at + blk.veclen]
        at += blk.veclen
        if blk.kind == "nonneg":
            margins.append(part.min())
        elif blk.kind == "soc":
            margins.append(part[0] - np.linalg.norm(part[1:]))
        else:
            margins.append(np.linalg.eigvalsh(smat(part, blk.size)).min())
    return np.array(margins)


class TestInfeasibleRelaxations:
    def test_family_solves_or_certifies(self):
        # Every outage relaxation ends OPTIMAL or PRIMAL_INFEASIBLE with a
        # Farkas ray checked from A itself (b'y > 0, -A'y in every block's
        # dual cone), and it agrees with the average-SINR design.
        outcomes = []
        for cfg in small_random_configs(12):
            sc = build_scenario(cfg)
            prob = OutageProblem(sc)
            _, sol = prob.solve()
            assert sol.status in (OPTIMAL, PRIMAL_INFEASIBLE)
            infeasible = sol.status == PRIMAL_INFEASIBLE
            if infeasible:
                y = sol.certificate
                assert prob.problem.b @ y > 0
                assert cone_margins(prob.problem, -(prob.problem.A.T @ y)).min() >= 0
            try:
                design_avg_sinr(sc)
                avg_infeasible = False
            except InfeasibleDesignError:
                avg_infeasible = True
            assert infeasible == avg_infeasible
            outcomes.append(infeasible)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_large_phase_error_is_certified_infeasible(self):
        sc = build_scenario(desk_config(phase_sigma_deg=30.0))
        with pytest.warns(UserWarning, match="15 deg"):
            with pytest.raises(InfeasibleDesignError) as exc_info:
                design_outage(sc)
        assert exc_info.value.family == "outage"


class TestDesignOutage:
    def test_desk_design(self, desk_scenario, alg2_design):
        assert alg2_design.status == "OPTIMAL"
        assert alg2_design.max_rank_gap <= 1e-6
        assert np.all(per_feed_power(alg2_design.beams) <= desk_scenario.power_caps + 1e-8)

    def test_empirical_outage_below_target(self, desk_scenario, alg2_design):
        sc = desk_scenario.with_config(outage_prob=0.05)
        report = evaluate(alg2_design, sc, samples=10_000, seed=17)
        assert report.max_outage <= 0.05

    def test_costs_more_than_average_design(self, desk_scenario, alg1_design, alg2_design):
        assert alg2_design.total_power >= alg1_design.total_power

    def test_power_decreases_with_looser_outage(self, desk_scenario):
        tight = design_outage(desk_scenario.with_config(outage_prob=0.05))
        loose = design_outage(desk_scenario.with_config(outage_prob=0.2))
        assert tight.total_power >= loose.total_power

    def test_large_sigma_warns(self, desk_scenario):
        # the terminals share one phase model, so one warning, not one each
        with pytest.warns(UserWarning, match="15 deg") as record:
            OutageProblem(desk_scenario.with_config(phase_sigma_deg=20.0))
        assert len(record) == 1


class TestSizeGuard:
    """A program whose A and Schur matrix cannot fit in physical memory is
    refused before any of its rows is built."""

    @pytest.mark.parametrize("design", [AvgSinrProblem, OutageProblem])
    @pytest.mark.parametrize("feeds", [12, 18])
    def test_shape_estimate_equals_built_program(self, design, feeds, monkeypatch):
        # The guard is given the built program's shape and SOC column count.
        guarded = count_calls(monkeypatch, robust_avg, "check_memory")
        scenario = build_scenario(desk_config(feeds=feeds))
        p = design(scenario).problem
        assert design.program_shape(scenario) == (p.m, p.n)
        soc = sum(blk.veclen for blk in p.cones if blk.kind == "soc")
        assert guarded == [(p.m, p.n, soc)]
        assert (soc > 0) == (design is OutageProblem)

    def test_full_scale_outage_refused_before_any_row(self, monkeypatch):
        # m = 30 (1 + 60 + 1830) + 60 and n = 10 * 60^2 + 30 (1 + 61 + 1831)
        # + 60: A and S take 8 m (n + m) = 67.98 GB, past a 16 GiB machine.
        monkeypatch.setattr(robust_avg, "physical_memory", lambda: 16 * 2**30)
        calls = count_calls(monkeypatch, ConeProgramBuilder, "add_eq")
        scenario = build_scenario(desk_config(feeds=60, beams=10, users_per_region=3))
        assert OutageProblem.program_shape(scenario) == (56_790, 92_850)
        with pytest.raises(ConfigError, match=r"56,790 rows and 92,850 columns.* 68\.0 GB"):
            OutageProblem(scenario)
        assert calls == []

    @pytest.mark.parametrize("feeds", [12, 18])
    def test_count_near_measured_peak(self, feeds):
        # A fresh process designs the outage program and reports its peak
        # RSS, which the count must be within 25% of.  The peak is VmHWM,
        # not ru_maxrss: Linux carries a parent's ru_maxrss over a vfork
        # and exec, so the child's would read this test process's peak.
        code = (
            "import sys\n"
            "from leobeam.robust_outage import design_outage\n"
            "from leobeam.scenario import NetworkConfig, build_scenario\n"
            "design_outage(build_scenario(NetworkConfig(feeds=int(sys.argv[1]))))\n"
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print(1024 * int(hwm[0].split()[1]))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(robust_avg.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code, str(feeds)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        peak = int(run.stdout)
        scenario = build_scenario(desk_config(feeds=feeds))
        m, n = OutageProblem.program_shape(scenario)
        soc = len(scenario.users) * OutageProblem.terminal_shape(feeds)[1]
        assert abs(design_bytes(m, n, soc) - peak) <= 0.25 * peak

    def test_this_machine(self):
        # The host's memory is read, and the benchmark's full-scale average
        # design (order 90, 36,090 columns: 26 MB) fits in it.
        scenario = build_scenario(desk_config(feeds=60, beams=10, users_per_region=3))
        assert AvgSinrProblem.program_shape(scenario) == (90, 36_090)
        assert physical_memory() > 0
        check_memory(90, 36_090)
