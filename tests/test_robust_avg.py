import re

import numpy as np
import pytest

from conftest import count_calls, desk_config

from leobeam import robust_avg
from leobeam.conic import solver
from leobeam.errors import ConfigError, ConvergenceError, InfeasibleDesignError
from leobeam.robust_avg import (
    AvgSinrProblem,
    PenaltyConfig,
    avg_constraint_coeffs,
    design_avg_sinr,
    expected_channel_matrix,
    extract_beams,
    penalty_step,
    rank_gaps,
    solve_sdr_init,
)
from leobeam.robust_outage import design_outage
from leobeam.scenario import build_scenario

# Many terminals on few feeds: the relaxation is not rank-one, and one
# penalty round recovers rank one.
PENALTY_CFG = desk_config(
    feeds=4, beams=1, users_per_region=10, sic_eta=0.0, gamma_db=-1.0, seed=22
)


class TestExpectedChannelMatrix:
    def test_zero_sigma_rank_one(self, desk_scenario):
        u = desk_scenario.with_config(phase_sigma_deg=0.0).users[0]
        d = expected_channel_matrix(u)
        h = u.channel.estimated
        assert np.allclose(d, np.outer(h, h.conj()))

    def test_monte_carlo_mean(self, desk_scenario):
        u = desk_scenario.users[1]
        k = desk_scenario.feeds
        d = expected_channel_matrix(u)
        rng = np.random.default_rng(42)
        s = 100_000
        e = u.phase_model.sigma_rad * rng.standard_normal((s, k))
        hs = u.channel.estimated[None, :] * np.exp(1j * e)
        emp = np.einsum("si,sj->ij", hs, hs.conj()) / s
        prod = hs[:, :, None] * hs[:, None, :].conj()
        # floor absorbs float accumulation noise on the deterministic diagonal
        se = prod.std(axis=0) / np.sqrt(s) + 1e-12 * np.abs(d).max()
        assert np.all(np.abs(emp - d) <= 3.0 * se)

    def test_psd_and_hermitian(self, desk_scenario):
        for u in desk_scenario.users:
            d = expected_channel_matrix(u)
            assert np.allclose(d, d.conj().T)
            assert np.linalg.eigvalsh(d).min() >= -1e-9 * np.linalg.norm(d)


class TestAvgConstraintRow:
    def test_single_user_reduces_to_power_floor(self):
        sc = build_scenario(desk_config(feeds=4, beams=1, users_per_region=1))
        u = sc.users[0]
        coeffs, rhs = avg_constraint_coeffs(sc, u)
        d = expected_channel_matrix(u)
        assert len(coeffs) == 1
        assert np.allclose(coeffs[0], u.alpha * d)
        assert rhs == pytest.approx(u.gamma_lin * sc.noise_power)

    def test_row_matches_direct_inequality_evaluation(self, desk_scenario):
        # plugging a known W set into the emitted row reproduces the direct
        # ratio-of-expectations inequality margin
        sc = desk_scenario
        rng = np.random.default_rng(3)
        ws = []
        for _ in range(sc.beams):
            g = rng.normal(size=(sc.feeds, sc.feeds)) + 1j * rng.normal(
                size=(sc.feeds, sc.feeds)
            )
            ws.append(g @ g.conj().T / sc.feeds)
        for u in sc.users:
            coeffs, rhs = avg_constraint_coeffs(sc, u)
            row_value = sum(np.trace(g @ ws[j]).real for j, g in enumerate(coeffs)) - rhs
            d = expected_channel_matrix(u)
            num = u.alpha * np.trace(d @ ws[u.region]).real
            den = sc.intra_weight(u) * np.trace(d @ ws[u.region]).real
            for j in range(sc.beams):
                if j != u.region:
                    den += sc.region_alpha_total(j) * np.trace(d @ ws[j]).real
            direct = num - u.gamma_lin * (den + sc.noise_power)
            assert row_value == pytest.approx(direct, rel=1e-12, abs=1e-9)

    def test_zero_gamma_limit_accepts_zero(self, desk_scenario):
        sc = desk_scenario.with_config(gamma_db=-300.0)  # gamma ~ 1e-30
        for u in sc.users:
            coeffs, rhs = avg_constraint_coeffs(sc, u)
            zero_val = 0.0 - rhs
            assert zero_val >= -1e-12  # W = 0 satisfies the row in the limit


class TestSdrInit:
    def test_single_user_analytic_optimum(self):
        sc = build_scenario(desk_config(feeds=4, beams=1, users_per_region=1, seed=5))
        prob = AvgSinrProblem(sc)
        ws, sol = solve_sdr_init(prob)
        u = sc.users[0]
        d = expected_channel_matrix(u)
        lam = np.linalg.eigvalsh(d)[-1]
        want = u.gamma_lin * sc.noise_power / (u.alpha * lam)
        got = sum(np.trace(w).real for w in ws)
        assert got == pytest.approx(want, rel=1e-5)

    def test_desk_instance_feasible(self, desk_scenario):
        prob = AvgSinrProblem(desk_scenario)
        ws, sol = solve_sdr_init(prob)
        assert sol.status == "OPTIMAL"
        per_feed = sum(np.diag(w).real for w in ws)
        assert np.all(per_feed <= desk_scenario.power_caps + 1e-8)
        for u in desk_scenario.users:
            coeffs, rhs = avg_constraint_coeffs(desk_scenario, u)
            val = sum(np.trace(g @ ws[j]).real for j, g in enumerate(coeffs))
            assert val >= rhs - 1e-6 * max(1.0, abs(rhs))

    def test_infeasible_targets_raise(self):
        sc = build_scenario(desk_config(gamma_db=30.0))
        with pytest.raises(InfeasibleDesignError) as exc_info:
            solve_sdr_init(AvgSinrProblem(sc))
        assert exc_info.value.family == "average-sinr"


class TestPenaltyLoop:
    def test_rank_one_start_is_fixed_point(self, desk_scenario):
        # from a feasible rank-one point the penalty term is zero and the
        # penalized solve does not increase the power objective
        prob = AvgSinrProblem(desk_scenario)
        ws0, _ = solve_sdr_init(prob)
        gaps0, pairs0 = rank_gaps(ws0)
        assert gaps0.max() <= 1e-6  # desk relaxation is already rank-one
        power0 = sum(np.trace(w).real for w in ws0)
        ws1, _ = penalty_step(prob, [v for _, v in pairs0], rho=1.0)
        power1 = sum(np.trace(w).real for w in ws1)
        assert power1 == pytest.approx(power0, rel=1e-5)

    def test_penalty_objective_bounded_below(self, desk_scenario):
        # tr(W) - v^H W v >= tr(W) - lambda_max >= 0 for any unit v, PSD W
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            w = g @ g.conj().T
            v = rng.normal(size=5) + 1j * rng.normal(size=5)
            v /= np.linalg.norm(v)
            lam = np.linalg.eigvalsh(w)[-1]
            assert np.trace(w).real - np.real(np.vdot(v, w @ v)) >= -1e-12
            assert np.trace(w).real - lam >= -1e-10 * np.trace(w).real

    def test_loop_reduces_rank_gap_when_needed(self):
        sc = build_scenario(PENALTY_CFG)
        prob = AvgSinrProblem(sc)
        ws, _ = solve_sdr_init(prob)
        gaps, _ = rank_gaps(ws)
        assert gaps.max() > 1e-3  # genuinely not rank-one at the start
        design = design_avg_sinr(sc)
        assert design.iterations >= 1
        assert design.max_rank_gap <= 1e-6
        # rank-one restriction can only cost power
        relaxed = sum(np.trace(w).real for w in ws)
        assert design.total_power >= relaxed - 1e-6

    def test_one_rank_gap_pass_per_solve(self, monkeypatch):
        # relaxation, then one penalty solve, whose eigenpairs give the beams:
        # two passes
        calls = []

        def counting(ws):
            calls.append(len(ws))
            return rank_gaps(ws)

        monkeypatch.setattr(robust_avg, "rank_gaps", counting)
        design = design_avg_sinr(build_scenario(PENALTY_CFG))
        assert design.iterations == 1
        assert len(calls) == 2

    def test_one_preparation_per_design(self, monkeypatch):
        # relaxation and one penalty round share one equilibration and plan
        equilibrations = count_calls(monkeypatch, solver, "_equilibrate")
        plans = count_calls(monkeypatch, solver, "_SchurPlan")
        solves = count_calls(monkeypatch, robust_avg, "solve")
        design = design_avg_sinr(build_scenario(PENALTY_CFG))
        assert design.iterations == 1
        assert (len(equilibrations), len(plans), len(solves)) == (1, 1, 2)

    def test_iteration_budget(self):
        sc = build_scenario(PENALTY_CFG)
        with pytest.raises(ConvergenceError, match="in 0 iterations"):
            design_avg_sinr(sc, PenaltyConfig(max_iters=0))
        design = design_avg_sinr(sc, PenaltyConfig(max_iters=1))
        assert design.iterations == 1
        assert design.max_rank_gap <= 1e-6


class TestPenaltyConfig:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"max_iters": 2.5}, "penalty.max_iters must be an integer, got 2.5"),
            ({"max_iters": True}, "penalty.max_iters must be an integer, got True"),
            ({"max_iters": -1}, "iters>=0"),
            ({"growth": None}, "penalty.growth must be numeric and finite, got None"),
            ({"rho0": "1"}, "penalty.rho0 must be numeric and finite, got '1'"),
            ({"rank_gap_tol": float("inf")}, "penalty.rank_gap_tol must be numeric and finite"),
            ({"rho0": 0.0}, "rho0>0"),
            ({"growth": 1.0}, "growth>1"),
            ({"rank_gap_tol": -1e-6}, "tol>0"),
        ],
    )
    def test_bad_value_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            PenaltyConfig(**fields)

    def test_numpy_numbers_and_zero_rounds_accepted(self):
        pc = PenaltyConfig(rho0=np.float64(2.0), growth=np.int64(2), max_iters=np.int64(0))
        assert pc.max_iters == 0


class TestExtraction:
    def test_scaled_projector(self):
        u = np.array([1.0, 1j, -1.0]) / np.sqrt(3.0)
        w = 4.0 * np.outer(u, u.conj())
        _, pairs = rank_gaps([w])
        beams = extract_beams(pairs)
        col = beams[:, 0]
        assert np.linalg.norm(col) == pytest.approx(2.0, abs=1e-9)
        phase = col[np.argmax(np.abs(col))]
        assert phase.imag == pytest.approx(0.0, abs=1e-12)
        assert abs(np.vdot(col, 2.0 * u)) == pytest.approx(4.0, abs=1e-8)

    def test_beams_are_extraction_of_lifted(self, alg1_design, alg2_design):
        # the loop builds the beams from the eigenpairs of the lifted
        # matrices it returns, bit for bit
        one_round = design_avg_sinr(build_scenario(PENALTY_CFG))
        assert one_round.iterations == 1
        for design in (alg1_design, alg2_design, one_round):
            gaps, pairs = rank_gaps(design.lifted)
            assert np.array_equal(design.beams, extract_beams(pairs))
            assert design.max_rank_gap == gaps.max()

    def test_norm_matches_top_eigenvalue(self, alg1_design):
        for m, w in enumerate(alg1_design.lifted):
            lam = np.linalg.eigvalsh(w)[-1]
            assert np.linalg.norm(alg1_design.beams[:, m]) ** 2 == pytest.approx(
                lam, rel=1e-6
            )

    def test_extracted_beams_meet_rows_within_gap_tolerance(
        self, desk_scenario, alg1_design
    ):
        # achieved constraint values under w w^H match those under W within
        # the rank-gap-driven tolerance
        for u in desk_scenario.users:
            coeffs, rhs = avg_constraint_coeffs(desk_scenario, u)
            lifted = sum(
                np.trace(g @ alg1_design.lifted[j]).real for j, g in enumerate(coeffs)
            )
            w_cols = {
                j: np.outer(alg1_design.beams[:, j], alg1_design.beams[:, j].conj())
                for j in range(len(coeffs))
            }
            rank_one = sum(np.trace(g @ w_cols[j]).real for j, g in enumerate(coeffs))
            scale = max(abs(lifted), abs(rhs), 1e-9)
            assert abs(rank_one - lifted) <= 1e-3 * scale


class TestDesign:
    def test_desk_design(self, desk_scenario, alg1_design):
        assert alg1_design.status == "OPTIMAL"
        assert alg1_design.max_rank_gap <= 1e-6
        assert alg1_design.total_power > 0
        assert np.all(alg1_design.per_feed <= desk_scenario.power_caps + 1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("design", [design_avg_sinr, design_outage])
    def test_overflowing_cap_stops_typed(self, desk_scenario, design):
        # ||b||^2 overflows at a 1e200 W cap, so the first direction is not
        # finite: the solve stalls with no finite iterate, not a LinAlgError
        with pytest.raises(ConvergenceError, match="no iterate with finite residuals"):
            design(desk_scenario.with_config(feed_power_cap_w=1e200))

    def test_power_monotone_in_gamma(self, desk_scenario):
        lo = design_avg_sinr(desk_scenario.with_config(gamma_db=1.0)).total_power
        hi = design_avg_sinr(desk_scenario.with_config(gamma_db=2.5)).total_power
        assert hi > lo

    def test_power_monotone_in_sigma(self, desk_scenario):
        p0 = design_avg_sinr(desk_scenario.with_config(phase_sigma_deg=0.0)).total_power
        p5 = design_avg_sinr(desk_scenario.with_config(phase_sigma_deg=5.0)).total_power
        assert p5 >= p0 * (1.0 - 1e-9)
        # robustness: the sigma = 5 degradation is a small fraction
        assert p5 <= 1.1 * p0
