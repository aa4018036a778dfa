"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything runs on the small reference instance (12 feeds, 3 beams, 2
terminals per region, the physical constants of the default config) with
pinned seeds, so the whole suite is deterministic.
"""

import numpy as np
import pytest

from conftest import desk_config

from oracles import random_feasible_problem, solve_conic_admm

from leobeam.baselines import design_nonrobust, design_tdma, design_zfbf
from leobeam.channel import BeamPattern, PhaseErrorModel, beam_gain, expected_phase_matrix
from leobeam.conic import solve
from leobeam.evaluator import evaluate
from leobeam.robust_avg import design_avg_sinr
from leobeam.robust_outage import design_outage, margin_matrix, taylor_quadratic
from leobeam.scenario import build_scenario


@pytest.fixture(scope="module")
def desk():
    return build_scenario(desk_config())


@pytest.fixture(scope="module")
def alg1(desk):
    return design_avg_sinr(desk)


@pytest.fixture(scope="module")
def alg2_05(desk):
    return design_outage(desk.with_config(outage_prob=0.05))


def test_a1_boresight_and_half_power():
    pattern = BeamPattern(10.0 ** (17.0 / 10.0), np.deg2rad(0.4))
    boresight = beam_gain(pattern, 0.0)
    assert boresight == pytest.approx(pattern.max_gain, rel=1e-9)
    half = beam_gain(pattern, pattern.angle_3db) / pattern.max_gain
    assert half == pytest.approx(0.5, rel=0.05)
    print(f"\n[A1] boresight identity and half power: PASS (ratio {half:.5f})")


def test_a2_expectation_matrix_monte_carlo():
    sigma = np.deg2rad(5.0)
    k, s = 12, 100_000
    q = expected_phase_matrix(PhaseErrorModel(sigma), k)
    assert q[0, 1] == pytest.approx(np.exp(-(sigma**2)), rel=1e-12)
    assert q[0, 1] == pytest.approx(0.99241, abs=5e-6)
    rng = np.random.default_rng(20260810)
    e = sigma * rng.standard_normal((s, k))
    phasors = np.exp(1j * e)
    emp = np.einsum("si,sj->ij", phasors, phasors.conj()) / s
    prod = np.exp(1j * (e[:, :, None] - e[:, None, :]))
    se = prod.std(axis=0) / np.sqrt(s) + 1e-12
    dev = np.abs(emp - q) / se
    assert dev.max() <= 3.0
    print(f"[A2] expectation matrix vs Monte-Carlo: PASS (max {dev.max():.2f} SE)")


def test_a3_algorithm1_convergence(desk, alg1):
    # every relaxation/penalty solve must return OPTIMAL (enforced by the
    # design routine, which raises otherwise), the loop must need at most 8
    # penalty rounds, and all rank gaps must close to 1e-6
    assert alg1.status == "OPTIMAL"
    assert alg1.iterations <= 8
    assert alg1.max_rank_gap <= 1e-6
    print(
        f"[A3] penalty convergence: PASS ({alg1.iterations} iterations, "
        f"max rank gap {alg1.max_rank_gap:.2e})"
    )


def test_a4_algorithm1_average_service(desk, alg1):
    report = evaluate(alg1, desk, samples=100_000, seed=20260810)
    ratios = report.mean_sinr / report.gamma_target
    assert np.all(ratios >= 0.95)
    print(f"[A4] empirical average SINR >= 0.95 gamma: PASS (min ratio {ratios.min():.4f})")


def test_a5_algorithm2_conservative(desk, alg2_05):
    worst = -np.inf
    for p, design in ((0.05, alg2_05), (0.2, design_outage(desk.with_config(outage_prob=0.2)))):
        sc = desk.with_config(outage_prob=p)
        report = evaluate(design, sc, samples=100_000, seed=20260810)
        excess = report.outage - (p + 3.0 * report.se_outage)
        worst = max(worst, excess.max())
        assert np.all(excess <= 0.0)
    print(f"[A5] outage bound conservative at p in {{0.05, 0.2}}: PASS "
          f"(worst excess {worst:.3g})")


def test_a6_trend_suite(desk):
    gamma_grid = [0.0, 0.8, 1.5, 2.0, 2.5, 2.8]
    powers = [design_avg_sinr(desk.with_config(gamma_db=g)).total_power for g in gamma_grid]
    assert all(powers[i] <= powers[i + 1] * (1 + 1e-9) for i in range(5))

    sig_powers = [
        design_avg_sinr(desk.with_config(phase_sigma_deg=s)).total_power for s in (0.0, 5.0, 10.0)
    ]
    assert sig_powers[0] <= sig_powers[1] <= sig_powers[2]

    p_powers = {
        p: design_outage(desk.with_config(outage_prob=p)).total_power for p in (0.01, 0.05, 0.2)
    }
    assert p_powers[0.01] >= p_powers[0.05] >= p_powers[0.2]
    assert (p_powers[0.01] - p_powers[0.05]) > (p_powers[0.05] - p_powers[0.2])

    eta_power = {}
    for eta in (0.01, 0.1):
        for g in (gamma_grid[-2], gamma_grid[-1]):
            eta_power[(eta, g)] = design_avg_sinr(
                desk.with_config(sic_eta=eta, gamma_db=g)
            ).total_power
    growth_small = eta_power[(0.01, 2.8)] - eta_power[(0.01, 2.5)]
    growth_large = eta_power[(0.1, 2.8)] - eta_power[(0.1, 2.5)]
    assert eta_power[(0.1, 2.8)] > eta_power[(0.01, 2.8)]
    assert growth_large > growth_small
    print(
        "[A6] trend suite: PASS "
        f"(gamma {powers[0]:.4f}->{powers[-1]:.4f} W, sigma {sig_powers}, "
        f"p gaps {p_powers[0.01] - p_powers[0.05]:.2e} > "
        f"{p_powers[0.05] - p_powers[0.2]:.2e}, eta growth "
        f"{growth_large:.2e} > {growth_small:.2e})"
    )


def test_a7_robust_vs_nonrobust_outage(desk, alg2_05):
    nonrobust = design_nonrobust(desk)
    r_nr = evaluate(nonrobust, desk, samples=100_000, seed=20260810)
    r_rob = evaluate(alg2_05, desk.with_config(outage_prob=0.05), samples=100_000, seed=20260810)
    assert r_nr.max_outage >= 2.0 * max(r_rob.max_outage, 1e-12)
    print(
        f"[A7] non-robust vs robust outage: PASS "
        f"({r_nr.max_outage:.3f} vs {r_rob.max_outage:.4f})"
    )


def test_a8_baseline_ordering(desk, alg1):
    zfbf = design_zfbf(desk)
    tdma = design_tdma(desk)
    assert tdma.total_power > zfbf.total_power
    assert zfbf.total_power >= alg1.total_power
    print(
        f"[A8] baseline ordering: PASS (tdma {tdma.total_power:.3f} > "
        f"zfbf {zfbf.total_power:.4f} >= avg {alg1.total_power:.4f} W)"
    )


def test_a9_solver_correctness():
    rng = np.random.default_rng(20260810)
    worst_kkt = worst_obj = 0.0
    for _ in range(50):
        problem, kinds = random_feasible_problem(rng)
        sol = solve(problem)
        assert sol.status == "OPTIMAL"
        pres = np.linalg.norm(problem.A @ sol.x - problem.b) / (
            1 + np.linalg.norm(problem.b)
        )
        dres = np.linalg.norm(problem.A.T @ sol.y + sol.z - problem.c) / (
            1 + np.linalg.norm(problem.c)
        )
        comp = abs(sol.x @ sol.z) / (1 + abs(problem.c @ sol.x))
        worst_kkt = max(worst_kkt, pres, dres, comp)
        assert max(pres, dres, comp) <= 1e-7
        # weak duality wherever both sides are feasible (to tolerance); the
        # allowed slack scales with the remaining feasibility residual
        for info in sol.iterations:
            if info.pres <= 1e-6 and info.dres <= 1e-6:
                scale = 1.0 + abs(info.pobj) + abs(info.dobj)
                slack = max(1e-7, 5.0 * (info.pres + info.dres)) * scale
                assert info.dobj <= info.pobj + slack
        _, oracle_obj, oracle_pres, oracle_dres = solve_conic_admm(
            problem.c, problem.A, problem.b, kinds, iters=15000
        )
        assert max(oracle_pres, oracle_dres) <= 1e-10  # converged, not stopped at the cap
        gap = abs(sol.obj_primal - oracle_obj) / max(1.0, abs(oracle_obj))
        worst_obj = max(worst_obj, gap)
        assert gap <= 1e-4
    print(
        f"[A9] solver correctness on 50 problems: PASS "
        f"(worst KKT {worst_kkt:.2e}, worst oracle gap {worst_obj:.2e})"
    )


def test_a10_taylor_expansion_order(desk):
    rng = np.random.default_rng(20260810)
    ws = []
    for _ in range(desk.beams):
        g = rng.normal(size=(desk.feeds, desk.feeds)) + 1j * rng.normal(
            size=(desk.feeds, desk.feeds)
        )
        ws.append(g @ g.conj().T / desk.feeds)
    z = margin_matrix(desk, desk.users[0], ws)
    scales = np.array([1e-1, 3e-2, 1e-2, 3e-3])
    slopes = []
    for trial in range(5):
        direction = rng.standard_normal(desk.feeds)
        direction /= np.linalg.norm(direction)
        errs = []
        for s in scales:
            theta = s * direction
            x = np.exp(1j * theta)
            exact = float(np.real(x.conj() @ z @ x))
            errs.append(abs(exact - taylor_quadratic(z, theta)))
        slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
        slopes.append(slope)
    med = float(np.median(slopes))
    assert abs(med - 3.0) <= 0.3
    print(f"[A10] expansion error order: PASS (median log-log slope {med:.3f})")
