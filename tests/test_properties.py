"""Property tests: random small scenarios against the designs' own rows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_config

from leobeam.errors import ConvergenceError, InfeasibleDesignError
from leobeam.robust_avg import AvgSinrProblem, PenaltyConfig, avg_constraint_coeffs, design_avg_sinr
from leobeam.robust_outage import OutageProblem, design_outage, mu_from_outage, soc_row_values
from leobeam.scenario import build_scenario

small_scenarios = st.builds(
    desk_config,
    feeds=st.sampled_from([4, 6]),
    beams=st.just(2),
    users_per_region=st.lists(st.integers(1, 2), min_size=2, max_size=2),
    gamma_db=st.floats(-3.0, 8.0),
    phase_sigma_deg=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_scenarios)
def test_avg_design_meets_own_rows_or_raises(cfg):
    """A returned design meets its average-SINR rows and feed caps to the
    solver's stopping residual; otherwise the design raises a typed error."""
    sc = build_scenario(cfg)
    config = PenaltyConfig()
    try:
        design = design_avg_sinr(sc, config)
    except (InfeasibleDesignError, ConvergenceError):
        return
    # The last solve stopped at ||Ax - b|| <= tol_relaxed (1 + ||b||), which
    # bounds the shortfall of every row.
    b_norm = np.linalg.norm(AvgSinrProblem(sc).problem.b)
    tol = config.solver.tol_relaxed * (1.0 + b_norm)
    ws = design.lifted
    for user in sc.users:
        coeffs, rhs = avg_constraint_coeffs(sc, user)
        lhs = sum(np.trace(g @ ws[j]).real for j, g in enumerate(coeffs))
        assert lhs >= rhs - tol
    feed_power = np.real(sum(np.diag(w) for w in ws))
    assert np.all(feed_power <= sc.power_caps + tol)
    for w in ws:
        assert np.linalg.eigvalsh(w).min() >= -tol
    assert design.max_rank_gap <= config.rank_gap_tol


outage_scenarios = st.builds(
    desk_config,
    feeds=st.sampled_from([4, 6]),
    beams=st.just(2),
    users_per_region=st.lists(st.integers(1, 2), min_size=2, max_size=2),
    gamma_db=st.floats(-3.0, 8.0),
    phase_sigma_deg=st.floats(0.0, 10.0),
    outage_prob=st.floats(0.01, 0.3),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(outage_scenarios)
def test_outage_design_meets_own_rows_or_raises(cfg):
    """A returned design meets its Bernstein/SOC rows, feed caps and rank gap
    to the solver's stopping residual; otherwise it raises a typed error."""
    sc = build_scenario(cfg)
    config = PenaltyConfig()
    try:
        design = design_outage(sc, config)
    except (InfeasibleDesignError, ConvergenceError):
        return
    b_norm = np.linalg.norm(OutageProblem(sc).problem.b)
    tol = config.solver.tol_relaxed * (1.0 + b_norm)
    ws = design.lifted
    for user in sc.users:
        q, r, s = soc_row_values(sc, user, ws)
        mu = mu_from_outage(user.outage_prob)
        g2 = 2.0 * np.sqrt(np.log(1.0 / user.outage_prob))
        # tr Q + s >= g2 (x + y) with SOC heads x >= ||r||/sqrt(2) and
        # y >= mu ||Q||_F; in W alone the Bernstein row and the two coupling
        # blocks each add their residual (at most tol), the latter times g2.
        margin = np.trace(q) + s - g2 * (np.linalg.norm(r) / np.sqrt(2.0) + mu * np.linalg.norm(q))
        assert margin >= -(1.0 + 2.0 * g2) * tol
    feed_power = np.real(sum(np.diag(w) for w in ws))
    assert np.all(feed_power <= sc.power_caps + tol)
    gaps = [np.trace(w).real - np.linalg.eigvalsh(w)[-1] for w in ws]
    assert max(gaps) <= config.rank_gap_tol + tol
    assert design.max_rank_gap <= config.rank_gap_tol
