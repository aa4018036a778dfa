import dataclasses

import numpy as np
import pytest

from conftest import desk_config

from leobeam.baselines import (
    design_nonrobust,
    design_tdma,
    design_zfbf,
    zfbf_directions,
)
from leobeam.channel import assemble_channel
from leobeam.errors import InfeasibleDesignError
from leobeam.evaluator import evaluate
from leobeam.robust_avg import design_avg_sinr, expected_channel_matrix
from leobeam.scenario import build_scenario


class TestNonRobust:
    def test_equals_avg_design_at_zero_sigma(self, desk_scenario):
        sigma0 = desk_scenario.with_config(phase_sigma_deg=0.0)
        a = design_avg_sinr(sigma0)
        b = design_nonrobust(desk_scenario)
        assert np.allclose(a.beams, b.beams, atol=1e-9)
        assert b.algorithm == "nonrobust"

    def test_cheaper_than_outage_design(self, desk_scenario, alg2_design):
        b = design_nonrobust(desk_scenario)
        assert b.total_power <= alg2_design.total_power

    def test_higher_outage_than_robust(self, desk_scenario, alg2_design):
        b = design_nonrobust(desk_scenario)
        rb = evaluate(b, desk_scenario, samples=20_000, seed=5)
        sc = desk_scenario.with_config(outage_prob=0.05)
        r2 = evaluate(alg2_design, sc, samples=20_000, seed=5)
        assert rb.max_outage > 2.0 * max(r2.max_outage, 1e-3)


class TestZfbf:
    def test_zero_leakage_at_representatives(self, desk_scenario):
        f = zfbf_directions(desk_scenario)
        reps = [u for u in desk_scenario.users if u.rank == 0]
        for j, u in enumerate(reps):
            own = abs(u.channel.estimated.conj() @ f[:, j])
            for m in range(desk_scenario.beams):
                if m != j:
                    leak = abs(u.channel.estimated.conj() @ f[:, m])
                    assert leak <= 1e-9 * own

    def test_orthogonal_representatives_give_matched_filters(self, desk_scenario):
        # overwrite the strongest users with orthogonal basis-vector channels:
        # the pseudo-inverse of an orthogonal set is the set itself
        sc = desk_scenario
        k = sc.feeds
        users = []
        for u in sc.users:
            if u.rank == 0:
                est = np.zeros(k)
                est[u.region] = 2.0
                gains = np.abs(est) ** 2 / 1.0
                ch = assemble_channel(1.0, gains, np.ones(k), np.zeros(k))
                users.append(dataclasses.replace(u, channel=ch))
            else:
                users.append(u)
        sc2 = dataclasses.replace(sc, users=users)
        f = zfbf_directions(sc2)
        for m in range(sc.beams):
            matched = np.zeros(k)
            matched[m] = 1.0
            assert abs(abs(f[:, m] @ matched) - 1.0) < 1e-12

    def test_costs_at_least_the_joint_design(self, desk_scenario, alg1_design):
        z = design_zfbf(desk_scenario)
        assert z.total_power >= alg1_design.total_power

    def test_infeasible_target_raises(self, desk_scenario):
        with pytest.raises(InfeasibleDesignError):
            design_zfbf(desk_scenario.with_config(gamma_db=20.0))

    def test_rank_deficient_representatives_raise(self, desk_scenario):
        # duplicate one representative channel into another region
        users = []
        donor = next(u for u in desk_scenario.users if u.region == 0 and u.rank == 0)
        for u in desk_scenario.users:
            if u.region == 1 and u.rank == 0:
                users.append(dataclasses.replace(u, channel=donor.channel))
            else:
                users.append(u)
        sc = dataclasses.replace(desk_scenario, users=users)
        with pytest.raises(InfeasibleDesignError, match="rank deficient"):
            design_zfbf(sc)

    def test_cap_violation_raises(self, desk_scenario):
        import dataclasses as dc

        cfg = dc.replace(desk_scenario.config, feed_power_cap_w=1e-6)
        sc = dc.replace(desk_scenario, config=cfg)
        with pytest.raises(InfeasibleDesignError, match="caps"):
            design_zfbf(sc)


class TestTdma:
    def test_single_user_equals_matched_filter_power(self):
        sc = build_scenario(desk_config(feeds=4, beams=1, users_per_region=1, seed=5))
        d = design_tdma(sc)
        u = sc.users[0]
        dm = expected_channel_matrix(u)
        lam = np.linalg.eigvalsh(dm)[-1]
        # one terminal: slot target (1+gamma)^1 - 1 = gamma, full duty cycle
        want = u.gamma_lin * sc.noise_power / lam
        assert d.total_power == pytest.approx(want, rel=1e-9)

    def test_slot_targets_rate_matched(self, desk_scenario):
        d = design_tdma(desk_scenario)
        n = len(desk_scenario.users)
        for u, slot in zip(desk_scenario.users, d.metadata["slot_gamma_lin"]):
            assert slot == pytest.approx((1.0 + u.gamma_lin) ** n - 1.0, rel=1e-12)

    def test_slot_target_growth_in_user_count(self, desk_scenario):
        # the rate-matching exponent makes slot power explode with user count
        gamma = desk_scenario.users[0].gamma_lin
        targets = [(1.0 + gamma) ** n - 1.0 for n in (1, 2, 4, 6)]
        assert all(targets[i] < targets[i + 1] for i in range(3))

    def test_per_slot_feed_cap_violation_raises(self):
        # 30 dB rate-matched slot targets put about 1.25e9 W on one feed
        cfg = desk_config(feeds=6, beams=2, users_per_region=2, seed=3, gamma_db=30.0)
        sc = build_scenario(cfg)
        with pytest.raises(InfeasibleDesignError) as info:
            design_tdma(sc)
        assert info.value.family == "per-feed-power"

    def test_overflowing_slot_target_is_infeasible(self, desk_scenario):
        # at 600 dB the slot target (1 + 1e60)^6 - 1 passes the float range
        with pytest.raises(InfeasibleDesignError) as info:
            design_tdma(desk_scenario.with_config(gamma_db=600.0))
        assert info.value.family == "per-feed-power"

    def test_tiny_slot_target_does_not_cancel(self, desk_scenario):
        # at -300 dB (1 + gamma)^6 - 1 rounds to 0; the target is 6 gamma
        sc = desk_scenario.with_config(gamma_db=-300.0)
        d = design_tdma(sc)
        n = len(sc.users)
        for u, slot in zip(sc.users, d.metadata["slot_gamma_lin"]):
            assert slot == pytest.approx(n * u.gamma_lin, rel=1e-12)
        assert d.total_power > 0
        report = evaluate(d, sc, samples=2_000, seed=5)
        assert report.min_mean_over_target == pytest.approx(1.0, rel=0.2)

    def test_desk_slots_meet_feed_caps(self, desk_scenario):
        d = design_tdma(desk_scenario)
        # the largest per-slot feed power is about 0.375 W against 10 W caps
        assert np.all(np.abs(d.beams) ** 2 <= desk_scenario.power_caps[:, None])

    def test_duty_cycle_accounting(self, desk_scenario):
        d = design_tdma(desk_scenario)
        n = len(desk_scenario.users)
        assert d.duty_cycle == pytest.approx(1.0 / n)
        slot_sum = np.sum(np.abs(d.beams) ** 2)
        assert d.total_power == pytest.approx(slot_sum / n, rel=1e-12)

    def test_most_expensive_at_reference_target(self, desk_scenario, alg1_design):
        z = design_zfbf(desk_scenario)
        t = design_tdma(desk_scenario)
        assert t.total_power > z.total_power >= alg1_design.total_power
