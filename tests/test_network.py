import dataclasses

import numpy as np
import pytest

from conftest import desk_config
from oracles import (
    loop_avg_constraint_coeffs,
    loop_build_scenario,
    loop_intra_weight,
    loop_margin_scalars,
    loop_region_alpha_total,
    loop_sinr_samples,
)

from leobeam.channel import assemble_channel
from leobeam.cli import write_sinr_report
from leobeam.network import (
    BeamDesign,
    folded_beams,
    interference_weight,
    per_feed_power,
    sic_order,
    sinr,
    sinr_samples,
)
from leobeam.robust_avg import avg_constraint_coeffs
from leobeam.robust_outage import margin_scalars
from leobeam.scenario import build_scenario


def channel_with_norm(norm, k=4):
    gains = np.full(k, norm**2 / k)
    return assemble_channel(1.0, gains, np.ones(k), np.zeros(k))


class TestSicOrder:
    def test_single_user(self):
        assert sic_order([channel_with_norm(1.0)]) == [0]

    def test_simple_sort(self):
        chans = [channel_with_norm(3.0), channel_with_norm(1.0), channel_with_norm(2.0)]
        assert sic_order(chans) == [0, 2, 1]

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            norms = rng.uniform(0.5, 5.0, 5)
            chans = [channel_with_norm(v) for v in norms]
            got = sic_order(chans)
            oracle = sorted(range(5), key=lambda i: (-norms[i], i))
            assert got == oracle

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sic_order([])


class TestInterferenceWeight:
    def test_own_signal(self):
        assert interference_weight(1, 2, 1, 2, 0.05) == 0.0

    def test_weaker_same_region(self):
        assert interference_weight(1, 3, 1, 2, 0.05) == 0.05

    def test_other_region(self):
        assert interference_weight(0, 2, 1, 2, 0.05) == 1.0

    def test_stronger_same_region(self):
        assert interference_weight(1, 0, 1, 2, 0.05) == 1.0


def eq_oracle_sinr(user, h, beams, scenario):
    """Literal term-by-term summation of the post-SIC decomposition."""
    num = user.alpha * abs(h.conj() @ beams[:, user.region]) ** 2
    den = scenario.noise_power
    for other in scenario.users:
        w = interference_weight(other.region, other.rank, user.region, user.rank, user.eta)
        den += w * other.alpha * abs(h.conj() @ beams[:, other.region]) ** 2
    return num / den


class TestSinr:
    def test_no_interference_case(self):
        sc = build_scenario(desk_config(feeds=4, beams=1, users_per_region=1))
        user = dataclasses.replace(sc.users[0], alpha=1.0)
        sc = dataclasses.replace(sc, users=[user])
        h = user.channel.estimated
        w = 2.0 * h / np.linalg.norm(h)  # |h^H w|^2 = 4 ||h||^2
        design = BeamDesign(beams=w[:, None])
        entry = sinr(user, h, design, sc)
        assert entry.gamma == pytest.approx(4.0 * np.linalg.norm(h) ** 2)
        assert entry.intra == entry.residual == entry.inter == 0.0

    def test_perfect_sic_removes_weaker_terms(self):
        sc = build_scenario(desk_config()).with_config(sic_eta=0.0)
        strong = next(u for u in sc.users if u.rank == 0)
        design = BeamDesign(beams=np.ones((sc.feeds, sc.beams), dtype=complex))
        entry = sinr(strong, strong.channel.estimated, design, sc)
        assert entry.residual == 0.0
        assert entry.intra == 0.0  # no stronger user exists for rank 0

    def test_matches_term_by_term_oracle(self):
        sc = build_scenario(desk_config(seed=11))
        rng = np.random.default_rng(1)
        beams = rng.normal(size=(sc.feeds, sc.beams)) + 1j * rng.normal(
            size=(sc.feeds, sc.beams)
        )
        design = BeamDesign(beams=beams)
        for user in sc.users:
            e = rng.normal(0, 0.1, sc.feeds)
            h = user.channel.estimated * np.exp(1j * e)
            entry = sinr(user, h, design, sc)
            assert entry.gamma == pytest.approx(
                eq_oracle_sinr(user, h, beams, sc), rel=1e-12
            )

    def test_decomposition_reconstructs_ratio(self):
        sc = build_scenario(desk_config(seed=12))
        rng = np.random.default_rng(2)
        beams = rng.normal(size=(sc.feeds, sc.beams)) + 1j * rng.normal(
            size=(sc.feeds, sc.beams)
        )
        design = BeamDesign(beams=beams)
        for user in sc.users:
            entry = sinr(user, user.channel.estimated, design, sc)
            ratio = entry.desired / (entry.intra + entry.residual + entry.inter + entry.noise)
            assert entry.gamma == pytest.approx(ratio, rel=1e-12)

    def test_eta_extremes(self):
        # eta = 1: weaker-user terms at full weight; eta = 0: they vanish.
        sc = build_scenario(desk_config(seed=13))
        rng = np.random.default_rng(3)
        beams = rng.normal(size=(sc.feeds, sc.beams)) + 1j * rng.normal(
            size=(sc.feeds, sc.beams)
        )
        strong = next(u for u in sc.users if u.rank == 0)
        weak = next(
            u for u in sc.users if u.region == strong.region and u.rank == 1
        )
        h = strong.channel.estimated
        own_power = abs(h.conj() @ beams[:, strong.region]) ** 2
        d1 = BeamDesign(beams=beams)
        e0 = sinr(dataclasses.replace(strong, eta=0.0), h, d1, sc)
        e1 = sinr(dataclasses.replace(strong, eta=1.0), h, d1, sc)
        assert e0.residual == 0.0
        assert e1.residual == pytest.approx(weak.alpha * own_power, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        sc = build_scenario(desk_config(seed=14))
        rng = np.random.default_rng(4)
        beams = rng.normal(size=(sc.feeds, sc.beams)) + 1j * rng.normal(
            size=(sc.feeds, sc.beams)
        )
        design = BeamDesign(beams=beams)
        user = sc.users[3]
        q = np.exp(1j * rng.normal(0, 0.1, (5, sc.feeds)))
        h = user.channel.estimated[None, :] * q
        vec = sinr_samples(user, q, folded_beams(user, beams), sc)
        for s in range(5):
            assert vec[s] == pytest.approx(sinr(user, h[s], design, sc).gamma, rel=1e-12)


WEIGHT_CONFIGS = {
    "desk": {},
    "uneven-regions": dict(users_per_region=[1, 3, 2]),
    "explicit-alpha": dict(
        alpha_policy="explicit", alpha_explicit=[[0.3, 0.6], [0.25, 0.75], [0.1, 0.5]]
    ),
    "perfect-sic": dict(sic_eta=0.0),
    "no-sic": dict(sic_eta=1.0),
}


class TestWeightRow:
    """Every SINR form read from the weight row equals its region-by-region
    form with its own SIC rank loop, bit for bit."""

    @pytest.fixture(params=WEIGHT_CONFIGS.values(), ids=WEIGHT_CONFIGS)
    def scenario(self, request):
        return build_scenario(desk_config(**request.param))

    def test_row_entries(self, scenario):
        for u in scenario.users:
            assert u.weights.shape == (scenario.beams,)
            t1 = loop_intra_weight(scenario, u)
            assert u.weights[u.region] == t1 == scenario.intra_weight(u)
            for j in range(scenario.beams):
                t2 = loop_region_alpha_total(scenario, j)
                assert t2 == scenario.region_alpha_total(j)
                if j != u.region:
                    assert u.weights[j] == t2

    def test_avg_coefficients(self, scenario):
        for u in scenario.users:
            coeffs, rhs = avg_constraint_coeffs(scenario, u)
            want, want_rhs = loop_avg_constraint_coeffs(scenario, u)
            assert rhs == want_rhs
            assert len(coeffs) == len(want)
            for j, g in want.items():
                assert np.array_equal(coeffs[j], g)

    def test_margin_scalars(self, scenario):
        for u in scenario.users:
            want = loop_margin_scalars(scenario, u)
            assert np.array_equal(margin_scalars(u), [want[j] for j in sorted(want)])

    def test_sinr_samples(self, scenario):
        # The folded product rounds differently from |h^H w|^2 on the true
        # channel, so the two agree to rounding; a wrong weight is off by O(1).
        rng = np.random.default_rng(8)
        k, m = scenario.feeds, scenario.beams
        beams = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
        for u in scenario.users:
            q = np.exp(1j * rng.normal(0, 0.1, (7, k)))
            got = sinr_samples(u, q, folded_beams(u, beams), scenario)
            want = loop_sinr_samples(u, u.channel.estimated * q, beams, scenario)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_rebuilt_scenario_carries_new_row(self):
        sc = build_scenario(desk_config())
        for eta in (0.0, 0.3, 1.0):
            point = sc.with_config(sic_eta=eta)
            want = loop_build_scenario(desk_config(sic_eta=eta))
            for u, v in zip(point.users, want.users):
                assert np.array_equal(u.weights, v.weights)
                assert u.weights[u.region] == loop_intra_weight(point, u)
        strong = next(u for u in sc.users if u.rank == 0)
        weak = next(u for u in sc.users if u.region == strong.region and u.rank == 1)
        assert sc.with_config(sic_eta=0.3).users[0].weights[0] == 0.3 * weak.alpha
        assert strong.weights[strong.region] == 0.05 * weak.alpha


class TestPerFeedPower:
    def test_single_scaled_basis_beam(self):
        beams = np.zeros((4, 1), dtype=complex)
        beams[2, 0] = 2.0
        p = per_feed_power(beams)
        assert np.allclose(p, [0, 0, 4.0, 0])

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        beams = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        assert np.sum(per_feed_power(beams)) == pytest.approx(
            np.sum(np.abs(beams) ** 2), rel=1e-14
        )

    def test_matches_gram_matrix_oracle(self):
        rng = np.random.default_rng(6)
        beams = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        gram = sum(np.outer(beams[:, j], beams[:, j].conj()) for j in range(3))
        assert np.allclose(per_feed_power(beams), np.diag(gram).real)


def test_sinr_report_csv_round_trip(tmp_path):
    sc = build_scenario(desk_config())
    rng = np.random.default_rng(7)
    beams = rng.normal(size=(sc.feeds, sc.beams)) + 1j * rng.normal(size=(sc.feeds, sc.beams))
    design = BeamDesign(beams=beams)
    entries = [sinr(u, u.channel.estimated, design, sc) for u in sc.users]
    path = tmp_path / "sinr.csv"
    write_sinr_report(entries, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,n,gamma_linear,desired,intra,residual,inter,noise"
    assert len(lines) == 1 + len(sc.users)
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(entries[0].gamma, rel=1e-15)
