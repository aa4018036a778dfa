import numpy as np
import pytest

from conftest import correlated_cov, count_calls, desk_config
from oracles import loop_build_scenario, scalar_offaxis_angle

from leobeam import scenario as scenario_module
from leobeam.errors import ConfigError
from leobeam.scenario import (
    NetworkConfig,
    build_scenario,
    hex_lattice,
    offaxis_angle,
    power_split,
    write_channels,
)


class TestGeometry:
    def test_hex_lattice_spacing(self):
        pts = hex_lattice(7, 2.0)
        assert pts.shape == (7, 2)
        assert np.allclose(pts[0], 0.0)
        d = np.linalg.norm(pts[1:] - pts[0], axis=1)
        assert np.allclose(d, 2.0)  # first ring sits at the pitch distance

    def test_hex_lattice_distinct(self):
        pts = hex_lattice(19, 1.0)
        for i in range(19):
            for j in range(i + 1, 19):
                assert np.linalg.norm(pts[i] - pts[j]) > 0.5

    def test_offaxis_angle_small_angle(self):
        # 10 km apart seen from 1000 km: ~0.01 rad
        a = offaxis_angle(np.array([0.0, 0.0]), np.array([10_000.0, 0.0]), 1.0e6)
        assert a == pytest.approx(0.01, rel=1e-3)

    def test_feeds_grouped_near_their_beam(self):
        sc = build_scenario(desk_config())
        per = sc.feeds // sc.beams
        for m in range(sc.beams):
            own = sc.feed_positions[m * per : (m + 1) * per]
            d_own = np.linalg.norm(own - sc.beam_centers[m], axis=1)
            assert np.all(d_own < 0.75 * np.linalg.norm(sc.beam_centers[1] - sc.beam_centers[0]))


class TestPowerSplit:
    def test_geometric(self):
        a = power_split("geometric", 2, ratio=3.0)
        assert np.allclose(a, [0.25, 0.75])
        assert a.sum() == pytest.approx(1.0)

    def test_rank(self):
        a = power_split("rank", 3)
        assert np.allclose(a, [1 / 6, 2 / 6, 3 / 6])

    def test_explicit(self):
        a = power_split("explicit", 2, explicit=[0.3, 0.6])
        assert np.allclose(a, [0.3, 0.6])

    def test_weaker_users_get_more(self):
        for n in (2, 3, 5):
            a = power_split("geometric", n)
            assert np.all(np.diff(a) > 0)


class TestBuildScenario:
    def test_sic_order_applied(self):
        sc = build_scenario(desk_config())
        for m in range(sc.beams):
            users = [u for u in sc.users if u.region == m]
            norms = [u.channel.norm for u in sorted(users, key=lambda u: u.rank)]
            assert all(norms[i] >= norms[i + 1] for i in range(len(norms) - 1))

    def test_deterministic(self):
        a = build_scenario(desk_config())
        b = build_scenario(desk_config())
        for ua, ub in zip(a.users, b.users):
            assert np.array_equal(ua.channel.estimated, ub.channel.estimated)

    def test_seed_changes_channels(self):
        a = build_scenario(desk_config())
        b = build_scenario(desk_config(seed=desk_config().seed + 1))
        assert not np.allclose(a.users[0].channel.estimated, b.users[0].channel.estimated)

    def test_channel_decomposition_invariant(self):
        sc = build_scenario(desk_config())
        for u in sc.users:
            ch = u.channel
            assert np.allclose(
                np.abs(ch.estimated) ** 2,
                ch.large_scale * ch.beam_gains * ch.rain_power,
                rtol=1e-12,
            )

    def test_intra_weight(self):
        sc = build_scenario(desk_config())
        strong = next(u for u in sc.users if u.rank == 0)
        weak = next(u for u in sc.users if u.region == strong.region and u.rank == 1)
        assert sc.intra_weight(strong) == pytest.approx(strong.eta * weak.alpha)
        assert sc.intra_weight(weak) == pytest.approx(strong.alpha)

    def test_with_helpers(self):
        sc = build_scenario(desk_config())
        fields = dict(gamma_db=0.0, phase_sigma_deg=0.0, sic_eta=0.2, outage_prob=0.1)
        for name, value in fields.items():
            point = sc.with_config(**{name: value})
            assert getattr(point.config, name) == value
            # the same draws: only the changed field differs
            for u, v in zip(sc.users, point.users):
                assert np.array_equal(u.channel.estimated, v.channel.estimated)
                assert (u.region, u.rank, u.alpha) == (v.region, v.rank, v.alpha)
        assert sc.with_config(gamma_db=0.0).users[0].gamma_lin == pytest.approx(1.0)
        assert sc.with_config(phase_sigma_deg=0.0).users[0].phase_model.sigma_rad == 0.0
        assert sc.with_config(sic_eta=0.2).users[0].eta == 0.2
        assert sc.with_config(outage_prob=0.1).users[0].outage_prob == 0.1
        # originals untouched
        assert sc.users[0].gamma_lin == pytest.approx(10 ** 0.3)
        assert sc.config.gamma_db == 3.0

    def test_with_helpers_take_one_value_per_terminal(self):
        sc = build_scenario(desk_config())
        vals = [0.01 * (i + 1) for i in range(len(sc.users))]
        assert [u.eta for u in sc.with_config(sic_eta=vals).users] == vals
        with pytest.raises(ConfigError, match="sic_eta"):
            sc.with_config(sic_eta=vals[:-1])


ARRAY_CONFIGS = {
    "desk": {},
    "full-scale": dict(feeds=60, beams=10, users_per_region=3, gamma_db=1.5),
    "one-feed-per-beam": dict(feeds=3, beams=3),
    "uneven-regions": dict(feeds=24, beams=3, users_per_region=[1, 3, 2], seed=3),
    "narrow-beams": dict(angle_3db_deg=0.1),
    "zero-variance-rain": dict(rain_var_db2=0.0),
}


@pytest.mark.blas_kernels
class TestArrayAssembly:
    """The array assembly reproduces the per-terminal, per-feed loop bit for
    bit, which holds only where the BLAS rounds a row of a product (the
    stacked off-axis dots among them) the same at any row count."""

    @pytest.mark.parametrize("overrides", ARRAY_CONFIGS.values(), ids=ARRAY_CONFIGS)
    def test_matches_loop_oracle(self, overrides):
        got = build_scenario(desk_config(**overrides))
        want = loop_build_scenario(desk_config(**overrides))
        assert np.array_equal(got.feed_positions, want.feed_positions)
        assert np.array_equal(got.beam_centers, want.beam_centers)
        assert len(got.users) == len(want.users)
        for u, v in zip(got.users, want.users):
            assert (u.region, u.rank) == (v.region, v.rank)
            assert np.array_equal(u.channel.estimated, v.channel.estimated)
            assert np.array_equal(u.channel.beam_gains, v.channel.beam_gains)
            assert np.array_equal(u.channel.rain_power, v.channel.rain_power)
            assert u.channel.large_scale == v.channel.large_scale
            assert np.array_equal(u.weights, v.weights)
            assert (u.alpha, u.eta, u.gamma_lin, u.outage_prob, u.phase_model.sigma_rad) == (
                v.alpha,
                v.eta,
                v.gamma_lin,
                v.outage_prob,
                v.phase_model.sigma_rad,
            )

    def test_offaxis_angle_batches_scalar_calls(self):
        sc = build_scenario(desk_config(feeds=60, beams=10, users_per_region=3))
        feeds = sc.feed_positions
        alt = sc.config.altitude_m
        terminals = np.random.default_rng(4).uniform(-3e4, 3e4, size=(30, 2))
        batched = offaxis_angle(feeds, terminals[:, None, :], alt)
        assert batched.shape == (30, 60)
        for row, pos in zip(batched, terminals):
            assert np.array_equal(offaxis_angle(feeds, pos, alt), row)
            singles = [offaxis_angle(f, pos, alt) for f in feeds]
            assert all(type(a) is float for a in singles)
            assert np.array_equal(row, singles)
            assert np.array_equal(row, [scalar_offaxis_angle(f, pos, alt) for f in feeds])


class TestValidation:
    def test_feeds_must_divide(self):
        with pytest.raises(ConfigError):
            NetworkConfig(feeds=10, beams=3).validate()

    def test_outage_open_interval(self):
        for p in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError):
                NetworkConfig(outage_prob=p).validate()

    def test_alpha_explicit_sum(self):
        cfg = NetworkConfig(
            alpha_policy="explicit",
            alpha_explicit=[[0.5, 0.6], [0.2, 0.8], [0.2, 0.8]],
        )
        with pytest.raises(ConfigError, match="sum"):
            cfg.validate()

    @pytest.mark.parametrize("explicit", [[[0.5, 0.5]], 0.5], ids=["one-region", "scalar"])
    def test_alpha_explicit_needs_one_list_per_region(self, explicit):
        cfg = NetworkConfig(alpha_policy="explicit", alpha_explicit=explicit)
        with pytest.raises(ConfigError, match="one list per region"):
            cfg.validate()

    @pytest.mark.parametrize("policy", [None, "geometric", "rank"])
    def test_alpha_explicit_needs_explicit_policy(self, policy):
        # The split would be silently ignored: the policy's own split is built.
        fields = {} if policy is None else {"alpha_policy": policy}
        cfg = NetworkConfig(alpha_explicit=[[0.5, 0.5]] * 3, **fields)
        with pytest.raises(ConfigError, match="only the explicit policy reads it"):
            build_scenario(cfg)

    def test_eta_range(self):
        with pytest.raises(ConfigError):
            NetworkConfig(sic_eta=1.5).validate()

    def test_angle_range(self):
        with pytest.raises(ConfigError):
            NetworkConfig(angle_3db_deg=95.0).validate()

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"feeds": 12.0}, "feeds must be an integer"),
            ({"beams": True}, "beams must be an integer"),
            ({"users_per_region": 1.5}, "users_per_region entries must be integers"),
            ({"users_per_region": [2, 2.5, 2]}, "users_per_region entries must be integers"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": -3}, "seed must be nonnegative"),
        ],
        ids=["float-feeds", "bool-beams", "float-users", "float-entry", "float-seed", "neg-seed"],
    )
    def test_counts_and_seed_checked(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            build_scenario(NetworkConfig(**overrides))

    def test_numpy_integers_accepted(self):
        per = np.array([2, 1, 2])
        cfg = NetworkConfig(feeds=np.int64(12), users_per_region=per, seed=np.int64(7))
        assert cfg.validate()[0] == [2, 1, 2]

    @pytest.mark.parametrize(
        "cov", [np.eye(4), 0.5 * np.eye(12)], ids=["wrong-size", "half-diagonal"]
    )
    def test_phase_cov_checked(self, cov):
        with pytest.raises(ConfigError, match="phase covariance"):
            NetworkConfig(phase_cov=cov).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rain_var_db2": -1.0},
            {"rain_mean_db": 1.0},
            {"rain_mean_db": 0.0, "rain_var_db2": 1.0},
            {"gamma_db": [3.0] * 5},
            {"sic_eta": [0.05] * 5},
            {"outage_prob": [0.05] * 5},
            {"alpha_policy": "explicit", "alpha_explicit": [[0.2, 0.3, 0.5], [0.3, 0.6], [0.3, 0.6]]},
        ],
        ids=[
            "negative-rain-variance",
            "amplifying-rain",
            "zero-mean-rain",
            "short-gamma",
            "short-eta",
            "short-outage",
            "long-alpha-row",
        ],
    )
    def test_inputs_build_reads_are_checked(self, overrides):
        # Each is a value that build_scenario cannot use.
        with pytest.raises(ConfigError):
            NetworkConfig(**overrides).validate()

    def test_one_phase_model_per_scenario(self):
        sc = build_scenario(desk_config(phase_cov=np.eye(12)))
        model = sc.users[0].phase_model
        assert all(u.phase_model is model for u in sc.users)
        assert not model.cov.flags.writeable

    def test_correlated_cov_checked_once_per_build(self, monkeypatch):
        eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
        build_scenario(desk_config(phase_cov=correlated_cov(12)))
        assert len(eigs) == 1

    def test_build_uses_what_validate_derived(self, monkeypatch):
        # The region counts, the three per-terminal lists and the rain model
        # are derived once, by validate, and the build reads them from there.
        lists = count_calls(monkeypatch, scenario_module, "_as_list")
        rains = count_calls(monkeypatch, scenario_module, "RainModel")
        sc = build_scenario(desk_config(users_per_region=[1, 3, 2], gamma_db=[1, 2, 3, 4, 5, 6]))
        names = [args[2] for args in lists]
        assert names == ["users_per_region", "sic_eta", "gamma_db", "outage_prob"]
        assert len(rains) == 1
        assert sorted(u.gamma_lin for u in sc.users) == [10.0 ** (g / 10.0) for g in range(1, 7)]


def test_channel_ensemble_round_trip(tmp_path):
    sc = build_scenario(desk_config())
    path = tmp_path / "channels.txt"
    write_channels(sc, path)
    rows = np.loadtxt(path, ndmin=2)
    assert rows.shape == (len(sc.users) * sc.feeds, 8)
    # One block of K feed rows per terminal, in scenario order; repr floats
    # read back bit for bit.
    for u, block in zip(sc.users, rows.reshape(len(sc.users), sc.feeds, 8)):
        ch = u.channel
        region, rank, feed, re, im, large, gains, rain = block.T
        assert np.all(region == u.region) and np.all(rank == u.rank)
        assert np.array_equal(feed, np.arange(sc.feeds))
        assert np.array_equal(re, ch.estimated.real) and np.array_equal(im, ch.estimated.imag)
        assert np.all(large == ch.large_scale)
        assert np.array_equal(gains, ch.beam_gains)
        assert np.array_equal(rain, ch.rain_power)
