import numpy as np
import pytest

from conftest import correlated_cov, count_calls
from oracles import beam_pattern_oracle, bessel_series_oracle

from leobeam.channel import (
    BeamPattern,
    PhaseErrorModel,
    RainModel,
    assemble_channel,
    beam_gain,
    expected_phase_matrix,
    large_scale_gain,
    sample_phase_error,
    sample_rain,
)
from leobeam.errors import ConfigError
from leobeam.scenario import NetworkConfig


class TestBeamGain:
    pattern = BeamPattern(max_gain=10.0 ** (17.0 / 10.0), angle_3db=np.deg2rad(0.4))

    def test_boresight_is_exactly_max_gain(self):
        assert beam_gain(self.pattern, 0.0) == pytest.approx(
            self.pattern.max_gain, rel=1e-9
        )

    def test_half_power_at_3db_angle(self):
        ratio = beam_gain(self.pattern, self.pattern.angle_3db) / self.pattern.max_gain
        assert ratio == pytest.approx(0.5, rel=0.05)

    def test_matches_series_oracle_at_half_angle(self):
        angle = np.deg2rad(0.2)
        u = 2.07123 * np.sin(angle) / np.sin(self.pattern.angle_3db)
        want = self.pattern.max_gain * beam_pattern_oracle(u)
        assert beam_gain(self.pattern, angle) == pytest.approx(want, rel=1e-9)

    def test_continuous_at_boresight(self):
        a = beam_gain(self.pattern, 0.0)
        b = beam_gain(self.pattern, 1e-6)
        assert abs(a - b) < 1e-6 * a

    def test_vectorized(self):
        angles = np.deg2rad([0.0, 0.1, 0.2, 0.4])
        gains = beam_gain(self.pattern, angles)
        assert gains.shape == (4,)
        assert np.all(np.diff(gains) < 0)  # monotone down inside the main lobe


class TestLargeScale:
    # 20 GHz carrier at 1000 km, G/T = 34 dB/K, 25 MHz
    budget = dict(carrier_hz=20.0e9, distance_m=1.0e6, g_over_t_db=34.0, bandwidth_hz=25.0e6)

    def test_inverse_square_in_distance(self):
        doubled = dict(self.budget, distance_m=2 * self.budget["distance_m"])
        assert large_scale_gain(**doubled) == pytest.approx(large_scale_gain(**self.budget) / 4)

    def test_inverse_in_bandwidth(self):
        doubled = dict(self.budget, bandwidth_hz=2 * self.budget["bandwidth_hz"])
        assert large_scale_gain(**doubled) == pytest.approx(large_scale_gain(**self.budget) / 2)

    def test_free_space_term_plugin_arithmetic(self):
        # independent plug-in evaluation: c = 3e8 m/s, k = 1.38e-23 J/K
        fsl = (3.0e8 / (4.0 * np.pi * 20.0e9 * 1.0e6)) ** 2
        assert fsl == pytest.approx(1.42483e-18, rel=1e-4)
        assert 10 * np.log10(fsl) == pytest.approx(-178.46, abs=0.01)
        want = fsl * 10.0 ** 3.4 / (1.38e-23 * 25.0e6)
        assert large_scale_gain(**self.budget) == pytest.approx(want, rel=1e-12)

    def test_rejects_nonpositive(self):
        for name in ("carrier_hz", "bandwidth_hz", "altitude_m"):
            with pytest.raises(ConfigError, match=f"{name} must be positive"):
                NetworkConfig(**{name: 0.0}).validate()


class TestRain:
    def test_zero_variance_is_deterministic(self):
        model = RainModel(mean_db=-2.6, var_db2=0.0)
        rng = np.random.default_rng(0)
        a = sample_rain(model, 8, rng)
        assert np.allclose(a, a[0])
        assert a[0] == pytest.approx(10.0 ** (-2.6 / 20.0))

    def test_moment_matching(self):
        model = RainModel()
        rng = np.random.default_rng(1)
        amp = sample_rain(model, 1_000_000, rng)
        att_db = 20.0 * np.log10(amp)
        assert att_db.mean() == pytest.approx(-2.6, abs=0.05)
        assert att_db.var() == pytest.approx(1.63, rel=0.02)

    def test_amplitudes_in_unit_interval(self):
        rng = np.random.default_rng(2)
        amp = sample_rain(RainModel(), 100000, rng)
        assert np.all(amp > 0.0)
        assert np.all(amp <= 1.0)

    def test_rejects_amplifying_rain(self):
        with pytest.raises(ConfigError):
            RainModel(mean_db=1.0).validate()


class TestPhaseError:
    def test_zero_sigma(self):
        rng = np.random.default_rng(3)
        e = sample_phase_error(PhaseErrorModel(0.0), 6, rng)
        assert np.all(e == 0.0)

    def test_identity_cov_variance(self):
        sigma = np.deg2rad(5.0)
        rng = np.random.default_rng(4)
        draws = np.array(
            [sample_phase_error(PhaseErrorModel(sigma), 4, rng) for _ in range(200)]
        )
        # vectorized redraw for the real moment check
        rng = np.random.default_rng(4)
        big = sigma * rng.standard_normal((1_000_000, 4))
        assert np.allclose(big.var(axis=0), sigma**2, rtol=0.01)
        assert draws.shape == (200, 4)

    def test_batched_draws_equal_single_draws(self):
        model = PhaseErrorModel(np.deg2rad(5.0))
        rng = np.random.default_rng(6)
        singles = np.array([sample_phase_error(model, 4, rng) for _ in range(50)])
        batched = sample_phase_error(model, 4, np.random.default_rng(6), 50)
        assert batched.shape == (50, 4)
        assert np.array_equal(batched, singles)

    def test_chunked_draws_equal_one_draw(self):
        model = PhaseErrorModel(0.1, correlated_cov(5))
        whole = sample_phase_error(model, 5, np.random.default_rng(2), 7)
        rng, fac, buf = np.random.default_rng(2), model.factor(5), np.empty((3, 5))
        # chunks of two or more rows: a one-row product takes another BLAS path
        parts = [sample_phase_error(model, 5, rng, n, buf[:n], fac).copy() for n in (3, 2, 2)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_correlated_draw_validates_once(self, monkeypatch):
        model = PhaseErrorModel(0.1, correlated_cov(12))
        eigs = count_calls(monkeypatch, np.linalg, "eigvalsh")
        sample_phase_error(model, 12, np.random.default_rng(0), 100)
        assert len(eigs) == 1

    def test_cross_covariance_matches_model(self):
        k = 3
        c = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.0]])
        sigma = 0.3
        model = PhaseErrorModel(sigma, c)
        rng = np.random.default_rng(5)
        fac = model.factor(k)
        draws = sigma * (rng.standard_normal((1_000_000, k)) @ fac.T)
        emp = np.cov(draws.T)
        assert np.allclose(emp, sigma**2 * c, rtol=0.01, atol=1e-4)

    def test_non_psd_cov_rejected(self):
        c = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ConfigError):
            sample_phase_error(PhaseErrorModel(0.1, c), 2, np.random.default_rng(0))


class TestAssemblePerturb:
    def test_unit_factors_give_ones(self):
        ch = assemble_channel(1.0, np.ones(4), np.ones(4), np.zeros(4))
        assert np.allclose(ch.estimated, np.ones(4))

    def test_magnitude_ignores_phase(self):
        rng = np.random.default_rng(6)
        phases = rng.uniform(0, 2 * np.pi, 5)
        gains = rng.uniform(0.5, 2.0, 5)
        ramp = rng.uniform(0.3, 1.0, 5)
        ch = assemble_channel(2.0, gains, ramp, phases)
        assert np.allclose(np.abs(ch.estimated) ** 2, 2.0 * gains * ramp**2)

    def test_component_product_oracle(self):
        # independent direct-formula evaluation of a fully specified case
        large = 3.7
        gains = np.array([1.0, 4.0, 0.25, 9.0])
        ramp = np.array([0.9, 0.5, 1.0, 0.77])
        phases = np.array([0.0, np.pi / 3, 1.1, 5.9])
        ch = assemble_channel(large, gains, ramp, phases)
        for k in range(4):
            want = np.sqrt(large) * np.sqrt(gains[k]) * ramp[k] * np.exp(1j * phases[k])
            assert ch.estimated[k] == pytest.approx(want, rel=1e-14)
        assert np.allclose(
            np.abs(ch.estimated) ** 2, large * ch.beam_gains * ch.rain_power
        )


class TestExpectedPhaseMatrix:
    def test_zero_sigma_all_ones(self):
        q = expected_phase_matrix(PhaseErrorModel(0.0), 5)
        assert np.allclose(q, np.ones((5, 5)))

    def test_five_degree_value(self):
        sigma = np.deg2rad(5.0)
        q = expected_phase_matrix(PhaseErrorModel(sigma), 4)
        assert q[0, 1] == pytest.approx(0.9924134884647979, rel=1e-12)
        assert q[0, 1] == pytest.approx(np.exp(-(sigma**2)), rel=1e-15)
        assert np.all(np.diag(q) == 1.0)

    def test_psd(self):
        c = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.0]])
        for model in (PhaseErrorModel(0.5), PhaseErrorModel(0.5, c)):
            q = expected_phase_matrix(model, 3)
            assert np.linalg.eigvalsh(q).min() >= -1e-12

    def test_monte_carlo_agreement(self):
        # mean of q q^H over 1e5 draws matches entrywise within 3 SE
        sigma = np.deg2rad(5.0)
        k, s = 4, 100_000
        rng = np.random.default_rng(8)
        e = sigma * rng.standard_normal((s, k))
        q = np.exp(1j * e)
        emp = np.einsum("si,sj->ij", q, q.conj()) / s
        want = expected_phase_matrix(PhaseErrorModel(sigma), k)
        prod = np.exp(1j * (e[:, :, None] - e[:, None, :]))
        se = prod.std(axis=0) / np.sqrt(s) + 1e-12
        assert np.all(np.abs(emp - want) <= 3.0 * se)

    def test_general_covariance_formula(self):
        c = np.array([[1.0, 0.6], [0.6, 1.0]])
        sigma = 0.4
        q = expected_phase_matrix(PhaseErrorModel(sigma, c), 2)
        want = np.exp(-(sigma**2) * (1.0 + 1.0 - 2 * 0.6) / 2.0)
        assert q[0, 1] == pytest.approx(want, rel=1e-12)
