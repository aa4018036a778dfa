import numpy as np
import pytest

from oracles import (
    bessel_series_oracle,
    embed_hermitian,
    full_eig_oracle,
    hermitian_from_embedding,
)

from leobeam.errors import ConvergenceError
from leobeam.numerics import bessel_j, max_eigpair


def random_hermitian(rng, k):
    m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return 0.5 * (m + m.conj().T)


class TestBessel:
    def test_vanishes_at_origin(self):
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(3, 0.0) == 0.0

    def test_series_oracle_value(self):
        # Frozen from the 30-term ascending-series oracle.
        assert bessel_j(1, 2.07123) == pytest.approx(0.5711226260848378, rel=1e-10)
        assert bessel_j(1, 2.07123) == pytest.approx(
            bessel_series_oracle(1, 2.07123, terms=30), rel=1e-10
        )
        assert bessel_j(3, 2.07123) == pytest.approx(0.14049968498137744, rel=1e-10)

    def test_odd_symmetry(self):
        for order in (1, 3):
            for x in (0.3, 2.2, 7.7, 31.4):
                assert bessel_j(order, -x) == pytest.approx(-bessel_j(order, x), abs=1e-15)

    def test_oracle_agreement_across_domain(self):
        # 1e-10 relative against the series oracle on |x| <= 50; near the
        # zeros of J the comparison floor is the oscillation envelope.
        xs = np.concatenate([np.linspace(0.01, 50.0, 503), [11.99, 12.0, 12.01]])
        for order in (1, 3):
            for x in xs:
                got = bessel_j(order, float(x))
                want = bessel_series_oracle(order, float(x))
                envelope = np.sqrt(2.0 / (np.pi * max(x, 0.02)))
                assert abs(got - want) <= 1e-10 * max(abs(want), envelope)
                if abs(want) >= 0.01 * envelope:
                    assert abs(got - want) <= 1e-9 * abs(want)

    def test_array_input(self):
        xs = np.array([0.0, 1.0, -1.0, 20.0])
        got = bessel_j(1, xs)
        assert got.shape == xs.shape
        assert got[1] == pytest.approx(-got[2])

    @pytest.mark.parametrize("order", [1, 3])
    def test_2d_input_matches_scalar_calls(self, order):
        xs = np.array([[0.0, 1.5, -7.3], [12.0, -31.4, 49.0]])
        got = bessel_j(order, xs)
        assert got.shape == xs.shape
        want = [[bessel_j(order, float(x)) for x in row] for row in xs]
        assert np.array_equal(got, want)

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            bessel_j(2, 1.0)


class TestMaxEigpair:
    def test_identity(self):
        val, vec = max_eigpair(np.eye(3))
        assert val == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_diagonal(self):
        val, vec = max_eigpair(np.diag([5.0, 2.0, 1.0]))
        assert val == pytest.approx(5.0, abs=1e-9)
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-6)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_hermitian(rng, 4)
            val, vec = max_eigpair(m)
            oval, _ = full_eig_oracle(m)
            assert val == pytest.approx(oval, abs=1e-9 * np.linalg.norm(m, "fro"))
            resid = np.linalg.norm(m @ vec - val * vec)
            assert resid <= 1e-9 * np.linalg.norm(m, "fro")

    def test_dominates_random_rayleigh_quotients(self):
        rng = np.random.default_rng(12)
        m = random_hermitian(rng, 6)
        val, _ = max_eigpair(m)
        for _ in range(100):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            v /= np.linalg.norm(v)
            assert val + 1e-8 >= np.real(np.vdot(v, m @ v))

    def test_repeated_top_eigenvalue(self):
        # Residual criterion converges inside a degenerate top eigenspace.
        m = np.diag([3.0, 3.0, 1.0]).astype(complex)
        val, vec = max_eigpair(m)
        assert val == pytest.approx(3.0, abs=1e-9)
        assert np.linalg.norm(m @ vec - val * vec) <= 1e-9 * np.linalg.norm(m, "fro")

    def test_iteration_cap_raises(self):
        m = np.diag([1.0, 1.0 - 1e-14, 0.5])
        with pytest.raises(ConvergenceError):
            max_eigpair(m, tol=1e-16, max_iter=3)


class TestEmbedding:
    """The real-embedding oracle the native Hermitian cone is checked against."""

    def test_real_scalar(self):
        out = embed_hermitian(np.array([[2.5]]))
        assert np.allclose(out, np.array([[2.5, 0.0], [0.0, 2.5]]))

    def test_pure_imaginary_case(self):
        m = np.array([[0.0, 1j], [-1j, 0.0]])
        want = np.array(
            [
                [0.0, 0.0, 0.0, -1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.allclose(embed_hermitian(m), want)

    def test_eigenvalue_duplication(self):
        rng = np.random.default_rng(5)
        m = random_hermitian(rng, 3)
        src = np.linalg.eigvalsh(m)
        emb = np.linalg.eigvalsh(embed_hermitian(m))
        assert np.allclose(np.sort(emb), np.sort(np.repeat(src, 2)), atol=1e-12)

    def test_trace_doubles(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 4)
        assert np.trace(embed_hermitian(m)) == pytest.approx(2 * np.trace(m).real)

    def test_psd_iff(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = random_hermitian(rng, 4)
            psd = m @ m.conj().T  # PSD by construction
            assert np.linalg.eigvalsh(embed_hermitian(psd)).min() >= -1e-10
            indef = m - np.eye(4) * (np.linalg.eigvalsh(m)[-1] * 0.5 + 1.0)
            if np.linalg.eigvalsh(indef).min() < -1e-8:
                assert np.linalg.eigvalsh(embed_hermitian(indef)).min() < -1e-8

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(rng, 5)
        back = hermitian_from_embedding(embed_hermitian(m))
        assert np.allclose(back, m, atol=1e-14)

    def test_projection_kills_structure_complement(self):
        # Trace functionals against embedded coefficients only see the
        # structured part of a general symmetric matrix.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(6, 6))
        x = 0.5 * (x + x.T)
        d = random_hermitian(rng, 3)
        w = hermitian_from_embedding(x)
        lhs = np.trace(embed_hermitian(d) @ x)
        assert lhs == pytest.approx(2.0 * np.trace(d @ w).real, abs=1e-10)
