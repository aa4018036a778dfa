import numpy as np
import pytest

from leobeam.scenario import NetworkConfig, build_scenario


def desk_config(**overrides) -> NetworkConfig:
    """The small reference instance every heavier test runs on."""
    return NetworkConfig(**overrides)


@pytest.fixture(scope="session")
def desk_scenario():
    return build_scenario(desk_config())


@pytest.fixture(scope="session")
def alg1_design(desk_scenario):
    from leobeam.robust_avg import design_avg_sinr

    return design_avg_sinr(desk_scenario)


@pytest.fixture(scope="session")
def alg2_design(desk_scenario):
    from leobeam.robust_outage import design_outage

    return design_outage(desk_scenario.with_config(outage_prob=0.05))


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def correlated_cov(k, rho=0.3):
    """Unit-diagonal PSD covariance rho^|i-j|."""
    i = np.arange(k)
    return rho ** np.abs(i[:, None] - i[None, :])


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so its calls are recorded; returns the record list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls
