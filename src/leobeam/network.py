"""NOMA signal model: SIC ordering, per-terminal SINR, power accounting.

Terminals inside a region share one beam through superposition coding.  Each
terminal cancels the signals of weaker-ordered terminals down to a residual
fraction eta and treats stronger-ordered ones as plain interference, which the
interference weight below encodes.
"""

from dataclasses import dataclass, field

import numpy as np


def sic_order(channels) -> list:
    """Indices sorted by descending channel norm; ties keep original order."""
    if not channels:
        raise ValueError("region must contain at least one terminal")
    norms = np.array([ch.norm for ch in channels])
    return list(np.argsort(-norms, kind="stable"))


def interference_weight(j: int, i: int, m: int, n: int, eta: float) -> float:
    """Weight of split (j, i)'s power in terminal (m, n)'s denominator.

    Zero for the terminal itself, the SIC residual eta for weaker-ordered
    terminals of the same region, one otherwise.  Ranks are SIC positions.
    """
    if j == m and i == n:
        return 0.0
    if j == m and i > n:
        return eta
    return 1.0


@dataclass
class BeamDesign:
    """Per-region beam vectors with achieved-power metadata."""

    beams: np.ndarray  # (K, M) complex, column m serves region m
    lifted: list | None = None  # optional PSD matrices W_m backing the beams
    algorithm: str = ""
    iterations: int = 0
    max_rank_gap: float = 0.0
    status: str = "OPTIMAL"
    duty_cycle: float = 1.0  # fraction of time each column transmits (TDMA < 1)
    metadata: dict = field(default_factory=dict)

    @property
    def total_power(self) -> float:
        """Time-averaged total transmit power."""
        return float(self.duty_cycle * np.sum(np.abs(self.beams) ** 2))

    @property
    def per_feed(self) -> np.ndarray:
        return per_feed_power(self.beams)


def per_feed_power(beams: np.ndarray) -> np.ndarray:
    """Per-feed transmit power: entry k is sum_m |w_m(k)|^2."""
    return np.sum(np.abs(np.asarray(beams)) ** 2, axis=1)


@dataclass
class SinrEntry:
    region: int
    rank: int
    gamma: float  # linear SINR
    desired: float
    intra: float  # stronger-ordered same-region interference
    residual: float  # eta-weighted weaker-ordered same-region interference
    inter: float  # other-region interference
    noise: float


def sinr(user, h_true: np.ndarray, design: BeamDesign, scenario) -> SinrEntry:
    """Instantaneous SINR of one terminal under a true channel realization.

    Literal evaluation of the post-SIC decomposition: every (region, split)
    pair contributes its power weighted by the interference weight.
    """
    beams = design.beams
    m, n = user.region, user.rank
    powers = np.abs(h_true.conj() @ beams) ** 2  # |h^H w_j|^2 per region
    desired = user.alpha * powers[m]
    intra = residual = inter = 0.0
    for other in scenario.users:
        w = interference_weight(other.region, other.rank, m, n, user.eta)
        if w == 0.0:
            continue
        term = w * other.alpha * powers[other.region]
        if other.region != m:
            inter += term
        elif other.rank > n:
            residual += term
        else:
            intra += term
    noise = scenario.noise_power
    gamma = desired / (intra + residual + inter + noise)
    return SinrEntry(m, n, gamma, desired, intra, residual, inter, noise)


def sinr_samples(user, h_samples: np.ndarray, design: BeamDesign, scenario) -> np.ndarray:
    """Vectorized SINR over sampled true channels, shape (S, K) -> (S,).

    Same weights as :func:`sinr`, collapsed per region into the terminal's
    weight row: the own region's t1 term first, then every other region's.
    """
    m, weights = user.region, user.weights
    powers = np.abs(h_samples.conj() @ design.beams) ** 2  # (S, M)
    denom = weights[m] * powers[:, m] + scenario.noise_power
    for j in range(len(weights)):
        if j != m:
            denom = denom + weights[j] * powers[:, j]
    return user.alpha * powers[:, m] / denom

