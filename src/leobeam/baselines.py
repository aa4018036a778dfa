"""Comparison schemes: non-robust design, zero-forcing beamforming, TDMA.

These are reconstructions of the usual textbook baselines (the exact variants
are not pinned down anywhere), so absolute powers should only be compared
within this package's own experiments.
"""

import numpy as np

from .errors import InfeasibleDesignError
from .network import BeamDesign, per_feed_power
from .robust_avg import PenaltyConfig, avg_constraint_coeffs, design_avg_sinr, expected_channel_matrix


def design_nonrobust(scenario, config: PenaltyConfig | None = None) -> BeamDesign:
    """Average-SINR machinery run under a perfect-CSI assumption (sigma = 0).

    Evaluating the result under the true phase uncertainty exposes the
    mismatch between designed beams and actual channels.
    """
    design = design_avg_sinr(scenario.with_config(phase_sigma_deg=0.0), config)
    design.algorithm = "nonrobust"
    return design


def zfbf_directions(scenario) -> np.ndarray:
    """Unit-norm pseudo-inverse directions of the representative channels,
    each region's strongest terminal (SIC rank zero)."""
    h = np.column_stack([u.channel.estimated for u in scenario.users if u.rank == 0])  # (K, M)
    gram = h.conj().T @ h
    if np.linalg.cond(gram) > 1e12:
        raise InfeasibleDesignError(
            "representative channels are rank deficient", family="zfbf-rank"
        )
    f = h @ np.linalg.inv(gram)  # zero-forcing: h_j^H f_m = delta_jm / scale
    f /= np.linalg.norm(f, axis=0, keepdims=True)
    return f


def design_zfbf(scenario) -> BeamDesign:
    """Zero-forcing directions at the representatives, each beam scaled by the
    minimum power meeting its region's intra-region average-SINR constraints.

    Inter-region interference is nulled at the representatives by
    construction and ignored in the scaling; per-feed caps are checked after
    the fact.
    """
    if scenario.beams > scenario.feeds:
        raise InfeasibleDesignError("need at least as many feeds as beams", family="zfbf-rank")
    f = zfbf_directions(scenario)
    powers = np.zeros(scenario.beams)
    for user in scenario.users:
        m = user.region
        # The own-region term of the average-SINR row at W_m = p f_m f_m^H.
        coeffs, rhs = avg_constraint_coeffs(scenario, user)
        gain = (f[:, m].conj() @ coeffs[m] @ f[:, m]).real
        if gain <= 0:
            raise InfeasibleDesignError(
                f"region {m}: SINR target exceeds the intra-region NOMA bound "
                "under fixed zero-forcing directions",
                family="zfbf-power",
            )
        powers[m] = max(powers[m], rhs / gain)
    beams = f * np.sqrt(powers)[None, :]
    if np.any(per_feed_power(beams) > scenario.power_caps + 1e-12):
        raise InfeasibleDesignError(
            "zero-forcing power allocation violates per-feed caps",
            family="per-feed-power",
        )
    return BeamDesign(
        beams=beams,
        algorithm="zfbf",
        status="OPTIMAL",
    )


def design_tdma(scenario) -> BeamDesign:
    """Every terminal served alone in an equal-length slot by a matched-filter
    beam, with the slot SINR raised to keep per-terminal spectral efficiency
    equal to the shared-beam scheme: slot target (1 + gamma)^N - 1.

    The design's total power is the time average over slots; per-feed caps
    are checked per slot.
    """
    users = scenario.users
    n_total = len(users)
    cols = []
    slot_targets = []
    for user in users:
        vals, vecs = np.linalg.eigh(expected_channel_matrix(user))
        lam, v = vals[-1], vecs[:, -1]
        slot = (1.0 + user.gamma_lin) ** n_total - 1.0
        power = slot * scenario.noise_power / lam
        pivot = np.argmax(np.abs(v))
        v = v * np.exp(-1j * np.angle(v[pivot]))
        cols.append(np.sqrt(power) * v)
        slot_targets.append(slot)
    beams = np.column_stack(cols)
    # Each slot's beam transmits alone, so every column must meet the caps.
    if np.any(np.abs(beams) ** 2 > scenario.power_caps[:, None] + 1e-12):
        raise InfeasibleDesignError(
            "a TDMA slot beam violates per-feed caps", family="per-feed-power"
        )
    return BeamDesign(
        beams=beams,
        algorithm="tdma",
        duty_cycle=1.0 / n_total,
        status="OPTIMAL",
        metadata={"slot_gamma_lin": slot_targets},
    )
