"""Robust multi-beam LEO satellite NOMA beamforming designs.

Power-minimal beamforming under multiplicative channel phase uncertainty:
an average-SINR-constrained design, an outage-probability-constrained design,
comparison baselines, the stochastic channel model behind them, an in-repo
conic interior-point solver, and a seeded Monte-Carlo validation harness.
"""

from .baselines import design_nonrobust, design_tdma, design_zfbf
from .channel import (
    BeamPattern,
    ChannelVector,
    PhaseErrorModel,
    RainModel,
    assemble_channel,
    beam_gain,
    expected_phase_matrix,
    large_scale_gain,
    sample_phase_error,
    sample_rain,
)
from .errors import ConfigError, ConvergenceError, InfeasibleDesignError, LeobeamError
from .evaluator import EvalReport, evaluate, sweep
from .network import BeamDesign, interference_weight, per_feed_power, sic_order, sinr
from .robust_avg import PenaltyConfig, design_avg_sinr
from .robust_outage import design_outage, mu_from_outage
from .scenario import NetworkConfig, Scenario, UserLink, build_scenario

__version__ = "0.1.0"

__all__ = [
    "BeamDesign",
    "BeamPattern",
    "ChannelVector",
    "ConfigError",
    "ConvergenceError",
    "EvalReport",
    "InfeasibleDesignError",
    "LeobeamError",
    "NetworkConfig",
    "PenaltyConfig",
    "PhaseErrorModel",
    "RainModel",
    "Scenario",
    "UserLink",
    "assemble_channel",
    "beam_gain",
    "build_scenario",
    "design_avg_sinr",
    "design_nonrobust",
    "design_outage",
    "design_tdma",
    "design_zfbf",
    "evaluate",
    "expected_phase_matrix",
    "interference_weight",
    "large_scale_gain",
    "mu_from_outage",
    "per_feed_power",
    "sample_phase_error",
    "sample_rain",
    "sic_order",
    "sinr",
    "sweep",
]
