"""Scenario assembly: geometry, channel draws, SIC ordering, power splits.

The satellite sits at altitude d0 above the origin.  Beam centers occupy a
hexagonal lattice whose pitch equals the 3 dB footprint diameter
2 d0 tan(angle_3db); the feeds assigned to a beam sit on a small ring around
its center, and terminals are placed uniformly inside the beam footprint.
Off-boresight angles follow from the planar geometry at orbit altitude.

All randomness flows from one master seed through three substreams
(positions, rain, phases), each drawn once for all terminals, so a scenario
(and everything derived from it) is bitwise reproducible.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    BeamPattern,
    ChannelVector,
    PhaseErrorModel,
    RainModel,
    assemble_channel,
    beam_gain,
    large_scale_gain,
    sample_rain,
)
from .errors import ConfigError
from .network import interference_weight, sic_order


def _as_list(value, count, name):
    """The ``count`` entries of a list, tuple or array; any other value,
    a 0-d array's included, repeated ``count`` times."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        return [value] * count
    if len(value) != count:
        raise ConfigError(f"{name} must be scalar or length {count}")
    return list(value)


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool is neither a count nor a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite Python or numpy real number; a bool, a string, None, NaN, an
    infinity or an int beyond float range is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_reals(value, name):
    """ConfigError unless every entry of a nested list or array is real (_is_real)."""
    if not all(_is_real(v) for v in np.asarray(value, dtype=object).ravel().tolist()):
        raise ConfigError(f"{name} entries must be numeric and finite, got {value!r}")


# Real-valued NetworkConfig fields, and those that also take one value per
# terminal.
_REAL_FIELDS = (
    "altitude_m",
    "carrier_hz",
    "bandwidth_hz",
    "sat_gain_dbi",
    "g_over_t_db",
    "angle_3db_deg",
    "rain_mean_db",
    "rain_var_db2",
    "phase_sigma_deg",
    "alpha_ratio",
    "noise_power",
    "feed_power_cap_w",
)
_PER_TERMINAL_FIELDS = ("sic_eta", "gamma_db", "outage_prob")


@dataclass
class NetworkConfig:
    """All scenario parameters; defaults give the small reference instance."""

    feeds: int = 12
    beams: int = 3
    users_per_region: int | list = 2
    altitude_m: float = 1.0e6
    carrier_hz: float = 20.0e9
    bandwidth_hz: float = 25.0e6
    sat_gain_dbi: float = 17.0
    g_over_t_db: float = 34.0
    angle_3db_deg: float = 0.4
    rain_mean_db: float = -2.6
    rain_var_db2: float = 1.63
    phase_sigma_deg: float = 5.0
    phase_cov: np.ndarray | None = None  # None = identity
    sic_eta: float | list = 0.05
    alpha_policy: str = "geometric"  # "geometric" | "rank" | "explicit"
    alpha_ratio: float = 3.0
    alpha_explicit: list | None = None
    noise_power: float = 1.0
    feed_power_cap_w: float = 10.0
    gamma_db: float | list = 3.0
    outage_prob: float | list = 0.05
    seed: int = 20260810

    def validate(self):
        """ConfigError unless ``build_scenario`` can use every field.

        Returns what it derived to check them, for the build to use: the
        terminal count per region, the per-terminal lists of gamma_db,
        outage_prob and sic_eta (keyed by field name), the rain model and
        the phase model, which the build shares among its terminals, so a
        correlated C is checked and factored once.
        """
        for name in ("feeds", "beams", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.feeds <= 0 or self.beams <= 0:
            raise ConfigError("feeds and beams must be positive")
        if self.feeds % self.beams != 0:
            raise ConfigError("feeds must divide evenly among beams")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        users_per = _as_list(self.users_per_region, self.beams, "users_per_region")
        if not all(_is_int(n) for n in users_per):
            raise ConfigError(f"users_per_region entries must be integers, got {users_per!r}")
        users_per = [int(n) for n in users_per]
        if min(users_per) <= 0:
            raise ConfigError("each region needs at least one terminal")
        per_terminal = {
            name: _as_list(getattr(self, name), sum(users_per), name)
            for name in _PER_TERMINAL_FIELDS
        }
        for name in _REAL_FIELDS + _PER_TERMINAL_FIELDS:
            value = getattr(self, name)
            if not all(_is_real(v) for v in per_terminal.get(name, [value])):
                raise ConfigError(f"{name} must be numeric and finite, got {value!r}")
        for name in (
            "altitude_m",
            "carrier_hz",
            "bandwidth_hz",
            "noise_power",
            "feed_power_cap_w",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("sat_gain_dbi", "g_over_t_db"):
            with np.errstate(over="ignore"):
                linear = np.power(10.0, getattr(self, name) / 10.0)
            if not 0 < linear < np.inf:
                raise ConfigError(f"{name} must give a finite, positive linear gain")
        with np.errstate(over="ignore", under="ignore"):
            targets = np.power(10.0, np.asarray(per_terminal["gamma_db"], dtype=float) / 10.0)
        if not np.all((targets > 0) & (targets < np.inf)):
            raise ConfigError("gamma_db must give a finite, positive linear target")
        # The linear satellite gain is finite and positive, so this product
        # is only if the link gain is too.
        try:
            with np.errstate(over="ignore", under="ignore"):
                peak = 10.0 ** (self.sat_gain_dbi / 10.0) * large_scale_gain(
                    self.carrier_hz, self.altitude_m, self.g_over_t_db, self.bandwidth_hz
                )
        except OverflowError:
            peak = np.inf
        if not 0 < peak < np.inf:
            raise ConfigError(
                "carrier_hz, altitude_m, g_over_t_db, bandwidth_hz and sat_gain_dbi "
                "must give a finite, positive link gain"
            )
        if not 0 < self.angle_3db_deg < 90:
            raise ConfigError("angle_3db_deg must lie in (0, 90)")
        # The rain and phase models check their own parameters.
        rain = RainModel(self.rain_mean_db, self.rain_var_db2)
        if self.phase_cov is not None:
            _check_reals(self.phase_cov, "phase_cov")
        phase_model = PhaseErrorModel(np.deg2rad(self.phase_sigma_deg), self.phase_cov)
        phase_model.sized_cov(self.feeds)
        if not all(0 <= eta <= 1 for eta in per_terminal["sic_eta"]):
            raise ConfigError("SIC residual coefficient must lie in [0, 1]")
        if not all(0 < p < 1 for p in per_terminal["outage_prob"]):
            raise ConfigError("outage probability must lie in the open interval (0, 1)")
        if self.alpha_policy not in ("geometric", "rank", "explicit"):
            raise ConfigError("alpha_policy must be geometric, rank, or explicit")
        if self.alpha_policy == "geometric" and self.alpha_ratio <= 1:
            raise ConfigError("alpha_ratio must exceed 1")
        if self.alpha_explicit is not None and self.alpha_policy != "explicit":
            raise ConfigError(
                f"alpha_explicit is set but alpha_policy is {self.alpha_policy!r}; "
                "only the explicit policy reads it"
            )
        if self.alpha_policy == "explicit":
            if self.alpha_explicit is None:
                raise ConfigError("explicit alpha policy needs alpha_explicit")
            explicit = self.alpha_explicit
            if not isinstance(explicit, (list, tuple, np.ndarray)) or len(explicit) != self.beams:
                raise ConfigError(f"alpha_explicit needs one list per region ({self.beams})")
            for m, (alphas, count) in enumerate(zip(explicit, users_per)):
                _check_reals(alphas, "alpha_explicit")
                arr = np.asarray(alphas, dtype=float)
                if arr.shape != (count,):
                    raise ConfigError("explicit alpha list has the wrong length")
                if (arr < 0).any():
                    raise ConfigError("power split factors must be nonnegative")
                if arr.sum() > 1.0 + 1e-12:
                    raise ConfigError(
                        f"region {m}: power split factors sum to {arr.sum():.6f} > 1"
                    )
        return users_per, per_terminal, rain, phase_model


def power_split(policy: str, count: int, ratio: float = 3.0, explicit=None):
    """Intra-region power allocation over SIC ranks (rank 0 = strongest).

    Weaker terminals receive more power; factors sum to one.  The arguments
    come from a validated config: an explicit split has ``count`` entries.
    """
    if policy == "explicit":
        return np.asarray(explicit, dtype=float)
    if policy == "rank":
        arr = np.arange(1, count + 1, dtype=float)
    else:  # geometric
        arr = ratio ** np.arange(count, dtype=float)
    return arr / arr.sum()


@dataclass
class UserLink:
    """One terminal after SIC ordering, with everything a design needs.

    ``weights`` is the terminal's NOMA interference row: entry j weights
    region j's beam power in its SINR denominator (the own region's entry is
    t1, every other region's its total split t2).  Like ``rank`` and
    ``alpha`` it is fixed at build, so a changed eta or alpha takes a rebuild
    through ``Scenario.with_config``.
    """

    region: int
    rank: int  # position in the SIC order, 0 = strongest
    channel: ChannelVector
    alpha: float
    eta: float
    gamma_lin: float
    outage_prob: float
    phase_model: PhaseErrorModel  # one per scenario, shared by its terminals
    weights: np.ndarray  # (M,)


@dataclass
class Scenario:
    config: NetworkConfig
    users: list  # UserLink, region-major, SIC-rank-minor
    feed_positions: np.ndarray  # (K, 2) ground boresight points
    beam_centers: np.ndarray  # (M, 2)

    @property
    def feeds(self) -> int:
        return self.config.feeds

    @property
    def beams(self) -> int:
        return self.config.beams

    @property
    def noise_power(self) -> float:
        return self.config.noise_power

    @property
    def power_caps(self) -> np.ndarray:
        return np.full(self.config.feeds, self.config.feed_power_cap_w)

    def region_alpha_total(self, m: int) -> float:
        return float(sum(u.alpha for u in self.users if u.region == m))

    def intra_weight(self, user: UserLink) -> float:
        """t1: stronger-rank splits at weight one plus eta-weighted weaker ranks."""
        return float(user.weights[user.region])

    def with_config(self, **fields) -> "Scenario":
        """Rebuilt, and so validated, with ``fields`` replaced; the same seed gives
        the same draws, so targets, sigma, eta and p leave the channels as they are."""
        return build_scenario(replace(self.config, **fields))


def hex_lattice(count: int, pitch: float) -> np.ndarray:
    """First `count` points of a hexagonal lattice, innermost rings first."""
    directions = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
    axial = [(0, 0)]
    ring = 1
    while len(axial) < count:
        q, r = -ring, ring  # ring corner
        for dq, dr in directions:
            for _ in range(ring):
                axial.append((q, r))
                q += dq
                r += dr
        ring += 1
    pts = [
        (pitch * (q + 0.5 * r), pitch * (np.sqrt(3.0) / 2.0) * r) for q, r in axial
    ]
    return np.array(pts[:count])


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcast over the leading axes: each
    a stacked (1, n) @ (n, 1) product, which numpy runs as the BLAS dot of a
    single pair (a matrix-vector product can round a row differently)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def offaxis_angle(ground_a, ground_b, altitude: float):
    """Angle at the satellite between the directions to two ground points.

    The points are (..., 2) arrays that broadcast, so feeds (K, 2) against
    terminals (T, 1, 2) give (T, K) angles, each with the bits of its own
    single-pair call; a single pair gives a float.
    """
    # Satellite-to-ground vectors, each at the start of a 32-byte row and so
    # 16-byte aligned like a fresh array: OpenBLAS's Prescott and Core2
    # kernels round a length-3 dot by the alignment of its operands.
    va, vb = (np.full(np.shape(g)[:-1] + (4,), -float(altitude)) for g in (ground_a, ground_b))
    va[..., :2], vb[..., :2] = ground_a, ground_b
    va, vb = va[..., :3], vb[..., :3]
    norms = np.sqrt(_rowdot(va, va)) * np.sqrt(_rowdot(vb, vb))
    angle = np.arccos(np.clip(_rowdot(va, vb) / norms, -1.0, 1.0))
    return float(angle) if angle.ndim == 0 else angle


def build_scenario(config: NetworkConfig) -> Scenario:
    """Draw one reproducible scenario from the configuration.

    Each substream is drawn once for all T terminals (region-major): (T, 2)
    position uniforms, (T, K) rain normals and (T, K) phases.  A Generator
    fills an array in stream order, so these are one draw per terminal's values.
    """
    users_per, per_terminal, rain, phase_model = config.validate()
    k, m = config.feeds, config.beams
    total_users = sum(users_per)

    ss = np.random.SeedSequence(config.seed)
    rng_users, rng_rain, rng_phase = [np.random.default_rng(s) for s in ss.spawn(3)]

    angle3 = np.deg2rad(config.angle_3db_deg)
    footprint = config.altitude_m * np.tan(angle3)
    centers = hex_lattice(m, 2.0 * footprint)

    # Each beam's feeds sit on a ring around its center; a lone feed sits on it.
    per_beam = k // m
    phi = 2.0 * np.pi * np.arange(per_beam) / per_beam
    ring = (0.5 * footprint if per_beam > 1 else 0.0) * np.stack([np.cos(phi), np.sin(phi)], 1)
    feed_pos = (centers[:, None, :] + ring).reshape(k, 2)

    # Uniform positions inside each terminal's beam footprint disc.
    draws = rng_users.uniform(size=(total_users, 2))
    radius = footprint * np.sqrt(draws[:, 0])
    theta = 2.0 * np.pi * draws[:, 1]
    offsets = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], 1)
    pos = centers.repeat(users_per, axis=0) + offsets

    c_gain = large_scale_gain(
        config.carrier_hz, config.altitude_m, config.g_over_t_db, config.bandwidth_hz
    )
    pattern = BeamPattern(10.0 ** (config.sat_gain_dbi / 10.0), angle3)
    gains = beam_gain(pattern, offaxis_angle(feed_pos, pos[:, None, :], config.altitude_m))
    rain_amp = sample_rain(rain, (total_users, k), rng_rain)
    phases = rng_phase.uniform(0.0, 2.0 * np.pi, size=(total_users, k))
    channels = [assemble_channel(c_gain, *parts) for parts in zip(gains, rain_amp, phases)]

    # (region, rank, alpha) of every terminal in user order.
    explicit = [None] * m if config.alpha_explicit is None else config.alpha_explicit
    splits = [
        (bm, rank, float(alpha))
        for bm, count in enumerate(users_per)
        for rank, alpha in enumerate(
            power_split(config.alpha_policy, count, config.alpha_ratio, explicit[bm])
        )
    ]
    users = []
    flat = 0
    for bm, count in enumerate(users_per):
        order = sic_order(channels[flat : flat + count])
        for rank, src in enumerate(order):
            eta = float(per_terminal["sic_eta"][flat + rank])
            # Every split weighted by the one SIC rule, summed in user order.
            weights = np.zeros(m)
            for j, i, alpha in splits:
                weights[j] += interference_weight(j, i, bm, rank, eta) * alpha
            users.append(
                UserLink(
                    region=bm,
                    rank=rank,
                    channel=channels[flat + src],
                    alpha=splits[flat + rank][2],
                    eta=eta,
                    gamma_lin=10.0 ** (float(per_terminal["gamma_db"][flat + rank]) / 10.0),
                    outage_prob=float(per_terminal["outage_prob"][flat + rank]),
                    phase_model=phase_model,
                    weights=weights,
                )
            )
        flat += count
    return Scenario(config, users, feed_pos, centers)


# -- columnar channel-ensemble interchange ------------------------------------


def write_channels(scenario: Scenario, path):
    """One row per (terminal, feed): estimated channel and amplitude parts."""
    with open(path, "w") as fh:
        fh.write("# region rank feed hbar_re hbar_im large_scale beam_gain rain_power\n")
        for u in scenario.users:
            ch = u.channel
            for kk in range(len(ch.estimated)):
                fh.write(
                    f"{u.region} {u.rank} {kk} "
                    f"{float(ch.estimated[kk].real)!r} {float(ch.estimated[kk].imag)!r} "
                    f"{float(ch.large_scale)!r} {float(ch.beam_gains[kk])!r} "
                    f"{float(ch.rain_power[kk])!r}\n"
                )

