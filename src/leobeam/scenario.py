"""Scenario assembly: geometry, channel draws, SIC ordering, power splits.

The satellite sits at altitude d0 above the origin.  Beam centers occupy a
hexagonal lattice whose pitch equals the 3 dB footprint diameter
2 d0 tan(angle_3db); the feeds assigned to a beam sit on a small ring around
its center, and terminals are placed uniformly inside the beam footprint.
Off-boresight angles follow from the planar geometry at orbit altitude.

All randomness flows from one master seed through named substreams, so a
scenario (and everything derived from it) is bitwise reproducible.
"""

from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    BeamPattern,
    ChannelVector,
    LinkBudget,
    PhaseErrorModel,
    RainModel,
    assemble_channel,
    beam_gain,
    large_scale_gain,
    sample_rain,
)
from .errors import ConfigError


def _as_list(value, count, name):
    if np.isscalar(value):
        return [value] * count
    value = list(value)
    if len(value) != count:
        raise ConfigError(f"{name} must be scalar or length {count}")
    return value


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
    light_speed: float = 3.0e8
    boltzmann: float = 1.38e-23
    noise_temp_k: float = 300.0
    gamma_db: float | list = 3.0
    outage_prob: float | list = 0.05
    seed: int = 20260810

    def users_per_region_list(self):
        if np.isscalar(self.users_per_region):
            return [int(self.users_per_region)] * self.beams
        lst = [int(v) for v in self.users_per_region]
        if len(lst) != self.beams:
            raise ConfigError("users_per_region must be scalar or one entry per beam")
        return lst

    def validate(self):
        if self.feeds <= 0 or self.beams <= 0:
            raise ConfigError("feeds and beams must be positive")
        if self.feeds % self.beams != 0:
            raise ConfigError("feeds must divide evenly among beams")
        if self.beams > self.feeds:
            raise ConfigError("cannot form more beams than feeds")
        for n in self.users_per_region_list():
            if n <= 0:
                raise ConfigError("each region needs at least one terminal")
        for name in (
            "altitude_m",
            "carrier_hz",
            "bandwidth_hz",
            "noise_power",
            "feed_power_cap_w",
            "light_speed",
            "boltzmann",
            "noise_temp_k",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0 < self.angle_3db_deg < 90:
            raise ConfigError("angle_3db_deg must lie in (0, 90)")
        if self.phase_sigma_deg < 0:
            raise ConfigError("phase_sigma_deg must be nonnegative")
        PhaseErrorModel(np.deg2rad(self.phase_sigma_deg), self.phase_cov).validate(self.feeds)
        etas = self.sic_eta if not np.isscalar(self.sic_eta) else [self.sic_eta]
        for eta in np.ravel(etas):
            if not 0 <= eta <= 1:
                raise ConfigError("SIC residual coefficient must lie in [0, 1]")
        if not np.all(np.isfinite(np.atleast_1d(self.gamma_db).astype(float))):
            raise ConfigError("gamma_db must be finite")
        for p in np.atleast_1d(self.outage_prob).astype(float):
            if not 0 < p < 1:
                raise ConfigError("outage probability must lie in the open interval (0, 1)")
        if self.alpha_policy not in ("geometric", "rank", "explicit"):
            raise ConfigError("alpha_policy must be geometric, rank, or explicit")
        if self.alpha_policy == "geometric" and self.alpha_ratio <= 1:
            raise ConfigError("alpha_ratio must exceed 1")
        if self.alpha_policy == "explicit":
            if self.alpha_explicit is None:
                raise ConfigError("explicit alpha policy needs alpha_explicit")
            for m, alphas in enumerate(self.alpha_explicit):
                arr = np.asarray(alphas, dtype=float)
                if (arr < 0).any():
                    raise ConfigError("power split factors must be nonnegative")
                if arr.sum() > 1.0 + 1e-12:
                    raise ConfigError(
                        f"region {m}: power split factors sum to {arr.sum():.6f} > 1"
                    )

    def link_budget(self) -> LinkBudget:
        rx_gain = 10.0 ** (self.g_over_t_db / 10.0) * self.noise_temp_k
        return LinkBudget(
            light_speed=self.light_speed,
            carrier_hz=self.carrier_hz,
            distance_m=self.altitude_m,
            rx_gain=rx_gain,
            boltzmann=self.boltzmann,
            bandwidth_hz=self.bandwidth_hz,
            noise_temp_k=self.noise_temp_k,
        )


def power_split(policy: str, count: int, ratio: float = 3.0, explicit=None):
    """Intra-region power allocation over SIC ranks (rank 0 = strongest).

    Weaker terminals receive more power; factors sum to one.
    """
    if policy == "explicit":
        arr = np.asarray(explicit, dtype=float)
        if arr.shape != (count,):
            raise ConfigError("explicit alpha list has the wrong length")
        return arr
    if policy == "rank":
        arr = np.arange(1, count + 1, dtype=float)
    elif policy == "geometric":
        arr = ratio ** np.arange(count, dtype=float)
    else:
        raise ConfigError(f"unknown alpha policy {policy!r}")
    return arr / arr.sum()


@dataclass
class UserLink:
    """One terminal after SIC ordering, with everything a design needs."""

    region: int
    rank: int  # position in the SIC order, 0 = strongest
    channel: ChannelVector
    alpha: float
    eta: float
    gamma_lin: float
    outage_prob: float
    sigma_rad: float
    phase_cov: np.ndarray | None = None

    @property
    def phase_model(self) -> PhaseErrorModel:
        return PhaseErrorModel(self.sigma_rad, self.phase_cov)


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

    def region_users(self, m: int):
        return [u for u in self.users if u.region == m]

    def region_alpha_total(self, m: int) -> float:
        return float(sum(u.alpha for u in self.region_users(m)))

    def intra_weight(self, user: UserLink) -> float:
        """t1: stronger-rank splits at weight one plus eta-weighted weaker ranks."""
        same = self.region_users(user.region)
        t1 = 0.0
        for other in same:
            if other.rank < user.rank:
                t1 += other.alpha
            elif other.rank > user.rank:
                t1 += user.eta * other.alpha
        return t1

    def with_gamma_db(self, gamma_db) -> "Scenario":
        vals = _as_list(gamma_db, len(self.users), "gamma_db")
        users = [
            replace(u, gamma_lin=10.0 ** (float(g) / 10.0))
            for u, g in zip(self.users, vals)
        ]
        return replace(self, users=users)

    def with_sigma_deg(self, sigma_deg) -> "Scenario":
        vals = _as_list(sigma_deg, len(self.users), "sigma_deg")
        users = [
            replace(u, sigma_rad=np.deg2rad(float(s)))
            for u, s in zip(self.users, vals)
        ]
        return replace(self, users=users)

    def with_eta(self, eta) -> "Scenario":
        vals = _as_list(eta, len(self.users), "eta")
        users = [replace(u, eta=float(e)) for u, e in zip(self.users, vals)]
        return replace(self, users=users)

    def with_outage(self, p) -> "Scenario":
        vals = _as_list(p, len(self.users), "outage_prob")
        users = [replace(u, outage_prob=float(v)) for u, v in zip(self.users, vals)]
        return replace(self, users=users)


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


def offaxis_angle(ground_a: np.ndarray, ground_b: np.ndarray, altitude: float):
    """Angle at the satellite between the directions to two ground points."""
    va = np.concatenate([np.atleast_1d(ground_a).ravel(), [-altitude]])
    vb = np.concatenate([np.atleast_1d(ground_b).ravel(), [-altitude]])
    cosang = va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


def build_scenario(config: NetworkConfig) -> Scenario:
    """Draw one reproducible scenario from the configuration."""
    from .network import sic_order  # local import to avoid a cycle

    config.validate()
    k, m = config.feeds, config.beams
    users_per = config.users_per_region_list()
    total_users = sum(users_per)

    ss = np.random.SeedSequence(config.seed)
    rng_users, rng_rain, rng_phase = [np.random.default_rng(s) for s in ss.spawn(3)]

    angle3 = np.deg2rad(config.angle_3db_deg)
    footprint = config.altitude_m * np.tan(angle3)
    centers = hex_lattice(m, 2.0 * footprint)

    feeds_per_beam = k // m
    feed_pos = []
    for bm in range(m):
        if feeds_per_beam == 1:
            feed_pos.append(centers[bm])
            continue
        ring = 0.5 * footprint
        for i in range(feeds_per_beam):
            phi = 2.0 * np.pi * i / feeds_per_beam
            feed_pos.append(centers[bm] + ring * np.array([np.cos(phi), np.sin(phi)]))
    feed_pos = np.array(feed_pos)
    feed_beam = np.repeat(np.arange(m), feeds_per_beam)

    budget = config.link_budget()
    budget.validate()
    c_gain = large_scale_gain(budget)
    patterns = [
        BeamPattern(10.0 ** (config.sat_gain_dbi / 10.0), angle3) for _ in range(m)
    ]
    rain = RainModel(config.rain_mean_db, config.rain_var_db2)
    sigma = np.deg2rad(config.phase_sigma_deg)

    gammas = _as_list(config.gamma_db, total_users, "gamma_db")
    outages = _as_list(config.outage_prob, total_users, "outage_prob")
    etas = _as_list(config.sic_eta, total_users, "sic_eta")

    users = []
    flat = 0
    for bm in range(m):
        channels = []
        for _ in range(users_per[bm]):
            # uniform position inside the beam footprint disc
            radius = footprint * np.sqrt(rng_users.uniform())
            theta = rng_users.uniform(0.0, 2.0 * np.pi)
            pos = centers[bm] + radius * np.array([np.cos(theta), np.sin(theta)])
            angles = np.array(
                [offaxis_angle(feed_pos[i], pos, config.altitude_m) for i in range(k)]
            )
            gains = np.array(
                [beam_gain(patterns[feed_beam[i]], angles[i]) for i in range(k)]
            )
            rain_amp = sample_rain(rain, k, rng_rain)
            phases = rng_phase.uniform(0.0, 2.0 * np.pi, size=k)
            channels.append(assemble_channel(c_gain, gains, rain_amp, phases))
        order = sic_order(channels)
        alphas = power_split(
            config.alpha_policy,
            users_per[bm],
            config.alpha_ratio,
            None if config.alpha_explicit is None else config.alpha_explicit[bm],
        )
        for rank, src in enumerate(order):
            users.append(
                UserLink(
                    region=bm,
                    rank=rank,
                    channel=channels[src],
                    alpha=float(alphas[rank]),
                    eta=float(etas[flat + rank]),
                    gamma_lin=10.0 ** (float(gammas[flat + rank]) / 10.0),
                    outage_prob=float(outages[flat + rank]),
                    sigma_rad=sigma,
                    phase_cov=config.phase_cov,
                )
            )
        flat += users_per[bm]
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


def read_channels(path):
    """Parse the columnar ensemble back into per-terminal ChannelVectors."""
    rows = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            key = (int(parts[0]), int(parts[1]))
            rows.setdefault(key, []).append([float(v) for v in parts[2:]])
    out = {}
    for key, feed_rows in rows.items():
        feed_rows.sort(key=lambda r: r[0])
        arr = np.array(feed_rows)
        est = arr[:, 1] + 1j * arr[:, 2]
        out[key] = ChannelVector(est, float(arr[0, 3]), arr[:, 4], arr[:, 5])
    return out
