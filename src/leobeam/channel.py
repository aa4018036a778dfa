"""Multi-beam LEO downlink channel model.

A channel vector toward one terminal collects, per satellite feed, the
large-scale fading gain, the tapered-aperture beam pattern gain, a lognormal
rain attenuation, and a unit-modulus phasor.  Only the phase is uncertain at
design time: the estimated phase vector is perturbed by a Gaussian error with
per-terminal variance and normalized covariance.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .numerics import bessel_j

# u at which the tapered-aperture pattern drops to half power.
_HALF_POWER_U = 2.07123


LIGHT_SPEED = 3.0e8  # m/s
BOLTZMANN = 1.38e-23  # J/K
NOISE_TEMP_K = 300.0  # G/T fixes the rx gain, so the temperature cancels


def large_scale_gain(carrier_hz, distance_m, g_over_t_db, bandwidth_hz) -> float:
    """Free-space loss times rx gain over noise normalization kappa*B*T."""
    rx_gain = 10.0 ** (g_over_t_db / 10.0) * NOISE_TEMP_K
    fsl = (LIGHT_SPEED / (4.0 * np.pi * carrier_hz * distance_m)) ** 2
    return fsl * rx_gain / (BOLTZMANN * bandwidth_hz * NOISE_TEMP_K)


@dataclass(frozen=True)
class BeamPattern:
    """Tapered-aperture radiation pattern of one spot beam."""

    max_gain: float  # linear
    angle_3db: float  # radians


def beam_gain(pattern: BeamPattern, angle):
    """Beam gain toward an off-boresight angle (radians; scalar or array).

    G * (J1(u)/(2u) + 36 J3(u)/u^3)^2 with u = 2.07123 sin(angle)/sin(angle_3db).
    The u -> 0 limit of the bracket is 1/4 + 3/4 = 1, so boresight returns
    exactly the maximum gain.
    """
    ang = np.asarray(angle, dtype=float)
    scalar = ang.ndim == 0
    ang = np.atleast_1d(ang)
    u = _HALF_POWER_U * np.sin(ang) / np.sin(pattern.angle_3db)
    out = np.empty_like(u)
    small = np.abs(u) < 1e-8
    out[small] = 1.0
    ub = u[~small]
    if ub.size:
        j1 = bessel_j(1, ub)
        j3 = bessel_j(3, ub)
        out[~small] = (j1 / (2.0 * ub) + 36.0 * j3 / ub**3) ** 2
    out = pattern.max_gain * out
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class RainModel:
    """Lognormal rain attenuation, parameterized by the dB-domain moments.

    mean_db is the mean of the (negative) attenuation; the sampled positive
    loss L_dB is moment-matched so that -L_dB has mean mean_db and variance
    var_db2.  Rain never amplifies, so amplitude factors stay in (0, 1].
    """

    mean_db: float = -2.6
    var_db2: float = 1.63

    def __post_init__(self):
        if not self.var_db2 >= 0:  # a NaN fails too
            raise ConfigError("rain variance must be nonnegative")
        if not self.mean_db <= 0:
            raise ConfigError("rain mean attenuation must be <= 0 dB")
        if self.mean_db == 0 and self.var_db2 > 0:
            raise ConfigError("zero-mean rain with positive variance is not lognormal")

    def lognormal_params(self):
        """(m, s) with ln L_dB ~ N(m, s^2) for the positive loss L_dB."""
        mu = -self.mean_db
        if mu == 0:
            return None
        s2 = np.log1p(self.var_db2 / mu**2)
        return np.log(mu) - 0.5 * s2, np.sqrt(s2)


def sample_rain(model: RainModel, shape, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. amplitude attenuation factors: ``shape`` feeds, or (T, K) for T
    terminals, whose rows are the draws of T successive calls with K."""
    params = model.lognormal_params()
    if params is None:
        return np.ones(shape)
    m, s = params
    loss_db = np.exp(m + s * rng.standard_normal(shape))
    return 10.0 ** (-loss_db / 20.0)


@dataclass(frozen=True)
class PhaseErrorModel:
    """Gaussian phase error: e ~ N(0, sigma^2 C) with unit-diagonal C, checked
    and factored when made.  ``cov`` is a read-only float copy of C's
    symmetric part, so a caller changing its own array changes neither the
    model, its check nor its factor."""

    sigma_rad: float
    cov: np.ndarray | None = None  # None means identity
    _fac: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.sigma_rad >= 0:  # a NaN fails too
            raise ConfigError("phase error std dev must be nonnegative")
        if self.cov is None:
            return
        c = np.asarray(self.cov, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ConfigError("phase covariance must be square")
        c = 0.5 * (c + c.T)
        c.flags.writeable = False
        object.__setattr__(self, "cov", c)
        if not np.allclose(np.diag(c), 1.0, atol=1e-10):
            raise ConfigError("phase covariance must have unit diagonal")
        if np.linalg.eigvalsh(c).min() < -1e-10:
            raise ConfigError("phase covariance must be PSD")
        try:
            fac = np.linalg.cholesky(c)
        except np.linalg.LinAlgError:  # singular C
            vals, vecs = np.linalg.eigh(c)
            fac = vecs * np.sqrt(np.clip(vals, 0.0, None))
        fac.flags.writeable = False
        object.__setattr__(self, "_fac", fac)

    def sized_cov(self, feeds: int) -> np.ndarray | None:
        """C, after checking that it has one row per feed; None for the identity."""
        if self.cov is not None and len(self.cov) != feeds:
            raise ConfigError("phase covariance size must match feed count")
        return self.cov

    def factor(self, feeds: int) -> np.ndarray | None:
        """Cholesky-type factor L with C = L L' (read-only, computed when the
        model was made), after the size check; None for the identity."""
        self.sized_cov(feeds)
        return self._fac


def sample_phase_error(
    model: PhaseErrorModel,
    feeds: int,
    rng: np.random.Generator,
    draws: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Phase-error vectors (radians): one of length ``feeds``, or ``draws`` rows.

    A caller drawing repeatedly may pass ``out``, a C-contiguous float array
    of the draws' shape that receives the standard normals.  The result is
    written in place where it can be; use the returned array.
    """
    fac = model.factor(feeds)
    nu = rng.standard_normal(feeds if draws is None else (draws, feeds), out=out)
    if fac is not None:
        nu = nu @ fac.T
    return np.multiply(model.sigma_rad, nu, out=nu)


def unit_phasors(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(j theta) written into the complex array ``out`` of theta's shape,
    from one tan per entry instead of a cos and a sin.

    With t = tan(theta/2) and r = 2/(1 + t^2), cos theta = r - 1 and
    sin theta = t r; theta/2 is formed as 0.5 theta, which is exact.  Each
    component is within a few 1e-16 of cos and sin, also near theta = +-pi,
    where t is huge and r tiny; theta = 0 or -0 gives exactly 1 + 0j and a
    NaN or infinite theta a NaN.  theta is overwritten with t and then r:
    numpy's loops are fastest on contiguous operands, so t is copied to
    ``out.imag`` and only the last two passes write the strided views of
    ``out``.
    """
    t = np.tan(np.multiply(theta, 0.5, out=theta), out=theta)
    re, im = out.real, out.imag
    np.copyto(im, t)
    r = np.multiply(t, t, out=theta)
    np.add(r, 1.0, out=r)
    np.divide(2.0, r, out=r)
    np.multiply(im, r, out=im)
    np.subtract(r, 1.0, out=re)
    return out


def expected_phase_matrix(model: PhaseErrorModel, feeds: int) -> np.ndarray:
    """E[q q^H] for the phasor q = exp(j e): unit diagonal, damped off-diagonals.

    Entry (l, s) is the characteristic function of e_l - e_s at 1:
    exp(-sigma^2 (C_ll + C_ss - 2 C_ls) / 2), i.e. exp(-sigma^2) when C = I.
    The matrix is real symmetric and PSD (entrywise exp of a PSD matrix).
    """
    s2 = model.sigma_rad**2
    c = model.sized_cov(feeds)
    if c is None:
        out = np.full((feeds, feeds), np.exp(-s2))
    else:
        d = np.diag(c)
        var = d[:, None] + d[None, :] - 2.0 * c
        out = np.exp(-0.5 * s2 * var)
    np.fill_diagonal(out, 1.0)
    return out


@dataclass(frozen=True)
class ChannelVector:
    """Estimated downlink channel toward one terminal, with its amplitude parts.

    |estimated[k]|^2 = large_scale * beam_gains[k] * rain_power[k] exactly.
    """

    estimated: np.ndarray  # complex, per feed
    large_scale: float
    beam_gains: np.ndarray  # linear power gain per feed
    rain_power: np.ndarray  # power attenuation factor per feed, in (0, 1]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.estimated))


def assemble_channel(
    large_scale: float,
    beam_gains: np.ndarray,
    rain_amplitude: np.ndarray,
    phases: np.ndarray,
) -> ChannelVector:
    """Compose amplitude factors and estimated phases into a channel vector."""
    beam_gains = np.asarray(beam_gains, dtype=float)
    rain_amplitude = np.asarray(rain_amplitude, dtype=float)
    phases = np.asarray(phases, dtype=float)
    if not (beam_gains.shape == rain_amplitude.shape == phases.shape):
        raise ConfigError("per-feed component vectors must share one length")
    amp = np.sqrt(large_scale) * np.sqrt(beam_gains) * rain_amplitude
    est = amp * np.exp(1j * phases)
    return ChannelVector(est, float(large_scale), beam_gains, rain_amplitude**2)

