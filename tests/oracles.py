"""Independent oracles used by the test suite.

These deliberately take different routes from the production code: arbitrary
precision series for the Bessel functions, a dense LAPACK eigendecomposition
for eigenpairs, a first-order ADMM method for cone programs, the Schur
complement from one dense G = A W' over every column, the real
[[A, -B], [B, A]] embedding of Hermitian PSD variables, the outage program
with Q on all K^2 coordinates of vec(Q), Monte-Carlo evaluation with
every sample held at once, scenario assembly one terminal and one feed at a
time, the SINR forms region by region with their own SIC rank loop, and
svec/smat by fancy indexing on the upper triangle.
Expected values frozen into tests were computed with these routines.
"""

import mpmath
import numpy as np

mpmath.mp.dps = 60


def bessel_series_oracle(order: int, x: float, terms: int = 120) -> float:
    """Truncated ascending power series for J_order in 60-digit arithmetic."""
    half = mpmath.mpf(x) / 2
    total = mpmath.mpf(0)
    for k in range(terms):
        term = (-1) ** k * half ** (order + 2 * k) / (
            mpmath.factorial(k) * mpmath.factorial(k + order)
        )
        total += term
    return float(total)


def beam_pattern_oracle(u: float) -> float:
    """Direct evaluation of (J1(u)/(2u) + 36 J3(u)/u^3)^2 via the series oracle."""
    if u == 0.0:
        return 1.0
    j1 = bessel_series_oracle(1, u)
    j3 = bessel_series_oracle(3, u)
    return (j1 / (2.0 * u) + 36.0 * j3 / u**3) ** 2


def full_eig_oracle(m: np.ndarray):
    """Largest eigenpair from a full dense eigendecomposition."""
    vals, vecs = np.linalg.eigh(m)
    return vals[-1], vecs[:, -1]


# ---------------------------------------------------------------------------
# Real embedding of Hermitian matrices: a Hermitian PSD variable W of order K
# is equivalent to a real PSD block X = embed(W) of order 2K, with
# tr(D W) = tr(embed(D) X) / 2.
# ---------------------------------------------------------------------------


def embed_hermitian(m: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[A, -B], [B, A]] of a Hermitian A + jB.

    The embedding is PSD iff the source is, each source eigenvalue appears
    twice, and trace(embedded) = 2 trace(source).
    """
    m = np.asarray(m, dtype=complex)
    a, b = m.real, m.imag
    return np.block([[a, -b], [b, a]])


def hermitian_from_embedding(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`embed_hermitian`, projecting onto the structured part.

    For a general symmetric 2K x 2K input this returns the Hermitian matrix
    whose embedding is the orthogonal projection of the input onto the
    embedding subspace (divided by the duplication); trace functionals against
    embedded coefficients only see this part.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n % 2 != 0:
        raise ValueError("embedded matrix must have even dimension")
    k = n // 2
    a = 0.5 * (x[:k, :k] + x[k:, k:])
    b = 0.5 * (x[k:, :k] - x[:k, k:])
    a = 0.5 * (a + a.T)
    b = 0.5 * (b - b.T)
    return a + 1j * b


def random_hermitian(rng, k):
    """Random Hermitian matrix of order k with Gaussian entries."""
    g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return 0.5 * (g + g.conj().T)


def random_hermitian_program(rng):
    """Data of a random strictly feasible program over Hermitian PSD blocks.

    minimize sum_b tr(C_b W_b) + f'u  s.t.  sum_b tr(D_ib W_b) + a_i'u = r_i,
    W_b Hermitian PSD, u >= 0.  The rhs comes from a strictly interior
    (W0, u0) and the objective from a random y0 plus a strictly interior
    dual slack, so both sides satisfy Slater's condition.  Returns a dict
    with keys orders, n_nonneg, D (rows x blocks), a, rhs, C, f.
    """

    def interior(k):
        g = 0.3 * random_hermitian(rng, k)
        return g @ g + np.eye(k)

    orders = [int(k) for k in rng.integers(1, 5, size=int(rng.integers(1, 3)))]
    n_nonneg = int(rng.integers(0, 3))
    m = int(rng.integers(1, 1 + sum(k * k for k in orders)))
    D = [[random_hermitian(rng, k) for k in orders] for _ in range(m)]
    a = rng.normal(size=(m, n_nonneg))
    w0 = [interior(k) for k in orders]
    u0 = rng.uniform(0.5, 2.0, n_nonneg)
    rhs = np.array(
        [sum(np.trace(d @ w).real for d, w in zip(row, w0)) for row in D]
    ) + a @ u0
    y0 = rng.normal(size=m)
    C = [
        sum(y * row[j] for y, row in zip(y0, D)) + interior(k)
        for j, k in enumerate(orders)
    ]
    f = a.T @ y0 + rng.uniform(0.5, 2.0, n_nonneg)
    return {"orders": orders, "n_nonneg": n_nonneg, "D": D, "a": a,
            "rhs": rhs, "C": C, "f": f}


# ---------------------------------------------------------------------------
# First-order cone-program oracle: ADMM on  min c'x  s.t.  Ax = b, x in K.
# Splitting x = z with z projected onto K each sweep; the x-update is an
# equality-constrained quadratic solved through a prefactored KKT system.
# ---------------------------------------------------------------------------


def _proj_nonneg(v):
    return np.maximum(v, 0.0)


def _proj_soc(v):
    t, u = v[0], v[1:]
    nu = np.linalg.norm(u)
    if nu <= t:
        return v.copy()
    if nu <= -t:
        return np.zeros_like(v)
    a = 0.5 * (1.0 + t / nu)
    out = np.empty_like(v)
    out[0] = a * nu
    out[1:] = a * u
    return out


def _svec(mat):
    d = mat.shape[0]
    iu = np.triu_indices(d)
    scale = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
    return mat[iu] * scale


def _smat(v, d):
    iu = np.triu_indices(d)
    scale = np.where(iu[0] == iu[1], 1.0, 1.0 / np.sqrt(2.0))
    out = np.zeros((d, d))
    out[iu] = v * scale
    out = out + out.T - np.diag(np.diag(out))
    return out


def _proj_psd(v, d):
    m = _smat(v, d)
    vals, vecs = np.linalg.eigh(m)
    vals = np.maximum(vals, 0.0)
    return _svec((vecs * vals) @ vecs.T)


def project_cone(v, cones):
    """Euclidean projection onto a product cone; cones as (kind, size) pairs
    where size is the matrix order for "psd" and the vector length otherwise."""
    out = np.empty_like(v)
    pos = 0
    for kind, size in cones:
        ln = size * (size + 1) // 2 if kind == "psd" else size
        seg = v[pos : pos + ln]
        if kind == "nonneg":
            out[pos : pos + ln] = _proj_nonneg(seg)
        elif kind == "soc":
            out[pos : pos + ln] = _proj_soc(seg)
        elif kind == "psd":
            out[pos : pos + ln] = _proj_psd(seg, size)
        else:
            raise ValueError(kind)
        pos += ln
    return out


def random_feasible_problem(rng):
    """Random mixed-cone program with a strictly feasible primal-dual pair.

    b is built from a strictly interior x0 and c from a random y0 plus a
    strictly interior z0, so both sides satisfy Slater's condition.  Returns
    (problem, cones-as-(kind,size)-pairs).
    """
    from leobeam.conic import ConeBlock, ConicProblem
    from leobeam.conic.cones import identity_element, interior_margin

    kinds = []
    for _ in range(int(rng.integers(1, 4))):
        k = str(rng.choice(["nonneg", "soc", "psd"]))
        if k == "nonneg":
            size = int(rng.integers(1, 6))
        elif k == "soc":
            size = int(rng.integers(2, 6))
        else:
            size = int(rng.integers(2, 4))
        kinds.append((k, size))
    blocks = [ConeBlock(k, s) for k, s in kinds]
    slices = []
    pos = 0
    for blk in blocks:
        slices.append(slice(pos, pos + blk.veclen))
        pos += blk.veclen
    n = pos
    m = int(rng.integers(1, max(2, n // 2 + 1)))
    A = rng.normal(size=(m, n))
    x0 = np.concatenate([identity_element(b) for b in blocks])
    pert = rng.normal(size=n) * 0.1
    while min(
        interior_margin(b, (x0 + pert)[sl]) for b, sl in zip(blocks, slices)
    ) <= 0.05:
        pert *= 0.5
    b_vec = A @ (x0 + pert)
    y0 = rng.normal(size=m)
    z0 = x0 + rng.normal(size=n) * 0.1
    while min(interior_margin(b, z0[sl]) for b, sl in zip(blocks, slices)) <= 0.05:
        z0 = x0 + (z0 - x0) * 0.5
    c = A.T @ y0 + z0
    return ConicProblem(c, A, b_vec, blocks), kinds


def solve_conic_admm(c, A, b, cones, rho=1.0, iters=40000, over_relax=1.7, tol=1e-10):
    """First-order oracle for small strictly feasible cone programs.

    Returns (x, objective, pres, dres).  Stops once the primal residual
    ||x - z|| / (1 + ||z||) and the dual residual rho ||z - z_prev|| /
    (1 + ||c||) are both at most ``tol``, or after ``iters`` iterations;
    the final residuals are returned so that callers can assert the stop
    was a converged one (a fixed point of the iteration is optimal).
    """
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    m, n = A.shape
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = rho * np.eye(n)
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    kkt_inv = np.linalg.inv(kkt)
    z = project_cone(np.zeros(n), cones)
    u = np.zeros(n)
    c_scale = 1.0 + np.linalg.norm(c)
    pres = dres = np.inf
    for _ in range(iters):
        rhs = np.concatenate([rho * (z - u) - c, b])
        x = (kkt_inv @ rhs)[:n]
        xh = over_relax * x + (1.0 - over_relax) * z
        z_prev = z
        z = project_cone(xh + u, cones)
        u = u + xh - z
        pres = np.linalg.norm(x - z) / (1.0 + np.linalg.norm(z))
        dres = rho * np.linalg.norm(z - z_prev) / c_scale
        if pres <= tol and dres <= tol:
            break
    return z, float(c @ z), float(pres), float(dres)


# ---------------------------------------------------------------------------
# Schur complement S = A H A' the direct way: every block's rows as dense
# operands, one G = A W' over all columns in cone order, then S = G G'.
# ---------------------------------------------------------------------------


def dense_schur(cones, A, scalings):
    """S = G G' with G = A W' on every column (H = W'W per block)."""
    from leobeam.conic.cones import PSD, smat

    G = np.empty(A.shape)
    pos = 0
    for blk, sc in zip(cones, scalings):
        sl = slice(pos, pos + blk.veclen)
        cols = A[:, sl]
        G[:, sl] = sc.apply_W_cols(smat(cols, blk.size) if blk.kind == PSD else cols)
        pos += blk.veclen
    return G @ G.T


# ---------------------------------------------------------------------------
# Outage program in the vec(Q) layout: the Q cone holds all K^2 entries of Q,
# so each off-diagonal Q_kl = Q_lk has its own coupling row.  The norm is the
# same ||Q||_F, so the optimum equals that of the svec layout.
# ---------------------------------------------------------------------------


def vecq_outage_problem(scenario):
    """``OutageProblem`` whose Q cone has K^2 + 1 coordinates and K^2 rows."""
    from leobeam.conic.cones import smat
    from leobeam.robust_outage import (
        OutageProblem,
        margin_form,
        margin_scalars,
        mu_from_outage,
        taylor_terms,
    )

    class VecQOutageProblem(OutageProblem):
        def add_terminal_rows(self, idx, user):
            scenario, bld = self.scenario, self.builder
            k = scenario.feeds
            n = k * k  # svec length of W_j and length of vec(Q)
            z = margin_form(user, smat(np.eye(n), k))
            q, r = taylor_terms(user, z, user.phase_model.factor(k))
            q = q.reshape(n, n)
            lin = q[:, :: k + 1].sum(axis=1) + z.reshape(n, n).sum(axis=1).real
            betas = margin_scalars(scenario, user)
            mu = mu_from_outage(user.outage_prob)
            g2 = 2.0 * np.sqrt(np.log(1.0 / user.outage_prob))
            r_soc = bld.add_soc(k + 1)
            q_soc = bld.add_soc(n + 1)
            terms = [(ref, beta * lin) for ref, beta in zip(self.w_refs, betas)]
            terms += [(r_soc, {0: -g2}), (q_soc, {0: -g2}), (self.row_slack, {idx: -1.0})]
            bld.add_eq(terms, scenario.noise_power)
            terms = [(ref, -beta * r.T / np.sqrt(2.0)) for ref, beta in zip(self.w_refs, betas)]
            bld.add_eq(terms + [(r_soc, np.eye(k, k + 1, 1))], np.zeros(k))
            terms = [(ref, -beta * mu * q.T) for ref, beta in zip(self.w_refs, betas)]
            bld.add_eq(terms + [(q_soc, np.eye(n, n + 1, 1))], np.zeros(n))

    return VecQOutageProblem(scenario)


# ---------------------------------------------------------------------------
# Monte-Carlo evaluation with every sample held at once: one (samples, K)
# phase draw per terminal, one complex channel array, one SINR call.  The
# chunked evaluator must reproduce its reports bit for bit.
# ---------------------------------------------------------------------------


def whole_array_evaluate(design, scenario, samples, seed):
    """``evaluate`` drawing and scoring each terminal's samples in one piece."""
    from leobeam.evaluator import EvalReport
    from leobeam.network import sinr_samples

    users = scenario.users
    streams = np.random.SeedSequence(seed).spawn(len(users))
    k = scenario.feeds
    means, se_m, outs, se_o, targets = [], [], [], [], []
    tdma = design.algorithm == "tdma"
    for idx, user in enumerate(users):
        rng = np.random.default_rng(streams[idx])
        model = user.phase_model
        nu = rng.standard_normal((samples, k))
        fac = model.factor(k)
        if fac is not None:
            nu = nu @ fac.T
        errs = model.sigma_rad * nu
        h = user.channel.estimated[None, :] * np.exp(1j * errs)
        if tdma:
            w = design.beams[:, idx]
            gammas = np.abs(h.conj() @ w) ** 2 / scenario.noise_power
            target = design.metadata["slot_gamma_lin"][idx]
        else:
            gammas = sinr_samples(user, h, design, scenario)
            target = user.gamma_lin
        mean = float(gammas.mean())
        out = float(np.mean(gammas < target))
        means.append(mean)
        se_m.append(float(gammas.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0)
        outs.append(out)
        se_o.append(float(np.sqrt(out * (1.0 - out) / samples)))
        targets.append(target)
    return EvalReport(
        regions=[u.region for u in users],
        ranks=[u.rank for u in users],
        mean_sinr=np.array(means),
        se_mean=np.array(se_m),
        outage=np.array(outs),
        se_outage=np.array(se_o),
        gamma_target=np.array(targets),
        samples=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Scenario assembly one terminal and one feed at a time: one scalar angle and
# gain per (terminal, feed) pair, one beam pattern per beam, and one draw per
# terminal from each substream.  The array assembly must reproduce it bit for
# bit.
# ---------------------------------------------------------------------------


def scalar_offaxis_angle(ground_a, ground_b, altitude):
    """Angle at the satellite between the directions to two ground points."""
    va = np.concatenate([np.atleast_1d(ground_a).ravel(), [-altitude]])
    vb = np.concatenate([np.atleast_1d(ground_b).ravel(), [-altitude]])
    cosang = va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


def loop_build_scenario(config):
    """``build_scenario`` assembling each terminal's channel feed by feed."""
    from leobeam.channel import (
        BeamPattern,
        RainModel,
        assemble_channel,
        beam_gain,
        large_scale_gain,
    )
    from leobeam.network import sic_order
    from leobeam.scenario import Scenario, UserLink, _as_list, hex_lattice, power_split

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

    c_gain = large_scale_gain(
        config.carrier_hz, config.altitude_m, config.g_over_t_db, config.bandwidth_hz
    )
    patterns = [BeamPattern(10.0 ** (config.sat_gain_dbi / 10.0), angle3) for _ in range(m)]
    rain = RainModel(config.rain_mean_db, config.rain_var_db2)
    rain_params = rain.lognormal_params()
    sigma = np.deg2rad(config.phase_sigma_deg)

    gammas = _as_list(config.gamma_db, total_users, "gamma_db")
    outages = _as_list(config.outage_prob, total_users, "outage_prob")
    etas = _as_list(config.sic_eta, total_users, "sic_eta")

    links = []  # UserLink fields of every terminal but its weight row
    flat = 0
    for bm in range(m):
        channels = []
        for _ in range(users_per[bm]):
            radius = footprint * np.sqrt(rng_users.uniform())
            theta = rng_users.uniform(0.0, 2.0 * np.pi)
            pos = centers[bm] + radius * np.array([np.cos(theta), np.sin(theta)])
            angles = np.array(
                [scalar_offaxis_angle(feed_pos[i], pos, config.altitude_m) for i in range(k)]
            )
            gains = np.array([beam_gain(patterns[feed_beam[i]], angles[i]) for i in range(k)])
            if rain_params is None:
                rain_amp = np.ones(k)
            else:
                mu, s = rain_params
                rain_amp = 10.0 ** (-np.exp(mu + s * rng_rain.standard_normal(k)) / 20.0)
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
            links.append(
                dict(
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
    # Weight rows split by split: other regions and stronger ranks at one,
    # weaker ranks at eta, the terminal itself left out.
    users = []
    for link in links:
        row = np.zeros(m)
        for other in links:
            if other["region"] != link["region"] or other["rank"] < link["rank"]:
                row[other["region"]] += other["alpha"]
            elif other["rank"] > link["rank"]:
                row[other["region"]] += link["eta"] * other["alpha"]
        users.append(UserLink(**link, weights=row))
    return Scenario(config, users, feed_pos, centers)


# ---------------------------------------------------------------------------
# The SINR forms written region by region with their own SIC rank loop, as
# they were before the weight row: t1 from the terminal's region, t2 from
# every other.  The weight-row forms must reproduce them bit for bit.
# ---------------------------------------------------------------------------


def loop_intra_weight(scenario, user):
    """t1: stronger-rank splits at weight one plus eta-weighted weaker ranks."""
    t1 = 0.0
    for other in scenario.users:
        if other.region != user.region:
            continue
        if other.rank < user.rank:
            t1 += other.alpha
        elif other.rank > user.rank:
            t1 += user.eta * other.alpha
    return t1


def loop_region_alpha_total(scenario, m):
    """t2: the total split of region ``m``."""
    return float(sum(u.alpha for u in scenario.users if u.region == m))


def loop_avg_constraint_coeffs(scenario, user):
    """{region: G_j} and rhs of the average-SINR row."""
    from leobeam.channel import expected_phase_matrix

    h = user.channel.estimated
    d = np.outer(h, h.conj()) * expected_phase_matrix(user.phase_model, scenario.feeds)
    gamma = user.gamma_lin
    t1 = loop_intra_weight(scenario, user)
    coeffs = {}
    for j in range(scenario.beams):
        if j == user.region:
            coeffs[j] = (user.alpha - gamma * t1) * d
        else:
            coeffs[j] = -gamma * loop_region_alpha_total(scenario, j) * d
    return coeffs, gamma * scenario.noise_power


def loop_margin_scalars(scenario, user):
    """{region: beta_j} of the outage design's SINR margin form."""
    t1 = loop_intra_weight(scenario, user)
    out = {}
    for j in range(scenario.beams):
        if j == user.region:
            out[j] = user.alpha / user.gamma_lin - t1
        else:
            out[j] = -loop_region_alpha_total(scenario, j)
    return out


def loop_sinr_samples(user, h_samples, design, scenario):
    """SINR over sampled channels, own region's t1 first, then each t2."""
    m = user.region
    powers = np.abs(h_samples.conj() @ design.beams) ** 2
    denom = loop_intra_weight(scenario, user) * powers[:, m] + scenario.noise_power
    for j in range(scenario.beams):
        if j != m:
            denom = denom + loop_region_alpha_total(scenario, j) * powers[:, j]
    return user.alpha * powers[:, m] / denom


# ---------------------------------------------------------------------------
# svec / smat by fancy indexing on the upper triangle: the production pair
# gathers through cached flat indices and must match these byte for byte.
# ---------------------------------------------------------------------------


def _fancy_layout(d):
    iu = np.triu_indices(d)
    strict = iu[0] != iu[1]
    return iu, np.where(strict, np.sqrt(2.0), 1.0), np.flatnonzero(strict)


def fancy_svec(mat):
    """(..., d, d) -> (..., veclen); complex input takes the Hermitian layout."""
    iu, sc, strict = _fancy_layout(mat.shape[-1])
    up = mat[..., iu[0], iu[1]]
    if np.iscomplexobj(up):
        return np.concatenate([up.real * sc, up.imag[..., strict] * np.sqrt(2.0)], axis=-1)
    return up * sc


def fancy_smat(v, d):
    """(..., veclen) -> (..., d, d), complex when v has d^2 > d(d+1)/2 entries."""
    iu, sc, strict = _fancy_layout(d)
    nre = sc.size
    up = v[..., :nre] / sc
    if v.shape[-1] > nre:
        up = up.astype(complex)
        up[..., strict] += 1j * (v[..., nre:] / np.sqrt(2.0))
    out = np.empty(v.shape[:-1] + (d, d), dtype=up.dtype)
    out[..., iu[1], iu[0]] = up.conj()
    out[..., iu[0], iu[1]] = up
    return out
