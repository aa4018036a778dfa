"""Cone block primitives for the interior-point solver.

Blocks are nonnegative orthants, second-order cones, and real PSD cones.
PSD blocks live in scaled-vector (svec) coordinates: upper triangle with
off-diagonal entries multiplied by sqrt(2), so that the Euclidean inner
product of two svecs equals the trace inner product of the matrices.
"""

from dataclasses import dataclass

import numpy as np

NONNEG = "nonneg"
SOC = "soc"
PSD = "psd"


@dataclass(frozen=True)
class ConeBlock:
    kind: str
    size: int  # vector length for nonneg/soc, matrix order for psd

    @property
    def veclen(self) -> int:
        if self.kind == PSD:
            return self.size * (self.size + 1) // 2
        return self.size

    @property
    def degree(self) -> int:
        # Barrier degree consistent with the Jordan identity elements below:
        # e'e = dim (nonneg), 1 (soc), d (psd).
        if self.kind == NONNEG:
            return self.size
        if self.kind == SOC:
            return 1
        return self.size


def _triu_cache(d, _cache={}):
    if d not in _cache:
        iu = np.triu_indices(d)
        sc = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
        _cache[d] = (iu, sc)
    return _cache[d]


def svec(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    iu, sc = _triu_cache(d)
    return mat[iu] * sc


def smat(v: np.ndarray, d: int) -> np.ndarray:
    iu, sc = _triu_cache(d)
    out = np.zeros((d, d))
    out[iu] = v / sc
    out = out + out.T
    out[np.diag_indices(d)] *= 0.5
    return out


def smat_batch(v: np.ndarray, d: int) -> np.ndarray:
    """(ncols, veclen) -> (ncols, d, d)."""
    iu, sc = _triu_cache(d)
    out = np.zeros((v.shape[0], d, d))
    out[:, iu[0], iu[1]] = v / sc
    out = out + np.transpose(out, (0, 2, 1))
    out[:, np.arange(d), np.arange(d)] *= 0.5
    return out


def svec_batch(mats: np.ndarray) -> np.ndarray:
    d = mats.shape[-1]
    iu, sc = _triu_cache(d)
    return mats[:, iu[0], iu[1]] * sc


def identity_element(block: ConeBlock) -> np.ndarray:
    if block.kind == NONNEG:
        return np.ones(block.size)
    if block.kind == SOC:
        e = np.zeros(block.size)
        e[0] = 1.0
        return e
    return svec(np.eye(block.size))


def interior_margin(block: ConeBlock, v: np.ndarray) -> float:
    """Distance-to-boundary proxy; positive iff strictly interior."""
    if block.kind == NONNEG:
        return float(v.min()) if v.size else np.inf
    if block.kind == SOC:
        return float(v[0] - np.linalg.norm(v[1:]))
    return float(np.linalg.eigvalsh(smat(v, block.size)).min())


def max_step(block: ConeBlock, x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still in the cone (x strictly inside)."""
    if block.kind == NONNEG:
        neg = dx < 0
        if not neg.any():
            return np.inf
        return float((-x[neg] / dx[neg]).min())
    if block.kind == SOC:
        a = dx[0] ** 2 - dx[1:] @ dx[1:]
        b = 2.0 * (x[0] * dx[0] - x[1:] @ dx[1:])
        c = x[0] ** 2 - x[1:] @ x[1:]
        roots = []
        if abs(a) < 1e-14 * max(1.0, abs(b), abs(c)):
            if b < 0:
                roots.append(-c / b)
        else:
            disc = b * b - 4 * a * c
            if disc >= 0:
                sq = np.sqrt(disc)
                q = -0.5 * (b + np.copysign(sq, b)) if b != 0 else np.sqrt(max(-a * c, 0.0))
                if q != 0:
                    roots.extend([q / a, c / q])
                else:
                    roots.append(0.0)
        pos = [r for r in roots if r > 0]
        return float(min(pos)) if pos else np.inf
    # psd
    d = block.size
    xm = smat(x, d)
    dm = smat(dx, d)
    ch = np.linalg.cholesky(xm)
    g = np.linalg.solve(ch, np.linalg.solve(ch, dm).T).T
    g = 0.5 * (g + g.T)
    lam_min = np.linalg.eigvalsh(g)[0]
    if lam_min >= 0:
        return np.inf
    return float(-1.0 / lam_min)


def jordan_mul(block: ConeBlock, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if block.kind == NONNEG:
        return a * b
    if block.kind == SOC:
        out = np.empty_like(a)
        out[0] = a @ b
        out[1:] = a[0] * b[1:] + b[0] * a[1:]
        return out
    d = block.size
    am, bm = smat(a, d), smat(b, d)
    return svec(0.5 * (am @ bm + bm @ am))


class _NonnegScaling:
    def __init__(self, block, x, z):
        self.block = block
        self.w = np.sqrt(x / z)
        self.lam = np.sqrt(x * z)

    def apply_W(self, v):
        return self.w * v

    def apply_WinvT(self, v):
        return v / self.w

    def apply_Winv(self, v):
        return v / self.w

    def apply_H(self, v):
        return self.w * self.w * v

    def apply_W_cols(self, cols):
        return self.w[None, :] * cols

    def lam_div(self, d):
        return d / self.lam


class _SocScaling:
    # W = beta * Hyp(wbar) with the hyperbolic Householder matrix
    # Hyp(w) = [[w0, w1'], [w1, I + w1 w1'/(1+w0)]]; Hyp(w)^2 = 2 w w' - J.
    def __init__(self, block, x, z):
        self.block = block
        # Product form avoids cancellation when the iterate hugs the boundary.
        jx = (x[0] - np.linalg.norm(x[1:])) * (x[0] + np.linalg.norm(x[1:]))
        jz = (z[0] - np.linalg.norm(z[1:])) * (z[0] + np.linalg.norm(z[1:]))
        if jx <= 0 or jz <= 0:
            raise FloatingPointError("second-order cone iterate left the interior")
        xb = x / np.sqrt(jx)
        zb = z / np.sqrt(jz)
        gamma = np.sqrt(0.5 * (1.0 + xb @ zb))
        wbar = xb.copy()
        wbar[0] += zb[0]
        wbar[1:] -= zb[1:]
        wbar /= 2.0 * gamma
        self.wbar = wbar
        self.beta = (jx / jz) ** 0.25
        self.lam = self.apply_W(z)

    def _J(self, v):
        out = -v
        out[..., 0] = v[..., 0]
        return out

    def _hyp(self, v):
        # v: (dim,) or (dim, ncols)
        w0, w1 = self.wbar[0], self.wbar[1:]
        out = np.empty_like(v)
        out[0] = w0 * v[0] + w1 @ v[1:]
        out[1:] = (
            np.multiply.outer(w1, v[0])
            + v[1:]
            + np.multiply.outer(w1, w1 @ v[1:]) / (1.0 + w0)
        )
        return out

    def apply_W(self, v):
        return self.beta * self._hyp(v)

    def apply_Winv(self, v):
        return self._J(self._hyp(self._J(v))) / self.beta

    apply_WinvT = apply_Winv  # W is symmetric

    def apply_H(self, v):
        # W^2 = beta^2 (2 wbar wbar' - J)
        return self.beta**2 * (2.0 * self.wbar * (self.wbar @ v) - self._J(v))

    def apply_W_cols(self, cols):
        # cols: (ncols, dim); W is symmetric, so cols W = (W cols')'
        return self.beta * self._hyp(cols.T).T

    def lam_div(self, dvec):
        lam = self.lam
        det = lam[0] ** 2 - lam[1:] @ lam[1:]
        u0 = (lam[0] * dvec[0] - lam[1:] @ dvec[1:]) / det
        out = np.empty_like(dvec)
        out[0] = u0
        out[1:] = (dvec[1:] - u0 * lam[1:]) / lam[0]
        return out


class _PsdScaling:
    def __init__(self, block, x, z):
        self.block = block
        d = block.size
        xm = smat(x, d)
        zm = smat(z, d)
        l1 = np.linalg.cholesky(xm)
        l2 = np.linalg.cholesky(zm)
        u, s, vt = np.linalg.svd(l2.T @ l1)
        si = 1.0 / np.sqrt(s)
        self.R = l1 @ vt.T * si[None, :]
        self.RmT = l2 @ u * si[None, :]  # R^{-T}
        self.Rm = self.RmT.T  # R^{-1}
        self.T = self.R @ self.R.T
        self.sig = s
        self.lam = svec(np.diag(s))

    def apply_W(self, v):
        return svec(self.R.T @ smat(v, self.block.size) @ self.R)

    def apply_WinvT(self, v):
        return svec(self.Rm @ smat(v, self.block.size) @ self.RmT)

    def apply_Winv(self, v):
        return svec(self.RmT @ smat(v, self.block.size) @ self.Rm)

    def apply_H(self, v):
        return svec(self.T @ smat(v, self.block.size) @ self.T)

    def apply_W_cols(self, cols):
        mats = smat_batch(cols, self.block.size)
        return svec_batch(self.R.T @ mats @ self.R)

    def lam_div(self, dvec):
        d = self.block.size
        dm = smat(dvec, d)
        denom = 0.5 * (self.sig[:, None] + self.sig[None, :])
        return svec(dm / denom)


def nt_scaling(block: ConeBlock, x: np.ndarray, z: np.ndarray):
    if block.kind == NONNEG:
        return _NonnegScaling(block, x, z)
    if block.kind == SOC:
        return _SocScaling(block, x, z)
    return _PsdScaling(block, x, z)
