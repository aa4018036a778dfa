"""Cone block primitives for the interior-point solver.

Blocks are nonnegative orthants, second-order cones, and PSD cones over
either field: real symmetric or complex Hermitian matrices.  PSD blocks live
in scaled-vector (svec) coordinates whose Euclidean inner product equals the
trace inner product tr(XY):

- real symmetric, order d: the upper triangle row by row with off-diagonal
  entries multiplied by sqrt(2), d(d+1)/2 coordinates;
- complex Hermitian, order d: the same coordinates of the real part,
  followed by sqrt(2) times the imaginary part of the strict upper
  triangle, d^2 coordinates.

``svec`` takes the field from the matrix dtype and ``smat`` from the vector
length (at d = 1 the two layouts coincide).  The matrix code below uses
conjugate transposes throughout, so one path serves both fields.
"""

from dataclasses import dataclass

import numpy as np

NONNEG = "nonneg"
SOC = "soc"
PSD = "psd"

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class ConeBlock:
    kind: str
    size: int  # vector length for nonneg/soc, matrix order for psd
    hermitian: bool = False  # psd only: complex Hermitian instead of real symmetric

    @property
    def veclen(self) -> int:
        if self.kind == PSD:
            return self.size**2 if self.hermitian else self.size * (self.size + 1) // 2
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


def _layout(d, _cache={}):
    """(upper-triangle indices, their svec scales, strict-upper positions in them)."""
    if d not in _cache:
        iu = np.triu_indices(d)
        strict = iu[0] != iu[1]
        _cache[d] = (iu, np.where(strict, _SQRT2, 1.0), np.flatnonzero(strict))
    return _cache[d]


def svec(mat: np.ndarray) -> np.ndarray:
    """(..., d, d) -> (..., veclen); complex input takes the Hermitian layout."""
    iu, sc, strict = _layout(mat.shape[-1])
    up = mat[..., iu[0], iu[1]]
    if np.iscomplexobj(up):
        return np.concatenate([up.real * sc, up.imag[..., strict] * _SQRT2], axis=-1)
    return up * sc


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """(..., veclen) -> (..., d, d), complex when v has d^2 > d(d+1)/2 entries."""
    iu, sc, strict = _layout(d)
    nre = sc.size
    up = v[..., :nre] / sc
    if v.shape[-1] > nre:
        up = up.astype(complex)
        up[..., strict] += 1j * (v[..., nre:] / _SQRT2)
    out = np.empty(v.shape[:-1] + (d, d), dtype=up.dtype)
    out[..., iu[1], iu[0]] = up.conj()
    out[..., iu[0], iu[1]] = up
    return out


def identity_element(block: ConeBlock) -> np.ndarray:
    if block.kind == NONNEG:
        return np.ones(block.size)
    if block.kind == SOC:
        e = np.zeros(block.size)
        e[0] = 1.0
        return e
    return svec(np.eye(block.size, dtype=complex if block.hermitian else float))


@dataclass(frozen=True)
class PsdRows:
    """One PSD block's rows of A, held in two forms.

    A row whose block part has a single upper-triangle entry (k, l), such as
    a feed cap's diagonal entry or an off-diagonal Q row of the outage
    program, is held as (row, k, l, coefficient).  Every other row is a
    (d, d) matrix in ``stack``.
    """

    stacked: np.ndarray  # row indices of ``stack``
    stack: np.ndarray  # (len(stacked), d, d)
    single: np.ndarray  # row indices held as one entry
    k: np.ndarray
    l: np.ndarray
    coef: np.ndarray  # entry (k, l); (l, k) holds its conjugate

    def write_W_cols(self, scaling, out, spare):
        """out[i] = row i through ``scaling.apply_W_cols``, for every row.

        The one-entry rows are expanded into ``spare``, a zero stack of at
        least ``len(single)`` (d, d) matrices of the block's field, which
        is zero again on return.  Each stacked matmul is one gemm per
        matrix, so both forms give the bits of the whole (rows, d, d) stack.
        """
        out[self.stacked] = scaling.apply_W_cols(self.stack)
        if self.single.size:
            mats = spare[: self.single.size]
            at = np.arange(self.single.size), self.k, self.l
            conj = at[0], self.l, self.k
            # smat's order: the conjugate first, so a diagonal entry keeps coef.
            mats[conj] = self.coef.conj()
            mats[at] = self.coef
            out[self.single] = scaling.apply_W_cols(mats)
            mats[conj] = 0.0
            mats[at] = 0.0


def row_operand(block: ConeBlock, cols: np.ndarray):
    """One block's columns of A in the form its scaling's W is applied to.

    PSD rows become a ``PsdRows``, other blocks keep their columns.  A does
    not change within a solve, so the solver builds these once.
    """
    if block.kind != PSD:
        return cols
    iu, sc, strict = _layout(block.size)
    nre = sc.size
    touched = cols[:, :nre] != 0
    if cols.shape[1] > nre:
        touched[:, strict] |= cols[:, nre:] != 0
    one = touched.sum(axis=1) == 1
    single = np.flatnonzero(one)
    pos = touched[single].argmax(axis=1)
    coef = cols[single, pos] / sc[pos]
    if cols.shape[1] > nre:
        imag = np.zeros((single.size, nre))
        imag[:, strict] = cols[single, nre:] / _SQRT2
        coef = coef + 1j * imag[np.arange(single.size), pos]  # smat's arithmetic
    stacked = np.flatnonzero(~one)
    return PsdRows(
        stacked, smat(cols[stacked], block.size), single, iu[0][pos], iu[1][pos], coef
    )


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
    # Eigenvalues of L^-1 dX L^-H with X = L L^H; one solve inverts L.
    d = block.size
    linv = np.linalg.solve(np.linalg.cholesky(smat(x, d)), np.eye(d))
    g = linv @ smat(dx, d) @ linv.conj().T
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
    # W(V) = R^H V R.  With X = L1 L1^H, Z = L2 L2^H and L2^H L1 = U S V^H,
    # R = L1 V S^-1/2 gives R^H Z R = R^-1 X R^-H = S (the NT point).
    def __init__(self, block, x, z):
        self.block = block
        d = block.size
        l1 = np.linalg.cholesky(smat(x, d))
        l2 = np.linalg.cholesky(smat(z, d))
        u, s, vh = np.linalg.svd(l2.conj().T @ l1)
        si = 1.0 / np.sqrt(s)
        self.R = l1 @ vh.conj().T * si[None, :]
        self.Rh = self.R.conj().T
        self.RmH = l2 @ u * si[None, :]  # R^-H
        self.Rm = self.RmH.conj().T  # R^-1
        self.T = self.R @ self.Rh
        self.sig = s
        self.lam = svec(np.diag(s).astype(self.R.dtype))

    def apply_W(self, v):
        return svec(self.Rh @ smat(v, self.block.size) @ self.R)

    def apply_WinvT(self, v):
        return svec(self.Rm @ smat(v, self.block.size) @ self.RmH)

    def apply_Winv(self, v):
        return svec(self.RmH @ smat(v, self.block.size) @ self.Rm)

    def apply_H(self, v):
        return svec(self.T @ smat(v, self.block.size) @ self.T)

    def apply_W_cols(self, mats):
        # mats: (ncols, d, d) from row_operand
        return svec(self.Rh @ mats @ self.R)

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
