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


class _Layout:
    """Index tables of one PSD order d, built once per order (``_layout``).

    ``k``, ``l``: the upper triangle row by row; ``sc``: its svec scales;
    ``strict``: the strict-upper positions among them.  The gathers read
    (..., d, d) as flat real values, entry (i, j) at i*d + j, or for complex
    input (i*d + j, re/im) interleaved, and write smat's output the same way.
    """

    def __init__(self, d):
        k, l = np.triu_indices(d)
        on = k == l
        self.k, self.l = k, l
        self.sc = np.where(on, 1.0, _SQRT2)
        self.strict = np.flatnonzero(~on)
        nre, ns = k.size, self.strict.size
        flat = k * d + l
        self.svec_real = flat
        self.svec_herm = np.concatenate([2 * flat, 2 * flat[self.strict] + 1])
        self.svec_herm_sc = np.concatenate([self.sc, np.full(ns, _SQRT2)])
        # smat's real source is Re upper / sc, entry (i, j) reads its (min, max);
        # the Hermitian source appends Im upper / sqrt2, its negation and a zero.
        pos = np.empty((d, d), dtype=np.intp)
        pos[k, l] = pos[l, k] = np.arange(nre)
        imag = np.full((d, d), nre + 2 * ns)
        imag[k[~on], l[~on]] = nre + np.arange(ns)
        imag[l[~on], k[~on]] = nre + ns + np.arange(ns)
        self.smat_real = pos.ravel()
        self.smat_herm = np.stack([pos.ravel(), imag.ravel()], axis=-1).ravel()


def _layout(d, _cache={}):
    if d not in _cache:
        _cache[d] = _Layout(d)
    return _cache[d]


def svec(mat: np.ndarray) -> np.ndarray:
    """(..., d, d) -> (..., veclen); complex input takes the Hermitian layout."""
    d = mat.shape[-1]
    lay = _layout(d)
    if np.iscomplexobj(mat):
        flat = np.ascontiguousarray(mat).view(mat.real.dtype)
        flat = flat.reshape(mat.shape[:-2] + (2 * d * d,))
        return np.take(flat, lay.svec_herm, axis=-1) * lay.svec_herm_sc
    flat = mat.reshape(mat.shape[:-2] + (d * d,))
    return np.take(flat, lay.svec_real, axis=-1) * lay.sc


def smat(v: np.ndarray, d: int) -> np.ndarray:
    """(..., veclen) -> (..., d, d), complex when v has d^2 > d(d+1)/2 entries."""
    lay = _layout(d)
    nre = lay.sc.size
    shape = v.shape[:-1] + (d, d)
    if v.shape[-1] == nre:
        return np.take(v / lay.sc, lay.smat_real, axis=-1).reshape(shape)
    # The source [Re / sc, Im / sqrt2, -Im / sqrt2, 0] is written in place:
    # on a stack, temporaries and a concatenate cost more than the gather.
    ns = v.shape[-1] - nre
    src = np.empty(v.shape[:-1] + (nre + 2 * ns + 1,))
    im = src[..., nre : nre + ns]
    np.divide(v[..., :nre], lay.sc, out=src[..., :nre])
    np.divide(v[..., nre:], _SQRT2, out=im)
    np.negative(im, out=src[..., nre + ns : -1])
    src[..., -1] = 0.0
    return np.take(src, lay.smat_herm, axis=-1).view(np.complex128).reshape(shape)


def identity_element(block: ConeBlock) -> np.ndarray:
    if block.kind == NONNEG:
        return np.ones(block.size)
    if block.kind == SOC:
        e = np.zeros(block.size)
        e[0] = 1.0
        return e
    return svec(np.eye(block.size, dtype=complex if block.hermitian else float))


# Entries of the (d, d) matrices one PSD row chunk expands at once: about
# 1 MB of complex values per temporary, 18 matrices at d = 60, 455 at d = 12.
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class PsdRows:
    """One PSD block's rows of A, read from its columns of A when written.

    A row whose block part has a single upper-triangle entry (k, l), such as
    a feed cap's diagonal entry or an off-diagonal Q row of the outage
    program, is held as (row, k, l, coefficient), the ``ndiag`` diagonal
    rows (k == l) first.  Every other row, in ``stacked``, is held only as
    its index into ``cols``.
    """

    cols: np.ndarray  # the block's columns of A (a view, not a copy)
    d: int
    stacked: np.ndarray  # row indices expanded from ``cols`` in full
    single: np.ndarray  # row indices held as one entry
    k: np.ndarray
    l: np.ndarray
    coef: np.ndarray  # entry (k, l); (l, k) holds its conjugate
    ndiag: int  # single[:ndiag] are diagonal entries, real-valued coef

    @property
    def dtype(self):
        """The block's field: complex when its columns hold imaginary parts."""
        return np.dtype(complex if self.cols.shape[1] > _layout(self.d).sc.size else float)

    @property
    def chunk(self):
        """Rows expanded and multiplied at once, per ``CHUNK_ELEMENTS``."""
        return max(1, CHUNK_ELEMENTS // self.d**2)

    def write_W_cols(self, scaling, out):
        """out[i] = row i through ``scaling.apply_W_cols``, for every row.

        Each kind of row is expanded and multiplied one chunk of at most
        ``chunk`` rows at a time.  A multi-entry row is ``smat`` of its
        columns of A.  A diagonal row c E_kk skips the first product:
        Rh (c E_kk) is column k, Rh[:, k] c, one term per entry and so exact
        on any BLAS kernel; only the product with R is a gemm.  An
        off-diagonal row is expanded in full and takes both gemms, because a
        complex coefficient makes each entry a complex product that zgemm
        kernels round differently (fused or not).  ``smat`` is a gather and
        a divide per entry, and each stacked matmul is one gemm per matrix,
        so every form and every chunking gives the bits of ``apply_W_cols``
        on the whole (rows, d, d) stack.
        """
        step, d = self.chunk, self.d
        for at in range(0, self.stacked.size, step):
            rows = self.stacked[at : at + step]
            out[rows] = scaling.apply_W_cols(smat(self.cols[rows], d))
        n = self.ndiag
        for at in range(0, n, step):
            part = slice(at, min(at + step, n))
            k = self.k[part]
            mats = np.zeros((k.size, d, d), self.dtype)
            mats[np.arange(k.size), :, k] = (scaling.Rh[:, k] * self.coef[part]).T
            out[self.single[part]] = svec(mats @ scaling.R)
        for at in range(n, self.single.size, step):
            part = slice(at, at + step)
            k, l, coef = self.k[part], self.l[part], self.coef[part]
            mats = np.zeros((coef.size, d, d), self.dtype)
            mats[np.arange(coef.size), l, k] = coef.conj()
            mats[np.arange(coef.size), k, l] = coef
            out[self.single[part]] = scaling.apply_W_cols(mats)


def row_operand(block: ConeBlock, cols: np.ndarray):
    """One block's columns of A in the form its scaling's W is applied to.

    PSD rows become a ``PsdRows`` over ``cols`` itself, other blocks keep
    their columns.  A does not change within a solve, so the solver builds
    these once.
    """
    if block.kind != PSD:
        return cols
    lay = _layout(block.size)
    nre = lay.sc.size
    touched = cols[:, :nre] != 0
    if cols.shape[1] > nre:
        touched[:, lay.strict] |= cols[:, nre:] != 0
    one = touched.sum(axis=1) == 1
    pos = touched.argmax(axis=1)
    diag = one & (lay.k[pos] == lay.l[pos])
    single = np.concatenate([np.flatnonzero(diag), np.flatnonzero(one & ~diag)])
    pos = pos[single]
    coef = cols[single, pos] / lay.sc[pos]
    if cols.shape[1] > nre:
        imag = np.zeros((single.size, nre))
        imag[:, lay.strict] = cols[single, nre:] / _SQRT2
        coef = coef + 1j * imag[np.arange(single.size), pos]  # smat's arithmetic
    return PsdRows(
        cols,
        block.size,
        np.flatnonzero(~one),
        single,
        lay.k[pos],
        lay.l[pos],
        coef,
        int(diag.sum()),
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
        # mats: (ncols, d, d), one chunk of rows from PsdRows.write_W_cols
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
