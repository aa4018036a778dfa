"""Cone block primitives for the interior-point solver.

Blocks are nonnegative orthants, second-order cones, and PSD cones over
either field: real symmetric or complex Hermitian matrices.  The solver
works on units (``ConeUnit``): each PSD block alone, and each run of
adjacent nonnegative or second-order blocks at once.  PSD blocks live
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

import numbers
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

    def __post_init__(self):
        if self.kind not in (NONNEG, SOC, PSD):
            raise ValueError(f"{self}: kind must be {NONNEG}, {SOC} or {PSD}")
        if not isinstance(self.size, numbers.Integral) or self.size < 1:
            raise ValueError(f"{self}: size must be an integer of at least 1")

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


def row_operand(unit: "ConeUnit", cols: np.ndarray):
    """One unit's columns of A in the form its scaling's W is applied to.

    PSD rows become a ``PsdRows`` over ``cols`` itself, an orthant keeps its
    columns.  A does not change within a solve, so the solver builds these
    once.
    """
    if unit.kind != PSD:
        return cols
    lay = _layout(unit.size)
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
        unit.size,
        np.flatnonzero(~one),
        single,
        lay.k[pos],
        lay.l[pos],
        coef,
        int(diag.sum()),
    )


class ConeUnit:
    """Adjacent cone blocks that the solver scales, steps and multiplies in
    one call: a PSD block alone, or a maximal run of nonnegative blocks (one
    orthant) or of second-order blocks (a product of Lorentz cones).

    ``size`` reads as ``ConeBlock.size`` does: the matrix order of a PSD
    unit, the vector length of a run.  A run of second-order blocks holds
    each block's ``sizes`` and ``heads``, its first coordinate in the unit;
    ``tails`` is 0.0 at the heads and 1.0 elsewhere, and ``jsign`` is
    J = diag(1, -I) of every block as a vector.
    """

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        self.kind = blocks[0].kind
        self.sizes = np.array([blk.veclen for blk in blocks])
        self.veclen = int(self.sizes.sum())
        self.size = blocks[0].size if self.kind == PSD else self.veclen
        self.heads = np.cumsum(self.sizes) - self.sizes
        self.tails = np.ones(self.veclen)
        self.tails[self.heads] = 0.0
        self.jsign = 1.0 - 2.0 * self.tails

    def spread(self, per_block):
        """One value per block, repeated over the block's coordinates."""
        return np.repeat(per_block, self.sizes)

    def block_sums(self, v):
        """Sums of v over each block's coordinates."""
        return np.add.reduceat(v, self.heads)


def cone_units(cones):
    """The cone list as units, in order (see ``ConeUnit``)."""
    runs = []
    for blk in cones:
        if runs and blk.kind != PSD and runs[-1][-1].kind == blk.kind:
            runs[-1].append(blk)
        else:
            runs.append([blk])
    return [ConeUnit(run) for run in runs]


def _jdet(unit, v):
    """v'Jv per second-order block, as (v0 - ||v1||)(v0 + ||v1||): accurate
    near the boundary."""
    v0 = v[unit.heads]
    tail = v * unit.tails
    r = np.sqrt(unit.block_sums(tail * tail))
    return (v0 - r) * (v0 + r)


def max_step(unit: ConeUnit, x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx still in the unit (x strictly inside)."""
    if unit.kind == NONNEG:
        neg = dx < 0
        if not neg.any():
            return np.inf
        return float((-x[neg] / dx[neg]).min())
    if unit.kind == SOC:
        # Per block, with a = sqrt(x'Jx) and xb = x / a, x + t dx =
        # a Hyp(xb) (e + t rho) for rho = J Hyp(xb) J dx / a (Hyp as in
        # _SocRunScaling), and Hyp(xb) maps the cone onto itself: the ray
        # leaves it where t (||rho1|| - rho0) = 1.  Here rho0 = s / a and
        # ||rho1|| = u / a; for s > 0, u - s is taken as
        # -dx'J dx / (u + s), free of cancellation.  The run's step is the
        # least over its blocks, 1 / the largest positive rate.
        h = unit.heads
        a = np.sqrt(_jdet(unit, x))
        xb = x / unit.spread(a)
        xt = xb * unit.tails
        s = xb[h] * dx[h] - unit.block_sums(xt * dx)
        v = dx * unit.tails - unit.spread((s + dx[h]) / (xb[h] + 1.0)) * xt
        u = np.sqrt(unit.block_sums(v * v))
        up = s > 0
        rate = np.where(up, -_jdet(unit, dx) / np.where(up, u + s, 1.0), u - s) / a
        top = rate.max()
        return float(1.0 / top) if top > 0 else np.inf
    # psd
    # Eigenvalues of L^-1 dX L^-H with X = L L^H; one solve inverts L.
    d = unit.size
    linv = np.linalg.solve(np.linalg.cholesky(smat(x, d)), np.eye(d))
    g = linv @ smat(dx, d) @ linv.conj().T
    lam_min = np.linalg.eigvalsh(g)[0]
    if lam_min >= 0:
        return np.inf
    return float(-1.0 / lam_min)


def jordan_mul(unit: ConeUnit, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if unit.kind == NONNEG:
        return a * b
    if unit.kind == SOC:
        # per block (a'b, a0 b1 + b0 a1)
        h = unit.heads
        out = unit.spread(a[h]) * b + unit.spread(b[h]) * a
        out[h] = unit.block_sums(a * b)
        return out
    d = unit.size
    am, bm = smat(a, d), smat(b, d)
    return svec(0.5 * (am @ bm + bm @ am))


class _NonnegScaling:
    def __init__(self, unit, x, z):
        if not (x.min() > 0 and z.min() > 0):
            raise FloatingPointError("nonnegative iterate left the interior")
        self.w = np.sqrt(x / z)
        self.lam = np.sqrt(x * z)

    def apply_W(self, v):
        return self.w * v

    def apply_Winv(self, v):
        return v / self.w

    apply_WinvT = apply_Winv  # W is diagonal

    def apply_H(self, v):
        return self.w * self.w * v

    def apply_W_cols(self, cols):
        return self.w[None, :] * cols

    def lam_div(self, d):
        return d / self.lam


class _SocRunScaling:
    # Block b: W_b = beta_b Hyp(wbar_b) with the hyperbolic Householder
    # matrix Hyp(w) = [[w0, w1'], [w1, I + w1 w1'/(1+w0)]];
    # Hyp(w)^2 = 2 w w' - J.  Per-block scalars are held once per block and
    # spread over the run's coordinates; per-block dot products are segment
    # sums (ConeUnit.block_sums).
    def __init__(self, unit, x, z):
        self.unit = unit
        h = unit.heads
        jx, jz = _jdet(unit, x), _jdet(unit, z)
        if not (x[h].min() > 0 and z[h].min() > 0 and jx.min() > 0 and jz.min() > 0):
            raise FloatingPointError("second-order cone iterate left the interior")
        xb = x / unit.spread(np.sqrt(jx))
        zb = z / unit.spread(np.sqrt(jz))
        gamma = np.sqrt(0.5 * (1.0 + unit.block_sums(xb * zb)))
        self.wbar = (xb + unit.jsign * zb) / unit.spread(2.0 * gamma)
        self.w1 = self.wbar * unit.tails
        self.beta = (jx / jz) ** 0.25
        self.bs = unit.spread(self.beta)
        self.lam = self.apply_W(z)
        self.lam_det = _jdet(unit, self.lam)

    def _hyp(self, v):
        # per block, Hyp(w) v = (w0 v0 + w1'v1, v1 + w1 (v0 + w1'v1 / (1 + w0)))
        unit, h = self.unit, self.unit.heads
        w0 = self.wbar[h]
        s = unit.block_sums(self.w1 * v)
        out = v + self.w1 * unit.spread(v[h] + s / (1.0 + w0))
        out[h] = w0 * v[h] + s
        return out

    def apply_W(self, v):
        return self.bs * self._hyp(v)

    def apply_Winv(self, v):
        js = self.unit.jsign
        return js * self._hyp(js * v) / self.bs

    apply_WinvT = apply_Winv  # W is symmetric

    def apply_H(self, v):
        # W^2 = beta^2 (2 wbar wbar' - J), per block
        unit = self.unit
        wv = unit.spread(unit.block_sums(self.wbar * v))
        return self.bs**2 * (2.0 * self.wbar * wv - unit.jsign * v)

    def block_W_cols(self, j, cols):
        """cols W_j' for the run's block j: cols (ncols, dim) are its own
        columns of A, and W_j is symmetric."""
        at = self.unit.heads[j]
        w = self.wbar[at : at + cols.shape[1]]
        s = cols[:, 1:] @ w[1:]
        out = np.empty_like(cols)
        out[:, 0] = w[0] * cols[:, 0] + s
        out[:, 1:] = cols[:, 1:] + np.multiply.outer(cols[:, 0] + s / (1.0 + w[0]), w[1:])
        return self.beta[j] * out

    def lam_div(self, dvec):
        # per block, u = lam \ d: u0 = (lam0 d0 - lam1'd1) / lam'J lam,
        # u1 = (d1 - u0 lam1) / lam0
        unit, h, lam = self.unit, self.unit.heads, self.lam
        u0 = (lam[h] * dvec[h] - unit.block_sums(lam * unit.tails * dvec)) / self.lam_det
        out = (dvec - unit.spread(u0) * lam) / unit.spread(lam[h])
        out[h] = u0
        return out


class _PsdScaling:
    # W(V) = R^H V R.  With X = L1 L1^H, Z = L2 L2^H and L2^H L1 = U S V^H,
    # R = L1 V S^-1/2 gives R^H Z R = R^-1 X R^-H = S (the NT point).
    def __init__(self, unit, x, z):
        self.unit = unit
        d = unit.size
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
        return svec(self.Rh @ smat(v, self.unit.size) @ self.R)

    def apply_WinvT(self, v):
        return svec(self.Rm @ smat(v, self.unit.size) @ self.RmH)

    def apply_Winv(self, v):
        return svec(self.RmH @ smat(v, self.unit.size) @ self.Rm)

    def apply_H(self, v):
        return svec(self.T @ smat(v, self.unit.size) @ self.T)

    def apply_W_cols(self, mats):
        # mats: (ncols, d, d), one chunk of rows from PsdRows.write_W_cols
        return svec(self.Rh @ mats @ self.R)

    def lam_div(self, dvec):
        d = self.unit.size
        dm = smat(dvec, d)
        denom = 0.5 * (self.sig[:, None] + self.sig[None, :])
        return svec(dm / denom)


def nt_scaling(unit: ConeUnit, x: np.ndarray, z: np.ndarray):
    """The unit's NT scaling at (x, z); raises FloatingPointError or
    LinAlgError unless x and z are strictly inside every block of it."""
    if unit.kind == NONNEG:
        return _NonnegScaling(unit, x, z)
    if unit.kind == SOC:
        return _SocRunScaling(unit, x, z)
    return _PsdScaling(unit, x, z)
