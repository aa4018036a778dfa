"""Problem assembly helpers on top of the raw conic solver.

The builder tracks an ordered list of cone-variable blocks and dense equality
rows over them.  Complex Hermitian PSD variables are native complex PSD
blocks; a matrix coefficient D on a PSD variable X contributes tr(D X).
"""

from dataclasses import dataclass

import numpy as np

from .cones import NONNEG, PSD, SOC, ConeBlock, smat, svec
from .solver import ConicProblem

HERMITIAN = "hermitian"


@dataclass(frozen=True)
class VarRef:
    index: int
    kind: str
    offset: int
    veclen: int
    order: int = 0  # matrix order for psd and hermitian


def hermitian_trace_coeff(d: np.ndarray) -> np.ndarray:
    """svec coefficients v with v . svec(W) = Re tr(D W) for Hermitian W."""
    d = np.asarray(d, dtype=complex)
    return svec(0.5 * (d + d.conj().T))


class ConeProgramBuilder:
    def __init__(self):
        self._vars = []
        self._cones = []
        self._rows = []  # (terms dict: var index -> coeff vector, rhs)
        self._obj = {}
        self._n = 0

    # -- variables ---------------------------------------------------------

    def _add(self, kind, veclen, cone, order=0):
        ref = VarRef(len(self._vars), kind, self._n, veclen, order)
        self._vars.append(ref)
        self._cones.append(cone)
        self._n += veclen
        return ref

    def add_nonneg(self, dim: int) -> VarRef:
        return self._add(NONNEG, dim, ConeBlock(NONNEG, dim))

    def add_soc(self, dim: int) -> VarRef:
        return self._add(SOC, dim, ConeBlock(SOC, dim))

    def add_psd(self, order: int) -> VarRef:
        return self._add(PSD, order * (order + 1) // 2, ConeBlock(PSD, order), order)

    def add_hermitian_psd(self, order: int) -> VarRef:
        """Complex Hermitian PSD variable: a native complex PSD block."""
        cone = ConeBlock(PSD, order, hermitian=True)
        return self._add(HERMITIAN, cone.veclen, cone, order)

    # -- coefficients --------------------------------------------------------

    def _coeff_vector(self, ref: VarRef, coeff) -> np.ndarray:
        if ref.kind in (PSD, HERMITIAN):
            d = np.asarray(coeff, dtype=complex if ref.kind == HERMITIAN else float)
            if d.shape == (ref.veclen,):
                return d.real  # raw svec coefficients
            if d.shape != (ref.order, ref.order):
                raise ValueError(f"{ref.kind} coefficient has wrong shape")
            return svec(0.5 * (d + d.conj().T))
        if isinstance(coeff, dict):
            vec = np.zeros(ref.veclen)
            for idx, val in coeff.items():
                vec[idx] = val
            return vec
        vec = np.asarray(coeff, dtype=float)
        if vec.shape != (ref.veclen,):
            raise ValueError("coefficient vector has wrong length")
        return vec

    def add_eq(self, terms, rhs: float):
        """terms: iterable of (VarRef, coeff); the row reads sum tr/dot = rhs."""
        row = {}
        for ref, coeff in terms:
            vec = self._coeff_vector(ref, coeff)
            if ref.index in row:
                row[ref.index] = row[ref.index] + vec
            else:
                row[ref.index] = vec
        self._rows.append((row, float(rhs)))

    def set_objective(self, terms):
        self._obj = {}
        for ref, coeff in terms:
            vec = self._coeff_vector(ref, coeff)
            if ref.index in self._obj:
                self._obj[ref.index] = self._obj[ref.index] + vec
            else:
                self._obj[ref.index] = vec

    # -- assembly ------------------------------------------------------------

    @property
    def rhs_vector(self) -> np.ndarray:
        return np.array([rhs for _, rhs in self._rows])

    def build(self) -> ConicProblem:
        n = self._n
        m = len(self._rows)
        A = np.zeros((m, n))
        b = np.empty(m)
        for i, (row, rhs) in enumerate(self._rows):
            for vi, vec in row.items():
                ref = self._vars[vi]
                A[i, ref.offset : ref.offset + ref.veclen] = vec
            b[i] = rhs
        c = np.zeros(n)
        for vi, vec in self._obj.items():
            ref = self._vars[vi]
            c[ref.offset : ref.offset + ref.veclen] = vec
        return ConicProblem(c, A, b, list(self._cones))

    def extract(self, ref: VarRef, x: np.ndarray):
        seg = x[ref.offset : ref.offset + ref.veclen]
        if ref.kind == HERMITIAN:
            return smat(seg, ref.order).astype(complex, copy=False)  # also at order 1
        if ref.kind == PSD:
            return smat(seg, ref.order)
        return seg.copy()


# -- plain-text interchange ---------------------------------------------------


def dump_problem(problem: ConicProblem, path):
    """Write the standard form to a plain-text file for cross-checking."""
    with open(path, "w") as fh:
        fh.write("conic-problem v1\n")
        fh.write(f"dims {problem.n} {problem.m}\n")
        fh.write(f"cones {len(problem.cones)}\n")
        for blk in problem.cones:
            fh.write(f"{HERMITIAN if blk.hermitian else blk.kind} {blk.size}\n")
        fh.write("objective\n")
        fh.write(" ".join(repr(float(v)) for v in problem.c) + "\n")
        fh.write("rhs\n")
        fh.write(" ".join(repr(float(v)) for v in problem.b) + "\n")
        fh.write("rows\n")
        for i in range(problem.m):
            fh.write(" ".join(repr(float(v)) for v in problem.A[i]) + "\n")
        fh.write("end\n")


def load_problem(path) -> ConicProblem:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != "conic-problem v1":
        raise ValueError("unrecognized problem file header")
    _, n, m = lines[1].split()
    n, m = int(n), int(m)
    ncones = int(lines[2].split()[1])
    cones = []
    for i in range(ncones):
        kind, size = lines[3 + i].split()
        if kind == HERMITIAN:
            cones.append(ConeBlock(PSD, int(size), hermitian=True))
        elif kind in (NONNEG, SOC, PSD):
            cones.append(ConeBlock(kind, int(size)))
        else:
            raise ValueError(f"unknown cone kind {kind!r}")
    pos = 3 + ncones
    if lines[pos] != "objective":
        raise ValueError("expected objective section")
    c = np.array([float(v) for v in lines[pos + 1].split()])
    if lines[pos + 2] != "rhs":
        raise ValueError("expected rhs section")
    b = np.array([float(v) for v in lines[pos + 3].split()]) if m else np.zeros(0)
    if lines[pos + 4] != "rows":
        raise ValueError("expected rows section")
    rows = []
    for i in range(m):
        rows.append([float(v) for v in lines[pos + 5 + i].split()])
    A = np.array(rows) if m else np.zeros((0, n))
    return ConicProblem(c, A, b, cones)
