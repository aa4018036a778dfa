"""Problem assembly helpers on top of the raw conic solver.

The builder tracks an ordered list of cone-variable blocks and blocks of
dense equality rows over them.  Complex Hermitian PSD variables are native
complex PSD blocks; a matrix coefficient D on a PSD variable X contributes
tr(D X).
"""

from dataclasses import dataclass

import numpy as np

from .cones import NONNEG, PSD, SOC, ConeBlock, smat, svec
from .solver import ConicProblem


@dataclass(frozen=True)
class VarRef:
    index: int
    offset: int
    cone: ConeBlock

    @property
    def cols(self) -> slice:
        return slice(self.offset, self.offset + self.cone.veclen)


class ConeProgramBuilder:
    def __init__(self):
        self._vars = []
        self._rows = []  # (var index -> (r, veclen) block, rhs (r,)); None once built
        self._obj = {}
        self._n = 0

    # -- variables ---------------------------------------------------------

    def _add(self, cone: ConeBlock) -> VarRef:
        ref = VarRef(len(self._vars), self._n, cone)
        self._vars.append(ref)
        self._n += cone.veclen
        return ref

    def add_nonneg(self, dim: int) -> VarRef:
        return self._add(ConeBlock(NONNEG, dim))

    def add_soc(self, dim: int) -> VarRef:
        return self._add(ConeBlock(SOC, dim))

    def add_psd(self, order: int) -> VarRef:
        return self._add(ConeBlock(PSD, order))

    def add_hermitian_psd(self, order: int) -> VarRef:
        """Complex Hermitian PSD variable: a native complex PSD block."""
        return self._add(ConeBlock(PSD, order, hermitian=True))

    # -- coefficients --------------------------------------------------------

    def _coeff_rows(self, ref: VarRef, coeff, rows: int | None) -> np.ndarray:
        """One term's coefficients as a (rows, veclen) block.

        ``rows`` None takes the single-row forms: a dict {coordinate: value},
        a length-veclen vector or, for a PSD ref, a (d, d) matrix.  A block
        of r rows takes the vector and matrix forms with a leading axis r.
        """
        cone = ref.cone
        if isinstance(coeff, dict):
            if rows is not None:
                raise ValueError("a dict coefficient makes a single row")
            vec = np.zeros(cone.veclen)
            vec[list(coeff)] = list(coeff.values())
            coeff = vec
        d = np.asarray(coeff, dtype=complex if cone.hermitian else float)
        if rows is None:
            d, rows = d[None], 1
        if d.shape == (rows, cone.veclen):
            return d.real  # raw svec coefficients
        if cone.kind == PSD and d.shape == (rows, cone.size, cone.size):
            return svec(0.5 * (d + d.conj().swapaxes(-1, -2)))
        raise ValueError(
            f"{cone.kind} coefficient of shape {np.shape(coeff)} does not give "
            f"{rows} row(s) of length {cone.veclen}"
        )

    def add_eq(self, terms, rhs):
        """Equality rows sum over terms of <coeff, var> = rhs.

        terms: iterable of (VarRef, coeff).  A scalar rhs makes one row; a
        vector rhs of length r makes a block of r rows whose coefficients
        carry a leading row axis (see ``_coeff_rows``).
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim > 1:
            raise ValueError("rhs must be a scalar or a vector")
        rows = rhs.size if rhs.ndim else None
        self._rows.append((self._block(terms, rows), rhs.reshape(-1)))

    def set_objective(self, terms):
        self._obj = self._block(terms, None)

    def objective_vector(self, terms) -> np.ndarray:
        """c of the objective sum over terms of <coeff, var> (single-row forms)."""
        return self._place(self._block(terms, None))

    def _block(self, terms, rows: int | None) -> dict:
        """var index -> summed (rows, veclen) coefficients of the terms on it."""
        block = {}
        for ref, coeff in terms:
            vec = self._coeff_rows(ref, coeff, rows)
            block[ref.index] = block[ref.index] + vec if ref.index in block else vec
        return block

    # -- assembly ------------------------------------------------------------

    def _place(self, block) -> np.ndarray:
        c = np.zeros(self._n)
        for vi, vec in block.items():
            c[self._vars[vi].cols] = vec[0]
        return c

    def build(self) -> ConicProblem:
        """The program, once: its rows move into A and the builder keeps
        only its variables, for ``extract`` and ``objective_vector``."""
        if self._rows is None:
            raise ValueError("the program is already built")
        b = np.concatenate([np.zeros(0)] + [rhs for _, rhs in self._rows])
        A = np.zeros((b.size, self._n))
        i = 0
        for block, rhs in self._rows:
            for vi, vec in block.items():
                A[i : i + rhs.size, self._vars[vi].cols] = vec
            i += rhs.size
        self._rows = None
        return ConicProblem(self._place(self._obj), A, b, [ref.cone for ref in self._vars])

    def extract(self, ref: VarRef, x: np.ndarray):
        seg = x[ref.cols]
        if ref.cone.kind != PSD:
            return seg.copy()
        w = smat(seg, ref.cone.size)
        return w.astype(complex, copy=False) if ref.cone.hermitian else w  # real at order 1

