"""Conic program container: linear objective, affine PSD blocks, box with pins.

A program is  min c.x  subject to, per block b,
``sum_i x_i C_i^b - C_0^b`` positive semidefinite, and x in a simple set
(per-coordinate clamp intervals with some coordinates pinned to fixed
values).

Blocks are stored in symmetric vectorization ("svec") form: the upper
triangle row-major with off-diagonal entries scaled by sqrt(2), which
preserves inner products.  With that convention the adjoint of the stacked
constraint operator is the plain transpose of its matrix, so operator
norms computed on the matrix are the true operator norms.  This module
alone knows the layout: ``triu_info`` caches it per dimension, and
``PsdBlock.from_terms`` (matrix-entry terms to svec coefficients), the
projection plan and the export all read it there.

Coefficients are ``SparseMatrix`` triplets in row-major order.  The solver
applies the operator, its adjoint and the blockwise PSD projection once
per inner iteration, so their set-up is paid once per program: the
stacked matrix and the projection plan are cached properties, built on
first use.  The plan groups blocks by dimension and holds the index maps
between the stacked svec vector and the batched dense matrices.  Both keep work
buffers that every call reuses, so the loop allocates little beyond its
results; this is also why a program is not reentrant.  A 1x1 block's
cone is the half-line, so its projection is a clip at zero with no
eigendecomposition.

On small blocks a projection costs more in numpy call overhead than in
arithmetic, so the hot paths make few and cheap calls.  The projection
calls LAPACK's batched eigensolver through the generalized ufunc that
``np.linalg.eigh`` wraps, a private numpy name: the wrapper's type
checks, error-state context and result tuple cost as much as the
decomposition of the toy's 3x3 and 6x6 blocks, and the values are the
same bits.  A failed decomposition leaves NaN eigenvalues, which one
check per call turns into ``NumericalError``.  The simple set folds its
pins into its clamp bounds (lower = upper = the pinned value) on first
use, so its projection is one maximum and one minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericalError

if TYPE_CHECKING:
    from .relaxation import ProgramMeta

_SQRT2 = float(np.sqrt(2.0))
_eigh = _umath_linalg.eigh_lo  # the batched LAPACK call behind np.linalg.eigh


def _eigh_failed(mats: np.ndarray) -> NumericalError:
    return NumericalError(f"eigendecomposition failed on {len(mats)} blocks of dim "
                          f"{mats.shape[1]} (finite={np.all(np.isfinite(mats))})")


class Triangle(NamedTuple):
    """The svec layout of a dim x dim block: its upper triangle, row-major."""

    rows: np.ndarray      # (tri,): matrix row of each svec entry
    cols: np.ndarray      # (tri,): its column
    scale: np.ndarray     # (tri,): 1 on the diagonal, sqrt(2) off it
    position: np.ndarray  # (dim, dim): svec entry holding (i, j) and (j, i)


@lru_cache(maxsize=None)
def triu_info(dim: int) -> Triangle:
    """The svec layout of a ``dim`` block, built once per dimension."""
    rows, cols = np.triu_indices(dim)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    position = np.empty((dim, dim), dtype=np.intp)
    position[rows, cols] = position[cols, rows] = np.arange(len(rows))
    for arr in (rows, cols, scale, position):
        arr.setflags(write=False)
    return Triangle(rows, cols, scale, position)


class SparseMatrix:
    """A sparse matrix as triplets sorted by row, then column.

    Each position appears once; explicit zeros, signed ones included, are
    kept.  Both products add the entry products in entry order, which is
    the order of a compressed-row (CSR) row loop, and both write them into
    one work buffer the matrix keeps, so a matrix is not reentrant.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int]):
        self.rows = rows
        self.cols = cols
        self.data = data
        self.shape = shape
        self._buf = np.empty(len(data))

    @classmethod
    def from_triplets(cls, rows, cols, data, shape) -> "SparseMatrix":
        """The matrix of ``(rows, cols, data)`` triplets in any order.

        Values given for one position are summed in input order, starting
        from the first of them (not from 0.0, which would turn a lone -0.0
        into 0.0), as ``scipy.sparse.coo_matrix(...).tocsr()`` sums them.
        """
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        data = np.asarray(data, dtype=float)
        if len(rows) and (min(rows.min(), cols.min()) < 0 or rows.max() >= shape[0]
                          or cols.max() >= shape[1]):
            raise ValueError(f"triplet index outside the shape {shape}")
        order = np.lexsort((cols, rows))     # stable: equal positions keep input order
        rows, cols, data = rows[order], cols[order], data[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        summed = data[first]
        repeat = ~first
        np.add.at(summed, np.cumsum(first)[repeat] - 1, data[repeat])
        return cls(rows[first], cols[first], summed, (int(shape[0]), int(shape[1])))

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._product(x, self.shape[1], self.cols, self.rows, self.shape[0])

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """The transpose product A^T z."""
        return self._product(z, self.shape[0], self.rows, self.cols, self.shape[1])

    def _product(self, vec: np.ndarray, length: int, take: np.ndarray, put: np.ndarray,
                 size: int) -> np.ndarray:
        if vec.shape != (length,):
            raise ValueError(f"vector of shape {vec.shape} for a {self.shape} product")
        buf = vec.take(take, out=self._buf, mode="clip")  # "raise" copies `out`
        buf *= self.data
        return np.bincount(put, weights=buf, minlength=size)


def svec(mat: np.ndarray) -> np.ndarray:
    tri = triu_info(mat.shape[0])
    return mat[tri.rows, tri.cols] * tri.scale


@dataclass
class PsdBlock:
    """One affine PSD constraint: sum_i x_i C_i - C_0 must be PSD."""

    dim: int
    label: str
    coeffs: SparseMatrix      # (tri_size, num_scalars), svec rows
    constant: np.ndarray      # C_0, dense symmetric (dim, dim)

    @property
    def tri_size(self) -> int:
        return self.dim * (self.dim + 1) // 2

    @classmethod
    def from_terms(cls, dim: int, label: str, num_scalars: int, groups,
                   constant: Optional[np.ndarray] = None) -> "PsdBlock":
        """The block whose entry (i, j) is the sum of its terms' value * x[scalar].

        ``groups`` holds parallel (rows, cols, scalars, values) arrays of
        terms at entries with rows <= cols; terms of one entry and scalar
        add up in order.  This is the one place where entries become svec
        rows and off-diagonal values take their sqrt(2) scale.
        """
        tri = triu_info(dim)
        svec_rows = [tri.position[rows, cols] for rows, cols, _, _ in groups]
        coeffs = SparseMatrix.from_triplets(
            np.concatenate(svec_rows),
            np.concatenate([scalars for _, _, scalars, _ in groups]),
            np.concatenate([values * tri.scale[pos]
                            for (_, _, _, values), pos in zip(groups, svec_rows)]),
            (len(tri.rows), num_scalars),
        )
        if constant is None:
            constant = np.zeros((dim, dim))
        return cls(dim=dim, label=label, coeffs=coeffs, constant=constant)


@dataclass
class SimpleSet:
    """Per-coordinate clamp intervals with pinned coordinates."""

    lower: np.ndarray
    upper: np.ndarray
    pinned_idx: np.ndarray
    pinned_val: np.ndarray

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The clamp bounds with each pinned coordinate's interval its value."""
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        if len(self.pinned_idx):
            lo[self.pinned_idx] = hi[self.pinned_idx] = self.pinned_val
        return lo, hi

    def project(self, x: np.ndarray) -> np.ndarray:
        lo, hi = self._bounds
        out = np.maximum(x, lo)
        return np.minimum(out, hi, out=out)

    def diameter(self) -> float:
        """Exact Euclidean diameter (pinned coordinates contribute nothing)."""
        widths = self.upper - self.lower
        if len(self.pinned_idx):
            widths = widths.copy()
            widths[self.pinned_idx] = 0.0
        return float(np.sqrt(np.sum(widths**2)))


class _ProjPlan(NamedTuple):
    """Index maps and work buffers for projecting every block in one pass.

    The batch holds each block as a dense matrix, blocks of one dimension
    next to each other and the dimensions in increasing order.
    """

    gather: np.ndarray   # (batch,): stacked svec position of each batch entry
    divisor: np.ndarray  # (batch,): svec scale of that entry
    halfline: Optional[tuple]  # (batch, reconstruction) views of the 1x1 blocks
    groups: list         # (batch, eigenvalue, eigenvector, reconstruction) per dim > 1
    batch: np.ndarray    # gathered matrices, then the scaled eigenvectors
    vals: np.ndarray     # eigenvalues of every block of dim > 1
    recon: np.ndarray    # projected matrices
    source: np.ndarray   # (stacked,): reconstruction position of each svec entry
    scale: np.ndarray    # (stacked,): its svec scale


@dataclass
class ConicProgram:
    """A conic program with its stacked operator and projection plan.

    Not reentrant: ``apply``, ``adjoint`` and ``project_dual`` write into
    work buffers the program keeps, so one program serves one caller at a
    time.
    """

    objective: np.ndarray
    blocks: list
    simple_set: SimpleSet
    meta: Optional[ProgramMeta] = None   # set by the relaxation builders

    @property
    def num_scalars(self) -> int:
        return len(self.objective)

    # -- stacked operator ---------------------------------------------------

    @cached_property
    def block_slices(self) -> list:
        """Where each block's svec entries sit in the stacked vector."""
        offsets = np.cumsum([0] + [b.tri_size for b in self.blocks])
        return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]

    @cached_property
    def operator(self) -> SparseMatrix:
        """The stacked linear map x -> svec of all block left-hand sides."""
        return SparseMatrix(
            np.concatenate([b.coeffs.rows + sl.start
                            for b, sl in zip(self.blocks, self.block_slices)]),
            np.concatenate([b.coeffs.cols for b in self.blocks]),
            np.concatenate([b.coeffs.data for b in self.blocks]),
            (self.block_slices[-1].stop, self.num_scalars),
        )

    @cached_property
    def constants(self) -> np.ndarray:
        """Stacked svec of the block constant matrices."""
        return np.concatenate([svec(b.constant) for b in self.blocks])

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.operator @ x

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """The transpose product A^T z."""
        return self.operator.rmatvec(z)

    # -- batched PSD projection over the stacked svec space ------------------

    @cached_property
    def _plan(self) -> _ProjPlan:
        by_dim: dict[int, list[int]] = {}
        for i, blk in enumerate(self.blocks):
            by_dim.setdefault(blk.dim, []).append(i)
        stacked = self.block_slices[-1].stop
        source = np.empty(stacked, dtype=np.intp)
        scale = np.empty(stacked)
        gather, spans, off = [], [], 0
        for dim, members in sorted(by_dim.items()):
            tri = triu_info(dim)
            idx = np.array([np.arange(self.block_slices[i].start, self.block_slices[i].stop)
                            for i in members])
            n = len(members)
            gather.append(idx[:, tri.position].ravel())
            source[idx] = off + np.arange(n)[:, None] * dim * dim + tri.rows * dim + tri.cols
            scale[idx] = tri.scale
            spans.append((dim, n, off))
            off += n * dim * dim
        batch, recon = np.empty(off), np.empty(off)
        vals = np.empty(sum(n * dim for dim, n, _ in spans if dim > 1))
        halfline, groups, v = None, [], 0
        for dim, n, o in spans:
            mats = batch[o:o + n * dim * dim].reshape(n, dim, dim)
            out = recon[o:o + n * dim * dim].reshape(n, dim, dim)
            if dim == 1:
                halfline = (mats, out)
                continue
            groups.append((mats, vals[v:v + n * dim].reshape(n, dim),
                           np.empty((n, dim, dim)), out))
            v += n * dim
        gather = np.concatenate(gather)
        return _ProjPlan(gather, scale[gather], halfline, groups, batch, vals, recon,
                         source, scale)

    def project_dual(self, s: np.ndarray) -> np.ndarray:
        """Blockwise PSD projection of a stacked svec vector.

        The PSD cone is self-dual, so this is both the primal and the dual
        projection.  The plan is built once per program: one gather turns
        ``s`` into a batch of dense symmetric matrices, blocks of equal
        dimension share one batched eigendecomposition, their clipped
        reconstructions land in a second batch, and one gather through the
        upper-triangle index reads the result back.  1x1 blocks are
        clipped at zero without an eigendecomposition.  Only the returned
        vector is newly allocated.  A non-finite eigenvalue (LAPACK failed,
        or a block was not finite) raises ``NumericalError``, also where
        warnings are errors and LAPACK's warning comes first.
        """
        plan = self._plan
        if s.shape != plan.source.shape:
            raise ValueError(f"vector of shape {s.shape} for a {plan.source.shape} projection")
        batch = s.take(plan.gather, out=plan.batch, mode="clip")  # "raise" copies `out`
        batch /= plan.divisor
        try:
            for mats, vals, vecs, _ in plan.groups:
                _eigh(mats, signature="d->dd", out=(vals, vecs))
        except RuntimeWarning:  # LAPACK's "invalid value" warning, raised as an error
            raise _eigh_failed(mats) from None
        if not math.isfinite(plan.vals.dot(plan.vals)):  # finite if every eigenvalue is
            for mats, vals, _, _ in plan.groups:
                if not np.isfinite(vals).all():
                    raise _eigh_failed(mats)
        if plan.halfline is not None:
            mats, recon = plan.halfline
            np.maximum(mats, 0.0, out=recon)
        for mats, vals, vecs, recon in plan.groups:
            np.maximum(vals, 0.0, out=vals)
            np.multiply(vecs, vals[:, None, :], out=mats)
            np.matmul(mats, vecs.transpose(0, 2, 1), out=recon)
        out = plan.recon.take(plan.source)
        out *= plan.scale
        return out

    def cone_distance(self, x: np.ndarray) -> float:
        """Euclidean distance of the stacked block values to the PSD cone product.

        Uses the identity dist(z) = |proj(-z)| for the self-dual cone.
        """
        z = self.constants - self.apply(x)
        return float(np.linalg.norm(self.project_dual(z)))

    # -- export ------------------------------------------------------------

    def export_text(self, path):
        """Write the program in a plain text triplet format.

        Layout::

            conicprogram v1
            scalars <count>
            objective <scalar> <value>          # one line per nonzero
            bound <scalar> <lo> <hi>            # one line per coordinate
            pin <scalar> <value>
            block <index> <dim> <label>
            coeff <block> <i> <j> <scalar> <value>   # matrix entry convention
            const <block> <i> <j> <value>

        Entries use the symmetric matrix convention (value appears at (i, j)
        and (j, i)); only i <= j is listed.
        """
        lines = ["conicprogram v1", f"scalars {self.num_scalars}"]
        for i, v in enumerate(self.objective):
            if v != 0.0:
                lines.append(f"objective {i} {float(v)!r}")
        for i in range(self.num_scalars):
            lines.append(f"bound {i} {float(self.simple_set.lower[i])!r} "
                         f"{float(self.simple_set.upper[i])!r}")
        for i, v in zip(self.simple_set.pinned_idx, self.simple_set.pinned_val):
            lines.append(f"pin {i} {float(v)!r}")
        for bi, blk in enumerate(self.blocks):
            lines.append(f"block {bi} {blk.dim} {blk.label}")
            rows, cols, scale, _ = triu_info(blk.dim)
            coeffs = blk.coeffs
            for r, c, v in zip(coeffs.rows, coeffs.cols, coeffs.data):
                lines.append(
                    f"coeff {bi} {rows[r]} {cols[r]} {c} {float(v / scale[r])!r}"
                )
            for i, j in zip(rows, cols):
                v = blk.constant[i, j]
                if v != 0.0:
                    lines.append(f"const {bi} {i} {j} {float(v)!r}")
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        return path
