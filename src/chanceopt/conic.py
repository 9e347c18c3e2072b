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
stacked matrix is built on first use, and so is the projection plan,
which groups blocks by dimension and holds the index maps between the
stacked svec vector and the batched dense matrices.  Both keep work
buffers that every call reuses, so the loop allocates little beyond its
results; this is also why a program is not reentrant.  A 1x1 block's
cone is the half-line, so its projection is a clip at zero with no
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:
    from .relaxation import ProgramMeta

_SQRT2 = float(np.sqrt(2.0))


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
        buf = np.take(vec, take, out=self._buf, mode="clip")  # "raise" copies `out`
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

    def project(self, x: np.ndarray) -> np.ndarray:
        out = np.clip(x, self.lower, self.upper)
        if len(self.pinned_idx):
            out[self.pinned_idx] = self.pinned_val
        return out

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
    groups: list         # (dim, batch view, reconstruction view) per dimension
    batch: np.ndarray    # gathered matrices, then the scaled eigenvectors
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

    _stacked: Optional[SparseMatrix] = field(default=None, repr=False)
    _stacked_const: Optional[np.ndarray] = field(default=None, repr=False)
    _slices: Optional[list] = field(default=None, repr=False)
    _proj_plan: Optional[_ProjPlan] = field(default=None, repr=False)

    @property
    def num_scalars(self) -> int:
        return len(self.objective)

    # -- stacked operator ---------------------------------------------------

    def _ensure_stacked(self):
        if self._stacked is None:
            offsets = np.cumsum([0] + [b.tri_size for b in self.blocks])
            self._stacked = SparseMatrix(
                np.concatenate([b.coeffs.rows + off for b, off in zip(self.blocks, offsets)]),
                np.concatenate([b.coeffs.cols for b in self.blocks]),
                np.concatenate([b.coeffs.data for b in self.blocks]),
                (int(offsets[-1]), self.num_scalars),
            )
            self._stacked_const = np.concatenate([svec(b.constant) for b in self.blocks])
            self._slices = [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]

    @property
    def operator(self) -> SparseMatrix:
        """The stacked linear map x -> svec of all block left-hand sides."""
        self._ensure_stacked()
        return self._stacked

    @property
    def constants(self) -> np.ndarray:
        """Stacked svec of the block constant matrices."""
        self._ensure_stacked()
        return self._stacked_const

    @property
    def block_slices(self) -> list:
        self._ensure_stacked()
        return self._slices

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.operator @ x

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """The transpose product A^T z."""
        return self.operator.rmatvec(z)

    # -- batched PSD projection over the stacked svec space ------------------

    def _ensure_plan(self) -> _ProjPlan:
        if self._proj_plan is not None:
            return self._proj_plan
        self._ensure_stacked()
        by_dim: dict[int, list[int]] = {}
        for i, blk in enumerate(self.blocks):
            by_dim.setdefault(blk.dim, []).append(i)
        stacked = self._stacked.shape[0]
        source = np.empty(stacked, dtype=np.intp)
        scale = np.empty(stacked)
        gather, spans, off = [], [], 0
        for dim, members in sorted(by_dim.items()):
            tri = triu_info(dim)
            idx = np.array([np.arange(self._slices[i].start, self._slices[i].stop)
                            for i in members])
            n = len(members)
            gather.append(idx[:, tri.position].ravel())
            source[idx] = off + np.arange(n)[:, None] * dim * dim + tri.rows * dim + tri.cols
            scale[idx] = tri.scale
            spans.append((dim, n, off))
            off += n * dim * dim
        batch, recon = np.empty(off), np.empty(off)
        groups = [(dim, batch[o:o + n * dim * dim].reshape(n, dim, dim),
                   recon[o:o + n * dim * dim].reshape(n, dim, dim))
                  for dim, n, o in spans]
        gather = np.concatenate(gather)
        self._proj_plan = _ProjPlan(gather, scale[gather], groups, batch, recon, source, scale)
        return self._proj_plan

    def project_dual(self, s: np.ndarray) -> np.ndarray:
        """Blockwise PSD projection of a stacked svec vector.

        The PSD cone is self-dual, so this is both the primal and the dual
        projection.  The plan is built once per program: one gather turns
        ``s`` into a batch of dense symmetric matrices, blocks of equal
        dimension share one batched eigendecomposition, their clipped
        reconstructions land in a second batch, and one gather through the
        upper-triangle index reads the result back.  1x1 blocks are
        clipped at zero without an eigendecomposition.  Only the returned
        vector is newly allocated.
        """
        plan = self._ensure_plan()
        if s.shape != plan.source.shape:
            raise ValueError(f"vector of shape {s.shape} for a {plan.source.shape} projection")
        batch = np.take(s, plan.gather, out=plan.batch, mode="clip")  # "raise" copies `out`
        batch /= plan.divisor
        for dim, mats, recon in plan.groups:
            if dim == 1:
                np.maximum(mats, 0.0, out=recon)
                continue
            try:
                vals, vecs = np.linalg.eigh(mats)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"eigendecomposition failed on {len(mats)} blocks of dim "
                    f"{dim} (finite={np.all(np.isfinite(mats))})"
                ) from exc
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
