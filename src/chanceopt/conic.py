"""Conic program container: linear objective, affine PSD blocks, box with pins.

A program is  min c.x  subject to, per block b,
``sum_i x_i C_i^b - C_0^b`` positive semidefinite, and x in a simple set
(per-coordinate clamp intervals with some coordinates pinned to fixed
values).

Blocks are stored in symmetric vectorization ("svec") form: the upper
triangle row-major with off-diagonal entries scaled by sqrt(2), which
preserves inner products.  With that convention the adjoint of the stacked
constraint operator is the plain transpose of its matrix, so operator
norms computed on the matrix are the true operator norms.

The solver applies the operator, its adjoint and the blockwise PSD
projection once per inner iteration, so their set-up is paid once per
program: the stacked matrix and its transpose (kept as CSR) are built on
first use, and so is the projection plan, which groups blocks by
dimension and holds the index maps between the stacked svec vector and
the batched dense matrices.  A 1x1 block's cone is the half-line, so its
projection is a clip at zero with no eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError

if TYPE_CHECKING:
    from .relaxation import ProgramMeta

_SQRT2 = float(np.sqrt(2.0))


@lru_cache(maxsize=None)
def triu_info(dim: int):
    """Row/col indices of the upper triangle plus the svec scaling vector."""
    rows, cols = np.triu_indices(dim)
    scale = np.where(rows == cols, 1.0, _SQRT2)
    rows.setflags(write=False)
    cols.setflags(write=False)
    scale.setflags(write=False)
    return rows, cols, scale


def svec(mat: np.ndarray) -> np.ndarray:
    rows, cols, scale = triu_info(mat.shape[0])
    return mat[rows, cols] * scale


def unsvec(vec: np.ndarray, dim: int) -> np.ndarray:
    rows, cols, scale = triu_info(dim)
    entries = vec / scale
    out = np.zeros((dim, dim))
    out[rows, cols] = entries
    out[cols, rows] = entries
    return out


@dataclass
class PsdBlock:
    """One affine PSD constraint: sum_i x_i C_i - C_0 must be PSD."""

    dim: int
    label: str
    coeffs: sp.csr_matrix     # (tri_size, num_scalars), svec rows
    constant: np.ndarray      # C_0, dense symmetric (dim, dim)

    @property
    def tri_size(self) -> int:
        return self.dim * (self.dim + 1) // 2

    def value(self, x: np.ndarray) -> np.ndarray:
        return unsvec(self.coeffs @ x, self.dim) - self.constant


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


class _ProjGroup(NamedTuple):
    """Index maps for projecting all blocks of one dimension at once."""

    dim: int
    idx: np.ndarray          # (n*tri,): stacked positions of the members' svec entries
    gather: np.ndarray       # (n, dim, dim): stacked position of entry (i, j)
    entry_scale: np.ndarray  # (dim, dim): svec scale of entry (i, j)
    triu: np.ndarray         # (n*tri,): positions of those entries in the flat batch
    scale: np.ndarray        # (n*tri,): their svec scale


@dataclass
class ConicProgram:
    objective: np.ndarray
    blocks: list
    simple_set: SimpleSet
    meta: Optional[ProgramMeta] = None   # set by the relaxation builders

    _stacked: Optional[sp.csr_matrix] = field(default=None, repr=False)
    _stacked_t: Optional[sp.csr_matrix] = field(default=None, repr=False)
    _stacked_const: Optional[np.ndarray] = field(default=None, repr=False)
    _slices: Optional[list] = field(default=None, repr=False)
    _proj_plan: Optional[list] = field(default=None, repr=False)

    @property
    def num_scalars(self) -> int:
        return len(self.objective)

    # -- stacked operator ---------------------------------------------------

    def _ensure_stacked(self):
        if self._stacked is None:
            self._stacked = sp.vstack([b.coeffs for b in self.blocks], format="csr")
            self._stacked_t = self._stacked.T.tocsr()
            self._stacked_const = np.concatenate([svec(b.constant) for b in self.blocks])
            slices, off = [], 0
            for b in self.blocks:
                slices.append(slice(off, off + b.tri_size))
                off += b.tri_size
            self._slices = slices

    @property
    def operator(self) -> sp.csr_matrix:
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
        """The transpose product A^T z, with A^T cached as CSR."""
        self._ensure_stacked()
        return self._stacked_t @ z

    def block_values(self, x: np.ndarray) -> list:
        """Dense block matrices sum_i x_i C_i - C_0 at a point."""
        w = self.apply(x) - self.constants
        return [unsvec(w[s], b.dim) for b, s in zip(self.blocks, self.block_slices)]

    # -- batched PSD projection over the stacked svec space ------------------

    def _ensure_plan(self):
        if self._proj_plan is not None:
            return
        self._ensure_stacked()
        by_dim: dict[int, list[int]] = {}
        for i, blk in enumerate(self.blocks):
            by_dim.setdefault(blk.dim, []).append(i)
        plan = []
        for dim, members in sorted(by_dim.items()):
            rows, cols, scale = triu_info(dim)
            idx = np.array([np.arange(self._slices[i].start, self._slices[i].stop)
                            for i in members])
            tri = np.empty((dim, dim), dtype=np.intp)
            tri[rows, cols] = tri[cols, rows] = np.arange(len(rows))
            n = len(members)
            plan.append(_ProjGroup(
                dim=dim, idx=idx.ravel(), gather=idx[:, tri], entry_scale=scale[tri],
                triu=(np.arange(n)[:, None] * dim * dim + rows * dim + cols).ravel(),
                scale=np.tile(scale, n),
            ))
        self._proj_plan = plan

    def project_dual(self, s: np.ndarray) -> np.ndarray:
        """Blockwise PSD projection of a stacked svec vector.

        The PSD cone is self-dual, so this is both the primal and the dual
        projection.  The plan is built once per program: blocks of equal
        dimension are gathered straight from ``s`` into one batch of dense
        symmetric matrices and share one batched eigendecomposition, whose
        clipped reconstruction is written back through the upper-triangle
        index.  1x1 blocks are clipped at zero without an eigendecomposition.
        """
        self._ensure_plan()
        out = np.empty_like(s)
        for g in self._proj_plan:
            if g.dim == 1:
                out[g.idx] = np.maximum(s[g.idx], 0.0)
                continue
            mats = s[g.gather] / g.entry_scale
            try:
                vals, vecs = np.linalg.eigh(mats)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"eigendecomposition failed on {len(mats)} blocks of dim "
                    f"{g.dim} (finite={np.all(np.isfinite(mats))})"
                ) from exc
            np.maximum(vals, 0.0, out=vals)
            proj = (vecs * vals[:, None, :]) @ vecs.transpose(0, 2, 1)
            out[g.idx] = proj.reshape(-1)[g.triu] * g.scale
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
            rows, cols, scale = triu_info(blk.dim)
            coo = blk.coeffs.tocoo()
            for r, c, v in zip(coo.row, coo.col, coo.data):
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
