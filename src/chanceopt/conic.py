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

Coefficients are ``SparseMatrix`` triplets in row-major order; a program
checks at construction that every block's coefficients, constant and the
simple set fit its scalars.  Once per inner iteration the solver calls
``ConicProgram.gradient``, which applies the operator, projects onto the
PSD blocks and applies the adjoint in one pass, so their set-up is paid
once per program: the stacked matrix and the projection plan are cached
properties, built on first use.  The plan groups blocks by lane and
dimension and holds the index maps between the stacked svec vector and
the batched dense matrices; the gradient reads the projected matrices
straight into the adjoint's entries through the plan's map composed with
the operator's rows.  ``gradient`` and ``project_dual`` share one
projection core and differ only in how they fill the batch and read it
back.  The operator and the plan keep work buffers that every call
reuses, so the loop allocates little beyond its results; this is also
why a program is not reentrant.  Every block, 1x1 blocks included, goes
through the same batched eigendecomposition: for a 1x1 block LAPACK
returns its value and the eigenvector 1, so the projection is the clip
at zero.

The projection clips the eigenvalues into a second buffer, so after a
call each block's eigenvalues and eigenvectors stay readable
(``eigenpairs``), as does the squared norm of the result
(``projected_norm2``).  From them ``newton_matrix`` forms the generalized
Hessian of the augmented Lagrangian, ``sum_b A_b^T J_b A_b``, densely,
for the Newton inner solver on small programs.

On small blocks a projection costs more in numpy call overhead than in
arithmetic, so the hot paths make few and cheap calls.  The projection
calls LAPACK's batched eigensolver through the generalized ufunc that
``np.linalg.eigh`` wraps, a private numpy name: the wrapper's type
checks, error-state context and result tuple cost as much as the
decomposition of the toy's 3x3 and 6x6 blocks, and the values are the
same bits.  A failed decomposition leaves NaN eigenvalues, which one
check per lane turns into ``NumericalError``.  The simple set folds its
pins into its clamp bounds (lower = upper = the pinned value) on first
use, so its projection is one maximum and one minimum.

The projection's cost is the eigendecompositions of the large blocks
(from union order 2 on), so while ``ConicProgram.lanes`` is active, as it
is for every ``alcc_solve``, the plan's blocks are split into lanes: lane
0 runs on the caller's thread and the other lanes run as tasks of a
thread pool that lives for the solve, one thread per lane.  The plan
makes the split once, for the CPUs usable when it is built: blocks go
largest first to the least-loaded lane, at a cost of dim**3 each, and a
second lane is used only when every lane's work is well above one
handoff to the pool (``_LANE_MIN_WORK``); the batch is laid out lane by
lane, so each lane eigendecomposes, clips and rebuilds its own contiguous
slices of the plan's buffers, while the gather before and the read-back
after stay one call each.  Each block still goes through the same LAPACK
call on the same data, so the result is the same bits for any number of
lanes.  For the solve's duration the OpenBLAS that numpy loaded is held
at one thread (its own threads would only compete with the lanes) and
its count is restored afterwards.  Where there is one usable CPU, no
OpenBLAS whose thread count can be set, or no block large enough, the
plan has one lane: one batched call per dimension on the caller's
thread, with OpenBLAS left as it is and no pool.  Outside ``lanes`` the
caller's thread runs every lane in turn.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionError, NumericalError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from .relaxation import ProgramMeta

_SQRT2 = float(np.sqrt(2.0))
_eigh = _umath_linalg.eigh_lo  # the batched LAPACK call behind np.linalg.eigh


def _eigh_failed(dim: int, parts: list) -> NumericalError:
    """The error naming every block of dimension ``dim``; ``parts`` hold them."""
    finite = all(np.isfinite(mats).all() for mats in parts)
    return NumericalError(f"eigendecomposition failed on {sum(map(len, parts))} blocks "
                          f"of dim {dim} (finite={finite})")


# A lane other than the caller's is used only when it receives at least
# the work of one 30x30 block (costs counted as dim**3).  Measured on a
# 2-vCPU host with OpenBLAS at one thread: one eigendecomposition takes
# 10.6 us at dim 6, 26 us at 11, 92 us at 21, 155 us at 30, 345 us at 45
# and 626 us at 66, and submitting an empty lane to an idle pool thread
# and waiting for it takes about 90 us; so a lane's work is at least
# about two handoffs.  At that least work (two 30x30 blocks) two lanes
# take as long as one; at union order 2 (about 1,300 us per lane) they
# take about 70% of the one-lane time.
_LANE_MIN_WORK = 30**3


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _openblas_threads() -> Optional[tuple]:
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None.

    numpy's own OpenBLAS exports the 64-bit-integer names, which are asked
    for first, so another OpenBLAS in the process (scipy's) is not taken.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for get, put in (("scipy_openblas_get_num_threads64_",
                      "scipy_openblas_set_num_threads64_"),
                     ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                     ("openblas_get_num_threads", "openblas_set_num_threads")):
        for path in libs:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            getter, setter = getattr(lib, get, None), getattr(lib, put, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Hold the OpenBLAS numpy loaded at one thread while the block runs.

    Its thread count is restored on the way out, however the block ends.
    Where no OpenBLAS thread count can be set, this does nothing.
    """
    found = _openblas_threads()
    if found is None:
        yield
        return
    get, put = found
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _partition(dims: list, cpus: int) -> list:
    """Indices into ``dims`` per lane: the most lanes, up to ``cpus``, that
    each receive at least ``_LANE_MIN_WORK``, or one lane with every block.

    Blocks go largest first (ties in order) to the least-loaded lane (ties
    to the lowest), a block of dim d costing d**3.
    """
    order = sorted(range(len(dims)), key=lambda i: -dims[i])
    for count in range(min(cpus, len(dims)), 1, -1):
        loads, members = [0] * count, [[] for _ in range(count)]
        for i in order:
            lane = loads.index(min(loads))
            members[lane].append(i)
            loads[lane] += dims[i] ** 3
        if min(loads) >= _LANE_MIN_WORK:
            return members
    return [list(range(len(dims)))]


def psd_jacobian_weights(lam: np.ndarray) -> np.ndarray:
    """Omega of the PSD projection's derivative at eigenvalues ``lam``.

    ``Omega_ij = (lam_i+ - lam_j+) / (lam_i - lam_j)``: 1 where both are
    positive, 0 where neither is, and ``lam_i+ / (lam_i - lam_j)`` (or its
    mirror) between, where the denominator is at least the positive one.
    """
    plus = np.maximum(lam, 0.0)
    pos = lam > 0.0
    omega = np.logical_and.outer(pos, pos).astype(float)
    np.divide(np.subtract.outer(plus, plus), np.subtract.outer(lam, lam), out=omega,
              where=np.not_equal.outer(pos, pos))
    return omega


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
        # the products gather with mode="clip", which would clamp an index outside
        if len(rows) and (min(rows.min(), cols.min()) < 0 or rows.max() >= shape[0]
                          or cols.max() >= shape[1]):
            raise ValueError(f"triplet index outside the shape {shape}")
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

    def __post_init__(self):
        for name in ("lower", "upper"):
            if np.isnan(getattr(self, name)).any():
                raise ValueError(f"SimpleSet {name} holds NaN")
        if not np.isfinite(self.pinned_val).all():
            raise ValueError("SimpleSet pinned_val holds a value that is not finite")
        if len(bad := np.flatnonzero(np.greater(self.lower, self.upper))):
            raise ValueError(f"SimpleSet lower[{bad[0]}] = {self.lower[bad[0]]} exceeds "
                             f"upper[{bad[0]}] = {self.upper[bad[0]]}")

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The clamp bounds with each pinned coordinate's interval its value."""
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        if len(self.pinned_idx):
            lo[self.pinned_idx] = hi[self.pinned_idx] = self.pinned_val
        return lo, hi

    def project(self, x: np.ndarray) -> np.ndarray:
        lo, hi = self.bounds
        out = np.maximum(x, lo)
        return np.minimum(out, hi, out=out)

    def diameter(self) -> float:
        """Exact Euclidean diameter (pinned coordinates contribute nothing)."""
        lo, hi = self.bounds
        return float(np.sqrt(np.sum((hi - lo)**2)))


class _Piece(NamedTuple):
    """One lane's blocks of one dimension, as views of the plan's buffers."""

    dim: int
    mats: np.ndarray     # (n, dim, dim) of the batch: gathered, then scaled eigenvectors
    vals: np.ndarray     # (n, dim): eigenvalues
    vecs: np.ndarray     # (n, dim, dim): eigenvectors
    recon: np.ndarray    # (n, dim, dim): projected matrices
    columns: np.ndarray  # clipped eigenvalues as (n, 1, dim): the factor of each column
    vecs_t: np.ndarray   # vecs.transpose(0, 2, 1)


class _Lane(NamedTuple):
    pieces: list         # _Piece per dimension, in increasing dimension
    vals: np.ndarray     # the eigenvalues of every piece, one contiguous view
    plus: np.ndarray     # the same clipped at zero, one contiguous view


class _ProjPlan(NamedTuple):
    """Index maps and work buffers for projecting every block in one pass.

    The batch holds each block as a dense matrix, lane by lane: the lane's
    blocks, those of one dimension next to each other and the dimensions
    in increasing order.
    """

    gather: np.ndarray   # (batch,): stacked svec position of each batch entry
    divisor: np.ndarray  # (batch,): svec scale of that entry
    lanes: list          # _Lane per lane; lane 0 is the caller's
    batch: np.ndarray    # gathered matrices, then the scaled eigenvectors
    recon: np.ndarray    # projected matrices
    source: np.ndarray   # (stacked,): reconstruction position of each svec entry
    scale: np.ndarray    # (stacked,): its svec scale
    plus: np.ndarray     # every clipped eigenvalue
    eigenpairs: tuple    # read-only (eigenvalues, eigenvectors) views per program block


def _project_lane(lane: _Lane) -> Optional[tuple]:
    """Eigendecompose, clip and rebuild one lane's pieces.

    The lane's eigenvalues are one contiguous array, so one maximum clips
    them all, into a second array that keeps the eigenvalues as they are.

    Returns None, ``(0, dim)`` when LAPACK's "invalid value" warning was
    raised as an error on the piece of that dimension (a warnings filter
    of "error", or numpy's error state "raise"), or ``(1, dim)`` for
    the first piece with a non-finite eigenvalue (LAPACK failed, or a
    block was not finite); the lane then stops before rebuilding.
    """
    pieces, lane_vals, lane_plus = lane
    for dim, mats, vals, vecs, _, _, _ in pieces:
        try:
            _eigh(mats, signature="d->dd", out=(vals, vecs))
        except (RuntimeWarning, FloatingPointError):
            return 0, dim
    # isfinite sets no floating-point flag: a sum of squares would overflow,
    # and warn or raise, beyond |eigenvalue| ~ 1.34e154
    if np.count_nonzero(np.isfinite(lane_vals)) < lane_vals.size:
        for dim, _, vals, _, _, _, _ in pieces:
            if not np.isfinite(vals).all():
                return 1, dim
    np.maximum(lane_vals, 0.0, out=lane_plus)
    for _, mats, _, vecs, recon, columns, vecs_t in pieces:
        np.multiply(vecs, columns, out=mats)
        np.matmul(mats, vecs_t, out=recon)
    return None


@dataclass
class ConicProgram:
    """A conic program with its stacked operator and projection plan.

    Construction checks that every block and the simple set fit the
    ``num_scalars`` of the objective, and raises ``DimensionError``
    otherwise: the products and the projection gather with
    ``mode="clip"``, which would clamp a stray index instead of failing.
    It also needs one block at least, whose last row ends the operator.

    Not reentrant: ``apply``, ``adjoint``, ``project_dual`` and
    ``gradient`` write into work buffers the program keeps, so one program
    serves one caller at a time.
    """

    objective: np.ndarray
    blocks: list
    simple_set: SimpleSet
    meta: Optional[ProgramMeta] = None   # set by the relaxation builders
    _pool: Optional[ThreadPoolExecutor] = field(default=None, init=False, repr=False,
                                                compare=False)

    def __post_init__(self):
        if not self.blocks:
            raise DimensionError("a conic program needs at least one PSD block")
        n = self.num_scalars
        for i, blk in enumerate(self.blocks):
            if blk.coeffs.shape != (blk.tri_size, n):
                raise DimensionError(f"block {i} ({blk.label}): coeffs of shape "
                                     f"{blk.coeffs.shape}, expected ({blk.tri_size}, {n})")
            if np.shape(blk.constant) != (blk.dim, blk.dim):
                raise DimensionError(f"block {i} ({blk.label}): constant of shape "
                                     f"{np.shape(blk.constant)}, expected ({blk.dim}, {blk.dim})")
        simple = self.simple_set
        for name in ("lower", "upper"):
            if np.shape(getattr(simple, name)) != (n,):
                raise DimensionError(f"simple set {name} of shape "
                                     f"{np.shape(getattr(simple, name))}, expected ({n},)")
        pinned = np.asarray(simple.pinned_idx)
        if len(bad := pinned[(pinned < 0) | (pinned >= n)]):
            raise DimensionError(f"simple set pins index {bad[0]}, outside 0..{n - 1}")

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
        dims = [blk.dim for blk in self.blocks]
        lanes = _partition(dims, _usable_cpus())
        if len(lanes) > 1 and _openblas_threads() is None:
            lanes = [list(range(len(dims)))]
        batch, recon, vecs = (np.empty(sum(dim * dim for dim in dims)) for _ in range(3))
        vals, plus = np.empty(sum(dims)), np.empty(sum(dims))
        stacked = self.block_slices[-1].stop
        source, scale = np.empty(stacked, dtype=np.intp), np.empty(stacked)
        gather, pairs, plan_lanes = [], [None] * len(dims), []

        def read_only(arr: np.ndarray) -> np.ndarray:
            view = arr.view()
            view.flags.writeable = False
            return view

        off = v = 0
        for members in lanes:
            by_dim: dict[int, list[int]] = {}
            for i in sorted(members):
                by_dim.setdefault(dims[i], []).append(i)
            pieces, first = [], v
            for dim, group in sorted(by_dim.items()):
                tri, n = triu_info(dim), len(group)
                idx = np.array([np.arange(self.block_slices[i].start, self.block_slices[i].stop)
                                for i in group])
                gather.append(idx[:, tri.position].ravel())
                source[idx] = off + np.arange(n)[:, None] * dim * dim + tri.rows * dim + tri.cols
                scale[idx] = tri.scale
                mats, piece_vecs, out = (buf[off:off + n * dim * dim].reshape(n, dim, dim)
                                         for buf in (batch, vecs, recon))
                piece_vals = vals[v:v + n * dim].reshape(n, dim)
                piece_plus = plus[v:v + n * dim].reshape(n, dim)
                pieces.append(_Piece(dim, mats, piece_vals, piece_vecs, out,
                                     piece_plus[:, None, :], piece_vecs.transpose(0, 2, 1)))
                for i, lam, q in zip(group, piece_vals, piece_vecs):
                    pairs[i] = (read_only(lam), read_only(q))
                off += n * dim * dim
                v += n * dim
            plan_lanes.append(_Lane(pieces, vals[first:v], plus[first:v]))
        gather = np.concatenate(gather)
        return _ProjPlan(gather, scale[gather], plan_lanes, batch, recon, source, scale, plus,
                         tuple(pairs))

    @contextmanager
    def lanes(self) -> Iterator[int]:
        """Project on one thread per lane of the plan while the block runs.

        Yields the number of lanes.  With more than one, a pool with one
        thread per lane after the first opens here and is shut down on the
        way out, however the block ends, and the OpenBLAS that numpy loaded
        runs at one thread meanwhile; its thread count is then restored.
        An entry while the pool is open starts nothing.
        """
        count = len(self._plan.lanes)
        if count == 1 or self._pool is not None:
            yield count
            return
        # imported here, not at the top: it loads logging, which every run would pay for
        from concurrent.futures import ThreadPoolExecutor

        with one_blas_thread():
            try:
                with ThreadPoolExecutor(count - 1, thread_name_prefix="chanceopt-lane") as pool:
                    self._pool = pool
                    yield count
            finally:
                self._pool = None

    def project_dual(self, s: np.ndarray) -> np.ndarray:
        """Blockwise PSD projection of a stacked svec vector.

        The PSD cone is self-dual, so this is both the primal and the dual
        projection.  The plan is built once per program: one gather turns
        ``s`` into a batch of dense symmetric matrices, each lane's blocks
        of equal dimension share one batched eigendecomposition, their
        clipped reconstructions land in a second batch, and one gather
        through the upper-triangle index reads the result back.  Inside
        ``lanes`` the pool runs the lanes after the first while the
        caller runs lane 0; elsewhere the caller runs them all.  Only
        the returned vector is newly allocated.  A non-finite eigenvalue
        (LAPACK failed, or a block was not finite) raises
        ``NumericalError`` naming every block of its dimension, also where
        warnings are errors, or numpy's error state raises, and LAPACK's
        warning comes first.
        """
        plan = self._plan
        if s.shape != plan.source.shape:
            raise ValueError(f"vector of shape {s.shape} for a {plan.source.shape} projection")
        self._project_batch(s)
        out = plan.recon.take(plan.source)
        out *= plan.scale
        return out

    @cached_property
    def _adjoint_readback(self) -> tuple[np.ndarray, np.ndarray]:
        """(reconstruction position, svec scale) of the operator's row of each entry."""
        rows, plan = self.operator.rows, self._plan
        return plan.source[rows], plan.scale[rows]

    def gradient(self, x: np.ndarray, c_over_nu: np.ndarray,
                 theta_b: np.ndarray) -> np.ndarray:
        """Gradient of the smooth augmented-Lagrangian part at ``x``.

        ``c_over_nu`` is c/nu and ``theta_b`` is theta + b.  By the cone
        identity z - proj(z) = -proj(-z), one projection of theta + b - A(x)
        gives the gradient  c/nu - A*(proj(theta + b - A(x))).

        One pass over the plan: the operator is applied inline, the
        projection is ``project_dual``'s, and its read-back and the adjoint
        are one chain, ``recon[source[rows]] * scale[rows] * data`` summed
        by column.  Those are the operations of ``project_dual`` then
        ``adjoint``, in the same order, so the result is the same bits; it
        raises what ``project_dual`` raises on a failed projection.
        """
        A = self.operator
        m, n = A.shape
        if x.shape != (n,) or c_over_nu.shape != (n,) or theta_b.shape != (m,):
            raise ValueError(f"gradient of a {A.shape} operator at x of shape {x.shape}, "
                             f"c/nu {c_over_nu.shape}, theta + b {theta_b.shape}")
        source, scale = self._adjoint_readback
        buf = x.take(A.cols, out=A._buf, mode="clip")  # "raise" copies `out`
        buf *= A.data
        s = np.bincount(A.rows, weights=buf, minlength=m)
        self._project_batch(np.subtract(theta_b, s, out=s))
        buf = self._plan.recon.take(source, out=A._buf, mode="clip")
        buf *= scale
        buf *= A.data
        grad = np.bincount(A.cols, weights=buf, minlength=n)
        return np.subtract(c_over_nu, grad, out=grad)

    def _project_batch(self, s: np.ndarray) -> None:
        """Project the blocks of ``s`` into the plan's reconstruction buffer.

        One gather fills the batch; the lanes and the check for a failed
        eigendecomposition follow.
        """
        plan = self._plan
        batch = s.take(plan.gather, out=plan.batch, mode="clip")  # "raise" copies `out`
        batch /= plan.divisor
        pool = self._pool
        if pool is None:
            found = list(map(_project_lane, plan.lanes))
        else:
            # each task runs in a copy of the caller's context, which holds
            # numpy's error state, so floating-point errors are treated alike
            tasks = [pool.submit(contextvars.copy_context().run, _project_lane, lane)
                     for lane in plan.lanes[1:]]
            try:
                found = [_project_lane(plan.lanes[0])]
            finally:
                # no lane may still write the buffers once this returns;
                # exception() waits as concurrent.futures.wait does, at a tenth of its cost
                for task in tasks:
                    task.exception()
            found += [task.result() for task in tasks]   # raises a lane's exception
        if any(found):
            failed = [f for f in found if f is not None]
            dim = min(failed)[1]   # a raised warning first, then the smallest dim
            raise _eigh_failed(dim, [piece.mats for lane in plan.lanes
                                     for piece in lane.pieces if piece.dim == dim])

    def eigenpairs(self) -> tuple:
        """(eigenvalues, eigenvectors) of each block at the last projection.

        One read-only pair per block, in block order, which ``gradient`` or
        ``project_dual`` overwrites: the ascending eigenvalues of the
        block's dense matrix and its orthonormal eigenvectors as columns, so
        ``(Q * lam) @ Q.T`` rebuilds the matrix that was projected.  A 1x1
        block's pair is its value and ``[[1.0]]``, as LAPACK returns them.
        """
        return self._plan.eigenpairs

    def projected_norm2(self) -> float:
        """Squared norm of the last projection's result, from its clipped eigenvalues."""
        plus = self._plan.plus
        return float(plus.dot(plus))

    @cached_property
    def _dense_coefficients(self) -> list:
        """(positions, mats) per block: the dense matrices of the k scalars it
        holds, and the k*k positions of their (scalar, scalar) pairs in the
        flattened (num_scalars, num_scalars) Hessian, row-major."""
        out = []
        for blk in self.blocks:
            tri, cf = triu_info(blk.dim), blk.coeffs
            scalars, which = np.unique(cf.cols, return_inverse=True)
            mats = np.zeros((len(scalars), blk.dim, blk.dim))
            values = cf.data / tri.scale[cf.rows]
            mats[which, tri.rows[cf.rows], tri.cols[cf.rows]] = values
            mats[which, tri.cols[cf.rows], tri.rows[cf.rows]] = values
            out.append(((scalars[:, None] * self.num_scalars + scalars).reshape(-1), mats))
        return out

    def newton_matrix(self) -> np.ndarray:
        """The generalized Hessian ``sum_b A_b^T J_b A_b`` at the last projection.

        ``J_b`` is the derivative of block b's projection at its matrix
        ``S = Q diag(lam) Q^T``: ``J[H] = Q (Omega o Q^T H Q) Q^T`` with
        ``Omega = psd_jacobian_weights(lam)``.  Entry (k, l) is
        ``<C_k, J[C_l]>``, the sum of ``Omega o (Q^T C_k Q) o (Q^T C_l Q)``
        over the block's dense coefficient matrices, which the program
        caches.  A block with no positive eigenvalue adds nothing.  Each
        block's Gram product is added through its cached flat positions, which
        on the toy's blocks costs a quarter of an ``np.ix_`` index.  Dense,
        (num_scalars, num_scalars).
        """
        n = self.num_scalars
        hess = np.zeros(n * n)
        for (lam, q), (positions, mats) in zip(self._plan.eigenpairs, self._dense_coefficients):
            if lam[-1] <= 0.0:
                continue
            rotated = q.T @ mats @ q
            weighted = rotated * psd_jacobian_weights(lam)
            k = len(mats)
            hess[positions] += (rotated.reshape(k, -1) @ weighted.reshape(k, -1).T).reshape(-1)
        return hess.reshape(n, n)

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
