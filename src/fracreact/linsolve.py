"""Sparse assembly and direct solution services.

Every system of a run has one sparsity pattern: the diagonal plus both
entries of each connection. A ``SolvePlan`` holds it once, in a fixed
fill-reducing order: the symmetric ``MMD_AT_PLUS_A`` ordering of one
structural stand-in, and the CSC pattern of the matrix permuted by it.
The ordering is read off an incomplete factor (``spilu``), which picks
the same permutation as a full ``splu`` of the stand-in without its
cost. A solve then scatters its listed entries into the pattern by slot
(``assemble_arrays``) and factors in that order with sparse LU
(``factor``), always with SuperLU's smallest supernode settings
(``relax=1, panel_size=1``): they regroup the factorisation's work and
leave its fill unchanged. Both are deterministic across reruns on the
same platform, which the output regression tests rely on; a caller that
keeps a matrix and its factor solves a new rhs with them (``lu``).

Every solve meets one rule, with no fallback: the normwise residual
``||Ax - b|| / ||b||`` is at most ``DEFAULT_TOL``, or ``solve`` raises
NumericError. The mass audit of the splitting scheme thus never rests
on a solve that missed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import NumericError

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SolvePlan:
    """Ordering and CSC pattern shared by every system on one set of
    connections. Slots index the pattern's entries."""

    perm: np.ndarray      # new index of each dof (int64)
    indptr: np.ndarray    # CSC pattern of the permuted matrix
    indices: np.ndarray
    diag: np.ndarray      # slot of each dof's diagonal entry
    ij: np.ndarray        # slot of (ci, cj) per connection
    ji: np.ndarray        # slot of (cj, ci) per connection

    def permute(self, rhs) -> np.ndarray:
        """``rhs`` in the permuted dof order of the plan's systems."""
        b = np.empty(len(self.perm))
        b[self.perm] = rhs
        return b


@dataclass(frozen=True)
class SparseSystem:
    """A permuted system; ``solve`` returns x in the same order."""

    matrix: sps.csc_matrix
    rhs: np.ndarray


def _pattern(n: int, rows, cols):
    """CSC ``indptr`` and ``indices`` of the entries (rows, cols), and
    the slot of each entry. Keys are column-major and 64-bit: n*n passes
    the int32 range from n = 46,341."""
    keys, slots = np.unique(cols * n + rows, return_inverse=True)
    return (np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32),
            (keys % n).astype(np.int32), slots)


def build_plan(n: int, ci, cj) -> SolvePlan:
    """Plan for n dofs and the connections (ci, cj). The ordering is the
    column permutation SuperLU picks with ``MMD_AT_PLUS_A`` for a
    stand-in of the pattern (1 on the diagonal, -1e-3 per entry of each
    connection). It is taken from ``spilu``, whose ordering step is the
    one ``splu`` runs, so no full LU of the stand-in is made."""
    ci = np.asarray(ci, dtype=np.int64)
    cj = np.asarray(cj, dtype=np.int64)
    if len(ci) and (min(ci.min(), cj.min()) < 0 or max(ci.max(), cj.max()) >= n):
        raise IndexError(f"connection index out of range for dimension {n}")
    idx = np.arange(n, dtype=np.int64)
    rows = np.concatenate([idx, ci, cj])
    cols = np.concatenate([idx, cj, ci])
    indptr, indices, slots = _pattern(n, rows, cols)
    weights = np.r_[np.ones(n), np.full(2 * len(ci), -1e-3)]
    stand_in = sps.csc_matrix(
        (np.bincount(slots, weights=weights, minlength=len(indices)),
         indices, indptr), shape=(n, n))
    perm = spla.spilu(stand_in, permc_spec="MMD_AT_PLUS_A", drop_tol=1.0,
                      fill_factor=1).perm_c.astype(np.int64)
    indptr, indices, slots = _pattern(n, perm[rows], perm[cols])
    m = len(ci)
    return SolvePlan(perm=perm, indptr=indptr, indices=indices,
                     diag=slots[:n], ij=slots[n:n + m], ji=slots[n + m:])


def assemble_arrays(plan: SolvePlan, slots, vals, rhs) -> SparseSystem:
    """The permuted system with ``vals`` summed into the pattern at
    ``slots`` in listed order, and ``rhs`` permuted to match."""
    n = len(plan.perm)
    data = np.bincount(slots, weights=vals, minlength=len(plan.indices))
    return SparseSystem(
        matrix=sps.csc_matrix((data, plan.indices, plan.indptr), shape=(n, n)),
        rhs=plan.permute(rhs))


def factor(matrix: sps.csc_matrix):
    """Sparse LU of ``matrix`` in its own (already permuted) column
    order, with the fixed supernode settings ``relax=1, panel_size=1``."""
    try:
        with np.errstate(all="ignore"):
            return spla.splu(matrix, permc_spec="NATURAL", relax=1, panel_size=1)
    except RuntimeError as exc:
        raise NumericError(f"sparse factorisation failed: {exc}") from exc


def solve(system: SparseSystem, *, lu=None) -> np.ndarray:
    """Direct sparse LU solve with one acceptance rule.

    The matrix is factored with ``factor``, unless ``lu`` is given: a
    factor of a matrix equal to this one, which is then used as is.
    The solution is returned when the normwise residual
    ``||Ax - b|| / ||b||`` (``||b||`` taken as 1 when b = 0) is at most
    ``DEFAULT_TOL``. Otherwise, and on non-finite input or output or a
    failed factorisation, NumericError is raised; failure is never
    silent.
    """
    a, b = system.matrix, system.rhs
    if not (np.isfinite(a.data).all() and np.isfinite(b).all()):
        raise NumericError("non-finite entries in linear system")
    with np.errstate(all="ignore"):
        x = (factor(a) if lu is None else lu).solve(b)
    if not np.isfinite(x).all():
        raise NumericError("solver produced non-finite solution (singular system)")
    # the 2-norms as np.linalg.norm takes them for 1-D float64
    r = a @ x - b
    bnorm = math.sqrt(b.dot(b))
    res = math.sqrt(r.dot(r)) / (bnorm if bnorm > 0 else 1.0)
    if res > DEFAULT_TOL:
        raise NumericError(f"linear solve residual {res:.3e} exceeds "
                           f"tolerance {DEFAULT_TOL:.3e}")
    return x
