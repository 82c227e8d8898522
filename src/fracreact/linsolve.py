"""Sparse assembly and direct solution services.

Systems at desk scale stay below a few 10^4 unknowns, so a sparse LU
factorisation is the default path; it is deterministic across reruns on
the same platform, which the output regression tests rely on.

Every solve meets one rule, with no fallback: the normwise residual
``||Ax - b|| / ||b||`` is at most ``DEFAULT_TOL``, or ``solve`` raises
NumericError. The mass audit of the splitting scheme thus never rests
on a solve that missed it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import NumericError

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SparseSystem:
    matrix: sps.csr_matrix
    rhs: np.ndarray


def assemble_arrays(rows, cols, vals, n: int, rhs=None) -> SparseSystem:
    """Build a CSR system from row, column and value arrays; duplicate
    entries are summed."""
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if len(rows) and (rows.min() < 0 or rows.max() >= n
                      or cols.min() < 0 or cols.max() >= n):
        raise IndexError(f"triplet index out of range for dimension {n}")
    mat = sps.coo_matrix((np.asarray(vals, dtype=float), (rows, cols)),
                         shape=(n, n)).tocsr()
    b = np.zeros(n) if rhs is None else np.asarray(rhs, dtype=float)
    return SparseSystem(matrix=mat, rhs=b)


def solve(system: SparseSystem) -> np.ndarray:
    """Direct sparse LU solve with one acceptance rule.

    The solution is returned when the normwise residual
    ``||Ax - b|| / ||b||`` (``||b||`` taken as 1 when b = 0) is at most
    ``DEFAULT_TOL``. Otherwise, and on non-finite input or output or a
    failed factorisation, NumericError is raised; failure is never
    silent.
    """
    a, b = system.matrix, system.rhs
    if not np.all(np.isfinite(a.data)) or not np.all(np.isfinite(b)):
        raise NumericError("non-finite entries in linear system")
    try:
        with np.errstate(all="ignore"):
            x = spla.splu(a.tocsc()).solve(b)
    except RuntimeError as exc:
        raise NumericError(f"sparse factorisation failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericError("solver produced non-finite solution (singular system)")
    bnorm = np.linalg.norm(b)
    res = np.linalg.norm(a @ x - b) / (bnorm if bnorm > 0 else 1.0)
    if res > DEFAULT_TOL:
        raise NumericError(f"linear solve residual {res:.3e} exceeds "
                           f"tolerance {DEFAULT_TOL:.3e}")
    return x
