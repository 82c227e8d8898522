"""Sparse assembly and direct solution services.

Systems at desk scale stay below a few 10^4 unknowns, so a sparse LU
factorisation is the default path; it is deterministic across reruns on
the same platform, which the output regression tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .errors import NumericError

DEFAULT_TOL = 1e-12


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


def solve(system: SparseSystem, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Direct sparse solve with an explicit residual check.

    Raises NumericError (with the achieved residual) on singular or
    ill-conditioned systems; failure is never silent.
    """
    a, b = system.matrix, system.rhs
    if not np.all(np.isfinite(a.data)) or not np.all(np.isfinite(b)):
        raise NumericError("non-finite entries in linear system")
    try:
        with np.errstate(all="ignore"):
            lu = spla.splu(a.tocsc())
            x = lu.solve(b)
    except RuntimeError as exc:
        raise NumericError(f"sparse factorisation failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericError("solver produced non-finite solution (singular system)")
    bnorm = np.linalg.norm(b)
    scale = bnorm if bnorm > 0 else 1.0
    res = np.linalg.norm(a @ x - b) / scale
    # a few rounds of iterative refinement recover the last digits on
    # badly scaled systems (aperture contrasts span many decades)
    for _ in range(3):
        if res <= tol:
            break
        with np.errstate(all="ignore"):
            dx = lu.solve(b - a @ x)
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
        res = np.linalg.norm(a @ x - b) / scale
    if res > tol:
        # On strongly graded coefficient fields (clogged cells next to
        # open fractures) the normwise residual is limited by the matrix
        # scaling; fall back to the componentwise backward error, which
        # is scaling-invariant.
        r = np.abs(a @ x - b)
        denom = np.abs(a) @ np.abs(x) + np.abs(b)
        backward = float(np.max(r / np.where(denom > 0, denom, 1.0)))
        if backward > 1e-12:
            raise NumericError(
                f"linear solve residual {res:.3e} exceeds tolerance "
                f"{tol:.3e} (componentwise backward error {backward:.3e})")
    return x
