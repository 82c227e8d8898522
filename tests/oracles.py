"""Reference implementations the tests check the program against.

None of these runs in a simulation: each is an independent statement
of a property (crossing location, discrete divergence, mesh
conformity, fill-reducing ordering) or a reader of an output format.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from fracreact.discretize import Topology
from fracreact.errors import FracReactError
from fracreact.mesh import TIP_INTERSECTION, MixedDimMesh


def locate_crossing(w_start, rate, dt):
    """Fraction xi of the step at which the linear dense output
    w(xi) = w_start + xi*dt*rate hits zero.

    Exact for explicit Euler. Requires the tentative step to actually
    cross: w_start >= 0 and w_start + dt*rate < 0.
    """
    w_start = np.asarray(w_start, dtype=float)
    rate = np.asarray(rate, dtype=float)
    if np.any(w_start < 0) or np.any(w_start + dt * rate >= 0):
        raise ValueError("locate_crossing requires w_start >= 0 and a "
                         "tentative step that crosses w = 0")
    out = w_start / (-rate * dt)
    if out.ndim == 0:
        return float(out)
    return out


def assemble_mixed_divergence(top: Topology, conn_flux, boundary_flux=None):
    """Net outflow per dof over all dimensions.

    Bulk cells sum their face fluxes; fracture cells additionally lose
    the incoming coupling fluxes; intersections collect the incident
    fracture tip fluxes. Immersed tips contribute nothing.
    """
    div = np.zeros(top.layout.ndof)
    np.add.at(div, top.ci, np.asarray(conn_flux, dtype=float))
    np.add.at(div, top.cj, -np.asarray(conn_flux, dtype=float))
    if boundary_flux is not None:
        np.add.at(div, top.b_dof, np.asarray(boundary_flux, dtype=float))
    return div


def mmd_ordering(top: Topology) -> np.ndarray:
    """Column permutation that a full SuperLU factorisation picks with
    ``MMD_AT_PLUS_A`` for a stand-in of the topology's pattern: 1 on
    the diagonal and -1e-3 per entry of each connection."""
    n = top.layout.ndof
    ci, cj = np.asarray(top.ci), np.asarray(top.cj)
    rows = np.concatenate([np.arange(n), ci, cj])
    cols = np.concatenate([np.arange(n), cj, ci])
    vals = np.r_[np.ones(n), np.full(2 * len(ci), -1e-3)]
    stand_in = sps.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    return spla.splu(stand_in, permc_spec="MMD_AT_PLUS_A").perm_c


def validate_conformity(mesh: MixedDimMesh) -> list[str]:
    """Check every structural invariant; returns a list of violation
    messages, empty iff the mesh is valid."""
    report: list[str] = []
    nf = len(mesh.face_areas)

    def flag(mask, message, ids=None):
        """Report the ``ids`` (default: the positions) where ``mask`` holds."""
        if np.any(mask):
            bad = np.nonzero(mask)[0] if ids is None else ids[mask]
            report.append(f"{message} {bad.tolist()}")

    flag(mesh.cell_volumes <= 0, "non-positive cell volumes at bulk cells")
    flag(mesh.face_areas <= 0, "non-positive face areas at faces")
    c0, c1 = mesh.face_cells.T
    flag(c0 < 0, "no primary adjacent cell at faces")
    flag((c1 < 0) & (mesh.face_tag < 0), "no boundary tag at boundary faces")
    flag((c1 >= 0) & (mesh.face_tag >= 0), "a boundary tag at interior faces")

    expected = np.full((nf, 2), -1)
    coupled = np.zeros(nf, dtype=int)
    referenced: set[int] = set()
    for fid, frac in enumerate(mesh.fractures):
        cf = np.asarray(frac.cell_faces)
        known = (cf >= 0) & (cf < nf)
        flag(~known, f"fracture {fid} references unknown faces at its cells")
        local = np.nonzero(known)[0]
        cf = cf[known]
        np.add.at(coupled, cf, 1)
        expected[cf, 0] = fid
        expected[cf, 1] = local
        flag(mesh.face_cells[cf, 1] < 0,
             f"fracture {fid} sits on boundary faces at its cells", local)
        if len(frac.tips) != 2:
            report.append(f"fracture {fid} must have exactly 2 tips")
        for tip in frac.tips:
            if tip.kind == TIP_INTERSECTION:
                if tip.intersection is None or \
                        tip.intersection >= len(mesh.intersections):
                    report.append(f"fracture {fid} tip references missing "
                                  f"intersection {tip.intersection}")
                referenced.add(tip.intersection)
    flag(coupled > 1, "more than one fracture cell coupled to faces")
    flag(np.any(mesh.face_frac != expected, axis=1),
         "face_frac does not match the fracture definition at faces")

    for iid in range(len(mesh.intersections)):
        if iid not in referenced:
            report.append(f"intersection {iid} is not referenced by any "
                          f"fracture tip")
    return report


def read_vtk(path) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                             dict[str, np.ndarray]]:
    """Decode a legacy BINARY VTK unstructured grid by its section counts
    (round-trip companion of write_vtk_snapshot): returns the (n, 3)
    points, the CELLS stream (per cell its vertex count, then the
    vertices), the cell types and the CELL_DATA arrays. Each binary
    block is big-endian and followed by a newline; a missing, malformed
    or trailing byte raises FracReactError."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def fail(what):
        raise FracReactError(f"{path}: {what} at byte {pos}")

    def line():
        nonlocal pos
        end = data.find(b"\n", pos)
        if end < 0:
            fail("missing line")
        text = data[pos:end].decode("ascii", "replace")
        pos = end + 1
        return text

    def section(keyword, nargs):
        words = line().split()
        if words[:1] != [keyword] or len(words) != 1 + nargs:
            fail(f"expected {keyword} and {nargs} values, got "
                 f"{' '.join(words)!r}")
        return words[1:]

    def block(count, dtype):
        nonlocal pos
        end = pos + count * np.dtype(dtype).itemsize
        if count < 0 or data[end:end + 1] != b"\n":
            fail(f"expected {count} values of {dtype} and a newline")
        values = np.frombuffer(data, dtype, count, pos).astype(dtype[1:])
        pos = end + 1
        return values

    header = [line() for _ in range(4)]
    if header[0] != "# vtk DataFile Version 2.0" or \
            header[2:] != ["BINARY", "DATASET UNSTRUCTURED_GRID"]:
        fail(f"not a legacy binary unstructured grid: {header}")
    npts, kind = section("POINTS", 2)
    if kind != "double":
        fail(f"POINTS of type {kind}")
    points = block(3 * int(npts), ">f8").reshape(-1, 3)
    ncells, size = map(int, section("CELLS", 2))
    cells = block(size, ">i4")
    at = count = 0
    while at < size and count < ncells:
        at += 1 + int(cells[at])
        count += 1
    if (at, count) != (size, ncells):
        fail(f"CELLS stream of {size} entries does not hold {ncells} cells")
    (ntypes,) = section("CELL_TYPES", 1)
    types = block(int(ntypes), ">i4")
    (n,) = section("CELL_DATA", 1)
    if int(ntypes) != ncells or int(n) != ncells:
        fail(f"{ncells} cells, {ntypes} cell types and {n} cell values")
    arrays: dict[str, np.ndarray] = {}
    while pos < len(data):
        name, kind, ncomp = section("SCALARS", 3)
        if (kind, ncomp) != ("double", "1") or line() != "LOOKUP_TABLE default":
            fail(f"SCALARS {name} is not one double with the default table")
        arrays[name] = block(int(n), ">f8")
    if not arrays:
        fail("no CELL_DATA arrays")
    return points, cells, types, arrays


def read_vtk_cell_data(path) -> dict[str, np.ndarray]:
    """The CELL_DATA arrays of a file ``read_vtk`` decodes."""
    return read_vtk(path)[3]
