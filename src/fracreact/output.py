"""Result writers: per-step balance CSV and legacy binary VTK snapshots.

The CSV carries the mass audit (columns step, time, mass_u, mass_w,
influx, outflux, delta_m; 17 significant digits so reruns are
byte-identical and round-trips are lossless). VTK files are legacy
VTK 2.0 ``BINARY`` (big-endian float64 points and cell data, int32
cells), written per subdomain (the bulk, each fracture arm, all
intersections) as ``<scenario>_<subdomain>_<step:06d>.vtk`` with cell
arrays p, theta, u, w, pore_fraction and the products pore_fraction_u,
pore_fraction_w; every value round-trips bit for bit. The geometry
never changes during a run, so ``vtk_pieces`` packs the points and
cells of every subdomain into bytes once and each snapshot adds only
its cell data.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .discretize import Topology
from .errors import FracReactError
from .mesh import MixedDimMesh
from .physics import FieldState
from .splitting import StepReport

BALANCE_COLUMNS = ("step", "time", "mass_u", "mass_w", "influx", "outflux",
                   "delta_m")

_VTK_LINE = 3
_VTK_QUAD = 9
_VTK_VERTEX = 1


def _sig(x: float) -> str:
    return f"{float(x):.17g}"


class BalanceWriter:
    """Appends one CSV row per step report."""

    def __init__(self, path):
        try:
            self._fh = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise FracReactError(f"cannot open balance file {path}: {exc}") from exc
        self._fh.write(",".join(BALANCE_COLUMNS) + "\n")

    def write(self, report: StepReport) -> None:
        row = [str(report.step)] + [
            _sig(v) for v in (report.time, report.mass_u, report.mass_w,
                              report.influx, report.outflux, report.delta_m)]
        self._fh.write(",".join(row) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_balance(path) -> list[dict]:
    """Parse a balance CSV back into a list of row dicts (round-trip
    companion of BalanceWriter)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != BALANCE_COLUMNS:
            raise FracReactError(
                f"{path}: unexpected balance columns {reader.fieldnames}")
        rows = []
        for rec in reader:
            row = {"step": int(rec["step"])}
            row.update({k: float(rec[k]) for k in BALANCE_COLUMNS[1:]})
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# VTK


def _field_arrays(state: FieldState, sel: np.ndarray) -> dict[str, np.ndarray]:
    pore = state.pore[sel]
    return {
        "p": state.p[sel], "theta": state.theta[sel],
        "u": state.u[sel], "w": state.w[sel], "pore_fraction": pore,
        "pore_fraction_u": pore * state.u[sel],
        "pore_fraction_w": pore * state.w[sel],
    }


def _vtk_geometry(points, cells: np.ndarray, cell_type: int) -> bytes:
    """POINTS, CELLS and CELL_TYPES sections of an (n, k) vertex-index
    array, each binary block followed by a newline."""
    pts = np.asarray(points, dtype=float)
    xyz = np.zeros((len(pts), 3))
    xyz[:, :pts.shape[1]] = pts
    n, k = cells.shape
    conn = np.column_stack([np.full(n, k), cells])
    return b"".join([
        f"POINTS {len(xyz)} double\n".encode(), xyz.astype(">f8").tobytes(),
        f"\nCELLS {n} {n * (k + 1)}\n".encode(), conn.astype(">i4").tobytes(),
        f"\nCELL_TYPES {n}\n".encode(), np.full(n, cell_type, ">i4").tobytes(),
        b"\n"])


def vtk_pieces(mesh: MixedDimMesh, top: Topology) -> list[tuple]:
    """One (title, file tag, POINTS and CELLS bytes, dof selection) per
    subdomain file: the bulk, each fracture arm as a polyline whose
    cells have their own two copies of the end points, and all
    intersections as vertices in one file."""
    lay = top.layout
    parts = [("bulk", "bulk", mesh.points, mesh.cell_vertices,
              _VTK_QUAD if mesh.dim == 2 else _VTK_LINE, lay.is_bulk)]
    for fid, frac in enumerate(mesh.fractures):
        pts = mesh.points[mesh.face_vertices[frac.cell_faces]].reshape(-1, mesh.dim)
        parts.append((f"fracture {fid}", f"fracture{fid:02d}", pts,
                      np.arange(len(pts)).reshape(-1, 2), _VTK_LINE,
                      lay.frac_of_dof == fid))
    if mesh.intersections:
        pts = np.asarray([inter.point for inter in mesh.intersections])
        parts.append(("intersections", "intersections", pts,
                      np.arange(len(pts)).reshape(-1, 1), _VTK_VERTEX,
                      lay.is_inter))
    return [(title, tag, _vtk_geometry(pts, cells, ctype), sel)
            for title, tag, pts, cells, ctype, sel in parts]


def write_vtk_snapshot(out_dir, scenario_name: str, step: int, pieces,
                       state: FieldState) -> list[str]:
    """Write one legacy-VTK file per piece of ``vtk_pieces``; returns the
    paths."""
    written = []
    for title, tag, geometry, sel in pieces:
        arrays = _field_arrays(state, sel)
        chunks = [f"# vtk DataFile Version 2.0\n{scenario_name} {title} "
                  f"step {step}\nBINARY\nDATASET UNSTRUCTURED_GRID\n".encode(),
                  geometry, f"CELL_DATA {len(arrays['p'])}\n".encode()]
        for name, values in arrays.items():
            chunks += [f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
                       .encode(), np.asarray(values, ">f8").tobytes(), b"\n"]
        path = os.path.join(out_dir, f"{scenario_name}_{tag}_{step:06d}.vtk")
        try:
            with open(path, "wb") as fh:
                fh.write(b"".join(chunks))
        except OSError as exc:
            raise FracReactError(f"cannot write VTK file {path}: {exc}") from exc
        written.append(path)
    return written


class OutputWriter:
    """Run sink combining the balance CSV (every step) and VTK
    snapshots (every ``scenario.output_every`` steps plus first and
    last)."""

    def __init__(self, out_dir, scenario):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.scenario = scenario
        self.every = scenario.output_every
        self.balance = BalanceWriter(
            os.path.join(out_dir, f"{scenario.name}_balance.csv"))
        self.pieces = vtk_pieces(scenario.mesh, scenario.problem.top)
        self.last_step = scenario.problem.grid.num_steps

    def __call__(self, step, time, state, report) -> None:
        self.balance.write(report)
        if self.every > 0 and (step % self.every == 0 or step == self.last_step):
            write_vtk_snapshot(self.out_dir, self.scenario.name, step,
                               self.pieces, state)

    def close(self) -> None:
        self.balance.close()
