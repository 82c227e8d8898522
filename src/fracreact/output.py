"""Result writers: per-step balance CSV and legacy ASCII VTK snapshots.

The CSV carries the mass audit (columns step, time, mass_u, mass_w,
influx, outflux, delta_m; 17 significant digits so reruns are
byte-identical and round-trips are lossless). VTK files are written per
subdomain as ``<scenario>_<subdomain>_<step:06d>.vtk`` with cell arrays
p, theta, u, w, pore_fraction and the products pore_fraction_u,
pore_fraction_w.
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
        self.path = path
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


def _vtk_header(title: str) -> list[str]:
    return ["# vtk DataFile Version 2.0", title, "ASCII",
            "DATASET UNSTRUCTURED_GRID"]


def _vtk_points(points) -> list[str]:
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] < 3:
        pts = np.column_stack([pts] + [np.zeros(len(pts))] * (3 - pts.shape[1]))
    lines = [f"POINTS {len(pts)} double"]
    lines.extend(" ".join(_sig(v) for v in p) for p in pts)
    return lines


def _vtk_cells(cells: np.ndarray, cell_type: int) -> list[str]:
    """CELLS and CELL_TYPES sections of an (n, k) vertex-index array."""
    n, k = cells.shape
    lines = [f"CELLS {n} {n * (k + 1)}"]
    lines.extend(f"{k} " + " ".join(map(str, c)) for c in cells.tolist())
    lines.append(f"CELL_TYPES {n}")
    lines.extend([str(cell_type)] * n)
    return lines


def _vtk_cell_data(arrays: dict[str, np.ndarray]) -> list[str]:
    n = len(next(iter(arrays.values())))
    lines = [f"CELL_DATA {n}"]
    for name, values in arrays.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_sig(v) for v in values)
    return lines


def _field_arrays(state: FieldState, sel: np.ndarray) -> dict[str, np.ndarray]:
    pore = state.pore[sel]
    return {
        "p": state.p[sel], "theta": state.theta[sel],
        "u": state.u[sel], "w": state.w[sel], "pore_fraction": pore,
        "pore_fraction_u": pore * state.u[sel],
        "pore_fraction_w": pore * state.w[sel],
    }


def _write_lines(path, lines) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise FracReactError(f"cannot write VTK file {path}: {exc}") from exc


def write_vtk_snapshot(out_dir, scenario_name: str, step: int,
                       mesh: MixedDimMesh, top: Topology,
                       state: FieldState) -> list[str]:
    """Write one legacy-VTK file per subdomain; returns the paths."""
    lay = top.layout
    written = []

    # bulk
    ctype = _VTK_QUAD if mesh.dim == 2 else _VTK_LINE
    lines = _vtk_header(f"{scenario_name} bulk step {step}")
    lines += _vtk_points(mesh.points)
    lines += _vtk_cells(mesh.cell_vertices, ctype)
    lines += _vtk_cell_data(_field_arrays(state, lay.is_bulk))
    path = os.path.join(out_dir, f"{scenario_name}_bulk_{step:06d}.vtk")
    _write_lines(path, lines)
    written.append(path)

    # fractures: one polyline file per arm, each cell with its own two
    # copies of the end points
    for fid, frac in enumerate(mesh.fractures):
        pts = mesh.points[mesh.face_vertices[frac.cell_faces]].reshape(-1, mesh.dim)
        sel = np.zeros(lay.ndof, dtype=bool)
        off = lay.frac_offsets[fid]
        sel[off:off + frac.num_cells] = True
        lines = _vtk_header(f"{scenario_name} fracture {fid} step {step}")
        lines += _vtk_points(pts)
        lines += _vtk_cells(np.arange(len(pts)).reshape(-1, 2), _VTK_LINE)
        lines += _vtk_cell_data(_field_arrays(state, sel))
        path = os.path.join(
            out_dir, f"{scenario_name}_fracture{fid:02d}_{step:06d}.vtk")
        _write_lines(path, lines)
        written.append(path)

    # intersections: all points in one file
    if mesh.intersections:
        pts = np.asarray([inter.point for inter in mesh.intersections])
        lines = _vtk_header(f"{scenario_name} intersections step {step}")
        lines += _vtk_points(pts)
        lines += _vtk_cells(np.arange(len(pts)).reshape(-1, 1), _VTK_VERTEX)
        lines += _vtk_cell_data(_field_arrays(state, lay.is_inter))
        path = os.path.join(
            out_dir, f"{scenario_name}_intersections_{step:06d}.vtk")
        _write_lines(path, lines)
        written.append(path)
    return written


def read_vtk_cell_data(path) -> dict[str, np.ndarray]:
    """Extract the CELL_DATA arrays from a legacy ASCII VTK file
    (round-trip companion of write_vtk_snapshot)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    arrays: dict[str, np.ndarray] = {}
    i = 0
    n = None
    while i < len(lines):
        parts = lines[i].split()
        if parts[:1] == ["CELL_DATA"]:
            n = int(parts[1])
        elif parts[:1] == ["SCALARS"] and n is not None:
            name = parts[1]
            i += 1  # LOOKUP_TABLE line
            vals = [float(lines[i + 1 + k]) for k in range(n)]
            arrays[name] = np.asarray(vals)
            i += n
        i += 1
    if not arrays:
        raise FracReactError(f"{path}: no CELL_DATA arrays found")
    return arrays


class OutputWriter:
    """Run sink combining the balance CSV (every step) and VTK
    snapshots (every ``every`` steps plus first and last)."""

    def __init__(self, out_dir, scenario, every: int | None = None):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.scenario = scenario
        self.every = scenario.output_every if every is None else int(every)
        self.balance = BalanceWriter(
            os.path.join(out_dir, f"{scenario.name}_balance.csv"))
        self.top = scenario.problem.top
        self.last_step = scenario.problem.grid.num_steps

    def __call__(self, step, time, state, report) -> None:
        self.balance.write(report)
        if self.every > 0 and (step % self.every == 0 or step == self.last_step):
            write_vtk_snapshot(self.out_dir, self.scenario.name, step,
                               self.scenario.mesh, self.top, state)

    def close(self) -> None:
        self.balance.close()
