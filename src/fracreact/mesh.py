"""Mixed-dimensional meshes.

A mesh holds an n-dimensional bulk grid (n = 1 or 2), a set of
(n-1)-dimensional fracture grids whose cells coincide geometrically with
interior bulk faces (conforming coupling), and 0-dimensional
intersection objects where fracture arms meet. Fracture sides are
realised by duplicating the coupled bulk face: the face's two adjacent
bulk cells each exchange with the fracture cell through their own copy,
and the direct cell-to-cell connection across the fracture is removed.

Meshes are built by ``build_interval_mesh`` (1D, no fractures) and
``build_structured_2d`` (Cartesian grid with axis-aligned fracture
polylines). Each fracture arm ends in two tips whose kind is one of
``TIP_BOUNDARY``, ``TIP_IMMERSED`` or ``TIP_INTERSECTION``; an
intersection tip carries the index of its intersection object.
``validate_conformity`` checks the structural invariants of a built mesh.

Meshes are immutable after construction and safe to share across
threads; construction is single-threaded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

SNAP_REL_TOL = 1e-9
GEOM_REL_TOL = 1e-12

TIP_BOUNDARY = "boundary"
TIP_IMMERSED = "immersed"
TIP_INTERSECTION = "intersection"


@dataclass(frozen=True)
class Tip:
    """One end of a fracture arm."""

    cell: int
    kind: str                      # boundary | immersed | intersection
    tag: str | None = None         # boundary segment name, if boundary
    intersection: int | None = None


@dataclass(frozen=True)
class Fracture:
    """A single fracture arm, discretised into bulk-face-shaped cells."""

    cell_faces: np.ndarray         # bulk face id per fracture cell
    centroids: np.ndarray          # (nc, dim)
    measures: np.ndarray           # (nc,)
    internal: np.ndarray           # (ni, 2) adjacent fracture-cell pairs
    tips: tuple[Tip, ...]

    @property
    def num_cells(self) -> int:
        return len(self.cell_faces)


@dataclass(frozen=True)
class Intersection:
    """A 0-dimensional meeting point of two or more fracture arms."""

    point: np.ndarray


@dataclass(frozen=True)
class MixedDimMesh:
    dim: int
    points: np.ndarray                 # (npnt, dim)
    cell_vertices: tuple[tuple[int, ...], ...]
    cell_centroids: np.ndarray         # (nc, dim)
    cell_volumes: np.ndarray           # (nc,)
    face_vertices: tuple[tuple[int, ...], ...]
    face_cells: np.ndarray             # (nf, 2), -1 where absent
    face_areas: np.ndarray
    face_normals: np.ndarray           # oriented cells[0] -> cells[1]/outward
    face_centroids: np.ndarray
    boundary_tags: dict[int, str]      # boundary face id -> segment name
    fractures: tuple[Fracture, ...] = ()
    intersections: tuple[Intersection, ...] = ()
    frac_faces: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def num_cells(self) -> int:
        return len(self.cell_volumes)

    @property
    def num_faces(self) -> int:
        return len(self.face_areas)

    @property
    def diameter(self) -> float:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return float(np.linalg.norm(hi - lo))


# ---------------------------------------------------------------------------
# builders


def build_interval_mesh(length: float, num_cells: int) -> MixedDimMesh:
    """Uniform 1D bulk mesh on (0, length) with no fractures.

    The two endpoint faces are tagged ``left`` and ``right``.
    """
    if not length > 0:
        raise ConfigurationError(f"interval length must be positive, got {length}")
    if num_cells < 1:
        raise ConfigurationError(f"num_cells must be >= 1, got {num_cells}")
    n = int(num_cells)
    points = np.linspace(0.0, length, n + 1).reshape(-1, 1)
    h = length / n
    cell_vertices = tuple((i, i + 1) for i in range(n))
    centroids = (points[:-1] + points[1:]) / 2.0
    volumes = np.full(n, h)
    face_vertices = tuple((i,) for i in range(n + 1))
    face_cells = np.column_stack([np.arange(-1, n), np.arange(0, n + 1)])
    face_cells[-1] = (n - 1, -1)
    face_cells[0] = (0, -1)
    normals = np.ones((n + 1, 1))
    normals[0, 0] = -1.0   # outward at the left boundary
    areas = np.ones(n + 1)
    tags = {0: "left", n: "right"}
    return MixedDimMesh(
        dim=1, points=points, cell_vertices=cell_vertices,
        cell_centroids=centroids, cell_volumes=volumes,
        face_vertices=face_vertices, face_cells=face_cells,
        face_areas=areas, face_normals=normals, face_centroids=points.copy(),
        boundary_tags=tags)


def build_structured_2d(nx: int, ny: int,
                        domain=(0.0, 1.0, 0.0, 1.0),
                        fractures=()) -> MixedDimMesh:
    """Cartesian bulk grid with axis-aligned fracture polylines.

    ``domain`` is (xmin, xmax, ymin, ymax). Every polyline segment must
    run along a grid line after snapping its endpoints to the nearest
    grid node (tolerance SNAP_REL_TOL times the domain diameter).
    Polylines are split into arms at every node they pass more than
    once, together or each on its own (a self-crossing polyline); such
    nodes become 0-dimensional intersection objects.
    """
    if nx < 1 or ny < 1:
        raise ConfigurationError(f"grid must have at least one cell per axis, got {nx}x{ny}")
    xmin, xmax, ymin, ymax = map(float, domain)
    if not (xmax > xmin and ymax > ymin):
        raise ConfigurationError(f"degenerate domain {domain}")
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)

    def node(ix, iy):
        return iy * (nx + 1) + ix

    xx, yy = np.meshgrid(xs, ys)
    points = np.column_stack([xx.ravel(), yy.ravel()])

    def cell(ix, iy):
        return iy * nx + ix

    cell_vertices = []
    for iy in range(ny):
        for ix in range(nx):
            cell_vertices.append((node(ix, iy), node(ix + 1, iy),
                                  node(ix + 1, iy + 1), node(ix, iy + 1)))
    centroids = np.column_stack([
        np.tile((xs[:-1] + xs[1:]) / 2.0, ny),
        np.repeat((ys[:-1] + ys[1:]) / 2.0, nx)])
    hx = (xmax - xmin) / nx
    hy = (ymax - ymin) / ny
    volumes = np.full(nx * ny, hx * hy)

    face_vertices = []
    face_cells = []
    face_normals = []
    face_areas = []
    tags: dict[int, str] = {}
    vface: dict[tuple[int, int], int] = {}
    hface: dict[tuple[int, int], int] = {}
    # x-normal faces (vertical edges)
    for iy in range(ny):
        for ix in range(nx + 1):
            fid = len(face_vertices)
            vface[(ix, iy)] = fid
            face_vertices.append((node(ix, iy), node(ix, iy + 1)))
            left = cell(ix - 1, iy) if ix > 0 else -1
            right = cell(ix, iy) if ix < nx else -1
            if left < 0:
                face_cells.append((right, -1))
                face_normals.append((-1.0, 0.0))
                tags[fid] = "left"
            elif right < 0:
                face_cells.append((left, -1))
                face_normals.append((1.0, 0.0))
                tags[fid] = "right"
            else:
                face_cells.append((left, right))
                face_normals.append((1.0, 0.0))
            face_areas.append(hy)
    # y-normal faces (horizontal edges)
    for iy in range(ny + 1):
        for ix in range(nx):
            fid = len(face_vertices)
            hface[(ix, iy)] = fid
            face_vertices.append((node(ix, iy), node(ix + 1, iy)))
            below = cell(ix, iy - 1) if iy > 0 else -1
            above = cell(ix, iy) if iy < ny else -1
            if below < 0:
                face_cells.append((above, -1))
                face_normals.append((0.0, -1.0))
                tags[fid] = "bottom"
            elif above < 0:
                face_cells.append((below, -1))
                face_normals.append((0.0, 1.0))
                tags[fid] = "top"
            else:
                face_cells.append((below, above))
                face_normals.append((0.0, 1.0))
            face_areas.append(hx)
    face_vertices = tuple(face_vertices)
    face_cells = np.asarray(face_cells)
    face_normals = np.asarray(face_normals)
    face_areas = np.asarray(face_areas)
    face_centroids = np.array([points[list(v)].mean(axis=0) for v in face_vertices])

    mesh = MixedDimMesh(
        dim=2, points=points, cell_vertices=tuple(cell_vertices),
        cell_centroids=centroids, cell_volumes=volumes,
        face_vertices=face_vertices, face_cells=face_cells,
        face_areas=face_areas, face_normals=face_normals,
        face_centroids=face_centroids, boundary_tags=tags)
    if not fractures:
        return mesh

    snap_tol = SNAP_REL_TOL * mesh.diameter

    def snap(pt, seg_desc):
        x, y = float(pt[0]), float(pt[1])
        ix = int(round((x - xmin) / hx))
        iy = int(round((y - ymin) / hy))
        ix = min(max(ix, 0), nx)
        iy = min(max(iy, 0), ny)
        if abs(xs[ix] - x) > snap_tol or abs(ys[iy] - y) > snap_tol:
            raise ConfigurationError(
                f"fracture segment {seg_desc} does not lie on grid lines "
                f"within snap tolerance {snap_tol:g}")
        return ix, iy

    # Walk every polyline, collecting the grid edges (bulk faces) covered
    # and the ordered node path of each polyline.
    paths = []  # per polyline: (node list [(ix,iy)...], edge list [face id ...])
    for pid, poly in enumerate(fractures):
        poly = np.asarray(poly, dtype=float)
        if poly.ndim != 2 or poly.shape[0] < 2 or poly.shape[1] != 2:
            raise ConfigurationError(f"fracture {pid} must be a polyline of 2D points")
        nodes_path = []
        edges_path = []
        prev = snap(poly[0], f"{pid}[0]")
        nodes_path.append(prev)
        for k in range(1, len(poly)):
            cur = snap(poly[k], f"{pid}[{k - 1}->{k}]")
            seg_desc = f"fracture {pid}, segment {k - 1}->{k} " \
                       f"({tuple(poly[k - 1])} -> {tuple(poly[k])})"
            if cur == prev:
                raise ConfigurationError(f"{seg_desc}: zero-length segment")
            if cur[0] == prev[0]:       # vertical: covers x-normal faces
                ix = cur[0]
                step = 1 if cur[1] > prev[1] else -1
                for iy in range(prev[1], cur[1], step):
                    j = iy if step > 0 else iy - 1
                    edges_path.append(vface[(ix, j)])
                    nodes_path.append((ix, j + 1) if step > 0 else (ix, j))
            elif cur[1] == prev[1]:     # horizontal: covers y-normal faces
                iy = cur[1]
                step = 1 if cur[0] > prev[0] else -1
                for ix in range(prev[0], cur[0], step):
                    j = ix if step > 0 else ix - 1
                    edges_path.append(hface[(ix if step > 0 else ix - 1, iy)])
                    nodes_path.append((j + 1, iy) if step > 0 else (j, iy))
            else:
                raise ConfigurationError(
                    f"{seg_desc}: not aligned with any grid line")
            prev = cur
        paths.append((nodes_path, edges_path))

    # Nodes passed two or more times, by one polyline or by several,
    # become intersections.
    visits = Counter(nd for nodes_path, _ in paths for nd in nodes_path)
    crossing_nodes = {nd for nd, passes in visits.items() if passes >= 2}

    # Split polylines into arms at crossing nodes.
    claimed: dict[int, int] = {}
    arms = []  # (node list, edge list)
    for pid, (nodes_path, edges_path) in enumerate(paths):
        start = 0
        for k in range(1, len(nodes_path)):
            if nodes_path[k] in crossing_nodes or k == len(nodes_path) - 1:
                arm_nodes = nodes_path[start:k + 1]
                arm_edges = edges_path[start:k]
                for e in arm_edges:
                    if e in claimed:
                        raise ConfigurationError(
                            f"fractures {claimed[e]} and {pid} overlap on a grid edge")
                    claimed[e] = pid
                arms.append((arm_nodes, arm_edges))
                start = k

    def on_boundary_tag(nd):
        ix, iy = nd
        if iy == 0:
            return "bottom"
        if iy == ny:
            return "top"
        if ix == 0:
            return "left"
        if ix == nx:
            return "right"
        return None

    inter_nodes = sorted(crossing_nodes)
    inter_index = {nd: i for i, nd in enumerate(inter_nodes)}

    frac_objs = []
    frac_faces: dict[int, tuple[int, int]] = {}
    for arm_nodes, arm_edges in arms:
        fid = len(frac_objs)
        ncf = len(arm_edges)
        cfaces = np.asarray(arm_edges)
        for local, e in enumerate(arm_edges):
            if face_cells[e, 1] < 0:
                raise ConfigurationError(
                    "fracture lies on the domain boundary; fracture cells "
                    "must coincide with interior faces")
            frac_faces[e] = (fid, local)
        cents = face_centroids[cfaces].copy()
        meas = face_areas[cfaces].copy()
        internal = np.column_stack([np.arange(ncf - 1), np.arange(1, ncf)]) \
            if ncf > 1 else np.empty((0, 2), dtype=int)
        tips = []
        for nd, cell_id in ((arm_nodes[0], 0), (arm_nodes[-1], ncf - 1)):
            if nd in inter_index:
                tips.append(Tip(cell=cell_id, kind=TIP_INTERSECTION,
                                intersection=inter_index[nd]))
            else:
                tag = on_boundary_tag(nd)
                if tag is not None:
                    tips.append(Tip(cell=cell_id, kind=TIP_BOUNDARY, tag=tag))
                else:
                    tips.append(Tip(cell=cell_id, kind=TIP_IMMERSED))
        frac_objs.append(Fracture(cell_faces=cfaces, centroids=cents,
                                  measures=meas, internal=internal,
                                  tips=tuple(tips)))

    intersections = tuple(Intersection(point=points[node(*nd)])
                          for nd in inter_nodes)
    return MixedDimMesh(
        dim=2, points=points, cell_vertices=tuple(cell_vertices),
        cell_centroids=centroids, cell_volumes=volumes,
        face_vertices=face_vertices, face_cells=face_cells,
        face_areas=face_areas, face_normals=face_normals,
        face_centroids=face_centroids, boundary_tags=tags,
        fractures=tuple(frac_objs), intersections=intersections,
        frac_faces=frac_faces)


# ---------------------------------------------------------------------------
# validation


def validate_conformity(mesh: MixedDimMesh) -> list[str]:
    """Check every structural invariant; returns a list of violation
    messages, empty iff the mesh is valid."""
    report: list[str] = []
    tol = GEOM_REL_TOL * max(mesh.diameter, 1.0)

    if np.any(mesh.cell_volumes <= 0):
        bad = np.nonzero(mesh.cell_volumes <= 0)[0]
        report.append(f"non-positive cell volumes at bulk cells {bad.tolist()}")
    if np.any(mesh.face_areas <= 0):
        bad = np.nonzero(mesh.face_areas <= 0)[0]
        report.append(f"non-positive face areas at faces {bad.tolist()}")

    for f in range(mesh.num_faces):
        c0, c1 = mesh.face_cells[f]
        if c0 < 0:
            report.append(f"face {f} has no primary adjacent cell")
        if c1 < 0 and f not in mesh.boundary_tags:
            report.append(f"boundary face {f} carries no boundary tag")
        if c1 >= 0 and f in mesh.boundary_tags:
            report.append(f"interior face {f} carries boundary tag "
                          f"{mesh.boundary_tags[f]!r}")

    seen_faces: dict[int, tuple[int, int]] = {}
    referenced: set[int] = set()
    for fid, frac in enumerate(mesh.fractures):
        for local, bface in enumerate(frac.cell_faces):
            bface = int(bface)
            if bface < 0 or bface >= mesh.num_faces:
                report.append(f"fracture {fid} cell {local} references "
                              f"unknown face {bface}")
                continue
            if bface in seen_faces:
                report.append(f"face {bface} coupled to two fracture cells "
                              f"{seen_faces[bface]} and {(fid, local)}")
            seen_faces[bface] = (fid, local)
            if mesh.face_cells[bface, 1] < 0:
                report.append(f"fracture {fid} cell {local} sits on boundary "
                              f"face {bface}")
            dc = np.linalg.norm(frac.centroids[local] - mesh.face_centroids[bface])
            dm = abs(frac.measures[local] - mesh.face_areas[bface])
            if dc > tol or dm > tol:
                report.append(
                    f"fracture {fid} cell {local} is not geometrically "
                    f"identical to bulk face {bface} "
                    f"(centroid offset {dc:.3e}, measure offset {dm:.3e})")
        if len(frac.tips) != 2:
            report.append(f"fracture {fid} must have exactly 2 tips")
        for tip in frac.tips:
            if tip.kind == TIP_INTERSECTION:
                if tip.intersection is None or \
                        tip.intersection >= len(mesh.intersections):
                    report.append(f"fracture {fid} tip references missing "
                                  f"intersection {tip.intersection}")
                referenced.add(tip.intersection)
    for e, (fid, local) in mesh.frac_faces.items():
        if seen_faces.get(e) != (fid, local):
            report.append(f"frac_faces entry {e} -> {(fid, local)} does not "
                          f"match the fracture definition")

    for iid in range(len(mesh.intersections)):
        if iid not in referenced:
            report.append(f"intersection {iid} is not referenced by any "
                          f"fracture tip")
    return report
