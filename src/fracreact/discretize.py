"""Finite-volume building blocks on mixed-dimensional meshes.

All subdomain unknowns live in one flat vector: bulk cells first, then
the cells of each fracture, then one entry per intersection point. The
``Topology`` object enumerates every conductive connection (bulk
interior faces, fracture internal faces, bulk-fracture couplings and
fracture-intersection couplings) together with the geometric data needed
to evaluate two-point transmissibilities, and every boundary face.

A connection's transmissibility is the series composition

    T = area / (d_i / coef_i + d_j / coef_j + R)

where d are centroid-to-interface distances, coef the cell diffusion
coefficients and R an optional interface resistance per unit area. The
coupling laws across fracture walls and at intersections fit this form
with the resistance mu*eps/kappa(eps) (flow) or eps/diffusivity
(heat, solute) and a zero distance on the lower-dimensional side.

Flux sign convention: positive from ``ci`` to ``cj`` on connections and
outward on boundary faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MeshConformityError
from .mesh import TIP_BOUNDARY, TIP_INTERSECTION, MixedDimMesh

# connection kinds
BULK = 0
FRAC = 1
COUPLING = 2
INTERSECT = 3


@dataclass(frozen=True)
class DofLayout:
    """Flat numbering of all subdomain cells."""

    n_bulk: int
    frac_offsets: tuple[int, ...]
    inter_offset: int
    ndof: int
    is_bulk: np.ndarray
    is_frac: np.ndarray
    is_inter: np.ndarray
    measure: np.ndarray        # cell volume / fracture cell length / 1.0
    frac_of_dof: np.ndarray    # fracture id per dof, -1 elsewhere


def build_layout(mesh: MixedDimMesh) -> DofLayout:
    nb = mesh.num_cells
    offsets = []
    pos = nb
    for frac in mesh.fractures:
        offsets.append(pos)
        pos += frac.num_cells
    inter_offset = pos
    ndof = pos + len(mesh.intersections)

    is_bulk = np.zeros(ndof, dtype=bool)
    is_bulk[:nb] = True
    is_inter = np.zeros(ndof, dtype=bool)
    is_inter[inter_offset:] = True
    is_frac = ~(is_bulk | is_inter)

    measure = np.ones(ndof)
    measure[:nb] = mesh.cell_volumes
    frac_of_dof = np.full(ndof, -1, dtype=int)
    for fid, frac in enumerate(mesh.fractures):
        sl = slice(offsets[fid], offsets[fid] + frac.num_cells)
        measure[sl] = frac.measures
        frac_of_dof[sl] = fid
    return DofLayout(n_bulk=nb, frac_offsets=tuple(offsets),
                     inter_offset=inter_offset, ndof=ndof,
                     is_bulk=is_bulk, is_frac=is_frac, is_inter=is_inter,
                     measure=measure, frac_of_dof=frac_of_dof)


@dataclass(frozen=True)
class Topology:
    layout: DofLayout
    ci: np.ndarray
    cj: np.ndarray
    kind: np.ndarray
    area: np.ndarray
    di: np.ndarray
    dj: np.ndarray
    low_dof: np.ndarray      # lower-dimensional dof of couplings, -1 elsewhere
    face_id: np.ndarray      # bulk face of kinds BULK/COUPLING, -1 elsewhere
    # boundary faces
    b_dof: np.ndarray
    b_area: np.ndarray
    b_dist: np.ndarray
    b_tag: tuple[str, ...]
    b_face_id: np.ndarray    # bulk face of boundary faces, -1 at fracture tips

    @property
    def n_conn(self) -> int:
        return len(self.ci)

    @cached_property
    def b_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct boundary tags and each face's index into them."""
        return np.unique(np.asarray(self.b_tag, dtype=str), return_inverse=True)


def build_topology(mesh: MixedDimMesh) -> Topology:
    layout = build_layout(mesh)
    ci, cj, kind, area, di, dj, low, face_id = [], [], [], [], [], [], [], []
    b_dof, b_area, b_dist, b_tag, b_face = [], [], [], [], []

    def normal_dist(cell, f):
        v = mesh.face_centroids[f] - mesh.cell_centroids[cell]
        d = abs(float(np.dot(v, mesh.face_normals[f])))
        if d <= 0:
            raise MeshConformityError(
                f"zero centroid-to-face distance at face {f}, cell {cell}")
        return d

    for f in range(mesh.num_faces):
        c0, c1 = mesh.face_cells[f]
        if f in mesh.frac_faces:
            fid, local = mesh.frac_faces[f]
            fdof = layout.frac_offsets[fid] + local
            for c in (c0, c1):
                ci.append(int(c)); cj.append(fdof); kind.append(COUPLING)
                area.append(mesh.face_areas[f])
                di.append(normal_dist(int(c), f)); dj.append(0.0)
                low.append(fdof); face_id.append(f)
        elif c1 >= 0:
            ci.append(int(c0)); cj.append(int(c1)); kind.append(BULK)
            area.append(mesh.face_areas[f])
            di.append(normal_dist(int(c0), f)); dj.append(normal_dist(int(c1), f))
            low.append(-1); face_id.append(f)
        else:
            b_dof.append(int(c0)); b_area.append(mesh.face_areas[f])
            b_dist.append(normal_dist(int(c0), f))
            b_tag.append(mesh.boundary_tags[f]); b_face.append(f)

    for fid, frac in enumerate(mesh.fractures):
        off = layout.frac_offsets[fid]
        for a, b in frac.internal:
            ci.append(off + int(a)); cj.append(off + int(b)); kind.append(FRAC)
            area.append(1.0)
            di.append(frac.measures[int(a)] / 2.0)
            dj.append(frac.measures[int(b)] / 2.0)
            low.append(-1); face_id.append(-1)
        for tip in frac.tips:
            tdof = off + tip.cell
            if tip.kind == TIP_INTERSECTION:
                idof = layout.inter_offset + tip.intersection
                ci.append(tdof); cj.append(idof); kind.append(INTERSECT)
                area.append(1.0)
                di.append(frac.measures[tip.cell] / 2.0); dj.append(0.0)
                low.append(idof); face_id.append(-1)
            elif tip.kind == TIP_BOUNDARY:
                b_dof.append(tdof); b_area.append(1.0)
                b_dist.append(frac.measures[tip.cell] / 2.0)
                b_tag.append(tip.tag); b_face.append(-1)
            # immersed tips impose no flow: no connection at all

    return Topology(
        layout=layout,
        ci=np.asarray(ci, dtype=int), cj=np.asarray(cj, dtype=int),
        kind=np.asarray(kind, dtype=int), area=np.asarray(area, dtype=float),
        di=np.asarray(di, dtype=float), dj=np.asarray(dj, dtype=float),
        low_dof=np.asarray(low, dtype=int), face_id=np.asarray(face_id, dtype=int),
        b_dof=np.asarray(b_dof, dtype=int), b_area=np.asarray(b_area, dtype=float),
        b_dist=np.asarray(b_dist, dtype=float), b_tag=tuple(b_tag),
        b_face_id=np.asarray(b_face, dtype=int))


# ---------------------------------------------------------------------------
# transmissibilities


def _safe_resistance(dist, coef):
    """dist/coef with the conventions dist == 0 -> 0 and coef == 0 ->
    infinite resistance (blocked side)."""
    dist = np.asarray(dist, dtype=float)
    coef = np.asarray(coef, dtype=float)
    out = np.zeros_like(dist)
    active = dist > 0
    blocked = active & (coef <= 0)
    ok = active & (coef > 0)
    out[ok] = dist[ok] / coef[ok]
    out[blocked] = np.inf
    return out


def transmissibilities(top: Topology, cell_coef, interface_resist=None):
    """Per-connection transmissibility from per-dof coefficients and an
    optional per-connection interface resistance (per unit area)."""
    coef = np.asarray(cell_coef, dtype=float)
    r = _safe_resistance(top.di, coef[top.ci]) + _safe_resistance(top.dj, coef[top.cj])
    if interface_resist is not None:
        r = r + np.asarray(interface_resist, dtype=float)
    with np.errstate(divide="ignore"):
        t = np.where(np.isinf(r), 0.0, top.area / np.where(r > 0, r, np.inf))
    # zero total resistance only happens for degenerate input
    return t


def boundary_transmissibilities(top: Topology, cell_coef):
    """Half-cell transmissibility per boundary face (Dirichlet closure)."""
    coef = np.asarray(cell_coef, dtype=float)
    r = _safe_resistance(top.b_dist, coef[top.b_dof])
    with np.errstate(divide="ignore"):
        return np.where(np.isinf(r), 0.0, top.b_area / np.where(r > 0, r, np.inf))


# ---------------------------------------------------------------------------
# divergence


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

