"""Built-in simulation scenarios.

Each builder assembles a mesh, physical data and boundary conditions
into a ready-to-run :class:`Scenario`. The 1D cases exercise the
splitting scheme itself (mass conservation, splitting error, reaction
localisation as a function of the Damkohler number); the 2D cases add
single and multiple fractures and show clogging and opening of the
fracture network.

The 2D data sets are unitless by construction; the slanted and network
fracture geometries are approximated with axis-aligned staircase
polylines so the grids stay conforming.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .chemistry import ReactionParams, lambda_minus
from .constitutive import PhysParams
from .discretize import Topology, build_topology
from .mesh import MixedDimMesh, build_interval_mesh, build_structured_2d
from .physics import DIRICHLET, OUTFLOW, PRESSURE, FieldState, SegmentBC
from .splitting import Problem, TimeGrid


@dataclass
class Scenario:
    """A named, fully configured simulation case."""

    name: str
    mesh: MixedDimMesh
    problem: Problem
    output_every: int = 10
    description: str = ""      # accepted from callers, never read

    def with_grid(self, grid: TimeGrid) -> "Scenario":
        return replace(self, problem=replace(self.problem, grid=grid))


# ---------------------------------------------------------------------------
# helpers


def make_eta(top: Topology, params: PhysParams) -> np.ndarray:
    lay = top.layout
    eta = np.empty(lay.ndof)
    eta[lay.is_bulk] = params.eta_omega
    eta[lay.is_frac] = params.eta_gamma
    eta[lay.is_inter] = params.eta_iota
    return eta


def make_state(top: Topology, params: PhysParams, *, p=0.0, theta=1.0,
               u=0.0, w=0.0, frac_aperture=None, iota_aperture=None) -> FieldState:
    lay = top.layout
    pore = np.empty(lay.ndof)
    pore[lay.is_bulk] = params.phi0
    pore[lay.is_frac] = params.epsgamma0 if frac_aperture is None else frac_aperture
    pore[lay.is_inter] = params.epsiota0 if iota_aperture is None else iota_aperture
    return FieldState(p=np.full(lay.ndof, float(p)),
                      theta=np.full(lay.ndof, float(theta)),
                      u=np.full(lay.ndof, float(u)),
                      w=np.full(lay.ndof, float(w)), pore=pore,
                      react_prev=np.zeros(lay.ndof))


def dof_centroids(mesh: MixedDimMesh, top: Topology) -> np.ndarray:
    """Centroid per dof (bulk cells, fracture cells, intersections)."""
    lay = top.layout
    out = np.zeros((lay.ndof, mesh.points.shape[1]))
    out[:lay.n_bulk] = mesh.cell_centroids
    for fid, frac in enumerate(mesh.fractures):
        off = lay.frac_offsets[fid]
        out[off:off + frac.num_cells] = mesh.face_centroids[frac.cell_faces]
    for iid, inter in enumerate(mesh.intersections):
        out[lay.inter_offset + iid] = inter.point
    return out


def prescribed_interval_flux(mesh: MixedDimMesh, top: Topology, velocity):
    """(connection, boundary) fluxes of a given 1D Darcy velocity field.

    ``velocity`` maps the face coordinate x to the signed velocity along
    +x. Each face's normal gives the sign: connections run from
    ``cells[0]`` to ``cells[1]`` and boundary fluxes are outward.
    """
    def flux(faces):
        v = np.array([velocity(float(x)) for x in mesh.face_centroids[faces, 0]])
        return v * mesh.face_normals[faces, 0] * mesh.face_areas[faces]
    return flux(top.face_id), flux(top.b_face_id)


def make_scenario(name: str, mesh: MixedDimMesh, *, bc, grid, params, reaction,
                  p=0.0, theta=1.0, u=0.0, w=0.0, fracture_aperture=None,
                  intersection_aperture=None, fracture_w=None,
                  intersection_w=None, regions=None, output_every=10,
                  reaction_scheme="explicit-euler") -> Scenario:
    """The scenario of ``mesh``; the initial values are the INI
    ``[initial]`` keys. ``regions`` maps ``"u"`` or ``"w"`` to ``(lo, hi,
    value)``: the value on every dof whose centroid lies in [lo, hi]."""
    top = build_topology(mesh)
    lay = top.layout
    state = make_state(top, params, p=p, theta=theta, u=u, w=w,
                       frac_aperture=fracture_aperture,
                       iota_aperture=intersection_aperture)
    if fracture_w is not None:
        state.w[lay.is_frac] = fracture_w
    if intersection_w is not None:
        state.w[lay.is_inter] = intersection_w
    if regions:
        coords = dof_centroids(mesh, top)
        for field, (lo, hi, value) in regions.items():
            inside = np.all((coords >= lo) & (coords <= hi), axis=1)
            getattr(state, field)[inside] = value
    problem = Problem(top=top, state0=state, grid=grid, params=params,
                      reaction=reaction, bc=bc, eta=make_eta(top, params),
                      reaction_scheme=reaction_scheme)
    return Scenario(name=name, mesh=mesh, problem=problem,
                    output_every=output_every)


def staircase_polyline(start, end, h) -> list[tuple[float, float]]:
    """Axis-aligned staircase between two grid nodes, alternating
    vertical and horizontal sub-segments of length h."""
    x0, y0 = start
    x1, y1 = end
    nx = int(round((x1 - x0) / h))
    ny = int(round((y1 - y0) / h))
    if nx < 0 or ny < 0:
        raise ValueError("staircase expects end up-right of start")
    pts = [(x0, y0)]
    x, y = x0, y0
    steps = max(nx, ny)
    done_x = done_y = 0
    for k in range(steps):
        if done_y < ny:
            y = y0 + (done_y + 1) * h
            done_y += 1
            pts.append((x, y))
        if done_x < nx:
            x = x0 + (done_x + 1) * h
            done_x += 1
            pts.append((x, y))
    return pts


# ---------------------------------------------------------------------------
# 1D scenarios


def build_test1d_pulse() -> Scenario:
    """Solute pulse in a 1D column: precipitation, then wash-out.

    Advection/diffusion ratio ~10, Damkohler number 0.2, CFL ~ 0.08.
    The mass-balance defect stays at machine precision by construction
    of the splitting scheme; this scenario is the canonical audit case.
    """
    return make_scenario(
        "test1d_pulse", build_interval_mesh(1.0, 100),
        bc={"left": SegmentBC(flow=(PRESSURE, 1.0), heat=(DIRICHLET, 1.0),
                              solute=(DIRICHLET, 0.0)),
            "right": SegmentBC(flow=(PRESSURE, 0.0), heat=(OUTFLOW, 0.0),
                               solute=(OUTFLOW, 0.0))},
        grid=TimeGrid(0.048, 60), params=PhysParams(d=0.02, eta_omega=1.0),
        reaction=ReactionParams(lambda0=1.0, act=0.0, u_e=1.0, rate_power=2.0),
        regions={"u": ((0.4,), (0.6,), 2.0)})


def splitting_problem_factory(da: float):
    """Problem factory for the splitting-error study.

    Simplified setup: frozen porosity, prescribed uniform velocity,
    linear rate law r(u) = u/u_e. The velocity is chosen so that the
    Damkohler number L*lambda*phi0/q equals ``da``. The Courant number,
    taken with the pore velocity q/phi0, is dt/(Da*dx): 0.432/da at
    100 cells and 50 steps.
    """
    mesh = build_interval_mesh(1.0, 100)
    top = build_topology(mesh)
    params = PhysParams(d=1e-3)
    reaction = ReactionParams(lambda0=1.0, act=0.0, u_e=1.0, rate_power=1.0)
    q = 1.0 * params.phi0 / da
    prescribed = prescribed_interval_flux(mesh, top, lambda x: q)
    bc = {
        "left": SegmentBC(solute=(DIRICHLET, 0.0)),
        "right": SegmentBC(solute=(OUTFLOW, 0.0)),
    }
    x = mesh.cell_centroids[:, 0]
    u0 = np.where((x >= 0.4) & (x <= 0.6), 2.0, 0.0)

    def factory(num_steps: int) -> Problem:
        top_local = top
        state = make_state(top_local, params)
        state.u[:] = u0
        state.w[:] = 1.0
        return Problem(top=top_local, state0=state,
                       grid=TimeGrid(0.216, num_steps), params=params,
                       reaction=reaction, bc=bc,
                       eta=np.zeros(top_local.layout.ndof),
                       prescribed=prescribed)

    return factory


def build_test1d_splitting() -> Scenario:
    """Simplified transport-reaction case used for the splitting-error
    study (linear rate, frozen porosity, given velocity). Runs at Da = 1
    with 50 steps."""
    problem = splitting_problem_factory(1.0)(50)
    mesh = build_interval_mesh(1.0, 100)
    return Scenario(name="test1d_splitting", mesh=mesh, problem=problem)


def _point_source_problem(da: float, *, u_in: float, w0: float,
                          grid: TimeGrid) -> tuple[MixedDimMesh, Problem]:
    mesh = build_interval_mesh(1.0, 101)
    top = build_topology(mesh)
    params = PhysParams(d=1e-3)
    reaction = ReactionParams()          # lambda0=10, act=4 -> lambda(1)=10e^-4
    lam = float(lambda_minus(1.0, reaction))
    q = lam * params.phi0 / da
    prescribed = prescribed_interval_flux(
        mesh, top, lambda x: math.copysign(q, x - 0.5))
    center = int(np.argmin(np.abs(mesh.cell_centroids[:, 0] - 0.5)))
    source = np.zeros(top.layout.ndof)
    source[center] = 2.0 * q * u_in      # injected water at concentration u_in
    bc = {
        "left": SegmentBC(solute=(OUTFLOW, 0.0)),
        "right": SegmentBC(solute=(OUTFLOW, 0.0)),
    }
    state = make_state(top, params, w=w0)
    problem = Problem(top=top, state0=state, grid=grid, params=params,
                      reaction=reaction, bc=bc,
                      eta=np.zeros(top.layout.ndof),
                      prescribed=prescribed, solute_source=source)
    return mesh, problem


def build_test1d_point_source_precip() -> Scenario:
    """Injection of oversaturated water at the domain centre with a
    diverging velocity field; precipitation localises around the source
    as the Damkohler number grows. Runs at Da = 0.662."""
    mesh, problem = _point_source_problem(0.662, u_in=2.0, w0=0.0,
                                          grid=TimeGrid(2.0, 50))
    return Scenario(name="test1d_point_source_precip",
                    mesh=mesh, problem=problem)


def build_test1d_point_source_dissolve() -> Scenario:
    """Injection of clean water into a uniformly precipitated column;
    the dissolution footprint shrinks as the Damkohler number grows.
    Runs at Da = 0.662."""
    mesh, problem = _point_source_problem(0.662, u_in=0.0, w0=2.0,
                                          grid=TimeGrid(8.0, 64))
    return Scenario(name="test1d_point_source_dissolve",
                    mesh=mesh, problem=problem)


# ---------------------------------------------------------------------------
# 2D scenarios


def _square_bc(u_in: float) -> dict:
    """Inflow at the bottom, outflow at the top, impervious sides."""
    return {
        "bottom": SegmentBC(flow=(PRESSURE, 1.0), heat=(DIRICHLET, 1.5),
                            solute=(DIRICHLET, u_in)),
        "top": SegmentBC(flow=(PRESSURE, 0.0), heat=(OUTFLOW, 0.0),
                         solute=(OUTFLOW, 0.0)),
        "left": SegmentBC(),
        "right": SegmentBC(),
    }


def _single_fracture_mesh() -> MixedDimMesh:
    # Staircase approximation of a fracture running from (0.1, 0) on the
    # inflow boundary up to (0.9, 0.8) inside the domain.
    poly = staircase_polyline((0.1, 0.0), (0.9, 0.8), 0.0125)
    return build_structured_2d(80, 80, fractures=[poly])


def build_single_fracture_injection() -> Scenario:
    """Hot, oversaturated water enters a square domain cut by one highly
    conductive fracture; precipitation clogs the fracture."""
    return make_scenario("single_fracture_injection", _single_fracture_mesh(),
                         bc=_square_bc(u_in=2.0), grid=TimeGrid(3.0, 60),
                         params=PhysParams(), reaction=ReactionParams(),
                         w=0.3)


def build_single_fracture_opening() -> Scenario:
    """Clean hot water dissolves a precipitate block around the domain
    centre, opening the fracture that crosses it."""
    return make_scenario("single_fracture_opening", _single_fracture_mesh(),
                         bc=_square_bc(u_in=0.0), grid=TimeGrid(5.0, 100),
                         params=PhysParams(), reaction=ReactionParams(),
                         regions={"w": ((0.4, 0.4), (0.6, 0.6), 1.0)})


def _fracture_network() -> list[list[tuple[float, float]]]:
    """Ten axis-aligned fractures with several crossings in the unit
    square (a structured-grid stand-in for an intersecting network)."""
    horiz = [
        (0.15, 0.05, 0.70),
        (0.35, 0.15, 0.95),
        (0.55, 0.05, 0.55),
        (0.75, 0.35, 0.90),
        (0.85, 0.10, 0.50),
        (0.65, 0.55, 0.85),
    ]
    vert = [
        (0.25, 0.05, 0.65),
        (0.45, 0.25, 0.90),
        (0.65, 0.05, 0.45),
        (0.80, 0.30, 0.80),
    ]
    polys = [[(x0, y), (x1, y)] for y, x0, x1 in horiz]
    polys += [[(x, y0), (x, y1)] for x, y0, y1 in vert]
    return polys


def _multi_mesh() -> MixedDimMesh:
    return build_structured_2d(20, 20, fractures=_fracture_network())


def build_multi_fracture_injection() -> Scenario:
    """Solute injection into an intersecting fracture network; the
    fractures clog faster than the surrounding matrix."""
    return make_scenario("multi_fracture_injection", _multi_mesh(),
                         bc=_square_bc(u_in=2.0), grid=TimeGrid(2.5, 50),
                         params=PhysParams(eta_gamma=4.0, eta_iota=4.0),
                         reaction=ReactionParams(), w=0.3)


def build_multi_fracture_opening() -> Scenario:
    """Clean hot water dissolves precipitate-filled, nearly closed
    fractures; every fracture aperture grows to a common plateau once
    its precipitate is exhausted."""
    return make_scenario("multi_fracture_opening", _multi_mesh(),
                         bc=_square_bc(u_in=0.0), grid=TimeGrid(5.0, 100),
                         params=PhysParams(eta_gamma=4.0, eta_iota=4.0),
                         reaction=ReactionParams(), fracture_aperture=1e-4,
                         intersection_aperture=1e-4, fracture_w=10.0,
                         intersection_w=10.0)


# ---------------------------------------------------------------------------
# registry


_BUILDERS = {
    "test1d_pulse": build_test1d_pulse,
    "test1d_splitting": build_test1d_splitting,
    "test1d_point_source_precip": build_test1d_point_source_precip,
    "test1d_point_source_dissolve": build_test1d_point_source_dissolve,
    "single_fracture_injection": build_single_fracture_injection,
    "single_fracture_opening": build_single_fracture_opening,
    "multi_fracture_injection": build_multi_fracture_injection,
    "multi_fracture_opening": build_multi_fracture_opening,
}


def list_scenarios() -> dict[str, str]:
    """Name -> one-line description of every built-in scenario: the
    first sentence of its builder's docstring, which ends at a period
    followed by whitespace or the end (so "Da = 0.662" stays whole)."""
    out = {}
    for name, builder in _BUILDERS.items():
        first = re.split(r"\.(?:\s|$)", builder.__doc__ or "", maxsplit=1)[0]
        out[name] = " ".join(first.split())
    return out


def get_scenario(name: str) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
    return builder()
