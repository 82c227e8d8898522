"""Degree-of-freedom layout, two-point transmissibilities, upwinding and
the mixed-dimensional divergence operator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracreact.discretize import (BULK, COUPLING, FRAC, INTERSECT,
                                  boundary_transmissibilities, build_layout,
                                  build_topology, transmissibilities)
from fracreact.errors import MeshConformityError, NumericError
from fracreact.mesh import (TIP_BOUNDARY, TIP_INTERSECTION,
                            build_interval_mesh, build_structured_2d)
from fracreact.physics import OUTFLOW, Operator, SegmentBC, transport_step
from fracreact.scenarios import get_scenario, list_scenarios
from oracles import assemble_mixed_divergence


@pytest.fixture(scope="module")
def network():
    mesh = build_structured_2d(4, 4, fractures=[
        [(0.25, 0.5), (0.75, 0.5)], [(0.5, 0.25), (0.5, 0.75)]])
    return mesh, build_topology(mesh)


@pytest.fixture(scope="module")
def line():
    mesh = build_interval_mesh(1.0, 5)
    return mesh, build_topology(mesh)


class TestLayout:
    def test_dof_partition(self, network):
        mesh, top = network
        lay = top.layout
        nfrac = sum(f.num_cells for f in mesh.fractures)
        assert lay.ndof == mesh.num_cells + nfrac + len(mesh.intersections)
        assert lay.is_bulk.sum() == mesh.num_cells
        assert lay.is_frac.sum() == nfrac
        assert lay.is_inter.sum() == len(mesh.intersections)
        # the three masks partition the dof set
        total = (lay.is_bulk.astype(int) + lay.is_frac.astype(int)
                 + lay.is_inter.astype(int))
        assert np.all(total == 1)

    def test_measures(self, network):
        mesh, top = network
        lay = top.layout
        np.testing.assert_array_equal(lay.measure[:lay.n_bulk],
                                      mesh.cell_volumes)
        np.testing.assert_allclose(lay.measure[lay.is_frac], 0.25)
        np.testing.assert_allclose(lay.measure[lay.is_inter], 1.0)

    def test_frac_dofs(self, network):
        mesh, top = network
        lay = top.layout
        for fid, frac in enumerate(mesh.fractures):
            dofs = np.arange(frac.num_cells) + lay.frac_offsets[fid]
            assert np.all(lay.is_frac[dofs])
            np.testing.assert_array_equal(np.nonzero(lay.frac_of_dof == fid)[0],
                                          dofs)


class TestTopology:
    def test_interval_connections(self, line):
        mesh, top = line
        assert top.n_conn == mesh.num_cells - 1
        assert np.all(top.kind == BULK)
        assert len(top.b_dof) == 2
        assert {top.seg_names[c] for c in top.b_seg} == {"left", "right"}

    def test_zero_centroid_to_face_distance_rejected(self, line):
        mesh, _ = line
        face = int(np.nonzero(mesh.face_cells[:, 1] == 1)[0][0])
        centroids = mesh.cell_centroids.copy()
        centroids[1] = mesh.face_centroids[face]
        with pytest.raises(MeshConformityError, match=rf"^zero centroid-to-face "
                           rf"distance at face {face}, cell 1$"):
            build_topology(dataclasses.replace(mesh, cell_centroids=centroids))

    def test_connection_kinds_present(self, network):
        _, top = network
        kinds = set(top.kind.tolist())
        assert {BULK, COUPLING, INTERSECT} <= kinds
        # every fracture cell couples to its two bulk neighbours
        assert np.count_nonzero(top.kind == COUPLING) == 2 * 4

    def test_coupling_low_dof_is_lower_dimensional(self, network):
        _, top = network
        lay = top.layout
        for k in np.nonzero(top.kind == COUPLING)[0]:
            assert lay.is_frac[top.low_dof[k]]
            assert lay.is_bulk[top.ci[k]] or lay.is_bulk[top.cj[k]]

    def test_intersection_connections(self, network):
        _, top = network
        lay = top.layout
        ks = np.nonzero(top.kind == INTERSECT)[0]
        assert len(ks) == 4          # four arms meet the single crossing
        for k in ks:
            assert lay.is_inter[top.ci[k]] or lay.is_inter[top.cj[k]]


class TestTransmissibility:
    def test_two_cell_harmonic_value(self, line):
        _, top = line
        coef = np.full(top.layout.ndof, 3.0)
        t = transmissibilities(top, coef)
        # T = area / (d_i/k + d_j/k) with d = h/2 = 0.1
        np.testing.assert_allclose(t, 1.0 / (0.1 / 3.0 + 0.1 / 3.0))

    def test_blocked_side_gives_zero(self, line):
        _, top = line
        coef = np.full(top.layout.ndof, 2.0)
        coef[2] = 0.0
        t = transmissibilities(top, coef)
        assert t[1] == 0.0 and t[2] == 0.0
        assert t[0] > 0.0

    def test_interface_resistance_lowers_t(self, line):
        _, top = line
        coef = np.full(top.layout.ndof, 1.0)
        t0 = transmissibilities(top, coef)
        t1 = transmissibilities(top, coef, np.full(top.n_conn, 10.0))
        assert np.all(t1 < t0)

    def test_boundary_half_cell(self, line):
        _, top = line
        coef = np.full(top.layout.ndof, 2.0)
        tb = boundary_transmissibilities(top, coef)
        np.testing.assert_allclose(tb, 1.0 / (0.1 / 2.0))

    def test_nan_coefficient_reaches_the_solve(self):
        top = build_topology(build_interval_mesh(1.0, 4))
        t = transmissibilities(top, [1.0, np.nan, 1.0, 1.0])
        assert np.isnan(t[:2]).all() and t[2] == 4.0
        ones = np.ones(4)
        with pytest.raises(NumericError, match="non-finite entries"):
            transport_step(Operator(top, {"left": SegmentBC(),
                                          "right": SegmentBC()}, "solute"),
                           t, boundary_transmissibilities(top, ones),
                           ones, ones, ones, np.zeros(3), np.zeros(2), 1.0,
                           0.1)

    def test_nan_boundary_coefficient_gives_nan(self):
        top = build_topology(build_interval_mesh(1.0, 4))
        coef = np.ones(4)
        coef[top.b_dof[0]] = np.nan
        tb = boundary_transmissibilities(top, coef)
        assert np.isnan(tb[0]) and tb[1] == 8.0

    def test_tpfa_bulk_skips_fracture_faces(self, network):
        # a face cut by a fracture carries two couplings, no bulk connection
        mesh, top = network
        bulk_faces = set(top.face_id[top.kind == BULK].tolist())
        for f in np.nonzero(mesh.face_frac[:, 0] >= 0)[0]:
            assert f not in bulk_faces
            assert np.count_nonzero((top.face_id == f)
                                    & (top.kind == COUPLING)) == 2

    def test_coupling_series_composition(self, network):
        # interface conductance kappa*a/(mu*eps) in series with the matrix
        # half-transmissibility k*a/d of the bulk side
        _, top = network
        k = np.nonzero(top.kind == COUPLING)[0][0]
        coef = np.full(top.layout.ndof, 2.0)
        eps, kappa, mu = 1e-2, 1e2, 1.0
        resist = np.zeros(top.n_conn)
        resist[k] = mu * eps / kappa
        t = transmissibilities(top, coef, resist)[k]
        interface = kappa * top.area[k] / (mu * eps)
        matrix_half = 2.0 * top.area[k] / top.di[k]
        assert top.dj[k] == 0.0      # no distance on the fracture side
        assert t == pytest.approx(1.0 / (1.0 / interface + 1.0 / matrix_half),
                                  rel=1e-14)

    def test_coupling_degenerate_cases(self, network):
        _, top = network
        k = np.nonzero(top.kind == COUPLING)[0][0]
        coef = np.full(top.layout.ndof, 2.0)
        blocked = np.zeros(top.n_conn)
        blocked[k] = np.inf          # zero interface permeability
        assert transmissibilities(top, coef, blocked)[k] == 0.0
        coef[top.ci[k]] = 0.0        # blocked matrix side
        assert transmissibilities(top, coef)[k] == 0.0


def _masked_resistance(dist, coef):
    """Reference for the half-cell resistance: dist/coef where dist > 0
    and coef > 0 (or NaN), inf where dist > 0 and coef <= 0, else 0."""
    out = np.zeros(len(dist))
    active = dist > 0
    blocked = active & (coef <= 0)
    ok = active & ~(coef <= 0)
    out[ok] = dist[ok] / coef[ok]
    out[blocked] = np.inf
    return out


_SPECIAL = st.sampled_from([0.0, -0.0, -1.5, np.inf, -np.inf, np.nan])
_COEFS = st.one_of(_SPECIAL, st.floats(-1e3, 1e3))
_DISTS = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@settings(deadline=None)
@given(data=st.data())
def test_transmissibilities_match_masked_reference(network, data):
    # every value of a drawn coefficient, distance and interface
    # resistance gives the reference's bits, NaN and signed zeros included
    _, top = network
    n, m, nb = top.layout.ndof, top.n_conn, len(top.b_dof)

    def draw(elements, size):
        return np.array(data.draw(st.lists(elements, min_size=size,
                                           max_size=size)), dtype=float)

    coef, resist = draw(_COEFS, n), draw(_COEFS, m)
    top = dataclasses.replace(top, di=draw(_DISTS, m), dj=draw(_DISTS, m),
                              b_dist=draw(_DISTS, nb))
    with np.errstate(all="ignore"):
        want = top.area / (_masked_resistance(top.di, coef[top.ci])
                           + _masked_resistance(top.dj, coef[top.cj]))
        want_resist = top.area / (_masked_resistance(top.di, coef[top.ci])
                                  + _masked_resistance(top.dj, coef[top.cj])
                                  + resist)
        want_bnd = top.b_area / _masked_resistance(top.b_dist, coef[top.b_dof])
        got = transmissibilities(top, coef)
        got_resist = transmissibilities(top, coef, resist)
        got_bnd = boundary_transmissibilities(top, coef)
    assert got.tobytes() == want.tobytes()
    assert got_resist.tobytes() == want_resist.tobytes()
    assert got_bnd.tobytes() == want_bnd.tobytes()


def _advect(top, x_old, conn_flux, bnd_flux, solute, dt=0.1):
    """One implicit pure-advection step with unit accumulation and the
    solute boundary data ``solute`` on both ends."""
    zero = np.zeros(top.layout.ndof)
    ones = np.ones(top.layout.ndof)
    bc = {tag: SegmentBC(solute=solute) for tag in ("left", "right")}
    return transport_step(Operator(top, bc, "solute"),
                          transmissibilities(top, zero),
                          boundary_transmissibilities(top, zero), ones, ones,
                          x_old, conn_flux, bnd_flux, 1.0, dt)


class TestUpwind:
    def test_sign_selects_upstream(self, line):
        _, top = line
        x_old = np.arange(top.layout.ndof, dtype=float)
        flux = np.array([1.0, -1.0, 1.0, -1.0])
        dt = 0.1
        x, _ = _advect(top, x_old, flux, np.zeros(2), SegmentBC().solute, dt)
        up = np.where(flux >= 0, x[top.ci], x[top.cj])
        down = np.where(flux >= 0, x[top.cj], x[top.ci])
        # the solve balances the upstream face values, not the downstream
        np.testing.assert_allclose(
            x - x_old + dt * assemble_mixed_divergence(top, flux * up), 0.0,
            atol=1e-13)
        assert not np.allclose(
            x - x_old + dt * assemble_mixed_divergence(top, flux * down), 0.0)

    def test_boundary_inflow_uses_datum(self, line):
        _, top = line
        left = top.b_seg.tolist().index(top.seg_names.index("left"))
        bflux = np.where(np.arange(2) == left, -1.0, 1.0)
        x, bnd_total = _advect(top, np.full(top.layout.ndof, 5.0),
                               np.zeros(top.n_conn), bflux, (OUTFLOW, 9.0))
        right = 1 - left
        assert bnd_total[left] == -9.0   # inflow carries the boundary value
        # outflow carries the cell value
        assert bnd_total[right] == x[top.b_dof[right]]
        assert x[top.b_dof[right]] < 5.0


class TestDivergence:
    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_interior_fluxes_telescope(self, seed):
        mesh = build_structured_2d(3, 3, fractures=[[(1 / 3, 1 / 3),
                                                     (1 / 3, 2 / 3)]])
        top = build_topology(mesh)
        rng = np.random.default_rng(seed)
        conn = rng.normal(size=top.n_conn)
        bnd = rng.normal(size=len(top.b_dof))
        div = assemble_mixed_divergence(top, conn, bnd)
        # interior contributions cancel: total divergence = boundary total
        assert np.sum(div) == pytest.approx(np.sum(bnd), abs=1e-12)

    def test_without_boundary_sums_to_zero(self, network):
        _, top = network
        div = assemble_mixed_divergence(top, np.ones(top.n_conn))
        assert np.sum(div) == pytest.approx(0.0, abs=1e-13)


def boundary_tags(mesh):
    """Boundary face id -> segment name."""
    return {int(f): mesh.tag_names[mesh.face_tag[f]]
            for f in np.nonzero(mesh.face_tag >= 0)[0]}


def test_boundary_faces_by_tag_partition(network):
    mesh, top = network
    tags = np.asarray(top.seg_names)[top.b_seg]
    assert len(tags) == len(top.b_dof)
    for tag in set(boundary_tags(mesh).values()):
        expect = sorted(f for f, t in boundary_tags(mesh).items() if t == tag)
        assert sorted(top.b_face_id[tags == tag].tolist()) == expect


# ---------------------------------------------------------------------------
# reference: the per-face loop the index arithmetic of build_topology
# replaced


def _reference_topology(mesh):
    """Topology fields, boundary segments as names (``b_tag``)."""
    layout = build_layout(mesh)
    ci, cj, kind, area, di, dj, low, face_id = [], [], [], [], [], [], [], []
    b_dof, b_area, b_dist, b_tag, b_face = [], [], [], [], []

    def normal_dist(cell, f):
        v = mesh.face_centroids[f] - mesh.cell_centroids[cell]
        return abs(float(np.dot(v, mesh.face_normals[f])))

    for f in range(len(mesh.face_areas)):
        c0, c1 = mesh.face_cells[f]
        if mesh.face_frac[f, 0] >= 0:
            fid, local = mesh.face_frac[f]
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
            b_tag.append(mesh.tag_names[mesh.face_tag[f]]); b_face.append(f)

    for fid, frac in enumerate(mesh.fractures):
        off = layout.frac_offsets[fid]
        measures = mesh.face_areas[frac.cell_faces]
        for a in range(frac.num_cells - 1):
            ci.append(off + a); cj.append(off + a + 1); kind.append(FRAC)
            area.append(1.0)
            di.append(measures[a] / 2.0)
            dj.append(measures[a + 1] / 2.0)
            low.append(-1); face_id.append(-1)
        for tip in frac.tips:
            tdof = off + tip.cell
            if tip.kind == TIP_INTERSECTION:
                idof = layout.inter_offset + tip.intersection
                ci.append(tdof); cj.append(idof); kind.append(INTERSECT)
                area.append(1.0)
                di.append(measures[tip.cell] / 2.0); dj.append(0.0)
                low.append(idof); face_id.append(-1)
            elif tip.kind == TIP_BOUNDARY:
                b_dof.append(tdof); b_area.append(1.0)
                b_dist.append(measures[tip.cell] / 2.0)
                b_tag.append(tip.tag); b_face.append(-1)

    return layout, dict(
        ci=np.asarray(ci, dtype=int), cj=np.asarray(cj, dtype=int),
        kind=np.asarray(kind, dtype=int), area=np.asarray(area, dtype=float),
        di=np.asarray(di, dtype=float), dj=np.asarray(dj, dtype=float),
        low_dof=np.asarray(low, dtype=int), face_id=np.asarray(face_id, dtype=int),
        b_dof=np.asarray(b_dof, dtype=int), b_area=np.asarray(b_area, dtype=float),
        b_dist=np.asarray(b_dist, dtype=float), b_tag=np.asarray(b_tag, dtype=str),
        b_face_id=np.asarray(b_face, dtype=int))


def assert_topology_matches_reference(mesh, top):
    """Every Topology and DofLayout array equals the per-face loop's."""
    layout, fields = _reference_topology(mesh)
    for field in dataclasses.fields(layout):
        assert np.array_equal(getattr(top.layout, field.name),
                              getattr(layout, field.name)), field.name
    for name, want in fields.items():
        got = (np.asarray(top.seg_names)[top.b_seg] if name == "b_tag"
               else getattr(top, name))
        assert got.dtype.kind == want.dtype.kind, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("name", sorted(list_scenarios()))
def test_topology_matches_reference_on_builtins(name):
    scenario = get_scenario(name)
    assert_topology_matches_reference(scenario.mesh, scenario.problem.top)
