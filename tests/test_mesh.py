"""Mesh construction: interval and structured 2D builders, fracture
embedding and conformity validation, also on random fracture networks."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracreact.discretize import COUPLING, INTERSECT, build_topology
from fracreact.errors import ConfigurationError
from fracreact.mesh import (TIP_INTERSECTION, Intersection,
                            build_interval_mesh, build_structured_2d)
from fracreact.scenarios import staircase_polyline
from oracles import validate_conformity
from test_discretize import assert_topology_matches_reference, boundary_tags


class TestIntervalMesh:
    def test_basic_geometry(self):
        mesh = build_interval_mesh(2.0, 4)
        assert mesh.dim == 1
        assert mesh.num_cells == 4
        assert mesh.cell_volumes.sum() == pytest.approx(2.0)
        np.testing.assert_allclose(mesh.cell_volumes, 0.5)
        np.testing.assert_allclose(mesh.cell_centroids[:, 0],
                                   [0.25, 0.75, 1.25, 1.75])

    def test_boundary_tags(self):
        mesh = build_interval_mesh(1.0, 3)
        assert boundary_tags(mesh) == {0: "left", 3: "right"}

    def test_left_normal_outward(self):
        mesh = build_interval_mesh(1.0, 3)
        assert mesh.face_normals[0, 0] == -1.0
        assert mesh.face_normals[-1, 0] == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            build_interval_mesh(-1.0, 3)
        with pytest.raises(ConfigurationError):
            build_interval_mesh(1.0, 0)

    def test_conformity(self):
        assert validate_conformity(build_interval_mesh(1.0, 7)) == []


class TestStructured2D:
    def test_cell_and_face_counts(self):
        mesh = build_structured_2d(4, 3)
        assert mesh.num_cells == 12
        assert mesh.cell_volumes.sum() == pytest.approx(1.0)
        # nx*(ny+1) horizontal + (nx+1)*ny vertical faces
        assert len(mesh.face_areas) == 4 * 4 + 5 * 3

    def test_boundary_tag_counts(self):
        mesh = build_structured_2d(4, 3)
        tags = list(boundary_tags(mesh).values())
        assert tags.count("bottom") == 4
        assert tags.count("top") == 4
        assert tags.count("left") == 3
        assert tags.count("right") == 3

    def test_custom_domain(self):
        mesh = build_structured_2d(2, 2, domain=(0.0, 2.0, -1.0, 1.0))
        assert mesh.cell_volumes.sum() == pytest.approx(4.0)
        assert mesh.diameter == pytest.approx(np.hypot(2.0, 2.0))

    def test_invalid_domain(self):
        with pytest.raises(ConfigurationError):
            build_structured_2d(2, 2, domain=(1.0, 0.0, 0.0, 1.0))

    def test_conformity(self):
        assert validate_conformity(build_structured_2d(5, 5)) == []


class TestFractureEmbedding:
    def test_through_going_vertical_fracture(self):
        mesh = build_structured_2d(4, 4, fractures=[[(0.5, 0.0), (0.5, 1.0)]])
        assert len(mesh.fractures) == 1
        frac = mesh.fractures[0]
        assert frac.num_cells == 4
        assert {tip.kind for tip in frac.tips} == {"boundary"}
        assert {tip.tag for tip in frac.tips} == {"bottom", "top"}
        np.testing.assert_allclose(mesh.face_areas[frac.cell_faces], 0.25)
        # fracture-covered bulk faces are recorded with both neighbours
        assert np.count_nonzero(mesh.face_frac[:, 0] >= 0) == 4
        assert validate_conformity(mesh) == []

    def test_immersed_fracture_tips(self):
        mesh = build_structured_2d(4, 4, fractures=[[(0.25, 0.5), (0.75, 0.5)]])
        frac = mesh.fractures[0]
        assert frac.num_cells == 2
        assert {tip.kind for tip in frac.tips} == {"immersed"}

    def test_crossing_fractures_split_into_arms(self):
        mesh = build_structured_2d(4, 4, fractures=[
            [(0.25, 0.5), (0.75, 0.5)], [(0.5, 0.25), (0.5, 0.75)]])
        assert len(mesh.fractures) == 4          # each polyline splits in two
        assert len(mesh.intersections) == 1
        np.testing.assert_allclose(mesh.intersections[0].point, [0.5, 0.5])
        kinds = [tip.kind for f in mesh.fractures for tip in f.tips]
        assert kinds.count("intersection") == 4
        assert kinds.count("immersed") == 4
        assert validate_conformity(mesh) == []

    def test_self_crossing_polyline_gets_intersection(self):
        # one polyline whose last segment crosses its first one
        mesh = build_structured_2d(4, 4, fractures=[[
            (0.25, 0.5), (0.75, 0.5), (0.75, 0.75), (0.5, 0.75), (0.5, 0.25)]])
        assert len(mesh.intersections) == 1
        np.testing.assert_allclose(mesh.intersections[0].point, [0.5, 0.5])
        tips = [tip for f in mesh.fractures for tip in f.tips
                if tip.kind == TIP_INTERSECTION and tip.intersection == 0]
        assert len(tips) == 4
        assert validate_conformity(mesh) == []
        top = build_topology(mesh)
        assert np.count_nonzero(top.kind == INTERSECT) == 4

    def test_diagonal_segment_rejected(self):
        with pytest.raises(ConfigurationError):
            build_structured_2d(4, 4, fractures=[[(0.0, 0.0), (1.0, 1.0)]])

    def test_polyline_of_3d_points_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="fracture 0 must be a polyline of 2D points"):
            build_structured_2d(4, 4, fractures=[[(0.5, 0.25, 0.0),
                                                  (0.5, 0.75, 0.0)]])

    def test_off_grid_endpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            build_structured_2d(4, 4, fractures=[[(0.26, 0.5), (0.75, 0.5)]])

    def test_near_node_endpoint_snapped(self):
        tiny = 1e-12
        mesh = build_structured_2d(4, 4,
                                   fractures=[[(0.25 + tiny, 0.5),
                                               (0.75, 0.5)]])
        assert mesh.fractures[0].num_cells == 2

    def test_unreferenced_intersection_reported(self):
        mesh = build_structured_2d(4, 4, fractures=[
            [(0.25, 0.5), (0.75, 0.5)], [(0.5, 0.25), (0.5, 0.75)]])
        extra = Intersection(point=np.array([0.25, 0.25]))
        bad = dataclasses.replace(
            mesh, intersections=mesh.intersections + (extra,))
        assert validate_conformity(bad) == [
            "intersection 1 is not referenced by any fracture tip"]

    @pytest.mark.parametrize("field, row, value, message", [
        ("face_tag", 1, 0, "a boundary tag at interior faces [1]"),
        ("face_tag", 0, -1, "no boundary tag at boundary faces [0]"),
        ("face_cells", 1, (-1, 1), "no primary adjacent cell at faces [1]"),
        ("face_frac", 29, (-1, -1),
         "face_frac does not match the fracture definition at faces [29]"),
    ])
    def test_corrupted_face_arrays_reported(self, field, row, value, message):
        # arms 0-3 of the crossing sit on faces 29, 30, 7 and 12
        mesh = build_structured_2d(4, 4, fractures=[
            [(0.25, 0.5), (0.75, 0.5)], [(0.5, 0.25), (0.5, 0.75)]])
        array = getattr(mesh, field).copy()
        array[row] = value
        bad = dataclasses.replace(mesh, **{field: array})
        assert validate_conformity(bad) == [message]

    def test_misplaced_fracture_cell_reported(self):
        mesh = build_structured_2d(4, 4, fractures=[
            [(0.25, 0.5), (0.75, 0.5)], [(0.5, 0.25), (0.5, 0.75)]])
        arm = dataclasses.replace(mesh.fractures[1], cell_faces=np.array([29]))
        bad = dataclasses.replace(
            mesh, fractures=(mesh.fractures[0], arm) + mesh.fractures[2:])
        report = validate_conformity(bad)
        assert "more than one fracture cell coupled to faces [29]" in report
        assert "face_frac does not match the fracture definition at faces " \
            "[29, 30]" in report


@st.composite
def grid_networks(draw):
    """A grid size and 1-4 polylines between nodes of the unit square.

    Each polyline has 1-5 segments that alternate between the two axes,
    so a polyline may cross itself. The grid line a segment runs along
    is an interior one, so only a polyline's two ends may touch the
    domain boundary.
    """
    nx = draw(st.integers(2, 8))
    ny = draw(st.integers(2, 8))
    polylines = []
    for _ in range(draw(st.integers(1, 4))):
        horizontal = draw(st.booleans())
        nsegments = draw(st.integers(1, 5))
        ix, iy = draw(st.integers(0, nx)), draw(st.integers(0, ny))
        if horizontal:
            iy = draw(st.integers(1, ny - 1))
        else:
            ix = draw(st.integers(1, nx - 1))
        nodes = [(ix, iy)]
        for k in range(nsegments):
            n, cur = (nx, ix) if horizontal else (ny, iy)
            inner = [j for j in range(1, n) if j != cur]
            last = k == nsegments - 1 or not inner
            choices = [j for j in range(n + 1) if j != cur] if last else inner
            if horizontal:
                ix = draw(st.sampled_from(choices))
            else:
                iy = draw(st.sampled_from(choices))
            nodes.append((ix, iy))
            if last:
                break
            horizontal = not horizontal
        polylines.append([(jx / nx, jy / ny) for jx, jy in nodes])
    return nx, ny, polylines


class TestRandomNetworks:
    @settings(max_examples=150, deadline=None)
    @given(grid_networks())
    def test_builder_conforms_or_rejects(self, network):
        nx, ny, polylines = network
        try:
            mesh = build_structured_2d(nx, ny, fractures=polylines)
        except ConfigurationError:
            return
        assert validate_conformity(mesh) == []
        top = build_topology(mesh)
        assert_topology_matches_reference(mesh, top)
        lay = top.layout

        def degree(kind):
            sel = top.kind == kind
            ends = np.concatenate([top.ci[sel], top.cj[sel]])
            return np.bincount(ends, minlength=lay.ndof)

        assert np.all(degree(COUPLING)[lay.is_frac] == 2)
        assert np.all(degree(INTERSECT)[lay.is_inter] >= 2)

        # every node where three or more fracture edges meet is an
        # intersection
        edges_at = Counter(v for frac in mesh.fractures
                           for f in frac.cell_faces
                           for v in mesh.face_vertices[f])
        inter = {tuple(i.point) for i in mesh.intersections}
        assert all(tuple(mesh.points[v]) in inter
                   for v, n in edges_at.items() if n >= 3)


@pytest.mark.parametrize("end", [(0.25, 0.75), (0.75, 0.25), (0.25, 0.25)])
def test_staircase_rejects_end_not_up_right(end):
    with pytest.raises(ValueError, match="staircase expects end up-right"):
        staircase_polyline((0.5, 0.5), end, 0.125)
