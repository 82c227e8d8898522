"""Diagnostics CSV and legacy VTK writers, their readers, and the
round-trip / determinism guarantees."""

import filecmp
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fracreact.discretize import build_topology
from fracreact.errors import FracReactError
from fracreact.mesh import build_structured_2d
from fracreact.output import (BALANCE_COLUMNS, BalanceWriter, OutputWriter,
                              read_balance, vtk_pieces, write_vtk_snapshot)
from fracreact.physics import FieldState
from fracreact.scenarios import get_scenario
from fracreact.splitting import StepReport, run
from oracles import read_vtk, read_vtk_cell_data


def _report(step):
    return StepReport(step=step, time=0.1 * step, mass_u=1.0 / (step + 3),
                      mass_w=0.25, influx=0.125, outflux=np.pi,
                      delta_m=1.2345678901234567e-13)


class TestBalanceCsv:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "balance.csv"
        writer = BalanceWriter(path)
        reports = [_report(s) for s in range(4)]
        for rep in reports:
            writer.write(rep)
        writer.close()
        rows = read_balance(path)
        assert len(rows) == 4
        for row, rep in zip(rows, reports):
            assert row["step"] == rep.step
            # 17 significant digits reproduce doubles exactly
            assert row["mass_u"] == rep.mass_u
            assert row["outflux"] == rep.outflux
            assert row["delta_m"] == rep.delta_m

    def test_unopenable_file_raises(self, tmp_path):
        with pytest.raises(FracReactError, match="cannot open balance file"):
            BalanceWriter(tmp_path / "missing" / "balance.csv")

    def test_read_rejects_other_columns(self, tmp_path):
        path = tmp_path / "balance.csv"
        path.write_text("step,time,mass\n0,0,1\n")
        with pytest.raises(FracReactError) as info:
            read_balance(path)
        assert str(info.value) == (f"{path}: unexpected balance columns "
                                   "['step', 'time', 'mass']")

    def test_header_column_order(self, tmp_path):
        path = tmp_path / "balance.csv"
        writer = BalanceWriter(path)
        writer.write(_report(0))
        writer.close()
        header = path.read_text().splitlines()[0]
        assert header == ",".join(BALANCE_COLUMNS)


class TestVtk:
    def test_snapshot_files_and_round_trip(self, tmp_path):
        scenario = get_scenario("single_fracture_injection")
        state = scenario.problem.state0
        files = write_vtk_snapshot(
            tmp_path, scenario.name, 7,
            vtk_pieces(scenario.mesh, scenario.problem.top), state)
        names = sorted(f.name for f in map(_as_path, files))
        assert f"{scenario.name}_bulk_000007.vtk" in names
        assert any("fracture00" in n for n in names)
        data = read_vtk_cell_data(
            tmp_path / f"{scenario.name}_bulk_000007.vtk")
        for key in ("p", "theta", "u", "w", "pore_fraction",
                    "pore_fraction_u", "pore_fraction_w"):
            assert key in data
            assert len(data[key]) == scenario.mesh.num_cells
        lay = scenario.problem.top.layout
        np.testing.assert_array_equal(data["w"], state.w[lay.is_bulk])
        np.testing.assert_array_equal(
            data["pore_fraction_w"],
            state.pore[lay.is_bulk] * state.w[lay.is_bulk])

    def test_unwritable_snapshot_raises(self, tmp_path):
        scenario = get_scenario("test1d_pulse")
        with pytest.raises(FracReactError, match="cannot write VTK file"):
            write_vtk_snapshot(tmp_path / "missing", scenario.name, 0,
                               vtk_pieces(scenario.mesh, scenario.problem.top),
                               scenario.problem.state0)

    def test_interval_snapshot(self, tmp_path):
        scenario = get_scenario("test1d_pulse")
        write_vtk_snapshot(tmp_path, scenario.name, 0,
                           vtk_pieces(scenario.mesh, scenario.problem.top),
                           scenario.problem.state0)
        data = read_vtk_cell_data(tmp_path / "test1d_pulse_bulk_000000.vtk")
        assert len(data["u"]) == 100

    def test_vtk_header_is_legacy_binary(self, tmp_path):
        scenario = get_scenario("test1d_pulse")
        write_vtk_snapshot(tmp_path, scenario.name, 0,
                           vtk_pieces(scenario.mesh, scenario.problem.top),
                           scenario.problem.state0)
        lines = (tmp_path / "test1d_pulse_bulk_000000.vtk").read_bytes() \
            .split(b"\n", 4)[:4]
        assert lines == [b"# vtk DataFile Version 2.0",
                         b"test1d_pulse bulk step 0", b"BINARY",
                         b"DATASET UNSTRUCTURED_GRID"]

    def test_reader_rejects_missing_or_trailing_bytes(self, tmp_path):
        scenario = get_scenario("test1d_pulse")
        (path,) = write_vtk_snapshot(
            tmp_path, scenario.name, 0,
            vtk_pieces(scenario.mesh, scenario.problem.top),
            scenario.problem.state0)
        data = _as_path(path).read_bytes()
        for bad in (data[:-1], data + b"\n", data[:-9] + b"\n"):
            _as_path(path).write_bytes(bad)
            with pytest.raises(FracReactError):
                read_vtk(path)

    def test_crossing_snapshot_bytes(self, tmp_path):
        # every coordinate and field value is an exact binary fraction,
        # so the bytes are fixed
        mesh, top, state = _crossing()
        files = write_vtk_snapshot(tmp_path, "cross", 0,
                                   vtk_pieces(mesh, top), state)
        digests = {_as_path(f).name:
                   hashlib.sha256(_as_path(f).read_bytes()).hexdigest()
                   for f in files}
        assert digests == {
            "cross_bulk_000000.vtk":
                "bb11b9a1d561d512d62e8cb22ed9df91e3fea3c7097a8dea1d18c36f8b1b8aad",
            "cross_fracture00_000000.vtk":
                "fb42eaa4411969fae0551aecd00f0b3d277a39cc83e131994a2775cc5c8f18cf",
            "cross_fracture01_000000.vtk":
                "01b744ab89abe703c8d1801175a1b7ffe0639e0872ada3ea21db4c76cb0232c1",
            "cross_fracture02_000000.vtk":
                "4244ac49fad79262e4762f63a3fbca44521c9c33a0ccf1c9eb38b0c42876329a",
            "cross_fracture03_000000.vtk":
                "b1ef1b731f9a41238edb7eb13093619f52a97aebd1669c6b368f305cbb833ae3",
            "cross_intersections_000000.vtk":
                "b3c57fb39c95fbd346c9fb2ff297b8677bd0a151fdfaebc0f03a005ab3231c4f",
        }

    def test_crossing_snapshot_decodes_bit_equal(self, tmp_path):
        mesh, top, state = _crossing()
        files = write_vtk_snapshot(tmp_path, "cross", 0,
                                   vtk_pieces(mesh, top), state)
        lay = top.layout
        ends = mesh.points[mesh.face_vertices]
        pieces = [(mesh.points, 4, 9, lay.is_bulk)] + [
            (ends[frac.cell_faces].reshape(-1, 2), 2, 3, lay.frac_of_dof == f)
            for f, frac in enumerate(mesh.fractures)] + [
            ([inter.point for inter in mesh.intersections], 1, 1,
             lay.is_inter)]
        assert len(files) == len(pieces) == 6
        for path, (pts, k, ctype, sel) in zip(files, pieces):
            points, cells, types, data = read_vtk(path)
            pts = np.asarray(pts, dtype=float)
            assert _bits(points[:, :2]) == _bits(pts)
            assert not points[:, 2].any()
            n = np.count_nonzero(sel)
            # only the bulk shares points between cells
            vertices = (mesh.cell_vertices if ctype == 9
                        else np.arange(n * k).reshape(n, k))
            assert _bits(cells, "i4") == _bits(
                np.column_stack([np.full(n, k), vertices]), "i4")
            assert _bits(types, "i4") == _bits(np.full(n, ctype), "i4")
            assert list(data) == list(FIELDS)
            for name, values in data.items():
                assert _bits(values) == _bits(_field(state, name)[sel]), name

    def test_run_snapshot_decodes_every_field(self, tmp_path):
        scenario = get_scenario("single_fracture_injection")
        grid = scenario.problem.grid
        scenario = scenario.with_grid(
            type(grid)(grid.t_end * 5 / grid.num_steps, 5))
        state, _ = run(scenario.problem)
        files = write_vtk_snapshot(
            tmp_path, scenario.name, 5,
            vtk_pieces(scenario.mesh, scenario.problem.top), state)
        lay = scenario.problem.top.layout
        sels = [lay.is_bulk] + [lay.frac_of_dof == f for f in
                                range(len(scenario.mesh.fractures))]
        assert len(files) == len(sels)
        for path, sel in zip(files, sels):
            data = read_vtk_cell_data(path)
            assert list(data) == list(FIELDS)
            for name, values in data.items():
                np.testing.assert_array_equal(values,
                                              _field(state, name)[sel])


FIELDS = ("p", "theta", "u", "w", "pore_fraction", "pore_fraction_u",
          "pore_fraction_w")


def _field(state, name):
    if name.startswith("pore_fraction_"):
        return state.pore * getattr(state, name[-1])
    return state.pore if name == "pore_fraction" else getattr(state, name)


def _bits(values, kind="f8"):
    return np.ascontiguousarray(values, dtype=kind).tobytes()


def _crossing():
    # four arms and one intersection; every coordinate and field value
    # is an exact binary fraction
    mesh = build_structured_2d(4, 4, fractures=[
        [(0.25, 0.5), (0.75, 0.5)], [(0.5, 0.25), (0.5, 0.75)]])
    top = build_topology(mesh)
    k = np.arange(top.layout.ndof)
    state = FieldState(p=k / 4.0, theta=1.0 + k / 8.0, u=k / 16.0,
                       w=k / 32.0, pore=0.5 - k / 128.0,
                       react_prev=np.zeros(len(k)))
    return mesh, top, state


def _as_path(f):
    import pathlib
    return pathlib.Path(f)


class TestOutputWriter:
    def _run(self, out_dir, num_steps=8, every=4):
        scenario = get_scenario("test1d_pulse")
        scenario = scenario.with_grid(
            type(scenario.problem.grid)(scenario.problem.grid.t_end
                                        * num_steps / 60, num_steps))
        writer = OutputWriter(out_dir, replace(scenario, output_every=every))
        try:
            run(scenario.problem, sinks=[writer])
        finally:
            writer.close()
        return scenario

    def test_cadence_and_rows(self, tmp_path):
        self._run(tmp_path)
        rows = read_balance(tmp_path / "test1d_pulse_balance.csv")
        assert [r["step"] for r in rows] == list(range(9))
        assert rows[0]["delta_m"] == 0.0
        snaps = sorted(p.name for p in tmp_path.glob("*_bulk_*.vtk"))
        assert snaps == ["test1d_pulse_bulk_000000.vtk",
                         "test1d_pulse_bulk_000004.vtk",
                         "test1d_pulse_bulk_000008.vtk"]

    def test_rerun_byte_identical(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        self._run(dir_a)
        self._run(dir_b)
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        for name in names:
            assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name

    def test_csv_delta_matches_reports(self, tmp_path):
        scenario = get_scenario("test1d_pulse")
        writer = OutputWriter(tmp_path, replace(scenario, output_every=30))
        try:
            _, reports = run(scenario.problem, sinks=[writer])
        finally:
            writer.close()
        rows = read_balance(tmp_path / "test1d_pulse_balance.csv")
        for row, rep in zip(rows, reports):
            assert row["delta_m"] == rep.delta_m
