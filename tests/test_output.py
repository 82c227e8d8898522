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
from oracles import read_vtk_cell_data


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

    def test_vtk_header_is_legacy_ascii(self, tmp_path):
        scenario = get_scenario("test1d_pulse")
        write_vtk_snapshot(tmp_path, scenario.name, 0,
                           vtk_pieces(scenario.mesh, scenario.problem.top),
                           scenario.problem.state0)
        lines = (tmp_path / "test1d_pulse_bulk_000000.vtk").read_text() \
            .splitlines()
        assert lines[0].startswith("# vtk DataFile Version")
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"

    def test_crossing_snapshot_bytes(self, tmp_path):
        # four arms and one intersection; every coordinate and field
        # value is an exact binary fraction, so the bytes are fixed
        mesh = build_structured_2d(4, 4, fractures=[
            [(0.25, 0.5), (0.75, 0.5)], [(0.5, 0.25), (0.5, 0.75)]])
        top = build_topology(mesh)
        k = np.arange(top.layout.ndof)
        state = FieldState(p=k / 4.0, theta=1.0 + k / 8.0, u=k / 16.0,
                           w=k / 32.0, pore=0.5 - k / 128.0,
                           react_prev=np.zeros(len(k)))
        files = write_vtk_snapshot(tmp_path, "cross", 0,
                                   vtk_pieces(mesh, top), state)
        digests = {_as_path(f).name:
                   hashlib.sha256(_as_path(f).read_bytes()).hexdigest()
                   for f in files}
        assert digests == {
            "cross_bulk_000000.vtk":
                "8bc5da7fe020da65d0e6555ccab73fce58996b115086499021568d75d4498ea8",
            "cross_fracture00_000000.vtk":
                "bd45d5a29b6cd3ce16ed00761d3be70ce9cc0726740a11ac86b6d36ba54b9527",
            "cross_fracture01_000000.vtk":
                "84ee5ca62cf3c89f36a4f977de2c51ec06fd60ec071c22aca2a4c088261d8e41",
            "cross_fracture02_000000.vtk":
                "81ddda77a7b3cc863bce260eaf5aea188b863c3a9df94f07e05f9e7e9a135bc7",
            "cross_fracture03_000000.vtk":
                "2a39b1136a9142922a55312e679c6eb02815d0c73bb33607e7d06a0b3c1808d0",
            "cross_intersections_000000.vtk":
                "938175430419588edb46af3cb94a68337dccfb77eed9eed0db65b0d296439e1b",
        }


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
