"""Diagnostics CSV and legacy VTK writers, their readers, and the
round-trip / determinism guarantees."""

import filecmp
from dataclasses import replace

import numpy as np
import pytest

from fracreact.output import (BALANCE_COLUMNS, BalanceWriter, OutputWriter,
                              read_balance, read_vtk_cell_data,
                              write_vtk_snapshot)
from fracreact.scenarios import get_scenario
from fracreact.splitting import StepReport, run


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
        files = write_vtk_snapshot(tmp_path, scenario.name, 7, scenario.mesh,
                                   scenario.problem.top, state)
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

    def test_interval_snapshot(self, tmp_path):
        scenario = get_scenario("test1d_pulse")
        write_vtk_snapshot(tmp_path, scenario.name, 0, scenario.mesh,
                           scenario.problem.top, scenario.problem.state0)
        data = read_vtk_cell_data(tmp_path / "test1d_pulse_bulk_000000.vtk")
        assert len(data["u"]) == 100

    def test_vtk_header_is_legacy_ascii(self, tmp_path):
        scenario = get_scenario("test1d_pulse")
        write_vtk_snapshot(tmp_path, scenario.name, 0, scenario.mesh,
                           scenario.problem.top, scenario.problem.state0)
        lines = (tmp_path / "test1d_pulse_bulk_000000.vtk").read_text() \
            .splitlines()
        assert lines[0].startswith("# vtk DataFile Version")
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"


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
