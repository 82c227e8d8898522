"""Configuration files, scenario registry and the command-line verbs."""

import os
import re

import numpy as np
import pytest

from fracreact import scenarios
from fracreact.cli import main
from fracreact.config import parse_config
from fracreact.errors import ConfigurationError
from fracreact.output import read_balance
from fracreact.scenarios import get_scenario, list_scenarios
from fracreact.splitting import run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(REPO, "configs")

MINIMAL = """
[domain]
kind = interval
length = 1.0
num_cells = 10

[bc.left]
flow = pressure 1.0
heat = dirichlet 1.0
solute = dirichlet 0.0

[bc.right]
flow = pressure 0.0
heat = outflow
solute = outflow

[time]
t_end = 0.1
num_steps = 4
"""


def _write(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRegistry:
    def test_eight_builtins(self):
        registry = list_scenarios()
        assert len(registry) == 8
        assert set(registry) == {
            "test1d_pulse", "test1d_splitting", "test1d_point_source_precip",
            "test1d_point_source_dissolve", "single_fracture_injection",
            "single_fracture_opening", "multi_fracture_injection",
            "multi_fracture_opening"}
        assert all(desc for desc in registry.values())

    def test_description_keeps_decimal_numbers(self, monkeypatch):
        def build_case():
            """Point source run to equilibrium (Da = 0.662) on 100
            cells. Second sentence."""

        monkeypatch.setitem(scenarios._BUILDERS, "decimal_case", build_case)
        assert list_scenarios()["decimal_case"] == (
            "Point source run to equilibrium (Da = 0.662) on 100 cells")

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="known scenarios"):
            get_scenario("nope")

    def test_opening_scenario_initial_precipitate_block(self):
        scenario = get_scenario("single_fracture_opening")
        problem = scenario.problem
        from fracreact.scenarios import dof_centroids
        coords = dof_centroids(scenario.mesh, problem.top)
        inside = np.all((coords >= 0.4) & (coords <= 0.6), axis=1)
        assert np.all(problem.state0.w[inside] == 1.0)
        assert np.all(problem.state0.w[~inside] == 0.0)


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        scenario = parse_config(_write(tmp_path, MINIMAL))
        assert scenario.name == "case"
        assert scenario.output_every == 10
        assert scenario.problem.reaction.lambda0 == 10.0   # default rate law
        assert scenario.problem.grid.num_steps == 4

    def test_invalid_porosity_names_key(self, tmp_path):
        text = MINIMAL + "\n[params]\nphi0 = 1.5\n"
        with pytest.raises(ConfigurationError, match=r"params\.phi0"):
            parse_config(_write(tmp_path, text))

    def test_unknown_key_with_location(self, tmp_path):
        text = MINIMAL + "\n[params]\nviscosity = 2.0\n"
        with pytest.raises(ConfigurationError,
                           match=r"params\.viscosity: unknown key"):
            parse_config(_write(tmp_path, text))

    def test_error_names_the_line_in_its_section(self, tmp_path):
        # "p" also occurs in the header comment and in other sections
        with open(os.path.join(CONFIGS, "test1d_pulse.ini")) as fh:
            lines = fh.read().splitlines()
        at = lines.index("[initial]") + 1
        lines.insert(at, "p = abc")
        path = _write(tmp_path, "\n".join(lines) + "\n", name="a.ini")
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"a.ini:{at + 1}: initial.p: ")):
            parse_config(path)

    @pytest.mark.parametrize("old, new, keypath", [
        ("", "[params]\neta_omega = nan", "params.eta_omega"),
        ("", "[chemistry]\nlambda0 = inf", "chemistry.lambda0"),
        ("t_end = 0.1", "t_end = inf", "time.t_end"),
        ("", "[initial]\ntheta = 0.0", "initial.theta"),
        ("", "[initial]\nu = -1.0", "initial.u"),
        ("", "[initial]\nw = -0.5", "initial.w"),
        ("", "[initial]\nfracture_w = -1.0", "initial.fracture_w"),
        ("", "[initial]\nintersection_w = -1.0", "initial.intersection_w"),
        ("", "[initial]\nu_region = 0.0 0.5 -2.0", "initial.u_region"),
        ("", "[initial]\nw_region = 0.0 0.5 -2.0", "initial.w_region"),
        ("", "[initial]\nfracture_aperture = 0.0",
         "initial.fracture_aperture"),
        ("", "[initial]\nintersection_aperture = -1e-3",
         "initial.intersection_aperture"),
        ("heat = dirichlet 1.0", "heat = dirichlet -1.0", "bc.left.heat"),
        ("solute = dirichlet 0.0", "solute = dirichlet -0.5",
         "bc.left.solute"),
    ])
    def test_out_of_range_value_rejected(self, tmp_path, old, new, keypath):
        # an empty ``old`` appends ``new`` as a section of its own
        if old:
            text = MINIMAL.replace(old, new, 1)
        else:
            text = MINIMAL + "\n" + new + "\n"
        with pytest.raises(ConfigurationError, match=re.escape(keypath + ":")):
            parse_config(_write(tmp_path, text))

    @pytest.mark.parametrize("key", ["fracture_aperture",
                                     "intersection_aperture", "fracture_w",
                                     "intersection_w"])
    def test_fracture_initial_value_rejected_on_interval(self, tmp_path, key):
        text = MINIMAL + f"\n[initial]\n{key} = 0.5\n"
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"initial.{key}: interval")):
            parse_config(_write(tmp_path, text))

    @pytest.mark.parametrize("line", ["fracture_aperture = 0.0",
                                      "intersection_aperture = -1e-3",
                                      "fracture_w = -1.0",
                                      "intersection_w = -1.0"])
    def test_fracture_initial_value_range_on_rectangle(self, tmp_path, line):
        # on MINIMAL's interval these keys stop at the domain check above,
        # so their range checks are exercised on a fractured rectangle
        with open(os.path.join(CONFIGS, "single_fracture_injection.ini")) as fh:
            text = fh.read().replace("[initial]\n", f"[initial]\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"initial.{key}: must be")):
            parse_config(_write(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown section"):
            parse_config(_write(tmp_path, MINIMAL + "\n[extras]\nfoo = 1\n"))

    def test_missing_bc_section(self, tmp_path):
        text = MINIMAL.replace("[bc.right]", "[bc.wrong]")
        with pytest.raises(ConfigurationError, match="right"):
            parse_config(_write(tmp_path, text))

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            parse_config("/no/such/file.ini")

    def test_region_initialisation(self, tmp_path):
        text = MINIMAL + "\n[initial]\nu_region = 0.0 0.5 2.0\n"
        scenario = parse_config(_write(tmp_path, text))
        u = scenario.problem.state0.u
        assert np.all(u[:5] == 2.0) and np.all(u[5:] == 0.0)

    def test_shipped_pulse_config_matches_builtin(self):
        parsed = parse_config(os.path.join(CONFIGS, "test1d_pulse.ini"))
        builtin = get_scenario("test1d_pulse")
        assert parsed.problem.params == builtin.problem.params
        assert parsed.problem.reaction == builtin.problem.reaction
        assert parsed.problem.grid == builtin.problem.grid
        assert parsed.problem.bc == builtin.problem.bc
        assert np.array_equal(parsed.problem.state0.u,
                              builtin.problem.state0.u)
        # a full run matches on every field and every report, to the bit
        state_p, reports_p = run(parsed.problem)
        state_b, reports_b = run(builtin.problem)
        for field, value in vars(state_p).items():
            assert getattr(state_b, field).tobytes() == value.tobytes(), field
        assert [repr(r) for r in reports_p] == [repr(r) for r in reports_b]

    def test_shipped_injection_config_reference_values(self):
        scenario = parse_config(
            os.path.join(CONFIGS, "single_fracture_injection.ini"))
        params = scenario.problem.params
        assert (params.mu, params.k0, params.phi0) == (1.0, 1.0, 0.2)
        assert (params.kgamma0, params.kappagamma0) == (1e2, 1e2)
        assert (params.epsgamma0, params.epsiota0) == (1e-2, 1e-2)
        assert (params.eta_omega, params.eta_gamma, params.eta_iota) == \
            (0.5, 2.0, 2.0)
        assert (params.lambdaw, params.lambdas) == (1.0, 0.1)
        assert (params.d, params.dgamma, params.deltagamma) == (1.0, 0.1, 0.1)
        reaction = scenario.problem.reaction
        assert (reaction.lambda0, reaction.act, reaction.u_e,
                reaction.rate_power) == (10.0, 4.0, 1.0, 2.0)
        # the parsed record reproduces the built-in scenario exactly
        builtin = get_scenario("single_fracture_injection")
        assert scenario.problem.bc == builtin.problem.bc
        for field in ("p", "theta", "u", "w", "pore"):
            assert np.array_equal(getattr(scenario.problem.state0, field),
                                  getattr(builtin.problem.state0, field))

    def test_fracture_polyline_config(self, tmp_path):
        text = """
[domain]
kind = rectangle
nx = 4
ny = 4

[fracture.0]
points = 0.5 0.0 ; 0.5 1.0

[bc.bottom]
flow = pressure 1.0
heat = dirichlet 1.0
solute = dirichlet 0.0

[bc.top]
flow = pressure 0.0
heat = outflow
solute = outflow

[bc.left]
flow = flux 0
heat = flux 0
solute = flux 0

[bc.right]
flow = flux 0
heat = flux 0
solute = flux 0

[time]
t_end = 0.1
num_steps = 2
"""
        scenario = parse_config(_write(tmp_path, text))
        assert len(scenario.mesh.fractures) == 1
        assert scenario.mesh.fractures[0].num_cells == 4


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 8
        assert "test1d_pulse" in out

    def test_validate_shipped_config(self, capsys):
        path = os.path.join(CONFIGS, "single_fracture_injection.ini")
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = _write(tmp_path, MINIMAL + "\n[params]\nphi0 = 1.5\n")
        assert main(["validate", path]) == 1
        assert "params.phi0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--dt", "0"], ["--dt", "-1"],
                                       ["--nt", "0"]])
    def test_bad_grid_override_fails_cleanly(self, tmp_path, capsys, flags):
        out_dir = str(tmp_path / "out")
        assert main(["run", "test1d_pulse", *flags, "--out", out_dir]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not os.path.exists(
            os.path.join(out_dir, "test1d_pulse_balance.csv"))

    def test_run_builtin_with_overrides(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        assert main(["run", "test1d_pulse", "--nt", "5",
                     "--out", out_dir]) == 0
        rows = read_balance(os.path.join(out_dir,
                                         "test1d_pulse_balance.csv"))
        assert [r["step"] for r in rows] == [0, 1, 2, 3, 4, 5]
        assert "max|delta_m|" in capsys.readouterr().out

    def test_run_config_file(self, tmp_path, capsys):
        cfg = _write(tmp_path, MINIMAL)
        out_dir = str(tmp_path / "out")
        assert main(["run", cfg, "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "case_balance.csv"))

    def test_run_fails_cleanly_when_heat_cools_below_zero(self, tmp_path,
                                                          capsys):
        with open(os.path.join(CONFIGS, "test1d_pulse.ini")) as fh:
            text = fh.read().replace("heat = dirichlet 1.0", "heat = flux 5.0")
        cfg = _write(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        assert re.match(r"error: .*step 5 \(heat\).* at dof \d+$",
                        capsys.readouterr().err)

    def test_run_names_dof_when_coarse_step_dissolves_too_much(self, tmp_path,
                                                              capsys):
        # dt = 1 dissolves more than 1/eta of precipitate in one step
        assert main(["run", "multi_fracture_opening", "--nt", "5",
                     "--out", str(tmp_path / "out")]) == 1
        assert re.match(r"error: scheme step 9 \(pore correction\): .*"
                        r"1 \+ eta\*dw = -?[\d.e+-]+ <= 0 at dof \d+;",
                        capsys.readouterr().err)

    def test_run_unknown_target(self, capsys):
        assert main(["run", "missing_scenario"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_study_rejects_bad_list(self, capsys):
        assert main(["study", "splitting-error", "--nt-list", "abc"]) == 1
        assert "nt-list" in capsys.readouterr().err

    def test_study_rejects_a_single_count(self, capsys):
        assert main(["study", "splitting-error", "--nt-list", "5"]) == 1
        assert capsys.readouterr().err == ("error: --nt-list needs at least "
                                           "two step counts\n")

    @pytest.mark.parametrize("nt_list", ["0,10", "-5,10", "10,10"])
    def test_study_rejects_nonpositive_or_repeated_counts(self, nt_list,
                                                          capsys):
        assert main(["study", "splitting-error", f"--nt-list={nt_list}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --nt-list step counts must be positive "
                              "and distinct")

    def test_study_runs(self, capsys):
        assert main(["study", "splitting-error", "--nt-list", "10,20"]) == 0
        out = capsys.readouterr().out
        assert "order" in out
        assert out.count("\n") >= 5      # header + one row per Da value
