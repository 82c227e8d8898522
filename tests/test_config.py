"""Rejections of the INI reader, each pinned to its key path and message."""

import os

import numpy as np
import pytest

from fracreact.cli import main
from fracreact.config import parse_config
from fracreact.errors import ConfigurationError
from fracreact.output import read_balance

INTERVAL = """\
[domain]
kind = interval
num_cells = 10

[bc.left]
flow = pressure 1.0
solute = dirichlet 0.0

[bc.right]
flow = pressure 0.0
solute = outflow

[time]
t_end = 0.1
num_steps = 4
"""

RECTANGLE = """\
[domain]
kind = rectangle
nx = 4
ny = 4

[fracture.0]
points = 0.5 0.25 ; 0.5 0.75

[bc.bottom]
flow = pressure 1.0

[bc.top]
flow = pressure 0.0

[bc.left]

[bc.right]

[time]
t_end = 0.1
num_steps = 2
"""


def _write(tmp_path, text):
    path = tmp_path / "case.ini"
    path.write_text(text)
    return str(path)


def _edit(base, old, new):
    """``base`` with ``old`` replaced by ``new``; an empty ``old`` appends
    ``new`` as a section of its own."""
    if not old:
        return base + "\n" + new + "\n"
    assert old in base
    return base.replace(old, new, 1)


def _line_of(text, needle):
    lines = text.splitlines()
    return next(i for i, line in enumerate(lines, start=1) if line == needle)


# (id, base, old, new, line the message names (None: no line), message
# after "<path>[:<line>]: ")
REJECTIONS = [
    ("bad-integer", INTERVAL, "num_cells = 10", "num_cells = ten",
     "num_cells = ten", "domain.num_cells: expected an integer, got 'ten'"),
    ("fractional-step-count", INTERVAL, "num_steps = 4", "num_steps = 2.5",
     "num_steps = 2.5", "time.num_steps: expected an integer, got '2.5'"),
    ("bad-number", INTERVAL, "t_end = 0.1", "t_end = soon", "t_end = soon",
     "time.t_end: expected a number, got 'soon'"),
    ("bc-unknown-kind", INTERVAL, "flow = pressure 1.0", "flow = suction 1.0",
     "flow = suction 1.0", "bc.left.flow: expected one of ['flux', "
     "'pressure'] followed by an optional value, got 'suction 1.0'"),
    ("bc-transport-kind-on-flow", INTERVAL, "flow = pressure 0.0",
     "flow = outflow", "flow = outflow", "bc.right.flow: expected one of "
     "['flux', 'pressure'] followed by an optional value, got 'outflow'"),
    ("bc-too-many-fields", INTERVAL, "flow = pressure 1.0",
     "flow = pressure 1.0 2.0", "flow = pressure 1.0 2.0",
     "bc.left.flow: too many fields in 'pressure 1.0 2.0'"),
    ("bc-bad-value", INTERVAL, "solute = dirichlet 0.0",
     "solute = dirichlet lots", "solute = dirichlet lots",
     "bc.left.solute: expected a number, got 'lots'"),
    ("bc-unknown-key", INTERVAL, "solute = outflow", "mass = outflow",
     "mass = outflow", "bc.right.mass: unknown key"),
    ("region-count-1d", INTERVAL, "", "[initial]\nu_region = 0.0 0.5",
     "u_region = 0.0 0.5",
     "initial.u_region: expected 3 numbers (bounds then value), got "
     "'0.0 0.5'"),
    ("region-count-2d", RECTANGLE, "", "[initial]\nw_region = 0.0 1.0 2.0",
     "w_region = 0.0 1.0 2.0",
     "initial.w_region: expected 5 numbers (bounds then value), got "
     "'0.0 1.0 2.0'"),
    ("region-bad-number", INTERVAL, "", "[initial]\nu_region = 0.0 x 2.0",
     "u_region = 0.0 x 2.0", "initial.u_region: expected a number, got 'x'"),
    ("missing-domain", INTERVAL, "[domain]\nkind = interval\nnum_cells = 10\n",
     "", None, "missing [domain] section"),
    ("missing-time", INTERVAL, "[time]\nt_end = 0.1\nnum_steps = 4\n", "",
     None, "missing [time] section"),
    ("missing-t-end", INTERVAL, "t_end = 0.1\n", "", "[time]",
     "time.t_end: required"),
    ("missing-num-steps", INTERVAL, "num_steps = 4\n", "", "[time]",
     "time.num_steps: required"),
    ("unknown-time-key", INTERVAL, "num_steps = 4", "num_steps = 4\ndt = 0.1",
     "dt = 0.1", "time.dt: unknown key"),
    ("interval-with-fracture", INTERVAL, "",
     "[fracture.0]\npoints = 0.5 0.0 ; 0.5 1.0", "kind = interval",
     "domain.kind: interval domains cannot carry fractures"),
    ("interval-without-cells", INTERVAL, "num_cells = 10\n", "", "[domain]",
     "domain.num_cells: required for interval domains"),
    ("rectangle-without-nx", RECTANGLE, "nx = 4\n", "", "[domain]",
     "domain.nx: required for rectangle domains"),
    ("rectangle-without-ny", RECTANGLE, "ny = 4\n", "", "[domain]",
     "domain.ny: required for rectangle domains"),
    ("unknown-domain-kind", INTERVAL, "kind = interval", "kind = sphere",
     "kind = sphere", "domain.kind: unknown domain kind 'sphere'"),
    ("unknown-domain-key", INTERVAL, "num_cells = 10", "num_cells = 10\nnz = 3",
     "nz = 3", "domain.nz: unknown key"),
    ("interval-with-nx", INTERVAL, "num_cells = 10", "num_cells = 10\nnx = abc",
     "nx = abc", "domain.nx: not a key of interval domains"),
    ("interval-with-xmin", INTERVAL, "num_cells = 10",
     "num_cells = 10\nxmin = 0.5", "xmin = 0.5",
     "domain.xmin: not a key of interval domains"),
    ("rectangle-with-length", RECTANGLE, "ny = 4", "ny = 4\nlength = 2.0",
     "length = 2.0", "domain.length: not a key of rectangle domains"),
    ("rectangle-with-num-cells", RECTANGLE, "ny = 4", "ny = 4\nnum_cells = 8",
     "num_cells = 8", "domain.num_cells: not a key of rectangle domains"),
    ("section-without-suffix", INTERVAL, "", "[bc]\nflow = pressure 1.0",
     "[bc]", "bc: unknown section"),
    ("section-with-suffix", INTERVAL, "", "[params.extra]\nd = 1.0",
     "[params.extra]", "params.extra: unknown section"),
    ("default-section", INTERVAL, "[domain]", "[DEFAULT]\nevery = 5\n\n[domain]",
     "[DEFAULT]", "DEFAULT: unknown section"),
    ("bc-unknown-segment", INTERVAL, "", "[bc.middle]\nflow = pressure 0.5",
     None, "[bc.*] sections for unknown boundary segments ['middle']; mesh "
     "has ['left', 'right']"),
    ("fracture-not-numbered", RECTANGLE, "[fracture.0]", "[fracture.x]",
     "[fracture.x]", "fracture.x: fracture sections must be numbered "
     "[fracture.0], [fracture.1], ..."),
    ("fracture-without-points", RECTANGLE, "points = 0.5 0.25 ; 0.5 0.75\n",
     "", "[fracture.0]", "fracture.0.points: required"),
    ("fracture-unknown-key", RECTANGLE, "points = 0.5 0.25 ; 0.5 0.75",
     "points = 0.5 0.25 ; 0.5 0.75\nwidth = 1", "width = 1",
     "fracture.0.width: unknown key"),
    ("points-not-pairs", RECTANGLE, "points = 0.5 0.25 ; 0.5 0.75",
     "points = 0.5 0.25 ; 0.5", "points = 0.5 0.25 ; 0.5",
     "fracture.0.points: expected 'x y' pairs separated by ';', got "
     "'0.5 0.25 ; 0.5'"),
    ("points-one-point", RECTANGLE, "points = 0.5 0.25 ; 0.5 0.75",
     "points = 0.5 0.25", "points = 0.5 0.25",
     "fracture.0.points: a polyline needs at least 2 points"),
    ("points-bad-number", RECTANGLE, "points = 0.5 0.25 ; 0.5 0.75",
     "points = 0.5 0.25 ; half 0.75", "points = 0.5 0.25 ; half 0.75",
     "fracture.0.points: expected a number, got 'half'"),
    ("chemistry-rejected", INTERVAL, "", "[chemistry]\nu_e = 0.0", None,
     "chemistry: u_e must be positive, got 0.0"),
    ("chemistry-rate-power", INTERVAL, "", "[chemistry]\nrate_power = 0.5",
     None, "chemistry: rate_power must be >= 1, got 0.5"),
    ("unknown-scheme", INTERVAL, "", "[chemistry]\nscheme = rk4",
     "scheme = rk4", "chemistry.scheme: unknown reaction scheme 'rk4'"),
    ("unknown-chemistry-key", INTERVAL, "", "[chemistry]\norder = 2",
     "order = 2", "chemistry.order: unknown key"),
    ("unknown-output-key", INTERVAL, "", "[output]\nformat = vtk",
     "format = vtk", "output.format: unknown key"),
    ("bad-output-every", INTERVAL, "", "[output]\nevery = often",
     "every = often", "output.every: expected an integer, got 'often'"),
    ("empty-output-name", INTERVAL, "", "[output]\nname =", "name =",
     "output.name: must not be empty"),
    ("time-grid-rejected", INTERVAL, "num_steps = 4", "num_steps = 0", None,
     "time: num_steps must be a finite integer >= 1, got 0"),
]


@pytest.mark.parametrize("base, old, new, needle, message",
                         [case[1:] for case in REJECTIONS],
                         ids=[case[0] for case in REJECTIONS])
def test_rejection_names_key_path_and_line(tmp_path, base, old, new, needle,
                                           message):
    text = _edit(base, old, new)
    path = _write(tmp_path, text)
    where = f"{path}:{_line_of(text, needle)}" if needle else path
    with pytest.raises(ConfigurationError) as info:
        parse_config(path)
    assert str(info.value) == f"{where}: {message}"


@pytest.mark.parametrize("new", ["[domain]\nkind = interval",
                                 "num_cells = 20",
                                 "no separator here"],
                         ids=["duplicate-section", "duplicate-key",
                              "not-a-key"])
def test_configparser_rejection_names_the_file(tmp_path, new):
    old = "num_cells = 10" if new == "num_cells = 20" else ""
    text = _edit(INTERVAL, old, f"{old}\n{new}" if old else new)
    path = _write(tmp_path, text)
    with pytest.raises(ConfigurationError) as info:
        parse_config(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert repr(path) in message       # configparser's own text follows


@pytest.mark.parametrize("name", ["run%1", "%(kind)s"])
def test_values_are_literal(tmp_path, capsys, name):
    path = _write(tmp_path, _edit(INTERVAL, "", f"[output]\nname = {name}"))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.startswith(f"OK: {name}: 10 bulk cells")


def test_heun_scheme_parses(tmp_path):
    path = _write(tmp_path, _edit(INTERVAL, "", "[chemistry]\nscheme = heun"))
    assert parse_config(path).problem.reaction_scheme == "heun"
    default = parse_config(_write(tmp_path, INTERVAL))
    assert default.problem.reaction_scheme == "explicit-euler"


def test_w_region_sets_the_intersection_dof(tmp_path):
    # two fractures cross at (0.5, 0.5); on the 4x4 grid no bulk or
    # fracture cell centroid lies in the region, only the intersection
    text = _edit(RECTANGLE, "",
                 "[fracture.1]\npoints = 0.25 0.5 ; 0.75 0.5\n\n"
                 "[initial]\nw_region = 0.4 0.6 0.4 0.6 3.0")
    scenario = parse_config(_write(tmp_path, text))
    lay = scenario.problem.top.layout
    w = scenario.problem.state0.w
    assert len(scenario.mesh.intersections) == 1
    assert np.all(w[lay.is_inter] == 3.0)
    assert np.all(w[~lay.is_inter] == 0.0)


def test_run_with_dt_alone_keeps_the_end_time(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "test1d_pulse", "--dt", "0.0016", "--out", out_dir]) == 0
    rows = read_balance(os.path.join(out_dir, "test1d_pulse_balance.csv"))
    assert [r["step"] for r in rows] == list(range(31))
    assert rows[-1]["time"] == pytest.approx(0.048, rel=1e-12)
    assert "test1d_pulse: 30 steps" in capsys.readouterr().out


def test_negative_output_every_rejected(tmp_path):
    text = _edit(INTERVAL, "", "[output]\nevery = -5")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigurationError) as info:
        parse_config(path)
    assert str(info.value) == (f"{path}:{_line_of(text, 'every = -5')}: "
                               "output.every: must be non-negative, got -5")


def test_zero_output_every_accepted(tmp_path):
    path = _write(tmp_path, _edit(INTERVAL, "", "[output]\nevery = 0"))
    assert parse_config(path).output_every == 0


@pytest.mark.parametrize("base, old, new, message", [
    (INTERVAL, "num_cells = 10", "num_cells = 0",
     "num_cells must be >= 1, got 0"),
    (RECTANGLE, "nx = 4", "nx = 0",
     "grid must have at least one cell per axis, got 0x4"),
    (RECTANGLE, "ny = 4", "ny = 4\nxmax = 0.0",
     "degenerate domain (0.0, 0.0, 0.0, 1.0)"),
    (RECTANGLE, "points = 0.5 0.25 ; 0.5 0.75", "points = 0.6 0.25 ; 0.6 0.75",
     "fracture segment 0[0] does not lie on grid lines within snap "
     "tolerance 1.41421e-09"),
    (RECTANGLE, "", "[fracture.1]\npoints = 0.5 0.5 ; 0.5 1.0",
     "fractures 0 and 1 overlap on a grid edge"),
    (RECTANGLE, "points = 0.5 0.25 ; 0.5 0.75",
     "points = 0.5 0.25 ; 0.5 0.25 ; 0.5 0.75",
     "fracture 0, segment 0->1 ((0.5, 0.25) -> (0.5, 0.25)): zero-length "
     "segment"),
    (RECTANGLE, "points = 0.5 0.25 ; 0.5 0.75", "points = 0.0 0.25 ; 0.0 0.75",
     "fracture lies on the domain boundary; fracture cells must coincide "
     "with interior faces"),
], ids=["no-cells", "no-columns", "degenerate", "off-grid", "overlap",
        "zero-length-segment", "on-boundary"])
def test_mesh_error_names_the_file(tmp_path, capsys, base, old, new, message):
    path = _write(tmp_path, _edit(base, old, new))
    with pytest.raises(ConfigurationError) as info:
        parse_config(path)
    assert str(info.value) == f"{path}: {message}"
    assert main(["validate", path]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
