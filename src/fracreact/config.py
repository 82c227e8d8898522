"""INI scenario configuration.

Sections: ``[domain] [params] [chemistry] [fracture.N] [bc.NAME]
[initial] [time] [output]``; keys are lowercase snake-case. Unknown
sections or keys are errors, reported with their key path and, where
possible, the line in the file.

Example::

    [domain]
    kind = rectangle
    nx = 20
    ny = 20

    [fracture.0]
    points = 0.25 0.05 ; 0.25 0.65

    [bc.bottom]
    flow = pressure 1.0
    heat = dirichlet 1.5
    solute = dirichlet 2.0

    [time]
    t_end = 3.0
    num_steps = 60
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
import re

import numpy as np

from .chemistry import ReactionParams
from .constitutive import PhysParams
from .discretize import build_topology
from .errors import ConfigurationError
from .mesh import build_interval_mesh, build_structured_2d
from .physics import DIRICHLET, FLOW_KINDS, TRANSPORT_KINDS, SegmentBC
from .scenarios import (Scenario, dof_centroids, make_eta, make_state,
                        _region_mask)
from .splitting import Problem, TimeGrid

_PARAM_KEYS = {f.name for f in dataclasses.fields(PhysParams)}
_CHEM_KEYS = {"lambda0", "act", "u_e", "rate_power", "scheme"}
_DOMAIN_KEYS = {"kind", "length", "num_cells", "nx", "ny",
                "xmin", "xmax", "ymin", "ymax"}
_INITIAL_KEYS = {"p", "theta", "u", "w", "fracture_aperture",
                 "intersection_aperture", "fracture_w", "intersection_w",
                 "u_region", "w_region"}
_TIME_KEYS = {"t_end", "num_steps"}
_OUTPUT_KEYS = {"name", "every"}
_BC_KEYS = {"flow", "heat", "solute"}
# initial values that must be positive; all others but ``p`` must not be
# negative
_POSITIVE_INITIAL = {"theta", "fracture_aperture", "intersection_aperture"}
# initial values of fracture and intersection dofs
_LOWER_DIM_INITIAL = {"fracture_aperture", "intersection_aperture",
                      "fracture_w", "intersection_w"}
_HEADER = re.compile(r"\s*\[([^\]]+)\]")


class _Source:
    """Wraps the parsed file for key-path error reporting."""

    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()

    def line_of(self, keypath: str) -> int | None:
        """Line of the section header ``keypath`` names, else of the line
        that sets its last component inside its section, else of that
        section's header."""
        section, _, key = keypath.rpartition(".")
        key_line = re.compile(rf"\s*{re.escape(key)}\s*[=:]", re.IGNORECASE)
        current = header = None
        for i, line in enumerate(self.lines, start=1):
            m = _HEADER.match(line)
            if m:
                current = m.group(1).strip()
                if current == keypath:
                    return i
                if current == section:
                    header = i
            elif current == section and key_line.match(line):
                return i
        return header

    def error(self, keypath: str, message: str):
        loc = self.line_of(keypath)
        where = f"{self.path}:{loc}" if loc else self.path
        raise ConfigurationError(f"{where}: {keypath}: {message}")

    def require_sign(self, keypath: str, value: float, positive: bool):
        """Reject a negative value, and zero too if ``positive``."""
        if value < 0 or (positive and value == 0):
            sign = "positive" if positive else "non-negative"
            self.error(keypath, f"must be {sign}, got {value}")


def _get_float(src: _Source, section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        src.error(f"{section}.{key}", f"expected a number, got {raw!r}")
    if not math.isfinite(value):
        src.error(f"{section}.{key}", f"expected a finite number, got {raw!r}")
    return value


def _get_int(src: _Source, section, key, raw):
    try:
        return int(raw)
    except ValueError:
        src.error(f"{section}.{key}", f"expected an integer, got {raw!r}")


def _check_keys(src: _Source, cp, section, allowed):
    for key in cp[section]:
        if key not in allowed:
            src.error(f"{section}.{key}", "unknown key")


def _parse_bc_entry(src: _Source, section, key, raw, kinds):
    parts = raw.split()
    if not parts or parts[0] not in kinds:
        src.error(f"{section}.{key}",
                  f"expected one of {sorted(kinds)} followed by an optional "
                  f"value, got {raw!r}")
    kind = parts[0]
    if len(parts) == 1:
        value = 0.0
    elif len(parts) == 2:
        value = _get_float(src, section, key, parts[1])
    else:
        src.error(f"{section}.{key}", f"too many fields in {raw!r}")
    return kind, value


def _parse_region(src: _Source, section, key, raw, dim):
    parts = raw.split()
    want = 2 * dim + 1
    if len(parts) != want:
        src.error(f"{section}.{key}",
                  f"expected {want} numbers (bounds then value), got {raw!r}")
    nums = [_get_float(src, section, key, p) for p in parts]
    lo = nums[0:2 * dim:2]
    hi = nums[1:2 * dim:2]
    return np.asarray(lo), np.asarray(hi), nums[-1]


def parse_config(path) -> Scenario:
    """Parse and validate a scenario configuration file."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    src = _Source(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    known_fixed = {"domain", "params", "chemistry", "initial", "time", "output"}
    for section in cp.sections():
        if section in known_fixed:
            continue
        if section.startswith("fracture.") or section.startswith("bc."):
            continue
        src.error(section, "unknown section")

    # --- domain ------------------------------------------------------------
    if "domain" not in cp:
        raise ConfigurationError(f"{path}: missing [domain] section")
    _check_keys(src, cp, "domain", _DOMAIN_KEYS)
    dom = cp["domain"]
    kind = dom.get("kind", "interval").strip()
    fractures = _parse_fractures(src, cp)
    if kind == "interval":
        if fractures:
            src.error("domain.kind", "interval domains cannot carry fractures")
        length = _get_float(src, "domain", "length", dom.get("length", "1.0"))
        if "num_cells" not in dom:
            src.error("domain.num_cells", "required for interval domains")
        n = _get_int(src, "domain", "num_cells", dom["num_cells"])
        mesh = build_interval_mesh(length, n)
        dim = 1
    elif kind == "rectangle":
        for req in ("nx", "ny"):
            if req not in dom:
                src.error(f"domain.{req}", "required for rectangle domains")
        nx = _get_int(src, "domain", "nx", dom["nx"])
        ny = _get_int(src, "domain", "ny", dom["ny"])
        bounds = tuple(_get_float(src, "domain", k, dom.get(k, d))
                       for k, d in (("xmin", "0"), ("xmax", "1"),
                                    ("ymin", "0"), ("ymax", "1")))
        domain = (bounds[0], bounds[1], bounds[2], bounds[3])
        mesh = build_structured_2d(nx, ny, domain=domain, fractures=fractures)
        dim = 2
    else:
        src.error("domain.kind", f"unknown domain kind {kind!r}")

    # --- params and chemistry ----------------------------------------------
    kwargs = {}
    if "params" in cp:
        _check_keys(src, cp, "params", _PARAM_KEYS)
        for key, raw in cp["params"].items():
            kwargs[key] = _get_float(src, "params", key, raw)
    try:
        params = PhysParams(**kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    chem_kwargs = {}
    scheme = "explicit-euler"
    if "chemistry" in cp:
        _check_keys(src, cp, "chemistry", _CHEM_KEYS)
        for key, raw in cp["chemistry"].items():
            if key == "scheme":
                scheme = raw.strip()
                if scheme not in ("explicit-euler", "heun"):
                    src.error("chemistry.scheme",
                              f"unknown reaction scheme {scheme!r}")
            else:
                chem_kwargs[key] = _get_float(src, "chemistry", key, raw)
    try:
        reaction = ReactionParams(**chem_kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: chemistry: {exc}") from exc

    # --- boundary conditions ------------------------------------------------
    bc = {}
    for section in cp.sections():
        if not section.startswith("bc."):
            continue
        tag = section[3:]
        _check_keys(src, cp, section, _BC_KEYS)
        entries = {}
        for key, raw in cp[section].items():
            kinds = FLOW_KINDS if key == "flow" else TRANSPORT_KINDS
            entries[key] = _parse_bc_entry(src, section, key, raw, kinds)
            if key != "flow" and entries[key][0] == DIRICHLET:
                src.require_sign(f"{section}.{key}", entries[key][1],
                                 positive=key == "heat")
        bc[tag] = SegmentBC(**entries)
    present_tags = set(bc)
    needed_tags = set(mesh.tag_names)
    missing = needed_tags - present_tags
    if missing:
        raise ConfigurationError(
            f"{path}: missing [bc.<tag>] sections for boundary segments "
            f"{sorted(missing)}")
    unknown = present_tags - needed_tags
    if unknown:
        raise ConfigurationError(
            f"{path}: [bc.*] sections for unknown boundary segments "
            f"{sorted(unknown)}; mesh has {sorted(needed_tags)}")

    # --- time ---------------------------------------------------------------
    if "time" not in cp:
        raise ConfigurationError(f"{path}: missing [time] section")
    _check_keys(src, cp, "time", _TIME_KEYS)
    for req in _TIME_KEYS:
        if req not in cp["time"]:
            src.error(f"time.{req}", "required")
    t_end = _get_float(src, "time", "t_end", cp["time"]["t_end"])
    num_steps = _get_int(src, "time", "num_steps", cp["time"]["num_steps"])
    try:
        grid = TimeGrid(t_end, num_steps)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: time: {exc}") from exc

    # --- initial state ------------------------------------------------------
    top = build_topology(mesh)
    lay = top.layout
    init = cp["initial"] if "initial" in cp else {}
    if "initial" in cp:
        _check_keys(src, cp, "initial", _INITIAL_KEYS)
        if dim == 1:
            for key in sorted(_LOWER_DIM_INITIAL & set(init)):
                src.error(f"initial.{key}", "interval domains have no "
                          "fractures or intersections")

    def init_float(key, default):
        value = _get_float(src, "initial", key, init.get(key, str(default)))
        if key != "p":
            src.require_sign(f"initial.{key}", value,
                             positive=key in _POSITIVE_INITIAL)
        return value

    state = make_state(
        top, params, p=init_float("p", 0.0), theta=init_float("theta", 1.0),
        u=init_float("u", 0.0), w=init_float("w", 0.0),
        frac_aperture=init_float("fracture_aperture", params.epsgamma0),
        iota_aperture=init_float("intersection_aperture", params.epsiota0))
    if "fracture_w" in init:
        state.w[lay.is_frac] = init_float("fracture_w", 0.0)
    if "intersection_w" in init:
        state.w[lay.is_inter] = init_float("intersection_w", 0.0)
    coords = dof_centroids(mesh, top)
    for key, target in (("u_region", state.u), ("w_region", state.w)):
        if key in init:
            lo, hi, value = _parse_region(src, "initial", key, init[key], dim)
            src.require_sign(f"initial.{key}", value, positive=False)
            target[_region_mask(coords, lo, hi)] = value

    # --- output -------------------------------------------------------------
    name = os.path.splitext(os.path.basename(path))[0]
    every = 10
    if "output" in cp:
        _check_keys(src, cp, "output", _OUTPUT_KEYS)
        out = cp["output"]
        name = out.get("name", name).strip()
        every = _get_int(src, "output", "every", out.get("every", "10"))

    problem = Problem(top=top, state0=state, grid=grid, params=params,
                      reaction=reaction, bc=bc, eta=make_eta(top, params),
                      reaction_scheme=scheme)
    return Scenario(name=name, mesh=mesh, problem=problem, output_every=every)


def _parse_fractures(src: _Source, cp) -> list[list[tuple[float, float]]]:
    entries = []
    for section in cp.sections():
        if not section.startswith("fracture."):
            continue
        suffix = section.split(".", 1)[1]
        try:
            index = int(suffix)
        except ValueError:
            src.error(section, "fracture sections must be numbered "
                      "[fracture.0], [fracture.1], ...")
        _check_keys(src, cp, section, {"points"})
        if "points" not in cp[section]:
            src.error(f"{section}.points", "required")
        raw = cp[section]["points"]
        poly = []
        for part in raw.split(";"):
            nums = part.split()
            if len(nums) != 2:
                src.error(f"{section}.points",
                          f"expected 'x y' pairs separated by ';', got {raw!r}")
            poly.append((_get_float(src, section, "points", nums[0]),
                         _get_float(src, section, "points", nums[1])))
        if len(poly) < 2:
            src.error(f"{section}.points", "a polyline needs at least 2 points")
        entries.append((index, poly))
    entries.sort()
    return [poly for _, poly in entries]
