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
from functools import partial

import numpy as np

from .chemistry import ReactionParams
from .constitutive import PhysParams
from .errors import ConfigurationError
from .mesh import build_interval_mesh, build_structured_2d
from .physics import DIRICHLET, FLOW_KINDS, FLUX, TRANSPORT_KINDS, SegmentBC
from .scenarios import Scenario, make_scenario
from .splitting import TimeGrid

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

    def parse(self, keypath: str, parse, raw: str):
        """``parse(raw)``; its ValueError becomes an error at ``keypath``."""
        try:
            return parse(raw)
        except ValueError as exc:
            self.error(keypath, str(exc))

    def build(self, context: str, factory, **kwargs):
        """``factory(**kwargs)``; its ValueError or ConfigurationError
        becomes an error naming the file and ``context``."""
        try:
            return factory(**kwargs)
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(f"{self.path}: {context}{exc}") from exc


def _number(raw):
    """A finite float. Each value parser takes the raw text and raises
    ValueError with the message to report."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _integer(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _signed(parse, positive=False):
    """``parse`` that rejects a negative value, and zero too if ``positive``."""
    def checked(raw):
        value = parse(raw)
        if value < 0 or (positive and value == 0):
            sign = "positive" if positive else "non-negative"
            raise ValueError(f"must be {sign}, got {value}")
        return value
    return checked


_positive = _signed(_number, positive=True)
_non_negative = _signed(_number)


def _scheme(raw):
    scheme = raw.strip()
    if scheme not in ("explicit-euler", "heun"):
        raise ValueError(f"unknown reaction scheme {scheme!r}")
    return scheme


def _bc_entry(kinds, positive=False):
    """Parser of ``kind [value]``; a Dirichlet value must not be negative,
    nor zero if ``positive``."""
    def parse(raw):
        parts = raw.split()
        if not parts or parts[0] not in kinds:
            raise ValueError(f"expected one of {sorted(kinds)} followed by an "
                             f"optional value, got {raw!r}")
        if len(parts) > 2:
            raise ValueError(f"too many fields in {raw!r}")
        value = _number(parts[1]) if len(parts) == 2 else 0.0
        if parts[0] == DIRICHLET:
            _signed(float, positive)(value)
        return parts[0], value
    return parse


def _points(raw):
    poly = []
    for part in raw.split(";"):
        nums = part.split()
        if len(nums) != 2:
            raise ValueError(f"expected 'x y' pairs separated by ';', got {raw!r}")
        poly.append((_number(nums[0]), _number(nums[1])))
    if len(poly) < 2:
        raise ValueError("a polyline needs at least 2 points")
    return poly


def _region(raw, dim):
    """(lo, hi, value) of ``x0 x1 [y0 y1] value``."""
    parts = raw.split()
    want = 2 * dim + 1
    if len(parts) != want:
        raise ValueError(f"expected {want} numbers (bounds then value), got {raw!r}")
    nums = [_number(p) for p in parts]
    return (np.asarray(nums[0:2 * dim:2]), np.asarray(nums[1:2 * dim:2]),
            _signed(float)(nums[-1]))


class _Required(str):
    """Default of a key that must be set: the message if it is not."""


# Section (the part of its name before any ".") -> key -> (parser,
# default). ``[initial]``'s keys but the two regions are ``make_scenario``'s
# keywords; a default of None leaves the value to it.
_SCHEMA = {
    "domain": {"kind": (str.strip, "interval"), "length": (_number, 1.0),
               "num_cells": (_integer, _Required("required for interval domains")),
               "nx": (_integer, _Required("required for rectangle domains")),
               "ny": (_integer, _Required("required for rectangle domains")),
               "xmin": (_number, 0.0), "xmax": (_number, 1.0),
               "ymin": (_number, 0.0), "ymax": (_number, 1.0)},
    "fracture": {"points": (_points, _Required("required"))},
    "params": {f.name: (_number, f.default)
               for f in dataclasses.fields(PhysParams)},
    "chemistry": {**{f.name: (_number, f.default)
                     for f in dataclasses.fields(ReactionParams)},
                  "scheme": (_scheme, "explicit-euler")},
    "bc": {"flow": (_bc_entry(FLOW_KINDS), (FLUX, 0.0)),
           "heat": (_bc_entry(TRANSPORT_KINDS, positive=True), (FLUX, 0.0)),
           "solute": (_bc_entry(TRANSPORT_KINDS), (FLUX, 0.0))},
    "initial": {"p": (_number, 0.0), "theta": (_positive, 1.0),
                "u": (_non_negative, 0.0), "w": (_non_negative, 0.0),
                "fracture_aperture": (_positive, None),
                "intersection_aperture": (_positive, None),
                "fracture_w": (_non_negative, None),
                "intersection_w": (_non_negative, None),
                "u_region": (str.strip, None), "w_region": (str.strip, None)},
    "time": {"t_end": (_number, _Required("required")),
             "num_steps": (_integer, _Required("required"))},
    "output": {"name": (str.strip, None), "every": (_signed(_integer), 10)},
}
_NUMBERED = ("fracture", "bc")  # sections named [<prefix>.<suffix>]
_DOMAIN_KEYS = {"interval": ["length", "num_cells"],
                "rectangle": ["nx", "ny", "xmin", "xmax", "ymin", "ymax"]}


def _section(src: _Source, cp, section: str, keys=None) -> dict:
    """Values of ``section``'s keys, or of ``keys`` only: parsed where the
    file sets them, else the table's default. Rejects unknown keys."""
    table = _SCHEMA[section.partition(".")[0]]
    raw = cp[section] if cp.has_section(section) else {}
    for key in raw:
        if key not in table:
            src.error(f"{section}.{key}", "unknown key")
    values = {}
    for key in keys or table:
        parse, default = table[key]
        if key in raw:
            values[key] = src.parse(f"{section}.{key}", parse, raw[key])
        elif isinstance(default, _Required):
            src.error(f"{section}.{key}", default)
        else:
            values[key] = default
    return values


def parse_config(path) -> Scenario:
    """Parse and validate a scenario configuration file."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file not found: {path}")
    src = _Source(path)
    # the format defines no interpolation ("%" is literal) and no default
    # section: no header can hold "\n", so "[DEFAULT]" is rejected by name
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None, default_section="\n")
    try:
        cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    for section in cp.sections():
        prefix, dot, _ = section.partition(".")
        if prefix not in _SCHEMA or bool(dot) != (prefix in _NUMBERED):
            src.error(section, "unknown section")

    if "domain" not in cp:
        raise ConfigurationError(f"{path}: missing [domain] section")
    kind = _section(src, cp, "domain", ["kind"])["kind"]
    fractures = []
    for section in cp.sections():
        if section.startswith("fracture."):
            try:
                index = int(section.partition(".")[2])
            except ValueError:
                src.error(section, "fracture sections must be numbered "
                          "[fracture.0], [fracture.1], ...")
            fractures.append((index, _section(src, cp, section)["points"]))
    fractures = [poly for _, poly in sorted(fractures)]
    if kind not in _DOMAIN_KEYS:
        src.error("domain.kind", f"unknown domain kind {kind!r}")
    if kind == "interval" and fractures:
        src.error("domain.kind", "interval domains cannot carry fractures")
    dom = _section(src, cp, "domain", _DOMAIN_KEYS[kind])
    for key in cp["domain"]:
        if key not in dom and key != "kind":
            src.error(f"domain.{key}", f"not a key of {kind} domains")
    if kind == "interval":
        mesh = src.build("", build_interval_mesh, **dom)
    else:
        mesh = src.build("", build_structured_2d, nx=dom["nx"], ny=dom["ny"],
                         domain=(dom["xmin"], dom["xmax"], dom["ymin"],
                                 dom["ymax"]),
                         fractures=fractures)

    params = src.build("", PhysParams, **_section(src, cp, "params"))
    chemistry = _section(src, cp, "chemistry")
    scheme = chemistry.pop("scheme")
    reaction = src.build("chemistry: ", ReactionParams, **chemistry)

    bc = {section[3:]: SegmentBC(**_section(src, cp, section))
          for section in cp.sections() if section.startswith("bc.")}
    missing = set(mesh.tag_names) - set(bc)
    if missing:
        raise ConfigurationError(
            f"{path}: missing [bc.<tag>] sections for boundary segments "
            f"{sorted(missing)}")
    unknown = set(bc) - set(mesh.tag_names)
    if unknown:
        raise ConfigurationError(
            f"{path}: [bc.*] sections for unknown boundary segments "
            f"{sorted(unknown)}; mesh has {sorted(mesh.tag_names)}")

    if "time" not in cp:
        raise ConfigurationError(f"{path}: missing [time] section")
    grid = src.build("time: ", TimeGrid, **_section(src, cp, "time"))

    if mesh.dim == 1 and "initial" in cp:
        for key in sorted(cp["initial"]):
            if key.startswith(("fracture_", "intersection_")) and \
                    key in _SCHEMA["initial"]:
                src.error(f"initial.{key}", "interval domains have no "
                          "fractures or intersections")
    initial = _section(src, cp, "initial")
    regions = {}
    for field in ("u", "w"):
        key = f"{field}_region"
        raw = initial.pop(key)
        if raw is not None:
            regions[field] = src.parse(f"initial.{key}",
                                       partial(_region, dim=mesh.dim), raw)

    output = _section(src, cp, "output")
    name = output["name"]
    if name == "":
        src.error("output.name", "must not be empty")
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    return make_scenario(name, mesh, bc=bc, grid=grid, params=params,
                         reaction=reaction, regions=regions,
                         output_every=output["every"],
                         reaction_scheme=scheme, **initial)
