"""Command-line entry points.

Verbs::

    fracreact run <config-file|scenario-name> [--dt DT] [--nt N] [--out DIR]
    fracreact list-scenarios
    fracreact validate <config-file>
    fracreact study splitting-error [--nt-list 50,100,200]
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from .config import parse_config
from .errors import FracReactError
from .output import OutputWriter
from .scenarios import (get_scenario, list_scenarios,
                        splitting_problem_factory)
from .splitting import TimeGrid, convergence_order, run, splitting_error_study

STUDY_DAMKOHLER = (0.1, 1.0, 10.0, 100.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracreact",
        description="Thermal reactive transport in fractured porous media")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario or config file")
    p_run.add_argument("target", help="built-in scenario name or config path")
    p_run.add_argument("--dt", type=float, default=None,
                       help="override the time-step size")
    p_run.add_argument("--nt", type=int, default=None,
                       help="override the number of time steps")
    p_run.add_argument("--out", default="out", metavar="DIR",
                       help="output directory (default: ./out)")

    sub.add_parser("list-scenarios", help="list the built-in scenarios")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config", help="config path")

    p_study = sub.add_parser("study", help="parameter studies")
    p_study.add_argument("study_name", choices=["splitting-error"])
    p_study.add_argument("--nt-list", default="50,100,200",
                         help="comma-separated step counts")
    return parser


def _load_scenario(target: str):
    if os.path.exists(target):
        return parse_config(target)
    try:
        return get_scenario(target)
    except KeyError as exc:
        raise FracReactError(str(exc.args[0])) from exc


def _override_grid(scenario, dt, nt):
    grid = scenario.problem.grid
    if dt is None and nt is None:
        return scenario
    if dt is not None and not 0 < dt < math.inf:
        raise FracReactError(f"--dt must be positive and finite, got {dt}")
    try:
        if dt is not None and nt is not None:
            grid = TimeGrid(dt * nt, nt)
        elif nt is not None:
            grid = TimeGrid(grid.t_end, nt)
        else:
            steps = max(1, round(grid.t_end / dt))
            grid = TimeGrid(grid.t_end, steps)
    except ValueError as exc:
        raise FracReactError(f"time-grid override: {exc}") from exc
    return scenario.with_grid(grid)


def _cmd_run(args) -> int:
    scenario = _override_grid(_load_scenario(args.target), args.dt, args.nt)
    writer = OutputWriter(args.out, scenario)
    t0 = time.perf_counter()
    try:
        state, reports = run(scenario.problem, sinks=[writer])
    finally:
        writer.close()
    elapsed = time.perf_counter() - t0
    last = reports[-1]
    max_dm = max(abs(r.delta_m) for r in reports)
    print(f"{scenario.name}: {scenario.problem.grid.num_steps} steps in "
          f"{elapsed:.2f} s")
    print(f"  final mass_u={last.mass_u:.6e} mass_w={last.mass_w:.6e} "
          f"max|delta_m|={max_dm:.3e}")
    print(f"  events: {sum(r.clamp_events for r in reports)} pore-fraction "
          f"clamps, {sum(r.event_count for r in reports)} reaction events")
    print(f"  outputs in {os.path.abspath(args.out)}")
    return 0


def _cmd_list(_args) -> int:
    for name, description in sorted(list_scenarios().items()):
        print(f"{name:32s} {description}")
    return 0


def _cmd_validate(args) -> int:
    scenario = parse_config(args.config)
    grid = scenario.problem.grid
    nfrac = len(scenario.mesh.fractures)
    print(f"OK: {scenario.name}: {scenario.mesh.num_cells} bulk cells, "
          f"{nfrac} fracture arm(s), {grid.num_steps} steps to t={grid.t_end:g}")
    return 0


def _cmd_study(args) -> int:
    try:
        nt_list = [int(s) for s in args.nt_list.split(",") if s.strip()]
    except ValueError:
        raise FracReactError(f"--nt-list must be comma-separated integers, "
                             f"got {args.nt_list!r}")
    if len(nt_list) < 2:
        raise FracReactError("--nt-list needs at least two step counts")
    if min(nt_list) < 1 or len(set(nt_list)) < len(nt_list):
        raise FracReactError(f"--nt-list step counts must be positive and "
                             f"distinct, got {args.nt_list!r}")
    header = "Da      " + "".join(f"  N={n:<12d}" for n in nt_list) + "  order"
    print("splitting error (max-norm vs monolithic reference at final time)")
    print(header)
    for da in STUDY_DAMKOHLER:
        rows = splitting_error_study(splitting_problem_factory(da), nt_list)
        order = convergence_order(rows)
        cells = "".join(f"  {r['error']:<14.6e}" for r in rows)
        print(f"{da:<8g}{cells}  {order:.2f}")
    return 0


_VERBS = {"run": _cmd_run, "list-scenarios": _cmd_list,
          "validate": _cmd_validate, "study": _cmd_study}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _VERBS[args.command](args)
    except FracReactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
