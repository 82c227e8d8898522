"""Time-loop orchestrator for the ten-step operator-splitting scheme.

Per step: predict the precipitate change and the pore fractions, update
permeabilities, run the three implicit sub-solves (flow, heat, solute),
rescale for the predicted pore volume, react cell-by-cell, correct the
pore fractions from the actual reaction, and rescale the concentrations
back. A per-step mass audit (solute + precipitate, weighted by pore
fraction and cell measure over all subdomains) is emitted with every
step report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import constitutive as cl
from .chemistry import ReactionParams, lambda_minus, react_cell
from .constitutive import PhysParams
from .discretize import Topology
from .errors import FracReactError, NumericError
from .physics import (FieldState, Operator, darcy_step, heat_step,
                      solute_ad_step, solute_coefficients, transport_step)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    t_end: float
    num_steps: int

    def __post_init__(self):
        if not 0 < self.t_end < np.inf:
            raise ValueError(
                f"t_end must be positive and finite, got {self.t_end}")
        if not (isinstance(self.num_steps, (int, np.integer))
                and self.num_steps >= 1):
            raise ValueError(
                f"num_steps must be a finite integer >= 1, got {self.num_steps}")

    @property
    def dt(self) -> float:
        return self.t_end / self.num_steps


@dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics; ``delta_m`` is the mass defect

        [m_u + m_w](t+dt) - [m_u + m_w](t) + dt*(outflux - influx).
    """

    step: int
    time: float
    mass_u: float
    mass_w: float
    influx: float
    outflux: float
    delta_m: float
    clamp_events: int = 0
    event_count: int = 0

    def __post_init__(self):
        vals = (self.time, self.mass_u, self.mass_w, self.influx,
                self.outflux, self.delta_m)
        if not all(map(math.isfinite, vals)):
            raise FracReactError(f"non-finite step report: {self}")


@dataclass
class Problem:
    """Everything advance_step needs besides the evolving state.

    Every input is fixed for the whole run. ``eta`` is the per-dof
    pore-change coefficient. ``prescribed``, when set, is a (connection
    flux, boundary flux) pair that replaces the Darcy solve; such a
    problem is isothermal, so ``p`` and ``theta`` pass through unchanged,
    and heat is solved exactly when flow is. ``solute_source`` is a
    constant solute rate, a number or a per-dof array (already integrated
    over the cell), added in every step.
    """

    top: Topology
    state0: FieldState
    grid: TimeGrid
    params: PhysParams
    reaction: ReactionParams
    bc: dict
    eta: np.ndarray
    prescribed: tuple | None = None
    solute_source: float | np.ndarray = 0.0
    reaction_scheme: str = "explicit-euler"

    # each equation's Operator, built at its first solve and kept
    flow = cached_property(lambda self: Operator(self.top, self.bc, "flow"))
    heat = cached_property(lambda self: Operator(self.top, self.bc, "heat"))
    solute = cached_property(lambda self: Operator(self.top, self.bc, "solute"))


PREDICT_DENOM_MIN = 0.1


def _predict_pore(pore, dw, eta):
    """Predicted pore fraction pore/(1 + eta*dw) with the denominator
    floored at PREDICT_DENOM_MIN, bounding the predicted growth."""
    denom = np.maximum(1.0 + np.asarray(eta) * np.asarray(dw, dtype=float),
                       PREDICT_DENOM_MIN)
    return np.asarray(pore, dtype=float) / denom


def rescale_for_pore_change(value, old_fraction, new_fraction):
    """value*old/new: preserves fraction x concentration x measure.

    Entries whose fraction did not change keep their value bit-for-bit
    (value*a/a may round by one ulp otherwise). Fields stacked on the
    first axis of ``value`` share one check and one mask.
    """
    old_fraction = np.asarray(old_fraction, dtype=float)
    new_fraction = np.asarray(new_fraction, dtype=float)
    if not ((old_fraction > 0).all() and (new_fraction > 0).all()):
        raise FracReactError("pore fractions must be positive for rescaling")
    value = np.asarray(value, dtype=float)
    out = np.where(old_fraction == new_fraction, value,
                   value * old_fraction / new_fraction)
    if out.ndim == 0:
        return float(out)
    return out


def total_mass(layout, pore, conc) -> float:
    return float((np.asarray(pore) * conc * layout.measure).sum())


class _phase:
    """Prefixes a FracReactError raised inside it with the scheme step
    and phase: ``scheme step 4 (flow): ...``."""

    def __init__(self, step_no: int, name: str):
        self.step_no, self.name = step_no, name

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, FracReactError):
            exc.args = (f"scheme step {self.step_no} ({self.name}): "
                        + (exc.args[0] if exc.args else ""),)


def advance_step(problem: Problem, state: FieldState, dt: float,
                 t_new: float) -> tuple[FieldState, StepReport]:
    """Advance one time step of length dt ending at t_new."""
    lay = problem.top.layout
    params = problem.params

    mass_old = (total_mass(lay, state.pore, state.u)
                + total_mass(lay, state.pore, state.w))

    # (1)-(2) extrapolate the most recent precipitate change and predict
    # the pore fractions. The predicted change is the reaction increment
    # of the previous step (zero initially, matching w^-1 = w^0), which
    # is the volume-consistent analogue of w* - w^n = w^n - w^(n-1): the
    # raw difference also contains the rescaling between pore volumes
    # and over-predicts badly when the fraction changes quickly. The
    # prediction only sets the intermediate pore volume (the audit is
    # exact for any prediction), so its denominator is floored instead
    # of treated as a hard failure when the predicted change is large.
    pore_star = _predict_pore(state.pore, state.react_prev, problem.eta)
    clamp_events = cl.clamp_pore_fraction(pore_star, lay.is_bulk)

    # (3)-(5) permeabilities at the predicted fractions, then the flow
    # solve (the prediction error (pore* - pore^n)/dt acts as a source)
    # and heat with the fresh fluxes; prescribed fluxes replace both
    if problem.prescribed is None:
        with _phase(4, "flow"):
            p, conn_flux, bnd_flux = darcy_step(
                problem.flow, pore_star, state.pore, params, dt)
        with _phase(5, "heat"):
            theta_new, _ = heat_step(
                problem.heat, state, conn_flux, bnd_flux, pore_star,
                state.pore, params, dt)
            if (theta_new <= 0).any():
                dof = int(np.argmax(theta_new <= 0))
                raise NumericError(f"non-positive temperature "
                                   f"{theta_new[dof]:.6g} at dof {dof}")
    else:
        p, theta_new = state.p, state.theta
        conn_flux, bnd_flux = problem.prescribed

    # (6) solute advection-diffusion without reaction
    with _phase(6, "solute"):
        u_half, sol_bnd = solute_ad_step(
            problem.solute, state, conn_flux, bnd_flux, pore_star, state.pore,
            params, dt, source=problem.solute_source)

    # (7) move the precipitate into the predicted pore volume
    w_half = rescale_for_pore_change(state.w, state.pore, pore_star)

    # (8) reaction at fixed temperature (theta at the new time level)
    u_star, w_star2, n_events = react_cell(
        u_half, w_half, theta_new, dt, problem.reaction,
        scheme=problem.reaction_scheme)

    # (9) corrected pore fractions from the realised reaction increment
    # (w** - w^(n+1/2), both expressed in the predicted pore volume);
    # using the volume-consistent increment keeps the per-cell invariant
    # pore*w + pore/eta under pure dissolution and hence a finite
    # aperture plateau once the precipitate is exhausted.
    react = w_star2 - w_half
    with _phase(9, "pore correction"):
        pore_new = cl.update_pore_fraction(state.pore, react, problem.eta)
    clamp_events += cl.clamp_pore_fraction(pore_new, lay.is_bulk)

    # (10) conservative correction back to the actual pore volume
    u_new, w_new = rescale_for_pore_change((u_star, w_star2), pore_star,
                                           pore_new)

    state_next = FieldState(p=np.asarray(p, dtype=float), theta=theta_new,
                            u=u_new, w=w_new, pore=pore_new, react_prev=react)

    mass_u = total_mass(lay, pore_new, u_new)
    mass_w = total_mass(lay, pore_new, w_new)
    outflux = float(np.maximum(sol_bnd, 0.0).sum())
    influx = (float(-np.minimum(sol_bnd, 0.0).sum())
              + float(np.asarray(problem.solute_source).sum()))
    delta_m = (mass_u + mass_w) - mass_old + dt * (outflux - influx)

    report = StepReport(
        step=0, time=t_new, mass_u=mass_u, mass_w=mass_w, influx=influx,
        outflux=outflux, delta_m=delta_m,
        clamp_events=clamp_events, event_count=n_events)
    return state_next, report


def initial_report(problem: Problem) -> StepReport:
    lay = problem.top.layout
    s = problem.state0
    return StepReport(step=0, time=0.0,
                      mass_u=total_mass(lay, s.pore, s.u),
                      mass_w=total_mass(lay, s.pore, s.w),
                      influx=0.0, outflux=0.0, delta_m=0.0)


def run(problem: Problem,
        sinks: Sequence[Callable] = ()) -> tuple[FieldState, list[StepReport]]:
    """Iterate advance_step over the time grid.

    Each sink is called as sink(step, time, state, report), including
    once for the initial state at step 0. Deterministic for identical
    inputs.
    """
    state = problem.state0.copy()
    dt = problem.grid.dt
    reports = [initial_report(problem)]
    for sink in sinks:
        sink(0, 0.0, state, reports[0])
    for n in range(1, problem.grid.num_steps + 1):
        t_new = n * dt
        state, report = advance_step(problem, state, dt, t_new)
        report = replace(report, step=n)
        reports.append(report)
        for sink in sinks:
            sink(n, t_new, state, report)
    return state, reports


# ---------------------------------------------------------------------------
# splitting-error study


def monolithic_linear_run(problem: Problem) -> np.ndarray:
    """Reference solute field with the linear reaction law kept inside
    the implicit transport matrix (no splitting).

    Valid only for the simplified setup: frozen pore fractions, given
    velocity, linear rate r(u) = u/u_e, precipitate strictly positive so
    the rate never switches branch.
    """
    if problem.reaction.rate_power != 1:
        raise FracReactError("monolithic reference requires the linear rate law")
    if problem.prescribed is None:
        raise FracReactError("monolithic reference requires prescribed fluxes")
    lay = problem.top.layout
    params, rp = problem.params, problem.reaction
    dt = problem.grid.dt
    conn_flux, bnd_flux = problem.prescribed

    pore = problem.state0.pore
    u = problem.state0.u.copy()
    w = problem.state0.w.copy()
    lam = np.broadcast_to(
        np.asarray(lambda_minus(problem.state0.theta, rp)), u.shape)

    t_conn, t_bnd = problem.solute.transmissibilities_at(
        solute_coefficients, pore, params)
    # the linear rate lam*(u/u_e - 1) splits into an accumulation and a
    # source term
    acc = pore * lay.measure
    acc_react = acc + dt * (acc * lam / rp.u_e)
    source = problem.solute_source + acc * lam

    for _ in range(problem.grid.num_steps):
        u = transport_step(
            problem.solute, t_conn, t_bnd, acc_react, acc, u, conn_flux,
            bnd_flux, 1.0, dt, source=source)[0]
        w = w + dt * lam * (u / rp.u_e - 1.0)
        if (w <= 0).any():
            raise FracReactError(
                "precipitate hit zero: monolithic linear reference invalid")
    return u


def splitting_error_study(problem_factory: Callable[[int], Problem],
                          n_list: Sequence[int]) -> list[dict]:
    """Max-norm distance between the split and monolithic solute fields
    at the final time, for each step count in n_list.

    problem_factory(N) must return a simplified Problem (linear rate,
    frozen pore fractions, prescribed velocity) on a fixed spatial grid.
    """
    rows = []
    for n in n_list:
        problem = problem_factory(int(n))
        state, _ = run(problem)
        u_ref = monolithic_linear_run(problem)
        err = float(np.max(np.abs(state.u - u_ref)))
        rows.append({"num_steps": int(n), "dt": problem.grid.dt, "error": err})
    return rows


def convergence_order(rows: Sequence[dict]) -> float:
    """Least-squares slope of log(error) vs log(dt)."""
    dts = np.array([r["dt"] for r in rows])
    errs = np.array([max(r["error"], 1e-300) for r in rows])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    return float(slope)
