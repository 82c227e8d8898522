"""Precipitation/dissolution kinetics and the event-located cell ODE.

The net rate switches off dissolution when no precipitate is present,
which makes the per-cell ODE system

    d/dt [u, w] = [-r_w, +r_w]

discontinuous across w = 0 for undersaturated solute. The integrator
performs a tentative explicit step and clips a tentative precipitate
below zero to w = 0, where the sliding branch (zero rate while
r(u) < 1) holds it for the rest of the step. For explicit Euler the
clip is exact without computing the crossing time: it equals locating
the crossing on the linear dense output and sliding from there, because
the sliding rate is zero. For Heun a
crossing in the first stage pins w = 0 for the rest of the step, and a
crossing of the averaged step is clipped the same way. The returned
precipitate is never negative and u + w is conserved exactly.

All state arguments may be scalars or congruent numpy arrays; the
mapping over cells is embarrassingly parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class ReactionParams:
    """Rate-law coefficients.

    ``lambda0`` and ``act`` parameterise the dissolution constant
    lambda^-(theta) = lambda0 * exp(-act/theta); ``rate_power`` is the
    exponent p of r(u) = (u/u_e)^p (p = 2 is the single-solute
    electrically balanced case, p = 1 the linear law used for the
    splitting-error study).
    """

    lambda0: float = 10.0
    act: float = 4.0
    u_e: float = 1.0
    rate_power: float = 2.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lambda0 < 0:
            raise ValueError(f"lambda0 must be non-negative, got {self.lambda0}")
        if not self.u_e > 0:
            raise ValueError(f"u_e must be positive, got {self.u_e}")
        if self.rate_power < 1:
            raise ValueError(f"rate_power must be >= 1, got {self.rate_power}")


def lambda_minus(theta, rp: ReactionParams):
    """Temperature-dependent dissolution constant lambda0*exp(-act/theta)."""
    theta = np.asarray(theta, dtype=float)
    if (theta <= 0).any():
        raise ValueError("temperature must be positive")
    return rp.lambda0 * np.exp(-rp.act / theta)


def saturation_ratio(u, rp: ReactionParams):
    """r(u) = (u/u_e)^p; equals 1 at equilibrium."""
    return (np.asarray(u, dtype=float) / rp.u_e) ** rp.rate_power


def net_rate(u, w, theta, rp: ReactionParams):
    """Net precipitation rate.

    lambda^-(theta) * { max[r(u)-1, 0] + H(w) * min[r(u)-1, 0] } with
    H(0) = 0, so the rate is single-valued on the discontinuity surface
    and coincides with the sliding right-hand side there.
    """
    lam = lambda_minus(theta, rp)
    s = saturation_ratio(u, rp) - 1.0
    heaviside = np.asarray(w, dtype=float) > 0.0
    return lam * (np.maximum(s, 0.0) + heaviside * np.minimum(s, 0.0))


def _clip_to_equilibrium(u, w, w_tent, rp: ReactionParams):
    """Limit the tentative precipitate change to the invariant region of
    the exact ODE: a reacting step can approach but never cross the
    equilibrium concentration, so the solute stays on its side of u_e.

    The bound only binds when the explicit step would overshoot (large
    rate times dt); inside the stability region it is inactive.
    """
    du_to_eq = u - rp.u_e
    growing = w_tent > w
    limited = np.where(growing, np.minimum(w_tent, w + np.maximum(du_to_eq, 0.0)),
                       np.maximum(w_tent, w + np.minimum(du_to_eq, 0.0)))
    return limited


def react_cell(u, w, theta, dt, rp: ReactionParams, scheme: str = "explicit-euler"):
    """Advance the per-cell reaction ODE over one step of length dt.

    Temperature is held fixed (operator-splitting assumption). Returns
    (u_new, w_new, n_events) with w_new >= 0; u + w is preserved up to
    one rounding of the total in reacting cells and bit-for-bit in cells
    with no precipitate change.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), u.shape)
    if not (np.isfinite(u).all() and np.isfinite(w).all()
            and np.isfinite(theta).all()):
        raise NumericError("non-finite state passed to react_cell")

    # nothing below writes u, w or theta: every result is a new array
    scalar = u.ndim == 0
    u, w, theta = np.atleast_1d(u, w, theta)

    k1 = np.asarray(net_rate(u, w, theta, rp))
    if scheme == "explicit-euler":
        w_new = _clip_to_equilibrium(u, w, w + dt * k1, rp)
        crossing = w_new < 0
        if crossing.any():
            # Linear event location, then sliding: the rate on the w = 0
            # side is zero for undersaturated solute, so the state stays
            # on the surface for the remainder of the step.
            w_new[crossing] = 0.0
    elif scheme == "heun":
        # The first stage is clipped to the same invariant region as the
        # full step; otherwise a stiff stage overshoots the equilibrium
        # and the second rate evaluation is taken on the wrong branch.
        w1 = _clip_to_equilibrium(u, w, w + dt * k1, rp)
        crossed1 = w1 < 0
        w1 = np.maximum(w1, 0.0)
        u1 = (u + w) - w1
        k2 = np.asarray(net_rate(u1, w1, theta, rp))
        w_new = _clip_to_equilibrium(u, w, w + dt * (k1 + k2) / 2.0, rp)
        # If the first stage already exhausted the precipitate the state
        # slides on w = 0 for the rest of the step (the sliding rate is
        # zero), regardless of the averaged tentative value.
        w_new = np.where(crossed1, 0.0, w_new)
        crossing = crossed1 | (w_new < 0)
        np.maximum(w_new, 0.0, out=w_new)
    else:
        raise ValueError(f"unknown reaction scheme {scheme!r}")

    n_events = int(np.count_nonzero(crossing & (w > 0.0)))
    # Pin u + w: recompute the solute from the total only where the
    # precipitate actually changed, so unreacted cells keep their solute
    # value bit-for-bit.
    u_new = np.where(w_new == w, u, (u + w) - w_new)
    if scalar:
        return float(u_new[0]), float(w_new[0]), n_events
    return u_new, w_new, n_events
