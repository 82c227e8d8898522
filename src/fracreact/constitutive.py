"""Algebraic constitutive laws.

Permeability-porosity (Kozeny-type), aperture-permeability (cubic law),
the shared porosity/aperture update, effective thermal properties of the
saturated matrix, and the in-place pore-fraction clamp.

All other functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericError, SingularUpdateError

# Lower clamps: the discrete equations degenerate at exactly zero pore
# fraction while the physics only requires the transmissibilities to
# vanish, which the quadratic laws already ensure.
PHI_MIN = 1e-6
EPS_MIN = 1e-12


@dataclass(frozen=True)
class PhysParams:
    """Physical constants and constitutive-law coefficients.

    Units are SI, except in data sets that are unitless by construction
    (see :mod:`fracreact.scenarios`). Fracture reference values
    (``kgamma0`` etc.) are evaluated at the initial aperture
    ``epsgamma0``; intersections carry their own analogues.
    """

    mu: float = 1.0              # Pa*s, water viscosity
    k0: float = 1.0              # m^2, reference bulk permeability
    phi0: float = 0.2            # -, reference porosity
    kgamma0: float = 1e2         # m^2, fracture tangential reference perm.
    kappagamma0: float = 1e2     # m^2, fracture normal reference perm.
    epsgamma0: float = 1e-2      # m, initial fracture aperture
    kappaiota0: float = 1e2      # m^2, intersection reference perm.
    epsiota0: float = 1e-2       # m (2D: m^2 cross-section), intersection
    eta_omega: float = 0.5       # m^3_phi/mol, bulk deposition coefficient
    eta_gamma: float = 2.0       # m^3/mol, fracture deposition coefficient
    eta_iota: float = 2.0        # m^3/mol, intersection deposition coeff.
    rhow_cw: float = 1.0         # J/m^3/K, water volumetric heat capacity
    rhos_cs: float = 1.0         # J/m^3/K, solid volumetric heat capacity
    lambdaw: float = 1.0         # W/m/K, water conductivity
    lambdas: float = 1e-1        # W/m/K, solid conductivity
    d: float = 1.0               # m^2/s, bulk molecular diffusivity
    dgamma: float = 1e-1         # m^2/s, fracture tangential diffusivity
    deltagamma: float = 1e-1     # m^2/s, fracture normal diffusivity

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"params.{name} must be finite, got {value}")
        # the deposition coefficients may be zero (no pore change)
        eta = ("eta_omega", "eta_gamma", "eta_iota")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in eta and not value > 0:
                raise ValueError(f"params.{f.name} must be strictly positive, got {value}")
        for name in eta:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"params.{name} must be non-negative, got {value}")
        if not 0 < self.phi0 <= 1:
            raise ValueError(f"params.phi0 must lie in (0, 1], got {self.phi0}")


def _check_unit_interval(phi, name="phi"):
    phi = np.asarray(phi, dtype=float)
    if not ((phi >= 0) & (phi <= 1)).all():
        raise ValueError(f"{name} outside [0, 1]")
    return phi


def kozeny_permeability(phi, params: PhysParams):
    """Bulk permeability k0 * phi^2 / phi0^2 (Kozeny-type)."""
    phi = _check_unit_interval(phi)
    return params.k0 * phi**2 / params.phi0**2


def cubic_law(eps, ref_k: float, ref_eps: float):
    """Aperture-driven permeability ref_k * eps^2 / ref_eps^2.

    Serves the fracture tangential and normal permeabilities as well as
    the intersection permeability; the corresponding flux scales
    cubically with the aperture once the extra eps factor of the
    reduced equations is included. ``PhysParams`` keeps ``ref_eps`` > 0.
    """
    eps = np.asarray(eps, dtype=float)
    if not (eps >= 0).all():
        raise ValueError("aperture must be non-negative")
    return ref_k * eps**2 / ref_eps**2


def update_pore_fraction(prev, dw, eta):
    """Implicit porosity/aperture update prev / (1 + eta*dw).

    ``dw`` is the precipitate change over the step. The same formula
    serves porosity, aperture and intersection cross-section.
    """
    prev = np.asarray(prev, dtype=float)
    denom = 1.0 + np.asarray(eta, dtype=float) * np.asarray(dw, dtype=float)
    if not (denom > 0).all():
        dof = int(np.argmin(denom > 0))
        raise SingularUpdateError(
            f"pore-fraction update has 1 + eta*dw = {denom.flat[dof]:.6g} <= 0 at "
            f"dof {dof}; the porosity or aperture would be non-positive or infinite")
    out = prev / denom
    if out.ndim == 0:
        return float(out)
    return out


def effective_heat_capacity(phi, params: PhysParams):
    """Porosity-weighted volumetric heat capacity of the saturated matrix."""
    phi = _check_unit_interval(phi)
    return phi * params.rhow_cw + (1.0 - phi) * params.rhos_cs


def effective_conductivity(phi, params: PhysParams):
    """Geometric-mean conductivity lambda_w^phi * lambda_s^(1-phi)."""
    phi = _check_unit_interval(phi)
    return params.lambdaw**phi * params.lambdas**(1.0 - phi)


def clamp_pore_fraction(values, is_bulk):
    """Apply the lower (and, for porosity, upper) clamps in place.

    Returns the number of entries that were clamped so the caller can
    record the event in the run log. A non-finite entry raises
    NumericError: no clamp could stand in for it.
    """
    values = np.asarray(values)
    finite = np.isfinite(values)
    if not finite.all():
        dof = int(np.argmin(finite))
        raise NumericError(f"non-finite pore fraction {values.flat[dof]} "
                           f"at dof {dof}")
    bulk = np.asarray(is_bulk, dtype=bool)
    low = np.where(bulk, PHI_MIN, EPS_MIN)
    high = bulk & (values > 1.0)
    clamped = (values < low) | high
    np.maximum(values, low, out=values)
    values[high] = 1.0
    return int(np.count_nonzero(clamped))
