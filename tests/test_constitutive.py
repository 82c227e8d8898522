"""Constitutive laws: parameter validation, permeability laws, the
implicit pore-fraction update and the clamps."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracreact.constitutive import (EPS_MIN, PHI_MIN, PhysParams,
                                    clamp_pore_fraction, cubic_law,
                                    effective_conductivity,
                                    effective_heat_capacity,
                                    kozeny_permeability, update_pore_fraction)
from fracreact.errors import NumericError, SingularUpdateError


class TestPhysParams:
    def test_defaults(self):
        p = PhysParams()
        assert p.mu == 1.0
        assert p.phi0 == 0.2
        assert p.kgamma0 == 1e2
        assert p.epsgamma0 == 1e-2
        assert p.eta_omega == 0.5
        assert p.eta_gamma == 2.0
        assert p.lambdas == 1e-1
        assert p.dgamma == 1e-1

    def test_porosity_out_of_range(self):
        with pytest.raises(ValueError, match="params.phi0"):
            PhysParams(phi0=1.5)

    def test_negative_viscosity(self):
        with pytest.raises(ValueError, match="params.mu"):
            PhysParams(mu=-1.0)

    def test_negative_deposition_coefficient(self):
        with pytest.raises(ValueError, match="params.eta_gamma"):
            PhysParams(eta_gamma=-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        for name in vars(PhysParams()):
            with pytest.raises(ValueError, match=f"params.{name} must be finite"):
                PhysParams(**{name: bad})

    def test_zero_deposition_coefficient_allowed(self):
        assert PhysParams(eta_omega=0.0).eta_omega == 0.0

    @pytest.mark.parametrize("name", [f.name for f in fields(PhysParams)])
    def test_zero_rejected_unless_deposition_coefficient(self, name):
        if name.startswith("eta_"):
            assert getattr(PhysParams(**{name: 0.0}), name) == 0.0
        else:
            with pytest.raises(ValueError, match=rf"^params\.{name} must be "
                               r"strictly positive, got 0\.0$"):
                PhysParams(**{name: 0.0})


class TestPermeabilities:
    def test_kozeny_reference_value(self):
        p = PhysParams()
        assert kozeny_permeability(p.phi0, p) == pytest.approx(p.k0)

    def test_kozeny_quadratic_scaling(self):
        p = PhysParams()
        assert kozeny_permeability(0.1, p) == pytest.approx(
            0.25 * kozeny_permeability(0.2, p))

    def test_kozeny_rejects_nonphysical_porosity(self):
        with pytest.raises(ValueError):
            kozeny_permeability(1.2, PhysParams())

    @pytest.mark.parametrize("law", [kozeny_permeability,
                                     effective_heat_capacity,
                                     effective_conductivity])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_porosity_rejected(self, law, bad):
        with pytest.raises(ValueError, match=r"^phi outside \[0, 1\]$"):
            law(np.array([0.2, bad]), PhysParams())

    def test_cubic_law_reference_value(self):
        assert cubic_law(1e-2, 1e2, 1e-2) == pytest.approx(1e2)

    def test_cubic_law_quadratic_scaling(self):
        assert cubic_law(2e-2, 1e2, 1e-2) == pytest.approx(4e2)

    def test_cubic_law_rejects_negative_aperture(self):
        with pytest.raises(ValueError):
            cubic_law(-1e-3, 1e2, 1e-2)

    @pytest.mark.parametrize("eps", [np.array([1e-2, np.nan]), np.nan])
    def test_cubic_law_rejects_nan_aperture(self, eps):
        with pytest.raises(ValueError, match="^aperture must be non-negative$"):
            cubic_law(eps, 1e2, 1e-2)

    @pytest.mark.parametrize("name", ["epsgamma0", "epsiota0"])
    @pytest.mark.parametrize("bad", [0.0, -1e-2])
    def test_cubic_law_reference_aperture_guarded_by_params(self, name, bad):
        # every cubic_law caller passes one of these as its reference
        # aperture, so cubic_law itself does not check it
        with pytest.raises(ValueError, match=rf"^params\.{name} must be"):
            PhysParams(**{name: bad})

    @given(st.floats(0.0, 1.0), st.floats(1e-3, 1e3), st.floats(1e-6, 1.0))
    def test_cubic_law_nonnegative(self, eps, ref_k, ref_eps):
        assert cubic_law(eps, ref_k, ref_eps) >= 0.0


class TestPoreUpdate:
    def test_no_change(self):
        assert update_pore_fraction(0.2, 0.0, 0.5) == pytest.approx(0.2)

    def test_zero_coefficient(self):
        assert update_pore_fraction(0.2, 5.0, 0.0) == pytest.approx(0.2)

    def test_known_value(self):
        assert update_pore_fraction(0.2, 0.1, 0.5) == pytest.approx(
            0.2 / 1.05, rel=1e-15)

    def test_dissolution_grows_fraction(self):
        assert update_pore_fraction(0.2, -0.1, 0.5) > 0.2

    def test_singular_denominator(self):
        with pytest.raises(SingularUpdateError):
            update_pore_fraction(0.2, -2.0, 1.0)

    def test_singular_denominator_names_first_dof(self):
        with pytest.raises(SingularUpdateError,
                           match=r"1 \+ eta\*dw = -0\.5 <= 0 at dof 2;"):
            update_pore_fraction(np.full(4, 0.2),
                                 np.array([0.0, -0.1, -3.0, -4.0]), 0.5)

    def test_nan_denominator_rejected(self):
        with pytest.raises(SingularUpdateError,
                           match=r"1 \+ eta\*dw = nan <= 0 at dof 0;"):
            update_pore_fraction([0.5], [np.nan], [1.0])

    def test_array_input(self):
        out = update_pore_fraction(np.array([0.2, 0.3]), np.array([0.0, 0.1]),
                                   0.5)
        np.testing.assert_allclose(out, [0.2, 0.3 / 1.05])

    @given(st.floats(1e-4, 1.0), st.floats(-0.5, 10.0), st.floats(0.0, 1.9))
    def test_update_inverts_exactly(self, prev, dw, eta):
        out = update_pore_fraction(prev, dw, eta)
        assert out * (1.0 + eta * dw) == pytest.approx(prev, rel=1e-14)


class TestThermalProperties:
    def test_heat_capacity_limits(self):
        p = PhysParams(rhow_cw=3.0, rhos_cs=7.0)
        assert effective_heat_capacity(0.0, p) == pytest.approx(7.0)
        assert effective_heat_capacity(1.0, p) == pytest.approx(3.0)

    def test_conductivity_geometric_mean(self):
        p = PhysParams(lambdaw=1.0, lambdas=0.1)
        assert effective_conductivity(0.5, p) == pytest.approx(
            np.sqrt(1.0 * 0.1))

    def test_conductivity_limits(self):
        p = PhysParams(lambdaw=2.0, lambdas=0.5)
        assert effective_conductivity(1.0, p) == pytest.approx(2.0)
        assert effective_conductivity(0.0, p) == pytest.approx(0.5)


class TestClamp:
    def test_bulk_lower_clamp(self):
        vals = np.array([0.5, 1e-9])
        n = clamp_pore_fraction(vals, np.array([True, True]))
        assert n == 1
        np.testing.assert_allclose(vals, [0.5, PHI_MIN])

    def test_bulk_upper_clamp(self):
        vals = np.array([1.3])
        assert clamp_pore_fraction(vals, np.array([True])) == 1
        assert vals[0] == 1.0

    def test_aperture_lower_clamp(self):
        vals = np.array([1e-15, 2.0])
        n = clamp_pore_fraction(vals, np.array([False, False]))
        assert n == 1
        np.testing.assert_allclose(vals, [EPS_MIN, 2.0])

    def test_no_clamp_counts_zero(self):
        vals = np.array([0.2, 1e-3])
        assert clamp_pore_fraction(vals, np.array([True, False])) == 0

    @pytest.mark.parametrize("bulk", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_at_first_dof(self, bulk, bad):
        vals = np.array([0.5, bad, np.nan])
        with pytest.raises(NumericError,
                           match=rf"^non-finite pore fraction {bad} at dof 1$"):
            clamp_pore_fraction(vals, np.array([bulk] * 3))
