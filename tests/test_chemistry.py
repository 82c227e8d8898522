"""Reaction kinetics: rate law, the switched dissolution branch, event
location at the w = 0 crossing and the per-cell integrator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracreact.chemistry import (ReactionParams, lambda_minus, net_rate,
                                 react_cell, saturation_ratio)
from fracreact.errors import NumericError
from oracles import locate_crossing


RP = ReactionParams(lambda0=1.0, act=0.0, u_e=1.0, rate_power=2.0)


class TestRateLaw:
    def test_lambda_minus_no_activation(self):
        assert lambda_minus(1.0, RP) == pytest.approx(1.0)

    def test_lambda_minus_arrhenius_value(self):
        rp = ReactionParams(lambda0=10.0, act=4.0)
        assert lambda_minus(1.0, rp) == pytest.approx(10.0 * np.exp(-4.0))

    def test_lambda_minus_increases_with_temperature(self):
        rp = ReactionParams(lambda0=10.0, act=4.0)
        assert lambda_minus(1.5, rp) > lambda_minus(1.0, rp)

    def test_lambda_minus_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            lambda_minus(0.0, RP)

    def test_saturation_ratio_equilibrium(self):
        assert saturation_ratio(1.0, RP) == pytest.approx(1.0)

    def test_saturation_ratio_quadratic(self):
        assert saturation_ratio(2.0, RP) == pytest.approx(4.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, bad):
        for name in vars(ReactionParams()):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ReactionParams(**{name: bad})

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReactionParams(lambda0=-1.0)
        with pytest.raises(ValueError):
            ReactionParams(u_e=0.0)
        with pytest.raises(ValueError):
            ReactionParams(rate_power=0.5)


class TestNetRate:
    def test_supersaturated_precipitates(self):
        assert net_rate(2.0, 0.0, 1.0, RP) == pytest.approx(3.0)

    def test_undersaturated_with_precipitate_dissolves(self):
        assert net_rate(0.0, 1.0, 1.0, RP) == pytest.approx(-1.0)

    def test_no_precipitate_blocks_dissolution(self):
        # the switch is single-valued on the discontinuity surface
        assert net_rate(0.5, 0.0, 1.0, RP) == 0.0

    def test_equilibrium_rate_zero(self):
        assert net_rate(1.0, 0.7, 1.0, RP) == 0.0

    @given(st.floats(0.0, 3.0), st.floats(0.0, 2.0))
    def test_sign_structure(self, u, w):
        r = float(net_rate(u, w, 1.0, RP))
        if u > 1.0:
            assert r > 0.0
        elif w == 0.0:
            assert r == 0.0
        else:
            assert r <= 0.0


class TestLocateCrossing:
    def test_midstep_crossing(self):
        # w decays at unit rate from 0.5: hits zero halfway through dt=1
        assert locate_crossing(0.5, -1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_requires_actual_crossing(self):
        with pytest.raises(ValueError):
            locate_crossing(0.5, 1.0, 1.0)

    @given(st.floats(1e-6, 1.0), st.floats(-10.0, -1e-3), st.floats(1e-3, 10.0))
    def test_dense_output_root(self, w0, rate, dt):
        if w0 + dt * rate >= 0:
            return
        xi = locate_crossing(w0, rate, dt)
        assert 0.0 < xi <= 1.0
        assert w0 + xi * dt * rate == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("scheme", ["explicit-euler", "heun"])
class TestReactCell:
    def test_total_concentration_pinned(self, scheme):
        rng = np.random.default_rng(7)
        u = rng.uniform(0.0, 3.0, 50)
        w = rng.uniform(0.0, 2.0, 50)
        u2, w2, _ = react_cell(u, w, 1.0, 0.05, RP, scheme=scheme)
        # preserved up to one rounding of the total per cell
        np.testing.assert_allclose(u2 + w2, u + w, rtol=1e-15, atol=0.0)

    def test_equilibrium_fixed_point(self, scheme):
        u2, w2, n = react_cell(1.0, 0.4, 1.3, 0.1, RP, scheme=scheme)
        assert u2 == 1.0 and w2 == 0.4 and n == 0

    def test_precipitate_never_negative(self, scheme):
        u2, w2, _ = react_cell(0.0, 0.01, 1.0, 10.0, RP, scheme=scheme)
        assert w2 == 0.0
        assert u2 == pytest.approx(0.01)

    def test_sliding_state_stays_on_surface(self, scheme):
        u, w = 0.5, 0.0
        for _ in range(5):
            u, w, n = react_cell(u, w, 1.0, 0.1, RP, scheme=scheme)
            assert w == 0.0 and n == 0
        assert u == 0.5

    def test_overshoot_does_not_cross_equilibrium(self, scheme):
        # a huge explicit step may approach but not pass u = u_e
        rp = ReactionParams(lambda0=100.0, act=0.0, u_e=1.0, rate_power=2.0)
        u2, w2, _ = react_cell(2.0, 0.0, 1.0, 1.0, rp, scheme=scheme)
        assert u2 >= rp.u_e - 1e-14
        u3, w3, _ = react_cell(0.2, 5.0, 1.0, 1.0, rp, scheme=scheme)
        assert u3 <= rp.u_e + 1e-14

    def test_event_counted_once(self, scheme):
        _, w2, n = react_cell(0.0, 0.05, 1.0, 1.0, RP, scheme=scheme)
        assert w2 == 0.0 and n == 1

    def test_scalar_round_trip(self, scheme):
        u2, w2, n = react_cell(2.0, 0.1, 1.0, 1e-3, RP, scheme=scheme)
        assert isinstance(u2, float) and isinstance(w2, float)
        assert w2 > 0.1      # supersaturated: precipitate grows

    @settings(max_examples=60)
    @given(st.floats(0.0, 3.0), st.floats(0.0, 2.0), st.floats(1e-4, 1.0))
    def test_invariants_random(self, scheme, u, w, dt):
        u2, w2, _ = react_cell(u, w, 1.0, dt, RP, scheme=scheme)
        assert w2 >= 0.0
        assert u2 + w2 == pytest.approx(u + w, rel=1e-15, abs=1e-300)
        # the solute never crosses the equilibrium concentration
        if u > RP.u_e:
            assert u2 >= RP.u_e - 1e-14
        elif u < RP.u_e:
            assert u2 <= RP.u_e + 1e-14

    def test_rejects_bad_input(self, scheme):
        with pytest.raises(ValueError):
            react_cell(1.0, 0.1, 1.0, 0.0, RP, scheme=scheme)
        with pytest.raises(NumericError):
            react_cell(np.nan, 0.1, 1.0, 0.1, RP, scheme=scheme)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        react_cell(1.0, 0.1, 1.0, 0.1, RP, scheme="rk9")


def test_heun_more_accurate_than_euler_on_smooth_decay():
    # both schemes vs a tiny-step reference on a non-stiff dissolution
    u0, w0, dt = 0.5, 1.0, 0.2
    u_ref, w_ref = u0, w0
    for _ in range(2000):
        u_ref, w_ref, _ = react_cell(u_ref, w_ref, 1.0, dt / 2000, RP)
    _, w_ee, _ = react_cell(u0, w0, 1.0, dt, RP, scheme="explicit-euler")
    _, w_he, _ = react_cell(u0, w0, 1.0, dt, RP, scheme="heun")
    assert abs(w_he - w_ref) < abs(w_ee - w_ref)
