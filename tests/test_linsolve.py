"""Sparse assembly and the direct solver with its residual guarantee."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracreact import physics
from fracreact.errors import NumericError
from fracreact.linsolve import DEFAULT_TOL, assemble_arrays, solve
from fracreact.scenarios import get_scenario
from fracreact.splitting import TimeGrid, run


def _tridiagonal(diag, off):
    """Row, column and value arrays of a tridiagonal matrix with the
    given diagonal and a constant off-diagonal."""
    n = len(diag)
    i = np.arange(n - 1)
    rows = np.concatenate([np.arange(n), i + 1, i])
    cols = np.concatenate([np.arange(n), i, i + 1])
    vals = np.concatenate([diag, np.full(2 * (n - 1), off)])
    return rows, cols, vals


class TestAssemble:
    def test_duplicates_summed(self):
        sys_ = assemble_arrays([0, 0], [0, 0], [1.0, 1.0], 1)
        assert sys_.matrix.toarray()[0, 0] == 2.0

    def test_empty_system_is_singular(self):
        sys_ = assemble_arrays([], [], [], 2)
        with pytest.raises(NumericError):
            solve(sys_)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            assemble_arrays([0], [5], [1.0], 2)
        with pytest.raises(IndexError):
            assemble_arrays([-1], [0], [1.0], 2)

    def test_tridiagonal_pattern(self):
        mat = assemble_arrays(*_tridiagonal(np.full(4, 2.0), -1.0), 4)
        expect = np.array([[2, -1, 0, 0], [-1, 2, -1, 0],
                           [0, -1, 2, -1], [0, 0, -1, 2]], dtype=float)
        np.testing.assert_array_equal(mat.matrix.toarray(), expect)


class TestSolve:
    def test_identity(self):
        sys_ = assemble_arrays(range(3), range(3), np.ones(3), 3,
                               rhs=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(solve(sys_), [1.0, 2.0, 3.0], rtol=1e-14)

    def test_laplacian_manufactured_solution(self):
        # -u'' = 2 with u(0)=u(1)=0 has u = x(1-x); the centred 3-point
        # stencil is exact for quadratics
        n = 20
        h = 1.0 / (n + 1)
        sys_ = assemble_arrays(*_tridiagonal(np.full(n, 2.0 / h**2),
                                             -1.0 / h**2), n,
                               rhs=np.full(n, 2.0))
        x = np.linspace(h, 1.0 - h, n)
        np.testing.assert_allclose(solve(sys_), x * (1.0 - x),
                                   rtol=1e-12, atol=1e-14)

    def test_singular_matrix_raises(self):
        sys_ = assemble_arrays([0, 1], [0, 0], [1.0, 1.0], 2, rhs=[1.0, 2.0])
        with pytest.raises(NumericError):
            solve(sys_)

    def test_nonfinite_rejected(self):
        sys_ = assemble_arrays([0], [0], [np.nan], 1, rhs=[1.0])
        with pytest.raises(NumericError):
            solve(sys_)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        n = 30
        sys_ = assemble_arrays(*_tridiagonal(4.0 + rng.random(n), -1.0), n,
                               rhs=rng.random(n))
        x1 = solve(sys_)
        x2 = solve(sys_)
        assert np.array_equal(x1, x2)

    def test_m_matrix_nonnegative_solution(self):
        # diagonally dominant M-matrix with non-negative rhs
        rng = np.random.default_rng(11)
        n = 40
        trip = []
        for i in range(n):
            trip.append((i, i, 5.0))
            if i > 0:
                trip.append((i, i - 1, -rng.uniform(0.0, 2.0)))
            if i < n - 1:
                trip.append((i, i + 1, -rng.uniform(0.0, 2.0)))
        x = solve(assemble_arrays(*zip(*trip), n,
                                  rhs=rng.uniform(0.0, 1.0, n)))
        assert np.all(x >= -1e-14)

    def test_badly_scaled_system(self):
        # transmissibility contrasts spanning many decades still solve
        scales = np.logspace(0, 12, 25)
        rhs = scales * np.arange(25)
        x = solve(assemble_arrays(range(25), range(25), scales, 25, rhs=rhs))
        np.testing.assert_allclose(x, np.arange(25), rtol=1e-12)

    def test_residual_above_tolerance_raises(self):
        # LU on the 12x12 Hilbert matrix leaves a normwise residual of
        # 1.6e-9, above the tolerance
        n = 12
        rows, cols = np.indices((n, n))
        sys_ = assemble_arrays(rows.ravel(), cols.ravel(),
                               1.0 / (rows + cols + 1.0).ravel(), n,
                               rhs=np.ones(n))
        with pytest.raises(NumericError, match="residual"):
            solve(sys_)

    @settings(max_examples=30)
    @given(st.integers(2, 12), st.integers(0, 10_000))
    def test_recovers_planted_solution(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, n)) - 0.5
        a += n * np.eye(n)          # diagonally dominant, well conditioned
        x_true = rng.random(n)
        rows, cols = np.indices((n, n))
        x = solve(assemble_arrays(rows.ravel(), cols.ravel(), a.ravel(), n,
                                  rhs=a @ x_true))
        np.testing.assert_allclose(x, x_true, rtol=1e-9, atol=1e-12)


def test_residual_margin_on_clogging_network(monkeypatch):
    # residuals grow as the network clogs; every solve of a long run
    # stays an order of magnitude under the tolerance
    residuals = []

    def recording_solve(system):
        x = solve(system)
        b = system.rhs
        bnorm = np.linalg.norm(b)
        residuals.append(np.linalg.norm(system.matrix @ x - b)
                         / (bnorm if bnorm > 0 else 1.0))
        return x

    monkeypatch.setattr(physics, "solve", recording_solve)
    scenario = get_scenario("multi_fracture_injection")
    grid = scenario.problem.grid
    run(scenario.with_grid(TimeGrid(grid.t_end * 4, grid.num_steps * 4)).problem)
    assert len(residuals) == 3 * 200
    assert max(residuals) <= DEFAULT_TOL / 10
