"""Solve plans, sparse assembly and the direct solver with its residual
guarantee."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from fracreact import linsolve, physics
from fracreact.cli import STUDY_DAMKOHLER
from fracreact.discretize import build_topology
from fracreact.errors import NumericError
from fracreact.linsolve import DEFAULT_TOL, assemble_arrays, build_plan, solve
from fracreact.mesh import build_interval_mesh
from fracreact.physics import Operator, SegmentBC, transport_step
from fracreact.scenarios import (get_scenario, list_scenarios,
                                 splitting_problem_factory)
from fracreact.splitting import (TimeGrid, monolithic_linear_run, run,
                                 splitting_error_study)
from oracles import mmd_ordering


def _tridiagonal(diag, off):
    """Row, column and value arrays of a tridiagonal matrix with the
    given diagonal and a constant off-diagonal."""
    n = len(diag)
    i = np.arange(n - 1)
    rows = np.concatenate([np.arange(n), i + 1, i])
    cols = np.concatenate([np.arange(n), i, i + 1])
    vals = np.concatenate([diag, np.full(2 * (n - 1), off)])
    return rows, cols, vals


def _system(rows, cols, vals, n, rhs=None):
    """Plan and permuted system of a triplet matrix whose off-diagonal
    entries are the plan's connections, one each."""
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    off = rows != cols
    plan = build_plan(n, rows[off], cols[off])
    slots = np.empty(len(rows), dtype=int)
    slots[off] = plan.ij
    slots[~off] = plan.diag[rows[~off]]
    b = np.zeros(n) if rhs is None else np.asarray(rhs, dtype=float)
    return plan, assemble_arrays(plan, slots, np.asarray(vals, dtype=float), b)


def _solve(rows, cols, vals, n, rhs=None):
    """Solution of a triplet system in its own ordering."""
    plan, sys_ = _system(rows, cols, vals, n, rhs)
    return solve(sys_)[plan.perm]


class TestAssemble:
    def test_duplicates_summed(self):
        _, sys_ = _system([0, 0], [0, 0], [1.0, 1.0], 1)
        assert sys_.matrix.toarray()[0, 0] == 2.0

    def test_empty_system_is_singular(self):
        _, sys_ = _system([], [], [], 2)
        with pytest.raises(NumericError):
            solve(sys_)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            build_plan(2, [0], [5])
        with pytest.raises(IndexError):
            build_plan(2, [-1], [0])

    def test_tridiagonal_pattern(self):
        plan, sys_ = _system(*_tridiagonal(np.full(4, 2.0), -1.0), 4)
        expect = np.array([[2, -1, 0, 0], [-1, 2, -1, 0],
                           [0, -1, 2, -1], [0, 0, -1, 2]], dtype=float)
        # entry (i, j) of the system sits at (perm[i], perm[j])
        got = sys_.matrix.toarray()[np.ix_(plan.perm, plan.perm)]
        np.testing.assert_array_equal(got, expect)


class TestSolve:
    def test_identity(self):
        x = _solve(range(3), range(3), np.ones(3), 3, rhs=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], rtol=1e-14)

    def test_laplacian_manufactured_solution(self):
        # -u'' = 2 with u(0)=u(1)=0 has u = x(1-x); the centred 3-point
        # stencil is exact for quadratics
        n = 20
        h = 1.0 / (n + 1)
        got = _solve(*_tridiagonal(np.full(n, 2.0 / h**2), -1.0 / h**2), n,
                     rhs=np.full(n, 2.0))
        x = np.linspace(h, 1.0 - h, n)
        np.testing.assert_allclose(got, x * (1.0 - x), rtol=1e-12, atol=1e-14)

    def test_singular_matrix_raises(self):
        _, sys_ = _system([0, 1], [0, 0], [1.0, 1.0], 2, rhs=[1.0, 2.0])
        with pytest.raises(NumericError):
            solve(sys_)

    def test_nonfinite_rejected(self):
        _, sys_ = _system([0], [0], [np.nan], 1, rhs=[1.0])
        with pytest.raises(NumericError):
            solve(sys_)

    def test_overflowing_solution_raises(self):
        # finite input whose solution 1e300 / 1e-300 overflows to inf
        _, sys_ = _system([0], [0], [1e-300], 1, rhs=[1e300])
        with pytest.raises(NumericError, match="non-finite solution"):
            solve(sys_)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        n = 30
        _, sys_ = _system(*_tridiagonal(4.0 + rng.random(n), -1.0), n,
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
        x = _solve(*zip(*trip), n, rhs=rng.uniform(0.0, 1.0, n))
        assert np.all(x >= -1e-14)

    def test_badly_scaled_system(self):
        # transmissibility contrasts spanning many decades still solve
        scales = np.logspace(0, 12, 25)
        rhs = scales * np.arange(25)
        x = _solve(range(25), range(25), scales, 25, rhs=rhs)
        np.testing.assert_allclose(x, np.arange(25), rtol=1e-12)

    def test_residual_above_tolerance_raises(self):
        # LU on the 12x12 Hilbert matrix, in the plan's ordering, leaves
        # a normwise residual of 1.9e-9, above the tolerance
        n = 12
        rows, cols = np.indices((n, n))
        _, sys_ = _system(rows.ravel(), cols.ravel(),
                          1.0 / (rows + cols + 1.0).ravel(), n, rhs=np.ones(n))
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
        x = _solve(rows.ravel(), cols.ravel(), a.ravel(), n, rhs=a @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-9, atol=1e-12)


def test_residual_margin_on_clogging_network(monkeypatch):
    # residuals grow as the network clogs; every solve of a long run
    # stays an order of magnitude under the tolerance
    residuals = []

    def recording_solve(system, **kwargs):
        x = solve(system, **kwargs)
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


def test_plan_keys_past_int32_range():
    # the plan keys entries by perm[col]*n + perm[row]; from n = 46,341
    # on that passes the int32 range, so 32-bit keys would scramble the
    # pattern
    top = build_topology(build_interval_mesh(1.0, 50_000))
    n, ci, cj = top.layout.ndof, top.ci, top.cj
    rng = np.random.default_rng(7)
    t_conn = rng.uniform(0.5, 2.0, top.n_conn)
    flux = rng.uniform(-1.0, 1.0, top.n_conn)
    acc_new, acc_old = rng.uniform(1.0, 2.0, n), rng.uniform(1.0, 2.0, n)
    x_old = rng.uniform(0.0, 1.0, n)
    nb, dt = len(top.b_dof), 0.1
    no_flux = {"left": SegmentBC(), "right": SegmentBC()}
    x, _ = transport_step(Operator(top, no_flux, "solute"), t_conn,
                          np.ones(nb), acc_new, acc_old, x_old, flux,
                          np.zeros(nb), 1.0, dt)

    # the same operator assembled from triplets: diagonal, TPFA
    # diffusion, upwind advection; zero-flux boundaries add nothing
    fp, fm = np.maximum(flux, 0.0), np.minimum(flux, 0.0)
    rows = np.concatenate([np.arange(n), ci, ci, cj, cj, ci, ci, cj, cj])
    cols = np.concatenate([np.arange(n), ci, cj, cj, ci, ci, cj, cj, ci])
    vals = np.concatenate([acc_new] + [dt * v for v in (
        t_conn, -t_conn, t_conn, -t_conn, fp, fm, -fm, -fp)])
    a = sps.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    want = spla.spsolve(a, acc_old * x_old)
    assert top.plan.perm.dtype == np.int64
    np.testing.assert_allclose(x, want, rtol=1e-12)


def test_plan_built_once_per_topology(monkeypatch):
    # three factorisations a step, each with the fixed supernode
    # settings; the first run of a problem adds one incomplete factor
    # for the ordering, a second run on the same topology none
    calls = []

    class CountingSpla:
        def splu(self, *args, **kwargs):
            calls.append(("splu", kwargs))
            return spla.splu(*args, **kwargs)

        def spilu(self, *args, **kwargs):
            calls.append(("spilu", kwargs))
            return spla.spilu(*args, **kwargs)

    monkeypatch.setattr(linsolve, "spla", CountingSpla())
    scenario = get_scenario("multi_fracture_injection")
    grid = scenario.problem.grid
    k = 4
    problem = scenario.with_grid(TimeGrid(k * grid.dt, k)).problem
    factor = ("splu", {"permc_spec": "NATURAL", "relax": 1, "panel_size": 1})
    run(problem)
    assert len(calls) == 3 * k + 1
    assert calls[0][0] == "spilu"
    assert calls[0][1]["permc_spec"] == "MMD_AT_PLUS_A"
    assert calls[1:] == [factor] * (3 * k)
    del calls[:]
    run(problem)
    assert calls == [factor] * (3 * k)


@pytest.mark.parametrize("name", sorted(list_scenarios()))
def test_plan_ordering_is_the_full_lu_mmd_ordering(name):
    # the plan reads its ordering off an incomplete factor; it must be
    # the permutation a full MMD factorisation of the stand-in picks
    top = get_scenario(name).problem.top
    np.testing.assert_array_equal(top.plan.perm, mmd_ordering(top))


def test_fixed_supernode_settings_keep_the_fill(monkeypatch):
    # relax=1, panel_size=1 regroup supernodes only: L+U of every
    # system of a step has the fill of SuperLU's default settings
    factored = []

    class RecordingSpla:
        def splu(self, matrix, *args, **kwargs):
            lu = spla.splu(matrix, *args, **kwargs)
            factored.append((matrix.copy(), lu))
            return lu

        def __getattr__(self, attr):
            return getattr(spla, attr)

    monkeypatch.setattr(linsolve, "spla", RecordingSpla())
    scenario = get_scenario("multi_fracture_injection")
    grid = scenario.problem.grid
    run(scenario.with_grid(TimeGrid(grid.dt, 1)).problem)
    assert len(factored) == 3
    for matrix, lu in factored:
        default = spla.splu(matrix, permc_spec="NATURAL")
        assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz


class SpluCounter:
    """``scipy.sparse.linalg`` with its ``splu`` calls counted."""

    def __init__(self):
        self.factorizations = 0

    def splu(self, *args, **kwargs):
        self.factorizations += 1
        return spla.splu(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(spla, attr)


@pytest.fixture
def counting(monkeypatch):
    counter = SpluCounter()
    monkeypatch.setattr(linsolve, "spla", counter)
    return counter


class TestFactorReuse:
    """A matrix that repeats the operator's last one bit for bit is
    solved with a kept factor."""

    @pytest.fixture
    def case(self):
        # one solute step of the multi-fracture network on fixed fluxes
        problem = get_scenario("multi_fracture_injection").problem
        state = problem.state0
        _, conn, bnd = physics.darcy_step(problem.flow, state.pore, state.pore,
                                          problem.params, problem.grid.dt)
        return problem, state, conn, bnd

    @staticmethod
    def _step(op, case, u_old):
        problem, state, conn, bnd = case
        state = state.copy()
        state.u[:] = u_old
        return physics.solute_ad_step(op, state, conn, bnd, state.pore,
                                      state.pore, problem.params,
                                      problem.grid.dt)[0]

    def test_repeat_reuses_factor_bit_for_bit(self, case, counting):
        problem = case[0]
        op = Operator(problem.top, problem.bc, "solute")
        rng = np.random.default_rng(3)
        olds = rng.uniform(0.0, 1.0, (3, problem.top.layout.ndof))
        xs = [self._step(op, case, u_old) for u_old in olds]
        # a new matrix, its first repeat (factored and kept), then reuse
        assert counting.factorizations == 2 and op.lu is not None
        counting.factorizations = 0
        for u_old, x in zip(olds, xs):
            fresh = Operator(problem.top, problem.bc, "solute")
            assert np.array_equal(x, self._step(fresh, case, u_old))
        assert counting.factorizations == 3

    def test_one_ulp_change_refactors_and_drops(self, case, counting,
                                                monkeypatch):
        # without transport the matrix is the accumulation diagonal, so
        # one ulp more accumulation in one cell moves one entry one ulp
        top, bc = case[0].top, case[0].bc
        n = top.layout.ndof
        op = Operator(top, bc, "solute")
        acc = np.linspace(1.0, 2.0, n)
        zero_c, zero_b = np.zeros(top.n_conn), np.zeros(len(top.b_dof))
        assembled = []
        monkeypatch.setattr(physics, "assemble_arrays", lambda *args: (
            assembled.append(assemble_arrays(*args)) or assembled[-1]))

        def step(acc_new):
            transport_step(op, zero_c, zero_b, acc_new, acc, np.ones(n),
                           zero_c, zero_b, 1.0, 0.1)

        for _ in range(3):
            step(acc)
        assert counting.factorizations == 2 and op.lu is not None
        assert len(assembled) == 2
        before = op.kept[0].data.copy()
        nudged = acc.copy()
        nudged[7] = np.nextafter(acc[7], np.inf)
        step(nudged)
        after = assembled[-1].matrix.data
        changed = np.flatnonzero(after != before)
        assert len(changed) == 1
        assert after[changed[0]] == np.nextafter(before[changed[0]], np.inf)
        assert counting.factorizations == 3
        assert op.lu is None and op.kept is None

    def test_reused_factor_rejects_non_finite_rhs(self, case, counting):
        problem, state = case[:2]
        op = Operator(problem.top, problem.bc, "solute")
        for _ in range(3):
            self._step(op, case, state.u)
        lu = op.lu
        u_old = state.u.copy()
        u_old[4] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            self._step(op, case, u_old)
        assert counting.factorizations == 2 and op.lu is lu

    def test_no_factor_kept_when_nothing_repeats(self, counting):
        scenario = get_scenario("multi_fracture_injection")
        k = 6
        problem = scenario.with_grid(
            TimeGrid(k * scenario.problem.grid.dt, k)).problem
        run(problem)
        assert counting.factorizations == 3 * k
        for op in (problem.flow, problem.heat, problem.solute):
            assert op.inputs is not None
            assert op.lu is None and op.kept is None

    def test_study_factors_twice_per_run(self, counting):
        # frozen pores and a prescribed velocity repeat every matrix:
        # the split run and the monolithic reference each factor their
        # first matrix and its first repeat
        for da in STUDY_DAMKOHLER:
            counting.factorizations = 0
            splitting_error_study(splitting_problem_factory(da), [10, 20])
            assert counting.factorizations == 8

    def test_opening_run_matches_without_reuse(self, counting, monkeypatch):
        def fields(problem):
            state, reports = run(problem)
            return ([getattr(state, name) for name in
                     ("p", "theta", "u", "w", "pore", "react_prev")],
                    reports)

        scenario = get_scenario("multi_fracture_opening")
        steps = scenario.problem.grid.num_steps
        reused = fields(scenario.problem)
        factorizations = counting.factorizations
        # the same run with every system taken as new
        tpfa_solve = physics._tpfa_solve

        def as_new(op, *args, **kwargs):
            op.inputs = op.lu = op.kept = None
            return tpfa_solve(op, *args, **kwargs)

        monkeypatch.setattr(physics, "_tpfa_solve", as_new)
        counting.factorizations = 0
        fresh = fields(scenario.with_grid(scenario.problem.grid).problem)
        assert counting.factorizations == 3 * steps
        assert factorizations < 2 * steps, "no matrix was reused"
        assert reused[1] == fresh[1]
        for got, want in zip(reused[0], fresh[0]):
            assert np.array_equal(got, want)

    def test_study_work_does_not_grow_with_steps(self, monkeypatch):
        # frozen pores and a prescribed velocity repeat every input:
        # coefficients and assembly run only for the first solves of
        # each run, whatever its number of steps
        calls = {"assemble_arrays": 0, "transmissibilities": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(physics, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(physics, name, counted)
        factory = splitting_problem_factory(1.0)
        counts = []
        for n in (10, 20):
            splitting_error_study(factory, [n])
            counts.append(dict(calls))
            calls.update(dict.fromkeys(calls, 0))
        assert counts[0] == counts[1]
        assert counts[0]["assemble_arrays"] == 4

    def test_alternating_inputs_match_fresh_operators(self, case):
        problem, state, conn, bnd = case
        top = problem.top
        op = Operator(top, problem.bc, "solute")
        rng = np.random.default_rng(5)
        u_old = rng.uniform(0.0, 1.0, top.layout.ndof)
        pores = {"A": state.pore, "B": state.pore * 1.1}

        def step(op, key):
            old = state.copy()
            old.u[:] = u_old
            return physics.solute_ad_step(op, old, conn, bnd, pores[key],
                                          state.pore, problem.params,
                                          problem.grid.dt)

        for key in "ABABAABBA":
            got = step(op, key)
            want = step(Operator(top, problem.bc, "solute"), key)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_reference_after_split_run_matches_fresh_operator(self):
        factory = splitting_problem_factory(10.0)
        shared = factory(20)
        run(shared)
        got = monolithic_linear_run(shared)
        assert np.array_equal(got, monolithic_linear_run(factory(20)))

    @pytest.mark.parametrize("name", ["dt", "t_bnd", "bnd_flux", "acc_new",
                                      "t_conn", "conn_flux"])
    def test_nan_input_never_reuses(self, counting, name):
        top = build_topology(build_interval_mesh(1.0, 8))
        bc = {"left": SegmentBC(solute=(physics.DIRICHLET, 1.0)),
              "right": SegmentBC(solute=(physics.OUTFLOW, 0.0))}
        op = Operator(top, bc, "solute")
        n, nb = top.layout.ndof, len(top.b_dof)
        args = {"t_conn": np.full(top.n_conn, 2.0), "t_bnd": np.full(nb, 4.0),
                "acc_new": np.full(n, 0.1), "conn_flux": np.ones(top.n_conn),
                "bnd_flux": np.array([-1.0, 1.0]), "dt": 0.1}

        def step(**change):
            a = {**args, **change}
            return transport_step(op, a["t_conn"], a["t_bnd"], a["acc_new"],
                                  np.full(n, 0.1), np.zeros(n), a["conn_flux"],
                                  a["bnd_flux"], 1.0, a["dt"])

        for _ in range(3):
            want = step()
        assert counting.factorizations == 2 and op.lu is not None
        bad = np.array(args[name], dtype=float)
        bad.flat[0] = np.nan
        for _ in range(2):
            with pytest.raises(NumericError, match="non-finite"):
                step(**{name: bad})
            assert op.lu is None and op.kept is None
        assert counting.factorizations == 2
        got = step()
        assert op.lu is None and counting.factorizations == 3
        assert np.array_equal(got[0], want[0])
