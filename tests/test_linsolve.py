"""Tests of the direct solver and the optimality-system solve paths."""

import numpy as np
import pytest
import scipy.sparse as sp

from ldgcontrol import linsolve
from ldgcontrol.analysis import (
    error_l2_boundary,
    example2_data,
    example3_data,
    example3_mesh,
    manufactured_example1,
)
from ldgcontrol.control import pdas_solve
from ldgcontrol.geometry import build_unit_square_mesh
from ldgcontrol.ldg import assemble_forms, solve_adjoint, solve_state
from ldgcontrol.linsolve import (
    ReducedSolveError,
    SingularSystemError,
    compose_kkt,
    condense_kkt,
    direct_solve,
    solve_optimality_system,
)
from ldgcontrol.spaces import DiscreteField, DofMap, build_spaces


def build_ops(data, n):
    mesh = build_unit_square_mesh(n)
    return assemble_forms(mesh, build_spaces(mesh), data)


@pytest.fixture(scope="module")
def ex1_ops():
    case = manufactured_example1()
    return case, build_ops(case.problem_data(), 4)


@pytest.fixture(scope="module")
def ex2_ops_128():
    data = example2_data()
    return data, build_ops(data, 8)


def no_active(ops, mode):
    n = ops.M_Gamma.shape[0] if mode == "full" else ops.bq.num_points
    return np.zeros(n, bool), np.zeros(n, bool)


# ------------------------------------------------------------ direct solve


def test_direct_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    x = direct_solve(sp.eye(3, format="csc"), b)
    assert np.abs(x - b).max() < 1e-14


def test_direct_solve_diagonal():
    A = sp.diags([2.0, 4.0]).tocsc()
    x = direct_solve(A, np.array([2.0, 8.0]))
    assert np.abs(x - [1.0, 2.0]).max() < 1e-14


def test_direct_solve_spd_residual():
    rng = np.random.default_rng(7)
    G = rng.standard_normal((50, 50))
    A = sp.csc_matrix(G.T @ G + np.eye(50))
    x_true = rng.standard_normal(50)
    b = A @ x_true
    x = direct_solve(A, b)
    res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    assert res <= 1e-10
    assert np.abs(x - x_true).max() < 1e-9


def test_direct_solve_singular_raises():
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularSystemError):
        direct_solve(A, np.array([1.0, 1.0]))


def test_direct_solve_shape_mismatch():
    with pytest.raises(ValueError):
        direct_solve(sp.eye(3, format="csc"), np.ones(4))


# ----------------------------------------------------- KKT composition


def test_fully_pinned_control_reduces_to_state_solve(ex1_ops):
    # pin every control DOF to a zero lower bound: the optimality solve
    # must return exactly the forward solution with homogeneous control
    case, ops = ex1_ops
    data = case.problem_data(u_lower=0.0)
    n_u = ops.M_Gamma.shape[0]
    active = (np.ones(n_u, bool), np.zeros(n_u, bool))
    parts = solve_optimality_system(ops, active, data, mode="full")
    assert np.abs(parts["u"]).max() == 0.0
    u0 = DiscreteField(DofMap(ops.mesh, "boundary-edge"), np.zeros(n_u))
    y_ref, q_ref = solve_state(ops, u0)
    assert np.abs(parts["y"] - y_ref.coefficients).max() < 1e-11
    assert np.abs(parts["q"] - q_ref.coefficients).max() < 1e-11


def test_unconstrained_solution_is_stationary(ex1_ops):
    case, ops = ex1_ops
    data = ops.data
    parts = solve_optimality_system(ops, no_active(ops, "full"), data, mode="full")
    g = (data.omega * (ops.M_Gamma @ parts["u"])
         + ops.M1.T @ parts["p"] + ops.M2.T @ parts["z"])
    scale = max(1.0, np.abs(parts["u"]).max())
    assert np.abs(g).max() < 1e-9 * scale


def test_unconstrained_errors_match_expected_scale(ex1_ops):
    # quantitative anchor on the coarse mesh of the smooth example
    case, ops = ex1_ops
    parts = solve_optimality_system(ops, no_active(ops, "full"), ops.data, mode="full")
    u_h = DiscreteField(DofMap(ops.mesh, "boundary-edge"), parts["u"])
    err_u = error_l2_boundary(u_h, case.u)
    assert 0.5 * 4.290e-02 < err_u < 2.0 * 4.290e-02


def test_elimination_matches_reduced_stationary_point():
    # dual route: probe the affine control-to-gradient map with repeated
    # forward/adjoint solves, solve the reduced normal equations, and
    # compare against the coupled saddle-point solve
    case = manufactured_example1()
    data = case.problem_data()
    ops = build_ops(data, 2)
    n_u = ops.M_Gamma.shape[0]
    dofmap = DofMap(ops.mesh, "boundary-edge")

    def gradient_of(u_vec):
        u_field = DiscreteField(dofmap, u_vec)
        y, _ = solve_state(ops, u_field)
        # adjoint load (y_h - y_d, v) assembled the same way the coupled
        # system assembles it: mass-weighted coefficients minus the data load
        z, p = solve_adjoint(ops, load_vector=ops.M_Omega @ y.coefficients - ops.Yd)
        return (data.omega * (ops.M_Gamma @ u_vec)
                + ops.M1.T @ p.coefficients + ops.M2.T @ z.coefficients)

    g0 = gradient_of(np.zeros(n_u))
    H = np.empty((n_u, n_u))
    for j in range(n_u):
        e = np.zeros(n_u)
        e[j] = 1.0
        H[:, j] = gradient_of(e) - g0
    u_star = np.linalg.solve(H, -g0)

    parts = solve_optimality_system(ops, no_active(ops, "full"), data, mode="full")
    scale = max(1.0, np.abs(u_star).max())
    assert np.abs(parts["u"] - u_star).max() < 1e-8 * scale

    u_field = DiscreteField(dofmap, u_star)
    y_star, _ = solve_state(ops, u_field)
    assert np.abs(parts["y"] - y_star.coefficients).max() < 1e-8


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_condensed_matches_monolithic_unconstrained(mode, ex1_ops):
    case, ops = ex1_ops
    active = no_active(ops, mode)
    pm = solve_optimality_system(ops, active, ops.data, mode=mode,
                                 strategy="monolithic")
    pc = solve_optimality_system(ops, active, ops.data, mode=mode,
                                 strategy="condensed")
    for name in pm:
        scale = max(1.0, np.abs(pm[name]).max())
        assert np.abs(pm[name] - pc[name]).max() < 1e-9 * scale, name


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_condensed_matches_monolithic_with_active_bounds(mode, ex2_ops_128):
    # realistic active set from the bound-constrained example
    data, ops = ex2_ops_128
    sol = pdas_solve(ops, data, mode=mode, strategy="monolithic")
    assert sol.active.upper.any()
    active = (sol.active.lower, sol.active.upper)
    pm = solve_optimality_system(ops, active, data, mode=mode,
                                 strategy="monolithic")
    pc = solve_optimality_system(ops, active, data, mode=mode,
                                 strategy="condensed")
    for name in pm:
        scale = max(1.0, np.abs(pm[name]).max())
        assert np.abs(pm[name] - pc[name]).max() < 1e-9 * scale, name


def test_active_controls_hold_their_bounds_exactly(ex2_ops_128):
    # converged mixed active set of the constrained example: the default
    # path substitutes the active controls, so they equal the bound bit
    # for bit while the inactive ones still match the reference solve
    data, ops = ex2_ops_128
    sol = pdas_solve(ops, data, mode="full", strategy="monolithic")
    lower, upper = sol.active.lower, sol.active.upper
    assert upper.any() and sol.active.inactive.any()
    parts = solve_optimality_system(ops, (lower, upper), data, mode="full")
    assert np.all(parts["u"][upper] == data.u_upper)
    assert np.all(parts["u"][lower] == data.u_lower)
    ref = solve_optimality_system(ops, (lower, upper), data, mode="full",
                                  strategy="monolithic")
    inactive = sol.active.inactive
    assert np.abs(parts["u"][inactive] - ref["u"][inactive]).max() < 1e-9


def assert_reduced_matches_monolithic(ops, active, data, mode):
    # from the default zero start and from a random warm start
    pm = solve_optimality_system(ops, active, data, mode=mode, strategy="monolithic")
    n = active[0].size
    for u_start in (None, np.random.default_rng(3).uniform(-1.0, 1.0, n)):
        pr = solve_optimality_system(ops, active, data, mode=mode, u_start=u_start)
        assert sorted(pm) == sorted(k for k in pr if k != "cg")
        for name in pm:
            scale = max(1.0, np.abs(pm[name]).max())
            assert np.abs(pm[name] - pr[name]).max() <= 1e-10 * scale, name
        assert pr["cg"].iterations > 0


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_reduced_matches_monolithic_unconstrained(mode, ex1_ops):
    case, ops = ex1_ops
    assert_reduced_matches_monolithic(ops, no_active(ops, mode), ops.data, mode)


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_reduced_matches_monolithic_with_active_bounds(mode, ex2_ops_128):
    data, ops = ex2_ops_128
    sol = pdas_solve(ops, data, mode=mode, strategy="monolithic")
    assert sol.active.upper.any() and sol.active.inactive.any()
    assert_reduced_matches_monolithic(ops, (sol.active.lower, sol.active.upper), data, mode)


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_reduced_matches_monolithic_on_polygon_mesh(mode):
    # skewed quadrilateral, lower bound only
    data = example3_data()
    mesh = example3_mesh(2)
    ops = assemble_forms(mesh, build_spaces(mesh), data)
    sol = pdas_solve(ops, data, mode=mode, strategy="monolithic")
    assert sol.active.lower.any() and sol.active.inactive.any()
    assert_reduced_matches_monolithic(ops, (sol.active.lower, sol.active.upper), data, mode)


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_pdas_reduced_and_monolithic_take_the_same_steps(mode, ex2_ops_128):
    data, ops = ex2_ops_128
    ref = pdas_solve(ops, data, mode=mode, strategy="monolithic")
    sol = pdas_solve(ops, data, mode=mode)
    assert sol.iterations == ref.iterations > 1
    assert sol.active.same_as(ref.active)
    assert [(s.lower, s.upper) for s in sol.log] == [(s.lower, s.upper) for s in ref.log]


def test_reduced_solve_raises_when_cg_misses_its_tolerance(ex2_ops_128, monkeypatch):
    data, ops = ex2_ops_128

    def stalled_cg(apply, b, precond, x0, rtol, maxiter):
        return x0, maxiter, 3e-4
    monkeypatch.setattr(linsolve, "_pcg", stalled_cg)
    with pytest.raises(ReducedSolveError, match="reduced residual 3.000e-04"):
        solve_optimality_system(ops, no_active(ops, "full"), data)
    assert issubclass(ReducedSolveError, SingularSystemError)


def test_condensed_solution_satisfies_coupled_system(ex2_ops_128):
    data, ops = ex2_ops_128
    active = no_active(ops, "full")
    parts = solve_optimality_system(ops, active, data, mode="full",
                                    strategy="condensed")
    system = compose_kkt(ops, active, data, mode="full")
    x = np.concatenate([parts[k] for k in ("q", "y", "p", "z", "u")])
    res = np.linalg.norm(system.matrix @ x - system.rhs)
    assert res / np.linalg.norm(system.rhs) < 1e-10


def test_condensed_reduced_dimension(ex1_ops):
    case, ops = ex1_ops
    full = compose_kkt(ops, no_active(ops, "full"), ops.data, mode="full")
    red = condense_kkt(ops, no_active(ops, "full"), ops.data, mode="full")
    nV = ops.M_Omega.shape[0]
    n_u = ops.M_Gamma.shape[0]
    assert red.dimension == 2 * nV + n_u
    assert full.dimension == red.dimension + 2 * ops.A.shape[0]


def test_active_mask_validation(ex1_ops):
    case, ops = ex1_ops
    data = ops.data
    n_u = ops.M_Gamma.shape[0]
    with pytest.raises(ValueError):
        compose_kkt(ops, (np.zeros(n_u - 1, bool), np.zeros(n_u, bool)), data)
    both = np.ones(n_u, bool)
    with pytest.raises(ValueError):
        compose_kkt(ops, (both, both),
                    case.problem_data(u_lower=0.0, u_upper=1.0))
    with pytest.raises(ValueError):
        # marking DOFs active at an unbounded side is inconsistent
        compose_kkt(ops, (both, np.zeros(n_u, bool)), data)


def test_unknown_mode_and_strategy_raise(ex1_ops):
    case, ops = ex1_ops
    active = no_active(ops, "full")
    with pytest.raises(ValueError):
        compose_kkt(ops, active, ops.data, mode="hybrid")
    with pytest.raises(ValueError):
        solve_optimality_system(ops, active, ops.data, strategy="iterative")


def test_block_system_split_covers_all_rows(ex1_ops):
    case, ops = ex1_ops
    system = compose_kkt(ops, no_active(ops, "full"), ops.data, mode="full")
    x = np.arange(float(system.dimension))
    parts = system.split(x)
    assert sorted(parts) == ["p", "q", "u", "y", "z"]
    assert sum(v.size for v in parts.values()) == system.dimension
