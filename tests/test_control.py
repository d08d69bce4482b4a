"""Tests of the control-space utilities and the active-set solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldgcontrol import control
from ldgcontrol.analysis import (
    error_l2_boundary,
    example2_data,
    manufactured_example1,
)
from ldgcontrol.control import (
    PdasNonconvergence,
    _initial_control,
    evaluate_cost,
    fd_gradient_check,
    pdas_solve,
    project_admissible,
    quasi_interpolate,
    reduced_gradient,
)
from ldgcontrol.geometry import build_unit_square_mesh
from ldgcontrol.ldg import ProblemData, assemble_forms, solve_adjoint, solve_state
from ldgcontrol.linsolve import solve_optimality_system
from ldgcontrol.spaces import DiscreteField, DofMap, build_spaces


def build_ops(data, n):
    mesh = build_unit_square_mesh(n)
    return assemble_forms(mesh, build_spaces(mesh), data)


@pytest.fixture(scope="module")
def ex1():
    case = manufactured_example1()
    return case, build_ops(case.problem_data(), 4)


@pytest.fixture(scope="module")
def ex2():
    data = example2_data()
    return data, build_ops(data, 8)


# ------------------------------------------------------------- projection


def test_project_admissible_examples():
    out = project_admissible(np.array([-1.0, 0.1, 7.0]), 0.0, 0.2)
    assert np.allclose(out, [0.0, 0.1, 0.2])
    assert project_admissible(0.35, 0.0, 0.2) == pytest.approx(0.2)


def test_project_admissible_unbounded_is_identity():
    x = np.array([-5.0, 0.0, 3.0])
    assert np.array_equal(project_admissible(x, -np.inf, np.inf), x)


def test_project_admissible_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        project_admissible(np.zeros(3), 1.0, 0.0)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
       st.floats(-10.0, 0.0), st.floats(0.0, 10.0))
@settings(max_examples=50, deadline=None)
def test_project_admissible_idempotent_and_bounded(vals, lo, hi):
    x = np.array(vals)
    once = project_admissible(x, lo, hi)
    assert np.all(once >= lo) and np.all(once <= hi)
    assert np.array_equal(project_admissible(once, lo, hi), once)


# ------------------------------------------------- boundary interpolation


def _arclength_sine(x):
    # smooth and periodic in arclength along the unit-square boundary
    x1, x2 = x
    if abs(x2) < 1e-12:
        s = x1
    elif abs(x1 - 1.0) < 1e-12:
        s = 1.0 + x2
    elif abs(x2 - 1.0) < 1e-12:
        s = 3.0 - x1
    else:
        s = 4.0 - x2
    return np.sin(0.5 * np.pi * s)


def test_quasi_interpolate_reproduces_constants():
    mesh = build_unit_square_mesh(4)
    field = quasi_interpolate(lambda x: 2.5, mesh)
    assert np.abs(field.coefficients - 2.5).max() < 1e-13


def test_quasi_interpolate_preserves_bounds():
    mesh = build_unit_square_mesh(6)
    fun = lambda x: np.clip(10.0 * (x[0] - 0.5), -1.0, 1.0)
    field = quasi_interpolate(fun, mesh)
    assert field.coefficients.min() >= -1.0 - 1e-12
    assert field.coefficients.max() <= 1.0 + 1e-12


def test_quasi_interpolate_averaging_rate():
    # nodal averaging of a boundary-smooth function converges at second
    # order in the boundary L2 norm, like nodal interpolation would
    errs = []
    for n in (4, 8, 16, 32):
        mesh = build_unit_square_mesh(n)
        field = quasi_interpolate(_arclength_sine, mesh)
        errs.append(error_l2_boundary(field, _arclength_sine, mesh=mesh))
    rates = [np.log(errs[i] / errs[i + 1]) / np.log(2.0) for i in range(3)]
    assert rates[-1] == pytest.approx(2.0, abs=0.3)


# ------------------------------------------------------------------ cost


def test_cost_zero_when_target_met():
    data = ProblemData(epsilon=1.0, omega=1.0, beta=(1.0, 1.0), alpha=1.0,
                       y_desired=lambda x: 1.0)
    mesh = build_unit_square_mesh(3)
    spaces = build_spaces(mesh)
    y_h = DiscreteField(spaces.potential, np.ones(spaces.potential.num_dofs))
    u_h = DiscreteField(spaces.control, np.zeros(spaces.control.num_dofs))
    assert evaluate_cost(y_h, u_h, data) == pytest.approx(0.0, abs=1e-14)


def test_cost_unit_mismatch_is_half():
    data = ProblemData(epsilon=1.0, omega=1.0, beta=(1.0, 1.0), alpha=1.0,
                       y_desired=lambda x: 0.0)
    mesh = build_unit_square_mesh(3)
    spaces = build_spaces(mesh)
    y_h = DiscreteField(spaces.potential, np.ones(spaces.potential.num_dofs))
    u_h = DiscreteField(spaces.control, np.zeros(spaces.control.num_dofs))
    assert evaluate_cost(y_h, u_h, data) == pytest.approx(0.5, rel=1e-12)


def test_cost_boundary_term_scales_with_weight():
    # unit control on the whole boundary of the unit square: perimeter 4,
    # so with weight 2 the penalty contributes (2/2) * 4
    data = ProblemData(epsilon=1.0, omega=2.0, beta=(1.0, 1.0), alpha=1.0,
                       y_desired=lambda x: 1.0)
    mesh = build_unit_square_mesh(3)
    spaces = build_spaces(mesh)
    y_h = DiscreteField(spaces.potential, np.ones(spaces.potential.num_dofs))
    u_h = DiscreteField(spaces.control, np.ones(spaces.control.num_dofs))
    assert evaluate_cost(y_h, u_h, data) == pytest.approx(4.0, rel=1e-12)


# -------------------------------------------------------------- gradient


def test_fd_gradient_check_matches(ex1):
    case, ops = ex1
    rng = np.random.default_rng(3)
    n_u = ops.M_Gamma.shape[0]
    for _ in range(3):
        delta = rng.standard_normal(n_u)
        report = fd_gradient_check(ops, ops.data, np.zeros(n_u), delta)
        assert report.mismatch <= 1e-7


def test_adjoint_directional_value_is_linear(ex1):
    case, ops = ex1
    rng = np.random.default_rng(11)
    n_u = ops.M_Gamma.shape[0]
    u = rng.standard_normal(n_u)
    d1 = rng.standard_normal(n_u)
    d2 = rng.standard_normal(n_u)
    r1 = fd_gradient_check(ops, ops.data, u, d1)
    r2 = fd_gradient_check(ops, ops.data, u, d2)
    r12 = fd_gradient_check(ops, ops.data, u, 2.0 * d1 - 3.0 * d2)
    combined = 2.0 * r1.adjoint_value - 3.0 * r2.adjoint_value
    scale = max(1.0, abs(combined))
    assert abs(r12.adjoint_value - combined) < 1e-12 * scale


def test_gradient_duality_identity(ex1):
    # <g(u), du> must equal (y(u) - y_d, dy(du)) + omega <u, du> where
    # dy is the control-to-state map with the source switched off; the
    # linearized state is obtained exactly as a difference of two solves
    case, ops = ex1
    data = ops.data
    dofmap = DofMap(ops.mesh, "boundary-edge")
    rng = np.random.default_rng(5)
    n_u = ops.M_Gamma.shape[0]
    u = rng.standard_normal(n_u)
    y_u, _ = solve_state(ops, DiscreteField(dofmap, u))
    adj_load = ops.M_Omega @ y_u.coefficients - ops.Yd
    z, p = solve_adjoint(ops, load_vector=adj_load)
    g = (data.omega * (ops.M_Gamma @ u)
         + ops.M1.T @ p.coefficients + ops.M2.T @ z.coefficients)
    for _ in range(5):
        du = rng.standard_normal(n_u)
        y_du, _ = solve_state(ops, DiscreteField(dofmap, u + du))
        dy = y_du.coefficients - y_u.coefficients
        rhs = dy @ adj_load + data.omega * (du @ (ops.M_Gamma @ u))
        scale = max(1.0, abs(rhs))
        assert abs(g @ du - rhs) < 1e-9 * scale


def test_reduced_gradient_vanishes_unconstrained(ex1):
    case, ops = ex1
    sol = pdas_solve(ops, ops.data, mode="full")
    grad = reduced_gradient(ops, sol)
    scale = max(1.0, np.abs(sol.u.coefficients).max())
    assert np.abs(grad.dof_gradient).max() < 1e-9 * scale
    assert np.abs(grad.nodal).max() < 1e-8 * scale
    assert np.abs(grad.at_quadrature).max() < 1e-8 * scale


# ------------------------------------------------------------ active set


def test_initial_control_choices():
    kw = dict(epsilon=1.0, omega=1.0, beta=(1.0, 1.0), alpha=1.0)
    assert _initial_control(ProblemData(u_lower=0.0, u_upper=0.2, **kw), 4)[0] == 0.1
    assert _initial_control(ProblemData(u_lower=0.5, **kw), 4)[0] == 0.5
    assert _initial_control(ProblemData(u_upper=-2.0, **kw), 4)[0] == -2.0
    assert _initial_control(ProblemData(**kw), 4)[0] == 0.0


def test_pdas_unconstrained_single_iteration(ex1):
    case, ops = ex1
    sol = pdas_solve(ops, ops.data, mode="full")
    assert sol.converged and sol.iterations == 1
    assert not sol.active.lower.any() and not sol.active.upper.any()


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_pdas_constrained_converges_and_respects_bounds(mode, ex2):
    data, ops = ex2
    sol = pdas_solve(ops, data, mode=mode)
    assert sol.converged and sol.iterations <= 10
    values = sol.u.coefficients if mode == "full" else sol.u
    assert values.min() >= data.u_lower - 1e-10
    assert values.max() <= data.u_upper + 1e-10
    assert sol.active.upper.any()   # the bound genuinely binds here


def test_pdas_complementarity_signs(ex2):
    data, ops = ex2
    sol = pdas_solve(ops, data, mode="full")
    grad = reduced_gradient(ops, sol)
    lam = grad.nodal
    scale = max(1.0, np.abs(lam).max())
    inactive = sol.active.inactive
    assert np.abs(lam[inactive]).max() < 1e-8 * scale
    if sol.active.upper.any():
        # at the upper bound the unconstrained update would increase u
        assert lam[sol.active.upper].max() < 1e-8 * scale
    if sol.active.lower.any():
        assert lam[sol.active.lower].min() > -1e-8 * scale


def test_pdas_cost_not_worse_than_zero_control(ex2):
    data, ops = ex2
    sol = pdas_solve(ops, data, mode="full")
    n_u = ops.M_Gamma.shape[0]
    zero = DiscreteField(DofMap(ops.mesh, "boundary-edge"), np.zeros(n_u))
    y0, _ = solve_state(ops, zero)
    assert sol.cost <= evaluate_cost(y0, zero, data) + 1e-12


def test_pdas_iteration_cap_raises(ex2):
    data, ops = ex2
    with pytest.raises(PdasNonconvergence):
        pdas_solve(ops, data, mode="full", max_iter=1)


def test_pdas_cycle_raises(ex2, monkeypatch):
    # A solver that answers the active sets of steps 1 and 2 alternately
    # sends the iteration back to the sets after step 1: a cycle of length 2.
    data, ops = ex2
    sol = pdas_solve(ops, data, mode="full")
    assert sol.iterations == 3
    n_u = ops.M_Gamma.shape[0]
    first = solve_optimality_system(ops, (np.zeros(n_u, bool), np.zeros(n_u, bool)), data)
    last = solve_optimality_system(ops, (sol.active.lower, sol.active.upper), data)
    answers = iter([first, last] * 10)
    monkeypatch.setattr(control, "solve_optimality_system",
                        lambda *args, **kwargs: next(answers))
    with pytest.raises(PdasNonconvergence, match="cycling"):
        pdas_solve(ops, data, mode="full", max_iter=10)


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_pdas_log_has_one_step_per_iteration(mode, ex2):
    data, ops = ex2
    sol = pdas_solve(ops, data, mode=mode)
    assert len(sol.log) == sol.iterations > 1
    n = ops.M_Gamma.shape[0] if mode == "full" else ops.bq.num_points
    assert all(s.lower + s.upper + s.inactive == n for s in sol.log)
    assert all(s.cg_iterations > 0 and s.cg_residual <= 1e-12 for s in sol.log)
    final = sol.log[-1]
    assert (final.lower, final.upper) == (sol.active.lower.sum(), sol.active.upper.sum())
    direct = pdas_solve(ops, data, mode=mode, strategy="condensed")
    assert [s.cg_iterations for s in direct.log] == [0] * direct.iterations


def test_modes_agree_without_constraints(ex1):
    # with no bounds the two control discretizations solve the same
    # linear system up to the change of unknowns
    case, ops = ex1
    full = pdas_solve(ops, ops.data, mode="full")
    vari = pdas_solve(ops, ops.data, mode="variational")
    u_full_qp = full.control_at_quadrature()
    u_vari_qp = vari.control_at_quadrature()
    assert np.abs(u_full_qp - u_vari_qp).max() < 1e-8
    assert np.abs(full.y.coefficients - vari.y.coefficients).max() < 1e-8


def test_control_at_quadrature_matches_tables(ex2):
    data, ops = ex2
    sol = pdas_solve(ops, data, mode="full")
    direct = ops.bq.E_U @ sol.u.coefficients
    assert np.array_equal(sol.control_at_quadrature(), direct)


def test_variational_control_evaluation_stays_admissible(ex2):
    data, ops = ex2
    sol = pdas_solve(ops, data, mode="variational")
    for e in ops.mesh.boundary_edges[::3]:
        for s in (0.1, 0.5, 0.9):
            val = sol.control_on_edge(int(e), s)
            assert data.u_lower - 1e-12 <= val <= data.u_upper + 1e-12
