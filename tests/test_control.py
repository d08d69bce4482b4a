"""Tests of the control-space utilities and the active-set solver."""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldgcontrol import control
from ldgcontrol.analysis import (
    error_l2_boundary,
    example2_data,
    example3_mesh,
    manufactured_example1,
)
from ldgcontrol.control import (
    PdasNonconvergence,
    _initial_control,
    evaluate_cost,
    fd_gradient_check,
    pdas_solve,
    project_admissible,
    reduced_gradient,
)
from ldgcontrol.geometry import build_unit_square_mesh, refine_uniform
from ldgcontrol.ldg import ProblemData, assemble_forms
from ldgcontrol.linsolve import solve_state
from ldgcontrol.linsolve import solve_optimality_system
from ldgcontrol.spaces import FORM_DEGREE, DiscreteField, DofMap, SpaceSet, quadrature_rule
from oracles import quasi_interpolate, solve_adjoint


def build_ops(data, n):
    mesh = build_unit_square_mesh(n)
    return assemble_forms(mesh, data)


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
    x1, x2 = x[..., 0], x[..., 1]
    s = np.select([np.abs(x2) < 1e-12, np.abs(x1 - 1.0) < 1e-12, np.abs(x2 - 1.0) < 1e-12],
                  [x1, 1.0 + x2, 3.0 - x1], 4.0 - x2)
    return np.sin(0.5 * np.pi * s)


def test_quasi_interpolate_reproduces_constants():
    mesh = build_unit_square_mesh(4)
    field = quasi_interpolate(lambda x: np.full(x.shape[:-1], 2.5), mesh)
    assert np.abs(field.coefficients - 2.5).max() < 1e-13


def test_quasi_interpolate_preserves_bounds():
    mesh = build_unit_square_mesh(6)
    fun = lambda x: np.clip(10.0 * (x[..., 0] - 0.5), -1.0, 1.0)
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
                       y_desired=lambda x: np.ones(x.shape[:-1]))
    mesh = build_unit_square_mesh(3)
    spaces = SpaceSet(mesh)
    y_h = DiscreteField(spaces.potential, np.ones(spaces.potential.num_dofs))
    u_h = DiscreteField(spaces.control, np.zeros(spaces.control.num_dofs))
    assert evaluate_cost(y_h, u_h, data) == pytest.approx(0.0, abs=1e-14)


def test_cost_unit_mismatch_is_half():
    data = ProblemData(epsilon=1.0, omega=1.0, beta=(1.0, 1.0), alpha=1.0,
                       y_desired=lambda x: np.zeros(x.shape[:-1]))
    mesh = build_unit_square_mesh(3)
    spaces = SpaceSet(mesh)
    y_h = DiscreteField(spaces.potential, np.ones(spaces.potential.num_dofs))
    u_h = DiscreteField(spaces.control, np.zeros(spaces.control.num_dofs))
    assert evaluate_cost(y_h, u_h, data) == pytest.approx(0.5, rel=1e-12)


def test_cost_boundary_term_scales_with_weight():
    # unit control on the whole boundary of the unit square: perimeter 4,
    # so with weight 2 the penalty contributes (2/2) * 4
    data = ProblemData(epsilon=1.0, omega=2.0, beta=(1.0, 1.0), alpha=1.0,
                       y_desired=lambda x: np.ones(x.shape[:-1]))
    mesh = build_unit_square_mesh(3)
    spaces = SpaceSet(mesh)
    y_h = DiscreteField(spaces.potential, np.ones(spaces.potential.num_dofs))
    u_h = DiscreteField(spaces.control, np.ones(spaces.control.num_dofs))
    assert evaluate_cost(y_h, u_h, data) == pytest.approx(4.0, rel=1e-12)


def test_cost_rejects_a_control_from_another_mesh():
    # both meshes have 16 boundary edges, so the coefficient counts agree
    data = example2_data()
    y_h = DiscreteField(SpaceSet(build_unit_square_mesh(4)).potential)
    control = SpaceSet(example3_mesh(2, "diag2")).control
    u_h = DiscreteField(control, np.ones(control.num_dofs))
    assert u_h.coefficients.size == 2 * len(y_h.dofmap.mesh.boundary_edges)
    with pytest.raises(ValueError, match="another mesh"):
        evaluate_cost(y_h, u_h, data)


# -------------------------------------------------------------- gradient


def test_fd_gradient_check_matches(ex1):
    case, ops = ex1
    rng = np.random.default_rng(3)
    n_u = ops.M_Gamma.shape[0]
    for _ in range(3):
        delta = rng.standard_normal(n_u)
        report = fd_gradient_check(ops, np.zeros(n_u), delta)
        assert report.mismatch <= 1e-7


def test_adjoint_directional_value_is_linear(ex1):
    case, ops = ex1
    rng = np.random.default_rng(11)
    n_u = ops.M_Gamma.shape[0]
    u = rng.standard_normal(n_u)
    d1 = rng.standard_normal(n_u)
    d2 = rng.standard_normal(n_u)
    r1 = fd_gradient_check(ops, u, d1)
    r2 = fd_gradient_check(ops, u, d2)
    r12 = fd_gradient_check(ops, u, 2.0 * d1 - 3.0 * d2)
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
    with pytest.raises(PdasNonconvergence,
                       match=r"^active sets cycling: step 3 returned to the sets of step 1$"):
        pdas_solve(ops, data, mode="full", max_iter=10)


def test_pdas_unknown_mode_raises_before_solving(ex2, monkeypatch):
    data, ops = ex2

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran for an unknown mode")

    monkeypatch.setattr(control, "solve_optimality_system", no_solve)
    with pytest.raises(ValueError, match="unknown control mode 'bogus'"):
        pdas_solve(ops, data, mode="bogus")


@pytest.mark.parametrize("max_iter", [0, -1])
def test_pdas_iteration_cap_below_one_raises_before_solving(max_iter, ex2, monkeypatch):
    data, ops = ex2

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran without an iteration to run it in")

    monkeypatch.setattr(control, "solve_optimality_system", no_solve)
    with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
        pdas_solve(ops, data, max_iter=max_iter)


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_pdas_active_sets_are_a_fixed_point(mode, ex2):
    # the PDAS test -lambda + omega (u - bound), applied to the returned
    # control and the multiplier of reduced_gradient, marks the returned sets
    data, ops = ex2
    sol = pdas_solve(ops, data, mode=mode)
    grad = reduced_gradient(ops, sol)
    if mode == "full":
        u, lam = sol.u.coefficients, grad.nodal
    else:
        u, lam = np.asarray(sol.u), grad.at_quadrature
    lower = np.isfinite(data.u_lower) & (-lam + data.omega * (u - data.u_lower) < 0.0)
    upper = np.isfinite(data.u_upper) & (-lam + data.omega * (u - data.u_upper) > 0.0)
    assert upper.any()
    assert np.array_equal(lower, sol.active.lower)
    assert np.array_equal(upper, sol.active.upper)


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


def rotating_beta(x):
    return np.stack([0.5 - x[..., 1], x[..., 0] - 0.5], axis=-1)


@pytest.mark.parametrize("epsilon, beta", [
    pytest.param(1.0, None, id="1.0"),
    pytest.param(1e-2, None, id="0.01"),
    # beta.n, and so kappa, varies along the edges and changes sign around
    # the boundary
    pytest.param(1.0, rotating_beta, id="1.0-rotating"),
])
def test_variational_control_on_edge_is_the_stored_control(epsilon, beta):
    # the pointwise projection formula, evaluated at the boundary quadrature
    # points, gives back the control the solver stored there
    data = example2_data(epsilon)
    if beta is not None:
        data = dataclasses.replace(data, beta=beta)
    ops = build_ops(data, 4)
    sol = pdas_solve(ops, data, mode="variational")
    s = quadrature_rule("edge", FORM_DEGREE).points
    vals = sol.control_on_edge(ops.mesh.boundary_edges[:, None], s).ravel()
    assert np.abs(vals - sol.u).max() <= 1e-12 * np.abs(sol.u).max()


# ------------------------------------------------------- nested start


@pytest.fixture(scope="module")
def ex2_chain():
    # 32 -> 128 -> 512 elements on one refinement chain
    data = example2_data()
    meshes = [build_unit_square_mesh(4)]
    for _ in range(2):
        meshes.append(refine_uniform(meshes[-1]))
    return data, [assemble_forms(m, data) for m in meshes]


def _coarse_edge_of(coarse, a, b):
    """Coarse boundary edge holding the segment a-b, and the parameters of
    a and b along it, found edge by edge."""
    for c in coarse.boundary_edges:
        p, q = coarse.vertices[coarse.edges[c]]
        t = q - p
        s = [float(np.dot(x - p, t) / np.dot(t, t)) for x in (a, b)]
        off = [abs(t[0] * (x - p)[1] - t[1] * (x - p)[0]) for x in (a, b)]
        if max(off) < 1e-12 and -1e-12 <= min(s) and max(s) <= 1 + 1e-12:
            return int(c), s
    raise AssertionError("fine boundary edge off the coarse boundary")


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_prolonged_start_is_the_coarse_control(mode, ex2_chain):
    # every fine control unknown is the coarse control at its coarse edge
    # and parameter: edge ends (full) or edge quadrature points (variational)
    data, (ops_c, _, ops_f) = ex2_chain
    coarse = pdas_solve(ops_c, data, mode=mode)
    u, _ = control._prolonged_start(ops_f, data, mode, coarse)
    fine = ops_f.mesh
    t = [0.0, 1.0] if mode == "full" else quadrature_rule("edge", FORM_DEGREE).points
    values = u.reshape(len(fine.boundary_edges), len(t))
    for e, row in zip(fine.boundary_edges, values):
        a, b = fine.vertices[fine.edges[e]]
        c, (s0, s1) = _coarse_edge_of(ops_c.mesh, a, b)
        expected = coarse.control_on_edge(c, s0 + np.asarray(t) * (s1 - s0))
        assert np.abs(row - expected).max() <= 1e-14


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_released_solution_starts_the_next_level_unchanged(mode):
    # the start reads the multiplier stored on the solution, so once its
    # level's operators are gone it gives the same control and multiplier,
    # bit for bit
    data = example2_data()
    coarse = build_unit_square_mesh(4)
    ops_c, ops_f = (assemble_forms(mesh, data) for mesh in (coarse, refine_uniform(coarse)))
    sol = pdas_solve(ops_c, data, mode=mode)
    assert sol.active.upper.any()
    grad = reduced_gradient(ops_c, sol)
    assert np.array_equal(sol.multiplier, grad.nodal if mode == "full" else grad.at_quadrature)
    kept = control._prolonged_start(ops_f, data, mode, sol)
    level = weakref.ref(ops_c)
    del ops_c
    assert level() is None
    released = control._prolonged_start(ops_f, data, mode, sol)
    for a, b in zip(kept, released):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_nested_start_matches_cold_start(mode, ex2_chain):
    data, chain = ex2_chain
    warm = pdas_solve(chain[0], data, mode=mode)
    for ops in chain[1:]:
        cold = pdas_solve(ops, data, mode=mode)
        warm = pdas_solve(ops, data, mode=mode, u0=warm)
        assert warm.converged and warm.iterations <= cold.iterations
        for a, b in ((cold.control_at_quadrature(), warm.control_at_quadrature()),
                     (cold.y.coefficients, warm.y.coefficients),
                     (cold.z.coefficients, warm.z.coefficients)):
            assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()
    assert warm.iterations < cold.iterations  # 2 against 3 at 512 elements


def test_start_validation(ex2_chain):
    data, (ops_c, ops_m, ops_f) = ex2_chain
    short = DiscreteField(DofMap(ops_c.mesh, "boundary-edge"), np.zeros(ops_c.M_Gamma.shape[0]))
    with pytest.raises(ValueError, match="wrong length"):
        pdas_solve(ops_f, data, u0=short)
    with pytest.raises(ValueError, match="full-mode solution cannot start a variational"):
        pdas_solve(ops_f, data, mode="variational", u0=pdas_solve(ops_c, data))
    # a finer solution, and one on a mesh off the chain, are no ancestors
    for start in (pdas_solve(ops_f, data), pdas_solve(build_ops(data, 8), data)):
        with pytest.raises(ValueError, match="ancestor"):
            pdas_solve(ops_m, data, u0=start)


def test_a_non_finite_start_or_control_is_bad_input(ex2_chain):
    # a NaN in a vector or field start, or in a control of solve_state, is
    # reported as bad input naming the argument, before any solve
    data, (ops, _, _) = ex2_chain
    n = ops.M_Gamma.shape[0]
    one_nan = np.zeros(n)
    one_nan[3] = np.nan
    field = DiscreteField(ops.spaces.control, np.full(n, np.inf))
    for mode, start in (("full", np.full(n, np.nan)), ("full", one_nan), ("full", field),
                        ("variational", np.full(ops.bq.num_points, np.nan))):
        with pytest.raises(ValueError, match="u0 has non-finite"):
            pdas_solve(ops, data, mode=mode, u0=start)
    pointwise = np.zeros(ops.bq.num_points)
    pointwise[-1] = np.nan
    for u in (pointwise, DiscreteField(ops.spaces.control, one_nan)):
        with pytest.raises(ValueError, match="control u has non-finite"):
            solve_state(ops, u)
