"""Tests of the LDG form assembly and the state/adjoint solvers."""

import numpy as np
import pytest

from ldgcontrol.geometry import Mesh, as_vector_function, build_unit_square_mesh
from ldgcontrol.ldg import (
    ProblemData,
    assemble_divergence_form_b,
    assemble_forms,
    compute_flux_parameters,
    solve_adjoint,
    solve_state,
)
from ldgcontrol.spaces import DiscreteField, build_spaces, l2_project


def make_ops(n=3, epsilon=1.0, penalty_sign=+1, beta=(1.0, 1.0), alpha=1.0, **kw):
    mesh = build_unit_square_mesh(n)
    spaces = build_spaces(mesh)
    data = ProblemData(epsilon=epsilon, omega=1.0, beta=beta, alpha=alpha,
                       penalty_sign=penalty_sign, **kw)
    flux = compute_flux_parameters(mesh, data)
    return mesh, spaces, data, flux, assemble_forms(mesh, spaces, data, flux)


@pytest.mark.parametrize("penalty_sign", [+1, -1])
@pytest.mark.parametrize("epsilon", [1.0, 1e-3])
def test_flux_coupling_two_shapes_agree(penalty_sign, epsilon):
    # integrating the volume term by parts and restructuring the traces
    # must not change the assembled matrix, boundary columns included
    mesh, spaces, data, flux, ops = make_ops(3, epsilon, penalty_sign)
    B_div = assemble_divergence_form_b(mesh, spaces, data, flux)
    diff = (ops.B - B_div).toarray()
    assert np.abs(diff).max() < 1e-12 * max(1.0, np.abs(ops.B.toarray()).max())


def test_vector_mass_total_and_spd():
    mesh, spaces, data, flux, ops = make_ops(2)
    ones = np.ones(spaces.flux.num_dofs)
    # sum of all entries = integral of (1,1).(1,1) = 2 |domain|
    assert ones @ (ops.A @ ones) == pytest.approx(2.0, rel=1e-13)
    eigs = np.linalg.eigvalsh(ops.A.toarray())
    assert eigs.min() > 0.0


def test_scalar_mass_total():
    mesh, spaces, data, flux, ops = make_ops(3)
    ones = np.ones(spaces.potential.num_dofs)
    assert ones @ (ops.M_Omega @ ones) == pytest.approx(1.0, rel=1e-13)


def test_boundary_mass_total():
    mesh, spaces, data, flux, ops = make_ops(4)
    ones = np.ones(spaces.control.num_dofs)
    assert ones @ (ops.M_Gamma @ ones) == pytest.approx(4.0, rel=1e-13)


def test_reaction_block_is_scalar_mass():
    # with the reaction coefficient switched on, the volume part of the
    # convection-reaction block grows by exactly the scalar mass matrix
    mesh = build_unit_square_mesh(2)
    spaces = build_spaces(mesh)
    kw = dict(epsilon=1.0, omega=1.0, beta=(0.0, 0.0))
    ops0 = assemble_forms(mesh, spaces, ProblemData(alpha=0.0, **kw))
    ops1 = assemble_forms(mesh, spaces, ProblemData(alpha=1.0, **kw))
    diff = (ops1.C - ops0.C).toarray()
    assert np.abs(diff - ops0.M_Omega.toarray()).max() < 1e-13


def test_penalty_block_symmetric_positive():
    # no convection, no reaction: the block is pure jump/boundary penalty
    mesh = build_unit_square_mesh(2)
    spaces = build_spaces(mesh)
    ops = assemble_forms(mesh, spaces, ProblemData(
        epsilon=1.0, omega=1.0, beta=(0.0, 0.0), alpha=0.0, penalty_sign=+1))
    C = ops.C.toarray()
    assert np.abs(C - C.T).max() < 1e-13
    eigs = np.linalg.eigvalsh(C)
    assert eigs.min() > -1e-12  # penalty only sees jumps: semidefinite


@pytest.mark.parametrize("penalty_sign", [+1, -1])
def test_boundary_multiplier_weight_values(penalty_sign):
    # unit square, n = 4: boundary edge length 1/4, so eps/h = 4; with
    # beta = (1, 1) the bottom and left edges are inflow (|beta.n| = 1)
    mesh = build_unit_square_mesh(4)
    data = ProblemData(epsilon=1.0, omega=1.0, beta=(1.0, 1.0),
                       penalty_sign=penalty_sign)
    flux = compute_flux_parameters(mesh, data)
    for e in mesh.boundary_edges:
        mid = mesh.edge_midpoints([e])[0]
        expected = penalty_sign * 4.0
        if np.isclose(mid[1], 0.0) or np.isclose(mid[0], 0.0):
            expected += 1.0
        assert flux.kappa_z[e] == pytest.approx(expected, abs=1e-14)


def test_trace_switch_tie_convention():
    # auxiliary direction orthogonal to a vertical-edge normal: the switch
    # must resolve the tie to +1/2 by default, or to the configured value
    mesh = build_unit_square_mesh(2)
    data = ProblemData(epsilon=1.0, omega=1.0, c12_direction=(0.0, 1.0))
    flux = compute_flux_parameters(mesh, data)
    central = compute_flux_parameters(
        mesh, ProblemData(epsilon=1.0, omega=1.0, c12_direction=(0.0, 1.0), c12_tie=0.0))
    saw_tie = False
    for e in range(mesh.num_edges):
        n0 = mesh.edge_normals[e, 0]
        if abs(n0[1]) < 1e-14:  # vertical edge, n = (+-1, 0)
            saw_tie = True
            assert flux.c12n[e] == 0.5
            assert central.c12n[e] == 0.0
    assert saw_tie


def test_source_load_total():
    mesh, spaces, data, flux, ops = make_ops(3, f=1.0)
    assert ops.F.sum() == pytest.approx(1.0, rel=1e-13)


def rotating_beta(x):
    return np.array([0.5 - x[1], x[0] - 0.5])


@pytest.mark.parametrize("penalty_sign", [+1, -1])
@pytest.mark.parametrize("n, beta", [
    pytest.param(2, (1.0, 1.0), id="2"),
    pytest.param(4, (1.0, 1.0), id="4"),
    # divergence free, beta.n varies along edges and changes sign around the
    # boundary (with even n no single boundary edge changes flow direction)
    pytest.param(2, rotating_beta, id="2-rotating"),
    pytest.param(4, rotating_beta, id="4-rotating"),
])
def test_state_solver_reproduces_global_linear(penalty_sign, n, beta):
    # a globally linear state with matching flux, control trace and source
    # satisfies the scheme exactly, whatever the penalty sign
    eps = 0.3
    beta_at = as_vector_function(beta)
    alpha = 1.0

    def y_exact(x):
        return 1.0 + 2.0 * x[0] - 3.0 * x[1]

    grad_y = np.array([2.0, -3.0])

    def f(x):
        return float(beta_at(x) @ grad_y) + alpha * y_exact(x)

    mesh = build_unit_square_mesh(n)
    spaces = build_spaces(mesh)
    data = ProblemData(epsilon=eps, omega=1.0, beta=beta, alpha=alpha, f=f,
                       penalty_sign=penalty_sign)
    ops = assemble_forms(mesh, spaces, data)
    u = l2_project(y_exact, spaces.control, mesh)
    y_h, q_h = solve_state(ops, u, data)

    y_nodal = np.array([y_exact(v) for t in mesh.triangles for v in mesh.vertices[t]])
    assert np.abs(y_h.coefficients - y_nodal).max() < 1e-10
    q_const = -np.sqrt(eps) * grad_y
    q_nodal = np.tile(q_const, 3 * mesh.num_elements)
    assert np.abs(q_h.coefficients - q_nodal).max() < 1e-10


def test_penalty_scaling_with_diffusion():
    # quadrupling the diffusion parameter scales eps/h by 4 and the
    # control-to-flux coupling by sqrt(4) = 2, exactly in floating point
    mesh = build_unit_square_mesh(3)
    spaces = build_spaces(mesh)
    kw = dict(omega=1.0, beta=(1.0, 1.0), alpha=1.0)
    ops1 = assemble_forms(mesh, spaces, ProblemData(epsilon=1.0, **kw))
    ops4 = assemble_forms(mesh, spaces, ProblemData(epsilon=4.0, **kw))
    flux1 = compute_flux_parameters(mesh, ProblemData(epsilon=1.0, **kw))
    flux4 = compute_flux_parameters(mesh, ProblemData(epsilon=4.0, **kw))
    np.testing.assert_array_equal(flux4.c11, 4.0 * flux1.c11)
    np.testing.assert_array_equal(ops4.M1.toarray(), 2.0 * ops1.M1.toarray())


def test_adjoint_transpose_duality():
    # the control-to-observation map and its adjoint must give identical
    # pairings: (u, adjoint rhs applied to g) = (g, state of u) in the
    # domain inner product
    rng = np.random.default_rng(7)
    mesh, spaces, data, flux, ops = make_ops(3, epsilon=0.5)
    for _ in range(5):
        u = DiscreteField(spaces.control, rng.standard_normal(spaces.control.num_dofs))
        g = rng.standard_normal(spaces.potential.num_dofs)
        y_h, _ = solve_state(ops, u, data)
        z_h, p_h = solve_adjoint(ops, load_vector=ops.M_Omega @ g)
        lhs = u.coefficients @ (ops.M1.T @ p_h.coefficients + ops.M2.T @ z_h.coefficients)
        rhs = g @ (ops.M_Omega @ y_h.coefficients)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) < 1e-11 * scale


@pytest.mark.parametrize("penalty_sign", [+1, -1])
def test_eliminated_solves_match_forward_block_matrix(penalty_sign):
    # the state and adjoint solves work on S = C + B' A^-1 B; solving the
    # unreduced forward matrix [[A, B], [-B', C]] directly must agree
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(11)
    mesh, spaces, data, flux, ops = make_ops(4, epsilon=0.5, penalty_sign=penalty_sign)
    K = sp.bmat([[ops.A, ops.B], [-ops.B.T, ops.C]], format="csc")
    nW = spaces.flux.num_dofs
    u = DiscreteField(spaces.control, rng.standard_normal(spaces.control.num_dofs))
    g = rng.standard_normal(spaces.potential.num_dofs)

    y_h, q_h = solve_state(ops, u, data)
    x = spla.spsolve(K, np.concatenate([ops.M1 @ u.coefficients,
                                        ops.F + ops.M2 @ u.coefficients]))
    z_h, p_h = solve_adjoint(ops, load_vector=g)
    w = spla.spsolve(K.T.tocsc(), np.concatenate([np.zeros(nW), g]))
    for computed, expected in ((q_h, x[:nW]), (y_h, x[nW:]),
                               (p_h, w[:nW]), (z_h, w[nW:])):
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(computed.coefficients - expected).max() <= 1e-10 * scale


def test_boundary_tables_compose_couplings():
    # the quadrature-point tables must reproduce the assembled coupling
    # blocks when composed with the control trace operator
    mesh, spaces, data, flux, ops = make_ops(4)
    import scipy.sparse as sp
    W = sp.diags(ops.bq.weights)
    M1_ref = (-(ops.bq.T_pn.T) @ W @ ops.bq.E_U).toarray()
    M2_ref = (ops.bq.T_kz.T @ W @ ops.bq.E_U).toarray()
    assert np.abs(ops.M1.toarray() - M1_ref).max() == 0.0
    assert np.abs(ops.M2.toarray() - M2_ref).max() == 0.0
    # pointwise path agrees with the matrix path for a discrete control
    rng = np.random.default_rng(3)
    u = rng.standard_normal(spaces.control.num_dofs)
    uq = ops.bq.E_U @ u
    assert np.abs(ops.bq.M1_qp @ uq - ops.M1 @ u).max() < 1e-13
    assert np.abs(ops.bq.M2_qp @ uq - ops.M2 @ u).max() < 1e-12


def test_problem_data_validation():
    with pytest.raises(ValueError):
        ProblemData(epsilon=0.0, omega=1.0)
    with pytest.raises(ValueError):
        ProblemData(epsilon=1.0, omega=-1.0)
    with pytest.raises(ValueError):
        ProblemData(epsilon=1.0, omega=1.0, u_lower=1.0, u_upper=0.0)
    with pytest.raises(ValueError):
        ProblemData(epsilon=1.0, omega=1.0, penalty_sign=2)
    with pytest.raises(ValueError):
        data = ProblemData(epsilon=1.0, omega=1.0, beta=lambda x: np.array([x[0], 0.0]))
        data.check_divergence_free(np.array([[0.5, 0.5]]))


def test_non_finite_target_fails_at_assembly():
    mesh = build_unit_square_mesh(2)
    data = ProblemData(epsilon=1.0, omega=1.0,
                       y_desired=lambda x: np.nan if x[0] > 0.5 else 1.0)
    with pytest.raises(ValueError, match="y_desired is not finite"):
        assemble_forms(mesh, build_spaces(mesh), data)
