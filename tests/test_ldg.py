"""Tests of the LDG form assembly and the state/adjoint solvers."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from ldgcontrol import ldg
from ldgcontrol.analysis import example2_data, example3_data, example3_mesh
from ldgcontrol.geometry import build_unit_square_mesh, data_values, refine_uniform
from ldgcontrol.ldg import (
    FluxParameters,
    ProblemData,
    assemble_divergence_form_b,
    assemble_forms,
    solve_adjoint,
    solve_state,
)
from ldgcontrol.linsolve import _condensation_operators, _flux_block_inverse
from ldgcontrol.spaces import (
    FORM_DEGREE,
    DiscreteField,
    l2_project,
    quadrature_rule,
    tri_basis_values,
)


def make_ops(n=3, epsilon=1.0, beta=(1.0, 1.0), alpha=1.0, **kw):
    mesh = build_unit_square_mesh(n)
    data = ProblemData(epsilon=epsilon, omega=1.0, beta=beta, alpha=alpha, **kw)
    ops = assemble_forms(mesh, data)
    return mesh, ops.spaces, data, ops.flux, ops


@pytest.mark.parametrize("orientation", [+1, -1])
@pytest.mark.parametrize("epsilon", [1.0, 1e-3])
def test_flux_coupling_two_shapes_agree(orientation, epsilon):
    # integrating the volume term by parts and restructuring the traces
    # must not change the assembled matrix, boundary columns included,
    # whichever way the C12 switches point; along (1, 1) the diagonal
    # edges are ties with the central flux
    mesh, spaces, data, flux, ops = make_ops(
        3, epsilon, c12_direction=(orientation, orientation))
    B_div = assemble_divergence_form_b(flux)
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
    kw = dict(epsilon=1.0, omega=1.0, beta=(0.0, 0.0))
    ops0 = assemble_forms(mesh, ProblemData(alpha=0.0, **kw))
    ops1 = assemble_forms(mesh, ProblemData(alpha=1.0, **kw))
    diff = (ops1.C - ops0.C).toarray()
    assert np.abs(diff - ops0.M_Omega.toarray()).max() < 1e-13


def test_penalty_block_symmetric_negative_semidefinite():
    # no convection, no reaction: the block is pure jump/boundary penalty,
    # which the numerical flux q - C11 (y - u) n enters with a minus sign
    mesh = build_unit_square_mesh(2)
    ops = assemble_forms(mesh, ProblemData(
        epsilon=1.0, omega=1.0, beta=(0.0, 0.0), alpha=0.0))
    C = ops.C.toarray()
    assert np.abs(C - C.T).max() < 1e-13
    eigs = np.linalg.eigvalsh(C)
    assert eigs.max() < 1e-12  # penalty only sees jumps: semidefinite
    assert eigs.min() < -1.0  # and it does penalize


@pytest.mark.parametrize("flow", [+1, -1])
def test_boundary_multiplier_weight_values(flow):
    # unit square, n = 4: boundary edge length 1/4, so eps/h = 4; with
    # beta = (1, 1) the bottom and left edges are inflow (|beta.n| = 1),
    # with beta = (-1, -1) the top and right edges
    mesh = build_unit_square_mesh(4)
    data = ProblemData(epsilon=1.0, omega=1.0, beta=(flow, flow))
    flux = FluxParameters(mesh, data)
    for e in mesh.boundary_edges:
        mid = mesh.edge_midpoints([e])[0]
        expected = -4.0
        if np.isclose(mid[1], 0.5 - 0.5 * flow) or np.isclose(mid[0], 0.5 - 0.5 * flow):
            expected += 1.0
        assert flux.kappa(e, 0.5) == pytest.approx(expected, abs=1e-14)


def test_trace_switch_tie_convention():
    # auxiliary direction orthogonal to a vertical-edge normal: the tie
    # takes the central flux, every other edge the sign of n . v12
    mesh = build_unit_square_mesh(2)
    flux = FluxParameters(mesh, ProblemData(epsilon=1.0, omega=1.0, c12_direction=(0.0, 1.0)))
    n0 = mesh.edge_normals[:, 0]
    tie = np.abs(n0[:, 1]) < 1e-14  # vertical edges, n = (+-1, 0)
    assert tie.any()
    assert np.all(flux.c12n[tie] == 0.0)
    assert np.array_equal(flux.c12n[~tie], np.where(n0[~tie, 1] > 0.0, 0.5, -0.5))


def test_source_load_total():
    mesh, spaces, data, flux, ops = make_ops(3, f=1.0)
    assert ops.F.sum() == pytest.approx(1.0, rel=1e-13)


def rotating_beta(x):
    return np.stack([0.5 - x[..., 1], x[..., 0] - 0.5], axis=-1)


@pytest.mark.parametrize("flow", [+1, -1])
@pytest.mark.parametrize("n, beta", [
    pytest.param(2, (1.0, 1.0), id="2"),
    pytest.param(4, (1.0, 1.0), id="4"),
    # divergence free, beta.n varies along edges and changes sign around the
    # boundary (with even n no single boundary edge changes flow direction)
    pytest.param(2, rotating_beta, id="2-rotating"),
    pytest.param(4, rotating_beta, id="4-rotating"),
])
def test_state_solver_reproduces_global_linear(flow, n, beta):
    # a globally linear state with matching flux, control trace and source
    # satisfies the scheme exactly, with the flow either way round
    eps = 0.3
    alpha = 1.0

    def flow_beta(x):
        return flow * data_values(beta, x, "beta", vector=True)

    def y_exact(x):
        return 1.0 + 2.0 * x[..., 0] - 3.0 * x[..., 1]

    grad_y = np.array([2.0, -3.0])

    def f(x):
        return flow_beta(x) @ grad_y + alpha * y_exact(x)

    mesh = build_unit_square_mesh(n)
    ops = assemble_forms(mesh, ProblemData(epsilon=eps, omega=1.0, beta=flow_beta,
                                           alpha=alpha, f=f))
    u = l2_project(y_exact, ops.spaces.control)
    y_nodal = y_exact(mesh.vertices[mesh.triangles]).ravel()
    q_const = -np.sqrt(eps) * grad_y
    q_nodal = np.tile(q_const, 3 * mesh.num_elements)
    # the control as a boundary field, as a callable and as its values at
    # the boundary quadrature points (the pointwise loads)
    for control in (u, y_exact, ops.bq.E_U @ u.coefficients):
        y_h, q_h = solve_state(ops, control)
        assert np.abs(y_h.coefficients - y_nodal).max() < 1e-10
        assert np.abs(q_h.coefficients - q_nodal).max() < 1e-10


def test_penalty_scaling_with_diffusion():
    # quadrupling the diffusion parameter scales eps/h by 4 and the
    # control-to-flux coupling by sqrt(4) = 2, exactly in floating point
    mesh = build_unit_square_mesh(3)
    kw = dict(omega=1.0, beta=(1.0, 1.0), alpha=1.0)
    ops1 = assemble_forms(mesh, ProblemData(epsilon=1.0, **kw))
    ops4 = assemble_forms(mesh, ProblemData(epsilon=4.0, **kw))
    np.testing.assert_array_equal(ops4.flux.c11, 4.0 * ops1.flux.c11)
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
        y_h, _ = solve_state(ops, u)
        z_h, p_h = solve_adjoint(ops, load_vector=ops.M_Omega @ g)
        lhs = u.coefficients @ (ops.M1.T @ p_h.coefficients + ops.M2.T @ z_h.coefficients)
        rhs = g @ (ops.M_Omega @ y_h.coefficients)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) < 1e-11 * scale


@pytest.mark.parametrize("flow", [+1, -1])
def test_eliminated_solves_match_forward_block_matrix(flow):
    # the state and adjoint solves work on S = C + B' A^-1 B; solving the
    # unreduced forward matrix [[A, B], [-B', C]] directly must agree,
    # with the flow either way round
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(11)
    mesh, spaces, data, flux, ops = make_ops(4, epsilon=0.5, beta=(flow, flow))
    K = sp.bmat([[ops.A, ops.B], [-ops.B.T, ops.C]], format="csc")
    nW = spaces.flux.num_dofs
    u = DiscreteField(spaces.control, rng.standard_normal(spaces.control.num_dofs))
    g = rng.standard_normal(spaces.potential.num_dofs)

    y_h, q_h = solve_state(ops, u)
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
    # non-finite data fails here, not as a singular factorization later;
    # infinite bounds stay legal (an absent bound)
    for bad in (dict(epsilon=np.nan), dict(epsilon=np.inf), dict(omega=np.nan),
                dict(omega=np.inf), dict(u_lower=np.nan), dict(u_upper=np.nan),
                dict(c12_direction=(1.0, np.nan)), dict(c12_direction=(np.inf, 0.0)),
                dict(c12_direction=(0.0, 0.0))):
        with pytest.raises(ValueError):
            ProblemData(**{"epsilon": 1.0, "omega": 1.0, **bad})
    ProblemData(epsilon=1.0, omega=1.0, u_lower=-np.inf, u_upper=np.inf)
    with pytest.raises(ValueError):
        data = ProblemData(epsilon=1.0, omega=1.0,
                           beta=lambda x: np.stack([x[..., 0], 0.0 * x[..., 0]], axis=-1))
        data.check_divergence_free(np.array([[0.5, 0.5]]))


def test_non_finite_target_fails_at_assembly():
    mesh = build_unit_square_mesh(2)
    data = ProblemData(epsilon=1.0, omega=1.0,
                       y_desired=lambda x: np.where(x[..., 0] > 0.5, np.nan, 1.0))
    with pytest.raises(ValueError, match="y_desired is not finite"):
        assemble_forms(mesh, data)


@pytest.mark.parametrize("name, value", [
    pytest.param("beta", lambda x: np.stack([np.where(x[..., 0] > 0.5, np.nan, 1.0),
                                             np.ones(x.shape[:-1])], axis=-1),
                 id="beta-callable"),
    pytest.param("beta", (np.nan, 1.0), id="beta-constant"),
    pytest.param("alpha", lambda x: np.where(x[..., 1] > 0.5, np.nan, 1.0), id="alpha-callable"),
    pytest.param("alpha", np.nan, id="alpha-constant"),
])
def test_non_finite_coefficient_fails_at_assembly(name, value):
    # a NaN velocity or reaction coefficient is named, not reported as a
    # singular factorization
    mesh = build_unit_square_mesh(2)
    data = ProblemData(epsilon=1.0, omega=1.0, **{name: value})
    with pytest.raises(ValueError, match=f"{name} is not finite"):
        assemble_forms(mesh, data)


@pytest.mark.parametrize("alpha", [
    pytest.param(-50.0, id="constant"),
    pytest.param(lambda x: np.where(x[..., 0] > 0.5, -50.0, 1.0), id="callable"),
])
def test_negative_reaction_fails_at_assembly(alpha):
    # alpha >= 0 is named with the first point that breaks it, not
    # assembled and factored silently
    mesh = build_unit_square_mesh(2)
    pts = ldg.physical_points(mesh, quadrature_rule("triangle", FORM_DEGREE).points)
    first = pts[data_values(alpha, pts, "alpha") < 0.0][0]
    data = ProblemData(epsilon=1.0, omega=1.0, alpha=alpha)
    with pytest.raises(ValueError, match="alpha is negative at .* " + re.escape(
            f"(first at x = {first.tolist()})")):
        assemble_forms(mesh, data=data)


@pytest.mark.parametrize("f", [
    pytest.param(lambda x: x[0], id="pointwise"),
    pytest.param(lambda x: 1.0, id="0-d"),
])
def test_pointwise_data_callable_is_rejected(f):
    # data callables take the whole point array; one written for a single
    # point returns the wrong shape and must not assemble silently
    mesh = build_unit_square_mesh(2)
    data = ProblemData(epsilon=1.0, omega=1.0, f=f)
    with pytest.raises(ValueError, match="f gave values of shape"):
        assemble_forms(mesh, data)


def test_divergence_checked_on_every_element():
    # beta = ((x1 - 0.9)_+^2, 0) is divergence free except for x1 > 0.9,
    # which four element centroids of the 4x4 square reach, none of them
    # among the eight (every fourth) a subsampled check would test
    mesh = build_unit_square_mesh(4)
    data = ProblemData(epsilon=1.0, omega=1.0, beta=lambda x: np.stack(
        [np.maximum(x[..., 0] - 0.9, 0.0) ** 2, 0.0 * x[..., 0]], axis=-1))
    with pytest.raises(ValueError, match="not divergence free"):
        assemble_forms(mesh, data)
    # adding (0, 1e8 (0.5 - x1)_+) leaves the divergence unchanged; |beta|
    # is large only far from the divergent elements, whose check must not
    # be widened by it
    data = ProblemData(epsilon=1.0, omega=1.0, beta=lambda x: np.stack(
        [np.maximum(x[..., 0] - 0.9, 0.0) ** 2,
         1e8 * np.maximum(0.5 - x[..., 0], 0.0)], axis=-1))
    with pytest.raises(ValueError, match="not divergence free"):
        assemble_forms(mesh, data)


@pytest.mark.parametrize("scale", [100.0, 1000.0])
def test_large_divergence_free_field_passes_the_check(scale):
    # div beta = 0 exactly; rounding the beta values at x +- 1e-6 perturbs
    # each difference quotient by about 1e-16 |beta| / 1e-6, which an
    # absolute tolerance of 1e-8 does not admit at these scales
    mesh = build_unit_square_mesh(64)
    data = ProblemData(epsilon=1.0, omega=1.0, beta=lambda x: scale * np.stack(
        [np.sin(3 * x[..., 0]) * np.cos(2 * x[..., 1]),
         -1.5 * np.cos(3 * x[..., 0]) * np.sin(2 * x[..., 1])], axis=-1))
    data.check_divergence_free(mesh.vertices[mesh.triangles].mean(axis=1))


def _coo_sum(shape, *blocks):
    # the former assembly idiom: every local block (vals (n, I, J), rows
    # (n, I), cols (n, J)) as concatenated COO triplets, summed by tocsr
    vals = np.concatenate([v.ravel() for v, _, _ in blocks])
    rows = np.concatenate([np.broadcast_to(r[:, :, None], v.shape).ravel() for v, r, _ in blocks])
    cols = np.concatenate([np.broadcast_to(c[:, None, :], v.shape).ravel() for v, _, c in blocks])
    mat = sp.csr_matrix((vals, (rows.astype(np.int32), cols.astype(np.int32))), shape=shape)
    mat.eliminate_zeros()
    return mat


def _coo_reference(mesh, spaces, data):
    """The blocks of ``assemble_forms`` through COO triplets, from the same
    local blocks: the oracle of the in-place fills on the element adjacency."""
    flux = FluxParameters(mesh, data)
    nt, nW, nV = mesh.num_elements, spaces.flux.num_dofs, spaces.potential.num_dofs
    dofs3 = 3 * np.arange(nt)[:, None] + np.arange(3)
    dofs6 = 6 * np.arange(nt)[:, None] + np.arange(6)
    mass, B_vol, C_vol = ldg._volume_blocks(mesh, data)
    mass6 = (mass[:, :, None, :, None] * np.eye(2)[:, None, :]).reshape(nt, 6, 6)

    xg, wt, L = ldg._edge_quadrature(mesh, np.arange(mesh.num_edges))
    beta_n = np.einsum("egd,ed->eg", data_values(data.beta, xg, "beta", vector=True),
                       mesh.edge_normals[:, 0])
    present = mesh.edge_elems >= 0
    e, r, s = np.nonzero(present[:, :, None] & present[:, None, :])
    G = ldg._gram(wt, L)[e, r, s]
    sign = np.array([1.0, -1.0])
    rcoef = np.stack([np.where(mesh.boundary_mask, 1.0, 0.5 - flux.c12n), 0.5 + flux.c12n], axis=1)
    coef_B = -data.sqrt_eps * sign[None, None, :] * rcoef[:, :, None]
    ycoef = np.stack([0.5 + flux.d11n, 0.5 - flux.d11n], axis=1)
    pen = -data.sqrt_eps * flux.c11
    conv = ldg._gram(wt * beta_n, L)[e, r, s] * (sign[r] * ycoef[e, s])[:, None, None]
    C_edge = conv + G * (pen[e] * sign[r] * sign[s])[:, None, None]
    B_edge = ldg._flux_edge_blocks(mesh.edge_normals[e, 0], G, coef_B[e, r, s])
    t_r, t_s = mesh.edge_elems[e, r, None], mesh.edge_elems[e, s, None]
    blocks = {
        "A": _coo_sum((nW, nW), (mass6, dofs6, dofs6)),
        "M_Omega": _coo_sum((nV, nV), (mass, dofs3, dofs3)),
        "B": _coo_sum((nW, nV), (B_vol, dofs6, dofs3),
                      (B_edge, 6 * t_r + np.arange(6), 3 * t_s + np.arange(3))),
        "C": _coo_sum((nV, nV), (C_vol, dofs3, dofs3),
                      (C_edge, 3 * t_r + np.arange(3), 3 * t_s + np.arange(3))),
    }

    ids = mesh.boundary_edges
    xg, wt, L = ldg._edge_quadrature(mesh, ids)
    n0 = mesh.edge_normals[ids, 0]
    beta_n = np.einsum("egd,ed->eg", data_values(data.beta, xg, "beta", vector=True), n0)
    kappa = (-data.sqrt_eps * flux.c11[ids, None]
             + np.where(flux.inflow[ids, None], np.abs(beta_n), 0.0))
    L0, t0 = L[:, 0], mesh.edge_elems[ids, 0, None]
    phi = ldg.edge_basis_values(quadrature_rule("edge", FORM_DEGREE).points)
    rows = np.arange(wt.size).reshape(wt.shape)
    nq = wt.size
    blocks["E_U"] = _coo_sum((nq, spaces.control.num_dofs), (
        np.broadcast_to(phi, wt.shape + (2,)), rows,
        2 * spaces.control.boundary_index[ids, None] + np.arange(2)))
    blocks["T_pn"] = _coo_sum((nq, nW), (
        (data.sqrt_eps * L0[:, :, :, None] * n0[:, None, None, :]).reshape(wt.shape + (6,)),
        rows, 6 * t0 + np.arange(6)))
    blocks["T_kz"] = _coo_sum((nq, nV), (kappa[:, :, None] * L0, rows, 3 * t0 + np.arange(3)))
    W = sp.diags(wt.ravel())
    M1_qp = (-(blocks["T_pn"].T) @ W).tocsr()
    M2_qp = (blocks["T_kz"].T @ W).tocsr()
    blocks.update(M1_qp=M1_qp, M2_qp=M2_qp,
                  M1=(M1_qp @ blocks["E_U"]).sorted_indices(),
                  M2=(M2_qp @ blocks["E_U"]).sorted_indices(),
                  M_Gamma=(blocks["E_U"].T @ W @ blocks["E_U"]).tocsr())
    return blocks


ORACLE_MESHES = pytest.mark.parametrize("mesh, data", [
    (build_unit_square_mesh(8), example2_data()),
    (example3_mesh(2), example3_data()),
    (example3_mesh(2, coarse="diag2"), example3_data(1e-3)),
], ids=["square", "ex3-fan3", "ex3-diag2"])


@ORACLE_MESHES
def test_adjacency_fills_match_the_coo_oracle(mesh, data):
    # same pattern and index dtypes as the triplet sum; blocks with nothing
    # summed are bit-identical, and the summed B and C agree to rounding
    ops = assemble_forms(mesh, data)
    for name, ref in _coo_reference(mesh, ops.spaces, data).items():
        new = getattr(ops.bq if hasattr(ops.bq, name) else ops, name)
        for part in ("indices", "indptr"):
            assert np.array_equal(getattr(new, part), getattr(ref, part)), (name, part)
        for part in ("data", "indices", "indptr"):
            assert getattr(new, part).dtype == getattr(ref, part).dtype, (name, part)
        if name in ("B", "C"):
            scale = np.abs(ref.data).max()
            assert np.abs(new.data - ref.data).max() <= 4e-16 * scale, name
        else:
            assert np.array_equal(new.data, ref.data), name


@ORACLE_MESHES
def test_divergence_form_fill_matches_the_coo_oracle(mesh, data):
    flux = FluxParameters(mesh, data)
    new = assemble_divergence_form_b(flux)
    nt, sqrt_eps = mesh.num_elements, data.sqrt_eps
    _, _, grads, int_lam = ldg._volume_tables(mesh)
    B_vol = ((-sqrt_eps * grads)[:, :, :, None] * int_lam[:, None, None, :]).reshape(nt, 6, 3)
    _, wt, L = ldg._edge_quadrature(mesh, np.arange(mesh.num_edges))
    present = mesh.edge_elems >= 0
    e, r, s = np.nonzero(present[:, :, None] & present[:, None, :])
    ycoef = np.where(mesh.boundary_mask[:, None], 0.0,
                     np.stack([0.5 + flux.c12n, 0.5 - flux.c12n], axis=1))
    coef = sqrt_eps * np.array([1.0, -1.0])[None, :, None] * ycoef[:, None, :]
    ref = _coo_sum(new.shape, (B_vol, 6 * np.arange(nt)[:, None] + np.arange(6),
                               3 * np.arange(nt)[:, None] + np.arange(3)),
                   (ldg._flux_edge_blocks(mesh.edge_normals[e, 0], ldg._gram(wt, L)[e, r, s],
                                          coef[e, r, s]),
                    6 * mesh.edge_elems[e, r, None] + np.arange(6),
                    3 * mesh.edge_elems[e, s, None] + np.arange(3)))
    assert np.array_equal(new.indptr, ref.indptr) and np.array_equal(new.indices, ref.indices)
    assert np.abs(new.data - ref.data).max() <= 4e-16 * np.abs(ref.data).max()


def _flux_inverse_oracle(mesh):
    # the element inverses as triplets of whole 6x6 blocks, less the zeros
    # of their 2x2 identity factor
    nt = mesh.num_elements
    rule = quadrature_rule("triangle", FORM_DEGREE)
    lam = tri_basis_values(rule.points)
    blk6 = np.kron(np.linalg.inv((lam.T * rule.weights) @ lam), np.eye(2))
    vals = blk6[None, :, :] / (2.0 * mesh.areas)[:, None, None]
    dofs6 = 6 * np.arange(nt)[:, None] + np.arange(6)
    ref = sp.csr_matrix((vals.ravel(), (np.repeat(dofs6, 6, axis=1).ravel(),
                                        np.tile(dofs6, (1, 6)).ravel())), shape=(6 * nt, 6 * nt))
    ref.eliminate_zeros()
    return ref


def test_flux_block_inverse_matches_the_coo_oracle():
    # 18 stored entries per element
    mesh, spaces, data, flux, ops = make_ops(4)
    Ainv = _flux_block_inverse(ops)
    ref = _flux_inverse_oracle(mesh)
    assert Ainv.nnz == 18 * mesh.num_elements
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(Ainv, part), getattr(ref, part)), part
        assert getattr(Ainv, part).dtype == getattr(ref, part).dtype, part
    assert np.allclose((Ainv @ ops.A).toarray(), np.eye(Ainv.shape[0]), atol=1e-12)


ELIMINATION_CASES = pytest.mark.parametrize("mesh, data", [
    (refine_uniform(refine_uniform(build_unit_square_mesh(4))), example2_data()),
    (example3_mesh(2), example3_data()),
    (build_unit_square_mesh(4),
     ProblemData(epsilon=1e-2, omega=1.0, beta=rotating_beta, alpha=1.0)),
], ids=["ex2-chain", "ex3-fan3", "rotating"])


@ELIMINATION_CASES
def test_condensation_matches_the_product_form(mesh, data):
    # A^-1 B, S = C + B' A^-1 B and Mt = M2 + B' A^-1 M1 against the plain
    # scipy products of the assembled blocks, with the oracle inverse
    ops = assemble_forms(mesh, data)
    Ainv, AinvB, S, Mt = _condensation_operators(ops)
    Ainv_ref = _flux_inverse_oracle(mesh)
    AinvB_ref = Ainv_ref @ ops.B
    refs = {"AinvB": (AinvB, AinvB_ref), "S": (S, ops.C + ops.B.T @ AinvB_ref),
            "Mt": (Mt, ops.M2 + ops.B.T @ (Ainv_ref @ ops.M1))}
    for name, (new, ref) in refs.items():
        new, ref = new.tocsr().sorted_indices(), ref.tocsr().sorted_indices()
        assert np.array_equal(new.indptr, ref.indptr) and np.array_equal(new.indices, ref.indices), name
        assert np.abs(new.data - ref.data).max() <= 4e-16 * np.abs(ref.data).max(), name
    assert S.has_canonical_format
    assert ops.state_factorization().matrix is S


def _chain_mesh(elements):
    mesh = build_unit_square_mesh(4)  # the 32-element root of the example-2 chain
    while mesh.num_elements < elements:
        mesh = refine_uniform(mesh)
    return mesh


def test_assembly_transient_is_bounded():
    # the traced peak of assemble_forms stays within twice what it returns,
    # and every returned block is canonical CSR with no stored zeros
    mesh = _chain_mesh(2048)
    data = example2_data()
    assemble_forms(mesh, data)  # caches the adjacency and the rules
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ops = assemble_forms(mesh, data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 2 * (kept - before)
    blocks = [getattr(ops, name) for name in ("A", "B", "C", "M1", "M2", "M_Omega", "M_Gamma")]
    blocks += [getattr(ops.bq, name) for name in ("E_U", "T_pn", "T_kz", "M1_qp", "M2_qp")]
    for mat in blocks:
        assert mat.format == "csr" and mat.has_canonical_format
        assert np.all(mat.data != 0.0)


def test_elimination_transient_is_bounded():
    # the traced peak of the flux elimination stays within half again what
    # it keeps (A^-1, A^-1 B, S and Mt), and S keeps no spare buffer space
    ops = assemble_forms(_chain_mesh(2048), example2_data())
    _condensation_operators(ops)  # warms the rules and scipy's paths
    ops._condensation = None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _condensation_operators(ops)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.5 * (kept - before)
    S = _condensation_operators(ops)[2]
    assert S.data.base is None or S.data.base.size == S.nnz
