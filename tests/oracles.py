"""Verification oracles the tests check the solver against.

None of these is on the solver's path: ``ldgcontrol`` neither calls nor
exports them.

* ``assemble_divergence_form_b``: the flux coupling b assembled from its
  divergence shape (volume term -y div(r), interior-edge trace, no
  boundary term), which must agree with the integrated-by-parts shape of
  ``ldg.assemble_forms``.
* ``solve_adjoint``: the adjoint system for a given load, on the state
  factorization transposed.
* ``galerkin_diagnostics`` and ``GalerkinDiagnostics``: the Galerkin-only
  terms of the a priori control-error bound of a manufactured case.
* ``least_squares_rate`` and ``unit_square_sequence``: a rate fit over a
  halving mesh sequence, and that sequence.
* ``l2_project``: the L2 projection onto a discontinuous P1 space.
* ``quasi_interpolate``: bound-preserving nodal averaging of a boundary
  function into the control space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ldgcontrol.analysis import (
    ManufacturedCase,
    _boundary_rule,
    error_flux_normal_boundary,
    error_l2_boundary,
    error_l2_domain,
)
from ldgcontrol.geometry import build_unit_square_mesh, data_values, refine_uniform
from ldgcontrol.ldg import (
    BlockOperator,
    FluxParameters,
    _coupling,
    _edge_chunks,
    _flux_edge_blocks,
    _gram,
    _load_vector,
    _place_edge_blocks,
    _flux_block_inverse,
    _volume_tables,
)
from ldgcontrol.linsolve import _reduction, solve_state
from ldgcontrol.spaces import (
    BOUNDARY,
    DATA_DEGREE,
    FORM_DEGREE,
    VECTOR,
    DiscreteField,
    DofMap,
    edge_basis_values,
    edge_points,
    physical_points,
    quadrature_rule,
    trace_on_edge,
    tri_basis_values,
)


# ---------------------------------------------------------------------------
# assembly and solves


def assemble_divergence_form_b(flux: FluxParameters) -> sp.csr_matrix:
    """The flux coupling b assembled from its divergence shape, on the
    mesh and data of ``flux``.

    b(y, r) = - sum_K integral sqrt(eps) y div(r)
              + sum_{interior E} integral sqrt(eps) ({y} + C12 . [y]) [r]

    with the scalar jump [r] = r1.n1 + r2.n2.  Must agree entrywise with the
    integrated-by-parts shape produced by assemble_forms.
    """
    mesh = flux.mesh
    nt, sqrt_eps = mesh.num_elements, flux.data.sqrt_eps
    _, _, grads, int_lam = _volume_tables(mesh)
    # volume: -sqrt(eps) y div(r); div of basis (i, comp) is grads[:, i, comp]
    layout, vals = _coupling(mesh, (6, 3), (
        (-sqrt_eps * grads)[:, :, :, None] * int_lam[:, None, None, :]).reshape(nt, 6, 3))
    # trace weight of ({y} + C12 [y]): side 0 gets 1/2 + c12, side 1 gets
    # 1/2 - c12; [r] contributes r.n0 on side 0 and -r.n0 on side 1.
    sign = np.array([1.0, -1.0])
    ycoef = np.where(mesh.boundary_mask[:, None], 0.0,
                     np.stack([0.5 + flux.c12n, 0.5 - flux.c12n], axis=1))
    coef = sqrt_eps * sign[None, :, None] * ycoef[:, None, :]
    for edges, _, wt, L, places in _edge_chunks(mesh):
        _place_edge_blocks(vals, places, _flux_edge_blocks(
            mesh.edge_normals[edges, 0, None, None], _gram(wt, L), coef[edges]))
    return layout.matrix(vals, (6 * nt, 3 * nt))


def solve_adjoint(ops: BlockOperator, load_vector):
    """Solve the adjoint system for a load; returns (z_h, p_h).

    The adjoint operator is the transpose of the state operator, so
    z = S^-T g reuses the state factorization and p = A^-1 (B z), for
    the load vector g tested against the scalar space.
    """
    z = _reduction(ops).factor.solve(load_vector, trans="T")
    p = _flux_block_inverse(ops) @ (ops.B @ z)
    return DiscreteField(ops.spaces.potential, z), DiscreteField(ops.spaces.flux, p)


# ---------------------------------------------------------------------------
# Galerkin-gap diagnostics


@dataclass
class GalerkinDiagnostics:
    """Terms of the control-error bound split into Galerkin pieces.

    err_y_state is the state solve driven by the exact control;
    err_pn_adjoint and err_z_adjoint come from the adjoint solve driven by
    the exact right-hand side y - y_desired.  weighted_z2 is the squared
    z-trace error weighted by kappa^2 (``FluxParameters.kappa``) at each
    boundary quadrature point;
    bound_rhs composes the right side of the gap inequality (with unit
    leading constant).
    """

    err_y_state: float
    err_pn_adjoint: float
    err_z_adjoint: float
    weighted_z2: float
    err_quasi_interp: float
    epsilon: float

    @property
    def bound_rhs(self) -> float:
        return self.err_y_state**2 + self.epsilon * self.err_pn_adjoint**2 + self.weighted_z2


def galerkin_diagnostics(case: ManufacturedCase, ops: BlockOperator) -> GalerkinDiagnostics:
    """Galerkin-only error terms for a manufactured case on the mesh of ``ops``.

    Solves the state system with the exact control and the adjoint system
    with the exact data y - y_desired, then measures the three boundary /
    domain terms of the error bound, plus the quasi-interpolation error of
    the exact control.
    """
    mesh = ops.mesh
    y_hu, _q_hu = solve_state(ops, case.u)
    err_y_state = error_l2_domain(y_hu, case.y)

    def adjoint_rhs(x):
        return case.y(x) - case.y_desired(x)

    z_hu, p_hu = solve_adjoint(ops, load_vector=_load_vector(mesh, adjoint_rhs, "adjoint_rhs"))
    err_pn = error_flux_normal_boundary(p_hu, case.grad_z, case.epsilon)
    err_z = error_l2_boundary(z_hu, case.z)

    ids, s, xg, wt, _n = _boundary_rule(mesh)
    diff2 = (data_values(case.z, xg, "z") - trace_on_edge(z_hu, ids[:, None], 0, s)) ** 2
    weighted_z2 = float(np.sum(ops.flux.kappa(ids[:, None], s) ** 2 * wt * diff2))

    pi_u = quasi_interpolate(case.u, mesh)
    err_pi = error_l2_boundary(pi_u, case.u, mesh)

    return GalerkinDiagnostics(
        err_y_state=err_y_state,
        err_pn_adjoint=err_pn,
        err_z_adjoint=err_z,
        weighted_z2=weighted_z2,
        err_quasi_interp=err_pi,
        epsilon=case.epsilon,
    )


# ---------------------------------------------------------------------------
# rates over a halving mesh sequence


def least_squares_rate(errors) -> float:
    """Least-squares slope of log(error) against log(h) for halving meshes."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.size < 2:
        raise ValueError("need at least two errors for a rate fit")
    if np.any(errors <= 0.0):
        raise ValueError("rate fits need positive errors")
    log_h = -np.arange(errors.size) * np.log(2.0)
    slope = np.polyfit(log_h, np.log(errors), 1)[0]
    return float(slope)


def unit_square_sequence(levels: int, base_n: int = 4):
    """Nested unit-square meshes with 2*base_n^2*4^k elements, k < levels."""
    meshes = [build_unit_square_mesh(base_n)]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


# ---------------------------------------------------------------------------
# projections into the discrete spaces


def l2_project(f, dofmap: DofMap) -> DiscreteField:
    """Element-by-element (or edge-by-edge) L2 projection onto the space.

    ``f`` is a constant or a callable on physical point arrays (..., 2)
    (see ``geometry.data_values``); for the vector space its values are
    2-vectors, shape (..., 2).  Globally polynomial P1 data is
    reproduced exactly.  The inverse reference mass matrix is applied to
    the load vectors of all entities at once, by ``FORM_DEGREE`` rules.
    """
    mesh = dofmap.mesh
    if dofmap.kind == BOUNDARY:
        rule = quadrature_rule("edge", FORM_DEGREE)
        phi = edge_basis_values(rule.points)  # (k, 2)
        ids = mesh.boundary_edges
        fvals = data_values(f, edge_points(mesh, ids[:, None], rule.points), "f")  # (b, k)
        coef = np.linalg.solve((phi.T * rule.weights) @ phi, phi.T @ (rule.weights * fvals).T)
        return DiscreteField(dofmap, coef.T.ravel())  # (start, end) pairs in boundary order

    rule = quadrature_rule("triangle", FORM_DEGREE)
    lam = tri_basis_values(rule.points)  # (k, 3)
    nt = mesh.num_elements
    # (nt, k, c) values, c = 1 for scalars and 2 for vectors (interleaved per node)
    fvals = data_values(f, physical_points(mesh, rule.points), "f",
                        vector=dofmap.kind == VECTOR).reshape(nt, len(rule.weights), -1)
    rhs = np.einsum("ki,tkc->itc", lam * rule.weights[:, None], fvals)  # (3, nt, c)
    coef = np.linalg.solve((lam.T * rule.weights) @ lam, rhs.reshape(3, -1))
    return DiscreteField(dofmap, coef.reshape(rhs.shape).transpose(1, 0, 2).ravel())


def quasi_interpolate(u, mesh) -> DiscreteField:
    """Weighted nodal averaging of a boundary function into the control space.

    The value at a boundary node is (u, hat)_Gamma / (1, hat)_Gamma with
    the node's piecewise-linear hat function supported on its two adjacent
    boundary edges.  Constants are reproduced and bounds are preserved
    (each nodal value is a convex average of u along the boundary).  ``u``
    is a boundary DiscreteField, a constant or a callable on point arrays.
    The edge integrals use the data rule.
    """
    rule = quadrature_rule("edge", DATA_DEGREE)
    ids = mesh.boundary_edges
    if isinstance(u, DiscreteField):
        if u.dofmap.kind != "boundary-edge":
            raise ValueError("quasi-interpolation sources must live on the boundary")
        vals = trace_on_edge(u, ids[:, None], 0, rule.points)
    else:
        vals = data_values(u, edge_points(mesh, ids[:, None], rule.points), "u")

    # (u, hat) and (1, hat) of each edge's two end vertices: the hat of the
    # start vertex falls (1-s), the hat of the end vertex rises (s)
    wt = rule.weights * mesh.edge_lengths[ids, None]
    phi = edge_basis_values(rule.points)
    ends = mesh.edges[ids].ravel()
    num = np.bincount(ends, ((wt * vals) @ phi).ravel(), minlength=mesh.num_vertices)
    den = np.bincount(ends, (wt @ phi).ravel(), minlength=mesh.num_vertices)
    # boundary-edge dofs are (start, end) pairs in boundary-edge order
    return DiscreteField(DofMap(mesh, "boundary-edge"), num[ends] / den[ends])
