"""Assembly of the local discontinuous Galerkin (LDG) forms and solvers.

The mixed scheme introduces the scaled flux q = -sqrt(eps) grad(y) as an
independent unknown next to the scalar state y.  With test functions r
(vector space W) and v (scalar space V), and a boundary control u, the
discrete state system reads

    a(q, r) + b(y, r) = m1(u, r)          for all r,
    -b(v, q) + c(y, v) = m2(u, v) + F(v)  for all v,

where the forms are

    a(q, r)  = integral of q . r over the domain,
    b(y, r)  = sum_K integral sqrt(eps) grad(y) . r
               - sum_{interior E} integral sqrt(eps) ({r} - C12 [r]) . [y]
               - sum_{boundary E} integral sqrt(eps) y r.n,
    c(y, v)  = sum_K integral (alpha y v - y beta . grad(v))
               + sum_{interior E} integral ({y} + D11 . [y]) beta . [v]
               + sum_{interior E} s_pen sqrt(eps) C11 integral [y] . [v]
               + sum_{outflow E} integral (beta . n) y v
               + sum_{boundary E} s_pen sqrt(eps) C11 integral y v,
    m1(u, r) = - sum_{boundary E} integral sqrt(eps) u r.n,
    m2(u, v) = sum_{boundary E} integral kappa u v,
        with kappa = s_pen sqrt(eps) C11 + [edge inflow] |beta . n|,
    F(v)     = integral f v.

b is assembled in its integrated-by-parts shape above; the equivalent
divergence shape (volume term -y div(r), interior-edge upwinded trace, no
boundary term) is provided separately for cross-checking.  The edge
coefficients are C11 = eps/h_E, C12 . n = sign(n . v12)/2 for a fixed
auxiliary direction v12, and D11 . n = sign(n . beta)/2 (upwinding).

``s_pen`` is the sign applied to every C11 occurrence (including kappa).
The default -1 realizes the flux convention q_hat = q - C11 (y - u) n in
which the penalty enters the operator negatively and is balanced by the
control data; +1 gives the classically coercive jump-penalized variant.
Both reproduce globally linear solutions exactly and both yield
nonsingular forward operators on the meshes used here; the -1 convention
is what the convergence references in the analysis module were computed
with.

Assembly is one batched pass over all elements and all edges.  Each edge
side gets a trace table L[e, side, g, i] (the nodal basis function i of
that side's element at edge quadrature point g), filled once from
``Mesh.edge_local``; every edge term is a (test side, trial side) block of
weighted products of these tables, and all local blocks go into the
sparse matrices through one scatter.  Boundary edges need no branch of
their own: their terms are the side-0 block of the interior formulas,
with the b weight 1/2 - C12 . n replaced by 1, and with the upwind factor
1/2 + D11 . n of c equal to 1 on outflow and 0 on inflow edges (D11 and
the inflow/outflow split test the same sign of beta(midpoint) . n).

Data callables (beta, alpha, f, y_desired and pointwise controls) are
pointwise: they take one point of shape (2,); ``geometry.point_values``
evaluates them on stacked point arrays.

The state and adjoint solves eliminate the flux element by element and
share one factorization of S = C + B' A^-1 B (the adjoint uses its
transpose).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.io
import scipy.sparse as sp

from .geometry import (
    EdgeClassification,
    Mesh,
    as_vector_function,
    classify_boundary_edges,
    point_values,
)
from .linsolve import Factorization, _condensation_operators
from .spaces import (
    DiscreteField,
    SpaceSet,
    build_spaces,
    edge_basis_values,
    element_gradients,
    physical_points,
    quadrature_rule,
    tri_basis_values,
)

__all__ = [
    "ProblemData",
    "FluxParameters",
    "BlockOperator",
    "BoundaryQuadrature",
    "compute_flux_parameters",
    "assemble_forms",
    "assemble_divergence_form_b",
    "solve_state",
    "solve_adjoint",
    "export_matrix_market",
]


def as_scalar_function(f) -> Callable:
    if callable(f):
        return f
    value = float(f)
    return lambda x: value


@dataclass
class ProblemData:
    """Data of the boundary control problem.

    Attributes:
        epsilon : diffusion parameter (> 0).
        omega : control regularization weight (> 0).
        beta : velocity field, callable x -> (2,) or a constant 2-vector;
            must be divergence free.
        alpha : reaction coefficient, callable or constant (>= 0).
        f : source term, callable or constant.
        y_desired : target state, callable.
        u_lower / u_upper : control bounds (-inf/+inf for unconstrained).
        c12_direction : auxiliary direction fixing the C12 edge switches; the
            default has an irrational slope so it is never orthogonal to an
            axis-aligned or diagonal edge normal.
        c12_tie : value assigned to C12.n on edges with n exactly orthogonal
            to c12_direction.  Default +1/2 (deterministic tie-break); 0
            selects a central flux on tie edges, which together with
            c12_direction = beta matches the reference convergence tables.
        penalty_sign : sign multiplying every C11 term (-1 = numerical-flux
            convention, the default; +1 = coercive jump penalization).
    """

    epsilon: float
    omega: float
    beta: object = (0.0, 0.0)
    alpha: object = 0.0
    f: object = 0.0
    y_desired: object = 0.0
    u_lower: float = -np.inf
    u_upper: float = np.inf
    c12_direction: tuple = (1.0, np.pi / 1000.0)
    c12_tie: float = 0.5
    penalty_sign: int = -1

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("diffusion parameter must be positive")
        if self.omega <= 0.0:
            raise ValueError("regularization parameter must be positive")
        if self.u_lower > self.u_upper:
            raise ValueError("lower control bound exceeds the upper bound")
        if self.penalty_sign not in (+1, -1):
            raise ValueError("penalty_sign must be +1 or -1")
        if not np.any(np.asarray(self.c12_direction, dtype=float)):
            raise ValueError("c12_direction must be a nonzero vector")
        if abs(self.c12_tie) > 0.5:
            raise ValueError("c12_tie must lie in [-1/2, 1/2]")

    @property
    def sqrt_eps(self) -> float:
        return float(np.sqrt(self.epsilon))

    def beta_fun(self) -> Callable:
        return as_vector_function(self.beta)

    def alpha_fun(self) -> Callable:
        return as_scalar_function(self.alpha)

    def f_fun(self) -> Callable:
        return as_scalar_function(self.f)

    def y_desired_fun(self) -> Callable:
        return as_scalar_function(self.y_desired)

    def check_divergence_free(self, points, step: float = 1e-6, tol: float = 1e-8) -> None:
        """Assert div(beta) = 0 by central differences at sample points."""
        beta = self.beta_fun()
        for x in np.atleast_2d(points):
            dx = (beta(x + [step, 0.0])[0] - beta(x - [step, 0.0])[0]) / (2 * step)
            dy = (beta(x + [0.0, step])[1] - beta(x - [0.0, step])[1]) / (2 * step)
            if abs(dx + dy) > tol:
                raise ValueError(f"velocity field is not divergence free at {x}")


def boundary_kappa(data, c11, beta_n, inflow):
    """Boundary multiplier weight s_pen sqrt(eps) C11 + [inflow] |beta . n|.

    Broadcasts over the edge penalties ``c11``, the normal velocities
    ``beta_n`` and the inflow flags ``inflow``.
    """
    return data.penalty_sign * data.sqrt_eps * c11 + np.where(inflow, np.abs(beta_n), 0.0)


class FluxParameters:
    """Per-edge numerical flux coefficients.

    Attributes:
        c11 : (ne,) penalty coefficients eps/h_E (all edges).
        c12n : (ne,) value of C12 . n for the first adjacent side's normal;
            the second side sees the opposite sign.
        d11n : (ne,) value of D11 . n for the first side (upwind switch).
        kappa_z : (ne,) boundary multiplier weight
            s_pen*sqrt(eps)*C11 + [inflow]*|beta.n| at the edge midpoint;
            NaN on interior edges.
        classification : EdgeClassification of the boundary edges.
    """

    def __init__(self, mesh, data, classification):
        v12 = np.asarray(data.c12_direction, dtype=float)
        n0 = mesh.edge_normals[:, 0]
        sv = n0 @ v12
        beta_n = np.sum(point_values(data.beta_fun(), mesh.edge_midpoints()) * n0, axis=1)
        self.c11 = data.epsilon / mesh.edge_lengths
        self.c12n = np.where(np.abs(sv) <= 1e-12 * float(np.linalg.norm(v12)), data.c12_tie,
                             np.where(sv > 0.0, 0.5, -0.5))
        self.d11n = np.where(beta_n >= 0.0, 0.5, -0.5)
        self.kappa_z = np.full(mesh.num_edges, np.nan)
        ids = classification.boundary_edges
        self.kappa_z[ids] = boundary_kappa(data, self.c11[ids], beta_n[ids],
                                           classification.inflow_mask)
        self.classification = classification


def compute_flux_parameters(mesh: Mesh, data: ProblemData,
                            classification: Optional[EdgeClassification] = None) -> FluxParameters:
    if classification is None:
        classification = classify_boundary_edges(mesh, data.beta_fun())
    return FluxParameters(mesh, data, classification)


def _edge_quadrature(mesh, degree, edges):
    """Points, weights and scalar trace table of an edge rule on ``edges``.

    Returns xg (n, k, 2), wt (n, k) and L (n, 2, k, 3), where L[e, side, g, i]
    is the nodal basis function i of the element on ``side`` of edge
    ``edges[e]`` at its quadrature point g (zero where the side is missing).
    """
    rule = quadrature_rule("edge", degree)
    phi = edge_basis_values(rule.points)  # (k, 2)
    a, b = (mesh.vertices[mesh.edges[edges, end]] for end in range(2))
    xg = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    wt = rule.weights[None, :] * mesh.edge_lengths[edges, None]
    L = np.zeros((len(edges), 2, len(rule.points), 3))
    e, side = np.nonzero(mesh.edge_elems[edges] >= 0)
    for end in range(2):
        L[e, side, :, mesh.edge_local[edges[e], side, end]] = phi[:, end]
    return xg, wt, L


def _gram(wt, L):
    """Edge blocks G[e, r, s, i, j] = sum_g wt[e, g] L[e, r, g, i] L[e, s, g, j]."""
    return np.einsum("ergi,esgj->ersij", wt[:, None, :, None] * L, L)


def _side_pairs(mesh):
    """(edge, test side, trial side) index arrays of the side pairs present:
    all four on an interior edge, (0, 0) on a boundary edge."""
    present = mesh.edge_elems >= 0
    return np.nonzero(present[:, :, None] & present[:, None, :])


def _flux_edge_blocks(mesh, pairs, G, coef):
    """Edge part of a flux coupling: (coef G)_{ij} n0 on (flux test, scalar trial)."""
    e, r, s = pairs
    blk = (G[e, r, s] * coef[e, r, s, None, None])[:, :, None, :]
    vals = blk * mesh.edge_normals[e, 0][:, None, :, None]  # (n, 3, 2, 3)
    rows = 6 * mesh.edge_elems[e, r, None] + np.arange(6)
    cols = 3 * mesh.edge_elems[e, s, None] + np.arange(3)
    return vals.reshape(-1, 6, 3), rows, cols


def _scatter(shape, *blocks):
    """Sparse sum of local blocks, each given as (vals (n, I, J), rows (n, I), cols (n, J))."""
    vals = np.concatenate([v.ravel() for v, _, _ in blocks])
    rows = np.concatenate([np.broadcast_to(r[:, :, None], v.shape).ravel() for v, r, _ in blocks])
    cols = np.concatenate([np.broadcast_to(c[:, None, :], v.shape).ravel() for v, _, c in blocks])
    mat = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    mat.eliminate_zeros()  # e.g. the trace of the vertex opposite an edge
    return mat


def _load_vector(mesh, fun, degree, name):
    """(fun, v) for every scalar basis function v, by a degree-``degree`` rule.

    Raises ValueError, naming the data callable ``name``, when ``fun`` is
    not finite at a quadrature point.
    """
    rule = quadrature_rule("triangle", degree)
    pts = physical_points(mesh, rule.points)
    vals = point_values(fun, pts)  # (nt, k)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"{name} is not finite at {int(bad.sum())} of {bad.size} "
                         f"quadrature points (first at x = {pts[bad][0].tolist()})")
    lam = tri_basis_values(rule.points)
    load = np.einsum("tg,gi,g->ti", vals, lam, rule.weights)
    return ((2.0 * mesh.areas)[:, None] * load).ravel()


class BoundaryQuadrature:
    """Quadrature-point tables on the boundary edges.

    Rows are boundary quadrature points (edge-major, parameter-minor).
    Besides the points and weights the object carries three sparse
    evaluation operators and the derived coupling matrices:

        E_U  : (nq, 2b) control-space values at the points,
        T_pn : (nq, 6m) sqrt(eps) * (vector field . outward normal),
        T_kz : (nq, 3m) kappa * (scalar field trace),

    so that m1(u, r) = -(T_pn' W E_U u, r), m2(u, v) = (T_kz' W E_U u, v)
    and the boundary mass matrix is E_U' W E_U, with W = diag(weights).
    """

    def __init__(self, mesh, spaces, data, flux, degree):
        ids = mesh.boundary_edges
        xg, wt, L = _edge_quadrature(mesh, degree, ids)
        nq = wt.size
        n0 = mesh.edge_normals[ids, 0]
        beta_n = np.einsum("egd,ed->eg", point_values(data.beta_fun(), xg), n0)
        kappa = boundary_kappa(data, flux.c11[ids, None], beta_n,
                               flux.classification.inflow_mask[:, None])
        L0 = L[:, 0]  # (b, k, 3)
        t0 = mesh.edge_elems[ids, 0, None]
        phi = edge_basis_values(quadrature_rule("edge", degree).points)
        rows = np.arange(nq).reshape(wt.shape)  # the points of each edge

        self.num_points = nq
        self.points = xg.reshape(nq, 2)
        self.weights = wt.ravel()
        self.E_U = _scatter((nq, spaces.control.num_dofs), (
            np.broadcast_to(phi, wt.shape + (2,)), rows,
            2 * spaces.control.boundary_index[ids, None] + np.arange(2)))
        self.T_pn = _scatter((nq, spaces.flux.num_dofs), (
            (data.sqrt_eps * L0[:, :, :, None] * n0[:, None, None, :]).reshape(wt.shape + (6,)),
            rows, 6 * t0 + np.arange(6)))
        self.T_kz = _scatter((nq, spaces.potential.num_dofs), (
            kappa[:, :, None] * L0, rows, 3 * t0 + np.arange(3)))
        W = sp.diags(self.weights)
        self.M1_qp = (-(self.T_pn.T) @ W).tocsr()
        self.M2_qp = (self.T_kz.T @ W).tocsr()


@dataclass(eq=False)
class BlockOperator:
    """Assembled matrices and load vectors of the LDG optimality blocks.

    Attributes (m elements, b boundary edges):
        A : (6m, 6m) vector mass matrix (symmetric positive definite).
        B : (6m, 3m) gradient/flux coupling, b(y, r) = r' B y.
        C : (3m, 3m) convection-reaction-penalty block, c(y, v) = v' C y.
        M1 : (6m, 2b), m1(u, r) = r' M1 u.
        M2 : (3m, 2b), m2(u, v) = v' M2 u.
        M_Omega : (3m, 3m) scalar mass matrix.
        M_Gamma : (2b, 2b) boundary mass matrix (consistent).
        F : (3m,) source load.
        Yd : (3m,) target-state load (y_desired, v).
        bq : BoundaryQuadrature tables used for pointwise controls.
        quad_degree / data_degree : rule degrees of the forms and the loads.

    ``_state_lu`` and ``_condensation`` cache the factorization of S and
    the flux-elimination operators (``linsolve._condensation_operators``);
    ``_qp_load`` caches the variational control-to-state load of
    ``linsolve._control_load``.
    """

    mesh: Mesh
    spaces: SpaceSet
    data: ProblemData
    flux: FluxParameters
    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    M1: sp.csr_matrix
    M2: sp.csr_matrix
    M_Omega: sp.csr_matrix
    M_Gamma: sp.csr_matrix
    F: np.ndarray
    Yd: np.ndarray
    bq: BoundaryQuadrature
    quad_degree: int
    data_degree: int
    _state_lu: Optional[Factorization] = field(default=None, init=False, repr=False)
    _condensation: Optional[tuple] = field(default=None, init=False, repr=False)
    _qp_load: Optional[sp.csr_matrix] = field(default=None, init=False, repr=False)

    @property
    def num_elements(self):
        return self.mesh.num_elements

    def state_factorization(self) -> Factorization:
        """Factorization of the flux-eliminated state operator S = C + B' A^-1 B."""
        if self._state_lu is None:
            self._state_lu = Factorization(_condensation_operators(self)[2])
        return self._state_lu


def _volume_tables(mesh, degree):
    """Element rule data: (rule, lam (k, 3), grads (nt, 3, 2), int_lam (nt, 3))."""
    rule = quadrature_rule("triangle", degree)
    lam = tri_basis_values(rule.points)
    int_lam = (2.0 * mesh.areas)[:, None] * (rule.weights @ lam)[None, :]
    return rule, lam, element_gradients(mesh), int_lam


def assemble_forms(mesh: Mesh, spaces: SpaceSet = None, data: ProblemData = None,
                   flux: FluxParameters = None, quad_degree: int = 4,
                   data_degree: int = 6) -> BlockOperator:
    """Assemble every bilinear form and load vector of the scheme.

    Bilinear terms use degree-``quad_degree`` rules (exact for the piecewise
    polynomial integrands); the data loads f and y_desired use
    ``data_degree`` so the discrete cost and its adjoint gradient share one
    quadrature.
    """
    if spaces is None:
        spaces = build_spaces(mesh)
    if data is None:
        raise ValueError("problem data is required")
    if flux is None:
        flux = compute_flux_parameters(mesh, data)
    data.check_divergence_free(mesh.vertices[mesh.triangles].mean(axis=1)[:: max(1, mesh.num_elements // 8)])

    nt = mesh.num_elements
    nW, nV = spaces.flux.num_dofs, spaces.potential.num_dofs
    sqrt_eps = data.sqrt_eps
    beta = data.beta_fun()
    rule, lam, grads, int_lam = _volume_tables(mesh, quad_degree)
    pts = physical_points(mesh, rule.points)  # (nt, k, 2)
    two_area = 2.0 * mesh.areas
    dofs3 = 3 * np.arange(nt)[:, None] + np.arange(3)
    dofs6 = 6 * np.arange(nt)[:, None] + np.arange(6)

    # --- volume blocks, one per element ---
    mass = two_area[:, None, None] * ((lam.T * rule.weights) @ lam)  # (nt, 3, 3)
    mass6 = (mass[:, :, None, :, None] * np.eye(2)[:, None, :]).reshape(nt, 6, 6)
    # b: sqrt(eps) grad(y_j)[comp] * integral(lam_i), row 2i + comp
    B_vol = ((sqrt_eps * grads.transpose(0, 2, 1))[:, None] * int_lam[:, :, None, None]).reshape(nt, 6, 3)
    # c: alpha y v - y beta . grad(v), test v = lam_i, trial y = lam_j
    beta_grad = np.einsum("tgd,tid->tgi", point_values(beta, pts), grads)  # (nt, k, 3)
    integrand = (point_values(data.alpha_fun(), pts)[:, :, None, None] * lam[None, :, None, :]
                 * lam[None, :, :, None] - lam[None, :, None, :] * beta_grad[:, :, :, None])
    C_vol = two_area[:, None, None] * np.einsum("tgij,g->tij", integrand, rule.weights)

    # --- edge blocks, one per (edge, test side, trial side) ---
    # Side 0 of a boundary edge carries the boundary terms: rcoef = 1 in b,
    # and the upwind factor 1/2 + D11.n in c is 1 on outflow, 0 on inflow.
    xg, wt, L = _edge_quadrature(mesh, quad_degree, np.arange(mesh.num_edges))
    beta_n = np.einsum("egd,ed->eg", point_values(beta, xg), mesh.edge_normals[:, 0])
    G = _gram(wt, L)
    pairs = _side_pairs(mesh)
    e, r, s = pairs
    sign = np.array([1.0, -1.0])
    # b: -sqrt(eps) (y1 - y2) [(1/2 - c12) r1.n + (1/2 + c12) r2.n]
    rcoef = np.stack([np.where(mesh.boundary_mask, 1.0, 0.5 - flux.c12n), 0.5 + flux.c12n], axis=1)
    coef_B = -sqrt_eps * sign[None, None, :] * rcoef[:, :, None]
    # c: ({y} + D11 . [y]) beta . [v] and s_pen sqrt(eps) C11 [y] . [v]
    ycoef = np.stack([0.5 + flux.d11n, 0.5 - flux.d11n], axis=1)
    pen = data.penalty_sign * sqrt_eps * flux.c11
    conv = _gram(wt * beta_n, L)[e, r, s] * (sign[r] * ycoef[e, s])[:, None, None]
    C_edge = conv + G[e, r, s] * (pen[e] * sign[r] * sign[s])[:, None, None]

    A = _scatter((nW, nW), (mass6, dofs6, dofs6))
    M_Omega = _scatter((nV, nV), (mass, dofs3, dofs3))
    B = _scatter((nW, nV), (B_vol, dofs6, dofs3), _flux_edge_blocks(mesh, pairs, G, coef_B))
    edge_dofs = 3 * mesh.edge_elems[:, :, None] + np.arange(3)
    C = _scatter((nV, nV), (C_vol, dofs3, dofs3), (C_edge, edge_dofs[e, r], edge_dofs[e, s]))

    bq = BoundaryQuadrature(mesh, spaces, data, flux, quad_degree)
    return BlockOperator(
        mesh, spaces, data, flux,
        A=A, B=B, C=C,
        M1=(bq.M1_qp @ bq.E_U).tocsr(),
        M2=(bq.M2_qp @ bq.E_U).tocsr(),
        M_Omega=M_Omega,
        M_Gamma=(bq.E_U.T @ sp.diags(bq.weights) @ bq.E_U).tocsr(),
        F=_load_vector(mesh, data.f_fun(), data_degree, "f"),
        Yd=_load_vector(mesh, data.y_desired_fun(), data_degree, "y_desired"),
        bq=bq, quad_degree=quad_degree, data_degree=data_degree,
    )


def assemble_divergence_form_b(mesh: Mesh, spaces: SpaceSet, data: ProblemData,
                               flux: FluxParameters, quad_degree: int = 4) -> sp.csr_matrix:
    """The flux coupling b assembled from its divergence shape.

    b(y, r) = - sum_K integral sqrt(eps) y div(r)
              + sum_{interior E} integral sqrt(eps) ({y} + C12 . [y]) [r]

    with the scalar jump [r] = r1.n1 + r2.n2.  Must agree entrywise with the
    integrated-by-parts shape produced by assemble_forms.
    """
    nt = mesh.num_elements
    sqrt_eps = data.sqrt_eps
    _, _, grads, int_lam = _volume_tables(mesh, quad_degree)
    # volume: -sqrt(eps) y div(r); div of basis (i, comp) is grads[:, i, comp]
    B_vol = ((-sqrt_eps * grads)[:, :, :, None] * int_lam[:, None, None, :]).reshape(nt, 6, 3)
    # trace weight of ({y} + C12 [y]): side 0 gets 1/2 + c12, side 1 gets
    # 1/2 - c12; [r] contributes r.n0 on side 0 and -r.n0 on side 1.
    _, wt, L = _edge_quadrature(mesh, quad_degree, np.arange(mesh.num_edges))
    sign = np.array([1.0, -1.0])
    ycoef = np.where(mesh.boundary_mask[:, None], 0.0,
                     np.stack([0.5 + flux.c12n, 0.5 - flux.c12n], axis=1))
    coef = sqrt_eps * sign[None, :, None] * ycoef[:, None, :]
    dofs = (6 * np.arange(nt)[:, None] + np.arange(6), 3 * np.arange(nt)[:, None] + np.arange(3))
    return _scatter((spaces.flux.num_dofs, spaces.potential.num_dofs), (B_vol,) + dofs,
                    _flux_edge_blocks(mesh, _side_pairs(mesh), _gram(wt, L), coef))


def _control_rhs(ops: BlockOperator, u):
    """Right-hand-side contributions (m1 part, m2 part) of a control.

    ``u`` may be a boundary DiscreteField, a callable on boundary points, or
    an array of values at the boundary quadrature points.
    """
    bq = ops.bq
    if isinstance(u, DiscreteField):
        coeff = u.coefficients
        return ops.M1 @ coeff, ops.M2 @ coeff
    if callable(u):
        uq = point_values(u, bq.points)
    else:
        uq = np.asarray(u, dtype=float)
        if uq.shape != (bq.num_points,):
            raise ValueError("pointwise control values must match the boundary quadrature")
    return bq.M1_qp @ uq, bq.M2_qp @ uq


def solve_state(ops: BlockOperator, u, data: ProblemData = None):
    """Solve the state system for a given control; returns (y_h, q_h).

    The flux is eliminated exactly: S y = F + r2 + B' A^-1 r1, then
    q = A^-1 (r1 - B y), with (r1, r2) the control loads.
    """
    r1, r2 = _control_rhs(ops, u)
    Ainv = _condensation_operators(ops)[0]
    y = ops.state_factorization().solve(ops.F + r2 + ops.B.T @ (Ainv @ r1))
    q = Ainv @ (r1 - ops.B @ y)
    return DiscreteField(ops.spaces.potential, y), DiscreteField(ops.spaces.flux, q)


def solve_adjoint(ops: BlockOperator, rhs_field=None, load_vector=None):
    """Solve the adjoint system for a right-hand side; returns (z_h, p_h).

    The adjoint operator is the transpose of the state operator, so
    z = S^-T g reuses the state factorization and p = A^-1 B z.
    ``rhs_field`` may be a scalar DiscreteField or a callable;
    alternatively a preassembled load vector g (tested against the scalar
    space) can be passed directly.
    """
    if load_vector is None:
        if isinstance(rhs_field, DiscreteField):
            load_vector = ops.M_Omega @ rhs_field.coefficients
        elif callable(rhs_field):
            load_vector = _load_vector(ops.mesh, rhs_field, ops.data_degree, "rhs_field")
        else:
            raise ValueError("rhs_field must be a DiscreteField or callable")
    z = ops.state_factorization().solve(load_vector, trans="T")
    p = _condensation_operators(ops)[1] @ z
    return DiscreteField(ops.spaces.potential, z), DiscreteField(ops.spaces.flux, p)


def export_matrix_market(path, matrix) -> None:
    """Write a sparse matrix in Matrix Market coordinate format."""
    scipy.io.mmwrite(path, sp.coo_matrix(matrix))
