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

The state and adjoint solves eliminate the flux element by element and
share one factorization of S = C + B' A^-1 B (the adjoint uses its
transpose).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.io
import scipy.sparse as sp

from .geometry import EdgeClassification, Mesh, as_vector_function, classify_boundary_edges
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
        beta = data.beta_fun()
        v12 = np.asarray(data.c12_direction, dtype=float)
        tie_tol = 1e-12 * float(np.linalg.norm(v12))
        ne = mesh.num_edges
        self.c11 = data.epsilon / mesh.edge_lengths
        self.c12n = np.empty(ne)
        self.d11n = np.empty(ne)
        self.kappa_z = np.full(ne, np.nan)
        self.classification = classification
        mids = mesh.edge_midpoints()
        for e in range(ne):
            n0 = mesh.edge_normals[e, 0]
            sv = np.dot(n0, v12)
            if abs(sv) <= tie_tol:
                self.c12n[e] = data.c12_tie
            else:
                self.c12n[e] = 0.5 if sv > 0.0 else -0.5
            sb = np.dot(beta(mids[e]), n0)
            self.d11n[e] = 0.5 if sb >= 0.0 else -0.5
        for e in mesh.boundary_edges:
            bn = np.dot(beta(mids[e]), mesh.edge_normals[e, 0])
            self.kappa_z[e] = boundary_kappa(data, self.c11[e], bn,
                                             classification.is_inflow(e))


def compute_flux_parameters(mesh: Mesh, data: ProblemData,
                            classification: Optional[EdgeClassification] = None) -> FluxParameters:
    if classification is None:
        classification = classify_boundary_edges(mesh, data.beta_fun())
    return FluxParameters(mesh, data, classification)


class BoundaryQuadrature:
    """Quadrature-point tables on the boundary edges.

    Rows are boundary quadrature points (edge-major, parameter-minor).
    Besides geometric data the object carries three sparse evaluation
    operators and the derived coupling matrices:

        E_U  : (nq, 2b) control-space values at the points,
        T_pn : (nq, 6m) sqrt(eps) * (vector field . outward normal),
        T_kz : (nq, 3m) kappa * (scalar field trace),

    so that m1(u, r) = -(T_pn' W E_U u, r), m2(u, v) = (T_kz' W E_U u, v)
    and the boundary mass matrix is E_U' W E_U, with W = diag(weights).
    """

    def __init__(self, mesh, spaces, data, flux, degree):
        rule = quadrature_rule("edge", degree)
        ns = len(rule.points)
        phi = edge_basis_values(rule.points)  # (ns, 2)
        beta = data.beta_fun()
        sqrt_eps = data.sqrt_eps
        b_edges = mesh.boundary_edges
        nq = ns * len(b_edges)

        self.degree = degree
        self.edge_ids = np.repeat(b_edges, ns)
        self.s = np.tile(rule.points, len(b_edges))
        self.weights = np.empty(nq)
        self.points = np.empty((nq, 2))
        self.normals = np.empty((nq, 2))
        self.kappa = np.empty(nq)
        self.beta_n = np.empty(nq)

        rows_u, cols_u, vals_u = [], [], []
        rows_p, cols_p, vals_p = [], [], []
        rows_z, cols_z, vals_z = [], [], []
        row = 0
        for e in b_edges:
            a, b = mesh.vertices[mesh.edges[e]]
            h = mesh.edge_lengths[e]
            n0 = mesh.edge_normals[e, 0]
            t0 = mesh.edge_elems[e, 0]
            la, lb = mesh.edge_local[e, 0]
            inflow = flux.classification.is_inflow(e)
            udofs = spaces.control.edge_dofs(e)
            lam = np.zeros((ns, 3))
            lam[:, la] = phi[:, 0]
            lam[:, lb] = phi[:, 1]
            for g in range(ns):
                x = a + rule.points[g] * (b - a)
                bn = float(np.dot(beta(x), n0))
                self.weights[row] = rule.weights[g] * h
                self.points[row] = x
                self.normals[row] = n0
                self.beta_n[row] = bn
                self.kappa[row] = boundary_kappa(data, flux.c11[e], bn, inflow)
                for loc in range(2):
                    rows_u.append(row)
                    cols_u.append(udofs[loc])
                    vals_u.append(phi[g, loc])
                for j in range(3):
                    if lam[g, j] == 0.0:
                        continue
                    for comp in range(2):
                        rows_p.append(row)
                        cols_p.append(6 * t0 + 2 * j + comp)
                        vals_p.append(sqrt_eps * lam[g, j] * n0[comp])
                    rows_z.append(row)
                    cols_z.append(3 * t0 + j)
                    vals_z.append(self.kappa[row] * lam[g, j])
                row += 1

        self.num_points = nq
        self.E_U = sp.csr_matrix((vals_u, (rows_u, cols_u)), shape=(nq, spaces.control.num_dofs))
        self.T_pn = sp.csr_matrix((vals_p, (rows_p, cols_p)), shape=(nq, spaces.flux.num_dofs))
        self.T_kz = sp.csr_matrix((vals_z, (rows_z, cols_z)), shape=(nq, spaces.potential.num_dofs))
        W = sp.diags(self.weights)
        self.M1_qp = (-(self.T_pn.T) @ W).tocsr()
        self.M2_qp = (self.T_kz.T @ W).tocsr()


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
    """

    def __init__(self, mesh, spaces, data, flux, **blocks):
        self.mesh = mesh
        self.spaces = spaces
        self.data = data
        self.flux = flux
        for name, value in blocks.items():
            setattr(self, name, value)
        self._state_lu = None

    @property
    def num_elements(self):
        return self.mesh.num_elements

    def state_factorization(self) -> Factorization:
        """Factorization of the flux-eliminated state operator S = C + B' A^-1 B."""
        if self._state_lu is None:
            self._state_lu = Factorization(_condensation_operators(self)[2])
        return self._state_lu


def _scalar_values(fun, points):
    flat = points.reshape(-1, 2)
    return np.array([fun(x) for x in flat], dtype=float).reshape(points.shape[:-1])


def _triplet_buffer():
    return ([], [], [])


def _push(buf, rows, cols, vals):
    buf[0].append(np.asarray(rows).ravel())
    buf[1].append(np.asarray(cols).ravel())
    buf[2].append(np.asarray(vals).ravel())


def _to_csr(buf, shape):
    if not buf[0]:
        return sp.csr_matrix(shape)
    rows = np.concatenate(buf[0])
    cols = np.concatenate(buf[1])
    vals = np.concatenate(buf[2])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    return mat


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
    nW, nV, nU = spaces.flux.num_dofs, spaces.potential.num_dofs, spaces.control.num_dofs
    sqrt_eps = data.sqrt_eps
    s_pen = data.penalty_sign
    beta = data.beta_fun()
    alpha = data.alpha_fun()

    tri_rule = quadrature_rule("triangle", quad_degree)
    lam = tri_basis_values(tri_rule.points)  # (k, 3)
    wq = tri_rule.weights
    grads = element_gradients(mesh)  # (nt, 3, 2)
    pts = physical_points(mesh, tri_rule.points)  # (nt, k, 2)
    two_area = 2.0 * mesh.areas

    # --- volume contributions (vectorized over elements) ---
    alpha_vals = _scalar_values(alpha, pts)  # (nt, k)
    beta_vals = np.empty((nt, len(wq), 2))
    for t in range(nt):
        for g in range(len(wq)):
            beta_vals[t, g] = beta(pts[t, g])

    # A: (element mass) x I2
    mass_ref = (lam.T * wq) @ lam  # (3, 3); element mass = 2*area*mass_ref
    iA, jA, vA = [], [], []
    base6 = 6 * np.arange(nt)
    for i in range(3):
        for j in range(3):
            for comp in range(2):
                iA.append(base6 + 2 * i + comp)
                jA.append(base6 + 2 * j + comp)
                vA.append(two_area * mass_ref[i, j])
    A = sp.coo_matrix(
        (np.concatenate(vA), (np.concatenate(iA), np.concatenate(jA))), shape=(nW, nW)
    ).tocsr()

    # M_Omega: scalar mass
    base3 = 3 * np.arange(nt)
    iM, jM, vM = [], [], []
    for i in range(3):
        for j in range(3):
            iM.append(base3 + i)
            jM.append(base3 + j)
            vM.append(two_area * mass_ref[i, j])
    M_Omega = sp.coo_matrix(
        (np.concatenate(vM), (np.concatenate(iM), np.concatenate(jM))), shape=(nV, nV)
    ).tocsr()

    # B volume: sqrt(eps) grad(y_j)[comp] * integral(lam_i)
    bufB = _triplet_buffer()
    int_lam = two_area[:, None] * (wq @ lam)[None, :]  # (nt, 3): integral of lam_i
    for i in range(3):
        for comp in range(2):
            for j in range(3):
                _push(
                    bufB,
                    base6 + 2 * i + comp,
                    base3 + j,
                    sqrt_eps * grads[:, j, comp] * int_lam[:, i],
                )

    # C volume: alpha y v - y beta . grad(v)
    bufC = _triplet_buffer()
    for i in range(3):  # test v
        beta_dot_grad_i = np.einsum("tgd,td->tg", beta_vals, grads[:, i, :])  # (nt, k)
        for j in range(3):  # trial y
            integrand = alpha_vals * lam[None, :, j] * lam[None, :, i] - lam[None, :, j] * beta_dot_grad_i
            _push(bufC, base3 + i, base3 + j, two_area * (integrand @ wq))

    # --- edge contributions ---
    edge_rule = quadrature_rule("edge", quad_degree)
    se = edge_rule.points
    we = edge_rule.weights
    phi = edge_basis_values(se)  # (ks, 2)
    ks = len(se)

    for e in range(mesh.num_edges):
        h = mesh.edge_lengths[e]
        n0 = mesh.edge_normals[e, 0]
        a_pt, b_pt = mesh.vertices[mesh.edges[e]]
        xg = a_pt[None, :] + se[:, None] * (b_pt - a_pt)[None, :]
        wt = we * h
        c11 = flux.c11[e]
        boundary = mesh.boundary_mask[e]

        # scalar trace tables per side: (ks, 3)
        sides = [0] if boundary else [0, 1]
        tr = []
        for sdx in sides:
            la, lb = mesh.edge_local[e, sdx]
            L = np.zeros((ks, 3))
            L[:, la] = phi[:, 0]
            L[:, lb] = phi[:, 1]
            tr.append(L)
        elems = [mesh.edge_elems[e, sdx] for sdx in sides]
        bn0 = np.array([float(np.dot(beta(x), n0)) for x in xg])

        if not boundary:
            c12 = flux.c12n[e]
            d11 = flux.d11n[e]
            # b, interior edges: -sqrt(eps) (y1 - y2) *
            #                    [(1/2 - c12) r1.n + (1/2 + c12) r2.n]
            ysign = (+1.0, -1.0)
            rcoef = (0.5 - c12, 0.5 + c12)
            for sr in (0, 1):
                for sy in (0, 1):
                    scale = -sqrt_eps * ysign[sy] * rcoef[sr]
                    blk = np.einsum("g,gi,gj->ij", wt, tr[sr], tr[sy]) * scale  # (3, 3)
                    rows = (6 * elems[sr] + 2 * np.arange(3)[:, None, None]
                            + np.arange(2)[None, :, None]) * np.ones(3, dtype=int)[None, None, :]
                    cols = np.broadcast_to(3 * elems[sy] + np.arange(3)[None, None, :], rows.shape)
                    vals = blk[:, None, :] * n0[None, :, None]
                    _push(bufB, rows, cols, vals)
            # c, interior edges: upwinded convection + penalty
            ycoef = (0.5 + d11, 0.5 - d11)
            vsign = (+1.0, -1.0)
            for sv in (0, 1):
                for sy in (0, 1):
                    conv = np.einsum("g,g,gi,gj->ij", wt, bn0, tr[sv], tr[sy]) * (vsign[sv] * ycoef[sy])
                    pen = np.einsum("g,gi,gj->ij", wt, tr[sv], tr[sy]) * (
                        s_pen * sqrt_eps * c11 * vsign[sv] * ysign[sy]
                    )
                    rows = np.broadcast_to(3 * elems[sv] + np.arange(3)[:, None], (3, 3))
                    cols = np.broadcast_to(3 * elems[sy] + np.arange(3)[None, :], (3, 3))
                    _push(bufC, rows, cols, conv + pen)
        else:
            t0 = elems[0]
            L0 = tr[0]
            # b, boundary edges: -sqrt(eps) y r.n
            blk = np.einsum("g,gi,gj->ij", wt, L0, L0) * (-sqrt_eps)
            rows = (6 * t0 + 2 * np.arange(3)[:, None, None]
                    + np.arange(2)[None, :, None]) * np.ones(3, dtype=int)[None, None, :]
            cols = np.broadcast_to(3 * t0 + np.arange(3)[None, None, :], rows.shape)
            _push(bufB, rows, cols, blk[:, None, :] * n0[None, :, None])
            # c, boundary edges: penalty everywhere + convection on outflow
            pen = np.einsum("g,gi,gj->ij", wt, L0, L0) * (s_pen * sqrt_eps * c11)
            if not flux.classification.is_inflow(e):
                pen = pen + np.einsum("g,g,gi,gj->ij", wt, bn0, L0, L0)
            rows = np.broadcast_to(3 * t0 + np.arange(3)[:, None], (3, 3))
            cols = np.broadcast_to(3 * t0 + np.arange(3)[None, :], (3, 3))
            _push(bufC, rows, cols, pen)

    B = _to_csr(bufB, (nW, nV))
    C = _to_csr(bufC, (nV, nV))

    # --- boundary coupling via quadrature-point tables ---
    bq = BoundaryQuadrature(mesh, spaces, data, flux, quad_degree)
    M1 = (bq.M1_qp @ bq.E_U).tocsr()
    M2 = (bq.M2_qp @ bq.E_U).tocsr()
    M_Gamma = (bq.E_U.T @ sp.diags(bq.weights) @ bq.E_U).tocsr()

    # --- load vectors at data_degree ---
    data_rule = quadrature_rule("triangle", data_degree)
    lam_d = tri_basis_values(data_rule.points)
    pts_d = physical_points(mesh, data_rule.points)
    f_vals = _scalar_values(data.f_fun(), pts_d)
    yd_vals = _scalar_values(data.y_desired_fun(), pts_d)
    F = np.zeros(nV)
    Yd = np.zeros(nV)
    for i in range(3):
        F[base3 + i] = two_area * ((f_vals * lam_d[None, :, i]) @ data_rule.weights)
        Yd[base3 + i] = two_area * ((yd_vals * lam_d[None, :, i]) @ data_rule.weights)

    return BlockOperator(
        mesh, spaces, data, flux,
        A=A, B=B, C=C, M1=M1, M2=M2, M_Omega=M_Omega, M_Gamma=M_Gamma,
        F=F, Yd=Yd, bq=bq, quad_degree=quad_degree, data_degree=data_degree,
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
    nW, nV = spaces.flux.num_dofs, spaces.potential.num_dofs
    sqrt_eps = data.sqrt_eps
    tri_rule = quadrature_rule("triangle", quad_degree)
    lam = tri_basis_values(tri_rule.points)
    wq = tri_rule.weights
    grads = element_gradients(mesh)
    two_area = 2.0 * mesh.areas
    base3 = 3 * np.arange(nt)
    base6 = 6 * np.arange(nt)

    buf = _triplet_buffer()
    int_lam = two_area[:, None] * (wq @ lam)[None, :]
    # volume: -sqrt(eps) y div(r); div of basis (i, comp) is grads[:, i, comp]
    for i in range(3):
        for comp in range(2):
            for j in range(3):
                _push(
                    buf,
                    base6 + 2 * i + comp,
                    base3 + j,
                    -sqrt_eps * grads[:, i, comp] * int_lam[:, j],
                )

    edge_rule = quadrature_rule("edge", quad_degree)
    se, we = edge_rule.points, edge_rule.weights
    phi = edge_basis_values(se)
    ks = len(se)
    for e in mesh.interior_edges:
        h = mesh.edge_lengths[e]
        n0 = mesh.edge_normals[e, 0]
        wt = we * h
        c12 = flux.c12n[e]
        tr = []
        for sdx in (0, 1):
            la, lb = mesh.edge_local[e, sdx]
            L = np.zeros((ks, 3))
            L[:, la] = phi[:, 0]
            L[:, lb] = phi[:, 1]
            tr.append(L)
        elems = mesh.edge_elems[e]
        # trace weight of ({y} + C12 [y]): side 0 gets 1/2 + c12, side 1 gets
        # 1/2 - c12; [r] contributes r.n0 on side 0 and -r.n0 on side 1.
        ycoef = (0.5 + c12, 0.5 - c12)
        rsign = (+1.0, -1.0)
        for sr in (0, 1):
            for sy in (0, 1):
                scale = sqrt_eps * rsign[sr] * ycoef[sy]
                blk = np.einsum("g,gi,gj->ij", wt, tr[sr], tr[sy]) * scale
                rows = (6 * elems[sr] + 2 * np.arange(3)[:, None, None]
                        + np.arange(2)[None, :, None]) * np.ones(3, dtype=int)[None, None, :]
                cols = np.broadcast_to(3 * elems[sy] + np.arange(3)[None, None, :], rows.shape)
                _push(buf, rows, cols, blk[:, None, :] * n0[None, :, None])
    return _to_csr(buf, (nW, nV))


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
        uq = np.array([u(x) for x in bq.points], dtype=float)
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
    nV = ops.spaces.potential.num_dofs
    if load_vector is None:
        if isinstance(rhs_field, DiscreteField):
            load_vector = ops.M_Omega @ rhs_field.coefficients
        elif callable(rhs_field):
            mesh = ops.mesh
            rule = quadrature_rule("triangle", ops.data_degree)
            lam_d = tri_basis_values(rule.points)
            pts_d = physical_points(mesh, rule.points)
            gv = _scalar_values(rhs_field, pts_d)
            load_vector = np.zeros(nV)
            base3 = 3 * np.arange(mesh.num_elements)
            for i in range(3):
                load_vector[base3 + i] = 2.0 * mesh.areas * ((gv * lam_d[None, :, i]) @ rule.weights)
        else:
            raise ValueError("rhs_field must be a DiscreteField or callable")
    z = ops.state_factorization().solve(load_vector, trans="T")
    p = _condensation_operators(ops)[1] @ z
    return DiscreteField(ops.spaces.potential, z), DiscreteField(ops.spaces.flux, p)


def export_matrix_market(path, matrix) -> None:
    """Write a sparse matrix in Matrix Market coordinate format."""
    scipy.io.mmwrite(path, sp.coo_matrix(matrix))
