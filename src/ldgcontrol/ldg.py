"""Assembly of the local discontinuous Galerkin (LDG) forms of one mesh level.

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
               - sum_{interior E} sqrt(eps) C11 integral [y] . [v]
               + sum_{outflow E} integral (beta . n) y v
               - sum_{boundary E} sqrt(eps) C11 integral y v,
    m1(u, r) = - sum_{boundary E} integral sqrt(eps) u r.n,
    m2(u, v) = sum_{boundary E} integral kappa u v,
        with kappa = -sqrt(eps) C11 + [edge inflow] |beta . n|,
    F(v)     = integral f v.

b is assembled in its integrated-by-parts shape above; the tests check
it against the equivalent divergence shape (volume term -y div(r),
interior-edge upwinded trace, no boundary term).  The edge
coefficients are C11 = eps/h_E, C12 . n = sign(n . v12)/2 for a fixed
auxiliary direction v12 (0, a central flux, on edges with n orthogonal
to v12), and D11 . n = sign(n . beta)/2 (upwinding).  The penalty enters
with the numerical flux q_hat = q - C11 (y - u) n, negatively, balanced
by the control data.

``FluxParameters`` owns the edge coefficients C11, C12 . n and D11 . n;
the inflow mask of the boundary edges, read from the same array of
beta(midpoint) . n as D11; and the one formula of kappa
(``FluxParameters.kappa``), which each boundary term evaluates at its own
points.  The forms use ``spaces.FORM_DEGREE`` rules and
the data loads the ``DATA_DEGREE`` rule of ``spaces.domain_data_rule``.

Assembly is batched over all elements and, in chunks of ``_EDGE_CHUNK``
edges, over all edges.  Each edge side gets a trace table L[e, side, g, i]
(the nodal basis function i of that side's element at edge quadrature
point g), filled from ``Mesh.edge_local``; every edge term is a (test
side, trial side) block of weighted products of these tables.  Boundary
edges need no branch of their own: their terms are the side-0 block of
the interior formulas, with the b weight 1/2 - C12 . n replaced by 1, and
with the upwind factor 1/2 + D11 . n of c equal to 1 on outflow and 0 on
inflow edges.  The volume terms and the loads are two-operand sums over
the rule points.

Every matrix is built with one idiom: a ``geometry.BlockLayout`` of
fixed-size element blocks, whose data is one array (block row, slot,
block).  B (6 x 3 blocks) and C (3 x 3) sit on the element adjacency
``Mesh.adjacency`` (each element and its edge neighbours, built once per
mesh): their data start as the volume blocks on the diagonal.  The edge
pass writes each block by indexed assignment: the block of an interior
edge between its two elements is the only term in its slot and is
assigned there, and the (r, r) blocks are added to the diagonal one
place at a time (each element's first, second and third edge,
``ElementAdjacency.edge_order``), so every diagonal block sums its edges
in increasing edge order, as the chunks come.  The places of the
blocks are computed once per assembly (``_edge_chunks``).  A, M_Omega and
the boundary tables E_U, T_pn and T_kz hold one block per block row, so
their data are the local blocks themselves.  ``BlockLayout.matrix`` drops
the stored zeros (the padding, the trace of the vertex opposite an edge,
...), so no matrix goes through COO triplets and a sort.

Data (beta, alpha, f, y_desired, a callable control) is a constant or a callable on whole point arrays
(..., 2); ``geometry.data_values`` evaluates it, once per stacked array,
and checks the shape and finiteness of the values.  The volume terms
reject a negative alpha.

A and A^-1 (``_flux_block_inverse``) scale one reference mass per
element.  This module builds a level and solves nothing: ``linsolve``
factors S = C + B' A^-1 B and owns every solve, the state solve too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import BlockLayout, Mesh, data_values
from .spaces import (
    FORM_DEGREE,
    SpaceSet,
    domain_data_rule,
    edge_basis_values,
    edge_points,
    edge_trace_table,
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
    "assemble_forms",
    "export_matrix_market",
]


# Difference step and absolute tolerance of the divergence check of beta
_DIV_STEP = 1e-6
_DIV_TOL = 1e-8


@dataclass
class ProblemData:
    """Data of the boundary control problem.

    The four data fields are constants or callables on point arrays: a
    callable takes points of shape (..., 2) and returns shape (...), or
    (..., 2) for beta (see ``geometry.data_values``).

    Attributes:
        epsilon : diffusion parameter (> 0, finite).
        omega : control regularization weight (> 0, finite).
        beta : velocity field, callable or a constant 2-vector; must be
            divergence free.
        alpha : reaction coefficient, callable or constant (>= 0, checked
            where the volume terms evaluate it).
        f : source term, callable or constant.
        y_desired : target state, callable or constant.
        u_lower / u_upper : control bounds (-inf/+inf for unconstrained;
            never NaN).
        c12_direction : auxiliary direction fixing the C12 edge switches; the
            default has an irrational slope so it is never orthogonal to an
            axis-aligned or diagonal edge normal; edges with a normal
            orthogonal to it take the central flux C12.n = 0.
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

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("diffusion parameter must be positive and finite")
        if not (np.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError("regularization parameter must be positive and finite")
        if np.isnan(self.u_lower) or np.isnan(self.u_upper):
            raise ValueError("control bounds must not be NaN")
        if self.u_lower > self.u_upper:
            raise ValueError("lower control bound exceeds the upper bound")
        direction = np.asarray(self.c12_direction, dtype=float)
        if not np.all(np.isfinite(direction)):
            raise ValueError("c12_direction must be finite")
        if not np.any(direction):
            raise ValueError("c12_direction must be a nonzero vector")

    @property
    def sqrt_eps(self) -> float:
        return float(np.sqrt(self.epsilon))

    def check_divergence_free(self, points) -> None:
        """Assert div(beta) = 0 by central differences at sample points (n, 2).

        Rounding the beta values perturbs each difference quotient by about
        eps |beta| / step for the step ``_DIV_STEP``, so at each sample the
        absolute tolerance ``_DIV_TOL`` is widened by 16 eps max|beta| / step
        over that sample's four shifted points.
        """
        points = np.asarray(points, dtype=float)
        step = _DIV_STEP
        # beta at x + step e1, x - step e1, x + step e2, x - step e2
        shifted = points[:, None, :] + step * np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = data_values(self.beta, shifted, "beta", vector=True)
        div = ((b[:, 0, 0] - b[:, 1, 0]) / (shifted[:, 0, 0] - shifted[:, 1, 0])
               + (b[:, 2, 1] - b[:, 3, 1]) / (shifted[:, 2, 1] - shifted[:, 3, 1]))
        bound = _DIV_TOL + 16 * np.finfo(float).eps * np.abs(b).max(axis=(1, 2)) / step
        bad = np.abs(div) > bound
        if bad.any():
            raise ValueError(f"velocity field is not divergence free at {points[bad][0]}")


class FluxParameters:
    """Per-edge numerical flux coefficients.

    Attributes:
        c11 : (ne,) penalty coefficients eps/h_E (all edges).
        c12n : (ne,) value of C12 . n for the first adjacent side's normal;
            the second side sees the opposite sign.
        d11n : (ne,) value of D11 . n for the first side (upwind switch).
        inflow : (ne,) bool, the boundary edges with beta(midpoint) . n < 0
            for the outward normal n (ties count as outflow); the same sign
            sets d11n.
        mesh, data : the mesh and ProblemData the coefficients belong to.

    ``kappa`` evaluates the boundary weight of the control at any boundary
    points.
    """

    def __init__(self, mesh, data):
        self.mesh, self.data = mesh, data
        v12 = np.asarray(data.c12_direction, dtype=float)
        n0 = mesh.edge_normals[:, 0]
        sv = n0 @ v12
        beta_mid = data_values(data.beta, mesh.edge_midpoints(), "beta", vector=True)
        beta_n = np.sum(beta_mid * n0, axis=1)
        self.c11 = data.epsilon / mesh.edge_lengths
        self.c12n = np.where(np.abs(sv) <= 1e-12 * float(np.linalg.norm(v12)), 0.0,
                             np.where(sv > 0.0, 0.5, -0.5))
        self.d11n = np.where(beta_n >= 0.0, 0.5, -0.5)
        self.inflow = mesh.boundary_mask & (beta_n < 0.0)

    def kappa(self, edges, s):
        """Boundary weight -sqrt(eps) C11 + [inflow] |beta . n| at
        parameters ``s`` of boundary ``edges`` (they broadcast), with beta
        taken at those points and the inflow flag per edge."""
        data = self.data
        n = self.mesh.edge_normals[edges, 0]
        beta = data_values(data.beta, edge_points(self.mesh, edges, s), "beta", vector=True)
        beta_n = np.sum(beta * n, axis=-1)
        return (-data.sqrt_eps * self.c11[edges]
                + np.where(self.inflow[edges], np.abs(beta_n), 0.0))


def _edge_quadrature(mesh, edges):
    """Points, weights and scalar trace table of the form rule on ``edges``.

    Returns xg (n, k, 2), wt (n, k) and L (n, 2, k, 3), where L[e, side, g, i]
    is the nodal basis function i of the element on ``side`` of edge
    ``edges[e]`` at its quadrature point g (zero where the side is missing).
    """
    rule = quadrature_rule("edge", FORM_DEGREE)
    a, b = (mesh.vertices[mesh.edges[edges, end]] for end in range(2))
    xg = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    wt = rule.weights[None, :] * mesh.edge_lengths[edges, None]
    return xg, wt, edge_trace_table(mesh, edges, rule.points)


def _gram(wt, L):
    """Edge blocks G[e, r, s, i, j] = sum_g wt[e, g] L[e, r, g, i] L[e, s, g, j]."""
    ne, _, k, _ = L.shape
    wL = (wt[:, None, :, None] * L).swapaxes(2, 3).reshape(ne, 6, k)  # rows (r, i)
    G = wL @ L.swapaxes(1, 2).reshape(ne, k, 6)  # columns (s, j)
    return np.ascontiguousarray(G.reshape(ne, 2, 3, 2, 3).swapaxes(2, 3))


# edges per chunk of the edge terms: their tables live one chunk at a time
_EDGE_CHUNK = 512


def _edge_chunks(mesh):
    """The edge ids in increasing runs of ``_EDGE_CHUNK``, with their rule
    (``_edge_quadrature``) and the places of their blocks in a matrix on
    ``mesh.adjacency``: yields (edges, xg, wt, L, places).

    ``places`` is (between, own), lists of pairs (slots, blocks) of flat
    indices into the ``BlockLayout`` blocks of the matrix (nt * 4, slot
    minor) and into the chunk's edge blocks (n * 4, (test side, trial
    side) minor): ``between`` for the (0, 1) and (1, 0) blocks between the
    elements of each interior edge, ``own`` for the (r, r) blocks of the
    elements' first, second and third edges (``ElementAdjacency.edge_order``).
    They are found once for all chunks.
    """
    adjacency, elems = mesh.adjacency, mesh.edge_elems
    width = adjacency.neighbours.shape[1]
    inner = mesh.interior_edges
    between = [(inner, width * elems[inner, r] + adjacency.edge_slots[inner, r, 1 - r],
                4 * inner + 1 + r) for r in range(2)]
    own = []
    for place in range(3):
        e, r = np.nonzero(adjacency.edge_order == place)
        t = elems[e, r]
        own.append((e, width * t + adjacency.diagonal[t], 4 * e + 3 * r))
    starts = np.arange(0, mesh.num_edges, _EDGE_CHUNK)
    cuts = [np.searchsorted(e, np.append(starts, mesh.num_edges)) for e, _, _ in between + own]
    for c, start in enumerate(starts):
        edges = np.arange(start, min(start + _EDGE_CHUNK, mesh.num_edges))
        runs = [(slots[cut[c]:cut[c + 1]], blocks[cut[c]:cut[c + 1]] - 4 * start)
                for (_, slots, blocks), cut in zip(between + own, cuts)]
        yield (edges,) + _edge_quadrature(mesh, edges) + ((runs[:2], runs[2:]),)


def _flux_edge_blocks(normals, G, coef):
    """Edge part of a flux coupling: (coef G)_{ij} n0 on (flux test, scalar
    trial), for the blocks G (..., 3, 3) with coefficients coef (...) and
    the edge normals n0 (..., 2); returns blocks (..., 6, 3)."""
    blk = G * coef[..., None, None]
    out = np.empty(blk.shape[:-1] + (2, 3))
    for comp in range(2):
        np.multiply(blk, normals[..., comp, None, None], out=out[..., comp, :])
    return out.reshape(G.shape[:-2] + (6, 3))


def _place_edge_blocks(data, places, blocks):
    """Put the edge blocks (n, 2, 2, I, J) of a chunk into ``data``, the
    ``BlockLayout`` blocks of a matrix on the element adjacency, at the
    ``places`` of ``_edge_chunks``.

    The block of an interior edge between its two elements is the only
    term in its slot, so it is assigned.  The (r, r) blocks are added to
    the diagonal of element edge_elems[e, r] one place at a time: each
    element's first edge, then its second, then its third.  The chunks
    arrive in increasing edge order, so every diagonal block sums its
    element's edges in that order, and no element appears twice in one
    addition.
    """
    I, J = blocks.shape[-2:]
    data, blocks = data.reshape(-1, I, J), blocks.reshape(-1, I, J)
    between, own = places
    for slots, edge_blocks in between:
        data[slots] = blocks[edge_blocks]
    for slots, edge_blocks in own:
        data[slots] += blocks[edge_blocks]


def _block_rows(blocks, columns, num_cols):
    """CSR matrix of one block per block row: blocks[t] (I, J) at block row
    t and block column columns[t], stored zeros dropped."""
    n, I, J = blocks.shape
    return BlockLayout(columns[:, None], (I, J)).matrix(blocks[:, None], (n * I, num_cols))


def _load_vector(mesh, fun, name):
    """(fun, v) for every scalar basis function v, by the data rule
    (``data_values`` checks the values of the data ``name``)."""
    rule, lam, pts = domain_data_rule(mesh)
    vals = data_values(fun, pts, name)  # (nt, k)
    load = np.einsum("tg,gi->ti", vals, rule.weights[:, None] * lam)
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

    def __init__(self, spaces, flux):
        mesh, data = flux.mesh, flux.data
        ids = mesh.boundary_edges
        xg, wt, L = _edge_quadrature(mesh, ids)
        nq = wt.size
        n0 = mesh.edge_normals[ids, 0]
        s = quadrature_rule("edge", FORM_DEGREE).points
        kappa = flux.kappa(ids[:, None], s)
        L0 = L[:, 0]  # (b, k, 3)
        t0 = mesh.edge_elems[ids, 0]
        phi = edge_basis_values(s)

        # one (k, J) block per edge: its points' rows, the columns of its
        # control dofs or of its element
        self.num_points = nq
        self.points = xg.reshape(nq, 2)
        self.weights = wt.ravel()
        self.E_U = _block_rows(np.broadcast_to(phi, wt.shape + (2,)),
                               spaces.control.boundary_index[ids], spaces.control.num_dofs)
        self.T_pn = _block_rows(
            (data.sqrt_eps * L0[:, :, :, None] * n0[:, None, None, :]).reshape(wt.shape + (6,)),
            t0, spaces.flux.num_dofs)
        self.T_kz = _block_rows(kappa[:, :, None] * L0, t0, spaces.potential.num_dofs)
        W = sp.diags(self.weights)
        self.M1_qp = (-(self.T_pn.T) @ W).tocsr()
        self.M2_qp = (self.T_kz.T @ W).tocsr()


@dataclass(eq=False, repr=False)
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

    Every matrix is canonical CSR (sorted indices, no duplicates) with no
    stored zeros; A, B, C and M_Omega have the element-block pattern of
    ``Mesh.adjacency`` less those zeros.

    A is never stored: each read builds it from the reference mass that
    ``_flux_block_inverse`` inverts.  ``reduction`` is a slot that belongs
    to ``linsolve``: its ``_reduction`` keeps there, on the first solve,
    the level's ``linsolve.Reduction`` (the factorization of S in its
    nested-dissection order, Mt and the variational load).  That build
    consumes C, summed into S: a later read of ``C`` raises
    ``AttributeError``.  An operator set lives as long as its caller holds
    it; a solution does not hold it (``control.DiscreteSolution``).
    """

    mesh: Mesh
    spaces: SpaceSet
    data: ProblemData
    flux: FluxParameters
    B: sp.csr_matrix
    C: sp.csr_matrix
    M1: sp.csr_matrix
    M2: sp.csr_matrix
    M_Omega: sp.csr_matrix
    M_Gamma: sp.csr_matrix
    F: np.ndarray
    Yd: np.ndarray
    bq: BoundaryQuadrature
    reduction: object = field(default=None, init=False)

    @property
    def A(self):
        mesh = self.mesh
        mass = (2.0 * mesh.areas)[:, None, None] * _reference_mass()
        return _block_rows((mass[:, :, None, :, None] * np.eye(2)[:, None, :]).reshape(-1, 6, 6),
                           np.arange(mesh.num_elements), 6 * mesh.num_elements)

    @property
    def num_elements(self):
        return self.mesh.num_elements


def _reference_mass():
    """The P1 mass matrix (3, 3) of the reference triangle by the form rule;
    an element's scalar mass block is 2 area times it."""
    rule = quadrature_rule("triangle", FORM_DEGREE)
    lam = tri_basis_values(rule.points)
    return (lam.T * rule.weights) @ lam


def _flux_block_inverse(ops):
    """Exact inverse of the vector mass block, one 6x6 block per element.

    The flux bilinear form is the plain (weighted) vector L2 inner product,
    so on every element the block is 2*area times the reference-triangle
    linear mass matrix tensored with the 2x2 identity.  Inverting the 3x3
    reference matrix once (``_reference_mass``) and scaling gives the
    sparse global inverse; the zeros of the identity factor are not stored,
    so each element keeps 18 of its 36 entries.
    """
    mesh = ops.mesh
    nt = mesh.num_elements
    minv = np.linalg.inv(_reference_mass())
    # row 6 t + 2 i + c holds minv[i, j] / (2 area) at column 6 t + 2 j + c
    n = 6 * nt
    index = np.int32 if 3 * n < 2**31 else np.int64
    vals = np.empty((nt, 3, 2, 3))
    vals[:, :, 0] = minv / (2.0 * mesh.areas)[:, None, None]
    vals[:, :, 1] = vals[:, :, 0]
    cols = np.empty((nt, 3, 2, 3), dtype=index)
    cols[:] = 6 * np.arange(nt, dtype=index)[:, None, None, None]
    cols += 2 * np.arange(3, dtype=index) + np.arange(2, dtype=index)[:, None]
    return sp.csr_matrix((vals.reshape(-1), cols.reshape(-1),
                          np.arange(0, 3 * n + 1, 3, dtype=index)), shape=(n, n))


def _volume_tables(mesh):
    """Element rule data: (rule, lam (k, 3), grads (nt, 3, 2), int_lam (nt, 3))."""
    rule = quadrature_rule("triangle", FORM_DEGREE)
    lam = tri_basis_values(rule.points)
    int_lam = (2.0 * mesh.areas)[:, None] * (rule.weights @ lam)[None, :]
    return rule, lam, element_gradients(mesh), int_lam


def _volume_blocks(mesh, data):
    """Element blocks of the volume terms: mass (nt, 3, 3), b (nt, 6, 3)
    and c (nt, 3, 3)."""
    nt = mesh.num_elements
    rule, lam, grads, int_lam = _volume_tables(mesh)
    pts = physical_points(mesh, rule.points)  # (nt, k, 2)
    two_area = 2.0 * mesh.areas
    mass = two_area[:, None, None] * _reference_mass()
    # b: sqrt(eps) grad(y_j)[comp] * integral(lam_i), row 2i + comp
    B_vol = ((data.sqrt_eps * grads.transpose(0, 2, 1))[:, None]
             * int_lam[:, :, None, None]).reshape(nt, 6, 3)
    # c: alpha y v - y beta . grad(v), test v = lam_i, trial y = lam_j, as
    # two sums over the rule points g: alpha_g w_g lam_i lam_j and
    # (beta . grad(lam_i))_g w_g lam_j.  They are einsums, not BLAS
    # products: a first large BLAS product costs the process the memory
    # of its work buffers.
    beta_grad = np.einsum("tgd,tid->tgi", data_values(data.beta, pts, "beta", vector=True),
                          grads)  # (nt, k, 3)
    alpha = data_values(data.alpha, pts, "alpha")
    bad = alpha < 0.0
    if bad.any():
        raise ValueError(f"alpha is negative at {int(bad.sum())} of {bad.size} points "
                         f"(first at x = {pts[bad][0].tolist()})")
    w_lam = rule.weights[:, None] * lam
    reaction = np.einsum("tg,gk->tk", alpha, (w_lam[:, :, None] * lam[:, None, :]).reshape(-1, 9))
    convection = np.einsum("tgi,gj->tij", beta_grad, w_lam)
    C_vol = two_area[:, None, None] * (reaction.reshape(nt, 3, 3) - convection)
    return mass, B_vol, C_vol


def _coupling(mesh, block_shape, diagonal):
    """Layout and data of a matrix of ``block_shape`` blocks on the element
    adjacency, with the element blocks ``diagonal`` (nt, I, J) in place and
    zeros elsewhere, for the edge blocks to be placed into."""
    adjacency = mesh.adjacency
    layout = BlockLayout(adjacency.neighbours, block_shape)
    data = layout.zeros()
    data[np.arange(mesh.num_elements), adjacency.diagonal] = diagonal
    return layout, data


def assemble_forms(mesh: Mesh, data: ProblemData) -> BlockOperator:
    """Assemble every bilinear form and load vector of the scheme on the
    spaces of ``mesh``.

    Bilinear terms use ``FORM_DEGREE`` rules; the data loads f and
    y_desired use ``DATA_DEGREE`` rules, like the cost (see ``spaces``).
    """
    spaces = SpaceSet(mesh)
    flux = FluxParameters(mesh, data)
    data.check_divergence_free(mesh.vertices[mesh.triangles].mean(axis=1))

    nW, nV = spaces.flux.num_dofs, spaces.potential.num_dofs
    sqrt_eps = data.sqrt_eps
    mass, B_vol, C_vol = _volume_blocks(mesh, data)
    M_Omega = _block_rows(mass, np.arange(mesh.num_elements), nV)
    del mass
    B_layout, B_data = _coupling(mesh, (6, 3), B_vol)
    C_layout, C_data = _coupling(mesh, (3, 3), C_vol)
    del B_vol, C_vol

    # --- edge blocks, one per (edge, test side, trial side) ---
    # Side 0 of a boundary edge carries the boundary terms: rcoef = 1 in b,
    # and the upwind factor 1/2 + D11.n in c is 1 on outflow, 0 on inflow.
    sign = np.array([1.0, -1.0])
    # b: -sqrt(eps) (y1 - y2) [(1/2 - c12) r1.n + (1/2 + c12) r2.n]
    rcoef = np.stack([np.where(mesh.boundary_mask, 1.0, 0.5 - flux.c12n), 0.5 + flux.c12n], axis=1)
    coef_B = -sqrt_eps * sign[None, None, :] * rcoef[:, :, None]
    # c: ({y} + D11 . [y]) beta . [v] and -sqrt(eps) C11 [y] . [v]
    ycoef = np.stack([0.5 + flux.d11n, 0.5 - flux.d11n], axis=1)
    pen = -sqrt_eps * flux.c11
    sign_rs = sign[:, None] * sign[None, :]
    for edges, xg, wt, L, places in _edge_chunks(mesh):
        n0 = mesh.edge_normals[edges, 0]
        beta_n = np.einsum("egd,ed->eg", data_values(data.beta, xg, "beta", vector=True), n0)
        G = _gram(wt, L)
        _place_edge_blocks(B_data, places, _flux_edge_blocks(n0[:, None, None], G, coef_B[edges]))
        G *= (pen[edges, None, None] * sign_rs)[..., None, None]
        G += _gram(wt * beta_n, L) * (sign[:, None] * ycoef[edges, None, :])[..., None, None]
        _place_edge_blocks(C_data, places, G)
    # each full-block buffer is released once compacted into its matrix
    B = B_layout.matrix(B_data, (nW, nV))
    del B_data
    C = C_layout.matrix(C_data, (nV, nV))
    del C_data

    bq = BoundaryQuadrature(spaces, flux)
    return BlockOperator(
        mesh, spaces, data, flux,
        B=B, C=C,
        M1=(bq.M1_qp @ bq.E_U).sorted_indices(),
        M2=(bq.M2_qp @ bq.E_U).sorted_indices(),
        M_Omega=M_Omega,
        M_Gamma=(bq.E_U.T @ sp.diags(bq.weights) @ bq.E_U).tocsr(),
        F=_load_vector(mesh, data.f, "f"),
        Yd=_load_vector(mesh, data.y_desired, "y_desired"),
        bq=bq,
    )


def export_matrix_market(path, matrix) -> None:
    """Write a sparse matrix in Matrix Market coordinate format."""
    import scipy.io  # only here: it adds about 17 ms to every start

    scipy.io.mmwrite(path, sp.coo_matrix(matrix))
