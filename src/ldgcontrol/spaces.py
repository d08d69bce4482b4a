"""Discontinuous piecewise-linear finite element spaces and quadrature.

Three spaces are provided on a triangulation with m elements and b boundary
edges:

* scalar-element: discontinuous P1 scalars, 3 nodal values per triangle
  (3m degrees of freedom),
* vector-element: discontinuous P1 2-vectors, 6 values per triangle (6m),
* boundary-edge: discontinuous P1 scalars on boundary edges, 2 nodal values
  per edge (2b), used for boundary controls.

All local bases are nodal (vertex values), which keeps traces, jumps and
active-set logic on controls straightforward.  The scheme uses two
quadrature accuracies, tabulated for the reference triangle and generated
with Gauss-Legendre nodes on the reference edge [0, 1]: ``FORM_DEGREE``
for the bilinear forms and the pointwise (variational) controls,
``DATA_DEGREE`` for the data loads, the cost and the error norms.

Evaluation is batched: in ``eval_field(field, elements, points)`` and
``trace_on_edge(field, edges, side, s)`` the ids broadcast against the
points (..., 2) or edge parameters, and the result has the broadcast
shape (plus an axis of 2 for vector fields).  Element traces, here and in
the LDG assembly, all read the table of ``edge_trace_table``.
"""

from __future__ import annotations

import numpy as np

from .geometry import Mesh, _text_lines, data_values

__all__ = [
    "DofMap",
    "DiscreteField",
    "QuadratureRule",
    "FORM_DEGREE",
    "DATA_DEGREE",
    "SpaceSet",
    "quadrature_rule",
    "l2_project",
    "eval_field",
    "trace_on_edge",
    "barycentric",
    "edge_points",
    "edge_trace_table",
    "element_gradients",
    "write_vtk",
]

SCALAR = "scalar-element"
VECTOR = "vector-element"
BOUNDARY = "boundary-edge"

# Rule degree of the bilinear forms.  Their integrands are products of two
# P1 functions, times the velocity or reaction coefficient in the
# convection-reaction terms, so degree 4 is exact for coefficients of
# degree up to 2; the inverse of the flux mass block and the L2 projection
# use the same rule.  The points of its edge rule (3 per edge) on the
# boundary are where a variational control lives.
FORM_DEGREE = 4
# Rule degree of the data loads (f, y_desired), the tracking cost and the
# error norms.  Data and exact solutions are not polynomial, so they take
# the more accurate rule, and the cost and its adjoint gradient share
# one quadrature of the target.
DATA_DEGREE = 6

# Symmetric positive-weight rules on the reference triangle (0,0)-(1,0)-(0,1),
# listed as (points, weights) with weights summing to the reference area 1/2.


def _perm3(a):
    return [(a, a), (1.0 - 2.0 * a, a), (a, 1.0 - 2.0 * a)]


def _perm_pair(a, b):
    c = 1.0 - a - b
    return [(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)]


def _triangle_rules():
    rules = {}
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    rules[FORM_DEGREE] = (
        np.array(_perm3(a1) + _perm3(a2)),
        0.5 * np.array([w1] * 3 + [w2] * 3),
    )
    a1, w1 = 0.249286745170910, 0.116786275726379
    a2, w2 = 0.063089014491502, 0.050844906370207
    a3, b3, w3 = 0.310352451033785, 0.053145049844816, 0.082851075618374
    rules[DATA_DEGREE] = (
        np.array(_perm3(a1) + _perm3(a2) + _perm_pair(a3, b3)),
        0.5 * np.array([w1] * 3 + [w2] * 3 + [w3] * 6),
    )
    return rules


_TRIANGLE_RULES = _triangle_rules()
# Gauss-Legendre rules on [-1, 1] by degree: n points are exact to 2n - 1
_EDGE_RULES = {degree: np.polynomial.legendre.leggauss((degree + 2) // 2)
               for degree in (FORM_DEGREE, DATA_DEGREE)}


class QuadratureRule:
    """Reference-domain quadrature rule.

    Attributes:
        entity : "triangle" (reference triangle, measure 1/2) or "edge"
            (unit interval, measure 1).
        points : (k, 2) or (k,) reference coordinates.
        weights : (k,) positive weights summing to the reference measure.
        degree : highest polynomial degree integrated exactly.
    """

    def __init__(self, entity, points, weights, degree):
        self.entity = entity
        self.points = points
        self.weights = weights
        self.degree = degree


def quadrature_rule(entity: str, degree: int) -> QuadratureRule:
    """Return a rule exact at least to ``degree``, which is ``FORM_DEGREE``
    or ``DATA_DEGREE``."""
    if degree not in (FORM_DEGREE, DATA_DEGREE):
        raise ValueError(f"quadrature degree {degree} unsupported "
                         f"(need {FORM_DEGREE} or {DATA_DEGREE})")
    if entity == "triangle":
        pts, w = _TRIANGLE_RULES[degree]
        return QuadratureRule(entity, pts.copy(), w.copy(), degree)
    if entity == "edge":
        x, w = _EDGE_RULES[degree]
        # map from [-1, 1] to [0, 1]
        return QuadratureRule(entity, 0.5 * (x + 1.0), 0.5 * w, 2 * len(x) - 1)
    raise ValueError(f"unknown quadrature entity {entity!r}")


def tri_basis_values(points) -> np.ndarray:
    """Nodal P1 basis (barycentric coordinates) at reference points (k, 2)."""
    points = np.atleast_2d(points)
    return np.column_stack([1.0 - points[:, 0] - points[:, 1], points[:, 0], points[:, 1]])


def edge_basis_values(s) -> np.ndarray:
    """Nodal P1 basis on the reference edge at parameters s in [0, 1],
    shape s.shape + (2,)."""
    s = np.asarray(s, dtype=float)
    return np.stack([1.0 - s, s], axis=-1)


def element_gradients(mesh: Mesh) -> np.ndarray:
    """Physical gradients of the three nodal basis functions, (nt, 3, 2).

    The gradient of the nodal function of vertex i is the (constant) vector
    rot90(opposite edge) / (2 area).
    """
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    grads = np.empty((mesh.num_elements, 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * mesh.areas)[:, None, None]
    return grads


def physical_points(mesh: Mesh, ref_points) -> np.ndarray:
    """Map reference triangle points (k, 2) into every element, (nt, k, 2)."""
    lam = tri_basis_values(ref_points)  # (k, 3)
    return lam @ mesh.vertices[mesh.triangles]


def barycentric(mesh: Mesh, elements, points) -> np.ndarray:
    """Barycentric coordinates (..., 3) of points (..., 2) in elements (...).

    ``elements`` broadcasts against ``points`` without its last axis.
    """
    p = mesh.vertices[mesh.triangles[elements]]  # (..., 3, 2)
    d1 = p[..., 1, :] - p[..., 0, :]
    d2 = p[..., 2, :] - p[..., 0, :]
    r = np.asarray(points, dtype=float) - p[..., 0, :]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    x = (r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]) / det
    y = (d1[..., 0] * r[..., 1] - d1[..., 1] * r[..., 0]) / det
    return np.stack([1.0 - x - y, x, y], axis=-1)


def edge_points(mesh: Mesh, edges, s) -> np.ndarray:
    """Physical points a + s (b - a) at parameters s along the stored edge
    direction a -> b; ``edges`` and ``s`` broadcast, result (..., 2)."""
    a, b = (mesh.vertices[mesh.edges[edges, end]] for end in range(2))
    return a + np.asarray(s, dtype=float)[..., None] * (b - a)


def edge_trace_table(mesh: Mesh, edges, s) -> np.ndarray:
    """Scalar trace table L (n, 2, k, 3) of the elements on both sides of edges.

    L[e, side, g, i] is the nodal basis function i of the element on
    ``side`` of edge ``edges[e]`` at parameter s[g]; entries of a missing
    side are zero.
    """
    edges = np.asarray(edges)
    phi = edge_basis_values(s)  # (k, 2)
    L = np.zeros((len(edges), 2, 3, len(phi)))  # filled node by node, returned as a view
    e, side = np.nonzero(mesh.edge_elems[edges] >= 0)
    for end in range(2):
        L[e, side, mesh.edge_local[edges[e], side, end]] = phi[:, end]
    return L.swapaxes(2, 3)


class DofMap:
    """Degree-of-freedom layout of one of the three discrete spaces.

    Ordering is deterministic: entity (element or boundary edge) index
    major, local node minor; vector fields interleave the two components
    per node.

    Attributes:
        kind : one of "scalar-element", "vector-element", "boundary-edge".
        mesh : the underlying Mesh.
        num_dofs : total degree-of-freedom count.
        boundary_index : for boundary-edge maps, array mapping a global edge
            id to its compact boundary position (or -1).
    """

    def __init__(self, mesh: Mesh, kind: str):
        if kind not in (SCALAR, VECTOR, BOUNDARY):
            raise ValueError(f"unknown space kind {kind!r}")
        self.kind = kind
        self.mesh = mesh
        if kind == SCALAR:
            self.num_dofs = 3 * mesh.num_elements
        elif kind == VECTOR:
            self.num_dofs = 6 * mesh.num_elements
        else:
            self.num_dofs = 2 * len(mesh.boundary_edges)
        self.boundary_index = None
        if kind == BOUNDARY:
            self.boundary_index = np.full(mesh.num_edges, -1, dtype=np.int64)
            self.boundary_index[mesh.boundary_edges] = np.arange(len(mesh.boundary_edges))


class SpaceSet:
    """The three discrete spaces of the mixed scheme on one mesh:
    flux space (vector), potential space (scalar), control space (boundary)."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.flux = DofMap(mesh, VECTOR)
        self.potential = DofMap(mesh, SCALAR)
        self.control = DofMap(mesh, BOUNDARY)


class DiscreteField:
    """Coefficient vector over a DofMap."""

    def __init__(self, dofmap: DofMap, coefficients=None):
        self.dofmap = dofmap
        if coefficients is None:
            coefficients = np.zeros(dofmap.num_dofs)
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (dofmap.num_dofs,):
            raise ValueError(
                f"coefficient length {coefficients.shape} does not match "
                f"{dofmap.num_dofs} dofs"
            )
        self.coefficients = coefficients


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


def eval_field(field: DiscreteField, elements, points, tol: float = 1e-10):
    """Values of an element field at physical points inside given elements.

    ``elements`` broadcasts against ``points`` (..., 2) without its last
    axis; the result has the broadcast shape (a float for one scalar
    value), with a trailing axis of 2 for vector fields.  Raises
    ValueError when a point lies outside its element by more than ``tol``
    in barycentric coordinates.
    """
    dofmap = field.dofmap
    if dofmap.kind == BOUNDARY:
        raise ValueError("use trace_on_edge for boundary-edge fields")
    mesh = dofmap.mesh
    lam = barycentric(mesh, elements, points)
    elements = np.broadcast_to(elements, lam.shape[:-1])
    outside = np.any((lam < -tol) | (lam > 1.0 + tol), axis=-1)
    if outside.any():
        i = tuple(np.argwhere(outside)[0])
        point = np.broadcast_to(points, lam.shape[:-1] + (2,))[i]
        raise ValueError(f"point {point} lies outside element {elements[i]}")
    nodal = field.coefficients.reshape(mesh.num_elements, 3, -1)  # (nt, node, component)
    vals = np.einsum("...i,...ic->...c", lam, nodal[elements])
    if dofmap.kind == SCALAR:
        vals = vals[..., 0]
        return float(vals) if vals.ndim == 0 else vals
    return vals


def trace_on_edge(field: DiscreteField, edges, side: int, s):
    """Edge traces of a field at parameters s along the stored edge direction.

    ``side`` selects the first (0) or second (1) adjacent element; boundary
    edges only have side 0.  Both sides are parameterized by the same
    physical points, so jumps and averages can be formed directly.  For
    boundary-edge fields the single stored polynomial is returned.
    ``edges`` and ``s`` broadcast; the result has their broadcast shape,
    with a trailing axis of 2 for vector fields.
    """
    dofmap = field.dofmap
    mesh = dofmap.mesh
    edges, s = np.broadcast_arrays(np.asarray(edges), np.asarray(s, dtype=float))
    if dofmap.kind == BOUNDARY:
        if side != 0:
            raise ValueError("boundary-edge fields have a single side")
        b = dofmap.boundary_index[edges]
        if np.any(b < 0):
            raise ValueError(f"edge {edges[b < 0][0]} is not a boundary edge")
        ends = field.coefficients.reshape(-1, 2, 1)[b]  # (..., edge end, component)
    else:
        t = mesh.edge_elems[edges, side]
        if np.any(t == -1):
            raise ValueError(f"edge {edges[t == -1][0]} has no side {side}")
        # the values at the two edge ends: the trace table at s = 0 and s = 1
        L = edge_trace_table(mesh, edges.ravel(), [0.0, 1.0])[:, side]  # (N, 2, 3)
        nodal = field.coefficients.reshape(mesh.num_elements, 3, -1)[t.ravel()]
        ends = np.einsum("nji,nic->njc", L, nodal).reshape(edges.shape + (2, -1))
    vals = np.einsum("...j,...jc->...c", edge_basis_values(s), ends)
    return vals if dofmap.kind == VECTOR else vals[..., 0][()]


def write_vtk(path, mesh: Mesh, fields: dict) -> None:
    """Write element fields to a legacy-ASCII VTK unstructured grid.

    Vertices are replicated per element so each cell carries its own P1
    data; scalar fields emit SCALARS arrays, vector fields VECTORS with a
    zero third component.
    """
    nt = mesh.num_elements

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("piecewise linear element data\n")
        fh.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {3 * nt} double\n")
        fh.write(_text_lines("%.16e %.16e 0.0\n", mesh.vertices[mesh.triangles].reshape(-1, 2)))
        fh.write(f"CELLS {nt} {4 * nt}\n")
        fh.write(_text_lines("3 %d %d %d\n", np.arange(3 * nt).reshape(nt, 3)))
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"POINT_DATA {3 * nt}\n")
        for name, field in fields.items():
            if field.dofmap.kind == SCALAR:
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                fh.write(_text_lines("%.16e\n", field.coefficients))
            elif field.dofmap.kind == VECTOR:
                fh.write(f"VECTORS {name} double\n")
                fh.write(_text_lines("%.16e %.16e 0.0\n", field.coefficients.reshape(-1, 2)))
            else:
                raise ValueError("boundary-edge fields are not cell data")
