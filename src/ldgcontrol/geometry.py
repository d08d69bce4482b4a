"""Triangular meshes of convex polygons with oriented edge data.

Meshes are conforming simplicial triangulations (no hanging nodes) of a
convex polygonal domain.  Besides the usual vertex/triangle arrays, every
mesh carries a complete edge data structure: endpoint indices, the one or
two adjacent elements, outward unit normals per adjacent element, edge
lengths and an interior/boundary flag.  This is the information a
discontinuous Galerkin assembly needs to evaluate jumps, averages and
numerical fluxes on every edge.

Uniform (red) refinement splits each triangle into four congruent children
and keeps a parent-child map, so fields computed on a refined mesh can be
evaluated inside any element of a coarser mesh of the same hierarchy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DomainSpec",
    "Mesh",
    "EdgeClassification",
    "build_unit_square_mesh",
    "build_polygon_mesh",
    "refine_uniform",
    "classify_boundary_edges",
    "point_values",
    "write_mesh_text",
]


class DomainSpec:
    """A convex polygonal computational domain.

    Attributes:
        vertices : (k, 2) float array, polygon corners in counterclockwise
            order.
        name : str tag used in output files.
    """

    def __init__(self, vertices, name: str = "polygon"):
        vertices = np.asarray(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2 or vertices.shape[0] < 3:
            raise ValueError("domain needs at least 3 planar vertices")
        k = vertices.shape[0]
        for i in range(k):
            if np.allclose(vertices[i], vertices[(i + 1) % k]):
                raise ValueError("consecutive polygon vertices coincide")
        # Convexity and counterclockwise orientation: every cross product of
        # consecutive edge vectors must be positive (interior angle < pi).
        for i in range(k):
            a = vertices[i]
            b = vertices[(i + 1) % k]
            c = vertices[(i + 2) % k]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross <= 0.0:
                raise ValueError(
                    "polygon must be convex and counterclockwise "
                    f"(violated at vertex {(i + 1) % k})"
                )
        self.vertices = vertices
        self.name = name

    @property
    def area(self) -> float:
        x = self.vertices[:, 0]
        y = self.vertices[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class Mesh:
    """Conforming triangulation with oriented edge data.

    Attributes:
        vertices : (nv, 2) float array of vertex coordinates.
        triangles : (nt, 3) int array of vertex indices, counterclockwise.
        areas : (nt,) element areas (all positive).
        diameters : (nt,) element diameters (longest edge).
        h : float, max of diameters.
        edges : (ne, 2) int array of endpoint indices; the direction a -> b
            is the counterclockwise traversal of the first adjacent element.
        edge_elems : (ne, 2) int, adjacent element ids; second entry is -1
            on boundary edges.
        edge_local : (ne, 2, 2) int, local indices (within the adjacent
            element's vertex triple) of the edge endpoints a and b, for each
            of the two sides; -1 where there is no second element.
        edge_normals : (ne, 2, 2) float, unit normal outward from each
            adjacent element; the two rows of an interior edge are negatives
            of each other.
        edge_lengths : (ne,) edge lengths h_E.
        boundary_mask : (ne,) bool, True on boundary edges.
        boundary_edges : int array of boundary edge ids (increasing).
        interior_edges : int array of interior edge ids (increasing).
        parent : (nt,) int array mapping each element to its parent element
            in ``parent_mesh``, or None for a root mesh.
        parent_mesh : the coarser mesh this one refines, or None.
    """

    def __init__(self, vertices, triangles, parent=None, parent_mesh=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (nt, 3) array")
        self.parent = None if parent is None else np.asarray(parent, dtype=np.int64)
        self.parent_mesh = parent_mesh

        tri_pts = self.vertices[self.triangles]  # (nt, 3, 2)
        d1 = tri_pts[:, 1] - tri_pts[:, 0]
        d2 = tri_pts[:, 2] - tri_pts[:, 0]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(self.areas <= 0.0):
            raise ValueError("all triangles must be counterclockwise with positive area")
        side = np.stack(
            [
                tri_pts[:, 2] - tri_pts[:, 1],
                tri_pts[:, 0] - tri_pts[:, 2],
                tri_pts[:, 1] - tri_pts[:, 0],
            ],
            axis=1,
        )
        self.diameters = np.sqrt(np.max(np.sum(side**2, axis=2), axis=1))
        self.h = float(np.max(self.diameters))
        self._build_edges()

    @property
    def num_elements(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def _build_edges(self):
        nt = self.num_elements
        # Local edge k of an element runs from vertex k+1 to vertex k+2
        # (mod 3), i.e. it is opposite local vertex k and is traversed in the
        # element's counterclockwise order.
        seen: dict[tuple[int, int], int] = {}
        edges = []
        edge_elems = []
        edge_local = []
        for t in range(nt):
            tri = self.triangles[t]
            for k in range(3):
                a = int(tri[(k + 1) % 3])
                b = int(tri[(k + 2) % 3])
                key = (a, b) if a < b else (b, a)
                if key not in seen:
                    seen[key] = len(edges)
                    edges.append((a, b))
                    edge_elems.append([t, -1])
                    edge_local.append([[(k + 1) % 3, (k + 2) % 3], [-1, -1]])
                else:
                    e = seen[key]
                    if edge_elems[e][1] != -1:
                        raise ValueError(f"edge {key} adjacent to more than two elements")
                    if edges[e] != (b, a):
                        raise ValueError(
                            f"edge {key} traversed twice in the same direction; "
                            "triangulation is not conforming"
                        )
                    edge_elems[e][1] = t
                    # Stored direction is a -> b from the first element; in
                    # this element the endpoints appear reversed.
                    edge_local[e][1] = [(k + 2) % 3, (k + 1) % 3]
        self.edges = np.array(edges, dtype=np.int64)
        self.edge_elems = np.array(edge_elems, dtype=np.int64)
        self.edge_local = np.array(edge_local, dtype=np.int64)

        tang = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_lengths = np.sqrt(np.sum(tang**2, axis=1))
        n0 = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / self.edge_lengths[:, None]
        self.edge_normals = np.stack([n0, -n0], axis=1)
        self.boundary_mask = self.edge_elems[:, 1] == -1
        self.boundary_edges = np.nonzero(self.boundary_mask)[0]
        self.interior_edges = np.nonzero(~self.boundary_mask)[0]

    def edge_midpoints(self, edge_ids=None):
        ids = np.arange(self.num_edges) if edge_ids is None else edge_ids
        return 0.5 * (self.vertices[self.edges[ids, 0]] + self.vertices[self.edges[ids, 1]])

    def total_area(self) -> float:
        return float(np.sum(self.areas))


class EdgeClassification:
    """Inflow/outflow split of the boundary edges for a velocity field.

    An edge is inflow when beta(midpoint) . n < 0 with the outward normal n,
    otherwise outflow (ties beta . n = 0 count as outflow).

    Attributes:
        boundary_edges : int array, the classified edge ids.
        inflow_mask : bool array aligned with boundary_edges.
        inflow_edges / outflow_edges : int arrays of edge ids.
    """

    def __init__(self, boundary_edges, inflow_mask):
        self.boundary_edges = np.asarray(boundary_edges, dtype=np.int64)
        self.inflow_mask = np.asarray(inflow_mask, dtype=bool)
        self.inflow_edges = self.boundary_edges[self.inflow_mask]
        self.outflow_edges = self.boundary_edges[~self.inflow_mask]

    def is_inflow(self, edge_id: int) -> bool:
        return bool(np.isin(edge_id, self.inflow_edges))


def build_unit_square_mesh(n: int) -> Mesh:
    """Uniform mesh of [0,1]^2 with 2*n^2 triangles.

    Each of the n^2 squares is split along its lower-left to upper-right
    diagonal, so all diagonals point the same way and h = sqrt(2)/n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return i + j * (n + 1)

    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    t = 0
    for j in range(n):
        for i in range(n):
            ll, lr = vid(i, j), vid(i + 1, j)
            ul, ur = vid(i, j + 1), vid(i + 1, j + 1)
            triangles[t] = (ll, lr, ur)
            triangles[t + 1] = (ll, ur, ul)
            t += 2
    return Mesh(vertices, triangles)


def build_polygon_mesh(domain: DomainSpec, level: int, extra_boundary_points=None) -> Mesh:
    """Coarse fan triangulation of a convex polygon, red-refined `level` times.

    The coarse mesh fans out from the first polygon vertex over the boundary
    loop.  ``extra_boundary_points`` may list points to insert into the loop
    first; each must lie on one of the polygon's sides.  The element count
    multiplies by 4 per refinement level.
    """
    if level < 0:
        raise ValueError("refinement level must be nonnegative")
    loop = [domain.vertices[i] for i in range(domain.vertices.shape[0])]
    if extra_boundary_points is not None:
        for p in extra_boundary_points:
            p = np.asarray(p, dtype=float)
            placed = False
            for i in range(len(loop)):
                a, b = loop[i], loop[(i + 1) % len(loop)]
                ab = b - a
                ap = p - a
                cross = ab[0] * ap[1] - ab[1] * ap[0]
                t = np.dot(ap, ab) / np.dot(ab, ab)
                if abs(cross) < 1e-12 * np.linalg.norm(ab) and 1e-12 < t < 1 - 1e-12:
                    loop.insert(i + 1, p)
                    placed = True
                    break
            if not placed:
                raise ValueError(f"extra boundary point {p} does not lie on a polygon side")
    loop = np.array(loop)
    k = loop.shape[0]
    triangles = np.array([[0, i, i + 1] for i in range(1, k - 1)], dtype=np.int64)
    mesh = Mesh(loop, triangles)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: split each triangle into 4 congruent children.

    Edge midpoints become new vertices (one per edge, so the refined mesh is
    conforming).  The result stores the parent-child map and a reference to
    the input mesh.
    """
    nv = mesh.num_vertices
    midpoints = mesh.edge_midpoints()
    vertices = np.vstack([mesh.vertices, midpoints])

    # Global vertex id of the midpoint of the edge opposite local vertex k.
    mid_of = np.full((mesh.num_elements, 3), -1, dtype=np.int64)
    for e in range(mesh.num_edges):
        for s in range(2):
            t = mesh.edge_elems[e, s]
            if t == -1:
                continue
            la, lb = mesh.edge_local[e, s]
            k = 3 - la - lb  # local vertex opposite this edge
            mid_of[t, k] = nv + e

    nt = mesh.num_elements
    triangles = np.empty((4 * nt, 3), dtype=np.int64)
    parent = np.repeat(np.arange(nt, dtype=np.int64), 4)
    v = mesh.triangles
    triangles[0::4] = np.column_stack([v[:, 0], mid_of[:, 2], mid_of[:, 1]])
    triangles[1::4] = np.column_stack([v[:, 1], mid_of[:, 0], mid_of[:, 2]])
    triangles[2::4] = np.column_stack([v[:, 2], mid_of[:, 1], mid_of[:, 0]])
    triangles[3::4] = mid_of
    return Mesh(vertices, triangles, parent=parent, parent_mesh=mesh)


def classify_boundary_edges(mesh: Mesh, beta) -> EdgeClassification:
    """Mark each boundary edge inflow (beta . n < 0) or outflow (>= 0).

    For non-constant velocity fields the sign is taken at the edge midpoint.
    ``beta`` may be a callable x -> (2,) or a constant 2-vector.
    """
    ids = mesh.boundary_edges
    beta_mid = point_values(as_vector_function(beta), mesh.edge_midpoints(ids))
    beta_n = np.sum(beta_mid * mesh.edge_normals[ids, 0], axis=1)
    return EdgeClassification(ids, beta_n < 0.0)


def as_vector_function(f):
    """A callable x -> (2,) as given, or a constant 2-vector as a callable."""
    if callable(f):
        return f
    const = np.asarray(f, dtype=float).reshape(2)
    return lambda x: const


def point_values(fun, points) -> np.ndarray:
    """Values of a pointwise callable at every point of a stacked array.

    ``fun`` takes one point of shape (2,) and returns a scalar or a
    2-vector; ``points`` has shape (..., 2).  The result has shape
    points.shape[:-1], with a trailing axis of 2 for vector values.
    """
    points = np.asarray(points, dtype=float)
    vals = np.array([fun(x) for x in points.reshape(-1, 2)], dtype=float)
    return vals.reshape(points.shape[:-1] + vals.shape[1:])


def write_mesh_text(mesh: Mesh, path) -> None:
    """Dump a mesh as plain text: one "v x y" line per vertex followed by
    one "t i j k" line per triangle, floats with 17 significant digits."""
    with open(path, "w") as fh:
        for x, y in mesh.vertices:
            fh.write(f"v {x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"t {i} {j} {k}\n")
