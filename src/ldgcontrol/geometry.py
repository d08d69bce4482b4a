"""Triangular meshes of convex polygons with oriented edge data.

Meshes are conforming simplicial triangulations (no hanging nodes) of a
convex polygonal domain.  Besides the usual vertex/triangle arrays, every
mesh carries a complete edge data structure: endpoint indices, the one or
two adjacent elements, outward unit normals per adjacent element, edge
lengths and an interior/boundary flag.  This is the information a
discontinuous Galerkin assembly needs to evaluate jumps, averages and
numerical fluxes on every edge.  ``Mesh.adjacency`` is the block pattern
of the DG matrices (each element coupled to itself and its edge
neighbours), and ``BlockLayout`` places a matrix of fixed-size blocks on
such a pattern in CSR form, less its stored zeros.

Uniform (red) refinement splits each triangle into four congruent children
and keeps a parent-child map, so fields computed on a refined mesh can be
evaluated inside any element of a coarser mesh of the same hierarchy.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DomainSpec",
    "Mesh",
    "ElementAdjacency",
    "BlockLayout",
    "build_unit_square_mesh",
    "build_polygon_mesh",
    "refine_uniform",
    "dissection_order",
    "data_values",
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


class ElementAdjacency(NamedTuple):
    """Block pattern of the DG matrices: each element and its edge neighbours.

    ``indptr`` (nt + 1,) and ``indices`` list, in CSR form with the indices
    of each row increasing, the elements coupled to each element: itself
    and the elements across its interior edges.  A slot is a position in
    ``indices``.  ``diagonal`` (nt,) holds the slot of each element's own
    entry and ``edge_slots`` (ne, 2, 2) the slot of entry (edge_elems[e, r],
    edge_elems[e, s]), -1 where side r or s of edge e is missing.
    """

    indptr: np.ndarray
    indices: np.ndarray
    diagonal: np.ndarray
    edge_slots: np.ndarray


class Mesh:
    """Conforming triangulation with oriented edge data.

    Attributes:
        vertices : (nv, 2) float array of vertex coordinates.
        triangles : (nt, 3) int array of vertex indices, counterclockwise.
        areas : (nt,) element areas (all positive).
        diameters : (nt,) element diameters (longest edge).
        h : float, max of diameters.
        edges : (ne, 2) int array of endpoint indices.  Edges are numbered
            in the order a walk over the elements, and over the local edges
            k = 0, 1, 2 of each (edge k runs from local vertex k+1 to k+2),
            first meets them; the direction a -> b is the counterclockwise
            traversal of that first adjacent element.
        edge_elems : (ne, 2) int, adjacent element ids, the first one met
            in that walk first; second entry is -1 on boundary edges.
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
        # Half-edge h = 3 t + k, local edge k of element t, runs from local
        # vertex k+1 to k+2 (mod 3), counterclockwise.  One stable sort by
        # (min vertex, max vertex) groups each edge's half-edges in element order.
        local = np.array([[1, 2], [2, 0], [0, 1]])
        ends = self.triangles[:, local].reshape(-1, 2)
        key = ends.min(axis=1) * self.num_vertices + ends.max(axis=1)
        by_key = np.argsort(key, kind="stable")
        head = np.ones(key.size, dtype=bool)  # first half-edge of its edge
        head[1:] = key[by_key[1:]] != key[by_key[:-1]]
        later = np.flatnonzero(~head)
        prev = by_key[later - 1]
        crowded = ~head[later - 1]  # a third or later half-edge
        bad = crowded | (ends[by_key[later], 0] == ends[prev, 0])
        if bad.any():  # report what a walk over the half-edges meets first
            i = np.argmin(np.where(bad, by_key[later], key.size))
            what = ("adjacent to more than two elements" if crowded[i] else
                    "traversed twice in the same direction; triangulation is not conforming")
            raise ValueError(f"edge {tuple(sorted(ends[prev[i]].tolist()))} {what}")
        # An edge is numbered by its first half-edge, and runs its way.
        first = by_key[head]
        second = np.full(first.size, -1)
        second[(np.cumsum(head) - 1)[later]] = by_key[later]
        number = np.argsort(first)
        first, second = first[number], second[number]
        self.edges = ends[first]
        self.edge_elems = np.stack([first, second], axis=1) // 3  # -1 // 3 is -1
        self.edge_local = np.full((first.size, 2, 2), -1, dtype=np.int64)
        self.edge_local[:, 0] = local[first % 3]
        paired = second >= 0  # the second element traverses the edge b -> a
        self.edge_local[paired, 1] = local[second[paired] % 3, ::-1]

        tang = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_lengths = np.sqrt(np.sum(tang**2, axis=1))
        n0 = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / self.edge_lengths[:, None]
        self.edge_normals = np.stack([n0, -n0], axis=1)
        self.boundary_mask = self.edge_elems[:, 1] == -1
        self.boundary_edges = np.nonzero(self.boundary_mask)[0]
        self.interior_edges = np.nonzero(~self.boundary_mask)[0]

    @cached_property
    def adjacency(self) -> ElementAdjacency:
        """The ``ElementAdjacency`` of the elements, built on first use."""
        nt, inner = self.num_elements, self.interior_edges
        t0, t1 = self.edge_elems[inner].T
        own = np.arange(nt)
        rows, cols = np.concatenate([own, t0, t1]), np.concatenate([own, t1, t0])
        order = np.argsort(rows * nt + cols)
        slot = np.empty(order.size, dtype=np.int32)  # slot of each (row, col) listed
        slot[order] = np.arange(order.size)
        edge_slots = np.full((self.num_edges, 2, 2), -1, dtype=np.int32)
        edge_slots[:, 0, 0] = slot[self.edge_elems[:, 0]]
        edge_slots[inner, 1, 1] = slot[t1]
        edge_slots[inner, 0, 1] = slot[nt:nt + inner.size]
        edge_slots[inner, 1, 0] = slot[nt + inner.size:]
        indptr = np.zeros(nt + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=nt), out=indptr[1:])
        return ElementAdjacency(indptr, cols[order].astype(np.int32), slot[:nt], edge_slots)

    def edge_midpoints(self, edge_ids=None):
        ids = np.arange(self.num_edges) if edge_ids is None else edge_ids
        return 0.5 * (self.vertices[self.edges[ids, 0]] + self.vertices[self.edges[ids, 1]])

    def total_area(self) -> float:
        return float(np.sum(self.areas))


class BlockLayout:
    """CSR layout of a sparse matrix of I x J blocks on a block pattern.

    Block (t, u) of the pattern (``indptr``, ``indices``; increasing within
    each block row) holds rows I t + i and columns J u + j of the matrix.
    Each of the I rows of block row t lists the J columns of every block
    of that row, in slot order, so entry (i, j) of the block in slot s is
    entry J ((I - 1) indptr[t] + i deg(t) + s) + j of the matrix's data,
    with deg(t) the number of blocks of row t.  Positions are int32 where
    the matrix fits.
    """

    def __init__(self, indptr, indices, block_shape):
        self.block_shape = block_shape
        self.size = block_shape[0] * block_shape[1] * len(indices)
        self.dtype = np.int32 if self.size < 2**31 else np.int64
        self.first = np.asarray(indptr[:-1], dtype=self.dtype)
        self.degree = np.diff(indptr).astype(self.dtype)
        self.indices = np.asarray(indices, dtype=self.dtype)

    def positions(self, rows, slots):
        """(n, I, J) positions in the data of the blocks in ``slots`` of the
        block rows ``rows``."""
        I, J = self.block_shape
        start = (I - 1) * self.first[rows] + np.asarray(slots, dtype=self.dtype)
        row = start[:, None] + np.arange(I, dtype=self.dtype) * self.degree[rows, None]
        return J * row[:, :, None] + np.arange(J, dtype=self.dtype)

    def matrix(self, data, shape) -> sp.csr_matrix:
        """The CSR matrix of ``data`` (``size`` entries in this layout).

        Its stored zeros (e.g. the trace of the vertex opposite an edge) are
        dropped, and the buffer space they held is released.
        """
        I, J = self.block_shape
        # row I t + i lists slots first[t] ... first[t] + degree[t] - 1
        length = np.repeat(self.degree, I)
        start = np.zeros(length.size + 1, dtype=self.dtype)
        np.cumsum(length, out=start[1:])
        slot = np.arange(start[-1], dtype=self.dtype) - np.repeat(
            start[:-1] - np.repeat(self.first, I), length)
        columns = (J * self.indices[slot, None] + np.arange(J, dtype=self.dtype)).ravel()
        mat = sp.csr_matrix((data, columns, J * start), shape=shape)
        stored = mat.nnz
        mat.eliminate_zeros()
        if mat.nnz < stored and mat.data.base is not None:
            mat.data, mat.indices = mat.data.copy(), mat.indices.copy()
        return mat


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
    # lower-left vertex of each square, row by row; its triangles are
    # (ll, lr, ur) and (ll, ur, ul)
    ll = (np.arange(n) + (n + 1) * np.arange(n)[:, None]).ravel()
    triangles = (ll[:, None, None] + np.array([[0, 1, n + 2], [0, n + 2, n + 1]])).reshape(-1, 3)
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
    e, side = np.nonzero(mesh.edge_elems >= 0)
    opposite = 3 - mesh.edge_local[e, side].sum(axis=1)
    mid_of[mesh.edge_elems[e, side], opposite] = nv + e

    nt = mesh.num_elements
    triangles = np.empty((4 * nt, 3), dtype=np.int64)
    parent = np.repeat(np.arange(nt, dtype=np.int64), 4)
    v = mesh.triangles
    triangles[0::4] = np.column_stack([v[:, 0], mid_of[:, 2], mid_of[:, 1]])
    triangles[1::4] = np.column_stack([v[:, 1], mid_of[:, 0], mid_of[:, 2]])
    triangles[2::4] = np.column_stack([v[:, 2], mid_of[:, 1], mid_of[:, 0]])
    triangles[3::4] = mid_of
    return Mesh(vertices, triangles, parent=parent, parent_mesh=mesh)


# tree nodes of at most this many points are leaves of the dissection
_LEAF_SIZE = 12
# cut directions, two perpendicular pairs: the axes and the diagonals
_CUT_DIRECTIONS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])


def _dissection_paths(points, coupling):
    """Nested-dissection tree of a point set, one level at a time.

    ``points`` (n, 2) are the positions of the unknowns of a sparse matrix
    and ``coupling`` is an (n, n) sparse matrix whose pattern, symmetrized,
    tells which unknowns a factorization couples directly.  A tree node of
    more than ``_LEAF_SIZE`` points is cut across one of two perpendicular
    directions, between two points that are consecutive along it.  All
    such cuts with at least a quarter of the node's points on either side
    are scored at once: a cut's separator is the smaller of the two sets of
    points of one side coupled to the other side, and its score is
    separator / (left * right), so thin and balanced cuts win.  The node
    takes its best cut; without the separator the two halves are
    uncoupled.  All nodes of a level are cut at once.  The pair of
    directions, the axes or the diagonals, is the one whose best cut of
    the whole set scores better.

    Returns (paths, along).  Row i of the (n, depth) int8 array ``paths``
    holds one digit per level: 0 or 1 for the half of the node point i
    falls in, 2 when it is in that node's separator, and 0 on the levels
    below the leaf or separator it ends in.  ``along`` is each point's
    coordinate along the last cut it met.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    pattern = sp.csr_matrix(coupling)
    if pattern.shape != (n, n):
        raise ValueError("the coupling matrix needs one row and column per point")
    pattern = sp.csr_matrix((np.ones(pattern.nnz), pattern.indices, pattern.indptr), shape=(n, n))
    pattern = (pattern + pattern.T + sp.identity(n, format="csr")).tocsr()
    coord = points[:, :1] * _CUT_DIRECTIONS[:, 0] + points[:, 1:] * _CUT_DIRECTIONS[:, 1]
    coord = np.ascontiguousarray(coord.T)  # (4, n)
    dirs = range(len(_CUT_DIRECTIONS))
    by_coord = np.argsort(coord, axis=1, kind="stable")
    rank = np.empty_like(by_coord)
    for k in dirs:
        rank[k][by_coord[k]] = np.arange(n)
    node = np.zeros(n, dtype=np.int64)  # tree node of each unplaced point, else -1
    # the coupled points of the same node lying farthest along (high) and
    # against (low) each direction, refreshed when they leave the node
    high = np.empty_like(by_coord)
    low = np.empty_like(by_coord)

    def neighbours(pts):
        lengths = pattern.indptr[pts + 1] - pattern.indptr[pts]
        first = np.cumsum(lengths) - lengths
        nbr = pattern.indices[np.repeat(pattern.indptr[pts] - first, lengths)
                              + np.arange(lengths.sum())]
        return nbr, lengths, first

    def refresh(pts, nbr, seg):
        for k in dirs:
            r = rank[k][nbr]
            high[k][pts] = by_coord[k][np.maximum.reduceat(r, seg)]
            low[k][pts] = by_coord[k][np.minimum.reduceat(r, seg)]

    refresh(np.arange(n), pattern.indices, pattern.indptr[:-1])
    seqs = list(by_coord)  # live points, by node and then along each direction
    # points that lost a coupled point of their node: the neighbours of the
    # last level's separators (a coupling across a cut always has one end
    # in the separator)
    touched = np.zeros(n, dtype=bool)
    pos = np.empty_like(by_coord)
    along = np.zeros(n)
    columns = []
    while seqs[dirs[0]].size:
        live = seqs[dirs[0]]
        m = live.size
        counts = np.bincount(node[live])
        start = np.cumsum(counts) - counts
        block = np.repeat(np.arange(counts.size), counts)
        cut = counts > _LEAF_SIZE
        inside = cut[block]
        split = live[inside]
        home = node[split]
        left = np.arange(1, m + 1) - start[block]
        right = counts[block] - left
        ok = inside & (4 * left >= counts[block]) & (4 * right >= counts[block])
        weight = np.where(ok, 1.0 / np.maximum(left * right, 1), 0.0)
        penalty = np.where(ok, 0.0, np.inf)
        inside = inside.astype(np.int64)
        near = split[touched[split]]
        gone = np.zeros(near.size, dtype=bool)
        for k in dirs:
            gone |= (node[high[k][near]] != node[near]) | (node[low[k][near]] != node[near])
        stale = near[gone]
        if stale.size:
            nbr, lengths, first = neighbours(stale)
            same = node[nbr] == np.repeat(node[stale], lengths)  # each point is its own neighbour
            count = np.add.reduceat(same.astype(np.int64), first)
            refresh(stale, nbr[same], np.cumsum(count) - count)
        best = np.full(counts.size, np.inf)
        best_dir = np.zeros(counts.size, dtype=np.int64)
        best_at = np.zeros(counts.size, dtype=np.int64)
        best_left = np.zeros(counts.size, dtype=bool)
        for k in dirs:
            p = pos[k]
            p[seqs[k]] = np.arange(m)
            # a point is in the left (right) border of the cut after
            # position q along k for q in [own, high) ([low, own))
            b0 = np.cumsum(inside - np.bincount(p[high[k][split]], minlength=m))
            b1 = np.cumsum(np.bincount(p[low[k][split]], minlength=m) - inside)
            score = np.minimum(b0, b1) * weight + penalty
            node_score = np.minimum.reduceat(score, start)
            at = np.minimum.reduceat(np.where(score == node_score[block], np.arange(m), m - 1),
                                     start)
            better = node_score < best
            best[better] = node_score[better]
            best_dir[better] = k
            best_at[better] = at[better]
            best_left[better] = b0[at[better]] <= b1[at[better]]
        if len(dirs) > 2:  # the root's cut picks the pair of directions
            pair = 2 * (best_dir[0] // 2)
            dirs = range(pair, pair + 2)
        chosen, q = best_dir[home], best_at[home]
        upper = pos[chosen, split] > q
        separator = np.where(best_left[home], ~upper & (pos[chosen, high[chosen, split]] > q),
                             upper & (pos[chosen, low[chosen, split]] <= q))
        along[split] = coord[chosen ^ 1, split]
        digit = np.zeros(n, dtype=np.int8)
        digit[split] = np.where(separator, 2, upper)
        columns.append(digit)
        children = split[~separator]
        key = 2 * home[~separator] + upper[~separator]
        present = np.zeros(2 * counts.size, dtype=bool)
        present[key] = True
        node[live] = -1
        node[children] = (np.cumsum(present) - 1)[key]
        touched[:] = False
        touched[neighbours(split[separator])[0]] = True
        for k in dirs:
            s = seqs[k][node[seqs[k]] >= 0]
            seqs[k] = s[np.argsort(node[s], kind="stable")]
    return np.stack(columns, axis=1), along


def dissection_order(points, coupling) -> np.ndarray:
    """Nested-dissection elimination order of a point set.

    The points sorted by their ``_dissection_paths``, so that each node's
    two halves come before its separator.  Inside a separator or a leaf
    they follow the last cut they met, then their coordinates: the order
    depends on the geometry and the coupling pattern, not on the numbering
    of the points.
    """
    points = np.asarray(points, dtype=float)
    paths, along = _dissection_paths(points, coupling)
    return np.lexsort((points[:, 1], points[:, 0], along) + tuple(paths.T[::-1]))


def data_values(fun, points, name: str, vector: bool = False) -> np.ndarray:
    """Values of problem data at every point of a stacked array (..., 2).

    ``fun`` is a constant (a number, or a 2-vector when ``vector``), which
    is broadcast to a read-only view, or a callable, which is called once
    on the whole point array and returns shape points.shape[:-1], plus a
    trailing axis of 2 when ``vector``.  Raises ValueError naming the data
    ``name`` when the values have another shape or are not finite.
    """
    points = np.asarray(points, dtype=float)
    shape = points.shape[:-1] + ((2,) if vector else ())
    if callable(fun):
        vals = np.asarray(fun(points), dtype=float)
    else:
        vals = np.asarray(fun, dtype=float)
        if vals.shape == shape[points.ndim - 1:]:
            vals = np.broadcast_to(vals, shape)
    if vals.shape != shape:
        raise ValueError(f"{name} gave values of shape {vals.shape} at points of shape "
                         f"{points.shape} (expected {shape}); data callables take a "
                         "whole (..., 2) point array")
    bad = ~np.isfinite(vals).all(axis=-1) if vector else ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"{name} is not finite at {int(bad.sum())} of {bad.size} "
                         f"points (first at x = {points[bad][0].tolist()})")
    return vals


def _text_lines(fmt, rows) -> str:
    """One ``fmt`` line per row of ``rows``, formatted in one operation."""
    return (fmt * len(rows)) % tuple(np.ravel(rows).tolist())


def write_mesh_text(mesh: Mesh, path) -> None:
    """Dump a mesh as plain text: one "v x y" line per vertex followed by
    one "t i j k" line per triangle, floats with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(_text_lines("v %.17g %.17g\n", mesh.vertices))
        fh.write(_text_lines("t %d %d %d\n", mesh.triangles))
