"""Triangular meshes of convex polygons with oriented edge data.

Meshes are conforming simplicial triangulations (no hanging nodes) of a
convex polygonal domain.  Besides the usual vertex/triangle arrays, every
mesh carries a complete edge data structure: endpoint indices, the one or
two adjacent elements, outward unit normals per adjacent element, edge
lengths and an interior/boundary flag.  This is the information a
discontinuous Galerkin assembly needs to evaluate jumps, averages and
numerical fluxes on every edge.  ``Mesh.adjacency`` is the block pattern
of the DG matrices (each element coupled to itself and its edge
neighbours, padded to four slots), and ``BlockLayout`` holds a matrix of
fixed-size blocks on such a pattern as one array, written block by block,
and makes it a CSR matrix less its stored zeros.

Uniform (red) refinement splits each triangle into four congruent children
and keeps a parent-child map; ``NestedLocator`` reads its numbering to find
the fine element or boundary edge of each point of a coarser mesh of the
same hierarchy, so fields computed on a refined mesh can be evaluated there.
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
    "barycentric",
    "NestedLocator",
    "DissectionTree",
    "dissection_order",
    "data_values",
    "write_mesh_text",
]


class DomainSpec:
    """A convex polygonal computational domain.

    Attributes:
        vertices : (k, 2) float array, polygon corners in counterclockwise
            order.
    """

    def __init__(self, vertices):
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


class ElementAdjacency(NamedTuple):
    """Block pattern of the DG matrices: each element and its edge neighbours.

    ``neighbours`` (nt, 4) lists, increasing, the elements coupled to each
    element: itself and the elements across its interior edges, padded
    with -1 at the end.  A slot is a position in a row of ``neighbours``.
    ``diagonal`` (nt,) holds the slot of each element's own entry and
    ``edge_slots`` (ne, 2, 2) the slot of entry (edge_elems[e, r],
    edge_elems[e, s]) in row edge_elems[e, r], -1 where side r or s of
    edge e is missing.  ``edge_order`` (ne, 2) is the place (0, 1, 2) of
    edge e among the three edges of element edge_elems[e, r] in increasing
    edge order, -1 where side r is missing.
    """

    neighbours: np.ndarray
    diagonal: np.ndarray
    edge_slots: np.ndarray
    edge_order: np.ndarray


class Mesh:
    """Conforming triangulation with oriented edge data.

    Attributes:
        vertices : (nv, 2) float array of vertex coordinates.
        triangles : (nt, 3) int array of vertex indices, counterclockwise.
        areas : (nt,) element areas (all positive).
        h : float, the largest element diameter (longest edge).
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
        dissection : the ``DissectionTree`` of the last nested-dissection
            order of the P1 nodes of this mesh (``linsolve._reduction``),
            which the meshes refining it inherit; None before one.
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
        self.dissection = None

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
        self.h = float(np.sqrt(np.max(np.sum(side**2, axis=2))))
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
        nt, ne = self.num_elements, self.num_edges
        # the three edge sides 2 e + r of each element, in increasing edge order
        owner = self.edge_elems.ravel()
        sides = np.flatnonzero(owner >= 0)
        sides = sides[np.argsort(owner[sides], kind="stable")].reshape(nt, 3)
        edge_order = np.full(2 * ne, -1, dtype=np.int8)
        edge_order[sides] = np.arange(3, dtype=np.int8)
        across = self.edge_elems[sides // 2, 1 - sides % 2]  # -1 on the boundary
        row = np.concatenate([np.arange(nt)[:, None], across], axis=1)
        row[row < 0] = nt  # missing neighbours sort last
        row.sort(axis=1)
        diagonal = np.sum(row < np.arange(nt)[:, None], axis=1, dtype=np.int32)
        edge_slots = np.full((ne, 2, 2), -1, dtype=np.int32)
        edge_slots[:, 0, 0] = diagonal[self.edge_elems[:, 0]]
        inner = self.interior_edges
        for r in range(2):
            t, u = self.edge_elems[inner, r], self.edge_elems[inner, 1 - r]
            edge_slots[inner, r, r] = diagonal[t]
            edge_slots[inner, r, 1 - r] = np.sum(row[t] < u[:, None], axis=1)
        row[row == nt] = -1
        return ElementAdjacency(row.astype(np.int32), diagonal, edge_slots,
                                edge_order.reshape(ne, 2))

    def edge_midpoints(self, edge_ids=None):
        ids = np.arange(self.num_edges) if edge_ids is None else edge_ids
        return 0.5 * (self.vertices[self.edges[ids, 0]] + self.vertices[self.edges[ids, 1]])


class BlockLayout:
    """CSR layout of a sparse matrix of I x J blocks on a block pattern.

    ``columns`` (n, D) lists, increasing, the block columns of each block
    row, padded with -1 at the end.  The blocks of the matrix are an array
    (n, D, I, J) (``zeros``): block (t, k) sits at rows I t + i and columns
    J columns[t, k] + j, so a block is written by plain indexed assignment
    to its slot.  Row I t + i of the CSR matrix lists the J columns of each
    slot of block row t in slot order.
    """

    def __init__(self, columns, block_shape):
        self.columns = np.asarray(columns)
        self.shape = self.columns.shape + tuple(block_shape)
        self.dtype = np.int32 if np.prod(self.shape) < 2**31 else np.int64

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def matrix(self, blocks, shape) -> sp.csr_matrix:
        """The CSR matrix of ``blocks`` (an array shaped like ``zeros()``).

        Its stored zeros (the padding, the trace of the vertex opposite an
        edge, ...) are dropped.  A C-contiguous ``blocks`` is consumed: it
        is brought into CSR order in place, a few block rows at a time, so
        no second full-size buffer is made.
        """
        n, D, I, J = self.shape
        if D > 1 and blocks.flags.c_contiguous:
            data = blocks.reshape(n, -1)
            for start in range(0, n, _REORDER_ROWS):
                rows = slice(start, start + _REORDER_ROWS)
                data[rows] = np.swapaxes(blocks[rows], 1, 2).reshape(data[rows].shape)
            data = data.reshape(-1)
        else:
            data = np.ascontiguousarray(np.swapaxes(blocks, 1, 2)).reshape(-1)
        block_col = np.maximum(self.columns, 0).astype(self.dtype)[:, None, :, None]
        columns = np.broadcast_to(J * block_col + np.arange(J, dtype=self.dtype), (n, I, D, J))
        indptr = np.arange(0, data.size + 1, D * J, dtype=self.dtype)
        mat = sp.csr_matrix((data, columns.ravel(), indptr), shape=shape)
        stored = mat.nnz
        mat.eliminate_zeros()
        if mat.nnz < stored and mat.data.base is not None:
            mat.data, mat.indices = mat.data.copy(), mat.indices.copy()
        return mat


# block rows brought into CSR order per step of BlockLayout.matrix
_REORDER_ROWS = 4096


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


def build_polygon_mesh(domain: DomainSpec, level: int) -> Mesh:
    """Coarse fan triangulation of a convex polygon, red-refined `level` times.

    The coarse mesh fans out from the first polygon vertex over the
    corners.  The element count multiplies by 4 per refinement level.
    """
    if level < 0:
        raise ValueError("refinement level must be nonnegative")
    k = domain.vertices.shape[0]
    mesh = Mesh(domain.vertices.copy(), [[0, i, i + 1] for i in range(1, k - 1)])
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: split each triangle into 4 congruent children.

    Edge midpoints become new vertices (one per edge, so the refined mesh is
    conforming): the midpoint of edge e is vertex nv + e, and the children
    of element t are elements 4t .. 4t+3, the last one the middle triangle.
    The result stores the parent-child map and a reference to the input
    mesh.
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


class NestedLocator:
    """Maps points of a coarse mesh into a refined mesh of the same family.

    The fine mesh must descend from the coarse one through repeated
    ``refine_uniform``, whose numbering (children 4t .. 4t+3, edge
    midpoints nv + e) it reads; the parent chain is followed and its
    boundary numbering verified.  Points are located by walking
    down the chain and picking, per level, the child with the largest
    smallest barycentric coordinate (the first child on a tie).  Boundary
    points are located through a registration of the fine boundary edges
    on the coarse ones, read from that numbering in O(nf) and sorted by
    coarse edge, then by position:

        boundary_coarse : (nf,) coarse edge containing each fine edge,
        boundary_span : (nf, 2) parameters s0 < s1 of the fine edge's
            endpoints along its coarse edge,
        boundary_fine : (nf,) the fine boundary edge ids.
    """

    def __init__(self, coarse: Mesh, fine: Mesh):
        chain = [fine]
        mesh = fine
        while mesh is not coarse:
            if mesh.parent_mesh is None:
                raise ValueError("meshes are not nested (no refinement chain found)")
            mesh = mesh.parent_mesh
            chain.append(mesh)
        chain.reverse()
        self.chain = chain  # coarse ... fine
        self.coarse = coarse
        self.fine = fine
        self._register_boundary()

    def _register_boundary(self):
        # a refined boundary edge runs from an end of its parent edge e to
        # the midpoint, vertex nv + e, or back; the parents compose down the
        # chain, and the spans are measured along the coarse edges
        coarse, fine = self.coarse, self.fine
        edge = coarse.boundary_edges  # coarse edge of each boundary edge of a level
        for parent, mesh in zip(self.chain, self.chain[1:]):
            nv, ends = parent.num_vertices, mesh.edges[mesh.boundary_edges]
            mid = ends.max(axis=1) - nv
            pos = np.minimum(np.searchsorted(parent.boundary_edges, mid), edge.size - 1)
            if not (np.array_equal(parent.boundary_edges[pos], mid) and np.array_equal(
                    np.where(ends >= nv, nv + mid[:, None], parent.edges[mid]), ends)):
                raise ValueError("fine boundary edge does not refine a coarse boundary edge")
            edge = edge[pos]
        starts = coarse.vertices[coarse.edges[edge, 0]]
        tang = coarse.vertices[coarse.edges[edge, 1]] - starts
        lengths = np.sqrt(np.sum(tang**2, axis=1))
        unit = tang / lengths[:, None]
        rel = fine.vertices[fine.edges[fine.boundary_edges]] - starts[:, None]  # (nf, end, 2)
        span = (rel[..., 0] * unit[:, None, 0] + rel[..., 1] * unit[:, None, 1]) / lengths[:, None]
        order = np.lexsort((span[:, 0], edge))
        self.boundary_coarse = edge[order]
        self.boundary_span = span[order]
        self.boundary_fine = fine.boundary_edges[order]

    def locate(self, elements, points):
        """Fine elements containing points of the given coarse elements.

        ``elements`` broadcasts against ``points`` (..., 2) without its last
        axis; a scalar id with one point gives one fine element id.
        """
        t = np.asarray(elements)
        for mesh in self.chain[1:]:
            # child by child keeps the vertex gathers a quarter of the size
            fit = np.stack([barycentric(mesh, 4 * t + k, points).min(axis=-1)
                            for k in range(4)], axis=-1)
            t = 4 * t + np.argmax(fit, axis=-1)
        return t[()]

    def locate_boundary(self, edges, s):
        """Fine boundary edges and local parameters of coarse boundary points.

        ``edges`` (coarse boundary edge ids) and ``s`` (parameters along
        them) broadcast.  A point is given to the first fine edge of its
        coarse edge that ends at or after it; the local parameter is
        clamped to [0, 1].
        """
        edges, s = np.broadcast_arrays(np.asarray(edges), np.asarray(s, dtype=float))
        # complex numbers sort lexicographically: by coarse edge, then by
        # the end parameter of the fine edge (with its 1e-12 slack)
        keys = self.boundary_coarse + 1j * (self.boundary_span[:, 1] + 1e-12)
        last = np.searchsorted(self.boundary_coarse, edges, side="right") - 1
        i = np.minimum(np.searchsorted(keys, edges + 1j * s), last)
        if np.any(self.boundary_coarse[i] != edges):
            raise ValueError("locate_boundary needs boundary edges of the coarse mesh")
        s0, s1 = self.boundary_span[i, 0], self.boundary_span[i, 1]
        return self.boundary_fine[i][()], np.clip((s - s0) / (s1 - s0), 0.0, 1.0)[()]


# tree nodes of at most this many points are leaves of the dissection
_LEAF_SIZE = 12
# cut directions, two perpendicular pairs: the axes and the diagonals
_CUT_DIRECTIONS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])


class DissectionTree(NamedTuple):
    """The cuts of a nested-dissection tree, one entry per tree level.

    The nodes of a level are numbered in dissection order.  ``axis[l]``
    (int8) holds the row of ``_CUT_DIRECTIONS`` each node of level l is
    cut across, -1 at a leaf; ``gap[l]`` (nodes, 2) the coordinates along
    it of the last point before and the first point after the cut; and
    ``child[l]`` (nodes, 2) the node of level l + 1 on either side, -1
    where that side is empty.
    """

    axis: tuple
    gap: tuple
    child: tuple


def _ranges(first, length):
    """The concatenated ranges [first[i], first[i] + length[i])."""
    offset = np.cumsum(length) - length
    return np.repeat(first - offset, length) + np.arange(int(length.sum()))


# what an entry adds to the packed counts of _regroup: side 0 to the low
# 32 bits, side 1 to the high ones, and a dropped entry (2) to neither
_SIDE_COUNT = np.array([1, 1 << 32, 0], dtype=np.int64)


def _regroup(seq, block, start, side):
    """Stable partition of each node of ``seq`` into its two halves.

    ``seq`` lists the points of consecutive nodes, ``block`` the node of
    each entry and ``start`` where each node begins.  Each node's entries
    of ``side`` 0, then those of side 1, keep their order; side 2 drops an
    entry (it lands in a spare tail).  One cumulative count of both sides,
    packed into one int64, places every entry, with no sort.
    """
    side = side.astype(np.intp)
    count = _SIDE_COUNT[side]
    before = np.cumsum(count)
    before -= count  # of each side, the entries before this one
    last = np.append(start[1:], seq.size) - 1
    ends = before[last] + count[last]  # of each side, the entries up to each node's end
    # a side-0 entry goes after the earlier nodes' side-1 entries, a side-1
    # entry after every side-0 entry up to its node's end
    base = np.empty((start.size, 3), dtype=np.intp)
    base[:, 0] = np.append(0, ends[:-1]) >> 32
    base[:, 1] = ends & 0xFFFFFFFF
    base[:, 2] = seq.size
    before >>= 32 * (side & 1)
    before &= 0xFFFFFFFF
    before += base.ravel()[3 * block + side]
    out = np.empty(2 * seq.size, dtype=seq.dtype)
    out[before] = seq
    return out[:int((ends[-1] & 0xFFFFFFFF) + (ends[-1] >> 32))]


def _symmetric_pattern(coupling, n):
    """The pattern of an (n, n) sparse ``coupling`` matrix, symmetrized and
    with its diagonal, as a CSR matrix; ``coupling``'s own where it has
    that pattern already."""
    pattern = sp.csr_matrix(coupling)
    if pattern.shape != (n, n):
        raise ValueError("the coupling matrix needs one row and column per point")
    pattern = sp.csr_matrix((np.ones(pattern.nnz, dtype=np.int8), pattern.indices,
                             pattern.indptr), shape=(n, n))
    mirror = pattern.T.tocsr()
    if (pattern.has_canonical_format and np.array_equal(pattern.indptr, mirror.indptr)
            and np.array_equal(pattern.indices, mirror.indices) and pattern.diagonal().all()):
        return pattern
    return (pattern + mirror + sp.identity(n, dtype=np.int8, format="csr")).tocsr()


def _dissection_paths(points, coupling, ancestor=None):
    """Nested-dissection tree of a point set, one level at a time.

    ``points`` (n, 2) are the positions of the unknowns of a sparse matrix
    and ``coupling`` is an (n, n) sparse matrix whose pattern, symmetrized,
    tells which unknowns a factorization couples directly.  A tree node of
    more than ``_LEAF_SIZE`` points is cut across one of two perpendicular
    directions, between two points that are consecutive along it.  Each
    node's candidate cuts, a window of consecutive positions along a
    direction, are scored at once: a cut's separator is the smaller of the
    two sets of points of one side coupled to the other side, and its score
    is separator / (left * right), so thin and balanced cuts win.  The node
    takes its best cut; without the separator the two halves are
    uncoupled.  All nodes of a level are cut at once.

    A node's window is its balanced cuts, with at least a quarter of its
    points on either side, along both directions.  The pair of directions,
    the axes or the diagonals, is the one whose best cut of the whole set
    scores better.  ``ancestor``, the ``DissectionTree`` of a coarser mesh
    that the points refine, narrows that search where it has cut: a node
    that descends from a cut node of the ancestor (the root from the root,
    each half from the half it lies in) keeps that node's direction, and
    its window is the cuts next to its points inside the gap of that node's
    cut, widened by half the coupling reach on either side.  Only the points
    within coupling reach of the window are counted.  The ancestor's root
    fixes the pair, and below its leaves the nodes are scored as without
    it.

    Returns (paths, along, tree).  Row i of the (n, depth) int8 array
    ``paths`` holds one digit per level: 0 or 1 for the half of the node
    point i falls in, 2 when it is in that node's separator, and 0 on the
    levels below the leaf or separator it ends in.  ``along`` is each
    point's coordinate along the last cut it met, and ``tree`` the
    ``DissectionTree`` of the cuts.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    pattern = _symmetric_pattern(coupling, n)
    coord = points[:, :1] * _CUT_DIRECTIONS[:, 0] + points[:, 1:] * _CUT_DIRECTIONS[:, 1]
    coord = np.ascontiguousarray(coord.T)  # (4, n)
    inherit = ancestor is not None and ancestor.axis[0][0] >= 0
    if inherit:
        pair = 2 * (int(ancestor.axis[0][0]) // 2)
        dirs = range(pair, pair + 2)
    else:
        dirs = range(len(_CUT_DIRECTIONS))
    # per direction: the points in order along it, each point's rank in
    # that order, its position in its node's order (``pos``), and the
    # coupled points of its node lying farthest along (high) and against
    # (low) it, refreshed when they leave the node
    base = dirs.start
    by_coord, rank, high, low, positions = (np.empty((len(dirs), n), dtype=np.intp)
                                            for _ in range(5))
    by_coord, rank, high, low, pos = (dict(zip(dirs, a))
                                      for a in (by_coord, rank, high, low, positions))
    for k in dirs:
        by_coord[k][:] = np.argsort(coord[k], kind="stable")
        rank[k][by_coord[k]] = np.arange(n)
    node = np.zeros(n, dtype=np.intp)  # tree node of each unplaced point, else -1
    indptr, indices = pattern.indptr.astype(np.intp), pattern.indices.astype(np.intp)
    del pattern

    def neighbours(pts):  # the coupled points of pts, concatenated, and their numbers
        lengths = indptr[pts + 1] - indptr[pts]
        return indices[_ranges(indptr[pts], lengths)], lengths

    # the farthest coupled point of the same node along (high) and against
    # (low) direction k: the largest and smallest rank, with the points of
    # other nodes pushed out of reach
    extremes = ((high, np.maximum, -(n + 1)), (low, np.minimum, n))

    def refresh(pts, k, far, pick, away):
        nbr, lengths = neighbours(pts)
        other = node[nbr] != np.repeat(node[pts], lengths)
        far[k][pts] = by_coord[k][pick.reduceat(rank[k][nbr] + away * other,
                                                 np.cumsum(lengths) - lengths)]

    for k in dirs:
        r = rank[k][indices]
        for far, pick, _ in extremes:
            far[k][:] = by_coord[k][pick.reduceat(r, indptr[:-1])]
    if inherit:  # the sorted coordinates, and how far a coupling reaches along each
        ordered = {k: coord[k][by_coord[k]] for k in dirs}
        reach = {k: np.max(coord[k][high[k]] - coord[k]) for k in dirs}
    # the extremes that may have left their node, one bit per direction and
    # side: those of the neighbours of a separator (a coupling across a cut
    # always has one end in the separator), until they are next needed
    doubt = np.zeros(n, dtype=np.uint8)
    seqs = {k: by_coord[k] for k in dirs}  # live points, by node and then along each direction
    origin = np.array([0 if inherit else -1])  # the ancestor's cut node of each node, or -1
    across = np.array([-1])  # each node's direction along its parent's cut, -1 at the root
    along = np.zeros(n)
    counts = np.array([n])  # the points of each node
    columns, tree = [], ([], [], [])
    while counts.size:
        level = len(columns)
        live = seqs[dirs[0]]
        m, nodes = live.size, counts.size
        block = np.repeat(np.arange(nodes), counts)  # the node of each position
        start = np.cumsum(counts) - counts
        cut = counts > _LEAF_SIZE
        digit = np.zeros(n, dtype=np.int8)
        columns.append(digit)
        # the points of the leaves are placed, along their parent's cut
        leaves = np.flatnonzero(~cut & (across >= 0))
        if leaves.size:
            placed = live[_ranges(start[leaves], counts[leaves])]
            node[placed] = -1
            along[placed] = coord.ravel()[np.repeat(across[leaves], counts[leaves]) * n + placed]

        # nodes that inherit a cut: their window along the ancestor's
        # direction, and the points within coupling reach of its gap
        axis = np.full(nodes, -1, dtype=np.int64)
        heirs = np.flatnonzero(cut & (origin >= 0))
        windows = {}
        if heirs.size:
            axis[heirs] = ancestor.axis[level][origin[heirs]]
            gaps = ancestor.gap[level][origin[heirs]]
        for k in dirs if heirs.size else ():
            pick = axis[heirs] == k
            if not pick.any():
                continue
            b, (lo, hi) = heirs[pick], gaps[pick].T
            key = block * n + rank[k][seqs[k]]  # increasing along seqs[k]

            def before(values, side):  # position of the first point of b not below values
                return np.searchsorted(key, b * n + np.searchsorted(ordered[k], values, side))
            # the cuts next to a point of the gap widened by half a coupling
            # reach: a coarse cut may sit a node column off the fine one
            margin = reach[k] / 2
            first = np.maximum(before(lo - margin, "left") - 1, start[b])
            last = np.minimum(before(hi + margin, "right") - 1, start[b] + counts[b] - 2)
            ok = first <= last
            axis[b[~ok]] = -1  # no two points on either side of the gap: scored afresh
            near = before(lo - margin - reach[k], "left")[ok]
            reached = before(hi + margin + reach[k], "right")[ok] - near
            windows[k] = (b[ok], first[ok], last[ok] - first[ok] + 1,
                          seqs[k][_ranges(near, reached)], reached)
        fresh = np.flatnonzero(cut & (axis < 0))
        quarter = (counts[fresh] + 3) // 4
        fresh_window = (fresh, start[fresh] + quarter - 1, counts[fresh] - 2 * quarter + 1,
                        live if fresh.size == nodes else live[_ranges(start[fresh], counts[fresh])],
                        counts[fresh])

        best = np.full(nodes, np.inf)
        best_dir = np.zeros(nodes, dtype=np.int64)
        best_at = np.zeros(nodes, dtype=np.int64)
        best_left = np.zeros(nodes, dtype=bool)
        borders = []
        for k in dirs:
            p = pos[k]
            p[seqs[k]] = np.arange(m)
            parts = [w for w in (fresh_window, windows.get(k)) if w is not None and w[0].size]
            if not parts:
                continue
            wnode, wfirst, wlength, pts, per_window = (
                parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts)))
            offset = np.cumsum(wlength) - wlength
            size = int(offset[-1] + wlength[-1])
            home = np.repeat(wnode, per_window)
            own = p[pts]
            opens = np.repeat(wfirst, per_window)  # each point's window, as positions
            closes = opens + np.repeat(wlength, per_window)
            # refresh the extremes that left the node, of the points whose
            # extreme on that side can reach into their window
            doubted = doubt[pts]
            for side, (far, pick, away) in enumerate(extremes):
                bit = np.uint8(1 << (2 * (k - base) + side))
                check = pts[((doubted & bit) > 0) & (own < closes if side == 0 else own > opens)]
                doubt[check] &= ~bit
                stale = check[node[far[k][check]] != node[check]]
                if stale.size:
                    refresh(stale, k, far, pick, away)
            hi, lo = p[high[k][pts]], p[low[k][pts]]
            w0 = np.repeat(offset, per_window)
            w1 = w0 + closes - opens
            shift = w0 - opens

            def border(a, b):  # for each window position q, the points with a <= q < b
                a = np.minimum(np.maximum(a + shift, w0), w1)
                b = np.maximum(np.minimum(b + shift, w1), a)
                return np.cumsum(np.bincount(a, minlength=size + 1)
                                 - np.bincount(b, minlength=size + 1))[:size]
            # a point is in the left (right) border of the cut after
            # position q along k for q in [own, high) ([low, own))
            b0 = border(own, hi)
            b1 = border(lo, own)
            left = _ranges(wfirst - start[wnode] + 1, wlength)
            right = np.repeat(counts[wnode], wlength) - left
            score = np.minimum(b0, b1) * (1.0 / np.maximum(left * right, 1))
            in_window = np.repeat(np.arange(wnode.size), wlength)
            window_score = np.minimum.reduceat(score, offset)
            hits = np.flatnonzero(score == window_score[in_window])
            at = hits[np.searchsorted(hits, offset)]
            better = window_score < best[wnode]
            chosen, at = wnode[better], at[better]
            best[chosen] = window_score[better]
            best_dir[chosen] = k
            best_at[chosen] = at - offset[better] + wfirst[better]
            best_left[chosen] = b0[at] <= b1[at]
            borders.append((k, pts, home, own, hi, lo))
        if len(dirs) > 2:  # the root's cut picks the pair of directions
            pair = 2 * (best_dir[0] // 2)
            dirs = range(pair, pair + 2)

        # the separator: the border of one side, among the counted points
        parts = []
        for k, pts, home, own, hi, lo in borders:
            q, left = best_at[home], best_left[home]
            parts.append(pts[(best_dir[home] == k)
                             & np.where(left, (own <= q) & (hi > q), (own > q) & (lo <= q))])
        separator = np.concatenate(parts) if parts else live[:0]
        cut_nodes = np.flatnonzero(cut)
        if cut_nodes.size == nodes:
            split, home = live, block
        else:
            split = live[_ranges(start[cut_nodes], counts[cut_nodes])]
            home = np.repeat(cut_nodes, counts[cut_nodes])
        upper = positions.ravel()[(best_dir[home] - base) * n + split] > best_at[home]
        digit[split] = upper
        digit[separator] = 2
        along[separator] = coord.ravel()[(best_dir[node[separator]] ^ 1) * n + separator]

        moving = digit[split] < 2
        key = 2 * home + upper
        counts = np.bincount(key + 2 * nodes * ~moving, minlength=4 * nodes)[:2 * nodes]
        present = counts > 0
        counts = counts[present]
        number = np.cumsum(present) - 1
        gap = np.full((nodes, 2), np.nan)
        for k in dirs:
            b = cut_nodes[best_dir[cut_nodes] == k]
            gap[b] = coord[k][seqs[k][best_at[b, None] + [0, 1]]]
        tree[0].append(np.where(cut, best_dir, -1).astype(np.int8))
        tree[1].append(gap)
        tree[2].append(np.where(present, number, -1).reshape(nodes, 2))
        # a half of an heir descends from the ancestor's node on that side,
        # if that node is cut
        halves = np.flatnonzero(present)
        across = best_dir[halves // 2] ^ 1
        heir = np.flatnonzero(axis[halves // 2] >= 0)
        parent_origin, origin = origin, np.full(halves.size, -1, dtype=np.int64)
        if heir.size:
            below = ancestor.child[level][parent_origin[halves[heir] // 2], halves[heir] % 2]
            cuts = below >= 0
            below[cuts] = np.where(ancestor.axis[level + 1][below[cuts]] >= 0, below[cuts], -1)
            origin[heir] = below

        if counts.size:
            dropped = np.where(cut, 0, 2).astype(np.int8)[block]
            for k in dirs:
                seqs[k] = _regroup(seqs[k], block, start, np.maximum(digit[seqs[k]], dropped))
        node[split] = (number[key] + 1) * moving - 1
        doubt[neighbours(separator)[0]] = 0xFF
    return np.stack(columns, axis=1), along, DissectionTree(*map(tuple, tree))


def dissection_order(points, coupling, ancestor=None):
    """Nested-dissection elimination order of a point set, and its tree.

    The points sorted by their ``_dissection_paths``, so that each node's
    two halves come before its separator.  Inside a separator or a leaf
    they follow the last cut they met, then their coordinates: the order
    depends on the geometry and the coupling pattern, not on the numbering
    of the points.  Returns (order, tree), ``tree`` the ``DissectionTree``
    to pass as the ``ancestor`` of a refinement of the points.
    """
    points = np.asarray(points, dtype=float)
    paths, along, tree = _dissection_paths(points, coupling, ancestor)
    keys = []  # each path's digits in base 3, 39 levels to an int64 key (3**39 < 2**63)
    for digits in np.split(paths.T, range(39, paths.shape[1], 39)):
        key = np.zeros(len(points), dtype=np.int64)
        for digit in digits:
            key *= 3
            key += digit
        keys.append(key)
    return np.lexsort((points[:, 1], points[:, 0], along) + tuple(keys[::-1])), tree


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
