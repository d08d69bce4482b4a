import numpy as np
import pytest

from ldgcontrol.analysis import example3_domain, example3_mesh
from ldgcontrol.geometry import (
    DomainSpec,
    Mesh,
    build_polygon_mesh,
    build_unit_square_mesh,
    refine_uniform,
    write_mesh_text,
)
from ldgcontrol.ldg import FluxParameters, ProblemData


def test_square_mesh_counts():
    m = build_unit_square_mesh(1)
    assert m.num_elements == 2
    assert m.num_edges == 5
    assert len(m.boundary_edges) == 4

    m = build_unit_square_mesh(4)
    assert m.num_elements == 32
    assert m.num_vertices == 25
    assert len(m.boundary_edges) == 16
    assert np.isclose(m.h, np.sqrt(2.0) / 4)


def test_square_mesh_counts_large():
    m = build_unit_square_mesh(128)
    assert m.num_elements == 32768
    assert m.num_vertices == 129 * 129
    assert len(m.boundary_edges) == 4 * 128


def test_square_mesh_rejects_zero():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)


def test_areas_sum_to_domain_area():
    m = build_unit_square_mesh(7)
    assert abs(m.areas.sum() - 1.0) < 1e-12


def test_normals_unit_and_opposite():
    m = build_unit_square_mesh(3)
    norms = np.linalg.norm(m.edge_normals, axis=2)
    for e in range(m.num_edges):
        assert abs(norms[e, 0] - 1.0) < 1e-14
        assert np.all(np.abs(m.edge_normals[e, 0] + m.edge_normals[e, 1]) < 1e-14)


def test_interior_adjacency():
    m = build_unit_square_mesh(3)
    for e in m.interior_edges:
        t0, t1 = m.edge_elems[e]
        assert t0 >= 0 and t1 >= 0 and t0 != t1
        a, b = m.edges[e]
        # both endpoints belong to both adjacent elements
        for t, (la, lb) in zip((t0, t1), m.edge_local[e]):
            assert m.triangles[t, la] == a
            assert m.triangles[t, lb] == b
    for e in m.boundary_edges:
        assert m.edge_elems[e, 1] == -1


def test_boundary_edges_counterclockwise():
    # On the unit square the stored direction of boundary edges follows the
    # counterclockwise boundary loop, so outward normals point away from the
    # domain.
    m = build_unit_square_mesh(2)
    for e in m.boundary_edges:
        mid = m.edge_midpoints(np.array([e]))[0]
        n = m.edge_normals[e, 0]
        outside = mid + 1e-3 * n
        assert not (0.0 < outside[0] < 1.0 and 0.0 < outside[1] < 1.0)


def test_refine_quadruples_and_preserves_area():
    m = build_unit_square_mesh(1)
    r = refine_uniform(m)
    assert r.num_elements == 8
    assert abs(r.areas.sum() - m.areas.sum()) < 1e-12
    assert r.parent_mesh is m
    assert np.all(r.parent == np.repeat(np.arange(2), 4))
    # children tile the parent exactly
    for t in range(m.num_elements):
        child_area = r.areas[r.parent == t].sum()
        assert abs(child_area - m.areas[t]) < 1e-14


def test_refine_twice_matches_direct_construction():
    m = refine_uniform(refine_uniform(build_unit_square_mesh(4)))
    d = build_unit_square_mesh(16)
    assert m.num_elements == d.num_elements
    mv = np.array(sorted(map(tuple, np.round(m.vertices, 12))))
    dv = np.array(sorted(map(tuple, np.round(d.vertices, 12))))
    assert np.allclose(mv, dv)
    assert np.allclose(np.sort(m.areas), np.sort(d.areas))


def _inflow(m, beta):
    return FluxParameters(m, ProblemData(epsilon=1.0, omega=1.0, beta=beta)).inflow


def test_classification_square():
    m = build_unit_square_mesh(2)
    inflow = _inflow(m, (1.0, 1.0))
    mids = m.edge_midpoints(m.boundary_edges)
    for mid, is_in in zip(mids, inflow[m.boundary_edges]):
        if np.isclose(mid[1], 0.0) or np.isclose(mid[0], 0.0):
            assert is_in  # bottom and left edges see beta.n = -1
        else:
            assert not is_in
    assert not inflow[m.interior_edges].any()  # only boundary edges are inflow


def test_classification_tie_is_outflow():
    m = build_unit_square_mesh(2)
    inflow = _inflow(m, (1.0, 0.0))
    mids = m.edge_midpoints(m.boundary_edges)
    for mid, is_in in zip(mids, inflow[m.boundary_edges]):
        if np.isclose(mid[1], 0.0) or np.isclose(mid[1], 1.0):
            assert not is_in  # beta.n = 0 counts as outflow
        elif np.isclose(mid[0], 0.0):
            assert is_in


def test_domain_rejects_nonconvex():
    with pytest.raises(ValueError):
        DomainSpec([(0, 0), (2, 0), (1, 0.1), (0, 2)])
    with pytest.raises(ValueError):
        DomainSpec([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise


def _polygon_area(vertices):
    """Shoelace area of a counterclockwise polygon (k, 2)."""
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_polygon_fan_counts():
    quad = example3_domain()
    assert [example3_mesh(level).num_elements for level in range(3)] == [3, 12, 48]
    area = _polygon_area(quad.vertices)
    assert abs(example3_mesh(2).areas.sum() - area) < 1e-12 * area
    # the fan of the corners alone has 2 coarse triangles
    alt = build_polygon_mesh(quad, 2)
    assert alt.num_elements == 32


def test_mesh_text_dump(tmp_path):
    vertices = build_unit_square_mesh(2).vertices.copy()
    vertices[0] = (0.0, -0.0)
    vertices[1] = (1.0 / 3.0, 1e-300)
    vertices[3, 0] = -0.0
    m = Mesh(vertices, build_unit_square_mesh(2).triangles)
    path = tmp_path / "mesh.txt"
    write_mesh_text(m, path)
    text = path.read_text()
    lines = text.strip().split("\n")
    vlines = [l for l in lines if l.startswith("v ")]
    tlines = [l for l in lines if l.startswith("t ")]
    assert len(vlines) == m.num_vertices
    assert len(tlines) == m.num_elements
    verts = np.array([[float(tok) for tok in l.split()[1:]] for l in vlines])
    assert np.allclose(verts, m.vertices, atol=0, rtol=1e-16)
    expected = "".join(f"v {x:.17g} {y:.17g}\n" for x, y in m.vertices)
    expected += "".join(f"t {i} {j} {k}\n" for i, j, k in m.triangles)
    assert text == expected
    assert "v 0 -0\n" in text and "v 0.33333333333333331 1e-300\n" in text


def test_single_triangle_mesh():
    m = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert m.num_edges == 3
    assert len(m.boundary_edges) == 3
    assert abs(m.areas.sum() - 0.5) < 1e-15


# ------------------------------------------------ edge topology


def reference_edge_topology(triangles):
    """Edge arrays from a walk over the half-edges in element order, each
    edge numbered when first met (conforming meshes only)."""
    seen = {}
    edges, elems, local = [], [], []
    for t, tri in enumerate(np.asarray(triangles).tolist()):
        for k in range(3):
            a, b = tri[(k + 1) % 3], tri[(k + 2) % 3]
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen[key] = len(edges)
                edges.append((a, b))
                elems.append([t, -1])
                local.append([[(k + 1) % 3, (k + 2) % 3], [-1, -1]])
            else:
                e = seen[key]
                elems[e][1] = t
                local[e][1] = [(k + 2) % 3, (k + 1) % 3]
    edges, elems, local = (np.array(x, dtype=np.int64) for x in (edges, elems, local))
    boundary = elems[:, 1] == -1
    return {"edges": edges, "edge_elems": elems, "edge_local": local,
            "boundary_edges": np.nonzero(boundary)[0], "interior_edges": np.nonzero(~boundary)[0]}


TOPOLOGY_MESHES = (
    [pytest.param(lambda n=n: build_unit_square_mesh(n), id=f"square{n}") for n in range(1, 9)]
    + [pytest.param(lambda: refine_uniform(refine_uniform(build_unit_square_mesh(3))),
                    id="square3-refined-twice")]
    + [pytest.param(lambda level=level, coarse=coarse: example3_mesh(level, coarse),
                    id=f"ex3-{coarse}-{level}")
       for coarse in ("fan3", "diag2") for level in range(4)]
    + [pytest.param(lambda: Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]), id="triangle")]
)


@pytest.mark.parametrize("make", TOPOLOGY_MESHES)
def test_edge_topology_matches_the_element_walk(make):
    m = make()
    for name, expected in reference_edge_topology(m.triangles).items():
        got = getattr(m, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


def test_three_elements_on_one_edge_are_rejected():
    vertices = [(0, 0), (1, 0), (0, 1), (0.5, -1), (0.5, 2)]
    with pytest.raises(ValueError, match="more than two elements"):
        Mesh(vertices, [(0, 1, 2), (0, 3, 1), (0, 1, 4)])


def test_two_elements_on_the_same_side_of_an_edge_are_rejected():
    with pytest.raises(ValueError, match="not conforming"):
        Mesh([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (0, 1, 3)])


def test_square_mesh_triangle_rows():
    # per square, row by row: (ll, lr, ur) then (ll, ur, ul)
    assert build_unit_square_mesh(2).triangles.tolist() == [
        [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4],
        [3, 4, 7], [3, 7, 6], [4, 5, 8], [4, 8, 7],
    ]
