import math

import numpy as np
import pytest

from ldgcontrol.geometry import Mesh, build_unit_square_mesh
from ldgcontrol.spaces import (
    BOUNDARY,
    SCALAR,
    VECTOR,
    DiscreteField,
    barycentric,
    build_dof_map,
    edge_basis_values,
    eval_field,
    l2_project,
    physical_points,
    quadrature_rule,
    trace_on_edge,
    tri_basis_values,
    write_vtk,
)


def exact_tri_monomial(a, b):
    # integral of x^a y^b over the reference triangle x,y>=0, x+y<=1
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_dof_counts():
    m = build_unit_square_mesh(1)
    assert build_dof_map(m, SCALAR).num_dofs == 6
    assert build_dof_map(m, VECTOR).num_dofs == 12
    assert build_dof_map(m, BOUNDARY).num_dofs == 8


def test_quadrature_triangle_exactness():
    for deg in range(1, 7):
        rule = quadrature_rule("triangle", deg)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 0.5) < 1e-14
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                approx = np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                exact = exact_tri_monomial(a, b)
                assert abs(approx - exact) < 1e-13 * max(1.0, abs(exact))


def test_quadrature_edge_exactness():
    for deg in range(1, 7):
        rule = quadrature_rule("edge", deg)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        for a in range(rule.degree + 1):
            approx = np.sum(rule.weights * rule.points**a)
            assert abs(approx - 1.0 / (a + 1)) < 1e-13


def test_edge_rules_are_gauss_legendre_copies():
    for deg in range(1, 7):
        rule = quadrature_rule("edge", deg)
        x, w = np.polynomial.legendre.leggauss((deg + 2) // 2)
        assert np.array_equal(rule.points, 0.5 * (x + 1.0))
        assert np.array_equal(rule.weights, 0.5 * w)
        rule.points[:] = 0.0
        rule.weights[:] = 0.0
        assert np.array_equal(quadrature_rule("edge", deg).weights, 0.5 * w)


def test_quadrature_rejects_unsupported_degree():
    for deg in (0, 7, -1):
        with pytest.raises(ValueError):
            quadrature_rule("triangle", deg)
        with pytest.raises(ValueError):
            quadrature_rule("edge", deg)


def test_quadrature_x2_reference():
    rule = quadrature_rule("triangle", 4)
    val = np.sum(rule.weights * rule.points[:, 0] ** 2)
    assert abs(val - 1.0 / 12.0) < 1e-14


def test_quadrature_constant_gives_area():
    m = build_unit_square_mesh(3)
    rule = quadrature_rule("triangle", 2)
    for t in (0, 7, 11):
        area = 2.0 * m.areas[t] * np.sum(rule.weights)
        assert abs(area - m.areas[t]) < 1e-14


def test_partition_of_unity():
    rule = quadrature_rule("triangle", 6)
    lam = tri_basis_values(rule.points)
    assert np.all(np.abs(lam.sum(axis=1) - 1.0) < 1e-14)
    er = quadrature_rule("edge", 4)
    phi = edge_basis_values(er.points)
    assert np.all(np.abs(phi.sum(axis=1) - 1.0) < 1e-14)


def test_project_zero_and_linear():
    m = build_unit_square_mesh(3)
    vmap = build_dof_map(m, SCALAR)
    zero = l2_project(lambda x: np.zeros(x.shape[:-1]), vmap)
    assert np.all(zero.coefficients == 0.0)

    f = lambda x: 2.0 * x[..., 0] - x[..., 1]
    fh = l2_project(f, vmap)
    for t in (0, 5, 10):
        for pt in m.vertices[m.triangles[t]]:
            center = pt + (np.mean(m.vertices[m.triangles[t]], axis=0) - pt) * 1e-6
            assert abs(eval_field(fh, t, center) - f(center)) < 1e-12


def test_project_vector_linear():
    m = build_unit_square_mesh(2)
    wmap = build_dof_map(m, VECTOR)
    f = lambda x: np.stack([x[..., 0] + 1.0, 3.0 * x[..., 1]], axis=-1)
    fh = l2_project(f, wmap)
    p = np.array([0.3, 0.2])
    assert np.allclose(eval_field(fh, 0, p), f(p), atol=1e-12)


def test_project_mean_preservation():
    m = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    vmap = build_dof_map(m, SCALAR)
    f = lambda x: x[..., 0] ** 2
    fh = l2_project(f, vmap)
    rule = quadrature_rule("triangle", 4)
    pts = physical_points(m, rule.points)[0]
    lam = tri_basis_values(rule.points)
    proj_mean = np.sum(rule.weights * (lam @ fh.coefficients[:3])) / 0.5
    exact_mean = np.sum(rule.weights * pts[:, 0] ** 2) / 0.5
    assert abs(proj_mean - exact_mean) < 1e-12


def test_project_idempotent():
    m = build_unit_square_mesh(2)
    vmap = build_dof_map(m, SCALAR)
    fh = l2_project(lambda x: x[..., 0] * x[..., 1] + 0.5, vmap)

    def as_fun(x):
        # evaluate the projected field; identify each point's element by
        # search (the first element that contains it)
        inside = [barycentric(m, t, x).min(axis=-1) >= -1e-13 for t in range(m.num_elements)]
        assert np.any(inside, axis=0).all()
        return eval_field(fh, np.argmax(inside, axis=0), x, tol=1e-13)

    gh = l2_project(as_fun, vmap)
    assert np.allclose(gh.coefficients, fh.coefficients, atol=1e-13)


def test_eval_field_basics():
    m = build_unit_square_mesh(1)
    vmap = build_dof_map(m, SCALAR)
    ones = DiscreteField(vmap, np.ones(vmap.num_dofs))
    assert abs(eval_field(ones, 0, [0.5, 0.25]) - 1.0) < 1e-14
    nodal = DiscreteField(vmap, np.zeros(vmap.num_dofs))
    nodal.coefficients[2] = 1.0
    vtx = m.vertices[m.triangles[0, 2]]
    assert abs(eval_field(nodal, 0, vtx) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        eval_field(ones, 0, [5.0, 5.0])


def test_trace_continuity_of_projected_linear():
    m = build_unit_square_mesh(2)
    vmap = build_dof_map(m, SCALAR)
    fh = l2_project(lambda x: 1.0 + x[..., 0] - 2.0 * x[..., 1], vmap)
    s = np.array([0.0, 0.3, 1.0])
    for e in m.interior_edges:
        t0 = trace_on_edge(fh, e, 0, s)
        t1 = trace_on_edge(fh, e, 1, s)
        assert np.allclose(t0, t1, atol=1e-12)


def test_jump_and_average_of_elementwise_constants():
    m = build_unit_square_mesh(1)
    vmap = build_dof_map(m, SCALAR)
    c = DiscreteField(vmap, np.concatenate([np.full(3, 1.0), np.full(3, 2.0)]))
    e = m.interior_edges[0]
    s0, s1 = m.edge_elems[e]
    v0 = trace_on_edge(c, e, 0, 0.5)
    v1 = trace_on_edge(c, e, 1, 0.5)
    n0 = m.edge_normals[e, 0]
    n1 = m.edge_normals[e, 1]
    jump = v0 * n0 + v1 * n1
    assert abs(np.linalg.norm(jump) - 1.0) < 1e-14
    assert abs(0.5 * (v0 + v1) - 1.5) < 1e-14


def test_trace_second_side_of_boundary_edge_rejected():
    m = build_unit_square_mesh(1)
    vmap = build_dof_map(m, SCALAR)
    f = DiscreteField(vmap)
    with pytest.raises(ValueError):
        trace_on_edge(f, m.boundary_edges[0], 1, 0.5)


def test_degree2_vs_degree4_element_integrals_agree():
    m = build_unit_square_mesh(2)
    vmap = build_dof_map(m, SCALAR)
    fh = l2_project(lambda x: x[..., 0] - 0.3 * x[..., 1], vmap)
    totals = []
    for deg in (2, 4):
        rule = quadrature_rule("triangle", deg)
        lam = tri_basis_values(rule.points)
        acc = 0.0
        for t in range(m.num_elements):
            vals = lam @ fh.coefficients[3 * t : 3 * t + 3]
            acc += 2.0 * m.areas[t] * np.sum(rule.weights * vals**2)
        totals.append(acc)
    assert abs(totals[0] - totals[1]) < 1e-13


def test_vtk_write(tmp_path):
    m = build_unit_square_mesh(2)
    vmap = build_dof_map(m, SCALAR)
    fh = l2_project(lambda x: x[..., 0], vmap)
    qh = l2_project(lambda x: np.stack([x[..., 1], -2.0 * x[..., 0]], axis=-1),
                    build_dof_map(m, VECTOR))
    path = tmp_path / "field.vtk"
    write_vtk(path, m, {"y": fh, "q": qh})
    text = path.read_text()
    nt = m.num_elements
    assert f"CELLS {nt} {4 * nt}\n3 0 1 2\n3 3 4 5\n" in text
    points = text.split(f"POINTS {3 * nt} double\n", 1)[1].split("\n")[: 3 * nt]
    xyz = np.array([[float(v) for v in line.split()] for line in points])
    assert np.array_equal(xyz, np.column_stack([m.vertices[m.triangles].reshape(-1, 2),
                                                np.zeros(3 * nt)]))
    data = text.split("LOOKUP_TABLE default\n", 1)[1].split("\n")
    vals = np.array([float(v) for v in data[: 3 * nt]])
    assert np.allclose(vals, fh.coefficients, atol=1e-15)
    assert data[3 * nt] == "VECTORS q double"
    vecs = np.array([[float(v) for v in line.split()] for line in data[3 * nt + 1: 6 * nt + 1]])
    assert vecs.shape == (3 * nt, 3) and np.all(vecs[:, 2] == 0.0)
    assert np.array_equal(vecs[:, :2].ravel(), qh.coefficients)
    assert data[6 * nt + 1:] == [""]
