"""Tests of error norms, manufactured cases, and nested-mesh comparison."""

import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldgcontrol.analysis import (
    ErrorReport,
    ErrorReportRow,
    check_strong_form,
    closed_form_row,
    convergence_rate,
    error_flux_normal_boundary,
    error_l2_boundary,
    error_l2_domain,
    example2_data,
    example3_data,
    example3_domain,
    example3_mesh,
    manufactured_example1,
    reference_compare,
)
from ldgcontrol.control import pdas_solve
from ldgcontrol.geometry import (Mesh, NestedLocator, build_unit_square_mesh, data_values,
                                 refine_uniform)
from ldgcontrol.ldg import assemble_forms
from ldgcontrol.spaces import (
    DiscreteField,
    SpaceSet,
    eval_field,
    trace_on_edge,
)
from oracles import galerkin_diagnostics, l2_project, least_squares_rate, unit_square_sequence


# ------------------------------------------------------------ error norms


def test_domain_error_of_projection_is_tiny():
    mesh = build_unit_square_mesh(3)
    spaces = SpaceSet(mesh)
    lin = lambda x: 2.0 * x[..., 0] - 0.5 * x[..., 1] + 1.0
    field = l2_project(lin, spaces.potential)
    assert error_l2_domain(field, lin) < 1e-12


def test_domain_error_zero_field_vs_constant():
    mesh = build_unit_square_mesh(2)
    spaces = SpaceSet(mesh)
    zero = DiscreteField(spaces.potential, np.zeros(spaces.potential.num_dofs))
    assert error_l2_domain(zero, lambda x: np.ones(x.shape[:-1])) == pytest.approx(1.0, rel=1e-12)


def test_domain_error_zero_field_vs_coordinate():
    # || x_1 ||_{L2} over the unit square is 1/sqrt(3)
    mesh = build_unit_square_mesh(2)
    spaces = SpaceSet(mesh)
    zero = DiscreteField(spaces.potential, np.zeros(spaces.potential.num_dofs))
    err = error_l2_domain(zero, lambda x: x[..., 0])
    assert err == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)


def test_domain_error_vector_field():
    mesh = build_unit_square_mesh(2)
    spaces = SpaceSet(mesh)
    zero = DiscreteField(spaces.flux, np.zeros(spaces.flux.num_dofs))
    err = error_l2_domain(zero, lambda x: np.broadcast_to([1.0, 0.0], x.shape))
    assert err == pytest.approx(1.0, rel=1e-12)


def test_boundary_error_constant_mismatch():
    # perimeter of the unit square is 4, so the gap to 1 has norm 2
    mesh = build_unit_square_mesh(3)
    spaces = SpaceSet(mesh)
    zero = DiscreteField(spaces.control, np.zeros(spaces.control.num_dofs))
    one = lambda x: np.ones(x.shape[:-1])
    assert error_l2_boundary(zero, one, mesh=mesh) == pytest.approx(2.0, rel=1e-12)


def test_boundary_error_of_scalar_trace():
    mesh = build_unit_square_mesh(3)
    spaces = SpaceSet(mesh)
    lin = lambda x: x[..., 0] + 3.0 * x[..., 1]
    field = l2_project(lin, spaces.potential)
    assert error_l2_boundary(field, lin, mesh=mesh) < 1e-12


def test_boundary_error_rejects_a_field_on_another_mesh():
    # a field brings its mesh: a different one passed with it is an error,
    # not silently replaced; the field's own mesh is accepted
    mesh, other = build_unit_square_mesh(2), build_unit_square_mesh(2)
    field = DiscreteField(SpaceSet(mesh).control)
    one = lambda x: np.ones(x.shape[:-1])
    with pytest.raises(ValueError, match="another mesh"):
        error_l2_boundary(field, one, mesh=other)
    assert error_l2_boundary(field, one, mesh=mesh) == error_l2_boundary(field, one)


def test_flux_normal_error_constant_gradient():
    # zero discrete flux against grad z = (1, 0): the normal component is
    # +-1 on the vertical sides and 0 on the horizontal ones
    mesh = build_unit_square_mesh(2)
    spaces = SpaceSet(mesh)
    zero = DiscreteField(spaces.flux, np.zeros(spaces.flux.num_dofs))
    err = error_flux_normal_boundary(zero, lambda x: np.broadcast_to([1.0, 0.0], x.shape), 1.0)
    assert err == pytest.approx(np.sqrt(2.0), rel=1e-12)


# ------------------------------------------------------------------ rates


def test_convergence_rate_values():
    assert convergence_rate(0.04, 0.02) == pytest.approx(1.0)
    assert convergence_rate(1.64e-2, 3.73e-3) == pytest.approx(2.14, abs=0.01)
    assert convergence_rate(0.5, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_convergence_rate_rejects_nonpositive():
    with pytest.raises(ValueError):
        convergence_rate(0.0, 1.0)
    with pytest.raises(ValueError):
        convergence_rate(1.0, -2.0)


@given(st.floats(1e-8, 1e3), st.floats(1e-8, 1e3), st.floats(1e-8, 1e3))
@settings(max_examples=50, deadline=None)
def test_convergence_rate_additive_over_levels(a, b, c):
    total = convergence_rate(a, c)
    split = convergence_rate(a, b) + convergence_rate(b, c)
    assert split == pytest.approx(total, abs=1e-10 * max(1.0, abs(total)))


def test_least_squares_rate_recovers_power():
    errors = [0.5 * 0.5 ** (1.7 * k) for k in range(4)]
    assert least_squares_rate(errors) == pytest.approx(1.7, abs=1e-12)
    two = [0.3, 0.3 / 2.0**1.1]
    assert least_squares_rate(two) == pytest.approx(convergence_rate(*two), abs=1e-12)


# ------------------------------------------------------- manufactured case


def test_example1_satisfies_strong_form():
    case = manufactured_example1()
    res_state, res_adjoint = check_strong_form(case, num_points=200, seed=0)
    assert res_state < 1e-5
    assert res_adjoint < 1e-5


def test_example1_small_diffusion_strong_form():
    case = manufactured_example1(epsilon=1e-6)
    res_state, res_adjoint = check_strong_form(case, num_points=200, seed=1)
    assert res_state < 1e-5
    assert res_adjoint < 1e-5


def test_manufactured_validation_rejects_bad_adjoint():
    case = manufactured_example1()
    with pytest.raises(ValueError, match="vanish"):
        dataclasses.replace(case, z=lambda x: case.z(x) + 0.05)


def test_manufactured_validation_rejects_broken_optimality():
    case = manufactured_example1()
    with pytest.raises(ValueError, match="optimality"):
        dataclasses.replace(case, u=lambda x: case.u(x) + 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, value", [("epsilon", 0.0), ("epsilon", -1.0),
                                         ("epsilon", np.inf), ("epsilon", np.nan),
                                         ("omega", 0.0), ("omega", -2.0), ("omega", np.nan)])
def test_manufactured_example1_rejects_bad_parameters(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        manufactured_example1(**{name: value})


def test_problem_data_carries_edge_conventions():
    case = manufactured_example1(epsilon=0.25, omega=2.0)
    data = case.problem_data()
    assert data.epsilon == 0.25 and data.omega == 2.0
    assert data.c12_direction == tuple(case.beta)


# ------------------------------------------------------------ example data


def test_example2_data_facts():
    data = example2_data()
    assert (data.u_lower, data.u_upper) == (0.0, 0.2)
    assert data_values(data.f, np.array([0.3, 0.7]), "f") == 0.0
    yd = data_values(data.y_desired, np.array([[1.0, 1.0], [0.0, 1.0]]), "y_desired")
    assert yd == pytest.approx([2.0 ** (-1.0 / 3.0), 1.0])
    assert data.beta == (1.0, 1.0) and data.alpha == 1.0


def test_example3_domain_and_meshes():
    domain = example3_domain()
    assert domain.vertices.shape == (4, 2)
    assert domain.vertices[3, 0] == pytest.approx(-np.sqrt(3.0))
    for level, count in ((0, 3), (1, 12), (2, 48)):
        assert example3_mesh(level).num_elements == count
    assert example3_mesh(1, coarse="diag2").num_elements == 8


def test_example3_data_facts():
    data = example3_data()
    yd = data_values(data.y_desired, np.array([[0.5, 0.2], [0.5, 0.8]]), "y_desired")
    assert yd.tolist() == [-1.0, 1.0]
    assert data.u_lower == 0.0 and not np.isfinite(data.u_upper)
    assert data.beta == (1.0, 0.0) and data.alpha == 2.0


# ---------------------------------------------------------- nested meshes


def test_locator_follows_refinement_chain():
    coarse = build_unit_square_mesh(3)
    fine = refine_uniform(refine_uniform(coarse))
    locator = NestedLocator(coarse, fine)
    spaces_f = SpaceSet(fine)
    lin = lambda x: 1.0 + 2.0 * x[..., 0] - x[..., 1]
    field = l2_project(lin, spaces_f.potential)
    rng = np.random.default_rng(2)
    for t in range(0, coarse.num_elements, 4):
        tri = coarse.vertices[coarse.triangles[t]]
        lam = rng.dirichlet(np.ones(3))
        x = lam @ tri
        tf = locator.locate(t, x)
        assert abs(eval_field(field, tf, x) - lin(x)) < 1e-12


def test_locator_boundary_parametrization_is_geometric():
    coarse = build_unit_square_mesh(2)
    fine = refine_uniform(coarse)
    locator = NestedLocator(coarse, fine)
    for e in coarse.boundary_edges:
        a, b = coarse.vertices[coarse.edges[e]]
        for s in (0.1, 0.45, 0.8):
            f, sf = locator.locate_boundary(int(e), s)
            fa, fb = fine.vertices[fine.edges[f]]
            x_c = a + s * (b - a)
            x_f = fa + sf * (fb - fa)
            assert np.abs(x_c - x_f).max() < 1e-12


def _locate_pointwise(locator, t, x):
    # one point at a time, each child's barycentric fit by a 2x2 solve
    for mesh in locator.chain[1:]:
        fits = []
        for child in range(4 * t, 4 * t + 4):
            tri = mesh.vertices[mesh.triangles[child]]
            xy = np.linalg.solve(np.column_stack([tri[1] - tri[0], tri[2] - tri[0]]), x - tri[0])
            fits.append(min(1.0 - xy[0] - xy[1], xy[0], xy[1]))
        t = 4 * t + int(np.argmax(fits))
    return t


def test_locator_batched_matches_pointwise_on_skewed_domain():
    coarse = example3_mesh(1)
    fine = refine_uniform(refine_uniform(refine_uniform(coarse)))
    locator = NestedLocator(coarse, fine)
    rng = np.random.default_rng(5)
    lam = rng.dirichlet(np.ones(3), size=(coarse.num_elements, 7))
    pts = np.einsum("tgi,tid->tgd", lam, coarse.vertices[coarse.triangles])
    tf = locator.locate(np.arange(coarse.num_elements)[:, None], pts)
    assert tf.shape == (coarse.num_elements, 7)
    for t in range(coarse.num_elements):
        for g in range(7):
            assert tf[t, g] == _locate_pointwise(locator, t, pts[t, g])


def test_locator_tie_on_child_edge_goes_to_first_child():
    # barycentric (1/2, 1/4, 1/4) lies on the edge shared by children 0 and 3
    coarse = build_unit_square_mesh(4)
    locator = NestedLocator(coarse, refine_uniform(coarse))
    pts = np.array([0.5, 0.25, 0.25]) @ coarse.vertices[coarse.triangles]
    tf = locator.locate(np.arange(coarse.num_elements), pts)
    assert np.array_equal(tf, 4 * np.arange(coarse.num_elements))
    assert locator.locate(3, pts[3]) == 12


def test_locator_boundary_registration_partitions_coarse_edges():
    coarse = example3_mesh(1)
    fine = refine_uniform(refine_uniform(coarse))
    locator = NestedLocator(coarse, fine)
    assert np.array_equal(np.sort(locator.boundary_fine), fine.boundary_edges)
    for e in coarse.boundary_edges:
        span = locator.boundary_span[locator.boundary_coarse == e]
        assert len(span) == 4
        assert span[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert span[-1, 1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(span[1:, 0], span[:-1, 1], atol=1e-12)
    # endpoints of every fine edge sit at their registered coarse parameters
    a, b = (coarse.vertices[coarse.edges[locator.boundary_coarse, end]] for end in range(2))
    for end in range(2):
        x = a + locator.boundary_span[:, end, None] * (b - a)
        assert np.abs(x - fine.vertices[fine.edges[locator.boundary_fine, end]]).max() < 1e-12


def test_locator_rejects_unrelated_meshes():
    with pytest.raises(ValueError):
        NestedLocator(build_unit_square_mesh(2), build_unit_square_mesh(4))


def test_locator_rejects_a_child_not_numbered_by_refine_uniform():
    # the boundary registration reads refine_uniform's vertex numbering, so
    # a refinement with its vertices renumbered is not taken as nested
    coarse = build_unit_square_mesh(2)
    fine = refine_uniform(coarse)
    perm = np.random.default_rng(0).permutation(fine.num_vertices)
    inverse = np.argsort(perm)
    renumbered = Mesh(fine.vertices[perm], inverse[fine.triangles], parent=fine.parent,
                      parent_mesh=coarse)
    with pytest.raises(ValueError, match="does not refine"):
        NestedLocator(coarse, renumbered)


class _ProlongedReference:
    """Coarse solution expressed exactly on a refined mesh (test double)."""

    def __init__(self, coarse_sol, fine_mesh, locator):
        self.mesh = fine_mesh
        spaces_f = SpaceSet(fine_mesh)
        self.y = self._prolong(coarse_sol.y, spaces_f.potential)
        self.z = self._prolong(coarse_sol.z, spaces_f.potential)
        self.p = self._prolong(coarse_sol.p, spaces_f.flux)
        self._coarse = coarse_sol
        pos = np.full(fine_mesh.num_edges, -1)
        pos[locator.boundary_fine] = np.arange(len(locator.boundary_fine))
        self._pos, self._locator = pos, locator

    @staticmethod
    def _prolong(field, dofmap):
        # nodal values of each child at its vertices, read in the parent
        mesh = dofmap.mesh
        parent = np.arange(mesh.num_elements) // 4
        vals = eval_field(field, parent[:, None], mesh.vertices[mesh.triangles], tol=1e-9)
        return DiscreteField(dofmap, vals.ravel())

    def control_on_edge(self, edges, s):
        i = self._pos[edges]
        s0, s1 = np.moveaxis(self._locator.boundary_span[i], -1, 0)
        return self._coarse.control_on_edge(self._locator.boundary_coarse[i],
                                            s0 + np.asarray(s) * (s1 - s0))


def _prolonged_pair(mode):
    case = manufactured_example1()
    mesh = build_unit_square_mesh(3)
    ops = assemble_forms(mesh, case.problem_data())
    sol = pdas_solve(ops, mode=mode)
    fine = refine_uniform(mesh)
    return sol, _ProlongedReference(sol, fine, NestedLocator(mesh, fine))


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_reference_compare_exact_embedding_gives_zero(mode):
    # prolonging a solution onto the refined mesh must produce a zero
    # error row: this pins down the locator and quadrature plumbing
    sol, ref = _prolonged_pair(mode)
    row = reference_compare(sol, ref)
    assert row.err_y < 1e-10
    assert row.err_u < 1e-10
    assert row.err_z < 1e-10
    assert row.err_pn < 1e-10


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_reference_compare_detects_known_offset(mode):
    # shifting the reference state by a constant must surface as exactly
    # that constant in the domain column and leave the others untouched
    sol, ref = _prolonged_pair(mode)
    ref.y = DiscreteField(ref.y.dofmap, ref.y.coefficients + 0.25)
    row = reference_compare(sol, ref)
    assert row.err_y == pytest.approx(0.25, rel=1e-10)
    assert row.err_u < 1e-10 and row.err_z < 1e-10 and row.err_pn < 1e-10


def test_both_truths_measure_the_same_norms():
    # a closed form that is a finer solution of the same chain, evaluated
    # where the nested comparison evaluates it, must give that row
    case = manufactured_example1(epsilon=0.5)
    coarse_mesh = build_unit_square_mesh(4)
    fine_mesh = refine_uniform(refine_uniform(coarse_mesh))
    coarse, fine = (pdas_solve(assemble_forms(m, case.problem_data()))
                    for m in (coarse_mesh, fine_mesh))
    assert (coarse_mesh.num_elements, fine_mesh.num_elements) == (32, 512)
    locator = NestedLocator(coarse_mesh, fine_mesh)
    edges = coarse_mesh.boundary_edges
    start, end = (coarse_mesh.vertices[coarse_mesh.edges[edges, k]] for k in range(2))

    def on_boundary(values):
        # points (b, k, 2) lie on the coarse boundary edges, in their order
        def at(x):
            s = (np.einsum("ekd,ed->ek", x - start[:, None], end - start)
                 / np.sum((end - start) ** 2, axis=1)[:, None])
            return values(*locator.locate_boundary(edges[:, None], s))
        return at

    fine_case = types.SimpleNamespace(
        epsilon=case.epsilon,
        y=lambda x: eval_field(fine.y, locator.locate(np.arange(len(x))[:, None], x), x,
                               tol=1e-8),
        u=on_boundary(fine.control_on_edge),
        z=on_boundary(lambda f, s: trace_on_edge(fine.z, f, 0, s)),
        grad_z=on_boundary(lambda f, s: trace_on_edge(fine.p, f, 0, s) / np.sqrt(case.epsilon)))
    row, expected = closed_form_row(coarse, fine_case), reference_compare(coarse, fine)
    assert (row.elements, row.h) == (expected.elements, expected.h)
    for name in ErrorReport.COLUMNS:
        assert getattr(row, name) == pytest.approx(getattr(expected, name), rel=1e-12, abs=0.0)
        assert getattr(row, name) > 1e-6


# ----------------------------------------------------- gap diagnostics


def test_galerkin_diagnostics_terms():
    case = manufactured_example1()
    mesh = build_unit_square_mesh(4)
    ops = assemble_forms(mesh, case.problem_data())
    diag = galerkin_diagnostics(case, ops)
    for term in (diag.err_y_state, diag.err_pn_adjoint, diag.err_z_adjoint,
                 diag.err_quasi_interp):
        assert np.isfinite(term) and term > 0.0
    expected = (diag.err_y_state**2 + diag.epsilon * diag.err_pn_adjoint**2
                + diag.weighted_z2)
    assert diag.bound_rhs == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------- report


def test_error_report_rates_and_order():
    report = ErrorReport()
    report.add_row(ErrorReportRow(32, 0.35, 4e-2, 1e-1, 2e-2, 3e-1))
    report.add_row(ErrorReportRow(128, 0.17, 1e-2, 5e-2, 5e-3, 1.5e-1))
    assert len(report) == 2
    rates = report.rates("err_y")
    assert rates[0] is None
    assert rates[1] == pytest.approx(2.0)
    assert np.allclose(report.column("err_u"), [1e-1, 5e-2])
    with pytest.raises(ValueError):
        report.add_row(ErrorReportRow(128, 0.17, 1e-2, 5e-2, 5e-3, 1.5e-1))


def test_error_report_rates_count_the_halvings_between_rows():
    # 32 -> 512 elements is two halvings of h: a quartered error is order 1
    report = ErrorReport()
    report.add_row(ErrorReportRow(32, 0.35, 4e-2, 4e-2, 4e-2, 4e-2))
    report.add_row(ErrorReportRow(512, 0.09, 1e-2, 1e-2, 1e-2, 1e-2))
    assert report.rates("err_u")[1] == pytest.approx(1.0, abs=1e-14)


def test_unit_square_sequence_is_nested():
    meshes = unit_square_sequence(3, base_n=2)
    assert [m.num_elements for m in meshes] == [8, 32, 128]
    assert meshes[1].parent_mesh is meshes[0]
    assert meshes[2].parent_mesh is meshes[1]
