"""Convergence-study machinery: manufactured cases, error norms, rates,
nested reference comparison and Galerkin-gap diagnostics.

Three study problems are provided.

* Study problem 1 (unit square) is manufactured: the optimal triple
  (y, z, u) is known in closed form for every diffusion parameter, the
  control is unconstrained, and all four error columns can be measured
  against the exact fields.
* Study problem 2 (unit square) has data with a boundary singularity at
  the origin, box control bounds [0, 0.2], and no closed-form solution;
  errors are measured against a solution on a much finer nested mesh.
* Study problem 3 lives on a convex quadrilateral with a 150-degree
  corner, discontinuous target data and a one-sided bound u >= 0; errors
  are again reference-based.

All error norms use degree-6 quadrature: the discrete fields are
piecewise linear, but the exact solutions are not polynomial, and the
data loads were assembled at degree 6 as well, so cost values and
gradients stay mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

from .geometry import (
    DomainSpec,
    Mesh,
    build_polygon_mesh,
    build_unit_square_mesh,
    point_values,
    refine_uniform,
)
from .ldg import BlockOperator, ProblemData, solve_adjoint, solve_state
from .spaces import (
    DiscreteField,
    edge_basis_values,
    eval_field,
    physical_points,
    quadrature_rule,
    tri_basis_values,
    trace_on_edge,
)

__all__ = [
    "ManufacturedCase",
    "manufactured_example1",
    "check_strong_form",
    "example2_data",
    "example3_domain",
    "example3_mesh",
    "example3_data",
    "error_l2_domain",
    "error_l2_boundary",
    "error_flux_normal_boundary",
    "convergence_rate",
    "least_squares_rate",
    "NestedLocator",
    "reference_compare",
    "galerkin_diagnostics",
    "GalerkinDiagnostics",
    "ErrorReport",
    "ErrorReportRow",
]


# ---------------------------------------------------------------------------
# polygon sampling helpers


def _segment_data(vertices):
    """Per-side arrays (start, tangent, length, outward normal) of a ccw polygon."""
    v = np.asarray(vertices, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    tang = nxt - v
    lengths = np.sqrt(np.sum(tang**2, axis=1))
    unit = tang / lengths[:, None]
    normals = np.column_stack([unit[:, 1], -unit[:, 0]])
    return v, unit, lengths, normals


def _boundary_samples(vertices, per_side=25):
    """Points strictly inside each polygon side, with outward normals."""
    starts, unit, lengths, normals = _segment_data(vertices)
    pts, nrm = [], []
    params = np.linspace(0.05, 0.95, per_side)
    for i in range(starts.shape[0]):
        for t in params:
            pts.append(starts[i] + t * lengths[i] * unit[i])
            nrm.append(normals[i])
    return np.array(pts), np.array(nrm)


def _point_in_polygon(vertices, x):
    starts, unit, lengths, _ = _segment_data(vertices)
    rel = np.asarray(x) - starts
    cross = unit[:, 0] * rel[:, 1] - unit[:, 1] * rel[:, 0]
    return bool(np.all(cross > 0.0))


def _distance_to_boundary(vertices, x):
    starts, unit, lengths, _ = _segment_data(vertices)
    rel = np.asarray(x) - starts
    t = np.clip(np.sum(rel * unit, axis=1), 0.0, lengths)
    foot = starts + t[:, None] * unit
    return float(np.min(np.sqrt(np.sum((foot - np.asarray(x)) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# manufactured case


@dataclass
class ManufacturedCase:
    """Closed-form optimal solution of the control problem on a polygon.

    The callables take a physical point (2,) and return scalars (y, z, u,
    f, y_desired) or 2-vectors (grad_y, grad_z).  Construction validates
    the two structural identities every admissible case must satisfy: the
    adjoint vanishes on the boundary, and the unconstrained optimality
    relation omega*u = eps * dz/dn holds along the boundary.
    """

    epsilon: float
    omega: float
    beta: tuple
    alpha: float
    y: Callable
    grad_y: Callable
    z: Callable
    grad_z: Callable
    u: Callable
    f: Callable
    y_desired: Callable
    vertices: np.ndarray = dataclass_field(
        default_factory=lambda: np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    )
    name: str = "manufactured"

    def __post_init__(self):
        pts, normals = _boundary_samples(self.vertices)
        for x, n in zip(pts, normals):
            if abs(self.z(x)) > 1e-12:
                raise ValueError(f"adjoint does not vanish on the boundary at {x}")
            lam = self.omega * self.u(x) - self.epsilon * float(np.dot(self.grad_z(x), n))
            if abs(lam) > 1e-12 * max(1.0, self.omega * abs(self.u(x))):
                raise ValueError(f"optimality relation violated on the boundary at {x}")

    @property
    def sqrt_eps(self) -> float:
        return float(np.sqrt(self.epsilon))

    def q(self, x):
        """Exact scaled state flux -sqrt(eps) grad(y)."""
        return -self.sqrt_eps * np.asarray(self.grad_y(x))

    def p(self, x):
        """Exact scaled adjoint flux +sqrt(eps) grad(z)."""
        return self.sqrt_eps * np.asarray(self.grad_z(x))

    def problem_data(self, **overrides) -> ProblemData:
        """Problem data with the edge-switch convention of the study tables.

        The auxiliary C12 direction is set to the velocity field with a
        central flux on edges whose normal is orthogonal to it; this is the
        convention the stored reference errors were computed with.
        """
        kwargs = dict(
            epsilon=self.epsilon,
            omega=self.omega,
            beta=self.beta,
            alpha=self.alpha,
            f=self.f,
            y_desired=self.y_desired,
            c12_direction=tuple(self.beta),
            c12_tie=0.0,
        )
        kwargs.update(overrides)
        return ProblemData(**kwargs)


def manufactured_example1(epsilon: float = 1.0, omega: float = 1.0) -> ManufacturedCase:
    """Unit-square manufactured case with polynomial optimal triple.

    The adjoint z = eps^{-1/2} x1 x2 (1-x1)(1-x2) vanishes on the boundary;
    the state y = -(sqrt(eps)/omega)(x1(1-x1) + x2(1-x2)) is chosen so the
    unconstrained optimality relation omega*u = eps dz/dn holds with
    u = y|_Gamma.  Source and target data follow from the strong equations
    with beta = (1,1) and alpha = 1.
    """
    se = float(np.sqrt(epsilon))
    inv_se = 1.0 / se
    alpha = 1.0

    def y_fun(x):
        return -(se / omega) * (x[0] * (1.0 - x[0]) + x[1] * (1.0 - x[1]))

    def grad_y_fun(x):
        return np.array([-(se / omega) * (1.0 - 2.0 * x[0]), -(se / omega) * (1.0 - 2.0 * x[1])])

    def z_fun(x):
        return inv_se * x[0] * x[1] * (1.0 - x[0]) * (1.0 - x[1])

    def grad_z_fun(x):
        return np.array([
            inv_se * (1.0 - 2.0 * x[0]) * x[1] * (1.0 - x[1]),
            inv_se * x[0] * (1.0 - x[0]) * (1.0 - 2.0 * x[1]),
        ])

    def lap_z_fun(x):
        return -2.0 * inv_se * (x[0] * (1.0 - x[0]) + x[1] * (1.0 - x[1]))

    def f_fun(x):
        # f = -eps lap(y) + beta . grad(y) + alpha y  (divergence-free beta)
        lap_y = 4.0 * se / omega
        conv = grad_y_fun(x)
        return -epsilon * lap_y + conv[0] + conv[1] + alpha * y_fun(x)

    def y_desired_fun(x):
        # adjoint -eps lap(z) - beta . grad(z) + alpha z = y - y_desired
        gz = grad_z_fun(x)
        return y_fun(x) + epsilon * lap_z_fun(x) + gz[0] + gz[1] - alpha * z_fun(x)

    return ManufacturedCase(
        epsilon=epsilon,
        omega=omega,
        beta=(1.0, 1.0),
        alpha=alpha,
        y=y_fun,
        grad_y=grad_y_fun,
        z=z_fun,
        grad_z=grad_z_fun,
        u=y_fun,
        f=f_fun,
        y_desired=y_desired_fun,
        name="study-1",
    )


def check_strong_form(case: ManufacturedCase, num_points: int = 200,
                      seed: int = 0, step: float = 1e-4):
    """Finite-difference residuals of the strong state/adjoint equations.

    Samples random interior points (kept a few stencil widths away from the
    boundary) and returns the maximum absolute residual of the state
    equation and of the adjoint equation.
    """
    rng = np.random.default_rng(seed)
    verts = case.vertices
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    pts = []
    while len(pts) < num_points:
        x = lo + rng.random(2) * (hi - lo)
        if _point_in_polygon(verts, x) and _distance_to_boundary(verts, x) > 4.0 * step:
            pts.append(x)
    beta = np.asarray(case.beta, dtype=float)
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    res_state = 0.0
    res_adjoint = 0.0
    for x in pts:
        lap_y = (case.y(x + ex) + case.y(x - ex) + case.y(x + ey) + case.y(x - ey)
                 - 4.0 * case.y(x)) / step**2
        grad_y = np.array([
            (case.y(x + ex) - case.y(x - ex)) / (2.0 * step),
            (case.y(x + ey) - case.y(x - ey)) / (2.0 * step),
        ])
        r1 = -case.epsilon * lap_y + float(np.dot(beta, grad_y)) + case.alpha * case.y(x) - case.f(x)
        lap_z = (case.z(x + ex) + case.z(x - ex) + case.z(x + ey) + case.z(x - ey)
                 - 4.0 * case.z(x)) / step**2
        grad_z = np.array([
            (case.z(x + ex) - case.z(x - ex)) / (2.0 * step),
            (case.z(x + ey) - case.z(x - ey)) / (2.0 * step),
        ])
        r2 = (-case.epsilon * lap_z - float(np.dot(beta, grad_z)) + case.alpha * case.z(x)
              - (case.y(x) - case.y_desired(x)))
        res_state = max(res_state, abs(r1))
        res_adjoint = max(res_adjoint, abs(r2))
    return res_state, res_adjoint


# ---------------------------------------------------------------------------
# the two reference-based study problems


def example2_data(epsilon: float = 1.0) -> ProblemData:
    """Unit-square problem with boundary-singular target and box bounds.

    Data: f = 0, y_desired = (x1^2 + x2^2)^(-1/3) (unbounded at the origin
    corner but integrable), beta = (1,1), alpha = 1, omega = 1, control
    bounds [0, 0.2].  The target is evaluated by quadrature of the analytic
    expression; it is never interpolated.
    """

    def y_desired(x):
        return (x[0] * x[0] + x[1] * x[1]) ** (-1.0 / 3.0)

    return ProblemData(
        epsilon=epsilon,
        omega=1.0,
        beta=(1.0, 1.0),
        alpha=1.0,
        f=0.0,
        y_desired=y_desired,
        u_lower=0.0,
        u_upper=0.2,
        c12_direction=(1.0, 1.0),
        c12_tie=0.0,
    )


def example3_domain(slant: float = -np.sqrt(3.0)) -> DomainSpec:
    """Convex quadrilateral with its largest corner at the origin.

    Vertices (0,0), (1,0), (1,1), (slant,1); the default slant -sqrt(3)
    makes the interior angle at the origin 150 degrees.
    """
    if slant >= 0.0:
        raise ValueError("the slanted corner must lie left of the origin")
    return DomainSpec(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (slant, 1.0)], name="slanted-quad"
    )


def example3_mesh(level: int, coarse: str = "fan3", slant: float = -np.sqrt(3.0)) -> Mesh:
    """Nested meshes of the slanted quadrilateral.

    ``coarse`` selects the root triangulation: "fan3" inserts the boundary
    point (0,1) on the top side and fans from the origin (3 root elements,
    counts 3*4^level); "diag2" splits along the diagonal from the origin
    (2 root elements, counts 2*4^level).
    """
    domain = example3_domain(slant)
    if coarse == "fan3":
        return build_polygon_mesh(domain, level, extra_boundary_points=[(0.0, 1.0)])
    if coarse == "diag2":
        return build_polygon_mesh(domain, level)
    raise ValueError(f"unknown coarse triangulation {coarse!r}")


def example3_data(epsilon: float = 1.0) -> ProblemData:
    """Slanted-quadrilateral problem with discontinuous target.

    Data: y_desired = -1 below the line x2 = 0.5 and +1 above it, f = 1,
    beta = (1,0), alpha = 2, omega = 1, one-sided bound u >= 0.
    """

    def y_desired(x):
        return -1.0 if x[1] < 0.5 else 1.0

    return ProblemData(
        epsilon=epsilon,
        omega=1.0,
        beta=(1.0, 0.0),
        alpha=2.0,
        f=1.0,
        y_desired=y_desired,
        u_lower=0.0,
        u_upper=np.inf,
        c12_direction=(1.0, 0.0),
        c12_tie=0.0,
    )


# ---------------------------------------------------------------------------
# error norms


def _domain_quad(mesh, degree):
    rule = quadrature_rule("triangle", degree)
    lam = tri_basis_values(rule.points)
    pts = physical_points(mesh, rule.points)
    return rule, lam, pts


def error_l2_domain(field: DiscreteField, exact, degree: int = 6) -> float:
    """L2(domain) distance between an element field and an exact function."""
    mesh = field.dofmap.mesh
    rule, lam, pts = _domain_quad(mesh, degree)
    if field.dofmap.kind == "scalar-element":
        vals_h = np.einsum("ti,ki->tk", field.coefficients.reshape(-1, 3), lam)
        diff2 = (point_values(exact, pts) - vals_h) ** 2
    elif field.dofmap.kind == "vector-element":
        vals_h = np.einsum("tic,ki->tkc", field.coefficients.reshape(-1, 3, 2), lam)
        diff2 = np.sum((point_values(exact, pts) - vals_h) ** 2, axis=2)
    else:
        raise ValueError("domain errors need an element field")
    return float(np.sqrt((2.0 * mesh.areas) @ (diff2 @ rule.weights)))


def _boundary_edge_loop(mesh, degree):
    rule = quadrature_rule("edge", degree)
    phi = edge_basis_values(rule.points)
    for e in mesh.boundary_edges:
        a, b = mesh.vertices[mesh.edges[e]]
        xg = a[None, :] + rule.points[:, None] * (b - a)[None, :]
        wt = rule.weights * mesh.edge_lengths[e]
        yield e, xg, wt, phi, rule.points, mesh.edge_normals[e, 0]


def error_l2_boundary(source, exact, mesh: Mesh = None, degree: int = 6) -> float:
    """L2(boundary) distance between a trace source and an exact function.

    ``source`` may be a boundary-edge field (controls), a scalar element
    field (its boundary trace is used), or a plain callable.
    """
    if isinstance(source, DiscreteField):
        mesh = source.dofmap.mesh
    if mesh is None:
        raise ValueError("a mesh is required for callable sources")
    err2 = 0.0
    for e, xg, wt, phi, s, _n in _boundary_edge_loop(mesh, degree):
        if isinstance(source, DiscreteField):
            vals = trace_on_edge(source, e, 0, s)
        else:
            vals = np.array([source(x) for x in xg])
        diff = np.array([exact(x) for x in xg]) - vals
        err2 += float(np.dot(wt, diff**2))
    return float(np.sqrt(err2))


def error_flux_normal_boundary(p_h: DiscreteField, grad_z_exact, epsilon: float,
                               mesh: Mesh = None, degree: int = 6) -> float:
    """L2(boundary) distance of normal traces of the scaled adjoint flux.

    The exact flux is sqrt(eps) grad(z); the discrete field's normal trace
    is taken from the boundary element of each edge.
    """
    if mesh is None:
        mesh = p_h.dofmap.mesh
    sqrt_eps = float(np.sqrt(epsilon))
    err2 = 0.0
    for e, xg, wt, phi, s, n in _boundary_edge_loop(mesh, degree):
        vals = trace_on_edge(p_h, e, 0, s)  # (k, 2)
        pn_h = vals @ n
        pn_ex = np.array([sqrt_eps * float(np.dot(grad_z_exact(x), n)) for x in xg])
        err2 += float(np.dot(wt, (pn_ex - pn_h) ** 2))
    return float(np.sqrt(err2))


def convergence_rate(e_coarse: float, e_fine: float) -> float:
    """Observed order between two errors on meshes differing by one halving."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise ValueError("convergence rates need positive errors")
    return float(np.log(e_coarse / e_fine) / np.log(2.0))


def least_squares_rate(errors) -> float:
    """Least-squares slope of log(error) against log(h) for halving meshes."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.size < 2:
        raise ValueError("need at least two errors for a rate fit")
    if np.any(errors <= 0.0):
        raise ValueError("rate fits need positive errors")
    log_h = -np.arange(errors.size) * np.log(2.0)
    slope = np.polyfit(log_h, np.log(errors), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# nested-mesh reference comparison


class NestedLocator:
    """Maps points of a coarse mesh into a refined mesh of the same family.

    The fine mesh must descend from the coarse one through repeated uniform
    refinement (the parent chain is followed and verified).  Elements are
    located by walking down the chain and picking, per level, the child
    with the best barycentric fit; boundary points are located through a
    registration table of fine boundary edges against coarse ones.
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
        self._build_boundary_table()

    def _build_boundary_table(self):
        coarse, fine = self.coarse, self.fine
        starts = coarse.vertices[coarse.edges[coarse.boundary_edges, 0]]
        ends = coarse.vertices[coarse.edges[coarse.boundary_edges, 1]]
        tang = ends - starts
        lengths = np.sqrt(np.sum(tang**2, axis=1))
        unit = tang / lengths[:, None]
        table = {int(e): [] for e in coarse.boundary_edges}
        tol = 1e-10
        for f in fine.boundary_edges:
            fa, fb = fine.vertices[fine.edges[f]]
            placed = False
            for idx, e in enumerate(coarse.boundary_edges):
                rel_a = fa - starts[idx]
                rel_b = fb - starts[idx]
                cross_a = unit[idx, 0] * rel_a[1] - unit[idx, 1] * rel_a[0]
                cross_b = unit[idx, 0] * rel_b[1] - unit[idx, 1] * rel_b[0]
                if abs(cross_a) > tol or abs(cross_b) > tol:
                    continue
                s0 = float(np.dot(rel_a, unit[idx])) / lengths[idx]
                s1 = float(np.dot(rel_b, unit[idx])) / lengths[idx]
                if -tol <= s0 < s1 <= 1.0 + tol:
                    table[int(e)].append((s0, s1, int(f)))
                    placed = True
                    break
            if not placed:
                raise ValueError("fine boundary edge does not lie on the coarse boundary")
        for e in table:
            table[e].sort()
        self._boundary_table = table

    def locate(self, element_id: int, point) -> int:
        """Fine element containing a point of the given coarse element."""
        point = np.asarray(point, dtype=float)
        t = int(element_id)
        for lvl in range(1, len(self.chain)):
            mesh = self.chain[lvl]
            best_t, best_fit = -1, -np.inf
            for child in range(4 * t, 4 * t + 4):
                tri = mesh.vertices[mesh.triangles[child]]
                T = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
                xy = np.linalg.solve(T, point - tri[0])
                fit = min(1.0 - xy[0] - xy[1], xy[0], xy[1])
                if fit > best_fit:
                    best_fit, best_t = fit, child
            t = best_t
        return t

    def locate_boundary(self, edge_id: int, s: float):
        """Fine boundary edge and local parameter for a coarse edge point."""
        entries = self._boundary_table[int(edge_id)]
        for s0, s1, f in entries:
            if s <= s1 + 1e-12:
                local = (s - s0) / (s1 - s0)
                return f, float(np.clip(local, 0.0, 1.0))
        s0, s1, f = entries[-1]
        return f, 1.0


def reference_compare(coarse_sol, reference_sol, degree: int = 6):
    """Error row of a coarse solution against a nested reference solution.

    All four columns are integrated on the coarse elements and edges with
    the reference fields evaluated inside the containing fine entity, so
    full and variational controls are compared through their pointwise
    values rather than coefficients.
    """
    coarse_mesh = coarse_sol.mesh
    ref_mesh = reference_sol.mesh
    locator = NestedLocator(coarse_mesh, ref_mesh)

    rule, lam, pts = _domain_quad(coarse_mesh, degree)
    nt = coarse_mesh.num_elements
    coeff = coarse_sol.y.coefficients.reshape(nt, 3)
    vals_h = np.einsum("ti,ki->tk", coeff, lam)
    err_y2 = 0.0
    for t in range(nt):
        diff2 = 0.0
        for g, x in enumerate(pts[t]):
            tf = locator.locate(t, x)
            y_ref = eval_field(reference_sol.y, tf, x, tol=1e-8)
            diff2 += rule.weights[g] * (vals_h[t, g] - y_ref) ** 2
        err_y2 += 2.0 * coarse_mesh.areas[t] * diff2

    err_u2 = err_z2 = err_pn2 = 0.0
    for e, xg, wt, phi, s, n in _boundary_edge_loop(coarse_mesh, degree):
        u_c = coarse_sol.control_on_edge(e, s)
        z_c = trace_on_edge(coarse_sol.z, e, 0, s)
        pn_c = trace_on_edge(coarse_sol.p, e, 0, s) @ n
        for g in range(len(s)):
            f, sf = locator.locate_boundary(e, s[g])
            u_r = reference_sol.control_on_edge(f, np.array([sf]))[0]
            z_r = trace_on_edge(reference_sol.z, f, 0, sf)
            pn_r = float(trace_on_edge(reference_sol.p, f, 0, np.array([sf]))[0] @ n)
            err_u2 += wt[g] * (u_c[g] - u_r) ** 2
            err_z2 += wt[g] * (z_c[g] - z_r) ** 2
            err_pn2 += wt[g] * (pn_c[g] - pn_r) ** 2

    return ErrorReportRow(
        elements=coarse_mesh.num_elements,
        h=coarse_mesh.h,
        err_y=float(np.sqrt(err_y2)),
        err_u=float(np.sqrt(err_u2)),
        err_z=float(np.sqrt(err_z2)),
        err_pn=float(np.sqrt(err_pn2)),
    )


# ---------------------------------------------------------------------------
# Galerkin-gap diagnostics


@dataclass
class GalerkinDiagnostics:
    """Terms of the control-error bound split into Galerkin pieces.

    err_y_state is the state solve driven by the exact control;
    err_pn_adjoint and err_z_adjoint come from the adjoint solve driven by
    the exact right-hand side y - y_desired.  weighted_z2 is the squared
    z-trace error with each boundary edge weighted by its kappa^2;
    bound_rhs composes the right side of the gap inequality (with unit
    leading constant).
    """

    err_y_state: float
    err_pn_adjoint: float
    err_z_adjoint: float
    weighted_z2: float
    err_quasi_interp: float
    epsilon: float

    @property
    def bound_rhs(self) -> float:
        return self.err_y_state**2 + self.epsilon * self.err_pn_adjoint**2 + self.weighted_z2


def galerkin_diagnostics(case: ManufacturedCase, mesh: Mesh, ops: BlockOperator) -> GalerkinDiagnostics:
    """Galerkin-only error terms for a manufactured case.

    Solves the state system with the exact control and the adjoint system
    with the exact data y - y_desired, then measures the three boundary /
    domain terms of the error bound, plus the quasi-interpolation error of
    the exact control.
    """
    y_hu, _q_hu = solve_state(ops, case.u)
    err_y_state = error_l2_domain(y_hu, case.y)

    def adjoint_rhs(x):
        return case.y(x) - case.y_desired(x)

    z_hu, p_hu = solve_adjoint(ops, rhs_field=adjoint_rhs)
    err_pn = error_flux_normal_boundary(p_hu, case.grad_z, case.epsilon, mesh)
    err_z = error_l2_boundary(z_hu, case.z, mesh)

    weighted_z2 = 0.0
    for e, xg, wt, phi, s, _n in _boundary_edge_loop(mesh, 6):
        vals = trace_on_edge(z_hu, e, 0, s)
        diff = np.array([case.z(x) for x in xg]) - vals
        weighted_z2 += float(ops.flux.kappa_z[e] ** 2 * np.dot(wt, diff**2))

    from .control import quasi_interpolate

    pi_u = quasi_interpolate(case.u, mesh)
    err_pi = error_l2_boundary(pi_u, case.u, mesh)

    return GalerkinDiagnostics(
        err_y_state=err_y_state,
        err_pn_adjoint=err_pn,
        err_z_adjoint=err_z,
        weighted_z2=weighted_z2,
        err_quasi_interp=err_pi,
        epsilon=case.epsilon,
    )


# ---------------------------------------------------------------------------
# error tables


@dataclass
class ErrorReportRow:
    elements: int
    h: float
    err_y: float
    err_u: float
    err_z: float
    err_pn: float


class ErrorReport:
    """Ordered error rows of a mesh sequence with derived rates."""

    COLUMNS = ("err_y", "err_u", "err_z", "err_pn")

    def __init__(self):
        self.rows: list[ErrorReportRow] = []

    def add_row(self, row: ErrorReportRow) -> None:
        if self.rows and row.elements <= self.rows[-1].elements:
            raise ValueError("error rows must come in increasing element order")
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def rates(self, name: str):
        """Per-row observed orders (None on the first row)."""
        vals = self.column(name)
        out = [None]
        for i in range(1, len(vals)):
            out.append(convergence_rate(vals[i - 1], vals[i]))
        return out

    def __len__(self):
        return len(self.rows)


# ---------------------------------------------------------------------------
# mesh sequence helper shared by the drivers


def unit_square_sequence(levels: int, base_n: int = 4):
    """Nested unit-square meshes with 2*base_n^2*4^k elements, k < levels."""
    meshes = [build_unit_square_mesh(base_n)]
    for _ in range(levels - 1):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes
