"""Convergence-study machinery: manufactured cases, error norms, rates and
nested reference comparison.

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

All error norms use the data rule ``spaces.DATA_DEGREE``: the discrete
fields are piecewise linear, but the exact solutions are not polynomial,
and the data loads were assembled with that rule as well, so cost values
and gradients stay mutually consistent.  Every norm and the nested-reference
comparison evaluate all quadrature points of all elements or boundary
edges in one batched call (``spaces.eval_field``, ``spaces.trace_on_edge``,
``geometry.NestedLocator.locate``/``locate_boundary``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (DomainSpec, Mesh, NestedLocator, build_polygon_mesh, data_values,
                       refine_uniform)
from .ldg import ProblemData
from .spaces import (
    DATA_DEGREE,
    DiscreteField,
    domain_data_rule,
    edge_points,
    eval_field,
    quadrature_rule,
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
    "reference_compare",
    "closed_form_row",
    "ErrorReport",
    "ErrorReportRow",
]


# ---------------------------------------------------------------------------
# manufactured case


@dataclass
class ManufacturedCase:
    """Closed-form optimal solution of the control problem on the unit square.

    The callables take physical points of shape (..., 2) and return shape
    (...) for the scalars (y, z, u, f, y_desired) or (..., 2) for the
    adjoint gradient grad_z.  Construction validates
    the two structural identities every admissible case must satisfy: the
    adjoint vanishes on the boundary, and the unconstrained optimality
    relation omega*u = eps * dz/dn holds along the boundary.
    """

    epsilon: float
    omega: float
    beta: tuple
    alpha: float
    y: Callable
    z: Callable
    grad_z: Callable
    u: Callable
    f: Callable
    y_desired: Callable

    def __post_init__(self):
        # 25 points inside each side, counterclockwise from the origin,
        # with the side's outward normal
        t = np.linspace(0.05, 0.95, 25)
        zero, one = np.zeros_like(t), np.ones_like(t)
        pts = np.column_stack([np.concatenate([t, one, 1.0 - t, zero]),
                               np.concatenate([zero, t, one, 1.0 - t])])
        normals = np.repeat([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], t.size, axis=0)
        bad = np.abs(data_values(self.z, pts, "z")) > 1e-12
        if bad.any():
            raise ValueError(f"adjoint does not vanish on the boundary at {pts[bad][0]}")
        u = data_values(self.u, pts, "u")
        dz_dn = np.sum(data_values(self.grad_z, pts, "grad_z", vector=True) * normals, axis=1)
        bad = np.abs(self.omega * u - self.epsilon * dz_dn) > 1e-12 * np.maximum(
            1.0, self.omega * np.abs(u))
        if bad.any():
            raise ValueError(f"optimality relation violated on the boundary at {pts[bad][0]}")

    def problem_data(self, **overrides) -> ProblemData:
        """Problem data with the edge-switch convention of the study tables.

        The auxiliary C12 direction is set to the velocity field, so edges
        whose normal is orthogonal to it take the central flux; this is the
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
        )
        kwargs.update(overrides)
        return ProblemData(**kwargs)


def manufactured_example1(epsilon: float = 1.0, omega: float = 1.0) -> ManufacturedCase:
    """Unit-square manufactured case with polynomial optimal triple.

    The adjoint z = eps^{-1/2} x1 x2 (1-x1)(1-x2) vanishes on the boundary;
    the state y = -(sqrt(eps)/omega)(x1(1-x1) + x2(1-x2)) is chosen so the
    unconstrained optimality relation omega*u = eps dz/dn holds with
    u = y|_Gamma.  Source and target data follow from the strong equations
    with beta = (1,1) and alpha = 1.  Raises ValueError unless epsilon and
    omega are positive and finite.
    """
    for name, value in (("epsilon", epsilon), ("omega", omega)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    se = float(np.sqrt(epsilon))
    inv_se = 1.0 / se
    alpha = 1.0

    def y_fun(x):
        x1, x2 = x[..., 0], x[..., 1]
        return -(se / omega) * (x1 * (1.0 - x1) + x2 * (1.0 - x2))

    def grad_y_fun(x):
        return np.stack([-(se / omega) * (1.0 - 2.0 * x[..., 0]),
                         -(se / omega) * (1.0 - 2.0 * x[..., 1])], axis=-1)

    def z_fun(x):
        x1, x2 = x[..., 0], x[..., 1]
        return inv_se * x1 * x2 * (1.0 - x1) * (1.0 - x2)

    def grad_z_fun(x):
        x1, x2 = x[..., 0], x[..., 1]
        return np.stack([
            inv_se * (1.0 - 2.0 * x1) * x2 * (1.0 - x2),
            inv_se * x1 * (1.0 - x1) * (1.0 - 2.0 * x2),
        ], axis=-1)

    def lap_z_fun(x):
        x1, x2 = x[..., 0], x[..., 1]
        return -2.0 * inv_se * (x1 * (1.0 - x1) + x2 * (1.0 - x2))

    def f_fun(x):
        # f = -eps lap(y) + beta . grad(y) + alpha y  (divergence-free beta)
        lap_y = 4.0 * se / omega
        conv = grad_y_fun(x)
        return -epsilon * lap_y + conv[..., 0] + conv[..., 1] + alpha * y_fun(x)

    def y_desired_fun(x):
        # adjoint -eps lap(z) - beta . grad(z) + alpha z = y - y_desired
        gz = grad_z_fun(x)
        return y_fun(x) + epsilon * lap_z_fun(x) + gz[..., 0] + gz[..., 1] - alpha * z_fun(x)

    return ManufacturedCase(
        epsilon=epsilon,
        omega=omega,
        beta=(1.0, 1.0),
        alpha=alpha,
        y=y_fun,
        z=z_fun,
        grad_z=grad_z_fun,
        u=y_fun,
        f=f_fun,
        y_desired=y_desired_fun,
    )


def check_strong_form(case: ManufacturedCase, num_points: int = 200, seed: int = 0):
    """Finite-difference residuals of the strong state/adjoint equations.

    Samples random interior points of the unit square, drawn uniformly in
    batches of ``num_points`` with those within a few stencil widths of the
    boundary rejected, and returns the maximum absolute residual of the
    state equation and of the adjoint equation.
    """
    step = 1e-4  # of the difference stencil
    rng = np.random.default_rng(seed)
    x = np.empty((0, 2))
    while len(x) < num_points:
        draw = rng.random((num_points, 2))
        x = np.concatenate([x, draw[np.all(np.minimum(draw, 1.0 - draw) > 4.0 * step, axis=1)]])
    x = x[:num_points]
    beta = np.asarray(case.beta, dtype=float)
    # stencil x, x + step e1, x - step e1, x + step e2, x - step e2
    stencil = x[:, None, :] + step * np.array(
        [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

    def fd_terms(fun, name):
        """Value, five-point Laplacian and central-difference beta . grad."""
        v = data_values(fun, stencil, name)
        lap = (v[:, 1] + v[:, 2] + v[:, 3] + v[:, 4] - 4.0 * v[:, 0]) / step**2
        grad = np.stack([v[:, 1] - v[:, 2], v[:, 3] - v[:, 4]], axis=1) / (2.0 * step)
        return v[:, 0], lap, grad @ beta

    y, lap_y, conv_y = fd_terms(case.y, "y")
    z, lap_z, conv_z = fd_terms(case.z, "z")
    r1 = -case.epsilon * lap_y + conv_y + case.alpha * y - data_values(case.f, x, "f")
    r2 = (-case.epsilon * lap_z - conv_z + case.alpha * z
          - (y - data_values(case.y_desired, x, "y_desired")))
    return float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))


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
        return (x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]) ** (-1.0 / 3.0)

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
    )


def example3_domain() -> DomainSpec:
    """Convex quadrilateral with its largest corner at the origin.

    Vertices (0,0), (1,0), (1,1), (-sqrt(3),1): the interior angle at the
    origin is 150 degrees.
    """
    return DomainSpec([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (-np.sqrt(3.0), 1.0)])


def example3_mesh(level: int, coarse: str = "fan3") -> Mesh:
    """Nested meshes of the slanted quadrilateral.

    ``coarse`` selects the root triangulation: "fan3" fans from the origin
    over the corners and the point (0,1) of the top side (3 root elements,
    counts 3*4^level); "diag2" splits along the diagonal from the origin
    (2 root elements, counts 2*4^level).
    """
    if coarse == "diag2":
        return build_polygon_mesh(example3_domain(), level)
    if coarse != "fan3":
        raise ValueError(f"unknown coarse triangulation {coarse!r}")
    if level < 0:
        raise ValueError("refinement level must be nonnegative")
    mesh = Mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-np.sqrt(3.0), 1.0)],
                [[0, 1, 2], [0, 2, 3], [0, 3, 4]])
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def example3_data(epsilon: float = 1.0) -> ProblemData:
    """Slanted-quadrilateral problem with discontinuous target.

    Data: y_desired = -1 below the line x2 = 0.5 and +1 above it, f = 1,
    beta = (1,0), alpha = 2, omega = 1, one-sided bound u >= 0.
    """

    def y_desired(x):
        return np.where(x[..., 1] < 0.5, -1.0, 1.0)

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
    )


# ---------------------------------------------------------------------------
# error norms


def error_l2_domain(field: DiscreteField, exact) -> float:
    """L2(domain) distance between an element field and an exact function."""
    mesh = field.dofmap.mesh
    rule, lam, pts = domain_data_rule(mesh)
    if field.dofmap.kind == "scalar-element":
        vals_h = np.einsum("ti,ki->tk", field.coefficients.reshape(-1, 3), lam)
        diff2 = (data_values(exact, pts, "exact") - vals_h) ** 2
    elif field.dofmap.kind == "vector-element":
        vals_h = np.einsum("tic,ki->tkc", field.coefficients.reshape(-1, 3, 2), lam)
        diff2 = np.sum((data_values(exact, pts, "exact", vector=True) - vals_h) ** 2, axis=2)
    else:
        raise ValueError("domain errors need an element field")
    return float(np.sqrt((2.0 * mesh.areas) @ (diff2 @ rule.weights)))


def _boundary_rule(mesh):
    """The data rule on every boundary edge: edge ids (b,), parameters s (k,),
    points (b, k, 2), weights (b, k) and outward normals (b, 2)."""
    rule = quadrature_rule("edge", DATA_DEGREE)
    ids = mesh.boundary_edges
    return (ids, rule.points, edge_points(mesh, ids[:, None], rule.points),
            rule.weights * mesh.edge_lengths[ids, None], mesh.edge_normals[ids, 0])


def error_l2_boundary(source, exact, mesh: Mesh = None) -> float:
    """L2(boundary) distance between a trace source and an exact function.

    ``source`` may be a boundary-edge field (controls), a scalar element
    field (its boundary trace is used), or a constant or callable on point
    arrays like ``exact`` (see ``geometry.data_values``).  A field brings
    its mesh; a ``mesh`` passed with it must be that mesh.
    """
    if isinstance(source, DiscreteField):
        if mesh is not None and mesh is not source.dofmap.mesh:
            raise ValueError("the field lives on another mesh than the one passed")
        mesh = source.dofmap.mesh
    if mesh is None:
        raise ValueError("a mesh is required for callable sources")
    ids, s, xg, wt, _n = _boundary_rule(mesh)
    if isinstance(source, DiscreteField):
        vals = trace_on_edge(source, ids[:, None], 0, s)
    else:
        vals = data_values(source, xg, "source")
    return float(np.sqrt(np.sum(wt * (data_values(exact, xg, "exact") - vals) ** 2)))


def error_flux_normal_boundary(p_h: DiscreteField, grad_z_exact, epsilon: float) -> float:
    """L2(boundary) distance of normal traces of the scaled adjoint flux.

    The exact flux is sqrt(eps) grad(z); the discrete field's normal trace
    is taken from the boundary element of each edge.
    """
    ids, s, xg, wt, n = _boundary_rule(p_h.dofmap.mesh)
    pn_h = np.einsum("egd,ed->eg", trace_on_edge(p_h, ids[:, None], 0, s), n)
    grad_z = data_values(grad_z_exact, xg, "grad_z_exact", vector=True)
    pn_ex = float(np.sqrt(epsilon)) * np.einsum("egd,ed->eg", grad_z, n)
    return float(np.sqrt(np.sum(wt * (pn_ex - pn_h) ** 2)))


def convergence_rate(e_coarse: float, e_fine: float, halvings: float = 1.0) -> float:
    """Observed order between two errors on meshes ``halvings`` halvings of h apart."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise ValueError("convergence rates need positive errors")
    return float(np.log(e_coarse / e_fine) / (halvings * np.log(2.0)))


# ---------------------------------------------------------------------------
# nested-mesh reference comparison


def _error_row(sol, y_true, boundary_true) -> ErrorReportRow:
    """The four L2 columns of a study row on the solution's mesh, against a
    truth given at the data-rule points: ``y_true(pts)`` the state at the
    points (nt, k, 2) of ``domain_data_rule``, ``boundary_true(e, s, xg)`` the
    control, the adjoint and the flux sqrt(eps) grad(z) at the edges e (b, 1),
    parameters s (k,) and points xg (b, k, 2) of ``_boundary_rule``.  Both
    control modes are measured pointwise, through ``sol.control_on_edge``."""
    mesh = sol.mesh
    rule, lam, pts = domain_data_rule(mesh)
    y_h = np.einsum("ti,ki->tk", sol.y.coefficients.reshape(-1, 3), lam)
    ids, s, xg, wt, n = _boundary_rule(mesh)
    e = ids[:, None]
    u, z, p = boundary_true(e, s, xg)
    sums = ((2.0 * mesh.areas) @ ((y_true(pts) - y_h) ** 2 @ rule.weights),
            np.sum(wt * (u - sol.control_on_edge(e, s)) ** 2),
            np.sum(wt * (z - trace_on_edge(sol.z, e, 0, s)) ** 2),
            np.sum(wt * np.einsum("egd,ed->eg", p - trace_on_edge(sol.p, e, 0, s), n) ** 2))
    return ErrorReportRow(mesh.num_elements, mesh.h, *(float(np.sqrt(v)) for v in sums))


def reference_compare(coarse_sol, reference_sol):
    """Error row of a coarse solution against a nested reference solution,
    evaluated in the fine element or edge containing each quadrature point."""
    ref, locator = reference_sol, NestedLocator(coarse_sol.mesh, reference_sol.mesh)

    def boundary_true(e, s, _xg):
        f, sf = locator.locate_boundary(e, s)
        return (ref.control_on_edge(f, sf), trace_on_edge(ref.z, f, 0, sf),
                trace_on_edge(ref.p, f, 0, sf))

    return _error_row(coarse_sol, lambda pts: eval_field(
        ref.y, locator.locate(np.arange(len(pts))[:, None], pts), pts, tol=1e-8), boundary_true)


def closed_form_row(sol, case: ManufacturedCase) -> ErrorReportRow:
    """Error row of a solution against the closed-form optimal triple."""
    def boundary_true(_e, _s, xg):
        return (data_values(case.u, xg, "exact"), data_values(case.z, xg, "exact"),
                np.sqrt(case.epsilon) * data_values(case.grad_z, xg, "exact", vector=True))

    return _error_row(sol, lambda pts: data_values(case.y, pts, "exact"), boundary_true)


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
        """Per-row observed orders against the row before: rows m_coarse <
        m_fine elements lie 1/2 log2(m_fine / m_coarse) halvings of h apart,
        as uniform refinement quadruples the count.  None on the first row
        and where either error is 0 (exact, as when every control sits on a
        bound), which has no order."""
        vals = self.column(name)
        out = [None]
        for i in range(1, len(vals)):
            halvings = 0.5 * np.log2(self.rows[i].elements / self.rows[i - 1].elements)
            out.append(None if vals[i - 1] == 0.0 or vals[i] == 0.0
                       else convergence_rate(vals[i - 1], vals[i], halvings))
        return out

    def __len__(self):
        return len(self.rows)

