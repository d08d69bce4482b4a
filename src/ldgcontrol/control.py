"""Control-space operators and the primal-dual active set (PDAS) solver.

Two discretizations of the control are supported and produce the same
solver interface:

* full: the control is an edgewise-linear boundary unknown with its own
  block in the coupled system; active-set tests run on control DOFs using
  the lumped-mass representative of the consistent gradient.
* variational: the control carries no DOFs.  At every boundary quadrature
  point it is the projection of (sqrt(eps) p.n - kappa z)/omega onto the
  bound interval; active-set tests run pointwise at those quadrature
  points.

The active-set iteration solves one linearization per step (by default
in control space, on the state-operator factorization the operator set
keeps; see ``linsolve``) and stops when the bound sets repeat, or raises
when they return to an earlier pair.  For unconstrained bounds both modes
converge in a single step.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .geometry import point_values
from .ldg import BlockOperator, ProblemData, boundary_kappa, solve_adjoint, solve_state
from .linsolve import solve_optimality_system
from .spaces import (
    DiscreteField,
    DofMap,
    edge_basis_values,
    physical_points,
    quadrature_rule,
    trace_on_edge,
    tri_basis_values,
)

__all__ = [
    "ControlMode",
    "ActiveSetState",
    "DiscreteSolution",
    "BoundaryGradient",
    "PdasNonconvergence",
    "PdasStep",
    "project_admissible",
    "quasi_interpolate",
    "evaluate_cost",
    "reduced_gradient",
    "fd_gradient_check",
    "FdGradientCheck",
    "pdas_solve",
]


class PdasNonconvergence(RuntimeError):
    """Raised when the active-set iteration cycles or hits its iteration cap."""


@dataclass
class ControlMode:
    """Control discretization tag plus the active-set test constant c > 0.

    ``c = None`` means "use the regularization weight", which makes the
    pointwise test reduce to a bound check on the unconstrained projection
    argument.
    """

    tag: str = "full"
    c: Optional[float] = None

    def __post_init__(self):
        if self.tag not in ("full", "variational"):
            raise ValueError(f"unknown control mode {self.tag!r}")
        if self.c is not None and self.c <= 0.0:
            raise ValueError("active-set constant must be positive")


@dataclass
class ActiveSetState:
    """Lower/upper active masks over the control unknowns of one mode."""

    lower: np.ndarray
    upper: np.ndarray
    iteration: int = 0
    mode: str = "full"

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=bool)
        self.upper = np.asarray(self.upper, dtype=bool)
        if self.lower.shape != self.upper.shape:
            raise ValueError("active masks must have equal shape")
        if np.any(self.lower & self.upper):
            raise ValueError("a control unknown cannot be active at both bounds")

    @property
    def inactive(self) -> np.ndarray:
        return ~(self.lower | self.upper)

    def same_as(self, other: "ActiveSetState") -> bool:
        return bool(
            np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper)
        )


def project_admissible(values, u_lower: float, u_upper: float):
    """Pointwise projection onto the bound interval [u_lower, u_upper]."""
    if u_lower > u_upper:
        raise ValueError("lower control bound exceeds the upper bound")
    arr = np.asarray(values, dtype=float)
    clipped = np.clip(arr, u_lower, u_upper)
    if np.isscalar(values) or arr.ndim == 0:
        return float(clipped)
    return clipped


def quasi_interpolate(u, mesh, degree: int = 6) -> DiscreteField:
    """Weighted nodal averaging of a boundary function into the control space.

    The value at a boundary node is (u, hat)_Gamma / (1, hat)_Gamma with
    the node's piecewise-linear hat function supported on its two adjacent
    boundary edges.  Constants are reproduced and bounds are preserved
    (each nodal value is a convex average of u along the boundary).
    """
    dofmap = DofMap(mesh, "boundary-edge")
    rule = quadrature_rule("edge", degree)
    phi = edge_basis_values(rule.points)

    if isinstance(u, DiscreteField):
        if u.dofmap.kind != "boundary-edge":
            raise ValueError("quasi-interpolation sources must live on the boundary")
        src = u

        def values_on(e, xg, s):
            return trace_on_edge(src, e, 0, s)
    else:
        def values_on(e, xg, s):
            return np.array([u(x) for x in xg])

    # numerator / denominator accumulators per boundary vertex
    num = {}
    den = {}
    for e in mesh.boundary_edges:
        a_id, b_id = mesh.edges[e]
        a, b = mesh.vertices[[a_id, b_id]]
        h = mesh.edge_lengths[e]
        xg = a[None, :] + rule.points[:, None] * (b - a)[None, :]
        wt = rule.weights * h
        vals = values_on(e, xg, rule.points)
        # hat of the start vertex falls (1-s), hat of the end vertex rises (s)
        for vid, basis in ((int(a_id), phi[:, 0]), (int(b_id), phi[:, 1])):
            num[vid] = num.get(vid, 0.0) + float(np.dot(wt, basis * vals))
            den[vid] = den.get(vid, 0.0) + float(np.dot(wt, basis))

    nodal = {vid: num[vid] / den[vid] for vid in num}
    out = np.zeros(dofmap.num_dofs)
    for e in mesh.boundary_edges:
        a_id, b_id = mesh.edges[e]
        dofs = dofmap.edge_dofs(e)
        out[dofs[0]] = nodal[int(a_id)]
        out[dofs[1]] = nodal[int(b_id)]
    return DiscreteField(dofmap, out)


@dataclass(frozen=True)
class PdasStep:
    """What one active-set step solved: the sizes of its lower-active,
    upper-active and inactive sets, and the CG iterations and final
    relative residual of its reduced solve (0 and None on the direct
    reference paths)."""

    lower: int
    upper: int
    inactive: int
    cg_iterations: int
    cg_residual: Optional[float]


@dataclass
class DiscreteSolution:
    """Converged output of the active-set solver.

    ``u`` is a boundary DiscreteField in full mode and an array of values
    at the boundary quadrature points in variational mode; in both modes
    ``control_on_edge`` evaluates the control anywhere on the boundary (in
    variational mode through the projection formula applied to the traces
    of p and z).  ``log`` holds one ``PdasStep`` per active-set step.
    """

    y: DiscreteField
    q: DiscreteField
    z: DiscreteField
    p: DiscreteField
    u: object
    active: ActiveSetState
    cost: float
    iterations: int
    converged: bool
    mode: str
    ops: BlockOperator
    data: ProblemData
    log: list = dataclass_field(default_factory=list)

    def __post_init__(self):
        tol = 1e-10 * max(
            1.0,
            abs(self.data.u_lower) if np.isfinite(self.data.u_lower) else 0.0,
            abs(self.data.u_upper) if np.isfinite(self.data.u_upper) else 0.0,
        )
        # an edgewise-linear control attains its extrema at the DOF nodes,
        # so checking those (or the stored pointwise values) covers all of it
        uv = self.u.coefficients if self.mode == "full" else np.asarray(self.u, dtype=float)
        if np.any(uv < self.data.u_lower - tol) or np.any(uv > self.data.u_upper + tol):
            raise ValueError("computed control violates its bounds")

    @property
    def mesh(self):
        return self.y.dofmap.mesh

    def control_at_quadrature(self) -> np.ndarray:
        """Control values at the boundary quadrature points."""
        if self.mode == "full":
            return self.ops.bq.E_U @ self.u.coefficients
        return np.asarray(self.u, dtype=float)

    def _projection_argument(self, edge_id, s):
        """(sqrt(eps) p.n - kappa z)/omega along one boundary edge."""
        mesh = self.mesh
        data = self.data
        n = mesh.edge_normals[edge_id, 0]
        a, b = mesh.vertices[mesh.edges[edge_id]]
        s = np.atleast_1d(np.asarray(s, dtype=float))
        xg = a[None, :] + s[:, None] * (b - a)[None, :]
        pn = np.atleast_2d(trace_on_edge(self.p, edge_id, 0, s)) @ n
        zv = np.atleast_1d(trace_on_edge(self.z, edge_id, 0, s))
        beta_n = point_values(data.beta_fun(), xg) @ n
        flux = self.ops.flux
        kap = boundary_kappa(data, flux.c11[edge_id], beta_n,
                             flux.classification.is_inflow(edge_id))
        return (pn - kap * zv) / data.omega

    def control_on_edge(self, edge_id: int, s) -> np.ndarray:
        """Evaluate the control at parameters s of a boundary edge."""
        if self.mode == "full":
            return np.atleast_1d(trace_on_edge(self.u, edge_id, 0, s))
        w = self._projection_argument(edge_id, s)
        return np.clip(w, self.data.u_lower, self.data.u_upper)


@dataclass
class BoundaryGradient:
    """Reduced-gradient data on the boundary.

    at_quadrature holds the multiplier omega*u - sqrt(eps) p.n + kappa z
    at the boundary quadrature points; nodal holds its lumped-mass DOF
    representative (full mode; None otherwise); dof_gradient is the raw
    consistent-mass gradient vector (full mode; None otherwise).
    """

    at_quadrature: np.ndarray
    nodal: Optional[np.ndarray]
    dof_gradient: Optional[np.ndarray]


def _quadrature_multiplier(ops: BlockOperator, u_qp, p_coeff, z_coeff) -> np.ndarray:
    bq = ops.bq
    return ops.data.omega * u_qp - (bq.T_pn @ p_coeff - bq.T_kz @ z_coeff)


def _lumped_boundary_mass(ops: BlockOperator) -> np.ndarray:
    return np.asarray(ops.M_Gamma.sum(axis=1)).ravel()


def reduced_gradient(ops: BlockOperator, sol: DiscreteSolution) -> BoundaryGradient:
    """Multiplier/gradient of the reduced cost at a solution.

    The quadrature-point multiplier is exact for both modes; the DOF
    gradient omega M_Gamma u + M1' p + M2' z and its lumped nodal values
    exist only for the full discretization.
    """
    u_qp = sol.control_at_quadrature()
    lam_qp = _quadrature_multiplier(ops, u_qp, sol.p.coefficients, sol.z.coefficients)
    if sol.mode != "full":
        return BoundaryGradient(lam_qp, None, None)
    g = (
        ops.data.omega * (ops.M_Gamma @ sol.u.coefficients)
        + ops.M1.T @ sol.p.coefficients
        + ops.M2.T @ sol.z.coefficients
    )
    nodal = g / _lumped_boundary_mass(ops)
    return BoundaryGradient(lam_qp, nodal, g)


def evaluate_cost(y_h: DiscreteField, u_h, data: ProblemData, ops: BlockOperator = None) -> float:
    """Tracking cost 1/2 |y_h - y_d|^2_domain + omega/2 |u_h|^2_boundary.

    The domain term uses degree-6 quadrature of the analytic target (the
    same rule that assembled the target load); the boundary term is exact
    for edgewise-linear controls and uses the stored quadrature weights
    for pointwise (variational) controls, which requires ``ops``.
    """
    mesh = y_h.dofmap.mesh
    rule = quadrature_rule("triangle", 6)
    vals = np.einsum("ti,ki->tk", y_h.coefficients.reshape(-1, 3), tri_basis_values(rule.points))
    diff = vals - point_values(data.y_desired_fun(), physical_points(mesh, rule.points))
    track = float((2.0 * mesh.areas) @ (diff**2 @ rule.weights))

    if isinstance(u_h, DiscreteField):
        # boundary-edge dofs are (start, end) pairs in boundary-edge order
        erule = quadrature_rule("edge", 4)
        uv = u_h.coefficients.reshape(-1, 2) @ edge_basis_values(erule.points).T
        bdry = float(mesh.edge_lengths[mesh.boundary_edges] @ (uv**2 @ erule.weights))
    else:
        if ops is None:
            raise ValueError("pointwise controls need the assembled operators for weights")
        uv = np.asarray(u_h, dtype=float)
        bdry = float(np.dot(ops.bq.weights, uv**2))
    return 0.5 * track + 0.5 * data.omega * bdry


@dataclass
class FdGradientCheck:
    """Comparison of the adjoint directional derivative with differences."""

    adjoint_value: float
    difference_value: float
    mismatch: float
    step: float


def fd_gradient_check(ops: BlockOperator, data: ProblemData, u, delta_u,
                      step: float = None) -> FdGradientCheck:
    """Central-difference check of the adjoint-based reduced gradient.

    ``u`` and ``delta_u`` are control DOF vectors (or boundary fields).
    The reduced cost is quadratic, so the central difference matches the
    adjoint value up to roundoff for any sensible step.
    """
    dofmap = DofMap(ops.mesh, "boundary-edge")
    uc = u.coefficients if isinstance(u, DiscreteField) else np.asarray(u, dtype=float)
    dc = delta_u.coefficients if isinstance(delta_u, DiscreteField) else np.asarray(delta_u, dtype=float)
    if step is None:
        step = 1e-5 * max(1.0, float(np.max(np.abs(uc))))

    def cost_of(coeffs):
        fld = DiscreteField(dofmap, coeffs)
        y, _ = solve_state(ops, fld)
        return evaluate_cost(y, fld, data, ops)

    y0, _ = solve_state(ops, DiscreteField(dofmap, uc))
    z0, p0 = solve_adjoint(ops, load_vector=ops.M_Omega @ y0.coefficients - ops.Yd)
    grad = (
        data.omega * (ops.M_Gamma @ uc)
        + ops.M1.T @ p0.coefficients
        + ops.M2.T @ z0.coefficients
    )
    adjoint_value = float(np.dot(grad, dc))
    fd_value = (cost_of(uc + step * dc) - cost_of(uc - step * dc)) / (2.0 * step)
    scale = max(1.0, abs(adjoint_value), abs(fd_value))
    return FdGradientCheck(adjoint_value, fd_value, abs(adjoint_value - fd_value) / scale, step)


def _initial_control(data: ProblemData, n: int) -> np.ndarray:
    if np.isfinite(data.u_lower) and np.isfinite(data.u_upper):
        return np.full(n, 0.5 * (data.u_lower + data.u_upper))
    if np.isfinite(data.u_lower):
        return np.full(n, max(0.0, data.u_lower))
    if np.isfinite(data.u_upper):
        return np.full(n, min(0.0, data.u_upper))
    return np.zeros(n)


def pdas_solve(ops: BlockOperator, data: ProblemData = None, mode=None,
               u0=None, max_iter: int = 50,
               strategy: str = "reduced") -> DiscreteSolution:
    """Primal-dual active set iteration for the bound-constrained problem.

    Each step solves the coupled optimality system for the current bound
    sets, forms the multiplier, and re-marks every control unknown whose
    shifted multiplier test mu + c (u - bound) indicates a violated bound.
    Iteration stops when the sets repeat; the unconstrained problem stops
    after a single solve.  A step that returns to an earlier set other than
    the last one is a cycle and raises ``PdasNonconvergence``.  ``strategy``
    is forwarded to the linear solver ("monolithic" and "condensed" select
    the direct reference solves); the reduced solve of each step starts
    from the control of the step before.
    """
    if data is None:
        data = ops.data
    if mode is None:
        mode = ControlMode("full")
    elif isinstance(mode, str):
        mode = ControlMode(mode)
    c = mode.c if mode.c is not None else data.omega
    ua, ub = data.u_lower, data.u_upper

    if mode.tag == "full":
        n = ops.M_Gamma.shape[0]
    else:
        n = ops.bq.num_points
    if u0 is None:
        u_vec = _initial_control(data, n)
    elif isinstance(u0, DiscreteField):
        u_vec = u0.coefficients.copy()
    else:
        u_vec = np.asarray(u0, dtype=float).copy()
        if u_vec.shape != (n,):
            raise ValueError("initial control has the wrong length")

    lower = np.isfinite(ua) & (c * (u_vec - ua) < 0.0)
    upper = np.isfinite(ub) & (c * (u_vec - ub) > 0.0)
    active = ActiveSetState(lower, upper, iteration=0, mode=mode.tag)
    lumped = _lumped_boundary_mass(ops) if mode.tag == "full" else None

    history = [active]
    log = []
    for it in range(1, max_iter + 1):
        parts = solve_optimality_system(ops, active, data, mode=mode.tag,
                                        strategy=strategy, u_start=u_vec)
        cg = parts.get("cg")
        log.append(PdasStep(int(active.lower.sum()), int(active.upper.sum()),
                            int(active.inactive.sum()),
                            cg.iterations if cg else 0, cg.residual if cg else None))
        p_coeff = parts["p"]
        z_coeff = parts["z"]

        if mode.tag == "full":
            u_vec = parts["u"]
            g = (
                data.omega * (ops.M_Gamma @ u_vec)
                + ops.M1.T @ p_coeff
                + ops.M2.T @ z_coeff
            )
            lam = g / lumped
        else:
            bq = ops.bq
            w = (bq.T_pn @ p_coeff - bq.T_kz @ z_coeff) / data.omega
            u_vec = np.where(active.lower, ua, np.where(active.upper, ub, w))
            lam = data.omega * (u_vec - w)

        with np.errstate(invalid="ignore"):
            new_lower = np.isfinite(ua) & (-lam + c * (u_vec - ua) < 0.0)
            new_upper = np.isfinite(ub) & (-lam + c * (u_vec - ub) > 0.0)
        new_active = ActiveSetState(new_lower, new_upper, iteration=it, mode=mode.tag)

        if new_active.same_as(active):
            y = DiscreteField(ops.spaces.potential, parts["y"])
            q = DiscreteField(ops.spaces.flux, parts["q"])
            z = DiscreteField(ops.spaces.potential, z_coeff)
            p = DiscreteField(ops.spaces.flux, p_coeff)
            if mode.tag == "full":
                u_out = DiscreteField(DofMap(ops.mesh, "boundary-edge"), u_vec)
                cost = evaluate_cost(y, u_out, data, ops)
            else:
                u_out = u_vec
                cost = evaluate_cost(y, u_vec, data, ops)
            return DiscreteSolution(
                y=y, q=q, z=z, p=p, u=u_out,
                active=new_active, cost=cost, iterations=it,
                converged=True, mode=mode.tag, ops=ops, data=data, log=log,
            )
        for earlier in history[:-1]:
            if new_active.same_as(earlier):
                raise PdasNonconvergence(
                    f"active sets cycling: step {it} returned to the sets of "
                    f"step {earlier.iteration}")
        history.append(new_active)
        active = new_active

    last, prev = history[-1], history[-2]
    dl = int(np.sum(last.lower != prev.lower))
    du = int(np.sum(last.upper != prev.upper))
    raise PdasNonconvergence(
        f"active sets still changing after {max_iter} iterations "
        f"(last step moved {dl} lower / {du} upper markers)"
    )
