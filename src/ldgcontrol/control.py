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

The mode is the plain string "full" or "variational".  One active-set
iteration serves both: each step solves one linearization (by default in
control space, on the state-operator factorization the operator set keeps;
see ``linsolve``), forms the step's multiplier and re-marks the bounds by
the test -lambda + c (u - bound) with c = omega.  It stops when the bound
sets repeat, or raises when they return to an earlier pair.  For
unconstrained bounds both modes converge in a single step.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .geometry import NestedLocator, data_values
from .ldg import BlockOperator, BoundaryQuadrature, FluxParameters, ProblemData, assemble_forms
from .linsolve import (_control_load, _gradient, _state_adjoint, solve_optimality_system,
                       solve_state)
from .spaces import (
    FORM_DEGREE,
    DiscreteField,
    domain_data_rule,
    edge_basis_values,
    quadrature_rule,
    trace_on_edge,
)

__all__ = [
    "ActiveSetState",
    "DiscreteSolution",
    "BoundaryGradient",
    "PdasNonconvergence",
    "PdasStep",
    "project_admissible",
    "evaluate_cost",
    "reduced_gradient",
    "fd_gradient_check",
    "FdGradientCheck",
    "pdas_solve",
]


class PdasNonconvergence(RuntimeError):
    """Raised when the active-set iteration cycles or hits its iteration cap."""


@dataclass
class ActiveSetState:
    """Lower/upper active masks over the control unknowns of one mode."""

    lower: np.ndarray
    upper: np.ndarray

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
    of p and z), for arrays of edges and parameters at once.
    ``multiplier`` is the multiplier of the converged step, as
    ``reduced_gradient`` gives it: the lumped-mass nodal values in full
    mode, the values at the boundary quadrature points in variational
    mode.  ``log`` holds one ``PdasStep`` per active-set step.

    Of its level's operators a solution keeps the boundary tables ``bq``
    and the flux parameters ``flux``, all that its control evaluation
    reads, so the level's blocks and factor go when the caller drops the
    ``BlockOperator``.
    """

    y: DiscreteField
    q: DiscreteField
    z: DiscreteField
    p: DiscreteField
    u: object
    active: ActiveSetState
    multiplier: np.ndarray
    cost: float
    iterations: int
    converged: bool
    mode: str
    bq: BoundaryQuadrature
    flux: FluxParameters
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

    @property
    def ops(self) -> BlockOperator:
        """The operators of this solution's level, assembled afresh on each
        read.  The benchmark's KKT certificate (``perfbench/study.py``)
        passes ``sol.ops`` to ``compose_kkt`` and ``reduced_gradient``;
        this goes once that certificate is computed by the solver."""
        return assemble_forms(self.mesh, self.data)

    def control_at_quadrature(self) -> np.ndarray:
        """Control values at the boundary quadrature points."""
        if self.mode == "full":
            return self.bq.E_U @ self.u.coefficients
        return np.asarray(self.u, dtype=float)

    def _projection_argument(self, edges, s):
        """(sqrt(eps) p.n - kappa z)/omega at parameters s of boundary edges
        (``edges`` and ``s`` broadcast)."""
        data = self.data
        n = self.mesh.edge_normals[edges, 0]
        pn = data.sqrt_eps * np.sum(trace_on_edge(self.p, edges, 0, s) * n, axis=-1)
        zv = trace_on_edge(self.z, edges, 0, s)
        return (pn - self.flux.kappa(edges, s) * zv) / data.omega

    def control_on_edge(self, edges, s) -> np.ndarray:
        """Control values at parameters s of boundary edges; ``edges`` and
        ``s`` broadcast, and the result is at least one-dimensional."""
        if self.mode == "full":
            return np.atleast_1d(trace_on_edge(self.u, edges, 0, s))
        return np.atleast_1d(_projection(self._projection_argument(edges, s), self.data)[0])


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


def _multiplier(ops: BlockOperator, data: ProblemData, mode: str,
                active: ActiveSetState, parts: dict):
    """Control and multiplier of one active-set step from its solved parts.

    Full mode: the solved control and the DOF gradient omega M_Gamma u + L' z
    (``linsolve._gradient``) divided by the row sums of M_Gamma (its
    lumped-mass nodal values).  Variational mode: the bounds on the active
    quadrature points and w = (T_pn p - T_kz z)/omega elsewhere, with
    multiplier omega (u - w).
    """
    p, z = parts["p"], parts["z"]
    if mode == "full":
        u = parts["u"]
        lumped = np.asarray(ops.M_Gamma.sum(axis=1)).ravel()
        return u, _gradient(ops, mode, data.omega, u, z) / lumped
    return _projection((ops.bq.T_pn @ p - ops.bq.T_kz @ z) / data.omega, data, active)


def _projection(w, data: ProblemData, active: ActiveSetState = None):
    """Variational control and multiplier from the projection argument w.

    The control is w projected onto the bounds or, given ``active`` sets,
    the bound on each active point and w elsewhere; the multiplier is
    omega (u - w).
    """
    if active is None:
        u = project_admissible(w, data.u_lower, data.u_upper)
    else:
        u = np.where(active.lower, data.u_lower, np.where(active.upper, data.u_upper, w))
    return u, data.omega * (u - w)


def _active_sets(u, lam, data: ProblemData) -> ActiveSetState:
    """Bound sets of the PDAS test -lam + c (u - bound) with c = omega."""
    c = data.omega
    with np.errstate(invalid="ignore"):
        lower = np.isfinite(data.u_lower) & (-lam + c * (u - data.u_lower) < 0.0)
        upper = np.isfinite(data.u_upper) & (-lam + c * (u - data.u_upper) > 0.0)
    return ActiveSetState(lower, upper)


def reduced_gradient(ops: BlockOperator, sol: DiscreteSolution) -> BoundaryGradient:
    """Multiplier/gradient of the reduced cost at a solution.

    In variational mode the multiplier at the quadrature points is the
    step multiplier of ``pdas_solve``.  In full mode the nodal values are
    that step multiplier, next to the DOF gradient it lumps and the
    multiplier omega u - (sqrt(eps) p.n - kappa z) at the quadrature points.
    """
    p, z = sol.p.coefficients, sol.z.coefficients
    u = sol.u.coefficients if sol.mode == "full" else sol.u
    u, lam = _multiplier(ops, sol.data, sol.mode, sol.active, {"u": u, "p": p, "z": z})
    if sol.mode != "full":
        return BoundaryGradient(lam, None, None)
    bq, omega = ops.bq, sol.data.omega
    return BoundaryGradient(omega * (bq.E_U @ u) - (bq.T_pn @ p - bq.T_kz @ z), lam,
                            _gradient(ops, "full", omega, u, z))


def evaluate_cost(y_h: DiscreteField, u_h, data: ProblemData, ops: BlockOperator = None) -> float:
    """Tracking cost 1/2 |y_h - y_d|^2_domain + omega/2 |u_h|^2_boundary.

    The domain term uses the data rule of the analytic target (the same
    rule that assembled the target load); the boundary term uses the form
    rule, exact for edgewise-linear controls, and the stored quadrature
    weights for pointwise (variational) controls, which requires ``ops``.
    """
    mesh = y_h.dofmap.mesh
    rule, lam, pts = domain_data_rule(mesh)
    diff = (np.einsum("ti,ki->tk", y_h.coefficients.reshape(-1, 3), lam)
            - data_values(data.y_desired, pts, "y_desired"))
    track = float((2.0 * mesh.areas) @ (diff**2 @ rule.weights))

    if isinstance(u_h, DiscreteField):
        if u_h.dofmap.mesh is not mesh:
            raise ValueError("the control lives on another mesh than the state")
        # boundary-edge dofs are (start, end) pairs in boundary-edge order
        erule = quadrature_rule("edge", FORM_DEGREE)
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
    mismatch: float


def fd_gradient_check(ops: BlockOperator, u, delta_u) -> FdGradientCheck:
    """Central-difference check of the adjoint-based reduced gradient for
    the problem data ``ops`` was assembled with.

    ``u`` and ``delta_u`` are control DOF vectors (or boundary fields).
    The reduced cost is quadratic, so the central difference matches the
    adjoint value up to roundoff for any sensible step; the step is 1e-5
    relative to the largest control value.
    """
    dofmap, data = ops.spaces.control, ops.data
    uc = u.coefficients if isinstance(u, DiscreteField) else np.asarray(u, dtype=float)
    dc = delta_u.coefficients if isinstance(delta_u, DiscreteField) else np.asarray(delta_u, dtype=float)
    step = 1e-5 * max(1.0, float(np.max(np.abs(uc))))

    def cost_of(coeffs):
        fld = DiscreteField(dofmap, coeffs)
        y, _ = solve_state(ops, fld)
        return evaluate_cost(y, fld, data, ops)

    _, z = _state_adjoint(ops, ops.F + _control_load(ops, "full")[0] @ uc, ops.Yd)
    adjoint_value = float(np.dot(_gradient(ops, "full", data.omega, uc, z), dc))
    fd_value = (cost_of(uc + step * dc) - cost_of(uc - step * dc)) / (2.0 * step)
    scale = max(1.0, abs(adjoint_value), abs(fd_value))
    return FdGradientCheck(adjoint_value, abs(adjoint_value - fd_value) / scale)


def _initial_control(data: ProblemData, n: int) -> np.ndarray:
    """The midpoint of two finite bounds, else the admissible value nearest 0."""
    if np.isfinite(data.u_lower) and np.isfinite(data.u_upper):
        return np.full(n, 0.5 * (data.u_lower + data.u_upper))
    return np.full(n, project_admissible(0.0, data.u_lower, data.u_upper))


def _prolonged_start(ops: BlockOperator, data: ProblemData, mode: str,
                     start: DiscreteSolution):
    """Control and multiplier of a solution on an ancestor mesh, carried to
    the control unknowns of ``ops``.

    Each fine boundary edge lies on one coarse edge between the parameters
    s0 < s1 (``NestedLocator``'s boundary registration).  In full mode the
    unknowns are the values at the ends of the fine edges, and the
    multiplier is the coarse lumped-mass gradient (``start.multiplier``)
    prolonged the same way, so the start needs no operators of its level.
    In variational mode the unknowns are the values at the fine boundary
    quadrature points (edge-major, parameter-minor); the control there is
    the projection of the coarse argument w, and the multiplier is
    omega (u - w).
    """
    if start.mode != mode:
        raise ValueError(f"a {start.mode}-mode solution cannot start a {mode}-mode solve")
    try:
        locator = NestedLocator(start.mesh, ops.mesh)
    except ValueError as exc:
        raise ValueError("a solution start must come from an ancestor of the "
                         "mesh on its refinement chain") from exc
    # the registered fine edges, put back in boundary-edge order
    pos = ops.spaces.control.boundary_index[locator.boundary_fine]
    edges = np.empty_like(locator.boundary_coarse)
    span = np.empty_like(locator.boundary_span)
    edges[pos], span[pos] = locator.boundary_coarse, locator.boundary_span
    edges = edges[:, None]
    if mode == "full":
        lam = DiscreteField(start.u.dofmap, start.multiplier)
        return (start.control_on_edge(edges, span).ravel(),
                trace_on_edge(lam, edges, 0, span).ravel())
    t = quadrature_rule("edge", FORM_DEGREE).points
    return _projection(start._projection_argument(
        edges, span[:, :1] + t * (span[:, 1:] - span[:, :1])).ravel(), data)


def pdas_solve(ops: BlockOperator, data: ProblemData = None, mode: str = "full",
               u0=None, max_iter: int = 50,
               strategy: str = "reduced") -> DiscreteSolution:
    """Primal-dual active set iteration for the bound-constrained problem.

    ``mode`` is "full" or "variational"; any other value, or a
    ``max_iter`` below 1, raises ``ValueError`` before a solve.  ``data``
    (default ``ops.data``) may change omega and the bounds; a field the
    blocks were assembled from raises ``ValueError`` if it differs.  Each step
    solves the coupled optimality system for the current bound sets,
    forms the multiplier, and re-marks every control unknown whose shifted
    multiplier test -lambda + omega (u - bound) indicates a violated bound.
    Iteration stops when the sets repeat; the unconstrained problem stops
    after a single solve.  A step that returns to an earlier set other than
    the last one is a cycle and raises ``PdasNonconvergence``.
    ``strategy`` is forwarded to the linear solver ("monolithic" and
    "condensed" select the direct reference solves); the reduced solve of
    each step starts from the control of the step before.

    ``u0`` is the start: None (a constant admissible control), a control
    vector or boundary field of this mode's length, or the
    ``DiscreteSolution`` of the same mode on an ancestor mesh of the same
    refinement chain (nested iteration).  A solution start is prolonged
    onto this mesh, and the first active sets come from the test above
    with its prolonged multiplier; any other start has multiplier 0.
    A start of the wrong length, mode or mesh, or a vector or field start
    with a non-finite value, raises ``ValueError``.
    """
    if mode not in ("full", "variational"):
        raise ValueError(f"unknown control mode {mode!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if data is None:
        data = ops.data

    n = ops.M_Gamma.shape[0] if mode == "full" else ops.bq.num_points
    lam = 0.0
    if u0 is None:
        u_vec = _initial_control(data, n)
    elif isinstance(u0, DiscreteSolution):
        u_vec, lam = _prolonged_start(ops, data, mode, u0)
    else:
        u_vec = np.array(u0.coefficients if isinstance(u0, DiscreteField) else u0,
                         dtype=float)
        if u_vec.shape != (n,):
            raise ValueError("initial control has the wrong length")
        if not np.all(np.isfinite(u_vec)):
            raise ValueError("the initial control u0 has non-finite values")

    active = _active_sets(u_vec, lam, data)
    history = [active]
    log = []
    for it in range(1, max_iter + 1):
        parts = solve_optimality_system(ops, active, data, mode=mode,
                                        strategy=strategy, u_start=u_vec)
        cg = parts.get("cg")
        log.append(PdasStep(int(active.lower.sum()), int(active.upper.sum()),
                            int(active.inactive.sum()),
                            cg.iterations if cg else 0, cg.residual if cg else None))
        u_vec, lam = _multiplier(ops, data, mode, active, parts)
        new_active = _active_sets(u_vec, lam, data)

        if new_active.same_as(active):
            u_out = DiscreteField(ops.spaces.control, u_vec) if mode == "full" else u_vec
            y = DiscreteField(ops.spaces.potential, parts["y"])
            return DiscreteSolution(
                y=y, q=DiscreteField(ops.spaces.flux, parts["q"]),
                z=DiscreteField(ops.spaces.potential, parts["z"]),
                p=DiscreteField(ops.spaces.flux, parts["p"]), u=u_out,
                active=new_active, multiplier=lam, cost=evaluate_cost(y, u_out, data, ops),
                iterations=it, converged=True, mode=mode, bq=ops.bq, flux=ops.flux,
                data=data, log=log,
            )
        for step, earlier in enumerate(history[:-1]):
            if new_active.same_as(earlier):
                raise PdasNonconvergence(
                    f"active sets cycling: step {it} returned to the sets of step {step}")
        history.append(new_active)
        active = new_active

    last, prev = history[-1], history[-2]
    dl = int(np.sum(last.lower != prev.lower))
    du = int(np.sum(last.upper != prev.upper))
    raise PdasNonconvergence(
        f"active sets still changing after {max_iter} iterations "
        f"(last step moved {dl} lower / {du} upper markers)"
    )
