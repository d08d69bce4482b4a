"""Block optimality systems and their sparse direct solution.

Unknown ordering is (q, y, p, z, u) -- state flux, state, adjoint flux,
adjoint, control -- so a full-discretization system on m elements and b
boundary edges has 6m + 3m + 6m + 3m + 2b rows.  In variational mode the
control is not a DOF block: on inactive quadrature points it is
eliminated through the pointwise projection formula, leaving an 18m
system.

The flux ansatz is discontinuous P1, so both flux blocks A are
element-local mass matrices and their elimination is exact.  The state
operator S = C + B' A^-1 B then acts on the scalar unknown alone, and it
does not depend on the active set.

The production path (``strategy="reduced"``) factors S once per operator
set (the same factorization the state and adjoint solves of ``ldg`` use,
the adjoint transposed) and solves each active set in control space: the
active controls are their bounds, and the inactive ones solve the SPD
reduced system H_II u_I = b_I, H = omega W + L' S^-T M_Omega S^-1 L, by
conjugate gradients preconditioned with (omega W_II)^-1.  Every CG step
costs one solve with S and one with S'.  ``ReducedSolveError`` reports a
CG run that misses its tolerance within ``CG_MAX_ITER`` steps.

Two direct solves are kept as references.  ``condense_kkt`` builds the
optimality system after the flux elimination, with the active controls
substituted by their bounds (``strategy="condensed"``); ``compose_kkt``
builds the unreduced five-block matrix (``strategy="monolithic"``), the
oracle that the tests and ``ldgcontrol check`` compare the production
path against.

Every factorization is a ``Factorization``: a sparse LU with iterative
refinement that raises ``SingularSystemError`` when the factorization
fails, produces non-finite entries or the refinement stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SingularSystemError",
    "ReducedSolveError",
    "CgReport",
    "Factorization",
    "direct_solve",
    "BlockSystem",
    "compose_kkt",
    "CondensedSystem",
    "condense_kkt",
    "solve_optimality_system",
]


class SingularSystemError(RuntimeError):
    """Raised when a direct factorization meets a singular matrix."""


class ReducedSolveError(SingularSystemError):
    """Raised when CG on the reduced control system misses its tolerance."""


# Cap on the CG iterations of one reduced solve.  The preconditioned
# reduced Hessian needs 5-12 iterations on the studies (omega = 1) and about
# 100 at omega = 1e-4; the count grows as the regularization weight falls.
CG_MAX_ITER = 500


@dataclass(frozen=True)
class CgReport:
    """Iterations and final relative residual of one reduced CG solve."""

    iterations: int
    residual: float


class Factorization:
    """Sparse LU of a square matrix with refined, checked solves."""

    def __init__(self, matrix):
        self.matrix = sp.csc_matrix(matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("a factorization needs a square matrix")
        try:
            self.lu = spla.splu(self.matrix)
        except RuntimeError as exc:  # scipy reports 'Factor is exactly singular'
            raise SingularSystemError(f"sparse LU failed: {exc}") from exc

    def solve(self, b, trans: str = "N", tol: float = 1e-10, max_refine: int = 3):
        """Solve A x = b (``trans="T"``: A' x = b) with iterative refinement.

        The relative residual is driven below ``tol`` (usually one
        refinement sweep suffices); non-finite entries or a stalled
        refinement are reported as a singular system.
        """
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.matrix.shape[0]:
            raise ValueError("right-hand side does not match the factored matrix")
        op = self.matrix if trans == "N" else self.matrix.T
        x = self.lu.solve(b, trans=trans)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("sparse LU produced non-finite entries (singular system)")
        norm_b = np.linalg.norm(b)
        if norm_b == 0.0:
            return np.zeros_like(b)
        for _ in range(max_refine):
            residual = b - op @ x
            if np.linalg.norm(residual) <= tol * norm_b:
                return x
            x = x + self.lu.solve(residual, trans=trans)
        residual = np.linalg.norm(b - op @ x) / norm_b
        if residual > tol:
            raise SingularSystemError(
                f"iterative refinement stalled at relative residual {residual:.3e}")
        return x


def direct_solve(A, b, tol: float = 1e-10, max_refine: int = 3):
    """Factor A and solve A x = b once (see ``Factorization.solve``)."""
    return Factorization(A).solve(b, tol=tol, max_refine=max_refine)


@dataclass
class BlockSystem:
    """Assembled coupled optimality system with its unknown layout.

    ``slices`` maps block names ('q', 'y', 'p', 'z', and 'u' in full mode)
    to index ranges of the global vector.  Variational mode has no 'u'
    block: the control lives at quadrature points and is recovered from p
    and z.
    """

    matrix: sp.spmatrix
    rhs: np.ndarray
    slices: dict
    mode: str

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def split(self, x):
        return {name: x[sl] for name, sl in self.slices.items()}


def _control_blocks(ops, active, data, mode):
    """Validated active-set data shared by every solve path.

    Returns (inactive, bound_vals): the inactive mask over the control
    unknowns of ``mode`` and the bound values on the active ones (0
    elsewhere).
    """
    if mode == "full":
        n_controls = ops.M_Gamma.shape[0]
    elif mode == "variational":
        n_controls = ops.bq.num_points
    else:
        raise ValueError(f"unknown discretization mode: {mode!r}")
    if isinstance(active, tuple):
        raw_lower, raw_upper = active
    else:
        raw_lower, raw_upper = active.lower, active.upper
    lower = np.asarray(raw_lower, dtype=bool)
    upper = np.asarray(raw_upper, dtype=bool)
    if lower.shape != (n_controls,) or upper.shape != (n_controls,):
        raise ValueError("active-set masks do not match the control unknowns")
    if np.any(lower & upper):
        raise ValueError("a control unknown cannot be active at both bounds")
    if np.any(lower) and not np.isfinite(data.u_lower):
        raise ValueError("lower-active set requires a finite lower bound")
    if np.any(upper) and not np.isfinite(data.u_upper):
        raise ValueError("upper-active set requires a finite upper bound")
    inactive = ~(lower | upper)
    bound_vals = np.where(lower, data.u_lower, 0.0) + np.where(upper, data.u_upper, 0.0)
    return inactive, bound_vals


def _pointwise_coupling(ops, inactive, omega):
    """Variational-mode products (G1, H1, G2, H2) = M_qp D_I T / omega.

    They substitute the inactive pointwise control
    u = (T_pn p - T_kz z)/omega into the two state rows of the coupled and
    the flux-condensed systems.
    """
    bq = ops.bq
    D_I = sp.diags(inactive.astype(float) / omega)
    return tuple((M_qp @ D_I @ T).tocsr()
                 for M_qp in (bq.M1_qp, bq.M2_qp) for T in (bq.T_pn, bq.T_kz))


def compose_kkt(ops, active, data, mode: str = "full") -> BlockSystem:
    """Build the coupled optimality system for the given active sets.

    Full mode rows: the two state equations, the two adjoint equations,
    and per-DOF control rows -- the consistent-mass gradient equation on
    inactive DOFs, u pinned to its bound on active DOFs.  Variational
    mode eliminates the control: inactive quadrature points carry
    u = (sqrt(eps) p.n - kappa z)/omega, active points the bound value,
    both substituted into the state equations.
    """
    A, B, C = ops.A, ops.B, ops.C
    M_Omega = ops.M_Omega
    nW = A.shape[0]
    nV = C.shape[0]
    inactive, bound_vals = _control_blocks(ops, active, data, mode)

    if mode == "full":
        nU = ops.M_Gamma.shape[0]
        # control rows: D_I (omega M_Gamma u + M1' p + M2' z) + D_A u = D_A u_bound
        D_I = sp.diags(inactive.astype(float))
        D_A = sp.diags((~inactive).astype(float))
        K = sp.bmat([
            [A,     B,    None,  None,  -ops.M1],
            [-B.T,  C,    None,  None,  -ops.M2],
            [None,  None, A,     -B,    None],
            [None, -M_Omega, B.T, C.T,  None],
            [None,  None, D_I @ ops.M1.T, D_I @ ops.M2.T,
             data.omega * (D_I @ ops.M_Gamma) + D_A],
        ], format="csc")
        rhs = np.concatenate([
            np.zeros(nW), ops.F, np.zeros(nW), -ops.Yd, bound_vals,
        ])
        offs = np.cumsum([0, nW, nV, nW, nV, nU])
        slices = {name: slice(offs[i], offs[i + 1]) for i, name in enumerate("qypzu")}
        return BlockSystem(K, rhs, slices, "full")

    G1, H1, G2, H2 = _pointwise_coupling(ops, inactive, data.omega)
    K = sp.bmat([
        [A,     B,    -G1,   H1],
        [-B.T,  C,    -G2,   H2],
        [None,  None, A,     -B],
        [None, -M_Omega, B.T, C.T],
    ], format="csc")
    bq = ops.bq
    rhs = np.concatenate([
        bq.M1_qp @ bound_vals,
        ops.F + bq.M2_qp @ bound_vals,
        np.zeros(nW),
        -ops.Yd,
    ])
    offs = np.cumsum([0, nW, nV, nW, nV])
    slices = {name: slice(offs[i], offs[i + 1]) for i, name in enumerate("qypz")}
    return BlockSystem(K, rhs, slices, "variational")


def _flux_block_inverse(ops):
    """Exact inverse of the vector mass block, one 6x6 block per element.

    The flux bilinear form is the plain (weighted) vector L2 inner product,
    so on every element the block is 2*area times the reference-triangle
    linear mass matrix tensored with the 2x2 identity.  Inverting the 3x3
    reference matrix once and scaling gives the sparse global inverse.
    """
    from .spaces import quadrature_rule, tri_basis_values

    mesh = ops.mesh
    nt = mesh.num_elements
    rule = quadrature_rule("triangle", ops.quad_degree)
    lam = tri_basis_values(rule.points)
    mass_ref = (lam.T * rule.weights) @ lam
    minv = np.linalg.inv(mass_ref)
    blk6 = np.kron(minv, np.eye(2))

    idx = 6 * np.arange(nt)[:, None] + np.arange(6)[None, :]
    rows = np.repeat(idx, 6, axis=1).ravel()
    cols = np.tile(idx, (1, 6)).ravel()
    vals = (blk6.ravel()[None, :] / (2.0 * mesh.areas)[:, None]).ravel()
    n = 6 * nt
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _condensation_operators(ops):
    """Element-eliminated operators, cached per assembled operator set.

    Returns (Ainv, AinvB, S, Mt) with S = C + B^T A^-1 B the convection-
    diffusion operator acting on the scalar unknown alone, and
    Mt = M2 + B^T A^-1 M1 the matching condensed control-to-state load.
    """
    if ops._condensation is None:
        Ainv = _flux_block_inverse(ops)
        AinvB = (Ainv @ ops.B).tocsr()
        S = (ops.C + ops.B.T @ AinvB).tocsr()
        Mt = (ops.M2 + ops.B.T @ (Ainv @ ops.M1)).tocsr()
        ops._condensation = (Ainv, AinvB, S, Mt)
    return ops._condensation


@dataclass
class CondensedSystem:
    """Reduced optimality system after element-local flux elimination.

    ``matrix`` acts on (y, z, u_I) in full mode, with u_I the inactive
    controls, and on (y, z) in variational mode.  ``recover`` reconstructs
    the eliminated flux unknowns and, in full mode, the whole control (the
    active part is its bound) from a reduced solution vector; the
    reconstruction is exact because the flux blocks are block-diagonal
    mass matrices.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    slices: dict
    mode: str
    ops: object
    aux: dict

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def split(self, x):
        if x.shape != self.rhs.shape:
            raise ValueError("solution vector does not match system size")
        return {name: x[sl].copy() for name, sl in self.slices.items()}

    def recover(self, x):
        """Expand a reduced solution into the (q, y, p, z[, u]) parts."""
        parts = self.split(x)
        Ainv, AinvB, _, _ = _condensation_operators(self.ops)
        y = parts["y"]
        z = parts["z"]
        p = AinvB @ z
        if self.mode == "full":
            u = self.aux["bound_vals"].copy()
            u[self.aux["inactive"]] = parts["u"]
            parts["u"] = u
            q = Ainv @ (self.ops.M1 @ u) - AinvB @ y
        else:
            # q = A^-1 (r1 - B y + G1 p - H1 z) with r1 the active-bound load
            resid = self.aux["r1"] - self.ops.B @ y
            resid = resid + self.aux["G1"] @ p - self.aux["H1"] @ z
            q = Ainv @ resid
        parts["q"] = q
        parts["p"] = p
        return parts


def condense_kkt(ops, active, data=None, mode="full"):
    """Build the flux-eliminated optimality system for a given active set.

    Exactly equivalent to ``compose_kkt`` followed by block elimination of
    the two flux rows: the flux blocks are invertible element by element,
    so no approximation is involved.  In full mode the active controls are
    substituted by their bounds as well, so they hold them exactly.  The
    reduced matrix couples each element only to its distance-<=2
    neighbours, which keeps direct factorization affordable on meshes
    where the coupled system is not.
    """
    if data is None:
        data = ops.data
    Ainv, AinvB, S, Mt = _condensation_operators(ops)
    nV = S.shape[0]
    M_Omega = ops.M_Omega
    inactive, bound_vals = _control_blocks(ops, active, data, mode)

    if mode == "full":
        # S y - Mt u = F and the inactive control rows, with u_A = bound
        free = np.flatnonzero(inactive)
        Mt_I = Mt[:, free]
        M_Gamma_I = ops.M_Gamma[free]
        R = sp.bmat([
            [S,        None,     -Mt_I],
            [-M_Omega, S.T,      None],
            [None,     Mt_I.T,   data.omega * M_Gamma_I[:, free]],
        ], format="csc")
        rhs = np.concatenate([ops.F + Mt @ bound_vals, -ops.Yd,
                              -data.omega * (M_Gamma_I @ bound_vals)])
        offs = np.cumsum([0, nV, nV, free.size])
        slices = {name: slice(offs[i], offs[i + 1]) for i, name in enumerate("yzu")}
        aux = {"inactive": free, "bound_vals": bound_vals}
        return CondensedSystem(R, rhs, slices, "full", ops, aux)

    G1, H1, G2, H2 = _pointwise_coupling(ops, inactive, data.omega)
    bq = ops.bq
    r1 = bq.M1_qp @ bound_vals
    r2 = ops.F + bq.M2_qp @ bound_vals
    # Substituting q = A^-1 (r1 - B y + G1 p - H1 z) and p = A^-1 B z
    # into the scalar state row leaves a two-block system in (y, z).
    Gc = (G2 + ops.B.T @ (Ainv @ G1)).tocsr()
    Hc = (H2 + ops.B.T @ (Ainv @ H1)).tocsr()
    Z_blk = (Hc - Gc @ AinvB).tocsr()
    R = sp.bmat([
        [S,        Z_blk],
        [-M_Omega, S.T],
    ], format="csc")
    rhs = np.concatenate([r2 + ops.B.T @ (Ainv @ r1), -ops.Yd])
    slices = {"y": slice(0, nV), "z": slice(nV, 2 * nV)}
    aux = {"G1": G1, "H1": H1, "r1": r1}
    return CondensedSystem(R, rhs, slices, "variational", ops, aux)


def _control_load(ops, mode):
    """(L, W) of the reduced problem in the control unknowns of ``mode``.

    After flux elimination the state equation is S y = F + L u, and the
    gradient of the reduced cost is omega W u + L' z with the adjoint
    S' z = M_Omega y - Yd.  Full mode: L = Mt and W = M_Gamma.  Variational
    mode: L = M2_qp + B' A^-1 M1_qp (cached next to Mt) and W = diag of
    the boundary quadrature weights; M1_qp = -T_pn' W and M2_qp = T_kz' W
    make L' z = W (T_kz z - T_pn p), the pointwise stationarity term.
    """
    Ainv, _, _, Mt = _condensation_operators(ops)
    if mode == "full":
        return Mt, ops.M_Gamma
    if ops._qp_load is None:
        bq = ops.bq
        ops._qp_load = (bq.M2_qp + ops.B.T @ (Ainv @ bq.M1_qp)).tocsr()
    return ops._qp_load, sp.diags(ops.bq.weights, format="csr")


def _pcg(apply, b, precond, x0, rtol, maxiter):
    """Preconditioned conjugate gradients for an SPD operator.

    Iterates from ``x0`` until ||b - apply(x)|| <= rtol ||b|| (recursively
    updated residual) or ``maxiter`` steps.  Returns (x, iterations,
    relative residual).
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    x = x0.copy()
    r = b - apply(x) if x.any() else b.copy()
    res = float(np.linalg.norm(r) / norm_b)
    z = precond(r)
    d = z.copy()
    rz = r @ z
    it = 0
    while res > rtol and it < maxiter:
        Hd = apply(d)
        alpha = rz / (d @ Hd)
        x += alpha * d
        r -= alpha * Hd
        it += 1
        res = float(np.linalg.norm(r) / norm_b)
        z = precond(r)
        rz, rz_old = r @ z, rz
        d = z + (rz / rz_old) * d
    return x, it, res


def _reduced_solve(ops, active, data, mode, tol, u_start):
    """Solve one active set in control space on the cached factor of S.

    The inactive controls solve H_II u_I = b_I with the SPD reduced Hessian
    H = omega W + L' S^-T M_Omega S^-1 L, by CG preconditioned with
    (omega W_II)^-1 and started from ``u_start``; b_I is minus the reduced
    gradient at u_I = 0, u_A = bound.  The active controls are their
    bounds, and y, z, p, q follow from one state and one adjoint solve.
    """
    inactive, u = _control_blocks(ops, active, data, mode)
    free = np.flatnonzero(inactive)
    L, W = _control_load(ops, mode)
    lu = ops.state_factorization()
    W_I = (data.omega * W[free][:, free]).tocsc()

    def state_adjoint(load, target):
        # y = S^-1 load and z = S^-T (M_Omega y - target)
        y = lu.solve(load)
        return y, lu.solve(ops.M_Omega @ y - target, trans="T")

    def hessian(x):
        v = np.zeros(u.size)
        v[free] = x
        return W_I @ x + (L.T @ state_adjoint(L @ v, 0.0)[1])[free]

    _, z = state_adjoint(ops.F + L @ u, ops.Yd)
    b = -(data.omega * (W @ u) + L.T @ z)[free]
    x0 = np.zeros(free.size) if u_start is None else np.asarray(u_start, dtype=float)[free]
    precond = spla.factorized(W_I) if free.size else None
    # two digits below the direct solves' residual contract, so that the
    # recovered parts agree with them to about tol
    rtol = 1e-2 * tol
    x, iterations, residual = _pcg(hessian, b, precond, x0, rtol, CG_MAX_ITER)
    if not residual <= rtol:
        raise ReducedSolveError(
            f"CG on {free.size} inactive controls stopped after {iterations} "
            f"iterations at reduced residual {residual:.3e} (tolerance {rtol:.0e})")
    u[free] = x
    y, z = state_adjoint(ops.F + L @ u, ops.Yd)
    Ainv, AinvB, _, _ = _condensation_operators(ops)
    M1 = ops.M1 if mode == "full" else ops.bq.M1_qp
    parts = {"q": Ainv @ (M1 @ u - ops.B @ y), "y": y, "p": AinvB @ z, "z": z,
             "cg": CgReport(iterations, residual)}
    if mode == "full":
        parts["u"] = u
    return parts


def solve_optimality_system(ops, active, data=None, mode="full",
                            strategy="reduced", tol=1e-10, u_start=None):
    """Solve one active-set linearization of the optimality system.

    strategy
        "reduced" (the default) solves for the inactive controls by CG on
        the cached factor of S, to a relative reduced residual of tol/100,
        starting from ``u_start`` (a control vector, default 0);
        "condensed" factors the flux-eliminated system and "monolithic"
        the coupled block matrix, both direct (relative residual tol) and
        kept as references.

    Returns the parts dict with keys q, y, p, z and, in full mode, u; the
    reduced path adds "cg", a ``CgReport`` of its iteration.
    """
    if data is None:
        data = ops.data
    if strategy == "reduced":
        return _reduced_solve(ops, active, data, mode, tol, u_start)
    if strategy == "condensed":
        system = condense_kkt(ops, active, data=data, mode=mode)
        return system.recover(direct_solve(system.matrix, system.rhs, tol=tol))
    if strategy == "monolithic":
        system = compose_kkt(ops, active, data, mode=mode)
        return system.split(direct_solve(system.matrix, system.rhs, tol=tol))
    raise ValueError(f"unknown solve strategy: {strategy!r}")
