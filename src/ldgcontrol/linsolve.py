"""Block optimality systems and their sparse direct solution.

Unknown ordering is (q, y, p, z, u) -- state flux, state, adjoint flux,
adjoint, control -- so a full-discretization system on m elements and b
boundary edges has 6m + 3m + 6m + 3m + 2b rows.  In variational mode the
control is not a DOF block: on inactive quadrature points it is
eliminated through the pointwise projection formula, leaving an 18m
system.

The flux ansatz is discontinuous P1, so both flux blocks A are
element-local mass matrices and their elimination is exact.  The state
operator S = C + B' A^-1 B then acts on the scalar unknown alone.
``condense_kkt`` builds the optimality system after that elimination, with
the active controls substituted by their bounds; it has about one third of
the unknowns and far less LU fill than the coupled matrix.  It is the
production path (``strategy="condensed"``).  ``compose_kkt`` builds the
unreduced five-block matrix; ``strategy="monolithic"`` factors it directly
and is the reference that the tests and ``ldgcontrol check`` compare the
production path against.  The state and adjoint solves of ``ldg`` factor
S once per operator set and use it for both (the adjoint transposed).

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
    """Active-set data shared by ``compose_kkt`` and ``condense_kkt``.

    Returns (inactive, bound_vals, coupling): the inactive mask over the
    control unknowns of ``mode``, the bound values on the active ones (0
    elsewhere), and in variational mode the products (G1, H1, G2, H2) =
    M_qp D_I T / omega that substitute the inactive pointwise control
    u = (T_pn p - T_kz z)/omega into the two state rows (None in full mode).
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
    if mode == "full":
        return inactive, bound_vals, None
    bq = ops.bq
    D_I = sp.diags(inactive.astype(float) / data.omega)
    coupling = tuple((M_qp @ D_I @ T).tocsr()
                     for M_qp in (bq.M1_qp, bq.M2_qp) for T in (bq.T_pn, bq.T_kz))
    return inactive, bound_vals, coupling


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
    inactive, bound_vals, coupling = _control_blocks(ops, active, data, mode)

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

    G1, H1, G2, H2 = coupling
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
    inactive, bound_vals, coupling = _control_blocks(ops, active, data, mode)

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

    G1, H1, G2, H2 = coupling
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


def solve_optimality_system(ops, active, data=None, mode="full",
                            strategy="condensed", tol=1e-10):
    """Solve one active-set linearization of the optimality system.

    strategy
        "condensed" (the default) eliminates the flux blocks and the active
        controls first (exact); "monolithic" factors the coupled block
        matrix and is kept as the reference to compare against.

    Returns the parts dict with keys q, y, p, z and, in full mode, u.
    """
    if data is None:
        data = ops.data
    if strategy == "condensed":
        system = condense_kkt(ops, active, data=data, mode=mode)
        return system.recover(direct_solve(system.matrix, system.rhs, tol=tol))
    if strategy == "monolithic":
        system = compose_kkt(ops, active, data, mode=mode)
        return system.split(direct_solve(system.matrix, system.rhs, tol=tol))
    raise ValueError(f"unknown solve strategy: {strategy!r}")
