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

This module owns every factor and solve of a level that ``ldg`` has
assembled.  The production path (``strategy="reduced"``) factors S once
per operator set (the same factorization ``solve_state`` uses; adjoint
solves use it transposed) and solves each active set in control space:
the active controls are their bounds, and the inactive ones solve the SPD
reduced system H_II u_I = b_I, H = omega W + L' S^-T M_Omega S^-1 L, by
conjugate gradients preconditioned with (omega W_II)^-1.  An active set
with k CG steps costs 2 + 2k solves with the factor: one two-column
solve with S and one with S' (the state and adjoint at u_I = 0, for b_I,
and at the start control, for the start residual), then one solve with
S and one with S' per CG step, whose results move the state and adjoint
along with the iterate.  These solves, and those with omega W_II, are
bare LU solves (``Factorization.bare_solve``), fixed linear operators,
which is all CG needs; the step is certified once instead, and re-run
with refined solves if that fails (``_reduced_solve``).
``ReducedSolveError`` reports a CG run that misses its tolerance within
``CG_MAX_ITER`` steps.

An operator set's reduced problem is built once, by ``_reduction``, and
kept in the slot ``BlockOperator.reduction`` that is this module's: a
``Reduction`` of the factor of S and Mt.  The flux elimination
(``_eliminate``) takes A^-1 from ``ldg._flux_block_inverse`` and forms
Mt and S = C + B' (A^-1 B) as sparse products, the last through
(A^-1 B)' B; C, summed into S, leaves the operator set.  The factor
takes S and keeps the one copy it factors, S[order][:, order], so a
reduced solve reads the factor, Mt, B, M1, M_Omega, M_Gamma and the
loads, and nothing else.  Its two recoveries rebuild A^-1 and form
p = A^-1 (B z), so A^-1 B is never kept.  ``Factorization.matrix``
gathers S back where S itself is wanted, and ``_condensation_operators``
returns (A^-1, A^-1 B, S, Mt) for the condensed reference path, A^-1 and
A^-1 B built on each call.

The pieces of the reduced problem live here once: ``_control_load`` (L,
W and the flux load M1 of a mode), ``_state_adjoint`` (the state/adjoint
pair) and ``_gradient`` (omega W u + L' z); ``solve_state`` and the
multiplier and gradient checks of ``control`` use them too.

Two direct solves are kept as references.  ``condense_kkt`` builds the
optimality system after the flux elimination, with the active controls
substituted by their bounds (``strategy="condensed"``); ``compose_kkt``
builds the unreduced five-block matrix (``strategy="monolithic"``) from
an assembly of its own, the oracle that the tests and ``ldgcontrol
check`` compare the production path against.

Every factorization is a ``Factorization``: a sparse LU in a given
elimination order, with diagonal pivots, whose ``solve`` refines and
raises ``SingularSystemError`` when the factorization fails, produces
non-finite entries or the refinement stalls.  The order comes from one
nested dissection of the P1 nodes, the unknowns of S, in the coupling
graph of S (``geometry.dissection_order``, the order of the state
factor), derived from the dissection tree of the nearest ordered coarser
mesh of the refinement chain when there is one.
The two reference systems keep the unknowns of a P1 node together at its
rank (q, y, p, z block by block, each control with the node at its
boundary vertex).  At 8192 elements this factors S with 1.36 M nonzeros
in L and U, against 5.1 M for SuperLU's default COLAMD column order with
partial pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import data_values, dissection_order
from .ldg import _flux_block_inverse, assemble_forms
from .spaces import DiscreteField

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
    "solve_state",
]


class SingularSystemError(RuntimeError):
    """Raised when a direct factorization meets a singular matrix."""


class ReducedSolveError(SingularSystemError):
    """Raised when CG on the reduced control system misses its tolerance."""


# Every refined solve drives its relative residual below _SOLVE_TOL in at
# most _MAX_REFINE sweeps, and each certificate residual of a reduced step
# must be within it; the reduced CG stops two digits lower, so that the
# parts it recovers agree with the direct solves' to about _SOLVE_TOL.
_SOLVE_TOL = 1e-10
_MAX_REFINE = 3

# Cap on the CG iterations of one reduced solve.  The preconditioned
# reduced Hessian needs 5-12 iterations on the studies (omega = 1) and about
# 100 at omega = 1e-4; the count grows as the regularization weight falls.
CG_MAX_ITER = 500


@dataclass(frozen=True)
class CgReport:
    """What one reduced solve did and proved: its CG iterations and final
    relative residual, the three residuals of its certificate (see
    ``_reduced_solve``) and whether it is a refined re-run."""

    iterations: int
    residual: float
    state_residual: float
    adjoint_residual: float
    stationarity: float
    refined: bool

    @property
    def certified(self) -> bool:
        """Whether every certificate residual is within ``_SOLVE_TOL``."""
        return all(r <= _SOLVE_TOL for r in
                   (self.state_residual, self.adjoint_residual, self.stationarity))


def _permuted(matrix, order):
    """``matrix[order][:, order]`` of a CSR or CSC matrix, in CSC form.

    One gather along the compressed axis, the other indices relabelled
    through the inverse order; the CSC conversion of a CSR gather sorts
    them again.
    """
    permuted = matrix[order] if matrix.format == "csr" else matrix[:, order]
    inverse = np.empty(order.size, dtype=permuted.indices.dtype)
    inverse[order] = np.arange(order.size, dtype=inverse.dtype)
    permuted.indices = inverse[permuted.indices]
    permuted.has_sorted_indices = False
    if permuted.format == "csr":
        return permuted.tocsc()
    permuted.sort_indices()
    return permuted


class Factorization:
    """Sparse LU of a square matrix in a given elimination order.

    The matrix is factored as ``matrix[order][:, order]`` in SuperLU's
    symmetric mode: no further column ordering, and each pivot on the
    diagonal (a row exchange only where a diagonal entry is exactly zero).
    ``order`` defaults to the identity; the solvers pass a nested-dissection
    order, which keeps the fill a fraction of what a fill-reducing column
    order gives.  Pivoting is traded away for that, so ``solve`` refines
    its result and reports a stalled refinement as a singular system;
    ``bare_solve`` leaves the check to its caller.

    The factor keeps one copy of the matrix, the permuted one it factors,
    and refines in that numbering.  Attributes: ``permuted`` (that copy,
    CSC), ``order``, ``lu`` (the SuperLU object), ``fill`` (nonzeros of L
    and U) and ``sweeps`` (refinement sweeps of all solves so far);
    ``matrix`` gathers the matrix back in its own numbering on each read.
    """

    def __init__(self, matrix, order=None):
        if not (sp.issparse(matrix) and matrix.format in ("csr", "csc")):
            matrix = sp.csc_matrix(matrix)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise ValueError("a factorization needs a square matrix")
        order = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("the elimination order must be a permutation of the unknowns")
        self._factor(_permuted(matrix, order), order)

    @classmethod
    def _of_permuted(cls, permuted, order):
        """The factorization of the matrix whose ``[order][:, order]`` is the
        CSC matrix ``permuted``, kept as given: a caller that hands over
        its last reference to the matrix in its own numbering leaves no
        copy of it alive while SuperLU runs."""
        factor = cls.__new__(cls)
        factor._factor(permuted, order)
        return factor

    def _factor(self, permuted, order):
        self.permuted, self.order, self.sweeps = permuted, order, 0
        self._inverse = np.empty_like(order)
        self._inverse[order] = np.arange(order.size)
        try:
            self.lu = spla.splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True})
        except RuntimeError as exc:  # scipy reports 'Factor is exactly singular'
            raise SingularSystemError(f"sparse LU failed: {exc}") from exc

    @property
    def fill(self) -> int:
        return self.lu.nnz

    @property
    def matrix(self):
        """The factored matrix in its own numbering (CSR), gathered back
        from ``permuted``: the CSR arrays of a matrix are the CSC arrays of
        its transpose, so the CSC gather of ``permuted.T`` transposed back
        is it."""
        return _permuted(self.permuted.T, self._inverse).T

    def _rows(self, b):
        """The columns of ``b`` gathered into the factor's numbering, one
        per contiguous row."""
        n = self.order.size
        if b.shape[0] != n:
            raise ValueError("right-hand side does not match the factored matrix")
        return np.take(b.reshape(n, -1).T, self.order, axis=1)

    def _lu_solve(self, rows, trans):
        """The LU solve of gathered rows, with non-finite entries reported
        as a singular system."""
        x = self.lu.solve(rows.T, trans=trans).T
        if not np.all(np.isfinite(x)):
            raise SingularSystemError("sparse LU produced non-finite entries (singular system)")
        return x

    def solve(self, b, trans: str = "N"):
        """Solve A x = b (``trans="T"``: A' x = b) with iterative refinement.

        ``b`` is a vector or an (n, m) array of m right-hand sides, solved
        together.  Each column's relative residual is driven below
        ``_SOLVE_TOL`` by at most ``_MAX_REFINE`` refinement sweeps of its
        own (each counted in ``sweeps``); a zero column gives a zero
        column without a solve.  Non-finite entries or a stalled
        refinement are reported as a singular system.

        The right-hand sides are gathered once into the factor's numbering,
        one per contiguous row, so that each norm is a contiguous numpy
        reduction and each residual product a one-vector product, and x is
        gathered back once (an (n, m) result is a transposed view).
        """
        b = np.asarray(b, dtype=float)
        rows = self._rows(b)
        norm_b = np.linalg.norm(rows, axis=1)
        x = np.zeros_like(rows)
        live = np.flatnonzero(norm_b)
        if live.size:
            x[live] = self._lu_solve(rows[live], trans)
        op = self.permuted if trans == "N" else self.permuted.T
        for sweep in range(_MAX_REFINE + 1):
            residual = rows[live]
            for r, xr in zip(residual, x[live]):
                r -= op @ xr
            error = np.linalg.norm(residual, axis=1) / norm_b[live]
            open_ = error > _SOLVE_TOL
            if not open_.any():
                return np.take(x, self._inverse, axis=1).T.reshape(b.shape)
            live, residual = live[open_], residual[open_]
            if sweep < _MAX_REFINE:
                self.sweeps += live.size
                x[live] += self.lu.solve(residual.T, trans=trans).T
        raise SingularSystemError(
            f"iterative refinement stalled at relative residual {error.max():.3e}")

    def bare_solve(self, b, trans: str = "N"):
        """Solve A x = b (``trans="T"``: A' x = b) by the LU alone, with no
        residual and no refinement: a fixed linear operator, whose result
        the caller certifies (see ``_reduced_solve``).  ``b`` and the
        non-finite check are as in ``solve``."""
        b = np.asarray(b, dtype=float)
        x = self._lu_solve(self._rows(b), trans)
        return np.take(x, self._inverse, axis=1).T.reshape(b.shape)

    def residual(self, x, b, trans: str = "N") -> float:
        """Relative residual ||A x - b|| / ||b|| (``trans="T"``: A') of one
        vector, formed in the factor's numbering; 0 where A x = b holds
        exactly, b = 0 included."""
        op = self.permuted if trans == "N" else self.permuted.T
        return _relative(op @ x[self.order] - b[self.order], b)


def _relative(r, reference) -> float:
    """||r|| / ||reference||, and 0 for r = 0 whatever the reference."""
    norm = np.linalg.norm(r)
    return float(norm / np.linalg.norm(reference)) if norm else 0.0


def direct_solve(A, b, order=None):
    """Factor A in ``order`` and solve A x = b once (see ``Factorization``)."""
    return Factorization(A, order).solve(b)


@dataclass
class BlockSystem:
    """Assembled coupled optimality system with its unknown layout.

    ``slices`` maps block names ('q', 'y', 'p', 'z', and 'u' in full mode)
    to index ranges of the global vector.  Variational mode has no 'u'
    block: the control lives at quadrature points and is recovered from p
    and z.  ``order`` is the elimination order of the unknowns (see
    ``_system_order``).
    """

    matrix: sp.spmatrix
    rhs: np.ndarray
    slices: dict
    mode: str
    order: np.ndarray

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def split(self, x):
        return {name: x[sl] for name, sl in self.slices.items()}


# the ProblemData fields that enter the assembled blocks and loads; omega
# and the bounds enter only the solve
_ASSEMBLED_FIELDS = ("epsilon", "beta", "alpha", "f", "y_desired", "c12_direction")


def _same_datum(a, b):
    """Whether two data fields agree: callables by identity, constants by value."""
    if callable(a) or callable(b):
        return a is b
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def _control_blocks(ops, active, data, mode):
    """Validated active-set data shared by every solve path.

    Returns (inactive, bound_vals): the inactive mask over the control
    unknowns of ``mode`` and the bound values on the active ones (0
    elsewhere).  ``data`` must agree with the data ``ops`` was assembled
    with in every field the blocks read (``_ASSEMBLED_FIELDS``).
    """
    for name in _ASSEMBLED_FIELDS:
        if not _same_datum(getattr(data, name), getattr(ops.data, name)):
            raise ValueError(f"data.{name} differs from the {name} the operators "
                             "were assembled with")
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

    The blocks come from an assembly of its own on the mesh and data of
    ``ops``, so the oracle reads none of the blocks a solve consumes; only
    the elimination order is the state factor's (``_system_order``).
    """
    fresh = assemble_forms(ops.mesh, ops.data)
    A, B, C = fresh.A, fresh.B, fresh.C
    M_Omega = fresh.M_Omega
    nW = A.shape[0]
    nV = C.shape[0]
    inactive, bound_vals = _control_blocks(fresh, active, data, mode)

    if mode == "full":
        nU = fresh.M_Gamma.shape[0]
        # control rows: D_I (omega M_Gamma u + M1' p + M2' z) + D_A u = D_A u_bound
        D_I = sp.diags(inactive.astype(float))
        D_A = sp.diags((~inactive).astype(float))
        K = sp.bmat([
            [A,     B,    None,  None,  -fresh.M1],
            [-B.T,  C,    None,  None,  -fresh.M2],
            [None,  None, A,     -B,    None],
            [None, -M_Omega, B.T, C.T,  None],
            [None,  None, D_I @ fresh.M1.T, D_I @ fresh.M2.T,
             data.omega * (D_I @ fresh.M_Gamma) + D_A],
        ], format="csc")
        rhs = np.concatenate([
            np.zeros(nW), fresh.F, np.zeros(nW), -fresh.Yd, bound_vals,
        ])
        offs = np.cumsum([0, nW, nV, nW, nV, nU])
        slices = {name: slice(offs[i], offs[i + 1]) for i, name in enumerate("qypzu")}
        order = _system_order(ops, (2, 1, 2, 1), controls=np.arange(nU))
        return BlockSystem(K, rhs, slices, "full", order)

    G1, H1, G2, H2 = _pointwise_coupling(fresh, inactive, data.omega)
    K = sp.bmat([
        [A,     B,    -G1,   H1],
        [-B.T,  C,    -G2,   H2],
        [None,  None, A,     -B],
        [None, -M_Omega, B.T, C.T],
    ], format="csc")
    bq = fresh.bq
    rhs = np.concatenate([
        bq.M1_qp @ bound_vals,
        fresh.F + bq.M2_qp @ bound_vals,
        np.zeros(nW),
        -fresh.Yd,
    ])
    offs = np.cumsum([0, nW, nV, nW, nV])
    slices = {name: slice(offs[i], offs[i + 1]) for i, name in enumerate("qypz")}
    return BlockSystem(K, rhs, slices, "variational", _system_order(ops, (2, 1, 2, 1)))


def _eliminate(ops):
    """(S, Mt), the element-eliminated operators: S = C + B^T A^-1 B the
    convection-diffusion operator acting on the scalar unknown alone, and
    Mt = M2 + B^T A^-1 M1 the matching condensed control-to-state load.

    B^T (A^-1 B) is formed as the transpose of (A^-1 B)^T B, which holds
    the same sums and needs B, not A^-1 B, in column form.  A^-1 goes once
    Mt is formed and A^-1 B once the product is, which lowers the peak.  S
    and Mt are copied out of their sums' buffers, which scipy sizes for the
    nonzeros of both terms, and C, summed into S, leaves ``ops``.  The
    solves rebuild A^-1 where they recover a flux (``_flux_block_inverse``,
    about 1 ms at 8192 elements).
    """
    Ainv = _flux_block_inverse(ops)
    AinvB = Ainv @ ops.B
    Mt = (ops.M2 + ops.B.T @ (Ainv @ ops.M1)).tocsr()
    del Ainv
    X = (AinvB.T @ ops.B).T
    del AinvB
    S = ops.C + X
    del X, ops.C
    S.sort_indices()
    return S.copy(), Mt.copy()


@dataclass
class Reduction:
    """The reduced problem of one operator set: the factorization of S in
    the nested-dissection order of the P1 nodes (``factor.order``), the
    condensed load Mt and, once a pointwise control has needed it, the
    variational load ``qp_load`` (see ``_control_load``)."""

    factor: Factorization
    Mt: sp.csr_matrix
    qp_load: Optional[sp.csr_matrix] = None


def _reduction(ops):
    """The ``Reduction`` of ``ops``, built on first use and kept in
    ``ops.reduction``.

    The order is the nested dissection of the P1 nodes in the coupling
    graph of S, derived from the dissection tree of the nearest mesh up
    ``Mesh.parent_mesh`` that has been ordered; this one's tree is kept as
    ``ops.mesh.dissection`` for the meshes that refine it.  The factor then
    takes S in that order and keeps the permuted copy it factors: no
    reference to S in its own numbering is left while SuperLU runs.
    """
    if ops.reduction is None:
        S, Mt = _eliminate(ops)
        ancestor = ops.mesh.parent_mesh
        while ancestor is not None and ancestor.dissection is None:
            ancestor = ancestor.parent_mesh
        order, ops.mesh.dissection = dissection_order(
            _node_points(ops.mesh), S, None if ancestor is None else ancestor.dissection)
        permuted = _permuted(S, order)
        del S
        ops.reduction = Reduction(Factorization._of_permuted(permuted, order), Mt)
    return ops.reduction


def _condensation_operators(ops):
    """(Ainv, AinvB, S, Mt) of the condensed reference path: A^-1 and
    A^-1 B built on each call, S gathered back from the state factor and
    Mt from the reduction."""
    reduction = _reduction(ops)
    Ainv = _flux_block_inverse(ops)
    return Ainv, Ainv @ ops.B, reduction.factor.matrix, reduction.Mt


def _node_points(mesh):
    """Positions of the P1 nodes, the unknowns of S (element major).

    Each element corner is moved a fifth of the way to the element's
    centroid, so that the nodes of the elements around one vertex are told
    apart: a cut through the vertex puts some of them on either side.
    """
    corners = mesh.vertices[mesh.triangles]
    return (0.8 * corners + 0.2 * corners.mean(axis=1, keepdims=True)).reshape(-1, 2)


def _system_order(ops, per_node, controls=None):
    """Nested-dissection order of a system's unknowns, blocked by P1 node.

    The unknowns are node blocks, block b holding ``per_node[b]`` unknowns
    per P1 node (node major, as in the dof maps), followed by the control
    unknowns ``controls`` (positions in the boundary-edge dof map), if
    given.  The order puts all unknowns of a node together at the node's
    rank in the order of the state factor (``_reduction``), block by block,
    and each control unknown with the node of its boundary element at the
    same boundary vertex.
    """
    mesh = ops.mesh
    nodes = 3 * mesh.num_elements
    owner = [np.repeat(np.arange(nodes), k) for k in per_node]
    if controls is not None:
        edges = mesh.boundary_edges
        at_vertex = 3 * mesh.edge_elems[edges, 0, None] + mesh.edge_local[edges, 0]
        owner.append(at_vertex.ravel()[controls])
    rank = np.empty(nodes, dtype=np.int64)
    rank[_reduction(ops).factor.order] = np.arange(nodes)
    return np.argsort(rank[np.concatenate(owner)], kind="stable")


@dataclass
class CondensedSystem:
    """Reduced optimality system after element-local flux elimination.

    ``matrix`` acts on (y, z, u_I) in full mode, with u_I the inactive
    controls, and on (y, z) in variational mode.  ``recover`` reconstructs
    the eliminated flux unknowns and, in full mode, the whole control (the
    active part is its bound) from a reduced solution vector; the
    reconstruction is exact because the flux blocks are block-diagonal
    mass matrices.  ``order`` is the elimination order of the unknowns.
    """

    matrix: sp.csc_matrix
    rhs: np.ndarray
    slices: dict
    mode: str
    ops: object
    aux: dict
    order: np.ndarray

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
        order = _system_order(ops, (1, 1), controls=free)
        return CondensedSystem(R, rhs, slices, "full", ops, aux, order)

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
    return CondensedSystem(R, rhs, slices, "variational", ops, aux, _system_order(ops, (1, 1)))


def _control_load(ops, mode):
    """(L, W, M1) of the reduced problem in the control unknowns of ``mode``.

    After flux elimination the state equation is S y = F + L u with the
    flux q = A^-1 (M1 u - B y), and the gradient of the reduced cost is
    omega W u + L' z (``_gradient``) with the adjoint S' z = M_Omega y - Yd.
    Full mode: L = Mt, W = M_Gamma and M1 = ops.M1.  Variational mode:
    L = M2_qp + B' A^-1 M1_qp (kept next to Mt), W = diag of the boundary
    quadrature weights and M1 = M1_qp; M1_qp = -T_pn' W and M2_qp = T_kz' W
    make L' z = W (T_kz z - T_pn p), the pointwise stationarity term.
    """
    reduction = _reduction(ops)
    if mode == "full":
        return reduction.Mt, ops.M_Gamma, ops.M1
    bq = ops.bq
    if reduction.qp_load is None:
        reduction.qp_load = (bq.M2_qp + ops.B.T @ (_flux_block_inverse(ops) @ bq.M1_qp)).tocsr()
    return reduction.qp_load, sp.diags(bq.weights, format="csr"), bq.M1_qp


def _state_adjoint(ops, load, target, refined=True):
    """State y = S^-1 load and adjoint z = S^-T (M_Omega y - target), both
    on the factorization of S, by refined solves or (``refined=False``)
    bare ones; the columns of a 2-d ``load`` (and ``target``) are solved
    together."""
    factor = _reduction(ops).factor
    solve = factor.solve if refined else factor.bare_solve
    y = solve(load)
    return y, solve(ops.M_Omega @ y - target, trans="T")


def solve_state(ops, u):
    """Solve the state system for a given control; returns (y_h, q_h).

    ``u`` is a boundary DiscreteField (a full-mode control), a callable on
    arrays of boundary points or an array of values at the boundary
    quadrature points (a pointwise control); a control with a non-finite
    value raises ``ValueError``.  The flux is eliminated exactly:
    y = S^-1 (F + L u), then q = A^-1 (M1 u - B y), with L and M1 the
    control loads of the mode (``_control_load``).
    """
    if isinstance(u, DiscreteField):
        mode, u = "full", u.coefficients
    else:
        bq = ops.bq
        mode = "variational"
        u = data_values(u, bq.points, "u") if callable(u) else np.asarray(u, dtype=float)
        if u.shape != (bq.num_points,):
            raise ValueError("pointwise control values must match the boundary quadrature")
    if not np.all(np.isfinite(u)):
        raise ValueError("the control u has non-finite values")
    L, _, M1 = _control_load(ops, mode)
    y = _reduction(ops).factor.solve(ops.F + L @ u)
    q = _flux_block_inverse(ops) @ (M1 @ u - ops.B @ y)
    return DiscreteField(ops.spaces.potential, y), DiscreteField(ops.spaces.flux, q)


def _gradient(ops, mode, omega, u, z):
    """Reduced-cost gradient omega W u + L' z at the control u with the
    adjoint z, in the control unknowns of ``mode`` (see ``_control_load``)."""
    L, W, _ = _control_load(ops, mode)
    return omega * (W @ u) + L.T @ z


def _pcg(apply, b, r, precond, x, rtol, maxiter):
    """Preconditioned conjugate gradients for an SPD operator H.

    ``x`` is a tuple of arrays: the start iterate, then arrays that move
    with it, and ``r`` is the residual b - H x[0] at the start.
    ``apply(d)`` returns (H d, ...): after H d, the change of each further
    array of ``x`` per unit step along d.  Iterates until
    ||r|| <= rtol ||b|| (recursively updated residual) or ``maxiter``
    steps; updates the arrays of ``x`` in place.  Returns (x, iterations,
    relative residual).
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return x, 0, 0.0
    r = r.copy()
    res = float(np.linalg.norm(r) / norm_b)
    z = precond(r)
    d = z.copy()
    rz = r @ z
    it = 0
    while res > rtol and it < maxiter:
        Hd, *moves = apply(d)
        alpha = rz / (d @ Hd)
        for xi, move in zip(x, (d, *moves)):
            xi += alpha * move
        r -= alpha * Hd
        it += 1
        res = float(np.linalg.norm(r) / norm_b)
        z = precond(r)
        rz, rz_old = r @ z, rz
        d = z + (rz / rz_old) * d
    return x, it, res


def _reduced_solve(ops, active, data, mode, u_start, refined):
    """Solve one active set in control space on the factor of S.

    The inactive controls solve H_II u_I = b_I with the SPD reduced Hessian
    H = omega W + L' S^-T M_Omega S^-1 L, by CG preconditioned with
    (omega W_II)^-1 and started from ``u_start``; b_I is minus the reduced
    gradient at u_I = 0, u_A = bound.  The active controls are their
    bounds.

    One two-column solve with S and one with S' give the state and adjoint
    at u_I = 0, whose gradient gives b_I, and at the start, whose gradient
    gives the start residual.  CG carries the state y and adjoint z of its
    iterate: each step solves S w = L d and S' s = M_Omega w for its
    direction d, and y, z move with u as w, s.  So k CG steps cost
    2 + 2k solves, and p = A^-1 (B z), q = A^-1 (M1 u - B y) follow from
    y and z with A^-1 built afresh.

    ``refined`` selects the solves with S, S' and omega W_II: refined ones,
    or bare LU solves, fixed linear operators, which is all CG needs.
    Either way the step is then certified once (``CgReport``): the state
    residual S y - (F + L u), the adjoint residual S' z - (M_Omega y - Yd),
    each relative to its right-hand side, and the stationarity
    (omega W u + L' z)_I relative to b_I.
    """
    inactive, u = _control_blocks(ops, active, data, mode)
    free = np.flatnonzero(inactive)
    L, W, M1 = _control_load(ops, mode)
    W_I = (data.omega * W[free][:, free]).tocsc()

    starts = u[:, None]  # u_I = 0, then the start if it has inactive values
    if u_start is not None and np.any(np.asarray(u_start, dtype=float)[free]):
        start = u.copy()
        start[free] = np.asarray(u_start, dtype=float)[free]
        starts = np.stack([u, start], axis=1)
    y, z = _state_adjoint(ops, ops.F[:, None] + L @ starts, ops.Yd[:, None], refined)
    gradient = _gradient(ops, mode, data.omega, starts, z)[free]
    b = -gradient[:, 0]
    last = -1 if b.any() else 0  # a zero b is solved by u_I = 0

    def step(d):
        v = np.zeros(u.size)
        v[free] = d
        w, s = _state_adjoint(ops, L @ v, 0.0, refined)
        return W_I @ d + (L.T @ s)[free], w, s

    precond = None
    if free.size:
        weight = Factorization(W_I)
        precond = weight.solve if refined else weight.bare_solve
    rtol = 1e-2 * _SOLVE_TOL
    (x, y, z), iterations, residual = _pcg(
        step, b, -gradient[:, last], precond,
        (starts[free, last].copy(), y[:, last].copy(), z[:, last].copy()), rtol, CG_MAX_ITER)
    if not residual <= rtol:
        raise ReducedSolveError(
            f"CG on {free.size} inactive controls stopped after {iterations} "
            f"iterations at reduced residual {residual:.3e} (tolerance {rtol:.0e})")
    u[free] = x
    factor = _reduction(ops).factor
    certificate = (factor.residual(y, ops.F + L @ u),
                   factor.residual(z, ops.M_Omega @ y - ops.Yd, trans="T"),
                   _relative(_gradient(ops, mode, data.omega, u, z)[free], b))
    Ainv = _flux_block_inverse(ops)
    parts = {"q": Ainv @ (M1 @ u - ops.B @ y), "y": y, "p": Ainv @ (ops.B @ z), "z": z,
             "cg": CgReport(iterations, residual, *certificate, refined)}
    if mode == "full":
        parts["u"] = u
    return parts


def solve_optimality_system(ops, active, data=None, mode="full",
                            strategy="reduced", u_start=None):
    """Solve one active-set linearization of the optimality system.

    strategy
        "reduced" (the default) solves for the inactive controls by CG on
        the factor of S, to a relative reduced residual of
        ``_SOLVE_TOL``/100, starting from ``u_start`` (a control vector,
        default 0), with bare solves and one certificate of the step, and
        re-runs the step with refined solves if the certificate fails or
        the bare pass raises (see ``_reduced_solve``); "condensed" factors
        the flux-eliminated system and "monolithic" the coupled block
        matrix, both direct (relative residual ``_SOLVE_TOL``) and kept as
        references.

    Returns the parts dict with keys q, y, p, z and, in full mode, u; the
    reduced path adds "cg", a ``CgReport`` of its iteration and
    certificate.
    """
    if data is None:
        data = ops.data
    if strategy == "reduced":
        try:
            parts = _reduced_solve(ops, active, data, mode, u_start, refined=False)
            if parts["cg"].certified:
                return parts
        except SingularSystemError:  # non-finite entries, or CG missed its tolerance
            pass
        return _reduced_solve(ops, active, data, mode, u_start, refined=True)
    if strategy == "condensed":
        system = condense_kkt(ops, active, data=data, mode=mode)
        return system.recover(direct_solve(system.matrix, system.rhs, system.order))
    if strategy == "monolithic":
        system = compose_kkt(ops, active, data, mode=mode)
        return system.split(direct_solve(system.matrix, system.rhs, system.order))
    raise ValueError(f"unknown solve strategy: {strategy!r}")
