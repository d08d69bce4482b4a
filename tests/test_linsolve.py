"""Tests of the direct solver and the optimality-system solve paths."""

import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ldgcontrol import linsolve
from ldgcontrol.analysis import (
    error_l2_boundary,
    example2_data,
    example3_data,
    example3_mesh,
    manufactured_example1,
)
from ldgcontrol.control import pdas_solve
from ldgcontrol.geometry import (
    Mesh,
    build_unit_square_mesh,
    _dissection_paths,
    dissection_order,
    refine_uniform,
)
from ldgcontrol.ldg import assemble_forms
from ldgcontrol.linsolve import (
    Factorization,
    ReducedSolveError,
    SingularSystemError,
    compose_kkt,
    condense_kkt,
    direct_solve,
    solve_optimality_system,
    solve_state,
)
from ldgcontrol.spaces import DiscreteField, DofMap
from oracles import solve_adjoint


def build_ops(data, n):
    mesh = build_unit_square_mesh(n)
    return assemble_forms(mesh, data)


@pytest.fixture(scope="module")
def ex1_ops():
    case = manufactured_example1()
    return case, build_ops(case.problem_data(), 4)


@pytest.fixture(scope="module")
def ex2_ops_128():
    data = example2_data()
    return data, build_ops(data, 8)


def no_active(ops, mode):
    n = ops.M_Gamma.shape[0] if mode == "full" else ops.bq.num_points
    return np.zeros(n, bool), np.zeros(n, bool)


# ------------------------------------------------------------ direct solve


def test_direct_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    x = direct_solve(sp.eye(3, format="csc"), b)
    assert np.abs(x - b).max() < 1e-14


def test_direct_solve_diagonal():
    A = sp.diags([2.0, 4.0]).tocsc()
    x = direct_solve(A, np.array([2.0, 8.0]))
    assert np.abs(x - [1.0, 2.0]).max() < 1e-14


def test_direct_solve_spd_residual():
    rng = np.random.default_rng(7)
    G = rng.standard_normal((50, 50))
    A = sp.csc_matrix(G.T @ G + np.eye(50))
    x_true = rng.standard_normal(50)
    b = A @ x_true
    x = direct_solve(A, b)
    res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    assert res <= 1e-10
    assert np.abs(x - x_true).max() < 1e-9


def test_direct_solve_singular_raises():
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularSystemError):
        direct_solve(A, np.array([1.0, 1.0]))


def test_direct_solve_shape_mismatch():
    with pytest.raises(ValueError):
        direct_solve(sp.eye(3, format="csc"), np.ones(4))


def test_direct_solve_in_a_given_order():
    rng = np.random.default_rng(3)
    A = sp.random(40, 40, density=0.1, random_state=4) + 10.0 * sp.eye(40)
    order = rng.permutation(40)
    b = rng.standard_normal(40)
    x = direct_solve(A, b, order)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    with pytest.raises(ValueError, match="permutation"):
        Factorization(A, np.zeros(40, dtype=int))


def test_zero_right_hand_side_needs_no_solve(monkeypatch):
    factor = Factorization(sp.diags([2.0, 4.0]))

    class NoSolve:
        nnz = factor.fill

        def solve(self, b, trans="N"):
            raise AssertionError("LU solve called for b = 0")
    monkeypatch.setattr(factor, "lu", NoSolve())
    assert np.array_equal(factor.solve(np.zeros(2)), np.zeros(2))


def test_refinement_counts_sweeps_then_reports_the_stall(monkeypatch):
    rng = np.random.default_rng(5)
    A = sp.csc_matrix(rng.standard_normal((30, 30)) + 30.0 * np.eye(30))
    factor = Factorization(A)
    assert factor.solve(rng.standard_normal(30)) is not None
    assert factor.sweeps == 0

    class Perturbed:
        # every LU solve off by 1 %: each sweep shrinks the residual only
        # by a factor of 100, so three sweeps cannot reach 1e-10
        def __init__(self, lu):
            self.lu = lu
            self.nnz = lu.nnz

        def solve(self, b, trans="N"):
            return 1.01 * self.lu.solve(b, trans=trans)
    monkeypatch.setattr(factor, "lu", Perturbed(factor.lu))
    with pytest.raises(SingularSystemError, match="refinement stalled"):
        factor.solve(rng.standard_normal(30))
    assert factor.sweeps == 3


def test_columns_are_solved_and_refined_each_on_their_own(monkeypatch):
    rng = np.random.default_rng(6)
    A = sp.csc_matrix(rng.standard_normal((30, 30)) + 30.0 * np.eye(30))
    factor = Factorization(A)
    b = rng.standard_normal((30, 3))
    b[:, 1] = 0.0
    for trans, op in (("N", A), ("T", A.T)):
        x = factor.solve(b, trans=trans)
        assert x.shape == (30, 3) and not x[:, 1].any()
        for j in (0, 2):
            assert np.linalg.norm(op @ x[:, j] - b[:, j]) <= 1e-10 * np.linalg.norm(b[:, j])
            assert np.allclose(x[:, j], factor.solve(b[:, j], trans=trans), rtol=0, atol=1e-14)
    assert factor.sweeps == 0

    class Perturbed:
        # a two-column LU solve off by 1 % in its first column: that column
        # alone is refined, by a one-column solve
        def __init__(self, lu):
            self.lu = lu
            self.nnz = lu.nnz

        def solve(self, c, trans="N"):
            x = self.lu.solve(c, trans=trans)
            if x.ndim == 2 and x.shape[1] == 2:
                x[:, 0] *= 1.01
            return x
    monkeypatch.setattr(factor, "lu", Perturbed(factor.lu))
    x = factor.solve(b[:, ::2])
    assert factor.sweeps == 1
    assert np.linalg.norm(A @ x - b[:, ::2], axis=0).max() <= 1e-10 * np.linalg.norm(b)


def chain_mesh_2048():
    mesh = build_unit_square_mesh(4)
    for _ in range(3):
        mesh = refine_uniform(mesh)
    return mesh


@pytest.fixture(scope="module")
def ex2_ops_2048():
    mesh = chain_mesh_2048()
    return assemble_forms(mesh, example2_data())


# ------------------------------------------------ nested-dissection order


def test_dissection_order_is_a_permutation(ex2_ops_2048):
    factor = linsolve._reduction(ex2_ops_2048).factor
    order, _ = dissection_order(linsolve._node_points(ex2_ops_2048.mesh), factor.matrix)
    assert np.array_equal(np.sort(order), np.arange(3 * ex2_ops_2048.num_elements))
    assert np.array_equal(factor.order, order)


def assert_halves_uncoupled(paths, S):
    """At every tree level, no entry of S couples the two halves of a node."""
    rows, cols = S.nonzero()
    prefix = np.zeros(len(paths), dtype=np.int64)  # a node's path, in base 3
    for digits in paths.T:
        same = prefix[rows] == prefix[cols]  # a point placed above has a 2 in it
        assert not np.any(same & (digits[rows] + digits[cols] == 1))
        prefix = 3 * prefix + digits


def ex2_level(mesh):
    ops = assemble_forms(mesh, example2_data())
    return linsolve._node_points(mesh), linsolve._eliminate(ops)[0]


@pytest.fixture(scope="module")
def ex2_tree_512():
    mesh = chain_mesh_2048().parent_mesh
    return mesh, dissection_order(*ex2_level(mesh))[1]


def test_top_level_halves_are_uncoupled_in_S(ex2_tree_512, ex2_ops_2048):
    # every tree level: fresh at 2048 elements, and inherited from 512
    # elements one level up and two levels up (the skip of the example-2
    # reference over 2048)
    coarse, tree = ex2_tree_512
    fine = refine_uniform(coarse)
    # the smallest half and the largest separator of the root: 2500 and 64
    # points at 2048 elements, four times and twice that at 8192
    for mesh, ancestor, half, separator in ((ex2_ops_2048.mesh, None, 2500, 64),
                                            (fine, tree, 2500, 64),
                                            (refine_uniform(fine), tree, 10000, 128)):
        points, S = ex2_level(mesh)
        paths, _, derived = _dissection_paths(points, S, ancestor)
        top = paths[:, 0]
        assert (top == 0).sum() > half and (top == 1).sum() > half
        assert 0 < (top == 2).sum() <= separator
        assert_halves_uncoupled(paths, S)
        assert len(derived.axis) == paths.shape[1]
        if ancestor is not None:  # the nodes that descend from cut ones keep their directions
            pairs = np.array([[0, 0]])  # (ancestor node, derived node) at each level
            for level in range(len(ancestor.axis) - 1):
                cut = ancestor.axis[level][pairs[:, 0]] >= 0
                assert np.array_equal(derived.axis[level][pairs[cut, 1]],
                                      ancestor.axis[level][pairs[cut, 0]])
                pairs = np.stack([ancestor.child[level][pairs[cut, 0]].ravel(),
                                  derived.child[level][pairs[cut, 1]].ravel()], axis=1)
                pairs = pairs[(pairs >= 0).all(axis=1)]
            assert pairs.size


@pytest.mark.parametrize("case", [
    pytest.param("ex1", id="ex1-eps1e-6"),
    pytest.param("ex2", id="ex2"),
    pytest.param("ex3", id="ex3-diag2"),
])
def test_inherited_fill_matches_the_fresh_order(case):
    # 512 -> 2048 elements on the refinement chain: the level below orders
    # first, the finer level derives its tree from that one
    if case == "ex3":
        coarse, data = example3_mesh(4, "diag2"), example3_data()
    else:
        coarse = chain_mesh_2048().parent_mesh
        data = (manufactured_example1(epsilon=1e-6).problem_data() if case == "ex1"
                else example2_data())
    linsolve._reduction(assemble_forms(coarse, data)).factor
    assert coarse.dissection is not None
    mesh = refine_uniform(coarse)
    assert mesh.num_elements == 2048
    ops = assemble_forms(mesh, data)
    inherited = linsolve._reduction(ops).factor
    fresh, _ = dissection_order(linsolve._node_points(mesh), inherited.matrix)
    assert not np.array_equal(inherited.order, fresh)
    assert inherited.fill <= 1.05 * Factorization(inherited.matrix, fresh).fill
    assert mesh.dissection is not None


def order_digest(order):
    return hashlib.sha1(np.asarray(order, dtype="<i8").tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("which", ["square", "relabelled", "unordered-chain"])
def test_mesh_without_an_ordered_ancestor_is_ordered_afresh(which, ex2_ops_2048):
    if which == "square":
        mesh = build_unit_square_mesh(8)
    elif which == "relabelled":
        base = ex2_ops_2048.mesh
        mesh = Mesh(base.vertices, base.triangles[np.random.default_rng(5).permutation(2048)])
    else:  # refined from meshes that were never ordered
        mesh = refine_uniform(refine_uniform(build_unit_square_mesh(4)))
    ops = assemble_forms(mesh, example2_data())
    points, S = linsolve._node_points(mesh), linsolve._eliminate(assemble_forms(mesh, ops.data))[0]
    order = linsolve._reduction(ops).factor.order
    assert np.array_equal(order, dissection_order(points, S)[0])
    # the order of the nested dissection before trees were inherited
    expected = {"square": "c29ff968f9fa317a", "unordered-chain": "b3b1bd09188170a2"}
    if which in expected:
        assert order_digest(order) == expected[which]


def test_state_fill_does_not_depend_on_element_numbering(ex2_ops_2048):
    mesh = ex2_ops_2048.mesh
    perm = np.random.default_rng(11).permutation(mesh.num_elements)
    relabelled = Mesh(mesh.vertices, mesh.triangles[perm])
    ops = assemble_forms(relabelled, example2_data())
    fill = linsolve._reduction(ex2_ops_2048).factor.fill
    assert abs(linsolve._reduction(ops).factor.fill - fill) <= 0.1 * fill


@pytest.mark.parametrize("case", [
    pytest.param("ex1", id="ex1-eps1e-6"),
    pytest.param("ex2", id="ex2"),
    pytest.param("ex3", id="ex3-diag2"),
])
def test_dissection_fill_against_a_plain_factor(case):
    # measured at 2048 elements: 0.31 (ex1), 0.35 (ex2) and 0.47 (ex3) of
    # the fill of scipy's default splu (COLAMD with partial pivoting)
    if case == "ex3":
        mesh, data = example3_mesh(5, "diag2"), example3_data()
    else:
        mesh = chain_mesh_2048()
        data = (manufactured_example1(epsilon=1e-6).problem_data() if case == "ex1"
                else example2_data())
    assert mesh.num_elements == 2048
    factor = linsolve._reduction(assemble_forms(mesh, data)).factor
    assert factor.fill <= 0.5 * spla.splu(factor.matrix.tocsc()).nnz


def test_a_factored_level_holds_one_copy_of_S(ex2_ops_2048):
    # the state factor keeps the one copy of S it factors, S[order][:, order],
    # next to Mt in the level's reduction; S gathered back from it is the
    # eliminated S, bit for bit
    mesh, data = ex2_ops_2048.mesh, example2_data()
    S = linsolve._eliminate(assemble_forms(mesh, data))[0]
    ops = assemble_forms(mesh, data)
    factor = linsolve._reduction(ops).factor
    assert ops.reduction.factor is factor
    assert [name for name, m in vars(ops.reduction).items() if sp.issparse(m)] == ["Mt"]
    held = [m for m in vars(factor).values() if sp.issparse(m)]
    assert len(held) == 1 and held[0] is factor.permuted
    assert factor.permuted.format == "csc"
    expected = S[factor.order][:, factor.order].tocsc()
    for ours, theirs in ((factor.permuted, expected), (factor.matrix, S)):
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours, part), getattr(theirs, part)), part
    assert Factorization(S.tocoo()).permuted.format == "csc"
    assert Factorization(np.eye(3)).permuted.format == "csc"


def test_permuted_factor_is_bit_identical_to_the_gathered_one(ex2_ops_2048):
    # one row gather and relabelled indices give the factor of the double
    # gather matrix[order][:, order], to the last bit, for CSR and CSC input
    factor = linsolve._reduction(ex2_ops_2048).factor
    S, order = factor.matrix, factor.order
    reference = spla.splu(S[order][:, order].tocsc(), permc_spec="NATURAL",
                          diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    for matrix in (S, S.tocsc()):
        lu = Factorization(matrix, order).lu
        for ours, theirs in ((lu.L, reference.L), (lu.U, reference.U)):
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(ours, part), getattr(theirs, part))


def test_state_factor_solves_without_refinement(ex2_ops_2048):
    # the nested-dissection factor of S, with diagonal pivots only, solves
    # S and S' to the 1e-10 contract without a refinement sweep
    factor = linsolve._reduction(ex2_ops_2048).factor
    S = factor.matrix
    rng = np.random.default_rng(2)
    for trans, op in (("N", S), ("T", S.T)):
        b = rng.standard_normal(S.shape[0])
        x = factor.solve(b, trans=trans)
        assert np.linalg.norm(op @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert factor.sweeps == 0


# ----------------------------------------------------- KKT composition


def test_fully_pinned_control_reduces_to_state_solve(ex1_ops):
    # pin every control DOF to a zero lower bound: the optimality solve
    # must return exactly the forward solution with homogeneous control
    case, ops = ex1_ops
    data = case.problem_data(u_lower=0.0)
    n_u = ops.M_Gamma.shape[0]
    active = (np.ones(n_u, bool), np.zeros(n_u, bool))
    parts = solve_optimality_system(ops, active, data, mode="full")
    assert np.abs(parts["u"]).max() == 0.0
    u0 = DiscreteField(DofMap(ops.mesh, "boundary-edge"), np.zeros(n_u))
    y_ref, q_ref = solve_state(ops, u0)
    assert np.abs(parts["y"] - y_ref.coefficients).max() < 1e-11
    assert np.abs(parts["q"] - q_ref.coefficients).max() < 1e-11


def test_unconstrained_solution_is_stationary(ex1_ops):
    case, ops = ex1_ops
    data = ops.data
    parts = solve_optimality_system(ops, no_active(ops, "full"), data, mode="full")
    g = (data.omega * (ops.M_Gamma @ parts["u"])
         + ops.M1.T @ parts["p"] + ops.M2.T @ parts["z"])
    scale = max(1.0, np.abs(parts["u"]).max())
    assert np.abs(g).max() < 1e-9 * scale


def test_unconstrained_errors_match_expected_scale(ex1_ops):
    # quantitative anchor on the coarse mesh of the smooth example
    case, ops = ex1_ops
    parts = solve_optimality_system(ops, no_active(ops, "full"), ops.data, mode="full")
    u_h = DiscreteField(DofMap(ops.mesh, "boundary-edge"), parts["u"])
    err_u = error_l2_boundary(u_h, case.u)
    assert 0.5 * 4.290e-02 < err_u < 2.0 * 4.290e-02


def test_elimination_matches_reduced_stationary_point():
    # dual route: probe the affine control-to-gradient map with repeated
    # forward/adjoint solves, solve the reduced normal equations, and
    # compare against the coupled saddle-point solve
    case = manufactured_example1()
    data = case.problem_data()
    ops = build_ops(data, 2)
    n_u = ops.M_Gamma.shape[0]
    dofmap = DofMap(ops.mesh, "boundary-edge")

    def gradient_of(u_vec):
        u_field = DiscreteField(dofmap, u_vec)
        y, _ = solve_state(ops, u_field)
        # adjoint load (y_h - y_d, v) assembled the same way the coupled
        # system assembles it: mass-weighted coefficients minus the data load
        z, p = solve_adjoint(ops, load_vector=ops.M_Omega @ y.coefficients - ops.Yd)
        return (data.omega * (ops.M_Gamma @ u_vec)
                + ops.M1.T @ p.coefficients + ops.M2.T @ z.coefficients)

    g0 = gradient_of(np.zeros(n_u))
    H = np.empty((n_u, n_u))
    for j in range(n_u):
        e = np.zeros(n_u)
        e[j] = 1.0
        H[:, j] = gradient_of(e) - g0
    u_star = np.linalg.solve(H, -g0)

    parts = solve_optimality_system(ops, no_active(ops, "full"), data, mode="full")
    scale = max(1.0, np.abs(u_star).max())
    assert np.abs(parts["u"] - u_star).max() < 1e-8 * scale

    u_field = DiscreteField(dofmap, u_star)
    y_star, _ = solve_state(ops, u_field)
    assert np.abs(parts["y"] - y_star.coefficients).max() < 1e-8


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_condensed_matches_monolithic_unconstrained(mode, ex1_ops):
    case, ops = ex1_ops
    active = no_active(ops, mode)
    pm = solve_optimality_system(ops, active, ops.data, mode=mode,
                                 strategy="monolithic")
    pc = solve_optimality_system(ops, active, ops.data, mode=mode,
                                 strategy="condensed")
    for name in pm:
        scale = max(1.0, np.abs(pm[name]).max())
        assert np.abs(pm[name] - pc[name]).max() < 1e-9 * scale, name


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_condensed_matches_monolithic_with_active_bounds(mode, ex2_ops_128):
    # realistic active set from the bound-constrained example
    data, ops = ex2_ops_128
    sol = pdas_solve(ops, data, mode=mode, strategy="monolithic")
    assert sol.active.upper.any()
    active = (sol.active.lower, sol.active.upper)
    pm = solve_optimality_system(ops, active, data, mode=mode,
                                 strategy="monolithic")
    pc = solve_optimality_system(ops, active, data, mode=mode,
                                 strategy="condensed")
    for name in pm:
        scale = max(1.0, np.abs(pm[name]).max())
        assert np.abs(pm[name] - pc[name]).max() < 1e-9 * scale, name


def test_active_controls_hold_their_bounds_exactly(ex2_ops_128):
    # converged mixed active set of the constrained example: the default
    # path substitutes the active controls, so they equal the bound bit
    # for bit while the inactive ones still match the reference solve
    data, ops = ex2_ops_128
    sol = pdas_solve(ops, data, mode="full", strategy="monolithic")
    lower, upper = sol.active.lower, sol.active.upper
    assert upper.any() and sol.active.inactive.any()
    parts = solve_optimality_system(ops, (lower, upper), data, mode="full")
    assert np.all(parts["u"][upper] == data.u_upper)
    assert np.all(parts["u"][lower] == data.u_lower)
    ref = solve_optimality_system(ops, (lower, upper), data, mode="full",
                                  strategy="monolithic")
    inactive = sol.active.inactive
    assert np.abs(parts["u"][inactive] - ref["u"][inactive]).max() < 1e-9


def assert_reduced_matches_monolithic(ops, active, data, mode):
    # from the default zero start and from a random warm start
    pm = solve_optimality_system(ops, active, data, mode=mode, strategy="monolithic")
    n = active[0].size
    for u_start in (None, np.random.default_rng(3).uniform(-1.0, 1.0, n)):
        pr = solve_optimality_system(ops, active, data, mode=mode, u_start=u_start)
        assert sorted(pm) == sorted(k for k in pr if k != "cg")
        for name in pm:
            scale = max(1.0, np.abs(pm[name]).max())
            assert np.abs(pm[name] - pr[name]).max() <= 1e-10 * scale, name
        assert pr["cg"].iterations > 0


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_reduced_matches_monolithic_unconstrained(mode, ex1_ops):
    case, ops = ex1_ops
    assert_reduced_matches_monolithic(ops, no_active(ops, mode), ops.data, mode)


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_reduced_matches_monolithic_with_active_bounds(mode, ex2_ops_128):
    data, ops = ex2_ops_128
    sol = pdas_solve(ops, data, mode=mode, strategy="monolithic")
    assert sol.active.upper.any() and sol.active.inactive.any()
    assert_reduced_matches_monolithic(ops, (sol.active.lower, sol.active.upper), data, mode)


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_reduced_matches_monolithic_on_polygon_mesh(mode):
    # skewed quadrilateral, lower bound only
    data = example3_data()
    mesh = example3_mesh(2)
    ops = assemble_forms(mesh, data)
    sol = pdas_solve(ops, data, mode=mode, strategy="monolithic")
    assert sol.active.lower.any() and sol.active.inactive.any()
    assert_reduced_matches_monolithic(ops, (sol.active.lower, sol.active.upper), data, mode)


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_pdas_reduced_and_monolithic_take_the_same_steps(mode, ex2_ops_128):
    data, ops = ex2_ops_128
    ref = pdas_solve(ops, data, mode=mode, strategy="monolithic")
    sol = pdas_solve(ops, data, mode=mode)
    assert sol.iterations == ref.iterations > 1
    assert sol.active.same_as(ref.active)
    assert [(s.lower, s.upper) for s in sol.log] == [(s.lower, s.upper) for s in ref.log]


def test_reduced_solve_raises_when_cg_misses_its_tolerance(ex2_ops_128, monkeypatch):
    data, ops = ex2_ops_128

    def stalled_cg(apply, b, r, precond, x, rtol, maxiter):
        return x, maxiter, 3e-4
    monkeypatch.setattr(linsolve, "_pcg", stalled_cg)
    with pytest.raises(ReducedSolveError, match="reduced residual 3.000e-04"):
        solve_optimality_system(ops, no_active(ops, "full"), data)
    assert issubclass(ReducedSolveError, SingularSystemError)


def test_reduced_step_makes_two_plus_two_solves_per_cg_iteration(ex2_ops_128, monkeypatch):
    # each PDAS step: one two-column solve with S and one with S' for the
    # right-hand side and the start residual, then one of each per CG
    # iteration; the state and adjoint ride along with the iterate
    data, ops = ex2_ops_128
    factor = linsolve._reduction(ops).factor
    columns = []
    solve = factor.solve

    def counted(b, trans="N"):
        columns[-1].append(1 if np.ndim(b) == 1 else np.shape(b)[1])
        return solve(b, trans=trans)
    reduced = linsolve._reduced_solve

    def step(*args):
        columns.append([])
        return reduced(*args)
    monkeypatch.setattr(factor, "solve", counted)
    monkeypatch.setattr(linsolve, "_reduced_solve", step)
    sol = pdas_solve(ops, data, u0=np.full(ops.M_Gamma.shape[0], 0.1))
    assert len(columns) == sol.iterations == len(sol.log) >= 2
    for record, cols in zip(sol.log, columns):
        assert record.cg_iterations > 0
        assert cols == [2, 2] + [1] * (2 * record.cg_iterations)


def test_condensed_solution_satisfies_coupled_system(ex2_ops_128):
    data, ops = ex2_ops_128
    active = no_active(ops, "full")
    parts = solve_optimality_system(ops, active, data, mode="full",
                                    strategy="condensed")
    system = compose_kkt(ops, active, data, mode="full")
    x = np.concatenate([parts[k] for k in ("q", "y", "p", "z", "u")])
    res = np.linalg.norm(system.matrix @ x - system.rhs)
    assert res / np.linalg.norm(system.rhs) < 1e-10


def test_condensed_reduced_dimension(ex1_ops):
    case, ops = ex1_ops
    full = compose_kkt(ops, no_active(ops, "full"), ops.data, mode="full")
    red = condense_kkt(ops, no_active(ops, "full"), ops.data, mode="full")
    nV = ops.M_Omega.shape[0]
    n_u = ops.M_Gamma.shape[0]
    assert red.dimension == 2 * nV + n_u
    assert full.dimension == red.dimension + 2 * ops.A.shape[0]


def test_active_mask_validation(ex1_ops):
    case, ops = ex1_ops
    data = ops.data
    n_u = ops.M_Gamma.shape[0]
    with pytest.raises(ValueError):
        compose_kkt(ops, (np.zeros(n_u - 1, bool), np.zeros(n_u, bool)), data)
    both = np.ones(n_u, bool)
    with pytest.raises(ValueError):
        compose_kkt(ops, (both, both),
                    case.problem_data(u_lower=0.0, u_upper=1.0))
    with pytest.raises(ValueError):
        # marking DOFs active at an unbounded side is inconsistent
        compose_kkt(ops, (both, np.zeros(n_u, bool)), data)


def test_unknown_mode_and_strategy_raise(ex1_ops):
    case, ops = ex1_ops
    active = no_active(ops, "full")
    with pytest.raises(ValueError):
        compose_kkt(ops, active, ops.data, mode="hybrid")
    with pytest.raises(ValueError):
        solve_optimality_system(ops, active, ops.data, strategy="iterative")


def test_a_solve_rejects_data_its_operators_were_not_assembled_with():
    # the blocks of ops carry epsilon = 1: solving them as epsilon = 0.01
    # would label an epsilon = 1 solution with the wrong sqrt(eps)
    ops = build_ops(example2_data(1.0), 4)
    with pytest.raises(ValueError, match="data.epsilon differs"):
        pdas_solve(ops, example2_data(0.01))
    # every path checks, and each assembled field is named
    changed = {"beta": (1.0, 0.5), "alpha": 2.0, "f": 1.0,
               "y_desired": lambda x: np.zeros(x.shape[:-1]), "c12_direction": (1.0, 0.0)}
    for name, value in changed.items():
        other = dataclasses.replace(ops.data, **{name: value})
        for strategy in ("reduced", "condensed", "monolithic"):
            with pytest.raises(ValueError, match=f"data.{name} differs"):
                solve_optimality_system(ops, no_active(ops, "full"), other,
                                        strategy=strategy)
    # callables compare by identity: an equal but separate target is another datum
    with pytest.raises(ValueError, match="data.y_desired differs"):
        pdas_solve(ops, example2_data(1.0))


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_a_solve_takes_its_own_omega_and_bounds(mode):
    # omega and the bounds enter no assembled block, so a solve may set them
    data = example2_data(1.0)
    ops = build_ops(data, 4)
    other = dataclasses.replace(data, omega=0.5, u_upper=0.1)
    sol = pdas_solve(ops, other, mode=mode)
    ref = pdas_solve(build_ops(other, 4), other, mode=mode)
    assert sol.data is other and sol.cost == ref.cost
    assert np.array_equal(sol.y.coefficients, ref.y.coefficients)


def test_block_system_split_covers_all_rows(ex1_ops):
    case, ops = ex1_ops
    system = compose_kkt(ops, no_active(ops, "full"), ops.data, mode="full")
    x = np.arange(float(system.dimension))
    parts = system.split(x)
    assert sorted(parts) == ["p", "q", "u", "y", "z"]
    assert sum(v.size for v in parts.values()) == system.dimension
