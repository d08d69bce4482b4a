"""Every name the benchmark harness and the package export resolves.

The harness in ``perfbench/`` patches ``ldgcontrol`` entry points by name
(``perfbench/tracer.py``) and calls others directly; it runs outside
``tests/``, so a deleted or renamed entry point, or a changed signature,
would otherwise go unnoticed until a benchmark run.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import numpy as np
import pytest

import ldgcontrol

PACKAGE = Path(ldgcontrol.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_resolve(monkeypatch):
    # import the harness read-only: no bytecode cache is written next to it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    patches = tracer.Tracer().patches()
    assert patches
    for module, attr, _replacement in patches:
        assert module.__name__.startswith("ldgcontrol.")
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(ldgcontrol.__path__):
        module = importlib.import_module(f"ldgcontrol.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def _package_imports():
    """module -> the package modules it imports: every relative import, at
    module level or inside a function, is an edge."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        edges = graph.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(alias.name for alias in node.names)
    return graph


def test_package_imports_form_no_cycle():
    # ldg builds a level and linsolve solves it, so ldg must not import
    # linsolve back
    graph = _package_imports()
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        # graphlib lists each module before a module that imports it
        raise AssertionError(f"import cycle: {' -> '.join(reversed(exc.args[1]))}") from None


def test_solver_layers_do_not_import_the_study_layer():
    # geometry -> spaces -> ldg -> linsolve -> control solve a level;
    # analysis and cli measure and drive studies on top of them
    graph = _package_imports()
    upward = {f"{module} imports {', '.join(sorted(graph[module] & {'analysis', 'cli'}))}"
              for module in ("geometry", "spaces", "ldg", "linsolve", "control")
              if graph[module] & {"analysis", "cli"}}
    assert not upward, sorted(upward)


def _references(path):
    """(name, top-level definition) of every ast.Name and ast.Attribute in
    a file; the definition is None outside any top-level def or class.
    Docstrings and comments hold no such node."""
    for top in ast.parse(path.read_text(), str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def _uses():
    """name -> {(module, top-level definition)} that reference it, over the
    package and the benchmark harness (module "perfbench"); tests do not
    count."""
    uses = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, owner in _references(path):
            uses.setdefault(name, set()).add((path.stem, owner))
    for path in sorted(PERFBENCH.glob("*.py")):
        for name, owner in _references(path):
            uses.setdefault(name, set()).add(("perfbench", owner))
    return uses


def test_every_exported_name_has_a_caller():
    # an exported name is reached from another definition of the package
    # or from the benchmark harness; what only tests call lives in tests/
    uses = _uses()
    unused = [f"{info.name}.{name}"
              for info in pkgutil.iter_modules(ldgcontrol.__path__)
              for name in getattr(importlib.import_module(f"ldgcontrol.{info.name}"), "__all__", ())
              if not uses.get(name, set()) - {(info.name, name)}]
    assert not unused, f"exported but never called: {unused}"


def test_every_top_level_definition_has_a_caller():
    # the same for every module-level def and class, private ones too
    uses = _uses()
    unused = [f"{path.stem}.{top.name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for top in ast.parse(path.read_text(), str(path)).body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              and not uses.get(top.name, set()) - {(path.stem, top.name)}]
    assert not unused, f"defined but never called: {unused}"


def _harness_uses(path):
    """The ``ldgcontrol`` names a harness file imports, and the objects its
    attribute chains and calls reach through them.

    The file is parsed, not imported, so nothing is written next to it.
    Its ``from ldgcontrol... import`` statements run here as written (an
    unresolvable name fails them).  Yields (where, object, call) for every
    attribute chain rooted at an imported name and every call of one;
    ``call`` is the ast.Call, or None for a plain attribute chain.
    """
    tree = ast.parse(path.read_text(), str(path))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ldgcontrol":
            exec(compile(ast.Module([node], []), str(path), "exec"), names)

    def target(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = target(node.value)
            if base is not None:
                assert hasattr(base, node.attr), f"{path.name}:{node.lineno} {ast.unparse(node)}"
                return getattr(base, node.attr)
        return None

    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Call)):
            obj = target(node.func if isinstance(node, ast.Call) else node)
            if obj is not None:
                yield (f"{path.name}:{node.lineno} {ast.unparse(node)}", obj,
                       node if isinstance(node, ast.Call) else None)


def test_harness_imports_and_call_shapes_bind():
    # every call the study driver and the harness tests make into
    # ldgcontrol binds to the signature it reaches, e.g.
    # assemble_forms(mesh, data=d), pdas_solve(ops, d, mode=m, strategy=s),
    # compose_kkt(ops, a, d, mode=m) and reduced_gradient(ops, sol)
    from ldgcontrol.control import pdas_solve, reduced_gradient
    from ldgcontrol.ldg import assemble_forms
    from ldgcontrol.linsolve import compose_kkt

    bound = set()
    for name in ("study.py", "test_harness.py"):
        for where, obj, call in _harness_uses(PERFBENCH / name):
            if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                    or any(k.arg is None for k in call.keywords):
                continue
            try:
                inspect.signature(obj).bind(*call.args, **{k.arg: k for k in call.keywords})
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from None
            bound.add(obj)
    assert {assemble_forms, pdas_solve, compose_kkt, reduced_gradient} <= bound


def test_condensed_path_looks_up_the_elimination_by_name(monkeypatch):
    # the harness breaks the condensed solve by patching
    # linsolve._condensation_operators (perfbench/test_harness.py), so it
    # must return (Ainv, AinvB, S, Mt) with S the eliminated S, and
    # condense_kkt must reach it through the module global
    from ldgcontrol import linsolve
    from ldgcontrol.analysis import example2_data
    from ldgcontrol.control import ActiveSetState
    from ldgcontrol.geometry import build_unit_square_mesh
    from ldgcontrol.ldg import assemble_forms

    data = example2_data()
    ops = assemble_forms(build_unit_square_mesh(4), data)
    Ainv, AinvB, S, Mt = linsolve._condensation_operators(ops)
    assert (S != linsolve._eliminate(assemble_forms(ops.mesh, data))[0]).nnz == 0
    assert AinvB.shape == ops.B.shape and (AinvB != Ainv @ ops.B).nnz == 0
    n = ops.M_Gamma.shape[0]
    active = ActiveSetState(np.zeros(n, dtype=bool), np.arange(n) % 3 == 0)
    matrix = linsolve.condense_kkt(ops, active, data).matrix
    operators = linsolve._condensation_operators

    def wrong_operators(ops):
        Ainv, AinvB, S, Mt = operators(ops)
        return Ainv, AinvB, 1.001 * S, Mt
    monkeypatch.setattr(linsolve, "_condensation_operators", wrong_operators)
    assert (linsolve.condense_kkt(ops, active, data).matrix != matrix).nnz > 0


def test_traced_blocks_resolve_after_assembly():
    # perfbench/tracer.py reads A, B, C, M1 and M2 (their nnz) right after
    # assemble_forms; A is built on read and the rest are stored, with the
    # nonzeros they had when all five were stored
    from ldgcontrol.analysis import example2_data
    from ldgcontrol.geometry import build_unit_square_mesh
    from ldgcontrol.ldg import assemble_forms

    ops = assemble_forms(build_unit_square_mesh(4), example2_data())
    assert ops.num_elements == 32
    nnz = {name: getattr(ops, name).nnz for name in ("A", "B", "C", "M1", "M2")}
    assert nnz == {"A": 576, "B": 904, "C": 608, "M1": 64, "M2": 64}


@pytest.mark.parametrize("mode", ["full", "variational"])
def test_certificate_calls_work_on_kept_solutions(mode):
    # perfbench/study.py checks every solution of a study by the two calls
    # below, after the study has dropped each level's operators: the
    # monolithic residual of the solution and its reduced gradient
    from ldgcontrol.cli import RunConfig, run_example
    from ldgcontrol.control import reduced_gradient
    from ldgcontrol.linsolve import compose_kkt

    kept = []
    run_example(RunConfig(example=2, levels=(32, 128), reference=512, mode=mode),
                keep_solutions=kept)
    assert [m for m, *_ in kept] == [32, 128]
    for *_, sol in kept:
        system = compose_kkt(sol.ops, sol.active, sol.data, mode=sol.mode)
        x = np.empty(system.dimension)
        for name, block in system.slices.items():
            x[block] = getattr(sol, name).coefficients
        residual = np.linalg.norm(system.matrix @ x - system.rhs) / np.linalg.norm(system.rhs)
        assert residual <= 1e-8
        grad = reduced_gradient(sol.ops, sol)
        assert np.array_equal(grad.nodal if mode == "full" else grad.at_quadrature,
                              sol.multiplier)
