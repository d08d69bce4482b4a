"""Tests of the config-driven study driver and its file emitters."""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from ldgcontrol import cli, control, ldg, linsolve
from ldgcontrol.analysis import (
    ErrorReport,
    ErrorReportRow,
    closed_form_row,
    convergence_rate,
    reference_compare,
)
from ldgcontrol.cli import (
    CSV_HEADER,
    ConfigError,
    RunConfig,
    _example_data,
    _mesh_chain,
    _mesh_level,
    _solve_level,
    emit_fields,
    emit_table,
    main,
    run_example,
)
from ldgcontrol.geometry import build_unit_square_mesh
from ldgcontrol.ldg import assemble_forms
from ldgcontrol.linsolve import ReducedSolveError, SingularSystemError
from ldgcontrol.spaces import DiscreteField, SpaceSet


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


EX1_TWO_LEVELS = """
[problem]
example = 1

[study]
levels = 32,128

[output]
directory = {out}
markdown = true
"""


# --------------------------------------------------------------- config


def test_config_parses_defaults(tmp_path):
    cfg = RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 1
epsilon = 0.5

[study]
levels = 32,128,512
"""))
    assert cfg.example == 1 and cfg.epsilon == 0.5
    assert cfg.levels == (32, 128, 512)
    assert cfg.mode == "full" and cfg.csv and not cfg.vtk
    assert cfg.reference is None and cfg.pdas_max_iter == 50


def test_config_reads_values_as_written(tmp_path):
    # no '%' interpolation: a lone '%' is no error and '%%' stays two
    cfg = RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 1
[study]
levels = 32
[output]
directory = out%x%%
"""))
    assert cfg.directory == "out%x%%"


@pytest.mark.parametrize("example, levels, reference", [
    (1, (32,), None), (2, (32,), 128), (3, (12,), 48)])
def test_example_data_applies_overrides(example, levels, reference):
    # omega, the bounds and the C12 direction reach every example; example
    # 1 builds its closed-form case with the configured omega
    cfg = RunConfig(example=example, levels=levels, reference=reference, omega=2.0,
                    u_lower=-1.0, u_upper=3.0, c12_direction=(1.0, 2.0))
    data, case = _example_data(cfg)
    assert (data.omega, data.u_lower, data.u_upper) == (2.0, -1.0, 3.0)
    assert data.c12_direction == (1.0, 2.0)
    assert (case.omega == 2.0) if example == 1 else case is None
    plain, _ = _example_data(RunConfig(example=example, levels=levels, reference=reference))
    assert plain.omega == 1.0 and plain.c12_direction != (1.0, 2.0)


def test_config_rejects_decreasing_levels(tmp_path):
    with pytest.raises(ConfigError, match="increasing"):
        RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 1
[study]
levels = 128,32
"""))


def test_config_rejects_nonpositive_count(tmp_path):
    # 0 = 0 * 4^k for every k: the skewed-domain count must not loop on it
    with pytest.raises(ConfigError, match="positive"):
        RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 3
[study]
levels = 0, 12
reference = 48
"""))


def test_config_rejects_invalid_square_count(tmp_path):
    with pytest.raises(ConfigError, match="2 n\\^2"):
        RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 1
[study]
levels = 48
"""))


def test_config_requires_reference_for_example2(tmp_path):
    with pytest.raises(ConfigError, match="reference"):
        RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 2
[study]
levels = 32,128
"""))


def test_config_rejects_shallow_reference(tmp_path):
    with pytest.raises(ConfigError, match="deeper"):
        RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 2
[study]
levels = 32,128
reference = 128
"""))


def test_config_rejects_off_chain_reference(tmp_path):
    # 72 = 2 * 6^2 is a fine square count but is not reachable from 32
    # by uniform (x4) refinement
    with pytest.raises(ConfigError, match="chain"):
        RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 2
[study]
levels = 32
reference = 72
"""))


@pytest.mark.parametrize("study, message", [
    ("levels = 32, 128\nreference = 512", "no reference"),
    # 72 = 2 * 6^2 is a square count off the chain of 32
    ("levels = 32, 72", "chain"),
], ids=["reference", "off-chain"])
def test_main_rejects_example1_reference_and_off_chain_levels(tmp_path, capsys, study, message):
    cfg = write_config(tmp_path, f"[problem]\nexample = 1\n[study]\n{study}\n")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("body", [
    "[problem]\nexample = 1\nexample = 2\n",
    "[problem]\nexample = 1\n[problem]\nmode = full\n",
    "example = 1\n",
    "[problem]\nexample = 1\njunkline\n",
    "[problem]\nexample = 1\xe9\n",
], ids=["duplicate-option", "duplicate-section", "no-section-header", "bare-line",
        "not-utf8"])
def test_run_reports_a_malformed_ini_as_a_config_error(tmp_path, body):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(body.encode("latin-1"))  # the last file's byte 0xe9 is no UTF-8
    result = _cli(tmp_path, "run", cfg)
    assert result.returncode == 1
    assert result.stderr.startswith("config error:")
    assert "Traceback" not in result.stderr


def _cli(cwd, *args):
    """``python -m ldgcontrol.cli *args`` in a fresh interpreter, run in ``cwd``."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "ldgcontrol.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, cwd=cwd)


@pytest.mark.parametrize("command", [
    ["dump-mesh", "--elements", "32", "--output", "missing/m.txt"],
    ["run", "run.ini"],  # solves the study, then meets the directory out/table.csv
], ids=["dump-mesh-into-a-missing-directory", "run-onto-a-directory"])
def test_main_reports_an_unwritable_output(tmp_path, command):
    (tmp_path / "out" / "table.csv").mkdir(parents=True)
    write_config(tmp_path, "[problem]\nexample = 1\n[study]\nlevels = 8, 32\n"
                           "[output]\ndirectory = out\n")
    result = _cli(tmp_path, *command)
    assert result.returncode == 1
    assert result.stderr.startswith("config error: cannot write ")
    assert "Traceback" not in result.stderr


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 1
solver = magic
[study]
levels = 32
"""))


def test_config_rejects_unknown_mode(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 1
mode = lumped
[study]
levels = 32
"""))


def test_config_missing_file():
    with pytest.raises(ConfigError):
        RunConfig.from_file("/nonexistent/run.ini")


# ---------------------------------------------------------------- tables


def make_report(errors):
    report = ErrorReport()
    elements, h = 32, 0.354
    for e in errors:
        report.add_row(ErrorReportRow(elements, h, e, e, e, e))
        elements, h = elements * 4, h / 2.0
    return report


def test_emit_table_single_row_has_empty_rates(tmp_path):
    path = tmp_path / "table.csv"
    emit_table(make_report([0.04]), "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "32"
    assert cells[3] == cells[5] == cells[7] == cells[9] == ""


def test_emit_table_halved_error_gives_rate_one(tmp_path):
    path = tmp_path / "table.csv"
    emit_table(make_report([0.04, 0.02]), "csv", path)
    second = path.read_text().splitlines()[2].split(",")
    assert second[3] == "1.00"


def test_emit_table_rate_cells_recompute(tmp_path):
    report = make_report([0.251, 0.0773, 0.0241])
    path = tmp_path / "table.csv"
    emit_table(report, "csv", path)
    lines = path.read_text().splitlines()[1:]
    prev = None
    for line in lines:
        cells = line.split(",")
        err = float(cells[2])
        if prev is not None:
            assert cells[3] == f"{convergence_rate(prev, err):.2f}"
        prev = err


def test_emit_table_markdown_mirror(tmp_path):
    report = make_report([0.04, 0.02])
    path = tmp_path / "table.md"
    emit_table(report, "markdown", path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("| elements | h |")
    assert len(lines) == 2 + len(report)
    assert "1.00" in lines[3]


def test_emit_table_empty_report_raises(tmp_path):
    with pytest.raises(ValueError):
        emit_table(ErrorReport(), "csv", tmp_path / "t.csv")
    with pytest.raises(ValueError):
        emit_table(make_report([0.1]), "latex", tmp_path / "t.tex")


# ---------------------------------------------------------------- fields


class _ZeroSolution:
    def __init__(self, mesh):
        spaces = SpaceSet(mesh)
        self.y = DiscreteField(spaces.potential, np.zeros(spaces.potential.num_dofs))
        self.z = DiscreteField(spaces.potential, np.zeros(spaces.potential.num_dofs))

    def control_on_edge(self, edges, s):
        return np.zeros(np.broadcast(np.asarray(edges), np.asarray(s)).shape)


def _read_vtk_scalars(path, name):
    lines = open(path).read().splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith(f"SCALARS {name}"))
    count = int(next(ln for ln in lines if ln.startswith("POINT_DATA")).split()[1])
    return np.array([float(v) for v in lines[start + 2:start + 2 + count]])


def test_emit_fields_zero_solution(tmp_path):
    mesh = build_unit_square_mesh(2)
    files = emit_fields(_ZeroSolution(mesh), mesh, str(tmp_path / "fields"))
    vals = _read_vtk_scalars(files[0], "y_h")
    assert vals.shape == (3 * mesh.num_elements,)
    assert np.all(vals == 0.0)
    cells_line = next(ln for ln in open(files[0]) if ln.startswith("CELLS"))
    assert int(cells_line.split()[1]) == mesh.num_elements
    u_rows = np.loadtxt(files[2])
    assert np.all(u_rows[:, 3] == 0.0)


def test_emit_fields_round_trip(tmp_path):
    from ldgcontrol.analysis import manufactured_example1
    from ldgcontrol.control import pdas_solve
    from ldgcontrol.ldg import assemble_forms

    case = manufactured_example1()
    mesh = build_unit_square_mesh(3)
    ops = assemble_forms(mesh, case.problem_data())
    sol = pdas_solve(ops, mode="full")
    files = emit_fields(sol, mesh, str(tmp_path / "fields"))
    vals = _read_vtk_scalars(files[0], "y_h")
    assert np.abs(vals - sol.y.coefficients).max() < 1e-9
    u_rows = np.loadtxt(files[2])
    # arclength increases monotonically around the loop, two samples/edge
    assert u_rows.shape[0] == 2 * len(mesh.boundary_edges)
    assert np.all(np.diff(u_rows[:, 0]) >= -1e-12)
    assert u_rows[-1, 0] == pytest.approx(4.0, abs=1e-12)
    # each row pair is one boundary edge (start, end) with its nodal controls
    ends = mesh.vertices[mesh.edges[mesh.boundary_edges]]  # (b, 2 ends, 2)
    for start, end in zip(u_rows[0::2], u_rows[1::2]):
        hit = np.nonzero((np.abs(ends[:, 0] - start[1:3]).max(axis=1) < 1e-12)
                         & (np.abs(ends[:, 1] - end[1:3]).max(axis=1) < 1e-12))[0]
        assert len(hit) == 1
        b = sol.u.dofmap.boundary_index[mesh.boundary_edges[hit[0]]]
        assert start[3] == sol.u.coefficients[2 * b]
        assert end[3] == sol.u.coefficients[2 * b + 1]


# ------------------------------------------------------------ run driver


def test_run_example_matches_expected_errors(tmp_path):
    cfg = RunConfig.from_file(write_config(
        tmp_path, EX1_TWO_LEVELS.format(out=tmp_path / "out")))
    report = run_example(cfg)
    expected = {"err_y": 1.652e-2, "err_u": 4.290e-2,
                "err_z": 2.166e-2, "err_pn": 1.031e-1}
    first = report.rows[0]
    for name, ref in expected.items():
        assert getattr(first, name) == pytest.approx(ref, rel=1e-3)
    assert report.rates("err_u")[1] == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize("config", [
    RunConfig(example=2, levels=(32, 128), reference=512),
    RunConfig(example=3, levels=(12, 48), reference=768, mode="variational"),
    RunConfig(example=1, levels=(32, 128, 512), epsilon=1e-6),
    RunConfig(example=1, levels=(32, 128, 512), epsilon=1e-6, mode="variational"),
])
def test_run_example_nested_rows_match_cold_solves(config):
    # the coarse-to-fine chain with nested starts gives the rows of cold
    # solves: each level on its own, measured against a cold reference or,
    # for example 1, against the closed form on a separately built mesh
    kept = []
    report = run_example(config, keep_solutions=kept)
    data, case = _example_data(config)
    assert [m for m, *_ in kept] == list(config.levels)
    if case is None:
        chain = dict(zip(config.counts, _mesh_chain(config)))
        ref = _solve_level(chain[config.reference], data, config, config.reference)
    steps = []
    for row, (m, _mesh, warm) in zip(report.rows, kept):
        if case is None:
            cold = _solve_level(chain[m], data, config, m)
            cold_row = reference_compare(cold, ref)
        else:
            cold = _solve_level(build_unit_square_mesh(_mesh_level(1, m)), data, config, m)
            cold_row = closed_form_row(cold, case)
        steps.append((warm.iterations, cold.iterations))
        assert row.elements == cold_row.elements and row.h == cold_row.h
        for name in ("err_y", "err_u", "err_z", "err_pn"):
            assert getattr(row, name) == pytest.approx(getattr(cold_row, name), rel=1e-9)
    assert all(w <= c for w, c in steps)
    if case is None:
        # the constrained second level starts from the first and needs fewer steps
        assert steps[1][0] < steps[1][1]


def _track_factors(monkeypatch, at_factor=None):
    """Weak references to each factor of S a run builds, in build order;
    ``at_factor(factors)`` is called just before SuperLU runs on each."""
    factors = []
    of_permuted = linsolve.Factorization._of_permuted

    def factored(cls, permuted, order):
        if at_factor is not None:
            at_factor(factors)
        factor = of_permuted(permuted, order)
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(linsolve.Factorization, "_of_permuted", classmethod(factored))
    return factors


def test_run_example_keeps_only_the_finest_factor(monkeypatch):
    # when a level's solve returns, its own factor of S is the only one
    # alive: the levels below went with their solves.  Every mesh keeps its
    # dissection tree for the meshes that refine it
    held = []
    factors = _track_factors(monkeypatch)
    solve = cli.pdas_solve

    def solved(ops, *args, **kwargs):
        sol = solve(ops, *args, **kwargs)
        assert ops.reduction.factor is factors[-1]()
        held.append([factor() is not None for factor in factors])
        return sol

    monkeypatch.setattr(cli, "pdas_solve", solved)
    kept = []
    run_example(RunConfig(example=1, levels=(32, 128, 512), epsilon=1e-6), keep_solutions=kept)
    assert held == [[True], [False, True], [False, False, True]]
    assert all(mesh.dissection is not None for _, mesh, _ in kept)


def test_no_other_level_holds_a_factor_while_s_is_factored(monkeypatch):
    # each level goes before the next is assembled, so every factorization
    # of S runs with no other level's factor alive
    held = []
    _track_factors(monkeypatch, lambda factors: held.append(
        [factor() is not None for factor in factors]))
    run_example(RunConfig(example=1, levels=(32, 128, 512), epsilon=1e-6))
    assert held == [[], [False], [False, False]]


LIFECYCLE_STUDIES = pytest.mark.parametrize("config", [
    RunConfig(example=1, levels=(32, 128, 512), epsilon=1e-6),
    RunConfig(example=2, levels=(32, 128), reference=512),
    RunConfig(example=2, levels=(32, 128), reference=512, mode="variational"),
], ids=["ex1", "ex2-full", "ex2-variational"])


@LIFECYCLE_STUDIES
def test_no_solution_pins_its_level(config, monkeypatch, tmp_path):
    # a level's operators live only for its solve: each lower level's
    # BlockOperator is gone when the next S is factored, and the kept
    # solutions give the rows, field output and starts they gave in the run
    levels, inputs, solutions, starts, alive = [], [], [], [], []
    assemble, solve, prolong = cli.assemble_forms, cli.pdas_solve, control._prolonged_start
    of_permuted = linsolve.Factorization._of_permuted

    def assembled(mesh, data):
        ops = assemble(mesh, data)
        levels.append(weakref.ref(ops))
        inputs.append((mesh, data))
        return ops

    def solved(ops, *args, **kwargs):
        sol = solve(ops, *args, **kwargs)
        emit_fields(sol, ops.mesh, tmp_path / "live" / str(ops.num_elements))
        solutions.append(sol)
        return sol

    def prolonged(*args):
        starts.append(prolong(*args))
        return starts[-1]

    def factored(cls, permuted, order):
        alive.append([level() is not None for level in levels[:-1]])
        return of_permuted(permuted, order)

    monkeypatch.setattr(cli, "assemble_forms", assembled)
    monkeypatch.setattr(cli, "pdas_solve", solved)
    monkeypatch.setattr(control, "_prolonged_start", prolonged)
    monkeypatch.setattr(linsolve.Factorization, "_of_permuted", classmethod(factored))
    kept = []
    report = run_example(config, keep_solutions=kept)
    monkeypatch.undo()

    assert alive == [[], [False], [False, False]]
    assert all(level() is None for level in levels)
    case = _example_data(config)[1]
    assert len(kept) == len(config.levels)
    assert all(sol is solved for (*_, sol), solved in zip(kept, solutions))
    for row, (m, mesh, sol) in zip(report.rows, kept):
        assert row == (closed_form_row(sol, case) if case is not None
                       else reference_compare(sol, solutions[-1]))
        for path in emit_fields(sol, mesh, tmp_path / "kept" / str(m)):
            live = tmp_path / "live" / str(m) / Path(path).name
            assert Path(path).read_bytes() == live.read_bytes()
    assert len(starts) == len(inputs) - 1
    for start, sol, (mesh, data) in zip(starts, solutions, inputs[1:]):
        again = control._prolonged_start(assemble_forms(mesh, data), data, config.mode, sol)
        for a, b in zip(start, again):
            assert np.array_equal(a, b)


def test_finest_factor_runs_beside_one_copy_of_s(monkeypatch):
    # when SuperLU factors the finest S, S in its own numbering is gone
    # (the factor holds the permuted copy alone) and the finest level
    # stores neither A nor C
    assembled, ordered, seen = [], {}, []

    def assemble(mesh, data):
        ops = assemble_forms(mesh, data)
        assembled.append(weakref.ref(ops))
        return ops

    dissection_order = linsolve.dissection_order

    def order(points, S, ancestor=None):
        ordered[S.shape[0]] = weakref.ref(S)
        return dissection_order(points, S, ancestor)

    splu = linsolve.spla.splu

    def factor(A, *args, **kwargs):
        if A.shape[0] == 3 * 512:
            seen.append((ordered[A.shape[0]]() is None,
                         [name for name in ("A", "C") if name in vars(assembled[-1]())]))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(cli, "assemble_forms", assemble)
    monkeypatch.setattr(linsolve, "dissection_order", order)
    monkeypatch.setattr(linsolve.spla, "splu", factor)
    run_example(RunConfig(example=1, levels=(32, 128, 512), epsilon=1e-6))
    assert seen == [(True, [])]


@LIFECYCLE_STUDIES
def test_run_example_assembles_each_level_once(config, monkeypatch):
    # a study reads no dropped block, so no level is assembled again
    calls = []
    assemble = ldg.assemble_forms

    def counted(mesh, data):
        calls.append(mesh.num_elements)
        return assemble(mesh, data)

    monkeypatch.setattr(cli, "assemble_forms", counted)
    monkeypatch.setattr(ldg, "assemble_forms", counted)
    run_example(config)
    assert calls == list(config.counts)


@pytest.mark.parametrize("epsilon", [1.0, 1e-6])
def test_example1_variational_rows_equal_full_rows(epsilon):
    # unconstrained, the variational control is the trace combination the
    # full control represents exactly, so both modes give the same rows
    full, var = (run_example(RunConfig(example=1, levels=(32, 128), epsilon=epsilon,
                                       mode=mode)).rows
                 for mode in ("full", "variational"))
    for a, b in zip(full, var):
        for name in ("err_y", "err_u", "err_z", "err_pn"):
            assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-10)


def test_main_run_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["run", write_config(
            tmp_path, EX1_TWO_LEVELS.format(out=out), name=f"{out.name}.ini")])
        assert code == 0
    assert (out_a / "table.csv").read_bytes() == (out_b / "table.csv").read_bytes()
    assert (out_a / "table.md").read_bytes() == (out_b / "table.md").read_bytes()


def test_main_runs_example1_in_variational_mode(tmp_path):
    cfg = write_config(tmp_path, EX1_TWO_LEVELS.format(out=tmp_path / "out").replace(
        "example = 1", "example = 1\nmode = variational"))
    assert main(["run", cfg]) == 0
    assert len((tmp_path / "out" / "table.csv").read_text().splitlines()) == 3


def test_cli_import_leaves_matrix_market_module_out():
    # scipy.io is imported by the matrix export alone, not at start-up
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = "import sys, ldgcontrol.cli; print('scipy.io' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def test_main_run_writes_matrix_market_blocks(tmp_path):
    import scipy.io

    out = tmp_path / "out"
    cfg = write_config(tmp_path, EX1_TWO_LEVELS.format(out=out) + "matrices = true\n")
    assert main(["run", cfg]) == 0
    config = RunConfig.from_file(cfg)
    mesh = _mesh_chain(config)[0]
    ops = assemble_forms(mesh, _example_data(config)[0])
    for name in ("A", "B", "C", "M1", "M2", "M_Omega", "M_Gamma"):
        written = scipy.io.mmread(out / f"matrices_{mesh.num_elements}" / f"{name}.mtx")
        assert abs(written - getattr(ops, name)).max() == 0.0, name


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

# the benchmark's seed-0 studies, whose tables are frozen byte for byte
GOLDEN_STUDIES = {
    "tiny": ("example = 2\nepsilon = 1.0\nmode = full",
             "levels = 32, 128\nreference = 512"),
    "ex1-eps1e-6-8192": ("example = 1\nepsilon = 1e-06\nmode = full",
                         "levels = 32, 128, 512, 2048, 8192"),
    "ex2-var-ref8192": ("example = 2\nepsilon = 1.0\nmode = variational",
                        "levels = 32, 128, 512\nreference = 8192"),
}


@pytest.mark.parametrize("name", GOLDEN_STUDIES)
def test_main_run_reproduces_golden_tables(tmp_path, name):
    problem, study = GOLDEN_STUDIES[name]
    out = tmp_path / name
    cfg = write_config(tmp_path, f"[problem]\n{problem}\n\n[study]\n{study}\n\n"
                                 f"[output]\ndirectory = {out}\n")
    assert main(["run", cfg]) == 0
    assert (out / "table.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_main_config_error_exit_code(tmp_path):
    bad = write_config(tmp_path, "[problem]\nexample = 9\n[study]\nlevels = 32\n")
    assert main(["run", bad]) == 1
    assert main(["run", str(tmp_path / "missing.ini")]) == 1


def test_main_pdas_cap_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, f"""
[problem]
example = 2

[study]
levels = 32
reference = 128
pdas_max_iter = 1

[output]
directory = {tmp_path / 'out2'}
""")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "elements" in err


@pytest.mark.parametrize("line", ["epsilon = nan", "epsilon = inf", "omega = nan",
                                  "omega = inf", "u_lower = nan", "u_upper = nan",
                                  "c12_direction = 1.0, nan"])
def test_main_non_finite_data_exit_code(tmp_path, capsys, line):
    cfg = write_config(tmp_path, f"""
[problem]
example = 2
{line}

[study]
levels = 32
reference = 128

[output]
directory = {tmp_path / 'out'}
""")
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_config_reports_bad_problem_data_with_the_library_message(tmp_path, capsys):
    # the config builds its problem data when it is parsed, so the data's
    # own check speaks before any mesh is built
    with pytest.raises(ValueError) as library:
        ldg.ProblemData(epsilon=1.0, omega=1.0, u_lower=1.0, u_upper=0.0)
    with pytest.raises(ConfigError) as parsed:
        RunConfig.from_file(write_config(tmp_path, """
[problem]
example = 2
u_lower = 1
u_upper = 0

[study]
levels = 32
reference = 128
"""))
    assert str(parsed.value) == str(library.value)
    with pytest.raises(ValueError) as library:
        ldg.ProblemData(epsilon=float("nan"), omega=1.0)
    cfg = write_config(tmp_path, "[problem]\nexample = 2\nepsilon = nan\n"
                                 "[study]\nlevels = 32\nreference = 128\n")
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == f"config error: {library.value}\n"


def test_main_checks_the_output_directory_before_solving(tmp_path, capsys, monkeypatch):
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return control.pdas_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "pdas_solve", counted)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    cfg = write_config(tmp_path, f"[problem]\nexample = 1\n[study]\nlevels = 8, 32\n"
                                 f"[output]\ndirectory = {taken}\n")
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not solves


@pytest.mark.parametrize("error", [SingularSystemError, ReducedSolveError])
def test_main_linear_solve_failure_exit_code(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("factor of S is singular")

    monkeypatch.setattr(cli, "pdas_solve", fail)
    cfg = write_config(tmp_path, EX1_TWO_LEVELS.format(out=tmp_path / "out"))
    assert main(["run", cfg]) == 3
    assert capsys.readouterr().err == "linear solve failed: factor of S is singular\n"


def test_zero_error_column_has_no_rates(tmp_path):
    # at omega = 1e-2 every control of example 2 sits on a bound, so the
    # control error is exactly 0 on every row and has no observed order
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
[problem]
example = 2
omega = 1e-2

[study]
levels = 32, 128
reference = 512

[output]
directory = {out}
markdown = true
""")
    assert main(["run", cfg]) == 0
    header, *rows = (line.split(",") for line in (out / "table.csv").read_text().splitlines())
    u = header.index("err_u_Gamma")
    assert [row[u:u + 2] for row in rows] == [["0.00e+00", ""], ["0.00e+00", ""]]
    assert rows[1][header.index("rate_y")] != ""
    table = (out / "table.md").read_text().splitlines()
    assert [line.split(" | ")[u:u + 2] for line in table[2:]] == [["0.00e+00", "--"]] * 2


def test_main_dump_mesh(tmp_path):
    target = tmp_path / "mesh.txt"
    assert main(["dump-mesh", "--example", "3", "--elements", "12",
                 "--output", str(target)]) == 0
    lines = target.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("t ")) == 12
    assert any("-1.732" in ln for ln in lines)


def test_main_check_battery():
    assert main(["check", "--seed", "0"]) == 0


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LDGCONTROL_OUTPUT_ROOT", str(tmp_path))
    cfg = write_config(tmp_path, """
[problem]
example = 1

[study]
levels = 32

[output]
directory = nested/run1
""")
    assert main(["run", cfg]) == 0
    assert (tmp_path / "nested" / "run1" / "table.csv").exists()
