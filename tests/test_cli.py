"""Tests of the config-driven study driver and its file emitters."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ldgcontrol import cli
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
from ldgcontrol.spaces import DiscreteField, build_spaces


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
        spaces = build_spaces(mesh)
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
    ops = assemble_forms(mesh, build_spaces(mesh), case.problem_data())
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
        _, ref = _solve_level(chain[config.reference], data, config, config.reference)
    steps = []
    for row, (m, _mesh, _ops, warm) in zip(report.rows, kept):
        if case is None:
            cold = _solve_level(chain[m], data, config, m)[1]
            cold_row = reference_compare(cold, ref)
        else:
            cold = _solve_level(build_unit_square_mesh(_mesh_level(1, m)), data, config, m)[1]
            cold_row = closed_form_row(cold, case)
        steps.append((warm.iterations, cold.iterations))
        assert row.elements == cold_row.elements and row.h == cold_row.h
        for name in ("err_y", "err_u", "err_z", "err_pn"):
            assert getattr(row, name) == pytest.approx(getattr(cold_row, name), rel=1e-9)
    assert all(w <= c for w, c in steps)
    if case is None:
        # the constrained second level starts from the first and needs fewer steps
        assert steps[1][0] < steps[1][1]


def test_run_example_keeps_only_the_finest_factor():
    # a solved level's factor of S and elimination cache go once the level
    # above it is solved; its node order and dissection tree stay
    kept = []
    run_example(RunConfig(example=1, levels=(32, 128, 512), epsilon=1e-6), keep_solutions=kept)
    assert [ops._state_lu is not None for *_, ops, _ in kept] == [False, False, True]
    assert [ops._condensation is not None for *_, ops, _ in kept] == [False, False, True]
    assert all(ops._node_order is not None and mesh.dissection is not None
               for _, mesh, ops, _ in kept)


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
    ops = assemble_forms(mesh, build_spaces(mesh), _example_data(config)[0])
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


@pytest.mark.parametrize("error", [SingularSystemError, ReducedSolveError])
def test_main_linear_solve_failure_exit_code(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("factor of S is singular")

    monkeypatch.setattr(cli, "pdas_solve", fail)
    cfg = write_config(tmp_path, EX1_TWO_LEVELS.format(out=tmp_path / "out"))
    assert main(["run", cfg]) == 3
    assert capsys.readouterr().err == "linear solve failed: factor of S is singular\n"


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
