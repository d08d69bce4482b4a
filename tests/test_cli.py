"""Tests of the config-driven study driver and its file emitters."""

import os

import numpy as np
import pytest

from ldgcontrol.analysis import ErrorReport, ErrorReportRow, convergence_rate
from ldgcontrol.cli import (
    CSV_HEADER,
    ConfigError,
    RunConfig,
    emit_fields,
    emit_table,
    main,
    run_example,
)
from ldgcontrol.geometry import build_unit_square_mesh
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

    def control_on_edge(self, edge_id, s):
        return np.zeros(np.asarray(s).shape)


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


def test_main_run_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["run", write_config(
            tmp_path, EX1_TWO_LEVELS.format(out=out), name=f"{out.name}.ini")])
        assert code == 0
    assert (out_a / "table.csv").read_bytes() == (out_b / "table.csv").read_bytes()
    assert (out_a / "table.md").read_bytes() == (out_b / "table.md").read_bytes()


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
