"""Configuration-driven study driver.

Reads a flat key = value config file (INI sections), runs one of the three
study problems over a mesh sequence, and emits convergence tables and
field dumps.  Example 1 measures errors against the closed-form optimal
triple; Examples 2 and 3 measure against a solution on a deeper mesh of
the same refinement chain.  All outputs are plain text and bytewise
deterministic for a fixed config.

Subcommands: ``run`` (study from a config file), ``check`` (built-in
consistency battery), ``dump-mesh`` (text dump of a study mesh).  Exit
codes: 0 success, 1 configuration errors, 2 active-set nonconvergence.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys

import numpy as np

from .analysis import (
    ErrorReport,
    ErrorReportRow,
    check_strong_form,
    error_flux_normal_boundary,
    error_l2_boundary,
    error_l2_domain,
    example2_data,
    example3_data,
    example3_mesh,
    manufactured_example1,
    reference_compare,
)
from .control import PdasNonconvergence, fd_gradient_check, pdas_solve, reduced_gradient
from .geometry import build_unit_square_mesh, refine_uniform, write_mesh_text
from .ldg import assemble_forms, export_matrix_market
from .linsolve import solve_optimality_system
from .spaces import build_spaces, write_vtk

__all__ = ["RunConfig", "ConfigError", "run_example", "emit_table", "emit_fields", "main"]

OUTPUT_ROOT_VAR = "LDGCONTROL_OUTPUT_ROOT"

CSV_HEADER = ("elements,h,err_y_L2,rate_y,err_u_Gamma,rate_u,"
              "err_z_Gamma,rate_z,err_pn_Gamma,rate_pn")

_PROBLEM_KEYS = {"example", "epsilon", "omega", "mode", "u_lower", "u_upper",
                 "c12_direction", "coarse"}
_STUDY_KEYS = {"levels", "reference", "pdas_max_iter"}
_OUTPUT_KEYS = {"directory", "csv", "markdown", "vtk", "matrices"}

_BOOL = {"true": True, "yes": True, "1": True, "on": True,
         "false": False, "no": False, "0": False, "off": False}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


def _mesh_level(example: int, elements: int, coarse: str = "fan3") -> int:
    """Mesh parameter of an element count: n with 2 n^2 elements on the
    unit square (examples 1, 2), or the refinement level k with
    base * 4^k elements on the skewed domain (example 3)."""
    if elements < 1:
        raise ConfigError(f"{elements} is not a positive element count")
    if example in (1, 2):
        n = int(round(np.sqrt(elements / 2.0)))
        if 2 * n * n != elements:
            raise ConfigError(
                f"{elements} is not a valid element count for the square "
                f"(needs 2 n^2)")
        return n
    base = 3 if coarse == "fan3" else 2
    level, k = 0, elements
    while k % 4 == 0:
        k //= 4
        level += 1
    if k != base:
        raise ConfigError(
            f"{elements} is not a valid element count for the skewed "
            f"domain (needs {base} * 4^k)")
    return level


@dataclasses.dataclass
class RunConfig:
    """Validated parameters of one convergence study."""

    example: int
    levels: tuple
    epsilon: float = 1.0
    omega: float = None          # None: keep the example's weight
    mode: str = "full"
    u_lower: float = None        # None: keep the example's bounds
    u_upper: float = None
    c12_direction: tuple = None  # None: keep the example's convention
    coarse: str = "fan3"         # initial-mesh family of the skewed domain
    reference: int = None
    pdas_max_iter: int = 50
    directory: str = "out"
    csv: bool = True
    markdown: bool = False
    vtk: bool = False
    matrices: bool = False

    def __post_init__(self):
        if self.example not in (1, 2, 3):
            raise ConfigError(f"unknown example id {self.example!r}")
        if self.mode not in ("full", "variational"):
            raise ConfigError(f"unknown control mode {self.mode!r}")
        if self.epsilon <= 0.0:
            raise ConfigError("diffusion coefficient must be positive")
        if self.omega is not None and self.omega <= 0.0:
            raise ConfigError("regularization weight must be positive")
        if self.pdas_max_iter < 1:
            raise ConfigError("active-set iteration cap must be at least 1")
        levels = tuple(int(m) for m in self.levels)
        if not levels:
            raise ConfigError("mesh sequence is empty")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("mesh sequence must be strictly increasing")
        self.levels = levels
        if self.coarse not in ("fan3", "diag2"):
            raise ConfigError(f"unknown coarse-mesh family {self.coarse!r}")
        self._validate_mesh_counts()

    def _validate_mesh_counts(self):
        for m in self.levels + ((self.reference,) if self.reference else ()):
            _mesh_level(self.example, m, self.coarse)
        if self.example in (2, 3):
            if self.reference is None:
                raise ConfigError(
                    "examples 2 and 3 need a reference element count")
            if self.reference <= self.levels[-1]:
                raise ConfigError(
                    "reference mesh must be deeper than the deepest study level")
            self._validate_chain()

    def _validate_chain(self):
        counts = self.levels + (self.reference,)
        base = counts[0]
        for m in counts[1:]:
            ratio = m // base
            # uniform refinement multiplies the count by 4 per level
            power_of_four = ratio > 0 and not (ratio & (ratio - 1)) \
                and (ratio.bit_length() - 1) % 2 == 0
            if base * ratio != m or not power_of_four:
                raise ConfigError(
                    f"{m} does not lie on the refinement chain of {base}")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        known = {"problem": _PROBLEM_KEYS, "study": _STUDY_KEYS, "output": _OUTPUT_KEYS}
        for section in parser.sections():
            if section not in known:
                raise ConfigError(f"unknown config section [{section}]")
            extra = set(parser[section]) - known[section]
            if extra:
                raise ConfigError(
                    f"unknown keys in [{section}]: {', '.join(sorted(extra))}")
        prob = parser["problem"] if parser.has_section("problem") else {}
        study = parser["study"] if parser.has_section("study") else {}
        out = parser["output"] if parser.has_section("output") else {}

        def fetch(section, key, cast, default):
            if key not in section:
                return default
            raw = section[key].strip()
            try:
                return cast(raw)
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc

        def as_bool(raw):
            return _BOOL[raw.lower()]

        def as_pair(raw):
            parts = [float(p) for p in raw.split(",")]
            if len(parts) != 2:
                raise ValueError(raw)
            return tuple(parts)

        def as_levels(raw):
            return tuple(int(p) for p in raw.split(","))

        if "example" not in prob:
            raise ConfigError("config must set example under [problem]")
        if "levels" not in study:
            raise ConfigError("config must set levels under [study]")
        return cls(
            example=fetch(prob, "example", int, None),
            epsilon=fetch(prob, "epsilon", float, 1.0),
            omega=fetch(prob, "omega", float, None),
            mode=fetch(prob, "mode", str, "full"),
            u_lower=fetch(prob, "u_lower", float, None),
            u_upper=fetch(prob, "u_upper", float, None),
            c12_direction=fetch(prob, "c12_direction", as_pair, None),
            coarse=fetch(prob, "coarse", str, "fan3"),
            levels=fetch(study, "levels", as_levels, None),
            reference=fetch(study, "reference", int, None),
            pdas_max_iter=fetch(study, "pdas_max_iter", int, 50),
            directory=fetch(out, "directory", str, "out"),
            csv=fetch(out, "csv", as_bool, True),
            markdown=fetch(out, "markdown", as_bool, False),
            vtk=fetch(out, "vtk", as_bool, False),
            matrices=fetch(out, "matrices", as_bool, False),
        )

    def resolve_output_dir(self) -> str:
        root = os.environ.get(OUTPUT_ROOT_VAR)
        if root and not os.path.isabs(self.directory):
            return os.path.join(root, self.directory)
        return self.directory


def _example_data(config: RunConfig):
    """Problem data and (for the closed-form case) the exact solution."""
    try:
        if config.example == 1:
            case = manufactured_example1(config.epsilon,
                                         config.omega if config.omega else 1.0)
            overrides = {}
            if config.u_lower is not None:
                overrides["u_lower"] = config.u_lower
            if config.u_upper is not None:
                overrides["u_upper"] = config.u_upper
            if config.c12_direction is not None:
                overrides["c12_direction"] = config.c12_direction
            return case.problem_data(**overrides), case
        data = (example2_data(config.epsilon) if config.example == 2
                else example3_data(config.epsilon))
        overrides = {}
        if config.omega is not None:
            overrides["omega"] = config.omega
        if config.u_lower is not None:
            overrides["u_lower"] = config.u_lower
        if config.u_upper is not None:
            overrides["u_upper"] = config.u_upper
        if config.c12_direction is not None:
            overrides["c12_direction"] = config.c12_direction
        if overrides:
            data = dataclasses.replace(data, **overrides)
        return data, None
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _mesh_chain(config: RunConfig, counts):
    """Meshes for the requested element counts, nested along one chain."""
    target = sorted(set(counts))
    if config.example in (1, 2):
        mesh = build_unit_square_mesh(_mesh_level(config.example, target[0]))
    else:
        mesh = example3_mesh(0, coarse=config.coarse)
    chain = {}
    while True:
        if mesh.num_elements in target:
            chain[mesh.num_elements] = mesh
        if mesh.num_elements >= target[-1]:
            break
        mesh = refine_uniform(mesh)
    missing = [m for m in target if m not in chain]
    if missing:
        raise ConfigError(f"element counts {missing} unreachable by refinement")
    return chain


def _solve_level(mesh, data, config: RunConfig, elements: int):
    ops = assemble_forms(mesh, build_spaces(mesh), data)
    try:
        sol = pdas_solve(ops, data, mode=config.mode,
                         max_iter=config.pdas_max_iter)
    except PdasNonconvergence as exc:
        raise PdasNonconvergence(
            f"level with {elements} elements: {exc}") from exc
    return ops, sol


def run_example(config: RunConfig, keep_solutions: list = None) -> ErrorReport:
    """Run a study over the configured mesh sequence.

    Appends (elements, mesh, ops, solution) per study level to
    ``keep_solutions`` when a list is passed, for callers that also emit
    fields or matrices.
    """
    data, case = _example_data(config)
    report = ErrorReport()

    if config.example == 1:
        for m in config.levels:
            mesh = build_unit_square_mesh(_mesh_level(1, m))
            ops, sol = _solve_level(mesh, data, config, m)
            report.add_row(ErrorReportRow(
                elements=m,
                h=mesh.h,
                err_y=error_l2_domain(sol.y, case.y),
                err_u=error_l2_boundary(sol.u, case.u, mesh),
                err_z=error_l2_boundary(sol.z, case.z, mesh),
                err_pn=error_flux_normal_boundary(sol.p, case.grad_z,
                                                  data.epsilon, mesh),
            ))
            if keep_solutions is not None:
                keep_solutions.append((m, mesh, ops, sol))
        return report

    chain = _mesh_chain(config, config.levels + (config.reference,))
    _, ref_sol = _solve_level(chain[config.reference], data, config,
                              config.reference)
    for m in config.levels:
        mesh = chain[m]
        ops, sol = _solve_level(mesh, data, config, m)
        report.add_row(reference_compare(sol, ref_sol))
        if keep_solutions is not None:
            keep_solutions.append((m, mesh, ops, sol))
    return report


# ---------------------------------------------------------------------------
# table / field emission


def _format_row(row: ErrorReportRow, rates):
    cells = [str(row.elements), f"{row.h:.2e}"]
    for err, rate in zip((row.err_y, row.err_u, row.err_z, row.err_pn), rates):
        cells.append(f"{err:.2e}")
        cells.append("" if rate is None else f"{rate:.2f}")
    return cells


def _table_cells(report: ErrorReport):
    per_col = [report.rates(name) for name in ErrorReport.COLUMNS]
    rows = []
    for i, row in enumerate(report.rows):
        rows.append(_format_row(row, [col[i] for col in per_col]))
    return rows


def emit_table(report: ErrorReport, format: str, path) -> str:
    """Write a convergence table as csv or markdown; returns the path."""
    if not len(report):
        raise ValueError("cannot emit an empty report")
    rows = _table_cells(report)
    if format == "csv":
        lines = [CSV_HEADER]
        lines += [",".join(cells) for cells in rows]
    elif format == "markdown":
        header = CSV_HEADER.split(",")
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(c if c else "--" for c in cells) + " |"
                  for cells in rows]
    else:
        raise ValueError(f"unknown table format: {format!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)


def _boundary_loop(mesh):
    """Boundary edges ordered head-to-tail around the domain."""
    by_start = {int(mesh.edges[e, 0]): int(e) for e in mesh.boundary_edges}
    start_vertex = int(mesh.edges[mesh.boundary_edges[0], 0])
    loop, v = [], start_vertex
    for _ in range(len(mesh.boundary_edges)):
        e = by_start[v]
        loop.append(e)
        v = int(mesh.edges[e, 1])
    return loop


def emit_fields(sol, mesh, path) -> list:
    """Write field dumps of a converged solution; returns the file list.

    The two scalar unknowns go to legacy VTK files; the control becomes a
    plain-text polyline (arclength, x, y, value) ordered around the
    boundary, two samples per boundary edge.
    """
    os.makedirs(path, exist_ok=True)
    files = []
    for name, field in (("y_h", sol.y), ("z_h", sol.z)):
        target = os.path.join(path, f"{name}.vtk")
        write_vtk(target, mesh, {name: field})
        files.append(target)

    target = os.path.join(path, "u_h.txt")
    with open(target, "w") as fh:
        fh.write("# arclength x1 x2 u\n")
        s_acc = 0.0
        for e in _boundary_loop(mesh):
            a, b = mesh.vertices[mesh.edges[e]]
            length = float(np.hypot(*(b - a)))
            vals = sol.control_on_edge(e, np.array([0.0, 1.0]))
            for s_loc, val in zip((0.0, 1.0), vals):
                x = a + s_loc * (b - a)
                fh.write(f"{s_acc + s_loc * length:.16e} "
                         f"{x[0]:.16e} {x[1]:.16e} {val:.16e}\n")
            s_acc += length
    files.append(target)
    return files


def _emit_matrices(ops, path):
    os.makedirs(path, exist_ok=True)
    blocks = {"A": ops.A, "B": ops.B, "C": ops.C, "M1": ops.M1,
              "M2": ops.M2, "M_Omega": ops.M_Omega, "M_Gamma": ops.M_Gamma}
    for name, mat in blocks.items():
        export_matrix_market(os.path.join(path, f"{name}.mtx"), mat)


# ---------------------------------------------------------------------------
# consistency battery ("check" subcommand)


def _battery(seed: int = 0):
    """Fast end-to-end consistency checks; yields (name, passed, detail)."""
    rng = np.random.default_rng(seed)

    case = manufactured_example1()
    res_state, res_adj = check_strong_form(case, num_points=100, seed=seed)
    yield ("manufactured case satisfies the strong equations",
           res_state < 1e-5 and res_adj < 1e-5,
           f"residuals {res_state:.2e} / {res_adj:.2e}")

    data = case.problem_data()
    mesh = build_unit_square_mesh(4)
    ops = assemble_forms(mesh, build_spaces(mesh), data)

    factor = ops.state_factorization()
    dual_gap = 0.0
    for _ in range(5):
        r1 = rng.standard_normal(factor.matrix.shape[0])
        r2 = rng.standard_normal(factor.matrix.shape[0])
        x = factor.solve(r1)
        w = factor.solve(r2, trans="T")
        scale = max(1.0, abs(r2 @ x))
        dual_gap = max(dual_gap, abs(r2 @ x - r1 @ w) / scale)
    yield ("forward/adjoint solves of the state operator are mutually transposed",
           dual_gap < 1e-10, f"max gap {dual_gap:.2e}")

    n_u = ops.M_Gamma.shape[0]
    worst = 0.0
    for _ in range(3):
        rep = fd_gradient_check(ops, data, np.zeros(n_u), rng.standard_normal(n_u))
        worst = max(worst, rep.mismatch)
    yield ("adjoint gradient matches finite differences",
           worst <= 1e-7, f"max mismatch {worst:.2e}")

    data2 = example2_data()
    mesh2 = build_unit_square_mesh(8)
    ops2 = assemble_forms(mesh2, build_spaces(mesh2), data2)
    sol2 = pdas_solve(ops2, data2, mode="full")
    vals = sol2.u.coefficients
    in_bounds = (vals.min() >= data2.u_lower - 1e-10
                 and vals.max() <= data2.u_upper + 1e-10)
    lam = reduced_gradient(ops2, sol2).nodal
    comp = np.abs(lam[sol2.active.inactive]).max()
    yield ("constrained solve respects bounds and complementarity",
           sol2.converged and in_bounds and comp < 1e-8,
           f"{sol2.iterations} iterations, slack {comp:.2e}")

    gaps = []
    for sol in (sol2, pdas_solve(ops2, data2, mode="variational")):
        active = (sol.active.lower, sol.active.upper)
        pm = solve_optimality_system(ops2, active, data2, mode=sol.mode,
                                     strategy="monolithic")
        pr = solve_optimality_system(ops2, active, data2, mode=sol.mode)
        gaps.append(max(np.abs(pm[k] - pr[k]).max() / max(1.0, np.abs(pm[k]).max())
                        for k in pm))
    yield ("reduced and monolithic solves agree on the constrained active sets",
           max(gaps) < 1e-9, "max difference full / variational "
           + " / ".join(f"{g:.2e}" for g in gaps))


# ---------------------------------------------------------------------------
# entry points


def _cmd_run(args) -> int:
    config = RunConfig.from_file(args.config)
    # a kept level holds its operators and their elimination cache to the end
    keep = [] if config.vtk or config.matrices else None
    report = run_example(config, keep_solutions=keep)
    outdir = config.resolve_output_dir()
    os.makedirs(outdir, exist_ok=True)
    written = []
    if config.csv:
        written.append(emit_table(report, "csv", os.path.join(outdir, "table.csv")))
    if config.markdown:
        written.append(emit_table(report, "markdown", os.path.join(outdir, "table.md")))
    if config.vtk:
        for m, mesh, _ops, sol in keep:
            written += emit_fields(sol, mesh, os.path.join(outdir, f"fields_{m}"))
    if config.matrices:
        m, _mesh, ops, _sol = keep[0]
        _emit_matrices(ops, os.path.join(outdir, f"matrices_{m}"))
        written.append(os.path.join(outdir, f"matrices_{m}"))
    for row, cells in zip(report.rows, _table_cells(report)):
        print(" ".join(cells[:1] + cells[2::2]))
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_check(args) -> int:
    failures = 0
    for name, passed, detail in _battery(args.seed):
        tag = "ok" if passed else "FAIL"
        print(f"{tag:4s} - {name} ({detail})")
        failures += 0 if passed else 1
    return 1 if failures else 0


def _cmd_dump_mesh(args) -> int:
    level = _mesh_level(args.example, args.elements, args.coarse)
    if args.example in (1, 2):
        mesh = build_unit_square_mesh(level)
    else:
        mesh = example3_mesh(level, coarse=args.coarse)
    write_mesh_text(mesh, args.output)
    print(f"wrote {args.output}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ldgcontrol",
        description="Convergence studies for boundary-controlled "
                    "convection-diffusion problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a study from a config file")
    p_run.add_argument("config", help="path to the key = value config file")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run the built-in consistency battery")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    p_dump = sub.add_parser("dump-mesh", help="write a study mesh as text")
    p_dump.add_argument("--example", type=int, default=1, choices=(1, 2, 3))
    p_dump.add_argument("--elements", type=int, required=True)
    p_dump.add_argument("--coarse", default="fan3", choices=("fan3", "diag2"))
    p_dump.add_argument("--output", required=True)
    p_dump.set_defaults(func=_cmd_dump_mesh)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PdasNonconvergence as exc:
        print(f"active-set iteration failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
