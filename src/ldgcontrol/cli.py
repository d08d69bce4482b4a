"""Configuration-driven study driver.

Reads a flat key = value config file (INI sections), runs one of the three
study problems over a mesh sequence, and emits convergence tables and
field dumps.  Every study walks one uniform-refinement chain from coarse
to fine, each level started from the solution of the level below (nested
iteration).  Example 1 measures errors against the closed-form optimal
triple; examples 2 and 3 measure against a solution on a deeper mesh of
the same chain, solved last.  All outputs are plain text and bytewise
deterministic for a fixed config.

Subcommands: ``run`` (study from a config file), ``check`` (built-in
consistency battery), ``dump-mesh`` (text dump of the mesh of a count:
for examples 1 and 2 ``build_unit_square_mesh(n)``, a study's mesh only at
its first level, as later levels are ``refine_uniform`` refinements with
other numbering; for example 3 the chain mesh every study uses).  Exit
codes: 0 success, 1 configuration errors (an output that cannot be
written among them), 2 active-set nonconvergence, 3 a failed linear solve
(a singular factorization or a reduced solve that misses its tolerance).
A rate cell is empty on a table's first row and where either error of
the pair is 0.
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
    closed_form_row,
    # not called here: perfbench/tracer.py wraps the error norms by these names
    error_flux_normal_boundary, error_l2_boundary, error_l2_domain,  # noqa: F401
    example2_data,
    example3_data,
    example3_mesh,
    manufactured_example1,
    reference_compare,
)
from .control import PdasNonconvergence, fd_gradient_check, pdas_solve, reduced_gradient
from .geometry import _text_lines, build_unit_square_mesh, refine_uniform, write_mesh_text
from .ldg import assemble_forms, export_matrix_market
from .linsolve import SingularSystemError, _reduction, solve_optimality_system
from .spaces import write_vtk

__all__ = ["RunConfig", "ConfigError", "run_example", "emit_table", "emit_fields", "main"]

OUTPUT_ROOT_VAR = "LDGCONTROL_OUTPUT_ROOT"

CSV_HEADER = ("elements,h,err_y_L2,rate_y,err_u_Gamma,rate_u,"
              "err_z_Gamma,rate_z,err_pn_Gamma,rate_pn")

def _as_bool(raw):
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _as_pair(raw):
    parts = [float(p) for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError(raw)
    return tuple(parts)


# The section and parser of every config key; the defaults live on RunConfig.
_KEYS = {
    "example": ("problem", int), "epsilon": ("problem", float),
    "omega": ("problem", float), "mode": ("problem", str),
    "u_lower": ("problem", float), "u_upper": ("problem", float),
    "c12_direction": ("problem", _as_pair), "coarse": ("problem", str),
    "levels": ("study", lambda raw: tuple(int(p) for p in raw.split(","))),
    "reference": ("study", int), "pdas_max_iter": ("study", int),
    "directory": ("output", str), "csv": ("output", _as_bool),
    "markdown": ("output", _as_bool), "vtk": ("output", _as_bool),
    "matrices": ("output", _as_bool),
}


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
    base = example3_mesh(0, coarse).num_elements
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
    reference: int = None        # examples 2 and 3: element count of the reference
    pdas_max_iter: int = 50
    directory: str = "out"
    csv: bool = True
    markdown: bool = False
    vtk: bool = False
    matrices: bool = False
    # the ProblemData and (example 1) ManufacturedCase, built from the fields
    data: object = dataclasses.field(default=None, init=False, repr=False, compare=False)
    case: object = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.example not in (1, 2, 3):
            raise ConfigError(f"unknown example id {self.example!r}")
        if self.mode not in ("full", "variational"):
            raise ConfigError(f"unknown control mode {self.mode!r}")
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
        if self.example == 1 and self.reference is not None:
            raise ConfigError("example 1 takes no reference: it has a closed form")
        if self.example in (2, 3) and self.reference is None:
            raise ConfigError("examples 2 and 3 need a reference element count")
        if self.reference is not None and self.reference <= levels[-1]:
            raise ConfigError("reference mesh must be deeper than the deepest study level")
        self._validate_chain()
        self.data, self.case = _example_data(self)

    @property
    def counts(self) -> tuple:
        """Element counts the study solves: the levels, then the reference
        when there is one."""
        return self.levels + (() if self.reference is None else (self.reference,))

    def _validate_chain(self):
        base = self.counts[0]
        for m in self.counts:
            _mesh_level(self.example, m, self.coarse)
            ratio = m // base
            # uniform refinement multiplies the count by 4 per level
            power_of_four = not (ratio & (ratio - 1)) and ratio.bit_length() % 2 == 1
            if base * ratio != m or not power_of_four:
                raise ConfigError(f"{m} does not lie on the refinement chain of {base}")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        # values are read as written: no '%' interpolation
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:  # duplicates, stray lines
            raise ConfigError(f"malformed config file: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        sections = {section for section, _ in _KEYS.values()}
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown config section [{section}]")
            extra = {key for key in parser[section] if _KEYS.get(key, ("",))[0] != section}
            if extra:
                raise ConfigError(
                    f"unknown keys in [{section}]: {', '.join(sorted(extra))}")
        for key in ("example", "levels"):
            if not parser.has_option(_KEYS[key][0], key):
                raise ConfigError(f"config must set {key} under [{_KEYS[key][0]}]")
        present = {}
        for key, (section, parse) in _KEYS.items():
            if parser.has_option(section, key):
                raw = parser[section][key].strip()
                try:
                    present[key] = parse(raw)
                except (ValueError, KeyError) as exc:
                    raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        return cls(**present)

    def resolve_output_dir(self) -> str:
        root = os.environ.get(OUTPUT_ROOT_VAR)
        if root and not os.path.isabs(self.directory):
            return os.path.join(root, self.directory)
        return self.directory


def _example_data(config: RunConfig):
    """Problem data and (for the closed-form case) the exact solution of a
    config; the data's own ValueError becomes a ConfigError."""
    overrides = {key: getattr(config, key)
                 for key in ("omega", "u_lower", "u_upper", "c12_direction")
                 if getattr(config, key) is not None}
    try:
        if config.example == 1:
            # the closed-form solution depends on omega, so it stays in the case
            case = manufactured_example1(config.epsilon, overrides.pop("omega", 1.0))
            return case.problem_data(**overrides), case
        data = (example2_data(config.epsilon) if config.example == 2
                else example3_data(config.epsilon))
        return dataclasses.replace(data, **overrides), None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _mesh_chain(config: RunConfig) -> list:
    """The meshes of ``config.counts``, in order, nested along one
    uniform-refinement chain (the config has checked that they lie on it)."""
    if config.example in (1, 2):
        mesh = build_unit_square_mesh(_mesh_level(config.example, config.counts[0]))
    else:
        mesh = example3_mesh(0, coarse=config.coarse)
    chain = []
    for m in config.counts:
        while mesh.num_elements < m:
            mesh = refine_uniform(mesh)
        chain.append(mesh)
    return chain


def _solve_level(mesh, data, config: RunConfig, elements: int, start=None):
    """Assemble one level and solve it, from ``start`` (a solution on an
    ancestor mesh, see ``pdas_solve``) or from a cold start.  The level's
    operators, its factor of S with them, go on return: the solution does
    not hold them."""
    ops = assemble_forms(mesh, data)
    try:
        return pdas_solve(ops, data, mode=config.mode, u0=start,
                          max_iter=config.pdas_max_iter)
    except PdasNonconvergence as exc:
        raise PdasNonconvergence(
            f"level with {elements} elements: {exc}") from exc


def run_example(config: RunConfig, keep_solutions: list = None) -> ErrorReport:
    """Run a study: solve ``config.counts`` from coarse to fine on one
    refinement chain, each level started from the solution of the level
    below (nested iteration), and measure each study level against the
    closed form (example 1) or the reference, solved last (examples 2, 3).

    Appends (elements, mesh, solution) per study level to
    ``keep_solutions`` when a list is passed, for callers that also emit
    fields or matrices.  Each level's operators live only for its solve
    (``_solve_level``): the level above starts from the solution's control
    and multiplier, and the rows read only the solution's fields and
    boundary tables.  So no other level's factor or assembled matrix is
    alive while one is built.
    """
    solved, sol = [], None
    for m, mesh in zip(config.counts, _mesh_chain(config)):
        sol = _solve_level(mesh, config.data, config, m, start=sol)
        solved.append((m, mesh, sol))
    reference = solved.pop()[2] if config.reference is not None else None
    report = ErrorReport()
    for m, mesh, sol in solved:
        report.add_row(closed_form_row(sol, config.case) if reference is None
                       else reference_compare(sol, reference))
    if keep_solutions is not None:
        keep_solutions.extend(solved)
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
    be = mesh.boundary_edges
    by_start = np.empty(mesh.num_vertices, dtype=be.dtype)
    by_start[mesh.edges[be, 0]] = be
    successor = np.empty(mesh.num_edges, dtype=be.dtype)
    successor[be] = by_start[mesh.edges[be, 1]]
    successor = successor.tolist()
    loop = [int(be[0])]
    for _ in range(len(be) - 1):
        loop.append(successor[loop[-1]])
    return np.array(loop)


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
    loop = _boundary_loop(mesh)
    a, b = (mesh.vertices[mesh.edges[loop, end]] for end in range(2))
    d = b - a
    length = np.hypot(d[:, 0], d[:, 1])
    arc = np.cumsum(length)  # adds edge by edge: the exact running sum
    rows = np.empty((len(loop), 2, 4))  # (edge, end, column)
    rows[:, 0, 0], rows[:, 1, 0] = np.concatenate(([0.0], arc[:-1])), arc
    rows[:, 0, 1:3], rows[:, 1, 1:3] = a, a + d
    rows[:, :, 3] = sol.control_on_edge(loop[:, None], [0.0, 1.0])
    with open(target, "w") as fh:
        fh.write("# arclength x1 x2 u\n")
        fh.write(_text_lines("%.16e %.16e %.16e %.16e\n", rows.reshape(-1, 4)))
    files.append(target)
    return files


def _emit_matrices(sol, path):
    """Write the blocks of a solution's level in Matrix Market format,
    from a fresh assembly (``DiscreteSolution.ops``)."""
    os.makedirs(path, exist_ok=True)
    ops = sol.ops
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
    ops = assemble_forms(mesh, data)

    factor = _reduction(ops).factor
    dual_gap = 0.0
    for _ in range(5):
        r1 = rng.standard_normal(factor.order.size)
        r2 = rng.standard_normal(factor.order.size)
        x = factor.solve(r1)
        w = factor.solve(r2, trans="T")
        scale = max(1.0, abs(r2 @ x))
        dual_gap = max(dual_gap, abs(r2 @ x - r1 @ w) / scale)
    yield ("forward/adjoint solves of the state operator are mutually transposed",
           dual_gap < 1e-10, f"max gap {dual_gap:.2e}")

    n_u = ops.M_Gamma.shape[0]
    worst = 0.0
    for _ in range(3):
        rep = fd_gradient_check(ops, np.zeros(n_u), rng.standard_normal(n_u))
        worst = max(worst, rep.mismatch)
    yield ("adjoint gradient matches finite differences",
           worst <= 1e-7, f"max mismatch {worst:.2e}")

    data2 = example2_data()
    mesh2 = build_unit_square_mesh(8)
    ops2 = assemble_forms(mesh2, data2)
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

    coarse_mesh = build_unit_square_mesh(4)
    fine_mesh = refine_uniform(coarse_mesh)
    ops_c, ops_f = (assemble_forms(m, data2) for m in (coarse_mesh, fine_mesh))
    gaps, steps = [], []
    for mode in ("full", "variational"):
        cold = pdas_solve(ops_f, data2, mode=mode)
        warm = pdas_solve(ops_f, data2, mode=mode, u0=pdas_solve(ops_c, data2, mode=mode))
        gaps.append(max(np.abs(a - b).max() / np.abs(a).max() for a, b in (
            (cold.control_at_quadrature(), warm.control_at_quadrature()),
            (cold.y.coefficients, warm.y.coefficients),
            (cold.z.coefficients, warm.z.coefficients))))
        steps.append((warm.iterations, cold.iterations))
    yield ("nested start: a solve started from the level below matches a cold start",
           max(gaps) <= 1e-10 and all(w <= c for w, c in steps),
           f"{coarse_mesh.num_elements} -> {fine_mesh.num_elements} elements, max relative "
           f"difference {max(gaps):.1e}, steps warm/cold full "
           + ", variational ".join(f"{w}/{c}" for w, c in steps))

    mesh_nd = build_unit_square_mesh(32)
    factor = _reduction(assemble_forms(mesh_nd, example2_data())).factor
    errors, S = [], factor.matrix  # gathered back from the factor's permuted copy
    for trans, op in (("N", S), ("T", S.T)):
        b = rng.standard_normal(op.shape[0])
        errors.append(np.linalg.norm(op @ factor.solve(b, trans=trans) - b) / np.linalg.norm(b))
    yield ("the state factor in nested-dissection order solves S and S' without refinement",
           factor.sweeps == 0 and max(errors) <= 1e-10,
           f"{mesh_nd.num_elements} elements, fill {factor.fill}, {factor.sweeps} sweeps, "
           f"residuals {errors[0]:.1e} / {errors[1]:.1e}")


# ---------------------------------------------------------------------------
# entry points


def _cmd_run(args) -> int:
    config = RunConfig.from_file(args.config)
    outdir = config.resolve_output_dir()
    # before any solve: a study must not run for an unwritable directory
    os.makedirs(outdir, exist_ok=True)
    # a kept solution holds its fields and boundary tables, not its level's
    # operators; the matrix output assembles its level again
    keep = [] if config.vtk or config.matrices else None
    report = run_example(config, keep_solutions=keep)
    written = []
    if config.csv:
        written.append(emit_table(report, "csv", os.path.join(outdir, "table.csv")))
    if config.markdown:
        written.append(emit_table(report, "markdown", os.path.join(outdir, "table.md")))
    if config.vtk:
        for m, mesh, sol in keep:
            written += emit_fields(sol, mesh, os.path.join(outdir, f"fields_{m}"))
    if config.matrices:
        m, _mesh, sol = keep[0]
        _emit_matrices(sol, os.path.join(outdir, f"matrices_{m}"))
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

    p_dump = sub.add_parser("dump-mesh", help="write the mesh of a count as text "
                            "(examples 1, 2: a study's mesh at its first level only)")
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
    except OSError as exc:  # an output: the config reader skips a file it cannot open
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except PdasNonconvergence as exc:
        print(f"active-set iteration failed: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"linear solve failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
