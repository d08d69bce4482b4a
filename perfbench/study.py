"""One ``ldgcontrol run <config>`` study in its own interpreter.

Usage: python3 perfbench/study.py CONFIG RESULT_JSON --trace 0|1

The study is the user's command, ``ldgcontrol.cli.main(["run", CONFIG])``,
timed from entry to return.  ``--trace 1`` runs it under the
``tracer.Tracer`` wrappers.  Either way every solution ``cli`` gets back from
``pdas_solve`` is kept, and its KKT certificate is checked after the timed
region.  The result, with the peak RSS of this process at the moment the
study returned, goes to RESULT_JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import tracer as tracing
from ldgcontrol import cli
from ldgcontrol.control import reduced_gradient
from ldgcontrol.linsolve import compose_kkt

# Bounds hold to the tolerance DiscreteSolution itself enforces; the
# multiplier vanishes on the inactive set to the tolerance of the
# ``ldgcontrol check`` battery, relative to the multiplier's own size.  The
# solution satisfies the unreduced optimality system for its final active
# sets to KKT_TOL relative to the right-hand side; direct_solve drives its
# own system to 1e-10, and the flux-condensed recovery adds rounding.
BOUND_TOL = 1e-10
MULTIPLIER_TOL = 1e-8
KKT_TOL = 1e-8


def kkt_residual(sol):
    """Relative residual of a solution in the monolithic optimality system.

    The system is rebuilt by ``compose_kkt`` for the solution's final active
    sets, whichever path solved it, so a condensed solve is checked against
    the system it eliminated from, not against itself.
    """
    system = compose_kkt(sol.ops, sol.active, sol.data, mode=sol.mode)
    x = np.empty(system.dimension)
    for name, block in system.slices.items():
        x[block] = getattr(sol, name).coefficients
    return float(np.linalg.norm(system.matrix @ x - system.rhs)
                 / np.linalg.norm(system.rhs))


def certificate(sol):
    """Violations of the bound and sign conditions at one solution."""
    data = sol.data
    level = f"{sol.mesh.num_elements} elements"
    problems = []
    if not sol.converged:
        problems.append(f"{level}: PDAS did not converge")
    ua, ub = data.u_lower, data.u_upper
    tol = BOUND_TOL * max([1.0] + [abs(b) for b in (ua, ub) if np.isfinite(b)])
    u = sol.u.coefficients if sol.mode == "full" else np.asarray(sol.u, dtype=float)
    if np.any(u < ua - tol) or np.any(u > ub + tol):
        problems.append(f"{level}: control leaves [{ua}, {ub}]")
    residual = kkt_residual(sol)
    if not residual <= KKT_TOL:
        problems.append(f"{level}: optimality-system residual {residual:.2e}")
    grad = reduced_gradient(sol.ops, sol)
    lam = grad.nodal if sol.mode == "full" else grad.at_quadrature
    scale = max(1.0, float(np.abs(lam).max()))
    slack = MULTIPLIER_TOL * scale
    act = sol.active
    if act.inactive.any() and np.abs(lam[act.inactive]).max() > slack:
        problems.append(f"{level}: multiplier {np.abs(lam[act.inactive]).max():.2e} "
                        f"on the inactive set")
    if np.any(lam[act.lower] < -slack):
        problems.append(f"{level}: negative multiplier on the lower-active set")
    if np.any(lam[act.upper] > slack):
        problems.append(f"{level}: positive multiplier on the upper-active set")
    return problems


def run_study(config_path, trace):
    """Run and time one study; return its result record."""
    solutions = []
    tracer = tracing.Tracer() if trace else None
    error = None
    with tracing.patched(tracing.capture_solutions(solutions)), \
            tracing.patched(tracer.patches() if tracer else []):
        start = time.perf_counter()
        try:
            exit_code = cli.main(["run", config_path])
        except Exception:  # recorded as a failed study, never re-raised
            exit_code = None
            error = traceback.format_exc()
        study_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    violations = [p for sol in solutions for p in certificate(sol)]
    solves = sum(sol.iterations for sol in solutions)
    record = {
        "exit_code": exit_code, "error": error, "study_s": study_s,
        "peak_rss_mb": peak_rss_mb, "violations": violations,
        "solves": solves, "levels": [sol.mesh.num_elements for sol in solutions],
        "numpy": np.__version__, "scipy": scipy.__version__,
    }
    if tracer is not None:
        config = cli.RunConfig.from_file(config_path)
        record["layers"] = tracer.metrics(study_s, reference=config.reference)
        record["factorizations"] = tracer.factorizations
        record["pdas"] = tracer.pdas
        traced = record["layers"]["control.pdas_iterations"]
        if traced != solves:
            violations.append(f"traced {traced} PDAS iterations, solver reports {solves}")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_study(args.config, bool(args.trace))
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
