"""Out-of-program tracing of one ``ldgcontrol run`` study.

Nothing under ``src/`` is edited.  The tracer swaps, for the duration of a
``with`` block, the module globals through which each layer calls the
next (``cli.assemble_forms``, ``control.solve_optimality_system``,
``linsolve.direct_solve``, ...) for wrappers that record a span or bump a
counter, and puts the originals back on exit, also when the study raises.

Layers and the entry points wrapped for them:

* geometry -- ``build_unit_square_mesh`` and ``refine_uniform`` as ``cli``
  calls them;
* ldg -- ``assemble_forms`` as ``cli`` calls it;
* control -- ``pdas_solve`` as ``cli`` calls it and ``evaluate_cost`` as
  ``control`` calls it;
* linsolve -- ``solve_optimality_system`` as ``control`` calls it, and inside
  ``linsolve`` the ``compose_kkt``/``condense_kkt`` system setups, ``direct_solve``
  and ``scipy.sparse.linalg.splu``;
* analysis -- ``reference_compare`` and the three error norms as ``cli`` calls
  them, plus plain call counters on ``eval_field``/``trace_on_edge`` as
  ``analysis`` calls them (a clock read per point evaluation would cost more
  than the evaluation).

Every time metric is a self time: a span's duration minus the time its
child spans cover.  Everything runs in one thread, so no span waits on
another and there is no queueing metric.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

# span name -> per-layer time metric that collects its self time
SPAN_METRIC = {
    "geometry.build_unit_square_mesh": "geometry.mesh_s",
    "geometry.refine_uniform": "geometry.mesh_s",
    "ldg.assemble_forms": "ldg.assemble_s",
    "control.pdas_solve": "control.pdas_s",
    "control.evaluate_cost": "control.cost_s",
    "linsolve.solve_optimality_system": "linsolve.self_s",
    "linsolve.compose_kkt": "linsolve.kkt_build_s",
    "linsolve.condense_kkt": "linsolve.kkt_build_s",
    "linsolve.direct_solve": "linsolve.triangular_s",
    "linsolve.splu": "linsolve.factor_s",
    "analysis.reference_compare": "analysis.error_s",
    "analysis.error_l2_domain": "analysis.error_s",
    "analysis.error_l2_boundary": "analysis.error_s",
    "analysis.error_flux_normal_boundary": "analysis.error_s",
}

TIME_METRICS = sorted(set(SPAN_METRIC.values())) + ["cli.self_s"]


class _ModuleProxy:
    """Stands in for a module object, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans, counters and solve records of one traced study."""

    def __init__(self):
        self.spans = []            # [name, parent index or None, start, end]
        self._stack = []
        self.counts = Counter()
        self.factorizations = []   # one dict per splu call
        self.pdas = []             # one dict per pdas_solve call
        self.assembled = []        # (elements, nnz of A, B, C, M1, M2)
        self._path = None          # solve path of the last KKT setup that ran
        self._elements = None      # mesh size of the current optimality solve
        self._active = None        # (lower, upper) of the previous solve in this PDAS

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- layer-specific wrappers ----------------------------------------------

    def _assemble(self, fn):
        def wrapper(*args, **kwargs):
            with self.span("ldg.assemble_forms"):
                ops = fn(*args, **kwargs)
            nnz = sum(getattr(ops, b).nnz for b in ("A", "B", "C", "M1", "M2"))
            self.assembled.append((ops.num_elements, int(nnz)))
            return ops
        return wrapper

    def _pdas(self, fn):
        def wrapper(ops, *args, **kwargs):
            self.pdas.append({"elements": ops.num_elements, "solves": 0,
                              "markers_moved": 0, "lower": 0, "upper": 0})
            self._active = None
            with self.span("control.pdas_solve"):
                return fn(ops, *args, **kwargs)
        return wrapper

    def _optimality(self, fn):
        # PDAS state is read off the ``active`` argument alone: the solver's
        # own iteration count is checked against it, never copied from it.
        def wrapper(ops, active, *args, **kwargs):
            record = self.pdas[-1]
            lower, upper = active.lower.copy(), active.upper.copy()
            if self._active is not None:
                record["markers_moved"] += int((lower != self._active[0]).sum()
                                               + (upper != self._active[1]).sum())
            self._active = (lower, upper)
            record.update(solves=record["solves"] + 1,
                          lower=int(lower.sum()), upper=int(upper.sum()))
            self._elements = ops.num_elements
            with self.span("linsolve.solve_optimality_system"):
                return fn(ops, active, *args, **kwargs)
        return wrapper

    def _kkt_setup(self, name, path, fn):
        timed = self._timed(name, fn)

        def wrapper(*args, **kwargs):
            self._path = path
            return timed(*args, **kwargs)
        return wrapper

    def _splu(self, fn):
        def wrapper(A, *args, **kwargs):
            with self.span("linsolve.splu") as record:
                lu = fn(A, *args, **kwargs)
            self.factorizations.append({
                "elements": self._elements, "path": self._path,
                "n": int(A.shape[0]), "nnz": int(A.nnz), "lu_nnz": int(lu.nnz),
                "seconds": record[3] - record[2],
            })
            return lu
        return wrapper

    def patches(self):
        """(module, attribute, replacement) for every wrapped entry point."""
        from ldgcontrol import analysis, cli, control, linsolve

        timed = self._timed
        return [
            (cli, "build_unit_square_mesh",
             timed("geometry.build_unit_square_mesh", cli.build_unit_square_mesh)),
            (cli, "refine_uniform", timed("geometry.refine_uniform", cli.refine_uniform)),
            (cli, "assemble_forms", self._assemble(cli.assemble_forms)),
            (cli, "pdas_solve", self._pdas(cli.pdas_solve)),
            (control, "evaluate_cost", timed("control.evaluate_cost", control.evaluate_cost)),
            (control, "solve_optimality_system",
             self._optimality(control.solve_optimality_system)),
            (linsolve, "compose_kkt",
             self._kkt_setup("linsolve.compose_kkt", "monolithic", linsolve.compose_kkt)),
            (linsolve, "condense_kkt",
             self._kkt_setup("linsolve.condense_kkt", "condensed", linsolve.condense_kkt)),
            (linsolve, "direct_solve", timed("linsolve.direct_solve", linsolve.direct_solve)),
            (linsolve, "spla", _ModuleProxy(linsolve.spla, splu=self._splu(linsolve.spla.splu))),
            (cli, "reference_compare",
             timed("analysis.reference_compare", cli.reference_compare)),
            (cli, "error_l2_domain", timed("analysis.error_l2_domain", cli.error_l2_domain)),
            (cli, "error_l2_boundary",
             timed("analysis.error_l2_boundary", cli.error_l2_boundary)),
            (cli, "error_flux_normal_boundary",
             timed("analysis.error_flux_normal_boundary", cli.error_flux_normal_boundary)),
            (analysis, "eval_field",
             self._counted("analysis.eval_field", analysis.eval_field)),
            (analysis, "trace_on_edge",
             self._counted("analysis.trace_on_edge", analysis.trace_on_edge)),
        ]

    # -- derived metrics -------------------------------------------------------

    def overhead_s(self):
        """Estimated seconds the wrappers added to the study.

        Every span and every counter bump is charged the per-call cost of an
        empty timed or counted wrapper over a bare call, measured in this
        process as the best of five batches of 10 000 calls.
        """
        def noop():
            pass

        calls, repeats = 10_000, 5

        probe = Tracer()
        costs = []
        for wrapped in (probe._timed("probe", noop), probe._counted("probe", noop)):
            best = float("inf")
            for _ in range(repeats):
                probe.spans.clear()
                start = time.perf_counter()
                for _ in range(calls):
                    wrapped()
                mid = time.perf_counter()
                for _ in range(calls):
                    noop()
                best = min(best, (mid - start) - (time.perf_counter() - mid))
            costs.append(max(best, 0.0) / calls)
        return len(self.spans) * costs[0] + sum(self.counts.values()) * costs[1]

    def self_times(self):
        """Self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, _parent, start, end), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def metrics(self, study_s, reference=None):
        """Per-layer metrics of a study that took ``study_s`` wall seconds.

        ``reference`` is the element count of the nested reference mesh, if
        the study has one.
        """
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for name, seconds in self.self_times().items():
            out[SPAN_METRIC[name]] += seconds
        roots = sum(end - start for _n, parent, start, end in self.spans if parent is None)
        out["cli.self_s"] = study_s - roots

        fact = self.factorizations
        finest = max(self.assembled) if self.assembled else (0, 0)
        out.update({
            "ldg.assemble_calls": len(self.assembled),
            "ldg.nnz_finest": finest[1],
            "linsolve.solves": sum(1 for span in self.spans
                                   if span[0] == "linsolve.direct_solve"),
            "linsolve.monolithic_solves": sum(f["path"] == "monolithic" for f in fact),
            "linsolve.condensed_solves": sum(f["path"] == "condensed" for f in fact),
            "linsolve.lu_fill_peak": max((f["lu_nnz"] for f in fact), default=0),
            "linsolve.lu_fill_total": sum(f["lu_nnz"] for f in fact),
            "linsolve.dim_peak": max((f["n"] for f in fact), default=0),
            "control.pdas_iterations": sum(r["solves"] for r in self.pdas),
            "control.ref_iterations": sum(r["solves"] for r in self.pdas
                                          if r["elements"] == reference),
            "control.markers_moved": sum(r["markers_moved"] for r in self.pdas),
            "analysis.point_evals": (self.counts["analysis.eval_field"]
                                     + self.counts["analysis.trace_on_edge"]),
            "trace.overhead_s": self.overhead_s(),
        })
        return out


@contextlib.contextmanager
def patched(patches):
    """Apply (module, attribute, replacement) patches; always undo them."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, replacement in patches:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def capture_solutions(into):
    """Patch that keeps every solution ``cli`` gets from ``pdas_solve``.

    It reads no clock, so an untimed study pays one extra Python call per
    mesh level for it.  The certificate is checked on the kept solutions
    after the timed region.
    """
    from ldgcontrol import cli

    solve = cli.pdas_solve

    def wrapper(*args, **kwargs):
        sol = solve(*args, **kwargs)
        into.append(sol)
        return sol
    return [(cli, "pdas_solve", wrapper)]
