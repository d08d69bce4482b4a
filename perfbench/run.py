"""Study-level benchmark of ``ldgcontrol run``.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # the three studies, summary table

A run writes the workload's INI file for the seed, then runs studies, each
``ldgcontrol.cli.main(["run", INI])`` in a fresh interpreter
(``perfbench/study.py``), as many as end within ``--seconds`` (at least one).

* ``--trace 0`` times the studies with tracing off and first times a fresh
  interpreter importing ``ldgcontrol.cli`` and parsing the INI (set-up).  It
  reports the end-to-end metrics: ``study_s``, ``setup_s`` and
  ``peak_rss_mb`` as medians over the run.
* ``--trace 1`` runs the studies under the tracer and reports the
  per-layer metrics, ``trace.overhead_s`` (the wrappers' estimated cost)
  among them.

A study fails on a non-zero exit code, an exception, a killed or timed-out
process, a violated KKT certificate, or (seed 0 only) a ``table.csv`` that is
not byte-identical to ``perfbench/golden/<workload>.csv``.  Failures are
counted, never skipped.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
whole run record goes to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

# A run must end within 180 s; a study still running at this point is
# killed and counted as failed.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 9
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = "import sys; from ldgcontrol import cli; cli.RunConfig.from_file(sys.argv[1])"

# The paper's data for examples 1 and 2, and how far a seed other than 0 may
# move it: +-0.01 % kept every PDAS iteration count and solve path of seed 0
# over 40 seeds, and +-0.1 % did not.
PAPER_OMEGA = 1.0
PAPER_U_UPPER = 0.2
SEED_SPREAD = 0.0001


@dataclasses.dataclass(frozen=True)
class Workload:
    example: int
    mode: str
    epsilon: float
    levels: tuple
    reference: int = None

    def config_text(self, seed, directory):
        """INI text of this workload's study for one seed."""
        lines = ["[problem]", f"example = {self.example}",
                 f"epsilon = {self.epsilon!r}", f"mode = {self.mode}"]
        if seed:
            rng = random.Random(seed)
            lines.append(f"omega = {PAPER_OMEGA * (1 + SEED_SPREAD * rng.uniform(-1, 1))!r}")
            if self.example == 2:
                lines.append(
                    f"u_upper = {PAPER_U_UPPER * (1 + SEED_SPREAD * rng.uniform(-1, 1))!r}")
        lines += ["", "[study]", "levels = " + ", ".join(map(str, self.levels))]
        if self.reference:
            lines.append(f"reference = {self.reference}")
        lines += ["", "[output]", f"directory = {directory}", ""]
        return "\n".join(lines)


# Why each workload is here is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "ex2-full-ref8192": Workload(2, "full", 1.0, (32, 128, 512), 8192),
    "ex2-var-ref8192": Workload(2, "variational", 1.0, (32, 128, 512), 8192),
    "ex1-eps1e-6-8192": Workload(1, "full", 1e-6, (32, 128, 512, 2048, 8192)),
    # Not in BENCHMARK.json: one study takes ~50 s.  Its seed-0 trace in
    # perfbench/baseline/ records the 2048-monolithic / 8192-condensed fill
    # inversion.
    "ex2-full-2048-ref8192": Workload(2, "full", 1.0, (32, 128, 512, 2048), 8192),
    # The harness tests' workload; a study takes a few seconds.
    "tiny": Workload(2, "full", 1.0, (32, 128), 512),
}

# What ``--workload all`` runs.  BENCHMARK.json lists the first and the last:
# a comparison of two commits runs each listed workload 22 times within
# 3420 s, which at 55 s per run leaves room for two.
STUDIES = ("ex2-full-ref8192", "ex2-var-ref8192", "ex1-eps1e-6-8192")


def nproc():
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def child_env():
    """Environment of every child interpreter: this checkout's sources, BLAS
    threads capped at nproc."""
    env = dict(os.environ)
    env.update({var: str(nproc()) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def environment():
    revision = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        revision = proc.stdout.strip() or revision
    return {"revision": revision, "python": platform.python_version(),
            "nproc": nproc(), "blas_threads": nproc()}


def median_and_tail(values):
    """Median, sample count, and the highest of p99/p95/p90/p75 that has at
    least ten samples beyond it (None when the run is too short)."""
    values = sorted(values)
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return statistics.median(values), n, (p, statistics.quantiles(values, n=100)[p - 1])
    return statistics.median(values), n, None


def measure_setup(config, env, deadline):
    """Wall seconds of fresh interpreters importing the CLI and parsing the
    INI: one warm-up, then SETUP_REPEATS timed."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        if i:
            times.append(elapsed)
    return times


def run_one_study(workload_name, seed, config, table, trace, env, deadline):
    """One study in a fresh interpreter; returns its record with 'failure'
    set to None or to the reason it failed."""
    result = table.parent / "result.json"
    for stale in (table, result):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "study.py"), str(config), str(result),
           "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return {"trace": trace, "returncode": -signal.SIGKILL,
                "failure": "timed out; killed"}
    if proc.returncode != 0 or not result.exists():
        return {"trace": trace, "returncode": proc.returncode,
                "failure": f"study process exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}"}
    record = json.loads(result.read_text())
    record["trace"] = trace
    record["table"] = table.read_bytes().decode() if table.exists() else None
    record["failure"] = study_failure(record, workload_name, seed)
    return record


def study_failure(record, workload_name, seed):
    if record["error"]:
        return "exception: " + record["error"].strip().splitlines()[-1]
    if record["exit_code"] != 0:
        return f"ldgcontrol run exited with {record['exit_code']}"
    if record["violations"]:
        return "certificate: " + "; ".join(record["violations"][:5])
    if record["table"] is None:
        return "no table.csv written"
    if seed == 0:
        golden = GOLDEN / f"{workload_name}.csv"
        if not golden.exists():
            return f"no golden table {golden.name}"
        if golden.read_bytes() != record["table"].encode():
            return f"table.csv differs from golden {golden.name}"
    return None


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns (result object, full record)."""
    workload = WORKLOADS[name]
    env = child_env()
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    work.mkdir()
    try:
        config = work / "study.ini"
        config.write_text(workload.config_text(seed, work / "table"))
        table = work / "table" / "table.csv"
        (work / "table").mkdir()
        studies, setup = [], []
        if not trace:
            try:
                setup = measure_setup(config, env, deadline)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                studies.append({"trace": False, "failure": f"set-up: {exc}"})
        # Start another study only if it should end within the window, so a
        # run's wall time stays near set-up plus --seconds.
        loop_start = time.monotonic()
        longest = 0.0
        while not studies or (time.monotonic() - loop_start + longest <= seconds
                              and not any(s["failure"] for s in studies)):
            study_start = time.monotonic()
            studies.append(run_one_study(name, seed, config, table, bool(trace), env, deadline))
            longest = max(longest, time.monotonic() - study_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in studies if s["failure"])
    good = [s for s in studies if not s["failure"]]
    metrics = {}
    if good and trace:
        for key in good[0]["layers"]:
            values = [s["layers"][key] for s in good]
            metrics[key] = statistics.median(values) if key.endswith("_s") else values[0]
    elif good:
        metrics = {"study_s": statistics.median(s["study_s"] for s in good),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good)}
    result = {
        "correct": failed == 0 and bool(metrics), "attempted": len(studies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "config": workload.config_text(seed, "table"),
              "environment": {**environment(),
                              **next(({k: s[k] for k in ("numpy", "scipy")}
                                      for s in studies if "numpy" in s), {})},
              "setup_s": setup, "studies": studies, "result": result,
              "wall_s": time.monotonic() - start}
    return result, record


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def summary_lines(name, seed, record):
    env = record["environment"]
    yield (f"# {name} seed {seed}: revision {env['revision']}, python {env['python']}, "
           f"numpy {env.get('numpy')}, scipy {env.get('scipy')}, nproc {env['nproc']}, "
           f"BLAS threads {env['blas_threads']}")
    for i, s in enumerate(record["studies"], 1):
        status = s["failure"] or "ok"
        if "study_s" in s:
            yield (f"#   study {i} ({'traced' if s['trace'] else 'untraced'}): "
                   f"{s['study_s']:.3f} s, {s['peak_rss_mb']:.1f} MB, "
                   f"{s['solves']} solves, {status}")
        else:
            yield f"#   study {i}: {status}"
    times = [s["study_s"] for s in record["studies"] if not s["failure"]]
    if times:
        med, n, tail = median_and_tail(times)
        tail_text = f", p{tail[0]} {tail[1]:.3f} s" if tail else ""
        yield f"# study_s median {med:.3f} s over {n} studies{tail_text}"
    result = record["result"]
    yield (f"# failed_frac {result['failed'] / result['attempted']:.3f} "
           f"({result['failed']} of {result['attempted']} studies)")
    for key, m in result["metrics"].items():
        yield f"# {key} = {m['value']:.6g} {m['unit']}"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Study-level benchmark of ldgcontrol run")
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or 'all' for "
                             f"{', '.join(STUDIES)}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, exit through SystemExit: subprocess.run then kills and
    # reaps the running study before the exception leaves it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ldgcontrol" / "cli.py").is_file():
        print(f"error: no ldgcontrol sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = list(STUDIES)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}")

    ok = True
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, args.trace)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        for line in summary_lines(name, args.seed, record):
            print(line)
        ok = ok and result["correct"]
    if len(names) == 1:
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
