"""Tests of the benchmark harness on the ``tiny`` workload (seconds each).

Run with: python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import study  # noqa: E402
import tracer  # noqa: E402
from ldgcontrol import linsolve  # noqa: E402
from ldgcontrol.analysis import example2_data  # noqa: E402
from ldgcontrol.control import pdas_solve  # noqa: E402
from ldgcontrol.geometry import build_unit_square_mesh  # noqa: E402
from ldgcontrol.ldg import assemble_forms  # noqa: E402


def write_tiny_config(tmp_path):
    config = tmp_path / "study.ini"
    config.write_text(run.WORKLOADS["tiny"].config_text(0, tmp_path / "table"))
    return config


def test_wrappers_restore_the_originals():
    patches = tracer.Tracer().patches()
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    with pytest.raises(KeyError):
        with tracer.patched(patches):
            assert all(getattr(module, attr) is new for module, attr, new in patches)
            raise KeyError("study failed")
    assert all(getattr(module, attr) is old for module, attr, old in originals)


def test_traced_counters_agree(tmp_path):
    config = write_tiny_config(tmp_path)
    record = study.run_study(str(config), trace=True)
    assert record["exit_code"] == 0 and record["violations"] == []
    assert (tmp_path / "table" / "table.csv").read_bytes() == \
        (run.GOLDEN / "tiny.csv").read_bytes()

    layers, fact, pdas = record["layers"], record["factorizations"], record["pdas"]
    assert (layers["linsolve.solves"] == layers["control.pdas_iterations"]
            == record["solves"] == len(fact) == sum(p["solves"] for p in pdas)
            == layers["linsolve.monolithic_solves"] + layers["linsolve.condensed_solves"])
    assert layers["linsolve.lu_fill_total"] == sum(f["lu_nnz"] for f in fact)
    assert layers["linsolve.lu_fill_peak"] == max(f["lu_nnz"] for f in fact)
    assert layers["linsolve.dim_peak"] == max(f["n"] for f in fact)
    assert layers["control.ref_iterations"] == sum(
        p["solves"] for p in pdas if p["elements"] == 512)
    assert [p["elements"] for p in pdas] == [512, 32, 128]
    assert layers["ldg.assemble_calls"] == 3
    assert [p["upper"] for p in pdas] == [92, 22, 50]
    assert layers["analysis.point_evals"] > 0
    # self times partition the study's wall time
    assert all(layers[m] >= 0.0 for m in tracer.TIME_METRICS)
    assert sum(layers[m] for m in tracer.TIME_METRICS) == pytest.approx(record["study_s"])
    # the wrappers' estimated cost is positive and a small share of the study
    assert 0.0 < layers["trace.overhead_s"] < 0.05 * record["study_s"]


def small_example2():
    data = example2_data()
    return assemble_forms(build_unit_square_mesh(4), data=data), data


def test_certificate_reports_a_bound_violation():
    ops, data = small_example2()
    sol = pdas_solve(ops, data)
    assert study.certificate(sol) == []
    sol.u.coefficients[0] = data.u_upper + 1e-6
    assert any("leaves" in p for p in study.certificate(sol))


def wrong_recovery(monkeypatch):
    # the flux q enters neither the multiplier nor the PDAS stopping test
    recover = linsolve.CondensedSystem.recover

    def wrong_recover(self, x):
        parts = recover(self, x)
        parts["q"] = parts["q"] * 1.001
        return parts
    monkeypatch.setattr(linsolve.CondensedSystem, "recover", wrong_recover)


def wrong_condensed_operator(monkeypatch):
    # S = C + B^T A^-1 B, the operator the condensed solve acts with
    operators = linsolve._condensation_operators

    def wrong_operators(ops):
        Ainv, AinvB, S, Mt = operators(ops)
        return Ainv, AinvB, S * 1.001, Mt
    monkeypatch.setattr(linsolve, "_condensation_operators", wrong_operators)


@pytest.mark.parametrize("mode", ["full", "variational"])
@pytest.mark.parametrize("breakage", [wrong_recovery, wrong_condensed_operator])
def test_certificate_catches_a_wrong_condensed_solve(mode, breakage, monkeypatch):
    # The multiplier checks restate the PDAS stopping test, so only the
    # residual in the unreduced system can see these faults.
    ops, data = small_example2()
    assert study.certificate(pdas_solve(ops, data, mode=mode, strategy="condensed")) == []
    breakage(monkeypatch)
    problems = study.certificate(pdas_solve(ops, data, mode=mode, strategy="condensed"))
    assert problems and all("residual" in p for p in problems)


def test_golden_mismatch_is_a_failed_study(tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    golden.mkdir()
    text = (run.GOLDEN / "tiny.csv").read_text()
    (golden / "tiny.csv").write_text(text.replace("e-0", "e-1", 1))
    monkeypatch.setattr(run, "GOLDEN", golden)
    result, record = run.run_workload("tiny", seed=0, seconds=0, trace=0)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "differs from golden" in record["studies"][0]["failure"]
