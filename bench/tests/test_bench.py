"""Tests of the benchmark itself: every output check rejects a perturbed
output, and the tracer's spans partition the traced time.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import gravent.cli  # noqa: E402
import gravent.dynamics  # noqa: E402
import gravent.negativity  # noqa: E402
import gravent.sweep  # noqa: E402


def preset(name: str) -> dict:
    return json.loads((ROOT / "src" / "gravent" / "presets" / f"{name}.json")
                      .read_text())


def cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return gravent.cli.main(list(argv))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("outputs")
    for cmd in (*run.WORKLOADS["closed_form"],
                *run.WORKLOADS["oracle_dynamics"]):
        assert cli(*cmd.argv, "--out", str(out)) == 0
    return out


@pytest.fixture
def copy(outputs, tmp_path) -> Path:
    out = tmp_path / "copy"
    shutil.copytree(outputs, out)
    return out


def edit_csv(path: Path, column: str, rows, change) -> None:
    """Apply change(value) to `column` at the given data rows."""
    lines = path.read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    k = lines[head].split(",").index(column)
    for r in np.atleast_1d(rows):
        cells = lines[head + 1 + r].split(",")
        cells[k] = repr(change(float(cells[k])))
        lines[head + 1 + r] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def swap_columns(path: Path, a: str, b: str) -> None:
    lines = path.read_text().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    names = lines[head].split(",")
    i, j = names.index(a), names.index(b)
    for n in range(head + 1, len(lines)):
        cells = lines[n].split(",")
        cells[i], cells[j] = cells[j], cells[i]
        lines[n] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CHECKED = [("check_sweep", "fig2"), ("check_sweep", "fig4"),
           ("check_dynamics_closed_form", "fig4"),
           ("check_dynamics_closed_form", "fig3b"),
           ("check_sweep", "fig5"), ("check_rate", "fig5"),
           ("check_feasibility", "sec5-feasibility"),
           ("check_oracle_dynamics", "fig3a"),
           ("check_oracle_variants", "fig6")]


@pytest.mark.parametrize("check,name", CHECKED)
def test_checks_pass_on_real_outputs(outputs, check, name):
    assert getattr(checks, check)(outputs, preset(name)) == []


# --- the benchmark's own closed form -----------------------------------------

def test_undamped_matrix_matches_decoupling_formula():
    rng = np.random.default_rng(7)
    g, t = rng.uniform(0, 2, 500), rng.uniform(0, 20, 500)
    np.testing.assert_allclose(checks.en_at_decoupling(g * t, t),
                               checks.en_pure_decoupled(g, t), atol=1e-13)


def test_closed_form_at_decoupling_is_the_decoupling_matrix():
    F, g_a, g_b = checks.drive_F({"delta": 0.5}), 1 / 48, 1.0
    t = checks.first_decoupling(F, np.arange(1, 4))
    g = checks.g_eff(F, g_a, g_b)
    np.testing.assert_allclose(
        checks.en_closed_form(F, g_a, g_b, t, 0.1, 0.05),
        checks.en_at_decoupling(g * t, t, 0.1, 0.05), atol=1e-12)


def test_dephasing_never_raises_matrix_en():
    phi = np.linspace(0, 3, 61)[:, None]
    gamma = np.linspace(0, 1, 11)[None, :]
    en = checks.en_at_decoupling(phi, 2.0, gamma, 0.1)
    assert np.all(np.diff(en, axis=1) <= 1e-14)


def test_g_eff_matches_quoted_turning_point():
    # fig5, s = 0.1733: EN peaks near g_b = 1.0607
    F = checks.drive_F({"delta": 0.5})
    slope = 2 * checks.g_eff(F, 1 / 48, 1.0) * checks.first_decoupling(F)
    assert math.isclose((math.pi / 2) / slope, 1.0607, abs_tol=1e-4)


# --- negative controls: each check rejects a perturbed output ---------------

def test_sweep_rejects_shifted_cell(copy):
    edit_csv(copy / "fig2_sweep.csv", "en", 57, lambda v: v + 1e-7)
    assert checks.check_sweep(copy, preset("fig2"))


def test_sweep_rejects_shifted_dephased_cell(copy):
    edit_csv(copy / "fig5_sweep.csv", "en", 300, lambda v: v - 1e-7)
    assert checks.check_sweep(copy, preset("fig5"))


def test_sweep_rejects_wrong_validity(copy):
    edit_csv(copy / "fig4_sweep.csv", "valid", 3, lambda v: 0)
    assert checks.check_sweep(copy, preset("fig4"))


def test_gamma_monotonicity_rejects_a_rise():
    grid = np.array([[0.5, 0.4], [0.3, 0.41], [0.2, 0.1]])
    assert checks.check_gamma_monotone("grid", grid)
    assert checks.check_gamma_monotone("grid", np.sort(grid, axis=0)[::-1]) \
        == []


def test_range_rejects_en_above_one_and_below_zero():
    assert checks.check_range("en", [0.2, 1.001])
    assert checks.check_range("en", [-1e-6, 0.5])
    assert checks.check_range("en", [np.nan])


def test_dynamics_rejects_swapped_gamma_variants(copy):
    swap_columns(copy / "fig4_dynamics.csv", "gamma=0.1:tp_qubit:analytic",
                 "gamma=0.2:tp_qubit:analytic")
    problems = checks.check_dynamics_closed_form(copy, preset("fig4"))
    assert any("rises" in p for p in problems)


def test_dynamics_rejects_missing_curve_file(copy):
    (copy / "fig3b_dynamics_delta=0.5_tp_qubit_analytic.dat").unlink()
    assert checks.check_dynamics_closed_form(copy, preset("fig3b"))


def test_dynamics_rejects_shift_between_decoupling_times(copy):
    # t = 0.05 * 121 lies between the decoupling times of every variant
    edit_csv(copy / "fig3b_dynamics.csv", "delta=0.5:tp_qubit:analytic", 121,
             lambda v: v + 1e-7)
    edit_csv(copy / "fig3b_dynamics_delta=0.5_tp_qubit_analytic.dat",
             "delta=0.5:tp_qubit:analytic", 121, lambda v: v + 1e-7)
    problems = checks.check_dynamics_closed_form(copy, preset("fig3b"))
    assert any("vs closed form" in p for p in problems)


def test_decoupling_check_reports_a_grid_that_misses_t_n():
    table = {"t": np.linspace(0.1, 5.0, 7), "en": np.zeros(7)}
    cell = {"F": 0.0, "g_a": 1 / 48, "g_b": 1.0, "gamma": 0.0,
            "gamma_tp": 0.0}
    assert checks.check_at_decoupling("grid", table, cell, "en", 1e-9)


def test_dynamics_rejects_value_above_one(copy):
    edit_csv(copy / "fig3b_dynamics.csv", "delta=0.2:tp_qubit:analytic", 9,
             lambda v: 1.5)
    assert checks.check_dynamics_closed_form(copy, preset("fig3b"))


def test_rate_rejects_moved_turning_point(copy):
    path = copy / "fig5_rate.json"
    data = json.loads(path.read_text())
    data["zero_crossings"]["s=0.1733"] = [1.04]
    path.write_text(json.dumps(data))
    assert checks.check_rate(copy, preset("fig5"))


def test_rate_rejects_turning_point_without_drive(copy):
    path = copy / "fig5_rate.json"
    data = json.loads(path.read_text())
    data["zero_crossings"]["s=0"] = [1.5]
    path.write_text(json.dumps(data))
    assert checks.check_rate(copy, preset("fig5"))


def test_feasibility_rejects_failed_golden(copy):
    path = copy / "sec5-feasibility_feasibility.json"
    data = json.loads(path.read_text())
    data["golden"]["all_pass"] = False
    path.write_text(json.dumps(data))
    assert checks.check_feasibility(copy, preset("sec5-feasibility"))


def good_report() -> dict:
    return {"all_pass": True, "checks": [
        {"name": n, "passed": True, "skipped": False, "max_dev": 1e-12,
         "tol": 1e-10, "extra": "ignored"} for n in checks.VALIDATE_CHECKS]}


@pytest.mark.parametrize("spoil", [
    lambda r: r["checks"].pop(2),
    lambda r: r["checks"][5].update(skipped=True),
    lambda r: r["checks"][0].update(max_dev=2e-10),
    lambda r: r["checks"][1].update(passed=False),
    lambda r: r["checks"][3].update(max_dev=None),
])
def test_validate_rejects_spoiled_report(spoil):
    report = good_report()
    assert checks.check_validate_report(report) == []
    spoil(report)
    assert checks.check_validate_report(report)


def test_oracle_rejects_fock_off_the_closed_form(copy):
    edit_csv(copy / "fig3a_dynamics.csv", "base:tp_qubit:fock", 77,
             lambda v: v + 2e-3)
    assert checks.check_oracle_dynamics(copy, preset("fig3a"))


def test_oracle_rejects_mediator_entangled_at_decoupling(copy):
    edit_csv(copy / "fig3a_dynamics.csv", "base:qubit_mediator:fock", 120,
             lambda v: 0.01)
    assert checks.check_oracle_dynamics(copy, preset("fig3a"))


def test_oracle_rejects_drive_dependent_curve(copy):
    edit_csv(copy / "fig6_dynamics.csv", "eps=1:tp_qubit:fock", 40,
             lambda v: v + 2e-3)
    assert checks.check_oracle_variants(copy, preset("fig6"))


def test_nonzero_exit_is_a_problem(outputs):
    results = [{"index": 0, "exit": 1, "error": "check failed"}]
    failed = run.check_pass(checks, run.WORKLOADS["oracle_validate"],
                            {"fig3a": preset("fig3a")}, results, outputs)
    assert failed == 1
    assert results[0]["problems"] == ["exit code 1: check failed"]


# --- tracer -------------------------------------------------------------------

def test_uninstall_restores_every_binding():
    before = gravent.sweep.partial_transpose_matrix
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert gravent.sweep.partial_transpose_matrix is not before
        assert gravent.dynamics.partial_transpose_matrix is \
            gravent.sweep.partial_transpose_matrix
    finally:
        tracer.uninstall()
    assert gravent.sweep.partial_transpose_matrix is before
    assert gravent.dynamics.partial_transpose_matrix is before


def test_spans_partition_the_traced_time(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli("sweep", "--preset", "fig2", "--out", str(tmp_path)) == 0
    finally:
        tracer.uninstall()
    figures = spans.layer_metrics(tracer)
    total = sum(v for k, v in figures.items() if k.endswith("_s"))
    assert math.isclose(total, spans.root_total(tracer), rel_tol=1e-9)
    assert figures["sweep.cells"] == 200
    assert figures["dynamics.pt_matrix_calls"] == 200
    assert figures["negativity.en_calls"] == 200
    assert figures["io.files_written"] == 2
    assert figures["fock.cutoff_useful_ratio"] == 1.0


def test_en_inside_a_bipartition_belongs_to_the_cut():
    psi = np.ones(2 * 2 * 4, complex) / 4.0
    tracer = spans.Tracer()
    tracer.install()
    try:
        gravent.negativity.en_bipartition(psi, (2, 2, 4), (0,), (2,))
    finally:
        tracer.uninstall()
    assert [s.group for s in tracer.spans] == ["negativity.bipartition"]
    assert spans.layer_metrics(tracer)["negativity.bipartition_dim_max"] == 8


def test_cutoff_rejections_are_counted():
    from gravent.dynamics import MediatorInit
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(gravent.errors.CutoffTooSmall):
            gravent.fock.prepare_initial(MediatorInit(alpha0=3.0), 4)
        gravent.fock.prepare_initial(MediatorInit(alpha0=0.0, xi_mag=0.0),
                                     8)
    finally:
        tracer.uninstall()
    figures = spans.layer_metrics(tracer)
    assert figures["fock.state_prep_calls"] == 2
    assert figures["fock.state_prep_rejected"] == 1
    assert figures["fock.cutoff_useful_ratio"] == 0.5
    assert figures["fock.cutoff_max"] == 8


def test_missing_function_makes_its_metric_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(gravent.sweep, "entanglement_rate")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli("sweep", "--preset", "fig2", "--out", str(tmp_path)) == 0
    finally:
        tracer.uninstall()
    figures = spans.layer_metrics(tracer)
    assert "sweep.rate" in tracer.absent
    assert "sweep.rate_s" not in figures and "sweep.run_s" in figures


def test_pass_time_is_the_nearest_rank_90th_percentile():
    assert run.pass_time([3.0, 1.0, 2.0]) == 3.0
    assert run.pass_time([float(k) for k in range(1, 31)]) == 27.0


def test_overhead_pairs_each_traced_pass_with_its_untraced_one():
    assert run.paired_overhead([1.1, 2.2, 0.9], [1.0, 2.0, 0.5]) == \
        pytest.approx(0.2)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = set(spans.layer_metrics(spans.Tracer())) | \
        {"trace.pass_s", "trace.overhead_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "pass_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
