"""End-to-end acceptance gate.

Every published number the package claims to reproduce is pinned here at
its stated tolerance, together with the analytic-vs-oracle equivalence
checks and the qualitative invariants that stand in for figure regions
without numeric tables.
"""

import json

import numpy as np
import pytest

from conftest import local_rotation, prepare_one
from gravent import (AxisSpec, MediatorInit, ModelParams, SweepSection,
                     TimeRule, derive_squeezed_frame, en_at_decoupling,
                     en_timeseries, load_preset,
                     log_negativity_from_partial_transpose,
                     partial_transpose_matrix, run_sweep)
from gravent import fock, validate
from gravent.cli import main
from gravent.config import resolve_si
from gravent.dynamics import branch_state
from gravent.params import regime_report
from gravent.presets import SEC5_GOLDEN, golden_check
from gravent.validate import (check_closed_form_at_tn,
                              check_epsilon_irrelevance,
                              check_overlap_closed_form, check_pt_matrix,
                              run_validation)


@pytest.fixture(scope="module")
def sec5():
    cfg = load_preset("sec5-feasibility")
    setup, params, frame = resolve_si(cfg)
    return cfg, setup, params, frame


class TestPublishedRates:
    """Derived SI rates against their published values, 0.1% relative."""

    def test_golden_rates(self, sec5):
        _, setup, params, frame = sec5
        report = regime_report(setup, frame)
        measured = {
            "g_a": params.g_a,
            "g_b": params.g_b,
            "s": frame.s,
            "omega_s": frame.omega_s,
            "g_a_s": frame.g_a_s,
            "g_b_s": frame.g_b_s,
            "g_eff": frame.g_eff,
            "delta_x": report.base["delta_x"],
        }
        failures = [f"{c.name}: {c.note} ({c.max_dev:.2e})"
                    for c in (golden_check(key, value)
                              for key, value in measured.items())
                    if not c.passed]
        assert not failures, "; ".join(failures)

    def test_regime_checks_all_pass(self, sec5):
        _, setup, _, frame = sec5
        assert regime_report(setup, frame).all_pass


class TestEntanglementWindow:
    """EN at the first decoupling time, clean and dephased."""

    def test_clean_value(self, sec5):
        cfg, _, _, frame = sec5
        init = MediatorInit(alpha0=cfg.mediator.alpha0,
                            xi_mag=cfg.mediator.xi_mag,
                            theta=cfg.mediator.theta)
        t1 = frame.t_period
        m = partial_transpose_matrix(frame, init, t1, gamma=0.0)
        en = log_negativity_from_partial_transpose(m)
        assert abs(en - 0.5224) <= 1e-3

    def test_dephased_value(self, sec5):
        cfg, _, _, frame = sec5
        init = MediatorInit(alpha0=cfg.mediator.alpha0,
                            xi_mag=cfg.mediator.xi_mag,
                            theta=cfg.mediator.theta)
        t1 = frame.t_period
        m = partial_transpose_matrix(frame, init, t1, gamma=0.01)
        en = log_negativity_from_partial_transpose(m)
        assert en <= 0.001 + 1e-3


@pytest.fixture(scope="module")
def undriven_oracle():
    params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.0)
    frame = derive_squeezed_frame(params)
    init = MediatorInit(alpha0=1.0 + 0.0j)
    t_n = [frame.decoupling_time(1), frame.decoupling_time(2)]
    [curves], rep = fock.converge_cutoff([(params, init, t_n, "squeezed")],
                                         1e-8, 2, 512, en_tol=1e-4)
    return params, frame, init, t_n, curves, rep


class TestOracleEquivalence:
    """Independent Fock evolution against the closed form, undriven."""

    def test_converges_within_budget(self, undriven_oracle):
        *_, rep = undriven_oracle
        assert rep.n[0] <= 64

    def test_en_at_decoupling_matches_closed_form(self, undriven_oracle):
        _, frame, _, t_n, curves, _ = undriven_oracle
        for t, en_fock in zip(t_n, curves["tp_qubit"]):
            assert abs(en_fock - en_at_decoupling(frame.g_eff, t)) <= 1e-3

    def test_mediator_cuts_vanish_at_decoupling(self, undriven_oracle):
        params, _, init, t_n, _, rep = undriven_oracle
        n = rep.n[0]
        h = fock.build_hamiltonian_squeezed(params, n)
        psi0 = prepare_one(init, n, params)
        curves = fock.en_curves(h, psi0, t_n, n,
                                ("tp_mediator", "qubit_mediator"))
        assert curves["tp_mediator"].max() < 1e-3
        assert curves["qubit_mediator"].max() < 1e-3


class TestFrameShorthand:
    """Quoted squeezing values at round detunings, four decimals."""

    @pytest.mark.parametrize("delta,s_expect,ws_expect", [
        (0.5, 0.1733, 0.7071),
        (0.2, 0.4024, None),
    ])
    def test_quoted_values_at_round_detunings(self, delta, s_expect,
                                              ws_expect):
        p = ModelParams.dimensionless(g_a=0.02, g_b=1.0, delta=delta)
        f = derive_squeezed_frame(p)
        assert abs(f.s - s_expect) <= 5e-5
        if ws_expect is not None:
            assert abs(f.omega_s - ws_expect) <= 5e-5


@pytest.mark.parametrize("module,name,ceiling", [
    (validate, "OVERLAP_TOL", 1e-8), (validate, "PT_TOL", 1e-9),
    (validate, "EN_TOL", 1e-3), (fock, "TAIL_TOL", 1e-8),
    (fock, "EN_CONVERGENCE", 1e-4)])
def test_validate_tolerances_only_tighten(module, name, ceiling):
    """validate's policy is fixed in code; a tolerance may go down, and
    this ceiling with it, never up."""
    assert 0.0 < getattr(module, name) <= ceiling


class TestOverlapOracle:
    """Closed-form overlaps and the 4x4 transposed matrix vs brute force."""

    def test_displaced_overlaps(self):
        assert validate.OVERLAP_SAMPLES >= 200
        result = check_overlap_closed_form()
        assert result.passed, f"max dev {result.max_dev:.3e}"
        assert result.max_dev <= 1e-8

    def test_transposed_matrix_entrywise(self):
        assert validate.PT_SAMPLES >= 20
        result = check_pt_matrix()
        assert result.passed, f"max dev {result.max_dev:.3e}"
        assert result.max_dev <= 1e-9


class TestValidateFig3a:
    """`validate --preset fig3a` end to end: every check, in order, with
    the cutoff each oracle search accepted in its note."""

    NOTES = {
        "overlap_closed_form_vs_fock": "200 randomized tuples",
        "pt_matrix_vs_fock": "20 random frames, s <= 0.5",
        "en_timeseries_analytic_vs_fock":
            "N = 64, 25 times over two mediator periods",
        "mediator_decoupling_at_tn": "N = 32, first two decoupling times",
        "closed_form_at_tn": "first three decoupling times",
        "epsilon_irrelevance":
            "N = 96, lab-frame drive 0, 0.1, 1 in mediator units",
        "frame_equivalence": "N = 128 lab, 64 squeezed",
    }

    def test_decoupling_settles_at_the_configured_en_convergence(
            self, monkeypatch):
        """At fock.EN_CONVERGENCE = 1e-4 the mediator curves settle at
        N = 32."""
        monkeypatch.setattr(fock, "EN_CONVERGENCE", 1e-12)
        checks = {c.name: c for c in run_validation(
            load_preset("fig3a")).checks}
        assert checks["mediator_decoupling_at_tn"].note.startswith(
            "N = 64, ")

    def test_seven_checks_pass_at_pinned_cutoffs(self, tmp_path):
        assert main(["validate", "--preset", "fig3a", "--out",
                     str(tmp_path)]) == 0
        blob = json.loads((tmp_path / "fig3a_validate.json").read_text())
        assert blob["all_pass"] is True
        checks = blob["checks"]
        assert [c["name"] for c in checks] == list(self.NOTES)
        assert {c["name"]: c["note"] for c in checks} == self.NOTES
        for c in checks:
            assert c["passed"] and not c["skipped"]
            assert c["max_dev"] <= c["tol"]

    def test_seven_checks_pass_on_a_driven_base(self):
        """fig3b's base, fig3a's couplings at delta = 0.5 (s = 0.17): a
        frame that is not the identity, still within reach of both
        lab-frame checks."""
        report = run_validation(load_preset("fig3b"))
        assert report.base["s"] == pytest.approx(0.25 * np.log(2.0))
        assert report.base["s"] > 0
        assert [c.name for c in report.checks] == list(self.NOTES)
        for c in report.checks:
            assert c.passed and not c.skipped, c.note


class TestClosedFormAtDecoupling:
    """The closed-form check's reach at fig3a's couplings under its fixed
    1e-10: past s = 5 a float t_n is no longer an exact decoupling time.
    Making time a mediator phase must flip the failing cases on purpose,
    with this test."""

    @pytest.mark.parametrize("s,passes", [
        (0.0, True), (1.0, True), (3.0, True), (5.0, True),
        (6.0, False), (7.0, False)])
    def test_reach_is_pinned(self, s, passes):
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, s=s)
        result = check_closed_form_at_tn(params, MediatorInit())
        assert result.tol == 1e-10
        assert result.note == "first three decoupling times"
        assert result.passed is passes, f"max dev {result.max_dev:.3e}"


class TestLinearDriveIrrelevance:
    """A classical drive on the mediator must not move the EN curve."""

    def test_three_drives_coincide(self):
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.0)
        init = MediatorInit(alpha0=1.0 + 0.0j, xi_mag=0.0)
        result = check_epsilon_irrelevance(params, init)
        assert not result.skipped
        assert result.passed, f"max dev {result.max_dev:.3e}"
        assert result.max_dev <= 1e-3

    @pytest.mark.parametrize("delta", [0.2, 0.5])
    def test_driven_fig3a_reach_is_pinned(self, delta):
        """At fig3a's couplings the lab-frame oracle reaches delta = 0.5
        but not delta = 0.2 (s = 0.40), although the s <= 1 skip rule
        lets that point run.  A reach rule fixed before the run must
        change this outcome on purpose, with this test."""
        cfg = load_preset("fig3a")
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0,
                                           delta=delta)
        result = check_epsilon_irrelevance(params, cfg.mediator)
        assert not result.skipped
        if delta == 0.5:
            assert result.passed
            assert result.note.startswith("N = 192,")
            assert result.max_dev == pytest.approx(1.7e-8, rel=0.05)
        else:
            assert not result.passed and result.max_dev is None
            assert result.note.startswith(
                "no cutoff up to the ceiling N = 512 passes (")
            assert "N = 384: trajectory leaks at N = 384 in one parity " \
                "group (tail mass 3.011e-03)" in result.note


class TestPropertySuite:
    """Invariants standing in for figure regions with no numeric tables."""

    def test_branches_return_home_at_decoupling(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            p = ModelParams.dimensionless(g_a=rng.uniform(0.005, 0.05),
                                          g_b=rng.uniform(0.3, 1.2),
                                          F=rng.uniform(0.0, 0.24))
            f = derive_squeezed_frame(p)
            init = MediatorInit()
            t_n = [f.decoupling_time(n) for n in range(1, 11)]
            bs = branch_state(f, t_n)
            assert np.max(np.abs(bs.displacements)) < 1e-12
            for t, en in zip(t_n, en_timeseries(f, init, t_n)):
                assert abs(en - en_at_decoupling(f.g_eff, t)) <= 1e-10

    def test_local_phases_never_change_en(self):
        rng = np.random.default_rng(12)
        f = derive_squeezed_frame(
            ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.1))
        init = MediatorInit()
        for _ in range(10):
            t = rng.uniform(0.1, 2.0) * f.t_period
            rot = (rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
            m = partial_transpose_matrix(f, init, t)
            base = log_negativity_from_partial_transpose(m)
            moved = log_negativity_from_partial_transpose(
                local_rotation(m, t, *rot))
            assert abs(base - moved) <= 1e-12

    def test_dephasing_only_degrades(self):
        f = derive_squeezed_frame(
            ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.1))
        init = MediatorInit()
        t1 = f.t_period
        gammas = np.linspace(0.0, 5.0 / t1, 100)
        ens = [log_negativity_from_partial_transpose(
                   partial_transpose_matrix(f, init, t1, gamma=g))
               for g in gammas]
        assert all(b <= a + 1e-12 for a, b in zip(ens, ens[1:]))
        en_strong = log_negativity_from_partial_transpose(
            partial_transpose_matrix(f, init, t1, gamma=10.0 / t1))
        assert en_strong < 1e-3 < ens[0]

    def test_initial_amplitude_never_matters_at_decoupling(self):
        f = derive_squeezed_frame(
            ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.15))
        rng = np.random.default_rng(13)
        t1 = f.t_period
        ens = []
        for _ in range(10):
            init = MediatorInit(alpha0=complex(rng.normal(0, 1.5),
                                               rng.normal(0, 1.5)))
            ens.append(log_negativity_from_partial_transpose(
                partial_transpose_matrix(f, init, t1)))
        assert max(ens) - min(ens) < 1e-10

    def test_drive_response_is_not_monotone(self):
        """EN against the drive at zero dephasing has an interior turn."""
        spec = SweepSection(axes=(AxisSpec("F", 0.0, 0.24, 49),),
                            time=TimeRule("phase", cycles=1.0))
        res = run_sweep(spec, {"g_a": 0.020833333333333332, "g_b": 1.0,
                               "gamma": 0.0})
        assert res.valid.all()
        d = np.diff(res.en)
        assert np.any(d > 0.0) and np.any(d < 0.0)
        turn = np.flatnonzero(np.sign(d[:-1]) != np.sign(d[1:]))
        assert turn.size >= 1
        assert 0 < turn[0] + 1 < len(res.en) - 1

    def test_dephased_grid_decays_along_gamma(self):
        """Shape of the drive-dephasing map: each row falls with gamma."""
        spec = SweepSection(axes=(AxisSpec("F", 0.0, 0.24, 13),
                                  AxisSpec("gamma", 0.0, 0.4, 11)),
                            time=TimeRule("phase", cycles=1.0))
        res = run_sweep(spec, {"g_a": 0.020833333333333332, "g_b": 1.0})
        assert res.valid.all()
        rows = res.en
        assert np.all(np.diff(rows, axis=1) <= 1e-12)
        # strong dephasing wipes out most of the entanglement everywhere
        assert rows[:, 0].max() > 0.3
        assert rows[:, -1].max() < 0.1 * rows[:, 0].max()
