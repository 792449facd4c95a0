"""Parameter pipeline: setup validation, frame derivation, regime checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_validation
from gravent import (Check, ModelParams, PhysicalSetup, Report, UnstableFrame,
                     derive_model_params, derive_squeezed_frame,
                     regime_report)
from gravent.errors import NegativeSquaredFrequency
from gravent.params import drive_gap
from gravent.sweep import resolve_cell


def make_setup(**overrides):
    base = dict(m_a=5e-18, m_c=3e-14, d=1.8e-4, d0=5e-7, omega_c=1.2e4,
                omega_b=1e9, chi=1.0e15)
    base.update(overrides)
    return PhysicalSetup(**base)


class TestPhysicalSetup:
    def test_accepts_reasonable_inputs(self):
        s = make_setup()
        assert s.chi_value == 1.0e15
        assert not s.coulomb_active

    @pytest.mark.parametrize("field", ["m_a", "m_c", "d", "d0", "omega_c",
                                       "omega_b"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match="must be positive"):
            make_setup(**{field: 0.0})

    def test_rejects_wells_wider_than_separation(self):
        with pytest.raises(ValueError, match="d0 must be smaller"):
            make_setup(d0=2e-4)

    def test_warns_on_marginal_expansion(self):
        with pytest.warns(UserWarning, match="first-order"):
            make_setup(d0=0.5e-4)

    def test_charge_sign_conventions(self):
        with pytest.raises(ValueError, match="Q1"):
            make_setup(Q1=-1e-15)
        with pytest.raises(ValueError, match="Q2"):
            make_setup(Q2=1e-9)

    def test_active_charges_need_tip_distance(self):
        with pytest.raises(ValueError, match="exactly one of r0, delta, F"):
            make_setup(Q1=1e-15, Q2=-1e-9)
        with pytest.raises(ValueError, match="exactly one of r0, delta, F"):
            make_setup(Q1=1e-15, Q2=-1e-9, r0=5e-3, F=500.0)
        with pytest.raises(ValueError, match="r0 must be positive"):
            make_setup(Q1=1e-15, Q2=-1e-9, r0=0.0)
        with pytest.raises(ValueError, match="charges"):
            make_setup(Q1=1e-15, delta=1.0)

    def test_qubit_coupling_underdetermined(self):
        with pytest.raises(ValueError, match="underdetermined"):
            make_setup(chi=None)

    def test_qubit_coupling_cross_check(self):
        # consistent pair passes, inconsistent pair is rejected
        make_setup(chi=2.0e15, B_grad=1e4, gamma_e=2.0e11)
        with pytest.raises(ValueError, match="inconsistent"):
            make_setup(chi=2.0e15, B_grad=1e4, gamma_e=3.0e11)

    def test_gradient_form_of_coupling(self):
        s = make_setup(chi=None, B_grad=1e4, gamma_e=2.0e11)
        assert s.chi_value == pytest.approx(2.0e15)


class TestModelParams:
    def test_dimensionless_requires_one_drive_form(self):
        with pytest.raises(ValueError, match="exactly one"):
            ModelParams.dimensionless(g_a=0.01, g_b=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=0.1, delta=0.6)

    def test_delta_form_maps_to_drive(self):
        p = ModelParams.dimensionless(g_a=0.01, g_b=1.0, delta=0.5)
        assert p.F == pytest.approx(0.125)
        assert p.delta == pytest.approx(0.5)

    def test_instability_threshold(self):
        with pytest.raises(UnstableFrame):
            ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=0.25)
        with pytest.raises(UnstableFrame):
            ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=0.3)

    def test_negative_drive_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=-0.1)


class TestDriveGap:
    def test_each_coordinate(self):
        assert drive_gap(2.0, F=0.25) == 1.0
        assert drive_gap(2.0, delta=0.5) == 0.5
        assert drive_gap(2.0, s=0.25) == pytest.approx(2.0 / math.e,
                                                       rel=1e-15)

    def test_exactly_one_coordinate(self):
        with pytest.raises(ValueError, match="exactly one"):
            drive_gap(1.0)
        with pytest.raises(ValueError, match="exactly one"):
            drive_gap(1.0, F=0.1, s=0.2)

    def test_negative_squeezing_rejected_without_overflow(self):
        with pytest.raises(ValueError, match="non-negative"):
            drive_gap(1.0, s=-1000.0)

    @pytest.mark.parametrize("drive", [{"F": 0.0}, {"delta": 1.0},
                                       {"s": 0.0}])
    def test_undriven_is_exact(self, drive):
        p = ModelParams.dimensionless(g_a=0.01, g_b=1.0, **drive)
        assert p.F == 0.0 and p.delta == 1.0
        assert derive_squeezed_frame(p).s == 0.0

    @given(st.floats(min_value=1e-300, max_value=1.0, exclude_min=True))
    @settings(max_examples=300, deadline=None)
    def test_gap_is_stored_exactly(self, d):
        assert ModelParams.dimensionless(g_a=0.01, g_b=1.0, delta=d).delta \
            == d

    @given(st.floats(min_value=0.0, max_value=12.0))
    @settings(max_examples=300, deadline=None)
    def test_cell_squeezing_survives_the_frame(self, s):
        """1e-12 relative, above the float64 resolution of delta near 1.

        delta = e^{-4s} rounds to within one part in 2^53, which moves s
        by about 2^-55; that floor only matters for s below 1e-4.
        """
        _, frame, *_ = resolve_cell({"g_a": 0.02, "g_b": 1.0, "s": s})
        assert abs(frame.s - s) <= 1e-12 * s + 2.0 ** -52


class TestSqueezedFrame:
    def test_undriven_frame_is_identity(self):
        p = ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=0.0)
        f = derive_squeezed_frame(p)
        assert f.s == 0.0
        assert f.omega_s == 1.0
        assert f.g_a_s == p.g_a
        assert f.g_b_s == p.g_b

    @given(st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=1e-3, max_value=1e10))
    @settings(max_examples=200, deadline=None)
    def test_frequency_round_trip(self, delta_frac, omega_tilde):
        """sqrt(wt * delta) and delta * e^{2s} agree to 1e-12 relative."""
        p = ModelParams(omega_a=0.0, omega_b=0.0, omega_tilde=omega_tilde,
                        delta=delta_frac * omega_tilde, epsilon=0.0,
                        g_a=0.01, g_b=1.0)
        f = derive_squeezed_frame(p)
        alt = p.delta * math.exp(2.0 * f.s)
        assert abs(f.omega_s - alt) <= 1e-12 * abs(f.omega_s)

    def test_squeezing_increases_with_drive(self):
        fs = [derive_squeezed_frame(
                  ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=F)).s
              for F in np.linspace(0.0, 0.24, 25)]
        assert all(b > a for a, b in zip(fs, fs[1:]))

    def test_coupling_boost_at_least_unity(self):
        for F in np.linspace(0.0, 0.24, 25):
            f = derive_squeezed_frame(
                ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=F))
            assert f.g_b_s / 1.0 >= 1.0
            assert f.g_a_s / 0.01 >= 1.0

    def test_decoupling_time_comb(self):
        f = derive_squeezed_frame(
            ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=0.2))
        assert f.decoupling_time(1) == pytest.approx(2 * math.pi / f.omega_s)
        assert f.decoupling_time(3) == pytest.approx(3 * f.t_period)


class TestDeriveModelParams:
    def test_gravitational_softening_limit(self):
        # trap so weak that gravity inverts the effective potential
        with pytest.raises(NegativeSquaredFrequency):
            derive_model_params(make_setup(m_a=1e-3, omega_c=1e-4))

    def test_tp_coupling_is_negative(self):
        p = derive_model_params(make_setup())
        assert p.g_a < 0.0

    def test_drive_off_without_charges(self):
        p = derive_model_params(make_setup())
        assert p.F == 0.0

    def test_tip_distance_sets_drive(self):
        s = make_setup(Q1=1e-15, Q2=-1e-9, r0=5e-3)
        p = derive_model_params(s)
        assert p.F > 0.0

    def test_drive_override_takes_precedence(self):
        """A gap given as delta is kept, not recomputed from a tip."""
        s = make_setup(Q1=1e-15, Q2=-1e-9, delta=123.456)
        p = derive_model_params(s)
        assert p.delta == 123.456
        assert p.omega_tilde == s.drive()[0]

    def test_tip_distance_back_solve_round_trip(self):
        """F, delta = omega_tilde - 4F and the back-solved tip distance
        give one model, to 1e-12 relative."""
        charged = make_setup(Q1=1e-15, Q2=-1e-9, F=500.0)
        omega_tilde, _, r0 = charged.drive()
        same = [derive_model_params(make_setup(Q1=1e-15, Q2=-1e-9, **drive))
                for drive in ({"F": 500.0},
                              {"delta": omega_tilde - 2000.0}, {"r0": r0})]
        assert same[0].F == 500.0
        for p in same[1:]:
            for name, value in vars(p).items():
                assert value == pytest.approx(getattr(same[0], name),
                                              rel=1e-12), name
        assert charged.tip_distance == r0 > 0.0

    def test_back_solve_input_validation(self):
        omega_tilde = make_setup().drive()[0]
        undriven = make_setup(Q1=1e-15, Q2=-1e-9, delta=omega_tilde)
        assert undriven.tip_distance is None
        assert derive_model_params(undriven).F == 0.0
        with pytest.raises(ValueError, match="non-negative"):
            make_setup(Q1=1e-15, Q2=-1e-9, F=-1.0)
        with pytest.raises(UnstableFrame):
            make_setup(Q1=1e-15, Q2=-1e-9, delta=-1.0)
        with pytest.raises(UnstableFrame):
            make_setup(Q1=1e-15, Q2=-1e-9, r0=1e-9)


def test_en_depends_only_on_coupling_magnitude():
    """Flipping the sign of g_a leaves EN at decoupling unchanged."""
    from gravent import en_at_decoupling
    for g_a in (0.01, 0.02, 0.04):
        p_pos = ModelParams.dimensionless(g_a=+g_a, g_b=1.0, F=0.1)
        p_neg = ModelParams.dimensionless(g_a=-g_a, g_b=1.0, F=0.1)
        f_pos = derive_squeezed_frame(p_pos)
        f_neg = derive_squeezed_frame(p_neg)
        for n in (1, 2, 5):
            t = f_pos.decoupling_time(n)
            e1 = en_at_decoupling(f_pos.g_eff, t)
            e2 = en_at_decoupling(f_neg.g_eff, t)
            assert abs(e1 - e2) <= 1e-12


class TestRegimeReport:
    def test_all_checks_present_and_passing(self, sec5_config):
        from gravent.config import resolve_si
        setup, params, frame = resolve_si(sec5_config)
        rep = regime_report(setup, frame)
        names = {c.name for c in rep.checks}
        assert names == {"coulomb_expansion", "gravity_expansion",
                         "casimir_separation"}
        assert rep.all_pass
        assert rep.base["delta_x"] > 0.0

    def test_casimir_check_fails_when_too_close(self):
        s = make_setup(d=1.8e-4, radius_a=5e-5, radius_c=9e-5)
        p = derive_model_params(s)
        rep = regime_report(s, derive_squeezed_frame(p))
        casimir = next(c for c in rep.checks
                       if c.name == "casimir_separation")
        assert not casimir.passed
        assert casimir.max_dev > casimir.tol == 1.0
        assert not rep.all_pass

    def test_casimir_is_the_floor_over_the_separation(self, sec5_config):
        from gravent.config import resolve_si
        setup, _, frame = resolve_si(sec5_config)
        casimir = regime_report(setup, frame).checks[-1]
        assert casimir.name == "casimir_separation"
        assert casimir.max_dev == pytest.approx(157e-6 / 1.7843e-4,
                                                rel=1e-12)
        assert round(casimir.max_dev, 3) == 0.880

    def test_overlapping_spheres_fail_the_casimir_check(self):
        s = make_setup(d=1.8e-4, radius_a=9e-5, radius_c=9e-5)
        rep = regime_report(s, derive_squeezed_frame(derive_model_params(s)))
        assert not rep.checks[-1].passed
        assert rep.checks[-1].max_dev == math.inf

    def test_report_serializes(self, sec5_config):
        from gravent.config import resolve_si
        setup, _, frame = resolve_si(sec5_config)
        d = regime_report(setup, frame).as_dict()
        assert d["all_pass"] is True
        assert len(d["checks"]) == 3


class TestCheckRecord:
    """The validate, regime and reference legs report in one record."""

    @pytest.fixture(scope="class")
    def every_check(self, sec5_config):
        from gravent import load_preset, run_validation
        from gravent.config import resolve_si
        from gravent.presets import SEC5_GOLDEN, golden_check
        with pytest.MonkeyPatch.context() as monkeypatch:
            small_validation(monkeypatch)
            checks = run_validation(load_preset("fig3a")).checks
        setup, _, frame = resolve_si(sec5_config)
        golden = [golden_check(key, value) for key, (value, _, _)
                  in SEC5_GOLDEN.items()]
        return [*checks, *regime_report(setup, frame).checks, *golden]

    def test_every_leg_serializes_the_same_fields(self, every_check):
        assert len(every_check) == 7 + 3 + 10
        for check in every_check:
            assert list(check.as_dict()) == ["name", "passed", "skipped",
                                             "max_dev", "tol", "note"]

    def test_passed_means_the_figure_is_within_its_tolerance(self,
                                                             every_check):
        for c in every_check:
            if not c.skipped and c.max_dev is not None:
                assert c.passed == (c.max_dev <= c.tol), c

    def test_bound_fails_nan_and_passes_equality(self):
        assert not Check.bound("x", math.nan, 1e-3).passed
        assert Check.bound("x", 1e-3, 1e-3).passed
        assert not Check.bound("x", math.nextafter(1e-3, 1.0), 1e-3).passed

    def test_a_skipped_check_counts_as_passing(self):
        skip = Check("lab", False, skipped=True, note="out of reach")
        assert Report((skip, Check.bound("x", 0.0, 1.0))).all_pass
        assert not Report((skip, Check.bound("x", 2.0, 1.0))).all_pass
        assert Report((skip,), {"s": 0.4}).as_dict() == {
            "all_pass": True, "base": {"s": 0.4},
            "checks": [skip.as_dict()]}
