"""Sweep engine: grids, time rules, rate extraction, time-series tables."""

import dataclasses
import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravent.sweep
from gravent import (AxisSpec, ConfigError, DynamicsSection, NoConvergence,
                     RateSection, SweepSection, TimeRule, UnstableFrame,
                     entanglement_rate, fock, io, load_preset,
                     log_negativity_from_partial_transpose,
                     partial_transpose_matrix, run_sweep, timeseries_figure,
                     validate)
from gravent.config import base_cell
from gravent.dynamics import dephasing_mask, en_timeseries
from gravent.sweep import _sign_changes, merge_cell, resolve_cell

BASE = {"g_a": 1.0 / 48.0, "g_b": 1.0}


def f_axis(start=0.0, stop=0.2, count=9):
    return AxisSpec("F", start, stop, count)


class TestAxisSpec:
    def test_linear_values(self):
        ax = AxisSpec("gamma", 0.0, 1.0, 5)
        assert np.array_equal(ax.values(), np.linspace(0.0, 1.0, 5))

    def test_log_values(self):
        ax = AxisSpec("g_b", 0.01, 1.0, 3, scale="log")
        assert np.allclose(ax.values(), [0.01, 0.1, 1.0])

    def test_unknown_name(self):
        with pytest.raises(ConfigError) as exc:
            AxisSpec("mass", 0.0, 1.0, 5)
        assert exc.value.path == "name"

    def test_too_few_points(self):
        with pytest.raises(ConfigError) as exc:
            AxisSpec("F", 0.0, 1.0, 1)
        assert exc.value.path == "count"

    def test_log_needs_positive_endpoints(self):
        with pytest.raises(ConfigError) as exc:
            AxisSpec("F", 0.0, 1.0, 5, scale="log")
        assert exc.value.path == "start"

    def test_unknown_scale(self):
        with pytest.raises(ConfigError) as exc:
            AxisSpec("F", 0.0, 1.0, 5, scale="sqrt")
        assert exc.value.path == "scale"


class TestTimeRule:
    def test_a_rule_without_cycles_or_t_is_one_period(self):
        axes = (f_axis(count=5),)
        once, one = (run_sweep(SweepSection(axes, time=rule), BASE)
                     for rule in (TimeRule(), TimeRule(cycles=1.0)))
        assert np.array_equal(once.extras["t_eval"], one.extras["t_eval"])

    def test_zero_cycles_is_t_zero(self):
        """cycles = 0 is the start of the evolution, not a default."""
        res = run_sweep(SweepSection((f_axis(count=5),),
                                     time=TimeRule(cycles=0.0)), BASE)
        assert np.all(res.extras["t_eval"] == 0.0)

    def test_cycles_and_t_together_are_refused(self):
        """A rule evaluates at cycles periods or at t: a t beside cycles
        would leave one of the two unread."""
        with pytest.raises(ConfigError) as exc:
            TimeRule(cycles=2.0, t=5.0)
        assert exc.value.path == "t"


class TestSections:
    def test_axis_count_limits(self):
        with pytest.raises(ConfigError) as exc:
            SweepSection(axes=())
        assert exc.value.path == "axes"
        with pytest.raises(ConfigError):
            SweepSection(axes=(f_axis(), AxisSpec("gamma", 0, 1, 3),
                               AxisSpec("g_b", 0.1, 1, 3)))

    def test_duplicate_axes(self):
        with pytest.raises(ConfigError, match="distinct"):
            SweepSection(axes=(f_axis(), f_axis()))

    def test_at_most_one_drive_axis(self):
        with pytest.raises(ConfigError, match="drive axis") as exc:
            SweepSection(axes=(f_axis(), AxisSpec("s", 0, 1, 3)))
        assert exc.value.path == "axes"

    @pytest.mark.parametrize("fixed", [dict(BASE), dict(BASE, F=0.1,
                                                          delta=0.5)],
                             ids=["none", "two"])
    def test_exactly_one_drive_at_run_time(self, fixed):
        with pytest.raises(ValueError, match="exactly one"):
            run_sweep(SweepSection(axes=(AxisSpec("gamma", 0, 1, 3),)),
                      fixed)

    def test_unknown_fixed_key(self):
        with pytest.raises(ConfigError) as exc:
            run_sweep(SweepSection(axes=(f_axis(),)), dict(BASE, power=3))
        assert exc.value.path == "power"

    def test_section_rules_name_their_field(self):
        for make, path in (
                (lambda: DynamicsSection(1.0, 1), "points"),
                (lambda: DynamicsSection(1.0, 5, t_start=-1.0), "t_start"),
                (lambda: TimeRule(t=-1.0), "t"),
                (lambda: TimeRule(cycles=-1.0), "cycles")):
            with pytest.raises(ConfigError) as exc:
                make()
            assert exc.value.path == path

    @pytest.mark.parametrize("fixed,variants", [
        (dict(BASE, F=0.0, gamma=0.1), ()),
        (dict(BASE, F=0.0), (("a", {}), ("b", {"gamma_tp": 0.05}))),
    ])
    def test_fock_mediator_cuts_refuse_dephasing(self, fixed, variants):
        spec = DynamicsSection(1.0, 3, backend="fock", variants=variants,
                               bipartitions=("tp_qubit", "tp_mediator"))
        with pytest.raises(ConfigError, match="dephasing") as exc:
            timeseries_figure(spec, fixed)
        assert exc.value.path == "bipartitions"


    @pytest.mark.parametrize("make,path", [
        (lambda: SweepSection((f_axis(),), backend="magic"), "backend"),
        (lambda: DynamicsSection(1.0, 5, backend="magic"), "backend"),
        (lambda: DynamicsSection(1.0, 5, hamiltonian="rotating"),
         "hamiltonian"),
        (lambda: DynamicsSection(1.0, 5, bipartitions=("tp_qubit", "tp_tp")),
         "bipartitions[1]"),
        (lambda: RateSection("gamma", AxisSpec("gamma", 0.0, 1.0, 3)),
         "which"),
    ], ids=["sweep-backend", "dynamics-backend", "hamiltonian",
            "bipartition", "rate-which"])
    def test_choices_name_their_field(self, make, path):
        """A value outside a field's choices is a ConfigError from Python
        too, not only from the config walker."""
        with pytest.raises(ConfigError, match="must be one of") as exc:
            make()
        assert exc.value.path == path

    def test_unknown_backend_never_reaches_the_sweep(self):
        with pytest.raises(ConfigError) as exc:
            run_sweep(SweepSection((AxisSpec("F", 0.0, 0.1, 2),),
                                   backend="magic"), BASE)
        assert exc.value.path == "backend"


class TestMergeCell:
    def test_plain_overlay(self):
        assert merge_cell({"g_a": 1, "gamma": 0}, {"gamma": 2}) == \
            {"g_a": 1, "gamma": 2}

    def test_drive_override_evicts_other_sources(self):
        base = {"g_a": 1, "F": 0.1}
        assert merge_cell(base, {"delta": 0.5}) == {"g_a": 1, "delta": 0.5}
        assert merge_cell(base, {"s": 0.2}) == {"g_a": 1, "s": 0.2}
        assert "delta" not in merge_cell({"g_a": 1, "delta": 0.4}, {"F": 0.0})

    def test_base_untouched(self):
        base = {"g_a": 1, "F": 0.1}
        merge_cell(base, {"s": 0.2})
        assert base == {"g_a": 1, "F": 0.1}

    def test_drive_axis_evicts_the_base_drive(self):
        spec = SweepSection(axes=(AxisSpec("s", 0.1, 0.5, 3),))
        evicted = run_sweep(spec, dict(BASE, F=0.1))
        assert evicted.valid.all()
        assert np.array_equal(evicted.en, run_sweep(spec, BASE).en)
        assert np.allclose(evicted.extras["s"], spec.axes[0].values())


class TestResolveCell:
    def test_null_takes_the_default(self):
        *_, gamma, gamma_tp, _ = resolve_cell(dict(BASE, F=0.1, gamma=None))
        assert gamma == 0.0 and gamma_tp == 0.0

    def test_without_a_time_rule_t_is_unset(self):
        assert resolve_cell(dict(BASE, F=0.1))[-1] is None
        assert resolve_cell(dict(BASE, F=0.1, t=2.0))[-1] == 2.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_phase_past_the_float_range_names_cycles(self):
        """At 4e304 periods g_eff t stays finite along both edges of the
        grid, which is all a parse-time check of the axis endpoints sees,
        and overflows in its F = 0.2495, g_b = 2 corner."""
        spec = SweepSection(axes=(AxisSpec("F", 0.0, 0.2495, 3),
                                  AxisSpec("g_b", 1.0, 2.0, 2)),
                            time=TimeRule(cycles=4e304))
        with pytest.raises(ConfigError) as exc:
            run_sweep(spec, BASE)
        assert exc.value.path == "cycles"
        t_edge = run_sweep(dataclasses.replace(spec, axes=spec.axes[:1]),
                           BASE).extras["t_eval"][-1]
        assert np.isfinite(t_edge)


class TestRunSweep:
    def test_deterministic(self):
        spec = SweepSection(axes=(f_axis(),))
        a, b = run_sweep(spec, BASE), run_sweep(spec, BASE)
        assert np.array_equal(a.en, b.en)
        assert np.array_equal(a.valid, b.valid)

    def test_grid_refinement_keeps_coincident_points(self):
        coarse = run_sweep(SweepSection(axes=(f_axis(count=5),)), BASE)
        fine = run_sweep(SweepSection(axes=(f_axis(count=9),)), BASE)
        assert np.array_equal(coarse.axis_values[0], fine.axis_values[0][::2])
        assert np.array_equal(coarse.en, fine.en[::2])

    def test_instability_marks_cells_invalid(self):
        res = run_sweep(SweepSection(axes=(AxisSpec("F", 0.2, 0.3, 5),)),
                        BASE)
        assert res.valid[0]
        assert not res.valid[-1]
        assert np.isnan(res.en[-1])
        assert res.invalid_cells
        assert "inverted" in res.invalid_cells[0][1]

    def test_phase_rule_tracks_the_frame(self):
        spec = SweepSection(axes=(f_axis(count=5),),
                            time=TimeRule(cycles=1.0))
        res = run_sweep(spec, BASE)
        want = 2.0 * math.pi / res.extras["omega_s"]
        assert np.allclose(res.extras["t_eval"], want, rtol=1e-12)
        # softer frames decouple later
        assert np.all(np.diff(res.extras["t_eval"]) > 0)

    def test_fixed_rule_is_flat(self):
        spec = SweepSection(axes=(f_axis(count=5),),
                            time=TimeRule(t=3.0))
        res = run_sweep(spec, BASE)
        assert np.all(res.extras["t_eval"] == 3.0)

    def test_drive_axes_are_equivalent(self):
        """F, delta and s axes hitting the same frames give the same EN."""
        F_vals = np.linspace(0.05, 0.2, 4)
        res_f = run_sweep(SweepSection(axes=(AxisSpec("F", 0.05, 0.2, 4),)),
                          BASE)
        for k, F in enumerate(F_vals):
            s = 0.25 * math.log(1.0 / (1.0 - 4.0 * F))
            res_s = run_sweep(SweepSection(
                axes=(AxisSpec("gamma", 0.0, 0.1, 2),)), dict(BASE, s=s))
            assert res_s.en[0] == pytest.approx(res_f.en[k], abs=1e-12)

    @pytest.mark.parametrize("axis,fixed", [
        (AxisSpec("gamma", -0.5, 0.0, 3), {}),
        (AxisSpec("g_b", 0.5, 1.0, 3), {"gamma_tp": -0.1}),
    ], ids=["gamma-axis", "gamma_tp"])
    def test_negative_dephasing_is_rejected(self, axis, fixed):
        with pytest.raises(ValueError, match="dephasing rates must be "
                                             "non-negative"):
            run_sweep(SweepSection(axes=(axis,)), dict(BASE, F=0.1, **fixed))

    def test_squeezing_axis_is_exact_deep_in_the_squeezed_regime(self):
        res = run_sweep(SweepSection(axes=(AxisSpec("s", 8.0, 12.0, 5),)),
                        BASE)
        assert res.valid.all()
        s = res.axis_values[0]
        assert np.all(np.abs(res.extras["s"] - s) <= 1e-12 * s)

    def test_missing_couplings(self):
        with pytest.raises(ConfigError, match="g_a and g_b") as exc:
            run_sweep(SweepSection(axes=(f_axis(),)), {})
        assert exc.value.path == "g_a"

    def test_fock_backend_agrees_on_small_grid(self):
        both = SweepSection(axes=(AxisSpec("F", 0.0, 0.1, 3),),
                            backend="both")
        res = run_sweep(both, BASE)
        assert np.max(np.abs(res.extras["en_fock"] - res.en)) < 1e-3
        assert res.extras["fock_n"].tolist() == [64, 64, 64]

    def test_a_cell_that_leaks_at_the_start_takes_a_larger_n(self):
        """At F = 0.2 the N = 64 trajectory leaks 6.4e-4 into its top two
        levels, so the search accepts that cell at N = 128."""
        spec = SweepSection(axes=(AxisSpec("F", 0.0, 0.2, 3),),
                            backend="both")
        res = run_sweep(spec, dict(BASE, xi_mag=0.0))
        assert res.valid.all() and res.invalid_cells == []
        assert res.extras["fock_n"].tolist() == [64, 64, 128]
        assert np.max(np.abs(res.extras["en_fock"] - res.en)) < 1e-3

    def test_tail_tolerance_sets_the_accepted_n(self, monkeypatch):
        monkeypatch.setattr(fock, "TAIL_TOL", 1e-3)
        spec = SweepSection(axes=(AxisSpec("F", 0.0, 0.2, 3),),
                            backend="both")
        res = run_sweep(spec, dict(BASE, xi_mag=0.0))
        assert res.valid.all()
        assert res.extras["fock_n"].tolist() == [64, 64, 64]

    def test_state_past_the_ceiling_marks_the_cell_invalid(self):
        """F = 0.24 (s = 0.80) leaks at every N up to N_MAX; the note is
        its rejection there."""
        spec = SweepSection(axes=(AxisSpec("F", 0.0, 0.24, 3),),
                            backend="both")
        res = run_sweep(spec, BASE)
        assert res.valid.tolist() == [True, True, False]
        [(idx, note)] = res.invalid_cells
        assert idx == (2,)
        assert note == ("Fock backend: trajectory leaks at N = 512 in one "
                        "parity group (tail mass 2.289e-03)")
        assert np.isnan(res.extras["fock_n"][2])

    def test_fock_cells_run_as_one_search(self, monkeypatch):
        """Cells that fit at N = 64, cells that need 128 or 256, and cells
        past the ceiling in one search, each N tried once for the rows
        still left: each cell past the ceiling is invalid with its own
        note, and every other cell is its one-row search, bit for bit,
        at the same N."""
        batches, trajectories = [], fock.trajectories
        monkeypatch.setattr(fock, "trajectories", lambda rows, n, *args: (
            batches.append((n, len(rows))) or trajectories(rows, n, *args)))
        spec = SweepSection(axes=(AxisSpec("F", 0.0, 0.24, 5),
                                  AxisSpec("alpha0", 0.0, 2.0, 3)),
                            backend="fock")
        fixed = dict(BASE, xi_mag=0.0, gamma=0.1, gamma_tp=0.05)
        res = run_sweep(spec, fixed)
        assert batches == [(64, 15), (128, 4), (256, 3), (512, 2)]
        assert res.valid[:4].all() and res.valid[4].tolist() == [
            True, False, False]
        np.testing.assert_array_equal(res.extras["fock_n"][3:], [
            [64, 64, 128], [256, np.nan, np.nan]])
        notes = dict(res.invalid_cells)
        assert len(set(notes.values())) == 2
        for idx in np.ndindex(*res.en.shape):
            params, _, init, gamma, gamma_tp, t = resolve_cell(
                merge_cell(fixed, {ax.name: float(ax.values()[i])
                                   for ax, i in zip(spec.axes, idx)}),
                spec.time)
            try:
                [run], rep = fock.converge_cutoff(
                    [(params, init, [t], "squeezed")], 1e-8, cuts=())
            except NoConvergence as exc:
                assert notes[idx] == f"Fock backend: {exc.report.left[0]}"
                assert "at N = 512" in notes[idx]
                continue
            assert res.extras["fock_n"][idx] == rep.n[0]
            assert res.en[idx] == log_negativity_from_partial_transpose(
                fock.cut_pt(run["states"], "tp_qubit")
                * dephasing_mask([t], gamma, gamma_tp))[0]

    def test_fig2_drives_across_the_reach_edges(self):
        """Every third drive of fig2's axis from s = 0.40 to 0.72 on
        backend "both": the search accepts cells at N = 128 up to s =
        0.418, at 256 up to 0.570 and at 512 up to 0.715, each within
        validate's EN_TOL of the closed form, and the last drive is past
        the ceiling."""
        cfg = load_preset("fig2")
        drive = cfg.sweep.axes[0].values()
        spec = dataclasses.replace(cfg.sweep, backend="both", axes=(
            AxisSpec("F", float(drive[159]), float(drive[189]), 11),))
        res = run_sweep(spec, base_cell(cfg))
        assert res.valid.tolist() == [True] * 10 + [False]
        np.testing.assert_array_equal(
            res.extras["fock_n"], [128] * 2 + [256] * 5 + [512] * 3 + [np.nan])
        assert np.max(np.abs(res.en - res.extras["en_fock"])[res.valid]) \
            <= validate.EN_TOL
        [(idx, note)] = res.invalid_cells
        assert idx == (10,)
        assert note.startswith("Fock backend: trajectory leaks at N = 512 ")

    def test_cells_that_differ_in_dephasing_share_one_run(self, monkeypatch):
        """F (2 values) x gamma (3 values) makes as many eigensolves as F
        alone, each F's trajectory dephased per gamma into the values of
        the per-cell loop."""
        solves, solve = [], fock.ExactPropagator.solve
        monkeypatch.setattr(fock.ExactPropagator, "solve", lambda self, k: (
            solves.append(k) or solve(self, k)))
        drive = AxisSpec("F", 0.0, 0.1, 2)
        run_sweep(SweepSection(axes=(drive,), backend="both"), BASE)
        alone = len(solves)
        spec = SweepSection(axes=(drive, AxisSpec("gamma", 0.0, 0.2, 3)),
                            backend="both")
        res = run_sweep(spec, BASE)
        assert len(solves) == 2 * alone > 0
        assert res.valid.all()
        assert_same_sweep(res, *per_cell_sweep(spec, BASE))


EXTRA_NAMES = ("s", "omega_s", "g_a_s", "g_b_s", "g_eff", "t_eval")


def per_cell_sweep(spec, fixed):
    """The grid one cell at a time through resolve_cell, the kernel and
    EN, with the Fock column of the "both" backend from a search of the
    cell's own: the reference that the grouped run_sweep must equal bit
    for bit."""
    shape = tuple(ax.count for ax in spec.axes)
    en = np.full(shape, np.nan)
    extras = {name: np.full(shape, np.nan) for name in EXTRA_NAMES}
    if spec.backend == "both":
        extras["en_fock"] = np.full(shape, np.nan)
        extras["fock_n"] = np.full(shape, np.nan)
    invalid = []
    for idx in np.ndindex(*shape):
        cell = merge_cell(fixed, {ax.name: float(ax.values()[i])
                                  for ax, i in zip(spec.axes, idx)})
        try:
            params, frame, init, gamma, gamma_tp, t = resolve_cell(
                cell, spec.time)
            if spec.backend == "both":
                [run], rep = fock.converge_cutoff(
                    [(params, init, [t], "squeezed")], fock.TAIL_TOL,
                    cuts=())
                extras["en_fock"][idx] = log_negativity_from_partial_transpose(
                    fock.cut_pt(run["states"], "tp_qubit")
                    * dephasing_mask([t], gamma, gamma_tp))[0]
                extras["fock_n"][idx] = rep.n[0]
        except UnstableFrame as exc:
            invalid.append((idx, str(exc)))
            continue
        except NoConvergence as exc:
            invalid.append((idx, f"Fock backend: {exc.report.left[0]}"))
            continue
        en[idx] = log_negativity_from_partial_transpose(
            partial_transpose_matrix(frame, init, t, gamma, gamma_tp))
        for name in EXTRA_NAMES:
            extras[name][idx] = t if name == "t_eval" else getattr(frame,
                                                                     name)
    return en, extras, invalid


def assert_same_sweep(res, en, extras, invalid):
    assert np.array_equal(res.en, en, equal_nan=True)
    assert np.array_equal(res.valid, ~np.isnan(en))
    assert res.extras.keys() == extras.keys()
    for name in extras:
        assert np.array_equal(res.extras[name], extras[name],
                              equal_nan=True), name
    assert res.invalid_cells == invalid


F_ACROSS = AxisSpec("F", 0.1, 0.3, 5)   # 0.25 is stable no more
F_LEAKS = AxisSpec("F", 0.0, 0.26, 3)   # 0.13 leaks at N = 32, 0.26 unstable


@pytest.fixture
def search_to_32(monkeypatch):
    """The search policy narrowed to N = 16 and 32, so that F_LEAKS's
    middle drive is past the ceiling at some couplings."""
    monkeypatch.setattr(fock, "N_START", 16)
    monkeypatch.setattr(fock, "N_MAX", 32)


class TestGroupedSweep:
    """Cells that share a frame are evaluated in one kernel call; the
    result is that of a per-cell loop, bit for bit."""

    @pytest.mark.parametrize("axes,fixed", [
        ((F_ACROSS, AxisSpec("gamma", 0.0, 0.4, 4)), {}),
        ((AxisSpec("gamma", 0.0, 0.4, 4), F_ACROSS), {"gamma_tp": 0.05}),
        ((F_ACROSS, AxisSpec("g_a", 0.01, 0.3, 4)), {}),
        ((AxisSpec("g_b", 0.0, 2.0, 4), F_ACROSS), {"gamma": 0.1}),
        ((F_ACROSS, AxisSpec("t", 0.0, 20.0, 6)), {"gamma": 0.2}),
        ((AxisSpec("g_a", 0.01, 0.3, 3), AxisSpec("g_b", 0.1, 2.0, 4)),
         {"F": 0.2, "gamma": 0.1}),
        ((AxisSpec("t", 0.5, 9.0, 4), AxisSpec("gamma", 0.0, 0.3, 3)),
         {"s": 0.3}),
        ((AxisSpec("alpha0", 0.0, 2.0, 3), AxisSpec("g_b", 0.1, 2.0, 4)),
         {"F": 0.1}),
        ((AxisSpec("g_b", 0.1, 2.0, 7),), {"delta": 0.5}),
        ((AxisSpec("s", 0.0, 3.0, 5),), {"gamma": 0.1}),
    ], ids=["F-gamma", "gamma-F", "F-g_a", "g_b-F", "F-t", "g_a-g_b",
            "t-gamma", "alpha0-g_b", "g_b", "s"])
    def test_equals_the_per_cell_loop(self, axes, fixed):
        spec = SweepSection(axes=axes, time=TimeRule(cycles=1.3))
        fixed = dict(BASE, **fixed)
        res = run_sweep(spec, fixed)
        assert_same_sweep(res, *per_cell_sweep(spec, fixed))
        if F_ACROSS in axes:
            assert res.invalid_cells and not res.valid.all()

    @pytest.mark.parametrize("axes,leaks", [
        ((F_LEAKS, AxisSpec("gamma", 0.0, 0.2, 2)), 2),
        ((AxisSpec("gamma", 0.0, 0.2, 2), F_LEAKS), 2),
        ((F_LEAKS, AxisSpec("g_a", 0.01, 0.3, 2)), 2),
        ((AxisSpec("g_a", 0.01, 0.3, 2), F_LEAKS), 2),
        ((F_LEAKS, AxisSpec("g_b", 0.5, 1.0, 2)), 1),
        ((AxisSpec("g_b", 0.5, 1.0, 2), F_LEAKS), 1),
        ((F_LEAKS, AxisSpec("t", 1.0, 6.0, 2)), 1),
        ((AxisSpec("t", 1.0, 6.0, 2), F_LEAKS), 1),
    ], ids=["F-gamma", "gamma-F", "F-g_a", "g_a-F", "F-g_b", "g_b-F", "F-t",
            "t-F"])
    def test_both_backend_equals_the_per_cell_loop(self, search_to_32, axes,
                                                   leaks):
        """At N = 32 the middle drive leaks, at both couplings g_a but only
        at the larger g_b or t, and the last one is unstable; each group
        of a broadcast axis splits into a Fock row per cell, and a
        Fock-invalid cell keeps NaN extras."""
        spec = SweepSection(axes=axes, backend="both")
        fixed = dict(BASE, xi_mag=0.0)
        res = run_sweep(spec, fixed)
        assert_same_sweep(res, *per_cell_sweep(spec, fixed))
        found = [idx for idx, note in res.invalid_cells
                 if note.startswith("Fock backend: trajectory leaks")]
        assert len(found) == leaks and len(res.invalid_cells) == leaks + 2
        for idx in found:
            assert np.isnan(res.en[idx])
            assert all(np.isnan(v[idx]) for v in res.extras.values())

    def test_fock_rows_come_from_the_groups(self, monkeypatch):
        """fig4's grid on backend "both": one resolve_cell per group of 41
        damping rates, 49 in all, and one cut_pt per N the search accepts
        cells at, 64, 128, 256 and 512, for the 1,968 cells it accepts;
        the 41 cells of the last drive (s = 0.80) are past the ceiling,
        and every accepted cell is within validate's EN_TOL."""
        calls = {"resolve_cell": 0, "cut_pt": 0}
        for module, name in ((gravent.sweep, "resolve_cell"),
                             (fock, "cut_pt")):
            def counting(*args, real=getattr(module, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counting)
        cfg = load_preset("fig4")
        res = run_sweep(dataclasses.replace(cfg.sweep, backend="both"),
                        base_cell(cfg))
        assert calls == {"resolve_cell": 49, "cut_pt": 4}
        assert res.valid.sum() == 1968 and not res.valid[-1].any()
        assert set(res.extras["fock_n"][res.valid]) == {64, 128, 256, 512}
        assert np.max(np.abs(res.en - res.extras["en_fock"])[res.valid]) \
            <= validate.EN_TOL

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The argument tuples of every kernel call run_sweep makes."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return partial_transpose_matrix(*args, **kwargs)

        monkeypatch.setattr(gravent.sweep, "partial_transpose_matrix",
                            counting)
        return calls

    @pytest.mark.parametrize("preset,calls", [("fig4", 49), ("fig5", 35),
                                              ("fig2", 200)])
    def test_one_kernel_call_per_drive_value(self, kernel_calls, preset,
                                             calls):
        cfg = load_preset(preset)
        res = run_sweep(cfg.sweep, base_cell(cfg))
        assert res.valid.all()
        assert len(kernel_calls) == calls == cfg.sweep.axes[0].count

    def test_one_kernel_call_per_rate_variant(self, kernel_calls):
        cfg = load_preset("fig5")
        for _, overrides in cfg.rate.variants:
            entanglement_rate(cfg.rate, merge_cell(base_cell(cfg), overrides))
            assert len(kernel_calls) == 1
            kernel_calls.clear()


class TestInvalidCells:
    """invalid_cells lists every invalid cell once, in C order, with
    Python int indices and str notes, and the sweep JSON holds them as
    plain lists."""

    @pytest.mark.parametrize("axes,backend", [
        ((F_ACROSS, AxisSpec("g_b", 0.5, 1.0, 3)), "analytic"),
        ((AxisSpec("g_b", 0.5, 1.0, 3), F_ACROSS), "analytic"),
        ((AxisSpec("g_b", 0.5, 1.0, 2), F_LEAKS), "both"),
    ], ids=["F-g_b", "g_b-F", "g_b-F-both"])
    def test_c_order_with_int_indices(self, search_to_32, tmp_path, axes,
                                      backend):
        """F past 1/4 is unstable at every g_b; on "both", with the search
        stopping at N = 32, the middle drive leaks at the larger g_b only,
        so the invalid cells spread along both axes."""
        spec = SweepSection(axes=axes, backend=backend)
        res = run_sweep(spec, dict(BASE, xi_mag=0.0))
        walk = [idx for idx in np.ndindex(*res.valid.shape)
                if not res.valid[idx]]
        assert [idx for idx, _ in res.invalid_cells] == walk
        assert all(len({idx[k] for idx in walk}) > 1 for k in (0, 1))
        for idx, note in res.invalid_cells:
            assert type(idx) is tuple and type(note) is str
            assert all(type(i) is int for i in idx)
        notes = [note for _, note in res.invalid_cells]
        assert any("inverted" in note for note in notes)
        assert any(note.startswith("Fock backend: ") for note in notes) \
            == (backend == "both")

        info = {"label": "unit", "backend": backend}
        io.write_sweep(tmp_path, "unit", res, info)
        want = {"provenance": info,
                "axes": [{"name": ax.name,
                          "values": [float(v) for v in ax.values()]}
                         for ax in axes],
                "invalid_cells": [{"index": list(idx), "note": note}
                                  for idx, note in zip(walk, notes)]}
        text = (tmp_path / "unit.json").read_text()
        assert text == json.dumps(want, indent=2) + "\n"


class TestEntanglementRate:
    def test_needs_matching_single_axis(self):
        """A field's own rule is checked before the rules across fields."""
        axis = AxisSpec("g_b", 0.1, 1.5, 7)
        for which, path, message in (("gamma", "which", "must be one of"),
                                     ("g_a", "axis", "needs the axis")):
            with pytest.raises(ConfigError, match=message) as exc:
                RateSection(which, axis)
            assert exc.value.path == path

    def test_needs_three_points(self):
        with pytest.raises(ConfigError, match="3 points") as exc:
            RateSection("g_b", AxisSpec("g_b", 0.1, 1.5, 2))
        assert exc.value.path == "axis"

    def test_crossing_sits_at_the_peak(self):
        spec = RateSection("g_b", AxisSpec("g_b", 0.2, 2.0, 121))
        res = entanglement_rate(spec, {"g_a": BASE["g_a"], "s": 0.1733})
        assert len(res.zero_crossings) >= 1
        peak = res.g_values[np.argmax(res.en)]
        step = res.g_values[1] - res.g_values[0]
        assert min(abs(z - peak) for z in res.zero_crossings) <= step

    def test_monotone_region_has_no_crossings(self):
        spec = RateSection("g_b", AxisSpec("g_b", 0.05, 0.3, 31))
        res = entanglement_rate(spec, {"g_a": BASE["g_a"], "F": 0.0})
        assert res.zero_crossings == []
        assert np.all(res.eta > 0.0)

    def test_refuses_unstable_cells(self):
        spec = RateSection("g_b", AxisSpec("g_b", 0.1, 1.0, 5))
        with pytest.raises(UnstableFrame):
            entanglement_rate(spec, {"g_a": BASE["g_a"], "F": 0.26})

    def test_touching_zero_is_no_turning_point(self):
        g = np.arange(5.0)
        assert _sign_changes(g, np.array([1.0, 0.0, 1.0, 1.0, 1.0])) == []
        assert _sign_changes(g, np.array([1.0, 0.0, 0.0, 1.0, 1.0])) == []

    def test_run_of_zeros_is_reported_once(self):
        g = np.arange(5.0)
        eta = np.array([1.0, 0.0, 0.0, -1.0, -1.0])
        assert _sign_changes(g, eta) == [1.5]
        assert _sign_changes(g, np.array([1.0, -1.0, 1.0])) == [0.5, 1.5]

    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(-1e3, 1e3, allow_nan=False)),
                    min_size=2, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_one_zero_per_sign_change(self, values):
        eta = np.array(values)
        g = np.linspace(0.0, 1.0, len(eta))
        signs = np.sign(eta[eta != 0.0])
        changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
        assert len(_sign_changes(g, eta)) == changes


class TestTimeseriesFigure:
    def test_column_naming_and_backends(self):
        spec = DynamicsSection(4.0, 9, backend="both",
                               bipartitions=("tp_qubit", "tp_mediator"))
        res = timeseries_figure(spec, dict(BASE, F=0.0))
        assert res.fock_n == {"base": 64}
        assert set(res.curves) == {"base:tp_qubit:analytic",
                                   "base:tp_qubit:fock",
                                   "base:tp_mediator:fock"}
        dev = np.max(np.abs(res.curves["base:tp_qubit:analytic"]
                            - res.curves["base:tp_qubit:fock"]))
        assert dev < 1e-3

    def test_fock_variants_run_as_one_search(self, monkeypatch):
        """Three variants in one search, all accepted at N = 64 in one
        `fock.trajectories` batch: the columns stay variant by variant,
        and each Fock column is its variant's one-row run, bit for bit."""
        batches, trajectories = [], fock.trajectories
        monkeypatch.setattr(fock, "trajectories", lambda rows, *args: (
            batches.append(len(rows)) or trajectories(rows, *args)))
        variants = (("F=0", {"F": 0.0}), ("F=0.05", {"F": 0.05}),
                    ("F=0.1", {"F": 0.1}))
        spec = DynamicsSection(8.0, 9, backend="both",
                               bipartitions=("tp_qubit", "tp_mediator"),
                               variants=variants)
        fixed = dict(BASE, xi_mag=0.0)
        res = timeseries_figure(spec, fixed)
        assert batches == [3]
        assert res.fock_n == {"F=0": 64, "F=0.05": 64, "F=0.1": 64}
        assert list(res.curves) == [
            f"{label}:{cut}" for label, _ in variants
            for cut in ("tp_qubit:analytic", "tp_qubit:fock",
                        "tp_mediator:fock")]
        for label, overrides in variants:
            params, _, init, gamma, gamma_tp, _ = resolve_cell(
                merge_cell(fixed, overrides))
            [run], [why] = trajectories(
                [(params, init, res.t, "squeezed")], 64, ("tp_mediator",),
                1e-8)
            assert why is None
            assert np.array_equal(res.curves[f"{label}:tp_mediator:fock"],
                                  run["tp_mediator"])
            assert np.array_equal(
                res.curves[f"{label}:tp_qubit:fock"],
                log_negativity_from_partial_transpose(
                    fock.cut_pt(run["states"], "tp_qubit")
                    * dephasing_mask(res.t, gamma, gamma_tp)))

    def test_variants_take_their_own_n(self):
        """F = 0.2 leaks at N = 64 and fits at 128; F = 0.1 stays at 64,
        and each Fock column is its variant's own search."""
        variants = (("F=0.1", {"F": 0.1}), ("F=0.2", {"F": 0.2}))
        spec = DynamicsSection(8.0, 9, backend="both", variants=variants)
        fixed = dict(BASE, xi_mag=0.0)
        res = timeseries_figure(spec, fixed)
        assert res.fock_n == {"F=0.1": 64, "F=0.2": 128}
        for variant in variants:
            alone = timeseries_figure(DynamicsSection(
                8.0, 9, backend="both", variants=(variant,)), fixed)
            for name, curve in alone.curves.items():
                assert np.array_equal(res.curves[name], curve), name

    def test_a_variant_past_the_ceiling_is_raised(self):
        """F = 0.249 leaks at every N up to N_MAX: the run raises the
        search's NoConvergence, which names every N tried."""
        variants = (("F=0.1", {"F": 0.1}), ("F=0.249", {"F": 0.249}))
        spec = DynamicsSection(8.0, 9, backend="both", variants=variants)
        with pytest.raises(NoConvergence) as exc:
            timeseries_figure(spec, dict(BASE, xi_mag=0.0))
        msg = str(exc.value)
        assert msg.startswith("no cutoff up to the ceiling N = 512 passes")
        for n in (64, 128, 256, 512):
            assert f"N = {n}: trajectory leaks at N = {n}" in msg
        assert exc.value.report.n[0] == 64
        assert list(exc.value.report.left) == [1]

    def test_variants_that_differ_in_dephasing_share_a_trajectory(
            self, monkeypatch):
        """Two gamma variants evolve one trajectory, and their columns are
        those of each variant run alone."""
        evolved, evolve = [], fock.ExactPropagator.evolve_grid
        monkeypatch.setattr(fock.ExactPropagator, "evolve_grid", lambda *a: (
            evolved.append(1) or evolve(*a)))
        variants = (("g=0", {"gamma": 0.0}), ("g=0.2", {"gamma": 0.2}))
        fixed = dict(BASE, F=0.1)
        res = timeseries_figure(DynamicsSection(8.0, 9, backend="both",
                                                variants=variants), fixed)
        assert len(evolved) == 1
        alone = {}
        for variant in variants:
            alone.update(timeseries_figure(DynamicsSection(
                8.0, 9, backend="both", variants=(variant,)), fixed).curves)
        assert list(res.curves) == list(alone)
        for name, curve in alone.items():
            assert np.array_equal(res.curves[name], curve), name

    def test_a_rejected_shared_trajectory_leaves_no_exception_cycle(self):
        """With the collector off, raising the NoConvergence of a
        trajectory that two variants share leaves nothing for it to
        find."""
        variants = (("g=0", {"gamma": 0.0}), ("g=0.1", {"gamma": 0.1}))
        spec = DynamicsSection(8.0, 9, backend="both", variants=variants)
        fixed = dict(BASE, F=0.249, xi_mag=0.0)

        def rejected():
            try:
                timeseries_figure(spec, fixed)
            except NoConvergence as exc:
                return str(exc)

        assert "leaks at N = 512" in rejected()
        gc.collect()
        gc.disable()
        try:
            rejected()
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    def test_fock_columns_carry_the_dephasing(self):
        """g_a = 0.3, g_b = 1, F = 0.1, gamma = 0.2: at t_1 and 2 t_1 the
        Fock column follows the damped analytic EN, not its undamped
        values 0.5779 and 0.8933."""
        fixed = dict(BASE, g_a=0.3, F=0.1, gamma=0.2)
        t_1 = resolve_cell(fixed)[1].decoupling_time(1)
        spec = DynamicsSection(2.0 * t_1, 3, backend="both")
        res = timeseries_figure(spec, fixed)
        ana = res.curves["base:tp_qubit:analytic"][1:]
        assert ana == pytest.approx([0.0784, 0.0412], abs=1e-4)
        dev = np.abs(res.curves["base:tp_qubit:fock"][1:] - ana)
        assert np.max(dev) <= 1e-3

    def test_fock_sweep_cell_and_column_share_the_damping(self):
        fixed = dict(BASE, g_a=0.3, F=0.1, gamma=0.2, gamma_tp=0.05)
        t_1 = resolve_cell(fixed)[1].decoupling_time(1)
        column = timeseries_figure(
            DynamicsSection(t_1, 2, backend="fock"),
            fixed).curves["base:tp_qubit:fock"][1]
        cells = run_sweep(SweepSection(
            axes=(AxisSpec("gamma", 0.0, 0.2, 2),),
            time=TimeRule(t=t_1), backend="fock"), fixed)
        assert cells.en[1] == pytest.approx(column, abs=1e-12)
        assert cells.en[0] > column

    def test_variants_can_switch_drive_source(self):
        spec = DynamicsSection(6.0, 7, variants=(("a", {"delta": 1.0}),
                                                 ("b", {"delta": 0.5})))
        res = timeseries_figure(spec, dict(BASE, F=0.05))
        assert set(res.curves) == {"a:tp_qubit:analytic",
                                   "b:tp_qubit:analytic"}
        # delta = 1 is the undriven frame, delta = 0.5 squeezes by ln 2 / 4
        ts = np.linspace(0.0, 6.0, 7)
        for label, delta, s in (("a", 1.0, 0.0),
                                ("b", 0.5, 0.25 * math.log(2.0))):
            _, frame, init, gamma, gamma_tp, _ = resolve_cell(
                dict(BASE, delta=delta))
            assert frame.s == pytest.approx(s)
            assert np.array_equal(res.curves[f"{label}:tp_qubit:analytic"],
                                  en_timeseries(frame, init, ts, gamma,
                                                gamma_tp))

    def test_lab_hamiltonian_with_drive_term(self):
        spec = DynamicsSection(2.0, 5, backend="fock", hamiltonian="lab")
        res = timeseries_figure(spec, dict(BASE, F=0.0, epsilon=0.5,
                                           xi_mag=0.0))
        assert "base:tp_qubit:fock" in res.curves
        assert res.fock_n == {"base": fock.N_START_LAB}


def _skewed_frame(params):
    """The squeezed frame with omega_s off by one part in a thousand."""
    frame = gravent.params.derive_squeezed_frame(params)
    return dataclasses.replace(frame, omega_s=frame.omega_s * (1.0 + 1e-3))


class TestFockCatchesAFrameError:
    """The Fock oracle derives its frame from the cell's ModelParams, so an
    error in the closed form's frame shows as analytic-vs-Fock
    disagreement instead of being copied into both columns."""

    @pytest.mark.parametrize("skewed", [False, True])
    def test_timeseries_columns(self, monkeypatch, skewed):
        if skewed:
            monkeypatch.setattr(gravent.sweep, "derive_squeezed_frame",
                                _skewed_frame)
        res = timeseries_figure(
            DynamicsSection(12.0, 25, backend="both"),
            dict(BASE, delta=0.5))
        dev = np.max(np.abs(res.curves["base:tp_qubit:analytic"]
                            - res.curves["base:tp_qubit:fock"]))
        assert dev > 1e-3 if skewed else dev < 1e-8

    @pytest.mark.parametrize("skewed", [False, True])
    def test_sweep_columns(self, monkeypatch, skewed):
        if skewed:
            monkeypatch.setattr(gravent.sweep, "derive_squeezed_frame",
                                _skewed_frame)
        res = run_sweep(SweepSection(axes=(f_axis(0.0, 0.12, 4),),
                                     backend="both"), BASE)
        assert res.valid.all()
        dev = np.max(np.abs(res.en - res.extras["en_fock"]))
        assert dev > 1e-4 if skewed else dev < 1e-8
