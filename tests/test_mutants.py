"""Mutant catalogue: which validate check catches which error.

Each mutant monkeypatches one function in process, then `run_validation`
runs on a named preset, and every check named beside the mutant must
fail there.  Only cross-leg checks count as a catch, a closed form
against the Fock oracle: `closed_form_at_tn`, which holds the closed
form against itself, and the pins of the program's own outputs (bytes,
the `*_is_pinned` tests, solve counts) never do.  The deviation each
catch read when the catalogue was written is quoted beside it.  A
mutant that no cross-leg check catches yet is a strict xfail that names
the ROADMAP direction whose check is to catch it.
"""

import dataclasses
import math
import sys

import pytest

import gravent.dynamics
import gravent.params
import gravent.validate
from gravent import load_preset, run_validation


def _patch_branch_state(monkeypatch, edit):
    """branch_state with edit(BranchState) applied to its result."""
    real = gravent.dynamics.branch_state
    monkeypatch.setattr(gravent.dynamics, "branch_state",
                        lambda frame, t: edit(real(frame, t)))


def phase_times(factor):
    def mutate(monkeypatch):
        _patch_branch_state(monkeypatch, lambda bs: dataclasses.replace(
            bs, phi=bs.phi * factor))
    return mutate


def unconjugated_displacement(monkeypatch):
    """-lambda alpha_t for -lambda conj(alpha_t): lambda is real."""
    _patch_branch_state(monkeypatch, lambda bs: dataclasses.replace(
        bs, displacements=bs.displacements.conj()))


def unconjugated_alpha0(monkeypatch):
    """Im(beta' alpha0) for Im(beta' conj(alpha0)) in the overlap."""
    real = gravent.dynamics._overlap
    monkeypatch.setattr(gravent.dynamics, "_overlap",
                        lambda beta, alpha0, *args: real(
                            beta, alpha0.conjugate(), *args))


def decoupling_sin_argument(monkeypatch):
    """sin(2.001 g_eff t) for sin(2 g_eff t) in the decoupling formula."""
    real = gravent.dynamics.en_at_decoupling
    monkeypatch.setattr(gravent.validate, "en_at_decoupling",
                        lambda g_eff, t_n: real(1.0005 * g_eff, t_n))


def _skewed(real, **scale):
    """real(params) with each named field of its frame multiplied by
    scale[name](frame)."""
    def derive(params):
        frame = real(params)
        return dataclasses.replace(frame, **{
            name: getattr(frame, name) * k(frame)
            for name, k in scale.items()})
    return derive


def omega_s_in_validate(monkeypatch):
    """omega_s x (1 + 1e-3) in validate's own frame: the oracle, which
    derives its frame from the params, keeps the right one."""
    monkeypatch.setattr(gravent.validate, "derive_squeezed_frame", _skewed(
        gravent.params.derive_squeezed_frame,
        omega_s=lambda f: 1.0 + 1e-3))


def boosted_couplings(monkeypatch):
    """Couplings x e^{0.01 s}, g_eff with them, in every module's frame:
    only the lab-frame oracle, which never derives a frame, is left."""
    real = gravent.params.derive_squeezed_frame
    boost = _skewed(real, g_a_s=lambda f: math.exp(0.01 * f.s),
                    g_b_s=lambda f: math.exp(0.01 * f.s),
                    g_eff=lambda f: math.exp(0.02 * f.s))
    for name, module in list(sys.modules.items()):
        if name.startswith("gravent") and \
                getattr(module, "derive_squeezed_frame", None) is real:
            monkeypatch.setattr(module, "derive_squeezed_frame", boost)


# mutant: (preset, the checks that must fail there, with their readings)
MUTANTS = {
    "phase x (1 + 1e-8)": (phase_times(1.0 + 1e-8), "fig3a",
                           {"pt_matrix_vs_fock"}),  # 4.8e-8
    "phase x (1 + 1e-4)": (phase_times(1.0 + 1e-4), "fig3a",
                           {"pt_matrix_vs_fock"}),  # 4.8e-4
    "unconjugated displacement": (unconjugated_displacement, "fig3a",
                                  {"pt_matrix_vs_fock"}),  # 0.28
    "unconjugated alpha0": (unconjugated_alpha0, "fig3a",
                            {"overlap_closed_form_vs_fock",  # 1.6
                             "pt_matrix_vs_fock"}),  # 0.25
    "omega_s x (1 + 1e-3) in validate": (
        omega_s_in_validate, "fig3a",
        {"pt_matrix_vs_fock",  # 7.0e-3
         "en_timeseries_analytic_vs_fock",  # 1.2e-2
         "mediator_decoupling_at_tn"}),  # 1.5e-3
    # a no-op on fig3a, where s = 0
    "couplings x e^{0.01 s}": (boosted_couplings, "fig3b",
                               {"frame_equivalence"}),  # 1.2e-2
    # only closed_form_at_tn fails (2.2e-4): en_at_decoupling has no
    # cross-leg check
    "decoupling formula sin(2.001 g_eff t)": (decoupling_sin_argument,
                                              "fig3a", set()),
}
UNCAUGHT = {"decoupling formula sin(2.001 g_eff t)": "ROADMAP direction 2 "
            "gives the decoupling formula its cross-leg check"}
SELF_CHECKS = {"closed_form_at_tn"}


@pytest.mark.parametrize("mutant", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=UNCAUGHT[name]))
    if name in UNCAUGHT else name for name in MUTANTS])
def test_mutant_is_caught(monkeypatch, mutant):
    mutate, preset, catches = MUTANTS[mutant]
    mutate(monkeypatch)
    checks = {c.name: c for c in run_validation(load_preset(preset)).checks}
    for name in catches:
        check = checks[name]
        assert not check.passed and not check.skipped, check
        assert check.max_dev > check.tol, check
    caught = {name for name, c in checks.items()
              if not c.passed and not c.skipped} - SELF_CHECKS
    assert caught, f"only a self-check catches {mutant}"
