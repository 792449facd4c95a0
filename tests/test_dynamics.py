"""Closed-form branch evolution, overlaps, and the dephasing channel."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import local_rotation
from gravent import (MediatorInit, ModelParams, dephasing_mask,
                     derive_squeezed_frame, displaced_overlap,
                     en_at_decoupling, en_timeseries, load_preset,
                     log_negativity_from_partial_transpose,
                     partial_transpose, partial_transpose_matrix)
from gravent import dynamics
from gravent.config import resolve_si
from gravent.dynamics import branch_state

complex_amp = st.complex_numbers(max_magnitude=2.5, allow_nan=False,
                                 allow_infinity=False)


def frame_for(g_a=1.0 / 48.0, g_b=1.0, F=0.1):
    return derive_squeezed_frame(
        ModelParams.dimensionless(g_a=g_a, g_b=g_b, F=F))


def looped_pt_matrix(frame, init, t, gamma=0.0, gamma_tp=0.0):
    """Entry-by-entry reference for the qubit-transposed matrix at one t."""
    ws = frame.omega_s
    alpha_t = (cmath.exp(-1j * ws * t) - 1.0) / ws
    phi = (2.0 * frame.g_a_s * frame.g_b_s / ws) * (t - math.sin(ws * t) / ws)
    xi = init.xi(frame)
    m = np.empty((4, 4), complex)
    for i in range(4):
        for j in range(4):
            (A1, B1), (A2, B2) = divmod(i, 2), divmod(j, 2)
            amp = []
            for a, b in ((A1, B2), (A2, B1)):      # ket slot, bra slot
                sa, sb = 2 * a - 1, 2 * b - 1
                lam = sa * frame.g_a_s + sb * frame.g_b_s
                amp.append((cmath.exp(1j * phi * sa * sb),
                            -lam * alpha_t.conjugate()))
            (c_ket, a_j), (c_bra, a_i) = amp
            beta = a_j - a_i
            bp = beta * math.cosh(abs(xi)) + beta.conjugate() \
                * cmath.exp(1j * cmath.phase(xi)) * math.sinh(abs(xi))
            overlap = cmath.exp(1j * (a_i.conjugate() * a_j).imag
                                - 0.5 * abs(bp) ** 2
                                + bp * init.alpha0.conjugate()
                                - bp.conjugate() * init.alpha0)
            m[i, j] = 0.25 * c_ket * c_bra.conjugate() * overlap \
                * math.exp(-gamma * t * (B1 != B2)) \
                * math.exp(-gamma_tp * t * (A1 != A2))
    return m


class TestMediatorInit:
    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValueError, match="non-negative"):
            MediatorInit(xi_mag=-0.5)

    def test_tracking_needs_a_frame(self):
        init = MediatorInit()
        with pytest.raises(ValueError, match="frame"):
            init.xi()

    def test_tracking_follows_frame(self):
        f = frame_for(F=0.2)
        init = MediatorInit(theta=0.3)
        assert init.xi(f) == pytest.approx(f.s * cmath.exp(0.3j))

    def test_pinned_magnitude_ignores_frame(self):
        init = MediatorInit(xi_mag=0.7, theta=0.0)
        assert init.xi() == pytest.approx(0.7)


class TestBranchState:
    def test_everything_at_rest_initially(self):
        bs = branch_state(frame_for(), 0.0)
        assert abs(bs.alpha_t) == 0.0
        assert bs.phi == 0.0
        assert np.max(np.abs(bs.displacements)) == 0.0
        m = partial_transpose_matrix(frame_for(), MediatorInit(0.4 - 0.3j),
                                     0.0)
        assert np.array_equal(m, np.full((4, 4), 0.25))

    def test_shapes_follow_t(self):
        ts = np.linspace(0.0, 4.0, 6).reshape(2, 3)
        bs = branch_state(frame_for(), ts)
        assert bs.alpha_t.shape == bs.phi.shape == (2, 3)
        assert bs.displacements.shape == (2, 3, 4)
        one = branch_state(frame_for(), ts[1, 2])
        assert np.array_equal(bs.displacements[1, 2], one.displacements)

    def test_opposite_branches_mirror(self):
        # slots R0, R1, L0, L1: flipping both spins negates the drive
        a = branch_state(frame_for(), 2.3).displacements
        assert a[0] == -a[3]
        assert a[1] == -a[2]

    def test_displacements_scale_with_couplings(self):
        t = 1.1
        one = branch_state(frame_for(F=0.0), t)
        two = branch_state(derive_squeezed_frame(
            ModelParams.dimensionless(g_a=2.0 / 48.0, g_b=2.0, F=0.0)), t)
        assert np.allclose(two.displacements, 2.0 * one.displacements,
                           atol=1e-15)


class TestDisplacedOverlap:
    def test_self_overlap_is_unity(self):
        init = MediatorInit(alpha0=0.4 - 0.2j, xi_mag=0.6, theta=1.1)
        assert displaced_overlap(0.3 + 0.1j, 0.3 + 0.1j,
                                 init) == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        init = MediatorInit(alpha0=1.0, xi_mag=0.4, theta=2.0)
        ij = displaced_overlap(0.5, -0.2 + 0.3j, init)
        ji = displaced_overlap(-0.2 + 0.3j, 0.5, init)
        assert ij == pytest.approx(ji.conjugate())

    @given(complex_amp, complex_amp, complex_amp,
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=150, deadline=None)
    def test_bounded_by_one(self, a_i, a_j, alpha0, mag, theta):
        init = MediatorInit(alpha0=alpha0, xi_mag=mag, theta=theta)
        val = abs(displaced_overlap(a_i, a_j, init))
        assert val <= 1.0 + 1e-12
        if a_i != a_j and abs(a_i - a_j) > 1e-6:
            assert val < 1.0

    def test_coherent_limit(self):
        # no squeezing, vacuum start: |<a_i|a_j>| = e^{-|a_i-a_j|^2/2}
        init = MediatorInit(alpha0=0.0, xi_mag=0.0)
        a_i, a_j = 0.7 + 0.1j, -0.3 + 0.5j
        got = abs(displaced_overlap(a_i, a_j, init))
        assert got == pytest.approx(math.exp(-0.5 * abs(a_i - a_j) ** 2))


class TestPartialTransposeMatrix:
    def test_structure(self):
        f = frame_for()
        m = partial_transpose_matrix(f, MediatorInit(), 2.7, 0.1, 0.2)
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(np.diag(m), np.full(4, 0.25))
        assert np.trace(m) == 1.0

    def test_coherences_follow_the_branch_displacements(self, monkeypatch):
        """-lambda alpha_t in place of -lambda conj(alpha_t) in
        `branch_state` must move the matrix, not only BranchState."""
        f, init, t = frame_for(), MediatorInit(), 2.7
        m = partial_transpose_matrix(f, init, t)

        def conjugated(frame, t):
            bs = branch_state(frame, t)
            return replace(bs, displacements=bs.displacements.conj())

        monkeypatch.setattr(dynamics, "branch_state", conjugated)
        assert np.max(np.abs(partial_transpose_matrix(f, init, t) - m)) > 0.01

    @given(g_a=st.floats(1e-3, 0.1), g_b=st.floats(0.1, 2.0),
           F=st.floats(0.0, 0.24), alpha0=complex_amp,
           xi_mag=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1.5)),
           theta=st.floats(0.0, 2.0 * math.pi),
           gamma=st.floats(0.0, 1.0), gamma_tp=st.floats(0.0, 1.0),
           ts=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_single_times(self, g_a, g_b, F, alpha0, xi_mag,
                                        theta, gamma, gamma_tp, ts):
        f = frame_for(g_a=g_a, g_b=g_b, F=F)
        init = MediatorInit(alpha0=alpha0, xi_mag=xi_mag, theta=theta)
        ts = np.array([0.0] + ts)
        stack = partial_transpose_matrix(f, init, ts, gamma, gamma_tp)
        assert stack.shape == (len(ts), 4, 4)
        # The loop reference adds the overlap's phases in another order.
        # Each phase carries rounding of its largest product, up to
        # |a|^2 for the Weyl phase of displacements a, whose exact value
        # cancels to zero.
        size = np.max(np.abs(branch_state(f, ts).displacements))
        ref_tol = np.finfo(float).eps * (1.0 + size + abs(alpha0)) ** 2
        for t, m in zip(ts, stack):
            one = partial_transpose_matrix(f, init, float(t), gamma,
                                           gamma_tp)
            assert np.max(np.abs(m - one)) <= 1e-15
            ref = looped_pt_matrix(f, init, float(t), gamma, gamma_tp)
            assert np.max(np.abs(m - ref)) <= ref_tol

    def test_broadcasts_over_couplings_and_rates(self):
        """Couplings and rates of shape (3, 1) with times of shape (1, 4)
        give a (3, 4) stack; each matrix is its scalar cell's, exactly."""
        g_a = np.array([[0.01], [0.1], [0.3]])
        gamma = np.array([[0.0], [0.2], [0.5]])
        ts = np.array([[0.0, 1.3, 6.0, 17.0]])
        frame = derive_squeezed_frame(
            ModelParams.dimensionless(g_a=g_a, g_b=1.0, F=0.1))
        assert frame.g_eff.shape == (3, 1)
        init = MediatorInit(0.4 - 0.3j)
        stack = partial_transpose_matrix(frame, init, ts, gamma, 0.05)
        assert stack.shape == (3, 4, 4, 4)
        for i, j in np.ndindex(3, 4):
            one = partial_transpose_matrix(frame_for(g_a=g_a[i, 0], F=0.1),
                                           init, ts[0, j], gamma[i, 0], 0.05)
            assert np.array_equal(stack[i, j], one)
        assert np.array_equal(dephasing_mask(ts, gamma, 0.05)[2, 1],
                              dephasing_mask(ts[0, 1], 0.5, 0.05))

    def test_no_weyl_rounding_at_the_si_point(self):
        # Displacements reach 1.3e8 at s = 6.965; their Weyl phase is 0
        # exactly, and a rounded one moved these entries by 0.1 per ulp.
        cfg = load_preset("sec5-feasibility")
        _, _, frame = resolve_si(cfg)
        t = 0.3 * frame.t_period
        m = partial_transpose_matrix(frame, cfg.mediator, t)
        ulp = partial_transpose_matrix(frame, cfg.mediator,
                                       np.nextafter(t, 2 * t))
        assert np.max(np.abs(m - ulp)) <= 1e-12
        # the R0-L0 coherence of a 40-digit mpmath branch reference
        assert abs(m[0, 2] - (0.249437 - 0.016768j)) <= 1e-6

    def test_no_entanglement_at_start(self):
        f = frame_for()
        m = partial_transpose_matrix(f, MediatorInit(), 0.0)
        assert log_negativity_from_partial_transpose(m) == 0.0

    def test_dephasing_commutes_with_transposition(self):
        f = frame_for()
        t, gamma, gamma_tp = 1.9, 0.12, 0.05
        direct = partial_transpose_matrix(f, MediatorInit(), t, gamma,
                                          gamma_tp)
        # damp the state itself, then transpose the qubit
        rho = partial_transpose(partial_transpose_matrix(
            f, MediatorInit(), t), (2, 2), 1)
        after = partial_transpose(rho * dephasing_mask(t, gamma, gamma_tp),
                                  (2, 2), 1)
        assert np.max(np.abs(direct - after)) <= 1e-15

    def test_zero_rate_dephasing_is_identity(self):
        assert np.array_equal(dephasing_mask(1.3, 0.0), np.ones((4, 4)))

    def test_dephasing_shrinks_off_diagonals_only(self):
        mask = dephasing_mask(1.3, 0.4, 0.2)
        assert np.array_equal(np.diag(mask), np.ones(4))
        off = ~np.eye(4, dtype=bool)
        assert np.all(mask[off] < 1.0)
        # both coherences damped where both spins differ
        assert mask[0, 3] == pytest.approx(math.exp(-0.6 * 1.3), abs=1e-15)

    def test_mask_broadcasts_over_t(self):
        ts = np.array([[0.5, 1.0], [2.0, 3.0]])
        mask = dephasing_mask(ts, 0.4, 0.2)
        assert mask.shape == (2, 2, 4, 4)
        assert np.array_equal(mask[1, 0], dephasing_mask(2.0, 0.4, 0.2))

    def test_free_spin_phases_leave_en_unchanged(self):
        f = frame_for()
        init = MediatorInit()
        for t in (0.9, 3.4, f.t_period):
            base = partial_transpose_matrix(f, init, t)
            rotated = local_rotation(base, t, 0.8, 2.2)
            assert not np.allclose(rotated, base)
            e0 = log_negativity_from_partial_transpose(base)
            e1 = log_negativity_from_partial_transpose(rotated)
            assert abs(e0 - e1) <= 1e-12


class TestDecoupling:
    def test_closed_form_matches_full_pipeline(self):
        """EN from the matrix equals the one-line formula at every t_n."""
        rng = np.random.default_rng(3)
        for _ in range(15):
            F = rng.uniform(0.0, 0.2)
            f = frame_for(g_a=rng.uniform(0.005, 0.05),
                          g_b=rng.uniform(0.3, 1.2), F=F)
            init = MediatorInit(alpha0=complex(rng.normal(), rng.normal()))
            for n in (1, 2, 4):
                t_n = f.decoupling_time(n)
                series = en_timeseries(f, init, [t_n])
                assert abs(series[0]
                           - en_at_decoupling(f.g_eff, t_n)) <= 1e-10

    def test_formula_values(self):
        assert en_at_decoupling(0.0, 5.0) == 0.0
        # quarter-period conditional phase gives the one-ebit maximum
        t = math.pi / 4.0
        assert en_at_decoupling(1.0, t) == pytest.approx(1.0, abs=1e-12)


class TestEnTimeseries:
    def test_shape_and_range(self):
        f = frame_for()
        ts = np.linspace(0.0, 2.0 * f.t_period, 41)
        out = en_timeseries(f, MediatorInit(), ts)
        assert isinstance(out, np.ndarray) and out.shape == (41,)
        assert np.all(out >= 0.0)

    def test_matches_the_matrix_at_each_time(self):
        f = frame_for()
        init = MediatorInit(alpha0=0.3 + 0.8j)
        ts = np.linspace(0.0, 2.0 * f.t_period, 17)
        out = en_timeseries(f, init, ts, gamma=0.05)
        for t, en in zip(ts, out):
            one = log_negativity_from_partial_transpose(
                partial_transpose_matrix(f, init, float(t), 0.05))
            assert abs(en - one) <= 1e-15

    def test_dephasing_lowers_the_curve(self):
        f = frame_for()
        ts = np.linspace(0.1, 2.0 * f.t_period, 31)
        clean = en_timeseries(f, MediatorInit(), ts)
        noisy = en_timeseries(f, MediatorInit(), ts, gamma=0.3)
        assert np.all(noisy <= clean + 1e-12)
        assert noisy.max() < clean.max()
