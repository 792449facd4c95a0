"""Fock-space oracle: operators, state prep, evolution, convergence."""

import math
import sys

import numpy as np
import pytest
import scipy.linalg
from conftest import (band_to_dense, destroy, displacement_matrix,
                      kron_hamiltonian_lab, kron_hamiltonian_squeezed,
                      prepare_one, squeeze_matrix)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravent import (CutoffTooSmall, DimensionMismatch, DynamicsSection,
                     MediatorInit, ModelParams, NoConvergence,
                     derive_squeezed_frame, displaced_overlap, en_bipartition,
                     log_negativity_from_partial_transpose, partial_trace,
                     partial_transpose, timeseries_figure)
from gravent import fock


class TestOperators:
    def test_annihilation_matrix_elements(self):
        a = destroy(5)
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 4

    def test_commutator_away_from_the_edge(self):
        n = 12
        a = destroy(n)
        c = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(np.diag(c)[:-1], 1.0, atol=1e-14)

    def test_cutoff_must_be_positive(self):
        with pytest.raises(DimensionMismatch):
            destroy(0)

    def test_displacement_is_unitary(self):
        d = displacement_matrix(0.4 - 0.7j, 24)
        assert np.allclose(d @ d.conj().T, np.eye(24), atol=1e-12)

    def test_squeeze_is_unitary(self):
        s = squeeze_matrix(0.5 * np.exp(1.2j), 24)
        assert np.allclose(s @ s.conj().T, np.eye(24), atol=1e-12)

    def test_displacement_moves_vacuum_to_coherent(self):
        alpha = 0.6 + 0.3j
        vac = np.zeros(40, complex)
        vac[0] = 1.0
        got = displacement_matrix(alpha, 40) @ vac
        want, _ = fock.coherent_vector(alpha, 40)
        assert np.allclose(got, want, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(k=st.sampled_from([1, 2]), n=st.integers(1, 40),
           z=st.one_of(st.just(0j),
                       st.complex_numbers(max_magnitude=2.0,
                                          allow_nan=False,
                                          allow_infinity=False)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(k=1, n=1, z=0.7 - 0.2j, seed=0)
    @example(k=2, n=2, z=-1.1j, seed=1)
    @example(k=2, n=1, z=0j, seed=2)
    @example(k=1, n=2, z=5e-324 + 5e-324j, seed=0)
    def test_ladder_exp_equals_dense_expm(self, k, n, z, seed):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=n) + 1j * rng.normal(size=n)
        vec /= np.linalg.norm(vec)
        ak = np.linalg.matrix_power(destroy(n), k)
        want = scipy.linalg.expm(z * ak.conj().T - np.conj(z) * ak) @ vec
        got = fock.ladder_exp(z, k, vec)
        assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([1, 2]), n=st.integers(1, 40),
           zs=st.lists(st.one_of(
               st.sampled_from([0j, 5e-324 + 5e-324j, -1e-310j]),
               st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                  allow_infinity=False)),
               min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(k=1, n=1, zs=[0j, 0.7 - 0.2j], seed=0)
    @example(k=2, n=2, zs=[5e-324 + 5e-324j, -1.1j, 0j], seed=1)
    def test_batched_ladder_exp_rows_equal_scalar_calls_and_expm(
            self, k, n, zs, seed):
        """One z per row: each row is its scalar call, to rounding, and
        the dense expm; a row whose |z| is below the smallest normal
        float is its vector unchanged."""
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(len(zs), n)) + 1j * rng.normal(
            size=(len(zs), n))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        got = fock.ladder_exp(zs, k, vecs)
        assert got.shape == vecs.shape
        ak = np.linalg.matrix_power(destroy(n), k)
        for z, vec, row in zip(zs, vecs, got):
            np.testing.assert_allclose(row, fock.ladder_exp(z, k, vec),
                                       rtol=0, atol=1e-14)
            want = scipy.linalg.expm(z * ak.conj().T - np.conj(z) * ak) @ vec
            assert np.max(np.abs(row - want)) <= 1e-12
            if abs(z) < np.finfo(float).tiny:
                assert np.array_equal(row, vec)

    def test_ladder_exp_is_the_dense_displacement_and_squeeze(self):
        rng = np.random.default_rng(3)
        vec = rng.normal(size=30) + 1j * rng.normal(size=30)
        alpha, xi = 0.4 - 0.7j, 0.5 * np.exp(1.2j)
        assert np.allclose(fock.ladder_exp(alpha, 1, vec),
                           displacement_matrix(alpha, 30) @ vec,
                           atol=1e-12)
        assert np.allclose(fock.ladder_exp(-0.5 * xi, 2, vec),
                           squeeze_matrix(xi, 30) @ vec, atol=1e-12)

    def test_oracle_prepares_states_without_expm(self, monkeypatch):
        def no_expm(*args, **kwargs):
            raise AssertionError("dense expm called")

        monkeypatch.setattr(fock, "expm", no_expm)
        params = ModelParams.dimensionless(g_a=0.02, g_b=1.0, F=0.05)
        init = MediatorInit(alpha0=0.5 + 0.2j, xi_mag=0.3, theta=1.0)
        fock.fock_overlap([0.3], [-0.4j], [init], tail_tol=1e-10)
        _, [why] = fock.trajectories(
            [(params, init, [0.0, 1.0], "lab")], 64, ("tp_qubit",), 1e-8)
        assert why is None


class TestStatePrep:
    def test_coherent_amplitudes(self):
        alpha = 0.8 - 0.2j
        v, tail = fock.coherent_vector(alpha, 30)
        norm = math.exp(-0.5 * abs(alpha) ** 2)
        for k in (0, 1, 2, 5):
            want = norm * alpha ** k / math.sqrt(math.factorial(k))
            assert v[k] == pytest.approx(want, abs=1e-14)
        assert tail < 1e-14

    @pytest.mark.parametrize("alpha", [3.0, -3.0j, 3.0 * np.exp(0.7j),
                                       2.1 + 2.1j, 1.0, 0.5 - 0.1j, 0.01])
    def test_coherent_amplitudes_match_a_40_digit_loop(self, alpha):
        """alpha^k e^{-|alpha|^2/2} / sqrt(k!) at N = 1024 by the recurrence
        in mpmath; entries below the float range underflow, so those are
        held to the largest amplitude."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a = mpmath.mpc(alpha.real, alpha.imag)
            x, ref = mpmath.exp(-abs(a) ** 2 / 2), []
            for k in range(1024):
                x = x * a / mpmath.sqrt(k) if k else x
                ref.append(complex(x))
        ref = np.array(ref)
        v, _ = fock.coherent_vector(alpha, 1024)
        normal = np.abs(ref) >= np.finfo(float).tiny
        np.testing.assert_allclose(v[normal], ref[normal], rtol=1e-14,
                                   atol=0)
        assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_small_cutoff_reports_lost_mass(self):
        _, tail = fock.coherent_vector(3.0, 4)
        assert tail > 0.1

    def test_leaky_mediator_state_is_rejected(self):
        with pytest.raises(CutoffTooSmall) as exc:
            prepare_one(MediatorInit(alpha0=6.0, xi_mag=0.0), 8)
        assert exc.value.tail_mass > 0.0

    def test_mediator_state_normalized(self):
        params = ModelParams.dimensionless(g_a=0.02, g_b=1.0, F=0.1)
        v = 2.0 * prepare_one(MediatorInit(), 64, params)[:64]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_lab_image_matches_at_zero_squeezing(self):
        params = ModelParams.dimensionless(g_a=0.02, g_b=1.0, F=0.0)
        init = MediatorInit(alpha0=0.9, xi_mag=0.3, theta=0.4)
        a = prepare_one(init, 48, params)
        b = prepare_one(init, 48, params, lab_mode=True)
        assert np.allclose(a, b, atol=1e-12)

    def test_rows_of_a_batch_are_prepared_alone(self):
        """A batch mixing frames, lab modes and a rejected row: each row
        as prepared in a batch of its own, bit for bit."""
        params = [ModelParams.dimensionless(g_a=0.02, g_b=1.0, F=F)
                  for F in (0.0, 0.1, 0.05)]
        inits = [MediatorInit(alpha0=0.9, xi_mag=0.3, theta=0.4),
                 MediatorInit(alpha0=6.0), MediatorInit()]
        labs = [True, False, False]
        psi, why = fock.prepare_initial(inits, 32, params, 1e-8, labs)
        assert psi.shape == (3, 4 * 32)
        assert [w is None for w in why] == [True, False, True]
        assert str(why[1]).startswith("coherent amplitude 6.0 does not fit "
                                      "in N = 32")
        for row, init, p, lab in zip(psi[::2], inits[::2], params[::2],
                                     labs[::2]):
            assert np.array_equal(row, prepare_one(init, 32, p,
                                                   lab_mode=lab))

    def test_lone_init_is_a_one_row_batch(self):
        """A lone init is the batch's one row: its vector bit for bit, and
        its rejection raised rather than returned."""
        params = ModelParams.dimensionless(g_a=0.02, g_b=1.0, F=0.05)
        init = MediatorInit(alpha0=0.9, xi_mag=0.3, theta=0.4)
        for lab in (False, True):
            assert np.array_equal(
                fock.prepare_initial(init, 48, params, 1e-8, lab),
                prepare_one(init, 48, params, lab_mode=lab))
        with pytest.raises(CutoffTooSmall, match="coherent amplitude 3.0 "
                           "does not fit in N = 4"):
            fock.prepare_initial(MediatorInit(alpha0=3.0), 4)

    def test_prepare_initial_structure(self):
        params = ModelParams.dimensionless(g_a=0.02, g_b=1.0, F=0.05)
        n = 32
        psi = prepare_one(MediatorInit(), n, params)
        assert psi.shape == (4 * n,)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        # balanced spin superpositions: all four blocks identical
        blocks = psi.reshape(4, n)
        for k in (1, 2, 3):
            assert np.allclose(blocks[k], blocks[0], atol=1e-15)

    def test_lab_mode_requires_frame(self):
        with pytest.raises(ValueError, match="frame"):
            fock.prepare_initial([MediatorInit(xi_mag=0.0)], 16, [None],
                                 1e-8, [True])


class TestOverlapOracle:
    def test_matches_closed_form_spot_checks(self):
        init = MediatorInit(alpha0=0.5 + 0.2j, xi_mag=0.8, theta=2.1)
        for a_i, a_j in [(0.3, -0.4), (1.0 + 1.0j, -0.5j),
                         (0.0, 0.9 - 0.3j)]:
            ana = displaced_overlap(a_i, a_j, init)
            [orc] = fock.fock_overlap([a_i], [a_j], [init], tail_tol=1e-10)
            assert abs(ana - orc) < 1e-8

    def test_validate_batch_equals_single_tuple_calls(self, monkeypatch):
        """validate's 200 tuples in one search: one state preparation per
        N, and each tuple's overlap and accepted N as in a call of its
        own (146 tuples fit at N = 64, 48 at 128 and 6 at 256)."""
        from gravent import validate
        batch, calls = {}, []
        overlap, prepare = fock.fock_overlap, fock.displaced_squeezed_vector

        def recording_overlap(a_i, a_j, init, **kwargs):
            batch["args"], batch["kwargs"] = (a_i, a_j, init), kwargs
            batch["out"] = overlap(a_i, a_j, init, **kwargs)
            return batch["out"]

        def recording_prepare(shifts, init, n, *args, **kwargs):
            calls.append((n, {tuple(row) for row in np.asarray(shifts)}))
            return prepare(shifts, init, n, *args, **kwargs)

        monkeypatch.setattr(fock, "fock_overlap", recording_overlap)
        monkeypatch.setattr(fock, "displaced_squeezed_vector",
                            recording_prepare)
        assert validate.check_overlap_closed_form().passed
        assert [n for n, _ in calls] == [64, 128, 256]

        def accepted(pair):
            return max(n for n, rows in calls if pair in rows)

        got = [accepted(pair) for pair in zip(*batch["args"][:2])]
        assert {n: got.count(n) for n in set(got)} == {64: 146, 128: 48,
                                                       256: 6}
        for (a_i, a_j, init), value, n in zip(zip(*batch["args"]),
                                              batch["out"], got):
            calls.clear()
            [single] = overlap([a_i], [a_j], [init], **batch["kwargs"])
            assert calls[-1][0] == n
            assert abs(single - value) <= 1e-14

    def test_gives_up_past_the_cap(self):
        init = MediatorInit(alpha0=12.0, xi_mag=1.5, theta=0.0)
        with pytest.raises(NoConvergence) as exc:
            fock.fock_overlap([20.0], [-20.0], [init], tail_tol=1e-10,
                              n_start=16, n_max=64)
        assert [s["n"] for s in exc.value.report.steps] == [16, 32, 64]


def _pt_frames():
    """validate's partial-transpose frames, drawn one by one as a check
    per frame drew them: (params, frame, init, t) each."""
    from gravent import validate
    rng = np.random.default_rng(validate.SEED + 1)
    for _ in range(validate.PT_SAMPLES):
        s = rng.uniform(0.0, 0.5)
        params = ModelParams.dimensionless(
            g_a=rng.uniform(0.005, 0.05), g_b=rng.uniform(0.3, 1.2), s=s)
        frame = derive_squeezed_frame(params)
        init = MediatorInit(alpha0=complex(rng.normal(0, 0.7),
                                           rng.normal(0, 0.7)))
        yield params, frame, init, rng.uniform(0.1, 1.9) * frame.t_period


def _record_pt_batch(monkeypatch):
    """The cutoffs validate's partial-transpose check prepares its states
    at, with the alpha0 of each row, and the matrices it compares."""
    from gravent import validate
    calls, batch = [], {}
    prepare, search = fock.prepare_initial, fock.converge_cutoff

    def recording_prepare(inits, n, *args, **kwargs):
        calls.append((n, [i.alpha0 for i in inits]))
        return prepare(inits, n, *args, **kwargs)

    def recording_search(*args, **kwargs):
        curves, report = search(*args, **kwargs)
        batch["out"] = [fock.cut_pt(c["states"], n, "tp_qubit")[0]
                        for c, n in zip(curves, report.n)]
        return curves, report

    monkeypatch.setattr(fock, "prepare_initial", recording_prepare)
    monkeypatch.setattr(fock, "converge_cutoff", recording_search)
    return validate, calls, batch


class TestPtMatrixOracle:
    def test_validate_batch_equals_per_frame_searches(self, monkeypatch):
        """validate's 20 frames in one search: each frame's accepted N and
        matrix as in a search of its own over one-row `fock.trajectories`
        (9 frames fit at N = 64, 6 at 128 and 5 at 256)."""
        validate, calls, batch = _record_pt_batch(monkeypatch)
        assert validate.check_pt_matrix().passed
        assert [n for n, _ in calls] == [64, 128, 256]
        prepared, got = calls[:], []

        def own_row(row):
            def attempt(n, todo):
                runs, why = fock.trajectories([row], n, (), 1e-14)
                return [None if run is None else fock.cut_pt(
                    run["states"], n, "tp_qubit")[0] for run in runs], why
            return attempt

        for (params, _, init, t), pt in zip(_pt_frames(), batch["out"]):
            [want], report = fock.search_cutoff(
                own_row((params, init, [t], "squeezed")), 1, 64, 1024)
            got.append(max(n for n, rows in prepared
                            if init.alpha0 in rows))
            assert [got[-1]] == report.n
            assert np.max(np.abs(pt - want)) <= 1e-15
        assert {n: got.count(n) for n in set(got)} == {64: 9, 128: 6,
                                                       256: 5}

    def test_a_frame_whose_first_group_fits_can_still_leak(self,
                                                          monkeypatch):
        """A tail tolerance between the largest-coupling group's tail and
        the whole state's: both groups are solved and N is rejected."""
        from gravent import validate
        monkeypatch.setattr(validate, "PT_SAMPLES", 1)
        params, _, init, t = next(_pt_frames())
        prop = fock.ExactPropagator(
            fock.build_hamiltonian_squeezed(params, 64))
        states = prop.evolve_grid(prepare_one(init, 64, params, 1e-14), [t])
        edge = np.sum(np.abs(states.reshape(4, 64)[:, -2:]) ** 2, axis=1)
        first = edge[[j for j, _, _ in prop.pairs[0]]].sum()
        tol = (first + edge.sum()) / 2
        assert first < tol < edge.sum()
        validate, calls, _ = _record_pt_batch(monkeypatch)
        monkeypatch.setattr(validate, "PT_TAIL", tol)
        solves = _count_eig_banded(monkeypatch)
        assert validate.check_pt_matrix().passed
        assert [n for n, _ in calls] == [64, 128]
        assert solves == [(2, 64)] * 2 + [(2, 128)] * 2

    def test_a_rejected_frame_leaves_no_arrays_behind(self):
        """A frame's CutoffTooSmall is kept without its traceback, which
        would hold the frame's evolution, eigenvectors included, in a
        reference cycle until the next collection: 1.75 MB per check."""
        import gc
        import tracemalloc

        from gravent import validate
        validate.check_pt_matrix()
        gc.collect()
        gc.disable()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            validate.check_pt_matrix()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
            gc.enable()
        assert held < 200_000

    def test_a_rejected_n_leaves_no_exception_cycle(self):
        """With the collector off, a search that rejects N for some rows
        leaves nothing for it to find, in the overlap search (two
        rejected N) as in the partial-transpose one (two)."""
        import gc

        from gravent import validate
        checks = (validate.check_overlap_closed_form,
                  validate.check_pt_matrix)
        for check in checks:
            check()
        gc.collect()
        gc.disable()
        try:
            found = []
            for check in checks:
                assert check().passed
                found.append(gc.collect())
        finally:
            gc.enable()
        assert found == [0, 0]

    def test_validate_makes_56_eigensolves(self, monkeypatch):
        """72 before a frame was dropped once its first group leaks: 29
        at N = 64, 17 at 128 and 10 at 256, with the ladder modes of the
        state preparation cached."""
        from gravent import validate
        validate.check_pt_matrix()
        calls, solve = [], fock.eig_banded
        monkeypatch.setattr(fock, "eig_banded", lambda band: (
            calls.append(band.shape[1]) or solve(band)))
        assert validate.check_pt_matrix().passed
        assert {n: calls.count(n) for n in set(calls)} == {64: 29, 128: 17,
                                                           256: 10}


@pytest.fixture(scope="module")
def trajectory():
    """A squeezed-frame run at N = 48, with the dense kron-built reference
    Hamiltonian alongside the band storage the oracle evolves under."""
    params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.1)
    frame = derive_squeezed_frame(params)
    n = 48
    h = fock.build_hamiltonian_squeezed(params, n)
    psi0 = prepare_one(MediatorInit(), n, params)
    ts = np.linspace(0.0, 2.0 * frame.t_period, 25)
    states = fock.ExactPropagator(h).evolve_grid(psi0, ts)
    dense = kron_hamiltonian_squeezed(params, n)
    return dense, psi0, ts, states


def _band_cases():
    params = ModelParams.dimensionless(g_a=0.02, g_b=0.8, F=0.12,
                                       epsilon=0.3, omega_a=0.1,
                                       omega_b=0.2)
    for n in (1, 2, 3, 20):
        yield (f"lab-{n}", fock.build_hamiltonian_lab(params, n),
               kron_hamiltonian_lab(params, n))
        yield (f"squeezed-{n}", fock.build_hamiltonian_squeezed(params, n),
               kron_hamiltonian_squeezed(params, n))


class TestBandHamiltonians:
    @pytest.mark.parametrize("band,ref", [
        pytest.param(band, ref, id=label)
        for label, band, ref in _band_cases()])
    def test_band_equals_the_kron_reference(self, band, ref):
        n = ref.shape[0] // 4
        assert band.shape == (4 * n, 3)
        dense = band_to_dense(band)
        # same terms summed in another order: equal up to float64 rounding
        assert np.array_equal(dense != 0, ref != 0)
        np.testing.assert_allclose(dense, ref.real, rtol=1e-15, atol=0)
        assert not np.any(ref.imag)

    def test_squeezed_blocks_are_tridiagonal(self):
        h = fock.build_hamiltonian_squeezed(ModelParams.dimensionless(
            g_a=0.02, g_b=0.8, F=0.12, omega_a=0.1, omega_b=0.2), 16)
        assert not np.any(h[:, 2])
        lab = fock.build_hamiltonian_lab(
            ModelParams.dimensionless(g_a=0.02, g_b=0.8, F=0.12), 16)
        assert np.all(lab.reshape(4, 16, 3)[:, :-2, 2] < 0.0)


def block_eigenpairs(prop, j):
    """Eigenvalues and eigenvectors of block j of a propagator, read
    through the solve it shares: w plus its offset, and v or P v."""
    k, offset, flip = next((k, offset, flip)
                           for k, group in enumerate(prop.pairs)
                           for i, offset, flip in group if i == j)
    w, v = prop.solve(k)
    return w + offset, (-1.0) ** np.arange(len(w))[:, None] * v if flip \
        else v


class TestEvolution:
    def test_unitarity_along_trajectory(self, trajectory):
        _, _, _, states = trajectory
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10

    def test_energy_conserved(self, trajectory):
        h, psi0, _, states = trajectory
        e0 = np.vdot(psi0, h @ psi0).real
        for psi in states:
            e = np.vdot(psi, h @ psi).real
            assert abs(e - e0) <= 1e-8 * max(1.0, abs(e0))

    def test_grid_matches_single_shots(self, trajectory):
        h, psi0, ts, states = trajectory
        for k in (0, 7, 24):
            single = scipy.linalg.expm(-1j * h * ts[k]) @ psi0
            assert np.allclose(single, states[k], atol=1e-12)

    @pytest.mark.parametrize("frame_name,ts", [
        pytest.param(name, ts, id=name + grid)
        for grid, ts in (("", [0.0, 0.4, 3.0, 11.0]), ("-T=1", [3.0]),
                         ("-T=25", np.linspace(0.0, 11.0, 25)))
        for name in ("lab", "lab-eps=0", "squeezed")])
    def test_evolve_grid_matches_expm_of_the_reference(self, frame_name,
                                                       ts):
        """Squeezed and lab epsilon = 0 blocks evolve in parity pairs, lab
        blocks at epsilon != 0 each in its own eigenbasis."""
        params = ModelParams.dimensionless(
            g_a=0.05, g_b=0.7, F=0.08,
            epsilon=0.0 if frame_name == "lab-eps=0" else 0.2,
            omega_a=0.3, omega_b=0.1)
        n = 24
        if frame_name.startswith("lab"):
            band = fock.build_hamiltonian_lab(params, n)
            ref = kron_hamiltonian_lab(params, n)
        else:
            band = fock.build_hamiltonian_squeezed(params, n)
            ref = kron_hamiltonian_squeezed(params, n)
        rng = np.random.default_rng(7)
        psi0 = rng.normal(size=4 * n) + 1j * rng.normal(size=4 * n)
        psi0 /= np.linalg.norm(psi0)
        states = fock.ExactPropagator(band).evolve_grid(psi0, ts)
        assert states.shape == (len(ts), 4 * n)
        for t, psi in zip(ts, states):
            want = scipy.linalg.expm(-1j * ref * t) @ psi0
            assert np.max(np.abs(psi - want)) <= 1e-12

    @pytest.mark.parametrize("shape", [(3, 4), (8, 8), (8, 2), (6, 3),
                                       (0, 3), (12,)])
    def test_evolve_guard_checks_shape(self, shape):
        with pytest.raises(DimensionMismatch):
            fock.ExactPropagator(np.zeros(shape))

    def test_block_spectra_and_vectors(self):
        params = ModelParams.dimensionless(g_a=0.02, g_b=0.8, F=0.12)
        band = fock.build_hamiltonian_lab(params, 10)
        prop = fock.ExactPropagator(band)
        w, v = zip(*(block_eigenpairs(prop, j) for j in range(4)))
        assert np.shape(w) == (4, 10)
        assert np.shape(v) == (4, 10, 10)
        want = np.linalg.eigvalsh(kron_hamiltonian_lab(params, 10))
        np.testing.assert_allclose(np.sort(np.ravel(w)), want, atol=1e-12)

    def test_hamiltonians_are_hermitian(self):
        """The band holds the lower triangle of each block; the reference's
        upper triangle must mirror it."""
        params = ModelParams.dimensionless(g_a=0.02, g_b=0.8, F=0.12,
                                           epsilon=0.3, omega_a=0.1,
                                           omega_b=0.2)
        for band, ref in ((fock.build_hamiltonian_lab(params, 20),
                           kron_hamiltonian_lab(params, 20)),
                          (fock.build_hamiltonian_squeezed(params, 20),
                           kron_hamiltonian_squeezed(params, 20))):
            assert np.isrealobj(band)
            assert np.allclose(ref, ref.conj().T, atol=1e-12)
            lower = np.tril(band_to_dense(band))
            np.testing.assert_allclose(lower.T, np.triu(ref).real,
                                       rtol=1e-15, atol=0)


class TestTridiagonalSolver:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=1)
    @example(n=256, seed=2)
    def test_is_bit_equal_to_scipy_eig_banded(self, n, seed):
        """dstevd takes the subdiagonal alone (length max(N - 1, 1)); the
        unused last entry of the band's second row stays unread."""
        band = np.random.default_rng(seed).normal(size=(2, n))
        w, v = fock.eig_banded(band)
        want_w, want_v = scipy.linalg.eig_banded(band, lower=True)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)

    def test_non_finite_bands_are_refused(self):
        band = np.ones((2, 4))
        band[0, 2] = np.nan
        with pytest.raises(ValueError):
            fock.eig_banded(band)


PROPAGATOR_SOLVE = fock.ExactPropagator.solve.__code__


def _count_eig_banded(monkeypatch):
    """Record the band shape of each eig_banded call of a propagator."""
    calls, solve = [], fock.eig_banded

    def counting(band):
        frame = sys._getframe(1)
        while frame and frame.f_code is not PROPAGATOR_SOLVE:
            frame = frame.f_back
        if frame:
            calls.append(band.shape)
        return solve(band)

    monkeypatch.setattr(fock, "eig_banded", counting)
    return calls


def _pairing_cases():
    params = ModelParams.dimensionless(g_a=0.02, g_b=0.8, F=0.12)
    yield "squeezed", fock.build_hamiltonian_squeezed(params, 24), 2
    yield ("squeezed-omega", fock.build_hamiltonian_squeezed(
        ModelParams.dimensionless(g_a=0.02, g_b=0.8, F=0.12, omega_a=0.3,
                                  omega_b=0.1), 24), 2)
    yield ("squeezed-g_a=0", fock.build_hamiltonian_squeezed(
        ModelParams.dimensionless(g_a=0.0, g_b=0.8, F=0.12, omega_a=0.3,
                                  omega_b=0.1), 24), 1)
    # lab bands are pentadiagonal: the pair term -F (a^2 + a^dag^2)
    yield "lab-eps=0", fock.build_hamiltonian_lab(params, 24), 2
    yield ("lab-eps=0-omega", fock.build_hamiltonian_lab(
        ModelParams.dimensionless(g_a=0.02, g_b=0.8, F=0.12, omega_a=0.3,
                                  omega_b=0.1), 24), 2)
    yield ("lab-eps=0.3", fock.build_hamiltonian_lab(
        ModelParams.dimensionless(g_a=0.02, g_b=0.8, F=0.12, epsilon=0.3),
        24), 4)
    # by hand: a shifted, sign-flipped copy pairs; a copy with half its
    # subdiagonal negated or one diagonal entry moved does not
    rng = np.random.default_rng(5)
    block = rng.normal(size=(8, 3))
    block[-1, 1:] = block[-2, 2] = 0.0
    flipped, half, bent = block.copy(), block.copy(), block.copy()
    flipped[:, 0] += 0.75
    flipped[:, 1] *= -1.0
    half[:4, 1] *= -1.0
    bent[3, 0] += 0.5
    yield "by-hand", np.concatenate([block, flipped, half, bent]), 3
    other_pair = block.copy()
    other_pair[:, 2] *= 2.0
    yield ("by-hand-pair",
           np.concatenate([block, other_pair, flipped, block]), 2)


class TestParityPairing:
    CASES = list(_pairing_cases())

    @pytest.mark.parametrize("band,solves", [
        pytest.param(band, solves, id=label)
        for label, band, solves in CASES])
    def test_partners_share_one_eigensolve(self, monkeypatch, band, solves):
        calls = _count_eig_banded(monkeypatch)
        prop = fock.ExactPropagator(band)
        assert not calls
        prop.evolve_grid(np.ones(len(band)), [0.0, 1.0])
        assert len(calls) == len(prop.pairs) == solves

    @pytest.mark.parametrize("band", [pytest.param(band, id=label)
                                      for label, band, _ in CASES])
    def test_each_block_equals_its_own_eigensolve(self, band):
        """w to rounding, v column by column up to its sign."""
        prop = fock.ExactPropagator(band)
        width = 3 if band[:, 2].any() else 2
        for j, block in enumerate(band.reshape(4, -1, 3)):
            w, v = scipy.linalg.eig_banded(block.T[:width], lower=True)
            got_w, got_v = block_eigenpairs(prop, j)
            scale = max(1.0, np.max(np.abs(w)))
            np.testing.assert_allclose(got_w, w, rtol=0, atol=1e-13 * scale)
            signs = np.sign(np.sum(got_v * v, axis=0))
            np.testing.assert_allclose(got_v * signs, v, rtol=0, atol=1e-10)

    def test_validate_fig3a_makes_82_eigensolves(self, tmp_path,
                                                 monkeypatch):
        """48 propagators: 192 eigensolves before partners were paired,
        100 before the partial-transpose check dropped a frame whose
        first group leaks without solving its second, and 84 before every
        trajectory did."""
        from gravent.cli import main
        calls = _count_eig_banded(monkeypatch)
        built = []
        init = fock.ExactPropagator.__init__
        monkeypatch.setattr(fock.ExactPropagator, "__init__",
                            lambda self, h: built.append(0) or init(self, h))
        assert main(["validate", "--preset", "fig3a", "--out",
                     str(tmp_path)]) == 0
        assert (len(built), len(calls)) == (48, 82)


class TestEnCurves:
    # the reference sides of each cut, as en_bipartition takes them
    SIDES = {"tp_qubit": ((0,), (1,)), "tp_mediator": ((0,), (2,)),
             "qubit_mediator": ((1,), (2,))}

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, seed=0)
    @example(n=4, seed=1)
    def test_cut_pt_matches_the_per_state_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(4, 4 * n)) + 1j * rng.normal(size=(4, 4 * n))
        tp, qubit, med = (rng.normal(size=k) + 1j * rng.normal(size=k)
                          for k in (2, 2, n))
        states[0] = np.kron(np.kron(tp, qubit), med)
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        assert set(fock.BIPARTITIONS) == set(self.SIDES)
        for cut, sides in self.SIDES.items():
            got = log_negativity_from_partial_transpose(
                fock.cut_pt(states, n, cut))
            want = [en_bipartition(psi, (2, 2, n), *sides) for psi in states]
            assert np.max(np.abs(got - want)) <= 1e-12
            assert got[0] == 0.0
            assert len(fock.cut_pt(states[:0], n, cut)) == 0
        for psi, got in zip(states, fock.cut_pt(states, n, "tp_qubit")):
            rho = partial_trace(psi, (2, 2, n), (0, 1))
            want = partial_transpose(rho, (2, 2), 1)
            assert np.allclose(got, want, rtol=0, atol=1e-13)

    def test_oracle_reduces_states_without_the_reference(self, monkeypatch):
        import sys

        from gravent.validate import check_decoupling

        def no_reference(*args, **kwargs):
            raise AssertionError("per-state en_bipartition called")

        for name, module in list(sys.modules.items()):
            if name.startswith("gravent") and hasattr(module,
                                                      "en_bipartition"):
                monkeypatch.setattr(module, "en_bipartition", no_reference)
        fixed = {"g_a": 1.0 / 48.0, "g_b": 1.0, "F": 0.05}
        res = timeseries_figure(DynamicsSection(
            4.0, 5, backend="fock", fock_n=64,
            bipartitions=tuple(fock.BIPARTITIONS)), fixed)
        assert len(res.curves) == 3
        params = ModelParams.dimensionless(**fixed)
        check = check_decoupling(params, MediatorInit())
        assert check.passed and check.max_dev < 1e-6

    def test_requested_cuts_plus_states(self):
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.0)
        n = 24
        h = fock.build_hamiltonian_squeezed(params, n)
        psi0 = prepare_one(MediatorInit(), n, params)
        ts = [0.0, 1.0, 2.0]
        out = fock.en_curves(h, psi0, ts, n, tuple(fock.BIPARTITIONS))
        assert set(out) == {"tp_qubit", "tp_mediator", "qubit_mediator",
                            "states"}
        assert all(len(v) == 3 for v in out.values())
        assert out["states"].shape == (3, 4 * n)
        assert out["tp_qubit"][0] == 0.0


class TestConvergeCutoff:
    def test_undriven_system_converges_small(self):
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.0)
        frame = derive_squeezed_frame(params)
        ts = np.linspace(0.0, frame.t_period, 9)
        [curves], rep = fock.converge_cutoff(
            [(params, MediatorInit(), ts, "squeezed")], 1e-8, 2, 512, 1e-4)
        assert rep.n[0] <= 64
        assert len(curves["tp_qubit"]) == 9

    def test_states_belong_to_the_accepted_cutoff(self):
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.0)
        [curves], rep = fock.converge_cutoff(
            [(params, MediatorInit(), [0.0, 1.0], "squeezed")], 1e-8, 2, 512,
            1e-4)
        assert curves["states"].shape == (2, 4 * rep.n[0])

    def test_unsettled_curves_report_their_deviation(self):
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.0)
        with pytest.raises(NoConvergence) as exc:
            fock.converge_cutoff(
                [(params, MediatorInit(), [0.0, 3.0], "squeezed")], 1e-8, 48,
                96, en_tol=0.0)
        assert "N = 48: differs from N = 96 by " in str(exc.value)

    def test_strong_squeezing_is_out_of_reach(self):
        params = ModelParams.dimensionless(
            g_a=0.01, g_b=1.0, F=0.25 * (1.0 - math.exp(-4.0 * 3.0)))
        with pytest.raises(NoConvergence) as exc:
            fock.converge_cutoff(
                [(params, MediatorInit(), [0.0, 1.0], "squeezed")], 1e-8, 2,
                64, 1e-4)
        assert exc.value.report is not None
        assert exc.value.report.steps

    def test_oracle_pt_matrix_stops_at_the_ceiling(self, monkeypatch):
        from gravent import validate
        tried = []

        def never_fits(inits, n, *args, **kwargs):
            tried.append(n)
            return (np.zeros((len(inits), 4 * n), complex),
                    [CutoffTooSmall(f"no room at N = {n}", 1.0)] * len(inits))

        monkeypatch.setattr(fock, "prepare_initial", never_fits)
        monkeypatch.setattr(validate, "PT_SAMPLES", 3)
        result = validate.check_pt_matrix()
        assert not result.passed and not result.skipped
        assert "ceiling N = 1024" in result.note
        # one preparation of all samples per N, up to the ceiling
        assert tried == [64, 128, 256, 512, 1024]

    def test_a_start_above_the_ceiling_is_tried(self, monkeypatch):
        from gravent import validate
        tried = []

        def never_fits(rows, n, *args, **kwargs):
            tried.append(n)
            return ([None] * len(rows),
                    [CutoffTooSmall(f"no room at N = {n}", 1.0)] * len(rows))

        monkeypatch.setattr(fock, "trajectories", never_fits)
        monkeypatch.setattr(validate, "FOCK_N", 2048)
        result = validate.check_pt_matrix()
        assert not result.passed and not result.skipped
        assert "ceiling N = 1024 passes (N = 2048: no room" in result.note
        assert tried == [2048]

    def test_unknown_hamiltonian_label(self):
        params = ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=0.0)
        with pytest.raises(ValueError, match="squeezed"):
            fock.converge_cutoff([(params, MediatorInit(), [0.0], "exact")],
                                 1e-8, 2, 512, 1e-4)


class TestSearchCutoff:
    @staticmethod
    def fits_from(n_min, tried):
        """An attempt whose row r fits from N = n_min[r] on, or every row
        from n_min given one number, with N as its result; it records
        each N tried."""
        def attempt(n, todo):
            tried.append(n)
            low = [n_min if np.isscalar(n_min) else n_min[r] for r in todo]
            return [n] * len(todo), [
                None if n >= m else
                CutoffTooSmall(f"too small at N = {n}", 0.5) for m in low]
        return attempt

    @staticmethod
    def logging_todo(attempt, todos):
        def logged(n, todo):
            todos.append(list(todo))
            return attempt(n, todo)
        return logged

    def test_first_fit_is_accepted(self):
        tried = []
        result, rep = fock.search_cutoff(self.fits_from(20, tried), 1, 4,
                                         512)
        assert (result, rep.n) == ([32], [32])
        assert tried == [4, 8, 16, 32]
        assert [s["n"] for s in rep.steps] == tried
        assert "too small at N = 16" in rep.steps[2]["rejected"]

    def test_settled_returns_the_smaller_cutoff(self):
        tried = []
        result, rep = fock.search_cutoff(
            self.fits_from(8, tried), 1, 2, 512,
            settled=lambda prev, cur: None if cur >= 32 else 0.25)
        assert (result, rep.n) == ([16], [16])
        assert tried == [2, 4, 8, 16, 32]
        assert rep.steps[2]["rejected"] == "differs from N = 16 by 2.50e-01"

    def test_ceiling_is_tried_then_the_search_gives_up(self):
        tried = []
        with pytest.raises(NoConvergence) as exc:
            fock.search_cutoff(self.fits_from(10 ** 6, tried), 1, 64, 1024)
        assert tried == [64, 128, 256, 512, 1024]
        msg = str(exc.value)
        assert msg.startswith("no cutoff up to the ceiling N = 1024 passes")
        for n in tried:
            assert f"N = {n}: too small at N = {n} (tail mass" in msg

    def test_unsettled_ceiling_is_named(self):
        with pytest.raises(NoConvergence) as exc:
            fock.search_cutoff(self.fits_from(1, []), 1, 2, 8,
                               settled=lambda prev, cur: 1.0)
        assert str(exc.value).endswith(
            "(N = 2: differs from N = 4 by 1.00e+00; "
            "N = 4: differs from N = 8 by 1.00e+00; "
            "N = 8: not confirmed at a larger N)")

    def test_start_above_the_ceiling_is_tried_once(self):
        tried = []
        result, rep = fock.search_cutoff(self.fits_from(1, tried), 1, 600,
                                         512)
        assert (result, rep.n, tried) == ([600], [600], [600])
        with pytest.raises(NoConvergence, match="ceiling N = 512 passes "
                                                r"\(N = 600: too small"):
            fock.search_cutoff(self.fits_from(10 ** 6, []), 1, 600, 512)

    def test_doublings_stop_at_the_ceiling(self):
        tried = []
        with pytest.raises(NoConvergence):
            fock.search_cutoff(self.fits_from(10 ** 6, tried), 1, 96, 1024)
        assert tried == [96, 192, 384, 768]

    def test_other_errors_propagate(self):
        def broken(n, todo):
            raise ValueError("not a cutoff problem")
        with pytest.raises(ValueError, match="not a cutoff problem"):
            fock.search_cutoff(broken, 1, 2, 64)

    def test_rows_are_accepted_at_different_n(self):
        tried, todos = [], []
        result, rep = fock.search_cutoff(self.logging_todo(
            self.fits_from([4, 16, 8], tried), todos), 3, 2, 64)
        assert result == rep.n == [4, 16, 8]
        assert tried == [2, 4, 8, 16]
        assert todos == [[0, 1, 2], [0, 1, 2], [1, 2], [1]]
        assert [s.get("rejected") for s in rep.steps] == [
            f"too small at N = {n} (tail mass 5.000e-01)" for n in tried[:3]
        ] + [None]

    def test_settled_row_beside_a_row_that_settles_at_once(self):
        """Row 0 agrees with itself from the start; row 1 changes up to
        N = 16."""
        todos = []

        def attempt(n, todo):
            return [min(n, 16) * r for r in todo], [None] * len(todo)

        result, rep = fock.search_cutoff(
            self.logging_todo(attempt, todos), 2, 2, 64,
            settled=lambda prev, cur: None if prev == cur else cur - prev)
        assert (result, rep.n) == ([0, 16], [2, 16])
        assert todos == [[0, 1], [0, 1], [1], [1], [1]]
        assert [s.get("rejected") for s in rep.steps] == [
            "differs from N = 4 by 2.00e+00",
            "differs from N = 8 by 4.00e+00",
            "differs from N = 16 by 8.00e+00", None, None]

    def test_start_above_the_ceiling_with_several_rows(self):
        tried = []
        result, rep = fock.search_cutoff(self.fits_from(1, tried), 3, 600,
                                         512)
        assert (result, rep.n, tried) == ([600] * 3, [600] * 3, [600])
        tried.clear()
        with pytest.raises(NoConvergence, match="ceiling N = 512 passes "
                                                r"\(N = 600: too small"):
            fock.search_cutoff(self.fits_from([1, 10 ** 6], tried), 2, 600,
                               512)
        assert tried == [600]

    def test_no_convergence_names_the_first_row_left(self):
        def attempt(n, todo):
            return [n] * len(todo), [
                None if r == 0 and n >= 4 else
                CutoffTooSmall(f"row {r} too small at N = {n}", 0.5)
                for r in todo]

        with pytest.raises(NoConvergence) as exc:
            fock.search_cutoff(attempt, 3, 2, 8)
        assert str(exc.value) == (
            "no cutoff up to the ceiling N = 8 passes ("
            "N = 2: row 0 too small at N = 2 (tail mass 5.000e-01); "
            "N = 4: row 1 too small at N = 4 (tail mass 5.000e-01); "
            "N = 8: row 1 too small at N = 8 (tail mass 5.000e-01))")
        assert exc.value.report.n == [4, 0, 0]


class TestTrajectory:
    def test_leaking_trajectory_is_rejected(self):
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.0)
        vacuum = MediatorInit(alpha0=0.0, xi_mag=0.0)
        [run], [why] = fock.trajectories(
            [(params, vacuum, [0.0, math.pi], "squeezed")], 8, ("tp_qubit",),
            1e-8)
        assert run is None
        with pytest.raises(CutoffTooSmall, match="trajectory leaks at N = 8"):
            raise why

    def test_frames_agree_and_states_are_returned(self):
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.05)
        frame = derive_squeezed_frame(params)
        ts = np.linspace(0.0, frame.t_period, 5)
        init = MediatorInit(alpha0=0.5)
        [sq], sq_why = fock.trajectories(
            [(params, init, ts, "squeezed")], 48, ("tp_qubit",), 1e-8)
        [lab], lab_why = fock.trajectories(
            [(params, init, ts, "lab")], 96, ("tp_qubit",), 1e-8)
        assert sq_why == lab_why == [None]
        assert np.max(np.abs(sq["tp_qubit"] - lab["tp_qubit"])) < 1e-6
        assert sq["states"].shape == (5, 4 * 48)
        assert lab["states"].shape == (5, 4 * 96)

    def test_equal_rows_share_a_run_in_dicts_of_their_own(self):
        """Rows equal in params, init, t_grid and hamiltonian are evolved
        once; each gets its own dict over the same arrays, or the same
        rejection."""
        params = ModelParams.dimensionless(g_a=1.0 / 48.0, g_b=1.0, F=0.05)
        ts = np.linspace(0.0, 2.0, 3)
        init, wide = MediatorInit(alpha0=0.5), MediatorInit(alpha0=6.0)
        rows = [(params, init, ts, "squeezed"), (params, wide, ts, "lab"),
                (params, init, list(ts), "squeezed"),
                (params, wide, ts, "lab")]
        runs, why = fock.trajectories(rows, 48, ("tp_qubit",), 1e-8)
        assert why[0] is why[2] is None
        assert runs[0] is not runs[2]
        assert runs[0]["states"] is runs[2]["states"]
        runs[0]["tp_qubit"] = None
        assert runs[2]["tp_qubit"] is not None
        assert runs[1] is runs[3] is None
        assert "does not fit in N = 48" in str(why[1])
        assert str(why[3]) == str(why[1])

    def test_unknown_hamiltonian_label(self):
        params = ModelParams.dimensionless(g_a=0.01, g_b=1.0, F=0.0)
        with pytest.raises(ValueError, match="squeezed"):
            fock.trajectories([(params, MediatorInit(), [0.0], "exact")], 8,
                              ("tp_qubit",), 1e-8)


class TestOracleIndependence:
    """The oracle must not reuse the closed form it is checked against."""

    CLOSED_FORM = ("branch_state", "partial_transpose_matrix",
                   "displaced_overlap", "_overlap", "en_timeseries",
                   "en_at_decoupling", "dephasing_mask")

    @staticmethod
    def dynamics_imports(source: str) -> set[str]:
        """Names taken from the dynamics module or the package root."""
        import ast
        names = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                if module in (".", ".dynamics", "gravent",
                              "gravent.dynamics"):
                    names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names
                             if alias.name.startswith("gravent"))
        return names

    def test_fock_imports_only_the_mediator_init(self):
        from pathlib import Path
        source = Path(fock.__file__).read_text()
        assert self.dynamics_imports(source) == {"MediatorInit"}

    @pytest.mark.parametrize("source", [
        *(f"from .dynamics import MediatorInit, {name}\n"
          for name in CLOSED_FORM),
        "from .dynamics import MediatorInit\nfrom . import dynamics\n",
        "from .dynamics import MediatorInit\nimport gravent.dynamics\n",
        "from .dynamics import MediatorInit\nfrom gravent import "
        "en_timeseries\n",
    ])
    def test_scan_catches_a_closed_form_import(self, source):
        assert self.dynamics_imports(source) != {"MediatorInit"}
