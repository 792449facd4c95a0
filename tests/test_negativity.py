"""Partial transpose, partial trace, and logarithmic negativity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravent import (DimensionMismatch, NonHermitianInput, en_bipartition,
                     log_negativity, log_negativity_from_partial_transpose,
                     partial_trace, partial_transpose, trace_norm_hermitian)
from gravent.negativity import EN_CLAMP, hermitize

RNG = np.random.default_rng(7)


def random_density(dim: int, rank: int | None = None,
                   rng=RNG) -> np.ndarray:
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(dim: int, rng=RNG) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_density() -> np.ndarray:
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


class TestPartialTranspose:
    @pytest.mark.parametrize("dims,sub", [((2, 2), 0), ((2, 2), 1),
                                          ((2, 3), 1), ((2, 2, 4), 2)])
    def test_involution_is_bit_exact(self, dims, sub):
        rho = random_density(int(np.prod(dims)))
        twice = partial_transpose(partial_transpose(rho, dims, sub),
                                  dims, sub)
        assert np.array_equal(twice, rho)

    def test_trace_preserved(self):
        for _ in range(20):
            rho = random_density(6)
            pt = partial_transpose(rho, (2, 3), 0)
            assert abs(np.trace(pt) - np.trace(rho)) <= 1e-14

    def test_full_transpose_composition(self):
        rho = random_density(4)
        both = partial_transpose(partial_transpose(rho, (2, 2), 0),
                                 (2, 2), 1)
        assert np.allclose(both, rho.T, atol=1e-15)

    def test_dimension_checks(self):
        rho = random_density(4)
        with pytest.raises(DimensionMismatch):
            partial_transpose(rho, (2, 3), 0)
        with pytest.raises(DimensionMismatch):
            partial_transpose(rho, (2, 2), 2)
        with pytest.raises(DimensionMismatch):
            partial_transpose(rho, (2, 0), 0)


class TestPartialTrace:
    def test_vector_and_matrix_forms_agree(self):
        psi = RNG.normal(size=12) + 1j * RNG.normal(size=12)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        for keep in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)]:
            a = partial_trace(psi, (2, 2, 3), keep)
            b = partial_trace(rho, (2, 2, 3), keep)
            assert np.allclose(a, b, atol=1e-14)

    def test_reduction_of_product_state(self):
        v = np.kron(np.array([1.0, 0.0]), np.array([0.6, 0.8]))
        red = partial_trace(v, (2, 2), (1,))
        assert np.allclose(red, np.outer([0.6, 0.8], [0.6, 0.8]), atol=1e-15)

    def test_keep_order_transposes(self):
        psi = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        psi /= np.linalg.norm(psi)
        ab = partial_trace(psi, (2, 2), (0, 1))
        ba = partial_trace(psi, (2, 2), (1, 0))
        swap = ab.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        assert np.allclose(ba, swap, atol=1e-15)

    def test_bad_keep_spec(self):
        psi = np.ones(4) / 2.0
        with pytest.raises(DimensionMismatch):
            partial_trace(psi, (2, 2), (0, 0))
        with pytest.raises(DimensionMismatch):
            partial_trace(psi, (2, 2), (2,))


class TestHermitize:
    def test_accepts_noise_level_asymmetry(self):
        rho = random_density(4)
        noisy = rho + 1e-13 * RNG.normal(size=(4, 4))
        out = hermitize(noisy)
        assert np.allclose(out, out.conj().T, atol=0)

    def test_rejects_genuinely_skew(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NonHermitianInput):
            hermitize(m)

    def test_one_skew_matrix_fails_the_stack(self):
        stack = np.stack([random_density(4) for _ in range(5)])
        hermitize(stack)
        stack[3, 0, 1] += 1e-3
        with pytest.raises(NonHermitianInput):
            log_negativity_from_partial_transpose(stack)

    def test_scale_is_per_matrix(self):
        # a large neighbour must not hide a small matrix's asymmetry
        small = np.array([[0.0, 1e-6], [0.0, 0.0]])
        with pytest.raises(NonHermitianInput):
            hermitize(np.stack([1e8 * np.eye(2), small]))


class TestLogNegativity:
    def test_bell_state_is_one_ebit(self):
        assert log_negativity(bell_density(), (2, 2), 1) == pytest.approx(
            1.0, abs=1e-12)

    def test_stack_matches_single_matrices(self):
        states = [bell_density(), np.eye(4) / 4.0]
        states += [random_density(4, rank=r) for r in (1, 1, 2, 4)]
        pts = np.stack([partial_transpose(rho, (2, 2), 1) for rho in states])
        singles = [log_negativity_from_partial_transpose(m) for m in pts]
        assert all(type(en) is float for en in singles)
        stack = log_negativity_from_partial_transpose(pts.reshape(2, 3, 4, 4))
        assert stack.shape == (2, 3)
        assert np.max(np.abs(stack.ravel() - singles)) <= 1e-15
        assert stack[0, 1] == 0.0 < stack[0, 0]

    def test_product_state_is_zero(self):
        rho = np.kron(random_density(2, rank=1), random_density(2, rank=1))
        assert log_negativity(rho, (2, 2), 1) == 0.0

    def test_separable_mixture_is_zero(self):
        rho = sum(0.25 * np.kron(random_density(2, rank=1),
                                 random_density(2, rank=1))
                  for _ in range(4))
        rho /= np.trace(rho).real
        assert log_negativity(rho, (2, 2), 1) == 0.0

    def test_transposing_either_side_matches(self):
        for _ in range(10):
            rho = random_density(6)
            assert log_negativity(rho, (2, 3), 0) == pytest.approx(
                log_negativity(rho, (2, 3), 1), abs=1e-12)

    def test_invariant_under_local_unitaries(self):
        for _ in range(20):
            rho = random_density(4)
            u = np.kron(random_unitary(2), random_unitary(2))
            before = log_negativity(rho, (2, 2), 1)
            after = log_negativity(u @ rho @ u.conj().T, (2, 2), 1)
            assert abs(after - before) < 1e-10

    def test_two_qubit_range(self):
        for _ in range(50):
            en = log_negativity(random_density(4), (2, 2), 1)
            assert 0.0 <= en <= 1.0 + 1e-12

    def test_qubit_oscillator_nonnegative_finite(self):
        for _ in range(10):
            rho = random_density(16)
            en = log_negativity(rho, (2, 8), 1)
            assert en >= 0.0 and np.isfinite(en)

    def test_floating_point_dust_clamped(self):
        # trace norm a hair above 1 must not report phantom entanglement
        rho = np.diag([0.25, 0.25, 0.25, 0.25 + 1e-14])
        rho /= np.trace(rho)
        assert log_negativity_from_partial_transpose(rho) == 0.0
        assert EN_CLAMP == 1e-12

    def test_trace_norm_of_signed_spectrum(self):
        m = np.diag([0.75, -0.25])
        assert trace_norm_hermitian(m) == pytest.approx(1.0, abs=1e-15)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_pure_state_negativity_matches_schmidt_form(seed):
    """For pure two-qubit states EN = log2 of the squared Schmidt sum."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    sv = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    expected = max(0.0, 2.0 * np.log2(sv.sum()))
    got = log_negativity(rho, (2, 2), 1)
    assert got == pytest.approx(expected, abs=1e-10)


class TestEnBipartition:
    def test_pure_vector_input(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert en_bipartition(psi, (2, 2), (0,)) == pytest.approx(1.0,
                                                                  abs=1e-12)

    def test_traces_out_the_rest(self):
        # bell pair on factors 0,2 with factor 1 in a product state
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        psi = np.einsum("ik,j->ijk", bell.reshape(2, 2),
                        np.array([0.0, 1.0])).reshape(-1)
        assert en_bipartition(psi, (2, 2, 2), (0,), (2,)) == pytest.approx(
            1.0, abs=1e-12)
        assert en_bipartition(psi, (2, 2, 2), (0,), (1,)) == 0.0

    def test_cut_validation(self):
        psi = np.ones(8) / np.sqrt(8.0)
        with pytest.raises(DimensionMismatch):
            en_bipartition(psi, (2, 2, 2), (0,), (0, 1))
        with pytest.raises(DimensionMismatch):
            en_bipartition(psi, (2, 2, 2), (0, 1, 2))
