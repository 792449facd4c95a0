"""Logarithmic negativity and partial-transpose utilities.

EN = max(0, log2 || rho^T_B ||_1).  The trace norm of the partial
transpose is computed through a Hermitian eigendecomposition: every
matrix fed in here is Hermitian up to floating-point noise, so singular
values are absolute eigenvalues.  A negative eigenvalue of the partial
transpose certifies entanglement across the cut.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EigenFailure, NonHermitianInput

# Values of log2 ||.||_1 in (-EN_CLAMP, EN_CLAMP) are floating-point dust
# around a PPT state and collapse to exactly zero.
EN_CLAMP = 1e-12
HERMITICITY_TOL = 1e-10


def _check_dims(matrix: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"subsystem dims must be >= 1, got {dims}")
    n = int(np.prod(dims))
    if matrix.ndim != 2 or matrix.shape != (n, n):
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} incompatible with dims {dims}")
    return dims


def partial_transpose(rho: np.ndarray, dims: Sequence[int],
                      subsystem: int) -> np.ndarray:
    """Transpose one tensor factor of a multipartite matrix.

    Pure reindexing: involutive and bit-exact.
    """
    rho = np.asarray(rho)
    dims = _check_dims(rho, dims)
    k = len(dims)
    if not 0 <= subsystem < k:
        raise DimensionMismatch(
            f"subsystem {subsystem} out of range for {k} factors")
    tensor = rho.reshape(dims + dims)
    tensor = tensor.swapaxes(subsystem, k + subsystem)
    return tensor.reshape(rho.shape).copy()


def partial_trace(state: np.ndarray, dims: Sequence[int],
                  keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix over the kept subsystems (in given order).

    Accepts a pure-state vector or a density matrix.
    """
    state = np.asarray(state)
    dims = tuple(int(d) for d in dims)
    keep = tuple(int(i) for i in keep)
    k = len(dims)
    if len(set(keep)) != len(keep) or any(not 0 <= i < k for i in keep):
        raise DimensionMismatch(f"bad keep spec {keep} for {k} factors")
    traced = tuple(i for i in range(k) if i not in keep)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    d_tr = int(np.prod([dims[i] for i in traced])) if traced else 1

    if state.ndim == 1:
        if state.size != int(np.prod(dims)):
            raise DimensionMismatch(
                f"vector length {state.size} incompatible with dims {dims}")
        tensor = state.reshape(dims).transpose(keep + traced)
        m = tensor.reshape(d_keep, d_tr)
        return m @ m.conj().T

    _check_dims(state, dims)
    perm = keep + traced
    tensor = state.reshape(dims + dims)
    tensor = tensor.transpose(perm + tuple(k + i for i in perm))
    tensor = tensor.reshape(d_keep, d_tr, d_keep, d_tr)
    return np.einsum("abcb->ac", tensor)


def log_negativity_from_partial_transpose(matrix: np.ndarray):
    """EN per already partially transposed matrix, a float for one: log2
    of the trace norm of its Hermitian part, unless any one matrix of the
    stack is skew beyond HERMITICITY_TOL relative to its own norm."""
    matrix = np.asarray(matrix)
    adj = matrix.swapaxes(-1, -2).conj()
    asym = _frobenius(matrix - adj) / np.maximum(1.0, _frobenius(matrix))
    if (asym > HERMITICITY_TOL).any():
        raise NonHermitianInput(f"relative asymmetry {asym.max():.3e} "
                                f"exceeds tolerance {HERMITICITY_TOL:g}")
    try:
        eigs = np.linalg.eigvalsh(0.5 * (matrix + adj))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenFailure(str(exc)) from exc
    en = np.log2(np.abs(eigs).sum(axis=-1))
    en = np.where(en < EN_CLAMP, 0.0, en)
    return float(en) if en.ndim == 0 else en


def _frobenius(matrix: np.ndarray) -> np.ndarray:
    return np.sqrt((matrix * matrix.conj()).real.sum(axis=(-2, -1)))


def en_bipartition(state: np.ndarray, dims: Sequence[int],
                   side_a: Sequence[int],
                   side_b: Sequence[int] | None = None) -> float:
    """EN between two groups of subsystems, tracing out the rest.

    `state` may be a pure-state vector or a density matrix on the full
    space.  With side_b omitted, the cut is side_a against everything
    else.
    """
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    side_a = tuple(int(i) for i in side_a)
    if side_b is None:
        side_b = tuple(i for i in range(k) if i not in side_a)
    else:
        side_b = tuple(int(i) for i in side_b)
    if not side_a or not side_b:
        raise DimensionMismatch("both sides of the cut must be non-empty")
    if set(side_a) & set(side_b):
        raise DimensionMismatch("cut sides overlap")

    keep = side_a + side_b
    reduced = partial_trace(state, dims, keep)
    # transposing either side gives the same spectrum; pick the later block
    da = int(np.prod([dims[i] for i in side_a]))
    db = int(np.prod([dims[i] for i in side_b]))
    pt = partial_transpose(reduced, (da, db), 1)
    return log_negativity_from_partial_transpose(pt)


__all__ = [
    "partial_transpose", "partial_trace",
    "log_negativity_from_partial_transpose", "en_bipartition", "EN_CLAMP",
]
