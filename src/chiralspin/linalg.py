"""Dense complex matrix primitives for small Hermitian problems.

Everything operates on square numpy arrays of complex128. Inputs are treated
as immutable: no function mutates its arguments and every result is a fresh
array, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "MAX_NORM",
    "anticommutator",
    "as_matrix",
    "commutator",
    "frobenius",
    "hermitian_eigensolve",
    "identity",
    "kron",
    "require_hermitian",
    "unitary_exp",
]

# The largest Frobenius norm a matrix may enter with. Up to
# angmom.MAX_HILBERT_DIM = 1024 a unitary C has ||C||_F = sqrt(dim) <= 32, so
# ||C||_F ||H||_F <= 2^1021; every entry of C H, [C, H], {C, H} and H + H^dagger
# is at most 2 ||H||_F <= 2^1017, and an eigenvalue plus a shift of at most
# MAX_NORM is at most 2^1017: all inside the double range (about 2^1024).
MAX_NORM = 2.0 ** 1016


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _conforming(a, b):
    """Validate two matrices of one shape; shared with ``chiral.classify``."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def frobenius(a) -> float:
    """Frobenius norm at any scale. ``np.linalg.norm`` sums squares, which
    overflow from entries near 1e154 and underflow below 1e-162; a result
    outside (1e-150, 1e150) is recomputed as s ||a / s|| with s = max |a_ij|.

    For complex128 input, which every caller in the package passes, the sum
    of squares is taken directly, as ``np.linalg.norm`` takes it, without the
    cost of its dispatch; other dtypes go through ``np.linalg.norm``."""
    a = np.asarray(a)
    if a.dtype == np.complex128:
        x = a.ravel(order="K")
        re, im = x.real, x.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))
    else:
        norm = float(np.linalg.norm(a))
    if not 1e-150 < norm < 1e150:
        mags = np.abs(a)
        s = float(mags.max(initial=0.0))
        if 0.0 < s < math.inf:
            norm = s * float(np.linalg.norm(mags / s))
    return norm


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a, b = _conforming(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """{A, B} = AB + BA."""
    a, b = _conforming(a, b)
    return a @ b + b @ a


def kron(a, b) -> np.ndarray:
    """Kronecker product; the first factor carries the slow (outer) index.

    One broadcast multiply, entry for entry the product ``np.kron`` forms."""
    a = as_matrix(a)
    b = as_matrix(b)
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    """The matrix as ``as_matrix`` returns it, if its Frobenius norm is at
    most ``MAX_NORM`` and it is Hermitian to 1e-12 max(1, ||A||_F)."""
    m = as_matrix(a)
    norm = frobenius(m)
    if not norm <= MAX_NORM:
        raise ValueError(f"{what} has Frobenius norm {norm:.3e}, above the limit {MAX_NORM:.3e}")
    defect = frobenius(m - m.conj().T)
    if defect > 1e-12 * max(1.0, norm):
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e})")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with matching eigenvector columns (V unitary)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigensolve(h) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    The input must pass ``require_hermitian``; LAPACK then gets its exact
    Hermitian part, so both triangles are read. Eigenvalues come back
    ascending with orthonormal eigenvector columns, also for degenerate
    eigenvalues; the order within a degenerate cluster is unspecified.
    """
    h = require_hermitian(h)
    values, vectors = np.linalg.eigh(0.5 * (h + h.conj().T))
    return EigenDecomposition(values, vectors)


def unitary_exp(generator, t: float) -> np.ndarray:
    """exp(-i t A) for Hermitian A, via the spectral decomposition of A from
    ``hermitian_eigensolve``, which rejects an A that is not Hermitian.

    Exact up to eigensolver accuracy; degenerate generators need no special
    handling.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("angle must be finite")
    eig = hermitian_eigensolve(generator)
    phases = np.exp(-1j * t * eig.eigenvalues)
    return (eig.eigenvectors * phases) @ eig.eigenvectors.conj().T
