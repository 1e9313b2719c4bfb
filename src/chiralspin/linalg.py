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
    "ConvergenceError",
    "EigenDecomposition",
    "MatrixReport",
    "anticommutator",
    "as_matrix",
    "commutator",
    "frobenius",
    "hermitian_eigensolve",
    "identity",
    "jacobi_eigensolve",
    "kron",
    "norms_and_checks",
    "require_hermitian",
    "unitary_exp",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def _conforming(a, b):
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a, b = _conforming(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """{A, B} = AB + BA."""
    a, b = _conforming(a, b)
    return a @ b + b @ a


def kron(a, b) -> np.ndarray:
    """Kronecker product; the first factor carries the slow (outer) index."""
    return np.kron(as_matrix(a), as_matrix(b))


def hermitian_tolerance(a) -> float:
    """Scale-relative Hermiticity acceptance threshold."""
    return 1e-12 * max(1.0, frobenius(a))


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    m = as_matrix(a)
    defect = frobenius(m - m.conj().T)
    if defect > hermitian_tolerance(m):
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e})")
    return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with matching eigenvector columns (V unitary)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class MatrixReport:
    frobenius_norm: float
    hermiticity_defect: float
    unitarity_defect: float


def norms_and_checks(a) -> MatrixReport:
    """Frobenius norm plus Hermiticity and unitarity defects."""
    m = as_matrix(a)
    return MatrixReport(
        frobenius_norm=frobenius(m),
        hermiticity_defect=frobenius(m - m.conj().T),
        unitarity_defect=frobenius(m.conj().T @ m - identity(m.shape[0])),
    )


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
    ``hermitian_eigensolve``.

    Exact up to eigensolver accuracy; degenerate generators need no special
    handling.
    """
    g = require_hermitian(generator, "generator")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("angle must be finite")
    eig = hermitian_eigensolve(g)
    phases = np.exp(-1j * t * eig.eigenvalues)
    return (eig.eigenvectors * phases) @ eig.eigenvectors.conj().T


# Jacobi iteration: sweep cap and relative off-diagonal convergence target.
JACOBI_MAX_SWEEPS = 100
JACOBI_OFFDIAG_TOL = 1e-14


class ConvergenceError(RuntimeError):
    """The Jacobi iteration exhausted its sweep budget."""

    def __init__(self, sweeps, offdiag):
        super().__init__(
            f"eigensolver did not converge after {sweeps} sweeps "
            f"(off-diagonal norm {offdiag:.3e})"
        )
        self.sweeps = sweeps
        self.offdiag = offdiag


def _offdiagonal_norm(a):
    return frobenius(a - np.diag(np.diag(a)))


def _rotate_columns(m, p, q, c, s, phase):
    col_p = m[:, p].copy()
    col_q = m[:, q].copy()
    m[:, p] = c * col_p - s * np.conj(phase) * col_q
    m[:, q] = s * phase * col_p + c * col_q


def _rotate_rows(m, p, q, c, s, phase):
    row_p = m[p, :].copy()
    row_q = m[q, :].copy()
    m[p, :] = c * row_p - s * phase * row_q
    m[q, :] = s * np.conj(phase) * row_p + c * row_q


def jacobi_eigensolve(h) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with cyclic complex Jacobi rotations.

    Each sweep annihilates every off-diagonal pair in turn with a unitary
    plane rotation; iteration stops once the off-diagonal Frobenius norm
    drops below 1e-14 of the input norm. Quadratic convergence makes this
    exact to machine precision at the matrix sizes used here, and the
    accumulated rotations give orthonormal eigenvectors even for degenerate
    eigenvalues. Ties in the ascending sort keep their sweep order.

    This is the reference solver: it shares no code with LAPACK, so the
    tests check ``hermitian_eigensolve`` against it. No production path
    calls it.
    """
    h = require_hermitian(h)
    n = h.shape[0]
    a = 0.5 * (h + h.conj().T)
    v = identity(n)
    target = JACOBI_OFFDIAG_TOL * frobenius(h)
    sweeps = 0
    while _offdiagonal_norm(a) > target:
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ConvergenceError(sweeps, _offdiagonal_norm(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                mag = abs(a[p, q])
                if mag == 0.0:
                    continue
                phase = a[p, q] / mag
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                _rotate_columns(a, p, q, c, s, phase)
                _rotate_rows(a, p, q, c, s, phase)
                _rotate_columns(v, p, q, c, s, phase)
        sweeps += 1
    values = np.diag(a).real.copy()
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values[order], np.ascontiguousarray(v[:, order]))
