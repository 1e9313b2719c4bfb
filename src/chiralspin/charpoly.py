"""Characteristic polynomials via the Faddeev-LeVerrier trace recursion,
parity reduction to a polynomial in lambda^2, and closed-form (radical) root
extraction up to quartic reduced degree, cross-checked against the numeric
spectrum from LAPACK, which shares no code with the trace recursion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .chiral import Symmetry, classify

__all__ = [
    "CharPoly",
    "PolySolveReport",
    "ReducedPoly",
    "SolveMethod",
    "SpectrumInconsistencyError",
    "characteristic_polynomial",
    "classify_solvability",
    "full_solve",
    "parity_reduce",
    "real_roots_closed_form",
    "solve_reduced",
]

# Coefficients below this fraction of the largest one count as zero.
ZERO_COEFF_TOL = 1e-10


class SpectrumInconsistencyError(ArithmeticError):
    """Roots impossible for a Hermitian origin: upstream data is corrupt."""


class SolveMethod(Enum):
    RADICALS = "radicals"
    NUMERIC_ONLY = "numeric_only"
    HYPERGEOMETRIC_REQUIRED = "hypergeometric_required"


@dataclass(frozen=True)
class CharPoly:
    """P(lambda) = det(H - lambda I) = sum coeffs[k] lambda^k, ascending,
    with leading coefficient (-1)^dim exactly."""

    coeffs: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def characteristic_polynomial(h) -> CharPoly:
    """Coefficients of det(H - lambda I) from the trace recursion.

    Runs the Faddeev-LeVerrier iteration

        M_k = H M_{k-1} + c_{n-k+1} I,   c_{n-k} = -tr(H M_k) / k

    on the monic polynomial det(lambda I - H), then flips the overall sign
    for odd dimension. Hermitian input keeps every coefficient real; residual
    imaginary parts are checked and dropped.
    """
    h = linalg.require_hermitian(h)
    n = h.shape[0]
    monic = np.zeros(n + 1, dtype=np.complex128)
    monic[n] = 1.0
    m = np.zeros_like(h)
    eye = linalg.identity(n)
    for k in range(1, n + 1):
        m = h @ m + monic[n - k + 1] * eye
        monic[n - k] = -np.trace(h @ m) / k
    worst_imag = float(np.max(np.abs(monic.imag)))
    scale = max(1.0, float(np.max(np.abs(monic.real))))
    if worst_imag > ZERO_COEFF_TOL * scale:
        raise SpectrumInconsistencyError(
            f"characteristic coefficients acquired imaginary parts ({worst_imag:.3e})"
        )
    sign = -1.0 if n % 2 else 1.0
    return CharPoly(tuple(float(sign * c) for c in monic.real))


@dataclass(frozen=True)
class ReducedPoly:
    """P(lambda) = lambda^zero_root_multiplicity * M(lambda^2), with the
    coefficients of M in mu_coeffs (ascending in mu = lambda^2)."""

    zero_root_multiplicity: int
    mu_coeffs: tuple[float, ...]

    def reconstruct(self) -> tuple[float, ...]:
        """Re-expand to ascending lambda coefficients, for verification."""
        m = self.zero_root_multiplicity
        out = [0.0] * (m + 2 * (len(self.mu_coeffs) - 1) + 1)
        for i, c in enumerate(self.mu_coeffs):
            out[m + 2 * i] = c
        return tuple(out)


def parity_reduce(poly: CharPoly, tol: float = ZERO_COEFF_TOL) -> tuple[bool, ReducedPoly]:
    """Factor out the zero root and read off the surviving even coefficients.

    The zero-root multiplicity is the smallest index whose coefficient is not
    negligible relative to the largest one; parity holds when every odd
    coefficient past that index is negligible on the same scale.
    """
    coeffs = np.asarray(poly.coeffs, dtype=float)
    thresh = tol * float(np.max(np.abs(coeffs)))
    above = np.abs(coeffs) > thresh
    above[-1] = True  # leading coefficient is structurally +-1
    mult = int(np.argmax(above))
    rest = coeffs[mult:]
    parity_ok = bool(np.all(np.abs(rest[1::2]) <= thresh))
    return parity_ok, ReducedPoly(mult, tuple(float(c) for c in rest[0::2]))


def _cauchy_bound(monic_tail) -> float:
    """Root magnitude bound 1 + max|c_k| for a monic polynomial tail."""
    return 1.0 + max((abs(c) for c in monic_tail), default=0.0)


def _quadratic_roots(b, c):
    """Real roots of x^2 + bx + c; tiny negative discriminants snap to a
    double root, genuinely negative ones return nothing."""
    disc = b * b - 4.0 * c
    if disc < -1e-10 * max(1.0, b * b, abs(c)):
        return []
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    x1 = (-b - root) / 2.0 if b >= 0.0 else (-b + root) / 2.0
    x2 = c / x1 if x1 != 0.0 else -b - x1
    return sorted([x1, x2])


def _cubic_roots(a2, a1, a0):
    """Real roots of a monic cubic. Three real roots (the only case arising
    from Hermitian spectra, the casus irreducibilis) use the trigonometric
    form to avoid complex intermediates; otherwise Cardano gives the single
    real root."""
    shift = a2 / 3.0
    p = a1 - a2 * a2 / 3.0
    q = 2.0 * a2**3 / 27.0 - a2 * a1 / 3.0 + a0
    disc = -4.0 * p**3 - 27.0 * q * q
    eps = 1e-12 * max(1.0, abs(p) ** 3, q * q)
    if disc >= -eps:
        if p >= 0.0:
            # disc >= 0 with p >= 0 forces p and q negligible: triple root
            return [-shift] * 3
        radius = 2.0 * math.sqrt(-p / 3.0)
        arg = (3.0 * q) / (2.0 * p) * math.sqrt(-3.0 / p)
        phi = math.acos(min(1.0, max(-1.0, arg)))
        return sorted(
            radius * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift
            for k in range(3)
        )
    half = math.sqrt(q * q / 4.0 + p**3 / 27.0)
    u = np.cbrt(-q / 2.0 + half)
    v = np.cbrt(-q / 2.0 - half)
    return [float(u + v) - shift]


def _quartic_roots(a3, a2, a1, a0):
    """Real roots of a monic quartic by resolvent-cubic factorization into
    two real quadratics (valid for all-real-root inputs)."""
    shift = a3 / 4.0
    p = a2 - 3.0 * a3 * a3 / 8.0
    q = a1 - a3 * a2 / 2.0 + a3**3 / 8.0
    r = a0 - a3 * a1 / 4.0 + a3 * a3 * a2 / 16.0 - 3.0 * a3**4 / 256.0
    yscale = max(1.0, abs(p) ** 0.5, abs(q) ** (1.0 / 3.0), abs(r) ** 0.25)
    if abs(q) <= 1e-12 * yscale**3:
        # biquadratic: y^2 solves z^2 + p z + r = 0
        roots = []
        for z in _quadratic_roots(p, r):
            if z < 0.0:
                if z < -1e-10 * yscale * yscale:
                    continue
                z = 0.0
            roots.extend([-math.sqrt(z), math.sqrt(z)])
        return sorted(y - shift for y in roots)
    zroots = _cubic_roots(2.0 * p, p * p - 4.0 * r, -q * q)
    z = max(zroots)
    if z <= 0.0:
        return []  # pairs of complex roots; cannot factor over the reals
    k = math.sqrt(z)
    s = (p + z - q / k) / 2.0
    t = (p + z + q / k) / 2.0
    roots = _quadratic_roots(k, s) + _quadratic_roots(-k, t)
    return sorted(y - shift for y in roots)


def real_roots_closed_form(coeffs) -> list[float]:
    """All real roots (with multiplicity, ascending) of a polynomial of
    degree <= 4, by radical formulas.

    Intended for polynomials whose roots are known to be real (characteristic
    polynomials of Hermitian matrices); complex pairs arising from other
    inputs are simply not returned, so callers detect them by a short count.
    """
    coeffs = [float(c) for c in coeffs]
    if not coeffs or coeffs[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    degree = len(coeffs) - 1
    if degree > 4:
        raise ValueError(f"no radical formula for degree {degree}")
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs[:-1]]
    if degree == 0:
        return []
    if degree == 1:
        return [-monic[0]]
    if degree == 2:
        return _quadratic_roots(monic[1], monic[0])
    if degree == 3:
        return _cubic_roots(monic[2], monic[1], monic[0])
    return _quartic_roots(monic[3], monic[2], monic[1], monic[0])


def solve_reduced(reduced: ReducedPoly, clamp: float | None = None) -> tuple[float, ...]:
    """Eigenvalues +-sqrt(mu) from the even-polynomial roots, plus the
    factored zeros, sorted ascending.

    mu roots slightly below zero (within ``clamp``, default 1e-9 of the root
    magnitude bound) are round-off from the coefficient recursion and snap to
    zero; anything more negative is impossible for Hermitian input and
    raises.
    """
    degree = len(reduced.mu_coeffs) - 1
    if degree > 4:
        raise ValueError(f"reduced degree {degree} has no radical solution")
    mu_roots = real_roots_closed_form(reduced.mu_coeffs)
    if len(mu_roots) < degree:
        raise SpectrumInconsistencyError(
            f"{degree - len(mu_roots)} non-real root(s) in the reduced polynomial"
        )
    if clamp is None:
        lead = reduced.mu_coeffs[-1]
        clamp = 1e-9 * _cauchy_bound([c / lead for c in reduced.mu_coeffs[:-1]])
    values = [0.0] * reduced.zero_root_multiplicity
    for mu in mu_roots:
        if mu < -clamp:
            raise SpectrumInconsistencyError(f"negative squared eigenvalue {mu:.6e}")
        lam = math.sqrt(max(mu, 0.0))
        values.extend([-lam, lam])
    return tuple(sorted(values))


def classify_solvability(dim: int, chiral: bool) -> SolveMethod:
    """Which solution route the characteristic polynomial admits.

    Chiral pairing halves the effective degree (the forced zero mode of odd
    dimension is factored out first), so radicals reach dimension 8, or 9
    with the zero mode. Effective degree five would need hypergeometric
    functions, which are reported but not evaluated.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    effective = dim // 2 if chiral else dim
    if effective <= 4:
        return SolveMethod.RADICALS
    if effective == 5:
        return SolveMethod.HYPERGEOMETRIC_REQUIRED
    return SolveMethod.NUMERIC_ONLY


@dataclass(frozen=True)
class PolySolveReport:
    """Everything the polynomial pipeline produced for one Hamiltonian."""

    charpoly: CharPoly
    parity_ok: bool
    reduced: ReducedPoly | None
    method: SolveMethod
    closed_form_eigenvalues: tuple[float, ...] | None
    numeric_eigenvalues: tuple[float, ...]
    max_root_deviation: float | None


def full_solve(h, partner=None) -> PolySolveReport:
    """Characteristic polynomial, parity reduction, radical roots where the
    degree permits, and the numeric spectrum with the worst sorted
    closed-vs-numeric deviation.

    Parity detection and root extraction run on the polynomial of H/s with
    s = max(1, ||H||_F): parity is scale-invariant, and normalizing keeps the
    trace recursion's round-off uniform instead of letting it swamp the small
    coefficients at larger norms and dimensions. Roots are rescaled by s.
    The reported polynomial is always that of H itself.

    When ``partner`` is supplied and anticommutes with H the polynomial must
    come out even; a violation indicates corrupt input and raises.
    """
    h = linalg.require_hermitian(h)
    numeric = tuple(float(x) for x in linalg.hermitian_eigensolve(h).eigenvalues)
    poly = characteristic_polynomial(h)
    scale = max(1.0, linalg.frobenius(h))
    scaled_poly = characteristic_polynomial(h / scale) if scale > 1.0 else poly
    parity_ok, scaled_reduced = parity_reduce(scaled_poly)
    mult = scaled_reduced.zero_root_multiplicity
    reduced = ReducedPoly(
        mult,
        tuple(
            d * scale ** (poly.dim - mult - 2 * i)
            for i, d in enumerate(scaled_reduced.mu_coeffs)
        ),
    )
    if partner is not None:
        verdict = classify(partner, h)
        if verdict.kind in (Symmetry.ANTICOMMUTING, Symmetry.BOTH) and not parity_ok:
            raise SpectrumInconsistencyError(
                "anticommuting partner supplied but odd coefficients survive"
            )
    closed = None
    if parity_ok:
        effective = len(scaled_reduced.mu_coeffs) - 1
        if effective <= 4:
            method = SolveMethod.RADICALS
            closed = tuple(sorted(scale * x for x in solve_reduced(scaled_reduced)))
        elif effective == 5:
            method = SolveMethod.HYPERGEOMETRIC_REQUIRED
        else:
            method = SolveMethod.NUMERIC_ONLY
    else:
        method = classify_solvability(poly.dim, chiral=False)
        if method is SolveMethod.RADICALS:
            roots = real_roots_closed_form(poly.coeffs)
            if len(roots) < poly.dim:
                raise SpectrumInconsistencyError(
                    "complex eigenvalues computed for a Hermitian matrix"
                )
            closed = tuple(roots)
    deviation = None
    if closed is not None:
        deviation = max(
            (abs(c - n) for c, n in zip(closed, numeric)), default=0.0
        )
    return PolySolveReport(
        poly,
        parity_ok,
        reduced if parity_ok else None,
        method,
        closed,
        numeric,
        deviation,
    )
